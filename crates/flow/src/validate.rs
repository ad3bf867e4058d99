//! Structural checks on flow tables.
//!
//! SEANCE requires its input flow tables to be *normal mode* (each unstable
//! entry leads directly to a state stable under the same column) and assumes
//! they are *strongly connected* (every stable state reachable from every
//! other). These checks are exposed individually and as a combined
//! [`ValidationReport`].

use crate::{FlowTable, StateId};

/// A violation of the normal-mode requirement: the entry at `(state, column)`
/// leads to a state that is not stable under `column` (or is unspecified while
/// an output is given).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalModeViolation {
    /// Row of the offending entry.
    pub state: StateId,
    /// Column of the offending entry.
    pub column: usize,
    /// Destination named by the entry, if any.
    pub destination: Option<StateId>,
}

/// Summary of all structural checks for a flow table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// Normal-mode violations, empty when the table is normal mode.
    pub normal_mode_violations: Vec<NormalModeViolation>,
    /// Whether the state graph is strongly connected.
    pub strongly_connected: bool,
    /// States that have no stable column at all.
    pub states_without_stable_column: Vec<StateId>,
    /// Whether every entry specifies a next state.
    pub completely_specified: bool,
    /// Number of stable-state transitions with multiple-input changes.
    pub multiple_input_change_transitions: usize,
}

impl ValidationReport {
    /// `true` when the table satisfies every requirement SEANCE places on its
    /// input (normal mode, strong connectivity, at least one stable column per
    /// state). Complete specification is *not* required.
    pub fn is_acceptable(&self) -> bool {
        self.normal_mode_violations.is_empty()
            && self.strongly_connected
            && self.states_without_stable_column.is_empty()
    }
}

/// Compute all normal-mode violations of `table`.
pub fn normal_mode_violations(table: &FlowTable) -> Vec<NormalModeViolation> {
    let mut out = Vec::new();
    for s in table.states() {
        for c in 0..table.num_columns() {
            let entry = table.entry(s, c);
            match entry.next {
                Some(t) if t != s && !table.is_stable(t, c) => {
                    out.push(NormalModeViolation {
                        state: s,
                        column: c,
                        destination: Some(t),
                    });
                }
                _ => {}
            }
        }
    }
    out
}

/// `true` if `table` satisfies the normal-mode requirement.
pub fn is_normal_mode(table: &FlowTable) -> bool {
    normal_mode_violations(table).is_empty()
}

/// `true` if the directed state graph (an edge `s → t` for every specified
/// entry leading from `s` to `t ≠ s`) is strongly connected: state 0 reaches
/// every state, and every state reaches state 0.
///
/// The edges are listed once and grouped by source for the forward search
/// and by target for the backward one, so the test costs
/// O(states × columns).
pub fn is_strongly_connected(table: &FlowTable) -> bool {
    let n = table.num_states();
    if n <= 1 {
        return true;
    }
    let edges: Vec<(usize, usize)> = table
        .states()
        .flat_map(|s| {
            (0..table.num_columns())
                .filter_map(move |c| table.next_state(s, c))
                .filter(move |&t| t != s)
                .map(move |t| (s.0, t.0))
        })
        .collect();
    reaches_every_state(n, edges.iter().copied())
        && reaches_every_state(n, edges.iter().map(|&(s, t)| (t, s)))
}

/// Whether a depth-first search from state 0 along `edges` (`from → to`)
/// reaches all `n` states. The edges are grouped by `from` first.
fn reaches_every_state(n: usize, edges: impl Iterator<Item = (usize, usize)> + Clone) -> bool {
    let mut start = vec![0usize; n + 1];
    for (from, _) in edges.clone() {
        start[from + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut targets = vec![0usize; start[n]];
    for (from, to) in edges {
        targets[next[from]] = to;
        next[from] += 1;
    }
    let mut seen = vec![false; n];
    seen[0] = true;
    let mut stack = vec![0usize];
    let mut reached = 1;
    while let Some(u) = stack.pop() {
        for &v in &targets[start[u]..start[u + 1]] {
            if !seen[v] {
                seen[v] = true;
                reached += 1;
                stack.push(v);
            }
        }
    }
    reached == n
}

/// States of `table` that are stable under no input column.
pub fn states_without_stable_column(table: &FlowTable) -> Vec<StateId> {
    table
        .states()
        .filter(|&s| !(0..table.num_columns()).any(|c| table.is_stable(s, c)))
        .collect()
}

/// Run every structural check and collect a [`ValidationReport`].
pub fn validate(table: &FlowTable) -> ValidationReport {
    ValidationReport {
        normal_mode_violations: normal_mode_violations(table),
        strongly_connected: is_strongly_connected(table),
        states_without_stable_column: states_without_stable_column(table),
        completely_specified: table.is_completely_specified(),
        multiple_input_change_transitions: table.multiple_input_change_transitions().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowTableBuilder;

    fn good() -> FlowTable {
        let mut b = FlowTableBuilder::new("good", 1, 1);
        b.states(["A", "B"]);
        b.stable("A", "0", "0").unwrap();
        b.stable("B", "1", "1").unwrap();
        b.transition("A", "1", "B").unwrap();
        b.transition("B", "0", "A").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn good_table_passes_all_checks() {
        let t = good();
        let report = validate(&t);
        assert!(report.is_acceptable());
        assert!(report.completely_specified);
        assert!(report.normal_mode_violations.is_empty());
    }

    #[test]
    fn non_normal_mode_detected() {
        // A -> B under column 1, but B is NOT stable under column 1.
        let mut b = FlowTableBuilder::new("bad", 1, 1);
        b.states(["A", "B"]);
        b.stable("A", "0", "0").unwrap();
        b.stable("B", "0", "1").unwrap();
        b.transition("A", "1", "B").unwrap();
        b.transition("B", "1", "A").unwrap();
        let t = b.build().unwrap();
        let violations = normal_mode_violations(&t);
        assert_eq!(violations.len(), 2);
        assert!(!is_normal_mode(&t));
    }

    #[test]
    fn disconnected_table_detected() {
        let mut b = FlowTableBuilder::new("disc", 1, 1);
        b.states(["A", "B"]);
        b.stable("A", "0", "0").unwrap();
        b.stable("A", "1", "0").unwrap();
        b.stable("B", "0", "1").unwrap();
        b.stable("B", "1", "1").unwrap();
        let t = b.build().unwrap();
        assert!(!is_strongly_connected(&t));
        assert!(!validate(&t).is_acceptable());
    }

    #[test]
    fn state_without_stable_column_detected() {
        let mut b = FlowTableBuilder::new("nostable", 1, 1);
        b.states(["A", "B"]);
        b.stable("A", "0", "0").unwrap();
        b.stable("A", "1", "0").unwrap();
        b.transition("B", "0", "A").unwrap();
        b.transition("B", "1", "A").unwrap();
        let t = b.build().unwrap();
        assert_eq!(states_without_stable_column(&t), vec![StateId(1)]);
    }

    #[test]
    fn single_state_table_is_strongly_connected() {
        let mut b = FlowTableBuilder::new("one", 1, 1);
        b.state("A");
        b.stable("A", "0", "0").unwrap();
        b.stable("A", "1", "0").unwrap();
        let t = b.build().unwrap();
        assert!(is_strongly_connected(&t));
    }
}
