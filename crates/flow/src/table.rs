use std::fmt;

use crate::{Bits, FlowError};

/// Identifier of a flow-table state (row index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub usize);

impl StateId {
    /// The underlying row index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One cell of a flow table: the behaviour of a state under one input column.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Entry {
    /// Next state, or `None` if the entry is unspecified (don't-care).
    pub next: Option<StateId>,
    /// Output vector, or `None` if the output is unspecified for this entry.
    pub output: Option<Bits>,
}

impl Entry {
    /// `true` if neither next state nor output is specified.
    pub fn is_unspecified(&self) -> bool {
        self.next.is_none() && self.output.is_none()
    }
}

/// A *stable-state transition*: starting from a state stable under one input
/// column, the input changes and the machine settles in a (possibly different)
/// state stable under the new column.
///
/// In a Huffman flow table this is the horizontal-then-vertical movement the
/// paper's hazard-search algorithm (Figure 4) traverses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StableTransition {
    /// The source state (stable under `from_input`).
    pub from_state: StateId,
    /// The input column the source state is stable in.
    pub from_input: Bits,
    /// The destination state (stable under `to_input`).
    pub to_state: StateId,
    /// The new input column.
    pub to_input: Bits,
}

impl StableTransition {
    /// Number of input bits that change in this transition.
    pub fn input_distance(&self) -> usize {
        self.from_input.hamming_distance(&self.to_input)
    }

    /// `true` if more than one input bit changes (a multiple-input change).
    pub fn is_multiple_input_change(&self) -> bool {
        self.input_distance() > 1
    }
}

/// A (possibly incompletely specified) normal-mode Huffman flow table.
///
/// Rows are internal states, columns are total input vectors
/// (`2^num_inputs` of them, indexed by their unsigned value), and each cell is
/// an [`Entry`]. Use [`crate::FlowTableBuilder`] to construct tables
/// conveniently, or [`crate::kiss::parse`] to read KISS2 text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowTable {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    state_names: Vec<String>,
    entries: Vec<Vec<Entry>>,
}

impl FlowTable {
    /// Create an empty table with the given dimensions and state names.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyTable`] if there are no states or no inputs,
    /// and [`FlowError::DuplicateState`] if two states share a name.
    pub fn new(
        name: impl Into<String>,
        num_inputs: usize,
        num_outputs: usize,
        state_names: Vec<String>,
    ) -> Result<Self, FlowError> {
        if state_names.is_empty() || num_inputs == 0 {
            return Err(FlowError::EmptyTable);
        }
        for (i, a) in state_names.iter().enumerate() {
            if state_names[..i].contains(a) {
                return Err(FlowError::DuplicateState(a.clone()));
            }
        }
        let columns = 1 << num_inputs;
        let entries = vec![vec![Entry::default(); columns]; state_names.len()];
        Ok(FlowTable {
            name: name.into(),
            num_inputs,
            num_outputs,
            state_names,
            entries,
        })
    }

    /// The table's name (benchmark identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of input bits.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output bits.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of states (rows).
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// Number of input columns (`2^num_inputs`).
    pub fn num_columns(&self) -> usize {
        1 << self.num_inputs
    }

    /// All state identifiers in row order.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.num_states()).map(StateId)
    }

    /// All input columns as bit vectors, in index order.
    pub fn columns(&self) -> impl Iterator<Item = Bits> + '_ {
        (0..self.num_columns()).map(|c| Bits::from_index(self.num_inputs, c))
    }

    /// The name of a state.
    ///
    /// # Panics
    ///
    /// Panics if the state index is out of range.
    pub fn state_name(&self, state: StateId) -> &str {
        &self.state_names[state.0]
    }

    /// Look up a state by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names.iter().position(|n| n == name).map(StateId)
    }

    /// The entry for `state` under input column `column`.
    ///
    /// # Panics
    ///
    /// Panics if the state or column index is out of range.
    pub fn entry(&self, state: StateId, column: usize) -> &Entry {
        &self.entries[state.0][column]
    }

    /// Set the entry for `state` under `column`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::ColumnOutOfRange`] or [`FlowError::WidthMismatch`]
    /// for invalid coordinates or output width.
    pub fn set_entry(
        &mut self,
        state: StateId,
        column: usize,
        next: Option<StateId>,
        output: Option<Bits>,
    ) -> Result<(), FlowError> {
        if column >= self.num_columns() {
            return Err(FlowError::ColumnOutOfRange {
                column,
                num_inputs: self.num_inputs,
            });
        }
        if let Some(out) = &output {
            if out.width() != self.num_outputs {
                return Err(FlowError::WidthMismatch {
                    expected: self.num_outputs,
                    found: out.width(),
                });
            }
        }
        self.entries[state.0][column] = Entry { next, output };
        Ok(())
    }

    /// Next state of `state` under `column`, if specified.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn next_state(&self, state: StateId, column: usize) -> Option<StateId> {
        self.entries[state.0][column].next
    }

    /// The transition groups of an input column, keyed by destination: one
    /// group per reachable destination state, containing every state the
    /// column sends there (the destination itself included when it is
    /// stable). Groups are disjoint — each state has at most one next state
    /// per column — and returned in destination-id order; states with an
    /// unspecified entry belong to no group. This is the column partition
    /// Tracey's adjacency grouping clusters states by (the assignment
    /// engine's adjacency seeding consumes it).
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of range.
    pub fn column_groups(&self, column: usize) -> Vec<Vec<StateId>> {
        let mut by_dest: Vec<Vec<StateId>> = vec![Vec::new(); self.num_states()];
        for s in self.states() {
            if let Some(t) = self.next_state(s, column) {
                by_dest[t.0].push(s);
            }
        }
        by_dest.into_iter().filter(|g| !g.is_empty()).collect()
    }

    /// Output of `state` under `column`, if specified.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn output(&self, state: StateId, column: usize) -> Option<&Bits> {
        self.entries[state.0][column].output.as_ref()
    }

    /// `true` if `state` is stable under `column` (the entry's next state is
    /// the state itself).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn is_stable(&self, state: StateId, column: usize) -> bool {
        self.entries[state.0][column].next == Some(state)
    }

    /// Columns under which `state` is stable.
    pub fn stable_columns(&self, state: StateId) -> Vec<usize> {
        (0..self.num_columns())
            .filter(|&c| self.is_stable(state, c))
            .collect()
    }

    /// States stable under `column`.
    pub fn stable_states(&self, column: usize) -> Vec<StateId> {
        self.states()
            .filter(|&s| self.is_stable(s, column))
            .collect()
    }

    /// Total number of specified entries.
    pub fn specified_entries(&self) -> usize {
        self.entries
            .iter()
            .flat_map(|row| row.iter())
            .filter(|e| !e.is_unspecified())
            .count()
    }

    /// `true` if every entry specifies a next state.
    pub fn is_completely_specified(&self) -> bool {
        self.entries
            .iter()
            .flat_map(|row| row.iter())
            .all(|e| e.next.is_some())
    }

    /// The output associated with a stable state: the output of its first
    /// stable entry, if any entry specifies one.
    pub fn stable_output(&self, state: StateId) -> Option<&Bits> {
        self.stable_columns(state)
            .into_iter()
            .find_map(|c| self.output(state, c))
    }

    /// Enumerate every stable-state transition of the table.
    ///
    /// For each state `s` stable under column `a` and every other column `b`
    /// whose entry `(s, b)` specifies a next state `t` with `t` stable under
    /// `b`, a [`StableTransition`] is produced. Transitions with `a == b` are
    /// omitted; self-loops (`t == s`, `a != b`) are included because they still
    /// traverse an input transition space.
    pub fn stable_transitions(&self) -> Vec<StableTransition> {
        let mut out = Vec::new();
        for s in self.states() {
            for a in self.stable_columns(s) {
                for b in 0..self.num_columns() {
                    if a == b {
                        continue;
                    }
                    let Some(t) = self.next_state(s, b) else {
                        continue;
                    };
                    if self.is_stable(t, b) {
                        out.push(StableTransition {
                            from_state: s,
                            from_input: Bits::from_index(self.num_inputs, a),
                            to_state: t,
                            to_input: Bits::from_index(self.num_inputs, b),
                        });
                    }
                }
            }
        }
        out
    }

    /// Stable-state transitions in which more than one input bit changes.
    pub fn multiple_input_change_transitions(&self) -> Vec<StableTransition> {
        self.stable_transitions()
            .into_iter()
            .filter(StableTransition::is_multiple_input_change)
            .collect()
    }

    /// Produce a new table containing only the given states (in the given
    /// order), dropping entries that reference removed states.
    ///
    /// Used by state minimization when collapsing equivalence/compatibility
    /// classes.
    ///
    /// # Panics
    ///
    /// Panics if `keep` references an out-of-range state.
    pub fn restrict_to_states(&self, keep: &[StateId]) -> FlowTable {
        let names = keep
            .iter()
            .map(|&s| self.state_names[s.0].clone())
            .collect();
        let mut table = FlowTable::new(self.name.clone(), self.num_inputs, self.num_outputs, names)
            .expect("non-empty restriction of a valid table");
        for (new_idx, &old) in keep.iter().enumerate() {
            for c in 0..self.num_columns() {
                let entry = self.entry(old, c);
                let mapped_next = entry
                    .next
                    .and_then(|t| keep.iter().position(|&k| k == t).map(StateId));
                table.entries[new_idx][c] = Entry {
                    next: mapped_next,
                    output: entry.output.clone(),
                };
            }
        }
        table
    }
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flow table {} ({} inputs, {} outputs, {} states)",
            self.name,
            self.num_inputs,
            self.num_outputs,
            self.num_states()
        )?;
        write!(f, "{:>10}", "")?;
        for c in 0..self.num_columns() {
            write!(
                f,
                " {:^10}",
                Bits::from_index(self.num_inputs, c).to_string()
            )?;
        }
        writeln!(f)?;
        for s in self.states() {
            write!(f, "{:>10}", self.state_name(s))?;
            for c in 0..self.num_columns() {
                let e = self.entry(s, c);
                let cell = match (&e.next, &e.output) {
                    (None, None) => "-".to_string(),
                    (Some(t), out) => {
                        let marker = if *t == s { "*" } else { "" };
                        let out_str = out.as_ref().map(|o| format!(",{o}")).unwrap_or_default();
                        format!("{}{}{}", self.state_name(*t), marker, out_str)
                    }
                    (None, Some(out)) => format!("-,{out}"),
                };
                write!(f, " {cell:^10}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowTableBuilder;

    fn toy() -> FlowTable {
        // Two states, one input, one output: a simple toggle-ish machine.
        let mut b = FlowTableBuilder::new("toy", 1, 1);
        b.state("A").state("B");
        b.stable("A", "0", "0").unwrap();
        b.stable("B", "1", "1").unwrap();
        b.transition("A", "1", "B").unwrap();
        b.transition("B", "0", "A").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dimensions_and_lookup() {
        let t = toy();
        assert_eq!(t.num_states(), 2);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.state_name(StateId(0)), "A");
        assert_eq!(t.state_by_name("B"), Some(StateId(1)));
        assert_eq!(t.state_by_name("Z"), None);
    }

    #[test]
    fn stability_detection() {
        let t = toy();
        let a = t.state_by_name("A").unwrap();
        let b = t.state_by_name("B").unwrap();
        assert!(t.is_stable(a, 0));
        assert!(!t.is_stable(a, 1));
        assert_eq!(t.stable_columns(b), vec![1]);
        assert_eq!(t.stable_states(0), vec![a]);
    }

    #[test]
    fn stable_transitions_enumerated() {
        let t = toy();
        let trans = t.stable_transitions();
        assert_eq!(trans.len(), 2);
        assert!(trans.iter().all(|tr| tr.input_distance() == 1));
        assert!(t.multiple_input_change_transitions().is_empty());
    }

    #[test]
    fn duplicate_state_rejected() {
        let err = FlowTable::new("dup", 1, 1, vec!["A".into(), "A".into()]);
        assert!(matches!(err, Err(FlowError::DuplicateState(_))));
    }

    #[test]
    fn empty_table_rejected() {
        assert!(matches!(
            FlowTable::new("e", 1, 1, vec![]),
            Err(FlowError::EmptyTable)
        ));
        assert!(matches!(
            FlowTable::new("e", 0, 1, vec!["A".into()]),
            Err(FlowError::EmptyTable)
        ));
    }

    #[test]
    fn set_entry_validates_coordinates() {
        let mut t = toy();
        let a = StateId(0);
        assert!(matches!(
            t.set_entry(a, 5, None, None),
            Err(FlowError::ColumnOutOfRange { .. })
        ));
        assert!(matches!(
            t.set_entry(a, 0, None, Some(Bits::parse("01").unwrap())),
            Err(FlowError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn restriction_remaps_states() {
        let t = toy();
        let only_a = t.restrict_to_states(&[StateId(0)]);
        assert_eq!(only_a.num_states(), 1);
        // The A->B transition now dangles and is dropped.
        assert_eq!(only_a.next_state(StateId(0), 1), None);
        assert!(only_a.is_stable(StateId(0), 0));
    }

    #[test]
    fn display_is_nonempty() {
        let t = toy();
        let s = t.to_string();
        assert!(s.contains("toy"));
        assert!(s.contains('A'));
    }
}
