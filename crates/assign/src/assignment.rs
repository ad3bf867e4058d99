//! The state-code matrix produced by the USTT assignment and its verification.

use std::fmt;

use fantom_flow::{Bits, FlowTable, StateId};

use crate::covering::{select_partitions_in, AssignScratch};
use crate::dichotomy::{required_dichotomies, Dichotomy, StateSet};
use crate::options::AssignmentOptions;

/// A complete state assignment: one binary code per flow-table state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateAssignment {
    codes: Vec<Bits>,
    num_vars: usize,
}

/// A violation detected by [`StateAssignment::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignmentError {
    /// Two states received the same code.
    DuplicateCode {
        /// First state of the colliding pair.
        a: StateId,
        /// Second state of the colliding pair.
        b: StateId,
    },
    /// A required dichotomy is not separated by any state variable, so a
    /// critical race is possible.
    CriticalRace {
        /// The dichotomy that no variable separates.
        dichotomy: String,
    },
    /// The assignment has a different number of codes than the table has states.
    WrongStateCount {
        /// Codes in the assignment.
        codes: usize,
        /// States in the table.
        states: usize,
    },
}

impl fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignmentError::DuplicateCode { a, b } => {
                write!(f, "states {a} and {b} share the same code")
            }
            AssignmentError::CriticalRace { dichotomy } => {
                write!(f, "no state variable separates dichotomy {dichotomy}")
            }
            AssignmentError::WrongStateCount { codes, states } => {
                write!(
                    f,
                    "assignment has {codes} codes but the table has {states} states"
                )
            }
        }
    }
}

impl std::error::Error for AssignmentError {}

impl StateAssignment {
    /// Build an assignment from an explicit code list.
    ///
    /// # Panics
    ///
    /// Panics if the codes do not all share the same width.
    pub fn from_codes(codes: Vec<Bits>) -> Self {
        let num_vars = codes.first().map_or(0, Bits::width);
        assert!(
            codes.iter().all(|c| c.width() == num_vars),
            "codes must share a width"
        );
        StateAssignment { codes, num_vars }
    }

    /// Number of state variables (code width).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of coded states.
    pub fn num_states(&self) -> usize {
        self.codes.len()
    }

    /// The code of a state.
    ///
    /// # Panics
    ///
    /// Panics if the state index is out of range.
    pub fn code(&self, state: StateId) -> &Bits {
        &self.codes[state.0]
    }

    /// All codes in state order.
    pub fn codes(&self) -> &[Bits] {
        &self.codes
    }

    /// The column of state variable `v` as a packed state set: bit `s` is
    /// set iff state `s` is coded 1 in variable `v`.
    fn variable_column(&self, v: usize) -> StateSet {
        StateSet::from_minterms(
            self.codes.len() as u64,
            self.codes
                .iter()
                .enumerate()
                .filter(|(_, c)| c.bit(v))
                .map(|(s, _)| s as u64),
        )
    }

    /// All variable columns in variable order.
    fn variable_columns(&self) -> Vec<StateSet> {
        (0..self.num_vars)
            .map(|v| self.variable_column(v))
            .collect()
    }

    /// Verify that this assignment is a valid USTT assignment for `table`:
    /// codes are unique and every required dichotomy is separated by some
    /// state variable (no critical races).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify(&self, table: &FlowTable) -> Result<(), AssignmentError> {
        self.verify_against(table.num_states(), &required_dichotomies(table))
    }

    /// [`StateAssignment::verify`] against an already generated list of a
    /// table's `states` and required dichotomies.
    fn verify_against(
        &self,
        states: usize,
        dichotomies: &[Dichotomy],
    ) -> Result<(), AssignmentError> {
        if self.codes.len() != states {
            return Err(AssignmentError::WrongStateCount {
                codes: self.codes.len(),
                states,
            });
        }
        for a in 0..states {
            for b in a + 1..states {
                if self.codes[a] == self.codes[b] {
                    return Err(AssignmentError::DuplicateCode {
                        a: StateId(a),
                        b: StateId(b),
                    });
                }
            }
        }
        let columns = self.variable_columns();
        for d in dichotomies {
            if !columns.iter().any(|ones| d.separated_by(ones)) {
                return Err(AssignmentError::CriticalRace {
                    dichotomy: d.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Whether some state variable separates the dichotomy. Columns are
    /// built lazily so the scan stops at the first separating variable;
    /// batch checks over many dichotomies precompute the columns once
    /// (see [`StateAssignment::verify`]).
    pub fn separates(&self, dichotomy: &Dichotomy) -> bool {
        (0..self.num_vars).any(|v| dichotomy.separated_by(&self.variable_column(v)))
    }
}

impl fmt::Display for StateAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, code) in self.codes.iter().enumerate() {
            writeln!(f, "{} -> {}", StateId(i), code)?;
        }
        Ok(())
    }
}

/// Produce a USTT (Tracey) state assignment for `table` with the default
/// [`AssignmentOptions`].
pub fn assign(table: &FlowTable) -> StateAssignment {
    assign_with_options(table, &AssignmentOptions::default())
}

/// Produce a USTT (Tracey) state assignment for `table` under the budgets of
/// `options`.
///
/// The code uses one variable per partition selected by
/// [`select_partitions_in`], extended if necessary so that every state
/// receives a unique code. The
/// result is valid for any budget: the partition selection covers every
/// required dichotomy (uncovered ones get dedicated partitions) and the
/// uniqueness safety net guarantees pairwise-distinct codes, so the returned
/// assignment always passes [`StateAssignment::verify`].
pub fn assign_with_options(table: &FlowTable, options: &AssignmentOptions) -> StateAssignment {
    assign_in(table, options, &mut AssignScratch::default())
}

/// Adjacency seed dichotomies from Tracey's column grouping: the states of
/// each input column cluster into transition groups (the preimages of the
/// column's next-state function, destination-keyed), and every binary split
/// of the group list by an index bit yields one seed dichotomy. Growing
/// candidates from these seeds pulls states that move together under some
/// input onto the same side of a partition, which reaches merges the
/// dichotomy-seeded orderings tend to miss on wide-column machines.
pub fn adjacency_seeds(table: &FlowTable) -> Vec<Dichotomy> {
    let n = table.num_states();
    let mut seen: fantom_boolean::collections::HashSet<Dichotomy> = Default::default();
    let mut seeds: Vec<Dichotomy> = Vec::new();
    for c in 0..table.num_columns() {
        let groups = table.column_groups(c);
        let k = groups.len();
        if k < 2 {
            continue;
        }
        let bits = (usize::BITS - (k - 1).leading_zeros()) as usize;
        for v in 0..bits {
            let mut left = StateSet::new(n as u64);
            let mut right = StateSet::new(n as u64);
            for (gi, group) in groups.iter().enumerate() {
                let side = if gi >> v & 1 == 0 {
                    &mut left
                } else {
                    &mut right
                };
                for &s in group {
                    side.insert(s.0 as u64);
                }
            }
            if left.is_empty() || right.is_empty() {
                continue;
            }
            let d = Dichotomy::from_sets(left, right);
            if seen.insert(d.clone()) {
                seeds.push(d);
            }
        }
    }
    seeds
}

/// [`assign_with_options`] with reusable `scratch` buffers — the batch entry
/// point: a synthesis `Workspace` carries one [`AssignScratch`] so the
/// dichotomy index, growth state and candidate pool are allocated once per
/// worker rather than once per machine. Candidate growth starts from the
/// table's [`adjacency_seeds`], then runs the seed orderings.
pub fn assign_in(
    table: &FlowTable,
    options: &AssignmentOptions,
    scratch: &mut AssignScratch,
) -> StateAssignment {
    assign_for(table, &required_dichotomies(table), options, scratch)
}

/// [`assign_in`] with its codes checked as [`StateAssignment::verify`]
/// checks them, against the required dichotomies the assignment was built
/// from: the list is generated once, not again for the check.
///
/// # Errors
///
/// Returns the first violation found (never the case: see
/// [`assign_with_options`]).
pub fn assign_verified_in(
    table: &FlowTable,
    options: &AssignmentOptions,
    scratch: &mut AssignScratch,
) -> Result<StateAssignment, AssignmentError> {
    let dichotomies = required_dichotomies(table);
    let assignment = assign_for(table, &dichotomies, options, scratch);
    assignment.verify_against(table.num_states(), &dichotomies)?;
    Ok(assignment)
}

/// [`assign_in`] over `table`'s already generated required `dichotomies`.
fn assign_for(
    table: &FlowTable,
    dichotomies: &[Dichotomy],
    options: &AssignmentOptions,
    scratch: &mut AssignScratch,
) -> StateAssignment {
    let seeds = adjacency_seeds(table);
    let partitions = select_partitions_in(dichotomies, &seeds, options, scratch);
    let n = table.num_states();

    let mut columns: Vec<StateSet> = partitions.iter().map(|p| p.ones().clone()).collect();

    // Safety net: if some pair of states is still not distinguished (possible
    // only if the dichotomy generation were incomplete), add a column that
    // separates it.
    loop {
        let mut clash = None;
        'outer: for a in 0..n {
            for b in (a + 1)..n {
                let same = columns
                    .iter()
                    .all(|ones| ones.contains(a as u64) == ones.contains(b as u64));
                if same {
                    clash = Some((a, b));
                    break 'outer;
                }
            }
        }
        match clash {
            None => break,
            Some((_, b)) => {
                columns.push(StateSet::from_minterms(n as u64, [b as u64]));
            }
        }
    }

    let codes: Vec<Bits> = (0..n)
        .map(|s| Bits::from_bools(columns.iter().map(|ones| ones.contains(s as u64)).collect()))
        .collect();
    StateAssignment::from_codes(codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_flow::benchmarks;

    #[test]
    fn assignments_verify_for_all_benchmarks() {
        for table in benchmarks::all() {
            let assignment = assign(&table);
            assert_eq!(assignment.num_states(), table.num_states());
            assignment
                .verify(&table)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        }
    }

    #[test]
    fn bounded_assignments_also_verify() {
        for table in benchmarks::all() {
            let assignment = assign_with_options(&table, &AssignmentOptions::bounded());
            assignment
                .verify(&table)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        }
    }

    #[test]
    fn variable_counts_are_reasonable() {
        for table in benchmarks::all() {
            let assignment = assign(&table);
            let lower = (usize::BITS - (table.num_states() - 1).leading_zeros()) as usize;
            assert!(assignment.num_vars() >= lower);
            assert!(
                assignment.num_vars() <= table.num_states(),
                "{} needed {} vars for {} states",
                table.name(),
                assignment.num_vars(),
                table.num_states()
            );
        }
    }

    #[test]
    fn verify_detects_duplicate_codes() {
        let table = benchmarks::lion();
        let dup = StateAssignment::from_codes(vec![
            Bits::parse("00").unwrap(),
            Bits::parse("00").unwrap(),
            Bits::parse("10").unwrap(),
            Bits::parse("11").unwrap(),
        ]);
        assert!(matches!(
            dup.verify(&table),
            Err(AssignmentError::DuplicateCode { .. })
        ));
    }

    #[test]
    fn verify_detects_wrong_state_count() {
        let table = benchmarks::lion();
        let short = StateAssignment::from_codes(vec![Bits::parse("0").unwrap()]);
        assert!(matches!(
            short.verify(&table),
            Err(AssignmentError::WrongStateCount { .. })
        ));
    }

    #[test]
    fn verify_detects_critical_races() {
        // A straight binary encoding of lion is generally not race-free; if it
        // happens to verify, perturb expectations accordingly. We assert only
        // that `verify` is consistent with `separates` over all dichotomies.
        let table = benchmarks::lion();
        let naive = StateAssignment::from_codes(vec![
            Bits::parse("00").unwrap(),
            Bits::parse("01").unwrap(),
            Bits::parse("10").unwrap(),
            Bits::parse("11").unwrap(),
        ]);
        let dichotomies = required_dichotomies(&table);
        let all_separated = dichotomies.iter().all(|d| naive.separates(d));
        assert_eq!(naive.verify(&table).is_ok(), all_separated);
    }

    #[test]
    fn adjacency_seeds_are_valid_dichotomies() {
        for table in benchmarks::all() {
            for d in adjacency_seeds(&table) {
                assert!(!d.left().is_empty() && !d.right().is_empty());
                assert!(d.left().is_disjoint(d.right()));
                let max = d
                    .left()
                    .iter()
                    .chain(d.right().iter())
                    .max()
                    .expect("non-empty");
                assert!((max as usize) < table.num_states());
            }
        }
    }

    #[test]
    fn adjacency_seeding_preserves_validity_and_reuses_scratch() {
        let mut scratch = AssignScratch::default();
        let options = AssignmentOptions::default();
        for table in benchmarks::all() {
            let assignment = assign_in(&table, &options, &mut scratch);
            assignment
                .verify(&table)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            let from_fresh = assign_with_options(&table, &options);
            assert_eq!(
                assignment.codes(),
                from_fresh.codes(),
                "{}: scratch reuse changed the assignment",
                table.name()
            );
            let verified = assign_verified_in(&table, &options, &mut scratch)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            assert_eq!(verified, assignment, "{}", table.name());
        }
    }

    #[test]
    fn code_width_pins_hold() {
        // The small-corpus and large-suite width pins the benchmark gate
        // tracks; regressions here are code-quality regressions.
        let lion9 = assign(&benchmarks::lion9());
        assert!(
            lion9.num_vars() <= 4,
            "lion9 widened to {}",
            lion9.num_vars()
        );
        let train11 = assign(&benchmarks::train11());
        assert!(
            train11.num_vars() <= 5,
            "train11 widened to {}",
            train11.num_vars()
        );
        let bounded = AssignmentOptions::bounded();
        for (table, pin) in [
            (benchmarks::chain40(), 12),
            (benchmarks::ring44(), 12),
            (benchmarks::wide36(), 11),
        ] {
            let assignment = assign_with_options(&table, &bounded);
            assignment
                .verify(&table)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            assert!(
                assignment.num_vars() <= pin,
                "{} widened to {} vars (pin {pin})",
                table.name(),
                assignment.num_vars()
            );
        }
    }
}
