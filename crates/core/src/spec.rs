//! Specified flow tables: a flow table together with a USTT state assignment,
//! and the Boolean functions (next-state `Y`, output `Z`, stable-state
//! detector `SSD`) it induces.
//!
//! ## Variable ordering
//!
//! Throughout the crate the combinational functions are defined over the
//! variable vector `(x₁ … x_j, y₁ … y_n [, fsv])`: the external inputs first
//! (most significant minterm bits), then the state variables, then — for the
//! doubled space of Step 6 — the fantom state variable as the least
//! significant bit.
//!
//! ## Single-transition-time filling
//!
//! A USTT machine lets every state variable involved in a transition change
//! simultaneously; while the variables race, the machine's code passes through
//! intermediate points of the transition subcube. For the machine to settle
//! correctly no matter the order of changes, the next-state functions must map
//! *every* code of the subcube spanned by the source and destination codes to
//! the destination code. [`SpecifiedTable::next_state_functions`] performs this
//! filling; the race-freedom of the Tracey assignment guarantees the
//! requirements of different transitions never conflict.

use fantom_assign::StateAssignment;
use fantom_boolean::{Cover, CoverFunction, Cube, Function, Literal};
use fantom_flow::{Bits, FlowTable, StableTransition, StateId};

use crate::SynthesisError;

/// Maximum `(x, y, fsv)` variable count the pipeline supports: total states
/// must index a `u64` minterm space. The dense oracle builders additionally
/// require at most [`fantom_boolean::MAX_DENSE_VARS`] variables.
pub const MAX_TOTAL_VARS: usize = 48;

/// A flow table with a state assignment attached.
#[derive(Debug, Clone)]
pub struct SpecifiedTable {
    table: FlowTable,
    assignment: StateAssignment,
}

impl SpecifiedTable {
    /// Pair a flow table with a state assignment.
    ///
    /// # Errors
    ///
    /// Returns an error if the assignment has the wrong number of codes or the
    /// machine exceeds [`MAX_TOTAL_VARS`]. Machines above the dense-function
    /// limit construct fine — the dense `*_functions` oracle builders will
    /// fail for them, the cover-based `*_cover_functions` accessors will not.
    pub fn new(table: FlowTable, assignment: StateAssignment) -> Result<Self, SynthesisError> {
        if assignment.num_states() != table.num_states() {
            return Err(SynthesisError::InvalidFlowTable(format!(
                "assignment has {} codes for {} states",
                assignment.num_states(),
                table.num_states()
            )));
        }
        let total = table.num_inputs() + assignment.num_vars() + 1;
        if total > MAX_TOTAL_VARS {
            return Err(SynthesisError::MachineTooLarge {
                total_vars: total,
                limit: MAX_TOTAL_VARS,
            });
        }
        Ok(SpecifiedTable { table, assignment })
    }

    /// The underlying flow table.
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// The state assignment.
    pub fn assignment(&self) -> &StateAssignment {
        &self.assignment
    }

    /// Number of external input bits `j`.
    pub fn num_inputs(&self) -> usize {
        self.table.num_inputs()
    }

    /// Number of state variables `n`.
    pub fn num_state_vars(&self) -> usize {
        self.assignment.num_vars()
    }

    /// Number of external output bits `k`.
    pub fn num_outputs(&self) -> usize {
        self.table.num_outputs()
    }

    /// Number of variables of the `(x, y)` space.
    pub fn num_vars(&self) -> usize {
        self.num_inputs() + self.num_state_vars()
    }

    /// Number of variables of the `(x, y, fsv)` space.
    pub fn num_vars_extended(&self) -> usize {
        self.num_vars() + 1
    }

    /// The code assigned to a state.
    pub fn code(&self, state: StateId) -> &Bits {
        self.assignment.code(state)
    }

    /// Minterm index of the total state `(input column, state code)` in the
    /// `(x, y)` space.
    pub fn minterm(&self, column: usize, code: &Bits) -> u64 {
        let n = self.num_state_vars();
        ((column as u64) << n) | code.index() as u64
    }

    /// Decompose an `(x, y)` minterm into its input column and state code.
    pub fn decompose(&self, minterm: u64) -> (usize, Bits) {
        let n = self.num_state_vars();
        let column = (minterm >> n) as usize;
        let code = Bits::from_index(n, (minterm & ((1 << n) - 1)) as usize);
        (column, code)
    }

    /// The stable-state transitions of the underlying table.
    pub fn stable_transitions(&self) -> Vec<StableTransition> {
        self.table.stable_transitions()
    }

    /// Next-state functions `Y₁ … Y_n` over the `(x, y)` space with
    /// single-transition-time subcube filling (see module docs). Codes that do
    /// not participate in any specified entry are don't-cares.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InvalidFlowTable`] if two transitions demand
    /// conflicting values for the same total state — this indicates the
    /// assignment is not race-free.
    pub fn next_state_functions(&self) -> Result<Vec<Function>, SynthesisError> {
        let n = self.num_state_vars();
        let vars = self.num_vars();
        let mut functions: Vec<Function> = (0..n)
            .map(|_| Function::constant_dc(vars))
            .collect::<Result<_, _>>()?;
        // Track which minterms have been pinned, to detect conflicts.
        let mut pinned: Vec<Option<u64>> = vec![None; 1 << vars];

        for s in self.table.states() {
            for c in 0..self.table.num_columns() {
                let Some(t) = self.table.next_state(s, c) else {
                    continue;
                };
                let dest = self.code(t).clone();
                for code in Bits::transition_cube(self.code(s), &dest) {
                    let m = self.minterm(c, &code);
                    let dest_index = dest.index() as u64;
                    if let Some(prev) = pinned[m as usize] {
                        if prev != dest_index {
                            return Err(SynthesisError::InvalidFlowTable(format!(
                                "conflicting next-state requirements at column {c}, code {code}: \
                                 the state assignment is not race-free"
                            )));
                        }
                    }
                    pinned[m as usize] = Some(dest_index);
                    for (bit, f) in functions.iter_mut().enumerate() {
                        if dest.bit(bit) {
                            f.set_on(m);
                        } else {
                            f.set_off(m);
                        }
                    }
                }
            }
        }
        Ok(functions)
    }

    /// Output functions `Z₁ … Z_k` over the `(x, y)` space. Outputs are pinned
    /// only at total states whose entry specifies an output; everything else
    /// (transition intermediates, unused codes, unspecified entries) is a
    /// don't-care, which is what lets the self-synchronized output stage obey
    /// the single-output-change principle.
    ///
    /// # Errors
    ///
    /// Returns an error only if the machine exceeds the dense-function limit.
    pub fn output_functions(&self) -> Result<Vec<Function>, SynthesisError> {
        let k = self.num_outputs();
        let vars = self.num_vars();
        let mut functions: Vec<Function> = (0..k)
            .map(|_| Function::constant_dc(vars))
            .collect::<Result<_, _>>()?;
        for s in self.table.states() {
            for c in 0..self.table.num_columns() {
                let Some(out) = self.table.output(s, c) else {
                    continue;
                };
                let m = self.minterm(c, self.code(s));
                for (bit, f) in functions.iter_mut().enumerate() {
                    if out.bit(bit) {
                        f.set_on(m);
                    } else {
                        f.set_off(m);
                    }
                }
            }
        }
        Ok(functions)
    }

    /// The stable-state-detector function `SSD` over the `(x, y)` space:
    /// 1 on every stable total state, 0 on every specified unstable total
    /// state and on the interior of every transition subcube, don't-care
    /// elsewhere.
    ///
    /// # Errors
    ///
    /// Returns an error only if the machine exceeds the dense-function limit.
    pub fn ssd_function(&self) -> Result<Function, SynthesisError> {
        let vars = self.num_vars();
        let mut f = Function::constant_dc(vars)?;
        for s in self.table.states() {
            for c in 0..self.table.num_columns() {
                let Some(t) = self.table.next_state(s, c) else {
                    continue;
                };
                if t == s {
                    f.set_on(self.minterm(c, self.code(s)));
                } else {
                    // The whole racing subcube is unstable except the
                    // destination point.
                    let dest = self.code(t).clone();
                    for code in Bits::transition_cube(self.code(s), &dest) {
                        if code != dest {
                            f.set_off(self.minterm(c, &code));
                        }
                    }
                    f.set_on(self.minterm(c, &dest));
                }
            }
        }
        Ok(f)
    }

    /// The total-state cube of an input column together with a state-code
    /// transition subcube: the input bits are bound to `column`, state bits on
    /// which `from` and `to` agree are bound, racing bits are free. With
    /// `from == to` this is the single total-state point.
    pub fn total_state_cube(&self, column: usize, from: &Bits, to: &Bits) -> Cube {
        let j = self.num_inputs();
        let n = self.num_state_vars();
        let mut lits = Vec::with_capacity(self.num_vars());
        for i in 0..j {
            let bit = (column >> (j - 1 - i)) & 1 == 1;
            lits.push(if bit { Literal::One } else { Literal::Zero });
        }
        for v in 0..n {
            if from.bit(v) == to.bit(v) {
                lits.push(if from.bit(v) {
                    Literal::One
                } else {
                    Literal::Zero
                });
            } else {
                lits.push(Literal::DontCare);
            }
        }
        Cube::new(lits)
    }

    /// The total-state point cube of `(column, code)`.
    pub fn total_state_point(&self, column: usize, code: &Bits) -> Cube {
        self.total_state_cube(column, code, code)
    }

    /// All `(x, y)` total states the machine can occupy — every specified
    /// entry's transition subcube — as a cube cover (one cube per specified
    /// entry, possibly overlapping). The sparse counterpart of enumerating
    /// occupied minterms.
    pub fn occupied_cover(&self) -> Cover {
        let mut cubes = Vec::new();
        for s in self.table.states() {
            for c in 0..self.table.num_columns() {
                let Some(t) = self.table.next_state(s, c) else {
                    continue;
                };
                cubes.push(self.total_state_cube(c, self.code(s), self.code(t)));
            }
        }
        Cover::from_cubes(self.num_vars(), cubes)
    }

    /// Next-state functions `Y₁ … Y_n` in sparse cover form: each specified
    /// entry contributes its whole transition subcube (single-transition-time
    /// filling) to the on- or off-cover of every state variable according to
    /// the destination code, and everything never pinned stays an implicit
    /// don't-care. Equivalent to [`SpecifiedTable::next_state_functions`]
    /// point-for-point, but the cost scales with the number of specified
    /// entries instead of `2^n`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InvalidFlowTable`] if two transitions demand
    /// conflicting values for the same total state (detected as an on/off
    /// cover overlap) — this indicates the assignment is not race-free.
    pub fn next_state_cover_functions(&self) -> Result<Vec<CoverFunction>, SynthesisError> {
        let n = self.num_state_vars();
        let vars = self.num_vars();
        let mut on: Vec<Vec<Cube>> = vec![Vec::new(); n];
        let mut off: Vec<Vec<Cube>> = vec![Vec::new(); n];
        for s in self.table.states() {
            for c in 0..self.table.num_columns() {
                let Some(t) = self.table.next_state(s, c) else {
                    continue;
                };
                let cube = self.total_state_cube(c, self.code(s), self.code(t));
                let dest = self.code(t);
                for var in 0..n {
                    if dest.bit(var) {
                        on[var].push(cube.clone());
                    } else {
                        off[var].push(cube.clone());
                    }
                }
            }
        }
        on.into_iter()
            .zip(off)
            .map(|(on, off)| {
                CoverFunction::from_on_off(
                    Cover::from_cubes(vars, on),
                    Cover::from_cubes(vars, off),
                )
                .map_err(|e| {
                    SynthesisError::InvalidFlowTable(format!(
                        "conflicting next-state requirements ({e}): \
                         the state assignment is not race-free"
                    ))
                })
            })
            .collect()
    }

    /// Output functions `Z₁ … Z_k` in sparse cover form (see
    /// [`SpecifiedTable::output_functions`] for the pinning rules: only total
    /// states with a specified output are bound).
    ///
    /// # Errors
    ///
    /// Returns an error only if an output is specified inconsistently (never
    /// the case for well-formed tables).
    pub fn output_cover_functions(&self) -> Result<Vec<CoverFunction>, SynthesisError> {
        let k = self.num_outputs();
        let vars = self.num_vars();
        let mut on: Vec<Vec<Cube>> = vec![Vec::new(); k];
        let mut off: Vec<Vec<Cube>> = vec![Vec::new(); k];
        for s in self.table.states() {
            for c in 0..self.table.num_columns() {
                let Some(out) = self.table.output(s, c) else {
                    continue;
                };
                let point = self.total_state_point(c, self.code(s));
                for bit in 0..k {
                    if out.bit(bit) {
                        on[bit].push(point.clone());
                    } else {
                        off[bit].push(point.clone());
                    }
                }
            }
        }
        on.into_iter()
            .zip(off)
            .map(|(on, off)| {
                CoverFunction::from_on_off(
                    Cover::from_cubes(vars, on),
                    Cover::from_cubes(vars, off),
                )
                .map_err(|e| SynthesisError::InvalidFlowTable(format!("inconsistent outputs: {e}")))
            })
            .collect()
    }

    /// The stable-state-detector `SSD` in sparse cover form: on at stable
    /// points and transition destinations, off on the rest of each racing
    /// subcube (computed by disjoint sharp of the subcube against its
    /// destination point), implicit don't-care elsewhere.
    ///
    /// # Errors
    ///
    /// Returns an error only on an inconsistent specification (never the case
    /// for validated tables).
    pub fn ssd_cover_function(&self) -> Result<CoverFunction, SynthesisError> {
        let vars = self.num_vars();
        let mut on: Vec<Cube> = Vec::new();
        let mut off: Vec<Cube> = Vec::new();
        for s in self.table.states() {
            for c in 0..self.table.num_columns() {
                let Some(t) = self.table.next_state(s, c) else {
                    continue;
                };
                let dest_point = self.total_state_point(c, self.code(t));
                if t == s {
                    on.push(dest_point);
                } else {
                    let subcube = self.total_state_cube(c, self.code(s), self.code(t));
                    off.extend(subcube.sharp(&dest_point));
                    on.push(dest_point);
                }
            }
        }
        // A destination point may also appear inside another entry's racing
        // subcube; carve the on-points out of the off cover so the partition
        // stays consistent (the dense path resolves this by set_on ordering).
        let on_cover = Cover::from_cubes(vars, on);
        let off_cover = Cover::from_cubes(vars, off).sharp(&on_cover);
        CoverFunction::from_on_off(on_cover, off_cover)
            .map_err(|e| SynthesisError::InvalidFlowTable(format!("inconsistent SSD: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_assign::assign;
    use fantom_flow::benchmarks;

    fn spec(table: FlowTable) -> SpecifiedTable {
        let assignment = assign(&table);
        SpecifiedTable::new(table, assignment).unwrap()
    }

    #[test]
    fn minterm_round_trip() {
        let s = spec(benchmarks::lion());
        for c in 0..s.table().num_columns() {
            for code_idx in 0..(1 << s.num_state_vars()) {
                let code = Bits::from_index(s.num_state_vars(), code_idx);
                let m = s.minterm(c, &code);
                assert_eq!(s.decompose(m), (c, code));
            }
        }
    }

    #[test]
    fn next_state_functions_fix_stable_points() {
        let s = spec(benchmarks::lion());
        let y = s.next_state_functions().unwrap();
        for state in s.table().states() {
            for c in s.table().stable_columns(state) {
                let m = s.minterm(c, s.code(state));
                for (bit, f) in y.iter().enumerate() {
                    let expected = s.code(state).bit(bit);
                    assert_eq!(f.is_on(m), expected, "stable point must hold its own code");
                    assert_eq!(f.is_off(m), !expected);
                }
            }
        }
    }

    #[test]
    fn next_state_functions_fill_transition_subcubes() {
        let s = spec(benchmarks::test_example());
        let y = s.next_state_functions().unwrap();
        for tr in s.stable_transitions() {
            let col = tr.to_input.index();
            let from = s.code(tr.from_state).clone();
            let to = s.code(tr.to_state).clone();
            for code in Bits::transition_cube(&from, &to) {
                let m = s.minterm(col, &code);
                for (bit, f) in y.iter().enumerate() {
                    assert_eq!(
                        f.is_on(m),
                        to.bit(bit),
                        "subcube point {code} at column {col} must map to destination"
                    );
                }
            }
        }
    }

    #[test]
    fn output_functions_respect_specified_outputs() {
        let s = spec(benchmarks::traffic());
        let z = s.output_functions().unwrap();
        for state in s.table().states() {
            for c in 0..s.table().num_columns() {
                if let Some(out) = s.table().output(state, c) {
                    let m = s.minterm(c, s.code(state));
                    for (bit, f) in z.iter().enumerate() {
                        assert_eq!(f.is_on(m), out.bit(bit));
                    }
                }
            }
        }
    }

    #[test]
    fn ssd_is_on_exactly_at_stable_points_where_specified() {
        let s = spec(benchmarks::lion());
        let ssd = s.ssd_function().unwrap();
        for state in s.table().states() {
            for c in 0..s.table().num_columns() {
                let m = s.minterm(c, s.code(state));
                match s.table().next_state(state, c) {
                    Some(t) if t == state => assert!(ssd.is_on(m)),
                    Some(_) => assert!(ssd.is_off(m)),
                    None => {}
                }
            }
        }
    }

    #[test]
    fn wrong_assignment_size_is_rejected() {
        let table = benchmarks::lion();
        let other = assign(&benchmarks::lion9());
        assert!(matches!(
            SpecifiedTable::new(table, other),
            Err(SynthesisError::InvalidFlowTable(_))
        ));
    }

    #[test]
    fn all_benchmarks_build_specified_tables() {
        for table in benchmarks::all() {
            let s = spec(table);
            assert!(s.next_state_functions().is_ok());
            assert!(s.output_functions().is_ok());
            assert!(s.ssd_function().is_ok());
        }
    }
}
