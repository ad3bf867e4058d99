//! Step 5 of SEANCE: the function-hazard search (the paper's Figure 4).
//!
//! For every stable-state transition whose input vectors differ in more than
//! one bit, the machine may momentarily observe any input vector inside the
//! transition subcube. If, at such an intermediate vector, the flow table
//! would drive a state variable that is supposed to remain invariant across
//! the transition, that total state is a *function hazard*: depending on stray
//! delays the variable could glitch and the machine could commit to a wrong
//! state or emit a wrong output.
//!
//! The search records, for every state variable `Yₙ`, the hazard list `HLₙ`
//! of total states (input vector, present-state code) at which `Yₙ` must be
//! held, and the combined list `FL` used to generate the fantom state
//! variable.

use std::collections::BTreeSet;

use fantom_flow::{Bits, StableTransition};

use crate::SpecifiedTable;

/// One hazardous intermediate point discovered by the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardSite {
    /// The stable-state transition being traversed.
    pub transition: StableTransition,
    /// The intermediate input vector at which the hazard occurs.
    pub intermediate_input: Bits,
    /// Indices of the state variables that would spuriously change.
    pub variables: Vec<usize>,
    /// The minterm (over the `(x, y)` space) of the hazardous total state.
    pub minterm: u64,
}

/// The result of the hazard search.
///
/// The hazard lists are ordered sets of minterms of the `(x, y)` total state
/// space: they hold only the handful of hazardous total states, so their
/// size is independent of the `2^n` space — which lets the same search serve
/// machines far beyond the dense-function variable limit — and they iterate
/// in ascending order, which keeps every cover built from them
/// deterministic.
#[derive(Debug, Clone)]
pub struct HazardAnalysis {
    /// Hazard list per state variable: minterms of the `(x, y)` space at which
    /// that variable must be held while `fsv = 0`.
    pub hl: Vec<BTreeSet<u64>>,
    /// The fantom-variable list: union of all per-variable hazard lists; `fsv`
    /// is asserted exactly on these total states.
    pub fl: BTreeSet<u64>,
    /// Every hazardous intermediate point, for reporting and validation.
    pub sites: Vec<HazardSite>,
}

impl HazardAnalysis {
    /// Number of distinct hazardous total states.
    pub fn hazard_state_count(&self) -> usize {
        self.fl.len()
    }

    /// `true` if the machine has no function hazards (every multiple-input
    /// change is already safe), in which case `fsv` is constant 0.
    pub fn is_hazard_free(&self) -> bool {
        self.fl.is_empty()
    }

    /// Whether `minterm` is in the hazard list of state variable `var`.
    pub fn is_hazardous_for(&self, var: usize, minterm: u64) -> bool {
        self.hl.get(var).is_some_and(|set| set.contains(&minterm))
    }
}

/// Run the hazard search of Figure 4 over every stable-state transition of the
/// specified table.
///
/// Unlike the paper's pseudo-code, which reports the first non-invariant
/// variable, this implementation records *every* state variable that would
/// spuriously change at an intermediate point; for a USTT assignment in which
/// each transition changes a single variable the two behaviours coincide.
pub fn analyze(spec: &SpecifiedTable) -> HazardAnalysis {
    let n = spec.num_state_vars();
    let mut hl: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    let mut fl = BTreeSet::new();
    let mut sites = Vec::new();

    for transition in spec.stable_transitions() {
        if !transition.is_multiple_input_change() {
            continue;
        }
        let from_code = spec.code(transition.from_state).clone();
        let to_code = spec.code(transition.to_state).clone();

        for intermediate in Bits::transition_cube(&transition.from_input, &transition.to_input) {
            if intermediate == transition.from_input || intermediate == transition.to_input {
                continue;
            }
            let column = intermediate.index();
            let Some(u) = spec.table().next_state(transition.from_state, column) else {
                continue;
            };
            let u_code = spec.code(u);
            let mut variables = Vec::new();
            for var in 0..n {
                let invariant = from_code.bit(var) == to_code.bit(var);
                if invariant && u_code.bit(var) != from_code.bit(var) {
                    variables.push(var);
                }
            }
            if variables.is_empty() {
                continue;
            }
            let minterm = spec.minterm(column, &from_code);
            for &var in &variables {
                hl[var].insert(minterm);
            }
            fl.insert(minterm);
            sites.push(HazardSite {
                transition: transition.clone(),
                intermediate_input: intermediate,
                variables,
                minterm,
            });
        }
    }

    HazardAnalysis { hl, fl, sites }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_assign::assign;
    use fantom_flow::benchmarks;

    fn spec_for(table: fantom_flow::FlowTable) -> SpecifiedTable {
        let assignment = assign(&table);
        SpecifiedTable::new(table, assignment).unwrap()
    }

    #[test]
    fn hazard_lists_are_consistent_with_fl() {
        for table in benchmarks::all() {
            let spec = spec_for(table);
            let analysis = analyze(&spec);
            let union: BTreeSet<u64> = analysis.hl.iter().flatten().copied().collect();
            assert_eq!(union, analysis.fl, "{}", spec.table().name());
        }
    }

    #[test]
    fn hazard_sites_only_on_multiple_input_changes() {
        for table in benchmarks::all() {
            let spec = spec_for(table);
            let analysis = analyze(&spec);
            for site in &analysis.sites {
                assert!(site.transition.is_multiple_input_change());
                assert!(!site.variables.is_empty());
                // The intermediate input is strictly inside the transition cube.
                assert_ne!(site.intermediate_input, site.transition.from_input);
                assert_ne!(site.intermediate_input, site.transition.to_input);
            }
        }
    }

    #[test]
    fn hazard_variables_are_really_invariant_and_disturbed() {
        for table in benchmarks::all() {
            let spec = spec_for(table);
            let analysis = analyze(&spec);
            for site in &analysis.sites {
                let from = spec.code(site.transition.from_state);
                let to = spec.code(site.transition.to_state);
                let column = site.intermediate_input.index();
                let u = spec
                    .table()
                    .next_state(site.transition.from_state, column)
                    .expect("hazard site requires a specified entry");
                let u_code = spec.code(u);
                for &var in &site.variables {
                    assert_eq!(from.bit(var), to.bit(var), "variable must be invariant");
                    assert_ne!(u_code.bit(var), from.bit(var), "variable must be disturbed");
                }
            }
        }
    }

    #[test]
    fn paper_style_benchmarks_do_have_hazards() {
        // The whole point of FANTOM: realistic machines with multiple-input
        // changes have function hazards to neutralise.
        let hazardous = benchmarks::paper_suite()
            .into_iter()
            .filter(|t| {
                let spec = spec_for(t.clone());
                !analyze(&spec).is_hazard_free()
            })
            .count();
        assert!(
            hazardous >= 3,
            "expected most paper benchmarks to exhibit function hazards"
        );
    }

    #[test]
    fn single_input_change_machine_is_hazard_free() {
        // A machine whose every transition changes one input bit has no
        // function hazards by construction.
        use fantom_flow::FlowTableBuilder;
        let mut b = FlowTableBuilder::new("sic", 1, 1);
        b.states(["A", "B"]);
        b.stable("A", "0", "0").unwrap();
        b.stable("B", "1", "1").unwrap();
        b.transition("A", "1", "B").unwrap();
        b.transition("B", "0", "A").unwrap();
        let table = b.build().unwrap();
        let spec = spec_for(table);
        let analysis = analyze(&spec);
        assert!(analysis.is_hazard_free());
        assert_eq!(analysis.hazard_state_count(), 0);
    }
}
