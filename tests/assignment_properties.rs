//! Property-based integration tests for the state-assignment and
//! specification layers: race-freedom of the USTT assignment and consistency
//! of the specified next-state functions, checked on randomly generated
//! normal-mode flow tables.

use fantom_assign::{assign, required_dichotomies};
use fantom_flow::{Bits, FlowTable, StateId};
use proptest::prelude::*;
use seance::{synthesize_sparse, SpecifiedTable, SynthesisOptions};

/// Generate a random normal-mode, strongly connected flow table over two
/// inputs by the same construction the benchmark corpus uses: pick a stable
/// column per state, then wire every remaining column of every state to some
/// state that is stable there (or leave it unspecified).
fn arb_flow_table() -> impl Strategy<Value = FlowTable> {
    let num_states = 3usize..7;
    num_states
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0usize..4, n), // stable column per state
                proptest::collection::vec(0usize..n, n * 4), // destination choices
                proptest::collection::vec(0u8..3, n * 4), // 0/1 = specify, 2 = leave out
                proptest::collection::vec(any::<bool>(), n), // output bit per state
            )
        })
        .prop_map(|(n, stable_cols, dests, specify, outputs)| {
            build_table(n, &stable_cols, &dests, &specify, &outputs)
        })
        .prop_filter("table must be acceptable to SEANCE", |t| {
            fantom_flow::validate::validate(t).is_acceptable()
        })
}

fn build_table(
    n: usize,
    stable_cols: &[usize],
    dests: &[usize],
    specify: &[u8],
    outputs: &[bool],
) -> FlowTable {
    let names: Vec<String> = (0..n).map(|i| format!("R{i}")).collect();
    let mut table = FlowTable::new("random", 2, 1, names).expect("non-empty table");
    for s in 0..n {
        let out = Bits::from_bools(vec![outputs[s]]);
        table
            .set_entry(
                StateId(s),
                stable_cols[s],
                Some(StateId(s)),
                Some(out.clone()),
            )
            .expect("valid entry");
        for c in 0..4 {
            if c == stable_cols[s] {
                continue;
            }
            let idx = s * 4 + c;
            if specify[idx] == 2 {
                continue;
            }
            // Destination must be stable under column c; walk from the random
            // choice until one is found (there may be none).
            let candidate = (0..n)
                .map(|k| (dests[idx] + k) % n)
                .find(|&d| stable_cols[d] == c);
            if let Some(d) = candidate {
                table
                    .set_entry(StateId(s), c, Some(StateId(d)), Some(out.clone()))
                    .expect("valid entry");
            }
        }
    }
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Tracey assignment always verifies: unique codes and every required
    /// dichotomy separated by some state variable.
    #[test]
    fn assignment_is_always_race_free(table in arb_flow_table()) {
        let assignment = assign(&table);
        prop_assert!(assignment.verify(&table).is_ok());
    }

    /// Every required dichotomy is separated by at least one variable of the
    /// produced assignment (the defining property, stated directly).
    #[test]
    fn every_dichotomy_is_separated(table in arb_flow_table()) {
        let assignment = assign(&table);
        for d in required_dichotomies(&table) {
            prop_assert!(assignment.separates(&d), "dichotomy {} not separated", d);
        }
    }

    /// The single-transition-time filling never conflicts for a verified
    /// assignment, and every stable total state maps to itself.
    #[test]
    fn next_state_functions_are_consistent(table in arb_flow_table()) {
        let assignment = assign(&table);
        let spec = SpecifiedTable::new(table.clone(), assignment).expect("spec builds");
        let y = spec.next_state_functions().expect("no race conflicts");
        for s in table.states() {
            for c in table.stable_columns(s) {
                let m = spec.minterm(c, spec.code(s));
                for (bit, f) in y.iter().enumerate() {
                    prop_assert_eq!(f.is_on(m), spec.code(s).bit(bit));
                }
            }
        }
    }

    /// The full pipeline succeeds on every random acceptable table and the
    /// produced equations satisfy the structural hazard-freedom checks.
    #[test]
    fn pipeline_succeeds_on_random_tables(table in arb_flow_table()) {
        let options = SynthesisOptions { minimize_states: false, ..SynthesisOptions::default() };
        let result = synthesize_sparse(&table, &options).expect("synthesis succeeds");
        prop_assert!(seance::validate::verify_hold_property(&result).is_ok());
        prop_assert!(seance::validate::verify_fsv_marks_hazards(&result).is_ok());
        prop_assert!(seance::validate::verify_equations_implement_table(&result).is_ok());
    }
}
