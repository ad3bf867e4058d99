//! Integration tests for the cover-based synthesis pipeline and the bounded
//! Step-2 reduction of the large benchmark machines.
//!
//! Since the packed, budgeted Step-3 engine landed, the unreduced 40-state
//! Tracey assignments cost milliseconds instead of ~25 s in debug builds, so
//! the whole large suite — reduced *and* unreduced — runs in tier-1 with no
//! `#[ignore]` gating. A side effect of the shorter codes it finds: the
//! machines' `(x, y)` spaces shrank enough that the dense oracle builders
//! can tabulate them unreduced, which the differential test below exploits.

use fantom_assign::AssignmentOptions;
use fantom_flow::benchmarks;
use seance::fuzz::check_against_oracle;
use seance::{synthesize_sparse, SynthesisError, SynthesisOptions};

/// The PR 2 shape of the large-machine run: Step 2 disabled, so the machines
/// keep their full 40-state-class flow tables.
fn unreduced_options() -> SynthesisOptions {
    SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::for_large_machines()
    }
}

/// Bounded reduction must run Step 2 on every large machine (no
/// `MachineTooLarge` skip, no fallback) and still synthesize end to end.
#[test]
fn bounded_reduction_synthesizes_the_large_suite() {
    for table in benchmarks::large_suite() {
        let result = synthesize_sparse(&table, &SynthesisOptions::for_large_machines())
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        let name = table.name();
        // Step 2 ran and actually merged states: the synthetic chains are
        // don't-care-heavy and therefore redundant.
        assert!(
            result.reduced_table.num_states() < table.num_states(),
            "{name}: bounded reduction merged nothing ({} states)",
            result.reduced_table.num_states()
        );
        assert!(result.factored.fsv_cover.cube_count() > 0, "{name}");
        assert_eq!(
            result.depth.total_depth,
            result.depth.fsv_depth + result.depth.y_depth + 1,
            "{name}"
        );
        // Every minimized cover still implements its cover function.
        assert!(
            result
                .equations
                .fsv
                .implemented_by(&result.equations.fsv_cover),
            "{name}: fsv cover"
        );
        for (f, c) in result.equations.y.iter().zip(&result.equations.y_covers) {
            assert!(f.implemented_by(c), "{name}: y cover");
        }
        for (f, c) in result.outputs.z.iter().zip(&result.outputs.z_covers) {
            assert!(f.implemented_by(c), "{name}: z cover");
        }
        // The chains stay rich in multiple-input changes even after merging,
        // so the hazard machinery is still exercised on the reduced machines.
        assert!(
            !result.hazards.is_hazard_free(),
            "{name}: expected function hazards after reduction"
        );
    }
}

/// Assignment budgets bound the code search, never its validity: even with
/// candidate generation, refinement and the exact search all but disabled,
/// the degraded assignment verifies — it just spends more state variables
/// than the default budgets would.
#[test]
fn starved_assignment_budgets_degrade_width_not_validity() {
    let starved = SynthesisOptions {
        assignment: AssignmentOptions {
            max_candidate_partitions: 1,
            seed_orderings: 1,
            refine_passes: 0,
            exact_max_candidates: 0,
            exact_node_budget: 0,
            adjacency_seeding: false,
        },
        ..unreduced_options()
    };
    let table = benchmarks::chain40();
    let degraded = synthesize_sparse(&table, &starved).expect("degraded chain40");
    let default = synthesize_sparse(&table, &unreduced_options()).expect("default chain40");
    assert!(
        degraded.assignment.verify(&degraded.reduced_table).is_ok(),
        "degraded assignment must still be race-free"
    );
    assert!(
        degraded.assignment.num_vars() >= default.assignment.num_vars(),
        "starving the budgets should never find a shorter code ({} vs {})",
        degraded.assignment.num_vars(),
        default.assignment.num_vars()
    );
}

/// Machines whose total variable count exceeds `MAX_TOTAL_VARS` are rejected
/// with `MachineTooLarge` at specification time instead of thrashing.
#[test]
fn oversized_assignments_are_rejected() {
    use fantom_flow::Bits;
    let table = benchmarks::chain40();
    // A (valid but absurdly wide) 47-variable unicode assignment: 2 inputs
    // + 47 state variables + fsv = 50 > 48 total.
    let wide = fantom_assign::StateAssignment::from_codes(
        (0..table.num_states())
            .map(|s| Bits::from_index(47, s))
            .collect(),
    );
    let result = seance::SpecifiedTable::new(table, wide);
    assert!(
        matches!(result, Err(SynthesisError::MachineTooLarge { .. })),
        "oversized assignment unexpectedly accepted"
    );
}

/// The packed Step-3 engine finds codes short enough that chain40 fits the
/// dense oracle even unreduced — so every cover can be pinned against the
/// minterm-wise functions on a 40-state machine, far beyond the small corpus
/// the differential tests used to be limited to.
#[test]
fn dense_and_sparse_agree_on_unreduced_chain40() {
    let table = benchmarks::chain40();
    let r = synthesize_sparse(&table, &unreduced_options()).expect("chain40 synthesizes");
    assert!(r.spec.num_vars_extended() <= fantom_boolean::MAX_DENSE_VARS);
    check_against_oracle(&r).unwrap_or_else(|e| panic!("chain40: {e}"));
}

#[test]
fn sparse_pipeline_synthesizes_the_large_suite() {
    for table in benchmarks::large_suite() {
        let result = synthesize_sparse(&table, &unreduced_options())
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        let name = table.name();
        // The assignment is race-free and as wide as information-theoretically
        // necessary (the packed engine keeps it close to that bound).
        assert!(
            result.assignment.verify(&result.reduced_table).is_ok(),
            "{name}: assignment fails verification"
        );
        let lower = (usize::BITS - (table.num_states() - 1).leading_zeros()) as usize;
        assert!(
            result.assignment.num_vars() >= lower,
            "{name}: {} vars cannot encode {} states",
            result.assignment.num_vars(),
            table.num_states()
        );
        // These machines are rich in multiple-input changes, so they must
        // exhibit function hazards and a non-trivial fsv.
        assert!(
            !result.hazards.is_hazard_free(),
            "{name}: expected function hazards"
        );
        assert!(result.factored.fsv_cover.cube_count() > 0, "{name}");
        assert_eq!(
            result.depth.total_depth,
            result.depth.fsv_depth + result.depth.y_depth + 1,
            "{name}"
        );
        // Every minimized cover implements its cover function.
        assert!(
            result
                .equations
                .fsv
                .implemented_by(&result.equations.fsv_cover),
            "{name}: fsv cover"
        );
        for (f, c) in result.equations.y.iter().zip(&result.equations.y_covers) {
            assert!(f.implemented_by(c), "{name}: y cover");
        }
        for (f, c) in result.outputs.z.iter().zip(&result.outputs.z_covers) {
            assert!(f.implemented_by(c), "{name}: z cover");
        }
        assert!(
            result.outputs.ssd.implemented_by(&result.outputs.ssd_cover),
            "{name}: ssd cover"
        );
        // The factored (hazard-augmented) covers still implement the
        // functions.
        assert!(
            result
                .equations
                .fsv
                .implemented_by(&result.factored.fsv_cover),
            "{name}: factored fsv"
        );
        for (f, c) in result.equations.y.iter().zip(&result.factored.y_covers) {
            assert!(f.implemented_by(c), "{name}: factored y");
        }
        // Spot-check the fantom-variable property on a sample of hazard
        // points: the factored next-state functions hold the hazardous
        // variable in the fsv = 0 half-space.
        let mut checked = 0usize;
        for (var, hl) in result.hazards.hl.iter().enumerate() {
            for m in hl.iter().take(3) {
                let (_, code) = result.spec.decompose(m);
                let present = code.bit(var);
                let fsv0 = m << 1;
                assert_eq!(
                    result.equations.y[var].is_on(fsv0),
                    present,
                    "{name}: Y{} must hold its present value at hazard minterm {m}",
                    var + 1
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "{name}: no hazard points checked");
    }
}
