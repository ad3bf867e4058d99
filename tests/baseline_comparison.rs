//! Integration tests for the Section-7 comparison: FANTOM versus the
//! classical Huffman baseline and the STG-style input expansion.

use fantom_flow::benchmarks;
use seance::baseline::{huffman_baseline, stg_expansion_estimate};
use seance::{synthesize_sparse, SynthesisOptions};

fn table1_options() -> SynthesisOptions {
    SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    }
}

#[test]
fn fantom_protects_every_hazard_the_baseline_leaves_exposed() {
    for table in benchmarks::paper_suite() {
        let fantom = synthesize_sparse(&table, &table1_options()).expect("synthesis succeeds");
        let baseline = huffman_baseline(&table).expect("baseline succeeds");
        assert_eq!(
            fantom.hazards.hazard_state_count(),
            baseline.unprotected_hazard_states,
            "{}",
            table.name()
        );
        // The protection is real: every hazard state appears in the fsv on-set.
        for &m in &fantom.hazards.fl {
            assert!(fantom.factored.fsv_cover.covers_minterm(m));
        }
    }
}

#[test]
fn fantom_pays_for_protection_with_depth_not_with_state_count() {
    for table in benchmarks::paper_suite() {
        let fantom = synthesize_sparse(&table, &table1_options()).expect("synthesis succeeds");
        let baseline = huffman_baseline(&table).expect("baseline succeeds");
        let stg = stg_expansion_estimate(&table);

        // Depth overhead relative to the unprotected baseline.
        assert!(
            fantom.depth.total_depth >= baseline.total_depth,
            "{}",
            table.name()
        );
        // ... but the state-variable count is identical: the state space is
        // expanded only by the single fantom variable.
        assert_eq!(
            fantom.spec.num_state_vars(),
            baseline.state_vars,
            "{}",
            table.name()
        );
        // The STG route instead inflates the specification.
        if !table.multiple_input_change_transitions().is_empty() {
            assert!(stg.extra_states > 0, "{}", table.name());
            assert!(
                stg.expanded_steps > stg.original_transitions,
                "{}",
                table.name()
            );
        }
    }
}

#[test]
fn baseline_depth_is_two_levels_of_logic() {
    // The all-prime-implicant baseline is a plain AND-OR structure.
    for table in benchmarks::paper_suite() {
        let baseline = huffman_baseline(&table).expect("baseline succeeds");
        assert!(
            baseline.y_depth <= 2,
            "{}: baseline depth {}",
            table.name(),
            baseline.y_depth
        );
    }
}

#[test]
fn baseline_next_state_covers_are_valid_implementations() {
    use fantom_assign::assign;
    use seance::SpecifiedTable;
    for table in benchmarks::paper_suite() {
        let baseline = huffman_baseline(&table).expect("baseline succeeds");
        let assignment = assign(&table);
        let spec = SpecifiedTable::new(table.clone(), assignment).expect("spec builds");
        let functions = spec.next_state_functions().expect("consistent");
        for (f, cover) in functions.iter().zip(&baseline.y_covers) {
            assert!(cover.equivalent_to(f), "{}", table.name());
        }
    }
}

#[test]
fn depth_overhead_is_bounded_by_the_fsv_feedback() {
    // FANTOM's extra depth over the baseline is exactly the fsv pass plus the
    // factoring overhead; it never exceeds fsv_depth + a small constant.
    for table in benchmarks::paper_suite() {
        let fantom = synthesize_sparse(&table, &table1_options()).expect("synthesis succeeds");
        let baseline = huffman_baseline(&table).expect("baseline succeeds");
        let overhead = fantom.depth.total_depth - baseline.total_depth;
        assert!(
            overhead <= fantom.depth.fsv_depth + 4,
            "{}: overhead {} too large",
            table.name(),
            overhead
        );
    }
}
