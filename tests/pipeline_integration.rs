//! Integration tests spanning the whole workspace: flow tables → minimization
//! → assignment → SEANCE synthesis → reporting.

use fantom_flow::benchmarks;
use seance::{synthesize_sparse, table1_row, SynthesisOptions};

fn table1_options() -> SynthesisOptions {
    SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    }
}

#[test]
fn full_pipeline_reproduces_the_shape_of_table_1() {
    // The paper reports (fsv depth, Y depth, total depth):
    //   test example 3/5/9, traffic 3/5/9, lion 3/5/9, lion9 4/5/10, train11 2/5/8.
    // The reconstructed corpus is not bit-identical to the original MCNC files,
    // so we assert the shape: a few levels of fsv logic, roughly five levels of
    // next-state logic, and total = fsv + Y + 1 in the 7..=11 band.
    for table in benchmarks::paper_suite() {
        let result = synthesize_sparse(&table, &table1_options()).expect("synthesis succeeds");
        let row = table1_row(&result);
        assert!(
            (2..=5).contains(&row.fsv_depth),
            "{}: fsv depth {} outside the expected band",
            row.benchmark,
            row.fsv_depth
        );
        assert!(
            (3..=6).contains(&row.y_depth),
            "{}: Y depth {} outside the expected band",
            row.benchmark,
            row.y_depth
        );
        assert!(
            (6..=11).contains(&row.total_depth),
            "{}: total depth {} outside the expected band",
            row.benchmark,
            row.total_depth
        );
        assert_eq!(row.total_depth, row.fsv_depth + row.y_depth + 1);
    }
}

/// The measured Table-1 rows of the reproduction, pinned exactly:
/// `(machine, fsv depth, Y depth, total depth, state variables, hazard
/// states)`. The paper's running example matches its published row.
#[test]
fn paper_running_example_matches_table_1_exactly() {
    let expected = [
        ("test_example", 3, 5, 9, 2, 8),
        ("traffic", 2, 4, 7, 2, 1),
        ("lion", 3, 5, 9, 2, 5),
        ("lion9", 3, 5, 9, 4, 7),
        ("train11", 3, 5, 9, 4, 5),
    ];
    let suite = benchmarks::paper_suite();
    assert_eq!(suite.len(), expected.len());
    for (table, (name, fsv, y, total, vars, hazards)) in suite.iter().zip(expected) {
        let result = synthesize_sparse(table, &table1_options()).expect("synthesis succeeds");
        let row = table1_row(&result);
        assert_eq!(row.benchmark, name);
        assert_eq!(
            (
                row.fsv_depth,
                row.y_depth,
                row.total_depth,
                row.state_vars,
                row.hazard_states
            ),
            (fsv, y, total, vars, hazards),
            "{name}"
        );
    }
}

#[test]
fn synthesis_is_deterministic() {
    for table in benchmarks::paper_suite() {
        let a = synthesize_sparse(&table, &table1_options()).expect("synthesis succeeds");
        let b = synthesize_sparse(&table, &table1_options()).expect("synthesis succeeds");
        assert_eq!(a.depth, b.depth, "{}", table.name());
        assert_eq!(
            a.assignment.codes(),
            b.assignment.codes(),
            "{}",
            table.name()
        );
        assert_eq!(
            a.render_equations(),
            b.render_equations(),
            "{}",
            table.name()
        );
    }
}

#[test]
fn default_options_with_reduction_also_synthesize_everything() {
    for table in benchmarks::all() {
        let result = synthesize_sparse(&table, &SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        // Every synthesized machine satisfies the structural invariants.
        seance::validate::verify_hold_property(&result)
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        seance::validate::verify_fsv_marks_hazards(&result)
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        seance::validate::verify_equations_implement_table(&result)
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
    }
}

#[test]
fn synthesis_scales_through_the_whole_corpus_quickly() {
    let start = std::time::Instant::now();
    for table in benchmarks::all() {
        synthesize_sparse(&table, &table1_options()).expect("synthesis succeeds");
    }
    // The paper quotes ~4 s per example on a VAXStation 3100; the whole corpus
    // should synthesize well within a minute on any modern machine even in
    // debug builds.
    assert!(
        start.elapsed() < std::time::Duration::from_secs(60),
        "corpus synthesis took {:?}",
        start.elapsed()
    );
}

#[test]
fn reduction_then_synthesis_preserves_hazard_protection() {
    // When Step 2 merges states, every remaining multiple-input-change hazard
    // must still be found and held.
    let table = benchmarks::redundant_traffic();
    let result =
        synthesize_sparse(&table, &SynthesisOptions::default()).expect("synthesis succeeds");
    assert!(result.reduced_table.num_states() < table.num_states());
    seance::validate::verify_hold_property(&result).expect("hold property");
    let expected_mic = result.reduced_table.multiple_input_change_transitions();
    assert!(!expected_mic.is_empty());
}
