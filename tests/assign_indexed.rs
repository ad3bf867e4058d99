//! Differential tests for the indexed Step-3 covering engine.
//!
//! Candidate generation runs on a shared inverted dichotomy index: blocked
//! masks steer growth, and each distinct candidate's coverage set is one
//! word-parallel query on the index. Selection uses a lazy-max greedy heap
//! instead of a rescan per pick, and growth adds adjacency seeds. The
//! pre-index implementation is retained verbatim in
//! [`fantom_bench::reference`] as the oracle; these tests pin the new engine
//! against it at the like-for-like configuration (two seed orderings, no
//! adjacency seeds — the only configuration where the old rotation orderings
//! contribute anything beyond Forward/Reverse) over the hand-written
//! benchmark suite, the seeded generator grid, and proptest-driven random
//! generator shapes, then check the full adjacency-seeded engine for
//! coverage validity and the width pins, and finally prove the dedicated-
//! partition fallback fires under candidate-budget starvation.

use fantom_assign::{
    assign_with_options, grow_candidates, required_dichotomies, select_partitions_in,
    AssignScratch, AssignmentOptions, Dichotomy,
};
use fantom_bench::reference::{scalar_candidate_growth, scalar_greedy_cover};
use fantom_flow::generate::{generate, GeneratorOptions};
use fantom_flow::{benchmarks, FlowTable};
use proptest::prelude::*;

/// The like-for-like configuration: Forward + Reverse orderings (the scalar
/// reference's rotation variants ≥ 2 are provably duplicates of Forward, so
/// two orderings is the largest pool both engines agree on), grown with no
/// adjacency seeds.
fn like_for_like() -> AssignmentOptions {
    AssignmentOptions {
        seed_orderings: 2,
        ..AssignmentOptions::bounded()
    }
}

/// Assert the indexed grower enumerates exactly the scalar reference's
/// candidate pool — same dichotomies in the same order with the same
/// coverage sets.
fn assert_growth_matches(table: &FlowTable, scratch: &mut AssignScratch) {
    let dichotomies = required_dichotomies(table);
    let options = like_for_like();
    let reference = scalar_candidate_growth(&dichotomies, 2, options.max_candidate_partitions);
    let pool = grow_candidates(&dichotomies, &[], &options, scratch);
    assert_eq!(pool.len(), reference.len(), "{}: pool size", table.name());
    for (i, (p, (d, covers))) in pool.iter().zip(&reference).enumerate() {
        assert_eq!(p.dichotomy(), d, "{}: candidate {i}", table.name());
        assert!(
            p.covers().same_contents(covers),
            "{}: covers of candidate {i}",
            table.name()
        );
    }
}

#[test]
fn indexed_growth_matches_scalar_reference_on_benchmark_suite() {
    let mut scratch = AssignScratch::default();
    for table in benchmarks::all()
        .into_iter()
        .chain(benchmarks::large_suite())
    {
        assert_growth_matches(&table, &mut scratch);
    }
}

#[test]
fn indexed_growth_matches_scalar_reference_on_generator_grid() {
    let mut scratch = AssignScratch::default();
    for &states in &[10usize, 18, 26] {
        for &dc in &[0.25f64, 0.5, 0.75] {
            let table = generate(&GeneratorOptions {
                states,
                dc_density: dc,
                ..GeneratorOptions::default()
            });
            assert_growth_matches(&table, &mut scratch);
        }
    }
}

#[test]
fn lazy_greedy_matches_scalar_reference_on_suite_pools() {
    for table in benchmarks::all()
        .into_iter()
        .chain(benchmarks::large_suite())
    {
        let dichotomies = required_dichotomies(&table);
        let pool = scalar_candidate_growth(&dichotomies, 2, usize::MAX);
        let covers: Vec<_> = pool.into_iter().map(|(_, c)| c).collect();
        let num = dichotomies.len();
        assert_eq!(
            fantom_boolean::covering::greedy_cover(&covers, num),
            scalar_greedy_cover(&covers, num),
            "{}: greedy picks diverge",
            table.name()
        );
    }
}

/// The full adjacency-seeded engine on every corpus machine: the assignment
/// must verify (unique codes, every required dichotomy separated) and the
/// known machines must stay within their width pins.
#[test]
fn adjacency_seeded_assignment_is_valid_within_pins() {
    let default = AssignmentOptions::default();
    let pins = [("lion9", 4), ("train11", 5)];
    for table in benchmarks::all() {
        let assignment = assign_with_options(&table, &default);
        assignment
            .verify(&table)
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        if let Some(&(_, pin)) = pins.iter().find(|(n, _)| *n == table.name()) {
            assert!(
                assignment.num_vars() <= pin,
                "{}: {} vars exceeds pin {pin}",
                table.name(),
                assignment.num_vars()
            );
        }
    }
    let bounded = AssignmentOptions::bounded();
    let pins = [("chain40", 12), ("ring44", 12), ("wide36", 11)];
    for table in benchmarks::large_suite() {
        let assignment = assign_with_options(&table, &bounded);
        assignment
            .verify(&table)
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        let (_, pin) = pins.iter().find(|(n, _)| *n == table.name()).unwrap();
        assert!(
            assignment.num_vars() <= *pin,
            "{}: {} vars exceeds pin {pin}",
            table.name(),
            assignment.num_vars()
        );
    }
    for &states in &[10usize, 18, 26] {
        for &dc in &[0.25f64, 0.5, 0.75] {
            let table = generate(&GeneratorOptions {
                states,
                dc_density: dc,
                ..GeneratorOptions::default()
            });
            let assignment = assign_with_options(&table, &bounded);
            assignment
                .verify(&table)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        }
    }
}

/// Starve the candidate budget to zero: the grower returns an empty pool, so
/// every partition in the selection can only have come from the dedicated-
/// partition fallback — which must still cover every dichotomy, and the
/// resulting assignment must still verify.
#[test]
fn budget_starvation_fires_dedicated_partition_fallback() {
    let starved = AssignmentOptions {
        max_candidate_partitions: 0,
        ..AssignmentOptions::bounded()
    };
    let table = benchmarks::train11();
    let dichotomies = required_dichotomies(&table);
    assert!(!dichotomies.is_empty());

    let mut scratch = AssignScratch::default();
    let seeds: Vec<Dichotomy> = fantom_assign::adjacency_seeds(&table);
    assert!(
        grow_candidates(&dichotomies, &seeds, &starved, &mut scratch).is_empty(),
        "a zero budget must starve the candidate pool"
    );
    let partitions = select_partitions_in(&dichotomies, &seeds, &starved, &mut scratch);
    assert!(
        !partitions.is_empty(),
        "fallback must produce dedicated partitions"
    );
    for (i, d) in dichotomies.iter().enumerate() {
        assert!(
            partitions.iter().any(|p| p.covers().contains(i as u64)),
            "dichotomy {d} not covered by the fallback partitions"
        );
    }

    let assignment = assign_with_options(&table, &starved);
    assignment
        .verify(&table)
        .expect("starved assignment verifies");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Growth equality holds on random generator shapes, not just the pinned
    /// lattice: any machine the generator emits yields identical candidate
    /// pools from the indexed engine and the scalar reference.
    #[test]
    fn indexed_growth_matches_scalar_reference_on_random_shapes(
        states in 6usize..16,
        dc_pct in 0u32..90,
        seed in 0u64..1024,
    ) {
        let table = generate(&GeneratorOptions {
            states,
            dc_density: f64::from(dc_pct) / 100.0,
            seed,
            ..GeneratorOptions::default()
        });
        let dichotomies = required_dichotomies(&table);
        let options = like_for_like();
        let reference =
            scalar_candidate_growth(&dichotomies, 2, options.max_candidate_partitions);
        let mut scratch = AssignScratch::default();
        let pool = grow_candidates(&dichotomies, &[], &options, &mut scratch);
        prop_assert_eq!(pool.len(), reference.len());
        for (p, (d, covers)) in pool.iter().zip(&reference) {
            prop_assert_eq!(p.dichotomy(), d);
            prop_assert!(p.covers().same_contents(covers));
        }
    }
}
