//! Campaign integration tests: worker-count determinism and corpus
//! cleanliness of the Monte-Carlo hazard-validation driver.

use fantom_flow::benchmarks;
use seance::{run_campaign_sparse, synthesize_sparse, CampaignOptions, SynthesisOptions};

fn corpus_synthesis_options() -> SynthesisOptions {
    SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    }
}

/// Same seed, same machine: the rendered report is byte-identical at 1, 2
/// and 8 workers. Every random draw derives from `(seed, assignment, step)`,
/// never from scheduling.
#[test]
fn campaign_report_is_byte_identical_across_worker_counts() {
    let options = corpus_synthesis_options();
    for table in [benchmarks::lion(), benchmarks::traffic()] {
        let result = synthesize_sparse(&table, &options).expect("corpus synthesizes");
        let reports: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                run_campaign_sparse(
                    &result,
                    &CampaignOptions {
                        assignments: 16,
                        workers,
                        ..CampaignOptions::default()
                    },
                )
            })
            .collect();
        let renders: Vec<String> = reports.iter().map(|r| r.render()).collect();
        assert_eq!(renders[0], renders[1], "{}: 1 vs 2 workers", table.name());
        assert_eq!(renders[0], renders[2], "{}: 1 vs 8 workers", table.name());
        // The per-variable glitch histograms are merged in submission order,
        // so they too must be scheduling-independent (and sized to the
        // machine, not left empty).
        for r in &reports[1..] {
            assert_eq!(
                r.protected.glitches_per_var,
                reports[0].protected.glitches_per_var,
                "{}: protected histogram",
                table.name()
            );
            assert_eq!(
                r.unprotected.glitches_per_var,
                reports[0].unprotected.glitches_per_var,
                "{}: unprotected histogram",
                table.name()
            );
            assert_eq!(
                r.output_glitches_per_var,
                reports[0].output_glitches_per_var,
                "{}: output histogram",
                table.name()
            );
        }
        assert_eq!(
            reports[0].protected.glitches_per_var.len(),
            reports[0].unprotected.glitches_per_var.len(),
            "{}: state histograms cover the same variables",
            table.name()
        );
        assert!(
            !reports[0].output_glitches_per_var.is_empty(),
            "{}: output histogram sized to the machine",
            table.name()
        );
    }
}

/// The whole small corpus validates clean: every protected transition
/// settles into the right state with the right outputs, no analytically
/// hazard-free state variable ever glitches, and the zero-delay oracle
/// agrees with the event-driven simulator throughout.
#[test]
fn small_corpus_campaigns_are_clean() {
    let options = corpus_synthesis_options();
    for table in benchmarks::all() {
        let result = synthesize_sparse(&table, &options).expect("corpus synthesizes");
        let report = run_campaign_sparse(
            &result,
            &CampaignOptions {
                assignments: 16,
                ..CampaignOptions::default()
            },
        );
        assert!(report.steps > 0, "{}", table.name());
        assert!(report.protected_steps > 0, "{}", table.name());
        assert!(report.is_clean(), "{}:\n{}", table.name(), report.render());
        // `is_clean` only holds analytically hazard-free variables to zero
        // glitches; a cover that also fails the plain static check on pairs
        // ending in a don't-care must still never glitch on a protected step.
        assert_eq!(
            report.protected.invariant_glitches,
            0,
            "{}:\n{}",
            table.name(),
            report.render()
        );
        // The zero-delay oracle may fail to find a fixpoint where a race
        // runs through unspecified table entries (`lion9`/`train11` each
        // have one such transition); instability must stay bounded by the
        // steps whose behaviour the table underdetermines.
        assert!(
            report.oracle_unstable <= report.unprotected_steps,
            "{}:\n{}",
            table.name(),
            report.render()
        );
    }
}

/// The large suite runs with the large-machine options and sampled
/// sequences; protected-transition checks must still be clean.
#[test]
fn large_suite_campaigns_are_clean_with_sampled_sequences() {
    for table in benchmarks::large_suite() {
        let options = SynthesisOptions::for_large_machines();
        let result = synthesize_sparse(&table, &options).expect("large machines synthesize");
        let report = run_campaign_sparse(
            &result,
            &CampaignOptions {
                assignments: 4,
                sequences_per_assignment: 4,
                ..CampaignOptions::default()
            },
        );
        assert!(report.steps > 0, "{}", table.name());
        assert!(report.is_clean(), "{}:\n{}", table.name(), report.render());
    }
}
