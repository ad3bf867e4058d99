//! Monte-Carlo hazard-validation campaigns over the benchmark corpus.
//!
//! Synthesizes every machine of the small corpus (and, in full mode, the
//! large suite with the large-machine options), then drives each emitted FANTOM
//! machine through its stable-state transitions under many sampled delay
//! assignments, cross-checking observed glitches against the analytical
//! hazard verdicts and a zero-delay differential oracle.
//!
//! Run with `cargo run --release --example campaign` (full corpus, 1000
//! assignments per machine) or `cargo run --example campaign -- --smoke`
//! (CI-sized: 8 assignments, small corpus only).

use fantom_flow::benchmarks;
use seance::{run_campaign_sparse, synthesize_sparse, CampaignOptions, SynthesisOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let assignments = if smoke { 8 } else { 1000 };

    let synthesis = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    };
    let mut all_clean = true;

    for table in benchmarks::all() {
        let result = synthesize_sparse(&table, &synthesis)?;
        let report = run_campaign_sparse(
            &result,
            &CampaignOptions {
                assignments,
                ..CampaignOptions::default()
            },
        );
        all_clean &= report.is_clean();
        print!("{}", report.render());
    }

    if !smoke {
        for table in benchmarks::large_suite() {
            let result = synthesize_sparse(&table, &SynthesisOptions::for_large_machines())?;
            let report = run_campaign_sparse(
                &result,
                &CampaignOptions {
                    assignments,
                    sequences_per_assignment: 4,
                    ..CampaignOptions::default()
                },
            );
            all_clean &= report.is_clean();
            print!("{}", report.render());
        }
    }

    println!("all clean = {all_clean}");
    assert!(all_clean, "campaign found a divergence");
    Ok(())
}
