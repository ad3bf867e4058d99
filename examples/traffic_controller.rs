//! A domain-specific scenario: an asynchronous traffic-light controller whose
//! two sensor inputs (car detector and timer expiry) can change at the same
//! time.
//!
//! The example synthesizes the controller, compares the FANTOM implementation
//! against the classical Huffman baseline (which would leave the
//! multiple-input-change hazards unprotected), and shows the KISS2 export.
//!
//! Run with `cargo run --example traffic_controller`.

use seance::baseline::{huffman_baseline, stg_expansion_estimate};
use seance::{run_campaign_sparse, synthesize_sparse, CampaignOptions, SynthesisOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let table = fantom_flow::benchmarks::traffic();
    println!("{table}");
    println!("KISS2 form:\n{}", fantom_flow::kiss::write(&table));

    let options = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    };
    let fantom = synthesize_sparse(&table, &options)?;
    let baseline = huffman_baseline(&table)?;
    let stg = stg_expansion_estimate(&table);

    println!("--- FANTOM (this paper) ---");
    println!("state variables : {}", fantom.spec.num_state_vars());
    println!("fsv depth       : {}", fantom.depth.fsv_depth);
    println!("Y depth         : {}", fantom.depth.y_depth);
    println!("total depth     : {}", fantom.depth.total_depth);
    println!("hazard states   : {}", fantom.hazards.hazard_state_count());

    println!("--- classical Huffman baseline (single-input change only) ---");
    println!("Y depth         : {}", baseline.y_depth);
    println!("total depth     : {}", baseline.total_depth);
    println!(
        "unprotected hazard states: {}",
        baseline.unprotected_hazard_states
    );

    println!("--- STG-style input expansion (Section 7 comparison) ---");
    println!(
        "{} transitions expand to {} single-bit steps (+{} intermediate states)",
        stg.original_transitions, stg.expanded_steps, stg.extra_states
    );

    // Exercise the controller with a Monte-Carlo campaign: 32 sampled delay
    // assignments, every stable transition — including a car arriving exactly
    // when the timer expires, a two-bit input change — with the zero-delay
    // oracle on. Every step must settle in the right state.
    let report = run_campaign_sparse(
        &fantom,
        &CampaignOptions {
            assignments: 32,
            ..CampaignOptions::default()
        },
    );
    let settled = report.protected.settle_failures + report.unprotected.settle_failures == 0;
    let correct = report.protected.wrong_final_state + report.unprotected.wrong_final_state == 0;
    println!(
        "campaign: {} steps over {} assignments, {} events, all settled = {settled}, all correct = {correct}, clean = {}",
        report.steps,
        report.assignments,
        report.events,
        report.is_clean()
    );
    assert!(
        report.is_clean() && settled && correct,
        "{}",
        report.render()
    );
    Ok(())
}
