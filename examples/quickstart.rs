//! Quickstart: synthesize a FANTOM machine from a benchmark flow table and
//! print its equations and depth metrics.
//!
//! Run with `cargo run --example quickstart`.

use seance::{run_campaign_sparse, synthesize_sparse, table1_row, CampaignOptions};
use seance::{SynthesisOptions, Table1Row};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a flow table. The corpus ships the machines used by the paper's
    //    evaluation; `lion` is the classic lion-in-a-cage controller.
    let table = fantom_flow::benchmarks::lion();
    println!("{table}");

    // 2. Run the SEANCE pipeline: reduction, USTT assignment, output and SSD
    //    equations, hazard search, fsv / next-state generation, factoring.
    let options = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    };
    let result = synthesize_sparse(&table, &options)?;

    // 3. Inspect the result.
    println!("{}", result.render_equations());
    println!(
        "hazardous total states: {} across {} multiple-input-change transitions",
        result.hazards.hazard_state_count(),
        result
            .reduced_table
            .multiple_input_change_transitions()
            .len()
    );
    println!("\n{}", Table1Row::header());
    println!("{}", table1_row(&result));

    // 4. Check the structural hazard-freedom claims statically.
    seance::validate::verify_hold_property(&result)?;
    seance::validate::verify_fsv_marks_hazards(&result)?;
    println!("\nstatic hazard-freedom checks passed");

    // 5. Simulate every stable transition on the emitted gate-level netlist
    //    under sampled gate delays and skewed input edges.
    let report = run_campaign_sparse(
        &result,
        &CampaignOptions {
            assignments: 16,
            ..CampaignOptions::default()
        },
    );
    let wrong_states = report.wrong_final_state + report.unprotected_wrong_final_state;
    let glitches = report.protected_invariant_glitches + report.unprotected_invariant_glitches;
    println!(
        "simulated {} steps: wrong final states = {wrong_states}, invariant-variable glitches = {glitches}",
        report.steps
    );
    assert!(report.is_clean(), "{}", report.render());
    Ok(())
}
