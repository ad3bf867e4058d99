//! Building a machine from scratch: specify a custom normal-mode flow table
//! with the builder (or KISS2 text), validate it, and synthesize a FANTOM
//! implementation.
//!
//! The machine is a small asynchronous bus arbiter: two request lines, one
//! grant output, and multiple-input changes whenever both requesters act in
//! the same instant.
//!
//! Run with `cargo run --example custom_flow_table`.

use fantom_flow::{kiss, validate, FlowTableBuilder};
use seance::{run_campaign_sparse, synthesize_sparse, CampaignOptions, SynthesisOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Inputs: r1 r2 (request lines). Output: g (grant to requester 1).
    // States: IDLE (nobody granted), G1 (requester 1 granted),
    //         G2 (requester 2 granted).
    let mut builder = FlowTableBuilder::new("arbiter", 2, 1);
    builder.states(["IDLE", "G1", "G2"]);

    builder.stable("IDLE", "00", "0")?;
    builder.stable("G1", "10", "1")?;
    builder.stable("G1", "11", "1")?;
    builder.stable("G2", "01", "0")?;

    // Requests arriving (possibly both at once).
    builder.transition_with_output("IDLE", "10", "G1", "0")?;
    builder.transition_with_output("IDLE", "11", "G1", "0")?;
    builder.transition_with_output("IDLE", "01", "G2", "0")?;
    // Releases and hand-overs.
    builder.transition_with_output("G1", "00", "IDLE", "1")?;
    builder.transition_with_output("G1", "01", "G2", "1")?;
    builder.transition_with_output("G2", "00", "IDLE", "0")?;
    builder.transition_with_output("G2", "11", "G1", "0")?;
    builder.transition_with_output("G2", "10", "G1", "0")?;

    let table = builder.build()?;

    // Validate before synthesis: normal mode, strong connectivity, stability.
    let report = validate::validate(&table);
    println!("validation report: {report:#?}");
    assert!(
        report.is_acceptable(),
        "the arbiter specification must be well formed"
    );

    // Round-trip through KISS2 to show the interchange format.
    let text = kiss::write(&table);
    println!("KISS2:\n{text}");
    let reparsed = kiss::parse(&text, "arbiter")?;
    assert_eq!(reparsed.num_states(), table.num_states());

    // Synthesize and inspect. The arbiter is specified loosely enough that
    // Step 2 could merge IDLE and G2; keep all three states so the
    // multiple-input-change hazards of the specification stay visible.
    let options = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    };
    let result = synthesize_sparse(&table, &options)?;
    println!("{}", result.render_equations());
    println!(
        "fsv depth {}, Y depth {}, total depth {}",
        result.depth.fsv_depth, result.depth.y_depth, result.depth.total_depth
    );

    let report = run_campaign_sparse(
        &result,
        &CampaignOptions {
            assignments: 8,
            ..CampaignOptions::default()
        },
    );
    let wrong = report.protected.wrong_final_state
        + report.protected.wrong_final_output
        + report.unprotected.wrong_final_state
        + report.unprotected.wrong_final_output;
    println!(
        "simulated {} transition steps; all correct = {}",
        report.steps,
        wrong == 0
    );
    assert!(report.is_clean(), "{}", report.render());
    Ok(())
}
