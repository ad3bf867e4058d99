//! Demonstration of the function-hazard search and the fantom state variable.
//!
//! The example walks the paper's running 4-state test machine through the
//! hazard search (Figure 4), prints every hazardous total state, and shows how
//! the `fsv = 0` half of the next-state equations holds the endangered state
//! variables while `fsv` marks the hazardous states.
//!
//! Run with `cargo run --example hazard_demo`.

use seance::{run_campaign_sparse, synthesize_sparse, CampaignOptions, SynthesisOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let table = fantom_flow::benchmarks::test_example();
    let options = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    };
    let result = synthesize_sparse(&table, &options)?;

    println!("{}", table);
    println!("state codes:");
    for state in result.reduced_table.states() {
        println!(
            "  {:>4} -> {}",
            result.reduced_table.state_name(state),
            result.spec.code(state)
        );
    }

    println!("\nmultiple-input-change transitions and their hazards:");
    for site in &result.hazards.sites {
        let t = &site.transition;
        println!(
            "  {} @ {} -> {} @ {}: intermediate input {} disturbs {}",
            result.reduced_table.state_name(t.from_state),
            t.from_input,
            result.reduced_table.state_name(t.to_state),
            t.to_input,
            site.intermediate_input,
            site.variables
                .iter()
                .map(|v| format!("y{}", v + 1))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    println!("\nsynthesized equations:");
    println!("{}", result.render_equations());

    // Show the hold mechanism explicitly for the first hazard site.
    if let Some(site) = result.hazards.sites.first() {
        let spec = &result.spec;
        let vars = spec.num_vars();
        let mut bits: Vec<bool> = (0..vars)
            .map(|i| (site.minterm >> (vars - 1 - i)) & 1 == 1)
            .collect();
        let var = site.variables[0];
        let present = spec.code(site.transition.from_state).bit(var);

        bits.push(false); // fsv = 0
        let held = result.factored.y_exprs[var].eval(&bits);
        bits.pop();
        bits.push(true); // fsv = 1
        let released = result.factored.y_exprs[var].eval(&bits);

        println!(
            "at hazardous total state (input {}, state {}):",
            site.intermediate_input,
            result.reduced_table.state_name(site.transition.from_state)
        );
        println!(
            "  present value of y{}           = {}",
            var + 1,
            u8::from(present)
        );
        println!(
            "  Y{} with fsv = 0 (held)        = {}",
            var + 1,
            u8::from(held)
        );
        println!(
            "  Y{} with fsv = 1 (table value) = {}",
            var + 1,
            u8::from(released)
        );
    }

    seance::validate::verify_hold_property(&result)?;
    seance::validate::verify_equations_implement_table(&result)?;
    println!("\nall static hazard-freedom checks passed");

    // Confirm the analytical verdicts dynamically: a short Monte-Carlo
    // campaign sweeps sampled delay assignments over every stable transition
    // and cross-checks the machine against the zero-delay oracle.
    let report = run_campaign_sparse(
        &result,
        &CampaignOptions {
            assignments: 16,
            ..CampaignOptions::default()
        },
    );
    print!("\n{}", report.render());
    assert!(report.is_clean(), "campaign must confirm hazard freedom");
    Ok(())
}
