//! End-to-end hazard-freedom validation: the synthesized FANTOM machines are
//! emitted as gate-level netlists and driven through every stable transition
//! — multiple-input changes included — under sampled gate delays and skewed
//! input edges by the Monte-Carlo campaign driver.

use fantom_flow::benchmarks;
use fantom_sim::{DelayModel, DelayStyle, Simulator};
use seance::emit::{emit_parts, MachineParts, DEFAULT_LOOP_STAGES};
use seance::validate::verify_hold_property;
use seance::{
    run_campaign_sparse, synthesize_sparse, CampaignOptions, CampaignReport, SynthesisOptions,
};

fn table1_options() -> SynthesisOptions {
    SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    }
}

/// Benchmarks whose flow tables specify every intermediate entry of every
/// multiple-input-change transition. For these machines the paper's guarantee
/// is unconditional: invariant state variables may never glitch.
fn completely_specified_suite() -> Vec<fantom_flow::FlowTable> {
    vec![
        benchmarks::test_example(),
        benchmarks::traffic(),
        benchmarks::lion(),
        benchmarks::mic3(),
    ]
}

/// A campaign over every stable transition of `table`, synthesized with the
/// Table-1 options: `assignments` sampled delay assignments that cycle
/// through unit, minimum, maximum and seeded-random delays.
fn campaign(table: &fantom_flow::FlowTable, assignments: usize, seed: u64) -> CampaignReport {
    let result = synthesize_sparse(table, &table1_options()).expect("synthesis succeeds");
    run_campaign_sparse(
        &result,
        &CampaignOptions {
            assignments,
            seed,
            ..CampaignOptions::default()
        },
    )
}

#[test]
fn every_multiple_input_change_reaches_the_correct_stable_state() {
    for table in benchmarks::paper_suite() {
        assert!(
            !table.multiple_input_change_transitions().is_empty(),
            "{} has no multiple-input changes",
            table.name()
        );
        let r = campaign(&table, 32, 1);
        let name = table.name();
        assert!(r.is_clean(), "{name}:\n{}", r.render());
        // The strict checks hold on protected steps, and no invariant state
        // variable glitches there whatever its analytic verdict; the machines
        // of the paper suite also settle correctly, without glitches, on
        // every unprotected step.
        let must_be_zero = [
            r.protected.invariant_glitches,
            r.unprotected.settle_failures,
            r.unprotected.wrong_final_state,
            r.unprotected.wrong_final_output,
            r.unprotected.excess_state_changes,
            r.unprotected.invariant_glitches,
        ];
        assert_eq!(must_be_zero, [0; 6], "{name}:\n{}", r.render());
    }
}

#[test]
fn invariant_state_variables_never_glitch_on_completely_specified_machines() {
    for table in completely_specified_suite() {
        let r = campaign(&table, 32, 3);
        assert_eq!(
            r.protected.invariant_glitches + r.unprotected.invariant_glitches,
            0,
            "{}: an invariant state variable glitched during a multiple-input change\n{}",
            table.name(),
            r.render()
        );
    }
}

#[test]
fn changing_state_variables_obey_the_two_change_bound() {
    // "A FANTOM machine moves through at most two state changes regardless of
    // the number of bit changes in the input" (Section 7): every changing
    // state variable switches exactly once, so no excess change is seen.
    for table in completely_specified_suite() {
        let r = campaign(&table, 16, 5);
        assert_eq!(
            r.protected.excess_state_changes + r.unprotected.excess_state_changes,
            0,
            "{}: a state variable changed more than once\n{}",
            table.name(),
            r.render()
        );
    }
}

#[test]
fn hold_property_holds_even_without_state_reduction_or_with_it() {
    for table in benchmarks::all() {
        for minimize_states in [false, true] {
            let options = SynthesisOptions {
                minimize_states,
                ..SynthesisOptions::default()
            };
            let result = synthesize_sparse(&table, &options).expect("synthesis succeeds");
            verify_hold_property(&result)
                .unwrap_or_else(|e| panic!("{} (minimize={minimize_states}): {e}", table.name()));
        }
    }
}

/// Driving an emitted machine directly through the rebuilt simulator API:
/// configure the loop-delay assumption through the builder, initialize at a
/// stable total state, fire a multiple-input change, settle cleanly.
#[test]
fn builder_configured_machine_settles_through_a_multiple_input_change() {
    let result =
        synthesize_sparse(&benchmarks::lion(), &table1_options()).expect("synthesis succeeds");
    let machine = emit_parts(&MachineParts::from(&result), DEFAULT_LOOP_STAGES);
    let t = result
        .reduced_table
        .multiple_input_change_transitions()
        .into_iter()
        .next()
        .expect("lion has a multiple-input change");

    let loop_delay = (result.depth.total_depth as u64 + 4) * 9 * 2;
    let mut builder = Simulator::builder(&machine.netlist)
        .delay_model(DelayModel::Random {
            min: 4,
            max: 9,
            seed: 7,
        })
        .style(DelayStyle::Inertial)
        .event_budget(100_000);
    for gates in &machine.loop_gates {
        for &g in gates {
            builder = builder.gate_delay(g, loop_delay);
        }
    }
    let mut sim = builder.build();

    let mut fixed = Vec::new();
    for (i, &net) in machine.x.iter().enumerate() {
        fixed.push((net, t.from_input.bit(i)));
    }
    let from_code = result.spec.code(t.from_state);
    for (i, &net) in machine.y.iter().enumerate() {
        fixed.push((net, from_code.bit(i)));
    }
    sim.initialize_consistent(&fixed).expect("consistent init");
    sim.run_until_quiet().expect("quiescent start");

    for (i, &net) in machine.x.iter().enumerate() {
        if t.from_input.bit(i) != t.to_input.bit(i) {
            sim.schedule_input(net, t.to_input.bit(i), 1);
        }
    }
    sim.run_until_quiet().expect("machine settles");
    let to_code = result.spec.code(t.to_state);
    for (i, &net) in machine.y.iter().enumerate() {
        assert_eq!(sim.value(net), to_code.bit(i), "y{}", i + 1);
    }
}

#[test]
fn validation_is_reproducible_for_a_fixed_seed() {
    let a = campaign(&benchmarks::lion(), 8, 42);
    let b = campaign(&benchmarks::lion(), 8, 42);
    assert_eq!(a, b);
    assert_eq!(a.render(), b.render());
}
