//! Scheduler parity: the timing-wheel simulator (`fantom_sim`) must behave
//! exactly like the retired global `BinaryHeap` scheduler
//! (`fantom_bench::heap_sim::HeapSimulator`) on the benchmark corpus.
//!
//! Transport mode is compared event-for-event (identical processed-event
//! counts — both schedulers deliver events in `(time, schedule order)`) on
//! top of identical waveforms. Inertial mode is compared on applied-value
//! traces: the old scheduler popped stale superseded events as tombstones,
//! so its processed count is an upper bound on the new one, but every
//! committed value change — and therefore every waveform and final state —
//! must match.

use fantom_bench::heap_sim::{HeapDelayStyle, HeapSimulator};
use fantom_flow::benchmarks;
use fantom_sim::{DelayModel, DelayStyle, NetId, Netlist, Simulator};
use seance::emit::{emit_parts, FantomNetlist, MachineParts};
use seance::{synthesize_sparse, SynthesisOptions};

fn machines() -> Vec<(String, FantomNetlist)> {
    benchmarks::all()
        .iter()
        .map(|table| {
            let options = SynthesisOptions {
                minimize_states: false,
                ..SynthesisOptions::default()
            };
            let result = synthesize_sparse(table, &options).expect("corpus synthesizes");
            (
                table.name().to_string(),
                emit_parts(
                    &MachineParts::from(&result),
                    seance::emit::DEFAULT_LOOP_STAGES,
                ),
            )
        })
        .collect()
}

/// Walking-bit stimulus over the primary inputs: toggles every input in a
/// staggered pattern so single- and multiple-input changes both occur.
fn stimulus(netlist: &Netlist) -> Vec<(NetId, bool, u64)> {
    let inputs = netlist.primary_inputs();
    let mut events = Vec::new();
    for round in 0..4u64 {
        for (i, &net) in inputs.iter().enumerate() {
            let value = (round + i as u64) % 2 == 0;
            events.push((net, value, 40 * (round + 1) + i as u64));
        }
    }
    events
}

fn all_waveforms(sim: &Simulator<'_>, num_nets: usize) -> Vec<Vec<(u64, bool)>> {
    (0..num_nets)
        .map(|n| sim.waveform(NetId(n)).expect("monitored").clone())
        .collect()
}

fn all_waveforms_heap(sim: &HeapSimulator<'_>, num_nets: usize) -> Vec<Vec<(u64, bool)>> {
    (0..num_nets)
        .map(|n| sim.waveform(NetId(n)).expect("monitored").clone())
        .collect()
}

fn run_pair<'a>(
    machine: &'a FantomNetlist,
    model: &DelayModel,
    style: DelayStyle,
    loop_delay: u64,
) -> (
    Result<u64, fantom_sim::SimError>,
    Result<u64, fantom_bench::heap_sim::HeapSimError>,
    Simulator<'a>,
    HeapSimulator<'a>,
) {
    let netlist = &machine.netlist;
    let mut builder = Simulator::builder(netlist)
        .delay_model(model.clone())
        .style(style)
        .monitor_all();
    for gates in &machine.loop_gates {
        for &g in gates {
            builder = builder.gate_delay(g, loop_delay);
        }
    }
    let mut new_sim = builder.build();

    let heap_style = match style {
        DelayStyle::Transport => HeapDelayStyle::Transport,
        DelayStyle::Inertial => HeapDelayStyle::Inertial,
    };
    let mut old_sim = HeapSimulator::with_style(netlist, model, heap_style);
    for n in 0..netlist.num_nets() {
        old_sim.monitor(NetId(n));
    }
    for gates in &machine.loop_gates {
        for &g in gates {
            old_sim.set_gate_delay(g, loop_delay);
        }
    }

    for (net, value, delta) in stimulus(netlist) {
        new_sim.schedule_input(net, value, delta);
        old_sim.schedule_input(net, value, delta);
    }
    let new_res = new_sim.run_until_quiet();
    let old_res = old_sim.run_until_quiet(new_sim.event_budget());
    (new_res, old_res, new_sim, old_sim)
}

#[test]
fn transport_mode_matches_the_heap_scheduler_event_for_event() {
    for (name, machine) in machines() {
        for model in [
            DelayModel::Unit,
            DelayModel::Fixed(3),
            DelayModel::Random {
                min: 4,
                max: 9,
                seed: 0xFA57_0000,
            },
        ] {
            let loop_delay = 200;
            let (new_res, old_res, new_sim, old_sim) =
                run_pair(&machine, &model, DelayStyle::Transport, loop_delay);
            let n = machine.netlist.num_nets();
            assert_eq!(
                all_waveforms(&new_sim, n),
                all_waveforms_heap(&old_sim, n),
                "{name}: transport waveforms under {model:?}"
            );
            assert_eq!(
                new_sim.net_values(),
                old_sim.net_values(),
                "{name}: transport final values under {model:?}"
            );
            assert_eq!(
                new_res.is_ok(),
                old_res.is_ok(),
                "{name}: transport verdicts under {model:?}"
            );
            if new_res.is_ok() {
                assert_eq!(new_sim.time(), old_sim.time(), "{name}: final time");
                // Without inertial tombstones the two schedulers pop the very
                // same event stream.
                assert_eq!(
                    new_sim.events_processed(),
                    old_sim.events_processed(),
                    "{name}: transport event counts under {model:?}"
                );
            }
        }
    }
}

#[test]
fn inertial_mode_matches_the_heap_scheduler_on_applied_values() {
    for (name, machine) in machines() {
        for model in [
            DelayModel::Unit,
            DelayModel::Fixed(3),
            DelayModel::Random {
                min: 4,
                max: 9,
                seed: 0xFA57_0001,
            },
        ] {
            let loop_delay = 200;
            let (new_res, old_res, new_sim, old_sim) =
                run_pair(&machine, &model, DelayStyle::Inertial, loop_delay);
            assert!(new_res.is_ok(), "{name}: inertial run settles ({model:?})");
            assert!(old_res.is_ok(), "{name}: heap inertial run settles");
            let n = machine.netlist.num_nets();
            assert_eq!(
                all_waveforms(&new_sim, n),
                all_waveforms_heap(&old_sim, n),
                "{name}: inertial waveforms under {model:?}"
            );
            assert_eq!(
                new_sim.net_values(),
                old_sim.net_values(),
                "{name}: inertial final values under {model:?}"
            );
            // The old scheduler popped superseded events as tombstones —
            // advancing its clock and its event count on each — while the
            // timing wheel skips cancelled entries uncounted, so it can only
            // do less of both.
            assert!(
                new_sim.time() <= old_sim.time(),
                "{name}: {} > {} final time under {model:?}",
                new_sim.time(),
                old_sim.time(),
            );
            assert!(
                new_sim.events_processed() <= old_sim.events_processed(),
                "{name}: {} > {} popped events under {model:?}",
                new_sim.events_processed(),
                old_sim.events_processed(),
            );
        }
    }
}
