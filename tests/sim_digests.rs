//! Golden digests of the event-driven simulator on the corpus machines.
//!
//! `tests/sim_parity.rs` compares the simulator with the retired heap
//! scheduler on the small corpus under a walking-bit stimulus, and the
//! campaign goldens pin rendered reports, which only the inertial style
//! reaches and which count glitches, not waveforms. This file pins the
//! simulator itself on the small corpus (`benchmarks::all()`, default
//! synthesis) and the large suite (`for_large_machines()`), under unit
//! delays, all-4, all-9 and two seeded random draws from 4 to 9, each in
//! the transport and the inertial style.
//!
//! A run builds one simulator per machine, delay model and style, as a
//! campaign does: the feedback buffers slowed to `(depth + 4) · max · 2`, a
//! campaign's event budget, every net monitored. It drives every stable
//! transition in order: `initialize_consistent` with the inputs held at the
//! source column and the present-state nets at the source code, a run to
//! quiescence, then the input change with no skew (every changed input one
//! unit later) and a run to quiescence. A step that fails leaves the
//! simulator as the failure left it, so the next initialization starts
//! from there.
//!
//! `tests/golden/sim_digests.txt` holds one line per run: the events
//! processed, the end time, the failed steps per error kind and an FNV-1a
//! hash of every net's waveform.

use std::path::Path;

use fantom_flow::benchmarks;
use fantom_sim::{DelayModel, DelayStyle, NetId, SimError, Simulator};
use seance::emit::{emit_parts, FantomNetlist, MachineParts};
use seance::{synthesize_sparse, SparseSynthesisResult, SynthesisOptions};

/// A campaign's per-run event budget.
const EVENT_BUDGET: usize = 200_000;

/// A campaign's feedback stages.
const LOOP_STAGES: usize = 1;

fn machines() -> Vec<SparseSynthesisResult> {
    let small = SynthesisOptions::default();
    let large = SynthesisOptions::for_large_machines();
    let tables = (benchmarks::all().into_iter().map(|t| (t, small)))
        .chain(benchmarks::large_suite().into_iter().map(|t| (t, large)));
    tables
        .map(|(t, options)| {
            synthesize_sparse(&t, &options).unwrap_or_else(|e| panic!("{}: {e}", t.name()))
        })
        .collect()
}

fn models() -> [DelayModel; 5] {
    let random = |seed| DelayModel::Random {
        min: 4,
        max: 9,
        seed,
    };
    [
        DelayModel::Unit,
        DelayModel::Fixed(4),
        DelayModel::Fixed(9),
        random(0xD16E_5701),
        random(0xD16E_5702),
    ]
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Failed steps per error kind.
#[derive(Default)]
struct Errors {
    oscillation: usize,
    budget: usize,
    inconsistent: usize,
}

impl Errors {
    fn count(&mut self, error: &SimError) {
        match error {
            SimError::Oscillation { .. } => self.oscillation += 1,
            SimError::BudgetExhausted { .. } => self.budget += 1,
            SimError::InconsistentInitialization { .. } => self.inconsistent += 1,
        }
    }
}

/// The digest line of one run.
fn digest(
    parts: &MachineParts<'_>,
    machine: &FantomNetlist,
    model: &DelayModel,
    style: DelayStyle,
) -> String {
    let loop_delay = (parts.total_depth as u64 + 4) * model.max_delay() * 2;
    let mut builder = Simulator::builder(&machine.netlist)
        .delay_model(model.clone())
        .style(style)
        .event_budget(EVENT_BUDGET)
        .monitor_all();
    for &g in machine.loop_gates.iter().flatten() {
        builder = builder.gate_delay(g, loop_delay);
    }
    let mut sim = builder.build();
    let mut errors = Errors::default();
    for t in parts.table.stable_transitions() {
        let from_code = parts.spec.code(t.from_state);
        let fixed: Vec<(NetId, bool)> = (machine.x.iter().zip(t.from_input.as_slice()))
            .chain(machine.y.iter().zip(from_code.as_slice()))
            .map(|(&net, &bit)| (net, bit))
            .collect();
        let init = sim.initialize_consistent(&fixed);
        if let Err(e) = init.and_then(|()| sim.run_until_quiet()) {
            errors.count(&e);
            continue;
        }
        for (i, &net) in machine.x.iter().enumerate() {
            if t.from_input.bit(i) != t.to_input.bit(i) {
                sim.schedule_input(net, t.to_input.bit(i), 1);
            }
        }
        if let Err(e) = sim.run_until_quiet() {
            errors.count(&e);
        }
    }
    let mut hash = Fnv::new();
    for net in 0..machine.netlist.num_nets() {
        let wave = sim.waveform(NetId(net)).expect("every net is monitored");
        hash.u64(wave.len() as u64);
        for &(time, value) in wave {
            hash.u64(time);
            hash.bytes(&[u8::from(value)]);
        }
    }
    let style = match style {
        DelayStyle::Transport => "transport",
        DelayStyle::Inertial => "inertial",
    };
    let model = match model {
        DelayModel::Unit => "unit".to_string(),
        DelayModel::Fixed(d) => format!("fixed{d}"),
        DelayModel::Random { seed, .. } => format!("random{seed:x}"),
    };
    format!(
        "{} {model} {style} events={} end={} oscillation={} budget={} inconsistent={} waves={:016x}\n",
        parts.name,
        sim.events_processed(),
        sim.time(),
        errors.oscillation,
        errors.budget,
        errors.inconsistent,
        hash.0,
    )
}

fn digests() -> String {
    let mut out = String::new();
    for result in machines() {
        let parts = MachineParts::from(&result);
        let machine = emit_parts(&parts, LOOP_STAGES);
        for model in &models() {
            for style in [DelayStyle::Transport, DelayStyle::Inertial] {
                out.push_str(&digest(&parts, &machine, model, style));
            }
        }
    }
    out
}

#[test]
fn simulator_runs_match_their_golden_digests() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_digests.txt");
    let golden = std::fs::read_to_string(&path).expect("golden sim_digests.txt");
    let actual = digests();
    let expected: Vec<&str> = golden.lines().collect();
    let actual: Vec<&str> = actual.lines().collect();
    assert_eq!(actual.len(), expected.len(), "golden line count");
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e, "a simulator digest moved");
    }
}
