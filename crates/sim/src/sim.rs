use std::fmt;

use crate::queue::{IndexedEventQueue, ScheduledEvent};
use crate::{DelayModel, Fanout, GateKind, NetId, Netlist};

/// Recorded value changes on a monitored net: `(time, new_value)` pairs in
/// chronological order, starting with the value at monitoring start.
pub type Waveform = Vec<(u64, bool)>;

/// Default per-run event budget used when [`SimulatorBuilder::event_budget`]
/// is not called.
pub const DEFAULT_EVENT_BUDGET: usize = 100_000;

/// A net that toggles at least this many times within a single budgeted run
/// is diagnosed as oscillating when the budget runs out.
const OSCILLATION_TOGGLES: u32 = 16;

/// Unified error surface of the simulator.
///
/// Every variant names the offending net and, where meaningful, the
/// simulation time at which the run gave up, so campaign reports and test
/// failures can point at the actual circuit node instead of a bare count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event budget ran out while some net kept toggling — the circuit
    /// is oscillating. `net` is the busiest net of the run.
    Oscillation {
        /// The net with the most value changes during the run.
        net: NetId,
        /// Simulation time when the run gave up.
        time: u64,
        /// Events processed before giving up.
        events_processed: usize,
    },
    /// The event budget ran out without any net showing oscillatory
    /// toggling — the budget is simply too small for the workload.
    BudgetExhausted {
        /// The net of the last processed event.
        net: NetId,
        /// Simulation time when the run gave up.
        time: u64,
        /// Events processed before giving up.
        events_processed: usize,
    },
    /// [`Simulator::initialize_consistent`] failed to find a zero-delay
    /// fixpoint (the feedback logic is unstable under the given fixed nets).
    InconsistentInitialization {
        /// A net still changing when the iteration bound was hit.
        net: NetId,
        /// Fixpoint iterations performed.
        iterations: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Oscillation {
                net,
                time,
                events_processed,
            } => write!(
                f,
                "oscillation on net {net} at t={time} ({events_processed} events processed)"
            ),
            SimError::BudgetExhausted {
                net,
                time,
                events_processed,
            } => write!(
                f,
                "event budget exhausted at t={time} on net {net} ({events_processed} events)"
            ),
            SimError::InconsistentInitialization { net, iterations } => write!(
                f,
                "no consistent initialization: net {net} still changing after {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// How scheduled output transitions behave when a gate re-evaluates before a
/// previously scheduled transition has been delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayStyle {
    /// Every scheduled transition is delivered (pulses narrower than the gate
    /// delay still propagate). This exposes the maximum number of hazards.
    #[default]
    Transport,
    /// A gate has at most one outstanding transition; re-evaluating to the
    /// currently committed value cancels it (pulses narrower than the gate
    /// delay are filtered). This models the pulse-rejection of real gates and
    /// is used for closed-loop (feedback) simulations.
    Inertial,
}

/// Configures and constructs a [`Simulator`].
///
/// The builder gathers everything that used to be spread over
/// `Simulator::new` / `with_style` / `set_gate_delay` and the per-call
/// `max_events` arguments: the delay model and style, per-gate delay
/// overrides (the loop-delay assumption), the nets to record waveforms for,
/// and the event budget that [`Simulator::run_until_quiet`] and
/// [`Simulator::settle`] enforce per run.
///
/// ```
/// use fantom_sim::{DelayModel, DelayStyle, GateKind, Netlist, Simulator};
///
/// let mut nl = Netlist::new();
/// let a = nl.add_primary_input("a");
/// let y = nl.add_net("y");
/// nl.add_gate(GateKind::Not, vec![a], y);
///
/// let mut sim = Simulator::builder(&nl)
///     .delay_model(DelayModel::Fixed(2))
///     .style(DelayStyle::Transport)
///     .event_budget(1_000)
///     .monitor(y)
///     .build();
/// sim.settle().unwrap();
/// sim.schedule_input(a, true, 5);
/// sim.run_until_quiet().unwrap();
/// assert!(!sim.value(y));
/// ```
#[derive(Debug, Clone)]
pub struct SimulatorBuilder<'a> {
    netlist: &'a Netlist,
    delay_model: DelayModel,
    style: DelayStyle,
    event_budget: usize,
    monitors: Vec<NetId>,
    monitor_all: bool,
    delay_overrides: Vec<(usize, u64)>,
}

impl<'a> SimulatorBuilder<'a> {
    /// Start configuring a simulator for `netlist` (unit delays,
    /// transport style, default event budget, no monitors).
    pub fn new(netlist: &'a Netlist) -> Self {
        SimulatorBuilder {
            netlist,
            delay_model: DelayModel::Unit,
            style: DelayStyle::Transport,
            event_budget: DEFAULT_EVENT_BUDGET,
            monitors: Vec::new(),
            monitor_all: false,
            delay_overrides: Vec::new(),
        }
    }

    /// Delay model the per-gate delays are drawn from.
    pub fn delay_model(mut self, model: DelayModel) -> Self {
        self.delay_model = model;
        self
    }

    /// Transport or inertial transition semantics.
    pub fn style(mut self, style: DelayStyle) -> Self {
        self.style = style;
        self
    }

    /// Event budget enforced by each [`Simulator::run_until_quiet`] /
    /// [`Simulator::settle`] call.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn event_budget(mut self, budget: usize) -> Self {
        assert!(budget > 0, "event budget must be positive");
        self.event_budget = budget;
        self
    }

    /// Override the propagation delay of a single gate.
    ///
    /// Used to model structurally slow elements such as the feedback loop of
    /// an asynchronous state machine, whose delay must exceed every
    /// combinational settling path (the loop-delay assumption).
    ///
    /// # Panics
    ///
    /// `build` panics if `gate_index` is out of range or `delay` is zero.
    pub fn gate_delay(mut self, gate_index: usize, delay: u64) -> Self {
        self.delay_overrides.push((gate_index, delay));
        self
    }

    /// Record a waveform for `net` from time 0.
    pub fn monitor(mut self, net: NetId) -> Self {
        self.monitors.push(net);
        self
    }

    /// Record waveforms for every net of the netlist (used by the parity
    /// suite and the campaign's glitch scan).
    pub fn monitor_all(mut self) -> Self {
        self.monitor_all = true;
        self
    }

    /// Construct the simulator. All nets start at logic 0 at time 0.
    pub fn build(self) -> Simulator<'a> {
        let netlist = self.netlist;
        let num_gates = netlist.num_gates();
        let num_nets = netlist.num_nets();
        let mut gate_delays = self.delay_model.delays_for(num_gates);
        for (gi, delay) in self.delay_overrides {
            assert!(gi < num_gates, "gate index {gi} out of range");
            assert!(delay > 0, "gate delay must be positive");
            gate_delays[gi] = delay;
        }
        let fanout = Fanout::build(netlist);
        let mut fanout_dff_clocks = vec![Vec::new(); num_nets];
        for (di, dff) in netlist.dffs().iter().enumerate() {
            fanout_dff_clocks[dff.clock.0].push(di);
        }
        let fanin_counts: Vec<u32> = netlist
            .gates()
            .iter()
            .map(|g| g.inputs.len() as u32)
            .collect();
        let mut sim = Simulator {
            netlist,
            gate_delays,
            dff_delay: self.delay_model.max_delay(),
            style: self.style,
            event_budget: self.event_budget,
            values: vec![false; num_nets],
            pending: vec![false; num_gates],
            true_counts: vec![0; num_gates],
            fanin_counts,
            // Sources: one per gate (gate-originated transitions) plus one
            // per net (externally driven: inputs and flip-flop outputs).
            queue: IndexedEventQueue::new(num_gates + num_nets),
            fanout,
            fanout_dff_clocks,
            time: 0,
            seq: 0,
            events_processed: 0,
            toggles: vec![0; num_nets],
            monitored: vec![None; num_nets],
        };
        if self.monitor_all {
            for n in 0..num_nets {
                sim.monitor(NetId(n));
            }
        } else {
            for net in self.monitors {
                sim.monitor(net);
            }
        }
        sim
    }
}

/// Event-driven gate-level simulator over a [`Netlist`].
///
/// Built via [`Simulator::builder`]. Scheduling runs on an
/// [`IndexedEventQueue`] — one FIFO per event source (gate or externally
/// driven net) under a position-indexed heap — so inertial-mode supersession
/// cancels transitions in place instead of leaving stale tombstones, and gate
/// re-evaluation is O(1) via per-gate true-input counters maintained
/// incrementally along the fanout CSR.
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    gate_delays: Vec<u64>,
    dff_delay: u64,
    style: DelayStyle,
    event_budget: usize,
    values: Vec<bool>,
    /// Last value scheduled (or rescinded to) per gate.
    pending: Vec<bool>,
    /// Per-gate count of currently-true input connections, with multiplicity.
    /// Together with `fanin_counts` this evaluates any gate in O(1).
    true_counts: Vec<u32>,
    /// Per-gate total number of input connections, with multiplicity.
    fanin_counts: Vec<u32>,
    queue: IndexedEventQueue,
    fanout: Fanout,
    fanout_dff_clocks: Vec<Vec<usize>>,
    time: u64,
    seq: u64,
    events_processed: u64,
    /// Per-net value changes within the current budgeted run (oscillation
    /// diagnosis).
    toggles: Vec<u32>,
    monitored: Vec<Option<Waveform>>,
}

impl<'a> Simulator<'a> {
    /// Start building a simulator for `netlist`.
    pub fn builder(netlist: &'a Netlist) -> SimulatorBuilder<'a> {
        SimulatorBuilder::new(netlist)
    }

    /// Current simulation time.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The netlist this simulator was built over.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The committed value of every net, indexed by net id (a borrowed
    /// snapshot for differential oracles).
    pub fn net_values(&self) -> &[bool] {
        &self.values
    }

    /// Cumulative number of events processed over the simulator's lifetime
    /// (feeds the `sim.events_per_s` throughput metric).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The per-run event budget this simulator was built with.
    pub fn event_budget(&self) -> usize {
        self.event_budget
    }

    /// Per gate: `true` when its delay exceeds every delay the model draws,
    /// i.e. a [`SimulatorBuilder::gate_delay`] override for a slow element
    /// such as a feedback buffer (the loop-delay assumption).
    pub(crate) fn slow_gates(&self) -> Vec<bool> {
        // Flip-flops run at the model's largest delay.
        let model_max = self.dff_delay;
        self.gate_delays.iter().map(|&d| d > model_max).collect()
    }

    /// Current value of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.0]
    }

    /// Current values of several nets, in order.
    pub fn values(&self, nets: &[NetId]) -> Vec<bool> {
        nets.iter().map(|&n| self.value(n)).collect()
    }

    /// Begin recording a waveform for `net` (no-op if already monitored).
    pub fn monitor(&mut self, net: NetId) {
        if self.monitored[net.0].is_none() {
            self.monitored[net.0] = Some(vec![(self.time, self.values[net.0])]);
        }
    }

    /// The recorded waveform of a monitored net, if it was monitored.
    pub fn waveform(&self, net: NetId) -> Option<&Waveform> {
        self.monitored[net.0].as_ref()
    }

    /// Force a net to a value *now* (used to establish initial conditions and
    /// to drive primary inputs immediately).
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.schedule_input(net, value, 0);
    }

    /// Schedule a primary-input (or initialisation) change `delta` time units
    /// from the current simulation time.
    pub fn schedule_input(&mut self, net: NetId, value: bool, delta: u64) {
        let event = ScheduledEvent {
            time: self.time + delta,
            seq: self.seq,
            net,
            value,
        };
        self.seq += 1;
        let source = self.netlist.num_gates() + net.0;
        self.queue.schedule(source, event);
    }

    /// Compute a delay-free fixpoint of the combinational logic with the given
    /// nets held at fixed values, then preset every net (and every gate's
    /// pending state) to that fixpoint. Pending gate transitions are
    /// discarded; externally scheduled input events are kept.
    ///
    /// This establishes a consistent initial condition for circuits with
    /// combinational feedback (such as the FANTOM `Y → y` loop) without the
    /// spurious start-up transients that per-net presetting would cause.
    /// Flip-flop outputs are left at their current values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InconsistentInitialization`] when the logic has no
    /// zero-delay fixpoint under the given fixed nets (e.g. an unbroken
    /// inverting loop), naming a net that was still changing.
    pub fn initialize_consistent(&mut self, fixed: &[(NetId, bool)]) -> Result<(), SimError> {
        let fixed_idx: Vec<usize> = fixed.iter().map(|(n, _)| n.0).collect();
        for &(net, value) in fixed {
            self.values[net.0] = value;
        }
        // Iterate to a fixpoint; the iteration count is bounded by the number
        // of gates (each pass settles at least one more logic level).
        let mut iterations = 0;
        loop {
            let mut changed = None;
            for gate in self.netlist.gates() {
                if fixed_idx.contains(&gate.output.0) {
                    continue;
                }
                let new_val = gate
                    .kind
                    .eval_iter(gate.inputs.iter().map(|n| self.values[n.0]));
                if self.values[gate.output.0] != new_val {
                    self.values[gate.output.0] = new_val;
                    changed = Some(gate.output);
                }
            }
            iterations += 1;
            match changed {
                None => break,
                Some(net) if iterations > self.netlist.num_gates() => {
                    return Err(SimError::InconsistentInitialization { net, iterations });
                }
                Some(_) => {}
            }
        }
        self.recompute_counts();
        for (gi, gate) in self.netlist.gates().iter().enumerate() {
            self.pending[gi] = self.values[gate.output.0];
            self.queue.cancel(gi);
        }
        let time = self.time;
        for (net, slot) in self.monitored.iter_mut().enumerate() {
            if let Some(wave) = slot {
                wave.push((time, self.values[net]));
            }
        }
        Ok(())
    }

    /// Process events until the queue drains or the event budget is
    /// exhausted. Returns the quiescence time.
    ///
    /// # Errors
    ///
    /// On budget exhaustion, returns [`SimError::Oscillation`] naming the
    /// busiest net when some net kept toggling, and
    /// [`SimError::BudgetExhausted`] otherwise.
    pub fn run_until_quiet(&mut self) -> Result<u64, SimError> {
        for t in self.toggles.iter_mut() {
            *t = 0;
        }
        let mut processed = 0usize;
        while let Some((source, event)) = self.queue.pop() {
            processed += 1;
            self.events_processed += 1;
            if processed > self.event_budget {
                return Err(self.budget_error(processed, event.net));
            }
            self.time = self.time.max(event.time);
            self.apply(source, event);
        }
        Ok(self.time)
    }

    fn budget_error(&self, events_processed: usize, last_net: NetId) -> SimError {
        let busiest = self
            .toggles
            .iter()
            .enumerate()
            .max_by_key(|&(_, &t)| t)
            .map(|(n, &t)| (NetId(n), t))
            .unwrap_or((last_net, 0));
        if busiest.1 >= OSCILLATION_TOGGLES {
            SimError::Oscillation {
                net: busiest.0,
                time: self.time,
                events_processed,
            }
        } else {
            SimError::BudgetExhausted {
                net: last_net,
                time: self.time,
                events_processed,
            }
        }
    }

    fn apply(&mut self, _source: usize, event: ScheduledEvent) {
        let net = event.net.0;
        let old = self.values[net];
        if old == event.value {
            return;
        }
        self.values[net] = event.value;
        self.toggles[net] += 1;
        if let Some(wave) = self.monitored[net].as_mut() {
            wave.push((event.time, event.value));
        }

        // Rising-edge flip-flops clocked by this net sample *before* the
        // combinational fanout walk (scheduling order fixes global seq order).
        if event.value && !old {
            for i in 0..self.fanout_dff_clocks[net].len() {
                let di = self.fanout_dff_clocks[net][i];
                let dff = &self.netlist.dffs()[di];
                let q = dff.q;
                let sampled = self.values[dff.data.0];
                let ev = ScheduledEvent {
                    time: event.time + self.dff_delay,
                    seq: self.seq,
                    net: q,
                    value: sampled,
                };
                self.seq += 1;
                let source = self.netlist.num_gates() + q.0;
                self.queue.schedule(source, ev);
            }
        }

        // Combinational fanout: walk the CSR row by index, updating each
        // reader's true-input counter and re-evaluating it in O(1).
        let (start, end) = self.fanout.row_bounds(net);
        for k in start..end {
            let gi = self.fanout.gate_at(k);
            let mult = self.fanout.mult_at(k);
            if event.value {
                self.true_counts[gi] += mult;
            } else {
                self.true_counts[gi] -= mult;
            }
            let new_val = self.gate_output(gi);
            match self.style {
                DelayStyle::Transport => {
                    if new_val != self.pending[gi] {
                        self.pending[gi] = new_val;
                        self.schedule_gate_event(gi, event.time, new_val);
                    }
                }
                DelayStyle::Inertial => {
                    if new_val == self.values[self.netlist.gates()[gi].output.0] {
                        // The change was rescinded before it could happen:
                        // remove the outstanding transition in place.
                        self.queue.cancel(gi);
                        self.pending[gi] = new_val;
                    } else if new_val != self.pending[gi] || !self.queue.contains(gi) {
                        self.queue.cancel(gi);
                        self.pending[gi] = new_val;
                        self.schedule_gate_event(gi, event.time, new_val);
                    }
                }
            }
        }
    }

    /// O(1) gate evaluation from the incremental counters. `Buf`/`Not` read
    /// their first input directly (they are defined on it, not on the count).
    #[inline]
    fn gate_output(&self, gi: usize) -> bool {
        let gate = &self.netlist.gates()[gi];
        let t = self.true_counts[gi];
        match gate.kind {
            GateKind::Buf => self.values[gate.inputs[0].0],
            GateKind::Not => !self.values[gate.inputs[0].0],
            GateKind::And => t == self.fanin_counts[gi],
            GateKind::Or => t > 0,
            GateKind::Nand => t != self.fanin_counts[gi],
            GateKind::Nor => t == 0,
            GateKind::Xor => t & 1 == 1,
            GateKind::Xnor => t & 1 == 0,
        }
    }

    fn schedule_gate_event(&mut self, gate_index: usize, now: u64, value: bool) {
        let ev = ScheduledEvent {
            time: now + self.gate_delays[gate_index],
            seq: self.seq,
            net: self.netlist.gates()[gate_index].output,
            value,
        };
        self.seq += 1;
        self.queue.schedule(gate_index, ev);
    }

    /// Rebuild every gate's true-input counter from the committed net values.
    fn recompute_counts(&mut self) {
        for (gi, gate) in self.netlist.gates().iter().enumerate() {
            self.true_counts[gi] = gate.inputs.iter().filter(|n| self.values[n.0]).count() as u32;
        }
    }

    /// Evaluate every gate once and schedule updates — used to bring a circuit
    /// with non-zero initial conditions into a consistent state before an
    /// experiment. Returns the settling time.
    ///
    /// # Errors
    ///
    /// Propagates the budget errors of [`Simulator::run_until_quiet`].
    pub fn settle(&mut self) -> Result<u64, SimError> {
        self.recompute_counts();
        for gi in 0..self.netlist.num_gates() {
            let new_val = self.gate_output(gi);
            self.queue.cancel(gi);
            self.pending[gi] = new_val;
            if new_val != self.values[self.netlist.gates()[gi].output.0] {
                let now = self.time;
                self.schedule_gate_event(gi, now, new_val);
            }
        }
        self.run_until_quiet()
    }

    /// Set a net's value directly without scheduling (initial conditions only;
    /// no fanout evaluation happens until [`Simulator::settle`] or a later
    /// event touches the fanout).
    pub fn preset(&mut self, net: NetId, value: bool) {
        let old = self.values[net.0];
        if old != value {
            self.values[net.0] = value;
            let (start, end) = self.fanout.row_bounds(net.0);
            for k in start..end {
                let gi = self.fanout.gate_at(k);
                let mult = self.fanout.mult_at(k);
                if value {
                    self.true_counts[gi] += mult;
                } else {
                    self.true_counts[gi] -= mult;
                }
            }
        }
        if let Some(wave) = self.monitored[net.0].as_mut() {
            wave.push((self.time, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;

    fn inverter_chain(n: usize) -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new();
        let input = nl.add_primary_input("in");
        let mut prev = input;
        let mut last = input;
        for i in 0..n {
            let next = nl.add_net(format!("n{i}"));
            nl.add_gate(GateKind::Not, vec![prev], next);
            prev = next;
            last = next;
        }
        (nl, input, last)
    }

    #[test]
    fn inverter_chain_propagates_with_delay() {
        let (nl, input, out) = inverter_chain(4);
        let mut sim = Simulator::builder(&nl).event_budget(1_000).build();
        sim.settle().unwrap();
        let initial = sim.value(out);
        sim.schedule_input(input, true, 5);
        let end = sim.run_until_quiet().unwrap();
        assert_eq!(sim.value(out), !initial);
        assert!(end >= 5 + 4, "four unit delays must elapse, got {end}");
    }

    #[test]
    fn and_gate_glitch_is_observable_with_skewed_inputs() {
        // y = a AND (NOT a) should glitch when 'a' rises, because the inverter
        // is slower than the direct path.
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let na = nl.add_net("na");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Not, vec![a], na);
        nl.add_gate(GateKind::And, vec![a, na], y);
        let mut sim = Simulator::builder(&nl)
            .delay_model(DelayModel::Fixed(3))
            .event_budget(100)
            .monitor(y)
            .build();
        sim.settle().unwrap();
        sim.schedule_input(a, true, 10);
        sim.run_until_quiet().unwrap();
        let wave = sim.waveform(y).unwrap();
        // y pulses 0 -> 1 -> 0: at least two changes after monitoring started.
        let changes = wave.windows(2).filter(|w| w[0].1 != w[1].1).count();
        assert!(changes >= 2, "expected a glitch pulse, waveform {wave:?}");
        assert!(!sim.value(y));
    }

    #[test]
    fn ring_oscillator_is_detected_as_oscillation() {
        let mut nl = Netlist::new();
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_gate(GateKind::Not, vec![a], b);
        nl.add_gate(GateKind::Buf, vec![b], a);
        let mut sim = Simulator::builder(&nl).event_budget(500).build();
        let result = sim.settle();
        match result {
            Err(SimError::Oscillation {
                net,
                events_processed,
                ..
            }) => {
                assert!(net == a || net == b, "oscillating net is in the ring");
                assert!(events_processed > 500);
            }
            other => panic!("expected oscillation, got {other:?}"),
        }
    }

    #[test]
    fn deep_chain_exhausts_small_budget_without_oscillation_verdict() {
        // A long inverter chain legitimately needs more events than a tiny
        // budget allows; no net toggles often, so the error must be
        // BudgetExhausted, not Oscillation.
        let (nl, input, _) = inverter_chain(64);
        let mut sim = Simulator::builder(&nl).event_budget(10).build();
        // Establish the quiescent state without events (settle() would
        // itself need more than 10 events for a 64-deep chain).
        sim.initialize_consistent(&[(input, false)]).unwrap();
        sim.schedule_input(input, true, 1);
        let result = sim.run_until_quiet();
        assert!(
            matches!(result, Err(SimError::BudgetExhausted { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn dff_samples_on_rising_edge_only() {
        let mut nl = Netlist::new();
        let clk = nl.add_primary_input("clk");
        let d = nl.add_primary_input("d");
        let q = nl.add_net("q");
        nl.add_dff(clk, d, q);
        let mut sim = Simulator::builder(&nl).event_budget(100).build();
        sim.set_input(d, true);
        sim.run_until_quiet().unwrap();
        assert!(!sim.value(q), "q must not change without a clock edge");
        sim.schedule_input(clk, true, 5);
        sim.run_until_quiet().unwrap();
        assert!(sim.value(q), "q captures d on the rising edge");
        // Falling edge does not sample.
        sim.schedule_input(d, false, 1);
        sim.schedule_input(clk, false, 2);
        sim.run_until_quiet().unwrap();
        assert!(sim.value(q));
    }

    #[test]
    fn preset_and_settle_establish_initial_state() {
        // SR-latch style feedback: two cross-coupled NORs.
        let mut nl = Netlist::new();
        let s = nl.add_primary_input("s");
        let r = nl.add_primary_input("r");
        let q = nl.add_net("q");
        let nq = nl.add_net("nq");
        nl.add_gate(GateKind::Nor, vec![r, nq], q);
        nl.add_gate(GateKind::Nor, vec![s, q], nq);
        let mut sim = Simulator::builder(&nl).event_budget(100).build();
        sim.preset(q, true);
        sim.preset(nq, false);
        sim.settle().unwrap();
        assert!(sim.value(q));
        assert!(!sim.value(nq));
        // Reset pulse flips the latch.
        sim.schedule_input(r, true, 5);
        sim.schedule_input(r, false, 10);
        sim.run_until_quiet().unwrap();
        assert!(!sim.value(q));
        assert!(sim.value(nq));
    }

    #[test]
    fn inertial_mode_filters_pulses_narrower_than_the_gate_delay() {
        // y = a AND (NOT a): with equal delays the overlap pulse is exactly as
        // wide as the AND delay; under inertial semantics it is filtered.
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let na = nl.add_net("na");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Not, vec![a], na);
        nl.add_gate(GateKind::And, vec![a, na], y);
        let mut sim = Simulator::builder(&nl)
            .delay_model(DelayModel::Fixed(3))
            .style(DelayStyle::Inertial)
            .event_budget(100)
            .monitor(y)
            .build();
        sim.settle().unwrap();
        sim.schedule_input(a, true, 10);
        sim.run_until_quiet().unwrap();
        let wave = sim.waveform(y).unwrap();
        let changes = wave.windows(2).filter(|w| w[0].1 != w[1].1).count();
        assert_eq!(
            changes, 0,
            "inertial mode must filter the narrow pulse: {wave:?}"
        );
    }

    #[test]
    fn inertial_mode_still_propagates_wide_pulses() {
        // A pulse wider than the gate delay must still come through.
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Buf, vec![a], y);
        let mut sim = Simulator::builder(&nl)
            .delay_model(DelayModel::Fixed(2))
            .style(DelayStyle::Inertial)
            .event_budget(100)
            .monitor(y)
            .build();
        sim.settle().unwrap();
        sim.schedule_input(a, true, 5);
        sim.schedule_input(a, false, 15);
        sim.run_until_quiet().unwrap();
        let wave = sim.waveform(y).unwrap();
        let changes = wave.windows(2).filter(|w| w[0].1 != w[1].1).count();
        assert_eq!(changes, 2);
        assert!(!sim.value(y));
    }

    #[test]
    fn initialize_consistent_fixes_feedback_circuits_without_transients() {
        // Cross-coupled NOR latch initialised to q=1 via the fixpoint helper:
        // no start-up events at all.
        let mut nl = Netlist::new();
        let s = nl.add_primary_input("s");
        let r = nl.add_primary_input("r");
        let q = nl.add_net("q");
        let nq = nl.add_net("nq");
        nl.add_gate(GateKind::Nor, vec![r, nq], q);
        nl.add_gate(GateKind::Nor, vec![s, q], nq);
        let mut sim = Simulator::builder(&nl).event_budget(100).build();
        sim.initialize_consistent(&[(s, false), (r, false), (q, true)])
            .unwrap();
        sim.monitor(q);
        assert!(sim.value(q));
        assert!(!sim.value(nq));
        sim.run_until_quiet().unwrap();
        // The latch holds without any transition having occurred.
        let wave = sim.waveform(q).unwrap();
        assert_eq!(wave.windows(2).filter(|w| w[0].1 != w[1].1).count(), 0);
        assert!(sim.value(q));
    }

    #[test]
    fn initialize_consistent_reports_unstable_feedback() {
        // A bare inverting loop has no zero-delay fixpoint.
        let mut nl = Netlist::new();
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_gate(GateKind::Not, vec![a], b);
        nl.add_gate(GateKind::Buf, vec![b], a);
        let mut sim = Simulator::builder(&nl).build();
        let result = sim.initialize_consistent(&[]);
        assert!(
            matches!(result, Err(SimError::InconsistentInitialization { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn monitored_waveform_records_initial_value() {
        let (nl, input, out) = inverter_chain(1);
        let mut sim = Simulator::builder(&nl).event_budget(10).build();
        sim.settle().unwrap();
        sim.monitor(out);
        let wave = sim.waveform(out).unwrap();
        assert_eq!(wave.len(), 1);
        let _ = input;
    }

    #[test]
    fn xor_with_duplicated_input_evaluates_by_multiplicity() {
        // y = a XOR a XOR b == b; the duplicated input must count twice in the
        // incremental evaluation or toggling `a` would flip y.
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let b = nl.add_primary_input("b");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Xor, vec![a, a, b], y);
        let mut sim = Simulator::builder(&nl).event_budget(100).build();
        sim.settle().unwrap();
        assert!(!sim.value(y));
        sim.schedule_input(a, true, 1);
        sim.run_until_quiet().unwrap();
        assert!(!sim.value(y), "a xor a cancels");
        sim.schedule_input(b, true, 1);
        sim.run_until_quiet().unwrap();
        assert!(sim.value(y));
    }
}
