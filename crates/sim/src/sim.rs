use std::fmt;

use crate::queue::{EventWheel, ScheduledEvent};
use crate::{DelayModel, Fanout, NetId, Netlist};

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
        let gate_words = num_gates.div_ceil(64);
        let dff_delay = self.delay_model.max_delay();
        // The wheel spans the longest delay a gate or flip-flop schedules.
        let span = gate_delays.iter().copied().fold(dff_delay, u64::max);
        let mut sim = Simulator {
            netlist,
            gate_delays,
            dff_delay,
            style: self.style,
            event_budget: self.event_budget,
            values: vec![false; num_nets],
            pending: vec![false; num_gates],
            true_counts: vec![0; num_gates],
            // Sources: one per gate (gate-originated transitions) plus one
            // per net (externally driven: inputs and flip-flop outputs).
            queue: EventWheel::new(num_gates + num_nets, span),
            fanout: netlist.fanout(),
            time: 0,
            events_processed: 0,
            toggles: vec![0; num_nets],
            toggled: Vec::new(),
            monitored: vec![None; num_nets],
            monitored_nets: Vec::new(),
            stale: vec![0; gate_words],
            next_round: vec![0; gate_words],
            touched: vec![0; gate_words],
            held: vec![false; num_nets],
        };
        sim.mark_all_stale();
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

/// What a simulator's runs depend on besides their start state and input
/// change, with every delay read in its unit ([`Simulator::time_scale`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DelaySignature {
    /// Each gate delay, then the flip-flop delay, over the unit.
    quotients: Vec<u64>,
    style: DelayStyle,
    event_budget: usize,
    monitored: Vec<usize>,
}

/// Event-driven gate-level simulator over a [`Netlist`].
///
/// Built via [`Simulator::builder`]. Scheduling runs on a timing wheel with
/// one slot per time unit over the longest delay, so a schedule is an append,
/// a pop a slot read and an inertial-mode supersession a counter bump, and
/// gate re-evaluation is O(1) via per-gate true-input counters maintained
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
    /// Per-gate count of currently-true input connections, with multiplicity,
    /// which evaluates any gate in O(1). Every value change keeps it current.
    true_counts: Vec<u32>,
    queue: EventWheel,
    /// The netlist's fanout, driver and flip-flop clock indexes.
    fanout: &'a Fanout,
    time: u64,
    events_processed: u64,
    /// Per-net value changes within the current budgeted run (oscillation
    /// diagnosis).
    toggles: Vec<u32>,
    /// The nets whose `toggles` entry is nonzero.
    toggled: Vec<u32>,
    monitored: Vec<Option<Waveform>>,
    /// The nets `monitored` records, in the order monitoring began.
    monitored_nets: Vec<usize>,
    /// Bitset over gate ids: the gates whose output may disagree with their
    /// inputs, which the next [`Simulator::initialize_consistent`] evaluates
    /// first (see its docs for the rule).
    stale: Vec<u64>,
    /// Scratch of `initialize_consistent`, empty between calls: the gates to
    /// evaluate in the next round, the gates visited or held (whose pending
    /// state it resets), and per net whether it is held.
    next_round: Vec<u64>,
    touched: Vec<u64>,
    held: Vec<bool>,
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
    /// (feeds the `sim.events_per_s` throughput metric). A run that a
    /// campaign [`Harness`](crate::campaign::Harness) replays from its
    /// [`StepMemo`](crate::campaign::StepMemo) counts the events of the
    /// recorded run it repeats, so campaign event counts do not depend on
    /// replays, and a throughput over them counts replayed events as if
    /// simulated.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The per-run event budget this simulator was built with.
    pub fn event_budget(&self) -> usize {
        self.event_budget
    }

    /// Per gate: the number of true input connections, with multiplicity,
    /// current with [`Simulator::net_values`].
    pub(crate) fn true_counts(&self) -> &[u32] {
        &self.true_counts
    }

    /// Per gate: the last value it scheduled or rescinded to.
    pub(crate) fn pending(&self) -> &[bool] {
        &self.pending
    }

    /// The monitored nets, in the order monitoring began.
    pub(crate) fn monitored_nets(&self) -> &[usize] {
        &self.monitored_nets
    }

    /// The time unit of this simulator's delays, its smallest gate delay,
    /// and what a run depends on besides its start state and input change;
    /// `None` when some gate or flip-flop delay is not a multiple of the
    /// unit. Two simulators with equal signatures run a step alike at their
    /// own time scales when its inputs are due within a unit of each other
    /// (see [`campaign`](crate::campaign), "Runs at another time scale").
    pub(crate) fn time_scale(&self) -> Option<(u64, DelaySignature)> {
        let unit = (self.gate_delays.iter().copied().min()).unwrap_or(self.dff_delay);
        let quotients = (self.gate_delays.iter().chain([&self.dff_delay]))
            .map(|&d| (d % unit == 0).then_some(d / unit))
            .collect::<Option<Vec<u64>>>()?;
        let signature = DelaySignature {
            quotients,
            style: self.style,
            event_budget: self.event_budget,
            monitored: self.monitored_nets.clone(),
        };
        Some((unit, signature))
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
            self.monitored_nets.push(net.0);
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
            net,
            value,
        };
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
    /// The fixpoint is the one Gauss–Seidel rounds over every gate in index
    /// order reach, a gate whose output is held being skipped. Only gates
    /// that may disagree with their inputs are evaluated, each in O(1) from
    /// its true-input counter (selective trace), so the cost follows the
    /// logic the change reaches, not the size of the netlist:
    ///
    /// * the first round evaluates the *stale* gates and the readers of every
    ///   held net whose value changes. Every gate is stale in a fresh
    ///   simulator and after [`Simulator::preset`], a run that ran out of its
    ///   budget (its queued and dropped events leave gates behind) or a
    ///   failed initialization. Otherwise the stale gates are those whose
    ///   output the previous initialization held, and the drivers of a net
    ///   that an external event or another driver overrode;
    /// * a gate whose output changes marks its readers (and the net's other
    ///   drivers): those after it in index order are evaluated in the same
    ///   round, the others in the next.
    ///
    /// A gate left out would evaluate to its current output, so values,
    /// pending states, waveform points and errors equal those of a sweep over
    /// every gate, cyclic logic included.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InconsistentInitialization`] when the logic has no
    /// zero-delay fixpoint under the given fixed nets (e.g. an unbroken
    /// inverting loop), naming the last net that changed in the last round,
    /// after more rounds than the netlist has gates. The nets keep the values
    /// of that round; pending states, queued events and waveforms are left
    /// as they were. The true-input counters follow every value change, so a
    /// later run still evaluates every gate correctly.
    ///
    /// # Replay
    ///
    /// The rounds read only the stale set and the net values, and they write
    /// only the values (with their readers' counters), the pending states and
    /// queued events of the gates they visit, the stale set and the monitored
    /// waveforms. A successful initialization is therefore a function of its
    /// fixed nets, its start values and its stale set, and a campaign's
    /// [`StepMemo`](crate::campaign::StepMemo) records it as those plus the
    /// end values and the visited gates. It replays the record whenever an
    /// initialization with the same fixed nets starts from the same values
    /// and stale set, leaving every part of the simulator state as the
    /// rounds would. Flip-flop outputs that no gate reads or drives are the
    /// exception on the key side: the rounds write them only when they are
    /// held, and the replay holds them as the rounds do.
    pub fn initialize_consistent(&mut self, fixed: &[(NetId, bool)]) -> Result<(), SimError> {
        self.initialize_visiting(fixed, None)
    }

    /// [`Simulator::initialize_consistent`], which on success also writes
    /// the gates its rounds visited to `visited`, a bitset over gate ids.
    pub(crate) fn initialize_visiting(
        &mut self,
        fixed: &[(NetId, bool)],
        mut visited: Option<&mut [u64]>,
    ) -> Result<(), SimError> {
        let gates = self.netlist.gates();
        let mut round = std::mem::take(&mut self.stale);
        let mut next = std::mem::take(&mut self.next_round);
        for &(net, _) in fixed {
            self.held[net.0] = true;
        }
        for &(net, value) in fixed {
            if self.values[net.0] != value {
                self.init_assign(net.0, value, None, &mut round, &mut next);
            }
        }
        // Rounds to a fixpoint, bounded by the number of gates (each round
        // settles at least one more logic level).
        let mut iterations = 0;
        loop {
            let mut changed = None;
            for w in 0..round.len() {
                // Re-read the word: a change marks later gates of it.
                while round[w] != 0 {
                    let bit = round[w].trailing_zeros();
                    round[w] &= round[w] - 1;
                    self.touched[w] |= 1 << bit;
                    let gi = w * 64 + bit as usize;
                    let out = gates[gi].output;
                    if self.held[out.0] {
                        continue;
                    }
                    let value = self.gate_output(gi);
                    if self.values[out.0] != value {
                        self.init_assign(out.0, value, Some(gi), &mut round, &mut next);
                        changed = Some(out);
                    }
                }
            }
            iterations += 1;
            match changed {
                None => break,
                Some(net) if iterations > gates.len() => {
                    for &(net, _) in fixed {
                        self.held[net.0] = false;
                    }
                    next.fill(0);
                    self.touched.fill(0);
                    (self.stale, self.next_round) = (round, next);
                    self.mark_all_stale();
                    return Err(SimError::InconsistentInitialization { net, iterations });
                }
                Some(_) => std::mem::swap(&mut round, &mut next),
            }
        }
        for &(net, _) in fixed {
            self.held[net.0] = false;
        }
        // Both rounds are empty now; the held drivers start the stale set.
        (self.stale, self.next_round) = (round, next);
        self.stale_held_drivers(fixed);
        for w in 0..self.touched.len() {
            if let Some(visited) = visited.as_deref_mut() {
                visited[w] = self.touched[w];
            }
            while self.touched[w] != 0 {
                let gi = w * 64 + self.touched[w].trailing_zeros() as usize;
                self.touched[w] &= self.touched[w] - 1;
                self.reset_pending(gi);
            }
        }
        self.record_waveforms();
        Ok(())
    }

    /// Replay a successful [`Simulator::initialize_consistent`] recorded
    /// with the same `fixed` nets: `start` and `end` are its values before
    /// and after, packed one bit per net, and `visited` the gates its rounds
    /// visited. The simulator must hold the recorded start values on every
    /// net `mask` keeps, and the recorded stale set.
    ///
    /// The nets where the packed states differ take their end values; a
    /// held net `mask` clears (a flip-flop output no gate reads or drives)
    /// takes its fixed value, the only write of the rounds there. Then the
    /// visited gates lose their pending transitions, the held drivers become
    /// the stale set and the monitored waveforms take their points, as at
    /// the end of the rounds.
    pub(crate) fn replay_initialization(
        &mut self,
        fixed: &[(NetId, bool)],
        start: &[u64],
        end: &[u64],
        mask: &[u64],
        visited: &[u64],
    ) {
        for (w, ((&s, &e), &m)) in start.iter().zip(end).zip(mask).enumerate() {
            let mut diff = (s ^ e) & m;
            while diff != 0 {
                let bit = diff.trailing_zeros();
                diff &= diff - 1;
                self.assign(w * 64 + bit as usize, e >> bit & 1 == 1);
            }
        }
        for &(net, value) in fixed {
            if self.values[net.0] != value {
                self.assign(net.0, value);
            }
        }
        for (w, &word) in visited.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let gi = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.reset_pending(gi);
            }
        }
        self.stale.fill(0);
        self.stale_held_drivers(fixed);
        self.record_waveforms();
    }

    /// Replay a successful [`Simulator::run_until_quiet`] recorded from the
    /// state this simulator holds, whose input events the caller does not
    /// schedule: with nothing queued, apply everything the run writes.
    ///
    /// `changed` holds, one bit per net, the nets whose values the run
    /// flipped; they flip with their readers' true-input counters. The run
    /// flipped the pending values of the gates in `pending`, or of the
    /// drivers of the changed nets when it is `None`, and added `stale` to
    /// the stale set. Each `(net, time, value)` of `points` extends a
    /// monitored waveform. The run processed `events` events and ended at
    /// `end`, where the drained wheel's window moves.
    pub(crate) fn replay_run(
        &mut self,
        changed: &[u64],
        pending: Option<&[u64]>,
        stale: Option<&[u64]>,
        points: impl Iterator<Item = (usize, u64, bool)>,
        events: u64,
        end: u64,
    ) {
        let fanout = self.fanout;
        for (w, &word) in changed.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let net = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.assign(net, !self.values[net]);
                if pending.is_none() {
                    for &gi in fanout.drivers(net) {
                        self.pending[gi as usize] ^= true;
                    }
                }
            }
        }
        for (w, &word) in pending.unwrap_or_default().iter().enumerate() {
            let mut word = word;
            while word != 0 {
                self.pending[w * 64 + word.trailing_zeros() as usize] ^= true;
                word &= word - 1;
            }
        }
        for (set, &added) in self.stale.iter_mut().zip(stale.unwrap_or_default()) {
            *set |= added;
        }
        for (net, time, value) in points {
            let wave = self.monitored[net].as_mut().expect("monitored net");
            wave.push((time, value));
        }
        self.events_processed += events;
        self.time = end;
        self.queue.move_window(end);
    }

    /// Commit a changed `value` to `net`, keeping its readers' true-input
    /// counters current.
    fn assign(&mut self, net: usize, value: bool) {
        self.values[net] = value;
        let (start, end) = self.fanout.row_bounds(net);
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

    /// Preset gate `gi`'s pending state to its output's value and drop its
    /// queued transitions.
    fn reset_pending(&mut self, gi: usize) {
        self.pending[gi] = self.values[self.netlist.gates()[gi].output.0];
        self.queue.cancel(gi);
    }

    /// Mark the drivers of the `fixed` nets stale: their outputs were held.
    fn stale_held_drivers(&mut self, fixed: &[(NetId, bool)]) {
        for &(net, _) in fixed {
            for &gi in self.fanout.drivers(net.0) {
                insert(&mut self.stale, gi as usize);
            }
        }
    }

    /// Extend every monitored waveform with its net's current value.
    fn record_waveforms(&mut self) {
        for &net in &self.monitored_nets {
            let wave = self.monitored[net].as_mut().expect("monitored net");
            wave.push((self.time, self.values[net]));
        }
    }

    /// The gates the next initialization evaluates first, a bitset over gate
    /// ids.
    pub(crate) fn stale(&self) -> &[u64] {
        &self.stale
    }

    /// Commit `value` to `net` during an initialization round at gate
    /// `cursor` (`None` before the first round), keeping the readers'
    /// counters current and marking the readers and the net's other drivers:
    /// after the cursor for this round, at or before it for the next.
    fn init_assign(
        &mut self,
        net: usize,
        value: bool,
        cursor: Option<usize>,
        round: &mut [u64],
        next: &mut [u64],
    ) {
        self.values[net] = value;
        let mut mark = |gi: usize| {
            let set = if cursor.map_or(true, |c| gi > c) {
                &mut *round
            } else {
                &mut *next
            };
            insert(set, gi);
        };
        let (start, end) = self.fanout.row_bounds(net);
        for k in start..end {
            let gi = self.fanout.gate_at(k);
            let mult = self.fanout.mult_at(k);
            if value {
                self.true_counts[gi] += mult;
            } else {
                self.true_counts[gi] -= mult;
            }
            mark(gi);
        }
        for &gi in self.fanout.drivers(net) {
            if Some(gi as usize) != cursor {
                mark(gi as usize);
            }
        }
    }

    /// Mark every gate stale: the next initialization evaluates them all.
    fn mark_all_stale(&mut self) {
        let gates = self.netlist.num_gates();
        for (w, word) in self.stale.iter_mut().enumerate() {
            let rest = gates - w * 64;
            *word = if rest >= 64 { !0 } else { (1 << rest) - 1 };
        }
    }

    /// Process events until the queue drains or the event budget is
    /// exhausted. Returns the quiescence time.
    ///
    /// # Errors
    ///
    /// On budget exhaustion, returns [`SimError::Oscillation`] naming the
    /// busiest net when some net kept toggling, and
    /// [`SimError::BudgetExhausted`] otherwise. The event past the budget is
    /// dropped, and the clock moves on to its time.
    pub fn run_until_quiet(&mut self) -> Result<u64, SimError> {
        for &net in &self.toggled {
            self.toggles[net as usize] = 0;
        }
        self.toggled.clear();
        let mut processed = 0usize;
        while let Some((source, event)) = self.queue.pop() {
            processed += 1;
            self.events_processed += 1;
            if processed > self.event_budget {
                // The dropped event and the queued ones leave gates that
                // disagree with their outputs.
                self.mark_all_stale();
                let error = self.budget_error(processed, event.net);
                // The queue has reached the dropped event's time; later
                // schedules start there.
                self.time = event.time;
                return Err(error);
            }
            self.time = event.time;
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

    fn apply(&mut self, source: usize, event: ScheduledEvent) {
        let net = event.net.0;
        let old = self.values[net];
        if old == event.value {
            return;
        }
        self.values[net] = event.value;
        if self.toggles[net] == 0 {
            self.toggled.push(net as u32);
        }
        self.toggles[net] += 1;
        if let Some(wave) = self.monitored[net].as_mut() {
            wave.push((event.time, event.value));
        }
        // A driver of this net other than the event's source may now
        // disagree with its own output.
        for &gi in self.fanout.drivers(net) {
            if gi as usize != source {
                insert(&mut self.stale, gi as usize);
            }
        }

        // Rising-edge flip-flops clocked by this net sample *before* the
        // combinational fanout walk (schedule order is delivery order at
        // equal times).
        if event.value && !old {
            for &di in self.fanout.clocked_dffs(net) {
                let dff = &self.netlist.dffs()[di as usize];
                let q = dff.q;
                let sampled = self.values[dff.data.0];
                let ev = ScheduledEvent {
                    time: event.time + self.dff_delay,
                    net: q,
                    value: sampled,
                };
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
                        // cancel the outstanding transition.
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

    /// O(1) gate evaluation from the incremental counters.
    #[inline]
    fn gate_output(&self, gi: usize) -> bool {
        self.netlist.gates()[gi].eval_counted(self.true_counts[gi], |n| self.values[n.0])
    }

    fn schedule_gate_event(&mut self, gate_index: usize, now: u64, value: bool) {
        let ev = ScheduledEvent {
            time: now + self.gate_delays[gate_index],
            net: self.netlist.gates()[gate_index].output,
            value,
        };
        self.queue.schedule(gate_index, ev);
    }

    /// Evaluate every gate once and schedule updates — used to bring a circuit
    /// with non-zero initial conditions into a consistent state before an
    /// experiment. Returns the settling time.
    ///
    /// # Errors
    ///
    /// Propagates the budget errors of [`Simulator::run_until_quiet`].
    pub fn settle(&mut self) -> Result<u64, SimError> {
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
    /// event touches the fanout). Every gate becomes stale, so the next
    /// [`Simulator::initialize_consistent`] evaluates them all.
    pub fn preset(&mut self, net: NetId, value: bool) {
        self.mark_all_stale();
        if self.values[net.0] != value {
            self.assign(net.0, value);
        }
        if let Some(wave) = self.monitored[net.0].as_mut() {
            wave.push((self.time, value));
        }
    }
}

#[cfg(test)]
impl Simulator<'_> {
    /// Assert that `self` and `other` hold the same values, waveforms,
    /// pending states, true-input counters, time and live queued events per
    /// source.
    pub(crate) fn assert_same_state(&self, other: &Simulator<'_>, at: &str) {
        assert_eq!(self.values, other.values, "{at}: values");
        assert_eq!(self.monitored, other.monitored, "{at}: waveforms");
        assert_eq!(self.pending, other.pending, "{at}: pending");
        assert_eq!(self.true_counts, other.true_counts, "{at}: true counts");
        assert_eq!(self.time, other.time, "{at}: time");
        let live = |sim: &Simulator<'_>| sim.queue.live_counts();
        assert_eq!(live(self), live(other), "{at}: queued events");
    }
}

/// Add gate `gi` to a bitset over gate ids.
#[inline]
fn insert(set: &mut [u64], gi: usize) {
    set[gi / 64] |= 1 << (gi % 64);
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::{GateKind, Netlist};

    impl Simulator<'_> {
        /// `initialize_consistent` as it was before selective trace — full
        /// Gauss–Seidel sweeps over every gate, with a linear scan of the
        /// held nets — kept verbatim as the differential reference.
        fn reference_initialize_consistent(
            &mut self,
            fixed: &[(NetId, bool)],
        ) -> Result<(), SimError> {
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

        /// Rebuild every gate's true-input counter from the committed net values.
        fn recompute_counts(&mut self) {
            for (gi, gate) in self.netlist.gates().iter().enumerate() {
                self.true_counts[gi] =
                    gate.inputs.iter().filter(|n| self.values[n.0]).count() as u32;
            }
        }
    }

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
    fn delays_past_the_largest_wheel_still_deliver_in_order() {
        // A ring spanning a 2^40 delay would not fit in memory: the wheel
        // stops at its largest size and longer delays take its far heap.
        let (nl, input, out) = inverter_chain(3);
        let delay = 1 << 40;
        let mut sim = Simulator::builder(&nl)
            .delay_model(DelayModel::Fixed(delay))
            .event_budget(100)
            .build();
        sim.settle().unwrap();
        let (start, initial) = (sim.time(), sim.value(out));
        sim.schedule_input(input, true, 5);
        assert_eq!(sim.run_until_quiet(), Ok(start + 5 + 3 * delay));
        assert_eq!(sim.value(out), !initial);
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
    fn counters_stay_consistent_after_a_failed_initialization() {
        // `a = !b`, `b = a` has no fixpoint; `c = a & x` reads the loop. With
        // four gates the init gives up after five rounds, at `a = 1`.
        let mut nl = Netlist::new();
        let x = nl.add_primary_input("x");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let c = nl.add_net("c");
        let bx = nl.add_net("bx");
        nl.add_gate(GateKind::Not, vec![b], a);
        nl.add_gate(GateKind::Buf, vec![a], b);
        nl.add_gate(GateKind::And, vec![a, x], c);
        nl.add_gate(GateKind::Buf, vec![x], bx);
        let mut sim = Simulator::builder(&nl).event_budget(100).build();
        let result = sim.initialize_consistent(&[]);
        assert_eq!(
            result,
            Err(SimError::InconsistentInitialization {
                net: b,
                iterations: 5
            })
        );
        assert!(sim.value(a));
        sim.schedule_input(x, true, 1);
        sim.run_until_quiet().unwrap();
        assert!(sim.value(c), "c = a & x with a = x = 1");
    }

    /// A random netlist over a few inputs: cyclic logic, duplicated inputs,
    /// nets with several drivers, gate-driven primary inputs and
    /// flip-flops all occur.
    fn random_netlist(rng: &mut StdRng) -> Netlist {
        const KINDS: [GateKind; 8] = [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        let mut nl = Netlist::new();
        let inputs = rng.gen_range(1..4usize);
        for i in 0..inputs {
            nl.add_primary_input(format!("x{i}"));
        }
        let internal = rng.gen_range(2..10usize);
        for i in 0..internal {
            nl.add_net(format!("n{i}"));
        }
        let nets = nl.num_nets();
        for g in 0..rng.gen_range(1..internal + 3) {
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let fanin: Vec<NetId> = (0..rng.gen_range(1..5usize))
                .map(|_| NetId(rng.gen_range(0..nets)))
                .collect();
            // Past `internal` gates, nets get a second driver.
            let output = if rng.gen_bool(0.05) {
                NetId(rng.gen_range(0..inputs))
            } else {
                NetId(inputs + g % internal)
            };
            nl.add_gate(kind, fanin, output);
        }
        if rng.gen_bool(0.3) {
            let net = |rng: &mut StdRng| NetId(rng.gen_range(0..nets));
            let (clock, data, q) = (net(rng), net(rng), net(rng));
            nl.add_dff(clock, data, q);
        }
        nl
    }

    /// Selective-trace initialization against the full sweep it replaced,
    /// over random netlists and random histories of presets, external
    /// events (on gate-driven nets too), settles, runs that exhaust their
    /// budget and initializations that fail. After a failed initialization
    /// the reference's counters are rebuilt, the fix the full sweep lacked.
    #[test]
    fn selective_initialization_matches_the_full_sweep() {
        let mut rng = StdRng::seed_from_u64(0x5E1E_C71E);
        let (mut inits, mut failed, mut aborted) = (0, 0, 0);
        for case in 0..400 {
            let nl = random_netlist(&mut rng);
            let nets = nl.num_nets();
            let model = match rng.gen_range(0..3u32) {
                0 => DelayModel::Unit,
                1 => DelayModel::Fixed(rng.gen_range(1..4u64)),
                _ => DelayModel::Random {
                    min: 1,
                    max: 4,
                    seed: rng.next_u64(),
                },
            };
            let style = if rng.gen_bool(0.5) {
                DelayStyle::Transport
            } else {
                DelayStyle::Inertial
            };
            let mut builder = Simulator::builder(&nl)
                .delay_model(model)
                .style(style)
                .event_budget(rng.gen_range(4..200usize));
            for net in 0..nets {
                if rng.gen_bool(0.4) {
                    builder = builder.monitor(NetId(net));
                }
            }
            let mut new = builder.clone().build();
            let mut old = builder.build();
            for op in 0..rng.gen_range(1..24usize) {
                let at = format!("case {case} op {op}");
                let net = NetId(rng.gen_range(0..nets));
                let value = rng.gen_bool(0.5);
                match rng.gen_range(0..7u32) {
                    0 | 1 => {
                        let fixed: Vec<(NetId, bool)> = (0..rng.gen_range(0..4usize))
                            .map(|_| (NetId(rng.gen_range(0..nets)), rng.gen_bool(0.5)))
                            .collect();
                        let result = new.initialize_consistent(&fixed);
                        assert_eq!(
                            result,
                            old.reference_initialize_consistent(&fixed),
                            "{at}: init {fixed:?}"
                        );
                        inits += 1;
                        if result.is_err() {
                            failed += 1;
                            old.recompute_counts();
                        }
                    }
                    2 => {
                        new.preset(net, value);
                        old.preset(net, value);
                    }
                    3 => {
                        let delta = rng.gen_range(0..4u64);
                        new.schedule_input(net, value, delta);
                        old.schedule_input(net, value, delta);
                    }
                    4 => {
                        let result = new.run_until_quiet();
                        assert_eq!(result, old.run_until_quiet(), "{at}: run");
                        aborted += usize::from(result.is_err());
                    }
                    5 => assert_eq!(new.settle(), old.settle(), "{at}: settle"),
                    _ => {
                        new.monitor(net);
                        old.monitor(net);
                    }
                }
                new.assert_same_state(&old, &at);
            }
        }
        // The histories reach every kind of initialization they test.
        assert!(
            inits > 1_000 && failed > 20 && aborted > 20,
            "{inits} {failed} {aborted}"
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
