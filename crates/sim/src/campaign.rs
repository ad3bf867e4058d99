//! Building blocks for Monte-Carlo hazard-validation campaigns.
//!
//! A campaign simulates one circuit under many sampled delay assignments and
//! input sequences, looking for glitches the analytical hazard checks claim
//! cannot happen. This module provides the circuit-agnostic pieces:
//!
//! * [`DelaySweep`] — a deterministic schedule of delay assignments
//!   (unit / all-min / all-max / seeded-random styles, round-robin by trial
//!   index) with split-mix seed derivation so every `(campaign seed, trial)`
//!   pair maps to one delay assignment regardless of execution order. Its
//!   first three styles are one assignment at three time scales;
//! * [`ZeroDelayOracle`] — a cheap dirty-flag + process-queue netlist
//!   evaluator (the `rva` propagation idiom) that predicts the zero-delay
//!   fixpoint after an input change, used as a differential reference for the
//!   event-driven simulator's settled state;
//! * [`StepMemo`] — the per-worker step memo: per step key, the record of
//!   the step's initialization, the oracle's prediction and the event
//!   loop's runs, kept bit-packed across the delay assignments of one
//!   campaign worker. A record serves again whenever a step starts from the
//!   state it was made from: the initialization is replayed (its values,
//!   counters, pending states, cancelled events, stale set and waveform
//!   points) without running its rounds, and the prediction is reused
//!   without settling the oracle. A run is replayed (its values, counters,
//!   pending values, stale gates, waveform points, event count and end time)
//!   without scheduling an event, under delays that are the recording ones
//!   at another time scale;
//! * [`Harness`] — a [`Simulator`] plus a borrowed memo that drives one trial
//!   step by step, reporting per-step timing windows and oracle verdicts.
//!
//! The machine-aware campaign driver (which transitions to exercise, which
//! outputs are analytically hazard-free, report aggregation, parallel seeds)
//! lives in the `seance` crate on top of these pieces.
//!
//! # Runs at another time scale
//!
//! Let `u` be a simulator's smallest gate delay. When every gate delay,
//! every delay override and the flip-flop delay is `u` times a fixed
//! integer, and every input of a step is due less than `u` after the
//! earliest one, at `base`, each event of the step's run falls at
//! `base + o + m·u` for exactly one pair `(m, o)` with `o < u`, `o` an input
//! offset: an input event at its offset, and a gate or flip-flop event a
//! multiple of `u` after the event that caused it. The timing wheel
//! delivers in `(time, schedule order)`, which is the order of
//! `(m, o, schedule order)` and does not depend on `u`. So from one start
//! state, with one input change (nets, values and offsets), two simulators
//! whose delays have the same quotients by their units, the same delay
//! style, event budget and monitored nets run the same events in the same
//! order, each at its own `base + o + m·u`. The unit, minimum and maximum
//! styles of a [`DelaySweep`] are such simulators: the campaign's gate,
//! feedback-buffer and flip-flop delays are multiples of 1, of the minimum
//! or of the maximum, and its input skew of 0 or 1 stays below that unit.

use std::collections::VecDeque;

use crate::sim::DelaySignature;
use crate::{DelayModel, Fanout, NetId, Netlist, SimError, Simulator};

/// Split-mix style derivation of independent RNG seeds from a campaign seed
/// and a stream index. Every consumer of campaign randomness derives its seed
/// this way, which is what makes reports byte-identical for any worker count.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic sweep over delay assignments.
///
/// Trials round-robin through four styles: unit delays, every gate at the
/// sweep minimum, every gate at the sweep maximum, and per-gate delays drawn
/// uniformly from the sweep range. Random trials derive their seed from
/// `(base_seed, trial)`, so the assignment for a trial is independent of
/// which worker runs it.
///
/// The unit, minimum and maximum styles are one assignment at three time
/// scales: every delay the model draws, and the flip-flop delay, is 1, the
/// minimum or the maximum, so delay overrides that are multiples of the
/// model's largest delay (as a campaign's feedback buffers are) keep the
/// quotients by the unit equal too. A [`StepMemo`] replays the runs of one
/// of them to the other two (see the module docs); the random style draws
/// per-gate delays that are almost never all multiples of the smallest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelaySweep {
    /// Smallest per-gate delay of the sweep.
    pub min: u64,
    /// Largest per-gate delay of the sweep.
    pub max: u64,
}

impl DelaySweep {
    /// The delay model of `trial` under campaign seed `base_seed`.
    pub fn model_for_trial(&self, base_seed: u64, trial: usize) -> DelayModel {
        match trial % 4 {
            0 => DelayModel::Unit,
            1 => DelayModel::Fixed(self.min),
            2 => DelayModel::Fixed(self.max),
            _ => DelayModel::Random {
                min: self.min,
                max: self.max,
                seed: derive_seed(base_seed, trial as u64),
            },
        }
    }
}

/// Zero-delay differential oracle over a [`Netlist`].
///
/// Propagation follows the dirty-flag + process-queue idiom: changing a net
/// marks its reader gates dirty and enqueues them; settling dequeues gates,
/// re-evaluates each once, and re-enqueues the readers of any output that
/// changed. For a race-free circuit this converges to the unique zero-delay
/// fixpoint the event-driven simulator must also reach once quiescent —
/// disagreement means either a simulator bug or a genuine race resolved
/// differently under the sampled delays.
///
/// Each gate is evaluated in O(1) from a per-gate count of its true input
/// connections, which every value change keeps current along the fanout's
/// `(gate, multiplicity)` rows, and from the gate's packed record in the
/// netlist's [`Fanout`] (its output net and counted rule), so a settle costs
/// the gates the change reaches. The oracle is an engine of its own: it
/// shares with the [`Simulator`] only the netlist, the fanout with its
/// records and, through [`ZeroDelayOracle::load`], a snapshot of its state.
///
/// Flip-flop `q` nets have no combinational driver and are simply carried at
/// their loaded values; campaign comparisons exclude them.
///
/// Inside a [`Harness`], gates the simulator gives a delay beyond the delay
/// model's range (the feedback buffers of the loop-delay assumption) are
/// *slow*: they are evaluated only once every other gate has settled, all
/// dirty ones together, so a transient next-state value never reaches the
/// feedback — as in the simulator, where the long inertial loop delay
/// filters it.
///
/// A settle depends on the loaded state and the input change, never on the
/// simulator's delays. A harness therefore runs the oracle through a
/// [`StepMemo`], which settles it only for a start state the memo has not
/// seen under the step's key.
#[derive(Debug)]
pub struct ZeroDelayOracle<'a> {
    netlist: &'a Netlist,
    fanout: &'a Fanout,
    values: Vec<bool>,
    /// Per gate: true input connections, with multiplicity.
    true_counts: Vec<u32>,
    /// Per gate: queued in `queue` or `slow_queue`.
    dirty: Vec<bool>,
    queue: VecDeque<u32>,
    /// Per gate: evaluated only after the other gates settle.
    slow: Vec<bool>,
    /// Dirty slow gates, evaluated in the next round.
    slow_queue: Vec<u32>,
    /// The round being evaluated, and its pending `(net, value)` updates.
    slow_round: Vec<u32>,
    slow_updates: Vec<(usize, bool)>,
    step_bound: usize,
}

impl<'a> ZeroDelayOracle<'a> {
    /// An oracle over `netlist`, all nets at logic 0.
    pub fn new(netlist: &'a Netlist) -> Self {
        let slow = vec![false; netlist.num_gates()];
        Self::with_slow_gates(netlist, slow)
    }

    /// An oracle over `netlist` that evaluates the gates marked in `slow`
    /// only once the other gates have settled.
    pub(crate) fn with_slow_gates(netlist: &'a Netlist, slow: Vec<bool>) -> Self {
        ZeroDelayOracle {
            netlist,
            fanout: netlist.fanout(),
            values: vec![false; netlist.num_nets()],
            true_counts: vec![0; netlist.num_gates()],
            dirty: vec![false; netlist.num_gates()],
            queue: VecDeque::new(),
            slow,
            slow_queue: Vec::new(),
            slow_round: Vec::new(),
            slow_updates: Vec::new(),
            // A settled circuit re-evaluates each gate O(depth) times; 64
            // rounds of the whole netlist is far beyond any converging run.
            step_bound: netlist.num_gates().max(1) * 64,
        }
    }

    /// Overwrite every net value and every gate's true-input counter from
    /// the committed state of `sim`, a simulator over the same netlist, and
    /// clear all dirty state. Costs one copy of each, not a fan-in scan.
    ///
    /// # Panics
    ///
    /// Panics if `sim` runs another netlist.
    pub fn load(&mut self, sim: &Simulator<'_>) {
        assert!(
            std::ptr::eq(self.netlist, sim.netlist()),
            "oracle and simulator run one netlist"
        );
        self.values.copy_from_slice(sim.net_values());
        self.true_counts.copy_from_slice(sim.true_counts());
        debug_assert!(
            self.netlist
                .gates()
                .iter()
                .zip(&self.true_counts)
                .all(|(g, &t)| {
                    g.inputs.iter().filter(|n| self.values[n.0]).count() as u32 == t
                }),
            "the simulator's true-input counters disagree with its values"
        );
        // Every dirty gate is queued; a settle that gave up leaves some.
        for gi in self.queue.drain(..).chain(self.slow_queue.drain(..)) {
            self.dirty[gi as usize] = false;
        }
    }

    /// The oracle's current value of `net`.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.0]
    }

    /// All current net values, indexed by net id.
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// Mark every gate dirty, forcing a full re-evaluation on the next
    /// [`ZeroDelayOracle::settle`] — used to reach a consistent state from
    /// scratch instead of from a loaded simulator snapshot.
    pub fn invalidate_all(&mut self) {
        for gi in 0..self.dirty.len() {
            self.enqueue(gi);
        }
    }

    /// Drive `net` to `value`, marking its readers dirty.
    pub fn set(&mut self, net: NetId, value: bool) {
        if self.values[net.0] != value {
            self.assign(net.0, value);
        }
    }

    /// Commit a changed `value` to `net`: update its readers' counters and
    /// mark them dirty.
    fn assign(&mut self, net: usize, value: bool) {
        self.values[net] = value;
        for &(gi, mult) in self.fanout.reader_row(net) {
            let gi = gi as usize;
            if value {
                self.true_counts[gi] += mult;
            } else {
                self.true_counts[gi] -= mult;
            }
            self.enqueue(gi);
        }
    }

    fn enqueue(&mut self, gi: usize) {
        if !self.dirty[gi] {
            self.dirty[gi] = true;
            if self.slow[gi] {
                self.slow_queue.push(gi as u32);
            } else {
                self.queue.push_back(gi as u32);
            }
        }
    }

    /// Gate `gi`'s value and its output net, from the gate's record.
    fn eval(&self, gi: usize) -> (bool, usize) {
        let record = self.fanout.record(gi);
        let value = record.value(self.true_counts[gi], &self.values);
        (value, record.output as usize)
    }

    /// Propagate until no gate is dirty: settle the fast gates, then let
    /// every dirty slow gate sample the settled values and update together,
    /// and repeat.
    ///
    /// # Errors
    ///
    /// Returns the output net of a still-changing gate if the step bound is
    /// hit (the logic is unstable at zero delay).
    pub fn settle(&mut self) -> Result<(), NetId> {
        let mut steps = 0usize;
        loop {
            while let Some(gi) = self.queue.pop_front() {
                let gi = gi as usize;
                self.dirty[gi] = false;
                let (new_val, out) = self.eval(gi);
                if self.values[out] != new_val {
                    steps += 1;
                    if steps > self.step_bound {
                        return Err(NetId(out));
                    }
                    self.assign(out, new_val);
                }
            }
            if self.slow_queue.is_empty() {
                return Ok(());
            }
            std::mem::swap(&mut self.slow_queue, &mut self.slow_round);
            self.slow_updates.clear();
            for k in 0..self.slow_round.len() {
                let gi = self.slow_round[k] as usize;
                self.dirty[gi] = false;
                let (new_val, out) = self.eval(gi);
                if self.values[out] != new_val {
                    self.slow_updates.push((out, new_val));
                }
            }
            self.slow_round.clear();
            for k in 0..self.slow_updates.len() {
                let (out, new_val) = self.slow_updates[k];
                steps += 1;
                if steps > self.step_bound {
                    return Err(NetId(out));
                }
                self.assign(out, new_val);
            }
        }
    }
}

/// What the differential oracle concluded about one trial step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleVerdict {
    /// The simulator's settled values match the zero-delay fixpoint on every
    /// combinationally driven net.
    Agreed,
    /// A net settled differently than the zero-delay fixpoint predicts.
    Disagreed {
        /// The first differing net (lowest id).
        net: NetId,
    },
    /// The oracle found no zero-delay fixpoint for this input change.
    Unstable {
        /// A net still changing when the oracle gave up.
        net: NetId,
    },
    /// No comparison was made (oracle disabled, or the simulator erred).
    Skipped,
}

/// Timing window and verdicts of one input-change step of a trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// Transitions at or after this time belong to the step (`t0`).
    pub start_time: u64,
    /// Simulation time when the circuit went quiet (or the run gave up).
    pub end_time: u64,
    /// The simulator error, if the step did not settle.
    pub error: Option<SimError>,
    /// Differential verdict against the zero-delay oracle.
    pub oracle: OracleVerdict,
}

impl StepOutcome {
    /// `true` if the step settled and the oracle (if consulted) agreed.
    pub fn is_clean(&self) -> bool {
        self.error.is_none() && !matches!(self.oracle, OracleVerdict::Disagreed { .. })
    }
}

/// The per-worker step memo: what a campaign step computes from its start
/// state, kept across the harnesses of one campaign worker.
///
/// A campaign worker steps every transition once per delay assignment,
/// nearly always from the same start state, and three parts of a step
/// depend on the delays little or not at all once that state is fixed:
///
/// * the initialization ([`Simulator::initialize_consistent`]), whose
///   Gauss–Seidel rounds read only the net values and the stale set;
/// * the zero-delay oracle's prediction, which reads only the state the
///   initialization leaves and the input change;
/// * the event loop's run, which under delays that are all multiples of
///   one unit is the same run at every unit ([`Harness::step`]).
///
/// So the memo keeps one entry per step key (a campaign passes the
/// transition index), in flat arrays of words that pack one bit per net or
/// gate: the initialization's start values, start stale set, visited gates
/// and end values, and the oracle's settled values; beside them, the net the
/// oracle found unstable, if any, and the key's fixed nets and input change.
/// The initialization's end values are the step's start state, the one the
/// prediction was computed from.
///
/// A record serves only a start state equal to the stored one on every net
/// but the flip-flop outputs that no gate reads or drives, and an
/// initialization only with an equal stale set and the same fixed nets and
/// values. Those outputs matter to neither: the rounds write them only when
/// they are held, which a replay repeats, and a prediction carries them
/// through unchanged and the settled comparison skips them. A prediction
/// serves only the input change (nets and values) it was made for. A failed
/// initialization is never recorded, and any other start state, fixed nets
/// or input change runs the rounds or the oracle and overwrites the entry,
/// so every simulator state and every verdict is the one the rounds and a
/// freshly loaded oracle give.
///
/// Runs are recorded per key too, for the simulators of one delay
/// signature: the memo adopts that of the first simulator whose delays are
/// all multiples of its smallest gate delay, and a simulator with another
/// signature neither reads nor writes them. A run is recorded and replayed
/// only right after an initialization under its key, so the entry pins the
/// run's start state: the step start values, every gate's pending value at
/// its output's value, and the drivers of the fixed nets as the stale set
/// (debug builds check all three). The unread flip-flop outputs, which the
/// entry does not match, are kept beside the start values for the runs.
/// Per pattern of input offsets, the record of a successful run sits in
/// flat arenas: the nets it flipped, the pending values it flipped unless
/// they are those of the flipped nets' drivers, and the gates it made stale
/// if any; its monitored waveform points and its last event as times after
/// the earliest input event, with the unit it ran under; and its event
/// count. Other start values (unread flip-flop outputs included), fixed
/// nets or input change drop the key's records, which stay in the arenas
/// until the memo is dropped, and a failed run is never recorded.
///
/// The memo serves one netlist and one set of slow gates; a harness that
/// brings another clears it.
#[derive(Debug, Default)]
pub struct StepMemo<'a> {
    /// The oracle that fills predictions.
    oracle: Option<ZeroDelayOracle<'a>>,
    /// Words per packed state (one bit per net) and per gate set.
    words: usize,
    gate_words: usize,
    /// The nets a start state must match on, and the others: the flip-flop
    /// outputs that no gate reads or drives.
    key_mask: Vec<u64>,
    unread: Vec<usize>,
    /// The nets the settled comparison checks: all but flip-flop outputs.
    compare_mask: Vec<u64>,
    /// Per key: whether the entry records an initialization.
    recorded: Vec<bool>,
    /// Per key: the oracle's result from the step start state, once filled.
    predictions: Vec<Option<Result<(), NetId>>>,
    /// Per key, one packed state or gate set each: the initialization's
    /// start values, start stale set and visited gates, the step's start
    /// state (the initialization's end values, with the unread flip-flop
    /// outputs its runs start from) and the settled state.
    init_starts: Vec<u64>,
    stales: Vec<u64>,
    visited: Vec<u64>,
    starts: Vec<u64>,
    settled: Vec<u64>,
    /// Per key: its fixed nets and its input change's nets, in `pairs`.
    fixed: Vec<Span>,
    change: Vec<Span>,
    pairs: Vec<(u32, bool)>,
    /// The delay signature whose runs the memo records, once adopted.
    signature: Option<DelaySignature>,
    /// Per key: its latest run record, or `NONE`; each links to the key's
    /// previous one.
    heads: Vec<u32>,
    records: Vec<RunRecord>,
    /// The records' masks, waveform points and input offsets.
    masks: Vec<u64>,
    points: Vec<Point>,
    offsets: Vec<u32>,
    /// The simulator's packed state, scratch of each step, and that of a
    /// simulated run: its start and its end (values, pending values, stale
    /// set), its input offsets, its waveform lengths and event count before
    /// the run, and the drivers of the nets it flipped.
    packed: Vec<u64>,
    run_start: Vec<u64>,
    run_end: Vec<u64>,
    run_offsets: Vec<u32>,
    wave_lens: Vec<usize>,
    events_before: u64,
    drivers: Vec<u64>,
    /// Initializations that ran their rounds, predictions computed and
    /// steps that ran the event loop.
    init_fills: u64,
    oracle_fills: u64,
    step_fills: u64,
}

/// The end of a key's run records.
const NONE: u32 = u32::MAX;

/// A key's `(net, value)` pairs in [`StepMemo`]'s `pairs`, with room for
/// `cap` of them.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: usize,
    len: usize,
    cap: usize,
}

impl Span {
    /// `true` when the span holds exactly `items`.
    fn holds(
        self,
        pairs: &[(u32, bool)],
        items: impl ExactSizeIterator<Item = (NetId, bool)>,
    ) -> bool {
        let items = items.map(|(net, value)| (net.0 as u32, value));
        self.len == items.len() && pairs[self.start..][..self.len].iter().copied().eq(items)
    }

    /// Store `items`, moving to the end of `pairs` when they do not fit.
    fn put(
        &mut self,
        pairs: &mut Vec<(u32, bool)>,
        items: impl ExactSizeIterator<Item = (NetId, bool)>,
    ) {
        if items.len() > self.cap {
            self.start = pairs.len();
            self.cap = items.len();
            pairs.resize(self.start + self.cap, (0, false));
        }
        self.len = items.len();
        for (pair, (net, value)) in pairs[self.start..].iter_mut().zip(items) {
            *pair = (net.0 as u32, value);
        }
    }
}

/// One recorded run, its variable parts in the memo's arenas, which it
/// indexes with `u32` (48 bytes a record).
#[derive(Debug, Clone, Copy)]
struct RunRecord {
    /// The key's previous record, or `NONE`.
    next: u32,
    /// Its input offsets, one per change, start at `offsets[offsets_at]`.
    offsets_at: u32,
    /// From `masks[masks_at]`: the nets it flipped, then the pending values
    /// it flipped if `own_pending` (otherwise those of the flipped nets'
    /// drivers), then the gates it made stale if `adds_stale`.
    masks_at: u32,
    own_pending: bool,
    adds_stale: bool,
    /// Its monitored waveform points, `points[points_at..][..point_count]`.
    points_at: u32,
    point_count: u32,
    /// The time of its last event after its earliest input event, and the
    /// unit of the delays it ran under.
    last: u32,
    unit: u64,
    /// Events processed.
    events: u64,
}

/// A waveform point of a recorded run, at `after` its earliest input event.
#[derive(Debug, Clone, Copy)]
struct Point {
    net: u32,
    after: u32,
    value: bool,
}

/// The time frame of one run: its earliest input event is due at `base`,
/// and every delay is a multiple of `unit`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    base: u64,
    unit: u64,
}

impl Frame {
    /// The time of an event recorded `after` the earliest input event of a
    /// run under delays of `unit`: `m` units and `o < unit` more there, so
    /// `m` of this frame's units and `o` more here.
    fn time(self, after: u32, unit: u64) -> u64 {
        let after = u64::from(after);
        self.base + after % unit + after / unit * self.unit
    }
}

impl<'a> StepMemo<'a> {
    /// A memo with room for the keys `0..keys` once it knows the netlist, so
    /// its arrays are allocated once.
    pub fn with_capacity(keys: usize) -> Self {
        StepMemo {
            recorded: Vec::with_capacity(keys),
            ..StepMemo::default()
        }
    }

    /// How many initializations ran their rounds: one for every
    /// initialization the memo could not replay, failed ones included.
    pub fn init_fills(&self) -> u64 {
        self.init_fills
    }

    /// How many predictions the oracle has computed: one for every step the
    /// memo could not serve.
    pub fn oracle_fills(&self) -> u64 {
        self.oracle_fills
    }

    /// How many steps ran the event loop: one for every step whose run the
    /// memo could not replay, failed ones included.
    pub fn step_fills(&self) -> u64 {
        self.step_fills
    }

    /// Serve the simulators of `sim`'s netlist and slow gates, starting over
    /// if the memo served others.
    fn bind(&mut self, sim: &Simulator<'a>) {
        let netlist = sim.netlist();
        let slow = sim.slow_gates();
        if let Some(oracle) = &self.oracle {
            if std::ptr::eq(oracle.netlist, netlist) && oracle.slow == slow {
                return;
            }
        }
        let fanout = netlist.fanout();
        let dff_q = fanout.dff_q();
        // Neither the rounds nor the oracle read the flip-flop outputs that
        // no gate reads or drives.
        let keyed: Vec<bool> = (0..netlist.num_nets())
            .map(|n| {
                let (start, end) = fanout.row_bounds(n);
                !dff_q[n] || start < end || !fanout.drivers(n).is_empty()
            })
            .collect();
        let compared: Vec<bool> = dff_q.iter().map(|&q| !q).collect();
        self.words = keyed.len().div_ceil(64);
        self.gate_words = netlist.num_gates().div_ceil(64);
        self.key_mask = vec![0; self.words];
        self.compare_mask = vec![0; self.words];
        pack(&keyed, &mut self.key_mask);
        pack(&compared, &mut self.compare_mask);
        self.unread = (0..keyed.len()).filter(|&n| !keyed[n]).collect();
        self.packed = vec![0; self.words];
        let run_words = self.words + 2 * self.gate_words;
        self.run_start = vec![0; run_words];
        self.run_end = vec![0; run_words];
        self.drivers = vec![0; self.gate_words];
        let keys = self.recorded.capacity();
        self.recorded.clear();
        self.predictions.clear();
        self.predictions.reserve_exact(keys);
        for (slots, width) in self.slots() {
            slots.clear();
            slots.reserve_exact(keys * width);
        }
        for spans in [&mut self.fixed, &mut self.change] {
            spans.clear();
            spans.reserve_exact(keys);
        }
        self.heads.clear();
        self.heads.reserve_exact(keys);
        self.pairs.clear();
        self.signature = None;
        self.records.clear();
        self.masks.clear();
        self.points.clear();
        self.offsets.clear();
        self.oracle = Some(ZeroDelayOracle::with_slow_gates(netlist, slow));
    }

    /// Every per-key array of words, with its words per key.
    fn slots(&mut self) -> [(&mut Vec<u64>, usize); 5] {
        let (words, gate_words) = (self.words, self.gate_words);
        [
            (&mut self.init_starts, words),
            (&mut self.stales, gate_words),
            (&mut self.visited, gate_words),
            (&mut self.starts, words),
            (&mut self.settled, words),
        ]
    }

    /// Make room for entry `key`.
    fn grow(&mut self, key: usize) {
        if key >= self.recorded.len() {
            self.recorded.resize(key + 1, false);
            self.predictions.resize(key + 1, None);
            for (slots, width) in self.slots() {
                slots.resize((key + 1) * width, 0);
            }
            self.fixed.resize(key + 1, Span::default());
            self.change.resize(key + 1, Span::default());
            self.heads.resize(key + 1, NONE);
        }
    }

    /// Initialize `sim` with the `fixed` nets held: replay entry `key` if it
    /// records the rounds from this start state with these fixed nets,
    /// otherwise run them and record them under `key`.
    fn initialize(
        &mut self,
        sim: &mut Simulator<'_>,
        key: usize,
        fixed: &[(NetId, bool)],
    ) -> Result<(), SimError> {
        self.grow(key);
        let (words, gate_words) = (self.words, self.gate_words);
        pack(sim.net_values(), &mut self.packed);
        let init_start = slot(&mut self.init_starts, key, words);
        let stale = slot(&mut self.stales, key, gate_words);
        let visited = slot(&mut self.visited, key, gate_words);
        let start = slot(&mut self.starts, key, words);
        if self.recorded[key]
            && *stale == *sim.stale()
            && same(init_start, &self.packed, &self.key_mask)
            && self.fixed[key].holds(&self.pairs, fixed.iter().copied())
        {
            sim.replay_initialization(fixed, init_start, start, &self.key_mask, visited);
            return Ok(());
        }
        self.init_fills += 1;
        self.recorded[key] = false;
        stale.copy_from_slice(sim.stale());
        sim.initialize_visiting(fixed, Some(visited))?;
        init_start.copy_from_slice(&self.packed);
        pack(sim.net_values(), &mut self.packed);
        if !same(start, &self.packed, &self.key_mask) {
            // The step starts from another state now.
            self.predictions[key] = None;
        }
        // The runs start from every value and from the fixed nets' drivers
        // as the stale set.
        let moved =
            *start != *self.packed || !self.fixed[key].holds(&self.pairs, fixed.iter().copied());
        start.copy_from_slice(&self.packed);
        self.fixed[key].put(&mut self.pairs, fixed.iter().copied());
        if moved {
            self.drop_runs(key);
        }
        self.recorded[key] = true;
        Ok(())
    }

    /// Keep entry `key`'s prediction and runs only for the input change
    /// (nets and values) they were made for: for another, drop them and
    /// store `changes` as the key's.
    fn adopt_change(&mut self, key: usize, changes: &[(NetId, bool, u64)]) {
        self.grow(key);
        let pairs = changes.iter().map(|&(net, value, _)| (net, value));
        if !self.change[key].holds(&self.pairs, pairs.clone()) {
            self.predictions[key] = None;
            self.drop_runs(key);
            self.change[key].put(&mut self.pairs, pairs);
        }
    }

    /// Make entry `key` predict `changes` from the state of `sim`: keep the
    /// prediction if it was made from that state, otherwise run the oracle
    /// and overwrite it. `at_start` says that `sim` holds the entry's step
    /// start state, which an initialization under `key` just left, so the
    /// state need not be packed and compared.
    fn predict(
        &mut self,
        sim: &Simulator<'_>,
        key: usize,
        changes: &[(NetId, bool, u64)],
        at_start: bool,
    ) {
        let words = self.words;
        if !at_start {
            pack(sim.net_values(), &mut self.packed);
            let start = slot(&mut self.starts, key, words);
            if !same(start, &self.packed, &self.key_mask) {
                // The recorded initialization no longer ends where the step
                // starts.
                self.recorded[key] = false;
                self.predictions[key] = None;
                start.copy_from_slice(&self.packed);
                self.drop_runs(key);
            }
        }
        if self.predictions[key].is_some() {
            return;
        }
        let oracle = self.oracle.as_mut().expect("bound to a simulator");
        oracle.load(sim);
        for &(net, value, _) in changes {
            oracle.set(net, value);
        }
        let prediction = oracle.settle();
        if prediction.is_ok() {
            pack(oracle.values(), slot(&mut self.settled, key, words));
        }
        self.predictions[key] = Some(prediction);
        self.oracle_fills += 1;
    }

    /// The verdict of entry `key` on a step that settled in `sim`: the net
    /// the oracle found unstable, or else the lowest net, flip-flop outputs
    /// aside, whose settled value differs from the prediction.
    fn verdict(&mut self, sim: &Simulator<'_>, key: usize) -> OracleVerdict {
        if let Some(Err(net)) = self.predictions[key] {
            return OracleVerdict::Unstable { net };
        }
        let words = self.words;
        pack(sim.net_values(), &mut self.packed);
        let settled = &self.settled[key * words..][..words];
        (settled.iter().zip(&self.packed).zip(&self.compare_mask))
            .map(|((s, p), m)| (s ^ p) & m)
            .enumerate()
            .find(|&(_, diff)| diff != 0)
            .map_or(OracleVerdict::Agreed, |(w, diff)| {
                OracleVerdict::Disagreed {
                    net: NetId(w * 64 + diff.trailing_zeros() as usize),
                }
            })
    }

    /// The unit of `sim`'s delays when its runs may read and write the
    /// memo's records: its delay signature is the memo's, which adopts that
    /// of the first simulator whose delays have a unit.
    fn time_unit(&mut self, sim: &Simulator<'_>) -> Option<u64> {
        let (unit, signature) = sim.time_scale()?;
        match &self.signature {
            Some(adopted) if *adopted != signature => None,
            Some(_) => Some(unit),
            None => {
                self.signature = Some(signature);
                Some(unit)
            }
        }
    }

    /// The frame of a run that starts at `now` with `changes` under delays
    /// of `unit`, with its input offsets, when every offset is below the
    /// unit (and fits a `u32`).
    fn frame(&mut self, now: u64, changes: &[(NetId, bool, u64)], unit: u64) -> Option<Frame> {
        let first = changes.iter().map(|&(_, _, delta)| delta.max(1)).min()?;
        self.run_offsets.clear();
        for &(_, _, delta) in changes {
            let offset = u32::try_from(delta.max(1) - first).ok();
            self.run_offsets
                .push(offset.filter(|&o| u64::from(o) < unit)?);
        }
        Some(Frame {
            base: now + first,
            unit,
        })
    }

    /// The record of entry `key` for a run from the state of `sim`, which an
    /// initialization under `key` just left, with the offsets
    /// [`StepMemo::frame`] took, if there is one. Unread flip-flop outputs
    /// other than the key's drop its records; on a miss, the run's start is
    /// noted for [`StepMemo::record`].
    fn find(&mut self, sim: &Simulator<'_>, key: usize) -> Option<usize> {
        debug_assert!(self.holds_step_start(sim, key), "key {key}");
        let start = slot(&mut self.starts, key, self.words);
        let mut moved = false;
        for &net in &self.unread {
            let bit = 1 << (net % 64);
            if (start[net / 64] & bit != 0) != sim.net_values()[net] {
                start[net / 64] ^= bit;
                moved = true;
            }
        }
        if moved {
            self.drop_runs(key);
        }
        let mut r = self.heads[key];
        while r != NONE {
            let record = &self.records[r as usize];
            let offsets = &self.offsets[record.offsets_at as usize..][..self.run_offsets.len()];
            if *offsets == *self.run_offsets {
                return Some(r as usize);
            }
            r = record.next;
        }
        pack_run(sim, self.words, &mut self.run_start);
        self.wave_lens.clear();
        for &net in sim.monitored_nets() {
            self.wave_lens
                .push(sim.waveform(NetId(net)).map_or(0, Vec::len));
        }
        self.events_before = sim.events_processed();
        None
    }

    /// `true` when `sim` holds the step start state of entry `key` as its
    /// initialization leaves it: the start values on every keyed net, every
    /// gate's pending value at its output's value (the rounds reset every
    /// gate they visit, and a drained run leaves the others so), and the
    /// drivers of the fixed nets as the stale set.
    fn holds_step_start(&self, sim: &Simulator<'_>, key: usize) -> bool {
        let mut values = vec![0; self.words];
        pack(sim.net_values(), &mut values);
        let start = &self.starts[key * self.words..][..self.words];
        let mut stale = vec![0; self.gate_words];
        let fixed = self.fixed[key];
        for &(net, _) in &self.pairs[fixed.start..][..fixed.len] {
            for &gi in sim.netlist().fanout().drivers(net as usize) {
                stale[gi as usize / 64] |= 1 << (gi % 64);
            }
        }
        let gates = sim.netlist().gates();
        let outputs = gates.iter().map(|g| sim.net_values()[g.output.0]);
        same(start, &values, &self.key_mask)
            && outputs.eq(sim.pending().iter().copied())
            && *sim.stale() == *stale
    }

    /// Apply record `r` to `sim` in `frame`.
    fn replay(&self, sim: &mut Simulator<'_>, r: usize, frame: Frame) {
        let record = &self.records[r];
        let (changed, mut rest) = self.masks[record.masks_at as usize..].split_at(self.words);
        let pending = record.own_pending.then(|| {
            let (pending, tail) = rest.split_at(self.gate_words);
            rest = tail;
            pending
        });
        let stale = record.adds_stale.then(|| &rest[..self.gate_words]);
        let points = self.points[record.points_at as usize..][..record.point_count as usize]
            .iter()
            .map(|p| (p.net as usize, frame.time(p.after, record.unit), p.value));
        let end = frame.time(record.last, record.unit);
        sim.replay_run(changed, pending, stale, points, record.events, end);
    }

    /// Record under `key` the successful run that `sim` just ended, which
    /// started where [`StepMemo::find`] noted, in `frame`. A record indexes
    /// its arenas and reads its times after the earliest input event as
    /// `u32`, so a run or a memo too large for that is not recorded.
    fn record(&mut self, sim: &Simulator<'_>, key: usize, frame: Frame) {
        let index = |n: usize| u32::try_from(n).ok().filter(|&i| i != NONE);
        let waves = || {
            (sim.monitored_nets().iter().zip(&self.wave_lens)).map(|(&net, &len)| {
                (
                    net,
                    &sim.waveform(NetId(net)).expect("monitored net")[len..],
                )
            })
        };
        let added = waves().map(|(_, points)| points.len()).sum();
        let (Some(id), Some(masks_at), Some(points_at), Some(point_count), Some(offsets_at)) = (
            index(self.records.len()),
            index(self.masks.len()),
            index(self.points.len()),
            index(added),
            index(self.offsets.len()),
        ) else {
            return;
        };
        let Ok(last) = u32::try_from(sim.time() - frame.base) else {
            return;
        };
        // Every event is due at or before the last, so its time fits too.
        for (net, points) in waves() {
            self.points
                .extend(points.iter().map(|&(time, value)| Point {
                    net: net as u32,
                    after: (time - frame.base) as u32,
                    value,
                }));
        }
        let (words, gate_words) = (self.words, self.gate_words);
        let end = &mut self.run_end;
        pack_run(sim, words, end);
        // A run only adds to the stale set, so the XOR is what it added.
        for (e, s) in end.iter_mut().zip(&self.run_start) {
            *e ^= s;
        }
        let (changed, rest) = end.split_at(words);
        let (flipped, added) = rest.split_at(gate_words);
        // The pending values a run flips are most often those of the
        // flipped nets' drivers.
        self.drivers.fill(0);
        let fanout = sim.netlist().fanout();
        for (w, &word) in changed.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                for &gi in fanout.drivers(w * 64 + word.trailing_zeros() as usize) {
                    self.drivers[gi as usize / 64] |= 1 << (gi % 64);
                }
                word &= word - 1;
            }
        }
        let own_pending = *flipped != *self.drivers;
        let adds_stale = added.iter().any(|&w| w != 0);
        self.masks.extend_from_slice(changed);
        if own_pending {
            self.masks.extend_from_slice(flipped);
        }
        if adds_stale {
            self.masks.extend_from_slice(added);
        }
        self.offsets.extend_from_slice(&self.run_offsets);
        self.records.push(RunRecord {
            next: self.heads[key],
            offsets_at,
            masks_at,
            own_pending,
            adds_stale,
            points_at,
            point_count,
            last,
            unit: frame.unit,
            events: sim.events_processed() - self.events_before,
        });
        self.heads[key] = id;
    }

    /// Drop entry `key`'s run records. Their arena parts stay until the
    /// memo is dropped or serves another netlist: a campaign worker's memo
    /// lives for one campaign, whose steps rarely start over.
    fn drop_runs(&mut self, key: usize) {
        self.heads[key] = NONE;
    }
}

/// Entry `key`'s words in `slots`, an array of `width` words per key.
fn slot(slots: &mut [u64], key: usize, width: usize) -> &mut [u64] {
    &mut slots[key * width..][..width]
}

/// Pack the state a run starts or ends in: `sim`'s values in the first
/// `words` words, then its pending values and its stale set.
fn pack_run(sim: &Simulator<'_>, words: usize, into: &mut [u64]) {
    let (values, gates) = into.split_at_mut(words);
    let (pending, stale) = gates.split_at_mut(gates.len() / 2);
    pack(sim.net_values(), values);
    pack(sim.pending(), pending);
    stale.copy_from_slice(sim.stale());
}

/// `true` when the packed states `a` and `b` agree on every net of `mask`.
fn same(a: &[u64], b: &[u64], mask: &[u64]) -> bool {
    (a.iter().zip(b).zip(mask)).all(|((a, b), m)| (a ^ b) & m == 0)
}

/// Pack `values` one bit per net: net `n` is bit `n % 64` of word `n / 64`.
///
/// Eight nets take one multiply. A `bool` is the byte 0 or 1, so eight of
/// them read as one little-endian word hold net `i`'s value in bit `8 * i`,
/// and multiplying by `0x0102_0408_1020_4080` adds that bit into bit
/// `56 + i`. The partial products never share a bit, so nothing carries.
fn pack(values: &[bool], words: &mut [u64]) {
    for (word, chunk) in words.iter_mut().zip(values.chunks(64)) {
        let full = chunk.len() - chunk.len() % 8;
        let mut packed = 0;
        for i in (0..full).step_by(8) {
            let e = &chunk[i..i + 8];
            let bytes = [e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7]].map(u8::from);
            packed |= u64::from_le_bytes(bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56 << i;
        }
        for (i, &v) in chunk.iter().enumerate().skip(full) {
            packed |= u64::from(v) << i;
        }
        *word = packed;
    }
}

/// A simulator plus the worker's step memo, driven step by step.
///
/// The harness owns the per-trial mechanics shared by every campaign:
/// initialize the simulator to each step's source state, get the zero-delay
/// prediction of the input change from the state the initialization left,
/// apply the change, run the simulator to quiescence, and compare settled
/// values on every combinationally driven net. The initializations, the
/// predictions and the runs come from a [`StepMemo`] the harness borrows,
/// so they outlive it: a campaign worker lends one memo to the harness of
/// each delay assignment in turn, and an initialization or a prediction the
/// memo recorded under a delay assignment serves the later ones, and a run
/// those of the same delay signature at any time scale.
#[derive(Debug)]
pub struct Harness<'a, 'm> {
    sim: Simulator<'a>,
    memo: &'m mut StepMemo<'a>,
    /// Whether steps are checked against the zero-delay oracle.
    oracle: bool,
    /// The key of the last initialization while the simulator holds the
    /// state it left, which is that entry's step start state.
    initialized: Option<usize>,
    /// The unit of the simulator's delays when its runs may replay the
    /// memo's records.
    unit: Option<u64>,
}

impl<'a, 'm> Harness<'a, 'm> {
    /// Wrap a built simulator and the memo that records its steps; `oracle`
    /// enables the differential check against the zero-delay oracle.
    pub fn new(sim: Simulator<'a>, memo: &'m mut StepMemo<'a>, oracle: bool) -> Self {
        memo.bind(&sim);
        let unit = memo.time_unit(&sim);
        Harness {
            sim,
            memo,
            oracle,
            initialized: None,
            unit,
        }
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &Simulator<'a> {
        &self.sim
    }

    /// Establish a consistent initial condition with the `fixed` nets held
    /// ([`Simulator::initialize_consistent`]) and run to quiescence. The
    /// memo replays the initialization recorded under `key`, the step's name
    /// for this set of fixed nets, when it starts from the same state with
    /// the same fixed nets and values.
    ///
    /// # Errors
    ///
    /// Propagates initialization and budget errors from the simulator.
    pub fn init(&mut self, key: usize, fixed: &[(NetId, bool)]) -> Result<u64, SimError> {
        self.initialized = None;
        self.memo.initialize(&mut self.sim, key, fixed)?;
        let events = self.sim.events_processed();
        let quiet = self.sim.run_until_quiet()?;
        if self.sim.events_processed() == events {
            self.initialized = Some(key);
        }
        Ok(quiet)
    }

    /// Apply one input-change step: each `(net, value, delta)` is scheduled
    /// `delta` time units from now (skewed multiple-input changes use
    /// distinct deltas), the simulator runs to quiescence, and the settled
    /// state is compared against the zero-delay fixpoint that the memo holds
    /// under `key`, the step's name for this input change.
    ///
    /// The memo serves the prediction when the step starts from the state it
    /// was computed from with the same input nets and values. Right after an
    /// initialization under the same key the simulator holds that entry's
    /// start state, so nothing is compared before the step; otherwise the
    /// start state is packed and compared word by word. On a miss the oracle
    /// starts from the simulator's committed values and true-input counters
    /// ([`ZeroDelayOracle::load`]) and costs only the gates the change
    /// reaches. The settled state is packed and compared word by word.
    ///
    /// The memo replays the run itself when the step starts right after an
    /// initialization under `key`, the simulator's delay signature is the
    /// memo's, and every input is due less than one unit (the smallest gate
    /// delay) after the earliest: a run recorded from an equal start state
    /// with the same input offsets is the same run at another time scale
    /// (see the module docs). The replay writes what the run wrote (values
    /// with their readers' counters, pending values, stale gates, waveform
    /// points at their rescaled times, the event count and the end time)
    /// without scheduling an event. Otherwise the simulator runs, and a
    /// successful run under those conditions is recorded.
    pub fn step(&mut self, key: usize, changes: &[(NetId, bool, u64)]) -> StepOutcome {
        let start_time = self.sim.time() + 1;
        let at_start = self.initialized.take() == Some(key);
        self.memo.adopt_change(key, changes);
        // Predict the fixpoint from the pre-step committed state.
        if self.oracle {
            self.memo.predict(&self.sim, key, changes, at_start);
        }
        let frame = match self.unit {
            Some(unit) if at_start => self.memo.frame(self.sim.time(), changes, unit),
            _ => None,
        };
        let record = frame.and_then(|_| self.memo.find(&self.sim, key));
        let (end_time, error) = match (frame, record) {
            (Some(frame), Some(r)) => {
                self.memo.replay(&mut self.sim, r, frame);
                (self.sim.time(), None)
            }
            _ => {
                self.memo.step_fills += 1;
                for &(net, value, delta) in changes {
                    self.sim.schedule_input(net, value, delta.max(1));
                }
                match self.sim.run_until_quiet() {
                    Ok(t) => {
                        if let Some(frame) = frame {
                            self.memo.record(&self.sim, key, frame);
                        }
                        (t, None)
                    }
                    Err(e) => (self.sim.time(), Some(e)),
                }
            }
        };
        let oracle = if self.oracle && error.is_none() {
            self.memo.verdict(&self.sim, key)
        } else {
            OracleVerdict::Skipped
        };
        StepOutcome {
            start_time,
            end_time,
            error,
            oracle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayStyle, GateKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_eq!(a, derive_seed(1, 0));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sweep_round_robins_styles() {
        let sweep = DelaySweep { min: 2, max: 7 };
        assert_eq!(sweep.model_for_trial(9, 0), DelayModel::Unit);
        assert_eq!(sweep.model_for_trial(9, 1), DelayModel::Fixed(2));
        assert_eq!(sweep.model_for_trial(9, 2), DelayModel::Fixed(7));
        assert!(matches!(
            sweep.model_for_trial(9, 3),
            DelayModel::Random { min: 2, max: 7, .. }
        ));
        assert_eq!(sweep.model_for_trial(9, 4), DelayModel::Unit);
        // Random trials with different indices draw different seeds.
        assert_ne!(sweep.model_for_trial(9, 3), sweep.model_for_trial(9, 7));
        // ... but the same (seed, trial) is stable.
        assert_eq!(sweep.model_for_trial(9, 3), sweep.model_for_trial(9, 3));
    }

    #[test]
    fn oracle_settles_combinational_logic() {
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let b = nl.add_primary_input("b");
        let na = nl.add_net("na");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Not, vec![a], na);
        nl.add_gate(GateKind::And, vec![na, b], y);
        let mut oracle = ZeroDelayOracle::new(&nl);
        oracle.invalidate_all(); // consistent state from scratch
        oracle.set(b, true);
        oracle.settle().unwrap();
        assert!(oracle.value(y), "!a & b with a=0, b=1");
        oracle.set(a, true);
        oracle.settle().unwrap();
        assert!(!oracle.value(y));
    }

    #[test]
    fn oracle_reports_zero_delay_instability() {
        let mut nl = Netlist::new();
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_gate(GateKind::Not, vec![a], b);
        nl.add_gate(GateKind::Buf, vec![b], a);
        let mut oracle = ZeroDelayOracle::new(&nl);
        oracle.invalidate_all();
        oracle.set(a, true); // kick the loop
        assert!(oracle.settle().is_err());
    }

    /// A set latch `Y = p | y` fed by the static-1 hazard `p = a & !a`,
    /// closed through the feedback buffer `y = Y` (gate 3).
    fn hazard_fed_latch() -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let na = nl.add_net("na");
        let p = nl.add_net("p");
        let big_y = nl.add_net("Y");
        let y = nl.add_net("y");
        // The AND precedes the NOT, so the oracle sees the new `a` with the
        // old `na` first: a transient `p = 1`.
        nl.add_gate(GateKind::And, vec![a, na], p);
        nl.add_gate(GateKind::Not, vec![a], na);
        nl.add_gate(GateKind::Or, vec![p, y], big_y);
        nl.add_gate(GateKind::Buf, vec![big_y], y);
        (nl, a, y)
    }

    #[test]
    fn oracle_holds_slow_feedback_until_the_logic_settles() {
        let (nl, a, y) = hazard_fed_latch();
        let mut latched = ZeroDelayOracle::new(&nl);
        let slow = vec![false, false, false, true];
        let mut held = ZeroDelayOracle::with_slow_gates(&nl, slow);
        for oracle in [&mut latched, &mut held] {
            oracle.invalidate_all();
            oracle.settle().unwrap();
            assert!(!oracle.value(y));
            oracle.set(a, true);
            oracle.settle().unwrap();
        }
        // Evaluated as fast as the logic, the feedback latches the transient.
        assert!(latched.value(y));
        // Held until the logic settles, it samples the settled `Y = 0`.
        assert!(!held.value(y));
    }

    #[test]
    fn harness_oracle_respects_the_loop_delay() {
        let (nl, a, y) = hazard_fed_latch();
        let sim = Simulator::builder(&nl)
            .delay_model(DelayModel::Fixed(1))
            .style(DelayStyle::Inertial)
            .gate_delay(3, 20)
            .event_budget(1_000)
            .build();
        let mut memo = StepMemo::default();
        let mut harness = Harness::new(sim, &mut memo, true);
        harness.init(0, &[(a, false)]).unwrap();
        let outcome = harness.step(0, &[(a, true, 1)]);
        assert_eq!(outcome.oracle, OracleVerdict::Agreed);
        assert!(!harness.sim().value(y));
    }

    #[test]
    fn harness_step_agrees_on_hazardous_but_convergent_logic() {
        // a AND !a glitches under skewed delays but settles to 0 — the
        // oracle and simulator agree on the settled state.
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let na = nl.add_net("na");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Not, vec![a], na);
        nl.add_gate(GateKind::And, vec![a, na], y);
        let sim = Simulator::builder(&nl)
            .delay_model(DelayModel::Fixed(3))
            .style(DelayStyle::Transport)
            .event_budget(1_000)
            .monitor(y)
            .build();
        let mut memo = StepMemo::default();
        let mut harness = Harness::new(sim, &mut memo, true);
        harness.init(0, &[(a, false)]).unwrap();
        let outcome = harness.step(0, &[(a, true, 1)]);
        assert!(outcome.is_clean(), "outcome {outcome:?}");
        assert_eq!(outcome.oracle, OracleVerdict::Agreed);
        assert!(!harness.sim().value(y));
        // The glitch is still visible in the waveform.
        let wave = harness.sim().waveform(y).unwrap();
        let changes = wave.windows(2).filter(|w| w[0].1 != w[1].1).count();
        assert!(changes >= 2, "glitch recorded: {wave:?}");
    }

    /// A random netlist for the differential test of step verdicts, with its
    /// slow gates and its inputs. Random gates over four inputs and a few
    /// internal nets make cyclic logic, duplicated inputs and nets with
    /// several drivers; some of them are slow feedback gates. Fixed gadgets
    /// make every verdict occur:
    ///
    /// * the latch `q = NOR(x, qb)`, `qb = NOR(x, q)`, released by one input:
    ///   the oracle sets `q`, and a simulator whose `qb` gate is faster
    ///   settles the other way;
    /// * two slow cross-coupled NORs released by one input: the oracle's
    ///   simultaneous slow rounds never settle, while an inertial simulator
    ///   settles on the faster gate;
    /// * two flip-flops clocked and fed through racing gates, so what they
    ///   capture depends on the delays. The random gates and an AND with an
    ///   input read one `q`; no gate reads or drives the other.
    fn verdict_netlist(rng: &mut StdRng) -> (Netlist, Vec<usize>, Vec<NetId>) {
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
        let inputs: Vec<NetId> = (0..4)
            .map(|i| nl.add_primary_input(format!("x{i}")))
            .collect();
        let input = |rng: &mut StdRng| inputs[rng.gen_range(0..inputs.len())];
        let internal: Vec<NetId> = (0..rng.gen_range(2..7usize))
            .map(|i| nl.add_net(format!("n{i}")))
            .collect();
        let (q, qb) = (nl.add_net("q"), nl.add_net("qb"));
        let x = input(rng);
        nl.add_gate(GateKind::Nor, vec![x, qb], q);
        nl.add_gate(GateKind::Nor, vec![x, q], qb);
        let (u, ub) = (nl.add_net("u"), nl.add_net("ub"));
        let x = input(rng);
        let mut slow = vec![
            nl.add_gate(GateKind::Nor, vec![x, ub], u),
            nl.add_gate(GateKind::Nor, vec![x, u], ub),
        ];
        let mut unread = NetId(0);
        for read in [true, false] {
            let (clock, data, q) = (nl.add_net("c"), nl.add_net("d"), nl.add_net("ff"));
            nl.add_gate(GateKind::Buf, vec![input(rng)], clock);
            nl.add_gate(GateKind::Not, vec![input(rng)], data);
            nl.add_dff(clock, data, q);
            if read {
                let r = nl.add_net("r");
                nl.add_gate(GateKind::And, vec![q, input(rng)], r);
            } else {
                unread = q;
            }
        }
        let readable: Vec<NetId> = (0..nl.num_nets())
            .map(NetId)
            .filter(|&n| n != unread)
            .collect();
        for g in 0..rng.gen_range(1..internal.len() + 4) {
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let fanin: Vec<NetId> = (0..rng.gen_range(1..4usize))
                .map(|_| readable[rng.gen_range(0..readable.len())])
                .collect();
            let gi = nl.add_gate(kind, fanin, internal[g % internal.len()]);
            if rng.gen_bool(0.15) {
                slow.push(gi);
            }
        }
        (nl, slow, inputs)
    }

    /// A fresh oracle's prediction for `changes` from the state of `sim`.
    fn fresh_prediction<'a>(
        sim: &Simulator<'a>,
        changes: &[(NetId, bool, u64)],
    ) -> (ZeroDelayOracle<'a>, Result<(), NetId>) {
        let mut oracle = ZeroDelayOracle::with_slow_gates(sim.netlist(), sim.slow_gates());
        oracle.load(sim);
        for &(net, value, _) in changes {
            oracle.set(net, value);
        }
        let settled = oracle.settle();
        (oracle, settled)
    }

    /// The verdict on a step that `fresh_prediction` predicted and that
    /// ended in `sim` with `error`.
    fn fresh_verdict(
        (oracle, settled): (ZeroDelayOracle<'_>, Result<(), NetId>),
        sim: &Simulator<'_>,
        error: Option<&SimError>,
    ) -> OracleVerdict {
        let netlist = sim.netlist();
        match (settled, error) {
            (_, Some(_)) => OracleVerdict::Skipped,
            (Err(net), None) => OracleVerdict::Unstable { net },
            (Ok(()), None) => {
                let is_q = |n: usize| netlist.dffs().iter().any(|dff| dff.q.0 == n);
                (0..netlist.num_nets())
                    .find(|&n| oracle.values()[n] != sim.net_values()[n] && !is_q(n))
                    .map_or(OracleVerdict::Agreed, |n| OracleVerdict::Disagreed {
                        net: NetId(n),
                    })
            }
        }
    }

    /// Every step verdict equals that of a fresh oracle loaded from the
    /// simulator state the step started from, while one memo serves all the
    /// simulators of a netlist. Each random netlist replays one input
    /// sequence under several delay models and both delay styles,
    /// initializing before each step and rebuilding the harness after a
    /// failed initialization or step, as campaigns do.
    #[test]
    fn step_verdicts_match_a_fresh_oracle() {
        let mut rng = StdRng::seed_from_u64(0x0AC1_E5EE);
        // Verdicts seen, and served from the memo, per kind.
        let (mut seen, mut served) = ([0usize; 4], [0usize; 4]);
        // Served steps whose start state differs from the stored one.
        let mut served_unread_q = 0;
        for case in 0..120 {
            let (nl, slow, inputs) = verdict_netlist(&mut rng);
            let unread_q = |n: usize| {
                nl.dffs().iter().any(|dff| dff.q.0 == n)
                    && (nl.gates().iter()).all(|g| g.output.0 != n && !g.inputs.contains(&NetId(n)))
            };
            // Per step: the inputs held by the initialization, and the change.
            let steps: Vec<_> = (0..10)
                .map(|_| {
                    let from: Vec<bool> = inputs.iter().map(|_| rng.gen_bool(0.5)).collect();
                    let flips = rng.gen_range(1..16usize);
                    let changes: Vec<(NetId, bool, u64)> = (0..inputs.len())
                        .filter(|&i| flips >> i & 1 == 1)
                        .map(|i| (inputs[i], !from[i], rng.gen_range(1..3u64)))
                        .collect();
                    let fixed: Vec<(NetId, bool)> = inputs.iter().copied().zip(from).collect();
                    (fixed, changes)
                })
                .collect();
            let mut models = vec![DelayModel::Unit, DelayModel::Fixed(2), DelayModel::Fixed(4)];
            models.extend((0..3).map(|_| DelayModel::Random {
                min: 1,
                max: 4,
                seed: rng.next_u64(),
            }));
            let mut memo = StepMemo::default();
            // Per step: the start state its memo entry was filled from.
            let mut filled_from: Vec<Vec<bool>> = vec![Vec::new(); steps.len()];
            for model in &models {
                for style in [DelayStyle::Transport, DelayStyle::Inertial] {
                    let build = || {
                        let mut builder = Simulator::builder(&nl)
                            .delay_model(model.clone())
                            .style(style)
                            .event_budget(400);
                        for (k, &gi) in slow.iter().enumerate() {
                            builder = builder.gate_delay(gi, 30 + 2 * k as u64);
                        }
                        builder.build()
                    };
                    let mut harness = Harness::new(build(), &mut memo, true);
                    for (step, (fixed, changes)) in steps.iter().enumerate() {
                        let at = format!("case {case} {model:?} {style:?} step {step}");
                        if harness.init(step, fixed).is_err() {
                            harness = Harness::new(build(), &mut memo, true);
                            continue;
                        }
                        let start = harness.sim().net_values().to_vec();
                        let fills = harness.memo.oracle_fills;
                        let prediction = fresh_prediction(harness.sim(), changes);
                        let outcome = harness.step(step, changes);
                        let expected =
                            fresh_verdict(prediction, harness.sim(), outcome.error.as_ref());
                        assert_eq!(outcome.oracle, expected, "{at}");
                        let kind = match expected {
                            OracleVerdict::Agreed => 0,
                            OracleVerdict::Disagreed { .. } => 1,
                            OracleVerdict::Unstable { .. } => 2,
                            OracleVerdict::Skipped => 3,
                        };
                        seen[kind] += 1;
                        if harness.memo.oracle_fills == fills {
                            // Served: the start state differs from the stored
                            // one on unread flip-flop outputs only.
                            let differ: Vec<usize> = (0..start.len())
                                .filter(|&n| start[n] != filled_from[step][n])
                                .collect();
                            assert!(differ.iter().all(|&n| unread_q(n)), "{at}: {differ:?}");
                            served[kind] += 1;
                            served_unread_q += usize::from(!differ.is_empty());
                        } else {
                            filled_from[step] = start;
                        }
                        if outcome.error.is_some() {
                            harness = Harness::new(build(), &mut memo, true);
                        }
                    }
                }
            }
        }
        // Every verdict occurs, and the memo serves each kind.
        assert!(seen.iter().all(|&n| n > 400), "{seen:?}");
        assert!(served.iter().all(|&n| n > 300), "{served:?}");
        assert!(served_unread_q > 300, "{served_unread_q}");
    }

    /// Every initialization the memo replays leaves the simulator as the
    /// rounds leave a twin simulator driven through the same history:
    /// values, true-input counters, pending states, the stale set, queued
    /// events, time and waveforms. Each random netlist (cyclic logic, nets
    /// with several drivers, read and unread flip-flops, slow gates) steps
    /// a few keys in order under several delay models, both delay styles,
    /// event budgets that some runs exhaust, and the oracle on and off, as
    /// campaigns do. A key holds the inputs and sometimes one more net, and
    /// its change may carry an external event on a gate-driven net. After a
    /// failed initialization or step, the harness and its twin are rebuilt
    /// or go on, by a coin flip, so replays also start on fresh simulators.
    #[test]
    fn replayed_initializations_match_the_rounds() {
        let mut rng = StdRng::seed_from_u64(0x1E1A_11CE);
        // Replays, those on a fresh simulator, failed inits, failed steps.
        let (mut replays, mut fresh, mut failed, mut aborted) = (0, 0, 0, 0);
        for case in 0..150 {
            let (nl, slow, inputs) = verdict_netlist(&mut rng);
            let nets = nl.num_nets();
            let keys: Vec<_> = (0..6)
                .map(|_| {
                    let mut fixed: Vec<(NetId, bool)> =
                        inputs.iter().map(|&x| (x, rng.gen_bool(0.5))).collect();
                    if rng.gen_bool(0.3) {
                        fixed.push((NetId(rng.gen_range(0..nets)), rng.gen_bool(0.5)));
                    }
                    let flips = rng.gen_range(1..16usize);
                    let mut changes: Vec<(NetId, bool, u64)> = (0..inputs.len())
                        .filter(|&i| flips >> i & 1 == 1)
                        .map(|i| (inputs[i], !fixed[i].1, rng.gen_range(1..3u64)))
                        .collect();
                    if rng.gen_bool(0.2) {
                        let net = NetId(rng.gen_range(inputs.len()..nets));
                        changes.push((net, rng.gen_bool(0.5), rng.gen_range(1..4u64)));
                    }
                    (fixed, changes)
                })
                .collect();
            let mut models = vec![DelayModel::Unit, DelayModel::Fixed(3)];
            models.extend((0..2).map(|_| DelayModel::Random {
                min: 1,
                max: 4,
                seed: rng.next_u64(),
            }));
            let mut memo = StepMemo::default();
            for model in &models {
                for style in [DelayStyle::Transport, DelayStyle::Inertial] {
                    let mut builder = Simulator::builder(&nl)
                        .delay_model(model.clone())
                        .style(style)
                        .event_budget(rng.gen_range(8..300usize));
                    for (k, &gi) in slow.iter().enumerate() {
                        builder = builder.gate_delay(gi, 30 + 2 * k as u64);
                    }
                    for net in 0..nets {
                        if rng.gen_bool(0.3) {
                            builder = builder.monitor(NetId(net));
                        }
                    }
                    let oracle = rng.gen_bool(0.5);
                    let mut harness = Harness::new(builder.clone().build(), &mut memo, oracle);
                    let mut twin = builder.clone().build();
                    let mut is_fresh = true;
                    for (key, (fixed, changes)) in keys.iter().enumerate() {
                        let at = format!("case {case} {model:?} {style:?} key {key}");
                        let fills = harness.memo.init_fills;
                        let result = harness.init(key, fixed);
                        let expected = twin
                            .initialize_consistent(fixed)
                            .and_then(|()| twin.run_until_quiet());
                        assert_eq!(result, expected, "{at}: init");
                        harness.sim.assert_same_state(&twin, &at);
                        assert_eq!(harness.sim.stale(), twin.stale(), "{at}: stale set");
                        if harness.memo.init_fills == fills {
                            replays += 1;
                            fresh += usize::from(is_fresh);
                        }
                        is_fresh = false;
                        let mut rebuild = result.is_err();
                        failed += usize::from(rebuild);
                        if !rebuild {
                            let outcome = harness.step(key, changes);
                            for &(net, value, delta) in changes {
                                twin.schedule_input(net, value, delta.max(1));
                            }
                            let expected = twin.run_until_quiet().err();
                            assert_eq!(outcome.error, expected, "{at}: step");
                            harness.sim.assert_same_state(&twin, &at);
                            rebuild = outcome.error.is_some();
                            aborted += usize::from(rebuild);
                        }
                        if rebuild && rng.gen_bool(0.5) {
                            harness = Harness::new(builder.clone().build(), &mut memo, oracle);
                            twin = builder.clone().build();
                            is_fresh = true;
                        }
                    }
                }
            }
        }
        // The histories reach every kind of start state they test.
        assert!(
            replays > 2_000 && fresh > 500 && failed > 500 && aborted > 500,
            "{replays} {fresh} {failed} {aborted}"
        );
    }

    /// Every step whose run the memo replays leaves the simulator as a twin
    /// leaves it that simulated every step: values, true-input counters,
    /// pending values, waveforms, time, live queued events, the stale set
    /// and the event count. Each random netlist (cyclic logic, nets with
    /// several drivers, read and unread flip-flops and one clocked by a
    /// flip-flop's output, slow gates) steps a few keys under unit delays
    /// and fixed delays of 2, 3 and 5, whose slow gates' delays are multiples
    /// of the unit, mixed with random delays, in both delay styles and under
    /// an event budget that some runs exhaust. A key holds the inputs and,
    /// at some initializations, one more net, and its change may carry an
    /// external event on a gate-driven net, often that one. Each step draws
    /// its input offsets, below the unit and at or above it, and some steps
    /// follow the last one without an initialization. One memo serves the
    /// delay models twice over per style. A harness steps the keys in order
    /// or shuffled, and after a failed initialization or step the harness
    /// and its twin are rebuilt or go on, by a coin flip, so start states
    /// vary (the unread flip-flop output's too) and records are dropped.
    #[test]
    fn replayed_steps_match_the_simulation() {
        let mut rng = StdRng::seed_from_u64(0x5CA1_EDDE);
        const UNITS: [u64; 4] = [1, 2, 3, 5];
        // Per unit: replays of a run recorded at another unit, and replays.
        let (mut crossed, mut replays) = ([0usize; 4], [0usize; 4]);
        let (mut simulated, mut failed) = (0, 0);
        for case in 0..150 {
            let (mut nl, slow, inputs) = verdict_netlist(&mut rng);
            let nets = nl.num_nets();
            // The read flip-flop's output clocks another one, which a gate
            // reads.
            let clock = nl.dffs()[0].q;
            let (q, r) = (nl.add_net("ff2"), nl.add_net("r2"));
            nl.add_dff(clock, NetId(rng.gen_range(0..nets)), q);
            nl.add_gate(GateKind::Xor, vec![q, inputs[0]], r);
            let nets = nl.num_nets();
            let keys: Vec<_> = (0..5)
                .map(|_| {
                    let fixed: Vec<(NetId, bool)> =
                        inputs.iter().map(|&x| (x, rng.gen_bool(0.5))).collect();
                    let extra = (rng.gen_bool(0.4))
                        .then(|| (NetId(rng.gen_range(0..nets)), rng.gen_bool(0.5)));
                    let flips = rng.gen_range(1..16usize);
                    let mut changes: Vec<(NetId, bool)> = (0..inputs.len())
                        .filter(|&i| flips >> i & 1 == 1)
                        .map(|i| (inputs[i], !fixed[i].1))
                        .collect();
                    if rng.gen_bool(0.2) {
                        let net = match extra {
                            Some((net, _)) if rng.gen_bool(0.5) => net,
                            _ => NetId(rng.gen_range(inputs.len()..nets)),
                        };
                        changes.push((net, rng.gen_bool(0.5)));
                    }
                    (fixed, extra, changes)
                })
                .collect();
            let random = |rng: &mut StdRng| DelayModel::Random {
                min: 1,
                max: 4,
                seed: rng.next_u64(),
            };
            for style in [DelayStyle::Transport, DelayStyle::Inertial] {
                let models = [
                    DelayModel::Unit,
                    DelayModel::Fixed(2),
                    random(&mut rng),
                    DelayModel::Fixed(3),
                    DelayModel::Fixed(5),
                    random(&mut rng),
                    DelayModel::Unit,
                    DelayModel::Fixed(3),
                    DelayModel::Fixed(2),
                    DelayModel::Fixed(5),
                ];
                let budget = rng.gen_range(8..300usize);
                let monitored: Vec<NetId> =
                    (0..nets).filter(|_| rng.gen_bool(0.3)).map(NetId).collect();
                let mut memo = StepMemo::default();
                // Per (key, offsets): the unit of the run last recorded.
                let mut recorded_at = std::collections::BTreeMap::new();
                for model in models.iter().chain(&models) {
                    let mut builder = Simulator::builder(&nl)
                        .delay_model(model.clone())
                        .style(style)
                        .event_budget(budget);
                    for (k, &gi) in slow.iter().enumerate() {
                        builder = builder.gate_delay(gi, (8 + 2 * k as u64) * model.max_delay());
                    }
                    for &net in &monitored {
                        builder = builder.monitor(net);
                    }
                    let oracle = rng.gen_bool(0.5);
                    let mut harness = Harness::new(builder.clone().build(), &mut memo, oracle);
                    let mut twin = builder.clone().build();
                    let mut order: Vec<usize> = (0..keys.len()).collect();
                    if rng.gen_bool(0.5) {
                        for i in (1..order.len()).rev() {
                            order.swap(i, rng.gen_range(0..=i));
                        }
                    }
                    for key in order {
                        let (fixed, extra, changes) = &keys[key];
                        let at = format!("case {case} {model:?} {style:?} key {key}");
                        let mut rebuild = false;
                        // Some steps follow the last one without an
                        // initialization; the others hold the extra net or
                        // not, by a coin flip.
                        if rng.gen_bool(0.9) {
                            let mut fixed = fixed.clone();
                            fixed.extend(extra.filter(|_| rng.gen_bool(0.5)));
                            let result = harness.init(key, &fixed);
                            let expected = twin
                                .initialize_consistent(&fixed)
                                .and_then(|()| twin.run_until_quiet());
                            assert_eq!(result, expected, "{at}: init");
                            rebuild = result.is_err();
                        }
                        if !rebuild {
                            // Inputs without skew scale at every unit.
                            let even = rng.gen_bool(0.4).then(|| rng.gen_range(0..3u64));
                            let changes: Vec<(NetId, bool, u64)> = changes
                                .iter()
                                .map(|&(net, value)| {
                                    (net, value, even.unwrap_or_else(|| rng.gen_range(0..5)))
                                })
                                .collect();
                            let first = changes.iter().map(|c| c.2.max(1)).min().unwrap();
                            let offsets: Vec<u64> =
                                changes.iter().map(|c| c.2.max(1) - first).collect();
                            let unit = harness.unit.filter(|&u| {
                                harness.initialized == Some(key) && offsets.iter().all(|&o| o < u)
                            });
                            let fills = harness.memo.step_fills;
                            let outcome = harness.step(key, &changes);
                            for &(net, value, delta) in &changes {
                                twin.schedule_input(net, value, delta.max(1));
                            }
                            let expected = twin.run_until_quiet();
                            assert_eq!(outcome.error, expected.clone().err(), "{at}: step");
                            assert_eq!(outcome.end_time, twin.time(), "{at}: end time");
                            rebuild = expected.is_err();
                            failed += usize::from(rebuild);
                            if harness.memo.step_fills == fills {
                                let unit = unit.expect("only a scaled step replays");
                                let u = UNITS.iter().position(|&u| u == unit).unwrap();
                                replays[u] += 1;
                                crossed[u] += usize::from(recorded_at[&(key, offsets)] != unit);
                            } else {
                                simulated += 1;
                                if let (Some(unit), false) = (unit, rebuild) {
                                    recorded_at.insert((key, offsets), unit);
                                }
                            }
                        }
                        harness.sim.assert_same_state(&twin, &at);
                        assert_eq!(harness.sim.stale(), twin.stale(), "{at}: stale set");
                        let events = (harness.sim.events_processed(), twin.events_processed());
                        assert_eq!(events.0, events.1, "{at}: events");
                        if rebuild && rng.gen_bool(0.5) {
                            harness = Harness::new(builder.clone().build(), &mut memo, oracle);
                            twin = builder.clone().build();
                        }
                    }
                }
            }
        }
        // Runs replay at every unit, from records made at another unit too.
        assert!(
            crossed.iter().all(|&n| n > 250) && simulated > 10_000 && failed > 3_000,
            "{crossed:?} {replays:?} {simulated} {failed}"
        );
    }

    /// A key serves only the fixed nets and the input change it recorded.
    /// Over `n = NOT x`, initializing key 0 with `x = 1` and then with
    /// `x = 0`, each from a fresh simulator, leaves `n = 1` as the rounds
    /// do; and a step from that state under key 0 that leaves `x` at 0,
    /// after one under key 0 that raised it, keeps `n = 1`, and the oracle
    /// agrees.
    #[test]
    fn a_key_serves_only_its_fixed_nets_and_change() {
        let mut nl = Netlist::new();
        let x = nl.add_primary_input("x");
        let n = nl.add_net("n");
        nl.add_gate(GateKind::Not, vec![x], n);
        let build = || Simulator::builder(&nl).event_budget(100).build();
        let mut memo = StepMemo::default();
        let mut harness = Harness::new(build(), &mut memo, true);
        harness.init(0, &[(x, true)]).unwrap();
        assert!(!harness.sim().value(n));
        let mut harness = Harness::new(build(), &mut memo, true);
        harness.init(0, &[(x, false)]).unwrap();
        assert!(harness.sim().value(n), "n = NOT x with x = 0");
        let outcome = harness.step(0, &[(x, true, 1)]);
        assert_eq!(outcome.oracle, OracleVerdict::Agreed);
        assert!(!harness.sim().value(n));
        let mut harness = Harness::new(build(), &mut memo, true);
        harness.init(0, &[(x, false)]).unwrap();
        let outcome = harness.step(0, &[(x, false, 1)]);
        assert_eq!(outcome.oracle, OracleVerdict::Agreed);
        assert!(harness.sim().value(n), "x stays 0");
        assert_eq!(memo.step_fills(), 2);
    }

    /// A key's runs serve only the start state they were recorded from.
    /// Over `n = NOT x`, a run recorded with `n` held beside `x`, so the
    /// stale set holds its driver, does not serve an initialization that
    /// holds `x` only, although the values are equal: the run's external
    /// event on `n` leaves the driver stale, and the next initialization
    /// restores `n`. And over a flip-flop `q` that a gate reads, a step
    /// that the oracle predicts from another state (`q` set, after another
    /// key's initialization) drops the runs recorded from `q` clear: the
    /// initialization after it keeps `q` set.
    #[test]
    fn a_key_drops_its_runs_when_its_start_state_moves() {
        let mut nl = Netlist::new();
        let x = nl.add_primary_input("x");
        let n = nl.add_net("n");
        nl.add_gate(GateKind::Not, vec![x], n);
        let build = || Simulator::builder(&nl).event_budget(100).build();
        let mut memo = StepMemo::default();
        let mut harness = Harness::new(build(), &mut memo, true);
        harness.init(0, &[(x, true), (n, false)]).unwrap();
        harness.step(0, &[(n, true, 1)]);
        let mut harness = Harness::new(build(), &mut memo, true);
        harness.init(0, &[(x, true)]).unwrap();
        harness.step(0, &[(n, true, 1)]);
        harness.init(1, &[(x, true)]).unwrap();
        assert!(!harness.sim().value(n), "n = NOT x with x = 1");
        assert_eq!(memo.step_fills(), 2);

        let mut nl = Netlist::new();
        let (c, d) = (nl.add_primary_input("c"), nl.add_primary_input("d"));
        let (q, r) = (nl.add_net("q"), nl.add_net("r"));
        nl.add_dff(c, d, q);
        nl.add_gate(GateKind::And, vec![q, d], r);
        let mut memo = StepMemo::default();
        let sim = Simulator::builder(&nl).event_budget(100).build();
        let mut harness = Harness::new(sim, &mut memo, true);
        let fixed = [(c, false), (d, true)];
        for (i, key) in [0, 1, 0, 0].into_iter().enumerate() {
            harness.init(key, &fixed).unwrap();
            harness.step(0, &[(c, true, 1)]);
            assert!(harness.sim().value(q) && harness.sim().value(r), "step {i}");
        }
        // The last step replays the third.
        assert_eq!(memo.step_fills(), 3);
    }

    /// Packing eight nets per multiply equals setting one bit per net, at
    /// every length from none to past two words.
    #[test]
    fn packing_matches_the_bit_by_bit_loop() {
        let mut rng = StdRng::seed_from_u64(0xB175);
        for len in 0..=130usize {
            for _ in 0..20 {
                let values: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                let mut expected = vec![0; len.div_ceil(64)];
                for (n, &v) in values.iter().enumerate() {
                    expected[n / 64] |= u64::from(v) << (n % 64);
                }
                let mut packed = vec![!0; len.div_ceil(64)];
                pack(&values, &mut packed);
                assert_eq!(packed, expected, "{values:?}");
            }
        }
    }

    #[test]
    fn harness_skips_oracle_when_disabled() {
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Buf, vec![a], y);
        let sim = Simulator::builder(&nl).event_budget(100).build();
        let mut memo = StepMemo::default();
        let mut harness = Harness::new(sim, &mut memo, false);
        harness.init(0, &[]).unwrap();
        let outcome = harness.step(0, &[(a, true, 1)]);
        assert_eq!(outcome.oracle, OracleVerdict::Skipped);
        assert!(outcome.error.is_none());
        assert!(harness.sim().value(y));
    }
}
