//! Building blocks for Monte-Carlo hazard-validation campaigns.
//!
//! A campaign simulates one circuit under many sampled delay assignments and
//! input sequences, looking for glitches the analytical hazard checks claim
//! cannot happen. This module provides the circuit-agnostic pieces:
//!
//! * [`DelaySweep`] — a deterministic schedule of delay assignments
//!   (unit / all-min / all-max / seeded-random styles, round-robin by trial
//!   index) with split-mix seed derivation so every `(campaign seed, trial)`
//!   pair maps to one delay assignment regardless of execution order;
//! * [`ZeroDelayOracle`] — a cheap dirty-flag + process-queue netlist
//!   evaluator (the `rva` propagation idiom) that predicts the zero-delay
//!   fixpoint after an input change, used as a differential reference for the
//!   event-driven simulator's settled state;
//! * [`OracleMemo`] — the oracle's predictions, kept bit-packed per step key
//!   across the delay assignments of one campaign worker and served again
//!   whenever a step starts from the state a prediction was computed from;
//! * [`Harness`] — a [`Simulator`] plus a borrowed memo that drives one trial
//!   step by step, reporting per-step timing windows and oracle verdicts.
//!
//! The machine-aware campaign driver (which transitions to exercise, which
//! outputs are analytically hazard-free, report aggregation, parallel seeds)
//! lives in the `seance` crate on top of these pieces.

use std::collections::VecDeque;

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
/// connections, which every value change keeps current along the fanout, so
/// a settle costs the gates the change reaches. The oracle is an engine of
/// its own: it shares with the [`Simulator`] only the netlist, the fanout
/// and, through [`ZeroDelayOracle::load`], a snapshot of its state.
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
/// simulator's delays. A harness therefore runs the oracle through an
/// [`OracleMemo`], which settles it only for a start state the memo has not
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
        let (start, end) = self.fanout.row_bounds(net);
        for k in start..end {
            let gi = self.fanout.gate_at(k);
            let mult = self.fanout.mult_at(k);
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

    fn eval(&self, gi: usize) -> bool {
        self.netlist.gates()[gi].eval_counted(self.true_counts[gi], |n| self.values[n.0])
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
                let new_val = self.eval(gi);
                let out = self.netlist.gates()[gi].output.0;
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
                let new_val = self.eval(gi);
                let out = self.netlist.gates()[gi].output.0;
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

/// Zero-delay predictions kept across the harnesses of one campaign worker.
///
/// At zero delay the oracle's prediction for an input change depends on the
/// simulator state the change starts from, not on the delay assignment. A
/// campaign worker steps every transition once per delay assignment, nearly
/// always from the same start state, so the memo keeps one entry per step
/// key (a campaign passes the transition index): the start state and the
/// settled state, bit-packed one bit per net in one flat arena, and the net
/// the oracle found unstable, if any.
///
/// An entry serves a step only when the simulator's start state equals the
/// stored one on every net the oracle can read or write: every net but the
/// flip-flop outputs that no gate reads or drives, which a prediction
/// carries through unchanged and the settled comparison skips. Any other
/// start state runs the oracle and overwrites the entry, so every verdict is
/// the one a freshly loaded oracle gives. A key must always come with the
/// same input change.
///
/// The memo serves one netlist and one set of slow gates; a harness that
/// brings another clears it.
#[derive(Debug, Default)]
pub struct OracleMemo<'a> {
    /// The oracle that fills entries.
    oracle: Option<ZeroDelayOracle<'a>>,
    /// Words per packed state: one bit per net.
    words: usize,
    /// The nets a start state must match on.
    key_mask: Vec<u64>,
    /// The nets the settled comparison checks: all but flip-flop outputs.
    compare_mask: Vec<u64>,
    /// Per key: the oracle's result, once filled.
    predictions: Vec<Option<Result<(), NetId>>>,
    /// Per key: the packed start state, then the packed settled state.
    arena: Vec<u64>,
    /// The simulator's packed state, scratch of each step.
    packed: Vec<u64>,
    /// Predictions computed.
    fills: u64,
}

impl<'a> OracleMemo<'a> {
    /// A memo with room for the keys `0..keys` once it knows the netlist, so
    /// its arena is allocated once.
    pub fn with_capacity(keys: usize) -> Self {
        OracleMemo {
            predictions: Vec::with_capacity(keys),
            ..OracleMemo::default()
        }
    }

    /// How many predictions the oracle has computed: one for every step the
    /// memo could not serve.
    pub fn fills(&self) -> u64 {
        self.fills
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
        // A prediction carries the flip-flop outputs that no gate reads or
        // drives, whatever their values.
        let keyed: Vec<bool> = (0..netlist.num_nets())
            .map(|n| {
                let (start, end) = fanout.row_bounds(n);
                !dff_q[n] || start < end || !fanout.drivers(n).is_empty()
            })
            .collect();
        let compared: Vec<bool> = dff_q.iter().map(|&q| !q).collect();
        self.words = keyed.len().div_ceil(64);
        self.key_mask = vec![0; self.words];
        self.compare_mask = vec![0; self.words];
        pack(&keyed, &mut self.key_mask);
        pack(&compared, &mut self.compare_mask);
        self.packed = vec![0; self.words];
        self.predictions.clear();
        self.arena.clear();
        self.arena
            .reserve_exact(self.predictions.capacity() * 2 * self.words);
        self.oracle = Some(ZeroDelayOracle::with_slow_gates(netlist, slow));
    }

    /// Make entry `key` predict `changes` from the state of `sim`: keep it
    /// if its start state matches, otherwise run the oracle and overwrite
    /// it.
    fn predict(&mut self, sim: &Simulator<'_>, key: usize, changes: &[(NetId, bool, u64)]) {
        let words = self.words;
        pack(sim.net_values(), &mut self.packed);
        if key >= self.predictions.len() {
            self.predictions.resize(key + 1, None);
            self.arena.resize((key + 1) * 2 * words, 0);
        }
        let (start, settled) = self.arena[2 * key * words..][..2 * words].split_at_mut(words);
        let same_start = (start.iter().zip(&self.packed).zip(&self.key_mask))
            .all(|((s, p), m)| (s ^ p) & m == 0);
        if self.predictions[key].is_some() && same_start {
            return;
        }
        let oracle = self.oracle.as_mut().expect("bound to a simulator");
        oracle.load(sim);
        for &(net, value, _) in changes {
            oracle.set(net, value);
        }
        let prediction = oracle.settle();
        if prediction.is_ok() {
            pack(oracle.values(), settled);
        }
        start.copy_from_slice(&self.packed);
        self.predictions[key] = Some(prediction);
        self.fills += 1;
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
        let settled = &self.arena[(2 * key + 1) * words..][..words];
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
}

/// Pack `values` one bit per net: net `n` is bit `n % 64` of word `n / 64`.
fn pack(values: &[bool], words: &mut [u64]) {
    for (word, chunk) in words.iter_mut().zip(values.chunks(64)) {
        *word = (chunk.iter().enumerate()).fold(0, |w, (i, &v)| w | u64::from(v) << i);
    }
}

/// A simulator plus an optional zero-delay oracle memo, driven step by step.
///
/// The harness owns the per-trial mechanics shared by every campaign: get
/// the zero-delay prediction of each input change from the simulator's
/// committed state before the change, apply the change, run the simulator to
/// quiescence, and compare settled values on every combinationally driven
/// net. The predictions come from an [`OracleMemo`] the harness borrows, so
/// they outlive it: a campaign worker lends one memo to the harness of each
/// delay assignment in turn.
#[derive(Debug)]
pub struct Harness<'a, 'm> {
    sim: Simulator<'a>,
    /// The predictions, when the differential check is enabled.
    memo: Option<&'m mut OracleMemo<'a>>,
}

impl<'a, 'm> Harness<'a, 'm> {
    /// Wrap a built simulator; a `memo` enables the differential check
    /// against the zero-delay oracle, and holds its predictions.
    pub fn new(sim: Simulator<'a>, mut memo: Option<&'m mut OracleMemo<'a>>) -> Self {
        if let Some(memo) = memo.as_deref_mut() {
            memo.bind(&sim);
        }
        Harness { sim, memo }
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &Simulator<'a> {
        &self.sim
    }

    /// Establish a consistent initial condition and run to quiescence.
    ///
    /// # Errors
    ///
    /// Propagates initialization and budget errors from the simulator.
    pub fn init(&mut self, fixed: &[(NetId, bool)]) -> Result<u64, SimError> {
        self.sim.initialize_consistent(fixed)?;
        self.sim.run_until_quiet()
    }

    /// Apply one input-change step: each `(net, value, delta)` is scheduled
    /// `delta` time units from now (skewed multiple-input changes use
    /// distinct deltas), the simulator runs to quiescence, and the settled
    /// state is compared against the zero-delay fixpoint that the memo holds
    /// under `key`, the step's name for this input change.
    ///
    /// The memo serves the prediction when the step starts from the state it
    /// was computed from. Otherwise the oracle starts from the simulator's
    /// committed values and true-input counters ([`ZeroDelayOracle::load`])
    /// and costs only the gates the change reaches. Either way the start
    /// state and the settled state are each packed and compared word by
    /// word.
    pub fn step(&mut self, key: usize, changes: &[(NetId, bool, u64)]) -> StepOutcome {
        let start_time = self.sim.time() + 1;
        // Predict the fixpoint from the pre-step committed state.
        if let Some(memo) = self.memo.as_deref_mut() {
            memo.predict(&self.sim, key, changes);
        }
        for &(net, value, delta) in changes {
            self.sim.schedule_input(net, value, delta.max(1));
        }
        let (end_time, error) = match self.sim.run_until_quiet() {
            Ok(t) => (t, None),
            Err(e) => (self.sim.time(), Some(e)),
        };
        let oracle = match self.memo.as_deref_mut() {
            Some(memo) if error.is_none() => memo.verdict(&self.sim, key),
            _ => OracleVerdict::Skipped,
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
        let mut memo = OracleMemo::default();
        let mut harness = Harness::new(sim, Some(&mut memo));
        harness.init(&[(a, false)]).unwrap();
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
        let mut memo = OracleMemo::default();
        let mut harness = Harness::new(sim, Some(&mut memo));
        harness.init(&[(a, false)]).unwrap();
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
            let mut memo = OracleMemo::default();
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
                    let mut harness = Harness::new(build(), Some(&mut memo));
                    for (step, (fixed, changes)) in steps.iter().enumerate() {
                        let at = format!("case {case} {model:?} {style:?} step {step}");
                        if harness.init(fixed).is_err() {
                            harness = Harness::new(build(), Some(&mut memo));
                            continue;
                        }
                        let start = harness.sim().net_values().to_vec();
                        let fills = harness.memo.as_ref().map(|memo| memo.fills);
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
                        if harness.memo.as_ref().map(|memo| memo.fills) == fills {
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
                            harness = Harness::new(build(), Some(&mut memo));
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

    #[test]
    fn harness_skips_oracle_when_disabled() {
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Buf, vec![a], y);
        let sim = Simulator::builder(&nl).event_budget(100).build();
        let mut harness = Harness::new(sim, None);
        harness.init(&[]).unwrap();
        let outcome = harness.step(0, &[(a, true, 1)]);
        assert_eq!(outcome.oracle, OracleVerdict::Skipped);
        assert!(outcome.error.is_none());
        assert!(harness.sim().value(y));
    }
}
