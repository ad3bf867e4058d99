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
//! * [`Harness`] — a [`Simulator`] + oracle pair that drives one trial step
//!   by step, reporting per-step timing windows and oracle verdicts.
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

/// A simulator plus optional zero-delay oracle, driven step by step.
///
/// The harness owns the per-trial mechanics shared by every campaign: sync
/// the oracle to the simulator's committed state before each input change,
/// apply the change to both, run the simulator to quiescence, and compare
/// settled values on every combinationally driven net.
#[derive(Debug)]
pub struct Harness<'a> {
    sim: Simulator<'a>,
    oracle: Option<ZeroDelayOracle<'a>>,
    /// Per net: `true` for flip-flop outputs, which the oracle cannot predict.
    dff_q: &'a [bool],
}

impl<'a> Harness<'a> {
    /// Wrap a built simulator; `use_oracle` enables the differential check,
    /// with an oracle that shares the netlist's indexes with the simulator.
    pub fn new(sim: Simulator<'a>, use_oracle: bool) -> Self {
        let netlist = sim.netlist();
        let oracle =
            use_oracle.then(|| ZeroDelayOracle::with_slow_gates(netlist, sim.slow_gates()));
        let dff_q = netlist.fanout().dff_q();
        Harness { sim, oracle, dff_q }
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
    /// state is compared against the zero-delay fixpoint.
    ///
    /// The oracle starts from the simulator's committed values and
    /// true-input counters ([`ZeroDelayOracle::load`]), so besides that copy
    /// and the settled-state comparison a step costs only the gates the
    /// change reaches, in both engines.
    pub fn step(&mut self, changes: &[(NetId, bool, u64)]) -> StepOutcome {
        let start_time = self.sim.time() + 1;
        // Predict the fixpoint from the pre-step committed state.
        let mut oracle_verdict = OracleVerdict::Skipped;
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.load(&self.sim);
            for &(net, value, _) in changes {
                oracle.set(net, value);
            }
            oracle_verdict = match oracle.settle() {
                Ok(()) => OracleVerdict::Agreed, // refined after the sim runs
                Err(net) => OracleVerdict::Unstable { net },
            };
        }
        for &(net, value, delta) in changes {
            self.sim.schedule_input(net, value, delta.max(1));
        }
        let (end_time, error) = match self.sim.run_until_quiet() {
            Ok(t) => (t, None),
            Err(e) => (self.sim.time(), Some(e)),
        };
        if error.is_none() {
            if let (OracleVerdict::Agreed, Some(oracle)) = (oracle_verdict, self.oracle.as_ref()) {
                let sim_values = self.sim.net_values();
                let mismatch = oracle
                    .values()
                    .iter()
                    .zip(sim_values.iter())
                    .enumerate()
                    .find(|&(n, (o, s))| o != s && !self.dff_q[n]);
                if let Some((n, _)) = mismatch {
                    oracle_verdict = OracleVerdict::Disagreed { net: NetId(n) };
                }
            }
        } else {
            oracle_verdict = OracleVerdict::Skipped;
        }
        StepOutcome {
            start_time,
            end_time,
            error,
            oracle: oracle_verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayStyle, GateKind};

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
        let mut harness = Harness::new(sim, true);
        harness.init(&[(a, false)]).unwrap();
        let outcome = harness.step(&[(a, true, 1)]);
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
        let mut harness = Harness::new(sim, true);
        harness.init(&[(a, false)]).unwrap();
        let outcome = harness.step(&[(a, true, 1)]);
        assert!(outcome.is_clean(), "outcome {outcome:?}");
        assert_eq!(outcome.oracle, OracleVerdict::Agreed);
        assert!(!harness.sim().value(y));
        // The glitch is still visible in the waveform.
        let wave = harness.sim().waveform(y).unwrap();
        let changes = wave.windows(2).filter(|w| w[0].1 != w[1].1).count();
        assert!(changes >= 2, "glitch recorded: {wave:?}");
    }

    #[test]
    fn harness_skips_oracle_when_disabled() {
        let mut nl = Netlist::new();
        let a = nl.add_primary_input("a");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::Buf, vec![a], y);
        let sim = Simulator::builder(&nl).event_budget(100).build();
        let mut harness = Harness::new(sim, false);
        harness.init(&[]).unwrap();
        let outcome = harness.step(&[(a, true, 1)]);
        assert_eq!(outcome.oracle, OracleVerdict::Skipped);
        assert!(outcome.error.is_none());
        assert!(harness.sim().value(y));
    }
}
