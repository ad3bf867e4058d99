//! Monte-Carlo hazard-validation campaigns over synthesized FANTOM machines.
//!
//! A campaign takes a synthesis result, emits the gate-level machine and
//! drives it through its stable-state transitions (single- *and*
//! multiple-input-change) under many sampled delay assignments — unit,
//! all-minimum, all-maximum and seeded-random styles over gate delays of 4
//! to 9, round-robin per assignment, with a budget of 200,000 events per
//! simulator run — checking three things against each other:
//!
//! * **observed behaviour** — settling, final state/output correctness, and
//!   glitch counts on the invariant state variables, windowed per step;
//! * **analytical verdicts** — `fantom_boolean::hazard::is_static_hazard_free`
//!   on the factored `fsv`/`Y` covers (and informationally on `Z`/`SSD`):
//!   a variable whose cover is analytically hazard-free must never glitch on
//!   a protected transition;
//! * **a zero-delay differential oracle** — the dirty-flag propagation
//!   engine of `fantom_sim::campaign` predicts the settled fixpoint, with the
//!   feedback buffers updated only once the logic has settled (the
//!   loop-delay assumption the simulator enforces with their long delays),
//!   and the event-driven simulator must agree wherever the machine's
//!   behaviour is delay-independent.
//!
//! Neither a step's initialization to its source state nor the oracle's
//! prediction depends on the delays once the state the step starts from is
//! fixed, so a [`fantom_sim::campaign::StepMemo`], keyed by transition
//! index, serves them across assignments: it runs a transition's
//! initialization rounds and settles its oracle once and replays them to
//! the later assignments, with the oracle off too. The unit, all-minimum
//! and all-maximum assignments make every gate, feedback-buffer and
//! flip-flop delay a fixed multiple of 1, 4 or 9, and the input skew of 0
//! or 1 stays below that unit, so they are one assignment at three time
//! scales: the memo also runs a transition's event loop once per start
//! state and skew pattern under them and replays the run, rescaled, to the
//! others (see `fantom_sim::campaign`). Random assignments always run.
//!
//! Work is shared across assignments and workers in two more ways. When an
//! assignment steps every transition in order, a unit-delay assignment
//! draws neither delays nor input skew, so only the first one (assignment
//! 0) runs and its report is merged once for each of them. And assignment 0
//! runs first, on one worker, while the others take the random assignments,
//! whose runs no memo replays: the worker that ran it publishes a copy of
//! its memo, and every other worker adopts the copy at its next claim
//! instead of filling the same initializations, predictions and unit-delay
//! runs again. A copy serves exactly as the original, since every entry is
//! checked against the simulator state it replays to. Reports, event counts
//! included, are the same either way.
//!
//! ## Protected vs. unprotected transitions
//!
//! The paper's glitch-freedom guarantee covers transitions whose
//! *intermediate* input columns are specified: during a multiple-input
//! change the inputs pass transiently through every column between the
//! source and destination vectors, and only when the flow table sends all of
//! those columns to the destination state is the trajectory pinned down
//! (don't-care intermediate entries leave the synthesizer free to implement
//! anything there). The campaign therefore classifies each transition:
//! **protected** transitions (all intermediate columns specified to reach the
//! destination) carry the strict zero-glitch / correct-final-state
//! assertions, while **unprotected** ones (common in the don't-care-heavy
//! large suite) are still simulated and checked the same way, but their
//! divergences are informational and never make a report unclean. A report
//! keeps one [`StepChecks`] per class, `protected` and `unprotected`: each
//! step picks its class once and every check of the step lands there.
//! Single-input changes have no intermediate columns and are always
//! protected.
//!
//! All randomness derives from `(campaign seed, assignment, step)` via
//! split-mix streams, so a report is byte-identical for any worker count —
//! the assignments run on the claim-counter worker pool of
//! [`crate::synthesize_many`].

use std::sync::OnceLock;

use fantom_boolean::hazard::is_static_hazard_free;
use fantom_flow::{Bits, FlowTable, StableTransition};
use fantom_sim::analysis;
use fantom_sim::campaign::{derive_seed, DelaySweep, Harness, OracleVerdict, StepMemo};
use fantom_sim::{DelayModel, DelayStyle, NetId, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::emit::{emit_parts, FantomNetlist, MachineParts};
use crate::service::{claim_pool, effective_parallelism};
use crate::SparseSynthesisResult;

/// Configuration of a validation campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Number of sampled delay assignments (trials).
    pub assignments: usize,
    /// Campaign seed; every delay draw and input skew derives from it.
    pub seed: u64,
    /// Input-change steps per assignment, each on a transition drawn from
    /// the campaign seed. `0`, or any value at or above the number of
    /// stable transitions, exercises every stable transition of the table
    /// once per assignment, in order.
    pub sequences_per_assignment: usize,
    /// Worker threads; `0` uses the host's available parallelism.
    pub workers: usize,
    /// Cross-check settled states against the zero-delay oracle.
    pub oracle: bool,
    /// Feedback buffer stages per state variable (the campaign raises their
    /// delay to enforce the loop-delay assumption regardless).
    pub loop_stages: usize,
}

impl CampaignOptions {
    /// `true` when an assignment steps every one of `transitions` stable
    /// transitions once, in order, rather than a sample drawn from the seed.
    fn steps_every_transition(&self, transitions: usize) -> bool {
        self.sequences_per_assignment == 0 || self.sequences_per_assignment >= transitions
    }
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            assignments: 64,
            seed: 0x5EAC_CE01,
            sequences_per_assignment: 0,
            workers: 0,
            oracle: true,
            loop_stages: 1,
        }
    }
}

/// The range sampled gate delays are drawn from.
const DELAYS: DelaySweep = DelaySweep { min: 4, max: 9 };

/// Event budget per simulator run.
const EVENT_BUDGET: usize = 200_000;

/// Analytical hazard verdicts for every synthesized cover.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalyticVerdicts {
    /// The factored `fsv` cover is static-hazard-free.
    pub fsv_hazard_free: bool,
    /// Per state variable: the factored `Y` cover is static-hazard-free.
    pub y_hazard_free: Vec<bool>,
    /// The `SSD` cover is static-hazard-free (informational; `SSD` is not
    /// hazard-factored — its consumers tolerate pulses).
    pub ssd_hazard_free: bool,
    /// Per output: the `Z` cover is static-hazard-free (informational; `Z`
    /// is latched by the capture stage).
    pub z_hazard_free: Vec<bool>,
}

/// The checks a campaign keeps for each class of transition (see the
/// module docs): strict on protected transitions, informational on
/// unprotected ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepChecks {
    /// Steps that did not settle within the event budget (an unprotected
    /// race may legitimately cycle through unspecified entries).
    pub settle_failures: u64,
    /// Steps ending in the wrong state code.
    pub wrong_final_state: u64,
    /// Steps ending with wrong (specified) output bits.
    pub wrong_final_output: u64,
    /// Glitches on invariant state variables.
    pub invariant_glitches: u64,
    /// Same, broken down per state variable (on protected steps,
    /// cross-checked against [`AnalyticVerdicts::y_hazard_free`]).
    pub glitches_per_var: Vec<u64>,
    /// Extra transitions (beyond the single USTT change) on changing state
    /// variables.
    pub excess_state_changes: u64,
    /// Steps where the zero-delay oracle disagreed with the settled
    /// simulator state (an unprotected race may resolve differently than the
    /// zero-delay interleaving).
    pub oracle_disagreements: u64,
}

impl StepChecks {
    /// All-zero checks over `num_vars` state variables.
    fn new(num_vars: usize) -> Self {
        StepChecks {
            glitches_per_var: vec![0; num_vars],
            ..StepChecks::default()
        }
    }

    /// Add every check of `other` to `self`.
    fn add(&mut self, other: &StepChecks) {
        self.settle_failures += other.settle_failures;
        self.wrong_final_state += other.wrong_final_state;
        self.wrong_final_output += other.wrong_final_output;
        self.invariant_glitches += other.invariant_glitches;
        add_counts(&mut self.glitches_per_var, &other.glitches_per_var);
        self.excess_state_changes += other.excess_state_changes;
        self.oracle_disagreements += other.oracle_disagreements;
    }
}

/// Aggregated result of a campaign. All counters are exact and
/// deterministic for a given `(machine, options)` pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Machine name.
    pub machine: String,
    /// Delay assignments exercised.
    pub assignments: usize,
    /// Input-change steps simulated.
    pub steps: u64,
    /// Steps on protected transitions (strict checks apply).
    pub protected_steps: u64,
    /// Steps on unprotected transitions (informational checks).
    pub unprotected_steps: u64,
    /// Simulator events processed across the whole campaign.
    pub events: u64,
    /// Steps whose initial fixpoint could not be established, or whose
    /// fixpoint is not a stable total state (some `y` disagrees with its
    /// `Y`).
    pub init_failures: u64,
    /// The checks of protected steps, which must all pass.
    pub protected: StepChecks,
    /// The checks of unprotected steps (informational: they never make a
    /// report unclean).
    pub unprotected: StepChecks,
    /// Glitches per output variable on steps whose specified output bit is
    /// invariant (informational — `Z` is latched by the capture stage, so
    /// pulses here are tolerated but worth surfacing).
    pub output_glitches_per_var: Vec<u64>,
    /// Steps where the oracle found no zero-delay fixpoint.
    pub oracle_unstable: u64,
    /// Analytical hazard verdicts the observations are checked against.
    pub analytic: AnalyticVerdicts,
}

impl CampaignReport {
    /// `true` when every strict (protected-transition) check passed and no
    /// analytically hazard-free state variable ever glitched.
    pub fn is_clean(&self) -> bool {
        let strict = &self.protected;
        self.init_failures == 0
            && strict.settle_failures == 0
            && strict.wrong_final_state == 0
            && strict.wrong_final_output == 0
            && strict.excess_state_changes == 0
            && strict.oracle_disagreements == 0
            && self
                .analytic
                .y_hazard_free
                .iter()
                .zip(&strict.glitches_per_var)
                .all(|(&hazard_free, &glitches)| !hazard_free || glitches == 0)
    }

    /// Deterministic multi-line rendering (byte-identical for a fixed seed
    /// and machine regardless of worker count — see `tests/campaign.rs`).
    pub fn render(&self) -> String {
        let fmt_bools = |v: &[bool]| {
            v.iter()
                .map(|b| if *b { "1" } else { "0" })
                .collect::<String>()
        };
        let fmt_counts = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let (p, u) = (&self.protected, &self.unprotected);
        format!(
            "campaign {}\n\
             assignments={} steps={} protected={} unprotected={} events={}\n\
             init_failures={} settle_failures={}/{} wrong_state={} wrong_output={}\n\
             invariant_glitches={}/{} per_var=[{}] excess_changes={}\n\
             unprotected_per_var=[{}] output_per_var=[{}]\n\
             unprotected_wrong_state={} unprotected_wrong_output={} unprotected_excess_changes={}\n\
             oracle_disagreements={}/{} oracle_unstable={}\n\
             analytic fsv={} y={} ssd={} z={}\n\
             clean={}\n",
            self.machine,
            self.assignments,
            self.steps,
            self.protected_steps,
            self.unprotected_steps,
            self.events,
            self.init_failures,
            p.settle_failures,
            u.settle_failures,
            p.wrong_final_state,
            p.wrong_final_output,
            p.invariant_glitches,
            u.invariant_glitches,
            fmt_counts(&p.glitches_per_var),
            p.excess_state_changes,
            fmt_counts(&u.glitches_per_var),
            fmt_counts(&self.output_glitches_per_var),
            u.wrong_final_state,
            u.wrong_final_output,
            u.excess_state_changes,
            p.oracle_disagreements,
            u.oracle_disagreements,
            self.oracle_unstable,
            u8::from(self.analytic.fsv_hazard_free),
            fmt_bools(&self.analytic.y_hazard_free),
            u8::from(self.analytic.ssd_hazard_free),
            fmt_bools(&self.analytic.z_hazard_free),
            self.is_clean(),
        )
    }
}

impl CampaignReport {
    /// An all-zero report sized to `machine`: one per delay assignment,
    /// merged in assignment order into the campaign's report.
    fn empty(machine: &FantomNetlist) -> Self {
        CampaignReport {
            protected: StepChecks::new(machine.y.len()),
            unprotected: StepChecks::new(machine.y.len()),
            output_glitches_per_var: vec![0; machine.z.len()],
            ..CampaignReport::default()
        }
    }

    /// Add every step counter of `other` (one assignment's report) to `self`.
    fn merge(&mut self, other: &CampaignReport) {
        self.steps += other.steps;
        self.protected_steps += other.protected_steps;
        self.unprotected_steps += other.unprotected_steps;
        self.events += other.events;
        self.init_failures += other.init_failures;
        self.protected.add(&other.protected);
        self.unprotected.add(&other.unprotected);
        add_counts(
            &mut self.output_glitches_per_var,
            &other.output_glitches_per_var,
        );
        self.oracle_unstable += other.oracle_unstable;
    }
}

/// Add `other` to `counts`, element by element.
fn add_counts(counts: &mut [u64], other: &[u64]) {
    counts.iter_mut().zip(other).for_each(|(a, b)| *a += b);
}

/// Run a campaign over a synthesis result.
pub fn run_campaign_sparse(
    result: &SparseSynthesisResult,
    options: &CampaignOptions,
) -> CampaignReport {
    campaign_with_fills(result, options).0
}

/// [`run_campaign_sparse`], and how many initializations ran their rounds,
/// how many zero-delay predictions the oracle computed and how many steps
/// ran the event loop, over the workers' step memos.
///
/// Each distinct assignment runs once: with every transition in order, the
/// unit-delay assignments draw neither delays nor input skew, so assignment
/// 0's report stands for each of them. The first run is assignment 0, then
/// come the random ones, whose runs no memo replays, then the rest. Each
/// worker lends its memo to the harness of every assignment it runs, so a
/// transition's initialization and prediction are computed once per memo
/// and start state and served to its later assignments, and a run under the
/// unit, minimum or maximum delays once per memo, start state and input
/// skew and replayed to its later assignments of those three styles. The
/// worker that runs assignment 0 publishes a copy of its memo, and every
/// other worker adopts that copy at its next claim instead of filling the
/// same entries again; one worker copies nothing.
pub(crate) fn campaign_with_fills(
    result: &SparseSynthesisResult,
    options: &CampaignOptions,
) -> (CampaignReport, Fills) {
    let parts = &MachineParts::from(result);
    let machine = emit_parts(parts, options.loop_stages);
    let transitions = parts.table.stable_transitions();
    let protected: Vec<bool> = transitions
        .iter()
        .map(|t| is_protected(parts.table, t))
        .collect();
    let mut merged = CampaignReport {
        machine: parts.name.to_string(),
        assignments: options.assignments,
        analytic: analytic_verdicts(parts),
        ..CampaignReport::empty(&machine)
    };
    let mut fills = Fills::default();
    if transitions.is_empty() {
        return (merged, fills);
    }
    let model = |a| DELAYS.model_for_trial(options.seed, a);
    let every = options.steps_every_transition(transitions.len());
    let runs_as = |a| {
        if every && model(a) == DelayModel::Unit {
            0
        } else {
            a
        }
    };
    let mut runs: Vec<usize> = (0..options.assignments)
        .filter(|&a| runs_as(a) == a)
        .collect();
    runs.sort_by_key(|&a| (a > 0, !matches!(model(a), DelayModel::Random { .. })));
    let workers = effective_parallelism(options.workers).min(runs.len());
    let first: OnceLock<StepMemo<'_>> = OnceLock::new();
    let reports = claim_pool(
        workers,
        runs.len(),
        // A worker's memo, and whether it holds or adopted the first run's.
        || (StepMemo::with_capacity(transitions.len()), false),
        |(memo, adopted), i| {
            if !*adopted {
                if let Some(copy) = first.get() {
                    *memo = copy.clone();
                    *adopted = true;
                }
            }
            let before = Fills::of(memo);
            let report = run_assignment(
                parts,
                &machine,
                &transitions,
                &protected,
                options,
                memo,
                runs[i],
            );
            let after = Fills::of(memo);
            if i == 0 {
                if workers > 1 {
                    first.get_or_init(|| memo.clone());
                }
                *adopted = true;
            }
            let fills = Fills {
                inits: after.inits - before.inits,
                predictions: after.predictions - before.predictions,
                steps: after.steps - before.steps,
            };
            (report, fills)
        },
    );
    for a in 0..options.assignments {
        let run = runs.iter().position(|&r| r == runs_as(a));
        merged.merge(&reports[run.expect("every assignment runs as one run")].0);
    }
    for (_, f) in &reports {
        fills.inits += f.inits;
        fills.predictions += f.predictions;
        fills.steps += f.steps;
    }
    (merged, fills)
}

/// What the workers' step memos computed over a campaign.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fills {
    /// Initializations that ran their rounds.
    pub(crate) inits: u64,
    /// Zero-delay predictions the oracle computed.
    pub(crate) predictions: u64,
    /// Steps that ran the event loop.
    pub(crate) steps: u64,
}

impl Fills {
    /// What `memo` has computed so far.
    fn of(memo: &StepMemo<'_>) -> Self {
        Fills {
            inits: memo.init_fills(),
            predictions: memo.oracle_fills(),
            steps: memo.step_fills(),
        }
    }
}

/// A transition is *protected* when every intermediate input column of the
/// multiple-input change is specified to lead to the destination state (see
/// the module docs). Single-input changes are trivially protected.
fn is_protected(table: &FlowTable, t: &StableTransition) -> bool {
    Bits::transition_cube(&t.from_input, &t.to_input)
        .iter()
        .filter(|&column| *column != t.from_input)
        .all(|column| table.next_state(t.from_state, column.index()) == Some(t.to_state))
}

fn analytic_verdicts(parts: &MachineParts<'_>) -> AnalyticVerdicts {
    AnalyticVerdicts {
        fsv_hazard_free: is_static_hazard_free(&parts.factored.fsv_cover),
        y_hazard_free: parts
            .factored
            .y_covers
            .iter()
            .map(is_static_hazard_free)
            .collect(),
        ssd_hazard_free: is_static_hazard_free(parts.ssd_cover),
        z_hazard_free: parts.z_covers.iter().map(is_static_hazard_free).collect(),
    }
}

/// Smallest delay the model can assign — bounds the admissible input skew
/// (the paper requires input skew below a gate delay).
fn min_gate_delay(model: &DelayModel) -> u64 {
    match model {
        DelayModel::Unit => 1,
        DelayModel::Fixed(d) => (*d).max(1),
        DelayModel::Random { min, .. } => (*min).max(1),
    }
}

/// `true` when every present-state net `y` agrees with its next-state net
/// `Y`. The initialization holds `y` at the source code and skips the
/// feedback buffers that drive it, so nothing is queued to correct a `y`
/// that its `Y` disagrees with. A step that starts from a stable total
/// state and settles also ends in one: every feedback buffer has evaluated
/// its latest input by then, so only the start needs the check.
fn is_stable_total_state(machine: &FantomNetlist, sim: &Simulator<'_>) -> bool {
    (machine.y.iter().zip(&machine.y_next)).all(|(&y, &next)| sim.value(y) == sim.value(next))
}

/// Run one delay assignment: build the simulator once, drive the selected
/// transitions through it, and count what happened. The worker's `memo`
/// initializes each step under its transition index and, with the oracle
/// on, predicts its zero-delay fixpoint.
fn run_assignment<'a>(
    parts: &MachineParts<'_>,
    machine: &'a FantomNetlist,
    transitions: &[StableTransition],
    protected: &[bool],
    options: &CampaignOptions,
    memo: &mut StepMemo<'a>,
    assignment: usize,
) -> CampaignReport {
    let model = DELAYS.model_for_trial(options.seed, assignment);
    // Loop-delay assumption, sized exactly as the validation harness does.
    let loop_delay = (parts.total_depth as u64 + 4) * model.max_delay() * 2;
    let build = || {
        let mut b = Simulator::builder(&machine.netlist)
            .delay_model(model.clone())
            .style(DelayStyle::Inertial)
            .event_budget(EVENT_BUDGET);
        for gates in &machine.loop_gates {
            for &g in gates {
                b = b.gate_delay(g, loop_delay);
            }
        }
        for &net in machine
            .y
            .iter()
            .chain(&machine.z)
            .chain([&machine.fsv, &machine.ssd])
        {
            b = b.monitor(net);
        }
        b.build()
    };

    let mut counters = CampaignReport::empty(machine);
    let mut harness = Harness::new(build(), memo, options.oracle);

    let all = options.steps_every_transition(transitions.len());
    let step_count = if all {
        transitions.len()
    } else {
        options.sequences_per_assignment
    };
    let skew_max = 1.min(min_gate_delay(&model) - 1);

    for step_no in 0..step_count {
        let ti = if all {
            step_no
        } else {
            (derive_seed(
                options.seed ^ 0x7261_6E64,
                ((assignment as u64) << 24) | step_no as u64,
            ) % transitions.len() as u64) as usize
        };
        let t = &transitions[ti];
        let from_code = parts.spec.code(t.from_state);
        let to_code = parts.spec.code(t.to_state);

        // Per-step RNG stream, independent of worker scheduling.
        let mut rng = StdRng::seed_from_u64(derive_seed(
            options.seed ^ 0x5EED_CAFE,
            ((assignment as u64) << 24) | step_no as u64,
        ));

        let fixed: Vec<(NetId, bool)> = (machine.x.iter().zip(t.from_input.as_slice()))
            .chain(machine.y.iter().zip(from_code.as_slice()))
            .map(|(&net, &bit)| (net, bit))
            .collect();
        if harness.init(ti, &fixed).is_err() || !is_stable_total_state(machine, harness.sim()) {
            counters.init_failures += 1;
            counters.events += harness.sim().events_processed();
            harness = Harness::new(build(), memo, options.oracle);
            continue;
        }

        let changes: Vec<(NetId, bool, u64)> = machine
            .x
            .iter()
            .enumerate()
            .filter(|&(i, _)| t.from_input.bit(i) != t.to_input.bit(i))
            .map(|(i, &net)| {
                let skew = if skew_max > 0 {
                    rng.gen_range(0..=skew_max)
                } else {
                    0
                };
                (net, t.to_input.bit(i), 1 + skew)
            })
            .collect();
        let outcome = harness.step(ti, &changes);
        counters.steps += 1;
        let checks = if protected[ti] {
            counters.protected_steps += 1;
            &mut counters.protected
        } else {
            counters.unprotected_steps += 1;
            &mut counters.unprotected
        };

        if outcome.error.is_some() {
            checks.settle_failures += 1;
            counters.events += harness.sim().events_processed();
            harness = Harness::new(build(), memo, options.oracle);
            continue;
        }

        // Glitch accounting, windowed to this step.
        for (i, &net) in machine.y.iter().enumerate() {
            let wave = harness.sim().waveform(net).expect("monitored");
            let changes_seen = analysis::transitions_since(wave, outcome.start_time) as u64;
            if from_code.bit(i) == to_code.bit(i) {
                checks.invariant_glitches += changes_seen;
                checks.glitches_per_var[i] += changes_seen;
            } else if changes_seen > 1 {
                checks.excess_state_changes += changes_seen - 1;
            }
        }

        // Output-variable glitch histogram: counted where the specified
        // output bit is invariant across the step (both endpoint entries
        // specified and equal); informational, like the Z analytic verdicts.
        let from_out = parts.table.output(t.from_state, t.from_input.index());
        let to_out = parts.table.output(t.to_state, t.to_input.index());
        if let (Some(from_out), Some(to_out)) = (&from_out, &to_out) {
            for (i, &net) in machine.z.iter().enumerate() {
                if from_out.bit(i) == to_out.bit(i) {
                    let wave = harness.sim().waveform(net).expect("monitored");
                    counters.output_glitches_per_var[i] +=
                        analysis::transitions_since(wave, outcome.start_time) as u64;
                }
            }
        }

        let state_ok = machine
            .y
            .iter()
            .enumerate()
            .all(|(i, &net)| harness.sim().value(net) == to_code.bit(i));
        if !state_ok {
            checks.wrong_final_state += 1;
        }
        if let Some(out) = parts.table.output(t.to_state, t.to_input.index()) {
            let out_ok = machine
                .z
                .iter()
                .enumerate()
                .all(|(i, &net)| harness.sim().value(net) == out.bit(i));
            if !out_ok {
                checks.wrong_final_output += 1;
            }
        }

        match outcome.oracle {
            OracleVerdict::Disagreed { .. } => checks.oracle_disagreements += 1,
            OracleVerdict::Unstable { .. } => counters.oracle_unstable += 1,
            OracleVerdict::Agreed | OracleVerdict::Skipped => {}
        }
    }
    counters.events += harness.sim().events_processed();
    counters
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::{synthesize_sparse, SynthesisOptions};
    use fantom_flow::benchmarks;

    fn small_options() -> CampaignOptions {
        CampaignOptions {
            assignments: 8,
            workers: 1,
            ..CampaignOptions::default()
        }
    }

    fn lion() -> SparseSynthesisResult {
        let options = SynthesisOptions {
            minimize_states: false,
            ..SynthesisOptions::default()
        };
        synthesize_sparse(&benchmarks::lion(), &options).unwrap()
    }

    #[test]
    fn lion_campaign_is_clean() {
        let report = run_campaign_sparse(&lion(), &small_options());
        assert!(report.steps > 0);
        assert!(report.protected_steps > 0);
        assert!(report.is_clean(), "{}", report.render());
    }

    /// The machines of the perfbench `campaign` workload: the small corpus,
    /// and the large suite and the grid files under the large-machine
    /// options.
    fn campaign_machines() -> Vec<SparseSynthesisResult> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
        let grid = benchmarks::import_kiss_dir(&dir).expect("grid files import");
        let large = SynthesisOptions::for_large_machines();
        let small = benchmarks::all()
            .into_iter()
            .map(|t| (t, SynthesisOptions::default()));
        let tables: Vec<_> = small
            .chain(
                benchmarks::large_suite()
                    .into_iter()
                    .chain(grid)
                    .map(|t| (t, large)),
            )
            .collect();
        assert_eq!(tables.len(), 20, "the campaign workload's machines");
        tables
            .iter()
            .map(|(t, options)| synthesize_sparse(t, options).expect("corpus machine"))
            .collect()
    }

    /// A worker's step memo serves every assignment after its first, so on
    /// every machine of the perfbench `campaign` workload one worker runs
    /// the initialization rounds and settles the oracle once per stable
    /// transition over 16 assignments, with the oracle on and off. Two
    /// workers run the rounds at most twice per transition: once on the
    /// worker that runs assignment 0, and once on the other before it adopts
    /// the copy of that worker's memo.
    ///
    /// The memo also replays runs across the 12 assignments of unit,
    /// minimum and maximum delays, which are one assignment at three time
    /// scales, and the unit assignments after the first do not run at all.
    /// With T transitions, T_mic of them multiple-input changes, one worker
    /// runs the event loop on every transition under assignment 0 and the
    /// four random assignments, on no single-input transition under the
    /// eight of minimum or maximum delays, and on each multiple-input one at
    /// most once per input skew pattern: between 5T and 5T + 8·T_mic steps.
    ///
    /// Two workers fill their memos apart only once the first run's copy is
    /// adopted, so beyond the steps of one worker they run only the skew
    /// patterns both meet, and, should a worker claim an assignment of
    /// minimum or maximum delays before that copy is published, the runs of
    /// one such assignment. Summed over the machines, they run the event loop
    /// at most T more times than one worker: fewer than a second worker that
    /// starts from an empty memo adds, since it fills every transition of
    /// its first such assignment again.
    #[test]
    fn one_worker_settles_the_oracle_once_per_transition() {
        let options = |workers, oracle| CampaignOptions {
            assignments: 16,
            workers,
            oracle,
            ..CampaignOptions::default()
        };
        // Summed over the machines: T, and the steps of one and of two workers.
        let (mut total, mut one, mut two) = (0, 0, 0);
        for result in campaign_machines() {
            let stable = result.reduced_table.stable_transitions();
            let transitions = stable.len() as u64;
            let mic = stable.iter().filter(|t| t.input_distance() > 1).count() as u64;
            for oracle in [true, false] {
                let (report, fills) = campaign_with_fills(&result, &options(1, oracle));
                let at = format!("{} oracle {oracle}: {fills:?}", report.machine);
                assert_eq!(report.steps, 16 * transitions, "{at}");
                assert_eq!(fills.inits, transitions, "{at}");
                let predictions = if oracle { transitions } else { 0 };
                assert_eq!(fills.predictions, predictions, "{at}");
                let steps = 5 * transitions..=5 * transitions + 8 * mic;
                assert!(steps.contains(&fills.steps), "{at}");
                one += if oracle { fills.steps } else { 0 };
            }
            let (report, fills) = campaign_with_fills(&result, &options(2, true));
            let at = format!("{} two workers: {fills:?}", report.machine);
            assert!(fills.inits <= 2 * transitions, "{at}");
            total += transitions;
            two += fills.steps;
        }
        assert!(
            two <= one + total,
            "two workers {two}, one {one}, T {total}"
        );
    }

    /// The report of a campaign whose every assignment runs on a fresh
    /// memo, merged in assignment order: nothing is served from an earlier
    /// assignment, copied from another worker or merged for a run that did
    /// not happen.
    fn fresh_memo_report(
        result: &SparseSynthesisResult,
        options: &CampaignOptions,
    ) -> CampaignReport {
        let parts = &MachineParts::from(result);
        let machine = emit_parts(parts, options.loop_stages);
        let transitions = parts.table.stable_transitions();
        let protected: Vec<bool> = (transitions.iter())
            .map(|t| is_protected(parts.table, t))
            .collect();
        let mut merged = CampaignReport {
            machine: parts.name.to_string(),
            assignments: options.assignments,
            analytic: analytic_verdicts(parts),
            ..CampaignReport::empty(&machine)
        };
        for a in 0..options.assignments {
            let memo = &mut StepMemo::with_capacity(transitions.len());
            let report =
                run_assignment(parts, &machine, &transitions, &protected, options, memo, a);
            merged.merge(&report);
        }
        merged
    }

    /// Every report of the perfbench `campaign` machines equals the one
    /// computed with each assignment on its own fresh memo, at 1, 2, 3 and
    /// 8 workers: over 16 assignments with every transition in order, with
    /// the oracle on and off, where the unit assignments run once and the
    /// other workers adopt the first run's memo, and over 32 sequences per
    /// assignment, which on the machines of more than 32 transitions are drawn
    /// from the seed, so every assignment runs.
    #[test]
    fn reports_match_a_fresh_memo_per_assignment() {
        let options = |oracle, sequences_per_assignment| CampaignOptions {
            assignments: 16,
            oracle,
            sequences_per_assignment,
            ..CampaignOptions::default()
        };
        for result in campaign_machines() {
            for options in [options(true, 0), options(false, 0), options(true, 32)] {
                let expected = fresh_memo_report(&result, &options);
                for workers in [1, 2, 3, 8] {
                    let report =
                        run_campaign_sparse(&result, &CampaignOptions { workers, ..options });
                    let at = format!("{} {options:?} workers {workers}", report.machine);
                    assert_eq!(report, expected, "{at}");
                }
            }
        }
    }

    #[test]
    fn single_input_changes_are_always_protected() {
        let table = benchmarks::lion();
        for t in table.stable_transitions() {
            if t.input_distance() == 1 {
                assert!(is_protected(&table, &t));
            }
        }
    }

    /// A report of two state variables and one output whose every counter
    /// is nonzero, each distinct from the others and from those of any other
    /// `base`, so a sum, a rendering or a check that reads the wrong counter
    /// shows.
    fn filled(base: u64) -> CampaignReport {
        CampaignReport {
            machine: "m".into(),
            assignments: 3,
            steps: base + 1000,
            protected_steps: base + 600,
            unprotected_steps: base + 400,
            events: base + 123_456,
            init_failures: base + 1,
            protected: StepChecks {
                settle_failures: base + 2,
                wrong_final_state: base + 4,
                wrong_final_output: base + 5,
                invariant_glitches: base + 6,
                glitches_per_var: vec![base + 7, base + 8],
                excess_state_changes: base + 13,
                oracle_disagreements: base + 17,
            },
            unprotected: StepChecks {
                settle_failures: base + 3,
                wrong_final_state: base + 14,
                wrong_final_output: base + 15,
                invariant_glitches: base + 9,
                glitches_per_var: vec![base + 10, base + 11],
                excess_state_changes: base + 16,
                oracle_disagreements: base + 18,
            },
            output_glitches_per_var: vec![base + 12],
            oracle_unstable: base + 19,
            analytic: AnalyticVerdicts {
                fsv_hazard_free: true,
                y_hazard_free: vec![true, false],
                ssd_hazard_free: false,
                z_hazard_free: vec![true],
            },
        }
    }

    #[test]
    fn report_rendering_is_stable() {
        let result = lion();
        let a = run_campaign_sparse(&result, &small_options()).render();
        let b = run_campaign_sparse(&result, &small_options()).render();
        assert_eq!(a, b);
        assert!(a.starts_with("campaign lion\n"));
        assert!(a.contains("unprotected_wrong_state=0 unprotected_wrong_output=0"));

        // Every counter in its place, after a merge adds each one.
        let mut merged = filled(0);
        merged.merge(&filled(100));
        assert_eq!(
            merged.render(),
            "campaign m\n\
             assignments=3 steps=2100 protected=1300 unprotected=900 events=247012\n\
             init_failures=102 settle_failures=104/106 wrong_state=108 wrong_output=110\n\
             invariant_glitches=112/118 per_var=[114,116] excess_changes=126\n\
             unprotected_per_var=[120,122] output_per_var=[124]\n\
             unprotected_wrong_state=128 unprotected_wrong_output=130 unprotected_excess_changes=132\n\
             oracle_disagreements=134/136 oracle_unstable=138\n\
             analytic fsv=1 y=10 ssd=0 z=1\n\
             clean=false\n"
        );
    }

    #[test]
    fn only_strict_checks_make_a_report_unclean() {
        // Each clears one strict check of `filled(0)`.
        let strict: [fn(&mut CampaignReport); 7] = [
            |r| r.init_failures = 0,
            |r| r.protected.settle_failures = 0,
            |r| r.protected.wrong_final_state = 0,
            |r| r.protected.wrong_final_output = 0,
            |r| r.protected.excess_state_changes = 0,
            |r| r.protected.oracle_disagreements = 0,
            // Only variable 0 is analytically hazard-free.
            |r| r.protected.glitches_per_var[0] = 0,
        ];
        let mut clean = filled(0);
        strict.iter().for_each(|clear| clear(&mut clean));
        // The informational checks and variable 1's glitches stay nonzero.
        assert!(clean.is_clean(), "{}", clean.render());
        for k in 0..strict.len() {
            let mut report = filled(0);
            for (j, clear) in strict.iter().enumerate() {
                if j != k {
                    clear(&mut report);
                }
            }
            assert!(!report.is_clean(), "strict check {k}: {}", report.render());
        }
    }

    #[test]
    fn sparse_entry_point_matches_machine_shape() {
        let result =
            synthesize_sparse(&benchmarks::traffic(), &SynthesisOptions::default()).unwrap();
        let report = run_campaign_sparse(&result, &small_options());
        assert_eq!(report.machine, "traffic");
        assert!(report.steps > 0);
        assert_eq!(
            report.protected.glitches_per_var.len(),
            result.spec.num_state_vars()
        );
    }
}
