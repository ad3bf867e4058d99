//! Monte-Carlo hazard-validation campaigns over synthesized FANTOM machines.
//!
//! A campaign takes a synthesis result, emits the gate-level machine and
//! drives it through its stable-state transitions (single- *and*
//! multiple-input-change) under many sampled delay assignments — unit,
//! all-minimum, all-maximum and seeded-random styles, round-robin per
//! assignment — checking three things against each other:
//!
//! * **observed behaviour** — settling, final state/output correctness, and
//!   glitch counts on the invariant state variables, windowed per step;
//! * **analytical verdicts** — `fantom_boolean::hazard::is_static_hazard_free`
//!   on the factored `fsv`/`Y` covers (and informationally on `Z`/`SSD`):
//!   a variable whose cover is analytically hazard-free must never glitch on
//!   a protected transition;
//! * **a zero-delay differential oracle** — the dirty-flag propagation
//!   engine of `fantom_sim::campaign` predicts the settled fixpoint, and the
//!   event-driven simulator must agree wherever the machine's behaviour is
//!   delay-independent.
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
//! divergences (`unprotected_*` counters) are informational and never make a
//! report unclean. Single-input changes have no intermediate columns and are
//! always protected.
//!
//! All randomness derives from `(campaign seed, assignment, step)` via
//! split-mix streams, so a report is byte-identical for any worker count —
//! the worker pool reuses the claim-counter pattern of
//! [`crate::synthesize_many`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fantom_boolean::hazard::is_static_hazard_free;
use fantom_flow::{Bits, FlowTable, StableTransition};
use fantom_sim::analysis;
use fantom_sim::campaign::{derive_seed, DelaySweep, Harness, OracleVerdict};
use fantom_sim::{DelayModel, DelayStyle, NetId, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::emit::{emit_parts, FantomNetlist, MachineParts};
use crate::service::effective_parallelism;
use crate::SparseSynthesisResult;

/// Configuration of a validation campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Number of sampled delay assignments (trials).
    pub assignments: usize,
    /// Campaign seed; every delay draw and input skew derives from it.
    pub seed: u64,
    /// Smallest sampled gate delay.
    pub delay_min: u64,
    /// Largest sampled gate delay.
    pub delay_max: u64,
    /// Input-change steps per assignment; `0` exercises every stable
    /// transition of the table once per assignment.
    pub sequences_per_assignment: usize,
    /// Event budget per simulator run.
    pub event_budget: usize,
    /// Worker threads; `0` uses the host's available parallelism.
    pub workers: usize,
    /// Cross-check settled states against the zero-delay oracle.
    pub oracle: bool,
    /// Feedback buffer stages per state variable (the campaign raises their
    /// delay to enforce the loop-delay assumption regardless).
    pub loop_stages: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            assignments: 64,
            seed: 0x5EAC_CE01,
            delay_min: 4,
            delay_max: 9,
            sequences_per_assignment: 0,
            event_budget: 200_000,
            workers: 0,
            oracle: true,
            loop_stages: 1,
        }
    }
}

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
    /// Steps whose initial fixpoint could not be established.
    pub init_failures: u64,
    /// Protected steps that did not settle within the event budget.
    pub protected_settle_failures: u64,
    /// Unprotected steps that did not settle (informational: a race may
    /// legitimately cycle through unspecified entries).
    pub unprotected_settle_failures: u64,
    /// Protected steps ending in the wrong state code.
    pub wrong_final_state: u64,
    /// Protected steps ending with wrong (specified) output bits.
    pub wrong_final_output: u64,
    /// Glitches on invariant state variables during protected steps.
    pub protected_invariant_glitches: u64,
    /// Same, broken down per state variable (cross-checked against
    /// [`AnalyticVerdicts::y_hazard_free`]).
    pub protected_glitches_per_var: Vec<u64>,
    /// Glitches on invariant state variables during unprotected steps
    /// (informational).
    pub unprotected_invariant_glitches: u64,
    /// Same, broken down per state variable (informational — unprotected
    /// trajectories may pass through unspecified entries).
    pub unprotected_glitches_per_var: Vec<u64>,
    /// Glitches per output variable on steps whose specified output bit is
    /// invariant (informational — `Z` is latched by the capture stage, so
    /// pulses here are tolerated but worth surfacing).
    pub output_glitches_per_var: Vec<u64>,
    /// Extra transitions (beyond the single USTT change) on changing state
    /// variables during protected steps.
    pub excess_state_changes: u64,
    /// Unprotected steps ending in the wrong state code (informational).
    pub unprotected_wrong_final_state: u64,
    /// Unprotected steps ending with wrong (specified) output bits
    /// (informational).
    pub unprotected_wrong_final_output: u64,
    /// Extra transitions on changing state variables during unprotected
    /// steps (informational).
    pub unprotected_excess_state_changes: u64,
    /// Protected steps where the zero-delay oracle disagreed with the
    /// settled simulator state.
    pub protected_oracle_disagreements: u64,
    /// Unprotected steps where the oracle disagreed (informational: races
    /// may resolve differently than the zero-delay interleaving).
    pub unprotected_oracle_disagreements: u64,
    /// Steps where the oracle found no zero-delay fixpoint.
    pub oracle_unstable: u64,
    /// Analytical hazard verdicts the observations are checked against.
    pub analytic: AnalyticVerdicts,
}

impl CampaignReport {
    /// `true` when every strict (protected-transition) check passed and no
    /// analytically hazard-free state variable ever glitched.
    pub fn is_clean(&self) -> bool {
        self.init_failures == 0
            && self.protected_settle_failures == 0
            && self.wrong_final_state == 0
            && self.wrong_final_output == 0
            && self.excess_state_changes == 0
            && self.protected_oracle_disagreements == 0
            && self
                .analytic
                .y_hazard_free
                .iter()
                .zip(&self.protected_glitches_per_var)
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
            self.protected_settle_failures,
            self.unprotected_settle_failures,
            self.wrong_final_state,
            self.wrong_final_output,
            self.protected_invariant_glitches,
            self.unprotected_invariant_glitches,
            fmt_counts(&self.protected_glitches_per_var),
            self.excess_state_changes,
            fmt_counts(&self.unprotected_glitches_per_var),
            fmt_counts(&self.output_glitches_per_var),
            self.unprotected_wrong_final_state,
            self.unprotected_wrong_final_output,
            self.unprotected_excess_state_changes,
            self.protected_oracle_disagreements,
            self.unprotected_oracle_disagreements,
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
    /// An all-zero report sized to the machine: one per delay assignment,
    /// merged in assignment order into the campaign's report.
    fn empty(
        machine: String,
        analytic: AnalyticVerdicts,
        num_vars: usize,
        num_outputs: usize,
    ) -> Self {
        CampaignReport {
            machine,
            protected_glitches_per_var: vec![0; num_vars],
            unprotected_glitches_per_var: vec![0; num_vars],
            output_glitches_per_var: vec![0; num_outputs],
            analytic,
            ..CampaignReport::default()
        }
    }

    /// Add every step counter of `other` (one assignment's report) to `self`.
    fn merge(&mut self, other: &CampaignReport) {
        let add = |a: &mut Vec<u64>, b: &[u64]| a.iter_mut().zip(b).for_each(|(a, b)| *a += b);
        self.steps += other.steps;
        self.protected_steps += other.protected_steps;
        self.unprotected_steps += other.unprotected_steps;
        self.events += other.events;
        self.init_failures += other.init_failures;
        self.protected_settle_failures += other.protected_settle_failures;
        self.unprotected_settle_failures += other.unprotected_settle_failures;
        self.wrong_final_state += other.wrong_final_state;
        self.wrong_final_output += other.wrong_final_output;
        self.protected_invariant_glitches += other.protected_invariant_glitches;
        add(
            &mut self.protected_glitches_per_var,
            &other.protected_glitches_per_var,
        );
        self.unprotected_invariant_glitches += other.unprotected_invariant_glitches;
        add(
            &mut self.unprotected_glitches_per_var,
            &other.unprotected_glitches_per_var,
        );
        add(
            &mut self.output_glitches_per_var,
            &other.output_glitches_per_var,
        );
        self.excess_state_changes += other.excess_state_changes;
        self.unprotected_wrong_final_state += other.unprotected_wrong_final_state;
        self.unprotected_wrong_final_output += other.unprotected_wrong_final_output;
        self.unprotected_excess_state_changes += other.unprotected_excess_state_changes;
        self.protected_oracle_disagreements += other.protected_oracle_disagreements;
        self.unprotected_oracle_disagreements += other.unprotected_oracle_disagreements;
        self.oracle_unstable += other.oracle_unstable;
    }
}

/// Run a campaign over a synthesis result.
pub fn run_campaign_sparse(
    result: &SparseSynthesisResult,
    options: &CampaignOptions,
) -> CampaignReport {
    let parts = &MachineParts::from(result);
    let machine = emit_parts(parts, options.loop_stages.max(1));
    let transitions = parts.table.stable_transitions();
    let protected: Vec<bool> = transitions
        .iter()
        .map(|t| is_protected(parts.table, t))
        .collect();
    let analytic = analytic_verdicts(parts);
    let num_vars = machine.y.len();
    let num_outputs = machine.z.len();

    let n = options.assignments;
    let mut merged = CampaignReport {
        assignments: n,
        ..CampaignReport::empty(parts.name.to_string(), analytic, num_vars, num_outputs)
    };
    if n > 0 && !transitions.is_empty() {
        let workers = effective_parallelism(options.workers).min(n);
        if workers <= 1 {
            for a in 0..n {
                let c = run_assignment(parts, &machine, &transitions, &protected, options, a);
                merged.merge(&c);
            }
        } else {
            // Claim-counter pool (the `synthesize_many` pattern): workers
            // pull assignment indices from a shared atomic; per-assignment
            // counters land in submission-order slots, so the merge below is
            // independent of scheduling.
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<CampaignReport>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let a = next.fetch_add(1, Ordering::Relaxed);
                        if a >= n {
                            break;
                        }
                        let c =
                            run_assignment(parts, &machine, &transitions, &protected, options, a);
                        *slots[a].lock().expect("slot lock") = Some(c);
                    });
                }
            });
            for slot in slots {
                let c = slot
                    .into_inner()
                    .expect("slot lock")
                    .expect("every slot filled");
                merged.merge(&c);
            }
        }
    }

    merged
}

/// A transition is *protected* when every intermediate input column of the
/// multiple-input change is specified to lead to the destination state (see
/// the module docs). Single-input changes are trivially protected.
fn is_protected(table: &FlowTable, t: &StableTransition) -> bool {
    let width = t.from_input.width();
    let diffs: Vec<usize> = (0..width)
        .filter(|&i| t.from_input.bit(i) != t.to_input.bit(i))
        .collect();
    for mask in 0..(1u64 << diffs.len()) {
        let mut bits: Vec<bool> = (0..width).map(|i| t.from_input.bit(i)).collect();
        for (k, &pos) in diffs.iter().enumerate() {
            if (mask >> k) & 1 == 1 {
                bits[pos] = t.to_input.bit(pos);
            }
        }
        let col = Bits::from_bools(bits).index();
        if col == t.from_input.index() {
            continue;
        }
        if table.next_state(t.from_state, col) != Some(t.to_state) {
            return false;
        }
    }
    true
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

/// Run one delay assignment: build the simulator once, drive the selected
/// transitions through it, and count what happened.
fn run_assignment(
    parts: &MachineParts<'_>,
    machine: &FantomNetlist,
    transitions: &[StableTransition],
    protected: &[bool],
    options: &CampaignOptions,
    assignment: usize,
) -> CampaignReport {
    let sweep = DelaySweep {
        min: options.delay_min,
        max: options.delay_max,
    };
    let model = sweep.model_for_trial(options.seed, assignment);
    // Loop-delay assumption, sized exactly as the validation harness does.
    let loop_delay = (parts.total_depth as u64 + 4) * model.max_delay() * 2;
    let build = || {
        let mut b = Simulator::builder(&machine.netlist)
            .delay_model(model.clone())
            .style(DelayStyle::Inertial)
            .event_budget(options.event_budget);
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

    let mut counters = CampaignReport::empty(
        String::new(),
        AnalyticVerdicts::default(),
        machine.y.len(),
        machine.z.len(),
    );
    let mut harness = Harness::new(build(), options.oracle);

    let all = options.sequences_per_assignment == 0
        || options.sequences_per_assignment >= transitions.len();
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
        let prot = protected[ti];
        let from_code = parts.spec.code(t.from_state).clone();
        let to_code = parts.spec.code(t.to_state).clone();

        // Per-step RNG stream, independent of worker scheduling.
        let mut rng = StdRng::seed_from_u64(derive_seed(
            options.seed ^ 0x5EED_CAFE,
            ((assignment as u64) << 24) | step_no as u64,
        ));

        let mut fixed: Vec<(NetId, bool)> = Vec::with_capacity(machine.x.len() + machine.y.len());
        for (i, &net) in machine.x.iter().enumerate() {
            fixed.push((net, t.from_input.bit(i)));
        }
        for (i, &net) in machine.y.iter().enumerate() {
            fixed.push((net, from_code.bit(i)));
        }
        if harness.init(&fixed).is_err() {
            counters.init_failures += 1;
            counters.events += harness.sim().events_processed();
            harness = Harness::new(build(), options.oracle);
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
        let outcome = harness.step(&changes);
        counters.steps += 1;
        if prot {
            counters.protected_steps += 1;
        } else {
            counters.unprotected_steps += 1;
        }

        if outcome.error.is_some() {
            if prot {
                counters.protected_settle_failures += 1;
            } else {
                counters.unprotected_settle_failures += 1;
            }
            counters.events += harness.sim().events_processed();
            harness = Harness::new(build(), options.oracle);
            continue;
        }

        // Glitch accounting, windowed to this step.
        for (i, &net) in machine.y.iter().enumerate() {
            let wave = harness.sim().waveform(net).expect("monitored");
            let changes_seen = analysis::transitions_since(wave, outcome.start_time) as u64;
            if from_code.bit(i) == to_code.bit(i) {
                if prot {
                    counters.protected_invariant_glitches += changes_seen;
                    counters.protected_glitches_per_var[i] += changes_seen;
                } else {
                    counters.unprotected_invariant_glitches += changes_seen;
                    counters.unprotected_glitches_per_var[i] += changes_seen;
                }
            } else if changes_seen > 1 {
                if prot {
                    counters.excess_state_changes += changes_seen - 1;
                } else {
                    counters.unprotected_excess_state_changes += changes_seen - 1;
                }
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
            if prot {
                counters.wrong_final_state += 1;
            } else {
                counters.unprotected_wrong_final_state += 1;
            }
        }
        if let Some(out) = parts.table.output(t.to_state, t.to_input.index()) {
            let out_ok = machine
                .z
                .iter()
                .enumerate()
                .all(|(i, &net)| harness.sim().value(net) == out.bit(i));
            if !out_ok {
                if prot {
                    counters.wrong_final_output += 1;
                } else {
                    counters.unprotected_wrong_final_output += 1;
                }
            }
        }

        match outcome.oracle {
            OracleVerdict::Disagreed { .. } => {
                if prot {
                    counters.protected_oracle_disagreements += 1;
                } else {
                    counters.unprotected_oracle_disagreements += 1;
                }
            }
            OracleVerdict::Unstable { .. } => counters.oracle_unstable += 1,
            OracleVerdict::Agreed | OracleVerdict::Skipped => {}
        }
    }
    counters.events += harness.sim().events_processed();
    counters
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn single_input_changes_are_always_protected() {
        let table = benchmarks::lion();
        for t in table.stable_transitions() {
            if t.input_distance() == 1 {
                assert!(is_protected(&table, &t));
            }
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
    }

    #[test]
    fn sparse_entry_point_matches_machine_shape() {
        let result =
            synthesize_sparse(&benchmarks::traffic(), &SynthesisOptions::default()).unwrap();
        let report = run_campaign_sparse(&result, &small_options());
        assert_eq!(report.machine, "traffic");
        assert!(report.steps > 0);
        assert_eq!(
            report.protected_glitches_per_var.len(),
            result.spec.num_state_vars()
        );
    }
}
