//! Differential fuzzing of the synthesis pipeline against its dense oracle.
//!
//! The fuzz loop closes the circle the rest of the crate only samples:
//! [`fantom_flow::generate`] draws a random-but-valid flow-table shape, the
//! pipeline synthesizes it under the shipped large-machine options
//! ([`SynthesisOptions::for_large_machines`]), and every factored `fsv`, `Y`,
//! `Z` and `SSD` cover is held against the function the minterm-wise oracle
//! builders tabulate for the same table ([`fsv::fsv_function`],
//! [`fsv::y_functions`], [`SpecifiedTable::output_functions`](crate::SpecifiedTable::output_functions),
//! [`SpecifiedTable::ssd_function`](crate::SpecifiedTable::ssd_function)) —
//! whenever the machine fits [`MAX_DENSE_VARS`] — before the result is
//! validated end to end by a Monte-Carlo delay campaign
//! ([`crate::run_campaign_sparse`]). Any discrepancy is a bug by
//! construction, because the generator only emits tables that pass
//! [`fantom_flow::validate`].
//!
//! Failing tables are [`shrink`]-minimized by greedy row deletion, input-column
//! projection and don't-care re-introduction while the failure reproduces, so
//! a fuzz finding lands as a small human-readable KISS2 table ready to check
//! into `tests/fuzz_regressions/`.
//!
//! Every case is keyed `(seed, case index)` through the same SplitMix
//! derivation the generator uses, so case `k` of seed `s` is the same machine
//! on every platform regardless of how many cases a wall-clock budget admits.
//!
//! # Example
//!
//! ```
//! use seance::fuzz::{run_fuzz, FuzzOptions};
//!
//! let report = run_fuzz(&FuzzOptions {
//!     max_cases: 2,
//!     budget: std::time::Duration::from_secs(60),
//!     ..FuzzOptions::default()
//! });
//! assert_eq!(report.cases, 2);
//! assert!(report.is_clean(), "{}", report.render());
//! ```

use std::time::{Duration, Instant};

use fantom_boolean::{Cover, Function, MAX_DENSE_VARS};
use fantom_flow::generate::{generate, GeneratorOptions};
use fantom_flow::{kiss, validate, FlowTable, StateId};
use fantom_sim::campaign::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    fsv, run_campaign_sparse, synthesize_sparse, CampaignOptions, SparseSynthesisResult,
    SynthesisError, SynthesisOptions,
};

/// Configuration of a fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOptions {
    /// Base seed; case `k` draws its generator shape from the SplitMix stream
    /// `(seed, k)`.
    pub seed: u64,
    /// Wall-clock budget. The loop stops before starting a case that would
    /// begin past the budget; the cases that do run are identical for a given
    /// seed no matter where the clock cuts off.
    pub budget: Duration,
    /// Hard case cap; `0` means budget-only.
    pub max_cases: usize,
    /// Delay assignments per validation campaign. Small values keep the loop
    /// fast; every assignment still exercises every stable transition of the
    /// machine once.
    pub campaign_assignments: usize,
    /// Shrink failing tables before reporting them.
    pub shrink: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0x5EED_FA22,
            budget: Duration::from_secs(60),
            max_cases: 0,
            campaign_assignments: 4,
            shrink: true,
        }
    }
}

/// One confirmed discrepancy, with the shrunk reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Case index within the run (reproduce with the run seed and this index).
    pub case: usize,
    /// Generator shape that produced the failing table.
    pub options: GeneratorOptions,
    /// What failed: a differential mismatch or an unclean campaign.
    pub message: String,
    /// The original failing table, as KISS2 text.
    pub table_kiss: String,
    /// The shrunk reproducer (equal to `table_kiss` when shrinking is off or
    /// no move preserved the failure), as KISS2 text.
    pub shrunk_kiss: String,
}

/// Aggregate result of [`run_fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: usize,
    /// Cases where the machine fit the dense oracle, so every cover was
    /// checked against it (the rest were campaign-validated only).
    pub differential_cases: usize,
    /// Campaigns run (one per case that synthesized).
    pub campaign_cases: usize,
    /// Confirmed failures, shrunk reproducers included.
    pub failures: Vec<FuzzFailure>,
    /// Wall-clock time consumed.
    pub elapsed: Duration,
}

impl FuzzReport {
    /// `true` when no case produced a differential or campaign mismatch.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable summary; failure reproducers are printed in full so a
    /// CI log alone suffices to pin a regression test.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fuzz: {} cases ({} differential, {} campaigns) in {:.1}s — {}\n",
            self.cases,
            self.differential_cases,
            self.campaign_cases,
            self.elapsed.as_secs_f64(),
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} FAILURES", self.failures.len())
            }
        );
        for f in &self.failures {
            out.push_str(&format!(
                "\ncase {} ({:?}):\n  {}\nshrunk reproducer:\n{}\n",
                f.case, f.options, f.message, f.shrunk_kiss
            ));
        }
        out
    }
}

/// Sample the generator shape for case `case` of `seed`. Pure function of its
/// arguments: the sampled knobs are independent of every other case.
pub fn sample_options(seed: u64, case: usize) -> GeneratorOptions {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, case as u64));
    GeneratorOptions {
        states: rng.gen_range(3..=14),
        inputs: rng.gen_range(2..=4),
        outputs: rng.gen_range(1..=3),
        dc_density: rng.gen_range(0u32..=100) as f64 / 100.0,
        fan_in: rng.gen_range(1..=4),
        chain_depth: rng.gen_range(1..=5),
        mic_stable_columns: rng.gen_range(0..=2),
        redundant_clusters: rng.gen_range(0..=2),
        seed: rng.gen_range(0..u64::MAX),
    }
}

/// Outcome bookkeeping for one clean case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseOutcome {
    /// The machine fit the dense oracle, so every cover was checked against
    /// it (not just the campaign).
    pub differential: bool,
}

/// Run the full fuzz check on one table: synthesis under
/// [`SynthesisOptions::for_large_machines`], the oracle differential (when
/// the machine has at most [`MAX_DENSE_VARS`] extended variables), and a
/// validation campaign on the result.
///
/// # Errors
///
/// Returns a description of the first discrepancy found: a pipeline that
/// failed on a generator-certified-valid table, a cover that does not
/// implement its oracle function, or an unclean campaign report.
pub fn check_table(table: &FlowTable, campaign_assignments: usize) -> Result<CaseOutcome, String> {
    let result = synthesize_sparse(table, &SynthesisOptions::for_large_machines())
        .map_err(|e| format!("synthesis failed on a valid table: {e}"))?;

    let differential = result.spec.num_vars_extended() <= MAX_DENSE_VARS;
    if differential {
        check_against_oracle(&result)?;
    }

    let report = run_campaign_sparse(
        &result,
        &CampaignOptions {
            assignments: campaign_assignments.max(1),
            ..CampaignOptions::default()
        },
    );
    if !report.is_clean() {
        return Err(format!("campaign not clean:\n{}", report.render()));
    }
    Ok(CaseOutcome { differential })
}

/// Hold the factored `fsv`/`Y` covers and the `Z`/`SSD` covers of `r`
/// against the functions the minterm-wise builders tabulate for the same
/// specified table. The builders are dense, so `r` must have at most
/// [`MAX_DENSE_VARS`] extended variables.
///
/// # Errors
///
/// Returns a description of the first cover that does not implement its
/// oracle function, or of an oracle builder that failed.
pub fn check_against_oracle(r: &SparseSynthesisResult) -> Result<(), String> {
    let oracle = |e: SynthesisError| format!("oracle builder failed: {e}");
    let fsv = fsv::fsv_function(&r.spec, &r.hazards).map_err(oracle)?;
    check_covers(
        "fsv",
        std::slice::from_ref(&fsv),
        std::slice::from_ref(&r.factored.fsv_cover),
    )?;
    let y = fsv::y_functions(&r.spec, &r.hazards).map_err(oracle)?;
    check_covers("Y", &y, &r.factored.y_covers)?;
    let z = r.spec.output_functions().map_err(oracle)?;
    check_covers("Z", &z, &r.outputs.z_covers)?;
    let ssd = r.spec.ssd_function().map_err(oracle)?;
    check_covers(
        "SSD",
        std::slice::from_ref(&ssd),
        std::slice::from_ref(&r.outputs.ssd_cover),
    )
}

fn check_covers(name: &str, functions: &[Function], covers: &[Cover]) -> Result<(), String> {
    if functions.len() != covers.len() {
        return Err(format!(
            "{name} counts disagree: oracle {}, pipeline {}",
            functions.len(),
            covers.len()
        ));
    }
    for (i, (f, c)) in functions.iter().zip(covers).enumerate() {
        if !f.implemented_by(c) {
            return Err(format!(
                "{name} cover {} does not implement the oracle function",
                i + 1
            ));
        }
    }
    Ok(())
}

/// Project input variable `var` of `table` to the constant `value`: the
/// result has one fewer input bit and keeps exactly the columns where bit
/// `var` equals `value`. Returns `None` when the table has only one input.
fn project_input(table: &FlowTable, var: usize, value: bool) -> Option<FlowTable> {
    if table.num_inputs() < 2 || var >= table.num_inputs() {
        return None;
    }
    let names = (0..table.num_states())
        .map(|i| table.state_name(StateId(i)).to_string())
        .collect();
    let mut out = FlowTable::new(
        table.name().to_string(),
        table.num_inputs() - 1,
        table.num_outputs(),
        names,
    )
    .ok()?;
    let below = (1usize << var) - 1;
    for new_col in 0..out.num_columns() {
        // Re-insert bit `var` = `value` to find the source column.
        let old_col = (new_col & below) | ((new_col & !below) << 1) | (usize::from(value) << var);
        for s in 0..table.num_states() {
            let entry = table.entry(StateId(s), old_col).clone();
            out.set_entry(StateId(s), new_col, entry.next, entry.output)
                .expect("projected cell in range");
        }
    }
    Some(out)
}

/// Greedily minimize `table` while `still_fails` holds (and the table stays a
/// valid synthesis input). Moves, tried to fixpoint in order: row deletion,
/// input-variable projection (both polarities), and re-introduction of
/// don't-cares at specified transient entries. The result is the smallest
/// table on the greedy path — not a global minimum, but in practice a few
/// rows and columns.
pub fn shrink(table: &FlowTable, still_fails: &mut dyn FnMut(&FlowTable) -> bool) -> FlowTable {
    let mut current = table.clone();
    loop {
        let mut improved = false;

        // Row deletion, one state at a time.
        let mut s = 0;
        while current.num_states() > 2 && s < current.num_states() {
            let keep: Vec<StateId> = (0..current.num_states())
                .filter(|&i| i != s)
                .map(StateId)
                .collect();
            let candidate = current.restrict_to_states(&keep);
            if validate::validate(&candidate).is_acceptable() && still_fails(&candidate) {
                current = candidate;
                improved = true;
            } else {
                s += 1;
            }
        }

        // Input-variable projection, both polarities.
        let mut v = 0;
        while current.num_inputs() > 2 && v < current.num_inputs() {
            let mut projected = false;
            for value in [false, true] {
                if let Some(candidate) = project_input(&current, v, value) {
                    if validate::validate(&candidate).is_acceptable() && still_fails(&candidate) {
                        current = candidate;
                        projected = true;
                        improved = true;
                        break;
                    }
                }
            }
            if !projected {
                v += 1;
            }
        }

        // Don't-care re-introduction: unspecify transient entries one by one.
        for s in 0..current.num_states() {
            for c in 0..current.num_columns() {
                let entry = current.entry(StateId(s), c);
                if entry.is_unspecified() || current.is_stable(StateId(s), c) {
                    continue;
                }
                let mut candidate = current.clone();
                candidate
                    .set_entry(StateId(s), c, None, None)
                    .expect("cell in range");
                if validate::validate(&candidate).is_acceptable() && still_fails(&candidate) {
                    current = candidate;
                    improved = true;
                }
            }
        }

        if !improved {
            return current;
        }
    }
}

/// Run the fuzz loop: generate, check, shrink failures, aggregate.
///
/// Case `k` is a pure function of `(options.seed, k)`; the wall-clock budget
/// only decides how many cases run, never what any case contains.
pub fn run_fuzz(options: &FuzzOptions) -> FuzzReport {
    let start = Instant::now();
    let mut report = FuzzReport {
        cases: 0,
        differential_cases: 0,
        campaign_cases: 0,
        failures: Vec::new(),
        elapsed: Duration::ZERO,
    };
    loop {
        if options.max_cases > 0 && report.cases >= options.max_cases {
            break;
        }
        if options.max_cases == 0 && start.elapsed() >= options.budget {
            break;
        }
        if options.max_cases > 0 && start.elapsed() >= options.budget {
            break;
        }
        let case = report.cases;
        let generator = sample_options(options.seed, case);
        let table = generate(&generator);
        match check_table(&table, options.campaign_assignments) {
            Ok(outcome) => {
                if outcome.differential {
                    report.differential_cases += 1;
                }
                report.campaign_cases += 1;
            }
            Err(message) => {
                let assignments = options.campaign_assignments;
                let shrunk = if options.shrink {
                    shrink(&table, &mut |t| check_table(t, assignments).is_err())
                } else {
                    table.clone()
                };
                report.failures.push(FuzzFailure {
                    case,
                    options: generator,
                    message,
                    table_kiss: kiss::write(&table),
                    shrunk_kiss: kiss::write(&shrunk),
                });
            }
        }
        report.cases += 1;
    }
    report.elapsed = start.elapsed();
    report
}

/// The pinned regression corpus: ten deterministic shapes spanning the knob
/// grid, each shrunk to the smallest table that still contains a
/// multiple-input-change transition (the structural property all the
/// interesting pipeline behavior hangs off). With no outstanding fuzz
/// failures these are "all-clean" pins: `tests/fuzz_regressions.rs` replays
/// the checked-in KISS text of every one through [`check_table`], and
/// `examples/fuzz.rs --emit-corpus` regenerates the files byte-identically.
pub fn regression_corpus() -> Vec<FlowTable> {
    let shapes = [
        // (states, inputs, outputs, dc%, fan_in, chain, mic, redundant)
        (
            4usize, 2usize, 1usize, 20u32, 2usize, 3usize, 1usize, 0usize,
        ),
        (6, 2, 1, 50, 2, 2, 1, 0),
        (8, 2, 2, 40, 2, 3, 1, 1),
        (8, 3, 1, 60, 3, 4, 2, 0),
        (10, 3, 2, 30, 2, 1, 0, 1),
        (10, 4, 1, 70, 4, 5, 2, 0),
        (12, 2, 1, 80, 1, 3, 1, 2),
        (12, 3, 3, 50, 2, 2, 1, 1),
        (14, 4, 2, 40, 3, 4, 2, 2),
        (14, 2, 1, 10, 2, 6, 0, 0),
    ];
    shapes
        .iter()
        .enumerate()
        .map(
            |(i, &(states, inputs, outputs, dc, fan_in, chain, mic, redundant))| {
                let options = GeneratorOptions {
                    seed: derive_seed(0x5EED_C0DE, i as u64),
                    states,
                    inputs,
                    outputs,
                    dc_density: dc as f64 / 100.0,
                    fan_in,
                    chain_depth: chain,
                    mic_stable_columns: mic,
                    redundant_clusters: redundant,
                };
                let table = generate(&options);
                let mut shrunk = shrink(&table, &mut |t| {
                    !t.multiple_input_change_transitions().is_empty()
                });
                shrunk.set_name(format!("fuzz_pin_{i:02}"));
                shrunk
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_options_are_deterministic_per_case() {
        assert_eq!(sample_options(7, 3), sample_options(7, 3));
        assert_ne!(sample_options(7, 3), sample_options(7, 4));
        assert_ne!(sample_options(7, 3), sample_options(8, 3));
    }

    #[test]
    fn a_few_cases_run_clean() {
        let report = run_fuzz(&FuzzOptions {
            max_cases: 3,
            ..FuzzOptions::default()
        });
        assert_eq!(report.cases, 3);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.campaign_cases, 3);
    }

    #[test]
    fn shrink_reaches_a_small_mic_table() {
        let table = generate(&GeneratorOptions {
            states: 12,
            inputs: 3,
            ..GeneratorOptions::default()
        });
        let shrunk = shrink(&table, &mut |t| {
            !t.multiple_input_change_transitions().is_empty()
        });
        assert!(shrunk.num_states() <= table.num_states());
        assert!(validate::validate(&shrunk).is_acceptable());
        assert!(!shrunk.multiple_input_change_transitions().is_empty());
    }

    #[test]
    fn projection_preserves_entries() {
        let table = generate(&GeneratorOptions {
            inputs: 3,
            ..GeneratorOptions::default()
        });
        let projected = project_input(&table, 1, true).expect("3 inputs project");
        assert_eq!(projected.num_inputs(), 2);
        for s in 0..table.num_states() {
            for new_col in 0..projected.num_columns() {
                let old_col = (new_col & 1) | ((new_col & !1usize) << 1) | (1 << 1);
                assert_eq!(
                    projected.entry(StateId(s), new_col),
                    table.entry(StateId(s), old_col)
                );
            }
        }
    }
}
