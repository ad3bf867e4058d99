//! The end-to-end SEANCE synthesis pipeline (the flow chart of Figure 3).
//!
//! [`synthesize_sparse`] runs the seven steps with every Boolean object held
//! as a packed cube cover ([`fantom_boolean::CoverFunction`]): transition
//! subcubes enter as cubes, the off-sets are derived by recursive
//! sharp/complement, primes come from expansion against off covers, and
//! hazard freedom is established by cube-pair-wise consensus augmentation.
//! Cost therefore scales with the *specification size* (states × columns)
//! rather than the variable count, so the same engine serves the small paper
//! corpus and machines far beyond
//! [`MAX_DENSE_VARS`](fantom_boolean::MAX_DENSE_VARS).
//!
//! Dense `2^n` truth tables survive only as the test oracle: the minterm-wise
//! builders ([`SpecifiedTable::next_state_functions`],
//! [`SpecifiedTable::output_functions`], [`SpecifiedTable::ssd_function`],
//! [`fsv::fsv_function`] and [`fsv::y_functions`]) against which
//! [`crate::fuzz::check_against_oracle`] checks every cover with
//! `implemented_by`, for the tests and the fuzzer alike.

use std::fmt::Write as _;

use fantom_assign::{assign_verified_in, AssignmentOptions, StateAssignment};
use fantom_flow::{validate, FlowTable};
use fantom_minimize::{reduce_with_options, ReductionOptions};

use crate::depth::{self, DepthReport};
use crate::factoring::{factor_covers_with, FactoredEquations, FactoringOptions};
use crate::fsv::{self, CoverEquations};
use crate::hazard::{self, HazardAnalysis};
use crate::outputs::{self, CoverOutputEquations};
use crate::workspace::Workspace;
use crate::{SpecifiedTable, SynthesisError};

/// Options controlling the synthesis pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisOptions {
    /// Run Step 2 (table reduction / state minimization).
    pub minimize_states: bool,
    /// Run the hazard-factoring part of Step 7 (consensus terms, factoring on
    /// the state variable, first-level gates). Disabling it yields the plain
    /// two-level machine used by the ablation experiments.
    pub hazard_factoring: bool,
    /// Close `fsv` under consensus in Step 7 (hazard-free `fsv`).
    pub fsv_all_primes: bool,
    /// Require the input flow table to pass validation (normal mode, strong
    /// connectivity, a stable column per state). Disable only for experiments
    /// on deliberately malformed tables.
    pub validate_input: bool,
    /// Budgets for Step 2: compatible-enumeration and cover-selection caps.
    /// The default is exact for the small benchmark corpus;
    /// [`ReductionOptions::bounded`] keeps reduction millisecond-scale on
    /// 40-state machines at the cost of merge optimality.
    pub reduction: ReductionOptions,
    /// Budgets for Step 3: candidate-partition generation, exact-cover search
    /// and local-search refinement caps for the Tracey assignment. The
    /// default searches hard for short codes on small machines;
    /// [`AssignmentOptions::bounded`] trims the search on 40-state-class
    /// machines at a small cost in code width.
    pub assignment: AssignmentOptions,
    /// Run the independent per-bit `Yₙ` consensus closures of Step 7 on
    /// scoped threads (merged in bit order, so the result is byte-identical
    /// to a single-threaded run). Costs nothing on a single-core host beyond
    /// thread spawns; disable for strictly single-threaded environments.
    pub parallel_factoring: bool,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            minimize_states: true,
            hazard_factoring: true,
            fsv_all_primes: true,
            validate_input: true,
            reduction: ReductionOptions::default(),
            assignment: AssignmentOptions::default(),
            parallel_factoring: true,
        }
    }
}

impl SynthesisOptions {
    /// Options for the ablation run: no hazard factoring, essential-SOP `fsv`.
    pub fn without_factoring() -> Self {
        SynthesisOptions {
            hazard_factoring: false,
            fsv_all_primes: false,
            ..Self::default()
        }
    }

    /// Options for batch workers of the synthesis service
    /// ([`crate::synthesize_many`]): identical to the defaults except that
    /// the per-bit `Yₙ` fan-out of Step 7 stays on the worker's own thread —
    /// the service already shards whole machines across every core, so inner
    /// threading would only oversubscribe the host. `parallel_y` is
    /// byte-identical to the serial run by construction, so this changes no
    /// output, only scheduling.
    pub fn for_service() -> Self {
        SynthesisOptions {
            parallel_factoring: false,
            ..Self::default()
        }
    }

    /// Options for large machines: Step 2 (state minimization) runs under
    /// the [`ReductionOptions::bounded`] budgets — unbounded
    /// maximal-compatible enumeration is exponential in the state count on
    /// unspecified-heavy tables, so enumeration and cover selection are
    /// capped and degrade to the greedy pair-merging cover instead of
    /// skipping reduction entirely — and Step 3 (Tracey assignment) runs
    /// under the [`AssignmentOptions::bounded`] budgets. All hazard-freedom
    /// steps stay enabled.
    pub fn for_large_machines() -> Self {
        SynthesisOptions {
            reduction: ReductionOptions::bounded(),
            assignment: AssignmentOptions::bounded(),
            ..Self::default()
        }
    }
}

/// Everything produced by a run of the SEANCE pipeline.
#[derive(Debug, Clone)]
pub struct SparseSynthesisResult {
    /// Benchmark / machine name (taken from the input table).
    pub name: String,
    /// The table actually synthesized (after Step 2, if enabled).
    pub reduced_table: FlowTable,
    /// The USTT state assignment of Step 3.
    pub assignment: StateAssignment,
    /// The reduced table paired with its assignment.
    pub spec: SpecifiedTable,
    /// Output-stage equations of Step 4.
    pub outputs: CoverOutputEquations,
    /// Hazard analysis of Step 5.
    pub hazards: HazardAnalysis,
    /// `fsv` / next-state equations of Step 6.
    pub equations: CoverEquations,
    /// Factored, hazard-free equations of Step 7.
    pub factored: FactoredEquations,
    /// Depth metrics (Table 1).
    pub depth: DepthReport,
    /// Options the pipeline ran with.
    pub options: SynthesisOptions,
}

impl SparseSynthesisResult {
    /// Human-readable rendering of every synthesized equation.
    pub fn render_equations(&self) -> String {
        render_equations(
            &self.name,
            self.spec.num_inputs(),
            self.spec.num_state_vars(),
            &self.factored,
            &self.outputs,
        )
    }

    /// Total literal count of the factored next-state expressions.
    pub fn y_literals(&self) -> usize {
        self.factored.y_literals()
    }
}

/// The equation listing shared by [`SparseSynthesisResult`] and the
/// service's relabeled results: `fsv` and `Z`/`SSD` over `x1..xj, y1..yn`,
/// the next-state equations over the same names plus `fsv`.
pub(crate) fn render_equations(
    name: &str,
    num_inputs: usize,
    num_state_vars: usize,
    factored: &FactoredEquations,
    outputs: &CoverOutputEquations,
) -> String {
    let names: Vec<String> = (1..=num_inputs)
        .map(|i| format!("x{i}"))
        .chain((1..=num_state_vars).map(|i| format!("y{i}")))
        .collect();
    let mut ext = names.clone();
    ext.push("fsv".to_string());
    let mut out = String::new();
    let _ = writeln!(out, "machine {name}");
    let _ = writeln!(out, "fsv  = {}", factored.fsv_expr.render(&names));
    for (i, y) in factored.y_exprs.iter().enumerate() {
        let _ = writeln!(out, "Y{}   = {}", i + 1, y.render(&ext));
    }
    for (i, z) in outputs.z_exprs.iter().enumerate() {
        let _ = writeln!(out, "Z{}   = {}", i + 1, z.render(&names));
    }
    let _ = writeln!(out, "SSD  = {}", outputs.ssd_expr.render(&names));
    out
}

/// Step 1's acceptance test: normal mode, strong connectivity and a stable
/// column for every state. Only a failure builds the full report, for its
/// message.
pub(crate) fn check_acceptable(table: &FlowTable) -> Result<(), SynthesisError> {
    if validate::is_normal_mode(table)
        && validate::is_strongly_connected(table)
        && validate::states_without_stable_column(table).is_empty()
    {
        return Ok(());
    }
    let report = validate::validate(table);
    Err(SynthesisError::InvalidFlowTable(format!(
        "{}: normal-mode violations: {}, strongly connected: {}, states without stable column: {}",
        table.name(),
        report.normal_mode_violations.len(),
        report.strongly_connected,
        report.states_without_stable_column.len()
    )))
}

/// Run the complete SEANCE pipeline on `table`.
///
/// # Errors
///
/// Returns an error if the table fails validation, the machine exceeds
/// [`MAX_TOTAL_VARS`](crate::spec::MAX_TOTAL_VARS), or the state assignment
/// cannot be verified.
pub fn synthesize_sparse(
    table: &FlowTable,
    options: &SynthesisOptions,
) -> Result<SparseSynthesisResult, SynthesisError> {
    synthesize_sparse_with(table, options, &mut Workspace::new())
}

/// [`synthesize_sparse`] with a caller-provided [`Workspace`]: the scratch
/// buffers of the pipeline's hot loops are reused across calls instead of
/// reallocated, which is how the batch service keeps a hot worker from
/// allocating per machine. Results are identical to [`synthesize_sparse`].
///
/// # Errors
///
/// Same failure modes as [`synthesize_sparse`].
pub fn synthesize_sparse_with(
    table: &FlowTable,
    options: &SynthesisOptions,
    workspace: &mut Workspace,
) -> Result<SparseSynthesisResult, SynthesisError> {
    // Step 1: flow-table preparation.
    if options.validate_input {
        check_acceptable(table)?;
    }

    // Step 2: table reduction. The reduced machine must itself be an
    // acceptable synthesis input (normal mode and strongly connected);
    // otherwise fall back to the original table — covers with overlapping
    // classes can occasionally leave a merged class unreachable.
    let reduced_table = if options.minimize_states {
        let reduction = reduce_with_options(table, &options.reduction);
        if validate::is_normal_mode(&reduction.table)
            && validate::is_strongly_connected(&reduction.table)
        {
            reduction.table
        } else {
            table.clone()
        }
    } else {
        table.clone()
    };

    // Step 3: USTT state assignment, checked against the required
    // dichotomies it was built from.
    let assignment =
        assign_verified_in(&reduced_table, &options.assignment, &mut workspace.assign)?;
    let spec = SpecifiedTable::new(reduced_table.clone(), assignment.clone())?;

    // Step 4: output determination.
    let outputs = outputs::generate_covers(&spec)?;

    // Step 5: hazard search (it walks transitions, not the space, and stores
    // hash-backed hazard lists).
    let hazards = hazard::analyze(&spec);

    // Step 6: fsv and next-state equations.
    let equations = fsv::generate_covers(&spec, &hazards)?;

    // Step 7: hazard factoring by consensus augmentation.
    let factored = factor_covers_with(
        &spec,
        &equations,
        FactoringOptions {
            fsv_all_primes: options.fsv_all_primes,
            hazard_factoring: options.hazard_factoring,
            parallel_y: options.parallel_factoring,
        },
        &mut workspace.consensus,
    );

    let depth = depth::report_parts(&factored, &outputs.z_exprs, &outputs.ssd_expr);

    Ok(SparseSynthesisResult {
        name: table.name().to_string(),
        reduced_table,
        assignment,
        spec,
        outputs,
        hazards,
        equations,
        factored,
        depth,
        options: *options,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_flow::benchmarks;

    #[test]
    fn pipeline_runs_on_every_benchmark() {
        for table in benchmarks::all() {
            let result = synthesize_sparse(&table, &SynthesisOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            assert_eq!(result.name, table.name());
            assert!(result.depth.total_depth >= 1);
            assert!(result.spec.num_state_vars() >= 1);
            assert_eq!(
                result.depth.total_depth,
                result.depth.fsv_depth + result.depth.y_depth + 1
            );
        }
    }

    #[test]
    fn pipeline_without_reduction_keeps_canonical_state_counts() {
        let options = SynthesisOptions {
            minimize_states: false,
            ..SynthesisOptions::default()
        };
        for (table, expected_states) in benchmarks::paper_suite()
            .into_iter()
            .zip([4usize, 4, 4, 9, 11])
        {
            let result = synthesize_sparse(&table, &options).unwrap();
            assert_eq!(
                result.reduced_table.num_states(),
                expected_states,
                "{}",
                result.name
            );
            assert!(result.spec.num_state_vars() >= 2);
            assert!(result.depth.total_depth >= 3);
        }
    }

    #[test]
    fn invalid_tables_are_rejected() {
        use fantom_flow::FlowTableBuilder;
        let mut b = FlowTableBuilder::new("broken", 1, 1);
        b.states(["A", "B"]);
        b.stable("A", "0", "0").unwrap();
        b.stable("B", "0", "1").unwrap();
        b.transition("A", "1", "B").unwrap(); // B not stable under column 1
        b.transition("B", "1", "A").unwrap();
        let table = b.build().unwrap();
        assert!(matches!(
            synthesize_sparse(&table, &SynthesisOptions::default()),
            Err(SynthesisError::InvalidFlowTable(_))
        ));
    }

    #[test]
    fn minimization_collapses_redundant_states() {
        let table = benchmarks::redundant_traffic();
        let result = synthesize_sparse(&table, &SynthesisOptions::default()).unwrap();
        assert!(result.reduced_table.num_states() < table.num_states());
        let unreduced = synthesize_sparse(
            &table,
            &SynthesisOptions {
                minimize_states: false,
                ..SynthesisOptions::default()
            },
        )
        .unwrap();
        assert_eq!(unreduced.reduced_table.num_states(), table.num_states());
    }

    #[test]
    fn ablation_without_factoring_is_never_deeper() {
        for table in benchmarks::paper_suite() {
            let full = synthesize_sparse(&table, &SynthesisOptions::default()).unwrap();
            let ablated =
                synthesize_sparse(&table, &SynthesisOptions::without_factoring()).unwrap();
            assert!(ablated.depth.y_depth <= full.depth.y_depth);
            assert!(ablated.depth.total_depth <= full.depth.total_depth);
        }
    }

    #[test]
    fn stats_and_rendering_are_consistent() {
        let table = benchmarks::test_example();
        let options = SynthesisOptions {
            minimize_states: false,
            ..SynthesisOptions::default()
        };
        let result = synthesize_sparse(&table, &options).unwrap();
        assert_eq!(result.reduced_table.num_states(), 4);
        assert!(result.spec.num_state_vars() >= 2);
        let text = result.render_equations();
        assert!(text.starts_with("machine test_example\n"));
        assert!(text.contains("fsv"));
        assert!(text.contains("Y1"));
        assert!(text.contains("SSD"));
        assert_eq!(
            text.lines().count(),
            3 + result.spec.num_state_vars() + result.spec.num_outputs()
        );
    }

    #[test]
    fn hazardous_benchmarks_get_nonzero_fsv_depth() {
        let options = SynthesisOptions {
            minimize_states: false,
            ..SynthesisOptions::default()
        };
        let result = synthesize_sparse(&benchmarks::lion(), &options).unwrap();
        assert!(!result.hazards.is_hazard_free());
        assert!(result.depth.fsv_depth >= 2);
        assert_eq!(
            result.depth.total_depth,
            result.depth.fsv_depth + result.depth.y_depth + 1
        );
    }

    #[test]
    fn sparse_pipeline_runs_on_every_small_benchmark() {
        for table in benchmarks::all() {
            let result = synthesize_sparse(&table, &SynthesisOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            // Covers implement their cover functions.
            assert!(result
                .equations
                .fsv
                .implemented_by(&result.equations.fsv_cover));
            for (f, c) in result.equations.y.iter().zip(&result.factored.y_covers) {
                assert!(f.implemented_by(c), "{}", table.name());
            }
        }
    }

    #[test]
    fn sparse_covers_implement_the_dense_functions() {
        // Every cover must implement the function the minterm-wise oracle
        // builders tabulate for the same specified table.
        for table in benchmarks::paper_suite() {
            let r = synthesize_sparse(&table, &SynthesisOptions::default()).unwrap();
            crate::fuzz::check_against_oracle(&r)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        }
    }
}
