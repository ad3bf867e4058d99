//! Baseline synthesis styles used for the Section 7 comparison.
//!
//! The paper contrasts FANTOM with two families of approaches:
//!
//! * **Classical Huffman synthesis** restricted to single-input changes: the
//!   same flow table and USTT assignment, next-state logic expanded to all
//!   prime implicants (hazard-free for single-input changes; the same primes
//!   Quine–McCluskey tabulates, found cube-wise by
//!   [`CoverFunction::prime_implicants`](fantom_boolean::CoverFunction::prime_implicants)) — but *without*
//!   the fantom variable, so every function hazard found by the Step-5 search
//!   is left unprotected. [`huffman_baseline`] measures its size and depth and
//!   reports the count of unprotected hazards.
//! * **STG-style input expansion**: signal-transition-graph methods avoid
//!   multiple-input-change hazards by expanding the *input space* so the graph
//!   is traversed one bit (arc) at a time, which inflates the specification.
//!   [`stg_expansion_estimate`] quantifies that inflation for a flow table:
//!   how many single-bit steps and how many extra intermediate states would be
//!   needed. FANTOM instead expands the *state-variable space* by a single
//!   variable (`fsv`).

use fantom_assign::assign;
use fantom_boolean::{Cover, Expr};
use fantom_flow::FlowTable;

use crate::{hazard, outputs, SpecifiedTable, SynthesisError};

/// Size and depth of a classical (no-`fsv`) Huffman implementation.
#[derive(Debug, Clone)]
pub struct HuffmanBaseline {
    /// Machine name.
    pub name: String,
    /// Number of state variables.
    pub state_vars: usize,
    /// All-prime-implicant covers of the next-state functions over `(x, y)`.
    pub y_covers: Vec<Cover>,
    /// Two-level expressions of the next-state functions.
    pub y_exprs: Vec<Expr>,
    /// Depth of the deepest next-state equation.
    pub y_depth: usize,
    /// Total literal count of the next-state covers.
    pub y_literals: usize,
    /// Total product terms of the next-state covers.
    pub y_product_terms: usize,
    /// Output-stage literal count.
    pub z_literals: usize,
    /// Function hazards (hazardous total states) left unprotected because the
    /// baseline has no fantom variable.
    pub unprotected_hazard_states: usize,
    /// Worst-case depth to stability (one pass through the next-state logic).
    pub total_depth: usize,
}

/// Synthesize the classical Huffman baseline for `table`.
///
/// # Errors
///
/// Propagates assignment and cover-construction errors.
pub fn huffman_baseline(table: &FlowTable) -> Result<HuffmanBaseline, SynthesisError> {
    let assignment = assign(table);
    assignment.verify(table)?;
    let spec = SpecifiedTable::new(table.clone(), assignment)?;

    let base = spec.next_state_cover_functions()?;
    let y_covers: Vec<Cover> = base
        .iter()
        .map(|f| Cover::from_cubes(f.num_vars(), f.prime_implicants()))
        .collect();
    let y_exprs: Vec<Expr> = y_covers.iter().map(Expr::from_cover).collect();
    let out = outputs::generate_covers(&spec)?;
    let hazards = hazard::analyze(&spec);

    let y_depth = y_exprs.iter().map(Expr::depth).max().unwrap_or(0);
    Ok(HuffmanBaseline {
        name: table.name().to_string(),
        state_vars: spec.num_state_vars(),
        y_literals: y_covers.iter().map(Cover::literal_count).sum(),
        y_product_terms: y_covers.iter().map(Cover::cube_count).sum(),
        z_literals: out.z_literals(),
        unprotected_hazard_states: hazards.hazard_state_count(),
        total_depth: y_depth + 1,
        y_depth,
        y_covers,
        y_exprs,
    })
}

/// Cost estimate of handling the same machine with STG-style single-bit input
/// expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StgExpansionEstimate {
    /// Stable-state transitions in the original specification.
    pub original_transitions: usize,
    /// Transitions that change more than one input bit.
    pub multiple_input_transitions: usize,
    /// Single-bit steps after expanding every multiple-input change into a
    /// sequence of single-bit arcs.
    pub expanded_steps: usize,
    /// Intermediate specification states introduced by the expansion
    /// (one per extra step of every expanded transition).
    pub extra_states: usize,
    /// Input-space expansion factor: expanded steps per original transition
    /// (×100, i.e. a percentage).
    pub expansion_percent: usize,
}

/// Estimate the specification blow-up of the STG-style approach for `table`.
pub fn stg_expansion_estimate(table: &FlowTable) -> StgExpansionEstimate {
    let transitions = table.stable_transitions();
    let original_transitions = transitions.len();
    let mut expanded_steps = 0usize;
    let mut extra_states = 0usize;
    let mut multiple_input_transitions = 0usize;
    for t in &transitions {
        let d = t.input_distance().max(1);
        expanded_steps += d;
        if d > 1 {
            multiple_input_transitions += 1;
            extra_states += d - 1;
        }
    }
    let expansion_percent = (expanded_steps * 100)
        .checked_div(original_transitions)
        .unwrap_or(100);
    StgExpansionEstimate {
        original_transitions,
        multiple_input_transitions,
        expanded_steps,
        extra_states,
        expansion_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_sparse, SynthesisOptions};
    use fantom_flow::benchmarks;

    #[test]
    fn baseline_runs_on_every_benchmark() {
        for table in benchmarks::all() {
            let baseline =
                huffman_baseline(&table).unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            assert!(baseline.y_depth >= 1);
            assert_eq!(baseline.total_depth, baseline.y_depth + 1);
            assert!(baseline.y_product_terms >= 1);
        }
    }

    #[test]
    fn baseline_leaves_hazards_unprotected_where_fantom_finds_them() {
        for table in benchmarks::paper_suite() {
            let result = synthesize_sparse(&table, &SynthesisOptions::default()).unwrap();
            let baseline = huffman_baseline(&result.reduced_table).unwrap();
            assert_eq!(
                baseline.unprotected_hazard_states,
                result.hazards.hazard_state_count(),
                "{}",
                table.name()
            );
        }
    }

    #[test]
    fn fantom_total_depth_exceeds_baseline_depth() {
        // The paper is explicit that FANTOM trades depth (slower worst-case
        // response) for hazard freedom; the baseline must therefore be
        // shallower or equal.
        for table in benchmarks::paper_suite() {
            let result = synthesize_sparse(&table, &SynthesisOptions::default()).unwrap();
            let baseline = huffman_baseline(&result.reduced_table).unwrap();
            assert!(
                baseline.total_depth <= result.depth.total_depth,
                "{}: baseline {} vs fantom {}",
                table.name(),
                baseline.total_depth,
                result.depth.total_depth
            );
        }
    }

    #[test]
    fn stg_estimate_counts_multiple_input_changes() {
        let table = benchmarks::lion();
        let est = stg_expansion_estimate(&table);
        assert!(est.multiple_input_transitions > 0);
        assert!(est.expanded_steps > est.original_transitions);
        assert!(est.extra_states > 0);
        assert!(est.expansion_percent > 100);
    }

    #[test]
    fn stg_estimate_is_neutral_for_single_input_change_machines() {
        use fantom_flow::FlowTableBuilder;
        let mut b = FlowTableBuilder::new("sic", 1, 1);
        b.states(["A", "B"]);
        b.stable("A", "0", "0").unwrap();
        b.stable("B", "1", "1").unwrap();
        b.transition("A", "1", "B").unwrap();
        b.transition("B", "0", "A").unwrap();
        let est = stg_expansion_estimate(&b.build().unwrap());
        assert_eq!(est.multiple_input_transitions, 0);
        assert_eq!(est.extra_states, 0);
        assert_eq!(est.expansion_percent, 100);
    }
}
