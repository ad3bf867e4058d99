//! Depth metrics — the quantities reported in Table 1 of the paper.
//!
//! *Depth* is the number of gate levels of a logic equation. The paper
//! measures the complexity of a synthesized FANTOM machine by the depth of the
//! `fsv` equation, the depth of the deepest next-state (`Y`) equation, and the
//! *total depth*: the number of logic levels traversed, in the worst
//! (hazard-detected) case, before the network reaches stability and `VOM` can
//! assert — one pass through the next-state logic, one through the `fsv`
//! logic, plus the VOM gate itself.

use crate::factoring::FactoredEquations;
use fantom_boolean::Expr;

/// Depth (and size) summary of a synthesized machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthReport {
    /// Levels of logic in the `fsv` equation.
    pub fsv_depth: usize,
    /// Levels of logic in the deepest next-state equation.
    pub y_depth: usize,
    /// Worst-case levels to reach stability (assertion of `VOM`):
    /// `y_depth + fsv_depth + 1`.
    pub total_depth: usize,
    /// Levels of logic in the deepest output equation.
    pub z_depth: usize,
    /// Levels of logic in the `SSD` equation.
    pub ssd_depth: usize,
}

/// Compute the depth report from the factored equations and the output
/// stage's expressions.
pub fn report_parts(
    factored: &FactoredEquations,
    z_exprs: &[Expr],
    ssd_expr: &Expr,
) -> DepthReport {
    let fsv_depth = factored.fsv_depth();
    let y_depth = factored.y_depth();
    DepthReport {
        fsv_depth,
        y_depth,
        total_depth: fsv_depth + y_depth + 1,
        z_depth: z_exprs.iter().map(Expr::depth).max().unwrap_or(0),
        ssd_depth: ssd_expr.depth(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factoring::{factor_covers, FactoringOptions};
    use crate::{fsv, hazard, outputs, SpecifiedTable};
    use fantom_assign::assign;
    use fantom_flow::benchmarks;

    #[test]
    fn total_depth_is_sum_plus_one() {
        for table in benchmarks::paper_suite() {
            let assignment = assign(&table);
            let spec = SpecifiedTable::new(table, assignment).unwrap();
            let analysis = hazard::analyze(&spec);
            let eqs = fsv::generate_covers(&spec, &analysis).unwrap();
            let factored = factor_covers(&spec, &eqs, FactoringOptions::default());
            let out = outputs::generate_covers(&spec).unwrap();
            let d = report_parts(&factored, &out.z_exprs, &out.ssd_expr);
            assert_eq!(d.total_depth, d.fsv_depth + d.y_depth + 1);
            assert!(
                d.y_depth >= 1,
                "{} has trivial next-state logic",
                spec.table().name()
            );
        }
    }
}
