//! Step 4 of SEANCE: output (`Z`) and stable-state-detector (`SSD`) equations.
//!
//! Both families of equations are reduced to an *essential* sum-of-products
//! (prime expansion plus a minimum covering selection): because the FANTOM
//! architecture self-synchronizes at the outputs (the `VOM` gating),
//! transient output hazards cannot be captured, so it is not necessary to
//! include every prime implicant in `Z`. Likewise `SSD` may glitch during a
//! multiple-input change — the loop-delay assumption guarantees it settles
//! before `fsv` does — so it too is reduced to an essential cover.

use fantom_boolean::{Cover, CoverFunction, Expr};

use crate::{SpecifiedTable, SynthesisError};

/// The Step 4 equations in cover form.
#[derive(Debug, Clone)]
pub struct CoverOutputEquations {
    /// Cover-represented functions for each output bit over `(x, y)`.
    pub z: Vec<CoverFunction>,
    /// Essential SOP cover for each output bit.
    pub z_covers: Vec<Cover>,
    /// Two-level expression for each output bit.
    pub z_exprs: Vec<Expr>,
    /// Cover-represented stable-state detector.
    pub ssd: CoverFunction,
    /// Essential SOP cover for the stable-state detector.
    pub ssd_cover: Cover,
    /// Two-level expression for the stable-state detector.
    pub ssd_expr: Expr,
}

impl CoverOutputEquations {
    /// Total literal count across the output equations.
    pub fn z_literals(&self) -> usize {
        self.z_covers.iter().map(Cover::literal_count).sum()
    }
}

/// Generate the `Z` and `SSD` equations in cover form.
///
/// # Errors
///
/// Propagates cover-construction errors from the specified table.
pub fn generate_covers(spec: &SpecifiedTable) -> Result<CoverOutputEquations, SynthesisError> {
    let z = spec.output_cover_functions()?;
    let z_covers: Vec<Cover> = z.iter().map(CoverFunction::minimize).collect();
    let z_exprs: Vec<Expr> = z_covers.iter().map(Expr::from_cover).collect();

    let ssd = spec.ssd_cover_function()?;
    let ssd_cover = ssd.minimize();
    let ssd_expr = Expr::from_cover(&ssd_cover);

    Ok(CoverOutputEquations {
        z,
        z_covers,
        z_exprs,
        ssd,
        ssd_cover,
        ssd_expr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_assign::assign;
    use fantom_flow::benchmarks;

    fn spec_for(table: fantom_flow::FlowTable) -> SpecifiedTable {
        let assignment = assign(&table);
        SpecifiedTable::new(table, assignment).unwrap()
    }

    #[test]
    fn z_covers_implement_their_functions() {
        for table in benchmarks::all() {
            let spec = spec_for(table);
            let eqs = generate_covers(&spec).unwrap();
            for (f, c) in spec.output_functions().unwrap().iter().zip(&eqs.z_covers) {
                assert!(f.implemented_by(c));
            }
            assert!(spec.ssd_function().unwrap().implemented_by(&eqs.ssd_cover));
        }
    }

    #[test]
    fn ssd_asserts_at_every_stable_state() {
        let table = benchmarks::lion();
        let spec = spec_for(table);
        let eqs = generate_covers(&spec).unwrap();
        for s in spec.table().states() {
            for c in spec.table().stable_columns(s) {
                let m = spec.minterm(c, spec.code(s));
                assert!(
                    eqs.ssd_cover.covers_minterm(m),
                    "SSD must be 1 at stable ({s}, {c})"
                );
            }
        }
    }

    #[test]
    fn ssd_deasserts_at_unstable_specified_states() {
        let table = benchmarks::test_example();
        let spec = spec_for(table);
        let eqs = generate_covers(&spec).unwrap();
        for s in spec.table().states() {
            for c in 0..spec.table().num_columns() {
                if let Some(t) = spec.table().next_state(s, c) {
                    if t != s {
                        let m = spec.minterm(c, spec.code(s));
                        assert!(!eqs.ssd_cover.covers_minterm(m));
                    }
                }
            }
        }
    }

    #[test]
    fn z_expressions_evaluate_like_covers() {
        let table = benchmarks::traffic();
        let spec = spec_for(table);
        let eqs = generate_covers(&spec).unwrap();
        let vars = spec.num_vars();
        for (cover, expr) in eqs.z_covers.iter().zip(&eqs.z_exprs) {
            for m in 0..(1u64 << vars) {
                let bits: Vec<bool> = (0..vars).map(|i| (m >> (vars - 1 - i)) & 1 == 1).collect();
                assert_eq!(cover.covers_minterm(m), expr.eval(&bits));
            }
        }
    }

    #[test]
    fn cover_outputs_match_dense_outputs_pointwise() {
        for table in benchmarks::all() {
            let spec = spec_for(table);
            let sparse = generate_covers(&spec).unwrap();
            let name = spec.table().name().to_string();
            let z = spec.output_functions().unwrap();
            for (df, sf) in z.iter().zip(&sparse.z) {
                for m in 0..df.space_size() {
                    assert_eq!(sf.is_on(m), df.is_on(m), "{name} Z on {m}");
                    assert_eq!(sf.is_off(m), df.is_off(m), "{name} Z off {m}");
                }
            }
            let ssd = spec.ssd_function().unwrap();
            for m in 0..ssd.space_size() {
                assert_eq!(sparse.ssd.is_on(m), ssd.is_on(m), "{name} ssd {m}");
                assert_eq!(sparse.ssd.is_off(m), ssd.is_off(m), "{name} ssd off {m}");
            }
        }
    }

    #[test]
    fn product_term_and_literal_counters() {
        let spec = spec_for(benchmarks::lion());
        let eqs = generate_covers(&spec).unwrap();
        let cubes: usize = eqs.z_covers.iter().map(Cover::cube_count).sum();
        assert!(cubes >= 1);
        assert!(eqs.z_literals() >= cubes);
    }
}
