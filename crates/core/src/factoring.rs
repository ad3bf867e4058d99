//! Step 7 of SEANCE: hazard factoring (the paper's Figure 5) and the
//! first-level-gate expansion of `fsv`.
//!
//! The goals of this step, following Armstrong–Friedman–Menon (1968) and
//! Hackbart–Dietmeyer (1971), are:
//!
//! * **`fsv`** is closed under consensus (removing logic hazards between the
//!   states it must mark) and converted to first-level-gate form: a
//!   first-level gate may receive only true (uncomplemented) input and state
//!   variables, so a product term with complemented literals becomes an
//!   AND–NOR pair.
//! * **`Yₙ`** is reduced to an essential SOP, made free of static hazards by
//!   adding the missing consensus primes, factored on its own state variable
//!   (`Yₙ = yₙ·Rₙ + …` — the latching terms are grouped so the hazardous
//!   `LᵢRᵢ` products of the paper are replaced by a single gated structure),
//!   and finally converted to first-level-gate form.
//!
//! The resulting expressions are what the depth metrics of Table 1 are
//! measured on.

use fantom_boolean::hazard::ConsensusScratch;
use fantom_boolean::{hazard, Cover, Expr, Literal};

use crate::fsv::CoverEquations;
use crate::SpecifiedTable;

/// The factored, hazard-free equations produced by Step 7.
#[derive(Debug, Clone)]
pub struct FactoredEquations {
    /// All-prime-implicant cover of `fsv`.
    pub fsv_cover: Cover,
    /// First-level-gate expression of `fsv`.
    pub fsv_expr: Expr,
    /// Hazard-free (consensus-augmented) cover of each next-state function.
    pub y_covers: Vec<Cover>,
    /// Factored first-level-gate expression of each next-state function.
    pub y_exprs: Vec<Expr>,
}

impl FactoredEquations {
    /// Depth (logic levels) of the `fsv` expression.
    pub fn fsv_depth(&self) -> usize {
        self.fsv_expr.depth()
    }

    /// Depth of the deepest next-state expression.
    pub fn y_depth(&self) -> usize {
        self.y_exprs.iter().map(Expr::depth).max().unwrap_or(0)
    }

    /// Total literal count of the factored next-state expressions.
    pub fn y_literals(&self) -> usize {
        self.y_exprs.iter().map(Expr::literal_count).sum()
    }
}

/// Options controlling Step 7 (used by the ablation experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactoringOptions {
    /// Close `fsv` under consensus (hazard-free). When `false` the essential
    /// cover from Step 6 is used directly.
    pub fsv_all_primes: bool,
    /// Add consensus terms to the next-state covers and factor them on their
    /// own state variable with first-level gates. When `false` the plain
    /// two-level essential SOP expression is used.
    pub hazard_factoring: bool,
    /// Fan the per-bit `Yₙ` consensus closures of [`factor_covers`] out
    /// across scoped threads (the closures are independent: each reads only
    /// its own `Yₙ` cover function). Results are merged in bit order, so the
    /// output is **byte-identical** to the single-threaded run — the knob
    /// only trades wall-clock for cores.
    pub parallel_y: bool,
}

impl Default for FactoringOptions {
    fn default() -> Self {
        FactoringOptions {
            fsv_all_primes: true,
            hazard_factoring: true,
            parallel_y: true,
        }
    }
}

/// Run Step 7 on the cover-form equations ([`CoverEquations`]) of Step 6.
///
/// Hazard freedom is established by **targeted consensus augmentation**
/// ([`hazard::add_consensus_terms_on_pairs`]) rather than by expanding to
/// *all* prime implicants: the complete sum of a mostly-unspecified function
/// over a large space can be exponentially large, while an asynchronous
/// machine only ever occupies specified total states — so exactly the
/// on-set/on-set single-input adjacencies need single-cube coverage, and
/// closing those costs a pass quadratic in the on-cover. With
/// `fsv_all_primes` disabled the essential `fsv` cover is used unaugmented.
///
/// The per-bit `Yₙ` closures are mutually independent, so with
/// [`FactoringOptions::parallel_y`] they run on scoped threads (the `fsv`
/// closure rides on the calling thread meanwhile) and are merged back in
/// bit order — the result is byte-identical to the sequential run.
pub fn factor_covers(
    spec: &SpecifiedTable,
    equations: &CoverEquations,
    options: FactoringOptions,
) -> FactoredEquations {
    factor_covers_with(spec, equations, options, &mut ConsensusScratch::default())
}

/// [`factor_covers`] with caller-provided consensus scratch buffers, for
/// workers that factor a stream of machines (see
/// [`Workspace`](crate::Workspace)). The scratch serves the `fsv` closure and
/// the serial per-bit path; with [`FactoringOptions::parallel_y`] the spawned
/// per-bit closures use thread-local scratch (they run concurrently), while
/// the `fsv` closure on the calling thread still reuses the caller's.
pub fn factor_covers_with(
    spec: &SpecifiedTable,
    equations: &CoverEquations,
    options: FactoringOptions,
    scratch: &mut ConsensusScratch,
) -> FactoredEquations {
    let nvars = equations.y_covers.len();
    let mut y_results: Vec<Option<(Cover, Expr)>> = (0..nvars).map(|_| None).collect();
    let fsv_result;

    // Threading pays only when the consensus closures dominate: with hazard
    // factoring off each per-bit job is a clone, cheaper than a spawn.
    if options.parallel_y && options.hazard_factoring && nvars > 1 {
        fsv_result = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nvars)
                .map(|var| {
                    s.spawn(move || {
                        let mut local = ConsensusScratch::default();
                        consensus_y(spec, equations, var, options, &mut local)
                    })
                })
                .collect();
            let fsv = factor_fsv(equations, options, scratch); // overlap with the workers
            for (slot, handle) in y_results.iter_mut().zip(handles) {
                *slot = Some(handle.join().expect("Y consensus worker panicked"));
            }
            fsv
        });
    } else {
        fsv_result = factor_fsv(equations, options, scratch);
        for (var, slot) in y_results.iter_mut().enumerate() {
            *slot = Some(consensus_y(spec, equations, var, options, scratch));
        }
    }

    let (fsv_cover, fsv_expr) = fsv_result;
    let mut y_covers = Vec::with_capacity(nvars);
    let mut y_exprs = Vec::with_capacity(nvars);
    for slot in y_results {
        let (cover, expr) = slot.expect("every Y slot filled");
        y_covers.push(cover);
        y_exprs.push(expr);
    }

    FactoredEquations {
        fsv_cover,
        fsv_expr,
        y_covers,
        y_exprs,
    }
}

/// The `fsv` part of [`factor_covers`]: consensus augmentation (when
/// enabled) plus first-level-gate conversion.
fn factor_fsv(
    equations: &CoverEquations,
    options: FactoringOptions,
    scratch: &mut ConsensusScratch,
) -> (Cover, Expr) {
    let fsv_cover = if options.fsv_all_primes {
        hazard::add_consensus_terms_on_pairs_with(
            equations.fsv.on_cover(),
            equations.fsv.off_cover(),
            &equations.fsv_cover,
            scratch,
        )
    } else {
        equations.fsv_cover.clone()
    };
    let fsv_expr = if options.hazard_factoring {
        Expr::first_level_gates(&fsv_cover)
    } else {
        Expr::from_cover(&fsv_cover)
    };
    (fsv_cover, fsv_expr)
}

/// The per-bit `Yₙ` closure of [`factor_covers`]: consensus augmentation of
/// one next-state cover plus latch factoring. Reads only `var`'s slice of
/// the equations — the independence that makes the threaded fan-out safe.
fn consensus_y(
    spec: &SpecifiedTable,
    equations: &CoverEquations,
    var: usize,
    options: FactoringOptions,
    scratch: &mut ConsensusScratch,
) -> (Cover, Expr) {
    let cover = &equations.y_covers[var];
    if options.hazard_factoring {
        let hazard_free = hazard::add_consensus_terms_on_pairs_with(
            equations.y[var].on_cover(),
            equations.y[var].off_cover(),
            cover,
            scratch,
        );
        let self_var = spec.num_inputs() + var;
        let expr = factor_next_state(&hazard_free, self_var);
        (hazard_free, expr)
    } else {
        (cover.clone(), Expr::from_cover(cover))
    }
}

/// Factor a next-state cover on its own state variable and convert it to
/// first-level-gate form.
///
/// Product terms containing the positive literal `yₙ` are grouped as
/// `yₙ·(r₁ + r₂ + …)` where each `rᵢ` is the residue of the term; the
/// remaining terms are emitted individually. Every term is realised with
/// first-level gates (complemented literals gathered under a NOR).
pub fn factor_next_state(cover: &Cover, self_var: usize) -> Expr {
    let mut residue_terms: Vec<Expr> = Vec::new();
    let mut terms: Vec<Expr> = Vec::with_capacity(cover.cube_count() + 1);
    for cube in cover.cubes() {
        if cube.literal(self_var) == Literal::One {
            // Free the latching variable; the packed cube copy is a word copy.
            let residue = cube.with_literal(self_var, Literal::DontCare);
            residue_terms.push(Expr::first_level_term(&residue));
        } else {
            terms.push(Expr::first_level_term(cube));
        }
    }
    if !residue_terms.is_empty() {
        terms.push(Expr::and(vec![
            Expr::var(self_var),
            Expr::or(residue_terms),
        ]));
    }
    Expr::or(terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fsv, hazard as hazard_search};
    use fantom_assign::assign;
    use fantom_boolean::Function;
    use fantom_flow::benchmarks;

    /// The factored equations plus the oracle `fsv` and `Y` functions they
    /// must implement.
    struct Setup {
        spec: SpecifiedTable,
        eqs: CoverEquations,
        fsv_function: Function,
        y_functions: Vec<Function>,
    }

    fn setup(table: fantom_flow::FlowTable) -> Setup {
        let assignment = assign(&table);
        let spec = SpecifiedTable::new(table, assignment).unwrap();
        let analysis = hazard_search::analyze(&spec);
        Setup {
            eqs: fsv::generate_covers(&spec, &analysis).unwrap(),
            fsv_function: fsv::fsv_function(&spec, &analysis).unwrap(),
            y_functions: fsv::y_functions(&spec, &analysis).unwrap(),
            spec,
        }
    }

    fn factored(s: &Setup, options: FactoringOptions) -> FactoredEquations {
        factor_covers(&s.spec, &s.eqs, options)
    }

    fn eval_expr(expr: &Expr, vars: usize, minterm: u64) -> bool {
        let bits: Vec<bool> = (0..vars)
            .map(|i| (minterm >> (vars - 1 - i)) & 1 == 1)
            .collect();
        expr.eval(&bits)
    }

    #[test]
    fn factored_y_expressions_preserve_the_specified_function() {
        for table in benchmarks::paper_suite() {
            let s = setup(table);
            let factored = factored(&s, FactoringOptions::default());
            let vars = s.spec.num_vars_extended();
            for (var, f) in s.y_functions.iter().enumerate() {
                assert!(f.implemented_by(&factored.y_covers[var]));
                for m in 0..f.space_size() {
                    if f.is_dc(m) {
                        continue;
                    }
                    assert_eq!(
                        eval_expr(&factored.y_exprs[var], vars, m),
                        f.is_on(m),
                        "{}: Y{} differs at minterm {m}",
                        s.spec.table().name(),
                        var + 1
                    );
                }
            }
        }
    }

    #[test]
    fn factored_fsv_preserves_the_fsv_function() {
        for table in benchmarks::paper_suite() {
            let s = setup(table);
            let factored = factored(&s, FactoringOptions::default());
            let vars = s.spec.num_vars();
            let f = &s.fsv_function;
            assert!(f.implemented_by(&factored.fsv_cover));
            for m in 0..f.space_size() {
                if f.is_dc(m) {
                    continue;
                }
                assert_eq!(eval_expr(&factored.fsv_expr, vars, m), f.is_on(m));
            }
        }
    }

    /// Static hazards are only meaningful between adjacent minterms that both
    /// belong to the *specified* on-set; transitions through don't-care points
    /// are unconstrained by the original function.
    fn no_on_set_hazards(cover: &Cover, f: &Function) -> bool {
        hazard::static_hazards(cover)
            .into_iter()
            .all(|h| !(f.is_on(h.from) && f.is_on(h.to)))
    }

    #[test]
    fn fsv_all_primes_cover_has_no_on_set_static_hazards() {
        for table in benchmarks::paper_suite() {
            let s = setup(table);
            let factored = factored(&s, FactoringOptions::default());
            assert!(
                no_on_set_hazards(&factored.fsv_cover, &s.fsv_function),
                "{}",
                s.spec.table().name()
            );
        }
    }

    #[test]
    fn y_covers_have_no_on_set_static_hazards_after_factoring() {
        for table in benchmarks::paper_suite() {
            let s = setup(table);
            let factored = factored(&s, FactoringOptions::default());
            for (cover, f) in factored.y_covers.iter().zip(&s.y_functions) {
                assert!(no_on_set_hazards(cover, f), "{}", s.spec.table().name());
            }
        }
    }

    #[test]
    fn first_level_gates_have_no_complemented_inputs() {
        fn no_nots(e: &Expr) -> bool {
            match e {
                Expr::Not(_) => false,
                Expr::And(ops) | Expr::Or(ops) | Expr::Nor(ops) | Expr::Nand(ops) => {
                    ops.iter().all(no_nots)
                }
                _ => true,
            }
        }
        for table in benchmarks::paper_suite() {
            let s = setup(table);
            let factored = factored(&s, FactoringOptions::default());
            assert!(no_nots(&factored.fsv_expr));
            for y in &factored.y_exprs {
                assert!(no_nots(y));
            }
        }
    }

    #[test]
    fn disabling_factoring_gives_shallower_or_equal_two_level_forms() {
        for table in benchmarks::paper_suite() {
            let s = setup(table);
            let with = factored(&s, FactoringOptions::default());
            let without = factored(
                &s,
                FactoringOptions {
                    fsv_all_primes: false,
                    hazard_factoring: false,
                    ..FactoringOptions::default()
                },
            );
            assert!(without.y_depth() <= with.y_depth());
            assert!(without.fsv_depth() <= with.fsv_depth());
        }
    }

    #[test]
    fn factor_next_state_groups_latching_terms() {
        // Y = y1·x1 + y1·x2 + x1·x2' over vars [x1, x2, y1] (self_var = 2).
        let cover = Cover::parse(3, "1-1 -11 10-").unwrap();
        let expr = factor_next_state(&cover, 2);
        // Function must be preserved.
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|i| (m >> (2 - i)) & 1 == 1).collect();
            assert_eq!(expr.eval(&bits), cover.covers_minterm(m));
        }
        // The latching variable should appear exactly once (factored out).
        fn count_var(e: &Expr, v: usize) -> usize {
            match e {
                Expr::Var(i) => usize::from(*i == v),
                Expr::Not(inner) => count_var(inner, v),
                Expr::And(ops) | Expr::Or(ops) | Expr::Nor(ops) | Expr::Nand(ops) => {
                    ops.iter().map(|o| count_var(o, v)).sum()
                }
                Expr::Const(_) => 0,
            }
        }
        assert_eq!(count_var(&expr, 2), 1);
    }
}
