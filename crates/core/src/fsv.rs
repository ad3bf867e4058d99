//! Step 6 of SEANCE: the fantom state variable (`fsv`) and the next-state
//! (`Y`) equations over the doubled state space.
//!
//! `fsv` is a purely combinational function of the inputs and the present
//! state — it is *not* a function of itself and therefore cannot latch, which
//! is why the paper calls it a "fantom" variable. It asserts exactly on the
//! hazardous total states found by the hazard search.
//!
//! Each next-state equation is generated over the `(x, y, fsv)` space:
//!
//! * in the `fsv = 0` half-space, every minterm on the variable's hazard list
//!   is **complemented** — the variable is held at its present value, so the
//!   momentary exposure of an intermediate input vector cannot glitch it;
//! * in the `fsv = 1` half-space, the minterms are taken unchanged from the
//!   specified flow table — once `fsv` has marked the state, the transition
//!   proceeds normally (this is what limits a FANTOM machine to at most two
//!   state changes per input change).

use fantom_boolean::{Cover, CoverFunction, Cube, Function, Literal};
use fantom_flow::Bits;

use crate::hazard::HazardAnalysis;
use crate::{SpecifiedTable, SynthesisError};

/// Tabulate the `fsv` function minterm by minterm: 1 on every hazard-list
/// state, 0 on every other total state the machine can actually occupy
/// (specified entries and the interiors of their transition subcubes),
/// don't-care on unused codes. The dense oracle for
/// [`fsv_cover_function`] and the factored `fsv` cover.
///
/// # Errors
///
/// Returns an error above [`MAX_DENSE_VARS`](fantom_boolean::MAX_DENSE_VARS)
/// variables.
pub fn fsv_function(
    spec: &SpecifiedTable,
    hazards: &HazardAnalysis,
) -> Result<Function, SynthesisError> {
    let vars = spec.num_vars();
    let mut f = Function::constant_dc(vars)?;
    for m in occupied_minterms(spec) {
        f.set_off(m);
    }
    for &m in &hazards.fl {
        f.set_on(m);
    }
    Ok(f)
}

/// Tabulate the next-state functions over the `(x, y, fsv)` space minterm by
/// minterm: [`SpecifiedTable::next_state_functions`] with unspecified
/// intermediate entries pinned, then hazard-list minterms complemented in the
/// `fsv = 0` half. The dense oracle for the cover functions of
/// [`generate_covers`] and the factored `Y` covers.
///
/// # Errors
///
/// Returns an error above [`MAX_DENSE_VARS`](fantom_boolean::MAX_DENSE_VARS)
/// extended variables, and propagates the race-freedom check of
/// [`SpecifiedTable::next_state_functions`].
pub fn y_functions(
    spec: &SpecifiedTable,
    hazards: &HazardAnalysis,
) -> Result<Vec<Function>, SynthesisError> {
    let mut base = spec.next_state_functions()?;
    constrain_unspecified_intermediates(spec, &mut base);
    base.iter()
        .enumerate()
        .map(|(var, base_fn)| extend_next_state(spec, hazards, var, base_fn))
        .collect()
}

/// Complete the don't-cares that sit inside the input transition space of a
/// multiple-input-change transition but whose flow-table entry is unspecified:
/// the invariant state variables are pinned to their present value there.
///
/// The paper's hazard search (Figure 4) only inspects *specified* intermediate
/// entries; for an incompletely specified table the free minimization of an
/// unspecified intermediate entry could otherwise re-introduce exactly the
/// function hazard that `fsv` exists to remove. Pinning the invariant
/// variables is a legal completion of the don't-care (the entry is
/// unconstrained by the specification) and costs nothing at run time.
fn constrain_unspecified_intermediates(spec: &SpecifiedTable, base: &mut [Function]) {
    for transition in spec.stable_transitions() {
        if !transition.is_multiple_input_change() {
            continue;
        }
        let from_code = spec.code(transition.from_state).clone();
        let to_code = spec.code(transition.to_state).clone();
        for intermediate in Bits::transition_cube(&transition.from_input, &transition.to_input) {
            if intermediate == transition.from_input || intermediate == transition.to_input {
                continue;
            }
            let column = intermediate.index();
            if spec
                .table()
                .next_state(transition.from_state, column)
                .is_some()
            {
                continue;
            }
            let m = spec.minterm(column, &from_code);
            for (var, f) in base.iter_mut().enumerate() {
                if from_code.bit(var) == to_code.bit(var) && f.is_dc(m) {
                    if from_code.bit(var) {
                        f.set_on(m);
                    } else {
                        f.set_off(m);
                    }
                }
            }
        }
    }
}

/// All `(x, y)` minterms the machine can occupy: every specified entry's total
/// state plus the interior of every transition subcube.
fn occupied_minterms(spec: &SpecifiedTable) -> Vec<u64> {
    let mut out = Vec::new();
    for s in spec.table().states() {
        for c in 0..spec.table().num_columns() {
            let Some(t) = spec.table().next_state(s, c) else {
                continue;
            };
            let from = spec.code(s).clone();
            let to = spec.code(t).clone();
            for code in Bits::transition_cube(&from, &to) {
                out.push(spec.minterm(c, &code));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Extend a next-state function into the `(x, y, fsv)` space, complementing
/// hazard-list minterms in the `fsv = 0` half.
fn extend_next_state(
    spec: &SpecifiedTable,
    hazards: &HazardAnalysis,
    var: usize,
    base: &Function,
) -> Result<Function, SynthesisError> {
    let vars = spec.num_vars_extended();
    let mut f = Function::constant_false(vars)?;
    // The loop below probes the hazard list for every minterm of the space;
    // materialise the (tiny) sparse list as a dense bitset first so each
    // probe is a word-indexed load instead of a tree search.
    let hl = fantom_boolean::MintermSet::from_minterms(
        base.space_size(),
        hazards.hl.get(var).into_iter().flatten().copied(),
    );
    for m in 0..base.space_size() {
        let fsv0 = m << 1;
        let fsv1 = (m << 1) | 1;
        let hazardous = hl.contains(m);
        if base.is_dc(m) {
            f.set_dc(fsv0);
            f.set_dc(fsv1);
            continue;
        }
        let value = base.is_on(m);
        // fsv = 1 half: unchanged.
        if value {
            f.set_on(fsv1);
        } else {
            f.set_off(fsv1);
        }
        // fsv = 0 half: complement on the hazard list (hold the present value).
        let held = if hazardous { !value } else { value };
        if held {
            f.set_on(fsv0);
        } else {
            f.set_off(fsv0);
        }
    }
    Ok(f)
}

/// The equations produced by Step 6, in cover form.
#[derive(Debug, Clone)]
pub struct CoverEquations {
    /// The `fsv` function over the `(x, y)` space, cover-represented.
    pub fsv: CoverFunction,
    /// Essential SOP cover of `fsv`.
    pub fsv_cover: Cover,
    /// Next-state functions over the `(x, y, fsv)` space, cover-represented.
    pub y: Vec<CoverFunction>,
    /// Essential SOP cover of each next-state function.
    pub y_covers: Vec<Cover>,
}

/// Generate the `fsv` and `Y` equations in cover form. No step enumerates
/// the `2^n` space: the occupied region, hazard lists and transition
/// subcubes all enter as cubes.
///
/// # Errors
///
/// Propagates cover-construction errors and the race-freedom check of
/// [`SpecifiedTable::next_state_cover_functions`].
pub fn generate_covers(
    spec: &SpecifiedTable,
    hazards: &HazardAnalysis,
) -> Result<CoverEquations, SynthesisError> {
    let fsv = fsv_cover_function(spec, hazards)?;
    let fsv_cover = fsv.minimize();

    let mut base = spec.next_state_cover_functions()?;
    constrain_unspecified_intermediates_covers(spec, &mut base);
    let y: Vec<CoverFunction> = base
        .iter()
        .enumerate()
        .map(|(var, base_fn)| extend_next_state_cover(spec, hazards, var, base_fn))
        .collect();
    let y_covers: Vec<Cover> = y.iter().map(CoverFunction::minimize).collect();

    Ok(CoverEquations {
        fsv,
        fsv_cover,
        y,
        y_covers,
    })
}

/// Build the `fsv` function in cover form: on at every hazard-list total
/// state, off on the rest of the occupied region (derived by disjoint sharp
/// of the occupied cover against the hazard points), implicit don't-care on
/// unused codes. Implements the same partition as [`fsv_function`].
///
/// # Errors
///
/// Propagates cover-construction errors (never expected for a consistent
/// hazard analysis).
pub fn fsv_cover_function(
    spec: &SpecifiedTable,
    hazards: &HazardAnalysis,
) -> Result<CoverFunction, SynthesisError> {
    let vars = spec.num_vars();
    let on = Cover::from_cubes(
        vars,
        hazards
            .fl
            .iter()
            .map(|&m| Cube::from_minterm(vars, m).expect("hazard minterm in range"))
            .collect(),
    );
    let off = spec.occupied_cover().sharp(&on);
    CoverFunction::from_on_off(on, off)
        .map_err(|e| SynthesisError::InvalidFlowTable(format!("inconsistent fsv covers: {e}")))
}

/// Cover-form analog of [`constrain_unspecified_intermediates`]: pin the
/// invariant state variables at unspecified intermediate points by pushing
/// the point cubes into the relevant on/off covers.
fn constrain_unspecified_intermediates_covers(spec: &SpecifiedTable, base: &mut [CoverFunction]) {
    for transition in spec.stable_transitions() {
        if !transition.is_multiple_input_change() {
            continue;
        }
        let from_code = spec.code(transition.from_state).clone();
        let to_code = spec.code(transition.to_state).clone();
        for intermediate in Bits::transition_cube(&transition.from_input, &transition.to_input) {
            if intermediate == transition.from_input || intermediate == transition.to_input {
                continue;
            }
            let column = intermediate.index();
            if spec
                .table()
                .next_state(transition.from_state, column)
                .is_some()
            {
                continue;
            }
            let m = spec.minterm(column, &from_code);
            let point = spec.total_state_point(column, &from_code);
            for (var, f) in base.iter_mut().enumerate() {
                if from_code.bit(var) == to_code.bit(var) && f.is_dc(m) {
                    if from_code.bit(var) {
                        f.push_on(point.clone());
                    } else {
                        f.push_off(point.clone());
                    }
                }
            }
        }
    }
}

/// Extend a next-state cover function into the `(x, y, fsv)` space,
/// complementing hazard-list minterms in the `fsv = 0` half (the cover form
/// of [`extend_next_state`]). The `fsv = 1` half carries the base
/// covers unchanged; in the `fsv = 0` half the hazard points are carved out
/// of the base covers by disjoint sharp and re-pinned to the held (present)
/// value.
fn extend_next_state_cover(
    spec: &SpecifiedTable,
    hazards: &HazardAnalysis,
    var: usize,
    base: &CoverFunction,
) -> CoverFunction {
    let vars = spec.num_vars();
    let ext_vars = spec.num_vars_extended();
    let hazard_points: Vec<u64> = hazards.hl.get(var).into_iter().flatten().copied().collect();
    let hp_cover = Cover::from_cubes(
        vars,
        hazard_points
            .iter()
            .map(|&m| Cube::from_minterm(vars, m).expect("hazard minterm in range"))
            .collect(),
    );

    let mut on: Vec<Cube> = Vec::new();
    let mut off: Vec<Cube> = Vec::new();
    // fsv = 1 half: the base function unchanged.
    on.extend(base.on_cover().iter().map(|c| c.appended(Literal::One)));
    off.extend(base.off_cover().iter().map(|c| c.appended(Literal::One)));
    // fsv = 0 half: base minus the hazard points ...
    on.extend(
        base.on_cover()
            .sharp(&hp_cover)
            .iter()
            .map(|c| c.appended(Literal::Zero)),
    );
    off.extend(
        base.off_cover()
            .sharp(&hp_cover)
            .iter()
            .map(|c| c.appended(Literal::Zero)),
    );
    // ... with each hazard point held at its present (complemented) value.
    for &m in &hazard_points {
        let point = Cube::from_minterm(vars, m).expect("hazard minterm in range");
        if base.is_on(m) {
            off.push(point.appended(Literal::Zero));
        } else if base.is_off(m) {
            on.push(point.appended(Literal::Zero));
        }
        // A don't-care hazard point stays don't-care in both halves.
    }
    CoverFunction::from_on_off(
        Cover::from_cubes(ext_vars, on),
        Cover::from_cubes(ext_vars, off),
    )
    .expect("hazard carving keeps the extended covers disjoint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazard;
    use fantom_assign::assign;
    use fantom_flow::benchmarks;

    fn setup(table: fantom_flow::FlowTable) -> (SpecifiedTable, HazardAnalysis) {
        let assignment = assign(&table);
        let spec = SpecifiedTable::new(table, assignment).unwrap();
        let analysis = hazard::analyze(&spec);
        (spec, analysis)
    }

    #[test]
    fn fsv_is_one_exactly_on_hazard_states_among_occupied() {
        for table in benchmarks::all() {
            let (spec, analysis) = setup(table);
            let eqs = generate_covers(&spec, &analysis).unwrap();
            for m in occupied_minterms(&spec) {
                let expected = analysis.fl.contains(&m);
                assert_eq!(
                    eqs.fsv_cover.covers_minterm(m),
                    expected,
                    "{}: fsv wrong at minterm {m}",
                    spec.table().name()
                );
            }
        }
    }

    #[test]
    fn fsv_cover_implements_fsv_function() {
        for table in benchmarks::paper_suite() {
            let (spec, analysis) = setup(table);
            let eqs = generate_covers(&spec, &analysis).unwrap();
            let f = fsv_function(&spec, &analysis).unwrap();
            assert!(f.implemented_by(&eqs.fsv_cover));
        }
    }

    #[test]
    fn y_covers_implement_their_functions() {
        for table in benchmarks::paper_suite() {
            let (spec, analysis) = setup(table);
            let eqs = generate_covers(&spec, &analysis).unwrap();
            let y = y_functions(&spec, &analysis).unwrap();
            for (f, c) in y.iter().zip(&eqs.y_covers) {
                assert!(f.implemented_by(c), "{}", spec.table().name());
            }
        }
    }

    #[test]
    fn fsv_zero_half_holds_hazardous_variables() {
        for table in benchmarks::paper_suite() {
            let (spec, analysis) = setup(table);
            let eqs = generate_covers(&spec, &analysis).unwrap();
            for (var, hl) in analysis.hl.iter().enumerate() {
                for &m in hl {
                    let (_, code) = spec.decompose(m);
                    let present = code.bit(var);
                    let fsv0 = m << 1;
                    assert_eq!(
                        eqs.y[var].is_on(fsv0),
                        present,
                        "{}: Y{} must hold its present value at hazard minterm {m}",
                        spec.table().name(),
                        var + 1
                    );
                }
            }
        }
    }

    #[test]
    fn fsv_one_half_matches_the_specified_table() {
        for table in benchmarks::paper_suite() {
            let (spec, analysis) = setup(table);
            let eqs = generate_covers(&spec, &analysis).unwrap();
            let base = spec.next_state_functions().unwrap();
            for (var, base_fn) in base.iter().enumerate() {
                for m in 0..base_fn.space_size() {
                    if base_fn.is_dc(m) {
                        continue;
                    }
                    let fsv1 = (m << 1) | 1;
                    assert_eq!(eqs.y[var].is_on(fsv1), base_fn.is_on(m));
                }
            }
        }
    }

    #[test]
    fn cover_equations_match_dense_equations_pointwise() {
        for table in benchmarks::all() {
            let (spec, analysis) = setup(table);
            let sparse = generate_covers(&spec, &analysis).unwrap();
            let name = spec.table().name();
            // fsv partition identical.
            let fsv = fsv_function(&spec, &analysis).unwrap();
            for m in 0..fsv.space_size() {
                assert_eq!(sparse.fsv.is_on(m), fsv.is_on(m), "{name} fsv on {m}");
                assert_eq!(sparse.fsv.is_off(m), fsv.is_off(m), "{name} fsv off {m}");
            }
            assert!(sparse.fsv.implemented_by(&sparse.fsv_cover));
            // Next-state partitions identical, covers valid for both forms.
            let y = y_functions(&spec, &analysis).unwrap();
            for (var, (df, sf)) in y.iter().zip(&sparse.y).enumerate() {
                for m in 0..df.space_size() {
                    assert_eq!(sf.is_on(m), df.is_on(m), "{name} Y{var} on {m}");
                    assert_eq!(sf.is_off(m), df.is_off(m), "{name} Y{var} off {m}");
                }
                assert!(df.implemented_by(&sparse.y_covers[var]), "{name} Y{var}");
            }
        }
    }

    #[test]
    fn hazard_free_machine_has_constant_zero_fsv() {
        use fantom_flow::FlowTableBuilder;
        let mut b = FlowTableBuilder::new("sic", 1, 1);
        b.states(["A", "B"]);
        b.stable("A", "0", "0").unwrap();
        b.stable("B", "1", "1").unwrap();
        b.transition("A", "1", "B").unwrap();
        b.transition("B", "0", "A").unwrap();
        let (spec, analysis) = setup(b.build().unwrap());
        let eqs = generate_covers(&spec, &analysis).unwrap();
        assert!(eqs.fsv_cover.is_empty());
    }
}
