//! Differential property tests pinning the **indexed** Step 5/7 engines —
//! [`hazard::static_hazard_regions`], [`hazard::add_consensus_terms_on_pairs`]
//! and [`petrick::minimum_cover_sparse`] — against verbatim copies of the
//! pre-index (PR 2–4) implementations used as oracles.
//!
//! Two kinds of pin:
//!
//! * where the indexed rewrite is a pure reorganisation (the sparse covering
//!   table), results must be **identical**;
//! * where subtraction order and region dedup legitimately change the cube
//!   decomposition (hazard regions, consensus augmentation), results must be
//!   **equally valid**: same hazardous-pair semantics, base cubes preserved,
//!   added primes inside `on ∪ dc`, and the output verified hazard-free by
//!   the oracle's own machinery.
//!
//! Generators cover mixed-phase random covers, dc-heavy flow-table-shaped
//! functions, unate covers, and deterministic 31/32/33-variable cases that
//! straddle the packed-cube word boundary (where minterm enumeration is
//! impossible and every check must stay cube-wise).

use std::collections::BTreeSet;

use fantom_boolean::{hazard, petrick, Cover, CoverFunction, Cube, Literal};
use proptest::prelude::*;

const NUM_VARS: usize = 6;

// ---------------------------------------------------------------------------
// Oracles: the pre-index implementations, copied verbatim (modulo privacy).
// ---------------------------------------------------------------------------

/// Pre-index `overlapping_regions_for`: full-cover scans per variable, sharp
/// against every var-free cube in cover order.
fn oracle_overlapping_regions_for(cover: &Cover, var: usize) -> Vec<Cube> {
    let free: Vec<&Cube> = cover
        .cubes()
        .iter()
        .filter(|c| c.literal(var) == Literal::DontCare)
        .collect();
    let lower: Vec<Cube> = cover
        .cubes()
        .iter()
        .filter(|c| c.literal(var) == Literal::Zero)
        .map(|c| c.with_literal(var, Literal::DontCare))
        .collect();
    let upper: Vec<Cube> = cover
        .cubes()
        .iter()
        .filter(|c| c.literal(var) == Literal::One)
        .map(|c| c.with_literal(var, Literal::DontCare))
        .collect();
    let mut out: Vec<Cube> = Vec::new();
    for a in &lower {
        for b in &upper {
            let Some(q) = a.intersect(b) else { continue };
            let mut pieces = vec![q];
            for f in &free {
                pieces = pieces.iter().flat_map(|p| p.sharp(f)).collect();
                if pieces.is_empty() {
                    break;
                }
            }
            out.extend(pieces);
        }
    }
    out
}

/// Pre-index `static_hazard_regions`: the quadratic disjointness pass over
/// the raw overlapping regions.
fn oracle_static_hazard_regions(cover: &Cover) -> Vec<(usize, Cube)> {
    let n = cover.num_vars();
    let mut out = Vec::new();
    for var in 0..n {
        let mut disjoint: Vec<Cube> = Vec::new();
        for q in oracle_overlapping_regions_for(cover, var) {
            let mut pieces = vec![q];
            for u in &disjoint {
                pieces = pieces.iter().flat_map(|p| p.sharp(u)).collect();
                if pieces.is_empty() {
                    break;
                }
            }
            disjoint.extend(pieces);
        }
        out.extend(disjoint.into_iter().map(|region| (var, region)));
    }
    out
}

/// Pre-index `add_consensus_terms_on_pairs`: var-free snapshot before the
/// pair loop, full-cover rescan per piece.
fn oracle_add_consensus_terms_on_pairs(on: &Cover, off: &Cover, base: &Cover) -> Cover {
    let n = base.num_vars();
    let mut cover = base.clone();
    for var in 0..n {
        let lower: Vec<Cube> = on
            .cubes()
            .iter()
            .filter(|c| c.literal(var) != Literal::One)
            .map(|c| c.with_literal(var, Literal::DontCare))
            .collect();
        let upper: Vec<Cube> = on
            .cubes()
            .iter()
            .filter(|c| c.literal(var) != Literal::Zero)
            .map(|c| c.with_literal(var, Literal::DontCare))
            .collect();
        let free: Vec<Cube> = cover
            .cubes()
            .iter()
            .filter(|c| c.literal(var) == Literal::DontCare)
            .cloned()
            .collect();
        for a in &lower {
            for b in &upper {
                let Some(q) = a.intersect(b) else { continue };
                let mut pieces = vec![q];
                for f in &free {
                    pieces = pieces.iter().flat_map(|p| p.sharp(f)).collect();
                    if pieces.is_empty() {
                        break;
                    }
                }
                for piece in pieces {
                    if cover.single_cube_covers(&piece) {
                        continue;
                    }
                    let mut grown = piece;
                    for v in 0..n {
                        if grown.literal(v) == Literal::DontCare {
                            continue;
                        }
                        let widened = grown.with_literal(v, Literal::DontCare);
                        if !off.intersects_cube(&widened) {
                            grown = widened;
                        }
                    }
                    cover.push(grown);
                }
            }
        }
    }
    cover
}

/// Pre-index `minimum_cover_sparse` with its private helpers, copied from
/// the PR 2 implementation (linear containment scans, no prime index).
mod oracle_petrick {
    use super::*;

    const PETRICK_EXACT_LIMIT: usize = 2_000;
    const FRAGMENT_LIMIT: usize = 2_048;

    fn build_cover(num_vars: usize, primes: &[Cube], selected: &[usize]) -> Cover {
        let mut idx: Vec<usize> = selected.to_vec();
        idx.sort_unstable();
        idx.dedup();
        Cover::from_cubes(
            num_vars,
            idx.into_iter().map(|i| primes[i].clone()).collect(),
        )
    }

    fn absorb(products: &mut Vec<BTreeSet<usize>>) {
        products.sort_by_key(BTreeSet::len);
        let mut kept: Vec<BTreeSet<usize>> = Vec::with_capacity(products.len());
        'outer: for p in products.drain(..) {
            for k in &kept {
                if k.is_subset(&p) {
                    continue 'outer;
                }
            }
            kept.push(p);
        }
        *products = kept;
    }

    fn petrick_exact_table(primes: &[Cube], rows: &[&Vec<usize>]) -> Vec<usize> {
        let mut products: Vec<BTreeSet<usize>> = vec![BTreeSet::new()];
        for covering in rows {
            let mut next: Vec<BTreeSet<usize>> = Vec::new();
            for product in &products {
                if product.iter().any(|i| covering.contains(i)) {
                    next.push(product.clone());
                    continue;
                }
                for &p in covering.iter() {
                    let mut grown = product.clone();
                    grown.insert(p);
                    next.push(grown);
                }
            }
            absorb(&mut next);
            if next.len() > 2_000 {
                return greedy_table(rows);
            }
            products = next;
        }
        products
            .into_iter()
            .min_by_key(|set| {
                let lits: usize = set.iter().map(|&i| primes[i].literal_count()).sum();
                (set.len(), lits)
            })
            .map(|set| set.into_iter().collect())
            .unwrap_or_default()
    }

    fn greedy_table(rows: &[&Vec<usize>]) -> Vec<usize> {
        let mut uncovered: Vec<usize> = (0..rows.len()).collect();
        let mut chosen: Vec<usize> = Vec::new();
        while !uncovered.is_empty() {
            let best = uncovered
                .iter()
                .flat_map(|&r| rows[r].iter().copied())
                .filter(|i| !chosen.contains(i))
                .max_by_key(|&i| uncovered.iter().filter(|&&r| rows[r].contains(&i)).count());
            let Some(best) = best else { break };
            chosen.push(best);
            uncovered.retain(|&r| !rows[r].contains(&best));
        }
        chosen
    }

    fn greedy_sharp_cover(f: &CoverFunction, primes: &[Cube]) -> Cover {
        let n = f.num_vars();
        let mut remaining: Cover = f.on_cover().clone();
        remaining.remove_contained_cubes();
        let mut used = vec![false; primes.len()];
        let mut chosen: Vec<usize> = Vec::new();
        while !remaining.is_empty() {
            let best = (0..primes.len())
                .filter(|&i| !used[i])
                .map(|i| {
                    let full = remaining
                        .cubes()
                        .iter()
                        .filter(|c| primes[i].covers(c))
                        .count();
                    let part = remaining
                        .cubes()
                        .iter()
                        .filter(|c| primes[i].intersect(c).is_some())
                        .count();
                    (part, full, i)
                })
                .filter(|&(part, _, _)| part > 0)
                .max_by_key(|&(part, full, i)| {
                    (full, part, usize::MAX - primes[i].literal_count())
                });
            let Some((_, _, best)) = best else { break };
            used[best] = true;
            chosen.push(best);
            remaining = remaining.sharp_cube(&primes[best]);
            remaining.remove_contained_cubes();
        }
        build_cover(n, primes, &chosen)
    }

    pub fn minimum_cover_sparse(f: &CoverFunction, primes: &[Cube]) -> Cover {
        let n = f.num_vars();
        if primes.is_empty() || f.on_cover().is_empty() {
            return Cover::empty(n);
        }
        let mut rows: Vec<Cube> = f.on_cover().make_disjoint().cubes().to_vec();
        for p in primes {
            let mut next: Vec<Cube> = Vec::with_capacity(rows.len());
            for r in rows {
                match r.intersect(p) {
                    None => next.push(r),
                    Some(_) if p.covers(&r) => next.push(r),
                    Some(inside) => {
                        next.push(inside);
                        next.extend(r.sharp(p));
                    }
                }
            }
            rows = next;
            if rows.len() > FRAGMENT_LIMIT {
                return greedy_sharp_cover(f, primes);
            }
        }
        let coverers: Vec<Vec<usize>> = rows
            .iter()
            .map(|r| (0..primes.len()).filter(|&i| primes[i].covers(r)).collect())
            .collect();
        let mut selected: Vec<usize> = Vec::new();
        for c in &coverers {
            if let [only] = c.as_slice() {
                if !selected.contains(only) {
                    selected.push(*only);
                }
            }
        }
        let residual: Vec<&Vec<usize>> = coverers
            .iter()
            .filter(|c| !c.is_empty() && !c.iter().any(|i| selected.contains(i)))
            .collect();
        if residual.is_empty() {
            return build_cover(n, primes, &selected);
        }
        let mut candidates: Vec<usize> = residual.iter().flat_map(|c| c.iter().copied()).collect();
        candidates.sort_unstable();
        candidates.dedup();
        let extra = if candidates.len() * residual.len() <= PETRICK_EXACT_LIMIT {
            petrick_exact_table(primes, &residual)
        } else {
            greedy_table(&residual)
        };
        selected.extend(extra);
        build_cover(n, primes, &selected)
    }
}

// ---------------------------------------------------------------------------
// Cube-wise validity checkers (safe at any width — no minterm enumeration).
// ---------------------------------------------------------------------------

/// Union-of-regions for one variable as a cover (var stays free in every
/// region, so region covers compare cube-wise).
fn region_cover(regions: &[(usize, Cube)], var: usize, n: usize) -> Cover {
    Cover::from_cubes(
        n,
        regions
            .iter()
            .filter(|(v, _)| *v == var)
            .map(|(_, r)| r.clone())
            .collect(),
    )
}

/// Both region lists bundle exactly the same hazardous pairs: for each
/// variable the unions must cover each other (checked with the sharp-based
/// `covers_cube`, never by pair enumeration).
fn assert_same_pair_semantics(ours: &[(usize, Cube)], oracle: &[(usize, Cube)], n: usize) {
    for var in 0..n {
        let a = region_cover(ours, var, n);
        let b = region_cover(oracle, var, n);
        for r in a.cubes() {
            assert!(b.covers_cube(r), "var {var}: extra hazard region {r}");
        }
        for r in b.cubes() {
            assert!(a.covers_cube(r), "var {var}: missing hazard region {r}");
        }
    }
}

/// Every region of the same variable is pairwise disjoint and var-free.
fn assert_disjoint_regions(regions: &[(usize, Cube)]) {
    for (i, (va, a)) in regions.iter().enumerate() {
        assert_eq!(a.literal(*va), Literal::DontCare);
        for (vb, b) in &regions[i + 1..] {
            if va == vb {
                assert!(a.intersect(b).is_none(), "overlapping regions {a} / {b}");
            }
        }
    }
}

/// The on-pair consensus result is equally valid: base prefix kept, added
/// cubes avoid `off`, and every on/on pair region is covered by a single
/// var-free cube of the result (cube-wise, via sharp).
fn assert_on_pair_consensus_valid(result: &Cover, on: &Cover, off: &Cover, base: &Cover) {
    let n = base.num_vars();
    assert_eq!(&result.cubes()[..base.cube_count()], base.cubes());
    for added in &result.cubes()[base.cube_count()..] {
        assert!(!off.intersects_cube(added), "added cube {added} hits off");
    }
    for var in 0..n {
        let free: Vec<&Cube> = result
            .cubes()
            .iter()
            .filter(|c| c.literal(var) == Literal::DontCare)
            .collect();
        for a in on.cubes().iter().filter(|c| c.literal(var) != Literal::One) {
            for b in on
                .cubes()
                .iter()
                .filter(|c| c.literal(var) != Literal::Zero)
            {
                let qa = a.with_literal(var, Literal::DontCare);
                let Some(q) = qa.intersect(&b.with_literal(var, Literal::DontCare)) else {
                    continue;
                };
                let mut pieces = vec![q];
                for f in &free {
                    pieces = pieces.iter().flat_map(|p| p.sharp(f)).collect();
                    if pieces.is_empty() {
                        break;
                    }
                }
                assert!(
                    pieces.is_empty(),
                    "var {var}: on/on pair region of {a} × {b} left hazardous"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generators (mirroring recursive_properties.rs).
// ---------------------------------------------------------------------------

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        Just(Literal::Zero),
        Just(Literal::One),
        Just(Literal::DontCare),
    ]
}

fn arb_cube(num_vars: usize) -> impl Strategy<Value = Cube> {
    proptest::collection::vec(arb_literal(), num_vars).prop_map(Cube::new)
}

fn arb_cover(num_vars: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    proptest::collection::vec(arb_cube(num_vars), 0..max_cubes)
        .prop_map(move |cubes| Cover::from_cubes(num_vars, cubes))
}

fn arb_unate_cover(num_vars: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    (
        proptest::collection::vec(proptest::arbitrary::any::<bool>(), num_vars),
        proptest::collection::vec(
            proptest::collection::vec(proptest::arbitrary::any::<bool>(), num_vars),
            1..max_cubes,
        ),
    )
        .prop_map(move |(phases, picks)| {
            let cubes: Vec<Cube> = picks
                .into_iter()
                .map(|bound| {
                    Cube::new(
                        (0..num_vars)
                            .map(|v| {
                                if bound[v] {
                                    if phases[v] {
                                        Literal::One
                                    } else {
                                        Literal::Zero
                                    }
                                } else {
                                    Literal::DontCare
                                }
                            })
                            .collect(),
                    )
                })
                .collect();
            Cover::from_cubes(num_vars, cubes)
        })
}

/// A dc-heavy incompletely specified function: on-set minterms plus a small
/// off cover (carved disjoint), everything else don't-care.
fn arb_dc_heavy(num_vars: usize) -> impl Strategy<Value = CoverFunction> {
    (
        proptest::collection::btree_set(0u64..(1u64 << num_vars), 1..10),
        arb_cover(num_vars, 4),
    )
        .prop_map(move |(on_pts, off)| {
            let on = Cover::from_cubes(
                num_vars,
                on_pts
                    .into_iter()
                    .map(|m| Cube::from_minterm(num_vars, m).unwrap())
                    .collect(),
            );
            let off = off.sharp(&on);
            CoverFunction::from_on_off(on, off).expect("sharp keeps the covers disjoint")
        })
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

proptest! {
    /// Indexed hazard regions bundle exactly the oracle's hazardous pairs,
    /// stay per-variable disjoint, and agree on hazard-freedom.
    #[test]
    fn indexed_regions_match_oracle(cover in arb_cover(NUM_VARS, 7)) {
        let ours: Vec<(usize, Cube)> = hazard::static_hazard_regions(&cover)
            .into_iter()
            .map(|r| (r.variable, r.region))
            .collect();
        let oracle = oracle_static_hazard_regions(&cover);
        assert_disjoint_regions(&ours);
        assert_same_pair_semantics(&ours, &oracle, NUM_VARS);
        // Disjoint bundles of the same pair set have the same pair count.
        let pair_count = |rs: &[(usize, Cube)]| -> u64 {
            rs.iter().map(|(_, r)| r.minterm_count() / 2).sum()
        };
        prop_assert_eq!(pair_count(&ours), pair_count(&oracle));
        prop_assert_eq!(
            hazard::is_static_hazard_free(&cover),
            oracle.is_empty()
        );
    }

    /// Indexed `add_consensus_terms_on_pairs` fixes every on/on adjacency,
    /// matching the oracle's guarantee, on dc-heavy functions.
    #[test]
    fn indexed_on_pair_consensus_equally_valid(cf in arb_dc_heavy(NUM_VARS)) {
        let base = cf.minimize();
        let (on, off) = (cf.on_cover(), cf.off_cover());
        let ours = hazard::add_consensus_terms_on_pairs(on, off, &base);
        let oracle = oracle_add_consensus_terms_on_pairs(on, off, &base);
        assert_on_pair_consensus_valid(&ours, on, off, &base);
        assert_on_pair_consensus_valid(&oracle, on, off, &base);
        // Dense cross-check of the guarantee: every adjacent on/on minterm
        // pair is covered by a single cube.
        for m in 0..(1u64 << NUM_VARS) {
            if !cf.is_on(m) { continue; }
            for var in 0..NUM_VARS {
                let bit = 1u64 << (NUM_VARS - 1 - var);
                let other = m | bit;
                if m & bit != 0 || !cf.is_on(other) { continue; }
                let full_mask = (1u64 << NUM_VARS) - 1;
                let pair = Cube::from_mask_value(NUM_VARS, full_mask & !bit, m);
                prop_assert!(ours.single_cube_covers(&pair), "pair {}/{}", m, other);
            }
        }
    }

    /// The indexed sparse covering table is byte-identical to the oracle on
    /// dc-heavy functions.
    #[test]
    fn indexed_minimum_cover_sparse_identical_dc_heavy(cf in arb_dc_heavy(NUM_VARS)) {
        let primes = cf.expand_primes();
        let ours = petrick::minimum_cover_sparse(&cf, &primes);
        let oracle = oracle_petrick::minimum_cover_sparse(&cf, &primes);
        prop_assert_eq!(ours.cubes(), oracle.cubes());
    }

    /// ... and on completely specified mixed / unate covers.
    #[test]
    fn indexed_minimum_cover_sparse_identical_unate(cover in arb_unate_cover(NUM_VARS, 6)) {
        let off = fantom_boolean::recursive::complement(&cover);
        let cf = CoverFunction::from_on_off(cover, off).expect("complement is disjoint");
        let primes = cf.expand_primes();
        let ours = petrick::minimum_cover_sparse(&cf, &primes);
        let oracle = oracle_petrick::minimum_cover_sparse(&cf, &primes);
        prop_assert_eq!(ours.cubes(), oracle.cubes());
    }
}

// ---------------------------------------------------------------------------
// Word-boundary cases: 31/32/33 variables. Minterm enumeration is
// impossible here — everything must stay cube-wise.
// ---------------------------------------------------------------------------

/// A deterministic wide cover straddling the inline-word boundary: cubes
/// bind a window of variables around position 30..33 plus a couple of
/// anchors, the rest free.
fn wide_cover(n: usize) -> Cover {
    let mk = |pairs: &[(usize, Literal)]| {
        let mut lits = vec![Literal::DontCare; n];
        for &(v, l) in pairs {
            lits[v] = l;
        }
        Cube::new(lits)
    };
    use Literal::{One, Zero};
    let w = n - 2; // near the top so 31/32/33 straddle differently
    Cover::from_cubes(
        n,
        vec![
            mk(&[(0, One), (w, One)]),
            mk(&[(0, Zero), (w + 1, One)]),
            mk(&[(1, One), (w, Zero), (w + 1, Zero)]),
            mk(&[(0, One), (1, Zero), (w + 1, Zero)]),
        ],
    )
}

#[test]
fn wide_word_boundary_regions_match_oracle() {
    for n in [31usize, 32, 33] {
        let cover = wide_cover(n);
        let ours: Vec<(usize, Cube)> = hazard::static_hazard_regions(&cover)
            .into_iter()
            .map(|r| (r.variable, r.region))
            .collect();
        let oracle = oracle_static_hazard_regions(&cover);
        assert!(!oracle.is_empty(), "n={n}: wide case should have hazards");
        assert_disjoint_regions(&ours);
        assert_same_pair_semantics(&ours, &oracle, n);
        assert_eq!(
            hazard::is_static_hazard_free(&cover),
            oracle.is_empty(),
            "n={n}"
        );
    }
}

#[test]
fn wide_word_boundary_consensus_equally_valid() {
    use Literal::{One, Zero};
    for n in [31usize, 32, 33] {
        let on = wide_cover(n);
        // A small off cover disjoint from `on`: bind the same window to the
        // opposite phases.
        let mut lits = vec![Literal::DontCare; n];
        lits[0] = Zero;
        lits[1] = Zero;
        lits[n - 2] = One;
        lits[n - 1] = Zero;
        let off = Cover::from_cubes(n, vec![Cube::new(lits)]);
        for c in on.cubes() {
            assert!(!off.intersects_cube(c), "n={n}: generator overlap");
        }
        let base = on.clone();
        let ours = hazard::add_consensus_terms_on_pairs(&on, &off, &base);
        assert_on_pair_consensus_valid(&ours, &on, &off, &base);
    }
}

#[test]
fn wide_word_boundary_sparse_cover_identical() {
    for n in [31usize, 32, 33] {
        let on = wide_cover(n);
        let mut lits = vec![Literal::DontCare; n];
        lits[0] = Literal::Zero;
        lits[1] = Literal::Zero;
        lits[n - 2] = Literal::One;
        lits[n - 1] = Literal::Zero;
        let off = Cover::from_cubes(n, vec![Cube::new(lits)]);
        let cf = CoverFunction::from_on_off(on, off).expect("disjoint by phases");
        let primes = cf.expand_primes();
        let ours = petrick::minimum_cover_sparse(&cf, &primes);
        let oracle = oracle_petrick::minimum_cover_sparse(&cf, &primes);
        assert_eq!(ours.cubes(), oracle.cubes(), "n={n}");
        assert!(cf.implemented_by(&petrick::minimum_cover_sparse(&cf, &primes)));
    }
}
