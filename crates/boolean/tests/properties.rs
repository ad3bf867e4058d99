//! Property-based tests for the cube algebra, two-level minimization and
//! the minterm-set algebra.

use std::collections::BTreeSet;

use fantom_boolean::{hazard, quine, Cover, CoverFunction, Cube, Function, Literal, MintermSet};
use proptest::prelude::*;

const NUM_VARS: usize = 5;

/// The pipeline's essential-SOP minimization of a tabulated function.
fn minimized(f: &Function) -> Cover {
    CoverFunction::from_function(f).minimize()
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        Just(Literal::Zero),
        Just(Literal::One),
        Just(Literal::DontCare),
    ]
}

fn arb_cube() -> impl Strategy<Value = Cube> {
    proptest::collection::vec(arb_literal(), NUM_VARS).prop_map(Cube::new)
}

fn arb_function() -> impl Strategy<Value = Function> {
    // Random on-set / dc-set over a 5-variable space.
    (
        proptest::collection::btree_set(0u64..(1 << NUM_VARS), 0..20),
        proptest::collection::btree_set(0u64..(1 << NUM_VARS), 0..8),
    )
        .prop_map(|(on, dc)| {
            let on: Vec<u64> = on.into_iter().collect();
            let dc: Vec<u64> = dc.into_iter().collect();
            Function::from_on_dc(NUM_VARS, &on, &dc).expect("within range")
        })
}

/// A minterm set's backing words over a space of 0–640 points (0–10 words),
/// the last word masked to the space. The set is empty, sparse (a quarter of
/// the points), half full or full, so the word-level answers (disjoint,
/// subset, equal) occur as well as mixed ones.
fn arb_set_words() -> impl Strategy<Value = Vec<u64>> {
    (
        0u64..=640,
        0u8..4,
        proptest::collection::vec(any::<u64>(), 20),
    )
        .prop_map(|(capacity, density, raw)| {
            let words = (capacity as usize).div_ceil(64);
            let mut out: Vec<u64> = (0..words)
                .map(|i| match density {
                    0 => 0,
                    1 => raw[2 * i] & raw[2 * i + 1],
                    2 => raw[2 * i],
                    _ => !0,
                })
                .collect();
            if let Some(last) = out.last_mut().filter(|_| capacity % 64 != 0) {
                *last &= !0u64 >> (64 - capacity % 64);
            }
            out
        })
}

/// The members of a backing-word array, read bit by bit.
fn model(words: &[u64]) -> BTreeSet<u64> {
    (0..words.len() as u64 * 64)
        .filter(|&m| words[m as usize / 64] >> (m % 64) & 1 == 1)
        .collect()
}

proptest! {
    /// Every `MintermSet` operation over word arrays agrees with the same
    /// operation on a `BTreeSet<u64>`, for operands of independent
    /// capacities (sets of different widths meet on their common words).
    #[test]
    fn minterm_set_algebra_matches_btree_set(a in arb_set_words(), b in arb_set_words()) {
        let (ma, mb) = (model(&a), model(&b));
        let (sa, sb) = (MintermSet::from_words(a.clone()), MintermSet::from_words(b.clone()));
        prop_assert_eq!(sa.len(), ma.len());
        prop_assert_eq!(sa.is_empty(), ma.is_empty());
        prop_assert_eq!(sa.capacity(), a.len() as u64 * 64);
        prop_assert_eq!(&sa, &MintermSet::from_minterms(sa.capacity(), ma.iter().copied()));
        prop_assert_eq!(sa.iter().collect::<BTreeSet<u64>>(), ma.clone());

        prop_assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.same_contents(&sb), ma == mb);
        prop_assert_eq!(sa.intersection_count(&sb), ma.intersection(&mb).count());

        let mut union = sa.clone();
        union.union_with(&sb);
        prop_assert_eq!(union.capacity(), sa.capacity().max(sb.capacity()));
        prop_assert_eq!(union.len(), ma.union(&mb).count());
        prop_assert_eq!(union.iter().collect::<BTreeSet<u64>>(), &ma | &mb);

        let mut difference = sa.clone();
        difference.subtract(&sb);
        prop_assert_eq!(difference.capacity(), sa.capacity());
        prop_assert_eq!(difference.len(), ma.difference(&mb).count());
        prop_assert_eq!(difference.iter().collect::<BTreeSet<u64>>(), &ma - &mb);

        // a − (a − b) = a ∩ b, a subset of both operands.
        let mut common = sa.clone();
        common.subtract(&difference);
        prop_assert!(common.is_subset(&sa) && common.is_subset(&sb));
        prop_assert_eq!(common.len(), sa.intersection_count(&sb));
        prop_assert!(common.same_contents(&MintermSet::from_minterms(
            sb.capacity(),
            ma.intersection(&mb).copied(),
        )));

        let (mut undone, mut undo) = (sa.clone(), Vec::new());
        undone.subtract_with_undo(&sb, &mut undo);
        prop_assert_eq!(&undone, &difference);
        undone.undo_subtract(&undo);
        prop_assert_eq!(&undone, &sa);
    }

    /// The intersection of two cubes covers exactly the minterms covered by both.
    #[test]
    fn cube_intersection_is_set_intersection(a in arb_cube(), b in arb_cube()) {
        let inter = a.intersect(&b);
        for m in 0..(1u64 << NUM_VARS) {
            let both = a.contains_minterm(m) && b.contains_minterm(m);
            let by_inter = inter.as_ref().is_some_and(|c| c.contains_minterm(m));
            prop_assert_eq!(both, by_inter, "minterm {}", m);
        }
    }

    /// The supercube covers everything either operand covers.
    #[test]
    fn supercube_covers_operands(a in arb_cube(), b in arb_cube()) {
        let s = a.supercube(&b);
        prop_assert!(s.covers(&a));
        prop_assert!(s.covers(&b));
        for m in 0..(1u64 << NUM_VARS) {
            if a.contains_minterm(m) || b.contains_minterm(m) {
                prop_assert!(s.contains_minterm(m));
            }
        }
    }

    /// Cube containment agrees with minterm-set containment.
    #[test]
    fn covers_iff_minterm_subset(a in arb_cube(), b in arb_cube()) {
        let subset = b.minterms().iter().all(|&m| a.contains_minterm(m));
        prop_assert_eq!(a.covers(&b), subset);
    }

    /// `minterm_count` matches the enumerated minterm list length.
    #[test]
    fn minterm_count_matches_enumeration(a in arb_cube()) {
        prop_assert_eq!(a.minterm_count() as usize, a.minterms().len());
    }

    /// Every prime implicant is an implicant (never intersects the off-set)
    /// and is maximal (cannot be widened in any variable).
    #[test]
    fn primes_are_maximal_implicants(f in arb_function()) {
        let primes = quine::prime_implicants(&f);
        for p in &primes {
            prop_assert!(f.admits_cube(p), "prime {} intersects off-set", p);
            for v in 0..NUM_VARS {
                if p.literal(v) != Literal::DontCare {
                    let widened = p.with_literal(v, Literal::DontCare);
                    prop_assert!(!f.admits_cube(&widened), "prime {} not maximal at var {}", p, v);
                }
            }
        }
    }

    /// A minimized cover implements the function it was derived from.
    #[test]
    fn minimized_cover_implements_function(f in arb_function()) {
        let cover = minimized(&f);
        prop_assert!(cover.equivalent_to(&f));
    }

    /// The minimized cover never uses more cubes than the number of on-set
    /// minterms (the trivial canonical cover).
    #[test]
    fn minimized_cover_no_worse_than_canonical(f in arb_function()) {
        let cover = minimized(&f);
        prop_assert!(cover.cube_count() as u64 <= f.on_count().max(1));
    }

    /// The all-primes cover (the cube-wise complete sum the Huffman baseline
    /// uses) implements the function and is free of static-1 hazards for
    /// single-input changes between *specified* on-set minterms (transitions
    /// through don't-care vertices are unconstrained).
    #[test]
    fn all_primes_cover_is_hazard_free(f in arb_function()) {
        let cover = Cover::from_cubes(NUM_VARS, CoverFunction::from_function(&f).prime_implicants());
        prop_assert!(cover.equivalent_to(&f));
        let on_set_hazards = hazard::static_hazards(&cover)
            .into_iter()
            .filter(|h| f.is_on(h.from) && f.is_on(h.to))
            .count();
        prop_assert_eq!(on_set_hazards, 0);
    }

    /// Parsing a displayed cube round-trips.
    #[test]
    fn cube_display_parse_round_trip(a in arb_cube()) {
        let round = Cube::parse(&a.to_string()).expect("display emits valid cube text");
        prop_assert_eq!(a, round);
    }

    /// The two-level expression and the first-level-gate expression of a cover
    /// compute the same function, and the first-level-gate depth is at most
    /// one level deeper.
    #[test]
    fn first_level_gate_transform_is_equivalent(f in arb_function()) {
        use fantom_boolean::Expr;
        let cover = minimized(&f);
        let two = Expr::from_cover(&cover);
        let flg = Expr::first_level_gates(&cover);
        for m in 0..(1u64 << NUM_VARS) {
            let bits: Vec<bool> = (0..NUM_VARS).map(|i| (m >> (NUM_VARS - 1 - i)) & 1 == 1).collect();
            prop_assert_eq!(two.eval(&bits), flg.eval(&bits), "minterm {}", m);
        }
        prop_assert!(flg.depth() <= two.depth() + 1);
    }

    /// Removing contained cubes never changes the function of a cover.
    #[test]
    fn containment_removal_preserves_function(cubes in proptest::collection::vec(arb_cube(), 1..8)) {
        let mut cover = Cover::from_cubes(NUM_VARS, cubes);
        let before: Vec<bool> = (0..(1u64 << NUM_VARS)).map(|m| cover.covers_minterm(m)).collect();
        cover.remove_contained_cubes();
        let after: Vec<bool> = (0..(1u64 << NUM_VARS)).map(|m| cover.covers_minterm(m)).collect();
        prop_assert_eq!(before, after);
    }
}
