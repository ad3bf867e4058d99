//! Property-based tests for the cube algebra and two-level minimization.

use fantom_boolean::{hazard, quine, Cover, CoverFunction, Cube, Function, Literal};
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

proptest! {
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
