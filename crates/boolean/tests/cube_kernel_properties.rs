//! Differential property tests: the bit-packed cube kernel against a naive
//! literal-vector reference implementation of the original semantics.
//!
//! Every operation of the packed kernel — parse/display, containment,
//! intersection, adjacency merge, supercube, minterm membership and
//! enumeration, literal metrics, ordering and the variable permutation of
//! covers and cover functions — is compared on random cubes up
//! to 24 variables (the dense-function regime) and across the
//! 1-word/multi-word boundary at 31/32/33 variables, plus spillover widths of
//! up to 8 words. Each test is driven by its own deterministic SplitMix64
//! stream so failures reproduce exactly.

use fantom_boolean::{Cover, CoverFunction, Cube, Literal};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// Deterministic seeded stream for reproducible random cubes (wraps the
/// workspace `rand` generator so the algorithm lives in one place).
struct Rng(StdRng);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(StdRng::seed_from_u64(seed))
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0.gen_range(0..bound)
    }
}

/// Naive reference cube: a plain literal vector with the loop-per-literal
/// semantics the packed kernel replaced.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RefCube(Vec<Literal>);

impl RefCube {
    fn random(rng: &mut Rng, num_vars: usize, dc_bias: bool) -> Self {
        RefCube(
            (0..num_vars)
                .map(|_| match rng.below(if dc_bias { 4 } else { 3 }) {
                    0 => Literal::Zero,
                    1 => Literal::One,
                    _ => Literal::DontCare,
                })
                .collect(),
        )
    }

    /// A cube inside `self` (each free position bound with probability
    /// 1/2), with one random position flipped half the time: whether the
    /// pair covers or intersects then rests on one position, in any word.
    fn near(&self, rng: &mut Rng) -> Self {
        let mut lits = self.0.clone();
        for lit in &mut lits {
            if *lit == Literal::DontCare && rng.below(2) == 0 {
                *lit = if rng.below(2) == 0 {
                    Literal::Zero
                } else {
                    Literal::One
                };
            }
        }
        if rng.below(2) == 0 {
            let v = rng.below(lits.len() as u64) as usize;
            lits[v] = match lits[v] {
                Literal::Zero => Literal::One,
                Literal::One => Literal::Zero,
                Literal::DontCare => Literal::DontCare,
            };
        }
        RefCube(lits)
    }

    fn to_packed(&self) -> Cube {
        Cube::new(self.0.clone())
    }

    fn display(&self) -> String {
        self.0.iter().map(|l| l.to_char()).collect()
    }

    fn covers(&self, other: &RefCube) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| match a {
            Literal::DontCare => true,
            _ => a == b,
        })
    }

    fn intersect(&self, other: &RefCube) -> Option<RefCube> {
        let mut lits = Vec::with_capacity(self.0.len());
        for (a, b) in self.0.iter().zip(&other.0) {
            let lit = match (a, b) {
                (Literal::DontCare, x) => *x,
                (x, Literal::DontCare) => *x,
                (x, y) if x == y => *x,
                _ => return None,
            };
            lits.push(lit);
        }
        Some(RefCube(lits))
    }

    fn combine_adjacent(&self, other: &RefCube) -> Option<RefCube> {
        let mut diff_at = None;
        for (i, (a, b)) in self.0.iter().zip(&other.0).enumerate() {
            if a == b {
                continue;
            }
            if *a == Literal::DontCare || *b == Literal::DontCare {
                return None;
            }
            if diff_at.is_some() {
                return None;
            }
            diff_at = Some(i);
        }
        diff_at.map(|i| {
            let mut lits = self.0.clone();
            lits[i] = Literal::DontCare;
            RefCube(lits)
        })
    }

    fn supercube(&self, other: &RefCube) -> RefCube {
        RefCube(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| if a == b { *a } else { Literal::DontCare })
                .collect(),
        )
    }

    /// The disjoint sharp, one literal at a time: for each variable bound
    /// in `other` and free in `self`, the prefix with that variable flipped,
    /// then the prefix pinned to `other`'s literal there.
    fn sharp(&self, other: &RefCube) -> Vec<RefCube> {
        if self.intersect(other).is_none() {
            return vec![self.clone()];
        }
        let mut out = Vec::new();
        let mut prefix = self.clone();
        for (v, (&a, &b)) in self.0.iter().zip(&other.0).enumerate() {
            if a == Literal::DontCare && b != Literal::DontCare {
                let mut piece = prefix.clone();
                piece.0[v] = if b == Literal::One {
                    Literal::Zero
                } else {
                    Literal::One
                };
                out.push(piece);
                prefix.0[v] = b;
            }
        }
        out
    }

    fn contains_minterm(&self, m: u64) -> bool {
        let n = self.0.len();
        self.0
            .iter()
            .enumerate()
            .all(|(i, lit)| lit.matches((m >> (n - 1 - i)) & 1 == 1))
    }

    fn literal_count(&self) -> usize {
        self.0.iter().filter(|l| **l != Literal::DontCare).count()
    }

    fn ones_count(&self) -> usize {
        self.0.iter().filter(|l| **l == Literal::One).count()
    }

    fn minterms(&self) -> Vec<u64> {
        let n = self.0.len();
        let mut out = Vec::new();
        for m in 0..(1u64 << n) {
            if self.contains_minterm(m) {
                out.push(m);
            }
        }
        out
    }
}

/// Variable widths exercising the inline word, the exact word boundary and
/// the heap spillover, up to 8 words (96–256 variables: 3, 4, 4, 5 and 8
/// words, the last word full or partly padding).
const WIDTHS: &[usize] = &[
    1, 2, 3, 5, 8, 13, 16, 20, 24, 31, 32, 33, 40, 64, 96, 127, 128, 129, 256,
];

/// Widths small enough to enumerate minterms exhaustively.
const DENSE_WIDTHS: &[usize] = &[1, 3, 5, 8, 13, 16];

const CASES_PER_WIDTH: usize = 200;

#[test]
fn parse_display_round_trip_matches_reference() {
    let mut rng = Rng::new(0x1001);
    for &n in WIDTHS {
        for _ in 0..CASES_PER_WIDTH {
            let r = RefCube::random(&mut rng, n, false);
            let text = r.display();
            let packed = Cube::parse(&text).expect("valid cube text");
            assert_eq!(packed.to_string(), text, "n={n}");
            assert_eq!(packed, r.to_packed(), "n={n} text={text}");
            // Literal accessors agree position by position.
            for (v, &lit) in r.0.iter().enumerate() {
                assert_eq!(packed.literal(v), lit, "n={n} v={v} text={text}");
            }
            assert_eq!(packed.literals().collect::<Vec<_>>(), r.0);
        }
    }
}

#[test]
fn literal_metrics_match_reference() {
    let mut rng = Rng::new(0x1002);
    for &n in WIDTHS {
        for _ in 0..CASES_PER_WIDTH {
            let r = RefCube::random(&mut rng, n, true);
            let p = r.to_packed();
            assert_eq!(p.literal_count(), r.literal_count(), "{r:?}");
            assert_eq!(p.ones_count(), r.ones_count(), "{r:?}");
            assert_eq!(p.is_universe(), r.literal_count() == 0, "{r:?}");
            assert_eq!(p.is_minterm(), r.literal_count() == n, "{r:?}");
            if n < 64 {
                assert_eq!(p.minterm_count(), 1u64 << (n - r.literal_count()), "{r:?}");
            }
        }
        // The universe, and the universe with any one position bound.
        assert!(Cube::universe(n).is_universe(), "n={n}");
        let v = rng.below(n as u64) as usize;
        let bound = Cube::universe(n).with_literal(v, Literal::One);
        assert!(!bound.is_universe(), "n={n} v={v}");
    }
}

#[test]
fn containment_matches_reference() {
    let mut rng = Rng::new(0x1003);
    for &n in WIDTHS {
        for _ in 0..CASES_PER_WIDTH {
            let a = RefCube::random(&mut rng, n, true);
            let b = RefCube::random(&mut rng, n, true);
            let (pa, pb) = (a.to_packed(), b.to_packed());
            assert_eq!(pa.covers(&pb), a.covers(&b), "a={a:?} b={b:?}");
            assert_eq!(pb.covers(&pa), b.covers(&a), "a={a:?} b={b:?}");
            assert!(pa.covers(&pa), "covers must be reflexive: {a:?}");
            let c = a.near(&mut rng);
            assert_eq!(pa.covers(&c.to_packed()), a.covers(&c), "a={a:?} c={c:?}");
        }
    }
}

#[test]
fn intersection_matches_reference() {
    let mut rng = Rng::new(0x1004);
    for &n in WIDTHS {
        for _ in 0..CASES_PER_WIDTH {
            let a = RefCube::random(&mut rng, n, true);
            let b = RefCube::random(&mut rng, n, true);
            let (pa, pb) = (a.to_packed(), b.to_packed());
            let expected = a.intersect(&b).map(|r| r.to_packed());
            assert_eq!(pa.intersect(&pb), expected, "a={a:?} b={b:?}");
            let c = a.near(&mut rng);
            let expected = a.intersect(&c).map(|r| r.to_packed());
            assert_eq!(pa.intersect(&c.to_packed()), expected, "a={a:?} c={c:?}");
        }
    }
}

#[test]
fn adjacency_merge_matches_reference() {
    let mut rng = Rng::new(0x1005);
    for &n in WIDTHS {
        for _ in 0..CASES_PER_WIDTH {
            let a = RefCube::random(&mut rng, n, false);
            // Bias towards near-misses and exact merges: mutate a copy of `a`
            // in a few positions rather than drawing independently.
            let mut b = a.clone();
            for _ in 0..=rng.below(3) {
                let v = rng.below(n as u64) as usize;
                b.0[v] = match rng.below(3) {
                    0 => Literal::Zero,
                    1 => Literal::One,
                    _ => Literal::DontCare,
                };
            }
            let (pa, pb) = (a.to_packed(), b.to_packed());
            let expected = a.combine_adjacent(&b).map(|r| r.to_packed());
            assert_eq!(pa.combine_adjacent(&pb), expected, "a={a:?} b={b:?}");
            assert_eq!(
                pa.supercube(&pb),
                a.supercube(&b).to_packed(),
                "a={a:?} b={b:?}"
            );
        }
    }
}

#[test]
fn minterm_membership_matches_reference() {
    let mut rng = Rng::new(0x1006);
    for &n in WIDTHS.iter().filter(|&&n| n < 64) {
        for _ in 0..CASES_PER_WIDTH {
            let r = RefCube::random(&mut rng, n, false);
            let p = r.to_packed();
            for _ in 0..32 {
                let m = rng.below(1u64 << n);
                assert_eq!(p.contains_minterm(m), r.contains_minterm(m), "{r:?} m={m}");
            }
        }
    }
}

#[test]
fn minterm_enumeration_matches_reference() {
    let mut rng = Rng::new(0x1007);
    for &n in DENSE_WIDTHS {
        for _ in 0..64 {
            let r = RefCube::random(&mut rng, n, false);
            let p = r.to_packed();
            assert_eq!(p.minterms(), r.minterms(), "{r:?}");
            assert_eq!(p.minterms_iter().len(), p.minterms().len(), "{r:?}");
        }
    }
}

#[test]
fn from_minterm_matches_reference() {
    let mut rng = Rng::new(0x1008);
    for &n in WIDTHS.iter().filter(|&&n| n < 64) {
        for _ in 0..64 {
            let m = rng.below(1u64 << n);
            let p = Cube::from_minterm(n, m).expect("in range");
            let expected: String = (0..n)
                .map(|v| {
                    if (m >> (n - 1 - v)) & 1 == 1 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            assert_eq!(p.to_string(), expected);
            assert!(p.is_minterm());
            assert!(p.contains_minterm(m));
        }
    }
}

#[test]
fn ordering_and_equality_match_reference() {
    let mut rng = Rng::new(0x1009);
    for &n in WIDTHS {
        for _ in 0..CASES_PER_WIDTH {
            let a = RefCube::random(&mut rng, n, true);
            let b = RefCube::random(&mut rng, n, true);
            let (pa, pb) = (a.to_packed(), b.to_packed());
            // The literal enum derives Ord with Zero < One < DontCare, so the
            // reference Vec<Literal> ordering is the original cube ordering.
            assert_eq!(pa.cmp(&pb), a.cmp(&b), "a={a:?} b={b:?}");
            assert_eq!(pa == pb, a == b, "a={a:?} b={b:?}");
        }
    }
}

#[test]
fn sorting_agrees_with_reference_order() {
    let mut rng = Rng::new(0x100A);
    for &n in &[5usize, 24, 31, 32, 33] {
        let refs: Vec<RefCube> = (0..64)
            .map(|_| RefCube::random(&mut rng, n, true))
            .collect();
        let mut packed: Vec<Cube> = refs.iter().map(RefCube::to_packed).collect();
        let mut sorted_refs = refs.clone();
        sorted_refs.sort();
        packed.sort();
        let via_ref: Vec<Cube> = sorted_refs.iter().map(RefCube::to_packed).collect();
        assert_eq!(packed, via_ref, "n={n}");
    }
}

#[test]
fn word_boundary_with_literal_round_trips() {
    // Flipping every literal at widths straddling the 32-variable boundary
    // must preserve all other positions exactly.
    let mut rng = Rng::new(0x100B);
    for &n in &[31usize, 32, 33] {
        for _ in 0..32 {
            let r = RefCube::random(&mut rng, n, true);
            let p = r.to_packed();
            for v in 0..n {
                for lit in [Literal::Zero, Literal::One, Literal::DontCare] {
                    let q = p.with_literal(v, lit);
                    for u in 0..n {
                        let expected = if u == v { lit } else { r.0[u] };
                        assert_eq!(q.literal(u), expected, "n={n} v={v} u={u}");
                    }
                }
            }
        }
    }
}

#[test]
fn disjoint_sharp_matches_reference() {
    // Random pairs, pairs nested by `near`, and partly overlapping pairs (a
    // nested cube with some positions freed again), in both directions.
    let mut rng = Rng::new(0x100D);
    for &n in WIDTHS {
        for _ in 0..CASES_PER_WIDTH {
            let a = RefCube::random(&mut rng, n, true);
            let near = a.near(&mut rng);
            let overlap = RefCube(
                near.0
                    .iter()
                    .map(|&lit| {
                        if rng.below(3) == 0 {
                            Literal::DontCare
                        } else {
                            lit
                        }
                    })
                    .collect(),
            );
            for b in [RefCube::random(&mut rng, n, true), near, overlap] {
                for (x, y) in [(&a, &b), (&b, &a)] {
                    let expected: Vec<Cube> = x.sharp(y).iter().map(RefCube::to_packed).collect();
                    assert_eq!(
                        x.to_packed().sharp(&y.to_packed()),
                        expected,
                        "{x:?} # {y:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn appended_matches_reference_across_word_boundaries() {
    // Appending a literal writes into the padding of the last word, or opens
    // a word at 32 and 64 variables: the result must equal the cube built
    // from the extended literal vector, equality and hash included.
    let mut rng = Rng::new(0x100C);
    for n in [0usize, 1, 5, 30, 31, 32, 33, 63, 64, 65, 96] {
        for _ in 0..16 {
            let r = RefCube::random(&mut rng, n, true);
            for lit in [Literal::Zero, Literal::One, Literal::DontCare] {
                let mut lits = r.0.clone();
                lits.push(lit);
                let expected = RefCube(lits);
                let appended = r.to_packed().appended(lit);
                assert_eq!(appended, expected.to_packed(), "n={n} {lit:?}");
                assert_eq!(appended.to_string(), expected.display(), "n={n}");
                assert_eq!(appended.literal_count(), expected.literal_count());
            }
        }
    }
}

#[test]
fn eval_matches_minterm_membership() {
    let mut rng = Rng::new(0x100C);
    for &n in DENSE_WIDTHS {
        for _ in 0..64 {
            let r = RefCube::random(&mut rng, n, false);
            let p = r.to_packed();
            let m = rng.below(1u64 << n);
            let bits: Vec<bool> = (0..n).map(|i| (m >> (n - 1 - i)) & 1 == 1).collect();
            assert_eq!(p.eval(&bits), r.contains_minterm(m), "{r:?} m={m}");
        }
    }
}

/// A uniformly shuffled permutation of `0..len`.
fn random_permutation(rng: &mut Rng, len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    perm
}

/// The reference permutation: literal `v` moves to position `perm[v]` for
/// `v < perm.len()`, every later literal stays.
fn permute_reference(r: &RefCube, perm: &[usize]) -> Cube {
    let mut lits = r.0.clone();
    for (v, &target) in perm.iter().enumerate() {
        lits[target] = r.0[v];
    }
    Cube::new(lits)
}

#[test]
fn permute_vars_matches_reference() {
    let mut rng = Rng::new(0x100D);
    for &n in WIDTHS {
        for _ in 0..CASES_PER_WIDTH / 10 {
            let len = rng.below(n as u64 + 1) as usize;
            let perm = random_permutation(&mut rng, len);
            // On-cubes bind the last variable to 1 and off-cubes to 0, so the
            // covers are disjoint before (and after) any permutation.
            let side = |lit: Literal, rng: &mut Rng| -> Vec<RefCube> {
                (0..rng.below(6))
                    .map(|_| {
                        let mut r = RefCube::random(rng, n, true);
                        r.0[n - 1] = lit;
                        r
                    })
                    .collect()
            };
            let on = side(Literal::One, &mut rng);
            let off = side(Literal::Zero, &mut rng);
            let cover = |refs: &[RefCube]| {
                Cover::from_cubes(n, refs.iter().map(RefCube::to_packed).collect())
            };
            let expected = |refs: &[RefCube]| {
                Cover::from_cubes(
                    n,
                    refs.iter().map(|r| permute_reference(r, &perm)).collect(),
                )
            };

            assert_eq!(
                cover(&on).permute_vars(&perm),
                expected(&on),
                "n={n} perm={perm:?}"
            );
            let f = CoverFunction::from_on_off(cover(&on), cover(&off)).expect("disjoint covers");
            let g = f.permute_vars(&perm);
            assert_eq!(g.num_vars(), n);
            assert_eq!(g.on_cover(), &expected(&on), "n={n} perm={perm:?}");
            assert_eq!(g.off_cover(), &expected(&off), "n={n} perm={perm:?}");
            assert!(CoverFunction::from_on_off(expected(&on), expected(&off)).is_ok());
        }
    }
}

#[test]
#[should_panic(expected = "not a permutation")]
fn permute_vars_rejects_a_repeated_target() {
    Cover::from_cubes(3, vec![Cube::universe(3)]).permute_vars(&[1, 1]);
}

#[test]
#[should_panic(expected = "does not fit")]
fn permute_vars_rejects_a_permutation_wider_than_the_function() {
    let f = CoverFunction::from_on_off(Cover::empty(2), Cover::empty(2)).expect("empty covers");
    f.permute_vars(&[2, 0, 1]);
}
