//! Differential property test: `CoverFunction::expand_primes` against a
//! literal-at-a-time reference.
//!
//! The reference widens each on-cube one bound variable at a time, in
//! variable order, and keeps a widening whenever the widened cube misses the
//! whole off-set (`Cover::intersects_cube`). `expand_primes` must return
//! exactly the reference's sorted, deduplicated primes. The functions are
//! random: 6 variables, the 31/32/33-variable cube word boundary, and 64 to
//! 97 variables (two to four cube words), with off-sets of up to 150 cubes
//! so the off-set index runs over several 64-cube bitset words, and empty
//! off-sets, where every on-cube grows to the universe. Each test draws from
//! its own seeded stream, so a failure reproduces exactly.

use fantom_boolean::{Cover, CoverFunction, Cube, Literal};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// The greedy variable-order expansion, one literal at a time.
fn reference_expand(f: &CoverFunction) -> Vec<Cube> {
    let mut primes: Vec<Cube> = Vec::new();
    for cube in f.on_cover().cubes() {
        let mut grown = cube.clone();
        for var in 0..f.num_vars() {
            let widened = grown.with_literal(var, Literal::DontCare);
            if widened != grown && !f.off_cover().intersects_cube(&widened) {
                grown = widened;
            }
        }
        if !primes.contains(&grown) {
            primes.push(grown);
        }
    }
    primes.sort();
    primes
}

struct Rng(StdRng);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(StdRng::seed_from_u64(seed))
    }

    fn below(&mut self, bound: u64) -> usize {
        self.0.gen_range(0..bound) as usize
    }

    fn bit(&mut self) -> Literal {
        if self.below(2) == 0 {
            Literal::Zero
        } else {
            Literal::One
        }
    }

    /// A random cube binding each variable with probability `bind / 4`.
    fn cube(&mut self, num_vars: usize, bind: u64) -> Cube {
        Cube::new(
            (0..num_vars)
                .map(|_| {
                    if (self.below(4) as u64) < bind {
                        self.bit()
                    } else {
                        Literal::DontCare
                    }
                })
                .collect(),
        )
    }

    /// A cube next to `off`: `off` with about half of its free variables
    /// bound and one bound variable flipped, so it misses `off` in exactly
    /// that variable and widening it there would hit `off`.
    fn near(&mut self, off: &Cube) -> Option<Cube> {
        let bound: Vec<usize> = (0..off.num_vars())
            .filter(|&v| off.literal(v) != Literal::DontCare)
            .collect();
        let flip = *bound.get(self.below(bound.len().max(1) as u64))?;
        let lits = (0..off.num_vars()).map(|v| match off.literal(v) {
            Literal::DontCare if self.below(2) == 0 => self.bit(),
            lit if v == flip => match lit {
                Literal::Zero => Literal::One,
                _ => Literal::Zero,
            },
            lit => lit,
        });
        Some(Cube::new(lits.collect()))
    }
}

/// A random function: `off_count` off-cubes, then up to `on_count` on-cubes
/// that miss the off-set, half of them drawn next to an off-cube.
fn random_function(
    rng: &mut Rng,
    num_vars: usize,
    off_count: usize,
    on_count: usize,
) -> CoverFunction {
    let bind = 1 + rng.below(3) as u64;
    let off = Cover::from_cubes(
        num_vars,
        (0..off_count).map(|_| rng.cube(num_vars, bind)).collect(),
    );
    let mut on = Vec::new();
    for _ in 0..on_count * 8 {
        if on.len() == on_count {
            break;
        }
        let candidate = if off.is_empty() || rng.below(2) == 0 {
            Some(rng.cube(num_vars, bind.max(2)))
        } else {
            let pick = rng.below(off.cube_count() as u64);
            rng.near(&off.cubes()[pick])
        };
        if let Some(cube) = candidate.filter(|c| !off.intersects_cube(c)) {
            on.push(cube);
        }
    }
    CoverFunction::from_on_off(Cover::from_cubes(num_vars, on), off).expect("on misses off")
}

/// Compare `expand_primes` with the reference on `trials` random functions
/// per width; returns how many on-cubes kept at least one literal, so each
/// caller can check that its functions constrain the expansion.
fn check_widths(seed: u64, widths: &[usize], trials: usize, max_off: u64, max_on: u64) -> usize {
    let mut rng = Rng::new(seed);
    let mut constrained = 0;
    for &n in widths {
        for trial in 0..trials {
            let off_count = rng.below(max_off + 1);
            let on_count = 1 + rng.below(max_on);
            let f = random_function(&mut rng, n, off_count, on_count);
            let primes = f.expand_primes();
            assert_eq!(
                primes,
                reference_expand(&f),
                "{n} variables, trial {trial}: on {} / off {}",
                f.on_cover(),
                f.off_cover()
            );
            constrained += primes.iter().filter(|p| !p.is_universe()).count();
        }
    }
    constrained
}

#[test]
fn expansion_matches_reference_on_six_variables() {
    assert!(check_widths(0x6e0a_5f01, &[6], 400, 12, 10) > 500);
}

#[test]
fn expansion_matches_reference_across_the_cube_word_boundary() {
    assert!(check_widths(0x6e0a_5f02, &[31, 32, 33], 60, 150, 16) > 500);
}

#[test]
fn expansion_matches_reference_on_multi_word_cubes() {
    assert!(check_widths(0x6e0a_5f03, &[64, 65, 97], 40, 150, 16) > 500);
}

#[test]
fn empty_off_set_grows_every_on_cube_to_the_universe() {
    let mut rng = Rng::new(0x6e0a_5f04);
    for n in [0, 1, 6, 31, 32, 33, 64, 65] {
        let on = Cover::from_cubes(n, (0..5).map(|_| rng.cube(n, 3)).collect());
        let f = CoverFunction::from_on_off(on, Cover::empty(n)).unwrap();
        let primes = f.expand_primes();
        assert_eq!(primes, reference_expand(&f));
        assert_eq!(primes, vec![Cube::universe(n)], "{n} variables");
    }
}
