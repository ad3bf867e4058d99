//! Seeded corpus builders and the two Step 3 test references.
//!
//! The builders generate the cube strings, covers and functions that
//! `bench_json`'s kernel and engine families time; the same seed always
//! yields the same corpus. [`scalar_candidate_growth`] and
//! [`scalar_greedy_cover`] are the pre-index Step 3 loops, kept verbatim
//! because `tests/assign_indexed.rs` compares the indexed engine against
//! them.

use fantom_boolean::{Cover, CoverFunction, Cube, Literal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic seeded stream for generating bench corpora (thin wrapper
/// over the workspace `rand` generator so the algorithm lives in one place).
#[derive(Debug, Clone)]
pub struct CorpusRng(StdRng);

impl CorpusRng {
    /// Seeded construction; the same seed yields the same corpus.
    pub fn new(seed: u64) -> Self {
        CorpusRng(StdRng::seed_from_u64(seed))
    }

    /// Uniform value below `bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.0.gen_range(0..bound)
    }
}

/// Generate `count` random positional-cube strings over `num_vars` variables.
/// Roughly half the positions are don't-cares, mirroring two-level
/// minimization workloads where merged cubes grow steadily freer.
pub fn random_cube_strings(seed: u64, num_vars: usize, count: usize) -> Vec<String> {
    let mut rng = CorpusRng::new(seed);
    (0..count)
        .map(|_| {
            (0..num_vars)
                .map(|_| match rng.below(4) {
                    0 => '0',
                    1 => '1',
                    _ => '-',
                })
                .collect()
        })
        .collect()
}

/// Generate containment-check pairs `(a, b)` mirroring the access pattern of
/// `remove_contained_cubes` / `single_cube_covers`: the cubes of one function
/// are correlated, so `a.covers(b)` either holds (b is a specialization of a)
/// or fails at a uniformly random position — not at position 0 as it would
/// for independent random cubes.
pub fn containment_pair_strings(seed: u64, num_vars: usize, pairs: usize) -> Vec<(String, String)> {
    let mut rng = CorpusRng::new(seed ^ 0x00C0_B375);
    (0..pairs)
        .map(|_| {
            let a: Vec<char> = (0..num_vars)
                .map(|_| match rng.below(2) {
                    0 => '-',
                    _ => {
                        if rng.below(2) == 0 {
                            '0'
                        } else {
                            '1'
                        }
                    }
                })
                .collect();
            // b: specialize every don't-care of a with probability 1/2.
            let mut b = a.clone();
            for c in b.iter_mut() {
                if *c == '-' && rng.below(2) == 0 {
                    *c = if rng.below(2) == 0 { '0' } else { '1' };
                }
            }
            // Half the pairs get one injected mismatch at a random bound
            // position, so the scan fails at uniform depth.
            if rng.below(2) == 0 {
                let bound: Vec<usize> = a
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c != '-')
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&v) = bound.get(rng.below(bound.len().max(1) as u64) as usize) {
                    b[v] = if a[v] == '1' { '0' } else { '1' };
                }
            }
            (a.into_iter().collect(), b.into_iter().collect())
        })
        .collect()
}

/// Per-cube minterm membership queries mirroring Petrick gain counting: half
/// the queried minterms lie inside the cube, half miss at a uniformly random
/// bound position.
pub fn membership_queries(seed: u64, cubes: &[String]) -> Vec<u64> {
    let mut rng = CorpusRng::new(seed ^ 0x4D45_4D42);
    cubes
        .iter()
        .map(|text| {
            let n = text.len();
            let mut m = 0u64;
            for (i, c) in text.chars().enumerate() {
                let bit = match c {
                    '1' => 1,
                    '0' => 0,
                    _ => rng.below(2),
                };
                m |= bit << (n - 1 - i);
            }
            if rng.below(2) == 0 {
                // Miss: flip one bound position.
                let bound: Vec<usize> = text
                    .chars()
                    .enumerate()
                    .filter(|(_, c)| *c != '-')
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&v) = bound.get(rng.below(bound.len().max(1) as u64) as usize) {
                    m ^= 1 << (n - 1 - v);
                }
            }
            m
        })
        .collect()
}

/// Generate adjacent-pair-rich cube strings mirroring the tabulation's merge
/// pass: candidate pairs always share their don't-care structure (the
/// tabulation only compares cubes with identical masks), differing in 0–2
/// **bound** positions. Deciding "exactly one difference" therefore requires
/// scanning the whole cube, which is the cost the packed XOR collapses.
pub fn adjacent_pair_strings(seed: u64, num_vars: usize, pairs: usize) -> Vec<(String, String)> {
    let mut rng = CorpusRng::new(seed ^ 0xD1F7);
    (0..pairs)
        .map(|_| {
            let a: Vec<char> = (0..num_vars)
                .map(|_| match rng.below(3) {
                    0 => '0',
                    1 => '1',
                    _ => '-',
                })
                .collect();
            let bound: Vec<usize> = a
                .iter()
                .enumerate()
                .filter(|(_, c)| **c != '-')
                .map(|(i, _)| i)
                .collect();
            let mut b = a.clone();
            if !bound.is_empty() {
                for _ in 0..rng.below(3) {
                    let v = bound[rng.below(bound.len() as u64) as usize];
                    b[v] = if b[v] == '1' { '0' } else { '1' };
                }
            }
            (a.into_iter().collect(), b.into_iter().collect())
        })
        .collect()
}

/// A random cover of `count` cubes, each binding about `bound` positions —
/// the "union of product terms" shape prime-generation benchmarks use.
pub fn random_cover(seed: u64, num_vars: usize, count: usize, bound: usize) -> Cover {
    let mut rng = CorpusRng::new(seed ^ 0x5EED_C0DE);
    let cubes: Vec<Cube> = (0..count)
        .map(|_| {
            let mut lits = vec![Literal::DontCare; num_vars];
            let mut placed = 0usize;
            while placed < bound {
                let v = rng.below(num_vars as u64) as usize;
                if lits[v] == Literal::DontCare {
                    lits[v] = if rng.below(2) == 1 {
                        Literal::One
                    } else {
                        Literal::Zero
                    };
                    placed += 1;
                }
            }
            Cube::new(lits)
        })
        .collect();
    Cover::from_cubes(num_vars, cubes)
}

/// A deterministic don't-care-heavy incompletely specified function shaped
/// like flow-table synthesis products: `points` on-set minterms, `off_cubes`
/// off-set cubes binding `off_bound` positions each, everything else an
/// implicit don't-care.
pub fn synthetic_cover_function(
    seed: u64,
    num_vars: usize,
    points: usize,
    off_cubes: usize,
    off_bound: usize,
) -> CoverFunction {
    let off = random_cover(seed, num_vars, off_cubes, off_bound);
    let mut rng = CorpusRng::new(seed ^ 0x0FF5_E7F0);
    let space = 1u64 << num_vars;
    let mut on_points: Vec<Cube> = Vec::with_capacity(points);
    while on_points.len() < points {
        let m = rng.below(space);
        if !off.covers_minterm(m) {
            on_points.push(Cube::from_minterm(num_vars, m).expect("in range"));
        }
    }
    let on = Cover::from_cubes(num_vars, on_points);
    CoverFunction::from_on_off(on, off).expect("on points avoid the off cover")
}

/// The pre-index candidate-growth loop of the Step-3 assignment engine,
/// retained verbatim as the differential oracle: per seed, two full wrap-around `try_absorb` passes over the
/// dichotomy list, a full separation rescan to compute the candidate's
/// coverage set, and the old rotation seed orderings (variants ≥ 2 rotate by
/// a prime offset — provably duplicates of variant 0, which is exactly the
/// waste the indexed engine's stride orderings fixed). Returns the
/// deduplicated `(merged dichotomy, covers)` pool in generation order.
pub fn scalar_candidate_growth(
    dichotomies: &[fantom_assign::Dichotomy],
    seed_orderings: usize,
    max_candidates: usize,
) -> Vec<(fantom_assign::Dichotomy, fantom_boolean::MintermSet)> {
    use fantom_boolean::MintermSet;

    fn seed_order(num: usize, variant: usize) -> Vec<usize> {
        match variant {
            0 => (0..num).collect(),
            1 => (0..num).rev().collect(),
            v => {
                let offset = (v * 7919) % num.max(1);
                (0..num).map(|i| (i + offset) % num).collect()
            }
        }
    }

    let mut seen: fantom_boolean::collections::HashSet<fantom_assign::Dichotomy> =
        Default::default();
    let mut candidates = Vec::new();
    'orderings: for variant in 0..seed_orderings.max(1) {
        let order = seed_order(dichotomies.len(), variant);
        for (pos, &seed) in order.iter().enumerate() {
            if candidates.len() >= max_candidates {
                break 'orderings;
            }
            let mut merged = dichotomies[seed].clone();
            for _ in 0..2 {
                for &j in order[pos..].iter().chain(&order[..pos]) {
                    if j != seed {
                        merged.try_absorb(&dichotomies[j]);
                    }
                }
            }
            if seen.insert(merged.clone()) {
                let ones = merged.right();
                let covers = MintermSet::from_minterms(
                    dichotomies.len() as u64,
                    dichotomies
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| d.separated_by(ones))
                        .map(|(i, _)| i as u64),
                );
                candidates.push((merged, covers));
            }
        }
    }
    candidates
}

/// The rescan-per-pick greedy set cover the lazy-max heap replaced, retained
/// verbatim: every selection scans all candidate coverage sets against the
/// uncovered dichotomies (ties to the earlier index).
pub fn scalar_greedy_cover(covers: &[fantom_boolean::MintermSet], num: usize) -> Vec<usize> {
    let mut uncovered = fantom_boolean::MintermSet::from_minterms(num as u64, 0..num as u64);
    let mut chosen: Vec<usize> = Vec::new();
    while !uncovered.is_empty() {
        let mut best: Option<(usize, usize)> = None;
        for (i, c) in covers.iter().enumerate() {
            let gain = c.intersection_count(&uncovered);
            if gain > 0 && best.map_or(true, |(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        let Some((pick, _)) = best else { break };
        uncovered.subtract(&covers[pick]);
        chosen.push(pick);
    }
    chosen
}
