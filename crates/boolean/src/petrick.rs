//! Minimum-cover selection over a set of prime implicants.
//!
//! After prime generation, SEANCE reduces each function to an *essential*
//! sum-of-products: the essential primes plus a small selection of
//! additional primes covering the rest of the on-set. The covering table is
//! built cube-wise from a [`CoverFunction`] ([`minimum_cover_sparse`]), so no
//! step enumerates minterms: each disjoint on-cube is fragmented against the
//! primes it meets, one query on a prime [`CoverIndex`], and each fragment
//! carries the bitset of the primes that cover it out of the splits, so the
//! table's incidence is never searched for. The residual table left after
//! the essential primes goes to the shared [`crate::covering`] solver:
//! exactly, with the selection Petrick's method (product-of-sums expansion)
//! would make — fewest primes, then fewest literals, ties in Petrick's
//! order — when the table is small, and greedily past the exact-size limit
//! or once the exact search spends its node budget, so that the synthesis
//! pipeline stays fast on every benchmark.

use crate::bitset::popcount;
use crate::covering::{self, NODE_BUDGET};
use crate::index::{BitIds, CoverIndex};
use crate::{Cover, CoverFunction, Cube, MintermSet};

/// Upper bound on `primes × residual rows` for which the exact solve is
/// attempted before falling back to the greedy cover.
const PETRICK_EXACT_LIMIT: usize = 2_000;

/// Upper bound on covering-table rows produced by fragmenting an on-set cover
/// against the primes ([`minimum_cover_sparse`]); beyond it the sharp-based
/// greedy selection is used instead.
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

/// Select a minimum (or near-minimum) subset of `primes` covering the on-set
/// of a [`CoverFunction`], always including every essential prime, without
/// enumerating minterms. The result is the "essential SOP expression" the
/// paper refers to in Steps 4 and 6.
///
/// The covering table is built **cover-based**: each cube of the disjoint
/// on-cover is fragmented against the primes that intersect it, in prime
/// order (splitting a fragment into its intersection with a prime and the
/// disjoint-sharp remainder), until every fragment is either inside or
/// disjoint from each prime. A prime that misses the on-cube misses all of
/// its fragments, so the rows, their order and their multiplicity are those
/// of splitting the whole on-cover prime by prime. Fragments then play the
/// role minterms play in the textbook table: fragments covered by exactly
/// one prime make that prime essential.
///
/// Which primes cover a fragment is decided by the splits themselves: a
/// piece inside a prime stays inside it and a piece outside stays outside,
/// so each fragment inherits a bitset of its covering primes, one bit set
/// per "inside" outcome, and the essentials, the residual rows and their
/// candidates are bitset operations.
///
/// The residual table is solved exactly when small, by
/// [`covering::minimum_cover`], which selects what Petrick's expansion would
/// (fewest primes, then fewest literals, ties in Petrick's product order);
/// larger tables, and searches that exhaust its node budget, by
/// [`covering::greedy_cover`]. If fragmentation produces more than the
/// internal `FRAGMENT_LIMIT` (2,048) rows, a sharp-based greedy selection
/// (repeatedly subtracting the best prime from the uncovered cover) is used
/// instead. Splitting never removes a row, so the row count only grows and
/// the limit trips as soon as the rows produced so far pass it: exactly
/// when the final count does.
///
/// # Example
///
/// ```
/// use fantom_boolean::{petrick, CoverFunction, Function};
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// let f = CoverFunction::from_function(&Function::from_on_set(3, &[0, 1, 2, 3, 7])?);
/// let cover = petrick::minimum_cover_sparse(&f, &f.prime_implicants());
/// assert!(f.implemented_by(&cover));
/// assert_eq!(cover.cube_count(), 2); // 0-- and -11
/// # Ok(())
/// # }
/// ```
pub fn minimum_cover_sparse(f: &CoverFunction, primes: &[Cube]) -> Cover {
    minimum_cover_within(f, primes, NODE_BUDGET)
}

/// [`minimum_cover_sparse`] with the exact solve's node budget as a
/// parameter.
pub(crate) fn minimum_cover_within(f: &CoverFunction, primes: &[Cube], node_budget: u64) -> Cover {
    let n = f.num_vars();
    if primes.is_empty() || f.on_cover().is_empty() {
        return Cover::empty(n);
    }
    let stride = primes.len().div_ceil(64);
    let Some(incidence) = fragment_incidence(f, primes, stride) else {
        return greedy_sharp_cover(f, primes);
    };
    let rows = incidence.chunks_exact(stride);

    // Essential primes: sole coverer of some fragment.
    let mut essential = vec![0u64; stride];
    for row in rows.clone().filter(|row| popcount(row) == 1) {
        for (e, w) in essential.iter_mut().zip(row) {
            *e |= w;
        }
    }
    let mut selected: Vec<usize> = BitIds::new(&essential).collect();

    // Residual rows (covered, but by no essential prime) and their
    // candidates, the union of their coverers.
    let residual: Vec<&[u64]> = rows
        .filter(|row| {
            row.iter().any(|&w| w != 0) && row.iter().zip(&essential).all(|(w, e)| w & e == 0)
        })
        .collect();
    if residual.is_empty() {
        return build_cover(n, primes, &selected);
    }
    let mut union = vec![0u64; stride];
    for row in &residual {
        for (u, w) in union.iter_mut().zip(*row) {
            *u |= w;
        }
    }
    let candidates: Vec<usize> = BitIds::new(&union).collect();
    // The residual table column-wise: the rows each candidate prime covers.
    let mut covers = vec![MintermSet::new(residual.len() as u64); candidates.len()];
    for (r, row) in residual.iter().enumerate() {
        for id in BitIds::new(row) {
            covers[candidates.partition_point(|&x| x < id)].insert(r as u64);
        }
    }
    let cost = |c: usize| primes[candidates[c]].literal_count();
    let exact = if candidates.len() * residual.len() <= PETRICK_EXACT_LIMIT {
        covering::minimum_cover_within(&covers, residual.len(), cost, node_budget).0
    } else {
        None
    };
    let picked = exact.unwrap_or_else(|| covering::greedy_cover(&covers, residual.len()));
    selected.extend(picked.into_iter().map(|c| candidates[c]));
    build_cover(n, primes, &selected)
}

/// The rows of the covering table: one `stride`-word bitset per fragment of
/// the disjoint on-cover, bit `i` set iff `primes[i]` covers the fragment,
/// in the order and multiplicity of the prime-by-prime fragmentation of
/// [`minimum_cover_sparse`]. `None` once more than `FRAGMENT_LIMIT`
/// fragments have been produced.
fn fragment_incidence(f: &CoverFunction, primes: &[Cube], stride: usize) -> Option<Vec<u64>> {
    let prime_index = CoverIndex::of_cubes(f.num_vars(), primes);
    let (mut cand, mut hits) = (Vec::new(), Vec::new());
    let mut rows: Vec<u64> = Vec::new();
    // One on-cube's fragments and their incidence bitsets, double-buffered.
    let (mut pieces, mut next): (Vec<Cube>, Vec<Cube>) = (Vec::new(), Vec::new());
    let (mut incidence, mut next_incidence): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    for cube in f.on_cover().make_disjoint().cubes() {
        pieces.clear();
        pieces.push(cube.clone());
        incidence.clear();
        incidence.resize(stride, 0);
        prime_index.intersecting_ids(cube, &mut cand, &mut hits);
        for &id in &hits {
            let prime = &primes[id];
            let (word, bit) = (id / 64, 1u64 << (id % 64));
            next.clear();
            next_incidence.clear();
            for (piece, inc) in pieces.drain(..).zip(incidence.chunks_exact(stride)) {
                let Some(inside) = piece.intersect(prime) else {
                    next.push(piece);
                    next_incidence.extend_from_slice(inc);
                    continue;
                };
                let row = next_incidence.len();
                next_incidence.extend_from_slice(inc);
                next_incidence[row + word] |= bit;
                if prime.covers(&piece) {
                    next.push(piece);
                    continue;
                }
                next.push(inside);
                for outside in piece.sharp(prime) {
                    next.push(outside);
                    next_incidence.extend_from_slice(inc);
                }
            }
            std::mem::swap(&mut pieces, &mut next);
            std::mem::swap(&mut incidence, &mut next_incidence);
            // Rows only grow, so once they pass the limit the final count
            // does too: stopping here bounds the splitting work.
            if rows.len() / stride + pieces.len() > FRAGMENT_LIMIT {
                return None;
            }
        }
        // The per-split test above never sees a row that no prime splits.
        rows.extend_from_slice(&incidence);
        if rows.len() / stride > FRAGMENT_LIMIT {
            return None;
        }
    }
    Some(rows)
}

/// Sharp-based greedy selection used when fragmentation is too expensive:
/// subtract the chosen prime from the remaining on-set cover each round.
/// Terminates after at most `primes.len()` rounds (each prime is chosen at
/// most once, and expansion primes jointly cover the on-set).
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
            .max_by_key(|&(part, full, i)| (full, part, usize::MAX - primes[i].literal_count()));
        let Some((_, _, best)) = best else { break };
        used[best] = true;
        chosen.push(best);
        remaining = remaining.sharp_cube(&primes[best]);
        remaining.remove_contained_cubes();
    }
    build_cover(n, primes, &chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{quine, Function};

    /// Minimize a dense function through the cover-based table over its
    /// complete prime set.
    fn min_cover(f: &Function) -> Cover {
        let cf = CoverFunction::from_function(f);
        minimum_cover_sparse(&cf, &cf.prime_implicants())
    }

    #[test]
    fn wikipedia_example_minimum_size() {
        let f = Function::from_on_dc(4, &[4, 8, 10, 11, 12, 15], &[9, 14]).unwrap();
        let cover = min_cover(&f);
        assert!(f.implemented_by(&cover));
        // Known minimum: 3 product terms (e.g. -100 + 10-- + 1-1- or -100 + 1--0 + 1-1-).
        assert_eq!(cover.cube_count(), 3);
    }

    #[test]
    fn essential_primes_always_selected() {
        // f = Σ m(0,1,5,7): a prime that is the only one covering some
        // on-set minterm must be in every cover.
        let f = Function::from_on_set(3, &[0, 1, 5, 7]).unwrap();
        let primes = quine::prime_implicants(&f);
        let cover = minimum_cover_sparse(&CoverFunction::from_function(&f), &primes);
        for m in f.on_minterms() {
            let covering: Vec<&Cube> = primes.iter().filter(|p| p.contains_minterm(m)).collect();
            if let [only] = covering.as_slice() {
                assert!(
                    cover.cubes().contains(only),
                    "essential prime {only} missing from cover"
                );
            }
        }
        assert!(cover.equivalent_to(&f));
    }

    #[test]
    fn constant_functions() {
        let zero = Function::constant_false(3).unwrap();
        assert!(min_cover(&zero).is_empty());

        let one = Function::from_on_set(2, &[0, 1, 2, 3]).unwrap();
        let cover = min_cover(&one);
        assert_eq!(cover.cube_count(), 1);
        assert!(cover.cubes()[0].is_universe());
    }

    #[test]
    fn dont_cares_reduce_cover_size() {
        // on = {1,3}: cube 0-1. With DC {5,7}: cube --1 suffices (1 literal).
        let strict = Function::from_on_set(3, &[1, 3]).unwrap();
        let relaxed = Function::from_on_dc(3, &[1, 3], &[5, 7]).unwrap();
        let c1 = min_cover(&strict);
        let c2 = min_cover(&relaxed);
        assert!(strict.implemented_by(&c1));
        assert!(relaxed.implemented_by(&c2));
        assert!(c2.literal_count() < c1.literal_count());
    }

    #[test]
    fn sparse_minimum_cover_matches_dense_quality() {
        // Expansion primes (the pipeline's prime set) on the Wikipedia
        // example reach the known 3-term minimum too.
        let f = Function::from_on_dc(4, &[4, 8, 10, 11, 12, 15], &[9, 14]).unwrap();
        let cf = CoverFunction::from_function(&f);
        let cover = cf.minimize();
        assert!(f.implemented_by(&cover));
        assert_eq!(cover.cube_count(), 3);
    }

    #[test]
    fn sparse_minimum_cover_handles_cube_shaped_on_sets() {
        // On-set given as wide cubes rather than minterms, with an off-set
        // cover: the natural shape of flow-table functions.
        let on = Cover::parse(6, "11---- --11-- ----11").unwrap();
        let off = Cover::parse(6, "0000-0").unwrap();
        let cf = CoverFunction::from_on_off(on, off).unwrap();
        let primes = cf.expand_primes();
        let cover = minimum_cover_sparse(&cf, &primes);
        assert!(cf.implemented_by(&cover));
    }

    /// 64-bit FNV-1a of a cover's rendering.
    fn digest(cover: &Cover) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in cover.to_string().as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// A function over 3 + `split` variables whose fragment count is known
    /// in closed form, with its primes. The on-set is the four cubes
    /// `000`, `010`, `100` and `110` with every split variable free, plus
    /// the minterm `001` + `1…1` when `extra` is set; the off-set is empty.
    /// The primes, in order, are `0-0`, `1-0` and `-10` (each holding two
    /// of the four cubes whole), `--1`, and one prime `x_v = 1` per split
    /// variable `v`, which halves every fragment that leaves `v` free: the
    /// four cubes end in 4 × 2^`split` fragments and the minterm in one.
    ///
    /// `0-0` and `1-0` are essential and cover the four cubes. The
    /// sharp-based greedy takes `-10` first (it ties the two on whole cubes
    /// and comes last), so a fallback shows in the cover.
    fn splitting_function(split: usize, extra: bool) -> (CoverFunction, Vec<Cube>) {
        let n = 3 + split;
        let free = "-".repeat(split);
        let mut on: Vec<String> = ["000", "010", "100", "110"]
            .iter()
            .map(|item| format!("{item}{free}"))
            .collect();
        if extra {
            on.push(format!("001{}", "1".repeat(split)));
        }
        let on = Cover::parse(n, &on.join(" ")).unwrap();
        let f = CoverFunction::from_on_off(on, Cover::empty(n)).unwrap();
        let mut primes: Vec<Cube> = ["0-0", "1-0", "-10", "--1"]
            .iter()
            .map(|p| Cube::parse(&format!("{p}{free}")).unwrap())
            .collect();
        primes.extend((3..n).map(|v| Cube::universe(n).with_literal(v, crate::Literal::One)));
        (f, primes)
    }

    /// The cover of a [`splitting_function`], checked valid, with its cube
    /// count and digest, and whether it is the sharp-based greedy's.
    fn split_cover(split: usize, extra: bool) -> (usize, u64, bool) {
        let (f, primes) = splitting_function(split, extra);
        let cover = minimum_cover_sparse(&f, &primes);
        assert!(f.implemented_by(&cover));
        let greedy = cover == greedy_sharp_cover(&f, &primes);
        (cover.cube_count(), digest(&cover), greedy)
    }

    #[test]
    fn fragment_limit_admits_exactly_2048_fragments() {
        // 4 × 2^9 = 2,048 fragments: the covering table runs and keeps the
        // two essential primes.
        let (f, primes) = splitting_function(9, false);
        let cover = minimum_cover_sparse(&f, &primes);
        assert_eq!(cover.to_string(), "0-0--------- + 1-0---------");
        assert_eq!(split_cover(9, false), (2, 0x0bdf_6223_3f23_8415, false));
    }

    #[test]
    fn fragment_limit_trips_at_2049_fragments() {
        // The minterm adds one fragment, 2,049 in all, only once every
        // prime has split the four cubes: the greedy runs instead.
        assert_eq!(split_cover(9, true), (4, 0xa1cf_17a0_1381_7c24, true));
    }

    #[test]
    fn fragment_limit_trips_when_splits_cross_it() {
        // Four rows, each split into 2^11 = 2,048 fragments: the first row
        // alone reaches the limit without passing it, and the second row's
        // splits cross it; the prime-by-prime pass crosses it at the tenth
        // of the eleven splitting primes.
        assert_eq!(split_cover(11, false), (3, 0x04c9_54a3_9137_1593, true));
    }

    #[test]
    fn fragment_limit_counts_rows_that_no_prime_splits() {
        // 2,049 minterm rows over 12 variables. Only the first four meet a
        // prime (`000-`, `001-` and `00-1` on the low four variables), so
        // no split happens and the other 2,045 rows are never split at
        // all: the row count alone passes the limit, and the greedy runs.
        // It takes `00-1` first (a tie, and last), where the table would
        // keep the two primes `000-` and `001-`.
        let n = 12;
        let on: Vec<Cube> = [0b0000, 0b0001, 0b0011, 0b0010]
            .into_iter()
            .chain(4..2_049)
            .map(|m| Cube::from_minterm(n, m).unwrap())
            .collect();
        let f = CoverFunction::from_on_off(Cover::from_cubes(n, on), Cover::empty(n)).unwrap();
        let primes: Vec<Cube> = ["000-", "001-", "00-1"]
            .iter()
            .map(|p| Cube::parse(&format!("{}{p}", "0".repeat(8))).unwrap())
            .collect();
        let cover = minimum_cover_sparse(&f, &primes);
        assert_eq!(cover, greedy_sharp_cover(&f, &primes));
        assert_eq!(
            (cover.cube_count(), digest(&cover)),
            (3, 0xc4d4_79bc_e10e_1e38)
        );
    }

    #[test]
    fn greedy_fallback_still_valid() {
        // A moderately large function whose residual table exceeds the exact
        // Petrick limit, forcing the greedy path.
        let on: Vec<u64> = (0..256).filter(|m| m % 3 != 0).collect();
        let f = Function::from_on_set(8, &on).unwrap();
        let cover = min_cover(&f);
        assert!(cover.equivalent_to(&f));
    }
}
