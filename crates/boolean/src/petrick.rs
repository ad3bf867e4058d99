//! Minimum-cover selection over a set of prime implicants.
//!
//! After prime generation, SEANCE reduces each function to an *essential*
//! sum-of-products: the essential primes plus a small selection of
//! additional primes covering the rest of the on-set. The covering table is
//! built cube-wise from a [`CoverFunction`] ([`minimum_cover_sparse`]), so no
//! step enumerates minterms. Exact selection uses Petrick's method
//! (product-of-sums expansion); for large residual tables a greedy set-cover
//! heuristic is used instead so that the synthesis pipeline stays fast on
//! every benchmark.

use std::collections::BTreeSet;

use crate::index::CoverIndex;
use crate::{Cover, CoverFunction, Cube};

/// Upper bound on `primes × residual rows` for which the exact Petrick
/// expansion is attempted before falling back to the greedy heuristic.
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

/// Remove any product term that is a superset of another (absorption law).
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

/// Select a minimum (or near-minimum) subset of `primes` covering the on-set
/// of a [`CoverFunction`], always including every essential prime, without
/// enumerating minterms. The result is the "essential SOP expression" the
/// paper refers to in Steps 4 and 6.
///
/// The covering table is built **cover-based**: the on-set cubes are
/// fragmented against the primes (splitting a row into its intersection with
/// a prime and the disjoint-sharp remainder) until every fragment is either
/// inside or disjoint from each prime. Fragments then play the role minterms
/// play in the textbook table: fragments covered by exactly one prime make
/// that prime essential, the residual table is solved by the exact Petrick
/// expansion when small and greedily otherwise. If fragmentation explodes
/// past the internal `FRAGMENT_LIMIT` rows, a sharp-based greedy selection
/// (repeatedly subtracting the best prime from the uncovered cover) is used
/// instead.
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
    let n = f.num_vars();
    if primes.is_empty() || f.on_cover().is_empty() {
        return Cover::empty(n);
    }

    // 1. Fragment the on-set against the primes.
    let mut rows: Vec<Cube> = f.on_cover().make_disjoint().cubes().to_vec();
    let mut next: Vec<Cube> = Vec::with_capacity(rows.len());
    for p in primes {
        next.clear();
        for r in rows.drain(..) {
            match r.intersect(p) {
                None => next.push(r),
                Some(_) if p.covers(&r) => next.push(r),
                Some(inside) => {
                    next.push(inside);
                    next.extend(r.sharp(p));
                }
            }
        }
        std::mem::swap(&mut rows, &mut next);
        if rows.len() > FRAGMENT_LIMIT {
            return greedy_sharp_cover(f, primes);
        }
    }

    // 2. Incidence: which primes cover each fragment entirely — answered by
    // the prime index's exact covering-candidate bitsets instead of a
    // rows × primes containment scan.
    let prime_index = CoverIndex::build(&Cover::from_cubes(n, primes.to_vec()));
    let mut cand: Vec<u64> = Vec::new();
    let mut ids: Vec<usize> = Vec::new();
    let coverers: Vec<Vec<usize>> = rows
        .iter()
        .map(|r| {
            prime_index.covering_ids(r, &mut cand, &mut ids);
            ids.clone()
        })
        .collect();

    // 3. Essential primes: sole coverer of some fragment.
    let mut selected: Vec<usize> = Vec::new();
    for c in &coverers {
        if let [only] = c.as_slice() {
            if !selected.contains(only) {
                selected.push(*only);
            }
        }
    }

    // 4. Residual rows and candidates.
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

/// Exact Petrick expansion over a fragment covering table: each row
/// contributes the sum of its covering primes; products are expanded with
/// absorption and the cheapest product (fewest primes, then fewest literals)
/// is returned.
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
        // Bail out early: absorb is quadratic in the product count, and the
        // fragment tables of large functions hit the worst case often.
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

/// Greedy set cover over a fragment covering table: repeatedly pick the prime
/// covering the most uncovered rows.
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
