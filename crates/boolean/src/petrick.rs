//! Minimum-cover selection over a set of prime implicants.
//!
//! After prime generation, SEANCE reduces each function to an *essential*
//! sum-of-products: the essential primes plus a small selection of
//! additional primes covering the rest of the on-set. The covering table is
//! built cube-wise from a [`CoverFunction`] ([`minimum_cover_sparse`]), so no
//! step enumerates minterms. The residual table left after the essential
//! primes is solved exactly by a bitset branch and bound that returns the
//! selection Petrick's method (product-of-sums expansion) would — fewest
//! primes, then fewest literals, ties in Petrick's order — without expanding
//! products. The search runs under an internal node budget; tables past the
//! exact-size limit, and searches that spend the budget, fall back to a
//! greedy set-cover heuristic so that the synthesis pipeline stays fast on
//! every benchmark.

use std::cmp::Ordering;

use crate::index::CoverIndex;
use crate::{Cover, CoverFunction, Cube, MintermSet};

/// Upper bound on `primes × residual rows` for which the exact
/// branch-and-bound solve is attempted before falling back to the greedy
/// heuristic.
const PETRICK_EXACT_LIMIT: usize = 2_000;

/// Search nodes the exact solve may visit before it gives up and the greedy
/// heuristic answers instead. The hardest residual table in a pass of
/// perfbench's `relabel` workload (the grid and large-suite machines under 20
/// relabelings each) needs 5,232.
const NODE_BUDGET: u64 = 200_000;

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
/// The covering table is built **cover-based**: the on-set cubes are
/// fragmented against the primes (splitting a row into its intersection with
/// a prime and the disjoint-sharp remainder) until every fragment is either
/// inside or disjoint from each prime. Fragments then play the role minterms
/// play in the textbook table: fragments covered by exactly one prime make
/// that prime essential. The residual table is solved exactly when small, by
/// a bitset branch and bound that selects what Petrick's expansion would
/// (fewest primes, then fewest literals, ties in Petrick's product order);
/// larger tables, and searches that exhaust an internal node budget, are
/// solved greedily. If fragmentation explodes past the internal
/// `FRAGMENT_LIMIT` rows, a sharp-based greedy selection (repeatedly
/// subtracting the best prime from the uncovered cover) is used instead.
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
fn minimum_cover_within(f: &CoverFunction, primes: &[Cube], node_budget: u64) -> Cover {
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
    let candidates = candidate_ids(&residual);
    let exact = if candidates.len() * residual.len() <= PETRICK_EXACT_LIMIT {
        branch_and_bound(
            &residual,
            &candidates,
            |i| primes[i].literal_count(),
            node_budget,
        )
        .0
    } else {
        None
    };
    selected.extend(exact.unwrap_or_else(|| greedy_table(&residual)));
    build_cover(n, primes, &selected)
}

/// One branching step of the exact search: the table row it covers and the
/// position of the chosen prime in that row's covering list.
#[derive(Clone, Copy)]
struct Step {
    row: usize,
    pos: usize,
}

/// The prime ids occurring in a covering table, sorted and deduplicated.
fn candidate_ids(rows: &[&Vec<usize>]) -> Vec<usize> {
    let mut ids: Vec<usize> = rows.iter().flat_map(|r| r.iter().copied()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Exact minimum cover of a residual covering table (`rows[r]` lists the ids
/// of the primes covering row `r`, in increasing order; `ids` is
/// [`candidate_ids`] of the table), under a node budget. Returns the selected
/// prime ids — `None` if the budget ran out first — and the number of search
/// nodes visited.
///
/// The search branches on the first uncovered row over its covering primes in
/// order — the order in which Petrick's expansion multiplies in the rows — so
/// every path is one of the expansion's products. It minimizes (prime count,
/// total `cost`), prunes a node only when its cost plus a lower bound is
/// strictly worse than the best cover found, and breaks ties the way
/// Petrick's stable size-sorted product list does ([`petrick_first`]), so
/// wherever the expansion finishes, the selection is exactly its selection.
fn branch_and_bound(
    rows: &[&Vec<usize>],
    ids: &[usize],
    cost: impl Fn(usize) -> usize,
    node_budget: u64,
) -> (Option<Vec<usize>>, u64) {
    // Dense candidate ids keep each covering list's order.
    let table: Vec<Vec<usize>> = rows
        .iter()
        .map(|r| r.iter().map(|id| ids.partition_point(|x| x < id)).collect())
        .collect();
    let lits: Vec<usize> = ids.iter().map(|&id| cost(id)).collect();
    let mut covers = vec![MintermSet::new(rows.len() as u64); ids.len()];
    let mut coverers = vec![MintermSet::new(ids.len() as u64); rows.len()];
    for (r, list) in table.iter().enumerate() {
        for &c in list {
            covers[c].insert(r as u64);
            coverers[r].insert(c as u64);
        }
    }
    let cheapest = table
        .iter()
        .map(|list| list.iter().map(|&c| lits[c]).min().unwrap_or(0))
        .collect();
    let mut bound_rows: Vec<usize> = (0..rows.len()).collect();
    bound_rows.sort_by_key(|&r| table[r].len());
    let mut search = Search {
        uncovered: MintermSet::from_minterms(rows.len() as u64, 0..rows.len() as u64),
        taken: MintermSet::new(ids.len() as u64),
        table,
        bound_rows,
        lits,
        covers,
        coverers,
        cheapest,
        path: Vec::new(),
        path_lits: 0,
        best: Vec::new(),
        best_cost: None,
        undo: Vec::new(),
        nodes: 0,
        node_budget,
    };
    let finished = search.descend();
    let selection = finished.then(|| {
        search
            .best
            .iter()
            .map(|s| ids[search.table[s.row][s.pos]])
            .collect()
    });
    (selection, search.nodes)
}

/// Depth-first state of [`branch_and_bound`]. The uncovered rows are one
/// bitset, updated in place with a word-level undo log rather than cloned
/// per node.
struct Search {
    /// Covering list of each row, as dense candidate ids in increasing order.
    table: Vec<Vec<usize>>,
    /// Rows by covering-list length, the order the lower bound takes them.
    bound_rows: Vec<usize>,
    /// Literal cost of each candidate.
    lits: Vec<usize>,
    /// Rows each candidate covers.
    covers: Vec<MintermSet>,
    /// Candidates covering each row (the covering lists as bitsets).
    coverers: Vec<MintermSet>,
    /// Cost of each row's cheapest coverer.
    cheapest: Vec<usize>,
    uncovered: MintermSet,
    /// Candidates claimed by the rows of the lower bound, reused per node.
    taken: MintermSet,
    path: Vec<Step>,
    path_lits: usize,
    best: Vec<Step>,
    best_cost: Option<(usize, usize)>,
    undo: Vec<(u32, u64)>,
    nodes: u64,
    node_budget: u64,
}

impl Search {
    /// Search below the current path; `false` once the node budget is spent.
    fn descend(&mut self) -> bool {
        self.nodes += 1;
        if self.nodes > self.node_budget {
            return false;
        }
        let Some(row) = self.uncovered.first() else {
            self.offer();
            return true;
        };
        if self.pruned() {
            return true;
        }
        let row = row as usize;
        for pos in 0..self.table[row].len() {
            let cand = self.table[row][pos];
            let mark = self.undo.len();
            self.uncovered
                .subtract_with_undo(&self.covers[cand], &mut self.undo);
            self.path.push(Step { row, pos });
            self.path_lits += self.lits[cand];
            let within_budget = self.descend();
            self.path_lits -= self.lits[cand];
            self.path.pop();
            self.uncovered.undo_subtract(&self.undo[mark..]);
            self.undo.truncate(mark);
            if !within_budget {
                return false;
            }
        }
        true
    }

    /// Whether the path's cost plus a lower bound on completing it is
    /// strictly worse than the best cover so far. The bound takes uncovered
    /// rows with pairwise-disjoint covering lists, greedily from the shortest
    /// list: each needs a prime of its own, costing at least its cheapest
    /// coverer.
    fn pruned(&mut self) -> bool {
        let Some(best) = self.best_cost else {
            return false;
        };
        let mut bound = (self.path.len(), self.path_lits);
        self.taken.clear();
        for &row in &self.bound_rows {
            if self.uncovered.contains(row as u64) && self.coverers[row].is_disjoint(&self.taken) {
                self.taken.union_with(&self.coverers[row]);
                bound.0 += 1;
                bound.1 += self.cheapest[row];
            }
        }
        bound > best
    }

    /// Keep the path's cover if it is cheaper than the best so far, or as
    /// cheap and earlier in Petrick's product order.
    fn offer(&mut self) {
        let cost = (self.path.len(), self.path_lits);
        let better = match self.best_cost {
            None => true,
            Some(best) => cost < best || (cost == best && petrick_first(&self.path, &self.best)),
        };
        if better {
            self.best_cost = Some(cost);
            self.best.clone_from(&self.path);
        }
    }
}

/// Whether Petrick's expansion lists the product built by path `a` before the
/// equally long one built by path `b`. Each expansion step's stable size sort
/// puts the products that grew at that row ahead of those that did not, so
/// the rows where a prime was added compare in descending order, the larger
/// row first; equal rows fall back to the smaller positions in the rows'
/// covering lists, in row order.
fn petrick_first(a: &[Step], b: &[Step]) -> bool {
    let rows = a
        .iter()
        .rev()
        .map(|s| s.row)
        .cmp(b.iter().rev().map(|s| s.row));
    match rows {
        Ordering::Equal => a.iter().map(|s| s.pos).lt(b.iter().map(|s| s.pos)),
        order => order == Ordering::Greater,
    }
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
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::{quine, Function};

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

    /// The reference the branch and bound reproduces: Petrick's expansion
    /// over a covering table (each row contributes the sum of its covering
    /// primes; products are expanded with absorption and the cheapest
    /// product, fewest primes then fewest literals, is returned). `None` once
    /// the expansion passes 2,000 products, where the solver it replaced
    /// gave up.
    fn petrick_reference(lits: &[usize], rows: &[&Vec<usize>]) -> Option<Vec<usize>> {
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
                return None;
            }
            products = next;
        }
        products
            .into_iter()
            .min_by_key(|set| {
                let lits: usize = set.iter().map(|&i| lits[i]).sum();
                (set.len(), lits)
            })
            .map(|set| set.into_iter().collect())
    }

    /// A random covering table over `candidates` primes: every row is a
    /// non-empty increasing id list, literal costs are 1–3 so that many
    /// covers tie.
    fn random_table(
        rng: &mut StdRng,
        rows: usize,
        candidates: usize,
    ) -> (Vec<Vec<usize>>, Vec<usize>) {
        let density = [0.12, 0.25, 0.45][rng.gen_range(0..3usize)];
        let table = (0..rows)
            .map(|_| {
                let mut row: Vec<usize> =
                    (0..candidates).filter(|_| rng.gen_bool(density)).collect();
                if row.is_empty() {
                    row.push(rng.gen_range(0..candidates));
                }
                row
            })
            .collect();
        let lits = (0..candidates).map(|_| rng.gen_range(1..=3usize)).collect();
        (table, lits)
    }

    /// [`branch_and_bound`] over an owned table, selection sorted.
    fn solve(table: &[Vec<usize>], lits: &[usize], node_budget: u64) -> (Option<Vec<usize>>, u64) {
        let rows: Vec<&Vec<usize>> = table.iter().collect();
        let ids = candidate_ids(&rows);
        let (mut selection, nodes) = branch_and_bound(&rows, &ids, |i| lits[i], node_budget);
        if let Some(selection) = &mut selection {
            selection.sort_unstable();
        }
        (selection, nodes)
    }

    /// (count, literals) of the cheapest subset of the candidates covering
    /// every row, by enumerating all subsets.
    fn brute_force_minimum(table: &[Vec<usize>], lits: &[usize]) -> (usize, usize) {
        let masks: Vec<u32> = table
            .iter()
            .map(|row| row.iter().fold(0, |m, &c| m | 1 << c))
            .collect();
        let mut best = (usize::MAX, usize::MAX);
        for subset in 0u32..1 << lits.len() {
            let count = subset.count_ones() as usize;
            if count > best.0 || masks.iter().any(|&m| m & subset == 0) {
                continue;
            }
            let cost = (0..lits.len())
                .filter(|&c| subset >> c & 1 == 1)
                .map(|c| lits[c]);
            best = best.min((count, cost.sum()));
        }
        best
    }

    fn cost_of(selection: &[usize], lits: &[usize]) -> (usize, usize) {
        (selection.len(), selection.iter().map(|&c| lits[c]).sum())
    }

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

    #[test]
    fn branch_and_bound_selects_what_petrick_expansion_selects() {
        let mut rng = StdRng::seed_from_u64(0x9e7_41c4);
        let mut finished = 0;
        for case in 0..1_000 {
            let rows = rng.gen_range(1..=16usize);
            let candidates = rng.gen_range(1..=18usize);
            let (table, lits) = random_table(&mut rng, rows, candidates);
            let refs: Vec<&Vec<usize>> = table.iter().collect();
            let Some(expected) = petrick_reference(&lits, &refs) else {
                continue;
            };
            finished += 1;
            assert_eq!(
                solve(&table, &lits, NODE_BUDGET).0,
                Some(expected),
                "case {case}: table {table:?}, literals {lits:?}"
            );
        }
        assert!(finished > 900, "only {finished} expansions finished");
    }

    #[test]
    fn branch_and_bound_reaches_the_brute_force_minimum() {
        let mut rng = StdRng::seed_from_u64(0xb2_07e);
        for case in 0..400 {
            let rows = rng.gen_range(1..=30usize);
            let candidates = rng.gen_range(1..=12usize);
            let (table, lits) = random_table(&mut rng, rows, candidates);
            let selection = solve(&table, &lits, NODE_BUDGET)
                .0
                .expect("small tables finish within the budget");
            assert_eq!(
                cost_of(&selection, &lits),
                brute_force_minimum(&table, &lits),
                "case {case}: table {table:?}, literals {lits:?}"
            );
        }
    }

    #[test]
    fn branch_and_bound_stays_optimal_where_petrick_expansion_gives_up() {
        // Seven disjoint triples first: 3^7 = 2187 irredundant products, past
        // the expansion's 2,000-product bail-out. Random rows follow.
        let mut rng = StdRng::seed_from_u64(0x7_21b1e5);
        for case in 0..2 {
            let candidates = 21;
            let mut ids: Vec<usize> = (0..candidates).collect();
            for i in (1..candidates).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            let extra_rows = rng.gen_range(0..=8usize);
            let (extra, lits) = random_table(&mut rng, extra_rows, candidates);
            let mut table: Vec<Vec<usize>> = ids
                .chunks(3)
                .map(|triple| {
                    let mut row = triple.to_vec();
                    row.sort_unstable();
                    row
                })
                .collect();
            table.extend(extra);
            let refs: Vec<&Vec<usize>> = table.iter().collect();
            assert_eq!(petrick_reference(&lits, &refs), None, "case {case}");
            let selection = solve(&table, &lits, NODE_BUDGET)
                .0
                .expect("the search finishes within the budget");
            assert_eq!(
                cost_of(&selection, &lits),
                brute_force_minimum(&table, &lits),
                "case {case}: table {table:?}, literals {lits:?}"
            );
        }
    }

    #[test]
    fn spent_node_budget_falls_back_to_a_valid_cover() {
        let mut rng = StdRng::seed_from_u64(0x0b_d6e7);
        for _ in 0..50 {
            let rows = rng.gen_range(1..=16usize);
            let candidates = rng.gen_range(1..=18usize);
            let (table, lits) = random_table(&mut rng, rows, candidates);
            for budget in [0, 1] {
                assert_eq!(solve(&table, &lits, budget).0, None);
            }
        }
        // Σ m(0,1,2,5,6,7) is cyclic: six primes, no essential one, so the
        // whole table goes to the exact solve.
        let f =
            CoverFunction::from_function(&Function::from_on_set(3, &[0, 1, 2, 5, 6, 7]).unwrap());
        let primes = f.prime_implicants();
        assert_eq!(
            minimum_cover_within(&f, &primes, NODE_BUDGET).cube_count(),
            3
        );
        for budget in [0, 1] {
            assert!(f.implemented_by(&minimum_cover_within(&f, &primes, budget)));
        }
    }

    /// The residual table of one `Y` bit in Step 6 of unreduced
    /// `benchmarks/gen_s26_i2_o1_d25_f2_c3_m1_r0_x5eedf10c.kiss` (bounded
    /// assignment): 56 rows over 35 candidate primes, renumbered densely.
    /// Petrick's expansion spent most of a second on it before giving up at
    /// row 53 (3,040 products) and handing it to the greedy heuristic, which
    /// picked 13 primes with 67 literals. The search must find the optimum
    /// within a bounded amount of work, so this fails if the cliff comes
    /// back.
    #[test]
    fn step6_cliff_table_is_solved_exactly_within_a_work_bound() {
        let table: Vec<Vec<usize>> = vec![
            vec![0, 1, 18],
            vec![0, 1, 8],
            vec![0, 1, 16, 18, 24, 26, 32],
            vec![9, 10, 11, 22, 23],
            vec![10, 11],
            vec![4, 5, 7, 15, 17],
            vec![4, 5],
            vec![4, 5, 15, 17],
            vec![4, 15, 17, 18],
            vec![4, 18],
            vec![9, 10],
            vec![0, 1, 6, 14, 28],
            vec![0, 1, 14],
            vec![1, 3, 5, 6],
            vec![1, 3],
            vec![6, 19, 25, 26, 28, 32],
            vec![19, 21, 25, 26, 32],
            vec![0, 1, 14, 15, 18, 25, 26, 32],
            vec![12, 15, 17, 18],
            vec![15, 17, 28],
            vec![15, 17],
            vec![12, 15, 17, 18],
            vec![15, 17, 28],
            vec![0, 18],
            vec![0, 8],
            vec![0, 16, 18, 24, 26, 32],
            vec![4, 5, 7, 15, 17],
            vec![4, 5],
            vec![4, 5, 15, 17],
            vec![5, 6, 15],
            vec![12, 13, 14, 15, 18, 25, 26, 32],
            vec![12, 13, 15, 18, 32],
            vec![15, 17, 28],
            vec![13, 14, 15, 27, 28],
            vec![13, 15],
            vec![15, 17],
            vec![8, 19, 20, 21, 22],
            vec![8, 19, 21],
            vec![19, 20, 21, 24, 26, 32],
            vec![5, 6, 27],
            vec![14, 25, 26],
            vec![22, 23],
            vec![20, 22],
            vec![20, 24, 26],
            vec![0, 14],
            vec![2, 4, 5, 7, 15, 17],
            vec![4, 15, 17],
            vec![6, 19, 25, 26, 28, 32],
            vec![19, 21, 25, 26, 32],
            vec![0, 14, 15, 18, 25, 26, 32],
            vec![24, 29],
            vec![16, 24],
            vec![2, 7],
            vec![30, 34],
            vec![30, 31],
            vec![27, 33],
        ];
        let lits = [
            5, 5, 6, 6, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 4, 4, 5, 5, 4, 6, 5, 4, 4, 5, 5, 5, 6, 5,
            5, 7, 7, 5, 7, 7,
        ];
        // 12 primes with 59 literals is the minimum; three covers reach it
        // and this one comes first in Petrick's order.
        let optimum = vec![0, 1, 4, 7, 10, 15, 19, 22, 24, 26, 27, 30];
        let (selection, nodes) = solve(&table, &lits, NODE_BUDGET);
        assert_eq!(cost_of(&optimum, &lits), (12, 59));
        assert_eq!(selection, Some(optimum));
        assert!(nodes <= 50_000, "{nodes} search nodes");
    }
}
