//! Minimum set cover: the one covering solver of the synthesis pipeline.
//!
//! SEANCE solves the same problem in three steps. Step 3 picks Tracey
//! partitions covering the required dichotomies; Steps 4 and 6 pick primes
//! covering the rows of a covering table ([`crate::petrick`]). Both hand this
//! module a column-wise table: `covers[c]` is the set of rows candidate `c`
//! covers.
//!
//! * [`minimum_cover`] is exact: a bitset branch and bound for the fewest
//!   candidates, then the least total cost, ties broken in the order
//!   Petrick's product-of-sums expansion lists its products. It runs under an
//!   internal node budget and returns `None` once the budget is spent or when
//!   some row has no candidate.
//! * [`greedy_cover`] is the fallback: a lazy-max greedy that repeatedly takes
//!   the candidate covering the most uncovered rows, ties to the lower index.
//!
//! # Example
//!
//! ```
//! use fantom_boolean::{covering, MintermSet};
//!
//! // Three rows; candidate 2 alone covers them all.
//! let covers = [
//!     MintermSet::from_minterms(3, [0, 1]),
//!     MintermSet::from_minterms(3, [2]),
//!     MintermSet::from_minterms(3, [0, 1, 2]),
//! ];
//! assert_eq!(covering::minimum_cover(&covers, 3, |_| 1), Some(vec![2]));
//! assert_eq!(covering::greedy_cover(&covers, 3), vec![2]);
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::MintermSet;

/// Search nodes [`minimum_cover`] may visit before it gives up. The hardest
/// residual table of Step 6 in a pass of perfbench's `relabel` workload (the
/// grid and large-suite machines under 20 relabelings each) needs 5,232; the
/// hardest exact Step 3 pool of the corpus and the perfbench inputs needs
/// 445.
pub(crate) const NODE_BUDGET: u64 = 200_000;

/// Exact minimum cover of the `rows`-row table whose column `c` covers the
/// rows `covers[c]`: the fewest candidates, then the least total `cost`, ties
/// in Petrick's product order. Returns the selected candidates in the order
/// the search took them — `None` when some row has no candidate or the
/// internal node budget runs out first.
///
/// The search branches on the first uncovered row over its covering
/// candidates in increasing order — the order in which Petrick's expansion
/// multiplies in the rows — so every path is one of the expansion's products.
/// It prunes a node only when its cost plus a lower bound is strictly worse
/// than the best cover found, and breaks ties the way Petrick's stable
/// size-sorted product list does, so wherever the expansion finishes, the
/// selection is exactly its selection.
pub fn minimum_cover(
    covers: &[impl AsRef<MintermSet>],
    rows: usize,
    cost: impl Fn(usize) -> usize,
) -> Option<Vec<usize>> {
    minimum_cover_within(covers, rows, cost, NODE_BUDGET).0
}

/// [`minimum_cover`] with the node budget as a parameter; also returns the
/// number of search nodes visited.
pub(crate) fn minimum_cover_within(
    covers: &[impl AsRef<MintermSet>],
    rows: usize,
    cost: impl Fn(usize) -> usize,
    node_budget: u64,
) -> (Option<Vec<usize>>, u64) {
    let covers: Vec<&MintermSet> = covers.iter().map(AsRef::as_ref).collect();
    // Row-wise view: each row's covering candidates, in increasing order.
    let mut table = vec![Vec::new(); rows];
    let mut coverers = vec![MintermSet::new(covers.len() as u64); rows];
    for (c, set) in covers.iter().enumerate() {
        for r in set.iter() {
            table[r as usize].push(c);
            coverers[r as usize].insert(c as u64);
        }
    }
    if table.iter().any(Vec::is_empty) {
        return (None, 0);
    }
    let costs: Vec<usize> = (0..covers.len()).map(cost).collect();
    let cheapest = table
        .iter()
        .map(|list| list.iter().map(|&c| costs[c]).min().unwrap_or(0))
        .collect();
    let mut bound_rows: Vec<usize> = (0..rows).collect();
    bound_rows.sort_by_key(|&r| table[r].len());
    let mut search = Search {
        uncovered: MintermSet::from_minterms(rows as u64, 0..rows as u64),
        taken: MintermSet::new(covers.len() as u64),
        table,
        bound_rows,
        costs,
        covers,
        coverers,
        cheapest,
        path: Vec::new(),
        path_cost: 0,
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
            .map(|s| search.table[s.row][s.pos])
            .collect()
    });
    (selection, search.nodes)
}

/// One branching step of the exact search: the table row it covers and the
/// position of the chosen candidate in that row's covering list.
#[derive(Clone, Copy)]
struct Step {
    row: usize,
    pos: usize,
}

/// Depth-first state of [`minimum_cover`]. The uncovered rows are one
/// bitset, updated in place with a word-level undo log rather than cloned
/// per node.
struct Search<'a> {
    /// Covering list of each row, as candidates in increasing order.
    table: Vec<Vec<usize>>,
    /// Rows by covering-list length, the order the lower bound takes them.
    bound_rows: Vec<usize>,
    /// Cost of each candidate.
    costs: Vec<usize>,
    /// Rows each candidate covers.
    covers: Vec<&'a MintermSet>,
    /// Candidates covering each row (the covering lists as bitsets).
    coverers: Vec<MintermSet>,
    /// Cost of each row's cheapest coverer.
    cheapest: Vec<usize>,
    uncovered: MintermSet,
    /// Candidates claimed by the rows of the lower bound, reused per node.
    taken: MintermSet,
    path: Vec<Step>,
    path_cost: usize,
    best: Vec<Step>,
    best_cost: Option<(usize, usize)>,
    undo: Vec<(u32, u64)>,
    nodes: u64,
    node_budget: u64,
}

impl Search<'_> {
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
                .subtract_with_undo(self.covers[cand], &mut self.undo);
            self.path.push(Step { row, pos });
            self.path_cost += self.costs[cand];
            let within_budget = self.descend();
            self.path_cost -= self.costs[cand];
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
    /// list: each needs a candidate of its own, costing at least its cheapest
    /// coverer.
    fn pruned(&mut self) -> bool {
        let Some(best) = self.best_cost else {
            return false;
        };
        let mut bound = (self.path.len(), self.path_cost);
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
        let cost = (self.path.len(), self.path_cost);
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
/// the rows where a candidate was added compare in descending order, the
/// larger row first; equal rows fall back to the smaller positions in the
/// rows' covering lists, in row order.
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

/// Greedy cover of the `rows`-row table whose column `c` covers the rows
/// `covers[c]`: repeatedly take the candidate covering the most uncovered
/// rows, ties to the lower index, until no candidate covers anything new.
/// Returns the candidates in the order taken; rows no candidate covers stay
/// uncovered.
///
/// The heap holds `(gain upper bound, Reverse(index))` keys. Gains only
/// shrink as rows get covered, so a popped entry wins outright if its
/// recomputed gain still beats every remaining upper bound, and re-enters
/// with the fresh key otherwise — the picks of a full rescan per pick,
/// without the rescan.
pub fn greedy_cover(covers: &[impl AsRef<MintermSet>], rows: usize) -> Vec<usize> {
    let mut uncovered = MintermSet::from_minterms(rows as u64, 0..rows as u64);
    let mut chosen = Vec::new();
    let mut heap: BinaryHeap<(usize, Reverse<usize>)> = covers
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let len = c.as_ref().len();
            (len > 0).then_some((len, Reverse(i)))
        })
        .collect();
    while let Some((gain, Reverse(i))) = heap.pop() {
        if uncovered.is_empty() {
            break;
        }
        let cover = covers[i].as_ref();
        let fresh = cover.intersection_count(&uncovered);
        if fresh == 0 {
            continue;
        }
        if fresh == gain || heap.peek().map_or(true, |&top| (fresh, Reverse(i)) >= top) {
            uncovered.subtract(cover);
            chosen.push(i);
        } else {
            heap.push((fresh, Reverse(i)));
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::{petrick, CoverFunction, Function};

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

    /// The columns of a row-wise table over `candidates` candidates.
    fn columns(table: &[Vec<usize>], candidates: usize) -> Vec<MintermSet> {
        let mut covers = vec![MintermSet::new(table.len() as u64); candidates];
        for (r, row) in table.iter().enumerate() {
            for &c in row {
                covers[c].insert(r as u64);
            }
        }
        covers
    }

    /// [`minimum_cover_within`] over a row-wise table, selection sorted.
    fn solve(table: &[Vec<usize>], lits: &[usize], node_budget: u64) -> (Option<Vec<usize>>, u64) {
        let covers = columns(table, lits.len());
        let (mut selection, nodes) =
            minimum_cover_within(&covers, table.len(), |c| lits[c], node_budget);
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
            petrick::minimum_cover_within(&f, &primes, NODE_BUDGET).cube_count(),
            3
        );
        for budget in [0, 1] {
            assert!(f.implemented_by(&petrick::minimum_cover_within(&f, &primes, budget)));
        }
    }

    #[test]
    fn rows_without_a_candidate_have_no_minimum_cover() {
        let covers = [MintermSet::from_minterms(3, [0, 2])];
        assert_eq!(minimum_cover(&covers, 3, |_| 1), None);
        assert_eq!(greedy_cover(&covers, 3), vec![0]);
        let none: [MintermSet; 0] = [];
        assert_eq!(minimum_cover(&none, 1, |_| 1), None);
        assert_eq!(minimum_cover(&none, 0, |_| 1), Some(Vec::new()));
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

    #[test]
    fn lazy_greedy_matches_rescan_reference() {
        let mut rng = StdRng::seed_from_u64(0x94ee_d1e5);
        for case in 0..500 {
            let rows = rng.gen_range(1..=40usize);
            let candidates = rng.gen_range(1..=60usize);
            let (table, _) = random_table(&mut rng, rows, candidates);
            let covers = columns(&table, candidates);
            // Rescan-per-pick oracle, verbatim from the replaced loop.
            let num = rows;
            let mut uncovered = MintermSet::from_minterms(num as u64, 0..num as u64);
            let mut expected: Vec<usize> = Vec::new();
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
                expected.push(pick);
            }
            assert_eq!(
                greedy_cover(&covers, num),
                expected,
                "case {case}: table {table:?}"
            );
        }
    }
}
