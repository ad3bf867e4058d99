//! Pairwise compatibility analysis and maximal-compatible enumeration.
//!
//! Compatibility is computed *incrementally*: implication edges between state
//! pairs are recorded once, direct output conflicts seed a worklist, and
//! incompatibility is propagated along the recorded edges. Total cost is
//! O(n² · columns + implications) instead of the classical
//! fixpoint-of-full-rescans loop, which rescans all n²/2 pairs against every
//! column on every iteration.
//!
//! Maximal compatibles are the maximal cliques of the compatibility graph,
//! enumerated by Bron–Kerbosch with Tomita-style greedy pivoting over a
//! degeneracy-ordered outer loop, with configurable caps
//! ([`ReductionOptions`]) so enumeration stays bounded on adversarial tables.

use fantom_flow::{FlowTable, StateId};

use crate::options::ReductionOptions;

const WORD_BITS: usize = 64;

#[inline]
pub(crate) fn word_count(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

#[inline]
fn get_bit(row: &[u64], i: usize) -> bool {
    row[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
}

#[inline]
pub(crate) fn set_bit(row: &mut [u64], i: usize) {
    row[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
}

#[inline]
pub(crate) fn clear_bit(row: &mut [u64], i: usize) {
    row[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
}

#[inline]
pub(crate) fn popcount(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// Iterate the set bit indices of a word slice.
pub(crate) fn for_each_bit(row: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &w) in row.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            f(wi * WORD_BITS + b);
            w &= w - 1;
        }
    }
}

/// Result of the pairwise compatibility analysis (the implication table).
///
/// Rows are stored as packed bitsets so clique enumeration can intersect
/// neighbourhoods word-parallel.
#[derive(Debug, Clone)]
pub struct CompatibilityTable {
    n: usize,
    words: usize,
    /// `n` rows of `words` words; bit `b` of row `a` means `a` and `b` are
    /// compatible. The diagonal is always set.
    rows: Vec<u64>,
}

impl CompatibilityTable {
    #[inline]
    fn row(&self, a: usize) -> &[u64] {
        &self.rows[a * self.words..(a + 1) * self.words]
    }

    /// Whether states `a` and `b` are compatible. A state is always compatible
    /// with itself.
    pub fn are_compatible(&self, a: StateId, b: StateId) -> bool {
        get_bit(self.row(a.0), b.0)
    }

    /// Number of states of the analysed table.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// All compatible pairs `(a, b)` with `a < b`.
    pub fn compatible_pairs(&self) -> Vec<(StateId, StateId)> {
        let mut out = Vec::new();
        for a in 0..self.n {
            for_each_bit(self.row(a), |b| {
                if a < b {
                    out.push((StateId(a), StateId(b)));
                }
            });
        }
        out
    }

    /// Whether every pair of states drawn from `set` is compatible.
    pub fn set_is_compatible(&self, set: &[StateId]) -> bool {
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                if !self.are_compatible(a, b) {
                    return false;
                }
            }
        }
        true
    }
}

/// Incremental construction of a [`CompatibilityTable`].
///
/// The builder starts from the all-compatible table. Implication edges
/// ("if `implied` is incompatible then `premise` is incompatible") are
/// recorded once; direct conflicts are seeded with
/// [`mark_incompatible`](Self::mark_incompatible); and [`finish`](Self::finish)
/// propagates incompatibility along the recorded edges with a worklist. Each
/// pair is enqueued at most once, so propagation is linear in the number of
/// recorded implications rather than quadratic rescans to fixpoint.
#[derive(Debug, Clone)]
pub struct CompatibilityBuilder {
    n: usize,
    words: usize,
    rows: Vec<u64>,
    /// Indexed by the upper-triangular index of a pair `(a, b)` with
    /// `a < b`: the packed pairs that become incompatible when `(a, b)`
    /// does. Triangular so only the n·(n−1)/2 addressable slots exist.
    dependents: Vec<Vec<u32>>,
    /// Packed `(a, b)` pairs whose incompatibility is yet to be propagated.
    worklist: Vec<u32>,
}

/// Pack an unordered state pair into 16-bit halves (states are bounded far
/// below 2^16 by the n² structures above).
#[inline]
fn pack_pair(a: StateId, b: StateId) -> u32 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    ((lo as u32) << 16) | hi as u32
}

#[inline]
fn unpack_pair(p: u32) -> (usize, usize) {
    ((p >> 16) as usize, (p & 0xFFFF) as usize)
}

impl CompatibilityBuilder {
    /// A builder over `n` states with every pair initially compatible.
    pub fn new(n: usize) -> Self {
        let words = word_count(n).max(1);
        let mut rows = vec![0u64; n * words];
        for a in 0..n {
            let row = &mut rows[a * words..(a + 1) * words];
            for b in 0..n {
                set_bit(row, b);
            }
        }
        CompatibilityBuilder {
            n,
            words,
            rows,
            dependents: vec![Vec::new(); n * n.saturating_sub(1) / 2],
            worklist: Vec::new(),
        }
    }

    /// Upper-triangular index of an unordered pair (`lo < hi`).
    #[inline]
    fn tri_index(&self, a: StateId, b: StateId) -> usize {
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        lo * self.n - lo * (lo + 1) / 2 + (hi - lo - 1)
    }

    /// Record that `premise` is incompatible whenever `implied` is (some
    /// input column sends the premise pair to the implied pair).
    pub fn add_implication(&mut self, premise: (StateId, StateId), implied: (StateId, StateId)) {
        let p = pack_pair(premise.0, premise.1);
        let i = self.tri_index(implied.0, implied.1);
        self.dependents[i].push(p);
    }

    /// Seed a direct incompatibility (e.g. an output conflict).
    pub fn mark_incompatible(&mut self, a: StateId, b: StateId) {
        if a.0 == b.0 {
            return;
        }
        if !get_bit(&self.rows[a.0 * self.words..(a.0 + 1) * self.words], b.0) {
            return; // already marked
        }
        clear_bit(
            &mut self.rows[a.0 * self.words..(a.0 + 1) * self.words],
            b.0,
        );
        clear_bit(
            &mut self.rows[b.0 * self.words..(b.0 + 1) * self.words],
            a.0,
        );
        self.worklist.push(pack_pair(a, b));
    }

    /// Propagate incompatibility along the recorded implications and return
    /// the finished table.
    pub fn finish(mut self) -> CompatibilityTable {
        while let Some(pair) = self.worklist.pop() {
            let (a, b) = unpack_pair(pair);
            // Move the dependents out to appease the borrow checker; the pair
            // can never be re-processed, so the list is not needed again.
            let idx = self.tri_index(StateId(a), StateId(b));
            let deps = std::mem::take(&mut self.dependents[idx]);
            for dep in deps {
                let (a, b) = unpack_pair(dep);
                if get_bit(&self.rows[a * self.words..(a + 1) * self.words], b) {
                    self.mark_incompatible(StateId(a), StateId(b));
                }
            }
        }
        CompatibilityTable {
            n: self.n,
            words: self.words,
            rows: self.rows,
        }
    }
}

/// Run the implication-table analysis on `table`.
///
/// Two states are *compatible* when, for every input column, their specified
/// outputs agree and their specified next states are themselves (pairwise)
/// compatible. Incompatibility is propagated along precomputed implication
/// edges with a worklist (see [`CompatibilityBuilder`]), not by rescanning
/// all pairs to fixpoint.
pub fn compatibility(table: &FlowTable) -> CompatibilityTable {
    let n = table.num_states();
    let mut builder = CompatibilityBuilder::new(n);

    for a in 0..n {
        for b in (a + 1)..n {
            let (sa, sb) = (StateId(a), StateId(b));
            if output_conflict(table, sa, sb) {
                builder.mark_incompatible(sa, sb);
                continue;
            }
            for c in 0..table.num_columns() {
                if let (Some(na), Some(nb)) = (table.next_state(sa, c), table.next_state(sb, c)) {
                    if na != nb && !(na == sa && nb == sb) && !(na == sb && nb == sa) {
                        builder.add_implication((sa, sb), (na, nb));
                    }
                }
            }
        }
    }

    builder.finish()
}

fn output_conflict(table: &FlowTable, a: StateId, b: StateId) -> bool {
    for c in 0..table.num_columns() {
        if let (Some(oa), Some(ob)) = (table.output(a, c), table.output(b, c)) {
            if oa != ob {
                return true;
            }
        }
    }
    false
}

/// Outcome of a (possibly budgeted) compatible enumeration.
#[derive(Debug, Clone)]
pub struct CompatiblesResult {
    /// The enumerated compatibles, each sorted by state index; the list is
    /// sorted and duplicate-free.
    pub compatibles: Vec<Vec<StateId>>,
    /// `true` when enumeration finished without hitting any cap, i.e. the
    /// result is exactly the set of maximal compatibles.
    pub complete: bool,
    /// Bron–Kerbosch search nodes visited.
    pub nodes: u64,
}

/// Enumerate the maximal compatibles of `compat`: maximal sets of states in
/// which every pair is compatible (maximal cliques of the compatibility
/// graph). Sets are returned sorted by their smallest member.
pub fn maximal_compatibles(compat: &CompatibilityTable) -> Vec<Vec<StateId>> {
    let result = maximal_compatibles_bounded(compat, &ReductionOptions::exact());
    debug_assert!(result.complete);
    result.compatibles
}

/// Enumerate compatibles under the budgets of `options`.
///
/// Within budget this returns exactly the maximal compatibles
/// (`complete == true`). When a cap is hit, the returned sets are still all
/// compatible (they are cliques) but may be non-maximal, and some maximal
/// compatibles may be missing (`complete == false`).
pub fn maximal_compatibles_bounded(
    compat: &CompatibilityTable,
    options: &ReductionOptions,
) -> CompatiblesResult {
    let n = compat.num_states();
    let words = word_count(n).max(1);

    // Adjacency without the diagonal (a clique never re-adds its own member).
    let mut adj = vec![0u64; n * words];
    for a in 0..n {
        adj[a * words..(a + 1) * words].copy_from_slice(compat.row(a));
        clear_bit(&mut adj[a * words..(a + 1) * words], a);
    }

    let order = degeneracy_order(&adj, n, words);

    let mut search = BoundedSearch {
        adj: &adj,
        words,
        options,
        nodes: 0,
        truncated: false,
        out: Vec::new(),
    };

    // Degeneracy-ordered outer loop: each vertex roots a subtree whose
    // candidate set is its later neighbours, keeping the recursion depth
    // close to the graph's degeneracy.
    let mut position = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    'outer: for &v in &order {
        let mut p = vec![0u64; words];
        let mut x = vec![0u64; words];
        for_each_bit(&adj[v * words..(v + 1) * words], |u| {
            if position[u] > position[v] {
                set_bit(&mut p, u);
            } else {
                set_bit(&mut x, u);
            }
        });
        let mut r = vec![v];
        if !search.expand(&mut r, p, x) {
            break 'outer;
        }
    }

    let truncated = search.truncated;
    let nodes = search.nodes;
    let mut compatibles: Vec<Vec<StateId>> = search
        .out
        .into_iter()
        .map(|c| {
            let mut c: Vec<StateId> = c.into_iter().map(StateId).collect();
            c.sort();
            c
        })
        .collect();
    compatibles.sort();
    compatibles.dedup();
    CompatiblesResult {
        compatibles,
        complete: !truncated,
        nodes,
    }
}

/// Degeneracy ordering: repeatedly remove a minimum-degree vertex. Ties are
/// broken by index so the ordering (and therefore the enumeration order) is
/// deterministic.
fn degeneracy_order(adj: &[u64], n: usize, words: usize) -> Vec<usize> {
    let mut remaining = vec![0u64; words];
    for v in 0..n {
        set_bit(&mut remaining, v);
    }
    let mut degree: Vec<usize> = (0..n)
        .map(|v| popcount(&adj[v * words..(v + 1) * words]))
        .collect();
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for_each_bit(&remaining, |v| {
            if degree[v] < best_deg {
                best_deg = degree[v];
                best = v;
            }
        });
        let v = best;
        clear_bit(&mut remaining, v);
        order.push(v);
        for_each_bit(&adj[v * words..(v + 1) * words], |u| {
            if get_bit(&remaining, u) {
                degree[u] -= 1;
            }
        });
    }
    order
}

struct BoundedSearch<'a> {
    adj: &'a [u64],
    words: usize,
    options: &'a ReductionOptions,
    nodes: u64,
    truncated: bool,
    out: Vec<Vec<usize>>,
}

impl BoundedSearch<'_> {
    #[inline]
    fn neighbours(&self, v: usize) -> &[u64] {
        &self.adj[v * self.words..(v + 1) * self.words]
    }

    /// Emit a compatible; returns `false` when the emission cap is reached.
    fn emit(&mut self, r: &[usize]) -> bool {
        self.out.push(r.to_vec());
        if self.out.len() >= self.options.max_compatibles {
            self.truncated = true;
            return false;
        }
        true
    }

    /// Pivoted Bron–Kerbosch over bitset candidate (`p`) and exclusion (`x`)
    /// sets. Returns `false` when the whole search should stop (a global cap
    /// was hit).
    fn expand(&mut self, r: &mut Vec<usize>, mut p: Vec<u64>, mut x: Vec<u64>) -> bool {
        self.nodes += 1;
        if self.nodes > self.options.node_budget {
            self.truncated = true;
            // Whatever has been grown so far is still a clique worth keeping
            // as a cover candidate — but the budget is a hard abort, so stop
            // the whole search regardless of the emission cap.
            if !r.is_empty() {
                self.emit(r);
            }
            return false;
        }
        let p_count = popcount(&p);
        if p_count == 0 {
            if popcount(&x) == 0 {
                return self.emit(r);
            }
            return true;
        }
        if r.len() >= self.options.max_clique_width {
            // Depth cap: record the clique as-is and stop deepening. The set
            // may be non-maximal, so mark the enumeration incomplete.
            self.truncated = true;
            return self.emit(r);
        }

        // Tomita pivot: the vertex of P ∪ X with the most neighbours in P
        // minimizes the branching set P \ N(u).
        let mut pivot = usize::MAX;
        let mut pivot_cover = usize::MAX;
        for set in [&p, &x] {
            for_each_bit(set, |u| {
                let cover: usize = self
                    .neighbours(u)
                    .iter()
                    .zip(&p)
                    .map(|(a, b)| (a & b).count_ones() as usize)
                    .sum();
                if pivot == usize::MAX || cover > pivot_cover {
                    pivot = u;
                    pivot_cover = cover;
                }
            });
        }

        // Branch on P \ N(pivot).
        let mut branch = vec![0u64; self.words];
        for (b, (pw, nw)) in branch.iter_mut().zip(p.iter().zip(self.neighbours(pivot))) {
            *b = pw & !nw;
        }
        let mut branch_vertices = Vec::new();
        for_each_bit(&branch, |v| branch_vertices.push(v));

        for v in branch_vertices {
            let nv = self.neighbours(v).to_vec();
            let p2: Vec<u64> = p.iter().zip(&nv).map(|(a, b)| a & b).collect();
            let x2: Vec<u64> = x.iter().zip(&nv).map(|(a, b)| a & b).collect();
            r.push(v);
            let keep_going = self.expand(r, p2, x2);
            r.pop();
            if !keep_going {
                return false;
            }
            clear_bit(&mut p, v);
            set_bit(&mut x, v);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_flow::{benchmarks, FlowTableBuilder};

    #[test]
    fn identical_rows_are_compatible() {
        let table = benchmarks::redundant_traffic();
        let compat = compatibility(&table);
        let hg1 = table.state_by_name("HG1").unwrap();
        let hg2 = table.state_by_name("HG2").unwrap();
        assert!(compat.are_compatible(hg1, hg2));
    }

    #[test]
    fn output_conflicts_make_states_incompatible() {
        let table = benchmarks::lion();
        let compat = compatibility(&table);
        let l0 = table.state_by_name("L0").unwrap(); // output 0
        let l2 = table.state_by_name("L2").unwrap(); // output 1, stable at 00 as well
        assert!(!compat.are_compatible(l0, l2));
    }

    #[test]
    fn incompatibility_propagates_through_next_states() {
        // A/B differ only in that their successors under column 1 conflict in output.
        let mut b = FlowTableBuilder::new("prop", 1, 1);
        b.states(["A", "B", "C", "D"]);
        b.stable("A", "0", "0").unwrap();
        b.stable("B", "0", "0").unwrap();
        b.stable("C", "1", "0").unwrap();
        b.stable("D", "1", "1").unwrap();
        b.transition("A", "1", "C").unwrap();
        b.transition("B", "1", "D").unwrap();
        b.transition("C", "0", "A").unwrap();
        b.transition("D", "0", "B").unwrap();
        let t = b.build().unwrap();
        let compat = compatibility(&t);
        let a = t.state_by_name("A").unwrap();
        let b_id = t.state_by_name("B").unwrap();
        let c = t.state_by_name("C").unwrap();
        let d = t.state_by_name("D").unwrap();
        assert!(!compat.are_compatible(c, d), "C and D conflict directly");
        assert!(
            !compat.are_compatible(a, b_id),
            "A and B conflict through implication"
        );
    }

    #[test]
    fn maximal_compatibles_cover_all_states_and_are_maximal() {
        for table in benchmarks::all() {
            let compat = compatibility(&table);
            let maxes = maximal_compatibles(&compat);
            // Every state appears in at least one maximal compatible.
            for s in table.states() {
                assert!(
                    maxes.iter().any(|m| m.contains(&s)),
                    "state {s} of {} not covered",
                    table.name()
                );
            }
            for m in &maxes {
                assert!(compat.set_is_compatible(m));
                // Maximality: no state outside the set is compatible with all members.
                for s in table.states() {
                    if m.contains(&s) {
                        continue;
                    }
                    let all_ok = m.iter().all(|&x| compat.are_compatible(x, s));
                    assert!(
                        !all_ok,
                        "compatible set {m:?} of {} is not maximal",
                        table.name()
                    );
                }
            }
        }
    }

    #[test]
    fn self_compatibility_always_holds() {
        let table = benchmarks::lion9();
        let compat = compatibility(&table);
        for s in table.states() {
            assert!(compat.are_compatible(s, s));
        }
    }

    #[test]
    fn builder_propagates_chained_implications() {
        let mut b = CompatibilityBuilder::new(6);
        // (0,1) depends on (2,3) depends on (4,5).
        b.add_implication((StateId(0), StateId(1)), (StateId(2), StateId(3)));
        b.add_implication((StateId(2), StateId(3)), (StateId(4), StateId(5)));
        b.mark_incompatible(StateId(4), StateId(5));
        let table = b.finish();
        assert!(!table.are_compatible(StateId(4), StateId(5)));
        assert!(!table.are_compatible(StateId(2), StateId(3)));
        assert!(!table.are_compatible(StateId(0), StateId(1)));
        // Untouched pairs stay compatible.
        assert!(table.are_compatible(StateId(0), StateId(2)));
    }

    #[test]
    fn bounded_enumeration_respects_caps_and_reports_truncation() {
        let table = benchmarks::redundant_traffic();
        let compat = compatibility(&table);
        let exact = maximal_compatibles(&compat);

        let capped = maximal_compatibles_bounded(
            &compat,
            &ReductionOptions {
                max_compatibles: 1,
                ..ReductionOptions::exact()
            },
        );
        assert!(!capped.complete);
        assert_eq!(capped.compatibles.len(), 1);
        assert!(compat.set_is_compatible(&capped.compatibles[0]));

        let width_capped = maximal_compatibles_bounded(
            &compat,
            &ReductionOptions {
                max_clique_width: 1,
                ..ReductionOptions::exact()
            },
        );
        assert!(!width_capped.complete);
        for c in &width_capped.compatibles {
            assert!(c.len() <= 1);
        }

        let unbounded = maximal_compatibles_bounded(&compat, &ReductionOptions::exact());
        assert!(unbounded.complete);
        assert_eq!(unbounded.compatibles, exact);
    }

    #[test]
    fn node_budget_exhaustion_still_yields_compatible_sets() {
        let table = benchmarks::train11();
        let compat = compatibility(&table);
        let starved = maximal_compatibles_bounded(
            &compat,
            &ReductionOptions {
                node_budget: 3,
                ..ReductionOptions::exact()
            },
        );
        assert!(!starved.complete);
        for c in &starved.compatibles {
            assert!(compat.set_is_compatible(c));
        }
    }
}
