//! Closed-cover selection over compatibles.

use std::collections::BTreeSet;

use fantom_flow::{FlowTable, StateId};

use crate::compat::{
    clear_bit, for_each_bit, maximal_compatibles_bounded, popcount, set_bit, word_count,
    CompatibilityTable,
};
use crate::options::ReductionOptions;

/// A closed cover of the state set: a collection of compatible classes such
/// that every state belongs to at least one class and every implied class is
/// contained in some chosen class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateCover {
    /// The chosen compatible classes (each sorted by state index).
    pub classes: Vec<Vec<StateId>>,
}

impl StateCover {
    /// The trivial cover with one singleton class per state (always closed).
    pub fn trivial(num_states: usize) -> Self {
        StateCover {
            classes: (0..num_states).map(|i| vec![StateId(i)]).collect(),
        }
    }

    /// Number of classes (states of the reduced machine).
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` if the cover has no classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Index of the first class containing `state`.
    ///
    /// # Panics
    ///
    /// Panics if no class contains `state` (the cover is not a cover).
    pub fn class_of(&self, state: StateId) -> usize {
        self.classes
            .iter()
            .position(|c| c.contains(&state))
            .expect("cover must contain every state")
    }

    /// Index of the first class containing the whole `set`, if any.
    pub fn class_containing(&self, set: &[StateId]) -> Option<usize> {
        self.classes
            .iter()
            .position(|c| set.iter().all(|s| c.contains(s)))
    }

    /// Whether every state of `table` belongs to at least one class.
    pub fn covers_all_states(&self, table: &FlowTable) -> bool {
        table
            .states()
            .all(|s| self.classes.iter().any(|c| c.contains(&s)))
    }

    /// Whether the cover is *closed* for `table`: for every class and input
    /// column, the implied set of next states is contained in some class.
    pub fn is_closed(&self, table: &FlowTable) -> bool {
        for class in &self.classes {
            for c in 0..table.num_columns() {
                let implied = implied_set(table, class, c);
                if !implied.is_empty() && self.class_containing(&implied).is_none() {
                    return false;
                }
            }
        }
        true
    }
}

/// The set of states implied by class `class` under input column `column`:
/// the specified next states of its members.
pub fn implied_set(table: &FlowTable, class: &[StateId], column: usize) -> Vec<StateId> {
    let mut out: Vec<StateId> = class
        .iter()
        .filter_map(|&s| table.next_state(s, column))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Select a small closed cover of compatibles for `table` with the default
/// (exact-for-small-machines) budgets. See [`closed_cover_with`].
pub fn closed_cover(table: &FlowTable, compat: &CompatibilityTable) -> StateCover {
    closed_cover_with(table, compat, &ReductionOptions::default())
}

/// Nodes the exact cover search may visit in one [`closed_cover_with`] call
/// before it gives up and the greedy cover is taken instead. The largest
/// search over the corpus, perfbench's relabel panel and fresh service
/// classes, and 3,000 generated 3–12-state tables visits 2,143.
const EXACT_COVER_NODE_BUDGET: u64 = 1_000_000;

/// Select a closed cover of compatibles for `table` under the budgets of
/// `options`.
///
/// Candidate classes are the (possibly budget-truncated) compatibles together
/// with all singleton classes, sorted largest first (stably, so equal sizes
/// keep their enumeration order). When enumeration completed and the machine
/// is small (`exact_cover_max_states`), an exact search returns the first
/// closed cover in order of size, then of candidate indices
/// (lexicographically), or the trivial cover if no smaller one exists. It
/// walks the candidates depth-first as packed state sets and cuts a branch
/// when its remaining slots times the size of the largest class left cannot
/// reach the uncovered states, or when the classes left cannot cover them;
/// both cuts are sound because the candidates are sorted largest first, so
/// the walk returns the cover a full enumeration would. A leaf checks
/// closure with one AND per implied set, against the precomputed set of
/// candidates that contain it. The walk visits at most a fixed budget of a
/// million nodes.
///
/// Past that budget, on a larger machine or after a truncated enumeration,
/// a greedy pair-merging cover is built instead: classes are chosen
/// largest-coverage-first and the chosen set is repaired to closure by
/// adding implied classes. The result always covers every state and is
/// always closed (in the worst case it degrades to the trivial cover).
pub fn closed_cover_with(
    table: &FlowTable,
    compat: &CompatibilityTable,
    options: &ReductionOptions,
) -> StateCover {
    closed_cover_budgeted(table, compat, options, EXACT_COVER_NODE_BUDGET)
}

/// [`closed_cover_with`] with the exact search's node budget as a parameter.
pub(crate) fn closed_cover_budgeted(
    table: &FlowTable,
    compat: &CompatibilityTable,
    options: &ReductionOptions,
    node_budget: u64,
) -> StateCover {
    let n = table.num_states();
    let enumeration = maximal_compatibles_bounded(compat, options);
    let mut candidates = enumeration.compatibles;
    // Set-backed dedup: the candidate list can be max_compatibles long, so
    // linear `contains` scans per injected pair would be quadratic exactly
    // when enumeration was truncated for being too big.
    let mut seen: BTreeSet<Vec<StateId>> = candidates.iter().cloned().collect();
    if !enumeration.complete {
        // Degraded mode: enumeration may have missed whole regions of the
        // graph, so make sure every compatible *pair* is available as a
        // merge candidate (n² of them at most — cheap next to enumeration).
        for (a, b) in compat.compatible_pairs() {
            let pair = vec![a, b];
            if seen.insert(pair.clone()) {
                candidates.push(pair);
            }
        }
    }
    for i in 0..n {
        let single = vec![StateId(i)];
        if seen.insert(single.clone()) {
            candidates.push(single);
        }
    }
    // Prefer big classes first so both searches find small covers early.
    // The sort is stable, so equal-length classes keep their (sorted,
    // deterministic) enumeration order.
    candidates.sort_by_key(|c| std::cmp::Reverse(c.len()));

    if enumeration.complete && n <= options.exact_cover_max_states {
        if let Some(cover) = ExactSearch::new(table, &candidates, node_budget).first_cover(n) {
            return cover;
        }
    }
    greedy_closed_cover(table, compat, &candidates, n, options.refine_passes)
}

/// Greedy cover construction for machines beyond the exact-search budget:
/// pick the class covering the most still-uncovered states (ties to the
/// larger, then earlier, class), then repair closure by adding each missing
/// implied class (hosted in the largest candidate that contains it), then
/// refine by local search (drop redundant classes, merge compatible pairs).
/// Falls back to the trivial cover if closure repair fails to converge.
fn greedy_closed_cover(
    table: &FlowTable,
    compat: &CompatibilityTable,
    candidates: &[Vec<StateId>],
    n: usize,
    refine_passes: usize,
) -> StateCover {
    let mut classes: Vec<Vec<StateId>> = Vec::new();
    let mut covered = vec![false; n];
    let mut covered_count = 0usize;
    while covered_count < n {
        let mut best: Option<(&Vec<StateId>, usize)> = None;
        for cand in candidates {
            let gain = cand.iter().filter(|s| !covered[s.0]).count();
            if gain > 0 && best.map_or(true, |(_, g)| gain > g) {
                best = Some((cand, gain));
            }
        }
        // Singletons are always candidates, so every uncovered state yields
        // a candidate with gain ≥ 1.
        let (chosen, _) = best.expect("singleton candidates cover every state");
        // Keep only the still-uncovered states (a subset of a compatible set
        // is compatible): the base classes then partition the state set, so
        // a transition into a merged state lands in *its* class instead of a
        // never-entered overlapping copy.
        let class: Vec<StateId> = chosen.iter().copied().filter(|s| !covered[s.0]).collect();
        for s in &class {
            covered[s.0] = true;
            covered_count += 1;
        }
        classes.push(class);
    }

    let Some(classes) = repair_closure(table, candidates, classes, n) else {
        return StateCover::trivial(n);
    };
    let classes = refine_classes(table, compat, candidates, classes, n, refine_passes);
    let cover = StateCover { classes };
    debug_assert!(cover.is_closed(table));
    cover
}

/// Closure repair: every implied set must be contained in a chosen class.
/// Each round adds classes for the currently missing implied sets; newly
/// added classes can imply further sets, so iterate to fixpoint with a
/// generous round cap. Returns `None` if the cap is hit.
fn repair_closure(
    table: &FlowTable,
    candidates: &[Vec<StateId>],
    mut classes: Vec<Vec<StateId>>,
    n: usize,
) -> Option<Vec<Vec<StateId>>> {
    let max_rounds = 4 * n + 16;
    for _ in 0..max_rounds {
        let mut to_add: Vec<Vec<StateId>> = Vec::new();
        for class in &classes {
            for c in 0..table.num_columns() {
                let implied = implied_set(table, class, c);
                if implied.is_empty() {
                    continue;
                }
                let contained = |host: &Vec<StateId>| implied.iter().all(|s| host.contains(s));
                if classes.iter().any(contained) || to_add.iter().any(contained) {
                    continue;
                }
                // Host the implied set in the largest candidate containing
                // it; the implied set of a compatible class is itself
                // compatible, so it is always a valid class on its own.
                let host = candidates
                    .iter()
                    .find(|cand| contained(cand))
                    .cloned()
                    .unwrap_or(implied);
                to_add.push(host);
            }
        }
        if to_add.is_empty() {
            return Some(classes);
        }
        classes.extend(to_add);
    }
    None
}

/// Whether reducing `table` with `classes` yields a machine the synthesis
/// pipeline would accept: still normal-mode and strongly connected. Greedy
/// covers contain overlapping closure-repair classes, and local edits can
/// shift which class the first-containing-class transition mapping picks —
/// leaving never-entered duplicate rows. Refinement therefore validates each
/// trial against the real acceptance criterion, not just cover/closure.
fn keeps_reduction_acceptable(table: &FlowTable, classes: &[Vec<StateId>]) -> bool {
    let cover = StateCover {
        classes: classes.to_vec(),
    };
    let reduced = crate::reduced::reduce_with_cover(table, &cover).table;
    fantom_flow::validate::is_normal_mode(&reduced)
        && fantom_flow::validate::is_strongly_connected(&reduced)
}

/// Local-search refinement of a complete, closed cover: drop classes whose
/// removal keeps the cover complete and closed, and merge compatible class
/// pairs when the merged cover (after closure repair) is strictly smaller.
/// Every intermediate cover is checked against the full invariants — cover,
/// closure *and* reduction acceptability — so the result is never worse than
/// the input. (If the input cover itself reduces to an unacceptable machine
/// the pipeline will fall back to the original table anyway; refinement then
/// leaves it untouched.)
fn refine_classes(
    table: &FlowTable,
    compat: &CompatibilityTable,
    candidates: &[Vec<StateId>],
    mut classes: Vec<Vec<StateId>>,
    n: usize,
    passes: usize,
) -> Vec<Vec<StateId>> {
    // Refinement only preserves acceptability it can see: skip everything if
    // the input cover is already unacceptable (the pipeline will discard it).
    if !keeps_reduction_acceptable(table, &classes) {
        return classes;
    }
    for _ in 0..passes {
        let mut changed = false;

        // Drop pass: redundant classes (typically closure-repair hosts whose
        // states a later merge absorbed) can simply go.
        let mut i = 0;
        while i < classes.len() {
            if classes.len() > 1 {
                let removed = classes.remove(i);
                let trial = StateCover {
                    classes: classes.clone(),
                };
                if trial.covers_all_states(table)
                    && trial.is_closed(table)
                    && keeps_reduction_acceptable(table, &classes)
                {
                    changed = true;
                    continue;
                }
                classes.insert(i, removed);
            }
            i += 1;
        }

        // Merge pass: a compatible union of two classes merges more states
        // into one reduced row. Accept a merge only when it is *already*
        // closed without new classes — closure-repair additions would
        // overlap the base classes, and overlapping covers produce
        // never-entered duplicate states the pipeline then rejects.
        'merge: loop {
            for i in 0..classes.len() {
                for j in (i + 1)..classes.len() {
                    let mut union = classes[i].clone();
                    union.extend_from_slice(&classes[j]);
                    union.sort();
                    union.dedup();
                    if !compat.set_is_compatible(&union) {
                        continue;
                    }
                    let mut trial: Vec<Vec<StateId>> = classes
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| *k != i && *k != j)
                        .map(|(_, c)| c.clone())
                        .collect();
                    trial.push(union);
                    if let Some(repaired) = repair_closure(table, candidates, trial, n) {
                        if repaired.len() < classes.len()
                            && keeps_reduction_acceptable(table, &repaired)
                        {
                            classes = repaired;
                            changed = true;
                            continue 'merge;
                        }
                    }
                }
            }
            break;
        }

        if !changed {
            break;
        }
    }
    classes
}

/// The exact search's state: the candidates and their implied sets as packed
/// sets, built once per [`closed_cover_with`] call, and the depth-first
/// walk's scratch.
struct ExactSearch<'a> {
    candidates: &'a [Vec<StateId>],
    /// Words per state set.
    state_words: usize,
    /// Candidate `i`'s states, in row `i`.
    states: Vec<u64>,
    /// Row `i` is the union of candidates `i..`; the extra last row is empty.
    suffix: Vec<u64>,
    /// The obligations of the candidates' implied sets: per set, the set of
    /// candidates that contain it, `cand_words` words. Candidate `i`'s
    /// obligations are the words `first[i]..first[i + 1]`.
    hosts: Vec<u64>,
    first: Vec<usize>,
    cand_words: usize,
    /// The walk: the chosen candidates in order and as a set, and in row `d`
    /// the states that the first `d` of them leave uncovered.
    chosen: Vec<usize>,
    chosen_set: Vec<u64>,
    uncovered: Vec<u64>,
    nodes: u64,
    node_budget: u64,
}

impl<'a> ExactSearch<'a> {
    fn new(table: &FlowTable, candidates: &'a [Vec<StateId>], node_budget: u64) -> Self {
        let n = table.num_states();
        let m = candidates.len();
        let (state_words, cand_words) = (word_count(n), word_count(m));
        let mut states = vec![0u64; m * state_words];
        // Row `s`: the candidates that contain state `s`.
        let mut containing = vec![0u64; n * cand_words];
        for (i, class) in candidates.iter().enumerate() {
            for s in class {
                set_bit(&mut states[i * state_words..], s.0);
                set_bit(&mut containing[s.0 * cand_words..], i);
            }
        }
        let mut suffix = vec![0u64; (m + 1) * state_words];
        for i in (0..m).rev() {
            for w in 0..state_words {
                suffix[i * state_words + w] =
                    suffix[(i + 1) * state_words + w] | states[i * state_words + w];
            }
        }

        let mut hosts = Vec::new();
        let mut first = Vec::with_capacity(m + 1);
        let mut implied = vec![0u64; state_words];
        let mut host = vec![0u64; cand_words];
        for (i, class) in candidates.iter().enumerate() {
            first.push(hosts.len());
            for c in 0..table.num_columns() {
                implied.fill(0);
                for &s in class {
                    if let Some(t) = table.next_state(s, c) {
                        set_bit(&mut implied, t.0);
                    }
                }
                // A leaf covers every state, so a set of at most one state
                // is always hosted, and so is a set inside the class itself.
                let own = &states[i * state_words..(i + 1) * state_words];
                if popcount(&implied) <= 1 || is_subset(&implied, own) {
                    continue;
                }
                host.fill(!0);
                for_each_bit(&implied, |t| {
                    let row = &containing[t * cand_words..(t + 1) * cand_words];
                    for (h, r) in host.iter_mut().zip(row) {
                        *h &= r;
                    }
                });
                hosts.extend_from_slice(&host);
            }
        }
        first.push(hosts.len());

        // Row 0: every state is uncovered before the first choice.
        let mut uncovered = vec![0; (n + 1) * state_words];
        uncovered[..state_words].copy_from_slice(&suffix[..state_words]);
        ExactSearch {
            candidates,
            state_words,
            states,
            suffix,
            hosts,
            first,
            cand_words,
            chosen: Vec::with_capacity(n),
            chosen_set: vec![0; cand_words],
            uncovered,
            nodes: 0,
            node_budget,
        }
    }

    /// The first closed cover of fewer than `n` classes in size-then-
    /// lexicographic order of candidate indices, else the trivial cover;
    /// `None` once the walk visits more than `node_budget` nodes.
    fn first_cover(mut self, n: usize) -> Option<StateCover> {
        for size in 1..n {
            if self.descend(size, 0)? {
                let classes = self
                    .chosen
                    .iter()
                    .map(|&i| self.candidates[i].clone())
                    .collect();
                return Some(StateCover { classes });
            }
        }
        Some(StateCover::trivial(n))
    }

    /// Extend the chosen prefix by `left` candidates from index `start` on;
    /// `Some(true)` leaves the first cover found in `chosen`.
    fn descend(&mut self, left: usize, start: usize) -> Option<bool> {
        let sw = self.state_words;
        let row = self.chosen.len() * sw;
        let uncovered = popcount(&self.uncovered[row..row + sw]);
        if left == 0 {
            return Some(uncovered == 0 && self.is_closed());
        }
        let end = (self.candidates.len() + 1).saturating_sub(left);
        for i in start..end {
            // The candidates are sorted largest first, so once either bound
            // fails at `i` it fails at every later index: `left` classes of
            // at most `candidates[i].len()` states cannot reach `uncovered`
            // states, or the classes from `i` on miss an uncovered state.
            if left * self.candidates[i].len() < uncovered
                || !is_subset(
                    &self.uncovered[row..row + sw],
                    &self.suffix[i * sw..(i + 1) * sw],
                )
            {
                break;
            }
            self.nodes += 1;
            if self.nodes > self.node_budget {
                return None;
            }
            for w in 0..sw {
                self.uncovered[row + sw + w] = self.uncovered[row + w] & !self.states[i * sw + w];
            }
            self.chosen.push(i);
            set_bit(&mut self.chosen_set, i);
            if self.descend(left - 1, i + 1)? {
                return Some(true);
            }
            self.chosen.pop();
            clear_bit(&mut self.chosen_set, i);
        }
        Some(false)
    }

    /// Whether every obligation of every chosen candidate has a chosen host:
    /// one AND per obligation (and word of the candidate set).
    fn is_closed(&self) -> bool {
        self.chosen.iter().all(|&i| {
            self.hosts[self.first[i]..self.first[i + 1]]
                .chunks_exact(self.cand_words)
                .all(|host| host.iter().zip(&self.chosen_set).any(|(h, c)| h & c != 0))
        })
    }
}

/// Whether the packed set `a` lies inside `b`.
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(a, b)| a & !b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compatibility;
    use fantom_flow::benchmarks;

    #[test]
    fn trivial_cover_is_always_closed() {
        for table in benchmarks::all() {
            let cover = StateCover::trivial(table.num_states());
            assert!(
                cover.is_closed(&table),
                "trivial cover not closed for {}",
                table.name()
            );
        }
    }

    #[test]
    fn cover_covers_every_state_and_is_closed() {
        for table in benchmarks::all() {
            let compat = compatibility(&table);
            let cover = closed_cover(&table, &compat);
            assert!(
                cover.covers_all_states(&table),
                "cover misses a state of {}",
                table.name()
            );
            assert!(
                cover.is_closed(&table),
                "cover not closed for {}",
                table.name()
            );
            assert!(cover.len() <= table.num_states());
        }
    }

    #[test]
    fn redundant_states_reduce_class_count() {
        let table = benchmarks::redundant_traffic();
        let compat = compatibility(&table);
        let cover = closed_cover(&table, &compat);
        assert!(cover.len() < table.num_states());
    }

    #[test]
    fn greedy_cover_matches_obligations_on_every_benchmark() {
        // Force the greedy path (exact search disabled) and check the
        // results keep the cover/closure invariants.
        let options = ReductionOptions {
            exact_cover_max_states: 0,
            ..ReductionOptions::default()
        };
        for table in benchmarks::all() {
            let compat = compatibility(&table);
            let cover = closed_cover_with(&table, &compat, &options);
            assert!(cover.covers_all_states(&table), "{}", table.name());
            assert!(cover.is_closed(&table), "{}", table.name());
            assert!(cover.len() <= table.num_states());
        }
    }

    #[test]
    fn capped_enumeration_still_yields_closed_covers() {
        let options = ReductionOptions {
            max_compatibles: 2,
            max_clique_width: 2,
            node_budget: 16,
            exact_cover_max_states: 0,
            refine_passes: 2,
        };
        for table in benchmarks::all() {
            let compat = compatibility(&table);
            let cover = closed_cover_with(&table, &compat, &options);
            assert!(cover.covers_all_states(&table), "{}", table.name());
            assert!(cover.is_closed(&table), "{}", table.name());
            for class in &cover.classes {
                assert!(compat.set_is_compatible(class), "{}", table.name());
            }
        }
    }

    #[test]
    fn refinement_never_grows_the_greedy_cover() {
        // Force the greedy path and compare refined vs unrefined class
        // counts on every benchmark: local search may only shrink the cover,
        // and the result keeps the cover/closure/compatibility invariants.
        let unrefined_opts = ReductionOptions {
            exact_cover_max_states: 0,
            refine_passes: 0,
            ..ReductionOptions::default()
        };
        let refined_opts = ReductionOptions {
            exact_cover_max_states: 0,
            ..ReductionOptions::default()
        };
        for table in benchmarks::all() {
            let compat = compatibility(&table);
            let unrefined = closed_cover_with(&table, &compat, &unrefined_opts);
            let refined = closed_cover_with(&table, &compat, &refined_opts);
            assert!(
                refined.len() <= unrefined.len(),
                "{}: refinement grew the cover {} -> {}",
                table.name(),
                unrefined.len(),
                refined.len()
            );
            assert!(refined.covers_all_states(&table), "{}", table.name());
            assert!(refined.is_closed(&table), "{}", table.name());
            for class in &refined.classes {
                assert!(compat.set_is_compatible(class), "{}", table.name());
            }
        }
    }

    #[test]
    fn refinement_closes_the_gap_on_redundant_machines() {
        // On the redundant benchmark the greedy cover alone is suboptimal
        // enough for a merge to fire; refinement must reach the exact cover's
        // class count.
        let table = benchmarks::redundant_traffic();
        let compat = compatibility(&table);
        let exact = closed_cover(&table, &compat);
        let greedy_refined = closed_cover_with(
            &table,
            &compat,
            &ReductionOptions {
                exact_cover_max_states: 0,
                ..ReductionOptions::default()
            },
        );
        assert!(
            greedy_refined.len() <= exact.len() + 1,
            "refined greedy cover ({}) far from exact ({})",
            greedy_refined.len(),
            exact.len()
        );
    }

    #[test]
    fn exhausted_node_budget_falls_back_to_the_greedy_cover() {
        let greedy_options = ReductionOptions {
            exact_cover_max_states: 0,
            ..ReductionOptions::default()
        };
        for table in benchmarks::all() {
            let compat = compatibility(&table);
            for budget in [0, 1, 3] {
                let cover =
                    closed_cover_budgeted(&table, &compat, &ReductionOptions::default(), budget);
                assert!(cover.covers_all_states(&table), "{}", table.name());
                assert!(cover.is_closed(&table), "{}", table.name());
                for class in &cover.classes {
                    assert!(compat.set_is_compatible(class), "{}", table.name());
                }
            }
        }
        // On lion9 and train11 the exact and the greedy covers differ, so a
        // budget of one node visibly ends in the greedy cover.
        for table in [benchmarks::lion9(), benchmarks::train11()] {
            let compat = compatibility(&table);
            let starved = closed_cover_budgeted(&table, &compat, &ReductionOptions::default(), 1);
            let greedy = closed_cover_with(&table, &compat, &greedy_options);
            assert_eq!(starved, greedy, "{}", table.name());
            assert_ne!(starved, closed_cover(&table, &compat), "{}", table.name());
        }
    }

    #[test]
    fn class_of_and_class_containing() {
        let cover = StateCover {
            classes: vec![vec![StateId(0), StateId(1)], vec![StateId(2)]],
        };
        assert_eq!(cover.class_of(StateId(1)), 0);
        assert_eq!(cover.class_of(StateId(2)), 1);
        assert_eq!(cover.class_containing(&[StateId(0), StateId(1)]), Some(0));
        assert_eq!(cover.class_containing(&[StateId(1), StateId(2)]), None);
    }
}
