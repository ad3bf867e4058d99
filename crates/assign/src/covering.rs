//! Selection of a small set of state-variable partitions covering every
//! required dichotomy.
//!
//! This is a set cover over separation constraints: each candidate partition
//! is a maximal merge of compatible dichotomies, and the selected partitions
//! become the state variables. The engine is built around the inverted
//! **dichotomy index** of [`crate::index`], shared by every seed ordering:
//!
//! * **candidate growth** seeds one candidate per (dichotomy, ordering) pair
//!   — plus one per adjacency-cluster seed, see
//!   [`crate::assignment::adjacency_seeds`] — and absorbs compatible
//!   dichotomies in the ordering's sequence. Compatibility is read from
//!   incrementally maintained blocked-id bitsets instead of per-dichotomy
//!   set probes, so a sweep enumerates only the ids still absorbable
//!   (word-granular). Many growths rediscover a candidate already in the
//!   pool, so a candidate's `covers` set is computed only once the pool's
//!   dedup admits it, as one word-parallel query on the index
//!   ([`DichotomyIndex::covered_by`]) instead of a separation rescan;
//! * **selection** runs on the shared [`fantom_boolean::covering`] solver:
//!   its exact minimum cover on pools of at most 24 candidates, and
//!   otherwise — or once the exact search spends its node budget — its
//!   lazy-max greedy cover followed by local-search refinement (drop
//!   redundant partitions, replace partition pairs by a single candidate);
//! * any dichotomy the budgets left uncovered receives a dedicated partition
//!   — so the result always covers every dichotomy, whatever the
//!   [`AssignmentOptions`].
//!
//! The growth buffers and the candidate pool live in an [`AssignScratch`],
//! so batch callers (the synthesis service's `Workspace`) reuse the
//! allocations across calls.

use std::cmp::Reverse;

use fantom_boolean::{covering, MintermSet};

use crate::dichotomy::{Dichotomy, StateSet};
use crate::index::{DichotomyIndex, GrowthScratch};
use crate::options::AssignmentOptions;

/// A candidate state variable, represented as a merged dichotomy: states in
/// its left group are coded 0, states in its right group are coded 1,
/// unconstrained states may take either value (and default to 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Merged dichotomy describing the constrained states.
    dichotomy: Dichotomy,
    /// Packed set of indices (into the dichotomy list) this partition covers.
    covers: MintermSet,
}

impl Partition {
    /// Build a partition from a merged dichotomy, recording which of
    /// `dichotomies` it separates by a full rescan. The growth engine asks
    /// the dichotomy index instead ([`DichotomyIndex::covered_by`]); this
    /// constructor remains for the dedicated-partition fallback (and as the
    /// debug-mode oracle for the index's coverage query).
    fn new(dichotomy: Dichotomy, dichotomies: &[Dichotomy]) -> Self {
        let ones = dichotomy.right();
        let covers = MintermSet::from_minterms(
            dichotomies.len() as u64,
            dichotomies
                .iter()
                .enumerate()
                .filter(|(_, d)| d.separated_by(ones))
                .map(|(i, _)| i as u64),
        );
        Partition { dichotomy, covers }
    }

    /// The merged dichotomy backing this partition.
    pub fn dichotomy(&self) -> &Dichotomy {
        &self.dichotomy
    }

    /// The set of states coded 1 by this partition (the right side of the
    /// merged dichotomy).
    pub fn ones(&self) -> &StateSet {
        self.dichotomy.right()
    }

    /// Packed indices of the dichotomies this partition separates.
    pub fn covers(&self) -> &MintermSet {
        &self.covers
    }
}

/// Reusable buffers for the assignment engine: the shared dichotomy index,
/// the per-candidate growth state, the dedup set and the candidate pool. A
/// `Workspace` in the synthesis service holds one of these so a batch of
/// assignments allocates once.
#[derive(Debug, Default)]
pub struct AssignScratch {
    index: DichotomyIndex,
    growth: GrowthScratch,
    seen: fantom_boolean::collections::HashSet<Dichotomy>,
    candidates: Vec<Partition>,
}

/// The sequence in which a growing candidate visits the dichotomy list. Each
/// ordering absorbs in a different order, so the greedy merges produce
/// different (and collectively more diverse) maximal candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeedOrder {
    /// Ascending wrap-around from the seed.
    Forward,
    /// Descending wrap-around from the seed.
    Reverse,
    /// Visit `seed + k·stride (mod num)` for `k = 1..num`; the stride is
    /// coprime to `num`, so the walk is a permutation of the ids.
    Stride(usize),
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The distinct seed orderings for a `num`-dichotomy list, at most
/// `requested` of them.
///
/// The old variants ≥ 2 rotated the list by a prime offset — a silent
/// duplicate of Forward, because rotation changes each seed's *position* but
/// not the ascending wrap order grown from it, so every rotated ordering
/// produced exactly the candidates of variant 0. Coprime strides fix that: a
/// stride `st` genuinely reorders the absorption sequence. Strides `1` and
/// `num - 1` are Forward and Reverse, each stride is used once, and the probe
/// starts from the old variants' prime offsets so the choice stays
/// decorrelated from the generation order.
fn seed_orders(num: usize, requested: usize) -> Vec<SeedOrder> {
    let mut orders = vec![SeedOrder::Forward];
    if requested >= 2 && num >= 2 {
        orders.push(SeedOrder::Reverse);
    }
    let mut used: Vec<usize> = Vec::new();
    let mut variant = 2usize;
    while orders.len() < requested && num >= 5 {
        let start = (variant * 7919) % num;
        let found = (0..num)
            .map(|k| (start + k) % num)
            .find(|&st| st >= 2 && st != num - 1 && gcd(st, num) == 1 && !used.contains(&st));
        let Some(st) = found else { break };
        used.push(st);
        orders.push(SeedOrder::Stride(st));
        variant += 1;
    }
    orders
}

/// Add the states of `group` missing from `side` to it, ascending, reporting
/// each to `joined`. Word by word: most absorptions bring no new state, so
/// the common case is a few AND-NOTs with nothing to report.
fn join(side: &mut StateSet, group: &StateSet, mut joined: impl FnMut(u64)) {
    for (w, &g) in group.words().iter().enumerate() {
        let mut fresh = g & !side.words()[w];
        while fresh != 0 {
            let s = (w * 64) as u64 + u64::from(fresh.trailing_zeros());
            fresh &= fresh - 1;
            side.insert(s);
            joined(s);
        }
    }
}

/// One growing candidate: its two sides plus the incremental index state.
struct Grower<'a> {
    dichotomies: &'a [Dichotomy],
    index: &'a DichotomyIndex,
    growth: &'a mut GrowthScratch,
    left: StateSet,
    right: StateSet,
}

impl Grower<'_> {
    /// Absorb dichotomy `id` into the candidate. Must only be called while
    /// the id is allowed; prefers the direct orientation like `try_absorb`.
    fn absorb(&mut self, id: usize) {
        let d = &self.dichotomies[id];
        let (dl, dr) = if self.growth.direct_ok(id) {
            (d.left(), d.right())
        } else {
            debug_assert!(self.growth.flip_ok(id));
            (d.right(), d.left())
        };
        let (growth, index) = (&mut *self.growth, self.index);
        join(&mut self.left, dl, |s| growth.add_left_state(index, s));
        join(&mut self.right, dr, |s| growth.add_right_state(index, s));
        self.growth.mark_absorbed(id);
    }

    /// Absorb every still-allowed id in `[lo, hi)`, ascending. Word-granular:
    /// each iteration re-reads the word's allowed bits, so ids blocked by an
    /// absorption earlier in the sweep are never visited (the allowed set
    /// only shrinks, so re-taking the lowest live bit preserves the order).
    fn sweep_ascending(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let (wlo, whi) = (lo / 64, (hi - 1) / 64);
        for w in wlo..=whi {
            let mut mask = !0u64;
            if w == wlo {
                mask &= !0u64 << (lo % 64);
            }
            if w == whi && hi % 64 != 0 {
                mask &= !0u64 >> (64 - hi % 64);
            }
            loop {
                let live = self.growth.allowed_word(w) & mask;
                if live == 0 {
                    break;
                }
                self.absorb(w * 64 + live.trailing_zeros() as usize);
            }
        }
    }

    /// Absorb every still-allowed id in `[lo, hi)`, descending.
    fn sweep_descending(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let (wlo, whi) = (lo / 64, (hi - 1) / 64);
        for w in (wlo..=whi).rev() {
            let mut mask = !0u64;
            if w == wlo {
                mask &= !0u64 << (lo % 64);
            }
            if w == whi && hi % 64 != 0 {
                mask &= !0u64 >> (64 - hi % 64);
            }
            loop {
                let live = self.growth.allowed_word(w) & mask;
                if live == 0 {
                    break;
                }
                self.absorb(w * 64 + 63 - live.leading_zeros() as usize);
            }
        }
    }

    /// Run the growth sequence of `order` from `seed_pos`. One pass
    /// suffices: a dichotomy incompatible with the candidate stays
    /// incompatible forever (the sides only grow and both orientations'
    /// conflicts are monotone in them), so the second wrap-around pass of
    /// the replaced scan could never absorb anything new.
    fn grow(&mut self, seed_pos: usize, order: SeedOrder) {
        let num = self.dichotomies.len();
        match order {
            SeedOrder::Forward => {
                self.sweep_ascending(seed_pos, num);
                self.sweep_ascending(0, seed_pos);
            }
            SeedOrder::Reverse => {
                self.sweep_descending(0, (seed_pos + 1).min(num));
                self.sweep_descending(seed_pos + 1, num);
            }
            SeedOrder::Stride(stride) => {
                let mut id = seed_pos;
                for _ in 1..num {
                    id = (id + stride) % num;
                    if self.growth.allowed(id) {
                        self.absorb(id);
                    }
                }
            }
        }
    }
}

/// Grow one candidate from `seed` and push it (deduplicated) onto the pool.
#[allow(clippy::too_many_arguments)]
fn grow_and_emit(
    dichotomies: &[Dichotomy],
    index: &DichotomyIndex,
    growth: &mut GrowthScratch,
    seen: &mut fantom_boolean::collections::HashSet<Dichotomy>,
    candidates: &mut Vec<Partition>,
    state_bound: usize,
    seed: &Dichotomy,
    seed_id: Option<usize>,
    order: SeedOrder,
) {
    growth.reset(dichotomies.len());
    let mut left = StateSet::new(state_bound as u64);
    let mut right = StateSet::new(state_bound as u64);
    join(&mut left, seed.left(), |s| growth.add_left_state(index, s));
    join(&mut right, seed.right(), |s| {
        growth.add_right_state(index, s)
    });
    if let Some(id) = seed_id {
        growth.mark_absorbed(id);
    }
    let mut grower = Grower {
        dichotomies,
        index,
        growth,
        left,
        right,
    };
    grower.grow(seed_id.unwrap_or(0), order);
    let Grower { left, right, .. } = grower;
    // The grown orientation is the seed's orientation: `right` stays the
    // 1-coded side the coverage query is asked about.
    let dichotomy = Dichotomy::from_oriented_sets(left, right);
    if seen.insert(dichotomy.clone()) {
        let covers = index.covered_by(dichotomy.right(), growth);
        debug_assert!(
            covers.same_contents(&Partition::new(dichotomy.clone(), dichotomies).covers),
            "indexed covers diverge from the separation rescan"
        );
        candidates.push(Partition { dichotomy, covers });
    }
}

/// Fill `scratch.candidates` with the deduplicated candidate pool: adjacency
/// `seeds` first (they reach merges the dichotomy-seeded orderings tend to
/// miss on wide-column machines), then one candidate per (dichotomy, seed
/// ordering) pair, capped at `options.max_candidate_partitions`.
fn candidate_partitions_in(
    dichotomies: &[Dichotomy],
    seeds: &[Dichotomy],
    options: &AssignmentOptions,
    scratch: &mut AssignScratch,
) {
    let num = dichotomies.len();
    let state_bound = dichotomies
        .iter()
        .chain(seeds)
        .map(|d| d.left().capacity().max(d.right().capacity()))
        .max()
        .unwrap_or(0) as usize;
    let AssignScratch {
        index,
        growth,
        seen,
        candidates,
    } = scratch;
    index.rebuild(state_bound, dichotomies);
    seen.clear();
    candidates.clear();

    for seed in seeds {
        if candidates.len() >= options.max_candidate_partitions {
            return;
        }
        if seed.left().is_empty() || seed.right().is_empty() {
            continue;
        }
        grow_and_emit(
            dichotomies,
            index,
            growth,
            seen,
            candidates,
            state_bound,
            seed,
            None,
            SeedOrder::Forward,
        );
    }
    for &order in &seed_orders(num, options.seed_orderings.max(1)) {
        for k in 0..num {
            if candidates.len() >= options.max_candidate_partitions {
                return;
            }
            let seed = match order {
                SeedOrder::Forward => k,
                SeedOrder::Reverse => num - 1 - k,
                SeedOrder::Stride(st) => (k * st) % num,
            };
            grow_and_emit(
                dichotomies,
                index,
                growth,
                seen,
                candidates,
                state_bound,
                &dichotomies[seed],
                Some(seed),
                order,
            );
        }
    }
}

/// Grow the deduplicated candidate pool for `dichotomies` — optionally with
/// extra adjacency `seeds` grown first — and return it as a slice borrowed
/// from `scratch`. [`select_partitions_in`] uses this internally; it is
/// public for the differential harness and the micro benchmarks.
pub fn grow_candidates<'a>(
    dichotomies: &[Dichotomy],
    seeds: &[Dichotomy],
    options: &AssignmentOptions,
    scratch: &'a mut AssignScratch,
) -> &'a [Partition] {
    candidate_partitions_in(dichotomies, seeds, options, scratch);
    &scratch.candidates
}

/// Select a small set of partitions (state variables) such that every
/// dichotomy is separated by at least one selected partition, using the
/// default [`AssignmentOptions`].
pub fn select_partitions(dichotomies: &[Dichotomy]) -> Vec<Partition> {
    select_partitions_with(dichotomies, &AssignmentOptions::default())
}

/// Select a covering set of partitions under the budgets of `options`.
///
/// Candidate pools of at most 24 partitions get an exact minimum cover from
/// [`covering::minimum_cover`]; larger pools — and exact searches that spend
/// its node budget — go through [`covering::greedy_cover`] plus
/// `refine_passes` rounds of local search. Dichotomies the budgets left
/// uncovered each receive their own dedicated partition, so the result
/// always covers the whole list.
pub fn select_partitions_with(
    dichotomies: &[Dichotomy],
    options: &AssignmentOptions,
) -> Vec<Partition> {
    select_partitions_in(dichotomies, &[], options, &mut AssignScratch::default())
}

/// [`select_partitions_with`] with explicit adjacency `seeds` and reusable
/// `scratch` buffers — the batch entry point the synthesis `Workspace` calls.
pub fn select_partitions_in(
    dichotomies: &[Dichotomy],
    seeds: &[Dichotomy],
    options: &AssignmentOptions,
    scratch: &mut AssignScratch,
) -> Vec<Partition> {
    select_partitions_limited(dichotomies, seeds, options, scratch, EXACT_MAX_CANDIDATES)
}

/// Candidate pools up to this size get the exact minimum-cover search.
const EXACT_MAX_CANDIDATES: usize = 24;

/// [`select_partitions_in`] with the exact search's pool-size limit as a
/// parameter.
pub(crate) fn select_partitions_limited(
    dichotomies: &[Dichotomy],
    seeds: &[Dichotomy],
    options: &AssignmentOptions,
    scratch: &mut AssignScratch,
    exact_limit: usize,
) -> Vec<Partition> {
    if dichotomies.is_empty() {
        return Vec::new();
    }
    candidate_partitions_in(dichotomies, seeds, options, scratch);
    let num = dichotomies.len();
    let candidates = &scratch.candidates;
    let covers: Vec<&MintermSet> = candidates.iter().map(Partition::covers).collect();

    let exact = if candidates.len() <= exact_limit {
        exact_cover(&covers, num)
    } else {
        None
    };
    let chosen = exact.unwrap_or_else(|| {
        refine_cover(
            covering::greedy_cover(&covers, num),
            candidates,
            num,
            options.refine_passes,
        )
    });

    let mut selected: Vec<Partition> = chosen.iter().map(|&i| candidates[i].clone()).collect();

    // Guaranteed-coverage fallback: whatever the budgets cut, every dichotomy
    // ends up separated — in the worst case by a partition of its own.
    let mut covered = MintermSet::new(num as u64);
    for p in &selected {
        covered.union_with(&p.covers);
    }
    for (i, d) in dichotomies.iter().enumerate() {
        if !covered.contains(i as u64) {
            let p = Partition::new(d.clone(), dichotomies);
            covered.union_with(&p.covers);
            selected.push(p);
        }
    }
    selected
}

/// Exact minimum cover of the `num` dichotomies by the candidates' coverage
/// sets, or `None` if there is none or the search spends its node budget.
///
/// The pool goes to the solver largest coverage first (a stable sort), and
/// position `p` of `n ≤ 24` costs `2^n − 2^(n−1−p)`. The solver takes the
/// fewest candidates first; among covers of that size the cost falls as the
/// sum of `2^(n−1−p)` rises, so the cheapest is the one whose sorted
/// positions come first lexicographically — the cover a size-by-size search
/// over the sorted pool finds first. No two covers cost the same, so the
/// solver's tie order never applies. The selection comes back as candidate
/// indices in ascending position order.
fn exact_cover(covers: &[&MintermSet], num: usize) -> Option<Vec<usize>> {
    let mut order: Vec<usize> = (0..covers.len()).collect();
    order.sort_by_key(|&i| Reverse(covers[i].len()));
    let sorted: Vec<&MintermSet> = order.iter().map(|&i| covers[i]).collect();
    let n = sorted.len();
    let mut picked = covering::minimum_cover(&sorted, num, |p| (1 << n) - (1 << (n - 1 - p)))?;
    picked.sort_unstable();
    Some(picked.into_iter().map(|p| order[p]).collect())
}

/// Local-search refinement of a cover: drop partitions that no longer cover
/// anything uniquely, and replace pairs of partitions by a single candidate
/// that covers everything only they covered. Each successful replacement
/// shrinks the code by one variable; the loop runs until a pass changes
/// nothing or `passes` rounds have run.
fn refine_cover(
    mut selected: Vec<usize>,
    candidates: &[Partition],
    num: usize,
    passes: usize,
) -> Vec<usize> {
    for _ in 0..passes {
        let mut changed = false;

        // Drop to fixpoint: a partition every one of whose dichotomies is
        // also covered elsewhere is redundant.
        let mut counts = coverage_counts(&selected, candidates, num);
        let mut i = 0;
        while i < selected.len() {
            let covers = &candidates[selected[i]].covers;
            let unique = covers.iter().any(|d| counts[d as usize] == 1);
            if !unique && selected.len() > 1 {
                for d in covers.iter() {
                    counts[d as usize] -= 1;
                }
                selected.remove(i);
                changed = true;
            } else {
                i += 1;
            }
        }

        // Consolidate to fixpoint: if one unselected candidate covers
        // everything partitions i and j cover uniquely, it can replace both
        // (every replacement shrinks the code by one variable, so this loop
        // runs at most `selected.len()` times).
        'consolidate: loop {
            let counts = coverage_counts(&selected, candidates, num);
            for i in 0..selected.len() {
                for j in (i + 1)..selected.len() {
                    // Everything that loses its last cover when BOTH i and j
                    // go: dichotomies whose full coverage comes from the pair.
                    let ci = &candidates[selected[i]].covers;
                    let cj = &candidates[selected[j]].covers;
                    let mut need = MintermSet::new(num as u64);
                    for d in ci.iter().chain(cj.iter()) {
                        let pair_coverage =
                            usize::from(ci.contains(d)) + usize::from(cj.contains(d));
                        if counts[d as usize] as usize == pair_coverage {
                            need.insert(d);
                        }
                    }
                    let replacement = (0..candidates.len())
                        .find(|r| !selected.contains(r) && need.is_subset(&candidates[*r].covers));
                    if let Some(r) = replacement {
                        // Remove j first so index i stays valid.
                        selected.remove(j);
                        selected.remove(i);
                        selected.push(r);
                        changed = true;
                        continue 'consolidate;
                    }
                }
            }
            break;
        }

        if !changed {
            break;
        }
    }
    selected
}

/// How many selected partitions cover each dichotomy.
fn coverage_counts(selected: &[usize], candidates: &[Partition], num: usize) -> Vec<u32> {
    let mut counts = vec![0u32; num];
    for &s in selected {
        for d in candidates[s].covers.iter() {
            counts[d as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dichotomy::required_dichotomies;
    use fantom_flow::{benchmarks, StateId};
    use proptest::prelude::*;

    fn check_all_covered(dichotomies: &[Dichotomy], partitions: &[Partition]) {
        for (i, d) in dichotomies.iter().enumerate() {
            let covered = partitions.iter().any(|p| d.separated_by(p.ones()));
            assert!(covered, "dichotomy {i} ({d}) not covered");
        }
    }

    #[test]
    fn partitions_cover_all_dichotomies_for_every_benchmark() {
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let partitions = select_partitions(&dichotomies);
            check_all_covered(&dichotomies, &partitions);
        }
    }

    /// Selection with the exact search switched off.
    fn select_greedily(dichotomies: &[Dichotomy], options: &AssignmentOptions) -> Vec<Partition> {
        select_partitions_limited(dichotomies, &[], options, &mut AssignScratch::default(), 0)
    }

    #[test]
    fn every_budget_still_covers_everything() {
        let brutal = AssignmentOptions {
            max_candidate_partitions: 1,
            seed_orderings: 1,
            refine_passes: 0,
        };
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let partitions = select_greedily(&dichotomies, &brutal);
            check_all_covered(&dichotomies, &partitions);
        }
    }

    #[test]
    fn variable_count_is_at_least_ceil_log2_states() {
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let partitions = select_partitions(&dichotomies);
            let lower = (usize::BITS - (table.num_states() - 1).leading_zeros()) as usize;
            assert!(
                partitions.len() >= lower,
                "{}: {} variables cannot encode {} states",
                table.name(),
                partitions.len(),
                table.num_states()
            );
            // And it should never need more variables than states.
            assert!(partitions.len() <= table.num_states());
        }
    }

    #[test]
    fn refinement_never_grows_the_greedy_cover() {
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let no_refinement = AssignmentOptions {
                refine_passes: 0,
                ..AssignmentOptions::default()
            };
            let unrefined = select_greedily(&dichotomies, &no_refinement);
            let refined = select_greedily(&dichotomies, &AssignmentOptions::default());
            assert!(
                refined.len() <= unrefined.len(),
                "{}: refinement grew the cover {} -> {}",
                table.name(),
                unrefined.len(),
                refined.len()
            );
            check_all_covered(&dichotomies, &refined);
        }
    }

    #[test]
    fn empty_dichotomy_list_needs_no_partitions() {
        assert!(select_partitions(&[]).is_empty());
    }

    #[test]
    fn simple_two_state_case_needs_one_variable() {
        let d = vec![Dichotomy::new([StateId(0)], [StateId(1)])];
        let partitions = select_partitions(&d);
        assert_eq!(partitions.len(), 1);
    }

    #[test]
    fn seed_orders_are_distinct_and_stride_valid() {
        for num in [1usize, 2, 3, 4, 5, 8, 12, 13, 40, 97, 211] {
            let orders = seed_orders(num, 8);
            for (i, a) in orders.iter().enumerate() {
                for b in &orders[i + 1..] {
                    assert_ne!(a, b, "duplicate ordering for num={num}");
                }
                if let SeedOrder::Stride(st) = *a {
                    assert!(st >= 2 && st != num - 1, "degenerate stride {st}/{num}");
                    assert_eq!(gcd(st, num), 1, "stride {st} not coprime to {num}");
                }
            }
            assert_eq!(orders[0], SeedOrder::Forward);
            assert!(!orders.is_empty() && orders.len() <= 8);
        }
    }

    #[test]
    fn indexed_covers_match_separation_rescan() {
        // Release-mode version of the growth engine's debug assertion.
        let options = AssignmentOptions::default();
        let mut scratch = AssignScratch::default();
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            for p in grow_candidates(&dichotomies, &[], &options, &mut scratch) {
                for (i, d) in dichotomies.iter().enumerate() {
                    assert_eq!(
                        p.covers().contains(i as u64),
                        d.separated_by(p.ones()),
                        "{}: covers bit {i} wrong",
                        table.name()
                    );
                }
            }
        }
    }

    #[test]
    fn extra_orderings_extend_the_candidate_pool_prefix() {
        let table = benchmarks::train11();
        let dichotomies = required_dichotomies(&table);
        let two = AssignmentOptions {
            seed_orderings: 2,
            ..AssignmentOptions::default()
        };
        let six = AssignmentOptions {
            seed_orderings: 6,
            ..AssignmentOptions::default()
        };
        let mut scratch = AssignScratch::default();
        let first = grow_candidates(&dichotomies, &[], &two, &mut scratch).to_vec();
        let more = grow_candidates(&dichotomies, &[], &six, &mut scratch).to_vec();
        assert!(more.len() >= first.len());
        assert_eq!(
            &more[..first.len()],
            &first[..],
            "pool is not prefix-stable"
        );
    }

    /// Step 3's exact search before the shared solver, verbatim but for
    /// taking the pool's coverage sets: try sizes `1..` over the pool sorted
    /// largest coverage first and return the first cover found. `None` when
    /// the node budget is exhausted before an answer is certain.
    fn reference_exact_cover(
        covers: &[&MintermSet],
        num: usize,
        node_budget: u64,
        undo: &mut Vec<(u32, u64)>,
    ) -> Option<Vec<usize>> {
        // Big candidates first: covers are found earlier and the size bound
        // prunes harder.
        let mut order: Vec<usize> = (0..covers.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(covers[i].len()));
        let mut nodes = 0u64;
        for k in 1..=covers.len() {
            let mut uncovered = MintermSet::from_minterms(num as u64, 0..num as u64);
            let mut chosen = Vec::new();
            match exact_rec(
                covers,
                &order,
                k,
                0,
                &mut uncovered,
                &mut chosen,
                undo,
                &mut nodes,
                node_budget,
            ) {
                ExactOutcome::Found(sol) => return Some(sol),
                ExactOutcome::Exhausted => continue,
                ExactOutcome::OutOfBudget => return None,
            }
        }
        None
    }

    enum ExactOutcome {
        Found(Vec<usize>),
        Exhausted,
        OutOfBudget,
    }

    #[allow(clippy::too_many_arguments)]
    fn exact_rec(
        covers: &[&MintermSet],
        order: &[usize],
        k: usize,
        start: usize,
        uncovered: &mut MintermSet,
        chosen: &mut Vec<usize>,
        undo: &mut Vec<(u32, u64)>,
        nodes: &mut u64,
        node_budget: u64,
    ) -> ExactOutcome {
        *nodes += 1;
        if *nodes > node_budget {
            return ExactOutcome::OutOfBudget;
        }
        if uncovered.is_empty() {
            return ExactOutcome::Found(chosen.clone());
        }
        if chosen.len() == k {
            return ExactOutcome::Exhausted;
        }
        let picks_left = k - chosen.len();
        for pos in start..covers.len() {
            // Not enough candidates left to reach size k.
            if covers.len() - pos < picks_left {
                break;
            }
            let cand = order[pos];
            if covers[cand].intersection_count(uncovered) == 0 {
                continue;
            }
            // Mutate in place with a word-level undo record: the search explores
            // up to `node_budget` nodes, so per-node set clones would be pure
            // allocator traffic.
            let undo_mark = undo.len();
            uncovered.subtract_with_undo(covers[cand], undo);
            chosen.push(cand);
            let outcome = exact_rec(
                covers,
                order,
                k,
                pos + 1,
                uncovered,
                chosen,
                undo,
                nodes,
                node_budget,
            );
            match outcome {
                ExactOutcome::Exhausted => {}
                other => return other,
            }
            chosen.pop();
            uncovered.undo_subtract(&undo[undo_mark..]);
            undo.truncate(undo_mark);
        }
        ExactOutcome::Exhausted
    }

    /// The budget each preset gave the reference search.
    const DEFAULT_BUDGET: u64 = 5_000_000;
    const BOUNDED_BUDGET: u64 = 1_000_000;

    #[test]
    fn exact_cover_matches_the_size_by_size_reference_on_corpus_pools() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
        let mut tables = benchmarks::all();
        tables.extend(benchmarks::large_suite());
        tables.extend(benchmarks::import_kiss_dir(&dir).expect("grid files import"));
        let mut scratch = AssignScratch::default();
        let mut undo = Vec::new();
        let mut compared = 0;
        for (options, budget) in [
            (AssignmentOptions::default(), DEFAULT_BUDGET),
            (AssignmentOptions::bounded(), BOUNDED_BUDGET),
        ] {
            // Growth stops at the cap, so a pool that stays under it is the
            // preset's whole pool; only those reach the exact search.
            let capped = AssignmentOptions {
                max_candidate_partitions: EXACT_MAX_CANDIDATES + 1,
                ..options
            };
            for table in &tables {
                let dichotomies = required_dichotomies(table);
                let seeds = crate::adjacency_seeds(table);
                let pool = grow_candidates(&dichotomies, &seeds, &capped, &mut scratch);
                if pool.len() > EXACT_MAX_CANDIDATES {
                    continue;
                }
                let covers: Vec<&MintermSet> = pool.iter().map(Partition::covers).collect();
                let num = dichotomies.len();
                let expected = reference_exact_cover(&covers, num, budget, &mut undo);
                assert!(expected.is_some(), "{}: reference gave up", table.name());
                assert_eq!(exact_cover(&covers, num), expected, "{}", table.name());
                compared += 1;
            }
        }
        assert!(
            compared >= 10,
            "only {compared} corpus pools reach the exact search"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// Random pools of up to 16 candidates over up to 30 dichotomies, at
        /// three coverage densities (1/2, 1/4, 1/8). A `complete` pool hands
        /// every row no candidate covers to candidate `row mod len`; in the
        /// others such rows make both searches return `None`.
        #[test]
        fn exact_cover_matches_the_size_by_size_reference_on_random_pools(
            num in 1usize..=30,
            density in 0usize..3,
            complete in any::<bool>(),
            words in proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u32>()),
                0..=16,
            ),
        ) {
            let mut sets: Vec<MintermSet> = words
                .iter()
                .map(|&(a, b, c)| {
                    let bits = [a, a & b, a & b & c][density];
                    MintermSet::from_minterms(
                        num as u64,
                        (0..num as u64).filter(|&r| bits >> r & 1 == 1),
                    )
                })
                .collect();
            if complete && !sets.is_empty() {
                for r in 0..num {
                    if !sets.iter().any(|s| s.contains(r as u64)) {
                        let len = sets.len();
                        sets[r % len].insert(r as u64);
                    }
                }
            }
            let covers: Vec<&MintermSet> = sets.iter().collect();
            let expected = reference_exact_cover(&covers, num, DEFAULT_BUDGET, &mut Vec::new());
            prop_assert_eq!(exact_cover(&covers, num), expected);
        }
    }
}
