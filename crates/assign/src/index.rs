//! Inverted dichotomy index and growth scratch for indexed candidate growth.
//!
//! Candidate partitions are grown by absorbing compatible dichotomies into a
//! seed. The absorption-compatibility and coverage tests both reduce to
//! *state-membership* questions — "which dichotomies put state `s` in their
//! left (right) group?" — so one inverted index answers them for every seed
//! of every ordering: a [`DichotomyIndex`] keeps, per state, two **posting
//! bitsets** over dichotomy ids (the `CoverIndex` phase-bucket idiom of
//! `fantom_boolean::index`, with states playing the role of variables and
//! left/right the role of phases).
//!
//! * **Blocked sets.** A dichotomy is absorbable in the direct orientation
//!   iff its left group avoids the candidate's right side and vice versa, so
//!   when state `s` joins a side the ids newly blocked are exactly the
//!   posting bitsets of `s`. A [`GrowthScratch`] keeps the two blocked masks
//!   and the absorbed set: two word-array ORs per joining state replace the
//!   per-dichotomy disjointness probes, and the growth pass enumerates only
//!   ids still outside `blocked_direct ∩ blocked_flip`.
//! * **Coverage.** A dichotomy is separated by the candidate's 1-coded set
//!   `R` iff one group lies inside `R` and the other outside it. ORing the
//!   posting bitsets of the states inside and outside `R` answers that for
//!   every id at once ([`DichotomyIndex::covered_by`]). About half the
//!   growths rediscover a candidate already in the pool, so the query runs
//!   only once the pool's dedup has admitted a candidate.
//!
//! Both structures live in [`AssignScratch`](crate::AssignScratch) so batch
//! callers reuse the allocations across synthesis calls (the `Workspace`
//! carry-over of the service layer).

use fantom_boolean::MintermSet;

use crate::dichotomy::{Dichotomy, StateSet};

/// Inverted state → dichotomy-id index: for every state, the packed set of
/// dichotomy ids whose left (right) group contains the state. Built once per
/// assignment call and shared by every seed ordering (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct DichotomyIndex {
    /// Number of dichotomies indexed.
    num: usize,
    /// Per state: ids of dichotomies whose left group contains the state.
    left_ids: Vec<MintermSet>,
    /// Per state: ids of dichotomies whose right group contains the state.
    right_ids: Vec<MintermSet>,
}

impl DichotomyIndex {
    /// Build an index over `dichotomies` for a `num_states`-state machine.
    pub fn build(num_states: usize, dichotomies: &[Dichotomy]) -> Self {
        let mut index = DichotomyIndex::default();
        index.rebuild(num_states, dichotomies);
        index
    }

    /// Rebuild in place, reusing the posting-bitset allocations of the
    /// previous build where the id-space width still fits (the batch-service
    /// reuse path: a worker's scratch serves a stream of same-shaped
    /// machines).
    pub fn rebuild(&mut self, num_states: usize, dichotomies: &[Dichotomy]) {
        let num = dichotomies.len();
        self.num = num;
        let reset = |buckets: &mut Vec<MintermSet>| {
            for bucket in buckets.iter_mut() {
                if bucket.capacity() >= num as u64 {
                    bucket.clear();
                } else {
                    *bucket = MintermSet::new(num as u64);
                }
            }
            buckets.resize_with(num_states, || MintermSet::new(num as u64));
            buckets.truncate(num_states);
        };
        reset(&mut self.left_ids);
        reset(&mut self.right_ids);
        for (i, d) in dichotomies.iter().enumerate() {
            for s in d.left().iter() {
                self.left_ids[s as usize].insert(i as u64);
            }
            for s in d.right().iter() {
                self.right_ids[s as usize].insert(i as u64);
            }
        }
    }

    /// Number of dichotomies indexed.
    pub fn num_dichotomies(&self) -> usize {
        self.num
    }

    /// Ids whose left group contains `state`.
    pub fn left_ids(&self, state: u64) -> &MintermSet {
        &self.left_ids[state as usize]
    }

    /// Ids whose right group contains `state`.
    pub fn right_ids(&self, state: u64) -> &MintermSet {
        &self.right_ids[state as usize]
    }

    /// The ids separated by the partition whose 1-coded side is `ones` —
    /// [`Dichotomy::separated_by`] applied to every id at once. With `in_L` /
    /// `out_L` the union of [`left_ids`](Self::left_ids) over the states
    /// inside / outside `ones`, and `in_R` / `out_R` the same over
    /// [`right_ids`](Self::right_ids), the separated ids are
    /// `(¬out_L ∧ ¬in_R) ∨ (¬in_L ∧ ¬out_R) = ¬((out_L ∨ in_R) ∧ (in_L ∨ out_R))`,
    /// masked to the id count: two word-array ORs per state. The second
    /// union is a temporary, so it lives in `scratch`; only the returned set
    /// is allocated.
    pub fn covered_by(&self, ones: &StateSet, scratch: &mut GrowthScratch) -> MintermSet {
        let words = id_words(self.num);
        // `a` = out_L ∨ in_R, `b` = in_L ∨ out_R.
        let mut a = vec![0u64; words];
        let b = &mut scratch.coverage;
        b.clear();
        b.resize(words, 0);
        for (s, (l, r)) in self.left_ids.iter().zip(&self.right_ids).enumerate() {
            let (l, r) = (l.words(), r.words());
            let (to_a, to_b) = if ones.contains(s as u64) {
                (r, l)
            } else {
                (l, r)
            };
            or_into(&mut a, to_a);
            or_into(b, to_b);
        }
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x = !(*x & y);
        }
        if let Some(last) = a.last_mut().filter(|_| self.num % 64 != 0) {
            *last &= !0u64 >> (64 - self.num % 64);
        }
        MintermSet::from_words(a)
    }
}

/// Word count of the id space (the stride of every per-candidate bitset).
fn id_words(num: usize) -> usize {
    num.div_ceil(64)
}

/// `dst |= src` over the common prefix (a posting set's capacity may exceed
/// the id space).
///
/// The id sets are 5–7 words on the large suite, and the loop shape is
/// measured there (release, 2 vCPUs): a plain `zip` made candidate growth
/// 12–20% slower (least of 100 runs: chain40 2.7 → 3.2 ms, ring44 4.5 →
/// 5.1 ms, wide36 4.4 → 5.1 ms) and `assign_in` 13–21% slower, while four
/// words per step with a scalar remainder kept the speed of the unrolled
/// kernel it replaced. Cutting both slices to their common length, rather
/// than indexing one by the other's length, keeps the callers inlined.
#[inline]
fn or_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let mut dst = dst.chunks_exact_mut(4);
    let mut src = src.chunks_exact(4);
    for (d, s) in dst.by_ref().zip(src.by_ref()) {
        for (d, s) in d.iter_mut().zip(s) {
            *d |= s;
        }
    }
    for (d, s) in dst.into_remainder().iter_mut().zip(src.remainder()) {
        *d |= s;
    }
}

/// Per-candidate growth state, maintained incrementally as states join the
/// candidate's sides: the two blocked masks and the absorbed set (see the
/// [module docs](self)). Reused across seeds: a
/// [`reset`](GrowthScratch::reset) is three word-array memsets, not an
/// allocation.
#[derive(Debug, Default)]
pub struct GrowthScratch {
    /// Ids that conflict with the candidate in the direct orientation
    /// (left joins left): some left state sits in the candidate's right side
    /// or some right state in its left side.
    blocked_direct: Vec<u64>,
    /// Ids that conflict in the flipped orientation (left joins right).
    blocked_flip: Vec<u64>,
    /// Ids already absorbed into the candidate (skipped by the growth pass —
    /// re-absorbing is a no-op union).
    absorbed: Vec<u64>,
    /// The temporary union of [`DichotomyIndex::covered_by`].
    coverage: Vec<u64>,
}

impl GrowthScratch {
    /// Clear the scratch for a new candidate over `num` dichotomy ids.
    pub fn reset(&mut self, num: usize) {
        let words = id_words(num);
        self.blocked_direct.clear();
        self.blocked_direct.resize(words, 0);
        self.blocked_flip.clear();
        self.blocked_flip.resize(words, 0);
        self.absorbed.clear();
        self.absorbed.resize(words, 0);
    }

    /// Record that `state` joined the candidate's **left** (0-coded) side:
    /// dichotomies with `state` in their right group can no longer merge
    /// directly, dichotomies with `state` in their left group can no longer
    /// merge flipped.
    #[inline]
    pub fn add_left_state(&mut self, index: &DichotomyIndex, state: u64) {
        or_into(&mut self.blocked_direct, index.right_ids(state).words());
        or_into(&mut self.blocked_flip, index.left_ids(state).words());
    }

    /// Record that `state` joined the candidate's **right** (1-coded) side:
    /// the mirror image of [`add_left_state`](GrowthScratch::add_left_state).
    #[inline]
    pub fn add_right_state(&mut self, index: &DichotomyIndex, state: u64) {
        or_into(&mut self.blocked_direct, index.left_ids(state).words());
        or_into(&mut self.blocked_flip, index.right_ids(state).words());
    }

    /// Mark `id` as absorbed (skipped by later growth sweeps).
    #[inline]
    pub fn mark_absorbed(&mut self, id: usize) {
        self.absorbed[id / 64] |= 1 << (id % 64);
    }

    /// Whether `id` can be absorbed in the direct orientation.
    #[inline]
    pub fn direct_ok(&self, id: usize) -> bool {
        self.blocked_direct[id / 64] & (1 << (id % 64)) == 0
    }

    /// Whether `id` can be absorbed in the flipped orientation.
    #[inline]
    pub fn flip_ok(&self, id: usize) -> bool {
        self.blocked_flip[id / 64] & (1 << (id % 64)) == 0
    }

    /// Word `w` of the *enumerable* id set: not yet absorbed and absorbable
    /// in at least one orientation. Recomputed cheaply after every
    /// absorption, so a sweep never visits an id a previous absorption just
    /// blocked — matching the temporal semantics of the replaced scan, which
    /// re-tested each dichotomy at its turn.
    #[inline]
    pub fn allowed_word(&self, w: usize) -> u64 {
        !(self.blocked_direct[w] & self.blocked_flip[w]) & !self.absorbed[w]
    }

    /// Whether `id` is enumerable right now (the per-id variant of
    /// [`allowed_word`](GrowthScratch::allowed_word), used by stride sweeps).
    #[inline]
    pub fn allowed(&self, id: usize) -> bool {
        self.allowed_word(id / 64) & (1 << (id % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dichotomy::required_dichotomies;
    use fantom_flow::benchmarks;
    use proptest::prelude::*;

    #[test]
    fn index_posting_sets_match_group_membership() {
        for table in benchmarks::all() {
            let dichotomies = required_dichotomies(&table);
            let index = DichotomyIndex::build(table.num_states(), &dichotomies);
            assert_eq!(index.num_dichotomies(), dichotomies.len());
            for s in 0..table.num_states() as u64 {
                for (i, d) in dichotomies.iter().enumerate() {
                    assert_eq!(index.left_ids(s).contains(i as u64), d.left().contains(s));
                    assert_eq!(index.right_ids(s).contains(i as u64), d.right().contains(s));
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_and_matches_fresh_build() {
        let tables = [benchmarks::lion(), benchmarks::train11()];
        let mut index = DichotomyIndex::default();
        for table in &tables {
            let dichotomies = required_dichotomies(table);
            index.rebuild(table.num_states(), &dichotomies);
            let fresh = DichotomyIndex::build(table.num_states(), &dichotomies);
            assert_eq!(index.num, fresh.num);
            for s in 0..table.num_states() as u64 {
                assert!(index.left_ids(s).same_contents(fresh.left_ids(s)));
                assert!(index.right_ids(s).same_contents(fresh.right_ids(s)));
            }
        }
    }

    #[test]
    fn blocked_and_cover_state_matches_definitions() {
        // Grow a candidate by hand and cross-check the blocked masks against
        // `try_absorb` on every step, and the coverage query against
        // `separated_by` on every intermediate 1-side.
        let table = benchmarks::train11();
        let dichotomies = required_dichotomies(&table);
        let n = dichotomies.len();
        let index = DichotomyIndex::build(table.num_states(), &dichotomies);
        let mut scratch = GrowthScratch::default();
        scratch.reset(n);
        let assert_covers = |ones: &StateSet| {
            let covered = index.covered_by(ones, &mut GrowthScratch::default());
            assert_eq!(covered.capacity(), MintermSet::new(n as u64).capacity());
            for (i, d) in dichotomies.iter().enumerate() {
                assert_eq!(
                    covered.contains(i as u64),
                    d.separated_by(ones),
                    "covered bit of dichotomy {i} diverges from separated_by"
                );
            }
        };

        let mut merged = dichotomies[0].clone();
        for s in merged.left().iter() {
            scratch.add_left_state(&index, s);
        }
        for s in merged.right().iter() {
            scratch.add_right_state(&index, s);
        }
        scratch.mark_absorbed(0);
        for (j, d) in dichotomies.iter().enumerate().take(n).skip(1) {
            let (direct, flip) = (scratch.direct_ok(j), scratch.flip_ok(j));
            assert_eq!(direct || flip, merged.clone().try_absorb(d));
            if !scratch.allowed(j) {
                continue;
            }
            let (dl, dr) = if direct {
                (d.left().clone(), d.right().clone())
            } else {
                (d.right().clone(), d.left().clone())
            };
            for s in dl.iter() {
                if !merged.left().contains(s) {
                    scratch.add_left_state(&index, s);
                }
            }
            for s in dr.iter() {
                if !merged.right().contains(s) {
                    scratch.add_right_state(&index, s);
                }
            }
            scratch.mark_absorbed(j);
            assert!(merged.try_absorb(d));
            assert_covers(merged.right());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The coverage query is `separated_by` on every id, for any 1-side
        /// — not only the grown ones — over id counts that do and do not
        /// fill their last word.
        #[test]
        fn coverage_query_matches_separated_by_on_random_sides(
            machine in 0usize..11,
            bits in any::<u64>(),
        ) {
            let mut tables = benchmarks::all();
            tables.extend(benchmarks::large_suite());
            let table = &tables[machine];
            let dichotomies = required_dichotomies(table);
            let index = DichotomyIndex::build(table.num_states(), &dichotomies);
            let mut rng = bits;
            let ones = StateSet::from_minterms(
                table.num_states() as u64,
                (0..table.num_states() as u64).filter(|_| {
                    rng = rng.rotate_left(7) ^ rng.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    rng & 1 == 1
                }),
            );
            let covered = index.covered_by(&ones, &mut GrowthScratch::default());
            for (i, d) in dichotomies.iter().enumerate() {
                prop_assert_eq!(covered.contains(i as u64), d.separated_by(&ones), "id {}", i);
            }
            prop_assert_eq!(
                covered.len(),
                dichotomies.iter().filter(|d| d.separated_by(&ones)).count()
            );
        }
    }
}
