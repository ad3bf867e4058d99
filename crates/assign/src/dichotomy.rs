//! Dichotomy generation for Tracey's USTT assignment.
//!
//! A dichotomy is two disjoint groups of states that some state variable must
//! separate. This module stores each group as a packed bitset
//! ([`StateSet`], one bit per state), so the hot operations of the
//! assignment engine — merge-compatibility, separation, subsumption — are
//! word-parallel AND/OR tests instead of ordered-set walks.

use std::fmt;
use std::hash::{Hash, Hasher};

use fantom_boolean::MintermSet;
use fantom_flow::{FlowTable, StateId};

/// Packed set of states (one bit per state index). An alias of the dense
/// bitset the Boolean substrate already provides for minterm sets.
pub type StateSet = MintermSet;

/// Build a [`StateSet`] over `num_states` states from an id iterator.
pub fn state_set(num_states: usize, states: impl IntoIterator<Item = StateId>) -> StateSet {
    StateSet::from_minterms(num_states as u64, states.into_iter().map(|s| s.0 as u64))
}

/// A dichotomy: two disjoint groups of states that some state variable must
/// separate (all of the left group on one side of the partition, all of the
/// right group on the other).
#[derive(Debug, Clone)]
pub struct Dichotomy {
    left: StateSet,
    right: StateSet,
}

impl PartialEq for Dichotomy {
    fn eq(&self, other: &Self) -> bool {
        self.left.same_contents(&other.left) && self.right.same_contents(&other.right)
    }
}

impl Eq for Dichotomy {}

impl Hash for Dichotomy {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.left.hash_contents(state);
        self.right.hash_contents(state);
    }
}

impl Dichotomy {
    /// Create a dichotomy from two groups, normalising the orientation so that
    /// the group containing the smallest state id comes first.
    ///
    /// # Panics
    ///
    /// Panics if the groups overlap or either group is empty.
    pub fn new(a: impl IntoIterator<Item = StateId>, b: impl IntoIterator<Item = StateId>) -> Self {
        let a: Vec<StateId> = a.into_iter().collect();
        let b: Vec<StateId> = b.into_iter().collect();
        let cap = a
            .iter()
            .chain(&b)
            .map(|s| s.0 + 1)
            .max()
            .expect("dichotomy groups must be non-empty");
        Self::from_sets(state_set(cap, a), state_set(cap, b))
    }

    /// Create a dichotomy from two packed groups, normalising the orientation.
    ///
    /// # Panics
    ///
    /// Panics if the groups overlap or either group is empty.
    pub fn from_sets(a: StateSet, b: StateSet) -> Self {
        assert!(
            !a.is_empty() && !b.is_empty(),
            "dichotomy groups must be non-empty"
        );
        assert!(a.is_disjoint(&b), "dichotomy groups must be disjoint");
        let min_a = a.first().expect("non-empty");
        let min_b = b.first().expect("non-empty");
        if min_a <= min_b {
            Dichotomy { left: a, right: b }
        } else {
            Dichotomy { left: b, right: a }
        }
    }

    /// Create a dichotomy from two packed groups **without** orientation
    /// normalisation. The candidate-growth engine absorbs dichotomies into a
    /// seed whose orientation must stay fixed (its `right()` side is the
    /// partition's 1-coded set), so rebuilding a grown candidate must not
    /// flip the sides the way [`Dichotomy::from_sets`] would.
    pub(crate) fn from_oriented_sets(left: StateSet, right: StateSet) -> Self {
        debug_assert!(!left.is_empty() && !right.is_empty());
        debug_assert!(left.is_disjoint(&right));
        Dichotomy { left, right }
    }

    /// The group on the 0 side of the partition.
    pub fn left(&self) -> &StateSet {
        &self.left
    }

    /// The group on the 1 side of the partition.
    pub fn right(&self) -> &StateSet {
        &self.right
    }

    /// Iterate over the left group as state ids.
    pub fn left_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.left.iter().map(|s| StateId(s as usize))
    }

    /// Iterate over the right group as state ids.
    pub fn right_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.right.iter().map(|s| StateId(s as usize))
    }

    /// Whether this dichotomy constrains the pair `{a, b}` onto opposite
    /// sides.
    pub fn separates_pair(&self, a: StateId, b: StateId) -> bool {
        (self.left.contains(a.0 as u64) && self.right.contains(b.0 as u64))
            || (self.left.contains(b.0 as u64) && self.right.contains(a.0 as u64))
    }

    /// Try to merge two dichotomies into one that covers both, considering
    /// both orientations of `other`. Returns `None` if every orientation
    /// conflicts (some state would need to be on both sides).
    pub fn merge(&self, other: &Dichotomy) -> Option<Dichotomy> {
        let mut out = self.clone();
        out.try_absorb(other).then_some(out)
    }

    /// In-place [`Dichotomy::merge`]: absorb `other` if some orientation is
    /// conflict-free, preferring the direct orientation. Returns whether the
    /// merge happened.
    pub fn try_absorb(&mut self, other: &Dichotomy) -> bool {
        // Direct orientation: left grows by other.left, right by other.right.
        // Disjointness of the result needs only the two cross intersections
        // to be empty (each dichotomy is internally disjoint already).
        if self.left.is_disjoint(&other.right) && self.right.is_disjoint(&other.left) {
            self.left.union_with(&other.left);
            self.right.union_with(&other.right);
            return true;
        }
        // Flipped orientation: other's right joins our left and vice versa.
        if self.left.is_disjoint(&other.left) && self.right.is_disjoint(&other.right) {
            self.left.union_with(&other.right);
            self.right.union_with(&other.left);
            return true;
        }
        false
    }

    /// Whether a 0/1 partition of the states (given as the set of states coded
    /// 1) separates this dichotomy.
    pub fn separated_by(&self, ones: &StateSet) -> bool {
        (self.left.is_subset(ones) && self.right.is_disjoint(ones))
            || (self.left.is_disjoint(ones) && self.right.is_subset(ones))
    }

    /// Whether this dichotomy is implied by `big`: separating `big` also
    /// separates `self` (subset-wise, in either orientation).
    pub fn subsumed_by(&self, big: &Dichotomy) -> bool {
        (self.left.is_subset(&big.left) && self.right.is_subset(&big.right))
            || (self.left.is_subset(&big.right) && self.right.is_subset(&big.left))
    }
}

impl fmt::Display for Dichotomy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_group = |g: &StateSet| {
            g.iter()
                .map(|s| StateId(s as usize).to_string())
                .collect::<Vec<_>>()
                .join("")
        };
        write!(f, "({}; {})", fmt_group(&self.left), fmt_group(&self.right))
    }
}

/// A dichotomy as two groups of at most two states, each written `[lo, hi]`
/// (a one-state group is its state written twice), oriented like
/// [`Dichotomy::from_sets`]: the group holding the smallest state first.
type DichotomyKey = [[u32; 2]; 2];

/// Generate every dichotomy a USTT assignment of `table` must satisfy:
///
/// * for each input column, every pair of disjoint transition groups
///   (`{source, destination}` sets) forms a dichotomy — this is Tracey's
///   race-freedom condition;
/// * every pair of distinct states forms a dichotomy — this forces unique
///   codes (the "unicode" part of USTT).
///
/// Every group holds one or two states, so duplicates are removed and
/// dichotomies implied by (contained in) another generated dichotomy are
/// filtered out on fixed-size `[lo, hi]` keys, in one pass over them; only
/// the irredundant requirement list — in first-occurrence order — becomes
/// packed bitsets.
pub fn required_dichotomies(table: &FlowTable) -> Vec<Dichotomy> {
    let n = table.num_states();
    let mut seen: fantom_boolean::collections::HashSet<DichotomyKey> = Default::default();
    let mut all: Vec<DichotomyKey> = Vec::new();
    let mut push = |a: [u32; 2], b: [u32; 2]| {
        let key = if a[0] < b[0] { [a, b] } else { [b, a] };
        if seen.insert(key) {
            all.push(key);
        }
    };

    let mut groups: Vec<[u32; 2]> = Vec::new();
    for c in 0..table.num_columns() {
        // Transition groups {source, destination} of the column, in order of
        // first appearance.
        groups.clear();
        for s in table.states() {
            if let Some(t) = table.next_state(s, c) {
                let group = [s.0.min(t.0) as u32, s.0.max(t.0) as u32];
                if !groups.contains(&group) {
                    groups.push(group);
                }
            }
        }
        for (i, &g1) in groups.iter().enumerate() {
            for &g2 in &groups[i + 1..] {
                if !g1.iter().any(|s| g2.contains(s)) {
                    push(g1, g2);
                }
            }
        }
    }

    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            push([a, a], [b, b]);
        }
    }

    // Drop dichotomies strictly subsumed by a larger one: separating the
    // larger dichotomy separates them for free. Keys are unique and every
    // group holds one or two states, so a two-by-two key is never strictly
    // subsumed, `{a}|{b,c}` only by some `{a,z}|{b,c}`, and `{a}|{b}` by any
    // key with a two-state group and `a` and `b` on opposite sides. One pass
    // marks what the larger keys separate; the filter keeps the keys that
    // nothing marked, in order.
    let two = |[lo, hi]: [u32; 2]| lo != hi;
    let pair = |a: u32, b: u32| a.min(b) as usize * n + a.max(b) as usize;
    let mut split_pairs = vec![false; n * n];
    let mut split_groups: fantom_boolean::collections::HashSet<(u32, [u32; 2])> =
        Default::default();
    for &[l, r] in &all {
        if two(l) || two(r) {
            for a in l {
                for b in r {
                    split_pairs[pair(a, b)] = true;
                }
            }
        }
        if two(l) && two(r) {
            split_groups.extend(l.iter().map(|&a| (a, r)));
            split_groups.extend(r.iter().map(|&b| (b, l)));
        }
    }
    let group_set = |[lo, hi]: [u32; 2]| state_set(n, [StateId(lo as usize), StateId(hi as usize)]);
    all.iter()
        .filter(|&&[l, r]| match (two(l), two(r)) {
            (true, true) => true,
            (false, false) => !split_pairs[pair(l[0], r[0])],
            (false, true) => !split_groups.contains(&(l[0], r)),
            (true, false) => !split_groups.contains(&(r[0], l)),
        })
        .map(|&[a, b]| Dichotomy::from_oriented_sets(group_set(a), group_set(b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_flow::benchmarks;
    use fantom_flow::generate::{generate, GeneratorOptions};
    use proptest::prelude::*;

    /// `required_dichotomies` before fixed-size keys, verbatim: every raw
    /// dichotomy is built and deduplicated as packed bitsets. Growth visits
    /// the dichotomies by id, so this pins their *order*, not just the set.
    fn reference_required_dichotomies(table: &FlowTable) -> Vec<Dichotomy> {
        let n = table.num_states();
        let mut seen: fantom_boolean::collections::HashSet<Dichotomy> = Default::default();
        let mut all: Vec<Dichotomy> = Vec::new();
        let mut push = |d: Dichotomy, all: &mut Vec<Dichotomy>| {
            if seen.insert(d.clone()) {
                all.push(d);
            }
        };

        for c in 0..table.num_columns() {
            // Transition groups {source, destination} of the column, deduplicated
            // by their (sorted) endpoint pair.
            let mut group_keys: fantom_boolean::collections::HashSet<(usize, usize)> =
                Default::default();
            let mut groups: Vec<StateSet> = Vec::new();
            for s in table.states() {
                if let Some(t) = table.next_state(s, c) {
                    let key = (s.0.min(t.0), s.0.max(t.0));
                    if group_keys.insert(key) {
                        groups.push(state_set(n, [s, t]));
                    }
                }
            }
            for (i, g1) in groups.iter().enumerate() {
                for g2 in &groups[i + 1..] {
                    if g1.is_disjoint(g2) {
                        push(Dichotomy::from_sets(g1.clone(), g2.clone()), &mut all);
                    }
                }
            }
        }

        for a in table.states() {
            for b in table.states() {
                if a < b {
                    push(
                        Dichotomy::from_sets(state_set(n, [a]), state_set(n, [b])),
                        &mut all,
                    );
                }
            }
        }

        // Drop dichotomies strictly subsumed by a larger one: separating the
        // larger dichotomy separates them for free. A subsumer must contain
        // every support state of the subsumee, so the candidates for each
        // dichotomy are exactly the entries of its shortest support-state
        // posting list — an inverted index that replaces the all-pairs
        // subsumption scan (quadratic in the raw dichotomy count, the dominant
        // cost of generation on 40-state tables) with a near-linear pass.
        let mut by_state: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, d) in all.iter().enumerate() {
            for s in d.left().iter().chain(d.right().iter()) {
                by_state[s as usize].push(i as u32);
            }
        }
        all.iter()
            .enumerate()
            .filter(|(i, d)| {
                let shortest = d
                    .left()
                    .iter()
                    .chain(d.right().iter())
                    .map(|s| &by_state[s as usize])
                    .min_by_key(|list| list.len())
                    .expect("dichotomy groups are non-empty");
                !shortest.iter().any(|&j| {
                    let other = &all[j as usize];
                    j as usize != *i && d.subsumed_by(other) && !other.subsumed_by(d)
                })
            })
            .map(|(_, d)| d.clone())
            .collect()
    }

    fn assert_matches_reference(table: &FlowTable) {
        let generated = required_dichotomies(table);
        let reference = reference_required_dichotomies(table);
        assert_eq!(generated.len(), reference.len(), "{}: count", table.name());
        for (i, (g, r)) in generated.iter().zip(&reference).enumerate() {
            assert_eq!(g, r, "{}: dichotomy {i}", table.name());
            assert_eq!(g.left().capacity(), r.left().capacity());
            assert_eq!(g.right().capacity(), r.right().capacity());
        }
    }

    #[test]
    fn generation_matches_the_bitset_reference_in_order_on_the_corpus() {
        let dir = |relative: &str| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
        let mut tables = benchmarks::all();
        tables.extend(benchmarks::large_suite());
        for relative in ["../../benchmarks", "../../tests/fuzz_regressions"] {
            tables.extend(benchmarks::import_kiss_dir(&dir(relative)).expect("corpus imports"));
        }
        assert_eq!(tables.len(), 32);
        for table in &tables {
            assert_matches_reference(table);
        }
    }

    #[test]
    fn generation_matches_the_bitset_reference_in_order_on_generated_machines() {
        for (states, inputs, dc_density) in [(40, 2, 0.25), (60, 2, 0.25), (40, 4, 0.5)] {
            assert_matches_reference(&generate(&GeneratorOptions {
                states,
                inputs,
                dc_density,
                ..GeneratorOptions::default()
            }));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generation_matches_the_bitset_reference_in_order_on_random_shapes(
            seed in any::<u64>(),
            states in 2usize..32,
            inputs in 2usize..5,
            dc_pct in 0u32..95,
            fan_in in 1usize..4,
            chain_depth in 1usize..4,
            mic_stable_columns in 0usize..3,
            redundant_clusters in 0usize..3,
        ) {
            assert_matches_reference(&generate(&GeneratorOptions {
                seed,
                states,
                inputs,
                dc_density: f64::from(dc_pct) / 100.0,
                fan_in,
                chain_depth,
                mic_stable_columns,
                redundant_clusters,
                ..GeneratorOptions::default()
            }));
        }
    }

    #[test]
    fn new_normalises_orientation_and_checks_disjointness() {
        let d1 = Dichotomy::new([StateId(2)], [StateId(0)]);
        assert!(d1.left().contains(0));
        let d2 = Dichotomy::new([StateId(0)], [StateId(2)]);
        assert_eq!(d1, d2);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_groups_panic() {
        let _ = Dichotomy::new([StateId(0), StateId(1)], [StateId(1)]);
    }

    #[test]
    fn merge_respects_conflicts() {
        let a = Dichotomy::new([StateId(0)], [StateId(1)]);
        let b = Dichotomy::new([StateId(0)], [StateId(2)]);
        let merged = a.merge(&b).expect("mergeable");
        assert_eq!(merged.left_states().collect::<Vec<_>>(), vec![StateId(0)]);
        assert_eq!(
            merged.right_states().collect::<Vec<_>>(),
            vec![StateId(1), StateId(2)]
        );

        // 0|1 and 1|0 merge by swapping orientation into the same dichotomy.
        let c = Dichotomy::new([StateId(1)], [StateId(0)]);
        assert!(a.merge(&c).is_some());

        // (01;23) cannot merge with (02;13): every orientation conflicts.
        let d = Dichotomy::new([StateId(0), StateId(1)], [StateId(2), StateId(3)]);
        let e = Dichotomy::new([StateId(0), StateId(2)], [StateId(1), StateId(3)]);
        assert!(d.merge(&e).is_none());
    }

    #[test]
    fn absorb_matches_merge() {
        let a = Dichotomy::new([StateId(0)], [StateId(1)]);
        let b = Dichotomy::new([StateId(2)], [StateId(3)]);
        let mut inplace = a.clone();
        assert!(inplace.try_absorb(&b));
        assert_eq!(Some(inplace), a.merge(&b));
    }

    #[test]
    fn separated_by_checks_both_orientations() {
        let d = Dichotomy::new([StateId(0), StateId(1)], [StateId(2)]);
        assert!(d.separated_by(&state_set(3, [StateId(2)])));
        assert!(d.separated_by(&state_set(3, [StateId(0), StateId(1)])));
        assert!(!d.separated_by(&state_set(3, [StateId(1)])));
        // A partition assigning a free state to the 1 side still separates.
        let free = Dichotomy::new([StateId(0)], [StateId(2)]);
        assert!(free.separated_by(&state_set(3, [StateId(1), StateId(2)])));
    }

    #[test]
    fn subsumption_is_subset_wise() {
        let small = Dichotomy::new([StateId(0)], [StateId(2)]);
        let big = Dichotomy::new([StateId(0), StateId(1)], [StateId(2), StateId(3)]);
        let flipped = Dichotomy::new([StateId(2), StateId(3)], [StateId(0), StateId(1)]);
        assert!(small.subsumed_by(&big));
        assert!(small.subsumed_by(&flipped));
        assert!(!big.subsumed_by(&small));
    }

    #[test]
    fn pairwise_dichotomies_always_present_unless_subsumed() {
        let table = benchmarks::lion();
        let dichotomies = required_dichotomies(&table);
        // Every pair of states must be separated by at least one dichotomy
        // (possibly a larger, subsuming one).
        for a in table.states() {
            for b in table.states() {
                if a >= b {
                    continue;
                }
                let found = dichotomies.iter().any(|d| d.separates_pair(a, b));
                assert!(found, "no dichotomy separates {a} and {b}");
            }
        }
    }

    #[test]
    fn transition_pair_dichotomies_generated() {
        // In lion, under column 00, both L0 and L2 are stable: groups {L0} and
        // {L2}, plus transitions from L1 and L3 into L0: group {L1, L0} and
        // {L3, L0}. Disjoint pairs like ({L1,L0}; {L2}) must appear (or be
        // subsumed by something larger).
        let table = benchmarks::lion();
        let l0 = table.state_by_name("L0").unwrap();
        let l1 = table.state_by_name("L1").unwrap();
        let l2 = table.state_by_name("L2").unwrap();
        let dichotomies = required_dichotomies(&table);
        let contains = |set: &StateSet, s: StateId| set.contains(s.0 as u64);
        let found = dichotomies.iter().any(|d| {
            (contains(d.left(), l0) && contains(d.left(), l1) && contains(d.right(), l2))
                || (contains(d.right(), l0) && contains(d.right(), l1) && contains(d.left(), l2))
        });
        assert!(found, "transition-pair dichotomy missing");
    }

    #[test]
    fn all_benchmarks_produce_dichotomies() {
        for table in benchmarks::all() {
            let d = required_dichotomies(&table);
            assert!(!d.is_empty(), "{} produced no dichotomies", table.name());
        }
    }
}
