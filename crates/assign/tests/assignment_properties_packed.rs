//! Differential property tests for the packed dichotomy engine: every
//! word-parallel operation (merge, separation, generation incl. subsumption)
//! is pinned against a `BTreeSet` reference oracle — a reimplementation of
//! the pre-packed engine's semantics — on randomly generated normal-mode
//! flow tables, and the budgeted covering/refinement/fallback paths are
//! checked for their validity guarantees.

use std::collections::BTreeSet;

use fantom_assign::{
    assign_with_options, required_dichotomies, select_partitions_with, state_set,
    AssignmentOptions, Dichotomy,
};
use fantom_flow::{Bits, FlowTable, StateId};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference oracle: the ordered-set dichotomy semantics the packed engine
// replaced, kept verbatim simple (no word tricks, no dedup shortcuts).

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RefDichotomy {
    left: BTreeSet<usize>,
    right: BTreeSet<usize>,
}

impl RefDichotomy {
    fn new(a: impl IntoIterator<Item = usize>, b: impl IntoIterator<Item = usize>) -> Self {
        let a: BTreeSet<usize> = a.into_iter().collect();
        let b: BTreeSet<usize> = b.into_iter().collect();
        assert!(!a.is_empty() && !b.is_empty() && a.is_disjoint(&b));
        if a.iter().next() <= b.iter().next() {
            RefDichotomy { left: a, right: b }
        } else {
            RefDichotomy { left: b, right: a }
        }
    }

    fn merge(&self, other: &RefDichotomy) -> Option<RefDichotomy> {
        let oriented = |al: &BTreeSet<usize>,
                        ar: &BTreeSet<usize>,
                        bl: &BTreeSet<usize>,
                        br: &BTreeSet<usize>| {
            let left: BTreeSet<usize> = al.union(bl).copied().collect();
            let right: BTreeSet<usize> = ar.union(br).copied().collect();
            left.is_disjoint(&right)
                .then_some(RefDichotomy { left, right })
        };
        oriented(&self.left, &self.right, &other.left, &other.right)
            .or_else(|| oriented(&self.left, &self.right, &other.right, &other.left))
    }

    fn separated_by(&self, ones: &BTreeSet<usize>) -> bool {
        let all_in = |g: &BTreeSet<usize>| g.iter().all(|s| ones.contains(s));
        let all_out = |g: &BTreeSet<usize>| g.iter().all(|s| !ones.contains(s));
        (all_in(&self.left) && all_out(&self.right)) || (all_out(&self.left) && all_in(&self.right))
    }

    fn subsumed_by(&self, big: &RefDichotomy) -> bool {
        (self.left.is_subset(&big.left) && self.right.is_subset(&big.right))
            || (self.left.is_subset(&big.right) && self.right.is_subset(&big.left))
    }
}

/// The pre-packed `required_dichotomies`: transition-group pairs per column
/// plus all state pairs, strict-subsumption filtered.
fn oracle_required_dichotomies(table: &FlowTable) -> BTreeSet<RefDichotomy> {
    let mut set: BTreeSet<RefDichotomy> = BTreeSet::new();
    for c in 0..table.num_columns() {
        let groups: BTreeSet<BTreeSet<usize>> = table
            .states()
            .filter_map(|s| {
                table
                    .next_state(s, c)
                    .map(|t| [s.0, t.0].into_iter().collect())
            })
            .collect();
        let groups: Vec<BTreeSet<usize>> = groups.into_iter().collect();
        for (i, g1) in groups.iter().enumerate() {
            for g2 in &groups[i + 1..] {
                if g1.is_disjoint(g2) {
                    set.insert(RefDichotomy::new(g1.iter().copied(), g2.iter().copied()));
                }
            }
        }
    }
    for a in table.states() {
        for b in table.states() {
            if a < b {
                set.insert(RefDichotomy::new([a.0], [b.0]));
            }
        }
    }
    let all: Vec<RefDichotomy> = set.into_iter().collect();
    all.iter()
        .filter(|d| {
            !all.iter()
                .any(|o| *d != o && d.subsumed_by(o) && !o.subsumed_by(d))
        })
        .cloned()
        .collect()
}

fn to_ref(d: &Dichotomy) -> RefDichotomy {
    RefDichotomy {
        left: d.left_states().map(|s| s.0).collect(),
        right: d.right_states().map(|s| s.0).collect(),
    }
}

// ---------------------------------------------------------------------------
// Random normal-mode flow tables (same construction as the benchmark corpus:
// stable column per state, remaining columns wired to stable destinations).

fn arb_flow_table() -> impl Strategy<Value = FlowTable> {
    let num_states = 3usize..7;
    num_states
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0usize..4, n),
                proptest::collection::vec(0usize..n, n * 4),
                proptest::collection::vec(0u8..3, n * 4),
                proptest::collection::vec(any::<bool>(), n),
            )
        })
        .prop_map(|(n, stable_cols, dests, specify, outputs)| {
            build_table(n, &stable_cols, &dests, &specify, &outputs)
        })
        .prop_filter("table must be acceptable to SEANCE", |t| {
            fantom_flow::validate::validate(t).is_acceptable()
        })
}

fn build_table(
    n: usize,
    stable_cols: &[usize],
    dests: &[usize],
    specify: &[u8],
    outputs: &[bool],
) -> FlowTable {
    let names: Vec<String> = (0..n).map(|i| format!("R{i}")).collect();
    let mut table = FlowTable::new("random", 2, 1, names).expect("non-empty table");
    for s in 0..n {
        let out = Bits::from_bools(vec![outputs[s]]);
        table
            .set_entry(
                StateId(s),
                stable_cols[s],
                Some(StateId(s)),
                Some(out.clone()),
            )
            .expect("valid entry");
        for c in 0..4 {
            if c == stable_cols[s] {
                continue;
            }
            let idx = s * 4 + c;
            if specify[idx] == 2 {
                continue;
            }
            let candidate = (0..n)
                .map(|k| (dests[idx] + k) % n)
                .find(|&d| stable_cols[d] == c);
            if let Some(d) = candidate {
                table
                    .set_entry(StateId(s), c, Some(StateId(d)), Some(out.clone()))
                    .expect("valid entry");
            }
        }
    }
    table
}

fn starved_options() -> AssignmentOptions {
    AssignmentOptions {
        max_candidate_partitions: 1,
        seed_orderings: 1,
        refine_passes: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed dichotomy generation agrees with the ordered-set oracle: same
    /// set of (left, right) group pairs after dedup and subsumption.
    #[test]
    fn generation_matches_oracle(table in arb_flow_table()) {
        let packed: BTreeSet<RefDichotomy> =
            required_dichotomies(&table).iter().map(to_ref).collect();
        let oracle = oracle_required_dichotomies(&table);
        prop_assert_eq!(packed, oracle);
    }

    /// Word-parallel merge agrees with the oracle on every pair of generated
    /// dichotomies (including the None cases).
    #[test]
    fn merge_matches_oracle(table in arb_flow_table()) {
        let dichotomies = required_dichotomies(&table);
        for a in &dichotomies {
            for b in &dichotomies {
                let packed = a.merge(b).map(|m| to_ref(&m));
                let oracle = to_ref(a).merge(&to_ref(b));
                prop_assert_eq!(packed, oracle, "merging {} with {}", a, b);
            }
        }
    }

    /// Word-parallel separation agrees with the oracle on pseudo-random
    /// candidate partitions.
    #[test]
    fn separation_matches_oracle(table in arb_flow_table(), seed in any::<u64>()) {
        let n = table.num_states();
        let ones_ids: Vec<usize> = (0..n).filter(|s| (seed >> s) & 1 == 1).collect();
        let packed_ones = state_set(n, ones_ids.iter().map(|&s| StateId(s)));
        let oracle_ones: BTreeSet<usize> = ones_ids.into_iter().collect();
        for d in required_dichotomies(&table) {
            prop_assert_eq!(
                d.separated_by(&packed_ones),
                to_ref(&d).separated_by(&oracle_ones),
                "separation of {} by {:?}", d, oracle_ones
            );
        }
    }

    /// The refined cover still covers every required dichotomy, on every
    /// budget tier.
    #[test]
    fn refined_cover_still_covers_everything(table in arb_flow_table()) {
        let dichotomies = required_dichotomies(&table);
        for options in [
            AssignmentOptions::default(),
            AssignmentOptions::bounded(),
        ] {
            let partitions = select_partitions_with(&dichotomies, &options);
            for d in &dichotomies {
                prop_assert!(
                    partitions.iter().any(|p| d.separated_by(p.ones())),
                    "dichotomy {} not covered", d
                );
            }
        }
    }

    /// Fallback codes always verify: even with every budget starved the
    /// assignment is race-free with pairwise-distinct codes.
    #[test]
    fn fallback_codes_always_verify(table in arb_flow_table()) {
        let assignment = assign_with_options(&table, &starved_options());
        prop_assert!(assignment.verify(&table).is_ok());
    }
}

/// The packed engine never spends more state variables on the benchmark
/// corpus than the ordered-set engine it replaced (widths recorded from the
/// pre-packed implementation at the PR 3 tree).
#[test]
fn small_corpus_code_widths_never_regress() {
    let old_widths = [
        ("test_example", 2),
        ("traffic", 2),
        ("lion", 2),
        ("lion9", 5),
        ("train11", 7),
        ("train4", 2),
        ("mic3", 2),
        ("redundant_traffic", 3),
    ];
    for (table, (name, old)) in fantom_flow::benchmarks::all().iter().zip(old_widths) {
        assert_eq!(table.name(), name, "corpus order changed");
        let assignment = fantom_assign::assign(table);
        assert!(
            assignment.num_vars() <= old,
            "{name}: packed engine needs {} vars, pre-packed needed {old}",
            assignment.num_vars()
        );
        assignment
            .verify(table)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
