//! Property-based tests for the canonical-form layer: the signature is
//! invariant under state/input-bit/output-bit relabeling, relabeling
//! round-trips through its inverse maps, and non-isomorphic corpus machines
//! get distinct signatures.

use fantom_flow::canonical::{
    canonical_table, canonical_table_eq, canonicalize, inverse_permutation, relabel,
    CanonicalOptions,
};
use fantom_flow::{benchmarks, Bits, FlowTable, StateId};
use proptest::prelude::*;

/// A random flow table (same construction as `tests/properties.rs`):
/// entries, next states and outputs are arbitrary, including fully
/// unspecified rows — canonicalization must not require validity.
fn arb_table() -> impl Strategy<Value = FlowTable> {
    (2usize..6, 1usize..3, 1usize..3)
        .prop_flat_map(|(states, inputs, outputs)| {
            let columns = 1usize << inputs;
            (
                Just((states, inputs, outputs)),
                proptest::collection::vec(
                    proptest::option::of((
                        0..states,
                        proptest::collection::vec(any::<bool>(), outputs),
                    )),
                    states * columns,
                ),
            )
        })
        .prop_map(|((states, inputs, outputs), entries)| {
            let names: Vec<String> = (0..states).map(|i| format!("q{i}")).collect();
            let mut table = FlowTable::new("random", inputs, outputs, names).expect("non-empty");
            let columns = 1usize << inputs;
            for s in 0..states {
                for c in 0..columns {
                    if let Some((next, out)) = &entries[s * columns + c] {
                        table
                            .set_entry(
                                StateId(s),
                                c,
                                Some(StateId(*next)),
                                Some(Bits::from_bools(out.clone())),
                            )
                            .expect("valid coordinates");
                    }
                }
            }
            table
        })
}

/// Derive a permutation of `0..n` from random sort keys: indices sorted by
/// key, ties broken by index, which is a uniform-ish shuffle and — unlike
/// `prop_shuffle` — keeps the strategy independent of `n`.
fn permutation_from_keys(keys: &[u64], n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by_key(|&i| (keys[i % keys.len()].wrapping_add(i as u64), i));
    perm
}

fn arb_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 8)
}

proptest! {
    /// Isomorphic tables canonicalize to the same signature, the same
    /// exactness, and byte-equal canonical tables.
    #[test]
    fn signature_is_relabeling_invariant(
        table in arb_table(),
        sk in arb_keys(),
        ik in arb_keys(),
        ok in arb_keys(),
    ) {
        let sm = permutation_from_keys(&sk, table.num_states());
        let im = permutation_from_keys(&ik, table.num_inputs());
        let om = permutation_from_keys(&ok, table.num_outputs());
        let relabeled = relabel(&table, &sm, &im, &om, "relabeled");

        let opts = CanonicalOptions::default();
        let a = canonicalize(&table, &opts);
        let b = canonicalize(&relabeled, &opts);
        prop_assert_eq!(a.exact, b.exact);
        if !a.exact {
            prop_assert_eq!(&a.signature, &b.signature);
            prop_assert_eq!(canonical_table(&table, &a), canonical_table(&relabeled, &b));
        }
    }

    /// Relabeling by a permutation triple and then by the inverse triple is
    /// the identity.
    #[test]
    fn relabel_round_trips_through_inverses(
        table in arb_table(),
        sk in arb_keys(),
        ik in arb_keys(),
        ok in arb_keys(),
    ) {
        let sm = permutation_from_keys(&sk, table.num_states());
        let im = permutation_from_keys(&ik, table.num_inputs());
        let om = permutation_from_keys(&ok, table.num_outputs());
        let there = relabel(&table, &sm, &im, &om, table.name());
        let back = relabel(
            &there,
            &inverse_permutation(&sm),
            &inverse_permutation(&im),
            &inverse_permutation(&om),
            table.name(),
        );
        prop_assert_eq!(back, table);
    }

    /// The in-place comparison answers exactly what building the canonical
    /// table and comparing it would: on the table's own canonical table, an
    /// isomorphic or unrelated table's, the same with one entry changed, and
    /// the same renamed or with two rows swapped.
    #[test]
    fn in_place_comparison_equals_building_the_canonical_table(
        table in arb_table(),
        other in arb_table(),
        keys in arb_keys(),
    ) {
        let opts = CanonicalOptions::default();
        let c = canonicalize(&table, &opts);
        let built = canonical_table(&table, &c);
        let sm = permutation_from_keys(&keys, table.num_states());
        let im = permutation_from_keys(&keys[1..], table.num_inputs());
        let om = permutation_from_keys(&keys[2..], table.num_outputs());
        let relabeled = relabel(&table, &sm, &im, &om, "relabeled");
        let of = |t: &FlowTable| canonical_table(t, &canonicalize(t, &opts));

        let mut changed = built.clone();
        let (row, col) = (keys[3] as usize % table.num_states(), keys[4] as usize % table.num_columns());
        let entry = changed.entry(StateId(row), col).clone();
        let next = Some(StateId(keys[5] as usize % table.num_states()));
        let output = Some(Bits::from_index(table.num_outputs(), keys[6] as usize % (1 << table.num_outputs())));
        match keys[7] % 3 {
            0 => changed.set_entry(StateId(row), col, next, entry.output),
            1 => changed.set_entry(StateId(row), col, entry.next, output),
            _ => changed.set_entry(StateId(row), col, None, None),
        }
        .expect("valid coordinates");
        let mut renamed = built.clone();
        renamed.set_name("renamed");
        let mut swap: Vec<usize> = (0..table.num_states()).collect();
        swap.swap(0, 1);
        let swapped = relabel(&built, &swap, &identity(table.num_inputs()), &identity(table.num_outputs()), "canonical");

        for candidate in [built.clone(), of(&relabeled), of(&other), changed, renamed, swapped, table.clone()] {
            prop_assert_eq!(canonical_table_eq(&table, &c, &candidate), built == candidate);
        }
        prop_assert!(canonical_table_eq(&table, &c, &built));
    }

    /// Canonicalization is a pure function of the table.
    #[test]
    fn canonicalization_is_deterministic(table in arb_table()) {
        let opts = CanonicalOptions::default();
        let a = canonicalize(&table, &opts);
        let b = canonicalize(&table, &opts);
        prop_assert_eq!(a.signature, b.signature);
        prop_assert_eq!(a.exact, b.exact);
        prop_assert_eq!(a.state_map, b.state_map);
        prop_assert_eq!(a.input_map, b.input_map);
        prop_assert_eq!(a.output_map, b.output_map);
    }
}

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Every pair of distinct corpus machines — small suite and the large
/// synthetic suite — hashes to a distinct signature, and every relabeling of
/// a corpus machine still separates from every *other* machine.
#[test]
fn corpus_machines_have_pairwise_distinct_signatures() {
    let mut tables = benchmarks::all();
    tables.extend(benchmarks::large_suite());
    let opts = CanonicalOptions::default();
    let sigs: Vec<_> = tables.iter().map(|t| canonicalize(t, &opts)).collect();
    for i in 0..tables.len() {
        for j in (i + 1)..tables.len() {
            assert_ne!(
                sigs[i].signature,
                sigs[j].signature,
                "{} vs {}",
                tables[i].name(),
                tables[j].name()
            );
        }
    }
}

/// A relabeled corpus machine matches its original and no other machine.
#[test]
fn relabeled_corpus_machine_matches_only_its_original() {
    let tables = benchmarks::all();
    let opts = CanonicalOptions::default();
    let sigs: Vec<_> = tables.iter().map(|t| canonicalize(t, &opts)).collect();
    for (i, t) in tables.iter().enumerate() {
        let sm: Vec<usize> = (0..t.num_states()).rev().collect();
        let im: Vec<usize> = (0..t.num_inputs()).rev().collect();
        let om: Vec<usize> = (0..t.num_outputs()).rev().collect();
        let r = relabel(t, &sm, &im, &om, "shuffled");
        let rs = canonicalize(&r, &opts);
        for (j, s) in sigs.iter().enumerate() {
            if i == j {
                assert_eq!(
                    rs.signature,
                    s.signature,
                    "{} lost under relabeling",
                    t.name()
                );
            } else {
                assert_ne!(
                    rs.signature,
                    s.signature,
                    "{} collides with {}",
                    t.name(),
                    tables[j].name()
                );
            }
        }
    }
}
