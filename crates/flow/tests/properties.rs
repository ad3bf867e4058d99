//! Property-based tests for the flow-table substrate: bit-vector laws, the
//! KISS2 round trip, and structural invariants of builder-generated tables.

use std::collections::VecDeque;

use fantom_flow::generate::{generate, GeneratorOptions};
use fantom_flow::{kiss, validate, Bits, FlowTable, StateId};
use proptest::prelude::*;

fn arb_bits(width: usize) -> impl Strategy<Value = Bits> {
    proptest::collection::vec(any::<bool>(), width).prop_map(Bits::from_bools)
}

/// A random (not necessarily normal-mode) flow table, for exercising the
/// KISS2 round trip and the validators.
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

/// The strong-connectivity test as it was before the adjacency search, kept
/// as its oracle: each search step rescans every state's row for edges,
/// O(states² × columns).
fn rescanning_is_strongly_connected(table: &FlowTable) -> bool {
    let n = table.num_states();
    if n <= 1 {
        return true;
    }
    let forward = |s: StateId| -> Vec<StateId> {
        (0..table.num_columns())
            .filter_map(|c| table.next_state(s, c))
            .filter(|&t| t != s)
            .collect()
    };
    let reachable_from = |start: usize, reverse: bool| -> Vec<bool> {
        let mut seen = vec![false; n];
        seen[start] = true;
        let mut queue = VecDeque::from([StateId(start)]);
        while let Some(u) = queue.pop_front() {
            for v in table.states() {
                let edge = if reverse {
                    forward(v).contains(&u)
                } else {
                    forward(u).contains(&v)
                };
                if edge && !seen[v.0] {
                    seen[v.0] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    };
    reachable_from(0, false).iter().all(|&b| b) && reachable_from(0, true).iter().all(|&b| b)
}

proptest! {
    /// The adjacency search decides strong connectivity exactly as the
    /// rescanning oracle does, on generated (strongly connected) tables with
    /// random entries cleared and on arbitrary random tables.
    #[test]
    fn strong_connectivity_matches_the_rescanning_search(
        seed in any::<u64>(),
        states in 2usize..14,
        inputs in 2usize..4,
        clear_percent in 0u64..40,
        clear_keys in any::<u64>(),
        random in arb_table(),
    ) {
        let mut table = generate(&GeneratorOptions { seed, states, inputs, ..GeneratorOptions::default() });
        let mut key = clear_keys;
        for s in 0..table.num_states() {
            for c in 0..table.num_columns() {
                key = key.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x1405_7B7E_F767_814F);
                if (key >> 33) % 100 < clear_percent {
                    table.set_entry(StateId(s), c, None, None).expect("valid coordinates");
                }
            }
        }
        for t in [&table, &random] {
            prop_assert_eq!(validate::is_strongly_connected(t), rescanning_is_strongly_connected(t));
        }
    }

    /// Index → bits → index round-trips for any width up to 12.
    #[test]
    fn bits_index_round_trip(width in 1usize..12, index in 0usize..4096) {
        let index = index % (1 << width);
        let bits = Bits::from_index(width, index);
        prop_assert_eq!(bits.index(), index);
        prop_assert_eq!(bits.width(), width);
    }

    /// Hamming distance is symmetric and equals the number of differing positions.
    #[test]
    fn hamming_distance_laws(a in arb_bits(6), b in arb_bits(6)) {
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        prop_assert_eq!(a.hamming_distance(&b), a.differing_positions(&b).len());
        prop_assert_eq!(a.hamming_distance(&a), 0);
    }

    /// The transition cube contains exactly 2^distance vectors, includes both
    /// end points, and every member agrees with the end points on the
    /// invariant positions.
    #[test]
    fn transition_cube_structure(a in arb_bits(5), b in arb_bits(5)) {
        let cube = Bits::transition_cube(&a, &b);
        prop_assert_eq!(cube.len(), 1 << a.hamming_distance(&b));
        prop_assert!(cube.contains(&a));
        prop_assert!(cube.contains(&b));
        for v in &cube {
            for i in 0..a.width() {
                if a.bit(i) == b.bit(i) {
                    prop_assert_eq!(v.bit(i), a.bit(i));
                }
            }
        }
    }

    /// Writing a table to KISS2 and parsing it back preserves every specified
    /// entry (next states by name, outputs bit-for-bit).
    #[test]
    fn kiss_round_trip_preserves_entries(table in arb_table()) {
        // A table with no specified entries serialises to a body-less KISS2
        // file, which has no states to parse back.
        prop_assume!(table.specified_entries() > 0);
        let text = kiss::write(&table);
        let back = kiss::parse(&text, table.name()).expect("generated KISS2 parses");
        prop_assert_eq!(back.num_inputs(), table.num_inputs());
        prop_assert_eq!(back.num_outputs(), table.num_outputs());
        for s in table.states() {
            // States with no specified entries may be dropped by the writer;
            // they carry no behaviour.
            let Some(s2) = back.state_by_name(table.state_name(s)) else {
                let empty = (0..table.num_columns()).all(|c| table.entry(s, c).is_unspecified());
                prop_assert!(empty, "non-empty state lost in round trip");
                continue;
            };
            for c in 0..table.num_columns() {
                let next_a = table.next_state(s, c).map(|t| table.state_name(t).to_string());
                let next_b = back.next_state(s2, c).map(|t| back.state_name(t).to_string());
                prop_assert_eq!(next_a, next_b);
                prop_assert_eq!(table.output(s, c), back.output(s2, c));
            }
        }
    }

    /// The validators never panic and their reports are internally consistent.
    #[test]
    fn validation_report_is_consistent(table in arb_table()) {
        let report = validate::validate(&table);
        prop_assert_eq!(
            report.normal_mode_violations.is_empty(),
            validate::is_normal_mode(&table)
        );
        prop_assert_eq!(report.strongly_connected, validate::is_strongly_connected(&table));
        if report.is_acceptable() {
            prop_assert!(report.normal_mode_violations.is_empty());
            prop_assert!(report.strongly_connected);
            prop_assert!(report.states_without_stable_column.is_empty());
        }
    }

    /// Restricting a table to a subset of its states keeps all surviving
    /// entries intact.
    #[test]
    fn restriction_preserves_surviving_entries(table in arb_table(), keep_mask in any::<u8>()) {
        let keep: Vec<StateId> = table
            .states()
            .filter(|s| (keep_mask >> (s.index() % 8)) & 1 == 1)
            .collect();
        prop_assume!(!keep.is_empty());
        let restricted = table.restrict_to_states(&keep);
        prop_assert_eq!(restricted.num_states(), keep.len());
        for (new_idx, &old) in keep.iter().enumerate() {
            for c in 0..table.num_columns() {
                if let Some(next) = table.next_state(old, c) {
                    if let Some(pos) = keep.iter().position(|&k| k == next) {
                        prop_assert_eq!(restricted.next_state(StateId(new_idx), c), Some(StateId(pos)));
                    } else {
                        prop_assert_eq!(restricted.next_state(StateId(new_idx), c), None);
                    }
                }
                prop_assert_eq!(table.output(old, c), restricted.output(StateId(new_idx), c));
            }
        }
    }
}
