//! Property tests for the scalable state-reduction engine.
//!
//! The pivoted, degeneracy-ordered Bron–Kerbosch is pinned against a
//! pivotless textbook oracle on random compatibility graphs (n ≤ 12, small
//! enough that the pivotless search is instant), the incremental worklist
//! compatibility analysis is pinned against the classical
//! rescan-to-fixpoint implication-table loop on the whole benchmark corpus,
//! the packed, pruned exact cover search is pinned against the size-by-size
//! enumeration it replaced, and cap degradation is checked to always yield
//! complete, closed covers.

use fantom_flow::canonical::relabel;
use fantom_flow::{benchmarks, Bits, FlowTable, StateId};
use fantom_minimize::{
    closed_cover_with, compatibility, maximal_compatibles, maximal_compatibles_bounded,
    reduce_with_options, CompatibilityBuilder, CompatibilityTable, ReductionOptions, StateCover,
};
use proptest::prelude::*;

/// Build a compatibility table from an upper-triangular adjacency bitmap.
fn table_from_bits(n: usize, bits: &[bool]) -> CompatibilityTable {
    let mut builder = CompatibilityBuilder::new(n);
    let mut k = 0;
    for a in 0..n {
        for b in (a + 1)..n {
            if !bits[k] {
                builder.mark_incompatible(StateId(a), StateId(b));
            }
            k += 1;
        }
    }
    builder.finish()
}

/// The pivotless textbook Bron–Kerbosch used as the enumeration oracle.
fn pivotless_oracle(compat: &CompatibilityTable) -> Vec<Vec<StateId>> {
    fn recurse(
        compat: &CompatibilityTable,
        r: &mut Vec<usize>,
        p: &mut Vec<usize>,
        x: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if p.is_empty() && x.is_empty() {
            out.push(r.clone());
            return;
        }
        for v in p.clone() {
            let neighbours = |u: usize| u != v && compat.are_compatible(StateId(v), StateId(u));
            let mut p2: Vec<usize> = p.iter().copied().filter(|&u| neighbours(u)).collect();
            let mut x2: Vec<usize> = x.iter().copied().filter(|&u| neighbours(u)).collect();
            r.push(v);
            recurse(compat, r, &mut p2, &mut x2, out);
            r.pop();
            p.retain(|&u| u != v);
            x.push(v);
        }
    }
    let n = compat.num_states();
    let mut out = Vec::new();
    let mut p: Vec<usize> = (0..n).collect();
    recurse(compat, &mut Vec::new(), &mut p, &mut Vec::new(), &mut out);
    let mut cliques: Vec<Vec<StateId>> = out
        .into_iter()
        .map(|c| {
            let mut c: Vec<StateId> = c.into_iter().map(StateId).collect();
            c.sort();
            c
        })
        .collect();
    cliques.sort();
    cliques.dedup();
    cliques
}

/// The classical implication-table analysis: rescan every pair against every
/// column until nothing changes. Oracle for the incremental worklist builder.
#[allow(clippy::needless_range_loop)] // symmetric 2-D indexing; iterators obscure the pairs
fn fixpoint_oracle(table: &FlowTable) -> Vec<Vec<bool>> {
    let n = table.num_states();
    let mut compatible = vec![vec![true; n]; n];
    for a in 0..n {
        for b in (a + 1)..n {
            let conflict = (0..table.num_columns()).any(|c| {
                matches!(
                    (table.output(StateId(a), c), table.output(StateId(b), c)),
                    (Some(oa), Some(ob)) if oa != ob
                )
            });
            if conflict {
                compatible[a][b] = false;
                compatible[b][a] = false;
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for a in 0..n {
            for b in (a + 1)..n {
                if !compatible[a][b] {
                    continue;
                }
                for c in 0..table.num_columns() {
                    if let (Some(na), Some(nb)) = (
                        table.next_state(StateId(a), c),
                        table.next_state(StateId(b), c),
                    ) {
                        if na != nb && !compatible[na.0][nb.0] {
                            compatible[a][b] = false;
                            compatible[b][a] = false;
                            changed = true;
                            break;
                        }
                    }
                }
            }
        }
    }
    compatible
}

/// An arbitrary compatibility graph on up to 12 states: a state count plus
/// one adjacency bit per unordered pair (unused tail bits are ignored).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<bool>)> {
    (2usize..=12, proptest::collection::vec(any::<bool>(), 66))
}

proptest! {
    /// The pivoted, degeneracy-ordered enumeration finds exactly the maximal
    /// cliques the pivotless oracle finds.
    #[test]
    fn pivoted_enumeration_matches_pivotless_oracle(graph in arb_graph()) {
        let (n, bits) = graph;
        let compat = table_from_bits(n, &bits);
        let pivoted = maximal_compatibles(&compat);
        let oracle = pivotless_oracle(&compat);
        prop_assert_eq!(pivoted, oracle);
    }

    /// Under arbitrary caps every emitted set is still a compatible
    /// (a clique), the emission cap is respected, and an enumeration
    /// reported as complete matches the oracle exactly.
    #[test]
    fn capped_enumeration_is_sound(
        graph in arb_graph(),
        max_compatibles in 1usize..=64,
        max_clique_width in 1usize..=13,
        node_budget in 1u64..=512,
    ) {
        let (n, bits) = graph;
        let compat = table_from_bits(n, &bits);
        let options = ReductionOptions {
            max_compatibles,
            max_clique_width,
            node_budget,
            exact_cover_max_states: 0,
            refine_passes: 2,
        };
        let result = maximal_compatibles_bounded(&compat, &options);
        prop_assert!(result.compatibles.len() <= max_compatibles);
        for c in &result.compatibles {
            prop_assert!(compat.set_is_compatible(c));
            prop_assert!(c.len() <= max_clique_width);
        }
        if result.complete {
            prop_assert_eq!(result.compatibles, pivotless_oracle(&compat));
        }
    }

    /// Whatever the caps, cover selection yields a complete, closed cover of
    /// compatible classes on every benchmark machine, and the resulting
    /// reduction never grows the machine.
    #[test]
    fn degraded_covers_stay_complete_and_closed(
        bench in 0usize..8,
        max_compatibles in 1usize..=32,
        max_clique_width in 1usize..=8,
        node_budget in 1u64..=256,
        exact_cover_max_states in 0usize..=12,
        refine_passes in 0usize..=2,
    ) {
        let table = &benchmarks::all()[bench];
        let options = ReductionOptions {
            max_compatibles,
            max_clique_width,
            node_budget,
            exact_cover_max_states,
            refine_passes,
        };
        let compat = compatibility(table);
        let cover = closed_cover_with(table, &compat, &options);
        prop_assert!(cover.covers_all_states(table));
        prop_assert!(cover.is_closed(table));
        for class in &cover.classes {
            prop_assert!(compat.set_is_compatible(class));
        }
        let reduction = reduce_with_options(table, &options);
        prop_assert!(reduction.table.num_states() <= table.num_states());
        // Behaviour preservation: specified next states land in the class
        // chosen for them and specified outputs survive.
        for s in table.states() {
            let rs = reduction.map_state(s);
            for c in 0..table.num_columns() {
                if let Some(next) = table.next_state(s, c) {
                    let rnext = reduction.table.next_state(rs, c);
                    prop_assert!(rnext.is_some());
                    prop_assert!(reduction.cover.classes[rnext.unwrap().0].contains(&next));
                }
                if let Some(out) = table.output(s, c) {
                    prop_assert_eq!(reduction.table.output(rs, c), Some(out));
                }
            }
        }
    }
}

#[test]
fn incremental_compatibility_matches_fixpoint_oracle_on_the_corpus() {
    let mut tables = benchmarks::all();
    tables.extend(benchmarks::large_suite());
    for table in tables {
        let incremental = compatibility(&table);
        let oracle = fixpoint_oracle(&table);
        for a in table.states() {
            for b in table.states() {
                assert_eq!(
                    incremental.are_compatible(a, b),
                    oracle[a.0][b.0],
                    "{}: pair ({a}, {b})",
                    table.name()
                );
            }
        }
    }
}

/// The exact cover search's oracle: every size-`k` combination of the
/// candidates in lexicographic order of indices, for `k = 1, 2, …, n − 1`,
/// each leaf checked for coverage and closure from scratch; the first that
/// passes wins, and the trivial cover if none does. `None` when
/// `closed_cover_with` would not search exactly (a truncated enumeration or
/// a machine above `exact_cover_max_states`).
fn enumerated_cover(table: &FlowTable, options: &ReductionOptions) -> Option<StateCover> {
    fn search(
        table: &FlowTable,
        candidates: &[Vec<StateId>],
        size: usize,
        start: usize,
        chosen: &mut Vec<usize>,
    ) -> Option<StateCover> {
        if chosen.len() == size {
            let covers = |s| chosen.iter().any(|&i| candidates[i].contains(&s));
            if !table.states().all(covers) {
                return None;
            }
            let cover = StateCover {
                classes: chosen.iter().map(|&i| candidates[i].clone()).collect(),
            };
            return cover.is_closed(table).then_some(cover);
        }
        for i in start..candidates.len() {
            chosen.push(i);
            if let Some(cover) = search(table, candidates, size, i + 1, chosen) {
                return Some(cover);
            }
            chosen.pop();
        }
        None
    }

    let n = table.num_states();
    let enumeration = maximal_compatibles_bounded(&compatibility(table), options);
    if !enumeration.complete || n > options.exact_cover_max_states {
        return None;
    }
    let mut candidates = enumeration.compatibles;
    for s in table.states() {
        if !candidates.contains(&vec![s]) {
            candidates.push(vec![s]);
        }
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let found = (1..n).find_map(|size| search(table, &candidates, size, 0, &mut Vec::new()));
    Some(found.unwrap_or_else(|| StateCover::trivial(n)))
}

/// One step of an xorshift stream.
fn next(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

/// A deterministic permutation of `0..n`.
fn permutation(rng: &mut u64, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next(rng) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A seeded table of `states` states and `inputs` inputs with one or two
/// outputs: each state is stable in one column, and every other entry is
/// left unspecified with probability `dc`, else sent to a random state with
/// a random (sometimes unspecified) output.
fn random_table(seed: u64, states: usize, inputs: usize, dc: f64) -> FlowTable {
    let mut rng = seed | 1;
    let outputs = 1 + (next(&mut rng) % 2) as usize;
    let names = (0..states).map(|i| format!("s{i}")).collect();
    let mut table = FlowTable::new(format!("random_{seed:x}"), inputs, outputs, names).unwrap();
    let bits = |rng: &mut u64| Bits::from_index(outputs, (next(rng) % (1 << outputs)) as usize);
    for s in 0..states {
        let home = (next(&mut rng) % (1 << inputs)) as usize;
        for c in 0..table.num_columns() {
            let (next_state, output) = if c == home {
                (Some(StateId(s)), Some(bits(&mut rng)))
            } else if (next(&mut rng) >> 11) as f64 / (1u64 << 53) as f64 >= dc {
                let target = StateId((next(&mut rng) % states as u64) as usize);
                let output = (next(&mut rng) % 4 != 0).then(|| bits(&mut rng));
                (Some(target), output)
            } else {
                (None, None)
            };
            table.set_entry(StateId(s), c, next_state, output).unwrap();
        }
    }
    table
}

/// The packed, pruned exact search returns the very cover the size-by-size
/// enumeration returns, under both option sets: on the corpus, on seeded
/// relabelings of it, and on 600 seeded tables of 3–12 states, 1–3 inputs
/// and don't-care densities 0–0.75.
#[test]
fn exact_cover_matches_the_enumeration() {
    let mut tables = benchmarks::all();
    let mut rng = 0x5EED_C0DE_u64;
    for table in benchmarks::all() {
        for k in 0..4 {
            let states = permutation(&mut rng, table.num_states());
            let inputs = permutation(&mut rng, table.num_inputs());
            let outputs = permutation(&mut rng, table.num_outputs());
            let name = format!("{}_r{k}", table.name());
            tables.push(relabel(&table, &states, &inputs, &outputs, &name));
        }
    }
    for i in 0..600u64 {
        let states = 3 + (i % 10) as usize;
        let inputs = 1 + (i / 10 % 3) as usize;
        let dc = [0.0, 0.25, 0.5, 0.75][(i / 30 % 4) as usize];
        tables.push(random_table(next(&mut rng), states, inputs, dc));
    }
    let mut compared = 0;
    for options in [ReductionOptions::default(), ReductionOptions::bounded()] {
        for table in &tables {
            let Some(oracle) = enumerated_cover(table, &options) else {
                continue;
            };
            let cover = closed_cover_with(table, &compatibility(table), &options);
            assert_eq!(cover, oracle, "{} under {options:?}", table.name());
            compared += 1;
        }
    }
    // Every table here has at most 12 states, so every one is searched.
    assert_eq!(compared, 2 * tables.len());
}
