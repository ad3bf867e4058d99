//! Construction of the reduced flow table from a closed cover.

use fantom_flow::{FlowTable, StateId};

use crate::compat::compatibility;
use crate::cover::{closed_cover_with, implied_set, StateCover};
use crate::options::ReductionOptions;

/// The result of reducing a flow table.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The reduced flow table (one state per cover class).
    pub table: FlowTable,
    /// The cover used: `cover.classes[i]` lists the original states merged
    /// into reduced state `i`.
    pub cover: StateCover,
    /// For every original state, the index of the reduced state it maps to.
    pub state_map: Vec<usize>,
}

impl Reduction {
    /// The reduced state that original state `s` was merged into.
    pub fn map_state(&self, s: StateId) -> StateId {
        StateId(self.state_map[s.0])
    }

    /// `true` if the reduction removed at least one state.
    pub fn reduced_anything(&self) -> bool {
        self.table.num_states() < self.state_map.len()
    }
}

/// Reduce `table` using compatibility analysis and a closed cover, under
/// [`ReductionOptions::default`] budgets.
///
/// The reduced table preserves the specified behaviour of the original: for
/// every original entry that names a next state, the corresponding reduced
/// entry leads to the class chosen for that implied set, and every specified
/// output is preserved.
///
/// The cover is the exact minimum for machines of up to
/// `ReductionOptions::default().exact_cover_max_states` (12) states; above
/// that, selection switches to the greedy heuristic, which still yields a
/// complete, closed (behaviourally valid) cover but may merge fewer states
/// than the exact search. Use [`reduce_with_options`] with
/// [`ReductionOptions::exact`] to try the exact search at any size (the
/// search is exponential, and past its node budget it takes the greedy
/// cover), or [`ReductionOptions::bounded`] for large machines.
pub fn reduce(table: &FlowTable) -> Reduction {
    reduce_with_options(table, &ReductionOptions::default())
}

/// Reduce `table` under the enumeration/cover budgets of `options`.
///
/// Within budget the result matches [`reduce`]; when a cap is hit the cover
/// selection degrades to the greedy pair-merging heuristic, which still
/// produces a complete, closed cover — the reduced table is always
/// behaviourally valid, it may simply merge fewer states than an unbounded
/// search would.
pub fn reduce_with_options(table: &FlowTable, options: &ReductionOptions) -> Reduction {
    let compat = compatibility(table);
    let cover = closed_cover_with(table, &compat, options);
    reduce_with_cover(table, &cover)
}

/// Reduce `table` using an explicit closed cover (useful for testing
/// alternative covers or for reproducing a specific reduction).
///
/// # Panics
///
/// Panics if `cover` does not cover every state of `table`.
pub fn reduce_with_cover(table: &FlowTable, cover: &StateCover) -> Reduction {
    let class_names: Vec<String> = cover
        .classes
        .iter()
        .map(|class| {
            class
                .iter()
                .map(|&s| table.state_name(s).to_string())
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect();

    let mut reduced = FlowTable::new(
        format!("{}_reduced", table.name()),
        table.num_inputs(),
        table.num_outputs(),
        class_names,
    )
    .expect("cover is non-empty for a non-empty table");

    for (ci, class) in cover.classes.iter().enumerate() {
        for c in 0..table.num_columns() {
            let implied = implied_set(table, class, c);
            let next = if implied.is_empty() {
                None
            } else if implied.iter().all(|s| class.contains(s)) {
                // The class maps into itself: the reduced state is stable here
                // whenever any member was stable.
                Some(StateId(ci))
            } else {
                cover.class_containing(&implied).map(StateId)
            };
            let output = class.iter().find_map(|&s| table.output(s, c).cloned());
            if next.is_some() || output.is_some() {
                reduced
                    .set_entry(StateId(ci), c, next, output)
                    .expect("entry coordinates are valid");
            }
        }
    }

    let state_map: Vec<usize> = (0..table.num_states())
        .map(|s| cover.class_of(StateId(s)))
        .collect();
    Reduction {
        table: reduced,
        cover: cover.clone(),
        state_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fantom_flow::{benchmarks, validate};

    /// The reduced table must agree with the original wherever the original is
    /// specified: the reduced next state's class contains the original next
    /// state, and specified outputs are preserved.
    fn check_behaviour_preserved(original: &FlowTable, reduction: &Reduction) {
        for s in original.states() {
            let rs = reduction.map_state(s);
            for c in 0..original.num_columns() {
                if let Some(next) = original.next_state(s, c) {
                    let rnext = reduction
                        .table
                        .next_state(rs, c)
                        .unwrap_or_else(|| panic!("reduced entry ({rs}, {c}) lost its next state"));
                    assert!(
                        reduction.cover.classes[rnext.0].contains(&next),
                        "reduced next state {rnext} does not contain original next {next}"
                    );
                }
                if let Some(out) = original.output(s, c) {
                    let rout = reduction
                        .table
                        .output(rs, c)
                        .expect("specified output dropped");
                    assert_eq!(out, rout, "output changed at ({s}, {c})");
                }
            }
        }
    }

    #[test]
    fn redundant_traffic_merges_duplicate_state() {
        let table = benchmarks::redundant_traffic();
        let reduction = reduce(&table);
        assert!(reduction.table.num_states() <= 4);
        assert!(reduction.reduced_anything());
        check_behaviour_preserved(&table, &reduction);
        // HG1 and HG2 end up in the same class.
        let hg1 = table.state_by_name("HG1").unwrap();
        let hg2 = table.state_by_name("HG2").unwrap();
        assert_eq!(reduction.map_state(hg1), reduction.map_state(hg2));
    }

    #[test]
    fn every_benchmark_reduction_preserves_behaviour() {
        for table in benchmarks::all() {
            let reduction = reduce(&table);
            check_behaviour_preserved(&table, &reduction);
            assert!(reduction.table.num_states() <= table.num_states());
        }
    }

    #[test]
    fn reductions_of_benchmarks_stay_normal_mode_and_connected() {
        for table in benchmarks::all() {
            let reduction = reduce(&table);
            let report = validate::validate(&reduction.table);
            assert!(
                report.normal_mode_violations.is_empty(),
                "reduction of {} broke normal mode: {report:?}",
                table.name()
            );
            assert!(
                report.strongly_connected,
                "reduction of {} broke strong connectivity",
                table.name()
            );
        }
    }

    #[test]
    fn reduce_with_trivial_cover_is_identity_up_to_names() {
        let table = benchmarks::lion();
        let cover = StateCover::trivial(table.num_states());
        let reduction = reduce_with_cover(&table, &cover);
        assert_eq!(reduction.table.num_states(), table.num_states());
        for s in table.states() {
            for c in 0..table.num_columns() {
                assert_eq!(
                    table.next_state(s, c).map(|t| t.0),
                    reduction.table.next_state(s, c).map(|t| t.0)
                );
                assert_eq!(table.output(s, c), reduction.table.output(s, c));
            }
        }
    }
}
