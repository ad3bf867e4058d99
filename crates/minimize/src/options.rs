//! Resource budgets for the state-reduction engine.

/// Budgets and caps controlling Step 2 (state minimization).
///
/// Maximal-compatible enumeration is maximal-clique enumeration and therefore
/// exponential in the worst case, and exact closed-cover selection is a set
/// cover on top of it. These options bound both phases so reduction can run
/// on *every* machine: within budget the result is exact, and when a cap is
/// hit the engine degrades to a greedy pair-merging cover instead of skipping
/// reduction entirely. Degraded covers are still complete (every state is
/// covered) and closed, so the reduced machine is always behaviourally valid
/// — the caps only cost optimality (fewer states merged than an unbounded
/// search might find).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionOptions {
    /// Stop compatible enumeration after this many sets have been emitted.
    pub max_compatibles: usize,
    /// Emit (and stop deepening) a compatible once it reaches this many
    /// states. Capped sets may be non-maximal but are still compatible, so
    /// they remain valid cover classes.
    pub max_clique_width: usize,
    /// Abort enumeration after this many Bron–Kerbosch search nodes.
    pub node_budget: u64,
    /// Up to this state count (after a complete enumeration) the closed
    /// cover is the exact search's: the first closed cover in order of size,
    /// then of candidate indices, over the candidates sorted largest first.
    /// The search walks packed state sets depth-first and cuts a branch when
    /// its remaining slots times the size of the largest class left cannot
    /// reach the uncovered states, or when the classes left cannot cover
    /// them, so it returns what a full enumeration of the combinations would;
    /// it is still exponential in the worst case, so past a fixed budget of a
    /// million nodes it gives up for the greedy cover. Above this state count
    /// the greedy cover heuristic runs directly.
    pub exact_cover_max_states: usize,
    /// Rounds of local-search refinement applied to greedy covers: redundant
    /// classes are dropped and compatible class pairs are merged (with
    /// closure repair) while the cover shrinks. Refinement never loosens the
    /// cover invariants — the result stays complete and closed.
    pub refine_passes: usize,
}

impl Default for ReductionOptions {
    /// Effectively exact for the small benchmark corpus (n ≤ 12): generous
    /// enumeration budgets and the exact cover search, with the greedy
    /// fallback only for larger machines.
    fn default() -> Self {
        ReductionOptions {
            max_compatibles: 100_000,
            max_clique_width: usize::MAX,
            node_budget: 10_000_000,
            exact_cover_max_states: 12,
            refine_passes: 2,
        }
    }
}

impl ReductionOptions {
    /// No caps at all: full maximal-compatible enumeration and the exact
    /// cover search regardless of machine size. Exponential in the worst
    /// case — use only when the input is known to be small.
    pub fn exact() -> Self {
        ReductionOptions {
            max_compatibles: usize::MAX,
            max_clique_width: usize::MAX,
            node_budget: u64::MAX,
            exact_cover_max_states: usize::MAX,
            refine_passes: 2,
        }
    }

    /// Tight budgets for large (40-state-class) machines: enumeration is
    /// bounded to a few thousand compatibles and a quarter-million search
    /// nodes, and cover selection is always greedy. Reduction stays
    /// millisecond-scale on the `large_suite` benchmarks.
    pub fn bounded() -> Self {
        ReductionOptions {
            max_compatibles: 4096,
            max_clique_width: 64,
            node_budget: 250_000,
            exact_cover_max_states: 12,
            refine_passes: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_tightness() {
        let exact = ReductionOptions::exact();
        let default = ReductionOptions::default();
        let bounded = ReductionOptions::bounded();
        assert!(exact.node_budget >= default.node_budget);
        assert!(default.node_budget >= bounded.node_budget);
        assert!(default.max_compatibles >= bounded.max_compatibles);
        assert!(bounded.max_clique_width >= 2);
    }
}
