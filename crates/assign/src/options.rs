//! Resource budgets for the state-assignment engine: candidate growth and
//! local-search refinement. The exact cover's limits — at most 24
//! candidates, the shared solver's node budget — are fixed, not options.

/// Budgets and knobs controlling Step 3 (USTT state assignment).
///
/// Tracey assignment is a set cover over separation constraints: candidate
/// partitions are grown by merging dichotomies, and a small set of partitions
/// covering every required dichotomy becomes the state variables. Both
/// phases are bounded so assignment stays fast on *every* machine: candidate
/// generation is capped here, and selection solves the cover exactly only on
/// pools of at most 24 candidates (under the shared solver's node budget,
/// see [`fantom_boolean::covering`]), degrading otherwise to a greedy cover
/// followed by local-search refinement. Whatever the budgets,
/// the produced assignment is always valid — any dichotomy the selection
/// failed to cover is given its own dedicated partition, and the final code
/// matrix is verifiable with
/// [`StateAssignment::verify`](crate::StateAssignment::verify).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentOptions {
    /// Stop candidate-partition generation after this many distinct
    /// candidates.
    pub max_candidate_partitions: usize,
    /// Number of distinct seed orderings used to grow candidates. Each
    /// ordering greedily absorbs the dichotomy list in a different order, so
    /// more orderings mean more candidate diversity (and proportionally more
    /// generation work).
    pub seed_orderings: usize,
    /// Rounds of local-search refinement (drop redundant partitions, replace
    /// partition pairs by a single candidate) applied to the greedy cover.
    pub refine_passes: usize,
}

impl Default for AssignmentOptions {
    /// Effectively exact for the small benchmark corpus: the exact cover
    /// search runs whenever the candidate set is small, and the greedy path
    /// refines generously.
    fn default() -> Self {
        AssignmentOptions {
            max_candidate_partitions: 4096,
            seed_orderings: 3,
            refine_passes: 4,
        }
    }
}

impl AssignmentOptions {
    /// Tight budgets for large (40-state-class) machines: fewer seed
    /// orderings and refinement rounds, and a smaller candidate cap.
    /// Assignment stays millisecond-scale on the `large_suite` benchmarks at
    /// a small cost in code width.
    pub fn bounded() -> Self {
        AssignmentOptions {
            max_candidate_partitions: 1536,
            seed_orderings: 2,
            refine_passes: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_effort() {
        let bounded = AssignmentOptions::bounded();
        let default = AssignmentOptions::default();
        assert!(bounded.seed_orderings <= default.seed_orderings);
        assert!(bounded.max_candidate_partitions <= default.max_candidate_partitions);
        assert!(bounded.refine_passes <= default.refine_passes);
        assert!(bounded.seed_orderings >= 1);
    }
}
