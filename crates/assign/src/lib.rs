//! Unicode single-transition-time (USTT) state assignment.
//!
//! Step 3 of SEANCE assigns binary codes to the rows of the reduced flow
//! table using Tracey's partition-set method (Tracey 1966). The assignment is
//! a *USTT* assignment: one code per row, and every transition may fire all of
//! its changing state variables simultaneously without any critical race —
//! for any two disjoint transitions under the same input column there is a
//! state variable that separates them, so an intermediate (racing) code can
//! never be mistaken for a code involved in a different transition.
//!
//! The implementation is a word-parallel, budgeted engine (mirroring the
//! bounded Step-2 architecture of `fantom-minimize`):
//!
//! 1. generate the **dichotomies** required by each input column's transition
//!    pairs, plus the pairwise dichotomies that force distinct codes. Each
//!    dichotomy is a pair of packed state bitsets, so merging, separation and
//!    subsumption are word-parallel bit tests; duplicates and subsumed
//!    dichotomies are removed up front on fixed-size keys, before any bitset
//!    is built ([`dichotomy`]);
//! 2. grow candidate partitions by greedily absorbing compatible dichotomies
//!    over several distinct seed orderings — plus adjacency-cluster seeds
//!    from Tracey's column grouping — driven by an inverted state→dichotomy
//!    **index** ([`index`]) that enumerates only the ids still compatible
//!    with the growing candidate and answers each distinct candidate's
//!    coverage set in one word-parallel query; then select a small covering
//!    set on the shared [`fantom_boolean::covering`] solver — exact minimum
//!    cover when the candidate set is small, lazy-max greedy cover plus
//!    local-search refinement (drop / pair-consolidate) otherwise
//!    ([`covering`]);
//! 3. emit the code matrix and verify uniqueness and race-freedom
//!    ([`assignment`]).
//!
//! Batch callers thread an [`AssignScratch`] through [`assign_in`] so the
//! index, growth state and candidate pool are allocated once per worker
//! (the synthesis service's `Workspace` carry-over).
//!
//! [`AssignmentOptions`] budgets every phase; whatever the caps, the engine
//! degrades to a guaranteed-valid assignment (dedicated partitions for any
//! dichotomy the budgets left uncovered, pairwise-distinct codes) rather than
//! failing, so [`StateAssignment::verify`] always passes on the produced
//! codes.
//!
//! # Example
//!
//! ```
//! use fantom_flow::benchmarks;
//! use fantom_assign::{assign, assign_with_options, AssignmentOptions};
//!
//! let table = benchmarks::lion();
//! let assignment = assign(&table);
//! assert!(assignment.verify(&table).is_ok());
//!
//! // Large machines use the bounded budgets.
//! let bounded = assign_with_options(&table, &AssignmentOptions::bounded());
//! assert!(bounded.verify(&table).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod covering;
pub mod dichotomy;
pub mod index;
pub mod options;

pub use assignment::{
    adjacency_seeds, assign, assign_in, assign_verified_in, assign_with_options, AssignmentError,
    StateAssignment,
};
pub use covering::{
    grow_candidates, select_partitions, select_partitions_in, select_partitions_with,
    AssignScratch, Partition,
};
pub use dichotomy::{required_dichotomies, state_set, Dichotomy, StateSet};
pub use index::DichotomyIndex;
pub use options::AssignmentOptions;
