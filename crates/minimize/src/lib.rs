//! State minimization for (incompletely specified) flow tables.
//!
//! Step 2 of the SEANCE synthesis procedure removes redundant states from the
//! input flow table before state assignment ("Large flow tables benefit from
//! Step 2, table reduction", Section 5.1), using classical state-machine
//! minimization (Kohavi 1978):
//!
//! 1. pairwise **compatibility** analysis with an implication table
//!    ([`compatibility`]), propagated incrementally along precomputed
//!    implication edges ([`CompatibilityBuilder`]) instead of rescanning all
//!    pairs to fixpoint,
//! 2. enumeration of **maximal compatibles** ([`maximal_compatibles`]) —
//!    maximal cliques of the compatibility graph, found by Bron–Kerbosch
//!    with Tomita-style pivoting over a degeneracy-ordered outer loop,
//! 3. selection of a minimum **closed cover** of compatibles
//!    ([`closed_cover`]),
//! 4. construction of the reduced flow table ([`reduce`]).
//!
//! For completely specified tables compatibility degenerates to equivalence
//! and the procedure reduces to classical partition refinement.
//!
//! # Bounded reduction for large machines
//!
//! Both clique enumeration and exact cover selection are exponential in the
//! worst case. [`ReductionOptions`] caps them (`max_compatibles`,
//! `max_clique_width`, `node_budget`, `exact_cover_max_states`), and the
//! exact cover search, a pruned depth-first walk over packed state sets,
//! has a fixed node budget of its own; when a cap is hit,
//! [`maximal_compatibles_bounded`] reports the enumeration as incomplete (or
//! the search gives up) and [`closed_cover_with`] degrades to a greedy
//! pair-merging cover with closure repair, followed by `refine_passes` rounds of
//! local search (drop redundant classes, merge compatible pairs) that only
//! accepts covers whose reduced machine stays normal-mode and strongly
//! connected. Degraded covers are still complete and closed, so
//! [`reduce_with_options`] always yields a behaviourally valid reduced
//! table — the caps only cost merge optimality. This is what lets the
//! synthesis pipeline run Step 2 on 40-state unspecified-heavy machines
//! instead of skipping it.
//!
//! # Example
//!
//! ```
//! use fantom_flow::benchmarks;
//! use fantom_minimize::reduce;
//!
//! let table = benchmarks::redundant_traffic();
//! let reduction = reduce(&table);
//! assert!(reduction.table.num_states() < table.num_states());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compat;
mod cover;
mod options;
mod reduced;

pub use compat::{
    compatibility, maximal_compatibles, maximal_compatibles_bounded, CompatibilityBuilder,
    CompatibilityTable, CompatiblesResult,
};
pub use cover::{closed_cover, closed_cover_with, StateCover};
pub use options::ReductionOptions;
pub use reduced::{reduce, reduce_with_cover, reduce_with_options, Reduction};
