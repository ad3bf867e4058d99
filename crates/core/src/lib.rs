//! SEANCE — synthesis of multiple-input change, hazard-free asynchronous
//! finite state machines targeting the FANTOM architecture.
//!
//! This crate is a reproduction of the synthesis system described in
//! *"Synthesis of Multiple-Input Change Asynchronous Finite State Machines"*
//! (Ladd & Birmingham, DAC 1991). Given a (possibly incompletely specified)
//! normal-mode Huffman flow table, the [`synthesize_sparse`] pipeline
//! ([`pipeline`]) performs the seven steps of the SEANCE procedure:
//!
//! 1. flow-table preparation and validation (`fantom_flow`),
//! 2. table reduction / state minimization (`fantom_minimize`),
//! 3. USTT (Tracey) state assignment (`fantom_assign`),
//! 4. output (`Z`) and stable-state-detector (`SSD`) equation generation
//!    ([`outputs`]),
//! 5. function-hazard search over every multiple-input-change stable-state
//!    transition ([`hazard`], the paper's Figure 4),
//! 6. generation of the fantom state variable (`fsv`) and next-state (`Y`)
//!    equations over the doubled state space ([`fsv`]),
//! 7. hazard factoring into first-level-gate (AND / AND–NOR) form
//!    ([`factoring`], the paper's Figure 5).
//!
//! Every step works on packed cube covers, so cost scales with the
//! specification size rather than the `2^n` space. The result
//! ([`SparseSynthesisResult`]) carries every equation and the depth metrics
//! reported in Table 1 of the paper ([`depth::DepthReport`]); it can be
//! turned into a gate-level netlist of the full FANTOM machine
//! ([`emit::emit_parts`]), driven through delay-sampling campaigns
//! ([`run_campaign_sparse`]) and checked statically ([`validate`]). Baseline
//! synthesis styles used in the paper's Section 7 comparison live in
//! [`baseline`]. Step 2 runs under the [`ReductionOptions`] budgets;
//! [`SynthesisOptions::for_large_machines`] picks bounded reduction and
//! assignment for 40-state-class machines.
//!
//! Dense truth tables ([`fantom_boolean::Function`]) appear only as the test
//! oracle: [`SpecifiedTable`]'s minterm-wise builders,
//! [`fsv::fsv_function`] and [`fsv::y_functions`] tabulate the functions
//! every cover must implement, for machines up to
//! [`MAX_DENSE_VARS`](fantom_boolean::MAX_DENSE_VARS) variables.
//!
//! # Quickstart
//!
//! ```
//! use fantom_flow::benchmarks;
//! use seance::{synthesize_sparse, SynthesisOptions};
//!
//! # fn main() -> Result<(), seance::SynthesisError> {
//! let table = benchmarks::lion();
//! let result = synthesize_sparse(&table, &SynthesisOptions::default())?;
//! println!("fsv depth {}", result.depth.fsv_depth);
//! println!("Y depth   {}", result.depth.y_depth);
//! println!("total     {}", result.depth.total_depth);
//! assert!(result.depth.total_depth >= result.depth.fsv_depth);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod campaign;
pub mod depth;
pub mod emit;
mod error;
pub mod factoring;
pub mod fsv;
pub mod fuzz;
pub mod hazard;
pub mod outputs;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod spec;
pub mod validate;
mod workspace;

pub use campaign::{run_campaign_sparse, AnalyticVerdicts, CampaignOptions, CampaignReport};
pub use error::SynthesisError;
pub use fantom_assign::AssignmentOptions;
pub use fantom_minimize::ReductionOptions;
pub use pipeline::{
    synthesize_sparse, synthesize_sparse_with, SparseSynthesisResult, SynthesisOptions,
};
pub use report::{table1_row, Table1Row};
pub use service::{synthesize_many, ServiceOptions, SynthesisOutcome, SynthesisService};
pub use spec::{SpecifiedTable, MAX_TOTAL_VARS};
pub use workspace::Workspace;
