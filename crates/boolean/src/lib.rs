//! Boolean substrate for the FANTOM/SEANCE asynchronous FSM synthesis workspace.
//!
//! This crate provides the two-level logic machinery that the SEANCE synthesis
//! pipeline (crate `seance`) is built on:
//!
//! * [`Cube`] / [`Cover`] — positional cube algebra over a fixed variable set,
//! * [`CoverFunction`] — incompletely specified functions as on/off cube
//!   covers, with prime generation ([`recursive`]) and essential-SOP
//!   minimization ([`CoverFunction::minimize`]) that never enumerate the
//!   `2^n` space,
//! * [`petrick`] — the cover-based covering table behind that minimization,
//! * [`covering`] — the one set-cover solver of SEANCE Steps 3, 4 and 6:
//!   exact selection by a bitset branch and bound that keeps Petrick's tie
//!   order, and a lazy greedy cover as the fallback past its node budget,
//! * [`Function`] and [`quine`] — dense truth tables and Quine–McCluskey
//!   tabulation, kept as the exhaustive test oracle for the cube algorithms
//!   on spaces of at most [`MAX_DENSE_VARS`] variables,
//! * [`Expr`] — multi-level logic expressions with depth and literal metrics,
//!   including the *first-level gate* (AND / AND–NOR) transformation required
//!   by Step 7 of SEANCE,
//! * [`hazard`] — static (single-input-change) hazard detection for
//!   sum-of-products covers,
//! * [`MintermSet`] — dense minterm bitsets for covering algorithms,
//! * [`fxhash`] — a fast in-workspace hasher for hot-path maps, and
//! * [`collections`] — the one-stop façade for every hot-path collection
//!   (fx-hashed maps/sets plus the special-purpose structures).
//!
//! # Packed cube representation
//!
//! [`Cube`] is stored espresso-style, **two bits per variable** packed into
//! 64-bit words, so the core cube operations (containment, intersection,
//! adjacency merge, supercube, minterm membership) are word-parallel
//! AND/OR/XOR/popcount expressions instead of per-literal loops. Cubes of
//! more than 32 variables run each operation as one loop over their word
//! pairs. The layout invariants are:
//!
//! * Each variable owns a 2-bit field: the **high** bit means *can be 1*, the
//!   **low** bit means *can be 0*. The encodings are `01` = [`Literal::Zero`],
//!   `10` = [`Literal::One`], `11` = [`Literal::DontCare`]. The empty field
//!   `00` never appears in a well-formed cube (it is the transient witness of
//!   a 0/1 conflict during intersection).
//! * Variable `v` lives in word `v / 32`. Within a word, fields are allocated
//!   **from the most significant bits down**: variable `32·w + k` occupies
//!   bits `63 − 2k` (high) and `62 − 2k` (low) of word `w`. Variable 0 in the
//!   top field of word 0 makes plain word comparison agree with the
//!   lexicographic `Zero < One < DontCare` cube order.
//! * Cubes of **≤ 32 variables are a single inline word** (no heap
//!   allocation; this covers every MCNC-scale benchmark). Wider cubes spill
//!   into a boxed word slice. The representation choice is an internal detail
//!   — equality, hashing and ordering only see the words.
//! * **Padding fields** (slots past `num_vars` in the last word) are
//!   canonically `11`, so whole-word operations (AND for intersection, OR for
//!   supercube/merge, XOR for difference) preserve canonical form and
//!   derived word-wise equality/hash/ordering are well defined.
//!
//! The positional text format (`"1-0"`), [`Cube::parse`] / `Display`, and the
//! whole public API of the previous literal-vector representation are
//! unchanged.
//!
//! # Example
//!
//! Minimize `f = Σ m(1, 3, 5, 7)` over three variables (this is simply `x2`,
//! the least-significant input):
//!
//! ```
//! use fantom_boolean::{CoverFunction, Function};
//!
//! # fn main() -> Result<(), fantom_boolean::BooleanError> {
//! let f = Function::from_on_set(3, &[1, 3, 5, 7])?;
//! let cover = CoverFunction::from_function(&f).minimize();
//! assert_eq!(cover.cube_count(), 1);
//! assert!(cover.equivalent_to(&f));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod collections;
mod cover;
mod cover_function;
pub mod covering;
mod cube;
mod error;
pub mod expr;
mod function;
pub mod fxhash;
pub mod hazard;
pub mod index;
pub mod petrick;
pub mod quine;
pub mod recursive;

pub use bitset::MintermSet;
pub use cover::Cover;
pub use cover_function::CoverFunction;
pub use cube::{Cube, Literal, MintermIter};
pub use error::BooleanError;
pub use expr::Expr;
pub use function::{Function, Minterms, MAX_DENSE_VARS};
pub use index::{CoverIndex, IndexedCover};
