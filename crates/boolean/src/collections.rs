//! The one-stop façade for every hot-path collection in the workspace.
//!
//! Synthesis hot paths (consensus recursion, dichotomy seeds, batch-service
//! caches, simulator scoreboards) all want the same things: a
//! fast non-cryptographic hash map/set and the special-purpose structures of
//! the boolean substrate. Before this module they imported them from three
//! different places — `crate::fxhash`, `crate::bitset`, `crate::index` — and
//! the occasional `std::collections::HashMap` with its DoS-resistant (and
//! hot-loop-slow) SipHash default crept in. Downstream code now imports
//! *only* from here:
//!
//! ```
//! use fantom_boolean::collections::{HashMap, HashSet};
//!
//! let mut seen: HashSet<u64> = HashSet::default();
//! seen.insert(42);
//! let mut index: HashMap<String, usize> = HashMap::default();
//! index.insert("cube".to_owned(), 7);
//! # assert!(seen.contains(&42) && index["cube"] == 7);
//! ```
//!
//! `HashMap`/`HashSet` here are the fx-hashed aliases (deterministic,
//! multiply-rotate [`FxHasher`]) — construct them with `::default()`, not
//! `::new()`, since the hasher is a non-default type parameter. CI greps that
//! no crate imports the std hash containers directly on a hot path; ordered
//! containers (`BTreeMap`/`BTreeSet`, used where iteration order is part of
//! the output contract, as in the Step 5 hazard lists) stay with `std`.
//!
//! The dense structures re-exported here all store packed `u64` words, and
//! each of their operations is one loop over those words: [`MintermSet`]
//! carries one bit per minterm, [`CoverIndex`] buckets carry one bit per
//! cube id, and cube words carry two bits per variable with fields never
//! straddling a word boundary.

pub use crate::bitset::MintermSet;
pub use crate::fxhash::FxHashMap as HashMap;
pub use crate::fxhash::FxHashSet as HashSet;
pub use crate::fxhash::{FxBuildHasher, FxHasher};
pub use crate::index::{CoverIndex, IndexedCover};

/// Support types for [`HashMap`] (the std map API types are hasher-generic,
/// so the std `Entry` works unchanged with the fx-hashed alias).
pub mod hash_map {
    pub use std::collections::hash_map::Entry;
}

#[cfg(test)]
mod tests {
    use super::{hash_map::Entry, HashMap, HashSet};

    #[test]
    fn facade_aliases_are_fx_hashed_and_entry_compatible() {
        let mut map: HashMap<&str, u32> = HashMap::default();
        match map.entry("k") {
            Entry::Vacant(v) => {
                v.insert(1);
            }
            Entry::Occupied(_) => unreachable!(),
        }
        *map.entry("k").or_insert(0) += 1;
        assert_eq!(map["k"], 2);

        let set: HashSet<u64> = (0..8).collect();
        assert_eq!(set.len(), 8);
    }
}
