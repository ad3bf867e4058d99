//! Dense minterm bitsets for covering algorithms.
//!
//! Petrick selection and the fsv generation all need "set of minterm
//! indices" with fast membership; a dense `u64` bitset beats the
//! `BTreeSet<u64>` it replaces by a wide margin on the ≤ 2²⁴-point spaces the
//! synthesis pipeline works in (one cache line per 512 minterms, O(1)
//! insert/contains, popcount-based size). Each set-algebra operation is one
//! loop over the word arrays, AND/OR plus popcount per word.

/// Number of set bits in a word array.
pub(crate) fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// A set of minterm indices over a fixed-size Boolean space.
#[derive(Clone, PartialEq, Eq)]
pub struct MintermSet {
    words: Vec<u64>,
    len: usize,
}

impl MintermSet {
    /// An empty set over a space of `capacity` minterms.
    pub fn new(capacity: u64) -> Self {
        MintermSet {
            words: vec![0; (capacity as usize).div_ceil(64)],
            len: 0,
        }
    }

    /// Build a set from an iterator of minterms over a `capacity`-point space.
    pub fn from_minterms(capacity: u64, minterms: impl IntoIterator<Item = u64>) -> Self {
        let mut set = Self::new(capacity);
        for m in minterms {
            set.insert(m);
        }
        set
    }

    /// The set whose backing words are `words` (64 minterms per word, low
    /// bit first), over a `64 · words.len()`-point space.
    pub fn from_words(words: Vec<u64>) -> Self {
        let len = popcount(&words);
        MintermSet { words, len }
    }

    /// Number of minterms the space can hold.
    pub fn capacity(&self) -> u64 {
        (self.words.len() * 64) as u64
    }

    /// Insert a minterm; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `minterm` exceeds the capacity.
    pub fn insert(&mut self, minterm: u64) -> bool {
        let (w, b) = (minterm as usize / 64, minterm % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        self.len += usize::from(fresh);
        fresh
    }

    /// Remove a minterm; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `minterm` exceeds the capacity.
    pub fn remove(&mut self, minterm: u64) -> bool {
        let (w, b) = (minterm as usize / 64, minterm % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        self.len -= usize::from(present);
        present
    }

    /// Membership test. Out-of-capacity indices are simply absent.
    pub fn contains(&self, minterm: u64) -> bool {
        self.words
            .get(minterm as usize / 64)
            .is_some_and(|w| w & (1 << (minterm % 64)) != 0)
    }

    /// Number of minterms in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set holds no minterms.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every minterm, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterate over the minterms in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            std::iter::successors(Some(w), |&w| Some(w & w.wrapping_sub(1)))
                .take_while(|&w| w != 0)
                .map(move |w| (i * 64 + w.trailing_zeros() as usize) as u64)
        })
    }

    /// The smallest minterm in the set, if any.
    pub fn first(&self) -> Option<u64> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| (i * 64 + self.words[i].trailing_zeros() as usize) as u64)
    }

    /// Whether the two sets share no minterm. Sets of different capacities
    /// are compared on their common prefix (the missing words of the shorter
    /// set are empty).
    pub fn is_disjoint(&self, other: &MintermSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Whether every minterm of `self` is in `other`. Words of `self` past
    /// `other`'s capacity must be empty.
    pub fn is_subset(&self, other: &MintermSet) -> bool {
        let common = self.words.len().min(other.words.len());
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
            && self.words[common..].iter().all(|&w| w == 0)
    }

    /// Whether the two sets hold exactly the same minterms, regardless of
    /// their capacities (unlike `==`, which also compares capacity).
    pub fn same_contents(&self, other: &MintermSet) -> bool {
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|&w| w == 0)
            && other.words[common..].iter().all(|&w| w == 0)
    }

    /// Number of minterms shared by the two sets.
    pub fn intersection_count(&self, other: &MintermSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Add every minterm of `other` to `self`, growing the capacity if
    /// `other` is wider.
    pub fn union_with(&mut self, other: &MintermSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        self.len = popcount(&self.words);
    }

    /// Remove every minterm of `other` from `self`.
    pub fn subtract(&mut self, other: &MintermSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        self.len = popcount(&self.words);
    }

    /// [`MintermSet::subtract`] that appends `(word index, previous word)`
    /// records for every changed word to `undo`, so the operation can be
    /// reversed with [`MintermSet::undo_subtract`] without cloning the set —
    /// the allocation-free pattern backtracking searches need.
    pub fn subtract_with_undo(&mut self, other: &MintermSet, undo: &mut Vec<(u32, u64)>) {
        for (i, (a, b)) in self.words.iter_mut().zip(&other.words).enumerate() {
            if *a & b != 0 {
                undo.push((i as u32, *a));
                *a &= !b;
            }
        }
        self.len = popcount(&self.words);
    }

    /// Restore the words recorded by [`MintermSet::subtract_with_undo`]
    /// (pass the same slice that call appended).
    pub fn undo_subtract(&mut self, undo: &[(u32, u64)]) {
        for &(i, w) in undo {
            self.words[i as usize] = w;
        }
        self.len = popcount(&self.words);
    }

    /// The backing words of the set (64 minterms per word, low bit first).
    /// Exposed so external engines can run their own word-granular sweeps —
    /// the Step-3 dichotomy index ORs these words into its candidate masks
    /// without re-walking the set bit by bit.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Hash the set contents (trailing empty words excluded, so the hash is
    /// consistent with [`MintermSet::same_contents`]).
    pub fn hash_contents<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash as _;
        let trimmed = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        self.words[..trimmed].hash(state);
    }
}

/// Lets the [`crate::covering`] solvers take a table of sets or of
/// references to sets.
impl AsRef<MintermSet> for MintermSet {
    fn as_ref(&self) -> &MintermSet {
        self
    }
}

impl<'a> IntoIterator for &'a MintermSet {
    type Item = u64;
    type IntoIter = Box<dyn Iterator<Item = u64> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl std::fmt::Debug for MintermSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_words_matches_from_minterms() {
        let minterms = [0u64, 5, 63, 64, 130];
        let set = MintermSet::from_words(vec![1 | 1 << 5 | 1 << 63, 1, 1 << 2]);
        assert_eq!(set, MintermSet::from_minterms(192, minterms));
        assert_eq!(set.len(), minterms.len());
        assert_eq!(set.iter().collect::<Vec<_>>(), minterms);
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = MintermSet::new(128);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(127));
        assert!(!s.insert(127), "double insert reports not-fresh");
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(127) && !s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let ms = [3u64, 64, 65, 100, 127];
        let s = MintermSet::from_minterms(128, ms.iter().copied());
        let got: Vec<u64> = s.iter().collect();
        assert_eq!(got, ms);
    }

    #[test]
    fn out_of_capacity_contains_is_false() {
        let s = MintermSet::new(64);
        assert!(!s.contains(1000));
    }

    #[test]
    fn clear_resets() {
        let mut s = MintermSet::from_minterms(64, [1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn set_algebra_ops() {
        let a = MintermSet::from_minterms(128, [1, 64, 100]);
        let b = MintermSet::from_minterms(128, [2, 64]);
        let c = MintermSet::from_minterms(128, [3, 70]);
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&c));
        assert!(b.is_disjoint(&c));
        assert_eq!(a.intersection_count(&b), 1);
        assert_eq!(a.intersection_count(&c), 0);
        assert!(MintermSet::from_minterms(128, [64]).is_subset(&a));
        assert!(!b.is_subset(&a));
        assert_eq!(a.first(), Some(1));
        assert_eq!(MintermSet::new(64).first(), None);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 64, 100]);
        assert_eq!(u.len(), 4);
        u.subtract(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 100]);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn subtract_with_undo_round_trips() {
        let original = MintermSet::from_minterms(192, [1, 64, 100, 130]);
        let other = MintermSet::from_minterms(192, [64, 100, 5]);
        let mut s = original.clone();
        let mut undo = Vec::new();
        s.subtract_with_undo(&other, &mut undo);
        let mut expected = original.clone();
        expected.subtract(&other);
        assert_eq!(s, expected);
        s.undo_subtract(&undo);
        assert_eq!(s, original);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn capacity_mismatch_is_tolerated() {
        let narrow = MintermSet::from_minterms(64, [3]);
        let wide = MintermSet::from_minterms(256, [3, 200]);
        assert!(narrow.is_subset(&wide));
        assert!(!wide.is_subset(&narrow));
        assert!(!narrow.is_disjoint(&wide));
        assert!(!narrow.same_contents(&wide));
        assert!(narrow.same_contents(&MintermSet::from_minterms(256, [3])));

        let mut grown = narrow.clone();
        grown.union_with(&wide);
        assert_eq!(grown.iter().collect::<Vec<_>>(), vec![3, 200]);
    }
}
