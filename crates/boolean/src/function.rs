use crate::{BooleanError, Cover, Cube};

/// Maximum variable count supported by the dense truth-table representation.
///
/// SEANCE operates on `inputs + state variables (+ fsv)`; the MCNC-style
/// benchmarks stay well below this bound.
pub const MAX_DENSE_VARS: usize = 24;

/// A (possibly incompletely specified) Boolean function over `n` variables,
/// stored densely as an on-set and a don't-care set.
///
/// Minterm index convention: variable 0 is the most significant bit.
///
/// # Example
///
/// ```
/// use fantom_boolean::Function;
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// let f = Function::from_on_dc(3, &[0, 1], &[7])?;
/// assert!(f.is_on(0));
/// assert!(f.is_dc(7));
/// assert!(f.is_off(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    num_vars: usize,
    on: Vec<u64>,
    dc: Vec<u64>,
}

fn bitset_len(num_vars: usize) -> usize {
    let bits = 1usize << num_vars;
    bits.div_ceil(64)
}

fn set(words: &mut [u64], idx: u64) {
    words[(idx / 64) as usize] |= 1 << (idx % 64);
}

fn get(words: &[u64], idx: u64) -> bool {
    (words[(idx / 64) as usize] >> (idx % 64)) & 1 == 1
}

impl Function {
    /// An everywhere-false (empty on-set, empty don't-care set) function.
    ///
    /// # Errors
    ///
    /// Returns [`BooleanError::TooManyVariables`] if `num_vars` exceeds
    /// [`MAX_DENSE_VARS`].
    pub fn constant_false(num_vars: usize) -> Result<Self, BooleanError> {
        if num_vars > MAX_DENSE_VARS {
            return Err(BooleanError::TooManyVariables(num_vars));
        }
        Ok(Function {
            num_vars,
            on: vec![0; bitset_len(num_vars)],
            dc: vec![0; bitset_len(num_vars)],
        })
    }

    /// An everywhere-don't-care function: the completely unspecified function
    /// over `num_vars` variables. Fills the don't-care bitset word-parallel
    /// instead of one `set_dc` call per minterm.
    ///
    /// # Errors
    ///
    /// Returns [`BooleanError::TooManyVariables`] if `num_vars` exceeds
    /// [`MAX_DENSE_VARS`].
    pub fn constant_dc(num_vars: usize) -> Result<Self, BooleanError> {
        let mut f = Self::constant_false(num_vars)?;
        let bits = f.space_size();
        for (i, w) in f.dc.iter_mut().enumerate() {
            let remaining = bits - (i as u64) * 64;
            *w = if remaining >= 64 {
                !0u64
            } else {
                (1u64 << remaining) - 1
            };
        }
        Ok(f)
    }

    /// Build a completely specified function from its on-set minterms.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_vars` is too large or a minterm is out of range.
    pub fn from_on_set(num_vars: usize, on: &[u64]) -> Result<Self, BooleanError> {
        Self::from_on_dc(num_vars, on, &[])
    }

    /// Build an incompletely specified function from on-set and don't-care minterms.
    ///
    /// A minterm listed in both sets is treated as a don't-care.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_vars` is too large or a minterm is out of range.
    pub fn from_on_dc(num_vars: usize, on: &[u64], dc: &[u64]) -> Result<Self, BooleanError> {
        let mut f = Self::constant_false(num_vars)?;
        let limit = 1u64 << num_vars;
        for &m in on {
            if m >= limit {
                return Err(BooleanError::MintermOutOfRange {
                    minterm: m,
                    num_vars,
                });
            }
            set(&mut f.on, m);
        }
        for &m in dc {
            if m >= limit {
                return Err(BooleanError::MintermOutOfRange {
                    minterm: m,
                    num_vars,
                });
            }
            set(&mut f.dc, m);
            // don't-care wins over on
            f.on[(m / 64) as usize] &= !(1 << (m % 64));
        }
        Ok(f)
    }

    /// Build a function from a cover (on-set) and an optional don't-care cover.
    ///
    /// # Errors
    ///
    /// Returns [`BooleanError::TooManyVariables`] if the cover width exceeds
    /// [`MAX_DENSE_VARS`].
    pub fn from_cover(on: &Cover, dc: Option<&Cover>) -> Result<Self, BooleanError> {
        let mut f = Self::constant_false(on.num_vars())?;
        for cube in on.cubes() {
            for m in cube.minterms() {
                set(&mut f.on, m);
            }
        }
        if let Some(dc) = dc {
            for cube in dc.cubes() {
                for m in cube.minterms() {
                    set(&mut f.dc, m);
                    f.on[(m / 64) as usize] &= !(1 << (m % 64));
                }
            }
        }
        Ok(f)
    }

    /// Number of variables the function is defined over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of minterms in the space (`2^n`).
    pub fn space_size(&self) -> u64 {
        1u64 << self.num_vars
    }

    /// `true` if `minterm` belongs to the on-set.
    pub fn is_on(&self, minterm: u64) -> bool {
        get(&self.on, minterm)
    }

    /// `true` if `minterm` belongs to the don't-care set.
    pub fn is_dc(&self, minterm: u64) -> bool {
        get(&self.dc, minterm)
    }

    /// `true` if `minterm` belongs to the off-set.
    pub fn is_off(&self, minterm: u64) -> bool {
        !self.is_on(minterm) && !self.is_dc(minterm)
    }

    /// On-set minterms in increasing order, as a lazy word-skipping iterator
    /// over the backing bitset: whole zero words are skipped with a single
    /// compare and set bits are popped with `trailing_zeros`, so sparse
    /// functions over large spaces never pay the full `2^n` membership scan.
    pub fn on_minterms(&self) -> Minterms<'_> {
        Minterms::new(self, SetKind::On)
    }

    /// Don't-care minterms in increasing order (word-skipping iterator).
    pub fn dc_minterms(&self) -> Minterms<'_> {
        Minterms::new(self, SetKind::Dc)
    }

    /// Off-set minterms in increasing order (word-skipping iterator).
    pub fn off_minterms(&self) -> Minterms<'_> {
        Minterms::new(self, SetKind::Off)
    }

    /// Number of on-set minterms.
    pub fn on_count(&self) -> u64 {
        self.on.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Mark `minterm` as part of the on-set (clearing any don't-care mark).
    ///
    /// # Panics
    ///
    /// Panics if the minterm is out of range.
    pub fn set_on(&mut self, minterm: u64) {
        assert!(minterm < self.space_size(), "minterm out of range");
        set(&mut self.on, minterm);
        self.dc[(minterm / 64) as usize] &= !(1 << (minterm % 64));
    }

    /// Mark `minterm` as a don't-care (clearing any on-set mark).
    ///
    /// # Panics
    ///
    /// Panics if the minterm is out of range.
    pub fn set_dc(&mut self, minterm: u64) {
        assert!(minterm < self.space_size(), "minterm out of range");
        set(&mut self.dc, minterm);
        self.on[(minterm / 64) as usize] &= !(1 << (minterm % 64));
    }

    /// Mark `minterm` as part of the off-set.
    ///
    /// # Panics
    ///
    /// Panics if the minterm is out of range.
    pub fn set_off(&mut self, minterm: u64) {
        assert!(minterm < self.space_size(), "minterm out of range");
        self.on[(minterm / 64) as usize] &= !(1 << (minterm % 64));
        self.dc[(minterm / 64) as usize] &= !(1 << (minterm % 64));
    }

    /// Whether `cover` is a *valid implementation* of this function:
    /// it covers every on-set minterm and never intersects the off-set.
    ///
    /// Walks only the on- and off-sets through the word-skipping minterm
    /// iterators (don't-cares — the bulk of a flow-table function — are never
    /// visited), and pre-filters each membership scan with the cover's
    /// signature supercube: a minterm outside the signature is provably
    /// uncovered without touching a single cube.
    pub fn implemented_by(&self, cover: &Cover) -> bool {
        if cover.num_vars() != self.num_vars {
            return false;
        }
        let Some(signature) = cover.signature() else {
            // Empty cover: valid iff the on-set is empty.
            return self.on_minterms().next().is_none();
        };
        for m in self.on_minterms() {
            if !signature.contains_minterm(m) || !cover.covers_minterm(m) {
                return false;
            }
        }
        for m in self.off_minterms() {
            if signature.contains_minterm(m) && cover.covers_minterm(m) {
                return false;
            }
        }
        true
    }

    /// Whether a single cube lies entirely within `on ∪ dc`.
    pub fn admits_cube(&self, cube: &Cube) -> bool {
        cube.minterms_iter().all(|m| !self.is_off(m))
    }

    /// Whether the cube covers at least one on-set minterm. Enumerates the
    /// cube's minterms lazily, so it exits on the first hit.
    pub fn cube_intersects_on(&self, cube: &Cube) -> bool {
        cube.minterms_iter().any(|m| self.is_on(m))
    }
}

impl Cover {
    /// Check that this cover implements `f` (covers its on-set, avoids its off-set).
    pub fn equivalent_to(&self, f: &Function) -> bool {
        f.implemented_by(self)
    }
}

/// Which of the three partition sets a [`Minterms`] iterator walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetKind {
    On,
    Dc,
    Off,
}

/// Word-skipping iterator over one partition set of a [`Function`]
/// (see [`Function::on_minterms`]). Yields minterms in increasing order.
#[derive(Debug, Clone)]
pub struct Minterms<'a> {
    function: &'a Function,
    kind: SetKind,
    /// Index of the word `bits` was loaded from.
    word_idx: usize,
    /// Remaining (unpopped) bits of the current word.
    bits: u64,
}

impl<'a> Minterms<'a> {
    fn new(function: &'a Function, kind: SetKind) -> Self {
        let mut iter = Minterms {
            function,
            kind,
            word_idx: 0,
            bits: 0,
        };
        iter.bits = iter.load(0);
        iter
    }

    /// The masked word at `idx` for this set, or 0 past the end.
    fn load(&self, idx: usize) -> u64 {
        let Some(&on) = self.function.on.get(idx) else {
            return 0;
        };
        let dc = self.function.dc[idx];
        match self.kind {
            SetKind::On => on,
            SetKind::Dc => dc,
            SetKind::Off => {
                // Bits past the space size are padding inside the last word
                // (only possible below 6 variables) and must not be reported.
                let valid = self.function.space_size() - (idx as u64) * 64;
                let mask = if valid >= 64 {
                    !0u64
                } else {
                    (1u64 << valid) - 1
                };
                !(on | dc) & mask
            }
        }
    }
}

impl Iterator for Minterms<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.bits == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.function.on.len() {
                return None;
            }
            self.bits = self.load(self.word_idx);
        }
        let bit = self.bits.trailing_zeros() as u64;
        self.bits &= self.bits - 1;
        Some((self.word_idx as u64) * 64 + bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let mut left = self.bits.count_ones() as usize;
        for idx in self.word_idx + 1..self.function.on.len() {
            left += self.load(idx).count_ones() as usize;
        }
        (left, Some(left))
    }
}

impl ExactSizeIterator for Minterms<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_dc_off_partition() {
        let f = Function::from_on_dc(3, &[0, 1, 2], &[6, 7]).unwrap();
        assert_eq!(f.on_minterms().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(f.dc_minterms().collect::<Vec<_>>(), vec![6, 7]);
        assert_eq!(f.off_minterms().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(f.on_count(), 3);
    }

    #[test]
    fn dc_overrides_on() {
        let f = Function::from_on_dc(2, &[1, 2], &[2]).unwrap();
        assert!(f.is_dc(2));
        assert!(!f.is_on(2));
    }

    #[test]
    fn rejects_out_of_range_minterms() {
        assert!(Function::from_on_set(2, &[4]).is_err());
        assert!(Function::from_on_dc(2, &[], &[5]).is_err());
    }

    #[test]
    fn rejects_too_many_variables() {
        assert!(Function::constant_false(MAX_DENSE_VARS + 1).is_err());
    }

    #[test]
    fn from_cover_matches_membership() {
        let cover = Cover::from_cubes(
            3,
            vec![Cube::parse("1--").unwrap(), Cube::parse("-01").unwrap()],
        );
        let f = Function::from_cover(&cover, None).unwrap();
        for m in 0..8u64 {
            assert_eq!(f.is_on(m), cover.covers_minterm(m), "minterm {m}");
        }
    }

    #[test]
    fn implemented_by_checks_both_directions() {
        let f = Function::from_on_dc(2, &[0, 1], &[2]).unwrap();
        // 0- covers {00,01}: valid (dc 10 not required).
        let good = Cover::from_cubes(2, vec![Cube::parse("0-").unwrap()]);
        assert!(f.implemented_by(&good));
        // -0 covers {00,10}: misses on-set minterm 01.
        let missing = Cover::from_cubes(2, vec![Cube::parse("-0").unwrap()]);
        assert!(!f.implemented_by(&missing));
        // universe covers off-set minterm 11.
        let over = Cover::from_cubes(2, vec![Cube::universe(2)]);
        assert!(!f.implemented_by(&over));
    }

    #[test]
    fn minterm_iterators_match_membership_scan() {
        // Exercise multi-word bitsets (8 vars = 4 words) with sparse sets, so
        // the word-skipping path actually skips.
        let on = [0u64, 63, 64, 130, 255];
        let dc = [1u64, 65, 192];
        let f = Function::from_on_dc(8, &on, &dc).unwrap();
        let scan = |pred: &dyn Fn(u64) -> bool| -> Vec<u64> {
            (0..f.space_size()).filter(|&m| pred(m)).collect()
        };
        assert_eq!(f.on_minterms().collect::<Vec<_>>(), scan(&|m| f.is_on(m)));
        assert_eq!(f.dc_minterms().collect::<Vec<_>>(), scan(&|m| f.is_dc(m)));
        assert_eq!(f.off_minterms().collect::<Vec<_>>(), scan(&|m| f.is_off(m)));
        assert_eq!(f.on_minterms().len(), on.len());
        // Sub-word spaces must mask the padding bits of the last word.
        let small = Function::from_on_dc(2, &[1], &[2]).unwrap();
        assert_eq!(small.off_minterms().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn mutators_update_partition() {
        let mut f = Function::constant_false(2).unwrap();
        f.set_on(3);
        assert!(f.is_on(3));
        f.set_dc(3);
        assert!(f.is_dc(3) && !f.is_on(3));
        f.set_off(3);
        assert!(f.is_off(3));
    }
}
