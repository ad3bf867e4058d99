use std::fmt;

use crate::lane;
use crate::BooleanError;

/// Value of a single variable position inside a [`Cube`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Literal {
    /// The variable appears complemented (`x'`).
    Zero,
    /// The variable appears uncomplemented (`x`).
    One,
    /// The variable does not appear in the product term.
    DontCare,
}

impl Literal {
    /// Character used by the positional-cube text format.
    pub fn to_char(self) -> char {
        match self {
            Literal::Zero => '0',
            Literal::One => '1',
            Literal::DontCare => '-',
        }
    }

    /// Parse a positional-cube character.
    ///
    /// # Errors
    ///
    /// Returns [`BooleanError::InvalidCubeCharacter`] for anything other than
    /// `0`, `1` or `-`.
    pub fn from_char(c: char) -> Result<Self, BooleanError> {
        match c {
            '0' => Ok(Literal::Zero),
            '1' => Ok(Literal::One),
            '-' => Ok(Literal::DontCare),
            other => Err(BooleanError::InvalidCubeCharacter(other)),
        }
    }

    /// Whether a concrete bit value is compatible with this literal.
    pub fn matches(self, bit: bool) -> bool {
        match self {
            Literal::Zero => !bit,
            Literal::One => bit,
            Literal::DontCare => true,
        }
    }

    /// The espresso-style 2-bit field encoding of this literal
    /// (`can-be-1` in the high bit, `can-be-0` in the low bit).
    fn field(self) -> u64 {
        match self {
            Literal::Zero => 0b01,
            Literal::One => 0b10,
            Literal::DontCare => 0b11,
        }
    }

    /// Decode a 2-bit field back into a literal.
    ///
    /// # Panics
    ///
    /// Panics on the empty field `0b00`, which no well-formed cube contains.
    fn from_field(f: u64) -> Self {
        match f {
            0b01 => Literal::Zero,
            0b10 => Literal::One,
            0b11 => Literal::DontCare,
            _ => unreachable!("empty cube field"),
        }
    }
}

/// Number of variable fields per packed 64-bit word.
const SLOTS_PER_WORD: usize = 32;

/// Mask of every low ("can-be-0") field bit.
const LO_BITS: u64 = 0x5555_5555_5555_5555;

/// Storage for the packed fields: cubes of at most [`SLOTS_PER_WORD`]
/// variables (every MCNC-scale benchmark) live in a single inline word and
/// never touch the heap; wider cubes spill into a boxed word slice.
#[derive(Debug, Clone)]
enum Repr {
    Inline(u64),
    Heap(Box<[u64]>),
}

/// A product term (cube) over a fixed, ordered set of Boolean variables.
///
/// Variable 0 is the **most significant** bit of a minterm index, matching the
/// row/column ordering conventions used by the flow-table crates.
///
/// Internally the cube is bit-packed, two bits per variable (see the crate
/// docs for the exact layout), so containment, intersection, conflict
/// counting and adjacency merging are word-parallel bit operations rather
/// than per-literal loops.
///
/// # Example
///
/// ```
/// use fantom_boolean::Cube;
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// let c = Cube::parse("1-0")?;
/// assert_eq!(c.num_vars(), 3);
/// assert!(c.contains_minterm(0b100));
/// assert!(c.contains_minterm(0b110));
/// assert!(!c.contains_minterm(0b101));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Cube {
    num_vars: usize,
    repr: Repr,
}

/// Number of packed words needed for `num_vars` variables (at least one, so
/// the zero-variable cube still has canonical storage).
fn word_count(num_vars: usize) -> usize {
    num_vars.div_ceil(SLOTS_PER_WORD).max(1)
}

/// Mask selecting the field bits of word `word_idx` that belong to real
/// variables of an `num_vars`-wide cube (fields are allocated from the top of
/// the word down).
fn valid_mask(num_vars: usize, word_idx: usize) -> u64 {
    let used = num_vars
        .saturating_sub(word_idx * SLOTS_PER_WORD)
        .min(SLOTS_PER_WORD);
    if used == 0 {
        0
    } else {
        !0u64 << (64 - 2 * used)
    }
}

/// Spread the 32 bits of `x` to the even bit positions of a `u64`
/// (bit `j` of `x` moves to bit `2j`).
fn spread(x: u32) -> u64 {
    let mut x = u64::from(x);
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & LO_BITS;
    x
}

/// Extract the 32-bit chunk of `source` holding the bits of variables
/// `word_idx*32 ..` for an `num_vars`-wide cube, aligned so the word's first
/// variable sits in chunk bit 31. `source` uses the minterm convention
/// (variable `v` at bit `num_vars - 1 - v`). Bits beyond the cube width are
/// garbage and must be masked by the caller.
fn chunk(num_vars: usize, source: u64, word_idx: usize) -> u32 {
    let top = num_vars - word_idx * SLOTS_PER_WORD;
    if top >= 32 {
        (source >> (top - 32)) as u32
    } else {
        (source << (32 - top)) as u32
    }
}

/// The packed word a minterm contributes for word `word_idx`: each variable's
/// field holds `10` where the minterm bit is 1 and `01` where it is 0, with
/// padding fields left empty (`00`).
fn minterm_word(num_vars: usize, minterm: u64, word_idx: usize) -> u64 {
    let c = chunk(num_vars, minterm, word_idx);
    let word = (spread(c) << 1) | spread(!c);
    word & valid_mask(num_vars, word_idx)
}

impl Cube {
    /// Word-wise AND of two same-width cubes (the constructive step of
    /// intersection). Inline cubes stay allocation-free; heap cubes run the
    /// [`lane`] kernel.
    #[inline]
    fn and_cube(&self, other: &Cube) -> Cube {
        debug_assert_eq!(self.num_vars, other.num_vars);
        let repr = match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => Repr::Inline(a & b),
            _ => {
                let mut out: Box<[u64]> = self.words().into();
                lane::and_into(&mut out, other.words());
                Repr::Heap(out)
            }
        };
        Cube {
            num_vars: self.num_vars,
            repr,
        }
    }

    /// Word-wise OR of two same-width cubes (supercube / adjacency merge).
    #[inline]
    fn or_cube(&self, other: &Cube) -> Cube {
        debug_assert_eq!(self.num_vars, other.num_vars);
        let repr = match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => Repr::Inline(a | b),
            _ => {
                let mut out: Box<[u64]> = self.words().into();
                lane::or_into(&mut out, other.words());
                Repr::Heap(out)
            }
        };
        Cube {
            num_vars: self.num_vars,
            repr,
        }
    }

    /// The packed words of the cube (two bits per variable).
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => std::slice::from_ref(w),
            Repr::Heap(ws) => ws,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(w) => std::slice::from_mut(w),
            Repr::Heap(ws) => ws,
        }
    }

    /// Create a cube from an explicit literal vector.
    pub fn new(lits: Vec<Literal>) -> Self {
        let mut cube = Cube::universe(lits.len());
        for (v, lit) in lits.into_iter().enumerate() {
            cube.set_literal(v, lit);
        }
        cube
    }

    /// The universal cube (all positions don't-care) over `num_vars` variables.
    pub fn universe(num_vars: usize) -> Self {
        // All fields (including padding) are `11`, the canonical form.
        let repr = if num_vars <= SLOTS_PER_WORD {
            Repr::Inline(!0u64)
        } else {
            Repr::Heap(vec![!0u64; word_count(num_vars)].into_boxed_slice())
        };
        Cube { num_vars, repr }
    }

    /// Parse a positional-cube string such as `"1-0"`.
    ///
    /// # Errors
    ///
    /// Returns [`BooleanError::InvalidCubeCharacter`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, BooleanError> {
        let mut cube = Cube::universe(s.chars().count());
        for (v, c) in s.chars().enumerate() {
            cube.set_literal(v, Literal::from_char(c)?);
        }
        Ok(cube)
    }

    /// Build the minterm cube for index `minterm` over `num_vars` variables.
    ///
    /// # Errors
    ///
    /// Returns [`BooleanError::MintermOutOfRange`] if the index does not fit.
    pub fn from_minterm(num_vars: usize, minterm: u64) -> Result<Self, BooleanError> {
        if num_vars < 64 && minterm >= (1u64 << num_vars) {
            return Err(BooleanError::MintermOutOfRange { minterm, num_vars });
        }
        if num_vars == 0 {
            return Ok(Cube::universe(0));
        }
        let full = if num_vars >= 64 {
            !0u64
        } else {
            (1u64 << num_vars) - 1
        };
        Ok(Self::from_mask_value(num_vars, full, minterm))
    }

    /// Build a cube from the compact `(mask, value)` encoding used by the
    /// Quine–McCluskey tabulation: `mask` has a 1 at bit `num_vars - 1 - v`
    /// for every **bound** variable `v`, and `value` holds the bound values at
    /// the same positions. Unbound positions become don't-cares; `value` bits
    /// outside `mask` are ignored.
    ///
    /// Only meaningful for cubes of at most 64 variables (the width of the
    /// mask words).
    pub fn from_mask_value(num_vars: usize, mask: u64, value: u64) -> Self {
        assert!(
            num_vars <= 64,
            "mask/value encoding only spans 64 variables"
        );
        if num_vars == 0 {
            return Cube::universe(0);
        }
        let bound_ones = value & mask;
        // can-be-1: unbound, or bound to 1; can-be-0: unbound, or bound to 0.
        let hi_src = bound_ones | !mask;
        let lo_src = !bound_ones;
        let pack = |i: usize| {
            let valid = valid_mask(num_vars, i);
            let word =
                (spread(chunk(num_vars, hi_src, i)) << 1) | spread(chunk(num_vars, lo_src, i));
            (word & valid) | !valid
        };
        let repr = if num_vars <= SLOTS_PER_WORD {
            Repr::Inline(pack(0))
        } else {
            Repr::Heap((0..word_count(num_vars)).map(pack).collect())
        };
        Cube { num_vars, repr }
    }

    /// Number of variables this cube is defined over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The 2-bit field shift of variable `var` within its word.
    fn shift(var: usize) -> u32 {
        (62 - 2 * (var % SLOTS_PER_WORD)) as u32
    }

    /// The literal at variable position `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_vars()`.
    pub fn literal(&self, var: usize) -> Literal {
        assert!(var < self.num_vars, "variable index out of range");
        let word = self.words()[var / SLOTS_PER_WORD];
        Literal::from_field((word >> Self::shift(var)) & 0b11)
    }

    /// Overwrite the literal at position `var` in place.
    fn set_literal(&mut self, var: usize, lit: Literal) {
        debug_assert!(var < self.num_vars);
        let shift = Self::shift(var);
        let word = &mut self.words_mut()[var / SLOTS_PER_WORD];
        *word = (*word & !(0b11 << shift)) | (lit.field() << shift);
    }

    /// Replace the literal at position `var`, returning a new cube.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_vars()`.
    pub fn with_literal(&self, var: usize, lit: Literal) -> Cube {
        assert!(var < self.num_vars, "variable index out of range");
        let mut cube = self.clone();
        cube.set_literal(var, lit);
        cube
    }

    /// Iterate over the literals in variable order.
    pub fn literals(&self) -> impl Iterator<Item = Literal> + '_ {
        (0..self.num_vars).map(move |v| self.literal(v))
    }

    /// Number of non-don't-care positions (the literal count of the product term).
    pub fn literal_count(&self) -> usize {
        let dc: u32 = self
            .words()
            .iter()
            .enumerate()
            .map(|(i, &w)| (w & (w >> 1) & LO_BITS & valid_mask(self.num_vars, i)).count_ones())
            .sum();
        self.num_vars - dc as usize
    }

    /// Number of positions bound to [`Literal::One`].
    pub fn ones_count(&self) -> usize {
        self.words()
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                ((w >> 1) & !w & LO_BITS & valid_mask(self.num_vars, i)).count_ones() as usize
            })
            .sum()
    }

    /// `true` if every position is a don't-care.
    pub fn is_universe(&self) -> bool {
        // Padding fields are canonically `11`, so the universe is all-ones.
        lane::all_ones(self.words())
    }

    /// `true` if the cube binds every variable (covers exactly one minterm).
    pub fn is_minterm(&self) -> bool {
        self.literal_count() == self.num_vars
    }

    /// Number of minterms covered by this cube (`2^(free positions)`).
    ///
    /// # Panics
    ///
    /// Panics if the cube has 64 or more free positions — the count would not
    /// fit in a `u64` (dense-function workloads stay below 24 variables).
    pub fn minterm_count(&self) -> u64 {
        let free = self.num_vars - self.literal_count();
        assert!(
            free < 64,
            "minterm count of a cube with {free} free variables overflows u64"
        );
        1u64 << free
    }

    /// Whether the cube covers the given minterm index.
    pub fn contains_minterm(&self, minterm: u64) -> bool {
        debug_assert!(self.num_vars <= 64);
        self.words()
            .iter()
            .enumerate()
            .all(|(i, &w)| minterm_word(self.num_vars, minterm, i) & !w == 0)
    }

    /// Whether this cube covers (is a superset of) `other`.
    pub fn covers(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => b & !a == 0,
            _ => lane::cube_covers(self.words(), other.words()),
        }
    }

    /// Intersection of two cubes, or `None` if they are disjoint.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.num_vars, other.num_vars);
        // A variable whose field becomes empty (00) witnesses a 0/1 conflict.
        // Padding fields stay 11, so no mask is needed.
        let conflict = match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                let t = a & b;
                !(t | (t >> 1)) & LO_BITS != 0
            }
            _ => lane::cube_has_conflict(self.words(), other.words()),
        };
        if conflict {
            return None;
        }
        Some(self.and_cube(other))
    }

    /// Number of positions where the cubes conflict (one bound to 0, the other
    /// to 1). Also known as the *distance* between the cubes.
    pub fn conflict_count(&self, other: &Cube) -> usize {
        debug_assert_eq!(self.num_vars, other.num_vars);
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                let t = a & b;
                (!(t | (t >> 1)) & LO_BITS).count_ones() as usize
            }
            _ => lane::cube_conflict_count(self.words(), other.words()),
        }
    }

    /// Alias of [`Cube::conflict_count`] under its classical name.
    pub fn distance(&self, other: &Cube) -> usize {
        self.conflict_count(other)
    }

    /// The consensus of two cubes: if they conflict in exactly one variable,
    /// the cube obtained by freeing that variable and intersecting the rest
    /// (the classical consensus term `ab' ∨ a'c ⊢ bc`). `None` when the
    /// distance is not exactly 1.
    ///
    /// Part of the kernel's word-parallel op set; note that the hazard
    /// remover ([`crate::hazard::add_consensus_terms_on_pairs`])
    /// intentionally builds its consensus gates by prime expansion instead,
    /// so the added terms are maximal.
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.num_vars, other.num_vars);
        if self.conflict_count(other) != 1 {
            return None;
        }
        // Intersect and re-open the single conflicting field to don't-care.
        let repr = match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                let t = a & b;
                let empty_lo = !(t | (t >> 1)) & LO_BITS;
                Repr::Inline(t | empty_lo | (empty_lo << 1))
            }
            _ => {
                let mut out: Box<[u64]> = self.words().into();
                lane::cube_consensus_into(&mut out, other.words());
                Repr::Heap(out)
            }
        };
        Some(Cube {
            num_vars: self.num_vars,
            repr,
        })
    }

    /// Attempt the Quine–McCluskey adjacency merge: if the cubes have identical
    /// don't-care positions and differ in exactly one bound position, return
    /// the merged cube with that position freed.
    pub fn combine_adjacent(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.num_vars, other.num_vars);
        // The XOR of the packed words is nonzero only where the cubes differ.
        // A legal merge differs in exactly one field, and that field must be
        // the pair 01/10 (so its XOR is 11): two set bits, in the same field.
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &other.repr) {
            let d = a ^ b;
            if d.count_ones() != 2 || d & (d >> 1) & LO_BITS == 0 {
                return None;
            }
            return Some(Cube {
                num_vars: self.num_vars,
                repr: Repr::Inline(a | b),
            });
        }
        let mut diff_word = 0u64;
        let mut diff_bits = 0u32;
        for (&a, &b) in self.words().iter().zip(other.words()) {
            let d = a ^ b;
            if d != 0 {
                if diff_bits != 0 {
                    return None; // differences in more than one word
                }
                diff_word = d;
                diff_bits = d.count_ones();
            }
        }
        if diff_bits != 2 || diff_word & (diff_word >> 1) & LO_BITS == 0 {
            return None;
        }
        Some(self.or_cube(other))
    }

    /// Smallest cube containing both operands.
    pub fn supercube(&self, other: &Cube) -> Cube {
        self.or_cube(other)
    }

    /// The cofactor of this cube with respect to `var = value`: `None` if the
    /// cube is incompatible with the assignment (bound to the opposite
    /// value), otherwise the cube with `var` freed (the Shannon cofactor of a
    /// product term does not mention the cofactoring variable).
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_vars()`.
    pub fn cofactor(&self, var: usize, value: bool) -> Option<Cube> {
        match (self.literal(var), value) {
            (Literal::Zero, true) | (Literal::One, false) => None,
            _ => Some(self.with_literal(var, Literal::DontCare)),
        }
    }

    /// The disjoint sharp `self # other`: a set of pairwise-disjoint cubes
    /// whose union is exactly the points of `self` not covered by `other`.
    ///
    /// For every variable bound by `other` but free in `self`, one result
    /// cube flips that position to the opposite literal while pinning the
    /// previously-visited positions to `other`'s value — the classical
    /// disjoint-sharp recurrence, realised iteratively.
    pub fn sharp(&self, other: &Cube) -> Vec<Cube> {
        debug_assert_eq!(self.num_vars, other.num_vars);
        if self.intersect(other).is_none() {
            return vec![self.clone()];
        }
        if other.covers(self) {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut prefix = self.clone();
        for var in 0..self.num_vars {
            let ol = other.literal(var);
            if ol == Literal::DontCare {
                continue;
            }
            if self.literal(var) == Literal::DontCare {
                let flipped = match ol {
                    Literal::Zero => Literal::One,
                    Literal::One => Literal::Zero,
                    Literal::DontCare => unreachable!(),
                };
                out.push(prefix.with_literal(var, flipped));
                prefix.set_literal(var, ol);
            }
        }
        out
    }

    /// Enumerate the minterm indices covered by this cube, in increasing order.
    pub fn minterms(&self) -> Vec<u64> {
        self.minterms_iter().collect()
    }

    /// Lazily enumerate the minterm indices covered by this cube, in
    /// increasing order. Prefer this over [`Cube::minterms`] in any-/all-style
    /// scans so the enumeration can stop early.
    ///
    /// # Panics
    ///
    /// Panics if the cube has 64 or more free positions (the enumeration
    /// length would not fit in a `u64`).
    pub fn minterms_iter(&self) -> MintermIter {
        debug_assert!(self.num_vars <= 64);
        let n = self.num_vars;
        let mut base = 0u64;
        let mut free_bits = Vec::new();
        // Walk variables from highest index (lowest minterm weight) down so
        // `free_bits` ends up sorted ascending and the enumeration is ordered.
        for v in (0..n).rev() {
            let weight = 1u64 << (n - 1 - v);
            match self.literal(v) {
                Literal::One => base |= weight,
                Literal::DontCare => free_bits.push(weight),
                Literal::Zero => {}
            }
        }
        assert!(
            free_bits.len() < 64,
            "a cube with {} free variables cannot be enumerated",
            free_bits.len()
        );
        let total = 1u64 << free_bits.len();
        MintermIter {
            base,
            free_bits,
            combo: 0,
            total,
        }
    }

    /// Evaluate the cube on a concrete assignment given as a bit slice
    /// (index 0 = variable 0).
    pub fn eval(&self, bits: &[bool]) -> bool {
        debug_assert_eq!(bits.len(), self.num_vars);
        if self.num_vars <= 64 {
            let mut m = 0u64;
            for &b in bits {
                m = (m << 1) | u64::from(b);
            }
            self.contains_minterm(m)
        } else {
            bits.iter()
                .enumerate()
                .all(|(v, &b)| self.literal(v).matches(b))
        }
    }
}

/// Sharp every cube of `pieces` by `sub`, double-buffering through `next`
/// (allocations are reused; disjoint pieces are moved, not cloned). Returns
/// `false` when nothing is left — the workhorse of the indexed subtraction
/// loops in `cover` and `hazard`.
pub(crate) fn sharp_pieces(pieces: &mut Vec<Cube>, next: &mut Vec<Cube>, sub: &Cube) -> bool {
    next.clear();
    for p in pieces.drain(..) {
        if p.intersect(sub).is_none() {
            next.push(p);
        } else {
            next.extend(p.sharp(sub));
        }
    }
    std::mem::swap(pieces, next);
    !pieces.is_empty()
}

/// Ordered enumeration of the minterms of a cube (see [`Cube::minterms_iter`]).
#[derive(Debug, Clone)]
pub struct MintermIter {
    base: u64,
    free_bits: Vec<u64>,
    combo: u64,
    total: u64,
}

impl Iterator for MintermIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.combo >= self.total {
            return None;
        }
        let mut m = self.base;
        let mut c = self.combo;
        while c != 0 {
            let j = c.trailing_zeros() as usize;
            m |= self.free_bits[j];
            c &= c - 1;
        }
        self.combo += 1;
        Some(m)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.total - self.combo) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for MintermIter {}

impl PartialEq for Cube {
    fn eq(&self, other: &Self) -> bool {
        self.num_vars == other.num_vars && self.words() == other.words()
    }
}

impl Eq for Cube {}

impl std::hash::Hash for Cube {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.num_vars.hash(state);
        for w in self.words() {
            w.hash(state);
        }
    }
}

impl PartialOrd for Cube {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cube {
    /// Lexicographic by variable position with `Zero < One < DontCare`,
    /// matching the ordering of the literal-vector representation this kernel
    /// replaced. The packed field values (01 < 10 < 11) preserve the literal
    /// order and variable 0 occupies the most significant field, so plain
    /// word comparison realises the lexicographic order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.words()
            .cmp(other.words())
            .then(self.num_vars.cmp(&other.num_vars))
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for lit in self.literals() {
            write!(f, "{}", lit.to_char())?;
        }
        Ok(())
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube(\"{self}\")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let c = Cube::parse("10-1-").unwrap();
        assert_eq!(c.to_string(), "10-1-");
        assert_eq!(c.num_vars(), 5);
        assert_eq!(c.literal_count(), 3);
    }

    #[test]
    fn parse_rejects_bad_characters() {
        assert!(matches!(
            Cube::parse("10x"),
            Err(BooleanError::InvalidCubeCharacter('x'))
        ));
    }

    #[test]
    fn minterm_construction_and_membership() {
        let c = Cube::from_minterm(4, 0b1010).unwrap();
        assert_eq!(c.to_string(), "1010");
        assert!(c.contains_minterm(0b1010));
        assert!(!c.contains_minterm(0b1011));
    }

    #[test]
    fn minterm_out_of_range_is_rejected() {
        assert!(Cube::from_minterm(3, 8).is_err());
        assert!(Cube::from_minterm(3, 7).is_ok());
    }

    #[test]
    fn containment_and_intersection() {
        let a = Cube::parse("1--").unwrap();
        let b = Cube::parse("1-0").unwrap();
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert_eq!(a.intersect(&b), Some(b.clone()));

        let c = Cube::parse("0--").unwrap();
        assert_eq!(b.intersect(&c), None);
    }

    #[test]
    fn adjacency_merge() {
        let a = Cube::parse("101").unwrap();
        let b = Cube::parse("100").unwrap();
        assert_eq!(a.combine_adjacent(&b), Some(Cube::parse("10-").unwrap()));

        // Differ in two positions: no merge.
        let c = Cube::parse("110").unwrap();
        assert_eq!(a.combine_adjacent(&c), None);

        // Mismatched don't-care structure: no merge.
        let d = Cube::parse("10-").unwrap();
        assert_eq!(a.combine_adjacent(&d), None);
    }

    #[test]
    fn minterm_enumeration_matches_membership() {
        let c = Cube::parse("1-0-").unwrap();
        let ms = c.minterms();
        assert_eq!(ms.len(), 4);
        for m in 0..16u64 {
            assert_eq!(ms.contains(&m), c.contains_minterm(m));
        }
    }

    #[test]
    fn minterms_are_sorted_ascending() {
        let c = Cube::parse("-1-0-").unwrap();
        let ms = c.minterms();
        let mut sorted = ms.clone();
        sorted.sort_unstable();
        assert_eq!(ms, sorted);
    }

    #[test]
    fn supercube_covers_both() {
        let a = Cube::parse("101").unwrap();
        let b = Cube::parse("001").unwrap();
        let s = a.supercube(&b);
        assert!(s.covers(&a));
        assert!(s.covers(&b));
        assert_eq!(s.to_string(), "-01");
    }

    #[test]
    fn eval_matches_contains_minterm() {
        let c = Cube::parse("1-0").unwrap();
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|i| (m >> (2 - i)) & 1 == 1).collect();
            assert_eq!(c.eval(&bits), c.contains_minterm(m));
        }
    }

    #[test]
    fn from_mask_value_round_trips() {
        // 4 vars, vars 0 and 2 bound (mask 0b1010), values 1 and 0: "1-0-".
        let c = Cube::from_mask_value(4, 0b1010, 0b1000);
        assert_eq!(c.to_string(), "1-0-");
        // Value bits outside the mask are ignored.
        let d = Cube::from_mask_value(4, 0b1010, 0b1101);
        assert_eq!(d.to_string(), "1-0-");
    }

    #[test]
    fn consensus_of_distance_one_cubes() {
        // ab' + a'c -> consensus b'c? classic: "11-" and "0-1" conflict in var
        // 0 only; consensus is "1" fields elsewhere intersected: "-11"? no:
        // a=11-, b=0-1: free var0 -> intersect(1-,-1) over vars 1,2 = "11".
        let a = Cube::parse("11-").unwrap();
        let b = Cube::parse("0-1").unwrap();
        let c = a.consensus(&b).unwrap();
        assert_eq!(c.to_string(), "-11");
        // Distance 0 or 2: no consensus.
        assert_eq!(a.consensus(&a), None);
        let d = Cube::parse("00-").unwrap();
        let e = Cube::parse("11-").unwrap();
        assert_eq!(d.consensus(&e), None);
    }

    #[test]
    fn cofactor_frees_or_rejects() {
        let c = Cube::parse("1-0").unwrap();
        assert_eq!(c.cofactor(0, true), Some(Cube::parse("--0").unwrap()));
        assert_eq!(c.cofactor(0, false), None);
        assert_eq!(c.cofactor(1, true), Some(c.clone()));
        assert_eq!(c.cofactor(1, false), Some(c.clone()));
    }

    #[test]
    fn sharp_is_disjoint_and_exact() {
        let a = Cube::parse("1---").unwrap();
        let b = Cube::parse("1-01").unwrap();
        let pieces = a.sharp(&b);
        // Pieces are disjoint, inside a, outside b, and cover a \ b.
        for (i, p) in pieces.iter().enumerate() {
            assert!(a.covers(p));
            assert!(p.intersect(&b).is_none());
            for q in &pieces[i + 1..] {
                assert!(p.intersect(q).is_none());
            }
        }
        for m in 0..16u64 {
            let expected = a.contains_minterm(m) && !b.contains_minterm(m);
            let got = pieces.iter().any(|p| p.contains_minterm(m));
            assert_eq!(got, expected, "minterm {m}");
        }
        // Disjoint operands: sharp is the identity.
        let c = Cube::parse("0---").unwrap();
        assert_eq!(a.sharp(&c), vec![a.clone()]);
        // Covered operand: sharp is empty.
        assert!(b.sharp(&a).is_empty());
    }

    #[test]
    fn wide_cubes_spill_to_multiple_words() {
        // 40 variables crosses the 32-variable inline word boundary.
        let text: String = (0..40).map(|i| ['1', '0', '-'][i % 3]).collect();
        let c = Cube::parse(&text).unwrap();
        assert_eq!(c.to_string(), text);
        assert_eq!(c.num_vars(), 40);
        assert_eq!(
            c.literal_count(),
            text.chars().filter(|&ch| ch != '-').count()
        );
        assert!(Cube::universe(40).covers(&c));
        assert_eq!(c.intersect(&Cube::universe(40)), Some(c.clone()));
    }

    #[test]
    fn adjacency_across_the_word_boundary() {
        // 33 vars: var 32 lives in the second word.
        let mut a = "1".repeat(33);
        let mut b = a.clone();
        a.replace_range(32..33, "1");
        b.replace_range(32..33, "0");
        let ca = Cube::parse(&a).unwrap();
        let cb = Cube::parse(&b).unwrap();
        let merged = ca.combine_adjacent(&cb).unwrap();
        assert_eq!(merged.literal(32), Literal::DontCare);
        assert_eq!(merged.literal_count(), 32);
        // Two differing positions in *different* words must not merge.
        let mut c = b.clone();
        c.replace_range(0..1, "0");
        let cc = Cube::parse(&c).unwrap();
        assert_eq!(ca.combine_adjacent(&cc), None);
    }

    #[test]
    fn ordering_matches_literal_rank() {
        // Zero < One < DontCare, lexicographic from variable 0.
        let z = Cube::parse("0--").unwrap();
        let o = Cube::parse("1--").unwrap();
        let d = Cube::parse("---").unwrap();
        assert!(z < o && o < d);
        let a = Cube::parse("10-").unwrap();
        let b = Cube::parse("11-").unwrap();
        assert!(a < b);
    }
}
