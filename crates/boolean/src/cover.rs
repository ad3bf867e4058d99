use std::fmt;

use crate::{BooleanError, Cube};

/// A sum-of-products cover: a set of [`Cube`]s over a common variable count.
///
/// # Example
///
/// ```
/// use fantom_boolean::{Cover, Cube};
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// let cover = Cover::from_cubes(3, vec![Cube::parse("1--")?, Cube::parse("-11")?]);
/// assert_eq!(cover.cube_count(), 2);
/// assert!(cover.covers_minterm(0b011));
/// assert!(!cover.covers_minterm(0b010));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// An empty cover (the constant-0 function) over `num_vars` variables.
    pub fn empty(num_vars: usize) -> Self {
        Cover {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// Build a cover from cubes. Cubes of mismatched width are debug-asserted.
    pub fn from_cubes(num_vars: usize, cubes: Vec<Cube>) -> Self {
        debug_assert!(cubes.iter().all(|c| c.num_vars() == num_vars));
        Cover { num_vars, cubes }
    }

    /// Build a cover consisting of one minterm cube per index in `minterms`.
    ///
    /// # Errors
    ///
    /// Returns [`BooleanError::MintermOutOfRange`] if any index does not fit.
    pub fn from_minterms(num_vars: usize, minterms: &[u64]) -> Result<Self, BooleanError> {
        let cubes = minterms
            .iter()
            .map(|&m| Cube::from_minterm(num_vars, m))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Cover { num_vars, cubes })
    }

    /// Parse a cover from whitespace-separated positional-cube strings.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed cube characters or inconsistent widths.
    pub fn parse(num_vars: usize, text: &str) -> Result<Self, BooleanError> {
        let mut cubes = Vec::new();
        for token in text.split_whitespace() {
            let cube = Cube::parse(token)?;
            if cube.num_vars() != num_vars {
                return Err(BooleanError::WidthMismatch {
                    expected: num_vars,
                    found: cube.num_vars(),
                });
            }
            cubes.push(cube);
        }
        Ok(Cover { num_vars, cubes })
    }

    /// Number of variables the cover is defined over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cubes of the cover, in insertion order.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of product terms.
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// Total literal count across all product terms.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// `true` if the cover has no cubes (constant 0).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Append a cube to the cover.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the cube width does not match.
    pub fn push(&mut self, cube: Cube) {
        debug_assert_eq!(cube.num_vars(), self.num_vars);
        self.cubes.push(cube);
    }

    /// Whether any cube covers the given minterm index.
    pub fn covers_minterm(&self, minterm: u64) -> bool {
        self.cubes.iter().any(|c| c.contains_minterm(minterm))
    }

    /// Whether some *single* cube of the cover covers the whole `cube`.
    ///
    /// This is the test used for static-hazard analysis: a 1→1 transition
    /// between adjacent minterms is hazard-free iff their supercube is covered
    /// by one product term.
    pub fn single_cube_covers(&self, cube: &Cube) -> bool {
        self.cubes.iter().any(|c| c.covers(cube))
    }

    /// Whether the union of cubes covers every minterm of `cube`.
    ///
    /// Decided cube-wise through the sharp/signature path of
    /// [`Cover::covers_cube_sharp`] — **never** by enumerating the cube's
    /// minterms, which is exponential in its free variables (a 33-variable
    /// don't-care-heavy cube has billions of them).
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        self.covers_cube_sharp(cube)
    }

    /// Evaluate the cover on a concrete assignment (index 0 = variable 0).
    pub fn eval(&self, bits: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.eval(bits))
    }

    /// Remove cubes that are covered by another cube of the cover
    /// (single-cube containment; keeps the first of any duplicate pair).
    ///
    /// Runs in place: cubes are ordered so larger cubes (fewer literals) come
    /// first and absorb smaller ones, then the kept prefix grows by swapping —
    /// no cube is cloned. Beyond a small size the kept prefix is tracked in an
    /// incremental [`CoverIndex`](crate::index::CoverIndex), turning each
    /// containment test into a word-parallel phase-bucket query instead of a
    /// scan of every kept cube; tiny covers keep the plain scan, whose
    /// constant factor the index cannot beat.
    pub fn remove_contained_cubes(&mut self) {
        self.cubes.sort_by_key(Cube::literal_count);
        let mut kept = 0;
        if self.cubes.len() <= 16 || self.num_vars == 0 {
            for i in 0..self.cubes.len() {
                let covered = self.cubes[..kept].iter().any(|k| k.covers(&self.cubes[i]));
                if !covered {
                    self.cubes.swap(kept, i);
                    kept += 1;
                }
            }
        } else {
            let mut index = crate::index::CoverIndex::new(self.num_vars);
            let mut cand: Vec<u64> = Vec::new();
            for i in 0..self.cubes.len() {
                if !index.covering_candidates(&self.cubes[i], &mut cand) {
                    index.push(&self.cubes[i]);
                    self.cubes.swap(kept, i);
                    kept += 1;
                }
            }
        }
        self.cubes.truncate(kept);
    }

    /// The cover with variable `v` moved to position `perm[v]` for every
    /// `v < perm.len()`; later variables keep their positions, and the cubes
    /// keep their order. Each cube's packed fields move word by word.
    ///
    /// # Panics
    ///
    /// Panics unless `perm` is a permutation of `0..perm.len()` with
    /// `perm.len() <= self.num_vars()`.
    pub fn permute_vars(&self, perm: &[usize]) -> Cover {
        crate::cube::assert_var_permutation(perm, self.num_vars);
        self.permute_checked(perm)
    }

    /// [`Cover::permute_vars`] for a `perm` already checked.
    pub(crate) fn permute_checked(&self, perm: &[usize]) -> Cover {
        Cover {
            num_vars: self.num_vars,
            cubes: self.cubes.iter().map(|c| c.permute_vars(perm)).collect(),
        }
    }

    /// Iterate over the cubes (alias of `cubes().iter()` for ergonomic loops).
    pub fn iter(&self) -> std::slice::Iter<'_, Cube> {
        self.cubes.iter()
    }

    /// Whether any cube of the cover intersects `cube` (shares a minterm).
    /// Word-parallel: one pass over the cover, no minterm enumeration.
    pub fn intersects_cube(&self, cube: &Cube) -> bool {
        self.cubes.iter().any(|c| c.intersect(cube).is_some())
    }

    /// The supercube of every cube of the cover (`None` when empty) — the
    /// cover's *signature*. Any point outside the signature is provably
    /// uncovered, which makes the signature a constant-time pre-filter for
    /// containment scans (see [`Function::implemented_by`](crate::Function::implemented_by)).
    pub fn signature(&self) -> Option<Cube> {
        let mut it = self.cubes.iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |acc, c| acc.supercube(c)))
    }

    /// The sharp (cover difference) `self # other`: a cover of exactly the
    /// points of `self` not covered by `other`, computed cube-wise with the
    /// disjoint [`Cube::sharp`] and compacted by single-cube containment.
    ///
    /// `other` is indexed once so each cube of `self` is only sharped against
    /// the subtrahends that can actually hit it (the pieces of a cube stay
    /// inside it, so its intersecting-candidate set bounds theirs).
    pub fn sharp(&self, other: &Cover) -> Cover {
        self.sharp_indexed(other, &crate::index::CoverIndex::build(other))
    }

    /// [`Cover::sharp`] with `other`'s index built by the caller, so that
    /// several covers sharped by the same subtrahend share one index.
    ///
    /// `index` must be `CoverIndex::build(other)`.
    pub fn sharp_indexed(&self, other: &Cover, index: &crate::index::CoverIndex) -> Cover {
        debug_assert_eq!(self.num_vars, other.num_vars);
        debug_assert_eq!(index.len(), other.cubes().len());
        let (mut cand, mut ids) = (Vec::new(), Vec::new());
        let (mut pieces, mut next): (Vec<Cube>, Vec<Cube>) = (Vec::new(), Vec::new());
        let mut out_cubes: Vec<Cube> = Vec::new();
        for c in &self.cubes {
            if !index.intersecting_ids(c, &mut cand, &mut ids) {
                out_cubes.push(c.clone());
                continue;
            }
            pieces.clear();
            pieces.push(c.clone());
            for &i in &ids {
                if !crate::cube::sharp_pieces(&mut pieces, &mut next, &other.cubes[i]) {
                    break;
                }
            }
            out_cubes.append(&mut pieces);
        }
        let mut out = Cover::from_cubes(self.num_vars, out_cubes);
        out.remove_contained_cubes();
        out
    }

    /// Sharp by a single cube (see [`Cover::sharp`]).
    pub fn sharp_cube(&self, cube: &Cube) -> Cover {
        Cover::from_cubes(
            self.num_vars,
            self.cubes.iter().flat_map(|c| c.sharp(cube)).collect(),
        )
    }

    /// Rebuild the cover as a union of pairwise-disjoint cubes covering the
    /// same point set (each cube is sharped against the part already kept).
    ///
    /// The kept set is indexed incrementally, so each incoming cube is
    /// sharped only against the kept cubes that overlap it instead of the
    /// whole accumulated list.
    pub fn make_disjoint(&self) -> Cover {
        let mut index = crate::index::CoverIndex::new(self.num_vars);
        let (mut cand, mut ids) = (Vec::new(), Vec::new());
        let (mut pieces, mut next): (Vec<Cube>, Vec<Cube>) = (Vec::new(), Vec::new());
        let mut kept: Vec<Cube> = Vec::with_capacity(self.cubes.len());
        for cube in &self.cubes {
            pieces.clear();
            pieces.push(cube.clone());
            if index.intersecting_ids(cube, &mut cand, &mut ids) {
                for &i in &ids {
                    if !crate::cube::sharp_pieces(&mut pieces, &mut next, &kept[i]) {
                        break;
                    }
                }
            }
            for piece in pieces.drain(..) {
                index.push(&piece);
                kept.push(piece);
            }
        }
        Cover::from_cubes(self.num_vars, kept)
    }

    /// Whether `cube` lies entirely inside the union of this cover, decided
    /// cube-wise (`cube # cover = ∅`) without enumerating minterms.
    ///
    /// Two `sharp`-free pre-filters run before the (worst-case exponential)
    /// sharp recursion: single-cube containment accepts immediately, and a
    /// *signature-cube* test rejects immediately — the union of the cover's
    /// intersections with `cube` lies inside the supercube of those
    /// intersections, so if that supercube does not cover `cube`, some
    /// minterm of `cube` is provably uncovered. Both are word-parallel
    /// single passes; only genuinely ambiguous cases pay for the recursion
    /// (restricted to the cubes that intersect `cube` at all).
    pub fn covers_cube_sharp(&self, cube: &Cube) -> bool {
        let mut signature: Option<Cube> = None;
        let mut relevant: Vec<&Cube> = Vec::new();
        for c in &self.cubes {
            if c.covers(cube) {
                return true;
            }
            if let Some(part) = c.intersect(cube) {
                signature = Some(match signature {
                    None => part,
                    Some(sig) => sig.supercube(&part),
                });
                relevant.push(c);
            }
        }
        let Some(signature) = signature else {
            return false;
        };
        if !signature.covers(cube) {
            return false;
        }
        let mut pieces = vec![cube.clone()];
        for c in relevant {
            pieces = pieces.iter().flat_map(|p| p.sharp(c)).collect();
            if pieces.is_empty() {
                return true;
            }
        }
        false
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "(0)");
        }
        let strs: Vec<String> = self.cubes.iter().map(Cube::to_string).collect();
        write!(f, "{}", strs.join(" + "))
    }
}

impl FromIterator<Cube> for Cover {
    fn from_iter<T: IntoIterator<Item = Cube>>(iter: T) -> Self {
        let cubes: Vec<Cube> = iter.into_iter().collect();
        let num_vars = cubes.first().map_or(0, Cube::num_vars);
        Cover::from_cubes(num_vars, cubes)
    }
}

impl Extend<Cube> for Cover {
    fn extend<T: IntoIterator<Item = Cube>>(&mut self, iter: T) {
        for cube in iter {
            self.push(cube);
        }
    }
}

impl<'a> IntoIterator for &'a Cover {
    type Item = &'a Cube;
    type IntoIter = std::slice::Iter<'a, Cube>;

    fn into_iter(self) -> Self::IntoIter {
        self.cubes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Literal;

    #[test]
    fn membership_is_union_of_cubes() {
        let cover = Cover::parse(3, "1-- -11").unwrap();
        assert!(cover.covers_minterm(0b100));
        assert!(cover.covers_minterm(0b011));
        assert!(cover.covers_minterm(0b111));
        assert!(!cover.covers_minterm(0b001));
    }

    #[test]
    fn parse_checks_width() {
        assert!(Cover::parse(3, "1-- 10").is_err());
    }

    #[test]
    fn from_minterms_covers_exactly_those() {
        let cover = Cover::from_minterms(3, &[1, 6]).unwrap();
        for m in 0..8 {
            assert_eq!(cover.covers_minterm(m), m == 1 || m == 6);
        }
    }

    #[test]
    fn containment_removal_keeps_function() {
        let mut cover = Cover::parse(3, "1-- 101 10-").unwrap();
        let before: Vec<bool> = (0..8).map(|m| cover.covers_minterm(m)).collect();
        cover.remove_contained_cubes();
        assert_eq!(cover.cube_count(), 1);
        let after: Vec<bool> = (0..8).map(|m| cover.covers_minterm(m)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn single_cube_cover_vs_union_cover() {
        let cover = Cover::parse(2, "1- -1").unwrap();
        let diag = Cube::parse("--").unwrap();
        // The union covers 3 of 4 minterms -> not the whole universe either way.
        assert!(!cover.covers_cube(&diag));
        assert!(!cover.single_cube_covers(&diag));
        let one = Cube::parse("11").unwrap();
        assert!(cover.single_cube_covers(&one));
    }

    #[test]
    fn display_formats_sop() {
        let cover = Cover::parse(2, "1- 01").unwrap();
        assert_eq!(cover.to_string(), "1- + 01");
        assert_eq!(Cover::empty(2).to_string(), "(0)");
    }

    #[test]
    fn literal_and_cube_counts() {
        let cover = Cover::parse(4, "1--- -01-").unwrap();
        assert_eq!(cover.cube_count(), 2);
        assert_eq!(cover.literal_count(), 3);
    }

    #[test]
    fn sharp_and_disjoint_union_match_pointwise_semantics() {
        let a = Cover::parse(4, "1--- -11- --01").unwrap();
        let b = Cover::parse(4, "10-- ---1").unwrap();
        let diff = a.sharp(&b);
        for m in 0..16u64 {
            assert_eq!(
                diff.covers_minterm(m),
                a.covers_minterm(m) && !b.covers_minterm(m),
                "minterm {m}"
            );
        }
        let disjoint = a.make_disjoint();
        for m in 0..16u64 {
            assert_eq!(disjoint.covers_minterm(m), a.covers_minterm(m));
        }
        for (i, p) in disjoint.cubes().iter().enumerate() {
            for q in &disjoint.cubes()[i + 1..] {
                assert!(p.intersect(q).is_none(), "{p} and {q} overlap");
            }
        }
    }

    #[test]
    fn cube_containment_via_sharp() {
        let cover = Cover::parse(3, "1-- -11").unwrap();
        assert!(cover.covers_cube_sharp(&Cube::parse("11-").unwrap()));
        assert!(cover.covers_cube_sharp(&Cube::parse("1-1").unwrap()));
        assert!(!cover.covers_cube_sharp(&Cube::parse("--1").unwrap()));
        assert!(cover.intersects_cube(&Cube::parse("--1").unwrap()));
        assert!(!cover.intersects_cube(&Cube::parse("001").unwrap()));
    }

    #[test]
    fn sharp_containment_matches_minterm_enumeration_exhaustively() {
        // Every 2-bits-per-variable cube over 4 variables against covers
        // picked to hit all three decision paths: single-cube accept,
        // signature reject (the gap between 00-- and 11-- rejects everything
        // straddling it), and the sharp recursion (overlapping cubes whose
        // supercube over-approximates the union).
        let covers = [
            Cover::parse(4, "1--- -11- --01").unwrap(),
            Cover::parse(4, "00-- 11--").unwrap(),
            Cover::parse(4, "1-0- -11- 0--1 --10").unwrap(),
            Cover::empty(4),
        ];
        let all_cubes = (0..81).map(|i| {
            let lits: String = (0..4)
                .map(|v| ['0', '1', '-'][(i / 3usize.pow(v)) % 3])
                .collect();
            Cube::parse(&lits).unwrap()
        });
        for cube in all_cubes {
            for cover in &covers {
                let expected = cube.minterms_iter().all(|m| cover.covers_minterm(m));
                assert_eq!(
                    cover.covers_cube_sharp(&cube),
                    expected,
                    "cover {cover} vs cube {cube}"
                );
            }
        }
    }

    #[test]
    fn covers_cube_handles_wide_free_cubes_across_the_word_boundary() {
        // 33 variables (cube spills past the inline word) with 31 free
        // positions: minterm enumeration would walk 2^31 points per query,
        // the sharp path answers in microseconds.
        for n in [31usize, 32, 33] {
            let mut whole = vec!['-'; n];
            whole[0] = '1';
            let wide = Cube::new(
                whole
                    .iter()
                    .map(|&c| {
                        if c == '1' {
                            Literal::One
                        } else {
                            Literal::DontCare
                        }
                    })
                    .collect(),
            );
            // Split the wide cube on its last variable: together they cover it.
            let half0 = wide.with_literal(n - 1, Literal::Zero);
            let half1 = wide.with_literal(n - 1, Literal::One);
            let cover = Cover::from_cubes(n, vec![half0.clone(), half1]);
            assert!(cover.covers_cube(&wide), "n={n}");
            assert!(!cover.covers_cube(&Cube::universe(n)), "n={n}");
            let gap = Cover::from_cubes(n, vec![half0]);
            assert!(!gap.covers_cube(&wide), "n={n}");
        }
    }

    #[test]
    fn collect_and_extend() {
        let cubes = vec![Cube::parse("10").unwrap(), Cube::parse("01").unwrap()];
        let mut cover: Cover = cubes.into_iter().collect();
        assert_eq!(cover.cube_count(), 2);
        cover.extend(vec![Cube::parse("11").unwrap()]);
        assert_eq!(cover.cube_count(), 3);
    }

    #[test]
    fn remove_contained_cubes_indexed_path_matches_scan() {
        // Build covers large enough to take the indexed path and compare the
        // kept set against the reference quadratic scan.
        let n = 8;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            let cubes: Vec<Cube> = (0..40)
                .map(|_| {
                    let lits: Vec<Literal> = (0..n)
                        .map(|_| match rand() % 4 {
                            0 => Literal::Zero,
                            1 => Literal::One,
                            _ => Literal::DontCare,
                        })
                        .collect();
                    Cube::new(lits)
                })
                .collect();

            let mut reference = cubes.clone();
            reference.sort_by_key(Cube::literal_count);
            let mut kept: Vec<Cube> = Vec::new();
            for c in reference {
                if !kept.iter().any(|k| k.covers(&c)) {
                    kept.push(c);
                }
            }

            let mut cover = Cover::from_cubes(n, cubes);
            cover.remove_contained_cubes();
            assert_eq!(cover.cubes(), kept.as_slice());
        }
    }
}
