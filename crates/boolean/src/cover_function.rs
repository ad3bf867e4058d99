//! Sparse, cover-based representation of incompletely specified functions.
//!
//! Where [`Function`] stores the on/dc/off partition as dense `2^n`-bit
//! bitsets, a [`CoverFunction`] stores the **on-set** and **off-set** as
//! packed cube [`Cover`]s and leaves the don't-care set implicit
//! (`dc = ¬(on ∪ off)`). Synthesis naturally specifies functions this way —
//! a flow-table transition subcube pins a whole cube of total states to a
//! value, and everything never pinned is a don't-care — so the sparse
//! representation costs only as much as the specification, independent of the
//! variable count.
//!
//! All algorithms over it are cube algorithms from [`recursive`]: prime
//! implicants by the unate-recursive complete sum of `¬off`, the don't-care
//! cover by recursive sharp/complement, minimization by prime expansion
//! against the off cover plus the cover-based covering table of
//! [`petrick::minimum_cover_sparse`](crate::petrick::minimum_cover_sparse).

use crate::recursive;
use crate::{BooleanError, Cover, Cube, Function, Literal};

/// An incompletely specified Boolean function represented by packed on/off
/// cube covers, with the don't-care set implicit.
///
/// # Example
///
/// ```
/// use fantom_boolean::{Cover, CoverFunction};
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// let on = Cover::parse(3, "11-")?;
/// let off = Cover::parse(3, "0-0")?;
/// let f = CoverFunction::from_on_off(on, off)?;
/// assert!(f.is_on(0b110));
/// assert!(f.is_off(0b000));
/// assert!(f.is_dc(0b011));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoverFunction {
    num_vars: usize,
    on: Cover,
    off: Cover,
}

impl CoverFunction {
    /// Build a function from disjoint on- and off-set covers; everything
    /// outside both is a don't-care.
    ///
    /// # Errors
    ///
    /// Returns [`BooleanError::OverlappingCovers`] if some on-cube intersects
    /// some off-cube (the partition would be contradictory), or
    /// [`BooleanError::WidthMismatch`] if the covers disagree on width.
    pub fn from_on_off(on: Cover, off: Cover) -> Result<Self, BooleanError> {
        if on.num_vars() != off.num_vars() {
            return Err(BooleanError::WidthMismatch {
                expected: on.num_vars(),
                found: off.num_vars(),
            });
        }
        // Disjointness check through the off index: one word-parallel
        // candidate query per on-cube instead of an |on| × |off| pairwise
        // intersection scan. The pair scan only runs to name the offending
        // cubes once a violation is known.
        let off_index = crate::index::CoverIndex::build(&off);
        let mut cand = Vec::new();
        for a in on.cubes() {
            if off_index.intersecting_candidates(a, &mut cand) {
                let b = off
                    .cubes()
                    .iter()
                    .find(|b| a.intersect(b).is_some())
                    .expect("index reported an intersecting off-cube");
                return Err(BooleanError::OverlappingCovers {
                    on: a.to_string(),
                    off: b.to_string(),
                });
            }
        }
        let num_vars = on.num_vars();
        Ok(CoverFunction { num_vars, on, off })
    }

    /// Convert a dense [`Function`] into cover form, one minterm cube per
    /// on/off point. This is the dense↔sparse bridge used by differential
    /// tests against the dense oracle; it scans the dense bitsets (word-
    /// skipping) and is only sensible below
    /// [`MAX_DENSE_VARS`](crate::MAX_DENSE_VARS).
    pub fn from_function(f: &Function) -> Self {
        let n = f.num_vars();
        let cubes = |ms: crate::Minterms<'_>| -> Cover {
            Cover::from_cubes(
                n,
                ms.map(|m| Cube::from_minterm(n, m).expect("minterm in range"))
                    .collect(),
            )
        };
        CoverFunction {
            num_vars: n,
            on: cubes(f.on_minterms()),
            off: cubes(f.off_minterms()),
        }
    }

    /// Convert to the dense representation.
    ///
    /// # Errors
    ///
    /// Returns [`BooleanError::TooManyVariables`] above
    /// [`MAX_DENSE_VARS`](crate::MAX_DENSE_VARS).
    pub fn to_function(&self) -> Result<Function, BooleanError> {
        let mut f = Function::constant_dc(self.num_vars)?;
        for cube in self.off.cubes() {
            for m in cube.minterms_iter() {
                f.set_off(m);
            }
        }
        for cube in self.on.cubes() {
            for m in cube.minterms_iter() {
                f.set_on(m);
            }
        }
        Ok(f)
    }

    /// Number of variables the function is defined over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The on-set cover.
    pub fn on_cover(&self) -> &Cover {
        &self.on
    }

    /// The off-set cover.
    pub fn off_cover(&self) -> &Cover {
        &self.off
    }

    /// The don't-care cover, derived on demand by recursive sharp/complement:
    /// `dc = ¬(on ∪ off)`.
    pub fn dc_cover(&self) -> Cover {
        let mut care = self.on.clone();
        care.extend(self.off.iter().cloned());
        recursive::complement(&care)
    }

    /// `true` if `minterm` is in the on-set.
    pub fn is_on(&self, minterm: u64) -> bool {
        self.on.covers_minterm(minterm)
    }

    /// `true` if `minterm` is in the off-set.
    pub fn is_off(&self, minterm: u64) -> bool {
        self.off.covers_minterm(minterm)
    }

    /// `true` if `minterm` is in the (implicit) don't-care set.
    pub fn is_dc(&self, minterm: u64) -> bool {
        !self.is_on(minterm) && !self.is_off(minterm)
    }

    /// Add a cube to the on-set. The cube must not intersect the off-set
    /// (debug-asserted); it may absorb former don't-cares.
    pub fn push_on(&mut self, cube: Cube) {
        debug_assert!(
            !self.off.intersects_cube(&cube),
            "on-cube {cube} intersects the off-set"
        );
        self.on.push(cube);
    }

    /// Add a cube to the off-set. The cube must not intersect the on-set
    /// (debug-asserted); it may absorb former don't-cares.
    pub fn push_off(&mut self, cube: Cube) {
        debug_assert!(
            !self.on.intersects_cube(&cube),
            "off-cube {cube} intersects the on-set"
        );
        self.off.push(cube);
    }

    /// All prime implicants: cubes maximal within `on ∪ dc` that intersect
    /// the on-set. Computed as the unate-recursive complete sum of `¬off`
    /// (which is exactly `on ∪ dc`) filtered to the primes that touch the
    /// on-set — the sparse counterpart of
    /// [`quine::prime_implicants`](crate::quine::prime_implicants), never
    /// enumerating the `2^n` space.
    pub fn prime_implicants(&self) -> Vec<Cube> {
        let care = recursive::complement(&self.off);
        let mut primes: Vec<Cube> = recursive::complete_sum(&care)
            .into_iter()
            .filter(|p| self.on.intersects_cube(p))
            .collect();
        primes.sort();
        primes
    }

    /// A set of prime implicants sufficient to cover the on-set, by greedy
    /// expansion of each on-cube against the off-set cover: each widening
    /// test is a word-parallel cube/cover intersection, and the result size
    /// is bounded by the on-cover size rather than the total prime count
    /// (which can be exponential for the don't-care-heavy functions of
    /// flow-table synthesis).
    pub fn expand_primes(&self) -> Vec<Cube> {
        let off_index = crate::index::CoverIndex::build(&self.off);
        let mut cand = Vec::new();
        let mut out: Vec<Cube> = Vec::new();
        let mut seen: crate::collections::HashSet<Cube> = crate::collections::HashSet::default();
        for cube in self.on.cubes() {
            let mut grown = cube.clone();
            for var in 0..self.num_vars {
                if grown.literal(var) == Literal::DontCare {
                    continue;
                }
                let widened = grown.with_literal(var, Literal::DontCare);
                if !off_index.intersecting_candidates(&widened, &mut cand) {
                    grown = widened;
                }
            }
            if seen.insert(grown.clone()) {
                out.push(grown);
            }
        }
        out.sort();
        out
    }

    /// Produce an essential sum-of-products cover: expansion primes selected
    /// down to a minimal subset by the cover-based covering table
    /// ([`petrick::minimum_cover_sparse`](crate::petrick::minimum_cover_sparse)).
    /// This is the reduction of SEANCE Steps 4 and 6 (the paper's
    /// "Quine-McCluskey reduction technique to produce an essential SOP
    /// expression").
    pub fn minimize(&self) -> Cover {
        let primes = self.expand_primes();
        crate::petrick::minimum_cover_sparse(self, &primes)
    }

    /// Whether `cover` is a valid implementation of this function: it covers
    /// the whole on-set and never intersects the off-set. Decided cube-wise
    /// (sharp containment + pairwise intersection), no minterm enumeration.
    pub fn implemented_by(&self, cover: &Cover) -> bool {
        if cover.num_vars() != self.num_vars {
            return false;
        }
        for off_cube in self.off.cubes() {
            if cover.intersects_cube(off_cube) {
                return false;
            }
        }
        self.on.cubes().iter().all(|c| cover.covers_cube_sharp(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quine;

    fn round_trip(f: &Function) -> CoverFunction {
        CoverFunction::from_function(f)
    }

    #[test]
    fn partition_queries_match_dense() {
        let f = Function::from_on_dc(4, &[0, 3, 5, 9], &[2, 11]).unwrap();
        let cf = round_trip(&f);
        for m in 0..16u64 {
            assert_eq!(cf.is_on(m), f.is_on(m), "on {m}");
            assert_eq!(cf.is_dc(m), f.is_dc(m), "dc {m}");
            assert_eq!(cf.is_off(m), f.is_off(m), "off {m}");
        }
        let back = cf.to_function().unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn overlapping_covers_are_rejected() {
        let on = Cover::parse(3, "11-").unwrap();
        let off = Cover::parse(3, "1--").unwrap();
        assert!(matches!(
            CoverFunction::from_on_off(on, off),
            Err(BooleanError::OverlappingCovers { .. })
        ));
    }

    #[test]
    fn dc_cover_is_the_unspecified_remainder() {
        let on = Cover::parse(3, "11-").unwrap();
        let off = Cover::parse(3, "00-").unwrap();
        let cf = CoverFunction::from_on_off(on, off).unwrap();
        let dc = cf.dc_cover();
        for m in 0..8u64 {
            assert_eq!(dc.covers_minterm(m), cf.is_dc(m), "minterm {m}");
        }
    }

    #[test]
    fn sparse_primes_match_dense_tabulation() {
        let f = Function::from_on_dc(4, &[4, 8, 10, 11, 12, 15], &[9, 14]).unwrap();
        let cf = round_trip(&f);
        assert_eq!(cf.prime_implicants(), quine::prime_implicants(&f));
    }

    #[test]
    fn minimize_produces_a_valid_cover() {
        let f = Function::from_on_dc(5, &[0, 3, 5, 9, 11, 17, 21, 29, 30], &[2, 12]).unwrap();
        let cf = round_trip(&f);
        let cover = cf.minimize();
        assert!(cf.implemented_by(&cover));
        assert!(f.implemented_by(&cover));
    }

    #[test]
    fn implemented_by_rejects_bad_covers() {
        let on = Cover::parse(3, "11-").unwrap();
        let off = Cover::parse(3, "0--").unwrap();
        let cf = CoverFunction::from_on_off(on, off).unwrap();
        assert!(cf.implemented_by(&Cover::parse(3, "11-").unwrap()));
        // Misses part of the on-set.
        assert!(!cf.implemented_by(&Cover::parse(3, "111").unwrap()));
        // Touches the off-set.
        assert!(!cf.implemented_by(&Cover::parse(3, "11- 0--").unwrap()));
    }
}
