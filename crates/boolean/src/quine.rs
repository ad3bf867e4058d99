//! Quine–McCluskey prime-implicant generation.
//!
//! The paper names the Quine–McCluskey procedure for its two-level
//! minimizations. The pipeline finds the same primes cube-wise
//! ([`CoverFunction::prime_implicants`](crate::CoverFunction::prime_implicants));
//! this module keeps the tabulation method over the dense [`Function`]
//! representation as the exhaustive oracle it is checked against.
//!
//! The tabulation works directly on the packed `(mask, value)` word encoding
//! that [`Cube::from_mask_value`] consumes; buckets are keyed by the packed
//! words through the workspace [`fxhash`](crate::fxhash) hasher, and the
//! dedup sets are reused across merge passes instead of being rebuilt.

use crate::collections::{HashMap, HashSet};
use crate::{Cube, Function};

/// Compact tabulation cube: `mask` has a 1 for every bound position (bit 0 =
/// variable n-1, i.e. the minterm LSB), `value` holds the bound values.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Pc {
    mask: u64,
    value: u64,
}

/// Compute all prime implicants of `f` (cubes maximal within `on ∪ dc` that
/// intersect the on-set or don't-care set).
///
/// The classic tabulation is used: minterms of `on ∪ dc` are grouped by
/// popcount and repeatedly merged along single-bit adjacencies; cubes that are
/// never merged into a larger cube are prime.
///
/// # Example
///
/// ```
/// use fantom_boolean::{quine, Function};
///
/// # fn main() -> Result<(), fantom_boolean::BooleanError> {
/// // f = Σ m(0,1,2,3) over 2 vars is the constant 1: a single prime "--".
/// let f = Function::from_on_set(2, &[0, 1, 2, 3])?;
/// let primes = quine::prime_implicants(&f);
/// assert_eq!(primes.len(), 1);
/// assert!(primes[0].is_universe());
/// # Ok(())
/// # }
/// ```
pub fn prime_implicants(f: &Function) -> Vec<Cube> {
    let n = f.num_vars();
    let full_mask: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut current: Vec<Pc> = (0..f.space_size())
        .filter(|&m| !f.is_off(m))
        .map(|m| Pc {
            mask: full_mask,
            value: m,
        })
        .collect();

    let mut primes: Vec<Pc> = Vec::new();
    let mut seen_primes: HashSet<(u64, u64)> = HashSet::default();
    // Scratch state reused across merge passes (no per-pass rebuild).
    let mut groups: HashMap<(u64, u32), Vec<usize>> = HashMap::default();
    let mut next_seen: HashSet<(u64, u64)> = HashSet::default();
    let mut merged_flag: Vec<bool> = Vec::new();

    while !current.is_empty() {
        // Group cubes by (mask, popcount of value) so only mergeable pairs are
        // compared: a merge requires identical masks and values differing in a
        // single bit. Keys from different passes are disjoint (each pass drops
        // one mask bit), so drop them wholesale; `clear` keeps the map's table
        // allocation across passes.
        groups.clear();
        for (i, pc) in current.iter().enumerate() {
            groups
                .entry((pc.mask, pc.value.count_ones()))
                .or_default()
                .push(i);
        }

        merged_flag.clear();
        merged_flag.resize(current.len(), false);
        next_seen.clear();
        let mut next: Vec<Pc> = Vec::new();

        for (&(mask, ones), idxs) in &groups {
            let Some(upper) = groups.get(&(mask, ones + 1)) else {
                continue;
            };
            for &i in idxs {
                for &j in upper {
                    let diff = current[i].value ^ current[j].value;
                    if diff.count_ones() == 1 {
                        merged_flag[i] = true;
                        merged_flag[j] = true;
                        let merged = Pc {
                            mask: mask & !diff,
                            value: current[i].value & !diff,
                        };
                        if next_seen.insert((merged.mask, merged.value)) {
                            next.push(merged);
                        }
                    }
                }
            }
        }

        for (i, pc) in current.iter().enumerate() {
            if !merged_flag[i] && seen_primes.insert((pc.mask, pc.value)) {
                primes.push(*pc);
            }
        }
        current = next;
    }

    // Convert back to positional (packed) cubes, keeping only primes that
    // cover at least one on-set minterm; primes covering exclusively
    // don't-cares are useless to any cover.
    let mut out: Vec<Cube> = primes
        .iter()
        .map(|pc| Cube::from_mask_value(n, pc.mask, pc.value))
        .filter(|p| f.cube_intersects_on(p))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cover;

    #[test]
    fn textbook_example_primes() {
        // Classic QM example: f(a,b,c,d) = Σ m(4,8,10,11,12,15) + d(9,14)
        let f = Function::from_on_dc(4, &[4, 8, 10, 11, 12, 15], &[9, 14]).unwrap();
        let primes = prime_implicants(&f);
        let strs: HashSet<String> = primes.iter().map(Cube::to_string).collect();
        let expected: HashSet<String> = ["-100", "1--0", "1-1-", "10--"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(strs, expected);
    }

    #[test]
    fn primes_are_implicants_and_maximal() {
        let f = Function::from_on_dc(4, &[0, 1, 2, 5, 6, 7, 8, 9, 10, 14], &[3]).unwrap();
        let primes = prime_implicants(&f);
        for p in &primes {
            // Implicant: never touches off-set.
            assert!(f.admits_cube(p), "prime {p} intersects the off-set");
            // Maximal: freeing any bound literal leaves the on∪dc region.
            for v in 0..4 {
                if p.literal(v) != crate::Literal::DontCare {
                    let widened = p.with_literal(v, crate::Literal::DontCare);
                    assert!(
                        !f.admits_cube(&widened),
                        "prime {p} is not maximal (can widen var {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn union_of_primes_covers_on_set() {
        let f = Function::from_on_dc(5, &[0, 3, 5, 9, 11, 17, 21, 29, 30], &[2, 12]).unwrap();
        let primes = prime_implicants(&f);
        let cover = Cover::from_cubes(5, primes);
        for m in f.on_minterms() {
            assert!(cover.covers_minterm(m), "minterm {m} not covered by primes");
        }
        assert!(f.implemented_by(&cover) || !cover.is_empty());
    }

    #[test]
    fn constant_zero_has_no_primes() {
        let f = Function::constant_false(3).unwrap();
        assert!(prime_implicants(&f).is_empty());
    }

    #[test]
    fn dc_only_primes_are_dropped() {
        // On-set empty but don't-cares present: no useful primes.
        let f = Function::from_on_dc(3, &[], &[0, 1, 2, 3]).unwrap();
        assert!(prime_implicants(&f).is_empty());
    }

    #[test]
    fn essential_primes_detected() {
        // f = Σ m(0,1,5,7): the primes are 00-, -01 and 1-1; minterm 0 is
        // covered by 00- alone and minterm 7 by 1-1 alone, so both are
        // essential, while -01 covers only minterms the others cover too.
        let f = Function::from_on_set(3, &[0, 1, 5, 7]).unwrap();
        let primes = prime_implicants(&f);
        let essential: HashSet<String> = f
            .on_minterms()
            .filter_map(|m| {
                let covering: Vec<&Cube> =
                    primes.iter().filter(|p| p.contains_minterm(m)).collect();
                match covering.as_slice() {
                    [only] => Some(only.to_string()),
                    _ => None,
                }
            })
            .collect();
        let expected: HashSet<String> = ["00-", "1-1"].iter().map(|s| s.to_string()).collect();
        assert_eq!(essential, expected);
    }

    #[test]
    fn expansion_primes_match_tabulation_semantics() {
        // Every prime the pipeline's cube-wise expansion finds must be a true
        // prime implicant of the tabulated function, and together they must
        // cover the on-set.
        let f = Function::from_on_dc(6, &[0, 5, 9, 13, 21, 33, 40, 52, 63], &[1, 8, 20]).unwrap();
        let primes = crate::CoverFunction::from_function(&f).expand_primes();
        let cover = Cover::from_cubes(6, primes.clone());
        for m in f.on_minterms() {
            assert!(cover.covers_minterm(m));
        }
        for p in &primes {
            assert!(f.admits_cube(p));
            for v in 0..6 {
                if p.literal(v) != crate::Literal::DontCare {
                    assert!(!f.admits_cube(&p.with_literal(v, crate::Literal::DontCare)));
                }
            }
        }
    }
}
