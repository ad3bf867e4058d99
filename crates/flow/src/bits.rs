use std::fmt;

use crate::FlowError;

/// A fixed-width vector of bits.
///
/// `Bits` is used for input vectors (flow-table columns), output vectors and
/// state codes. Bit 0 is the **most significant** position, matching the
/// minterm-index convention of `fantom_boolean`.
///
/// # Example
///
/// ```
/// use fantom_flow::Bits;
///
/// # fn main() -> Result<(), fantom_flow::FlowError> {
/// let a = Bits::parse("0110")?;
/// let b = Bits::from_index(4, 0b0101);
/// assert_eq!(a.hamming_distance(&b), 2);
/// assert_eq!(b.to_string(), "0101");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bits {
    bits: Vec<bool>,
}

impl Bits {
    /// An all-zero vector of the given width.
    pub fn zeros(width: usize) -> Self {
        Bits {
            bits: vec![false; width],
        }
    }

    /// Build from an explicit bool vector (index 0 = most significant).
    pub fn from_bools(bits: Vec<bool>) -> Self {
        Bits { bits }
    }

    /// Build the `width`-bit vector whose unsigned value is `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit into `width` bits.
    pub fn from_index(width: usize, index: usize) -> Self {
        assert!(
            width >= usize::BITS as usize || index < (1 << width),
            "index does not fit width"
        );
        let bits = (0..width)
            .map(|i| (index >> (width - 1 - i)) & 1 == 1)
            .collect();
        Bits { bits }
    }

    /// Parse a string of `0`/`1` characters.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidBitString`] for any other character.
    pub fn parse(s: &str) -> Result<Self, FlowError> {
        let mut bits = Vec::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                _ => return Err(FlowError::InvalidBitString(s.to_string())),
            }
        }
        Ok(Bits { bits })
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The bit at position `i` (0 = most significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Set the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        self.bits[i] = value;
    }

    /// Return a copy with bit `i` flipped.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn with_flipped(&self, i: usize) -> Bits {
        let mut out = self.clone();
        out.bits[i] = !out.bits[i];
        out
    }

    /// The unsigned integer value of the vector (bit 0 most significant).
    pub fn index(&self) -> usize {
        self.bits
            .iter()
            .fold(0, |acc, &b| (acc << 1) | usize::from(b))
    }

    /// Number of positions where the two vectors differ.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn hamming_distance(&self, other: &Bits) -> usize {
        assert_eq!(self.width(), other.width(), "width mismatch");
        self.bits
            .iter()
            .zip(&other.bits)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Indices of the positions where the two vectors differ.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn differing_positions(&self, other: &Bits) -> Vec<usize> {
        assert_eq!(self.width(), other.width(), "width mismatch");
        (0..self.width())
            .filter(|&i| self.bits[i] != other.bits[i])
            .collect()
    }

    /// Iterate over the bits, most significant first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }

    /// View the bits as a slice of booleans.
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// All vectors lying in the transition subcube spanned by `from` and `to`:
    /// vectors that agree with `from` on every position where `from == to` and
    /// take any combination on the differing positions. The result includes
    /// both end points.
    ///
    /// This is the "input transition space" traversed during a multiple-input
    /// change from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn transition_cube(from: &Bits, to: &Bits) -> Vec<Bits> {
        let diffs = from.differing_positions(to);
        let mut out = Vec::with_capacity(1 << diffs.len());
        for combo in 0..(1usize << diffs.len()) {
            let mut v = from.clone();
            for (j, &pos) in diffs.iter().enumerate() {
                if (combo >> j) & 1 == 1 {
                    v.bits[pos] = to.bits[pos];
                }
            }
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bits {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl From<Vec<bool>> for Bits {
    fn from(bits: Vec<bool>) -> Self {
        Bits::from_bools(bits)
    }
}

impl AsRef<[bool]> for Bits {
    fn as_ref(&self) -> &[bool] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for idx in 0..16 {
            let b = Bits::from_index(4, idx);
            assert_eq!(b.index(), idx);
            assert_eq!(b.width(), 4);
        }
    }

    #[test]
    fn parse_and_display() {
        let b = Bits::parse("1011").unwrap();
        assert_eq!(b.to_string(), "1011");
        assert!(Bits::parse("10x1").is_err());
    }

    #[test]
    fn hamming_and_differing_positions() {
        let a = Bits::parse("1100").unwrap();
        let b = Bits::parse("1010").unwrap();
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.differing_positions(&b), vec![1, 2]);
    }

    #[test]
    fn transition_cube_spans_differing_bits() {
        let a = Bits::parse("00").unwrap();
        let b = Bits::parse("11").unwrap();
        let cube = Bits::transition_cube(&a, &b);
        assert_eq!(cube.len(), 4);
        assert!(cube.contains(&a));
        assert!(cube.contains(&b));

        let c = Bits::parse("01").unwrap();
        let small = Bits::transition_cube(&a, &c);
        assert_eq!(small.len(), 2);
    }

    #[test]
    fn flip_and_set() {
        let a = Bits::parse("000").unwrap();
        let b = a.with_flipped(1);
        assert_eq!(b.to_string(), "010");
        let mut c = b.clone();
        c.set_bit(0, true);
        assert_eq!(c.to_string(), "110");
    }
}
