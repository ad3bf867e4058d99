//! Waveform analysis: transition counting, from which campaigns detect
//! glitches.
//!
//! A *glitch* on a net, for the purposes of hazard validation, is any pair of
//! opposite transitions within an observation window on a net that was
//! supposed to change at most once (single-output-change principle) or not at
//! all (an invariant state variable).

use crate::Waveform;

/// Number of value changes recorded in `waveform` at or after `since`.
pub fn transitions_since(waveform: &Waveform, since: u64) -> usize {
    waveform
        .windows(2)
        .filter(|w| w[1].0 >= since && w[0].1 != w[1].1)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(points: &[(u64, bool)]) -> Waveform {
        points.to_vec()
    }

    #[test]
    fn transition_counting() {
        let w = wave(&[(0, false), (5, true), (7, false), (9, false)]);
        assert_eq!(transitions_since(&w, 0), 2);
        assert_eq!(transitions_since(&w, 6), 1);
        assert_eq!(transitions_since(&w, 8), 0);
    }
}
