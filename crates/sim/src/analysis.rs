//! Waveform analysis: transition counting, from which campaigns detect
//! glitches.
//!
//! A *glitch* on a net, for the purposes of hazard validation, is any pair of
//! opposite transitions within an observation window on a net that was
//! supposed to change at most once (single-output-change principle) or not at
//! all (an invariant state variable).

use crate::Waveform;

/// Number of value changes recorded in `waveform` at or after `since`.
///
/// `waveform` must be in nondecreasing time order, as the simulator records
/// it: the window's first point is found by binary search, so a campaign
/// step pays for the points of its own window, not for the whole history.
pub fn transitions_since(waveform: &Waveform, since: u64) -> usize {
    let start = waveform.partition_point(|&(t, _)| t < since).max(1);
    waveform[start - 1..]
        .windows(2)
        .filter(|w| w[0].1 != w[1].1)
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

    #[test]
    fn windowed_count_matches_a_linear_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let linear = |w: &Waveform, since: u64| {
            w.windows(2)
                .filter(|p| p[1].0 >= since && p[0].1 != p[1].1)
                .count()
        };
        let mut rng = StdRng::seed_from_u64(0x7A11);
        for _ in 0..500 {
            // Steps of 0 repeat a timestamp and steps of 2 leave a time
            // between two points; values may repeat too.
            let mut time = 0u64;
            let mut w = Waveform::new();
            for _ in 0..rng.gen_range(0..12usize) {
                time += rng.gen_range(0..3u64);
                w.push((time, rng.gen_bool(0.5)));
            }
            for since in 0..=time + 1 {
                assert_eq!(
                    transitions_since(&w, since),
                    linear(&w, since),
                    "{w:?} since {since}"
                );
            }
        }
    }
}
