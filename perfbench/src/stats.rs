//! Summary statistics of a run's samples.

use std::time::{Duration, Instant};

use crate::report::Report;

/// Samples that must lie strictly above a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of `n` samples that still has at least
/// [`TAIL_SAMPLES`] samples above it under the nearest-rank rule, or `None`
/// when there are too few samples for any tail.
pub fn max_tail_percentile(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64)
}

/// Nearest-rank percentile `p` (0–100) of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps `p·n/100` that is whole up to rounding on its rank.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Natural log of the gamma function (Lanczos, g = 7), for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..1000 {
        let m = f64::from(m);
        for numerator in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + numerator * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + numerator / c;
            c = if c.abs() < TINY { TINY } else { c };
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// Harrell–Davis estimate of percentile `p` (0–100) of `samples`: the
/// order statistics weighted by a Beta(p(n+1), (1−p)(n+1)) distribution.
/// Unlike a single order statistic it does not jump when one sample moves
/// across a gap between clusters of samples (requests of machines of
/// different sizes form such clusters).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn harrell_davis(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = ((n + 1.0) * p / 100.0, (n + 1.0) * (1.0 - p / 100.0));
    let mut below = 0.0;
    sorted
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let upto = beta_cdf(a, b, (i + 1) as f64 / n);
            let weight = upto - below;
            below = upto;
            weight * x
        })
        .sum()
}

/// The tail percentile a run reports (p90, Harrell–Davis), checked against
/// the [`max_tail_percentile`] rule: `None` when `samples` is too small for
/// it.
pub fn p90(samples: &[f64]) -> Option<f64> {
    let p = 90.0;
    (max_tail_percentile(samples.len())? >= p).then(|| harrell_davis(samples, p))
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Whether a run started at `start` that has made `passes` passes has time
/// for another within `seconds`, judged by its mean pass so far. A run makes
/// at least one pass.
pub fn room_for_another(start: Instant, passes: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    passes == 0 || elapsed + elapsed / passes as f64 <= seconds
}

/// Closed-loop timings of a run. A run repeats the same requests pass after
/// pass; a request's latency is the least of its repetitions, because
/// interference from other work on a shared host only ever adds time.
#[derive(Debug, Default)]
pub struct Timings {
    best_ms: Vec<f64>,
    machines: Vec<usize>,
    transitions: Vec<u64>,
    passes: usize,
}

impl Timings {
    /// Record request `i` of the current pass: how long it took and the
    /// machines and transitions it carries (the same on every pass).
    pub fn record(&mut self, i: usize, took: Duration, machines: usize, transitions: u64) {
        let ms = took.as_secs_f64() * 1e3;
        if i == self.best_ms.len() {
            self.best_ms.push(ms);
            self.machines.push(machines);
            self.transitions.push(transitions);
        } else {
            self.best_ms[i] = self.best_ms[i].min(ms);
        }
    }

    pub fn end_pass(&mut self) {
        self.passes += 1;
    }

    pub fn is_first_pass(&self) -> bool {
        self.passes == 0
    }

    /// Whether a run started at `start` goes on with another pass.
    pub fn more(&self, start: Instant, seconds: f64) -> bool {
        room_for_another(start, self.passes, seconds)
    }

    /// The timing metrics: p50 and p90 (Harrell–Davis) of the request
    /// latencies, and the machines and transitions per second of the
    /// requests back to back.
    pub fn report(&self, report: &mut Report) {
        eprintln!(
            "perfbench: {} requests, {} passes",
            self.best_ms.len(),
            self.passes
        );
        let busy_s = self.best_ms.iter().sum::<f64>() / 1e3;
        report.set("latency_p50_ms", harrell_davis(&self.best_ms, 50.0));
        report.set("latency_p90_ms", p90(&self.best_ms).unwrap_or(f64::NAN));
        report.set(
            "machines_per_s",
            self.machines.iter().sum::<usize>() as f64 / busy_s,
        );
        report.set(
            "transitions_per_s",
            self.transitions.iter().sum::<u64>() as f64 / busy_s,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(max_tail_percentile(10), None);
        assert_eq!(max_tail_percentile(100), Some(90.0));
        assert_eq!(max_tail_percentile(200), Some(95.0));
        for n in 11..500 {
            let p = max_tail_percentile(n).unwrap();
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = percentile(&samples, p);
            let beyond = samples.iter().filter(|&&s| s > v).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n} p={p} beyond={beyond}");
            // No higher percentile keeps ten samples beyond it.
            let next = percentile(&samples, p + 100.0 / n as f64);
            assert!(samples.iter().filter(|&&s| s > next).count() < TAIL_SAMPLES);
        }
    }

    #[test]
    fn a_run_makes_one_pass_and_no_pass_past_its_time() {
        let start = Instant::now();
        assert!(room_for_another(start, 0, 0.0));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!room_for_another(start, 1, 0.03));
        assert!(room_for_another(start, 1, 10.0));
    }

    #[test]
    fn a_request_keeps_its_least_latency() {
        let mut t = Timings::default();
        for (pass, ms) in [[5, 40], [3, 90], [4, 20]].iter().enumerate() {
            assert_eq!(t.is_first_pass(), pass == 0);
            for (i, &ms) in ms.iter().enumerate() {
                t.record(i, Duration::from_millis(ms), 2, 10);
            }
            t.end_pass();
        }
        assert_eq!(t.best_ms, [3.0, 20.0]);
        let mut r = Report::default();
        t.report(&mut r);
        assert_eq!(r.get("machines_per_s"), Some(4.0 / 0.023));
        assert_eq!(r.get("transitions_per_s"), Some(20.0 / 0.023));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&few), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = p90(&enough).unwrap();
        assert!((89.0..=92.0).contains(&p), "{p}");
        assert_eq!(median(&enough), 50.0);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        for x in [0.1, 0.4, 0.75] {
            assert!((beta_cdf(1.0, 1.0, x) - x).abs() < 1e-12);
        }
        // I_0.4(2, 3) = sum over j = 2..=4 of C(4, j) 0.4^j 0.6^(4-j).
        assert!((beta_cdf(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_is_a_smooth_percentile() {
        assert!((harrell_davis(&[3.5; 7], 90.0) - 3.5).abs() < 1e-12);
        // The median of a symmetric sample is its centre.
        let line: Vec<f64> = (1..=121).map(f64::from).collect();
        assert!((harrell_davis(&line, 50.0) - 61.0).abs() < 1e-9);
        // Two clusters with the boundary at the median: moving one sample
        // across the gap moves the nearest-rank median by the whole gap, the
        // Harrell–Davis median by a small share of it.
        let mut low: Vec<f64> = (0..60).map(|_| 2.0).chain((0..60).map(|_| 3.0)).collect();
        let before = (percentile(&low, 50.0), harrell_davis(&low, 50.0));
        low[59] = 3.0;
        let after = (percentile(&low, 50.0), harrell_davis(&low, 50.0));
        assert_eq!(after.0 - before.0, 1.0);
        assert!((before.1 - after.1).abs() < 0.1, "{before:?} {after:?}");
    }
}
