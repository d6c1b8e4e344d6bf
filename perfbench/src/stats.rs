//! Order statistics and the open-loop arrival schedule.

use rand::Rng;

/// Nearest-rank percentile of an ascending slice: the value at 1-based rank
/// `ceil(p / 100 * n)`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// How many samples lie beyond the nearest-rank `p` percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest percentile of `n` samples with at least ten samples beyond
/// it (the median when there are too few samples for any tail).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A latency sample set summarised as median and tail.
#[derive(Clone, Debug, Default)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// Value at percentile `p`.
    pub fn at(&self, p: f64) -> f64 {
        percentile(&sorted(&self.0), p)
    }

    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it.
    pub fn tail(&self) -> (f64, f64) {
        let p = tail_percentile(self.0.len());
        (p, self.at(p))
    }
}

/// Arrival offsets in seconds of `n` requests of a Poisson process of
/// `rate` per second: exponential gaps drawn by inversion.
pub fn poisson_arrivals<R: Rng>(n: usize, rate: f64, rng: &mut R) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let l = Latencies((1..=1000).map(f64::from).collect());
        assert_eq!(l.tail(), (99.0, 990.0));
    }

    #[test]
    fn poisson_schedule_is_seeded_increasing_and_at_rate() {
        let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut b = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let xs = poisson_arrivals(20_000, 50.0, &mut a);
        assert_eq!(xs, poisson_arrivals(20_000, 50.0, &mut b));
        assert!(xs.windows(2).all(|w| w[0] < w[1]));
        // 20k exponential gaps of mean 1/50 s: the span is 400 s within a
        // few standard deviations (sd = sqrt(20k) / 50 ~ 2.8 s).
        let span = xs[xs.len() - 1];
        assert!((span - 400.0).abs() < 15.0, "span {span}");
        // Gap coefficient of variation is 1 for an exponential.
        let gaps: Vec<f64> = std::iter::once(xs[0])
            .chain(xs.windows(2).map(|w| w[1] - w[0]))
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }
}
