//! Sample summaries and the one clock every measurement reads.

use mob_storage::{Clock, SystemClock};
use std::sync::OnceLock;
use std::time::Duration;

/// Monotonic time since the first call, read through the storage
/// crate's [`SystemClock`].
pub fn now() -> Duration {
    static CLOCK: OnceLock<SystemClock> = OnceLock::new();
    CLOCK.get_or_init(SystemClock::new).now()
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile `q` of samples in time order, made robust to stretches of
/// a slow host: the samples are cut into `k` equal consecutive blocks,
/// `k` the largest odd number (at most 9) that leaves at least ten
/// samples beyond `q` in every block, and the result is the median of
/// the blocks' nearest-rank quantiles. A slow stretch then moves the
/// result only once it covers most blocks, not as soon as its samples
/// reach the quantile. With too few samples for three blocks it is the
/// plain quantile.
pub fn blocked(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    // The epsilon keeps e.g. 300 * (1 - 0.9) / 10 from flooring to 2.
    let mut k = ((n as f64 * (1.0 - q) / 10.0 + 1e-9).floor() as usize).clamp(1, 9);
    if k.is_multiple_of(2) {
        k -= 1;
    }
    if k == 1 {
        return quantile(samples, q);
    }
    let blocks: Vec<f64> = (0..k)
        .map(|i| quantile(&samples[i * n / k..(i + 1) * n / k], q))
        .collect();
    median(&blocks)
}

/// The median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's own seeded stream (no dependency).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a `salt` naming its use.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn blocked_takes_the_median_block() {
        // 300 samples, p90: three blocks of 100; one block stalled.
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        v[100..200].iter_mut().for_each(|x| *x += 1000.0);
        assert_eq!(blocked(&v, 0.9), 89.0);
        assert_eq!(quantile(&v, 0.9), 1069.0);
        // Too few samples for three blocks: the plain quantile.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(blocked(&w, 0.9), quantile(&w, 0.9));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let x = Rng::new(1, 2).range(-0.5, 0.5);
        assert!((-0.5..0.5).contains(&x));
    }
}
