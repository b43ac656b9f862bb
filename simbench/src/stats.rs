//! Order statistics and the FNV-1a digest the benchmark reports with.

/// Percentiles a tail metric may fall back to, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples that lie beyond the nearest-rank `p`-th percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The highest percentile not above `max_p` that has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, with its value; `None` when
/// even the median does not qualify.
pub fn tail_percentile(samples: &[f64], max_p: f64) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= max_p)
        .find(|&p| beyond(sorted.len(), p) >= MIN_TAIL_SAMPLES)
        .map(|p| (p, nearest_rank(&sorted, p)))
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a word into the hash.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: 10 lie beyond the 90th -> p90 itself.
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some((90.0, 90.0)));
        // 99 samples: only 9 beyond p90, 24 beyond p75 -> falls back.
        assert_eq!(tail_percentile(&ramp(99), 90.0), Some((75.0, 75.0)));
        // 1000 samples: p90 qualifies, and nothing above max_p is chosen.
        assert_eq!(tail_percentile(&ramp(1000), 90.0).map(|t| t.0), Some(90.0));
        // 19 samples: nothing but the median has 10 beyond (19-10=9).
        assert_eq!(tail_percentile(&ramp(19), 90.0), None);
        assert_eq!(tail_percentile(&ramp(20), 90.0), Some((50.0, 10.0)));
    }

    #[test]
    fn every_emitted_tail_has_ten_samples_beyond_it() {
        for n in 1..400 {
            let s = ramp(n);
            if let Some((p, v)) = tail_percentile(&s, 90.0) {
                assert!(
                    s.iter().filter(|&&x| x > v).count() >= MIN_TAIL_SAMPLES,
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
