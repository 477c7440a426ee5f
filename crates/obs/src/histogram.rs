//! Deterministic fixed-bucket latency histograms.
//!
//! Buckets are powers of two over picosecond durations: bucket 0 holds
//! exactly 0, bucket `i` (i ≥ 1) holds durations in `[2^(i-1), 2^i)`.
//! Fixed bucket edges make percentiles deterministic: a reported
//! quantile is the inclusive upper bound of the bucket containing the
//! target observation (clamped to the true maximum), so the same
//! samples always produce the same numbers — byte-identical output for
//! same-seed runs, and histograms from different sources merge without
//! re-binning.

/// Number of buckets: one for zero plus one per power of two up to
/// `2^64`.
pub const BUCKET_COUNT: usize = 65;

/// A fixed-bucket histogram of virtual-time durations (picoseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKET_COUNT],
    count: u64,
    sum_ps: u64,
    max_ps: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKET_COUNT],
            count: 0,
            sum_ps: 0,
            max_ps: 0,
        }
    }
}

/// Bucket index for a duration: 0 for 0, else `64 - leading_zeros` so
/// `[2^(i-1), 2^i)` lands in bucket `i`.
fn bucket_of(dur_ps: u64) -> usize {
    (u64::BITS - dur_ps.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&mut self, dur_ps: u64) {
        self.counts[bucket_of(dur_ps)] += 1;
        self.count += 1;
        self.sum_ps = self.sum_ps.saturating_add(dur_ps);
        self.max_ps = self.max_ps.max(dur_ps);
    }

    /// Fold another histogram into this one. Because bucket edges are
    /// fixed, merging is exact: the result is identical to having
    /// recorded all observations into one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ps = self.sum_ps.saturating_add(other.sum_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum observation, ps.
    pub fn max_ps(&self) -> u64 {
        self.max_ps
    }

    /// Sum of observations, ps (saturating).
    pub fn sum_ps(&self) -> u64 {
        self.sum_ps
    }

    /// Mean observation, ps (integer division; 0 when empty).
    pub fn mean_ps(&self) -> u64 {
        self.sum_ps.checked_div(self.count).unwrap_or(0)
    }

    /// The `pct`-th percentile (0–100): the upper bound of the bucket
    /// containing the `ceil(pct/100 · count)`-th smallest observation,
    /// clamped to the exact maximum. Deterministic by construction.
    pub fn percentile(&self, pct: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count * pct as u64).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(i).min(self.max_ps);
            }
        }
        self.max_ps
    }

    /// Median (see [`Histogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }

    /// Non-empty buckets as `(bucket index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(3), 7);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn percentiles_are_deterministic_bucket_bounds() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 1000, 1000, 5000, 5000, 70_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max_ps(), 70_000);
        // p50: 5th smallest = 1000 → bucket [512,1024) → upper 1023.
        assert_eq!(h.p50(), 1023);
        // p99: 10th smallest = 70_000 → bucket [65536,131072) → 131071,
        // clamped to max.
        assert_eq!(h.p99(), 70_000);
        assert_eq!(h.percentile(100), 70_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max_ps(), 0);
        assert_eq!(h.mean_ps(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let samples_a = [0u64, 7, 7, 512, 90_000];
        let samples_b = [3u64, 512, 1_000_000, 1_000_001];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for &v in &samples_a {
            a.record(v);
            whole.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count(), 9);
        assert_eq!(a.p50(), whole.p50());
        assert_eq!(a.max_ps(), 1_000_001);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
