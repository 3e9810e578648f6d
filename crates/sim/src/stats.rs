//! Latency histograms and the deterministic shard split.
//!
//! [`Histogram`] is an HDR-style log-bucketed histogram for request
//! latencies, supporting arbitrary quantiles with bounded relative error;
//! [`shard_share`] splits a count across equal shards.

use std::fmt;

use crate::time::Nanos;

/// Number of linear sub-buckets per power-of-two bucket.
///
/// 32 sub-buckets bound the relative quantile error to about 3%.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// HDR-style log-bucketed histogram over `u64` values (typically
/// nanoseconds).
///
/// Values are grouped into power-of-two magnitude buckets, each split into
/// `SUB_BUCKETS` linear sub-buckets, giving ~3% relative error on reported
/// quantiles regardless of the value range — the same design HdrHistogram
/// uses, reimplemented minimally here to keep the core dependency-free.
///
/// # Example
///
/// ```
/// use xc_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.50);
/// assert!((450..=550).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // 64 magnitude buckets × SUB_BUCKETS covers the full u64 range.
        Histogram {
            counts: vec![0; 64 * SUB_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Branch-free bucket index. Indices 0..2·SUB_BUCKETS are exactly
    /// `value` (bucket 1's shift is zero, so its formula degenerates to
    /// the identity), which lets the small-value case fall out of the
    /// general formula: `value | 1` makes `leading_zeros` well-defined
    /// at zero, and the two saturating clamps (compiled to cmov, not
    /// branches) pin sub-`SUB_BUCKETS` magnitudes to shift 0 / base 0.
    #[inline]
    fn index_of(value: u64) -> usize {
        let magnitude = 63 - (value | 1).leading_zeros();
        let shift = magnitude.saturating_sub(SUB_BITS);
        let base = (magnitude + 1).saturating_sub(SUB_BITS) as usize * SUB_BUCKETS;
        base + ((value >> shift) as usize & (SUB_BUCKETS - 1))
    }

    /// Representative (midpoint-ish upper bound) value for a bucket index.
    fn value_of(index: usize) -> u64 {
        let bucket = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if bucket == 0 {
            sub
        } else {
            let magnitude = bucket as u32 + SUB_BITS - 1;
            let base = (SUB_BUCKETS as u64 + sub) << (magnitude - SUB_BITS);
            // Upper edge of the sub-bucket minus one, i.e. the largest value
            // mapping to this index.
            base + ((1u64 << (magnitude - SUB_BITS)) - 1)
        }
    }

    /// Records a single value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Records a [`Nanos`] duration.
    pub fn record_nanos(&mut self, value: Nanos) {
        self.record(value.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of recorded values (sums are exact; only bucket *positions*
    /// are approximate).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` in `[0, 1]`, within ~3% relative error.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket's representative value into the exactly
                // tracked [min, max] envelope.
                return Self::value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: the median.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Merges another histogram into this one.
    ///
    /// Counts saturate instead of wrapping, and the bucket loop is the
    /// same lane-chunked pass as [`merge_many`](Self::merge_many).
    pub fn merge(&mut self, other: &Histogram) {
        self.merge_many(&[other]);
    }

    /// Width of the fixed lane arrays the merge loops accumulate into.
    ///
    /// Eight u64 lanes fill two AVX2 registers; the loops below are plain
    /// array arithmetic over `[u64; LANES]` chunks with no per-bucket
    /// branching, which LLVM autovectorizes.
    const LANES: usize = 8;

    /// Merges every histogram in `others` into `self` in one pass over the
    /// bucket array.
    ///
    /// Integer bucket counts are exact and order-independent, so this is
    /// safe for tree reduction: folding N shards here
    /// touches each of the 2 048 buckets once (sources inner, buckets
    /// outer) instead of N times, and produces bytes identical to N
    /// sequential [`merge`](Self::merge) calls in any order. All counters
    /// saturate instead of wrapping.
    pub fn merge_many(&mut self, others: &[&Histogram]) {
        let n = self.counts.len();
        let mut i = 0;
        while i + Self::LANES <= n {
            let mut acc = [0u64; Self::LANES];
            acc.copy_from_slice(&self.counts[i..i + Self::LANES]);
            for other in others {
                debug_assert_eq!(other.counts.len(), n);
                let src = &other.counts[i..i + Self::LANES];
                for (a, &b) in acc.iter_mut().zip(src) {
                    *a = a.saturating_add(b);
                }
            }
            self.counts[i..i + Self::LANES].copy_from_slice(&acc);
            i += Self::LANES;
        }
        while i < n {
            let mut a = self.counts[i];
            for other in others {
                a = a.saturating_add(other.counts[i]);
            }
            self.counts[i] = a;
            i += 1;
        }
        for other in others {
            self.total = self.total.saturating_add(other.total);
            self.sum = self.sum.saturating_add(other.sum);
            self.max = self.max.max(other.max);
            self.min = self.min.min(other.min);
        }
    }
}

/// Items shard `index` owns when `total` items split across `shards`
/// equal partitions: the remainder goes to the lowest-indexed shards, so
/// the split is a pure function of `(total, shards)` — the contract
/// every deterministic sharded merge in the workspace relies on (the
/// parallel bench runner, the per-worker closed loop, the cluster
/// study's client partition).
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_share(total: u64, shards: u64, index: u64) -> u64 {
    assert!(shards > 0, "shard_share over zero shards");
    total / shards + u64::from(index < total % shards)
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p99={} max={}",
            self.total,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        // Small values land in dedicated unit buckets: quantiles are exact.
        assert_eq!(h.quantile(1.0), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_quantile_error_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000u64), (0.9, 90_000), (0.99, 99_000)] {
            let got = h.quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.04, "q={q} got={got} expect={expect} err={err}");
        }
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.mean(), 25.0);
        assert_eq!(h.max(), 40);
        assert_eq!(h.min(), 10);
    }

    #[test]
    fn histogram_merge_equals_union() {
        let a: Histogram = (1..1000u64).collect();
        let b: Histogram = (1000..5000u64).collect();
        let mut merged = a.clone();
        merged.merge(&b);
        let union: Histogram = (1..5000u64).collect();
        assert_eq!(merged.count(), union.count());
        assert_eq!(merged.quantile(0.5), union.quantile(0.5));
        assert_eq!(merged.max(), union.max());
    }

    #[test]
    fn histogram_merge_saturates_counts() {
        // A count near u64::MAX cannot be recorded one value at a time,
        // so write it into the bucket and the total directly.
        let mut a = Histogram::new();
        a.record(5);
        a.counts[Histogram::index_of(5)] = u64::MAX - 3;
        a.total = u64::MAX - 3;
        let mut b = Histogram::new();
        for _ in 0..10 {
            b.record(5);
            b.record(1 << 40); // an overflow-range bucket too
        }
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "total must saturate, not wrap");
        assert_eq!(
            a.counts[Histogram::index_of(5)],
            u64::MAX,
            "bucket count must saturate, not wrap"
        );
        assert_eq!(a.counts[Histogram::index_of(1 << 40)], 10);
        assert_eq!(a.max(), 1 << 40);
    }

    #[test]
    fn histogram_merge_many_matches_sequential() {
        let parts: Vec<Histogram> = (0..7)
            .map(|i| {
                (i * 1000..(i + 1) * 1000 + 13)
                    .map(|v| v * 31 + 1)
                    .collect()
            })
            .collect();
        let mut seq = Histogram::new();
        for p in &parts {
            seq.merge(p);
        }
        let mut many = Histogram::new();
        many.merge_many(&parts.iter().collect::<Vec<_>>());
        // Full structural equality: identical buckets, totals, extrema.
        assert_eq!(seq, many);
        assert_eq!(seq.quantile(0.999), many.quantile(0.999));
    }

    #[test]
    fn histogram_merge_many_with_empties() {
        let mut a = Histogram::new();
        let b: Histogram = (1..100u64).collect();
        let empty = Histogram::new();
        a.merge_many(&[&empty, &b, &empty]);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_empty_quantile_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_handles_huge_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Quantile clamps into the observed envelope.
        assert!(h.quantile(0.5) >= u64::MAX / 2);
    }

    #[test]
    fn index_value_monotone() {
        // value_of(index_of(v)) >= v and indices are monotone in v.
        let mut prev_idx = 0;
        for v in (0..2_000_000u64).step_by(997) {
            let idx = Histogram::index_of(v);
            assert!(idx >= prev_idx, "index must be monotone at v={v}");
            prev_idx = idx;
            assert!(Histogram::value_of(idx) >= v);
        }
    }

    #[test]
    fn branch_free_index_matches_branching_reference() {
        // The original early-return formula, kept verbatim as the
        // reference the branch-free rewrite must reproduce bit-for-bit.
        fn reference(value: u64) -> usize {
            if value < SUB_BUCKETS as u64 {
                return value as usize;
            }
            let magnitude = 63 - value.leading_zeros();
            let bucket = magnitude - SUB_BITS + 1;
            let sub = (value >> (magnitude - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
            (bucket as usize) * SUB_BUCKETS + sub
        }
        for v in 0..10_000u64 {
            assert_eq!(Histogram::index_of(v), reference(v), "v={v}");
        }
        for shift in 0..64u32 {
            for delta in [-1i64, 0, 1] {
                let v = (1u64 << shift).wrapping_add_signed(delta);
                assert_eq!(Histogram::index_of(v), reference(v), "v={v}");
            }
        }
        assert_eq!(Histogram::index_of(u64::MAX), reference(u64::MAX));
    }
}
