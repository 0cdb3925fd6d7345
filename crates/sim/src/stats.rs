//! Measurement primitive: the latency histogram.
//!
//! Experiments report virtual-time latencies; a log-bucketed histogram keeps
//! recording O(1) while still giving tight percentiles across nine decades
//! (1 ns .. ~1 s), which covers everything from an IOTLB hit to a NAND erase.

use std::fmt;

use crate::time::SimDuration;

/// Number of log-spaced buckets per power of two (resolution ≈ 9%).
const SUB_BUCKETS: usize = 8;
/// Covers values up to 2^40 ns ≈ 18 minutes of virtual time.
const MAX_POW2: usize = 40;
const BUCKETS: usize = MAX_POW2 * SUB_BUCKETS;

/// A log-bucketed histogram of durations (or any u64 quantity).
///
/// Relative bucket error is bounded by `2^(1/SUB_BUCKETS) - 1` ≈ 9%, which is
/// far below run-to-run workload noise, while recording stays constant-time
/// and the struct stays small enough to keep one per (device, operation).
///
/// # Examples
///
/// ```
/// use lastcpu_sim::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for us in 1..=100u64 {
///     h.record(SimDuration::from_micros(us));
/// }
/// let p50 = h.percentile(50.0).as_micros();
/// assert!((45..=55).contains(&p50), "p50 was {p50}us");
/// ```
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u32>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < 2 {
            return v as usize; // 0 and 1 get exact buckets.
        }
        let pow = 63 - v.leading_zeros() as usize; // floor(log2 v), >= 1
        let frac = ((v >> (pow.saturating_sub(3))) & 0x7) as usize; // top 3 bits below the MSB
        let idx = pow * SUB_BUCKETS + frac;
        idx.min(BUCKETS - 1)
    }

    /// Representative (geometric-ish midpoint) value for bucket `idx`.
    /// Percentiles now interpolate between bucket edges instead; the
    /// midpoint is kept for the bucket-layout regression tests.
    #[cfg(test)]
    fn bucket_value(idx: usize) -> u64 {
        if idx < 2 {
            return idx as u64;
        }
        let pow = idx / SUB_BUCKETS;
        let frac = idx % SUB_BUCKETS;
        let base = 1u64 << pow;
        base + (base >> 3).saturating_mul(frac as u64) + (base >> 4)
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.record_value(d.as_nanos());
    }

    /// Records one raw value.
    pub fn record_value(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (exact, in raw units).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value as a duration (zero when empty).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min)
        }
    }

    /// Largest recorded value as a duration (zero when empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }

    /// Arithmetic mean as a duration (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum / self.count as u128) as u64)
        }
    }

    /// Lower edge of bucket `idx` (the smallest value that maps to it).
    fn bucket_lower(idx: usize) -> u64 {
        if idx < 2 {
            return idx as u64;
        }
        let pow = idx / SUB_BUCKETS;
        let frac = idx % SUB_BUCKETS;
        let base = 1u64 << pow;
        base + (base >> 3).saturating_mul(frac as u64)
    }

    /// The `p`-th percentile (`0 <= p <= 100`) as a duration.
    ///
    /// Exact for the min/max envelope. Inside, the target rank is located in
    /// its log bucket and then **interpolated within the bucket** by rank
    /// position: a rank that lands `k`-th of `n` samples into bucket
    /// `[lo, lo+width)` reports `lo + width*k/n` rather than the bucket's
    /// fixed midpoint. The result can never be off by more than one bucket
    /// width (≈9%), and tail percentiles (p99/p999) stop collapsing onto the
    /// same midpoint when they share a bucket.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        if p >= 100.0 {
            // The maximum is tracked exactly; do not round it through a
            // bucket representative.
            return self.max();
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if rank <= 1 {
            // p→0 clamps its rank to the first sample: exactly the minimum.
            return self.min();
        }
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            let in_bucket = c as u64;
            if seen + in_bucket >= rank {
                let lo = Self::bucket_lower(idx);
                let width = Self::bucket_lower(idx + 1).saturating_sub(lo);
                let into = (rank - seen) as f64 / in_bucket as f64; // (0, 1]
                let v = lo + (width as f64 * into).round() as u64;
                // Clamp into the observed envelope so p100 == max and
                // p0 == min stay exact even at the bucket boundaries.
                return SimDuration::from_nanos(v.clamp(self.min, self.max));
            }
            seen += in_bucket;
        }
        SimDuration::from_nanos(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// One-line summary: `n=.. mean=.. p50=.. p99=.. max=..`.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram({})", self.summary())
    }
}

impl lastcpu_snap::Snapshot for Histogram {
    /// Serializes the envelope plus only the non-zero buckets (bucket
    /// layout is a compile-time constant, so sparse pairs are stable).
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.count);
        w.put_u128(self.sum);
        w.put_u64(self.min);
        w.put_u64(self.max);
        let nonzero = self.buckets.iter().filter(|&&c| c != 0).count();
        w.put_len(nonzero);
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                w.put_u32(idx as u32);
                w.put_u32(c);
            }
        }
    }
}

impl lastcpu_snap::Restore for Histogram {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.reset();
        self.count = r.u64()?;
        self.sum = r.u128()?;
        self.min = r.u64()?;
        self.max = r.u64()?;
        let n = r.len()?;
        for _ in 0..n {
            let idx = r.u32()? as usize;
            let c = r.u32()?;
            if idx >= BUCKETS {
                return Err(lastcpu_snap::SnapError::Corrupt {
                    section: "histogram".into(),
                    detail: format!("bucket index {idx} out of range"),
                });
            }
            self.buckets[idx] = c;
        }
        Ok(())
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Histogram invariants over arbitrary samples: ordering of
        /// percentiles, envelope exactness, and bounded relative error
        /// against an exact quantile.
        #[test]
        fn prop_histogram_quantile_bounds(mut samples in proptest::collection::vec(1u64..1_000_000_000, 1..300)) {
            let mut h = Histogram::new();
            for &s in &samples {
                h.record_value(s);
            }
            samples.sort_unstable();
            prop_assert_eq!(h.count(), samples.len() as u64);
            prop_assert_eq!(h.min().as_nanos(), samples[0]);
            prop_assert_eq!(h.max().as_nanos(), *samples.last().unwrap());
            let p50 = h.percentile(50.0).as_nanos();
            let p99 = h.percentile(99.0).as_nanos();
            let p100 = h.percentile(100.0).as_nanos();
            prop_assert!(p50 <= p99 && p99 <= p100);
            prop_assert_eq!(p100, *samples.last().unwrap());
            // p50 within ~15% of the exact median (9% bucket error plus
            // rank rounding on small sample counts).
            let exact = samples[(samples.len() - 1) / 2] as f64;
            let err = (p50 as f64 - exact).abs() / exact;
            prop_assert!(err < 0.16, "p50={p50} exact={exact} err={err}");
            // Mean inside the envelope.
            let mean = h.mean().as_nanos();
            prop_assert!(mean >= samples[0] && mean <= *samples.last().unwrap());
        }

        /// Bucket-boundary audit: at every percentile the histogram's
        /// interpolated answer stays within one log-bucket width of the
        /// exact sorted-sample percentile (same nearest-rank definition the
        /// histogram uses).
        #[test]
        fn prop_percentile_within_one_bucket_of_exact(
            mut samples in proptest::collection::vec(1u64..1_000_000_000, 1..400),
            pct_tenths in 0u32..=1000,
        ) {
            let mut h = Histogram::new();
            for &s in &samples {
                h.record_value(s);
            }
            samples.sort_unstable();
            let p = pct_tenths as f64 / 10.0;
            let got = h.percentile(p).as_nanos();
            let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
            let exact = samples[rank.min(samples.len()) - 1];
            // One bucket width at `exact`: ≤ exact/8 once sub-bucketing is
            // active (values ≥ 8); below that the layout is coarser (the
            // [4, 8) range is one bucket), hence the +4 floor.
            let width = exact / 8 + 4;
            let lo = exact.saturating_sub(width);
            let hi = exact.saturating_add(width);
            prop_assert!(
                (lo..=hi).contains(&got),
                "p={p} got={got} exact={exact} width={width}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_is_exact() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(1234));
        assert_eq!(h.count(), 1);
        assert_eq!(h.min().as_nanos(), 1234);
        assert_eq!(h.max().as_nanos(), 1234);
        assert_eq!(h.percentile(50.0).as_nanos(), 1234);
        assert_eq!(h.percentile(100.0).as_nanos(), 1234);
    }

    #[test]
    fn percentiles_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record_value(v);
        }
        let p50 = h.percentile(50.0).as_nanos() as f64;
        let p99 = h.percentile(99.0).as_nanos() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.15, "p50={p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.15, "p99={p99}");
        assert_eq!(h.mean().as_nanos(), 5_000);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_value(10);
        b.record_value(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min().as_nanos(), 10);
        assert_eq!(a.max().as_nanos(), 1_000_000);
    }

    #[test]
    fn bucket_values_are_monotone() {
        let mut prev = 0u64;
        for idx in 0..BUCKETS {
            let v = Histogram::bucket_value(idx);
            assert!(v >= prev, "bucket {idx}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn bucket_index_maps_value_near_itself() {
        for shift in 1..39u32 {
            let v = 1u64 << shift;
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx) as f64;
            let err = (rep - v as f64).abs() / v as f64;
            assert!(err < 0.15, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn tail_percentiles_interpolate_within_a_shared_bucket() {
        // 989 fast samples and 11 slow ones spread inside one log bucket:
        // p99 (rank 990) and p99.9 (rank 999) land in the same bucket but at
        // different ranks, so interpolation must order them strictly instead
        // of collapsing both onto the bucket midpoint.
        let mut h = Histogram::new();
        for _ in 0..989 {
            h.record_value(1_000);
        }
        for i in 0..11u64 {
            // 65536..73536: all inside the [65536, 73728) bucket.
            h.record_value(65_536 + i * 800);
        }
        let p99 = h.percentile(99.0).as_nanos();
        let p999 = h.percentile(99.9).as_nanos();
        assert!(p99 < p999, "p99={p99} p999={p999}");
        assert_eq!(h.percentile(100.0).as_nanos(), 65_536 + 10 * 800);
        // Both stay within the slow cluster's bucket.
        assert!((65_536..=73_536).contains(&p99), "p99={p99}");
        assert!((65_536..=73_536).contains(&p999), "p999={p999}");
    }

    #[test]
    fn interpolated_percentile_is_monotone_in_p() {
        let mut h = Histogram::new();
        for v in [1u64, 3, 9, 100, 101, 102, 4_000, 65_000, 1_000_000] {
            h.record_value(v);
        }
        let mut prev = 0u64;
        for tenth in 0..=1000u32 {
            let p = tenth as f64 / 10.0;
            let v = h.percentile(p).as_nanos();
            assert!(v >= prev, "p={p}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn zero_duration_record_lands_in_exact_bucket() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
        assert_eq!(h.percentile(100.0), SimDuration::ZERO);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn values_above_ceiling_clamp_into_last_bucket() {
        let ceiling = 1u64 << MAX_POW2; // ~18 virtual minutes in ns
        let mut h = Histogram::new();
        h.record_value(ceiling);
        h.record_value(ceiling * 4);
        h.record_value(u64::MAX);
        assert_eq!(h.count(), 3);
        // Envelope stays exact even though buckets saturate.
        assert_eq!(h.min().as_nanos(), ceiling);
        assert_eq!(h.max().as_nanos(), u64::MAX);
        assert_eq!(h.percentile(100.0).as_nanos(), u64::MAX);
        // All three landed in the final bucket; percentiles stay inside the
        // observed envelope rather than inventing values beyond it.
        let p50 = h.percentile(50.0).as_nanos();
        assert!((ceiling..=u64::MAX).contains(&p50), "p50={p50}");
    }

    #[test]
    fn percentile_zero_and_hundred_hit_the_envelope() {
        let mut h = Histogram::new();
        for v in [10u64, 500, 90_000] {
            h.record_value(v);
        }
        // p→0 clamps its rank to the first sample: exactly the minimum.
        assert_eq!(h.percentile(0.0).as_nanos(), 10);
        assert_eq!(h.percentile(100.0).as_nanos(), 90_000);
        // Above-100 requests behave like 100.
        assert_eq!(h.percentile(150.0).as_nanos(), 90_000);
    }

    #[test]
    fn merge_of_two_histograms_is_sample_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100u64 {
            a.record_value(v);
        }
        for v in 1_000..=1_100u64 {
            b.record_value(v);
        }
        let (ca, cb) = (a.count(), b.count());
        let sum = a.sum() + b.sum();
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.sum(), sum);
        assert_eq!(a.min().as_nanos(), 1);
        assert_eq!(a.max().as_nanos(), 1_100);
        // The p50 of the union sits between the two clusters' medians.
        let p50 = a.percentile(50.0).as_nanos();
        assert!((50..=1_100).contains(&p50), "p50={p50}");

        // Merging an empty histogram is a no-op on the envelope.
        let before_min = a.min();
        let before_max = a.max();
        a.merge(&Histogram::new());
        assert_eq!(a.min(), before_min);
        assert_eq!(a.max(), before_max);

        // Merging INTO an empty histogram adopts the other's envelope.
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e.count(), a.count());
        assert_eq!(e.min(), a.min());
        assert_eq!(e.max(), a.max());
    }

    #[test]
    fn reset_clears_histogram() {
        let mut h = Histogram::new();
        h.record_value(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), SimDuration::ZERO);
    }
}
