//! Fixed-size latency histogram: constant memory and no allocation inside
//! the timed window, mergeable across clients.
//!
//! Values below `LINEAR` ns land in 1-ns buckets; above, each octave is cut
//! into `SUB` equal buckets (≤ 1.6 % wide).  Quantiles interpolate linearly
//! inside the bucket (the grouped-data estimator), so a median over
//! thousands of 1-ns-quantised samples still resolves below the clock's
//! granularity instead of reading the same integer on every run.

const LINEAR_BITS: u32 = 12;
const LINEAR: u64 = 1 << LINEAR_BITS;
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the linear range; the last bucket absorbs anything slower
/// than 2^(12+28) ns ≈ 18 minutes.
const OCTAVES: u64 = 28;
const BUCKETS: usize = (LINEAR + OCTAVES * SUB) as usize;

#[derive(Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u64,
}

fn bucket_of(ns: u64) -> usize {
    if ns < LINEAR {
        return ns as usize;
    }
    let octave = u64::from(63 - ns.leading_zeros() - LINEAR_BITS);
    let sub = (ns >> (octave + u64::from(LINEAR_BITS - SUB_BITS))) - SUB;
    ((LINEAR + octave * SUB + sub) as usize).min(BUCKETS - 1)
}

/// `[lo, hi)` of a bucket, in ns.
fn bounds_of(bucket: usize) -> (f64, f64) {
    let b = bucket as u64;
    if b < LINEAR {
        return (b as f64, (b + 1) as f64);
    }
    let octave = (b - LINEAR) / SUB;
    let sub = (b - LINEAR) % SUB;
    let width = 1u64 << (octave + u64::from(LINEAR_BITS - SUB_BITS));
    let lo = (LINEAR << octave) + sub * width;
    (lo as f64, (lo + width) as f64)
}

impl LatencyHist {
    pub fn new() -> LatencyHist {
        LatencyHist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// The `q`-quantile in ns, interpolated inside its bucket; `None` when
    /// nothing was recorded.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = q * self.total as f64;
        let mut below = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= target {
                let (lo, hi) = bounds_of(bucket);
                let into = ((target - below as f64) / count as f64).clamp(0.0, 1.0);
                return Some(lo + into * (hi - lo));
            }
            below += count;
        }
        Some(bounds_of(BUCKETS - 1).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expect_lo = 0.0;
        for bucket in 0..BUCKETS {
            let (lo, hi) = bounds_of(bucket);
            assert_eq!(lo, expect_lo, "bucket {bucket}");
            assert!(hi > lo);
            expect_lo = hi;
        }
        for ns in [
            0,
            1,
            4095,
            4096,
            4159,
            4160,
            8191,
            8192,
            1 << 20,
            (1 << 30) + 12345,
        ] {
            let (lo, hi) = bounds_of(bucket_of(ns));
            assert!(
                lo <= ns as f64 && (ns as f64) < hi,
                "{ns} not in [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        let mut hist = LatencyHist::new();
        for _ in 0..100 {
            hist.record(120);
        }
        let p50 = hist.quantile_ns(0.5).unwrap();
        assert!((120.0..121.0).contains(&p50), "{p50}");
        assert_eq!(hist.count(), 100);
        assert!(LatencyHist::new().quantile_ns(0.5).is_none());
    }
}
