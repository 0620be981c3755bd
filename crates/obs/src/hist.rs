//! The fixed-bucket power-of-two histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: one for zero, one per power of two of the
/// `u64` range.
pub const BUCKETS: usize = 65;

/// Maps a value to its bucket: bucket 0 holds exactly `0`, bucket `i >= 1`
/// holds `2^(i-1) <= v < 2^i` (the last bucket's upper bound saturates at
/// `u64::MAX`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive `(lo, hi)` value range of bucket `index`.
///
/// # Panics
///
/// Panics when `index >= BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index == 0 {
        return (0, 0);
    }
    let lo = 1u64 << (index - 1);
    let hi = if index == BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    };
    (lo, hi)
}

/// A lock-free histogram over power-of-two buckets.
///
/// [`Histogram::record`] is two relaxed `fetch_add`s (bucket + running
/// sum); any number of threads may record concurrently and no sample is
/// ever lost.  [`Histogram::snapshot`] reads the buckets relaxed, so a
/// snapshot taken while writers run may be mid-sample (bucket counted, sum
/// not yet) — exact once writers are quiescent, like every counter in this
/// crate.
///
/// Power-of-two buckets trade resolution for a fixed 65-slot footprint
/// with branch-free indexing (`leading_zeros`); for the quantities this
/// workspace tracks — nanosecond latencies spanning 6 orders of magnitude,
/// round/batch sizes — within-2× resolution is the right trade.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample (lock-free, concurrent-writer safe).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Captures the current bucket counts and sum.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// An owned copy of a [`Histogram`]'s state, with its summary statistics
/// and JSON rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`] for ranges).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` clamped to `[0, 1]`); `0` when empty.  An upper bound — the
    /// true quantile lies within a factor of 2 below it.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(BUCKETS - 1).1
    }

    /// Renders the snapshot as a JSON object: `count`, `sum`, `mean`,
    /// `p50`/`p99` upper bounds, and the non-empty buckets as
    /// `[lo, hi, count]` triples.
    pub fn to_json(&self) -> String {
        let mut buckets = String::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(i);
            if !buckets.is_empty() {
                buckets.push_str(", ");
            }
            buckets.push_str(&format!("[{lo}, {hi}, {c}]"));
        }
        format!(
            "{{\"count\": {}, \"sum\": {}, \"mean\": {:.2}, \"p50\": {}, \"p99\": {}, \"buckets\": [{buckets}]}}",
            self.count(),
            self.sum,
            self.mean(),
            self.quantile_upper_bound(0.5),
            self.quantile_upper_bound(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Every bucket's bounds round-trip through `bucket_index`, and the
    /// values one past each boundary land in the neighbouring bucket.
    #[test]
    fn bucket_boundaries_are_exact() {
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_index(hi + 1), i + 1, "hi+1 of bucket {i}");
                assert_eq!(bucket_bounds(i + 1).0, hi + 1, "buckets {i},{} abut", i + 1);
            }
            if i > 0 {
                assert_eq!(bucket_index(lo - 1), i - 1, "lo-1 of bucket {i}");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    fn snap_of(values: &[u64]) -> HistSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    /// Four threads hammer one histogram; the result must equal the same
    /// samples recorded sequentially — no sample lost, none misfiled.
    #[test]
    fn concurrent_record_matches_sequential_count() {
        let hammer_threads = 4u64;
        let per_thread = 100_000u64;
        let sample = |t: u64, i: u64| {
            // SplitMix64 so the samples spray across buckets deterministically.
            let mut z = (t << 32 | i).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 1_000_000
        };

        let shared = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..hammer_threads)
            .map(|t| {
                let h = Arc::clone(&shared);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(sample(t, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let sequential = Histogram::new();
        for t in 0..hammer_threads {
            for i in 0..per_thread {
                sequential.record(sample(t, i));
            }
        }
        assert_eq!(shared.snapshot(), sequential.snapshot());
        assert_eq!(shared.snapshot().count(), hammer_threads * per_thread);
    }

    #[test]
    fn quantiles_and_json_render() {
        let s = snap_of(&[0, 1, 2, 4, 8, 1000]);
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1015);
        // p0 is the smallest non-empty bucket's upper bound; p100 the largest.
        assert_eq!(s.quantile_upper_bound(0.0), 0);
        assert_eq!(s.quantile_upper_bound(1.0), 1023);
        assert!(s.quantile_upper_bound(0.5) <= 7);
        assert_eq!(HistSnapshot::default().quantile_upper_bound(0.5), 0);

        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"count\": 6"), "{json}");
        assert!(json.contains("[512, 1023, 1]"), "{json}");
        assert_eq!(HistSnapshot::default().to_json().matches("[[").count(), 0);
    }
}
