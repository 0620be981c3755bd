//! Deterministic workload generators for benchmarks and tests.
//!
//! The paper evaluates the batched interpolation search tree on key
//! distributions of varying skew; this crate reproduces those inputs without
//! pulling in an external RNG crate.  Everything is seeded and deterministic,
//! so a benchmark run (or a failing test) can be replayed exactly.
//!
//! * [`SplitMix64`] — the tiny, high-quality PRNG underlying all generators.
//! * [`uniform_keys`] / [`uniform_keys_distinct`] — i.i.d. uniform keys.
//! * [`ZipfSampler`] — Zipf-distributed ranks, for skewed access patterns.
//! * [`mixed_op_batches`] / [`mixed_op_batches_zipf`] — sequences of mixed
//!   read/write operation batches, the input shape of the batched-set API.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Fast 64-bit PRNG (Steele, Lea & Flood's SplitMix64).
///
/// Passes BigCrush, needs only 64 bits of state, and is cheap enough that
/// generation never dominates a benchmark's setup phase.  Not
/// cryptographically secure.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.  The same seed always produces the
    /// same sequence.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// Uses the widening-multiply trick; the modulo bias is at most
    /// `bound / 2^64`, which is negligible for every workload size here.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a value uniformly distributed in `[0.0, 1.0)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Generates `count` keys drawn i.i.d. uniformly from `range`.
/// Duplicates are possible (and likely, for narrow ranges).
///
/// ```
/// let keys = workloads::uniform_keys(42, 8, 0..100);
/// assert_eq!(keys.len(), 8);
/// assert!(keys.iter().all(|k| (0..100).contains(k)));
/// // Same seed, same keys.
/// assert_eq!(keys, workloads::uniform_keys(42, 8, 0..100));
/// ```
///
/// # Panics
///
/// Panics if `range` is empty.
pub fn uniform_keys(seed: u64, count: usize, range: Range<u64>) -> Vec<u64> {
    assert!(range.start < range.end, "empty key range");
    let width = range.end - range.start;
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| range.start + rng.next_below(width))
        .collect()
}

/// Generates `count` **distinct** keys from `range`, in random order.
///
/// Keys are drawn uniformly and rejected on collision, so `count` should be
/// well below the range width (it must not exceed it).
///
/// # Panics
///
/// Panics if `range` has fewer than `count` values.
pub fn uniform_keys_distinct(seed: u64, count: usize, range: Range<u64>) -> Vec<u64> {
    let width = range.end.saturating_sub(range.start);
    assert!(
        u64::try_from(count).is_ok_and(|c| c <= width),
        "range narrower than requested key count"
    );
    let mut rng = SplitMix64::new(seed);
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let key = range.start + rng.next_below(width);
        if seen.insert(key) {
            keys.push(key);
        }
    }
    keys
}

/// Samples ranks `0..n` from a Zipf distribution with exponent `theta`:
/// rank `i` is drawn with probability proportional to `1 / (i + 1)^theta`.
///
/// Implemented with a precomputed cumulative table and binary search — O(n)
/// memory and setup, O(log n) per sample — which is plenty for the workload
/// sizes this reproduction targets.  `theta = 0` degenerates to uniform;
/// `theta ≈ 1` matches the skewed YCSB-style workloads from the paper's
/// evaluation.
///
/// ```
/// let mut zipf = workloads::ZipfSampler::new(7, 1000, 0.99);
/// let rank = zipf.next_rank();
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    rng: SplitMix64,
}

impl ZipfSampler {
    /// Builds a sampler over ranks `0..n` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative or non-finite.
    pub fn new(seed: u64, n: usize, theta: f64) -> ZipfSampler {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        assert!(theta >= 0.0 && theta.is_finite(), "invalid Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        ZipfSampler {
            cdf,
            rng: SplitMix64::new(seed),
        }
    }

    /// Draws the next rank in `[0, n)`.
    pub fn next_rank(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1)
    }

    /// Draws `count` ranks at once.
    pub fn take(&mut self, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.next_rank()).collect()
    }
}

/// What a generated operation batch does to a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Insert the batch's keys.
    Insert,
    /// Remove the batch's keys.
    Remove,
    /// Query membership of the batch's keys.
    Contains,
}

/// One batched operation: a kind plus the raw keys it applies to.
///
/// Keys are emitted unsorted and possibly with duplicates — normalising them
/// is the job of the batched-set API boundary (`batchapi::Batch`), so these
/// generators model what arriving traffic actually looks like.
#[derive(Debug, Clone)]
pub struct OpBatch {
    /// The operation all keys in this batch perform.
    pub kind: OpKind,
    /// The keys, in arrival (unsorted) order.
    pub keys: Vec<u64>,
}

/// Relative weights for choosing each batch's [`OpKind`]:
/// `(insert, remove, contains)`.  Only ratios matter; `(1, 1, 8)` is a
/// read-heavy mix, `(1, 1, 0)` is update-only.
pub type OpMix = (u32, u32, u32);

fn pick_kind(rng: &mut SplitMix64, mix: OpMix) -> OpKind {
    let (ins, rem, con) = mix;
    let total = u64::from(ins) + u64::from(rem) + u64::from(con);
    assert!(total > 0, "operation mix must have a positive weight");
    let roll = rng.next_below(total);
    if roll < u64::from(ins) {
        OpKind::Insert
    } else if roll < u64::from(ins) + u64::from(rem) {
        OpKind::Remove
    } else {
        OpKind::Contains
    }
}

/// Generates `num_batches` operation batches of `batch_size` keys each, with
/// kinds drawn by the weights in `mix` and keys i.i.d. uniform over `range`.
///
/// ```
/// let ops = workloads::mixed_op_batches(9, 4, 100, 0..1000, (1, 1, 2));
/// assert_eq!(ops.len(), 4);
/// assert!(ops.iter().all(|b| b.keys.len() == 100));
/// ```
///
/// # Panics
///
/// Panics if `range` is empty or every weight in `mix` is zero.
pub fn mixed_op_batches(
    seed: u64,
    num_batches: usize,
    batch_size: usize,
    range: Range<u64>,
    mix: OpMix,
) -> Vec<OpBatch> {
    assert!(range.start < range.end, "empty key range");
    let width = range.end - range.start;
    let mut rng = SplitMix64::new(seed);
    (0..num_batches)
        .map(|_| {
            let kind = pick_kind(&mut rng, mix);
            let keys = (0..batch_size)
                .map(|_| range.start + rng.next_below(width))
                .collect();
            OpBatch { kind, keys }
        })
        .collect()
}

/// Like [`mixed_op_batches`], but keys are drawn from `universe` by
/// Zipf-distributed rank with exponent `theta` — the skewed, hot-key traffic
/// of the paper's evaluation.
///
/// # Panics
///
/// Panics if `universe` is empty, `theta` is invalid (see
/// [`ZipfSampler::new`]), or every weight in `mix` is zero.
pub fn mixed_op_batches_zipf(
    seed: u64,
    num_batches: usize,
    batch_size: usize,
    universe: &[u64],
    theta: f64,
    mix: OpMix,
) -> Vec<OpBatch> {
    let mut rng = SplitMix64::new(seed);
    let mut zipf = ZipfSampler::new(seed ^ 0x5EED_2F17, universe.len(), theta);
    (0..num_batches)
        .map(|_| {
            let kind = pick_kind(&mut rng, mix);
            let keys = (0..batch_size)
                .map(|_| universe[zipf.next_rank()])
                .collect();
            OpBatch { kind, keys }
        })
        .collect()
}

/// One client's operation trace: `(kind, key)` pairs in issue order.
///
/// This is the input shape of the *concurrent* front-end (`combine`):
/// single-key operations, one stream per client thread, rather than the
/// pre-batched [`OpBatch`]es the batched API consumes directly.
pub type ClientTrace = Vec<(OpKind, u64)>;

/// Generates one operation trace per client thread, with kinds drawn by
/// `mix` and keys i.i.d. uniform over `range`.
///
/// Each client gets its **own** derived seed (split off `seed` through one
/// extra SplitMix64 step), so traces are independent streams: a failing
/// concurrent run replays exactly from `(seed, clients, ops_per_client)`,
/// and no two clients share a key sequence.
///
/// ```
/// let traces = workloads::client_traces(7, 4, 100, 0..1000, (2, 1, 1));
/// assert_eq!(traces.len(), 4);
/// assert!(traces.iter().all(|t| t.len() == 100));
/// assert_eq!(traces, workloads::client_traces(7, 4, 100, 0..1000, (2, 1, 1)));
/// assert_ne!(traces[0], traces[1]);
/// ```
///
/// # Panics
///
/// Panics if `range` is empty or every weight in `mix` is zero.
pub fn client_traces(
    seed: u64,
    clients: usize,
    ops_per_client: usize,
    range: Range<u64>,
    mix: OpMix,
) -> Vec<ClientTrace> {
    assert!(range.start < range.end, "empty key range");
    let width = range.end - range.start;
    let mut seeder = SplitMix64::new(seed);
    (0..clients)
        .map(|_| {
            let mut rng = SplitMix64::new(seeder.next_u64());
            (0..ops_per_client)
                .map(|_| {
                    let kind = pick_kind(&mut rng, mix);
                    (kind, range.start + rng.next_below(width))
                })
                .collect()
        })
        .collect()
}

/// Like [`client_traces`], but keys are drawn from `universe` by
/// Zipf-distributed rank with exponent `theta` — hot-key traffic, where
/// concurrent clients collide on the same keys and the front-end's
/// ordering of racing writes actually gets exercised.
///
/// # Panics
///
/// Panics if `universe` is empty, `theta` is invalid (see
/// [`ZipfSampler::new`]), or every weight in `mix` is zero.
pub fn client_traces_zipf(
    seed: u64,
    clients: usize,
    ops_per_client: usize,
    universe: &[u64],
    theta: f64,
    mix: OpMix,
) -> Vec<ClientTrace> {
    let mut seeder = SplitMix64::new(seed);
    (0..clients)
        .map(|_| {
            let client_seed = seeder.next_u64();
            let mut rng = SplitMix64::new(client_seed);
            let mut zipf = ZipfSampler::new(client_seed ^ 0x5EED_2F17, universe.len(), theta);
            (0..ops_per_client)
                .map(|_| {
                    let kind = pick_kind(&mut rng, mix);
                    (kind, universe[zipf.next_rank()])
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_not_constant() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_keys_land_in_range() {
        let keys = uniform_keys(3, 1000, 10..20);
        assert_eq!(keys.len(), 1000);
        assert!(keys.iter().all(|k| (10..20).contains(k)));
    }

    #[test]
    fn distinct_keys_are_distinct() {
        let keys = uniform_keys_distinct(5, 500, 0..10_000);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 500);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut zipf = ZipfSampler::new(17, 100, 1.0);
        let samples = zipf.take(20_000);
        assert!(samples.iter().all(|&r| r < 100));
        let head = samples.iter().filter(|&&r| r == 0).count();
        let tail = samples.iter().filter(|&&r| r == 99).count();
        // Rank 0 is ~100x more likely than rank 99 at theta = 1.
        assert!(head > tail * 4, "head={head} tail={tail}");
    }

    #[test]
    fn mixed_batches_are_deterministic_and_respect_shape() {
        let a = mixed_op_batches(31, 20, 64, 5..500, (1, 1, 2));
        let b = mixed_op_batches(31, 20, 64, 5..500, (1, 1, 2));
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.keys, y.keys);
            assert_eq!(x.keys.len(), 64);
            assert!(x.keys.iter().all(|k| (5..500).contains(k)));
        }
        // With all three weights positive, all three kinds eventually appear.
        let kinds: Vec<OpKind> = mixed_op_batches(31, 200, 1, 0..10, (1, 1, 1))
            .into_iter()
            .map(|b| b.kind)
            .collect();
        for kind in [OpKind::Insert, OpKind::Remove, OpKind::Contains] {
            assert!(kinds.contains(&kind), "{kind:?} never drawn");
        }
    }

    #[test]
    fn zero_weight_kinds_are_never_drawn() {
        let ops = mixed_op_batches(77, 100, 4, 0..100, (1, 0, 3));
        assert!(ops.iter().all(|b| b.kind != OpKind::Remove));
    }

    #[test]
    fn zipf_batches_draw_from_the_universe() {
        let universe: Vec<u64> = (0..50u64).map(|i| i * 1000).collect();
        let ops = mixed_op_batches_zipf(13, 10, 200, &universe, 0.99, (1, 1, 2));
        assert_eq!(ops.len(), 10);
        for batch in &ops {
            assert!(batch.keys.iter().all(|k| universe.contains(k)));
        }
        // Skew: the hottest key appears far more often than a cold one.
        let all: Vec<u64> = ops.iter().flat_map(|b| b.keys.iter().copied()).collect();
        let hot = all.iter().filter(|&&k| k == universe[0]).count();
        let cold = all.iter().filter(|&&k| k == universe[49]).count();
        assert!(hot > cold, "hot={hot} cold={cold}");
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut zipf = ZipfSampler::new(23, 10, 0.0);
        let samples = zipf.take(50_000);
        for rank in 0..10 {
            let count = samples.iter().filter(|&&r| r == rank).count();
            // Expected 5000 each; allow a wide tolerance.
            assert!((3500..6500).contains(&count), "rank {rank}: {count}");
        }
    }

    // ---- statistical sanity: these generators underpin every oracle test
    // and benchmark, so their distributions are pinned here, not assumed.

    /// Chi-square-style bucket bound on the uniform generator: with
    /// `SAMPLES` draws over `BUCKETS` equiprobable buckets, each count is
    /// Binomial(SAMPLES, 1/BUCKETS); mean 1000, sigma ≈ 31.4.  A ±6σ band
    /// (~[811, 1189]) makes a false failure astronomically unlikely while
    /// still catching any real bucket bias.  Checked per seed so a failure
    /// names the offending seed.
    #[test]
    fn splitmix_uniform_bucket_coverage() {
        const BUCKETS: u64 = 64;
        const SAMPLES: usize = 64_000;
        let expected = SAMPLES as f64 / BUCKETS as f64;
        let sigma = (SAMPLES as f64 * (1.0 / BUCKETS as f64) * (1.0 - 1.0 / BUCKETS as f64)).sqrt();
        for seed in [1u64, 0xDEAD_BEEF, u64::MAX / 3] {
            let mut rng = SplitMix64::new(seed);
            let mut counts = [0usize; BUCKETS as usize];
            for _ in 0..SAMPLES {
                counts[rng.next_below(BUCKETS) as usize] += 1;
            }
            for (bucket, &count) in counts.iter().enumerate() {
                let dev = (count as f64 - expected).abs();
                assert!(
                    dev <= 6.0 * sigma,
                    "seed {seed}: bucket {bucket} has {count} hits \
                     (expected {expected:.0} ± {:.0})",
                    6.0 * sigma
                );
            }
        }
    }

    /// Zipf rank-frequency shape: decade-bucketed counts must be strictly
    /// decreasing (individual adjacent ranks differ too little to assert
    /// on, whole decades differ by large factors), and the top rank's mass
    /// must sit in the analytic band `1 / H_{n,θ}` ± 6σ.
    #[test]
    fn zipf_rank_frequency_is_monotone_with_expected_head_mass() {
        const N: usize = 100;
        const SAMPLES: usize = 100_000;
        const THETA: f64 = 1.0;
        for seed in [3u64, 77, 4096] {
            let mut zipf = ZipfSampler::new(seed, N, THETA);
            let mut counts = [0usize; N];
            for _ in 0..SAMPLES {
                counts[zipf.next_rank()] += 1;
            }
            let decades: Vec<usize> = counts.chunks(10).map(|c| c.iter().sum()).collect();
            for pair in decades.windows(2) {
                assert!(
                    pair[0] > pair[1],
                    "seed {seed}: decade counts not decreasing: {decades:?}"
                );
            }
            // p(rank 0) = 1 / H_{n,θ} with H the generalised harmonic number.
            let harmonic: f64 = (1..=N).map(|i| 1.0 / (i as f64).powf(THETA)).sum();
            let p0 = 1.0 / harmonic;
            let sigma = (SAMPLES as f64 * p0 * (1.0 - p0)).sqrt();
            let head = counts[0] as f64;
            assert!(
                (head - SAMPLES as f64 * p0).abs() <= 6.0 * sigma,
                "seed {seed}: head rank has {head} hits, expected {:.0} ± {:.0}",
                SAMPLES as f64 * p0,
                6.0 * sigma
            );
        }
    }

    #[test]
    fn distinct_keys_are_in_range_deterministic_and_exact() {
        for seed in [5u64, 99] {
            let keys = uniform_keys_distinct(seed, 2_000, 100..50_000);
            assert_eq!(keys.len(), 2_000, "seed {seed}");
            assert!(
                keys.iter().all(|k| (100..50_000).contains(k)),
                "seed {seed}"
            );
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 2_000, "seed {seed}: duplicates generated");
            assert_eq!(keys, uniform_keys_distinct(seed, 2_000, 100..50_000));
        }
        // Saturating the range is legal: every value appears exactly once.
        let mut all = uniform_keys_distinct(11, 64, 0..64);
        all.sort_unstable();
        assert_eq!(all, (0..64u64).collect::<Vec<_>>());
    }

    #[test]
    fn client_traces_are_per_client_independent_streams() {
        let traces = client_traces(42, 6, 500, 10..5_000, (3, 2, 1));
        assert_eq!(traces.len(), 6);
        for (c, trace) in traces.iter().enumerate() {
            assert_eq!(trace.len(), 500, "client {c}");
            assert!(
                trace.iter().all(|(_, k)| (10..5_000).contains(k)),
                "client {c}"
            );
        }
        // Determinism and stream independence.
        assert_eq!(traces, client_traces(42, 6, 500, 10..5_000, (3, 2, 1)));
        for pair in traces.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
        // Weights are honoured: zero-weight kinds never appear.
        let no_removes = client_traces(9, 2, 400, 0..100, (1, 0, 1));
        assert!(no_removes
            .iter()
            .flatten()
            .all(|(kind, _)| *kind != OpKind::Remove));
    }

    #[test]
    fn zipf_client_traces_draw_hot_keys_from_universe() {
        let universe: Vec<u64> = (0..200u64).map(|i| i * 31).collect();
        let traces = client_traces_zipf(13, 4, 2_000, &universe, 0.99, (1, 1, 2));
        assert_eq!(traces.len(), 4);
        for trace in &traces {
            assert!(trace.iter().all(|(_, k)| universe.contains(k)));
        }
        // Every client's hottest key is hotter than a cold one.
        for (c, trace) in traces.iter().enumerate() {
            let hot = trace.iter().filter(|(_, k)| *k == universe[0]).count();
            let cold = trace.iter().filter(|(_, k)| *k == universe[199]).count();
            assert!(hot > cold, "client {c}: hot={hot} cold={cold}");
        }
        assert_eq!(
            traces,
            client_traces_zipf(13, 4, 2_000, &universe, 0.99, (1, 1, 2))
        );
    }
}
