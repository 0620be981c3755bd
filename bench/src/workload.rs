//! The four workloads: their fixed sizes, and the seeded generation of
//! every input (prefill keys, client traces, expected flags).
//!
//! `--seed` is consumed here and nowhere else; the stack under test only
//! ever sees the generated keys.  Keys are `u64` in the universe `[0, 2n)`
//! with `n` distinct keys prefilled, so update hit rates sit near 50 %.
//! Client `c` of `C` owns the keys `≡ c (mod C)`: its results depend on its
//! own history only, which makes every result exactly checkable while all
//! clients still hit both range shards.

use workloads::{SplitMix64, ZipfSampler};

use crate::stack::Batch;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Remove,
    Contains,
}

impl Kind {
    pub fn is_read(self) -> bool {
        self == Kind::Contains
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Single-key calls.  `writes` per mille of them are updates (insert or
    /// remove, by a fair coin), the rest `contains`; `zipf` skews key choice
    /// over the client's own keys.
    Point {
        writes: u64,
        zipf: Option<f64>,
        /// Generated ops per client; a timed window cycles through them.
        trace_ops: usize,
    },
    /// Batch calls of `m` keys in groups of four (see [`ClientTrace::Batch`]).
    Batch { m: usize, groups: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Prefilled keys; the universe is `[0, 2n)`.
    pub n: usize,
    pub clients: usize,
    pub shape: Shape,
    /// Ops (point) or groups (batch) per client replayed against the
    /// reference baselines, whose writes are O(n) each.
    pub baseline_cap: usize,
}

/// Names, in `BENCHMARK.json` order.  The "why" of each lives there and in
/// the README.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "point-write",
        n: 1_000_000,
        clients: 2,
        shape: Shape::Point {
            writes: 800,
            zipf: None,
            trace_ops: 1 << 19,
        },
        baseline_cap: 4096,
    },
    Spec {
        name: "point-read",
        n: 1_000_000,
        clients: 2,
        shape: Shape::Point {
            writes: 50,
            zipf: Some(0.99),
            trace_ops: 1 << 20,
        },
        baseline_cap: 65536,
    },
    Spec {
        name: "batch-large",
        n: 2_000_000,
        clients: 1,
        shape: Shape::Batch {
            m: 16_384,
            groups: 64,
        },
        baseline_cap: 4,
    },
    Spec {
        name: "batch-small",
        n: 100_000,
        clients: 2,
        shape: Shape::Batch {
            m: 2_048,
            groups: 64,
        },
        baseline_cap: 16,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|spec| spec.name == name)
    }

    /// The `--quick` self-check variant: same shape, tiny sizes.
    pub fn quick(self) -> Spec {
        let shape = match self.shape {
            Shape::Point { writes, zipf, .. } => Shape::Point {
                writes,
                zipf,
                trace_ops: 1 << 14,
            },
            Shape::Batch { m, .. } => Shape::Batch {
                m: m.min(4_096),
                groups: 8,
            },
        };
        Spec {
            n: 50_000,
            shape,
            baseline_cap: self.baseline_cap.min(512),
            ..self
        }
    }

    pub fn universe(&self) -> u64 {
        2 * self.n as u64
    }

    /// Keys per call: 1 for point workloads, `m` for batch workloads.
    pub fn keys_per_call(&self) -> usize {
        match self.shape {
            Shape::Point { .. } => 1,
            Shape::Batch { m, .. } => m,
        }
    }

    /// Ops (point) or groups (batch) per client in one pass of the trace.
    pub fn trace_len(&self) -> usize {
        match self.shape {
            Shape::Point { trace_ops, .. } => trace_ops,
            Shape::Batch { groups, .. } => groups,
        }
    }
}

/// Membership of every key of the universe: the oracle.
#[derive(Debug, Clone)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    pub fn new(universe: u64) -> Bitmap {
        Bitmap {
            words: vec![0; (universe as usize).div_ceil(64)],
        }
    }

    #[inline]
    pub fn test(&self, key: u64) -> bool {
        self.words[(key >> 6) as usize] >> (key & 63) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, key: u64) {
        self.words[(key >> 6) as usize] |= 1 << (key & 63);
    }

    #[inline]
    pub fn clear(&mut self, key: u64) {
        self.words[(key >> 6) as usize] &= !(1 << (key & 63));
    }

    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One point op: the key, and in the top bit whether it is an update.
#[derive(Debug, Clone, Copy)]
pub struct PointOp(u64);

impl PointOp {
    const WRITE: u64 = 1 << 63;

    fn new(write: bool, key: u64) -> PointOp {
        debug_assert!(key & Self::WRITE == 0);
        PointOp(if write { key | Self::WRITE } else { key })
    }

    #[inline]
    pub fn is_write(self) -> bool {
        self.0 & Self::WRITE != 0
    }

    #[inline]
    pub fn key(self) -> u64 {
        self.0 & !Self::WRITE
    }
}

/// The fair coin that makes an update an insert or a remove as the op is
/// issued.  Were the kind fixed in the trace, the second pass over a cycled
/// trace would find most keys already in the state the op asks for and
/// measure no-op updates.
#[derive(Debug, Clone)]
pub struct Coin(SplitMix64);

impl Coin {
    #[inline]
    pub fn update_kind(&mut self) -> Kind {
        if self.0.next_u64() >> 63 == 0 {
            Kind::Insert
        } else {
            Kind::Remove
        }
    }
}

/// One pre-normalised batch call and the flag every key must report.
#[derive(Debug, Clone)]
pub struct BatchCall {
    pub kind: Kind,
    pub batch: Batch<u64>,
    pub expect: Vec<bool>,
}

/// What one client replays.
#[derive(Debug, Clone)]
pub enum ClientTrace {
    /// Expected flags come from the client's live copy of the oracle (the
    /// trace is cycled, so they cannot be precomputed).
    Point { ops: Vec<PointOp>, coin: Coin },
    /// Groups of `contains(C)`, `insert(I)`, `contains(C')`, `remove(R)`
    /// where `R` is the half of `I` that was newly inserted plus as many
    /// absent keys: both updates hit ~50 %, and the set is back at its
    /// prefill after every group — so the flags simulated once during
    /// set-up stay valid however often the groups are cycled.
    Batch(Vec<[BatchCall; 4]>),
}

pub struct Inputs {
    /// The `n` prefilled keys, ascending.
    pub prefill: Vec<u64>,
    /// Oracle state right after prefill.
    pub prefill_bits: Bitmap,
    pub clients: Vec<ClientTrace>,
}

/// Generates every input of `spec` from `seed`; same seed, same inputs.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let universe = spec.universe();
    let mut seeder = SplitMix64::new(seed);

    // Selection sampling: exactly n distinct keys of [0, 2n), ascending.
    let mut rng = SplitMix64::new(seeder.next_u64());
    let mut prefill = Vec::with_capacity(spec.n);
    let mut prefill_bits = Bitmap::new(universe);
    let mut needed = spec.n as u64;
    for key in 0..universe {
        if rng.next_below(universe - key) < needed {
            prefill.push(key);
            prefill_bits.set(key);
            needed -= 1;
        }
    }

    let stride = spec.clients as u64;
    let own = universe / stride;
    let clients = (0..stride)
        .map(|client| {
            let client_seed = seeder.next_u64();
            let mut rng = SplitMix64::new(client_seed);
            let own_key = |index: u64| index * stride + client;
            match spec.shape {
                Shape::Point {
                    writes,
                    zipf,
                    trace_ops,
                } => {
                    let mut sampler = zipf.map(|theta| {
                        ZipfSampler::new(client_seed ^ 0x5EED_2F17, own as usize, theta)
                    });
                    // Ranks are scattered over the client's keys by a
                    // bijection (the multiplier is a prime above `own`), so
                    // hot keys are not neighbours in the tree.
                    let offset = rng.next_below(own);
                    let scatter = |rank: u64| (rank * 2_654_435_761 + offset) % own;
                    let ops = (0..trace_ops)
                        .map(|_| {
                            let write = rng.next_below(1000) < writes;
                            let index = match sampler.as_mut() {
                                Some(zipf) => scatter(zipf.next_rank() as u64),
                                None => rng.next_below(own),
                            };
                            PointOp::new(write, own_key(index))
                        })
                        .collect();
                    let coin = Coin(SplitMix64::new(rng.next_u64()));
                    ClientTrace::Point { ops, coin }
                }
                Shape::Batch { m, groups } => {
                    let mut bits = prefill_bits.clone();
                    let groups = (0..groups)
                        .map(|_| batch_group(&mut rng, &mut bits, m, own, &own_key))
                        .collect();
                    ClientTrace::Batch(groups)
                }
            }
        })
        .collect();

    Inputs {
        prefill,
        prefill_bits,
        clients,
    }
}

/// `m` distinct keys of the client, ascending.
fn distinct_keys(
    rng: &mut SplitMix64,
    m: usize,
    own: u64,
    own_key: &impl Fn(u64) -> u64,
) -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::with_capacity(m);
    while keys.len() < m {
        let missing = m - keys.len();
        keys.extend((0..missing).map(|_| own_key(rng.next_below(own))));
        keys.sort_unstable();
        keys.dedup();
    }
    keys
}

/// Builds one group and simulates it on `bits`, which it leaves unchanged.
fn batch_group(
    rng: &mut SplitMix64,
    bits: &mut Bitmap,
    m: usize,
    own: u64,
    own_key: &impl Fn(u64) -> u64,
) -> [BatchCall; 4] {
    let call = |kind, keys: Vec<u64>, expect| BatchCall {
        kind,
        batch: Batch::from_sorted(keys).expect("generated ascending and distinct"),
        expect,
    };
    let probe =
        |bits: &Bitmap, keys: &[u64]| keys.iter().map(|&k| bits.test(k)).collect::<Vec<bool>>();

    let first = distinct_keys(rng, m, own, own_key);
    let first_expect = probe(bits, &first);

    let insert = distinct_keys(rng, m, own, own_key);
    let insert_expect: Vec<bool> = insert.iter().map(|&k| !bits.test(k)).collect();
    let mut remove: Vec<u64> = insert
        .iter()
        .zip(&insert_expect)
        .filter_map(|(&k, &new)| new.then_some(k))
        .collect();
    for &key in &remove {
        bits.set(key);
    }

    let second = distinct_keys(rng, m, own, own_key);
    let second_expect = probe(bits, &second);

    // Top the remove batch up to m keys with keys that are absent now.
    while remove.len() < m {
        let missing = m - remove.len();
        remove.extend(
            (0..missing)
                .map(|_| own_key(rng.next_below(own)))
                .filter(|&k| !bits.test(k)),
        );
        remove.sort_unstable();
        remove.dedup();
    }
    let remove_expect = probe(bits, &remove);
    for (&key, &present) in remove.iter().zip(&remove_expect) {
        if present {
            bits.clear(key);
        }
    }

    [
        call(Kind::Contains, first, first_expect),
        call(Kind::Insert, insert, insert_expect),
        call(Kind::Contains, second, second_expect),
        call(Kind::Remove, remove, remove_expect),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_groups_leave_the_set_at_its_prefill() {
        let spec = Spec::by_name("batch-small").unwrap().quick();
        let inputs = generate(&spec, 7);
        assert_eq!(inputs.prefill.len(), spec.n);
        assert_eq!(inputs.prefill_bits.count(), spec.n);
        for (client, trace) in inputs.clients.iter().enumerate() {
            let ClientTrace::Batch(groups) = trace else {
                panic!("batch workload")
            };
            let mut bits = inputs.prefill_bits.clone();
            for group in groups {
                for call in group {
                    assert_eq!(call.batch.len(), spec.keys_per_call());
                    for (&key, &expect) in call.batch.iter().zip(&call.expect) {
                        assert_eq!(key % 2, client as u64);
                        let got = match call.kind {
                            Kind::Contains => bits.test(key),
                            Kind::Insert => {
                                !bits.test(key) && {
                                    bits.set(key);
                                    true
                                }
                            }
                            Kind::Remove => {
                                bits.test(key) && {
                                    bits.clear(key);
                                    true
                                }
                            }
                        };
                        assert_eq!(got, expect);
                    }
                }
                assert_eq!(bits.count(), spec.n);
            }
            let hits = |i: usize| {
                let all: Vec<bool> = groups.iter().flat_map(|g| g[i].expect.clone()).collect();
                all.iter().filter(|&&f| f).count() as f64 / all.len() as f64
            };
            assert!(
                (0.45..0.55).contains(&hits(1)),
                "insert hit rate {}",
                hits(1)
            );
            assert!(
                (0.45..0.55).contains(&hits(3)),
                "remove hit rate {}",
                hits(3)
            );
        }
    }

    #[test]
    fn same_seed_same_inputs_and_clients_own_their_keys() {
        let spec = Spec::by_name("point-read").unwrap().quick();
        let (a, b) = (generate(&spec, 3), generate(&spec, 3));
        assert_eq!(a.prefill, b.prefill);
        for (client, (ta, tb)) in a.clients.iter().zip(&b.clients).enumerate() {
            let (ClientTrace::Point { ops: oa, .. }, ClientTrace::Point { ops: ob, .. }) = (ta, tb)
            else {
                panic!("point workload")
            };
            assert!(oa.iter().zip(ob).all(|(x, y)| x.0 == y.0));
            assert!(oa
                .iter()
                .all(|op| op.key() % 2 == client as u64 && op.key() < spec.universe()));
        }
        let other = generate(&spec, 4);
        assert_ne!(a.prefill, other.prefill);
    }
}
