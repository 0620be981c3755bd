//! Replay-side bookkeeping shared by the stress suites: what a committed
//! round log says every key held after every round, so that reads — which
//! never enter a round — can be checked against it.
//!
//! A read is served from the snapshot some round published, so its answer
//! must be the replayed state after a round inside the window of committed
//! seqs sampled just before and just after the call.  That window is only
//! as good as the sampled seq, so every read also carries the number of
//! writes already acknowledged when it began: the rounds through the
//! sampled seq must hold at least that many ops, or some round was
//! acknowledged before it was published.
//!
//! Also here: [`BombSet`], the backend whose batched insert and batched
//! lookup panic on demand, for the suites' poisoning cases.

#![allow(dead_code)] // each suite uses its own subset

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

use baselines::SortedArraySet;
use batchapi::{Batch, BatchedMap, MapView};
use combine::{OpKind, Round};

/// A backend that panics when asked to insert `u64::MAX` — the mid-round
/// backend failure the poisoning contract is about — and when a batched
/// lookup asks for [`READ_BOMB`], a failure no round sees.
#[derive(Clone)]
pub struct BombSet {
    inner: SortedArraySet<u64>,
}

impl BombSet {
    pub fn new() -> BombSet {
        BombSet {
            inner: SortedArraySet::from_unsorted(Vec::new()),
        }
    }
}

/// The key a [`BombSet`]'s `batch_contains` panics on.
pub const READ_BOMB: u64 = u64::MAX - 1;

impl MapView<u64> for BombSet {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn batch_contains(&self, batch: &Batch<u64>) -> Vec<bool> {
        assert!(
            !batch.as_slice().contains(&READ_BOMB),
            "BombSet: backend blew up mid-read"
        );
        self.inner.batch_contains(batch)
    }
    fn get(&self, key: &u64) -> Option<()> {
        self.inner.get(key)
    }
    fn contains(&self, key: &u64) -> bool {
        self.inner.contains(key)
    }
    fn rank(&self, key: &u64) -> usize {
        self.inner.rank(key)
    }
    fn min(&self) -> Option<&u64> {
        self.inner.min()
    }
    fn max(&self) -> Option<&u64> {
        self.inner.max()
    }
    fn collect_entries(&self) -> (Vec<u64>, Vec<()>) {
        self.inner.collect_entries()
    }
}

impl BatchedMap<u64> for BombSet {
    fn batch_insert(&mut self, batch: &Batch<u64>) -> Vec<bool> {
        assert!(
            !batch.as_slice().contains(&u64::MAX),
            "BombSet: backend blew up mid-round"
        );
        self.inner.batch_insert(batch)
    }
    fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
        self.inner.batch_remove(batch)
    }
}

/// The round-log kind of a generated write; generated reads have none.
pub fn write_kind(kind: workloads::OpKind) -> OpKind {
    match kind {
        workloads::OpKind::Insert => OpKind::Insert,
        workloads::OpKind::Remove => OpKind::Remove,
        workloads::OpKind::Contains => unreachable!("reads never enter a round"),
    }
}

/// What one read call answered about its key.
#[derive(Debug)]
pub enum Answer<V> {
    /// From `contains` / `batch_contains`.
    Present(bool),
    /// From `get`, or a snapshot handle's view.
    Value(Option<V>),
}

/// One read a client made, with what it sampled around the call.
#[derive(Debug)]
pub struct Read<V> {
    pub key: u64,
    pub answer: Answer<V>,
    /// Writes acknowledged (to any client of the front-end) before the
    /// read began.
    pub acked: u64,
    /// The front-end's committed seq sampled before the call and after it;
    /// a read through a snapshot handle has both equal to the handle's seq.
    pub lo: u64,
    pub hi: u64,
}

/// The sequential replay of one front-end's round log.
pub struct History<V> {
    /// The contents after every round applied so far.
    pub now: BTreeMap<u64, V>,
    initial: BTreeMap<u64, V>,
    /// Per key, `(seq, value after round seq)` for every round that wrote
    /// it, ascending.
    writes: HashMap<u64, Vec<(u64, Option<V>)>>,
    /// `ops_through[s]` is the number of ops committed by rounds `1..=s`.
    ops_through: Vec<u64>,
}

impl<V: Clone + PartialEq + Debug> History<V> {
    pub fn new(initial: BTreeMap<u64, V>) -> History<V> {
        History {
            now: initial.clone(),
            initial,
            writes: HashMap::new(),
            ops_through: vec![0],
        }
    }

    /// Applies the next committed round, returning what each of its ops
    /// must have reported.  Rounds must arrive in commit order, numbered
    /// gap-free from 1.
    pub fn apply(&mut self, round: &Round<u64, V>) -> Vec<bool> {
        assert_eq!(
            round.seq,
            self.ops_through.len() as u64,
            "round seqs must be gap-free"
        );
        let mut expect = Vec::with_capacity(round.ops.len());
        for op in &round.ops {
            expect.push(match round.kind {
                OpKind::Insert => {
                    let val = op.val.clone().expect("logged inserts carry their value");
                    self.now.insert(op.key, val).is_none()
                }
                OpKind::Remove => self.now.remove(&op.key).is_some(),
            });
            let after = self.now.get(&op.key).cloned();
            let writes = self.writes.entry(op.key).or_default();
            match writes.last_mut() {
                Some(last) if last.0 == round.seq => last.1 = after,
                _ => writes.push((round.seq, after)),
            }
        }
        let before = *self.ops_through.last().expect("starts non-empty");
        self.ops_through.push(before + round.ops.len() as u64);
        expect
    }

    /// What `key` held after each round of the closed window `[lo, hi]`.
    fn window(&self, key: u64, lo: u64, hi: u64) -> impl Iterator<Item = Option<&V>> {
        let writes = self.writes.get(&key).map_or(&[][..], Vec::as_slice);
        let next = writes.partition_point(|&(seq, _)| seq <= lo);
        let at_lo = match next {
            0 => self.initial.get(&key),
            _ => writes[next - 1].1.as_ref(),
        };
        let later = writes[next..]
            .iter()
            .take_while(move |&&(seq, _)| seq <= hi);
        std::iter::once(at_lo).chain(later.map(|(_, val)| val.as_ref()))
    }

    /// Checks one recorded read against the replay (see the module docs).
    pub fn check(&self, read: &Read<V>, ctx: &str) {
        let published = self.ops_through[read.lo as usize];
        assert!(
            published >= read.acked,
            "{ctx}: {read:?}: {} writes were acknowledged, yet the rounds published \
             through seq {} hold only {published} — a round was acknowledged before \
             its snapshot was published",
            read.acked,
            read.lo
        );
        let agrees = |state: Option<&V>| match &read.answer {
            Answer::Present(found) => state.is_some() == *found,
            Answer::Value(val) => state == val.as_ref(),
        };
        assert!(
            self.window(read.key, read.lo, read.hi).any(agrees),
            "{ctx}: {read:?} is the state after no round in its window: {:?}",
            self.window(read.key, read.lo, read.hi).collect::<Vec<_>>()
        );
    }
}
