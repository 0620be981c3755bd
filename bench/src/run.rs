//! The closed-loop clients: each replays its trace against one stack
//! prefix, issues its next call only after the previous one returned,
//! checks every result against the oracle, and times calls.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::hist::LatencyHist;
use crate::stack::Ops;
use crate::trace::{SpanBuf, Trace};
use crate::workload::{Bitmap, ClientTrace, Coin, Kind};

/// Point ops are timed on every 8th op by op index: two clock reads would
/// otherwise inflate a ~120 ns read by a third.  Batch calls are all timed.
const SAMPLE_EVERY: u64 = 8;
/// Point ops between two looks at the deadline.
const DEADLINE_EVERY: u64 = 64;
/// Equal slices a timed window is cut into; the end-to-end metrics are
/// medians over them, which a stall in one slice does not move.
pub const WINDOW_SLICES: usize = 20;

#[derive(Clone, Copy)]
pub enum Stop {
    /// Run for this long (the end-to-end window), cycling the trace.
    After(Duration),
    /// Replay this many ops (point) or groups (batch) from where the
    /// client stands (the ladder: a fixed op count, so counts repeat).
    Count(usize),
}

/// One client: its trace, where it is in it, and (point workloads) its
/// live copy of the oracle.  Clients own disjoint keys, so private copies
/// never disagree.
pub struct Client<'a> {
    trace: &'a ClientTrace,
    /// Next op (point) or group (batch); wraps, and persists across runs.
    at: usize,
    oracle: Bitmap,
    /// Point workloads: insert or remove, drawn as each update is issued.
    coin: Option<Coin>,
}

impl<'a> Client<'a> {
    pub fn new(trace: &'a ClientTrace, prefill_bits: &Bitmap) -> Client<'a> {
        Client {
            trace,
            at: 0,
            oracle: prefill_bits.clone(),
            coin: match trace {
                ClientTrace::Point { coin, .. } => Some(coin.clone()),
                ClientTrace::Batch(_) => None,
            },
        }
    }
}

/// The oracle over all clients: each key as its owner (`key mod clients`)
/// last left it.
pub fn merged_oracle(clients: &[Client<'_>], universe: u64) -> Bitmap {
    let mut merged = Bitmap::new(universe);
    let stride = clients.len() as u64;
    for key in 0..universe {
        if clients[(key % stride) as usize].oracle.test(key) {
            merged.set(key);
        }
    }
    merged
}

/// Keys done and call latencies over one stretch of a run.
#[derive(Clone)]
pub struct Tally {
    pub keys: u64,
    /// Latency of timed read / write calls, and the keys they covered.
    pub read: LatencyHist,
    pub write: LatencyHist,
    pub read_keys_timed: u64,
    pub write_keys_timed: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            keys: 0,
            read: LatencyHist::new(),
            write: LatencyHist::new(),
            read_keys_timed: 0,
            write_keys_timed: 0,
        }
    }

    fn record(&mut self, kind: Kind, keys: u64, ns: u64) {
        if kind.is_read() {
            self.read.record(ns);
            self.read_keys_timed += keys;
        } else {
            self.write.record(ns);
            self.write_keys_timed += keys;
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.keys += other.keys;
        self.read.merge(&other.read);
        self.write.merge(&other.write);
        self.read_keys_timed += other.read_keys_timed;
        self.write_keys_timed += other.write_keys_timed;
    }
}

pub struct ClientResult {
    calls: u64,
    failed: u64,
    mutated: u64,
    /// A timed window is cut into [`WINDOW_SLICES`] equal slices plus one
    /// for calls that end past the deadline; a counted run has one slice.
    slices: Vec<Tally>,
    started: Instant,
    done: Instant,
}

/// Runs one client to its stop condition.  With `spans`, every timed call
/// also records a `client.op` span and, inside it, a `layer_call` span.
pub fn run_client<O: Ops>(
    ops: &mut O,
    client: &mut Client<'_>,
    stop: Stop,
    layer_call: &'static str,
    mut spans: Option<&mut SpanBuf>,
) -> ClientResult {
    let started = Instant::now();
    let (deadline, slice_len, limit) = match stop {
        Stop::After(window) => (
            Some(started + window),
            window / WINDOW_SLICES as u32,
            u64::MAX,
        ),
        Stop::Count(count) => (None, Duration::MAX, count as u64),
    };
    let mut slices = vec![
        Tally::new();
        if deadline.is_some() {
            WINDOW_SLICES + 1
        } else {
            1
        }
    ];
    let slice_at = |now: Instant| {
        (((now - started).as_nanos() / slice_len.as_nanos()) as usize).min(WINDOW_SLICES)
    };
    let (mut calls, mut failed, mut mutated) = (0u64, 0u64, 0u64);
    match client.trace {
        ClientTrace::Point { ops: trace, .. } => {
            let coin = client.coin.as_mut().expect("a point client has a coin");
            let mut at = client.at;
            let mut slice = 0;
            while calls < limit {
                if calls % DEADLINE_EVERY == 0 && deadline.is_some() {
                    let now = Instant::now();
                    if deadline.is_some_and(|d| now >= d) {
                        break;
                    }
                    slice = slice_at(now);
                }
                let op = trace[at];
                at = if at + 1 == trace.len() { 0 } else { at + 1 };
                let key = op.key();
                let kind = if op.is_write() {
                    coin.update_kind()
                } else {
                    Kind::Contains
                };
                let timed = calls % SAMPLE_EVERY == 0;
                let op_start = match (&spans, timed) {
                    (Some(buf), true) => buf.now_ns(),
                    _ => 0,
                };
                let present = client.oracle.test(key);
                let expect = match kind {
                    Kind::Insert => !present,
                    Kind::Remove | Kind::Contains => present,
                };
                let call_start = timed.then(Instant::now);
                let got = match kind {
                    Kind::Insert => ops.insert(key),
                    Kind::Remove => ops.remove(key),
                    Kind::Contains => ops.contains(key),
                };
                if let Some(call_start) = call_start {
                    let ns = call_start.elapsed().as_nanos() as u64;
                    slices[slice].record(kind, 1, ns);
                    if let Some(buf) = spans.as_deref_mut() {
                        let op_end = buf.now_ns();
                        // The call ended just before `op_end` was read.
                        buf.record_call(
                            layer_call,
                            calls,
                            (op_start, op_end),
                            (op_end.saturating_sub(ns), op_end),
                        );
                    }
                }
                if !matches!(got, Ok(flag) if flag == expect) {
                    failed += 1;
                }
                if !kind.is_read() && expect {
                    mutated += 1;
                    match kind {
                        Kind::Insert => client.oracle.set(key),
                        _ => client.oracle.clear(key),
                    }
                }
                slices[slice].keys += 1;
                calls += 1;
            }
            client.at = at;
        }
        ClientTrace::Batch(groups) => {
            // The deadline is looked at between groups only, so the set is
            // back at its prefill whenever a client stops.
            let mut groups_done = 0u64;
            while groups_done < limit && deadline.is_none_or(|d| Instant::now() < d) {
                for call in &groups[client.at] {
                    let op_start = spans.as_ref().map_or(0, |buf| buf.now_ns());
                    let call_start = Instant::now();
                    let got = match call.kind {
                        Kind::Insert => ops.batch_insert(&call.batch),
                        Kind::Remove => ops.batch_remove(&call.batch),
                        Kind::Contains => ops.batch_contains(&call.batch),
                    };
                    let call_end = Instant::now();
                    let ns = (call_end - call_start).as_nanos() as u64;
                    let keys = call.batch.len() as u64;
                    let slice = if deadline.is_some() {
                        slice_at(call_end)
                    } else {
                        0
                    };
                    slices[slice].record(call.kind, keys, ns);
                    slices[slice].keys += keys;
                    if !matches!(&got, Ok(flags) if *flags == call.expect) {
                        failed += 1;
                    }
                    if !call.kind.is_read() {
                        mutated += call.expect.iter().filter(|&&f| f).count() as u64;
                    }
                    if let Some(buf) = spans.as_deref_mut() {
                        let op_end = buf.now_ns();
                        buf.record_call(
                            layer_call,
                            calls,
                            (op_start, op_end),
                            (op_start.max(op_end.saturating_sub(ns)), op_end),
                        );
                    }
                    calls += 1;
                }
                client.at = (client.at + 1) % groups.len();
                groups_done += 1;
            }
        }
    }
    ClientResult {
        calls,
        failed,
        mutated,
        slices,
        started,
        done: Instant::now(),
    }
}

/// Totals over the clients of one pass.
pub struct PassResult {
    pub calls: u64,
    pub failed: u64,
    /// Keys whose insert/remove changed the set (what the WAL logs).
    pub mutated: u64,
    pub total: Tally,
    /// The clients' slices merged by index (see [`ClientResult`]).
    pub slices: Vec<Tally>,
    /// First client released to last client done.
    pub wall: Duration,
}

impl PassResult {
    /// Adds a later pass of the same clients (walls add up).
    pub fn absorb(&mut self, later: &PassResult) {
        self.calls += later.calls;
        self.failed += later.failed;
        self.mutated += later.mutated;
        self.total.merge(&later.total);
        self.wall += later.wall;
    }

    pub fn from_clients(results: Vec<ClientResult>) -> PassResult {
        let started = results
            .iter()
            .map(|r| r.started)
            .min()
            .expect("at least one client");
        let done = results
            .iter()
            .map(|r| r.done)
            .max()
            .expect("at least one client");
        let mut slices = vec![Tally::new(); results[0].slices.len()];
        for result in &results {
            for (merged, slice) in slices.iter_mut().zip(&result.slices) {
                merged.merge(slice);
            }
        }
        let mut total = Tally::new();
        slices.iter().for_each(|slice| total.merge(slice));
        PassResult {
            calls: results.iter().map(|r| r.calls).sum(),
            failed: results.iter().map(|r| r.failed).sum(),
            mutated: results.iter().map(|r| r.mutated).sum(),
            total,
            slices,
            wall: done - started,
        }
    }

    /// Mean ns per key over timed read calls / write calls / both.
    pub fn ns_per_key(&self) -> (f64, f64, f64) {
        let per = |ns: u64, keys: u64| {
            if keys == 0 {
                0.0
            } else {
                ns as f64 / keys as f64
            }
        };
        let t = &self.total;
        (
            per(t.read.sum_ns(), t.read_keys_timed),
            per(t.write.sum_ns(), t.write_keys_timed),
            per(
                t.read.sum_ns() + t.write.sum_ns(),
                t.read_keys_timed + t.write_keys_timed,
            ),
        )
    }
}

/// Runs every client on its own thread against its own handle, released
/// together by a barrier.  With `trace`, spans go under `phase`.
pub fn drive<O: Ops + Send>(
    handles: Vec<O>,
    clients: &mut [Client<'_>],
    stop: Stop,
    layer_call: &'static str,
    mut trace: Option<(&mut Trace, u32)>,
) -> PassResult {
    let barrier = Barrier::new(clients.len());
    let bufs: Vec<Option<SpanBuf>> = clients
        .iter()
        .map(|_| {
            trace
                .as_ref()
                .map(|(trace, phase)| trace.client_buf(*phase))
        })
        .collect();
    let outcomes: Vec<(ClientResult, Option<SpanBuf>)> = std::thread::scope(|scope| {
        let threads: Vec<_> = handles
            .into_iter()
            .zip(clients.iter_mut())
            .zip(bufs)
            .map(|((mut ops, client), mut buf)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let result = run_client(&mut ops, client, stop, layer_call, buf.as_mut());
                    (result, buf)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a client thread panicked"))
            .collect()
    });
    let mut results = Vec::new();
    for (result, buf) in outcomes {
        if let (Some((trace, _)), Some(buf)) = (trace.as_mut(), buf) {
            trace.absorb(buf);
        }
        results.push(result);
    }
    PassResult::from_clients(results)
}
