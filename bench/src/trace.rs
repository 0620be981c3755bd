//! Spans recorded by the benchmark's own files around every call into a
//! layer: kept in memory during the run, written out as JSON when it ends.
//! (Spans *inside* the crates are a later issue.)

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a span nothing caused.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id (index in the final trace) of the span that caused this one.
    pub parent: u32,
    /// Shared by the spans of one client call.
    pub call: u64,
}

/// One thread's span buffer.  Ids are local until [`Trace::absorb`] rebases
/// them, so client threads record without sharing anything.
pub struct SpanBuf {
    epoch: Instant,
    /// Global id of the phase span the client runs under.
    phase: u32,
    spans: Vec<Span>,
    /// `true` where `parent` is an index into this buffer, not a global id.
    local_parent: Vec<bool>,
}

impl SpanBuf {
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a client op (child of the phase) and the layer call inside
    /// it (child of the op); both carry the op's call id.
    #[inline]
    pub fn record_call(
        &mut self,
        layer_call: &'static str,
        call: u64,
        op: (u64, u64),
        inner: (u64, u64),
    ) {
        let op_id = self.spans.len() as u32;
        self.spans.push(Span {
            name: "client.op",
            start_ns: op.0,
            end_ns: op.1,
            parent: self.phase,
            call,
        });
        self.local_parent.push(false);
        self.spans.push(Span {
            name: layer_call,
            start_ns: inner.0,
            end_ns: inner.1,
            parent: op_id,
            call,
        });
        self.local_parent.push(true);
    }
}

/// The whole run's trace.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            call: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as one span under `parent`; returns its result and ns.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        let span = &self.spans[id as usize];
        (out, span.end_ns - span.start_ns)
    }

    /// A buffer for one client thread running under phase span `phase`.
    pub fn client_buf(&self, phase: u32) -> SpanBuf {
        SpanBuf {
            epoch: self.epoch,
            phase,
            spans: Vec::new(),
            local_parent: Vec::new(),
        }
    }

    pub fn absorb(&mut self, buf: SpanBuf) {
        let base = self.spans.len() as u32;
        for (mut span, local) in buf.spans.into_iter().zip(buf.local_parent) {
            if local {
                span.parent += base;
            }
            self.spans.push(span);
        }
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its children cover (children of concurrent clients may overlap, so
    /// coverage is the union of their intervals).
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<(u32, u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent != NO_PARENT)
            .map(|s| (s.parent, s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = vec![0u64; self.spans.len()];
        let mut reach = 0u64;
        let mut prev_parent = NO_PARENT;
        for (parent, start, end) in children {
            if parent != prev_parent {
                prev_parent = parent;
                reach = 0;
            }
            let from = start.max(reach);
            if end > from {
                covered[parent as usize] += end - from;
                reach = end;
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *by_name.entry(span.name).or_insert(0) += own;
        }
        by_name
    }

    /// Writes the trace as JSON: a name table, one compact row per span,
    /// and the per-name self times.
    pub fn write_json(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\",")?;
        writeln!(out, " \"names\": {names:?},")?;
        writeln!(
            out,
            " \"columns\": [\"id\", \"name\", \"start_ns\", \"end_ns\", \"parent\", \"call\"],"
        )?;
        writeln!(out, " \"spans\": [")?;
        for (id, span) in self.spans.iter().enumerate() {
            let name = names
                .binary_search(&span.name)
                .expect("name was collected above");
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  [{id},{name},{},{},{parent},{}]{comma}",
                span.start_ns, span.end_ns, span.call
            )?;
        }
        writeln!(out, " ],")?;
        let self_ns: Vec<String> = self
            .self_ns_by_name()
            .iter()
            .map(|(name, ns)| format!("\"{name}\": {ns}"))
            .collect();
        writeln!(out, " \"self_ns\": {{{}}}", self_ns.join(", "))?;
        writeln!(out, "}}")?;
        out.flush()
    }
}
