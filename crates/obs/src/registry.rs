//! The named-metric registry and its snapshots.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::counter::Counter;
use crate::hist::{HistSnapshot, Histogram};

/// A handle to one registered metric.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics.
///
/// Lookup is get-or-create and returns an `Arc` handle; callers clone
/// handles out **once** (at construction time) and hit the atomics
/// directly afterwards, so the registry mutex is never on a hot path — it
/// only serialises registration and [`Registry::snapshot`].
///
/// Names follow the workspace convention `<subsystem>.<metric>`
/// (lower-case, dot-separated); registering the same name as two different
/// metric kinds is a programming error and panics.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::Counter(c) => f.debug_tuple("Counter").field(&c.get()).finish(),
            Metric::Histogram(h) => f
                .debug_tuple("Histogram")
                .field(&h.snapshot().count())
                .finish(),
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a histogram.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().unwrap();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            Metric::Histogram(_) => panic!("metric {name:?} is registered as a histogram"),
        }
    }

    /// Returns the histogram registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a counter.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().unwrap();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            Metric::Counter(_) => panic!("metric {name:?} is registered as a counter"),
        }
    }

    /// Captures every registered metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap();
        Snapshot {
            entries: metrics
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current count.
    Counter(u64),
    /// A histogram's current state (boxed: a [`HistSnapshot`] is 65
    /// buckets wide, far larger than the counter variant).
    Histogram(Box<HistSnapshot>),
}

/// A point-in-time capture of a whole [`Registry`].
///
/// Ordered by name (`BTreeMap`), so [`Snapshot::to_json`] renders
/// deterministically — byte-identical across runs with identical counts,
/// which the bench JSON diffs rely on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// The counter registered under `name`, if any.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Renders the snapshot as one JSON object, metrics keyed by name in
    /// deterministic (sorted) order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Names come from in-tree call sites and follow the
            // `<subsystem>.<metric>` convention — no JSON escaping needed
            // beyond refusing the two structural characters outright.
            debug_assert!(
                !name.contains('"') && !name.contains('\\'),
                "metric name {name:?} needs escaping"
            );
            out.push_str(&format!("\"{name}\": "));
            match value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Histogram(h) => out.push_str(&h.to_json()),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("x.count");
        let b = reg.counter("x.count");
        assert!(Arc::ptr_eq(&a, &b));
        let h1 = reg.histogram("x.sizes");
        let h2 = reg.histogram("x.sizes");
        assert!(Arc::ptr_eq(&h1, &h2));
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x.count");
        reg.histogram("x.count");
    }

    #[test]
    fn snapshot_lookup_and_json() {
        let reg = Registry::new();
        let c = reg.counter("a.count");
        let h = reg.histogram("a.sizes");
        c.add(5);
        h.record(100);
        let before = reg.snapshot();
        c.add(2);
        h.record(200);
        let after = reg.snapshot();

        // A snapshot is a capture, not a view.
        assert_eq!(before.counter("a.count"), Some(5));
        assert_eq!(after.counter("a.count"), Some(7));
        assert_eq!(after.histogram("a.sizes").unwrap().count(), 2);
        assert_eq!(after.counter("missing"), None);
        assert_eq!(after.histogram("a.count"), None);

        let json = after.to_json();
        assert!(json.contains("\"a.count\": 7"), "{json}");
        assert!(json.contains("\"a.sizes\": {"), "{json}");
        // Deterministic: same registry state renders identically.
        assert_eq!(json, reg.snapshot().to_json());
    }
}
