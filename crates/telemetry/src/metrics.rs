//! Metrics registry: counters and fixed-bucket virtual-time histograms.
//!
//! Designed for hot paths: a disabled [`crate::Telemetry`] handle never
//! reaches this module, and an enabled one resolves each instrument once
//! by name; after that a counter update is one atomic add and a histogram
//! observation locks only its own histogram. Histogram buckets are fixed
//! at compile time so that the exported form is identical across runs by
//! construction. All durations are **virtual** nanoseconds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::lock;

/// Histogram bucket upper bounds, in virtual milliseconds. The final
/// implicit bucket is `+inf`. Chosen around the WAN latencies the paper's
/// testbed saw (tens to hundreds of milliseconds per two-phase exchange).
pub const BUCKET_BOUNDS_MS: [u64; 12] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000];

/// A fixed-bucket histogram of virtual durations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts; index `i` counts values `<= BUCKET_BOUNDS_MS[i]`,
    /// with one trailing overflow bucket.
    pub buckets: [u64; BUCKET_BOUNDS_MS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values, ns.
    pub sum_ns: u64,
    /// Largest observed value, ns.
    pub max_ns: u64,
}

impl Histogram {
    pub(crate) fn observe(&mut self, value_ns: u64) {
        let ms = value_ns / 1_000_000;
        let idx = BUCKET_BOUNDS_MS
            .iter()
            .position(|bound| ms <= *bound)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(value_ns);
        self.max_ns = self.max_ns.max(value_ns);
    }

    /// Mean observation in virtual milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_ns as f64 / self.count as f64) / 1e6
        }
    }
}

#[derive(Debug, Default)]
struct Counter {
    value: AtomicU64,
    /// Whether snapshots list the counter: from resolution for
    /// [`MetricsRegistry::counter_handle`], from the first bump for
    /// [`MetricsRegistry::lazy_counter`].
    listed: AtomicBool,
}

/// A pre-resolved counter: updates are one relaxed atomic add — no lock,
/// no name lookup. Obtain via [`MetricsRegistry::counter_handle`] or
/// [`MetricsRegistry::lazy_counter`] (or their `Telemetry` twins) once,
/// then use on the hot path. A `Default` handle is detached: it counts,
/// and no registry lists it.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Arc<Counter>);

impl CounterHandle {
    /// Add `by` to the counter.
    pub fn add(&self, by: u64) {
        self.0.value.fetch_add(by, Ordering::Relaxed);
        if !self.0.listed.load(Ordering::Relaxed) {
            self.0.listed.store(true, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// A pre-resolved histogram: one small mutex per observation, no name
/// lookup. Obtain via [`MetricsRegistry::histogram_handle`] once.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Record one virtual duration.
    pub fn observe_ns(&self, value_ns: u64) {
        lock(&self.0).observe(value_ns);
    }
}

/// An immutable view of the registry at one moment.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Listed counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Append the canonical JSON lines to `out`, one metric per line,
    /// sorted by kind then name (deterministic given deterministic
    /// values). Key orders: `kind, name, value` for counters;
    /// `kind, name, count, sum_ns, max_ns, buckets` for histograms.
    pub fn write_canonical_lines(&self, out: &mut String) {
        for (name, value) in &self.counters {
            out.push_str("{\"kind\":\"counter\",\"name\":");
            name.write_json(out);
            out.push_str(",\"value\":");
            value.write_json(out);
            out.push_str("}\n");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"kind\":\"histogram\",\"name\":");
            name.write_json(out);
            out.push_str(",\"count\":");
            h.count.write_json(out);
            out.push_str(",\"sum_ns\":");
            h.sum_ns.write_json(out);
            out.push_str(",\"max_ns\":");
            h.max_ns.write_json(out);
            out.push_str(",\"buckets\":");
            h.buckets.write_json(out);
            out.push_str("}\n");
        }
    }

    /// Render as aligned human-readable lines for reports and dumps.
    pub fn to_display_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, value) in &self.counters {
            lines.push(format!("  {name:<44} {value:>10}"));
        }
        for (name, h) in &self.histograms {
            lines.push(format!(
                "  {name:<44} n={:<7} mean={:.3}ms max={:.3}ms",
                h.count,
                h.mean_ms(),
                h.max_ns as f64 / 1e6
            ));
        }
        lines
    }
}

/// Counters and histograms, keyed by name. Clone-free interior
/// mutability so one registry can be shared by every subsystem. The only
/// way in is a handle: resolve an instrument once, then update it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, CounterHandle>>,
    histograms: Mutex<BTreeMap<String, HistogramHandle>>,
}

impl MetricsRegistry {
    /// Resolve (creating at zero) a counter once; the handle then updates
    /// without locking the registry. Snapshots list it from now on, at
    /// zero until bumped.
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        let h = self.lazy_counter(name);
        h.0.listed.store(true, Ordering::Relaxed);
        h
    }

    /// Resolve (creating at zero) a counter that joins the registry's
    /// snapshots at its first bump: a statistic nothing bumped leaves no
    /// line in a trace or a dump. Handles resolved under one name share
    /// one count.
    pub fn lazy_counter(&self, name: &str) -> CounterHandle {
        let mut g = lock(&self.counters);
        match g.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = CounterHandle::default();
                g.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Resolve (creating empty) a histogram once; the handle then records
    /// without locking the registry.
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        let mut g = lock(&self.histograms);
        match g.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = HistogramHandle::default();
                g.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Read one counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).map(|h| h.get()).unwrap_or(0)
    }

    /// Snapshot every listed counter and every histogram, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .filter(|(_, h)| h.0.listed.load(Ordering::Relaxed))
                .map(|(k, h)| (k.clone(), h.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, h)| (k.clone(), lock(&h.0).clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_summary() {
        let reg = MetricsRegistry::default();
        let rtt = reg.histogram_handle("rpc.rtt");
        rtt.observe_ns(500_000); // 0.5 ms → bucket 0 (<=1ms)
        rtt.observe_ns(45_000_000); // 45 ms → <=50ms bucket
        rtt.observe_ns(9_000_000_000); // 9 s → overflow
        let snap = reg.snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[5], 1);
        assert_eq!(h.buckets[BUCKET_BOUNDS_MS.len()], 1);
        assert_eq!(h.max_ns, 9_000_000_000);
    }

    #[test]
    fn counters_snapshot_sorted() {
        let reg = MetricsRegistry::default();
        reg.counter_handle("z.later").add(2);
        reg.counter_handle("a.first").add(1);
        reg.counter_handle("z.later").add(3);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 1), ("z.later".to_string(), 5)]
        );
        assert_eq!(reg.counter("z.later"), 5);
    }

    #[test]
    fn a_lazy_counter_is_listed_from_its_first_bump() {
        let reg = MetricsRegistry::default();
        let quiet = reg.lazy_counter("portal.shed");
        let bumped = reg.lazy_counter("portal.admitted");
        reg.counter_handle("link.dropped");
        assert_eq!(
            reg.snapshot().counters,
            vec![("link.dropped".to_string(), 0)],
            "an eager counter is listed at zero, a lazy one is not"
        );
        bumped.add(0);
        reg.lazy_counter("portal.admitted").add(2);
        assert_eq!(
            reg.snapshot().counters,
            vec![
                ("link.dropped".to_string(), 0),
                ("portal.admitted".to_string(), 2)
            ]
        );
        assert_eq!(bumped.get(), 2, "handles under one name share a count");
        assert_eq!(quiet.get(), 0);
        assert_eq!(reg.counter("portal.shed"), 0);
    }
}
