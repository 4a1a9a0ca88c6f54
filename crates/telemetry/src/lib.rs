//! `neesgrid-telemetry` — deterministic virtual-time observability for the
//! NEESgrid stack: a trace recorder, a metrics registry, and a flight
//! recorder that explains failures like the paper's step-1493 abort.
//!
//! Three design rules keep traces golden-comparable:
//!
//! 1. **No clocks.** This crate never reads wall time or virtual time; the
//!    instrumented caller passes `t_ns` (nanoseconds of `SimTime`) into
//!    every call. The analyzer's `no-wall-clock` lint enforces this.
//! 2. **Total order.** Events carry `(t_ns, seq)` where `seq` is assigned
//!    under the recorder lock in emission order. In a fully-virtual run the
//!    emission order is deterministic, so exported JSONL is byte-identical
//!    across same-seed replays.
//! 3. **Pure observation.** Recording never schedules events, advances
//!    clocks, or perturbs the simulation — an instrumented run computes the
//!    same history as an uninstrumented one, so default goldens are
//!    untouched.
//!
//! The cheap entry point is [`Telemetry`], a cloneable handle that is a
//! no-op when built with [`Telemetry::disabled`] (one `Option` check per
//! call site, no locks, no allocation).
//!
//! Traces export as canonical JSONL. This crate fixes each line's key
//! order ([`TraceEvent::write_canonical_line`],
//! [`MetricsSnapshot::write_canonical_lines`]); the `serde_json` shim
//! writes the values, escapes the strings, and parses traces back for
//! [`render_report`], [`merge_resumed`] and [`TraceSignature`].

/// The post-mortem dump: in-flight spans, metrics, and each subsystem's
/// recent events.
pub mod flight;
/// Counters and fixed-bucket virtual-time histograms.
pub mod metrics;
/// The trace-JSONL → human-readable report renderer.
pub mod report;
/// Noise-free failure signatures for deduplicating campaign runs.
pub mod signature;
/// Trace events, spans, and their canonical wire form.
pub mod trace;

use std::sync::{Arc, Mutex, MutexGuard};

use serde_json::Value;

pub use flight::FlightRecorder;
pub use metrics::{
    CounterHandle, Histogram, HistogramHandle, MetricsRegistry, MetricsSnapshot, BUCKET_BOUNDS_MS,
};
pub use report::render_report;
pub use signature::{AbortSite, FaultEvent, TraceSignature};
pub use trace::{Field, FieldList, SpanId, TraceEvent, TraceKind, MAX_FIELDS};

/// Poison-tolerant mutex acquisition: telemetry must keep working while a
/// panicking test thread unwinds, and a half-updated counter is still a
/// better post-mortem than none.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[derive(Debug, Default)]
struct Recorder {
    events: Vec<TraceEvent>,
    next_seq: u64,
    next_span: u64,
    /// Open spans as (span id, index into the append-only `events` vec):
    /// a span start is never cloned, and since only a handful of spans are
    /// ever in flight a linear scan beats a tree.
    open: Vec<(u64, usize)>,
}

#[derive(Debug)]
struct TelemetryInner {
    rec: Mutex<Recorder>,
    metrics: MetricsRegistry,
    flight: FlightRecorder,
}

/// The instrumentation handle threaded through the stack.
///
/// Clone freely — clones share one recorder. A handle built with
/// [`Telemetry::disabled`] (also the `Default`) makes every method a
/// no-op, which is how default runs keep their goldens byte-identical.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// The no-op handle. All methods return immediately.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A recording handle. The trace is an append-only log that grows with
    /// the run (nothing is reserved up front); flight dumps read each
    /// subsystem's recent events back from it.
    pub fn recording() -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                rec: Mutex::new(Recorder {
                    next_span: 1,
                    ..Recorder::default()
                }),
                metrics: MetricsRegistry::default(),
                flight: FlightRecorder::default(),
            })),
        }
    }

    /// Whether this handle records anything. Hot paths may use this to
    /// skip building field payloads.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The hot path: one recorder lock, one `Vec` push, no event clones.
    fn record_locked(
        rec: &mut Recorder,
        t_ns: u64,
        kind: TraceKind,
        span: u64,
        subsystem: &'static str,
        name: &'static str,
        fields: FieldList,
    ) {
        let seq = rec.next_seq;
        rec.next_seq += 1;
        match kind {
            TraceKind::SpanStart => {
                let idx = rec.events.len();
                rec.open.push((span, idx));
            }
            TraceKind::SpanEnd => {
                if let Some(i) = rec.open.iter().position(|(s, _)| *s == span) {
                    rec.open.swap_remove(i);
                }
            }
            TraceKind::Instant => {}
        }
        rec.events.push(TraceEvent {
            t_ns,
            seq,
            kind,
            span,
            subsystem,
            name,
            fields,
        });
    }

    /// Record a point event.
    pub fn instant(
        &self,
        t_ns: u64,
        subsystem: &'static str,
        name: &'static str,
        fields: impl Into<FieldList>,
    ) {
        if let Some(inner) = &self.inner {
            let mut rec = lock(&inner.rec);
            Self::record_locked(
                &mut rec,
                t_ns,
                TraceKind::Instant,
                0,
                subsystem,
                name,
                fields.into(),
            );
        }
    }

    /// Open a span. Returns [`SpanId::NONE`] when disabled. The caller is
    /// responsible for closing it on **every** return path — the
    /// analyzer's `telemetry-span-balance` rule checks instrumented
    /// functions for this.
    pub fn span_start(
        &self,
        t_ns: u64,
        subsystem: &'static str,
        name: &'static str,
        fields: impl Into<FieldList>,
    ) -> SpanId {
        match &self.inner {
            None => SpanId::NONE,
            Some(inner) => {
                let mut rec = lock(&inner.rec);
                let span = rec.next_span;
                rec.next_span += 1;
                Self::record_locked(
                    &mut rec,
                    t_ns,
                    TraceKind::SpanStart,
                    span,
                    subsystem,
                    name,
                    fields.into(),
                );
                SpanId(span)
            }
        }
    }

    /// Close a span opened by `span_start`. No-op for [`SpanId::NONE`].
    pub fn span_end(&self, t_ns: u64, span: SpanId, fields: impl Into<FieldList>) {
        if span == SpanId::NONE {
            return;
        }
        if let Some(inner) = &self.inner {
            let mut rec = lock(&inner.rec);
            let (subsystem, name) = match rec.open.iter().find(|(s, _)| *s == span.0) {
                Some(&(_, idx)) => (rec.events[idx].subsystem, rec.events[idx].name),
                None => ("telemetry", "orphan_span_end"),
            };
            Self::record_locked(
                &mut rec,
                t_ns,
                TraceKind::SpanEnd,
                span.0,
                subsystem,
                name,
                fields.into(),
            );
        }
    }

    /// Resolve a counter once for lock-free hot-path updates; the trace
    /// lists it from now on. On a disabled handle this returns a detached
    /// counter that no registry sees, so call sites need no `Option`
    /// plumbing.
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        match &self.inner {
            Some(inner) => inner.metrics.counter_handle(name),
            None => CounterHandle::default(),
        }
    }

    /// Resolve a statistic: a counter the trace lists from its first bump
    /// ([`MetricsRegistry::lazy_counter`]). Detached on a disabled handle,
    /// where it still counts for the component that reads it.
    pub fn lazy_counter(&self, name: &str) -> CounterHandle {
        match &self.inner {
            Some(inner) => inner.metrics.lazy_counter(name),
            None => CounterHandle::default(),
        }
    }

    /// Resolve a histogram once for lookup-free hot-path observations.
    /// Detached (observations discarded) on a disabled handle.
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        match &self.inner {
            Some(inner) => inner.metrics.histogram_handle(name),
            None => HistogramHandle::default(),
        }
    }

    /// Read counter `name` (0 when disabled or absent).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => inner.metrics.counter(name),
            None => 0,
        }
    }

    /// Snapshot the metrics registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Trigger a flight-recorder dump — the "step 1493 report". Renders
    /// the in-flight spans, the metrics snapshot, and each subsystem's
    /// recent events; stores the dump and returns it. `None` when disabled.
    pub fn flight_dump(&self, t_ns: u64, reason: &str) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let snapshot = inner.metrics.snapshot();
        let rec = lock(&inner.rec);
        // Dump order must be deterministic: sort in-flight spans by id.
        let mut open_ids: Vec<(u64, usize)> = rec.open.clone();
        open_ids.sort_unstable();
        let open: Vec<TraceEvent> = open_ids
            .iter()
            .map(|&(_, idx)| rec.events[idx].clone())
            .collect();
        Some(
            inner
                .flight
                .dump(t_ns, reason, &open, &snapshot, &rec.events),
        )
    }

    /// All flight dumps collected so far, oldest first.
    pub fn dumps(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => inner.flight.dumps(),
            None => Vec::new(),
        }
    }

    /// Export the full trace as canonical JSONL: every event in emission
    /// order, then one line per metric (sorted by name). Byte-identical
    /// across same-seed fully-virtual replays.
    pub fn export_jsonl(&self) -> String {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return String::new(),
        };
        let mut out = String::new();
        for event in &lock(&inner.rec).events {
            event.write_canonical_line(&mut out);
        }
        inner.metrics.snapshot().write_canonical_lines(&mut out);
        out
    }
}

/// Step number an exported trace line belongs to, if any: an explicit
/// `step` field, or the step encoded in a `tx` field of the canonical
/// `step-NNNNNN-aK` form.
fn line_step(doc: &Value) -> Option<u64> {
    let fields = &doc["fields"];
    if let Some(step) = fields["step"].as_u64() {
        return Some(step);
    }
    let tx = fields["tx"].as_str()?;
    let digits = tx.strip_prefix("step-")?.get(..6)?;
    digits.parse::<u64>().ok()
}

/// Merge the trace of a run that died with the trace of its
/// checkpoint-resumed continuation into one logical experiment trace.
///
/// The resumed trace must contain a `coordinator/resume` event carrying
/// the `step` the continuation restarts from. Primary events at or after
/// that step are dropped (the continuation re-executes them), as are the
/// primary's metric lines (the counters double-count re-executed work);
/// the resumed trace is kept whole. The result has no duplicate
/// transaction spans by construction.
pub fn merge_resumed(primary: &str, resumed: &str) -> Result<String, String> {
    let mut resume_step: Option<u64> = None;
    for line in resumed.lines() {
        let doc: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        if doc["sub"] == "coordinator" && doc["name"] == "resume" {
            resume_step = doc["fields"]["step"].as_u64();
            break;
        }
    }
    let resume_step =
        resume_step.ok_or("resumed trace has no coordinator/resume event with a step field")?;

    let mut out = String::new();
    for line in primary.lines() {
        let doc: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        if matches!(doc["kind"].as_str(), Some("counter" | "histogram")) {
            continue;
        }
        if let Some(step) = line_step(&doc) {
            if step >= resume_step {
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    for line in resumed.lines() {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let t = Telemetry::disabled();
        let span = t.span_start(10, "ntcp", "propose", FieldList::new());
        assert_eq!(span, SpanId::NONE);
        t.span_end(20, span, FieldList::new());
        let x = t.counter_handle("x");
        x.add(1);
        assert_eq!(x.get(), 1, "a detached counter still counts");
        assert_eq!(t.counter("x"), 0);
        assert!(t.export_jsonl().is_empty());
        assert!(t.flight_dump(30, "why").is_none());
    }

    #[test]
    fn spans_pair_and_seq_is_monotonic() {
        // The in-flight spans a flight dump lists.
        let open_spans = |t: &Telemetry| {
            let dump = t.flight_dump(0, "probe").expect("a recording handle dumps");
            let (_, in_flight) = dump
                .split_once("-- in-flight spans (started, not ended) --\n")
                .expect("the dump lists in-flight spans");
            let (in_flight, _) = in_flight.split_once("-- metrics --").expect("then metrics");
            in_flight.lines().filter(|l| l.contains("propose")).count()
        };
        let t = Telemetry::recording();
        let a = t.span_start(
            100,
            "ntcp",
            "propose",
            FieldList::from([("tx", Field::U64(1))]),
        );
        t.instant(150, "net", "drop", FieldList::new());
        assert_eq!(open_spans(&t), 1);
        t.span_end(200, a, FieldList::from([("ok", Field::Bool(true))]));
        assert_eq!(open_spans(&t), 0);
        let jsonl = t.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"span_start\""));
        assert!(lines[2].contains("\"span_end\""));
        assert!(
            lines[2].contains("\"name\":\"propose\""),
            "end inherits name"
        );
    }

    #[test]
    fn merge_resumed_drops_reexecuted_steps() {
        let t1 = Telemetry::recording();
        for step in 0..4u64 {
            let s = t1.span_start(
                step * 100,
                "ntcp",
                "propose",
                FieldList::from([("tx", Field::Str(format!("step-{step:06}-a0")))]),
            );
            t1.span_end(step * 100 + 10, s, FieldList::new());
        }
        t1.counter_handle("ntcp.proposes").add(4);

        let t2 = Telemetry::recording();
        t2.instant(
            200,
            "coordinator",
            "resume",
            FieldList::from([("step", Field::U64(2))]),
        );
        for step in 2..5u64 {
            let s = t2.span_start(
                step * 100,
                "ntcp",
                "propose",
                FieldList::from([("tx", Field::Str(format!("step-{step:06}-a0")))]),
            );
            t2.span_end(step * 100 + 10, s, FieldList::new());
        }

        let merged = merge_resumed(&t1.export_jsonl(), &t2.export_jsonl()).expect("merges");
        let mut tx_starts = Vec::new();
        for line in merged.lines() {
            let doc: Value = serde_json::from_str(line).expect("line parses");
            if doc["kind"] == "span_start" {
                if let Some(tx) = doc["fields"]["tx"].as_str() {
                    tx_starts.push(tx.to_string());
                }
            }
        }
        let mut deduped = tx_starts.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(tx_starts.len(), deduped.len(), "no duplicate tx spans");
        assert_eq!(tx_starts.len(), 5, "steps 0..5 present exactly once");
    }
}
