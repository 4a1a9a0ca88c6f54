//! Structured trace events stamped from the simulation's virtual clock.
//!
//! Every event carries a virtual timestamp (`t_ns`, nanoseconds of
//! `SimTime`) supplied by the *caller* — this crate never reads a clock of
//! any kind, wall or virtual — plus a process-wide monotonic sequence
//! number that breaks ties between events emitted at the same virtual
//! instant. In a fully-virtual run (every actor attached to the event
//! engine) the emission order is deterministic, so the `(t_ns, seq)`
//! stamps — and therefore the exported JSONL bytes — are identical across
//! same-seed replays.

use serde::Serialize;

/// A field value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (finite).
    F64(f64),
    /// String.
    Str(String),
    /// Static string: zero-alloc on the hot path (fixed taxonomy tags
    /// like outcomes); renders identically to [`Field::Str`].
    Static(&'static str),
    /// Shared string: zero-alloc clone for values fixed per component
    /// (site names); renders identically to [`Field::Str`].
    Shared(std::sync::Arc<str>),
    /// Boolean.
    Bool(bool),
}

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The opening edge of a span.
    SpanStart,
    /// The closing edge of a span.
    SpanEnd,
    /// A point event with no duration.
    Instant,
}

impl TraceKind {
    /// The canonical wire name.
    pub fn wire_name(&self) -> &'static str {
        match self {
            TraceKind::SpanStart => "span_start",
            TraceKind::SpanEnd => "span_end",
            TraceKind::Instant => "instant",
        }
    }
}

/// Maximum fields per trace event. The taxonomy's widest emitter (the RPC
/// retry instant) uses four; the cap lets events store fields inline, so
/// recording never heap-allocates a per-event field vector.
pub const MAX_FIELDS: usize = 4;

/// A fixed-capacity, inline key/value list.
///
/// Retaining tens of thousands of events must not mean tens of thousands
/// of live heap blocks: a growing heap stalls the record hot path on
/// allocator slow paths and first-touch page faults, which is exactly the
/// perturbation a tracer is not allowed to add. Fields beyond
/// [`MAX_FIELDS`] are debug-asserted and dropped in release builds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FieldList {
    slots: [Option<(&'static str, Field)>; MAX_FIELDS],
}

impl FieldList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a field (no-op past capacity; asserts in debug builds).
    pub fn push(&mut self, key: &'static str, value: Field) {
        for slot in self.slots.iter_mut() {
            if slot.is_none() {
                *slot = Some((key, value));
                return;
            }
        }
        debug_assert!(false, "trace event exceeds MAX_FIELDS={MAX_FIELDS}");
    }

    /// Iterate the fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, Field)> {
        self.slots.iter().flatten()
    }
}

impl<const N: usize> From<[(&'static str, Field); N]> for FieldList {
    fn from(arr: [(&'static str, Field); N]) -> Self {
        let mut list = FieldList::new();
        for (key, value) in arr {
            list.push(key, value);
        }
        list
    }
}

/// Identifier tying a span's start and end edges together. `SpanId(0)`
/// is the null span returned by a disabled recorder; ending it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span.
    pub const NONE: SpanId = SpanId(0);
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual timestamp in nanoseconds (from `SimClock`, never wall time).
    pub t_ns: u64,
    /// Monotonic sequence number, unique per recorder.
    pub seq: u64,
    /// Start / end / instant.
    pub kind: TraceKind,
    /// Span identifier (0 for instants).
    pub span: u64,
    /// Which subsystem emitted it (`net`, `rpc`, `ntcp`, `coordinator`,
    /// `daq`, `checkpoint`).
    pub subsystem: &'static str,
    /// Event name within the subsystem's taxonomy. Names are static — the
    /// taxonomy is fixed at compile time — which keeps the record hot path
    /// free of a per-event allocation.
    pub name: &'static str,
    /// Ordered key/value payload (inline, at most [`MAX_FIELDS`]).
    pub fields: FieldList,
}

impl TraceEvent {
    /// Append the canonical single-line JSON form and its newline to
    /// `out`. The key order is fixed, `t, seq, kind, [span,] sub, name,
    /// fields` (`span` only for span edges), and fields keep their
    /// insertion order; the values are written by the serde shim.
    pub fn write_canonical_line(&self, out: &mut String) {
        out.push_str("{\"t\":");
        self.t_ns.write_json(out);
        out.push_str(",\"seq\":");
        self.seq.write_json(out);
        out.push_str(",\"kind\":");
        self.kind.wire_name().write_json(out);
        if self.span != 0 {
            out.push_str(",\"span\":");
            self.span.write_json(out);
        }
        out.push_str(",\"sub\":");
        self.subsystem.write_json(out);
        out.push_str(",\"name\":");
        self.name.write_json(out);
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            key.write_json(out);
            out.push(':');
            match value {
                Field::U64(n) => n.write_json(out),
                Field::I64(n) => n.write_json(out),
                Field::F64(x) => x.write_json(out),
                Field::Str(s) => s.write_json(out),
                Field::Static(s) => s.write_json(out),
                Field::Shared(s) => s.write_json(out),
                Field::Bool(b) => b.write_json(out),
            }
        }
        out.push_str("}}\n");
    }

    /// A compact one-line human rendering (used by the flight recorder).
    pub fn to_display_line(&self) -> String {
        let mut line = format!(
            "t={:>12} seq={:<6} {:<10} {}/{}",
            self.t_ns,
            self.seq,
            self.kind.wire_name(),
            self.subsystem,
            self.name
        );
        for (k, v) in self.fields.iter() {
            let rendered = match v {
                Field::U64(n) => n.to_string(),
                Field::I64(n) => n.to_string(),
                Field::F64(x) => format!("{x}"),
                Field::Str(s) => s.clone(),
                Field::Static(s) => (*s).to_string(),
                Field::Shared(s) => s.to_string(),
                Field::Bool(b) => b.to_string(),
            };
            line.push_str(&format!(" {k}={rendered}"));
        }
        line
    }
}
