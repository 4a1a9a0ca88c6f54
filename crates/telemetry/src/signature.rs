//! Canonical failure signatures extracted from exported trace JSONL.
//!
//! A campaign sweeping hundreds of seeded runs needs to answer "is this
//! failure *new*?" without drowning in duplicates: the same injected
//! fault reproduced under ten seeds must collapse to one corpus entry.
//! Wall-clock-free traces make that possible — but raw trace bytes still
//! differ across seeds (virtual timestamps, sequence numbers, correlation
//! ids, sampled latencies all shift), so equality on bytes is useless.
//!
//! A [`TraceSignature`] is the *shape* of a run with the noise removed:
//!
//! * **termination class** — completed or aborted;
//! * **abort site** — step, site, and a digit-normalised error class from
//!   the `coordinator/abort` instant (the paper's step-1493 failure class
//!   keys on *where* and *why*, not on which seed triggered it);
//! * **aborted transactions** — NTCP spans still open when the trace
//!   ends, i.e. protocol work the abort orphaned;
//! * **injected faults** — every `net` drop/reset/dup instant with its
//!   link and message index (the fault plan as it actually fired);
//! * **phase fingerprint** — a multiset hash over the event skeleton
//!   (subsystem, name, kind, and the salient identifying fields) that
//!   distinguishes runs whose headline facts match but whose control
//!   flow diverged. The fold is commutative (a wrapping sum of per-event
//!   hashes): two seeds interleave concurrent sites differently without
//!   changing *what* happened, so emission order must not feed the
//!   fingerprint — only the set of events and their multiplicities.
//!
//! Explicitly *excluded* everywhere: `t` (virtual time), `seq`, `span`,
//! `corr` (correlation ids), latency samples, and metric snapshot lines.
//! Two runs of the same scenario under different seeds that fail the same
//! way produce the same signature; a genuinely different failure does not.

use std::collections::BTreeSet;

use serde_json::{Number, Value};

/// Where and why a run aborted, from the `coordinator/abort` instant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AbortSite {
    /// Integration step at which the coordinator gave up.
    pub step: u64,
    /// Site whose failure was terminal.
    pub site: String,
    /// Error string with runs of digits collapsed to `#` — "link reset
    /// between a and b at index 187" and "... at index 2041" are the same
    /// failure class.
    pub error_class: String,
}

/// One injected fault that actually fired, from a `net` instant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// `drop`, `reset`, or `dup`.
    pub action: String,
    /// Link label, `src->dst`.
    pub link: String,
    /// Per-link message index the fault selected.
    pub index: u64,
}

/// The deduplication key for a run: its failure shape, noise removed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceSignature {
    /// `"completed"` or `"aborted"`.
    pub termination: String,
    /// Present iff the trace carries a `coordinator/abort` instant.
    pub abort: Option<AbortSite>,
    /// NTCP transactions whose spans never closed (sorted, deduped).
    pub aborted_txs: Vec<String>,
    /// Every injected fault that fired, in sorted order.
    pub faults: Vec<FaultEvent>,
    /// Commutative multiset hash over the event skeleton.
    pub fingerprint: u64,
}

/// FNV-1a offset basis / prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Field separator so ("ab","c") and ("a","bc") hash apart.
    h ^= 0xff;
    h.wrapping_mul(FNV_PRIME)
}

/// Fields that identify *what* happened rather than *when*: everything
/// else (`t`, `seq`, `span`, `corr`, latency samples) is replay noise.
const SALIENT_FIELDS: [&str; 9] = [
    "step", "attempt", "tx", "site", "link", "index", "op", "ok", "outcome",
];

/// Collapse every run of ASCII digits to a single `#` so error strings
/// that differ only in embedded counters share a class.
fn normalize_digits(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_digits = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

/// A field value as the fingerprint hashes it: strings raw, numbers and
/// booleans in their JSON spelling, anything else empty.
fn field_str(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        Value::Number(Number::PosInt(n)) => n.to_string(),
        Value::Number(Number::NegInt(n)) => n.to_string(),
        Value::Number(Number::Float(x)) => format!("{x}"),
        Value::Bool(b) => b.to_string(),
        _ => String::new(),
    }
}

impl TraceSignature {
    /// Extract a signature from canonical trace JSONL (the exact string
    /// [`crate::Telemetry::export_jsonl`] produces). Metric snapshot lines
    /// and unparseable lines are skipped; an empty trace yields the
    /// `"completed"` signature with a fixed fingerprint.
    pub fn from_jsonl(src: &str) -> TraceSignature {
        let mut abort: Option<AbortSite> = None;
        let mut faults: Vec<FaultEvent> = Vec::new();
        // span id -> tx name, for ntcp spans still open at trace end.
        let mut open_ntcp: Vec<(u64, String)> = Vec::new();
        let mut fingerprint = 0u64;

        for line in src.lines() {
            let Ok(doc) = serde_json::from_str::<Value>(line) else {
                continue;
            };
            let kind = match doc["kind"].as_str() {
                Some(k @ ("span_start" | "span_end" | "instant")) => k,
                _ => continue, // metric snapshot line or foreign JSON
            };
            let sub = doc["sub"].as_str().unwrap_or_default();
            let name = doc["name"].as_str().unwrap_or_default();
            let fields = &doc["fields"];

            // Phase fingerprint: hash this event's skeleton on its own,
            // then fold commutatively — order must not matter.
            let mut h = fnv_bytes(FNV_OFFSET, sub.as_bytes());
            h = fnv_bytes(h, name.as_bytes());
            h = fnv_bytes(h, kind.as_bytes());
            for key in SALIENT_FIELDS {
                if let Some(v) = fields.get(key) {
                    h = fnv_bytes(h, key.as_bytes());
                    h = fnv_bytes(h, field_str(v).as_bytes());
                }
            }
            fingerprint = fingerprint.wrapping_add(h);

            let field_or_unknown = |key: &str| fields[key].as_str().unwrap_or("?").to_string();
            match (sub, kind) {
                ("coordinator", "instant") if name == "abort" => {
                    abort = Some(AbortSite {
                        step: fields["step"].as_u64().unwrap_or(0),
                        site: field_or_unknown("site"),
                        error_class: normalize_digits(fields["error"].as_str().unwrap_or("?")),
                    });
                }
                ("net", "instant") if matches!(name, "drop" | "reset" | "dup") => {
                    faults.push(FaultEvent {
                        action: name.to_string(),
                        link: field_or_unknown("link"),
                        index: fields["index"].as_u64().unwrap_or(0),
                    });
                }
                ("ntcp", "span_start") => {
                    let span = doc["span"].as_u64().unwrap_or(0);
                    if span != 0 {
                        open_ntcp.push((span, field_or_unknown("tx")));
                    }
                }
                ("ntcp", "span_end") => {
                    let span = doc["span"].as_u64().unwrap_or(0);
                    open_ntcp.retain(|(id, _)| *id != span);
                }
                _ => {}
            }
        }

        let aborted_txs: Vec<String> = open_ntcp
            .into_iter()
            .map(|(_, tx)| tx)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        faults.sort();
        faults.dedup();

        TraceSignature {
            termination: if abort.is_some() {
                "aborted".to_string()
            } else {
                "completed".to_string()
            },
            abort,
            aborted_txs,
            faults,
            fingerprint,
        }
    }

    /// The run aborted (carried a `coordinator/abort` instant).
    pub fn is_abort(&self) -> bool {
        self.abort.is_some()
    }

    /// Any injected fault actually fired during the run.
    pub fn saw_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Short canonical identifier: a 16-hex-digit hash over *every*
    /// signature component (not just the fingerprint), stable across
    /// processes and suitable as a corpus key or filename stem.
    pub fn id(&self) -> String {
        let mut h = fnv_bytes(FNV_OFFSET, self.termination.as_bytes());
        if let Some(abort) = &self.abort {
            h = fnv_bytes(h, &abort.step.to_le_bytes());
            h = fnv_bytes(h, abort.site.as_bytes());
            h = fnv_bytes(h, abort.error_class.as_bytes());
        }
        for tx in &self.aborted_txs {
            h = fnv_bytes(h, tx.as_bytes());
        }
        for fault in &self.faults {
            h = fnv_bytes(h, fault.action.as_bytes());
            h = fnv_bytes(h, fault.link.as_bytes());
            h = fnv_bytes(h, &fault.index.to_le_bytes());
        }
        h = fnv_bytes(h, &self.fingerprint.to_le_bytes());
        format!("{h:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field, Telemetry};

    fn traced_abort(t0: u64, index: u64, error: &str) -> String {
        let tel = Telemetry::recording();
        let step_span = tel.span_start(t0, "coordinator", "step", [("step", Field::U64(3))]);
        let tx = tel.span_start(
            t0 + 5,
            "ntcp",
            "execute",
            [
                ("site", Field::Str("site-000".into())),
                ("tx", Field::Str("step-000003-a0".into())),
                ("corr", Field::U64(index * 7 + 1)),
            ],
        );
        tel.instant(
            t0 + 9,
            "net",
            "reset",
            [
                ("link", Field::Str("coordinator->site-000".into())),
                ("index", Field::U64(index)),
                ("corr", Field::U64(index * 7 + 1)),
            ],
        );
        tel.instant(
            t0 + 12,
            "coordinator",
            "abort",
            [
                ("step", Field::U64(3)),
                ("site", Field::Str("site-000".into())),
                ("error", Field::Str(error.into())),
            ],
        );
        // Abort unwinds: the step span closes, the ntcp span does not.
        tel.span_end(t0 + 13, step_span, [("step", Field::U64(3))]);
        let _ = tx;
        tel.export_jsonl()
    }

    fn clean_run(t0: u64) -> String {
        let tel = Telemetry::recording();
        let span = tel.span_start(t0, "coordinator", "step", [("step", Field::U64(0))]);
        tel.span_end(t0 + 4, span, [("step", Field::U64(0))]);
        tel.export_jsonl()
    }

    #[test]
    fn clean_run_signature_is_completed_with_no_faults() {
        let sig = TraceSignature::from_jsonl(&clean_run(1_000));
        assert_eq!(sig.termination, "completed");
        assert!(sig.abort.is_none());
        assert!(sig.aborted_txs.is_empty());
        assert!(!sig.saw_faults());
        assert_eq!(sig.id().len(), 16);
    }

    #[test]
    fn abort_signature_captures_site_faults_and_orphaned_tx() {
        let sig = TraceSignature::from_jsonl(&traced_abort(1_000, 186, "link reset at index 186"));
        assert_eq!(sig.termination, "aborted");
        let abort = sig.abort.as_ref().expect("abort captured");
        assert_eq!(abort.step, 3);
        assert_eq!(abort.site, "site-000");
        assert_eq!(abort.error_class, "link reset at index #");
        assert_eq!(sig.aborted_txs, vec!["step-000003-a0".to_string()]);
        assert_eq!(
            sig.faults,
            vec![FaultEvent {
                action: "reset".into(),
                link: "coordinator->site-000".into(),
                index: 186,
            }]
        );
    }

    #[test]
    fn signature_ignores_wall_clock_and_correlation_noise() {
        // Same failure shape at different virtual times with different
        // correlation ids: identical signature and id.
        let a = TraceSignature::from_jsonl(&traced_abort(1_000, 186, "link reset at index 186"));
        let b = TraceSignature::from_jsonl(&traced_abort(77_000, 186, "link reset at index 186"));
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn error_class_normalisation_merges_seed_variant_messages() {
        let a = TraceSignature::from_jsonl(&traced_abort(1_000, 186, "link reset at index 186"));
        let b = TraceSignature::from_jsonl(&traced_abort(1_000, 186, "link reset at index 2041"));
        assert_eq!(a.abort, b.abort, "digit runs collapse to one class");
    }

    #[test]
    fn different_fault_sites_produce_different_ids() {
        let a = TraceSignature::from_jsonl(&traced_abort(1_000, 186, "link reset at index 186"));
        let b = TraceSignature::from_jsonl(&traced_abort(1_000, 187, "link reset at index 187"));
        assert_ne!(a.id(), b.id(), "fault index is part of the signature");
        let clean = TraceSignature::from_jsonl(&clean_run(1_000));
        assert_ne!(a.id(), clean.id());
    }

    #[test]
    fn fingerprint_is_insensitive_to_emission_interleaving() {
        // Two sites' spans interleaved differently (as different seeds'
        // latencies would) — same multiset of events, same fingerprint.
        let interleave = |first: &str, second: &str| {
            let tel = Telemetry::recording();
            let a = tel.span_start(
                10,
                "ntcp",
                "propose",
                [
                    ("site", Field::Str(first.into())),
                    ("tx", Field::Str("step-000001-a0".into())),
                ],
            );
            let b = tel.span_start(
                20,
                "ntcp",
                "propose",
                [
                    ("site", Field::Str(second.into())),
                    ("tx", Field::Str("step-000001-a0".into())),
                ],
            );
            tel.span_end(30, a, [("site", Field::Str(first.into()))]);
            tel.span_end(40, b, [("site", Field::Str(second.into()))]);
            TraceSignature::from_jsonl(&tel.export_jsonl())
        };
        let ab = interleave("site-000", "site-001");
        let ba = interleave("site-001", "site-000");
        assert_eq!(ab.fingerprint, ba.fingerprint);
        assert_eq!(ab.id(), ba.id());
    }

    #[test]
    fn metric_lines_and_garbage_are_skipped() {
        let mut src = clean_run(500);
        src.push_str("{\"kind\":\"counter\",\"name\":\"x\",\"value\":3}\n");
        src.push_str("not json at all\n");
        let sig = TraceSignature::from_jsonl(&src);
        assert_eq!(sig, TraceSignature::from_jsonl(&clean_run(500)));
    }
}
