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

use std::borrow::Cow;
use std::collections::BTreeSet;

use serde::de::{Deserialize, Deserializer, IgnoredAny, Kind, MapAccess, SeqAccess, Token};
use serde_json::Number;

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

/// A member as a signature reads it: strings, numbers and booleans
/// whole, anything else only as present.
enum Scalar<'a> {
    Str(Cow<'a, str>),
    Num(Number),
    Bool(bool),
    /// `null`, an array or an object.
    Other,
}

impl<'de> Deserialize<'de> for Scalar<'de> {
    fn deserialize<D: Deserializer<'de>>(mut d: D) -> Result<Self, D::Error> {
        if matches!(d.kind()?, Kind::Array | Kind::Object) {
            return d.skip().map(|()| Scalar::Other);
        }
        Ok(match d.token()? {
            Token::Str(s) => Scalar::Str(s),
            Token::Number(n) => Scalar::Num(n),
            Token::Bool(b) => Scalar::Bool(b),
            _ => Scalar::Other,
        })
    }
}

/// `Some(s)` for a string member, as `Value::as_str` reads it.
fn as_str<'s>(member: Option<&'s Scalar<'_>>) -> Option<&'s str> {
    match member {
        Some(Scalar::Str(s)) => Some(s),
        _ => None,
    }
}

/// `Some(n)` for a `u64` member, as `Value::as_u64` reads it.
fn as_u64(member: Option<&Scalar<'_>>) -> Option<u64> {
    match member {
        Some(Scalar::Num(n)) => n.as_u64(),
        _ => None,
    }
}

/// A member as the fingerprint hashes it: strings raw, numbers and
/// booleans in their JSON spelling, anything else empty. `spelling` is
/// scratch space for numbers.
fn fnv_scalar(h: u64, v: &Scalar<'_>, spelling: &mut String) -> u64 {
    use std::fmt::Write as _;
    let n = match v {
        Scalar::Str(s) => return fnv_bytes(h, s.as_bytes()),
        Scalar::Bool(b) => return fnv_bytes(h, if *b { b"true" } else { b"false" }),
        Scalar::Other => return fnv_bytes(h, b""),
        Scalar::Num(n) => *n,
    };
    spelling.clear();
    // Writing into a `String` cannot fail.
    let _ = match n {
        Number::PosInt(n) => write!(spelling, "{n}"),
        Number::NegInt(n) => write!(spelling, "{n}"),
        Number::Float(x) => write!(spelling, "{x}"),
    };
    fnv_bytes(h, spelling.as_bytes())
}

/// The members of one trace line a signature reads, decoded in place:
/// every other member is checked and skipped without being built.
///
/// Each member reads as indexing a parsed `Value` would: a repeated
/// key's last value wins (at the top level and inside `fields`), a
/// non-object line or `fields` has no members, and a member of the wrong
/// type is present but reads as absent.
#[derive(Default)]
struct EventLine<'a> {
    kind: Option<Scalar<'a>>,
    sub: Option<Scalar<'a>>,
    name: Option<Scalar<'a>>,
    span: Option<Scalar<'a>>,
    fields: Fields<'a>,
}

/// The `fields` members a signature reads: the [`SALIENT_FIELDS`] in
/// order, then `error`.
#[derive(Default)]
struct Fields<'a>([Option<Scalar<'a>>; SALIENT_FIELDS.len() + 1]);

impl<'a> Fields<'a> {
    /// Where `key` is kept, if a signature reads it.
    fn slot(key: &str) -> Option<usize> {
        match key {
            "error" => Some(SALIENT_FIELDS.len()),
            _ => SALIENT_FIELDS.iter().position(|k| *k == key),
        }
    }

    fn get(&self, key: &str) -> Option<&Scalar<'a>> {
        self.0[Self::slot(key)?].as_ref()
    }

    fn salient(&self) -> impl Iterator<Item = (&'static str, &Scalar<'a>)> {
        SALIENT_FIELDS
            .into_iter()
            .zip(&self.0)
            .filter_map(|(key, v)| Some((key, v.as_ref()?)))
    }
}

/// Read the members of the object `d` holds with `member`, which decodes
/// or skips each one's value; any other value is skipped whole.
fn members<'de, D: Deserializer<'de>>(
    d: D,
    mut member: impl FnMut(&str, &mut D::Map) -> Result<(), D::Error>,
) -> Result<(), D::Error> {
    match d.token()? {
        Token::Object(mut map) => {
            while let Some(key) = map.next_key()? {
                member(&key, &mut map)?;
            }
        }
        Token::Array(mut seq) => while seq.next_element::<IgnoredAny>()?.is_some() {},
        _ => {}
    }
    Ok(())
}

impl<'de> Deserialize<'de> for EventLine<'de> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut line = EventLine::default();
        members(d, |key, map| {
            let slot = match key {
                "kind" => &mut line.kind,
                "sub" => &mut line.sub,
                "name" => &mut line.name,
                "span" => &mut line.span,
                "fields" => {
                    line.fields = map.next_value()?.unwrap_or_default();
                    return Ok(());
                }
                _ => return map.skip_value(),
            };
            *slot = map.next_value()?.ok();
            Ok(())
        })?;
        Ok(line)
    }
}

impl<'de> Deserialize<'de> for Fields<'de> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut fields = Fields::default();
        members(d, |key, map| match Fields::slot(key) {
            Some(i) => {
                fields.0[i] = map.next_value()?.ok();
                Ok(())
            }
            None => map.skip_value(),
        })?;
        Ok(fields)
    }
}

impl TraceSignature {
    /// Extract a signature from canonical trace JSONL (the exact string
    /// [`crate::Telemetry::export_jsonl`] produces). Metric snapshot lines
    /// and unparseable lines are skipped; an empty trace yields the
    /// `"completed"` signature with a fixed fingerprint.
    ///
    /// Each line is decoded in place into the few members a signature
    /// reads ([`EventLine`]), with the skip rules of indexing the line's
    /// parsed `Value`: a syntax error anywhere skips the line.
    pub fn from_jsonl(src: &str) -> TraceSignature {
        Self::from_jsonl_and_resumed(src).0
    }

    /// [`TraceSignature::from_jsonl`], and whether the run resumed from a
    /// checkpoint (the trace carries a `coordinator/resume` instant), read
    /// in the same pass. The flag is not part of the signature: a resumed
    /// run signs as its undisturbed re-run does.
    pub fn from_jsonl_and_resumed(src: &str) -> (TraceSignature, bool) {
        let mut resumed = false;
        let mut abort: Option<AbortSite> = None;
        let mut faults: Vec<FaultEvent> = Vec::new();
        // span id -> tx name, for ntcp spans still open at trace end.
        let mut open_ntcp: Vec<(u64, String)> = Vec::new();
        let mut fingerprint = 0u64;
        let mut spelling = String::new();

        for line in src.lines() {
            let Ok(event) = serde_json::from_str::<EventLine>(line) else {
                continue;
            };
            let kind = match as_str(event.kind.as_ref()) {
                Some(k @ ("span_start" | "span_end" | "instant")) => k,
                _ => continue, // metric snapshot line or foreign JSON
            };
            let sub = as_str(event.sub.as_ref()).unwrap_or_default();
            let name = as_str(event.name.as_ref()).unwrap_or_default();
            let fields = &event.fields;

            // Phase fingerprint: hash this event's skeleton on its own,
            // then fold commutatively — order must not matter.
            let mut h = fnv_bytes(FNV_OFFSET, sub.as_bytes());
            h = fnv_bytes(h, name.as_bytes());
            h = fnv_bytes(h, kind.as_bytes());
            for (key, v) in fields.salient() {
                h = fnv_bytes(h, key.as_bytes());
                h = fnv_scalar(h, v, &mut spelling);
            }
            fingerprint = fingerprint.wrapping_add(h);

            let field_or_unknown = |key: &str| as_str(fields.get(key)).unwrap_or("?").to_string();
            match (sub, kind) {
                ("coordinator", "instant") if name == "resume" => resumed = true,
                ("coordinator", "instant") if name == "abort" => {
                    abort = Some(AbortSite {
                        step: as_u64(fields.get("step")).unwrap_or(0),
                        site: field_or_unknown("site"),
                        error_class: normalize_digits(as_str(fields.get("error")).unwrap_or("?")),
                    });
                }
                ("net", "instant") if matches!(name, "drop" | "reset" | "dup") => {
                    faults.push(FaultEvent {
                        action: name.to_string(),
                        link: field_or_unknown("link"),
                        index: as_u64(fields.get("index")).unwrap_or(0),
                    });
                }
                ("ntcp", "span_start") => {
                    let span = as_u64(event.span.as_ref()).unwrap_or(0);
                    if span != 0 {
                        open_ntcp.push((span, field_or_unknown("tx")));
                    }
                }
                ("ntcp", "span_end") => {
                    let span = as_u64(event.span.as_ref()).unwrap_or(0);
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

        let signature = TraceSignature {
            termination: if abort.is_some() {
                "aborted".to_string()
            } else {
                "completed".to_string()
            },
            abort,
            aborted_txs,
            faults,
            fingerprint,
        };
        (signature, resumed)
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
    fn the_signing_pass_reads_whether_the_run_resumed() {
        let tel = Telemetry::recording();
        tel.instant(500, "coordinator", "resume", [("step", Field::U64(2))]);
        let span = tel.span_start(600, "coordinator", "step", [("step", Field::U64(2))]);
        tel.span_end(604, span, [("step", Field::U64(2))]);
        let resumed = tel.export_jsonl();
        for (trace, flag) in [
            (resumed.as_str(), true),
            (&clean_run(1_000), false),
            ("", false),
        ] {
            let (sig, read) = TraceSignature::from_jsonl_and_resumed(trace);
            assert_eq!(read, flag, "{trace}");
            assert_eq!(sig, TraceSignature::from_jsonl(trace));
        }
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
