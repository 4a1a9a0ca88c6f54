//! Trace signatures read each line in place, and sign every trace exactly
//! as reading each line into a `Value` tree did.
//!
//! `value_reader` below is that tree reader, kept as the reference. Both
//! readers sign real campaign traces (aborts, injected drops, duplicates
//! and resets, a worker-kill resume, metric lines), the same traces with
//! an NTCP span left open, and mutations of them: truncated and byte-flipped lines, members of
//! the wrong type, keys repeated at the top level and inside `fields`,
//! salient values that are floats, negatives, `-0`, objects, arrays or
//! null, escaped strings and keys, nesting past the parser's 128 levels,
//! and foreign JSON. Every input gives the same signature and id.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use neesgrid::campaign::{run_campaign, CampaignConfig, ScenarioDoc};
use neesgrid::telemetry::{AbortSite, FaultEvent, TraceSignature};
use proptest::prelude::*;
use serde_json::{Number, Value};

// --- the reference: each line parsed into a `Value` and indexed ---

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= 0xff;
    h.wrapping_mul(FNV_PRIME)
}

const SALIENT_FIELDS: [&str; 9] = [
    "step", "attempt", "tx", "site", "link", "index", "op", "ok", "outcome",
];

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

fn value_reader(src: &str) -> TraceSignature {
    let mut abort: Option<AbortSite> = None;
    let mut faults: Vec<FaultEvent> = Vec::new();
    let mut open_ntcp: Vec<(u64, String)> = Vec::new();
    let mut fingerprint = 0u64;

    for line in src.lines() {
        let Ok(doc) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let kind = match doc["kind"].as_str() {
            Some(k @ ("span_start" | "span_end" | "instant")) => k,
            _ => continue,
        };
        let sub = doc["sub"].as_str().unwrap_or_default();
        let name = doc["name"].as_str().unwrap_or_default();
        let fields = &doc["fields"];

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

// --- real traces ---

/// A reset under the partial policy (an abort that orphans an NTCP
/// span), and lossy links with a worker kill under the full policy
/// (drops, duplicates, and a resume from checkpoint).
const SCENARIOS: [&str; 2] = [
    r#"
campaign "reset" {
  sites   { count = 2; mix = [numerical, emulated]; }
  network { profile = campus-wan; }
  faults  { reset "coordinator" -> "site-000" at step 5 phase execute; }
  run     { steps = 12; checkpoint-every = 4; policy = partial; }
  sweep   { seeds = 1..2; }
}
"#,
    r#"
campaign "lossy-crash" {
  sites   { count = 2; }
  network { profile = campus-wan; }
  faults  { kill worker 0 at tick 2; drop rate 60/1000; dup rate 40/1000; }
  run     { steps = 48; checkpoint-every = 8; policy = full; }
  sweep   { seeds = 1..2; }
}
"#,
];

/// Every archived trace of a small campaign over each of [`SCENARIOS`].
fn traces() -> &'static [String] {
    static TRACES: OnceLock<Vec<String>> = OnceLock::new();
    TRACES.get_or_init(|| {
        let docs: Vec<ScenarioDoc> = SCENARIOS
            .iter()
            .map(|src| ScenarioDoc::parse(src).expect("scenario parses"))
            .collect();
        let config = CampaignConfig {
            workers: 2,
            slice_steps: 8,
            queue_capacity: 16,
        };
        let mut traces = Vec::new();
        for doc in docs {
            let report = run_campaign(&[doc], &config).expect("campaign runs");
            let cas = report.archive.cas();
            for artifact in report.entries.iter().flat_map(|e| &e.artifacts) {
                if artifact.logical.ends_with("/trace.jsonl") {
                    let bytes = cas.read(&artifact.logical).expect("trace is archived");
                    traces.push(String::from_utf8(bytes.to_vec()).expect("trace is UTF-8"));
                }
            }
        }
        traces
    })
}

fn same_signature(src: &str) -> Result<(), TestCaseError> {
    let (in_place, reference) = (TraceSignature::from_jsonl(src), value_reader(src));
    prop_assert_eq!(in_place.id(), reference.id(), "input {:?}", src);
    prop_assert_eq!(in_place, reference, "input {:?}", src);
    Ok(())
}

#[test]
fn real_traces_sign_as_the_value_reader_does() {
    let all = traces().concat();
    for needle in [
        r#""name":"abort""#,
        r#""name":"resume""#,
        r#""name":"drop""#,
        r#""name":"dup""#,
        r#""name":"reset""#,
        r#""kind":"counter""#,
    ] {
        assert!(all.contains(needle), "the traces hold {needle}");
    }
    for trace in traces() {
        same_signature(trace).map_err(|e| e.0).unwrap();
        let orphaned = orphan_last_ntcp_span(trace);
        assert!(!value_reader(&orphaned).aborted_txs.is_empty());
        same_signature(&orphaned).map_err(|e| e.0).unwrap();
    }
}

/// `trace` without its last NTCP span end: a transaction left open, as
/// a run killed mid-call would leave it.
fn orphan_last_ntcp_span(trace: &str) -> String {
    let mut lines: Vec<&str> = trace.lines().collect();
    let last_end = lines
        .iter()
        .rposition(|l| l.contains(r#""kind":"span_end""#) && l.contains(r#""sub":"ntcp""#))
        .expect("the trace holds NTCP spans");
    lines.remove(last_end);
    lines.join("\n")
}

// --- mutations ---

/// Deterministic source for mutations (xorshift64*).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    /// A value of any JSON type, as text.
    fn value(&mut self) -> String {
        match self.below(10) {
            0 => self
                .pick(&[
                    "null",
                    "true",
                    "false",
                    "{}",
                    "[]",
                    r#"{"a":[1,{"b":null}]}"#,
                ])
                .to_string(),
            1 => self.next().to_string(),
            2 => format!("-{}", self.below(3)),
            3 => self
                .pick(&[
                    "1.5",
                    "-2.25e-3",
                    "1e3",
                    "1.0",
                    "0.0",
                    "-0.0",
                    "-0",
                    "1e400",
                    "123456789012345678901234",
                    "00012",
                ])
                .to_string(),
            4 => format!(
                "[{},{}]",
                self.below(9),
                self.pick(&["\"x\"", "[true]", "{}"])
            ),
            5 => {
                let depth = 118 + self.below(16);
                "[".repeat(depth) + &"]".repeat(depth)
            }
            6 => self
                .pick(&[
                    r#""site-0""#,
                    r#""tx \"quoted\" \\ \n""#,
                    r#""😀""#,
                    r#""\ud800""#,
                    r#""tab\there""#,
                ])
                .to_string(),
            7 => self.below(40).to_string(),
            _ => format!(
                "\"{}\"",
                self.pick(&[
                    "instant",
                    "span_start",
                    "span_end",
                    "coordinator",
                    "abort",
                    "net",
                    "drop",
                    "reset",
                    "dup",
                    "ntcp",
                    "site-000",
                    "coordinator->site-000",
                    "link reset at index 17",
                ])
            ),
        }
    }

    /// A key a signature reads (sometimes spelled with escapes), or not.
    fn key(&mut self, top_level: bool) -> String {
        let key = if top_level {
            self.pick(&["kind", "sub", "name", "span", "fields", "t", "seq", "x"])
        } else {
            self.pick(&[
                "step", "attempt", "tx", "site", "link", "index", "op", "ok", "outcome", "error",
                "corr", "dst",
            ])
        };
        match self.below(6) {
            0 => format!(
                "\"{}\\u{:04x}\"",
                &key[..key.len() - 1],
                key.as_bytes()[key.len() - 1]
            ),
            _ => format!("\"{key}\""),
        }
    }

    /// `line` with one mutation applied.
    fn mutate(&mut self, line: &str) -> String {
        let member = |g: &mut Gen, top: bool| format!("{}:{}", g.key(top), g.value());
        let fields_at = line
            .find(r#""fields":{"#)
            .map(|i| i + r#""fields":{"#.len());
        match self.below(10) {
            // A member first: a repeated key's later original wins.
            0 if line.starts_with('{') => format!("{{{},{}", member(self, true), &line[1..]),
            // A member last: a repeated key's injected value wins.
            1 if line.ends_with('}') => {
                format!("{},{}}}", &line[..line.len() - 1], member(self, true))
            }
            2 => match fields_at {
                Some(i) if line[i..].starts_with('}') => {
                    format!("{}{}{}", &line[..i], member(self, false), &line[i..])
                }
                Some(i) => format!("{}{},{}", &line[..i], member(self, false), &line[i..]),
                None => line.to_string(),
            },
            // Canonical lines end with `fields`: a member at its end.
            3 if line.ends_with("}}") => {
                let at = line.len() - 2;
                let comma = if line[..at].ends_with('{') { "" } else { "," };
                format!(
                    "{}{comma}{}{}",
                    &line[..at],
                    member(self, false),
                    &line[at..]
                )
            }
            4 => match line.find(r#""fields":"#) {
                Some(i) => format!("{}\"fields\":{},{}", &line[..i], self.value(), &line[i..]),
                None => line.to_string(),
            },
            5 => {
                let cut = (0..=line.len())
                    .filter(|&i| line.is_char_boundary(i))
                    .nth(self.below(line.len() + 1))
                    .unwrap_or(0);
                line[..cut].to_string()
            }
            6 if !line.is_empty() => {
                let mut bytes = line.as_bytes().to_vec();
                let at = self.below(bytes.len());
                bytes[at] ^= 1 << self.below(8);
                String::from_utf8_lossy(&bytes).into_owned()
            }
            7 => format!("[{line}]"),
            8 => self
                .pick(&[
                    r#"{"kind":"counter","name":"x","value":3}"#,
                    r#"{"kind":"instant"}"#,
                    r#"{"kind":"span_end","sub":"ntcp","span":1}"#,
                    r#"{}"#,
                    r#"[1,2]"#,
                    r#""instant""#,
                    "",
                    "not json",
                ])
                .to_string(),
            _ => format!("{{{}}}", member(self, true)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn mutated_traces_sign_as_the_value_reader_does(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let mut trace = traces()[g.below(traces().len())].clone();
        if g.below(2) == 0 {
            trace = orphan_last_ntcp_span(&trace);
        }
        let mut lines: Vec<String> = trace.lines().map(str::to_string).collect();
        for _ in 0..1 + g.below(12) {
            let at = g.below(lines.len());
            let mut line = g.mutate(&lines[at]);
            if g.below(3) == 0 {
                line = g.mutate(&line);
            }
            same_signature(&line)?;
            lines[at] = line;
        }
        same_signature(&lines.join("\n"))?;
    }
}
