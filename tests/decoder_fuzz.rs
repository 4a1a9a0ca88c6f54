//! Decoders of untrusted bytes never panic.
//!
//! Traces come back from disk and corpus entries; portal frames come off
//! the wire. Whatever the bytes, the JSON parser, the trace-signature
//! extractor, the report renderer, the portal frame decoder (requests and
//! replies) and the hex decoder artifact chunks go through answer with a
//! result or an error: no panic, no stack overflow. Inputs are random
//! bytes, JSON-token soup, and truncations and byte flips of the lines of
//! a real trace.

use std::sync::OnceLock;

use neesgrid::most::n_site_with_telemetry;
use neesgrid::portal::{decode, RequestFrame, Response};
use neesgrid::repo::from_hex;
use neesgrid::telemetry::{render_report, Telemetry, TraceSignature};
use proptest::prelude::*;
use serde_json::Value;

/// The trace of a short three-site run: every event kind, span ids,
/// string and numeric fields, and metric lines.
fn trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let telemetry = Telemetry::recording();
        n_site_with_telemetry(3, 7, telemetry.clone()).run(3);
        telemetry.export_jsonl()
    })
}

/// `body` behind its 4-byte length prefix.
fn frame(body: &str) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    frame
}

/// Feed `text` to every decoder, alone and appended to the real trace.
fn decode_everywhere(text: &str) {
    let _ = serde_json::from_str::<Value>(text);
    let _ = decode::<RequestFrame>(&frame(text));
    let _ = decode::<Response>(&frame(text));
    // As an artifact chunk's data, `text` (odd-length, non-hex or not)
    // reaches the hex decoder the portal client runs on every chunk.
    let chunk = serde_json::json!({"Artifact": {
        "artifact": "trace.jsonl", "total_len": 1, "digest": 0, "offset": 0,
        "data": text, "eof": true,
    }});
    let chunk = serde_json::to_string(&chunk).expect("a JSON value serializes");
    match decode::<Response>(&frame(&chunk)) {
        Ok(Response::Artifact { data, .. }) => {
            assert_eq!(data, text);
            let _ = from_hex(&data);
        }
        other => panic!("a well-formed artifact frame decodes: {other:?}"),
    }
    for jsonl in [text.to_string(), format!("{}{text}", trace())] {
        let _ = TraceSignature::from_jsonl(&jsonl);
        let _ = render_report(&jsonl);
    }
}

/// Space-separated tokens that steer the parser into every branch.
const JSON_TOKENS: &str =
    "[ ] { } \" : , \\ \\u d83d 0 - 1e999 . e + null tru false \n é \u{1} \"kind\" \"span_start\"";

proptest! {
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        decode_everywhere(&String::from_utf8_lossy(&bytes));
        let _ = decode::<RequestFrame>(&bytes);
        let _ = decode::<Response>(&bytes);
    }

    #[test]
    fn json_token_soup_never_panics(picks in proptest::collection::vec(any::<usize>(), 0..400)) {
        let tokens: Vec<&str> = JSON_TOKENS.split(' ').collect();
        decode_everywhere(&picks.iter().map(|&i| tokens[i % tokens.len()]).collect::<String>());
    }

    #[test]
    fn cut_and_flipped_trace_lines_never_panic(
        line in any::<usize>(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let lines: Vec<&str> = trace().lines().collect();
        prop_assert!(lines.len() > 50, "the traced run emits a real trace");
        let mut bytes = lines[line % lines.len()].as_bytes().to_vec();
        let at = at % bytes.len();
        decode_everywhere(&String::from_utf8_lossy(&bytes[..at]));
        bytes[at] ^= mask;
        decode_everywhere(&String::from_utf8_lossy(&bytes));
    }
}
