//! The JSON reader's cost per sample of a CHEF viewer's `Poll` reply.
//!
//! Takes the last 1,024 samples the MOST public run publishes (the samples
//! a watching participant's final `Poll` replies carry) as one `Samples`
//! reply frame, and decodes its body four ways: as an owned `Response`,
//! as the in-place `SamplesView` the viewers read, as a `Value` tree, and
//! as a `RawValue`, which only checks the syntax and copies the text. A
//! std `f64` parse of the reply's value texts is the reference for what
//! converting the numbers alone costs.
//!
//! Each round times every way for a batch of decodes, in an order that
//! rotates from round to round (the host this was tuned on slows by up to
//! 1.8x for seconds at a time). `BENCH_json.json` at the repo root gets
//! the best and median ns per sample of each, the reply's size, the core
//! count and the repeats.

use std::hint::black_box;
use std::time::Instant;

use neesgrid_bench::{best_and_median, cores, write_record};
use neesgrid_most::{MostDeployment, Scenario};
use neesgrid_portal::{decode, encode, Response, SamplesView};
use serde_json::{RawValue, Value};

/// Samples in the reply: a full `Poll`.
const SAMPLES: usize = 1024;
/// Decodes timed together in one round of one way.
const DECODES: usize = 50;
/// Timed rounds.
const REPEATS: usize = 21;

/// The frame of a `Samples` reply carrying the public run's last samples.
fn poll_reply() -> bytes::Bytes {
    let scenario = Scenario::PublicRun;
    let config = scenario.config();
    let deployment = MostDeployment::build(config.clone(), 0);
    deployment.set_fault_plan(scenario.fault_plan(config.steps));
    let tap = deployment.nsds.subscribe("*", SAMPLES);
    deployment.run(scenario.policy());
    let samples = tap.take_run(SAMPLES);
    assert_eq!(
        samples.len(),
        SAMPLES,
        "the run publishes a full reply's worth"
    );
    encode(&Response::Samples {
        samples,
        dropped: tap.dropped(),
        done: false,
    })
    .expect("a full reply fits a frame")
}

/// The text of every `"value":` member in `body`.
fn value_texts(body: &str) -> Vec<&str> {
    body.split("\"value\":")
        .skip(1)
        .map(|rest| &rest[..rest.find(['}', ',']).expect("a member ends")])
        .collect()
}

/// `(best, median)` of a set of timings.
fn main() {
    let nproc = cores();
    let frame = poll_reply();
    let body = std::str::from_utf8(&frame[4..]).expect("frames are UTF-8");
    let values = value_texts(body);
    assert_eq!(values.len(), SAMPLES);

    let ways: [(&str, &dyn Fn()); 5] = [
        ("owned_response", &|| {
            let Ok(Response::Samples { samples, .. }) = decode::<Response>(&frame) else {
                panic!("the reply decodes as Samples");
            };
            black_box(samples);
        }),
        ("view", &|| {
            let Ok(SamplesView::Samples { samples, .. }) = decode::<SamplesView>(&frame) else {
                panic!("the reply reads as a view");
            };
            black_box(samples);
        }),
        ("value", &|| {
            black_box(serde_json::from_str::<Value>(body).expect("the body parses"));
        }),
        ("raw_skip", &|| {
            black_box(serde_json::from_str::<RawValue>(body).expect("the body is JSON"));
        }),
        ("f64_parse", &|| {
            for text in &values {
                black_box(text.parse::<f64>().expect("a JSON number"));
            }
        }),
    ];

    // Warm-up, then rounds that rotate which way goes first.
    for (_, decode) in &ways {
        for _ in 0..DECODES {
            decode();
        }
    }
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(REPEATS); ways.len()];
    for round in 0..REPEATS {
        for k in 0..ways.len() {
            let i = (round + k) % ways.len();
            let started = Instant::now();
            for _ in 0..DECODES {
                (ways[i].1)();
            }
            let ns = started.elapsed().as_nanos() as f64;
            times[i].push(ns / (DECODES * SAMPLES) as f64);
        }
    }

    let mut doc = serde_json::json!({
        "bench": "json_reader",
        "reply": "the MOST public run's last 1,024 NSDS samples as one Samples reply frame, \
                  decoded as an owned Response, as the in-place SamplesView, as a Value and as a \
                  RawValue (syntax check and copy); f64_parse is a std parse of its value texts",
        "samples": SAMPLES,
        "body_bytes": body.len(),
        "bytes_per_sample": (body.len() as f64 / SAMPLES as f64 * 10.0).round() / 10.0,
        "nproc": nproc,
        "repeats": REPEATS,
        "decodes_per_repeat": DECODES,
    });
    for ((name, _), ns) in ways.iter().zip(times) {
        let (best, median) = best_and_median(ns);
        eprintln!("json_reader: {name:<15} best {best:>7.1} ns/sample, median {median:>7.1}");
        if let Value::Object(m) = &mut doc {
            m.insert(format!("{name}_ns_per_sample"), best.into());
            m.insert(format!("median_{name}_ns_per_sample"), median.into());
        }
    }
    write_record("json_reader", "json", &doc);
}
