//! E6 (Figure 8) — CHEF data viewers over NSDS.
//!
//! The streaming fan-out that fed the viewers, timed against the
//! subscriber count up to the MOST-scale 132-viewer crowd: each round
//! publishes 1,000 samples, then drains every subscriber the way the
//! portal serves it, one `Poll` reply frame per subscriber. Beside it,
//! viewer ingest + VCR seek, and hysteresis-pair extraction.
//!
//! `BENCH_nsds.json` at the repo root gets the best and median ns per
//! published sample at each count and µs per viewer operation, with the
//! core count and the repeats.

use std::hint::black_box;

use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record};
use neesgrid_chef::DataViewer;
use neesgrid_daq::nsds::{NsdsSample, NsdsServer, NsdsSubscription};
use neesgrid_gridsim::SimTime;
use neesgrid_portal::{encode, Response, POLL_CHUNK_MAX};

fn sample(i: u64) -> NsdsSample {
    NsdsSample {
        channel: "uiuc/dof-0/disp".into(),
        t: SimTime::from_millis(i * 10),
        value: (i as f64 * 0.01).sin() * 0.01,
    }
}

/// Subscriber counts: one viewer, a lab's worth, and the §3.4 crowd.
const SUBSCRIBERS: [usize; 3] = [1, 16, 132];
/// Samples published per round before the subscribers are drained.
const PUBLISHED: u64 = 1000;
/// Each subscriber's capacity: a round never overflows it.
const CAPACITY: usize = 2048;
/// Rounds timed together in one repeat of one subscriber count.
const ROUNDS: usize = 5;
/// Viewer operations timed together in one repeat.
const VIEWER_OPS: usize = 20;
/// Timed rounds of every case.
const REPEATS: usize = 21;

/// A hub with `subscribers` viewers on every channel.
fn crowd(subscribers: usize) -> (NsdsServer, Vec<NsdsSubscription>) {
    let nsds = NsdsServer::new();
    let subs = (0..subscribers)
        .map(|_| nsds.subscribe("*", CAPACITY))
        .collect();
    (nsds, subs)
}

/// Publish one round, then serve each subscriber one `Poll` reply frame.
fn round(nsds: &NsdsServer, subs: &[NsdsSubscription]) {
    for i in 0..PUBLISHED {
        nsds.publish(sample(i));
    }
    for s in subs {
        let reply = Response::Samples {
            samples: s.take_run(POLL_CHUNK_MAX),
            dropped: s.dropped(),
            done: false,
        };
        black_box(encode(&reply).expect("a round fits a frame"));
    }
}

fn main() {
    let hubs: Vec<_> = SUBSCRIBERS.iter().map(|&n| crowd(n)).collect();
    let mut paired = DataViewer::new();
    for i in 0..1000u64 {
        let t = SimTime::from_millis(i * 10);
        paired
            .ingest("disp", t, (i as f64 * 0.01).sin() * 0.01)
            .expect("time-ordered");
        paired
            .ingest("force", t, (i as f64 * 0.01).sin() * 2_000.0)
            .expect("time-ordered");
    }
    paired.seek(paired.live_edge);
    let timings = time_cases(REPEATS, hubs.len() + 2, |case, watch| match case {
        i if i < hubs.len() => {
            let (nsds, subs) = &hubs[i];
            watch.time(|| {
                for _ in 0..ROUNDS {
                    round(nsds, subs);
                }
            })
        }
        3 => watch.time(|| {
            for _ in 0..VIEWER_OPS {
                let mut v = DataViewer::new();
                for i in 0..1000u64 {
                    let s = sample(i);
                    v.ingest(&s.channel, s.t, s.value).expect("time-ordered");
                }
                v.seek(v.live_edge);
                black_box(v.visible_series("uiuc/dof-0/disp"));
            }
        }),
        _ => watch.time(|| {
            for _ in 0..VIEWER_OPS {
                black_box(paired.hysteresis("disp", "force"));
            }
        }),
    });

    let mut rows = Vec::new();
    for (subscribers, (best, median)) in SUBSCRIBERS.iter().zip(&timings) {
        let per_sample = 1e9 / (ROUNDS as f64 * PUBLISHED as f64);
        let (best, median) = (best * per_sample, median * per_sample);
        eprintln!(
            "nsds fan-out, {subscribers:>3} subscribers: best {best:>7.1} ns per published \
             sample, median {median:>7.1}"
        );
        let mut row = serde_json::json!({ "subscribers": subscribers });
        put_best_and_median(&mut row, "ns_per_sample", (best, median));
        rows.push(row);
    }
    let mut doc = serde_json::json!({
        "bench": "fig08_dataviewer",
        "round": "publish 1,000 samples on one channel to every subscriber (capacity 2,048), then \
                  serve each subscriber one Poll reply frame of what it holds",
        "viewer": "a CHEF data viewer ingests 1,000 samples of one channel and seeks to the live \
                   edge; hysteresis pairs 1,000 displacement and force samples",
        "nproc": cores(),
        "repeats": REPEATS,
        "rounds_per_repeat": ROUNDS,
        "viewer_ops_per_repeat": VIEWER_OPS,
        "rows": rows,
    });
    for (key, (best, median)) in [
        ("viewer_ingest_1k_and_seek_us", timings[3]),
        ("hysteresis_pairing_1k_us", timings[4]),
    ] {
        let us = (
            best * 1e6 / VIEWER_OPS as f64,
            median * 1e6 / VIEWER_OPS as f64,
        );
        eprintln!("fig08: {key:<29} best {:>7.2}, median {:>7.2}", us.0, us.1);
        put_best_and_median(&mut doc, key, us);
    }
    write_record("fig08_dataviewer", "nsds", &doc);
}
