//! E6 (Figure 8) — CHEF data viewers over NSDS.
//!
//! The streaming fan-out that fed the viewers, timed against the
//! subscriber count up to the MOST-scale 132-viewer crowd: each round
//! publishes 1,000 samples, then drains every subscriber the way the
//! portal serves it, one `Poll` reply frame per subscriber. Then, under
//! Criterion, viewer ingest + VCR seek, and hysteresis-pair extraction.
//!
//! The fan-out rounds rotate which subscriber count goes first (the host
//! this was tuned on slows by up to 1.8x for seconds at a time).
//! `BENCH_nsds.json` at the repo root gets the best and median ns per
//! published sample at each count, with the core count and the repeats.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use neesgrid_bench::{best_and_median, cores, write_record};
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
/// Timed repeats.
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

/// `(best, median)` of a set of timings.
fn fanout() {
    let nproc = cores();
    let hubs: Vec<_> = SUBSCRIBERS.iter().map(|&n| crowd(n)).collect();
    for (nsds, subs) in &hubs {
        round(nsds, subs);
    }
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(REPEATS); hubs.len()];
    for repeat in 0..REPEATS {
        for k in 0..hubs.len() {
            let i = (repeat + k) % hubs.len();
            let (nsds, subs) = &hubs[i];
            let started = Instant::now();
            for _ in 0..ROUNDS {
                round(nsds, subs);
            }
            let ns = started.elapsed().as_nanos() as f64;
            times[i].push(ns / (ROUNDS as f64 * PUBLISHED as f64));
        }
    }
    let mut rows = Vec::new();
    for (subscribers, ns) in SUBSCRIBERS.iter().zip(times) {
        let (best, median) = best_and_median(ns);
        eprintln!(
            "nsds fan-out, {subscribers:>3} subscribers: best {best:>7.1} ns per published \
             sample, median {median:>7.1}"
        );
        rows.push(serde_json::json!({
            "subscribers": subscribers,
            "ns_per_sample": best,
            "median_ns_per_sample": median,
        }));
    }
    let doc = serde_json::json!({
        "bench": "nsds_fanout",
        "round": "publish 1,000 samples on one channel to every subscriber (capacity 2,048), then \
                  serve each subscriber one Poll reply frame of what it holds",
        "nproc": nproc,
        "repeats": REPEATS,
        "rounds_per_repeat": ROUNDS,
        "rows": rows,
    });
    write_record("fig08_dataviewer", "nsds", &doc);
}

fn bench_viewer(c: &mut Criterion) {
    c.bench_function("fig08/viewer_ingest_1k_and_seek", |b| {
        b.iter(|| {
            let mut v = DataViewer::new();
            for i in 0..1000u64 {
                let s = sample(i);
                v.ingest(&s.channel, s.t, s.value).expect("time-ordered");
            }
            v.seek(v.live_edge);
            black_box(v.visible_series("uiuc/dof-0/disp"))
        })
    });
    c.bench_function("fig08/hysteresis_pairing_1k", |b| {
        let mut v = DataViewer::new();
        for i in 0..1000u64 {
            let t = SimTime::from_millis(i * 10);
            v.ingest("disp", t, (i as f64 * 0.01).sin() * 0.01)
                .expect("time-ordered");
            v.ingest("force", t, (i as f64 * 0.01).sin() * 2_000.0)
                .expect("time-ordered");
        }
        v.seek(v.live_edge);
        b.iter(|| black_box(v.hysteresis("disp", "force")))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_viewer
}

fn main() {
    fanout();
    benches();
}
