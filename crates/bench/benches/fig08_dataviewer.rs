//! E6 (Figure 8) — CHEF data viewers over NSDS.
//!
//! The streaming fan-out that fed the viewers: publish throughput vs
//! subscriber count (including the MOST-scale 130-viewer crowd), viewer
//! ingest + VCR seek, and hysteresis-pair extraction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use neesgrid_chef::DataViewer;
use neesgrid_daq::nsds::{NsdsSample, NsdsServer};
use neesgrid_gridsim::SimTime;

fn sample(i: u64) -> NsdsSample {
    NsdsSample {
        channel: "uiuc/dof-0/disp".into(),
        t: SimTime::from_millis(i * 10),
        value: (i as f64 * 0.01).sin() * 0.01,
    }
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig08/nsds_publish_1k_samples");
    for subscribers in [1usize, 16, 130] {
        group.throughput(Throughput::Elements(1000));
        group.bench_with_input(
            BenchmarkId::from_parameter(subscribers),
            &subscribers,
            |b, &subscribers| {
                let nsds = NsdsServer::new();
                let subs: Vec<_> = (0..subscribers)
                    .map(|_| nsds.subscribe("*", 2048))
                    .collect();
                b.iter(|| {
                    for i in 0..1000u64 {
                        nsds.publish(sample(i));
                    }
                    for s in &subs {
                        std::hint::black_box(s.take(usize::MAX));
                    }
                })
            },
        );
    }
    group.finish();
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
            std::hint::black_box(v.visible_series("uiuc/dof-0/disp"))
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
        b.iter(|| std::hint::black_box(v.hysteresis("disp", "force")))
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
    targets = bench_fanout, bench_viewer
}
criterion_main!(benches);
