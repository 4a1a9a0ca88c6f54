//! E7 (Figure 10) — the DAQ components.
//!
//! Sampling throughput vs channel count, the CSV encode of the file-drop
//! stage, and the full DAQ → drop-dir handoff (4 channels at 100 Hz, one
//! 1 s window). `BENCH_fig10.json` at the repo root gets the best and
//! median of each, with the core count and the repeats.

use serde_json::json;

use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record};
use neesgrid_daq::{ChannelConfig, DaqSystem, FileDropDir, TimeSeries};
use neesgrid_gridsim::SimTime;

fn daq_with_channels(n: usize, rate: f64) -> DaqSystem {
    let mut daq = DaqSystem::new();
    for i in 0..n {
        daq.add_channel(
            ChannelConfig::new(format!("ch-{i}"), "m", rate),
            Box::new(move |t: SimTime| (t.as_secs_f64() * (i as f64 + 1.0)).sin()),
        );
    }
    daq
}

/// Channel counts of the sampling case.
const CHANNELS: [usize; 3] = [2, 8, 32];
/// Timed rounds.
const REPEATS: usize = 21;

fn main() {
    let mut sampled: Vec<_> = CHANNELS
        .iter()
        .map(|&n| (daq_with_channels(n, 1000.0), SimTime::ZERO))
        .collect();
    let mut ts = TimeSeries::new("uiuc/lvdt-1", "m");
    for i in 0..1000u64 {
        ts.push(SimTime::from_millis(i), (i as f64 * 0.001).sin());
    }
    let mut dropped = daq_with_channels(4, 100.0);
    let dir = FileDropDir::new();
    let (mut t, mut window) = (SimTime::ZERO, 0u64);
    let timings = time_cases(REPEATS, CHANNELS.len() + 2, |case, watch| match case {
        i if i < CHANNELS.len() => {
            let (daq, at) = &mut sampled[i];
            let next = *at + SimTime::from_secs(1);
            watch.time(|| daq.acquire(*at, next));
            *at = next;
        }
        3 => drop(watch.time(|| TimeSeries::from_csv(&ts.to_csv()).unwrap())),
        _ => watch.time(|| {
            let next = t + SimTime::from_secs(1);
            for ts in dropped.acquire(t, next) {
                dir.deposit_series(&ts, window, next);
            }
            t = next;
            window += 1;
        }),
    });

    let mut acquire = Vec::new();
    for (channels, &(best, median)) in CHANNELS.iter().zip(&timings) {
        let samples = (channels * 1000) as f64;
        let msamples_per_s = (samples / best / 1e6, samples / median / 1e6);
        eprintln!(
            "fig10: acquire 1 s at 1 kHz, {channels:>2} channels: best {:>6.2} Msamples/s, \
             median {:>6.2}",
            msamples_per_s.0, msamples_per_s.1
        );
        let mut row = json!({ "channels": channels });
        put_best_and_median(&mut row, "msamples_per_s", msamples_per_s);
        acquire.push(row);
    }
    let mut doc = json!({
        "bench": "fig10_daq_pipeline",
        "nproc": cores(),
        "repeats": REPEATS,
        "acquire_1s_window_at_1khz": acquire,
    });
    for (key, (best, median)) in [
        ("csv_encode_decode_1k_samples_us", timings[3]),
        ("daq_to_dropdir_window_us", timings[4]),
    ] {
        let us = (best * 1e6, median * 1e6);
        eprintln!("fig10: {key:<32} best {:>8.1}, median {:>8.1}", us.0, us.1);
        put_best_and_median(&mut doc, key, us);
    }
    write_record("fig10_daq_pipeline", "fig10", &doc);
}
