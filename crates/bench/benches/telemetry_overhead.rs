//! Telemetry overhead — proving the instrumentation is affordable.
//!
//! Runs the 8-site experiment uninstrumented and fully instrumented
//! (trace + metrics + flight recorder all live), several times each, and
//! writes `BENCH_telemetry_overhead.json` at the repo root with the core
//! count, the repeats, and the best and median of each configuration.
//! The acceptance bar is <5% wall-clock overhead, judged on the bests; the
//! harness asserts a looser 25% ceiling so a noisy CI machine cannot
//! turn a measurement into a flake, and records the measured figure for
//! the driver to judge.

use std::time::Instant;

use neesgrid_coordinator::Termination;
use neesgrid_most::{n_site, n_site_with_telemetry};
use neesgrid_telemetry::Telemetry;

const SITES: usize = 8;
const STEPS: usize = 200;
const SEED: u64 = 2004;
/// Timed runs per configuration; the record keeps their best and median.
const REPEATS: usize = 12;

/// `(best, median)` of a set of wall-clock times.
fn best_and_median(mut ms: Vec<f64>) -> (f64, f64) {
    ms.sort_by(f64::total_cmp);
    (ms[0], ms[ms.len() / 2])
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Warm-up: fault both code paths into cache and let the allocator reach
    // steady state (the trace grows to several megabytes inside the timed
    // run; its first-ever growth faults pages that later runs reuse) before
    // timing anything.
    n_site(SITES, SEED).run(STEPS);
    n_site_with_telemetry(SITES, SEED, Telemetry::recording()).run(STEPS);

    // Interleave the two configurations, alternating which goes first in
    // each pair, so CPU-frequency drift, background load, and cache state
    // hit both equally; the budget compares bests.
    let mut plain = Vec::with_capacity(REPEATS);
    let mut instrumented = Vec::with_capacity(REPEATS);
    let mut trace_lines = 0usize;
    let run_plain = |plain: &mut Vec<f64>| {
        let started = Instant::now();
        let outcome = n_site(SITES, SEED).run(STEPS);
        assert!(matches!(outcome.termination, Termination::Completed));
        plain.push(started.elapsed().as_secs_f64() * 1e3);
    };
    let run_instrumented = |instrumented: &mut Vec<f64>, trace_lines: &mut usize| {
        let telemetry = Telemetry::recording();
        let started = Instant::now();
        let outcome = n_site_with_telemetry(SITES, SEED, telemetry.clone()).run(STEPS);
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        assert!(matches!(outcome.termination, Termination::Completed));
        *trace_lines = telemetry.export_jsonl().lines().count();
        instrumented.push(elapsed);
    };
    for round in 0..REPEATS {
        if round % 2 == 0 {
            run_plain(&mut plain);
            run_instrumented(&mut instrumented, &mut trace_lines);
        } else {
            run_instrumented(&mut instrumented, &mut trace_lines);
            run_plain(&mut plain);
        }
    }
    let (plain_ms, median_plain_ms) = best_and_median(plain);
    let (instrumented_ms, median_instrumented_ms) = best_and_median(instrumented);
    eprintln!(
        "telemetry_overhead: uninstrumented, {REPEATS} runs: best {plain_ms:>8.2} ms, \
         median {median_plain_ms:>8.2} ms"
    );
    eprintln!(
        "telemetry_overhead: instrumented,   {REPEATS} runs: best {instrumented_ms:>8.2} ms, \
         median {median_instrumented_ms:>8.2} ms"
    );

    let overhead = instrumented_ms / plain_ms - 1.0;
    let median_overhead = median_instrumented_ms / median_plain_ms - 1.0;
    eprintln!(
        "telemetry_overhead: {SITES} sites x {STEPS} steps, {trace_lines} trace lines, \
         overhead {:+.2}% (best), {:+.2}% (median), {nproc} cores",
        overhead * 1e2,
        median_overhead * 1e2
    );
    assert!(
        overhead < 0.25,
        "telemetry overhead {:.1}% is far above the 5% budget",
        overhead * 1e2
    );

    let doc = serde_json::json!({
        "bench": "telemetry_overhead",
        "sites": SITES,
        "steps": STEPS,
        "seed": SEED,
        "nproc": nproc,
        "repeats": REPEATS,
        "uninstrumented_ms": plain_ms,
        "instrumented_ms": instrumented_ms,
        "overhead_fraction": overhead,
        "median_uninstrumented_ms": median_plain_ms,
        "median_instrumented_ms": median_instrumented_ms,
        "median_overhead_fraction": median_overhead,
        "trace_lines": trace_lines,
        "budget_fraction": 0.05,
        "within_budget": overhead < 0.05,
    });
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_telemetry_overhead.json"
    );
    std::fs::write(out, serde_json::to_string_pretty(&doc).expect("serialize"))
        .expect("write BENCH_telemetry_overhead.json");
    eprintln!("telemetry_overhead: wrote {out}");
}
