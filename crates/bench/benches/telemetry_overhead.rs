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

use neesgrid_bench::{cores, time_cases, write_record};
use neesgrid_coordinator::Termination;
use neesgrid_most::{n_site, n_site_with_telemetry};
use neesgrid_telemetry::Telemetry;

const SITES: usize = 8;
const STEPS: usize = 200;
const SEED: u64 = 2004;
/// Timed runs per configuration; the record keeps their best and median.
const REPEATS: usize = 12;

fn main() {
    let nproc = cores();
    // The warm-up pass faults both code paths into cache and lets the
    // allocator reach steady state (the trace grows to several megabytes
    // inside the timed run; its first-ever growth faults pages that later
    // runs reuse). The rounds alternate which configuration goes first, so
    // CPU-frequency drift, background load and cache state hit both
    // equally; the budget compares bests.
    let mut trace_lines = 0usize;
    let timings = time_cases(REPEATS, 2, |case, watch| {
        let outcome = if case == 0 {
            watch.time(|| n_site(SITES, SEED).run(STEPS))
        } else {
            let telemetry = Telemetry::recording();
            let outcome =
                watch.time(|| n_site_with_telemetry(SITES, SEED, telemetry.clone()).run(STEPS));
            trace_lines = telemetry.export_jsonl().lines().count();
            outcome
        };
        assert!(matches!(outcome.termination, Termination::Completed));
    });
    let ms = |(best, median): (f64, f64)| (best * 1e3, median * 1e3);
    let (plain_ms, median_plain_ms) = ms(timings[0]);
    let (instrumented_ms, median_instrumented_ms) = ms(timings[1]);
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
    write_record("telemetry_overhead", "telemetry_overhead", &doc);
}
