//! §5.1 — scaling the two-phase step discipline beyond three sites.
//!
//! The paper asks how far the MOST architecture generalizes; the event
//! engine makes the question cheap to answer. This harness runs the
//! N-site experiment at N = 3, 8, 16, 64 (100 steps each, fully virtual,
//! single-threaded) five times each, reports the median and best
//! steps/second, double-runs the largest configuration to prove
//! bit-identical determinism, and writes `BENCH_scaling.json` at the repo
//! root together with the host's core count.

use std::time::Instant;

use neesgrid_bench::{cores, write_record};
use neesgrid_coordinator::Termination;
use neesgrid_most::n_site;

const STEPS: usize = 100;
const SEED: u64 = 2004;
/// Timed runs per site count; each row keeps their median and best.
const REPEATS: usize = 5;

fn main() {
    let nproc = cores();
    let mut rows = Vec::new();
    for n in [3usize, 8, 16, 64] {
        let mut wall_ms: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let started = Instant::now();
                let outcome = n_site(n, SEED).run(STEPS);
                let elapsed = started.elapsed();
                assert!(
                    matches!(outcome.termination, Termination::Completed),
                    "N={n} run did not complete"
                );
                assert_eq!(outcome.steps_completed(), STEPS);
                elapsed.as_secs_f64() * 1e3
            })
            .collect();
        wall_ms.sort_by(f64::total_cmp);
        let (best_ms, median_ms) = (wall_ms[0], wall_ms[REPEATS / 2]);
        let steps_per_sec = |ms: f64| STEPS as f64 / (ms / 1e3);
        eprintln!(
            "sec51/n_site: N={n:>2}  {STEPS} steps, {REPEATS} runs: median {median_ms:>8.2} ms \
             ({:>9.1} steps/s), best {best_ms:>8.2} ms ({:>9.1} steps/s)",
            steps_per_sec(median_ms),
            steps_per_sec(best_ms),
        );
        rows.push(serde_json::json!({
            "sites": n,
            "steps": STEPS,
            "repeats": REPEATS,
            "median_wall_clock_ms": median_ms,
            "best_wall_clock_ms": best_ms,
            "median_steps_per_sec": steps_per_sec(median_ms),
            "best_steps_per_sec": steps_per_sec(best_ms),
        }));
    }

    // Determinism at the largest configuration: the full observable record
    // of two same-seed runs must match bit for bit.
    let a = n_site(64, SEED).run(STEPS);
    let b = n_site(64, SEED).run(STEPS);
    let deterministic = a.log.events == b.log.events
        && a.history.displacement == b.history.displacement
        && a.history.restoring == b.history.restoring;
    assert!(deterministic, "64-site runs with the same seed diverged");
    eprintln!("sec51/n_site: 64-site double-run bit-identical: {deterministic}");

    let doc = serde_json::json!({
        "bench": "sec51_n_site_scaling",
        "nproc": nproc,
        "seed": SEED,
        "rows": rows,
        "deterministic_at_64_sites": deterministic,
    });
    write_record("sec51/n_site", "scaling", &doc);
}
