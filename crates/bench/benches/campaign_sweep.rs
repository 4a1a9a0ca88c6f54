//! Campaign sweep — a declarative scenario matrix through the portal.
//!
//! Expands three DSL scenarios (a deterministic mid-run reset, a clean
//! control, and a recoverable drop) into a 240-cell (scenario × seed)
//! matrix, drives every cell through the portal's admission queue and
//! worker pool, signatures each trace, and archives every run into the
//! content-addressed corpus. Times five sweeps and reports their median
//! and best runs/sec (wall clock) with the host's core count, the unique
//! failure-signature count, and the corpus dedup ratio — 240 runs that
//! collapse to a handful of signatures are the whole point of a
//! regression corpus. Asserts every same-seed sweep reproduces the first
//! one's verdict table byte-for-byte, and writes `BENCH_campaign.json`.

use std::time::Instant;

use neesgrid_campaign::{run_campaign, CampaignConfig, CampaignReport, ScenarioDoc};

const RESET: &str = r#"
campaign "bench-reset" {
  sites   { count = 2; }
  faults  { reset "coordinator" -> "site-000" at step 3 phase execute; }
  run     { steps = 8; checkpoint-every = 0; policy = partial; }
  sweep   { seeds = 1..120; }
}
"#;

const CLEAN: &str = r#"
campaign "bench-clean" {
  sites { count = 2; }
  run   { steps = 8; checkpoint-every = 0; }
  sweep { seeds = 1..60; }
}
"#;

const DROP: &str = r#"
campaign "bench-drop" {
  sites  { count = 2; }
  faults { drop "coordinator" -> "site-000" at step 2 phase propose; }
  run    { steps = 8; checkpoint-every = 0; policy = full; }
  sweep  { seeds = 1..60; }
}
"#;

/// Timed sweeps; the record keeps their median and best.
const REPEATS: usize = 5;

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let docs: Vec<ScenarioDoc> = [RESET, CLEAN, DROP]
        .iter()
        .map(|src| ScenarioDoc::parse(src).expect("bench scenario parses"))
        .collect();
    let config = CampaignConfig {
        workers: 8,
        slice_steps: 16,
        queue_capacity: 32,
    };

    let mut wall_ms = Vec::with_capacity(REPEATS);
    let mut first: Option<CampaignReport> = None;
    for _ in 0..REPEATS {
        let started = Instant::now();
        let report = run_campaign(&docs, &config).expect("campaign runs");
        wall_ms.push(started.elapsed().as_secs_f64() * 1e3);
        // Determinism gate: every same-seed sweep must reproduce the first
        // one's verdict table and corpus digest byte-for-byte.
        match &first {
            None => first = Some(report),
            Some(first) => {
                assert_eq!(
                    first.verdict_table(),
                    report.verdict_table(),
                    "same-seed sweeps must be byte-identical"
                );
                assert_eq!(first.corpus_digest, report.corpus_digest);
            }
        }
    }
    let report = first.expect("at least one sweep ran");
    wall_ms.sort_by(f64::total_cmp);
    let (best_ms, median_ms) = (wall_ms[0], wall_ms[REPEATS / 2]);

    let runs = report.verdicts.len();
    let runs_per_sec = |ms: f64| runs as f64 / (ms / 1e3);
    let unique = report.unique_signatures();
    // 240 archived runs over N distinct signatures: the corpus keeps one
    // novel entry per signature, everything else is a reproduction.
    let novel = report.entries.iter().filter(|e| e.novel).count();
    let dedup_ratio = runs as f64 / unique.max(1) as f64;

    assert_eq!(runs, 240, "matrix expands to 240 cells");
    assert_eq!(report.entries.len(), runs, "every run archived");
    assert_eq!(novel, unique, "one novel corpus entry per signature");
    assert!(
        unique <= 4,
        "failure classes collapsed ({unique} signatures)"
    );

    eprintln!(
        "campaign_sweep: {runs} runs, {REPEATS} sweeps: median {median_ms:.2} ms \
         ({:.1} runs/s through the portal), best {best_ms:.2} ms ({:.1} runs/s)",
        runs_per_sec(median_ms),
        runs_per_sec(best_ms),
    );
    eprintln!(
        "campaign_sweep: {unique} unique signatures, {novel} novel corpus entries, dedup ratio {dedup_ratio:.1}x, {} QueueFull retries",
        report.queue_full_retries
    );

    let doc = serde_json::json!({
        "bench": "campaign_sweep",
        "nproc": nproc,
        "runs": runs,
        "steps_per_run": 8,
        "workers": config.workers,
        "repeats": REPEATS,
        "median_wall_clock_ms": median_ms,
        "best_wall_clock_ms": best_ms,
        "median_runs_per_sec": runs_per_sec(median_ms),
        "best_runs_per_sec": runs_per_sec(best_ms),
        "unique_signatures": unique,
        "novel_corpus_entries": novel,
        "corpus_dedup_ratio": dedup_ratio,
        "queue_full_retries": report.queue_full_retries,
        "ticks": report.ticks,
        "corpus_digest": report.corpus_digest,
        "deterministic_rerun": true,
    });
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(out, serde_json::to_string_pretty(&doc).expect("serialize"))
        .expect("write BENCH_campaign.json");
    eprintln!("campaign_sweep: wrote {out}");
}
