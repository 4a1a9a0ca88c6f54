//! Campaign sweeps — scenario matrices through the portal.
//!
//! Two sweeps, each driven through the portal's admission queue and worker
//! pool, every trace signed and every run archived into the
//! content-addressed corpus:
//!
//! * **matrix**: three DSL scenarios (a deterministic mid-run reset, a
//!   clean control, and a recoverable drop) expanded into a 240-cell
//!   (scenario × seed) matrix of two-site, 8-step runs. Their traces are
//!   tens of KB, so this sweep measures admission, scheduling and per-run
//!   setup, and 240 runs that collapse to a handful of signatures are the
//!   point of a regression corpus.
//! * **scenarios**: the committed `scenarios/*.scn`, 34 runs with the
//!   default pool, the inputs of perfbench's `campaign` workload: lossy
//!   WANs, a worker kill and checkpoint resume, and the two 1,500-step MOST
//!   runs, about 9 MB of trace in all, so this sweep also measures the
//!   trace path (export, archive, read back, sign, corpus).
//!
//! Each round runs both sweeps, in an order that rotates from round to
//! round (the host this was tuned on slows by up to 1.8x for seconds at a
//! time). `BENCH_campaign.json` gets the median and best runs/sec of each
//! (wall clock) with the host's core count and the repeats, and the
//! matrix's unique failure-signature count and corpus dedup ratio. Asserts
//! every same-seed sweep reproduces its first run's verdict table and
//! corpus digest byte-for-byte.

use std::time::Instant;

use neesgrid_bench::{best_and_median, cores, write_record};
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

/// Timed rounds; each runs both sweeps, and the record keeps each one's
/// median and best.
const REPEATS: usize = 5;

/// One sweep's scenarios, its pool, and what its timed runs gave.
struct Sweep {
    name: &'static str,
    docs: Vec<ScenarioDoc>,
    config: CampaignConfig,
    wall_ms: Vec<f64>,
    first: Option<CampaignReport>,
}

impl Sweep {
    fn new(name: &'static str, docs: Vec<ScenarioDoc>, config: CampaignConfig) -> Self {
        Sweep {
            name,
            docs,
            config,
            wall_ms: Vec::with_capacity(REPEATS),
            first: None,
        }
    }

    fn run(&mut self) {
        let started = Instant::now();
        let report = run_campaign(&self.docs, &self.config).expect("campaign runs");
        self.wall_ms.push(started.elapsed().as_secs_f64() * 1e3);
        // Determinism gate: every same-seed sweep must reproduce the first
        // one's verdict table and corpus digest byte-for-byte.
        match &self.first {
            None => self.first = Some(report),
            Some(first) => {
                assert_eq!(
                    first.verdict_table(),
                    report.verdict_table(),
                    "same-seed {} sweeps must be byte-identical",
                    self.name
                );
                assert_eq!(first.corpus_digest, report.corpus_digest);
            }
        }
    }
}

/// The committed `scenarios/*.scn`, in file-name order.
fn committed_scenarios() -> Vec<ScenarioDoc> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenario directory is readable")
        .map(|e| e.expect("scenario entry is readable").path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).expect("scenario file is readable");
            ScenarioDoc::parse(&src).expect("committed scenario parses")
        })
        .collect()
}

fn main() {
    let nproc = cores();
    let docs: Vec<ScenarioDoc> = [RESET, CLEAN, DROP]
        .iter()
        .map(|src| ScenarioDoc::parse(src).expect("bench scenario parses"))
        .collect();
    let config = CampaignConfig {
        workers: 8,
        slice_steps: 16,
        queue_capacity: 32,
    };
    let mut sweeps = [
        Sweep::new("matrix", docs, config.clone()),
        Sweep::new(
            "scenarios",
            committed_scenarios(),
            CampaignConfig::default(),
        ),
    ];
    for round in 0..REPEATS {
        for k in 0..sweeps.len() {
            sweeps[(round + k) % sweeps.len()].run();
        }
    }
    let [matrix, committed] = sweeps;

    let (best_ms, median_ms) = best_and_median(matrix.wall_ms);
    let report = matrix.first.expect("at least one sweep ran");
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

    let (scn_best_ms, scn_median_ms) = best_and_median(committed.wall_ms);
    let scn_config = committed.config;
    let scn = committed.first.expect("at least one sweep ran");
    let scn_runs = scn.verdicts.len();
    let scn_runs_per_sec = |ms: f64| scn_runs as f64 / (ms / 1e3);
    let trace_bytes: u64 = scn
        .entries
        .iter()
        .flat_map(|e| &e.artifacts)
        .filter(|a| a.logical.ends_with("/trace.jsonl"))
        .map(|a| a.total_len)
        .sum();
    assert_eq!(scn_runs, scn.entries.len(), "every committed run archived");
    eprintln!(
        "campaign_sweep: scenarios/*.scn, {scn_runs} runs ({:.1} MB of trace), {REPEATS} sweeps: \
         median {scn_median_ms:.2} ms ({:.1} runs/s), best {scn_best_ms:.2} ms ({:.1} runs/s)",
        trace_bytes as f64 / 1e6,
        scn_runs_per_sec(scn_median_ms),
        scn_runs_per_sec(scn_best_ms),
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
        "scenarios": {
            "inputs": "scenarios/*.scn",
            "runs": scn_runs,
            "workers": scn_config.workers,
            "trace_bytes": trace_bytes,
            "median_wall_clock_ms": scn_median_ms,
            "best_wall_clock_ms": scn_best_ms,
            "median_runs_per_sec": scn_runs_per_sec(scn_median_ms),
            "best_runs_per_sec": scn_runs_per_sec(scn_best_ms),
            "unique_signatures": scn.unique_signatures(),
            "corpus_digest": scn.corpus_digest,
            "store_digest": format!("{:08x}", scn.archive.cas().store_digest()),
        },
    });
    write_record("campaign_sweep", "campaign", &doc);
}
