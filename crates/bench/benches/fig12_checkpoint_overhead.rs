//! Fig. 12 (extension) — checkpoint overhead.
//!
//! What would periodic checkpointing have cost the MOST run? Measures a
//! scaled simulation-only experiment with no checkpoints and with
//! every-1 / every-10 / every-100-step policies persisting full
//! coordinator + site snapshots, so the per-checkpoint cost can be read
//! off against the uninstrumented baseline. (Every 100 steps is the
//! cadence the step-1493 recovery test uses.)
//!
//! A snapshot holds every transaction and remembered reply since step 0,
//! so its size grows with the run and the 100-step runs above understate
//! the cost at full length. The bench therefore also times the
//! `checkpoint_resume` schedule itself — the §3.4 public run, 1,500 steps,
//! checkpointed every 100 into the repository store, killed at step
//! 1493 — with and without checkpoints, alternating, and writes
//! `BENCH_checkpoint.json` at the repo root: the best and median of each
//! configuration, the core count, the repeats, the snapshots left at rest
//! and their bytes, and the checkpoint cost per snapshot and per MB of
//! snapshot (from the medians).

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

use neesgrid_bench::{best_and_median, cores, write_record};
use neesgrid_checkpoint::{
    CheckpointPolicy, CheckpointStore, MemoryCheckpointStore, RepoCheckpointStore,
};
use neesgrid_coordinator::FaultPolicy;
use neesgrid_most::{public_run_fault_plan, MostConfig, MostDeployment};
use neesgrid_repo::VirtualStore;

const SCALED_STEPS: usize = 100;

fn run_once(checkpoint_every: Option<u64>) -> usize {
    let config = MostConfig::simulation_only().with_steps(SCALED_STEPS);
    let deployment = MostDeployment::build(config, 0);
    let policy = FaultPolicy::Full {
        max_step_retries: 2,
    };
    let artifacts = match checkpoint_every {
        Some(n) => {
            let store: Arc<dyn CheckpointStore> = Arc::new(MemoryCheckpointStore::new());
            deployment.run_with_checkpoints(policy, "bench", CheckpointPolicy::every(n), store)
        }
        None => deployment.run(policy),
    };
    artifacts.outcome.steps_completed()
}

fn bench_checkpoint_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_checkpoint_overhead");
    group.sample_size(10);
    group.bench_function("no_checkpoints_100_steps", |b| {
        b.iter(|| std::hint::black_box(run_once(None)))
    });
    for every in [1u64, 10, 100] {
        group.bench_with_input(BenchmarkId::new("every", every), &every, |b, &n| {
            b.iter(|| std::hint::black_box(run_once(Some(n))))
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(8))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_checkpoint_overhead
}

/// Timed runs of each configuration of the full-length schedule.
const REPEATS: usize = 6;
const RUN_ID: &str = "most-public";
const PREFIX: &str = "/experiments/most";

/// The `checkpoint_resume` schedule's doomed run: its wall time in ms,
/// and the snapshots it left at rest (count, bytes).
fn public_run(checkpointed: bool) -> (f64, usize, usize) {
    let config = MostConfig::simulation_only();
    let backing = VirtualStore::new();
    let deployment = MostDeployment::build_with_store(config.clone(), 0, backing.clone());
    deployment.set_fault_plan(public_run_fault_plan(config.steps));
    let store = Arc::new(RepoCheckpointStore::new(
        backing.clone(),
        deployment.clock(),
        PREFIX,
    ));
    let started = Instant::now();
    let artifacts = if checkpointed {
        deployment.run_with_checkpoints(
            FaultPolicy::Partial,
            RUN_ID,
            CheckpointPolicy::every(100),
            store,
        )
    } else {
        deployment.run(FaultPolicy::Partial)
    };
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(artifacts.outcome.steps_completed(), 1493);
    let snapshots = backing.list(&format!("{PREFIX}/{RUN_ID}/checkpoints/"));
    let bytes = snapshots
        .iter()
        .filter_map(|path| backing.get(path))
        .map(|file| file.content.len())
        .sum();
    (ms, snapshots.len(), bytes)
}

/// `(best, median)` of a set of wall-clock times.
fn checkpoint_resume_schedule() {
    let nproc = cores();
    // Warm-up, then alternate which configuration goes first in each pair
    // so drift and cache state hit both equally.
    public_run(false);
    public_run(true);
    let (mut plain, mut checkpointed) = (Vec::new(), Vec::new());
    let (mut snapshots, mut bytes) = (0, 0);
    for round in 0..REPEATS {
        for with_checkpoints in [round % 2 == 1, round % 2 == 0] {
            let (ms, n, b) = public_run(with_checkpoints);
            if with_checkpoints {
                checkpointed.push(ms);
                (snapshots, bytes) = (n, b);
            } else {
                plain.push(ms);
            }
        }
    }
    let (plain_ms, median_plain_ms) = best_and_median(plain);
    let (checkpointed_ms, median_checkpointed_ms) = best_and_median(checkpointed);
    let cost_ms = median_checkpointed_ms - median_plain_ms;
    let ms_per_mb = cost_ms / (bytes as f64 / 1e6);
    eprintln!(
        "checkpoint_resume schedule, {REPEATS} runs each: no checkpoints best {plain_ms:.1} \
         median {median_plain_ms:.1} ms; every 100 best {checkpointed_ms:.1} median \
         {median_checkpointed_ms:.1} ms; {snapshots} snapshots, {bytes} B, \
         {ms_per_mb:.1} ms/MB, {nproc} cores"
    );
    let doc = serde_json::json!({
        "bench": "checkpoint_overhead",
        "schedule": "checkpoint_resume: MOST public run, 1500 steps, every 100, killed at 1493",
        "nproc": nproc,
        "repeats": REPEATS,
        "uncheckpointed_ms": plain_ms,
        "checkpointed_ms": checkpointed_ms,
        "median_uncheckpointed_ms": median_plain_ms,
        "median_checkpointed_ms": median_checkpointed_ms,
        "snapshots": snapshots,
        "snapshot_bytes": bytes,
        "ms_per_snapshot": cost_ms / snapshots as f64,
        "ms_per_mb": ms_per_mb,
    });
    write_record("fig12_checkpoint_overhead", "checkpoint", &doc);
}

fn main() {
    benches();
    checkpoint_resume_schedule();
}
