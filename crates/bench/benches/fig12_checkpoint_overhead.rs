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
//! 1493 — with and without checkpoints, and writes
//! `BENCH_checkpoint.json` at the repo root: the best and median of every
//! run, the core count, the repeats, the snapshots left at rest and their
//! bytes, and the checkpoint cost per snapshot and per MB of snapshot (from
//! the medians).

use std::sync::Arc;

use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record, Stopwatch};
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

/// Timed rounds of every run.
const REPEATS: usize = 6;
const RUN_ID: &str = "most-public";
const PREFIX: &str = "/experiments/most";

/// Cadences of the scaled runs: none, then every 1, 10 and 100 steps.
const CADENCES: [Option<u64>; 4] = [None, Some(1), Some(10), Some(100)];

/// The `checkpoint_resume` schedule's doomed run, timed by `watch`, with or
/// without checkpoints: the snapshots it left at rest (count, bytes).
fn public_run(watch: &mut Stopwatch, checkpointed: bool) -> (usize, usize) {
    let config = MostConfig::simulation_only();
    let backing = VirtualStore::new();
    let deployment = MostDeployment::build_with_store(config.clone(), 0, backing.clone());
    deployment.set_fault_plan(public_run_fault_plan(config.steps));
    let store = Arc::new(RepoCheckpointStore::new(
        backing.clone(),
        deployment.clock(),
        PREFIX,
    ));
    let artifacts = watch.time(|| {
        if checkpointed {
            deployment.run_with_checkpoints(
                FaultPolicy::Partial,
                RUN_ID,
                CheckpointPolicy::every(100),
                store,
            )
        } else {
            deployment.run(FaultPolicy::Partial)
        }
    });
    assert_eq!(artifacts.outcome.steps_completed(), 1493);
    let snapshots = backing.list(&format!("{PREFIX}/{RUN_ID}/checkpoints/"));
    let bytes = snapshots
        .iter()
        .filter_map(|path| backing.get(path))
        .map(|file| file.content.len())
        .sum();
    (snapshots.len(), bytes)
}

fn main() {
    let nproc = cores();
    let (mut snapshots, mut bytes) = (0, 0);
    let timings = time_cases(REPEATS, CADENCES.len() + 2, |case, watch| match case {
        i if i < CADENCES.len() => {
            let steps = watch.time(|| run_once(CADENCES[i]));
            assert_eq!(steps, SCALED_STEPS);
        }
        4 => drop(public_run(watch, false)),
        _ => (snapshots, bytes) = public_run(watch, true),
    });
    let ms = |(best, median): (f64, f64)| (best * 1e3, median * 1e3);
    let (plain_ms, median_plain_ms) = ms(timings[4]);
    let (checkpointed_ms, median_checkpointed_ms) = ms(timings[5]);
    let cost_ms = median_checkpointed_ms - median_plain_ms;
    let ms_per_mb = cost_ms / (bytes as f64 / 1e6);
    eprintln!(
        "checkpoint_resume schedule, {REPEATS} runs each: no checkpoints best {plain_ms:.1} \
         median {median_plain_ms:.1} ms; every 100 best {checkpointed_ms:.1} median \
         {median_checkpointed_ms:.1} ms; {snapshots} snapshots, {bytes} B, \
         {ms_per_mb:.1} ms/MB, {nproc} cores"
    );
    let mut doc = serde_json::json!({
        "bench": "fig12_checkpoint_overhead",
        "schedule": "checkpoint_resume: MOST public run, 1500 steps, every 100, killed at 1493",
        "scaled": "MOST simulation-only run, 100 steps, full fault policy, snapshots in memory",
        "scaled_steps": SCALED_STEPS,
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
    for (cadence, timing) in CADENCES.iter().zip(timings) {
        let key = match cadence {
            None => "scaled_uncheckpointed_ms".to_string(),
            Some(n) => format!("scaled_every_{n}_ms"),
        };
        let (best, median) = ms(timing);
        eprintln!("fig12: {key:<26} best {best:>7.2}, median {median:>7.2}");
        put_best_and_median(&mut doc, &key, (best, median));
    }
    write_record("fig12_checkpoint_overhead", "checkpoint", &doc);
}
