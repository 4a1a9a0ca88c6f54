//! Crash-and-restart: the §3.4 public run, checkpointed every 100 steps,
//! killed at step 1493 by the fault schedule, then resumed by a freshly
//! built deployment from the last snapshot and run to completion.
//!
//! ```bash
//! cargo run --release --example checkpoint_resume
//! ```

use std::sync::Arc;

use neesgrid::checkpoint::{CheckpointPolicy, CheckpointStore, RepoCheckpointStore};
use neesgrid::coordinator::{FaultPolicy, Termination};
use neesgrid::most::{public_run_fault_plan, MostConfig, MostDeployment};
use neesgrid::repo::VirtualStore;

const RUN_ID: &str = "most-public";
const PREFIX: &str = "/experiments/most";

fn checkpoint_store(backing: &VirtualStore, d: &MostDeployment) -> Arc<dyn CheckpointStore> {
    Arc::new(RepoCheckpointStore::new(backing.clone(), d.clock(), PREFIX))
}

fn main() {
    let config = MostConfig::simulation_only();
    // The repository's backing store outlives each deployment — this is
    // what survives the crash.
    let backing = VirtualStore::new();

    println!("=== The doomed run (checkpointed every 100 steps) ===");
    let deployment = MostDeployment::build_with_store(config.clone(), 0, backing.clone());
    deployment.set_fault_plan(public_run_fault_plan(config.steps));
    let store = checkpoint_store(&backing, &deployment);
    let crashed = deployment.run_with_checkpoints(
        FaultPolicy::Partial,
        RUN_ID,
        CheckpointPolicy::every(100),
        store,
    );
    match &crashed.outcome.termination {
        Termination::Aborted { step, site, error } => {
            println!("  died at step       : {step} ({site}: {error})")
        }
        Termination::Completed => println!("  completed — unexpected for this schedule"),
    }
    println!(
        "  checkpoints saved  : {}",
        crashed.outcome.log.checkpoints_saved()
    );
    let snapshots = backing.list(&format!("{PREFIX}/{RUN_ID}/checkpoints/"));
    println!(
        "  snapshots at rest  : {} (latest: {})",
        snapshots.len(),
        snapshots.last().map(String::as_str).unwrap_or("none")
    );
    let contents: Vec<_> = snapshots
        .iter()
        .filter_map(|path| backing.get(path))
        .map(|file| file.content)
        .collect();
    println!(
        "  bytes at rest      : {}",
        contents.iter().map(|c| c.len()).sum::<usize>()
    );
    if let Some(latest) = contents.last() {
        let header = latest.split(|&b| b == b'\n').next().unwrap_or_default();
        println!("  latest snapshot    : {} bytes", latest.len());
        println!("  latest header      : {}", String::from_utf8_lossy(header));
    }

    println!("=== Crash and restart: a fresh deployment resumes ===");
    let deployment = MostDeployment::build_with_store(config.clone(), 0, backing.clone());
    let store = checkpoint_store(&backing, &deployment);
    let resumed = deployment
        .resume_latest(
            FaultPolicy::Full {
                max_step_retries: 3,
            },
            RUN_ID,
            store,
        )
        .expect("resume from the latest snapshot");
    println!(
        "  steps completed    : {}/{}",
        resumed.outcome.steps_completed(),
        config.steps
    );

    println!("=== Against a run that never crashed ===");
    let baseline = MostDeployment::build(config, 0).run(FaultPolicy::Full {
        max_step_retries: 3,
    });
    let diff = resumed
        .outcome
        .history
        .max_displacement_difference(&baseline.outcome.history);
    println!("  max |Δdisplacement|: {diff:e} m");
    println!(
        "  bit-identical      : {}",
        resumed.outcome.history == baseline.outcome.history
    );
}
