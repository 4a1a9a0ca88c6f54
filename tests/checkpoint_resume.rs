//! E15 — surviving the step-1493 failure.
//!
//! §3.4's public run died at step 1493 of 1500 because the coordinator
//! "had not been coded to take advantage of all the fault-tolerance
//! features". The checkpoint subsystem is the missing piece: the run is
//! snapshotted every 100 steps into the same repository store the data
//! files ship to, the crash tears the whole deployment down, and a fresh
//! deployment resumes from the last snapshot and finishes all 1,500 steps
//! — with a post-resume trajectory bit-identical to a run that never
//! crashed.

use std::sync::Arc;

use bytes::Bytes;
use neesgrid::checkpoint::{
    CheckpointError, CheckpointPolicy, CheckpointStore, RepoCheckpointStore,
};
use neesgrid::coordinator::{EventKind, FaultPolicy, Termination};
use neesgrid::gridsim::SimTime;
use neesgrid::most::{public_run_fault_plan, MostConfig, MostDeployment};
use neesgrid::repo::{Nfms, VirtualStore};
use neesgrid::telemetry::Telemetry;
use serde_json::Value;

const RUN_ID: &str = "most-public";
const CKPT_PREFIX: &str = "/experiments/most";

fn repo_checkpoint_store(
    backing: &VirtualStore,
    deployment: &MostDeployment,
) -> Arc<dyn CheckpointStore> {
    Arc::new(RepoCheckpointStore::new(
        backing.clone(),
        deployment.clock(),
        CKPT_PREFIX,
    ))
}

#[test]
fn run_killed_at_step_1493_resumes_and_finishes_bit_identically() {
    let config = MostConfig::simulation_only();
    assert_eq!(config.steps, 1500);
    let backing = VirtualStore::new();

    // --- The doomed run: public-run fault schedule, the incomplete fault
    // policy, checkpoints every 100 steps into the repository store.
    let crashed = {
        let deployment = MostDeployment::build_with_store(config.clone(), 0, backing.clone());
        deployment.set_fault_plan(public_run_fault_plan(config.steps));
        let store = repo_checkpoint_store(&backing, &deployment);
        deployment.run_with_checkpoints(
            FaultPolicy::Partial,
            RUN_ID,
            CheckpointPolicy::every(100),
            store,
        )
    };
    assert_eq!(crashed.outcome.steps_completed(), 1493);
    assert!(matches!(
        crashed.outcome.termination,
        Termination::Aborted { step: 1493, .. }
    ));
    // Snapshots landed at every 100-step boundary the run reached.
    assert_eq!(crashed.outcome.log.checkpoints_saved(), 14);
    let latest = backing
        .get(&format!(
            "{CKPT_PREFIX}/{RUN_ID}/checkpoints/step-001400.ckpt"
        ))
        .expect("the step-1400 snapshot is at rest")
        .content;
    // A site keeps only what its clients can still ask about, so the
    // snapshot is the coordinator's history and log plus a few kB of site
    // state, not every transaction since step 0.
    assert!(
        latest.len() <= 350_000,
        "step-1400 snapshot is {} B",
        latest.len()
    );
    let sites: usize = neesgrid::checkpoint::snapshot::decode(&latest)
        .expect("the snapshot decodes")
        .sites
        .iter()
        .map(|site| site.state.get().len())
        .sum();
    assert!(sites <= 16_000, "the sites' share is {sites} B");
    // The crashed run archived windows 0-13 of six channels.
    let archived = data_files(&backing);
    assert_eq!(archived.len(), 84);

    // --- Crash and restart: the deployment above is gone (consumed); a
    // brand-new one is built around the surviving repository store and
    // resumes from the latest snapshot, this time with full fault
    // tolerance and a quiet network.
    let resumed = {
        let deployment = MostDeployment::build_with_store(config.clone(), 0, backing.clone());
        let store = repo_checkpoint_store(&backing, &deployment);
        deployment
            .resume_latest(
                FaultPolicy::Full {
                    max_step_retries: 3,
                },
                RUN_ID,
                store,
            )
            .expect("resume from step-1400 snapshot")
    };
    assert_eq!(resumed.outcome.steps_completed(), 1500);
    assert!(matches!(
        resumed.outcome.termination,
        Termination::Completed
    ));
    // The restored log tail carries the pre-crash narrative, plus the
    // resume marker at the snapshot boundary.
    assert_eq!(resumed.outcome.log.checkpoints_saved(), 14);
    let resume_event = resumed
        .outcome
        .log
        .events
        .iter()
        .find(|e| e.kind == EventKind::Resumed)
        .expect("resume recorded in the experiment log");
    assert_eq!(resume_event.step, 1400);
    // The resumed run adds window 14 (steps 1400-1499) and rewrites none
    // of the crashed run's files.
    assert_eq!(resumed.files_ingested, 6);
    let after = data_files(&backing);
    let windows: std::collections::BTreeSet<_> = after
        .iter()
        .map(|(name, _)| &name[name.len() - 10..])
        .collect();
    assert_eq!((after.len(), windows.len()), (90, 15), "{windows:?}");
    assert!(archived.iter().all(|file| after.contains(file)));

    // --- Baseline: the same experiment, never interrupted.
    let baseline = MostDeployment::build(config, 0).run(FaultPolicy::Full {
        max_step_retries: 3,
    });
    assert_eq!(baseline.outcome.steps_completed(), 1500);

    // Bit-identical trajectory: every displacement and force of the
    // resumed run — including the 100 steps replayed after the restart —
    // equals the uninterrupted run's exactly.
    let diff = resumed
        .outcome
        .history
        .max_displacement_difference(&baseline.outcome.history);
    assert_eq!(diff, 0.0, "resumed trajectory drifted by {diff}");
    assert!(
        resumed.outcome.history == baseline.outcome.history,
        "resumed history not bit-identical to the uninterrupted run"
    );
}

#[test]
fn resume_refuses_a_corrupted_snapshot() {
    let config = MostConfig::simulation_only().with_steps(300);
    let backing = VirtualStore::new();

    let finished = {
        let deployment = MostDeployment::build_with_store(config.clone(), 0, backing.clone());
        let store = repo_checkpoint_store(&backing, &deployment);
        deployment.run_with_checkpoints(
            FaultPolicy::Full {
                max_step_retries: 2,
            },
            RUN_ID,
            CheckpointPolicy::every(100),
            store,
        )
    };
    assert_eq!(finished.outcome.steps_completed(), 300);

    // Flip one payload byte of the latest snapshot at rest.
    let path = format!("{CKPT_PREFIX}/{RUN_ID}/checkpoints/step-000200.ckpt");
    let mut bytes = backing
        .get(&path)
        .expect("latest snapshot")
        .content
        .to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    backing.put(&path, Bytes::from(bytes), SimTime::from_secs(1));

    let deployment = MostDeployment::build_with_store(config, 0, backing.clone());
    let store = repo_checkpoint_store(&backing, &deployment);
    match deployment.resume_latest(
        FaultPolicy::Full {
            max_step_retries: 2,
        },
        RUN_ID,
        store,
    ) {
        Err(CheckpointError::ChecksumMismatch { .. }) => {}
        Err(other) => panic!("expected checksum mismatch, got {other}"),
        Ok(_) => panic!("corrupted snapshot must be rejected"),
    }
}

#[test]
fn traced_snapshots_report_the_stored_payload_length() {
    let config = MostConfig::simulation_only().with_steps(300);
    let backing = VirtualStore::new();
    let telemetry = Telemetry::recording();
    let deployment = MostDeployment::build_full(config, 0, backing.clone(), telemetry.clone());
    let store = repo_checkpoint_store(&backing, &deployment);
    let finished = deployment.run_with_checkpoints(
        FaultPolicy::Full {
            max_step_retries: 2,
        },
        RUN_ID,
        CheckpointPolicy::every(100),
        store,
    );
    assert_eq!(finished.outcome.steps_completed(), 300);

    let mut saved = 0;
    for line in telemetry.export_jsonl().lines() {
        let event: Value = serde_json::from_str(line).expect("trace lines are JSON");
        if event["sub"] != "checkpoint" || event["name"] != "snapshot" {
            continue;
        }
        let step = event["fields"]["step"]
            .as_u64()
            .expect("instant names its step");
        let path = format!("{CKPT_PREFIX}/{RUN_ID}/checkpoints/step-{step:06}.ckpt");
        let stored = backing.get(&path).expect("snapshot is stored").content;
        let header = stored
            .iter()
            .position(|&b| b == b'\n')
            .expect("header line")
            + 1;
        assert_eq!(
            event["fields"]["bytes"].as_u64(),
            Some((stored.len() - header) as u64),
            "step {step}"
        );
        saved += 1;
    }
    assert_eq!(saved, 2, "snapshots at steps 100 and 200");
}

/// Every data file under the repository's data prefix, with its bytes.
fn data_files(backing: &VirtualStore) -> Vec<(String, Bytes)> {
    let nfms = Nfms::new(backing.clone());
    nfms.list("/experiments/most/data/")
        .into_iter()
        .map(|name| {
            let bytes = nfms.cas().read(&name).expect("archived file reads back");
            (name, bytes)
        })
        .collect()
}
