//! E9 — §3.4's results, at full scale.
//!
//! Runs the complete 1,500-step MOST experiment twice, exactly as the
//! paper reports: the dry run completes 1500/1500 with transient network
//! failures recovered along the way; the public run — same deployment,
//! 130+ remote participants, the coordinator's incomplete fault handling —
//! terminates prematurely at step 1493 on a final link reset.

use neesgrid::coordinator::Termination;
use neesgrid::daq::TimeSeries;
use neesgrid::gridsim::{FaultPlan, LinkKey};
use neesgrid::most::{
    MostConfig, MostDeployment, MostRunArtifacts, Scenario, ViewerCatch, VIEWER_BUFFER,
};
use neesgrid::repo::{Nfms, VirtualStore};

/// Every one of `viewers` participants caught the last `VIEWER_BUFFER`
/// of the `published` samples and lost the rest to its ring: the crowd is
/// drained after the run, not while it streams.
fn assert_crowd_caught_the_tail(artifacts: &MostRunArtifacts, viewers: usize, published: u64) {
    assert_eq!(artifacts.nsds_published, published);
    let each = ViewerCatch {
        received: VIEWER_BUFFER as u64,
        dropped: published - VIEWER_BUFFER as u64,
        feed_errors: 0,
    };
    assert_eq!(artifacts.viewers, vec![each; viewers]);
}

#[test]
fn dry_run_completes_all_1500_steps() {
    let artifacts = Scenario::DryRun.run();
    assert_eq!(artifacts.outcome.steps_requested, 1500);
    assert_eq!(artifacts.outcome.steps_completed(), 1500);
    assert!(matches!(
        artifacts.outcome.termination,
        Termination::Completed
    ));
    // "several transient network failures throughout the day" recovered.
    assert!(
        artifacts.report.transient_recoveries >= 4,
        "recoveries: {}",
        artifacts.report.transient_recoveries
    );
    // Physical actuation dominates duration: hours of virtual time.
    assert!(
        artifacts.report.virtual_duration.as_secs_f64() > 600.0,
        "virtual duration {}",
        artifacts.report.virtual_duration
    );
    // Data was archived incrementally throughout.
    assert!(
        artifacts.files_ingested >= 10,
        "files: {}",
        artifacts.files_ingested
    );
    assert!(artifacts.bytes_ingested > 0);
    // 8 developers watched: each holds 8,192 of the 12,000 samples.
    assert_eq!(VIEWER_BUFFER, 8192);
    assert_crowd_caught_the_tail(&artifacts, 8, 12_000);
    assert_eq!(artifacts.viewers[0].dropped, 3_808);
}

#[test]
fn public_run_terminates_at_step_1493_of_1500() {
    let artifacts = Scenario::PublicRun.run();
    assert_eq!(artifacts.outcome.steps_requested, 1500);
    assert_eq!(
        artifacts.outcome.steps_completed(),
        1493,
        "the paper's premature exit, reproduced"
    );
    match &artifacts.outcome.termination {
        Termination::Aborted { step, site, error } => {
            assert_eq!(*step, 1493);
            assert_eq!(site, "cu");
            assert!(error.contains("link reset"), "fatal error: {error}");
        }
        other => panic!("expected premature termination, got {other:?}"),
    }
    // Transient failures earlier in the day were survived.
    assert!(artifacts.report.transient_recoveries >= 4);
    // "over 130 remote participants logged on to observe MOST".
    assert!(artifacts.participants >= 130);
    // The streams reached them: each viewer holds the last 8,192 of the
    // 11,944 samples and dropped 3,752.
    assert_crowd_caught_the_tail(&artifacts, 132, 11_944);
    assert_eq!(artifacts.viewers[0].dropped, 3_752);
}

#[test]
fn dry_and_public_runs_agree_until_the_failure() {
    // Same physics, same motion, same transient faults — the two §3.4 runs
    // must produce identical displacement histories up to step 1493.
    // (Uses scaled runs to keep the double execution cheap.)
    let dry = Scenario::DryRun.run_with_steps(300);
    let public = Scenario::PublicRun.run_with_steps(300);
    let completed = public.outcome.steps_completed();
    assert!(completed < 300);
    let mut max_diff = 0.0f64;
    for n in 0..completed {
        for d in 0..2 {
            let a = dry.outcome.history.displacement[n][d];
            let b = public.outcome.history.displacement[n][d];
            max_diff = max_diff.max((a - b).abs());
        }
    }
    // Physical-site sensor noise is seeded identically; histories match to
    // measurement noise, far under a micrometer of drift here.
    assert!(max_diff < 5e-5, "histories diverged by {max_diff}");
}

#[test]
fn simulation_only_rehearsal_is_exact() {
    let config = MostConfig::simulation_only().with_steps(200);
    let artifacts = Scenario::SimulationOnly.run_with_steps(200);
    assert_eq!(artifacts.outcome.steps_completed(), 200);
    let reference = neesgrid::most::reference_history(&config);
    let diff = artifacts
        .outcome
        .history
        .max_displacement_difference(&reference);
    assert!(diff < 1e-12, "rehearsal vs reference: {diff}");
}

#[test]
fn an_ingest_that_fails_is_retried_and_every_window_lands_once() {
    // Four drops in a row on the ingester's repository link exhaust one
    // call's retries: a commit (or, before the stripe path, an upload).
    let mut plan = FaultPlan::reliable();
    for index in 36..40 {
        plan.drop_at(LinkKey::new("coordinator", "repository"), index);
    }
    let store = VirtualStore::new();
    let deployment =
        MostDeployment::build_with_store(MostConfig::simulation_only(), 0, store.clone());
    deployment.set_fault_plan(plan);
    let artifacts = deployment.run(Scenario::SimulationOnly.policy());
    assert_eq!(artifacts.outcome.steps_completed(), 1500);
    // 15 windows of six channels, each named once in the catalog and
    // shipped once.
    let nfms = Nfms::new(store);
    let archived = nfms.list("/experiments/most/data/");
    assert_eq!((archived.len(), artifacts.files_ingested), (90, 90));
    assert!(archived.iter().all(|name| nfms.cas().read(name).is_ok()));
}

#[test]
fn each_daq_row_holds_the_measurement_in_effect_at_its_time() {
    let deployment = MostDeployment::build(MostConfig::simulation_only().with_steps(300), 0);
    let measured = deployment.nsds.subscribe("uiuc/*", 4096);
    let store = deployment.store().clone();
    deployment.run(Scenario::SimulationOnly.policy());
    // UIUC's one control point: the displacement its LVDT channel logs.
    let mut measured = measured.take(usize::MAX);
    measured.retain(|m| m.channel.ends_with("/disp"));
    assert_eq!(measured.len(), 300);
    let csv = Nfms::new(store)
        .cas()
        .read("/experiments/most/data/uiuc-lvdt-000001.csv")
        .unwrap();
    let window = TimeSeries::from_csv(std::str::from_utf8(&csv).unwrap()).unwrap();
    assert!(window.len() > 10, "{} rows", window.len());
    for row in &window.samples {
        let held = measured
            .iter()
            .rev()
            .find(|m| m.t <= row.t)
            .expect("a measurement precedes every row");
        // Rows are written with 13 significant digits.
        let logged: f64 = format!("{:.12e}", held.value).parse().unwrap();
        assert_eq!(row.value, logged, "row at {:?}", row.t);
    }
    let values: std::collections::BTreeSet<u64> =
        window.samples.iter().map(|s| s.value.to_bits()).collect();
    assert!(values.len() > 1, "the structure moved, the log stood still");
}
