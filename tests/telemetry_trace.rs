//! E16 — telemetry: deterministic traces and the step-1493 flight report.
//!
//! Three properties the `neesgrid-telemetry` crate promises:
//!
//! 1. An instrumented run is deterministic: two runs with the same seed
//!    export byte-identical trace JSONL — the N-site experiment and the
//!    paper's own MOST deployment alike.
//! 2. Replaying the public run's fault schedule produces a flight-recorder
//!    dump that names the faulted link and the in-flight NTCP transaction —
//!    the post-mortem the 2004 operators did by hand.
//! 3. A crashed run's trace and its checkpoint-resumed continuation merge
//!    into one logical trace with no duplicate transaction spans.
//! 4. A flight dump's recent-event windows are the tail of the trace log,
//!    per subsystem.

use std::collections::HashMap;
use std::sync::Arc;

use neesgrid::checkpoint::{CheckpointPolicy, CheckpointStore, RepoCheckpointStore};
use neesgrid::coordinator::{FaultPolicy, Termination};
use neesgrid::gridsim::{FaultPlan, LinkKey};
use neesgrid::most::{
    n_site_with_telemetry, public_run_fault_plan, MostConfig, MostDeployment, Scenario,
};
use neesgrid::repo::VirtualStore;
use neesgrid::telemetry::{merge_resumed, render_report, FieldList, Telemetry};
use proptest::prelude::*;
use serde_json::Value;

#[test]
fn same_seed_runs_export_byte_identical_traces() {
    let trace = |seed: u64| {
        let telemetry = Telemetry::recording();
        let experiment = n_site_with_telemetry(4, seed, telemetry.clone());
        let outcome = experiment.run(40);
        assert_eq!(outcome.steps_completed(), 40);
        telemetry.export_jsonl()
    };
    let a = trace(0xABCD);
    let b = trace(0xABCD);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed instrumented runs must trace identically");
    // The trace covers the whole stack: network, RPC, NTCP, coordinator.
    for marker in [
        "link.delivered",
        "net.latency_ns",
        "\"sub\":\"rpc\"",
        "\"sub\":\"ntcp\"",
        "\"sub\":\"coordinator\"",
        "\"kind\":\"counter\"",
        "\"kind\":\"histogram\"",
    ] {
        assert!(a.contains(marker), "trace missing {marker}");
    }
    // A different seed genuinely changes the trace (the check above is not
    // comparing two empties or two constants).
    let c = trace(0x1234);
    assert_ne!(a, c);

    // The MOST deployment joins the oracle: Mplugin backends, actuator
    // rigs, the portal crowd and repository ingestion, all on the engine.
    let most = |scenario: Scenario, steps: usize| {
        let telemetry = Telemetry::recording();
        let deployment = MostDeployment::build_with_telemetry(
            scenario.config().with_steps(steps),
            scenario.participants(),
            telemetry.clone(),
        );
        deployment.set_fault_plan(scenario.fault_plan(steps));
        let artifacts = deployment.run(scenario.policy());
        (
            telemetry.export_jsonl(),
            artifacts.report.virtual_duration,
            artifacts.bytes_ingested,
        )
    };
    for (scenario, steps) in [(Scenario::DryRun, 300), (Scenario::PublicRun, 150)] {
        let (trace_a, virtual_a, bytes_a) = most(scenario, steps);
        let (trace_b, virtual_b, bytes_b) = most(scenario, steps);
        assert!(trace_a.contains("\"sub\":\"ntcp\""), "{scenario:?} trace");
        assert!(
            trace_a == trace_b,
            "{scenario:?}: same-configuration MOST runs must trace identically"
        );
        assert_eq!(virtual_a, virtual_b, "{scenario:?}: virtual duration");
        assert_eq!(bytes_a, bytes_b, "{scenario:?}: bytes archived");
    }
}

#[test]
fn public_run_flight_dump_names_the_faulted_link_and_transaction() {
    let steps = 150; // 150 · 1493/1500 = 149: the proportional fatal step
    let config = MostConfig::simulation_only().with_steps(steps);
    let telemetry = Telemetry::recording();
    let deployment = MostDeployment::build_with_telemetry(config, 0, telemetry.clone());
    deployment.set_fault_plan(public_run_fault_plan(steps));
    let artifacts = deployment.run(FaultPolicy::Partial);

    match &artifacts.outcome.termination {
        Termination::Aborted { step, site, .. } => {
            assert_eq!(*step, 149);
            assert_eq!(site, "cu");
        }
        other => panic!("expected the public-run abort, got {other:?}"),
    }

    let dumps = telemetry.dumps();
    assert!(!dumps.is_empty(), "the abort must trigger a flight dump");
    let all = dumps.join("\n");
    // The faulted link, by name…
    assert!(all.contains("coordinator->cu"), "dump:\n{all}");
    // …the transaction that was in flight when it died…
    assert!(all.contains("step-000149"), "dump:\n{all}");
    // …and the coordinator's own post-mortem with step and site.
    assert!(
        dumps
            .iter()
            .any(|d| d.contains("aborted at step 149") && d.contains("cu")),
        "dump:\n{all}"
    );

    // The rendered report tells the same story.
    let report = render_report(&telemetry.export_jsonl()).expect("trace renders");
    assert!(report.contains("ABORTED at step 149 site cu"), "{report}");
}

/// One dump section per subsystem: its name, the count its header
/// states, and the sequence numbers of the events it lists.
type Window = (String, usize, Vec<u64>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every "recent X events" section of a dump is the last min(128, n)
    /// events of X, with subsystems in name order — checked against a
    /// brute-force filter of the log.
    #[test]
    fn flight_dump_windows_are_each_subsystems_last_events(
        early in 1usize..40,
        picks in proptest::collection::vec(0usize..8, 300..700),
    ) {
        // "net" takes half the picks, so it is seen more than 128 times;
        // "checkpoint" only among the first `early` events.
        const SUBSYSTEMS: [&str; 8] =
            ["net", "net", "net", "net", "ntcp", "rpc", "coordinator", "checkpoint"];
        let log: Vec<&'static str> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| match SUBSYSTEMS[pick] {
                _ if i == 0 => "checkpoint",
                "checkpoint" if i >= early => "rpc",
                subsystem => subsystem,
            })
            .collect();
        let telemetry = Telemetry::recording();
        for (t, subsystem) in log.iter().enumerate() {
            telemetry.instant(t as u64, subsystem, "event", FieldList::new());
        }
        let dump = telemetry.flight_dump(log.len() as u64, "check").expect("recording");

        let mut names = log.clone();
        names.sort_unstable();
        names.dedup();
        let expected: Vec<Window> = names
            .iter()
            .map(|name| {
                let seqs: Vec<u64> = (0..log.len())
                    .filter(|&seq| log[seq] == *name)
                    .map(|seq| seq as u64)
                    .collect();
                let tail = seqs[seqs.len().saturating_sub(128)..].to_vec();
                (name.to_string(), tail.len(), tail)
            })
            .collect();
        let mut got: Vec<Window> = Vec::new();
        for line in dump.lines() {
            if let Some(header) = line.strip_prefix("-- recent ") {
                let (name, rest) = header.split_once(" events (last ").expect("header");
                let count = rest.strip_suffix(" of ring) --").expect("header");
                got.push((name.to_string(), count.parse().expect("count"), Vec::new()));
            } else if let (Some((_, _, seqs)), Some((_, after))) =
                (got.last_mut(), line.split_once(" seq="))
            {
                let seq = after.split_whitespace().next().expect("seq");
                seqs.push(seq.parse().expect("seq"));
            }
        }
        prop_assert_eq!(got, expected);
        prop_assert!(log.iter().filter(|s| **s == "net").count() > 128);
    }
}

#[test]
fn merged_crash_and_resume_trace_has_no_duplicate_transaction_spans() {
    const RUN_ID: &str = "most-traced";
    let config = MostConfig::simulation_only().with_steps(300);
    let backing = VirtualStore::new();
    let ckpt_store = |backing: &VirtualStore, deployment: &MostDeployment| {
        Arc::new(RepoCheckpointStore::new(
            backing.clone(),
            deployment.clock(),
            "/experiments/most",
        )) as Arc<dyn CheckpointStore>
    };

    // Crash at step 250 (propose request 2·250 on coordinator→cu reset),
    // with checkpoints every 100 steps.
    let crashed_telemetry = Telemetry::recording();
    let crashed = {
        let deployment = MostDeployment::build_full(
            config.clone(),
            0,
            backing.clone(),
            crashed_telemetry.clone(),
        );
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("coordinator", "cu"), 2 * 250);
        deployment.set_fault_plan(plan);
        let store = ckpt_store(&backing, &deployment);
        deployment.run_with_checkpoints(
            FaultPolicy::Partial,
            RUN_ID,
            CheckpointPolicy::every(100),
            store,
        )
    };
    assert_eq!(crashed.outcome.steps_completed(), 250);

    // Resume from the step-200 snapshot on a fresh instrumented deployment.
    let resumed_telemetry = Telemetry::recording();
    let resumed = {
        let deployment = MostDeployment::build_full(
            config.clone(),
            0,
            backing.clone(),
            resumed_telemetry.clone(),
        );
        let store = ckpt_store(&backing, &deployment);
        deployment
            .resume_latest(
                FaultPolicy::Full {
                    max_step_retries: 3,
                },
                RUN_ID,
                store,
            )
            .expect("resume from the step-200 snapshot")
    };
    assert_eq!(resumed.outcome.steps_completed(), 300);

    // Steps 200..250 ran in both deployments; the merge must keep exactly
    // one copy of every NTCP transaction span.
    let merged = merge_resumed(
        &crashed_telemetry.export_jsonl(),
        &resumed_telemetry.export_jsonl(),
    )
    .expect("resumed trace carries a coordinator/resume event");
    let mut spans: HashMap<(String, String, String), u32> = HashMap::new();
    for line in merged.lines() {
        let Ok(doc) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        if doc["kind"] != "span_start" || doc["sub"] != "ntcp" {
            continue;
        }
        let text = |v: &Value| v.as_str().unwrap_or_default().to_string();
        let fields = &doc["fields"];
        *spans
            .entry((
                text(&fields["site"]),
                text(&doc["name"]),
                text(&fields["tx"]),
            ))
            .or_insert(0) += 1;
    }
    assert!(!spans.is_empty(), "merged trace has NTCP lifecycle spans");
    for (key, count) in &spans {
        assert_eq!(
            *count, 1,
            "transaction span duplicated after merge: {key:?}"
        );
    }
    // Both halves contributed: pre-crash steps from the primary, the
    // replayed-and-beyond steps from the resumed run.
    assert!(spans.keys().any(|(_, _, tx)| tx.starts_with("step-000050")));
    assert!(spans.keys().any(|(_, _, tx)| tx.starts_with("step-000299")));
}
