//! `most`: the paper's §3.4 pair through `MostDeployment::build` — the dry
//! run (8 participants, completes 1500/1500 with transient recoveries)
//! and the public run (132 participants, dies at step 1493 on a `cu` link
//! reset). It is the only workload with channel-mode container threads,
//! Mplugin backends, actuator physics, DAQ/NSDS fan-out to CHEF viewers
//! and NFMS/NMDS ingestion. Both runs are fixed by the paper's
//! configuration, so the workload seed does not change them.

use std::time::Instant;

use neesgrid_apparatus::{
    ActuatorConfig, ControllerCommand, ControllerResponse, LoadCell, Lvdt, ServoHydraulicActuator,
    ShoreWesternController, SteelColumn,
};
use neesgrid_coordinator::{FaultPolicy, Termination};
use neesgrid_gridsim::FaultPlan;
use neesgrid_most::{MostConfig, MostDeployment, MostRunArtifacts, Scenario};

use crate::harness::{self, metric, Tally};
use crate::trace;
use crate::Outcome;

const DRY_STEPS: usize = 1500;
const PUBLIC_STEPS: usize = 1493;
/// Sites in the MOST topology (UIUC, NCSA, CU).
const SITES: usize = 3;

/// One scenario's inputs, generated before timing starts.
struct Input {
    config: MostConfig,
    participants: usize,
    plan: FaultPlan,
    policy: FaultPolicy,
}

fn input(scenario: Scenario) -> Input {
    let config = scenario.config();
    Input {
        plan: scenario.fault_plan(config.steps),
        participants: scenario.participants(),
        policy: scenario.policy(),
        config,
    }
}

fn run_scenario(name: &'static str, input: &Input) -> (MostRunArtifacts, f64) {
    let start = Instant::now();
    let artifacts = trace::span(name, || {
        let deployment = trace::span("most.build", || {
            MostDeployment::build(input.config.clone(), input.participants)
        });
        deployment.set_fault_plan(input.plan.clone());
        trace::span("most.run", || deployment.run(input.policy))
    });
    (artifacts, start.elapsed().as_secs_f64())
}

fn dry_run_ok(a: &MostRunArtifacts) -> bool {
    a.outcome.steps_completed() == DRY_STEPS
        && a.outcome.termination == Termination::Completed
        && a.report.transient_recoveries >= 4
}

fn public_run_ok(a: &MostRunArtifacts) -> bool {
    a.outcome.steps_completed() == PUBLIC_STEPS
        && a.participants == 132
        && matches!(&a.outcome.termination,
            Termination::Aborted { step, site, error }
                if *step == PUBLIC_STEPS as u64 && site == "cu" && error.contains("link reset"))
}

/// Replay the dry run's UIUC displacement history through a fresh
/// Shore-Western controller built as the deployment builds it: (µs per
/// command, commands refused).
fn apparatus_probe(dry: &MostRunArtifacts) -> (f64, usize) {
    let targets: Vec<f64> = dry
        .outcome
        .history
        .displacement
        .iter()
        .map(|d| d[0])
        .collect();
    let mut per_cmd = Vec::new();
    let mut refused = 0;
    for _ in 0..5 {
        let mut controller = ShoreWesternController::new(
            ServoHydraulicActuator::new(ActuatorConfig::lab_100kn()),
            Box::new(SteelColumn::most_uiuc()),
            Lvdt::lab_grade("uiuc/lvdt", 101),
            LoadCell::new("uiuc/load", 102, 150_000.0),
            120_000.0,
        );
        refused = 0;
        let t = Instant::now();
        for &target_m in &targets {
            let response = controller.execute(ControllerCommand::Move { target_m });
            if !matches!(std::hint::black_box(response), ControllerResponse::Moved(_)) {
                refused += 1;
            }
        }
        per_cmd.push(t.elapsed().as_secs_f64() * 1e6 / targets.len() as f64);
    }
    (harness::median(&per_cmd), refused)
}

pub fn run(_seed: u64, seconds: f64, traced: bool) -> Outcome {
    let make = || {
        let inputs = (input(Scenario::DryRun), input(Scenario::PublicRun));
        // Stand the public-run deployment up and tear it down unrun.
        drop(std::hint::black_box(MostDeployment::build(
            inputs.1.config.clone(),
            inputs.1.participants,
        )));
        inputs
    };
    let mut setup = harness::Setup::default();
    let (dry_in, public_in) = setup.burst(&make);
    if traced {
        trace::enable();
    }
    let mut tally = Tally::default();
    let mut correct = true;
    let (mut rates, mut dry_walls, mut public_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_dry = None;
    harness::for_seconds(seconds, 1, |_| {
        if !traced {
            drop(setup.burst(&make));
        }
        let ((dry, dry_s), dry_pace) = harness::paced(|| run_scenario("most.dry_run", &dry_in));
        let ((public, public_s), public_pace) =
            harness::paced(|| run_scenario("most.public_run", &public_in));
        let (dry_s, public_s) = (dry_s * dry_pace, public_s * public_pace);
        let (dry_ok, public_ok) = (dry_run_ok(&dry), public_run_ok(&public));
        correct &= dry_ok && public_ok;
        tally.record(DRY_STEPS as u64, if dry_ok { DRY_STEPS as u64 } else { 0 });
        tally.record(
            PUBLIC_STEPS as u64,
            if public_ok { PUBLIC_STEPS as u64 } else { 0 },
        );
        let site_steps = SITES * (dry.outcome.steps_completed() + public.outcome.steps_completed());
        rates.push(site_steps as f64 / (dry_s + public_s));
        dry_walls.push(dry_s);
        public_walls.push(public_s);
        first_dry.get_or_insert(dry);
    });
    let dry = first_dry.expect("at least one pair ran");
    let mut extra = harness::rate_quantiles(&rates);
    extra.extend([
        metric(
            "most.virtual_s",
            dry.report.virtual_duration.as_secs_f64(),
            "s",
        ),
        metric("repo.bytes_archived", dry.bytes_ingested as f64, "B"),
    ]);
    // The two runs differ fivefold in length, so each keeps its own median
    // time and a pair is their sum.
    let pair_s = harness::median(&dry_walls) + harness::median(&public_walls);
    if !traced {
        return Outcome {
            correct,
            tally,
            metrics: vec![
                metric("setup_s", setup.seconds(), "s"),
                metric(
                    "site_steps_per_s",
                    (SITES * (DRY_STEPS + PUBLIC_STEPS)) as f64 / pair_s,
                    "1/s",
                ),
                metric("runs_per_s", 2.0 / pair_s, "1/s"),
            ],
            extra,
        };
    }
    let (command_us, refused) = apparatus_probe(&dry);
    extra.push(metric("apparatus.refused", refused as f64, "count"));
    Outcome {
        correct,
        tally,
        metrics: vec![
            metric("apparatus.command_us", command_us, "us"),
            metric("most.dry_run_s", harness::median(&dry_walls), "s"),
            metric("most.public_run_s", harness::median(&public_walls), "s"),
            metric(
                "most.virtual_s",
                dry.report.virtual_duration.as_secs_f64(),
                "s",
            ),
            metric("daq.nsds_published", dry.nsds_published as f64, "count"),
            metric("repo.files_archived", dry.files_ingested as f64, "count"),
            metric("repo.bytes_archived", dry.bytes_ingested as f64, "B"),
            metric(
                "ntcp.transient_recoveries",
                dry.report.transient_recoveries as f64,
                "count",
            ),
        ],
        extra,
    }
}
