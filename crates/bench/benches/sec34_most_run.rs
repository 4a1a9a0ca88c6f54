//! E9 (§3.4) — the MOST runs.
//!
//! Executes the paper's scenarios at a scaled step count (the full
//! 1,500-step versions run in the integration suite) and prints their
//! reports once, then times the full-length runs, each built and run: the
//! dry run, the public run, and the public run with no participants;
//! beside them, a scaled hybrid run and the all-simulation rehearsal.
//! It writes `BENCH_most.json` at the repo root: the scaled reports, the
//! best and median wall time of each run, the core count, the repeats,
//! and the crowd cost, which is the public run's median with its 132
//! participants minus its median without them. The host this was tuned on
//! slows by up to 1.8x for seconds at a time, which lifts medians but
//! rarely the best of each, so the crowd cost from the bests is recorded
//! beside it.

use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record, Stopwatch};
use neesgrid_most::scenarios::PUBLIC_RUN_FATAL_STEP;
use neesgrid_most::{MostDeployment, Scenario};

const SCALED_STEPS: usize = 100;

/// Timed rounds of every run.
const REPEATS: usize = 11;

/// The full-length runs: the dry run, the public run, and the public run
/// with nobody watching.
const RUNS: [(&str, Scenario, bool); 3] = [
    ("dry_run", Scenario::DryRun, true),
    ("public_run", Scenario::PublicRun, true),
    ("public_run_unwatched", Scenario::PublicRun, false),
];

/// The scaled runs' cases, after the full-length ones.
const SCALED: [(&str, Scenario); 2] = [
    ("simulation_only_100_steps", Scenario::SimulationOnly),
    ("hybrid_dry_run_100_steps", Scenario::DryRun),
];

/// Build and run one scenario at full length, with or without its
/// participants, timed by `watch`.
fn full_length(watch: &mut Stopwatch, scenario: Scenario, watched: bool) {
    let config = scenario.config();
    let participants = if watched { scenario.participants() } else { 0 };
    let artifacts = watch.time(|| {
        let deployment = MostDeployment::build(config.clone(), participants);
        deployment.set_fault_plan(scenario.fault_plan(config.steps));
        deployment.run(scenario.policy())
    });
    let expected = match scenario {
        Scenario::PublicRun => PUBLIC_RUN_FATAL_STEP as usize,
        _ => config.steps,
    };
    assert_eq!(artifacts.outcome.steps_completed(), expected);
    assert_eq!(artifacts.viewers.len(), participants);
}

fn main() {
    let nproc = cores();
    // The §3.4 comparison, from scaled runs.
    let mut scaled_reports = serde_json::Map::new();
    for (scenario, key, label, paper_steps, paper_duration) in [
        (
            Scenario::DryRun,
            "dry_run",
            "Dry run",
            "1500/1500",
            "~5.5 hours",
        ),
        (
            Scenario::PublicRun,
            "public_run",
            "Public run",
            "1493/1500",
            ">5 hours",
        ),
    ] {
        let report = scenario.run_with_steps(SCALED_STEPS).report;
        eprintln!(
            "{}",
            report.render_markdown(label, paper_steps, paper_duration)
        );
        scaled_reports.insert(
            key.into(),
            serde_json::to_value(&report).expect("a report serializes"),
        );
    }

    let timings = time_cases(REPEATS, RUNS.len() + SCALED.len(), |case, watch| {
        if let Some(&(_, scenario, watched)) = RUNS.get(case) {
            full_length(watch, scenario, watched);
        } else {
            let scenario = SCALED[case - RUNS.len()].1;
            drop(watch.time(|| scenario.run_with_steps(SCALED_STEPS)));
        }
    });
    let crowd_cost_s = timings[1].1 - timings[2].1;
    let crowd_cost_best_s = timings[1].0 - timings[2].0;
    eprintln!(
        "crowd cost: {crowd_cost_s:.3} s of the public run's {:.3} s (from the bests \
         {crowd_cost_best_s:.3} s), {REPEATS} rounds, {nproc} cores",
        timings[1].1
    );
    let mut doc = serde_json::json!({
        "bench": "sec34_most_run",
        "runs": "MOST §3.4 at full length, built and run, unpaced: dry run 1500/1500 (8 participants), \
                 public run 1493/1500 (132 participants), and the public run with none",
        "scaled_runs": "the simulation-only rehearsal and the hybrid dry run at 100 steps, built and run",
        "scaled_reports": scaled_reports,
        "nproc": nproc,
        "repeats": REPEATS,
        "participants": Scenario::PublicRun.participants(),
        "crowd_cost_s": crowd_cost_s,
        "crowd_cost_best_s": crowd_cost_best_s,
    });
    let names = RUNS
        .iter()
        .map(|run| run.0)
        .chain(SCALED.iter().map(|run| run.0));
    for (name, timing) in names.zip(timings) {
        eprintln!("{name}: best {:.3} s, median {:.3} s", timing.0, timing.1);
        put_best_and_median(&mut doc, &format!("{name}_s"), timing);
    }
    write_record("sec34_most_run", "most", &doc);
}
