//! E9 (§3.4) — the MOST runs.
//!
//! Executes the paper's scenarios at a scaled step count (the full
//! 1,500-step versions run in the integration suite) and prints their
//! reports once; Criterion then measures the cost of a scaled hybrid run
//! and of the all-simulation rehearsal.
//!
//! The bench then times the full-length runs, each built and run, in
//! rotating order: the dry run, the public run, and the public run with no
//! participants. It writes `BENCH_most.json` at the repo root: the best and
//! median wall time of each, the core count, the repeats, and the crowd
//! cost, which is the public run's median with its 132 participants minus
//! its median without them. The host this was tuned on slows by up to
//! 1.8x for seconds at a time, which lifts medians but rarely the best of
//! each, so the crowd cost from the bests is recorded beside it.

use criterion::{criterion_group, Criterion};
use std::time::{Duration, Instant};

use neesgrid_bench::{best_and_median, cores, write_record};
use neesgrid_most::scenarios::PUBLIC_RUN_FATAL_STEP;
use neesgrid_most::{MostDeployment, Scenario};

const SCALED_STEPS: usize = 100;

fn bench_scenarios(c: &mut Criterion) {
    // The §3.4 comparison, printed from scaled runs.
    for (scenario, label, paper_steps, paper_duration) in [
        (Scenario::DryRun, "Dry run", "1500/1500", "~5.5 hours"),
        (Scenario::PublicRun, "Public run", "1493/1500", ">5 hours"),
    ] {
        let artifacts = scenario.run_with_steps(SCALED_STEPS);
        eprintln!(
            "{}",
            artifacts
                .report
                .render_markdown(label, paper_steps, paper_duration)
        );
    }

    let mut group = c.benchmark_group("sec34");
    group.sample_size(10);
    group.bench_function("simulation_only_100_steps", |b| {
        b.iter(|| std::hint::black_box(Scenario::SimulationOnly.run_with_steps(SCALED_STEPS)))
    });
    group.bench_function("hybrid_dry_run_100_steps", |b| {
        b.iter(|| std::hint::black_box(Scenario::DryRun.run_with_steps(SCALED_STEPS)))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(8))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_scenarios
}

/// Timed rounds of the three full-length runs.
const REPEATS: usize = 11;

/// The full-length runs: the dry run, the public run, and the public run
/// with nobody watching.
const RUNS: [(&str, Scenario, bool); 3] = [
    ("dry_run", Scenario::DryRun, true),
    ("public_run", Scenario::PublicRun, true),
    ("public_run_unwatched", Scenario::PublicRun, false),
];

/// Build and run one scenario at full length, with or without its
/// participants: the wall time in seconds.
fn full_length(scenario: Scenario, watched: bool) -> f64 {
    let config = scenario.config();
    let participants = if watched { scenario.participants() } else { 0 };
    let started = Instant::now();
    let deployment = MostDeployment::build(config.clone(), participants);
    deployment.set_fault_plan(scenario.fault_plan(config.steps));
    let artifacts = deployment.run(scenario.policy());
    let seconds = started.elapsed().as_secs_f64();
    let expected = match scenario {
        Scenario::PublicRun => PUBLIC_RUN_FATAL_STEP as usize,
        _ => config.steps,
    };
    assert_eq!(artifacts.outcome.steps_completed(), expected);
    assert_eq!(artifacts.viewers.len(), participants);
    seconds
}

/// `(best, median)` of a set of wall-clock times.
fn most_runs() {
    let nproc = cores();
    // Warm-up, then rotate which run goes first in each round so drift and
    // cache state hit all three equally.
    for (_, scenario, watched) in RUNS {
        full_length(scenario, watched);
    }
    let mut times: [Vec<f64>; 3] = Default::default();
    for round in 0..REPEATS {
        for k in 0..RUNS.len() {
            let i = (round + k) % RUNS.len();
            let (_, scenario, watched) = RUNS[i];
            times[i].push(full_length(scenario, watched));
        }
    }
    let mut doc = serde_json::json!({
        "bench": "most_run",
        "runs": "MOST §3.4 at full length, built and run, unpaced: dry run 1500/1500 (8 participants), \
                 public run 1493/1500 (132 participants), and the public run with none",
        "nproc": nproc,
        "repeats": REPEATS,
        "participants": Scenario::PublicRun.participants(),
    });
    let (mut bests, mut medians) = ([0.0; 3], [0.0; 3]);
    for (i, (name, _, _)) in RUNS.iter().enumerate() {
        let (best, median) = best_and_median(std::mem::take(&mut times[i]));
        (bests[i], medians[i]) = (best, median);
        eprintln!("{name}: best {best:.3} s, median {median:.3} s");
        if let serde_json::Value::Object(m) = &mut doc {
            m.insert(format!("{name}_s"), best.into());
            m.insert(format!("median_{name}_s"), median.into());
        }
    }
    let crowd_cost_s = medians[1] - medians[2];
    let crowd_cost_best_s = bests[1] - bests[2];
    eprintln!(
        "crowd cost: {crowd_cost_s:.3} s of the public run's {:.3} s (from the bests \
         {crowd_cost_best_s:.3} s), {REPEATS} rounds, {nproc} cores",
        medians[1]
    );
    if let serde_json::Value::Object(m) = &mut doc {
        m.insert("crowd_cost_s".into(), crowd_cost_s.into());
        m.insert("crowd_cost_best_s".into(), crowd_cost_best_s.into());
    }
    write_record("sec34_most_run", "most", &doc);
}

fn main() {
    benches();
    most_runs();
}
