//! End-to-end and per-layer benchmark of the NEESgrid stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nsite|most|portal|campaign> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One single-threaded, closed-loop load generator runs the named workload
//! for the given seconds from inputs made from the seed before timing
//! starts, and checks the program's outputs. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `failed / attempted` is the run's `ops_failed_frac`; what an
//! operation is depends on the workload (a site-step, a MOST step, a
//! tenant's experiment, a campaign run), and aborts a scenario intends are
//! not failures. Without tracing the metrics are the end-to-end ones,
//! which every workload reports:
//!
//! * `setup_s` — median time to make the inputs and stand the workload's
//!   deployment up (and tear it down unrun), repeated in short bursts
//!   before the loop and before every operation;
//! * `site_steps_per_s` — completed site-steps (sites × steps) per second,
//!   counted over build, run and teardown of an operation;
//! * `runs_per_s` — completed experiment runs per second (64-site
//!   experiments, MOST runs, tenant experiments, campaign runs);
//! * `peak_rss_mb` — the process's peak resident memory.
//!
//! Timed figures are medians over the run's repetitions, each scaled to
//! the tuning host's pace; see [`harness::paced`] for why. Seeds 1–10 are
//! the committed seeds, those of the two recorded ten-seed sets in
//! `perfbench/RECORD.json`; seed 97 is held out — it was never run while
//! the benchmark was tuned — for confirming a claimed gain.
//!
//! With `--trace 1` the run records spans around its calls into each
//! layer and prints the per-layer metrics instead. Each per-layer metric
//! belongs to one workload, so after the named workload's own traced loop
//! the run makes a short traced pass of each other workload to complete
//! the table. Spans go to `perfbench/out/spans-*.jsonl` and every run
//! writes a machine record to `perfbench/out/record-*.json`. Step and
//! wire-call latency percentiles are per-layer metrics
//! (`coordinator.step_*` on `nsite`, `portal.call_*` on `portal`) because
//! `most` and `campaign` expose no per-step or per-call boundary to time.

mod campaign;
mod harness;
mod most;
mod nsite;
mod portal;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{metric, Metrics, Tally};

/// What one workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    /// The metrics this mode prints.
    pub metrics: Metrics,
    /// Further results kept for the machine record only.
    pub extra: Metrics,
}

impl Outcome {
    pub fn failed(tally: Tally) -> Outcome {
        Outcome {
            correct: false,
            tally,
            metrics: Vec::new(),
            extra: Vec::new(),
        }
    }
}

const WORKLOADS: [&str; 4] = ["nsite", "most", "portal", "campaign"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of nsite, most, portal, campaign")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("a non-negative number"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn run_workload(name: &str, root: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match name {
        "nsite" => nsite::run(seed, seconds, traced),
        "most" => most::run(seed, seconds, traced),
        "portal" => portal::run(seed, seconds, traced),
        "campaign" => campaign::run(&root.join("scenarios"), seed, seconds, traced),
        other => unreachable!("workload {other} was validated"),
    }
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

fn as_json(metrics: &[harness::Metric]) -> serde_json::Value {
    serde_json::Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <nsite|most|portal|campaign> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root: PathBuf = bench_dir
        .parent()
        .expect("the benchmark lives in the repository")
        .to_path_buf();
    if !root.join("scenarios").is_dir() {
        eprintln!("perfbench: {} holds no repository checkout", root.display());
        return ExitCode::from(2);
    }

    let mut outcome = run_workload(&args.workload, &root, args.seed, args.seconds, args.traced);
    let rss = harness::peak_rss_mb();
    if args.traced {
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            // Each workload turns recording on where it wants spans.
            trace::set_enabled(false);
            let o = run_workload(other, &root, args.seed, 0.0, true);
            outcome.correct &= o.correct;
            outcome.tally.merge(o.tally);
            outcome.metrics.extend(o.metrics);
            outcome.extra.extend(o.extra);
        }
        let spans = bench_dir.join(format!(
            "out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = trace::write_all(&spans) {
            eprintln!("perfbench: writing {}: {e}", spans.display());
        }
    } else {
        outcome.metrics.push(metric("peak_rss_mb", rss, "MB"));
    }

    let record = serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": args.traced,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rustc": rustc_version(),
        "peak_rss_mb": rss,
        "correct": outcome.correct,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "ops_failed_frac": outcome.tally.failed_frac(),
        "metrics": as_json(&outcome.metrics),
        "extra": as_json(&outcome.extra),
    });
    let path = bench_dir.join(format!(
        "out/record-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.traced as u8
    ));
    if let Err(e) = std::fs::create_dir_all(bench_dir.join("out"))
        .and_then(|()| std::fs::write(&path, record.to_string()))
    {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        eprintln!("perfbench: {:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "perfbench: correct={} attempted={} failed={}",
        outcome.correct, outcome.tally.attempted, outcome.tally.failed
    );
    println!(
        "{}",
        harness::result_line(outcome.correct, outcome.tally, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
