//! CLI for the campaign engine: `check`, `run`, and `replay`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use neesgrid_campaign::{expand, replay_entry, run_campaign, CampaignConfig, ScenarioDoc};

const USAGE: &str = "\
neesgrid-campaign — scenario campaigns over the NEESgrid portal

USAGE:
    neesgrid-campaign check <scenario.scn>...
    neesgrid-campaign run <scenario.scn>... [--out <dir>] [--workers N]
                          [--slice N] [--queue N]
    neesgrid-campaign replay <entry-dir>

check   parses each scenario and prints its expanded run matrix.
run     executes the matrix through a portal deployment, prints the
        canonical verdict table (stdout), the deduped signature groups
        and the archive's store digest (stderr), and
        (with --out) exports every corpus entry to
        <dir>/<signature>/<label>/{scenario.scn,seed.txt,trace.jsonl,
        verdict.json} for later replay.
replay  re-executes one exported corpus entry and verifies it: byte
        equality against the recorded trace (signature equality for
        runs that were resumed from checkpoint).

Exit codes: 0 ok, 1 verification/run failure, 2 usage error.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("run") => run_run(&args[1..]),
        Some("replay") => run_replay(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn load_docs(paths: &[PathBuf]) -> Result<Vec<ScenarioDoc>, String> {
    let mut docs = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = ScenarioDoc::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        docs.push(doc);
    }
    Ok(docs)
}

fn run_check(args: &[String]) -> ExitCode {
    let paths: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        return usage("check needs at least one scenario file");
    }
    let docs = match load_docs(&paths) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut total = 0usize;
    for doc in &docs {
        let plans = expand(doc);
        println!(
            "campaign {}: {} sites, {} steps, {} fault stmt(s), {} run(s)",
            doc.name,
            doc.sites,
            doc.steps,
            doc.faults.len(),
            plans.len()
        );
        for plan in &plans {
            println!("  {}", plan.label);
        }
        total += plans.len();
    }
    println!("{total} run(s) across {} campaign(s)", docs.len());
    ExitCode::SUCCESS
}

fn run_run(args: &[String]) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut config = CampaignConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(d) => out = Some(PathBuf::from(d)),
                None => return usage("--out needs a directory"),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.workers = n,
                None => return usage("--workers needs an integer"),
            },
            "--slice" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.slice_steps = n,
                None => return usage("--slice needs an integer"),
            },
            "--queue" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.queue_capacity = n,
                None => return usage("--queue needs an integer"),
            },
            other if other.starts_with("--") => return usage(&format!("unknown flag {other}")),
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        return usage("run needs at least one scenario file");
    }
    let docs = match load_docs(&paths) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let report = match run_campaign(&docs, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    print!("{}", report.verdict_table());
    eprint!("{}", report.summary());
    let stats = &report.stats;
    eprintln!(
        "{} ticks, {} QueueFull retries; portal: {} admitted, {} shed, {} completed, {} failed, \
         {} cancelled, {} worker crash(es), {} rescheduled",
        report.ticks,
        report.queue_full_retries,
        stats.admitted,
        stats.shed,
        stats.completed,
        stats.failed,
        stats.cancelled,
        stats.worker_crashes,
        stats.rescheduled
    );
    eprintln!(
        "archive store digest {:08x}",
        report.archive.cas().store_digest()
    );
    if let Some(dir) = out {
        // Export one directory per entry so `replay` works from plain
        // files; the label's `/` separators become directory levels
        // under the entry's signature id.
        for entry in &report.entries {
            let entry_dir = dir.join(&entry.signature_id).join(&entry.label);
            if let Err(e) = export_entry(&report, entry, &entry_dir) {
                eprintln!("error: exporting {}: {e}", entry.label);
                return ExitCode::from(1);
            }
        }
        eprintln!("corpus exported to {}", dir.display());
    }
    ExitCode::SUCCESS
}

/// Write the entry's archived artifacts back out as plain files, plus
/// `run-id.txt`, so `replay` needs no other state.
fn export_entry(
    report: &neesgrid_campaign::CampaignReport,
    entry: &neesgrid_campaign::CorpusEntry,
    dir: &Path,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for artifact in &entry.artifacts {
        let content = report
            .archive
            .cas()
            .read(&artifact.logical)
            .map_err(|e| format!("{}: {e:?}", artifact.logical))?;
        let name = artifact
            .logical
            .rsplit('/')
            .next()
            .ok_or_else(|| format!("{}: empty logical name", artifact.logical))?;
        std::fs::write(dir.join(name), &content).map_err(|e| e.to_string())?;
    }
    std::fs::write(dir.join("run-id.txt"), format!("{}\n", entry.run_id))
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn run_replay(args: &[String]) -> ExitCode {
    let dir = match args {
        [d] => PathBuf::from(d),
        _ => return usage("replay needs exactly one corpus entry directory"),
    };
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("{}/{name}: {e}", dir.display()))
    };
    let (source, trace, verdict, run_id) = match (
        read("scenario.scn"),
        read("trace.jsonl"),
        read("verdict.json"),
        read("run-id.txt"),
    ) {
        (Ok(s), Ok(t), Ok(v), Ok(r)) => (s, t, v, r),
        (Err(e), ..) | (_, Err(e), ..) | (_, _, Err(e), _) | (_, _, _, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let verdict: serde_json::Value = serde_json::from_str(&verdict).unwrap_or_default();
    let Some(label) = verdict["label"].as_str() else {
        eprintln!("error: verdict.json has no label");
        return ExitCode::from(1);
    };
    let resumed = verdict["resumed"] == true;
    match replay_entry(&source, label, run_id.trim(), &trace) {
        Ok(report) => {
            eprintln!("{}", report.detail);
            if report.verified(resumed) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
