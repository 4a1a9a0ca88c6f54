//! CLI for the analyzer: `lint`, `check-ntcp`, `check-portal`, and
//! `bench` subcommands.

use std::path::PathBuf;
use std::process::ExitCode;

use neesgrid_analyzer::baseline::{regressions_text, Baseline};
use neesgrid_analyzer::portal_checker::{self, check_portal, PortalCheckConfig, PortalMutation};
use neesgrid_analyzer::{check, checker, report, rules, CheckConfig, CheckReport, Mutation};

const USAGE: &str = "\
neesgrid-analyzer — workspace invariant linter + exhaustive schedule checkers

USAGE:
    neesgrid-analyzer lint [--json] [--root <dir>] [--baseline <file>]
                           [--write-baseline <file>]
    neesgrid-analyzer check-ntcp [--json] [--dup-budget N] [--drop-budget N]
                                 [--max-schedules N] [--mutate clear-dedup-on-restore]
    neesgrid-analyzer check-portal [--json] [--submissions N] [--steps N]
                                   [--kill-budget N] [--cancel-budget N]
                                   [--max-schedules N] [--mutate skip-cancel-refund]
    neesgrid-analyzer bench [--out <file>]

lint --baseline fails (exit 1) when any (file, rule) cell exceeds the
committed counts — new violations and new pragmas both trip the ratchet.
--write-baseline regenerates the snapshot (review the diff like code).

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("check-ntcp") => run_check(&args[1..]),
        Some("check-portal") => run_check_portal(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Locate the workspace root: walk up from `start` looking for a
/// `Cargo.toml` that declares `[workspace]`.
fn find_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage("--baseline needs a file"),
            },
            "--write-baseline" => match it.next() {
                Some(p) => write_baseline = Some(PathBuf::from(p)),
                None => return usage("--write-baseline needs a file"),
            },
            other => return usage(&format!("unknown lint flag '{other}'")),
        }
    }
    let root = match root.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        find_root(cwd).or_else(|| {
            // Fallback for `cargo run` from anywhere inside the target dir.
            Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
        })
    }) {
        Some(r) => r,
        None => return usage("cannot locate workspace root; pass --root"),
    };
    let summary = match rules::lint_workspace(&root) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("analyzer: {e}");
            return ExitCode::from(2);
        }
    };
    // A gate that scanned nothing proves nothing — refuse to pass
    // vacuously (wrong --root, renamed crates dir, …).
    if summary.files_scanned == 0 {
        eprintln!(
            "analyzer: no lintable files under {} — wrong workspace root?",
            root.display()
        );
        return ExitCode::from(2);
    }

    if let Some(path) = write_baseline {
        let snapshot = Baseline::from_summary(&summary);
        let text = match serde_json::to_string_pretty(&snapshot.to_json()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("analyzer: baseline unencodable: {e:?}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("analyzer: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "analyzer: baseline written to {} ({} findings, {} suppressed sites accepted)",
            path.display(),
            summary.findings.len(),
            summary.suppressed,
        );
        return ExitCode::SUCCESS;
    }

    // Against a baseline, the ratchet decides the exit code: accepted
    // debt passes, anything beyond it fails.
    let regressions = match &baseline_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("analyzer: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let base = match Baseline::from_json(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("analyzer: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            Some(base.check(&summary))
        }
        None => None,
    };

    if json {
        let mut v = report::lint_json(&summary);
        if let Some(regs) = &regressions {
            if let serde_json::Value::Object(map) = &mut v {
                map.insert(
                    "baseline_regressions".into(),
                    serde_json::json!(regs
                        .iter()
                        .map(|r| serde_json::json!({
                            "file": r.file,
                            "rule": r.rule,
                            "kind": r.kind,
                            "allowed": r.allowed as u64,
                            "actual": r.actual as u64,
                        }))
                        .collect::<Vec<serde_json::Value>>()),
                );
            }
        }
        println!("{v}");
    } else {
        print!("{}", report::lint_text(&summary));
        if let Some(regs) = &regressions {
            print!("{}", regressions_text(regs));
            println!("analyzer: baseline ratchet: {} regression(s)", regs.len());
        }
    }
    let failed = match &regressions {
        Some(regs) => !regs.is_empty(),
        None => !summary.findings.is_empty(),
    };
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn next_num(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<u64, String> {
    it.next()
        .ok_or_else(|| format!("{name} needs a number"))?
        .parse::<u64>()
        .map_err(|e| format!("{name}: {e}"))
}

fn run_check(args: &[String]) -> ExitCode {
    let mut cfg = CheckConfig::default();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--dup-budget" => match next_num(&mut it, "--dup-budget") {
                Ok(n) => cfg.dup_budget = n as u32,
                Err(e) => return usage(&e),
            },
            "--drop-budget" => match next_num(&mut it, "--drop-budget") {
                Ok(n) => cfg.drop_budget = n as u32,
                Err(e) => return usage(&e),
            },
            "--max-schedules" => match next_num(&mut it, "--max-schedules") {
                Ok(n) => cfg.max_schedules = n,
                Err(e) => return usage(&e),
            },
            "--mutate" => match it.next().map(String::as_str) {
                Some("clear-dedup-on-restore") => {
                    cfg.mutation = Some(Mutation::ClearDedupOnRestore)
                }
                _ => return usage("--mutate takes 'clear-dedup-on-restore'"),
            },
            other => return usage(&format!("unknown check-ntcp flag '{other}'")),
        }
    }
    report_check("check-ntcp", &checker::INVARIANTS, json, || check(&cfg))
}

/// Run one checker under a wall-clock timer and print its report as text
/// or JSON; exit 1 on a violation.
fn report_check(
    command: &str,
    invariants: &[&str],
    json: bool,
    run: impl FnOnce() -> CheckReport,
) -> ExitCode {
    // analyzer:allow(no-wall-clock, reason = "host-side progress timing for the report, not simulation state")
    let started = std::time::Instant::now();
    let report_data = run();
    let elapsed_ms = started.elapsed().as_millis();
    if json {
        println!("{}", report::check_json(&report_data, elapsed_ms));
    } else {
        print!(
            "{}",
            report::check_text(command, invariants, &report_data, elapsed_ms)
        );
    }
    if report_data.violation.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_check_portal(args: &[String]) -> ExitCode {
    let mut cfg = PortalCheckConfig::default();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--submissions" => match next_num(&mut it, "--submissions") {
                Ok(n) => cfg.submissions = n as usize,
                Err(e) => return usage(&e),
            },
            "--steps" => match next_num(&mut it, "--steps") {
                Ok(n) => cfg.steps = n as usize,
                Err(e) => return usage(&e),
            },
            "--kill-budget" => match next_num(&mut it, "--kill-budget") {
                Ok(n) => cfg.kill_budget = n as usize,
                Err(e) => return usage(&e),
            },
            "--cancel-budget" => match next_num(&mut it, "--cancel-budget") {
                Ok(n) => cfg.cancel_budget = n as usize,
                Err(e) => return usage(&e),
            },
            "--max-schedules" => match next_num(&mut it, "--max-schedules") {
                Ok(n) => cfg.max_schedules = n,
                Err(e) => return usage(&e),
            },
            "--mutate" => match it.next().map(String::as_str) {
                Some("skip-cancel-refund") => cfg.mutation = Some(PortalMutation::SkipCancelRefund),
                _ => return usage("--mutate takes 'skip-cancel-refund'"),
            },
            other => return usage(&format!("unknown check-portal flag '{other}'")),
        }
    }
    report_check("check-portal", &portal_checker::INVARIANTS, json, || {
        check_portal(&cfg)
    })
}

/// `bench`: run both exhaustive checkers at their default configs and
/// record schedule counts + wall time, optionally into a JSON file for
/// `scripts/bench.sh` trend tracking.
fn run_bench(args: &[String]) -> ExitCode {
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => return usage("--out needs a file"),
            },
            other => return usage(&format!("unknown bench flag '{other}'")),
        }
    }

    // analyzer:allow(no-wall-clock, reason = "host-side bench timing for the report, not simulation state")
    let started = std::time::Instant::now();
    let ntcp = check(&CheckConfig::default());
    let ntcp_ms = started.elapsed().as_millis();
    if let Some(v) = &ntcp.violation {
        eprintln!(
            "bench: check-ntcp found a violation: {} — {}",
            v.invariant, v.detail
        );
        return ExitCode::from(1);
    }
    println!(
        "bench: check-ntcp {} schedules (deepest {}) in {} ms",
        ntcp.schedules, ntcp.deepest, ntcp_ms
    );

    // analyzer:allow(no-wall-clock, reason = "host-side bench timing for the report, not simulation state")
    let started = std::time::Instant::now();
    let portal = check_portal(&PortalCheckConfig::default());
    let portal_ms = started.elapsed().as_millis();
    if let Some(v) = &portal.violation {
        eprintln!(
            "bench: check-portal found a violation: {} — {}",
            v.invariant, v.detail
        );
        return ExitCode::from(1);
    }
    println!(
        "bench: check-portal {} schedules (deepest {}) in {} ms",
        portal.schedules, portal.deepest, portal_ms
    );

    if let Some(path) = out_path {
        let doc = serde_json::json!({
            "check_ntcp": {
                "schedules": ntcp.schedules,
                "deepest": ntcp.deepest as u64,
                "elapsed_ms": ntcp_ms as u64,
            },
            "check_portal": {
                "schedules": portal.schedules,
                "deepest": portal.deepest as u64,
                "elapsed_ms": portal_ms as u64,
            },
        });
        let text = match serde_json::to_string_pretty(&doc) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench: unencodable: {e:?}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("bench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("bench: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("neesgrid-analyzer: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
