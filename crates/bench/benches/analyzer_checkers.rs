//! The analyzer's exhaustive checkers — how long `check-ntcp` and
//! `check-portal` take to explore every schedule at their default budgets,
//! the budgets `scripts/check.sh` runs them at.
//!
//! Each checker is one case: every run must end with no violation and
//! without hitting its schedule cap, and must explore the same number of
//! schedules, so a timing always covers the whole space. Writes
//! `BENCH_analyzer.json` at the repo root: per checker the schedules
//! explored, the deepest schedule, and the best and median wall time in
//! ms, with the core count and the repeats.

use neesgrid_analyzer::portal_checker::{check_portal, PortalCheckConfig};
use neesgrid_analyzer::{check, CheckConfig, CheckReport};
use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record};

/// Timed rounds of both checkers.
const REPEATS: usize = 5;

const CHECKERS: [&str; 2] = ["check_ntcp", "check_portal"];

fn run(case: usize) -> CheckReport {
    match case {
        0 => check(&CheckConfig::default()),
        _ => check_portal(&PortalCheckConfig::default()),
    }
}

fn main() {
    let nproc = cores();
    let mut spaces: [Option<(u64, usize)>; 2] = [None, None];
    let timings = time_cases(REPEATS, CHECKERS.len(), |case, watch| {
        let report = watch.time(|| run(case));
        let name = CHECKERS[case];
        if let Some(v) = &report.violation {
            panic!("{name}: violation of {} — {}", v.invariant, v.detail);
        }
        assert!(
            !report.truncated,
            "{name}: the schedule cap cut exploration"
        );
        let space = (report.schedules, report.deepest);
        assert_eq!(
            *spaces[case].get_or_insert(space),
            space,
            "{name}: the space changed between runs"
        );
    });
    let mut doc = serde_json::json!({
        "bench": "analyzer_checkers",
        "nproc": nproc,
        "repeats": REPEATS,
    });
    for ((name, timing), space) in CHECKERS.iter().zip(timings).zip(spaces) {
        let (schedules, deepest) = space.expect("every case ran");
        let (best, median) = (timing.0 * 1e3, timing.1 * 1e3);
        eprintln!(
            "analyzer: {name} {schedules} schedules (deepest {deepest}), best {best:.0} ms, \
             median {median:.0} ms, {nproc} cores"
        );
        let serde_json::Value::Object(m) = &mut doc else {
            unreachable!("the record is an object");
        };
        m.insert(format!("{name}_schedules"), schedules.into());
        m.insert(format!("{name}_deepest"), (deepest as u64).into());
        put_best_and_median(&mut doc, &format!("{name}_ms"), (best, median));
    }
    write_record("analyzer_checkers", "analyzer", &doc);
}
