//! The committed `BENCH_*.json` records: every one states the core count
//! and the repeats its timings were taken with, and every bench target has
//! a record.

use std::collections::BTreeSet;
use std::path::Path;

use serde_json::Value;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every committed record, by file name.
fn records() -> Vec<(String, Value)> {
    let mut records: Vec<_> = std::fs::read_dir(ROOT)
        .expect("the repository root is readable")
        .map(|entry| entry.expect("a root entry is readable").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            let is_record = name.starts_with("BENCH_") && name.ends_with(".json");
            is_record.then_some((name, path))
        })
        .map(|(name, path)| {
            let text = std::fs::read_to_string(&path).expect("a record is readable");
            let doc = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, doc)
        })
        .collect();
    records.sort_by(|a, b| a.0.cmp(&b.0));
    records
}

#[test]
fn every_record_states_its_cores_and_repeats() {
    let records = records();
    assert!(!records.is_empty(), "no BENCH_*.json at {ROOT}");
    for (name, doc) in &records {
        for key in ["nproc", "repeats"] {
            let value = doc[key].as_u64().unwrap_or(0);
            assert!(value >= 1, "{name}: top-level {key} is {:?}", doc[key]);
        }
    }
}

#[test]
fn every_bench_target_has_a_record() {
    let benches = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");
    let targets: BTreeSet<String> = std::fs::read_dir(&benches)
        .expect("the benches directory is readable")
        .map(|entry| entry.expect("a bench entry is readable").path())
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let named: BTreeSet<String> = records()
        .into_iter()
        .filter_map(|(_, doc)| doc["bench"].as_str().map(str::to_string))
        .collect();
    let missing: Vec<_> = targets.difference(&named).collect();
    assert!(
        missing.is_empty(),
        "bench targets without a record: {missing:?}"
    );
}
