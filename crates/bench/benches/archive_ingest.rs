//! Archive ingest throughput under experiment load.
//!
//! The paper's repository ingested MOST's captures while the experiment
//! was still running. This harness reproduces that contention case on
//! one engine: a 64-site MOST experiment runs while striped archive
//! transfers replicate synthetic captures between repository sites, all
//! interleaved in virtual time. Reports aggregate ingest throughput
//! (virtual MB/s), block dedup counts, and — the guardrail — the
//! co-resident MOST run's step rate against a solo run's (each timing the
//! run alone, the deployment built untimed), and that it produces a
//! displacement history bit-identical to the solo run's.
//!
//! A second row times the content-addressed store itself, in wall-clock
//! ns per byte: ingesting 8 MiB it does not hold, ingesting the same 8 MiB
//! again (every block deduplicates), and reading it back (every block
//! address and the whole-file CRC checked), each on a store built untimed.
//! Writes `BENCH_archive.json` at the repo root: the best and median of
//! every timing, with the core count and the repeats.

use bytes::Bytes;

use neesgrid_archive::{ArchiveSite, CasStats, CasStore, StripeConfig, TransferStatus};
use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record, Stopwatch};
use neesgrid_coordinator::{ExperimentOutcome, Termination};
use neesgrid_gridsim::SimTime;
use neesgrid_most::n_site;
use neesgrid_repo::{crc32, VirtualStore};
use neesgrid_telemetry::Telemetry;

const STEPS: usize = 100;
const SEED: u64 = 2004;
const SITES: usize = 64;
/// Synthetic capture size per artifact (a few minutes of NSDS samples).
const CAPTURE_BYTES: usize = 512 * 1024;
/// Artifacts pushed while the experiment runs.
const CAPTURES: usize = 4;

/// Bytes per CAS timing: about one campaign sweep's worth of trace.
const CAS_BYTES: usize = 8 * 1024 * 1024;
/// Timed rounds of every case.
const REPEATS: usize = 15;
/// The CAS row's three paths, after the solo and the loaded run.
const CAS_PATHS: [&str; 3] = ["fresh_ingest", "dedup_ingest", "read"];

fn payload(n: usize, salt: u32) -> Bytes {
    Bytes::from(
        (0..n)
            .map(|i| ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) >> 24) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// The CRC of a run's displacement history.
fn history_digest(outcome: &ExperimentOutcome) -> u32 {
    assert!(matches!(outcome.termination, Termination::Completed));
    crc32(&serde_json::to_vec(&outcome.history.displacement).expect("history serializes"))
}

/// What the archive traffic of one loaded run did.
struct Ingest {
    history_digest: u32,
    completed: usize,
    blocks_sent: u64,
    virtual_elapsed_ns: u64,
    stats: CasStats,
}

/// The 64-site experiment with archive replication sharing its engine:
/// attach repository sites to the experiment's own network, queue striped
/// pushes, and let the run's event pump drive them. Only the run is timed.
fn loaded_run(watch: &mut Stopwatch) -> Ingest {
    let exp = n_site(SITES, SEED);
    let telemetry = Telemetry::disabled();
    let config = StripeConfig::default();
    let origin = ArchiveSite::attach(
        exp.network(),
        "repo-origin",
        VirtualStore::new(),
        config.clone(),
        &telemetry,
    )
    .expect("origin attaches");
    let mirror = ArchiveSite::attach(
        exp.network(),
        "repo-mirror",
        VirtualStore::new(),
        config,
        &telemetry,
    )
    .expect("mirror attaches");

    let mut transfers = Vec::new();
    for c in 0..CAPTURES {
        let logical = format!("/runs/most-{c}/capture.jsonl");
        let content = payload(CAPTURE_BYTES, c as u32);
        let manifest = origin.ingest_local(&logical, &content, exp.network().clock().now());
        transfers.push(origin.start_push("repo-mirror", manifest));
    }
    // One duplicate capture: its blocks must dedupe, not reship.
    let dup = origin.ingest_local(
        "/runs/most-0-retry/capture.jsonl",
        &payload(CAPTURE_BYTES, 0),
        exp.network().clock().now(),
    );
    transfers.push(origin.start_push("repo-mirror", dup));

    let outcome = watch.time(|| exp.run(STEPS));

    // Every transfer resolved during the run's event pumping.
    let mut ingest = Ingest {
        history_digest: history_digest(&outcome),
        completed: 0,
        blocks_sent: 0,
        virtual_elapsed_ns: 0,
        stats: mirror.cas().stats(),
    };
    for id in &transfers {
        match origin.status(*id) {
            Some(TransferStatus::Completed(report)) => {
                ingest.completed += 1;
                ingest.blocks_sent += report.blocks_sent;
                ingest.virtual_elapsed_ns =
                    ingest.virtual_elapsed_ns.max(report.elapsed.as_nanos());
            }
            other => panic!("transfer {id} unresolved after the run: {other:?}"),
        }
    }
    assert!(
        ingest.stats.blocks_deduped > 0,
        "duplicate capture shipped instead of deduping"
    );
    ingest
}

fn main() {
    let nproc = cores();
    let chunk_size = StripeConfig::default().chunk_size;
    let content = payload(CAS_BYTES, 7);
    let held = || {
        let full = CasStore::new(VirtualStore::new());
        full.ingest("/held", &content, chunk_size, SimTime::ZERO);
        full
    };
    let written = held().stats().blocks_written;

    let (mut solo_digest, mut ingest) = (None, None);
    let timings = time_cases(REPEATS, 2 + CAS_PATHS.len(), |case, watch| match case {
        0 => {
            let exp = n_site(SITES, SEED);
            let outcome = watch.time(|| exp.run(STEPS));
            solo_digest = Some(history_digest(&outcome));
        }
        1 => {
            let loaded = loaded_run(watch);
            // The guardrail: archive traffic must not perturb the experiment.
            assert_eq!(
                Some(loaded.history_digest),
                solo_digest,
                "MOST displacement history changed under archive load"
            );
            ingest = Some(loaded);
        }
        2 => {
            let empty = CasStore::new(VirtualStore::new());
            watch.time(|| empty.ingest("/fresh", &content, chunk_size, SimTime::ZERO));
            assert_eq!(empty.stats().blocks_written, written);
        }
        3 => {
            let full = held();
            watch.time(|| full.ingest("/again", &content, chunk_size, SimTime::ZERO));
            assert_eq!(
                full.stats().blocks_written,
                written,
                "the second ingest deduplicates"
            );
        }
        _ => {
            let full = held();
            drop(watch.time(|| full.read("/held").expect("held content reads back")));
        }
    });

    let ingest = ingest.expect("the loaded run ran");
    let rate = |(best, median): (f64, f64)| (STEPS as f64 / best, STEPS as f64 / median);
    let (solo_rate, median_solo_rate) = rate(timings[0]);
    let (loaded_rate, median_loaded_rate) = rate(timings[1]);
    eprintln!(
        "archive_ingest: solo MOST {STEPS} steps: best {solo_rate:.1} steps/s, median \
         {median_solo_rate:.1}"
    );
    let total_bytes = (CAPTURES * CAPTURE_BYTES) as f64;
    let virtual_secs = ingest.virtual_elapsed_ns as f64 / 1e9;
    let mb = total_bytes / (1024.0 * 1024.0);
    let throughput = mb / virtual_secs;
    eprintln!(
        "archive_ingest: {} transfers, {mb:.1} MiB in {virtual_secs:.3}s virtual \
         ({throughput:.1} MB/s), {} blocks deduped",
        ingest.completed, ingest.stats.blocks_deduped
    );
    eprintln!(
        "archive_ingest: MOST with load {STEPS} steps: best {loaded_rate:.1} steps/s \
         ({:.1}% of solo), median {median_loaded_rate:.1} ({:.1}%)",
        loaded_rate / solo_rate * 100.0,
        median_loaded_rate / median_solo_rate * 100.0,
    );

    let mut doc = serde_json::json!({
        "bench": "archive_ingest",
        "nproc": nproc,
        "repeats": REPEATS,
        "seed": SEED,
        "sites": SITES,
        "steps": STEPS,
        "captures": CAPTURES + 1,
        "capture_bytes": CAPTURE_BYTES,
        "ingest_mb": mb,
        "ingest_virtual_secs": virtual_secs,
        "ingest_mb_per_virtual_sec": throughput,
        "blocks_sent": ingest.blocks_sent,
        "blocks_deduped": ingest.stats.blocks_deduped,
        "bytes_deduped": ingest.stats.bytes_deduped,
        "step_rate_ratio": loaded_rate / solo_rate,
        "median_step_rate_ratio": median_loaded_rate / median_solo_rate,
        "history_digest_unchanged": true,
    });
    put_best_and_median(
        &mut doc,
        "solo_steps_per_sec",
        (solo_rate, median_solo_rate),
    );
    put_best_and_median(
        &mut doc,
        "loaded_steps_per_sec",
        (loaded_rate, median_loaded_rate),
    );

    let mut row = serde_json::json!({
        "bytes": CAS_BYTES,
        "chunk_size": chunk_size,
        "nproc": nproc,
        "repeats": REPEATS,
    });
    for (path, (best, median)) in CAS_PATHS.iter().zip(&timings[2..]) {
        let (best, median) = (
            best * 1e9 / CAS_BYTES as f64,
            median * 1e9 / CAS_BYTES as f64,
        );
        eprintln!("archive_ingest: CAS {path:<12} best {best:.3} ns/byte, median {median:.3}");
        put_best_and_median(&mut row, &format!("{path}_ns_per_byte"), (best, median));
    }
    if let serde_json::Value::Object(m) = &mut doc {
        m.insert("cas_wall_clock".into(), row);
    }
    write_record("archive_ingest", "archive", &doc);
}
