//! Archive ingest throughput under experiment load.
//!
//! The paper's repository ingested MOST's captures while the experiment
//! was still running. This harness reproduces that contention case on
//! one engine: a 64-site MOST experiment runs while striped archive
//! transfers replicate synthetic captures between repository sites, all
//! interleaved in virtual time. Reports aggregate ingest throughput
//! (virtual MB/s), block dedup counts, and — the guardrail — that the
//! co-resident MOST run keeps its step rate (within noise) and produces
//! a displacement history bit-identical to a solo run.
//!
//! A second row times the content-addressed store itself, in wall-clock
//! ns per byte: ingesting 8 MiB it does not hold, ingesting the same 8 MiB
//! again (every block deduplicates), and reading it back (every block
//! address and the whole-file CRC checked). Each round times the three in
//! an order that rotates from round to round; the row keeps the best and
//! median of each, with the core count and the repeats. Writes
//! `BENCH_archive.json` at the repo root.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;

use neesgrid_archive::{ArchiveSite, CasStore, StripeConfig, TransferStatus};
use neesgrid_bench::{cores, write_record};
use neesgrid_coordinator::Termination;
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
/// Timed rounds of the CAS row.
const CAS_REPEATS: usize = 15;
/// The CAS row's three paths, in the order of its first round.
const CAS_PATHS: [&str; 3] = ["fresh_ingest", "dedup_ingest", "read"];

fn payload(n: usize, salt: u32) -> Bytes {
    Bytes::from(
        (0..n)
            .map(|i| ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) >> 24) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// `(best, median)` ns per byte of each of [`CAS_PATHS`].
fn cas_wall_clock(chunk_size: u32) -> [(f64, f64); 3] {
    let content = payload(CAS_BYTES, 7);
    let mut ns: [Vec<f64>; 3] = Default::default();
    // Round 0 is a warm-up.
    for round in 0..=CAS_REPEATS {
        let empty = CasStore::new(VirtualStore::new());
        let full = CasStore::new(VirtualStore::new());
        full.ingest("/held", &content, chunk_size, SimTime::ZERO);
        let written = full.stats().blocks_written;
        for k in 0..CAS_PATHS.len() {
            let path = (round + k) % CAS_PATHS.len();
            let started = Instant::now();
            match path {
                0 => drop(black_box(empty.ingest(
                    "/fresh",
                    &content,
                    chunk_size,
                    SimTime::ZERO,
                ))),
                1 => drop(black_box(full.ingest(
                    "/again",
                    &content,
                    chunk_size,
                    SimTime::ZERO,
                ))),
                _ => drop(black_box(
                    full.read("/held").expect("held content reads back"),
                )),
            }
            if round > 0 {
                ns[path].push(started.elapsed().as_nanos() as f64 / CAS_BYTES as f64);
            }
        }
        assert_eq!(
            full.stats().blocks_written,
            written,
            "the second ingest deduplicates"
        );
        assert_eq!(empty.stats().blocks_written, written);
    }
    ns.map(|mut ns| {
        ns.sort_by(f64::total_cmp);
        (ns[0], ns[ns.len() / 2])
    })
}

fn main() {
    // Warm-up: one untimed run so allocator and page-cache effects don't
    // land on whichever timed phase happens to go first.
    let _ = n_site(SITES, SEED).run(STEPS);

    // Phase 1 — baseline: the 64-site experiment with no archive traffic.
    let started = Instant::now();
    let solo = n_site(SITES, SEED).run(STEPS);
    let solo_elapsed = started.elapsed();
    assert!(matches!(solo.termination, Termination::Completed));
    let solo_rate = STEPS as f64 / solo_elapsed.as_secs_f64();
    let solo_digest =
        crc32(&serde_json::to_vec(&solo.history.displacement).expect("history serializes"));
    eprintln!(
        "archive_ingest: solo MOST {STEPS} steps in {solo_elapsed:>8.2?} ({solo_rate:.1} steps/s)"
    );

    // Phase 2 — the same experiment with archive replication sharing the
    // engine: attach repository sites to the experiment's own network,
    // queue striped pushes, and let the MOST run's event pump drive them.
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
    let mut total_bytes = 0u64;
    for c in 0..CAPTURES {
        let content = payload(CAPTURE_BYTES, c as u32);
        total_bytes += content.len() as u64;
        let logical = format!("/runs/most-{c}/capture.jsonl");
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

    let started = Instant::now();
    let loaded = exp.run(STEPS);
    let loaded_elapsed = started.elapsed();
    assert!(matches!(loaded.termination, Termination::Completed));
    let loaded_rate = STEPS as f64 / loaded_elapsed.as_secs_f64();
    let loaded_digest =
        crc32(&serde_json::to_vec(&loaded.history.displacement).expect("history serializes"));

    // The guardrail: archive traffic must not perturb the experiment.
    assert_eq!(
        solo_digest, loaded_digest,
        "MOST displacement history changed under archive load"
    );

    // Every transfer resolved during the run's event pumping.
    let mut blocks_sent = 0u64;
    let mut virtual_elapsed_ns = 0u64;
    let mut completed = 0usize;
    for id in &transfers {
        match origin.status(*id) {
            Some(TransferStatus::Completed(report)) => {
                completed += 1;
                blocks_sent += report.blocks_sent;
                virtual_elapsed_ns = virtual_elapsed_ns.max(report.elapsed.as_nanos());
            }
            other => panic!("transfer {id} unresolved after the run: {other:?}"),
        }
    }
    let stats = mirror.cas().stats();
    let virtual_secs = virtual_elapsed_ns as f64 / 1e9;
    let mb = total_bytes as f64 / (1024.0 * 1024.0);
    let throughput = mb / virtual_secs;
    let rate_ratio = loaded_rate / solo_rate;
    eprintln!(
        "archive_ingest: {completed} transfers, {mb:.1} MiB in {virtual_secs:.3}s virtual \
         ({throughput:.1} MB/s), {} blocks deduped",
        stats.blocks_deduped
    );
    eprintln!(
        "archive_ingest: MOST with load {STEPS} steps in {loaded_elapsed:>8.2?} \
         ({loaded_rate:.1} steps/s, {:.1}% of solo)",
        rate_ratio * 100.0
    );
    assert!(
        stats.blocks_deduped > 0,
        "duplicate capture shipped instead of deduping"
    );

    let mut doc = serde_json::json!({
        "bench": "archive_ingest",
        "seed": SEED,
        "sites": SITES,
        "steps": STEPS,
        "captures": CAPTURES + 1,
        "capture_bytes": CAPTURE_BYTES,
        "ingest_mb": mb,
        "ingest_virtual_secs": virtual_secs,
        "ingest_mb_per_virtual_sec": throughput,
        "blocks_sent": blocks_sent,
        "blocks_deduped": stats.blocks_deduped,
        "bytes_deduped": stats.bytes_deduped,
        "solo_steps_per_sec": solo_rate,
        "loaded_steps_per_sec": loaded_rate,
        "step_rate_ratio": rate_ratio,
        "history_digest_unchanged": solo_digest == loaded_digest,
    });

    let nproc = cores();
    let chunk_size = StripeConfig::default().chunk_size;
    let mut row = serde_json::json!({
        "bytes": CAS_BYTES,
        "chunk_size": chunk_size,
        "nproc": nproc,
        "repeats": CAS_REPEATS,
    });
    for (path, (best, median)) in CAS_PATHS.iter().zip(cas_wall_clock(chunk_size)) {
        eprintln!("archive_ingest: CAS {path:<12} best {best:.3} ns/byte, median {median:.3}");
        if let serde_json::Value::Object(m) = &mut row {
            m.insert(format!("{path}_ns_per_byte"), best.into());
            m.insert(format!("median_{path}_ns_per_byte"), median.into());
        }
    }
    if let serde_json::Value::Object(m) = &mut doc {
        m.insert("cas_wall_clock".into(), row);
    }
    write_record("archive_ingest", "archive", &doc);
}
