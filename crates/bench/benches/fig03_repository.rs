//! E3 (Figure 3) — the data & metadata repository.
//!
//! Sweeps the GridFTP-style striped transfer on the archive's transfer
//! engine (file size × parallel stripes), NMDS object
//! creation/validation/versioning, and the ingestion tool's upload (a
//! stripe push to the repository's receiver and an NFMS commit) and
//! record path to a repository node. `BENCH_fig03.json` at the repo root
//! gets the best and median of each, with the core count and the repeats.

use std::sync::Arc;

use bytes::Bytes;
use serde_json::json;

use neesgrid_archive::{ArchiveCluster, ArchiveSite, PlacementPolicy, StripeConfig};
use neesgrid_bench::{cores, loopback_net, put_best_and_median, time_cases, write_record};
use neesgrid_gridsim::{NodeId, SimTime, VirtualNetwork};
use neesgrid_gsi::DistinguishedName;
use neesgrid_ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid_repo::metadata::{FieldType, Schema};
use neesgrid_repo::{Ingester, Nfms, NfmsService, Nmds, NmdsService, VirtualStore};
use neesgrid_telemetry::Telemetry;

fn payload(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>())
}

/// The stripe sweep: file size × lanes.
const STRIPES: [(usize, u32); 6] = [
    (64 * 1024, 1),
    (64 * 1024, 4),
    (64 * 1024, 8),
    (1024 * 1024, 1),
    (1024 * 1024, 4),
    (1024 * 1024, 8),
];
/// NMDS operations timed together in one repeat.
const NMDS_OPS: usize = 1000;
/// Timed rounds.
const REPEATS: usize = 21;

/// A two-site cluster that mirrors what `site` ingests to `repository`
/// over `lanes` stripes.
fn cluster(lanes: u32) -> (VirtualNetwork, ArchiveCluster) {
    let net = loopback_net();
    let config = StripeConfig {
        lanes,
        chunk_size: 8192,
    };
    let mut archive = ArchiveCluster::new(
        PlacementPolicy::MirrorK { k: 1 },
        config,
        Telemetry::disabled(),
    );
    for site in ["site", "repository"] {
        archive.add_site(&net, site, VirtualStore::new()).unwrap();
    }
    (net, archive)
}

fn main() {
    let contents: Vec<Bytes> = STRIPES.iter().map(|&(size, _)| payload(size)).collect();

    let owner = DistinguishedName::nees_user("BENCH", "owner");
    let mut validated = Nmds::new();
    validated
        .create_schema(
            "/schemas/sensor",
            &Schema::new(&[
                ("sensor_type", FieldType::String),
                ("channel", FieldType::String),
            ]),
            owner.clone(),
            SimTime::ZERO,
        )
        .unwrap();
    let mut versioned = Nmds::new();
    versioned
        .create(
            "/obj",
            None,
            json!({"rev": 0}),
            owner.clone(),
            SimTime::ZERO,
        )
        .unwrap();

    let net = loopback_net();
    let store = VirtualStore::new();
    let _repository = ServiceContainer::new(net.endpoint("repository").unwrap())
        .with_service("nfms", Box::new(NfmsService::new(Nfms::new(store.clone()))))
        .with_service("nmds", Box::new(NmdsService::new(Nmds::new())))
        .permissive()
        .attach();
    let gridftp = |node, store| {
        let config = StripeConfig::default();
        ArchiveSite::attach(&net, node, store, config, &Telemetry::disabled()).unwrap()
    };
    gridftp("repository-gridftp", store);
    let mux = RpcMux::new(net.endpoint("ingester").unwrap());
    let operator = DistinguishedName::nees_user("BENCH", "ingester");
    let client = |service| {
        RpcClient::new(
            Arc::clone(&mux),
            NodeId::new("repository"),
            service,
            operator.clone(),
        )
    };
    let ing = Ingester::new(
        "/experiments/bench",
        gridftp("ingester-gridftp", VirtualStore::new()),
        "repository-gridftp",
        client("nfms"),
        client("nmds"),
    );

    let (mut objects, mut rev, mut batch_no) = (0u64, 0u64, 0u64);
    let timings = time_cases(REPEATS, STRIPES.len() + 3, |case, watch| match case {
        // A fresh cluster per run, built untimed.
        i if i < STRIPES.len() => {
            let (net, mut archive) = cluster(STRIPES[i].1);
            watch.time(|| {
                let report = archive
                    .ingest(&net, "site", "/bench/file", &contents[i])
                    .unwrap();
                assert_eq!(report.replicas, ["repository"]);
                let repository = archive.site("repository").unwrap();
                repository.cas().read("/bench/file").unwrap()
            });
        }
        6 => watch.time(|| {
            for _ in 0..NMDS_OPS {
                objects += 1;
                validated
                    .create(
                        format!("/objects/{objects}"),
                        Some("/schemas/sensor".into()),
                        json!({"sensor_type": "LVDT", "channel": "c"}),
                        owner.clone(),
                        SimTime::ZERO,
                    )
                    .unwrap();
            }
        }),
        7 => watch.time(|| {
            for _ in 0..NMDS_OPS {
                rev += 1;
                versioned
                    .update("/obj", json!({ "rev": rev }), &owner, None, SimTime::ZERO)
                    .unwrap();
            }
        }),
        _ => watch.time(|| {
            batch_no += 1;
            for i in 0..10u64 {
                let name = format!("w{batch_no}-{i}.csv");
                // Distinct bytes per file, so no push is deduplicated.
                let mut content = payload(4096).to_vec();
                content[..8].copy_from_slice(&(batch_no * 10 + i).to_be_bytes());
                let content = Bytes::from(content);
                let logical = ing.data_name(&name);
                ing.upload(&logical, &content).unwrap();
                ing.record(
                    &ing.record_name(&name),
                    None,
                    json!({"logical_file": logical, "size_bytes": content.len()}),
                )
                .unwrap();
            }
        }),
    });

    let mut stripe_rows = Vec::new();
    for (&(bytes, lanes), (best, median)) in STRIPES.iter().zip(&timings) {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        let mib_per_s = (mib / best, mib / median);
        eprintln!(
            "fig03: stripe {:>4} KiB over {lanes} lanes: best {:>6.1} MiB/s, median {:>6.1}",
            bytes / 1024,
            mib_per_s.0,
            mib_per_s.1
        );
        let mut row = json!({ "bytes": bytes, "lanes": lanes });
        put_best_and_median(&mut row, "mib_per_s", mib_per_s);
        stripe_rows.push(row);
    }
    let mut doc = json!({
        "bench": "fig03_repository",
        "stripe": "ingest at one site and mirror to a repository site over the archive's striped \
                   transfer (8 KiB chunks), then read back at the repository; the cluster is \
                   built untimed",
        "ingest": "the ingestion tool uploads 10 distinct files of 4 KiB to a repository node: \
                   a stripe push to its receiver and an NFMS commit each, then an NMDS record",
        "nproc": cores(),
        "repeats": REPEATS,
        "nmds_ops_per_repeat": NMDS_OPS,
        "stripe_rows": stripe_rows,
    });
    let us_per = |(best, median): (f64, f64), ops: usize| {
        (best * 1e6 / ops as f64, median * 1e6 / ops as f64)
    };
    for (key, timing) in [
        ("nmds_create_validated_us", us_per(timings[6], NMDS_OPS)),
        ("nmds_update_version_us", us_per(timings[7], NMDS_OPS)),
        ("ingest_10_files_us", us_per(timings[8], 1)),
    ] {
        eprintln!(
            "fig03: {key:<26} best {:>9.2}, median {:>9.2}",
            timing.0, timing.1
        );
        put_best_and_median(&mut doc, key, timing);
    }
    write_record("fig03_repository", "fig03", &doc);
}
