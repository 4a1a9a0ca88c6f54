//! E3 (Figure 3) — the data & metadata repository.
//!
//! Sweeps the GridFTP-style striped transfer on the archive's transfer
//! engine (file size × parallel stripes), NMDS object
//! creation/validation/versioning, and the ingestion tool's upload and
//! record path to a repository node.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use serde_json::json;

use neesgrid_archive::{ArchiveCluster, PlacementPolicy, StripeConfig};
use neesgrid_bench::loopback_net;
use neesgrid_gridsim::{NodeId, SimTime};
use neesgrid_gsi::DistinguishedName;
use neesgrid_ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid_repo::metadata::{FieldType, Schema};
use neesgrid_repo::{Ingester, Nfms, NfmsService, Nmds, NmdsService, VirtualStore};
use neesgrid_telemetry::Telemetry;

fn payload(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>())
}

fn bench_gridftp(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig03/gridftp_transfer");
    for size in [64 * 1024, 1024 * 1024] {
        for streams in [1u32, 4, 8] {
            let content = payload(size);
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("streams-{streams}"), size),
                &content,
                |b, content| {
                    b.iter(|| {
                        let net = loopback_net();
                        let config = StripeConfig {
                            lanes: streams,
                            chunk_size: 8192,
                            ..StripeConfig::default()
                        };
                        let mut archive = ArchiveCluster::new(
                            PlacementPolicy::MirrorK { k: 1 },
                            config,
                            Telemetry::disabled(),
                        );
                        for site in ["site", "repository"] {
                            archive.add_site(&net, site, VirtualStore::new()).unwrap();
                        }
                        let report = archive
                            .ingest(&net, "site", "/bench/file", content)
                            .unwrap();
                        assert_eq!(report.replicas, ["repository"]);
                        let repository = archive.site("repository").unwrap();
                        std::hint::black_box(repository.cas().read("/bench/file").unwrap())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_nmds(c: &mut Criterion) {
    let owner = DistinguishedName::nees_user("BENCH", "owner");
    c.bench_function("fig03/nmds_create_validated", |b| {
        let mut nmds = Nmds::new();
        nmds.create_schema(
            "/schemas/sensor",
            &Schema::new(&[
                ("sensor_type", FieldType::String),
                ("channel", FieldType::String),
            ]),
            owner.clone(),
            SimTime::ZERO,
        )
        .unwrap();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            nmds.create(
                format!("/objects/{n}"),
                Some("/schemas/sensor".into()),
                serde_json::json!({"sensor_type": "LVDT", "channel": "c"}),
                owner.clone(),
                SimTime::ZERO,
            )
            .unwrap();
        })
    });
    c.bench_function("fig03/nmds_update_version", |b| {
        let mut nmds = Nmds::new();
        nmds.create(
            "/obj",
            None,
            serde_json::json!({"rev": 0}),
            owner.clone(),
            SimTime::ZERO,
        )
        .unwrap();
        let mut rev = 0u64;
        b.iter(|| {
            rev += 1;
            nmds.update(
                "/obj",
                serde_json::json!({ "rev": rev }),
                &owner,
                None,
                SimTime::ZERO,
            )
            .unwrap();
        })
    });
}

fn bench_ingestion(c: &mut Criterion) {
    c.bench_function("fig03/ingest_10_files", |b| {
        let net = loopback_net();
        let _repository = ServiceContainer::new(net.endpoint("repository").unwrap())
            .with_service(
                "nfms",
                Box::new(NfmsService::new(Nfms::new(VirtualStore::new()))),
            )
            .with_service("nmds", Box::new(NmdsService::new(Nmds::new())))
            .permissive()
            .attach();
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
        let ing = Ingester::new("/experiments/bench", client("nfms"), client("nmds"));
        let mut batch_no = 0u64;
        b.iter(|| {
            batch_no += 1;
            for i in 0..10 {
                let name = format!("w{batch_no}-{i}.csv");
                let content = payload(4096);
                let logical = ing.data_name(&name);
                ing.upload(&logical, &content).unwrap();
                ing.record(
                    &ing.record_name(&name),
                    None,
                    json!({"logical_file": logical, "size_bytes": content.len()}),
                )
                .unwrap();
            }
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_gridftp, bench_nmds, bench_ingestion
}
criterion_main!(benches);
