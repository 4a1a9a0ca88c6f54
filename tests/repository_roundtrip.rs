//! E3 — the Figure 3 repository, exercised over the grid network.
//!
//! Data path: site DAQ window → CSV → the ingestion tool's chunked NFMS
//! upload (GridFTP semantics inside RPC) and metadata record in NMDS →
//! later discovery, download, and decode by a remote researcher through
//! the same services.

use std::time::Duration;

use bytes::Bytes;
use serde_json::json;

use neesgrid::daq::TimeSeries;
use neesgrid::gridsim::{NetworkConfig, NodeId, SimTime, VirtualNetwork};
use neesgrid::gsi::DistinguishedName;
use neesgrid::ogsi::{RpcClient, RpcError, RpcMux, ServiceContainer};
use neesgrid::repo::{
    crc32, from_hex, to_hex, Ingester, Nfms, NfmsService, Nmds, NmdsService, VirtualStore,
};

fn start_repository(net: &VirtualNetwork) {
    let store = VirtualStore::new();
    let container = ServiceContainer::new(net.endpoint("repository").unwrap())
        .with_service("nfms", Box::new(NfmsService::new(Nfms::new(store))))
        .with_service("nmds", Box::new(NmdsService::new(Nmds::new())))
        .permissive();
    let _ = container.attach();
}

fn clients(net: &VirtualNetwork, node: &str, user: &str) -> (RpcClient, RpcClient) {
    let mux = RpcMux::new(net.endpoint(node).unwrap());
    let dn = DistinguishedName::nees_user("NEES", user);
    (
        RpcClient::new(
            std::sync::Arc::clone(&mux),
            NodeId::new("repository"),
            "nfms",
            dn.clone(),
        )
        .with_attempt_timeout(Duration::from_millis(100)),
        RpcClient::new(mux, NodeId::new("repository"), "nmds", dn)
            .with_attempt_timeout(Duration::from_millis(100)),
    )
}

fn download(nfms: &RpcClient, logical: &str) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let r = nfms
            .call_value(
                "downloadChunk",
                json!({"logical": logical, "offset": out.len(), "len": 4096}),
            )
            .unwrap();
        let part = from_hex(r["data"].as_str().unwrap()).unwrap();
        assert_eq!(crc32(&part), r["checksum"].as_u64().unwrap() as u32);
        out.extend_from_slice(&part);
        if r["eof"].as_bool().unwrap() {
            return out;
        }
    }
}

#[test]
fn ingest_then_discover_then_download() {
    let net = VirtualNetwork::new(NetworkConfig::default());
    start_repository(&net);
    let (site_nfms, site_nmds) = clients(&net, "uiuc-ingester", "UIUC Ingester");

    // The site produces a DAQ window and ships it.
    let mut ts = TimeSeries::new("uiuc/lvdt-1", "m");
    for i in 0..500u64 {
        ts.push(SimTime::from_millis(i * 10), (i as f64 * 0.03).sin() * 0.01);
    }
    let csv = ts.to_csv();
    let ingester = Ingester::new("/experiments/most", site_nfms, site_nmds.clone());
    let logical = ingester.data_name("window-0001.csv");
    assert_eq!(
        ingester.upload(&logical, csv.as_bytes()).unwrap(),
        csv.len() as u64
    );
    ingester
        .record(
            "/experiments/most/records/window-0001",
            None,
            json!({
                "logical_file": logical,
                "channel": "uiuc/lvdt-1",
                "samples": 500,
            }),
        )
        .unwrap();

    // The ingester (owner) grants the researcher read access — NMDS
    // enforces per-object authorization even between authenticated users.
    site_nmds
        .call_value(
            "grant",
            json!({
                "id": "/experiments/most/records/window-0001",
                "grantee": "/O=NEES/OU=NEES/CN=Researcher",
                "right": "read",
            }),
        )
        .unwrap();

    // A researcher at a different node discovers and fetches it.
    let (res_nfms, res_nmds) = clients(&net, "researcher", "Researcher");
    let ids = res_nmds
        .call_value("list", json!({"prefix": "/experiments/most/records/"}))
        .unwrap();
    assert_eq!(ids["ids"][0], "/experiments/most/records/window-0001");
    let record = res_nmds
        .call_value(
            "get",
            json!({"id": "/experiments/most/records/window-0001"}),
        )
        .unwrap();
    let logical = record["body"]["logical_file"].as_str().unwrap();
    let bytes = download(&res_nfms, logical);
    let back = TimeSeries::from_csv(std::str::from_utf8(&bytes).unwrap()).unwrap();
    assert_eq!(back.channel, "uiuc/lvdt-1");
    assert_eq!(back.len(), 500);
}

#[test]
fn metadata_versioning_survives_the_network() {
    let net = VirtualNetwork::new(NetworkConfig::default());
    start_repository(&net);
    let (_, nmds) = clients(&net, "editor", "Editor");
    nmds.call_value(
        "create",
        json!({"id": "/experiments/most/setup", "body": {"rev": 1}}),
    )
    .unwrap();
    for rev in 2..=5 {
        let v = nmds
            .call_value(
                "update",
                json!({"id": "/experiments/most/setup", "body": {"rev": rev}}),
            )
            .unwrap();
        assert_eq!(v["version"], rev);
    }
    let v2 = nmds
        .call_value(
            "get",
            json!({"id": "/experiments/most/setup", "version": 2}),
        )
        .unwrap();
    assert_eq!(v2["body"]["rev"], 2);
    let latest = nmds
        .call_value("get", json!({"id": "/experiments/most/setup"}))
        .unwrap();
    assert_eq!(latest["body"]["rev"], 5);
}

#[test]
fn schema_enforcement_over_the_network() {
    let net = VirtualNetwork::new(NetworkConfig::default());
    start_repository(&net);
    let (_, nmds) = clients(&net, "editor", "Editor");
    nmds.call_value(
        "createSchema",
        json!({
            "id": "/schemas/sensor",
            "schema": {"fields": {"sensor_type": "string"}, "allow_extra": true},
        }),
    )
    .unwrap();
    let err = nmds
        .call_value(
            "create",
            json!({"id": "/x", "schema_id": "/schemas/sensor", "body": {"oops": 1}}),
        )
        .unwrap_err();
    assert!(matches!(err, RpcError::Fault(f) if f.code == "ValidationFailed"));
}

#[test]
fn corrupted_chunk_is_rejected_and_resendable() {
    let net = VirtualNetwork::new(NetworkConfig::default());
    start_repository(&net);
    let (nfms, _) = clients(&net, "uploader", "Uploader");
    let content = Bytes::from(vec![7u8; 10_000]);
    let neg = nfms
        .call_value(
            "negotiateUpload",
            json!({"logical": "/f.bin", "size": content.len(), "checksum": crc32(&content)}),
        )
        .unwrap();
    let tid = neg["transfer_id"].as_u64().unwrap();
    // Send a corrupt first chunk: wrong per-block checksum.
    let err = nfms
        .call_value(
            "uploadChunk",
            json!({
                "transfer_id": tid,
                "offset": 0,
                "stream": 0,
                "data": to_hex(&content[..8192]),
                "checksum": 1,
            }),
        )
        .unwrap_err();
    assert!(matches!(&err, RpcError::Fault(f) if f.code == "ChunkRejected" && f.retryable));
    // Resend correctly, finish the transfer.
    for (i, c) in content.chunks(8192).enumerate() {
        nfms.call_value(
            "uploadChunk",
            json!({
                "transfer_id": tid,
                "offset": i * 8192,
                "stream": 0,
                "data": to_hex(c),
                "checksum": crc32(c),
            }),
        )
        .unwrap();
    }
    let ticket = nfms
        .call_value("commitUpload", json!({"transfer_id": tid}))
        .unwrap();
    assert_eq!(ticket["size"], 10_000);
}
