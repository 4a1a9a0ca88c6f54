//! E3 — the Figure 3 repository, exercised over the grid network.
//!
//! Data path: site DAQ window → CSV → the ingestion tool pushes its blocks
//! on the GridFTP stripe engine to the repository's receiver and commits
//! the manifest to NFMS under its GSI session, and records metadata in NMDS
//! → later discovery, download, and decode by a remote researcher through
//! the same services.

use std::time::Duration;

use bytes::Bytes;
use serde_json::json;

use neesgrid::daq::TimeSeries;
use neesgrid::gridsim::{NetworkConfig, NodeId, SimTime, VirtualNetwork};
use neesgrid::gsi::{authenticate, CertificateAuthority, Credential, DistinguishedName};
use neesgrid::ogsi::{RpcClient, RpcError, RpcMux, ServiceContainer};
use neesgrid::repo::{
    crc32, from_hex, ArchiveSite, IngestError, Ingester, Nfms, NfmsService, Nmds, NmdsService,
    StripeConfig, TransferStatus, VirtualStore,
};
use neesgrid::telemetry::Telemetry;

/// The repository's GridFTP receiver.
const GRIDFTP: &str = "repository-gridftp";

/// Attach a stripe site named `node` over `store` to `net`.
fn gridftp(net: &VirtualNetwork, node: &str, store: VirtualStore) -> ArchiveSite {
    let (config, telemetry) = (StripeConfig::default(), Telemetry::disabled());
    ArchiveSite::attach(net, node, store, config, &telemetry).unwrap()
}

/// The repository node — NFMS and NMDS over one store, and the store's
/// GridFTP receiver — holding GSI sessions for `sessions`, or admitting
/// any caller when there are none. Returns the store.
fn repository(
    net: &VirtualNetwork,
    ca: &CertificateAuthority,
    sessions: &[&Credential],
) -> VirtualStore {
    let store = VirtualStore::new();
    let mut container = ServiceContainer::new(net.endpoint("repository").unwrap())
        .with_service("nfms", Box::new(NfmsService::new(Nfms::new(store.clone()))))
        .with_service("nmds", Box::new(NmdsService::new(Nmds::new())));
    if sessions.is_empty() {
        container = container.permissive();
    }
    let host = DistinguishedName::nees_host("repository", "container");
    let host = credential(ca, host, 1);
    for cred in sessions {
        let session = authenticate(cred, &host, &ca.verifier(), SimTime::ZERO).unwrap();
        container.install_session(session);
    }
    let _ = container.attach();
    gridftp(net, GRIDFTP, store.clone());
    store
}

fn start_repository(net: &VirtualNetwork) -> VirtualStore {
    repository(net, &CertificateAuthority::nees(7), &[])
}

fn credential(ca: &CertificateAuthority, dn: DistinguishedName, serial: u64) -> Credential {
    Credential::issue(ca, dn, SimTime::ZERO, SimTime::from_secs(3600), serial)
}

fn clients(net: &VirtualNetwork, node: &str, dn: DistinguishedName) -> (RpcClient, RpcClient) {
    let mux = RpcMux::new(net.endpoint(node).unwrap());
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

fn user(name: &str) -> DistinguishedName {
    DistinguishedName::nees_user("NEES", name)
}

/// An ingester on `node` for `dn`, shipping from its own stripe site.
fn ingester(net: &VirtualNetwork, node: &str, dn: DistinguishedName) -> Ingester {
    let (nfms, nmds) = clients(net, node, dn);
    let site = gridftp(net, &format!("{node}-gridftp"), VirtualStore::new());
    Ingester::new("/experiments/most", site, GRIDFTP, nfms, nmds)
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
    let ingester = ingester(&net, "uiuc-ingester", user("UIUC Ingester"));
    let (_, site_nmds) = clients(&net, "uiuc-grants", user("UIUC Ingester"));

    // The site produces a DAQ window and ships it.
    let mut ts = TimeSeries::new("uiuc/lvdt-1", "m");
    for i in 0..500u64 {
        ts.push(SimTime::from_millis(i * 10), (i as f64 * 0.03).sin() * 0.01);
    }
    let csv = Bytes::from(ts.to_csv());
    let logical = ingester.data_name("window-0001.csv");
    assert_eq!(ingester.upload(&logical, &csv).unwrap(), csv.len() as u64);
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
    let (res_nfms, res_nmds) = clients(&net, "researcher", user("Researcher"));
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
    let (_, nmds) = clients(&net, "editor", user("Editor"));
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
    let (_, nmds) = clients(&net, "editor", user("Editor"));
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

/// Blocks ride unauthenticated stripe lanes, so landing them names
/// nothing: only a caller with a GSI session can commit a logical file.
#[test]
fn a_commit_without_a_session_is_denied_although_its_blocks_landed() {
    let net = VirtualNetwork::new(NetworkConfig::default());
    let ca = CertificateAuthority::nees(7);
    let ingester_cred = credential(&ca, user("Ingester"), 2);
    let store = repository(&net, &ca, &[&ingester_cred]);

    let content = Bytes::from(vec![7u8; 100_000]);
    let stranger = gridftp(&net, "stranger-gridftp", VirtualStore::new());
    let manifest = stranger.ingest_local("/f.bin", &content, SimTime::ZERO);
    assert!(matches!(
        stranger.push(GRIDFTP, manifest.clone()),
        TransferStatus::Completed(_)
    ));
    let (stranger_nfms, _) = clients(&net, "stranger", user("Stranger"));
    let commit = json!({"logical": "/f.bin", "manifest": manifest});
    let err = stranger_nfms
        .call_value("commitUpload", commit.clone())
        .unwrap_err();
    assert!(
        matches!(&err, RpcError::Fault(f) if f.code == "AccessDenied"),
        "{err:?}"
    );
    let nfms = Nfms::new(store.clone());
    assert!(nfms.list("/").is_empty(), "no file without a commit");
    assert!(
        nfms.cas().check(&manifest).is_ok(),
        "yet every block landed"
    );

    // The session holder may name those very blocks.
    let (nfms_client, _) = clients(&net, "ingester", ingester_cred.identity().clone());
    let ticket = nfms_client.call_value("commitUpload", commit).unwrap();
    assert_eq!(ticket["size"], 100_000);
    assert_eq!(download(&nfms_client, "/f.bin"), content.to_vec());
}

#[test]
fn a_second_commit_of_one_logical_name_is_refused() {
    let net = VirtualNetwork::new(NetworkConfig::default());
    let store = start_repository(&net);
    let ingester = ingester(&net, "uploader", user("Uploader"));
    let first = Bytes::from_static(b"first window");
    ingester.upload("/f.csv", &first).unwrap();
    let err = ingester
        .upload("/f.csv", &Bytes::from_static(b"other bytes"))
        .unwrap_err();
    assert!(
        matches!(&err, IngestError::Rpc(RpcError::Fault(f)) if f.code == "AlreadyExists"),
        "{err:?}"
    );
    assert_eq!(Nfms::new(store).cas().read("/f.csv").unwrap(), first);
}
