//! E17 — the archive data plane, end to end.
//!
//! The paper's repository path (GridFTP striping, restart markers,
//! mirrored replicas) rebuilt on the deterministic engine. The headline
//! property mirrors the portal's crash story: a striped transfer killed
//! mid-flight — one stripe's link partitioned, both sites restarted over
//! their surviving stores — finishes from the receiver's restart marker
//! (its CAS coverage of the manifest) with bytes and store digest
//! **bit-identical** to a transfer that was never disturbed.

use std::sync::Arc;

use bytes::Bytes;

use neesgrid::archive::service::{isolate_site_pair, set_site_link};
use neesgrid::archive::{
    ArchiveCluster, ArchiveSite, CasStats, PlacementPolicy, StripeConfig, TransferStatus,
};
use neesgrid::checkpoint::MemoryCheckpointStore;
use neesgrid::gridsim::fault::PartitionWindow;
use neesgrid::gridsim::{
    FaultPlan, LatencyModel, LinkKey, NetworkConfig, NetworkProfile, SimTime, VirtualNetwork,
};
use neesgrid::gsi::{CertificateAuthority, Credential, DistinguishedName};
use neesgrid::portal::{
    ClientError, ExperimentSpec, Portal, PortalClient, PortalConfig, Request, Response,
    ARTIFACT_CHUNK_MAX,
};
use neesgrid::repo::VirtualStore;
use neesgrid::telemetry::Telemetry;

fn net(seed: u64) -> VirtualNetwork {
    VirtualNetwork::new(NetworkConfig {
        default_latency: LatencyModel::Fixed(SimTime::from_millis(15)),
        seed,
    })
}

fn config() -> StripeConfig {
    StripeConfig {
        lanes: 3,
        window: 4,
        chunk_size: 2048,
        ..StripeConfig::default()
    }
}

/// Synthetic capture bytes with all chunk-aligned blocks distinct.
fn payload(n: usize) -> Bytes {
    Bytes::from(
        (0..n)
            .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// The headline: partition a stripe mid-flight, kill the transfer,
/// "restart" both sites on a fresh network over the same durable stores,
/// and push again: the receiver's coverage is the restart marker. Bytes
/// and store digest must equal an undisturbed transfer's.
#[test]
fn killed_transfer_resumes_from_marker_bit_identically() {
    let content = payload(40 * 1024);

    // Reference: the same push on an undisturbed network.
    let reference_digest = {
        let net = net(77);
        let telemetry = Telemetry::disabled();
        let src = ArchiveSite::attach(&net, "src", VirtualStore::new(), config(), &telemetry)
            .expect("src attaches");
        let dst = ArchiveSite::attach(&net, "dst", VirtualStore::new(), config(), &telemetry)
            .expect("dst attaches");
        let m = src.ingest_local("/runs/most/capture.jsonl", &content, SimTime::ZERO);
        assert!(matches!(
            src.push("dst", m.clone()),
            TransferStatus::Completed(_)
        ));
        // A push lands blocks and names nothing: read through the manifest.
        assert_eq!(dst.cas().assemble(&m).unwrap(), content);
        assert!(dst.cas().manifests().is_empty());
        dst.cas().store_digest()
    };

    // Disturbed run: stripe 1 dies mid-transfer, then the whole transfer
    // is killed partway.
    let src_store = VirtualStore::new();
    let dst_store = VirtualStore::new();
    let manifest = {
        let net = net(78);
        let telemetry = Telemetry::disabled();
        let src = ArchiveSite::attach(&net, "src", src_store.clone(), config(), &telemetry)
            .expect("src attaches");
        let dst = ArchiveSite::attach(&net, "dst", dst_store.clone(), config(), &telemetry)
            .expect("dst attaches");
        let mut plan = FaultPlan::reliable();
        plan.partition(PartitionWindow {
            link: LinkKey::new("src~s1", "dst~s1"),
            from_index: 2,
            to_index: u64::MAX,
        });
        net.set_fault_plan(plan);
        let m = src.ingest_local("/runs/most/capture.jsonl", &content, SimTime::ZERO);
        let id = src.start_push("dst", m.clone());
        // Drive the engine just far enough that blocks have landed but
        // the transfer has not committed, then kill it.
        let engine = net.engine();
        for _ in 0..40 {
            engine.run_one();
        }
        let status = src.status(id).expect("transfer exists");
        assert!(
            matches!(
                status,
                TransferStatus::Streaming { .. } | TransferStatus::Negotiating
            ),
            "expected mid-flight, got {status:?}"
        );
        let marker = dst.cas().coverage(&m);
        assert!(
            !marker.ranges.is_empty(),
            "some blocks landed before the kill"
        );
        let covered: u64 = marker.ranges.iter().map(|(s, e)| e - s).sum();
        assert!(covered < content.len() as u64, "kill was mid-flight");
        m
        // Old network, engine, and in-flight state drop here — the
        // "process" died. Only the VirtualStores survive.
    };

    // Restart: fresh network, fresh sites over the SAME stores.
    let net = net(79);
    let telemetry = Telemetry::disabled();
    let src =
        ArchiveSite::attach(&net, "src", src_store, config(), &telemetry).expect("src re-attaches");
    let dst =
        ArchiveSite::attach(&net, "dst", dst_store, config(), &telemetry).expect("dst re-attaches");
    let TransferStatus::Completed(report) = src.push("dst", manifest.clone()) else {
        panic!("resumed transfer failed");
    };
    // The restart marker did its job: the resumed push shipped only the
    // blocks the receiver's store did not already cover.
    assert!(report.blocks_skipped > 0, "marker skipped nothing");
    assert!(report.blocks_sent < 20, "resume resent the whole artifact");
    assert_eq!(dst.cas().assemble(&manifest).unwrap(), content);
    assert_eq!(dst.cas().store_digest(), reference_digest);
}

/// Same seed, same faults, twice: store digests and the full telemetry
/// trace must match byte for byte.
#[test]
fn same_seed_double_run_is_bit_identical_including_trace() {
    let run = || {
        let net = net(5);
        let telemetry = Telemetry::recording();
        let mut cluster = ArchiveCluster::new(
            PlacementPolicy::NearestByLatency { k: 2 },
            config(),
            telemetry.clone(),
        );
        for site in ["ncsa", "uiuc", "boulder", "colorado"] {
            cluster
                .add_site(&net, site, VirtualStore::new())
                .expect("site attaches");
        }
        set_site_link(
            &net,
            "ncsa",
            "uiuc",
            3,
            LatencyModel::Fixed(SimTime::from_millis(4)),
        );
        // Flaky stripe on the ncsa→boulder path exercises retry/backoff.
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("ncsa~s0", "boulder~s0"), 1);
        plan.drop_at(LinkKey::new("ncsa~s2", "boulder~s2"), 0);
        net.set_fault_plan(plan);
        let report = cluster
            .ingest(&net, "ncsa", "/runs/m1/capture.jsonl", &payload(24 * 1024))
            .expect("ingest replicates");
        assert_eq!(report.replicas.len(), 2);
        (cluster.store_digests(), telemetry.export_jsonl())
    };
    let (digests_a, trace_a) = run();
    let (digests_b, trace_b) = run();
    assert_eq!(digests_a, digests_b, "store digests diverged");
    assert_eq!(trace_a, trace_b, "telemetry traces diverged");
}

/// Three-replica ingest, then a reader whose nearest replica is cut off
/// mid-deployment: the read fails over outward and still verifies.
#[test]
fn faulted_link_failover_serves_from_surviving_replica() {
    let net = net(9);
    let mut cluster = ArchiveCluster::new(
        PlacementPolicy::MirrorK { k: 2 },
        config(),
        Telemetry::disabled(),
    );
    for site in ["origin", "mirror-a", "mirror-b", "reader"] {
        cluster
            .add_site(&net, site, VirtualStore::new())
            .expect("site attaches");
    }
    // mirror-a is the reader's nearest replica.
    set_site_link(
        &net,
        "mirror-a",
        "reader",
        3,
        LatencyModel::Fixed(SimTime::from_millis(2)),
    );
    let content = payload(16 * 1024);
    let report = cluster
        .ingest(&net, "origin", "/runs/m1/history.json", &content)
        .expect("ingest replicates");
    assert_eq!(report.replicas, vec!["mirror-a", "mirror-b"]);
    assert_eq!(cluster.catalog().sites("/runs/m1/history.json").len(), 3);

    // Cut the reader's link to mirror-a; the read must fail over.
    let mut plan = FaultPlan::reliable();
    isolate_site_pair(&mut plan, "mirror-a", "reader", 3);
    net.set_fault_plan(plan);
    let (bytes, fetch) = cluster
        .fetch(&net, "reader", "/runs/m1/history.json")
        .expect("failover read succeeds");
    assert_eq!(bytes, content);
    assert_ne!(fetch.served_by, "mirror-a");
    assert!(fetch.attempts >= 2, "no failover happened");
}

/// Portal integration: a finished run's trace and NSDS capture land in
/// the attached archive and stream back over the wire under the tenant
/// isolation gate. An artifact larger than one reply frame streams back
/// chunk by chunk, and the client checks the whole-artifact CRC-32.
#[test]
fn portal_runs_archive_their_artifacts_and_stream_them_back() {
    let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(61));
    let ca = CertificateAuthority::nees(61);
    let portal = Portal::serve(
        &net,
        "portal",
        ca.verifier(),
        Arc::new(MemoryCheckpointStore::new()),
        PortalConfig::default(),
    )
    .expect("portal node is fresh");
    let archive = ArchiveSite::attach(
        &net,
        "repository",
        VirtualStore::new(),
        StripeConfig::default(),
        &Telemetry::disabled(),
    )
    .expect("archive attaches");
    portal.attach_archive(archive.clone());

    let client = PortalClient::connect(&net, "client", "portal").expect("client connects");
    let issue = |name: &str, seed: u64| {
        Credential::issue(
            &ca,
            DistinguishedName::nees_user("REMOTE", name),
            SimTime::ZERO,
            SimTime::from_secs(6 * 3600),
            seed,
        )
    };
    let login = |cred: &Credential| {
        let reply = client
            .call_as(
                cred.identity(),
                Request::Login {
                    token: cred.token(),
                },
            )
            .expect("login round-trips");
        assert!(matches!(reply, Response::Session { .. }), "login refused");
    };
    let alice = issue("alice", 1);
    let bob = issue("bob", 2);
    login(&alice);
    login(&bob);
    let spec = ExperimentSpec::basic(2, 30, 7, 5);
    let run = match client
        .call_as(alice.identity(), Request::Submit { spec })
        .expect("submit round-trips")
    {
        Response::Submitted { run, .. } => run,
        other => panic!("submission refused: {other:?}"),
    };
    portal.drain();

    // The sealed trajectory came back through the archive byte-identical
    // to what Fetch serves from portal memory.
    let portal_digest = match client
        .call_as(alice.identity(), Request::Fetch { run: run.clone() })
        .expect("fetch round-trips")
    {
        Response::History { digest, .. } => digest,
        other => panic!("fetch refused: {other:?}"),
    };
    let alice_client = client.clone().with_tenant(alice.identity().clone());
    let (history_bytes, history_digest) = alice_client
        .fetch_artifact(&run, "history.json")
        .expect("archived history streams back");
    assert_eq!(neesgrid::repo::crc32(&history_bytes), portal_digest);
    assert_eq!(history_digest, portal_digest);

    // The NSDS capture decodes and every sample sits in the run's own
    // channel namespace.
    let (capture_bytes, _) = alice_client
        .fetch_artifact(&run, "capture.jsonl")
        .expect("archived capture streams back");
    let samples =
        neesgrid::daq::decode_jsonl(&capture_bytes).expect("capture is well-formed JSONL");
    assert!(!samples.is_empty(), "run streamed no samples");
    assert!(samples
        .iter()
        .all(|s| s.channel.starts_with(&format!("{run}/"))));

    // The artifacts live in the archive's CAS under the run's namespace,
    // ready for the replica manager to mirror off-site.
    assert!(archive
        .cas()
        .manifests()
        .iter()
        .any(|m| m == &format!("/runs/{run}/capture.jsonl")));

    // An artifact spanning several reply frames streams back whole.
    let now = net.clock().now();
    let bulk_name = format!("/runs/{run}/bulk.bin");
    let bulk = payload(2 * ARTIFACT_CHUNK_MAX + 12_345);
    archive.ingest_local(&bulk_name, &bulk, now);
    let (bulk_bytes, bulk_digest) = alice_client
        .fetch_artifact(&run, "bulk.bin")
        .expect("multi-chunk artifact streams back");
    assert_eq!(bulk_bytes, bulk.to_vec());
    assert_eq!(bulk_digest, neesgrid::repo::crc32(&bulk));

    // The portal serves each chunk from the blocks under it; the
    // whole-artifact CRC is the client's check, so a manifest whose digest
    // does not match its blocks is refused once the last chunk is in.
    let mut wrong = archive.cas().manifest(&bulk_name).expect("manifest stored");
    wrong.digest ^= 1;
    archive.cas().put_manifest(&wrong, now);
    match alice_client.fetch_artifact(&run, "bulk.bin") {
        Err(ClientError::Refused(why)) => assert!(why.contains("digest mismatch"), "{why}"),
        other => panic!("a wrong digest must be refused, got {other:?}"),
    }

    // Tenant isolation holds on the new verb: bob cannot stream alice's
    // artifacts.
    let bob_client = client.clone().with_tenant(bob.identity().clone());
    assert!(bob_client.fetch_artifact(&run, "history.json").is_err());
}

/// Each site's `CasStats` is its own `cas.*{site}` registry counters, even
/// with two sites recording into one telemetry: one site ingests an
/// artifact twice (the second ingest fully deduplicated), the other once.
#[test]
fn cas_stats_are_each_sites_registry_counters() {
    let net = net(11);
    let telemetry = Telemetry::recording();
    let attach = |name: &str| {
        ArchiveSite::attach(&net, name, VirtualStore::new(), config(), &telemetry)
            .expect("site attaches")
    };
    let (ncsa, uiuc) = (attach("ncsa"), attach("uiuc"));
    ncsa.ingest_local("/runs/a/capture.jsonl", &payload(10_000), SimTime::ZERO);
    ncsa.ingest_local("/runs/b/capture.jsonl", &payload(10_000), SimTime::ZERO);
    uiuc.ingest_local("/runs/c/capture.jsonl", &payload(6_000), SimTime::ZERO);

    let fresh = ncsa.cas().stats();
    assert_eq!(
        fresh.blocks_deduped, fresh.blocks_written,
        "second ingest deduped"
    );
    assert_eq!(fresh.manifests, 2);
    assert_eq!(uiuc.cas().stats().blocks_deduped, 0);
    for site in [&ncsa, &uiuc] {
        let counter = |stat: &str| telemetry.counter(&format!("cas.{stat}{{{}}}", site.name()));
        assert_eq!(
            site.cas().stats(),
            CasStats {
                blocks_written: counter("blocks_written"),
                blocks_deduped: counter("blocks_deduped"),
                bytes_written: counter("bytes_written"),
                bytes_deduped: counter("bytes_deduped"),
                manifests: counter("manifests"),
            },
            "{}",
            site.name()
        );
    }
}
