//! [`ArchiveCluster`]: ingest, replication, and failover reads across a
//! set of archive sites.
//!
//! The cluster is the driver's-eye view of the data plane: it owns the
//! replica catalog, applies the placement policy when an artifact is
//! ingested, and pumps the shared event engine until the resulting
//! striped transfers resolve. Reads are served from the nearest replica
//! and **fail over** to the next-nearest when a site's links are faulted
//! — the deterministic analogue of the paper's repository mirroring.

use std::collections::BTreeMap;

use bytes::Bytes;

use neesgrid_gridsim::{FaultPlan, LatencyModel, LinkKey, NetworkError, SimTime, VirtualNetwork};
use neesgrid_repo::VirtualStore;
use neesgrid_telemetry::{Field, Telemetry};

use crate::cas::CasError;
use crate::replica::{PlacementPolicy, ReplicaCatalog};
use crate::stripe::{lane_node, ArchiveSite, StripeConfig, TransferFailure, TransferStatus};

/// Why a cluster operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// No archive site with that name is attached.
    UnknownSite(String),
    /// The catalog has no entry for that logical name.
    UnknownLogical(String),
    /// Every replica of the artifact was unreachable or corrupt.
    NoReplicas(String),
    /// A replication transfer failed outright.
    TransferFailed {
        /// Sending site.
        src: String,
        /// Receiving site.
        dst: String,
        /// Terminal failure reported by the transfer engine.
        why: TransferFailure,
    },
    /// The local store rejected the artifact.
    Cas(CasError),
    /// The engine went idle with transfers still unresolved — a protocol
    /// bug, surfaced loudly rather than spun on.
    Stalled,
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::UnknownSite(s) => write!(f, "unknown archive site {s}"),
            ArchiveError::UnknownLogical(l) => write!(f, "unknown logical name {l}"),
            ArchiveError::NoReplicas(l) => write!(f, "no reachable replica of {l}"),
            ArchiveError::TransferFailed { src, dst, why } => {
                write!(f, "transfer {src} -> {dst} failed: {why}")
            }
            ArchiveError::Cas(e) => write!(f, "cas error: {e}"),
            ArchiveError::Stalled => write!(f, "engine idle with transfers unresolved"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<CasError> for ArchiveError {
    fn from(e: CasError) -> Self {
        ArchiveError::Cas(e)
    }
}

/// Outcome of [`ArchiveCluster::ingest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Logical name ingested.
    pub logical: String,
    /// Whole-artifact CRC.
    pub digest: u32,
    /// Artifact length.
    pub total_len: u64,
    /// Site that chunked the original bytes.
    pub origin: String,
    /// Sites that now hold a named replica (excluding the origin).
    pub replicas: Vec<String>,
    /// Replication pushes that failed terminally, with why.
    pub failed: Vec<(String, TransferFailure)>,
    /// Virtual time the replication fan-out took.
    pub elapsed: SimTime,
}

/// Outcome of [`ArchiveCluster::fetch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchReport {
    /// Replica that ultimately served the read.
    pub served_by: String,
    /// Replicas tried (1 = nearest worked first time).
    pub attempts: u32,
    /// Artifact length.
    pub total_len: u64,
    /// Whole-artifact CRC, verified against the catalog entry.
    pub digest: u32,
}

/// A set of archive sites sharing one virtual network, plus the replica
/// catalog and placement policy that tie them into a coherent archive.
pub struct ArchiveCluster {
    sites: BTreeMap<String, ArchiveSite>,
    catalog: ReplicaCatalog,
    policy: PlacementPolicy,
    config: StripeConfig,
    telemetry: Telemetry,
}

impl ArchiveCluster {
    /// A cluster with no sites yet.
    pub fn new(policy: PlacementPolicy, config: StripeConfig, telemetry: Telemetry) -> Self {
        ArchiveCluster {
            sites: BTreeMap::new(),
            catalog: ReplicaCatalog::new(),
            policy,
            config,
            telemetry,
        }
    }

    /// Attach a new archive site backed by `store`.
    pub fn add_site(
        &mut self,
        net: &VirtualNetwork,
        name: &str,
        store: VirtualStore,
    ) -> Result<(), NetworkError> {
        let site = ArchiveSite::attach(net, name, store, self.config.clone(), &self.telemetry)?;
        self.sites.insert(name.to_string(), site);
        Ok(())
    }

    /// The site named `name`, if attached.
    pub fn site(&self, name: &str) -> Option<&ArchiveSite> {
        self.sites.get(name)
    }

    /// The replica catalog.
    pub fn catalog(&self) -> &ReplicaCatalog {
        &self.catalog
    }

    /// Attached site names, sorted.
    pub fn site_names(&self) -> Vec<String> {
        self.sites.keys().cloned().collect()
    }

    /// Per-site CAS digests — the determinism oracle: two same-seed runs
    /// of the same workload must produce identical maps.
    pub fn store_digests(&self) -> BTreeMap<String, u32> {
        self.sites
            .iter()
            .map(|(name, site)| (name.clone(), site.cas().store_digest()))
            .collect()
    }

    /// Ingest `content` under `logical` at `origin`, then replicate it
    /// according to the placement policy, pumping the engine until every
    /// push resolves. Failed pushes are reported, not fatal — the
    /// artifact is cataloged wherever it landed.
    pub fn ingest(
        &mut self,
        net: &VirtualNetwork,
        origin: &str,
        logical: &str,
        content: &Bytes,
    ) -> Result<IngestReport, ArchiveError> {
        let origin_site = self
            .sites
            .get(origin)
            .ok_or_else(|| ArchiveError::UnknownSite(origin.to_string()))?
            .clone();
        let started = net.clock().now();
        let manifest = origin_site.ingest_local(logical, content, started);
        let candidates = self.site_names();
        let targets = self.policy.place(net, origin, &candidates);
        let pushes: Vec<(String, u64)> = targets
            .iter()
            .map(|dst| (dst.clone(), origin_site.start_push(dst, manifest.clone())))
            .collect();
        self.pump(net, &origin_site, pushes.iter().map(|(_, id)| *id))?;
        let mut replicas = Vec::new();
        let mut failed = Vec::new();
        for (dst, id) in pushes {
            match origin_site.status(id) {
                Some(TransferStatus::Completed(_)) => {
                    // The push landed the blocks; the cluster names them.
                    self.sites[&dst]
                        .cas()
                        .put_manifest(&manifest, net.clock().now());
                    self.catalog
                        .record(logical, manifest.digest, manifest.total_len, &dst);
                    replicas.push(dst);
                }
                Some(TransferStatus::Failed(why)) => failed.push((dst, why)),
                _ => return Err(ArchiveError::Stalled),
            }
        }
        self.catalog
            .record(logical, manifest.digest, manifest.total_len, origin);
        let elapsed = net.clock().now() - started;
        self.telemetry.instant(
            net.clock().now().as_nanos(),
            "archive",
            "ingest",
            [
                ("logical", Field::Str(logical.to_string())),
                ("replicas", Field::U64(replicas.len() as u64)),
                ("failed", Field::U64(failed.len() as u64)),
            ],
        );
        Ok(IngestReport {
            logical: logical.to_string(),
            digest: manifest.digest,
            total_len: manifest.total_len,
            origin: origin.to_string(),
            replicas,
            failed,
            elapsed,
        })
    }

    /// Read `logical` at `reader`, pulling it from the nearest replica
    /// first and failing over outward when a replica's links are down.
    /// On success the reader itself becomes a replica (pull-through
    /// caching), which is recorded in the catalog.
    pub fn fetch(
        &mut self,
        net: &VirtualNetwork,
        reader: &str,
        logical: &str,
    ) -> Result<(Bytes, FetchReport), ArchiveError> {
        let reader_site = self
            .sites
            .get(reader)
            .ok_or_else(|| ArchiveError::UnknownSite(reader.to_string()))?
            .clone();
        let entry = self
            .catalog
            .entry(logical)
            .ok_or_else(|| ArchiveError::UnknownLogical(logical.to_string()))?
            .clone();
        let order = PlacementPolicy::read_order(net, reader, &entry.sites);
        for (tried, replica) in order.into_iter().enumerate() {
            let attempts = tried as u32 + 1;
            if replica == reader {
                if let Ok(content) = reader_site.cas().read(logical) {
                    return Ok((
                        content,
                        FetchReport {
                            served_by: replica,
                            attempts,
                            total_len: entry.total_len,
                            digest: entry.digest,
                        },
                    ));
                }
                continue;
            }
            let Some(src_site) = self.sites.get(&replica).cloned() else {
                continue;
            };
            let Some(manifest) = src_site.cas().manifest(logical) else {
                continue;
            };
            let id = src_site.start_push(reader, manifest.clone());
            self.pump(net, &src_site, [id])?;
            match src_site.status(id) {
                Some(TransferStatus::Completed(_)) => {
                    let content = reader_site.cas().assemble(&manifest)?;
                    reader_site.cas().put_manifest(&manifest, net.clock().now());
                    self.catalog
                        .record(logical, entry.digest, entry.total_len, reader);
                    return Ok((
                        content,
                        FetchReport {
                            served_by: replica,
                            attempts,
                            total_len: entry.total_len,
                            digest: entry.digest,
                        },
                    ));
                }
                Some(TransferStatus::Failed(_)) => {
                    self.telemetry.instant(
                        net.clock().now().as_nanos(),
                        "archive",
                        "fetch_failover",
                        [
                            ("logical", Field::Str(logical.to_string())),
                            ("from", Field::Str(replica.clone())),
                        ],
                    );
                    continue;
                }
                _ => return Err(ArchiveError::Stalled),
            }
        }
        Err(ArchiveError::NoReplicas(logical.to_string()))
    }

    /// Run the engine until every listed transfer on `site` is terminal.
    /// Errors with [`ArchiveError::Stalled`] if the engine runs out of work
    /// first.
    fn pump(
        &self,
        net: &VirtualNetwork,
        site: &ArchiveSite,
        ids: impl IntoIterator<Item = u64>,
    ) -> Result<(), ArchiveError> {
        let ids: Vec<u64> = ids.into_iter().collect();
        let resolved = net.engine().run_until(|| {
            ids.iter().all(|id| {
                matches!(
                    site.status(*id),
                    Some(TransferStatus::Completed(_)) | Some(TransferStatus::Failed(_)) | None
                )
            })
        });
        resolved.then_some(()).ok_or(ArchiveError::Stalled)
    }
}

/// Set the latency model for every link `a → b` uses to talk to `b`'s
/// archive site: the control link plus all `lanes` stripe links.
pub fn set_site_link(net: &VirtualNetwork, a: &str, b: &str, lanes: u32, model: LatencyModel) {
    net.set_link_latency(LinkKey::new(a, b), model.clone());
    for q in 0..lanes {
        net.set_link_latency(
            LinkKey::new(lane_node(a, q), lane_node(b, q)),
            model.clone(),
        );
    }
}

/// Partition every archive link between `a` and `b` (both directions,
/// control plus all stripes) from message index 0 onward — the "site
/// dropped off the WAN" fault used by the failover tests.
pub fn isolate_site_pair(plan: &mut FaultPlan, a: &str, b: &str, lanes: u32) {
    use neesgrid_gridsim::fault::PartitionWindow;
    let mut cut = |src: String, dst: String| {
        plan.partition(PartitionWindow {
            link: LinkKey::new(src, dst),
            from_index: 0,
            to_index: u64::MAX,
        });
    };
    cut(a.to_string(), b.to_string());
    cut(b.to_string(), a.to_string());
    for q in 0..lanes {
        cut(lane_node(a, q), lane_node(b, q));
        cut(lane_node(b, q), lane_node(a, q));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_gridsim::NetworkConfig;

    fn cluster(net: &VirtualNetwork, names: &[&str], policy: PlacementPolicy) -> ArchiveCluster {
        let mut c = ArchiveCluster::new(
            policy,
            StripeConfig {
                lanes: 2,
                chunk_size: 1024,
            },
            Telemetry::disabled(),
        );
        for n in names {
            c.add_site(net, n, VirtualStore::new())
                .expect("site attaches");
        }
        c
    }

    fn net(seed: u64) -> VirtualNetwork {
        VirtualNetwork::new(NetworkConfig {
            default_latency: LatencyModel::Fixed(SimTime::from_millis(10)),
            seed,
        })
    }

    fn payload(n: usize) -> Bytes {
        // Mixed so chunk-aligned blocks are all distinct (see cas tests).
        Bytes::from(
            (0..n)
                .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn ingest_replicates_to_k_sites() {
        let net = net(1);
        let mut c = cluster(
            &net,
            &["a", "b", "c", "d"],
            PlacementPolicy::MirrorK { k: 2 },
        );
        let content = payload(5_000);
        let report = c.ingest(&net, "a", "/runs/x", &content).expect("ingest");
        assert_eq!(report.replicas, vec!["b".to_string(), "c".to_string()]);
        assert!(report.failed.is_empty());
        assert_eq!(c.catalog().sites("/runs/x"), vec!["a", "b", "c"]);
        assert_eq!(c.site("b").unwrap().cas().read("/runs/x").unwrap(), content);
        assert_eq!(c.site("c").unwrap().cas().read("/runs/x").unwrap(), content);
        assert!(c.site("d").unwrap().cas().read("/runs/x").is_err());
    }

    #[test]
    fn fetch_serves_local_replica_without_traffic() {
        let net = net(2);
        let mut c = cluster(&net, &["a", "b"], PlacementPolicy::MirrorK { k: 1 });
        let content = payload(2_000);
        c.ingest(&net, "a", "/runs/x", &content).expect("ingest");
        let (bytes, report) = c.fetch(&net, "a", "/runs/x").expect("fetch");
        assert_eq!(bytes, content);
        assert_eq!(report.served_by, "a");
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn fetch_fails_over_to_farther_replica_when_nearest_is_cut() {
        let net = net(3);
        // k = 1 keeps the reader replica-free: name order places on "b"
        // only, so the read must come over the wire.
        let mut c = cluster(
            &net,
            &["a", "b", "reader"],
            PlacementPolicy::MirrorK { k: 1 },
        );
        // a is close to the reader, b far — a would be tried first.
        set_site_link(
            &net,
            "a",
            "reader",
            2,
            LatencyModel::Fixed(SimTime::from_millis(5)),
        );
        set_site_link(
            &net,
            "b",
            "reader",
            2,
            LatencyModel::Fixed(SimTime::from_millis(60)),
        );
        let content = payload(4_000);
        c.ingest(&net, "a", "/runs/x", &content).expect("ingest");
        // Now cut the reader off from a entirely.
        let mut plan = FaultPlan::reliable();
        isolate_site_pair(&mut plan, "a", "reader", 2);
        net.set_fault_plan(plan);
        let (bytes, report) = c.fetch(&net, "reader", "/runs/x").expect("fetch");
        assert_eq!(bytes, content);
        assert_eq!(report.served_by, "b");
        assert!(report.attempts >= 2);
        // Pull-through: the reader is now a replica itself.
        assert!(c.catalog().sites("/runs/x").contains(&"reader".to_string()));
    }

    #[test]
    fn fetch_unknown_logical_errors() {
        let net = net(4);
        let mut c = cluster(&net, &["a"], PlacementPolicy::MirrorK { k: 0 });
        assert_eq!(
            c.fetch(&net, "a", "/nope"),
            Err(ArchiveError::UnknownLogical("/nope".to_string()))
        );
    }

    #[test]
    fn same_seed_cluster_runs_are_bit_identical() {
        let run = |seed: u64| {
            let net = net(seed);
            let mut c = cluster(&net, &["a", "b", "c"], PlacementPolicy::MirrorK { k: 2 });
            c.ingest(&net, "a", "/runs/x", &payload(6_000))
                .expect("ingest");
            c.ingest(&net, "b", "/runs/y", &payload(3_000))
                .expect("ingest");
            (c.store_digests(), net.clock().now())
        };
        assert_eq!(run(9), run(9));
    }
}
