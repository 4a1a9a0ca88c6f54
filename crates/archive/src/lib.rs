//! # neesgrid-archive — replicated experiment archives
//!
//! The paper's MOST experiment shipped each site's captured data to the
//! central NEESgrid repository with GridFTP (ref 3): parallel TCP streams,
//! restart markers, third-party transfers between sites. The data plane
//! itself — the content-addressed store and the striped transfer engine —
//! lives in `neesgrid-repo`, where NFMS uploads ride it too; this crate
//! re-exports it and adds replication on top:
//!
//! * [`cas`] — the chunked **content-addressed store** over a
//!   [`neesgrid_repo::VirtualStore`]: blocks keyed by `(crc32, len)`,
//!   logical names bound to manifests, so identical NSDS captures across
//!   runs deduplicate to a single stored copy.
//! * [`stripe`] — the **striped transfer engine**: one manifest's blocks
//!   dealt across several concurrent virtual links with per-stripe flow
//!   control, loss-notice-driven retry/backoff, dead-stripe failover, and
//!   content-addressed restart markers. Entirely in virtual time;
//!   same-seed runs are bit-identical.
//! * [`replica`] — the **replica manager**: a catalog mapping logical
//!   names to site replicas, pluggable placement policies (mirror-k,
//!   nearest-by-link-latency), and latency-ranked read paths.
//! * [`service`] — [`ArchiveCluster`]: glue that ingests an artifact at
//!   its origin site, replicates it per policy, names each replica, and
//!   serves reads with failover to the next-nearest replica when a site's
//!   link is faulted.

pub use neesgrid_repo::{cas, stripe};

pub mod replica;
pub mod service;

pub use cas::{BlockKey, BlockRef, CasError, CasStats, CasStore, Manifest, RestartMarker};
pub use replica::{PlacementPolicy, ReplicaCatalog, ReplicaEntry};
pub use service::{ArchiveCluster, ArchiveError, FetchReport, IngestReport};
pub use stripe::{ArchiveSite, StripeConfig, TransferFailure, TransferReport, TransferStatus};
