//! # neesgrid-archive — the experiment data plane
//!
//! The paper's MOST experiment shipped each site's captured data to the
//! central NEESgrid repository with GridFTP (ref 3): parallel TCP streams,
//! restart markers, third-party transfers between sites. This crate
//! reproduces that data plane as a first-class actor on the deterministic
//! event engine:
//!
//! * [`cas`] — a chunked **content-addressed store** layered on
//!   [`neesgrid_repo::VirtualStore`]: blocks keyed by `(crc32, len)`, logical
//!   names bound to manifests, so identical NSDS captures across runs
//!   deduplicate to a single stored copy.
//! * [`stripe`] — the **striped transfer engine**: one manifest's blocks
//!   dealt across several concurrent virtual links with per-stripe flow
//!   control, loss-notice-driven retry/backoff, dead-stripe failover, and
//!   content-addressed restart markers. Entirely in virtual time;
//!   same-seed runs are bit-identical.
//! * [`replica`] — the **replica manager**: a catalog mapping logical
//!   names to site replicas, pluggable placement policies (mirror-k,
//!   nearest-by-link-latency), and latency-ranked read paths.
//! * [`service`] — [`ArchiveCluster`]: glue that ingests an artifact at
//!   its origin site, replicates it per policy, and serves reads with
//!   failover to the next-nearest replica when a site's link is faulted.

pub mod cas;
pub mod replica;
pub mod service;
pub mod stripe;

pub use cas::{BlockKey, BlockRef, CasError, CasStats, CasStore, Manifest};
pub use replica::{PlacementPolicy, ReplicaCatalog, ReplicaEntry};
pub use service::{ArchiveCluster, ArchiveError, FetchReport, IngestReport};
pub use stripe::{ArchiveSite, StripeConfig, TransferFailure, TransferReport, TransferStatus};
