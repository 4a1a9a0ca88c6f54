//! # neesgrid-repo — the NEESgrid data and metadata repository
//!
//! Figure 3's architecture, in full:
//!
//! * [`storage`] — the repository's backing store (virtual, in-memory,
//!   checksummed).
//! * [`cas`] — the content-addressed block store layered on it: blocks
//!   keyed by `(crc32, len)`, files named by manifests, and the restart
//!   marker a receiver computes from the blocks it already holds.
//! * [`stripe`] — GridFTP, the one data plane every bulk byte rides: a
//!   manifest's blocks striped across parallel virtual links, with retry,
//!   failover, and restart from the receiver's coverage.
//! * [`metadata`] + [`nmds`] — the **NEESgrid Metadata Service**: metadata
//!   objects with *first-class schemas* ("metadata schemas are represented
//!   by first-class objects and can be managed just like any other
//!   object"), per-object version control, and per-object authorization
//!   with CAS capability-assertion support (the §3.3 follow-on).
//! * [`nfms`] — the **NEESgrid File Management Service**: logical file
//!   naming and transport neutrality; its catalog is the store's CAS
//!   manifests, and a logical file exists once an authenticated caller
//!   commits blocks the store holds.
//! * [`ingest`] — the ingestion tool, the repository's upload client, that
//!   archives data and metadata incrementally *while the experiment runs*.
//! * [`https_bridge`] — "a servlet that acts as a bridge between GridFTP
//!   and https", giving browser-grade clients (CHEF) read access.
//! * [`service`] — OGSI `GridService` wrappers so remote sites reach NMDS
//!   and NFMS over the grid network.

pub mod cas;
pub mod checksum;
pub mod https_bridge;
pub mod ingest;
pub mod metadata;
pub mod nfms;
pub mod nmds;
pub mod service;
pub mod storage;
pub mod stripe;

pub use cas::{CasStore, Manifest, RestartMarker};
pub use checksum::{crc32, crc32_combine, from_hex, to_hex};
pub use https_bridge::HttpsBridge;
pub use ingest::{IngestError, Ingester};
pub use metadata::{MetadataObject, Schema};
pub use nfms::{Nfms, TransferTicket};
pub use nmds::Nmds;
pub use service::{NfmsService, NmdsService};
pub use storage::{StoredFile, VirtualStore};
pub use stripe::{ArchiveSite, StripeConfig, TransferStatus};
