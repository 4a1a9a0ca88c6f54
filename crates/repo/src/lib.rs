//! # neesgrid-repo — the NEESgrid data and metadata repository
//!
//! Figure 3's architecture, in full:
//!
//! * [`storage`] — the repository's backing store (virtual, in-memory,
//!   checksummed).
//! * [`metadata`] + [`nmds`] — the **NEESgrid Metadata Service**: metadata
//!   objects with *first-class schemas* ("metadata schemas are represented
//!   by first-class objects and can be managed just like any other
//!   object"), per-object version control, and per-object authorization
//!   with CAS capability-assertion support (the §3.3 follow-on).
//! * [`nfms`] — the **NEESgrid File Management Service**: logical file
//!   naming and transport neutrality; transfers are negotiated, and a
//!   plug-in API admits transports beyond GridFTP.
//! * [`gridftp`] — GridFTP restart markers (shared with the archive's
//!   striped transfer engine) and NFMS's upload assembler: blocks in any
//!   order, per-block and whole-file CRC-32s.
//! * [`ingest`] — the ingestion tool, the repository's NFMS/NMDS client,
//!   that archives data and metadata incrementally *while the experiment
//!   runs*.
//! * [`https_bridge`] — "a servlet that acts as a bridge between GridFTP
//!   and https", giving browser-grade clients (CHEF) read access.
//! * [`service`] — OGSI `GridService` wrappers so remote sites reach NMDS
//!   and NFMS over the grid network.

pub mod checksum;
pub mod gridftp;
pub mod https_bridge;
pub mod ingest;
pub mod metadata;
pub mod nfms;
pub mod nmds;
pub mod service;
pub mod storage;

pub use checksum::{crc32, crc32_combine, from_hex, to_hex};
pub use gridftp::RestartMarker;
pub use https_bridge::HttpsBridge;
pub use ingest::Ingester;
pub use metadata::{MetadataObject, Schema};
pub use nfms::{Nfms, TransferTicket};
pub use nmds::Nmds;
pub use service::{NfmsService, NmdsService};
pub use storage::{StoredFile, VirtualStore};
