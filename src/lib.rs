//! # neesgrid — umbrella crate
//!
//! A Rust reproduction of the NEESgrid distributed hybrid earthquake-
//! engineering experiment framework described in *"Distributed Hybrid
//! Earthquake Engineering Experiments: Experiences with a Ground-Shaking
//! Grid Application"* (Pearlman et al., HPDC-13, 2004).
//!
//! This crate re-exports every subsystem crate under one roof so examples,
//! integration tests, and downstream users can depend on a single package:
//!
//! * [`gridsim`] — virtual WAN, virtual time, deterministic fault injection
//! * [`gsi`] — simulated Grid Security Infrastructure + community authz
//! * [`ogsi`] — OGSI-style grid-service container (SDEs, soft state)
//! * [`ntcp`] — the NEESgrid Teleoperation Control Protocol (the paper's
//!   primary contribution)
//! * [`structsim`] — structural dynamics, pseudo-dynamic substructure testing
//! * [`apparatus`] — emulated servo-hydraulic rigs, sensors, specimens
//! * [`daq`] — data acquisition + NSDS streaming
//! * [`repo`] — NMDS metadata, NFMS file management, the ingestion tool
//! * [`archive`] — content-addressed experiment archive: dedup block
//!   store, striped virtual-link transfers, replica placement & failover
//! * [`coordinator`] — the MS-PSDS simulation coordinator
//! * [`checkpoint`] — checkpoint & resume: checksummed snapshots so a run
//!   killed mid-experiment (the step-1493 failure) restarts and finishes
//! * [`portal`] — the multi-tenant experiment service: wire API,
//!   admission control + quotas, worker-pool scheduling, streaming
//!   observers, and checkpoint-based crash recovery
//! * [`chef`] — collaboration portal client (chat, notebook, data
//!   viewer, cameras) speaking the portal wire API
//! * [`most`] — the MOST and Mini-MOST experiments end-to-end
//! * [`telemetry`] — virtual-time tracing, metrics, and the flight
//!   recorder whose post-mortem dump explains failures like step 1493
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a minimal hybrid experiment: one NTCP
//! server with a simulation plugin, driven through propose/execute/cancel.

pub use neesgrid_apparatus as apparatus;
pub use neesgrid_archive as archive;
pub use neesgrid_campaign as campaign;
pub use neesgrid_checkpoint as checkpoint;
pub use neesgrid_chef as chef;
pub use neesgrid_coordinator as coordinator;
pub use neesgrid_daq as daq;
pub use neesgrid_gridsim as gridsim;
pub use neesgrid_gsi as gsi;
pub use neesgrid_most as most;
pub use neesgrid_ntcp as ntcp;
pub use neesgrid_ogsi as ogsi;
pub use neesgrid_portal as portal;
pub use neesgrid_repo as repo;
pub use neesgrid_structsim as structsim;
pub use neesgrid_telemetry as telemetry;
