//! # neesgrid-portal — the multi-tenant experiment service
//!
//! The paper's NEESgrid is a *shared facility*: many research groups
//! submit hybrid experiments to the same pool of equipment sites, watch
//! them stream live, and trust the grid middleware to keep tenants out
//! of each other's runs. This crate is that service layer, rebuilt over
//! the deterministic simulation stack:
//!
//! * [`frame`] — the wire protocol: length-prefixed JSON frames, typed
//!   requests/replies, and typed [`frame::Rejection`]s so clients can
//!   branch on *why* they were refused.
//! * [`tenant`] — GSI-backed sessions ([`tenant::TenantDirectory`]):
//!   login by [`neesgrid_gsi::CredentialToken`], ordered roles, and
//!   per-tenant quotas (concurrent runs, lifetime step budget, observer
//!   slots).
//! * [`experiment`] — what a tenant submits
//!   ([`experiment::ExperimentSpec`]) and how a worker runs it
//!   ([`experiment::WorkerRun`]): a private N-site
//!   [`experiment::Deployment`], advanced a slice of steps at a time,
//!   checkpointing into the portal's store.
//! * [`scheduler`] — the bounded submission queue (explicit shed, never
//!   silent drop) and the fixed worker pool.
//! * [`service`] — [`service::Portal`]: the envelope handler, admission
//!   control, the scheduling tick, crash injection
//!   ([`service::Portal::kill_worker`]) and checkpoint-based recovery
//!   that finishes the orphaned run bit-identical.
//! * [`client`] — [`client::PortalClient`]: synchronous request/reply
//!   over the shared event engine; one client node can proxy many
//!   tenant identities.
//!
//! Isolation is structural, not advisory: run streams are namespaced
//! `{run_id}/…` on a hub only the portal touches, and every run-scoped
//! operation resolves ownership through one GSI policy check before
//! anything else happens.

/// Synchronous wire client.
pub mod client;
/// Experiment specs and per-worker run execution.
pub mod experiment;
/// Wire protocol: frames, requests, replies, rejections.
pub mod frame;
/// Bounded submission queue and worker pool.
pub mod scheduler;
/// The portal service: handler, admission, scheduling, recovery.
pub mod service;
/// Sessions, roles, quotas.
pub mod tenant;

pub use client::{ClientError, PortalClient};
pub use experiment::{
    Deployment, ExperimentSpec, LinkProfile, MotionSuite, RunPolicy, RunProgress, SiteKind,
    WorkerRun, DT, MAX_SITES, MAX_STEPS, MAX_TRACED_SITE_STEPS,
};
pub use frame::{
    decode, encode, BoardEntry, FrameError, PortalStats, Rejection, Request, RequestFrame,
    Response, RunReport, RunState, SampleRef, SamplesView, ARTIFACT_CHUNK_MAX, MAX_FRAME_BYTES,
    PORTAL_SERVICE,
};
pub use scheduler::{SubmissionQueue, WorkerPool};
pub use service::{
    Portal, PortalConfig, PortalFaults, TickReport, BOARD_RETENTION, POLL_CHUNK_MAX,
};
pub use tenant::{LoginError, Role, Session, TenantDirectory, TenantQuotas, TenantUsage};
