//! # neesgrid-ntcp — the NEESgrid Teleoperation Control Protocol
//!
//! The paper's primary contribution (§2.1): a single Grid-service interface
//! for driving *either* a physical experiment's control system *or* a
//! computational simulation — "from the perspective of a hybrid experiment,
//! a physical experiment and a computational simulation are
//! indistinguishable."
//!
//! The protocol is transaction-based (after Gray [ref 9]):
//!
//! 1. **propose** — the client submits a named transaction with a set of
//!    requested control-point actions; the server checks site policy and
//!    asks its control plugin whether the actions are feasible, then
//!    accepts or rejects *before anything moves*. (You cannot "undo" a
//!    physical action without rebuilding the specimen.)
//! 2. **execute** — the client commits an accepted transaction; the plugin
//!    drives the local control system or simulation and reports measured
//!    results.
//! 3. **cancel** — an accepted-but-unexecuted transaction can be withdrawn.
//!
//! Requests are **at-most-once**: retransmitted requests (same request id)
//! replay the remembered response instead of re-executing — the property
//! that let MOST survive "several transient network failures throughout the
//! day".
//!
//! Each transaction is exposed as an OGSI service data element carrying its
//! state, requested actions, timeouts, results, and per-state-change
//! timestamps (Figure 1's state machine is [`transaction::TxState`]);
//! a `mostRecentlyChanged` SDE monitors the server as a whole.
//!
//! The server core is generic; site specifics live behind the
//! [`plugin::ControlPlugin`] interface (Figure 2) — implementations here
//! cover the numerical-simulation plugin and the buffered/polled "Mplugin"
//! used at NCSA and CU; the Shore-Western and LabVIEW hardware bridges live
//! in `neesgrid-apparatus` next to the rigs they drive.

/// Coordinator-side NTCP client: retried RPC calls with stable request ids.
pub mod client;
/// Wire types: control points, results, proposal decisions.
pub mod msg;
/// The [`plugin::ControlPlugin`] site abstraction and its implementations.
pub mod plugin;
/// The transaction server: policy checks, dedup, snapshot/restore.
pub mod server;
/// The Figure 1 transaction state machine.
pub mod transaction;

pub use client::{NtcpClient, NtcpError};
pub use msg::{ControlPoint, ControlPointResult, ProposalDecision};
pub use plugin::{
    BufferedPlugin, ControlPlugin, ExecuteOutcome, HumanApprovalPlugin, PluginError,
    SimulationPlugin,
};
pub use server::NtcpServer;
pub use transaction::{Transaction, TxState};
