//! # neesgrid-ogsi — OGSI-style grid-service hosting
//!
//! NEESgrid services are "OGSI compliant Grid Services" (paper §2.1) built
//! on the Globus Toolkit 3 container. The OGSI mechanisms the paper calls
//! out — and which this crate provides — are:
//!
//! * **Service data elements** ([`sde::ServiceData`]): named, timestamped,
//!   queryable state fragments. NTCP exposes one SDE per transaction plus a
//!   "most recently changed" SDE for whole-server monitoring.
//! * **Soft-state lifetime management** ([`lifetime::LifetimeManager`]):
//!   leases that expire unless refreshed, so crashed clients can't pin
//!   server state forever.
//! * **Inspection & notification** ([`sde::ServiceData::subscribe`]):
//!   remote observers watch SDE changes without polling.
//! * A **hosting container** ([`container::ServiceContainer`]) that owns a
//!   network endpoint, authenticates callers against established GSI
//!   security contexts, and dispatches operations to registered services.
//! * A typed **RPC layer** ([`rpc::RpcMux`]) with correlation-id
//!   multiplexing, timeout/retry, and distinct surfacing of *timeout*
//!   versus *link reset* — the two failure flavours whose different
//!   handling decided MOST's fate (§3.4).
//! * A reusable [`dedup::DedupCache`] giving services at-most-once
//!   execution under client retry.

pub mod container;
pub mod dedup;
pub mod fault;
pub mod lifetime;
pub mod rpc;
pub mod sde;
pub mod service;

pub use container::{AttachedContainer, ServiceContainer};
pub use dedup::DedupCache;
pub use fault::ServiceFault;
pub use lifetime::{Lease, LifetimeManager};
pub use rpc::{
    wait_all, RetryPolicy, RpcClient, RpcCompletion, RpcError, RpcMux, RpcReply, RpcRequest,
    RpcResponse,
};
pub use sde::{SdeChange, ServiceData, ServiceDataElement};
pub use service::{CallContext, GridService};
