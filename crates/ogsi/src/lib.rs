//! # neesgrid-ogsi — OGSI-style grid-service hosting
//!
//! NEESgrid services are "OGSI compliant Grid Services" (paper §2.1) built
//! on the Globus Toolkit 3 container. This crate provides the OGSI
//! mechanisms the reproduced experiments use:
//!
//! * **Service data elements** ([`sde::ServiceData`]): named, timestamped,
//!   queryable state fragments. NTCP exposes one SDE per transaction plus a
//!   "most recently changed" SDE for whole-server monitoring, and observers
//!   inspect them through `ogsi:query` and `ogsi:mostRecentlyChanged`.
//! * A **hosting container** ([`container::ServiceContainer`]) that owns a
//!   network endpoint, authenticates callers against established GSI
//!   security contexts, and dispatches operations to registered services.
//! * A typed **RPC layer** ([`rpc::RpcMux`]) with correlation-id
//!   multiplexing, timeout/retry, and distinct surfacing of *timeout*
//!   versus *link reset* — the two failure flavours whose different
//!   handling decided MOST's fate (§3.4).
//! * A [`service::CallContext`] per request naming the caller, the client
//!   node it came from and its request id: what a service needs for
//!   at-most-once replies under client retry (NTCP keeps one window per
//!   client node).
//!
//! OGSI's soft-state lifetimes and change notification are not
//! reproduced: no reproduced experiment depends on them, and the CHEF
//! viewers watch data through NSDS subscriptions, not SDE changes. NTCP
//! ends its transactions by protocol instead of by lease: a settled
//! transaction is retired once its client's next request proves it
//! holds the answer.

pub mod container;
pub mod fault;
pub mod rpc;
pub mod sde;
pub mod service;

pub use container::{AttachedContainer, ServiceContainer};
pub use fault::ServiceFault;
pub use rpc::{
    wait_all, RetryPolicy, RpcClient, RpcCompletion, RpcError, RpcMux, RpcReply, RpcRequest,
    RpcResponse,
};
pub use sde::{ServiceData, ServiceDataElement};
pub use service::{CallContext, GridService};
