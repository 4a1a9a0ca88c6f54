//! # neesgrid-gridsim — virtual grid substrate
//!
//! The NEESgrid deployment described in the paper ran over a real wide-area
//! network linking UIUC, the University of Colorado, and NCSA. The observable
//! properties of that substrate — message latency, transient loss, connection
//! resets, and partitions — are what the NTCP fault-tolerance machinery was
//! designed around. This crate reproduces exactly those observables in
//! software:
//!
//! * [`SimTime`] / [`SimClock`] — virtual experiment time, decoupled from
//!   wall-clock time so a "five hour" experiment replays in milliseconds.
//! * [`VirtualNetwork`] — a router connecting named [`Endpoint`]s with
//!   per-link [`LatencyModel`]s and byte-counted, serialized envelopes.
//! * [`FaultPlan`] — deterministic fault injection keyed by per-link message
//!   index (never wall-clock), so a failure history such as MOST's
//!   "public run terminated at step 1493" replays exactly.
//!
//! Determinism contract: given the same topology, fault plan, and seed, every
//! run delivers/drops/resets exactly the same set of messages, in the same
//! order. Every node consumes its traffic through an [`EventEngine`]
//! handler, and one thread pumps the engine, so a run's event order — and
//! with it the virtual clock — is a pure function of its inputs.

/// The deterministic discrete-event engine (deliveries + virtual timers).
pub mod event;
/// Scripted per-link fault plans (drop, duplicate, delay, partition).
pub mod fault;
/// Deterministic per-link latency models.
pub mod latency;
/// Envelopes and control notices carried by the virtual network.
pub mod message;
/// The virtual network router and its endpoints.
pub mod network;
/// Node identifiers.
pub mod node;
/// Named network-condition presets (LAN / campus-WAN / lossy-WAN).
pub mod profile;
/// Per-link and network-wide delivery statistics.
pub mod stats;
/// Virtual time: [`time::SimTime`], [`time::SimClock`].
pub mod time;

pub use event::{EventEngine, TimerId};
pub use fault::{FaultAction, FaultPlan, LinkKey, RateFault};
pub use latency::LatencyModel;
pub use message::{ControlNotice, Envelope, MessageKind};
pub use network::{Endpoint, NetworkConfig, NetworkError, VirtualNetwork};
pub use node::NodeId;
pub use profile::NetworkProfile;
pub use stats::{LinkStats, NetworkStats};
pub use time::{SimClock, SimTime};
