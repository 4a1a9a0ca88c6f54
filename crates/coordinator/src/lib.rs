//! # neesgrid-coordinator — the MS-PSDS simulation coordinator
//!
//! The component at the left edge of the paper's Figure 9: "A Simulation
//! Coordinator provides overall management of the experiment. This
//! component repeatedly issues a set of NTCP proposals based on current
//! simulation state, collects information about the resulting state of all
//! the substructures, and, based on that resulting state, computes the next
//! set of NTCP commands to send. The coordinator also handles exceptions
//! such as lost network connections or invalid responses."
//!
//! * [`policy`] — fault-tolerance policies. [`policy::FaultPolicy::Full`]
//!   retries every transient failure (what NTCP supports);
//!   [`policy::FaultPolicy::Partial`] retries timeouts but treats a link
//!   reset as fatal — the exact gap that ended the MOST public run at step
//!   1493 of 1500 (§3.4: "the simulation coordinator had not been coded to
//!   take advantage of all the fault-tolerance features").
//! * [`coordinator`] — the per-step propose-all → execute-all → integrate
//!   loop, with parallel fan-out to all sites, an experiment event log,
//!   and an outcome report.
//! * [`builder`] — a construction facade with the ergonomics of the MATLAB
//!   toolbox the experiment's earthquake engineer actually used (§3.1).

/// MATLAB-toolbox-style construction facade for hybrid experiments.
pub mod builder;
/// The multi-site simulation coordinator (the MOST NTCP client).
pub mod coordinator;
/// The per-step experiment log and its JSONL archival form.
pub mod log;
/// Retry/abort policy for transient site and network faults.
pub mod policy;

pub use builder::SimCoordBuilder;
pub use coordinator::{
    CheckpointHook, CoordinatorState, ExperimentOutcome, SimulationCoordinator, SiteHandle,
    SliceOutcome, StepRecord, Termination,
};
pub use log::{EventKind, ExperimentLog, LogEvent};
pub use policy::FaultPolicy;
