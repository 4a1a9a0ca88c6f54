//! # neesgrid-most — the MOST and Mini-MOST experiments
//!
//! The paper's case study (§3), end to end: "The Multi-Site Online
//! Simulation Test (MOST) distributed hybrid experiment took place on July
//! 30, 2003 … linked physical experiments in the Newmark Civil Engineering
//! Laboratory at UIUC and at the Structures and Materials Testing
//! Laboratory at CU with a numerical simulation at NCSA."
//!
//! * [`config`] — the two-bay single-story steel frame of Figure 4 as
//!   numbers: masses, column/beam stiffnesses, the 1,500-step ground
//!   motion, site roles.
//! * [`frame_model`] — the monolithic reference model used to validate the
//!   distributed decomposition (experiment E4).
//! * [`runner`] — builds the complete NEESgrid deployment in-process:
//!   virtual WAN, GSI credentials and strict containers, three NTCP sites
//!   with the Figure 9 plugin configuration (Shore-Western bridge at UIUC,
//!   polled "Mplugin" backends at NCSA and CU), DAQ + file-drop + remote
//!   repository ingestion, NSDS streaming into CHEF viewers, and the
//!   simulation coordinator.
//! * [`scenarios`] — the runs of §3.4: simulation-only rehearsal, the dry
//!   run (completes 1500/1500), and the public run (terminates at step
//!   1493 on an unhandled link reset), with deterministic fault schedules.
//! * [`report`] — the paper-vs-measured comparison record.
//! * [`field_test`] — the §5 UCLA field test: wireless sensor arrays,
//!   a mobile command center, and an interruptible satellite uplink.
//! * [`mini`] — Mini-MOST (§3.5): the tabletop stepper-motor rig, its
//!   LabVIEW plugin, and the first-order kinetic simulator stand-in.

pub mod config;
pub mod field_test;
pub mod frame_model;
pub mod mini;
pub mod report;
pub mod runner;
pub mod scenarios;

pub use config::{MostConfig, SiteRole};
pub use field_test::{run_field_test, Excitation, FieldTestConfig, FieldTestOutcome};
pub use frame_model::reference_history;
pub use mini::{run_mini_most, run_mini_most_with_telemetry, MiniMostConfig, MiniMostOutcome};
pub use report::MostReport;
pub use runner::{MostDeployment, MostRunArtifacts, ViewerCatch, VIEWER_BUFFER};
pub use scenarios::{
    n_site, n_site_with_telemetry, public_run_fault_plan, NSiteExperiment, Scenario,
};
