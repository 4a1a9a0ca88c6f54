//! # neesgrid-daq — data acquisition and streaming
//!
//! The measurement path of Figure 10: sensors feed a site-local **DAQ
//! system** (both MOST sites ran LabVIEW); the DAQ periodically deposits
//! completed data windows into a network-mounted directory (the
//! **file-drop** stage), from which an uploader ships them to the
//! repository; in parallel, the **NEESgrid Streaming Data Service (NSDS)**
//! offers "a best-effort stream of real-time data" to remote observers —
//! best-effort meaning a slow subscriber loses old samples rather than
//! stalling the experiment.
//!
//! * [`timeseries`] — timestamped sample series with CSV encode/decode
//!   (the interchange format of the file-drop stage);
//! * [`channel`] — channel configuration and calibration;
//! * [`sampler`] — the sampling engine: polls signal sources at per-channel
//!   rates over a virtual-time window;
//! * [`filedrop`] — the shared-directory handoff between LabVIEW and the
//!   repository uploader;
//! * [`nsds`] — the streaming service: one log per subscription pattern,
//!   read through bounded, loss-counting cursors;
//! * [`capture`] — the byte-stable JSONL form of captured NSDS samples,
//!   which the archive stores and replicates.

pub mod capture;
pub mod channel;
pub mod filedrop;
pub mod nsds;
pub mod sampler;
pub mod timeseries;

pub use capture::decode_jsonl;
pub use channel::{Calibration, ChannelConfig};
pub use filedrop::{DropFile, FileDropDir};
pub use nsds::{NsdsSample, NsdsServer, NsdsSubscription, SampleRun};
pub use sampler::{DaqSystem, SignalSource};
pub use timeseries::{Sample, TimeSeries};
