//! # neesgrid-checkpoint — survive the step-1493 failure
//!
//! §3.4 of the paper: "The public experiment ran for more than 5 hours but
//! exited prematurely at step 1493 (out of 1500) … a final network error
//! caused the simulation to terminate prematurely." Five hours of
//! servo-hydraulic time were lost for want of seven steps.
//!
//! This crate is the missing piece: periodic, checksummed snapshots of
//! everything a run needs to continue —
//!
//! * the coordinator's integrator state, histories, and event log
//!   ([`neesgrid_coordinator::CoordinatorState`]);
//! * each site's NTCP server state (the transactions it still holds, each
//!   client's at-most-once window, plugin/specimen state), captured over
//!   dedicated checkpointer links so the snapshot traffic never perturbs
//!   the experiment links' deterministic fault schedules;
//! * the coordinator endpoint's correlation watermark, so a restarted
//!   coordinator's fresh request ids land above the mark a restored
//!   server's window holds for it.
//!
//! Snapshots are encoded as a headered JSON payload guarded by CRC-32
//! ([`snapshot::encode`] / [`snapshot::decode`]); a corrupted byte is
//! detected at load time, never silently resumed from. Stores come in two
//! flavors: [`MemoryCheckpointStore`] for tests, and
//! [`RepoCheckpointStore`] persisting through the NEESgrid repository's
//! [`neesgrid_repo::VirtualStore`] — the same storage the experiment's
//! data files ship to, so checkpoints survive a coordinator crash exactly
//! as the data does.
//!
//! Because the trajectory of a pseudo-dynamic test depends only on
//! integrator state and specimen (material) committed state — never on
//! wall-clock or transport history — a resumed run's trailing trajectory
//! is *bit-identical* to an uninterrupted run's. The integration test
//! `tests/checkpoint_resume.rs` proves it on the full 1,500-step MOST
//! public run.

/// The checkpoint hook driving snapshot capture during a run.
pub mod checkpointer;
/// When to checkpoint and how many to keep: every-N, ring retention.
pub mod policy;
/// Versioned, CRC-checked snapshot encoding.
pub mod snapshot;
/// Where snapshots live: in-memory and repository-directory stores.
pub mod store;

pub use checkpointer::{Checkpointable, Checkpointer};
pub use policy::CheckpointPolicy;
pub use snapshot::{CheckpointError, SiteCheckpoint, Snapshot, FORMAT_VERSION};
pub use store::{CheckpointStore, MemoryCheckpointStore, RepoCheckpointStore};
