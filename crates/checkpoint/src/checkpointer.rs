//! Assembling, saving, and re-applying snapshots.
//!
//! The [`Checkpointer`] owns the pieces a snapshot needs beyond the
//! coordinator's own state: one NTCP client per site on a *dedicated
//! checkpointer endpoint* (so snapshot RPCs never ride the experiment
//! links — the deterministic fault schedules key on per-link message
//! indices, and checkpointing must not shift them), the coordinator's RPC
//! mux (for the correlation watermark), and the shared virtual clock.

use std::sync::Arc;

use neesgrid_coordinator::{CoordinatorState, ExperimentOutcome, SimulationCoordinator};
use neesgrid_gridsim::SimClock;
use neesgrid_ntcp::NtcpClient;
use neesgrid_ogsi::RpcMux;
use neesgrid_structsim::GroundMotion;
use neesgrid_telemetry::{CounterHandle, Field, Telemetry};

use crate::policy::CheckpointPolicy;
use crate::snapshot::{encode, CheckpointError, SiteCheckpoint, Snapshot, FORMAT_VERSION};
use crate::store::CheckpointStore;

/// Captures and persists snapshots; restores sites on resume.
pub struct Checkpointer {
    run_id: String,
    policy: CheckpointPolicy,
    store: Arc<dyn CheckpointStore>,
    sites: Vec<(String, NtcpClient)>,
    mux: Arc<RpcMux>,
    clock: Arc<SimClock>,
    saved: Vec<u64>,
    telemetry: Telemetry,
    /// The registry's `checkpoint.saves` counter.
    saves: CounterHandle,
}

impl Checkpointer {
    /// Assemble a checkpointer. `sites` are (name, client) pairs whose
    /// clients live on the dedicated checkpointer endpoint; `mux` is the
    /// *coordinator's* mux, whose correlation watermark the snapshot must
    /// carry.
    pub fn new(
        run_id: impl Into<String>,
        policy: CheckpointPolicy,
        store: Arc<dyn CheckpointStore>,
        sites: Vec<(String, NtcpClient)>,
        mux: Arc<RpcMux>,
        clock: Arc<SimClock>,
    ) -> Self {
        Checkpointer {
            run_id: run_id.into(),
            policy,
            store,
            sites,
            mux,
            clock,
            saved: Vec::new(),
            telemetry: Telemetry::disabled(),
            saves: CounterHandle::default(),
        }
    }

    /// Install a telemetry handle: each successful save emits a
    /// `checkpoint/snapshot` instant carrying the step and the encoded
    /// payload's size (without the header line), and bumps
    /// `checkpoint.saves`. Defaults to disabled.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.saves = telemetry.lazy_counter("checkpoint.saves");
        self.telemetry = telemetry;
        self
    }

    /// The policy in force.
    pub fn policy(&self) -> &CheckpointPolicy {
        &self.policy
    }

    /// Capture a full snapshot at the boundary `coordinator` describes.
    pub fn capture(&self, coordinator: &CoordinatorState) -> Result<Snapshot, CheckpointError> {
        let mut sites = Vec::with_capacity(self.sites.len());
        for (site, client) in &self.sites {
            let state = client.snapshot_site().map_err(|e| CheckpointError::Site {
                site: site.clone(),
                error: e.to_string(),
            })?;
            sites.push(SiteCheckpoint {
                site: site.clone(),
                state,
            });
        }
        Ok(Snapshot {
            version: FORMAT_VERSION,
            run_id: self.run_id.clone(),
            step: coordinator.step,
            at: self.clock.now(),
            correlation_watermark: self.mux.correlation_watermark(),
            coordinator: coordinator.clone(),
            sites,
        })
    }

    /// Capture, persist, and prune per the retention ring. Returns the
    /// checkpointed step.
    pub fn save(&mut self, coordinator: &CoordinatorState) -> Result<u64, CheckpointError> {
        let snapshot = self.capture(coordinator)?;
        let step = snapshot.step;
        let encoded = encode(&snapshot);
        let header = encoded
            .iter()
            .position(|&b| b == b'\n')
            .map_or(0, |n| n + 1);
        let bytes = (encoded.len() - header) as u64;
        self.store.put(&snapshot.run_id, step, encoded)?;
        self.saves.add(1);
        if self.telemetry.enabled() {
            self.telemetry.instant(
                self.clock.now().as_nanos(),
                "checkpoint",
                "snapshot",
                [("step", Field::U64(step)), ("bytes", Field::U64(bytes))],
            );
        }
        if !self.saved.contains(&step) {
            self.saved.push(step);
        }
        if let Some(k) = self.policy.retain {
            while self.saved.len() > k {
                let oldest = self.saved.remove(0);
                self.store.delete(&self.run_id, oldest);
            }
        }
        Ok(step)
    }

    /// Re-apply a snapshot to a freshly built deployment: advance the
    /// clock to the capture instant, fast-forward the coordinator's
    /// correlation counter past the mark of its window in every restored
    /// site, and push each site's state back to its server.
    /// After this, [`SimulationCoordinator::resume`] continues the run.
    pub fn prepare_resume(&self, snapshot: &Snapshot) -> Result<(), CheckpointError> {
        self.clock.advance_to(snapshot.at);
        self.mux
            .advance_correlation_to(snapshot.correlation_watermark);
        for (site, client) in &self.sites {
            let state = snapshot
                .sites
                .iter()
                .find(|s| &s.site == site)
                .ok_or_else(|| CheckpointError::Site {
                    site: site.clone(),
                    error: "no state for this site in the snapshot".into(),
                })?;
            client
                .restore_site(&state.state)
                .map_err(|e| CheckpointError::Site {
                    site: site.clone(),
                    error: e.to_string(),
                })?;
        }
        Ok(())
    }

    /// Load the most recent snapshot for this checkpointer's run.
    pub fn load_latest(&self) -> Result<Snapshot, CheckpointError> {
        self.store.load_latest(&self.run_id)
    }
}

/// Checkpoint & resume as coordinator methods (extension trait — the
/// coordinator crate stays ignorant of stores and formats).
pub trait Checkpointable {
    /// Install `checkpointer` so the run snapshots itself at the
    /// boundaries its policy selects.
    fn checkpoint_into(&mut self, checkpointer: Checkpointer);

    /// Continue a run from `snapshot` (site state must already be
    /// restored — see [`Checkpointer::prepare_resume`]).
    fn resume_from(
        &mut self,
        snapshot: Snapshot,
        motion: &GroundMotion,
        steps: usize,
    ) -> ExperimentOutcome;
}

impl Checkpointable for SimulationCoordinator {
    fn checkpoint_into(&mut self, mut checkpointer: Checkpointer) {
        let Some(every_steps) = checkpointer.policy.every_steps else {
            return;
        };
        self.set_checkpoint_hook(
            every_steps,
            Box::new(move |state| {
                checkpointer
                    .save(state)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }),
        );
    }

    fn resume_from(
        &mut self,
        snapshot: Snapshot,
        motion: &GroundMotion,
        steps: usize,
    ) -> ExperimentOutcome {
        self.resume(motion, steps, snapshot.coordinator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::sample;
    use crate::store::MemoryCheckpointStore;
    use neesgrid_gridsim::{NetworkConfig, VirtualNetwork};

    fn bare_checkpointer(
        policy: CheckpointPolicy,
        store: Arc<dyn CheckpointStore>,
    ) -> Checkpointer {
        // No sites: exercises scheduling/retention without a deployment.
        let net = VirtualNetwork::new(NetworkConfig::default());
        Checkpointer::new(
            "r",
            policy,
            store,
            Vec::new(),
            RpcMux::new(net.endpoint("coordinator").unwrap()),
            net.clock(),
        )
    }

    #[test]
    fn retention_ring_keeps_only_the_newest_k() {
        let store = Arc::new(MemoryCheckpointStore::new());
        let mut ck = bare_checkpointer(
            CheckpointPolicy::every(100).retaining(2),
            Arc::<MemoryCheckpointStore>::clone(&store),
        );
        for step in [100u64, 200, 300, 400] {
            let snap = sample("r", step);
            ck.save(&snap.coordinator).unwrap();
        }
        assert_eq!(store.list("r"), vec![300, 400]);
        assert_eq!(ck.load_latest().unwrap().step, 400);
    }

    #[test]
    fn capture_carries_watermark_and_clock() {
        let store = Arc::new(MemoryCheckpointStore::new());
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mux = RpcMux::new(net.endpoint("coordinator").unwrap());
        mux.advance_correlation_to(42);
        net.clock()
            .advance_to(neesgrid_gridsim::SimTime::from_secs(9));
        let ck = Checkpointer::new(
            "r",
            CheckpointPolicy::every(1),
            store,
            Vec::new(),
            Arc::clone(&mux),
            net.clock(),
        );
        let snap = ck.capture(&sample("r", 5).coordinator).unwrap();
        assert_eq!(snap.correlation_watermark, 42);
        assert_eq!(snap.at, neesgrid_gridsim::SimTime::from_secs(9));
        assert_eq!(snap.step, 5);
    }
}
