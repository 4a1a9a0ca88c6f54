//! The per-step coordination loop.
//!
//! Each pseudo-dynamic step runs the two-phase discipline of §2.1:
//!
//! 1. **Propose to every site in parallel** — "this separation of proposal
//!    and execution enables a client to ensure that the actions for a
//!    testing step are acceptable at all experimental sites before causing
//!    any action to take place." If any site rejects or fails, accepted
//!    proposals are cancelled and nothing has moved.
//! 2. **Execute everywhere in parallel**, collect measured restoring
//!    forces, and advance the central-difference integrator.
//!
//! Failure handling is delegated to the configured [`FaultPolicy`].
//! Step-level retries use *fresh transaction names*; re-imposing the same
//! target displacement on a site that already executed it is physically
//! idempotent (the specimen is already there), which is what makes the
//! retry sound.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use neesgrid_gridsim::{SimClock, SimTime};
use neesgrid_ntcp::{ControlPoint, NtcpClient, NtcpError};
use neesgrid_structsim::integrate::CentralDifference;
use neesgrid_structsim::linalg::{Matrix, Vector};
use neesgrid_structsim::psd::PsdHistory;
use neesgrid_structsim::substructure::SubstructureBinding;
use neesgrid_structsim::GroundMotion;
use neesgrid_telemetry::{Field, FieldList, SpanId, Telemetry};

use crate::log::{EventKind, ExperimentLog};
use crate::policy::FaultPolicy;

/// One experiment site as the coordinator sees it.
pub struct SiteHandle {
    /// Site name (used in transaction names and logs).
    pub name: String,
    /// NTCP client bound to the site's server.
    pub client: NtcpClient,
    /// Which global DOFs this site's substructure carries.
    pub binding: SubstructureBinding,
    /// Elastic stiffness estimate, N/m per DOF, used to fill the
    /// `expected_force` field of proposals (what the site polices).
    pub stiffness_estimate: f64,
}

/// Data handed to the per-step observer callback (feeds NSDS/CHEF).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Step index.
    pub step: u64,
    /// Virtual time at completion.
    pub at: SimTime,
    /// Target displacements imposed this step, m.
    pub displacement: Vec<f64>,
    /// Measured restoring forces, N.
    pub restoring: Vec<f64>,
}

/// How the experiment ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Termination {
    /// All requested steps completed.
    Completed,
    /// Terminated prematurely.
    Aborted {
        /// Step at which the fatal failure occurred (0-based).
        step: u64,
        /// The site whose failure was fatal.
        site: String,
        /// The fatal error.
        error: String,
    },
}

/// The full result of a coordinated experiment.
pub struct ExperimentOutcome {
    /// Steps requested.
    pub steps_requested: usize,
    /// Recorded motion/force histories (one entry per completed step).
    pub history: PsdHistory,
    /// The event log.
    pub log: ExperimentLog,
    /// How it ended.
    pub termination: Termination,
    /// Transport-level retransmissions observed across all sites.
    pub retransmissions: u64,
}

impl ExperimentOutcome {
    /// Steps completed.
    pub fn steps_completed(&self) -> usize {
        self.history.steps_completed
    }
}

/// Outcome of a bounded slice of work ([`SimulationCoordinator::run_slice`]).
///
/// A long experiment can be cooperatively scheduled by running it a few
/// steps at a time: `Paused` hands back the exact boundary state that
/// [`SimulationCoordinator::resume`] (or the next `run_slice` call)
/// continues from, so a sliced run's trajectory is bit-identical to an
/// uninterrupted one.
#[allow(clippy::large_enum_variant)]
pub enum SliceOutcome {
    /// The slice bound was reached with steps still to run; pass the state
    /// back as `resume` to continue.
    Paused(CoordinatorState),
    /// The experiment ended (completed or aborted) within the slice.
    Finished(ExperimentOutcome),
}

/// Everything the coordinator needs to continue a run from a step
/// boundary — the coordinator's share of a checkpoint. Captured *between*
/// steps: step `step` has not run yet, steps `0..step` are committed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordinatorState {
    /// The next step to run (0-based).
    pub step: u64,
    /// Integrator displacement at `step - 1`.
    pub d_prev: Vec<f64>,
    /// Integrator displacement at `step` (the next target).
    pub d_curr: Vec<f64>,
    /// Motion/force histories for steps `0..step`.
    pub history: PsdHistory,
    /// The event log so far.
    pub log: ExperimentLog,
    /// Transport retransmissions accumulated before the boundary.
    pub retransmissions: u64,
}

/// When the coordinator offers its state to the checkpoint hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointCadence {
    /// Checkpoint every N step boundaries (`None`: never on interval).
    pub every_steps: Option<u64>,
    /// Also checkpoint at the boundary after a step that needed
    /// transient-failure recovery.
    pub after_transient: bool,
}

impl CheckpointCadence {
    fn due(&self, step: u64, transient_in_last_step: bool) -> bool {
        let interval = match self.every_steps {
            Some(n) if n > 0 => step > 0 && step.is_multiple_of(n),
            _ => false,
        };
        interval || (self.after_transient && transient_in_last_step)
    }
}

/// Checkpoint hook: receives the coordinator's boundary state, persists it
/// (plus whatever site state the installer gathers), and reports failure
/// as a string. A failure is logged but never interrupts the experiment.
pub type CheckpointHook = Box<dyn FnMut(&CoordinatorState) -> Result<(), String> + Send>;

/// The MS-PSDS simulation coordinator.
pub struct SimulationCoordinator {
    sites: Vec<SiteHandle>,
    masses: Vec<f64>,
    damping: Matrix,
    dt: f64,
    policy: FaultPolicy,
    /// Execution timeout carried in proposals.
    pub transaction_timeout: SimTime,
    clock: Arc<SimClock>,
    on_step: Option<StepObserver>,
    checkpoint: Option<(CheckpointCadence, CheckpointHook)>,
    telemetry: Telemetry,
}

/// Per-step observer callback type.
pub type StepObserver = Box<dyn FnMut(&StepRecord) + Send>;

impl SimulationCoordinator {
    /// Create a coordinator over the given global model and sites.
    pub fn new(
        masses: Vec<f64>,
        damping: Matrix,
        dt: f64,
        sites: Vec<SiteHandle>,
        policy: FaultPolicy,
        clock: Arc<SimClock>,
    ) -> Self {
        assert!(!masses.is_empty() && dt > 0.0);
        let ndof = masses.len();
        for s in &sites {
            assert!(
                s.binding.global_dofs.iter().all(|&d| d < ndof),
                "site {} binds DOF out of range",
                s.name
            );
        }
        SimulationCoordinator {
            sites,
            masses,
            damping,
            dt,
            policy,
            transaction_timeout: SimTime::from_secs(60),
            clock,
            on_step: None,
            checkpoint: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Install a telemetry handle. Each step gets a `coordinator/step` span
    /// wrapping `propose_phase` and `execute_phase` child spans; aborts emit
    /// a `coordinator/abort` instant and trigger a flight-recorder dump;
    /// checkpoint resumes emit `coordinator/resume` (ordinary slice
    /// continuations stay silent, so a run's trace is independent of how
    /// it was scheduled). Defaults to disabled.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Install a per-step observer (streams to NSDS / the CHEF viewer).
    pub fn set_on_step(&mut self, f: StepObserver) {
        self.on_step = Some(f);
    }

    /// Install a checkpoint hook, called with the coordinator's state at
    /// each step boundary the cadence selects.
    pub fn set_checkpoint_hook(&mut self, cadence: CheckpointCadence, hook: CheckpointHook) {
        self.checkpoint = Some((cadence, hook));
    }

    fn ground_force(&self, ag: f64) -> Vector {
        let mut p = Vector::zeros(self.masses.len());
        for (i, &m) in self.masses.iter().enumerate() {
            p[i] = -m * ag;
        }
        p
    }

    fn actions_for(&self, site: &SiteHandle, target: &Vector) -> Vec<ControlPoint> {
        site.binding
            .gather(target.as_slice())
            .into_iter()
            .enumerate()
            .map(|(i, d)| ControlPoint {
                name: format!("dof-{i}"),
                displacement_m: d,
                velocity_mps: 0.0,
                expected_force_n: site.stiffness_estimate * d.abs(),
            })
            .collect()
    }

    /// Propose + execute one step's displacements at every site.
    /// Returns the assembled global restoring vector.
    fn run_step_once(
        &self,
        clients: &[NtcpClient],
        step: u64,
        attempt: u32,
        target: &Vector,
    ) -> Result<Vector, (String, NtcpError)> {
        let span = if self.telemetry.enabled() {
            self.telemetry.span_start(
                self.clock.now().as_nanos(),
                "coordinator",
                "step",
                [
                    ("step", Field::U64(step)),
                    ("attempt", Field::U64(attempt as u64)),
                ],
            )
        } else {
            SpanId::NONE
        };
        let result = self.run_step_phases(clients, step, attempt, target);
        if self.telemetry.enabled() {
            let mut fields = FieldList::from([("step", Field::U64(step))]);
            match &result {
                Ok(_) => fields.push("ok", Field::Bool(true)),
                Err((site, err)) => {
                    fields.push("ok", Field::Bool(false));
                    fields.push("site", Field::Str(site.clone()));
                    fields.push("error", Field::Str(err.to_string()));
                }
            }
            self.telemetry
                .span_end(self.clock.now().as_nanos(), span, fields);
        }
        result
    }

    /// Phase 1: propose everywhere. All proposals go on the wire before
    /// any reply is awaited; one event-engine pump resolves the batch on
    /// this thread — no worker threads, no join, nothing to panic.
    fn propose_phase(
        &self,
        clients: &[NtcpClient],
        step: u64,
        tx_name: &str,
        target: &Vector,
    ) -> Vec<Result<(), NtcpError>> {
        let span = if self.telemetry.enabled() {
            self.telemetry.span_start(
                self.clock.now().as_nanos(),
                "coordinator",
                "propose_phase",
                [("step", Field::U64(step))],
            )
        } else {
            SpanId::NONE
        };
        let proposals: Vec<Result<(), NtcpError>> =
            NtcpClient::propose_all(self.sites.iter().zip(clients).map(|(site, client)| {
                (
                    client,
                    tx_name,
                    self.actions_for(site, target),
                    self.transaction_timeout,
                )
            }));
        if self.telemetry.enabled() {
            self.telemetry.span_end(
                self.clock.now().as_nanos(),
                span,
                [("step", Field::U64(step))],
            );
        }
        proposals
    }

    /// Phase 2: execute everywhere, same single-threaded multiplexed wait.
    fn execute_phase(
        &self,
        clients: &[NtcpClient],
        step: u64,
        tx_name: &str,
    ) -> Vec<Result<Vec<neesgrid_ntcp::ControlPointResult>, NtcpError>> {
        let span = if self.telemetry.enabled() {
            self.telemetry.span_start(
                self.clock.now().as_nanos(),
                "coordinator",
                "execute_phase",
                [("step", Field::U64(step))],
            )
        } else {
            SpanId::NONE
        };
        let executions = NtcpClient::execute_all(clients.iter().map(|client| (client, tx_name)));
        if self.telemetry.enabled() {
            self.telemetry.span_end(
                self.clock.now().as_nanos(),
                span,
                [("step", Field::U64(step))],
            );
        }
        executions
    }

    fn run_step_phases(
        &self,
        clients: &[NtcpClient],
        step: u64,
        attempt: u32,
        target: &Vector,
    ) -> Result<Vector, (String, NtcpError)> {
        let tx_name = format!("step-{step:06}-a{attempt}");
        let proposals = self.propose_phase(clients, step, tx_name.as_str(), target);
        if let Some((idx, err)) = proposals
            .iter()
            .enumerate()
            .find_map(|(i, r)| r.as_ref().err().map(|e| (i, e.clone())))
        {
            // Withdraw whatever was accepted: nothing may move this step.
            let _ = NtcpClient::cancel_all(
                proposals
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.is_ok())
                    .map(|(i, _)| (&clients[i], tx_name.as_str())),
            );
            return Err((self.sites[idx].name.clone(), err));
        }
        let executions = self.execute_phase(clients, step, tx_name.as_str());
        let mut restoring = vec![0.0; self.masses.len()];
        for (site, result) in self.sites.iter().zip(executions) {
            match result {
                Ok(results) => {
                    let forces: Vec<f64> = results.iter().map(|r| r.force_n).collect();
                    if forces.len() != site.binding.global_dofs.len() {
                        return Err((
                            site.name.clone(),
                            NtcpError::BadResponse(format!(
                                "{} returned {} results for {} DOFs",
                                site.name,
                                forces.len(),
                                site.binding.global_dofs.len()
                            )),
                        ));
                    }
                    site.binding.scatter(&forces, &mut restoring);
                }
                Err(e) => return Err((site.name.clone(), e)),
            }
        }
        Ok(Vector::from_slice(&restoring))
    }

    /// Run the experiment for `steps` steps under `motion`.
    pub fn run(&mut self, motion: &GroundMotion, steps: usize) -> ExperimentOutcome {
        self.run_from(motion, steps, None)
    }

    /// Continue an experiment from a checkpointed boundary state. The
    /// site servers must already hold matching state (see the
    /// `neesgrid-checkpoint` crate for the restore choreography).
    pub fn resume(
        &mut self,
        motion: &GroundMotion,
        steps: usize,
        state: CoordinatorState,
    ) -> ExperimentOutcome {
        self.run_from(motion, steps, Some(state))
    }

    /// Run at most `max_slice_steps` steps of the experiment, then pause at
    /// the step boundary and hand the state back. The first slice passes
    /// `resume = None`; later slices pass the previous `Paused` state (the
    /// site servers retain their own state between slices — nothing needs
    /// restoring when the deployment stays up). This is the worker-pool
    /// scheduling primitive: one coordinator thread can interleave many
    /// experiments without losing determinism.
    pub fn run_slice(
        &mut self,
        motion: &GroundMotion,
        steps: usize,
        resume: Option<CoordinatorState>,
        max_slice_steps: u64,
    ) -> SliceOutcome {
        assert!(max_slice_steps > 0, "a slice must cover at least one step");
        let start = resume.as_ref().map(|s| s.step).unwrap_or(0);
        // Slice continuations are a scheduling artifact, not a recovery:
        // the trace stays silent so it reads the same however the worker
        // pool happened to slice the run.
        self.run_bounded(
            motion,
            steps,
            resume,
            Some(start.saturating_add(max_slice_steps)),
            false,
        )
    }

    fn run_from(
        &mut self,
        motion: &GroundMotion,
        steps: usize,
        resume: Option<CoordinatorState>,
    ) -> ExperimentOutcome {
        match self.run_bounded(motion, steps, resume, None, true) {
            SliceOutcome::Finished(outcome) => outcome,
            SliceOutcome::Paused(_) => unreachable!("unbounded run cannot pause"),
        }
    }

    fn run_bounded(
        &mut self,
        motion: &GroundMotion,
        steps: usize,
        resume: Option<CoordinatorState>,
        pause_at: Option<u64>,
        announce_resume: bool,
    ) -> SliceOutcome {
        // Bind every site client to the policy's transport behaviour.
        let clients: Vec<NtcpClient> = self
            .sites
            .iter()
            .map(|s| s.client.clone().with_rpc_policy(self.policy.rpc_policy()))
            .collect();

        let ndof = self.masses.len();
        let (mut integrator, mut history, mut log, retrans_baseline, start_step) = match resume {
            Some(state) => {
                assert_eq!(state.d_prev.len(), ndof, "resume state DOF mismatch");
                let integrator = CentralDifference::from_state(
                    Matrix::diag(&self.masses),
                    &self.damping,
                    self.dt,
                    Vector::from_slice(&state.d_prev),
                    Vector::from_slice(&state.d_curr),
                    state.step,
                );
                let mut log = state.log;
                log.record(self.clock.now(), state.step, EventKind::Resumed);
                if announce_resume && self.telemetry.enabled() {
                    self.telemetry.instant(
                        self.clock.now().as_nanos(),
                        "coordinator",
                        "resume",
                        [("step", Field::U64(state.step))],
                    );
                }
                (
                    integrator,
                    state.history,
                    log,
                    state.retransmissions,
                    state.step,
                )
            }
            None => {
                let mut log = ExperimentLog::new();
                log.record(self.clock.now(), 0, EventKind::Started);
                // The structure starts at rest: zero displacement,
                // zero restoring.
                let integrator = CentralDifference::new(
                    Matrix::diag(&self.masses),
                    &self.damping,
                    self.dt,
                    Vector::zeros(ndof),
                    Vector::zeros(ndof),
                    &Vector::zeros(ndof),
                    &self.ground_force(motion.value_at(0.0)),
                );
                let history = PsdHistory {
                    dt: self.dt,
                    displacement: Vec::with_capacity(steps),
                    velocity: Vec::with_capacity(steps),
                    acceleration: Vec::with_capacity(steps),
                    restoring: Vec::with_capacity(steps),
                    steps_completed: 0,
                };
                (integrator, history, log, 0, 0)
            }
        };
        let mut termination = Termination::Completed;
        let mut transient_in_last_step = false;

        'steps: for n in start_step..steps as u64 {
            // Slice bound: pause at this boundary and hand the state back
            // (same capture as a checkpoint — steps 0..n are committed).
            if pause_at.is_some_and(|stop| n >= stop) {
                let retransmissions =
                    retrans_baseline + clients.iter().map(|c| c.retransmissions()).sum::<u64>();
                let (d_prev, d_curr, step) = integrator.state();
                return SliceOutcome::Paused(CoordinatorState {
                    step,
                    d_prev: d_prev.as_slice().to_vec(),
                    d_curr: d_curr.as_slice().to_vec(),
                    history,
                    log,
                    retransmissions,
                });
            }
            // Checkpoint at the boundary: steps 0..n are committed, step n
            // has not started, so a snapshot taken here resumes at n.
            if let Some((cadence, hook)) = self.checkpoint.as_mut() {
                if cadence.due(n, transient_in_last_step) {
                    let retransmissions =
                        retrans_baseline + clients.iter().map(|c| c.retransmissions()).sum::<u64>();
                    let (d_prev, d_curr, step) = integrator.state();
                    // Recorded before the capture so the snapshot's own log
                    // tail includes this save; replaced on failure.
                    log.record(self.clock.now(), n, EventKind::CheckpointSaved);
                    let state = CoordinatorState {
                        step,
                        d_prev: d_prev.as_slice().to_vec(),
                        d_curr: d_curr.as_slice().to_vec(),
                        history: history.clone(),
                        log: log.clone(),
                        retransmissions,
                    };
                    if let Err(error) = hook(&state) {
                        log.events.pop();
                        log.record(self.clock.now(), n, EventKind::CheckpointFailed { error });
                    }
                }
            }
            transient_in_last_step = false;

            let target = integrator.target_displacement().clone();
            let mut attempt = 0u32;
            let restoring = loop {
                match self.run_step_once(&clients, n, attempt, &target) {
                    Ok(r) => break r,
                    Err((site, err)) => {
                        if self.policy.step_retryable(&err, attempt) {
                            log.record(
                                self.clock.now(),
                                n,
                                EventKind::TransientRecovered {
                                    site,
                                    error: err.to_string(),
                                },
                            );
                            transient_in_last_step = true;
                            attempt += 1;
                            continue;
                        }
                        if let NtcpError::Rejected { reason } = &err {
                            log.record(
                                self.clock.now(),
                                n,
                                EventKind::ProposalRejected {
                                    site: site.clone(),
                                    reason: reason.clone(),
                                },
                            );
                        }
                        log.record(
                            self.clock.now(),
                            n,
                            EventKind::Aborted {
                                site: site.clone(),
                                error: err.to_string(),
                            },
                        );
                        if self.telemetry.enabled() {
                            let now_ns = self.clock.now().as_nanos();
                            self.telemetry.instant(
                                now_ns,
                                "coordinator",
                                "abort",
                                [
                                    ("step", Field::U64(n)),
                                    ("site", Field::Str(site.clone())),
                                    ("error", Field::Str(err.to_string())),
                                ],
                            );
                            self.telemetry.flight_dump(
                                now_ns,
                                &format!("coordinator aborted at step {n}: site {site}: {err}"),
                            );
                        }
                        termination = Termination::Aborted {
                            step: n,
                            site,
                            error: err.to_string(),
                        };
                        break 'steps;
                    }
                }
            };

            let load = self.ground_force(motion.value_at(n as f64 * self.dt));
            let result = integrator.advance(&restoring, &load);
            history.displacement.push(target.as_slice().to_vec());
            history.velocity.push(result.velocity.as_slice().to_vec());
            history
                .acceleration
                .push(result.acceleration.as_slice().to_vec());
            history.restoring.push(restoring.as_slice().to_vec());
            history.steps_completed = (n + 1) as usize;
            log.record(self.clock.now(), n, EventKind::StepCompleted);
            if let Some(cb) = self.on_step.as_mut() {
                cb(&StepRecord {
                    step: n,
                    at: self.clock.now(),
                    displacement: target.as_slice().to_vec(),
                    restoring: restoring.as_slice().to_vec(),
                });
            }
        }

        if matches!(termination, Termination::Completed) {
            log.record(self.clock.now(), steps as u64, EventKind::Completed);
        }
        let retransmissions =
            retrans_baseline + clients.iter().map(|c| c.retransmissions()).sum::<u64>();
        SliceOutcome::Finished(ExperimentOutcome {
            steps_requested: steps,
            history,
            log,
            termination,
            retransmissions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_gridsim::{FaultPlan, LinkKey, NetworkConfig, NodeId, VirtualNetwork};
    use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
    use neesgrid_ntcp::{NtcpServer, SimulationPlugin};
    use neesgrid_ogsi::{RpcClient, RpcMux, ServiceContainer};
    use neesgrid_structsim::element::CouplingSpring;
    use neesgrid_structsim::material::LinearElastic;
    use neesgrid_structsim::psd::PsdTest;
    use neesgrid_structsim::substructure::{SimulatedSubstructure, Substructure};
    use std::time::Duration;

    const KL: f64 = 2.0e5;
    const KR: f64 = 3.0e5;
    const KB: f64 = 1.0e5;

    type SiteSpec = (String, Box<dyn Substructure>, Vec<usize>, f64);

    fn substructures() -> Vec<SiteSpec> {
        let left =
            SimulatedSubstructure::spring_to_ground("left", Box::new(LinearElastic::new(KL)));
        let right =
            SimulatedSubstructure::spring_to_ground("right", Box::new(LinearElastic::new(KR)));
        let mut center = SimulatedSubstructure::new("center", 2);
        center.add_element(Box::new(CouplingSpring::new(
            0,
            1,
            Box::new(LinearElastic::new(KB)),
        )));
        vec![
            (
                "uiuc".to_string(),
                Box::new(left) as Box<dyn Substructure>,
                vec![0],
                KL,
            ),
            ("cu".to_string(), Box::new(right), vec![1], KR),
            ("ncsa".to_string(), Box::new(center), vec![0, 1], KB),
        ]
    }

    fn start_sites(net: &VirtualNetwork) -> Vec<SiteHandle> {
        let caller = DistinguishedName::nees_user("NCSA", "Coordinator");
        let mux = RpcMux::new(net.endpoint("coordinator").unwrap());
        substructures()
            .into_iter()
            .map(|(name, sub, dofs, k)| {
                let server = NtcpServer::new(
                    name.clone(),
                    SitePolicy::permissive(&name, ActionLimits::most_large_scale()),
                    Box::new(SimulationPlugin::new(format!("{name}-plugin"), sub)),
                    net.clock(),
                );
                let container = ServiceContainer::new(net.endpoint(name.as_str()).unwrap())
                    .with_service("ntcp", Box::new(server))
                    .permissive();
                let _h = container.attach();
                SiteHandle {
                    name: name.clone(),
                    client: NtcpClient::new(
                        RpcClient::new(
                            Arc::clone(&mux),
                            NodeId::new(name.as_str()),
                            "ntcp",
                            caller.clone(),
                        )
                        .with_attempt_timeout(Duration::from_millis(100)),
                    ),
                    binding: SubstructureBinding::new(dofs),
                    stiffness_estimate: k,
                }
            })
            .collect()
    }

    fn coordinator(net: &VirtualNetwork, policy: FaultPolicy) -> SimulationCoordinator {
        SimulationCoordinator::new(
            vec![1000.0, 1000.0],
            Matrix::zeros(2, 2),
            0.01,
            start_sites(net),
            policy,
            net.clock(),
        )
    }

    fn motion() -> GroundMotion {
        GroundMotion::synthetic(42, 0.01, 400, 2.0)
    }

    #[test]
    fn distributed_run_matches_local_psd_exactly() {
        // E4: the coordinator driving three NTCP sites must reproduce the
        // purely local PSD run bit-for-bit (same algorithm, same forces).
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mut coord = coordinator(
            &net,
            FaultPolicy::Full {
                max_step_retries: 2,
            },
        );
        let outcome = coord.run(&motion(), 200);
        assert_eq!(outcome.steps_completed(), 200);
        assert!(matches!(outcome.termination, Termination::Completed));

        let local = PsdTest::new(vec![1000.0, 1000.0], Matrix::zeros(2, 2), 0.01);
        let local_subs: Vec<_> = substructures()
            .into_iter()
            .map(|(_, sub, dofs, _)| (SubstructureBinding::new(dofs), sub))
            .collect();
        let local_hist = local.run(local_subs, &motion(), 200).unwrap();
        let diff = outcome.history.max_displacement_difference(&local_hist);
        assert!(diff < 1e-12, "distributed vs local diff {diff}");
    }

    #[test]
    fn transient_drops_are_recovered_under_both_policies() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mut plan = FaultPlan::reliable();
        // Drop a few coordinator→site requests mid-experiment.
        plan.drop_at(LinkKey::new("coordinator", "uiuc"), 40);
        plan.drop_at(LinkKey::new("coordinator", "cu"), 100);
        plan.drop_at(LinkKey::new("ncsa", "coordinator"), 77);
        net.set_fault_plan(plan);
        let mut coord = coordinator(&net, FaultPolicy::Partial);
        let outcome = coord.run(&motion(), 150);
        assert_eq!(
            outcome.steps_completed(),
            150,
            "timeout retransmission suffices"
        );
        assert!(
            outcome.retransmissions >= 3,
            "retries observed: {}",
            outcome.retransmissions
        );
    }

    #[test]
    fn link_reset_kills_partial_policy_run_at_that_step() {
        // §3.4 in miniature: a reset partway through ends the public-run
        // configuration prematurely, at exactly the faulted step.
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mut plan = FaultPlan::reliable();
        // Each step sends 2 messages per site link (propose + execute).
        // Message index 2*93 = propose of step 93.
        plan.reset_at(LinkKey::new("coordinator", "cu"), 186);
        net.set_fault_plan(plan);
        let mut coord = coordinator(&net, FaultPolicy::Partial);
        let outcome = coord.run(&motion(), 150);
        assert_eq!(outcome.steps_completed(), 93);
        match &outcome.termination {
            Termination::Aborted { step, site, error } => {
                assert_eq!(*step, 93);
                assert_eq!(site, "cu");
                assert!(error.contains("link reset"), "error: {error}");
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(outcome.log.abort().is_some());
    }

    #[test]
    fn full_policy_survives_the_same_reset() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("coordinator", "cu"), 186);
        net.set_fault_plan(plan);
        let mut coord = coordinator(
            &net,
            FaultPolicy::Full {
                max_step_retries: 3,
            },
        );
        let outcome = coord.run(&motion(), 150);
        assert_eq!(outcome.steps_completed(), 150);
        assert!(matches!(outcome.termination, Termination::Completed));
    }

    #[test]
    fn policy_rejection_aborts_with_reason() {
        // Shrink one site's limits so a mid-experiment displacement is
        // refused at proposal time; nothing executes at any site for that
        // step and the coordinator reports the policy reason.
        let net = VirtualNetwork::new(NetworkConfig::default());
        let caller = DistinguishedName::nees_user("NCSA", "Coordinator");
        let mux = RpcMux::new(net.endpoint("coordinator").unwrap());
        let mut sites = Vec::new();
        for (name, sub, dofs, k) in substructures() {
            let limits = if name == "uiuc" {
                ActionLimits {
                    max_displacement_m: 1e-5, // absurdly tight
                    max_velocity_mps: 1.0,
                    max_force_n: 1e9,
                }
            } else {
                ActionLimits::most_large_scale()
            };
            let server = NtcpServer::new(
                name.clone(),
                SitePolicy::permissive(&name, limits),
                Box::new(SimulationPlugin::new(format!("{name}-plugin"), sub)),
                net.clock(),
            );
            let _h = ServiceContainer::new(net.endpoint(name.as_str()).unwrap())
                .with_service("ntcp", Box::new(server))
                .permissive()
                .attach();
            sites.push(SiteHandle {
                name: name.clone(),
                client: NtcpClient::new(RpcClient::new(
                    Arc::clone(&mux),
                    NodeId::new(name.as_str()),
                    "ntcp",
                    caller.clone(),
                )),
                binding: SubstructureBinding::new(dofs),
                stiffness_estimate: k,
            });
        }
        let mut coord = SimulationCoordinator::new(
            vec![1000.0, 1000.0],
            Matrix::zeros(2, 2),
            0.01,
            sites,
            FaultPolicy::Full {
                max_step_retries: 2,
            },
            net.clock(),
        );
        let outcome = coord.run(&motion(), 100);
        assert!(outcome.steps_completed() < 100);
        match &outcome.termination {
            Termination::Aborted { site, error, .. } => {
                assert_eq!(site, "uiuc");
                assert!(error.contains("rejected"), "error: {error}");
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(outcome
            .log
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ProposalRejected { .. })));
    }

    #[test]
    fn sliced_run_matches_straight_run_bit_identically() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mut coord = coordinator(
            &net,
            FaultPolicy::Full {
                max_step_retries: 2,
            },
        );
        let straight = coord.run(&motion(), 120);
        // Fresh identical deployment, run 7 steps at a time.
        let net2 = VirtualNetwork::new(NetworkConfig::default());
        let mut coord2 = coordinator(
            &net2,
            FaultPolicy::Full {
                max_step_retries: 2,
            },
        );
        let mut state = None;
        let mut slices = 0;
        let outcome = loop {
            match coord2.run_slice(&motion(), 120, state.take(), 7) {
                SliceOutcome::Paused(s) => {
                    state = Some(s);
                    slices += 1;
                }
                SliceOutcome::Finished(o) => break o,
            }
        };
        assert!(slices >= 17, "expected many pauses, saw {slices}");
        assert_eq!(outcome.steps_completed(), 120);
        let diff = outcome
            .history
            .max_displacement_difference(&straight.history);
        assert_eq!(diff, 0.0, "sliced vs straight diff {diff}");
    }

    #[test]
    fn on_step_callback_sees_every_step() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mut coord = coordinator(
            &net,
            FaultPolicy::Full {
                max_step_retries: 1,
            },
        );
        let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        coord.set_on_step(Box::new(move |rec| {
            assert_eq!(rec.displacement.len(), 2);
            seen2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }));
        let outcome = coord.run(&motion(), 50);
        assert_eq!(outcome.steps_completed(), 50);
        assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 50);
    }
}
