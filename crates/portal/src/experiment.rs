//! What a tenant submits, and how a worker runs it.
//!
//! Each admitted experiment gets its own fully-virtual deployment (the
//! N-site topology of §5): a private [`VirtualNetwork`] seeded from the
//! spec, one NTCP site container per requested site attached in handler
//! mode, and a [`SimulationCoordinator`] driven a *slice* of steps at a
//! time so one worker thread can interleave many runs. Checkpoints ride a
//! dedicated `checkpointer` endpoint into the portal's shared store; after
//! a worker crash the run is rebuilt from the same spec, the latest
//! snapshot is re-applied, and the trajectory continues bit-identical.

use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use neesgrid_checkpoint::{
    CheckpointError, CheckpointPolicy, CheckpointStore, Checkpointable, Checkpointer,
};
use neesgrid_coordinator::{
    CoordinatorState, EventKind, ExperimentOutcome, FaultPolicy, SimCoordBuilder,
    SimulationCoordinator, SliceOutcome,
};
use neesgrid_daq::nsds::{NsdsSample, NsdsServer};
use neesgrid_gridsim::{FaultPlan, LinkKey, NetworkProfile, NodeId, VirtualNetwork};
use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid_ntcp::{NtcpClient, NtcpServer, SimulationPlugin};
use neesgrid_ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid_structsim::material::{BilinearHysteretic, LinearElastic, Material};
use neesgrid_structsim::substructure::SimulatedSubstructure;
use neesgrid_structsim::GroundMotion;
use neesgrid_telemetry::{Field, Telemetry};

/// Integration time step every portal run uses.
pub const DT: f64 = 0.01;

/// Most sites a single submission may request.
pub const MAX_SITES: usize = 32;

/// Most steps a single submission may request.
pub const MAX_STEPS: usize = 1_000_000;

/// Most site-steps (sites × steps) a submission that records a trace may
/// request. A trace holds about ten events per site-step, all in memory
/// until export; 50,000 is 11× the paper's 3-site × 1,500-step run.
pub const MAX_TRACED_SITE_STEPS: usize = 50_000;

/// Which substructure model a site runs — the heterogeneity axis of a
/// campaign's site mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum SiteKind {
    /// Purely numerical: a linear-elastic column (the MOST NCSA role).
    #[default]
    Numerical,
    /// Emulates a physical specimen: a bilinear hysteretic column with
    /// yielding, the behaviour the UIUC/CU test structures exhibited.
    Emulated,
}

impl SiteKind {
    /// Canonical spelling used by the DSL and serialized forms.
    pub fn name(self) -> &'static str {
        match self {
            SiteKind::Numerical => "numerical",
            SiteKind::Emulated => "emulated",
        }
    }

    /// Parse the canonical spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "numerical" => Some(SiteKind::Numerical),
            "emulated" => Some(SiteKind::Emulated),
            _ => None,
        }
    }

    fn material(self, k: f64) -> Box<dyn Material> {
        match self {
            SiteKind::Numerical => Box::new(LinearElastic::new(k)),
            // Yield at 20% of the elastic force range with 3% hardening —
            // the neighbourhood the MOST specimens were proportioned to.
            SiteKind::Emulated => Box::new(BilinearHysteretic::new(k, 0.2 * k, 0.03)),
        }
    }
}

/// A named ground-motion record family. All suites are synthetic (seeded
/// from the spec), scaled to different peak accelerations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum MotionSuite {
    /// The design-level event (peak 2.0 m/s²) every portal run used
    /// before suites existed.
    #[default]
    Nominal,
    /// A rare event at 3.5 m/s² peak.
    Strong,
    /// A maximum-considered event at 5.0 m/s² peak — drives emulated
    /// specimens well into yield.
    Extreme,
}

impl MotionSuite {
    /// Canonical spelling used by the DSL and serialized forms.
    pub fn name(self) -> &'static str {
        match self {
            MotionSuite::Nominal => "nominal",
            MotionSuite::Strong => "strong",
            MotionSuite::Extreme => "extreme",
        }
    }

    /// Parse the canonical spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "nominal" => Some(MotionSuite::Nominal),
            "strong" => Some(MotionSuite::Strong),
            "extreme" => Some(MotionSuite::Extreme),
            _ => None,
        }
    }

    /// Peak ground acceleration of the suite, m/s².
    pub fn peak(self) -> f64 {
        match self {
            MotionSuite::Nominal => 2.0,
            MotionSuite::Strong => 3.5,
            MotionSuite::Extreme => 5.0,
        }
    }
}

/// Which fault-tolerance configuration the run's coordinator uses — the
/// axis that separated the MOST dry run from the public run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum RunPolicy {
    /// Every NTCP fault-tolerance feature on (the dry-run configuration):
    /// retransmit on timeout and reset, retry failed steps.
    #[default]
    Full,
    /// The public run's incomplete handling: timeouts retransmit, but a
    /// link reset terminates the experiment — the §3.4 failure class.
    Partial,
}

impl RunPolicy {
    /// Canonical spelling used by the DSL and serialized forms.
    pub fn name(self) -> &'static str {
        match self {
            RunPolicy::Full => "full",
            RunPolicy::Partial => "partial",
        }
    }

    /// Parse the canonical spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(RunPolicy::Full),
            "partial" => Some(RunPolicy::Partial),
            _ => None,
        }
    }

    fn fault_policy(self) -> FaultPolicy {
        match self {
            RunPolicy::Full => FaultPolicy::Full {
                max_step_retries: 3,
            },
            RunPolicy::Partial => FaultPolicy::Partial,
        }
    }
}

/// A per-link network-profile override inside a run's private deployment.
/// Node names follow the run topology: `coordinator`, `checkpointer`, and
/// `site-NNN`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Sending node name.
    pub src: String,
    /// Receiving node name.
    pub dst: String,
    /// Condition preset applied to this directed link.
    pub profile: NetworkProfile,
}

/// A tenant's experiment request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Number of experiment sites (one global DOF each).
    pub sites: usize,
    /// Pseudo-dynamic steps to run.
    pub steps: usize,
    /// Seed for the ground motion, site stiffnesses, and network latency.
    pub seed: u64,
    /// Checkpoint every N step boundaries (0 = never — such a run
    /// restarts from scratch after a worker crash).
    pub checkpoint_every: u64,
    /// Default network condition of the run's private deployment.
    pub profile: NetworkProfile,
    /// Per-link overrides layered on top of `profile`.
    pub links: Vec<LinkProfile>,
    /// Site material mix, cycled over site indices; empty = all
    /// [`SiteKind::Numerical`].
    pub mix: Vec<SiteKind>,
    /// Injected network faults, keyed by per-link message index on the
    /// run's private network.
    pub faults: FaultPlan,
    /// Coordinator fault-tolerance configuration.
    pub policy: RunPolicy,
    /// Ground-motion suite driving the run.
    pub motion: MotionSuite,
    /// Scale factor applied to the suite's peak acceleration.
    pub amplitude: f64,
    /// Record a full telemetry trace of the run (network faults, NTCP
    /// transactions, coordinator phases) and archive it as
    /// `trace.jsonl` alongside the run's other artifacts.
    pub record_trace: bool,
}

impl ExperimentSpec {
    /// The pre-campaign spec shape: campus-WAN, all-numerical sites, a
    /// reliable network, and the nominal motion suite.
    pub fn basic(sites: usize, steps: usize, seed: u64, checkpoint_every: u64) -> ExperimentSpec {
        ExperimentSpec {
            sites,
            steps,
            seed,
            checkpoint_every,
            profile: NetworkProfile::CampusWan,
            links: Vec::new(),
            mix: Vec::new(),
            faults: FaultPlan::reliable(),
            policy: RunPolicy::Full,
            motion: MotionSuite::Nominal,
            amplitude: 1.0,
            record_trace: false,
        }
    }

    /// Structural validation at admission time.
    pub fn validate(&self) -> Result<(), String> {
        if self.sites == 0 || self.sites > MAX_SITES {
            return Err(format!("sites must be 1..={MAX_SITES}, got {}", self.sites));
        }
        if self.steps == 0 || self.steps > MAX_STEPS {
            return Err(format!("steps must be 1..={MAX_STEPS}, got {}", self.steps));
        }
        if self.record_trace && self.sites * self.steps > MAX_TRACED_SITE_STEPS {
            return Err(format!(
                "a traced run may have at most {MAX_TRACED_SITE_STEPS} site-steps, got {} sites × {} steps",
                self.sites, self.steps
            ));
        }
        if !self.amplitude.is_finite() || self.amplitude <= 0.0 || self.amplitude > 10.0 {
            return Err(format!(
                "amplitude must be finite in (0, 10], got {}",
                self.amplitude
            ));
        }
        for l in &self.links {
            if l.src.is_empty() || l.dst.is_empty() || l.src == l.dst {
                return Err(format!("invalid link override '{}'->'{}'", l.src, l.dst));
            }
        }
        Ok(())
    }

    /// The material model for site `i` under this spec's mix.
    pub fn site_kind(&self, i: usize) -> SiteKind {
        if self.mix.is_empty() {
            SiteKind::Numerical
        } else {
            self.mix[i % self.mix.len()]
        }
    }

    /// The ground-motion peak after suite scaling.
    pub fn motion_peak(&self) -> f64 {
        self.motion.peak() * self.amplitude
    }

    /// The run's ground motion: a synthetic record seeded from the spec,
    /// `steps` long at the suite's scaled peak.
    pub fn ground_motion(&self) -> GroundMotion {
        GroundMotion::synthetic(self.seed, DT, self.steps, self.motion_peak())
    }
}

/// Per-site stiffness, deterministic in `(seed, index)` (splitmix64) —
/// the MOST columns' stiffness neighbourhood.
fn site_stiffness(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    1.5e5 + (z % 100_000) as f64
}

/// An NTCP client for `site` on `mux`, calling as `caller`.
fn site_client(mux: &Arc<RpcMux>, site: &str, caller: &DistinguishedName) -> NtcpClient {
    NtcpClient::new(
        RpcClient::new(Arc::clone(mux), NodeId::new(site), "ntcp", caller.clone())
            .with_attempt_timeout(Duration::from_millis(150)),
    )
}

/// The deployment a spec describes (the N-site topology of §5): a private
/// [`VirtualNetwork`] seeded from the spec, one NTCP site container per
/// site attached in handler mode, and the [`SimulationCoordinator`] that
/// steps them. Site `i` is named `site-NNN`, binds global DOF `i` with a
/// 1,000 kg mass, and runs a spring-to-ground column whose stiffness is
/// drawn from `(seed, i)` and whose material is the spec's mix at `i`.
///
/// The deployment is a pure function of the spec and the caller: two
/// builds run bit-identically, trace included. [`WorkerRun::build`]
/// streams and checkpoints on top of it; `neesgrid_most::n_site` runs it
/// as built.
pub struct Deployment {
    /// The private WAN, declared first so it drops (and shuts down) first.
    pub net: VirtualNetwork,
    /// The coordinator over every site, on the `coordinator` node.
    pub coordinator: SimulationCoordinator,
    /// The coordinator node's RPC mux.
    pub mux: Arc<RpcMux>,
}

impl Deployment {
    /// Build `spec`'s deployment. The coordinator calls every site as
    /// `caller`; `telemetry` instruments the network, the mux, every site
    /// and the coordinator.
    pub fn build(
        spec: &ExperimentSpec,
        caller: &DistinguishedName,
        telemetry: &Telemetry,
    ) -> Deployment {
        let net = VirtualNetwork::new(spec.profile.config(spec.seed));
        net.set_telemetry(telemetry.clone());
        // Network conditions: the default profile's background loss, then
        // per-link overrides (latency + link-scoped loss), then the spec's
        // scheduled faults — all folded into one deterministic plan.
        let mut plan = spec.faults.clone();
        spec.profile.overlay(&mut plan, None, spec.seed);
        for l in &spec.links {
            let link = LinkKey::new(l.src.as_str(), l.dst.as_str());
            net.set_link_latency(link.clone(), l.profile.latency());
            l.profile.overlay(&mut plan, Some(link), spec.seed);
        }
        net.set_fault_plan(plan);
        let clock = net.clock();
        let mux = RpcMux::new(
            net.endpoint("coordinator")
                .expect("coordinator endpoint is unique per run network"),
        );
        mux.set_telemetry(telemetry.clone());
        let mut builder = SimCoordBuilder::new(vec![1000.0; spec.sites], Arc::clone(&clock))
            .dt(DT)
            .fault_policy(spec.policy.fault_policy())
            .telemetry(telemetry.clone());
        for i in 0..spec.sites {
            let name = format!("site-{i:03}");
            let k = site_stiffness(spec.seed, i as u64);
            let mut server = NtcpServer::new(
                name.clone(),
                SitePolicy::permissive(&name, ActionLimits::most_large_scale()),
                Box::new(SimulationPlugin::new(
                    format!("{name}-sim"),
                    Box::new(SimulatedSubstructure::spring_to_ground(
                        format!("{name}-column"),
                        spec.site_kind(i).material(k),
                    )),
                )),
                Arc::clone(&clock),
            );
            server.set_telemetry(telemetry.clone());
            // The network keeps the attached container until it shuts down.
            ServiceContainer::new(
                net.endpoint(name.as_str())
                    .expect("site endpoint is unique per run network"),
            )
            .with_service("ntcp", Box::new(server))
            .permissive()
            .attach();
            let client = site_client(&mux, &name, caller);
            builder = builder.site(name, client, vec![i], k);
        }
        Deployment {
            net,
            coordinator: builder.build(),
            mux,
        }
    }
}

/// Progress of one scheduling slice.
#[allow(clippy::large_enum_variant)]
pub enum RunProgress {
    /// Steps remain; call [`WorkerRun::advance`] again.
    InFlight,
    /// The experiment ended within this slice.
    Done(ExperimentOutcome),
}

/// One experiment executing on a worker: a private deterministic
/// [`Deployment`] plus the paused coordinator state between slices.
pub struct WorkerRun {
    run_id: String,
    owner: DistinguishedName,
    spec: ExperimentSpec,
    deployment: Deployment,
    // A second checkpointer over the same clients/store, kept for
    // `prepare_resume` (the coordinator owns the one inside its hook).
    restorer: Checkpointer,
    motion: GroundMotion,
    state: Option<CoordinatorState>,
    /// Recording when the spec asked for a trace, disabled otherwise.
    telemetry: Telemetry,
}

impl WorkerRun {
    /// Build a fresh deployment for `spec`, streaming per-step samples to
    /// `stream` under the `{run_id}/…` channel namespace and checkpointing
    /// into `store`.
    pub fn build(
        run_id: &str,
        owner: DistinguishedName,
        spec: ExperimentSpec,
        store: Arc<dyn CheckpointStore>,
        stream: Arc<NsdsServer>,
    ) -> WorkerRun {
        let telemetry = if spec.record_trace {
            Telemetry::recording()
        } else {
            Telemetry::disabled()
        };
        let caller = DistinguishedName::nees_user("PORTAL", run_id);
        let mut deployment = Deployment::build(&spec, &caller, &telemetry);
        let clock = deployment.net.clock();
        // Checkpoint traffic rides its own node, so snapshots never shift
        // the coordinator link's message indices.
        let ck_mux = RpcMux::new(
            deployment
                .net
                .endpoint("checkpointer")
                .expect("checkpointer endpoint is unique per run network"),
        );
        let ck_sites: Vec<(String, NtcpClient)> = (0..spec.sites)
            .map(|i| {
                let name = format!("site-{i:03}");
                let client = site_client(&ck_mux, &name, &caller);
                (name, client)
            })
            .collect();
        let coordinator = &mut deployment.coordinator;

        // Stream every step into the portal's run hub, namespaced by run
        // id so tenant isolation holds at the channel level.
        let channel_run = run_id.to_string();
        let hub = Arc::clone(&stream);
        coordinator.set_on_step(Box::new(move |rec| {
            for (i, d) in rec.displacement.iter().enumerate() {
                hub.publish(NsdsSample {
                    channel: format!("{channel_run}/dof-{i}"),
                    t: rec.at,
                    value: *d,
                });
            }
            hub.publish(NsdsSample {
                channel: format!("{channel_run}/step"),
                t: rec.at,
                value: rec.step as f64,
            });
        }));

        let policy = if spec.checkpoint_every > 0 {
            CheckpointPolicy::every(spec.checkpoint_every).retaining(2)
        } else {
            CheckpointPolicy::never()
        };
        let mux = Arc::clone(&deployment.mux);
        coordinator.checkpoint_into(Checkpointer::new(
            run_id,
            policy,
            Arc::clone(&store),
            ck_sites.clone(),
            Arc::clone(&mux),
            Arc::clone(&clock),
        ));
        let restorer = Checkpointer::new(run_id, policy, store, ck_sites, mux, clock);
        WorkerRun {
            run_id: run_id.to_string(),
            owner,
            motion: spec.ground_motion(),
            spec,
            deployment,
            restorer,
            state: None,
            telemetry,
        }
    }

    /// Rebuild a run after a worker crash: fresh deployment, then re-apply
    /// the latest snapshot (clock, correlation watermark, site state).
    /// Returns `Ok(false)` if no snapshot exists yet — the run restarts
    /// from step 0, which is still bit-identical because the whole
    /// deployment is a pure function of the spec.
    pub fn resume_from_store(&mut self) -> Result<bool, CheckpointError> {
        let snapshot = match self.restorer.load_latest() {
            Ok(s) => s,
            Err(CheckpointError::NotFound { .. }) => return Ok(false),
            Err(e) => return Err(e),
        };
        self.restorer.prepare_resume(&snapshot)?;
        // A genuine checkpoint recovery is logged and trace-worthy
        // (ordinary slice continuations are not — see
        // `SimulationCoordinator::run_slice`), and it is the worker who
        // knows the difference, so both are recorded here.
        let mut state = snapshot.coordinator;
        let now = self.deployment.net.clock().now();
        state.log.record(now, state.step, EventKind::Resumed);
        if self.telemetry.enabled() {
            self.telemetry.instant(
                now.as_nanos(),
                "coordinator",
                "resume",
                [("step", Field::U64(state.step))],
            );
        }
        self.state = Some(state);
        Ok(true)
    }

    /// Run up to `slice_steps` more steps.
    pub fn advance(&mut self, slice_steps: u64) -> RunProgress {
        let resume = self.state.take();
        match self.deployment.coordinator.run_slice(
            &self.motion,
            self.spec.steps,
            resume,
            slice_steps,
        ) {
            SliceOutcome::Paused(s) => {
                self.state = Some(s);
                RunProgress::InFlight
            }
            SliceOutcome::Finished(outcome) => RunProgress::Done(outcome),
        }
    }

    /// Steps committed so far (between slices).
    pub fn steps_completed(&self) -> usize {
        self.state
            .as_ref()
            .map(|s| s.history.steps_completed)
            .unwrap_or(0)
    }

    /// The run's id.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// The submitting tenant.
    pub fn owner(&self) -> &DistinguishedName {
        &self.owner
    }

    /// The spec this run executes.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The run's telemetry handle (recording iff the spec asked for a
    /// trace).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Surrender the telemetry handle when the run leaves its worker, so
    /// the portal can export and archive the trace.
    pub fn into_telemetry(self) -> Telemetry {
        self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_checkpoint::MemoryCheckpointStore;
    use neesgrid_coordinator::Termination;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::basic(2, 40, 7, 10)
    }

    fn owner() -> DistinguishedName {
        DistinguishedName::nees_user("REMOTE", "alice")
    }

    #[test]
    fn spec_validation_bounds() {
        assert!(spec().validate().is_ok());
        assert!(ExperimentSpec { sites: 0, ..spec() }.validate().is_err());
        assert!(ExperimentSpec {
            sites: MAX_SITES + 1,
            ..spec()
        }
        .validate()
        .is_err());
        assert!(ExperimentSpec { steps: 0, ..spec() }.validate().is_err());
    }

    #[test]
    fn extended_spec_knobs() {
        let mut s = spec();
        s.mix = vec![SiteKind::Emulated, SiteKind::Numerical];
        assert_eq!(s.site_kind(0), SiteKind::Emulated);
        assert_eq!(s.site_kind(2), SiteKind::Emulated);
        assert_eq!(s.site_kind(3), SiteKind::Numerical);
        s.motion = MotionSuite::Strong;
        s.amplitude = 1.5;
        assert!((s.motion_peak() - 5.25).abs() < 1e-12);
        assert!(s.validate().is_ok());
        s.amplitude = 0.0;
        assert!(s.validate().is_err());
        s.amplitude = 1.0;
        s.links.push(LinkProfile {
            src: "coordinator".into(),
            dst: "coordinator".into(),
            profile: neesgrid_gridsim::NetworkProfile::Lan,
        });
        assert!(s.validate().is_err(), "self-link override rejected");
    }

    #[test]
    fn traced_run_with_reset_fault_aborts_and_records() {
        let mut s = spec();
        s.record_trace = true;
        s.policy = RunPolicy::Partial;
        // Kill the execute-phase request of step 5 with a connection
        // reset — the error class that ended the MOST public run.
        s.faults.reset_at(
            neesgrid_gridsim::LinkKey::new("coordinator", "site-000"),
            11,
        );
        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryCheckpointStore::new());
        let hub = Arc::new(NsdsServer::new());
        let mut run = WorkerRun::build("run-trace", owner(), s, store, hub);
        assert!(run.telemetry().enabled());
        let outcome = loop {
            if let RunProgress::Done(o) = run.advance(16) {
                break o;
            }
        };
        assert!(
            matches!(outcome.termination, Termination::Aborted { .. }),
            "reset during execute must abort"
        );
        let trace = run.into_telemetry().export_jsonl();
        assert!(trace.contains("\"reset\""), "net fault recorded");
        assert!(trace.contains("\"abort\""), "coordinator abort recorded");
    }

    #[test]
    fn emulated_mix_changes_the_trajectory() {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryCheckpointStore::new());
        let hub = Arc::new(NsdsServer::new());
        let run_with = |mix: Vec<SiteKind>| {
            let mut s = spec();
            s.mix = mix;
            s.motion = MotionSuite::Extreme;
            let mut run = WorkerRun::build(
                "run-mix",
                owner(),
                s,
                Arc::new(MemoryCheckpointStore::new()),
                Arc::new(NsdsServer::new()),
            );
            loop {
                if let RunProgress::Done(o) = run.advance(64) {
                    break o;
                }
            }
        };
        let _ = (&store, &hub);
        let numerical = run_with(vec![SiteKind::Numerical]);
        let emulated = run_with(vec![SiteKind::Emulated]);
        assert!(
            numerical
                .history
                .max_displacement_difference(&emulated.history)
                > 0.0,
            "a yielding specimen must diverge from the elastic one"
        );
    }

    #[test]
    fn sliced_run_streams_and_completes() {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryCheckpointStore::new());
        let hub = Arc::new(NsdsServer::new());
        let sub = hub.subscribe("run-000001/dof-0", 4096);
        let mut run = WorkerRun::build("run-000001", owner(), spec(), store, Arc::clone(&hub));
        let mut slices = 0;
        let outcome = loop {
            match run.advance(8) {
                RunProgress::InFlight => slices += 1,
                RunProgress::Done(o) => break o,
            }
        };
        assert!(matches!(outcome.termination, Termination::Completed));
        assert_eq!(outcome.steps_completed(), 40);
        assert!(slices >= 4);
        assert_eq!(sub.delivered(), 40, "one dof-0 sample per step");
    }

    #[test]
    fn crash_rebuild_resumes_from_snapshot_bit_identical() {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryCheckpointStore::new());
        let hub = Arc::new(NsdsServer::new());
        // Uninterrupted reference.
        let mut reference = WorkerRun::build(
            "run-ref",
            owner(),
            spec(),
            Arc::new(MemoryCheckpointStore::new()),
            Arc::clone(&hub),
        );
        let reference_outcome = loop {
            if let RunProgress::Done(o) = reference.advance(64) {
                break o;
            }
        };
        // Crash victim: run past the step-10 checkpoint, then drop it.
        let mut victim = WorkerRun::build(
            "run-a",
            owner(),
            spec(),
            Arc::clone(&store),
            Arc::clone(&hub),
        );
        assert!(matches!(victim.advance(16), RunProgress::InFlight));
        assert!(victim.steps_completed() >= 10);
        drop(victim);
        // Rebuild + resume from the stored snapshot.
        let mut revived = WorkerRun::build(
            "run-a",
            owner(),
            spec(),
            Arc::clone(&store),
            Arc::clone(&hub),
        );
        assert!(revived.resume_from_store().unwrap(), "snapshot existed");
        assert!(revived.steps_completed() >= 10);
        let outcome = loop {
            if let RunProgress::Done(o) = revived.advance(8) {
                break o;
            }
        };
        assert_eq!(outcome.steps_completed(), 40);
        assert_eq!(
            outcome
                .history
                .max_displacement_difference(&reference_outcome.history),
            0.0,
            "rescheduled trajectory must be bit-identical"
        );
        // Slice boundaries are not recoveries; the rebuild is the one.
        let resumes = |o: &ExperimentOutcome| {
            o.log
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Resumed)
                .count()
        };
        assert_eq!(resumes(&reference_outcome), 0);
        assert_eq!(resumes(&outcome), 1);
    }

    #[test]
    fn resume_without_snapshot_restarts_cleanly() {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryCheckpointStore::new());
        let hub = Arc::new(NsdsServer::new());
        let mut run = WorkerRun::build("run-b", owner(), spec(), store, hub);
        assert!(!run.resume_from_store().unwrap());
        assert_eq!(run.steps_completed(), 0);
    }
}
