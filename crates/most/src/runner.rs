//! The complete MOST deployment, in one process.
//!
//! Builds everything Figure 5 and Figure 9 show, wired exactly as the
//! paper describes:
//!
//! * a virtual WAN linking `coordinator`, `uiuc`, `cu`, `ncsa`, and
//!   `repository` nodes, with 2003-grade latencies;
//! * GSI: one NEES CA, host credentials per service node, a proxy
//!   credential for the coordinator, strict containers with installed
//!   security contexts;
//! * NTCP servers per site with the Figure 9 plugin stack — Shore-Western
//!   line-protocol bridge at UIUC, polled Mplugin backends at NCSA
//!   (numerical model) and CU (xPC → servo-hydraulics);
//! * per-site telemetry streamed to NSDS and sampled by a LabVIEW-style
//!   DAQ into a file-drop directory, shipped incrementally to the remote
//!   repository (NFMS chunked upload + NMDS records) while the experiment
//!   runs;
//! * a CHEF portal with a synthetic crowd of remote participants watching
//!   the streams.
//!
//! Every node is an event-engine handler and the calling thread alone
//! pumps the engine, so a run is a pure function of its configuration and
//! fault plan: same-configuration runs replay byte-identically, virtual
//! clock and archive included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde_json::json;

use neesgrid_apparatus::{
    ActuatorConfig, ControllerCommand, ControllerResponse, LoadCell, Lvdt, ServoHydraulicActuator,
    ShoreWesternController, ShoreWesternPlugin, SteelColumn, XpcTarget,
};
use neesgrid_checkpoint::{
    CheckpointError, CheckpointPolicy, CheckpointStore, Checkpointable, Checkpointer,
    MemoryCheckpointStore, Snapshot,
};
use neesgrid_chef::{CollabPortal, DataViewer, RemoteFeed};
use neesgrid_coordinator::{FaultPolicy, SimCoordBuilder, SiteHandle};
use neesgrid_daq::nsds::{NsdsSample, NsdsServer};
use neesgrid_daq::{ChannelConfig, DaqSystem, FileDropDir};
use neesgrid_gridsim::{FaultPlan, NetworkProfile, NodeId, SimTime, VirtualNetwork};
use neesgrid_gsi::{authenticate, CertificateAuthority, Credential, DistinguishedName};
use neesgrid_gsi::{ActionLimits, SitePolicy};
use neesgrid_ntcp::{
    BufferedPlugin, ControlPlugin, ControlPoint, ControlPointResult, ExecuteOutcome, NtcpClient,
    NtcpServer, PluginError, SimulationPlugin,
};
use neesgrid_ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid_portal::{Portal, PortalConfig, Role};
use neesgrid_repo::{Ingester, Nfms, NfmsService, Nmds, NmdsService, VirtualStore};
use neesgrid_structsim::element::CouplingSpring;
use neesgrid_structsim::material::{BilinearHysteretic, LinearElastic};
use neesgrid_structsim::substructure::SimulatedSubstructure;
use neesgrid_telemetry::Telemetry;

use crate::config::{MostConfig, SiteRole};
use crate::report::MostReport;

/// Wraps a site plugin to publish each measurement to NSDS and the site's
/// DAQ telemetry point — the role the site-local LabVIEW VI played (§3.2).
struct TelemetryPlugin {
    inner: Box<dyn ControlPlugin>,
    site: String,
    latest: Arc<Mutex<(f64, f64)>>,
    nsds: Arc<NsdsServer>,
    clock: Arc<neesgrid_gridsim::SimClock>,
}

impl ControlPlugin for TelemetryPlugin {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String> {
        self.inner.review(actions)
    }

    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
        let out = self.inner.execute(actions)?;
        if let Some(first) = out.results.first() {
            *self.latest.lock() = (first.displacement_m, first.force_n);
        }
        let t = self.clock.now();
        for r in &out.results {
            self.nsds.publish(NsdsSample {
                channel: format!("{}/{}/disp", self.site, r.name),
                t,
                value: r.displacement_m,
            });
            self.nsds.publish(NsdsSample {
                channel: format!("{}/{}/force", self.site, r.name),
                t,
                value: r.force_n,
            });
        }
        Ok(out)
    }

    fn cancel(&mut self, actions: &[ControlPoint]) -> Result<(), PluginError> {
        self.inner.cancel(actions)
    }

    fn state(&self) -> Option<serde_json::Value> {
        self.inner.state()
    }

    fn restore(&mut self, state: &serde_json::Value) -> Result<(), PluginError> {
        self.inner.restore(state)
    }
}

fn xpc_results(
    actions: &[ControlPoint],
    target: &mut XpcTarget,
) -> Result<ExecuteOutcome, PluginError> {
    let a = &actions[0];
    let (resp, duration) = target.execute(ControllerCommand::Move {
        target_m: a.displacement_m,
    });
    match resp {
        ControllerResponse::Moved(m) => Ok(ExecuteOutcome {
            results: vec![ControlPointResult {
                name: a.name.clone(),
                displacement_m: m.displacement_m,
                force_n: m.force_n,
            }],
            duration,
        }),
        ControllerResponse::Error(e) => Err(PluginError::permanent(e)),
        other => Err(PluginError::permanent(format!("unexpected {other:?}"))),
    }
}

/// One fully wired MOST deployment, ready to run.
pub struct MostDeployment {
    net: VirtualNetwork,
    /// The experiment configuration.
    pub config: MostConfig,
    /// The streaming data service.
    pub nsds: Arc<NsdsServer>,
    /// The collaboration portal client (the CHEF node).
    pub portal: CollabPortal,
    /// The portal wire service the crowd's frames land on.
    pub portal_service: Portal,
    sites: Vec<SiteHandle>,
    daqs: Vec<(String, DaqSystem)>,
    drop_dir: FileDropDir,
    ingester: Ingester,
    participants: Vec<(DataViewer, RemoteFeed)>,
    store: VirtualStore,
    coordinator_mux: Arc<RpcMux>,
    /// Per-site NTCP clients on the dedicated `checkpointer` endpoint.
    /// Snapshot/restore RPCs ride these links so they never shift the
    /// experiment links' deterministic fault-plan message indices.
    checkpoint_clients: Vec<(String, NtcpClient)>,
    telemetry: Telemetry,
}

/// Everything a run produces.
pub struct MostRunArtifacts {
    /// The coordinator's outcome (history, log, termination).
    pub outcome: neesgrid_coordinator::ExperimentOutcome,
    /// The paper-vs-measured report.
    pub report: MostReport,
    /// Files shipped to the repository.
    pub files_ingested: u64,
    /// Bytes shipped to the repository.
    pub bytes_ingested: u64,
    /// Total NSDS samples published.
    pub nsds_published: u64,
    /// Remote participants logged in.
    pub participants: usize,
    /// What each participant's viewer caught of the stream, in login
    /// order.
    pub viewers: Vec<ViewerCatch>,
}

/// Samples each participant's observer ring holds on the portal.
pub const VIEWER_BUFFER: usize = 8192;

/// One participant's share of the NSDS stream. Each viewer's ring holds
/// [`VIEWER_BUFFER`] samples and is drained after the run, so a run that
/// publishes more than that drops the oldest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewerCatch {
    /// Samples the viewer took in over the wire.
    pub received: u64,
    /// Samples its ring overflowed before it caught up.
    pub dropped: u64,
    /// Pumps of its feed that ended on an error (a failed `Poll`, or a
    /// reply the viewer could not take).
    pub feed_errors: u64,
}

impl MostDeployment {
    /// Build the full deployment with `participants` synthetic remote
    /// observers.
    pub fn build(config: MostConfig, participants: usize) -> Self {
        Self::build_full(
            config,
            participants,
            VirtualStore::new(),
            Telemetry::disabled(),
        )
    }

    /// Build the deployment around an existing repository backing store.
    /// Because [`VirtualStore`] clones share state, handing the same
    /// store to a second deployment is the crash-and-restart path: the
    /// new deployment sees every file — and checkpoint — the old one
    /// deposited.
    pub fn build_with_store(config: MostConfig, participants: usize, store: VirtualStore) -> Self {
        Self::build_full(config, participants, store, Telemetry::disabled())
    }

    /// Build a fully instrumented deployment: the handle is threaded into
    /// the WAN, the RPC muxes, every NTCP server, NSDS, the coordinator,
    /// and the checkpointer. Pass [`Telemetry::disabled`] (or use
    /// [`MostDeployment::build`]) for an uninstrumented run — default
    /// goldens stay byte-identical.
    pub fn build_with_telemetry(
        config: MostConfig,
        participants: usize,
        telemetry: Telemetry,
    ) -> Self {
        Self::build_full(config, participants, VirtualStore::new(), telemetry)
    }

    /// [`MostDeployment::build_with_telemetry`] around an existing backing
    /// store — the instrumented crash-and-restart path.
    pub fn build_full(
        config: MostConfig,
        participants: usize,
        store: VirtualStore,
        telemetry: Telemetry,
    ) -> Self {
        let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(config.motion_seed));
        let clock = net.clock();
        net.set_telemetry(telemetry.clone());
        let nsds = Arc::new(NsdsServer::new());
        nsds.set_telemetry(telemetry.clone());
        let ca = CertificateAuthority::nees(0x6E65_6573);
        let cred_life = SimTime::from_secs(1000 * 3600);
        let coordinator_cred = Credential::issue(
            &ca,
            DistinguishedName::nees_user("NCSA", "MOST Coordinator"),
            SimTime::ZERO,
            cred_life,
            1,
        );
        // The coordinator runs on a delegated proxy, as the real one did.
        let coordinator_proxy = coordinator_cred
            .delegate(SimTime::ZERO, cred_life)
            .expect("delegate coordinator proxy");
        let ingester_cred = Credential::issue(
            &ca,
            DistinguishedName::nees_user("NCSA", "MOST Ingester"),
            SimTime::ZERO,
            cred_life,
            2,
        );

        // --- Repository node ------------------------------------------------
        let repo_host = Credential::issue(
            &ca,
            DistinguishedName::nees_host("repository", "container"),
            SimTime::ZERO,
            cred_life,
            3,
        );
        let mut repo_container =
            ServiceContainer::new(net.endpoint("repository").expect("endpoint name is unique"))
                .with_service("nfms", Box::new(NfmsService::new(Nfms::new(store.clone()))))
                .with_service("nmds", Box::new(NmdsService::new(Nmds::new())));
        for cred in [&coordinator_proxy, &ingester_cred] {
            let session = authenticate(cred, &repo_host, &ca.verifier(), SimTime::ZERO)
                .expect("repo session");
            repo_container.install_session(session);
        }
        repo_container.attach();

        // --- Experiment sites -------------------------------------------------
        let site_specs: Vec<(&str, SiteRole, Vec<usize>, f64)> = vec![
            ("uiuc", config.uiuc_role, vec![0], config.uiuc_stiffness()),
            ("cu", config.cu_role, vec![1], config.cu_stiffness()),
            ("ncsa", config.ncsa_role, vec![0, 1], config.beam_stiffness),
        ];
        let coordinator_mux = RpcMux::new(
            net.endpoint("coordinator")
                .expect("endpoint name is unique"),
        );
        coordinator_mux.set_telemetry(telemetry.clone());
        let checkpointer_mux = RpcMux::new(
            net.endpoint("checkpointer")
                .expect("endpoint name is unique"),
        );
        checkpointer_mux.set_telemetry(telemetry.clone());
        let mut sites = Vec::new();
        let mut checkpoint_clients = Vec::new();
        let mut daqs = Vec::new();
        for (name, role, dofs, stiffness) in site_specs {
            let latest = Arc::new(Mutex::new((0.0f64, 0.0f64)));
            let inner: Box<dyn ControlPlugin> = match role {
                SiteRole::PhysicalShoreWestern => {
                    let controller = ShoreWesternController::new(
                        ServoHydraulicActuator::new(ActuatorConfig::lab_100kn()),
                        Box::new(SteelColumn::most_uiuc()),
                        Lvdt::lab_grade(format!("{name}/lvdt"), 101),
                        LoadCell::new(format!("{name}/load"), 102, 150_000.0),
                        120_000.0,
                    );
                    Box::new(ShoreWesternPlugin::new(
                        format!("{name}-shore-western"),
                        controller,
                        0.075,
                    ))
                }
                SiteRole::PhysicalXpc => {
                    let controller = ShoreWesternController::new(
                        ServoHydraulicActuator::new(ActuatorConfig::lab_100kn()),
                        Box::new(SteelColumn::most_cu()),
                        Lvdt::lab_grade(format!("{name}/lvdt"), 201),
                        LoadCell::new(format!("{name}/load"), 202, 300_000.0),
                        250_000.0,
                    );
                    let mut target = XpcTarget::new(controller, SimTime::from_millis(1));
                    Box::new(BufferedPlugin::new(
                        format!("{name}-mplugin-xpc"),
                        move |actions: &[ControlPoint]| xpc_results(actions, &mut target),
                    ))
                }
                SiteRole::SimulatedMplugin => {
                    let mut sub = SimulatedSubstructure::new(format!("{name}-center"), 2);
                    sub.add_element(Box::new(CouplingSpring::new(
                        0,
                        1,
                        Box::new(LinearElastic::new(config.beam_stiffness)),
                    )));
                    let mut sim =
                        SimulationPlugin::new(format!("{name}-matlab-model"), Box::new(sub));
                    sim.compute_time = SimTime::from_millis(180);
                    Box::new(BufferedPlugin::new(
                        format!("{name}-mplugin"),
                        move |actions: &[ControlPoint]| sim.execute(actions),
                    ))
                }
                SiteRole::SimulatedDirect => {
                    let sub: Box<dyn neesgrid_structsim::Substructure> = if dofs.len() == 2 {
                        let mut s = SimulatedSubstructure::new(format!("{name}-center"), 2);
                        s.add_element(Box::new(CouplingSpring::new(
                            0,
                            1,
                            Box::new(LinearElastic::new(config.beam_stiffness)),
                        )));
                        Box::new(s)
                    } else {
                        let (k, fy) = if name == "uiuc" {
                            (config.uiuc_stiffness(), 35_000.0)
                        } else {
                            (config.cu_stiffness(), 70_000.0)
                        };
                        Box::new(SimulatedSubstructure::spring_to_ground(
                            format!("{name}-column"),
                            Box::new(BilinearHysteretic::new(k, fy, 0.03)),
                        ))
                    };
                    Box::new(SimulationPlugin::new(format!("{name}-sim"), sub))
                }
            };
            let plugin = TelemetryPlugin {
                inner,
                site: name.to_string(),
                latest: Arc::clone(&latest),
                nsds: Arc::clone(&nsds),
                clock: Arc::clone(&clock),
            };
            let mut server = NtcpServer::new(
                name,
                SitePolicy::permissive(name, ActionLimits::most_large_scale()),
                Box::new(plugin),
                Arc::clone(&clock),
            );
            server.set_telemetry(telemetry.clone());
            let host_cred = Credential::issue(
                &ca,
                DistinguishedName::nees_host(name, "ntcp"),
                SimTime::ZERO,
                cred_life,
                1000 + sites.len() as u64,
            );
            let mut container =
                ServiceContainer::new(net.endpoint(name).expect("endpoint name is unique"))
                    .with_service("ntcp", Box::new(server));
            container.install_session(
                authenticate(
                    &coordinator_proxy,
                    &host_cred,
                    &ca.verifier(),
                    SimTime::ZERO,
                )
                .expect("site session"),
            );
            container.attach();

            // Site DAQ over its telemetry point. The same strategy "was
            // used to capture data generated by the simulation at NCSA"
            // (§3.2), so every site gets one.
            let mut daq = DaqSystem::new();
            let l1 = Arc::clone(&latest);
            daq.add_channel(
                ChannelConfig::new(format!("{name}/lvdt"), "m", 1.0),
                Box::new(move |_t: SimTime| l1.lock().0),
            );
            let l2 = Arc::clone(&latest);
            daq.add_channel(
                ChannelConfig::new(format!("{name}/load"), "N", 1.0),
                Box::new(move |_t: SimTime| l2.lock().1),
            );
            daqs.push((name.to_string(), daq));

            sites.push(SiteHandle {
                name: name.to_string(),
                client: NtcpClient::new(
                    RpcClient::new(
                        Arc::clone(&coordinator_mux),
                        NodeId::new(name),
                        "ntcp",
                        coordinator_proxy.identity().clone(),
                    )
                    .with_attempt_timeout(Duration::from_millis(150)),
                ),
                binding: neesgrid_structsim::substructure::SubstructureBinding::new(dofs),
                stiffness_estimate: stiffness,
            });
            // The checkpointer reuses the coordinator's proxy identity
            // (site containers authorize by caller DN) but its own
            // endpoint, keeping snapshot traffic off the experiment links.
            checkpoint_clients.push((
                name.to_string(),
                NtcpClient::new(
                    RpcClient::new(
                        Arc::clone(&checkpointer_mux),
                        NodeId::new(name),
                        "ntcp",
                        coordinator_proxy.identity().clone(),
                    )
                    .with_attempt_timeout(Duration::from_millis(150)),
                ),
            ));
        }

        // The ingestion tool's repository clients.
        let repository = |service| {
            RpcClient::new(
                Arc::clone(&coordinator_mux),
                NodeId::new("repository"),
                service,
                ingester_cred.identity().clone(),
            )
            .with_attempt_timeout(Duration::from_millis(150))
        };
        let ingester = Ingester::new("/experiments/most", repository("nfms"), repository("nmds"));

        // CHEF portal service + synthetic crowd, all through the wire
        // API: every login and observer slot is a portal frame, and the
        // crowd's streams come from a facility observer on the service.
        let portal_service = Portal::serve(
            &net,
            "chef-portal",
            ca.verifier(),
            Arc::new(MemoryCheckpointStore::new()),
            PortalConfig {
                default_role: Role::Observer,
                ..PortalConfig::default()
            },
        )
        .expect("portal node is unique in this deployment");
        portal_service.attach_facility_hub(Arc::clone(&nsds));
        portal_service.set_telemetry(telemetry.clone());
        let mut portal =
            CollabPortal::connect(&net, "chef-client", "chef-portal").expect("client node unique");
        portal.client().set_telemetry(&telemetry);
        let mut viewers = Vec::new();
        for i in 0..participants {
            let cred = Credential::issue(
                &ca,
                DistinguishedName::nees_user("REMOTE", &format!("participant-{i}")),
                SimTime::ZERO,
                cred_life,
                5000 + i as u64,
            );
            portal
                .login(&cred, SimTime::ZERO)
                .expect("participant login");
            viewers.push(
                portal
                    .open_viewer(cred.identity(), "*", VIEWER_BUFFER)
                    .expect("observer slot within quota"),
            );
        }

        MostDeployment {
            net,
            config,
            nsds,
            portal,
            portal_service,
            sites,
            daqs,
            drop_dir: FileDropDir::new(),
            ingester,
            participants: viewers,
            store,
            coordinator_mux,
            checkpoint_clients,
            telemetry,
        }
    }

    /// The repository backing store (shared with clones; hand it to
    /// [`MostDeployment::build_with_store`] to rebuild after a crash).
    pub fn store(&self) -> &VirtualStore {
        &self.store
    }

    /// Install a fault schedule on the WAN.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// The shared experiment clock.
    pub fn clock(&self) -> Arc<neesgrid_gridsim::SimClock> {
        self.net.clock()
    }

    /// Record the pre-experiment metadata (§3.3: structural configuration,
    /// material properties, instrumentation — uploaded before the run).
    fn record_setup_metadata(&self) {
        let schema = json!({
            "fields": {
                "site": "string",
                "substructure": "string",
                "stiffness_n_per_m": "number",
            },
            "allow_extra": true,
        });
        let _ = self
            .ingester
            .create_schema("/schemas/most-substructure", schema);
        let setups = [
            (
                "uiuc",
                "left column (cantilever, pin top)",
                self.config.uiuc_stiffness(),
            ),
            (
                "cu",
                "right column (fixed-fixed)",
                self.config.cu_stiffness(),
            ),
            (
                "ncsa",
                "central beam section (numerical)",
                self.config.beam_stiffness,
            ),
        ];
        for (site, desc, k) in setups {
            let _ = self.ingester.record(
                &format!("/experiments/most/setup/{site}"),
                Some("/schemas/most-substructure"),
                json!({
                    "site": site,
                    "substructure": desc,
                    "stiffness_n_per_m": k,
                    "mass_kg": self.config.mass_kg,
                    "dt_s": self.config.dt,
                }),
            );
        }
    }

    /// Run the experiment under `policy`. Consumes the deployment.
    pub fn run(self, policy: FaultPolicy) -> MostRunArtifacts {
        self.run_inner(policy, None, None)
            .expect("run without resume cannot fail on checkpoint machinery")
    }

    /// Run with periodic checkpointing: snapshots of coordinator + site
    /// state go to `store` under `run_id` at the boundaries
    /// `checkpoint_policy` selects. A checkpoint failure is logged in the
    /// experiment log but never interrupts the run.
    pub fn run_with_checkpoints(
        self,
        policy: FaultPolicy,
        run_id: &str,
        checkpoint_policy: CheckpointPolicy,
        checkpoint_store: Arc<dyn CheckpointStore>,
    ) -> MostRunArtifacts {
        self.run_inner(
            policy,
            Some((run_id.to_string(), checkpoint_policy, checkpoint_store)),
            None,
        )
        .expect("run without resume cannot fail on checkpoint machinery")
    }

    /// Crash-and-restart mode: load the latest snapshot for `run_id`,
    /// push each site's state back onto this (freshly built) deployment,
    /// fast-forward the coordinator's correlation counter and the virtual
    /// clock, and continue the run to completion.
    pub fn resume_latest(
        self,
        policy: FaultPolicy,
        run_id: &str,
        checkpoint_store: Arc<dyn CheckpointStore>,
    ) -> Result<MostRunArtifacts, CheckpointError> {
        let snapshot = checkpoint_store.load_latest(run_id)?;
        self.run_inner(policy, None, Some((snapshot, checkpoint_store)))
    }

    fn run_inner(
        mut self,
        policy: FaultPolicy,
        checkpoints: Option<(String, CheckpointPolicy, Arc<dyn CheckpointStore>)>,
        resume: Option<(Snapshot, Arc<dyn CheckpointStore>)>,
    ) -> Result<MostRunArtifacts, CheckpointError> {
        self.record_setup_metadata();
        let clock = self.net.clock();
        let motion = self.config.ground_motion();
        let steps = self.config.steps;

        let mut builder = SimCoordBuilder::new(
            vec![self.config.mass_kg, self.config.mass_kg],
            Arc::clone(&clock),
        )
        .dt(self.config.dt)
        .fault_policy(policy)
        .telemetry(self.telemetry.clone());
        for s in self.sites.drain(..) {
            builder = builder.site(
                s.name.clone(),
                s.client,
                s.binding.global_dofs,
                s.stiffness_estimate,
            );
        }
        let mut coordinator = builder.build();

        // DAQ → file-drop → repository ingestion, incrementally during the
        // run (every `FLUSH_EVERY` steps), from the coordinator's step
        // callback — the role of the site LabVIEW VIs + ingestion tool.
        const FLUSH_EVERY: u64 = 100;
        let daqs = Arc::new(Mutex::new(std::mem::take(&mut self.daqs)));
        let drop_dir = self.drop_dir.clone();
        let ingester = self.ingester.clone();
        let files_counter = Arc::new(AtomicU64::new(0));
        let bytes_counter = Arc::new(AtomicU64::new(0));
        let window_counter = Arc::new(AtomicU64::new(0));
        let last_flush_t = Arc::new(Mutex::new(SimTime::ZERO));
        {
            let clock = Arc::clone(&clock);
            let daqs = Arc::clone(&daqs);
            let files_counter = Arc::clone(&files_counter);
            let bytes_counter = Arc::clone(&bytes_counter);
            let window_counter = Arc::clone(&window_counter);
            let last_flush_t = Arc::clone(&last_flush_t);
            let drop_dir = drop_dir.clone();
            coordinator.set_on_step(Box::new(move |rec| {
                if (rec.step + 1) % FLUSH_EVERY != 0 {
                    return;
                }
                let now = clock.now();
                let from = *last_flush_t.lock();
                *last_flush_t.lock() = now;
                let window = window_counter.fetch_add(1, Ordering::Relaxed);
                // Sample every site DAQ over the elapsed window and deposit
                // each non-empty series into the drop directory.
                for (_, daq) in daqs.lock().iter_mut() {
                    for ts in daq.acquire(from, now) {
                        if !ts.is_empty() {
                            drop_dir.deposit_series(&ts, window, now);
                        }
                    }
                }
                // Ship new drop files to the repository.
                let cursor = files_counter.load(Ordering::Relaxed);
                for file in drop_dir.poll_new(cursor) {
                    let logical = ingester.data_name(&file.name);
                    if let Ok(bytes) = ingester.upload(&logical, &file.content) {
                        bytes_counter.fetch_add(bytes, Ordering::Relaxed);
                        files_counter.fetch_add(1, Ordering::Relaxed);
                        let _ = ingester.record(
                            &ingester.record_name(&file.name),
                            None,
                            json!({
                                "logical_file": logical,
                                "size_bytes": file.content.len(),
                                "window": window,
                            }),
                        );
                    }
                }
            }));
        }

        if let Some((run_id, ckpt_policy, ckpt_store)) = checkpoints {
            coordinator.checkpoint_into(
                Checkpointer::new(
                    run_id,
                    ckpt_policy,
                    ckpt_store,
                    self.checkpoint_clients.clone(),
                    Arc::clone(&self.coordinator_mux),
                    Arc::clone(&clock),
                )
                .with_telemetry(self.telemetry.clone()),
            );
        }

        let outcome = match resume {
            Some((snapshot, ckpt_store)) => {
                let checkpointer = Checkpointer::new(
                    snapshot.run_id.clone(),
                    CheckpointPolicy::never(),
                    ckpt_store,
                    self.checkpoint_clients.clone(),
                    Arc::clone(&self.coordinator_mux),
                    Arc::clone(&clock),
                )
                .with_telemetry(self.telemetry.clone());
                checkpointer.prepare_resume(&snapshot)?;
                coordinator.resume_from(snapshot, &motion, steps)
            }
            None => coordinator.run(&motion, steps),
        };

        // Let the crowd catch up on the stream, over the wire.
        let viewers = self
            .participants
            .iter_mut()
            .map(|(viewer, feed)| {
                let (received, result) = feed.pump(viewer);
                viewer.seek(viewer.live_edge);
                ViewerCatch {
                    received: received as u64,
                    dropped: feed.dropped(),
                    feed_errors: u64::from(result.is_err()),
                }
            })
            .collect();

        let report = MostReport::from_outcome(
            &self.config,
            &outcome,
            self.portal_service.peak_sessions(),
            files_counter.load(Ordering::Relaxed),
            bytes_counter.load(Ordering::Relaxed),
            clock.now(),
        );
        Ok(MostRunArtifacts {
            outcome,
            report,
            files_ingested: files_counter.load(Ordering::Relaxed),
            bytes_ingested: bytes_counter.load(Ordering::Relaxed),
            nsds_published: self.nsds.published(),
            participants: self.portal_service.peak_sessions(),
            viewers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame_model::reference_history;
    use neesgrid_coordinator::Termination;

    #[test]
    fn simulation_only_deployment_matches_reference() {
        // §3's incremental path: the all-simulation rehearsal, end to end
        // through GSI + OGSI + NTCP + the WAN, must match the in-process
        // reference model exactly (ideal substructures, no sensor noise).
        let config = MostConfig::simulation_only().with_steps(150);
        let deployment = MostDeployment::build(config.clone(), 3);
        let artifacts = deployment.run(FaultPolicy::Full {
            max_step_retries: 2,
        });
        assert_eq!(artifacts.outcome.steps_completed(), 150);
        let reference = reference_history(&config);
        let diff = artifacts
            .outcome
            .history
            .max_displacement_difference(&reference);
        assert!(diff < 1e-12, "deployment vs reference diff {diff}");
        assert!(artifacts.nsds_published > 0);
        assert!(artifacts.files_ingested > 0, "incremental ingestion ran");
    }

    #[test]
    fn hybrid_deployment_tracks_reference_within_rig_tolerance() {
        // Swap in the emulated physical rigs (sensor noise, actuator
        // settle): the coordinator code is untouched, and the response
        // stays close to the ideal reference — the "substitution
        // transparent to the coordinator" claim (§3).
        let config = MostConfig::paper().with_steps(120);
        let deployment = MostDeployment::build(config.clone(), 2);
        let artifacts = deployment.run(FaultPolicy::Full {
            max_step_retries: 2,
        });
        assert_eq!(artifacts.outcome.steps_completed(), 120);
        assert!(matches!(
            artifacts.outcome.termination,
            Termination::Completed
        ));
        let reference = reference_history(&config);
        let diff = artifacts
            .outcome
            .history
            .max_displacement_difference(&reference);
        let peak = reference.peak_displacement(0);
        assert!(
            diff < 0.05 * peak.max(1e-4),
            "hybrid diff {diff} vs peak {peak}"
        );
        // Physical execution dominates experiment time: the virtual clock
        // advanced far beyond the protocol overheads.
        assert!(deployment_time_is_physical(&artifacts));
    }

    fn deployment_time_is_physical(artifacts: &MostRunArtifacts) -> bool {
        // 120 steps of actuator ramps at ~mm amplitudes: ≥ 60 s virtual.
        artifacts.report.virtual_duration >= SimTime::from_secs(60)
    }
}
