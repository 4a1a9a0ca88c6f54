//! The portal service: wire handler, admission control, scheduling loop.
//!
//! One [`Portal`] per deployment. It installs an envelope handler on a
//! control-network node (service name [`PORTAL_SERVICE`]); every request
//! is one length-prefixed JSON frame and produces exactly one reply on
//! the same correlation id. Admission is checked *before* anything is
//! allocated: session, role, per-tenant quotas, then the bounded
//! submission queue — each refusal is a typed [`Rejection`] the client
//! can branch on. Execution happens in [`PortalCore::tick`]: queued runs
//! are placed on idle worker slots, every busy worker advances one slice
//! of steps, and completed runs are finalized with a CRC-32 history
//! digest. A crashed worker ([`Portal::kill_worker`]) orphans its run
//! into the `Rescheduling` state; the next tick rebuilds the deployment
//! from the spec, re-applies the latest checkpoint, and the trajectory
//! finishes bit-identical to an uninterrupted execution.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use neesgrid_archive::ArchiveSite;
use neesgrid_checkpoint::CheckpointStore;
use neesgrid_coordinator::Termination;
use neesgrid_daq::nsds::{NsdsSample, NsdsServer, NsdsSubscription};
use neesgrid_gridsim::{
    Endpoint, Envelope, MessageKind, NetworkError, SimClock, SimTime, VirtualNetwork,
};
use neesgrid_gsi::{CaVerifier, DistinguishedName, PolicyDecision};
use neesgrid_repo::{crc32, to_hex};
use neesgrid_telemetry::{CounterHandle, Field, Telemetry};

use crate::experiment::{ExperimentSpec, RunProgress, WorkerRun};
use crate::frame::{
    self, BoardEntry, PortalStats, Rejection, Request, RequestFrame, Response, RunReport, RunState,
    ARTIFACT_CHUNK_MAX, PORTAL_SERVICE,
};
use crate::scheduler::{SubmissionQueue, WorkerPool};
use crate::tenant::{LoginError, Role, TenantDirectory, TenantQuotas};

/// Entries retained per collaboration board (drop-oldest beyond this).
pub const BOARD_RETENTION: usize = 1024;

/// Most samples one `Poll` reply may carry, whatever the client asks.
pub const POLL_CHUNK_MAX: usize = 4096;

/// Ring capacity of the internal per-run capture subscription feeding
/// the archive. Drained every tick, so overflow needs a single slice to
/// publish this many samples.
pub const CAPTURE_BUFFER: usize = 64 * 1024;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PortalConfig {
    /// Role granted to tenants with no explicit assignment.
    pub default_role: Role,
    /// Quotas for tenants with no explicit override.
    pub default_quotas: TenantQuotas,
    /// Submission-queue bound (admissions shed beyond it).
    pub queue_capacity: usize,
    /// Worker slots.
    pub workers: usize,
    /// Steps each busy worker advances per tick.
    pub slice_steps: u64,
    /// Control-plane virtual time added per tick.
    pub tick_quantum: SimTime,
    /// Seeded faults for checker mutation testing (all off in service).
    pub faults: PortalFaults,
}

/// Deliberate bugs the exhaustive portal checker must prove it would
/// catch. Production deployments leave every flag off; `check-portal
/// --mutate` flips one and demands a violated invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortalFaults {
    /// Cancel keeps the tenant's unexecuted step budget — the classic
    /// accounting leak where a cancelled run still counts against quota.
    pub skip_cancel_refund: bool,
}

impl Default for PortalConfig {
    fn default() -> Self {
        PortalConfig {
            default_role: Role::Participant,
            default_quotas: TenantQuotas::default(),
            queue_capacity: 64,
            workers: 4,
            slice_steps: 25,
            tick_quantum: SimTime::from_millis(100),
            faults: PortalFaults::default(),
        }
    }
}

/// What one scheduling tick did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Runs placed onto workers.
    pub scheduled: usize,
    /// Busy workers advanced a slice.
    pub advanced: usize,
    /// Runs that finished this tick.
    pub completed: usize,
}

/// Everything the portal tracks about one admitted run.
struct RunEntry {
    owner: DistinguishedName,
    spec: ExperimentSpec,
    state: RunState,
    submitted_at: SimTime,
    first_step_at: Option<SimTime>,
    steps_completed: usize,
    history_json: Option<Vec<u8>>,
    digest: Option<u32>,
    /// Internal NSDS subscription on `{run_id}/*`, opened at placement so
    /// the archive capture sees every sample the run ever streams.
    capture: Option<NsdsSubscription>,
    /// The JSONL lines of the samples drained from `capture` so far, in
    /// publish order; emptied once the run is archived.
    captured: String,
}

impl RunEntry {
    fn finished(&self) -> bool {
        matches!(
            self.state,
            RunState::Completed | RunState::Cancelled | RunState::Failed { .. }
        )
    }
}

/// One open observer slot: a subscription plus the tenant that owns it.
struct ObserverEntry {
    owner: DistinguishedName,
    /// `Some(run)` for run observers, `None` for facility observers.
    run: Option<String>,
    sub: NsdsSubscription,
}

/// A bounded collaboration board.
struct Board {
    entries: VecDeque<BoardEntry>,
    next_seq: u64,
}

impl Board {
    fn new() -> Board {
        Board {
            // analyzer:buffer(cap = BOARD_RETENTION, drop = oldest)
            entries: VecDeque::with_capacity(BOARD_RETENTION),
            next_seq: 0,
        }
    }

    fn post(&mut self, author: DistinguishedName, at: SimTime, text: String) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.entries.len() >= BOARD_RETENTION {
            self.entries.pop_front();
        }
        self.entries.push_back(BoardEntry {
            seq,
            author,
            at,
            text,
        });
        seq
    }
}

/// The registry's `portal.*` counters, which the `Stats` reply reads:
/// each joins the registry at its first bump when telemetry records, and
/// is detached otherwise.
struct PortalCounters {
    admitted: CounterHandle,
    shed: CounterHandle,
    completed: CounterHandle,
    cancelled: CounterHandle,
    failed: CounterHandle,
    worker_crashes: CounterHandle,
    rescheduled: CounterHandle,
}

impl PortalCounters {
    fn resolve(telemetry: &Telemetry) -> PortalCounters {
        PortalCounters {
            admitted: telemetry.lazy_counter("portal.admitted"),
            shed: telemetry.lazy_counter("portal.shed"),
            completed: telemetry.lazy_counter("portal.completed"),
            cancelled: telemetry.lazy_counter("portal.cancelled"),
            failed: telemetry.lazy_counter("portal.failed"),
            worker_crashes: telemetry.lazy_counter("portal.worker_crashes"),
            rescheduled: telemetry.lazy_counter("portal.rescheduled"),
        }
    }
}

/// The portal's single-threaded core (wrapped in a mutex by [`Portal`]).
pub struct PortalCore {
    config: PortalConfig,
    endpoint: Endpoint,
    clock: Arc<SimClock>,
    tenants: TenantDirectory,
    store: Arc<dyn CheckpointStore>,
    /// Hub every run streams into, channels namespaced `{run_id}/…`.
    runs_nsds: Arc<NsdsServer>,
    /// Optional facility-wide hub (the CHEF viewer path).
    facility_nsds: Option<Arc<NsdsServer>>,
    /// Optional archive site finished runs deposit their artifacts into.
    archive: Option<ArchiveSite>,
    queue: SubmissionQueue,
    pool: WorkerPool,
    runs: HashMap<String, RunEntry>,
    observers: HashMap<u64, ObserverEntry>,
    boards: HashMap<String, Board>,
    next_run: u64,
    next_observer: u64,
    counters: PortalCounters,
    /// Submission→first-step latencies, virtual nanoseconds.
    latencies_ns: Vec<u64>,
    telemetry: Telemetry,
}

impl PortalCore {
    fn new(
        endpoint: Endpoint,
        trust_root: CaVerifier,
        store: Arc<dyn CheckpointStore>,
        config: PortalConfig,
    ) -> PortalCore {
        let clock = Arc::clone(endpoint.clock());
        PortalCore {
            tenants: TenantDirectory::new(trust_root, config.default_role, config.default_quotas),
            queue: SubmissionQueue::new(config.queue_capacity),
            pool: WorkerPool::new(config.workers),
            config,
            endpoint,
            clock,
            store,
            runs_nsds: Arc::new(NsdsServer::new()),
            facility_nsds: None,
            archive: None,
            runs: HashMap::new(),
            observers: HashMap::new(),
            boards: HashMap::new(),
            next_run: 0,
            next_observer: 0,
            counters: PortalCounters::resolve(&Telemetry::disabled()),
            latencies_ns: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Envelope handler: decode, dispatch, reply on the same correlation.
    fn on_envelope(&mut self, env: Envelope) {
        if env.kind != MessageKind::Request {
            return;
        }
        self.clock.advance_to(env.delivered_at());
        let now = self.clock.now();
        let response = match frame::decode::<RequestFrame>(&env.payload) {
            Ok(request) => self.handle(request, now),
            Err(e) => Response::Error {
                message: format!("bad frame: {e}"),
            },
        };
        let payload = frame::encode(&response).unwrap_or_else(|e| {
            frame::encode(&Response::Error {
                message: format!("reply unencodable: {e}"),
            })
            .expect("error reply is tiny")
        });
        self.endpoint.send(
            env.src,
            PORTAL_SERVICE,
            MessageKind::Reply,
            env.correlation_id,
            payload,
        );
    }

    /// Dispatch one decoded request.
    fn handle(&mut self, frame: RequestFrame, now: SimTime) -> Response {
        let tenant = frame.tenant;
        // Login and Whoami work without a session; everything else needs
        // a live one bound to the calling identity.
        match frame.request {
            Request::Login { token } => {
                if *token.identity() != tenant {
                    return rejected(Rejection::CrossTenant {
                        decision: PolicyDecision::deny(format!(
                            "token identity {} does not match frame tenant {}",
                            token.identity(),
                            tenant
                        )),
                    });
                }
                match self.tenants.login(&token, now) {
                    Ok(session) => Response::Session {
                        role: session.role,
                        expires_at: session.expires_at,
                    },
                    Err(LoginError::AlreadyLoggedIn) => rejected(Rejection::AlreadyLoggedIn),
                    Err(LoginError::BadCredential(e)) => rejected(Rejection::BadCredential {
                        error: e.to_string(),
                    }),
                }
            }
            Request::Whoami => match self.tenants.session(&tenant, now) {
                Some(session) => Response::Session {
                    role: session.role,
                    expires_at: session.expires_at,
                },
                None => rejected(Rejection::NotLoggedIn),
            },
            ref other => {
                let Some(session) = self.tenants.session(&tenant, now) else {
                    return rejected(Rejection::NotLoggedIn);
                };
                let role = session.role;
                match other {
                    Request::Logout => {
                        self.tenants.logout(&tenant);
                        Response::Ok
                    }
                    Request::Submit { spec } => self.submit(&tenant, role, spec.clone(), now),
                    Request::Status { run } => match self.owned_run(&tenant, run) {
                        Ok(entry) => Response::Status {
                            report: RunReport {
                                run: run.clone(),
                                state: entry.state.clone(),
                                steps_completed: entry.steps_completed,
                                steps_requested: entry.spec.steps,
                            },
                        },
                        Err(rejection) => rejected(rejection),
                    },
                    Request::Fetch { run } => self.fetch(&tenant, run),
                    Request::FetchArtifact {
                        run,
                        artifact,
                        offset,
                        max,
                    } => self.fetch_artifact(&tenant, run, artifact, *offset, *max),
                    Request::Cancel { run } => self.cancel(&tenant, role, run),
                    Request::Observe {
                        run,
                        channels,
                        buffer,
                    } => self.observe(&tenant, run, channels, *buffer),
                    Request::ObserveFacility { pattern, buffer } => {
                        self.observe_facility(&tenant, pattern, *buffer)
                    }
                    Request::Poll { observer, max } => self.poll(&tenant, *observer, *max),
                    Request::Unobserve { observer } => self.unobserve(&tenant, *observer),
                    Request::Post { board, text } => {
                        if role < Role::Participant {
                            return rejected(Rejection::RoleDenied {
                                need: Role::Participant,
                            });
                        }
                        let seq = self
                            .boards
                            .entry(board.clone())
                            .or_insert_with(Board::new)
                            .post(tenant.clone(), now, text.clone());
                        Response::Posted { seq }
                    }
                    Request::Board { board } => Response::BoardEntries {
                        entries: self
                            .boards
                            .get(board)
                            .map(|b| b.entries.iter().cloned().collect())
                            .unwrap_or_default(),
                    },
                    Request::Stats => Response::Stats {
                        report: self.stats(),
                    },
                    Request::Login { .. } | Request::Whoami => unreachable!("handled above"),
                }
            }
        }
    }

    /// Admission control: role, spec, quotas, queue bound — in that
    /// order, so the cheapest checks shed first.
    fn submit(
        &mut self,
        tenant: &DistinguishedName,
        role: Role,
        spec: ExperimentSpec,
        now: SimTime,
    ) -> Response {
        if role < Role::Participant {
            return rejected(Rejection::RoleDenied {
                need: Role::Participant,
            });
        }
        if let Err(reason) = spec.validate() {
            return rejected(Rejection::BadSpec { reason });
        }
        let quotas = self.tenants.quotas(tenant);
        let usage = self.tenants.usage(tenant);
        if usage.in_flight >= quotas.max_concurrent {
            self.counters.shed.add(1);
            return rejected(Rejection::QuotaConcurrent {
                limit: quotas.max_concurrent,
            });
        }
        if usage.steps_admitted + spec.steps as u64 > quotas.max_total_steps {
            self.counters.shed.add(1);
            return rejected(Rejection::QuotaSteps {
                limit: quotas.max_total_steps,
                requested: spec.steps as u64,
                used: usage.steps_admitted,
            });
        }
        if self.queue.is_full() {
            self.counters.shed.add(1);
            return rejected(Rejection::QueueFull {
                capacity: self.queue.capacity(),
            });
        }
        let run_id = format!("run-{:06}", self.next_run);
        self.next_run += 1;
        let queued = self
            .queue
            .admit(run_id.clone())
            .expect("queue checked non-full above");
        let spec_steps = spec.steps;
        self.runs.insert(
            run_id.clone(),
            RunEntry {
                owner: tenant.clone(),
                spec,
                state: RunState::Queued,
                submitted_at: now,
                first_step_at: None,
                steps_completed: 0,
                history_json: None,
                digest: None,
                capture: None,
                captured: String::new(),
            },
        );
        let usage = self.tenants.usage_mut(tenant);
        usage.in_flight += 1;
        usage.steps_admitted += spec_steps as u64;
        self.counters.admitted.add(1);
        if self.telemetry.enabled() {
            self.telemetry.instant(
                now.as_nanos(),
                "portal",
                "submit",
                [
                    ("run", Field::Str(run_id.clone())),
                    ("steps", Field::U64(spec_steps as u64)),
                ],
            );
        }
        Response::Submitted {
            run: run_id,
            queued,
        }
    }

    /// GSI tenant isolation: resolve a run id *and* check ownership.
    /// Anything a tenant does to a run goes through here first.
    fn owned_run(&self, tenant: &DistinguishedName, run: &str) -> Result<&RunEntry, Rejection> {
        let entry = self.runs.get(run).ok_or_else(|| Rejection::UnknownRun {
            run: run.to_string(),
        })?;
        if entry.owner != *tenant {
            return Err(Rejection::CrossTenant {
                decision: PolicyDecision::deny(format!(
                    "run {run} belongs to {}, not {tenant}",
                    entry.owner
                )),
            });
        }
        Ok(entry)
    }

    fn fetch(&mut self, tenant: &DistinguishedName, run: &str) -> Response {
        let entry = match self.owned_run(tenant, run) {
            Ok(e) => e,
            Err(rejection) => return rejected(rejection),
        };
        match (&entry.history_json, entry.digest) {
            (Some(json), Some(digest)) => match serde_json::from_slice(json) {
                Ok(history) => Response::History { history, digest },
                Err(e) => Response::Error {
                    message: format!("stored history undecodable: {e}"),
                },
            },
            _ => Response::Error {
                message: format!("run {run} has no completed history yet"),
            },
        }
    }

    /// Stream a chunk of a run's archived artifact. Ownership is checked
    /// first, and the logical name is built from the *resolved* run id
    /// plus a separator-free artifact name, so a tenant cannot address
    /// outside its own run's archive namespace. Only the blocks under the
    /// chunk are read and address-checked; the whole-artifact CRC is the
    /// client's to check once it holds every chunk.
    fn fetch_artifact(
        &mut self,
        tenant: &DistinguishedName,
        run: &str,
        artifact: &str,
        offset: u64,
        max: usize,
    ) -> Response {
        if let Err(rejection) = self.owned_run(tenant, run) {
            return rejected(rejection);
        }
        if artifact.is_empty() || artifact.contains('/') || artifact.contains("..") {
            return Response::Error {
                message: format!("invalid artifact name '{artifact}'"),
            };
        }
        let Some(archive) = &self.archive else {
            return Response::Error {
                message: "no archive attached to this portal".into(),
            };
        };
        let logical = format!("/runs/{run}/{artifact}");
        let Some(manifest) = archive.cas().manifest(&logical) else {
            return Response::Error {
                message: format!("run {run} has no archived artifact '{artifact}'"),
            };
        };
        let len = max.clamp(1, ARTIFACT_CHUNK_MAX) as u64;
        let data = match archive.cas().read_range(&manifest, offset, len) {
            Ok(data) => data,
            Err(e) => {
                return Response::Error {
                    message: format!("artifact unreadable: {e}"),
                }
            }
        };
        let start = offset.min(manifest.total_len);
        Response::Artifact {
            artifact: artifact.to_string(),
            total_len: manifest.total_len,
            digest: manifest.digest,
            offset: start,
            eof: start + data.len() as u64 >= manifest.total_len,
            data: to_hex(&data),
        }
    }

    fn cancel(&mut self, tenant: &DistinguishedName, role: Role, run: &str) -> Response {
        if role < Role::Participant {
            return rejected(Rejection::RoleDenied {
                need: Role::Participant,
            });
        }
        let entry = match self.owned_run(tenant, run) {
            Ok(e) => e,
            Err(rejection) => return rejected(rejection),
        };
        if entry.finished() {
            return Response::Error {
                message: format!("run {run} already finished"),
            };
        }
        let (spec_steps, steps_done) = (entry.spec.steps, entry.steps_completed);
        match entry.state.clone() {
            RunState::Queued | RunState::Rescheduling => {
                self.queue.remove(run);
            }
            RunState::Running { worker } => {
                // Dropping the WorkerRun tears down its private network.
                let _ = self.pool.take(worker);
            }
            _ => unreachable!("finished states returned above"),
        }
        let entry = self.runs.get_mut(run).expect("entry resolved above");
        entry.state = RunState::Cancelled;
        // Refund the steps the run never executed.
        let usage = self.tenants.usage_mut(tenant);
        usage.in_flight = usage.in_flight.saturating_sub(1);
        if !self.config.faults.skip_cancel_refund {
            usage.steps_admitted = usage
                .steps_admitted
                .saturating_sub(spec_steps.saturating_sub(steps_done) as u64);
        }
        self.counters.cancelled.add(1);
        Response::Ok
    }

    fn observe(
        &mut self,
        tenant: &DistinguishedName,
        run: &str,
        channels: &str,
        buffer: usize,
    ) -> Response {
        if let Err(rejection) = self.owned_run(tenant, run) {
            return rejected(rejection);
        }
        let quotas = self.tenants.quotas(tenant);
        if self.tenants.usage(tenant).observers >= quotas.max_observers {
            return rejected(Rejection::QuotaObservers {
                limit: quotas.max_observers,
            });
        }
        // The subscription pattern is prefixed with the run id, so the
        // observer physically cannot receive another run's samples.
        let sub = self
            .runs_nsds
            .subscribe(format!("{run}/{channels}"), buffer.max(1));
        let observer = self.next_observer;
        self.next_observer += 1;
        self.observers.insert(
            observer,
            ObserverEntry {
                owner: tenant.clone(),
                run: Some(run.to_string()),
                sub,
            },
        );
        self.tenants.usage_mut(tenant).observers += 1;
        Response::Observing { observer }
    }

    fn observe_facility(
        &mut self,
        tenant: &DistinguishedName,
        pattern: &str,
        buffer: usize,
    ) -> Response {
        let Some(hub) = &self.facility_nsds else {
            return Response::Error {
                message: "no facility hub attached to this portal".into(),
            };
        };
        let quotas = self.tenants.quotas(tenant);
        if self.tenants.usage(tenant).observers >= quotas.max_observers {
            return rejected(Rejection::QuotaObservers {
                limit: quotas.max_observers,
            });
        }
        let sub = hub.subscribe(pattern, buffer.max(1));
        let observer = self.next_observer;
        self.next_observer += 1;
        self.observers.insert(
            observer,
            ObserverEntry {
                owner: tenant.clone(),
                run: None,
                sub,
            },
        );
        self.tenants.usage_mut(tenant).observers += 1;
        Response::Observing { observer }
    }

    fn poll(&mut self, tenant: &DistinguishedName, observer: u64, max: usize) -> Response {
        let Some(entry) = self.observers.get(&observer) else {
            return rejected(Rejection::UnknownRun {
                run: format!("observer-{observer}"),
            });
        };
        if entry.owner != *tenant {
            return rejected(Rejection::CrossTenant {
                decision: PolicyDecision::deny(format!(
                    "observer {observer} belongs to {}, not {tenant}",
                    entry.owner
                )),
            });
        }
        let samples = entry.sub.take_run(max.clamp(1, POLL_CHUNK_MAX));
        let done = match &entry.run {
            Some(run) => {
                entry.sub.pending() == 0 && self.runs.get(run).map(|r| r.finished()).unwrap_or(true)
            }
            // The facility hub never finishes.
            None => false,
        };
        Response::Samples {
            samples,
            dropped: entry.sub.dropped(),
            done,
        }
    }

    fn unobserve(&mut self, tenant: &DistinguishedName, observer: u64) -> Response {
        let Some(entry) = self.observers.get(&observer) else {
            return rejected(Rejection::UnknownRun {
                run: format!("observer-{observer}"),
            });
        };
        if entry.owner != *tenant {
            return rejected(Rejection::CrossTenant {
                decision: PolicyDecision::deny(format!(
                    "observer {observer} belongs to {}, not {tenant}",
                    entry.owner
                )),
            });
        }
        self.observers.remove(&observer);
        let usage = self.tenants.usage_mut(tenant);
        usage.observers = usage.observers.saturating_sub(1);
        Response::Ok
    }

    fn stats(&self) -> PortalStats {
        PortalStats {
            admitted: self.counters.admitted.get(),
            shed: self.counters.shed.get(),
            completed: self.counters.completed.get(),
            cancelled: self.counters.cancelled.get(),
            failed: self.counters.failed.get(),
            worker_crashes: self.counters.worker_crashes.get(),
            rescheduled: self.counters.rescheduled.get(),
            queue_depth: self.queue.len(),
            workers: self.pool.len(),
            peak_sessions: self.tenants.peak_concurrent(),
            observers: self.observers.len(),
            p99_first_step_ns: self.p99_first_step_ns(),
        }
    }

    fn p99_first_step_ns(&self) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// One scheduling round: place queued runs, advance busy workers.
    fn tick(&mut self) -> TickReport {
        self.clock.advance(self.config.tick_quantum);
        let now = self.clock.now();
        let mut report = TickReport::default();

        // Placement: orphans reinstated at the queue front go first.
        while let Some(worker) = self.pool.idle() {
            let Some(run_id) = self.queue.pop() else {
                break;
            };
            let entry = self.runs.get_mut(&run_id).expect("queued run has an entry");
            // Open the archive capture tap before the first step executes
            // so the eventual capture.jsonl holds the whole stream.
            if self.archive.is_some() && entry.capture.is_none() {
                entry.capture = Some(
                    self.runs_nsds
                        .subscribe(format!("{run_id}/*"), CAPTURE_BUFFER),
                );
            }
            let mut run = WorkerRun::build(
                &run_id,
                entry.owner.clone(),
                entry.spec.clone(),
                Arc::clone(&self.store),
                Arc::clone(&self.runs_nsds),
            );
            if matches!(entry.state, RunState::Rescheduling) {
                match run.resume_from_store() {
                    // `false` = no snapshot yet: restart from step 0,
                    // still bit-identical (deployment is a pure function
                    // of the spec).
                    Ok(_) => self.counters.rescheduled.add(1),
                    Err(e) => {
                        entry.state = RunState::Failed {
                            error: format!("resume failed: {e}"),
                        };
                        self.counters.failed.add(1);
                        let owner = entry.owner.clone();
                        let usage = self.tenants.usage_mut(&owner);
                        usage.in_flight = usage.in_flight.saturating_sub(1);
                        continue;
                    }
                }
                if self.telemetry.enabled() {
                    self.telemetry.instant(
                        now.as_nanos(),
                        "portal",
                        "reschedule",
                        [("run", Field::Str(run_id.clone()))],
                    );
                }
            }
            entry.state = RunState::Running { worker };
            self.pool.place(worker, run);
            report.scheduled += 1;
        }

        // Execution: each busy worker runs one slice.
        #[allow(clippy::large_enum_variant)]
        enum Sliced {
            InFlight(String, usize),
            Done(String, neesgrid_coordinator::ExperimentOutcome),
        }
        for worker in 0..self.pool.len() {
            let sliced = {
                let Some(run) = self.pool.get_mut(worker) else {
                    continue;
                };
                let run_id = run.run_id().to_string();
                match run.advance(self.config.slice_steps) {
                    RunProgress::InFlight => Sliced::InFlight(run_id, run.steps_completed()),
                    RunProgress::Done(outcome) => Sliced::Done(run_id, outcome),
                }
            };
            report.advanced += 1;
            match sliced {
                Sliced::InFlight(run_id, steps) => {
                    let entry = self.runs.get_mut(&run_id).expect("running entry exists");
                    entry.steps_completed = steps;
                    if let Some(capture) = &entry.capture {
                        capture.take_jsonl(usize::MAX, &mut entry.captured);
                    }
                    if steps > 0 && entry.first_step_at.is_none() {
                        entry.first_step_at = Some(now);
                        let latency = now.as_nanos().saturating_sub(entry.submitted_at.as_nanos());
                        self.latencies_ns.push(latency);
                    }
                }
                Sliced::Done(run_id, outcome) => {
                    let trace = self
                        .pool
                        .take(worker)
                        .map(WorkerRun::into_telemetry)
                        .unwrap_or_else(Telemetry::disabled);
                    self.finalize(&run_id, outcome, now, trace);
                    report.completed += 1;
                }
            }
        }
        report
    }

    /// Seal a finished run: digest, lifecycle state, quota accounting.
    /// `trace` is the run's own telemetry handle (recording only when the
    /// spec asked for `record_trace`), exported and archived here.
    fn finalize(
        &mut self,
        run_id: &str,
        outcome: neesgrid_coordinator::ExperimentOutcome,
        now: SimTime,
        trace: Telemetry,
    ) {
        let entry = self
            .runs
            .get_mut(run_id)
            .expect("finished run has an entry");
        entry.steps_completed = outcome.steps_completed();
        if entry.first_step_at.is_none() && entry.steps_completed > 0 {
            entry.first_step_at = Some(now);
            let latency = now.as_nanos().saturating_sub(entry.submitted_at.as_nanos());
            self.latencies_ns.push(latency);
        }
        let json = serde_json::to_vec(&outcome.history).unwrap_or_default();
        entry.digest = Some(crc32(&json));
        entry.history_json = Some(json);
        // Archive the trace and the NSDS capture: chunked into the
        // attached site's CAS, where identical captures across runs
        // deduplicate and replication picks them up. The entry outlives
        // the run, so the samples leave it here.
        let mut captured = std::mem::take(&mut entry.captured);
        if let Some(capture) = entry.capture.take() {
            capture.take_jsonl(usize::MAX, &mut captured);
        }
        if let Some(archive) = &self.archive {
            if let Some(history) = &entry.history_json {
                archive.ingest_local(
                    &format!("/runs/{run_id}/history.json"),
                    &bytes::Bytes::from(history.clone()),
                    now,
                );
            }
            // Sized exactly, because the archive keeps slices of it.
            captured.shrink_to_fit();
            let capture_bytes = bytes::Bytes::from(captured);
            let manifest = archive.ingest_local(
                &format!("/runs/{run_id}/capture.jsonl"),
                &capture_bytes,
                now,
            );
            if trace.enabled() {
                archive.ingest_local(
                    &format!("/runs/{run_id}/trace.jsonl"),
                    &bytes::Bytes::from(trace.export_jsonl().into_bytes()),
                    now,
                );
            }
            if self.telemetry.enabled() {
                self.telemetry.instant(
                    now.as_nanos(),
                    "portal",
                    "archived",
                    [
                        ("run", Field::Str(run_id.to_string())),
                        ("capture_bytes", Field::U64(manifest.total_len)),
                        // One line per sample: compact JSON holds no raw
                        // newline.
                        (
                            "samples",
                            Field::U64(capture_bytes.iter().filter(|&&b| b == b'\n').count() as u64),
                        ),
                    ],
                );
            }
        }
        let completed_ok = matches!(outcome.termination, Termination::Completed);
        entry.state = match outcome.termination {
            Termination::Completed => {
                self.counters.completed.add(1);
                RunState::Completed
            }
            Termination::Aborted { step, site, error } => {
                self.counters.failed.add(1);
                RunState::Failed {
                    error: format!("aborted at step {step} by {site}: {error}"),
                }
            }
        };
        let owner = entry.owner.clone();
        let (spec_steps, steps_done) = (entry.spec.steps, entry.steps_completed);
        let usage = self.tenants.usage_mut(&owner);
        usage.in_flight = usage.in_flight.saturating_sub(1);
        if !completed_ok {
            // Aborted runs refund their unexecuted steps.
            usage.steps_admitted = usage
                .steps_admitted
                .saturating_sub(spec_steps.saturating_sub(steps_done) as u64);
        }
        // Lifecycle marker on the run's own channel namespace, so
        // observers see the end of stream in-band.
        self.runs_nsds.publish(NsdsSample {
            channel: format!("{run_id}/portal/done"),
            t: now,
            value: steps_done as f64,
        });
        if self.telemetry.enabled() {
            self.telemetry.instant(
                now.as_nanos(),
                "portal",
                "complete",
                [
                    ("run", Field::Str(run_id.to_string())),
                    ("steps", Field::U64(steps_done as u64)),
                ],
            );
        }
    }

    /// Crash a worker: its run's private deployment is torn down and the
    /// run re-enters the queue front in `Rescheduling` state.
    fn kill_worker(&mut self, worker: usize) -> Option<String> {
        self.counters.worker_crashes.add(1);
        if self.telemetry.enabled() {
            self.telemetry.instant(
                self.clock.now().as_nanos(),
                "portal",
                "worker_crash",
                [("worker", Field::U64(worker as u64))],
            );
        }
        let run = self.pool.take(worker)?;
        let run_id = run.run_id().to_string();
        drop(run);
        let entry = self.runs.get_mut(&run_id).expect("running entry exists");
        entry.state = RunState::Rescheduling;
        self.queue.reinstate(run_id.clone());
        Some(run_id)
    }
}

fn rejected(rejection: Rejection) -> Response {
    Response::Rejected { rejection }
}

/// The public handle: installs the wire handler and exposes the
/// operator-side control surface (tick, crash injection, stats).
pub struct Portal {
    core: Arc<Mutex<PortalCore>>,
}

impl Portal {
    /// Attach a portal service to `node` on the control network.
    pub fn serve(
        net: &VirtualNetwork,
        node: &str,
        trust_root: CaVerifier,
        store: Arc<dyn CheckpointStore>,
        config: PortalConfig,
    ) -> Result<Portal, NetworkError> {
        let endpoint = net.endpoint(node)?;
        let core = Arc::new(Mutex::new(PortalCore::new(
            endpoint.clone(),
            trust_root,
            store,
            config,
        )));
        let handler_core = Arc::clone(&core);
        endpoint.install_handler(move |env| handler_core.lock().on_envelope(env));
        Ok(Portal { core })
    }

    /// Attach the facility-wide NSDS hub served to `ObserveFacility`.
    pub fn attach_facility_hub(&self, hub: Arc<NsdsServer>) {
        self.core.lock().facility_nsds = Some(hub);
    }

    /// Attach an archive site. From now on every finished run deposits
    /// its sealed history (`history.json`) and full NSDS capture
    /// (`capture.jsonl`) into the site's content-addressed store under
    /// `/runs/{run_id}/`, where tenants can stream them back with
    /// `FetchArtifact` and the replica manager can mirror them off-site.
    pub fn attach_archive(&self, site: ArchiveSite) {
        self.core.lock().archive = Some(site);
    }

    /// Record portal events into a telemetry recorder, whose registry's
    /// `portal.*` counters the `Stats` reply then reads. Call it before
    /// the portal serves: counts taken before it are not carried over.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        let mut core = self.core.lock();
        core.counters = PortalCounters::resolve(&telemetry);
        core.telemetry = telemetry;
    }

    /// Pre-assign a role to an identity.
    pub fn assign_role(&self, user: DistinguishedName, role: Role) {
        self.core.lock().tenants.assign_role(user, role);
    }

    /// Override one tenant's quotas.
    pub fn set_quotas(&self, user: DistinguishedName, quotas: TenantQuotas) {
        self.core.lock().tenants.set_quotas(user, quotas);
    }

    /// Run one scheduling round (placement + one slice per busy worker).
    pub fn tick(&self) -> TickReport {
        self.core.lock().tick()
    }

    /// Tick until no runs are queued or executing.
    pub fn drain(&self) -> usize {
        let mut ticks = 0;
        loop {
            let mut core = self.core.lock();
            if core.queue.is_empty() && core.pool.running() == 0 {
                return ticks;
            }
            core.tick();
            ticks += 1;
        }
    }

    /// Crash one worker. Returns the orphaned run id, if the slot was
    /// busy — that run is now `Rescheduling` at the queue front.
    pub fn kill_worker(&self, worker: usize) -> Option<String> {
        self.core.lock().kill_worker(worker)
    }

    /// Service statistics, as the `Stats` frame reports them.
    pub fn stats(&self) -> PortalStats {
        self.core.lock().stats()
    }

    /// Highest concurrent session count seen.
    pub fn peak_sessions(&self) -> usize {
        self.core.lock().tenants.peak_concurrent()
    }

    /// One tenant's live usage counters — the checker's window into the
    /// step-budget ledger (in flight, steps admitted, observer slots).
    pub fn usage(&self, user: &DistinguishedName) -> crate::tenant::TenantUsage {
        self.core.lock().tenants.usage(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PortalClient;
    use neesgrid_archive::StripeConfig;
    use neesgrid_checkpoint::MemoryCheckpointStore;
    use neesgrid_gridsim::NetworkProfile;
    use neesgrid_gsi::{CertificateAuthority, Credential};
    use neesgrid_repo::VirtualStore;

    #[test]
    fn a_finalized_run_holds_no_samples_once_archived() {
        let net = VirtualNetwork::new(NetworkProfile::Lan.config(19));
        let ca = CertificateAuthority::nees(19);
        let portal = Portal::serve(
            &net,
            "portal",
            ca.verifier(),
            Arc::new(MemoryCheckpointStore::new()),
            PortalConfig::default(),
        )
        .expect("portal node is fresh");
        let archive = ArchiveSite::attach(
            &net,
            "repository",
            VirtualStore::new(),
            StripeConfig::default(),
            &Telemetry::disabled(),
        )
        .expect("archive attaches");
        portal.attach_archive(archive.clone());
        let alice = Credential::issue(
            &ca,
            DistinguishedName::nees_user("REMOTE", "alice"),
            SimTime::ZERO,
            SimTime::from_secs(3600),
            1,
        );
        let client = PortalClient::connect(&net, "client", "portal")
            .expect("client node is fresh")
            .with_tenant(alice.identity().clone());
        let login = client.call(Request::Login {
            token: alice.token(),
        });
        assert!(matches!(login, Ok(Response::Session { .. })), "{login:?}");
        let spec = ExperimentSpec::basic(2, 60, 7, 0);
        let run = match client.call(Request::Submit { spec }) {
            Ok(Response::Submitted { run, .. }) => run,
            other => panic!("submission refused: {other:?}"),
        };

        // Mid-run, each tick drains the capture tap into the entry.
        portal.tick();
        portal.tick();
        let mid_run = portal.core.lock().runs[&run].captured.len();
        assert!(mid_run > 0, "the capture fills while the run executes");

        portal.drain();
        let core = portal.core.lock();
        let entry = &core.runs[&run];
        assert_eq!(entry.state, RunState::Completed);
        assert!(entry.capture.is_none());
        assert!(
            entry.captured.is_empty(),
            "archived samples stay in the entry"
        );
        assert_eq!(entry.captured.capacity(), 0, "their buffer is freed too");
        let manifest = archive
            .cas()
            .manifest(&format!("/runs/{run}/capture.jsonl"))
            .expect("the capture was archived");
        assert!(manifest.total_len > 0);
    }
}
