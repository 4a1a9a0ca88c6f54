//! Exhaustive schedule checker for the portal worker pool.
//!
//! The same loom-style stateless explorer as [`crate::checker`], aimed
//! at the scheduling layer instead of the wire protocol: one schedule is
//! a sequence of operator/tenant events — **submit**, **tick** (place
//! queued runs + advance every busy worker one slice), **kill** a busy
//! worker (checkpoint-restore recovery path), **cancel** a live run —
//! and the checker enumerates *every* interleaving within small budgets,
//! driving the real [`neesgrid_portal::Portal`] through the real
//! [`neesgrid_portal::PortalClient`] wire frames on a fresh
//! `VirtualNetwork` per schedule. No mocked scheduler: whatever the
//! service does under an adversarial operator is what gets checked.
//!
//! Invariants, checked after **every event** on every schedule:
//!
//! 1. **at-most-once execution** — every submitted run reaches exactly
//!    one terminal state and is counted exactly once in the portal's
//!    completed/cancelled/failed counters, even when a kill forces the
//!    run through `Rescheduling` and a second placement;
//! 2. **step-budget conservation** — the tenant ledger never leaks or
//!    double-refunds: `in_flight` equals the number of live runs, and
//!    `steps_admitted` equals the sum over runs of (full request while
//!    live or completed, steps actually executed once cancelled or
//!    failed);
//! 3. **bit-identical completion** — every run that completes reports
//!    the same CRC-32 history digest as an undisturbed reference
//!    execution of the same spec, regardless of how many crashes and
//!    reschedules the schedule inflicted on it.
//!
//! [`PortalMutation::SkipCancelRefund`] seeds the classic accounting
//! leak (cancel forgets to return the unexecuted steps) via
//! [`neesgrid_portal::PortalFaults`]; the mutation test proves invariant
//! 2 fires on it.

use std::sync::Arc;

use neesgrid_gridsim::{NetworkProfile, SimTime, VirtualNetwork};
use neesgrid_gsi::{CertificateAuthority, Credential, DistinguishedName};
use neesgrid_portal::{
    ExperimentSpec, Portal, PortalClient, PortalConfig, PortalFaults, Request, Response, RunState,
    TenantQuotas,
};

use crate::explore::{explore, CheckReport, Violation, World};

/// The invariants every explored schedule satisfies.
pub const INVARIANTS: [&str; 3] = [
    "at-most-once",
    "budget-conservation",
    "bit-identical-completion",
];

/// A seeded bug for mutation testing the portal checker itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortalMutation {
    /// Cancel keeps the unexecuted step budget (quota leak).
    SkipCancelRefund,
}

/// Checker configuration — every knob bounds the state space.
#[derive(Debug, Clone, Copy)]
pub struct PortalCheckConfig {
    /// Runs submitted (in order) during exploration.
    pub submissions: usize,
    /// Steps per submitted run.
    pub steps: usize,
    /// Steps a busy worker advances per tick.
    pub slice_steps: u64,
    /// Checkpoint cadence within a run (steps).
    pub checkpoint_every: u64,
    /// Worker slots in the pool.
    pub workers: usize,
    /// Worker crashes the adversary may inject per schedule.
    pub kill_budget: usize,
    /// Cancels the adversary may issue per schedule.
    pub cancel_budget: usize,
    /// Safety cap on explored schedules.
    pub max_schedules: u64,
    /// Optional seeded bug, for mutation testing.
    pub mutation: Option<PortalMutation>,
}

impl Default for PortalCheckConfig {
    fn default() -> Self {
        // Three runs racing for one worker, one crash and two cancels in
        // the adversary's pocket: ~11.6k schedules, exhaustive in under
        // ten seconds (release). `steps = 3` with `checkpoint_every = 2`
        // makes a crash after step 1 restart from scratch and a crash
        // after step 2 resume from the snapshot — both recovery paths in
        // every exploration. Raising any budget grows the space fast.
        PortalCheckConfig {
            submissions: 3,
            steps: 3,
            slice_steps: 1,
            checkpoint_every: 2,
            workers: 1,
            kill_budget: 1,
            cancel_budget: 2,
            max_schedules: 2_000_000,
            mutation: None,
        }
    }
}

/// One nondeterministic event the adversarial scheduler can pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Submit the next run (in order — specs are identical, so
    /// permuting submissions only duplicates schedules).
    Submit,
    /// One scheduling round: place queued runs, advance busy workers.
    Tick,
    /// Crash the worker in this slot (its run re-enters the queue).
    Kill(usize),
    /// Cancel run `i` (by submission index) while it is still live.
    Cancel(usize),
}

impl Ev {
    fn describe(self) -> String {
        match self {
            Ev::Submit => "submit".into(),
            Ev::Tick => "tick".into(),
            Ev::Kill(w) => format!("kill worker {w}"),
            Ev::Cancel(i) => format!("cancel run {i}"),
        }
    }
}

/// What the driver knows about one submitted run after the last event.
#[derive(Debug, Clone)]
struct RunInfo {
    id: String,
    state: RunState,
    steps_completed: usize,
    /// Completion digest already fetched and verified (checked once —
    /// a completed run's history is immutable).
    digest_ok: bool,
}

impl RunInfo {
    fn live(&self) -> bool {
        matches!(
            self.state,
            RunState::Queued | RunState::Running { .. } | RunState::Rescheduling
        )
    }
}

/// Everything one schedule needs: a fresh deployment plus the driver's
/// mirror of run states (refreshed over the wire after every event).
struct PortalWorld {
    cfg: PortalCheckConfig,
    // Field order is drop order: the portal and client must go before
    // the network they are attached to.
    portal: Portal,
    client: PortalClient,
    _net: VirtualNetwork,
    tenant: DistinguishedName,
    runs: Vec<RunInfo>,
    kills_used: usize,
    cancels_used: usize,
    trace: Vec<String>,
    ref_digest: u32,
}

/// The experiment every schedule submits: smallest spec that still
/// exercises multi-slice execution and mid-run checkpoints.
fn spec(cfg: &PortalCheckConfig) -> ExperimentSpec {
    ExperimentSpec::basic(1, cfg.steps, 1493, cfg.checkpoint_every)
}

fn portal_config(cfg: &PortalCheckConfig) -> PortalConfig {
    PortalConfig {
        workers: cfg.workers,
        slice_steps: cfg.slice_steps,
        faults: PortalFaults {
            skip_cancel_refund: cfg.mutation == Some(PortalMutation::SkipCancelRefund),
        },
        ..PortalConfig::default()
    }
}

/// Build a deployment and log the tenant in.
fn deploy(
    cfg: &PortalCheckConfig,
    ca: &CertificateAuthority,
    cred: &Credential,
) -> (VirtualNetwork, Portal, PortalClient) {
    let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(1493));
    let portal = Portal::serve(
        &net,
        "portal",
        ca.verifier(),
        Arc::new(neesgrid_checkpoint::MemoryCheckpointStore::new()),
        portal_config(cfg),
    )
    .expect("portal node is fresh");
    portal.set_quotas(
        cred.identity().clone(),
        TenantQuotas {
            max_concurrent: cfg.submissions.max(1),
            ..TenantQuotas::default()
        },
    );
    let client = PortalClient::connect(&net, "driver", "portal").expect("driver node is fresh");
    let reply = client
        .call_as(
            cred.identity(),
            Request::Login {
                token: cred.token(),
            },
        )
        .expect("login frame round-trips");
    assert!(
        matches!(reply, Response::Session { .. }),
        "checker tenant refused: {reply:?}"
    );
    (net, portal, client)
}

/// The digest an undisturbed execution of the checker's spec produces —
/// the reference for the bit-identical-completion invariant.
fn reference_digest(cfg: &PortalCheckConfig, ca: &CertificateAuthority, cred: &Credential) -> u32 {
    let (_net, portal, client) = deploy(cfg, ca, cred);
    let run = match client
        .call_as(cred.identity(), Request::Submit { spec: spec(cfg) })
        .expect("submit frame round-trips")
    {
        Response::Submitted { run, .. } => run,
        other => panic!("reference submission refused: {other:?}"),
    };
    portal.drain();
    match client
        .call_as(cred.identity(), Request::Fetch { run })
        .expect("fetch frame round-trips")
    {
        Response::History { digest, .. } => digest,
        other => panic!("reference history missing: {other:?}"),
    }
}

impl PortalWorld {
    fn new(
        cfg: &PortalCheckConfig,
        ca: &CertificateAuthority,
        cred: &Credential,
        ref_digest: u32,
    ) -> PortalWorld {
        let (net, portal, client) = deploy(cfg, ca, cred);
        PortalWorld {
            cfg: *cfg,
            portal,
            client,
            _net: net,
            tenant: cred.identity().clone(),
            runs: Vec::new(),
            kills_used: 0,
            cancels_used: 0,
            trace: Vec::new(),
            ref_digest,
        }
    }

    /// Re-read the named runs' states over the wire.
    fn refresh(&mut self, stale: &[usize]) -> Result<(), Violation> {
        for &i in stale {
            let run = self.runs[i].id.clone();
            let reply = self
                .client
                .call_as(&self.tenant, Request::Status { run })
                .expect("status frame round-trips");
            match reply {
                Response::Status { report } => {
                    self.runs[i].state = report.state;
                    self.runs[i].steps_completed = report.steps_completed;
                }
                other => {
                    return Err(self.violation(
                        "run-tracking",
                        format!("status of own run {i} refused: {other:?}"),
                    ))
                }
            }
        }
        Ok(())
    }

    fn check_invariants(&mut self) -> Result<(), Violation> {
        let stats = self.portal.stats();

        // 1. At-most-once: terminal runs and terminal counters agree,
        // and no run regresses out of a terminal state.
        let terminal = self.runs.iter().filter(|r| !r.live()).count() as u64;
        let counted = stats.completed + stats.cancelled + stats.failed;
        if counted != terminal {
            return Err(self.violation(
                "at-most-once",
                format!(
                    "{terminal} run(s) in a terminal state but counters say \
                     completed={} cancelled={} failed={} (a run was finalized \
                     zero or multiple times)",
                    stats.completed, stats.cancelled, stats.failed
                ),
            ));
        }
        for (i, r) in self.runs.iter().enumerate() {
            if r.steps_completed > self.cfg.steps {
                return Err(self.violation(
                    "at-most-once",
                    format!(
                        "run {i} reports {} steps completed of {} requested",
                        r.steps_completed, self.cfg.steps
                    ),
                ));
            }
        }

        // 2. Step-budget conservation.
        let usage = self.portal.usage(&self.tenant);
        let live = self.runs.iter().filter(|r| r.live()).count();
        if usage.in_flight != live {
            return Err(self.violation(
                "budget-conservation",
                format!(
                    "{live} live run(s) but tenant ledger says in_flight={}",
                    usage.in_flight
                ),
            ));
        }
        let expected_steps: u64 = self
            .runs
            .iter()
            .map(|r| match r.state {
                // Live and successfully-completed runs hold their full
                // request; cancelled/failed runs were refunded down to
                // what they actually executed.
                RunState::Queued
                | RunState::Running { .. }
                | RunState::Rescheduling
                | RunState::Completed => self.cfg.steps as u64,
                RunState::Cancelled | RunState::Failed { .. } => r.steps_completed as u64,
            })
            .sum();
        if usage.steps_admitted != expected_steps {
            return Err(self.violation(
                "budget-conservation",
                format!(
                    "tenant ledger says steps_admitted={} but run states add up \
                     to {expected_steps} (lost or double-counted refund)",
                    usage.steps_admitted
                ),
            ));
        }

        // 3. Bit-identical completion, whatever crashes happened. A
        // completed run's history is sealed, so each is fetched once.
        for i in 0..self.runs.len() {
            if self.runs[i].digest_ok || !matches!(self.runs[i].state, RunState::Completed) {
                continue;
            }
            let reply = self
                .client
                .call_as(
                    &self.tenant,
                    Request::Fetch {
                        run: self.runs[i].id.clone(),
                    },
                )
                .expect("fetch frame round-trips");
            match reply {
                Response::History { digest, .. } => {
                    if digest != self.ref_digest {
                        return Err(self.violation(
                            "bit-identical-completion",
                            format!(
                                "run {i} completed with digest {digest:#010x}, \
                                 reference is {:#010x}",
                                self.ref_digest
                            ),
                        ));
                    }
                    self.runs[i].digest_ok = true;
                }
                other => {
                    return Err(self.violation(
                        "bit-identical-completion",
                        format!("completed run {i} has no fetchable history: {other:?}"),
                    ))
                }
            }
        }
        Ok(())
    }
}

impl World for PortalWorld {
    type Event = Ev;

    fn violation(&self, invariant: &str, detail: String) -> Violation {
        Violation {
            invariant: invariant.to_string(),
            detail,
            trace: self.trace.clone(),
        }
    }

    /// The deterministic enabled-event set for the current state.
    fn enabled(&self) -> Vec<Ev> {
        let mut evs = Vec::new();
        if self.runs.len() < self.cfg.submissions {
            evs.push(Ev::Submit);
        }
        if self.runs.iter().any(RunInfo::live) {
            evs.push(Ev::Tick);
        }
        if self.kills_used < self.cfg.kill_budget {
            for r in &self.runs {
                if let RunState::Running { worker } = r.state {
                    evs.push(Ev::Kill(worker));
                }
            }
        }
        if self.cancels_used < self.cfg.cancel_budget {
            for (i, r) in self.runs.iter().enumerate() {
                if r.live() {
                    evs.push(Ev::Cancel(i));
                }
            }
        }
        evs
    }

    /// Apply one event, refresh the state mirror, check every invariant.
    fn step(&mut self, ev: Ev) -> Result<(), Violation> {
        self.trace.push(ev.describe());
        match ev {
            Ev::Submit => {
                let reply = self
                    .client
                    .call_as(
                        &self.tenant,
                        Request::Submit {
                            spec: spec(&self.cfg),
                        },
                    )
                    .expect("submit frame round-trips");
                match reply {
                    Response::Submitted { run, .. } => self.runs.push(RunInfo {
                        id: run,
                        state: RunState::Queued,
                        steps_completed: 0,
                        digest_ok: false,
                    }),
                    other => {
                        return Err(self.violation(
                            "admission",
                            format!("in-quota submission refused: {other:?}"),
                        ))
                    }
                }
            }
            Ev::Tick => {
                self.portal.tick();
            }
            Ev::Kill(worker) => {
                self.kills_used += 1;
                let orphaned = self.portal.kill_worker(worker);
                if orphaned.is_none() {
                    return Err(self.violation(
                        "kill-target",
                        format!("worker {worker} was enabled as busy but had no run"),
                    ));
                }
            }
            Ev::Cancel(i) => {
                self.cancels_used += 1;
                let run = self.runs[i].id.clone();
                let reply = self
                    .client
                    .call_as(&self.tenant, Request::Cancel { run })
                    .expect("cancel frame round-trips");
                if !matches!(reply, Response::Ok) {
                    return Err(self.violation(
                        "cancel",
                        format!("cancel of live run {i} refused: {reply:?}"),
                    ));
                }
            }
        }
        // Only the runs this event could have changed need a wire
        // refresh: a tick moves every live run, a kill or cancel moves
        // one, a submit moves none (the entry was just pushed Queued).
        let stale: Vec<usize> = match ev {
            Ev::Submit => Vec::new(),
            Ev::Tick => (0..self.runs.len())
                .filter(|&i| self.runs[i].live())
                .collect(),
            Ev::Kill(worker) => (0..self.runs.len())
                .filter(|&i| self.runs[i].state == (RunState::Running { worker }))
                .collect(),
            Ev::Cancel(i) => vec![i],
        };
        self.refresh(&stale)?;
        self.check_invariants()
    }
}

/// Exhaustively explore every portal schedule within the budgets.
pub fn check_portal(cfg: &PortalCheckConfig) -> CheckReport {
    let ca = CertificateAuthority::nees(1493);
    let cred = Credential::issue(
        &ca,
        DistinguishedName::nees_user("REMOTE", "checker"),
        SimTime::ZERO,
        SimTime::from_secs(6 * 3600),
        1493,
    );
    // The reference digest comes from a clean config: the mutation under
    // test must not poison the oracle.
    let ref_digest = reference_digest(
        &PortalCheckConfig {
            mutation: None,
            ..*cfg
        },
        &ca,
        &cred,
    );

    explore(cfg.max_schedules, || {
        PortalWorld::new(cfg, &ca, &cred, ref_digest)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced space for test-speed (the tests run unoptimized):
    /// three runs, one kill, no cancels.
    fn quick_cfg() -> PortalCheckConfig {
        PortalCheckConfig {
            cancel_budget: 0,
            ..PortalCheckConfig::default()
        }
    }

    #[test]
    fn clean_portal_survives_small_exhaustive_run() {
        let report = check_portal(&quick_cfg());
        assert!(
            report.violation.is_none(),
            "unexpected violation: {:?}",
            report.violation
        );
        assert!(!report.truncated);
        assert!(
            report.schedules > 50,
            "suspiciously small space: {}",
            report.schedules
        );
    }

    #[test]
    fn seeded_refund_mutation_is_caught() {
        let cfg = PortalCheckConfig {
            submissions: 2,
            kill_budget: 0,
            cancel_budget: 1,
            mutation: Some(PortalMutation::SkipCancelRefund),
            ..PortalCheckConfig::default()
        };
        let report = check_portal(&cfg);
        let v = report
            .violation
            .expect("skipping the cancel refund must violate an invariant");
        assert_eq!(v.invariant, "budget-conservation", "got {v:?}");
        assert!(
            v.trace.iter().any(|t| t.starts_with("cancel")),
            "violation should follow a cancel: {:?}",
            v.trace
        );
    }
}
