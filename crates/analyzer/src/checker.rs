//! Exhaustive schedule checker for the NTCP transaction machine.
//!
//! A loom-style *stateless* model checker ([`crate::explore`]): it re-runs
//! a small client/server model from its initial state once per schedule,
//! making every nondeterministic choice (which message the network
//! delivers next, whether to duplicate it, whether to drop the reply, when
//! to snapshot and when to crash-and-restore) by exhaustive enumeration.
//! The paper's MOST run died at step 1493 on exactly this class of bug:
//! an interleaving of loss and retransmission nobody had tested. PR 1
//! answered with an at-most-once proptest — random schedules; this
//! module upgrades that to *all* schedules within the configured budget.
//!
//! The model: a coordinator-side client proposes transaction `t1`, and —
//! once it has *seen* the acceptance — races an `execute` against a
//! `cancel` (failover looks like this: the backup coordinator cancels
//! what the primary was executing). The network may duplicate each
//! request and lose each reply, within budgets. At some point a snapshot
//! is taken, and later the server crashes and is restored from it while
//! client retransmissions are still in flight.
//!
//! Invariants checked after every event, on every schedule:
//!
//! 1. **at-most-once** — the server's execution counter (which survives
//!    snapshot/restore) never exceeds 1;
//! 2. **no double actuation / no double cancel** — the plugin probe
//!    observes at most one `execute` and one `cancel` call per world
//!    line;
//! 3. **dedup consistency across restore** — every reply the server
//!    produces for a request id is, byte for byte, the text of the first
//!    reply it produced for that id (or the same fault); replies recorded
//!    before the snapshot must replay identically after restore;
//! 4. **execute/cancel exclusivity** — one world line never reports both
//!    a successful execute and a successful cancel of the same
//!    transaction.
//!
//! The checker drives [`GridService::respond`], the container's entry
//! point, so it checks the bytes a client receives. The snapshot is the
//! state document's text, parsed when it is restored.
//!
//! [`Mutation::ClearDedupOnRestore`] deliberately wipes the dedup cache
//! from the parsed snapshot before restoring — the seeded bug the mutation
//! test proves this checker catches (invariant 3 fires: a pre-snapshot
//! `execute` Ok replays as an `InvalidState` fault).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use neesgrid_gridsim::{SimClock, SimTime};
use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid_ntcp::plugin::{ExecuteOutcome, PluginError};
use neesgrid_ntcp::{ControlPlugin, ControlPoint, NtcpServer, SimulationPlugin};
use neesgrid_ogsi::{CallContext, GridService, ServiceFault};
use neesgrid_structsim::{LinearElastic, SimulatedSubstructure};
use serde_json::{json, Value};

use crate::explore::{explore, CheckReport, Violation, World};

/// Request ids: the fixed little script the client plays.
const RID_PROPOSE: u64 = 1;
const RID_EXECUTE: u64 = 2;
const RID_CANCEL: u64 = 3;

/// A seeded bug for mutation testing the checker itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Drop the dedup cache from the snapshot before restoring — the
    /// "retransmission after resume re-executes" bug class.
    ClearDedupOnRestore,
}

/// Checker configuration (all bounds, so the state space is finite).
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// How many times the network may duplicate a request (total).
    pub dup_budget: u32,
    /// How many replies the network may lose (total).
    pub drop_budget: u32,
    /// Safety cap on explored schedules.
    pub max_schedules: u64,
    /// Optional seeded bug, for mutation testing.
    pub mutation: Option<Mutation>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        // dup=2/drop=1 explores ~69k schedules in a couple of seconds
        // (release); dup=2/drop=2 is ~610k and ~10× slower — available
        // via --dup-budget/--drop-budget for deeper offline runs.
        CheckConfig {
            dup_budget: 2,
            drop_budget: 1,
            max_schedules: 2_000_000,
            mutation: None,
        }
    }
}

/// The invariants every explored schedule satisfies.
pub const INVARIANTS: [&str; 4] = [
    "at-most-once",
    "single-actuation",
    "dedup-consistency",
    "execute/cancel exclusivity",
];

/// One nondeterministic event the scheduler can pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Deliver one copy of a request; the client sees the reply.
    Deliver(u64),
    /// The network duplicates an in-flight request (copy count +1).
    Duplicate(u64),
    /// Deliver one copy but lose the reply: the server processes it, the
    /// client learns nothing and will retransmit (copy count unchanged).
    DropReply(u64),
    /// Take the checkpoint snapshot.
    Snapshot,
    /// Crash the server and restore from the snapshot.
    Restore,
}

impl Ev {
    fn describe(self) -> String {
        let op = |rid| match rid {
            RID_PROPOSE => "propose",
            RID_EXECUTE => "execute",
            RID_CANCEL => "cancel",
            _ => "?",
        };
        match self {
            Ev::Deliver(r) => format!("deliver rid={r} {}", op(r)),
            Ev::Duplicate(r) => format!("duplicate rid={r} {}", op(r)),
            Ev::DropReply(r) => format!("deliver rid={r} {} (reply lost)", op(r)),
            Ev::Snapshot => "snapshot".into(),
            Ev::Restore => "restore".into(),
        }
    }
}

/// A `SimulationPlugin` wrapper counting physical `execute`/`cancel`
/// calls through shared probes that survive the wrapper being rebuilt.
struct ProbedPlugin {
    inner: SimulationPlugin,
    execs: Arc<AtomicU64>,
    cancels: Arc<AtomicU64>,
}

impl ControlPlugin for ProbedPlugin {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String> {
        self.inner.review(actions)
    }
    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
        self.execs.fetch_add(1, Ordering::SeqCst);
        self.inner.execute(actions)
    }
    fn cancel(&mut self, actions: &[ControlPoint]) -> Result<(), PluginError> {
        self.cancels.fetch_add(1, Ordering::SeqCst);
        self.inner.cancel(actions)
    }
    fn state(&self) -> Option<Value> {
        self.inner.state()
    }
    fn restore(&mut self, state: &Value) -> Result<(), PluginError> {
        self.inner.restore(state)
    }
}

/// What the world remembers about a request id's canonical response: the
/// reply's text, or its fault.
struct Recorded {
    response: Result<String, ServiceFault>,
    in_snapshot: bool,
}

/// The model world one schedule runs in.
struct NtcpWorld {
    server: NtcpServer,
    execs: Arc<AtomicU64>,
    cancels: Arc<AtomicU64>,
    /// In-flight request copies: rid → copy count. A `BTreeMap` collapses
    /// symmetric copies and keeps event enumeration deterministic.
    pool: BTreeMap<u64, u32>,
    dup_left: u32,
    drop_left: u32,
    snapshot: Option<String>,
    restored: bool,
    /// Has the client seen the proposal accepted (and queued the
    /// execute/cancel race)?
    follow_ups_queued: bool,
    recorded: BTreeMap<u64, Recorded>,
    exec_ok: bool,
    cancel_ok: bool,
    mutation: Option<Mutation>,
    trace: Vec<String>,
}

fn build_server(execs: &Arc<AtomicU64>, cancels: &Arc<AtomicU64>) -> NtcpServer {
    let plugin = ProbedPlugin {
        inner: SimulationPlugin::new(
            "model",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "col",
                Box::new(LinearElastic::new(1.0e5)),
            )),
        ),
        execs: Arc::clone(execs),
        cancels: Arc::clone(cancels),
    };
    NtcpServer::new(
        "model-site",
        SitePolicy::permissive("model-site", ActionLimits::most_large_scale()),
        Box::new(plugin),
        SimClock::new(),
    )
}

fn ctx(request_id: u64) -> CallContext {
    CallContext {
        caller: DistinguishedName::nees_user("NCSA", "Coordinator"),
        now: SimTime::from_secs(request_id),
        request_id,
    }
}

fn request_body(rid: u64) -> (&'static str, Value) {
    match rid {
        RID_PROPOSE => (
            "propose",
            json!({
                "transaction": "t1",
                "actions": [ControlPoint::displacement("dof-0", 0.01, 1000.0)],
                "timeout": SimTime::from_secs(30),
            }),
        ),
        RID_EXECUTE => ("execute", json!({"transaction": "t1"})),
        _ => ("cancel", json!({"transaction": "t1"})),
    }
}

impl NtcpWorld {
    fn new(cfg: &CheckConfig) -> Self {
        let execs = Arc::new(AtomicU64::new(0));
        let cancels = Arc::new(AtomicU64::new(0));
        let server = build_server(&execs, &cancels);
        let mut pool = BTreeMap::new();
        pool.insert(RID_PROPOSE, 1u32);
        NtcpWorld {
            server,
            execs,
            cancels,
            pool,
            dup_left: cfg.dup_budget,
            drop_left: cfg.drop_budget,
            snapshot: None,
            restored: false,
            follow_ups_queued: false,
            recorded: BTreeMap::new(),
            exec_ok: false,
            cancel_ok: false,
            mutation: cfg.mutation,
            trace: Vec::new(),
        }
    }

    /// Process one delivery of `rid` through the server and check the
    /// response invariants. `client_sees` is false for lost replies.
    fn process(&mut self, rid: u64, client_sees: bool) -> Result<(), Violation> {
        let (op, body) = request_body(rid);
        let mut reply = String::new();
        let response = self
            .server
            .respond(&ctx(rid), op, &body, &mut reply)
            .map(|()| reply);

        // Invariant 3: a request id has exactly one answer, forever.
        match self.recorded.get(&rid) {
            Some(rec) if rec.response != response => {
                return Err(self.violation(
                    "dedup-consistency",
                    format!(
                        "rid {rid} ({op}) answered {:?} but was previously answered {:?}",
                        response, rec.response
                    ),
                ));
            }
            Some(_) => {}
            None => {
                self.recorded.insert(
                    rid,
                    Recorded {
                        response: response.clone(),
                        in_snapshot: false,
                    },
                );
            }
        }

        // Invariant 4: the transaction cannot both complete and cancel.
        if response.is_ok() {
            match rid {
                RID_EXECUTE => {
                    if self.cancel_ok {
                        return Err(self.violation(
                            "execute-cancel-exclusivity",
                            "execute succeeded after cancel succeeded".into(),
                        ));
                    }
                    self.exec_ok = true;
                }
                RID_CANCEL => {
                    if self.exec_ok {
                        return Err(self.violation(
                            "execute-cancel-exclusivity",
                            "cancel succeeded after execute succeeded".into(),
                        ));
                    }
                    self.cancel_ok = true;
                }
                _ => {}
            }
        }

        // Client reaction: seeing the proposal accepted starts the
        // execute/cancel race (the failover scenario).
        // (With the permissive model policy the proposal is always
        // accepted, so any Ok answer means the race may begin.)
        if client_sees && rid == RID_PROPOSE && !self.follow_ups_queued && response.is_ok() {
            self.queue_follow_ups();
        }
        Ok(())
    }

    fn queue_follow_ups(&mut self) {
        self.pool.insert(RID_EXECUTE, 1);
        self.pool.insert(RID_CANCEL, 1);
        self.follow_ups_queued = true;
    }
}

impl World for NtcpWorld {
    type Event = Ev;

    /// Enumerate enabled events in a fixed, deterministic order. An empty
    /// answer terminates the schedule — which can only happen once every
    /// message is consumed and the snapshot/restore pair has happened, so
    /// every explored schedule crosses a checkpoint-restore boundary.
    fn enabled(&self) -> Vec<Ev> {
        let mut evs = Vec::new();
        for &rid in self.pool.keys() {
            evs.push(Ev::Deliver(rid));
        }
        if self.dup_left > 0 {
            for &rid in self.pool.keys() {
                evs.push(Ev::Duplicate(rid));
            }
        }
        if self.drop_left > 0 {
            for &rid in self.pool.keys() {
                evs.push(Ev::DropReply(rid));
            }
        }
        if self.snapshot.is_none() {
            evs.push(Ev::Snapshot);
        } else if !self.restored {
            evs.push(Ev::Restore);
        }
        evs
    }

    fn violation(&self, invariant: &str, detail: String) -> Violation {
        Violation {
            invariant: invariant.to_string(),
            detail,
            trace: self.trace.clone(),
        }
    }

    fn step(&mut self, ev: Ev) -> Result<(), Violation> {
        self.trace.push(ev.describe());
        match ev {
            Ev::Deliver(rid) => {
                let n = self.pool.get_mut(&rid).map(|n| {
                    *n -= 1;
                    *n
                });
                if n == Some(0) {
                    self.pool.remove(&rid);
                }
                self.process(rid, true)?;
            }
            Ev::Duplicate(rid) => {
                if let Some(n) = self.pool.get_mut(&rid) {
                    *n += 1;
                }
                self.dup_left -= 1;
            }
            Ev::DropReply(rid) => {
                self.drop_left -= 1;
                self.process(rid, false)?;
            }
            Ev::Snapshot => {
                self.snapshot = Some(self.server.snapshot());
                for rec in self.recorded.values_mut() {
                    rec.in_snapshot = true;
                }
            }
            Ev::Restore => {
                let text = self.snapshot.as_deref().unwrap_or("null");
                let mut snap: Value = match serde_json::from_str(text) {
                    Ok(snap) => snap,
                    Err(e) => {
                        return Err(self.violation(
                            "restore-failed",
                            format!("the snapshot's text does not parse: {e}"),
                        ))
                    }
                };
                if self.mutation == Some(Mutation::ClearDedupOnRestore) {
                    if let Value::Object(map) = &mut snap {
                        map.insert("dedup".to_string(), json!([]));
                    }
                }
                // Crash: the server and its plugin are rebuilt from
                // nothing, then the snapshot is applied. Fresh probes —
                // physical motion on the abandoned world line is gone.
                self.execs = Arc::new(AtomicU64::new(0));
                self.cancels = Arc::new(AtomicU64::new(0));
                self.server = build_server(&self.execs, &self.cancels);
                if let Err(e) = self
                    .server
                    .restore_snapshot(&snap, SimTime::from_secs(1000))
                {
                    return Err(self.violation(
                        "restore-failed",
                        format!("restore_snapshot rejected its own snapshot: {e:?}"),
                    ));
                }
                // The world rewound to the snapshot: responses first
                // produced after it belong to the abandoned world line.
                self.recorded.retain(|_, rec| rec.in_snapshot);
                self.exec_ok = self
                    .recorded
                    .get(&RID_EXECUTE)
                    .is_some_and(|r| r.response.is_ok());
                self.cancel_ok = self
                    .recorded
                    .get(&RID_CANCEL)
                    .is_some_and(|r| r.response.is_ok());
                self.restored = true;
            }
        }

        // Invariant 1: the restored execution counter never passes 1.
        if self.server.executions() > 1 {
            return Err(self.violation(
                "at-most-once",
                format!("server execution counter = {}", self.server.executions()),
            ));
        }
        // Invariant 2: the probe saw at most one physical execute and one
        // physical cancel on this world line.
        let (e, c) = (
            self.execs.load(Ordering::SeqCst),
            self.cancels.load(Ordering::SeqCst),
        );
        if e > 1 || c > 1 {
            return Err(self.violation(
                "single-actuation",
                format!("plugin probe saw {e} execute call(s), {c} cancel call(s)"),
            ));
        }
        Ok(())
    }
}

/// Exhaustively explore every schedule within the budgets.
pub fn check(cfg: &CheckConfig) -> CheckReport {
    explore(cfg.max_schedules, || NtcpWorld::new(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_machine_survives_small_exhaustive_run() {
        let cfg = CheckConfig {
            dup_budget: 1,
            drop_budget: 1,
            ..CheckConfig::default()
        };
        let report = check(&cfg);
        assert!(
            report.violation.is_none(),
            "unexpected violation: {:?}",
            report.violation
        );
        assert!(!report.truncated);
        assert!(
            report.schedules > 100,
            "suspiciously small space: {}",
            report.schedules
        );
    }

    #[test]
    fn seeded_dedup_mutation_is_caught() {
        let cfg = CheckConfig {
            dup_budget: 1,
            drop_budget: 1,
            mutation: Some(Mutation::ClearDedupOnRestore),
            ..CheckConfig::default()
        };
        let report = check(&cfg);
        let v = report
            .violation
            .expect("clearing the dedup cache on restore must violate an invariant");
        assert_eq!(v.invariant, "dedup-consistency", "got {v:?}");
        assert!(
            v.trace.iter().any(|t| t == "restore"),
            "violation should occur after the restore: {:?}",
            v.trace
        );
    }

    #[test]
    fn one_known_bad_schedule_replays_exactly() {
        // Hand-driven: propose delivered, execute processed with the
        // reply lost, snapshot, restore with the dedup cache wiped, then
        // the retransmitted execute arrives. The transaction is already
        // Completed in the restored state, so without the cache the
        // replay answers InvalidState where it once answered Ok.
        let cfg = CheckConfig {
            dup_budget: 0,
            drop_budget: 1,
            mutation: Some(Mutation::ClearDedupOnRestore),
            ..CheckConfig::default()
        };
        let mut world = NtcpWorld::new(&cfg);
        for ev in [
            Ev::Deliver(RID_PROPOSE),
            Ev::DropReply(RID_EXECUTE),
            Ev::Snapshot,
            Ev::Restore,
        ] {
            world.step(ev).expect("prefix must be violation-free");
        }
        let err = world
            .step(Ev::Deliver(RID_EXECUTE))
            .expect_err("retransmission after mutated restore must be caught");
        assert_eq!(err.invariant, "dedup-consistency");
        assert!(err.detail.contains("rid 2"), "{}", err.detail);
    }
}
