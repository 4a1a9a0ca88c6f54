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
//! The model: two sequential clients on their own endpoints, each with at
//! most one request outstanding, as every NTCP client in the tree is. The
//! primary coordinator proposes transaction `t1`; once it has *seen* the
//! acceptance, it executes `t1` while the backup coordinator cancels it
//! (failover looks like this: the backup cancels what the primary was
//! executing). Once the primary has seen the execute's answer, it
//! proposes `t2`, which retires `t1` if it settled. Both clients number
//! their requests from 1, as separate endpoints do. The network may
//! duplicate each request and lose each reply, within budgets, so copies
//! of `t1`'s requests can arrive after `t2`'s: late duplicates of a
//! retired transaction. At some point a snapshot is taken, and later the
//! server crashes and is restored from it while copies are still in
//! flight.
//!
//! Invariants checked after every event, on every schedule:
//!
//! 1. **at-most-once** — the server's execution counter (which survives
//!    snapshot/restore) never exceeds 1;
//! 2. **no double actuation / no double cancel** — the plugin probe
//!    observes at most one `execute` and one `cancel` call per world
//!    line;
//! 3. **dedup consistency across restore** — every reply the server
//!    produces for a client's request is, byte for byte, the text of the
//!    first reply it produced for it (or the same fault), or a
//!    `StaleRequest` fault once the client's mark — the highest request id
//!    the server has run from that client — has passed it; replies
//!    recorded before the snapshot must replay identically after restore;
//! 4. **execute/cancel exclusivity** — one world line never reports both
//!    a successful execute and a successful cancel of the same
//!    transaction.
//!
//! The checker drives [`GridService::respond`], the container's entry
//! point, so it checks the bytes a client receives. The snapshot is the
//! state document's text, parsed when it is restored.
//!
//! Two seeded bugs prove the checker catches what it claims to.
//! [`Mutation::ClearDedupOnRestore`] wipes every client's window from the
//! parsed snapshot before restoring (invariant 3 fires: a pre-snapshot
//! `execute` Ok replays as an `InvalidState` fault).
//! [`Mutation::RetireWithoutWatermark`] lets the server retire settled
//! transactions but skips the refusal below the mark: the checker hands
//! each request the server would refuse to it under a client identity it
//! holds no window for, so the server runs it as new against the state
//! retirement left (a late `execute` of the retired `t1` answers
//! `NoSuchTransaction` where it once answered Ok, or a late `propose`
//! brings `t1` back to be executed twice).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use neesgrid_gridsim::{NodeId, SimClock, SimTime};
use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid_ntcp::plugin::{ExecuteOutcome, PluginError};
use neesgrid_ntcp::{ControlPlugin, ControlPoint, NtcpServer, SimulationPlugin};
use neesgrid_ogsi::{CallContext, GridService, ServiceFault};
use neesgrid_structsim::{LinearElastic, SimulatedSubstructure};
use serde_json::{json, Value};

use crate::explore::{explore, CheckReport, Violation, World};

/// The requests the two clients' scripts send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Req {
    ProposeT1,
    ExecuteT1,
    ProposeT2,
    CancelT1,
}

impl Req {
    /// The client endpoint that sends it, its request id (counted per
    /// client) and its operation.
    fn script(self) -> (&'static str, u64, &'static str) {
        match self {
            Req::ProposeT1 => ("primary", 1, "propose"),
            Req::ExecuteT1 => ("primary", 2, "execute"),
            Req::ProposeT2 => ("primary", 3, "propose"),
            Req::CancelT1 => ("backup", 1, "cancel"),
        }
    }

    /// Its body, built once: every schedule delivers the same four.
    fn body(self) -> &'static Value {
        static BODIES: OnceLock<[Value; 3]> = OnceLock::new();
        let [t1, t2, t1_ref] = BODIES.get_or_init(|| {
            let propose = |tx: &str| {
                json!({
                    "transaction": tx,
                    "actions": [ControlPoint::displacement("dof-0", 0.01, 1000.0)],
                    "timeout": SimTime::from_secs(30),
                })
            };
            [propose("t1"), propose("t2"), json!({"transaction": "t1"})]
        });
        match self {
            Req::ProposeT1 => t1,
            Req::ProposeT2 => t2,
            Req::ExecuteT1 | Req::CancelT1 => t1_ref,
        }
    }
}

/// A seeded bug for mutation testing the checker itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Drop every client's window from the snapshot before restoring —
    /// the "retransmission after resume re-executes" bug class.
    ClearDedupOnRestore,
    /// Retire settled transactions but run a request below its client's
    /// mark as new instead of refusing it — the "late duplicate of a
    /// forgotten transaction comes back" bug class.
    RetireWithoutWatermark,
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
    /// Deliver one copy of a request; its client sees the reply.
    Deliver(Req),
    /// Deliver one copy of a request the network duplicated: its client
    /// sees the reply and the other copy stays in flight (copy count
    /// unchanged). A duplication changes nothing the invariants read
    /// until a copy is delivered, so it is explored only here, at the
    /// delivery it precedes, which covers every place it could happen.
    DeliverDuplicated(Req),
    /// Deliver one copy but lose the reply: the server processes it, the
    /// client learns nothing and will retransmit (copy count unchanged).
    DropReply(Req),
    /// Take the checkpoint snapshot.
    Snapshot,
    /// Crash the server and restore from the snapshot.
    Restore,
}

impl Ev {
    fn describe(self) -> String {
        let req = |r: Req| {
            let (client, rid, op) = r.script();
            format!("{client} rid={rid} {op}")
        };
        match self {
            Ev::Deliver(r) => format!("deliver {}", req(r)),
            Ev::DeliverDuplicated(r) => format!("deliver {} (a duplicate stays in flight)", req(r)),
            Ev::DropReply(r) => format!("deliver {} (reply lost)", req(r)),
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

/// What the world remembers about a request's canonical response: the
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
    /// In-flight request copies: request → copy count. A `BTreeMap`
    /// collapses symmetric copies and keeps event enumeration
    /// deterministic.
    pool: BTreeMap<Req, u32>,
    dup_left: u32,
    drop_left: u32,
    snapshot: Option<String>,
    restored: bool,
    /// Has the primary seen the proposal accepted (and the race begun)?
    race_queued: bool,
    /// Has the primary seen the execute answered (and proposed `t2`)?
    next_queued: bool,
    recorded: BTreeMap<Req, Recorded>,
    /// Each client's mark on this world line: the highest request id the
    /// server ran from it. `snapshot_marks` is the mark at the snapshot.
    marks: BTreeMap<&'static str, u64>,
    snapshot_marks: BTreeMap<&'static str, u64>,
    /// Client identities the mutated server holds no window for.
    ghosts: u64,
    exec_ok: bool,
    cancel_ok: bool,
    mutation: Option<Mutation>,
    /// The schedule so far, described only for a violation.
    trace: Vec<Ev>,
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

fn ctx(client: NodeId, request_id: u64) -> CallContext {
    CallContext {
        caller: DistinguishedName::nees_user("NCSA", "Coordinator"),
        client,
        now: SimTime::from_secs(request_id),
        request_id,
    }
}

impl NtcpWorld {
    fn new(cfg: &CheckConfig) -> Self {
        let execs = Arc::new(AtomicU64::new(0));
        let cancels = Arc::new(AtomicU64::new(0));
        let server = build_server(&execs, &cancels);
        let mut pool = BTreeMap::new();
        pool.insert(Req::ProposeT1, 1u32);
        NtcpWorld {
            server,
            execs,
            cancels,
            pool,
            dup_left: cfg.dup_budget,
            drop_left: cfg.drop_budget,
            snapshot: None,
            restored: false,
            race_queued: false,
            next_queued: false,
            recorded: BTreeMap::new(),
            marks: BTreeMap::new(),
            snapshot_marks: BTreeMap::new(),
            ghosts: 0,
            exec_ok: false,
            cancel_ok: false,
            mutation: cfg.mutation,
            trace: Vec::new(),
        }
    }

    /// Process one delivery of `req` through the server and check the
    /// response invariants. `client_sees` is false for lost replies.
    fn process(&mut self, req: Req, client_sees: bool) -> Result<(), Violation> {
        let (client, rid, op) = req.script();
        let mark = self.marks.get(client).copied().unwrap_or(0);
        let mut node = NodeId::new(client);
        if self.mutation == Some(Mutation::RetireWithoutWatermark) && rid < mark {
            // The seeded bug: no refusal, so the request runs as new.
            self.ghosts += 1;
            node = NodeId::new(format!("{client}~{}", self.ghosts));
        }
        let mut reply = String::new();
        let response = self
            .server
            .respond(&ctx(node, rid), op, req.body(), &mut reply)
            .map(|()| reply);

        // Invariant 3: a request has exactly one answer, forever, unless
        // its client's mark has passed it: then it is refused.
        let stale = matches!(&response, Err(fault) if fault.code == "StaleRequest");
        if stale {
            if rid >= mark {
                return Err(self.violation(
                    "dedup-consistency",
                    format!("{client} rid {rid} ({op}) refused as stale at mark {mark}"),
                ));
            }
        } else {
            match self.recorded.get(&req) {
                Some(rec) if rec.response != response => {
                    return Err(self.violation(
                        "dedup-consistency",
                        format!(
                            "{client} rid {rid} ({op}) answered {:?} but was previously answered {:?}",
                            response, rec.response
                        ),
                    ));
                }
                Some(_) => {}
                None => {
                    self.recorded.insert(
                        req,
                        Recorded {
                            response: response.clone(),
                            in_snapshot: false,
                        },
                    );
                }
            }
            self.marks.insert(client, mark.max(rid));
        }

        // Invariant 4: the transaction cannot both complete and cancel.
        if response.is_ok() {
            match req {
                Req::ExecuteT1 => {
                    if self.cancel_ok {
                        return Err(self.violation(
                            "execute-cancel-exclusivity",
                            "execute succeeded after cancel succeeded".into(),
                        ));
                    }
                    self.exec_ok = true;
                }
                Req::CancelT1 => {
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

        // Client reactions. Seeing the proposal accepted starts the
        // execute/cancel race (the failover scenario); with the permissive
        // model policy the proposal is always accepted, so any Ok answer
        // means the race may begin. Seeing the execute answered, whatever
        // the answer, the primary moves on to its next transaction.
        if client_sees {
            if req == Req::ProposeT1 && !self.race_queued && response.is_ok() {
                self.pool.insert(Req::ExecuteT1, 1);
                self.pool.insert(Req::CancelT1, 1);
                self.race_queued = true;
            }
            if req == Req::ExecuteT1 && !self.next_queued {
                self.pool.insert(Req::ProposeT2, 1);
                self.next_queued = true;
            }
        }
        Ok(())
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
        for &req in self.pool.keys() {
            evs.push(Ev::Deliver(req));
        }
        if self.dup_left > 0 {
            for &req in self.pool.keys() {
                evs.push(Ev::DeliverDuplicated(req));
            }
        }
        if self.drop_left > 0 {
            for &req in self.pool.keys() {
                evs.push(Ev::DropReply(req));
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
            trace: self.trace.iter().map(|ev| ev.describe()).collect(),
        }
    }

    fn step(&mut self, ev: Ev) -> Result<(), Violation> {
        self.trace.push(ev);
        match ev {
            Ev::Deliver(req) => {
                let n = self.pool.get_mut(&req).map(|n| {
                    *n -= 1;
                    *n
                });
                if n == Some(0) {
                    self.pool.remove(&req);
                }
                self.process(req, true)?;
            }
            Ev::DeliverDuplicated(req) => {
                self.dup_left -= 1;
                self.process(req, true)?;
            }
            Ev::DropReply(req) => {
                self.drop_left -= 1;
                self.process(req, false)?;
            }
            Ev::Snapshot => {
                self.snapshot = Some(self.server.snapshot());
                self.snapshot_marks = self.marks.clone();
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
                        map.insert("windows".to_string(), json!({}));
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
                // produced after it, and the marks they raised, belong to
                // the abandoned world line.
                self.recorded.retain(|_, rec| rec.in_snapshot);
                self.marks = self.snapshot_marks.clone();
                self.exec_ok = self
                    .recorded
                    .get(&Req::ExecuteT1)
                    .is_some_and(|r| r.response.is_ok());
                self.cancel_ok = self
                    .recorded
                    .get(&Req::CancelT1)
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
            .expect("clearing the windows on restore must violate an invariant");
        assert_eq!(v.invariant, "dedup-consistency", "got {v:?}");
        assert!(
            v.trace.iter().any(|t| t == "restore"),
            "violation should occur after the restore: {:?}",
            v.trace
        );
    }

    #[test]
    fn seeded_retire_without_watermark_mutation_is_caught() {
        let cfg = CheckConfig {
            dup_budget: 1,
            drop_budget: 1,
            mutation: Some(Mutation::RetireWithoutWatermark),
            ..CheckConfig::default()
        };
        let report = check(&cfg);
        let v = report
            .violation
            .expect("running late duplicates as new must violate an invariant");
        assert!(
            ["dedup-consistency", "at-most-once"].contains(&v.invariant.as_str()),
            "got {v:?}"
        );
        assert!(
            v.trace.iter().any(|t| t == "deliver primary rid=3 propose"),
            "violation should follow t1's retirement: {:?}",
            v.trace
        );
    }

    #[test]
    fn one_known_bad_schedule_replays_exactly() {
        // Hand-driven: propose delivered, execute processed with the
        // reply lost, snapshot, restore with the windows wiped, then the
        // retransmitted execute arrives. The transaction is already
        // Completed in the restored state, so without its window the
        // replay answers InvalidState where it once answered Ok.
        let cfg = CheckConfig {
            dup_budget: 0,
            drop_budget: 1,
            mutation: Some(Mutation::ClearDedupOnRestore),
            ..CheckConfig::default()
        };
        let mut world = NtcpWorld::new(&cfg);
        for ev in [
            Ev::Deliver(Req::ProposeT1),
            Ev::DropReply(Req::ExecuteT1),
            Ev::Snapshot,
            Ev::Restore,
        ] {
            world.step(ev).expect("prefix must be violation-free");
        }
        let err = world
            .step(Ev::Deliver(Req::ExecuteT1))
            .expect_err("retransmission after mutated restore must be caught");
        assert_eq!(err.invariant, "dedup-consistency");
        assert!(err.detail.contains("rid 2"), "{}", err.detail);
    }

    #[test]
    fn late_duplicates_of_the_retired_transaction_are_refused_across_restore() {
        // Both of t1's requests are duplicated; the primary sees the
        // execute and proposes t2, which retires t1. The copies arrive
        // late, before and after a snapshot/restore, and each is refused;
        // the unmutated server passes every invariant. The mutated one
        // runs the late propose as new, bringing t1 back, and then the
        // late execute runs it a second time.
        let schedule = [
            Ev::DeliverDuplicated(Req::ProposeT1),
            Ev::DeliverDuplicated(Req::ExecuteT1),
            Ev::Deliver(Req::ProposeT2),
            Ev::Deliver(Req::ProposeT1),
            Ev::Snapshot,
            Ev::Restore,
            Ev::Deliver(Req::ExecuteT1),
            Ev::Deliver(Req::CancelT1),
        ];
        let cfg = CheckConfig {
            dup_budget: 2,
            drop_budget: 0,
            ..CheckConfig::default()
        };
        let mut world = NtcpWorld::new(&cfg);
        for ev in schedule {
            world.step(ev).expect("the window refuses every late copy");
        }
        assert!(world.enabled().is_empty(), "the schedule is complete");
        assert_eq!(
            world.server.stale_refused(),
            1,
            "restored, then refused once"
        );
        assert_eq!(world.server.executions(), 1);

        let mut mutated = NtcpWorld::new(&CheckConfig {
            mutation: Some(Mutation::RetireWithoutWatermark),
            ..cfg
        });
        let err = schedule
            .iter()
            .try_for_each(|&ev| mutated.step(ev))
            .expect_err("a late execute run as new is caught");
        assert_eq!(err.invariant, "at-most-once", "{err:?}");
        assert_eq!(err.trace.len(), 7, "caught at the late execute: {err:?}");
    }
}
