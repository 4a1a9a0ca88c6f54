//! The generic NTCP server core.
//!
//! Implements the protocol-generic half of Figure 2: transaction state
//! management, site-policy enforcement, at-most-once request handling, and
//! OGSI service-data publication. Everything site-specific is delegated to
//! the [`ControlPlugin`].
//!
//! Replies are text from the moment they are written:
//! [`GridService::respond`] writes each typed reply once into the
//! container's reply buffer, the at-most-once cache remembers and replays
//! those bytes, and a `snapshotSite` reply is written straight from the
//! server's state.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

use neesgrid_gridsim::{SimClock, SimTime};
use neesgrid_gsi::SitePolicy;
use neesgrid_ogsi::{CallContext, DedupCache, GridService, ServiceData, ServiceFault};
use neesgrid_telemetry::{Field, SpanId, Telemetry};

use crate::msg::{ControlPoint, ExecuteResponse, ProposalDecision, ProposeBody, TransactionRef};
use crate::plugin::ControlPlugin;
use crate::transaction::{Transaction, TxState};

/// Capacity of the at-most-once response cache (must exceed the number of
/// in-flight retransmittable requests; MOST used 3 requests per step).
const DEDUP_CAPACITY: usize = 4096;

/// A reply as the at-most-once cache remembers it: the document's text as
/// it was written, or the fault.
type Remembered = Result<Arc<str>, ServiceFault>;

/// An NTCP server for one experiment site.
pub struct NtcpServer {
    site: String,
    // The site name as a shared str so per-request trace events clone a
    // refcount instead of the string.
    site_tag: std::sync::Arc<str>,
    policy: SitePolicy,
    plugin: Box<dyn ControlPlugin>,
    clock: Arc<SimClock>,
    transactions: BTreeMap<String, Transaction>,
    sde: ServiceData,
    dedup: DedupCache<u64, Remembered>,
    executions: u64,
    telemetry: Telemetry,
}

impl NtcpServer {
    /// Create a server enforcing `policy` over `plugin`.
    pub fn new(
        site: impl Into<String>,
        policy: SitePolicy,
        plugin: Box<dyn ControlPlugin>,
        clock: Arc<SimClock>,
    ) -> Self {
        let site = site.into();
        let mut sde = ServiceData::new();
        sde.set(
            "serverInfo",
            json!({ "site": site, "plugin": plugin.name() }),
            clock.now(),
        );
        NtcpServer {
            site_tag: site.as_str().into(),
            site,
            policy,
            plugin,
            clock,
            transactions: BTreeMap::new(),
            sde,
            dedup: DedupCache::new(DEDUP_CAPACITY),
            executions: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Install a telemetry handle: mutating operations get an `ntcp`
    /// lifecycle span (propose / execute / cancel, stamped at the request's
    /// virtual arrival time) and dedup-cache replays are annotated with an
    /// `ntcp/dedup_hit` instant event. Defaults to disabled.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Number of plugin executions performed (at-most-once verification).
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Engage or release the site's emergency stop (§4: the facility's
    /// unconditional right to terminate its local experiment).
    pub fn set_emergency_stop(&mut self, engaged: bool) {
        self.policy.emergency_stop = engaged;
    }

    /// Record a change to transaction `name` in its SDE. The value is
    /// rendered from the transaction when something reads it (see
    /// [`GridService::sde`]), or now for a matching subscriber.
    fn publish(&mut self, name: &str, now: SimTime) {
        if let Some(tx) = self.transactions.get(name) {
            touch_sde(&mut self.sde, tx, now);
        }
    }

    /// Render every transaction SDE changed since the last read.
    fn render_sdes(&mut self) {
        let transactions = &self.transactions;
        self.sde.refresh(|element| {
            let name = element.strip_prefix("transaction/")?;
            transactions.get(name).map(Transaction::to_sde_value)
        });
    }

    fn do_propose(
        &mut self,
        ctx: &CallContext,
        body: &Value,
    ) -> Result<ProposalDecision, ServiceFault> {
        let req = ProposeBody::deserialize(body)
            .map_err(|e| ServiceFault::permanent("BadRequest", format!("propose body: {e}")))?;
        if self.transactions.contains_key(&req.transaction) {
            return Err(ServiceFault::permanent(
                "DuplicateTransaction",
                format!("transaction '{}' already exists", req.transaction),
            ));
        }
        let mut tx = Transaction::propose(req.transaction, req.actions, req.timeout, ctx.now);
        // Policy first (identity + physical limits), then plugin
        // feasibility; either can reject, neither causes motion.
        let mut rejection: Option<String> = None;
        for a in &tx.actions {
            let d = self.policy.authorize_command(
                &ctx.caller,
                "propose",
                a.displacement_m,
                a.velocity_mps,
                a.expected_force_n,
            );
            if !d.allowed {
                rejection = Some(d.reason);
                break;
            }
        }
        if rejection.is_none() {
            if let Err(reason) = self.plugin.review(&tx.actions) {
                rejection = Some(reason);
            }
        }
        let decision = match rejection {
            None => {
                tx.transition(TxState::Accepted, ctx.now).map_err(|e| {
                    ServiceFault::permanent("Internal", format!("{}: {e}", tx.name))
                })?;
                ProposalDecision::Accepted
            }
            Some(reason) => {
                tx.reason = Some(reason.clone());
                tx.transition(TxState::Rejected, ctx.now).map_err(|e| {
                    ServiceFault::permanent("Internal", format!("{}: {e}", tx.name))
                })?;
                ProposalDecision::Rejected { reason }
            }
        };
        // The map key is the one copy of the decoded name.
        let tx = self.transactions.entry(tx.name.clone()).or_insert(tx);
        touch_sde(&mut self.sde, tx, ctx.now);
        Ok(decision)
    }

    fn do_execute(
        &mut self,
        ctx: &CallContext,
        body: &Value,
    ) -> Result<ExecuteResponse, ServiceFault> {
        let req = TransactionRef::deserialize(body)
            .map_err(|e| ServiceFault::permanent("BadRequest", format!("execute body: {e}")))?;
        let who = self.policy.authorize(&ctx.caller, "execute");
        if !who.allowed {
            return Err(ServiceFault::access_denied(who.reason));
        }
        let actions: Vec<ControlPoint> = {
            let tx = self.transactions.get_mut(&req.transaction).ok_or_else(|| {
                ServiceFault::permanent(
                    "NoSuchTransaction",
                    format!("no transaction '{}'", req.transaction),
                )
            })?;
            tx.transition(TxState::Executing, ctx.now).map_err(|e| {
                ServiceFault::permanent("InvalidState", format!("{}: {e}", req.transaction))
            })?;
            tx.actions.clone()
        };
        self.publish(&req.transaction, ctx.now);

        let outcome = self.plugin.execute(&actions);
        self.executions += 1;
        match outcome {
            Ok(out) => {
                // Charge the execution's virtual duration to the clock,
                // first catching the clock up to the request's arrival time
                // (a server that has been idle has an older local clock).
                self.clock.advance_to(ctx.now);
                let done_at = self.clock.advance(out.duration);
                let tx = self.transactions.get_mut(&req.transaction).ok_or_else(|| {
                    ServiceFault::permanent(
                        "Internal",
                        format!("transaction '{}' vanished mid-execute", req.transaction),
                    )
                })?;
                tx.results = Some(out.results.clone());
                tx.transition(TxState::Completed, done_at).map_err(|e| {
                    ServiceFault::permanent("Internal", format!("{}: {e}", req.transaction))
                })?;
                self.publish(&req.transaction, done_at);
                Ok(ExecuteResponse {
                    results: out.results,
                    duration: out.duration,
                })
            }
            Err(e) => {
                let tx = self.transactions.get_mut(&req.transaction).ok_or_else(|| {
                    ServiceFault::permanent(
                        "Internal",
                        format!("transaction '{}' vanished mid-execute", req.transaction),
                    )
                })?;
                tx.reason = Some(e.message.clone());
                tx.transition(TxState::Failed, ctx.now).map_err(|e| {
                    ServiceFault::permanent("Internal", format!("{}: {e}", req.transaction))
                })?;
                self.publish(&req.transaction, ctx.now);
                Err(if e.retryable {
                    ServiceFault::transient("ExecutionFailed", e.message)
                } else {
                    ServiceFault::permanent("ExecutionFailed", e.message)
                })
            }
        }
    }

    /// Cancel a transaction, answering with its name.
    fn do_cancel(&mut self, ctx: &CallContext, body: &Value) -> Result<String, ServiceFault> {
        let req = TransactionRef::deserialize(body)
            .map_err(|e| ServiceFault::permanent("BadRequest", format!("cancel body: {e}")))?;
        let actions: Vec<ControlPoint> = {
            let tx = self.transactions.get_mut(&req.transaction).ok_or_else(|| {
                ServiceFault::permanent(
                    "NoSuchTransaction",
                    format!("no transaction '{}'", req.transaction),
                )
            })?;
            tx.transition(TxState::Cancelled, ctx.now).map_err(|e| {
                ServiceFault::permanent("InvalidState", format!("{}: {e}", req.transaction))
            })?;
            tx.actions.clone()
        };
        // The transaction is Cancelled whether or not the backend managed
        // to stand down, so its SDE records the change either way.
        let stood_down = self.plugin.cancel(&actions);
        self.publish(&req.transaction, ctx.now);
        stood_down.map_err(|e| ServiceFault::permanent("CancelFailed", e.message))?;
        Ok(req.transaction)
    }

    fn do_get_transaction(&mut self, body: &Value) -> Result<Value, ServiceFault> {
        let req = TransactionRef::deserialize(body)
            .map_err(|e| ServiceFault::permanent("BadRequest", format!("get body: {e}")))?;
        match self.transactions.get(&req.transaction) {
            Some(tx) => Ok(tx.to_sde_value()),
            None => Err(ServiceFault::permanent(
                "NoSuchTransaction",
                format!("no transaction '{}'", req.transaction),
            )),
        }
    }

    /// The server's full protocol + backend state for a checkpoint, as the
    /// JSON text a `snapshotSite` reply carries: transactions, the
    /// at-most-once dedup cache (so a pre-crash retransmission is still
    /// replayed, not re-executed, after resume), the execution counter, and
    /// the plugin's specimen state (if the backend supports snapshots).
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        self.write_snapshot(&mut out);
        out
    }

    /// Write the state document straight from the server, members in
    /// sorted key order. Each remembered reply is copied verbatim inside
    /// `{"ok":…}`.
    fn write_snapshot(&self, out: &mut String) {
        out.push_str("{\"dedup\":[");
        for (i, (key, remembered)) in self.dedup.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            key.write_json(out);
            match remembered {
                Ok(text) => {
                    out.push_str(",{\"ok\":");
                    out.push_str(text);
                }
                Err(fault) => {
                    out.push_str(",{\"fault\":");
                    fault.write_json(out);
                }
            }
            out.push_str("}]");
        }
        out.push_str("],\"executions\":");
        self.executions.write_json(out);
        out.push_str(",\"plugin\":");
        self.plugin.name().write_json(out);
        out.push_str(",\"pluginState\":");
        self.plugin.state().write_json(out);
        out.push_str(",\"site\":");
        self.site.write_json(out);
        out.push_str(",\"transactions\":");
        self.transactions.write_json(out);
        out.push('}');
    }

    /// Restore state captured by [`NtcpServer::snapshot`]. Protocol state
    /// (transactions, dedup, counters) always restores; plugin state is
    /// restored when the snapshot carries any — a snapshot with
    /// `pluginState: null` against a plugin that *does* hold state is
    /// refused, because resuming would silently diverge. A snapshot
    /// without its dedup cache or execution counter is refused too: a
    /// server restored from it would answer a retransmission it once
    /// answered as a new request.
    pub fn restore_snapshot(&mut self, snap: &Value, now: SimTime) -> Result<(), ServiceFault> {
        if snap["site"].as_str() != Some(self.site.as_str()) {
            return Err(ServiceFault::permanent(
                "SnapshotMismatch",
                format!(
                    "snapshot is for site {:?}, server is '{}'",
                    snap["site"], self.site
                ),
            ));
        }
        let transactions = BTreeMap::<String, Transaction>::deserialize(&snap["transactions"])
            .map_err(|e| ServiceFault::permanent("BadSnapshot", format!("transactions: {e}")))?;
        let dedup = snap["dedup"]
            .as_array()
            .ok_or_else(|| ServiceFault::permanent("BadSnapshot", "dedup: expected an array"))?;
        let mut entries = Vec::with_capacity(dedup.len());
        for pair in dedup {
            let key = pair[0]
                .as_u64()
                .ok_or_else(|| ServiceFault::permanent("BadSnapshot", "dedup key"))?;
            entries.push((key, remembered_reply(&pair[1])?));
        }
        let executions = snap["executions"].as_u64().ok_or_else(|| {
            ServiceFault::permanent("BadSnapshot", "executions: expected an unsigned integer")
        })?;
        match &snap["pluginState"] {
            Value::Null => {
                if self.plugin.state().is_some() {
                    return Err(ServiceFault::permanent(
                        "BadSnapshot",
                        format!(
                            "snapshot has no state for stateful plugin '{}'",
                            self.plugin.name()
                        ),
                    ));
                }
            }
            state => self
                .plugin
                .restore(state)
                .map_err(|e| ServiceFault::permanent("RestoreFailed", e.message))?,
        }
        // Pending SDEs render from the transactions they describe, which
        // the restored map replaces.
        self.render_sdes();
        self.transactions = transactions;
        self.dedup = DedupCache::from_entries(DEDUP_CAPACITY, entries);
        self.executions = executions;
        let names: Vec<String> = self.transactions.keys().cloned().collect();
        for name in names {
            self.publish(&name, now);
        }
        Ok(())
    }

    fn do_restore(&mut self, ctx: &CallContext, body: &Value) -> Result<Value, ServiceFault> {
        let who = self.policy.authorize(&ctx.caller, "restoreSite");
        if !who.allowed {
            return Err(ServiceFault::access_denied(who.reason));
        }
        self.restore_snapshot(&body["snapshot"], ctx.now)?;
        Ok(json!({ "restored": self.site, "transactions": self.transactions.len() }))
    }

    fn do_get_status(&self) -> Value {
        let by_state = |s: TxState| self.transactions.values().filter(|t| t.state == s).count();
        json!({
            "site": self.site,
            "plugin": self.plugin.name(),
            "transactions": self.transactions.len(),
            "completed": by_state(TxState::Completed),
            "rejected": by_state(TxState::Rejected),
            "failed": by_state(TxState::Failed),
            "cancelled": by_state(TxState::Cancelled),
            "executions": self.executions,
            "emergency_stop": self.policy.emergency_stop,
        })
    }
}

/// Record a change to `tx` in its SDE (see [`NtcpServer::publish`]).
fn touch_sde(sde: &mut ServiceData, tx: &Transaction, now: SimTime) {
    sde.touch(format!("transaction/{}", tx.name), now, || {
        tx.to_sde_value()
    });
}

/// A snapshot dedup entry's outcome: exactly one of `ok`, whose document
/// is rendered back to the text it was written as (the shim re-renders a
/// parsed compact document to the same bytes), and `fault`.
fn remembered_reply(outcome: &Value) -> Result<Remembered, ServiceFault> {
    let member = match outcome.as_object() {
        Some(members) if members.len() == 1 => members.iter().next(),
        _ => None,
    };
    match member {
        Some((key, doc)) if key == "ok" => Ok(Ok(Arc::from(doc.to_string()))),
        Some((key, fault)) if key == "fault" => ServiceFault::deserialize(fault)
            .map(Err)
            .map_err(|e| ServiceFault::permanent("BadSnapshot", format!("dedup fault: {e}"))),
        _ => Err(ServiceFault::permanent(
            "BadSnapshot",
            "dedup outcome: expected exactly one of ok and fault",
        )),
    }
}

impl GridService for NtcpServer {
    fn service_type(&self) -> &'static str {
        "ntcp"
    }

    /// The reply [`GridService::respond`] writes, parsed: an adapter for
    /// callers that want a tree.
    fn handle(
        &mut self,
        ctx: &CallContext,
        operation: &str,
        body: &Value,
    ) -> Result<Value, ServiceFault> {
        let mut reply = String::new();
        self.respond(ctx, operation, body, &mut reply)?;
        serde_json::from_str(&reply)
            .map_err(|e| ServiceFault::permanent("Internal", format!("reply text: {e}")))
    }

    fn respond(
        &mut self,
        ctx: &CallContext,
        operation: &str,
        body: &Value,
        reply: &mut String,
    ) -> Result<(), ServiceFault> {
        // At-most-once: replay the remembered outcome for retransmissions.
        // Reads are idempotent and skip the cache, as does restoreSite —
        // it *replaces* the cache, so remembering it there is circular,
        // and replaying a restore is harmless (idempotent by value).
        match operation {
            "getTransaction" => {
                self.do_get_transaction(body)?.write_json(reply);
                return Ok(());
            }
            "getStatus" => {
                self.do_get_status().write_json(reply);
                return Ok(());
            }
            "snapshotSite" => {
                self.write_snapshot(reply);
                return Ok(());
            }
            "restoreSite" => {
                self.do_restore(ctx, body)?.write_json(reply);
                return Ok(());
            }
            _ => {}
        }
        if let Some(remembered) = self.dedup.check(&ctx.request_id) {
            if self.telemetry.enabled() {
                self.telemetry.instant(
                    ctx.now.as_nanos(),
                    "ntcp",
                    "dedup_hit",
                    [
                        ("site", Field::Shared(self.site_tag.clone())),
                        ("op", Field::Str(operation.to_string())),
                        ("corr", Field::U64(ctx.request_id)),
                    ],
                );
            }
            reply.push_str(&remembered?);
            return Ok(());
        }
        // Lifecycle span around the mutating dispatch. Same-function
        // start/end with no early exits in between, so the analyzer's
        // telemetry-span-balance rule can prove the span always closes.
        let span = if self.telemetry.enabled() {
            let tx = body["transaction"].as_str().unwrap_or("?").to_string();
            // Span names are &'static: map the operation onto the fixed
            // taxonomy (the unknown-operation error path is "other").
            let op_name: &'static str = match operation {
                "propose" => "propose",
                "execute" => "execute",
                "cancel" => "cancel",
                _ => "other",
            };
            self.telemetry.span_start(
                ctx.now.as_nanos(),
                "ntcp",
                op_name,
                [
                    ("site", Field::Shared(self.site_tag.clone())),
                    ("tx", Field::Str(tx)),
                    ("corr", Field::U64(ctx.request_id)),
                ],
            )
        } else {
            SpanId::NONE
        };
        // Each typed reply is written once; the span's outcome comes from
        // the typed value.
        let start = reply.len();
        let result = match operation {
            "propose" => self.do_propose(ctx, body).map(|decision| {
                reply.push_str("{\"decision\":");
                decision.write_json(reply);
                reply.push('}');
                match decision {
                    ProposalDecision::Accepted => "ok",
                    ProposalDecision::Rejected { .. } => "rejected",
                }
            }),
            "execute" => self.do_execute(ctx, body).map(|response| {
                response.write_json(reply);
                "ok"
            }),
            "cancel" => self.do_cancel(ctx, body).map(|name| {
                reply.push_str("{\"cancelled\":");
                name.write_json(reply);
                reply.push('}');
                "ok"
            }),
            other => Err(ServiceFault::no_such_operation(other)),
        };
        if self.telemetry.enabled() {
            let outcome = match &result {
                Ok(label) => Field::Static(label),
                Err(fault) => Field::Str(format!("err:{}", fault.code)),
            };
            self.telemetry.span_end(
                self.clock.now().as_nanos(),
                span,
                [
                    ("site", Field::Shared(self.site_tag.clone())),
                    ("outcome", outcome),
                ],
            );
        }
        let remembered = result.map(|_| Arc::from(&reply[start..]));
        self.dedup.remember(ctx.request_id, remembered.clone());
        remembered.map(|_| ())
    }

    fn sde(&mut self) -> Option<&mut ServiceData> {
        self.render_sdes();
        Some(&mut self.sde)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{ExecuteOutcome, PluginError, SimulationPlugin};
    use neesgrid_gsi::{ActionLimits, DistinguishedName};
    use neesgrid_structsim::{LinearElastic, SimulatedSubstructure};

    fn sim_plugin() -> SimulationPlugin {
        SimulationPlugin::new(
            "sim",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "col",
                Box::new(LinearElastic::new(1.0e5)),
            )),
        )
    }

    fn server_with(plugin: Box<dyn ControlPlugin>) -> NtcpServer {
        NtcpServer::new(
            "uiuc",
            SitePolicy::permissive("uiuc", ActionLimits::most_large_scale()),
            plugin,
            SimClock::new(),
        )
    }

    fn server() -> NtcpServer {
        server_with(Box::new(sim_plugin()))
    }

    /// A simulation backend that cannot stand down from a proposal whose
    /// first action pushes in the negative direction.
    struct RefusesNegativeCancel(SimulationPlugin);

    impl ControlPlugin for RefusesNegativeCancel {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String> {
            self.0.review(actions)
        }

        fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
            self.0.execute(actions)
        }

        fn cancel(&mut self, actions: &[ControlPoint]) -> Result<(), PluginError> {
            match actions.first() {
                Some(a) if a.displacement_m < 0.0 => {
                    Err(PluginError::permanent("actuator hold cannot be released"))
                }
                _ => self.0.cancel(actions),
            }
        }
    }

    fn ctx(request_id: u64) -> CallContext {
        CallContext {
            caller: DistinguishedName::nees_user("NCSA", "Coordinator"),
            now: SimTime::from_secs(1),
            request_id,
        }
    }

    /// The state document `snapshotSite` answers, parsed.
    fn snapshot_value(s: &NtcpServer) -> Value {
        serde_json::from_str(&s.snapshot()).unwrap()
    }

    /// `respond`'s reply text: the document a client receives.
    fn answer(
        s: &mut NtcpServer,
        rid: u64,
        op: &str,
        body: &Value,
    ) -> Result<String, ServiceFault> {
        let mut reply = String::new();
        s.respond(&ctx(rid), op, body, &mut reply).map(|()| reply)
    }

    fn propose_body(tx: &str, d: f64, f: f64) -> Value {
        json!({
            "transaction": tx,
            "actions": [ControlPoint::displacement("dof-0", d, f)],
            "timeout": SimTime::from_secs(30),
        })
    }

    #[test]
    fn propose_execute_lifecycle() {
        let mut s = server();
        let out = s
            .handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        assert_eq!(out["decision"], json!(ProposalDecision::Accepted));
        let out = s
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        let resp: ExecuteResponse = serde_json::from_value(out).unwrap();
        assert!((resp.results[0].force_n - 1000.0).abs() < 1e-9);
        // SDE reflects the completed transaction.
        let sde_val = s
            .handle(&ctx(3), "getTransaction", &json!({"transaction": "t1"}))
            .unwrap();
        assert_eq!(sde_val["state"], "Completed");
        assert_eq!(sde_val["timestamps"].as_array().unwrap().len(), 4);
    }

    #[test]
    fn policy_violation_rejects_at_proposal() {
        let mut s = server();
        let out = s
            .handle(&ctx(1), "propose", &propose_body("t1", 0.2, 1000.0))
            .unwrap();
        let decision = serde_json::from_value::<ProposalDecision>(out["decision"].clone()).unwrap();
        assert!(
            matches!(&decision, ProposalDecision::Rejected { reason } if reason.contains("displacement")),
            "over-limit displacement should be rejected by site policy, got {decision:?}"
        );
        // The rejected transaction cannot be executed.
        let err = s
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "InvalidState");
        assert_eq!(s.executions(), 0, "nothing moved");
    }

    #[test]
    fn plugin_review_rejects_infeasible() {
        let mut s = server();
        let body = json!({
            "transaction": "t1",
            "actions": [
                ControlPoint::displacement("a", 0.001, 0.0),
                ControlPoint::displacement("b", 0.001, 0.0),
            ],
            "timeout": SimTime::from_secs(30),
        });
        let out = s.handle(&ctx(1), "propose", &body).unwrap();
        assert!(matches!(
            serde_json::from_value::<ProposalDecision>(out["decision"].clone()).unwrap(),
            ProposalDecision::Rejected { .. }
        ));
    }

    #[test]
    fn at_most_once_replay_on_execute() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        let first = s
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        // Retransmission of the same request id (client saw no reply).
        let replay = s
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        assert_eq!(first, replay);
        assert_eq!(s.executions(), 1, "action executed exactly once");
    }

    #[test]
    fn distinct_request_ids_are_distinct_requests() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        s.handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        // A *new* execute request (different id) is a protocol error:
        // the transaction is already completed.
        let err = s
            .handle(&ctx(3), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "InvalidState");
        assert_eq!(s.executions(), 1);
    }

    #[test]
    fn duplicate_transaction_name_refused() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        let err = s
            .handle(&ctx(2), "propose", &propose_body("t1", 0.02, 2000.0))
            .unwrap_err();
        assert_eq!(err.code, "DuplicateTransaction");
    }

    #[test]
    fn cancel_before_execute() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        let out = s
            .handle(&ctx(2), "cancel", &json!({"transaction": "t1"}))
            .unwrap();
        assert_eq!(out["cancelled"], "t1");
        let err = s
            .handle(&ctx(3), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "InvalidState");
        assert_eq!(s.executions(), 0);
    }

    #[test]
    fn cancel_after_completion_is_invalid() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        s.handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        let err = s
            .handle(&ctx(3), "cancel", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "InvalidState");
    }

    #[test]
    fn emergency_stop_refuses_proposals() {
        let mut s = server();
        s.set_emergency_stop(true);
        let out = s
            .handle(&ctx(1), "propose", &propose_body("t1", 0.001, 10.0))
            .unwrap();
        let decision = serde_json::from_value::<ProposalDecision>(out["decision"].clone()).unwrap();
        assert!(
            matches!(&decision, ProposalDecision::Rejected { reason } if reason.contains("emergency")),
            "an engaged emergency stop should reject every proposal, got {decision:?}"
        );
    }

    #[test]
    fn execution_advances_virtual_clock() {
        let clock = SimClock::new();
        let mut plugin = SimulationPlugin::new(
            "sim",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "col",
                Box::new(LinearElastic::new(1.0e5)),
            )),
        );
        plugin.compute_time = SimTime::from_secs(8);
        let mut s = NtcpServer::new(
            "uiuc",
            SitePolicy::permissive("uiuc", ActionLimits::most_large_scale()),
            Box::new(plugin),
            Arc::clone(&clock),
        );
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        s.handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        // Clock = request arrival (1 s, the ctx time) + 8 s execution.
        assert_eq!(clock.now(), SimTime::from_secs(9));
    }

    #[test]
    fn status_counts_transactions() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("ok", 0.01, 1000.0))
            .unwrap();
        s.handle(&ctx(2), "execute", &json!({"transaction": "ok"}))
            .unwrap();
        s.handle(&ctx(3), "propose", &propose_body("bad", 0.9, 1000.0))
            .unwrap();
        let status = s.do_get_status();
        assert_eq!(status["transactions"], 2);
        assert_eq!(status["completed"], 1);
        assert_eq!(status["rejected"], 1);
        assert_eq!(status["site"], "uiuc");
    }

    #[test]
    fn most_recently_changed_tracks_latest_transaction() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        s.handle(&ctx(2), "propose", &propose_body("t2", 0.01, 1000.0))
            .unwrap();
        let mrc = s.sde().unwrap().most_recently_changed().unwrap();
        assert_eq!(mrc.name, "transaction/t2");
        s.handle(&ctx(3), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        let mrc = s.sde().unwrap().most_recently_changed().unwrap();
        assert_eq!(mrc.name, "transaction/t1");
    }

    #[test]
    fn failed_cancel_still_publishes_the_cancelled_sde() {
        let mut s = server_with(Box::new(RefusesNegativeCancel(sim_plugin())));
        s.handle(&ctx(1), "propose", &propose_body("t1", -0.01, 1000.0))
            .unwrap();
        let err = s
            .handle(&ctx(2), "cancel", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "CancelFailed");
        let doc = s
            .handle(&ctx(3), "getTransaction", &json!({"transaction": "t1"}))
            .unwrap();
        assert_eq!(doc["state"], "Cancelled");
        let el = s.sde().unwrap().get("transaction/t1").unwrap();
        assert_eq!(el.value, doc, "SDE agrees with getTransaction");
        assert_eq!(el.version, 2);
    }

    #[test]
    fn restore_renders_pending_sdes_from_the_replaced_transactions() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        let snap = snapshot_value(&s);
        // t2 changes after the snapshot and is not in it; its SDE must
        // keep the pre-restore state rather than lose it.
        s.handle(&ctx(2), "propose", &propose_body("t2", 0.01, 1000.0))
            .unwrap();
        s.restore_snapshot(&snap, SimTime::from_secs(2)).unwrap();
        let sde = s.sde().unwrap();
        assert_eq!(
            sde.get("transaction/t2").unwrap().value["state"],
            "Accepted"
        );
        let t1 = sde.get("transaction/t1").unwrap();
        assert_eq!(t1.value["state"], "Accepted");
        assert_eq!(t1.version, 2, "restore republishes every transaction");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One random protocol action.
        #[derive(Debug, Clone)]
        enum Op {
            Propose { tx: u8, d_mm: i8 },
            Execute { tx: u8 },
            Cancel { tx: u8 },
            Replay, // retransmit the previous request id verbatim
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u8..6, -80i8..80).prop_map(|(tx, d_mm)| Op::Propose { tx, d_mm }),
                (0u8..6).prop_map(|tx| Op::Execute { tx }),
                (0u8..6).prop_map(|tx| Op::Cancel { tx }),
                Just(Op::Replay),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn random_protocol_sequences_preserve_invariants(
                ops in proptest::collection::vec(op_strategy(), 1..40),
            ) {
                let mut s = server_with(Box::new(RefusesNegativeCancel(sim_plugin())));
                let mut request_id = 0u64;
                let mut last: Option<(u64, String, Value)> = None;
                let mut accepted_executes = 0u64;
                // SDE model: the state changes each request recorded per
                // transaction (one for the proposal's verdict, two for an
                // execute that ran, one for a cancel, failed or not), and
                // the last transaction one touched.
                let mut versions: BTreeMap<String, u64> = BTreeMap::new();
                let mut last_touched = "serverInfo".to_string();
                for op in ops {
                    let (name, changes) = match op {
                        Op::Propose { tx, d_mm } => {
                            request_id += 1;
                            let name = format!("tx-{tx}");
                            let body = propose_body(&name, d_mm as f64 * 1e-3, 1000.0);
                            let out = s.handle(&ctx(request_id), "propose", &body);
                            last = Some((request_id, "propose".into(), body));
                            (name, u64::from(out.is_ok()))
                        }
                        Op::Execute { tx } => {
                            request_id += 1;
                            let name = format!("tx-{tx}");
                            let body = json!({"transaction": name});
                            let out = s.handle(&ctx(request_id), "execute", &body);
                            if out.is_ok() {
                                accepted_executes += 1;
                            }
                            last = Some((request_id, "execute".into(), body));
                            let ran = match &out {
                                Ok(_) => true,
                                Err(f) => f.code == "ExecutionFailed",
                            };
                            (name, if ran { 2 } else { 0 })
                        }
                        Op::Cancel { tx } => {
                            request_id += 1;
                            let name = format!("tx-{tx}");
                            let body = json!({"transaction": name});
                            let out = s.handle(&ctx(request_id), "cancel", &body);
                            last = Some((request_id, "cancel".into(), body));
                            let cancelled = match &out {
                                Ok(_) => true,
                                Err(f) => f.code == "CancelFailed",
                            };
                            (name, u64::from(cancelled))
                        }
                        Op::Replay => {
                            // At-most-once: replaying the previous request
                            // must return the identical outcome and never
                            // re-execute.
                            if let Some((rid, op_name, body)) = &last {
                                let before = s.executions();
                                let replayed = s.handle(&ctx(*rid), op_name, body);
                                let again = s.handle(&ctx(*rid), op_name, body);
                                prop_assert_eq!(replayed, again);
                                prop_assert_eq!(s.executions(), before);
                            }
                            (String::new(), 0)
                        }
                    };
                    if changes > 0 {
                        *versions.entry(name.clone()).or_default() += changes;
                        last_touched = format!("transaction/{name}");
                    }
                    // Global invariant: the plugin ran exactly once per
                    // successful execute.
                    prop_assert_eq!(s.executions(), accepted_executes);
                    // Every transaction SDE, rendered on this read, is the
                    // transaction's getTransaction document at the version
                    // the model predicts.
                    let sde = s.sde().unwrap();
                    let mrc = sde.most_recently_changed().map(|el| el.name.clone());
                    let elements: Vec<_> =
                        sde.query("transaction/*").into_iter().cloned().collect();
                    prop_assert_eq!(mrc, Some(last_touched.clone()));
                    prop_assert_eq!(elements.len(), versions.len());
                    for el in elements {
                        let tx = el.name.strip_prefix("transaction/").unwrap();
                        let doc = s
                            .handle(&ctx(0), "getTransaction", &json!({"transaction": tx}))
                            .unwrap();
                        prop_assert_eq!(&el.value, &doc);
                        prop_assert_eq!(Some(el.version), versions.get(tx).copied());
                    }
                }
                // Every recorded transaction is in a coherent state with a
                // monotone timestamp trail.
                for el in s.sde().unwrap().query("transaction/*") {
                    let trail = el.value["timestamps"].as_array().unwrap();
                    prop_assert!(!trail.is_empty());
                    let times: Vec<u64> = trail
                        .iter()
                        .map(|t| t["at_ns"].as_u64().unwrap())
                        .collect();
                    prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
                    prop_assert_eq!(
                        trail.last().unwrap()["state"].as_str().unwrap(),
                        el.value["state"].as_str().unwrap()
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// At-most-once must hold *across* a checkpoint/restore
            /// boundary: a server rebuilt from a snapshot taken mid-run,
            /// handed any retransmission of a pre-snapshot request, must
            /// replay the recorded outcome — never re-execute — and then
            /// carry the rest of the run to the same result the
            /// uninterrupted server produced.
            #[test]
            fn at_most_once_holds_across_checkpoint_restore(
                amps in proptest::collection::vec(-70i8..70, 1..12),
                cut_seed in 0usize..1000,
            ) {
                // The uninterrupted run: propose + execute per amplitude,
                // snapshotting after request index `cut`.
                let mut plan: Vec<(u64, String, Value)> = Vec::new();
                for (i, amp) in amps.iter().enumerate() {
                    plan.push((
                        2 * i as u64 + 1,
                        "propose".into(),
                        propose_body(&format!("tx-{i}"), *amp as f64 * 1e-3, 1000.0),
                    ));
                    plan.push((
                        2 * i as u64 + 2,
                        "execute".into(),
                        json!({"transaction": format!("tx-{i}")}),
                    ));
                }
                let cut = cut_seed % plan.len();
                let mut s = server();
                let mut responses = Vec::new();
                let mut snap = None;
                for (i, (rid, op, body)) in plan.iter().enumerate() {
                    responses.push(answer(&mut s, *rid, op, body));
                    if i == cut {
                        snap = Some(s.snapshot());
                    }
                }

                // Crash, restart, restore. The restored server snapshots
                // to the very bytes it was restored from.
                let snap = snap.unwrap();
                let mut fresh = server();
                fresh
                    .restore_snapshot(&serde_json::from_str(&snap).unwrap(), SimTime::from_secs(1))
                    .unwrap();
                prop_assert_eq!(fresh.snapshot(), snap);
                let restored_executions = fresh.executions();

                // Any pre-snapshot request retransmitted after the restore
                // is deduplicated: the first answer's text, byte for byte,
                // and no re-execution.
                for i in 0..=cut {
                    let (rid, op, body) = &plan[i];
                    let replayed = answer(&mut fresh, *rid, op, body);
                    prop_assert_eq!(&replayed, &responses[i]);
                    prop_assert_eq!(fresh.executions(), restored_executions);
                }

                // The remainder of the run proceeds exactly as the
                // uninterrupted server's did.
                for i in cut + 1..plan.len() {
                    let (rid, op, body) = &plan[i];
                    let continued = answer(&mut fresh, *rid, op, body);
                    prop_assert_eq!(&continued, &responses[i]);
                }
                prop_assert_eq!(fresh.executions(), s.executions());
            }
        }
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_everything() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        let executed = s
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        s.handle(&ctx(3), "propose", &propose_body("t2", 0.005, 500.0))
            .unwrap();
        let snap = snapshot_value(&s);

        // A freshly constructed server restores to the identical state.
        let mut fresh = server();
        fresh
            .restore_snapshot(&snap, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(fresh.executions(), 1);
        // Retransmitting the pre-snapshot execute replays, not re-executes.
        let replay = fresh
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        assert_eq!(replay, executed);
        assert_eq!(fresh.executions(), 1);
        // The still-accepted transaction can proceed.
        fresh
            .handle(&ctx(4), "execute", &json!({"transaction": "t2"}))
            .unwrap();
        assert_eq!(fresh.executions(), 2);
        // Specimen state carried over: status mirrors the original.
        let status = fresh.do_get_status();
        assert_eq!(status["transactions"], 2);
    }

    #[test]
    fn restore_rejects_wrong_site() {
        let mut s = server();
        let mut snap = snapshot_value(&s);
        if let Value::Object(m) = &mut snap {
            m.insert("site".into(), json!("cu"));
        }
        let err = s.restore_snapshot(&snap, SimTime::ZERO).unwrap_err();
        assert_eq!(err.code, "SnapshotMismatch");
    }

    #[test]
    fn restore_rejects_missing_plugin_state_for_stateful_plugin() {
        let mut s = server();
        let mut snap = snapshot_value(&s);
        if let Value::Object(m) = &mut snap {
            m.insert("pluginState".into(), Value::Null);
        }
        let err = s.restore_snapshot(&snap, SimTime::ZERO).unwrap_err();
        assert_eq!(err.code, "BadSnapshot");
    }

    #[test]
    fn restore_refuses_a_state_document_without_its_dedup_cache_or_counter() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        let executed = s
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        let snap = snapshot_value(&s);
        let with = |key: &str, value: Option<Value>| {
            let mut doc = snap.clone();
            if let Value::Object(m) = &mut doc {
                match value {
                    Some(value) => m.insert(key.to_string(), value),
                    None => m.remove(key),
                };
            }
            doc
        };
        let entry = |outcome: Value| Some(json!([[2, outcome]]));
        let ok_doc = snap["dedup"][1][1]["ok"].clone();
        let fault = ServiceFault::permanent("X", "y");
        let malformed = [
            ("dedup mistyped", with("dedup", Some(json!(5)))),
            ("dedup missing", with("dedup", None)),
            ("executions missing", with("executions", None)),
            ("executions mistyped", with("executions", Some(json!("1")))),
            ("outcome empty", with("dedup", entry(json!({})))),
            (
                "outcome both",
                with("dedup", entry(json!({"ok": ok_doc, "fault": fault}))),
            ),
            ("outcome unknown", with("dedup", entry(json!({"okay": 1})))),
        ];
        for (case, doc) in malformed {
            let mut fresh = server();
            let err = fresh
                .restore_snapshot(&doc, SimTime::from_secs(2))
                .expect_err(case);
            assert_eq!(err.code, "BadSnapshot", "{case}: {err:?}");
        }
        // The intact document restores, and the retransmitted pre-snapshot
        // execute replays its remembered result.
        let mut fresh = server();
        fresh
            .restore_snapshot(&snap, SimTime::from_secs(2))
            .unwrap();
        let replay = fresh
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        assert_eq!(replay, executed);
        assert_eq!(fresh.executions(), 1);
    }

    #[test]
    fn unknown_transaction_faults() {
        let mut s = server();
        for op in ["execute", "cancel", "getTransaction"] {
            let err = s
                .handle(&ctx(99), op, &json!({"transaction": "ghost"}))
                .unwrap_err();
            assert_eq!(err.code, "NoSuchTransaction", "op {op}");
        }
    }
}
