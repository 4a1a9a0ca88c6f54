//! The generic NTCP server core.
//!
//! Implements the protocol-generic half of Figure 2: transaction state
//! management, site-policy enforcement, at-most-once request handling, and
//! OGSI service-data publication. Everything site-specific is delegated to
//! the [`ControlPlugin`].
//!
//! At-most-once is kept per client endpoint, in a window: the highest
//! mutating request id the client has sent and the reply to it. A
//! retransmission of that request replays the reply's bytes. Every client
//! has at most one mutating request outstanding per site, so a request
//! above the mark proves the client holds every earlier answer: the
//! server then retires the client's settled transactions, their SDEs and
//! the old reply, and answers anything later below the mark with a
//! `StaleRequest` fault, never executing it (DESIGN.md §6.2).
//!
//! Replies are text from the moment they are written:
//! [`GridService::respond`] writes each typed reply once into the
//! container's reply buffer, the window remembers and replays those
//! bytes, and a `snapshotSite` reply is written straight from the
//! server's state.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

use neesgrid_gridsim::{NodeId, SimClock, SimTime};
use neesgrid_gsi::SitePolicy;
use neesgrid_ogsi::{CallContext, GridService, ServiceData, ServiceFault};
use neesgrid_telemetry::{CounterHandle, Field, SpanId, Telemetry};

use crate::msg::{ControlPoint, ExecuteResponse, ProposalDecision, ProposeBody, TransactionRef};
use crate::plugin::ControlPlugin;
use crate::transaction::{Transaction, TxState};

/// A reply as a window remembers it: the document's text as it was
/// written, or the fault.
type Remembered = Result<Arc<str>, ServiceFault>;

/// One client endpoint's at-most-once window.
struct Window {
    /// The highest mutating request id seen from the client.
    mark: u64,
    /// The reply to the request at `mark`.
    reply: Remembered,
}

/// A transaction the server holds, and the client endpoint that proposed
/// it: the window whose advance retires it once it settles.
#[derive(Serialize, Deserialize)]
struct Held {
    client: NodeId,
    tx: Transaction,
}

/// Settled transactions retired so far, by final state: `getStatus`
/// counts every transaction the server ever held.
#[derive(Default, Serialize, Deserialize)]
struct Retired {
    cancelled: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
}

impl Retired {
    fn count(&mut self, state: TxState) {
        match state {
            TxState::Cancelled => self.cancelled += 1,
            TxState::Completed => self.completed += 1,
            TxState::Failed => self.failed += 1,
            _ => self.rejected += 1,
        }
    }

    fn total(&self) -> u64 {
        self.cancelled + self.completed + self.failed + self.rejected
    }
}

/// An NTCP server for one experiment site.
pub struct NtcpServer {
    site: String,
    // The site name as a shared str so per-request trace events clone a
    // refcount instead of the string.
    site_tag: std::sync::Arc<str>,
    policy: SitePolicy,
    plugin: Box<dyn ControlPlugin>,
    clock: Arc<SimClock>,
    transactions: BTreeMap<String, Held>,
    retired: Retired,
    windows: BTreeMap<NodeId, Window>,
    sde: ServiceData,
    /// The `transaction/{name}` SDE key being touched, kept so a touch
    /// writes the key into the same buffer every time.
    sde_key: String,
    executions: u64,
    telemetry: Telemetry,
    /// The registry's `ntcp.stale_refused{site}`.
    stale_refused: CounterHandle,
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
            retired: Retired::default(),
            windows: BTreeMap::new(),
            sde,
            sde_key: String::new(),
            executions: 0,
            telemetry: Telemetry::disabled(),
            stale_refused: CounterHandle::default(),
        }
    }

    /// Install a telemetry handle: mutating operations get an `ntcp`
    /// lifecycle span (propose / execute / cancel, stamped at the request's
    /// virtual arrival time), replays of a window's reply are annotated
    /// with an `ntcp/dedup_hit` instant event, and refusals below a mark
    /// bump `ntcp.stale_refused{site}`. Defaults to disabled.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.stale_refused =
            telemetry.lazy_counter(&format!("ntcp.stale_refused{{{}}}", self.site));
        self.telemetry = telemetry;
    }

    /// Number of plugin executions performed (at-most-once verification).
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Requests refused because their client's mark had passed them.
    pub fn stale_refused(&self) -> u64 {
        self.stale_refused.get()
    }

    /// Engage or release the site's emergency stop (§4: the facility's
    /// unconditional right to terminate its local experiment).
    pub fn set_emergency_stop(&mut self, engaged: bool) {
        self.policy.emergency_stop = engaged;
    }

    /// Record a change to transaction `name` in its SDE. The value is
    /// rendered from the transaction when something reads it (see
    /// [`GridService::sde`]).
    fn publish(&mut self, name: &str, now: SimTime) {
        if let Some(held) = self.transactions.get(name) {
            touch_sde(&mut self.sde, &mut self.sde_key, &held.tx, now);
        }
    }

    /// Render every transaction SDE changed since the last read.
    fn render_sdes(&mut self) {
        let transactions = &self.transactions;
        self.sde.refresh(|element| {
            let name = element.strip_prefix("transaction/")?;
            transactions.get(name).map(|held| held.tx.to_sde_value())
        });
    }

    /// Retire `client`'s settled transactions and their SDEs: its request
    /// above the mark proves it holds every answer about them.
    fn retire(&mut self, client: &NodeId) {
        let before = self.transactions.len();
        let retired = &mut self.retired;
        self.transactions.retain(|_, held| {
            let settled = held.client == *client && held.tx.state.is_terminal();
            if settled {
                retired.count(held.tx.state);
            }
            !settled
        });
        if self.transactions.len() < before {
            let transactions = &self.transactions;
            self.sde.retain(|element| {
                element
                    .strip_prefix("transaction/")
                    .is_none_or(|name| transactions.contains_key(name))
            });
        }
    }

    /// A transaction by name, or `NoSuchTransaction`.
    fn held(&mut self, name: &str) -> Result<&mut Transaction, ServiceFault> {
        self.transactions
            .get_mut(name)
            .map(|held| &mut held.tx)
            .ok_or_else(|| {
                ServiceFault::permanent("NoSuchTransaction", format!("no transaction '{name}'"))
            })
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
        let held = self.transactions.entry(tx.name.clone()).or_insert(Held {
            client: ctx.client.clone(),
            tx,
        });
        touch_sde(&mut self.sde, &mut self.sde_key, &held.tx, ctx.now);
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
            let tx = self.held(&req.transaction)?;
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
                let tx = self.held(&req.transaction)?;
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
                let tx = self.held(&req.transaction)?;
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
            let tx = self.held(&req.transaction)?;
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
        Ok(self.held(&req.transaction)?.to_sde_value())
    }

    /// The server's full protocol + backend state for a checkpoint, as the
    /// JSON text a `snapshotSite` reply carries: the transactions it still
    /// holds, the retired counts, every client's window (so a pre-crash
    /// retransmission is still replayed or refused, never re-executed,
    /// after resume), the execution counter, and the plugin's specimen
    /// state (if the backend supports snapshots).
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        self.write_snapshot(&mut out);
        out
    }

    /// Write the state document straight from the server, members in
    /// sorted key order. Each window's reply is copied verbatim inside
    /// `{"ok":…}`.
    fn write_snapshot(&self, out: &mut String) {
        out.push_str("{\"executions\":");
        self.executions.write_json(out);
        out.push_str(",\"plugin\":");
        self.plugin.name().write_json(out);
        out.push_str(",\"pluginState\":");
        self.plugin.state().write_json(out);
        out.push_str(",\"retired\":");
        self.retired.write_json(out);
        out.push_str(",\"site\":");
        self.site.write_json(out);
        out.push_str(",\"transactions\":");
        self.transactions.write_json(out);
        out.push_str(",\"windows\":{");
        for (i, (client, window)) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            client.write_json(out);
            out.push_str(":{\"mark\":");
            window.mark.write_json(out);
            match &window.reply {
                Ok(text) => {
                    out.push_str(",\"reply\":{\"ok\":");
                    out.push_str(text);
                }
                Err(fault) => {
                    out.push_str(",\"reply\":{\"fault\":");
                    fault.write_json(out);
                }
            }
            out.push_str("}}");
        }
        out.push_str("}}");
    }

    /// Restore state captured by [`NtcpServer::snapshot`]. Protocol state
    /// (transactions, windows, counters) always restores; plugin state is
    /// restored when the snapshot carries any — a snapshot with
    /// `pluginState: null` against a plugin that *does* hold state is
    /// refused, because resuming would silently diverge. A snapshot
    /// without its windows, retired counts or execution counter is
    /// refused too: a server restored without its windows would answer a
    /// retransmission it once answered, or a late duplicate it refused, as
    /// a new request.
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
        let bad = |what: &str| ServiceFault::permanent("BadSnapshot", what.to_string());
        let transactions = BTreeMap::<String, Held>::deserialize(&snap["transactions"])
            .map_err(|e| bad(&format!("transactions: {e}")))?;
        let retired =
            Retired::deserialize(&snap["retired"]).map_err(|e| bad(&format!("retired: {e}")))?;
        let mut windows = BTreeMap::new();
        let documents = snap["windows"]
            .as_object()
            .ok_or_else(|| bad("windows: expected an object"))?;
        for (client, window) in documents {
            let mark = window["mark"]
                .as_u64()
                .ok_or_else(|| bad("windows: mark: expected an unsigned integer"))?;
            let reply = remembered_reply(&window["reply"])?;
            windows.insert(NodeId::new(client), Window { mark, reply });
        }
        let executions = snap["executions"]
            .as_u64()
            .ok_or_else(|| bad("executions: expected an unsigned integer"))?;
        match &snap["pluginState"] {
            Value::Null => {
                if self.plugin.state().is_some() {
                    return Err(bad(&format!(
                        "snapshot has no state for stateful plugin '{}'",
                        self.plugin.name()
                    )));
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
        self.retired = retired;
        self.windows = windows;
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

    /// Counts over every transaction the server ever held: the retired
    /// ones by their final state, and those it still holds.
    fn do_get_status(&self) -> Value {
        let by_state = |s: TxState| {
            self.transactions
                .values()
                .filter(|held| held.tx.state == s)
                .count() as u64
        };
        let retired = &self.retired;
        json!({
            "site": self.site,
            "plugin": self.plugin.name(),
            "transactions": retired.total() + self.transactions.len() as u64,
            "completed": retired.completed + by_state(TxState::Completed),
            "rejected": retired.rejected + by_state(TxState::Rejected),
            "failed": retired.failed + by_state(TxState::Failed),
            "cancelled": retired.cancelled + by_state(TxState::Cancelled),
            "executions": self.executions,
            "emergency_stop": self.policy.emergency_stop,
        })
    }
}

/// Record a change to `tx` in its SDE (see [`NtcpServer::publish`]),
/// writing the element's name into `key`.
fn touch_sde(sde: &mut ServiceData, key: &mut String, tx: &Transaction, now: SimTime) {
    key.clear();
    key.push_str("transaction/");
    key.push_str(&tx.name);
    sde.touch(key, now);
}

/// A snapshot window's reply: exactly one of `ok`, whose document is
/// rendered back to the text it was written as (the shim re-renders a
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
            .map_err(|e| ServiceFault::permanent("BadSnapshot", format!("window fault: {e}"))),
        _ => Err(ServiceFault::permanent(
            "BadSnapshot",
            "window reply: expected exactly one of ok and fault",
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
        // At-most-once covers the mutating operations. Reads are
        // idempotent and skip the window, as does restoreSite — it
        // *replaces* the windows, so remembering it there is circular,
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
        if let Some(window) = self.windows.get(&ctx.client) {
            match ctx.request_id.cmp(&window.mark) {
                // A retransmission of the client's latest request: replay.
                std::cmp::Ordering::Equal => {
                    let remembered = window.reply.clone();
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
                // The client has moved past this request: a late duplicate.
                std::cmp::Ordering::Less => {
                    self.stale_refused.add(1);
                    return Err(ServiceFault::permanent(
                        "StaleRequest",
                        format!(
                            "request {} from {} is below its mark {}",
                            ctx.request_id, ctx.client, window.mark
                        ),
                    ));
                }
                std::cmp::Ordering::Greater => self.retire(&ctx.client),
            }
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
        let window = Window {
            mark: ctx.request_id,
            reply: remembered.clone(),
        };
        self.windows.insert(ctx.client.clone(), window);
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
            client: NodeId::new("coordinator"),
            now: SimTime::from_secs(1),
            request_id,
        }
    }

    /// `ctx` for a second client endpoint calling under the same DN.
    fn backup(request_id: u64) -> CallContext {
        CallContext {
            client: NodeId::new("backup"),
            ..ctx(request_id)
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
        // The rejected transaction cannot be executed: the client's next
        // request retires it, settled, before it runs.
        let err = s
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "NoSuchTransaction");
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
        // A *new* execute request (different id) is not a replay: it
        // proves the client holds the completed answer, so the settled
        // transaction is retired and the request finds nothing to run.
        let err = s
            .handle(&ctx(3), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "NoSuchTransaction");
        assert_eq!(s.executions(), 1);
        // That answer is the window's now; the retired one is refused.
        let again = s
            .handle(&ctx(3), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(again, err);
        let late = s
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(late.code, "StaleRequest");
        assert_eq!(s.executions(), 1);
    }

    #[test]
    fn late_duplicates_of_a_retired_transaction_are_refused_counted_and_never_run() {
        let telemetry = neesgrid_telemetry::Telemetry::recording();
        let mut s = server();
        s.set_telemetry(telemetry.clone());
        let t1 = propose_body("t1", 0.01, 1000.0);
        let t1_ref = json!({"transaction": "t1"});
        answer(&mut s, 1, "propose", &t1).unwrap();
        answer(&mut s, 2, "execute", &t1_ref).unwrap();
        // The next step's proposal retires t1, its SDE and its reply.
        answer(&mut s, 3, "propose", &propose_body("t2", 0.01, 1000.0)).unwrap();
        assert!(s.sde().unwrap().get("transaction/t1").is_none());
        let check = |s: &mut NtcpServer, refused: u64| {
            for (rid, op, body) in [(1, "propose", &t1), (2, "execute", &t1_ref)] {
                let err = answer(s, rid, op, body).unwrap_err();
                assert_eq!(err.code, "StaleRequest", "{op}");
            }
            assert_eq!(s.executions(), 1, "never executed again");
            assert_eq!(s.stale_refused(), refused);
            let err = answer(s, 4, "execute", &t1_ref).unwrap_err();
            assert_eq!(err.code, "NoSuchTransaction", "t1 stays retired");
        };
        check(&mut s, 2);
        let counters = telemetry.metrics_snapshot().counters;
        assert!(counters.contains(&("ntcp.stale_refused{uiuc}".to_string(), 2)));
        // The same after a snapshot and restore into a fresh server.
        let snap = snapshot_value(&s);
        let mut fresh = server();
        fresh
            .restore_snapshot(&snap, SimTime::from_secs(2))
            .unwrap();
        check(&mut fresh, 2);
        // Another client's window is its own: its id 1 is a new request.
        let mut reply = String::new();
        let body = propose_body("b1", 0.01, 1.0);
        fresh
            .respond(&backup(1), "propose", &body, &mut reply)
            .unwrap();
        assert_eq!(reply, r#"{"decision":"Accepted"}"#);
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
        // Another client still finds it cancelled; the owner's next request
        // retires it.
        let err = s
            .handle(&backup(1), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "InvalidState");
        let err = s
            .handle(&ctx(3), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "NoSuchTransaction");
        assert_eq!(s.executions(), 0);
    }

    #[test]
    fn cancel_after_completion_is_invalid() {
        let mut s = server();
        s.handle(&ctx(1), "propose", &propose_body("t1", 0.01, 1000.0))
            .unwrap();
        s.handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        // Until its owner moves on, the completed transaction is held, and
        // cancelling it is a state error.
        let err = s
            .handle(&backup(1), "cancel", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "InvalidState");
        // The owner's next request retires it: nothing is left to cancel.
        let err = s
            .handle(&ctx(3), "cancel", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(err.code, "NoSuchTransaction");
        assert_eq!(s.executions(), 1);
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
        // "ok" is retired by now, "bad" is still held: the counts cover
        // both, and retiring "bad" (request 4) changes none of them.
        assert!(s.sde().unwrap().get("transaction/ok").is_none());
        let status = s.do_get_status();
        assert_eq!(status["transactions"], 2);
        assert_eq!(status["completed"], 1);
        assert_eq!(status["rejected"], 1);
        assert_eq!(status["site"], "uiuc");
        s.handle(&ctx(4), "propose", &propose_body("next", 0.01, 1000.0))
            .unwrap();
        assert!(s.sde().unwrap().get("transaction/bad").is_none());
        let after = s.do_get_status();
        assert_eq!(after["transactions"], 3);
        for key in ["completed", "rejected", "failed", "cancelled", "executions"] {
            assert_eq!(after[key], status[key], "{key}");
        }
        // A restored server counts the same.
        let mut fresh = server();
        fresh
            .restore_snapshot(&snapshot_value(&s), SimTime::from_secs(2))
            .unwrap();
        assert_eq!(fresh.do_get_status(), after);
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
            Replay,            // retransmit the previous request id verbatim
            Late { back: u8 }, // a late duplicate of an earlier request
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u8..6, -80i8..80).prop_map(|(tx, d_mm)| Op::Propose { tx, d_mm }),
                (0u8..6).prop_map(|tx| Op::Execute { tx }),
                (0u8..6).prop_map(|tx| Op::Cancel { tx }),
                Just(Op::Replay),
                any::<u8>().prop_map(|back| Op::Late { back }),
            ]
        }

        /// What the model knows of a transaction the server holds: the
        /// state changes recorded in its SDE, and whether it settled.
        #[derive(Default)]
        struct Model {
            version: u64,
            settled: bool,
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn random_protocol_sequences_preserve_invariants(
                ops in proptest::collection::vec(op_strategy(), 1..40),
            ) {
                let mut s = server_with(Box::new(RefusesNegativeCancel(sim_plugin())));
                let mut sent: Vec<(u64, String, Value)> = Vec::new();
                let mut accepted_executes = 0u64;
                // SDE model: the state changes each request recorded per
                // held transaction (one for the proposal's verdict, two for
                // an execute that ran, one for a cancel, failed or not),
                // and the last element one touched, while it is held.
                let mut held: BTreeMap<String, Model> = BTreeMap::new();
                let mut last_touched = Some("serverInfo".to_string());
                for op in ops {
                    let request = match op {
                        Op::Propose { tx, d_mm } => Some((
                            format!("tx-{tx}"),
                            "propose",
                            propose_body(&format!("tx-{tx}"), d_mm as f64 * 1e-3, 1000.0),
                        )),
                        Op::Execute { tx } => Some((
                            format!("tx-{tx}"),
                            "execute",
                            json!({"transaction": format!("tx-{tx}")}),
                        )),
                        Op::Cancel { tx } => Some((
                            format!("tx-{tx}"),
                            "cancel",
                            json!({"transaction": format!("tx-{tx}")}),
                        )),
                        Op::Replay => {
                            // At-most-once: replaying the previous request
                            // must return the identical outcome and never
                            // re-execute.
                            if let Some((rid, op_name, body)) = sent.last() {
                                let before = s.executions();
                                let replayed = s.handle(&ctx(*rid), op_name, body);
                                let again = s.handle(&ctx(*rid), op_name, body);
                                prop_assert_eq!(replayed, again);
                                prop_assert_eq!(s.executions(), before);
                            }
                            None
                        }
                        Op::Late { back } => {
                            // Anything before the previous request is below
                            // the mark: refused, never run.
                            if sent.len() > 1 {
                                let (rid, op_name, body) = &sent[usize::from(back) % (sent.len() - 1)];
                                let before = s.executions();
                                let err = s.handle(&ctx(*rid), op_name, body).unwrap_err();
                                prop_assert_eq!(err.code.as_str(), "StaleRequest");
                                prop_assert_eq!(s.executions(), before);
                            }
                            None
                        }
                    };
                    if let Some((name, op_name, body)) = request {
                        // A new request id retires every settled
                        // transaction (there is one client).
                        held.retain(|_, model| !model.settled);
                        if last_touched
                            .as_deref()
                            .and_then(|el| el.strip_prefix("transaction/"))
                            .is_some_and(|tx| !held.contains_key(tx))
                        {
                            last_touched = None;
                        }
                        let rid = sent.len() as u64 + 1;
                        let out = s.handle(&ctx(rid), op_name, &body);
                        sent.push((rid, op_name.to_string(), body));
                        let code = out.as_ref().err().map(|f| f.code.as_str());
                        let (changes, settles) = match op_name {
                            "propose" => match &out {
                                Ok(doc) => (1, doc["decision"] != json!("Accepted")),
                                Err(_) => (0, false),
                            },
                            "execute" => {
                                if out.is_ok() {
                                    accepted_executes += 1;
                                }
                                let ran = out.is_ok() || code == Some("ExecutionFailed");
                                (if ran { 2 } else { 0 }, ran)
                            }
                            _ => {
                                let cancelled = out.is_ok() || code == Some("CancelFailed");
                                (u64::from(cancelled), cancelled)
                            }
                        };
                        if changes > 0 {
                            let model = held.entry(name.clone()).or_default();
                            model.version += changes;
                            model.settled |= settles;
                            last_touched = Some(format!("transaction/{name}"));
                        }
                    }
                    // Global invariant: the plugin ran exactly once per
                    // successful execute.
                    prop_assert_eq!(s.executions(), accepted_executes);
                    // Every held transaction's SDE, rendered on this read,
                    // is its getTransaction document at the version the
                    // model predicts; retired ones have none.
                    let sde = s.sde().unwrap();
                    let mrc = sde.most_recently_changed().map(|el| el.name.clone());
                    let elements: Vec<_> =
                        sde.query("transaction/*").into_iter().cloned().collect();
                    prop_assert_eq!(mrc, last_touched.clone());
                    prop_assert_eq!(elements.len(), held.len());
                    for el in elements {
                        let tx = el.name.strip_prefix("transaction/").unwrap();
                        let doc = s
                            .handle(&ctx(0), "getTransaction", &json!({"transaction": tx}))
                            .unwrap();
                        prop_assert_eq!(&el.value, &doc);
                        prop_assert_eq!(Some(el.version), held.get(tx).map(|m| m.version));
                    }
                }
                // Every held transaction is in a coherent state with a
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
            /// replay the recorded outcome of the latest one and refuse
            /// the earlier ones — never re-execute — and then carry the
            /// rest of the run to the same result the uninterrupted
            /// server produced.
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
                // is answered without running: the latest with its first
                // answer's text, byte for byte, the earlier ones with a
                // refusal.
                for i in 0..=cut {
                    let (rid, op, body) = &plan[i];
                    let replayed = answer(&mut fresh, *rid, op, body);
                    if i == cut {
                        prop_assert_eq!(&replayed, &responses[i]);
                    } else {
                        prop_assert_eq!(replayed.unwrap_err().code, "StaleRequest");
                    }
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
        s.handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap();
        let proposed = answer(&mut s, 3, "propose", &propose_body("t2", 0.005, 500.0));
        let snap = snapshot_value(&s);

        // A freshly constructed server restores to the identical state.
        let mut fresh = server();
        fresh
            .restore_snapshot(&snap, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(fresh.executions(), 1);
        // Retransmitting the pre-snapshot proposal replays it; the execute
        // before it is refused, not re-executed.
        let replay = answer(&mut fresh, 3, "propose", &propose_body("t2", 0.005, 500.0));
        assert_eq!(replay, proposed);
        let late = fresh
            .handle(&ctx(2), "execute", &json!({"transaction": "t1"}))
            .unwrap_err();
        assert_eq!(late.code, "StaleRequest");
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
        let window = |reply: Value| Some(json!({"coordinator": {"mark": 2, "reply": reply}}));
        let ok_doc = snap["windows"]["coordinator"]["reply"]["ok"].clone();
        let fault = ServiceFault::permanent("X", "y");
        let malformed = [
            ("windows mistyped", with("windows", Some(json!([])))),
            ("windows missing", with("windows", None)),
            (
                "mark missing",
                with(
                    "windows",
                    Some(json!({"coordinator": {"reply": {"ok": 1}}})),
                ),
            ),
            ("retired missing", with("retired", None)),
            ("retired mistyped", with("retired", Some(json!(3)))),
            ("executions missing", with("executions", None)),
            ("executions mistyped", with("executions", Some(json!("1")))),
            ("reply empty", with("windows", window(json!({})))),
            (
                "reply both",
                with("windows", window(json!({"ok": ok_doc, "fault": fault}))),
            ),
            ("reply unknown", with("windows", window(json!({"okay": 1})))),
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
