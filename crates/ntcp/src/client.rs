//! Typed NTCP client.
//!
//! Wraps the generic RPC client with the protocol's operations and error
//! taxonomy. The retry behaviour (how many retransmissions, whether a link
//! reset is retried) is the *caller's* policy — the paper's §3.4 post-
//! mortem is precisely about a coordinator that configured this
//! incompletely, so the knob is exposed rather than hidden.

use serde::de::{Deserialize, Deserializer, Error as _, MapAccess, Token};
use serde_json::{json, RawValue};

use neesgrid_gridsim::SimTime;
use neesgrid_ogsi::{wait_all, RpcClient, RpcCompletion, RpcError, RpcReply};

use crate::msg::{
    ControlPoint, ControlPointResult, ExecuteResponse, ProposalDecision, ProposeBody, RestoreBody,
    TransactionRef,
};

/// Errors surfaced to NTCP callers.
#[derive(Debug, Clone, PartialEq)]
pub enum NtcpError {
    /// The proposal was rejected by policy or plugin review.
    Rejected {
        /// Server-provided reason.
        reason: String,
    },
    /// Transport-level failure (timeout / reset / no-route).
    Transport(RpcError),
    /// The server returned a protocol fault (bad state, unknown
    /// transaction, execution failure…).
    Fault {
        /// Fault code.
        code: String,
        /// Fault detail.
        message: String,
        /// Whether the server marked it retryable.
        retryable: bool,
    },
    /// The response decoded to something unexpected.
    BadResponse(String),
}

impl std::fmt::Display for NtcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NtcpError::Rejected { reason } => write!(f, "proposal rejected: {reason}"),
            NtcpError::Transport(e) => write!(f, "transport: {e}"),
            NtcpError::Fault { code, message, .. } => write!(f, "fault [{code}]: {message}"),
            NtcpError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for NtcpError {}

impl From<RpcError> for NtcpError {
    fn from(e: RpcError) -> Self {
        match e {
            RpcError::Fault(fault) => NtcpError::Fault {
                code: fault.code,
                message: fault.message,
                retryable: fault.retryable,
            },
            other => NtcpError::Transport(other),
        }
    }
}

/// A `propose` reply's `decision`, read the way indexing a `Value` reads
/// it: a reply that is not an object, or has no `decision` key, reads the
/// decision from `null`. An error is the decision's own.
struct DecisionOf(ProposalDecision);

impl<'de> Deserialize<'de> for DecisionOf {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut decision = None;
        if let Token::Object(mut map) = d.token()? {
            while let Some(key) = map.next_key()? {
                if key == "decision" {
                    decision = Some(map.next_value()?);
                } else {
                    map.skip_value()?;
                }
            }
        }
        match decision {
            Some(decided) => decided,
            None => {
                ProposalDecision::deserialize(&serde_json::Value::Null).map_err(D::Error::custom)
            }
        }
        .map(DecisionOf)
    }
}

/// A client bound to one remote NTCP server.
#[derive(Clone)]
pub struct NtcpClient {
    rpc: RpcClient,
    retransmissions: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl NtcpClient {
    /// Wrap an RPC client already bound to the site's `ntcp` service.
    pub fn new(rpc: RpcClient) -> Self {
        NtcpClient {
            rpc,
            retransmissions: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// The underlying RPC client (for policy/timeout adjustment).
    pub fn rpc(&self) -> &RpcClient {
        &self.rpc
    }

    /// Transport-level retransmissions observed on successful calls —
    /// the §3.4 "transient network failures … recovered" counter.
    /// Shared across clones of this client.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Rebind with a different transport retry policy, keeping the shared
    /// retransmission counter.
    pub fn with_rpc_policy(mut self, policy: neesgrid_ogsi::RetryPolicy) -> Self {
        self.rpc = self.rpc.with_policy(policy);
        self
    }

    fn note_attempts(&self, attempts: u32) {
        if attempts > 1 {
            self.retransmissions
                .fetch_add((attempts - 1) as u64, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn finish_propose(&self, reply: Result<RpcReply, RpcError>) -> Result<(), NtcpError> {
        let reply = reply?;
        self.note_attempts(reply.attempts);
        let DecisionOf(decision) = reply
            .decode()
            .map_err(|e| NtcpError::BadResponse(format!("decision: {e}")))?;
        match decision {
            ProposalDecision::Accepted => Ok(()),
            ProposalDecision::Rejected { reason } => Err(NtcpError::Rejected { reason }),
        }
    }

    fn finish_execute(
        &self,
        reply: Result<RpcReply, RpcError>,
    ) -> Result<Vec<ControlPointResult>, NtcpError> {
        let reply = reply?;
        self.note_attempts(reply.attempts);
        let resp: ExecuteResponse = reply
            .decode()
            .map_err(|e| NtcpError::BadResponse(format!("execute response: {e}")))?;
        Ok(resp.results)
    }

    /// Propose a transaction. `Ok(())` means accepted; a rejection is the
    /// [`NtcpError::Rejected`] variant.
    pub fn propose(
        &self,
        transaction: &str,
        actions: Vec<ControlPoint>,
        timeout: SimTime,
    ) -> Result<(), NtcpError> {
        let body = propose_body(transaction, actions, timeout);
        self.finish_propose(self.rpc.call("propose", body))
    }

    /// Execute an accepted transaction, returning measured results.
    pub fn execute(&self, transaction: &str) -> Result<Vec<ControlPointResult>, NtcpError> {
        self.finish_execute(self.rpc.call("execute", tx_ref(transaction)))
    }

    /// Propose one transaction per site, multiplexed on the calling thread:
    /// all requests go out before any reply is awaited, and the shared event
    /// engine is pumped once for the whole batch. Results come back in
    /// batch order.
    pub fn propose_all<'a>(
        batch: impl IntoIterator<Item = (&'a NtcpClient, &'a str, Vec<ControlPoint>, SimTime)>,
    ) -> Vec<Result<(), NtcpError>> {
        let (clients, completions): (Vec<&NtcpClient>, Vec<RpcCompletion>) = batch
            .into_iter()
            .map(|(client, tx, actions, timeout)| {
                let body = propose_body(tx, actions, timeout);
                (client, client.rpc.call_async("propose", body))
            })
            .unzip();
        clients
            .into_iter()
            .zip(wait_all(completions))
            .map(|(client, reply)| client.finish_propose(reply))
            .collect()
    }

    /// Execute one accepted transaction per site, multiplexed on the calling
    /// thread (see [`NtcpClient::propose_all`]).
    pub fn execute_all<'a>(
        batch: impl IntoIterator<Item = (&'a NtcpClient, &'a str)>,
    ) -> Vec<Result<Vec<ControlPointResult>, NtcpError>> {
        let (clients, completions): (Vec<&NtcpClient>, Vec<RpcCompletion>) = batch
            .into_iter()
            .map(|(client, tx)| (client, client.rpc.call_async("execute", tx_ref(tx))))
            .unzip();
        clients
            .into_iter()
            .zip(wait_all(completions))
            .map(|(client, reply)| client.finish_execute(reply))
            .collect()
    }

    /// Cancel accepted-but-unexecuted transactions on many sites at once,
    /// multiplexed on the calling thread. Used by the coordinator to back
    /// out a partially accepted step.
    pub fn cancel_all<'a>(
        batch: impl IntoIterator<Item = (&'a NtcpClient, &'a str)>,
    ) -> Vec<Result<(), NtcpError>> {
        let (clients, completions): (Vec<&NtcpClient>, Vec<RpcCompletion>) = batch
            .into_iter()
            .map(|(client, tx)| (client, client.rpc.call_async("cancel", tx_ref(tx))))
            .unzip();
        clients
            .into_iter()
            .zip(wait_all(completions))
            .map(|(client, reply)| {
                let reply = reply?;
                client.note_attempts(reply.attempts);
                Ok(())
            })
            .collect()
    }

    /// Cancel an accepted-but-unexecuted transaction.
    pub fn cancel(&self, transaction: &str) -> Result<(), NtcpError> {
        self.rpc.call("cancel", tx_ref(transaction))?;
        Ok(())
    }

    /// Fetch a transaction's service data document.
    pub fn get_transaction(&self, transaction: &str) -> Result<serde_json::Value, NtcpError> {
        Ok(self
            .rpc
            .call("getTransaction", tx_ref(transaction))?
            .value())
    }

    /// Fetch server status.
    pub fn get_status(&self) -> Result<serde_json::Value, NtcpError> {
        Ok(self.rpc.call("getStatus", json!({}))?.value())
    }

    /// Read the site's full checkpointable state (protocol + specimen), as
    /// the checked JSON text the server replied with.
    pub fn snapshot_site(&self) -> Result<RawValue, NtcpError> {
        Ok(self.rpc.call("snapshotSite", json!({}))?.into_body())
    }

    /// Push a previously captured site snapshot back onto the server
    /// (crash-recovery restore).
    pub fn restore_site(&self, snapshot: &RawValue) -> Result<(), NtcpError> {
        self.rpc.call("restoreSite", RestoreBody { snapshot })?;
        Ok(())
    }
}

/// The body of `propose`.
fn propose_body(transaction: &str, actions: Vec<ControlPoint>, timeout: SimTime) -> ProposeBody {
    ProposeBody {
        transaction: transaction.to_string(),
        actions,
        timeout,
    }
}

/// The body of `execute`, `cancel` and `getTransaction`.
fn tx_ref(transaction: &str) -> TransactionRef {
    TransactionRef {
        transaction: transaction.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::SimulationPlugin;
    use crate::server::NtcpServer;
    use neesgrid_gridsim::{FaultPlan, LinkKey, NetworkConfig, NodeId, VirtualNetwork};
    use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
    use neesgrid_ogsi::{RetryPolicy, RpcMux, ServiceContainer};
    use neesgrid_structsim::{LinearElastic, SimulatedSubstructure};
    use std::time::Duration;

    fn start_site(net: &VirtualNetwork, name: &str, k: f64) -> NtcpClient {
        let plugin = SimulationPlugin::new(
            format!("{name}-sim"),
            Box::new(SimulatedSubstructure::spring_to_ground(
                "col",
                Box::new(LinearElastic::new(k)),
            )),
        );
        let server = NtcpServer::new(
            name,
            SitePolicy::permissive(name, ActionLimits::most_large_scale()),
            Box::new(plugin),
            net.clock(),
        );
        let container = ServiceContainer::new(net.endpoint(name).unwrap())
            .with_service("ntcp", Box::new(server))
            .permissive();
        let _handle = container.attach();
        let mux = RpcMux::new(net.endpoint(format!("client-{name}")).unwrap());
        NtcpClient::new(
            RpcClient::new(
                mux,
                NodeId::new(name),
                "ntcp",
                DistinguishedName::nees_user("NCSA", "Coordinator"),
            )
            .with_attempt_timeout(Duration::from_millis(80)),
        )
    }

    #[test]
    fn end_to_end_propose_execute() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let client = start_site(&net, "uiuc", 2.0e5);
        client
            .propose(
                "step-1",
                vec![ControlPoint::displacement("dof-0", 0.002, 500.0)],
                SimTime::from_secs(30),
            )
            .unwrap();
        let results = client.execute("step-1").unwrap();
        assert!((results[0].force_n - 400.0).abs() < 1e-9);
    }

    #[test]
    fn rejection_is_typed() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let client = start_site(&net, "uiuc", 2.0e5);
        let err = client
            .propose(
                "step-1",
                vec![ControlPoint::displacement("dof-0", 0.5, 500.0)],
                SimTime::from_secs(30),
            )
            .unwrap_err();
        assert!(matches!(err, NtcpError::Rejected { reason } if reason.contains("displacement")));
    }

    #[test]
    fn retransmission_does_not_double_execute() {
        // Drop the first execute *reply*; the client retries; the plugin
        // must run exactly once. This is §2.1's at-most-once guarantee
        // observed end-to-end through a lossy network.
        let net = VirtualNetwork::new(NetworkConfig::default());
        let client = start_site(&net, "uiuc", 2.0e5);
        client
            .propose(
                "step-1",
                vec![ControlPoint::displacement("dof-0", 0.002, 500.0)],
                SimTime::from_secs(30),
            )
            .unwrap();
        let mut plan = FaultPlan::reliable();
        // Link uiuc → client-uiuc: message 0 was the propose reply, so the
        // execute reply is message 1.
        plan.drop_at(LinkKey::new("uiuc", "client-uiuc"), 1);
        net.set_fault_plan(plan);
        let results = client.execute("step-1").unwrap();
        assert!((results[0].force_n - 400.0).abs() < 1e-9);
        let status = client.get_status().unwrap();
        assert_eq!(status["executions"], 1, "exactly-once despite retry");
        assert_eq!(status["completed"], 1);
    }

    #[test]
    fn cancel_roundtrip() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let client = start_site(&net, "uiuc", 2.0e5);
        client
            .propose(
                "step-1",
                vec![ControlPoint::displacement("dof-0", 0.002, 500.0)],
                SimTime::from_secs(30),
            )
            .unwrap();
        client.cancel("step-1").unwrap();
        let err = client.execute("step-1").unwrap_err();
        assert!(matches!(err, NtcpError::Fault { code, .. } if code == "InvalidState"));
    }

    #[test]
    fn transaction_inspection_via_ogsi() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let client = start_site(&net, "uiuc", 2.0e5);
        client
            .propose(
                "step-1",
                vec![ControlPoint::displacement("dof-0", 0.002, 500.0)],
                SimTime::from_secs(30),
            )
            .unwrap();
        let doc = client.get_transaction("step-1").unwrap();
        assert_eq!(doc["state"], "Accepted");
        // Generic OGSI query over the same server.
        let out = client
            .rpc()
            .call_value("ogsi:query", json!({"pattern": "transaction/*"}))
            .unwrap();
        assert_eq!(out["elements"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn ogsi_query_right_after_execute_returns_the_completed_document() {
        // Transaction SDEs are rendered when read: the query that follows
        // an execute must render the change the execute just recorded.
        let net = VirtualNetwork::new(NetworkConfig::default());
        let client = start_site(&net, "uiuc", 2.0e5);
        client
            .propose(
                "step-1",
                vec![ControlPoint::displacement("dof-0", 0.002, 500.0)],
                SimTime::from_secs(30),
            )
            .unwrap();
        client.execute("step-1").unwrap();
        let out = client
            .rpc()
            .call_value("ogsi:query", json!({"pattern": "transaction/*"}))
            .unwrap();
        let element = &out["elements"][0];
        assert_eq!(element["value"]["state"], "Completed");
        assert_eq!(element["value"], client.get_transaction("step-1").unwrap());
        // Accepted at propose, then Executing and Completed.
        assert_eq!(element["version"], 3);
        let mrc = client
            .rpc()
            .call_value("ogsi:mostRecentlyChanged", serde_json::Value::Null)
            .unwrap();
        assert_eq!(mrc, *element);
    }

    #[test]
    fn batched_propose_and_execute_across_sites() {
        // The coordinator's whole-step fan-out: every propose goes on the
        // wire before any reply is awaited, then one batched wait resolves
        // them all; same for execute. Different stiffnesses per site prove
        // the results come back in batch order.
        let net = VirtualNetwork::new(NetworkConfig::default());
        let clients: Vec<NtcpClient> = (0..4)
            .map(|i| start_site(&net, &format!("site-{i}"), 1.0e5 * (i + 1) as f64))
            .collect();
        let accepted = NtcpClient::propose_all(clients.iter().map(|c| {
            (
                c,
                "step-1",
                vec![ControlPoint::displacement("dof-0", 0.002, 5000.0)],
                SimTime::from_secs(30),
            )
        }));
        assert_eq!(accepted.len(), 4);
        for r in &accepted {
            assert!(r.is_ok(), "propose failed: {r:?}");
        }
        let executed = NtcpClient::execute_all(clients.iter().map(|c| (c, "step-1")));
        for (i, r) in executed.iter().enumerate() {
            let results = r.as_ref().unwrap();
            let expect = 1.0e5 * (i + 1) as f64 * 0.002;
            assert!(
                (results[0].force_n - expect).abs() < 1e-9,
                "site {i}: got {} want {expect}",
                results[0].force_n
            );
        }
    }

    #[test]
    fn link_reset_surfaces_as_transport_error_without_retry_policy() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let client = start_site(&net, "uiuc", 2.0e5);
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("client-uiuc", "uiuc"), 0);
        net.set_fault_plan(plan);
        // Rebind with the MOST coordinator's incomplete policy.
        let weak = NtcpClient::new(
            client
                .rpc()
                .clone()
                .with_policy(RetryPolicy::timeouts_only(4)),
        );
        let err = weak
            .propose(
                "step-1",
                vec![ControlPoint::displacement("dof-0", 0.002, 500.0)],
                SimTime::from_secs(30),
            )
            .unwrap_err();
        assert_eq!(err, NtcpError::Transport(RpcError::LinkReset));
    }
}
