//! NTCP bodies on the wire. The client writes `ProposeBody` and
//! `TransactionRef` requests as exactly the bytes of the `Value`-tree
//! envelope (`to_vec(&RpcRequest { body: to_value(b), .. })`), and reads
//! `propose` and `execute` replies the way the tree path read them: the
//! same decision and results, or the same `BadResponse` text.
//!
//! A fake site answers every request with bytes the test chooses, so
//! replies can be malformed or carry wrong types.
//!
//! The other way round, a real `NtcpServer` in a container answers
//! generated requests with exactly the bytes of the `Value`-tree envelope
//! the server's replies were once built as
//! (`to_vec(&RpcResponse { outcome: Ok(tree), .. })`), replays a
//! retransmission of a client's latest request byte for byte, and refuses
//! a late duplicate of anything earlier without running it, before and
//! after a snapshot and restore.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use proptest::prelude::*;
use serde_json::{json, Value};

use neesgrid_gridsim::{Endpoint, MessageKind, NetworkConfig, NodeId, SimTime, VirtualNetwork};
use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid_ntcp::msg::{ExecuteResponse, ProposeBody, TransactionRef};
use neesgrid_ntcp::{
    ControlPoint, ControlPointResult, NtcpClient, NtcpError, NtcpServer, ProposalDecision,
    SimulationPlugin,
};
use neesgrid_ogsi::rpc::RpcOutcome;
use neesgrid_ogsi::{
    AttachedContainer, RetryPolicy, RpcClient, RpcMux, RpcRequest, RpcResponse, ServiceContainer,
};
use neesgrid_structsim::{LinearElastic, SimulatedSubstructure};
use neesgrid_telemetry::Telemetry;

/// `(correlation id, payload)` of every request a site received.
type Received = Arc<Mutex<Vec<(u64, Vec<u8>)>>>;

/// A site that records each request and answers it with `reply`.
struct FakeSite {
    requests: Received,
    /// The reply envelope sent back, verbatim.
    reply: Arc<Mutex<Vec<u8>>>,
    client: NtcpClient,
}

fn caller() -> DistinguishedName {
    DistinguishedName::nees_user("NCSA", "Coordinator")
}

fn fake_site(net: &VirtualNetwork) -> FakeSite {
    let requests: Received = Arc::new(Mutex::new(Vec::new()));
    let reply = Arc::new(Mutex::new(Vec::new()));
    let ep = net.endpoint("site").unwrap();
    let answer = ep.clone();
    let (seen, bytes) = (Arc::clone(&requests), Arc::clone(&reply));
    ep.install_handler(move |env| {
        if env.kind != MessageKind::Request {
            return;
        }
        seen.lock()
            .unwrap()
            .push((env.correlation_id, env.payload.to_vec()));
        let payload = Bytes::from(bytes.lock().unwrap().clone());
        answer.send(
            env.src,
            &env.service,
            MessageKind::Reply,
            env.correlation_id,
            payload,
        );
    });
    let mux = RpcMux::new(net.endpoint("coordinator").unwrap());
    let client = NtcpClient::new(
        RpcClient::new(mux, NodeId::new("site"), "ntcp", caller()).with_policy(RetryPolicy::none()),
    );
    FakeSite {
        requests,
        reply,
        client,
    }
}

impl FakeSite {
    fn answer_with(&self, payload: &[u8]) {
        *self.reply.lock().unwrap() = payload.to_vec();
    }

    /// The last request's bytes, and the bytes the tree path wrote for it.
    fn last_request(&self, operation: &str, body: Value) -> (Vec<u8>, Vec<u8>) {
        let (corr, sent) = self.requests.lock().unwrap().last().cloned().unwrap();
        let tree = serde_json::to_vec(&RpcRequest {
            request_id: corr,
            caller: caller(),
            operation: operation.to_string(),
            body,
        })
        .unwrap();
        (sent, tree)
    }
}

/// A reply envelope carrying `body` as its `Ok` document.
fn ok_reply(body: &Value) -> Vec<u8> {
    serde_json::to_vec(&RpcResponse {
        request_id: 1,
        outcome: RpcOutcome::Ok(body.clone()),
    })
    .unwrap()
}

/// What the tree path made of a reply's bytes: the mux decoded the whole
/// envelope into a `Value`, then the client converted pieces of it.
fn tree_reply(payload: &[u8]) -> Result<Value, NtcpError> {
    match serde_json::from_slice::<RpcResponse>(payload) {
        Err(_) => Err(NtcpError::Fault {
            code: "BadResponse".into(),
            message: "undecodable response payload".into(),
            retryable: false,
        }),
        Ok(RpcResponse {
            outcome: RpcOutcome::Ok(value),
            ..
        }) => Ok(value),
        Ok(RpcResponse {
            outcome: RpcOutcome::Fault(fault),
            ..
        }) => Err(NtcpError::Fault {
            code: fault.code,
            message: fault.message,
            retryable: fault.retryable,
        }),
    }
}

fn tree_propose(payload: &[u8]) -> Result<(), NtcpError> {
    let value = tree_reply(payload)?;
    let decision: ProposalDecision = serde_json::from_value(value["decision"].clone())
        .map_err(|e| NtcpError::BadResponse(format!("decision: {e}")))?;
    match decision {
        ProposalDecision::Accepted => Ok(()),
        ProposalDecision::Rejected { reason } => Err(NtcpError::Rejected { reason }),
    }
}

fn tree_execute(payload: &[u8]) -> Result<Vec<ControlPointResult>, NtcpError> {
    let value = tree_reply(payload)?;
    let resp: ExecuteResponse = serde_json::from_value(value)
        .map_err(|e| NtcpError::BadResponse(format!("execute response: {e}")))?;
    Ok(resp.results)
}

/// Deterministic source for generated bodies (xorshift64*).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f64(&mut self) -> f64 {
        match self.below(3) {
            0 => [0.0, -0.0, 1e-300, f64::NAN, f64::INFINITY, 0.05][self.below(6)],
            1 => f64::from_bits(self.next()),
            _ => (self.next() as i64) as f64 / 1e9,
        }
    }

    fn name(&mut self) -> String {
        const CHARS: [char; 10] = ['a', '-', '0', '"', '\\', '\n', '\u{1}', 'é', '日', '😀'];
        (0..self.below(10))
            .map(|_| CHARS[self.below(CHARS.len())])
            .collect()
    }

    fn point(&mut self) -> ControlPoint {
        ControlPoint {
            name: self.name(),
            displacement_m: self.f64(),
            velocity_mps: self.f64(),
            expected_force_n: self.f64(),
        }
    }

    fn result(&mut self) -> ControlPointResult {
        ControlPointResult {
            name: self.name(),
            displacement_m: self.f64(),
            force_n: self.f64(),
        }
    }

    /// Any JSON value, for wrong-type replies.
    fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => json!(self.next().is_multiple_of(3)),
            2 => json!(self.next() >> self.below(64)),
            3 => json!(self.name()),
            4 => Value::Array((0..self.below(3)).map(|_| self.value(depth - 1)).collect()),
            _ => {
                let keys = ["decision", "results", "duration", "name", "force_n", "x"];
                let mut m = serde_json::Map::new();
                for _ in 0..self.below(4) {
                    m.insert(keys[self.below(keys.len())].into(), self.value(depth - 1));
                }
                Value::Object(m)
            }
        }
    }

    /// Replace one random node of `v` with a random value.
    fn corrupt(&mut self, v: &mut Value) {
        let children = match v {
            Value::Array(a) => a.len(),
            Value::Object(m) => m.len(),
            _ => 0,
        };
        if children == 0 || self.below(3) == 0 {
            *v = self.value(2);
            return;
        }
        let i = self.below(children);
        match v {
            Value::Array(a) => self.corrupt(&mut a[i]),
            Value::Object(m) => {
                let child = m.values_mut().nth(i).unwrap();
                self.corrupt(child);
            }
            _ => unreachable!(),
        }
    }

    /// A reply envelope around `body`: intact, with a corrupted body, cut
    /// short, or not an envelope at all.
    fn reply(&mut self, mut body: Value) -> Vec<u8> {
        match self.below(6) {
            0 | 1 => ok_reply(&body),
            2 | 3 => {
                self.corrupt(&mut body);
                ok_reply(&body)
            }
            4 => {
                let whole = ok_reply(&body);
                whole[..self.below(whole.len())].to_vec()
            }
            _ => serde_json::to_vec(&self.value(3)).unwrap(),
        }
    }
}

/// `Debug` text, which tells NaN, -0.0 and every variant apart.
fn shown<T: std::fmt::Debug>(x: &T) -> String {
    format!("{x:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn requests_are_the_tree_paths_bytes_and_replies_read_alike(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let net = VirtualNetwork::new(NetworkConfig::default());
        let site = fake_site(&net);

        let body = ProposeBody {
            transaction: g.name(),
            actions: (0..g.below(4)).map(|_| g.point()).collect(),
            timeout: SimTime::from_nanos(g.next()),
        };
        let decision = match g.below(3) {
            0 => json!({ "decision": "Accepted" }),
            1 => json!({ "decision": { "Rejected": { "reason": g.name() } } }),
            _ => g.value(2),
        };
        let reply = g.reply(decision);
        site.answer_with(&reply);
        let got = site
            .client
            .propose(&body.transaction, body.actions.clone(), body.timeout);
        let (sent, tree) = site.last_request("propose", serde_json::to_value(&body).unwrap());
        prop_assert_eq!(sent, tree);
        prop_assert_eq!(shown(&got), shown(&tree_propose(&reply)), "reply {:?}", String::from_utf8_lossy(&reply));

        let tx = g.name();
        let response = ExecuteResponse {
            results: (0..g.below(4)).map(|_| g.result()).collect(),
            duration: SimTime::from_nanos(g.next()),
        };
        let reply = g.reply(serde_json::to_value(&response).unwrap());
        site.answer_with(&reply);
        let got = site.client.execute(&tx);
        let tx_ref = serde_json::to_value(TransactionRef { transaction: tx.clone() }).unwrap();
        let (sent, tree) = site.last_request("execute", tx_ref.clone());
        prop_assert_eq!(sent, tree);
        prop_assert_eq!(shown(&got), shown(&tree_execute(&reply)), "reply {:?}", String::from_utf8_lossy(&reply));

        site.answer_with(&ok_reply(&json!({ "cancelled": tx })));
        site.client.cancel(&tx).unwrap();
        let (sent, tree) = site.last_request("cancel", tx_ref.clone());
        prop_assert_eq!(sent, tree);
        site.answer_with(&ok_reply(&json!({ "state": "Accepted" })));
        site.client.get_transaction(&tx).unwrap();
        let (sent, tree) = site.last_request("getTransaction", tx_ref);
        prop_assert_eq!(sent, tree);
    }
}

#[test]
fn malformed_and_mistyped_replies_end_as_bad_response() {
    let net = VirtualNetwork::new(NetworkConfig::default());
    let site = fake_site(&net);
    let propose = |reply: &[u8]| {
        site.answer_with(reply);
        site.client.propose(
            "t",
            vec![ControlPoint::displacement("dof-0", 0.001, 1.0)],
            SimTime::from_secs(1),
        )
    };
    let undecodable = NtcpError::Fault {
        code: "BadResponse".into(),
        message: "undecodable response payload".into(),
        retryable: false,
    };
    assert_eq!(
        propose(br#"{"outcome":{"Ok":{"decision":}},"request_id":1}"#),
        Err(undecodable.clone())
    );
    assert_eq!(
        propose(br#"{"outcome":{"Ok":{"decision":"Accepted"}},"request_id":"1"}"#),
        Err(undecodable)
    );
    assert_eq!(
        propose(&ok_reply(&json!({ "decision": 5 }))),
        Err(NtcpError::BadResponse(
            "decision: ProposalDecision: expected string or single-key object".into()
        ))
    );
    assert_eq!(
        propose(&ok_reply(&json!([1]))),
        Err(NtcpError::BadResponse(
            "decision: ProposalDecision: expected string or single-key object".into()
        ))
    );
    assert_eq!(
        propose(&ok_reply(&json!({ "decision": "Maybe" }))),
        Err(NtcpError::BadResponse(
            r#"decision: ProposalDecision: unknown variant "Maybe""#.into()
        ))
    );
    assert_eq!(
        propose(&ok_reply(&json!({ "decision": "Accepted", "x": [] }))),
        Ok(())
    );

    site.answer_with(&ok_reply(
        &json!({ "results": [{ "name": 1 }], "duration": 5 }),
    ));
    assert_eq!(
        site.client.execute("t"),
        Err(NtcpError::BadResponse(
            "execute response: ExecuteResponse.results: array element: \
             ControlPointResult.name: expected string, got number PosInt(1)"
                .into()
        ))
    );
}

/// A real NTCP site in a container, recording telemetry, and a client
/// endpoint that keeps the bytes of every reply it receives.
struct RealSite {
    net: VirtualNetwork,
    client: Endpoint,
    replies: Arc<Mutex<Vec<Vec<u8>>>>,
    telemetry: Telemetry,
    _container: AttachedContainer,
}

fn real_site() -> RealSite {
    let net = VirtualNetwork::new(NetworkConfig::default());
    let plugin = SimulationPlugin::new(
        "sim",
        Box::new(SimulatedSubstructure::spring_to_ground(
            "col",
            Box::new(LinearElastic::new(1.0e5)),
        )),
    );
    let mut server = NtcpServer::new(
        "site",
        SitePolicy::permissive("site", ActionLimits::most_large_scale()),
        Box::new(plugin),
        net.clock(),
    );
    let telemetry = Telemetry::recording();
    server.set_telemetry(telemetry.clone());
    let container = ServiceContainer::new(net.endpoint("site").unwrap())
        .with_service("ntcp", Box::new(server))
        .permissive()
        .attach();
    let client = net.endpoint("coordinator").unwrap();
    let replies = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&replies);
    client.install_handler(move |env| {
        if env.kind == MessageKind::Reply {
            seen.lock().unwrap().push(env.payload.to_vec());
        }
    });
    RealSite {
        net,
        client,
        replies,
        telemetry,
        _container: container,
    }
}

impl RealSite {
    /// Send one request and return the bytes of its reply.
    fn ask(&self, request_id: u64, operation: &str, body: &Value) -> Vec<u8> {
        let request = RpcRequest {
            request_id,
            caller: caller(),
            operation: operation.to_string(),
            body: body.clone(),
        };
        self.client.send(
            NodeId::new("site"),
            "ntcp",
            MessageKind::Request,
            request_id,
            Bytes::from(serde_json::to_vec(&request).unwrap()),
        );
        self.net.engine().run_until_idle();
        let mut replies = self.replies.lock().unwrap();
        assert_eq!(replies.len(), 1, "one reply per request");
        replies.pop().unwrap()
    }

    /// The reply document of a request that succeeds.
    fn ok(&self, request_id: u64, operation: &str, body: &Value) -> Value {
        let response: RpcResponse =
            serde_json::from_slice(&self.ask(request_id, operation, body)).unwrap();
        match response.outcome {
            RpcOutcome::Ok(doc) => doc,
            RpcOutcome::Fault(fault) => panic!("{operation}: {fault:?}"),
        }
    }

    /// The fault code a request is answered with.
    fn fault(&self, request_id: u64, operation: &str, body: &Value) -> String {
        let response: RpcResponse =
            serde_json::from_slice(&self.ask(request_id, operation, body)).unwrap();
        match response.outcome {
            RpcOutcome::Fault(fault) => fault.code,
            RpcOutcome::Ok(doc) => panic!("{operation} answered {doc}"),
        }
    }

    /// The site's `ntcp.stale_refused{site}` counter.
    fn stale_refused(&self) -> u64 {
        let counters = self.telemetry.metrics_snapshot().counters;
        counters
            .iter()
            .find(|(name, _)| name == "ntcp.stale_refused{site}")
            .map_or(0, |(_, value)| *value)
    }
}

/// A stale `{"outcome":{"Fault":…}}` envelope for `request_id`, as the
/// server writes it.
fn stale_envelope(request_id: u64, mark: u64) -> Vec<u8> {
    serde_json::to_vec(&RpcResponse {
        request_id,
        outcome: RpcOutcome::Fault(neesgrid_ogsi::ServiceFault::permanent(
            "StaleRequest",
            format!("request {request_id} from coordinator is below its mark {mark}"),
        )),
    })
    .unwrap()
}

#[test]
fn late_duplicates_of_a_retired_transaction_are_refused_over_the_wire() {
    let site = real_site();
    let t1 = json!({
        "transaction": "t1",
        "actions": [ControlPoint::displacement("dof-0", 0.01, 1000.0)],
        "timeout": SimTime::from_secs(30),
    });
    let t1_ref = json!({ "transaction": "t1" });
    site.ok(1, "propose", &t1);
    site.ok(2, "execute", &t1_ref);
    let mut t2 = t1.clone();
    if let Value::Object(m) = &mut t2 {
        m.insert("transaction".into(), json!("t2"));
    }
    site.ok(3, "propose", &t2);
    let late = |site: &RealSite, refused: u64| {
        assert_eq!(site.ask(1, "propose", &t1), stale_envelope(1, 3));
        assert_eq!(site.ask(2, "execute", &t1_ref), stale_envelope(2, 3));
        assert_eq!(site.stale_refused(), refused);
        let status = site.ok(0, "getStatus", &json!({}));
        assert_eq!(status["executions"], 1, "never executed again");
        assert_eq!(
            site.fault(0, "getTransaction", &t1_ref),
            "NoSuchTransaction"
        );
    };
    late(&site, 2);

    // Snapshot over the wire, restore into a fresh site: the window and
    // the retirement come back with the state.
    let snapshot = site.ok(0, "snapshotSite", &json!({}));
    let fresh = real_site();
    fresh.ok(0, "restoreSite", &json!({ "snapshot": snapshot }));
    late(&fresh, 2);
    assert_eq!(fresh.ok(0, "snapshotSite", &json!({})), snapshot);
}

/// The envelope a reply's outcome was once sent as: a fault as it is, and
/// a document rebuilt from its typed value in the `json!` form the server
/// built it in.
fn tree_envelope(request_id: u64, operation: &str, tx: &str, reply: &[u8]) -> Vec<u8> {
    let response: RpcResponse = serde_json::from_slice(reply).unwrap();
    let outcome = match response.outcome {
        RpcOutcome::Fault(fault) => RpcOutcome::Fault(fault),
        RpcOutcome::Ok(doc) => RpcOutcome::Ok(match operation {
            "propose" => {
                let decision: ProposalDecision =
                    serde_json::from_value(doc["decision"].clone()).unwrap();
                json!({ "decision": decision })
            }
            "execute" => json!(serde_json::from_value::<ExecuteResponse>(doc).unwrap()),
            _ => json!({ "cancelled": tx }),
        }),
    };
    serde_json::to_vec(&RpcResponse {
        request_id,
        outcome,
    })
    .unwrap()
}

impl Gen {
    /// A finite float near the site's limits, or an edge value.
    fn finite(&mut self) -> f64 {
        match self.below(3) {
            0 => [0.0, -0.0, 1e-300, 5e-324, 0.05, -0.0499][self.below(6)],
            1 => (self.next() % 200_001) as f64 * 1e-6 - 0.1,
            _ => (self.next() as i64) as f64 / 1e15,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn a_real_server_answers_with_the_tree_envelopes_bytes(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let site = real_site();
        let names: Vec<String> = (0..3).map(|_| g.name()).collect();
        // Every request sent so far and its first answer's bytes.
        let mut sent: Vec<(String, Value, Vec<u8>)> = Vec::new();
        for _ in 0..g.below(24) + 1 {
            let tx = names[g.below(names.len())].clone();
            let (operation, body) = match g.below(4) {
                0 | 1 => {
                    let actions: Vec<ControlPoint> = (0..g.below(3) + 1)
                        .map(|_| ControlPoint {
                            name: g.name(),
                            displacement_m: g.finite(),
                            velocity_mps: g.finite().abs() / 10.0,
                            expected_force_n: g.finite() * 1e6,
                        })
                        .collect();
                    let body = ProposeBody {
                        transaction: tx.clone(),
                        actions,
                        timeout: SimTime::from_nanos(g.next()),
                    };
                    ("propose", serde_json::to_value(&body).unwrap())
                }
                2 => ("execute", json!({ "transaction": tx })),
                _ => ("cancel", json!({ "transaction": tx })),
            };
            let request_id = sent.len() as u64 + 1;
            let reply = site.ask(request_id, operation, &body);
            prop_assert_eq!(
                &reply,
                &tree_envelope(request_id, operation, &tx, &reply),
                "{} {}",
                operation,
                String::from_utf8_lossy(&reply)
            );
            sent.push((operation.to_string(), body, reply));

            // Retransmit an earlier request: the latest one's first answer,
            // byte for byte; anything before it is below the mark.
            if g.below(3) == 0 {
                let i = g.below(sent.len());
                let (operation, body, first) = &sent[i];
                let replayed = site.ask(i as u64 + 1, operation, body);
                if i + 1 == sent.len() {
                    prop_assert_eq!(&replayed, first);
                } else {
                    prop_assert_eq!(&replayed, &stale_envelope(i as u64 + 1, sent.len() as u64));
                }
            }
        }
    }
}
