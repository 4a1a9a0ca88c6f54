//! The portal wire client.
//!
//! A [`PortalClient`] owns one endpoint on the control network. Every
//! call is synchronous request/reply on a fresh correlation id: encode the
//! frame, send it, then pump the shared event engine until the client's
//! handler has put the matching reply in its one-slot reply cell. Because
//! the portal handler executes inline at delivery, a call usually
//! completes in two engine steps, and the reply leg advances the clock by
//! its latency like any other delivery. Anything else that reaches the
//! client's node (a duplicate reply, or the answer to an abandoned call)
//! is dropped and counted as `portal_client.orphan_replies`.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use neesgrid_gridsim::{
    Endpoint, Envelope, EventEngine, MessageKind, NetworkError, NodeId, SimClock, VirtualNetwork,
};
use neesgrid_gsi::DistinguishedName;
use neesgrid_repo::{crc32, from_hex};
use neesgrid_telemetry::{CounterHandle, Telemetry};

use crate::frame::{self, FrameError, Request, RequestFrame, Response, PORTAL_SERVICE};

/// The reply (or loss notice) for the one call a client has in flight.
#[derive(Default)]
struct ReplyCell {
    /// The open call's correlation id, until its reply is taken.
    awaited: Option<u64>,
    envelope: Option<Envelope>,
    /// The registry's `portal_client.orphan_replies`: what arrived for no
    /// open call, or after the open call's reply.
    orphans: CounterHandle,
}

/// Wire-client failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Encode/decode failure on our side.
    Frame(FrameError),
    /// The network reported the portal node unreachable.
    NoRoute,
    /// The engine went idle with no reply owed — the portal is gone.
    Disconnected,
    /// The portal answered, but with a refusal or error instead of the
    /// reply the convenience helper needed.
    Refused(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::NoRoute => write!(f, "no route to portal"),
            ClientError::Disconnected => write!(f, "portal unreachable: engine idle, no reply"),
            ClientError::Refused(why) => write!(f, "portal refused: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected portal client. Clone-cheap; one endpoint per client node.
#[derive(Clone)]
pub struct PortalClient {
    endpoint: Endpoint,
    engine: Arc<EventEngine>,
    portal: NodeId,
    tenant: Option<DistinguishedName>,
    reply: Arc<Mutex<ReplyCell>>,
}

impl PortalClient {
    /// Register `node` on the control network and aim at `portal`.
    pub fn connect(
        net: &VirtualNetwork,
        node: &str,
        portal: impl Into<NodeId>,
    ) -> Result<PortalClient, NetworkError> {
        let endpoint = net.endpoint(node)?;
        let reply = Arc::new(Mutex::new(ReplyCell::default()));
        let cell = Arc::clone(&reply);
        endpoint.install_handler(move |env| {
            let mut cell = cell.lock();
            // Anything but the awaited call's first reply or loss notice is
            // a stale answer to an abandoned call or a duplicate.
            if cell.awaited == Some(env.correlation_id)
                && matches!(env.kind, MessageKind::Reply | MessageKind::Control)
                && cell.envelope.is_none()
            {
                cell.envelope = Some(env);
            } else {
                cell.orphans.add(1);
            }
        });
        Ok(PortalClient {
            engine: endpoint.engine(),
            endpoint,
            portal: portal.into(),
            tenant: None,
            reply,
        })
    }

    /// Count orphan replies in `telemetry`'s registry from now on.
    pub fn set_telemetry(&self, telemetry: &Telemetry) {
        self.reply.lock().orphans = telemetry.lazy_counter("portal_client.orphan_replies");
    }

    /// Bind a default tenant identity for [`PortalClient::call`].
    pub fn with_tenant(mut self, tenant: DistinguishedName) -> PortalClient {
        self.tenant = Some(tenant);
        self
    }

    /// The bound default tenant, if any.
    pub fn tenant(&self) -> Option<&DistinguishedName> {
        self.tenant.as_ref()
    }

    /// The control network's clock (callers advance it to model local
    /// wall time between requests).
    pub fn clock(&self) -> &Arc<SimClock> {
        self.endpoint.clock()
    }

    /// Issue a request as the bound tenant.
    ///
    /// # Panics
    /// If no tenant was bound with [`PortalClient::with_tenant`].
    pub fn call(&self, request: Request) -> Result<Response, ClientError> {
        let tenant = self
            .tenant
            .clone()
            .expect("call() requires with_tenant(); use call_as() otherwise");
        self.call_as(&tenant, request)
    }

    /// Issue a request as an explicit tenant (one client node can proxy
    /// many identities — the CHEF crowd pattern).
    pub fn call_as(
        &self,
        tenant: &DistinguishedName,
        request: Request,
    ) -> Result<Response, ClientError> {
        frame::decode(&self.call_frame(tenant, request)?).map_err(ClientError::Frame)
    }

    /// Issue a request as an explicit tenant and return the reply frame
    /// undecoded, for a caller that reads it in place
    /// ([`frame::SamplesView`]).
    pub fn call_frame(
        &self,
        tenant: &DistinguishedName,
        request: Request,
    ) -> Result<Bytes, ClientError> {
        let correlation = self.endpoint.next_correlation();
        let payload = frame::encode(&RequestFrame {
            tenant: tenant.clone(),
            request,
        })
        .map_err(ClientError::Frame)?;
        {
            let mut cell = self.reply.lock();
            cell.awaited = Some(correlation);
            cell.envelope = None;
        }
        self.endpoint.send(
            self.portal.clone(),
            PORTAL_SERVICE,
            MessageKind::Request,
            correlation,
            payload,
        );
        // Drive the engine: our request's delivery executes the portal
        // handler inline, which schedules the reply.
        self.engine
            .run_until(|| self.reply.lock().envelope.is_some());
        let mut cell = self.reply.lock();
        cell.awaited = None;
        match cell.envelope.take() {
            Some(env) if env.kind == MessageKind::Reply => Ok(env.payload),
            Some(_) => Err(ClientError::NoRoute),
            None => Err(ClientError::Disconnected),
        }
    }

    /// Download one of a run's archived artifacts in full, issuing as
    /// many chunked `FetchArtifact` calls as the frame cap requires.
    /// Each chunk must start where the last one ended and carry
    /// well-formed hex, and the assembled bytes must match the
    /// whole-artifact CRC-32 the final reply carries; anything else is
    /// refused. Returns the bytes and that CRC-32.
    pub fn fetch_artifact(&self, run: &str, artifact: &str) -> Result<(Vec<u8>, u32), ClientError> {
        let mut bytes: Vec<u8> = Vec::new();
        loop {
            let response = self.call(Request::FetchArtifact {
                run: run.to_string(),
                artifact: artifact.to_string(),
                offset: bytes.len() as u64,
                max: frame::ARTIFACT_CHUNK_MAX,
            })?;
            match response {
                Response::Artifact {
                    offset,
                    data,
                    eof,
                    digest,
                    ..
                } => {
                    if offset != bytes.len() as u64 {
                        return Err(ClientError::Refused(format!(
                            "artifact chunk at {offset}, expected {}",
                            bytes.len()
                        )));
                    }
                    let chunk = from_hex(&data).ok_or_else(|| {
                        ClientError::Refused(format!("artifact chunk at {offset} is not hex"))
                    })?;
                    if chunk.is_empty() && !eof {
                        return Err(ClientError::Refused(format!(
                            "empty artifact chunk at {offset} before EOF"
                        )));
                    }
                    bytes.extend_from_slice(&chunk);
                    if eof {
                        let actual = crc32(&bytes);
                        if actual != digest {
                            return Err(ClientError::Refused(format!(
                                "artifact {artifact} digest mismatch: {actual:#010x} != {digest:#010x}"
                            )));
                        }
                        return Ok((bytes, digest));
                    }
                }
                Response::Rejected { rejection } => {
                    return Err(ClientError::Refused(rejection.to_string()))
                }
                Response::Error { message } => return Err(ClientError::Refused(message)),
                other => return Err(ClientError::Refused(format!("unexpected reply {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_gridsim::NetworkProfile;

    /// A client bound to a stand-in portal that answers every call with
    /// one artifact chunk, and the network both live on.
    fn client_answered_with(data: &str, eof: bool) -> (VirtualNetwork, PortalClient) {
        let net = VirtualNetwork::new(NetworkProfile::Lan.config(15));
        let portal = net.endpoint("portal").expect("fresh node");
        let reply = frame::encode(&Response::Artifact {
            artifact: "trace.jsonl".into(),
            total_len: 8,
            digest: 0,
            offset: 0,
            data: data.into(),
            eof,
        })
        .expect("reply encodes");
        let replier = portal.clone();
        portal.install_handler(move |env| {
            replier.send(
                env.src,
                PORTAL_SERVICE,
                MessageKind::Reply,
                env.correlation_id,
                reply.clone(),
            )
        });
        let client = PortalClient::connect(&net, "client", "portal")
            .expect("fresh node")
            .with_tenant(DistinguishedName::nees_user("REMOTE", "alice"));
        (net, client)
    }

    #[test]
    fn a_duplicated_reply_is_an_orphan_and_counted() {
        let (net, client) = client_answered_with("00", true);
        let mut plan = neesgrid_gridsim::FaultPlan::reliable();
        plan.dup_at(neesgrid_gridsim::LinkKey::new("portal", "client"), 0);
        net.set_fault_plan(plan);
        let telemetry = Telemetry::recording();
        client.set_telemetry(&telemetry);
        let orphans = || {
            let counters = telemetry.metrics_snapshot().counters;
            counters
                .into_iter()
                .find(|(name, _)| name == "portal_client.orphan_replies")
        };
        let request = || Request::FetchArtifact {
            run: "run-000001".into(),
            artifact: "trace.jsonl".into(),
            offset: 0,
            max: 8,
        };
        assert!(matches!(
            client.call(request()),
            Ok(Response::Artifact { .. })
        ));
        net.engine().run_until_idle();
        let counted = Some(("portal_client.orphan_replies".to_string(), 1));
        assert_eq!(orphans(), counted, "the copy came after the call");
        client.call(request()).expect("the next call is answered");
        assert_eq!(orphans(), counted, "a taken reply is no orphan");
    }

    #[test]
    fn malformed_artifact_chunks_are_refused() {
        for (data, eof, why) in [
            ("abc", true, "not hex"),
            ("0g", true, "not hex"),
            ("", false, "empty artifact chunk"),
            ("00", true, "digest mismatch"),
        ] {
            let (_net, client) = client_answered_with(data, eof);
            match client.fetch_artifact("run-000001", "trace.jsonl") {
                Err(ClientError::Refused(message)) => assert!(message.contains(why), "{message}"),
                other => panic!("{data:?} must be refused, got {other:?}"),
            }
        }
    }
}
