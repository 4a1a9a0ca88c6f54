//! The service hosting container.
//!
//! The Rust analogue of the GT3 hosting environment each NEESgrid site ran:
//! it owns the site's network endpoint, authenticates callers against
//! established GSI security contexts, dispatches requests to registered
//! services, answers the generic OGSI inspection operations
//! (`ogsi:query`, `ogsi:mostRecentlyChanged`) for any service exposing
//! service data, and runs service housekeeping ticks.
//!
//! A container has no thread of its own: [`ServiceContainer::attach`]
//! installs it as its node's event-engine handler, and whoever pumps the
//! engine runs it. A request is answered inline at its delivery, so a
//! service must never block on, or pump, the engine itself.
//!
//! A reply is written once, as text: the service appends its document to
//! the reply's buffer ([`GridService::respond`]) and the container writes
//! the RPC envelope around it.
//!
//! Security model: contexts are established out-of-band via
//! [`neesgrid_gsi::authenticate`] (the connection-setup handshake) and
//! installed with [`ServiceContainer::install_session`]. A request from an
//! identity with no live session is refused with `AccessDenied` — this is
//! the enforcement point the paper's §4 leans on, together with per-site
//! action limits checked inside the NTCP service itself.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use serde::Serialize;

use neesgrid_gridsim::{Endpoint, Envelope, MessageKind, SimTime};
use neesgrid_gsi::{DistinguishedName, SecurityContext};

use crate::fault::ServiceFault;
use crate::rpc::{reply_payload, RpcRequest};
use crate::service::{CallContext, GridService};

/// The most a reply buffer starts with: one large reply (a site snapshot)
/// must not size every reply after it.
const MAX_REPLY_CAPACITY: usize = 1024;

/// A container hosting one or more grid services on a node.
pub struct ServiceContainer {
    endpoint: Endpoint,
    services: BTreeMap<String, Box<dyn GridService>>,
    sessions: BTreeMap<DistinguishedName, SecurityContext>,
    /// When true, requests from identities without an installed session are
    /// admitted (used by simulation-only phases and unit tests).
    pub allow_unauthenticated: bool,
    /// Capacity of the next reply's buffer: the longest reply so far, up to
    /// [`MAX_REPLY_CAPACITY`].
    reply_capacity: usize,
}

impl ServiceContainer {
    /// Create a container on an endpoint.
    pub fn new(endpoint: Endpoint) -> Self {
        ServiceContainer {
            endpoint,
            services: BTreeMap::new(),
            sessions: BTreeMap::new(),
            allow_unauthenticated: false,
            reply_capacity: 0,
        }
    }

    /// Register a service under `name` (builder style).
    pub fn with_service(mut self, name: impl Into<String>, svc: Box<dyn GridService>) -> Self {
        self.services.insert(name.into(), svc);
        self
    }

    /// Register a service under `name`.
    pub fn add_service(&mut self, name: impl Into<String>, svc: Box<dyn GridService>) {
        self.services.insert(name.into(), svc);
    }

    /// Install an authenticated session for a client identity.
    pub fn install_session(&mut self, ctx: SecurityContext) {
        self.sessions.insert(ctx.client.clone(), ctx);
    }

    /// Allow unauthenticated callers (builder style).
    pub fn permissive(mut self) -> Self {
        self.allow_unauthenticated = true;
        self
    }

    /// Attach the container to the network's event engine: incoming
    /// envelopes become scheduled events dispatched when virtual time
    /// reaches their delivery timestamp. Whoever pumps the engine runs this
    /// container.
    pub fn attach(self) -> AttachedContainer {
        let endpoint = self.endpoint.clone();
        let shared = Arc::new(Mutex::new(self));
        let dispatch = Arc::clone(&shared);
        endpoint.install_handler(move |env| dispatch.lock().handle_envelope(env));
        AttachedContainer { container: shared }
    }

    /// Dispatch one envelope: answer requests, drop everything else.
    fn handle_envelope(&mut self, env: Envelope) {
        match env.kind {
            MessageKind::Request => {
                let reply_to = env.src.clone();
                let correlation = env.correlation_id;
                let service_name = env.service.clone();
                self.endpoint.clock().advance_to(env.delivered_at());
                let now = self.endpoint.clock().now();
                let capacity = self.reply_capacity;
                let reply = match serde_json::from_slice::<RpcRequest>(&env.payload) {
                    Ok(req) => reply_payload(req.request_id, capacity, |out| {
                        self.process(&service_name, &req, now, out)
                    }),
                    Err(_) => reply_payload(correlation, capacity, |_| {
                        Err(ServiceFault::permanent(
                            "BadRequest",
                            "undecodable request payload",
                        ))
                    }),
                };
                self.reply_capacity = reply.len().clamp(capacity, MAX_REPLY_CAPACITY);
                self.endpoint.send(
                    reply_to,
                    &service_name,
                    MessageKind::Reply,
                    correlation,
                    Bytes::from(reply.into_bytes()),
                );
                self.tick_services(now);
            }
            MessageKind::OneWay | MessageKind::Reply | MessageKind::Control => {
                // Containers are pure servers; strays are dropped.
            }
        }
    }

    /// Run one request, appending its reply document to `reply`.
    fn process(
        &mut self,
        service_name: &str,
        req: &RpcRequest,
        now: SimTime,
        reply: &mut String,
    ) -> Result<(), ServiceFault> {
        if !self.allow_unauthenticated {
            match self.sessions.get(&req.caller) {
                Some(session) if session.valid_at(now) => {}
                Some(_) => {
                    return Err(ServiceFault::access_denied(format!(
                        "security context for {} expired",
                        req.caller
                    )))
                }
                None => {
                    return Err(ServiceFault::access_denied(format!(
                        "no security context for {}",
                        req.caller
                    )))
                }
            }
        }
        let svc = self.services.get_mut(service_name).ok_or_else(|| {
            ServiceFault::permanent("NoSuchService", format!("no service '{service_name}'"))
        })?;
        let ctx = CallContext {
            caller: req.caller.clone(),
            now,
            request_id: req.request_id,
        };
        match req.operation.as_str() {
            // Generic OGSI inspection operations.
            "ogsi:query" => {
                let pattern = req.body["pattern"].as_str().unwrap_or("*");
                let sde = svc.sde().ok_or_else(|| {
                    ServiceFault::permanent("NoServiceData", "service exposes no SDEs")
                })?;
                reply.push_str("{\"elements\":");
                sde.query(pattern).write_json(reply);
                reply.push('}');
                Ok(())
            }
            "ogsi:mostRecentlyChanged" => {
                let sde = svc.sde().ok_or_else(|| {
                    ServiceFault::permanent("NoServiceData", "service exposes no SDEs")
                })?;
                sde.most_recently_changed().write_json(reply);
                Ok(())
            }
            op => svc.respond(&ctx, op, &req.body, reply),
        }
    }

    fn tick_services(&mut self, now: SimTime) {
        for svc in self.services.values_mut() {
            svc.tick(now);
        }
    }
}

/// Handle to a container attached to the event engine.
///
/// Dropping the handle does not detach the container: the network registry
/// keeps the dispatch handler alive until network shutdown.
pub struct AttachedContainer {
    container: Arc<Mutex<ServiceContainer>>,
}

impl AttachedContainer {
    /// Access the hosted container (e.g. to install sessions after attach).
    pub fn with_container<R>(&self, f: impl FnOnce(&mut ServiceContainer) -> R) -> R {
        f(&mut self.container.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{RpcClient, RpcError, RpcMux};
    use crate::sde::ServiceData;
    use neesgrid_gridsim::{NetworkConfig, NodeId, VirtualNetwork};
    use neesgrid_gsi::{authenticate, CertificateAuthority, Credential};
    use serde_json::{json, Value};

    struct Counter {
        count: u64,
        sde: ServiceData,
    }

    impl Counter {
        fn boxed() -> Box<dyn GridService> {
            Box::new(Counter {
                count: 0,
                sde: ServiceData::new(),
            })
        }
    }

    impl GridService for Counter {
        fn service_type(&self) -> &'static str {
            "counter"
        }

        fn handle(
            &mut self,
            ctx: &CallContext,
            operation: &str,
            _body: &Value,
        ) -> Result<Value, ServiceFault> {
            match operation {
                "increment" => {
                    self.count += 1;
                    self.sde.set("count", json!(self.count), ctx.now);
                    Ok(json!({ "count": self.count }))
                }
                other => Err(ServiceFault::no_such_operation(other)),
            }
        }

        fn sde(&mut self) -> Option<&mut ServiceData> {
            Some(&mut self.sde)
        }
    }

    fn caller() -> DistinguishedName {
        DistinguishedName::nees_user("NCSA", "tester")
    }

    fn permissive_setup() -> (VirtualNetwork, RpcClient) {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let container = ServiceContainer::new(net.endpoint("site").unwrap())
            .with_service("counter", Counter::boxed())
            .permissive();
        let _handle = container.attach();
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("site"), "counter", caller());
        (net, client)
    }

    #[test]
    fn dispatches_to_service() {
        let (_net, client) = permissive_setup();
        assert_eq!(
            client.call_value("increment", Value::Null).unwrap()["count"],
            1
        );
        assert_eq!(
            client.call_value("increment", Value::Null).unwrap()["count"],
            2
        );
    }

    #[test]
    fn unknown_service_faults() {
        let (net, _client) = permissive_setup();
        let mux = RpcMux::new(net.endpoint("client2").unwrap());
        let client = RpcClient::new(mux, NodeId::new("site"), "nope", caller());
        match client.call("x", Value::Null) {
            Err(RpcError::Fault(f)) => assert_eq!(f.code, "NoSuchService"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn generic_sde_query_works() {
        let (_net, client) = permissive_setup();
        client.call("increment", Value::Null).unwrap();
        let out = client
            .call_value("ogsi:query", json!({"pattern": "*"}))
            .unwrap();
        assert_eq!(out["elements"][0]["name"], "count");
        assert_eq!(out["elements"][0]["value"], 1);
        let mrc = client
            .call_value("ogsi:mostRecentlyChanged", Value::Null)
            .unwrap();
        assert_eq!(mrc["name"], "count");
    }

    #[test]
    fn unauthenticated_caller_refused_when_strict() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let container = ServiceContainer::new(net.endpoint("site").unwrap())
            .with_service("counter", Counter::boxed());
        let _handle = container.attach();
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("site"), "counter", caller());
        match client.call("increment", Value::Null) {
            Err(RpcError::Fault(f)) => assert_eq!(f.code, "AccessDenied"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn session_admits_caller_until_expiry() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let ca = CertificateAuthority::nees(1);
        let user = Credential::issue(&ca, caller(), SimTime::ZERO, SimTime::from_secs(100), 1);
        let host = Credential::issue(
            &ca,
            DistinguishedName::nees_host("site", "container"),
            SimTime::ZERO,
            SimTime::from_secs(1000),
            2,
        );
        let session = authenticate(&user, &host, &ca.verifier(), SimTime::ZERO).unwrap();
        let mut container = ServiceContainer::new(net.endpoint("site").unwrap())
            .with_service("counter", Counter::boxed());
        container.install_session(session);
        let _handle = container.attach();
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("site"), "counter", caller());
        assert_eq!(
            client.call_value("increment", Value::Null).unwrap()["count"],
            1
        );
        // Push virtual time past context expiry; next call is refused.
        net.clock().advance_to(SimTime::from_secs(200));
        match client.call("increment", Value::Null) {
            Err(RpcError::Fault(f)) => {
                assert_eq!(f.code, "AccessDenied");
                assert!(f.message.contains("expired"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
