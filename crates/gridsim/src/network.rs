//! The virtual network: endpoints and event-scheduled routing.
//!
//! All traffic between NEESgrid nodes is routed synchronously on the sending
//! thread: the router (1) consults the [`FaultPlan`] using the per-link
//! message index, (2) samples virtual latency from the link's
//! [`LatencyModel`], and (3) either delivers the envelope, drops it, or
//! resets it; a drop or a reset sends a [`ControlNotice`] to whoever waits
//! on the message.
//!
//! Delivery has one mode: a node consumes its traffic through the handler
//! installed with [`Endpoint::install_handler`]. Each delivered envelope
//! becomes a scheduled event on the shared [`EventEngine`], run when
//! virtual time reaches its delivery timestamp, so whoever pumps the engine
//! decides event order and the clock advances only as events run. A node
//! registered without a handler drops what it is sent, and the loss
//! notice goes to whoever waits on the message's correlation id.
//!
//! Nothing here sleeps: latency is charged in virtual time only, so a WAN
//! with 30 ms links routes millions of messages per wall-clock second.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use neesgrid_telemetry::{Field, Telemetry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::EventEngine;
use crate::fault::{FaultAction, FaultPlan, LinkKey};
use crate::latency::LatencyModel;
use crate::message::{ControlNotice, Envelope, MessageKind};
use crate::node::NodeId;
use crate::stats::{LinkCounters, NetworkStats};
use crate::time::{SimClock, SimTime};

/// Configuration for a [`VirtualNetwork`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Latency model for links with no specific override.
    pub default_latency: LatencyModel,
    /// Seed for latency sampling (fault injection is schedule-driven and
    /// does not consume randomness).
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            default_latency: LatencyModel::Zero,
            seed: 0x6E65_6573,
        }
    }
}

/// Errors surfaced by network topology operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A node id was registered a second time while still active.
    DuplicateNode(NodeId),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DuplicateNode(id) => write!(f, "node {id} registered twice"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A node's installed delivery handler, run by the event engine.
type Handler = Arc<dyn Fn(Envelope) + Send + Sync>;

/// The router's one record per directed link.
#[derive(Default)]
struct LinkState {
    /// Index of the link's next message; the fault plan keys on it.
    next_index: u64,
    /// Created at the link's first routed message. Control notices bounced
    /// on a self-link take an index but no counters.
    counters: Option<Arc<LinkCounters>>,
}

impl LinkState {
    fn take_index(&mut self) -> u64 {
        let i = self.next_index;
        self.next_index += 1;
        i
    }
}

struct RouterState {
    /// Registered nodes; `None` until the node installs its handler.
    registry: HashMap<NodeId, Option<Handler>>,
    link_latency: HashMap<LinkKey, LatencyModel>,
    default_latency: LatencyModel,
    fault_plan: FaultPlan,
    /// Looked up once per routed message; never iterated.
    links: HashMap<LinkKey, LinkState>,
    rng: StdRng,
    stats: NetworkStats,
    telemetry: Telemetry,
}

impl RouterState {
    fn route(&mut self, mut env: Envelope, engine: &EventEngine, clock: &SimClock) {
        let link = LinkKey {
            src: env.src.clone(),
            dst: env.dst.clone(),
        };
        // The key is cloned only at a link's first message.
        let state = match self.links.get_mut(&link) {
            Some(state) => state,
            None => self.links.entry(link.clone()).or_default(),
        };
        let index = state.take_index();
        let counters = Arc::clone(state.counters.get_or_insert_with(|| {
            let counters = Arc::new(LinkCounters::new(&link, &self.telemetry));
            self.stats.register(link.clone(), Arc::clone(&counters));
            counters
        }));
        env.seq = index;
        counters.sent.add(1);

        let Some(dest) = self.registry.get(&env.dst).cloned() else {
            counters.dropped.add(1);
            self.note_fault(&link, index, "no_route", &env, clock);
            self.notify(
                &env.src,
                ControlNotice::NoRoute {
                    dst: env.dst.clone(),
                    correlation_id: env.correlation_id,
                },
                engine,
                clock,
            );
            return;
        };

        let action = self.fault_plan.decide(&link, index, env.kind);
        match action {
            FaultAction::Deliver => {}
            FaultAction::Drop => {
                counters.dropped.add(1);
                self.note_fault(&link, index, "drop", &env, clock);
                self.notify_loss(&env, false, engine, clock);
                return;
            }
            FaultAction::Reset => {
                counters.reset.add(1);
                self.note_fault(&link, index, "reset", &env, clock);
                self.notify_loss(&env, true, engine, clock);
                return;
            }
            FaultAction::Duplicate => {
                counters.duplicated.add(1);
                self.note_fault(&link, index, "dup", &env, clock);
            }
        }
        // A duplicate is two copies, each with an independently sampled
        // latency, so it can arrive before *or* after the original — the
        // reordering NTCP's at-most-once windows have to survive.
        let copy = (action == FaultAction::Duplicate).then(|| env.clone());
        for mut env in std::iter::once(env).chain(copy) {
            let latency = self
                .link_latency
                .get(&link)
                .unwrap_or(&self.default_latency)
                .sample(&mut self.rng);
            env.latency = latency;
            counters.count_delivery(env.wire_bytes(), latency);
            if let Err(env) = Self::deliver(dest.clone(), env, engine) {
                // A receiver without a handler behaves like a drop.
                counters.dropped.add(1);
                self.note_fault(&link, index, "drop", &env, clock);
                self.notify_loss(&env, false, engine, clock);
            }
        }
    }

    /// Emit a routing fault (drop / reset / duplicate / no-route) as a
    /// flight-recorder-visible trace event.
    fn note_fault(
        &self,
        link: &LinkKey,
        index: u64,
        what: &'static str,
        env: &Envelope,
        clock: &SimClock,
    ) {
        if !self.telemetry.enabled() {
            return;
        }
        self.telemetry.instant(
            clock.now().as_nanos(),
            "net",
            what,
            [
                ("link", Field::Str(format!("{}->{}", link.src, link.dst))),
                ("index", Field::U64(index)),
                ("corr", Field::U64(env.correlation_id)),
            ],
        );
    }

    /// Schedule `env` on the engine at its delivery timestamp, to run the
    /// destination's handler.
    ///
    /// `Err` hands the envelope back by value when the node has no handler,
    /// so the caller can route it through the loss-notice path without a
    /// clone; this is a two-caller internal helper, so the large `Err`
    /// variant is fine.
    #[allow(clippy::result_large_err)]
    fn deliver(dest: Option<Handler>, env: Envelope, engine: &EventEngine) -> Result<(), Envelope> {
        let Some(handler) = dest else {
            return Err(env);
        };
        let at = env.delivered_at();
        engine.schedule_delivery(at, move || handler(env));
        Ok(())
    }

    /// Tell whichever endpoint waits on a lost message's correlation id
    /// that it is lost: the sender of a request, the requester (the
    /// reply's destination) of a reply, whichever way it was lost. A reset
    /// is a [`ControlNotice::LinkReset`], a drop (or a receiver without a
    /// handler) a [`ControlNotice::Dropped`], which keeps the *semantics*
    /// of a timeout verdict (the RPC layer still counts it as one) while
    /// making the verdict deterministic rather than a race between
    /// scheduler load and a wall-clock deadline. One-way and control
    /// traffic has no waiter, so losses there stay silent.
    fn notify_loss(&mut self, env: &Envelope, reset: bool, engine: &EventEngine, clock: &SimClock) {
        let waiter = match env.kind {
            MessageKind::Request => &env.src,
            MessageKind::Reply => &env.dst,
            MessageKind::OneWay | MessageKind::Control => return,
        };
        let (dst, correlation_id) = (env.dst.clone(), env.correlation_id);
        let notice = if reset {
            ControlNotice::LinkReset {
                dst,
                correlation_id,
            }
        } else {
            ControlNotice::Dropped {
                dst,
                correlation_id,
            }
        };
        self.notify(waiter, notice, engine, clock);
    }

    /// Deliver a control notice to `node`, stamped from the clock and the
    /// node's self-link counter so notices are distinguishable and totally
    /// ordered in logs.
    fn notify(
        &mut self,
        node: &NodeId,
        notice: ControlNotice,
        engine: &EventEngine,
        clock: &SimClock,
    ) {
        if let Some(back) = self.registry.get(node).cloned() {
            let self_link = LinkKey {
                src: node.clone(),
                dst: node.clone(),
            };
            let env = Envelope {
                seq: self.links.entry(self_link).or_default().take_index(),
                src: node.clone(),
                dst: node.clone(),
                service: "__net".into(),
                kind: MessageKind::Control,
                correlation_id: notice.correlation_id(),
                sent_at: clock.now(),
                latency: SimTime::ZERO,
                payload: notice.to_bytes(),
            };
            let _ = Self::deliver(back, env, engine);
        }
    }
}

/// The state shared by a network and every endpoint attached to it.
struct NetCore {
    state: Mutex<RouterState>,
    engine: Arc<EventEngine>,
    clock: Arc<SimClock>,
}

impl NetCore {
    fn route(&self, env: Envelope) {
        self.state.lock().route(env, &self.engine, &self.clock);
    }
}

/// A simulated wide-area network connecting named grid nodes.
pub struct VirtualNetwork {
    core: Arc<NetCore>,
    stats: NetworkStats,
}

impl VirtualNetwork {
    /// Start a network with the given configuration and a fresh clock.
    pub fn new(config: NetworkConfig) -> Self {
        Self::with_clock(config, SimClock::new())
    }

    /// Start a network sharing an existing experiment clock.
    pub fn with_clock(config: NetworkConfig, clock: Arc<SimClock>) -> Self {
        let stats = NetworkStats::default();
        let engine = EventEngine::new(Arc::clone(&clock));
        let state = RouterState {
            registry: HashMap::new(),
            link_latency: HashMap::new(),
            default_latency: config.default_latency,
            fault_plan: FaultPlan::reliable(),
            links: HashMap::new(),
            rng: StdRng::seed_from_u64(config.seed),
            stats: stats.clone(),
            telemetry: Telemetry::disabled(),
        };
        VirtualNetwork {
            core: Arc::new(NetCore {
                state: Mutex::new(state),
                engine,
                clock,
            }),
            stats,
        }
    }

    /// The shared experiment clock.
    pub fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.core.clock)
    }

    /// The event engine that owns in-flight deliveries and virtual timers.
    pub fn engine(&self) -> Arc<EventEngine> {
        Arc::clone(&self.core.engine)
    }

    /// A read-only view of the per-link counters.
    pub fn stats(&self) -> NetworkStats {
        self.stats.clone()
    }

    /// Register a node and obtain its endpoint. Fails with
    /// [`NetworkError::DuplicateNode`] if the name is taken.
    /// The node drops what it is sent until it installs a handler with
    /// [`Endpoint::install_handler`].
    pub fn endpoint(&self, id: impl Into<NodeId>) -> Result<Endpoint, NetworkError> {
        let id = id.into();
        {
            let mut state = self.core.state.lock();
            if state.registry.contains_key(&id) {
                return Err(NetworkError::DuplicateNode(id));
            }
            state.registry.insert(id.clone(), None);
        }
        Ok(Endpoint {
            id,
            core: Arc::clone(&self.core),
            clock: Arc::clone(&self.core.clock),
            next_correlation: Arc::new(AtomicU64::new(1)),
        })
    }

    /// Remove a node from the network; its future traffic becomes NoRoute.
    pub fn deregister(&self, id: &NodeId) {
        self.core.state.lock().registry.remove(id);
    }

    /// Override the latency model of one directed link.
    pub fn set_link_latency(&self, link: LinkKey, model: LatencyModel) {
        self.core.state.lock().link_latency.insert(link, model);
    }

    /// The latency model currently governing `link`: the per-link override
    /// if one was set, the network default otherwise. Replica placement
    /// policies use this to rank candidate sites by proximity.
    pub fn link_latency(&self, link: &LinkKey) -> LatencyModel {
        let state = self.core.state.lock();
        state
            .link_latency
            .get(link)
            .unwrap_or(&state.default_latency)
            .clone()
    }

    /// Install (replace) the fault plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.core.state.lock().fault_plan = plan;
    }

    /// Install a telemetry handle: each link's counters become the
    /// registry's `link.*{src->dst}` entries, latencies feed the
    /// `net.latency_ns` histogram, and every routing fault emits a trace
    /// event. Defaults to [`Telemetry::disabled`]. Call it before any
    /// traffic: a link's counters are bound to the registry at its first
    /// routed message.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        let mut st = self.core.state.lock();
        debug_assert!(st.links.is_empty(), "set_telemetry after traffic");
        st.telemetry = telemetry;
    }

    /// Tear the network down: deregister every node and drop all scheduled
    /// events. Called automatically on drop; idempotent. This also breaks
    /// reference cycles through installed handlers (handler closures
    /// typically capture endpoints, which point back here).
    pub fn shutdown(&mut self) {
        self.core.state.lock().registry.clear();
        self.core.engine.clear();
    }
}

impl Drop for VirtualNetwork {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A node's attachment point to the virtual network.
///
/// Cloning an endpoint shares its node id and correlation counter, which
/// is how a site host hands its sending side to its service container.
#[derive(Clone)]
pub struct Endpoint {
    id: NodeId,
    core: Arc<NetCore>,
    clock: Arc<SimClock>,
    next_correlation: Arc<AtomicU64>,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish()
    }
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> &NodeId {
        &self.id
    }

    /// The shared experiment clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The network's event engine (for pumping deliveries and arming
    /// virtual timers).
    pub fn engine(&self) -> Arc<EventEngine> {
        Arc::clone(&self.core.engine)
    }

    /// Allocate a fresh correlation id, unique per endpoint.
    pub fn next_correlation(&self) -> u64 {
        self.next_correlation.fetch_add(1, Ordering::Relaxed)
    }

    /// The next correlation id this endpoint would hand out. Checkpoints
    /// record this so a restarted node's fresh ids land above the marks
    /// remote at-most-once windows hold for it.
    pub fn correlation_watermark(&self) -> u64 {
        self.next_correlation.load(Ordering::Relaxed)
    }

    /// Fast-forward the correlation counter to at least `watermark`. Used
    /// when resuming from a checkpoint: a fresh endpoint restarts at 1, and
    /// without this its new request ids would collide with entries the
    /// remote servers' at-most-once caches restored, silently replaying
    /// stale responses.
    pub fn advance_correlation_to(&self, watermark: u64) {
        self.next_correlation
            .fetch_max(watermark, Ordering::Relaxed);
    }

    /// Install (replace) this node's delivery handler: incoming envelopes
    /// become scheduled events on the network's [`EventEngine`] and run
    /// `handler` when virtual time reaches their delivery timestamp. Event
    /// order is a pure function of the seed and fault plan.
    pub fn install_handler(&self, handler: impl Fn(Envelope) + Send + Sync + 'static) {
        let handler: Handler = Arc::new(handler);
        self.core
            .state
            .lock()
            .registry
            .insert(self.id.clone(), Some(handler));
    }

    /// Post a message onto the network.
    pub fn send(
        &self,
        dst: NodeId,
        service: impl Into<String>,
        kind: MessageKind,
        correlation_id: u64,
        payload: Bytes,
    ) {
        let env = Envelope {
            seq: 0,
            src: self.id.clone(),
            dst,
            service: service.into(),
            kind,
            correlation_id,
            sent_at: self.clock.now(),
            latency: SimTime::ZERO,
            payload,
        };
        self.core.route(env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PartitionWindow;

    fn net() -> VirtualNetwork {
        VirtualNetwork::new(NetworkConfig::default())
    }

    /// Install a handler on `ep` that collects what it is delivered.
    fn inbox(ep: &Endpoint) -> Arc<Mutex<Vec<Envelope>>> {
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        ep.install_handler(move |env| sink.lock().push(env));
        got
    }

    /// Run every scheduled delivery, then take what `inbox` collected.
    fn delivered(net: &VirtualNetwork, inbox: &Mutex<Vec<Envelope>>) -> Vec<Envelope> {
        net.engine().run_until_idle();
        std::mem::take(&mut *inbox.lock())
    }

    #[test]
    fn basic_delivery() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let b_in = inbox(&b);
        a.send(
            b.id().clone(),
            "svc",
            MessageKind::OneWay,
            0,
            Bytes::from_static(b"hello"),
        );
        let got = delivered(&net, &b_in);
        let env = &got[0];
        assert_eq!(env.src.as_str(), "a");
        assert_eq!(env.service, "svc");
        assert_eq!(&env.payload[..], b"hello");
    }

    #[test]
    fn latency_is_charged_virtually() {
        let net = VirtualNetwork::new(NetworkConfig {
            default_latency: LatencyModel::Fixed(SimTime::from_millis(30)),
            ..Default::default()
        });
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let b_in = inbox(&b);
        net.clock().advance_to(SimTime::from_secs(1));
        let t0 = std::time::Instant::now();
        a.send(b.id().clone(), "s", MessageKind::OneWay, 0, Bytes::new());
        let env = delivered(&net, &b_in).remove(0);
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(100),
            "no real sleep"
        );
        assert_eq!(env.sent_at, SimTime::from_secs(1));
        assert_eq!(env.latency, SimTime::from_millis(30));
        assert_eq!(env.delivered_at(), SimTime::from_millis(1030));
        assert_eq!(net.clock().now(), SimTime::from_millis(1030));
    }

    #[test]
    fn dropped_message_never_arrives() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let b_in = inbox(&b);
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("a", "b"), 0);
        net.set_fault_plan(plan);
        a.send(b.id().clone(), "s", MessageKind::Request, 7, Bytes::new());
        assert!(delivered(&net, &b_in).is_empty());
        // Next message sails through (index 1).
        a.send(b.id().clone(), "s", MessageKind::Request, 8, Bytes::new());
        let got = delivered(&net, &b_in);
        assert_eq!(got[0].correlation_id, 8);
    }

    #[test]
    fn reset_notifies_sender_immediately() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let (a_in, b_in) = (inbox(&a), inbox(&b));
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("a", "b"), 0);
        net.set_fault_plan(plan);
        a.send(b.id().clone(), "s", MessageKind::Request, 99, Bytes::new());
        let notice_env = delivered(&net, &a_in).remove(0);
        assert_eq!(notice_env.kind, MessageKind::Control);
        let notice = ControlNotice::from_bytes(&notice_env.payload).unwrap();
        assert_eq!(
            notice,
            ControlNotice::LinkReset {
                dst: NodeId::new("b"),
                correlation_id: 99
            }
        );
        assert!(delivered(&net, &b_in).is_empty());
    }

    #[test]
    fn a_reset_reply_notifies_the_requester_not_the_replier() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let (a_in, b_in) = (inbox(&a), inbox(&b));
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("b", "a"), 0);
        net.set_fault_plan(plan);
        b.send(a.id().clone(), "s", MessageKind::Reply, 12, Bytes::new());
        let notice_env = delivered(&net, &a_in).remove(0);
        assert_eq!(
            ControlNotice::from_bytes(&notice_env.payload).unwrap(),
            ControlNotice::LinkReset {
                dst: NodeId::new("a"),
                correlation_id: 12
            }
        );
        assert!(delivered(&net, &b_in).is_empty());
    }

    #[test]
    fn control_notices_are_stamped_and_ordered() {
        // Satellite fix: notices must carry the clock time and a per-node
        // sequence so logs can order them — not seq 0 / t=0.
        let net = net();
        let a = net.endpoint("a").unwrap();
        let _b = net.endpoint("b").unwrap();
        let a_in = inbox(&a);
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("a", "b"), 0);
        plan.reset_at(LinkKey::new("a", "b"), 1);
        net.set_fault_plan(plan);
        net.clock().advance_to(SimTime::from_secs(5));
        a.send(NodeId::new("b"), "s", MessageKind::Request, 1, Bytes::new());
        net.clock().advance_to(SimTime::from_secs(6));
        a.send(NodeId::new("b"), "s", MessageKind::Request, 2, Bytes::new());
        let got = delivered(&net, &a_in);
        let (first, second) = (&got[0], &got[1]);
        assert_eq!(first.sent_at, SimTime::from_secs(5));
        assert_eq!(second.sent_at, SimTime::from_secs(6));
        assert_eq!(first.seq, 0);
        assert_eq!(second.seq, 1);
    }

    #[test]
    fn unknown_destination_yields_no_route() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let a_in = inbox(&a);
        a.send(
            NodeId::new("ghost"),
            "s",
            MessageKind::Request,
            5,
            Bytes::new(),
        );
        let env = delivered(&net, &a_in).remove(0);
        let notice = ControlNotice::from_bytes(&env.payload).unwrap();
        assert_eq!(
            notice,
            ControlNotice::NoRoute {
                dst: NodeId::new("ghost"),
                correlation_id: 5
            }
        );
    }

    #[test]
    fn deregistered_node_becomes_unroutable() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let a_in = inbox(&a);
        net.deregister(b.id());
        a.send(b.id().clone(), "s", MessageKind::Request, 1, Bytes::new());
        let env = delivered(&net, &a_in).remove(0);
        assert!(matches!(
            ControlNotice::from_bytes(&env.payload).unwrap(),
            ControlNotice::NoRoute { .. }
        ));
    }

    #[test]
    fn node_without_handler_drops_with_a_loss_notice() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let a_in = inbox(&a);
        a.send(b.id().clone(), "s", MessageKind::Request, 3, Bytes::new());
        let env = delivered(&net, &a_in).remove(0);
        assert_eq!(
            ControlNotice::from_bytes(&env.payload).unwrap(),
            ControlNotice::Dropped {
                dst: NodeId::new("b"),
                correlation_id: 3
            }
        );
        assert_eq!(net.stats().link(&LinkKey::new("a", "b")).dropped, 1);
        // Installing a handler makes the node reachable.
        let b_in = inbox(&b);
        a.send(b.id().clone(), "s", MessageKind::Request, 4, Bytes::new());
        assert_eq!(delivered(&net, &b_in)[0].correlation_id, 4);
    }

    #[test]
    fn partition_drops_a_window_of_messages() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let b_in = inbox(&b);
        let mut plan = FaultPlan::reliable();
        plan.partition(PartitionWindow {
            link: LinkKey::new("a", "b"),
            from_index: 1,
            to_index: 3,
        });
        net.set_fault_plan(plan);
        for i in 0..4u64 {
            a.send(b.id().clone(), "s", MessageKind::OneWay, i, Bytes::new());
        }
        let got: Vec<u64> = delivered(&net, &b_in)
            .iter()
            .map(|e| e.correlation_id)
            .collect();
        assert_eq!(got, vec![0, 3]);
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let b_in = inbox(&b);
        let mut plan = FaultPlan::reliable();
        plan.dup_at(LinkKey::new("a", "b"), 0);
        net.set_fault_plan(plan);
        a.send(b.id().clone(), "s", MessageKind::Request, 41, Bytes::new());
        a.send(b.id().clone(), "s", MessageKind::Request, 42, Bytes::new());
        let got: Vec<u64> = delivered(&net, &b_in)
            .iter()
            .map(|e| e.correlation_id)
            .collect();
        // Index 0 arrives twice (same seq/correlation), index 1 once.
        assert_eq!(got, vec![41, 41, 42]);
        let s = net.stats().link(&LinkKey::new("a", "b"));
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 3);
        assert_eq!(s.duplicated, 1);
    }

    #[test]
    fn stats_reflect_traffic() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let b_in = inbox(&b);
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("a", "b"), 1);
        net.set_fault_plan(plan);
        for _ in 0..3 {
            a.send(
                b.id().clone(),
                "s",
                MessageKind::OneWay,
                0,
                Bytes::from_static(b"xyz"),
            );
        }
        // Routing is synchronous: every delivery is already scheduled.
        assert_eq!(delivered(&net, &b_in).len(), 2);
        let s = net.stats().link(&LinkKey::new("a", "b"));
        assert_eq!(s.sent, 3);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.bytes_delivered, 6);
    }

    #[test]
    fn stats_are_the_trace_link_counters() {
        let net = VirtualNetwork::new(NetworkConfig {
            default_latency: LatencyModel::Uniform {
                min: SimTime::from_millis(5),
                max: SimTime::from_millis(60),
            },
            ..Default::default()
        });
        let telemetry = Telemetry::recording();
        net.set_telemetry(telemetry.clone());
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let _no_handler = net.endpoint("c").unwrap();
        let (_a_in, _b_in) = (inbox(&a), inbox(&b));
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("a", "b"), 1)
            .reset_at(LinkKey::new("a", "b"), 2)
            .dup_at(LinkKey::new("a", "b"), 3)
            .dup_at(LinkKey::new("a", "c"), 1);
        net.set_fault_plan(plan);
        let send = |from: &Endpoint, to: &str, kind, corr, body: &'static [u8]| {
            from.send(NodeId::new(to), "s", kind, corr, Bytes::from_static(body))
        };
        for corr in 0..5 {
            send(&a, "b", MessageKind::Request, corr, b"xyz");
            send(&b, "a", MessageKind::Reply, corr, b"ok");
        }
        send(&a, "c", MessageKind::Request, 5, b"");
        send(&a, "c", MessageKind::Request, 6, b"");
        send(&a, "ghost", MessageKind::Request, 7, b"");
        net.engine().run_until_idle();

        let stats = net.stats();
        let totals = stats.totals();
        assert_eq!(
            (
                totals.delivered,
                totals.dropped,
                totals.reset,
                totals.duplicated
            ),
            (12, 5, 1, 2),
            "every routing outcome happened"
        );
        let snapshot = telemetry.metrics_snapshot();
        let counter = |name: String| {
            let found = snapshot.counters.iter().find(|(n, _)| *n == name);
            found.map(|(_, v)| *v)
        };
        let all = stats.all();
        let links: Vec<String> = all
            .keys()
            .map(|l| format!("{}->{}", l.src, l.dst))
            .collect();
        assert_eq!(
            links,
            ["a->b", "a->c", "a->ghost", "b->a"],
            "self-links take no counters"
        );
        for (label, s) in links.iter().zip(all.values()) {
            let fact = |fact: &str| counter(format!("link.{fact}{{{label}}}"));
            assert_eq!(fact("sent"), Some(s.sent), "{label}");
            assert_eq!(fact("delivered"), Some(s.delivered), "{label}");
            assert_eq!(fact("bytes"), Some(s.bytes_delivered), "{label}");
            assert_eq!(fact("dropped"), Some(s.dropped), "{label}");
            assert_eq!(fact("reset"), Some(s.reset), "{label}");
            assert_eq!(fact("duplicated"), Some(s.duplicated), "{label}");
        }
        let link_counters = snapshot
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("link."));
        assert_eq!(link_counters.count(), 6 * all.len());
        let (name, latency) = &snapshot.histograms[0];
        assert_eq!(name, "net.latency_ns");
        assert_eq!(latency.count, totals.delivered);
        assert_eq!(latency.sum_ns, totals.total_latency.as_nanos());
    }

    #[test]
    fn correlation_ids_are_unique_per_endpoint() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let ids: Vec<u64> = (0..100).map(|_| a.next_correlation()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn duplicate_registration_is_an_error() {
        let net = net();
        let _a = net.endpoint("a").unwrap();
        let err = net.endpoint("a").unwrap_err();
        assert_eq!(err, NetworkError::DuplicateNode(NodeId::new("a")));
        assert!(err.to_string().contains("registered twice"));
        // Deregistering frees the name again.
        net.deregister(&NodeId::new("a"));
        assert!(net.endpoint("a").is_ok());
    }

    #[test]
    fn per_link_latency_override() {
        let net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let b_in = inbox(&b);
        net.set_link_latency(
            LinkKey::new("a", "b"),
            LatencyModel::Fixed(SimTime::from_millis(250)),
        );
        a.send(b.id().clone(), "s", MessageKind::OneWay, 0, Bytes::new());
        let env = delivered(&net, &b_in).remove(0);
        assert_eq!(env.latency, SimTime::from_millis(250));
    }

    #[test]
    fn handler_delivery_is_scheduled_on_the_engine() {
        let net = VirtualNetwork::new(NetworkConfig {
            default_latency: LatencyModel::Fixed(SimTime::from_millis(40)),
            ..Default::default()
        });
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        let seen: Arc<Mutex<Vec<(u64, SimTime)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let clock = net.clock();
        b.install_handler(move |env| {
            sink.lock().push((env.correlation_id, clock.now()));
        });
        a.send(b.id().clone(), "s", MessageKind::OneWay, 7, Bytes::new());
        // Not delivered yet: it is an event awaiting its timestamp.
        assert!(seen.lock().is_empty());
        assert!(net.engine().run_one());
        let got = seen.lock().clone();
        assert_eq!(got, vec![(7, SimTime::from_millis(40))]);
        assert_eq!(net.clock().now(), SimTime::from_millis(40));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut net = net();
        net.shutdown();
        net.shutdown();
    }

    #[test]
    fn shutdown_breaks_handler_cycles() {
        let mut net = net();
        let a = net.endpoint("a").unwrap();
        let b = net.endpoint("b").unwrap();
        // Handler captures its own endpoint: a cycle through the registry.
        let a2 = a.clone();
        b.install_handler(move |env| {
            let _ = &a2;
            drop(env);
        });
        a.send(b.id().clone(), "s", MessageKind::OneWay, 0, Bytes::new());
        net.shutdown();
        assert!(!net.engine().run_one());
    }
}
