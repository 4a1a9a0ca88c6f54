//! RPC over the virtual grid network.
//!
//! A thin request/reply layer between endpoints: correlation-id
//! multiplexing, per-attempt timeouts, configurable retransmission, and
//! explicit surfacing of the three failure flavours a caller can observe —
//! **timeout** (message or reply silently lost), **link reset** (immediate
//! connection error), and **service fault** (the server answered with an
//! error). NTCP's at-most-once guarantee composes from this layer's stable
//! `request_id` across retransmissions plus the server's per-client
//! window: the reply to the client's latest request, replayed to a
//! retransmission of it, and a refusal for any request below it.
//!
//! A reply for no open call, or for a call already complete (a
//! duplicated request's second answer, or the answer to an abandoned
//! call), is dropped and counted as `rpc.orphan_replies`.
//!
//! Virtual time: the mux is a handler on the network's [`EventEngine`] —
//! replies and control notices are scheduled events, and attempt timeouts
//! are **virtual timers**, not wall-clock deadlines. A caller blocked in
//! [`RpcCompletion::wait`] pumps the engine: it runs deliveries (advancing
//! the shared clock to each event's timestamp) and, only when no delivery
//! is pending, lets the earliest timer fire. A fault-schedule run with
//! losses therefore completes in milliseconds of wall time, and nothing
//! waits on real time. Only the caller running the experiment may wait: a
//! handler that called back into the engine would re-enter its own node's
//! lock.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use serde_json::{RawValue, Value};

use neesgrid_gridsim::{
    ControlNotice, Endpoint, Envelope, EventEngine, MessageKind, NodeId, SimTime, TimerId,
};
use neesgrid_gsi::DistinguishedName;
use neesgrid_telemetry::{CounterHandle, Field, FieldList, HistogramHandle, SpanId, Telemetry};

use crate::fault::ServiceFault;

/// A serialized service request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RpcRequest {
    /// Client-unique id, *stable across retransmissions* — the at-most-once
    /// key.
    pub request_id: u64,
    /// The authenticated caller (end-entity DN).
    pub caller: DistinguishedName,
    /// Operation name, e.g. `"propose"`.
    pub operation: String,
    /// Operation arguments.
    pub body: Value,
}

/// Outcome carried inside an [`RpcResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RpcOutcome {
    /// Success with a result document.
    Ok(Value),
    /// Failure with a structured fault.
    Fault(ServiceFault),
}

/// A serialized service response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RpcResponse {
    /// Echoes the request id.
    pub request_id: u64,
    /// Result or fault.
    pub outcome: RpcOutcome,
}

/// Client-observed RPC failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcError {
    /// No reply within the per-attempt deadline, after all attempts.
    Timeout {
        /// How many attempts were made.
        attempts: u32,
    },
    /// The network reported a connection reset.
    LinkReset,
    /// The destination node does not exist.
    NoRoute,
    /// The service returned a fault.
    Fault(ServiceFault),
    /// The local mux has shut down.
    MuxClosed,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Timeout { attempts } => write!(f, "timed out after {attempts} attempt(s)"),
            RpcError::LinkReset => write!(f, "link reset"),
            RpcError::NoRoute => write!(f, "no route to destination"),
            RpcError::Fault(fault) => write!(f, "service fault: {fault}"),
            RpcError::MuxClosed => write!(f, "rpc mux closed"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Retransmission policy for one logical call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries).
    pub max_attempts: u32,
    /// Retry after a silent timeout.
    pub retry_on_timeout: bool,
    /// Retry after an immediate link reset.
    pub retry_on_reset: bool,
}

impl RetryPolicy {
    /// One attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            retry_on_timeout: false,
            retry_on_reset: false,
        }
    }

    /// Retry all transient failures up to `max_attempts` total attempts.
    pub fn transient(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            retry_on_timeout: true,
            retry_on_reset: true,
        }
    }

    /// Retry timeouts only — the incomplete policy the MOST coordinator
    /// shipped with (§3.4): a final link reset is fatal under this policy.
    pub fn timeouts_only(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            retry_on_timeout: true,
            retry_on_reset: false,
        }
    }
}

/// A reply envelope as the caller reads it: [`RpcResponse`] with the
/// result document kept as checked JSON text.
#[derive(Deserialize)]
struct ReplyEnvelope {
    // Read for its shape only: the envelope header already correlates.
    #[allow(dead_code)]
    request_id: u64,
    outcome: ReplyOutcome,
}

#[derive(Deserialize)]
enum ReplyOutcome {
    Ok(RawValue),
    Fault(ServiceFault),
}

/// A successful reply plus its observed virtual round-trip time.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcReply {
    /// The service's result document, as the JSON text it arrived in. Its
    /// syntax was checked on arrival; its shape is checked when decoded.
    body: RawValue,
    /// Virtual time from first send to reply delivery.
    pub virtual_rtt: SimTime,
    /// Attempts actually used.
    pub attempts: u32,
}

impl RpcReply {
    /// Decode the result document into `T`.
    pub fn decode<T: DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_str(self.body.get())
    }

    /// The result document's JSON text, as it arrived.
    pub fn into_body(self) -> RawValue {
        self.body
    }

    /// The result document as a `Value` tree.
    pub fn value(&self) -> Value {
        self.decode()
            .expect("a reply body's syntax is checked when it arrives")
    }
}

/// A request's wire bytes, written straight from the body's type. They are
/// exactly `to_vec(&RpcRequest { body: to_value(body), .. })`: the members
/// in the sorted key order the derive writes `RpcRequest`'s.
fn request_payload<B: Serialize + ?Sized>(
    request_id: u64,
    caller: &DistinguishedName,
    operation: &str,
    body: &B,
) -> Bytes {
    let mut out = String::from("{\"body\":");
    body.write_json(&mut out);
    out.push_str(",\"caller\":");
    caller.write_json(&mut out);
    out.push_str(",\"operation\":");
    operation.write_json(&mut out);
    out.push_str(",\"request_id\":");
    request_id.write_json(&mut out);
    out.push('}');
    Bytes::from(out.into_bytes())
}

/// A reply's wire bytes, written around the document `write` appends into
/// a buffer of `capacity` bytes. They are exactly
/// `to_vec(&RpcResponse { request_id, outcome: RpcOutcome::Ok(doc) })`:
/// the members in the sorted key order the derive writes
/// `RpcResponse`'s. When `write` faults, whatever it appended is discarded
/// and the bytes are those of `RpcOutcome::Fault`.
pub(crate) fn reply_payload(
    request_id: u64,
    capacity: usize,
    write: impl FnOnce(&mut String) -> Result<(), ServiceFault>,
) -> String {
    let mut out = String::with_capacity(capacity);
    out.push_str("{\"outcome\":{\"Ok\":");
    match write(&mut out) {
        Ok(()) => {
            out.push_str("},\"request_id\":");
            request_id.write_json(&mut out);
            out.push('}');
        }
        Err(fault) => {
            out.clear();
            RpcResponse {
                request_id,
                outcome: RpcOutcome::Fault(fault),
            }
            .write_json(&mut out);
        }
    }
    out
}

/// Pre-resolved RPC metric instruments, shared by every call slot so the
/// per-call hot path never locks the metrics registry or looks up a name.
/// Detached (updates discarded) until a recording telemetry handle is
/// installed.
#[derive(Clone)]
struct RpcInstruments {
    calls: CounterHandle,
    retries: CounterHandle,
    failures: CounterHandle,
    completion_waits: CounterHandle,
    rtt: HistogramHandle,
}

impl RpcInstruments {
    fn new(telemetry: &Telemetry) -> Self {
        RpcInstruments {
            calls: telemetry.counter_handle("rpc.calls"),
            retries: telemetry.counter_handle("rpc.retries"),
            failures: telemetry.counter_handle("rpc.failures"),
            completion_waits: telemetry.counter_handle("rpc.completion_waits"),
            rtt: telemetry.histogram_handle("rpc.rtt_ns"),
        }
    }
}

/// One in-flight logical call: the retransmission state machine.
///
/// Mutated from engine event actions (reply/notice deliveries, timer fires)
/// under its own lock; the lock is never held while waiting.
struct CallSlot {
    engine: Arc<EventEngine>,
    endpoint: Endpoint,
    dst: NodeId,
    service: String,
    operation: String,
    request_id: u64,
    payload: Bytes,
    attempt_timeout: Duration,
    policy: RetryPolicy,
    telemetry: Telemetry,
    instruments: RpcInstruments,
    span: SpanId,
    state: Mutex<SlotState>,
}

struct SlotState {
    attempts: u32,
    first_send: SimTime,
    timer: Option<TimerId>,
    result: Option<Result<RpcReply, RpcError>>,
}

impl CallSlot {
    fn attempt_timeout_virtual(&self) -> SimTime {
        SimTime::from_secs_f64(self.attempt_timeout.as_secs_f64())
    }

    /// Send one attempt and arm the virtual attempt timer. Retries charge
    /// one attempt-timeout of virtual back-off *after* the retransmission is
    /// posted, so the resent envelope carries the pre-advance timestamp
    /// (matching the retired blocking implementation exactly).
    fn send_attempt(self: &Arc<Self>, st: &mut SlotState) {
        st.attempts += 1;
        self.endpoint.send(
            self.dst.clone(),
            &self.service,
            MessageKind::Request,
            self.request_id,
            self.payload.clone(),
        );
        if st.attempts > 1 {
            self.endpoint
                .clock()
                .advance(self.attempt_timeout_virtual());
            if self.telemetry.enabled() {
                self.instruments.retries.add(1);
                self.telemetry.instant(
                    self.endpoint.clock().now().as_nanos(),
                    "rpc",
                    "retry",
                    [
                        ("dst", Field::Str(self.dst.to_string())),
                        ("op", Field::Str(self.operation.clone())),
                        ("attempt", Field::U64(st.attempts as u64)),
                        ("corr", Field::U64(self.request_id)),
                    ],
                );
            }
        }
        let deadline = self.endpoint.clock().now() + self.attempt_timeout_virtual();
        // First-attempt timers are implied by the open call span; only
        // retransmission timers are interesting enough for the trace (and
        // the flight-recorder "pending retransmission timers" story).
        if self.telemetry.enabled() && st.attempts > 1 {
            self.telemetry.instant(
                self.endpoint.clock().now().as_nanos(),
                "rpc",
                "timer_armed",
                [
                    ("corr", Field::U64(self.request_id)),
                    ("deadline_ns", Field::U64(deadline.as_nanos())),
                ],
            );
        }
        let slot = Arc::clone(self);
        st.timer = Some(
            self.engine
                .schedule_timer(deadline, move || slot.on_timer()),
        );
    }

    fn disarm(&self, st: &mut SlotState) {
        if let Some(id) = st.timer.take() {
            self.engine.cancel_timer(id);
        }
    }

    fn complete(&self, st: &mut SlotState, result: Result<RpcReply, RpcError>) {
        self.disarm(st);
        if self.telemetry.enabled() {
            self.note_completion(st.attempts, &result);
        }
        st.result = Some(result);
    }

    /// Close the call's span and update RPC metrics; a terminal transport
    /// failure (retries exhausted, final reset, no route) additionally
    /// triggers a flight-recorder dump — this is the "RPC exhausts retries"
    /// trigger for the step-1493 post-mortem.
    fn note_completion(&self, attempts: u32, result: &Result<RpcReply, RpcError>) {
        let now_ns = self.endpoint.clock().now().as_nanos();
        // dst/op live on the span-start line; the end line carries only the
        // outcome, which keeps the per-call hot path free of string clones.
        let mut fields = FieldList::from([("attempts", Field::U64(attempts as u64))]);
        match result {
            Ok(reply) => {
                self.instruments
                    .rtt
                    .observe_ns(reply.virtual_rtt.as_nanos());
                fields.push("ok", Field::Bool(true));
            }
            Err(err) => {
                self.instruments.failures.add(1);
                fields.push("ok", Field::Bool(false));
                fields.push("error", Field::Str(err.to_string()));
            }
        }
        self.telemetry.span_end(now_ns, self.span, fields);
        if let Err(err @ (RpcError::Timeout { .. } | RpcError::LinkReset | RpcError::NoRoute)) =
            result
        {
            self.telemetry.flight_dump(
                now_ns,
                &format!(
                    "rpc {} to {} failed after {attempts} attempt(s): {err}",
                    self.operation, self.dst
                ),
            );
        }
    }

    /// Take `env` as this call's reply: false, and nothing changes, when
    /// the call is already complete.
    fn on_reply(self: &Arc<Self>, env: Envelope) -> bool {
        let mut st = self.state.lock();
        if st.result.is_some() {
            return false;
        }
        let response: Result<ReplyEnvelope, _> = serde_json::from_slice(&env.payload);
        let result = match response {
            Err(_) => Err(RpcError::Fault(ServiceFault::permanent(
                "BadResponse",
                "undecodable response payload",
            ))),
            Ok(response) => match response.outcome {
                ReplyOutcome::Ok(body) => Ok(RpcReply {
                    body,
                    virtual_rtt: env.delivered_at().saturating_sub(st.first_send),
                    attempts: st.attempts,
                }),
                ReplyOutcome::Fault(fault) => Err(RpcError::Fault(fault)),
            },
        };
        self.complete(&mut st, result);
        true
    }

    fn on_notice(self: &Arc<Self>, notice: ControlNotice) {
        let mut st = self.state.lock();
        if st.result.is_some() {
            return;
        }
        match notice {
            ControlNotice::LinkReset { .. } => {
                if self.policy.retry_on_reset && st.attempts < self.policy.max_attempts {
                    self.disarm(&mut st);
                    self.send_attempt(&mut st);
                } else {
                    self.complete(&mut st, Err(RpcError::LinkReset));
                }
            }
            ControlNotice::NoRoute { .. } => {
                self.complete(&mut st, Err(RpcError::NoRoute));
            }
            // A silent loss, surfaced deterministically: semantically this
            // *is* the attempt timeout (the caller waited out its deadline),
            // so it follows the timeout retry policy and error shape exactly.
            ControlNotice::Dropped { .. } => {
                let attempts = st.attempts;
                if self.policy.retry_on_timeout && attempts < self.policy.max_attempts {
                    self.disarm(&mut st);
                    self.send_attempt(&mut st);
                } else {
                    self.complete(&mut st, Err(RpcError::Timeout { attempts }));
                }
            }
        }
    }

    /// The virtual attempt timer fired: no reply and no loss notice inside
    /// the attempt window (a wedged or silent peer).
    fn on_timer(self: &Arc<Self>) {
        let mut st = self.state.lock();
        if st.result.is_some() {
            return;
        }
        st.timer = None;
        let attempts = st.attempts;
        if self.policy.retry_on_timeout && attempts < self.policy.max_attempts {
            self.send_attempt(&mut st);
        } else {
            self.complete(&mut st, Err(RpcError::Timeout { attempts }));
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().result.is_some()
    }
}

/// Handle to one in-flight [`RpcMux::call_async`] request.
///
/// Poll with [`RpcCompletion::is_done`], or block on
/// [`RpcCompletion::wait`] — waiting pumps the shared event engine, so a
/// single thread can drive any number of overlapping calls (see
/// [`wait_all`]). Dropping the handle abandons the call and releases its
/// timer and mux slot.
pub struct RpcCompletion {
    slot: Arc<CallSlot>,
    calls: Arc<Mutex<HashMap<u64, Arc<CallSlot>>>>,
}

impl RpcCompletion {
    /// Whether a result is available (reply, fault, or exhausted retries).
    pub fn is_done(&self) -> bool {
        self.slot.is_done()
    }

    /// The stable request id (also the correlation id on the wire).
    pub fn request_id(&self) -> u64 {
        self.slot.request_id
    }

    /// Block until this call completes, pumping the event engine.
    pub fn wait(self) -> Result<RpcReply, RpcError> {
        let engine = Arc::clone(&self.slot.engine);
        self.slot.instruments.completion_waits.add(1);
        engine.run_until(|| self.slot.is_done());
        self.finish()
    }

    /// Take the result without pumping (used by [`wait_all`] after its own
    /// pump). An unfinished call yields [`RpcError::MuxClosed`].
    fn finish(self) -> Result<RpcReply, RpcError> {
        self.slot
            .state
            .lock()
            .result
            .take()
            .unwrap_or(Err(RpcError::MuxClosed))
    }
}

impl Drop for RpcCompletion {
    fn drop(&mut self) {
        self.calls.lock().remove(&self.slot.request_id);
        let mut st = self.slot.state.lock();
        self.slot.disarm(&mut st);
    }
}

/// Wait for a batch of completions, pumping their shared engine once.
///
/// Results come back in argument order. All completions must come from
/// muxes on the same [`VirtualNetwork`](neesgrid_gridsim::VirtualNetwork)
/// (they share its engine) — which is every deployment this repo builds.
pub fn wait_all(completions: Vec<RpcCompletion>) -> Vec<Result<RpcReply, RpcError>> {
    let Some(first) = completions.first() else {
        return Vec::new();
    };
    let engine = Arc::clone(&first.slot.engine);
    first.slot.instruments.completion_waits.add(1);
    engine.run_until(|| completions.iter().all(|c| c.is_done()));
    completions.into_iter().map(|c| c.finish()).collect()
}

/// Correlation-id demultiplexer over one endpoint.
///
/// One mux serves any number of concurrent callers (the coordinator fans
/// proposals out to all sites through a single mux). Construction installs
/// an event-engine handler on the endpoint: replies and control notices
/// resolve in-flight [`CallSlot`]s.
pub struct RpcMux {
    endpoint: Endpoint,
    engine: Arc<EventEngine>,
    calls: Arc<Mutex<HashMap<u64, Arc<CallSlot>>>>,
    /// The registry's `rpc.orphan_replies`: replies no open call took.
    orphans: Arc<Mutex<CounterHandle>>,
    telemetry: Mutex<Telemetry>,
    instruments: Mutex<RpcInstruments>,
}

impl RpcMux {
    /// Wrap an endpoint, switching it to handler (event-scheduled) delivery.
    pub fn new(endpoint: Endpoint) -> Arc<Self> {
        let engine = endpoint.engine();
        let calls: Arc<Mutex<HashMap<u64, Arc<CallSlot>>>> = Arc::new(Mutex::new(HashMap::new()));
        let orphans = Arc::new(Mutex::new(CounterHandle::default()));
        let handler_calls = Arc::clone(&calls);
        let handler_orphans = Arc::clone(&orphans);
        endpoint.install_handler(move |env| match env.kind {
            MessageKind::Reply => {
                let slot = handler_calls.lock().get(&env.correlation_id).cloned();
                if !slot.is_some_and(|slot| slot.on_reply(env)) {
                    handler_orphans.lock().add(1);
                }
            }
            MessageKind::Control => {
                if let Some(notice) = ControlNotice::from_bytes(&env.payload) {
                    let slot = handler_calls.lock().get(&notice.correlation_id()).cloned();
                    if let Some(slot) = slot {
                        slot.on_notice(notice);
                    }
                }
            }
            // A mux only originates calls; traffic addressed to it as a
            // server is dropped.
            MessageKind::Request | MessageKind::OneWay => {}
        });
        Arc::new(RpcMux {
            endpoint,
            engine,
            calls,
            orphans,
            telemetry: Mutex::new(Telemetry::disabled()),
            instruments: Mutex::new(RpcInstruments::new(&Telemetry::disabled())),
        })
    }

    /// Install a telemetry handle: subsequent calls get an `rpc/call` span
    /// (latency histogram, retry counters) and terminal transport failures
    /// trigger a flight-recorder dump. Defaults to disabled.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *self.orphans.lock() = telemetry.lazy_counter("rpc.orphan_replies");
        *self.instruments.lock() = RpcInstruments::new(&telemetry);
        *self.telemetry.lock() = telemetry;
    }

    /// The underlying endpoint's node id.
    pub fn node(&self) -> &NodeId {
        self.endpoint.id()
    }

    /// The event engine this mux schedules on.
    pub fn engine(&self) -> &Arc<EventEngine> {
        &self.engine
    }

    /// The endpoint's correlation watermark (see
    /// [`Endpoint::correlation_watermark`]); recorded in checkpoints.
    pub fn correlation_watermark(&self) -> u64 {
        self.endpoint.correlation_watermark()
    }

    /// Fast-forward the endpoint's correlation counter past a restored
    /// checkpoint watermark (see [`Endpoint::advance_correlation_to`]).
    pub fn advance_correlation_to(&self, watermark: u64) {
        self.endpoint.advance_correlation_to(watermark);
    }

    /// Start a request with retransmission per `policy`, returning a
    /// completion to poll or wait on.
    ///
    /// (The argument list mirrors the wire fields; a params struct would
    /// just restate them.)
    ///
    /// The same `request_id` (also used as the correlation id) is reused on
    /// every attempt so the server's at-most-once window can replay its
    /// answer instead of running it again.
    #[allow(clippy::too_many_arguments)]
    pub fn call_async<B: Serialize>(
        &self,
        dst: &NodeId,
        service: &str,
        caller: &DistinguishedName,
        operation: &str,
        body: B,
        attempt_timeout: Duration,
        policy: RetryPolicy,
    ) -> RpcCompletion {
        let request_id = self.endpoint.next_correlation();
        let payload = request_payload(request_id, caller, operation, &body);
        let telemetry = self.telemetry.lock().clone();
        let instruments = self.instruments.lock().clone();
        let span = if telemetry.enabled() {
            instruments.calls.add(1);
            // Known NTCP/OGSI operations tag the span without allocating.
            let op_tag = match operation {
                "propose" => Field::Static("propose"),
                "execute" => Field::Static("execute"),
                "cancel" => Field::Static("cancel"),
                "getStatus" => Field::Static("getStatus"),
                "getTransaction" => Field::Static("getTransaction"),
                "snapshotSite" => Field::Static("snapshotSite"),
                "restoreSite" => Field::Static("restoreSite"),
                other => Field::Str(other.to_string()),
            };
            telemetry.span_start(
                self.endpoint.clock().now().as_nanos(),
                "rpc",
                "call",
                [
                    ("dst", Field::Str(dst.to_string())),
                    ("op", op_tag),
                    ("corr", Field::U64(request_id)),
                ],
            )
        } else {
            SpanId::NONE
        };
        let slot = Arc::new(CallSlot {
            engine: Arc::clone(&self.engine),
            endpoint: self.endpoint.clone(),
            dst: dst.clone(),
            service: service.to_string(),
            operation: operation.to_string(),
            request_id,
            payload,
            attempt_timeout,
            policy,
            telemetry,
            instruments,
            span,
            state: Mutex::new(SlotState {
                attempts: 0,
                first_send: self.endpoint.clock().now(),
                timer: None,
                result: None,
            }),
        });
        // Register before the first send: a zero-latency loss notice is a
        // scheduled event, but another pumper could run it immediately.
        self.calls.lock().insert(request_id, Arc::clone(&slot));
        {
            let mut st = slot.state.lock();
            slot.send_attempt(&mut st);
        }
        RpcCompletion {
            slot,
            calls: Arc::clone(&self.calls),
        }
    }

    /// Issue a request and wait for its outcome (blocking façade over
    /// [`RpcMux::call_async`]).
    #[allow(clippy::too_many_arguments)]
    pub fn call<B: Serialize>(
        &self,
        dst: &NodeId,
        service: &str,
        caller: &DistinguishedName,
        operation: &str,
        body: B,
        attempt_timeout: Duration,
        policy: RetryPolicy,
    ) -> Result<RpcReply, RpcError> {
        self.call_async(
            dst,
            service,
            caller,
            operation,
            body,
            attempt_timeout,
            policy,
        )
        .wait()
    }
}

/// A client bound to one remote service.
#[derive(Clone)]
pub struct RpcClient {
    mux: Arc<RpcMux>,
    dst: NodeId,
    service: String,
    caller: DistinguishedName,
    /// Per-attempt timeout, charged in virtual time.
    pub attempt_timeout: Duration,
    /// Default retry policy.
    pub policy: RetryPolicy,
}

impl RpcClient {
    /// Bind a client to `service` on node `dst`, calling as `caller`.
    pub fn new(
        mux: Arc<RpcMux>,
        dst: NodeId,
        service: impl Into<String>,
        caller: DistinguishedName,
    ) -> Self {
        RpcClient {
            mux,
            dst,
            service: service.into(),
            caller,
            attempt_timeout: Duration::from_millis(100),
            policy: RetryPolicy::transient(4),
        }
    }

    /// Override the retry policy (builder style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Override the per-attempt timeout (builder style).
    pub fn with_attempt_timeout(mut self, t: Duration) -> Self {
        self.attempt_timeout = t;
        self
    }

    /// The remote node this client talks to.
    pub fn destination(&self) -> &NodeId {
        &self.dst
    }

    /// The caller identity requests are issued under.
    pub fn caller(&self) -> &DistinguishedName {
        &self.caller
    }

    /// The shared mux this client issues requests through.
    pub fn mux(&self) -> &Arc<RpcMux> {
        &self.mux
    }

    /// Call `operation` with `body`.
    pub fn call<B: Serialize>(&self, operation: &str, body: B) -> Result<RpcReply, RpcError> {
        self.mux.call(
            &self.dst,
            &self.service,
            &self.caller,
            operation,
            body,
            self.attempt_timeout,
            self.policy,
        )
    }

    /// Start `operation` without waiting (completion-based fan-out).
    pub fn call_async<B: Serialize>(&self, operation: &str, body: B) -> RpcCompletion {
        self.mux.call_async(
            &self.dst,
            &self.service,
            &self.caller,
            operation,
            body,
            self.attempt_timeout,
            self.policy,
        )
    }

    /// Call and keep only the result document, as a `Value` (common case).
    pub fn call_value<B: Serialize>(&self, operation: &str, body: B) -> Result<Value, RpcError> {
        self.call(operation, body).map(|r| r.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_gridsim::{FaultPlan, LatencyModel, LinkKey, NetworkConfig, VirtualNetwork};

    /// A trivial echo responder installed as `name`'s handler.
    fn echo_server(net: &VirtualNetwork, name: &str) {
        let ep = net.endpoint(name).unwrap();
        let reply = ep.clone();
        ep.install_handler(move |env| {
            if env.kind != MessageKind::Request {
                return;
            }
            let req: RpcRequest = serde_json::from_slice(&env.payload).unwrap();
            let response = RpcResponse {
                request_id: req.request_id,
                outcome: if req.operation == "fail" {
                    RpcOutcome::Fault(ServiceFault::permanent("Oops", "asked to fail"))
                } else {
                    RpcOutcome::Ok(serde_json::json!({
                        "echo": req.body,
                        "operation": req.operation,
                    }))
                },
            };
            reply.send(
                env.src,
                &env.service,
                MessageKind::Reply,
                env.correlation_id,
                Bytes::from(serde_json::to_vec(&response).unwrap()),
            );
        });
    }

    fn caller() -> DistinguishedName {
        DistinguishedName::nees_user("NCSA", "tester")
    }

    #[test]
    fn echo_roundtrip() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller());
        let reply = client.call("ping", serde_json::json!({"x": 1})).unwrap();
        assert_eq!(reply.value()["echo"]["x"], 1);
        assert_eq!(reply.value()["operation"], "ping");
        assert_eq!(reply.attempts, 1);
    }

    #[test]
    fn virtual_rtt_reflects_link_latency() {
        let net = VirtualNetwork::new(NetworkConfig {
            default_latency: LatencyModel::Fixed(SimTime::from_millis(40)),
            ..Default::default()
        });
        echo_server(&net, "server");
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller());
        let reply = client.call("ping", Value::Null).unwrap();
        // Request leg + reply leg.
        assert!(
            reply.virtual_rtt >= SimTime::from_millis(80),
            "rtt {}",
            reply.virtual_rtt
        );
    }

    #[test]
    fn fault_is_surfaced() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller());
        match client.call("fail", Value::Null) {
            Err(RpcError::Fault(f)) => assert_eq!(f.code, "Oops"),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn retry_recovers_from_dropped_request() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("client", "server"), 0);
        net.set_fault_plan(plan);
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller())
            .with_attempt_timeout(Duration::from_millis(50));
        let reply = client.call("ping", Value::Null).unwrap();
        assert_eq!(reply.attempts, 2);
    }

    #[test]
    fn retry_recovers_from_dropped_reply() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("server", "client"), 0);
        net.set_fault_plan(plan);
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller())
            .with_attempt_timeout(Duration::from_millis(50));
        let reply = client.call("ping", Value::Null).unwrap();
        assert_eq!(reply.attempts, 2);
    }

    #[test]
    fn no_retry_policy_times_out() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("client", "server"), 0);
        net.set_fault_plan(plan);
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller())
            .with_policy(RetryPolicy::none())
            .with_attempt_timeout(Duration::from_millis(30));
        assert_eq!(
            client.call("ping", Value::Null).unwrap_err(),
            RpcError::Timeout { attempts: 1 }
        );
    }

    #[test]
    fn reset_fails_fast_under_timeouts_only_policy() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("client", "server"), 0);
        net.set_fault_plan(plan);
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller())
            .with_policy(RetryPolicy::timeouts_only(4));
        assert_eq!(
            client.call("ping", Value::Null).unwrap_err(),
            RpcError::LinkReset
        );
    }

    #[test]
    fn reset_recovered_under_transient_policy() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("client", "server"), 0);
        net.set_fault_plan(plan);
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller());
        let reply = client.call("ping", Value::Null).unwrap();
        assert_eq!(reply.attempts, 2);
    }

    /// A reset reply reaches the caller as `LinkReset` at once, as a reset
    /// request does: the transient policy retries it after one attempt
    /// timeout of virtual backoff (100 ms), not after the timeout and the
    /// backoff of a reply that never comes (200 ms).
    #[test]
    fn a_reset_reply_is_retried_at_once_under_transient_policy() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("server", "client"), 0);
        net.set_fault_plan(plan);
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller());
        let reply = client.call("ping", Value::Null).unwrap();
        assert_eq!(reply.attempts, 2);
        assert_eq!(net.clock().now(), SimTime::from_millis(100));
    }

    #[test]
    fn a_reset_reply_fails_fast_under_timeouts_only_policy() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        plan.reset_at(LinkKey::new("server", "client"), 0);
        net.set_fault_plan(plan);
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller())
            .with_policy(RetryPolicy::timeouts_only(4));
        assert_eq!(
            client.call("ping", Value::Null).unwrap_err(),
            RpcError::LinkReset
        );
        assert_eq!(net.clock().now(), SimTime::ZERO);
    }

    #[test]
    fn no_route_is_not_retried() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("ghost"), "echo", caller());
        assert_eq!(
            client.call("ping", Value::Null).unwrap_err(),
            RpcError::NoRoute
        );
    }

    #[test]
    fn concurrent_calls_demultiplex() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller());
        let completions: Vec<RpcCompletion> = (0..8)
            .map(|i| client.call_async("ping", serde_json::json!({ "i": i })))
            .collect();
        for (i, r) in wait_all(completions).into_iter().enumerate() {
            assert_eq!(r.unwrap().value()["echo"]["i"], i);
        }
    }

    #[test]
    fn batched_fan_out_over_completions() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        for name in ["s0", "s1", "s2"] {
            echo_server(&net, name);
        }
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let completions: Vec<RpcCompletion> = (0..3)
            .map(|i| {
                let client = RpcClient::new(
                    Arc::clone(&mux),
                    NodeId::new(format!("s{i}")),
                    "echo",
                    caller(),
                );
                client.call_async("ping", serde_json::json!({ "i": i }))
            })
            .collect();
        let results = wait_all(completions);
        assert_eq!(results.len(), 3);
        for (i, r) in results.into_iter().enumerate() {
            let reply = r.unwrap();
            assert_eq!(reply.value()["echo"]["i"], i);
            assert_eq!(reply.attempts, 1);
        }
    }

    #[test]
    fn retransmission_charges_virtual_backoff() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("client", "server"), 0);
        net.set_fault_plan(plan);
        let clock = net.clock();
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller())
            .with_attempt_timeout(Duration::from_millis(50));
        let before = clock.now();
        client.call("ping", Value::Null).unwrap();
        // One retransmission → at least one attempt-timeout of virtual wait.
        assert!(clock.now().saturating_sub(before) >= SimTime::from_millis(50));
    }

    #[test]
    fn all_drops_exhaust_retries_quickly() {
        // Regression guard on the removed 2-second real-time long-stop:
        // exhausting every retry against a fully lossy link must be a
        // virtual-time affair.
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        for i in 0..64 {
            plan.drop_at(LinkKey::new("client", "server"), i);
        }
        net.set_fault_plan(plan);
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller())
            .with_policy(RetryPolicy::transient(4))
            .with_attempt_timeout(Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        assert_eq!(
            client.call("ping", Value::Null).unwrap_err(),
            RpcError::Timeout { attempts: 4 }
        );
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn a_duplicated_request_s_second_reply_is_an_orphan_and_counted() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        echo_server(&net, "server");
        let mut plan = FaultPlan::reliable();
        plan.dup_at(LinkKey::new("client", "server"), 0);
        net.set_fault_plan(plan);
        let telemetry = Telemetry::recording();
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        mux.set_telemetry(telemetry.clone());
        let orphans = || {
            let counters = telemetry.metrics_snapshot().counters;
            counters
                .into_iter()
                .find(|(name, _)| name == "rpc.orphan_replies")
        };
        let client = RpcClient::new(mux, NodeId::new("server"), "echo", caller());
        assert_eq!(client.call("ping", Value::Null).unwrap().attempts, 1);
        assert_eq!(orphans(), None, "listed from its first bump");
        net.engine().run_until_idle();
        let counted = Some(("rpc.orphan_replies".to_string(), 1));
        assert_eq!(orphans(), counted, "the copy's answer found no open call");
        client.call("ping", Value::Null).unwrap();
        assert_eq!(orphans(), counted, "a reply its call took is no orphan");
    }

    #[test]
    fn reply_bytes_are_the_response_envelopes() {
        let docs = [
            serde_json::json!({"decision": {"Rejected": {"reason": "q\"\n日"}}}),
            serde_json::json!([1.5, -0.0, null, u64::MAX]),
            Value::Null,
        ];
        for (request_id, doc) in [0, 7, u64::MAX].into_iter().zip(docs) {
            let written = reply_payload(request_id, 0, |out| {
                doc.write_json(out);
                Ok(())
            });
            let tree = RpcResponse {
                request_id,
                outcome: RpcOutcome::Ok(doc),
            };
            assert_eq!(written.as_bytes(), serde_json::to_vec(&tree).unwrap());
        }
        // A fault discards what was written before it.
        let fault = ServiceFault::transient("Busy", "try again");
        let written = reply_payload(3, 64, |out| {
            out.push_str("{\"partial\":");
            Err(fault.clone())
        });
        let tree = RpcResponse {
            request_id: 3,
            outcome: RpcOutcome::Fault(fault),
        };
        assert_eq!(written.as_bytes(), serde_json::to_vec(&tree).unwrap());
    }
}
