//! Striped block transfer over multiple concurrent virtual links.
//!
//! A transfer ships one [`Manifest`]'s blocks from the sender's CAS to the
//! receiver's, GridFTP-style (Allcock et al., ref 3): the blocks are dealt
//! round-robin onto `lanes` independent **stripe links** — each stripe is
//! its own `gridsim` node pair `{site}~s{q}`, so it has its own latency
//! model, fault plan, and message-index counters — with a fixed window of
//! unacknowledged blocks per stripe.
//!
//! The protocol is entirely **event-driven**: there are no wall-clock or
//! even virtual-time timeouts. Loss is observed through the network's
//! deterministic control notices (`Dropped` / `LinkReset` / `NoRoute`
//! bounced to the sending endpoint), retries are rescheduled as future
//! engine deliveries with exponential backoff in virtual time, and a
//! stripe whose retries exhaust is declared dead and its remaining blocks
//! **fail over** to the surviving stripes. Same seed + same fault plan ⇒
//! bit-identical transfer, byte-for-byte and trace-for-trace.
//!
//! Restart is content-addressed: the receiver's `OfferAck` carries a
//! [`RestartMarker`] computed from the blocks its CAS already holds, so an
//! interrupted (or deduplicated) transfer never resends a byte. A receiver
//! restarted in place keeps its blocks but loses its transfers' state: it
//! answers a block of a transfer it does not know with a refusal frame,
//! the sender ends that push with [`TransferFailure::ReceiverLostTransfer`],
//! and a new push of the manifest ships only what the coverage lacks.
//!
//! A push moves blocks, never names: the receiver's commit answers whether
//! it now holds every block of the manifest, and writes no manifest. The
//! party that owns the name binds it afterwards — the archive cluster for
//! a replica it placed, NFMS for an upload an authenticated caller commits
//! — so an unauthenticated stripe lane can land bytes but cannot create a
//! file.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use neesgrid_gridsim::{
    ControlNotice, Endpoint, Envelope, EventEngine, MessageKind, NetworkError, NodeId, SimClock,
    SimTime, VirtualNetwork,
};
use neesgrid_telemetry::{CounterHandle, Field, HistogramHandle, SpanId, Telemetry};

use crate::cas::{BlockKey, CasStore, Manifest, RestartMarker};
use crate::storage::VirtualStore;

/// Service name for control-plane frames (offer / commit) on base links.
pub const CTL_SERVICE: &str = "archive-ctl";
/// Service name for block frames and acks on stripe links.
pub const DATA_SERVICE: &str = "archive-data";

/// The node id of stripe lane `lane` of `site`.
pub fn lane_node(site: &str, lane: u32) -> String {
    format!("{site}~s{lane}")
}

/// Tuning knobs for the striped transfer engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeConfig {
    /// Number of parallel stripe links per site pair.
    pub lanes: u32,
    /// Max unacknowledged blocks in flight per stripe.
    pub window: u32,
    /// Block size used when chunking content into the CAS.
    pub chunk_size: u32,
    /// Resend attempts per block (and per control frame) before the
    /// stripe is declared dead.
    pub max_retries: u32,
    /// Base retry backoff; attempt `n` waits `backoff << n` virtual time.
    pub backoff: SimTime,
}

impl Default for StripeConfig {
    fn default() -> Self {
        StripeConfig {
            lanes: 4,
            window: 8,
            chunk_size: 64 * 1024,
            max_retries: 4,
            backoff: SimTime::from_millis(50),
        }
    }
}

/// Control-plane frames, JSON-encoded on the base link.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum CtlFrame {
    /// Sender → receiver: here is what I want to ship.
    Offer {
        transfer_id: u64,
        manifest: Manifest,
    },
    /// Receiver → sender: what I already hold (dedup + restart marker).
    OfferAck {
        transfer_id: u64,
        marker: RestartMarker,
    },
    /// Sender → receiver: every block is acked; confirm you hold them.
    Commit { transfer_id: u64 },
    /// Receiver → sender: every block held (or refused, if coverage is
    /// short).
    CommitAck { transfer_id: u64, ok: bool },
}

impl CtlFrame {
    fn encode(&self) -> Bytes {
        // analyzer:allow(no-unwrap, reason = "CtlFrame is a plain derive(Serialize) enum of JSON-safe types; self-serialization is infallible")
        Bytes::from(serde_json::to_vec(self).expect("ctl frame serializes"))
    }

    fn decode(bytes: &[u8]) -> Option<CtlFrame> {
        serde_json::from_slice(bytes).ok()
    }
}

/// Binary block frame: `transfer_id u64 | block_index u32 | offset u64 |
/// crc u32 | len u32 | payload`.
fn encode_block(
    transfer_id: u64,
    block_index: u32,
    offset: u64,
    key: BlockKey,
    data: &[u8],
) -> Bytes {
    let mut out = Vec::with_capacity(28 + data.len());
    out.extend_from_slice(&transfer_id.to_be_bytes());
    out.extend_from_slice(&block_index.to_be_bytes());
    out.extend_from_slice(&offset.to_be_bytes());
    out.extend_from_slice(&key.crc.to_be_bytes());
    out.extend_from_slice(&key.len.to_be_bytes());
    out.extend_from_slice(data);
    Bytes::from(out)
}

struct BlockFrame {
    transfer_id: u64,
    block_index: u32,
    offset: u64,
    key: BlockKey,
    data: Bytes,
}

fn decode_block(payload: &Bytes) -> Option<BlockFrame> {
    if payload.len() < 28 {
        return None;
    }
    let b = payload.as_ref();
    let fixed = |r: std::ops::Range<usize>| -> &[u8] { &b[r] };
    let transfer_id = u64::from_be_bytes(fixed(0..8).try_into().ok()?);
    let block_index = u32::from_be_bytes(fixed(8..12).try_into().ok()?);
    let offset = u64::from_be_bytes(fixed(12..20).try_into().ok()?);
    let crc = u32::from_be_bytes(fixed(20..24).try_into().ok()?);
    let len = u32::from_be_bytes(fixed(24..28).try_into().ok()?);
    if payload.len() != 28 + len as usize {
        return None;
    }
    Some(BlockFrame {
        transfer_id,
        block_index,
        offset,
        key: BlockKey { crc, len },
        data: payload.slice(28..),
    })
}

/// Binary ack frame: `transfer_id u64 | block_index u32`.
fn encode_ack(transfer_id: u64, block_index: u32) -> Bytes {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&transfer_id.to_be_bytes());
    out.extend_from_slice(&block_index.to_be_bytes());
    Bytes::from(out)
}

fn decode_ack(payload: &[u8]) -> Option<(u64, u32)> {
    if payload.len() != 12 {
        return None;
    }
    Some((
        u64::from_be_bytes(payload[0..8].try_into().ok()?),
        u32::from_be_bytes(payload[8..12].try_into().ok()?),
    ))
}

/// The byte that ends a refusal frame.
const REFUSED: u8 = 0xFF;

/// Binary refusal frame: `transfer_id u64 | block_index u32 | 0xFF`, the
/// answer to a block of a transfer the receiver holds no state for. One
/// byte longer than an ack, so neither decodes as the other.
fn encode_refusal(transfer_id: u64, block_index: u32) -> Bytes {
    let mut out = encode_ack(transfer_id, block_index).to_vec();
    out.push(REFUSED);
    Bytes::from(out)
}

fn decode_refusal(payload: &[u8]) -> Option<(u64, u32)> {
    match payload.split_last() {
        Some((&REFUSED, ack)) => decode_ack(ack),
        _ => None,
    }
}

/// Why a transfer failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferFailure {
    /// Every stripe exhausted its retries; no path left for data.
    AllStripesDead,
    /// The control link (offer/commit) exhausted its retries.
    ControlUnreachable,
    /// The receiver refused the commit (its coverage was short).
    CommitRefused,
    /// The sender's own CAS is missing a block the manifest references.
    SourceMissingBlock {
        /// Index of the absent block.
        block: u32,
    },
    /// The receiver refused a block because it holds no state for the
    /// transfer: it restarted since it acknowledged the offer. A new push
    /// of the manifest resumes from the receiver's coverage.
    ReceiverLostTransfer,
}

impl std::fmt::Display for TransferFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferFailure::AllStripesDead => write!(f, "all stripes dead"),
            TransferFailure::ControlUnreachable => write!(f, "control link unreachable"),
            TransferFailure::CommitRefused => write!(f, "receiver refused commit"),
            TransferFailure::SourceMissingBlock { block } => {
                write!(f, "source CAS missing block {block}")
            }
            TransferFailure::ReceiverLostTransfer => {
                write!(f, "receiver holds no state for the transfer")
            }
        }
    }
}

/// Per-transfer outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferReport {
    /// Blocks actually shipped (first sends, not retries).
    pub blocks_sent: u64,
    /// Resends after loss notices.
    pub blocks_retried: u64,
    /// Blocks skipped because the receiver's marker already covered them.
    pub blocks_skipped: u64,
    /// Payload bytes shipped (first sends).
    pub bytes_sent: u64,
    /// Stripes that died and failed their queues over.
    pub stripes_failed: u32,
    /// Virtual time from offer to commit ack.
    pub elapsed: SimTime,
}

/// Observable state of one outbound transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferStatus {
    /// Offer sent, waiting for the receiver's marker.
    Negotiating,
    /// Blocks in flight.
    Streaming {
        /// Blocks acked so far.
        done: usize,
        /// Blocks this transfer must ship (after dedup).
        total: usize,
    },
    /// All blocks acked, waiting for the receiver to confirm it holds them.
    Committing,
    /// The receiver's CAS holds every block of the manifest.
    Completed(TransferReport),
    /// Gave up.
    Failed(TransferFailure),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtlWhat {
    Offer,
    Commit,
}

struct InFlight {
    block: u32,
    attempts: u32,
    sent_at: SimTime,
}

struct LaneState {
    queue: VecDeque<u32>,
    inflight: BTreeMap<u64, InFlight>,
    dead: bool,
}

enum TxPhase {
    Offering,
    Streaming,
    Committing,
    Done(TransferStatus),
}

struct TxTransfer {
    dst: String,
    manifest: Manifest,
    phase: TxPhase,
    lanes: Vec<LaneState>,
    /// Block indexes this transfer must ship (post-dedup), for totals.
    needed: usize,
    done: usize,
    ctl_corr: u64,
    ctl_attempts: u32,
    ctl_what: CtlWhat,
    span: SpanId,
    started_at: SimTime,
    report: TransferReport,
}

struct RxTransfer {
    manifest: Manifest,
    marker: RestartMarker,
}

#[derive(Default)]
struct SiteState {
    next_transfer: u64,
    tx: BTreeMap<u64, TxTransfer>,
    rx: BTreeMap<(String, u64), RxTransfer>,
    /// (lane, correlation) → transfer id, for routing acks and loss
    /// notices arriving on stripe endpoints back to their transfer.
    corr_index: BTreeMap<(u32, u64), u64>,
    /// Control-link correlation → transfer id.
    ctl_index: BTreeMap<u64, u64>,
}

struct SiteMetrics {
    blocks_sent: CounterHandle,
    blocks_acked: CounterHandle,
    blocks_retried: CounterHandle,
    blocks_skipped: CounterHandle,
    stripes_dead: CounterHandle,
    transfers_completed: CounterHandle,
    transfers_failed: CounterHandle,
    block_rtt: HistogramHandle,
    telemetry: Telemetry,
}

impl SiteMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        SiteMetrics {
            blocks_sent: telemetry.counter_handle("archive.blocks_sent"),
            blocks_acked: telemetry.counter_handle("archive.blocks_acked"),
            blocks_retried: telemetry.counter_handle("archive.blocks_retried"),
            blocks_skipped: telemetry.counter_handle("archive.blocks_skipped"),
            stripes_dead: telemetry.counter_handle("archive.stripes_dead"),
            transfers_completed: telemetry.counter_handle("archive.transfers_completed"),
            transfers_failed: telemetry.counter_handle("archive.transfers_failed"),
            block_rtt: telemetry.histogram_handle("archive.block_rtt_ns"),
            telemetry: telemetry.clone(),
        }
    }
}

struct SiteInner {
    name: String,
    cas: CasStore,
    base: Endpoint,
    lanes: Vec<Endpoint>,
    engine: Arc<EventEngine>,
    clock: Arc<SimClock>,
    config: StripeConfig,
    metrics: SiteMetrics,
    state: Mutex<SiteState>,
}

/// One archive site: a CAS over the site's store plus the transfer actor
/// attached to the event engine (one base endpoint, `lanes` stripe
/// endpoints, all in handler mode). Clone shares the site.
#[derive(Clone)]
pub struct ArchiveSite {
    inner: Arc<SiteInner>,
}

impl ArchiveSite {
    /// Attach a site named `name` to the network, with `store` as its
    /// backing repository store.
    pub fn attach(
        net: &VirtualNetwork,
        name: impl Into<String>,
        store: VirtualStore,
        config: StripeConfig,
        telemetry: &Telemetry,
    ) -> Result<ArchiveSite, NetworkError> {
        let name = name.into();
        let base = net.endpoint(name.as_str())?;
        let mut lanes = Vec::with_capacity(config.lanes as usize);
        for q in 0..config.lanes {
            lanes.push(net.endpoint(lane_node(&name, q))?);
        }
        let inner = Arc::new(SiteInner {
            cas: CasStore::for_site(store, &name, telemetry),
            name,
            engine: net.engine(),
            clock: base.clock().clone(),
            base,
            lanes,
            config,
            metrics: SiteMetrics::new(telemetry),
            state: Mutex::new(SiteState::default()),
        });
        // Handler mode: every envelope becomes a deterministic engine event.
        let base_site = Arc::clone(&inner);
        inner
            .base
            .install_handler(move |env| base_site.on_base(env));
        for (q, lane) in inner.lanes.iter().enumerate() {
            let lane_site = Arc::clone(&inner);
            lane.install_handler(move |env| lane_site.on_lane(q as u32, env));
        }
        Ok(ArchiveSite { inner })
    }

    /// The site's name on the network.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The site's content-addressed store.
    pub fn cas(&self) -> &CasStore {
        &self.inner.cas
    }

    /// Chunk and store `content` locally under `logical`. No network
    /// traffic; returns the manifest for later replication.
    pub fn ingest_local(&self, logical: &str, content: &Bytes, now: SimTime) -> Manifest {
        self.inner
            .cas
            .ingest(logical, content, self.inner.config.chunk_size, now)
    }

    /// Start pushing `manifest` (whose blocks this site's CAS must hold)
    /// to `dst`'s archive site. Returns the transfer id; progress is
    /// observable via [`ArchiveSite::status`] while the engine is pumped.
    pub fn start_push(&self, dst: &str, manifest: Manifest) -> u64 {
        let inner = &self.inner;
        let now = inner.clock.now();
        let mut state = inner.state.lock();
        state.next_transfer += 1;
        let id = state.next_transfer;
        let span = inner.metrics.telemetry.span_start(
            now.as_nanos(),
            "archive",
            "transfer",
            [
                ("from", Field::Str(inner.name.clone())),
                ("to", Field::Str(dst.to_string())),
                ("logical", Field::Str(manifest.logical.clone())),
                ("blocks", Field::U64(manifest.blocks.len() as u64)),
            ],
        );
        let corr = inner.base.next_correlation();
        let offer = CtlFrame::Offer {
            transfer_id: id,
            manifest: manifest.clone(),
        };
        state.ctl_index.insert(corr, id);
        let lanes = (0..inner.config.lanes)
            .map(|_| {
                let lane_cap = manifest.blocks.len().max(1);
                LaneState {
                    // Failover can reassign every remaining block onto one
                    // surviving stripe, so each queue is sized for the lot.
                    // analyzer:buffer(cap = lane_cap, drop = block)
                    queue: VecDeque::with_capacity(lane_cap),
                    inflight: BTreeMap::new(),
                    dead: false,
                }
            })
            .collect();
        state.tx.insert(
            id,
            TxTransfer {
                dst: dst.to_string(),
                manifest,
                phase: TxPhase::Offering,
                lanes,
                needed: 0,
                done: 0,
                ctl_corr: corr,
                ctl_attempts: 0,
                ctl_what: CtlWhat::Offer,
                span,
                started_at: now,
                report: TransferReport::default(),
            },
        );
        drop(state);
        inner.base.send(
            NodeId::new(dst),
            CTL_SERVICE,
            MessageKind::Request,
            corr,
            offer.encode(),
        );
        id
    }

    /// Current status of an outbound transfer.
    pub fn status(&self, transfer_id: u64) -> Option<TransferStatus> {
        let state = self.inner.state.lock();
        let t = state.tx.get(&transfer_id)?;
        Some(match &t.phase {
            TxPhase::Offering => TransferStatus::Negotiating,
            TxPhase::Streaming => TransferStatus::Streaming {
                done: t.done,
                total: t.needed,
            },
            TxPhase::Committing => TransferStatus::Committing,
            TxPhase::Done(s) => s.clone(),
        })
    }

    /// Push `manifest` to `dst` and pump the engine until the transfer
    /// ends: the blocking form of [`ArchiveSite::start_push`]. Returns the
    /// final status, or the last one seen if the engine ran dry first.
    pub fn push(&self, dst: &str, manifest: Manifest) -> TransferStatus {
        let id = self.start_push(dst, manifest);
        let mut last = TransferStatus::Negotiating;
        while let Some(status) = self.status(id) {
            last = status;
            let ended = matches!(
                last,
                TransferStatus::Completed(_) | TransferStatus::Failed(_)
            );
            if ended || !self.inner.engine.run_one() {
                break;
            }
        }
        last
    }
}

impl SiteInner {
    fn on_base(self: &Arc<Self>, env: Envelope) {
        match env.kind {
            MessageKind::Request => self.on_ctl_request(env),
            MessageKind::Reply => self.on_ctl_reply(env),
            MessageKind::Control => self.on_ctl_loss(env),
            MessageKind::OneWay => {}
        }
    }

    /// Receiver side of the control plane.
    fn on_ctl_request(self: &Arc<Self>, env: Envelope) {
        let Some(frame) = CtlFrame::decode(&env.payload) else {
            return;
        };
        let reply = match frame {
            CtlFrame::Offer {
                transfer_id,
                manifest,
            } => {
                let mut state = self.state.lock();
                let key = (env.src.as_str().to_string(), transfer_id);
                let rx = state.rx.entry(key).or_insert_with(|| RxTransfer {
                    // Dedup on arrival: the marker opens with whatever the
                    // CAS already covers (identical capture ⇒ full marker).
                    marker: self.cas.coverage(&manifest),
                    manifest,
                });
                CtlFrame::OfferAck {
                    transfer_id,
                    marker: rx.marker.clone(),
                }
            }
            CtlFrame::Commit { transfer_id } => {
                let state = self.state.lock();
                let key = (env.src.as_str().to_string(), transfer_id);
                let ok = state
                    .rx
                    .get(&key)
                    .is_some_and(|rx| rx.marker.is_complete(rx.manifest.total_len));
                CtlFrame::CommitAck { transfer_id, ok }
            }
            // Replies mis-sent as requests: ignore.
            CtlFrame::OfferAck { .. } | CtlFrame::CommitAck { .. } => return,
        };
        self.base.send(
            env.src,
            CTL_SERVICE,
            MessageKind::Reply,
            env.correlation_id,
            reply.encode(),
        );
    }

    /// Sender side of the control plane.
    fn on_ctl_reply(self: &Arc<Self>, env: Envelope) {
        let Some(frame) = CtlFrame::decode(&env.payload) else {
            return;
        };
        match frame {
            CtlFrame::OfferAck {
                transfer_id,
                marker,
            } => self.on_offer_ack(transfer_id, env.correlation_id, &marker),
            CtlFrame::CommitAck { transfer_id, ok } => {
                self.on_commit_ack(transfer_id, env.correlation_id, ok)
            }
            CtlFrame::Offer { .. } | CtlFrame::Commit { .. } => {}
        }
    }

    fn on_offer_ack(self: &Arc<Self>, transfer_id: u64, corr: u64, marker: &RestartMarker) {
        let mut state = self.state.lock();
        state.ctl_index.remove(&corr);
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        if !matches!(t.phase, TxPhase::Offering) {
            return; // duplicate ack after a retry
        }
        // Deal the uncovered blocks round-robin across the stripes.
        let mut needed: Vec<u32> = Vec::new();
        for (i, b) in t.manifest.blocks.iter().enumerate() {
            let (s, e) = b.range();
            if marker.covers(s, e) {
                t.report.blocks_skipped += 1;
            } else {
                needed.push(i as u32);
            }
        }
        self.metrics.blocks_skipped.add(t.report.blocks_skipped);
        t.needed = needed.len();
        if needed.is_empty() {
            // Everything deduplicated — straight to commit.
            self.send_commit(&mut state, transfer_id);
            return;
        }
        t.phase = TxPhase::Streaming;
        let lanes = t.lanes.len().max(1);
        for (i, block) in needed.into_iter().enumerate() {
            t.lanes[i % lanes].queue.push_back(block);
        }
        drop(state);
        for q in 0..lanes as u32 {
            self.fill_lane_window(transfer_id, q);
        }
    }

    fn on_commit_ack(self: &Arc<Self>, transfer_id: u64, corr: u64, ok: bool) {
        let now = self.clock.now();
        let mut state = self.state.lock();
        state.ctl_index.remove(&corr);
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        if !matches!(t.phase, TxPhase::Committing) {
            return;
        }
        if ok {
            t.report.elapsed = now - t.started_at;
            let report = t.report;
            t.phase = TxPhase::Done(TransferStatus::Completed(report));
            self.metrics.transfers_completed.add(1);
            self.metrics.telemetry.span_end(
                now.as_nanos(),
                t.span,
                [
                    ("outcome", Field::Static("completed")),
                    ("blocks_sent", Field::U64(report.blocks_sent)),
                    ("retried", Field::U64(report.blocks_retried)),
                    ("skipped", Field::U64(report.blocks_skipped)),
                ],
            );
        } else {
            self.fail_transfer(t, now, TransferFailure::CommitRefused);
        }
    }

    /// A control frame (offer/commit) was lost; retry with backoff or give
    /// up on the transfer.
    fn on_ctl_loss(self: &Arc<Self>, env: Envelope) {
        let Some(notice) = ControlNotice::from_bytes(&env.payload) else {
            return;
        };
        let corr = notice.correlation_id();
        let now = self.clock.now();
        let mut state = self.state.lock();
        let Some(&transfer_id) = state.ctl_index.get(&corr) else {
            return;
        };
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        if t.ctl_corr != corr || matches!(t.phase, TxPhase::Done(_)) {
            return;
        }
        t.ctl_attempts += 1;
        if t.ctl_attempts > self.config.max_retries {
            self.fail_transfer(t, now, TransferFailure::ControlUnreachable);
            return;
        }
        let delay = SimTime::from_nanos(self.config.backoff.as_nanos() << t.ctl_attempts);
        let what = t.ctl_what;
        drop(state);
        let site = Arc::clone(self);
        self.engine.schedule_delivery(now + delay, move || {
            site.resend_ctl(transfer_id, what);
        });
    }

    fn resend_ctl(self: &Arc<Self>, transfer_id: u64, what: CtlWhat) {
        let mut state = self.state.lock();
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        if matches!(t.phase, TxPhase::Done(_)) || t.ctl_what != what {
            return;
        }
        let corr = self.base.next_correlation();
        let old = std::mem::replace(&mut t.ctl_corr, corr);
        let dst = NodeId::new(t.dst.as_str());
        let frame = match what {
            CtlWhat::Offer => CtlFrame::Offer {
                transfer_id,
                manifest: t.manifest.clone(),
            },
            CtlWhat::Commit => CtlFrame::Commit { transfer_id },
        };
        state.ctl_index.remove(&old);
        state.ctl_index.insert(corr, transfer_id);
        drop(state);
        self.base
            .send(dst, CTL_SERVICE, MessageKind::Request, corr, frame.encode());
    }

    fn send_commit(self: &Arc<Self>, state: &mut SiteState, transfer_id: u64) {
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        t.phase = TxPhase::Committing;
        t.ctl_what = CtlWhat::Commit;
        t.ctl_attempts = 0;
        let corr = self.base.next_correlation();
        t.ctl_corr = corr;
        let dst = NodeId::new(t.dst.as_str());
        state.ctl_index.insert(corr, transfer_id);
        self.base.send(
            dst,
            CTL_SERVICE,
            MessageKind::Request,
            corr,
            CtlFrame::Commit { transfer_id }.encode(),
        );
    }

    fn fail_transfer(&self, t: &mut TxTransfer, now: SimTime, why: TransferFailure) {
        self.metrics.transfers_failed.add(1);
        self.metrics.telemetry.span_end(
            now.as_nanos(),
            t.span,
            [
                ("outcome", Field::Static("failed")),
                ("why", Field::Str(why.to_string())),
            ],
        );
        t.phase = TxPhase::Done(TransferStatus::Failed(why));
    }

    // ------------------------------------------------------------------
    // Stripe link handlers (block frames, acks, loss notices).
    // ------------------------------------------------------------------

    fn on_lane(self: &Arc<Self>, lane: u32, env: Envelope) {
        match env.kind {
            MessageKind::Request => self.on_block(lane, env),
            MessageKind::Reply => self.on_ack(lane, env),
            MessageKind::Control => self.on_lane_loss(lane, env),
            MessageKind::OneWay => {}
        }
    }

    /// Receiver side: store the block, extend the marker, ack.
    fn on_block(self: &Arc<Self>, lane: u32, env: Envelope) {
        let Some(frame) = decode_block(&env.payload) else {
            return;
        };
        let Some(src_site) = split_lane(env.src.as_str()) else {
            return;
        };
        let now = self.clock.now();
        let mut state = self.state.lock();
        let key = (src_site.to_string(), frame.transfer_id);
        let Some(rx) = state.rx.get_mut(&key) else {
            // No state for the transfer: this receiver restarted since the
            // offer. Refuse the block, so the sender ends the push instead
            // of waiting for an ack that never comes.
            drop(state);
            self.lanes[lane as usize].send(
                env.src,
                DATA_SERVICE,
                MessageKind::Reply,
                env.correlation_id,
                encode_refusal(frame.transfer_id, frame.block_index),
            );
            return;
        };
        let Some(expected) = rx.manifest.blocks.get(frame.block_index as usize) else {
            return;
        };
        // The frame must carry exactly the block the manifest names.
        if expected.key != frame.key
            || expected.offset != frame.offset
            || BlockKey::of(&frame.data) != frame.key
        {
            return;
        }
        self.cas.put_block(frame.key, frame.data, now);
        let (s, e) = expected.range();
        rx.marker.add(s, e);
        drop(state);
        self.lanes[lane as usize].send(
            env.src,
            DATA_SERVICE,
            MessageKind::Reply,
            env.correlation_id,
            encode_ack(frame.transfer_id, frame.block_index),
        );
    }

    /// Sender side: a block was delivered and acknowledged, or refused.
    fn on_ack(self: &Arc<Self>, lane: u32, env: Envelope) {
        if let Some((transfer_id, _block)) = decode_refusal(&env.payload) {
            self.on_refusal(lane, env.correlation_id, transfer_id);
            return;
        }
        let Some((transfer_id, _block)) = decode_ack(&env.payload) else {
            return;
        };
        let now = self.clock.now();
        let mut state = self.state.lock();
        let Some(mapped) = state.corr_index.remove(&(lane, env.correlation_id)) else {
            return; // duplicate ack
        };
        if mapped != transfer_id {
            return;
        }
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        let Some(inflight) = t.lanes[lane as usize].inflight.remove(&env.correlation_id) else {
            return;
        };
        t.done += 1;
        self.metrics.blocks_acked.add(1);
        self.metrics
            .block_rtt
            .observe_ns((now - inflight.sent_at).as_nanos());
        if t.done >= t.needed {
            self.send_commit(&mut state, transfer_id);
            return;
        }
        drop(state);
        self.fill_lane_window(transfer_id, lane);
    }

    /// Sender side: the receiver refused a block of a transfer it holds no
    /// state for, so none of the transfer's blocks will be acked. End the
    /// transfer with nothing left in flight; a refusal for a finished
    /// transfer, or for a block no longer in flight, is ignored.
    fn on_refusal(&self, lane: u32, corr: u64, transfer_id: u64) {
        let now = self.clock.now();
        let mut state = self.state.lock();
        if state.corr_index.get(&(lane, corr)) != Some(&transfer_id) {
            return;
        }
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        if matches!(t.phase, TxPhase::Done(_)) {
            return;
        }
        let mut stale = Vec::new();
        for (q, l) in t.lanes.iter_mut().enumerate() {
            l.queue.clear();
            stale.extend(
                std::mem::take(&mut l.inflight)
                    .into_keys()
                    .map(|c| (q as u32, c)),
            );
        }
        self.fail_transfer(t, now, TransferFailure::ReceiverLostTransfer);
        // Later acks, loss notices and queued resends find no entry.
        for key in stale {
            state.corr_index.remove(&key);
        }
    }

    /// Sender side: a block frame (or its ack) was lost on a stripe.
    fn on_lane_loss(self: &Arc<Self>, lane: u32, env: Envelope) {
        let Some(notice) = ControlNotice::from_bytes(&env.payload) else {
            return;
        };
        let corr = notice.correlation_id();
        let now = self.clock.now();
        let mut state = self.state.lock();
        let Some(&transfer_id) = state.corr_index.get(&(lane, corr)) else {
            return;
        };
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        let Some(inflight) = t.lanes[lane as usize].inflight.get_mut(&corr) else {
            return;
        };
        inflight.attempts += 1;
        let attempts = inflight.attempts;
        let block = inflight.block;
        if attempts > self.config.max_retries {
            // Stripe is dead: fail its whole backlog over to survivors.
            self.kill_lane(&mut state, transfer_id, lane, now);
            return;
        }
        t.report.blocks_retried += 1;
        self.metrics.blocks_retried.add(1);
        // Exponential backoff in virtual time, rescheduled as an engine
        // delivery — no wall clock anywhere near the retry path.
        let delay = SimTime::from_nanos(self.config.backoff.as_nanos() << attempts);
        drop(state);
        let site = Arc::clone(self);
        self.engine.schedule_delivery(now + delay, move || {
            site.resend_block(transfer_id, lane, corr, block, attempts);
        });
    }

    fn resend_block(
        self: &Arc<Self>,
        transfer_id: u64,
        lane: u32,
        corr: u64,
        block: u32,
        attempts: u32,
    ) {
        let now = self.clock.now();
        let mut state = self.state.lock();
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        if matches!(t.phase, TxPhase::Done(_)) {
            return;
        }
        let lane_state = &mut t.lanes[lane as usize];
        if lane_state.dead {
            return; // backlog already failed over
        }
        let Some(inflight) = lane_state.inflight.remove(&corr) else {
            return; // acked while the retry was queued
        };
        if inflight.attempts != attempts {
            return; // superseded by a newer loss notice
        }
        let new_corr = self.lanes[lane as usize].next_correlation();
        lane_state.inflight.insert(
            new_corr,
            InFlight {
                block,
                attempts,
                sent_at: now,
            },
        );
        state.corr_index.remove(&(lane, corr));
        state.corr_index.insert((lane, new_corr), transfer_id);
        let (dst, payload) = match self.block_payload(&state, transfer_id, block) {
            Some(v) => v,
            None => {
                if let Some(t) = state.tx.get_mut(&transfer_id) {
                    self.fail_transfer(t, now, TransferFailure::SourceMissingBlock { block });
                }
                return;
            }
        };
        drop(state);
        self.lanes[lane as usize].send(
            NodeId::new(lane_node(&dst, lane)),
            DATA_SERVICE,
            MessageKind::Request,
            new_corr,
            payload,
        );
    }

    /// Declare a stripe dead and reassign its backlog (queued + in-flight
    /// blocks) round-robin across the surviving stripes.
    fn kill_lane(
        self: &Arc<Self>,
        state: &mut SiteState,
        transfer_id: u64,
        lane: u32,
        now: SimTime,
    ) {
        let Some(t) = state.tx.get_mut(&transfer_id) else {
            return;
        };
        let lane_state = &mut t.lanes[lane as usize];
        lane_state.dead = true;
        let mut orphans: Vec<u32> = lane_state.queue.drain(..).collect();
        let inflight = std::mem::take(&mut lane_state.inflight);
        for (corr, f) in &inflight {
            orphans.push(f.block);
            state.corr_index.remove(&(lane, *corr));
        }
        t.report.stripes_failed += 1;
        self.metrics.stripes_dead.add(1);
        self.metrics.telemetry.instant(
            now.as_nanos(),
            "archive",
            "stripe_dead",
            [
                ("transfer", Field::U64(transfer_id)),
                ("stripe", Field::U64(lane as u64)),
                ("orphans", Field::U64(orphans.len() as u64)),
            ],
        );
        let survivors: Vec<u32> = t
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.dead)
            .map(|(q, _)| q as u32)
            .collect();
        if survivors.is_empty() {
            self.fail_transfer(t, now, TransferFailure::AllStripesDead);
            return;
        }
        self.metrics.telemetry.instant(
            now.as_nanos(),
            "archive",
            "failover",
            [
                ("transfer", Field::U64(transfer_id)),
                ("to_stripes", Field::U64(survivors.len() as u64)),
            ],
        );
        for (i, block) in orphans.into_iter().enumerate() {
            let q = survivors[i % survivors.len()];
            t.lanes[q as usize].queue.push_back(block);
        }
        for q in survivors {
            self.fill_lane_window_locked(state, transfer_id, q);
        }
    }

    /// Send queued blocks on `lane` until its window is full.
    fn fill_lane_window(self: &Arc<Self>, transfer_id: u64, lane: u32) {
        let mut state = self.state.lock();
        self.fill_lane_window_locked(&mut state, transfer_id, lane);
    }

    fn fill_lane_window_locked(
        self: &Arc<Self>,
        state: &mut SiteState,
        transfer_id: u64,
        lane: u32,
    ) {
        loop {
            let Some(t) = state.tx.get_mut(&transfer_id) else {
                return;
            };
            if !matches!(t.phase, TxPhase::Streaming) {
                return;
            }
            let lane_state = &mut t.lanes[lane as usize];
            if lane_state.dead || lane_state.inflight.len() >= self.config.window as usize {
                return;
            }
            let Some(block) = lane_state.queue.pop_front() else {
                return;
            };
            let now = self.clock.now();
            let corr = self.lanes[lane as usize].next_correlation();
            lane_state.inflight.insert(
                corr,
                InFlight {
                    block,
                    attempts: 0,
                    sent_at: now,
                },
            );
            let block_len = t.manifest.blocks[block as usize].key.len as u64;
            t.report.blocks_sent += 1;
            t.report.bytes_sent += block_len;
            state.corr_index.insert((lane, corr), transfer_id);
            let Some((dst, payload)) = self.block_payload(state, transfer_id, block) else {
                let now = self.clock.now();
                if let Some(t) = state.tx.get_mut(&transfer_id) {
                    self.fail_transfer(t, now, TransferFailure::SourceMissingBlock { block });
                }
                return;
            };
            self.metrics.blocks_sent.add(1);
            self.lanes[lane as usize].send(
                NodeId::new(lane_node(&dst, lane)),
                DATA_SERVICE,
                MessageKind::Request,
                corr,
                payload,
            );
        }
    }

    /// Build the wire payload for one block of a transfer, reading the
    /// block from the local CAS.
    fn block_payload(
        &self,
        state: &SiteState,
        transfer_id: u64,
        block: u32,
    ) -> Option<(String, Bytes)> {
        let t = state.tx.get(&transfer_id)?;
        let b = t.manifest.blocks.get(block as usize)?;
        let data = self.cas.get_block(&b.key).ok()?;
        Some((
            t.dst.clone(),
            encode_block(transfer_id, block, b.offset, b.key, &data),
        ))
    }
}

/// Split a stripe node id `{site}~s{q}` back into its site name.
fn split_lane(node: &str) -> Option<&str> {
    let at = node.rfind("~s")?;
    node[at + 2..].parse::<u32>().ok()?;
    Some(&node[..at])
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_gridsim::fault::PartitionWindow;
    use neesgrid_gridsim::{FaultPlan, LatencyModel, LinkKey, NetworkConfig};

    fn payload(n: usize) -> Bytes {
        // Mixed so chunk-aligned blocks are all distinct (see cas tests).
        Bytes::from(
            (0..n)
                .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    fn net(seed: u64) -> VirtualNetwork {
        VirtualNetwork::new(NetworkConfig {
            default_latency: LatencyModel::Fixed(SimTime::from_millis(10)),
            seed,
        })
    }

    fn config() -> StripeConfig {
        StripeConfig {
            lanes: 3,
            window: 4,
            chunk_size: 1024,
            max_retries: 3,
            backoff: SimTime::from_millis(20),
        }
    }

    #[test]
    fn striped_push_replicates_content() {
        let net = net(1);
        let telemetry = Telemetry::disabled();
        let a = ArchiveSite::attach(&net, "a", VirtualStore::new(), config(), &telemetry).unwrap();
        let b = ArchiveSite::attach(&net, "b", VirtualStore::new(), config(), &telemetry).unwrap();
        let content = payload(10_000);
        let m = a.ingest_local("/runs/x", &content, SimTime::ZERO);
        let status = a.push("b", m.clone());
        let TransferStatus::Completed(report) = status else {
            panic!("transfer failed: {status:?}");
        };
        assert_eq!(report.blocks_sent, 10);
        assert_eq!(report.blocks_retried, 0);
        assert_eq!(b.cas().assemble(&m).unwrap(), content);
        assert_eq!(b.cas().manifest("/runs/x"), None, "a push names no file");
    }

    #[test]
    fn dedup_skips_all_blocks_for_identical_content() {
        let net = net(2);
        let telemetry = Telemetry::disabled();
        let a = ArchiveSite::attach(&net, "a", VirtualStore::new(), config(), &telemetry).unwrap();
        let b = ArchiveSite::attach(&net, "b", VirtualStore::new(), config(), &telemetry).unwrap();
        let content = payload(6_000);
        let m1 = a.ingest_local("/runs/r1", &content, SimTime::ZERO);
        assert!(matches!(a.push("b", m1), TransferStatus::Completed(_)));
        // Same bytes, different logical name: only the manifest moves.
        let m2 = a.ingest_local("/runs/r2", &content, SimTime::ZERO);
        let TransferStatus::Completed(report) = a.push("b", m2.clone()) else {
            panic!("second transfer failed");
        };
        assert_eq!(report.blocks_sent, 0, "all blocks deduplicated");
        assert_eq!(report.blocks_skipped, 6);
        assert_eq!(b.cas().assemble(&m2).unwrap(), content);
    }

    #[test]
    fn dropped_blocks_are_retried() {
        let net = net(3);
        let telemetry = Telemetry::disabled();
        let a = ArchiveSite::attach(&net, "a", VirtualStore::new(), config(), &telemetry).unwrap();
        let b = ArchiveSite::attach(&net, "b", VirtualStore::new(), config(), &telemetry).unwrap();
        let mut plan = FaultPlan::reliable();
        // Kill two early frames on stripe 0 and one on stripe 1, so their
        // resends land after later blocks; stripe 2's first frame lands
        // twice.
        plan.drop_at(LinkKey::new(lane_node("a", 0), lane_node("b", 0)), 0);
        plan.drop_at(LinkKey::new(lane_node("a", 0), lane_node("b", 0)), 2);
        plan.drop_at(LinkKey::new(lane_node("a", 1), lane_node("b", 1)), 1);
        plan.dup_at(LinkKey::new(lane_node("a", 2), lane_node("b", 2)), 0);
        net.set_fault_plan(plan);
        let content = payload(12_000);
        let m = a.ingest_local("/runs/x", &content, SimTime::ZERO);
        let TransferStatus::Completed(report) = a.push("b", m.clone()) else {
            panic!("transfer failed");
        };
        assert_eq!(report.blocks_retried, 3);
        let stats = b.cas().stats();
        assert_eq!((stats.blocks_written, stats.blocks_deduped), (12, 1));
        assert_eq!(b.cas().assemble(&m).unwrap(), content);
    }

    #[test]
    fn dead_stripe_fails_over_to_survivors() {
        let net = net(4);
        let telemetry = Telemetry::disabled();
        let a = ArchiveSite::attach(&net, "a", VirtualStore::new(), config(), &telemetry).unwrap();
        let b = ArchiveSite::attach(&net, "b", VirtualStore::new(), config(), &telemetry).unwrap();
        // Stripe 0 drops everything forever: it must die and fail over.
        let mut plan = FaultPlan::reliable();
        plan.partition(PartitionWindow {
            link: LinkKey::new(lane_node("a", 0), lane_node("b", 0)),
            from_index: 0,
            to_index: u64::MAX,
        });
        net.set_fault_plan(plan);
        let content = payload(9_000);
        let m = a.ingest_local("/runs/x", &content, SimTime::ZERO);
        let TransferStatus::Completed(report) = a.push("b", m.clone()) else {
            panic!("transfer failed");
        };
        assert_eq!(report.stripes_failed, 1);
        assert!(report.blocks_retried > 0);
        assert_eq!(b.cas().assemble(&m).unwrap(), content);
    }

    #[test]
    fn all_stripes_dead_fails_the_transfer() {
        let net = net(5);
        let telemetry = Telemetry::disabled();
        let a = ArchiveSite::attach(&net, "a", VirtualStore::new(), config(), &telemetry).unwrap();
        let _b = ArchiveSite::attach(&net, "b", VirtualStore::new(), config(), &telemetry).unwrap();
        let mut plan = FaultPlan::reliable();
        for q in 0..3 {
            plan.partition(PartitionWindow {
                link: LinkKey::new(lane_node("a", q), lane_node("b", q)),
                from_index: 0,
                to_index: u64::MAX,
            });
        }
        net.set_fault_plan(plan);
        let m = a.ingest_local("/runs/x", &payload(5_000), SimTime::ZERO);
        assert_eq!(
            a.push("b", m),
            TransferStatus::Failed(TransferFailure::AllStripesDead)
        );
    }

    #[test]
    fn lost_control_frames_are_retried() {
        let net = net(6);
        let telemetry = Telemetry::disabled();
        let a = ArchiveSite::attach(&net, "a", VirtualStore::new(), config(), &telemetry).unwrap();
        let b = ArchiveSite::attach(&net, "b", VirtualStore::new(), config(), &telemetry).unwrap();
        let mut plan = FaultPlan::reliable();
        // The offer itself dies twice on the control link.
        plan.drop_at(LinkKey::new("a", "b"), 0);
        plan.drop_at(LinkKey::new("a", "b"), 1);
        net.set_fault_plan(plan);
        let content = payload(3_000);
        let m = a.ingest_local("/runs/x", &content, SimTime::ZERO);
        assert!(matches!(
            a.push("b", m.clone()),
            TransferStatus::Completed(_)
        ));
        assert_eq!(b.cas().assemble(&m).unwrap(), content);
    }

    #[test]
    fn unreachable_control_link_fails() {
        let net = net(7);
        let telemetry = Telemetry::disabled();
        let a = ArchiveSite::attach(&net, "a", VirtualStore::new(), config(), &telemetry).unwrap();
        let _b = ArchiveSite::attach(&net, "b", VirtualStore::new(), config(), &telemetry).unwrap();
        let mut plan = FaultPlan::reliable();
        plan.partition(PartitionWindow {
            link: LinkKey::new("a", "b"),
            from_index: 0,
            to_index: u64::MAX,
        });
        net.set_fault_plan(plan);
        let m = a.ingest_local("/runs/x", &payload(1_000), SimTime::ZERO);
        assert_eq!(
            a.push("b", m),
            TransferStatus::Failed(TransferFailure::ControlUnreachable)
        );
    }

    /// Deregister every node of `site` and attach a new site of that name
    /// over `store`: a receiver restarted in place, on the same network,
    /// that kept its blocks but lost every transfer's state.
    fn restart_in_place(
        net: &VirtualNetwork,
        site: &str,
        store: VirtualStore,
        config: StripeConfig,
    ) -> ArchiveSite {
        net.deregister(&NodeId::new(site));
        for q in 0..config.lanes {
            net.deregister(&NodeId::new(lane_node(site, q)));
        }
        ArchiveSite::attach(net, site, store, config, &Telemetry::disabled()).unwrap()
    }

    #[test]
    fn a_receiver_restarted_in_place_ends_the_push_and_a_new_push_resumes() {
        let net = net(8);
        let telemetry = Telemetry::recording();
        let config = StripeConfig {
            lanes: 2,
            window: 2,
            ..config()
        };
        let store = VirtualStore::new();
        let a = ArchiveSite::attach(&net, "a", VirtualStore::new(), config.clone(), &telemetry)
            .unwrap();
        let b = ArchiveSite::attach(
            &net,
            "b",
            store.clone(),
            config.clone(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let content = payload(20 * 1024);
        let m = a.ingest_local("/runs/x", &content, SimTime::ZERO);
        assert_eq!(m.blocks.len(), 20);
        let id = a.start_push("b", m.clone());
        let engine = net.engine();
        for _ in 0..6 {
            assert!(engine.run_one());
        }
        drop(b);
        let b = restart_in_place(&net, "b", store, config);
        while !matches!(a.status(id), Some(TransferStatus::Failed(_))) {
            assert!(engine.run_one(), "the push ends");
        }
        // The refusals still in flight arrive for a finished transfer and
        // change nothing.
        engine.run_until_idle();
        assert_eq!(
            a.status(id),
            Some(TransferStatus::Failed(
                TransferFailure::ReceiverLostTransfer
            ))
        );
        assert_eq!(telemetry.counter("archive.transfers_failed"), 1);

        // The restarted receiver kept the blocks that landed before the
        // restart; a new push of the manifest ships only the others.
        let held = m
            .blocks
            .iter()
            .filter(|r| b.cas().has_block(&r.key))
            .count();
        assert!(0 < held && held < 20, "{held} blocks held");
        let TransferStatus::Completed(report) = a.push("b", m.clone()) else {
            panic!("the second push failed");
        };
        assert_eq!(report.blocks_skipped, held as u64);
        assert_eq!(report.blocks_sent, (20 - held) as u64);
        assert_eq!(b.cas().assemble(&m).unwrap(), content);
    }

    /// A receiver stores and acks a block only if the frame carries exactly
    /// the block its manifest names: a corrupt payload, a moved offset or
    /// an index past the manifest's end is dropped unanswered.
    #[test]
    fn frames_that_disagree_with_the_manifest_are_refused() {
        let net = net(10);
        let b = ArchiveSite::attach(
            &net,
            "b",
            VirtualStore::new(),
            config(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let content = payload(3_000);
        let m = CasStore::new(VirtualStore::new()).ingest("/x", &content, 1024, SimTime::ZERO);
        let (ctl, data) = (net.endpoint("c").unwrap(), net.endpoint("c~s0").unwrap());
        let acks = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&acks);
        data.install_handler(move |env| seen.lock().push(decode_ack(&env.payload)));
        let offer = CtlFrame::Offer {
            transfer_id: 1,
            manifest: m.clone(),
        };
        ctl.send(
            NodeId::new("b"),
            CTL_SERVICE,
            MessageKind::Request,
            1,
            offer.encode(),
        );
        net.engine().run_until_idle();
        // Every frame names block 0's address; only the last is block 0.
        let block = |index, offset, data| encode_block(1, index, offset, m.blocks[0].key, data);
        let first = &content[..1024];
        let mut corrupt = first.to_vec();
        corrupt[7] ^= 1;
        for (corr, frame) in [
            (1, block(0, 0, &corrupt[..])),
            (2, block(0, 1, first)),
            (3, block(3, 0, first)),
            (4, block(0, 0, first)),
        ] {
            data.send(
                NodeId::new("b~s0"),
                DATA_SERVICE,
                MessageKind::Request,
                corr,
                frame,
            );
        }
        net.engine().run_until_idle();
        assert_eq!(
            *acks.lock(),
            vec![Some((1, 0))],
            "only the true block is acked"
        );
        assert_eq!(b.cas().stats().blocks_written, 1);
        assert_eq!(b.cas().coverage(&m).ranges, vec![(0, 1024)]);
    }

    #[test]
    fn same_seed_double_run_is_bit_identical() {
        let run = |seed: u64| -> (u32, u32) {
            let net = net(seed);
            let telemetry = Telemetry::disabled();
            let a =
                ArchiveSite::attach(&net, "a", VirtualStore::new(), config(), &telemetry).unwrap();
            let b =
                ArchiveSite::attach(&net, "b", VirtualStore::new(), config(), &telemetry).unwrap();
            let mut plan = FaultPlan::reliable();
            plan.drop_at(LinkKey::new(lane_node("a", 1), lane_node("b", 1)), 0);
            net.set_fault_plan(plan);
            let m = a.ingest_local("/runs/x", &payload(8_000), SimTime::ZERO);
            assert!(matches!(a.push("b", m), TransferStatus::Completed(_)));
            (a.cas().store_digest(), b.cas().store_digest())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn lane_node_parses_back() {
        assert_eq!(split_lane(&lane_node("uiuc", 3)), Some("uiuc"));
        assert_eq!(split_lane("uiuc"), None);
        assert_eq!(split_lane("a~sx"), None);
    }

    /// A control frame of every kind, with generated contents.
    fn ctl_frame(g: &mut crate::cas::fuzz::Gen) -> CtlFrame {
        let transfer_id = g.next();
        match g.below(4) {
            0 => CtlFrame::Offer {
                transfer_id,
                manifest: g.manifest(),
            },
            1 => CtlFrame::OfferAck {
                transfer_id,
                marker: RestartMarker {
                    ranges: (0..g.below(4)).map(|_| (g.next(), g.next())).collect(),
                },
            },
            2 => CtlFrame::Commit { transfer_id },
            _ => CtlFrame::CommitAck {
                transfer_id,
                ok: g.next() & 1 == 1,
            },
        }
    }

    #[test]
    fn ctl_frames_round_trip_and_garbage_never_panics() {
        let mut g = crate::cas::fuzz::Gen(0xC7_F4A3E5);
        for _ in 0..300 {
            let frame = ctl_frame(&mut g);
            let bytes = frame.encode();
            let back = CtlFrame::decode(&bytes).expect("an encoded frame decodes");
            assert_eq!(format!("{back:?}"), format!("{frame:?}"));
            assert_eq!(back.encode(), bytes);
            for cut in 0..bytes.len() {
                assert!(CtlFrame::decode(&bytes[..cut]).is_none());
            }
            let _ = CtlFrame::decode(&g.garbage());
        }
    }

    #[test]
    fn data_frames_round_trip_and_garbage_never_panics() {
        let mut g = crate::cas::fuzz::Gen(0xB10C_F4A3);
        for _ in 0..300 {
            let data: Vec<u8> = (0..g.below(48)).map(|_| g.next() as u8).collect();
            let (transfer_id, block_index, offset) = (g.next(), g.next() as u32, g.next());
            let key = BlockKey::of(&data);
            let frame = encode_block(transfer_id, block_index, offset, key, &data);
            let back = decode_block(&frame).expect("an encoded block decodes");
            assert_eq!(
                (back.transfer_id, back.block_index, back.offset, back.key),
                (transfer_id, block_index, offset, key)
            );
            assert_eq!(back.data, data);
            // A declared length that disagrees with the payload is refused:
            // a byte short, a byte over, or any flip in the length field.
            let mut over = frame.to_vec();
            over.push(0);
            assert!(decode_block(&Bytes::from(over)).is_none());
            for cut in 0..frame.len() {
                assert!(decode_block(&frame.slice(..cut)).is_none());
            }
            for at in 0..frame.len() {
                let mut flipped = frame.to_vec();
                flipped[at] ^= 1 << g.below(8);
                let decoded = decode_block(&Bytes::from(flipped));
                assert_eq!(decoded.is_none(), (24..28).contains(&at), "flip at {at}");
            }

            let ack = encode_ack(transfer_id, block_index);
            assert_eq!(decode_ack(&ack), Some((transfer_id, block_index)));
            for cut in 0..ack.len() {
                assert!(decode_ack(&ack[..cut]).is_none());
            }
            let mut long = ack.to_vec();
            long.push(0);
            assert!(decode_ack(&long).is_none());
            for at in 0..ack.len() {
                let mut flipped = ack.to_vec();
                flipped[at] ^= 1 << g.below(8);
                assert!(decode_ack(&flipped).is_some(), "every 12-byte ack decodes");
            }

            let refusal = encode_refusal(transfer_id, block_index);
            assert_eq!(decode_refusal(&refusal), Some((transfer_id, block_index)));
            assert!(decode_ack(&refusal).is_none(), "a refusal is not an ack");
            assert!(decode_refusal(&ack).is_none(), "an ack is not a refusal");
            for cut in 0..refusal.len() {
                assert!(decode_refusal(&refusal[..cut]).is_none());
            }
            let mut long = refusal.to_vec();
            long.push(REFUSED);
            assert!(decode_refusal(&long).is_none());
            for at in 0..refusal.len() {
                let mut flipped = refusal.to_vec();
                flipped[at] ^= 1 << g.below(8);
                assert_eq!(
                    decode_refusal(&flipped).is_some(),
                    at < 12,
                    "flip at {at}: only the tag byte is checked"
                );
            }

            let garbage = g.garbage();
            let _ = decode_ack(&garbage);
            let _ = decode_refusal(&garbage);
            let _ = decode_block(&Bytes::from(garbage));
        }
    }
}
