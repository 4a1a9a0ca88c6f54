//! Striped block transfer over multiple concurrent virtual links.
//!
//! A transfer ships one [`Manifest`]'s blocks from the sender's CAS to the
//! receiver's, GridFTP-style (Allcock et al., ref 3): the blocks are dealt
//! round-robin onto `lanes` independent **stripe links** — each stripe is
//! its own `gridsim` node pair `{site}~s{q}`, so it has its own latency
//! model, fault plan, and message-index counters — with a window of 8
//! unacknowledged blocks per stripe.
//!
//! A push is one record on its sender: destination, manifest, stripe
//! queues, report and a [`TransferStatus`]. Every frame a site awaits an
//! answer to — an offer, a commit, a block — is one entry of one table,
//! keyed by the port it left on and its correlation id: an answer removes
//! the entry, and a loss notice (`Dropped` / `LinkReset` / `NoRoute`,
//! delivered by the network to whoever waits on the frame) takes one path.
//! It counts the attempt, then either re-sends the frame after exponential
//! backoff in virtual time (50 ms doubled per loss), scheduled as an
//! engine delivery, or — past 4 losses — fails the push (an offer or
//! commit) or declares the stripe dead and **fails over** its blocks to
//! the survivors (a block). The protocol has no timer. A push that ends keeps only its final
//! status. Same seed + same fault plan ⇒ bit-identical transfer,
//! byte-for-byte and trace-for-trace.
//!
//! Restart is content-addressed: the receiver's `OfferAck` carries a
//! [`RestartMarker`] computed from the blocks its CAS already holds, so an
//! interrupted (or deduplicated) transfer never resends a byte. A receiver
//! restarted in place keeps its blocks but loses its transfers' state: it
//! answers a block of a transfer it does not know with a refusal frame,
//! the sender ends that push with [`TransferFailure::ReceiverLostTransfer`],
//! and a new push of the manifest ships only what the coverage lacks. A
//! block frame that disagrees with the offered manifest is refused too,
//! and ends its push with [`TransferFailure::BlockRefused`].
//!
//! A push moves blocks, never names: the receiver's commit answers whether
//! it now holds every block of the manifest, and writes no manifest. The
//! party that owns the name binds it afterwards — the archive cluster for
//! a replica it placed, NFMS for an upload an authenticated caller commits
//! — so an unauthenticated stripe lane can land bytes but cannot create a
//! file.

use std::collections::btree_map::Entry;
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

/// Max unacknowledged blocks in flight per stripe.
const WINDOW: usize = 8;
/// Loss notices one frame survives: past this an offer or commit fails
/// its push and a block kills its stripe.
const MAX_RETRIES: u32 = 4;
/// Base retry backoff; the resend after loss `n` waits `BACKOFF << n` of
/// virtual time.
const BACKOFF: SimTime = SimTime::from_millis(50);

/// The node id of stripe lane `lane` of `site`.
pub fn lane_node(site: &str, lane: u32) -> String {
    format!("{site}~s{lane}")
}

/// The striped transfer engine's settings: how many stripes, and how big
/// a block. The rest is fixed: 8 blocks in flight per stripe, 4 losses
/// per frame, and a 50 ms backoff doubled per loss.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeConfig {
    /// Number of parallel stripe links per site pair.
    pub lanes: u32,
    /// Block size used when chunking content into the CAS.
    pub chunk_size: u32,
}

impl Default for StripeConfig {
    fn default() -> Self {
        StripeConfig {
            lanes: 4,
            chunk_size: 64 * 1024,
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

/// Why a receiver refused a block: the byte that ends a refusal frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// The receiver holds no state for the transfer.
    UnknownTransfer = 0xFF,
    /// The frame disagrees with the manifest the receiver was offered.
    Disagrees = 0xFE,
}

/// Binary refusal frame: `transfer_id u64 | block_index u32 | why u8`, the
/// answer to a block the receiver will not store. One byte longer than an
/// ack, so neither decodes as the other.
fn encode_refusal(transfer_id: u64, block_index: u32, why: Refusal) -> Bytes {
    let mut out = encode_ack(transfer_id, block_index).to_vec();
    out.push(why as u8);
    Bytes::from(out)
}

fn decode_refusal(payload: &[u8]) -> Option<(u64, u32, Refusal)> {
    let why = match *payload.split_last()?.0 {
        0xFF => Refusal::UnknownTransfer,
        0xFE => Refusal::Disagrees,
        _ => return None,
    };
    let (transfer_id, block_index) = decode_ack(&payload[..payload.len() - 1])?;
    Some((transfer_id, block_index, why))
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
    /// The receiver refused a block frame that disagreed with the manifest
    /// it was offered (address, offset, index or payload CRC).
    BlockRefused {
        /// Index of the refused block.
        block: u32,
    },
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
            TransferFailure::BlockRefused { block } => {
                write!(f, "receiver refused block {block}")
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

/// A frame a push awaits an answer to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Frame {
    Offer,
    Commit,
    Block(u32),
}

/// One entry of a site's awaited-frame table.
struct Awaited {
    transfer: u64,
    frame: Frame,
    /// Loss notices this frame has had.
    attempts: u32,
    sent_at: SimTime,
}

/// One stripe of a push.
struct Lane {
    queue: VecDeque<u32>,
    /// Blocks sent on this stripe and not yet acked.
    in_flight: usize,
    dead: bool,
}

/// A push under way: its sender's one record of it.
struct Push {
    dst: String,
    manifest: Manifest,
    lanes: Vec<Lane>,
    span: SpanId,
    started_at: SimTime,
    report: TransferReport,
    /// `Negotiating`, `Streaming` or `Committing`: a push that ends
    /// leaves only its final status behind.
    status: TransferStatus,
}

/// An awaited frame's key: the port it left on (0 the base node, `q + 1`
/// stripe lane `q`) and its correlation id there.
type AwaitKey = (usize, u64);

#[derive(Default)]
struct SiteState {
    next_transfer: u64,
    /// Sender side: pushes under way.
    pushes: BTreeMap<u64, Push>,
    /// Sender side: the final status of every push that ended.
    ended: BTreeMap<u64, TransferStatus>,
    /// Sender side: every frame a push awaits an answer to, by the port it
    /// left on and its correlation id.
    awaiting: BTreeMap<AwaitKey, Awaited>,
    /// Receiver side: per (sender, transfer) offered and not yet
    /// committed, the manifest and what of it has landed.
    offered: BTreeMap<(String, u64), (Manifest, RestartMarker)>,
    /// Receiver side: per committed (sender, transfer), the commit's
    /// answer, so a repeated `Commit` gets the same one.
    committed: BTreeMap<(String, u64), bool>,
}

impl SiteState {
    /// Remove awaited entry `key` if it is `frame` of push `id`: the one
    /// way an answer retires a frame.
    fn take_awaited(&mut self, key: AwaitKey, id: u64, frame: Frame) -> Option<Awaited> {
        match self.awaiting.entry(key) {
            Entry::Occupied(e) if e.get().transfer == id && e.get().frame == frame => {
                Some(e.remove())
            }
            _ => None,
        }
    }
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
    /// The base node (port 0), then stripe lane `q` (port `q + 1`).
    ports: Vec<Endpoint>,
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
        let mut ports = vec![net.endpoint(name.as_str())?];
        for q in 0..config.lanes {
            ports.push(net.endpoint(lane_node(&name, q))?);
        }
        let inner = Arc::new(SiteInner {
            cas: CasStore::for_site(store, &name, telemetry),
            name,
            engine: net.engine(),
            clock: net.clock(),
            ports,
            config,
            metrics: SiteMetrics::new(telemetry),
            state: Mutex::new(SiteState::default()),
        });
        // Handler mode: every envelope becomes a deterministic engine event.
        for (port, endpoint) in inner.ports.iter().enumerate() {
            let site = Arc::clone(&inner);
            endpoint.install_handler(move |env| site.on_envelope(port, env));
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
        let lane_cap = manifest.blocks.len().max(1);
        let lanes = (0..inner.config.lanes)
            .map(|_| Lane {
                // Failover can reassign every remaining block onto one
                // surviving stripe, so each queue is sized for the lot.
                // analyzer:buffer(cap = lane_cap, drop = block)
                queue: VecDeque::with_capacity(lane_cap),
                in_flight: 0,
                dead: false,
            })
            .collect();
        let push = Push {
            dst: dst.to_string(),
            manifest,
            lanes,
            span,
            started_at: now,
            report: TransferReport::default(),
            status: TransferStatus::Negotiating,
        };
        state.pushes.insert(id, push);
        inner.send_frame(&mut state, 0, id, Frame::Offer, 0);
        id
    }

    /// Current status of an outbound transfer; a push that ended answers
    /// with its final status.
    pub fn status(&self, transfer_id: u64) -> Option<TransferStatus> {
        let state = self.inner.state.lock();
        let live = state.pushes.get(&transfer_id).map(|p| &p.status);
        live.or_else(|| state.ended.get(&transfer_id)).cloned()
    }

    /// Push `manifest` to `dst` and pump the engine until the transfer
    /// ends: the blocking form of [`ArchiveSite::start_push`]. Returns the
    /// final status, or the current one if the engine ran out of work
    /// first (a destination that never answers).
    pub fn push(&self, dst: &str, manifest: Manifest) -> TransferStatus {
        let id = self.start_push(dst, manifest);
        let inner = &self.inner;
        inner
            .engine
            .run_until(|| inner.state.lock().ended.contains_key(&id));
        self.status(id).unwrap_or(TransferStatus::Negotiating)
    }
}

impl SiteInner {
    fn on_envelope(self: &Arc<Self>, port: usize, env: Envelope) {
        match (env.kind, port) {
            (MessageKind::Request, 0) => self.on_ctl_request(env),
            (MessageKind::Request, _) => self.on_block(port, env),
            (MessageKind::Reply, 0) => self.on_ctl_reply(env),
            (MessageKind::Reply, _) => self.on_block_reply(port, env),
            (MessageKind::Control, _) => self.on_loss(port, env),
            (MessageKind::OneWay, _) => {}
        }
    }

    /// Send `frame` of push `id` on `port` under a fresh correlation id,
    /// filed in the awaited-frame table with `attempts` losses so far: the
    /// one send path of first sends and resends alike. Returns whether it
    /// went out; a block this site's CAS cannot produce fails the push.
    fn send_frame(
        &self,
        state: &mut SiteState,
        port: usize,
        id: u64,
        frame: Frame,
        attempts: u32,
    ) -> bool {
        let Some(push) = state.pushes.get(&id) else {
            return false;
        };
        let corr = self.ports[port].next_correlation();
        let (to, service, payload) = match frame {
            Frame::Offer => {
                let manifest = push.manifest.clone();
                let offer = CtlFrame::Offer {
                    transfer_id: id,
                    manifest,
                };
                (push.dst.clone(), CTL_SERVICE, offer.encode())
            }
            Frame::Commit => {
                let commit = CtlFrame::Commit { transfer_id: id };
                (push.dst.clone(), CTL_SERVICE, commit.encode())
            }
            Frame::Block(block) => {
                let to = lane_node(&push.dst, port as u32 - 1);
                let b = &push.manifest.blocks[block as usize];
                let (key, offset) = (b.key, b.offset);
                let Ok(data) = self.cas.get_block(&key) else {
                    self.end(
                        state,
                        id,
                        Err(TransferFailure::SourceMissingBlock { block }),
                    );
                    return false;
                };
                (
                    to,
                    DATA_SERVICE,
                    encode_block(id, block, offset, key, &data),
                )
            }
        };
        let sent_at = self.clock.now();
        let awaited = Awaited {
            transfer: id,
            frame,
            attempts,
            sent_at,
        };
        state.awaiting.insert((port, corr), awaited);
        self.ports[port].send(
            NodeId::new(to),
            service,
            MessageKind::Request,
            corr,
            payload,
        );
        true
    }

    /// End push `id`: keep only its final status, drop its manifest,
    /// queues and awaited frames, and close its span.
    fn end(&self, state: &mut SiteState, id: u64, outcome: Result<(), TransferFailure>) {
        let Some(mut push) = state.pushes.remove(&id) else {
            return;
        };
        state.awaiting.retain(|_, a| a.transfer != id);
        let now = self.clock.now();
        let telemetry = &self.metrics.telemetry;
        let status = match outcome {
            Ok(()) => {
                push.report.elapsed = now - push.started_at;
                let report = push.report;
                self.metrics.transfers_completed.add(1);
                telemetry.span_end(
                    now.as_nanos(),
                    push.span,
                    [
                        ("outcome", Field::Static("completed")),
                        ("blocks_sent", Field::U64(report.blocks_sent)),
                        ("retried", Field::U64(report.blocks_retried)),
                        ("skipped", Field::U64(report.blocks_skipped)),
                    ],
                );
                TransferStatus::Completed(report)
            }
            Err(why) => {
                self.metrics.transfers_failed.add(1);
                telemetry.span_end(
                    now.as_nanos(),
                    push.span,
                    [
                        ("outcome", Field::Static("failed")),
                        ("why", Field::Str(why.to_string())),
                    ],
                );
                TransferStatus::Failed(why)
            }
        };
        state.ended.insert(id, status);
    }

    /// Receiver side of the control plane.
    fn on_ctl_request(&self, env: Envelope) {
        let Some(frame) = CtlFrame::decode(&env.payload) else {
            return;
        };
        let sender = env.src.as_str().to_string();
        let mut state = self.state.lock();
        let reply = match frame {
            CtlFrame::Offer {
                transfer_id,
                manifest,
            } => {
                let entry = state.offered.entry((sender, transfer_id));
                let (_, marker) = entry.or_insert_with(|| {
                    // Dedup on arrival: the marker opens with whatever the
                    // CAS already covers (identical capture ⇒ full marker).
                    let marker = self.cas.coverage(&manifest);
                    (manifest, marker)
                });
                let marker = marker.clone();
                CtlFrame::OfferAck {
                    transfer_id,
                    marker,
                }
            }
            CtlFrame::Commit { transfer_id } => {
                let key = (sender, transfer_id);
                let ok = match state.offered.remove(&key) {
                    // The transfer ends here: keep only the answer.
                    Some((manifest, marker)) => {
                        let ok = marker.is_complete(manifest.total_len);
                        state.committed.insert(key, ok);
                        ok
                    }
                    None => state.committed.get(&key).copied().unwrap_or(false),
                };
                CtlFrame::CommitAck { transfer_id, ok }
            }
            // Replies mis-sent as requests: ignore.
            CtlFrame::OfferAck { .. } | CtlFrame::CommitAck { .. } => return,
        };
        drop(state);
        self.ports[0].send(
            env.src,
            CTL_SERVICE,
            MessageKind::Reply,
            env.correlation_id,
            reply.encode(),
        );
    }

    /// Sender side of the control plane: an offer's or a commit's answer.
    fn on_ctl_reply(&self, env: Envelope) {
        let Some(frame) = CtlFrame::decode(&env.payload) else {
            return;
        };
        let (id, awaited) = match frame {
            CtlFrame::OfferAck { transfer_id, .. } => (transfer_id, Frame::Offer),
            CtlFrame::CommitAck { transfer_id, .. } => (transfer_id, Frame::Commit),
            CtlFrame::Offer { .. } | CtlFrame::Commit { .. } => return,
        };
        let mut state = self.state.lock();
        if state
            .take_awaited((0, env.correlation_id), id, awaited)
            .is_none()
        {
            return; // a duplicate answer
        }
        match frame {
            CtlFrame::OfferAck { marker, .. } => self.on_offer_ack(&mut state, id, &marker),
            CtlFrame::CommitAck { ok, .. } => {
                let outcome = ok.then_some(()).ok_or(TransferFailure::CommitRefused);
                self.end(&mut state, id, outcome);
            }
            CtlFrame::Offer { .. } | CtlFrame::Commit { .. } => {}
        }
    }

    /// Deal the blocks the receiver's marker does not cover round-robin
    /// across the stripes, or commit at once if it covers them all.
    fn on_offer_ack(&self, state: &mut SiteState, id: u64, marker: &RestartMarker) {
        let Some(push) = state.pushes.get_mut(&id) else {
            return;
        };
        let mut needed: Vec<u32> = Vec::new();
        for (i, b) in push.manifest.blocks.iter().enumerate() {
            let (s, e) = b.range();
            if marker.covers(s, e) {
                push.report.blocks_skipped += 1;
            } else {
                needed.push(i as u32);
            }
        }
        self.metrics.blocks_skipped.add(push.report.blocks_skipped);
        if needed.is_empty() {
            // Everything deduplicated — straight to commit.
            self.commit(state, id);
            return;
        }
        push.status = TransferStatus::Streaming {
            done: 0,
            total: needed.len(),
        };
        let lanes = push.lanes.len().max(1);
        for (i, block) in needed.into_iter().enumerate() {
            push.lanes[i % lanes].queue.push_back(block);
        }
        for q in 0..lanes {
            self.fill_lane(state, id, q);
        }
    }

    /// Every needed block is acked: ask the receiver to confirm it holds
    /// them all.
    fn commit(&self, state: &mut SiteState, id: u64) {
        if let Some(push) = state.pushes.get_mut(&id) {
            push.status = TransferStatus::Committing;
        }
        self.send_frame(state, 0, id, Frame::Commit, 0);
    }

    /// Receiver side: store the block, extend the marker, ack — or refuse
    /// a block of a transfer this site holds no state for (it restarted
    /// since the offer) or one that disagrees with the offered manifest.
    fn on_block(&self, port: usize, env: Envelope) {
        let Some(frame) = decode_block(&env.payload) else {
            return;
        };
        let Some(src_site) = split_lane(env.src.as_str()) else {
            return;
        };
        let (id, index) = (frame.transfer_id, frame.block_index);
        let mut state = self.state.lock();
        let reply = match state.offered.get_mut(&(src_site.to_string(), id)) {
            None => encode_refusal(id, index, Refusal::UnknownTransfer),
            Some((manifest, marker)) => match manifest.blocks.get(index as usize) {
                // The frame must carry exactly the block the manifest names.
                Some(expected)
                    if expected.key == frame.key
                        && expected.offset == frame.offset
                        && BlockKey::of(&frame.data) == frame.key =>
                {
                    let (s, e) = expected.range();
                    self.cas.put_block(frame.key, frame.data, self.clock.now());
                    marker.add(s, e);
                    encode_ack(id, index)
                }
                _ => encode_refusal(id, index, Refusal::Disagrees),
            },
        };
        drop(state);
        self.ports[port].send(
            env.src,
            DATA_SERVICE,
            MessageKind::Reply,
            env.correlation_id,
            reply,
        );
    }

    /// Sender side: a block was acknowledged, or refused — which ends its
    /// push, since none of the push's other blocks will be stored either.
    fn on_block_reply(&self, port: usize, env: Envelope) {
        let (id, block, refused) = match decode_refusal(&env.payload) {
            Some((id, block, why)) => (id, block, Some(why)),
            None => match decode_ack(&env.payload) {
                Some((id, block)) => (id, block, None),
                None => return,
            },
        };
        let mut state = self.state.lock();
        let key = (port, env.correlation_id);
        let Some(awaited) = state.take_awaited(key, id, Frame::Block(block)) else {
            return; // a duplicate answer, or one for a push that ended
        };
        if let Some(why) = refused.map(|why| match why {
            Refusal::UnknownTransfer => TransferFailure::ReceiverLostTransfer,
            Refusal::Disagrees => TransferFailure::BlockRefused { block },
        }) {
            self.end(&mut state, id, Err(why));
            return;
        }
        let Some(push) = state.pushes.get_mut(&id) else {
            return;
        };
        push.lanes[port - 1].in_flight -= 1;
        self.metrics.blocks_acked.add(1);
        let rtt = self.clock.now() - awaited.sent_at;
        self.metrics.block_rtt.observe_ns(rtt.as_nanos());
        if let TransferStatus::Streaming { done, total } = &mut push.status {
            *done += 1;
            if *done >= *total {
                self.commit(&mut state, id);
                return;
            }
        }
        self.fill_lane(&mut state, id, port - 1);
    }

    /// A frame this site awaits an answer to was lost, or its answer was.
    /// Count the attempt; past [`MAX_RETRIES`] an offer or commit fails
    /// the push and a block kills its stripe, and otherwise the frame is
    /// re-sent after exponential backoff in virtual time, scheduled as an
    /// engine delivery — no wall clock anywhere near the retry path.
    fn on_loss(self: &Arc<Self>, port: usize, env: Envelope) {
        let Some(notice) = ControlNotice::from_bytes(&env.payload) else {
            return;
        };
        let key = (port, notice.correlation_id());
        let mut state = self.state.lock();
        let Some(awaited) = state.awaiting.get_mut(&key) else {
            return;
        };
        awaited.attempts += 1;
        let (id, frame, attempts) = (awaited.transfer, awaited.frame, awaited.attempts);
        if attempts > MAX_RETRIES {
            match frame {
                Frame::Block(_) => self.kill_lane(&mut state, id, port - 1),
                Frame::Offer | Frame::Commit => {
                    self.end(&mut state, id, Err(TransferFailure::ControlUnreachable))
                }
            }
            return;
        }
        if let (Frame::Block(_), Some(push)) = (frame, state.pushes.get_mut(&id)) {
            push.report.blocks_retried += 1;
            self.metrics.blocks_retried.add(1);
        }
        drop(state);
        let at = self.clock.now() + SimTime::from_nanos(BACKOFF.as_nanos() << attempts);
        let site = Arc::clone(self);
        self.engine
            .schedule_delivery(at, move || site.resend(key, attempts));
    }

    /// Re-send awaited frame `key` under a fresh correlation id, unless an
    /// answer or a newer loss notice came first.
    fn resend(&self, key: AwaitKey, attempts: u32) {
        let mut state = self.state.lock();
        let awaited = match state.awaiting.entry(key) {
            Entry::Occupied(e) if e.get().attempts == attempts => e.remove(),
            _ => return,
        };
        let (id, frame) = (awaited.transfer, awaited.frame);
        self.send_frame(&mut state, key.0, id, frame, attempts);
    }

    /// Declare stripe `lane` of push `id` dead and deal its backlog
    /// (queued and awaited blocks) round-robin across the survivors.
    fn kill_lane(&self, state: &mut SiteState, id: u64, lane: usize) {
        let port = lane + 1;
        let stale: Vec<AwaitKey> = state
            .awaiting
            .range((port, 0)..=(port, u64::MAX))
            .filter(|(_, a)| a.transfer == id)
            .map(|(key, _)| *key)
            .collect();
        let Some(push) = state.pushes.get_mut(&id) else {
            return;
        };
        let dying = &mut push.lanes[lane];
        dying.dead = true;
        dying.in_flight = 0;
        let mut orphans: Vec<u32> = dying.queue.drain(..).collect();
        for key in stale {
            if let Some(Awaited {
                frame: Frame::Block(block),
                ..
            }) = state.awaiting.remove(&key)
            {
                orphans.push(block);
            }
        }
        push.report.stripes_failed += 1;
        self.metrics.stripes_dead.add(1);
        let now = self.clock.now().as_nanos();
        let telemetry = &self.metrics.telemetry;
        telemetry.instant(
            now,
            "archive",
            "stripe_dead",
            [
                ("transfer", Field::U64(id)),
                ("stripe", Field::U64(lane as u64)),
                ("orphans", Field::U64(orphans.len() as u64)),
            ],
        );
        let survivors: Vec<usize> = (0..push.lanes.len())
            .filter(|&q| !push.lanes[q].dead)
            .collect();
        if survivors.is_empty() {
            self.end(state, id, Err(TransferFailure::AllStripesDead));
            return;
        }
        telemetry.instant(
            now,
            "archive",
            "failover",
            [
                ("transfer", Field::U64(id)),
                ("to_stripes", Field::U64(survivors.len() as u64)),
            ],
        );
        for (i, block) in orphans.into_iter().enumerate() {
            let q = survivors[i % survivors.len()];
            push.lanes[q].queue.push_back(block);
        }
        for q in survivors {
            self.fill_lane(state, id, q);
        }
    }

    /// Send queued blocks on `lane` until its window is full.
    fn fill_lane(&self, state: &mut SiteState, id: u64, lane: usize) {
        loop {
            let Some(push) = state.pushes.get_mut(&id) else {
                return;
            };
            let l = &mut push.lanes[lane];
            if l.dead || l.in_flight >= WINDOW {
                return;
            }
            let Some(block) = l.queue.pop_front() else {
                return;
            };
            l.in_flight += 1;
            push.report.blocks_sent += 1;
            push.report.bytes_sent += push.manifest.blocks[block as usize].key.len as u64;
            if self.send_frame(state, lane + 1, id, Frame::Block(block), 0) {
                self.metrics.blocks_sent.add(1);
            }
        }
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
            chunk_size: 1024,
        }
    }

    /// What `site` still holds for push `id` as its sender (the push's
    /// record, which owns its manifest and queues, and its awaited frames)
    /// and for every transfer as a receiver (offered manifests).
    fn held(site: &ArchiveSite, id: u64) -> (usize, usize) {
        let state = site.inner.state.lock();
        let awaited = state.awaiting.values().filter(|a| a.transfer == id);
        let sender = usize::from(state.pushes.contains_key(&id)) + awaited.count();
        (sender, state.offered.len())
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
    /// an index past the manifest's end is refused, so the sender is never
    /// left waiting.
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
        let answers = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&answers);
        data.install_handler(move |env| {
            let answer = (decode_ack(&env.payload), decode_refusal(&env.payload));
            seen.lock().push((env.correlation_id, answer));
        });
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
        let refused = |block| (None, Some((1, block, Refusal::Disagrees)));
        assert_eq!(
            *answers.lock(),
            vec![
                (1, refused(0)),
                (2, refused(0)),
                (3, refused(3)),
                (4, (Some((1, 0)), None))
            ],
            "three refusals, and only the true block is acked"
        );
        assert_eq!(b.cas().stats().blocks_written, 1);
        assert_eq!(b.cas().coverage(&m).ranges, vec![(0, 1024)]);
    }

    /// Every single fault on a 4-block, 2-lane push — a drop, a duplicate
    /// or a reset of any of the first four messages of the base link or a
    /// lane, in either direction — ends the push `Completed` with the
    /// content intact, and leaves neither site holding anything for it.
    #[test]
    fn every_single_fault_plan_completes_and_leaves_nothing_behind() {
        let lane = |q, from, to| LinkKey::new(lane_node(from, q), lane_node(to, q));
        let links = [
            LinkKey::new("a", "b"),
            LinkKey::new("b", "a"),
            lane(0, "a", "b"),
            lane(0, "b", "a"),
            lane(1, "a", "b"),
            lane(1, "b", "a"),
        ];
        let content = payload(4 * 1024);
        let config = StripeConfig {
            lanes: 2,
            chunk_size: 1024,
        };
        let mut failures = Vec::new();
        for link in &links {
            for index in 0..4 {
                for fault in ["drop", "dup", "reset"] {
                    let net = net(11);
                    let telemetry = Telemetry::disabled();
                    let attach = |name| {
                        ArchiveSite::attach(
                            &net,
                            name,
                            VirtualStore::new(),
                            config.clone(),
                            &telemetry,
                        )
                        .unwrap()
                    };
                    let (a, b) = (attach("a"), attach("b"));
                    let mut plan = FaultPlan::reliable();
                    match fault {
                        "drop" => plan.drop_at(link.clone(), index),
                        "dup" => plan.dup_at(link.clone(), index),
                        _ => plan.reset_at(link.clone(), index),
                    };
                    net.set_fault_plan(plan);
                    let m = a.ingest_local("/runs/x", &content, SimTime::ZERO);
                    let status = a.push("b", m.clone());
                    net.engine().run_until_idle();
                    let assembled = b.cas().assemble(&m).ok();
                    let (sender, receiver) = (held(&a, 1), held(&b, 1));
                    if !matches!(status, TransferStatus::Completed(_))
                        || assembled.as_ref() != Some(&content)
                        || sender != (0, 0)
                        || receiver != (0, 0)
                    {
                        failures.push(format!(
                            "{fault} {}->{} #{index}: {status:?}, held {sender:?} / {receiver:?}",
                            link.src, link.dst
                        ));
                    }
                }
            }
        }
        assert!(failures.is_empty(), "{failures:#?}");
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

            let why = [Refusal::UnknownTransfer, Refusal::Disagrees][g.below(2)];
            let refusal = encode_refusal(transfer_id, block_index, why);
            assert_eq!(
                decode_refusal(&refusal),
                Some((transfer_id, block_index, why))
            );
            assert!(decode_ack(&refusal).is_none(), "a refusal is not an ack");
            assert!(decode_refusal(&ack).is_none(), "an ack is not a refusal");
            for cut in 0..refusal.len() {
                assert!(decode_refusal(&refusal[..cut]).is_none());
            }
            let mut long = refusal.to_vec();
            long.push(why as u8);
            assert!(decode_refusal(&long).is_none());
            for at in 0..refusal.len() {
                let mut flipped = refusal.to_vec();
                flipped[at] ^= 1 << g.below(8);
                assert_eq!(
                    decode_refusal(&flipped).is_some(),
                    at < 12 || matches!(flipped[12], 0xFE | 0xFF),
                    "flip at {at}: only the reason byte is checked"
                );
            }

            let garbage = g.garbage();
            let _ = decode_ack(&garbage);
            let _ = decode_refusal(&garbage);
            let _ = decode_block(&Bytes::from(garbage));
        }
    }
}
