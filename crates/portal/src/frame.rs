//! The portal wire protocol: length-prefixed JSON frames.
//!
//! Every payload crossing a portal link is one frame: a 4-byte big-endian
//! length followed by exactly that many bytes of JSON. The prefix makes
//! truncation and trailing garbage detectable at the transport layer —
//! a malformed frame is refused before any field is interpreted — and
//! bounds the decode (`MAX_FRAME_BYTES`) so a hostile client cannot make
//! the service allocate unboundedly.
//!
//! A decoded value may borrow from its frame: [`SamplesView`] reads a
//! `Samples` reply in place, each sample's channel name a slice of the
//! frame, which is how the CHEF viewers ingest their `Poll` replies.

use std::borrow::Cow;

use bytes::Bytes;
use serde::de::{self, DeserializeVariant, Error as _, MapAccess, Token};
use serde::{Deserialize, Deserializer, Serialize};

use neesgrid_daq::nsds::SampleRun;
use neesgrid_gridsim::SimTime;
use neesgrid_gsi::{CredentialToken, DistinguishedName, PolicyDecision};
use neesgrid_structsim::psd::PsdHistory;

use crate::experiment::ExperimentSpec;
use crate::tenant::Role;

/// Hard cap on one frame's JSON body. Larger messages (e.g. a huge
/// history fetch) must be refused, not silently truncated.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Most artifact bytes one `FetchArtifact` reply may carry. The chunk
/// travels as hex, exactly two characters per byte, so a full reply frame
/// is 512 KiB of data plus a small envelope, well under
/// [`MAX_FRAME_BYTES`].
pub const ARTIFACT_CHUNK_MAX: usize = 256 * 1024;

/// The service name portal frames ride under.
pub const PORTAL_SERVICE: &str = "portal";

/// Framing / codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the 4-byte length prefix promises.
    Truncated {
        /// Bytes the prefix declared.
        declared: usize,
        /// Bytes actually present after the prefix.
        present: usize,
    },
    /// Bytes left over after the declared body.
    TrailingGarbage(usize),
    /// Declared body exceeds [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// The body is not valid JSON for the expected type.
    Json(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { declared, present } => {
                write!(
                    f,
                    "frame truncated: declared {declared} bytes, got {present}"
                )
            }
            FrameError::TrailingGarbage(n) => write!(f, "{n} bytes after frame body"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME_BYTES}")
            }
            FrameError::Json(e) => write!(f, "frame body undecodable: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode a value as one length-prefixed JSON frame. The body is written
/// straight after a placeholder prefix in one buffer, which becomes the
/// frame's `Bytes` as it is. The buffer starts with room for a small
/// frame; a large member, such as a reply's [`SampleRun`], reserves room
/// for itself.
pub fn encode<T: Serialize>(value: &T) -> Result<Bytes, FrameError> {
    let mut out = String::with_capacity(256);
    out.push_str("\0\0\0\0");
    value.write_json(&mut out);
    let len = out.len() - 4;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut out = out.into_bytes();
    out[..4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(Bytes::from(out))
}

/// Decode one length-prefixed JSON frame; the value may borrow from it.
pub fn decode<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T, FrameError> {
    if bytes.len() < 4 {
        return Err(FrameError::Truncated {
            declared: 4,
            present: bytes.len(),
        });
    }
    let declared = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(declared));
    }
    let body = &bytes[4..];
    if body.len() < declared {
        return Err(FrameError::Truncated {
            declared,
            present: body.len(),
        });
    }
    if body.len() > declared {
        return Err(FrameError::TrailingGarbage(body.len() - declared));
    }
    serde_json::from_slice(&body[..declared]).map_err(|e| FrameError::Json(e.to_string()))
}

/// One client request: who is asking, and what for. The tenant identity
/// must match a live session for everything except `Login` itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestFrame {
    /// The calling tenant.
    pub tenant: DistinguishedName,
    /// The operation.
    pub request: Request,
}

/// Portal operations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Open a session by presenting a serialized credential token.
    Login {
        /// The tenant's credential (certificate + proxy chain, no key).
        token: CredentialToken,
    },
    /// Close the caller's session.
    Logout,
    /// Report the caller's live session, if any.
    Whoami,
    /// Submit an experiment for admission.
    Submit {
        /// What to run.
        spec: ExperimentSpec,
    },
    /// Report a run's status.
    Status {
        /// Run id from `Submitted`.
        run: String,
    },
    /// Fetch a completed run's full trajectory (owner only).
    Fetch {
        /// Run id.
        run: String,
    },
    /// Stream one of a run's archived artifacts (owner only). Artifacts
    /// exist once the run finishes and the portal has an archive
    /// attached: `capture.jsonl` (the NSDS capture), `history.json` (the
    /// sealed trajectory) and, for a spec with `record_trace`,
    /// `trace.jsonl` (the run's telemetry trace).
    FetchArtifact {
        /// Run id.
        run: String,
        /// Artifact file name within the run's archive namespace.
        artifact: String,
        /// Byte offset to read from.
        offset: u64,
        /// Max bytes in this reply (clamped to [`ARTIFACT_CHUNK_MAX`]).
        max: usize,
    },
    /// Cancel a queued or running experiment (owner only).
    Cancel {
        /// Run id.
        run: String,
    },
    /// Open a streaming observer on one of the caller's runs.
    Observe {
        /// Run id (owner only).
        run: String,
        /// Channel pattern *within* the run's namespace (e.g. `dof-*`).
        channels: String,
        /// Observer ring-buffer capacity (samples).
        buffer: usize,
    },
    /// Open a streaming observer on the facility-wide hub (the CHEF
    /// viewer path: DAQ channels, not tenant run channels).
    ObserveFacility {
        /// Channel pattern on the facility hub.
        pattern: String,
        /// Observer ring-buffer capacity (samples).
        buffer: usize,
    },
    /// Drain buffered samples from an observer.
    Poll {
        /// Observer id from `Observing`.
        observer: u64,
        /// Max samples in this reply (frame-size bound).
        max: usize,
    },
    /// Close an observer and free its slot.
    Unobserve {
        /// Observer id.
        observer: u64,
    },
    /// Post to a collaboration board ("chat", "notebook").
    Post {
        /// Board name.
        board: String,
        /// Entry text.
        text: String,
    },
    /// Read a collaboration board.
    Board {
        /// Board name.
        board: String,
    },
    /// Service-wide statistics.
    Stats,
}

/// Portal replies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Session opened / reported.
    Session {
        /// Granted role.
        role: Role,
        /// Session expiry (credential-bounded).
        expires_at: SimTime,
    },
    /// Submission accepted.
    Submitted {
        /// Assigned run id.
        run: String,
        /// Queue position at admission (0 = next to schedule).
        queued: usize,
    },
    /// Request refused, with a typed reason.
    Rejected {
        /// Why.
        rejection: Rejection,
    },
    /// Run status.
    Status {
        /// The report.
        report: RunReport,
    },
    /// Observer opened.
    Observing {
        /// Handle for `Poll` / `Unobserve`.
        observer: u64,
    },
    /// Drained samples.
    Samples {
        /// Oldest-first samples (≤ requested max): their texts as the
        /// service's hub rendered them when they were published, copied
        /// out of its log in one piece.
        samples: SampleRun,
        /// Samples lost to this observer's ring overflow so far.
        dropped: u64,
        /// Whether the observed run has finished and the buffer is dry.
        done: bool,
    },
    /// One chunk of an archived artifact.
    Artifact {
        /// Artifact file name echoed back.
        artifact: String,
        /// Total artifact length in bytes.
        total_len: u64,
        /// Whole-artifact CRC-32, from the archive manifest.
        digest: u32,
        /// Offset of `data` within the artifact.
        offset: u64,
        /// The chunk (≤ [`ARTIFACT_CHUNK_MAX`] bytes) as lowercase hex;
        /// the client decodes it and refuses malformed hex.
        data: String,
        /// True when `offset` plus the chunk's byte length reaches
        /// `total_len`.
        eof: bool,
    },
    /// Completed trajectory.
    History {
        /// The full pseudo-dynamic history.
        history: PsdHistory,
        /// CRC-32 of the canonical JSON encoding of `history`.
        digest: u32,
    },
    /// Board entry accepted.
    Posted {
        /// Sequence number on the board.
        seq: u64,
    },
    /// Board contents.
    BoardEntries {
        /// Oldest-first entries (bounded retention).
        entries: Vec<BoardEntry>,
    },
    /// Service statistics.
    Stats {
        /// The report.
        report: PortalStats,
    },
    /// Internal failure (malformed frame, unknown operation…).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// A `Samples` reply read in place: the borrowed twin of
/// [`Response::Samples`], whose samples keep their channel names as slices
/// of the frame. Like [`Response`] it is an externally tagged enum, and it
/// picks its tag by the same smallest-key rule, so it decodes from a frame
/// exactly when the frame decodes as `Response::Samples`, to the same
/// values. Any other reply fails to decode; read those as a [`Response`].
#[derive(Debug, Clone)]
pub enum SamplesView<'a> {
    /// Drained samples.
    Samples {
        /// Oldest-first samples (≤ requested max).
        samples: Vec<SampleRef<'a>>,
        /// Samples lost to this observer's ring overflow so far.
        dropped: u64,
        /// Whether the observed run has finished and the buffer is dry.
        done: bool,
    },
}

/// One sample of a [`SamplesView`]: an [`NsdsSample`] whose channel name
/// is borrowed from the frame unless its JSON text holds escapes.
///
/// [`NsdsSample`]: neesgrid_daq::nsds::NsdsSample
#[derive(Debug, Clone)]
pub struct SampleRef<'a> {
    /// Channel name.
    pub channel: Cow<'a, str>,
    /// Virtual experiment time.
    pub t: SimTime,
    /// Value in the channel's engineering unit.
    pub value: f64,
}

// Both are read as the derive reads `NsdsSample` and `Response`: every
// member is read, a repeated key keeps its last value, and a missing key
// decodes from `null` (`de::field`).
impl<'de> Deserialize<'de> for SampleRef<'de> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let Token::Object(mut map) = d.token()? else {
            return Err(D::Error::custom("NsdsSample: expected object"));
        };
        let (mut channel, mut t, mut value) = (None, None, None);
        while let Some(key) = map.next_key()? {
            match &*key {
                "channel" => channel = Some(map.next_value()?),
                "t" => t = Some(map.next_value()?),
                "value" => value = Some(map.next_value()?),
                _ => map.skip_value()?,
            }
        }
        Ok(SampleRef {
            channel: de::field(channel, "NsdsSample.channel")?,
            t: de::field(t, "NsdsSample.t")?,
            value: de::field(value, "NsdsSample.value")?,
        })
    }
}

impl<'de> Deserialize<'de> for SamplesView<'de> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.token()? {
            Token::Object(map) => map
                .variant()?
                .ok_or_else(|| D::Error::custom("SamplesView: empty enum object")),
            _ => Err(D::Error::custom(
                "SamplesView: expected a single-key object",
            )),
        }
    }
}

impl<'de> DeserializeVariant<'de> for SamplesView<'de> {
    fn deserialize_variant<D: Deserializer<'de>>(tag: &str, d: D) -> Result<Self, D::Error> {
        if tag != "Samples" {
            return Err(D::Error::custom(format!(
                "SamplesView: not Samples: {tag:?}"
            )));
        }
        let Token::Object(mut map) = d.token()? else {
            return Err(D::Error::custom("SamplesView::Samples: expected object"));
        };
        let (mut samples, mut dropped, mut done) = (None, None, None);
        while let Some(key) = map.next_key()? {
            match &*key {
                "samples" => samples = Some(map.next_value()?),
                "dropped" => dropped = Some(map.next_value()?),
                "done" => done = Some(map.next_value()?),
                _ => map.skip_value()?,
            }
        }
        Ok(SamplesView::Samples {
            samples: de::field(samples, "SamplesView::Samples.samples")?,
            dropped: de::field(dropped, "SamplesView::Samples.dropped")?,
            done: de::field(done, "SamplesView::Samples.done")?,
        })
    }
}

/// Why the portal refused a request — typed, so clients can branch
/// (retry later on `QueueFull`, give up on `QuotaSteps`, alert on
/// `CrossTenant`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Rejection {
    /// No live session for the calling tenant.
    NotLoggedIn,
    /// Login credential failed validation.
    BadCredential {
        /// Validation failure.
        error: String,
    },
    /// A live session already exists for this tenant.
    AlreadyLoggedIn,
    /// The caller's role does not permit the operation.
    RoleDenied {
        /// Minimum role required.
        need: Role,
    },
    /// The submission queue is full — explicit shed, try again later.
    QueueFull {
        /// The bound that was hit.
        capacity: usize,
    },
    /// Tenant already has its maximum concurrent experiments in flight.
    QuotaConcurrent {
        /// Per-tenant concurrency limit.
        limit: usize,
    },
    /// Submission would exceed the tenant's total step budget.
    QuotaSteps {
        /// Per-tenant lifetime step budget.
        limit: u64,
        /// Steps this submission asked for.
        requested: u64,
        /// Steps already consumed by earlier submissions.
        used: u64,
    },
    /// Tenant already holds its maximum observer slots.
    QuotaObservers {
        /// Per-tenant observer-slot limit.
        limit: usize,
    },
    /// GSI tenant-isolation denial: the caller does not own the run.
    CrossTenant {
        /// The policy decision, with reason.
        decision: PolicyDecision,
    },
    /// No such run (or no such observer).
    UnknownRun {
        /// The id that failed to resolve.
        run: String,
    },
    /// The submitted spec is invalid.
    BadSpec {
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::NotLoggedIn => write!(f, "no live session"),
            Rejection::BadCredential { error } => write!(f, "credential rejected: {error}"),
            Rejection::AlreadyLoggedIn => write!(f, "already logged in"),
            Rejection::RoleDenied { need } => write!(f, "requires role {need:?}"),
            Rejection::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            Rejection::QuotaConcurrent { limit } => {
                write!(f, "concurrent-experiment quota ({limit}) exhausted")
            }
            Rejection::QuotaSteps {
                limit,
                requested,
                used,
            } => write!(
                f,
                "step budget exceeded: {used} used + {requested} requested > {limit}"
            ),
            Rejection::QuotaObservers { limit } => {
                write!(f, "observer-slot quota ({limit}) exhausted")
            }
            Rejection::CrossTenant { decision } => {
                write!(f, "cross-tenant access denied: {}", decision.reason)
            }
            Rejection::UnknownRun { run } => write!(f, "unknown run '{run}'"),
            Rejection::BadSpec { reason } => write!(f, "invalid spec: {reason}"),
        }
    }
}

/// One run's externally visible state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Run id.
    pub run: String,
    /// Lifecycle state.
    pub state: RunState,
    /// Steps committed so far.
    pub steps_completed: usize,
    /// Steps requested.
    pub steps_requested: usize,
}

/// Run lifecycle states.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running {
        /// Worker slot index.
        worker: usize,
    },
    /// Its worker died; waiting to be rescheduled from checkpoint.
    Rescheduling,
    /// Finished all requested steps.
    Completed,
    /// Cancelled by its owner.
    Cancelled,
    /// Aborted by the experiment itself (site failure past policy).
    Failed {
        /// The abort reason.
        error: String,
    },
}

/// One collaboration-board entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardEntry {
    /// Sequence number (monotonic per board).
    pub seq: u64,
    /// Author.
    pub author: DistinguishedName,
    /// Posted at (portal virtual time).
    pub at: SimTime,
    /// The text.
    pub text: String,
}

/// Service-wide statistics (the `Stats` reply). The counts from
/// `admitted` to `rescheduled` are read from the portal's `portal.*`
/// registry counters (see `Portal::set_telemetry`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PortalStats {
    /// Submissions admitted.
    pub admitted: u64,
    /// Submissions shed with a typed rejection.
    pub shed: u64,
    /// Runs completed.
    pub completed: u64,
    /// Runs cancelled by their owners.
    pub cancelled: u64,
    /// Runs that aborted.
    pub failed: u64,
    /// Worker crashes observed.
    pub worker_crashes: u64,
    /// Runs rescheduled from checkpoint after a crash.
    pub rescheduled: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Live worker count.
    pub workers: usize,
    /// Highest concurrent session count seen.
    pub peak_sessions: usize,
    /// Live observer count.
    pub observers: usize,
    /// p99 of submission→first-step latency, virtual nanoseconds
    /// (0 until a run has taken its first step).
    pub p99_first_step_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let frame = RequestFrame {
            tenant: DistinguishedName::nees_user("REMOTE", "alice"),
            request: Request::Stats,
        };
        let wire = encode(&frame).unwrap();
        assert_eq!(
            u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize,
            wire.len() - 4
        );
        let back: RequestFrame = decode(&wire).unwrap();
        assert_eq!(back.tenant, frame.tenant);
        assert!(matches!(back.request, Request::Stats));
    }

    #[test]
    fn truncated_and_padded_frames_are_refused() {
        let wire = encode(&Response::Ok).unwrap();
        assert!(matches!(
            decode::<Response>(&wire[..wire.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
        let mut padded = wire.to_vec();
        padded.push(0);
        assert!(matches!(
            decode::<Response>(&padded),
            Err(FrameError::TrailingGarbage(1))
        ));
        assert!(matches!(
            decode::<Response>(&[1, 2]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn oversize_declaration_is_refused_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        wire.extend_from_slice(b"{}");
        assert!(matches!(
            decode::<Response>(&wire),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn garbage_json_is_a_typed_error() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&4u32.to_be_bytes());
        wire.extend_from_slice(b"!!!!");
        assert!(matches!(
            decode::<Response>(&wire),
            Err(FrameError::Json(_))
        ));
    }

    #[test]
    fn deeply_nested_body_is_a_typed_error_not_a_stack_overflow() {
        let body = vec![b'['; 1 << 20];
        let mut wire = (body.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&body);
        match decode::<RequestFrame>(&wire) {
            Err(FrameError::Json(e)) => assert!(e.starts_with("recursion limit exceeded"), "{e}"),
            other => panic!("expected a JSON error, got {other:?}"),
        }
    }
}
