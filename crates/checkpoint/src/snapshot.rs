//! The snapshot format: versioned, checksummed, human-inspectable.
//!
//! On the wire and in the store a snapshot is one header line —
//! `NEESGRID-CKPT v1 crc32=xxxxxxxx` — followed by the JSON payload the
//! CRC guards. The CRC is the same IEEE CRC-32 the repository's uploads
//! and the archive's block transfers use, so a checkpoint is verified with
//! the same machinery as any other experiment artifact.

use serde::{Deserialize, Serialize};
use serde_json::RawValue;

use neesgrid_coordinator::CoordinatorState;
use neesgrid_gridsim::SimTime;
use neesgrid_repo::crc32;

/// Current snapshot format version.
pub const FORMAT_VERSION: u32 = 1;

const HEADER_PREFIX: &str = "NEESGRID-CKPT v";

/// One site's share of a checkpoint: the opaque state document returned
/// by the site's `snapshotSite` NTCP operation (transactions, dedup
/// cache, plugin/specimen state).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteCheckpoint {
    /// Site name.
    pub site: String,
    /// The server's state document, kept as the checked JSON text the
    /// reply carried: it is written into the payload verbatim and handed
    /// back to the server on restore without being decoded here.
    pub state: RawValue,
}

/// A complete, resumable picture of a distributed run at a step boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Which run this belongs to (store key).
    pub run_id: String,
    /// The next step to run; steps `0..step` are committed.
    pub step: u64,
    /// Virtual time at capture; restored into the clock on resume.
    pub at: SimTime,
    /// The coordinator endpoint's next-correlation watermark. A restarted
    /// coordinator fast-forwards past it so fresh request ids never
    /// collide with entries in a restored server dedup cache.
    pub correlation_watermark: u64,
    /// The coordinator's integrator/history/log state.
    pub coordinator: CoordinatorState,
    /// Per-site server state.
    pub sites: Vec<SiteCheckpoint>,
}

/// Everything that can go wrong saving, loading, or applying a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// No snapshot under that key.
    NotFound {
        /// Run id looked up.
        run_id: String,
        /// Specific step, or `None` for "latest".
        step: Option<u64>,
    },
    /// The header line is missing or malformed.
    BadHeader(String),
    /// The header names a format version this code does not read.
    UnsupportedVersion(u32),
    /// The payload does not match the header checksum — corrupted at
    /// rest or in transit; refusing to resume from it.
    ChecksumMismatch {
        /// CRC the header claims.
        expected: u32,
        /// CRC of the payload as found.
        actual: u32,
    },
    /// The payload passed its checksum but failed to parse.
    Malformed(String),
    /// A site failed to produce or accept its state.
    Site {
        /// Which site.
        site: String,
        /// What went wrong.
        error: String,
    },
    /// Backend storage failure.
    Store(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NotFound {
                run_id,
                step: Some(s),
            } => {
                write!(f, "no checkpoint for run {run_id} at step {s}")
            }
            CheckpointError::NotFound { run_id, step: None } => {
                write!(f, "no checkpoint for run {run_id}")
            }
            CheckpointError::BadHeader(m) => write!(f, "bad checkpoint header: {m}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint payload corrupted: crc32 {actual:08x} != header {expected:08x}"
            ),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint payload: {m}"),
            CheckpointError::Site { site, error } => {
                write!(f, "site {site} checkpoint failure: {error}")
            }
            CheckpointError::Store(m) => write!(f, "checkpoint store failure: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Encode a snapshot: header line + JSON payload.
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    // analyzer:allow(no-unwrap, reason = "Snapshot is a plain derive(Serialize) tree of JSON-safe types; self-serialization is infallible")
    let payload = serde_json::to_string(snapshot).expect("serialize snapshot");
    let crc = crc32(payload.as_bytes());
    let mut out = format!("{HEADER_PREFIX}{} crc32={crc:08x}\n", snapshot.version).into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Decode and verify a snapshot. The CRC is checked before the payload is
/// parsed; any corruption is rejected, never silently resumed from. Each
/// site's state is captured as text, its syntax checked.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| CheckpointError::BadHeader("missing header line".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|e| CheckpointError::BadHeader(e.to_string()))?;
    let rest = header
        .strip_prefix(HEADER_PREFIX)
        .ok_or_else(|| CheckpointError::BadHeader(format!("unrecognized header: {header}")))?;
    let (version_s, crc_s) = rest
        .split_once(" crc32=")
        .ok_or_else(|| CheckpointError::BadHeader(format!("no crc32 field: {header}")))?;
    let version: u32 = version_s
        .parse()
        .map_err(|_| CheckpointError::BadHeader(format!("bad version: {version_s}")))?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let expected = u32::from_str_radix(crc_s, 16)
        .map_err(|_| CheckpointError::BadHeader(format!("bad crc32: {crc_s}")))?;
    let payload = &bytes[newline + 1..];
    let actual = crc32(payload);
    if actual != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, actual });
    }
    let text =
        std::str::from_utf8(payload).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    let snapshot: Snapshot =
        serde_json::from_str(text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    Ok(snapshot)
}

#[cfg(test)]
pub(crate) fn sample(run_id: &str, step: u64) -> Snapshot {
    use neesgrid_structsim::psd::PsdHistory;
    Snapshot {
        version: FORMAT_VERSION,
        run_id: run_id.to_string(),
        step,
        at: SimTime::from_secs(step),
        correlation_watermark: 6 * step + 1,
        coordinator: CoordinatorState {
            step,
            d_prev: vec![0.001, -0.002],
            d_curr: vec![0.0015, -0.0025],
            history: PsdHistory {
                dt: 0.01,
                displacement: vec![vec![0.001, -0.002]; step as usize],
                velocity: vec![vec![0.1, -0.2]; step as usize],
                acceleration: vec![vec![1.0, -2.0]; step as usize],
                restoring: vec![vec![200.0, -400.0]; step as usize],
                steps_completed: step as usize,
            },
            log: neesgrid_coordinator::ExperimentLog::new(),
            retransmissions: 3,
        },
        sites: vec![SiteCheckpoint {
            site: "uiuc".into(),
            state: serde_json::from_str(&format!(r#"{{"dedup":[],"executions":{step}}}"#))
                .expect("sample site state is JSON"),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A real encoded snapshot and the length of its header line.
    fn encoded() -> (Vec<u8>, usize) {
        let bytes = encode(&sample("most-public", 7));
        let header = bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("encoded snapshots have a header line")
            + 1;
        (bytes, header)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample("most-public", 1400);
        let bytes = encode(&snap);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, snap);
        // Bit-exact f64s through the JSON payload.
        assert_eq!(back.coordinator.d_prev, snap.coordinator.d_prev);
    }

    proptest! {
        #[test]
        fn corrupted_payload_is_rejected(at in any::<usize>(), mask in 1u8..=255) {
            let (mut bytes, header) = encoded();
            let at = header + at % (bytes.len() - header);
            bytes[at] ^= mask;
            match decode(&bytes) {
                Err(CheckpointError::ChecksumMismatch { expected, actual }) => {
                    prop_assert_ne!(expected, actual)
                }
                other => prop_assert!(
                    false,
                    "flip {mask:#04x} at byte {at}: expected a checksum mismatch, got {other:?}"
                ),
            }
        }

        #[test]
        fn flipped_header_never_panics_or_yields_another_snapshot(
            at in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let (mut bytes, header) = encoded();
            bytes[at % header] ^= mask;
            // A flip that only changes the case of a CRC hex digit still
            // names the same checksum; nothing else may decode.
            if let Ok(snapshot) = decode(&bytes) {
                prop_assert_eq!(snapshot, sample("most-public", 7));
            }
        }

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode(&bytes);
            // Behind a header whose CRC matches, the bytes reach the
            // payload parser.
            let mut framed = format!("{HEADER_PREFIX}1 crc32={:08x}\n", crc32(&bytes)).into_bytes();
            framed.extend_from_slice(&bytes);
            let decoded = decode(&framed);
            prop_assert!(
                !matches!(decoded, Err(CheckpointError::ChecksumMismatch { .. })),
                "{decoded:?}"
            );
        }

        #[test]
        fn encode_then_decode_is_the_identity(
            step in 0u64..40,
            tag in any::<u64>(),
            d in proptest::collection::vec(any::<f64>(), 0..8),
        ) {
            let mut snap = sample(&format!("run-{tag:x}"), step);
            snap.coordinator.d_curr = d.iter().map(|x| x / 3.0).collect();
            snap.coordinator.d_prev = d;
            let bytes = encode(&snap);
            let back = decode(&bytes).map_err(|e| TestCaseError(e.to_string()))?;
            prop_assert_eq!(&back, &snap);
            prop_assert_eq!(encode(&back), bytes);
        }
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let snap = sample("r", 1);
        let mut bytes = encode(&snap);
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(CheckpointError::BadHeader(_))));
        assert!(matches!(
            decode(b"no newline at all"),
            Err(CheckpointError::BadHeader(_))
        ));
    }

    #[test]
    fn future_version_is_refused() {
        let snap = sample("r", 1);
        let bytes = encode(&snap);
        let text = String::from_utf8(bytes).unwrap();
        let bumped = text.replacen("NEESGRID-CKPT v1 ", "NEESGRID-CKPT v2 ", 1);
        assert_eq!(
            decode(bumped.as_bytes()),
            Err(CheckpointError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let snap = sample("r", 3);
        let bytes = encode(&snap);
        let truncated = &bytes[..bytes.len() - 10];
        assert!(matches!(
            decode(truncated),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }
}
