//! Durable NSDS capture encoding.
//!
//! The paper's repository archived each experiment's streamed sensor data
//! as flat files. This module is the wire-neutral serialization used by
//! that path: one JSON object per line (JSONL), so captures are
//! appendable, greppable, and — crucially for the archive's dedup store —
//! byte-stable: the same samples always encode to the same bytes.

use bytes::Bytes;

use crate::nsds::{NsdsSample, SharedSample};

/// Encode samples as JSONL, one sample per line, in input order. Each
/// line is the sample's shared compact text, so a sample a viewer was
/// already sent is copied, not rendered again; the buffer is sized
/// exactly, because the archive keeps slices of it.
pub fn encode_jsonl(samples: &[SharedSample]) -> Bytes {
    let len = samples.iter().map(|s| s.json().len() + 1).sum();
    let mut out = String::with_capacity(len);
    for s in samples {
        out.push_str(s.json());
        out.push('\n');
    }
    Bytes::from(out)
}

/// Decode a JSONL capture. Returns `None` if any line is malformed —
/// a truncated or corrupted capture should fail loudly, not partially.
pub fn decode_jsonl(bytes: &[u8]) -> Option<Vec<NsdsSample>> {
    let mut samples = Vec::new();
    for line in bytes.split(|b| *b == b'\n') {
        if line.is_empty() {
            continue;
        }
        samples.push(serde_json::from_slice(line).ok()?);
    }
    Some(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_gridsim::SimTime;

    fn sample(i: u64) -> SharedSample {
        SharedSample::new(NsdsSample {
            channel: format!("most.bldg.disp{i}"),
            t: SimTime::from_millis(i * 10),
            value: i as f64 * 0.25,
        })
    }

    #[test]
    fn jsonl_roundtrips() {
        let samples: Vec<SharedSample> = (0..5).map(sample).collect();
        let bytes = encode_jsonl(&samples);
        let plain: Vec<NsdsSample> = samples.iter().map(|s| NsdsSample::clone(s)).collect();
        assert_eq!(decode_jsonl(&bytes), Some(plain));
    }

    #[test]
    fn encoding_is_byte_stable() {
        let samples: Vec<SharedSample> = (0..16).map(sample).collect();
        assert_eq!(encode_jsonl(&samples), encode_jsonl(&samples));
    }

    #[test]
    fn empty_capture_is_empty_bytes() {
        assert_eq!(encode_jsonl(&[]).len(), 0);
        assert_eq!(decode_jsonl(b""), Some(vec![]));
    }

    #[test]
    fn corrupt_line_fails_whole_decode() {
        let mut bytes = encode_jsonl(&[sample(1)]).to_vec();
        bytes.extend_from_slice(b"{not json\n");
        assert_eq!(decode_jsonl(&bytes), None);
    }
}
