//! Durable NSDS capture encoding.
//!
//! The paper's repository archived each experiment's streamed sensor data
//! as flat files. This module reads the wire-neutral serialization used by
//! that path: one JSON object per line (JSONL), so captures are
//! appendable, greppable, and — crucially for the archive's dedup store —
//! byte-stable: the same samples always encode to the same bytes. A
//! capture is written by [`NsdsSubscription::take_jsonl`], which copies
//! each sample's compact text out of the NSDS log it was rendered into.
//!
//! [`NsdsSubscription::take_jsonl`]: crate::nsds::NsdsSubscription::take_jsonl

use crate::nsds::NsdsSample;

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
    use crate::nsds::NsdsServer;
    use neesgrid_gridsim::SimTime;

    fn sample(i: u64) -> NsdsSample {
        NsdsSample {
            channel: format!("most.bldg.disp{i}"),
            t: SimTime::from_millis(i * 10),
            value: i as f64 * 0.25,
        }
    }

    /// The capture a tap on every channel writes of `samples`.
    fn capture(samples: &[NsdsSample]) -> String {
        let nsds = NsdsServer::new();
        let tap = nsds.subscribe("*", samples.len().max(1));
        for s in samples {
            nsds.publish(s.clone());
        }
        let mut jsonl = String::new();
        tap.take_jsonl(usize::MAX, &mut jsonl);
        jsonl
    }

    #[test]
    fn jsonl_roundtrips() {
        let samples: Vec<NsdsSample> = (0..5).map(sample).collect();
        assert_eq!(decode_jsonl(capture(&samples).as_bytes()), Some(samples));
    }

    #[test]
    fn encoding_is_byte_stable() {
        let samples: Vec<NsdsSample> = (0..16).map(sample).collect();
        assert_eq!(capture(&samples), capture(&samples));
    }

    #[test]
    fn empty_capture_is_empty_bytes() {
        assert_eq!(capture(&[]).len(), 0);
        assert_eq!(decode_jsonl(b""), Some(vec![]));
    }

    #[test]
    fn corrupt_line_fails_whole_decode() {
        let mut bytes = capture(&[sample(1)]).into_bytes();
        bytes.extend_from_slice(b"{not json\n");
        assert_eq!(decode_jsonl(&bytes), None);
    }
}
