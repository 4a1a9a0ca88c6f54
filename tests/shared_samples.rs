//! Shared NSDS samples encode to the bytes their derived encoding gives.
//!
//! The portal splices each published sample's cached compact text into
//! every viewer's `Poll` reply, and the archive capture copies the same
//! text into `capture.jsonl`. Neither may depend on whether a sample's text
//! was rendered before, on what its channel name holds (escapes,
//! non-ASCII), or on its value (−0.0, non-finite) and time (up to
//! `u64::MAX` ns).

use neesgrid::daq::encode_jsonl;
use neesgrid::daq::nsds::{NsdsSample, SharedSample};
use neesgrid::gridsim::SimTime;
use neesgrid::portal::{encode, Response};
use proptest::prelude::*;

const CHARS: [char; 12] = [
    'a', 'Z', '/', ' ', '"', '\\', '\n', '\u{1}', '\u{7f}', 'é', '日', '😀',
];

fn channel() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
}

fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE),
        Just(5e-324),
        Just(f64::MAX),
        any::<f64>(),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn nanos() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), any::<u64>()]
}

/// A sample, and whether its text is rendered before anything writes it.
fn drawn() -> impl Strategy<Value = (NsdsSample, bool)> {
    (channel(), nanos(), value(), any::<bool>()).prop_map(|(channel, t, value, rendered)| {
        let sample = NsdsSample {
            channel,
            t: SimTime::from_nanos(t),
            value,
        };
        (sample, rendered)
    })
}

/// Fresh shared samples, the flagged ones with their text already cached.
fn share(drawn: &[(NsdsSample, bool)]) -> Vec<SharedSample> {
    drawn
        .iter()
        .map(|(sample, rendered)| {
            let shared = SharedSample::new(sample.clone());
            if *rendered {
                serde_json::to_string(&shared).expect("a sample renders");
            }
            shared
        })
        .collect()
}

fn reply(samples: Vec<SharedSample>, dropped: u64, done: bool) -> Response {
    Response::Samples {
        samples,
        dropped,
        done,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn shared_samples_encode_as_their_tree_renders(
        drawn in proptest::collection::vec(drawn(), 0..24),
        dropped in any::<u64>(),
        done in any::<bool>(),
    ) {
        // A reply of fresh samples (some texts cached, some not), with the
        // first sample carried twice, as two polls of one ring would.
        let mut samples = share(&drawn);
        samples.extend(samples.first().cloned());
        let reply = reply(samples.clone(), dropped, done);
        let tree = serde_json::to_value(&reply).expect("a reply renders").to_json_compact();
        let frame = encode(&reply).expect("a small reply fits a frame");
        prop_assert_eq!(&frame[..4], &(tree.len() as u32).to_be_bytes()[..]);
        prop_assert_eq!(&frame[4..], tree.as_bytes());
        // Every text is cached now; the frame does not move.
        prop_assert_eq!(encode(&reply).expect("it fit once"), frame);

        // Each capture line is the sample's own text, from fresh samples
        // and from the ones the reply cached alike.
        for samples in [share(&drawn), samples] {
            let jsonl = encode_jsonl(&samples);
            let lines: Vec<&[u8]> = jsonl.split(|b| *b == b'\n').collect();
            prop_assert_eq!(lines.len(), samples.len() + 1);
            prop_assert!(lines[samples.len()].is_empty(), "the capture ends in a newline");
            for (line, sample) in lines.iter().zip(&samples) {
                let plain = serde_json::to_string(&**sample).expect("a sample renders");
                prop_assert_eq!(*line, plain.as_bytes());
                prop_assert_eq!(serde_json::to_string(sample).expect("it renders"), plain);
            }
        }
    }
}
