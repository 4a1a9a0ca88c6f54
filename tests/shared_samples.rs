//! Published NSDS samples encode to the bytes their derived encoding gives.
//!
//! The hub renders each published sample's compact text once, into its
//! log. The portal copies a run of those texts into every viewer's `Poll`
//! reply, and the archive capture copies the same texts into
//! `capture.jsonl`. Neither may depend on when the capture reads the
//! stream, on what a channel name holds (escapes, non-ASCII), or on its
//! value (−0.0, non-finite) and time (up to `u64::MAX` ns).

use neesgrid::daq::nsds::{NsdsSample, NsdsServer, SampleRun};
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

/// A sample, and whether the capture drains the stream once it is
/// published.
fn drawn() -> impl Strategy<Value = (NsdsSample, bool)> {
    (channel(), nanos(), value(), any::<bool>()).prop_map(|(channel, t, value, drain)| {
        let sample = NsdsSample {
            channel,
            t: SimTime::from_nanos(t),
            value,
        };
        (sample, drain)
    })
}

/// Publish `samples` through a hub. Returns what a `Poll` reader takes at
/// the end, as one run, and the capture a tap writes, draining after each
/// flagged sample and at the end.
fn share(samples: &[&(NsdsSample, bool)]) -> (SampleRun, String) {
    let hub = NsdsServer::new();
    let capacity = samples.len().max(1);
    let (poll, tap) = (hub.subscribe("*", capacity), hub.subscribe("*", capacity));
    let mut capture = String::new();
    for (sample, drain) in samples {
        hub.publish(sample.clone());
        if *drain {
            tap.take_jsonl(usize::MAX, &mut capture);
        }
    }
    tap.take_jsonl(usize::MAX, &mut capture);
    (poll.take_run(usize::MAX), capture)
}

fn reply(samples: SampleRun, dropped: u64, done: bool) -> Response {
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
        // A reply of published samples, with the first sample carried
        // twice, as two polls of one ring would.
        let published: Vec<&(NsdsSample, bool)> = drawn.iter().chain(drawn.first()).collect();
        let (samples, jsonl) = share(&published);
        let reply = reply(samples.clone(), dropped, done);
        let tree = serde_json::to_value(&reply).expect("a reply renders").to_json_compact();
        let frame = encode(&reply).expect("a small reply fits a frame");
        prop_assert_eq!(&frame[..4], &(tree.len() as u32).to_be_bytes()[..]);
        prop_assert_eq!(&frame[4..], tree.as_bytes());
        // Encoding again does not move the frame.
        prop_assert_eq!(encode(&reply).expect("it fit once"), frame);

        // Each capture line is the sample's own text, and each sample the
        // reply's run reads back writes that text again.
        let lines: Vec<&[u8]> = jsonl.as_bytes().split(|b| *b == b'\n').collect();
        let read_back = samples.samples();
        prop_assert_eq!(read_back.len(), published.len());
        prop_assert_eq!(lines.len(), published.len() + 1);
        prop_assert!(lines[published.len()].is_empty(), "the capture ends in a newline");
        for ((line, (sample, _)), back) in lines.iter().zip(&published).zip(&read_back) {
            let plain = serde_json::to_string(sample).expect("a sample renders");
            prop_assert_eq!(*line, plain.as_bytes());
            prop_assert_eq!(serde_json::to_string(back).expect("it renders"), plain);
        }
    }
}
