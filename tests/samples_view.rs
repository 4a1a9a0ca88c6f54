//! A `Poll` reply read in place agrees with the owned decode.
//!
//! CHEF viewers read each `Samples` reply as a `SamplesView`, whose
//! samples borrow their channel names from the frame, and fall back to
//! decoding a `Response` for anything else. So the view must succeed on a
//! frame exactly when the owned decode gives `Response::Samples`, with the
//! same channels, times, value bits, `dropped` and `done`, whatever the
//! frame holds: escaped and non-ASCII channel names (which the view owns),
//! −0.0, non-finite and extreme values, times up to `u64::MAX` ns, cut and
//! flipped bodies, multi-key tag objects, random bytes and token soup. It
//! must never panic.

use std::borrow::Cow;

use neesgrid::daq::nsds::{NsdsSample, SharedSample};
use neesgrid::gridsim::SimTime;
use neesgrid::portal::{decode, encode, Response, SamplesView};
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

fn sample() -> impl Strategy<Value = NsdsSample> {
    (channel(), nanos(), value()).prop_map(|(channel, t, value)| NsdsSample {
        channel,
        t: SimTime::from_nanos(t),
        value,
    })
}

/// The frame of a `Samples` reply carrying `samples`.
fn reply(samples: &[NsdsSample], dropped: u64, done: bool) -> Vec<u8> {
    let reply = Response::Samples {
        samples: samples.iter().cloned().map(SharedSample::new).collect(),
        dropped,
        done,
    };
    encode(&reply).expect("a small reply fits a frame").to_vec()
}

/// `body` behind its 4-byte length prefix.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

/// Decode `frame` both ways. The view succeeds exactly when the owned
/// decode gives `Samples`, and then holds the same contents. Returns
/// whether they did.
fn agree(frame: &[u8]) -> Result<bool, TestCaseError> {
    let (view, owned) = (decode::<SamplesView>(frame), decode::<Response>(frame));
    let samples = matches!(owned, Ok(Response::Samples { .. }));
    prop_assert_eq!(view.is_ok(), samples, "view {:?}, owned {:?}", view, owned);
    if let (
        Ok(SamplesView::Samples {
            samples,
            dropped,
            done,
        }),
        Ok(Response::Samples {
            samples: owned,
            dropped: owned_dropped,
            done: owned_done,
        }),
    ) = (view, owned)
    {
        prop_assert_eq!((dropped, done), (owned_dropped, owned_done));
        prop_assert_eq!(samples.len(), owned.len());
        for (view, owned) in samples.iter().zip(&owned) {
            prop_assert_eq!(&*view.channel, owned.channel.as_str());
            prop_assert_eq!(view.t, owned.t);
            prop_assert_eq!(view.value.to_bits(), owned.value.to_bits());
        }
    }
    Ok(samples)
}

/// Tags a reply object may carry, and content for each kind of member.
const TAGS: [&str; 9] = [
    "Samples",
    "Rejected",
    "Error",
    "Ok",
    "Observing",
    "Stats",
    "A",
    "Z",
    "samples",
];

fn content(pick: usize, samples_body: &str) -> String {
    match pick % 6 {
        0 => samples_body.to_string(),
        1 => r#"{"rejection":"NotLoggedIn"}"#.to_string(),
        2 => r#"{"message":"poll failed"}"#.to_string(),
        3 => r#"{"observer":7}"#.to_string(),
        4 => "null".to_string(),
        _ => r#"{"samples":[],"dropped":"x","done":false}"#.to_string(),
    }
}

/// JSON tokens that steer a reader into every branch.
const TOKENS: [&str; 30] = [
    "[",
    "]",
    "{",
    "}",
    "\"",
    ":",
    ",",
    " ",
    "\\",
    "\\u",
    "d83d",
    "0",
    "-",
    "1e999",
    ".",
    "e",
    "null",
    "true",
    "false",
    "é",
    "\u{1}",
    "\"Samples\"",
    "\"samples\"",
    "\"channel\"",
    "\"t\"",
    "\"value\"",
    "\"dropped\"",
    "\"done\"",
    "01",
    "18446744073709551616",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_view_reads_every_reply_as_the_owned_decode_does(
        samples in proptest::collection::vec(sample(), 0..24),
        dropped in any::<u64>(),
        done in any::<bool>(),
    ) {
        let frame = reply(&samples, dropped, done);
        prop_assert!(agree(&frame)?, "a Samples reply reads both ways");
        let Ok(SamplesView::Samples { samples: view, .. }) = decode::<SamplesView>(&frame) else {
            unreachable!("agreed above");
        };
        for (view, sample) in view.iter().zip(&samples) {
            // A channel is borrowed from the frame unless its text is escaped.
            let escaped = serde_json::to_string(&sample.channel).expect("a string renders")
                != format!("\"{}\"", sample.channel);
            prop_assert_eq!(matches!(view.channel, Cow::Owned(_)), escaped, "{:?}", sample.channel);
            if sample.value.is_finite() {
                prop_assert_eq!(view.value.to_bits(), sample.value.to_bits());
            } else {
                prop_assert!(view.value.is_nan(), "non-finite values travel as null");
            }
        }
    }

    #[test]
    fn cut_and_flipped_replies_read_alike(
        samples in proptest::collection::vec(sample(), 1..6),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let body = reply(&samples, 3, false)[4..].to_vec();
        let at = at % body.len();
        agree(&frame(&body[..at]))?;
        let mut flipped = body.clone();
        flipped[at] ^= mask;
        agree(&frame(&flipped))?;
    }

    #[test]
    fn multi_key_tag_objects_take_the_smallest_key_both_ways(
        samples in proptest::collection::vec(sample(), 0..4),
        members in proptest::collection::vec((0..TAGS.len(), any::<usize>()), 1..5),
    ) {
        let body = reply(&samples, 0, true);
        let body = std::str::from_utf8(&body[4..]).expect("frames are UTF-8");
        let samples_body = &body[r#"{"Samples":"#.len()..body.len() - 1];
        let members: Vec<String> = members
            .iter()
            .map(|&(tag, pick)| format!("\"{}\":{}", TAGS[tag], content(pick, samples_body)))
            .collect();
        agree(&frame(format!("{{{}}}", members.join(",")).as_bytes()))?;
    }

    #[test]
    fn random_bytes_read_alike(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        agree(&bytes)?;
        agree(&frame(&bytes))?;
    }

    #[test]
    fn token_soup_reads_alike(picks in proptest::collection::vec(any::<usize>(), 0..200)) {
        let soup: String = picks.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect();
        agree(&frame(soup.as_bytes()))?;
        // Inside a reply's sample list, where the view's own reading runs.
        let nested = format!(r#"{{"Samples":{{"samples":[{soup}],"dropped":1,"done":false}}}}"#);
        agree(&frame(nested.as_bytes()))?;
    }
}
