//! The NSDS hub against a reference model: one drop-oldest ring per
//! subscriber.
//!
//! The hub keeps one log per subscription pattern and a cursor per
//! subscription, yet each subscription must behave as its own bounded ring
//! that discards its oldest sample on overflow. Random sequences of
//! subscribes (`*`, prefixes and exact names, capacities 1–16), publishes,
//! typed, rendered and capture reads of random sizes, and handle clones and
//! drops run against the hub and against the rings. After every step the
//! taken samples (order, fields, value bits), `pending`, `dropped`,
//! `delivered`, `published` and `subscription_count` must agree, a rendered
//! read must be the samples' own texts joined by commas (a capture read,
//! one per line), and the recording registry's `nsds.delivered{pattern}`
//! and `nsds.dropped{pattern}` counters must equal the rings' sums.

use std::collections::{BTreeMap, VecDeque};

use neesgrid::daq::nsds::{NsdsSample, NsdsServer, NsdsSubscription};
use neesgrid::gridsim::SimTime;
use neesgrid::telemetry::Telemetry;
use proptest::prelude::*;

const CHANNELS: [&str; 5] = [
    "uiuc/dof-0/disp",
    "uiuc/dof-1/force",
    "cu/dof-0/disp",
    "cu",
    "ncsa/\"δ\"\\1",
];

/// Every channel, prefixes of some, exact names, and a pattern nothing
/// matches.
const PATTERNS: [&str; 7] = [
    "*",
    "uiuc/*",
    "cu*",
    "cu/dof-0/*",
    "cu",
    "uiuc/dof-1/force",
    "ncsa/x/*",
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Subscribe { pattern: usize, capacity: usize },
    Publish { channel: usize, value: f64 },
    Take { handle: usize, max: usize },
    TakeRun { handle: usize, max: usize },
    TakeJsonl { handle: usize, max: usize },
    Clone { handle: usize },
    Drop { handle: usize },
}

fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(5e-324),
        any::<f64>(),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn publish() -> impl Strategy<Value = Op> {
    (0..CHANNELS.len(), value()).prop_map(|(channel, value)| Op::Publish { channel, value })
}

/// Publishes come up about half the time, so backlogs fill and overflow.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PATTERNS.len(), 1usize..=16)
            .prop_map(|(pattern, capacity)| Op::Subscribe { pattern, capacity }),
        publish(),
        publish(),
        publish(),
        publish(),
        publish(),
        (any::<usize>(), 0usize..24).prop_map(|(handle, max)| Op::Take { handle, max }),
        (any::<usize>(), 0usize..24).prop_map(|(handle, max)| Op::TakeRun { handle, max }),
        (any::<usize>(), 0usize..24).prop_map(|(handle, max)| Op::TakeJsonl { handle, max }),
        any::<usize>().prop_map(|handle| Op::Clone { handle }),
        any::<usize>().prop_map(|handle| Op::Drop { handle }),
    ]
}

fn matches(pattern: &str, channel: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => channel.starts_with(prefix),
        None => pattern == channel,
    }
}

/// One subscription as its own ring.
struct Ring {
    pattern: &'static str,
    capacity: usize,
    buffer: VecDeque<NsdsSample>,
    dropped: u64,
    delivered: u64,
}

/// The rings by subscription, `None` once every handle to one is gone, and
/// each pattern's counter sums.
#[derive(Default)]
struct Model {
    rings: Vec<Option<Ring>>,
    published: u64,
    delivered: BTreeMap<&'static str, u64>,
    dropped: BTreeMap<&'static str, u64>,
}

impl Model {
    fn publish(&mut self, sample: &NsdsSample) {
        self.published += 1;
        for ring in self.rings.iter_mut().flatten() {
            if !matches(ring.pattern, &sample.channel) {
                continue;
            }
            if ring.buffer.len() == ring.capacity {
                ring.buffer.pop_front();
                ring.dropped += 1;
                *self.dropped.entry(ring.pattern).or_default() += 1;
            }
            ring.buffer.push_back(sample.clone());
            ring.delivered += 1;
            *self.delivered.entry(ring.pattern).or_default() += 1;
        }
    }

    fn take(&mut self, id: usize, max: usize) -> Vec<NsdsSample> {
        let ring = self.rings[id].as_mut().expect("a held handle's ring");
        let n = max.min(ring.buffer.len());
        ring.buffer.drain(..n).collect()
    }
}

/// Channel, time and value bits of each sample.
fn fields(samples: &[NsdsSample]) -> Vec<(String, SimTime, u64)> {
    samples
        .iter()
        .map(|s| (s.channel.clone(), s.t, s.value.to_bits()))
        .collect()
}

/// Each sample's own compact text.
fn texts(samples: &[NsdsSample]) -> Vec<String> {
    samples
        .iter()
        .map(|s| serde_json::to_string(s).expect("a sample renders"))
        .collect()
}

/// Run `ops` against a hub and the model, checking after every step.
fn check(ops: &[Op]) -> Result<(), TestCaseError> {
    let telemetry = Telemetry::recording();
    let nsds = NsdsServer::new();
    nsds.set_telemetry(telemetry.clone());
    let mut model = Model::default();
    // Each handle with the id of its subscription's ring.
    let mut handles: Vec<(usize, NsdsSubscription)> = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        let held = |handle: usize| (!handles.is_empty()).then(|| handle % handles.len());
        match op {
            Op::Subscribe { pattern, capacity } => {
                let pattern = PATTERNS[pattern];
                handles.push((model.rings.len(), nsds.subscribe(pattern, capacity)));
                model.rings.push(Some(Ring {
                    pattern,
                    capacity,
                    buffer: VecDeque::new(),
                    dropped: 0,
                    delivered: 0,
                }));
            }
            Op::Publish { channel, value } => {
                let sample = NsdsSample {
                    channel: CHANNELS[channel].to_string(),
                    t: SimTime::from_nanos(step as u64),
                    value,
                };
                model.publish(&sample);
                nsds.publish(sample);
            }
            Op::Take { handle, max } => {
                if let Some(h) = held(handle) {
                    let want = model.take(handles[h].0, max);
                    let got = handles[h].1.take(max);
                    prop_assert_eq!(fields(&got), fields(&want), "step {}: typed read", step);
                }
            }
            Op::TakeRun { handle, max } => {
                if let Some(h) = held(handle) {
                    let want = model.take(handles[h].0, max);
                    let run = handles[h].1.take_run(max);
                    prop_assert_eq!(run.len(), want.len(), "step {}: run length", step);
                    prop_assert_eq!(
                        serde_json::to_string(&run).expect("a run renders"),
                        format!("[{}]", texts(&want).join(",")),
                        "step {}: rendered read",
                        step
                    );
                }
            }
            Op::TakeJsonl { handle, max } => {
                if let Some(h) = held(handle) {
                    let want = model.take(handles[h].0, max);
                    let mut jsonl = "kept\n".to_string();
                    let n = handles[h].1.take_jsonl(max, &mut jsonl);
                    prop_assert_eq!(n, want.len(), "step {}: capture count", step);
                    let lines: String = texts(&want).iter().map(|t| format!("{t}\n")).collect();
                    prop_assert_eq!(jsonl, format!("kept\n{lines}"), "step {}: capture", step);
                }
            }
            Op::Clone { handle } => {
                if let Some(h) = held(handle) {
                    let (id, sub) = (handles[h].0, handles[h].1.clone());
                    handles.push((id, sub));
                }
            }
            Op::Drop { handle } => {
                if let Some(h) = held(handle) {
                    let (id, _) = handles.remove(h);
                    if handles.iter().all(|(other, _)| *other != id) {
                        model.rings[id] = None;
                    }
                }
            }
        }

        for (id, sub) in &handles {
            let ring = model.rings[*id].as_ref().expect("a held handle's ring");
            prop_assert_eq!(
                (sub.pending(), sub.dropped(), sub.delivered()),
                (ring.buffer.len(), ring.dropped, ring.delivered),
                "step {}: pending, dropped, delivered of ring {} ({:?})",
                step,
                id,
                op
            );
        }
        let live = model.rings.iter().flatten().count();
        prop_assert_eq!(
            nsds.subscription_count(),
            live,
            "step {}: subscriptions",
            step
        );
        prop_assert_eq!(
            nsds.published(),
            model.published,
            "step {}: published",
            step
        );
        for pattern in PATTERNS {
            let sums = (
                model.delivered.get(pattern).copied().unwrap_or(0),
                model.dropped.get(pattern).copied().unwrap_or(0),
            );
            let counters = (
                telemetry.counter(&format!("nsds.delivered{{{pattern}}}")),
                telemetry.counter(&format!("nsds.dropped{{{pattern}}}")),
            );
            prop_assert_eq!(counters, sums, "step {}: counters of {}", step, pattern);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn the_hub_behaves_as_a_ring_per_subscriber(ops in proptest::collection::vec(op(), 0..160)) {
        check(&ops)?;
    }
}

fn subscribe(pattern: usize, capacity: usize) -> Op {
    Op::Subscribe { pattern, capacity }
}

fn publishes(channel: usize, n: usize) -> impl Iterator<Item = Op> {
    (0..n).map(move |i| Op::Publish {
        channel,
        value: i as f64 * 0.5 - 1.0,
    })
}

#[test]
fn a_subscriber_joining_mid_stream_sees_only_what_follows() {
    let ops: Vec<Op> = [subscribe(0, 4)]
        .into_iter()
        .chain(publishes(0, 6))
        .chain([subscribe(0, 4)])
        .chain(publishes(2, 3))
        .chain([
            Op::TakeRun { handle: 1, max: 8 },
            Op::Take { handle: 0, max: 2 },
        ])
        .chain(publishes(1, 2))
        .chain([
            Op::TakeJsonl { handle: 0, max: 8 },
            Op::Take { handle: 1, max: 8 },
        ])
        .collect();
    check(&ops).unwrap();
}

#[test]
fn capacity_one_keeps_the_newest_sample() {
    let ops: Vec<Op> = [subscribe(2, 1), subscribe(2, 3)]
        .into_iter()
        .chain(publishes(3, 5))
        .chain([Op::Take { handle: 0, max: 4 }])
        .chain(publishes(2, 2))
        .chain([
            Op::TakeRun { handle: 0, max: 4 },
            Op::TakeRun { handle: 1, max: 1 },
        ])
        .chain(publishes(2, 1))
        .chain([Op::TakeJsonl { handle: 1, max: 4 }])
        .collect();
    check(&ops).unwrap();
}

#[test]
fn a_pattern_left_by_its_last_subscriber_starts_over() {
    let ops: Vec<Op> = [subscribe(1, 3), subscribe(0, 2), Op::Clone { handle: 0 }]
        .into_iter()
        .chain(publishes(0, 4))
        // Both handles of the `uiuc/*` subscription go.
        .chain([Op::Drop { handle: 0 }])
        .chain(publishes(1, 2))
        .chain([Op::Drop { handle: 1 }])
        .chain(publishes(1, 2))
        .chain([subscribe(1, 2)])
        .chain(publishes(1, 3))
        .chain([
            Op::TakeRun { handle: 1, max: 8 },
            Op::Take { handle: 0, max: 8 },
        ])
        .collect();
    check(&ops).unwrap();
}
