//! NEESgrid Streaming Data Service (NSDS).
//!
//! §2.2: "The NEESGrid Streaming Data Service provides a best-effort
//! stream of real-time data from the data acquisition system." The
//! defining property is **best-effort**: the experiment never blocks on a
//! slow remote viewer. Each subscription owns a bounded ring buffer;
//! when it overflows, the *oldest* samples are discarded and counted, so a
//! viewer that falls behind sees the freshest data with an honest loss
//! figure — the number the `fig08_dataviewer` bench reports.
//!
//! A published sample is allocated once, as a [`SharedSample`], and
//! shared by every subscription that buffers it and every reader that
//! takes it out: readers hold the same immutable sample, never a copy.
//! Its compact JSON is rendered at most once, on first write, so a sample
//! fanned out to a crowd of viewers is formatted once, not once per
//! viewer.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use neesgrid_gridsim::SimTime;
use neesgrid_telemetry::{CounterHandle, Telemetry};

/// One streamed sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NsdsSample {
    /// Channel name.
    pub channel: String,
    /// Virtual experiment time.
    pub t: SimTime,
    /// Value in the channel's engineering unit.
    pub value: f64,
}

/// A published sample, shared by every subscription, reply and capture
/// that holds it. Cloning bumps a reference count. The compact JSON text
/// is rendered on the first [`Serialize::write_json`] and copied by every
/// later one; it is byte-identical to the [`NsdsSample`] encoding.
#[derive(Clone)]
pub struct SharedSample(Arc<Rendered>);

struct Rendered {
    sample: NsdsSample,
    json: OnceLock<String>,
}

impl SharedSample {
    /// Share `sample`; its text is rendered when first written.
    pub fn new(sample: NsdsSample) -> Self {
        SharedSample(Arc::new(Rendered {
            sample,
            json: OnceLock::new(),
        }))
    }

    /// The sample's compact JSON text, rendered on the first call.
    pub(crate) fn json(&self) -> &str {
        self.0.json.get_or_init(|| {
            let sample = &self.0.sample;
            // The keys, a 20-digit time and a 24-character float: room for
            // the whole text unless the channel name needs escapes.
            let mut text = String::with_capacity(sample.channel.len() + 72);
            sample.write_json(&mut text);
            text
        })
    }
}

impl Deref for SharedSample {
    type Target = NsdsSample;
    fn deref(&self) -> &NsdsSample {
        &self.0.sample
    }
}

impl fmt::Debug for SharedSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.sample.fmt(f)
    }
}

impl Serialize for SharedSample {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.sample.serialize(serializer)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(self.json());
    }
}

impl<'de> Deserialize<'de> for SharedSample {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        NsdsSample::deserialize(d).map(SharedSample::new)
    }
}

struct SubscriptionInner {
    pattern: String,
    buffer: VecDeque<SharedSample>,
    capacity: usize,
    dropped: u64,
    delivered: u64,
    // Metric names preformatted at subscribe time so the per-sample
    // publish path never builds a key string; the counter handles are
    // resolved lazily on the first instrumented publish.
    delivered_key: String,
    dropped_key: String,
    handles: Option<(CounterHandle, CounterHandle)>,
}

/// A best-effort subscription handle.
#[derive(Clone)]
pub struct NsdsSubscription {
    inner: Arc<Mutex<SubscriptionInner>>,
}

impl NsdsSubscription {
    /// Take up to `max` buffered samples, oldest first, under one lock.
    /// The samples are shared with every other holder, not copied.
    pub fn take(&self, max: usize) -> Vec<SharedSample> {
        let mut inner = self.inner.lock();
        let n = max.min(inner.buffer.len());
        inner.buffer.drain(..n).collect()
    }

    /// Samples lost to buffer overflow so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Samples delivered into the buffer so far (including later drops).
    pub fn delivered(&self) -> u64 {
        self.inner.lock().delivered
    }

    /// Currently buffered count.
    pub fn pending(&self) -> usize {
        self.inner.lock().buffer.len()
    }
}

/// The streaming server: publishers push, subscriptions buffer.
#[derive(Default)]
pub struct NsdsServer {
    subscriptions: Mutex<Vec<Arc<Mutex<SubscriptionInner>>>>,
    published: Mutex<u64>,
    telemetry: Mutex<Telemetry>,
}

impl NsdsServer {
    /// An NSDS with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribe to channels matching `pattern` (exact, or prefix ending
    /// in `*`), buffering up to `capacity` samples.
    pub fn subscribe(&self, pattern: impl Into<String>, capacity: usize) -> NsdsSubscription {
        assert!(capacity > 0);
        let pattern = pattern.into();
        let inner = Arc::new(Mutex::new(SubscriptionInner {
            delivered_key: format!("nsds.delivered{{{pattern}}}"),
            dropped_key: format!("nsds.dropped{{{pattern}}}"),
            pattern,
            // analyzer:buffer(cap = capacity.min(1024), drop = oldest)
            buffer: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
            delivered: 0,
            handles: None,
        }));
        self.subscriptions.lock().push(Arc::clone(&inner));
        NsdsSubscription { inner }
    }

    /// Install a telemetry handle: per-subscription delivery and overflow
    /// counters (`nsds.delivered{pattern}` / `nsds.dropped{pattern}`).
    /// Defaults to disabled.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *self.telemetry.lock() = telemetry;
        // Cached handles belong to the previous registry.
        for sub in self.subscriptions.lock().iter() {
            sub.lock().handles = None;
        }
    }

    /// Publish one sample to all matching subscriptions (never blocks).
    pub fn publish(&self, sample: NsdsSample) {
        *self.published.lock() += 1;
        let sample = SharedSample::new(sample);
        let telemetry = self.telemetry.lock().clone();
        let mut subs = self.subscriptions.lock();
        // A subscription whose handle is gone can never be polled again:
        // reclaim it here, so publish cost tracks live subscribers rather
        // than every subscription ever opened. Long-lived hubs (the
        // portal's run stream across a 10k-run bench or a campaign sweep)
        // otherwise scan an ever-growing tail of closed observers and
        // finished capture taps on every sample.
        subs.retain(|sub| Arc::strong_count(sub) > 1);
        for sub in subs.iter() {
            let mut s = sub.lock();
            if !pattern_matches(&s.pattern, &sample.channel) {
                continue;
            }
            if telemetry.enabled() && s.handles.is_none() {
                s.handles = Some((
                    telemetry.counter_handle(&s.delivered_key),
                    telemetry.counter_handle(&s.dropped_key),
                ));
            }
            if s.buffer.len() == s.capacity {
                s.buffer.pop_front();
                s.dropped += 1;
                if let Some((_, dropped)) = &s.handles {
                    dropped.add(1);
                }
            }
            s.buffer.push_back(sample.clone());
            s.delivered += 1;
            if let Some((delivered, _)) = &s.handles {
                delivered.add(1);
            }
        }
    }

    /// Publish a batch of (t, value) points on one channel.
    pub fn publish_series(&self, channel: &str, points: &[(SimTime, f64)]) {
        for &(t, value) in points {
            self.publish(NsdsSample {
                channel: channel.to_string(),
                t,
                value,
            });
        }
    }

    /// Total samples published.
    pub fn published(&self) -> u64 {
        *self.published.lock()
    }

    /// Active subscription count. Subscriptions whose handle has been
    /// dropped are reclaimed lazily on the next `publish`, so this may
    /// briefly over-count between a drop and the next sample.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.lock().len()
    }
}

fn pattern_matches(pattern: &str, channel: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => channel.starts_with(prefix),
        None => pattern == channel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(channel: &str, i: u64) -> NsdsSample {
        NsdsSample {
            channel: channel.to_string(),
            t: SimTime::from_millis(i * 10),
            value: i as f64,
        }
    }

    #[test]
    fn publish_reaches_matching_subscribers() {
        let nsds = NsdsServer::new();
        let uiuc = nsds.subscribe("uiuc/*", 100);
        let all = nsds.subscribe("*", 100);
        nsds.publish(sample("uiuc/lvdt-1", 1));
        nsds.publish(sample("cu/load-1", 2));
        assert_eq!(uiuc.pending(), 1);
        assert_eq!(all.pending(), 2);
        assert_eq!(uiuc.take(1)[0].channel, "uiuc/lvdt-1");
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let nsds = NsdsServer::new();
        let sub = nsds.subscribe("*", 3);
        for i in 0..10 {
            nsds.publish(sample("c", i));
        }
        assert_eq!(sub.dropped(), 7);
        assert_eq!(sub.delivered(), 10);
        // Freshest three survive.
        let got: Vec<f64> = sub.take(usize::MAX).iter().map(|s| s.value).collect();
        assert_eq!(got, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn slow_subscriber_does_not_block_publishing() {
        let nsds = NsdsServer::new();
        let _sub = nsds.subscribe("*", 1); // pathological viewer
        let t0 = std::time::Instant::now();
        for i in 0..100_000 {
            nsds.publish(sample("c", i));
        }
        assert!(t0.elapsed().as_secs() < 5);
        assert_eq!(nsds.published(), 100_000);
    }

    #[test]
    fn keeping_up_loses_nothing() {
        let nsds = NsdsServer::new();
        let sub = nsds.subscribe("*", 16);
        let mut got = Vec::new();
        for i in 0..1000 {
            nsds.publish(sample("c", i));
            // Viewer drains every sample promptly.
            got.extend(sub.take(usize::MAX).iter().map(|s| s.value));
        }
        assert_eq!(sub.dropped(), 0);
        assert_eq!(got.len(), 1000);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "order preserved");
    }

    #[test]
    fn publish_series_batches() {
        let nsds = NsdsServer::new();
        let sub = nsds.subscribe("resp/*", 100);
        nsds.publish_series(
            "resp/dof-0",
            &[(SimTime::ZERO, 0.0), (SimTime::from_millis(10), 0.001)],
        );
        assert_eq!(sub.pending(), 2);
    }

    #[test]
    fn many_subscribers_each_get_their_own_buffer() {
        let nsds = NsdsServer::new();
        // §3.4: "over 130 remote participants logged on to observe MOST."
        let subs: Vec<NsdsSubscription> = (0..130).map(|_| nsds.subscribe("*", 64)).collect();
        for i in 0..64 {
            nsds.publish(sample("resp/dof-0", i));
        }
        for sub in &subs {
            assert_eq!(sub.pending(), 64);
            assert_eq!(sub.dropped(), 0);
        }
        assert_eq!(nsds.subscription_count(), 130);
    }

    #[test]
    fn take_hands_out_at_most_max_and_keeps_the_rest() {
        let nsds = NsdsServer::new();
        let sub = nsds.subscribe("*", 16);
        for i in 0..10 {
            nsds.publish(sample("c", i));
        }
        let first: Vec<f64> = sub.take(4).iter().map(|s| s.value).collect();
        assert_eq!(first, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(sub.pending(), 6);
        assert_eq!(sub.take(100).len(), 6);
        assert!(sub.take(100).is_empty());
    }

    #[test]
    fn readers_share_one_sample_rendered_once() {
        let nsds = NsdsServer::new();
        let (a, b) = (nsds.subscribe("*", 4), nsds.subscribe("*", 4));
        nsds.publish(sample("uiuc/\"lvdt\"-1", 3));
        let (a, b) = (a.take(1).remove(0), b.take(1).remove(0));
        assert!(
            Arc::ptr_eq(&a.0, &b.0),
            "both readers hold the published sample"
        );
        assert!(
            a.0.json.get().is_none(),
            "nothing rendered before the first write"
        );
        let plain = serde_json::to_string(&*a).unwrap();
        assert_eq!(serde_json::to_string(&a).unwrap(), plain);
        assert_eq!(b.0.json.get().map(String::as_str), Some(plain.as_str()));
        assert_eq!(serde_json::to_string(&b).unwrap(), plain);
    }
}
