//! NEESgrid Streaming Data Service (NSDS).
//!
//! §2.2: "The NEESGrid Streaming Data Service provides a best-effort
//! stream of real-time data from the data acquisition system." The
//! defining property is **best-effort**: the experiment never blocks on a
//! slow remote viewer. Each subscription holds a bounded backlog; when it
//! overflows, the *oldest* samples are discarded and counted, so a viewer
//! that falls behind sees the freshest data with an honest loss figure —
//! the number the `fig08_dataviewer` bench reports.
//!
//! The service keeps one log per distinct subscription pattern, and a
//! subscription is a cursor into its pattern's log. Publishing matches
//! each pattern once and appends the sample once: the typed sample, and
//! its compact JSON text at the end of one buffer the log's texts share.
//! Every cursor whose backlog already filled its capacity then moves past
//! the oldest sample, which is that subscription's drop. Reading moves the
//! reader's cursor, and a log keeps only what its slowest cursor has not
//! read, so it never holds more than its largest capacity. A rendered read
//! ([`NsdsSubscription::take_run`]) copies a range of that buffer in one
//! piece: a sample fanned out to a crowd of viewers is rendered once, and
//! publishing it costs each viewer a comparison, not a copy.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

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

/// A run of samples as their compact JSON texts, comma-joined: the
/// `samples` array of a `Poll` reply without its brackets. A rendered read
/// copies one out of a log in one piece, and writing it splices the text.
/// Decoding takes exactly the JSON a `Vec<NsdsSample>` takes and writes
/// each sample back, so a run always holds its samples' own texts.
#[derive(Clone, Default)]
pub struct SampleRun {
    text: String,
    len: usize,
}

impl SampleRun {
    /// Samples in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no sample.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The samples, oldest first, decoded from the text. A non-finite
    /// value reads back as NaN, as it does off the wire.
    pub fn samples(&self) -> Vec<NsdsSample> {
        let mut array = String::with_capacity(self.text.len() + 2);
        array.push('[');
        array.push_str(&self.text);
        array.push(']');
        serde_json::from_str(&array).expect("a run holds rendered samples")
    }
}

impl FromIterator<NsdsSample> for SampleRun {
    fn from_iter<I: IntoIterator<Item = NsdsSample>>(samples: I) -> Self {
        let mut run = SampleRun::default();
        for sample in samples {
            if run.len > 0 {
                run.text.push(',');
            }
            sample.write_json(&mut run.text);
            run.len += 1;
        }
        run
    }
}

impl IntoIterator for SampleRun {
    type Item = NsdsSample;
    type IntoIter = std::vec::IntoIter<NsdsSample>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples().into_iter()
    }
}

impl IntoIterator for &SampleRun {
    type Item = NsdsSample;
    type IntoIter = std::vec::IntoIter<NsdsSample>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples().into_iter()
    }
}

impl fmt::Debug for SampleRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.samples()).finish()
    }
}

impl Serialize for SampleRun {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.samples().serialize(serializer)
    }

    fn write_json(&self, out: &mut String) {
        // Room for the array and the little that closes a reply around it,
        // so a frame built around a run grows once.
        out.reserve(self.text.len() + 16);
        out.push('[');
        out.push_str(&self.text);
        out.push(']');
    }
}

impl<'de> Deserialize<'de> for SampleRun {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<NsdsSample>::deserialize(d).map(SampleRun::from_iter)
    }
}

/// The samples published on channels matching one pattern that some
/// subscription to it has not read yet.
struct Log {
    pattern: String,
    /// Sequence number of `samples[0]`; the log numbers the samples it
    /// appends from 0.
    base: u64,
    samples: VecDeque<NsdsSample>,
    /// Each retained sample's compact JSON text followed by a comma. The
    /// first `cut` bytes the log ever held are gone from the front.
    text: String,
    cut: usize,
    /// Where each retained sample's text starts, counted from the log's
    /// first byte.
    starts: VecDeque<usize>,
    cursors: Vec<Cursor>,
    // Metric names preformatted when the log opens so the per-sample
    // publish path never builds a key string; the counter handles are
    // resolved lazily on the first instrumented publish.
    delivered_key: String,
    dropped_key: String,
    handles: Option<(CounterHandle, CounterHandle)>,
}

/// One subscription's place in its log.
struct Cursor {
    /// The subscription's id in the hub's slots.
    id: usize,
    /// Sequence number of the next sample it reads.
    next: u64,
    /// Sequence number of the first sample appended after it subscribed.
    joined: u64,
    capacity: u64,
    dropped: u64,
}

impl Log {
    fn new(pattern: String) -> Log {
        Log {
            delivered_key: format!("nsds.delivered{{{pattern}}}"),
            dropped_key: format!("nsds.dropped{{{pattern}}}"),
            pattern,
            base: 0,
            // analyzer:buffer(cap = 64, drop = oldest)
            samples: VecDeque::with_capacity(64),
            text: String::new(),
            cut: 0,
            // analyzer:buffer(cap = 64, drop = oldest)
            starts: VecDeque::with_capacity(64),
            cursors: Vec::new(),
            handles: None,
        }
    }

    /// Sequence number of the next sample appended.
    fn head(&self) -> u64 {
        self.base + self.samples.len() as u64
    }

    /// Append one matching sample and its text. Every cursor whose backlog
    /// now exceeds its capacity loses its oldest sample; the publish is
    /// counted as delivered to every cursor.
    fn append(&mut self, sample: NsdsSample, text: &str, telemetry: &Telemetry) {
        self.starts.push_back(self.cut + self.text.len());
        self.text.push_str(text);
        self.text.push(',');
        self.samples.push_back(sample);
        let head = self.head();
        let (mut dropped, mut slowest) = (0, head);
        for cursor in &mut self.cursors {
            if head - cursor.next > cursor.capacity {
                cursor.next += 1;
                cursor.dropped += 1;
                dropped += 1;
            }
            slowest = slowest.min(cursor.next);
        }
        if telemetry.enabled() {
            let (delivered_key, dropped_key) = (&self.delivered_key, &self.dropped_key);
            let (delivered_counter, dropped_counter) = self.handles.get_or_insert_with(|| {
                (
                    telemetry.counter_handle(delivered_key),
                    telemetry.counter_handle(dropped_key),
                )
            });
            delivered_counter.add(self.cursors.len() as u64);
            dropped_counter.add(dropped);
        }
        self.trim(slowest);
    }

    /// Hand `read` the indices into `samples` of the next `max` samples
    /// cursor `at` has not read, then move the cursor past them.
    fn read<T>(&mut self, at: usize, max: usize, read: impl FnOnce(&Log, Range<usize>) -> T) -> T {
        let next = self.cursors[at].next;
        let n = (self.head() - next).min(max as u64);
        let from = (next - self.base) as usize;
        let out = read(self, from..from + n as usize);
        self.cursors[at].next += n;
        // Only a cursor at the front can have been the slowest.
        if n > 0 && next == self.base {
            self.trim(self.slowest());
        }
        out
    }

    /// The texts of retained samples `range`, comma-joined.
    fn text_of(&self, range: Range<usize>) -> &str {
        if range.is_empty() {
            return "";
        }
        let start = self.starts[range.start] - self.cut;
        let end = self
            .starts
            .get(range.end)
            .map_or(self.text.len(), |&s| s - self.cut);
        &self.text[start..end - 1]
    }

    fn slowest(&self) -> u64 {
        self.cursors
            .iter()
            .map(|c| c.next)
            .min()
            .unwrap_or_else(|| self.head())
    }

    /// Forget the samples before sequence number `slowest`, which every
    /// cursor has passed.
    fn trim(&mut self, slowest: u64) {
        let n = (slowest - self.base) as usize;
        if n == 0 {
            return;
        }
        self.samples.drain(..n);
        self.starts.drain(..n);
        self.base = slowest;
        match self.starts.front() {
            None => {
                self.cut += self.text.len();
                self.text.clear();
            }
            // Passed text is cut once it is half the buffer, so each byte
            // moves at most once on average.
            Some(&first) if first - self.cut > self.text.len() / 2 => {
                self.text.drain(..first - self.cut);
                self.cut = first;
            }
            Some(_) => {}
        }
    }
}

#[derive(Default)]
struct Hub {
    published: u64,
    telemetry: Telemetry,
    logs: Vec<Log>,
    /// Where each subscription's cursor sits, as `(log, index)`, by
    /// subscription id; `None` once all its handles are gone, for the next
    /// subscription to reuse.
    slots: Vec<Option<(usize, usize)>>,
    /// The text of the sample being published.
    text: String,
}

impl Hub {
    fn cursor(&self, id: usize) -> (&Log, &Cursor) {
        let (log, at) = self.slots[id].expect("a live handle has a cursor");
        let log = &self.logs[log];
        (log, &log.cursors[at])
    }

    fn unsubscribe(&mut self, id: usize) {
        let Some((l, at)) = self.slots[id].take() else {
            return;
        };
        let log = &mut self.logs[l];
        log.cursors.swap_remove(at);
        if let Some(moved) = log.cursors.get(at) {
            self.slots[moved.id] = Some((l, at));
        }
        if !log.cursors.is_empty() {
            log.trim(log.slowest());
            return;
        }
        self.logs.swap_remove(l);
        if let Some(moved) = self.logs.get(l) {
            for (at, cursor) in moved.cursors.iter().enumerate() {
                self.slots[cursor.id] = Some((l, at));
            }
        }
    }
}

/// A best-effort subscription handle. Clones share one cursor; the
/// subscription ends when its last handle drops.
#[derive(Clone)]
pub struct NsdsSubscription(Arc<Subscribed>);

struct Subscribed {
    hub: Arc<Mutex<Hub>>,
    id: usize,
}

impl Drop for Subscribed {
    fn drop(&mut self) {
        self.hub.lock().unsubscribe(self.id);
    }
}

impl NsdsSubscription {
    fn read<T>(&self, max: usize, read: impl FnOnce(&Log, Range<usize>) -> T) -> T {
        let mut hub = self.0.hub.lock();
        let (log, at) = hub.slots[self.0.id].expect("a live handle has a cursor");
        hub.logs[log].read(at, max, read)
    }

    /// Take up to `max` samples, oldest first, each a copy of the
    /// published sample.
    pub fn take(&self, max: usize) -> Vec<NsdsSample> {
        self.read(max, |log, range| {
            log.samples.range(range).cloned().collect()
        })
    }

    /// Take up to `max` samples, oldest first, as one run of their texts:
    /// one copy out of the log, sized exactly.
    pub fn take_run(&self, max: usize) -> SampleRun {
        self.read(max, |log, range| SampleRun {
            len: range.len(),
            text: log.text_of(range).to_owned(),
        })
    }

    /// Take up to `max` samples, oldest first, appending each one's text
    /// to `out` as one JSON line. Returns how many it took.
    pub fn take_jsonl(&self, max: usize, out: &mut String) -> usize {
        self.read(max, |log, range| {
            out.reserve(log.text_of(range.clone()).len() + 1);
            for i in range.clone() {
                out.push_str(log.text_of(i..i + 1));
                out.push('\n');
            }
            range.len()
        })
    }

    /// Samples lost to buffer overflow so far.
    pub fn dropped(&self) -> u64 {
        self.0.hub.lock().cursor(self.0.id).1.dropped
    }

    /// Samples delivered into the buffer so far (including later drops).
    pub fn delivered(&self) -> u64 {
        let hub = self.0.hub.lock();
        let (log, cursor) = hub.cursor(self.0.id);
        log.head() - cursor.joined
    }

    /// Currently buffered count.
    pub fn pending(&self) -> usize {
        let hub = self.0.hub.lock();
        let (log, cursor) = hub.cursor(self.0.id);
        (log.head() - cursor.next) as usize
    }
}

/// The streaming server: publishers append, subscriptions read.
#[derive(Default)]
pub struct NsdsServer {
    hub: Arc<Mutex<Hub>>,
}

impl NsdsServer {
    /// An NSDS with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribe to channels matching `pattern` (exact, or prefix ending
    /// in `*`), buffering up to `capacity` samples. The subscription sees
    /// the samples published from now on.
    pub fn subscribe(&self, pattern: impl Into<String>, capacity: usize) -> NsdsSubscription {
        assert!(capacity > 0);
        let pattern = pattern.into();
        let mut hub = self.hub.lock();
        let hub = &mut *hub;
        let l = match hub.logs.iter().position(|log| log.pattern == pattern) {
            Some(l) => l,
            None => {
                hub.logs.push(Log::new(pattern));
                hub.logs.len() - 1
            }
        };
        let id = match hub.slots.iter().position(Option::is_none) {
            Some(id) => id,
            None => {
                hub.slots.push(None);
                hub.slots.len() - 1
            }
        };
        let log = &mut hub.logs[l];
        let head = log.head();
        log.cursors.push(Cursor {
            id,
            next: head,
            joined: head,
            capacity: capacity as u64,
            dropped: 0,
        });
        hub.slots[id] = Some((l, log.cursors.len() - 1));
        NsdsSubscription(Arc::new(Subscribed {
            hub: Arc::clone(&self.hub),
            id,
        }))
    }

    /// Install a telemetry handle: per-pattern delivery and overflow
    /// counters (`nsds.delivered{pattern}` / `nsds.dropped{pattern}`), each
    /// summed over the pattern's subscriptions. Defaults to disabled.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        let mut hub = self.hub.lock();
        hub.telemetry = telemetry;
        // Cached handles belong to the previous registry.
        for log in &mut hub.logs {
            log.handles = None;
        }
    }

    /// Publish one sample to all matching subscriptions (never blocks).
    pub fn publish(&self, sample: NsdsSample) {
        let mut hub = self.hub.lock();
        let Hub {
            published,
            telemetry,
            logs,
            text,
            ..
        } = &mut *hub;
        *published += 1;
        // Each append waits for the next match, so the last matching log
        // takes the sample itself and only the others take a copy.
        let mut matched = None;
        for l in 0..logs.len() {
            if !pattern_matches(&logs[l].pattern, &sample.channel) {
                continue;
            }
            match matched.replace(l) {
                None => {
                    text.clear();
                    sample.write_json(text);
                }
                Some(earlier) => logs[earlier].append(sample.clone(), text, telemetry),
            }
        }
        if let Some(last) = matched {
            logs[last].append(sample, text, telemetry);
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
        self.hub.lock().published
    }

    /// Live subscription count: a subscription ends when its last handle
    /// drops.
    pub fn subscription_count(&self) -> usize {
        self.hub.lock().slots.iter().flatten().count()
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

    /// The log behind the (only) subscription to `pattern`: retained
    /// samples and text bytes.
    fn retained(nsds: &NsdsServer, pattern: &str) -> Option<(usize, usize)> {
        let hub = nsds.hub.lock();
        let log = hub.logs.iter().find(|log| log.pattern == pattern)?;
        Some((log.samples.len(), log.text.len()))
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
    fn rendered_reads_are_the_samples_own_texts() {
        let nsds = NsdsServer::new();
        let (poll, capture) = (nsds.subscribe("*", 4), nsds.subscribe("*", 4));
        let published: Vec<NsdsSample> = (0..3).map(|i| sample("uiuc/\"lvdt\"-1", i)).collect();
        for s in &published {
            nsds.publish(s.clone());
        }
        let texts: Vec<String> = published
            .iter()
            .map(|s| serde_json::to_string(s).expect("a sample renders"))
            .collect();
        let run = poll.take_run(usize::MAX);
        assert_eq!(run.len(), 3);
        assert_eq!(
            serde_json::to_string(&run).expect("a run renders"),
            format!("[{}]", texts.join(","))
        );
        assert_eq!(run.samples(), published);
        let mut jsonl = String::new();
        assert_eq!(capture.take_jsonl(2, &mut jsonl), 2);
        assert_eq!(capture.take_jsonl(2, &mut jsonl), 1);
        assert_eq!(jsonl, texts.join("\n") + "\n");
        assert!(poll.take_run(8).is_empty());
    }

    #[test]
    fn a_log_keeps_only_what_its_slowest_cursor_has_not_read() {
        let nsds = NsdsServer::new();
        let (small, large) = (nsds.subscribe("*", 4), nsds.subscribe("*", 8));
        for i in 0..100 {
            nsds.publish(sample("c", i));
        }
        assert_eq!(
            retained(&nsds, "*").map(|r| r.0),
            Some(8),
            "its largest capacity"
        );
        assert_eq!((small.pending(), large.pending()), (4, 8));
        large.take(usize::MAX);
        assert_eq!(retained(&nsds, "*").map(|r| r.0), Some(4));
        small.take(usize::MAX);
        assert_eq!(
            retained(&nsds, "*"),
            Some((0, 0)),
            "a drained log holds nothing"
        );
        nsds.publish(sample("c", 100));
        assert_eq!(small.take(1)[0].value, 100.0);
        assert_eq!(large.take_run(1).samples()[0].value, 100.0);
    }

    #[test]
    fn a_dropped_handle_is_reclaimed_at_once() {
        let nsds = NsdsServer::new();
        let keep = nsds.subscribe("a/*", 4);
        let gone = nsds.subscribe("b/*", 4);
        let clone = gone.clone();
        drop(gone);
        assert_eq!(nsds.subscription_count(), 2, "a clone keeps it open");
        nsds.publish(sample("b/x", 1));
        drop(clone);
        assert_eq!(nsds.subscription_count(), 1);
        assert!(retained(&nsds, "b/*").is_none(), "its log went with it");
        // Re-subscribing opens a fresh log that sees only new samples.
        let again = nsds.subscribe("b/*", 4);
        nsds.publish(sample("b/x", 2));
        assert_eq!((again.pending(), again.delivered()), (1, 1));
        assert_eq!(keep.pending(), 0);
    }
}
