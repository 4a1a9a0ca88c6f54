//! Network accounting: the router's per-link counters, read back as
//! [`NetworkStats`].
//!
//! The router bumps each fact once, in one [`LinkCounters`] per directed
//! link. When the network records telemetry those counters *are* the
//! registry's `link.*{src->dst}` entries, so a trace exports exactly what
//! [`NetworkStats`] reports — the observable side of §3.4's "several
//! transient network failures". No report reads this view; the trace's
//! link counters carry the same numbers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use neesgrid_telemetry::{CounterHandle, HistogramHandle, Telemetry};
use parking_lot::Mutex;

use crate::fault::LinkKey;
use crate::time::SimTime;

/// Counters for one directed link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// Messages handed to the router for this link.
    pub sent: u64,
    /// Messages delivered to the destination inbox.
    pub delivered: u64,
    /// Messages silently dropped by the fault plan.
    pub dropped: u64,
    /// Messages killed with a link reset.
    pub reset: u64,
    /// Messages delivered twice by the fault plan (counted once here; both
    /// copies also count in `delivered`).
    pub duplicated: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Sum of sampled virtual latencies over delivered messages.
    pub total_latency: SimTime,
}

impl LinkStats {
    /// Mean virtual latency per delivered message.
    pub fn mean_latency(&self) -> SimTime {
        if self.delivered == 0 {
            SimTime::ZERO
        } else {
            self.total_latency / self.delivered
        }
    }

    /// Fraction of sent messages that were lost (dropped or reset).
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            (self.dropped + self.reset) as f64 / self.sent as f64
        }
    }
}

/// The live counters of one directed link, shared by the router and every
/// [`NetworkStats`] view.
#[derive(Debug, Default)]
pub(crate) struct LinkCounters {
    pub(crate) sent: CounterHandle,
    pub(crate) delivered: CounterHandle,
    pub(crate) bytes: CounterHandle,
    pub(crate) dropped: CounterHandle,
    pub(crate) reset: CounterHandle,
    pub(crate) duplicated: CounterHandle,
    /// Sum of delivered latencies, ns. Not a registry entry: the trace
    /// carries latencies as the network-wide `net.latency_ns` histogram.
    latency_ns: AtomicU64,
    latency: Option<HistogramHandle>,
}

impl LinkCounters {
    /// The registry's `link.*{src->dst}` counters and `net.latency_ns`
    /// histogram when `telemetry` records; detached counters and no
    /// histogram otherwise.
    pub(crate) fn new(link: &LinkKey, telemetry: &Telemetry) -> Self {
        if !telemetry.enabled() {
            return LinkCounters::default();
        }
        let counter = |fact: &str| {
            telemetry.counter_handle(&format!("link.{fact}{{{}->{}}}", link.src, link.dst))
        };
        LinkCounters {
            sent: counter("sent"),
            delivered: counter("delivered"),
            bytes: counter("bytes"),
            dropped: counter("dropped"),
            reset: counter("reset"),
            duplicated: counter("duplicated"),
            latency_ns: AtomicU64::new(0),
            latency: Some(telemetry.histogram_handle("net.latency_ns")),
        }
    }

    /// Count one delivered copy.
    pub(crate) fn count_delivery(&self, bytes: usize, latency: SimTime) {
        self.delivered.add(1);
        self.bytes.add(bytes as u64);
        self.latency_ns
            .fetch_add(latency.as_nanos(), Ordering::Relaxed);
        if let Some(histogram) = &self.latency {
            histogram.observe_ns(latency.as_nanos());
        }
    }

    fn snapshot(&self) -> LinkStats {
        LinkStats {
            sent: self.sent.get(),
            delivered: self.delivered.get(),
            dropped: self.dropped.get(),
            reset: self.reset.get(),
            duplicated: self.duplicated.get(),
            bytes_delivered: self.bytes.get(),
            total_latency: SimTime::from_nanos(self.latency_ns.load(Ordering::Relaxed)),
        }
    }
}

/// Every link that has carried a routed message, in first-use order.
type Links = Vec<(LinkKey, Arc<LinkCounters>)>;

/// A read-only view of a network's per-link counters. Clones share them,
/// and the view stays readable after the network is torn down.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    links: Arc<Mutex<Links>>,
}

impl NetworkStats {
    /// Add a link's counters at its first routed message.
    pub(crate) fn register(&self, link: LinkKey, counters: Arc<LinkCounters>) {
        self.links.lock().push((link, counters));
    }

    /// Snapshot counters for one link.
    pub fn link(&self, link: &LinkKey) -> LinkStats {
        self.links
            .lock()
            .iter()
            .find(|(k, _)| k == link)
            .map(|(_, c)| c.snapshot())
            .unwrap_or_default()
    }

    /// Snapshot of every link.
    pub fn all(&self) -> BTreeMap<LinkKey, LinkStats> {
        self.links
            .lock()
            .iter()
            .map(|(k, c)| (k.clone(), c.snapshot()))
            .collect()
    }

    /// Aggregate counters over all links.
    pub fn totals(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for (_, c) in self.links.lock().iter() {
            let s = c.snapshot();
            t.sent += s.sent;
            t.delivered += s.delivered;
            t.dropped += s.dropped;
            t.reset += s.reset;
            t.duplicated += s.duplicated;
            t.bytes_delivered += s.bytes_delivered;
            t.total_latency += s.total_latency;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(a: &str, b: &str) -> LinkKey {
        LinkKey::new(a, b)
    }

    fn counted(stats: &NetworkStats, l: LinkKey) -> Arc<LinkCounters> {
        let c = Arc::new(LinkCounters::default());
        stats.register(l, Arc::clone(&c));
        c
    }

    #[test]
    fn counters_accumulate() {
        let stats = NetworkStats::default();
        let l = link("a", "b");
        let c = counted(&stats, l.clone());
        c.sent.add(2);
        c.count_delivery(100, SimTime::from_millis(30));
        c.dropped.add(1);
        let s = stats.link(&l);
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.bytes_delivered, 100);
        assert_eq!(s.loss_rate(), 0.5);
    }

    #[test]
    fn mean_latency_over_delivered_only() {
        let stats = NetworkStats::default();
        let l = link("a", "b");
        let c = counted(&stats, l.clone());
        c.count_delivery(1, SimTime::from_millis(10));
        c.count_delivery(1, SimTime::from_millis(30));
        assert_eq!(stats.link(&l).mean_latency(), SimTime::from_millis(20));
    }

    #[test]
    fn empty_link_is_zeroed() {
        let stats = NetworkStats::default();
        let s = stats.link(&link("x", "y"));
        assert_eq!(s, LinkStats::default());
        assert_eq!(s.mean_latency(), SimTime::ZERO);
        assert_eq!(s.loss_rate(), 0.0);
    }

    #[test]
    fn totals_aggregate_links() {
        let stats = NetworkStats::default();
        counted(&stats, link("a", "b")).sent.add(1);
        let ba = counted(&stats, link("b", "a"));
        ba.sent.add(1);
        ba.reset.add(1);
        let t = stats.totals();
        assert_eq!(t.sent, 2);
        assert_eq!(t.reset, 1);
        assert_eq!(stats.all().len(), 2);
    }

    #[test]
    fn clone_shares_state() {
        let stats = NetworkStats::default();
        let clone = stats.clone();
        counted(&clone, link("a", "b")).sent.add(1);
        assert_eq!(stats.link(&link("a", "b")).sent, 1);
    }
}
