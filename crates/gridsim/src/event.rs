//! The deterministic discrete-event engine.
//!
//! The engine owns the two kinds of future work in a simulated deployment:
//!
//! * **Deliveries** — envelopes in flight, keyed by `(delivery SimTime,
//!   tie-break seq)` in a binary heap. Popping a delivery advances the shared
//!   [`SimClock`] to its timestamp and runs its action (typically invoking a
//!   node's installed handler).
//! * **Timers** — virtual-time deadlines (RPC attempt timeouts) kept in a
//!   separate ordered collection so they can be cancelled when the awaited
//!   reply arrives first.
//!
//! The quiescence rule: a timer may only fire when no delivery is pending.
//! Deliveries always win, regardless of their virtual timestamps — a reply
//! that is *in flight* must beat the attempt timer that is waiting on it.
//! Every node consumes its traffic through an installed handler, so one
//! thread pumps the engine and quiescence is decidable instantly: an empty
//! delivery heap proves no reply is coming.

use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::time::{SimClock, SimTime};

type Action = Box<dyn FnOnce() + Send>;

/// Handle to a scheduled virtual timer, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId {
    at_ns: u64,
    seq: u64,
}

struct Delivery {
    at: SimTime,
    seq: u64,
    action: Action,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. `seq` breaks ties deterministically in schedule order.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct EngineState {
    deliveries: BinaryHeap<Delivery>,
    timers: BTreeMap<TimerId, Action>,
    next_seq: u64,
}

/// The event queue shared by a [`crate::VirtualNetwork`] and everything
/// built on top of it.
///
/// Time moves only here: `run_one` and `fire_next_timer` advance the shared
/// clock to the popped event's timestamp before running its action, so any
/// component that pumps the engine observes a monotonic virtual present.
pub struct EventEngine {
    state: Mutex<EngineState>,
    clock: Arc<SimClock>,
}

impl EventEngine {
    /// A new, empty engine advancing `clock`.
    pub fn new(clock: Arc<SimClock>) -> Arc<Self> {
        Arc::new(EventEngine {
            state: Mutex::new(EngineState {
                deliveries: BinaryHeap::new(),
                timers: BTreeMap::new(),
                next_seq: 0,
            }),
            clock,
        })
    }

    /// The clock this engine advances.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// Schedule `action` to run when virtual time reaches `at`. Events with
    /// equal timestamps run in schedule order.
    pub fn schedule_delivery(&self, at: SimTime, action: impl FnOnce() + Send + 'static) {
        let mut s = self.state.lock();
        let seq = s.next_seq;
        s.next_seq += 1;
        s.deliveries.push(Delivery {
            at,
            seq,
            action: Box::new(action),
        });
    }

    /// Arm a virtual timer at `deadline`. It fires only once the engine is
    /// quiescent (no deliveries pending); cancel it with
    /// [`EventEngine::cancel_timer`] when the awaited event arrives first.
    pub fn schedule_timer(
        &self,
        deadline: SimTime,
        action: impl FnOnce() + Send + 'static,
    ) -> TimerId {
        let mut s = self.state.lock();
        let id = TimerId {
            at_ns: deadline.as_nanos(),
            seq: s.next_seq,
        };
        s.next_seq += 1;
        s.timers.insert(id, Box::new(action));
        id
    }

    /// Disarm a timer. Returns `false` if it already fired (or was cancelled).
    pub fn cancel_timer(&self, id: TimerId) -> bool {
        self.state.lock().timers.remove(&id).is_some()
    }

    /// Pop and run the earliest pending delivery, advancing the clock to its
    /// timestamp first. Returns `false` if no delivery was pending. The
    /// action runs outside the engine lock, so it may schedule further work.
    pub fn run_one(&self) -> bool {
        let Some(delivery) = self.state.lock().deliveries.pop() else {
            return false;
        };
        self.clock.advance_to(delivery.at);
        (delivery.action)();
        true
    }

    /// Drain every currently runnable delivery. Returns how many ran.
    pub fn run_until_idle(&self) -> usize {
        let mut n = 0;
        while self.run_one() {
            n += 1;
        }
        n
    }

    /// Fire the earliest armed timer, advancing the clock to its deadline.
    /// Returns `false` if no timer was armed. Callers are responsible for the
    /// quiescence rule: fire timers only when [`EventEngine::run_one`] finds
    /// no delivery.
    pub fn fire_next_timer(&self) -> bool {
        let Some((id, action)) = self.state.lock().timers.pop_first() else {
            return false;
        };
        self.clock.advance_to(SimTime::from_nanos(id.at_ns));
        action();
        true
    }

    /// Drop every pending delivery and timer (network shutdown). Actions are
    /// dropped, not run; this also breaks `Arc` cycles through captured
    /// handler state.
    pub fn clear(&self) {
        let (deliveries, timers) = {
            let mut s = self.state.lock();
            (
                std::mem::take(&mut s.deliveries),
                std::mem::take(&mut s.timers),
            )
        };
        // Drop outside the lock: destructors of captured state may touch the
        // engine (e.g. a dropped RPC completion cancelling its timer).
        drop(deliveries);
        drop(timers);
    }
}

impl std::fmt::Debug for EventEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("EventEngine")
            .field("deliveries", &s.deliveries.len())
            .field("timers", &s.timers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn deliveries_run_in_time_then_schedule_order() {
        let clock = SimClock::new();
        let engine = EventEngine::new(Arc::clone(&clock));
        let order = Arc::new(Mutex::new(Vec::new()));
        for (tag, at) in [(1u32, 20u64), (2, 10), (3, 10), (4, 5)] {
            let order = Arc::clone(&order);
            engine.schedule_delivery(SimTime::from_millis(at), move || {
                order.lock().push(tag);
            });
        }
        assert_eq!(engine.run_until_idle(), 4);
        // t=5 first, then the two t=10 events in schedule order, then t=20.
        assert_eq!(*order.lock(), vec![4, 2, 3, 1]);
        assert_eq!(clock.now(), SimTime::from_millis(20));
    }

    #[test]
    fn running_a_delivery_advances_the_clock() {
        let clock = SimClock::new();
        let engine = EventEngine::new(Arc::clone(&clock));
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let c2 = Arc::clone(&clock);
        engine.schedule_delivery(SimTime::from_secs(3), move || {
            seen2.store(c2.now().as_nanos(), Ordering::SeqCst);
        });
        assert!(engine.run_one());
        assert_eq!(
            seen.load(Ordering::SeqCst),
            SimTime::from_secs(3).as_nanos()
        );
        assert!(!engine.run_one());
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let engine = EventEngine::new(SimClock::new());
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        let id = engine.schedule_timer(SimTime::from_secs(1), move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert!(engine.cancel_timer(id));
        assert!(!engine.cancel_timer(id));
        assert!(!engine.fire_next_timer());
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn timers_fire_earliest_first_and_advance_the_clock() {
        let clock = SimClock::new();
        let engine = EventEngine::new(Arc::clone(&clock));
        let order = Arc::new(Mutex::new(Vec::new()));
        for (tag, at) in [(1u32, 300u64), (2, 100)] {
            let order = Arc::clone(&order);
            engine.schedule_timer(SimTime::from_millis(at), move || {
                order.lock().push(tag);
            });
        }
        assert!(engine.fire_next_timer());
        assert_eq!(clock.now(), SimTime::from_millis(100));
        assert!(engine.fire_next_timer());
        assert!(!engine.fire_next_timer());
        assert_eq!(*order.lock(), vec![2, 1]);
        assert_eq!(clock.now(), SimTime::from_millis(300));
    }

    #[test]
    fn actions_may_schedule_further_work() {
        let engine = EventEngine::new(SimClock::new());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let e2 = Arc::clone(&engine);
        engine.schedule_delivery(SimTime::from_millis(1), move || {
            let h2 = Arc::clone(&h);
            e2.schedule_delivery(SimTime::from_millis(2), move || {
                h2.fetch_add(10, Ordering::SeqCst);
            });
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(engine.run_until_idle(), 2);
        assert_eq!(hits.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn clear_drops_pending_work() {
        let engine = EventEngine::new(SimClock::new());
        engine.schedule_delivery(SimTime::from_secs(1), || panic!("must not run"));
        engine.schedule_timer(SimTime::from_secs(1), || panic!("must not run"));
        engine.clear();
        assert!(!engine.run_one());
        assert!(!engine.fire_next_timer());
    }
}
