//! Allocation budgets for the per-message path and the crowd's replies.
//!
//! A 64-site site-step is four NTCP messages (propose and execute, each a
//! request and a reply) through the event engine, the OGSI container and
//! RPC mux, the JSON codec and the NTCP state machine. The first test
//! counts the heap allocations and reallocations one `n_site(64, 1)` run
//! of 100 steps makes, per site-step, and fails if the count grows past the
//! budget: a `Value` tree put back on the decode path, or a per-message
//! copy added, shows up here before it shows up as lost throughput.
//!
//! The second counts what reading one full `Poll` reply in place costs a
//! CHEF viewer: 1,024 samples, each borrowing its channel name from the
//! frame, so a `String` or `Arc` per sample put back shows up at once.
//!
//! The third counts what serving that reply costs the portal: one
//! subscriber of a 132-viewer crowd reads 1,024 samples from the NSDS hub
//! and the reply is encoded as a frame, so a copy per sample or a frame
//! buffer grown by doubling shows up at once.
//!
//! Counting is per thread (a `const` thread-local), and each test counts
//! from zero on its own thread, so the tests do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use neesgrid::daq::nsds::{NsdsSample, NsdsServer, NsdsSubscription, SampleRun};
use neesgrid::gridsim::SimTime;
use neesgrid::most::n_site;
use neesgrid::portal::{decode, encode, Response, SamplesView};

/// Allocations plus reallocations per site-step. Measured at 129.1
/// (105.1 alloc + 24.0 realloc) once decoding stopped building `Value`
/// trees, down from 211.1 (168.1 + 43.0); the budget rounds that up to the
/// next 5. Then 125.2 (101.2 + 24.0): the NTCP batch calls borrow each
/// site's client instead of cloning it (two `String`s) per phase. Then
/// 121.2 (101.2 + 20.0): `Bytes` takes each message's `Vec` as it is,
/// without shrinking it first, so the budget dropped to 126. Now 92.3
/// (79.2 + 13.1): NTCP replies are written once as text into a buffer
/// sized from the replies before them, and the dedup cache keeps that
/// text rather than a copy of a `Value` tree, so the budget drops to 97,
/// keeping the margin.
const BUDGET_PER_SITE_STEP: f64 = 97.0;

const SITES: usize = 64;
const STEPS: usize = 100;

/// Allocations plus reallocations to read one 1,024-sample `Poll` reply as
/// a `SamplesView`. Measured at 9, the sample vector growing by doubling;
/// the owned `Response` decode makes 2,057, a `String` and an `Arc` per
/// sample.
const POLL_REPLY_BUDGET: u64 = 12;

/// Allocations plus reallocations to serve one 1,024-sample `Poll` reply:
/// one subscriber's rendered read from a hub with 132 subscribers and
/// 2,048 published samples, and the reply's frame. Measured at 4: the
/// run's text, copied out of the log in one piece; the frame buffer and
/// its one growth to fit the run; and the frame's `Bytes`. With a ring of
/// shared samples per subscriber it took 16 once another viewer had been
/// served the same samples (the reply's sample vector, the frame buffer,
/// its `Bytes` and 13 doublings of the buffer), and 1,040 for the first
/// viewer served, which rendered each sample's text.
const POLL_SERVE_BUDGET: u64 = 4;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls made on a thread while its
/// `COUNTING` flag is set.
struct Counting;

fn note(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, counting this thread's allocations and reallocations from
/// zero: `(result, allocations, reallocations)`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

#[test]
fn n_site_step_stays_inside_its_allocation_budget() {
    let experiment = n_site(SITES, 1);
    let (outcome, allocs, reallocs) = counted(|| experiment.run(STEPS));
    assert_eq!(
        outcome.steps_completed(),
        STEPS,
        "{:?}",
        outcome.termination
    );

    let site_steps = (SITES * STEPS) as f64;
    let allocs = allocs as f64 / site_steps;
    let reallocs = reallocs as f64 / site_steps;
    let total = allocs + reallocs;
    println!(
        "n_site({SITES}, 1), {STEPS} steps: {total:.1} allocations per site-step \
         ({allocs:.1} alloc + {reallocs:.1} realloc), budget {BUDGET_PER_SITE_STEP}"
    );
    assert!(
        total <= BUDGET_PER_SITE_STEP,
        "{total:.1} allocations per site-step ({allocs:.1} alloc + {reallocs:.1} realloc) \
         exceed the budget of {BUDGET_PER_SITE_STEP}"
    );
}

/// Sample `i` of a stream with the MOST public run's channels and value
/// spread.
fn most_sample(i: u64) -> NsdsSample {
    let site = ["uiuc", "ncsa", "cu"][(i / 2 % 3) as usize];
    let kind = ["disp", "force"][(i % 2) as usize];
    NsdsSample {
        channel: format!("{site}/dof-{}/{kind}", i / 6 % 2),
        t: SimTime::from_nanos(764_565_679_839 + i / 6 * 180_000_000),
        value: (i as f64 * 0.37).sin() * [2.5e-4, 640.0][(i % 2) as usize],
    }
}

#[test]
fn poll_reply_reads_in_place_inside_its_allocation_budget() {
    // A full reply of the MOST public run's channels and value spread.
    let samples: SampleRun = (0..1024u64).map(most_sample).collect();
    let reply = Response::Samples {
        samples,
        dropped: 3_752,
        done: false,
    };
    let frame = encode(&reply).expect("a 1,024-sample reply fits a frame");

    let (view, allocs, reallocs) = counted(|| decode::<SamplesView>(&frame));
    let Ok(SamplesView::Samples {
        samples, dropped, ..
    }) = view
    else {
        panic!("a Samples reply reads as a view: {view:?}");
    };
    assert_eq!((samples.len(), dropped), (1024, 3_752));
    assert!(samples
        .iter()
        .all(|s| matches!(s.channel, std::borrow::Cow::Borrowed(_))));
    let total = allocs + reallocs;
    println!(
        "1,024-sample Poll reply in place: {total} allocations ({allocs} alloc + \
         {reallocs} realloc), budget {POLL_REPLY_BUDGET}"
    );
    assert!(
        total <= POLL_REPLY_BUDGET,
        "{total} allocations ({allocs} alloc + {reallocs} realloc) to read one reply in place \
         exceed the budget of {POLL_REPLY_BUDGET}"
    );
}

#[test]
fn serving_a_poll_reply_stays_inside_its_allocation_budget() {
    // The §3.4 crowd on one pattern, each viewer's backlog 2,048 samples.
    let hub = NsdsServer::new();
    let crowd: Vec<NsdsSubscription> = (0..132).map(|_| hub.subscribe("*", 8192)).collect();
    for i in 0..2048u64 {
        hub.publish(most_sample(i));
    }
    let viewer = &crowd[0];

    let (frame, allocs, reallocs) = counted(|| {
        let samples = viewer.take_run(1024);
        encode(&Response::Samples {
            samples,
            dropped: viewer.dropped(),
            done: false,
        })
    });
    let frame = frame.expect("a 1,024-sample reply fits a frame");
    let Ok(SamplesView::Samples { samples, .. }) = decode::<SamplesView>(&frame) else {
        panic!("the served reply reads as a view");
    };
    assert_eq!(samples.len(), 1024);
    let (first, last) = (most_sample(0), most_sample(1023));
    assert_eq!(
        (samples[0].t, &*samples[1023].channel),
        (first.t, last.channel.as_str())
    );
    assert_eq!(viewer.pending(), 1024, "the rest stays for the next poll");
    let total = allocs + reallocs;
    println!(
        "serving a 1,024-sample Poll reply to one of 132 subscribers: {total} allocations \
         ({allocs} alloc + {reallocs} realloc), budget {POLL_SERVE_BUDGET}"
    );
    assert!(
        total <= POLL_SERVE_BUDGET,
        "{total} allocations ({allocs} alloc + {reallocs} realloc) to serve one reply exceed \
         the budget of {POLL_SERVE_BUDGET}"
    );
}
