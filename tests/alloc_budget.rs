//! Allocation budget for the per-message path.
//!
//! A 64-site site-step is four NTCP messages (propose and execute, each a
//! request and a reply) through the event engine, the OGSI container and
//! RPC mux, the JSON codec and the NTCP state machine. This test counts the
//! heap allocations and reallocations one `n_site(64, 1)` run of 100 steps
//! makes, per site-step, and fails if the count grows past the budget: a
//! `Value` tree put back on the decode path, or a per-message copy added,
//! shows up here before it shows up as lost throughput.
//!
//! Counting is per thread (a `const` thread-local), so other tests running
//! in parallel in this binary would not disturb it; the file still keeps a
//! single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use neesgrid::most::n_site;

/// Allocations plus reallocations per site-step. Measured at 129.1
/// (105.1 alloc + 24.0 realloc) once decoding stopped building `Value`
/// trees, down from 211.1 (168.1 + 43.0); the budget rounds that up to the
/// next 5. Then 125.2 (101.2 + 24.0): the NTCP batch calls borrow each
/// site's client instead of cloning it (two `String`s) per phase. Now 121.2
/// (101.2 + 20.0): `Bytes` takes each message's `Vec` as it is, without
/// shrinking it first, so the budget drops to 126, keeping the margin.
const BUDGET_PER_SITE_STEP: f64 = 126.0;

const SITES: usize = 64;
const STEPS: usize = 100;

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

#[test]
fn n_site_step_stays_inside_its_allocation_budget() {
    let experiment = n_site(SITES, 1);
    COUNTING.with(|c| c.set(true));
    let outcome = experiment.run(STEPS);
    COUNTING.with(|c| c.set(false));
    assert_eq!(
        outcome.steps_completed(),
        STEPS,
        "{:?}",
        outcome.termination
    );

    let site_steps = (SITES * STEPS) as f64;
    let allocs = ALLOCS.with(Cell::get) as f64 / site_steps;
    let reallocs = REALLOCS.with(Cell::get) as f64 / site_steps;
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
