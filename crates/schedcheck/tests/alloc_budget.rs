//! Allocation budget of one explored schedule. Every schedule the explorer
//! runs rebuilds a two-node `Cluster` and replays it from time zero, so the
//! per-schedule heap traffic is a constant cost the whole verdict pays
//! thousands of times. A counting global allocator pins it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use schedcheck::programs;
use schedcheck::{CheckSpec, Checker, Fallback, Strategy};

/// Counts the allocations and reallocations each thread makes through the
/// global allocator, so work on other threads (the test harness) does not
/// enter the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Schedules the bounded DFS explores; a prefix of the 24310-schedule
/// exhaustive walk, so it stays cheap in a debug build.
const SCHEDULES: u64 = 200;

/// Ceiling on heap allocations (including reallocations) per explored
/// schedule of `cluster_ghost`: 224 measured, the same in release and
/// debug builds, plus 9% headroom.
const MAX_ALLOCS_PER_SCHEDULE: u64 = 245;

#[test]
fn cluster_ghost_schedules_stay_within_allocation_budget() {
    let checker = Checker::new(programs::cluster_ghost(), CheckSpec::default());
    // Warm-up: interned labels and other lazily built tables are filled
    // once per process, not once per schedule.
    let warm = checker.run(&[], Fallback::Fifo);
    assert_eq!(warm.hazards, 0);

    let before = allocs();
    let report = checker.explore(Strategy::Exhaustive {
        max_schedules: SCHEDULES,
    });
    let made = allocs() - before;
    assert!(report.failure.is_none());
    assert_eq!(report.schedules, SCHEDULES);

    let per_schedule = made / report.schedules;
    println!("{per_schedule} allocations per schedule ({made} over {SCHEDULES})");
    assert!(
        per_schedule <= MAX_ALLOCS_PER_SCHEDULE,
        "{per_schedule} allocations per explored schedule exceed the budget of \
         {MAX_ALLOCS_PER_SCHEDULE}"
    );
}
