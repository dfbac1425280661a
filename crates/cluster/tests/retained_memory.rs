//! Retained heap per executed op. The simulator frees an op's pending
//! state once it has run and keeps only a fixed record per op, so a
//! long-running cluster's heap grows by a few dozen bytes per op — not by
//! the op's whole submission state. A counting global allocator tracks
//! the live heap between two late steps of a timing-only multi-node heat
//! run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, NetConfig};
use kernels::heat;
use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};

/// Tracks the bytes each thread has live through the global allocator,
/// so work on other threads (the test harness) does not enter the count.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Ceiling on live heap growth per executed op: a 32-byte scheduler
/// record plus one `u32` hazard-clock row (five components here) is 52
/// bytes. Keeping every op's whole submission state until the system was
/// dropped measured 428 here.
const MAX_BYTES_PER_OP: f64 = 64.0;

/// Strong-scaling heat as the cluster benchmark runs it, timing only:
/// 64³, 32 regions on 16 nodes over a 1 GB/s fabric, 1000 steps. The
/// window is long so that page-sized allocation steps average out.
#[test]
fn cluster_heat_retains_at_most_a_record_and_a_clock_row_per_op() {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(64),
        RegionSpec::Count(32),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, false);
    let ub = TileArray::new(decomp, 1, ExchangeMode::Faces, false);
    let mut cl = Cluster::new(
        ClusterConfig::new(16)
            .net(NetConfig::default().constrained(1_000))
            .backed(false),
    );
    let (mut src, mut dst) = (cl.register(&ua), cl.register(&ub));
    let ops =
        |cl: &Cluster| -> u64 { (0..cl.num_nodes()).map(|n| cl.node(n).ops_executed()).sum() };
    let mut sample = (0, 0);
    for step in 1..=1000 {
        cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
            heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
        })
        .unwrap();
        std::mem::swap(&mut src, &mut dst);
        if step == 200 {
            sample = (live(), ops(&cl));
        }
    }
    let grown = live() - sample.0;
    let executed = ops(&cl) - sample.1;
    assert!(
        executed > 200_000,
        "{executed} ops executed between the samples"
    );
    let per_op = grown as f64 / executed as f64;
    println!("{per_op:.1} live heap bytes per executed op ({grown} B over {executed} ops)");
    assert!(
        per_op <= MAX_BYTES_PER_OP,
        "live heap grew {per_op:.1} B per executed op, over the {MAX_BYTES_PER_OP} B ceiling"
    );
}
