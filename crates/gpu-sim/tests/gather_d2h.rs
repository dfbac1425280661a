//! The gathered device→host copy (`memcpy_d2h_gather_async`): what it
//! moves, how it is priced and counted, and how the integrity layer treats
//! it.

use std::sync::Arc;

use gpu_sim::{
    CorruptionFault, DeviceBuffer, FaultPlan, GpuSystem, HostBuffer, HostMemKind, KernelCost,
    MachineConfig, StreamId,
};

const LEN: usize = 64;

/// Two runs out of a 64-cell slab: 8 + 14 = 22 cells.
fn runs() -> Arc<[(usize, usize)]> {
    vec![(3, 8), (40, 14)].into()
}

fn in_runs(i: usize) -> bool {
    runs()
        .iter()
        .any(|&(off, len)| (off..off + len).contains(&i))
}

/// A backed platform with a device buffer holding `100 + i` and a pinned
/// host buffer holding `-1`.
fn setup(plan: FaultPlan) -> (GpuSystem, HostBuffer, DeviceBuffer, StreamId) {
    let mut g = GpuSystem::new(MachineConfig::k40m());
    g.set_fault_plan(plan);
    g.set_tracing(true);
    let h = g.malloc_host(LEN, HostMemKind::Pinned);
    let d = g.malloc_device(LEN).unwrap();
    g.device_slab(d).fill_with(|i| 100.0 + i as f64);
    g.host_slab(h).fill(-1.0);
    let s = g.create_stream();
    (g, h, d, s)
}

#[test]
fn moves_exactly_the_runs_and_counts_their_bytes() {
    let (mut g, h, d, s) = setup(FaultPlan::none());
    let op = g.memcpy_d2h_gather_async(h, d, runs(), s);
    assert!(!g.op_faulted(op));
    g.sync_op(op);
    let host = g.host_slab(h).snapshot().unwrap();
    for (i, &v) in host.iter().enumerate() {
        let want = if in_runs(i) { 100.0 + i as f64 } else { -1.0 };
        assert_eq!(v, want, "cell {i}");
    }
    g.finish();
    let bytes = 22 * 8;
    assert_eq!(g.stats_bytes_d2h(), bytes);
    assert_eq!(g.stats_kernels(), 0, "the pack belongs to the transfer");
    // The trace payload is the byte counter, so trace-side accounting
    // stays exact.
    let d2h: Vec<_> = g
        .trace()
        .spans
        .into_iter()
        .filter(|sp| sp.category == "d2h")
        .collect();
    assert_eq!(d2h.len(), 1);
    assert_eq!(d2h[0].label, format!("D2H[{bytes}B]"));
    assert_eq!(g.integrity_stats().verified, 1);
}

#[test]
fn priced_as_pack_then_copy_then_unpack_in_stream_order() {
    let (mut g, h, d, s) = setup(FaultPlan::none());
    g.memcpy_d2h_gather_async(h, d, runs(), s);
    g.finish();
    let cfg = g.config().clone();
    let bytes = 22 * 8;
    let trace = g.trace();
    let span = |label: &str| {
        trace
            .spans
            .iter()
            .find(|sp| sp.label == label)
            .unwrap_or_else(|| panic!("no {label} span"))
    };
    let pack = span("d2h-pack");
    let copy = span(&format!("D2H[{bytes}B]"));
    let unpack = span("d2h-unpack");
    assert_eq!(pack.category, "kernel");
    assert_eq!(unpack.category, "hostfn");
    assert_eq!(
        cfg.d2h_gather_times(bytes),
        [
            KernelCost::Bytes(2 * bytes).duration(&cfg, 1.0),
            cfg.d2h_time(bytes),
            cfg.host_copy_time(bytes),
        ]
    );
    assert_eq!(pack.end - pack.start, cfg.d2h_gather_times(bytes)[0]);
    assert_eq!(copy.end - copy.start, cfg.d2h_time(bytes));
    assert_eq!(unpack.end - unpack.start, cfg.host_copy_time(bytes));
    assert!(pack.end <= copy.start && copy.end <= unpack.start);
}

#[test]
fn a_faulted_copy_moves_nothing_and_skips_the_unpack() {
    let (mut g, h, d, s) = setup(FaultPlan::none().with_seed(3).with_transient(1.0));
    let op = g.memcpy_d2h_gather_async(h, d, runs(), s);
    assert!(g.op_faulted(op), "the returned op carries the verdict");
    g.finish();
    assert_eq!(g.host_slab(h).snapshot().unwrap(), vec![-1.0; LEN]);
    assert_eq!(g.stats_bytes_d2h(), 0);
    assert!(g.trace().spans.iter().all(|sp| sp.label != "d2h-unpack"));
}

#[test]
fn in_flight_corruption_on_a_run_is_retransmitted_or_detected() {
    let (mut repaired, mut poisoned) = (0, 0);
    for seed in 0..32 {
        let corruption = CorruptionFault {
            d2h_rate: 0.6,
            max_retransmits: 1,
            ..CorruptionFault::default()
        };
        let (mut g, h, d, s) = setup(
            FaultPlan::none()
                .with_seed(seed)
                .with_corruption(corruption),
        );
        let op = g.memcpy_d2h_gather_async(h, d, runs(), s);
        g.sync_op(op);
        g.finish();
        let st = g.integrity_stats();
        let host = g.host_slab(h).snapshot().unwrap();
        for (i, &v) in host.iter().enumerate().filter(|&(i, _)| !in_runs(i)) {
            assert_eq!(v, -1.0, "seed {seed}: cell {i} outside the runs");
        }
        let landed = (0..LEN)
            .filter(|&i| in_runs(i))
            .all(|i| host[i] == 100.0 + i as f64);
        if g.host_poisoned(h) {
            assert!(st.detected > 0 && st.unrepaired == 1, "seed {seed}");
            assert!(!landed, "seed {seed}: a poisoned landing holds a flip");
            poisoned += 1;
        } else {
            assert!(landed, "seed {seed}: clean landing must match");
            if st.detected > 0 {
                assert_eq!(st.repaired, 1, "seed {seed}");
                repaired += 1;
            }
        }
    }
    assert!(repaired > 0 && poisoned > 0, "{repaired} / {poisoned}");
}

#[test]
fn a_partial_write_never_clears_host_poison() {
    let corruption = CorruptionFault {
        d2h_rate: 1.0,
        max_retransmits: 0,
        ..CorruptionFault::default()
    };
    let (mut g, h, d, s) = setup(FaultPlan::none().with_corruption(corruption));
    g.memcpy_d2h(h, 0, d, 0, LEN, s);
    assert!(g.host_poisoned(h), "a certain corruption poisons");
    g.set_fault_plan(FaultPlan::none());
    let op = g.memcpy_d2h_gather_async(h, d, runs(), s);
    g.sync_op(op);
    assert!(g.host_poisoned(h), "a gathered write covers only its runs");
    // Runs covering every cell are a full overwrite.
    let op = g.memcpy_d2h_gather_async(h, d, vec![(0, 10), (10, LEN - 10)].into(), s);
    g.sync_op(op);
    assert!(
        !g.host_poisoned(h),
        "a clean write of every cell restores it"
    );
}

#[test]
#[should_panic(expected = "sorted, disjoint")]
fn overlapping_runs_are_refused() {
    let (mut g, h, d, s) = setup(FaultPlan::none());
    g.memcpy_d2h_gather_async(h, d, vec![(0, 10), (5, 2)].into(), s);
}

#[test]
fn a_pageable_destination_blocks_the_host_through_the_unpack() {
    let mut g = GpuSystem::new(MachineConfig::k40m());
    let h = g.malloc_host(LEN, HostMemKind::Pageable);
    let d = g.malloc_device(LEN).unwrap();
    let s = g.create_stream();
    g.memcpy_d2h_gather_async(h, d, runs(), s);
    let serial: gpu_sim::SimTime = g.config().d2h_gather_times(22 * 8).into_iter().sum();
    assert!(g.host_now() >= serial, "{} < {serial}", g.host_now());
}
