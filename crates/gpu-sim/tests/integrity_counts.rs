//! Pins the integrity layer's counters on fixed backed programs.
//!
//! Digest memoisation (a verification of an unwritten slab is a stamp
//! compare, not a rehash) must not change *what* is verified, detected or
//! repaired: every pre-check still counts, and every injected strike is
//! still caught. The expected numbers are those of the rehash-everything
//! implementation on the same programs.

use gpu_sim::{
    CorruptionFault, FaultPlan, GpuSystem, HostMemKind, IntegrityStats, KernelCost, KernelLaunch,
    MachineConfig, SimTime,
};

const LEN: usize = 1 << 10;
const GHOST: usize = 32;

/// A small out-of-core step loop: full loads, ghost-patch partial loads,
/// kernels that read one buffer and write another (one of them leaving its
/// output unchanged), a device-to-device copy and write-backs, repeated
/// over several steps so verifications hit slabs both written and untouched
/// since their last digest.
fn run(plan: FaultPlan) -> (IntegrityStats, u64) {
    let mut g = GpuSystem::with_backing(MachineConfig::k40m(), true);
    g.set_fault_plan(plan);
    let host: Vec<_> = (0..3)
        .map(|_| g.malloc_host(LEN, HostMemKind::Pinned))
        .collect();
    for (i, &h) in host.iter().enumerate() {
        g.host_slab(h)
            .fill_with(|j| ((i * LEN + j) % 97) as f64 * 0.5);
    }
    let dev: Vec<_> = (0..3).map(|_| g.malloc_device(LEN).unwrap()).collect();
    let s0 = g.create_stream();
    let s1 = g.create_stream();

    for (&d, &h) in dev.iter().zip(&host) {
        g.memcpy_h2d_async(d, 0, h, 0, LEN, s0);
    }
    for step in 0..4 {
        let (src, dst) = if step % 2 == 0 {
            (dev[0], dev[1])
        } else {
            (dev[1], dev[0])
        };
        // Ghost patch: the edge of host[2] lands in the source's halo.
        g.memcpy_h2d_async(src, 0, host[2], LEN - GHOST, GHOST, s0);
        let (ss, ds) = (g.device_slab(src), g.device_slab(dst));
        g.launch_kernel(
            s0,
            KernelLaunch::new("step", KernelCost::Fixed(SimTime::from_us(20)))
                .reads(src.into())
                .writes(dst.into())
                .exec(move || memslab::copy(&ds, 1, &ss, 0, LEN - 1)),
        );
        // A kernel that declares a write but leaves the bytes as they are.
        g.launch_kernel(
            s0,
            KernelLaunch::new("noop", KernelCost::Fixed(SimTime::from_us(5)))
                .reads(dev[2].into())
                .writes(dev[2].into()),
        );
        g.memcpy_d2d_async(dev[2], 0, dst, 0, GHOST, s0);
        let ev = g.record_event(s0);
        g.stream_wait_event(s1, ev);
        g.memcpy_d2h_async(host[step % 2], 0, dst, 0, LEN, s1);
        g.memcpy_d2h_async(host[2], 0, dev[2], 0, LEN, s1);
        g.stream_synchronize(s1);
    }
    g.finish();
    let data = host
        .iter()
        .map(|&h| g.host_slab(h).with(|d| memslab::fnv1a64_f64s(d.unwrap())))
        .fold(0u64, |acc, d| acc.rotate_left(17) ^ d);
    (g.integrity_stats(), data)
}

#[test]
fn clean_program_verification_count_is_pinned() {
    let (stats, data) = run(FaultPlan::none());
    assert_eq!(
        stats,
        IntegrityStats {
            verified: 55,
            detected: 0,
            repaired: 0,
            unrepaired: 0,
        }
    );
    assert_eq!(data, 5970527475669426552, "final host contents");
}

#[test]
fn struck_program_counts_are_pinned() {
    let plan = FaultPlan::none()
        .with_seed(11)
        .with_corruption(CorruptionFault {
            h2d_rate: 0.2,
            d2h_rate: 0.2,
            strike_after_h2d: vec![1, 5],
            strike_after_kernel: vec![2],
            ..CorruptionFault::default()
        });
    let (stats, data) = run(plan);
    assert_eq!(
        stats,
        IntegrityStats {
            verified: 39,
            detected: 5,
            repaired: 3,
            unrepaired: 1,
        }
    );
    assert_eq!(data, 5566572162627008506, "final host contents");
}
