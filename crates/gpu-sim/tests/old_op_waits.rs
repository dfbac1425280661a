//! Waits on long-executed ops. The scheduler recycles an op's pending
//! state once it has run, and the hazard tracker keeps clock rows packed
//! in chunks; neither may lose a happens-before edge. A stream
//! created late that waits on an op thousands of ops old must see it
//! ordered, and the same program without the wait must still report its
//! exact hazard.

use gpu_sim::{GpuSystem, HazardCounters, HostMemKind, KernelCost, KernelLaunch, MachineConfig};
use gpu_sim::{HazardKind, SimTime};

/// How the late stream is ordered after the early upload.
#[derive(Clone, Copy)]
enum Wait {
    Op,
    Event,
    Nothing,
}

/// Ops issued between the upload and the late read.
const FILLER: usize = 3000;

fn run(wait: Wait) -> (HazardCounters, Vec<HazardKind>) {
    let len = 256;
    let mut g = GpuSystem::with_backing(MachineConfig::k40m(), false);
    g.set_deep_hazard_tracking(true);
    let host = g.malloc_host(len, HostMemKind::Pinned);
    let x = g.malloc_device(len).unwrap();
    let y = g.malloc_device(len).unwrap();
    let a = g.create_stream();
    let b = g.create_stream();

    // The upload of `x`, its event, and a probe that executes it now.
    let upload = g.memcpy_h2d_async(x, 0, host, 0, len, a);
    let ev = g.record_event(a);
    g.op_completion(upload);

    // Thousands of unrelated kernels on another stream, synced now and
    // then so that they execute and their pending state is recycled.
    for i in 0..FILLER {
        g.launch_kernel(
            b,
            KernelLaunch::new("filler", KernelCost::Fixed(SimTime::from_us(1))).writes(y.into()),
        );
        if i % 500 == 499 {
            g.stream_synchronize(b);
        }
    }
    assert!(g.ops_executed() as usize > FILLER / 2);

    // A stream created now reads `x`.
    let late = g.create_stream();
    match wait {
        Wait::Op => g.stream_wait_op(late, upload),
        Wait::Event => g.stream_wait_event(late, ev),
        Wait::Nothing => {}
    }
    g.launch_kernel(
        late,
        KernelLaunch::new("late-read", KernelCost::Fixed(SimTime::from_us(1))).reads(x.into()),
    );
    g.device_synchronize();
    let kinds = g.hazard_records().iter().map(|r| r.kind).collect();
    (g.hazard_counters(), kinds)
}

#[test]
fn waiting_on_a_long_executed_op_orders_a_late_stream() {
    let (counters, kinds) = run(Wait::Op);
    assert_eq!(counters.total(), 0, "{kinds:?}");
}

#[test]
fn waiting_on_a_long_executed_event_orders_a_late_stream() {
    let (counters, kinds) = run(Wait::Event);
    assert_eq!(counters.total(), 0, "{kinds:?}");
}

#[test]
fn without_the_wait_the_late_read_is_use_before_transfer() {
    let (counters, kinds) = run(Wait::Nothing);
    assert_eq!(counters.total(), 1);
    assert_eq!(counters.use_before_transfer, 1);
    assert_eq!(kinds, vec![HazardKind::UseBeforeTransfer]);
}
