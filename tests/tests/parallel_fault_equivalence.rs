//! `desim::ParallelDriver` under fault plans: running a batch of *faulted*
//! simulations through the driver must be outcome-identical regardless of
//! the worker-thread count.
//!
//! The fault layer is seeded and deterministic per run, and every
//! simulation owns its platform, so nothing about placement — which OS
//! thread runs which job, in what order jobs finish — may leak into
//! results. The suite fingerprints each job (result digest, simulated
//! time, accelerator statistics, fault counters, hazard counters, slot
//! pool, device health) and demands bit-identical fingerprint vectors
//! from 1-, 2- and 4-thread drivers, and from a plain serial loop.

use desim::ParallelDriver;
use gpu_sim::{
    CorruptionFault, DegradeWindow, FaultPlan, GpuSystem, MachineConfig, SimTime, StreamStall,
    TransferFaults,
};
use kernels::{heat, init};
use memslab::fnv1a64_f64s;
use serving::{JobSpec, ServingConfig, ServingRuntime};
use std::sync::Arc;
use tida::{tiles_of, Decomposition, Domain, ExchangeMode, RegionSpec, TileArray, TileSpec};
use tida_acc::{AccOptions, ArrayId, TileAcc};

const N: i64 = 8;
const STEPS: usize = 3;

fn drive_heat(
    acc: &mut TileAcc,
    decomp: &Arc<Decomposition>,
    mut src: ArrayId,
    mut dst: ArrayId,
    steps: usize,
) -> ArrayId {
    let tiles = tiles_of(decomp, TileSpec::RegionSized);
    for _ in 0..steps {
        acc.fill_boundary(src).unwrap();
        for &t in &tiles {
            acc.compute2(
                t,
                dst,
                src,
                heat::cost(t.num_cells()),
                "heat",
                |d, s, bx| heat::step_tile(d, s, &bx, heat::DEFAULT_FAC),
            )
            .unwrap();
        }
        std::mem::swap(&mut src, &mut dst);
    }
    acc.sync_to_host(src).unwrap();
    src
}

/// Run one faulted heat simulation end to end and reduce everything it
/// produced to a comparable string: result digest, elapsed virtual time,
/// accelerator stats, injected-fault counters, hazard counters, the slot
/// pool size and whether the device was declared failed.
fn heat_fingerprint(plan: FaultPlan) -> String {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(N),
        RegionSpec::Grid([2, 2, 1]),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    ua.fill_valid(init::hash_field(7));
    let gpu = GpuSystem::new(MachineConfig::k40m().with_faults(plan));
    let mut acc = TileAcc::new(gpu, AccOptions::default());
    let a = acc.register(&ua);
    let b = acc.register(&ub);
    let last = drive_heat(&mut acc, &decomp, a, b, STEPS);
    let elapsed = acc.finish();
    let result = if last == a { &ua } else { &ub }
        .to_dense()
        .expect("backed run");
    format!(
        "digest={:016x} elapsed={:?} stats={:?} faults={:?} hazards={:?} slots={} dead={}",
        fnv1a64_f64s(&result),
        elapsed,
        acc.stats(),
        acc.gpu().fault_stats(),
        acc.gpu().hazard_counters(),
        acc.num_slots(),
        acc.device_failed(),
    )
}

/// The fault plans the batch exercises — one per major fault class, so the
/// equivalence claim covers retry paths, salvage, scheduling perturbation
/// and silent-corruption repair, not just the clean fast path.
fn heat_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none(),
        FaultPlan::none().with_seed(11).with_transient(0.15),
        FaultPlan {
            seed: 12,
            d2h: TransferFaults {
                fail_after: Some(4),
                ..TransferFaults::default()
            },
            ..FaultPlan::none()
        },
        FaultPlan {
            seed: 13,
            stalls: vec![StreamStall {
                stream: 0,
                every: 3,
                stall: SimTime::from_us(40),
            }],
            degrade: vec![DegradeWindow {
                from: SimTime::ZERO,
                until: SimTime::from_ms(2),
                factor: 3.0,
            }],
            ..FaultPlan::none()
        },
        FaultPlan::none()
            .with_seed(14)
            .with_corruption(CorruptionFault {
                h2d_rate: 0.2,
                ..CorruptionFault::default()
            }),
    ]
}

#[test]
fn faulted_heat_batches_are_outcome_identical_across_thread_counts() {
    // Serial reference: no driver involved at all.
    let reference: Vec<String> = heat_plans().into_iter().map(heat_fingerprint).collect();
    for threads in [1usize, 2, 4] {
        let jobs: Vec<_> = heat_plans()
            .into_iter()
            .map(|plan| move || heat_fingerprint(plan))
            .collect();
        let got = ParallelDriver::new(threads).run(jobs);
        assert_eq!(
            got, reference,
            "a {threads}-thread driver must reproduce the serial outcomes"
        );
    }
}

/// Same claim for the multi-node runtime: whole cluster simulations —
/// network model, link faults, node deaths and failover included — reduce
/// to a fingerprint (result digest, virtual time, accelerator stats, wire
/// counters, recovery count) that must be bit-identical whatever thread
/// count the driver uses.
fn cluster_fingerprint(nodes: usize, plan: FaultPlan) -> String {
    use cluster::{Cluster, ClusterConfig, ClusterError};

    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(N),
        RegionSpec::Count(4),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    ua.fill_valid(init::hash_field(7));
    let mut cl = Cluster::new(ClusterConfig::new(nodes).fault(plan));
    let ids = [cl.register(&ua), cl.register(&ub)];
    let ck = cl.checkpoint(0).expect("pristine checkpoint");
    let mut s = 0u64;
    let mut recoveries = 0u64;
    while s < STEPS as u64 {
        let (src, dst) = (ids[(s % 2) as usize], ids[((s + 1) % 2) as usize]);
        match cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
            heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
        }) {
            Ok(()) => s += 1,
            Err(ClusterError::NodeLost { .. }) | Err(ClusterError::Crashed { .. }) => {
                recoveries += 1;
                assert!(recoveries <= 8, "failover livelock");
                s = cl.failover(&ck).expect("survivors remain");
            }
            Err(e) => panic!("unexpected cluster error: {e}"),
        }
    }
    cl.sync_to_host(ids[(s % 2) as usize]).unwrap();
    let elapsed = cl.finish();
    let result = if s.is_multiple_of(2) { &ua } else { &ub }
        .to_dense()
        .expect("backed run");
    format!(
        "digest={:016x} elapsed={:?} stats={:?} net={:?} recoveries={}",
        fnv1a64_f64s(&result),
        elapsed,
        cl.stats(),
        cl.net_stats(),
        recoveries,
    )
}

/// One cluster job per fault class: clean fabric on one and three nodes,
/// lossy and reordering links, and a mid-run node death with failover.
fn cluster_plans() -> Vec<(usize, FaultPlan)> {
    use cluster::LinkFault;
    vec![
        (1, FaultPlan::none()),
        (3, FaultPlan::none()),
        (
            2,
            FaultPlan::none()
                .with_seed(31)
                .with_link_fault(LinkFault::on("*").drops(0.4)),
        ),
        (
            2,
            FaultPlan::none()
                .with_seed(32)
                .with_link_fault(LinkFault::on("*").reorders(0.4, SimTime::from_us(25))),
        ),
        (
            2,
            FaultPlan::none()
                .with_seed(33)
                .with_device_death(gpu_sim::DeviceDeath::at_transfer(1, 2)),
        ),
    ]
}

#[test]
fn faulted_cluster_batches_are_outcome_identical_across_thread_counts() {
    let reference: Vec<String> = cluster_plans()
        .into_iter()
        .map(|(nodes, plan)| cluster_fingerprint(nodes, plan))
        .collect();
    for threads in [1usize, 2, 4] {
        let jobs: Vec<_> = cluster_plans()
            .into_iter()
            .map(|(nodes, plan)| move || cluster_fingerprint(nodes, plan))
            .collect();
        let got = ParallelDriver::new(threads).run(jobs);
        assert_eq!(
            got, reference,
            "a {threads}-thread driver must reproduce the serial cluster outcomes"
        );
    }
}

/// Same claim one layer up: whole multi-tenant serving runtimes — each
/// with its own fault plan, including tenant-scoped ones — run through the
/// driver and must be placement-independent too.
fn serving_fingerprint(seed: u64, plan: FaultPlan) -> String {
    let mut rt = ServingRuntime::new(ServingConfig {
        max_active: 2,
        fault_plan: plan,
        ..ServingConfig::default()
    });
    for i in 0..6u64 {
        rt.submit(JobSpec::new((i % 3) as u32, 2, 48, 3, seed + i))
            .unwrap();
    }
    rt.run_until_idle();
    format!(
        "results={:?} cross={} hazards={} crashes={} faults={}",
        rt.results(),
        rt.cross_tenant_touches(),
        rt.hazard_counters().total(),
        rt.crashes_survived(),
        rt.total_fault_events(),
    )
}

#[test]
fn faulted_serving_runtimes_are_outcome_identical_across_thread_counts() {
    let plans = || {
        vec![
            (100u64, FaultPlan::none()),
            (200, FaultPlan::none().with_seed(21).with_transient(0.2)),
            (
                300,
                FaultPlan::none()
                    .with_seed(22)
                    .with_transient(0.3)
                    .scoped_to(1),
            ),
            (
                400,
                FaultPlan::none().with_crash(gpu_sim::CrashFault::at_transfer(5)),
            ),
        ]
    };
    let reference: Vec<String> = plans()
        .into_iter()
        .map(|(seed, plan)| serving_fingerprint(seed, plan))
        .collect();
    for threads in [1usize, 2, 4] {
        let jobs: Vec<_> = plans()
            .into_iter()
            .map(|(seed, plan)| move || serving_fingerprint(seed, plan))
            .collect();
        let got = ParallelDriver::new(threads).run(jobs);
        assert_eq!(
            got, reference,
            "a {threads}-thread driver must reproduce the serial serving outcomes"
        );
    }
}
