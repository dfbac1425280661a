//! Failover-matrix integration suite: device-scoped failure modes in
//! `gpu-sim` crossed with live region migration on a one-node, two-device
//! `Cluster` and the serving runtime's evacuation path.
//!
//! The contract under test:
//!
//! * **transient / dead-lane × multi-device** — the existing fault matrix
//!   (previously exercised only on the single-device `TileAcc`) holds for
//!   cross-device ghost exchange inside one node: transients are retried to a
//!   golden result, a dead D2H lane is salvaged, a dead H2D lane surfaces
//!   a typed error — never a panic or silent corruption;
//! * **device death** — a device dying at *any* point of a checkpointed
//!   multi-device heat run is survived by migrating its regions onto the
//!   survivors and replaying from the latest snapshot, bit-identical to a
//!   failure-free run of the same driver, with the migration re-stage
//!   traffic accounted separately from organic loads;
//! * **serving** — an open-loop flood over a multi-device serving runtime
//!   loses zero admitted jobs to a mid-flood device death; every job ends
//!   golden or typed, never silent.
//!
//! `FAULT_SEED_OFFSET` displaces the seed window the property tests
//! explore, as in `fault_matrix.rs`.

use cluster::{Cluster, ClusterConfig, ClusterError};
use gpu_sim::{DeviceDeath, FaultPlan, TransferFaults};
use kernels::{heat, init};
use proptest::prelude::*;
use std::sync::Arc;
use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};
use tida_acc::ArrayId;

const N: i64 = 8;

fn seed_offset() -> u64 {
    std::env::var("FAULT_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn setup(field_seed: u64, regions: usize) -> (TileArray, TileArray) {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(N),
        RegionSpec::Count(regions),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    let ub = TileArray::new(decomp, 1, ExchangeMode::Faces, true);
    ua.fill_valid(init::hash_field(field_seed));
    (ua, ub)
}

/// One node with two devices under `plan`.
fn two_devices(plan: FaultPlan) -> Cluster {
    Cluster::new(ClusterConfig::new(1).devices_per_node(2).fault(plan))
}

fn heat_step(cl: &mut Cluster, dst: ArrayId, src: ArrayId) -> Result<(), ClusterError> {
    cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
        heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
    })
}

/// Checkpointed heat driver with device-loss failover: on
/// [`ClusterError::DeviceLost`] the run migrates the lost device's
/// regions onto the survivors, restores the latest snapshot, and replays.
/// Identical in structure to the run loop of the cluster's multi-device
/// unit tests, so the golden comparison runs through the same schedule.
fn heat_drive_failover(
    cl: &mut Cluster,
    a: ArrayId,
    b: ArrayId,
    steps: usize,
    ck_interval: usize,
) -> ArrayId {
    let mut ck = cl.checkpoint(0).unwrap();
    let mut step = 0usize;
    while step < steps {
        let (src, dst) = if step.is_multiple_of(2) {
            (a, b)
        } else {
            (b, a)
        };
        match heat_step(cl, dst, src) {
            Ok(()) => {}
            Err(ClusterError::DeviceLost { .. }) => {
                step = cl.failover(&ck).unwrap() as usize;
                continue;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        step += 1;
        if step.is_multiple_of(ck_interval) || step == steps {
            match cl.checkpoint(step as u64) {
                Ok(c) => ck = c,
                Err(ClusterError::DeviceLost { .. }) => {
                    step = cl.failover(&ck).unwrap() as usize;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
    if steps.is_multiple_of(2) {
        a
    } else {
        b
    }
}

fn dense_of(last: ArrayId, a: ArrayId, ua: &TileArray, ub: &TileArray) -> Vec<f64> {
    if last == a {
        ua.to_dense().unwrap()
    } else {
        ub.to_dense().unwrap()
    }
}

// ---------------------------------------------------------------------------
// (a) transient faults × cross-device ghost exchange
// ---------------------------------------------------------------------------

#[test]
fn multiacc_ghost_exchange_absorbs_transient_faults() {
    let transient = |rate: f64| TransferFaults {
        transient_rate: rate,
        ..TransferFaults::default()
    };
    let plan = FaultPlan {
        h2d: transient(0.3),
        d2h: transient(0.3),
        ..FaultPlan::none().with_seed(19 + seed_offset())
    };
    let (ua, ub) = setup(51, 4);
    let mut cl = two_devices(plan);
    let a = cl.register(&ua);
    let b = cl.register(&ub);
    // ck_interval 2 keeps regions resident across a step boundary so the
    // cross-device ghost/P2P path is actually exercised between snapshots.
    let last = heat_drive_failover(&mut cl, a, b, 4, 2);
    cl.finish();
    assert_eq!(
        dense_of(last, a, &ua, &ub),
        heat::golden_run(init::hash_field(51), N, 4, heat::DEFAULT_FAC),
        "retries must absorb transients across devices"
    );
    assert!(
        cl.bytes_p2p() > 0,
        "cross-device halos exercised the P2P path"
    );
    let fs = cl.node(0).fault_stats();
    assert!(fs.h2d_faults + fs.d2h_faults > 0, "plan injected nothing");
    assert!(cl.stats().transfer_retries > 0);
    assert_eq!(fs.device_deaths, 0, "transients must not kill a device");
    assert_eq!(cl.hazard_total(), 0);
}

// ---------------------------------------------------------------------------
// (b) dead lanes × multi-device
// ---------------------------------------------------------------------------

#[test]
fn multiacc_dead_d2h_lane_salvages_cross_device_state() {
    // The D2H lane dies after two successful downloads: dirty state sits on
    // both devices and must come home over the fault-exempt salvage path.
    let plan = FaultPlan {
        d2h: TransferFaults {
            fail_after: Some(2),
            ..TransferFaults::default()
        },
        ..FaultPlan::none().with_seed(7)
    };
    let (ua, ub) = setup(52, 4);
    let mut cl = two_devices(plan);
    let a = cl.register(&ua);
    let b = cl.register(&ub);
    let last = heat_drive_failover(&mut cl, a, b, 2, 2);
    cl.finish();
    assert_eq!(
        dense_of(last, a, &ua, &ub),
        heat::golden_run(init::hash_field(52), N, 2, heat::DEFAULT_FAC),
        "salvage must rescue the computed bytes"
    );
    let st = cl.stats();
    assert!(st.salvaged_regions > 0, "{st}");
    assert!(st.transfer_retries > 0, "retries precede giving up: {st}");
    assert!(cl.node(0).fault_stats().salvages > 0);
}

#[test]
fn multiacc_dead_h2d_lane_surfaces_typed_exhaustion() {
    // Uploads never succeed: the run must fail with a *typed* error after
    // the retry budget — never a panic, never silent corruption.
    let plan = FaultPlan {
        h2d: TransferFaults {
            fail_after: Some(0),
            ..TransferFaults::default()
        },
        ..FaultPlan::none().with_seed(7)
    };
    let (ua, ub) = setup(53, 4);
    let mut cl = two_devices(plan);
    let a = cl.register(&ua);
    let b = cl.register(&ub);
    let err = heat_step(&mut cl, b, a)
        .and_then(|()| cl.sync_to_host(b))
        .expect_err("a dead H2D lane cannot produce a result");
    assert!(
        matches!(err, ClusterError::TransferExhausted { .. }),
        "typed exhaustion, got {err:?}"
    );
    assert!(cl.stats().transfer_retries > 0);
    let _ = ub; // result array never materialized — the error came first
}

// ---------------------------------------------------------------------------
// (c) property: device death at any point is bit-identical after failover
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_device_death_fails_over_bit_identical(
        field_seed in 0u64..10_000,
        ordinal in 1u64..=10,
        ck_interval in 1usize..=2,
        steps in 2usize..=4,
    ) {
        let field_seed = field_seed + seed_offset();

        // Failure-free golden through the same checkpointed run loop.
        let (ua, ub) = setup(field_seed, 4);
        let mut cl = two_devices(FaultPlan::none());
        let a = cl.register(&ua);
        let b = cl.register(&ub);
        let last = heat_drive_failover(&mut cl, a, b, steps, ck_interval);
        cl.finish();
        let golden = dense_of(last, a, &ua, &ub);

        // Device 1 dies on its `ordinal`-th transfer — anywhere from the
        // first upload to deep inside the run.
        let (ua, ub) = setup(field_seed, 4);
        let plan = FaultPlan::none().with_device_death(DeviceDeath::at_transfer(1, ordinal));
        let mut cl = two_devices(plan);
        let a = cl.register(&ua);
        let b = cl.register(&ub);
        let last = heat_drive_failover(&mut cl, a, b, steps, ck_interval);
        cl.finish();
        prop_assert_eq!(
            dense_of(last, a, &ua, &ub),
            golden,
            "failover must be bit-identical (ordinal {}, ck {}, steps {})",
            ordinal, ck_interval, steps
        );

        let st = cl.stats();
        let fs = cl.node(0).fault_stats();
        prop_assert_eq!(cl.hazard_total(), 0);
        prop_assert_eq!(st.integrity_detected, 0, "no integrity findings");
        if fs.device_deaths > 0 {
            // The death fired: its regions moved to the survivor and the
            // re-stage traffic is accounted separately, one upload per
            // migrated region per registered array.
            prop_assert_eq!(cl.owner(2), 0);
            prop_assert_eq!(cl.owner(3), 0);
            prop_assert!(st.regions_migrated > 0);
            prop_assert_eq!(st.migration_restage_loads, st.regions_migrated * 2);
            prop_assert!(st.migration_restage_bytes > 0);
            prop_assert!(st.checkpoints_restored >= 1);
        } else {
            // The trigger ordinal was never reached — the run must look
            // exactly like a fault-free one.
            prop_assert_eq!(st.regions_migrated, 0);
            prop_assert_eq!(st.migration_restage_loads, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// (d) property: the serving runtime never loses a job to a device death
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_serving_device_death_never_loses_jobs(
        seed in 0u64..10_000,
        ordinal in 1u64..=20,
    ) {
        use serving::{JobSpec, ServingConfig, ServingRuntime};
        let seed = seed + seed_offset();
        let mut rt = ServingRuntime::new(ServingConfig {
            num_devices: 2,
            max_active: 4,
            fault_plan: FaultPlan::none()
                .with_seed(seed)
                .with_device_death(DeviceDeath::at_transfer(1, ordinal)),
            ..ServingConfig::default()
        });
        let specs: Vec<JobSpec> = (0..12u64)
            .map(|i| JobSpec::new((i % 4) as u32, 2, 48, 3, seed ^ (i << 8)))
            .collect();
        let mut ids = Vec::new();
        for s in &specs {
            ids.push(rt.submit(s.clone()).unwrap());
        }
        rt.run_until_idle();
        prop_assert_eq!(rt.results().len(), specs.len(), "no admitted job vanished");
        for (id, spec) in ids.iter().zip(&specs) {
            let r = rt.results().iter().find(|r| r.job == *id).unwrap();
            // A surviving device exists, so evacuation + reschedule must
            // land every job golden — the loss never consumes the job's
            // retry budget, so the budget cannot run out either.
            prop_assert_eq!(
                r.outcome.clone(),
                Ok(spec.golden_digest()),
                "job {} (death ordinal {})",
                id, ordinal
            );
        }
        prop_assert_eq!(rt.cross_tenant_touches(), 0);
        prop_assert_eq!(rt.hazard_counters().total(), 0);
    }
}
