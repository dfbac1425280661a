//! One node with several GPUs: the cluster runtime as a multi-GPU
//! runtime. Regions go to the node's devices in contiguous blocks, faces
//! between two devices travel pack → peer copy → unpack, and a dead
//! device's regions fail over onto the surviving devices.

#[cfg(test)]
mod tests {
    use crate::{Cluster, ClusterConfig, ClusterError};
    use gpu_sim::{DeviceDeath, FaultPlan, LinkFlap, SimTime};
    use kernels::{busy, heat, init};
    use std::sync::Arc;
    use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};
    use tida_acc::{ArrayId, HealthState};

    /// A one-node cluster of `devices` K40m devices under `plan`.
    fn node(devices: usize, plan: FaultPlan) -> Cluster {
        Cluster::new(ClusterConfig::new(1).devices_per_node(devices).fault(plan))
    }

    fn heat_arrays(n: i64, regions: usize, seed: u64) -> (TileArray, TileArray) {
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(regions),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp, 1, ExchangeMode::Faces, true);
        ua.fill_valid(init::hash_field(seed));
        (ua, ub)
    }

    fn heat_step(cl: &mut Cluster, dst: ArrayId, src: ArrayId) -> Result<(), ClusterError> {
        cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
            heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
        })
    }

    fn heat_drive(cl: &mut Cluster, mut src: ArrayId, mut dst: ArrayId, steps: usize) -> ArrayId {
        for _ in 0..steps {
            heat_step(cl, dst, src).unwrap();
            std::mem::swap(&mut src, &mut dst);
        }
        cl.sync_to_host(src).unwrap();
        src
    }

    fn dense_of(last: ArrayId, a: ArrayId, ua: &TileArray, ub: &TileArray) -> Vec<f64> {
        if last == a { ua } else { ub }.to_dense().unwrap()
    }

    #[test]
    fn heat_across_two_devices_matches_golden() {
        let (n, steps) = (8i64, 4);
        let (ua, ub) = heat_arrays(n, 4, 31);
        let mut cl = node(2, FaultPlan::none());
        let (a, b) = (cl.register(&ua), cl.register(&ub));
        let last = heat_drive(&mut cl, a, b, steps);
        cl.finish();

        // Regions 0-1 on device 0, regions 2-3 on device 1.
        assert_eq!(cl.owner(0), 0);
        assert_eq!(cl.owner(3), 1);
        assert!(cl.bytes_p2p() > 0, "cross-device halos used P2P");

        let golden = heat::golden_run(init::hash_field(31), n, steps, heat::DEFAULT_FAC);
        assert_eq!(dense_of(last, a, &ua, &ub), golden);
    }

    #[test]
    fn heat_across_four_devices_matches_golden() {
        let (n, steps) = (8i64, 3);
        let (ua, ub) = heat_arrays(n, 8, 32);
        let mut cl = node(4, FaultPlan::none());
        let (a, b) = (cl.register(&ua), cl.register(&ub));
        let last = heat_drive(&mut cl, a, b, steps);
        cl.finish();
        let golden = heat::golden_run(init::hash_field(32), n, steps, heat::DEFAULT_FAC);
        assert_eq!(dense_of(last, a, &ua, &ub), golden);
    }

    #[test]
    fn single_device_multiacc_equals_golden_too() {
        let n = 8i64;
        let (ua, ub) = heat_arrays(n, 4, 33);
        let mut cl = node(1, FaultPlan::none());
        let (a, b) = (cl.register(&ua), cl.register(&ub));
        let last = heat_drive(&mut cl, a, b, 3);
        cl.finish();
        assert_eq!(cl.bytes_p2p(), 0, "one device, no peer traffic");
        let golden = heat::golden_run(init::hash_field(33), n, 3, heat::DEFAULT_FAC);
        assert_eq!(dense_of(last, a, &ua, &ub), golden);
    }

    #[test]
    fn compute_bound_work_scales_with_devices() {
        let run = |devices: usize| {
            let decomp = Arc::new(Decomposition::new(
                Domain::periodic_cube(64),
                RegionSpec::Count(8),
            ));
            let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, false);
            let v = TileArray::new(decomp, 0, ExchangeMode::Faces, false);
            let mut cl = Cluster::new(
                ClusterConfig::new(1)
                    .devices_per_node(devices)
                    .backed(false),
            );
            let (mut src, mut dst) = (cl.register(&u), cl.register(&v));
            let cost = |cells| {
                busy::cost(
                    cells,
                    busy::DEFAULT_KERNEL_ITERATION,
                    busy::MathImpl::PgiLibm,
                )
            };
            for _ in 0..4 {
                cl.step(dst, src, None, cost, "busy", |_, _, _, _| {})
                    .unwrap();
                std::mem::swap(&mut src, &mut dst);
            }
            cl.sync_to_host(src).unwrap();
            cl.finish()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        let s2 = one.as_secs_f64() / two.as_secs_f64();
        let s4 = one.as_secs_f64() / four.as_secs_f64();
        assert!(s2 > 1.8, "2-device speedup {s2}");
        assert!(s4 > 3.2, "4-device speedup {s4}");
    }

    #[test]
    fn prop_style_sweep_devices_regions_steps() {
        // Exhaustive small sweep (deterministic stand-in for a proptest:
        // the space is tiny). Every (devices, regions, steps) combination
        // must be bitwise golden.
        for devices in [1usize, 2, 3] {
            for regions in [2usize, 4] {
                for steps in [1usize, 3] {
                    let n = 8i64;
                    let seed = devices as u64 * 100 + regions as u64;
                    let (ua, ub) = heat_arrays(n, regions, seed);
                    let mut cl = node(devices, FaultPlan::none());
                    let (a, b) = (cl.register(&ua), cl.register(&ub));
                    let last = heat_drive(&mut cl, a, b, steps);
                    cl.finish();
                    let golden =
                        heat::golden_run(init::hash_field(seed), n, steps, heat::DEFAULT_FAC);
                    assert_eq!(
                        dense_of(last, a, &ua, &ub),
                        golden,
                        "devices={devices} regions={regions} steps={steps}"
                    );
                    assert_eq!(cl.hazard_total(), 0, "devices={devices}");
                }
            }
        }
    }

    /// `heat_drive` with a snapshot every `ck_interval` steps and
    /// device-loss failover: on [`ClusterError::DeviceLost`] the run
    /// migrates the lost device's regions onto the survivors, restores
    /// the latest snapshot, and replays. Returns the array holding the
    /// final result.
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
        // The final checkpoint's sync already drained everything home.
        if steps.is_multiple_of(2) {
            a
        } else {
            b
        }
    }

    #[test]
    fn device_death_mid_run_fails_over_bit_identical() {
        let steps = 4usize;

        // Failure-free golden through the same checkpointed run loop.
        let (ua, ub) = heat_arrays(8, 4, 77);
        let mut cl = node(2, FaultPlan::none());
        let (a, b) = (cl.register(&ua), cl.register(&ub));
        let last = heat_drive_failover(&mut cl, a, b, steps, 2);
        cl.finish();
        let golden = dense_of(last, a, &ua, &ub);

        // Device 1 dies on its 7th transfer — mid-run, past the step-2
        // snapshot. The run must migrate regions 2-3 onto device 0,
        // restore the snapshot, replay, and land on the exact same grid.
        let (ua, ub) = heat_arrays(8, 4, 77);
        let plan = FaultPlan::none().with_device_death(DeviceDeath::at_transfer(1, 7));
        let mut cl = node(2, plan);
        let (a, b) = (cl.register(&ua), cl.register(&ub));
        let last = heat_drive_failover(&mut cl, a, b, steps, 2);
        cl.finish();
        assert_eq!(
            dense_of(last, a, &ua, &ub),
            golden,
            "failover must be bit-identical"
        );

        // Every region of every array now lives on the survivor, and the
        // migration re-stage is accounted separately from organic loads.
        assert_eq!(cl.owner(2), 0);
        assert_eq!(cl.owner(3), 0);
        let st = cl.stats();
        assert_eq!(st.regions_migrated, 2, "{st}");
        assert_eq!(st.migration_restage_loads, 4, "2 regions x 2 arrays");
        assert!(st.migration_restage_bytes > 0);
        assert!(st.checkpoints_restored >= 1);
        assert_eq!(cl.node(0).fault_stats().device_deaths, 1);
        assert_eq!(cl.health().counters().devices_lost, 1);
        assert_eq!(
            cl.health().state(1),
            HealthState::Dead,
            "the monitor pins the loss"
        );
    }

    #[test]
    fn device_death_carried_by_the_machine_fires() {
        // The plan rides on the machine, not on `ClusterConfig::fault`:
        // it becomes the cluster-wide plan, so device 1 still dies.
        let (ua, ub) = heat_arrays(8, 4, 77);
        let plan = FaultPlan::none().with_device_death(DeviceDeath::at_transfer(1, 7));
        let machine = gpu_sim::MachineConfig::k40m().with_faults(plan);
        let mut cl = Cluster::new(ClusterConfig::new(1).devices_per_node(2).machine(machine));
        let (a, b) = (cl.register(&ua), cl.register(&ub));
        heat_drive_failover(&mut cl, a, b, 4, 2);
        cl.finish();
        assert_eq!(cl.node(0).fault_stats().device_deaths, 1);
        assert_eq!(cl.owner(2), 0, "device 1's regions moved to device 0");
        assert_eq!(cl.owner(3), 0);
    }

    #[test]
    #[should_panic(expected = "two fault plans")]
    fn fault_plans_on_both_config_and_machine_are_rejected() {
        let death = FaultPlan::none().with_device_death(DeviceDeath::at_transfer(1, 7));
        let machine = gpu_sim::MachineConfig::k40m().with_faults(death.clone());
        Cluster::new(
            ClusterConfig::new(1)
                .devices_per_node(2)
                .machine(machine)
                .fault(death),
        );
    }

    #[test]
    fn flapping_link_quarantines_then_readmits_without_oscillation() {
        // One down window on device 1's link early in the run: the retry
        // loop eats the faults (backoff outlasts the window), the health
        // monitor quarantines the device, and the clean traffic afterwards
        // readmits it — exactly one transition each way.
        let (n, steps) = (8i64, 8usize);
        let (ua, ub) = heat_arrays(n, 4, 78);
        let plan = FaultPlan::none().with_link_flap(LinkFlap::new(
            1,
            SimTime::ZERO,
            SimTime::from_us(100_000),
            SimTime::from_us(2_000),
            1,
        ));
        let mut cl = node(2, plan);
        let (a, b) = (cl.register(&ua), cl.register(&ub));
        let last = heat_drive_failover(&mut cl, a, b, steps, 1);
        cl.finish();

        let golden = heat::golden_run(init::hash_field(78), n, steps, heat::DEFAULT_FAC);
        assert_eq!(dense_of(last, a, &ua, &ub), golden, "flap must not corrupt");
        assert!(
            cl.stats().transfer_retries > 0,
            "the retry loop absorbed the flap"
        );
        let health = cl.health().counters();
        assert_eq!(health.quarantines, 1, "one quarantine transition");
        assert_eq!(health.readmissions, 1, "one readmission, no churn");
        assert_eq!(health.devices_lost, 0);
        assert_eq!(cl.health().state(1), HealthState::Healthy);
        assert!(cl.node(0).fault_stats().flap_faults > 0);
    }

    #[test]
    fn multiacc_checkpoint_resume_is_bit_identical() {
        // Uninterrupted 4-step run.
        let (ua, ub) = heat_arrays(8, 4, 55);
        let mut cl = node(2, FaultPlan::none());
        let (a, b) = (cl.register(&ua), cl.register(&ub));
        let last = heat_drive(&mut cl, a, b, 4);
        cl.finish();
        let golden = dense_of(last, a, &ua, &ub);

        // 2 steps, snapshot, discard the runtime, restore into a fresh
        // one, 2 more steps: same devices, same grid.
        let (ua, ub) = heat_arrays(8, 4, 55);
        let mut cl = node(2, FaultPlan::none());
        let (a, b) = (cl.register(&ua), cl.register(&ub));
        let mid = heat_drive(&mut cl, a, b, 2);
        let ck = cl.checkpoint(2).unwrap();
        cl.finish();
        drop(cl);

        let mut cl2 = node(2, FaultPlan::none());
        let (a2, b2) = (cl2.register(&ua), cl2.register(&ub));
        cl2.restore(&ck).unwrap();
        // The snapshot was taken with `mid` holding the latest state.
        let (src, dst) = if mid == a { (a2, b2) } else { (b2, a2) };
        let last2 = heat_drive(&mut cl2, src, dst, 2);
        cl2.finish();
        assert_eq!(
            dense_of(last2, a2, &ua, &ub),
            golden,
            "restored run must be bit-identical"
        );
    }
}
