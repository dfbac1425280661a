//! `tida-acc` — the paper's tiling-based GPU programming model.
//!
//! The library (Bastem et al., ICPP 2017) extends the TiDA tiling
//! abstractions to a GPU: regions become the unit of host<->device transfer
//! *and* kernel execution, each device buffer gets its own stream, and a
//! cache list tracks which region occupies which device buffer. Together
//! these give the three headline properties:
//!
//! * **Overlap** — while some regions execute on the device, others are in
//!   flight over the interconnect (Fig. 3);
//! * **Oversubscription** — when the device memory cannot hold all regions,
//!   regions share device buffers and are staged in and out, so the
//!   application still runs (Figs. 7/8);
//! * **Uniform source** — `compute(tile, lambda)` runs the same closure on
//!   the CPU or the GPU, selected by the iterator's `reset(GPU=...)`.
//!
//! Spreading regions over several devices, on one node or many, is the
//! `cluster` crate's job; it reuses this crate's [`Checkpoint`],
//! [`HealthMonitor`] and [`RetryPolicy`].
//!
//! The GPU itself is the deterministic simulator from `gpu-sim` (see
//! DESIGN.md §2 for the substitution argument); all data effects are real
//! when buffers are backed, so the whole protocol is validated bit-for-bit
//! against dense golden references.
//!
//! # Quickstart
//!
//! ```
//! use gpu_sim::{GpuSystem, MachineConfig, KernelCost};
//! use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray, TileSpec, tiles_of};
//! use tida_acc::{AccOptions, TileAcc};
//! use std::sync::Arc;
//!
//! // 16^3 periodic domain split into 4 z-slab regions, 1 ghost cell.
//! let decomp = Arc::new(Decomposition::new(
//!     Domain::periodic_cube(16),
//!     RegionSpec::Count(4),
//! ));
//! let u = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
//! u.fill_valid(|iv| iv.x() as f64);
//!
//! let mut acc = TileAcc::new(GpuSystem::new(MachineConfig::k40m()), AccOptions::paper());
//! let a = acc.register(&u);
//!
//! // Double every cell on the (simulated) GPU, one kernel per region.
//! for tile in tiles_of(&decomp, TileSpec::RegionSized) {
//!     acc.compute1(tile, a, KernelCost::Bytes(tile.num_cells() * 16), "double",
//!         move |v, bx| {
//!             for iv in bx.iter() { v.update(iv, |x| 2.0 * x); }
//!         }).unwrap();
//! }
//! acc.sync_to_host(a).unwrap();
//! let elapsed = acc.finish();
//! assert!(elapsed > gpu_sim::SimTime::ZERO);
//! assert_eq!(u.value(tida::IntVect::new(3, 0, 0)), Some(6.0));
//! ```

mod checkpoint;
mod error;
mod ghost;
mod health;
mod iter;
mod options;
mod plan;
mod recovery;
mod reduce;
mod stats;
mod tileacc;

pub use checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, CheckpointStore};
pub use error::{AccError, IntegrityKind};
pub use health::{HealthMonitor, HealthPolicy, HealthState};
pub use iter::AccIter;
pub use options::{AccOptions, RetryPolicy, SlotPolicy, WritebackPolicy};
pub use plan::recommend_fusion_depth;
pub use recovery::{restore_into, RecoveryError, RecoveryOutcome, Supervisor, SupervisorConfig};
pub use stats::AccStats;
pub use tileacc::{ArrayId, Residency, TileAcc};

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuSystem, MachineConfig, SimTime};
    use kernels::{busy, heat, init};
    use std::sync::Arc;
    use tida::{
        tiles_of, Decomposition, Domain, ExchangeMode, IntVect, RegionSpec, TileArray, TileSpec,
    };

    fn mk_acc(max_slots: Option<usize>) -> TileAcc {
        let mut opts = AccOptions::paper();
        opts.max_slots = max_slots;
        TileAcc::new(GpuSystem::new(MachineConfig::k40m()), opts)
    }

    /// Drive `steps` heat steps through the full TiDA-acc protocol.
    fn heat_drive(
        acc: &mut TileAcc,
        decomp: &Arc<Decomposition>,
        mut src: ArrayId,
        mut dst: ArrayId,
        steps: usize,
        fac: f64,
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
                    move |d, s, bx| heat::step_tile(d, s, &bx, fac),
                )
                .unwrap();
            }
            std::mem::swap(&mut src, &mut dst);
        }
        acc.sync_to_host(src).unwrap();
        src
    }

    fn heat_setup(n: i64, spec: RegionSpec) -> (Arc<Decomposition>, TileArray, TileArray) {
        let decomp = Arc::new(Decomposition::new(Domain::periodic_cube(n), spec));
        let a = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let b = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        a.fill_valid(init::hash_field(7));
        (decomp, a, b)
    }

    #[test]
    fn heat_gpu_matches_golden_exactly() {
        let n = 8;
        let steps = 4;
        let (decomp, ua, ub) = heat_setup(n, RegionSpec::Count(4));
        let mut acc = mk_acc(None);
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, steps, heat::DEFAULT_FAC);
        acc.finish();

        let golden = heat::golden_run(init::hash_field(7), n, steps, heat::DEFAULT_FAC);
        let result = if last == a { &ua } else { &ub };
        assert_eq!(result.to_dense().unwrap(), golden);
        let st = acc.stats();
        assert!(st.kernels_gpu > 0);
        assert_eq!(st.kernels_host, 0);
        assert!(st.ghost_gpu > 0, "steady-state ghosts run on the device");
    }

    #[test]
    fn heat_gpu_matches_golden_with_3d_region_grid() {
        let n = 8;
        let steps = 3;
        let (decomp, ua, ub) = heat_setup(n, RegionSpec::Grid([2, 2, 2]));
        let mut acc = mk_acc(None);
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, steps, heat::DEFAULT_FAC);
        acc.finish();
        let golden = heat::golden_run(init::hash_field(7), n, steps, heat::DEFAULT_FAC);
        let result = if last == a { &ua } else { &ub };
        assert_eq!(result.to_dense().unwrap(), golden);
    }

    #[test]
    fn heat_limited_memory_still_exact() {
        // 4 z-slab regions x 2 arrays = 8 global regions, but only 3 device
        // slots: constant staging, every result still bitwise correct.
        let n = 8;
        let steps = 3;
        let (decomp, ua, ub) = heat_setup(n, RegionSpec::Count(4));
        let mut acc = mk_acc(Some(3));
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, steps, heat::DEFAULT_FAC);
        acc.finish();
        let golden = heat::golden_run(init::hash_field(7), n, steps, heat::DEFAULT_FAC);
        let result = if last == a { &ua } else { &ub };
        assert_eq!(result.to_dense().unwrap(), golden);
        assert!(acc.stats().evictions > 0, "limited memory must evict");
    }

    #[test]
    fn heat_lru_policy_exact() {
        let n = 8;
        let steps = 3;
        let (decomp, ua, ub) = heat_setup(n, RegionSpec::Count(4));
        let mut opts = AccOptions::paper().with_policy(SlotPolicy::Lru);
        opts.max_slots = Some(3);
        let mut acc = TileAcc::new(GpuSystem::new(MachineConfig::k40m()), opts);
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, steps, heat::DEFAULT_FAC);
        acc.finish();
        let golden = heat::golden_run(init::hash_field(7), n, steps, heat::DEFAULT_FAC);
        let result = if last == a { &ua } else { &ub };
        assert_eq!(result.to_dense().unwrap(), golden);
    }

    #[test]
    fn heat_dirty_only_writeback_exact() {
        let n = 8;
        let steps = 3;
        let (decomp, ua, ub) = heat_setup(n, RegionSpec::Count(4));
        let opts = AccOptions::paper()
            .with_writeback(WritebackPolicy::DirtyOnly)
            .with_max_slots(3);
        let mut acc = TileAcc::new(GpuSystem::new(MachineConfig::k40m()), opts);
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, steps, heat::DEFAULT_FAC);
        acc.finish();
        let golden = heat::golden_run(init::hash_field(7), n, steps, heat::DEFAULT_FAC);
        let result = if last == a { &ua } else { &ub };
        assert_eq!(result.to_dense().unwrap(), golden);
        assert!(
            acc.stats().writebacks_skipped > 0,
            "clean slots skip write-back"
        );
    }

    #[test]
    fn heat_cpu_mode_matches_golden() {
        let n = 8;
        let steps = 3;
        let (decomp, ua, ub) = heat_setup(n, RegionSpec::Count(2));
        let mut acc = mk_acc(None);
        acc.set_gpu(false);
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive(&mut acc, &decomp, a, b, steps, heat::DEFAULT_FAC);
        acc.finish();
        let golden = heat::golden_run(init::hash_field(7), n, steps, heat::DEFAULT_FAC);
        let result = if last == a { &ua } else { &ub };
        assert_eq!(result.to_dense().unwrap(), golden);
        let st = acc.stats();
        assert_eq!(st.kernels_gpu, 0);
        assert!(st.kernels_host > 0);
    }

    #[test]
    fn heat_alternating_cpu_gpu_phases_exact() {
        // Phase changes force residency migrations in both directions.
        let n = 8;
        let (decomp, ua, ub) = heat_setup(n, RegionSpec::Count(4));
        let mut acc = mk_acc(None);
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let tiles = tiles_of(&decomp, TileSpec::RegionSized);
        let (mut src, mut dst) = (a, b);
        for step in 0..4 {
            acc.set_gpu(step % 2 == 0);
            acc.fill_boundary(src).unwrap();
            for &t in &tiles {
                acc.compute2(
                    t,
                    dst,
                    src,
                    heat::cost(t.num_cells()),
                    "heat",
                    move |d, s, bx| heat::step_tile(d, s, &bx, heat::DEFAULT_FAC),
                )
                .unwrap();
            }
            std::mem::swap(&mut src, &mut dst);
        }
        acc.sync_to_host(src).unwrap();
        acc.finish();
        let golden = heat::golden_run(init::hash_field(7), n, 4, heat::DEFAULT_FAC);
        let result = if src == a { &ua } else { &ub };
        assert_eq!(result.to_dense().unwrap(), golden);
        let st = acc.stats();
        assert!(st.kernels_gpu > 0 && st.kernels_host > 0);
    }

    #[test]
    fn busy_kernel_single_slot_staging_exact() {
        let n = 8;
        let iters = 5;
        let steps = 2;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(4),
        ));
        let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, true);
        u.fill_valid(init::gaussian(n));
        let mut acc = mk_acc(Some(1)); // a single device slot
        let a = acc.register(&u);
        let tiles = tiles_of(&decomp, TileSpec::RegionSized);
        for _ in 0..steps {
            for &t in &tiles {
                acc.compute1(
                    t,
                    a,
                    busy::cost(t.num_cells(), iters, busy::MathImpl::PgiLibm),
                    "busy",
                    move |v, bx| busy::apply_tile(v, &bx, iters),
                )
                .unwrap();
            }
        }
        acc.sync_to_host(a).unwrap();
        acc.finish();

        let mut golden: Vec<f64> = {
            let l = tida::Layout::new(tida::Box3::cube(n));
            (0..l.len())
                .map(|o| init::gaussian(n)(l.cell_at(o)))
                .collect()
        };
        for _ in 0..steps {
            busy::golden(&mut golden, iters);
        }
        assert_eq!(u.to_dense().unwrap(), golden);
        assert!(acc.stats().evictions > 0);
    }

    #[test]
    fn cache_hits_avoid_transfers() {
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(8),
            RegionSpec::Count(2),
        ));
        let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, true);
        let mut acc = mk_acc(None);
        let a = acc.register(&u);
        let tiles = tiles_of(&decomp, TileSpec::RegionSized);
        for _ in 0..5 {
            for &t in &tiles {
                acc.compute1(t, a, gpu_sim::KernelCost::Flops(1e6), "noop", |_, _| {})
                    .unwrap();
            }
        }
        acc.finish();
        let st = acc.stats();
        assert_eq!(st.loads, 2, "each region loads exactly once");
        assert_eq!(st.hits, 8, "subsequent passes hit the cache");
        assert_eq!(st.evictions, 0);
    }

    #[test]
    fn transfers_overlap_compute_across_streams() {
        // Several busy regions: stream pipelining must overlap the H2D
        // engine with the compute engine (the paper's Fig. 3).
        let n = 16;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(8),
        ));
        let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, false);
        let mut acc = mk_acc(None);
        acc.gpu_mut().set_tracing(true);
        let a = acc.register(&u);
        for t in tiles_of(&decomp, TileSpec::RegionSized) {
            acc.compute1(
                t,
                a,
                busy::cost(t.num_cells() * 100_000, 40, busy::MathImpl::PgiLibm),
                "busy",
                |_, _| {},
            )
            .unwrap();
        }
        acc.sync_to_host(a).unwrap();
        acc.finish();
        let tr = acc.gpu().trace();
        // Engines: 0 = h2d, 2 = compute.
        assert!(
            tr.overlap_time(0, 2) > SimTime::ZERO,
            "H2D must overlap kernels:\n{}",
            tr.render_gantt(100)
        );
    }

    #[test]
    fn limited_memory_hidden_behind_compute() {
        // Fig. 8's claim: with a compute-intensive kernel, limiting the
        // device to two region slots costs almost nothing.
        let run = |max_slots: Option<usize>| {
            let n = 32;
            let decomp = Arc::new(Decomposition::new(
                Domain::periodic_cube(n),
                RegionSpec::Count(8),
            ));
            let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, false);
            let mut acc = mk_acc(max_slots);
            let a = acc.register(&u);
            for _ in 0..4 {
                for t in tiles_of(&decomp, TileSpec::RegionSized) {
                    // Scale the per-cell work up so the kernel dominates.
                    acc.compute1(
                        t,
                        a,
                        busy::cost(t.num_cells() * 50_000, 40, busy::MathImpl::PgiLibm),
                        "busy",
                        |_, _| {},
                    )
                    .unwrap();
                }
            }
            acc.sync_to_host(a).unwrap();
            acc.finish()
        };
        let unlimited = run(None);
        let limited = run(Some(2));
        let ratio = limited.as_secs_f64() / unlimited.as_secs_f64();
        assert!(
            ratio < 1.05,
            "staging should hide behind compute; ratio {ratio}"
        );
    }

    #[test]
    fn host_access_after_gpu_write_sees_fresh_data() {
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(4),
            RegionSpec::Count(1),
        ));
        let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, true);
        u.fill_valid(|_| 1.0);
        let mut acc = mk_acc(None);
        let a = acc.register(&u);
        let tiles = tiles_of(&decomp, TileSpec::RegionSized);
        acc.compute1(
            tiles[0],
            a,
            gpu_sim::KernelCost::Flops(1e6),
            "inc",
            |v, bx| {
                for iv in bx.iter() {
                    v.update(iv, |x| x + 1.0);
                }
            },
        )
        .unwrap();
        // Host copy is stale until sync.
        assert_eq!(u.value(IntVect::ZERO), Some(1.0));
        acc.sync_to_host(a).unwrap();
        assert_eq!(u.value(IntVect::ZERO), Some(2.0));
        assert_eq!(acc.residency(a, 0), Residency::Host);
    }

    #[test]
    #[should_panic(expected = "share one decomposition")]
    fn mismatched_decompositions_panic() {
        let d1 = Arc::new(Decomposition::new(
            Domain::periodic_cube(8),
            RegionSpec::Count(2),
        ));
        let d2 = Arc::new(Decomposition::new(
            Domain::periodic_cube(8),
            RegionSpec::Count(4),
        ));
        let u = TileArray::new(d1, 0, ExchangeMode::Faces, true);
        let v = TileArray::new(d2, 0, ExchangeMode::Faces, true);
        let mut acc = mk_acc(None);
        acc.register(&u);
        acc.register(&v);
    }

    #[test]
    fn device_too_small_for_one_region_is_a_typed_error() {
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(16),
            RegionSpec::Count(1),
        ));
        let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, false);
        let gpu = GpuSystem::new(MachineConfig::k40m().with_device_mem(1024));
        let mut acc = TileAcc::new(gpu, AccOptions::paper());
        let a = acc.register(&u);
        let tiles = tiles_of(&decomp, TileSpec::RegionSized);
        let err = acc
            .compute1(tiles[0], a, gpu_sim::KernelCost::Flops(1.0), "k", |_, _| {})
            .unwrap_err();
        assert!(
            matches!(
                err,
                AccError::Capacity {
                    free_bytes: 1024,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// `heat_drive` with a `begin_step` boundary per step — the automatic
    /// overlap scheduler's driver shape.
    fn heat_drive_auto(
        acc: &mut TileAcc,
        decomp: &Arc<Decomposition>,
        mut src: ArrayId,
        mut dst: ArrayId,
        steps: usize,
        fac: f64,
    ) -> ArrayId {
        let tiles = tiles_of(decomp, TileSpec::RegionSized);
        for _ in 0..steps {
            acc.begin_step().unwrap();
            acc.fill_boundary(src).unwrap();
            for &t in &tiles {
                acc.compute2(
                    t,
                    dst,
                    src,
                    heat::cost(t.num_cells()),
                    "heat",
                    move |d, s, bx| heat::step_tile(d, s, &bx, fac),
                )
                .unwrap();
            }
            std::mem::swap(&mut src, &mut dst);
        }
        acc.sync_to_host(src).unwrap();
        src
    }

    #[test]
    fn capped_prefetch_all_never_evicts() {
        // 8 regions into 3 slots under LRU: prefetch_all used to thrash —
        // each staged region evicted an earlier one, paying 8 transfers to
        // end with only the last 3 resident. Staging is now capped at pool
        // capacity.
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(16),
            RegionSpec::Count(8),
        ));
        let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, true);
        let opts = AccOptions::paper()
            .with_policy(SlotPolicy::Lru)
            .with_max_slots(3);
        let mut acc = TileAcc::new(GpuSystem::new(MachineConfig::k40m()), opts);
        let a = acc.register(&u);
        acc.prefetch_all(a).unwrap();
        let st = acc.stats();
        assert_eq!(st.evictions, 0, "capped prefetch must never evict");
        assert_eq!(st.prefetch_loads, 3, "exactly the pool capacity staged");
        assert_eq!(st.loads, 3);
        assert_eq!(
            st.prefetch_fallbacks, 0,
            "a full pool is a cap, not a failure"
        );
        // The three staged regions are warm; their first uses are prefetch
        // hits, not organic ones.
        for t in tiles_of(&decomp, TileSpec::RegionSized) {
            acc.compute1(t, a, gpu_sim::KernelCost::Flops(1e6), "noop", |_, _| {})
                .unwrap();
        }
        let st = acc.stats();
        assert_eq!(st.prefetch_hits, 3);
        assert_eq!(st.hits, 0);
        assert_eq!(st.loads, 8, "the other five regions demand-load");
    }

    #[test]
    fn static_slot_conflict_during_prefetch_is_observable() {
        // Two regions share the single static slot: the second prefetch
        // cannot stage and must say so instead of silently no-opping.
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(8),
            RegionSpec::Count(2),
        ));
        let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, true);
        let mut acc = mk_acc(Some(1));
        acc.gpu_mut().set_tracing(true);
        let a = acc.register(&u);
        acc.prefetch(a, 0).unwrap();
        acc.prefetch(a, 1).unwrap();
        let st = acc.stats();
        assert_eq!(st.prefetch_loads, 1);
        assert_eq!(st.prefetch_fallbacks, 1);
        assert_eq!(st.evictions, 0);
        acc.finish();
        let tr = acc.gpu().trace();
        assert!(
            tr.spans.iter().any(|s| s.category == "prefetch"),
            "degraded prefetch must leave a trace marker"
        );
    }

    #[test]
    fn auto_overlap_heat_exact_with_prefetch_active() {
        // Out-of-core heat (8 global regions, 3 slots) under the automatic
        // scheduler: plan-aware eviction + lookahead prefetch, results
        // bit-identical to golden, zero hazards, and the prefetcher
        // actually fired once the period was detected.
        let n = 8;
        let steps = 8;
        let (decomp, ua, ub) = heat_setup(n, RegionSpec::Count(4));
        let opts = AccOptions::paper()
            .with_policy(SlotPolicy::ReuseDistance)
            .with_max_slots(3)
            .with_lookahead(2);
        let mut acc = TileAcc::new(GpuSystem::new(MachineConfig::k40m()), opts);
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let last = heat_drive_auto(&mut acc, &decomp, a, b, steps, heat::DEFAULT_FAC);
        acc.finish();
        let golden = heat::golden_run(init::hash_field(7), n, steps, heat::DEFAULT_FAC);
        let result = if last == a { &ua } else { &ub };
        assert_eq!(result.to_dense().unwrap(), golden);
        let st = acc.stats();
        assert_eq!(st.hazards, 0, "prefetched schedule must be race-free");
        assert_eq!(
            acc.plan_period(),
            Some(2),
            "double buffering repeats every 2 steps"
        );
        assert!(
            st.prefetch_loads > 0,
            "the lookahead prefetcher must fire: {st}"
        );
        assert!(
            st.prefetch_hits > 0,
            "prefetched regions must get used: {st}"
        );
    }

    #[test]
    fn reuse_distance_without_plan_degenerates_to_lru() {
        // No begin_step calls: ReuseDistance must schedule exactly like LRU.
        let run = |policy: SlotPolicy| {
            let n = 8;
            let (decomp, ua, ub) = heat_setup(n, RegionSpec::Count(4));
            let opts = AccOptions::paper().with_policy(policy).with_max_slots(3);
            let mut acc = TileAcc::new(GpuSystem::new(MachineConfig::k40m()), opts);
            let a = acc.register(&ua);
            let b = acc.register(&ub);
            heat_drive(&mut acc, &decomp, a, b, 3, heat::DEFAULT_FAC);
            (acc.finish(), acc.stats())
        };
        assert_eq!(run(SlotPolicy::Lru), run(SlotPolicy::ReuseDistance));
    }

    #[test]
    fn virtual_run_has_identical_schedule_to_backed_run() {
        let run = |backed: bool| {
            let n = 8;
            let decomp = Arc::new(Decomposition::new(
                Domain::periodic_cube(n),
                RegionSpec::Count(4),
            ));
            let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, backed);
            let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, backed);
            if backed {
                ua.fill_valid(init::hash_field(7));
            }
            let mut acc = mk_acc(Some(3));
            let a = acc.register(&ua);
            let b = acc.register(&ub);
            heat_drive(&mut acc, &decomp, a, b, 3, heat::DEFAULT_FAC);
            acc.finish()
        };
        assert_eq!(run(true), run(false));
    }
}
