//! TiDA-acc drivers for the two evaluation kernels.
//!
//! These are the "applications" of §V/§VI written against the library's
//! public API: decompose into regions, traverse tiles with the iterator,
//! `fill_boundary` + `compute` per step, and drain results region by region
//! (which pipelines the final transfers).

use crate::common::RunResult;
use gpu_sim::{GpuSystem, MachineConfig};
use kernels::{busy, heat};
use std::sync::Arc;
use tida::{tiles_of, Decomposition, Domain, ExchangeMode, RegionSpec, TileArray, TileSpec};
use tida_acc::{AccOptions, SlotPolicy, TileAcc};

/// TiDA-acc specific knobs on top of [`crate::RunOpts`].
#[derive(Debug, Clone)]
pub struct TidaOpts {
    /// Number of regions (the paper's best heat configuration used 16).
    pub regions: usize,
    /// Library options (slot policy, write-back, slot cap, efficiency).
    pub acc: AccOptions,
    pub backed: bool,
    pub tracing: bool,
    /// Call [`TileAcc::begin_step`] at the top of every solver step so the
    /// automatic overlap scheduler can record the plan and prefetch. Off by
    /// default: the begin-step marker changes nothing when the lookahead is
    /// 0, but drivers that assert exact byte counts want it fully inert.
    pub auto_step: bool,
}

impl TidaOpts {
    pub fn timing(regions: usize) -> Self {
        TidaOpts {
            regions,
            acc: AccOptions::paper(),
            backed: false,
            tracing: false,
            auto_step: false,
        }
    }

    pub fn validated(regions: usize) -> Self {
        TidaOpts {
            regions,
            acc: AccOptions::paper(),
            backed: true,
            tracing: false,
            auto_step: false,
        }
    }

    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    pub fn with_max_slots(mut self, n: usize) -> Self {
        self.acc.max_slots = Some(n);
        self
    }

    /// Turn on the automatic lookahead-prefetch overlap scheduler: per-step
    /// plan recording, `lookahead`-step prefetching and the given eviction
    /// policy (normally [`SlotPolicy::ReuseDistance`]).
    pub fn with_overlap(mut self, lookahead: usize, policy: SlotPolicy) -> Self {
        self.acc.lookahead = lookahead;
        self.acc.policy = policy;
        self.auto_step = true;
        self
    }
}

fn result_of(acc: &mut TileAcc, array: &TileArray, label: String, tracing: bool) -> RunResult {
    let elapsed = acc.finish();
    RunResult {
        label,
        elapsed,
        bytes_h2d: acc.gpu().stats_bytes_h2d(),
        bytes_d2h: acc.gpu().stats_bytes_d2h(),
        kernels: acc.gpu().stats_kernels(),
        result: array.to_dense(),
        trace: if tracing {
            Some(acc.gpu().trace())
        } else {
            None
        },
    }
}

/// TiDA-acc heat solver: `steps` Jacobi steps over an `n³` periodic domain.
pub fn tida_heat(cfg: &MachineConfig, n: i64, steps: usize, opts: &TidaOpts) -> RunResult {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(opts.regions),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, opts.backed);
    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, opts.backed);
    ua.fill_valid(crate::heat::heat_init());

    let mut gpu = GpuSystem::with_backing(cfg.clone(), opts.backed);
    gpu.set_tracing(opts.tracing);
    let mut acc = TileAcc::new(gpu, opts.acc.clone());
    let a = acc.register(&ua);
    let b = acc.register(&ub);

    let tiles = tiles_of(&decomp, TileSpec::RegionSized);
    let (mut src, mut dst) = (a, b);
    let fac = heat::DEFAULT_FAC;
    for _ in 0..steps {
        if opts.auto_step {
            acc.begin_step().unwrap();
        }
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
    let final_array = if src == a { &ua } else { &ub };
    let label = format!("TiDA-acc({}r)", opts.regions);
    result_of(&mut acc, final_array, label, opts.tracing)
}

/// TiDA-acc compute-intensive kernel: `steps` passes of the sin/cos/sqrt
/// kernel (PGI math, as the paper's build used).
pub fn tida_busy(
    cfg: &MachineConfig,
    n: i64,
    steps: usize,
    iters: u32,
    opts: &TidaOpts,
) -> RunResult {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(opts.regions),
    ));
    let u = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, opts.backed);
    u.fill_valid(crate::busy::busy_init());

    let mut gpu = GpuSystem::with_backing(cfg.clone(), opts.backed);
    gpu.set_tracing(opts.tracing);
    let mut acc = TileAcc::new(gpu, opts.acc.clone());
    let a = acc.register(&u);

    let tiles = tiles_of(&decomp, TileSpec::RegionSized);
    for _ in 0..steps {
        if opts.auto_step {
            acc.begin_step().unwrap();
        }
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
    let label = match opts.acc.max_slots {
        Some(k) => format!("TiDA-acc({}r,{k}slots)", opts.regions),
        None => format!("TiDA-acc({}r)", opts.regions),
    };
    result_of(&mut acc, &u, label, opts.tracing)
}

/// Temporally blocked TiDA-acc heat solver (extension): each region stages
/// onto the device once per `block` time steps, carrying `block`-wide ghost
/// halos and computing a shrinking trapezoid of inner steps
/// (`valid.grow(block-1)`, `valid.grow(block-2)`, …, `valid`). Transfers per
/// step drop by up to `block`×, at the price of wider exchanges and
/// redundant trapezoid compute — the classic temporal-blocking trade,
/// layered on the paper's staging pipeline.
pub fn tida_heat_timetiled(
    cfg: &MachineConfig,
    n: i64,
    steps: usize,
    regions: usize,
    block: usize,
    max_slots: Option<usize>,
    backed: bool,
) -> RunResult {
    assert!(block >= 1, "block must be positive");
    assert!(
        steps.is_multiple_of(block),
        "steps ({steps}) must be a multiple of the block ({block})"
    );
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(regions),
    ));
    let ghost = block as i64;
    // The recursively applied 7-point stencil widens into a diamond: inner
    // steps read edge/corner ghosts, so blocks > 1 need the full exchange.
    let mode = if block == 1 {
        ExchangeMode::Faces
    } else {
        ExchangeMode::Full
    };
    let ua = TileArray::new(decomp.clone(), ghost, mode, backed);
    let ub = TileArray::new(decomp.clone(), ghost, mode, backed);
    ua.fill_valid(crate::heat::heat_init());

    let mut opts = AccOptions::paper();
    opts.max_slots = max_slots;
    let mut acc = TileAcc::new(GpuSystem::with_backing(cfg.clone(), backed), opts);
    let a = acc.register(&ua);
    let b = acc.register(&ub);
    let fac = heat::DEFAULT_FAC;

    let (mut src, mut dst) = (a, b);
    for _ in 0..steps / block {
        // One wide exchange feeds `block` inner steps.
        acc.fill_boundary(src).unwrap();
        for r in 0..decomp.num_regions() {
            let valid = decomp.region_box(r);
            let (mut s_in, mut d_in) = (src, dst);
            for inner in 0..block {
                let shrink = (block - 1 - inner) as i64;
                let tile = tida::Tile {
                    region: r,
                    bx: valid.grow(shrink),
                };
                acc.compute2(
                    tile,
                    d_in,
                    s_in,
                    heat::cost(tile.num_cells()),
                    "heat-tt",
                    move |d, s, bx| heat::step_tile(d, s, &bx, fac),
                )
                .unwrap();
                std::mem::swap(&mut s_in, &mut d_in);
            }
        }
        if block % 2 == 1 {
            std::mem::swap(&mut src, &mut dst);
        }
        // block even: the result landed back in `src`.
    }
    acc.sync_to_host(src).unwrap();
    let elapsed = acc.finish();
    let final_array = if src == a { &ua } else { &ub };
    RunResult {
        label: format!("TiDA-tt({regions}r,b{block})"),
        elapsed,
        bytes_h2d: acc.gpu().stats_bytes_h2d(),
        bytes_d2h: acc.gpu().stats_bytes_d2h(),
        kernels: acc.gpu().stats_kernels(),
        result: final_array.to_dense(),
        trace: None,
    }
}

/// Temporally blocked heat solver through the FUSED runtime path: like
/// [`tida_heat_timetiled`], but each region's `block` inner steps run as
/// ONE fused [`TileAcc::compute_fused`] launch (the on-chip double-buffer
/// model) instead of `block` separate kernels, and the exchange still
/// happens once per outer block over a depth-`block` halo. With `overlap`
/// the run layers the automatic lookahead scheduler on top
/// (`begin_step` + reuse-distance eviction + 2-step prefetch) — the "fused
/// planner path" the temporal bench and the E5 figure measure.
///
/// Data effects are bitwise-identical to the unfused ping-pong, so fused
/// runs validate against the same goldens.
#[allow(clippy::too_many_arguments)]
pub fn tida_heat_fused(
    cfg: &MachineConfig,
    n: i64,
    steps: usize,
    regions: usize,
    block: usize,
    max_slots: Option<usize>,
    backed: bool,
    overlap: bool,
) -> RunResult {
    assert!(block >= 1, "block must be positive");
    assert!(
        steps.is_multiple_of(block),
        "steps ({steps}) must be a multiple of the block ({block})"
    );
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(regions),
    ));
    let ghost = block as i64;
    let mode = if block == 1 {
        ExchangeMode::Faces
    } else {
        ExchangeMode::Full
    };
    let ua = TileArray::new(decomp.clone(), ghost, mode, backed);
    let ub = TileArray::new(decomp.clone(), ghost, mode, backed);
    ua.fill_valid(crate::heat::heat_init());

    let mut opts = AccOptions::paper();
    opts.max_slots = max_slots;
    if overlap {
        opts.policy = SlotPolicy::ReuseDistance;
        opts.lookahead = 2;
    }
    let mut acc = TileAcc::new(GpuSystem::with_backing(cfg.clone(), backed), opts);
    let a = acc.register(&ua);
    let b = acc.register(&ub);
    let fac = heat::DEFAULT_FAC;

    let (mut src, mut dst) = (a, b);
    for _ in 0..steps / block {
        if overlap {
            acc.begin_step().unwrap();
        }
        // One deep exchange feeds the whole fused block.
        acc.fill_boundary(src).unwrap();
        for r in 0..decomp.num_regions() {
            let valid = decomp.region_box(r);
            acc.compute_fused(
                r,
                dst,
                src,
                block,
                heat::fused_cost(block, &valid),
                "heat-fused",
                move |d, s, bx| heat::step_tile(d, s, &bx, fac),
            )
            .unwrap();
        }
        if block % 2 == 1 {
            std::mem::swap(&mut src, &mut dst);
        }
        // block even: the result landed back in `src`.
    }
    acc.sync_to_host(src).unwrap();
    let elapsed = acc.finish();
    let stats = acc.stats();
    assert_eq!(stats.hazards, 0, "fused run must be hazard-free");
    assert_eq!(stats.integrity_detected, 0, "fused run must be clean");
    let final_array = if src == a { &ua } else { &ub };
    RunResult {
        label: format!("TiDA-fused({regions}r,k{block})"),
        elapsed,
        bytes_h2d: acc.gpu().stats_bytes_h2d(),
        bytes_d2h: acc.gpu().stats_bytes_d2h(),
        kernels: acc.gpu().stats_kernels(),
        result: final_array.to_dense(),
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{MemMode, RunOpts as BOpts};

    fn cfg() -> MachineConfig {
        MachineConfig::k40m()
    }

    #[test]
    fn tida_heat_matches_cuda_baseline_bitwise() {
        let n = 8;
        let steps = 3;
        let t = tida_heat(&cfg(), n, steps, &TidaOpts::validated(4));
        let c = crate::heat::cuda_heat(&cfg(), n, steps, BOpts::validated(MemMode::Pinned));
        assert_eq!(t.result.unwrap(), c.result.unwrap());
    }

    #[test]
    fn tida_busy_matches_cuda_baseline() {
        let n = 8;
        let (steps, iters) = (2, 4);
        let t = tida_busy(&cfg(), n, steps, iters, &TidaOpts::validated(4));
        let c = crate::busy::cuda_busy(
            &cfg(),
            n,
            steps,
            iters,
            busy::MathImpl::CudaLibm,
            BOpts::validated(MemMode::Pinned),
        );
        assert_eq!(t.result.unwrap(), c.result.unwrap());
    }

    #[test]
    fn tida_heat_beats_synchronous_baselines_at_one_step() {
        // The Fig. 5 low-iteration regime: transfers dominate and TiDA-acc
        // pipelines them behind compute.
        let n = 96;
        let t = tida_heat(&cfg(), n, 1, &TidaOpts::timing(8)).elapsed;
        let pageable =
            crate::heat::cuda_heat(&cfg(), n, 1, BOpts::timing(MemMode::Pageable)).elapsed;
        let pinned = crate::heat::cuda_heat(&cfg(), n, 1, BOpts::timing(MemMode::Pinned)).elapsed;
        assert!(t < pinned, "TiDA-acc {t} !< CUDA-pinned {pinned}");
        assert!(t < pageable, "TiDA-acc {t} !< CUDA-pageable {pageable}");
    }

    #[test]
    fn timetiled_heat_bitwise_golden_for_all_blocks() {
        let n = 12;
        let steps = 6;
        let golden = heat::golden_run(crate::heat::heat_init(), n, steps, heat::DEFAULT_FAC);
        // Regions are 12x12x4 slabs: blocks up to the slab depth work.
        for block in [1usize, 2, 3] {
            let r = tida_heat_timetiled(&cfg(), n, steps, 3, block, None, true);
            assert_eq!(r.result.as_ref().unwrap(), &golden, "block {block}");
        }
    }

    #[test]
    #[should_panic(expected = "ghost width")]
    fn timetiled_block_deeper_than_region_panics() {
        // Ghost halos deeper than the thinnest region cannot be exchanged
        // from immediate neighbours; the decomposition rejects it.
        tida_heat_timetiled(&cfg(), 12, 6, 3, 6, None, true);
    }

    #[test]
    fn timetiled_heat_bitwise_golden_under_memory_pressure() {
        let n = 12;
        let steps = 4;
        let golden = heat::golden_run(crate::heat::heat_init(), n, steps, heat::DEFAULT_FAC);
        let r = tida_heat_timetiled(&cfg(), n, steps, 3, 2, Some(3), true);
        assert_eq!(r.result.unwrap(), golden);
    }

    #[test]
    fn fused_heat_bitwise_golden_for_all_depths() {
        let n = 12;
        let steps = 6;
        let golden = heat::golden_run(crate::heat::heat_init(), n, steps, heat::DEFAULT_FAC);
        // Regions are 12x12x4 slabs: depths up to the slab depth work.
        for block in [1usize, 2, 3] {
            let r = tida_heat_fused(&cfg(), n, steps, 3, block, None, true, false);
            assert_eq!(r.result.as_ref().unwrap(), &golden, "depth {block}");
        }
    }

    #[test]
    fn fused_matches_timetiled_bitwise_with_fewer_launches() {
        // Same trapezoid, same exchange schedule: the fused run must agree
        // bit-for-bit with k separate launches while launching fewer
        // kernels and staging no more data. (It actually stages LESS: the
        // unfused loop's first inner step writes grow(k-1), not the whole
        // valid box, so it never qualifies for a write-intent claim and
        // uploads the destination array; the fused call proves the full
        // overwrite up front and skips that upload.)
        let n = 12;
        let steps = 6;
        let block = 2;
        let f = tida_heat_fused(&cfg(), n, steps, 3, block, Some(3), true, false);
        let t = tida_heat_timetiled(&cfg(), n, steps, 3, block, Some(3), true);
        assert_eq!(f.result.unwrap(), t.result.unwrap());
        assert!(
            f.bytes_h2d < t.bytes_h2d,
            "fused staging {} !< unfused {}",
            f.bytes_h2d,
            t.bytes_h2d
        );
        assert!(
            f.kernels < t.kernels,
            "fused {} launches !< unfused {}",
            f.kernels,
            t.kernels
        );
    }

    #[test]
    fn fused_depth_one_degenerates_bit_identically() {
        // k=1 must be indistinguishable from today's unfused path: same
        // field, same byte counts, same launch count, same makespan.
        let n = 12;
        let steps = 4;
        let f = tida_heat_fused(&cfg(), n, steps, 3, 1, Some(3), true, false);
        let t = tida_heat_timetiled(&cfg(), n, steps, 3, 1, Some(3), true);
        assert_eq!(f.result.unwrap(), t.result.unwrap());
        assert_eq!(f.bytes_h2d, t.bytes_h2d);
        assert_eq!(f.bytes_d2h, t.bytes_d2h);
        assert_eq!(f.kernels, t.kernels);
        assert_eq!(f.elapsed, t.elapsed, "k=1 fused must not change timing");
    }

    #[test]
    fn fused_overlap_path_stays_bitwise_golden() {
        // The full fused planner path (begin_step + reuse-distance +
        // lookahead prefetch) under memory pressure must still be golden.
        let n = 12;
        let steps = 6;
        let golden = heat::golden_run(crate::heat::heat_init(), n, steps, heat::DEFAULT_FAC);
        for block in [1usize, 2] {
            let r = tida_heat_fused(&cfg(), n, steps, 3, block, Some(3), true, true);
            assert_eq!(r.result.as_ref().unwrap(), &golden, "depth {block}");
        }
    }

    #[test]
    #[should_panic(expected = "ghost width")]
    fn fused_depth_deeper_than_region_panics() {
        tida_heat_fused(&cfg(), 12, 6, 3, 6, None, true, false);
    }

    #[test]
    fn fused_cuts_staged_bytes_per_step() {
        // Out-of-core regime: depth 4 re-stages each region once per 4
        // steps instead of once per step.
        let n = 64;
        let steps = 8;
        let k1 = tida_heat_fused(&cfg(), n, steps, 8, 1, Some(4), false, false);
        let k4 = tida_heat_fused(&cfg(), n, steps, 8, 4, Some(4), false, false);
        assert!(
            (k4.bytes_h2d as f64) < 0.67 * k1.bytes_h2d as f64,
            "depth 4 staged {} !< 2/3 of depth 1's {}",
            k4.bytes_h2d,
            k1.bytes_h2d
        );
        assert!(k4.elapsed < k1.elapsed, "amortization must win end-to-end");
    }

    #[test]
    fn temporal_blocking_cuts_transfer_volume_when_staging() {
        // Out-of-core regime: blocks of 4 must move ~4x less data per step.
        let n = 64;
        let steps = 8;
        let b1 = tida_heat_timetiled(&cfg(), n, steps, 8, 1, Some(4), false);
        let b4 = tida_heat_timetiled(&cfg(), n, steps, 8, 4, Some(4), false);
        // Not a full 4x: temporally blocked buffers carry 4-wide halos, so
        // each staged transfer is bigger — the net is still a large cut.
        assert!(
            (b4.bytes_h2d as f64) < 0.8 * b1.bytes_h2d as f64,
            "H2D bytes: b4 {} vs b1 {}",
            b4.bytes_h2d,
            b1.bytes_h2d
        );
    }

    #[test]
    fn tida_busy_limited_slots_close_to_unlimited() {
        // Fig. 8: two slots vs all-fit, compute-intensive kernel.
        let n = 64;
        let (steps, iters) = (4, busy::DEFAULT_KERNEL_ITERATION);
        let full = tida_busy(&cfg(), n, steps, iters, &TidaOpts::timing(8)).elapsed;
        let limited = tida_busy(
            &cfg(),
            n,
            steps,
            iters,
            &TidaOpts::timing(8).with_max_slots(2),
        )
        .elapsed;
        let ratio = limited.as_secs_f64() / full.as_secs_f64();
        assert!(ratio < 1.10, "limited-memory overhead too high: {ratio}");
    }
}
