//! One runner per paper figure, plus the ablations from DESIGN.md.
//!
//! Every runner executes the relevant implementations on the simulated K40m
//! platform (timing-only buffers at full paper scale) and returns a
//! [`FigData`] with the same series the paper plots. `Scale::Paper` uses the
//! paper's exact workload sizes; `Scale::Quick` shrinks them for CI and
//! Criterion runs without changing any qualitative ordering.

use crate::report::{FigData, Series};
use baselines::{busy as bbusy, heat as bheat, tida_busy, tida_heat, MemMode, RunOpts, TidaOpts};
use gpu_sim::MachineConfig;
use kernels::busy::{MathImpl, DEFAULT_KERNEL_ITERATION};
use tida_acc::{AccOptions, SlotPolicy, WritebackPolicy};

/// Workload size selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's sizes: 384³/512³ domains, up to 1000 iterations.
    Paper,
    /// Reduced sizes for CI / Criterion; same qualitative shapes.
    Quick,
}

impl Scale {
    fn heat_n(self) -> i64 {
        match self {
            Scale::Paper => 512,
            Scale::Quick => 128,
        }
    }

    fn fig1_n(self) -> i64 {
        match self {
            Scale::Paper => 384,
            Scale::Quick => 96,
        }
    }

    fn fig1_steps(self) -> usize {
        match self {
            Scale::Paper => 100,
            Scale::Quick => 10,
        }
    }

    fn fig5_iters(self) -> &'static [usize] {
        match self {
            Scale::Paper => &[1, 10, 100, 1000],
            Scale::Quick => &[1, 10, 100],
        }
    }

    fn busy_n(self) -> i64 {
        match self {
            Scale::Paper => 512,
            Scale::Quick => 128,
        }
    }

    fn busy_steps(self) -> usize {
        match self {
            Scale::Paper => 100,
            Scale::Quick => 10,
        }
    }

    fn fig8_steps(self) -> usize {
        match self {
            Scale::Paper => 1000,
            Scale::Quick => 50,
        }
    }
}

fn cfg() -> MachineConfig {
    MachineConfig::k40m()
}

/// Fig. 1: heat solver running time under {CUDA, OpenACC, CUDA-memory +
/// OpenACC-kernels} × {pageable, pinned, managed}, 384³, 100 iterations.
pub fn fig1(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.fig1_n();
    let steps = scale.fig1_steps();
    let mut fig = FigData::new(
        format!("Fig 1: heat {n}^3, {steps} iterations, execution models x memory management"),
        "time [ms]",
    );
    let mems = [MemMode::Pageable, MemMode::Pinned, MemMode::Managed];
    let mut cuda = Series::new("CUDA");
    let mut acc = Series::new("OpenACC");
    let mut hybrid = Series::new("CUDAmem+OpenACCkern");
    for mem in mems {
        cuda.push(
            mem.label(),
            bheat::cuda_heat(&c, n, steps, RunOpts::timing(mem)).ms(),
        );
        acc.push(
            mem.label(),
            bheat::openacc_heat(&c, n, steps, RunOpts::timing(mem)).ms(),
        );
        hybrid.push(
            mem.label(),
            bheat::hybrid_heat(&c, n, steps, RunOpts::timing(mem)).ms(),
        );
    }
    fig.series.extend([cuda, acc, hybrid]);
    fig.notes.push(
        "paper: CUDA-pinned fastest; pageable/managed slower in every model; \
         hybrid recovers most of the CUDA-vs-OpenACC gap"
            .into(),
    );
    fig
}

/// Fig. 5: heat-solver speedup over CUDA-pageable at 1/10/100/1000
/// iterations, 512³, TiDA-acc with 16 regions.
pub fn fig5(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.heat_n();
    let mut fig = FigData::new(
        format!("Fig 5: heat {n}^3 speedup over CUDA-pageable vs iteration count"),
        "speedup (x)",
    );
    let mut pinned = Series::new("CUDA-pinned");
    let mut acc = Series::new("OpenACC-pageable");
    let mut tida = Series::new("TiDA-acc(16r)");
    for &iters in scale.fig5_iters() {
        let base = bheat::cuda_heat(&c, n, iters, RunOpts::timing(MemMode::Pageable));
        let x = iters.to_string();
        pinned.push(
            &x,
            bheat::cuda_heat(&c, n, iters, RunOpts::timing(MemMode::Pinned)).speedup_over(&base),
        );
        acc.push(
            &x,
            bheat::openacc_heat(&c, n, iters, RunOpts::timing(MemMode::Pageable))
                .speedup_over(&base),
        );
        tida.push(
            &x,
            tida_heat(&c, n, iters, &TidaOpts::timing(16)).speedup_over(&base),
        );
    }
    fig.series.extend([pinned, acc, tida]);
    fig.notes.push(
        "paper: TiDA-acc wins at low iteration counts (transfers dominate and are hidden); \
         CUDA variants converge to it as compute amortizes the transfers"
            .into(),
    );
    fig
}

/// Fig. 6: compute-intensive kernel execution times, 512³.
pub fn fig6(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.busy_n();
    let steps = scale.busy_steps();
    let iters = DEFAULT_KERNEL_ITERATION;
    let mut fig = FigData::new(
        format!("Fig 6: compute-intensive kernel {n}^3, {steps} steps, kernel_iteration={iters}"),
        "time [ms]",
    );
    let mut s = Series::new("time");
    s.push(
        "CUDA",
        bbusy::cuda_busy(
            &c,
            n,
            steps,
            iters,
            MathImpl::CudaLibm,
            RunOpts::timing(MemMode::Pageable),
        )
        .ms(),
    );
    s.push(
        "CUDA-pinned",
        bbusy::cuda_busy(
            &c,
            n,
            steps,
            iters,
            MathImpl::CudaLibm,
            RunOpts::timing(MemMode::Pinned),
        )
        .ms(),
    );
    s.push(
        "CUDA-pinned-fastmath",
        bbusy::cuda_busy(
            &c,
            n,
            steps,
            iters,
            MathImpl::FastMath,
            RunOpts::timing(MemMode::Pinned),
        )
        .ms(),
    );
    s.push(
        "OpenACC-pageable",
        bbusy::openacc_busy(&c, n, steps, iters, RunOpts::timing(MemMode::Pageable)).ms(),
    );
    s.push(
        "TiDA-acc(16r)",
        tida_busy(&c, n, steps, iters, &TidaOpts::timing(16)).ms(),
    );
    fig.series.push(s);
    fig.notes.push(
        "paper: PGI-math builds (OpenACC, TiDA-acc) beat CUDA's math.h; fast-math closes the \
         gap; TiDA-acc adds no overhead"
            .into(),
    );
    fig
}

/// Fig. 7: the limited-memory timeline — a Gantt chart of two slot streams
/// staging regions (D2H/H2D) fully overlapped with compute.
pub fn fig7() -> String {
    let c = cfg();
    let opts = TidaOpts::timing(6).with_max_slots(2).with_tracing();
    let r = tida_busy(&c, 64, 2, DEFAULT_KERNEL_ITERATION, &opts);
    let trace = r.trace.expect("tracing enabled");
    let mut out = format!(
        "Fig 7: TiDA-acc under limited memory (6 regions, 2 device slots)\n\
         elapsed {}; h2d {} MiB, d2h {} MiB, kernels {}\n\n",
        r.elapsed,
        r.bytes_h2d >> 20,
        r.bytes_d2h >> 20,
        r.kernels
    );
    out.push_str(&trace.render_gantt(100));
    let h2d_compute = trace.overlap_time(0, 2);
    let d2h_compute = trace.overlap_time(1, 2);
    out.push_str(&format!(
        "\noverlap: h2d||compute {h2d_compute}, d2h||compute {d2h_compute} \
         (paper: transfers fully hidden behind compute)\n"
    ));
    out
}

/// Fig. 8: compute-intensive kernel, 512³, 1000 steps: TiDA-acc with all
/// regions resident vs a 2-slot device limit vs a single whole-domain
/// region.
pub fn fig8(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.busy_n();
    let steps = scale.fig8_steps();
    let iters = DEFAULT_KERNEL_ITERATION;
    let mut fig = FigData::new(
        format!("Fig 8: limited device memory, busy kernel {n}^3, {steps} steps"),
        "time [ms]",
    );
    let mut s = Series::new("time");
    s.push(
        "TiDA-acc(16r)",
        tida_busy(&c, n, steps, iters, &TidaOpts::timing(16)).ms(),
    );
    s.push(
        "TiDA-acc(16r,2slots)",
        tida_busy(&c, n, steps, iters, &TidaOpts::timing(16).with_max_slots(2)).ms(),
    );
    s.push(
        "TiDA-acc(1r)",
        tida_busy(&c, n, steps, iters, &TidaOpts::timing(1)).ms(),
    );
    fig.series.push(s);
    fig.notes.push(
        "paper: the 2-slot limit costs almost nothing (staging hides behind compute); \
         the single-region configuration shows the library adds no overhead"
            .into(),
    );
    fig
}

/// Ablation A (DESIGN.md): static interleaved slot mapping (paper) vs LRU
/// pool, heat solver under memory pressure.
pub fn ablation_slots(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.heat_n();
    let steps = match scale {
        Scale::Paper => 50,
        Scale::Quick => 10,
    };
    let mut fig = FigData::new(
        format!("Ablation A: slot policy under memory pressure, heat {n}^3, {steps} steps"),
        "time [ms]",
    );
    for slots in [3usize, 8, 16] {
        let mut s = Series::new(format!("{slots} slots"));
        for (name, policy) in [
            ("static", SlotPolicy::StaticInterleaved),
            ("lru", SlotPolicy::Lru),
        ] {
            let mut o = TidaOpts::timing(8).with_max_slots(slots);
            o.acc = o.acc.with_policy(policy);
            s.push(name, tida_heat(&c, n, steps, &o).ms());
        }
        fig.series.push(s);
    }
    fig
}

/// Ablation B: region-count sweep for the heat solver — the paper states
/// 16 regions gave the best performance at 512³.
pub fn ablation_regions(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.heat_n();
    let steps = match scale {
        Scale::Paper => 10,
        Scale::Quick => 4,
    };
    let mut fig = FigData::new(
        format!("Ablation B: region count, heat {n}^3, {steps} steps"),
        "time [ms]",
    );
    let mut s = Series::new("TiDA-acc");
    for regions in [1usize, 2, 4, 8, 16, 32, 64] {
        if regions as i64 > n {
            continue;
        }
        s.push(
            regions.to_string(),
            tida_heat(&c, n, steps, &TidaOpts::timing(regions)).ms(),
        );
    }
    fig.series.push(s);
    fig.notes
        .push("paper: 16 regions performed best for the 512^3 heat solver".into());
    fig
}

/// Ablation C: device-side ghost update with host index-calc overlap
/// (paper) vs forcing every ghost patch through the host.
pub fn ablation_ghost(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.heat_n();
    let steps = match scale {
        Scale::Paper => 50,
        Scale::Quick => 10,
    };
    let mut fig = FigData::new(
        format!("Ablation C: ghost-update location, heat {n}^3, {steps} steps"),
        "time [ms]",
    );
    let mut s = Series::new("TiDA-acc(16r)");
    let device = TidaOpts::timing(16);
    s.push("device-ghosts", tida_heat(&c, n, steps, &device).ms());
    let mut host = TidaOpts::timing(16);
    host.acc.ghost_on_device = false;
    s.push("host-ghosts", tida_heat(&c, n, steps, &host).ms());
    fig.series.push(s);
    fig.notes.push(
        "host-path ghosts bounce every region over PCIe each step; the paper's device \
         update avoids that entirely"
            .into(),
    );
    fig
}

/// Ablation D: the write-intent allocation and the write-back policy.
pub fn ablation_transfers(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.heat_n();
    let steps = match scale {
        Scale::Paper => 10,
        Scale::Quick => 4,
    };
    let mut fig = FigData::new(
        format!("Ablation D: transfer-avoidance options, heat {n}^3, {steps} steps, 6 slots"),
        "time [ms]",
    );
    let mut s = Series::new("TiDA-acc(8r)");
    let base = TidaOpts::timing(8).with_max_slots(6);
    s.push("paper-defaults", tida_heat(&c, n, steps, &base).ms());
    let mut upload = base.clone();
    upload.acc.upload_written_regions = true;
    s.push("upload-written", tida_heat(&c, n, steps, &upload).ms());
    let mut dirty = base.clone();
    dirty.acc = dirty.acc.with_writeback(WritebackPolicy::DirtyOnly);
    s.push("dirty-only-writeback", tida_heat(&c, n, steps, &dirty).ms());
    fig.series.push(s);
    fig
}

/// Extension experiment E1: the paper's §I NVLink motivation — how does the
/// Fig. 5 picture change when the interconnect is ~5× faster (and the
/// device proportionally stronger)? Runs the Fig. 5 sweep on the
/// P100/NVLink machine model.
pub fn nvlink_whatif(scale: Scale) -> FigData {
    let c = MachineConfig::p100_nvlink();
    let n = scale.heat_n();
    let mut fig = FigData::new(
        format!("E1: Fig 5 sweep on {}, heat {n}^3", c.name),
        "speedup over CUDA-pageable (x)",
    );
    let mut pinned = Series::new("CUDA-pinned");
    let mut tida = Series::new("TiDA-acc(16r)");
    for &iters in scale.fig5_iters() {
        let base = bheat::cuda_heat(&c, n, iters, RunOpts::timing(MemMode::Pageable));
        let x = iters.to_string();
        pinned.push(
            &x,
            bheat::cuda_heat(&c, n, iters, RunOpts::timing(MemMode::Pinned)).speedup_over(&base),
        );
        tida.push(
            &x,
            tida_heat(&c, n, iters, &TidaOpts::timing(16)).speedup_over(&base),
        );
    }
    fig.series.extend([pinned, tida]);
    fig.notes.push(
        "faster links shrink the transfer share, so overlap buys less at low iteration \
         counts than on PCIe — but the ordering at 1 iteration is preserved"
            .into(),
    );
    fig
}

/// Extension experiment E2: multi-GPU strong scaling of the heat solver
/// (regions distributed over the devices of one node, pack/P2P/unpack
/// halos).
pub fn multi_gpu_scaling(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.heat_n();
    let steps = match scale {
        Scale::Paper => 100,
        Scale::Quick => 10,
    };
    let regions = 16;
    let mut fig = FigData::new(
        format!("E2: multi-GPU strong scaling, heat {n}^3, {steps} steps, {regions} regions"),
        "time [ms]",
    );
    let mut s = Series::new("TiDA-multi");
    for devices in [1usize, 2, 4, 8] {
        let r = baselines::tida_heat_multi(&c, n, steps, regions, devices, false);
        s.push(format!("{devices}gpu"), r.ms());
    }
    fig.series.push(s);
    fig.notes.push(
        "pack, peer copy and unpack overlap the interior kernels, so the per-step time \
         scales almost linearly with devices; the one-off upload and final download of \
         the field keep the end-to-end speedup below it"
            .into(),
    );
    fig
}

/// Extension experiment E3: interconnect sensitivity. Scales the PCIe
/// bandwidth from 0.25× to 8× the K40m baseline and reports where overlap
/// stops paying: the crossover between TiDA-acc and a synchronous
/// CUDA-pinned run at one heat step.
pub fn interconnect_sweep(scale: Scale) -> FigData {
    let n = scale.heat_n();
    let mut fig = FigData::new(
        format!("E3: interconnect sensitivity, heat {n}^3, 1 step"),
        "TiDA-acc speedup over CUDA-pinned (x)",
    );
    let mut s = Series::new("speedup");
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let mut c = cfg();
        c.h2d_pinned_bw *= mult;
        c.d2h_pinned_bw *= mult;
        c.host_stage_bw *= mult;
        let pinned = bheat::cuda_heat(&c, n, 1, RunOpts::timing(MemMode::Pinned));
        let tida = tida_heat(&c, n, 1, &TidaOpts::timing(16));
        s.push(format!("{mult}x"), tida.speedup_over(&pinned));
    }
    fig.series.push(s);
    fig.notes.push(
        "slow links make overlap decisive (transfers dominate and are hidden); fast links \
         shrink the transfer share until the library's fixed overheads win out — the \
         quantitative form of the paper's NVLink discussion (§I)"
            .into(),
    );
    fig
}

/// Ablation E: the ghost-engine schedule — the paper's per-patch kernels
/// behind a global `acc wait` barrier vs batched gathers vs barrier-free
/// event ordering vs both.
pub fn ablation_ghost_engine(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.heat_n();
    let steps = match scale {
        Scale::Paper => 100,
        Scale::Quick => 10,
    };
    let mut fig = FigData::new(
        format!("Ablation E: ghost-engine schedule, heat {n}^3, {steps} steps, 16 regions"),
        "time [ms]",
    );
    let mut s = Series::new("TiDA-acc(16r)");
    let variants: [(&str, bool, bool); 4] = [
        ("paper (barrier, per-patch)", true, false),
        ("batched gathers", true, true),
        ("barrier-free", false, false),
        ("barrier-free + batched", false, true),
    ];
    for (name, barrier, batching) in variants {
        let mut o = TidaOpts::timing(16);
        o.acc.ghost_barrier = barrier;
        o.acc.ghost_batching = batching;
        s.push(name, tida_heat(&c, n, steps, &o).ms());
    }
    fig.series.push(s);
    fig.notes.push(
        "per-slot event ordering makes the global acc-wait redundant; batching cuts \
         launch overhead. Both are bitwise-invisible to results (see \
         tests/ghost_engine_options.rs)"
            .into(),
    );
    fig
}

/// Extension experiment E4: CPU vs GPU crossover. The same TiDA-acc
/// program runs on the host path (`reset(GPU=false)`) and the device path;
/// at small problems the transfers and launch overheads make the CPU win —
/// the classic offload break-even the single-source API lets users probe
/// with one flag.
pub fn cpu_gpu_crossover(scale: Scale) -> FigData {
    let c = cfg();
    let steps = 10;
    let sizes: &[i64] = match scale {
        Scale::Paper => &[16, 32, 64, 128, 256, 512],
        Scale::Quick => &[16, 32, 64, 128],
    };
    let mut fig = FigData::new(
        format!("E4: CPU vs GPU crossover, heat solver, {steps} steps"),
        "time [ms]",
    );
    let mut cpu = Series::new("TiDA-acc CPU path");
    let mut gpu = Series::new("TiDA-acc GPU path");
    for &n in sizes {
        let regions = 8.min(n as usize);
        let mut o = TidaOpts::timing(regions);
        o.acc.gpu = false;
        cpu.push(format!("{n}^3"), tida_heat(&c, n, steps, &o).ms());
        gpu.push(
            format!("{n}^3"),
            tida_heat(&c, n, steps, &TidaOpts::timing(regions)).ms(),
        );
    }
    fig.series.extend([cpu, gpu]);
    fig.notes.push(
        "one source, one flag: the GPU pays off once the per-cell work dwarfs launch and          transfer overheads"
            .into(),
    );
    fig
}

/// Extension experiment E5: temporal blocking on top of region staging.
/// In the out-of-core regime (4-slot device limit), computing `block` time
/// steps per region residency amortizes the staging transfers.
///
/// Every point is a MEASURED makespan of a run through the fused runtime
/// path ([`baselines::tida_heat_fused`]: one depth-`block` launch per
/// region per outer step, deep halos, the lookahead overlap scheduler on
/// top) — nothing here is modelled analytically, and the fused data
/// effects are pinned bitwise against the unfused goldens by the
/// baselines/conformance suites.
pub fn temporal_blocking(scale: Scale) -> FigData {
    let c = cfg();
    let n = scale.heat_n();
    let regions = 16;
    let steps = match scale {
        Scale::Paper => 48,
        Scale::Quick => 12,
    };
    let mut fig = FigData::new(
        format!("E5: temporal blocking under staging, heat {n}^3, {steps} steps, {regions} regions, 4 slots"),
        "time [ms]",
    );
    let mut s = Series::new("TiDA-fused");
    for block in [1usize, 2, 4] {
        let r = baselines::tida_heat_fused(&c, n, steps, regions, block, Some(4), false, true);
        s.push(format!("block {block}"), r.ms());
    }
    fig.series.push(s);
    fig.notes.push(
        "measured fused-runtime makespans: wider halos and trapezoid re-compute buy fewer \
         stagings; the optimum depends on the transfer/compute ratio"
            .into(),
    );
    fig
}

/// R1: checkpoint overhead vs. interval, with and without a mid-run crash.
///
/// A supervised heat run (timing-only buffers) at several snapshot cadences:
/// the fault-free series prices the checkpoints themselves (each one drains
/// dirty regions to the host), and the crashed series adds the replayed work
/// — tighter intervals cost more up front but lose less on recovery.
pub fn checkpoint_overhead(scale: Scale) -> FigData {
    use gpu_sim::{CrashFault, FaultPlan, GpuSystem};
    use std::cell::Cell;
    use std::sync::Arc;
    use tida::{tiles_of, Decomposition, Domain, ExchangeMode, RegionSpec, TileArray, TileSpec};
    use tida_acc::{ArrayId, CheckpointPolicy, Supervisor, SupervisorConfig, TileAcc};

    let (n, steps, regions) = match scale {
        Scale::Paper => (128i64, 32u64, 16usize),
        Scale::Quick => (32i64, 12u64, 8usize),
    };
    let mut fig = FigData::new(
        format!(
            "R1: checkpoint interval vs. run time, heat {n}^3, {steps} steps, {regions} regions"
        ),
        "time [ms]",
    );

    let run = |interval: u64, crash: bool| {
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(regions),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, false);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, false);
        let mut sup = Supervisor::new(SupervisorConfig {
            policy: CheckpointPolicy::every(interval).keep(2),
            ..SupervisorConfig::default()
        });
        let ids: Cell<Option<(ArrayId, ArrayId)>> = Cell::new(None);
        let d = decomp.clone();
        // Mid-run: every step launches one kernel per region (plus ghost
        // gathers), so this ordinal lands about halfway through attempt 0.
        let crash_at = steps / 2 * regions as u64;
        sup.run(
            steps,
            |attempt| {
                let plan = if crash && attempt == 0 {
                    FaultPlan::none().with_crash(CrashFault::at_kernel(crash_at))
                } else {
                    FaultPlan::none()
                };
                let mut acc =
                    TileAcc::new(GpuSystem::new(cfg().with_faults(plan)), AccOptions::paper());
                ids.set(Some((acc.register(&ua), acc.register(&ub))));
                acc
            },
            |acc, step| {
                let (a, b) = ids.get().expect("build ran first");
                let (src, dst) = if step % 2 == 0 { (a, b) } else { (b, a) };
                acc.fill_boundary(src)?;
                for t in tiles_of(&d, TileSpec::RegionSized) {
                    acc.compute2(
                        t,
                        dst,
                        src,
                        kernels::heat::cost(t.num_cells()),
                        "heat",
                        |dv, sv, bx| {
                            kernels::heat::step_tile(dv, sv, &bx, kernels::heat::DEFAULT_FAC)
                        },
                    )?;
                }
                Ok(())
            },
        )
        .expect("supervised bench run completes")
    };

    let intervals = [0u64, 16, 8, 4, 2, 1];
    let mut clean = Series::new("fault-free");
    let mut crashed = Series::new("crash at midpoint");
    let mut lost = String::from("lost virtual time after the crash:");
    for iv in intervals {
        let label = if iv == 0 {
            "no ckpt".to_string()
        } else {
            format!("every {iv}")
        };
        clean.push(label.clone(), run(iv, false).elapsed.as_ms_f64());
        let o = run(iv, true);
        crashed.push(label, o.elapsed.as_ms_f64());
        lost.push_str(&format!(
            " [{iv}: {:.2}ms]",
            o.counters.recovery_time.as_ms_f64()
        ));
    }
    fig.series.extend([clean, crashed]);
    fig.notes.push(
        "each snapshot drains dirty regions to the host, so tight intervals tax the \
         fault-free run; after a crash the un-checkpointed suffix is replayed, so loose \
         intervals pay on recovery"
            .into(),
    );
    fig.notes.push(lost);
    fig
}

/// R2 (PR 3): host-side cost of always-on transfer digests. Digest
/// verification spends host CPU time, not virtual device time — the
/// schedule is byte-identical either way — so this figure reports
/// wall-clock milliseconds for backed heat runs with the defenses off,
/// with digests on, and with digests plus the deep hazard tracker.
pub fn integrity_overhead(scale: Scale) -> FigData {
    use gpu_sim::GpuSystem;
    use std::sync::Arc;
    use std::time::Instant;
    use tida::{tiles_of, Decomposition, Domain, ExchangeMode, RegionSpec, TileArray, TileSpec};
    use tida_acc::TileAcc;

    let (n, steps, region_counts): (i64, usize, &[usize]) = match scale {
        Scale::Paper => (96, 12, &[4, 8, 16]),
        Scale::Quick => (32, 6, &[2, 4, 8]),
    };
    let mut fig = FigData::new(
        format!("R2: digest-verification overhead, backed heat {n}^3, {steps} steps"),
        "host time [ms]",
    );

    // Returns (wall-clock ms, digests verified, virtual elapsed).
    let run = |regions: usize, digests: bool, deep: bool| {
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(regions),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        ua.fill_valid(baselines::heat::heat_init());

        let mut gpu = GpuSystem::with_backing(cfg(), true);
        gpu.set_integrity_checking(digests);
        gpu.set_deep_hazard_tracking(deep);
        let mut acc = TileAcc::new(gpu, AccOptions::paper());
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let tiles = tiles_of(&decomp, TileSpec::RegionSized);
        let fac = kernels::heat::DEFAULT_FAC;

        let t0 = Instant::now();
        let (mut src, mut dst) = (a, b);
        for _ in 0..steps {
            acc.fill_boundary(src).unwrap();
            for &t in &tiles {
                acc.compute2(t, dst, src, kernels::heat::cost(t.num_cells()), "heat", {
                    move |d, s, bx| kernels::heat::step_tile(d, s, &bx, fac)
                })
                .unwrap();
            }
            std::mem::swap(&mut src, &mut dst);
        }
        acc.sync_to_host(src).unwrap();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = acc.gpu().integrity_stats();
        assert_eq!(stats.detected, 0, "fault-free run must stay clean");
        (wall_ms, stats.verified, acc.finish())
    };

    let mut off = Series::new("defenses off");
    let mut digests = Series::new("digests");
    let mut full = Series::new("digests + deep hazards");
    let mut counts = String::from("digests verified per run:");
    for &r in region_counts {
        let label = format!("{r} regions");
        let (ms_off, _, t_off) = run(r, false, false);
        let (ms_dig, verified, t_dig) = run(r, true, false);
        let (ms_full, _, t_full) = run(r, true, true);
        assert!(verified > 0, "digest path must actually run");
        assert_eq!(t_off, t_dig, "verification must not perturb the schedule");
        assert_eq!(t_off, t_full, "deep tracking must not perturb the schedule");
        off.push(label.clone(), ms_off);
        digests.push(label.clone(), ms_dig);
        full.push(label, ms_full);
        counts.push_str(&format!(" [{r}r: {verified}]"));
    }
    fig.series.extend([off, digests, full]);
    fig.notes.push(
        "virtual elapsed time is identical across all three modes (asserted); on the host \
         the digest layer hashes a device slab (word-wide, eight bytes per step) once after \
         each write that lands on it, the whole slab even for a partial ghost landing, and \
         verifies a slab nobody wrote since its last digest by comparing write stamps"
            .into(),
    );
    fig.notes.push(counts);
    fig
}

/// One run of the overlap-scheduler benchmark (see [`overlap_bench`]):
/// makespan, how much transfer time was hidden behind compute, the
/// critical-path split, and the runtime's caching/prefetch counters.
#[derive(Debug, Clone, serde::Serialize)]
pub struct OverlapRun {
    pub label: String,
    pub lookahead: usize,
    pub makespan_ms: f64,
    /// Fraction of H2D busy time concurrent with compute, in `[0,1]`.
    pub h2d_overlap_fraction: f64,
    /// Fraction of D2H busy time concurrent with compute, in `[0,1]`.
    pub d2h_overlap_fraction: f64,
    /// Critical-path milliseconds attributed to transfers (h2d + d2h).
    pub transfer_critical_ms: f64,
    /// Critical-path milliseconds attributed to kernels.
    pub compute_critical_ms: f64,
    /// Critical-path milliseconds attributed to host work.
    pub host_critical_ms: f64,
    pub loads: u64,
    pub hits: u64,
    pub prefetch_loads: u64,
    pub prefetch_hits: u64,
    pub prefetch_fallbacks: u64,
    pub evictions: u64,
    pub writebacks_deferred: u64,
}

/// The full `BENCH_overlap.json` payload: the no-prefetch LRU baseline, the
/// automatic scheduler, the headline makespan reduction, and (optionally)
/// a lookahead sweep.
#[derive(Debug, Clone, serde::Serialize)]
pub struct OverlapBench {
    pub workload: String,
    pub baseline: OverlapRun,
    pub auto_sched: OverlapRun,
    /// Makespan reduction of `auto_sched` over `baseline`, in percent.
    pub reduction_pct: f64,
    pub sweep: Vec<OverlapRun>,
}

/// Drive out-of-core heat through `TileAcc` directly (the figure drivers'
/// [`baselines::RunResult`] carries no `AccStats`). Returns the run metrics
/// plus the final field (backed runs only) for bit-identity checks.
#[allow(clippy::too_many_arguments)]
fn overlap_heat_run(
    n: i64,
    steps: usize,
    regions: usize,
    slots: usize,
    lookahead: usize,
    policy: SlotPolicy,
    auto_step: bool,
    backed: bool,
    label: &str,
) -> (OverlapRun, Option<Vec<f64>>) {
    use gpu_sim::GpuSystem;
    use std::sync::Arc;
    use tida::{tiles_of, Decomposition, Domain, ExchangeMode, RegionSpec, TileArray, TileSpec};
    use tida_acc::TileAcc;

    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(regions),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, backed);
    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, backed);
    ua.fill_valid(baselines::heat::heat_init());

    // The overlap scheduler targets the interconnect-starved regime (the
    // paper's out-of-core motivation): a K40m behind a narrow PCIe link
    // (Gen3 x4-class), where staging is the bottleneck and every byte the
    // scheduler avoids moving — Belady keeps hot regions resident, clean
    // write-backs are skipped — comes straight off the critical path. Both
    // runs share this config, so the comparison stays apples-to-apples.
    let mut machine = cfg();
    machine.name = "Tesla K40m / PCIe Gen3 x4".to_string();
    machine.h2d_pinned_bw = 3.3e9;
    machine.d2h_pinned_bw = 3.5e9;
    machine.host_stage_bw = 3.0e9;
    let mut gpu = GpuSystem::with_backing(machine, backed);
    gpu.set_tracing(true);
    let mut opts = AccOptions::paper()
        .with_policy(policy)
        .with_lookahead(lookahead);
    opts.max_slots = Some(slots);
    let mut acc = TileAcc::new(gpu, opts);
    let a = acc.register(&ua);
    let b = acc.register(&ub);
    let tiles = tiles_of(&decomp, TileSpec::RegionSized);
    let fac = kernels::heat::DEFAULT_FAC;
    let (mut src, mut dst) = (a, b);
    for _ in 0..steps {
        if auto_step {
            acc.begin_step().unwrap();
        }
        acc.fill_boundary(src).unwrap();
        for &t in &tiles {
            acc.compute2(
                t,
                dst,
                src,
                kernels::heat::cost(t.num_cells()),
                "heat",
                move |d, s, bx| kernels::heat::step_tile(d, s, &bx, fac),
            )
            .unwrap();
        }
        std::mem::swap(&mut src, &mut dst);
    }
    acc.sync_to_host(src).unwrap();
    let report = acc.report();
    assert!(
        !report.hazards.any(),
        "overlap bench must be hazard-free: {:?}",
        report.hazards
    );
    let trace = acc.gpu().trace();
    let stats = acc.stats();
    let crit_ms = |cat: &str| {
        report
            .critical_by_category
            .get(cat)
            .copied()
            .unwrap_or(gpu_sim::SimTime::ZERO)
            .as_ms_f64()
    };
    let run = OverlapRun {
        label: label.to_string(),
        lookahead,
        makespan_ms: report.elapsed.as_ms_f64(),
        // Single-device engine lanes: 0 = h2d, 1 = d2h, 2 = compute.
        h2d_overlap_fraction: trace.overlap_fraction(0, 2),
        d2h_overlap_fraction: trace.overlap_fraction(1, 2),
        transfer_critical_ms: crit_ms("h2d") + crit_ms("d2h"),
        compute_critical_ms: crit_ms("kernel"),
        host_critical_ms: crit_ms("host") + crit_ms("hostfn"),
        loads: stats.loads,
        hits: stats.hits,
        prefetch_loads: stats.prefetch_loads,
        prefetch_hits: stats.prefetch_hits,
        prefetch_fallbacks: stats.prefetch_fallbacks,
        evictions: stats.evictions,
        writebacks_deferred: stats.writebacks_deferred,
    };
    let data = if backed {
        let arr = if src == a { &ua } else { &ub };
        arr.to_dense()
    } else {
        None
    };
    (run, data)
}

/// R3 (PR 4): the automatic lookahead-prefetch overlap scheduler on
/// out-of-core heat — more regions than device slots, so every step stages
/// regions in and out. The baseline is the plain LRU pool with no
/// prefetching; the automatic run records the step plan, prefetches
/// `lookahead` steps ahead into idle slot streams, evicts by reuse
/// distance, and defers clean write-backs. Backed at quick scale, so the
/// two runs are also checked bit-identical.
pub fn overlap_bench(scale: Scale, lookahead: usize, sweep: bool) -> OverlapBench {
    let (n, steps, regions, slots, backed) = match scale {
        Scale::Paper => (128i64, 24usize, 8usize, 7usize, false),
        Scale::Quick => (64, 16, 8, 7, true),
    };
    let workload = format!(
        "out-of-core heat {n}^3, {steps} steps, {regions} regions x 2 arrays, {slots} slots"
    );
    let (baseline, base_data) = overlap_heat_run(
        n,
        steps,
        regions,
        slots,
        0,
        SlotPolicy::Lru,
        false,
        backed,
        "lru-no-prefetch",
    );
    let (auto_sched, auto_data) = overlap_heat_run(
        n,
        steps,
        regions,
        slots,
        lookahead,
        SlotPolicy::ReuseDistance,
        true,
        backed,
        "auto-overlap",
    );
    if backed {
        assert_eq!(
            base_data, auto_data,
            "the automatic scheduler must not change results"
        );
    }
    let reduction_pct = (1.0 - auto_sched.makespan_ms / baseline.makespan_ms.max(1e-12)) * 100.0;
    let sweep_runs = if sweep {
        [0usize, 1, 2, 4]
            .iter()
            .map(|&l| {
                overlap_heat_run(
                    n,
                    steps,
                    regions,
                    slots,
                    l,
                    SlotPolicy::ReuseDistance,
                    true,
                    backed,
                    &format!("auto-overlap-L{l}"),
                )
                .0
            })
            .collect()
    } else {
        Vec::new()
    };
    OverlapBench {
        workload,
        baseline,
        auto_sched,
        reduction_pct,
        sweep: sweep_runs,
    }
}

// ----------------------------------------------------------------------
// The temporal-blocking bench (BENCH_temporal): staged-byte amortization.
// ----------------------------------------------------------------------

/// One fused temporal-blocking run at a fixed depth `k`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TemporalRun {
    pub label: String,
    /// Fusion depth: time steps executed per region residency.
    pub depth: usize,
    pub makespan_ms: f64,
    /// Host→device bytes staged over the whole run.
    pub staged_bytes_h2d: u64,
    pub staged_bytes_d2h: u64,
    /// Host→device bytes per computed time step — the quantity temporal
    /// blocking amortizes and the gate measures.
    pub staged_bytes_per_step: f64,
    pub transfer_critical_ms: f64,
    pub compute_critical_ms: f64,
    pub loads: u64,
    pub hits: u64,
    pub fused_launches: u64,
    pub fused_substeps: u64,
}

/// The `BENCH_temporal.json` payload: the k=1 baseline vs the
/// automatically chosen depth, plus an optional depth sweep.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TemporalBench {
    pub workload: String,
    /// Depth 1 through the same fused planner path (the control).
    pub baseline: TemporalRun,
    /// The automatically chosen depth.
    pub fused: TemporalRun,
    /// Depth picked by [`tida_acc::recommend_fusion_depth`] from the
    /// baseline's transfer/compute critical-path split.
    pub auto_depth: usize,
    /// Deepest halo the decomposition supports (thinnest region extent).
    pub halo_cap: usize,
    /// `baseline.staged_bytes_per_step / fused.staged_bytes_per_step` —
    /// how many× fewer bytes each computed step stages. The CI gate pins
    /// this at >= 1.5.
    pub staging_amortization_x: f64,
    pub makespan_speedup_x: f64,
    pub sweep: Vec<TemporalRun>,
}

/// Drive out-of-core heat through the fused `TileAcc` path at depth `k` on
/// the interconnect-starved machine (same PCIe Gen3 x4-class link as the
/// overlap bench). Returns the run metrics plus the final field (backed
/// runs only) for bit-identity checks.
fn temporal_heat_run(
    n: i64,
    steps: usize,
    regions: usize,
    slots: usize,
    depth: usize,
    backed: bool,
    label: &str,
) -> (TemporalRun, Option<Vec<f64>>) {
    use gpu_sim::GpuSystem;
    use std::sync::Arc;
    use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};
    use tida_acc::TileAcc;

    assert!(
        steps.is_multiple_of(depth),
        "steps ({steps}) must be a multiple of the depth ({depth})"
    );
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(regions),
    ));
    let mode = if depth == 1 {
        ExchangeMode::Faces
    } else {
        ExchangeMode::Full
    };
    let ua = TileArray::new(decomp.clone(), depth as i64, mode, backed);
    let ub = TileArray::new(decomp.clone(), depth as i64, mode, backed);
    ua.fill_valid(baselines::heat::heat_init());

    // Same interconnect-starved regime as the overlap bench: a K40m behind
    // a narrow PCIe link, where staging dominates and deeper fusion buys
    // k× fewer trips per computed step.
    let mut machine = cfg();
    machine.name = "Tesla K40m / PCIe Gen3 x4".to_string();
    machine.h2d_pinned_bw = 3.3e9;
    machine.d2h_pinned_bw = 3.5e9;
    machine.host_stage_bw = 3.0e9;
    let mut gpu = GpuSystem::with_backing(machine, backed);
    gpu.set_tracing(true);
    let mut opts = AccOptions::paper()
        .with_policy(SlotPolicy::ReuseDistance)
        .with_lookahead(2);
    opts.max_slots = Some(slots);
    let mut acc = TileAcc::new(gpu, opts);
    let a = acc.register(&ua);
    let b = acc.register(&ub);
    let fac = kernels::heat::DEFAULT_FAC;
    let (mut src, mut dst) = (a, b);
    for _ in 0..steps / depth {
        acc.begin_step().unwrap();
        acc.fill_boundary(src).unwrap();
        for r in 0..decomp.num_regions() {
            let valid = decomp.region_box(r);
            acc.compute_fused(
                r,
                dst,
                src,
                depth,
                kernels::heat::fused_cost(depth, &valid),
                "heat-fused",
                move |d, s, bx| kernels::heat::step_tile(d, s, &bx, fac),
            )
            .unwrap();
        }
        if depth % 2 == 1 {
            std::mem::swap(&mut src, &mut dst);
        }
    }
    acc.sync_to_host(src).unwrap();
    let report = acc.report();
    assert!(
        !report.hazards.any(),
        "temporal bench must be hazard-free: {:?}",
        report.hazards
    );
    let stats = acc.stats();
    assert_eq!(stats.integrity_detected, 0, "temporal bench must be clean");
    let crit_ms = |cat: &str| {
        report
            .critical_by_category
            .get(cat)
            .copied()
            .unwrap_or(gpu_sim::SimTime::ZERO)
            .as_ms_f64()
    };
    let bytes_h2d = acc.gpu().stats_bytes_h2d();
    let run = TemporalRun {
        label: label.to_string(),
        depth,
        makespan_ms: report.elapsed.as_ms_f64(),
        staged_bytes_h2d: bytes_h2d,
        staged_bytes_d2h: acc.gpu().stats_bytes_d2h(),
        staged_bytes_per_step: bytes_h2d as f64 / steps as f64,
        transfer_critical_ms: crit_ms("h2d") + crit_ms("d2h"),
        compute_critical_ms: crit_ms("kernel"),
        loads: stats.loads,
        hits: stats.hits,
        fused_launches: stats.kernels_fused,
        fused_substeps: stats.fused_substeps,
    };
    let data = if backed {
        let arr = if src == a { &ua } else { &ub };
        arr.to_dense()
    } else {
        None
    };
    (run, data)
}

/// The temporal-blocking bench behind the `temporal` bin and the CI
/// `temporal-gate` lane.
///
/// A depth-1 probe run measures the transfer/compute critical-path split
/// (the same numbers `BENCH_overlap.json` reports);
/// [`tida_acc::recommend_fusion_depth`] turns that split into a depth,
/// capped by the decomposition's halo limit
/// ([`tida::Decomposition::max_ghost_depth`]) and step-count
/// divisibility; the fused run then executes that many time steps per
/// residency. Backed at quick scale, where baseline and fused runs are
/// also checked bit-identical.
pub fn temporal_bench(scale: Scale, sweep: bool) -> TemporalBench {
    use std::sync::Arc;
    use tida::{Decomposition, Domain, RegionSpec};

    let (n, steps, regions, slots, backed) = match scale {
        Scale::Paper => (128i64, 48usize, 16usize, 4usize, false),
        Scale::Quick => (64, 24, 8, 4, true),
    };
    let workload = format!(
        "out-of-core heat {n}^3, {steps} steps, {regions} regions x 2 arrays, {slots} slots, \
         PCIe Gen3 x4-class link"
    );
    let halo_cap = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(regions),
    ))
    .max_ghost_depth() as usize;

    let (baseline, base_data) = temporal_heat_run(n, steps, regions, slots, 1, backed, "depth-1");
    // Pick k from the probe's critical-path split, capped by what the halo
    // and the step count allow.
    let mut cap = halo_cap.min(steps);
    while cap > 1 && !steps.is_multiple_of(cap) {
        cap -= 1;
    }
    let auto_depth = tida_acc::recommend_fusion_depth(
        baseline.transfer_critical_ms,
        baseline.compute_critical_ms,
        cap,
    );
    let (fused, fused_data) = temporal_heat_run(
        n,
        steps,
        regions,
        slots,
        auto_depth,
        backed,
        &format!("auto-depth-{auto_depth}"),
    );
    if backed {
        assert_eq!(
            base_data, fused_data,
            "fusion must not change results (depth {auto_depth})"
        );
    }
    let staging_amortization_x =
        baseline.staged_bytes_per_step / fused.staged_bytes_per_step.max(1e-12);
    let makespan_speedup_x = baseline.makespan_ms / fused.makespan_ms.max(1e-12);
    let sweep_runs = if sweep {
        [1usize, 2, 4, 8]
            .iter()
            .filter(|&&k| k <= cap && steps.is_multiple_of(k))
            .map(|&k| {
                temporal_heat_run(n, steps, regions, slots, k, backed, &format!("depth-{k}")).0
            })
            .collect()
    } else {
        Vec::new()
    };
    TemporalBench {
        workload,
        baseline,
        fused,
        auto_depth,
        halo_cap,
        staging_amortization_x,
        makespan_speedup_x,
        sweep: sweep_runs,
    }
}

/// The options struct used across the harness (re-exported for benches).
pub fn paper_acc_options() -> AccOptions {
    AccOptions::paper()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Quick-scale smoke tests that also assert the headline shapes.

    #[test]
    fn overlap_bench_auto_scheduler_cuts_makespan() {
        let b = overlap_bench(Scale::Quick, 2, false);
        assert!(
            b.reduction_pct >= 15.0,
            "automatic scheduler must cut the out-of-core makespan by >= 15%: \
             baseline {:.3}ms auto {:.3}ms ({:.1}%)",
            b.baseline.makespan_ms,
            b.auto_sched.makespan_ms,
            b.reduction_pct
        );
        assert!(b.auto_sched.prefetch_loads > 0, "prefetches must be issued");
        assert!(b.auto_sched.prefetch_hits > 0, "prefetches must be used");
        assert!(
            b.auto_sched.loads < b.baseline.loads,
            "reuse-distance eviction must avoid reloads: {} vs {}",
            b.auto_sched.loads,
            b.baseline.loads
        );
        assert!(
            b.auto_sched.transfer_critical_ms < b.baseline.transfer_critical_ms,
            "the scheduler must take transfer time off the critical path: {} vs {}",
            b.auto_sched.transfer_critical_ms,
            b.baseline.transfer_critical_ms
        );
    }

    #[test]
    fn checkpoint_overhead_shape_crash_costs_extra() {
        let f = checkpoint_overhead(Scale::Quick);
        let clean = f.series.iter().find(|s| s.name == "fault-free").unwrap();
        let crashed = f
            .series
            .iter()
            .find(|s| s.name == "crash at midpoint")
            .unwrap();
        assert_eq!(clean.points.len(), 6);
        assert_eq!(crashed.points.len(), 6);
        for ((l, c), (_, x)) in clean.points.iter().zip(&crashed.points) {
            assert!(
                x > c,
                "crashed run must cost more than fault-free at interval {l}: {x} <= {c}"
            );
        }
    }

    #[test]
    fn integrity_overhead_shape_three_modes_per_region_count() {
        let f = integrity_overhead(Scale::Quick);
        assert_eq!(f.series.len(), 3);
        for s in &f.series {
            assert_eq!(s.points.len(), 3, "{}", s.name);
            for (l, ms) in &s.points {
                assert!(*ms > 0.0, "{}/{l}", s.name);
            }
        }
        // Wall-clock noise forbids ordering asserts; the schedule-equality
        // and verified-count invariants are asserted inside the runner.
    }

    #[test]
    fn fig1_shape_pinned_fastest_managed_slowest() {
        let f = fig1(Scale::Quick);
        let get = |series: &str, x: &str| {
            f.series
                .iter()
                .find(|s| s.name == series)
                .and_then(|s| s.points.iter().find(|(l, _)| l == x))
                .map(|&(_, v)| v)
                .unwrap()
        };
        for model in ["CUDA", "OpenACC", "CUDAmem+OpenACCkern"] {
            assert!(get(model, "pinned") < get(model, "pageable"), "{model}");
            assert!(get(model, "pageable") < get(model, "managed"), "{model}");
        }
        // CUDA beats OpenACC within each memory class.
        for mem in ["pageable", "pinned", "managed"] {
            assert!(get("CUDA", mem) < get("OpenACC", mem), "{mem}");
        }
    }

    #[test]
    fn fig5_shape_tida_wins_low_iters_and_converges() {
        // Shape assertions hold at the paper's 512^3 scale (fixed launch
        // overheads distort the quick scale); timing-only runs are cheap.
        let f = fig5(Scale::Paper);
        let get = |series: &str, x: &str| {
            f.series
                .iter()
                .find(|s| s.name == series)
                .and_then(|s| s.points.iter().find(|(l, _)| l == x))
                .map(|&(_, v)| v)
                .unwrap()
        };
        // At 1 iteration TiDA-acc has the highest speedup.
        assert!(get("TiDA-acc(16r)", "1") > get("CUDA-pinned", "1"));
        assert!(get("TiDA-acc(16r)", "1") > get("OpenACC-pageable", "1"));
        // The TiDA-acc advantage over CUDA-pinned shrinks with iterations.
        let ratio_1 = get("TiDA-acc(16r)", "1") / get("CUDA-pinned", "1");
        let ratio_100 = get("TiDA-acc(16r)", "100") / get("CUDA-pinned", "100");
        assert!(ratio_100 < ratio_1);
    }

    #[test]
    fn fig6_shape_math_ordering() {
        let f = fig6(Scale::Quick);
        let s = &f.series[0];
        let get = |x: &str| {
            s.points
                .iter()
                .find(|(l, _)| l == x)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("CUDA") > get("OpenACC-pageable"));
        assert!(get("CUDA") > get("CUDA-pinned-fastmath"));
        assert!(get("CUDA") > get("TiDA-acc(16r)"));
    }

    #[test]
    fn fig7_gantt_shows_overlap() {
        let g = fig7();
        assert!(g.contains("h2d"));
        assert!(g.contains("compute"));
        assert!(!g.contains("h2d||compute 0ns"));
    }

    #[test]
    fn fig8_shape_limited_close_to_full() {
        let f = fig8(Scale::Quick);
        let s = &f.series[0];
        let get = |x: &str| {
            s.points
                .iter()
                .find(|(l, _)| l == x)
                .map(|&(_, v)| v)
                .unwrap()
        };
        let full = get("TiDA-acc(16r)");
        let limited = get("TiDA-acc(16r,2slots)");
        let single = get("TiDA-acc(1r)");
        assert!(limited / full < 1.10, "limited {limited} vs full {full}");
        // The single-region configuration is close too (no library overhead).
        assert!(single / full < 1.15, "single {single} vs full {full}");
    }

    #[test]
    fn extension_nvlink_preserves_low_iter_ordering() {
        let f = nvlink_whatif(Scale::Paper);
        let get = |series: &str, x: &str| {
            f.series
                .iter()
                .find(|s| s.name == series)
                .and_then(|s| s.points.iter().find(|(l, _)| l == x))
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("TiDA-acc(16r)", "1") > get("CUDA-pinned", "1"));
    }

    #[test]
    fn extension_multi_gpu_two_devices_beat_one() {
        let f = multi_gpu_scaling(Scale::Paper);
        let s = &f.series[0];
        let get = |x: &str| {
            s.points
                .iter()
                .find(|(l, _)| l == x)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("2gpu") < get("1gpu"));
    }

    #[test]
    fn extension_interconnect_monotone_in_bandwidth() {
        // Slower links -> overlap matters more: the speedup series must be
        // (weakly) decreasing in bandwidth.
        let f = interconnect_sweep(Scale::Paper);
        let vals: Vec<f64> = f.series[0].points.iter().map(|&(_, v)| v).collect();
        for w in vals.windows(2) {
            assert!(
                w[0] >= w[1] * 0.98,
                "speedup should fall as links speed up: {vals:?}"
            );
        }
        // At 0.25x bandwidth, overlap is decisive.
        assert!(vals[0] > 1.3, "slow-link speedup {vals:?}");
    }

    #[test]
    fn extension_crossover_gpu_wins_large_cpu_wins_small() {
        let f = cpu_gpu_crossover(Scale::Paper);
        let get = |series: &str, x: &str| {
            f.series
                .iter()
                .find(|s| s.name == series)
                .and_then(|s| s.points.iter().find(|(l, _)| l == x))
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("TiDA-acc GPU path", "512^3") < get("TiDA-acc CPU path", "512^3"));
        assert!(get("TiDA-acc CPU path", "16^3") < get("TiDA-acc GPU path", "16^3"));
    }

    #[test]
    fn extension_temporal_blocking_wins_when_staging() {
        let f = temporal_blocking(Scale::Paper);
        let s = &f.series[0];
        let get = |x: &str| {
            s.points
                .iter()
                .find(|(l, _)| l == x)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("block 4") < get("block 2"));
        assert!(get("block 2") < get("block 1"));
    }

    #[test]
    fn temporal_bench_amortizes_staged_bytes() {
        // Quick scale is backed, so temporal_bench also asserts the fused
        // run bit-identical to the depth-1 baseline internally.
        let b = temporal_bench(Scale::Quick, true);
        assert!(
            b.auto_depth >= 2,
            "the PCIe-starved regime must pick a depth > 1, got {}",
            b.auto_depth
        );
        assert!(
            b.staging_amortization_x >= 1.5,
            "fusion must stage >= 1.5x fewer bytes per computed step: \
             {:.0} B/step baseline vs {:.0} B/step fused ({:.2}x)",
            b.baseline.staged_bytes_per_step,
            b.fused.staged_bytes_per_step,
            b.staging_amortization_x
        );
        assert!(
            b.fused.makespan_ms < b.baseline.makespan_ms,
            "fusion must beat the depth-1 makespan: {:.3}ms vs {:.3}ms",
            b.fused.makespan_ms,
            b.baseline.makespan_ms
        );
        assert_eq!(
            b.fused.fused_substeps,
            b.fused.fused_launches * b.auto_depth as u64,
            "every fused launch must amortize exactly k sub-steps"
        );
        // The sweep is monotone in staged bytes: deeper always stages less.
        let per_step: Vec<f64> = b.sweep.iter().map(|r| r.staged_bytes_per_step).collect();
        for w in per_step.windows(2) {
            assert!(
                w[1] < w[0],
                "staged bytes/step must fall with depth: {per_step:?}"
            );
        }
    }

    #[test]
    fn ablation_ghost_device_wins() {
        let f = ablation_ghost(Scale::Quick);
        let s = &f.series[0];
        let get = |x: &str| {
            s.points
                .iter()
                .find(|(l, _)| l == x)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("device-ghosts") < get("host-ghosts"));
    }

    #[test]
    fn ablation_transfers_paper_defaults_fastest() {
        let f = ablation_transfers(Scale::Quick);
        let s = &f.series[0];
        let get = |x: &str| {
            s.points
                .iter()
                .find(|(l, _)| l == x)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("paper-defaults") <= get("upload-written"));
    }
}
