//! Schedule-controllable programs under test: raw stream programs at the
//! `gpu-sim` level and full TileAcc step programs, each packaged as a
//! [`Program`] closure the explorer can replay under any oracle.
//!
//! Every program records a span trace only when the oracle asks
//! ([`ControlOracle::tracing`]); otherwise it returns an empty [`Trace`].

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, Transport};
use desim::{ScheduleOracle, Trace};
use gpu_sim::{FaultPlan, GpuSystem, HostMemKind, KernelLaunch, MachineConfig};
use kernels::{heat, init};
use tida::{tiles_of, Box3, Decomposition, Domain, ExchangeMode, RegionSpec, TileArray, TileSpec};
use tida_acc::{AccOptions, SlotPolicy, TileAcc};

use crate::control::ControlOracle;
use crate::explore::{fnv_digest, Program, RunOutcome};

/// Install the oracle on `gpu` and switch span tracing to its request.
/// Returns whether this run is traced.
fn install(gpu: &mut GpuSystem, oracle: Rc<RefCell<ControlOracle>>) -> bool {
    let traced = oracle.borrow().tracing();
    gpu.set_tracing(traced);
    gpu.set_schedule_oracle(Some(oracle as Rc<RefCell<dyn ScheduleOracle>>));
    traced
}

/// The run's trace if it was asked for, else an empty one.
fn trace_if(traced: bool, trace: impl FnOnce() -> Trace) -> Trace {
    if traced {
        trace()
    } else {
        Trace::default()
    }
}

/// Two independent ghost-exchange pipelines: per stream, H2D a halo slab,
/// run a kernel over it, D2H the result. Six ops, two three-op chains with
/// disjoint buffers — the canonical small program for exhaustive
/// enumeration (C(6,3) = 20 linearizations).
pub fn ghost_exchange() -> Program {
    Box::new(|oracle| {
        const LEN: usize = 64;
        let mut gpu = GpuSystem::new(MachineConfig::k40m());
        gpu.set_hazard_checking(true);
        let traced = install(&mut gpu, oracle);

        let mut hosts = Vec::new();
        for s in 0..2u64 {
            let h = gpu.malloc_host(LEN, HostMemKind::Pinned);
            gpu.host_slab(h).with_mut(|d| {
                if let Some(d) = d {
                    for (i, v) in d.iter_mut().enumerate() {
                        *v = (s * 1000 + i as u64) as f64;
                    }
                }
            });
            let d_in = gpu.malloc_device(LEN).expect("device alloc");
            let d_out = gpu.malloc_device(LEN).expect("device alloc");
            let stream = gpu.create_stream();
            gpu.memcpy_h2d_async(d_in, 0, h, 0, LEN, stream);
            let (src, dst) = (gpu.device_slab(d_in), gpu.device_slab(d_out));
            gpu.launch_kernel(
                stream,
                KernelLaunch::new("ghost", gpu_sim::KernelCost::Bytes(16 * LEN as u64))
                    .reads(d_in.into())
                    .writes(d_out.into())
                    .exec(move || {
                        src.with(|s| {
                            dst.with_mut(|d| {
                                if let (Some(s), Some(d)) = (s, d) {
                                    for (o, i) in d.iter_mut().zip(s) {
                                        *o = i.mul_add(2.0, 1.0);
                                    }
                                }
                            })
                        })
                    }),
            );
            gpu.memcpy_d2h_async(h, 0, d_out, 0, LEN, stream);
            hosts.push(h);
        }
        let makespan = gpu.finish();
        let mut result: Vec<f64> = Vec::with_capacity(2 * LEN);
        for &h in &hosts {
            result.extend(gpu.host_slab(h).snapshot().expect("backed run"));
        }
        let digest = fnv_digest(&result);
        RunOutcome {
            digest,
            result,
            hazards: gpu.hazard_counters().total(),
            integrity_detected: gpu.integrity_stats().detected,
            stats: None,
            trace: trace_if(traced, || gpu.trace()),
            decisions: Vec::new(),
            makespan,
        }
    })
}

/// A cross-stream producer/consumer: stream 0 uploads `devX`, stream 1 runs
/// a kernel reading `devX`. With `bug = true` the event dependency tying
/// the kernel to the upload is dropped — under FIFO admission the upload
/// still happens to land first (latent bug), but some legal schedule admits
/// the kernel before the copy and reads stale data. A second independent
/// pipeline rides along to give the shrinker noise to strip.
pub fn racy_ghost(bug: bool) -> Program {
    Box::new(move |oracle| {
        const LEN: usize = 32;
        let mut gpu = GpuSystem::new(MachineConfig::k40m());
        gpu.set_hazard_checking(true);
        let traced = install(&mut gpu, oracle);

        let h_x = gpu.malloc_host(LEN, HostMemKind::Pinned);
        gpu.host_slab(h_x).with_mut(|d| {
            if let Some(d) = d {
                for (i, v) in d.iter_mut().enumerate() {
                    *v = 1.0 + i as f64;
                }
            }
        });
        let h_y = gpu.malloc_host(LEN, HostMemKind::Pinned);
        let dev_x = gpu.malloc_device(LEN).expect("device alloc");
        let dev_y = gpu.malloc_device(LEN).expect("device alloc");

        let s0 = gpu.create_stream();
        let s1 = gpu.create_stream();
        gpu.memcpy_h2d_async(dev_x, 0, h_x, 0, LEN, s0);
        if !bug {
            let ev = gpu.record_event(s0);
            gpu.stream_wait_event(s1, ev);
        }
        let (src, dst) = (gpu.device_slab(dev_x), gpu.device_slab(dev_y));
        gpu.launch_kernel(
            s1,
            KernelLaunch::new("consume", gpu_sim::KernelCost::Bytes(16 * LEN as u64))
                .reads(dev_x.into())
                .writes(dev_y.into())
                .exec(move || {
                    src.with(|s| {
                        dst.with_mut(|d| {
                            if let (Some(s), Some(d)) = (s, d) {
                                for (o, i) in d.iter_mut().zip(s) {
                                    *o = *i + 0.5;
                                }
                            }
                        })
                    })
                }),
        );
        gpu.memcpy_d2h_async(h_y, 0, dev_y, 0, LEN, s1);

        // Independent bystander pipeline on its own stream and buffers.
        let h_z = gpu.malloc_host(LEN, HostMemKind::Pinned);
        gpu.host_slab(h_z).with_mut(|d| {
            if let Some(d) = d {
                d.fill(3.0);
            }
        });
        let dev_z = gpu.malloc_device(LEN).expect("device alloc");
        let s2 = gpu.create_stream();
        gpu.memcpy_h2d_async(dev_z, 0, h_z, 0, LEN, s2);
        let z = gpu.device_slab(dev_z);
        gpu.launch_kernel(
            s2,
            KernelLaunch::new("bystander", gpu_sim::KernelCost::Bytes(16 * LEN as u64))
                .reads(dev_z.into())
                .writes(dev_z.into())
                .exec(move || {
                    z.with_mut(|d| {
                        if let Some(d) = d {
                            for v in d.iter_mut() {
                                *v *= 2.0;
                            }
                        }
                    })
                }),
        );
        gpu.memcpy_d2h_async(h_z, 0, dev_z, 0, LEN, s2);

        let makespan = gpu.finish();
        let mut result = gpu.host_slab(h_y).snapshot().expect("backed run");
        result.extend(gpu.host_slab(h_z).snapshot().expect("backed run"));
        let digest = fnv_digest(&result);
        RunOutcome {
            digest,
            result,
            hazards: gpu.hazard_counters().total(),
            integrity_detected: gpu.integrity_stats().detected,
            stats: None,
            trace: trace_if(traced, || gpu.trace()),
            decisions: Vec::new(),
            makespan,
        }
    })
}

/// Knobs for the TileAcc heat step program.
#[derive(Debug, Clone, Copy)]
pub struct HeatConfig {
    pub seed: u64,
    pub steps: usize,
    /// Transient-fault rate for the fault plan (0.0 = clean machine).
    pub transient_rate: f64,
    /// Checkpoint *between `begin_step`'s prefetch issue and the step's
    /// kernels*, then restore immediately and replay the step — exercising
    /// mid-flight crash consistency as extra schedule choice points.
    pub restore_mid_step: Option<usize>,
}

impl Default for HeatConfig {
    fn default() -> Self {
        HeatConfig {
            seed: 7,
            steps: 6,
            transient_rate: 0.0,
            restore_mid_step: None,
        }
    }
}

/// Out-of-core double-buffered heat (n=8, 4 regions, 3 slots) under the
/// automatic scheduler: ReuseDistance eviction, lookahead-2 prefetch —
/// the PR 4 configuration, now schedule-controlled. Ghost exchange,
/// prefetch + evict, and (optionally) fault timings and mid-flight
/// checkpoint/restore all contribute choice points.
pub fn heat_overlap(cfg: HeatConfig) -> Program {
    Box::new(move |oracle| {
        let n = 8i64;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(4),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        ua.fill_valid(init::hash_field(cfg.seed));

        let mut plan = FaultPlan::none().with_seed(cfg.seed ^ 0xA5A5);
        if cfg.transient_rate > 0.0 {
            plan = plan.with_transient(cfg.transient_rate);
        }
        let mut gpu = GpuSystem::new(MachineConfig::k40m().with_faults(plan));
        gpu.set_hazard_checking(true);
        let traced = install(&mut gpu, oracle);

        let opts = AccOptions::paper()
            .with_max_slots(3)
            .with_policy(SlotPolicy::ReuseDistance)
            .with_lookahead(2)
            .with_transfer_retries(10);
        let mut acc = TileAcc::new(gpu, opts);
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let tiles = tiles_of(&decomp, TileSpec::RegionSized);
        let (mut src, mut dst) = (a, b);
        for step in 0..cfg.steps {
            acc.begin_step().unwrap();
            if cfg.restore_mid_step == Some(step) {
                // Prefetches for this step are in flight; checkpoint (which
                // drains and evicts), restore, and replay the step's work.
                let ck = acc.checkpoint(step as u64).unwrap();
                acc.restore(&ck).unwrap();
            }
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
        let makespan = acc.finish();
        let stats = acc.stats();

        // Buffer-granularity findings between disjoint-cell ghost gathers
        // are known false positives; a real race involves a transfer
        // overlapping a kernel on one buffer (same filter as the tier-1
        // overlap properties).
        let is_transfer = |l: &str| l == "h2d" || l == "d2h";
        let hazards = acc
            .gpu_mut()
            .check_hazards()
            .iter()
            .filter(|h| is_transfer(&h.first_label) || is_transfer(&h.second_label))
            .count() as u64;

        let result = if src == a { &ua } else { &ub }
            .to_dense()
            .expect("backed run");
        let digest = fnv_digest(&result);
        RunOutcome {
            digest,
            result,
            hazards,
            integrity_detected: stats.integrity_detected,
            stats: Some(stats),
            trace: trace_if(traced, || acc.gpu().trace()),
            decisions: Vec::new(),
            makespan,
        }
    })
}

/// The analytic golden field for [`heat_overlap`] — what every explored
/// schedule's result must be bit-identical to.
pub fn heat_golden(cfg: &HeatConfig) -> Vec<f64> {
    heat::golden_run(init::hash_field(cfg.seed), 8, cfg.steps, heat::DEFAULT_FAC)
}

/// Knobs for the fused (temporal-blocking) TileAcc step program.
#[derive(Debug, Clone, Copy)]
pub struct FusedConfig {
    pub seed: u64,
    /// Fusion depth: time steps per residency. The 16³/2-region
    /// decomposition supports up to 8.
    pub depth: usize,
    /// Total time steps; must be a multiple of `depth`.
    pub steps: usize,
}

impl Default for FusedConfig {
    fn default() -> Self {
        FusedConfig {
            seed: 7,
            depth: 2,
            steps: 4,
        }
    }
}

/// Out-of-core fused heat (n=16, 2 regions, 3 slots) under the automatic
/// scheduler: each residency runs `depth` kernel applications as one fused
/// launch between full-shell ghost exchanges, with depth-`depth` halos.
/// The exchange/prefetch/fused-launch interleavings are all schedule
/// choice points; every schedule must reproduce the analytic golden field
/// bit-for-bit ([`fused_golden`]).
pub fn heat_fused(cfg: FusedConfig) -> Program {
    Box::new(move |oracle| {
        assert!(
            cfg.steps.is_multiple_of(cfg.depth),
            "steps ({}) must be a multiple of the depth ({})",
            cfg.steps,
            cfg.depth
        );
        let n = 16i64;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(2),
        ));
        let mode = if cfg.depth == 1 {
            ExchangeMode::Faces
        } else {
            ExchangeMode::Full
        };
        let ua = TileArray::new(decomp.clone(), cfg.depth as i64, mode, true);
        let ub = TileArray::new(decomp.clone(), cfg.depth as i64, mode, true);
        ua.fill_valid(init::hash_field(cfg.seed));

        let mut gpu = GpuSystem::new(MachineConfig::k40m());
        gpu.set_hazard_checking(true);
        let traced = install(&mut gpu, oracle);

        let opts = AccOptions::paper()
            .with_max_slots(3)
            .with_policy(SlotPolicy::ReuseDistance)
            .with_lookahead(2);
        let mut acc = TileAcc::new(gpu, opts);
        let a = acc.register(&ua);
        let b = acc.register(&ub);
        let (mut src, mut dst) = (a, b);
        for _ in 0..cfg.steps / cfg.depth {
            acc.begin_step().unwrap();
            acc.fill_boundary(src).unwrap();
            for r in 0..decomp.num_regions() {
                let valid = decomp.region_box(r);
                acc.compute_fused(
                    r,
                    dst,
                    src,
                    cfg.depth,
                    heat::fused_cost(cfg.depth, &valid),
                    "heat-fused",
                    |d, s, bx| heat::step_tile(d, s, &bx, heat::DEFAULT_FAC),
                )
                .unwrap();
            }
            if cfg.depth % 2 == 1 {
                std::mem::swap(&mut src, &mut dst);
            }
        }
        acc.sync_to_host(src).unwrap();
        let makespan = acc.finish();
        let stats = acc.stats();

        // Same transfer-hazard filter as `heat_overlap`: only a transfer
        // overlapping other work on a buffer is a real finding.
        let is_transfer = |l: &str| l == "h2d" || l == "d2h";
        let hazards = acc
            .gpu_mut()
            .check_hazards()
            .iter()
            .filter(|h| is_transfer(&h.first_label) || is_transfer(&h.second_label))
            .count() as u64;

        let result = if src == a { &ua } else { &ub }
            .to_dense()
            .expect("backed run");
        let digest = fnv_digest(&result);
        RunOutcome {
            digest,
            result,
            hazards,
            integrity_detected: stats.integrity_detected,
            stats: Some(stats),
            trace: trace_if(traced, || acc.gpu().trace()),
            decisions: Vec::new(),
            makespan,
        }
    })
}

/// The analytic golden field for [`heat_fused`].
pub fn fused_golden(cfg: &FusedConfig) -> Vec<f64> {
    heat::golden_run(init::hash_field(cfg.seed), 16, cfg.steps, heat::DEFAULT_FAC)
}

/// One heat step on a two-node cluster over a closed 6³ domain split into
/// three z-slabs (owner slots `[0, 0, 1]`): the smallest program whose
/// halo exchange both genuinely crosses the wire (the region-1↔2
/// interface) and shares per-node engines between regions (node 0 owns
/// two). The 6×6×2 regions have no interior at ghost 1, so the step
/// reduces to its exchange skeleton — per region a staging upload, ghost
/// deliveries on the NIC engines, the grown re-upload, and one boundary
/// kernel. Message arrivals are decision points like any other op, so the
/// explorer enumerates network delivery orders alongside the stream
/// interleavings.
///
/// The program stages through the host ([`Transport::HostStaged`]), so
/// its schedule space is a fixed reference whatever the cluster's default
/// transport.
pub fn cluster_ghost() -> Program {
    cluster_ghost_sized(6, 3, Transport::HostStaged)
}

/// [`cluster_ghost`] over the face-packed transport: only the region-1↔2
/// faces are staged, the region-0↔1 ghosts are filled on node 0's
/// device, and only the received face is uploaded.
pub fn cluster_ghost_face_packed() -> Program {
    cluster_ghost_sized(6, 3, Transport::FacePacked)
}

/// [`cluster_ghost`] with the domain edge, region count and transport
/// exposed, for sizing the exhaustive-DFS space: `Count(k)` z-slabs of a
/// closed `n`³ domain, owners assigned contiguously over two nodes.
pub fn cluster_ghost_sized(n: i64, regions: usize, transport: Transport) -> Program {
    Box::new(move |oracle| {
        let decomp = Arc::new(Decomposition::new(
            Domain::closed(Box3::cube(n)),
            RegionSpec::Count(regions),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        ua.fill_valid(init::hash_field(11));

        let mut cl = Cluster::new(ClusterConfig::new(2).transport(transport));
        let traced = oracle.borrow().tracing();
        cl.set_tracing(traced);
        cl.set_hazard_checking(true);
        cl.install_oracle(oracle as Rc<RefCell<dyn ScheduleOracle>>);

        let a = cl.register(&ua);
        let b = cl.register(&ub);
        cl.step(b, a, None, heat::cost, "heat", |d, s, _aux, bx| {
            heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
        })
        .unwrap();
        cl.sync_to_host(b).unwrap();
        let makespan = cl.finish();

        let result = ub.to_dense().expect("backed run");
        let digest = fnv_digest(&result);
        RunOutcome {
            digest,
            result,
            hazards: cl.hazard_total(),
            integrity_detected: cl.integrity_detected(),
            stats: None,
            trace: trace_if(traced, || cl.trace()),
            decisions: Vec::new(),
            makespan,
        }
    })
}

/// Knobs for the multi-step cluster heat program.
#[derive(Debug, Clone, Copy)]
pub struct ClusterHeatConfig {
    pub seed: u64,
    pub steps: usize,
    pub nodes: usize,
    /// Link-fault knob: message drop probability on every inter-node link
    /// (0.0 = clean fabric). Retransmits shift delivery times — extra
    /// schedule choice points the results must be invariant to.
    pub drop_rate: f64,
}

impl Default for ClusterHeatConfig {
    fn default() -> Self {
        ClusterHeatConfig {
            seed: 7,
            steps: 3,
            nodes: 2,
            drop_rate: 0.0,
        }
    }
}

/// Multi-step periodic heat (n=8, 4 regions) on a simulated cluster: the
/// full five-phase exchange protocol — stage-out, interior kernels,
/// network deliveries, grown re-upload, boundary kernels — with every
/// message arrival a schedule decision point. Every explored interleaving
/// must reproduce [`cluster_heat_golden`] bit-for-bit.
pub fn cluster_heat(cfg: ClusterHeatConfig) -> Program {
    Box::new(move |oracle| {
        let n = 8i64;
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(n),
            RegionSpec::Count(4),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        ua.fill_valid(init::hash_field(cfg.seed));

        let mut plan = FaultPlan::none().with_seed(cfg.seed ^ 0x5A5A);
        if cfg.drop_rate > 0.0 {
            plan = plan.with_link_fault(cluster::LinkFault::on("*").drops(cfg.drop_rate));
        }
        let mut cl = Cluster::new(ClusterConfig::new(cfg.nodes).fault(plan));
        let traced = oracle.borrow().tracing();
        cl.set_tracing(traced);
        cl.set_hazard_checking(true);
        cl.install_oracle(oracle as Rc<RefCell<dyn ScheduleOracle>>);

        let a = cl.register(&ua);
        let b = cl.register(&ub);
        let (mut src, mut dst) = (a, b);
        for _ in 0..cfg.steps {
            cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
                heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
            })
            .unwrap();
            std::mem::swap(&mut src, &mut dst);
        }
        cl.sync_to_host(src).unwrap();
        let makespan = cl.finish();

        let result = if src == a { &ua } else { &ub }
            .to_dense()
            .expect("backed run");
        let digest = fnv_digest(&result);
        RunOutcome {
            digest,
            result,
            hazards: cl.hazard_total(),
            integrity_detected: cl.integrity_detected(),
            stats: None,
            trace: trace_if(traced, || cl.trace()),
            decisions: Vec::new(),
            makespan,
        }
    })
}

/// The analytic golden field for [`cluster_heat`].
pub fn cluster_heat_golden(cfg: &ClusterHeatConfig) -> Vec<f64> {
    heat::golden_run(init::hash_field(cfg.seed), 8, cfg.steps, heat::DEFAULT_FAC)
}
