//! `ooc-heat`: the paper's own scenario. Backed 3-D heat on a periodic
//! 64³ cube, 8 regions per array on a device with 7 region slots, so
//! every step stages regions in and out over a PCIe Gen3 x4-class link.
//! Runtime options are the overlap gate's `auto-overlap` row
//! (ReuseDistance eviction, lookahead 2), driven through the paper's
//! per-step API.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_sim::{GpuSystem, MachineConfig, SimTime};
use kernels::heat;
use tida::{tiles_of, Decomposition, Domain, ExchangeMode, RegionSpec, Tile, TileArray, TileSpec};
use tida_acc::{AccError, AccOptions, ArrayId, SlotPolicy, TileAcc};

use crate::runreport::report_layer;
use crate::{calib, span, timed_setup, Rep, Workload};

const N: i64 = 64;
const STEPS: usize = 16;
const REGIONS: usize = 8;
const SLOTS: usize = 7;
const LOOKAHEAD: usize = 2;

/// K40m behind a PCIe Gen3 x4-class link, as in the overlap gate.
fn machine() -> MachineConfig {
    let mut m = MachineConfig::k40m();
    m.name = "Tesla K40m / PCIe Gen3 x4".to_string();
    m.h2d_pinned_bw = 3.3e9;
    m.d2h_pinned_bw = 3.5e9;
    m.host_stage_bw = 3.0e9;
    m
}

pub struct OocHeat {
    seed: u64,
    golden: Vec<f64>,
}

impl OocHeat {
    pub fn new(seed: u64) -> Self {
        OocHeat {
            seed,
            golden: Vec::new(),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything built before the first timed call.
struct Setup {
    ua: TileArray,
    ub: TileArray,
    acc: TileAcc,
    a: ArrayId,
    b: ArrayId,
    tiles: Vec<Tile>,
}

fn setup(seed: u64, traced: bool) -> Setup {
    let (decomp, ua, ub) = span::time("tida.setup", || {
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(N),
            RegionSpec::Count(REGIONS),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
        ua.fill_valid(kernels::init::hash_field(seed));
        (decomp, ua, ub)
    });
    let mut gpu = GpuSystem::with_backing(machine(), true);
    if traced {
        // Engine busy time and the critical path need recorded spans.
        gpu.set_tracing(true);
    }
    let mut opts = AccOptions::paper()
        .with_policy(SlotPolicy::ReuseDistance)
        .with_lookahead(LOOKAHEAD);
    opts.max_slots = Some(SLOTS);
    let mut acc = TileAcc::new(gpu, opts);
    let a = acc.register(&ua);
    let b = acc.register(&ub);
    let tiles = tiles_of(&decomp, TileSpec::RegionSized);
    Setup {
        ua,
        ub,
        acc,
        a,
        b,
        tiles,
    }
}

impl Workload for OocHeat {
    fn precheck(&mut self) -> Result<(), String> {
        self.golden = heat::golden_run(
            kernels::init::hash_field(self.seed),
            N,
            STEPS,
            heat::DEFAULT_FAC,
        );
        Ok(())
    }

    fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        let seed = self.seed;
        let (setup, setup_s) = timed_setup(1, || setup(seed, traced));
        let Setup {
            ua,
            ub,
            mut acc,
            a,
            b,
            tiles,
        } = setup;

        let t_run = calib::Stopwatch::start();
        let (mut src, mut dst) = (a, b);
        let mut op_ms = Vec::with_capacity(STEPS);
        let mut failed = 0u64;
        for _ in 0..STEPS {
            let t_step = calib::Stopwatch::start();
            let step = (|| -> Result<(), AccError> {
                span::time("core.begin_step", || acc.begin_step())?;
                span::time("core.fill_boundary", || acc.fill_boundary(src))?;
                for &t in &tiles {
                    span::time("core.compute", || {
                        acc.compute2(
                            t,
                            dst,
                            src,
                            heat::cost(t.num_cells()),
                            "heat",
                            move |d, s, bx| {
                                span::time("kernels.heat", || {
                                    heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
                                })
                            },
                        )
                    })?;
                }
                Ok(())
            })();
            op_ms.push(t_step.elapsed_s() * 1e3);
            failed += u64::from(step.is_err());
            std::mem::swap(&mut src, &mut dst);
            calib::between_ops();
        }
        let synced = span::time("core.sync", || acc.sync_to_host(src));
        let makespan: SimTime = span::time("core.sync", || acc.finish());
        let run_s = t_run.elapsed_s();
        if synced.is_err() && failed == 0 {
            failed = 1;
        }

        // Untimed: outputs against golden, then counters.
        let gpu = acc.gpu();
        let hazards = gpu.hazard_counters().total();
        if hazards != 0 {
            return Err(format!("{hazards} stream-ordering hazards"));
        }
        if failed == 0 {
            let out = if src == a { &ua } else { &ub };
            let field = out.to_dense().expect("backed arrays hold data");
            let bad = field
                .iter()
                .zip(&self.golden)
                .filter(|(x, g)| x.to_bits() != g.to_bits())
                .count();
            if bad != 0 {
                return Err(format!("{bad} cells differ from heat::golden_run"));
            }
        }
        let st = acc.stats();
        if st.evictions == 0 {
            return Err("the run must be out of core (no evictions happened)".into());
        }
        let (bytes_h2d, bytes_d2h) = (gpu.stats_bytes_h2d(), gpu.stats_bytes_d2h());
        let decisions = gpu.decision_points();
        let ops = gpu.ops_executed();
        let verified = gpu.integrity_stats().verified;

        let mut layer = BTreeMap::new();
        layer.insert("core.loads", st.loads as f64);
        layer.insert("core.evictions", st.evictions as f64);
        layer.insert("core.writebacks_deferred", st.writebacks_deferred as f64);
        layer.insert(
            "core.hit_ratio",
            ratio(
                st.hits + st.prefetch_hits,
                st.hits + st.prefetch_hits + st.loads,
            ),
        );
        layer.insert(
            "core.prefetch_useful_ratio",
            ratio(st.prefetch_hits, st.prefetch_loads),
        );
        layer.insert("gpu-sim.bytes_h2d", bytes_h2d as f64);
        layer.insert("gpu-sim.bytes_d2h", bytes_d2h as f64);
        layer.insert("gpu-sim.integrity_verified", verified as f64);
        layer.insert("gpu-sim.ops_executed", ops as f64);
        layer.insert("gpu-sim.hazards", hazards as f64);
        layer.insert("desim.decision_points", decisions as f64);
        layer.insert(
            "desim.ns_per_decision",
            run_s * 1e9 / decisions.max(1) as f64,
        );
        if traced {
            report_layer(&mut layer, &acc.report());
            let ms = |n: &str| span::totals(n).self_ns as f64 / 1e6;
            let t = span::totals("tida.setup");
            layer.insert("tida.setup_ms", t.total_ns as f64 / 1e6 / t.count as f64);
            layer.insert("core.begin_step_self_ms", ms("core.begin_step"));
            layer.insert("core.fill_boundary_self_ms", ms("core.fill_boundary"));
            layer.insert("core.compute_self_ms", ms("core.compute"));
            layer.insert("core.sync_self_ms", ms("core.sync"));
            let k = span::totals("kernels.heat");
            layer.insert("kernels.heat_ms", k.total_ns as f64 / 1e6);
            let cells = (N * N * N) as f64 * STEPS as f64;
            layer.insert("kernels.ns_per_cell", k.total_ns as f64 / cells);
        }
        Ok(Rep {
            setup_s,
            peak_rss_mb: 0.0,
            run_s,
            op_ms,
            attempted: STEPS as u64,
            failed,
            sim_makespan_ms: makespan.as_ms_f64(),
            model: vec![
                ("makespan_ns", makespan.as_ns()),
                ("bytes_h2d", bytes_h2d),
                ("bytes_d2h", bytes_d2h),
                ("loads", st.loads),
                ("hits", st.hits),
                ("prefetch_loads", st.prefetch_loads),
                ("prefetch_hits", st.prefetch_hits),
                ("evictions", st.evictions),
                ("writebacks_deferred", st.writebacks_deferred),
                ("decision_points", decisions),
                ("ops_executed", ops),
            ],
            layer,
        })
    }

    fn named(&self, e2e: &BTreeMap<&'static str, f64>, first: &Rep) -> Vec<(String, f64, String)> {
        let cells = (N * N * N) as f64 * STEPS as f64;
        vec![
            (
                "sim_makespan_ms".into(),
                first.sim_makespan_ms,
                "sim_ms".into(),
            ),
            (
                "host_cell_updates_per_s".into(),
                cells / e2e["host_run_s"],
                "cells/s".into(),
            ),
            (
                "host_step_ms_p50".into(),
                e2e["host_op_ms_p50"],
                "ms".into(),
            ),
            (
                "host_step_ms_p90".into(),
                e2e["host_op_ms_p90"],
                "ms".into(),
            ),
        ]
    }
}
