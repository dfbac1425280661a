//! `cluster-heat`: timing-only strong-scaling heat at the knee of the
//! cluster gate — a 64³ periodic domain in 32 regions over 16 nodes on a
//! 1 GB/s fabric, run for many steps. No data moves, so host time is pure
//! desim/gpu-sim/cluster bookkeeping. A short backed run of the same
//! configuration is compared with golden before anything is timed.

use std::collections::BTreeMap;
use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, NetConfig};
use kernels::heat;
use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};

use crate::runreport::report_layer;
use crate::{calib, span, timed_setup, Rep, Workload};

const N: i64 = 64;
const REGIONS: usize = 32;
const NODES: usize = 16;
/// Inter-node fabric bandwidth in bytes per µs (1 GB/s).
const FABRIC: u64 = 1_000;
const STEPS: usize = 1000;
/// Steps of the backed correctness run.
const CHECK_STEPS: usize = 4;

pub struct ClusterHeat {
    seed: u64,
}

impl ClusterHeat {
    pub fn new(seed: u64) -> Self {
        ClusterHeat { seed }
    }
}

/// Decomposition, the two arrays and the cluster they are registered on.
struct Setup {
    ua: TileArray,
    ub: TileArray,
    cl: Cluster,
}

fn setup(seed: u64, backed: bool) -> Setup {
    let (ua, ub) = span::time("tida.setup", || {
        let decomp = Arc::new(Decomposition::new(
            Domain::periodic_cube(N),
            RegionSpec::Count(REGIONS),
        ));
        let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, backed);
        let ub = TileArray::new(decomp, 1, ExchangeMode::Faces, backed);
        if backed {
            ua.fill_valid(kernels::init::hash_field(seed));
        }
        (ua, ub)
    });
    let cl = Cluster::new(
        ClusterConfig::new(NODES)
            .net(NetConfig::default().constrained(FABRIC))
            .backed(backed),
    );
    Setup { ua, ub, cl }
}

impl Workload for ClusterHeat {
    fn precheck(&mut self) -> Result<(), String> {
        let Setup { ua, ub, mut cl } = setup(self.seed, true);
        let a = cl.register(&ua);
        let b = cl.register(&ub);
        let (mut src, mut dst) = (a, b);
        for _ in 0..CHECK_STEPS {
            cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
                heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
            })
            .map_err(|e| format!("backed check run: {e}"))?;
            std::mem::swap(&mut src, &mut dst);
        }
        cl.sync_to_host(src)
            .map_err(|e| format!("backed check run: {e}"))?;
        cl.finish();
        if cl.hazard_total() != 0 {
            return Err(format!("backed check run: {} hazards", cl.hazard_total()));
        }
        let out = if src == a { &ua } else { &ub };
        let field = out.to_dense().expect("backed arrays hold data");
        let golden = heat::golden_run(
            kernels::init::hash_field(self.seed),
            N,
            CHECK_STEPS,
            heat::DEFAULT_FAC,
        );
        let bad = field
            .iter()
            .zip(&golden)
            .filter(|(x, g)| x.to_bits() != g.to_bits())
            .count();
        if bad != 0 {
            return Err(format!("backed check run: {bad} cells differ from golden"));
        }
        Ok(())
    }

    fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        let seed = self.seed;
        let ((_ua, _ub, mut cl, a, b), setup_s) = timed_setup(1, || {
            let Setup { ua, ub, mut cl } = setup(seed, false);
            if traced {
                cl.set_tracing(true);
            }
            let a = cl.register(&ua);
            let b = cl.register(&ub);
            (ua, ub, cl, a, b)
        });

        let t_run = calib::Stopwatch::start();
        let (mut src, mut dst) = (a, b);
        let mut op_ms = Vec::with_capacity(STEPS);
        let mut failed = 0u64;
        for _ in 0..STEPS {
            let t_step = calib::Stopwatch::start();
            let r = span::time("cluster.step", || {
                cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
                    heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
                })
            });
            op_ms.push(t_step.elapsed_s() * 1e3);
            failed += u64::from(r.is_err());
            std::mem::swap(&mut src, &mut dst);
            calib::between_ops();
        }
        let makespan = span::time("cluster.finish", || cl.finish());
        let run_s = t_run.elapsed_s();

        // Untimed: hazards, then counters.
        let hazards = cl.hazard_total();
        if hazards != 0 {
            return Err(format!("{hazards} stream-ordering hazards"));
        }
        let ns = cl.net_stats();
        let nodes = cl.num_nodes();
        let decisions: u64 = (0..nodes).map(|n| cl.node(n).decision_points()).sum();
        let ops: u64 = (0..nodes).map(|n| cl.node(n).ops_executed()).sum();
        let verified: u64 = (0..nodes)
            .map(|n| cl.node(n).integrity_stats().verified)
            .sum();
        let (h2d, d2h, net) = (cl.bytes_h2d(), cl.bytes_d2h(), cl.bytes_net());

        let mut layer = BTreeMap::new();
        layer.insert("gpu-sim.bytes_h2d", h2d as f64);
        layer.insert("gpu-sim.bytes_d2h", d2h as f64);
        layer.insert("gpu-sim.integrity_verified", verified as f64);
        layer.insert("gpu-sim.ops_executed", ops as f64);
        layer.insert("gpu-sim.hazards", hazards as f64);
        layer.insert("desim.decision_points", decisions as f64);
        layer.insert(
            "desim.ns_per_decision",
            run_s * 1e9 / decisions.max(1) as f64,
        );
        layer.insert("cluster.bytes_net", net as f64);
        layer.insert("cluster.bytes_pcie", (h2d + d2h) as f64);
        layer.insert("cluster.msgs_inter", ns.msgs_inter as f64);
        layer.insert("cluster.net_drops", ns.drops as f64);
        if traced {
            // Busy time summed over nodes; the critical path of the node
            // that finishes last.
            let mut busy: BTreeMap<&'static str, f64> = BTreeMap::new();
            let mut slowest: Option<(gpu_sim::SimTime, BTreeMap<&'static str, f64>)> = None;
            for n in 0..nodes {
                let report = cl.node_mut(n).report();
                let mut one = BTreeMap::new();
                report_layer(&mut one, &report);
                for (k, v) in &one {
                    if k.ends_with("busy_ms") || k.ends_with("overlap_ms") {
                        *busy.entry(k).or_default() += v;
                    }
                }
                if slowest.as_ref().is_none_or(|(t, _)| report.elapsed > *t) {
                    slowest = Some((report.elapsed, one));
                }
            }
            if let Some((_, crit)) = slowest {
                layer.extend(crit.into_iter().filter(|(k, _)| k.contains("crit_")));
            }
            layer.extend(busy);
            let ms = |n: &str, total: bool| {
                let t = span::totals(n);
                (if total { t.total_ns } else { t.self_ns }) as f64 / 1e6
            };
            let t = span::totals("tida.setup");
            layer.insert("tida.setup_ms", t.total_ns as f64 / 1e6 / t.count as f64);
            layer.insert("cluster.step_self_ms", ms("cluster.step", false));
            layer.insert("cluster.finish_ms", ms("cluster.finish", true));
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
                ("bytes_h2d", h2d),
                ("bytes_d2h", d2h),
                ("bytes_net", net),
                ("msgs_inter", ns.msgs_inter),
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
