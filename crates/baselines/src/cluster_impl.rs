//! Cluster drivers for the evaluation kernels: the same heat and Jacobi
//! applications the other execution models run, written against the
//! multi-node, multi-device `Cluster` runtime so the conformance suite can
//! hold it to the same bitwise standard. Pinned to one node these must be
//! indistinguishable (in results and byte accounting) from any other
//! conforming model; on several nodes the halo traffic rides the network
//! model instead of device-side gathers, and the results must not move.

use crate::common::RunResult;
use cluster::{Cluster, ClusterConfig};
use gpu_sim::MachineConfig;
use kernels::{heat, jacobi};
use std::sync::Arc;
use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};

/// Per-span payloads of the cluster's network deliveries, summed from the
/// trace — the wire-side counterpart of `transfer_bytes_from_trace`.
pub fn net_bytes_from_trace(trace: &gpu_sim::Trace) -> u64 {
    trace
        .spans
        .iter()
        .filter(|s| s.category == "net")
        .map(|s| {
            let l = &s.label;
            let inner = l
                .find('[')
                .and_then(|i| l[i + 1..].find("B]").map(|j| &l[i + 1..i + 1 + j]))
                .unwrap_or_else(|| panic!("malformed NET span label {l:?}"));
            inner.parse::<u64>().unwrap_or_else(|e| {
                panic!("malformed NET span payload in {l:?}: {e}");
            })
        })
        .sum()
}

fn result_of(cl: &mut Cluster, array: &TileArray, label: String, tracing: bool) -> RunResult {
    let elapsed = cl.finish();
    RunResult {
        label,
        elapsed,
        bytes_h2d: cl.bytes_h2d(),
        bytes_d2h: cl.bytes_d2h(),
        kernels: cl.kernels_launched(),
        result: array.to_dense(),
        trace: if tracing { Some(cl.trace()) } else { None },
    }
}

/// Cluster heat solver: `steps` Jacobi steps over an `n³` periodic domain,
/// `regions` z-slab regions spread across `nodes` simulated nodes.
pub fn cluster_heat(
    cfg: &MachineConfig,
    n: i64,
    steps: usize,
    regions: usize,
    nodes: usize,
    backed: bool,
    tracing: bool,
) -> RunResult {
    let cc = ClusterConfig::new(nodes)
        .machine(cfg.clone())
        .backed(backed);
    let label = format!("Cluster-heat({regions}r,{nodes}n)");
    heat_on(cc, n, steps, regions, tracing, label)
}

/// Multi-GPU TiDA heat solver: the same regions distributed over the
/// `devices` GPUs of one node, faces between two devices moved pack →
/// peer copy → unpack.
pub fn tida_heat_multi(
    cfg: &MachineConfig,
    n: i64,
    steps: usize,
    regions: usize,
    devices: usize,
    backed: bool,
) -> RunResult {
    let cc = ClusterConfig::new(1)
        .devices_per_node(devices)
        .machine(cfg.clone())
        .backed(backed);
    let label = format!("TiDA-multi({regions}r,{devices}gpu)");
    heat_on(cc, n, steps, regions, false, label)
}

/// Heat on a cluster built from `cc`.
fn heat_on(
    cc: ClusterConfig,
    n: i64,
    steps: usize,
    regions: usize,
    tracing: bool,
    label: String,
) -> RunResult {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(regions),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, cc.backed);
    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, cc.backed);
    ua.fill_valid(crate::heat::heat_init());

    let mut cl = Cluster::new(cc);
    cl.set_tracing(tracing);
    let a = cl.register(&ua);
    let b = cl.register(&ub);
    let (mut src, mut dst) = (a, b);
    let fac = heat::DEFAULT_FAC;
    for _ in 0..steps {
        cl.step(dst, src, None, heat::cost, "heat", move |d, s, _aux, bx| {
            heat::step_tile(d, s, &bx, fac)
        })
        .unwrap();
        std::mem::swap(&mut src, &mut dst);
    }
    cl.sync_to_host(src).unwrap();
    let final_array = if src == a { &ua } else { &ub };
    result_of(&mut cl, final_array, label, tracing)
}

/// Cluster Jacobi driver: the two-operand path (`u'` from `u` and the
/// right-hand side `f`), ghost exchange on the iterate only — `f` rides
/// along as the aux operand, uploaded once per owning node and never
/// exchanged.
pub fn cluster_jacobi(
    cfg: &MachineConfig,
    n: i64,
    sweeps: usize,
    regions: usize,
    nodes: usize,
    backed: bool,
    tracing: bool,
) -> RunResult {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(regions),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, backed);
    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, backed);
    let rhs = TileArray::new(decomp.clone(), 0, ExchangeMode::Faces, backed);
    ua.fill_valid(|_| 0.0);
    if backed {
        rhs.from_dense(&jacobi::manufactured_rhs(n));
    }

    let mut cl = Cluster::new(
        ClusterConfig::new(nodes)
            .machine(cfg.clone())
            .backed(backed),
    );
    cl.set_tracing(tracing);
    let a = cl.register(&ua);
    let b = cl.register(&ub);
    let f = cl.register(&rhs);
    let (mut src, mut dst) = (a, b);
    for _ in 0..sweeps {
        cl.step(
            dst,
            src,
            Some(f),
            jacobi::cost,
            "jacobi",
            |d, s, aux, bx| jacobi::sweep_tile(d, s, aux.expect("rhs operand"), &bx),
        )
        .unwrap();
        std::mem::swap(&mut src, &mut dst);
    }
    cl.sync_to_host(src).unwrap();
    let final_array = if src == a { &ua } else { &ub };
    let label = format!("Cluster-jacobi({regions}r,{nodes}n)");
    result_of(&mut cl, final_array, label, tracing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::k40m()
    }

    #[test]
    fn cluster_heat_matches_golden_on_one_and_two_nodes() {
        let (n, steps) = (8, 3);
        let golden = heat::golden_run(crate::heat::heat_init(), n, steps, heat::DEFAULT_FAC);
        for nodes in [1usize, 2] {
            let r = cluster_heat(&cfg(), n, steps, 4, nodes, true, false);
            assert_eq!(r.result.unwrap(), golden, "{nodes} nodes");
        }
    }

    #[test]
    fn cluster_jacobi_matches_golden_on_one_and_two_nodes() {
        let (n, sweeps) = (8, 3);
        let golden = jacobi::golden_run(&jacobi::manufactured_rhs(n), n, sweeps);
        for nodes in [1usize, 2] {
            let r = cluster_jacobi(&cfg(), n, sweeps, 4, nodes, true, false);
            assert_eq!(r.result.unwrap(), golden, "{nodes} nodes");
        }
    }
}
