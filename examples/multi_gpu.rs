//! Multi-GPU heat solver: regions distributed across the simulated GPUs
//! of one node — a one-node `Cluster` — with faces between two devices
//! moved pack → peer copy → unpack, never through the host.
//!
//! ```text
//! cargo run --release -p examples --bin multi_gpu
//! ```

use cluster::{Cluster, ClusterConfig};
use gpu_sim::MachineConfig;
use kernels::{heat, init, norms};
use std::sync::Arc;
use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};

fn main() {
    // --- Part 1: validated 2-GPU run ----------------------------------
    let n = 16i64;
    let steps = 10;
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(4),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    ua.fill_valid(init::gaussian(n));

    let mut cl = Cluster::new(ClusterConfig::new(1).devices_per_node(2));
    let a = cl.register(&ua);
    let b = cl.register(&ub);
    let (mut src, mut dst) = (a, b);
    let mut pcie_after_upload = None;
    for _ in 0..steps {
        cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
            heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
        })
        .unwrap();
        // The first step uploads the initial field; every later ghost
        // stays on the devices.
        pcie_after_upload.get_or_insert((cl.bytes_h2d(), cl.bytes_d2h()));
        std::mem::swap(&mut src, &mut dst);
    }
    let pcie_steps = (cl.bytes_h2d(), cl.bytes_d2h());
    cl.sync_to_host(src).unwrap();
    cl.finish();

    println!("region ownership:");
    for r in 0..decomp.num_regions() {
        println!("  region {r} -> GPU {}", cl.owner(r));
    }
    println!(
        "peer-link traffic: {} KiB across {} steps",
        cl.bytes_p2p() >> 10,
        steps
    );
    assert!(cl.bytes_p2p() > 0, "cross-device faces must use P2P");
    assert_eq!(
        Some(pcie_steps),
        pcie_after_upload,
        "no ghost byte may cross PCIe after the first upload"
    );
    println!("PCIe traffic after the first upload: 0 B ✓");

    let result = if src == a { &ua } else { &ub };
    let dense = result.to_dense().unwrap();
    let golden = heat::golden_run(init::gaussian(n), n, steps, heat::DEFAULT_FAC);
    println!(
        "L-inf error vs dense golden: {:.3e}",
        norms::linf(&dense, &golden)
    );
    assert_eq!(dense, golden);
    println!("2-GPU result is bitwise identical to the dense reference ✓");

    // --- Part 2: strong scaling at paper scale ------------------------
    println!("\nstrong scaling (512^3, 100 steps, 16 regions, timing-only):");
    let cfg = MachineConfig::k40m();
    let base = baselines::tida_heat_multi(&cfg, 512, 100, 16, 1, false);
    println!("  1 GPU : {:>10.2} ms", base.ms());
    for devices in [2usize, 4, 8] {
        let r = baselines::tida_heat_multi(&cfg, 512, 100, 16, devices, false);
        println!(
            "  {devices} GPUs: {:>10.2} ms  ({:.2}x)",
            r.ms(),
            r.speedup_over(&base),
        );
    }
    println!("\nPack, peer copy and unpack overlap the interior kernels, so the per-step");
    println!("time scales almost linearly; the one-off upload and final download of the");
    println!("field keep the end-to-end speedup below it.");
}
