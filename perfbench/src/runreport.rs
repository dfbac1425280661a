//! Per-layer readings of the simulator's `RunReport`, shared by the
//! workloads that drive a `GpuSystem` they can see.

use std::collections::BTreeMap;

use gpu_sim::RunReport;

/// Busy time of every engine whose name ends in `kind` ("h2d", "d2h",
/// "compute"), in simulated ms.
fn engine_busy_ms(report: &RunReport, kind: &str) -> f64 {
    report
        .engines
        .iter()
        .filter(|(name, _, _)| name.ends_with(kind))
        .fold(0.0, |sum, (_, busy, _)| sum + busy.as_ms_f64())
}

/// Critical-path simulated ms attributed to `cats`.
fn crit_ms(report: &RunReport, cats: &[&str]) -> f64 {
    cats.iter()
        .filter_map(|c| report.critical_by_category.get(c))
        .fold(0.0, |sum, t| sum + t.as_ms_f64())
}

/// Insert the `gpu-sim` busy-time and critical-path readings of `report`.
pub fn report_layer(layer: &mut BTreeMap<&'static str, f64>, report: &RunReport) {
    layer.insert("gpu-sim.h2d_busy_ms", engine_busy_ms(report, "h2d"));
    layer.insert("gpu-sim.d2h_busy_ms", engine_busy_ms(report, "d2h"));
    layer.insert("gpu-sim.compute_busy_ms", engine_busy_ms(report, "compute"));
    layer.insert(
        "gpu-sim.h2d_compute_overlap_ms",
        report.h2d_compute_overlap.as_ms_f64(),
    );
    layer.insert(
        "gpu-sim.crit_transfer_ms",
        crit_ms(report, &["h2d", "d2h", "net"]),
    );
    layer.insert("gpu-sim.crit_kernel_ms", crit_ms(report, &["kernel"]));
    layer.insert("gpu-sim.crit_host_ms", crit_ms(report, &["host", "hostfn"]));
}
