//! Machine description and cost model.
//!
//! [`MachineConfig`] captures every throughput and latency constant the
//! simulator charges for. The default, [`MachineConfig::k40m`], is calibrated
//! to the paper's testbed — an Intel Xeon E5-2695 v2 host driving an NVIDIA
//! Tesla K40m over PCIe Gen3 — using publicly documented figures (achievable
//! pinned PCIe bandwidth ~10.5 GB/s, ~180 GB/s effective GDDR5 bandwidth,
//! ~1.2 TF/s effective double-precision throughput, microsecond-scale launch
//! and copy latencies). Absolute times are the model's, not the authors'
//! testbed's; what the model is built to preserve is the *shape* of the
//! paper's results: which variant wins, where transfer cost crosses over
//! compute cost, and how much overlap buys.

use crate::fault::FaultPlan;
use desim::SimTime;
use serde::{Deserialize, Serialize};

/// Host memory flavours, matching `malloc` / `cudaMallocHost` semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostMemKind {
    /// Ordinary pageable allocation. Transfers stage through an internal
    /// pinned buffer and are effectively synchronous, exactly like CUDA's
    /// behaviour for `cudaMemcpyAsync` on pageable memory.
    Pageable,
    /// Page-locked allocation (`cudaMallocHost`): full-bandwidth DMA,
    /// genuinely asynchronous, required for transfer/compute overlap.
    Pinned,
}

/// All throughput/latency constants of the simulated platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable platform name (appears in reports).
    pub name: String,
    /// Device memory capacity in bytes (`cudaMemGetInfo` total).
    pub device_mem_bytes: u64,
    /// Pinned host→device bandwidth over the interconnect, bytes/s.
    pub h2d_pinned_bw: f64,
    /// Pinned device→host bandwidth over the interconnect, bytes/s.
    pub d2h_pinned_bw: f64,
    /// Host-side staging memcpy bandwidth (pageable→pinned bounce), bytes/s.
    pub host_stage_bw: f64,
    /// Bulk migration bandwidth for managed (unified) memory, bytes/s.
    pub managed_bw: f64,
    /// Fixed overhead per managed-memory migration (page-fault handling).
    pub managed_fault_overhead: SimTime,
    /// Fixed latency per DMA transfer (descriptor setup, PCIe round trip).
    pub copy_latency: SimTime,
    /// Fixed device-side overhead per kernel launch.
    pub kernel_launch_overhead: SimTime,
    /// Host CPU time consumed by issuing one asynchronous operation
    /// (driver call cost).
    pub host_enqueue_overhead: SimTime,
    /// Effective device memory bandwidth for memory-bound kernels, bytes/s.
    pub device_mem_bw: f64,
    /// Effective double-precision throughput for compute-bound kernels,
    /// FLOP/s.
    pub device_flops: f64,
    /// Host memcpy bandwidth for host-side ghost-cell copies, bytes/s.
    pub host_copy_bw: f64,
    /// Host scalar throughput for index arithmetic, ops/s.
    pub host_index_rate: f64,
    /// Host double-precision throughput for CPU-path kernels, FLOP/s.
    pub host_flops: f64,
    /// Host memory bandwidth for CPU-path memory-bound kernels, bytes/s.
    pub host_mem_bw: f64,
    /// Device→device peer-link bandwidth, bytes/s (PCIe switch or NVLink).
    pub p2p_bw: f64,
    /// Number of DMA engines per direction (the K40m has one per direction,
    /// allowing concurrent H2D and D2H).
    pub copy_engines_per_direction: usize,
    /// Number of kernels the compute engine can run concurrently. Large
    /// grid-sized kernels saturate the device, so the default is 1.
    pub concurrent_kernels: usize,
    /// Deterministic fault-injection plan. Defaults to [`FaultPlan::none`],
    /// which is guaranteed to leave every simulated run bit-identical to a
    /// build without the fault layer.
    pub faults: FaultPlan,
}

impl MachineConfig {
    /// The paper's platform: Xeon E5-2695 v2 + Tesla K40m over PCIe Gen3.
    pub fn k40m() -> Self {
        MachineConfig {
            name: "Tesla K40m / PCIe Gen3".to_string(),
            device_mem_bytes: 12 * (1 << 30),
            h2d_pinned_bw: 10.5e9,
            d2h_pinned_bw: 11.0e9,
            host_stage_bw: 9.5e9,
            managed_bw: 3.5e9,
            managed_fault_overhead: SimTime::from_us(30),
            copy_latency: SimTime::from_us(8),
            kernel_launch_overhead: SimTime::from_us(7),
            host_enqueue_overhead: SimTime::from_us(1),
            device_mem_bw: 180.0e9,
            device_flops: 1.2e12,
            host_copy_bw: 8.0e9,
            host_index_rate: 4.0e9,
            host_flops: 40.0e9,
            host_mem_bw: 40.0e9,
            p2p_bw: 10.0e9,
            copy_engines_per_direction: 1,
            concurrent_kernels: 1,
            faults: FaultPlan::none(),
        }
    }

    /// A Pascal-generation platform with NVLink (the paper's §I motivation:
    /// "NVLink ... allows at least 5 times faster transfer speed than the
    /// current PCIe Gen3"). Used by the what-if experiment that asks how
    /// the Fig. 5 crossover moves when the interconnect gets 5x faster
    /// while compute also grows.
    pub fn p100_nvlink() -> Self {
        MachineConfig {
            name: "Tesla P100 / NVLink".to_string(),
            device_mem_bytes: 16 * (1 << 30),
            h2d_pinned_bw: 34.0e9,
            d2h_pinned_bw: 34.0e9,
            host_stage_bw: 12.0e9,
            managed_bw: 12.0e9,
            managed_fault_overhead: SimTime::from_us(15),
            copy_latency: SimTime::from_us(6),
            kernel_launch_overhead: SimTime::from_us(6),
            host_enqueue_overhead: SimTime::from_us(1),
            device_mem_bw: 550.0e9,
            device_flops: 4.7e12,
            host_copy_bw: 10.0e9,
            host_index_rate: 4.0e9,
            host_flops: 50.0e9,
            host_mem_bw: 50.0e9,
            p2p_bw: 40.0e9,
            copy_engines_per_direction: 1,
            concurrent_kernels: 1,
            faults: FaultPlan::none(),
        }
    }

    /// Same platform with the device memory capacity overridden — used for
    /// the paper's limited-memory experiments (Fig. 7/8).
    pub fn with_device_mem(mut self, bytes: u64) -> Self {
        self.device_mem_bytes = bytes;
        self
    }

    /// Same platform with a fault-injection plan attached.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Duration of a pinned or staged DMA of `bytes` in the H2D direction
    /// (excluding pageable staging, which is charged separately on the host).
    pub fn h2d_time(&self, bytes: u64) -> SimTime {
        self.copy_latency + SimTime::from_secs_f64(bytes as f64 / self.h2d_pinned_bw)
    }

    /// Duration of a DMA of `bytes` in the D2H direction.
    pub fn d2h_time(&self, bytes: u64) -> SimTime {
        self.copy_latency + SimTime::from_secs_f64(bytes as f64 / self.d2h_pinned_bw)
    }

    /// The three stream-ordered ops of a gathered D2H of `bytes` payload
    /// ([`crate::GpuSystem::memcpy_d2h_gather_async`]): the pack kernel
    /// (reads and writes the payload on the device), the contiguous copy,
    /// and the host unpack.
    pub fn d2h_gather_times(&self, bytes: u64) -> [SimTime; 3] {
        [
            KernelCost::Bytes(2 * bytes).duration(self, 1.0),
            self.d2h_time(bytes),
            self.host_copy_time(bytes),
        ]
    }

    /// Host-side staging time for a pageable transfer of `bytes`.
    pub fn stage_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.host_stage_bw)
    }

    /// Bulk managed-memory migration time for `bytes`.
    pub fn managed_migration_time(&self, bytes: u64) -> SimTime {
        self.managed_fault_overhead + SimTime::from_secs_f64(bytes as f64 / self.managed_bw)
    }

    /// Host-side memcpy time for `bytes` (ghost-cell copies on the host).
    pub fn host_copy_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.host_copy_bw)
    }

    /// Host time to compute `n` ghost-cell index pairs (§IV-B-6: the CPU
    /// calculates source/destination indices while the GPU updates other
    /// ghost sets).
    pub fn host_index_time(&self, n: u64) -> SimTime {
        SimTime::from_secs_f64(n as f64 / self.host_index_rate)
    }
}

/// Cost declaration for one kernel launch.
///
/// Durations follow a simple roofline: a kernel takes
/// `launch_overhead + max(bytes / device_mem_bw, flops / device_flops) /
/// efficiency`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KernelCost {
    /// Memory-bound kernel touching this many bytes of device memory.
    Bytes(u64),
    /// Compute-bound kernel executing this many floating-point operations.
    Flops(f64),
    /// Roofline of both.
    Roofline { bytes: u64, flops: f64 },
    /// Fixed duration (testing, microbenchmarks).
    Fixed(SimTime),
    /// One *fused* launch covering `k` stencil applications with on-chip
    /// double buffering (temporal blocking). `bytes` is the DRAM traffic of
    /// the whole launch — roughly one streaming read of the halo'd input
    /// block plus one write of the result, because the `k-1` intermediate
    /// trapezoid levels ping-pong between on-chip buffers — and `flops` is
    /// the total floating-point work of all `k` applications. The duration
    /// formula is the same roofline as [`KernelCost::Roofline`]; the fusion
    /// win is structural: one launch overhead instead of `k`, and `bytes`
    /// that do not scale with `k`.
    Fused { k: u32, bytes: u64, flops: f64 },
}

impl KernelCost {
    /// Kernel duration on `cfg` at the given efficiency (1.0 = tuned;
    /// the paper's untuned OpenACC geometry is modelled as < 1.0).
    pub fn duration(&self, cfg: &MachineConfig, efficiency: f64) -> SimTime {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "kernel efficiency must be in (0, 1], got {efficiency}"
        );
        let body = match *self {
            KernelCost::Bytes(b) => b as f64 / cfg.device_mem_bw,
            KernelCost::Flops(f) => f / cfg.device_flops,
            KernelCost::Roofline { bytes, flops } => {
                (bytes as f64 / cfg.device_mem_bw).max(flops / cfg.device_flops)
            }
            KernelCost::Fixed(t) => return cfg.kernel_launch_overhead + t,
            KernelCost::Fused { k, bytes, flops } => {
                assert!(k >= 1, "fused kernel depth must be at least 1");
                (bytes as f64 / cfg.device_mem_bw).max(flops / cfg.device_flops)
            }
        };
        cfg.kernel_launch_overhead + SimTime::from_secs_f64(body / efficiency)
    }

    /// Duration of the same work executed on the host CPU (the TiDA-acc
    /// CPU path: same source, no offload).
    pub fn duration_on_host(&self, cfg: &MachineConfig) -> SimTime {
        let body = match *self {
            KernelCost::Bytes(b) => b as f64 / cfg.host_mem_bw,
            KernelCost::Flops(f) => f / cfg.host_flops,
            KernelCost::Roofline { bytes, flops } => {
                (bytes as f64 / cfg.host_mem_bw).max(flops / cfg.host_flops)
            }
            KernelCost::Fixed(t) => return t,
            // The host has no launch overhead to amortize and no explicit
            // on-chip staging; its caches already capture the inter-step
            // reuse, so the same roofline applies.
            KernelCost::Fused { k, bytes, flops } => {
                assert!(k >= 1, "fused kernel depth must be at least 1");
                (bytes as f64 / cfg.host_mem_bw).max(flops / cfg.host_flops)
            }
        };
        SimTime::from_secs_f64(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40m_sanity() {
        let cfg = MachineConfig::k40m();
        assert_eq!(cfg.device_mem_bytes, 12 * (1 << 30));
        assert!(cfg.h2d_pinned_bw > 1e9);
        assert!(cfg.device_mem_bw > cfg.h2d_pinned_bw);
    }

    #[test]
    fn with_device_mem_overrides_capacity() {
        let cfg = MachineConfig::k40m().with_device_mem(1 << 20);
        assert_eq!(cfg.device_mem_bytes, 1 << 20);
    }

    #[test]
    fn transfer_times_scale_with_bytes() {
        let cfg = MachineConfig::k40m();
        let one = cfg.h2d_time(100 << 20);
        let two = cfg.h2d_time(200 << 20);
        // Doubling payload less than doubles total (fixed latency), but the
        // payload part doubles.
        assert!(two > one);
        let payload1 = one - cfg.copy_latency;
        let payload2 = two - cfg.copy_latency;
        let ratio = payload2.as_ns() as f64 / payload1.as_ns() as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn pageable_staging_slower_than_pinned_dma() {
        let cfg = MachineConfig::k40m();
        let bytes = 1u64 << 30;
        // Staged (host stage + DMA) must exceed the bare pinned DMA.
        let staged = cfg.stage_time(bytes) + cfg.h2d_time(bytes);
        assert!(staged > cfg.h2d_time(bytes));
    }

    #[test]
    fn managed_slower_than_pinned() {
        let cfg = MachineConfig::k40m();
        let bytes = 256u64 << 20;
        assert!(cfg.managed_migration_time(bytes) > cfg.h2d_time(bytes));
    }

    #[test]
    fn kernel_cost_roofline_takes_max() {
        let cfg = MachineConfig::k40m();
        let mem = KernelCost::Bytes(1 << 30).duration(&cfg, 1.0);
        let fl = KernelCost::Flops(1e12).duration(&cfg, 1.0);
        let roof_mem = KernelCost::Roofline {
            bytes: 1 << 30,
            flops: 1.0,
        }
        .duration(&cfg, 1.0);
        let roof_fl = KernelCost::Roofline {
            bytes: 1,
            flops: 1e12,
        }
        .duration(&cfg, 1.0);
        assert_eq!(roof_mem, mem);
        assert_eq!(roof_fl, fl);
    }

    #[test]
    fn lower_efficiency_means_longer_kernel() {
        let cfg = MachineConfig::k40m();
        let tuned = KernelCost::Bytes(1 << 30).duration(&cfg, 1.0);
        let untuned = KernelCost::Bytes(1 << 30).duration(&cfg, 0.85);
        assert!(untuned > tuned);
    }

    #[test]
    fn fixed_cost_ignores_efficiency_body() {
        let cfg = MachineConfig::k40m();
        let t = KernelCost::Fixed(SimTime::from_us(100)).duration(&cfg, 0.5);
        assert_eq!(t, cfg.kernel_launch_overhead + SimTime::from_us(100));
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn invalid_efficiency_panics() {
        KernelCost::Bytes(1).duration(&MachineConfig::k40m(), 0.0);
    }

    #[test]
    fn host_duration_slower_than_device_for_big_kernels() {
        let cfg = MachineConfig::k40m();
        let cost = KernelCost::Roofline {
            bytes: 1 << 30,
            flops: 1e11,
        };
        assert!(cost.duration_on_host(&cfg) > cost.duration(&cfg, 1.0));
        assert_eq!(
            KernelCost::Fixed(SimTime::from_us(5)).duration_on_host(&cfg),
            SimTime::from_us(5)
        );
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = MachineConfig::k40m();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, cfg.name);
        assert_eq!(back.device_mem_bytes, cfg.device_mem_bytes);
        assert_eq!(back.h2d_pinned_bw, cfg.h2d_pinned_bw);
        assert_eq!(back.copy_latency, cfg.copy_latency);
        let kc = KernelCost::Roofline {
            bytes: 7,
            flops: 3.5,
        };
        let kj = serde_json::to_string(&kc).unwrap();
        assert_eq!(serde_json::from_str::<KernelCost>(&kj).unwrap(), kc);
    }

    #[test]
    fn fused_cost_matches_roofline_at_same_totals() {
        // Fused is the same roofline over its totals: with identical
        // bytes/flops the durations are bit-identical, so a depth-1 fused
        // launch with an unfused application's totals degenerates exactly.
        let cfg = MachineConfig::k40m();
        let roof = KernelCost::Roofline {
            bytes: 1 << 24,
            flops: 3.0e9,
        };
        let fused = KernelCost::Fused {
            k: 1,
            bytes: 1 << 24,
            flops: 3.0e9,
        };
        assert_eq!(fused.duration(&cfg, 0.95), roof.duration(&cfg, 0.95));
        assert_eq!(fused.duration_on_host(&cfg), roof.duration_on_host(&cfg));
    }

    #[test]
    fn fused_launch_beats_k_separate_launches() {
        // The structural win: one launch covering k applications with
        // on-chip reuse is cheaper than k launches each paying overhead
        // and full DRAM traffic.
        let cfg = MachineConfig::k40m();
        let cells = 1u64 << 20;
        let one = KernelCost::Roofline {
            bytes: cells * 24,
            flops: cells as f64 * 9.0,
        };
        let k = 4u32;
        let fused = KernelCost::Fused {
            k,
            bytes: cells * 24 + cells * 8,
            flops: cells as f64 * 9.0 * k as f64,
        };
        let unfused_total = SimTime::from_ns(one.duration(&cfg, 0.95).as_ns() * k as u64);
        assert!(fused.duration(&cfg, 0.95) < unfused_total);
    }

    #[test]
    fn fused_serde_roundtrip() {
        let kc = KernelCost::Fused {
            k: 4,
            bytes: 1024,
            flops: 2.5e6,
        };
        let kj = serde_json::to_string(&kc).unwrap();
        assert_eq!(serde_json::from_str::<KernelCost>(&kj).unwrap(), kc);
    }

    #[test]
    fn index_and_host_copy_costs_positive() {
        let cfg = MachineConfig::k40m();
        assert!(cfg.host_index_time(1000) > SimTime::ZERO);
        assert!(cfg.host_copy_time(4096) > SimTime::ZERO);
    }
}
