//! `baselines` — every execution model the paper compares.
//!
//! * [`heat`] — whole-array heat-solver baselines: tuned CUDA, OpenACC
//!   (compiler-generated kernels + per-face boundary kernels), and the
//!   CUDA-memory + OpenACC-kernels hybrid, each under pageable / pinned /
//!   managed memory (Fig. 1, Fig. 5).
//! * [`busy`] — whole-array compute-intensive baselines with the three math
//!   implementations (Fig. 6).
//! * [`tida`] — the TiDA-acc drivers for both kernels (Figs. 5–8).
//!
//! Every run returns a [`RunResult`] with the simulated time, transfer and
//! kernel statistics, the final field when validated, and the trace when
//! requested — the figure harness in `crates/bench` is a thin formatter over
//! these functions.

pub mod busy;
mod cluster_impl;
mod common;
pub mod heat;
pub mod jacobi;
pub mod multigrid;
mod tida_impl;
pub mod tuning;

pub use cluster_impl::{cluster_heat, cluster_jacobi, net_bytes_from_trace, tida_heat_multi};
pub use common::{d2h_retrying, h2d_retrying, MemMode, RunOpts, RunResult};
pub use jacobi::{cuda_jacobi, tida_jacobi};
pub use tida_impl::{tida_busy, tida_heat, tida_heat_fused, tida_heat_timetiled, TidaOpts};

#[cfg(test)]
mod cross_validation {
    use super::*;
    use gpu_sim::MachineConfig;
    use kernels::busy::MathImpl;

    /// Every execution model must compute the same physics: the simulator's
    /// point is that only *time* differs between variants.
    #[test]
    fn all_heat_variants_bitwise_agree() {
        let cfg = MachineConfig::k40m();
        let (n, steps) = (6, 2);
        let reference = heat::cuda_heat(&cfg, n, steps, RunOpts::validated(MemMode::Pinned))
            .result
            .unwrap();
        let variants = [
            heat::cuda_heat(&cfg, n, steps, RunOpts::validated(MemMode::Pageable)),
            heat::cuda_heat(&cfg, n, steps, RunOpts::validated(MemMode::Managed)),
            heat::openacc_heat(&cfg, n, steps, RunOpts::validated(MemMode::Pageable)),
            heat::hybrid_heat(&cfg, n, steps, RunOpts::validated(MemMode::Pinned)),
            tida_heat(&cfg, n, steps, &TidaOpts::validated(3)),
            tida_heat(&cfg, n, steps, &TidaOpts::validated(3).with_max_slots(2)),
        ];
        for v in variants {
            assert_eq!(v.result.as_ref().unwrap(), &reference, "{}", v.label);
        }
    }

    #[test]
    fn all_busy_variants_bitwise_agree() {
        let cfg = MachineConfig::k40m();
        let (n, steps, iters) = (6, 2, 4);
        let reference = busy::cuda_busy(
            &cfg,
            n,
            steps,
            iters,
            MathImpl::CudaLibm,
            RunOpts::validated(MemMode::Pinned),
        )
        .result
        .unwrap();
        let variants = [
            busy::cuda_busy(
                &cfg,
                n,
                steps,
                iters,
                MathImpl::FastMath,
                RunOpts::validated(MemMode::Pageable),
            ),
            busy::openacc_busy(&cfg, n, steps, iters, RunOpts::validated(MemMode::Pageable)),
            busy::cuda_busy(
                &cfg,
                n,
                steps,
                iters,
                MathImpl::CudaLibm,
                RunOpts::validated(MemMode::Managed),
            ),
            tida_busy(&cfg, n, steps, iters, &TidaOpts::validated(3)),
            tida_busy(
                &cfg,
                n,
                steps,
                iters,
                &TidaOpts::validated(3).with_max_slots(1),
            ),
        ];
        for v in variants {
            assert_eq!(v.result.as_ref().unwrap(), &reference, "{}", v.label);
        }
    }
}
