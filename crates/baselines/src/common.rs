//! Shared configuration and result types for all execution-model variants.

use gpu_sim::{DeviceBuffer, GpuSystem, HostBuffer, SimTime, StreamId, Trace};
use tida_acc::RetryPolicy;

/// Retry budget the baselines give an injected transient transfer fault:
/// 8 retries, 20 µs base backoff doubling per attempt. A plain CUDA
/// program has no host fallback: a persistent H2D fault past this budget
/// is unrecoverable (the H2D helper panics); a persistent D2H fault
/// degrades to the fault-exempt salvage path.
const RETRY: RetryPolicy = RetryPolicy::new(8, SimTime::from_us(20));

/// `memcpy_h2d_async` with bounded retry-with-backoff on injected transient
/// faults — what a robust CUDA program does around `cudaMemcpyAsync`.
pub fn h2d_retrying(
    gpu: &mut GpuSystem,
    dst: DeviceBuffer,
    src: HostBuffer,
    len: usize,
    stream: StreamId,
) {
    let mut op = gpu.memcpy_h2d_async(dst, 0, src, 0, len, stream);
    let mut attempt: u32 = 0;
    while gpu.op_faulted(op) {
        assert!(
            !RETRY.exhausted(attempt),
            "baseline cannot degrade past a persistent H2D fault"
        );
        gpu.backoff_work(RETRY.backoff(attempt), "h2d-retry-backoff");
        op = gpu.memcpy_h2d_async(dst, 0, src, 0, len, stream);
        attempt += 1;
    }
}

/// `memcpy_d2h_async` with bounded retry-with-backoff; a persistently dead
/// D2H lane falls back to the fault-exempt salvage copy so results still
/// reach the host.
pub fn d2h_retrying(
    gpu: &mut GpuSystem,
    dst: HostBuffer,
    src: DeviceBuffer,
    len: usize,
    stream: StreamId,
) {
    let mut op = gpu.memcpy_d2h_async(dst, 0, src, 0, len, stream);
    let mut attempt: u32 = 0;
    while gpu.op_faulted(op) {
        if RETRY.exhausted(attempt) {
            gpu.memcpy_d2h_salvage(dst, 0, src, 0, len, stream);
            break;
        }
        gpu.backoff_work(RETRY.backoff(attempt), "d2h-retry-backoff");
        op = gpu.memcpy_d2h_async(dst, 0, src, 0, len, stream);
        attempt += 1;
    }
}

/// Host memory / transfer discipline of a whole-array baseline.
///
/// Matches the three memory managements the paper compares in §II-B/Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemMode {
    /// Ordinary `malloc` host memory; transfers stage and synchronize.
    Pageable,
    /// `cudaMallocHost` pinned memory; full-bandwidth async DMA.
    Pinned,
    /// `cudaMallocManaged` unified memory; on-demand migration.
    Managed,
}

impl MemMode {
    pub fn label(self) -> &'static str {
        match self {
            MemMode::Pageable => "pageable",
            MemMode::Pinned => "pinned",
            MemMode::Managed => "managed",
        }
    }
}

/// Options common to every baseline run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub mem: MemMode,
    /// Allocate real data (validated run) or virtual buffers (timing only).
    pub backed: bool,
    /// Record a span trace.
    pub tracing: bool,
}

impl RunOpts {
    pub fn timing(mem: MemMode) -> Self {
        RunOpts {
            mem,
            backed: false,
            tracing: false,
        }
    }

    pub fn validated(mem: MemMode) -> Self {
        RunOpts {
            mem,
            backed: true,
            tracing: false,
        }
    }

    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }
}

/// Outcome of one run: the simulated wall time, transfer/kernel statistics,
/// the final field (when backed), and the trace (when recorded).
pub struct RunResult {
    pub label: String,
    pub elapsed: SimTime,
    pub bytes_h2d: u64,
    pub bytes_d2h: u64,
    pub kernels: u64,
    pub result: Option<Vec<f64>>,
    pub trace: Option<Trace>,
}

impl RunResult {
    /// Elapsed time in milliseconds (convenience for reports).
    pub fn ms(&self) -> f64 {
        self.elapsed.as_ms_f64()
    }

    /// Speedup of `self` relative to `baseline` (>1 means `self` is faster).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.elapsed.as_secs_f64() / self.elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_mode_labels() {
        assert_eq!(MemMode::Pageable.label(), "pageable");
        assert_eq!(MemMode::Pinned.label(), "pinned");
        assert_eq!(MemMode::Managed.label(), "managed");
    }

    #[test]
    fn speedup_ratio() {
        let mk = |ns: u64| RunResult {
            label: "x".into(),
            elapsed: SimTime::from_ns(ns),
            bytes_h2d: 0,
            bytes_d2h: 0,
            kernels: 0,
            result: None,
            trace: None,
        };
        let fast = mk(100);
        let slow = mk(400);
        assert_eq!(fast.speedup_over(&slow), 4.0);
        assert_eq!(slow.speedup_over(&fast), 0.25);
    }
}
