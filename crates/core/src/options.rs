//! Runtime configuration of the accelerator layer.

use gpu_sim::SimTime;

/// How regions are mapped to device memory slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPolicy {
    /// The paper's scheme: region `r` of array `a` statically maps to slot
    /// `(r * num_arrays + a) % num_slots`. Interleaving by array keeps the
    /// source and destination regions of one kernel in distinct slots
    /// whenever `num_slots >= num_arrays`.
    StaticInterleaved,
    /// Extension: any free slot, evicting the least-recently-used occupant
    /// when none is free. Avoids static collisions at the cost of a lookup.
    Lru,
    /// Extension: plan-aware eviction. When the step-plan recorder has
    /// detected a stable period (see `TileAcc::begin_step`), the victim is
    /// the resident region with the farthest predicted next use — Belady's
    /// algorithm over the predicted window. Falls back to LRU whenever no
    /// plan exists.
    ReuseDistance,
}

/// Bounded retry-with-backoff: how many times a transiently failed
/// operation is reattempted, and how long the host backs off before each
/// retry (doubling per attempt, capped at 16 doublings so the shift can
/// never overflow).
///
/// One policy governs every retry loop in the stack — the transfer retries
/// in [`crate::TileAcc`], the `cluster` runtime and the baselines, and the
/// job-level admission retries of the serving layer — so a deployment
/// tunes a single knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt before the operation is declared
    /// dead (0 = fail on the first fault).
    pub max_retries: u32,
    /// Host-side backoff charged before the first retry; doubles on each
    /// further attempt.
    pub base_backoff: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: SimTime::from_us(20),
        }
    }
}

impl RetryPolicy {
    pub const fn new(max_retries: u32, base_backoff: SimTime) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff,
        }
    }

    /// A policy that never retries: the first fault is final.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: SimTime::ZERO,
        }
    }

    /// Whether `attempt` (0-based count of retries already spent) has
    /// exhausted the budget.
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt >= self.max_retries
    }

    /// Backoff charged before retry number `attempt` (0-based): the base
    /// doubled `attempt` times, capped at 16 doublings.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        SimTime::from_ns(self.base_backoff.as_ns() << attempt.min(16))
    }
}

/// When an evicted region's device data is copied back to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackPolicy {
    /// The paper's behaviour: every eviction queues a device→host transfer.
    Always,
    /// Extension: skip the transfer when no kernel has written the slot
    /// since it was loaded (the host copy is still current).
    DirtyOnly,
}

/// Options for [`crate::TileAcc`].
#[derive(Debug, Clone)]
pub struct AccOptions {
    pub policy: SlotPolicy,
    pub writeback: WritebackPolicy,
    /// Artificial cap on the number of device slots, regardless of free
    /// memory — how the paper limits the GPU to two regions in Fig. 7/8.
    pub max_slots: Option<usize>,
    /// Fraction of free device memory the slot pool may claim.
    pub mem_fraction: f64,
    /// Initial execution mode (the tile iterator's `reset(GPU=...)`).
    pub gpu: bool,
    /// Efficiency of the library's kernels. TiDA-acc kernels are generated
    /// by the OpenACC compiler from the `compute` lambda (§IV-B-5); the
    /// library supplies `collapse`/`deviceptr` hints and launches one kernel
    /// per region, which the cost model credits as near-tuned (0.95) rather
    /// than hand-tuned CUDA (1.0).
    pub kernel_efficiency: f64,
    /// Upload a region that the next kernel fully overwrites. `false`
    /// (default) skips the host→device copy when `compute`'s destination
    /// tile covers the region's whole valid box — without this, the heat
    /// solver moves twice the necessary data and the paper's low-iteration
    /// wins (Fig. 5) are impossible, so the original library must have had
    /// an equivalent. Set `true` to measure the difference (ablation).
    pub upload_written_regions: bool,
    /// Run ghost-cell updates on the device when regions are resident
    /// (§IV-B-6). `false` forces every ghost patch onto the host path —
    /// the ablation for the paper's device-update design choice.
    pub ghost_on_device: bool,
    /// Synchronize the whole device before each ghost exchange, as the
    /// paper does (`acc wait`, §IV-B-6). `false` is the barrier-free
    /// extension: per-slot event ordering replaces the global barrier, so
    /// the exchange of one region overlaps compute still draining on
    /// others.
    pub ghost_barrier: bool,
    /// Launch one combined gather kernel per destination region instead of
    /// one kernel per patch (extension): same traffic, ~6× fewer launches
    /// for face exchanges.
    pub ghost_batching: bool,
    /// Lookahead window (in steps) of the automatic overlap scheduler:
    /// while step `k`'s kernels drain, `TileAcc::begin_step` issues the
    /// predicted host→device loads for steps `k..k+lookahead` into idle
    /// slot streams, capped at free-slot capacity. `0` (default) disables
    /// automatic prefetching; the step-plan recorder still runs so
    /// `SlotPolicy::ReuseDistance` can victimize by reuse distance.
    pub lookahead: usize,
    /// Retry-with-backoff budget for transient transfer faults; exhausting
    /// it declares the device path dead and degrades to the host.
    pub retry: RetryPolicy,
}

impl Default for AccOptions {
    fn default() -> Self {
        AccOptions {
            policy: SlotPolicy::StaticInterleaved,
            writeback: WritebackPolicy::Always,
            max_slots: None,
            mem_fraction: 0.95,
            gpu: true,
            kernel_efficiency: 0.95,
            upload_written_regions: false,
            ghost_on_device: true,
            ghost_barrier: true,
            ghost_batching: false,
            lookahead: 0,
            retry: RetryPolicy::default(),
        }
    }
}

impl AccOptions {
    /// The paper's configuration (static slots, unconditional write-back).
    pub fn paper() -> Self {
        Self::default()
    }

    pub fn with_max_slots(mut self, n: usize) -> Self {
        self.max_slots = Some(n);
        self
    }

    pub fn with_policy(mut self, p: SlotPolicy) -> Self {
        self.policy = p;
        self
    }

    pub fn with_writeback(mut self, w: WritebackPolicy) -> Self {
        self.writeback = w;
        self
    }

    pub fn with_transfer_retries(mut self, n: u32) -> Self {
        self.retry.max_retries = n;
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn with_lookahead(mut self, steps: usize) -> Self {
        self.lookahead = steps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = AccOptions::paper();
        assert_eq!(o.policy, SlotPolicy::StaticInterleaved);
        assert_eq!(o.writeback, WritebackPolicy::Always);
        assert_eq!(o.max_slots, None);
        assert!(o.gpu);
        assert_eq!(o.lookahead, 0, "automatic prefetch is opt-in");
    }

    #[test]
    fn builders_apply() {
        let o = AccOptions::default()
            .with_max_slots(2)
            .with_policy(SlotPolicy::ReuseDistance)
            .with_writeback(WritebackPolicy::DirtyOnly)
            .with_lookahead(2);
        assert_eq!(o.max_slots, Some(2));
        assert_eq!(o.policy, SlotPolicy::ReuseDistance);
        assert_eq!(o.writeback, WritebackPolicy::DirtyOnly);
        assert_eq!(o.lookahead, 2);
    }

    #[test]
    fn retry_defaults_are_bounded() {
        let o = AccOptions::default();
        assert_eq!(o.retry.max_retries, 3);
        assert!(o.retry.base_backoff > SimTime::ZERO);
        assert_eq!(o.with_transfer_retries(9).retry.max_retries, 9);
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy::new(3, SimTime::from_us(20));
        assert_eq!(p.backoff(0), SimTime::from_us(20));
        assert_eq!(p.backoff(1), SimTime::from_us(40));
        assert_eq!(p.backoff(2), SimTime::from_us(80));
        // The doubling caps at 16 shifts so huge attempt counts can't
        // overflow the nanosecond arithmetic.
        assert_eq!(p.backoff(16), p.backoff(40));
        assert!(!p.exhausted(2));
        assert!(p.exhausted(3));
        assert!(RetryPolicy::none().exhausted(0));
        assert_eq!(RetryPolicy::none().backoff(0), SimTime::ZERO);
    }
}
