//! `TileAcc` — device memory slots, streams, caching, and the compute API.
//!
//! This is the paper's main data structure (§IV-B). Responsibilities, in the
//! paper's order:
//!
//! 1. **Memory management**: query free device memory (`cudaMemGetInfo`),
//!    allocate one region-sized device buffer per *slot* for as many regions
//!    as fit, and map regions onto slots (regions share slots when the
//!    device memory is insufficient — that is what lets oversubscribed
//!    problems run).
//! 2. **Streams**: one stream per slot; all operations touching a slot are
//!    issued to its stream, so transfers of one region overlap kernels on
//!    others while per-slot order is automatic.
//! 3. **Memory transfers**: regions are the transfer unit; all copies are
//!    asynchronous `cudaMemcpyAsync` equivalents. Host-bound transfers are
//!    followed by a stream synchronize because the caller may touch the data
//!    immediately (§IV-B-3).
//! 4. **Caching**: a cache list records which region currently occupies each
//!    slot (`None` = empty, the paper's `-1`); accesses that hit skip the
//!    transfer, misses queue an eviction write-back plus a load.
//! 5. **Kernels**: the `compute` methods take tiles and a closure (the
//!    paper's C++ lambda) and launch it in the destination slot's stream.
//! 6. **Ghost cell update**: see `ghost.rs`.
//!
//! Deviation from the paper (documented in DESIGN.md): when one kernel needs
//! two regions that live in *different* slots, the kernel is issued to the
//! destination slot's stream with an event-wait on the source slot's stream,
//! and the source slot records a "foreign consumer" event so a later load
//! into it cannot overwrite data a still-running kernel is reading. The
//! paper does not spell out its cross-stream ordering; this is the standard
//! CUDA idiom and preserves the paper's overlap behaviour.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::error::{AccError, IntegrityKind};
use crate::options::{AccOptions, SlotPolicy, WritebackPolicy};
use crate::plan::StepPlanner;
use crate::stats::AccStats;
use gpu_sim::{
    DeviceBuffer, GpuSystem, HostBuffer, HostMemKind, KernelCost, OpId, PrefetchCounters,
    RecoveryCounters, RunReport, SimTime, StreamId,
};
use std::sync::Arc;
use tida::{with_view_mut, Box3, Decomposition, Tile, TileArray};

/// Handle to an array registered with [`TileAcc::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub usize);

/// Where a region's authoritative data currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    Host,
    /// Resident in this device slot.
    Device(usize),
}

/// Why a device acquisition produced no slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AcquireFail {
    /// Degradable: a static slot conflict or a dead device path. The caller
    /// falls back to the host path.
    Fallback,
    /// Fatal (e.g. the platform crashed): must propagate to the caller.
    Fatal(AccError),
}

/// How an acquiring operation uses the region — recorded by the step-plan
/// recorder (`plan.rs`). Intent affects only plan recording, never the
/// staging behaviour itself (`WriteAll` maps onto the existing write-intent
/// `skip_load` path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessIntent {
    /// The operation only reads the region.
    Read,
    /// The operation reads and writes the region (in-place kernels, ghost
    /// landings into a resident destination).
    ReadWrite,
    /// The operation overwrites the region's entire valid box, so the load
    /// is skippable (write-intent allocation).
    WriteAll,
}

struct ArrayEntry {
    array: TileArray,
    /// Pinned host buffer handle per region (`cudaMallocHost` in the paper).
    host: Vec<HostBuffer>,
}

/// Which parts of a slot's region the device changed since the region was
/// loaded. A write-back moves only the changed part home: a part that is
/// not dirty is still byte-equal to the host copy it was loaded from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Dirty {
    /// A kernel wrote inside the valid box.
    valid: bool,
    /// A ghost gather wrote the shell, or a kernel's declared write box
    /// reaches outside the valid box (fused depth > 1).
    shell: bool,
}

impl Dirty {
    fn any(self) -> bool {
        self.valid || self.shell
    }
}

/// The part of a region a write-back moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Valid,
    Shell,
}

/// The gather runs of one region shape: its valid box and its ghost shell
/// as `(offset, len)` runs of its slab. Regions of one shape share them.
struct PartRuns {
    /// Grown-box size and the valid box relative to the grown box's corner.
    shape: (tida::IntVect, Box3),
    valid: Arc<[(usize, usize)]>,
    shell: Arc<[(usize, usize)]>,
}

struct Slot {
    dev: DeviceBuffer,
    dirty: Dirty,
    /// Completion events of kernels in *other* streams that read this slot;
    /// the next transfer into the slot must wait for them.
    foreign_consumers: Vec<gpu_sim::Event>,
    lru_stamp: u64,
    /// Set when an unrepairable corruption poisoned this slot's device
    /// buffer (non-ECC DRAM model): the runtime stops placing regions here.
    quarantined: bool,
}

/// The accelerator runtime. One `TileAcc` owns the simulated platform and
/// every registered array. See the module docs.
pub struct TileAcc {
    gpu: GpuSystem,
    opts: AccOptions,
    decomp: Option<Arc<Decomposition>>,
    arrays: Vec<ArrayEntry>,
    /// Device slots (allocated lazily on first use).
    slots: Vec<Slot>,
    streams: Vec<StreamId>,
    /// Paper's cache list: global region occupying each slot.
    cache: Vec<Option<usize>>,
    /// Inverse map: slot holding each global region.
    loc: Vec<Option<usize>>,
    /// In-flight eviction write-backs, dense-indexed by global region.
    inflight_writeback: Vec<Option<OpId>>,
    /// Last enqueued device operation touching each global region's *host*
    /// buffer (H2D reads it, D2H writes it), dense-indexed by global
    /// region. Host-side code must wait for this op before touching the
    /// buffer eagerly, or a simulated transfer scheduled in the past would
    /// observe data written by host code that (in simulated time) runs
    /// after it.
    host_slab_op: Vec<Option<OpId>>,
    clock: u64,
    gpu_mode: bool,
    stats: AccStats,
    /// Bytes of one device slot.
    slot_len: usize,
    /// Set when the device path is declared dead (persistent transfer
    /// failure, or a slot pool that could not allocate a single slot). All
    /// later tiles run on the host; dirty device state was salvaged.
    device_failed: bool,
    /// Step-plan recorder + lookahead predictor for the automatic overlap
    /// scheduler (inert until [`TileAcc::begin_step`] is called).
    planner: StepPlanner,
    /// Global regions staged by a prefetch and not yet organically used —
    /// their first hit is a `prefetch_hits`, not an organic `hits`.
    /// Dense-indexed by global region.
    prefetched: Vec<bool>,
    /// Gather runs per region shape, built on a shape's first part-dirty
    /// write-back.
    part_runs: Vec<PartRuns>,
}

/// Set a dense per-region flag, growing the table on first sight of `g`.
fn flag_set(v: &mut Vec<bool>, g: usize) {
    if v.len() <= g {
        v.resize(g + 1, false);
    }
    v[g] = true;
}

/// Clear and return a dense per-region flag.
fn flag_take(v: &mut [bool], g: usize) -> bool {
    v.get_mut(g).map(std::mem::take).unwrap_or(false)
}

/// Record an op in a dense per-region op table, growing it on demand.
fn op_set(v: &mut Vec<Option<OpId>>, g: usize, op: OpId) {
    if v.len() <= g {
        v.resize(g + 1, None);
    }
    v[g] = Some(op);
}

/// Remove and return the op recorded for region `g`, if any.
fn op_take(v: &mut [Option<OpId>], g: usize) -> Option<OpId> {
    v.get_mut(g).and_then(Option::take)
}

impl TileAcc {
    /// Wrap a platform. Arrays are added with [`TileAcc::register`]; device
    /// slots are sized on first use.
    pub fn new(gpu: GpuSystem, opts: AccOptions) -> Self {
        let gpu_mode = opts.gpu;
        TileAcc {
            gpu,
            opts,
            decomp: None,
            arrays: Vec::new(),
            slots: Vec::new(),
            streams: Vec::new(),
            cache: Vec::new(),
            loc: Vec::new(),
            inflight_writeback: Vec::new(),
            host_slab_op: Vec::new(),
            clock: 0,
            gpu_mode,
            stats: AccStats::default(),
            slot_len: 0,
            device_failed: false,
            planner: StepPlanner::default(),
            prefetched: Vec::new(),
            part_runs: Vec::new(),
        }
    }

    /// Register a tile array. All arrays must share one decomposition (the
    /// paper's kernels iterate matching regions of several arrays). Must be
    /// called before the first compute/ghost operation.
    pub fn register(&mut self, array: &TileArray) -> ArrayId {
        assert!(
            self.slots.is_empty(),
            "register all arrays before the first compute operation"
        );
        match &self.decomp {
            None => self.decomp = Some(array.decomp().clone()),
            Some(d) => assert!(
                Arc::ptr_eq(d, array.decomp()),
                "all registered arrays must share one decomposition"
            ),
        }
        let host: Vec<HostBuffer> = array
            .regions()
            .iter()
            .map(|r| {
                self.gpu
                    .adopt_host_slab(r.slab.clone(), HostMemKind::Pinned)
            })
            .collect();
        self.arrays.push(ArrayEntry {
            array: array.clone(),
            host,
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Switch between GPU and CPU execution — the paper's
    /// `tileItr.reset(GPU=true/false)`.
    pub fn set_gpu(&mut self, on: bool) {
        self.gpu_mode = on;
    }

    pub fn gpu_enabled(&self) -> bool {
        self.gpu_mode
    }

    /// Whether the runtime has abandoned the device path after a persistent
    /// fault (graceful degradation: all tiles run on the host from then on).
    pub fn device_failed(&self) -> bool {
        self.device_failed
    }

    /// Counters so far. The integrity and hazard counters are composed live
    /// from the platform's digest book and happens-before tracker (they are
    /// monotone over this instance's lifetime and are not rolled back by
    /// [`TileAcc::restore`], matching the supervisor-managed recovery
    /// counters).
    pub fn stats(&self) -> AccStats {
        let mut s = self.stats;
        let i = self.gpu.integrity_stats();
        s.integrity_detected += i.detected;
        s.integrity_repaired += i.repaired;
        s.hazards += self.gpu.hazard_counters().total();
        s
    }

    pub fn gpu(&self) -> &GpuSystem {
        &self.gpu
    }

    /// The prefetch/overlap counters in report form, for merging into a
    /// [`gpu_sim::RunReport`].
    pub fn prefetch_counters(&self) -> PrefetchCounters {
        PrefetchCounters {
            loads: self.stats.prefetch_loads,
            hits: self.stats.prefetch_hits,
            fallbacks: self.stats.prefetch_fallbacks,
            deferred_writebacks: self.stats.writebacks_deferred,
        }
    }

    /// [`gpu_sim::GpuSystem::report`] with this runtime's prefetch counters
    /// merged in (the simulator cannot tell a prefetch load from a demand
    /// load; the runtime can). Drains outstanding work.
    pub fn report(&mut self) -> RunReport {
        let counters = self.prefetch_counters();
        self.gpu.report().with_prefetch(counters)
    }

    /// Step period the plan recorder has detected, if any (`None` until
    /// [`TileAcc::begin_step`] has seen two full matching periods).
    pub fn plan_period(&self) -> Option<usize> {
        self.planner.period()
    }

    pub fn gpu_mut(&mut self) -> &mut GpuSystem {
        &mut self.gpu
    }

    /// Number of device slots (0 before first use).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }

    fn num_regions(&self) -> usize {
        self.decomp
            .as_ref()
            .expect("no arrays registered")
            .num_regions()
    }

    /// Where a region's authoritative copy lives right now.
    pub fn residency(&self, array: ArrayId, region: usize) -> Residency {
        if self.slots.is_empty() {
            return Residency::Host;
        }
        match self.loc[self.gidx(array, region)] {
            Some(s) => Residency::Device(s),
            None => Residency::Host,
        }
    }

    /// Drain all outstanding work; returns total elapsed simulated time.
    pub fn finish(&mut self) -> SimTime {
        self.gpu.finish()
    }

    /// Global region index: regions of different arrays interleave so the
    /// static policy keeps one kernel's operands in distinct slots.
    fn gidx(&self, array: ArrayId, region: usize) -> usize {
        region * self.arrays.len() + array.0
    }

    fn gsplit(&self, g: usize) -> (usize, usize) {
        (g % self.arrays.len(), g / self.arrays.len())
    }

    /// Lazily size and allocate the slot pool (§IV-B-1): query free device
    /// memory and fit as many region-sized buffers as possible, capped by
    /// the total region count and by `opts.max_slots`.
    fn ensure_slots(&mut self) -> Result<(), AccError> {
        if !self.slots.is_empty() || self.device_failed {
            return Ok(());
        }
        assert!(!self.arrays.is_empty(), "no arrays registered");
        let total = self.num_regions() * self.arrays.len();
        self.slot_len = self
            .arrays
            .iter()
            .flat_map(|a| a.array.regions().iter())
            .map(|r| r.slab.len())
            .max()
            .expect("arrays have regions");
        let bytes = (self.slot_len * std::mem::size_of::<f64>()) as u64;
        let (free, _) = self.gpu.mem_get_info();
        let fit = ((free as f64 * self.opts.mem_fraction) as u64 / bytes) as usize;
        let n = total
            .min(fit)
            .min(self.opts.max_slots.unwrap_or(usize::MAX));
        if n < 1 {
            return Err(AccError::Capacity {
                free_bytes: free,
                region_bytes: bytes,
            });
        }
        for _ in 0..n {
            match self.gpu.malloc_device(self.slot_len) {
                Ok(dev) => {
                    let stream = self.gpu.create_stream();
                    self.slots.push(Slot {
                        dev,
                        dirty: Dirty::default(),
                        foreign_consumers: Vec::new(),
                        lru_stamp: 0,
                        quarantined: false,
                    });
                    self.streams.push(stream);
                }
                Err(_) => {
                    // A mid-run `cudaMalloc` failure (sizing said it fits, so
                    // this is a fault): run with a smaller pool — the normal
                    // eviction/staging machinery absorbs the shrink.
                    self.stats.slot_shrinks += 1;
                }
            }
        }
        self.cache = vec![None; self.slots.len()];
        self.loc = vec![None; total];
        if self.slots.is_empty() {
            // Not a single slot could be allocated: the device is unusable;
            // every tile runs on the host from here.
            self.device_failed = true;
        }
        Ok(())
    }

    /// Fail fast when the simulated platform has crashed: everything
    /// submitted after a crash is refused, so device-path work is futile and
    /// any device-resident data is already lost.
    fn check_alive(&self) -> Result<(), AccError> {
        if self.gpu.crashed() {
            Err(AccError::Crashed)
        } else {
            Ok(())
        }
    }

    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.slots[slot].lru_stamp = self.clock;
    }

    /// Choose the slot for global region `g`, never one of `pinned` and
    /// never a quarantined slot. `None` is a static slot conflict (or an
    /// entirely quarantined pool) — the caller degrades to the host path.
    fn pick_slot(&self, g: usize, pinned: &[usize]) -> Option<usize> {
        let n = self.slots.len();
        match self.opts.policy {
            SlotPolicy::StaticInterleaved => {
                let s = g % n;
                if pinned.contains(&s) || self.slots[s].quarantined {
                    None
                } else {
                    Some(s)
                }
            }
            SlotPolicy::Lru => (0..n)
                .filter(|&s| !pinned.contains(&s) && !self.slots[s].quarantined)
                .min_by_key(|&s| (self.cache[s].is_some(), self.slots[s].lru_stamp)),
            // Belady over the predicted window: victimize the occupant with
            // the farthest next use. `next_use` is `u64::MAX` without a plan
            // (or for a region the plan no longer needs), so the key
            // degenerates to exactly the LRU ordering in that case.
            SlotPolicy::ReuseDistance => (0..n)
                .filter(|&s| !pinned.contains(&s) && !self.slots[s].quarantined)
                .min_by_key(|&s| {
                    let dist = self.cache[s].map_or(0, |g2| self.planner.next_use(g2));
                    (
                        self.cache[s].is_some(),
                        std::cmp::Reverse(dist),
                        self.slots[s].lru_stamp,
                    )
                }),
        }
    }

    /// The caching protocol of §IV-B-4: make region (`array`, `region`)
    /// device-resident, queueing at most one eviction write-back and one
    /// load in the slot's stream. Returns the slot. `pinned` slots (held by
    /// the current operation's other operands) are never victimized.
    pub(crate) fn acquire_device(
        &mut self,
        array: ArrayId,
        region: usize,
        pinned: &[usize],
    ) -> Result<usize, AcquireFail> {
        self.acquire_with(array, region, pinned, AccessIntent::Read)
    }

    /// [`TileAcc::acquire_device`] for an operation that reads *and* writes
    /// the region (in-place kernels, ghost landings).
    pub(crate) fn acquire_device_rw(
        &mut self,
        array: ArrayId,
        region: usize,
        pinned: &[usize],
    ) -> Result<usize, AcquireFail> {
        self.acquire_with(array, region, pinned, AccessIntent::ReadWrite)
    }

    /// [`TileAcc::acquire_device`] with a write intent: when `write_all` is
    /// true the caller's kernel overwrites the region's entire valid box, so
    /// (unless `opts.upload_written_regions`) the host→device load is
    /// skipped — the slot is simply claimed and marked dirty.
    pub(crate) fn acquire_device_intent(
        &mut self,
        array: ArrayId,
        region: usize,
        pinned: &[usize],
        write_all: bool,
    ) -> Result<usize, AcquireFail> {
        let intent = if write_all {
            AccessIntent::WriteAll
        } else {
            AccessIntent::ReadWrite
        };
        self.acquire_with(array, region, pinned, intent)
    }

    fn acquire_with(
        &mut self,
        array: ArrayId,
        region: usize,
        pinned: &[usize],
        intent: AccessIntent,
    ) -> Result<usize, AcquireFail> {
        self.ensure_slots().map_err(AcquireFail::Fatal)?;
        if self.device_failed {
            return Err(AcquireFail::Fallback);
        }
        let g = self.gidx(array, region);
        let skip_load = intent == AccessIntent::WriteAll && !self.opts.upload_written_regions;
        self.planner
            .note_access(g, !skip_load, intent != AccessIntent::Read);
        if let Some(s) = self.loc[g] {
            if self.gpu.device_poisoned(self.slots[s].dev) {
                // The hit sits on a struck DRAM slot. A clean slot's host
                // copy is still authoritative: quarantine the slot and fall
                // through to reload the region elsewhere. A dirty slot's
                // data exists nowhere valid — surface it for checkpoint
                // recovery.
                let dirty = std::mem::take(&mut self.slots[s].dirty).any();
                self.quarantine(s);
                self.cache[s] = None;
                self.loc[g] = None;
                flag_take(&mut self.prefetched, g);
                if dirty {
                    return Err(AcquireFail::Fatal(AccError::Integrity {
                        region,
                        kind: IntegrityKind::DirtySlot,
                    }));
                }
            } else {
                if flag_take(&mut self.prefetched, g) {
                    // First organic use of a prefetch-warmed region: this is
                    // transfer cost the prefetcher hid, not organic locality.
                    self.stats.prefetch_hits += 1;
                } else {
                    self.stats.hits += 1;
                }
                self.touch(s);
                return Ok(s);
            }
        }
        let Some(s) = self.pick_slot(g, pinned) else {
            return Err(AcquireFail::Fallback);
        };
        self.stage_into(g, s, skip_load)?;
        Ok(s)
    }

    /// Stage global region `g` into slot `s`: evict the occupant (with
    /// write-back or deferral), then load `g` (or just claim the slot when
    /// `skip_load`). Shared by demand acquisition and both prefetch paths.
    fn stage_into(&mut self, g: usize, s: usize, skip_load: bool) -> Result<(), AcquireFail> {
        // Everything that happens to this slot from here on must wait for
        // kernels in *other* streams still using it.
        self.drain_consumers_into(s, s);

        // Evict the current occupant, writing its data back (§IV-B-4,
        // "second possibility").
        if let Some(g2) = self.cache[s] {
            self.stats.evictions += 1;
            flag_take(&mut self.prefetched, g2);
            let dirty = self.slots[s].dirty.any();
            let write_back = match self.opts.writeback {
                // With a detected step plan a clean slot's host mirror is
                // provably current, so the unconditional write-back
                // coalesces to nothing: the D2H engine stays free for
                // traffic that matters. Without a plan the paper's
                // always-write-back behaviour is preserved bit for bit.
                WritebackPolicy::Always => dirty || !self.planner.has_plan(),
                WritebackPolicy::DirtyOnly => dirty,
            };
            if write_back {
                let op = self.flush_d2h(s, g2, false).map_err(AcquireFail::Fatal)?;
                if self.device_failed {
                    // The write-back exhausted its retries: fail_device
                    // already salvaged and released everything.
                    return Err(AcquireFail::Fallback);
                }
                op_set(&mut self.inflight_writeback, g2, op);
                op_set(&mut self.host_slab_op, g2, op);
            } else if self.opts.writeback == WritebackPolicy::Always {
                self.stats.writebacks_deferred += 1;
            } else {
                self.stats.writebacks_skipped += 1;
            }
            self.loc[g2] = None;
            // The cache-list entry is gone: any enqueued read of this slot
            // that still assumed g2 was resident is a stale-cache-list read.
            // The incoming load (or the claiming kernel's write) re-arms the
            // buffer. The write-back above was enqueued first, so its own
            // read is not flagged.
            self.gpu
                .note_evicted(self.slots[s].dev, desim::sym!("evict"));
        }

        // The incoming load must additionally wait for any in-flight
        // write-back of this region's own host buffer.
        if let Some(op) = op_take(&mut self.inflight_writeback, g) {
            self.gpu.stream_wait_op(self.streams[s], op);
        }

        if skip_load {
            // The kernel overwrites the whole valid box; ghost cells are
            // refreshed by the next fill_boundary before anything reads
            // them, so no upload is needed. The slot's valid box is dirty
            // from the moment it is claimed. Its shell is unspecified on
            // both sides until that fill_boundary, so a write-back of the
            // valid box alone leaves nothing readable stale.
            self.stats.write_allocs += 1;
            self.slots[s].dirty = Dirty {
                valid: true,
                shell: false,
            };
        } else {
            let (a, r) = self.gsplit(g);
            let host = self.arrays[a].host[r];
            let len = self.arrays[a].array.region(r).slab.len();
            let op = self.load_h2d(s, host, len)?;
            op_set(&mut self.host_slab_op, g, op);
            self.stats.loads += 1;
            self.slots[s].dirty = Dirty::default();
        }
        self.cache[s] = Some(g);
        self.loc[g] = Some(s);
        self.touch(s);
        Ok(())
    }

    /// Host→device region load with bounded retry-with-backoff on injected
    /// transient faults. Exhausting the retries declares the device dead and
    /// the caller degrades to the host path; a crash is fatal (retrying a
    /// dead platform would misdiagnose the crash as a persistent fault).
    fn load_h2d(&mut self, s: usize, host: HostBuffer, len: usize) -> Result<OpId, AcquireFail> {
        let dev = self.slots[s].dev;
        let stream = self.streams[s];
        let mut op = self.gpu.memcpy_h2d_async(dev, 0, host, 0, len, stream);
        let mut attempt: u32 = 0;
        while self.gpu.op_faulted(op) {
            if self.gpu.crashed() {
                return Err(AcquireFail::Fatal(AccError::Crashed));
            }
            if self.opts.retry.exhausted(attempt) {
                self.fail_device();
                return Err(AcquireFail::Fallback);
            }
            self.stats.transfer_retries += 1;
            self.gpu
                .backoff_work(self.opts.retry.backoff(attempt), "h2d-retry-backoff");
            op = self.gpu.memcpy_h2d_async(dev, 0, host, 0, len, stream);
            attempt += 1;
        }
        Ok(op)
    }

    /// Device→host copy with bounded retry-with-backoff. When the retries
    /// are exhausted the region is rescued through the fault-exempt salvage
    /// path (host data stays authoritative even on a dead link) and the
    /// device is declared failed. Returns the op that carries the data.
    pub(crate) fn d2h_retrying(
        &mut self,
        dst: HostBuffer,
        dev: DeviceBuffer,
        len: usize,
        stream: StreamId,
    ) -> Result<OpId, AccError> {
        self.d2h_part_retrying(dst, dev, len, None, stream)
    }

    /// [`TileAcc::d2h_retrying`] that moves only the cells of `runs` when
    /// given (a gathered write-back of a part-dirty slot). The salvage
    /// fallback still moves all `len` cells.
    fn d2h_part_retrying(
        &mut self,
        dst: HostBuffer,
        dev: DeviceBuffer,
        len: usize,
        runs: Option<&Arc<[(usize, usize)]>>,
        stream: StreamId,
    ) -> Result<OpId, AccError> {
        let issue = |gpu: &mut GpuSystem| match runs {
            None => gpu.memcpy_d2h_async(dst, 0, dev, 0, len, stream),
            Some(runs) => gpu.memcpy_d2h_gather_async(dst, dev, Arc::clone(runs), stream),
        };
        let mut op = issue(&mut self.gpu);
        let mut attempt: u32 = 0;
        while self.gpu.op_faulted(op) {
            if self.gpu.crashed() {
                // Device data died with the platform; not even the salvage
                // path can rescue it. The caller restores a checkpoint.
                return Err(AccError::Crashed);
            }
            if self.opts.retry.exhausted(attempt) {
                self.stats.salvaged_regions += 1;
                let op = self.gpu.memcpy_d2h_salvage(dst, 0, dev, 0, len, stream);
                self.fail_device();
                return Ok(op);
            }
            self.stats.transfer_retries += 1;
            self.gpu
                .backoff_work(self.opts.retry.backoff(attempt), "d2h-retry-backoff");
            op = issue(&mut self.gpu);
            attempt += 1;
        }
        Ok(op)
    }

    /// Write slot `s`'s region (global region `g`) back to the host with
    /// retry/salvage, moving only what the device changed: a slot dirty in
    /// just its valid box or just its shell sends that part through a
    /// gathered copy; a slot dirty in both, or clean (the paper's
    /// unconditional write-back), sends the whole slab. Clears the dirty
    /// bits first so a `fail_device` triggered by this very flush does not
    /// salvage the same slot a second time.
    ///
    /// When the host waits on the write-back (`host_waits`), its pack,
    /// copy and unpack run back to back on the host's critical path, so
    /// the part goes through the gather only when those three take less
    /// time than copying the whole slab. An eviction write-back runs
    /// behind other work, where only the copy engine's load counts, and
    /// the gather always lightens it.
    fn flush_d2h(&mut self, s: usize, g: usize, host_waits: bool) -> Result<OpId, AccError> {
        let dirty = std::mem::take(&mut self.slots[s].dirty);
        let (a, r) = self.gsplit(g);
        let host = self.arrays[a].host[r];
        let len = self.arrays[a].array.region(r).slab.len();
        let part = match (dirty.valid, dirty.shell) {
            (true, false) => Some(Part::Valid),
            (false, true) => Some(Part::Shell),
            _ => None,
        };
        let runs = part.and_then(|p| self.part_runs(a, r, p)).filter(|runs| {
            if !host_waits {
                return true;
            }
            let f64s = |cells: usize| (cells * std::mem::size_of::<f64>()) as u64;
            let cfg = self.gpu.config();
            let gather: SimTime = cfg
                .d2h_gather_times(f64s(runs.iter().map(|&(_, n)| n).sum()))
                .into_iter()
                .sum();
            gather < cfg.d2h_time(f64s(len))
        });
        match part.filter(|_| runs.is_some()) {
            Some(Part::Valid) => self.stats.writebacks_valid_only += 1,
            Some(Part::Shell) => self.stats.writebacks_shell_only += 1,
            None => {}
        }
        let dev = self.slots[s].dev;
        let stream = self.streams[s];
        self.d2h_part_retrying(host, dev, len, runs.as_ref(), stream)
    }

    /// The gather runs of `part` of region `r` of array `a`, or `None` when
    /// the part is the whole slab or nothing (no ghost shell), where a
    /// gathered copy buys nothing.
    fn part_runs(&mut self, a: usize, r: usize, part: Part) -> Option<Arc<[(usize, usize)]>> {
        let region = self.arrays[a].array.region(r);
        if region.valid == region.grown {
            return None;
        }
        let shape = (region.grown.size(), region.valid.shift(-region.grown.lo()));
        let i = match self.part_runs.iter().position(|p| p.shape == shape) {
            Some(i) => i,
            None => {
                let layout = tida::Layout::new(Box3::from_size(shape.0));
                self.part_runs.push(PartRuns {
                    shape,
                    valid: layout.box_runs(shape.1).into(),
                    shell: layout.shell_runs(shape.1).into(),
                });
                self.part_runs.len() - 1
            }
        };
        let runs = &self.part_runs[i];
        Some(Arc::clone(match part {
            Part::Valid => &runs.valid,
            Part::Shell => &runs.shell,
        }))
    }

    /// Record that a kernel declared to write `bx` of region `r` of `array`
    /// ran on slot `s`: it dirties the valid box where it meets it and the
    /// shell where it reaches outside it.
    fn mark_written(&mut self, s: usize, array: ArrayId, r: usize, bx: Box3) {
        let valid = self.arrays[array.0].array.region(r).valid;
        let d = &mut self.slots[s].dirty;
        d.valid |= !bx.intersect(&valid).is_empty();
        d.shell |= !valid.contains_box(&bx);
    }

    /// Declare the device path dead (idempotent): salvage every dirty
    /// resident region through the fault-exempt path, release all slots, and
    /// drain the device. Later acquisitions return `SlotConflict` and all
    /// tiles run on the host.
    fn fail_device(&mut self) {
        if self.device_failed {
            return;
        }
        self.device_failed = true;
        for s in 0..self.slots.len() {
            if let Some(g) = self.cache[s] {
                if self.slots[s].dirty.any() {
                    let (a, r) = self.gsplit(g);
                    let host = self.arrays[a].host[r];
                    let len = self.arrays[a].array.region(r).slab.len();
                    self.drain_consumers_into(s, s);
                    self.gpu.memcpy_d2h_salvage(
                        host,
                        0,
                        self.slots[s].dev,
                        0,
                        len,
                        self.streams[s],
                    );
                    self.stats.salvaged_regions += 1;
                    self.slots[s].dirty = Dirty::default();
                }
                self.cache[s] = None;
                self.loc[g] = None;
            }
        }
        self.gpu.device_synchronize();
        self.inflight_writeback.clear();
        self.host_slab_op.clear();
        self.prefetched.clear();
    }

    /// Quarantine a slot whose device buffer took an unrepairable strike
    /// (idempotent). A quarantined slot is never picked again; with every
    /// slot quarantined the runtime degrades to the host path via the
    /// normal conflict-fallback machinery.
    fn quarantine(&mut self, s: usize) {
        if !self.slots[s].quarantined {
            self.slots[s].quarantined = true;
            self.stats.slots_quarantined += 1;
        }
    }

    /// Count a host fallback under the right reason.
    fn note_fallback(&mut self) {
        if self.device_failed {
            self.stats.fault_fallbacks += 1;
        } else {
            self.stats.conflict_fallbacks += 1;
        }
    }

    /// Host access to a region (§IV-B-4, "GPU disabled iteration"): if it is
    /// device-resident, queue the transfer back and block until it lands
    /// (the caller may touch the data immediately, §IV-B-3). The slot is
    /// released.
    pub(crate) fn acquire_host(&mut self, array: ArrayId, region: usize) -> Result<(), AccError> {
        if self.slots.is_empty() {
            return Ok(()); // nothing was ever on the device
        }
        let g = self.gidx(array, region);
        let mut struck_slot: Option<usize> = None;
        if let Some(s) = self.loc[g] {
            let need_copy =
                self.opts.writeback == WritebackPolicy::Always || self.slots[s].dirty.any();
            if need_copy {
                self.drain_consumers_into(s, s);
                self.flush_d2h(s, g, true)?;
                self.stats.host_syncs += 1;
                if self.device_failed {
                    // fail_device already drained the device and released
                    // every slot; the host buffer is authoritative.
                    return Ok(());
                }
            }
            self.gpu.stream_synchronize(self.streams[s]);
            if self.gpu.device_poisoned(self.slots[s].dev) {
                struck_slot = Some(s);
            }
            self.cache[s] = None;
            self.loc[g] = None;
            self.slots[s].dirty = Dirty::default();
            flag_take(&mut self.prefetched, g);
        } else if let Some(op) = op_take(&mut self.inflight_writeback, g) {
            // An eviction write-back is still in flight; wait for it.
            self.gpu.sync_op(op);
        }
        // The caller will touch the host buffer eagerly: every enqueued
        // transfer that reads or writes it must have executed first (a
        // pending upload could otherwise observe host writes from its
        // simulated future).
        if let Some(op) = op_take(&mut self.host_slab_op, g) {
            self.gpu.sync_op(op);
        }
        // The slot took an unrepairable strike: never place a region there
        // again. (The host copy may still be fine — a clean slot whose
        // origin went stale poisons the slot, not the mirror.)
        if let Some(s) = struck_slot {
            self.quarantine(s);
        }
        // The host copy is authoritative from here on: verify nothing
        // unrepairable landed in it. Poison here means a corrupted
        // write-back (or a struck dirty slot) made it into the mirror — the
        // only way back to valid data is a checkpoint.
        if self.gpu.host_poisoned(self.arrays[array.0].host[region]) {
            let kind = if struck_slot.is_some() {
                IntegrityKind::DirtySlot
            } else {
                IntegrityKind::HostMirror
            };
            return Err(AccError::Integrity { region, kind });
        }
        Ok(())
    }

    /// Bring every region of `array` back to the host, region by region —
    /// the drain is pipelined because each region syncs only its own slot's
    /// stream.
    pub fn sync_to_host(&mut self, array: ArrayId) -> Result<(), AccError> {
        for r in 0..self.num_regions() {
            self.acquire_host(array, r)?;
        }
        Ok(())
    }

    /// Asynchronously stage a region onto the device ahead of use
    /// (extension: `cudaMemPrefetchAsync`-style warm-up). A no-op when the
    /// region is already resident or when GPU execution is disabled.
    ///
    /// A prefetch never evicts: it stages into a free slot (under the
    /// static policy, the region's own slot) and is silently capped when no
    /// slot is free — an out-of-core `prefetch_all` warms exactly as many
    /// regions as fit instead of thrashing the pool. Prefetches that
    /// degrade for a *reason* (dead device path, static-slot conflict,
    /// quarantine-exhausted pool) are counted in
    /// `AccStats::prefetch_fallbacks` and leave a `prefetch` marker in the
    /// trace, so a silently useless warm-up loop is observable.
    pub fn prefetch(&mut self, array: ArrayId, region: usize) -> Result<(), AccError> {
        if !self.gpu_mode {
            return Ok(());
        }
        self.check_alive()?;
        self.ensure_slots()?;
        if self.device_failed {
            self.note_prefetch_fallback();
            return Ok(());
        }
        let g = self.gidx(array, region);
        if self.loc[g].is_some() {
            return Ok(());
        }
        let n = self.slots.len();
        let free = |me: &Self, s: usize| me.cache[s].is_none() && !me.slots[s].quarantined;
        let slot = match self.opts.policy {
            SlotPolicy::StaticInterleaved => {
                let s = g % n;
                if free(self, s) {
                    Some(s)
                } else {
                    // The region's one static slot is occupied or
                    // quarantined — the acquire-time conflict this prefetch
                    // was meant to hide will happen anyway.
                    self.note_prefetch_fallback();
                    return Ok(());
                }
            }
            SlotPolicy::Lru | SlotPolicy::ReuseDistance => (0..n)
                .filter(|&s| free(self, s))
                .min_by_key(|&s| self.slots[s].lru_stamp),
        };
        let Some(s) = slot else {
            if self.slots.iter().all(|sl| sl.quarantined) {
                // Quarantine exhausted the pool: every later acquire will
                // degrade to the host. Surface it rather than no-op quietly.
                self.note_prefetch_fallback();
            }
            return Ok(()); // pool full: staging is capped at capacity
        };
        match self.stage_into(g, s, false) {
            Ok(()) => {
                self.stats.prefetch_loads += 1;
                flag_set(&mut self.prefetched, g);
                Ok(())
            }
            Err(AcquireFail::Fallback) => {
                self.note_prefetch_fallback();
                Ok(())
            }
            Err(AcquireFail::Fatal(e)) => Err(e),
        }
    }

    /// Prefetch every region of `array` (pipelined across slot streams),
    /// capped at free-slot capacity — see [`TileAcc::prefetch`].
    pub fn prefetch_all(&mut self, array: ArrayId) -> Result<(), AccError> {
        for r in 0..self.num_regions() {
            self.prefetch(array, r)?;
        }
        Ok(())
    }

    /// Count a prefetch that could not stage its region and leave a
    /// zero-width marker on the trace's host lane so degraded prefetching
    /// shows up on the timeline, not just in the counters.
    fn note_prefetch_fallback(&mut self) {
        self.stats.prefetch_fallbacks += 1;
        self.gpu.note_marker("prefetch", "prefetch-fallback");
    }

    /// Declare a step boundary to the automatic overlap scheduler.
    ///
    /// Call once per iteration, *before* the step's operations. The step
    /// plan recorder archives the finished step's access sequence and looks
    /// for a repeating period (double-buffered stencils repeat every two
    /// steps). Once one is found and `AccOptions::lookahead > 0`, the
    /// lookahead prefetcher issues the predicted host→device loads for the
    /// window `k..k+L` right here — while step `k-1`'s kernels are still
    /// draining — into idle slot streams, capped at capacity the prefetcher
    /// can claim without hurting the window (a slot is eligible only when
    /// empty or when its occupant's next predicted use is farther away than
    /// the staged region's). Harmless to call when prediction is cold or
    /// `lookahead` is 0; never called by the runtime itself, so programs
    /// that don't opt in keep their exact schedule.
    pub fn begin_step(&mut self) -> Result<(), AccError> {
        self.planner.on_step(self.opts.lookahead);
        if self.opts.lookahead == 0
            || !self.gpu_mode
            || self.device_failed
            || self.slots.is_empty()
            || !self.planner.has_plan()
        {
            return Ok(());
        }
        self.check_alive()?;
        let cands: Vec<crate::plan::PrefetchCandidate> = self.planner.candidates().to_vec();
        // Stream idleness at the moment the window opens, queried once: a
        // load routed to an idle lane starts immediately instead of queueing
        // behind the previous step's kernel.
        let idle: Vec<bool> = (0..self.streams.len())
            .map(|s| {
                let st = self.streams[s];
                self.gpu.stream_query(st)
            })
            .collect();
        for c in cands {
            if self.device_failed {
                break;
            }
            if self.loc[c.g].is_some() {
                continue; // already resident
            }
            let Some(s) = self.pick_prefetch_slot(c.g, c.pos, &idle) else {
                continue; // no slot the prefetcher may claim for this region
            };
            match self.stage_into(c.g, s, false) {
                Ok(()) => {
                    self.stats.prefetch_loads += 1;
                    flag_set(&mut self.prefetched, c.g);
                }
                Err(AcquireFail::Fallback) => {
                    self.note_prefetch_fallback();
                    break;
                }
                Err(AcquireFail::Fatal(e)) => return Err(e),
            }
        }
        Ok(())
    }

    /// Slot the lookahead prefetcher may claim for region `g`, whose first
    /// predicted use is at window position `pos`: empty slots, or slots
    /// whose occupant's next predicted use lies strictly beyond `pos` —
    /// displacing only regions needed *later* than what is staged, so the
    /// prefetcher can never evict anything the window needs first (it never
    /// thrashes). Preference order: empty, then idle stream, then farthest
    /// occupant, then LRU (deterministic).
    fn pick_prefetch_slot(&self, g: usize, pos: u64, idle: &[bool]) -> Option<usize> {
        let n = self.slots.len();
        let eligible = |s: usize| -> Option<u64> {
            if self.slots[s].quarantined {
                return None;
            }
            match self.cache[s] {
                None => Some(u64::MAX),
                Some(g2) => {
                    let d = self.planner.next_use(g2);
                    (d > pos).then_some(d)
                }
            }
        };
        if self.opts.policy == SlotPolicy::StaticInterleaved {
            // The demand acquire will use slot g % n and nothing else;
            // staging anywhere else would be evicted unused.
            let s = g % n;
            return eligible(s).map(|_| s);
        }
        (0..n)
            .filter_map(|s| eligible(s).map(|d| (s, d)))
            .min_by_key(|&(s, d)| {
                (
                    self.cache[s].is_some(),
                    !idle[s],
                    std::cmp::Reverse(d),
                    self.slots[s].lru_stamp,
                )
            })
            .map(|(s, _)| s)
    }

    /// Record that a kernel running in `consumer_stream_slot`'s stream reads
    /// (or writes) `src_slot`; a later operation on `src_slot` must wait for
    /// it.
    fn note_foreign_read(&mut self, src_slot: usize, consumer_slot: usize) {
        if src_slot != consumer_slot {
            let ev = self.gpu.record_event(self.streams[consumer_slot]);
            self.slots[src_slot].foreign_consumers.push(ev);
        }
    }

    /// Make the next operation submitted to `stream_slot`'s stream wait for
    /// every recorded foreign use of `slot`.
    fn drain_consumers_into(&mut self, slot: usize, stream_slot: usize) {
        let consumers = std::mem::take(&mut self.slots[slot].foreign_consumers);
        for ev in consumers {
            self.gpu.stream_wait_event(self.streams[stream_slot], ev);
        }
    }

    // ------------------------------------------------------------------
    // The compute API (§V): tiles + a lambda, one source for CPU and GPU.
    // ------------------------------------------------------------------

    /// In-place kernel over one tile of one array:
    /// `compute(tile, [](data, lo, hi) {...})` in the paper's interface.
    ///
    /// `cost` declares the device cost; the closure is the data effect and
    /// runs wherever the tile executes (host, or the simulated device).
    pub fn compute1(
        &mut self,
        tile: Tile,
        array: ArrayId,
        cost: KernelCost,
        label: &'static str,
        f: impl FnOnce(&mut tida::ViewMut<'_>, Box3) + 'static,
    ) -> Result<(), AccError> {
        if !self.gpu_mode {
            return self.compute1_host(tile, array, cost, label, f);
        }
        self.check_alive()?;
        self.ensure_slots()?;
        let s = match self.acquire_device_rw(array, tile.region, &[]) {
            Ok(s) => s,
            Err(AcquireFail::Fatal(e)) => return Err(e),
            Err(AcquireFail::Fallback) => {
                // A single operand cannot statically conflict, but the
                // acquire fails this way when the device path is dead.
                self.note_fallback();
                return self.compute1_host(tile, array, cost, label, f);
            }
        };
        let backed = self.gpu.backed();
        let slab = self.gpu.device_slab(self.slots[s].dev);
        let layout = self.arrays[array.0].array.region(tile.region).layout;
        let bx = tile.bx;
        let dev = self.slots[s].dev;
        self.gpu.launch_kernel(
            self.streams[s],
            gpu_sim::KernelLaunch::new(label, cost)
                .efficiency(self.opts.kernel_efficiency)
                .writes(dev.into())
                .exec_if(backed, move || {
                    with_view_mut(&slab, layout, |mut v| f(&mut v, bx));
                }),
        );
        self.mark_written(s, array, tile.region, bx);
        self.stats.kernels_gpu += 1;
        // The crash trigger may have fired on this very launch, in which
        // case the kernel was submitted effect-less: surface that now.
        self.check_alive()
    }

    fn compute1_host(
        &mut self,
        tile: Tile,
        array: ArrayId,
        cost: KernelCost,
        label: &'static str,
        f: impl FnOnce(&mut tida::ViewMut<'_>, Box3),
    ) -> Result<(), AccError> {
        self.acquire_host(array, tile.region)?;
        let r = self.arrays[array.0].array.region(tile.region);
        let (slab, layout) = (r.slab.clone(), r.layout);
        with_view_mut(&slab, layout, |mut v| f(&mut v, tile.bx));
        let d = cost.duration_on_host(self.gpu.config());
        self.gpu.host_work(d, label);
        self.stats.kernels_host += 1;
        Ok(())
    }

    /// Two-operand kernel over matching regions: `dst <- f(src)` on the
    /// cells of `tile` (the heat step's `compute(tile_new, tile_old, ...)`).
    /// A convenience wrapper over [`TileAcc::compute`].
    pub fn compute2(
        &mut self,
        tile: Tile,
        dst: ArrayId,
        src: ArrayId,
        cost: KernelCost,
        label: &'static str,
        f: impl FnOnce(&mut tida::ViewMut<'_>, &tida::View<'_>, Box3) + 'static,
    ) -> Result<(), AccError> {
        self.compute(tile, &[dst], &[src], cost, label, move |ws, rs, bx| {
            f(&mut ws[0], &rs[0], bx)
        })
    }

    /// The general multi-operand kernel (§V: "If computation involves
    /// multiple tiles as inputs, then the compute method takes these tiles
    /// and a lambda function").
    ///
    /// Over the cells of `tile`, the closure receives mutable views of the
    /// matching region of every array in `writes` and read views of every
    /// array in `reads` (in the given order). Write arrays whose tile covers
    /// the whole valid box are claimed without uploading (write-intent).
    /// `writes` and `reads` must be disjoint; use [`TileAcc::compute1`] for
    /// in-place kernels.
    pub fn compute(
        &mut self,
        tile: Tile,
        writes: &[ArrayId],
        reads: &[ArrayId],
        cost: KernelCost,
        label: &'static str,
        f: impl FnOnce(&mut [tida::ViewMut<'_>], &[tida::View<'_>], Box3) + 'static,
    ) -> Result<(), AccError> {
        assert!(!writes.is_empty(), "compute needs at least one write array");
        for (i, w) in writes.iter().enumerate() {
            assert!(
                !writes[i + 1..].contains(w),
                "compute: duplicate write array {w:?}"
            );
            assert!(
                !reads.contains(w),
                "compute: array {w:?} in both writes and reads; use compute1 for in-place kernels"
            );
        }
        if !self.gpu_mode {
            return self.compute_host(tile, writes, reads, cost, label, f);
        }
        self.check_alive()?;
        self.ensure_slots()?;
        let r = tile.region;
        let write_all = tile.bx == self.arrays[writes[0].0].array.region(r).valid;

        // Acquire every operand, pinning as we go so later acquisitions
        // cannot evict earlier ones. Any static-slot conflict falls back to
        // the host path.
        let mut pinned: Vec<usize> = Vec::with_capacity(reads.len() + writes.len());
        let mut read_slots = Vec::with_capacity(reads.len());
        for &a in reads {
            match self.acquire_device(a, r, &pinned) {
                Ok(s) => {
                    if !pinned.contains(&s) {
                        pinned.push(s);
                    }
                    read_slots.push(s);
                }
                Err(AcquireFail::Fatal(e)) => return Err(e),
                Err(AcquireFail::Fallback) => {
                    self.note_fallback();
                    return self.compute_host(tile, writes, reads, cost, label, f);
                }
            }
        }
        let mut write_slots = Vec::with_capacity(writes.len());
        for &a in writes {
            match self.acquire_device_intent(a, r, &pinned, write_all) {
                Ok(s) => {
                    pinned.push(s);
                    write_slots.push(s);
                }
                Err(AcquireFail::Fatal(e)) => return Err(e),
                Err(AcquireFail::Fallback) => {
                    self.note_fallback();
                    return self.compute_host(tile, writes, reads, cost, label, f);
                }
            }
        }

        // The kernel runs in the first write slot's stream; order it after
        // every other involved slot's outstanding work, and after foreign
        // uses of the slots it will overwrite.
        let ks = write_slots[0];
        let mut ordered: Vec<usize> = Vec::new();
        for &s in read_slots.iter().chain(&write_slots) {
            if s != ks && !ordered.contains(&s) {
                ordered.push(s);
                let ev = self.gpu.record_event(self.streams[s]);
                self.gpu.stream_wait_event(self.streams[ks], ev);
            }
        }
        for &s in &write_slots {
            self.drain_consumers_into(s, ks);
        }

        // Operand slab captures are only needed when the effect will run;
        // timing-only systems skip both the capture vectors and the box.
        let backed = self.gpu.backed();
        let pairs_of = |slf: &Self, arrays: &[ArrayId], slots: &[usize]| {
            if !backed {
                return Vec::new();
            }
            arrays
                .iter()
                .zip(slots)
                .map(|(a, &s)| {
                    (
                        slf.gpu.device_slab(slf.slots[s].dev),
                        slf.arrays[a.0].array.region(r).layout,
                    )
                })
                .collect::<Vec<(memslab::Slab, tida::Layout)>>()
        };
        let wpairs = pairs_of(self, writes, &write_slots);
        let rpairs = pairs_of(self, reads, &read_slots);
        let bx = tile.bx;
        let mut launch = gpu_sim::KernelLaunch::new(label, cost)
            .efficiency(self.opts.kernel_efficiency)
            .exec_if(backed, move || {
                let wrefs: Vec<(&memslab::Slab, tida::Layout)> =
                    wpairs.iter().map(|(s, l)| (s, *l)).collect();
                let rrefs: Vec<(&memslab::Slab, tida::Layout)> =
                    rpairs.iter().map(|(s, l)| (s, *l)).collect();
                tida::with_many(&wrefs, &rrefs, |ws, rs| f(ws, rs, bx));
            });
        for &s in &read_slots {
            launch = launch.reads(self.slots[s].dev.into());
        }
        for &s in &write_slots {
            launch = launch.writes(self.slots[s].dev.into());
        }
        self.gpu.launch_kernel(self.streams[ks], launch);
        for (&s, &a) in write_slots.iter().zip(writes) {
            self.mark_written(s, a, r, bx);
            self.note_foreign_read(s, ks);
        }
        for &s in &read_slots {
            self.note_foreign_read(s, ks);
        }
        self.stats.kernels_gpu += 1;
        // The crash trigger may have fired on one of this operation's
        // transfers or on the launch itself: surface that now.
        self.check_alive()
    }

    fn compute_host(
        &mut self,
        tile: Tile,
        writes: &[ArrayId],
        reads: &[ArrayId],
        cost: KernelCost,
        label: &'static str,
        f: impl FnOnce(&mut [tida::ViewMut<'_>], &[tida::View<'_>], Box3),
    ) -> Result<(), AccError> {
        for &a in reads.iter().chain(writes) {
            self.acquire_host(a, tile.region)?;
        }
        let wpairs: Vec<(memslab::Slab, tida::Layout)> = writes
            .iter()
            .map(|a| {
                let reg = self.arrays[a.0].array.region(tile.region);
                (reg.slab.clone(), reg.layout)
            })
            .collect();
        let rpairs: Vec<(memslab::Slab, tida::Layout)> = reads
            .iter()
            .map(|a| {
                let reg = self.arrays[a.0].array.region(tile.region);
                (reg.slab.clone(), reg.layout)
            })
            .collect();
        let wrefs: Vec<(&memslab::Slab, tida::Layout)> =
            wpairs.iter().map(|(s, l)| (s, *l)).collect();
        let rrefs: Vec<(&memslab::Slab, tida::Layout)> =
            rpairs.iter().map(|(s, l)| (s, *l)).collect();
        tida::with_many(&wrefs, &rrefs, |ws, rs| f(ws, rs, tile.bx));
        let d = cost.duration_on_host(self.gpu.config());
        self.gpu.host_work(d, label);
        self.stats.kernels_host += 1;
        Ok(())
    }

    /// Temporally blocked kernel: ONE fused launch that applies `f` to
    /// region `r` `depth` times between ghost exchanges, ping-ponging
    /// between `dst` and `src` on a shrinking trapezoid of boxes
    /// (sub-step `i` computes `valid.grow(depth-1-i)`), so each byte staged
    /// through the interconnect is amortized over `depth` time steps.
    ///
    /// This models a fused stencil kernel that double-buffers the
    /// intermediate levels on chip (shared-memory ping-pong): the data
    /// effect still writes every level through to the device slabs so
    /// fused runs stay bitwise-comparable to `depth` separate
    /// [`TileAcc::compute2`] calls, while `cost` (normally a
    /// [`KernelCost::Fused`]) charges the launch the on-chip-reuse DRAM
    /// traffic. After the call the final level sits in `dst` when `depth`
    /// is odd and in `src` when it is even — the caller swaps the handles
    /// exactly as in the unfused ping-pong loop.
    ///
    /// Both arrays need a ghost halo at least `depth` deep and a `Full`
    /// exchange (each application widens the dependence cone diagonally),
    /// and the preceding exchange must have filled `src`'s halo. `depth`
    /// = 1 degenerates to exactly [`TileAcc::compute2`] over the valid box.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_fused(
        &mut self,
        r: usize,
        dst: ArrayId,
        src: ArrayId,
        depth: usize,
        cost: KernelCost,
        label: &'static str,
        f: impl Fn(&mut tida::ViewMut<'_>, &tida::View<'_>, Box3) + 'static,
    ) -> Result<(), AccError> {
        assert!(depth >= 1, "fused depth must be at least 1");
        assert_ne!(dst, src, "fused kernel needs distinct ping-pong arrays");
        let valid = self.arrays[dst.0].array.region(r).valid;
        if depth == 1 {
            let tile = Tile {
                region: r,
                bx: valid,
            };
            return self.compute2(tile, dst, src, cost, label, move |d, s, bx| f(d, s, bx));
        }
        for &a in &[dst, src] {
            let arr = &self.arrays[a.0].array;
            assert!(
                arr.ghost() >= depth as i64,
                "fused depth {depth} needs a ghost halo at least that deep;                  array {a:?} has ghost {}",
                arr.ghost()
            );
            assert_eq!(
                arr.exchange_mode(),
                tida::ExchangeMode::Full,
                "fused depth {depth} widens the dependence cone diagonally;                  array {a:?} needs ExchangeMode::Full"
            );
        }
        if !self.gpu_mode {
            return self.compute_fused_host(r, dst, src, depth, cost, label, f);
        }
        self.check_alive()?;
        self.ensure_slots()?;

        // `src` is read by sub-step 0 and overwritten by sub-step 1, so it
        // acquires read-write; `dst` is fully overwritten (sub-step 0 writes
        // `valid.grow(depth-1)` before anything reads it), so it claims its
        // slot with write intent and skips the upload.
        let s_src = match self.acquire_device_rw(src, r, &[]) {
            Ok(s) => s,
            Err(AcquireFail::Fatal(e)) => return Err(e),
            Err(AcquireFail::Fallback) => {
                self.note_fallback();
                return self.compute_fused_host(r, dst, src, depth, cost, label, f);
            }
        };
        let s_dst = match self.acquire_device_intent(dst, r, &[s_src], true) {
            Ok(s) => s,
            Err(AcquireFail::Fatal(e)) => return Err(e),
            Err(AcquireFail::Fallback) => {
                self.note_fallback();
                return self.compute_fused_host(r, dst, src, depth, cost, label, f);
            }
        };
        debug_assert_ne!(s_src, s_dst, "pinning keeps the ping-pong slots distinct");

        // One launch in the dst slot's stream, ordered after src's
        // outstanding work and after foreign uses of both slots (both are
        // overwritten by the ping-pong).
        let ks = s_dst;
        let ev = self.gpu.record_event(self.streams[s_src]);
        self.gpu.stream_wait_event(self.streams[ks], ev);
        self.drain_consumers_into(s_dst, ks);
        self.drain_consumers_into(s_src, ks);

        let backed = self.gpu.backed();
        let dst_pair = (
            self.gpu.device_slab(self.slots[s_dst].dev),
            self.arrays[dst.0].array.region(r).layout,
        );
        let src_pair = (
            self.gpu.device_slab(self.slots[s_src].dev),
            self.arrays[src.0].array.region(r).layout,
        );
        let launch = gpu_sim::KernelLaunch::new(label, cost)
            .efficiency(self.opts.kernel_efficiency)
            .reads(self.slots[s_src].dev.into())
            .writes(self.slots[s_src].dev.into())
            .writes(self.slots[s_dst].dev.into())
            .exec_if(backed, move || {
                let (mut cur_dst, mut cur_src) = (&dst_pair, &src_pair);
                for i in 0..depth {
                    let bx = valid.grow((depth - 1 - i) as i64);
                    let wrefs = [(&cur_dst.0, cur_dst.1)];
                    let rrefs = [(&cur_src.0, cur_src.1)];
                    tida::with_many(&wrefs, &rrefs, |ws, rs| f(&mut ws[0], &rs[0], bx));
                    std::mem::swap(&mut cur_dst, &mut cur_src);
                }
            });
        self.gpu.launch_kernel(self.streams[ks], launch);
        // Sub-step `i` writes `valid.grow(depth-1-i)` of dst (even `i`) or
        // src (odd `i`); each array's widest write is its first.
        self.mark_written(s_dst, dst, r, valid.grow(depth as i64 - 1));
        self.mark_written(s_src, src, r, valid.grow(depth as i64 - 2));
        for s in [s_dst, s_src] {
            self.note_foreign_read(s, ks);
        }
        self.stats.kernels_gpu += 1;
        self.stats.kernels_fused += 1;
        self.stats.fused_substeps += depth as u64;
        self.check_alive()
    }

    #[allow(clippy::too_many_arguments)]
    fn compute_fused_host(
        &mut self,
        r: usize,
        dst: ArrayId,
        src: ArrayId,
        depth: usize,
        cost: KernelCost,
        label: &'static str,
        f: impl Fn(&mut tida::ViewMut<'_>, &tida::View<'_>, Box3),
    ) -> Result<(), AccError> {
        self.acquire_host(src, r)?;
        self.acquire_host(dst, r)?;
        let valid = self.arrays[dst.0].array.region(r).valid;
        let pair = |slf: &Self, a: ArrayId| {
            let reg = slf.arrays[a.0].array.region(r);
            (reg.slab.clone(), reg.layout)
        };
        let dst_pair = pair(self, dst);
        let src_pair = pair(self, src);
        let (mut cur_dst, mut cur_src) = (&dst_pair, &src_pair);
        for i in 0..depth {
            let bx = valid.grow((depth - 1 - i) as i64);
            let wrefs = [(&cur_dst.0, cur_dst.1)];
            let rrefs = [(&cur_src.0, cur_src.1)];
            tida::with_many(&wrefs, &rrefs, |ws, rs| f(&mut ws[0], &rs[0], bx));
            std::mem::swap(&mut cur_dst, &mut cur_src);
        }
        let d = cost.duration_on_host(self.gpu.config());
        self.gpu.host_work(d, label);
        self.stats.kernels_host += 1;
        self.stats.fused_substeps += depth as u64;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (crash-consistent snapshots).
    // ------------------------------------------------------------------

    /// Capture a crash-consistent snapshot of every registered array.
    ///
    /// All arrays are first drained to the host (`sync_to_host`), so the
    /// snapshot's invariant is: host slabs authoritative, device cache empty,
    /// no dirty slots. `restore` validates exactly that invariant, which is
    /// what makes a restored run bit-identical to an uninterrupted one —
    /// the continued computation depends only on host data.
    pub fn checkpoint(&mut self, step: u64) -> Result<Checkpoint, AccError> {
        self.check_alive()?;
        for a in 0..self.arrays.len() {
            self.sync_to_host(ArrayId(a))?;
        }
        self.check_alive()?;
        self.stats.checkpoints_taken += 1;
        let data: Vec<Vec<Vec<f64>>> = self
            .arrays
            .iter()
            .map(|e| {
                e.array
                    .regions()
                    .iter()
                    .map(|r| r.slab.snapshot().unwrap_or_default())
                    .collect()
            })
            .collect();
        let cache: Vec<i64> = self
            .cache
            .iter()
            .map(|c| c.map(|g| g as i64).unwrap_or(-1))
            .collect();
        let dirty: Vec<bool> = self.slots.iter().map(|s| s.dirty.any()).collect();
        Ok(Checkpoint {
            step,
            clock: self.clock,
            stats: self.stats,
            data,
            cache,
            dirty,
        })
    }

    /// Rebuild this runtime's state from a snapshot taken by
    /// [`TileAcc::checkpoint`] (on this accelerator or an identically
    /// configured one). Host slabs are overwritten, the device cache is
    /// emptied, and counters are rolled back to the snapshot's values; the
    /// continued run is bit-identical to one that never crashed.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        if ck.data.len() != self.arrays.len() {
            return Err(CheckpointError::Incompatible);
        }
        for (e, regions) in self.arrays.iter().zip(&ck.data) {
            if e.array.regions().len() != regions.len() {
                return Err(CheckpointError::Incompatible);
            }
            for (r, saved) in e.array.regions().iter().zip(regions) {
                // An empty saved slab means the region was never grown
                // (virtual); a grown region must match its slab length.
                if !saved.is_empty() && saved.len() != r.slab.len() {
                    return Err(CheckpointError::Incompatible);
                }
            }
        }
        // The snapshot was captured post-sync: a torn writer could not have
        // produced one with resident or dirty slots.
        if ck.cache.iter().any(|&c| c != -1) || ck.dirty.iter().any(|&d| d) {
            return Err(CheckpointError::Incompatible);
        }
        for (e, regions) in self.arrays.iter().zip(&ck.data) {
            for (r, saved) in e.array.regions().iter().zip(regions) {
                if !saved.is_empty() {
                    r.slab.materialize();
                    r.slab.with_mut(|dst| {
                        if let Some(dst) = dst {
                            dst.copy_from_slice(saved);
                        }
                    });
                }
            }
        }
        // Drop all device residency; the host copies are authoritative.
        for c in self.cache.iter_mut() {
            *c = None;
        }
        for l in self.loc.iter_mut() {
            *l = None;
        }
        for s in self.slots.iter_mut() {
            s.dirty = Dirty::default();
            s.foreign_consumers.clear();
        }
        self.inflight_writeback.clear();
        self.host_slab_op.clear();
        self.prefetched.clear();
        // The replayed steps re-record their plans from scratch; a restored
        // run must never prefetch on a prediction from the timeline it just
        // discarded.
        self.planner.reset_prediction();
        // The snapshot's host data just overwrote the mirrors, so any host
        // poison recorded against them is cured. (Quarantined slots stay
        // quarantined: a struck DRAM page does not heal on restore.)
        for a in &self.arrays {
            for &h in &a.host {
                self.gpu.clear_host_poison(h);
            }
        }
        self.clock = ck.clock;
        self.stats = ck.stats;
        self.stats.checkpoints_restored += 1;
        Ok(())
    }

    /// Mirror a supervisor's cumulative recovery counters into this
    /// runtime's stats. `restore` rolls `stats` back to the snapshot's
    /// values, so the freshly built accelerator cannot know how many times
    /// the *run* has been restored — the supervisor re-applies its totals
    /// after each restore.
    pub(crate) fn sync_recovery_stats(&mut self, c: RecoveryCounters) {
        self.stats.checkpoints_restored = c.checkpoints_restored;
        self.stats.hang_detections = c.hang_detections;
    }

    // Internal accessors for ghost.rs.
    pub(crate) fn array(&self, a: ArrayId) -> &TileArray {
        &self.arrays[a.0].array
    }

    pub(crate) fn slot_dev(&self, s: usize) -> DeviceBuffer {
        self.slots[s].dev
    }

    pub(crate) fn slot_stream(&self, s: usize) -> StreamId {
        self.streams[s]
    }

    pub(crate) fn kernel_efficiency(&self) -> f64 {
        self.opts.kernel_efficiency
    }

    pub(crate) fn ghost_on_device(&self) -> bool {
        self.opts.ghost_on_device && !self.device_failed
    }

    pub(crate) fn ghost_barrier(&self) -> bool {
        self.opts.ghost_barrier
    }

    pub(crate) fn ghost_batching(&self) -> bool {
        self.opts.ghost_batching
    }

    pub(crate) fn drain_consumers_pub(&mut self, slot: usize, stream_slot: usize) {
        self.drain_consumers_into(slot, stream_slot);
    }

    pub(crate) fn check_alive_pub(&self) -> Result<(), AccError> {
        self.check_alive()
    }

    /// A ghost gather wrote slot `s`'s shell.
    pub(crate) fn mark_shell_dirty(&mut self, s: usize) {
        self.slots[s].dirty.shell = true;
    }

    pub(crate) fn bump_ghost_gpu(&mut self) {
        self.stats.ghost_gpu += 1;
    }

    pub(crate) fn bump_ghost_host(&mut self) {
        self.stats.ghost_host += 1;
    }

    pub(crate) fn bump_conflict(&mut self) {
        self.stats.conflict_fallbacks += 1;
    }

    pub(crate) fn note_foreign_read_pub(&mut self, src_slot: usize, consumer_slot: usize) {
        self.note_foreign_read(src_slot, consumer_slot);
    }

    /// Record a device-resident read that bypasses the acquire path (the
    /// reduction's device arm) with the step-plan recorder. `needs_load` is
    /// false — a resident-only read is not a prefetch opportunity, but it
    /// extends the region's predicted reuse distance for eviction.
    pub(crate) fn note_plan_read(&mut self, array: ArrayId, region: usize) {
        if !self.arrays.is_empty() {
            let g = self.gidx(array, region);
            self.planner.note_access(g, false, false);
        }
    }
}
