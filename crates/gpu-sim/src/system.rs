//! The simulated platform: one host, one device, a CUDA-style API.
//!
//! [`GpuSystem`] owns the discrete-event scheduler and exposes the operations
//! the paper's library is written against:
//!
//! | CUDA                       | here                                    |
//! |----------------------------|-----------------------------------------|
//! | `cudaMalloc`               | [`GpuSystem::malloc_device`]             |
//! | `cudaMallocHost`           | [`GpuSystem::malloc_host`] (`Pinned`)    |
//! | `malloc`                   | [`GpuSystem::malloc_host`] (`Pageable`)  |
//! | `cudaMallocManaged`        | [`GpuSystem::malloc_managed`]            |
//! | `cudaMemGetInfo`           | [`GpuSystem::mem_get_info`]              |
//! | `cudaStreamCreate`         | [`GpuSystem::create_stream`]             |
//! | `cudaMemcpyAsync` H2D/D2H  | [`GpuSystem::memcpy_h2d_async`] / [`GpuSystem::memcpy_d2h_async`] |
//! | kernel `<<<...,stream>>>`  | [`GpuSystem::launch_kernel`]             |
//! | `cudaStreamSynchronize`    | [`GpuSystem::stream_synchronize`]        |
//! | `cudaDeviceSynchronize`    | [`GpuSystem::device_synchronize`]        |
//! | `cudaEventRecord` / `cudaStreamWaitEvent` | [`GpuSystem::record_event`] / [`GpuSystem::stream_wait_event`] |
//!
//! Semantics preserved from the real runtime, because the paper's results
//! hinge on them:
//!
//! * operations in one stream execute in FIFO order; operations in different
//!   streams may overlap when engines are free;
//! * there is one DMA engine per direction, so H2D, D2H and compute can all
//!   proceed concurrently — but two H2D copies serialize;
//! * `memcpy_*_async` on **pageable** memory stages through a host bounce
//!   buffer and blocks the host (CUDA degrades exactly this way), so genuine
//!   overlap requires pinned memory;
//! * managed (unified) memory migrates on demand at kernel launch and at
//!   host access, at a lower bandwidth plus a fault overhead.
//!
//! The host has its own clock: asynchronous submissions cost
//! `host_enqueue_overhead`, blocking calls advance the clock to the awaited
//! completion, and host-side work (ghost-cell index computation, host
//! staging) occupies the `host` trace lane.

use crate::config::{HostMemKind, MachineConfig};
use crate::fault::{FaultPlan, FaultState, FaultStats, Lane};
use crate::hazard::{Dir, HazardCounters, HazardRecord, HazardTracker};
use crate::kernel::KernelLaunch;
use crate::memory::{DeviceAllocator, IntegrityBook, IntegrityStats, OutOfDeviceMemory};
use desim::{intern_fmt, EngineId, Op, OpId, Scheduler, SimTime, Sym, Trace, TraceLevel};
use memslab::Slab;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Interned symbol for a literal, resolved once per call site (an atomic
/// load afterwards) — keeps constant labels/categories off the interner's
/// hash path in per-op code.
macro_rules! csym {
    ($s:literal) => {{
        static S: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
        *S.get_or_init(|| desim::intern_static($s))
    }};
}

/// Handle to a device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceBuffer(pub(crate) usize);

impl DeviceBuffer {
    /// Stable index for [`BufKey::Device`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a host allocation (pageable or pinned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostBuffer(pub(crate) usize);

impl HostBuffer {
    /// Stable index for [`BufKey::Host`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a managed (unified-memory) allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ManagedBuffer(pub(crate) usize);

impl ManagedBuffer {
    /// Stable index for [`BufKey::Managed`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<DeviceBuffer> for BufKey {
    fn from(b: DeviceBuffer) -> BufKey {
        BufKey::Device(b.0)
    }
}

impl From<HostBuffer> for BufKey {
    fn from(b: HostBuffer) -> BufKey {
        BufKey::Host(b.0)
    }
}

impl From<ManagedBuffer> for BufKey {
    fn from(b: ManagedBuffer) -> BufKey {
        BufKey::Managed(b.0)
    }
}

/// Handle to a stream (an in-order activity queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

/// A recorded event; created by [`GpuSystem::record_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event(OpId);

/// Identity of a buffer for access tracking (hazard checking, managed
/// migration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BufKey {
    Device(usize),
    Host(usize),
    Managed(usize),
}

impl BufKey {
    /// Stable scalar encoding of this buffer's identity, used as the
    /// abstract resource in desim op footprints ([`desim::Op::touches`]) so
    /// schedule explorers can tell which enqueued ops commute. The variant
    /// tag lives above bit 32; buffer indices never collide across kinds.
    pub fn resource_id(self) -> u64 {
        match self {
            BufKey::Device(i) => (1u64 << 32) | i as u64,
            BufKey::Host(i) => (2u64 << 32) | i as u64,
            BufKey::Managed(i) => (3u64 << 32) | i as u64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
}

/// A potential data race found by [`GpuSystem::check_hazards`].
#[derive(Debug, Clone)]
pub struct Hazard {
    pub buffer: BufKey,
    pub first_label: String,
    pub second_label: String,
    pub overlap_start: SimTime,
    pub overlap_end: SimTime,
}

struct DevEntry {
    addr: u64,
    slab: Slab,
    alive: bool,
    device: usize,
}

struct HostEntry {
    kind: HostMemKind,
    slab: Slab,
}

struct ManagedEntry {
    addr: u64,
    slab: Slab,
    on_device: bool,
    device: usize,
}

struct StreamState {
    last: Option<OpId>,
    /// Cross-stream dependencies injected by `stream_wait_event`.
    pending: Vec<OpId>,
    device: usize,
}

/// Per-device engines and memory (each simulated GPU has its own DMA
/// engines, compute engine and allocator).
struct DeviceState {
    eng_h2d: EngineId,
    eng_d2h: EngineId,
    eng_compute: EngineId,
    alloc: DeviceAllocator,
}

/// The simulated host + device platform. See the module docs.
pub struct GpuSystem {
    cfg: MachineConfig,
    sched: Scheduler,
    devices: Vec<DeviceState>,
    eng_host: EngineId,
    /// The NIC receive engine, created lazily by the first
    /// [`GpuSystem::net_deliver`] so single-node runs keep their engine
    /// table (and trace layout) bit-identical to builds without the
    /// cluster layer.
    eng_nic: Option<EngineId>,
    host_clock: SimTime,
    /// The operation the host most recently blocked on (critical-path
    /// attribution of host stalls).
    last_block: Option<OpId>,
    dev: Vec<DevEntry>,
    host: Vec<HostEntry>,
    managed: Vec<ManagedEntry>,
    streams: Vec<StreamState>,
    backed: bool,
    hazard_checking: bool,
    accesses: Vec<(OpId, BufKey, Access, Sym)>,
    /// Reused dependency buffer for enqueue paths (capacity persists across
    /// calls; taken/restored around each enqueue).
    deps_scratch: Vec<OpId>,
    bytes_h2d: u64,
    bytes_d2h: u64,
    bytes_p2p: u64,
    bytes_net: u64,
    kernels_launched: u64,
    fault: FaultState,
    /// Transfer-integrity bookkeeping, shared with the data effects that
    /// perform copies (the scheduler is single-threaded, so a `RefCell`
    /// behind an `Rc` is sound: effects run one at a time).
    integrity: Rc<RefCell<IntegrityBook>>,
    /// Whether enqueues must install data-effect closures. False only when
    /// the platform is unbacked AND the fault plan schedules no corruption:
    /// then every slab is virtual, no poison can ever arise, and the only
    /// observable act of a copy effect is its verified-counter bump — which
    /// [`IntegrityBook::note_passive_copy`] performs synchronously instead.
    /// Recomputed by [`GpuSystem::set_fault_plan`].
    data_effects: bool,
    /// Interned labels for healthy transfers, keyed by
    /// `(kind << 56) | bytes`. Distinct transfer sizes per run are few, so a
    /// linear scan beats re-formatting and re-hashing the label every op.
    xfer_labels: Vec<(u64, Sym)>,
    /// Always-on vector-clock happens-before tracker.
    hazards: HazardTracker,
    /// Tenant tag applied to submissions until the next
    /// [`GpuSystem::set_tenant`] (`None` = untenanted / runtime-internal).
    current_tenant: Option<u32>,
    /// First tenant to touch each buffer owns it; used by the isolation
    /// accounting below. Untenanted work neither claims nor conflicts.
    tenant_owner: HashMap<BufKey, u32>,
    /// Submissions where a tenant touched a buffer owned by a *different*
    /// tenant. Every such touch enqueues stream/engine edges between the
    /// two tenants' operations — a happens-before path through shared
    /// state — so a multi-tenant runtime that promises isolation asserts
    /// this stays zero.
    cross_tenant_touches: u64,
}

/// Access-log room reserved when hazard checking turns on: a small
/// program's worth, so a fresh system does not regrow it op by op.
const ACCESSES_HINT: usize = 64;

/// The cells a device→host copy moves.
enum D2hCells {
    /// One contiguous range.
    Range {
        dst_off: usize,
        src_off: usize,
        len: usize,
    },
    /// The `(offset, len)` runs of a gathered write-back (`cells` in all),
    /// at the same offsets on both sides.
    Runs {
        runs: Arc<[(usize, usize)]>,
        cells: usize,
    },
}

/// Transfer-label kinds for [`GpuSystem::xfer_labels`].
mod xk {
    pub const H2D: u64 = 1;
    pub const D2H: u64 = 2;
    pub const D2D: u64 = 3;
    pub const P2P: u64 = 4;
    pub const SALVAGE: u64 = 5;
    pub const UVM: u64 = 6;
    pub const NET: u64 = 7;
}

impl GpuSystem {
    /// A platform with real (backed) data; kernels and copies move bytes.
    pub fn new(cfg: MachineConfig) -> Self {
        Self::with_backing(cfg, true)
    }

    /// `backed = false` builds every buffer as a virtual slab: the schedule
    /// (and therefore all timing) is identical, but no data is allocated or
    /// moved — this is how the harness runs the paper's 512³ workloads.
    pub fn with_backing(cfg: MachineConfig, backed: bool) -> Self {
        Self::multi(cfg, 1, backed)
    }

    /// A platform with `num_devices` identical GPUs, each with its own DMA
    /// engines, compute engine and memory, driven by one host. Device 0's
    /// engines keep the single-device lane layout (h2d, d2h, compute, host);
    /// additional devices' engines follow.
    pub fn multi(cfg: MachineConfig, num_devices: usize, backed: bool) -> Self {
        assert!(num_devices >= 1, "need at least one device");
        let mut sched = Scheduler::new();
        let mut devices = Vec::with_capacity(num_devices);
        let mut eng_host = EngineId(0);
        // Engine names are interned. A single-device platform keeps the bare
        // lane names; with several devices every lane gets a `d<i>.` prefix.
        let name = |d: usize, lane: Sym| {
            if num_devices == 1 {
                lane
            } else {
                intern_fmt(format_args!("d{d}.{lane}"))
            }
        };
        for d in 0..num_devices {
            let eng_h2d =
                sched.add_engine(name(d, csym!("h2d")), cfg.copy_engines_per_direction.max(1));
            let eng_d2h =
                sched.add_engine(name(d, csym!("d2h")), cfg.copy_engines_per_direction.max(1));
            let eng_compute =
                sched.add_engine(name(d, csym!("compute")), cfg.concurrent_kernels.max(1));
            devices.push(DeviceState {
                eng_h2d,
                eng_d2h,
                eng_compute,
                alloc: DeviceAllocator::new(cfg.device_mem_bytes),
            });
            if d == 0 {
                eng_host = sched.add_engine(csym!("host"), 1);
            }
        }
        let fault = FaultState::new(cfg.faults.clone());
        let data_effects = backed || cfg.faults.corruption.enabled();
        GpuSystem {
            cfg,
            sched,
            devices,
            eng_host,
            eng_nic: None,
            host_clock: SimTime::ZERO,
            last_block: None,
            dev: Vec::new(),
            host: Vec::new(),
            managed: Vec::new(),
            streams: Vec::new(),
            backed,
            hazard_checking: false,
            accesses: Vec::new(),
            deps_scratch: Vec::new(),
            bytes_h2d: 0,
            bytes_d2h: 0,
            bytes_p2p: 0,
            bytes_net: 0,
            kernels_launched: 0,
            fault,
            integrity: Rc::new(RefCell::new(IntegrityBook::new())),
            data_effects,
            xfer_labels: Vec::new(),
            hazards: HazardTracker::new(),
            current_tenant: None,
            tenant_owner: HashMap::new(),
            cross_tenant_touches: 0,
        }
    }

    /// Cached interned label for a healthy transfer of `bytes` (`kind` is a
    /// [`xk`] constant); `make` renders it on first sight.
    fn xfer_label(&mut self, kind: u64, bytes: u64, make: impl FnOnce() -> Sym) -> Sym {
        let key = (kind << 56) | bytes;
        if let Some(&(_, s)) = self.xfer_labels.iter().find(|&&(k, _)| k == key) {
            return s;
        }
        let s = make();
        self.xfer_labels.push((key, s));
        s
    }

    /// Number of simulated devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Whether buffers carry real data.
    pub fn backed(&self) -> bool {
        self.backed
    }

    /// Enable span recording (for Gantt charts / Chrome traces).
    /// Compatibility wrapper over [`GpuSystem::set_trace_level`]:
    /// `true` = [`TraceLevel::Full`], `false` = [`TraceLevel::Off`].
    pub fn set_tracing(&mut self, on: bool) {
        self.sched.set_tracing(on);
    }

    /// Set how much execution history the scheduler records
    /// ([`TraceLevel::Off`] / `Counters` / `Full`). Levels change what is
    /// *recorded*, never the schedule: timing, digests, statistics and
    /// hazard counters are bit-identical across levels.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.sched.set_trace_level(level);
    }

    /// Current trace level.
    pub fn trace_level(&self) -> TraceLevel {
        self.sched.trace_level()
    }

    /// Scheduling decision points so far: admissions at which more than one
    /// enqueued op was simultaneously runnable. The denominator of the
    /// ns/decision-point simulator-throughput metric.
    pub fn decision_points(&self) -> u64 {
        self.sched.decision_points()
    }

    /// Operations executed by the scheduler so far.
    pub fn ops_executed(&self) -> u64 {
        self.sched.executed() as u64
    }

    /// Install (or clear) a [`desim::ScheduleOracle`] on the underlying
    /// scheduler: at every point where more than one enqueued op is
    /// simultaneously runnable (different streams, satisfied event deps),
    /// the oracle — not FIFO arrival order — picks which op the hardware
    /// admits next. With no oracle the simulation stays fully deterministic.
    pub fn set_schedule_oracle(&mut self, oracle: Option<Rc<RefCell<dyn desim::ScheduleOracle>>>) {
        self.sched.set_oracle(oracle);
    }

    /// Enable access recording for [`GpuSystem::check_hazards`].
    pub fn set_hazard_checking(&mut self, on: bool) {
        self.hazard_checking = on;
        if on {
            // Every enqueue records a few accesses from here on.
            self.accesses.reserve(ACCESSES_HINT);
        }
    }

    // ------------------------------------------------------------------
    // Transfer integrity and happens-before hazard tracking
    // ------------------------------------------------------------------

    /// Digest verification on/off (on by default).
    ///
    /// Turning it off skips the FNV-1a computation inside every transfer and
    /// kernel effect — the overhead the `figures -- integrity` benchmark
    /// measures — but keeps the data outcome of injected corruption
    /// identical (retransmits and poison bookkeeping are driven by the
    /// seeded verdict), so a run never silently diverges based on this knob.
    pub fn set_integrity_checking(&mut self, on: bool) {
        self.integrity.borrow_mut().set_enabled(on);
    }

    /// Whether digest verification is active.
    pub fn integrity_checking(&self) -> bool {
        self.integrity.borrow().enabled()
    }

    /// Counters of the transfer-integrity layer. Detection happens inside
    /// data effects, so the values are current after any host
    /// synchronization point ([`GpuSystem::finish`],
    /// [`GpuSystem::stream_synchronize`], …).
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.integrity.borrow().stats()
    }

    /// Whether a device buffer holds data known corrupt beyond repair.
    pub fn device_poisoned(&self, d: DeviceBuffer) -> bool {
        // Without backing data or injected corruption, poison provably
        // cannot arise — skip the integrity-book borrow on the hot path.
        if !self.data_effects {
            return false;
        }
        self.integrity.borrow().device_poisoned(d.0)
    }

    /// Whether a host buffer received data from a poisoned source. A
    /// runtime must never expose such a buffer's contents as results.
    pub fn host_poisoned(&self, h: HostBuffer) -> bool {
        if !self.data_effects {
            return false;
        }
        self.integrity.borrow().host_poisoned(h.0)
    }

    /// The caller restored authoritative contents into `h` (e.g. from a
    /// checkpoint): clear its poison mark.
    pub fn clear_host_poison(&mut self, h: HostBuffer) {
        self.integrity.borrow_mut().clear_host_poison(h.0);
    }

    /// Deep hazard tracking: in addition to the always-on counters, record
    /// every hazard ([`GpuSystem::hazard_records`]) and make the replayable
    /// trace ([`GpuSystem::hazard_trace`]) available.
    pub fn set_deep_hazard_tracking(&mut self, on: bool) {
        self.hazards.set_deep(on);
    }

    /// Per-kind counters from the always-on happens-before tracker. A
    /// correctly ordered program reports zero everywhere, whatever the
    /// schedule; any non-zero count is an ordering bug in the submitting
    /// runtime, even if this particular schedule happened to get lucky.
    pub fn hazard_counters(&self) -> HazardCounters {
        self.hazards.counters()
    }

    /// Detailed hazard records (deep mode only; empty otherwise).
    pub fn hazard_records(&self) -> &[HazardRecord] {
        self.hazards.records()
    }

    /// The deep-mode hazard trace: one span per hazard in detection order,
    /// category = hazard kind. Deterministic for a fixed program and seed.
    pub fn hazard_trace(&self) -> Trace {
        self.hazards.trace()
    }

    /// Runtime hook: the cache list evicted `d`'s slot. A subsequent read
    /// of the buffer without a reload is flagged as a stale-cache-list read
    /// even though no scheduler-level race exists.
    pub fn note_evicted(&mut self, d: DeviceBuffer, label: impl Into<Sym>) {
        self.hazards.note_evicted(BufKey::Device(d.0), label);
    }

    // ------------------------------------------------------------------
    // Memory management
    // ------------------------------------------------------------------

    /// Allocate `len` doubles of host memory of the given kind.
    pub fn malloc_host(&mut self, len: usize, kind: HostMemKind) -> HostBuffer {
        self.host.push(HostEntry {
            kind,
            slab: Slab::new(len, self.backed),
        });
        HostBuffer(self.host.len() - 1)
    }

    /// Register an externally allocated slab as host memory of the given
    /// kind — how TiDA-acc's `tileArray` hands its pinned region buffers
    /// (allocated with `cudaMallocHost` in the paper, §IV-A) to the runtime.
    pub fn adopt_host_slab(&mut self, slab: Slab, kind: HostMemKind) -> HostBuffer {
        self.host.push(HostEntry { kind, slab });
        HostBuffer(self.host.len() - 1)
    }

    /// Allocate `len` doubles of device memory on device 0 (`cudaMalloc`).
    pub fn malloc_device(&mut self, len: usize) -> Result<DeviceBuffer, OutOfDeviceMemory> {
        self.malloc_device_on(0, len)
    }

    /// Allocate `len` doubles of device memory on a specific device
    /// (`cudaSetDevice` + `cudaMalloc`).
    pub fn malloc_device_on(
        &mut self,
        device: usize,
        len: usize,
    ) -> Result<DeviceBuffer, OutOfDeviceMemory> {
        let bytes = (len * std::mem::size_of::<f64>()) as u64;
        if self.fault.alloc_refused(device) {
            // An injected `cudaMalloc` failure: report the allocator's real
            // state so callers that size pools from the error stay honest.
            let a = &self.devices[device].alloc;
            return Err(OutOfDeviceMemory {
                requested: bytes,
                largest_free_block: a.largest_free_block(),
                free_total: a.free_bytes(),
            });
        }
        let addr = self.devices[device].alloc.alloc(bytes)?;
        self.dev.push(DevEntry {
            addr,
            slab: Slab::new(len, self.backed),
            alive: true,
            device,
        });
        Ok(DeviceBuffer(self.dev.len() - 1))
    }

    /// The device a buffer lives on.
    pub fn device_of(&self, buf: DeviceBuffer) -> usize {
        self.dev[buf.0].device
    }

    /// Release a device allocation (`cudaFree`).
    pub fn free_device(&mut self, buf: DeviceBuffer) {
        let entry = &mut self.dev[buf.0];
        assert!(entry.alive, "double free of device buffer {:?}", buf);
        entry.alive = false;
        let (addr, bytes, device) = (entry.addr, entry.slab.bytes(), entry.device);
        self.devices[device].alloc.free(addr, bytes);
    }

    /// Allocate `len` doubles of managed memory (`cudaMallocManaged`). On
    /// this (pre-Pascal) device model, managed allocations reserve device
    /// memory eagerly, as the K40 generation did.
    pub fn malloc_managed(&mut self, len: usize) -> Result<ManagedBuffer, OutOfDeviceMemory> {
        let bytes = (len * std::mem::size_of::<f64>()) as u64;
        let addr = self.devices[0].alloc.alloc(bytes)?;
        self.managed.push(ManagedEntry {
            addr,
            slab: Slab::new(len, self.backed),
            on_device: false,
            device: 0,
        });
        Ok(ManagedBuffer(self.managed.len() - 1))
    }

    /// Release a managed allocation's device reservation.
    pub fn free_managed(&mut self, buf: ManagedBuffer) {
        let entry = &self.managed[buf.0];
        let (addr, bytes, device) = (entry.addr, entry.slab.bytes(), entry.device);
        self.devices[device].alloc.free(addr, bytes);
    }

    /// `(free, total)` device-0 memory in bytes (`cudaMemGetInfo`).
    pub fn mem_get_info(&self) -> (u64, u64) {
        self.mem_get_info_on(0)
    }

    /// `(free, total)` memory of a specific device.
    pub fn mem_get_info_on(&self, device: usize) -> (u64, u64) {
        let a = &self.devices[device].alloc;
        (a.free_bytes(), a.total())
    }

    /// The backing slab of a host buffer (a cheap shared handle).
    pub fn host_slab(&self, h: HostBuffer) -> Slab {
        self.host[h.0].slab.clone()
    }

    /// The backing slab of a device buffer.
    pub fn device_slab(&self, d: DeviceBuffer) -> Slab {
        assert!(self.dev[d.0].alive, "use after free of device buffer {d:?}");
        self.dev[d.0].slab.clone()
    }

    /// The backing slab of a managed buffer.
    pub fn managed_slab(&self, m: ManagedBuffer) -> Slab {
        self.managed[m.0].slab.clone()
    }

    /// Host memory kind of a host buffer.
    pub fn host_kind(&self, h: HostBuffer) -> HostMemKind {
        self.host[h.0].kind
    }

    // ------------------------------------------------------------------
    // Streams and events
    // ------------------------------------------------------------------

    /// Create a stream on device 0 (an in-order activity queue).
    pub fn create_stream(&mut self) -> StreamId {
        self.create_stream_on(0)
    }

    /// Create a stream on a specific device.
    pub fn create_stream_on(&mut self, device: usize) -> StreamId {
        assert!(device < self.devices.len(), "unknown device {device}");
        self.streams.push(StreamState {
            last: None,
            pending: Vec::new(),
            device,
        });
        StreamId(self.streams.len() - 1)
    }

    /// The device a stream issues to.
    pub fn device_of_stream(&self, stream: StreamId) -> usize {
        self.streams[stream.0].device
    }

    /// Number of created streams.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Record an event capturing all work submitted to `stream` so far.
    pub fn record_event(&mut self, stream: StreamId) -> Event {
        let ev = csym!("event");
        let mut op = Op::marker().label(ev).category(ev);
        let last = self.streams[stream.0].last;
        if let Some(last) = last {
            op = op.after(last);
        }
        let id = self.sched.submit(op.not_before(self.host_clock));
        // The marker is stream-ordered like any other op: it must become the
        // stream's tail, both for CUDA semantics and because the hazard
        // tracker stamps it — if the next op on this stream did not depend
        // on it, the two would share a clock stamp and a waiter joining the
        // event's clock would falsely appear ordered after that next op.
        self.push_stream_op(stream, id);
        // Events carry ordering across streams: the tracker must know their
        // clocks or `stream_wait_event` edges would be lost.
        let deps_buf = last.map(|l| [l]);
        let deps: &[OpId] = deps_buf.as_ref().map(|a| &a[..]).unwrap_or(&[]);
        self.hazards
            .observe_op(id, stream.0 + 1, deps, ev, ev, &[], self.host_clock);
        Event(id)
    }

    /// Make future work on `stream` wait for `event`.
    pub fn stream_wait_event(&mut self, stream: StreamId, event: Event) {
        self.streams[stream.0].pending.push(event.0);
    }

    /// Make future work on `stream` wait for a specific operation — the
    /// runtime-internal form of `stream_wait_event` used when the awaited
    /// operation's id is already at hand (e.g. an eviction write-back).
    pub fn stream_wait_op(&mut self, stream: StreamId, op: OpId) {
        self.streams[stream.0].pending.push(op);
    }

    /// Block the host until all work submitted to `stream` completes.
    pub fn stream_synchronize(&mut self, stream: StreamId) {
        if let Some(last) = self.streams[stream.0].last {
            let t = self.sched.run_until(last);
            if t >= self.host_clock {
                self.last_block = Some(last);
            }
            self.host_clock = self.host_clock.max(t);
            self.hazards.host_joins(last);
        }
    }

    /// Block the host until one specific operation completes (the runtime's
    /// internal fine-grained wait; CUDA exposes the equivalent through
    /// `cudaEventSynchronize`).
    pub fn sync_op(&mut self, op: desim::OpId) {
        let t = self.sched.run_until(op);
        if t >= self.host_clock {
            self.last_block = Some(op);
        }
        self.host_clock = self.host_clock.max(t);
        self.hazards.host_joins(op);
    }

    /// Block the host until all submitted device work completes.
    pub fn device_synchronize(&mut self) {
        self.sched.run_all();
        if self.sched.max_end() >= self.host_clock {
            self.last_block = self.sched.last_finished();
        }
        self.host_clock = self.host_clock.max(self.sched.max_end());
        for op in self.streams.iter().filter_map(|s| s.last) {
            self.hazards.host_joins(op);
        }
    }

    /// Non-blocking completion probe for `stream`
    /// (`cudaStreamQuery() == cudaSuccess`): true when every operation
    /// submitted to the stream has finished by the current host clock.
    ///
    /// The probe forces lazy execution of the stream's tail (the scheduler
    /// otherwise runs ops on demand), which is schedule-neutral: op start
    /// times are fixed at submission, so running them early changes no
    /// timestamps. The host clock does not advance and no happens-before
    /// edge is created — a query is not a synchronization point.
    pub fn stream_query(&mut self, stream: StreamId) -> bool {
        match self.streams[stream.0].last {
            None => true,
            Some(op) => self.sched.run_until(op) <= self.host_clock,
        }
    }

    /// The simulated completion time of one operation, without advancing
    /// the host clock or creating a happens-before edge — the same
    /// schedule-neutral lazy-execution probe as [`GpuSystem::stream_query`].
    /// The cluster layer uses it to read a D2H's finish time as the send
    /// timestamp of an outgoing network message.
    pub fn op_completion(&mut self, op: OpId) -> SimTime {
        self.sched.run_until(op)
    }

    /// The NIC receive engine, created on first use (capacity 1: one
    /// message lands at a time, so concurrent arrivals queue — and, under
    /// a schedule oracle, become decision points).
    fn nic_engine(&mut self) -> EngineId {
        match self.eng_nic {
            Some(e) => e,
            None => {
                let e = self.sched.add_engine(csym!("nic"), 1);
                self.eng_nic = Some(e);
                e
            }
        }
    }

    /// Deliver an incoming network message of `bytes` into host buffer
    /// `dst`, stream-ordered on `stream` of *this* node.
    ///
    /// `arrival` is the wire arrival time computed by the cluster's network
    /// model (flight time, contention, drops already folded in); `rx_time`
    /// is how long the NIC occupies landing the payload. The op starts no
    /// earlier than `arrival`, queues behind other arrivals on the
    /// capacity-1 NIC engine, and carries a write footprint on `dst` — so
    /// under a schedule oracle, racing arrivals are decision points and
    /// DPOR sees deliveries to different buffers as independent. `effect`
    /// scatters the payload (already snapshotted on the sending side) and
    /// runs only when the platform is backed.
    pub fn net_deliver(
        &mut self,
        stream: StreamId,
        dst: HostBuffer,
        bytes: u64,
        arrival: SimTime,
        rx_time: SimTime,
        effect: impl FnOnce() + 'static,
    ) -> OpId {
        self.note_tenant_touch(BufKey::Host(dst.0));
        let eng = self.nic_engine();
        let deps = self.stream_deps(stream);
        let label = self.xfer_label(xk::NET, bytes, || intern_fmt(format_args!("NET[{bytes}B]")));
        let category = csym!("net");
        let mut builder = Op::on(eng, rx_time)
            .not_before(arrival.max(self.host_clock))
            .host_cause(self.last_block)
            .after_all(deps.iter().copied())
            .label(label)
            .category(category)
            .touches(BufKey::Host(dst.0).resource_id(), true);
        if self.data_effects {
            builder = builder.effect(effect);
        }
        let op = self.sched.submit(builder);
        self.push_stream_op(stream, op);
        self.bytes_net += bytes;
        self.record_access(op, BufKey::Host(dst.0), Access::Write, category);
        let hb_buf = [(BufKey::Host(dst.0), Dir::Write)];
        self.hazards.observe_op(
            op,
            stream.0 + 1,
            &deps,
            label,
            category,
            &hb_buf,
            self.host_clock,
        );
        self.put_deps(deps);
        op
    }

    /// Drop a zero-width annotation span on the host lane — visible in
    /// traces (category `category`) without perturbing the schedule: no
    /// host-clock advance, no dependencies, no hazard-tracker stamp. Used
    /// by runtimes to make silent degradations (e.g. a capped prefetch)
    /// observable in the trace.
    pub fn note_marker(&mut self, category: &'static str, label: impl Into<Sym>) {
        if self.fault.crashed() {
            return;
        }
        let op = Op::on(self.eng_host, SimTime::ZERO)
            .not_before(self.host_clock)
            .label(label.into())
            .category(category);
        let _ = self.sched.submit(op);
    }

    /// Gather the dependencies for the next op on `stream` into the reused
    /// scratch buffer (take it back with [`GpuSystem::put_deps`] when the
    /// enqueue path is done, so its capacity survives to the next call).
    fn stream_deps(&mut self, stream: StreamId) -> Vec<OpId> {
        let mut deps = std::mem::take(&mut self.deps_scratch);
        deps.clear();
        let st = &mut self.streams[stream.0];
        deps.extend_from_slice(&st.pending);
        st.pending.clear();
        if let Some(last) = st.last {
            deps.push(last);
        }
        deps
    }

    /// Return the scratch buffer taken by [`GpuSystem::stream_deps`].
    fn put_deps(&mut self, deps: Vec<OpId>) {
        self.deps_scratch = deps;
    }

    fn push_stream_op(&mut self, stream: StreamId, op: OpId) {
        self.streams[stream.0].last = Some(op);
    }

    fn record_access(&mut self, op: OpId, key: BufKey, access: Access, label: Sym) {
        if self.hazard_checking {
            self.accesses.push((op, key, access, label));
        }
    }

    // ------------------------------------------------------------------
    // Tenant tagging
    // ------------------------------------------------------------------

    /// Tag every following submission (transfers, kernels, allocations)
    /// with `tenant` until the next call; `None` marks untenanted
    /// runtime-internal work. The tag scopes fault injection (see
    /// [`FaultPlan::scope_tenant`]) and drives the cross-tenant buffer
    /// accounting behind [`GpuSystem::cross_tenant_touches`].
    pub fn set_tenant(&mut self, tenant: Option<u32>) {
        self.current_tenant = tenant;
        self.fault.current_tenant = tenant;
    }

    /// The tenant tag currently applied to submissions.
    pub fn current_tenant(&self) -> Option<u32> {
        self.current_tenant
    }

    /// Submissions in which a tagged tenant touched a buffer owned by a
    /// *different* tenant (first toucher owns). A multi-tenant runtime
    /// keeping tenants on disjoint buffers must hold this at zero: any
    /// happens-before edge between two tenants' operations would have to
    /// run through a shared buffer, so zero cross-tenant touches witnesses
    /// zero cross-tenant data-flow edges.
    pub fn cross_tenant_touches(&self) -> u64 {
        self.cross_tenant_touches
    }

    fn note_tenant_touch(&mut self, key: BufKey) {
        let Some(t) = self.current_tenant else { return };
        match self.tenant_owner.entry(key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(t);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != t {
                    self.cross_tenant_touches += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Transfers
    // ------------------------------------------------------------------

    /// Asynchronous host→device copy of `len` doubles
    /// (`cudaMemcpyAsync(..., cudaMemcpyHostToDevice, stream)`).
    ///
    /// On pinned memory this returns immediately (the host pays only the
    /// enqueue overhead). On pageable memory CUDA stages the data through a
    /// pinned bounce buffer and the call is effectively synchronous; the
    /// model reproduces both the extra staging cost and the blocking.
    pub fn memcpy_h2d_async(
        &mut self,
        dst: DeviceBuffer,
        dst_off: usize,
        src: HostBuffer,
        src_off: usize,
        len: usize,
        stream: StreamId,
    ) -> OpId {
        assert!(self.dev[dst.0].alive, "copy into freed device buffer");
        let device = self.dev[dst.0].device;
        assert_eq!(
            device, self.streams[stream.0].device,
            "stream and destination buffer live on different devices"
        );
        self.note_tenant_touch(BufKey::Host(src.0));
        self.note_tenant_touch(BufKey::Device(dst.0));
        let eng_h2d = self.devices[device].eng_h2d;
        let bytes = (len * std::mem::size_of::<f64>()) as u64;
        let kind = self.host[src.0].kind;
        let mut deps = self.stream_deps(stream);

        if kind == HostMemKind::Pageable {
            // Host-side staging bounce, then DMA; the host blocks.
            let stage = self.sched.submit(
                Op::on(self.eng_host, self.cfg.stage_time(bytes))
                    .not_before(self.host_clock)
                    .label("stage-h2d")
                    .category(csym!("host")),
            );
            deps.push(stage);
        } else {
            self.host_clock += self.cfg.host_enqueue_overhead;
        }

        let v = self.fault.transfer_enqueue(
            Lane::H2d,
            device,
            stream.0,
            self.host_clock,
            self.cfg.h2d_time(bytes),
        );
        if let Some(stall) = v.stall {
            let sop = self.sched.submit(
                Op::on(eng_h2d, stall)
                    .not_before(self.host_clock)
                    .after_all(deps.iter().copied())
                    .label("xfer-stall")
                    .category(csym!("stall")),
            );
            deps.push(sop);
        }

        let label = if v.faulted {
            intern_fmt(format_args!("H2D-fault[{bytes}B]"))
        } else if v.livelocked {
            intern_fmt(format_args!("H2D-wedged[{bytes}B]"))
        } else {
            self.xfer_label(xk::H2D, bytes, || intern_fmt(format_args!("H2D[{bytes}B]")))
        };
        let category = if v.faulted {
            csym!("h2d-fault")
        } else if v.livelocked {
            csym!("livelock")
        } else {
            csym!("h2d")
        };
        let mut builder = Op::on(eng_h2d, v.duration)
            .not_before(self.host_clock)
            .host_cause(self.last_block)
            .after_all(deps.iter().copied())
            .label(label)
            .category(category)
            .touches(BufKey::Host(src.0).resource_id(), false)
            .touches(BufKey::Device(dst.0).resource_id(), true);
        if !v.faulted && !v.livelocked {
            // A faulted or wedged attempt occupies the engine but moves no
            // data. A healthy one copies under the integrity layer: flips
            // land, digests are verified, retransmits repair.
            if self.data_effects {
                let integrity = Rc::clone(&self.integrity);
                let corrupt = v.corrupt;
                let (dst_idx, src_idx) = (dst.0, src.0);
                let dst_slab = self.dev[dst.0].slab.clone();
                let src_slab = self.host[src.0].slab.clone();
                builder = builder.effect(move || {
                    integrity.borrow_mut().h2d_effect(
                        &dst_slab, dst_idx, dst_off, &src_slab, src_idx, src_off, len, corrupt,
                    )
                });
            } else {
                self.integrity.borrow_mut().note_passive_copy();
            }
        }
        let op = self.sched.submit(builder);
        self.push_stream_op(stream, op);
        let hb_buf = [
            (BufKey::Host(src.0), Dir::Read),
            (BufKey::Device(dst.0), Dir::Write),
        ];
        let mut hb_accesses: &[(BufKey, Dir)] = &[];
        if v.faulted {
            self.fault.mark_faulted(op);
        } else if !v.livelocked {
            self.bytes_h2d += bytes;
            self.record_access(op, BufKey::Host(src.0), Access::Read, csym!("h2d"));
            self.record_access(op, BufKey::Device(dst.0), Access::Write, csym!("h2d"));
            hb_accesses = &hb_buf;
        }
        self.hazards.observe_op(
            op,
            stream.0 + 1,
            &deps,
            label,
            category,
            hb_accesses,
            self.host_clock,
        );
        self.put_deps(deps);

        if kind == HostMemKind::Pageable {
            let t = self.sched.run_until(op);
            self.host_clock = self.host_clock.max(t);
            self.hazards.host_joins(op);
        }
        op
    }

    /// Asynchronous device→host copy of `len` doubles.
    pub fn memcpy_d2h_async(
        &mut self,
        dst: HostBuffer,
        dst_off: usize,
        src: DeviceBuffer,
        src_off: usize,
        len: usize,
        stream: StreamId,
    ) -> OpId {
        assert!(self.dev[src.0].alive, "copy from freed device buffer");
        let device = self.dev[src.0].device;
        assert_eq!(
            device, self.streams[stream.0].device,
            "stream and source buffer live on different devices"
        );
        self.note_tenant_touch(BufKey::Device(src.0));
        self.note_tenant_touch(BufKey::Host(dst.0));
        let bytes = (len * std::mem::size_of::<f64>()) as u64;
        let cells = D2hCells::Range {
            dst_off,
            src_off,
            len,
        };
        let (op, _) = self.submit_d2h(dst, src, cells, stream);
        if self.host[dst.0].kind == HostMemKind::Pageable {
            // DMA into the bounce buffer, then a host-side unstage copy;
            // the host blocks through both.
            let unstage = self.sched.submit(
                Op::on(self.eng_host, self.cfg.stage_time(bytes))
                    .after(op)
                    .label("stage-d2h")
                    .category(csym!("host")),
            );
            let t = self.sched.run_until(unstage);
            self.host_clock = self.host_clock.max(t);
            self.hazards.host_joins(op);
        }
        op
    }

    /// Asynchronous gathered device→host copy of the cells in `runs`
    /// (`(offset, len)` in doubles, sorted and disjoint, inside both
    /// buffers), for a host buffer laid out like the start of the device
    /// one: a write-back of only the part of a region the device changed.
    ///
    /// Priced as what a CUDA runtime issues for it, all in `stream`: a pack
    /// kernel gathering the runs into a contiguous staging buffer
    /// (`KernelCost::Bytes(16·cells)`), one contiguous D2H of `8·cells`
    /// bytes, and a stream-ordered host unpack (`launch_host_func`,
    /// `host_copy_time(8·cells)`). The copy carries the D2H fault and
    /// corruption verdicts and is counted and labelled like a plain D2H of
    /// that many bytes. The pack belongs to the transfer, not to the
    /// program: it takes no kernel fault ordinal (crash and strike plans
    /// index the program's own launches) and is not counted in
    /// [`GpuSystem::stats_kernels`]; a dead platform refuses the copy.
    ///
    /// The data moves once, device slab → host slab, in the copy's effect;
    /// no staging bytes are allocated. Returns the op that completes the
    /// transfer: the unpack, or the copy itself when it faulted (then
    /// nothing moved and there is nothing to unpack).
    pub fn memcpy_d2h_gather_async(
        &mut self,
        dst: HostBuffer,
        src: DeviceBuffer,
        runs: Arc<[(usize, usize)]>,
        stream: StreamId,
    ) -> OpId {
        assert!(self.dev[src.0].alive, "copy from freed device buffer");
        let device = self.dev[src.0].device;
        assert_eq!(
            device, self.streams[stream.0].device,
            "stream and source buffer live on different devices"
        );
        let slab_len = self.dev[src.0].slab.len().min(self.host[dst.0].slab.len());
        let mut end = 0;
        for &(off, len) in runs.iter() {
            assert!(
                off >= end && len > 0,
                "gather runs must be sorted, disjoint and non-empty"
            );
            end = off + len;
        }
        assert!(end <= slab_len, "gather run ends at {end}, past {slab_len}");
        self.note_tenant_touch(BufKey::Device(src.0));
        self.note_tenant_touch(BufKey::Host(dst.0));
        let cells: usize = runs.iter().map(|&(_, len)| len).sum();
        let bytes = (cells * std::mem::size_of::<f64>()) as u64;

        let [pack_time, _, unpack_time] = self.cfg.d2h_gather_times(bytes);

        // The pack kernel: reads the device buffer, gathers into staging.
        let deps = self.stream_deps(stream);
        self.host_clock += self.cfg.host_enqueue_overhead;
        let label = csym!("d2h-pack");
        let pack = self.sched.submit(
            Op::on(self.devices[device].eng_compute, pack_time)
                .not_before(self.host_clock)
                .host_cause(self.last_block)
                .after_all(deps.iter().copied())
                .label(label)
                .category(csym!("kernel"))
                .touches(BufKey::Device(src.0).resource_id(), false),
        );
        self.push_stream_op(stream, pack);
        self.record_access(pack, BufKey::Device(src.0), Access::Read, label);
        self.hazards.observe_op(
            pack,
            stream.0 + 1,
            &deps,
            label,
            csym!("kernel"),
            &[(BufKey::Device(src.0), Dir::Read)],
            self.host_clock,
        );
        self.put_deps(deps);

        let (op, faulted) = self.submit_d2h(dst, src, D2hCells::Runs { runs, cells }, stream);
        if faulted {
            return op;
        }
        let unpack = self.launch_host_func(stream, unpack_time, csym!("d2h-unpack"), || {});
        if self.host[dst.0].kind == HostMemKind::Pageable {
            // No pinned staging to land in: the host blocks through the
            // unpack, as it does through a pageable copy's unstage.
            let t = self.sched.run_until(unpack);
            self.host_clock = self.host_clock.max(t);
            self.hazards.host_joins(unpack);
        }
        unpack
    }

    /// Submit the DMA of a device→host copy in `stream`: fault and
    /// corruption verdict, the op with its data effect, byte accounting and
    /// hazard bookkeeping. Returns the op and whether it faulted.
    fn submit_d2h(
        &mut self,
        dst: HostBuffer,
        src: DeviceBuffer,
        cells: D2hCells,
        stream: StreamId,
    ) -> (OpId, bool) {
        let device = self.dev[src.0].device;
        let eng_d2h = self.devices[device].eng_d2h;
        let len = match &cells {
            D2hCells::Range { len, .. } => *len,
            D2hCells::Runs { cells, .. } => *cells,
        };
        let bytes = (len * std::mem::size_of::<f64>()) as u64;
        let mut deps = self.stream_deps(stream);

        if self.host[dst.0].kind == HostMemKind::Pinned {
            self.host_clock += self.cfg.host_enqueue_overhead;
        }

        let v = self.fault.transfer_enqueue(
            Lane::D2h,
            device,
            stream.0,
            self.host_clock,
            self.cfg.d2h_time(bytes),
        );
        if let Some(stall) = v.stall {
            let sop = self.sched.submit(
                Op::on(eng_d2h, stall)
                    .not_before(self.host_clock)
                    .after_all(deps.iter().copied())
                    .label("xfer-stall")
                    .category(csym!("stall")),
            );
            deps.push(sop);
        }

        let label = if v.faulted {
            intern_fmt(format_args!("D2H-fault[{bytes}B]"))
        } else if v.livelocked {
            intern_fmt(format_args!("D2H-wedged[{bytes}B]"))
        } else {
            self.xfer_label(xk::D2H, bytes, || intern_fmt(format_args!("D2H[{bytes}B]")))
        };
        let category = if v.faulted {
            csym!("d2h-fault")
        } else if v.livelocked {
            csym!("livelock")
        } else {
            csym!("d2h")
        };
        let mut builder = Op::on(eng_d2h, v.duration)
            .not_before(self.host_clock)
            .host_cause(self.last_block)
            .after_all(deps.iter().copied())
            .label(label)
            .category(category)
            .touches(BufKey::Device(src.0).resource_id(), false)
            .touches(BufKey::Host(dst.0).resource_id(), true);
        if !v.faulted && !v.livelocked {
            if self.data_effects {
                let integrity = Rc::clone(&self.integrity);
                let corrupt = v.corrupt;
                let (dst_idx, src_idx) = (dst.0, src.0);
                let dst_slab = self.host[dst.0].slab.clone();
                let src_slab = self.dev[src.0].slab.clone();
                builder = builder.effect(move || {
                    let mut book = integrity.borrow_mut();
                    match cells {
                        D2hCells::Range {
                            dst_off,
                            src_off,
                            len,
                        } => book.d2h_effect(
                            &dst_slab, dst_idx, dst_off, &src_slab, src_idx, src_off, len, corrupt,
                        ),
                        D2hCells::Runs { runs, cells } => book.d2h_gather_effect(
                            &dst_slab, dst_idx, &src_slab, src_idx, &runs, cells, corrupt,
                        ),
                    }
                });
            } else {
                self.integrity.borrow_mut().note_passive_copy();
            }
        }
        let op = self.sched.submit(builder);
        self.push_stream_op(stream, op);
        let hb_buf = [
            (BufKey::Device(src.0), Dir::Read),
            (BufKey::Host(dst.0), Dir::Write),
        ];
        let mut hb_accesses: &[(BufKey, Dir)] = &[];
        if v.faulted {
            self.fault.mark_faulted(op);
        } else if !v.livelocked {
            self.bytes_d2h += bytes;
            self.record_access(op, BufKey::Device(src.0), Access::Read, csym!("d2h"));
            self.record_access(op, BufKey::Host(dst.0), Access::Write, csym!("d2h"));
            hb_accesses = &hb_buf;
        }
        self.hazards.observe_op(
            op,
            stream.0 + 1,
            &deps,
            label,
            category,
            hb_accesses,
            self.host_clock,
        );
        self.put_deps(deps);
        (op, v.faulted)
    }

    /// Asynchronous same-device copy (`cudaMemcpyAsync` device→device):
    /// runs on the device's memory system (modelled on its compute engine's
    /// bandwidth) without touching the interconnect.
    pub fn memcpy_d2d_async(
        &mut self,
        dst: DeviceBuffer,
        dst_off: usize,
        src: DeviceBuffer,
        src_off: usize,
        len: usize,
        stream: StreamId,
    ) -> OpId {
        assert!(self.dev[dst.0].alive, "copy into freed device buffer");
        assert!(self.dev[src.0].alive, "copy from freed device buffer");
        let device = self.dev[dst.0].device;
        assert_eq!(
            device, self.dev[src.0].device,
            "memcpy_d2d_async is same-device; use memcpy_p2p_async across devices"
        );
        assert_eq!(
            device, self.streams[stream.0].device,
            "stream and buffers live on different devices"
        );
        self.note_tenant_touch(BufKey::Device(src.0));
        self.note_tenant_touch(BufKey::Device(dst.0));
        let bytes = (len * std::mem::size_of::<f64>()) as u64;
        let deps = self.stream_deps(stream);
        self.host_clock += self.cfg.host_enqueue_overhead;
        if self.fault.device_lost(device) {
            // Dead device: the copy is refused (zero-duration faulted op).
            let label = intern_fmt(format_args!("D2D-fault[{bytes}B]"));
            let op = self.sched.submit(
                Op::on(self.devices[device].eng_compute, SimTime::ZERO)
                    .not_before(self.host_clock)
                    .host_cause(self.last_block)
                    .after_all(deps.iter().copied())
                    .label(label)
                    .category(csym!("d2d-fault")),
            );
            self.push_stream_op(stream, op);
            self.fault.mark_faulted(op);
            self.hazards.observe_op(
                op,
                stream.0 + 1,
                &deps,
                label,
                csym!("d2d-fault"),
                &[],
                self.host_clock,
            );
            self.put_deps(deps);
            return op;
        }
        // Read + write of the payload at device memory bandwidth.
        let duration = self.cfg.copy_latency
            + SimTime::from_secs_f64(2.0 * bytes as f64 / self.cfg.device_mem_bw);
        let label = self.xfer_label(xk::D2D, bytes, || intern_fmt(format_args!("D2D[{bytes}B]")));
        let mut builder = Op::on(self.devices[device].eng_compute, duration)
            .not_before(self.host_clock)
            .host_cause(self.last_block)
            .after_all(deps.iter().copied())
            .label(label)
            .category(csym!("d2d"))
            .touches(BufKey::Device(src.0).resource_id(), false)
            .touches(BufKey::Device(dst.0).resource_id(), true);
        if self.data_effects {
            let integrity = Rc::clone(&self.integrity);
            let (dst_idx, src_idx) = (dst.0, src.0);
            let dst_slab = self.dev[dst.0].slab.clone();
            let src_slab = self.dev[src.0].slab.clone();
            builder = builder.effect(move || {
                integrity.borrow_mut().dev_copy_effect(
                    &dst_slab, dst_idx, dst_off, &src_slab, src_idx, src_off, len,
                )
            });
        } else {
            self.integrity.borrow_mut().note_passive_copy();
        }
        let op = self.sched.submit(builder);
        self.push_stream_op(stream, op);
        self.record_access(op, BufKey::Device(src.0), Access::Read, csym!("d2d"));
        self.record_access(op, BufKey::Device(dst.0), Access::Write, csym!("d2d"));
        self.hazards.observe_op(
            op,
            stream.0 + 1,
            &deps,
            label,
            csym!("d2d"),
            &[
                (BufKey::Device(src.0), Dir::Read),
                (BufKey::Device(dst.0), Dir::Write),
            ],
            self.host_clock,
        );
        self.put_deps(deps);
        op
    }

    /// Asynchronous device→device peer copy (`cudaMemcpyPeerAsync`).
    ///
    /// The transfer is modelled on the destination device's ingress DMA
    /// engine at the peer-link bandwidth (PCIe through the switch on the
    /// K40m platform; NVLink on newer configs). `stream` must live on the
    /// destination device.
    pub fn memcpy_p2p_async(
        &mut self,
        dst: DeviceBuffer,
        dst_off: usize,
        src: DeviceBuffer,
        src_off: usize,
        len: usize,
        stream: StreamId,
    ) -> OpId {
        assert!(self.dev[dst.0].alive, "peer copy into freed device buffer");
        assert!(self.dev[src.0].alive, "peer copy from freed device buffer");
        let dst_device = self.dev[dst.0].device;
        assert_eq!(
            dst_device, self.streams[stream.0].device,
            "peer-copy stream must live on the destination device"
        );
        self.note_tenant_touch(BufKey::Device(src.0));
        self.note_tenant_touch(BufKey::Device(dst.0));
        let bytes = (len * std::mem::size_of::<f64>()) as u64;
        let deps = self.stream_deps(stream);
        self.host_clock += self.cfg.host_enqueue_overhead;
        let nominal =
            self.cfg.copy_latency + SimTime::from_secs_f64(bytes as f64 / self.cfg.p2p_bw);
        let src_device = self.dev[src.0].device;
        let src_died = self.fault.device_submission(src_device, self.host_clock);
        let dst_died = self.fault.device_submission(dst_device, self.host_clock);
        if self.fault.device_lost(src_device) || self.fault.device_lost(dst_device) {
            // A dead endpoint refuses the peer copy. If the death fired on
            // exactly this submission the op dies mid-flight, occupying the
            // engine for a fraction of its nominal time; afterwards peer
            // copies are refused outright with zero duration.
            let duration = if src_died || dst_died {
                SimTime::from_ns((nominal.as_ns() as f64 * 0.5).round() as u64)
            } else {
                SimTime::ZERO
            };
            let label = intern_fmt(format_args!("P2P-fault[{bytes}B]"));
            let op = self.sched.submit(
                Op::on(self.devices[dst_device].eng_h2d, duration)
                    .not_before(self.host_clock)
                    .host_cause(self.last_block)
                    .after_all(deps.iter().copied())
                    .label(label)
                    .category(csym!("p2p-fault")),
            );
            self.push_stream_op(stream, op);
            self.fault.mark_faulted(op);
            self.hazards.observe_op(
                op,
                stream.0 + 1,
                &deps,
                label,
                csym!("p2p-fault"),
                &[],
                self.host_clock,
            );
            self.put_deps(deps);
            return op;
        }
        self.bytes_p2p += bytes;
        let duration = nominal;
        let label = self.xfer_label(xk::P2P, bytes, || intern_fmt(format_args!("P2P[{bytes}B]")));
        let mut builder = Op::on(self.devices[dst_device].eng_h2d, duration)
            .not_before(self.host_clock)
            .host_cause(self.last_block)
            .after_all(deps.iter().copied())
            .label(label)
            .category(csym!("p2p"))
            .touches(BufKey::Device(src.0).resource_id(), false)
            .touches(BufKey::Device(dst.0).resource_id(), true);
        if self.data_effects {
            let integrity = Rc::clone(&self.integrity);
            let (dst_idx, src_idx) = (dst.0, src.0);
            let dst_slab = self.dev[dst.0].slab.clone();
            let src_slab = self.dev[src.0].slab.clone();
            builder = builder.effect(move || {
                integrity.borrow_mut().dev_copy_effect(
                    &dst_slab, dst_idx, dst_off, &src_slab, src_idx, src_off, len,
                )
            });
        } else {
            self.integrity.borrow_mut().note_passive_copy();
        }
        let op = self.sched.submit(builder);
        self.push_stream_op(stream, op);
        self.record_access(op, BufKey::Device(src.0), Access::Read, csym!("p2p"));
        self.record_access(op, BufKey::Device(dst.0), Access::Write, csym!("p2p"));
        self.hazards.observe_op(
            op,
            stream.0 + 1,
            &deps,
            label,
            csym!("p2p"),
            &[
                (BufKey::Device(src.0), Dir::Read),
                (BufKey::Device(dst.0), Dir::Write),
            ],
            self.host_clock,
        );
        self.put_deps(deps);
        op
    }

    /// Synchronous host→device copy (`cudaMemcpy`).
    pub fn memcpy_h2d(
        &mut self,
        dst: DeviceBuffer,
        dst_off: usize,
        src: HostBuffer,
        src_off: usize,
        len: usize,
        stream: StreamId,
    ) {
        let op = self.memcpy_h2d_async(dst, dst_off, src, src_off, len, stream);
        let t = self.sched.run_until(op);
        self.host_clock = self.host_clock.max(t);
        self.hazards.host_joins(op);
    }

    /// Synchronous device→host copy (`cudaMemcpy`).
    pub fn memcpy_d2h(
        &mut self,
        dst: HostBuffer,
        dst_off: usize,
        src: DeviceBuffer,
        src_off: usize,
        len: usize,
        stream: StreamId,
    ) {
        let op = self.memcpy_d2h_async(dst, dst_off, src, src_off, len, stream);
        let t = self.sched.run_until(op);
        self.host_clock = self.host_clock.max(t);
        self.hazards.host_joins(op);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// The active fault-injection plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault.plan
    }

    /// Replace the fault plan, resetting all fault bookkeeping (attempt
    /// ordinals, counters, faulted-op registry).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.data_effects = self.backed || plan.corruption.enabled();
        self.fault = FaultState::new(plan);
        self.fault.current_tenant = self.current_tenant;
    }

    /// Whether a transfer op returned by `memcpy_*_async` was injected as a
    /// fault: it occupied its engine but moved no data. The caller must
    /// retry the transfer or fall back.
    pub fn op_faulted(&self, op: OpId) -> bool {
        self.fault.is_faulted(op)
    }

    /// Whether the platform has died at a seeded crash point. Once true,
    /// transfers are refused (reported faulted with zero duration) and
    /// kernel launches carry no effect: the instance is torn and must be
    /// discarded; recovery restores a checkpoint into a fresh system.
    pub fn crashed(&self) -> bool {
        self.fault.crashed()
    }

    /// Whether `device` has been permanently retired by a device-death or
    /// ECC-kill fault. Unlike [`GpuSystem::crashed`], the rest of the
    /// platform keeps running: a runtime that migrates the dead device's
    /// regions onto the survivors can resume the run.
    pub fn device_lost(&self, device: usize) -> bool {
        self.fault.device_lost(device)
    }

    /// Indices of devices retired so far (empty on a healthy platform).
    pub fn lost_devices(&self) -> Vec<usize> {
        (0..self.devices.len())
            .filter(|&d| self.fault.device_lost(d))
            .collect()
    }

    /// Counters of injected faults and the engine time they consumed.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.stats
    }

    /// Host-side retry backoff: occupies the host lane like
    /// [`GpuSystem::host_work`] but categorised as `backoff` so traces and
    /// reports attribute recovery time separately from useful work.
    pub fn backoff_work(&mut self, duration: SimTime, label: impl Into<Sym>) {
        let op = Op::on(self.eng_host, duration)
            .not_before(self.host_clock)
            .host_cause(self.last_block)
            .label(label.into())
            .category(csym!("backoff"));
        let op = self.sched.submit(op);
        let t = self.sched.run_until(op);
        self.last_block = Some(op);
        self.host_clock = self.host_clock.max(t);
    }

    /// Device→host copy over the maintenance path: exempt from fault
    /// injection but `salvage_slowdown`× slower than a healthy DMA
    /// (modelling chunked synchronous reads through the driver's reliable
    /// path). Runtimes use it to rescue dirty device state after a
    /// persistent transfer failure.
    pub fn memcpy_d2h_salvage(
        &mut self,
        dst: HostBuffer,
        dst_off: usize,
        src: DeviceBuffer,
        src_off: usize,
        len: usize,
        stream: StreamId,
    ) -> OpId {
        assert!(self.dev[src.0].alive, "salvage from freed device buffer");
        let device = self.dev[src.0].device;
        assert_eq!(
            device, self.streams[stream.0].device,
            "stream and source buffer live on different devices"
        );
        self.note_tenant_touch(BufKey::Device(src.0));
        self.note_tenant_touch(BufKey::Host(dst.0));
        let eng_d2h = self.devices[device].eng_d2h;
        let bytes = (len * std::mem::size_of::<f64>()) as u64;
        let slowdown = self.fault.plan.salvage_slowdown.max(1.0);
        let nominal = self.cfg.d2h_time(bytes);
        let duration = SimTime::from_ns((nominal.as_ns() as f64 * slowdown).round() as u64);
        let deps = self.stream_deps(stream);
        self.host_clock += self.cfg.host_enqueue_overhead;
        if self.fault.device_lost(device) {
            // Even the maintenance path needs live hardware: salvage from
            // a dead device is refused (zero-duration faulted op).
            let label = intern_fmt(format_args!("D2H-salvage-fault[{bytes}B]"));
            let op = self.sched.submit(
                Op::on(eng_d2h, SimTime::ZERO)
                    .not_before(self.host_clock)
                    .host_cause(self.last_block)
                    .after_all(deps.iter().copied())
                    .label(label)
                    .category(csym!("salvage-fault")),
            );
            self.push_stream_op(stream, op);
            self.fault.mark_faulted(op);
            self.hazards.observe_op(
                op,
                stream.0 + 1,
                &deps,
                label,
                csym!("salvage-fault"),
                &[],
                self.host_clock,
            );
            self.put_deps(deps);
            return op;
        }
        self.bytes_d2h += bytes;
        let label = self.xfer_label(xk::SALVAGE, bytes, || {
            intern_fmt(format_args!("D2H-salvage[{bytes}B]"))
        });
        let mut builder = Op::on(eng_d2h, duration)
            .not_before(self.host_clock)
            .host_cause(self.last_block)
            .after_all(deps.iter().copied())
            .label(label)
            .category(csym!("salvage"))
            .touches(BufKey::Device(src.0).resource_id(), false)
            .touches(BufKey::Host(dst.0).resource_id(), true);
        if self.data_effects {
            let integrity = Rc::clone(&self.integrity);
            let (dst_idx, src_idx) = (dst.0, src.0);
            let dst_slab = self.host[dst.0].slab.clone();
            let src_slab = self.dev[src.0].slab.clone();
            builder = builder.effect(move || {
                // The maintenance path is exempt from injected link
                // corruption but still verifies the device source, so a
                // salvage of a struck slot cannot launder bad bytes.
                integrity.borrow_mut().d2h_effect(
                    &dst_slab, dst_idx, dst_off, &src_slab, src_idx, src_off, len, None,
                )
            });
        } else {
            self.integrity.borrow_mut().note_passive_copy();
        }
        let op = self.sched.submit(builder);
        self.push_stream_op(stream, op);
        self.record_access(op, BufKey::Device(src.0), Access::Read, csym!("salvage"));
        self.record_access(op, BufKey::Host(dst.0), Access::Write, csym!("salvage"));
        self.hazards.observe_op(
            op,
            stream.0 + 1,
            &deps,
            label,
            csym!("salvage"),
            &[
                (BufKey::Device(src.0), Dir::Read),
                (BufKey::Host(dst.0), Dir::Write),
            ],
            self.host_clock,
        );
        self.put_deps(deps);
        self.fault.stats.salvages += 1;
        op
    }

    // ------------------------------------------------------------------
    // Kernels
    // ------------------------------------------------------------------

    /// Launch a kernel into `stream`.
    ///
    /// Managed buffers named in the launch's access lists are migrated to
    /// the device first (in the same stream) if they are not resident,
    /// reproducing unified memory's on-demand behaviour.
    pub fn launch_kernel(&mut self, stream: StreamId, k: KernelLaunch) -> OpId {
        for key in k.reads.iter().chain(k.writes.iter()) {
            self.note_tenant_touch(key);
        }
        let device = self.streams[stream.0].device;
        let crash_now = self.fault.kernel_enqueue(self.host_clock);
        let died_now = self.fault.device_submission(device, self.host_clock);
        let dead = self.fault.crashed() || self.fault.device_lost(device);
        if !dead {
            self.kernels_launched += 1;
        }
        let mut deps = self.stream_deps(stream);
        self.host_clock += self.cfg.host_enqueue_overhead;
        if dead {
            // The platform (or this stream's device) died: a dying launch
            // occupies the compute engine for a fraction of its nominal
            // time and has no effect; launches on already-dead hardware
            // are refused outright.
            let duration = if crash_now || died_now {
                let frac = if crash_now {
                    self.fault
                        .plan
                        .crash
                        .as_ref()
                        .map(|c| c.fraction.clamp(0.0, 1.0))
                        .unwrap_or(0.5)
                } else {
                    0.5
                };
                let nominal = k.cost.duration(&self.cfg, k.efficiency);
                SimTime::from_ns((nominal.as_ns() as f64 * frac).round() as u64)
            } else {
                SimTime::ZERO
            };
            let label = intern_fmt(format_args!("{}-crash", k.label));
            let op = self.sched.submit(
                Op::on(self.devices[device].eng_compute, duration)
                    .not_before(self.host_clock)
                    .host_cause(self.last_block)
                    .after_all(deps.iter().copied())
                    .label(label)
                    .category(csym!("crash")),
            );
            self.push_stream_op(stream, op);
            self.fault.mark_faulted(op);
            self.hazards.observe_op(
                op,
                stream.0 + 1,
                &deps,
                label,
                csym!("crash"),
                &[],
                self.host_clock,
            );
            self.put_deps(deps);
            return op;
        }

        // On-demand managed migration.
        let managed_keys: Vec<usize> = k
            .reads
            .iter()
            .chain(k.writes.iter())
            .filter_map(|key| match key {
                BufKey::Managed(i) => Some(i),
                _ => None,
            })
            .collect();
        let device = self.streams[stream.0].device;
        for i in managed_keys {
            if !self.managed[i].on_device {
                assert_eq!(
                    self.managed[i].device, device,
                    "managed buffer touched from a stream on another device"
                );
                let bytes = self.managed[i].slab.bytes();
                let label = self.xfer_label(xk::UVM, bytes, || {
                    intern_fmt(format_args!("UVM-mig[{bytes}B]"))
                });
                let mig = self.sched.submit(
                    Op::on(
                        self.devices[device].eng_h2d,
                        self.cfg.managed_migration_time(bytes),
                    )
                    .not_before(self.host_clock)
                    .after_all(deps.iter().copied())
                    .label(label)
                    .category(csym!("uvm"))
                    .touches(BufKey::Managed(i).resource_id(), true),
                );
                deps.push(mig);
                self.managed[i].on_device = true;
            }
        }

        let duration = k.cost.duration(&self.cfg, k.efficiency);
        let mut op = Op::on(self.devices[device].eng_compute, duration)
            .not_before(self.host_clock)
            .host_cause(self.last_block)
            .after_all(deps.iter().copied())
            .label(k.label)
            .category(csym!("kernel"));
        for key in k.reads.iter() {
            op = op.touches(key.resource_id(), false);
        }
        for key in k.writes.iter() {
            op = op.touches(key.resource_id(), true);
        }
        let op = if self.data_effects {
            // Integrity wrapper around the kernel's data effect: pre-verify
            // the device buffers it reads (repairing resident strikes on
            // clean slots from their host origin), run the kernel, record
            // post-write digests and propagate poison, then land any
            // scheduled dirty-DRAM strike.
            let strike = self.fault.kernel_strike();
            let dev_slabs = |keys: &crate::kernel::KeyList| -> Vec<(usize, Slab)> {
                keys.iter()
                    .filter_map(|key| match key {
                        BufKey::Device(i) => Some((i, self.dev[i].slab.clone())),
                        _ => None,
                    })
                    .collect()
            };
            let read_slabs = dev_slabs(&k.reads);
            let write_slabs = dev_slabs(&k.writes);
            let integrity = Rc::clone(&self.integrity);
            let exec = k.exec;
            // A kernel that runs a data effect without declaring its write
            // set may have mutated any device buffer; all digests/origins
            // are forfeit.
            let undeclared = exec.is_some() && k.writes.is_empty();
            op.effect(move || {
                let inputs_poisoned = integrity.borrow_mut().kernel_pre(&read_slabs, &write_slabs);
                if let Some(exec) = exec {
                    exec();
                }
                integrity.borrow_mut().kernel_post(
                    inputs_poisoned,
                    &write_slabs,
                    undeclared,
                    strike,
                );
            })
        } else if let Some(exec) = k.exec {
            // Timing-only buffers with no corruption in play: digests,
            // origins and poison sets are all provably empty, so the
            // integrity wrapper is pure overhead — run the bare data effect.
            op.effect(exec)
        } else {
            op
        };
        let id = self.sched.submit(op);
        self.push_stream_op(stream, id);
        for key in k.reads.iter() {
            self.record_access(id, key, Access::Read, k.label);
        }
        for key in k.writes.iter() {
            self.record_access(id, key, Access::Write, k.label);
        }
        // Kernel access lists are short (a handful of buffers); one inline
        // buffer covers the common case without an allocation.
        let mut hb_buf = [(BufKey::Device(0), Dir::Read); 8];
        let mut hb_n = 0;
        let mut hb_spill: Vec<(BufKey, Dir)> = Vec::new();
        for access in k
            .reads
            .iter()
            .map(|key| (key, Dir::Read))
            .chain(k.writes.iter().map(|key| (key, Dir::Write)))
        {
            if hb_n < hb_buf.len() {
                hb_buf[hb_n] = access;
                hb_n += 1;
            } else {
                hb_spill.push(access);
            }
        }
        if hb_spill.is_empty() {
            self.hazards.observe_op(
                id,
                stream.0 + 1,
                &deps,
                k.label,
                csym!("kernel"),
                &hb_buf[..hb_n],
                self.host_clock,
            );
        } else {
            let mut all = hb_buf[..hb_n].to_vec();
            all.append(&mut hb_spill);
            self.hazards.observe_op(
                id,
                stream.0 + 1,
                &deps,
                k.label,
                csym!("kernel"),
                &all,
                self.host_clock,
            );
        }
        self.put_deps(deps);
        id
    }

    // ------------------------------------------------------------------
    // Managed-memory coherence
    // ------------------------------------------------------------------

    /// Host access to a managed buffer: synchronizes the device and migrates
    /// the data back if it is device-resident (the page-fault path).
    pub fn managed_host_access(&mut self, m: ManagedBuffer) {
        if self.managed[m.0].on_device {
            self.device_synchronize();
            let bytes = self.managed[m.0].slab.bytes();
            let device = self.managed[m.0].device;
            let mig = self.sched.submit(
                Op::on(
                    self.devices[device].eng_d2h,
                    self.cfg.managed_migration_time(bytes),
                )
                .not_before(self.host_clock)
                .label(format!("UVM-mig-back[{bytes}B]"))
                .category(csym!("uvm")),
            );
            let t = self.sched.run_until(mig);
            self.host_clock = self.host_clock.max(t);
            self.managed[m.0].on_device = false;
        }
    }

    /// Whether a managed buffer is currently device-resident.
    pub fn managed_on_device(&self, m: ManagedBuffer) -> bool {
        self.managed[m.0].on_device
    }

    // ------------------------------------------------------------------
    // Host-side work
    // ------------------------------------------------------------------

    /// Enqueue a host callback into a stream (`cudaLaunchHostFunc`): it
    /// runs on the host engine after all prior work in the stream, without
    /// blocking the submitting thread, and later stream work waits for it.
    /// Used for stream-ordered host-side post-processing of staged regions.
    pub fn launch_host_func(
        &mut self,
        stream: StreamId,
        duration: SimTime,
        label: impl Into<Sym>,
        f: impl FnOnce() + 'static,
    ) -> OpId {
        let deps = self.stream_deps(stream);
        self.host_clock += self.cfg.host_enqueue_overhead;
        let label: Sym = label.into();
        let op = self.sched.submit(
            Op::on(self.eng_host, duration)
                .not_before(self.host_clock)
                .host_cause(self.last_block)
                .after_all(deps.iter().copied())
                .label(label)
                .category(csym!("hostfn"))
                .effect(f),
        );
        self.push_stream_op(stream, op);
        self.hazards.observe_op(
            op,
            stream.0 + 1,
            &deps,
            label,
            csym!("hostfn"),
            &[],
            self.host_clock,
        );
        self.put_deps(deps);
        op
    }

    /// Perform `duration` of host CPU work (occupies the `host` trace lane
    /// and advances the host clock).
    pub fn host_work(&mut self, duration: SimTime, label: impl Into<Sym>) {
        let op = Op::on(self.eng_host, duration)
            .not_before(self.host_clock)
            .host_cause(self.last_block)
            .label(label.into())
            .category(csym!("host"));
        let op = self.sched.submit(op);
        let t = self.sched.run_until(op);
        self.last_block = Some(op);
        self.host_clock = self.host_clock.max(t);
    }

    /// Host-side memcpy of `bytes` (ghost-cell exchange on the host).
    pub fn host_copy_work(&mut self, bytes: u64, label: impl Into<Sym>) {
        self.host_work(self.cfg.host_copy_time(bytes), label);
    }

    /// Current host clock.
    pub fn host_now(&self) -> SimTime {
        self.host_clock
    }

    // ------------------------------------------------------------------
    // Run completion, traces, statistics
    // ------------------------------------------------------------------

    /// Drain all outstanding work and return the total elapsed time
    /// (max of host clock and last device completion).
    pub fn finish(&mut self) -> SimTime {
        self.device_synchronize();
        self.host_clock
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> Trace {
        self.sched.trace()
    }

    /// Scheduler critical path (internal; use
    /// [`GpuSystem::critical_path`][crate::GpuSystem::critical_path], which
    /// drains outstanding work first).
    pub(crate) fn scheduler_critical_path(&self) -> Vec<desim::CriticalStep> {
        self.sched.critical_path()
    }

    /// Total bytes moved host→device so far (excluding managed migrations).
    pub fn stats_bytes_h2d(&self) -> u64 {
        self.bytes_h2d
    }

    /// Total bytes moved device→host so far (excluding managed migrations).
    pub fn stats_bytes_d2h(&self) -> u64 {
        self.bytes_d2h
    }

    /// Total bytes moved device→device over the peer link so far.
    pub fn stats_bytes_p2p(&self) -> u64 {
        self.bytes_p2p
    }

    /// Total network-message bytes delivered into this node so far.
    pub fn stats_bytes_net(&self) -> u64 {
        self.bytes_net
    }

    /// Kernels launched so far.
    pub fn stats_kernels(&self) -> u64 {
        self.kernels_launched
    }

    /// Scan recorded accesses for time-overlapping conflicting pairs.
    ///
    /// Two operations conflict when they touch the same buffer, at least one
    /// writes, and their executions overlap in simulated time — on real
    /// hardware that is a data race between streams. Requires
    /// [`GpuSystem::set_hazard_checking`] and completed work (call after
    /// [`GpuSystem::finish`]).
    pub fn check_hazards(&mut self) -> Vec<Hazard> {
        self.sched.run_all();
        let mut by_buf: Vec<(BufKey, SimTime, SimTime, Access, &str, OpId)> = self
            .accesses
            .iter()
            .map(|(op, key, acc, label)| {
                let start = self.sched.start_of(*op).expect("op ran");
                let end = self.sched.completion(*op).expect("op ran");
                (*key, start, end, *acc, label.as_str(), *op)
            })
            .collect();
        by_buf.sort_by_key(|a| (a.0, a.1, a.2));

        let mut hazards = Vec::new();
        let mut i = 0;
        while i < by_buf.len() {
            let mut j = i + 1;
            // Sweep within one buffer's access list.
            while j < by_buf.len() && by_buf[j].0 == by_buf[i].0 {
                j += 1;
            }
            let group = &by_buf[i..j];
            // Active-set sweep over start-sorted intervals.
            let mut active: Vec<usize> = Vec::new();
            for (gi, a) in group.iter().enumerate() {
                active.retain(|&k| group[k].2 > a.1);
                for &k in &active {
                    let b = &group[k];
                    // An op touching one buffer as both read and write (e.g.
                    // a self-periodic ghost gather) is not a race with itself.
                    if a.5 == b.5 {
                        continue;
                    }
                    if a.3 == Access::Write || b.3 == Access::Write {
                        hazards.push(Hazard {
                            buffer: a.0,
                            first_label: b.4.to_string(),
                            second_label: a.4.to_string(),
                            overlap_start: a.1.max(b.1),
                            overlap_end: a.2.min(b.2),
                        });
                    }
                }
                active.push(gi);
            }
            i = j;
        }
        hazards
    }
}
