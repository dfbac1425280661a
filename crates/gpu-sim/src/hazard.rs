//! Stream-hazard detection: a vector-clock happens-before tracker.
//!
//! The interval checker in [`crate::GpuSystem::check_hazards`] flags
//! conflicting accesses that *overlapped in simulated time* — but an
//! engine with capacity 1 serializes everything, so a program whose
//! correctness silently depends on engine serialization (instead of
//! stream/event ordering) passes it. This module closes that gap: it
//! tracks the *semantic* ordering the program actually established —
//! stream FIFO edges, `record_event`/`stream_wait_event` edges, and
//! host-blocking synchronization — as vector clocks, and flags every
//! conflicting access pair the program left unordered, whether or not
//! the schedule happened to separate them in time.
//!
//! The tracker observes every operation at enqueue (the edges are fully
//! known then; the scheduler never adds ordering beyond them) and runs in
//! two modes:
//!
//! * **cheap** (always on): per-kind counters, surfaced through
//!   [`crate::GpuSystem::hazard_counters`] and the run report;
//! * **deep**: every hazard is recorded with both operations' labels,
//!   the buffer, and its position in enqueue order, and can be exported
//!   as a replayable [`desim::Trace`] whose categories are the hazard
//!   kinds — deterministic for a fixed program and seed.
//!
//! The runtime feeds one extra edge the scheduler cannot see: the cache
//! list. [`crate::GpuSystem::note_evicted`] marks a device buffer whose
//! slot was evicted; a later read without an intervening write is a
//! stale-cache-list read even though no scheduler-level race exists.
//!
//! # Clock memory
//!
//! Every op's clock row stays joinable for the tracker's lifetime — a
//! `stream_wait_op` may name any op ever issued — so rows are packed to
//! `u32` stamps and stored in fixed-size chunks that never move: the row
//! store grows by whole chunks and never copies what it already holds.

use crate::system::BufKey;
use desim::{OpId, SimTime, Sym, Trace};

/// What kind of ordering violation a hazard is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardKind {
    /// A read not ordered after the transfer that produces its data
    /// (e.g. a kernel consuming a cache slot before its H2D landed).
    UseBeforeTransfer,
    /// A read not ordered after a kernel that writes the same buffer.
    ReadWriteRace,
    /// A write not ordered after earlier reads of the same buffer
    /// (e.g. reloading a slot while a foreign consumer still reads it).
    WriteAfterRead,
    /// Two unordered writes to the same buffer.
    WriteAfterWrite,
    /// A read of a buffer whose slot the cache list already evicted,
    /// with no reload in between.
    StaleCacheRead,
    /// An unordered conflict where either side is a ghost-exchange
    /// operation (fill, pack, unpack, batched gather).
    GhostOrdering,
}

impl HazardKind {
    /// Stable name, used as the trace category in deep mode.
    pub fn name(self) -> &'static str {
        match self {
            HazardKind::UseBeforeTransfer => "use-before-transfer",
            HazardKind::ReadWriteRace => "read-write-race",
            HazardKind::WriteAfterRead => "write-after-read",
            HazardKind::WriteAfterWrite => "write-after-write",
            HazardKind::StaleCacheRead => "stale-cache-read",
            HazardKind::GhostOrdering => "ghost-ordering",
        }
    }
}

/// Per-kind hazard counters (the always-on cheap mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HazardCounters {
    pub use_before_transfer: u64,
    pub read_write_race: u64,
    pub write_after_read: u64,
    pub write_after_write: u64,
    pub stale_cache_read: u64,
    pub ghost_ordering: u64,
}

impl HazardCounters {
    pub fn total(&self) -> u64 {
        self.use_before_transfer
            + self.read_write_race
            + self.write_after_read
            + self.write_after_write
            + self.stale_cache_read
            + self.ghost_ordering
    }

    pub fn any(&self) -> bool {
        self.total() > 0
    }

    fn bump(&mut self, kind: HazardKind) {
        match kind {
            HazardKind::UseBeforeTransfer => self.use_before_transfer += 1,
            HazardKind::ReadWriteRace => self.read_write_race += 1,
            HazardKind::WriteAfterRead => self.write_after_read += 1,
            HazardKind::WriteAfterWrite => self.write_after_write += 1,
            HazardKind::StaleCacheRead => self.stale_cache_read += 1,
            HazardKind::GhostOrdering => self.ghost_ordering += 1,
        }
    }
}

/// One detected hazard (deep mode).
#[derive(Debug, Clone)]
pub struct HazardRecord {
    pub kind: HazardKind,
    pub buffer: BufKey,
    /// Label of the earlier access (the one already on record).
    pub first_label: String,
    /// Label of the access that completed the unordered pair.
    pub second_label: String,
    pub first_op: OpId,
    pub second_op: OpId,
    /// Position of the detection in enqueue order (deterministic).
    pub enqueue_seq: u64,
    /// Host clock at the enqueue that completed the pair.
    pub at: SimTime,
}

/// A buffer access direction, as the tracker sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Read,
    Write,
}

/// One recorded access: enough to decide happens-before against any later
/// operation's clock. `Copy` — labels are interned, so recording an access
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
struct AccessInfo {
    op: OpId,
    /// Clock component the issuing stream owns.
    comp: usize,
    /// The issuing op's stamp in its own component.
    stamp: u32,
    label: Sym,
    category: Sym,
}

impl AccessInfo {
    /// Whether this access happens-before an op with clock `clock` (a
    /// component slice of `stride` length; components past the slice are
    /// implicitly zero).
    fn ordered_before(&self, clock: &[u32]) -> bool {
        clock.get(self.comp).copied().unwrap_or(0) >= self.stamp
    }
}

/// Rows per clock chunk.
const CHUNK_ROWS: usize = 1024;

/// Per-op vector clocks, one `stride`-long row per op id (scheduler ops
/// are numbered sequentially), in chunks of [`CHUNK_ROWS`] rows. Ops
/// submitted without an `observe_op` call leave all-zero rows, which join
/// as no-ops — exactly "no edges known".
struct ClockRows {
    chunks: Vec<Vec<u32>>,
    /// Components per row: max stream component seen + 1.
    stride: usize,
    /// Rows stored: op ids below this have one.
    rows: usize,
}

impl ClockRows {
    fn new() -> Self {
        ClockRows {
            chunks: Vec::new(),
            stride: 1,
            rows: 0,
        }
    }

    /// Op `op`'s row, or `None` when it has none (never observed yet).
    fn row(&self, op: usize) -> Option<&[u32]> {
        if op >= self.rows {
            return None;
        }
        let at = (op % CHUNK_ROWS) * self.stride;
        Some(&self.chunks[op / CHUNK_ROWS][at..at + self.stride])
    }

    /// Store `clock` as op `op`'s row. Ops are observed in submission
    /// order; the ids skipped since the last row get all-zero rows.
    fn push(&mut self, op: usize, clock: &[u32]) {
        assert!(
            op >= self.rows,
            "op {op} observed after op {}: ops must be observed in submission order",
            self.rows - 1
        );
        let stride = self.stride;
        while self.rows <= op {
            if self.rows.is_multiple_of(CHUNK_ROWS) {
                // The first chunk grows with the program (small systems
                // stay small); later ones are allocated whole.
                let cap = if self.rows == 0 {
                    0
                } else {
                    CHUNK_ROWS * stride
                };
                self.chunks.push(Vec::with_capacity(cap));
            }
            let chunk = self.chunks.last_mut().expect("chunk pushed above");
            if self.rows == op {
                chunk.extend_from_slice(clock);
            } else {
                chunk.resize(chunk.len() + stride, 0);
            }
            self.rows += 1;
        }
    }

    /// Widen every stored row to `stride` components (zero-filled), when a
    /// new stream appeared — setup-time only.
    fn widen(&mut self, stride: usize) {
        let old = self.stride;
        for chunk in &mut self.chunks {
            let rows = chunk.len() / old;
            let mut wide = Vec::with_capacity(chunk.capacity() / old * stride);
            for row in chunk.chunks_exact(old) {
                wide.extend_from_slice(row);
                wide.resize(wide.len() + stride - old, 0);
            }
            debug_assert_eq!(wide.len(), rows * stride);
            *chunk = wide;
        }
        self.stride = stride;
    }
}

fn ghosty(label: &str) -> bool {
    label.contains("ghost") || label.contains("pack")
}

const TRANSFER_CATEGORIES: [&str; 6] = ["h2d", "d2h", "d2d", "p2p", "salvage", "uvm"];

/// The happens-before tracker. Owned by [`crate::GpuSystem`]; fed from
/// every enqueue and host-synchronization point.
pub(crate) struct HazardTracker {
    deep: bool,
    /// Every op's vector clock. Observing an op is a row copy and a few row
    /// maxes, with no allocation and no pointer chasing.
    clocks: ClockRows,
    /// What the host has observed complete; joined into every new op
    /// (an enqueue happens-after everything the host synchronized on).
    host: Vec<u32>,
    /// Reusable row buffer for the op clock under construction.
    scratch: Vec<u32>,
    /// Per-buffer access state, dense-indexed by buffer kind and index —
    /// buffer ids are small sequential allocator indices, so a direct
    /// table beats hashing `BufKey`s on every access (several lookups per
    /// enqueued op).
    bufs: [Vec<BufState>; 3],
    counters: HazardCounters,
    records: Vec<HazardRecord>,
    seq: u64,
}

/// Access state of one buffer: last writer, readers since that write, and
/// whether the runtime's cache list evicted it with no reload since.
#[derive(Default)]
struct BufState {
    writer: Option<AccessInfo>,
    /// Readers since the last write. Cleared — capacity kept — on write.
    readers: Vec<AccessInfo>,
    evicted: Option<Sym>,
}

/// Dense table coordinates of a `BufKey`.
fn buf_coords(key: BufKey) -> (usize, usize) {
    match key {
        BufKey::Device(i) => (0, i),
        BufKey::Host(i) => (1, i),
        BufKey::Managed(i) => (2, i),
    }
}

impl HazardTracker {
    pub(crate) fn new() -> Self {
        // Room for a small program's streams up front, so a freshly built
        // system does not regrow these per new stream.
        const COMPS_HINT: usize = 8;
        let comps = || {
            let mut v = Vec::with_capacity(COMPS_HINT);
            v.push(0);
            v
        };
        HazardTracker {
            deep: false,
            clocks: ClockRows::new(),
            host: comps(),
            scratch: comps(),
            bufs: [Vec::new(), Vec::new(), Vec::new()],
            counters: HazardCounters::default(),
            records: Vec::new(),
            seq: 0,
        }
    }

    /// Ensure clock rows are wide enough for component `comp`, re-striding
    /// the rows if a new stream appeared (setup-time rarity).
    fn ensure_comp(&mut self, comp: usize) {
        if comp < self.clocks.stride {
            return;
        }
        let new = comp + 1;
        self.clocks.widen(new);
        self.host.resize(new, 0);
        self.scratch.resize(new, 0);
    }

    pub(crate) fn set_deep(&mut self, on: bool) {
        self.deep = on;
    }

    pub(crate) fn counters(&self) -> HazardCounters {
        self.counters
    }

    pub(crate) fn records(&self) -> &[HazardRecord] {
        &self.records
    }

    /// Observe one submitted operation: fold its dependency edges and the
    /// host's knowledge into its clock, then check its accesses.
    /// `comp` is the clock component of the issuing stream (stream index
    /// + 1; component 0 belongs to the host).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe_op(
        &mut self,
        op: OpId,
        comp: usize,
        deps: &[OpId],
        label: impl Into<Sym>,
        category: impl Into<Sym>,
        accesses: &[(BufKey, Dir)],
        now: SimTime,
    ) {
        let (label, category) = (label.into(), category.into());
        self.ensure_comp(comp);
        let mut clock = std::mem::take(&mut self.scratch);
        clock.copy_from_slice(&self.host);
        for d in deps {
            if let Some(row) = self.clocks.row(d.0) {
                for (c, &v) in clock.iter_mut().zip(row) {
                    *c = (*c).max(v);
                }
            }
        }
        clock[comp] = clock[comp]
            .checked_add(1)
            .expect("hazard clock: more than u32::MAX ops on one stream");
        let stamp = clock[comp];
        for &(key, dir) in accesses {
            let info = AccessInfo {
                op,
                comp,
                stamp,
                label,
                category,
            };
            match dir {
                Dir::Read => self.check_read(key, info, &clock, now),
                Dir::Write => self.check_write(key, info, &clock, now),
            }
        }
        self.clocks.push(op.0, &clock);
        self.scratch = clock;
    }

    /// The host blocked until `op` completed: join its clock into the
    /// host's, ordering every later enqueue after it.
    pub(crate) fn host_joins(&mut self, op: OpId) {
        if let Some(row) = self.clocks.row(op.0) {
            for (h, &v) in self.host.iter_mut().zip(row) {
                *h = (*h).max(v);
            }
        }
    }

    /// The runtime's cache list dropped `key` from its slot; a read
    /// before the next write is a stale-cache-list read.
    pub(crate) fn note_evicted(&mut self, key: BufKey, label: impl Into<Sym>) {
        self.buf_state(key).evicted = Some(label.into());
    }

    /// The dense state slot for `key`, growing its kind's table on first
    /// sight of a new buffer index.
    fn buf_state(&mut self, key: BufKey) -> &mut BufState {
        let (t, i) = buf_coords(key);
        let table = &mut self.bufs[t];
        if table.len() <= i {
            table.resize_with(i + 1, BufState::default);
        }
        &mut table[i]
    }

    fn check_read(&mut self, key: BufKey, info: AccessInfo, clock: &[u32], now: SimTime) {
        let s = self.buf_state(key);
        let evicted = s.evicted;
        let writer = s.writer;
        s.readers.push(info);
        if let Some(evict_label) = evicted {
            self.report(
                HazardKind::StaleCacheRead,
                key,
                evict_label,
                info.label,
                info.op,
                info.op,
                now,
            );
        }
        if let Some(w) = writer {
            if !w.ordered_before(clock) {
                // Conflict classification is off the hot path — resolving
                // the interned labels here is fine.
                let kind = if ghosty(w.label.as_str())
                    || ghosty(w.category.as_str())
                    || ghosty(info.label.as_str())
                    || ghosty(info.category.as_str())
                {
                    HazardKind::GhostOrdering
                } else if TRANSFER_CATEGORIES.contains(&w.category.as_str()) {
                    HazardKind::UseBeforeTransfer
                } else {
                    HazardKind::ReadWriteRace
                };
                self.report(kind, key, w.label, info.label, w.op, info.op, now);
            }
        }
    }

    fn check_write(&mut self, key: BufKey, info: AccessInfo, clock: &[u32], now: SimTime) {
        let s = self.buf_state(key);
        let prev = s.writer;
        // Take the reader list out so conflicts can be reported while
        // iterating; its capacity goes back afterwards, so steady-state
        // writes allocate nothing.
        let mut readers = std::mem::take(&mut s.readers);
        s.writer = Some(info);
        s.evicted = None;
        if let Some(w) = prev {
            if !w.ordered_before(clock) {
                let kind = if ghosty(w.label.as_str()) || ghosty(info.label.as_str()) {
                    HazardKind::GhostOrdering
                } else {
                    HazardKind::WriteAfterWrite
                };
                self.report(kind, key, w.label, info.label, w.op, info.op, now);
            }
        }
        for r in readers.iter().filter(|r| !r.ordered_before(clock)) {
            let kind = if ghosty(r.label.as_str())
                || ghosty(r.category.as_str())
                || ghosty(info.label.as_str())
                || ghosty(info.category.as_str())
            {
                HazardKind::GhostOrdering
            } else {
                HazardKind::WriteAfterRead
            };
            self.report(kind, key, r.label, info.label, r.op, info.op, now);
        }
        readers.clear();
        self.buf_state(key).readers = readers;
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        kind: HazardKind,
        buffer: BufKey,
        first_label: Sym,
        second_label: Sym,
        first_op: OpId,
        second_op: OpId,
        now: SimTime,
    ) {
        self.counters.bump(kind);
        if self.deep {
            self.records.push(HazardRecord {
                kind,
                buffer,
                first_label: first_label.as_str().to_string(),
                second_label: second_label.as_str().to_string(),
                first_op,
                second_op,
                enqueue_seq: self.seq,
                at: now,
            });
        }
        self.seq += 1;
    }

    /// Export the deep-mode records as a replayable trace: one lane, one
    /// span per hazard (ordered by detection), category = hazard kind.
    /// Deterministic for a fixed program and seed.
    pub(crate) fn trace(&self) -> Trace {
        let mut trace = Trace::new(vec!["hazards".to_string()]);
        for r in &self.records {
            trace.push(desim::Span {
                engine: 0,
                server: 0,
                label: format!("{} ⇢ {} @{:?}", r.first_label, r.second_label, r.buffer),
                category: r.kind.name().to_string(),
                start: r.at,
                end: r.at + SimTime::from_us(1),
                seq: r.enqueue_seq,
            });
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Mint distinct OpIds through a real scheduler so the tracker sees
    // the same id type production code uses.
    fn mint(n: usize) -> Vec<OpId> {
        let mut sched = desim::Scheduler::new();
        let eng = sched.add_engine("x", 1);
        (0..n)
            .map(|_| sched.submit(desim::Op::on(eng, SimTime::from_us(1))))
            .collect()
    }

    #[test]
    fn ordered_stream_work_is_hazard_free() {
        let ids = mint(3);
        let mut t = HazardTracker::new();
        let buf = BufKey::Device(0);
        // h2d write -> kernel read -> d2h read, all chained by deps.
        t.observe_op(
            ids[0],
            1,
            &[],
            "H2D",
            "h2d",
            &[(buf, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(
            ids[1],
            1,
            &[ids[0]],
            "k",
            "kernel",
            &[(buf, Dir::Read)],
            SimTime::ZERO,
        );
        t.observe_op(
            ids[2],
            1,
            &[ids[1]],
            "D2H",
            "d2h",
            &[(buf, Dir::Read)],
            SimTime::ZERO,
        );
        assert!(!t.counters().any());
    }

    #[test]
    fn unordered_read_after_transfer_is_use_before_transfer() {
        let ids = mint(2);
        let mut t = HazardTracker::new();
        let buf = BufKey::Device(3);
        t.observe_op(
            ids[0],
            1,
            &[],
            "H2D",
            "h2d",
            &[(buf, Dir::Write)],
            SimTime::ZERO,
        );
        // Different stream, no dep edge: the read may run first.
        t.observe_op(
            ids[1],
            2,
            &[],
            "k",
            "kernel",
            &[(buf, Dir::Read)],
            SimTime::ZERO,
        );
        assert_eq!(t.counters().use_before_transfer, 1);
        assert_eq!(t.counters().total(), 1);
    }

    #[test]
    fn host_sync_orders_cross_stream_work() {
        let ids = mint(2);
        let mut t = HazardTracker::new();
        let buf = BufKey::Device(1);
        t.observe_op(
            ids[0],
            1,
            &[],
            "H2D",
            "h2d",
            &[(buf, Dir::Write)],
            SimTime::ZERO,
        );
        // stream_synchronize: the host saw the write complete.
        t.host_joins(ids[0]);
        t.observe_op(
            ids[1],
            2,
            &[],
            "k",
            "kernel",
            &[(buf, Dir::Read)],
            SimTime::ZERO,
        );
        assert!(!t.counters().any(), "host sync is a happens-before edge");
    }

    #[test]
    fn unordered_write_after_read_and_write_write() {
        let ids = mint(3);
        let mut t = HazardTracker::new();
        let buf = BufKey::Device(0);
        t.observe_op(
            ids[0],
            1,
            &[],
            "w0",
            "kernel",
            &[(buf, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(
            ids[1],
            1,
            &[ids[0]],
            "r",
            "kernel",
            &[(buf, Dir::Read)],
            SimTime::ZERO,
        );
        // Unordered second write from another stream: WAW with w0 is
        // cured by the read's dep? No — the write races BOTH the earlier
        // write (unordered) and the reader.
        t.observe_op(
            ids[2],
            2,
            &[],
            "w1",
            "kernel",
            &[(buf, Dir::Write)],
            SimTime::ZERO,
        );
        assert_eq!(t.counters().write_after_write, 1);
        assert_eq!(t.counters().write_after_read, 1);
    }

    #[test]
    fn eviction_marks_stale_reads_until_rewrite() {
        let ids = mint(3);
        let mut t = HazardTracker::new();
        let buf = BufKey::Device(7);
        t.observe_op(
            ids[0],
            1,
            &[],
            "H2D",
            "h2d",
            &[(buf, Dir::Write)],
            SimTime::ZERO,
        );
        t.note_evicted(buf, "evict");
        t.observe_op(
            ids[1],
            1,
            &[ids[0]],
            "k",
            "kernel",
            &[(buf, Dir::Read)],
            SimTime::ZERO,
        );
        assert_eq!(t.counters().stale_cache_read, 1, "read after eviction");
        // A reload clears the mark.
        t.observe_op(
            ids[2],
            1,
            &[ids[1]],
            "H2D",
            "h2d",
            &[(buf, Dir::Write)],
            SimTime::ZERO,
        );
        assert_eq!(t.counters().stale_cache_read, 1);
    }

    #[test]
    fn ghost_labels_classify_as_ghost_ordering() {
        let ids = mint(2);
        let mut t = HazardTracker::new();
        let buf = BufKey::Device(2);
        t.observe_op(
            ids[0],
            1,
            &[],
            "ghost-batch",
            "kernel",
            &[(buf, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(
            ids[1],
            2,
            &[],
            "k",
            "kernel",
            &[(buf, Dir::Read)],
            SimTime::ZERO,
        );
        assert_eq!(t.counters().ghost_ordering, 1);
    }

    #[test]
    fn record_event_stream_ordering_fixes_stamp_collision() {
        // Regression for the `record_event` stamp-collision false negative:
        // the event marker must become the stream's tail so the next op on
        // the stream gets a *later* stamp than the event. If both shared a
        // stamp, a waiter joining the event's clock would falsely appear
        // ordered after work submitted *after* the event.
        let ids = mint(4);
        let (w0, ev, w1, r) = (ids[0], ids[1], ids[2], ids[3]);
        let (buf_a, buf_b) = (BufKey::Device(0), BufKey::Device(1));
        let mut t = HazardTracker::new();
        // Stream 1: write A, record event, write B *after the event*.
        t.observe_op(
            w0,
            1,
            &[],
            "wA",
            "kernel",
            &[(buf_a, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(ev, 1, &[w0], "event", "event", &[], SimTime::ZERO);
        t.observe_op(
            w1,
            1,
            &[ev],
            "wB",
            "kernel",
            &[(buf_b, Dir::Write)],
            SimTime::ZERO,
        );
        // Stream 2 waits on the event, then reads BOTH buffers. The event
        // covers the pre-event write only.
        t.observe_op(
            r,
            2,
            &[ev],
            "k",
            "kernel",
            &[(buf_a, Dir::Read), (buf_b, Dir::Read)],
            SimTime::ZERO,
        );
        assert_eq!(
            t.counters().read_write_race,
            1,
            "the post-event write must stay unordered w.r.t. the waiter"
        );

        // The broken stamping (next op chained to w0, not the event):
        // the waiter joins the event's clock and the post-event write now
        // *shares* the event's stamp — silent false negative.
        let ids = mint(4);
        let (w0, ev, w1, r) = (ids[0], ids[1], ids[2], ids[3]);
        let mut t = HazardTracker::new();
        t.observe_op(
            w0,
            1,
            &[],
            "wA",
            "kernel",
            &[(buf_a, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(ev, 1, &[w0], "event", "event", &[], SimTime::ZERO);
        t.observe_op(
            w1,
            1,
            &[w0],
            "wB",
            "kernel",
            &[(buf_b, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(
            r,
            2,
            &[ev],
            "k",
            "kernel",
            &[(buf_a, Dir::Read), (buf_b, Dir::Read)],
            SimTime::ZERO,
        );
        assert!(
            !t.counters().any(),
            "documents the collision: without stream-ordering the race is missed"
        );
    }

    #[test]
    fn host_sync_on_earlier_event_does_not_cover_later_stream_work() {
        // Two events on one stream racing a host sync: the host synchronizes
        // on the FIRST event only. Work recorded between the two events —
        // and the second event itself — stays unordered w.r.t. later
        // host-issued accesses.
        let ids = mint(5);
        let (w0, ev1, w1, ev2, host_op) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let (buf_a, buf_b) = (BufKey::Device(0), BufKey::Device(1));
        let mut t = HazardTracker::new();
        t.observe_op(
            w0,
            1,
            &[],
            "wA",
            "kernel",
            &[(buf_a, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(ev1, 1, &[w0], "event", "event", &[], SimTime::ZERO);
        t.observe_op(
            w1,
            1,
            &[ev1],
            "wB",
            "kernel",
            &[(buf_b, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(ev2, 1, &[w1], "event", "event", &[], SimTime::ZERO);
        // cudaEventSynchronize(ev1): host joins the first event's clock.
        t.host_joins(ev1);
        // A host-issued op on another stream with no explicit deps: reading
        // the pre-ev1 buffer is safe, reading the post-ev1 buffer races.
        t.observe_op(
            host_op,
            2,
            &[],
            "k",
            "kernel",
            &[(buf_a, Dir::Read), (buf_b, Dir::Read)],
            SimTime::ZERO,
        );
        assert_eq!(t.counters().total(), 1, "exactly the post-ev1 write races");
        assert_eq!(t.counters().read_write_race, 1);

        // Syncing the SECOND event instead covers everything.
        let ids = mint(5);
        let (w0, ev1, w1, ev2, host_op) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let mut t = HazardTracker::new();
        t.observe_op(
            w0,
            1,
            &[],
            "wA",
            "kernel",
            &[(buf_a, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(ev1, 1, &[w0], "event", "event", &[], SimTime::ZERO);
        t.observe_op(
            w1,
            1,
            &[ev1],
            "wB",
            "kernel",
            &[(buf_b, Dir::Write)],
            SimTime::ZERO,
        );
        t.observe_op(ev2, 1, &[w1], "event", "event", &[], SimTime::ZERO);
        t.host_joins(ev2);
        t.observe_op(
            host_op,
            2,
            &[],
            "k",
            "kernel",
            &[(buf_a, Dir::Read), (buf_b, Dir::Read)],
            SimTime::ZERO,
        );
        assert!(
            !t.counters().any(),
            "the later event covers the whole stream"
        );
    }

    #[test]
    fn deep_mode_records_are_deterministic_and_traceable() {
        let run = || {
            let ids = mint(2);
            let mut t = HazardTracker::new();
            t.set_deep(true);
            let buf = BufKey::Device(0);
            t.observe_op(
                ids[0],
                1,
                &[],
                "H2D",
                "h2d",
                &[(buf, Dir::Write)],
                SimTime::ZERO,
            );
            t.observe_op(
                ids[1],
                2,
                &[],
                "k",
                "kernel",
                &[(buf, Dir::Read)],
                SimTime::from_us(5),
            );
            t.trace()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.spans[0].category, "use-before-transfer");
        assert_eq!(a.spans[0].label, b.spans[0].label);
        assert_eq!(a.spans[0].start, b.spans[0].start);
    }
}
