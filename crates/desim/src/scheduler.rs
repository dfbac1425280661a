//! Dependency-driven list scheduler.
//!
//! The model: a fixed set of *engines* (capacity-k FIFO servers — copy
//! engines, the compute engine, ...), and *operations* submitted
//! incrementally. An operation carries
//!
//! * the engine it must run on (or none, for zero-cost markers),
//! * a duration (from the cost model),
//! * a `not_before` time — the host clock at enqueue; hardware cannot start
//!   work before the host issued it,
//! * dependencies on previously submitted operations (stream FIFO order and
//!   cross-stream event waits are expressed this way), and
//! * an optional *effect*: a closure applied when the operation executes,
//!   which is how simulated copies and kernels move real data.
//!
//! Operations become *ready* when all dependencies have completed (and
//! `not_before` has passed); ready operations are admitted to their engine in
//! ready-time order (ties broken by submission order), starting at
//! `max(ready, earliest-free-server)`. This mirrors how CUDA hardware queues
//! drain work and makes the schedule — and therefore every simulated run —
//! fully deterministic.
//!
//! Effects are applied in scheduling order. For programs whose conflicting
//! accesses are ordered by dependencies (as any correct stream program is),
//! this coincides with data order; see `gpu-sim`'s hazard checker for the
//! racy case.
//!
//! # Hot-path design
//!
//! This scheduler is the inner loop of every bench, sweep and schedule-space
//! walk in the workspace, so the per-op path is allocation-free in the
//! steady state:
//!
//! * labels and categories are interned [`Sym`]s (`Copy`, u32) — no
//!   per-op `String`;
//! * dependency and footprint lists ride inline in the [`Op`] builder
//!   (spilling to the heap only past 4 entries) and land in shared arenas
//!   (`fp_arena`, the dependents edge list) instead of per-op `Vec`s;
//! * the ready queue is a binary heap keyed `(ready_ns, submission idx)`;
//!   with no oracle installed a pop is O(log n) with no allocation, and the
//!   oracle candidate view is built lazily only at real decision points
//!   (>1 runnable op) in a reused scratch buffer;
//! * span recording sits behind a [`TraceLevel`]: `Off` records nothing,
//!   `Counters` keeps per-engine busy/op tallies, `Full` records `Sym`-keyed
//!   spans (still no string allocation; strings materialize only when a
//!   [`Trace`] is exported);
//! * engine names are interned too, so building a scheduler allocates no
//!   per-engine `String` either.
//!
//! # Op lifetime
//!
//! An op's state is split in two. Everything it needs to *run* — engine,
//! duration, effect, remaining dependencies, ready time and binding
//! dependency, host cause, footprint, and its dependents edges — lives in
//! a pending *slot* and the arenas it points into. Slots and edges go back
//! to free lists the moment the op executes and are reused by later
//! submissions; the footprint arena is compacted once dead entries
//! outnumber live ones. So they cost memory in proportion to the ops in
//! flight, not to the ops ever run. What the op
//! leaves behind is a fixed 32-byte record (start, end, packed
//! [`Bound`], label, category), appended to page-sized chunks that never
//! move: [`Scheduler::completion`], [`Scheduler::start_of`] and
//! [`Scheduler::critical_path`] read only records, so they stay exact for
//! every op ever submitted, at every [`TraceLevel`].

use crate::intern::{intern_static, Sym};
use crate::time::SimTime;
use crate::trace::{Span, Trace};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::OnceLock;

/// Handle to an engine registered with [`Scheduler::add_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineId(pub usize);

/// Handle to a submitted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub usize);

/// Closure applied when an operation executes.
pub type Effect = Box<dyn FnOnce()>;

/// How much execution history the scheduler records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No spans, no counters: the fastest mode, for throughput sweeps.
    #[default]
    Off,
    /// Per-engine busy-time and op-count tallies, no spans.
    Counters,
    /// Counters plus one span per executed op (Gantt/Chrome export,
    /// overlap analysis, byte-accounting conformance checks).
    Full,
}

/// Per-engine execution tallies, maintained at [`TraceLevel::Counters`] and
/// above. Two runs of the same program agree exactly, whatever the level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Ops executed on this engine.
    pub ops: u64,
    /// Sum of op durations (busy time across all servers), in ns.
    pub busy_ns: u64,
}

/// One recorded span, as stored on the hot path: `Sym` labels, no strings.
/// [`Scheduler::trace`] materializes these into [`Span`]s.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub engine: u32,
    pub server: u32,
    pub label: Sym,
    pub category: Sym,
    pub start: SimTime,
    pub end: SimTime,
    /// Submission index of the operation.
    pub seq: u64,
}

/// One admissible operation at a scheduling decision point, as presented to
/// a [`ScheduleOracle`]. Candidates are sorted by `(ready, submission
/// index)`, so index 0 is always the op the default FIFO policy would admit.
#[derive(Debug)]
pub struct Candidate<'a> {
    pub op: OpId,
    /// When the op's dependencies allowed it to start.
    pub ready: SimTime,
    /// Engine the op occupies (`None` for markers).
    pub engine: Option<EngineId>,
    pub label: Sym,
    pub category: Sym,
    /// Resources touched, as `(resource, is_write)` pairs (see
    /// [`Op::touches`]). Two candidates with no engine conflict and no
    /// conflicting resource pair commute.
    pub footprint: &'a [(u64, bool)],
}

/// Pluggable admission policy: whenever more than one submitted operation is
/// simultaneously runnable (all dependencies satisfied), the oracle — not
/// FIFO arrival order — picks which one the scheduler admits next.
///
/// `choose` receives the candidate set sorted by `(ready, submission index)`
/// and returns an index into it; returning 0 everywhere reproduces the
/// default deterministic schedule exactly. The oracle is *not* consulted
/// when only a single op is ready, so a decision sequence indexes exactly
/// the points where the schedule space branches.
pub trait ScheduleOracle {
    fn choose(&mut self, candidates: &[Candidate<'_>]) -> usize;
}

/// Inline-first list: op dependency and footprint sets are almost always
/// tiny, so the builder keeps the first `N` entries on the stack and spills
/// to the heap only past that.
struct SmallList<T: Copy + Default, const N: usize> {
    inline: [T; N],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    fn new() -> Self {
        SmallList {
            inline: [T::default(); N],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = v;
        } else {
            self.spill.push(v);
        }
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.inline[..self.len.min(N)]
            .iter()
            .copied()
            .chain(self.spill.iter().copied())
    }
}

fn default_label(marker: bool) -> Sym {
    static OP: OnceLock<Sym> = OnceLock::new();
    static MARKER: OnceLock<Sym> = OnceLock::new();
    if marker {
        *MARKER.get_or_init(|| intern_static("marker"))
    } else {
        *OP.get_or_init(|| intern_static("op"))
    }
}

/// Description of one operation; build with [`Op::on`] / [`Op::marker`].
pub struct Op {
    engine: Option<EngineId>,
    duration: SimTime,
    not_before: SimTime,
    deps: SmallList<usize, 4>,
    label: Option<Sym>,
    category: Option<Sym>,
    effect: Option<Effect>,
    host_cause: Option<OpId>,
    footprint: SmallList<(u64, bool), 4>,
}

impl Op {
    /// An operation occupying `engine` for `duration`.
    pub fn on(engine: EngineId, duration: SimTime) -> Self {
        Op {
            engine: Some(engine),
            duration,
            not_before: SimTime::ZERO,
            deps: SmallList::new(),
            label: None,
            category: None,
            effect: None,
            host_cause: None,
            footprint: SmallList::new(),
        }
    }

    /// A zero-duration operation bound to no engine; completes as soon as its
    /// dependencies do. Used for events/fences.
    pub fn marker() -> Self {
        Op {
            engine: None,
            duration: SimTime::ZERO,
            not_before: SimTime::ZERO,
            deps: SmallList::new(),
            label: None,
            category: None,
            effect: None,
            host_cause: None,
            footprint: SmallList::new(),
        }
    }

    /// Earliest start (host enqueue time).
    pub fn not_before(mut self, t: SimTime) -> Self {
        self.not_before = t;
        self
    }

    /// Add one dependency.
    pub fn after(mut self, dep: OpId) -> Self {
        self.deps.push(dep.0);
        self
    }

    /// Add dependencies.
    pub fn after_all(mut self, deps: impl IntoIterator<Item = OpId>) -> Self {
        for d in deps {
            self.deps.push(d.0);
        }
        self
    }

    /// Label shown in traces. Anything stringy converts ([`Sym`] itself is
    /// the allocation-free fast path — see [`crate::intern`]).
    pub fn label(mut self, label: impl Into<Sym>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Trace category (e.g. `h2d`, `kernel`, `host`).
    pub fn category(mut self, category: impl Into<Sym>) -> Self {
        self.category = Some(category.into());
        self
    }

    /// Data effect applied at execution.
    pub fn effect(mut self, f: impl FnOnce() + 'static) -> Self {
        self.effect = Some(Box::new(f));
        self
    }

    /// Attribute this op's `not_before` to a host stall on `op` (the host
    /// blocked on it before enqueueing this). Purely for critical-path
    /// attribution; no timing effect.
    pub fn host_cause(mut self, op: Option<OpId>) -> Self {
        self.host_cause = op;
        self
    }

    /// Declare that this op reads (`write == false`) or writes
    /// (`write == true`) the abstract resource `resource`. Footprints feed
    /// the [`ScheduleOracle`] independence relation (DPOR): two ops on
    /// different engines whose footprints share no resource with a write on
    /// either side commute, so explorers may prune one of their orders.
    /// Footprints have no effect on scheduling itself.
    pub fn touches(mut self, resource: u64, write: bool) -> Self {
        self.footprint.push((resource, write));
        self
    }
}

/// An engine's server slots: `servers[base..base + capacity]`.
#[derive(Clone, Copy)]
struct Engine {
    base: usize,
    capacity: usize,
}

/// One server slot of an engine.
#[derive(Clone, Copy)]
struct Server {
    /// Earliest time the slot becomes free.
    free: SimTime,
    /// Last op executed on it (for critical-path attribution).
    last: Option<usize>,
}

/// Initial arena sizes for [`Scheduler::new`]. A schedule explorer builds a
/// fresh small system per explored schedule, so starting the arenas at a
/// small program's size spares each one the early doublings; larger
/// programs grow past them as before.
const ENGINES_HINT: usize = 8;
const OPS_HINT: usize = 32;

/// Footprint arena size below which it is never compacted.
const FP_COMPACT_MIN: usize = 1024;

/// Sentinel for "no entry" in the edge arena and the free lists.
const NO_EDGE: u32 = u32::MAX;

/// Records per history page (64 KiB). Pages are allocated whole and never
/// move, so the history grows by exactly one record per op.
const PAGE: usize = 2048;

/// What a submitted op needs until it executes. Slots are reused through
/// an intrusive free list once their op has run.
struct Slot {
    /// The op occupying the slot.
    op: usize,
    engine: Option<EngineId>,
    duration: SimTime,
    remaining_deps: u32,
    /// Head of this op's dependents chain in [`Scheduler::edges`]; while
    /// the slot is free, the next free slot.
    dependents_head: u32,
    /// max(not_before, ends of resolved deps so far).
    ready_time: SimTime,
    /// The dependency whose completion set `ready_time` (None when bound by
    /// `not_before`, i.e. the host).
    binding_dep: Option<usize>,
    effect: Option<Effect>,
    host_cause: Option<OpId>,
    /// Footprint slice in [`Scheduler::fp_arena`] (empty once executed).
    fp_start: u32,
    fp_len: u32,
}

/// Tag of a pending op in [`Record::state`]; executed ops carry a
/// [`Bound`] tag (1..=4) instead.
const PENDING: u64 = 0;
const TAG_SHIFT: u32 = 61;
const ID_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// What the scheduler keeps of every op it was ever given: 32 bytes.
#[derive(Clone, Copy)]
struct Record {
    /// Start time in ns once executed; the op's slot index while pending.
    start: u64,
    /// End time in ns once executed.
    end: u64,
    /// The tag (top 3 bits: [`PENDING`] or a [`Bound`] variant) and the
    /// bound's op index (low 61 bits).
    state: u64,
    label: Sym,
    category: Sym,
}

const _: () = assert!(std::mem::size_of::<Record>() == 32);

impl Record {
    fn executed(&self) -> bool {
        self.state >> TAG_SHIFT != PENDING
    }

    fn slot(&self) -> usize {
        debug_assert!(!self.executed());
        self.start as usize
    }

    fn bound(&self) -> Bound {
        let id = OpId((self.state & ID_MASK) as usize);
        match self.state >> TAG_SHIFT {
            1 => Bound::Host,
            2 => Bound::HostAfter(id),
            3 => Bound::Dependency(id),
            4 => Bound::Engine(id),
            _ => unreachable!("pending op has no bound"),
        }
    }
}

fn pack_bound(b: Bound) -> u64 {
    let (tag, OpId(id)) = match b {
        Bound::Host => (1, OpId(0)),
        Bound::HostAfter(d) => (2, d),
        Bound::Dependency(d) => (3, d),
        Bound::Engine(d) => (4, d),
    };
    (tag << TAG_SHIFT) | id as u64
}

/// Every op's [`Record`], in submission order, in fixed-size pages. The
/// first page starts small and grows (a schedule explorer's programs fit
/// in it); later pages are allocated whole, so appending never copies.
#[derive(Default)]
struct History {
    first: Vec<Record>,
    /// Pages past the first, `PAGE` records each.
    more: Vec<Vec<Record>>,
    len: usize,
}

impl History {
    fn push(&mut self, r: Record) {
        if self.len < PAGE {
            self.first.push(r);
        } else {
            if self.len.is_multiple_of(PAGE) {
                self.more.push(Vec::with_capacity(PAGE));
            }
            self.more.last_mut().expect("page pushed above").push(r);
        }
        self.len += 1;
    }

    fn get(&self, i: usize) -> &Record {
        if i < PAGE {
            &self.first[i]
        } else {
            &self.more[i / PAGE - 1][i % PAGE]
        }
    }

    fn get_mut(&mut self, i: usize) -> &mut Record {
        if i < PAGE {
            &mut self.first[i]
        } else {
            &mut self.more[i / PAGE - 1][i % PAGE]
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Record> {
        self.first.iter().chain(self.more.iter().flatten())
    }
}

/// Why an operation started when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Started at its host enqueue time (`not_before`).
    Host,
    /// Started at its host enqueue time, and the host was there because it
    /// had blocked on the given op shortly before.
    HostAfter(OpId),
    /// Waited for a dependency (stream order / event) to complete.
    Dependency(OpId),
    /// Waited for its engine to become free behind another op.
    Engine(OpId),
}

/// One step of a critical path: the op, its timing, and what it waited for.
/// Labels are interned — compare with `==` against other syms or `&str`,
/// resolve with [`Sym::as_str`].
#[derive(Debug, Clone)]
pub struct CriticalStep {
    pub op: OpId,
    pub label: Sym,
    pub category: Sym,
    pub start: SimTime,
    pub end: SimTime,
    pub bound: Bound,
}

/// The list scheduler. See the module docs for the model.
#[derive(Default)]
pub struct Scheduler {
    engines: Vec<Engine>,
    /// Server slots of every engine, in registration order.
    servers: Vec<Server>,
    engine_names: Vec<Sym>,
    /// One record per submitted op, kept for the scheduler's lifetime.
    history: History,
    /// Pending ops' state, indexed by slot; freed slots chain from
    /// `free_slot`.
    slots: Vec<Slot>,
    free_slot: u32,
    /// Ready ops as (ready_time_ns, op_index); min-heap via `Reverse`.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    executed: usize,
    max_end: SimTime,
    /// Op with the latest completion so far.
    last_finished: Option<usize>,
    level: TraceLevel,
    spans: Vec<RawSpan>,
    counters: Vec<EngineCounters>,
    /// Decision points seen so far: pops where >1 op was simultaneously
    /// runnable (the branching points a [`ScheduleOracle`] would be
    /// consulted at), counted whether or not one is installed.
    decision_points: u64,
    /// Footprints of pending ops; slots hold (start, len) slices into it.
    fp_arena: Vec<(u64, bool)>,
    /// Entries of `fp_arena` that belong to pending ops.
    fp_live: usize,
    /// Spare buffer `fp_arena` is compacted into.
    fp_spare: Vec<(u64, bool)>,
    /// Dependents adjacency as a linked edge arena:
    /// `(dependent slot, next edge)` chained from `Slot::dependents_head`.
    /// An executed op's chain is spliced onto `free_edge` for reuse.
    edges: Vec<(u32, u32)>,
    free_edge: u32,
    /// Reused candidate buffer for oracle decision points. Always empty
    /// between decisions, so no borrow outlives one (see [`recycle`]).
    cand_scratch: Vec<Candidate<'static>>,
    /// Admission policy override; `None` keeps the deterministic FIFO order.
    oracle: Option<Rc<RefCell<dyn ScheduleOracle>>>,
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            engines: Vec::with_capacity(ENGINES_HINT),
            servers: Vec::with_capacity(ENGINES_HINT),
            engine_names: Vec::with_capacity(ENGINES_HINT),
            counters: Vec::with_capacity(ENGINES_HINT),
            slots: Vec::with_capacity(OPS_HINT),
            free_slot: NO_EDGE,
            ready: BinaryHeap::with_capacity(OPS_HINT),
            history: History {
                first: Vec::with_capacity(OPS_HINT),
                ..History::default()
            },
            fp_arena: Vec::with_capacity(OPS_HINT),
            edges: Vec::with_capacity(OPS_HINT),
            free_edge: NO_EDGE,
            ..Self::default()
        }
    }

    /// Register an engine with `capacity` parallel servers (>= 1).
    pub fn add_engine(&mut self, name: impl Into<Sym>, capacity: usize) -> EngineId {
        assert!(capacity >= 1, "engine capacity must be at least 1");
        self.engines.push(Engine {
            base: self.servers.len(),
            capacity,
        });
        self.servers.extend(std::iter::repeat_n(
            Server {
                free: SimTime::ZERO,
                last: None,
            },
            capacity,
        ));
        self.engine_names.push(name.into());
        self.counters.push(EngineCounters::default());
        EngineId(self.engines.len() - 1)
    }

    /// Set how much execution history is recorded. Levels only change what
    /// is *recorded* — timing, effects and schedule are identical at every
    /// level.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.level = level;
    }

    /// Current trace level.
    pub fn trace_level(&self) -> TraceLevel {
        self.level
    }

    /// Enable or disable span recording. Compatibility wrapper:
    /// `true` = [`TraceLevel::Full`], `false` = [`TraceLevel::Off`].
    pub fn set_tracing(&mut self, on: bool) {
        self.level = if on {
            TraceLevel::Full
        } else {
            TraceLevel::Off
        };
    }

    pub fn tracing(&self) -> bool {
        self.level == TraceLevel::Full
    }

    /// Install (or clear) a [`ScheduleOracle`]. With `None` — the default —
    /// ready ops are admitted in `(ready, submission)` order and the
    /// schedule is fully deterministic.
    pub fn set_oracle(&mut self, oracle: Option<Rc<RefCell<dyn ScheduleOracle>>>) {
        self.oracle = oracle;
    }

    /// Whether an oracle is currently installed.
    pub fn has_oracle(&self) -> bool {
        self.oracle.is_some()
    }

    /// Submit an operation. Dependencies must refer to already-submitted ops.
    pub fn submit(&mut self, op: Op) -> OpId {
        let id = self.history.len;
        if let Some(EngineId(e)) = op.engine {
            assert!(e < self.engines.len(), "unknown engine {e}");
        }
        let slot = match self.free_slot {
            NO_EDGE => self.slots.len(),
            free => free as usize,
        };
        let mut ready_time = op.not_before;
        let mut binding_dep = None;
        let mut remaining = 0u32;
        for d in op.deps.iter() {
            assert!(d < id, "op {id} depends on not-yet-submitted op {d}");
            let rec = self.history.get(d);
            if rec.executed() {
                let end = SimTime::from_ns(rec.end);
                if end > ready_time || (end == ready_time && binding_dep.is_none()) {
                    ready_time = end;
                    binding_dep = Some(d);
                }
            } else {
                let ds = rec.slot();
                let next = self.slots[ds].dependents_head;
                let edge = match self.free_edge {
                    NO_EDGE => {
                        self.edges.push((slot as u32, next));
                        self.edges.len() - 1
                    }
                    free => {
                        self.free_edge = self.edges[free as usize].1;
                        self.edges[free as usize] = (slot as u32, next);
                        free as usize
                    }
                };
                self.slots[ds].dependents_head = edge as u32;
                remaining += 1;
            }
        }
        if self.fp_arena.len() >= FP_COMPACT_MIN && self.fp_arena.len() >= 2 * self.fp_live {
            self.compact_footprints();
        }
        let fp_start = self.fp_arena.len() as u32;
        for f in op.footprint.iter() {
            self.fp_arena.push(f);
        }
        let fp_len = self.fp_arena.len() as u32 - fp_start;
        self.fp_live += fp_len as usize;
        let marker = op.engine.is_none();
        self.history.push(Record {
            start: slot as u64,
            end: 0,
            state: PENDING,
            label: op.label.unwrap_or_else(|| default_label(marker)),
            category: op.category.unwrap_or_else(|| default_label(marker)),
        });
        let pending = Slot {
            op: id,
            engine: op.engine,
            duration: op.duration,
            remaining_deps: remaining,
            dependents_head: NO_EDGE,
            ready_time,
            binding_dep,
            effect: op.effect,
            host_cause: op.host_cause,
            fp_start,
            fp_len,
        };
        if slot == self.slots.len() {
            self.slots.push(pending);
        } else {
            self.free_slot = self.slots[slot].dependents_head;
            self.slots[slot] = pending;
        }
        if remaining == 0 {
            self.ready.push(Reverse((ready_time.as_ns(), id)));
        }
        OpId(id)
    }

    /// Move the footprints of pending ops to the front of a fresh arena,
    /// dropping those of executed ops (the slots of executed ops have
    /// empty slices).
    fn compact_footprints(&mut self) {
        let mut packed = std::mem::take(&mut self.fp_spare);
        packed.clear();
        for slot in &mut self.slots {
            let (start, len) = (slot.fp_start as usize, slot.fp_len as usize);
            slot.fp_start = packed.len() as u32;
            packed.extend_from_slice(&self.fp_arena[start..start + len]);
        }
        self.fp_spare = std::mem::replace(&mut self.fp_arena, packed);
    }

    /// Completion time, if the op has executed.
    pub fn completion(&self, OpId(id): OpId) -> Option<SimTime> {
        let rec = self.history.get(id);
        rec.executed().then(|| SimTime::from_ns(rec.end))
    }

    /// Start time, if the op has executed.
    pub fn start_of(&self, OpId(id): OpId) -> Option<SimTime> {
        let rec = self.history.get(id);
        rec.executed().then(|| SimTime::from_ns(rec.start))
    }

    /// Number of operations executed so far.
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Number of operations submitted so far.
    pub fn submitted(&self) -> usize {
        self.history.len
    }

    /// Latest completion time over all executed operations.
    pub fn max_end(&self) -> SimTime {
        self.max_end
    }

    /// The operation with the latest completion so far.
    pub fn last_finished(&self) -> Option<OpId> {
        self.last_finished.map(OpId)
    }

    /// Decision points encountered so far: pops at which more than one op
    /// was simultaneously runnable. This is the denominator of the
    /// `ns/decision-point` throughput metric and the length of a schedule
    /// explorer's decision sequence.
    pub fn decision_points(&self) -> u64 {
        self.decision_points
    }

    /// Per-engine tallies (zeroed at [`TraceLevel::Off`]).
    pub fn engine_counters(&self) -> &[EngineCounters] {
        &self.counters
    }

    /// Pop the next op to admit. FIFO `(ready, submission)` order without an
    /// oracle; otherwise the full ready set is presented to the oracle as a
    /// decision point (skipped when it is a singleton — no branching there).
    fn pop_next(&mut self) -> Option<usize> {
        let runnable = self.ready.len();
        if runnable == 0 {
            return None;
        }
        if runnable > 1 {
            self.decision_points += 1;
        }
        let oracle = match &self.oracle {
            // Fast path: no oracle, or no branching — a plain heap pop.
            None => return self.ready.pop().map(|Reverse((_, idx))| idx),
            Some(_) if runnable == 1 => return self.ready.pop().map(|Reverse((_, idx))| idx),
            Some(o) => Rc::clone(o),
        };
        // Real decision point: materialize the sorted candidate view.
        // Heap pops come out in exactly the (ready, submission) order the
        // oracle contract promises. The view borrows slots in place, and
        // its buffer is reused across decisions.
        let mut view = recycle(std::mem::take(&mut self.cand_scratch));
        while let Some(Reverse((ns, i))) = self.ready.pop() {
            let rec = self.history.get(i);
            let o = &self.slots[rec.slot()];
            view.push(Candidate {
                op: OpId(i),
                ready: SimTime::from_ns(ns),
                engine: o.engine,
                label: rec.label,
                category: rec.category,
                footprint: &self.fp_arena[o.fp_start as usize..(o.fp_start + o.fp_len) as usize],
            });
        }
        let choice = oracle.borrow_mut().choose(&view);
        assert!(
            choice < view.len(),
            "oracle chose {choice} of {}",
            view.len()
        );
        let idx = view[choice].op.0;
        for c in view.iter().filter(|c| c.op.0 != idx) {
            self.ready.push(Reverse((c.ready.as_ns(), c.op.0)));
        }
        self.cand_scratch = recycle(view);
        Some(idx)
    }

    /// Execute one ready operation. Returns `false` when nothing is ready.
    fn step(&mut self) -> bool {
        let Some(idx) = self.pop_next() else {
            return false;
        };
        let s = self.history.get(idx).slot();
        let Slot {
            engine,
            duration,
            ready_time,
            binding_dep,
            host_cause,
            ..
        } = self.slots[s];
        let (start, server) = match engine {
            None => (ready_time, 0),
            Some(EngineId(e)) => {
                let Engine { base, capacity } = self.engines[e];
                let (srv, slot) = self.servers[base..base + capacity]
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, s)| (s.free, *i))
                    .expect("engine has at least one server");
                (ready_time.max(slot.free), srv)
            }
        };
        let end = start + duration;
        // Attribute the delay: engine contention, a dependency, or the host.
        let bound = match engine {
            Some(EngineId(e)) if start > ready_time => {
                match self.servers[self.engines[e].base + server].last {
                    Some(prev) => Bound::Engine(OpId(prev)),
                    None => Bound::Host,
                }
            }
            _ => match binding_dep {
                Some(d) => Bound::Dependency(OpId(d)),
                None => match host_cause {
                    Some(c) => Bound::HostAfter(c),
                    None => Bound::Host,
                },
            },
        };
        let rec = self.history.get_mut(idx);
        rec.start = start.as_ns();
        rec.end = end.as_ns();
        rec.state = pack_bound(bound);
        let (label, category) = (rec.label, rec.category);
        if let Some(EngineId(e)) = engine {
            self.servers[self.engines[e].base + server] = Server {
                free: end,
                last: Some(idx),
            };
            if self.level >= TraceLevel::Counters {
                self.counters[e].ops += 1;
                self.counters[e].busy_ns += duration.as_ns();
            }
            if self.level == TraceLevel::Full {
                self.spans.push(RawSpan {
                    engine: e as u32,
                    server: server as u32,
                    label,
                    category,
                    start,
                    end,
                    seq: idx as u64,
                });
            }
        }
        if end >= self.max_end {
            self.max_end = end;
            self.last_finished = Some(idx);
        }
        self.executed += 1;

        // The op has run: its slot goes back on the free list.
        let slot = &mut self.slots[s];
        self.fp_live -= slot.fp_len as usize;
        slot.fp_len = 0;
        let effect = slot.effect.take();
        let mut edge = slot.dependents_head;
        slot.dependents_head = self.free_slot;
        self.free_slot = s as u32;

        if let Some(effect) = effect {
            effect();
        }

        // Resolve dependents along the edge chain, returning each edge to
        // the free list. Chain order is reverse submission order, which is
        // irrelevant: each dependent's update is independent, and the ready
        // heap orders by (ready, submission).
        while edge != NO_EDGE {
            let (dep, next) = self.edges[edge as usize];
            let node = &mut self.slots[dep as usize];
            if end > node.ready_time || (end == node.ready_time && node.binding_dep.is_none()) {
                node.ready_time = end;
                node.binding_dep = Some(idx);
            }
            node.remaining_deps -= 1;
            if node.remaining_deps == 0 {
                self.ready.push(Reverse((node.ready_time.as_ns(), node.op)));
            }
            self.edges[edge as usize].1 = self.free_edge;
            self.free_edge = edge;
            edge = next;
        }
        true
    }

    /// The chain of operations that determined the makespan, latest first:
    /// start from the op that finished last, then repeatedly follow whatever
    /// it waited for (a dependency or the op ahead of it on its engine)
    /// until an op that started at its host enqueue time.
    ///
    /// Call after [`Scheduler::run_all`]. Empty if nothing executed.
    pub fn critical_path(&self) -> Vec<CriticalStep> {
        let mut cur = self
            .history
            .iter()
            .enumerate()
            .filter(|(_, r)| r.executed())
            .max_by_key(|(i, r)| (r.end, *i))
            .map(|(i, _)| i);
        let mut path = Vec::new();
        while let Some(i) = cur {
            let r = self.history.get(i);
            let bound = r.bound();
            path.push(CriticalStep {
                op: OpId(i),
                label: r.label,
                category: r.category,
                start: SimTime::from_ns(r.start),
                end: SimTime::from_ns(r.end),
                bound,
            });
            cur = match bound {
                Bound::Host => None,
                Bound::HostAfter(OpId(d)) | Bound::Dependency(OpId(d)) | Bound::Engine(OpId(d)) => {
                    Some(d)
                }
            };
        }
        path
    }

    /// Execute until `op` has completed; returns its completion time.
    ///
    /// Panics if `op` can never complete (which cannot happen for ops built
    /// from already-submitted dependencies).
    pub fn run_until(&mut self, op: OpId) -> SimTime {
        loop {
            if let Some(end) = self.completion(op) {
                return end;
            }
            assert!(self.step(), "deadlock: op {} not reachable", op.0);
        }
    }

    /// Execute every submitted operation; returns the makespan.
    pub fn run_all(&mut self) -> SimTime {
        while self.step() {}
        assert_eq!(
            self.executed, self.history.len,
            "internal error: ops stranded with unresolved dependencies"
        );
        self.max_end
    }

    /// The spans recorded so far as stored — interned labels, no string
    /// materialization. Empty unless the level is [`TraceLevel::Full`].
    pub fn raw_spans(&self) -> &[RawSpan] {
        &self.spans
    }

    /// The trace recorded so far (empty unless the level is
    /// [`TraceLevel::Full`]). Materializes label strings; use
    /// [`Scheduler::raw_spans`] on hot paths.
    pub fn trace(&self) -> Trace {
        Trace {
            engine_names: self
                .engine_names
                .iter()
                .map(|n| n.as_str().to_string())
                .collect(),
            spans: self.spans.iter().map(span_of_raw).collect(),
        }
    }
}

/// Empty a candidate buffer and hand back its allocation under a new
/// lifetime. `Vec`'s in-place `into_iter().map().collect()` keeps the
/// allocation because both element types have the same layout, and the
/// buffer holds no element, so no borrow crosses lifetimes.
fn recycle<'b>(mut v: Vec<Candidate<'_>>) -> Vec<Candidate<'b>> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("buffer is empty"))
        .collect()
}

/// Materialize one stored span into the public string-labelled form.
pub fn span_of_raw(r: &RawSpan) -> Span {
    Span {
        engine: r.engine as usize,
        server: r.server as usize,
        label: r.label.as_str().to_string(),
        category: r.category.as_str().to_string(),
        start: r.start,
        end: r.end,
        seq: r.seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn single_op_runs_at_not_before() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let op = s.submit(Op::on(e, ns(10)).not_before(ns(5)));
        assert_eq!(s.run_until(op), ns(15));
        assert_eq!(s.start_of(op), Some(ns(5)));
    }

    #[test]
    fn fifo_on_capacity_one_engine() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let a = s.submit(Op::on(e, ns(10)));
        let b = s.submit(Op::on(e, ns(10)));
        s.run_all();
        assert_eq!(s.completion(a), Some(ns(10)));
        assert_eq!(s.completion(b), Some(ns(20)));
    }

    #[test]
    fn capacity_two_runs_in_parallel() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 2);
        let a = s.submit(Op::on(e, ns(10)));
        let b = s.submit(Op::on(e, ns(10)));
        let c = s.submit(Op::on(e, ns(10)));
        assert_eq!(s.run_all(), ns(20));
        assert_eq!(s.completion(a), Some(ns(10)));
        assert_eq!(s.completion(b), Some(ns(10)));
        assert_eq!(s.completion(c), Some(ns(20)));
    }

    #[test]
    fn dependencies_serialize_across_engines() {
        let mut s = Scheduler::new();
        let e1 = s.add_engine("copy", 1);
        let e2 = s.add_engine("compute", 1);
        let copy = s.submit(Op::on(e1, ns(100)));
        let kernel = s.submit(Op::on(e2, ns(50)).after(copy));
        assert_eq!(s.run_until(kernel), ns(150));
    }

    #[test]
    fn independent_engines_overlap() {
        let mut s = Scheduler::new();
        let e1 = s.add_engine("copy", 1);
        let e2 = s.add_engine("compute", 1);
        s.submit(Op::on(e1, ns(100)));
        s.submit(Op::on(e2, ns(100)));
        assert_eq!(s.run_all(), ns(100));
    }

    #[test]
    fn marker_completes_with_deps() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let a = s.submit(Op::on(e, ns(10)));
        let b = s.submit(Op::on(e, ns(20)));
        let m = s.submit(Op::marker().after(a).after(b));
        assert_eq!(s.run_until(m), ns(30));
    }

    #[test]
    fn effects_apply_in_dependency_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let l1 = log.clone();
        let a = s.submit(Op::on(e, ns(10)).effect(move || l1.borrow_mut().push("a")));
        let l2 = log.clone();
        let _b = s.submit(
            Op::on(e, ns(10))
                .after(a)
                .effect(move || l2.borrow_mut().push("b")),
        );
        s.run_all();
        assert_eq!(*log.borrow(), vec!["a", "b"]);
    }

    #[test]
    fn run_until_is_partial() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let a = s.submit(Op::on(e, ns(10)));
        let b = s.submit(Op::on(e, ns(10)));
        s.run_until(a);
        assert_eq!(s.completion(a), Some(ns(10)));
        // b may or may not have run; run_all finishes it.
        s.run_all();
        assert_eq!(s.completion(b), Some(ns(20)));
    }

    #[test]
    fn incremental_submission_after_running() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let a = s.submit(Op::on(e, ns(10)));
        s.run_all();
        // Submit an op depending on an already-finished one.
        let b = s.submit(Op::on(e, ns(5)).after(a).not_before(ns(100)));
        assert_eq!(s.run_until(b), ns(105));
    }

    #[test]
    fn ready_order_breaks_ties_by_submission() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let a = s.submit(Op::on(e, ns(10)).label("first"));
        let b = s.submit(Op::on(e, ns(10)).label("second"));
        s.set_tracing(true);
        // Both ready at t=0: submission order wins.
        s.run_all();
        assert!(s.start_of(a).unwrap() < s.start_of(b).unwrap());
    }

    #[test]
    fn tracing_records_spans() {
        let mut s = Scheduler::new();
        let e = s.add_engine("copy", 1);
        s.set_tracing(true);
        s.submit(Op::on(e, ns(10)).label("H2D:R0").category("h2d"));
        s.run_all();
        let t = s.trace();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].label, "H2D:R0");
        assert_eq!(t.spans[0].category, "h2d");
        assert_eq!(t.engine_names, vec!["copy".to_string()]);
    }

    #[test]
    fn no_tracing_no_spans() {
        let mut s = Scheduler::new();
        let e = s.add_engine("copy", 1);
        s.submit(Op::on(e, ns(10)));
        s.run_all();
        assert!(s.trace().spans.is_empty());
    }

    #[test]
    fn counters_level_tallies_without_spans() {
        let mut s = Scheduler::new();
        let e = s.add_engine("copy", 1);
        s.set_trace_level(TraceLevel::Counters);
        s.submit(Op::on(e, ns(10)));
        s.submit(Op::on(e, ns(5)));
        s.submit(Op::marker());
        s.run_all();
        assert!(s.raw_spans().is_empty());
        assert_eq!(
            s.engine_counters()[0],
            EngineCounters {
                ops: 2,
                busy_ns: 15
            }
        );
    }

    #[test]
    fn full_level_tallies_and_records() {
        let mut s = Scheduler::new();
        let e = s.add_engine("copy", 1);
        s.set_trace_level(TraceLevel::Full);
        s.submit(Op::on(e, ns(10)));
        s.run_all();
        assert_eq!(s.raw_spans().len(), 1);
        assert_eq!(
            s.engine_counters()[0],
            EngineCounters {
                ops: 1,
                busy_ns: 10
            }
        );
    }

    #[test]
    fn trace_levels_do_not_change_timing() {
        let run = |level: TraceLevel| {
            let mut s = Scheduler::new();
            let e = s.add_engine("e", 2);
            s.set_trace_level(level);
            let a = s.submit(Op::on(e, ns(10)));
            let b = s.submit(Op::on(e, ns(20)));
            let c = s.submit(Op::on(e, ns(5)).after(a).after(b));
            s.run_all();
            (
                s.completion(a),
                s.completion(b),
                s.completion(c),
                s.max_end(),
                s.decision_points(),
            )
        };
        let full = run(TraceLevel::Full);
        assert_eq!(run(TraceLevel::Off), full);
        assert_eq!(run(TraceLevel::Counters), full);
    }

    #[test]
    fn decision_points_count_branching_pops() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        // a and b ready together: one decision point; c waits on a, so its
        // pop is a singleton.
        let a = s.submit(Op::on(e, ns(10)));
        let b = s.submit(Op::on(e, ns(10)));
        let c = s.submit(Op::on(e, ns(10)).after(a).after(b));
        s.run_all();
        assert_eq!(s.decision_points(), 1);
        let _ = (b, c);
    }

    #[test]
    #[should_panic(expected = "not-yet-submitted")]
    fn forward_dependency_panics() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        s.submit(Op::on(e, ns(10)).after(OpId(5)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_engine_panics() {
        Scheduler::new().add_engine("bad", 0);
    }

    #[test]
    fn diamond_dependency() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 4);
        let a = s.submit(Op::on(e, ns(10)));
        let b = s.submit(Op::on(e, ns(20)).after(a));
        let c = s.submit(Op::on(e, ns(30)).after(a));
        let d = s.submit(Op::on(e, ns(5)).after(b).after(c));
        assert_eq!(s.run_until(d), ns(45)); // 10 + 30 + 5
    }

    #[test]
    fn many_deps_spill_past_inline_capacity() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 8);
        let pre: Vec<OpId> = (0..7).map(|i| s.submit(Op::on(e, ns(10 + i)))).collect();
        let gather = s.submit(
            Op::marker()
                .after_all(pre.iter().copied())
                .touches(1, false)
                .touches(2, false)
                .touches(3, false)
                .touches(4, true)
                .touches(5, true)
                .touches(6, false),
        );
        assert_eq!(s.run_until(gather), ns(16));
    }

    #[test]
    fn critical_path_follows_dependency_chain() {
        let mut s = Scheduler::new();
        let copy = s.add_engine("copy", 1);
        let comp = s.add_engine("compute", 1);
        let a = s.submit(Op::on(copy, ns(100)).label("h2d"));
        let b = s.submit(Op::on(comp, ns(50)).after(a).label("kernel"));
        let c = s.submit(Op::on(copy, ns(30)).after(b).label("d2h"));
        s.run_all();
        let path = s.critical_path();
        let labels: Vec<&str> = path.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["d2h", "kernel", "h2d"]);
        assert_eq!(path[0].bound, Bound::Dependency(b));
        assert_eq!(path[1].bound, Bound::Dependency(a));
        assert_eq!(path[2].bound, Bound::Host);
        // The path covers the makespan with no gaps (chained ops abut).
        assert_eq!(path[0].end, SimTime::from_ns(180));
        let _ = c;
    }

    #[test]
    fn critical_path_attributes_engine_contention() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let a = s.submit(Op::on(e, ns(100)).label("first"));
        let b = s.submit(Op::on(e, ns(10)).label("second"));
        s.run_all();
        let path = s.critical_path();
        assert_eq!(path[0].label, "second");
        assert_eq!(path[0].bound, Bound::Engine(a));
        assert_eq!(path[1].label, "first");
        let _ = b;
    }

    #[test]
    fn critical_path_empty_before_running() {
        let s = Scheduler::new();
        assert!(s.critical_path().is_empty());
    }

    #[test]
    fn counts_track_submission_and_execution() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        s.submit(Op::on(e, ns(1)));
        s.submit(Op::on(e, ns(1)));
        assert_eq!(s.submitted(), 2);
        assert_eq!(s.executed(), 0);
        s.run_all();
        assert_eq!(s.executed(), 2);
    }

    /// Oracle that always picks a fixed index (clamped) and logs the
    /// candidate sets it saw.
    struct Fixed {
        pick: usize,
        seen: Rc<RefCell<Vec<Vec<usize>>>>,
    }

    impl ScheduleOracle for Fixed {
        fn choose(&mut self, candidates: &[Candidate<'_>]) -> usize {
            self.seen
                .borrow_mut()
                .push(candidates.iter().map(|c| c.op.0).collect());
            self.pick.min(candidates.len() - 1)
        }
    }

    fn with_fixed(s: &mut Scheduler, pick: usize) -> Rc<RefCell<Vec<Vec<usize>>>> {
        let seen = Rc::new(RefCell::new(Vec::new()));
        s.set_oracle(Some(Rc::new(RefCell::new(Fixed {
            pick,
            seen: seen.clone(),
        }))));
        seen
    }

    #[test]
    fn oracle_choice_zero_reproduces_fifo() {
        let run = |oracle: bool| {
            let mut s = Scheduler::new();
            let e = s.add_engine("e", 1);
            if oracle {
                with_fixed(&mut s, 0);
            }
            let a = s.submit(Op::on(e, ns(10)));
            let b = s.submit(Op::on(e, ns(20)));
            let c = s.submit(Op::on(e, ns(5)).after(a));
            s.run_all();
            (s.completion(a), s.completion(b), s.completion(c))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn oracle_reorders_engine_admission() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let seen = with_fixed(&mut s, 1);
        let a = s.submit(Op::on(e, ns(10)).label("first"));
        let b = s.submit(Op::on(e, ns(10)).label("second"));
        s.run_all();
        // The oracle admitted b first, so it completes first.
        assert_eq!(s.completion(b), Some(ns(10)));
        assert_eq!(s.completion(a), Some(ns(20)));
        // Exactly one decision point: {a, b}; after removing b only a is
        // ready, which is not a decision.
        assert_eq!(*seen.borrow(), vec![vec![a.0, b.0]]);
        assert_eq!(s.decision_points(), 1);
    }

    #[test]
    fn oracle_not_consulted_for_singletons() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let seen = with_fixed(&mut s, 0);
        let a = s.submit(Op::on(e, ns(10)));
        let b = s.submit(Op::on(e, ns(10)).after(a));
        s.run_all();
        assert!(seen.borrow().is_empty());
        assert_eq!(s.completion(b), Some(ns(20)));
    }

    #[test]
    fn oracle_sees_footprints_sorted_fifo_first() {
        struct Probe;
        impl ScheduleOracle for Probe {
            fn choose(&mut self, candidates: &[Candidate<'_>]) -> usize {
                assert_eq!(candidates.len(), 2);
                // Sorted by (ready, submission): the earlier submission is
                // index 0, carrying its declared footprint.
                assert!(candidates[0].op < candidates[1].op);
                assert_eq!(candidates[0].footprint, &[(7, false)]);
                assert_eq!(candidates[1].footprint, &[(7, true), (9, false)]);
                assert_eq!(candidates[0].label, "rd");
                0
            }
        }
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 2);
        s.set_oracle(Some(Rc::new(RefCell::new(Probe))));
        s.submit(Op::on(e, ns(10)).label("rd").touches(7, false));
        s.submit(Op::on(e, ns(10)).touches(7, true).touches(9, false));
        s.run_all();
    }

    #[test]
    fn footprints_survive_arena_compaction() {
        // Candidates' footprints must stay their own across the footprint
        // arena's compactions, long after the ops before them executed.
        struct Check(u64);
        impl ScheduleOracle for Check {
            fn choose(&mut self, candidates: &[Candidate<'_>]) -> usize {
                for c in candidates {
                    let id = c.op.0 as u64;
                    assert_eq!(c.footprint, &[(id, id.is_multiple_of(2)), (id + 1, false)]);
                }
                self.0 += 1;
                (self.0 % 2) as usize
            }
        }
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let check = Rc::new(RefCell::new(Check(0)));
        s.set_oracle(Some(check.clone()));
        let n = 4 * FP_COMPACT_MIN;
        for i in 0..n as u64 {
            let op = s.submit(
                Op::on(e, ns(1))
                    .touches(i, i.is_multiple_of(2))
                    .touches(i + 1, false),
            );
            if i % 8 == 7 {
                s.run_until(op);
            }
        }
        s.run_all();
        assert!(check.borrow().0 > 100, "{} decisions", check.borrow().0);
        assert!(s.fp_arena.capacity() < n, "the arena was compacted");
    }

    #[test]
    fn oracle_may_admit_later_ready_op_first() {
        // b becomes ready (not_before) later than a, but the oracle admits
        // it first; the engine then serves a behind it.
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        with_fixed(&mut s, 1);
        let a = s.submit(Op::on(e, ns(10)));
        let b = s.submit(Op::on(e, ns(10)).not_before(ns(100)));
        s.run_all();
        assert_eq!(s.start_of(b), Some(ns(100)));
        assert_eq!(s.completion(a), Some(ns(120)));
    }

    #[test]
    fn clearing_oracle_restores_fifo() {
        let mut s = Scheduler::new();
        let e = s.add_engine("e", 1);
        let seen = with_fixed(&mut s, 1);
        s.set_oracle(None);
        assert!(!s.has_oracle());
        let a = s.submit(Op::on(e, ns(10)));
        let b = s.submit(Op::on(e, ns(10)));
        s.run_all();
        assert!(seen.borrow().is_empty());
        assert!(s.start_of(a).unwrap() < s.start_of(b).unwrap());
    }
}
