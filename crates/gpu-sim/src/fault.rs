//! Deterministic fault injection for the simulated platform.
//!
//! A [`FaultPlan`] describes — from a single seed — which transfer attempts
//! fail, which device allocations are refused, when streams stall, and when
//! the interconnect degrades. Every decision is a pure function of the plan
//! and a per-lane attempt ordinal, so a faulty run is exactly as
//! reproducible as a fault-free one: same plan, same program, same schedule.
//!
//! The plan is carried by [`crate::MachineConfig`] (so experiment configs
//! serialize it alongside the cost model) and evaluated by
//! [`crate::GpuSystem`] at enqueue time:
//!
//! * a **transient** transfer fault makes one attempt occupy its DMA engine
//!   for a fraction of the nominal time, move no data, and be reported
//!   through [`crate::GpuSystem::op_faulted`] — the caller retries;
//! * a **persistent** fault (`fail_after`) makes every later attempt on that
//!   lane fail — callers must degrade (the TiDA-acc runtime falls back to
//!   the host path, salvaging dirty regions through the fault-exempt
//!   [`crate::GpuSystem::memcpy_d2h_salvage`]);
//! * an **allocation** fault makes the n-th `malloc_device` return
//!   `OutOfDeviceMemory` (a `cudaMalloc` failure mid-run);
//! * a **stall** occupies a stream's DMA engine before a transfer starts
//!   (driver hiccup, ECC scrub);
//! * a **degrade window** multiplies the duration of transfers enqueued
//!   while the window is open (link retraining, neighbour traffic);
//! * a **crash** kills the whole platform at a seeded point (the n-th
//!   transfer or kernel, or a virtual-time threshold): the triggering
//!   operation dies mid-flight, every later submission is refused, and
//!   [`crate::GpuSystem::crashed`] reports the death — recovery means
//!   discarding the instance and restoring a checkpoint;
//! * a **livelock** wedges one stream: past a seeded point its transfers
//!   are accepted and occupy the engine for an enormous horizon but never
//!   move data — unlike a stall they never resolve, so only a watchdog
//!   comparing virtual time against progress can catch them.
//!
//! `FaultPlan::none()` disables everything; the simulator's fast paths are
//! bit-identical with the layer present but disabled.

use desim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a hash to a uniform `f64` in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Transfer lanes a fault decision can apply to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    H2d,
    D2h,
}

impl Lane {
    fn tag(self) -> u64 {
        match self {
            Lane::H2d => 0x4832_4400,
            Lane::D2h => 0x4432_4800,
        }
    }
}

/// Salt separating corruption draws from transfer-fault draws on the same
/// (seed, lane, ordinal) stream.
const CORRUPT_SALT: u64 = 0x434f_5252;

/// Salt separating per-device ECC-error draws from every other seeded
/// stream.
const ECC_SALT: u64 = 0x4543_4343;

/// Seeded silent-corruption injection (a non-ECC DRAM model).
///
/// Unlike [`TransferFaults`], a corrupted operation *completes normally* —
/// no error surfaces, the engine reports success, and the data is simply
/// wrong. Only end-to-end digest verification can catch it:
///
/// * an **in-flight** flip corrupts one bit of a H2D/D2H payload on the
///   bus; the integrity layer detects the digest mismatch at completion
///   and retransmits from the authoritative side, bounded by
///   [`CorruptionFault::max_retransmits`] (each retransmit re-occupies the
///   DMA engine for the nominal transfer time);
/// * a **resident strike** flips a bit in data already sitting in device
///   DRAM — after the n-th H2D lands (clean data; the host copy is still
///   authoritative, so the next consumer repairs it) or after the n-th
///   kernel writes (dirty data; the host copy is stale, so the poison can
///   only be cured by a checkpoint restore).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorruptionFault {
    /// Probability in `[0, 1]` that one H2D copy attempt is corrupted
    /// in flight.
    pub h2d_rate: f64,
    /// Probability in `[0, 1]` that one D2H copy attempt is corrupted
    /// in flight.
    pub d2h_rate: f64,
    /// 0-based H2D attempt ordinals whose *landed* device data is struck
    /// after verification (clean resident corruption).
    pub strike_after_h2d: Vec<u64>,
    /// 0-based kernel-launch ordinals whose first written device buffer is
    /// struck after execution (dirty resident corruption).
    pub strike_after_kernel: Vec<u64>,
    /// In-flight repair budget: how many times a corrupted transfer is
    /// retransmitted before the destination is left poisoned.
    pub max_retransmits: u32,
}

impl Default for CorruptionFault {
    fn default() -> Self {
        CorruptionFault {
            h2d_rate: 0.0,
            d2h_rate: 0.0,
            strike_after_h2d: Vec::new(),
            strike_after_kernel: Vec::new(),
            max_retransmits: 2,
        }
    }
}

impl CorruptionFault {
    pub fn enabled(&self) -> bool {
        self.h2d_rate > 0.0
            || self.d2h_rate > 0.0
            || !self.strike_after_h2d.is_empty()
            || !self.strike_after_kernel.is_empty()
    }

    /// Whether the `attempt`-th copy of the transfer with this ordinal is
    /// corrupted in flight (attempt 0 is the original send; 1.. are
    /// retransmits). Pure function of the plan seed.
    fn attempt_corrupt(&self, seed: u64, lane: Lane, ordinal: u64, attempt: u32) -> bool {
        let rate = match lane {
            Lane::H2d => self.h2d_rate,
            Lane::D2h => self.d2h_rate,
        };
        rate > 0.0
            && unit(splitmix64(
                splitmix64(seed ^ lane.tag() ^ CORRUPT_SALT) ^ ordinal ^ ((attempt as u64) << 48),
            )) < rate
    }

    /// Deterministic strike value (bit + element selector) for an injection
    /// site, fed to `memslab::Slab::flip_bit`.
    fn strike_value(seed: u64, salt: u64, ordinal: u64) -> u64 {
        splitmix64(splitmix64(seed ^ CORRUPT_SALT ^ salt) ^ ordinal)
    }
}

/// Fault settings for one transfer direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferFaults {
    /// Probability in `[0, 1]` that any single attempt fails transiently.
    pub transient_rate: f64,
    /// Attempts with ordinal `>= fail_after` fail persistently (dead link).
    pub fail_after: Option<u64>,
    /// Fraction of the nominal transfer time a failed attempt occupies the
    /// engine before the error surfaces.
    pub fail_fraction: f64,
}

impl Default for TransferFaults {
    fn default() -> Self {
        TransferFaults {
            transient_rate: 0.0,
            fail_after: None,
            fail_fraction: 0.5,
        }
    }
}

impl TransferFaults {
    pub fn enabled(&self) -> bool {
        self.transient_rate > 0.0 || self.fail_after.is_some()
    }

    /// Deterministic verdict for the attempt with this ordinal.
    fn faulty(&self, seed: u64, lane: Lane, ordinal: u64) -> bool {
        if self.fail_after.is_some_and(|n| ordinal >= n) {
            return true;
        }
        self.transient_rate > 0.0
            && unit(splitmix64(splitmix64(seed ^ lane.tag()) ^ ordinal)) < self.transient_rate
    }
}

/// A periodic stall on one stream's transfers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStall {
    /// Stream index (creation order) the stall applies to.
    pub stream: usize,
    /// Every `every`-th transfer enqueued on the stream stalls (1-based).
    pub every: u64,
    /// Time the stall occupies the transfer engine.
    pub stall: SimTime,
}

/// A window of reduced link bandwidth, evaluated against the host clock at
/// enqueue time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradeWindow {
    pub from: SimTime,
    pub until: SimTime,
    /// Duration multiplier for transfers enqueued inside the window (`> 1`).
    pub factor: f64,
}

/// A seeded whole-platform abort. The first trigger to fire wins; the
/// triggering operation dies mid-flight (engine occupied for
/// [`CrashFault::fraction`] of its nominal time, no data moved) and every
/// later submission is refused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashFault {
    /// Die on the n-th (1-based) transfer enqueue across the run.
    pub after_transfers: Option<u64>,
    /// Die on the n-th (1-based) kernel launch across the run.
    pub after_kernels: Option<u64>,
    /// Die on the first submission at or past this host-clock time.
    pub at_time: Option<SimTime>,
    /// Fraction of the nominal duration the dying operation occupies its
    /// engine before the platform goes silent.
    pub fraction: f64,
}

impl CrashFault {
    /// Crash on the n-th (1-based) transfer enqueue.
    pub fn at_transfer(n: u64) -> Self {
        CrashFault {
            after_transfers: Some(n),
            after_kernels: None,
            at_time: None,
            fraction: 0.5,
        }
    }

    /// Crash on the n-th (1-based) kernel launch.
    pub fn at_kernel(n: u64) -> Self {
        CrashFault {
            after_transfers: None,
            after_kernels: None,
            at_time: None,
            fraction: 0.5,
        }
        .with_kernels(n)
    }

    fn with_kernels(mut self, n: u64) -> Self {
        self.after_kernels = Some(n);
        self
    }

    pub fn enabled(&self) -> bool {
        self.after_transfers.is_some() || self.after_kernels.is_some() || self.at_time.is_some()
    }
}

/// A wedged stream: past `after_transfers` enqueues it accepts work but
/// never completes it. Modelled as transfers that occupy the engine for
/// `horizon` and move nothing — from the program's view the operation
/// "finishes" (the scheduler stays live) but no progress was made, which is
/// exactly what a supervisor's progress watchdog must detect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LivelockFault {
    /// Stream index (creation order) that wedges.
    pub stream: usize,
    /// The stream behaves for this many transfer enqueues, then wedges.
    pub after_transfers: u64,
    /// Virtual time each wedged transfer burns. Pick this far above any
    /// supervisor progress deadline.
    pub horizon: SimTime,
}

/// Permanent death of one device at a scheduled point.
///
/// Unlike a [`CrashFault`], the rest of the platform keeps running: only
/// submissions touching the dead device are refused (reported faulted with
/// zero duration), surviving devices are untouched, and a runtime can
/// migrate the dead device's regions onto the survivors and resume. The
/// dying operation occupies its engine for [`DeviceDeath::fraction`] of its
/// nominal time, like a crashing one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceDeath {
    /// Device index that dies.
    pub device: usize,
    /// Die on the n-th (1-based) in-scope transfer enqueued to the device.
    pub after_transfers: Option<u64>,
    /// Die on the first in-scope submission to the device at or past this
    /// host-clock time.
    pub at_time: Option<SimTime>,
    /// Fraction of the nominal duration the dying operation occupies its
    /// engine before the device goes silent.
    pub fraction: f64,
}

impl DeviceDeath {
    /// Kill `device` on its n-th (1-based) transfer enqueue.
    pub fn at_transfer(device: usize, n: u64) -> Self {
        DeviceDeath {
            device,
            after_transfers: Some(n),
            at_time: None,
            fraction: 0.5,
        }
    }

    /// Kill `device` at the first submission at or past `t`.
    pub fn at_time(device: usize, t: SimTime) -> Self {
        DeviceDeath {
            device,
            after_transfers: None,
            at_time: Some(t),
            fraction: 0.5,
        }
    }

    pub fn enabled(&self) -> bool {
        self.after_transfers.is_some() || self.at_time.is_some()
    }
}

/// A flapping interconnect link on one device: repeating down windows
/// during which every transfer attempt touching the device fails
/// (retryable), generalizing [`DegradeWindow`] to per-device scope and
/// hard failure. Lane fault ordinals do **not** advance inside a down
/// window, so adding a flap to a plan leaves the transient/persistent
/// fault schedule of the surrounding run untouched — a health monitor
/// sees a burst of retries, then clean air once the window closes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFlap {
    /// Device whose link flaps.
    pub device: usize,
    /// The first down window opens at this host-clock time.
    pub from: SimTime,
    /// A new down window opens every `period` after `from`.
    pub period: SimTime,
    /// Length of each down window (shorter than `period`).
    pub down: SimTime,
    /// Number of down/up cycles before the link stays up (0 = forever).
    pub cycles: u64,
    /// Fraction of the nominal transfer time a failed attempt occupies
    /// the engine before the error surfaces.
    pub fail_fraction: f64,
}

impl LinkFlap {
    /// A flap of `cycles` windows of `down` out of every `period`,
    /// starting at `from`.
    pub fn new(device: usize, from: SimTime, period: SimTime, down: SimTime, cycles: u64) -> Self {
        LinkFlap {
            device,
            from,
            period,
            down,
            cycles,
            fail_fraction: 0.5,
        }
    }

    /// Whether the link is down at `now` (pure function of the schedule).
    pub fn down_at(&self, now: SimTime) -> bool {
        if self.period == SimTime::ZERO || now < self.from {
            return false;
        }
        let off = now.as_ns() - self.from.as_ns();
        if self.cycles > 0 && off >= self.period.as_ns().saturating_mul(self.cycles) {
            return false;
        }
        (off % self.period.as_ns()) < self.down.as_ns()
    }
}

/// Salt separating cluster-link drop draws from every other seeded stream.
const LINK_DROP_SALT: u64 = 0x4C44_524F;

/// Salt separating cluster-link reorder draws from drop draws.
const LINK_REORDER_SALT: u64 = 0x4C52_4F52;

/// FNV-1a over a link name, folding the name into the seeded draw so two
/// links with the same fault config fail independently.
fn link_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Faults on one *named* cluster link ("ib:0-1", "nvl:2", or `*` for every
/// link): seeded message drops (each drop costs one serialization plus a
/// retransmit timeout before the wire carries the message clean), seeded
/// delivery reordering (a message is held back past later traffic), and
/// deterministic down windows (flap — the sender waits out the window).
///
/// Unlike the device-scoped fault classes, a `LinkFault` carries no mutable
/// state in the simulator: every verdict is a pure function of
/// `(plan seed, link name, per-link message ordinal)`, evaluated by the
/// cluster's network model at send time. The per-link ordinal advances once
/// per *message* (not per retransmit attempt), so adding retransmits never
/// shifts later draws, and flap delays — being time-based — never shift the
/// drop/reorder schedule at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Link name the fault applies to (`*` matches every link).
    pub link: String,
    /// Probability in `[0, 1]` that one transmission attempt is dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that one message's delivery is held back.
    pub reorder_rate: f64,
    /// Extra delivery delay for a reordered message.
    pub reorder_delay: SimTime,
    /// First down window opens at this time (flap disabled if `period` is
    /// zero).
    pub flap_from: SimTime,
    /// A new down window opens every `period` after `flap_from`.
    pub flap_period: SimTime,
    /// Length of each down window (shorter than `flap_period`).
    pub flap_down: SimTime,
    /// Down/up cycles before the link stays up (0 = forever).
    pub flap_cycles: u64,
}

impl LinkFault {
    /// A fault-free descriptor on `link` to build on.
    pub fn on(link: impl Into<String>) -> Self {
        LinkFault {
            link: link.into(),
            drop_rate: 0.0,
            reorder_rate: 0.0,
            reorder_delay: SimTime::ZERO,
            flap_from: SimTime::ZERO,
            flap_period: SimTime::ZERO,
            flap_down: SimTime::ZERO,
            flap_cycles: 0,
        }
    }

    /// Drop each transmission attempt with probability `rate`.
    pub fn drops(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Hold back each message with probability `rate` for `delay`.
    pub fn reorders(mut self, rate: f64, delay: SimTime) -> Self {
        self.reorder_rate = rate;
        self.reorder_delay = delay;
        self
    }

    /// Repeating down windows: `cycles` windows of `down` out of every
    /// `period`, starting at `from` (0 cycles = forever).
    pub fn flaps(mut self, from: SimTime, period: SimTime, down: SimTime, cycles: u64) -> Self {
        self.flap_from = from;
        self.flap_period = period;
        self.flap_down = down;
        self.flap_cycles = cycles;
        self
    }

    /// Whether this fault applies to the named link.
    pub fn applies_to(&self, link: &str) -> bool {
        self.link == "*" || self.link == link
    }

    pub fn enabled(&self) -> bool {
        self.drop_rate > 0.0
            || self.reorder_rate > 0.0
            || (self.flap_period > SimTime::ZERO && self.flap_down > SimTime::ZERO)
    }

    /// How many leading transmission attempts of message `ordinal` on
    /// `link` are dropped (bounded by `max` so a 1.0 drop rate still
    /// terminates). Pure function of `(seed, link, ordinal)`.
    pub fn drop_count(&self, seed: u64, link: &str, ordinal: u64, max: u32) -> u32 {
        if self.drop_rate <= 0.0 || !self.applies_to(link) {
            return 0;
        }
        let base = splitmix64(seed ^ LINK_DROP_SALT ^ link_hash(link));
        let mut drops = 0u32;
        while drops < max {
            let h = splitmix64(base ^ (ordinal | ((drops as u64 + 1) << 48)));
            if unit(h) < self.drop_rate {
                drops += 1;
            } else {
                break;
            }
        }
        drops
    }

    /// Extra delivery delay if message `ordinal` on `link` draws a reorder.
    pub fn reorder_for(&self, seed: u64, link: &str, ordinal: u64) -> Option<SimTime> {
        if self.reorder_rate <= 0.0 || !self.applies_to(link) {
            return None;
        }
        let h = splitmix64(splitmix64(seed ^ LINK_REORDER_SALT ^ link_hash(link)) ^ ordinal);
        (unit(h) < self.reorder_rate).then_some(self.reorder_delay)
    }

    /// If the link is inside a down window at `now`, the time the window
    /// closes; `None` when the link is up. Pure function of the schedule.
    pub fn down_until(&self, now: SimTime) -> Option<SimTime> {
        if self.flap_period == SimTime::ZERO || now < self.flap_from {
            return None;
        }
        let off = now.as_ns() - self.flap_from.as_ns();
        if self.flap_cycles > 0 && off >= self.flap_period.as_ns().saturating_mul(self.flap_cycles)
        {
            return None;
        }
        let into = off % self.flap_period.as_ns();
        (into < self.flap_down.as_ns())
            .then(|| SimTime::from_ns(now.as_ns() - into + self.flap_down.as_ns()))
    }
}

/// ECC-error accumulation on one device's memory. Each in-scope transfer
/// touching the device draws a seeded correctable-error verdict; past
/// [`EccFault::degrade_after`] accumulated errors the device runs degraded
/// (scrubbing steals bandwidth from every transfer), and past
/// [`EccFault::kill_after`] the device is retired — a [`DeviceDeath`] at
/// an error-history-dependent point. Errors are correctable and silent:
/// no data is harmed, only the error *count* ages the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EccFault {
    /// Device whose memory accumulates errors.
    pub device: usize,
    /// Probability in `[0, 1]` that one transfer draws a correctable error.
    pub error_rate: f64,
    /// Accumulated errors past which transfers run degraded.
    pub degrade_after: u64,
    /// Duration multiplier once degraded (`> 1`).
    pub degrade_factor: f64,
    /// Accumulated errors past which the device is retired
    /// (`None` = degrade only, never die).
    pub kill_after: Option<u64>,
}

impl EccFault {
    pub fn enabled(&self) -> bool {
        self.error_rate > 0.0
    }
}

/// The full seeded fault schedule. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub seed: u64,
    pub h2d: TransferFaults,
    pub d2h: TransferFaults,
    /// 0-based ordinals of `malloc_device` calls that fail.
    pub alloc_fail_nth: Vec<u64>,
    pub stalls: Vec<StreamStall>,
    pub degrade: Vec<DegradeWindow>,
    /// Slowdown factor of the fault-exempt salvage D2H path.
    pub salvage_slowdown: f64,
    /// Seeded whole-platform abort (at most one per run).
    pub crash: Option<CrashFault>,
    /// Streams that wedge mid-run.
    pub livelocks: Vec<LivelockFault>,
    /// Silent bit flips in flight and in device DRAM.
    pub corruption: CorruptionFault,
    /// Scheduled permanent deaths of individual devices.
    pub device_deaths: Vec<DeviceDeath>,
    /// Flapping per-device links (repeating down windows).
    pub link_flaps: Vec<LinkFlap>,
    /// Faults on named cluster links (drop/reorder/flap), evaluated as
    /// pure functions by the cluster network model — the simulator itself
    /// never reads them.
    pub link_faults: Vec<LinkFault>,
    /// Per-device ECC-error accumulation (degrade, then die).
    pub ecc: Vec<EccFault>,
    /// Restrict injection to submissions tagged with this tenant
    /// ([`crate::GpuSystem::set_tenant`]). Other tenants' (and untenanted)
    /// submissions pass through clean *without advancing any fault
    /// ordinal*, so the scoped tenant's fault schedule is a pure function
    /// of its own operation sequence, not of who else shares the platform.
    /// A crash still kills the whole platform once it fires — only its
    /// *trigger counters* are scoped. `None` (the default) injects into
    /// everything, bit-identical to the pre-tenant behaviour.
    pub scope_tenant: Option<u32>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing; all simulator paths stay bit-identical
    /// to a build without the fault layer.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            h2d: TransferFaults::default(),
            d2h: TransferFaults::default(),
            alloc_fail_nth: Vec::new(),
            stalls: Vec::new(),
            degrade: Vec::new(),
            salvage_slowdown: 4.0,
            crash: None,
            livelocks: Vec::new(),
            corruption: CorruptionFault::default(),
            device_deaths: Vec::new(),
            link_flaps: Vec::new(),
            link_faults: Vec::new(),
            ecc: Vec::new(),
            scope_tenant: None,
        }
    }

    /// Scope every injection trigger to one tenant's submissions.
    pub fn scoped_to(mut self, tenant: u32) -> Self {
        self.scope_tenant = Some(tenant);
        self
    }

    /// Install a silent-corruption schedule.
    pub fn with_corruption(mut self, corruption: CorruptionFault) -> Self {
        self.corruption = corruption;
        self
    }

    /// Install a crash fault.
    pub fn with_crash(mut self, crash: CrashFault) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Schedule one device's permanent death.
    pub fn with_device_death(mut self, death: DeviceDeath) -> Self {
        self.device_deaths.push(death);
        self
    }

    /// Install a flapping link on one device.
    pub fn with_link_flap(mut self, flap: LinkFlap) -> Self {
        self.link_flaps.push(flap);
        self
    }

    /// Install a fault on a named cluster link.
    pub fn with_link_fault(mut self, fault: LinkFault) -> Self {
        self.link_faults.push(fault);
        self
    }

    /// Install an ECC-error-accumulation model on one device.
    pub fn with_ecc(mut self, ecc: EccFault) -> Self {
        self.ecc.push(ecc);
        self
    }

    /// Wedge `stream` after `after_transfers` enqueues.
    pub fn with_livelock(mut self, stream: usize, after_transfers: u64, horizon: SimTime) -> Self {
        self.livelocks.push(LivelockFault {
            stream,
            after_transfers,
            horizon,
        });
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Transient faults on both transfer directions at the given rate.
    pub fn with_transient(mut self, rate: f64) -> Self {
        self.h2d.transient_rate = rate;
        self.d2h.transient_rate = rate;
        self
    }

    pub fn enabled(&self) -> bool {
        self.h2d.enabled()
            || self.d2h.enabled()
            || !self.alloc_fail_nth.is_empty()
            || !self.stalls.is_empty()
            || !self.degrade.is_empty()
            || self.crash.as_ref().is_some_and(CrashFault::enabled)
            || !self.livelocks.is_empty()
            || self.corruption.enabled()
            || self.device_deaths.iter().any(DeviceDeath::enabled)
            || !self.link_flaps.is_empty()
            || self.link_faults.iter().any(LinkFault::enabled)
            || self.ecc.iter().any(EccFault::enabled)
    }

    /// Whether any device-scoped fault class is configured (gates the
    /// per-device bookkeeping off the hot path when unused).
    fn device_scoped(&self) -> bool {
        !self.device_deaths.is_empty() || !self.link_flaps.is_empty() || !self.ecc.is_empty()
    }

    /// Largest degrade factor of any window open at `now` (1.0 when none).
    fn degrade_factor(&self, now: SimTime) -> f64 {
        self.degrade
            .iter()
            .filter(|w| w.from <= now && now < w.until)
            .map(|w| w.factor)
            .fold(1.0, f64::max)
    }

    /// Stall due before the `count`-th (1-based) transfer on `stream`.
    fn stall_for(&self, stream: usize, count: u64) -> Option<SimTime> {
        self.stalls
            .iter()
            .find(|s| s.stream == stream && s.every > 0 && count.is_multiple_of(s.every))
            .map(|s| s.stall)
    }
}

/// Counters accumulated by the fault layer over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transfer attempts per lane (counted only while a plan is active).
    pub h2d_attempts: u64,
    pub d2h_attempts: u64,
    /// Faulted attempts per lane.
    pub h2d_faults: u64,
    pub d2h_faults: u64,
    /// `malloc_device` calls refused by the plan.
    pub alloc_faults: u64,
    /// Stalls injected ahead of transfers.
    pub stalls: u64,
    /// Transfers enqueued inside a degrade window.
    pub degraded: u64,
    /// Fault-exempt salvage copies issued.
    pub salvages: u64,
    /// Seeded platform crashes that fired (0 or 1).
    pub crashes: u64,
    /// Transfers swallowed by a wedged (livelocked) stream.
    pub livelocked: u64,
    /// In-flight transfer corruptions injected (counting each corrupted
    /// retransmit separately).
    pub corruptions: u64,
    /// Resident device-DRAM strikes injected.
    pub resident_strikes: u64,
    /// Devices permanently retired (scheduled death or ECC kill).
    pub device_deaths: u64,
    /// Transfer attempts failed inside a link-flap down window.
    pub flap_faults: u64,
    /// Correctable ECC errors drawn (silent; they age the device).
    pub ecc_errors: u64,
    /// Transfers stretched by ECC-degraded device memory.
    pub ecc_degraded: u64,
    /// Engine time consumed by faulted attempts and injected stalls — the
    /// raw material of the recovery time a run report accounts for.
    pub lost_time: SimTime,
}

impl FaultStats {
    /// Total injected fault events (transfer faults, refused allocations,
    /// stalls, crashes, livelocked transfers).
    pub fn events(&self) -> u64 {
        self.h2d_faults
            + self.d2h_faults
            + self.alloc_faults
            + self.stalls
            + self.crashes
            + self.livelocked
            + self.corruptions
            + self.resident_strikes
            + self.device_deaths
            + self.flap_faults
            + self.ecc_errors
    }
}

/// Corruption verdict for one transfer, decided at enqueue time so the
/// engine occupancy (original send + retransmits) is part of the
/// deterministic schedule regardless of whether the run is backed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CorruptVerdict {
    /// How many leading copy attempts arrive corrupted (attempt 0 is the
    /// original send). The effect layer flips/verifies/re-copies this many
    /// times on real data.
    pub(crate) corrupt_attempts: u32,
    /// All `1 + max_retransmits` attempts were corrupted: the destination
    /// is left poisoned.
    pub(crate) unrepaired: bool,
    /// Seeded bit/element selector for the injected flips.
    pub(crate) strike: u64,
    /// A clean resident strike lands on this transfer's destination after
    /// it settles (`strike_after_h2d`).
    pub(crate) resident_strike: Option<u64>,
}

/// Verdict for one transfer enqueue: how long the op occupies its engine,
/// whether it failed (retryable), whether it was swallowed by a wedged
/// stream (not retryable — it "completes" without effect), and any stall
/// the caller must submit ahead of it.
pub(crate) struct XferVerdict {
    pub(crate) duration: SimTime,
    pub(crate) faulted: bool,
    pub(crate) livelocked: bool,
    pub(crate) stall: Option<SimTime>,
    /// Silent-corruption verdict (`None` when this transfer is clean).
    pub(crate) corrupt: Option<CorruptVerdict>,
}

impl XferVerdict {
    fn clean(duration: SimTime) -> Self {
        XferVerdict {
            duration,
            faulted: false,
            livelocked: false,
            stall: None,
            corrupt: None,
        }
    }
}

/// Runtime state of the fault layer inside a [`crate::GpuSystem`].
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) stats: FaultStats,
    /// `malloc_device` ordinal counter.
    allocs: u64,
    /// Per-stream transfer enqueue counters (for stalls).
    stream_xfers: HashMap<usize, u64>,
    /// Global transfer / kernel enqueue counters (for crash triggers).
    xfer_total: u64,
    kernel_total: u64,
    /// Set once a crash fault fires; the platform is dead afterwards.
    crashed: bool,
    /// Devices retired by a death or ECC-kill fault; submissions touching
    /// them are refused, whoever submits them.
    dead_devices: HashSet<usize>,
    /// Per-device transfer enqueue counters (death and ECC triggers).
    device_xfers: HashMap<usize, u64>,
    /// Per-device accumulated correctable-ECC-error counts.
    ecc_counts: HashMap<usize, u64>,
    /// Cached [`FaultPlan::device_scoped`] (hot-path gate).
    device_scoped: bool,
    /// Ops that represent failed attempts.
    faulted: HashSet<desim::OpId>,
    /// Tenant tag of the submissions currently being enqueued (mirrors
    /// [`crate::GpuSystem::set_tenant`]); evaluated against
    /// [`FaultPlan::scope_tenant`].
    pub(crate) current_tenant: Option<u32>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let device_scoped = plan.device_scoped();
        FaultState {
            plan,
            stats: FaultStats::default(),
            allocs: 0,
            stream_xfers: HashMap::new(),
            xfer_total: 0,
            kernel_total: 0,
            crashed: false,
            dead_devices: HashSet::new(),
            device_xfers: HashMap::new(),
            ecc_counts: HashMap::new(),
            device_scoped,
            faulted: HashSet::new(),
            current_tenant: None,
        }
    }

    /// Whether the submission being enqueued is eligible for injection
    /// under the plan's tenant scope.
    fn in_scope(&self) -> bool {
        self.plan
            .scope_tenant
            .is_none_or(|t| self.current_tenant == Some(t))
    }

    pub(crate) fn enabled(&self) -> bool {
        self.plan.enabled()
    }

    pub(crate) fn crashed(&self) -> bool {
        self.crashed
    }

    /// Whether `device` has been retired by a death or ECC-kill fault.
    pub(crate) fn device_lost(&self, device: usize) -> bool {
        self.device_scoped && self.dead_devices.contains(&device)
    }

    /// Record a non-transfer submission touching `device` (kernel launch,
    /// peer copy endpoint): fires time-triggered device deaths. Returns
    /// `true` when the device dies on exactly this submission — the
    /// operation dies mid-flight like a crashing one.
    pub(crate) fn device_submission(&mut self, device: usize, now: SimTime) -> bool {
        if !self.device_scoped
            || !self.enabled()
            || self.crashed
            || self.dead_devices.contains(&device)
            || !self.in_scope()
        {
            return false;
        }
        let due = self
            .plan
            .device_deaths
            .iter()
            .any(|d| d.device == device && d.at_time.is_some_and(|t| now >= t));
        if due {
            self.dead_devices.insert(device);
            self.stats.device_deaths += 1;
        }
        due
    }

    /// A death trigger due for `device` given its transfer count, if any.
    fn death_due(&self, device: usize, count: u64, now: SimTime) -> Option<f64> {
        self.plan
            .device_deaths
            .iter()
            .find(|d| {
                d.device == device
                    && (d.after_transfers.is_some_and(|n| count >= n)
                        || d.at_time.is_some_and(|t| now >= t))
            })
            .map(|d| d.fraction)
    }

    /// Retire `device`; the triggering transfer dies mid-flight, occupying
    /// its engine for `fraction` of its (possibly stretched) duration.
    fn kill_device(&mut self, device: usize, duration: SimTime, fraction: f64) -> XferVerdict {
        self.dead_devices.insert(device);
        self.stats.device_deaths += 1;
        let frac = fraction.clamp(0.0, 1.0);
        let duration = SimTime::from_ns((duration.as_ns() as f64 * frac).round() as u64);
        self.stats.lost_time += duration;
        XferVerdict {
            duration,
            faulted: true,
            livelocked: false,
            stall: None,
            corrupt: None,
        }
    }

    /// Whether a crash trigger fires given the counters advanced so far.
    fn crash_due(&self, now: SimTime) -> bool {
        let Some(c) = &self.plan.crash else {
            return false;
        };
        c.after_transfers.is_some_and(|n| self.xfer_total >= n)
            || c.after_kernels.is_some_and(|n| self.kernel_total >= n)
            || c.at_time.is_some_and(|t| now >= t)
    }

    fn note_crash(&mut self) {
        self.crashed = true;
        self.stats.crashes += 1;
    }

    /// Record a kernel launch; returns `true` when the crash fault fires on
    /// exactly this launch (the kernel dies mid-flight: it occupies the
    /// engine but its effect must be dropped).
    pub(crate) fn kernel_enqueue(&mut self, now: SimTime) -> bool {
        if !self.enabled() || self.crashed || !self.in_scope() {
            return false;
        }
        self.kernel_total += 1;
        if self.crash_due(now) {
            self.note_crash();
            return true;
        }
        false
    }

    /// Whether the next `malloc_device` call on `device` is refused by the
    /// plan. A dead device refuses every allocation without consuming an
    /// ordinal — the scheduled refusals stay pinned to the live sequence.
    pub(crate) fn alloc_refused(&mut self, device: usize) -> bool {
        if !self.enabled() {
            return false;
        }
        if self.device_lost(device) {
            self.stats.alloc_faults += 1;
            return true;
        }
        if !self.in_scope() {
            return false;
        }
        let n = self.allocs;
        self.allocs += 1;
        if self.plan.alloc_fail_nth.contains(&n) {
            self.stats.alloc_faults += 1;
            true
        } else {
            false
        }
    }

    /// Fault verdict and adjusted duration for one transfer attempt. The
    /// caller submits the stall op (if any) ahead of the transfer.
    pub(crate) fn transfer_enqueue(
        &mut self,
        lane: Lane,
        device: usize,
        stream: usize,
        now: SimTime,
        nominal: SimTime,
    ) -> XferVerdict {
        if !self.enabled() {
            return XferVerdict::clean(nominal);
        }
        if self.crashed || self.device_lost(device) {
            // Dead platform or dead device: the submission is refused
            // outright. Zero duration, no data; report it as faulted so
            // callers notice. A dead device refuses *everyone* — the loss
            // is physical, whatever tenant scope triggered it.
            return XferVerdict {
                duration: SimTime::ZERO,
                faulted: true,
                livelocked: false,
                stall: None,
                corrupt: None,
            };
        }
        if !self.in_scope() {
            // Out-of-scope tenants see a pristine platform: no verdict, no
            // ordinal advance — the scoped tenant's schedule stays a pure
            // function of its own ops.
            return XferVerdict::clean(nominal);
        }
        self.xfer_total += 1;
        if self.crash_due(now) {
            // This transfer is the one that kills the platform: it dies
            // mid-flight, holding the engine for a fraction of its time.
            self.note_crash();
            let frac = self
                .plan
                .crash
                .as_ref()
                .map(|c| c.fraction.clamp(0.0, 1.0))
                .unwrap_or(0.5);
            let duration = SimTime::from_ns((nominal.as_ns() as f64 * frac).round() as u64);
            self.stats.lost_time += duration;
            return XferVerdict {
                duration,
                faulted: true,
                livelocked: false,
                stall: None,
                corrupt: None,
            };
        }
        let mut duration = nominal;
        if self.device_scoped {
            // Per-device triggers: scheduled death, then ECC accumulation.
            let count = {
                let c = self.device_xfers.entry(device).or_insert(0);
                *c += 1;
                *c
            };
            if let Some(frac) = self.death_due(device, count, now) {
                return self.kill_device(device, nominal, frac);
            }
            if let Some(e) = self.plan.ecc.iter().find(|e| e.device == device).cloned() {
                let ord = count - 1;
                if e.error_rate > 0.0
                    && unit(splitmix64(
                        splitmix64(self.plan.seed ^ ECC_SALT ^ ((device as u64) << 32)) ^ ord,
                    )) < e.error_rate
                {
                    *self.ecc_counts.entry(device).or_insert(0) += 1;
                    self.stats.ecc_errors += 1;
                }
                let errors = self.ecc_counts.get(&device).copied().unwrap_or(0);
                if e.kill_after.is_some_and(|k| errors >= k) {
                    return self.kill_device(device, nominal, 0.5);
                }
                if errors >= e.degrade_after.max(1) && e.degrade_factor > 1.0 {
                    // Scrubbing steals bandwidth: every transfer on the
                    // aged device is stretched.
                    duration = SimTime::from_ns(
                        (duration.as_ns() as f64 * e.degrade_factor).round() as u64,
                    );
                    self.stats.ecc_degraded += 1;
                }
            }
        }
        let factor = self.plan.degrade_factor(now);
        if factor > 1.0 {
            duration = SimTime::from_ns((duration.as_ns() as f64 * factor).round() as u64);
            self.stats.degraded += 1;
        }
        let count = {
            let c = self.stream_xfers.entry(stream).or_insert(0);
            *c += 1;
            *c
        };
        if let Some(l) = self
            .plan
            .livelocks
            .iter()
            .find(|l| l.stream == stream && count > l.after_transfers)
        {
            // Wedged stream: the transfer is accepted and occupies the
            // engine for the horizon, but never moves data. It is NOT
            // reported as faulted — from the program's view it completed.
            self.stats.livelocked += 1;
            self.stats.lost_time += l.horizon;
            return XferVerdict {
                duration: l.horizon,
                faulted: false,
                livelocked: true,
                stall: None,
                corrupt: None,
            };
        }
        if self.device_scoped {
            if let Some(fl) = self
                .plan
                .link_flaps
                .iter()
                .find(|f| f.device == device && f.down_at(now))
            {
                // Link down: the attempt fails *without advancing any lane
                // ordinal*, so adding a flap leaves the surrounding
                // transient/persistent fault schedule untouched. Retries
                // keep failing until the window closes.
                let frac = fl.fail_fraction.clamp(0.0, 1.0);
                let d = SimTime::from_ns((duration.as_ns() as f64 * frac).round() as u64);
                self.stats.flap_faults += 1;
                self.stats.lost_time += d;
                return XferVerdict {
                    duration: d,
                    faulted: true,
                    livelocked: false,
                    stall: None,
                    corrupt: None,
                };
            }
        }
        let stall = self.plan.stall_for(stream, count);
        if let Some(s) = stall {
            self.stats.stalls += 1;
            self.stats.lost_time += s;
        }
        let (faults, ordinal) = match lane {
            Lane::H2d => {
                self.stats.h2d_attempts += 1;
                (&self.plan.h2d, self.stats.h2d_attempts - 1)
            }
            Lane::D2h => {
                self.stats.d2h_attempts += 1;
                (&self.plan.d2h, self.stats.d2h_attempts - 1)
            }
        };
        let faulted = faults.faulty(self.plan.seed, lane, ordinal);
        if faulted {
            let frac = faults.fail_fraction.clamp(0.0, 1.0);
            duration = SimTime::from_ns((duration.as_ns() as f64 * frac).round() as u64);
            match lane {
                Lane::H2d => self.stats.h2d_faults += 1,
                Lane::D2h => self.stats.d2h_faults += 1,
            }
            self.stats.lost_time += duration;
            return XferVerdict {
                duration,
                faulted,
                livelocked: false,
                stall,
                corrupt: None,
            };
        }
        // A clean attempt can still be silently corrupted. The verdict is
        // decided here so the retransmit engine time is part of the
        // schedule; the effect layer performs the actual flips/repairs.
        let corrupt = self.corruption_verdict(lane, ordinal, &mut duration);
        XferVerdict {
            duration,
            faulted: false,
            livelocked: false,
            stall,
            corrupt,
        }
    }

    /// Decide whether the transfer with this ordinal suffers in-flight
    /// corruption and/or a post-landing resident strike, stretching
    /// `duration` by one nominal transfer time per retransmit.
    fn corruption_verdict(
        &mut self,
        lane: Lane,
        ordinal: u64,
        duration: &mut SimTime,
    ) -> Option<CorruptVerdict> {
        let c = &self.plan.corruption;
        if !c.enabled() {
            return None;
        }
        let attempts_budget = 1 + c.max_retransmits;
        let mut corrupt_attempts = 0u32;
        while corrupt_attempts < attempts_budget
            && c.attempt_corrupt(self.plan.seed, lane, ordinal, corrupt_attempts)
        {
            corrupt_attempts += 1;
        }
        let unrepaired = corrupt_attempts == attempts_budget;
        let retransmits = corrupt_attempts.min(c.max_retransmits);
        let resident_strike = (lane == Lane::H2d && c.strike_after_h2d.contains(&ordinal))
            .then(|| CorruptionFault::strike_value(self.plan.seed, 0x4452_414d, ordinal));
        if corrupt_attempts == 0 && resident_strike.is_none() {
            return None;
        }
        if retransmits > 0 {
            let extra = SimTime::from_ns(duration.as_ns().saturating_mul(retransmits as u64));
            *duration += extra;
            self.stats.lost_time += extra;
        }
        self.stats.corruptions += corrupt_attempts as u64;
        if resident_strike.is_some() {
            self.stats.resident_strikes += 1;
        }
        Some(CorruptVerdict {
            corrupt_attempts,
            unrepaired,
            strike: CorruptionFault::strike_value(self.plan.seed, lane.tag(), ordinal),
            resident_strike,
        })
    }

    /// Resident strike due after the most recent kernel launch (call after
    /// [`FaultState::kernel_enqueue`] returned `false`). Targets the data
    /// the kernel just wrote — dirty, so the host copy is stale.
    pub(crate) fn kernel_strike(&mut self) -> Option<u64> {
        if !self.enabled() || self.crashed || !self.in_scope() || self.kernel_total == 0 {
            return None;
        }
        let ordinal = self.kernel_total - 1;
        if self.plan.corruption.strike_after_kernel.contains(&ordinal) {
            self.stats.resident_strikes += 1;
            Some(CorruptionFault::strike_value(
                self.plan.seed,
                0x4b52_4e4c,
                ordinal,
            ))
        } else {
            None
        }
    }

    pub(crate) fn mark_faulted(&mut self, op: desim::OpId) {
        self.faulted.insert(op);
    }

    pub(crate) fn is_faulted(&self, op: desim::OpId) -> bool {
        self.faulted.contains(&op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_disabled_and_neutral() {
        let mut st = FaultState::new(FaultPlan::none());
        assert!(!st.enabled());
        assert!(!st.alloc_refused(0));
        assert!(!st.crashed());
        assert!(!st.kernel_enqueue(SimTime::ZERO));
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, SimTime::from_us(10));
        assert_eq!(v.duration, SimTime::from_us(10));
        assert!(!v.faulted);
        assert!(!v.livelocked);
        assert!(v.stall.is_none());
        assert_eq!(
            st.stats,
            FaultStats::default(),
            "disabled plan counts nothing"
        );
    }

    #[test]
    fn transient_decisions_are_deterministic_and_seeded() {
        let plan = FaultPlan::none().with_seed(7).with_transient(0.3);
        let verdicts: Vec<bool> = (0..64).map(|i| plan.h2d.faulty(7, Lane::H2d, i)).collect();
        let again: Vec<bool> = (0..64).map(|i| plan.h2d.faulty(7, Lane::H2d, i)).collect();
        assert_eq!(verdicts, again, "same seed, same verdicts");
        assert!(
            verdicts.iter().any(|&v| v),
            "rate 0.3 over 64 attempts faults"
        );
        assert!(
            verdicts.iter().any(|&v| !v),
            "rate 0.3 over 64 attempts passes"
        );
        let other: Vec<bool> = (0..64).map(|i| plan.h2d.faulty(8, Lane::H2d, i)).collect();
        assert_ne!(verdicts, other, "different seed, different schedule");
    }

    #[test]
    fn persistent_fails_every_attempt_past_threshold() {
        let tf = TransferFaults {
            fail_after: Some(3),
            ..TransferFaults::default()
        };
        assert!(!tf.faulty(0, Lane::D2h, 2));
        assert!(tf.faulty(0, Lane::D2h, 3));
        assert!(tf.faulty(0, Lane::D2h, 1000));
    }

    #[test]
    fn degrade_window_and_stall_apply() {
        let mut plan = FaultPlan::none();
        plan.degrade.push(DegradeWindow {
            from: SimTime::from_us(10),
            until: SimTime::from_us(20),
            factor: 3.0,
        });
        plan.stalls.push(StreamStall {
            stream: 1,
            every: 2,
            stall: SimTime::from_us(5),
        });
        let mut st = FaultState::new(plan);
        // Outside the window, stream 1, first transfer: nothing.
        let v = st.transfer_enqueue(Lane::H2d, 0, 1, SimTime::ZERO, SimTime::from_us(4));
        assert_eq!(v.duration, SimTime::from_us(4));
        assert!(v.stall.is_none());
        // Inside the window, second transfer on stream 1: degraded + stalled.
        let v = st.transfer_enqueue(Lane::H2d, 0, 1, SimTime::from_us(15), SimTime::from_us(4));
        assert_eq!(v.duration, SimTime::from_us(12));
        assert_eq!(v.stall, Some(SimTime::from_us(5)));
        assert_eq!(st.stats.degraded, 1);
        assert_eq!(st.stats.stalls, 1);
    }

    #[test]
    fn crash_fires_on_exact_transfer_and_kills_later_work() {
        let plan = FaultPlan::none().with_crash(CrashFault::at_transfer(3));
        let mut st = FaultState::new(plan);
        let nominal = SimTime::from_us(10);
        for _ in 0..2 {
            let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
            assert!(!v.faulted);
        }
        assert!(!st.crashed());
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(v.faulted, "crashing transfer dies mid-flight");
        assert_eq!(v.duration, SimTime::from_us(5), "fraction 0.5 of nominal");
        assert!(st.crashed());
        assert_eq!(st.stats.crashes, 1);
        // Everything after the crash is refused with zero duration.
        let v = st.transfer_enqueue(Lane::D2h, 0, 1, SimTime::ZERO, nominal);
        assert!(v.faulted);
        assert_eq!(v.duration, SimTime::ZERO);
        assert!(!st.kernel_enqueue(SimTime::ZERO), "dead, not crashing anew");
        assert_eq!(st.stats.crashes, 1, "a platform only dies once");
    }

    #[test]
    fn crash_fires_on_kernel_or_time_trigger() {
        let mut st = FaultState::new(FaultPlan::none().with_crash(CrashFault::at_kernel(2)));
        assert!(!st.kernel_enqueue(SimTime::ZERO));
        assert!(st.kernel_enqueue(SimTime::ZERO), "second launch crashes");
        assert!(st.crashed());

        let mut st = FaultState::new(FaultPlan::none().with_crash(CrashFault {
            after_transfers: None,
            after_kernels: None,
            at_time: Some(SimTime::from_us(10)),
            fraction: 0.5,
        }));
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::from_us(5), SimTime::from_us(4));
        assert!(!v.faulted, "before the deadline");
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::from_us(11), SimTime::from_us(4));
        assert!(v.faulted, "first submission past the deadline dies");
        assert!(st.crashed());
    }

    #[test]
    fn livelocked_stream_swallows_transfers_without_fault_verdict() {
        let horizon = SimTime::from_ms(100u64);
        let plan = FaultPlan::none().with_livelock(2, 1, horizon);
        let mut st = FaultState::new(plan);
        let v = st.transfer_enqueue(Lane::H2d, 0, 2, SimTime::ZERO, SimTime::from_us(4));
        assert!(!v.livelocked, "first transfer passes");
        let v = st.transfer_enqueue(Lane::H2d, 0, 2, SimTime::ZERO, SimTime::from_us(4));
        assert!(v.livelocked, "second transfer wedges");
        assert!(!v.faulted, "livelock is not a retryable fault");
        assert_eq!(v.duration, horizon);
        // Other streams are unaffected.
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, SimTime::from_us(4));
        assert!(!v.livelocked);
        assert_eq!(st.stats.livelocked, 1);
        assert_eq!(st.stats.lost_time, horizon);
    }

    #[test]
    fn corruption_default_is_disabled_and_invisible() {
        assert!(!CorruptionFault::default().enabled());
        let mut st = FaultState::new(FaultPlan::none().with_seed(9));
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, SimTime::from_us(10));
        assert!(v.corrupt.is_none());
        assert_eq!(v.duration, SimTime::from_us(10));
        assert_eq!(st.stats.corruptions, 0);
    }

    #[test]
    fn certain_corruption_exhausts_retransmits_and_poisons() {
        let plan = FaultPlan::none()
            .with_seed(3)
            .with_corruption(CorruptionFault {
                h2d_rate: 1.0,
                max_retransmits: 2,
                ..CorruptionFault::default()
            });
        let mut st = FaultState::new(plan);
        let nominal = SimTime::from_us(10);
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        let c = v.corrupt.expect("rate 1.0 always corrupts");
        assert_eq!(c.corrupt_attempts, 3, "original + 2 retransmits all flip");
        assert!(c.unrepaired, "budget exhausted leaves the dst poisoned");
        assert_eq!(
            v.duration,
            SimTime::from_us(30),
            "each retransmit re-occupies the engine"
        );
        assert!(!v.faulted, "corruption is silent, never an error verdict");
        assert_eq!(st.stats.corruptions, 3);
        // D2H lane is untouched by an H2D-only schedule.
        let v = st.transfer_enqueue(Lane::D2h, 0, 0, SimTime::ZERO, nominal);
        assert!(v.corrupt.is_none());
    }

    #[test]
    fn corruption_verdicts_are_seeded_and_deterministic() {
        let verdicts = |seed: u64| -> Vec<(u32, bool)> {
            let plan = FaultPlan::none()
                .with_seed(seed)
                .with_corruption(CorruptionFault {
                    d2h_rate: 0.3,
                    ..CorruptionFault::default()
                });
            let mut st = FaultState::new(plan);
            (0..64)
                .map(|_| {
                    let v =
                        st.transfer_enqueue(Lane::D2h, 0, 0, SimTime::ZERO, SimTime::from_us(10));
                    v.corrupt
                        .map(|c| (c.corrupt_attempts, c.unrepaired))
                        .unwrap_or((0, false))
                })
                .collect()
        };
        assert_eq!(verdicts(5), verdicts(5), "same seed, same schedule");
        assert_ne!(verdicts(5), verdicts(6), "different seed differs");
        assert!(verdicts(5).iter().any(|&(n, _)| n > 0), "rate 0.3 strikes");
        assert!(verdicts(5).iter().any(|&(n, _)| n == 0), "rate 0.3 passes");
    }

    #[test]
    fn resident_strikes_fire_on_exact_ordinals() {
        let plan = FaultPlan::none().with_corruption(CorruptionFault {
            strike_after_h2d: vec![1],
            strike_after_kernel: vec![2],
            ..CorruptionFault::default()
        });
        let mut st = FaultState::new(plan);
        let nominal = SimTime::from_us(10);
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(v.corrupt.is_none(), "ordinal 0 is clean");
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        let c = v.corrupt.expect("ordinal 1 is struck");
        assert!(c.resident_strike.is_some());
        assert_eq!(c.corrupt_attempts, 0, "a resident strike is not in-flight");
        assert_eq!(v.duration, nominal, "no retransmit cost for a strike");

        assert!(!st.kernel_enqueue(SimTime::ZERO));
        assert!(st.kernel_strike().is_none(), "kernel ordinal 0");
        assert!(!st.kernel_enqueue(SimTime::ZERO));
        assert!(st.kernel_strike().is_none(), "kernel ordinal 1");
        assert!(!st.kernel_enqueue(SimTime::ZERO));
        assert!(st.kernel_strike().is_some(), "kernel ordinal 2 is struck");
        assert_eq!(st.stats.resident_strikes, 2);
    }

    #[test]
    fn tenant_scope_gates_injection_and_freezes_ordinals() {
        let mut plan = FaultPlan::none().with_seed(1).scoped_to(7);
        plan.h2d.fail_after = Some(0); // every in-scope H2D attempt fails
        let nominal = SimTime::from_us(10);
        let mut st = FaultState::new(plan);
        // Untenanted and other-tenant submissions pass clean and advance
        // no ordinal.
        for tag in [None, Some(3)] {
            st.current_tenant = tag;
            let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
            assert!(!v.faulted, "{tag:?} is out of scope");
            assert_eq!(v.duration, nominal);
        }
        assert_eq!(st.stats.h2d_attempts, 0, "out-of-scope ops count nothing");
        // The scoped tenant still sees its full schedule, starting at
        // ordinal 0 as if it were alone on the platform.
        st.current_tenant = Some(7);
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(v.faulted, "scoped tenant's first attempt faults");
        assert_eq!(st.stats.h2d_attempts, 1);
        assert_eq!(st.stats.h2d_faults, 1);
        // Alloc refusals and kernel strikes are scoped the same way.
        let mut plan = FaultPlan::none().scoped_to(7);
        plan.alloc_fail_nth = vec![0];
        let mut st = FaultState::new(plan);
        st.current_tenant = Some(3);
        assert!(!st.alloc_refused(0), "other tenant's alloc passes");
        st.current_tenant = Some(7);
        assert!(st.alloc_refused(0), "scoped tenant hits ordinal 0");
    }

    #[test]
    fn scoped_crash_triggers_on_tenant_ops_but_kills_everyone() {
        let plan = FaultPlan::none()
            .with_crash(CrashFault::at_transfer(2))
            .scoped_to(7);
        let mut st = FaultState::new(plan);
        let nominal = SimTime::from_us(10);
        // Other tenants' transfers do not advance the crash trigger.
        st.current_tenant = Some(3);
        for _ in 0..5 {
            let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
            assert!(!v.faulted);
        }
        assert!(!st.crashed());
        // The scoped tenant's second transfer fires the crash...
        st.current_tenant = Some(7);
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(!v.faulted);
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(v.faulted, "trigger counts only scoped ops");
        assert!(st.crashed());
        // ...and the dead platform then refuses everyone, scope or not.
        st.current_tenant = Some(3);
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(v.faulted, "a crash is platform-wide");
        assert_eq!(v.duration, SimTime::ZERO);
    }

    #[test]
    fn alloc_refusal_targets_exact_ordinals() {
        let mut plan = FaultPlan::none();
        plan.alloc_fail_nth = vec![1, 3];
        let mut st = FaultState::new(plan);
        let refusals: Vec<bool> = (0..5).map(|_| st.alloc_refused(0)).collect();
        assert_eq!(refusals, vec![false, true, false, true, false]);
        assert_eq!(st.stats.alloc_faults, 2);
    }

    #[test]
    fn device_death_kills_one_device_and_spares_the_rest() {
        let plan = FaultPlan::none().with_device_death(DeviceDeath::at_transfer(1, 2));
        let mut st = FaultState::new(plan);
        let nominal = SimTime::from_us(10);
        // Device 0 is never touched by device 1's death.
        for _ in 0..4 {
            let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
            assert!(!v.faulted, "device 0 stays healthy");
        }
        assert!(!st.device_lost(1));
        let v = st.transfer_enqueue(Lane::H2d, 1, 1, SimTime::ZERO, nominal);
        assert!(!v.faulted, "device 1's first transfer passes");
        let v = st.transfer_enqueue(Lane::H2d, 1, 1, SimTime::ZERO, nominal);
        assert!(v.faulted, "second transfer on device 1 kills it");
        assert_eq!(v.duration, SimTime::from_us(5), "fraction 0.5 of nominal");
        assert!(st.device_lost(1));
        assert!(!st.crashed(), "a device death is not a platform crash");
        assert_eq!(st.stats.device_deaths, 1);
        // Everything on the dead device is refused; device 0 keeps working.
        let v = st.transfer_enqueue(Lane::D2h, 1, 1, SimTime::ZERO, nominal);
        assert!(v.faulted);
        assert_eq!(v.duration, SimTime::ZERO);
        assert!(st.alloc_refused(1), "dead device refuses allocations");
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(!v.faulted, "survivor is untouched");
        assert_eq!(st.stats.device_deaths, 1, "a device only dies once");
    }

    #[test]
    fn device_death_at_time_fires_on_any_submission() {
        let plan =
            FaultPlan::none().with_device_death(DeviceDeath::at_time(0, SimTime::from_us(10)));
        let mut st = FaultState::new(plan);
        assert!(
            !st.device_submission(0, SimTime::from_us(5)),
            "before the deadline"
        );
        assert!(
            st.device_submission(0, SimTime::from_us(11)),
            "first submission past the deadline dies"
        );
        assert!(st.device_lost(0));
        assert!(
            !st.device_submission(0, SimTime::from_us(12)),
            "already dead, not dying anew"
        );
        assert_eq!(st.stats.device_deaths, 1);
    }

    #[test]
    fn link_flap_windows_fail_without_advancing_lane_ordinals() {
        let flap = LinkFlap::new(
            0,
            SimTime::from_us(10),
            SimTime::from_us(20),
            SimTime::from_us(5),
            2,
        );
        assert!(
            !flap.down_at(SimTime::from_us(5)),
            "before the first window"
        );
        assert!(flap.down_at(SimTime::from_us(12)), "inside window 1");
        assert!(!flap.down_at(SimTime::from_us(16)), "between windows");
        assert!(flap.down_at(SimTime::from_us(33)), "inside window 2");
        assert!(
            !flap.down_at(SimTime::from_us(52)),
            "cycle budget exhausted: the link stays up"
        );
        let plan = FaultPlan::none().with_link_flap(flap);
        let mut st = FaultState::new(plan);
        let nominal = SimTime::from_us(10);
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::from_us(12), nominal);
        assert!(v.faulted, "attempt inside the down window fails");
        assert_eq!(v.duration, SimTime::from_us(5), "fail_fraction 0.5");
        assert_eq!(st.stats.flap_faults, 1);
        assert_eq!(
            st.stats.h2d_attempts, 0,
            "flap failures advance no lane ordinal"
        );
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::from_us(16), nominal);
        assert!(!v.faulted, "retry after the window closes succeeds");
        assert_eq!(st.stats.h2d_attempts, 1);
        // Another device's transfers never see the flap.
        let v = st.transfer_enqueue(Lane::H2d, 1, 1, SimTime::from_us(12), nominal);
        assert!(!v.faulted);
    }

    #[test]
    fn ecc_accumulation_degrades_then_kills() {
        let plan = FaultPlan::none().with_seed(11).with_ecc(EccFault {
            device: 0,
            error_rate: 1.0,
            degrade_after: 2,
            degrade_factor: 2.0,
            kill_after: Some(4),
        });
        let mut st = FaultState::new(plan);
        let nominal = SimTime::from_us(10);
        // Errors 1 and 2 accumulate silently; transfer 2 crosses the
        // degrade threshold and runs stretched.
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(!v.faulted);
        assert_eq!(v.duration, nominal, "one error: not yet degraded");
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(!v.faulted);
        assert_eq!(v.duration, SimTime::from_us(20), "degraded past 2 errors");
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(!v.faulted, "three errors: degraded but alive");
        let v = st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, nominal);
        assert!(v.faulted, "fourth error retires the device");
        assert!(st.device_lost(0));
        assert_eq!(st.stats.ecc_errors, 4);
        assert_eq!(st.stats.ecc_degraded, 2);
        assert_eq!(st.stats.device_deaths, 1, "an ECC kill is a device death");
    }

    #[test]
    fn ecc_draws_are_seeded_and_deterministic() {
        let errors_with_seed = |seed: u64| -> u64 {
            let plan = FaultPlan::none().with_seed(seed).with_ecc(EccFault {
                device: 0,
                error_rate: 0.3,
                degrade_after: 1000,
                degrade_factor: 2.0,
                kill_after: None,
            });
            let mut st = FaultState::new(plan);
            for _ in 0..64 {
                st.transfer_enqueue(Lane::H2d, 0, 0, SimTime::ZERO, SimTime::from_us(10));
            }
            st.stats.ecc_errors
        };
        assert_eq!(errors_with_seed(5), errors_with_seed(5));
        assert!(errors_with_seed(5) > 0, "rate 0.3 over 64 draws errors");
        assert!(errors_with_seed(5) < 64, "rate 0.3 over 64 draws passes");
        assert_ne!(errors_with_seed(5), errors_with_seed(777));
    }
}
