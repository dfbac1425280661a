//! Device memory: the allocator and the integrity book.
//!
//! A first-fit free-list allocator over the simulated device address space,
//! with coalescing on free — the behaviour behind `malloc_device` /
//! `free_device` / `mem_get_info`. The accounting is what matters: TiDA-acc
//! sizes its device slot pool by querying free memory exactly as the paper's
//! `TileAcc` calls `cudaMemGetInfo`.
//!
//! [`IntegrityBook`] is the end-to-end transfer-integrity layer that sits on
//! top of the (non-ECC) device DRAM model: per-buffer content digests
//! ([`memslab::word_digest`]) recorded at every landing write, verified
//! before every read-side consumer, with bounded retransmission from the
//! authoritative side and explicit poison tracking when repair is
//! impossible. Each digest is kept with the slab's write stamp
//! ([`Slab::stamp`]) it was taken at, so a verification of bytes nobody
//! wrote since is a stamp compare, not a rehash: only a slab written since
//! its last digest is hashed again. A slab written only by copies
//! (landings, ghost-row updates) is not rehashed either: it keeps its
//! digest sum as a memo that each copy moves by the cells it writes. The
//! book runs inside data effects, so it is pure host-side bookkeeping: it
//! never submits operations and never changes the simulated schedule.

use crate::fault::CorruptVerdict;
use memslab::Slab;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Why a device allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    pub requested: u64,
    pub largest_free_block: u64,
    pub free_total: u64,
}

impl fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes, largest free block {} bytes, {} bytes free in total",
            self.requested, self.largest_free_block, self.free_total
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// First-fit free-list allocator with coalescing.
#[derive(Debug, Clone)]
pub struct DeviceAllocator {
    total: u64,
    /// Free extents as (addr, size), sorted by address, non-adjacent.
    free: Vec<(u64, u64)>,
}

impl DeviceAllocator {
    pub fn new(total: u64) -> Self {
        DeviceAllocator {
            total,
            free: if total > 0 { vec![(0, total)] } else { vec![] },
        }
    }

    /// Total device memory in bytes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Free device memory in bytes (sum over all free extents).
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|&(_, s)| s).sum()
    }

    /// Largest single allocatable block.
    pub fn largest_free_block(&self) -> u64 {
        self.free.iter().map(|&(_, s)| s).max().unwrap_or(0)
    }

    /// Allocate `size` bytes; returns the base address.
    pub fn alloc(&mut self, size: u64) -> Result<u64, OutOfDeviceMemory> {
        assert!(size > 0, "zero-sized device allocation");
        for i in 0..self.free.len() {
            let (addr, avail) = self.free[i];
            if avail >= size {
                if avail == size {
                    self.free.remove(i);
                } else {
                    self.free[i] = (addr + size, avail - size);
                }
                return Ok(addr);
            }
        }
        Err(OutOfDeviceMemory {
            requested: size,
            largest_free_block: self.largest_free_block(),
            free_total: self.free_bytes(),
        })
    }

    /// Return an extent to the free list, coalescing with neighbours.
    ///
    /// Panics on double-free or overlap with an existing free extent.
    pub fn free(&mut self, addr: u64, size: u64) {
        assert!(size > 0, "zero-sized device free");
        assert!(
            addr + size <= self.total,
            "free of [{addr}, {}) beyond device memory of {} bytes",
            addr + size,
            self.total
        );
        let pos = self.free.partition_point(|&(a, _)| a < addr);
        if let Some(&(next_addr, _)) = self.free.get(pos) {
            assert!(
                addr + size <= next_addr,
                "double free / overlap with free extent at {next_addr}"
            );
        }
        if pos > 0 {
            let (prev_addr, prev_size) = self.free[pos - 1];
            assert!(
                prev_addr + prev_size <= addr,
                "double free / overlap with free extent at {prev_addr}"
            );
        }
        self.free.insert(pos, (addr, size));
        // Coalesce with the successor, then the predecessor.
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
    }
}

/// Counters of the transfer-integrity layer. Detection and repair happen
/// inside data effects, so the counters are current after any host
/// synchronization point (`finish`, `stream_synchronize`, …).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Digest verifications performed (transfer completions and read-side
    /// pre-checks).
    pub verified: u64,
    /// Digest mismatches observed (in-flight flips caught at completion,
    /// resident strikes caught by the next consumer).
    pub detected: u64,
    /// Corruption events that ended with bit-identical data (successful
    /// retransmission or re-copy from the authoritative side).
    pub repaired: u64,
    /// Corruption events that exhausted their repair budget: the
    /// destination is poisoned and the poison propagates to every
    /// downstream consumer until an authoritative overwrite.
    pub unrepaired: u64,
}

/// A content digest and the write stamp of the slab it was taken from.
/// While the slab's stamp still equals `stamp`, `digest` is its digest.
#[derive(Clone, Copy)]
struct Stamped {
    stamp: u64,
    digest: u64,
}

impl Stamped {
    fn of(slab: &Slab) -> Option<Stamped> {
        slab.stamped_digest()
            .map(|(stamp, digest)| Stamped { stamp, digest })
    }
}

/// The authoritative host-side source of a *clean* device buffer: where its
/// bytes were last loaded from, and the digest they had then (with the
/// source slab's stamp at that time). While the entry exists the device
/// copy is redundant, so resident corruption can be repaired by re-copying.
/// A kernel write invalidates it (the device copy becomes the only one —
/// dirty in cache terms).
struct Origin {
    slab: Slab,
    off: usize,
    len: usize,
    digest: Option<Stamped>,
}

impl Origin {
    /// Whether the source range still holds the bytes it was loaded from.
    /// An unchanged stamp proves it without rehashing.
    fn intact(&self) -> bool {
        let Some(d) = self.digest else {
            return false;
        };
        d.stamp == self.slab.stamp() || self.slab.digest_range(self.off, self.len) == Some(d.digest)
    }
}

/// Per-buffer integrity bookkeeping for one [`crate::GpuSystem`].
///
/// Keys are raw buffer indices (`DeviceBuffer::index` / `HostBuffer::index`).
/// All methods run inside scheduler data effects, in dependency order, which
/// is exactly the order the modelled DMA engines and kernels touch the data.
pub(crate) struct IntegrityBook {
    /// Whether digests are computed and verified. On by default; turning it
    /// off skips the digest arithmetic (the overhead being measured by the
    /// `figures -- integrity` benchmark) but keeps the injected-corruption
    /// data behaviour identical so results never silently diverge.
    enabled: bool,
    /// Last known-good whole-buffer digest per device buffer, with the
    /// stamp it was taken at (backed runs only; virtual slabs have no bytes
    /// to digest).
    digests: HashMap<usize, Stamped>,
    /// Authoritative host source per clean device buffer.
    origins: HashMap<usize, Origin>,
    poisoned_dev: HashSet<usize>,
    poisoned_host: HashSet<usize>,
    stats: IntegrityStats,
}

impl IntegrityBook {
    pub(crate) fn new() -> Self {
        IntegrityBook {
            enabled: true,
            digests: HashMap::new(),
            origins: HashMap::new(),
            poisoned_dev: HashSet::new(),
            poisoned_host: HashSet::new(),
            stats: IntegrityStats::default(),
        }
    }

    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn stats(&self) -> IntegrityStats {
        self.stats
    }

    pub(crate) fn device_poisoned(&self, idx: usize) -> bool {
        self.poisoned_dev.contains(&idx)
    }

    pub(crate) fn host_poisoned(&self, idx: usize) -> bool {
        self.poisoned_host.contains(&idx)
    }

    /// The caller restored authoritative contents into a host buffer (e.g.
    /// from a checkpoint): clear its poison mark.
    pub(crate) fn clear_host_poison(&mut self, idx: usize) {
        self.poisoned_host.remove(&idx);
    }

    /// Account a copy whose data effect was elided: on an unbacked platform
    /// with no corruption scheduled, every slab is virtual and every poison
    /// set provably stays empty, so the only observable action a transfer
    /// effect performs is this counter bump. Must mirror what
    /// `transfer_with_retransmits` does on a clean verdict.
    pub(crate) fn note_passive_copy(&mut self) {
        if self.enabled {
            self.stats.verified += 1;
        }
    }

    /// Run one transfer attempt plus the in-flight corruption / verify /
    /// retransmit loop the verdict prescribes. Returns `true` when the
    /// destination range ended poisoned (every attempt corrupted).
    ///
    /// The copy is re-issued from `src` — the authoritative side of the
    /// transfer — up to the retransmit budget the verdict already charged to
    /// the engine at enqueue time, so data repair here never changes timing.
    fn transfer_with_retransmits(
        &mut self,
        dst: &Slab,
        dst_off: usize,
        src: &Slab,
        src_off: usize,
        len: usize,
        corrupt: Option<CorruptVerdict>,
    ) -> bool {
        self.retransmit_loop(
            corrupt,
            || memslab::copy(dst, dst_off, src, src_off, len),
            |strike| dst.flip_bit(strike, dst_off, len),
            || src.digest_range(src_off, len) != dst.digest_range(dst_off, len),
        )
    }

    /// [`IntegrityBook::transfer_with_retransmits`] for a gathered transfer
    /// of `runs` (`(offset, len)`, the same on both sides) holding `cells`
    /// cells in all: every attempt moves exactly those cells, and an
    /// in-flight flip lands on one of them.
    fn gather_with_retransmits(
        &mut self,
        dst: &Slab,
        src: &Slab,
        runs: &[(usize, usize)],
        cells: usize,
        corrupt: Option<CorruptVerdict>,
    ) -> bool {
        self.retransmit_loop(
            corrupt,
            || memslab::copy_runs(dst, src, runs),
            |strike| {
                // The strike picks one moved cell; `flip_bit` over that one
                // cell keeps its bit choice.
                let mut k = (strike as usize) % cells.max(1);
                for &(off, len) in runs {
                    if k < len {
                        return dst.flip_bit(strike, off + k, 1);
                    }
                    k -= len;
                }
                false
            },
            || {
                runs.iter()
                    .any(|&(off, len)| src.digest_range(off, len) != dst.digest_range(off, len))
            },
        )
    }

    /// The loop both transfer shapes share: `copy` once, then for each
    /// corrupted attempt `flip` a seeded bit in what landed, count the
    /// detection, and `copy` again unless the budget ran out. `differs`
    /// recomputes both sides' digests of the moved cells; only debug builds
    /// call it, to confirm an injected flip is visible.
    fn retransmit_loop(
        &mut self,
        corrupt: Option<CorruptVerdict>,
        mut copy: impl FnMut(),
        mut flip: impl FnMut(u64) -> bool,
        differs: impl Fn() -> bool,
    ) -> bool {
        copy();
        if self.enabled {
            self.stats.verified += 1;
        }
        let Some(c) = corrupt else {
            return false;
        };
        let mut unrepaired = false;
        for attempt in 0..c.corrupt_attempts {
            // Each corrupted attempt lands a different seeded flip.
            let strike = c
                .strike
                .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let flipped = flip(strike);
            if self.enabled {
                // End-to-end check: sender-side digest vs what landed. The
                // mismatch is guaranteed (a single flipped bit always
                // changes the word digest), so only debug builds pay to
                // recompute both sides and confirm it.
                if cfg!(debug_assertions) && flipped {
                    debug_assert!(differs(), "injected flip must be visible");
                }
                self.stats.detected += 1;
                self.stats.verified += 1;
            }
            let last = attempt + 1 == c.corrupt_attempts;
            if last && c.unrepaired {
                unrepaired = true;
            } else {
                // Retransmit from the authoritative side (engine time for
                // this was charged at enqueue).
                copy();
            }
        }
        if c.corrupt_attempts > 0 && self.enabled {
            if unrepaired {
                self.stats.unrepaired += 1;
            } else {
                self.stats.repaired += 1;
            }
        }
        unrepaired
    }

    /// Read-side pre-check of a device buffer: verify its current bytes
    /// against the last recorded digest and repair from the authoritative
    /// origin when they diverge (a resident strike on a clean slot).
    /// Returns `true` when the buffer is (or became) poisoned.
    ///
    /// A slab whose stamp still matches the recorded one was not written
    /// since its digest was taken, so it verifies without a rehash (and is
    /// counted exactly as a rehashed verification would be).
    fn verify_device(&mut self, idx: usize, slab: &Slab) -> bool {
        if self.poisoned_dev.contains(&idx) {
            return true;
        }
        if !self.enabled {
            return false;
        }
        let Some(expected) = self.digests.get(&idx).copied() else {
            return false;
        };
        if slab.stamp() != expected.stamp {
            let Some(now) = Stamped::of(slab) else {
                return false;
            };
            if now.digest != expected.digest {
                self.stats.verified += 1;
                return self.repair_device(idx, slab, expected.digest);
            }
            // Rewritten with identical bytes: the digest holds at the new
            // stamp.
            self.digests.insert(idx, now);
        }
        self.stats.verified += 1;
        false
    }

    /// A device buffer failed its pre-check against `expected`. Returns
    /// `true` when it ends poisoned.
    fn repair_device(&mut self, idx: usize, slab: &Slab, expected: u64) -> bool {
        self.stats.detected += 1;
        // Quarantine-and-retransmit: if the host still holds the
        // authoritative bytes (clean slot), re-copy them and re-verify.
        if let Some(o) = self.origins.get(&idx) {
            if o.intact() {
                memslab::copy(slab, 0, &o.slab, o.off, o.len);
                if let Some(now) = Stamped::of(slab).filter(|now| now.digest == expected) {
                    self.digests.insert(idx, now);
                    self.stats.repaired += 1;
                    return false;
                }
            }
        }
        // Dirty (or stale-origin) slot: the device held the only copy.
        self.stats.unrepaired += 1;
        self.poisoned_dev.insert(idx);
        self.origins.remove(&idx);
        self.digests.remove(&idx);
        true
    }

    /// Record the post-write digest of a device buffer. Rehashes only when
    /// the slab was written since the recorded digest was taken. Returns
    /// the digest (`None` when virtual or checking is off).
    fn record_digest(&mut self, idx: usize, slab: &Slab) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        if let Some(d) = self.digests.get(&idx) {
            if d.stamp == slab.stamp() {
                return Some(d.digest);
            }
        }
        match Stamped::of(slab) {
            Some(d) => {
                self.digests.insert(idx, d);
                Some(d.digest)
            }
            None => {
                self.digests.remove(&idx);
                None
            }
        }
    }

    /// Record the post-write state of a device buffer after a clean landing
    /// write covering `dst_off..dst_off+len`.
    fn record_device_write(&mut self, idx: usize, slab: &Slab, covers_all: bool) -> Option<u64> {
        if covers_all {
            self.poisoned_dev.remove(&idx);
        }
        self.record_digest(idx, slab)
    }

    /// H2D landing: copy + in-flight corruption handling + bookkeeping,
    /// then any scheduled resident strike on the settled slot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn h2d_effect(
        &mut self,
        dst: &Slab,
        dst_idx: usize,
        dst_off: usize,
        src: &Slab,
        src_idx: usize,
        src_off: usize,
        len: usize,
        corrupt: Option<CorruptVerdict>,
    ) {
        let covers_all = dst_off == 0 && len == dst.len();
        if !covers_all {
            // A partial landing (a ghost patch) leaves the rest of the slab
            // untouched: verify it first, or resident corruption there would
            // be blessed into the fresh post-landing digest.
            self.verify_device(dst_idx, dst);
        }
        let unrepaired = self.transfer_with_retransmits(dst, dst_off, src, src_off, len, corrupt);
        if unrepaired || self.poisoned_host.contains(&src_idx) {
            self.poisoned_dev.insert(dst_idx);
            self.origins.remove(&dst_idx);
            self.digests.remove(&dst_idx);
            return;
        }
        let landed = self.record_device_write(dst_idx, dst, covers_all);
        if covers_all && self.enabled {
            // The landing was clean and covers the whole slab, so the
            // device digest is the source range's digest too: the source
            // bytes are not hashed a second time.
            let digest = match landed {
                Some(digest) if !src.is_virtual() => Some(Stamped {
                    stamp: src.stamp(),
                    digest,
                }),
                _ => None,
            };
            self.origins.insert(
                dst_idx,
                Origin {
                    slab: src.clone(),
                    off: src_off,
                    len,
                    digest,
                },
            );
        } else if !covers_all {
            self.origins.remove(&dst_idx);
        }
        // A resident strike (non-ECC DRAM bit flip) lands after the digest
        // was recorded: the next consumer's pre-check sees the mismatch.
        if let Some(strike) = corrupt.and_then(|c| c.resident_strike) {
            dst.flip_bit(strike, 0, dst.len());
        }
    }

    /// D2H landing: pre-verify the device source, copy + in-flight
    /// corruption handling, propagate poison to the host destination.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn d2h_effect(
        &mut self,
        dst: &Slab,
        dst_idx: usize,
        dst_off: usize,
        src: &Slab,
        src_idx: usize,
        src_off: usize,
        len: usize,
        corrupt: Option<CorruptVerdict>,
    ) {
        let src_bad = self.verify_device(src_idx, src);
        let unrepaired = self.transfer_with_retransmits(dst, dst_off, src, src_off, len, corrupt);
        if src_bad || unrepaired {
            self.poisoned_host.insert(dst_idx);
        } else if dst_off == 0 && len == dst.len() {
            // A clean full overwrite restores the host buffer.
            self.poisoned_host.remove(&dst_idx);
        }
    }

    /// Gathered D2H landing: `d2h_effect` over the cells of `runs`
    /// (`(offset, len)`, the same on both sides; `cells` in all). Only the
    /// moved cells land, are struck in flight, and are retransmitted. The
    /// poison rule is `d2h_effect`'s: only a clean write of every cell of
    /// the host buffer clears its poison.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn d2h_gather_effect(
        &mut self,
        dst: &Slab,
        dst_idx: usize,
        src: &Slab,
        src_idx: usize,
        runs: &[(usize, usize)],
        cells: usize,
        corrupt: Option<CorruptVerdict>,
    ) {
        let src_bad = self.verify_device(src_idx, src);
        let unrepaired = self.gather_with_retransmits(dst, src, runs, cells, corrupt);
        if src_bad || unrepaired {
            self.poisoned_host.insert(dst_idx);
        } else if cells == dst.len() {
            self.poisoned_host.remove(&dst_idx);
        }
    }

    /// Device→device copy (same-device `d2d` or peer `p2p`): pre-verify the
    /// source, copy, and carry poison across. The destination becomes
    /// device-sourced, so it loses any host origin.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dev_copy_effect(
        &mut self,
        dst: &Slab,
        dst_idx: usize,
        dst_off: usize,
        src: &Slab,
        src_idx: usize,
        src_off: usize,
        len: usize,
    ) {
        let src_bad = self.verify_device(src_idx, src);
        if !(dst_off == 0 && len == dst.len()) {
            // Same partial-write rule as `h2d_effect`: check the untouched
            // remainder before the new digest is recorded over it.
            self.verify_device(dst_idx, dst);
        }
        memslab::copy(dst, dst_off, src, src_off, len);
        if self.enabled {
            self.stats.verified += 1;
        }
        if src_bad {
            self.poisoned_dev.insert(dst_idx);
            self.origins.remove(&dst_idx);
            self.digests.remove(&dst_idx);
            return;
        }
        self.record_device_write(dst_idx, dst, dst_off == 0 && len == dst.len());
        self.origins.remove(&dst_idx);
    }

    /// Kernel pre-check: verify every device buffer the kernel reads.
    /// Returns whether any input is poisoned.
    pub(crate) fn kernel_pre(&mut self, reads: &[(usize, Slab)], writes: &[(usize, Slab)]) -> bool {
        // Write targets are verified too: a kernel that writes only part of
        // a slab (a ghost-zone update) gets a fresh whole-slab digest in
        // `kernel_post`, which would otherwise launder resident corruption
        // sitting in the untouched bytes. Poison found on a write target
        // sticks to that buffer (a partial overwrite cannot clear it) but
        // does not spread to the kernel's other outputs — those derive from
        // the read set.
        for (idx, slab) in writes {
            self.verify_device(*idx, slab);
        }
        let mut poisoned = false;
        for (idx, slab) in reads {
            poisoned |= self.verify_device(*idx, slab);
        }
        poisoned
    }

    /// Kernel post-processing: written buffers become dirty (no host
    /// origin); poisoned inputs poison every output; an optional resident
    /// strike then flips a bit in the first written buffer — dirty data, so
    /// the next consumer finds it unrepairable.
    ///
    /// `undeclared` marks a kernel that ran a data effect without declaring
    /// its write set. Such a kernel may have mutated any device buffer, so
    /// every recorded digest and origin is forfeit — otherwise a later
    /// verification pass would mistake the legitimate (but untracked) write
    /// for resident corruption and "repair" it away.
    pub(crate) fn kernel_post(
        &mut self,
        inputs_poisoned: bool,
        writes: &[(usize, Slab)],
        undeclared: bool,
        strike: Option<u64>,
    ) {
        if undeclared {
            self.digests.clear();
            self.origins.clear();
        }
        for (idx, slab) in writes {
            self.origins.remove(idx);
            if inputs_poisoned {
                self.poisoned_dev.insert(*idx);
                self.digests.remove(idx);
            } else {
                // A kernel write never clears existing poison: we cannot
                // know it overwrote every poisoned byte.
                self.record_digest(*idx, slab);
            }
        }
        if let Some(strike) = strike {
            if let Some((_, slab)) = writes.first() {
                if !slab.is_empty() {
                    slab.flip_bit(strike, 0, slab.len());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut a = DeviceAllocator::new(1000);
        let p = a.alloc(400).unwrap();
        assert_eq!(p, 0);
        assert_eq!(a.free_bytes(), 600);
        a.free(p, 400);
        assert_eq!(a.free_bytes(), 1000);
        assert_eq!(a.largest_free_block(), 1000);
    }

    #[test]
    fn first_fit_reuses_earliest_gap() {
        let mut a = DeviceAllocator::new(1000);
        let p0 = a.alloc(100).unwrap();
        let _p1 = a.alloc(100).unwrap();
        a.free(p0, 100);
        let p2 = a.alloc(50).unwrap();
        assert_eq!(p2, 0, "first fit should reuse the hole at 0");
    }

    #[test]
    fn oom_reports_fragmentation() {
        let mut a = DeviceAllocator::new(300);
        let p0 = a.alloc(100).unwrap();
        let _p1 = a.alloc(100).unwrap();
        let _p2 = a.alloc(100).unwrap();
        a.free(p0, 100);
        let err = a.alloc(150).unwrap_err();
        assert_eq!(err.free_total, 100);
        assert_eq!(err.largest_free_block, 100);
        assert_eq!(err.requested, 150);
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn coalescing_merges_adjacent_extents() {
        let mut a = DeviceAllocator::new(300);
        let p0 = a.alloc(100).unwrap();
        let p1 = a.alloc(100).unwrap();
        let p2 = a.alloc(100).unwrap();
        a.free(p0, 100);
        a.free(p2, 100);
        a.free(p1, 100); // merges everything back
        assert_eq!(a.largest_free_block(), 300);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = DeviceAllocator::new(100);
        let p = a.alloc(50).unwrap();
        a.free(p, 50);
        a.free(p, 50);
    }

    #[test]
    #[should_panic(expected = "beyond device memory")]
    fn free_out_of_range_panics() {
        let mut a = DeviceAllocator::new(100);
        a.free(90, 20);
    }

    #[test]
    fn exhausts_exactly() {
        let mut a = DeviceAllocator::new(100);
        a.alloc(60).unwrap();
        a.alloc(40).unwrap();
        assert_eq!(a.free_bytes(), 0);
        assert!(a.alloc(1).is_err());
    }

    #[test]
    fn zero_capacity_allocator() {
        let mut a = DeviceAllocator::new(0);
        assert_eq!(a.free_bytes(), 0);
        assert!(a.alloc(1).is_err());
    }

    fn filled(len: usize) -> Slab {
        let s = Slab::new(len, true);
        s.fill_with(|i| i as f64 * 1.25 + 3.0);
        s
    }

    fn verdict(corrupt_attempts: u32, unrepaired: bool) -> CorruptVerdict {
        CorruptVerdict {
            corrupt_attempts,
            unrepaired,
            strike: 0x1234_5678_9abc_def0,
            resident_strike: None,
        }
    }

    #[test]
    fn in_flight_corruption_is_detected_and_retransmitted() {
        let mut b = IntegrityBook::new();
        let host = filled(64);
        let dev = Slab::new(64, true);
        b.h2d_effect(&dev, 0, 0, &host, 0, 0, 64, Some(verdict(2, false)));
        assert_eq!(dev.digest(), host.digest(), "repair is bit-identical");
        assert!(!b.device_poisoned(0));
        let s = b.stats();
        assert_eq!(s.detected, 2);
        assert_eq!(s.repaired, 1);
        assert_eq!(s.unrepaired, 0);
    }

    #[test]
    fn exhausted_retransmits_poison_and_propagate() {
        let mut b = IntegrityBook::new();
        let host = filled(32);
        let dev = Slab::new(32, true);
        b.h2d_effect(&dev, 0, 0, &host, 0, 0, 32, Some(verdict(3, true)));
        assert!(b.device_poisoned(0));
        assert_eq!(b.stats().unrepaired, 1);
        // The poison rides the writeback to the host...
        let out = Slab::new(32, true);
        b.d2h_effect(&out, 5, 0, &dev, 0, 0, 32, None);
        assert!(b.host_poisoned(5));
        // ...until an authoritative full reload clears the device side.
        b.h2d_effect(&dev, 0, 0, &host, 0, 0, 32, None);
        assert!(!b.device_poisoned(0));
        b.d2h_effect(&out, 5, 0, &dev, 0, 0, 32, None);
        assert!(
            !b.host_poisoned(5),
            "clean full overwrite restores the host"
        );
    }

    #[test]
    fn resident_strike_on_clean_slot_repairs_from_origin() {
        let mut b = IntegrityBook::new();
        let host = filled(48);
        let dev = Slab::new(48, true);
        let strike = CorruptVerdict {
            resident_strike: Some(7),
            ..verdict(0, false)
        };
        b.h2d_effect(&dev, 0, 0, &host, 0, 0, 48, Some(strike));
        assert_ne!(dev.digest(), host.digest(), "strike landed after settle");
        // Next consumer pre-checks, catches the flip, re-copies from the
        // authoritative host origin.
        let out = Slab::new(48, true);
        b.d2h_effect(&out, 0, 0, &dev, 0, 0, 48, None);
        assert_eq!(out.digest(), host.digest(), "consumer saw repaired bytes");
        assert!(!b.device_poisoned(0));
        assert!(!b.host_poisoned(0));
        assert_eq!(b.stats().repaired, 1);
    }

    #[test]
    fn dirty_strike_is_unrepairable_and_poisons_writeback() {
        let mut b = IntegrityBook::new();
        let host = filled(16);
        let dev = Slab::new(16, true);
        b.h2d_effect(&dev, 0, 0, &host, 0, 0, 16, None);
        // Kernel writes the buffer (clears the origin), then DRAM flips a
        // bit in the freshly written data.
        assert!(!b.kernel_pre(&[(0, dev.clone())], &[]));
        dev.fill_with(|i| i as f64 * 2.0);
        b.kernel_post(false, &[(0, dev.clone())], false, Some(99));
        let out = Slab::new(16, true);
        b.d2h_effect(&out, 0, 0, &dev, 0, 0, 16, None);
        assert!(b.device_poisoned(0), "dirty slot had the only copy");
        assert!(b.host_poisoned(0), "stale host copy must not be trusted");
        assert_eq!(b.stats().unrepaired, 1);
    }

    #[test]
    fn poisoned_inputs_poison_kernel_outputs() {
        let mut b = IntegrityBook::new();
        let host = filled(8);
        let a = Slab::new(8, true);
        let o = Slab::new(8, true);
        b.h2d_effect(&a, 0, 0, &host, 0, 0, 8, Some(verdict(3, true)));
        let poisoned = b.kernel_pre(&[(0, a.clone())], &[]);
        assert!(poisoned);
        b.kernel_post(poisoned, &[(1, o.clone())], false, None);
        assert!(b.device_poisoned(1));
    }

    #[test]
    fn virtual_slabs_keep_counters_but_skip_digests() {
        let mut b = IntegrityBook::new();
        let host = Slab::new(64, false);
        let dev = Slab::new(64, false);
        b.h2d_effect(&dev, 0, 0, &host, 0, 0, 64, Some(verdict(1, false)));
        let s = b.stats();
        assert_eq!(s.detected, 1, "verdict-driven counters are backing-blind");
        assert_eq!(s.repaired, 1);
    }

    proptest! {
        /// Random alloc/free sequences: allocations never overlap, and the
        /// free-byte accounting is conserved.
        #[test]
        fn prop_no_overlap_and_conservation(ops in proptest::collection::vec((any::<bool>(), 1u64..128), 1..60)) {
            let total = 1024u64;
            let mut a = DeviceAllocator::new(total);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (do_alloc, size) in ops {
                if do_alloc || live.is_empty() {
                    if let Ok(addr) = a.alloc(size) {
                        for &(la, ls) in &live {
                            prop_assert!(addr + size <= la || la + ls <= addr,
                                "allocation [{addr},{}) overlaps live [{la},{})", addr+size, la+ls);
                        }
                        live.push((addr, size));
                    }
                } else {
                    let (addr, sz) = live.swap_remove(size as usize % live.len());
                    a.free(addr, sz);
                }
                let live_bytes: u64 = live.iter().map(|&(_, s)| s).sum();
                prop_assert_eq!(a.free_bytes() + live_bytes, total);
            }
            // Releasing everything restores one maximal block.
            for (addr, sz) in live.drain(..) {
                a.free(addr, sz);
            }
            prop_assert_eq!(a.largest_free_block(), total);
        }
    }
}
