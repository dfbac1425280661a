//! Shared, optionally-backed `f64` buffers.
//!
//! Every memory object in the simulation stack — host arrays (pageable,
//! pinned, managed) and device allocations — is a [`Slab`]: a reference-counted
//! buffer of `f64` elements that is either *real* (backed by a `Vec<f64>`) or
//! *virtual* (it has a length but no storage).
//!
//! Virtual slabs exist so that the benchmark harness can run the paper's
//! full-scale workloads (512³ doubles ≈ 1 GiB per array) through the
//! discrete-event scheduler without allocating the data: the cost model only
//! needs byte counts. Correctness tests run the very same code paths with
//! real slabs at small sizes, where kernels and copies actually move data.
//!
//! All data-moving helpers are no-ops when either side is virtual, so a
//! program is oblivious to which mode it runs in.
//!
//! Real storage of a page or more is *demand-zero*: [`Slab::real`] records
//! only that the slab is backed, and the zeroed buffer is allocated by the
//! first access that reads or writes data. A backed slab that is never
//! touched costs no memory, and set-up code that builds many buffers does
//! not pay for pages the run fills later. Smaller slabs are allocated at
//! construction: deferring them would save no page.
//!
//! Every exclusive access to a backed slab draws a fresh **write stamp**
//! from one process-wide counter (see [`Slab::stamp`]). Two equal stamps
//! therefore mean "the same storage, unchanged in between", which lets a
//! caller memoise a content digest and skip rehashing bytes nobody wrote.

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash — the workspace's byte-stream checksum.
///
/// Used by the checkpoint codec (per-section checksums in the `TACK`
/// format) and by content fingerprints that must stay stable across
/// versions (serving golden digests). Keeping the single implementation
/// here, in the leaf crate every layer already depends on, guarantees a
/// checksum recorded by one layer verifies under another.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a64`] over the little-endian byte image of an `f64` slice.
pub fn fnv1a64_f64s(values: &[f64]) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Number of independent lanes in [`word_digest`].
const LANES: usize = 4;

/// Word-wide content digest of an `f64` slice — the integrity layer's
/// digest ([`Slab::digest`]).
///
/// Element `i` feeds lane `i % 4` as one 64-bit word (its bit pattern):
/// `lane = (lane ^ word) * FNV_PRIME`, an FNV-1a step over a whole word
/// instead of a byte. The four lanes carry no dependency on each other, so
/// the multiplies overlap in the pipeline, and the slice is read eight
/// bytes per step. At the end the length and the lanes are folded with the
/// same step.
///
/// Every step is a bijection of the lane (or fold) state: XOR with a word
/// is its own inverse and the FNV prime is odd, so multiplication by it is
/// invertible mod 2⁶⁴. A change confined to one element therefore changes
/// its lane, that change survives every later step, and the fold is a
/// bijection in each lane with the others fixed — any single-element
/// change, in particular any single bit flip, always changes the digest.
///
/// Not interchangeable with [`fnv1a64_f64s`]: the two hash the same bytes
/// to different values.
pub fn word_digest(values: &[f64]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME);
    let mut lanes = [FNV_OFFSET; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for c in &mut chunks {
        for k in 0..LANES {
            lanes[k] = step(lanes[k], c[k].to_bits());
        }
    }
    for (k, v) in chunks.remainder().iter().enumerate() {
        lanes[k] = step(lanes[k], v.to_bits());
    }
    lanes
        .iter()
        .fold(step(FNV_OFFSET, values.len() as u64), |h, &l| step(h, l))
}

/// Source of write stamps: one counter for the whole process, so a stamp is
/// never reused by another slab or another write.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    // Relaxed: the counter only has to hand out distinct values. A stamp is
    // stored and read under its slab's lock, which orders it with the data.
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// The state behind a slab's lock: its current write stamp and its data.
///
/// The stamp doubles as the backing flag, so the state is no larger than
/// the `Option<Vec<f64>>` it replaces: `stamp == 0` is virtual storage
/// (never any data), a non-zero stamp is backed storage — demand-zero while
/// `data` is `None`, allocated once it is `Some`. Stamps are drawn from a
/// counter that starts at 1, so a backed slab never reads 0.
struct Storage {
    stamp: u64,
    data: Option<Box<[f64]>>,
}

/// Slabs of at least this many elements (one 4 KiB page) are demand-zero;
/// shorter ones get their zeroed storage at construction. Deferring a
/// sub-page buffer saves no page — it shares pages with other heap blocks —
/// and allocating it in the middle of a run scatters small blocks among the
/// run's own allocations, where they pin the heap top: on the model
/// checker, whose slabs are all 2 KiB, deferring them raised peak RSS.
const DEMAND_ZERO_MIN_LEN: usize = 4096 / std::mem::size_of::<f64>();

impl Storage {
    const VIRTUAL: Storage = Storage {
        stamp: 0,
        data: None,
    };

    fn backed(data: Option<Box<[f64]>>) -> Self {
        Storage {
            stamp: next_stamp(),
            data,
        }
    }

    /// Backed storage of `len` zeros: demand-zero from one page up,
    /// allocated now below that.
    fn zeroed(len: usize) -> Self {
        Storage::backed((len < DEMAND_ZERO_MIN_LEN).then(|| zeros(len)))
    }

    fn is_virtual(&self) -> bool {
        self.stamp == 0
    }

    /// Backed but not yet allocated.
    fn is_demand_zero(&self) -> bool {
        self.stamp != 0 && self.data.is_none()
    }

    /// Give demand-zero storage its zeroed pages. Contents do not change,
    /// so the stamp does not either.
    fn allocate(&mut self, len: usize) {
        if self.is_demand_zero() {
            self.data = Some(zeros(len));
        }
    }
}

fn zeros(len: usize) -> Box<[f64]> {
    vec![0.0; len].into_boxed_slice()
}

/// A shared, optionally-backed buffer of `f64`.
///
/// Cloning a `Slab` is cheap and yields another handle to the same storage
/// (and the same stamp).
#[derive(Clone)]
pub struct Slab {
    len: usize,
    inner: Arc<RwLock<Storage>>,
}

impl fmt::Debug for Slab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slab")
            .field("len", &self.len)
            .field("virtual", &self.is_virtual())
            .finish()
    }
}

impl Slab {
    fn with_storage(len: usize, storage: Storage) -> Self {
        Slab {
            len,
            inner: Arc::new(RwLock::new(storage)),
        }
    }

    /// A real slab of `len` elements, zero-initialized. From one 4 KiB page
    /// of elements up, the zeroed storage is allocated by the first access,
    /// not here.
    pub fn real(len: usize) -> Self {
        Self::with_storage(len, Storage::zeroed(len))
    }

    /// A real slab taking ownership of `data`.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self::with_storage(data.len(), Storage::backed(Some(data.into_boxed_slice())))
    }

    /// A virtual slab: it has a length (and therefore a byte size for the
    /// cost model) but no backing storage.
    pub fn virtual_(len: usize) -> Self {
        Self::with_storage(len, Storage::VIRTUAL)
    }

    /// Real if `backed`, virtual otherwise. Convenience for harnesses that
    /// switch between validated and timing-only runs with a flag.
    pub fn new(len: usize, backed: bool) -> Self {
        if backed {
            Self::real(len)
        } else {
            Self::virtual_(len)
        }
    }

    /// Shared access, allocating demand-zero storage first.
    fn read(&self) -> RwLockReadGuard<'_, Storage> {
        loop {
            let guard = self.inner.read();
            if !guard.is_demand_zero() {
                return guard;
            }
            drop(guard);
            self.inner.write().allocate(self.len);
        }
    }

    /// Exclusive access for a write: every byte-changing path comes through
    /// here, and it draws the new stamp. Demand-zero storage is allocated
    /// first; virtual storage is left alone (no stamp, no work).
    fn write(&self) -> RwLockWriteGuard<'_, Storage> {
        let mut guard = self.inner.write();
        if !guard.is_virtual() {
            guard.allocate(self.len);
            guard.stamp = next_stamp();
        }
        guard
    }

    /// Number of `f64` elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes (valid for both real and virtual slabs).
    pub fn bytes(&self) -> u64 {
        (self.len * std::mem::size_of::<f64>()) as u64
    }

    /// True when the slab has no backing storage.
    pub fn is_virtual(&self) -> bool {
        self.inner.read().is_virtual()
    }

    /// Two handles are aliases when they share storage.
    pub fn same_storage(&self, other: &Slab) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The current write stamp. Every access that can change a backed
    /// slab's bytes — [`Slab::with_mut`], [`Slab::set`], the fills,
    /// [`Slab::write_guard`], being the destination of [`copy`] or
    /// [`gather`], [`Slab::flip_bit`], and [`Slab::materialize`] of a
    /// virtual slab — draws a new stamp from a process-wide counter, so a
    /// stamp equal to one read earlier proves the contents are unchanged
    /// since. Virtual slabs (including dematerialized ones) read 0.
    pub fn stamp(&self) -> u64 {
        self.inner.read().stamp
    }

    /// Run `f` with a shared view of the data (`None` when virtual).
    pub fn with<R>(&self, f: impl FnOnce(Option<&[f64]>) -> R) -> R {
        let guard = self.read();
        f(guard.data.as_deref())
    }

    /// Run `f` with an exclusive view of the data (`None` when virtual).
    pub fn with_mut<R>(&self, f: impl FnOnce(Option<&mut [f64]>) -> R) -> R {
        let mut guard = self.write();
        f(guard.data.as_deref_mut())
    }

    /// Read one element. `None` when virtual. Panics when out of bounds.
    pub fn get(&self, idx: usize) -> Option<f64> {
        assert!(
            idx < self.len,
            "Slab::get: index {idx} out of bounds {}",
            self.len
        );
        self.read().data.as_ref().map(|v| v[idx])
    }

    /// Write one element. No-op when virtual. Panics when out of bounds.
    pub fn set(&self, idx: usize, value: f64) {
        assert!(
            idx < self.len,
            "Slab::set: index {idx} out of bounds {}",
            self.len
        );
        if let Some(v) = self.write().data.as_deref_mut() {
            v[idx] = value;
        }
    }

    /// Fill every element with `value`. No-op when virtual.
    pub fn fill(&self, value: f64) {
        if let Some(v) = self.write().data.as_deref_mut() {
            v.fill(value);
        }
    }

    /// Initialize each element from `f(index)`. No-op when virtual.
    pub fn fill_with(&self, mut f: impl FnMut(usize) -> f64) {
        if let Some(v) = self.write().data.as_deref_mut() {
            for (i, x) in v.iter_mut().enumerate() {
                *x = f(i);
            }
        }
    }

    /// Copy the whole contents out (for assertions). `None` when virtual.
    pub fn snapshot(&self) -> Option<Vec<f64>> {
        self.read().data.as_deref().map(<[f64]>::to_vec)
    }

    /// Give a virtual slab zeroed real storage (demand-zero, as
    /// [`Slab::real`]); no-op when already real.
    pub fn materialize(&self) {
        let mut guard = self.inner.write();
        if guard.is_virtual() {
            *guard = Storage::zeroed(self.len);
        }
    }

    /// Drop the backing storage, making the slab virtual again.
    pub fn dematerialize(&self) {
        *self.inner.write() = Storage::VIRTUAL;
    }

    /// Content digest of the whole slab ([`word_digest`]); `None` when
    /// virtual — timing-only runs carry no data to checksum.
    pub fn digest(&self) -> Option<u64> {
        self.digest_range(0, self.len)
    }

    /// Content digest of `len` elements starting at `off`. `None` when
    /// virtual. Panics when the range is out of bounds.
    pub fn digest_range(&self, off: usize, len: usize) -> Option<u64> {
        self.stamped_digest_range(off, len).map(|(_, d)| d)
    }

    /// [`Slab::digest`] together with the stamp the contents had when they
    /// were hashed, read under one lock: `(stamp, digest)`.
    pub fn stamped_digest(&self) -> Option<(u64, u64)> {
        self.stamped_digest_range(0, self.len)
    }

    /// [`Slab::digest_range`] together with the whole slab's stamp at the
    /// time of hashing: `(stamp, digest)`.
    fn stamped_digest_range(&self, off: usize, len: usize) -> Option<(u64, u64)> {
        assert!(
            off + len <= self.len,
            "Slab::digest_range: range {off}+{len} exceeds {}",
            self.len
        );
        let guard = self.read();
        guard
            .data
            .as_ref()
            .map(|v| (guard.stamp, word_digest(&v[off..off + len])))
    }

    /// Flip one bit of one element — the silent-corruption injection
    /// primitive (a non-ECC DRAM upset or a bus bit-flip). The strike
    /// site is derived from `strike` so a seeded fault plan lands on a
    /// deterministic bit. No-op when virtual (returns `false`).
    pub fn flip_bit(&self, strike: u64, off: usize, len: usize) -> bool {
        assert!(
            off + len <= self.len,
            "Slab::flip_bit: range {off}+{len} exceeds {}",
            self.len
        );
        if len == 0 {
            return false;
        }
        if let Some(v) = self.write().data.as_deref_mut() {
            let idx = off + (strike as usize) % len;
            // Flip within the mantissa so the value stays finite but wrong.
            let bit = (strike >> 32) % 52;
            v[idx] = f64::from_bits(v[idx].to_bits() ^ (1u64 << bit));
            true
        } else {
            false
        }
    }

    /// Acquire a shared guard (for building multi-slab views; see
    /// `tida::with_many`). Prefer [`Slab::with`] for single-slab access.
    pub fn read_guard(&self) -> ReadGuard<'_> {
        ReadGuard(self.read())
    }

    /// Acquire an exclusive guard. Deadlocks if the same storage is already
    /// guarded — callers must check [`Slab::same_storage`] first.
    pub fn write_guard(&self) -> WriteGuard<'_> {
        WriteGuard(self.write())
    }
}

/// Shared access guard over a slab's storage.
pub struct ReadGuard<'a>(RwLockReadGuard<'a, Storage>);

impl ReadGuard<'_> {
    /// The data (`None` when the slab is virtual).
    pub fn data(&self) -> Option<&[f64]> {
        self.0.data.as_deref()
    }
}

/// Exclusive access guard over a slab's storage.
pub struct WriteGuard<'a>(RwLockWriteGuard<'a, Storage>);

impl WriteGuard<'_> {
    /// The data (`None` when the slab is virtual).
    pub fn data_mut(&mut self) -> Option<&mut [f64]> {
        self.0.data.as_deref_mut()
    }
}

/// Copy `len` elements from `src[src_off..]` into `dst[dst_off..]`.
///
/// This is the simulator's "DMA": it is a no-op when either slab is virtual,
/// so timing-only runs skip the data movement while validated runs perform it.
/// Copying a slab onto itself with overlapping ranges uses `copy_within`.
///
/// Panics when a range is out of bounds.
pub fn copy(dst: &Slab, dst_off: usize, src: &Slab, src_off: usize, len: usize) {
    assert!(
        src_off + len <= src.len,
        "memslab::copy: source range {src_off}+{len} exceeds {}",
        src.len
    );
    assert!(
        dst_off + len <= dst.len,
        "memslab::copy: destination range {dst_off}+{len} exceeds {}",
        dst.len
    );
    if len == 0 {
        return;
    }
    if dst.same_storage(src) {
        if let Some(v) = dst.write().data.as_deref_mut() {
            v.copy_within(src_off..src_off + len, dst_off);
        }
        return;
    }
    let src_guard = src.read();
    let Some(s) = src_guard.data.as_deref() else {
        return;
    };
    if let Some(d) = dst.write().data.as_deref_mut() {
        d[dst_off..dst_off + len].copy_from_slice(&s[src_off..src_off + len]);
    }
}

/// Gather `src[src_idx[i]]` into `dst[dst_idx[i]]` for every `i`.
///
/// Models the index-list ghost-cell update kernel of the paper (§IV-B-6):
/// the host computes `(dst_idx, src_idx)` pairs and the device kernel applies
/// them. No-op when either slab is virtual.
pub fn gather(dst: &Slab, dst_idx: &[usize], src: &Slab, src_idx: &[usize]) {
    assert_eq!(
        dst_idx.len(),
        src_idx.len(),
        "memslab::gather: index lists differ in length"
    );
    if dst.same_storage(src) {
        if let Some(v) = dst.write().data.as_deref_mut() {
            for (&d, &s) in dst_idx.iter().zip(src_idx) {
                v[d] = v[s];
            }
        }
        return;
    }
    let src_guard = src.read();
    let Some(s) = src_guard.data.as_deref() else {
        return;
    };
    if let Some(d) = dst.write().data.as_deref_mut() {
        for (&di, &si) in dst_idx.iter().zip(src_idx) {
            d[di] = s[si];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn real_slab_roundtrip() {
        let s = Slab::real(8);
        assert_eq!(s.len(), 8);
        assert!(!s.is_virtual());
        s.set(3, 42.0);
        assert_eq!(s.get(3), Some(42.0));
        assert_eq!(s.get(0), Some(0.0));
    }

    #[test]
    fn virtual_slab_ignores_writes() {
        let s = Slab::virtual_(8);
        assert!(s.is_virtual());
        s.set(3, 42.0);
        assert_eq!(s.get(3), None);
        assert_eq!(s.snapshot(), None);
        assert_eq!(s.bytes(), 64);
    }

    #[test]
    fn from_vec_preserves_contents() {
        let s = Slab::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.snapshot().unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn clone_aliases_storage() {
        let a = Slab::real(4);
        let b = a.clone();
        b.set(0, 7.0);
        assert_eq!(a.get(0), Some(7.0));
        assert!(a.same_storage(&b));
        assert!(!a.same_storage(&Slab::real(4)));
    }

    #[test]
    fn copy_moves_data_between_real_slabs() {
        let src = Slab::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let dst = Slab::real(4);
        copy(&dst, 1, &src, 2, 2);
        assert_eq!(dst.snapshot().unwrap(), vec![0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn copy_with_virtual_side_is_noop() {
        let src = Slab::virtual_(4);
        let dst = Slab::from_vec(vec![9.0; 4]);
        copy(&dst, 0, &src, 0, 4);
        assert_eq!(dst.snapshot().unwrap(), vec![9.0; 4]);

        let vdst = Slab::virtual_(4);
        copy(&vdst, 0, &dst, 0, 4); // must not panic
        assert!(vdst.is_virtual());
    }

    #[test]
    fn copy_same_storage_overlapping() {
        let s = Slab::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let alias = s.clone();
        copy(&s, 1, &alias, 0, 3);
        assert_eq!(s.snapshot().unwrap(), vec![1.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Slab::real(2).get(2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn copy_out_of_bounds_panics() {
        let a = Slab::real(2);
        let b = Slab::real(2);
        copy(&a, 1, &b, 0, 2);
    }

    #[test]
    fn gather_applies_index_lists() {
        let src = Slab::from_vec(vec![10.0, 11.0, 12.0]);
        let dst = Slab::real(3);
        gather(&dst, &[0, 2], &src, &[2, 0]);
        assert_eq!(dst.snapshot().unwrap(), vec![12.0, 0.0, 10.0]);
    }

    #[test]
    fn gather_same_storage() {
        let s = Slab::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let alias = s.clone();
        gather(&s, &[0], &alias, &[3]);
        assert_eq!(s.snapshot().unwrap(), vec![4.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn materialize_and_dematerialize() {
        let s = Slab::virtual_(3);
        s.materialize();
        assert!(!s.is_virtual());
        s.set(1, 5.0);
        assert_eq!(s.get(1), Some(5.0));
        s.dematerialize();
        assert!(s.is_virtual());
    }

    #[test]
    fn fill_and_fill_with() {
        let s = Slab::real(4);
        s.fill(2.5);
        assert_eq!(s.snapshot().unwrap(), vec![2.5; 4]);
        s.fill_with(|i| i as f64);
        assert_eq!(s.snapshot().unwrap(), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn with_and_with_mut_views() {
        let s = Slab::real(3);
        s.with_mut(|d| d.unwrap()[1] = 9.0);
        let sum: f64 = s.with(|d| d.unwrap().iter().sum());
        assert_eq!(sum, 9.0);
        let v = Slab::virtual_(3);
        assert!(v.with(|d| d.is_none()));
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        // Reference vectors from the FNV specification (draft-eastlake).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_none_for_virtual_and_stable_for_real() {
        assert_eq!(Slab::virtual_(4).digest(), None);
        let s = Slab::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let d0 = s.digest().unwrap();
        assert_eq!(s.digest().unwrap(), d0, "digest is deterministic");
        s.set(2, 3.5);
        assert_ne!(s.digest().unwrap(), d0, "digest sees the change");
        assert_eq!(
            s.digest_range(0, 2),
            Slab::from_vec(vec![1.0, 2.0]).digest()
        );
    }

    #[test]
    fn flip_bit_changes_exactly_one_element() {
        let s = Slab::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let before = s.snapshot().unwrap();
        assert!(s.flip_bit(0xdead_beef_cafe_f00d, 0, 4));
        let after = s.snapshot().unwrap();
        let diffs: Vec<usize> = (0..4).filter(|&i| before[i] != after[i]).collect();
        assert_eq!(diffs.len(), 1, "exactly one element struck");
        assert!(after[diffs[0]].is_finite(), "mantissa flip stays finite");
        assert!(!Slab::virtual_(4).flip_bit(1, 0, 4), "virtual is exempt");
    }

    #[test]
    fn real_slab_is_backed_before_first_access() {
        let n = DEMAND_ZERO_MIN_LEN;
        for len in [0, 3, n - 1, n, n + 3] {
            let s = Slab::real(len);
            assert_eq!(s.inner.read().is_demand_zero(), len >= n, "len {len}");
            assert!(!s.is_virtual(), "demand-zero storage is still backed");
            assert_eq!(s.digest(), Some(word_digest(&vec![0.0; len])));
            assert_eq!(s.snapshot().unwrap(), vec![0.0; len]);
            let w = Slab::real(len);
            if len > 0 {
                w.set(len - 1, 1.5);
                let mut expect = vec![0.0; len];
                expect[len - 1] = 1.5;
                assert_eq!(w.snapshot().unwrap(), expect);
            }
        }
        let m = Slab::virtual_(n);
        m.materialize();
        assert!(m.inner.read().is_demand_zero(), "materialize defers too");
        assert_eq!(m.get(n - 1), Some(0.0));
    }

    #[test]
    fn slab_header_does_not_grow() {
        assert!(
            std::mem::size_of::<Storage>() <= std::mem::size_of::<Option<Vec<f64>>>(),
            "stamp and demand-zero state must fit where the bare Option<Vec> was"
        );
    }

    #[test]
    fn every_mutating_path_draws_a_new_stamp() {
        let s = Slab::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let other = Slab::from_vec(vec![5.0, 6.0, 7.0, 8.0]);
        let mut seen = vec![s.stamp()];
        let mut check = |what: &str, s: &Slab| {
            let now = s.stamp();
            assert!(!seen.contains(&now), "{what} left the stamp at {now}");
            seen.push(now);
        };
        s.with_mut(|_| ());
        check("with_mut", &s);
        s.set(0, 9.0);
        check("set", &s);
        s.fill(1.0);
        check("fill", &s);
        s.fill_with(|i| i as f64);
        check("fill_with", &s);
        drop(s.write_guard());
        check("write_guard", &s);
        copy(&s, 0, &other, 1, 2);
        check("copy destination", &s);
        copy(&s, 0, &s.clone(), 1, 2);
        check("copy onto itself", &s);
        gather(&s, &[0], &other, &[3]);
        check("gather destination", &s);
        gather(&s, &[1], &s.clone(), &[0]);
        check("gather onto itself", &s);
        assert!(s.flip_bit(3, 0, 4));
        check("flip_bit", &s);
        s.dematerialize();
        assert_eq!(s.stamp(), 0, "virtual slabs carry no stamp");
        s.materialize();
        check("materialize", &s);

        // Shared access and the source side of a copy leave it alone.
        let before = other.stamp();
        other.with(|_| ());
        other.get(0);
        other.snapshot();
        other.digest();
        drop(other.read_guard());
        copy(&s, 0, &other, 0, 1);
        assert_eq!(other.stamp(), before, "reads must not restamp");

        // Virtual slabs do no stamp work at all.
        let v = Slab::virtual_(4);
        v.set(0, 1.0);
        v.fill(2.0);
        copy(&v, 0, &other, 0, 4);
        assert_eq!(v.stamp(), 0);
    }

    #[test]
    fn first_read_of_demand_zero_storage_keeps_the_stamp() {
        let s = Slab::real(DEMAND_ZERO_MIN_LEN);
        let before = s.stamp();
        let (stamp, digest) = s.stamped_digest().unwrap();
        assert!(!s.inner.read().is_demand_zero(), "the read allocated");
        assert_eq!(stamp, before, "allocating zeros changes no byte");
        assert_eq!(digest, word_digest(&vec![0.0; DEMAND_ZERO_MIN_LEN]));
    }

    #[test]
    fn word_digest_sees_every_single_bit_flip() {
        // Exhaustive over every bit of every element of slices that cover
        // each lane-remainder case (lengths 1..=9).
        let base: Vec<f64> = (0..9).map(|i| i as f64 * 0.75 - 2.0).collect();
        for len in 1..=base.len() {
            let clean = word_digest(&base[..len]);
            let mut v = base[..len].to_vec();
            for i in 0..len {
                for bit in 0..64 {
                    v[i] = f64::from_bits(base[i].to_bits() ^ (1u64 << bit));
                    assert_ne!(
                        word_digest(&v),
                        clean,
                        "flip of bit {bit} in element {i} of {len} went unseen"
                    );
                    v[i] = base[i];
                }
            }
        }
    }

    #[test]
    fn word_digest_depends_on_length_and_order() {
        assert_ne!(word_digest(&[]), word_digest(&[0.0]));
        assert_ne!(word_digest(&[0.0; 4]), word_digest(&[0.0; 8]));
        assert_ne!(word_digest(&[1.0, 2.0]), word_digest(&[2.0, 1.0]));
    }

    /// One step of the random operation sequences driven by
    /// `prop_stamp_memo_matches_fresh_digest`.
    #[derive(Debug, Clone)]
    enum SlabOp {
        Set(usize, usize, f64),
        Fill(usize, f64),
        FillWith(usize, u64),
        WithMut(usize, usize),
        WriteGuard(usize, usize),
        Copy(usize, usize, usize),
        Gather(usize, usize, usize),
        Flip(usize, u64),
        Read(usize),
        Dematerialize(usize),
        Materialize(usize),
        /// Free the buffer at the index and allocate a fresh one there.
        Realloc(usize, bool),
    }

    fn slab_op() -> impl Strategy<Value = SlabOp> {
        let b = 0usize..3;
        prop_oneof![
            (b.clone(), 0usize..64, -1e6f64..1e6).prop_map(|(b, i, x)| SlabOp::Set(b, i, x)),
            (b.clone(), -1e6f64..1e6).prop_map(|(b, x)| SlabOp::Fill(b, x)),
            (b.clone(), any::<u64>()).prop_map(|(b, k)| SlabOp::FillWith(b, k)),
            (b.clone(), 0usize..64).prop_map(|(b, i)| SlabOp::WithMut(b, i)),
            (b.clone(), 0usize..64).prop_map(|(b, i)| SlabOp::WriteGuard(b, i)),
            (b.clone(), b.clone(), 0usize..64).prop_map(|(d, s, n)| SlabOp::Copy(d, s, n)),
            (b.clone(), b.clone(), 0usize..64).prop_map(|(d, s, i)| SlabOp::Gather(d, s, i)),
            (b.clone(), any::<u64>()).prop_map(|(b, k)| SlabOp::Flip(b, k)),
            b.clone().prop_map(SlabOp::Read),
            b.clone().prop_map(SlabOp::Dematerialize),
            b.clone().prop_map(SlabOp::Materialize),
            (b, any::<bool>()).prop_map(|(b, zero)| SlabOp::Realloc(b, zero)),
        ]
    }

    proptest! {
        /// Over random operation sequences on a small pool of buffers —
        /// including buffers freed and re-allocated at the same index — a
        /// digest memoised by `(index, stamp)` and refreshed only when the
        /// stamp moved always equals a fresh recompute.
        #[test]
        fn prop_stamp_memo_matches_fresh_digest(
            lens in proptest::collection::vec(
                prop_oneof![1usize..48, DEMAND_ZERO_MIN_LEN..DEMAND_ZERO_MIN_LEN + 48],
                3,
            ),
            ops in proptest::collection::vec(slab_op(), 1..80),
        ) {
            use std::collections::HashMap;
            let mut pool: Vec<Slab> = lens.iter().map(|&n| Slab::real(n)).collect();
            let mut memo: HashMap<usize, (u64, u64)> = HashMap::new();
            for op in ops {
                let stamps: Vec<u64> = pool.iter().map(Slab::stamp).collect();
                let mut wrote = None;
                match op.clone() {
                    SlabOp::Set(b, i, x) => {
                        pool[b].set(i % pool[b].len(), x);
                        wrote = Some(b);
                    }
                    SlabOp::Fill(b, x) => {
                        pool[b].fill(x);
                        wrote = Some(b);
                    }
                    SlabOp::FillWith(b, k) => {
                        pool[b].fill_with(|i| ((k ^ i as u64) % 997) as f64);
                        wrote = Some(b);
                    }
                    SlabOp::WithMut(b, i) => {
                        pool[b].with_mut(|d| {
                            if let Some(d) = d {
                                let j = i % d.len();
                                d[j] += 1.0;
                            }
                        });
                        wrote = Some(b);
                    }
                    SlabOp::WriteGuard(b, i) => {
                        let mut g = pool[b].write_guard();
                        if let Some(d) = g.data_mut() {
                            let j = i % d.len();
                            d[j] -= 0.5;
                        }
                        wrote = Some(b);
                    }
                    SlabOp::Copy(d, s, n) => {
                        let n = n % (pool[d].len().min(pool[s].len()) + 1);
                        copy(&pool[d], 0, &pool[s], pool[s].len() - n, n);
                        // A virtual source moves no data, so the
                        // destination is not written.
                        if n > 0 && (d == s || !pool[s].is_virtual()) {
                            wrote = Some(d);
                        }
                    }
                    SlabOp::Gather(d, s, i) => {
                        let (di, si) = (i % pool[d].len(), (i / 2) % pool[s].len());
                        gather(&pool[d], &[di], &pool[s], &[si]);
                        if d == s || !pool[s].is_virtual() {
                            wrote = Some(d);
                        }
                    }
                    SlabOp::Flip(b, k) => {
                        let n = pool[b].len();
                        pool[b].flip_bit(k, 0, n);
                        wrote = Some(b);
                    }
                    SlabOp::Read(b) => {
                        pool[b].snapshot();
                    }
                    SlabOp::Dematerialize(b) => pool[b].dematerialize(),
                    SlabOp::Materialize(b) => {
                        let was_virtual = pool[b].is_virtual();
                        pool[b].materialize();
                        if was_virtual {
                            wrote = Some(b);
                        }
                    }
                    SlabOp::Realloc(b, zero) => {
                        let n = pool[b].len();
                        pool[b] = if zero {
                            Slab::real(n)
                        } else {
                            Slab::from_vec(vec![0.0; n])
                        };
                        wrote = Some(b);
                    }
                }
                // Every mutating path on a backed slab moved the stamp; no
                // other buffer's stamp moved.
                for (b, slab) in pool.iter().enumerate() {
                    if Some(b) == wrote && !slab.is_virtual() {
                        prop_assert!(slab.stamp() != stamps[b], "{:?} left buffer {}'s stamp", op, b);
                    } else if Some(b) != wrote && !slab.is_virtual() {
                        prop_assert_eq!(slab.stamp(), stamps[b], "buffer {} restamped", b);
                    }
                }
                // Memoised digest vs. fresh recompute, for every buffer.
                for (b, slab) in pool.iter().enumerate() {
                    let fresh = slab.with(|d| d.map(word_digest));
                    let memoised = match memo.get(&b) {
                        Some(&(stamp, digest)) if stamp == slab.stamp() => Some(digest),
                        _ => {
                            let now = slab.stamped_digest();
                            match now {
                                Some(sd) => memo.insert(b, sd),
                                None => memo.remove(&b),
                            };
                            now.map(|(_, d)| d)
                        }
                    };
                    prop_assert_eq!(memoised, fresh, "buffer {} memo went stale", b);
                }
            }
        }

        /// The byte hash and the f64-slice hash agree on the same image,
        /// pinning fnv1a64_f64s to the canonical byte-stream definition.
        #[test]
        fn prop_f64_digest_matches_byte_digest(
            values in proptest::collection::vec(-1e9f64..1e9, 0..64),
        ) {
            let mut bytes = Vec::with_capacity(values.len() * 8);
            for v in &values {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            prop_assert_eq!(fnv1a64_f64s(&values), fnv1a64(&bytes));
        }

        /// A flipped bit is always visible to the digest, and flipping it
        /// back restores the original digest (the repair path's invariant).
        #[test]
        fn prop_flip_is_detected_and_reversible(
            values in proptest::collection::vec(-1e6f64..1e6, 1..32),
            strike in any::<u64>(),
        ) {
            let s = Slab::from_vec(values);
            let clean = s.digest().unwrap();
            prop_assert!(s.flip_bit(strike, 0, s.len()));
            prop_assert_ne!(s.digest().unwrap(), clean);
            prop_assert!(s.flip_bit(strike, 0, s.len()));
            prop_assert_eq!(s.digest().unwrap(), clean);
        }

        /// copy() behaves exactly like slice copy_from_slice on real slabs.
        #[test]
        fn prop_copy_matches_reference(
            src in proptest::collection::vec(-1e6f64..1e6, 1..64),
            dst_len in 1usize..64,
            seed in any::<u64>(),
        ) {
            use rand_pcg_like::*;
            let mut rng = Lcg(seed | 1);
            let dst_init: Vec<f64> = (0..dst_len).map(|_| rng.next_f64()).collect();
            let len = (rng.next() as usize) % (src.len().min(dst_len)) ;
            let src_off = if src.len() - len > 0 { (rng.next() as usize) % (src.len() - len + 1) } else { 0 };
            let dst_off = if dst_len - len > 0 { (rng.next() as usize) % (dst_len - len + 1) } else { 0 };

            let s = Slab::from_vec(src.clone());
            let d = Slab::from_vec(dst_init.clone());
            copy(&d, dst_off, &s, src_off, len);

            let mut expect = dst_init;
            expect[dst_off..dst_off + len].copy_from_slice(&src[src_off..src_off + len]);
            prop_assert_eq!(d.snapshot().unwrap(), expect);
        }

        /// A virtual destination never materializes through any operation.
        #[test]
        fn prop_virtual_stays_virtual(len in 1usize..32, writes in proptest::collection::vec((0usize..32, any::<f64>()), 0..16)) {
            let v = Slab::virtual_(32);
            let r = Slab::real(32);
            for (i, x) in writes {
                v.set(i % len.max(1), x);
            }
            copy(&v, 0, &r, 0, len);
            gather(&v, &[0], &r, &[0]);
            prop_assert!(v.is_virtual());
        }
    }

    /// Minimal deterministic generator for the proptest above (avoids pulling
    /// `rand` into this leaf crate).
    mod rand_pcg_like {
        pub struct Lcg(pub u64);
        impl Lcg {
            pub fn next(&mut self) -> u64 {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.0 >> 16
            }
            pub fn next_f64(&mut self) -> f64 {
                (self.next() % 1000) as f64
            }
        }
    }
}
