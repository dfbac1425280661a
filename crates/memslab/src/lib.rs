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
//!
//! The content digest ([`word_digest`]) is a sum over positions, and each
//! slab keeps that sum as a memo next to its data. [`copy`],
//! [`copy_rows`] and [`copy_runs`] keep the memo at the cost of the cells
//! they write ([`copy_runs`]: of the cells it writes or skips, whichever
//! are fewer); any other write drops it, and the next digest hashes the
//! slab once and keeps it.
//! So a digest after a ghost-cell update costs the cells written, not the
//! slab.

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

/// Position key step of [`word_digest`]: element `i` is keyed with
/// `i * KEY_STEP` (the 64-bit golden ratio, odd, so keys of nearby
/// positions differ in every bit range).
const KEY_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// Odd multiplier of [`mix`] and of the final fold.
const MIX_MUL: u64 = 0xff51_afd7_ed55_8ccd;

/// `mix(i, w)`: the contribution of word `w` at position `i` to a digest
/// sum.
///
/// The word is keyed by its position (`x = w ^ i·KEY_STEP`), then run
/// through an xorshift, an odd multiply and an xorshift. Each step is a
/// bijection of the word (an xorshift by half the width is its own
/// inverse; an odd multiplier is invertible mod 2⁶⁴), so `mix(i, ·)` is a
/// bijection for every position. The first xorshift carries the high bits
/// (sign and exponent) into the multiply, and the last folds the product's
/// high half back down, so equal changes to several elements do not cancel
/// in the sum the way they would in a sum of keyed words.
///
/// Takes the position's key `i·KEY_STEP` rather than `i`, so a loop can
/// step the key by one add per element.
#[inline(always)]
fn mix(key: u64, w: u64) -> u64 {
    let x = w ^ key;
    let z = (x ^ (x >> 32)).wrapping_mul(MIX_MUL);
    z ^ (z >> 32)
}

/// `Σ_j mix(first + j, values[j])`, wrapping.
#[inline(always)]
fn mix_sum_portable(first: usize, values: &[f64]) -> u64 {
    let mut key = (first as u64).wrapping_mul(KEY_STEP);
    values.iter().fold(0u64, |acc, v| {
        let m = mix(key, v.to_bits());
        key = key.wrapping_add(KEY_STEP);
        acc.wrapping_add(m)
    })
}

/// [`mix_sum_portable`] compiled for AVX-512, which multiplies 64-bit
/// lanes in one instruction.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mix_sum_avx512(first: usize, values: &[f64]) -> u64 {
    mix_sum_portable(first, values)
}

/// [`mix_sum_portable`] compiled for AVX2, for CPUs without AVX-512. AVX2
/// has no 64-bit multiply, but its emulated one still runs about 2.4× the
/// baseline build (~11 against ~4.6 GB/s on a 39k-element slab), which
/// cuts `serving-mix` host time, where every job buffer is hashed in full
/// after each step, by 13%.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mix_sum_avx2(first: usize, values: &[f64]) -> u64 {
    mix_sum_portable(first, values)
}

/// Slices shorter than this are summed inline: a vector loop does not pay
/// for its set-up on a few cells (a ghost row of one or two cells). Eight
/// is the measured crossover of `copy_rows` per-row cost on an AVX-512
/// Xeon: inline is about 2× faster on 1-cell rows and still ahead at 7
/// cells; from 8 cells on the vector loop is ahead.
const SIMD_MIN_LEN: usize = 8;

/// `Σ_j mix(first + j, values[j])`, wrapping: the digest sum of `values`
/// laid at positions `first..`. Long slices run the widest vector build the
/// CPU has; every path computes the same integer sum.
#[inline]
fn mix_sum(first: usize, values: &[f64]) -> u64 {
    if values.len() < SIMD_MIN_LEN {
        return mix_sum_portable(first, values);
    }
    mix_sum_vector(first, values)
}

/// [`mix_sum`] of a slice long enough for a vector loop.
fn mix_sum_vector(first: usize, values: &[f64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: AVX-512F and AVX-512DQ support was detected at run
            // time.
            return unsafe { mix_sum_avx512(first, values) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was detected at run time.
            return unsafe { mix_sum_avx2(first, values) };
        }
    }
    mix_sum_portable(first, values)
}

/// Fold a digest sum with the element count. A bijection of `sum` for each
/// `len` (XOR with a constant, an odd multiply, an xorshift), so distinct
/// sums of equal-length slices give distinct digests.
fn finish(len: usize, sum: u64) -> u64 {
    let x = (sum ^ (len as u64).wrapping_mul(KEY_STEP)).wrapping_mul(MIX_MUL);
    x ^ (x >> 32)
}

/// Position-keyed additive content digest of an `f64` slice — the
/// integrity layer's digest ([`Slab::digest`]):
/// `finish(len, Σ_i mix(i, w_i))` over the elements' bit patterns `w_i`.
///
/// `mix(i, ·)` is a bijection of the word for every position `i` and the
/// sum is taken mod 2⁶⁴, a group, so a change confined to one element
/// always changes the sum; `finish` is a bijection of the sum, so any
/// single-element change, in particular any single bit flip, always
/// changes the digest. Because the digest is a sum over positions, a write
/// to a few cells moves it by `Σ mix(i, new) − mix(i, old)` over just
/// those cells: [`Slab`] keeps the sum as a memo and updates it that way
/// on every [`copy`] and [`copy_rows`], so a ghost-cell write costs the
/// cells it writes, not the slab.
///
/// Not interchangeable with [`fnv1a64_f64s`]: the two hash the same bytes
/// to different values.
pub fn word_digest(values: &[f64]) -> u64 {
    finish(values.len(), mix_sum(0, values))
}

/// Source of write stamps: one counter for the whole process, so a stamp is
/// never reused by another slab or another write.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    // Relaxed: the counter only has to hand out distinct values. A stamp is
    // stored and read under its slab's lock, which orders it with the data.
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Bit of [`Storage::stamp`] set while the data's tail word holds the
/// slab's digest sum. Stamps count up from 1 and never reach it.
const MEMO_VALID: u64 = 1 << 63;

/// The state behind a slab's lock: its current write stamp and its data.
///
/// The stamp doubles as the backing flag, so the state is no larger than
/// the `Option<Vec<f64>>` it replaces: `stamp == 0` is virtual storage
/// (never any data), a non-zero stamp is backed storage — demand-zero while
/// `data` is `None`, allocated once it is `Some`. Stamps are drawn from a
/// counter that starts at 1, so a backed slab never reads 0.
///
/// Allocated data is one word longer than the slab. The tail word is the
/// **digest memo**: the sum `Σ_i mix(i, w_i)` behind [`word_digest`] of the
/// current cells, valid while the stamp carries [`MEMO_VALID`]. A new stamp
/// never carries it, so every write drops the memo unless the writer sets
/// it again — which only [`copy`], [`copy_rows`] and [`copy_runs`] do,
/// after accounting for what they wrote.
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

    /// The write stamp, without the memo flag.
    fn stamp(&self) -> u64 {
        self.stamp & !MEMO_VALID
    }

    /// The slab's cells: the data without its tail word.
    fn cells(&self) -> Option<&[f64]> {
        self.data.as_deref().map(|d| &d[..d.len() - 1])
    }

    fn cells_mut(&mut self) -> Option<&mut [f64]> {
        self.data.as_deref_mut().map(|d| {
            let len = d.len() - 1;
            &mut d[..len]
        })
    }

    /// The memoised digest sum, when it is valid for the current stamp.
    fn memo(&self) -> Option<u64> {
        if self.stamp & MEMO_VALID == 0 {
            return None;
        }
        self.data
            .as_deref()
            .and_then(<[f64]>::last)
            .map(|w| w.to_bits())
    }

    /// Record `sum` as the digest sum of the current cells.
    fn set_memo(&mut self, sum: u64) {
        if let Some(tail) = self.data.as_deref_mut().and_then(<[f64]>::last_mut) {
            *tail = f64::from_bits(sum);
            self.stamp |= MEMO_VALID;
        }
    }
}

/// Zeroed data for `len` cells plus the memo's tail word.
fn zeros(len: usize) -> Box<[f64]> {
    vec![0.0; len + 1].into_boxed_slice()
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
    pub fn from_vec(mut data: Vec<f64>) -> Self {
        let len = data.len();
        data.push(0.0); // the memo's tail word
        Self::with_storage(len, Storage::backed(Some(data.into_boxed_slice())))
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
    /// here, and it draws the new stamp, which drops the digest memo.
    /// Demand-zero storage is allocated first; virtual storage is left
    /// alone (no stamp, no work).
    fn write(&self) -> RwLockWriteGuard<'_, Storage> {
        self.write_tracked().0
    }

    /// [`Slab::write`], also returning the digest sum that was valid just
    /// before the new stamp: a writer that knows what it changes can move
    /// the sum by that and set it again.
    fn write_tracked(&self) -> (RwLockWriteGuard<'_, Storage>, Option<u64>) {
        let mut guard = self.inner.write();
        if guard.is_virtual() {
            return (guard, None);
        }
        guard.allocate(self.len);
        let memo = guard.memo();
        guard.stamp = next_stamp();
        (guard, memo)
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

    /// Live handles on this slab's storage, this one included.
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// The current write stamp. Every access that can change a backed
    /// slab's bytes — [`Slab::with_mut`], [`Slab::set`], the fills,
    /// [`Slab::write_guard`], being the destination of [`copy`],
    /// [`copy_rows`] or [`copy_runs`], [`Slab::flip_bit`], and
    /// [`Slab::materialize`] of a virtual slab — draws a new stamp from a
    /// process-wide counter, so a stamp equal to one read earlier proves
    /// the contents are unchanged since. Virtual slabs (including
    /// dematerialized ones) read 0.
    pub fn stamp(&self) -> u64 {
        self.inner.read().stamp()
    }

    /// Run `f` with a shared view of the data (`None` when virtual).
    pub fn with<R>(&self, f: impl FnOnce(Option<&[f64]>) -> R) -> R {
        let guard = self.read();
        f(guard.cells())
    }

    /// Run `f` with an exclusive view of the data (`None` when virtual).
    pub fn with_mut<R>(&self, f: impl FnOnce(Option<&mut [f64]>) -> R) -> R {
        let mut guard = self.write();
        f(guard.cells_mut())
    }

    /// Read one element. `None` when virtual. Panics when out of bounds.
    pub fn get(&self, idx: usize) -> Option<f64> {
        assert!(
            idx < self.len,
            "Slab::get: index {idx} out of bounds {}",
            self.len
        );
        self.read().cells().map(|v| v[idx])
    }

    /// Write one element. No-op when virtual. Panics when out of bounds.
    pub fn set(&self, idx: usize, value: f64) {
        assert!(
            idx < self.len,
            "Slab::set: index {idx} out of bounds {}",
            self.len
        );
        if let Some(v) = self.write().cells_mut() {
            v[idx] = value;
        }
    }

    /// Fill every element with `value`. No-op when virtual.
    pub fn fill(&self, value: f64) {
        if let Some(v) = self.write().cells_mut() {
            v.fill(value);
        }
    }

    /// Initialize each element from `f(index)`. No-op when virtual.
    pub fn fill_with(&self, mut f: impl FnMut(usize) -> f64) {
        if let Some(v) = self.write().cells_mut() {
            for (i, x) in v.iter_mut().enumerate() {
                *x = f(i);
            }
        }
    }

    /// Copy the whole contents out (for assertions). `None` when virtual.
    pub fn snapshot(&self) -> Option<Vec<f64>> {
        self.read().cells().map(<[f64]>::to_vec)
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
        self.stamped_digest().map(|(_, d)| d)
    }

    /// Content digest of `len` elements starting at `off`, keyed by
    /// position within the range: the digest of a slab whose cells equal
    /// this range. `None` when virtual. Panics when the range is out of
    /// bounds.
    pub fn digest_range(&self, off: usize, len: usize) -> Option<u64> {
        assert!(
            off + len <= self.len,
            "Slab::digest_range: range {off}+{len} exceeds {}",
            self.len
        );
        if off == 0 && len == self.len {
            return self.digest();
        }
        self.read().cells().map(|v| word_digest(&v[off..off + len]))
    }

    /// [`Slab::digest`] together with the stamp the contents had when they
    /// were hashed, read under one lock: `(stamp, digest)`.
    ///
    /// Served from the digest memo while it is valid; otherwise the slab
    /// is hashed once and the sum kept as the memo (under the write lock,
    /// drawing no stamp: the contents do not change).
    pub fn stamped_digest(&self) -> Option<(u64, u64)> {
        {
            let guard = self.read();
            if let Some(sum) = guard.memo() {
                return Some((guard.stamp(), finish(self.len, sum)));
            }
            guard.cells()?;
        }
        let mut guard = self.inner.write();
        guard.allocate(self.len);
        let sum = match guard.memo() {
            Some(sum) => sum,
            None => {
                let sum = mix_sum(0, guard.cells()?);
                guard.set_memo(sum);
                sum
            }
        };
        Some((guard.stamp(), finish(self.len, sum)))
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
        if let Some(v) = self.write().cells_mut() {
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
        self.0.cells()
    }
}

/// Exclusive access guard over a slab's storage.
pub struct WriteGuard<'a>(RwLockWriteGuard<'a, Storage>);

impl WriteGuard<'_> {
    /// The data (`None` when the slab is virtual).
    pub fn data_mut(&mut self) -> Option<&mut [f64]> {
        self.0.cells_mut()
    }
}

/// Copy `len` elements from `src[src_off..]` into `dst[dst_off..]`.
///
/// This is the simulator's "DMA": it is a no-op when either slab is virtual,
/// so timing-only runs skip the data movement while validated runs perform it.
/// Copying a slab onto itself with overlapping ranges uses `copy_within`.
///
/// The destination's digest memo survives: a partial copy is one row of
/// [`copy_rows`], which moves it by the cells written, and a whole-slab
/// copy from a whole slab hands over the source's memo.
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
    if dst_off != 0 || len != dst.len || dst.same_storage(src) {
        copy_rows(dst, src, len, [(dst_off, src_off)]);
        return;
    }
    // A whole-slab overwrite: rather than hashing both images, take the
    // source's memo when the source range is its whole slab.
    let src_guard = src.read();
    let Some(s) = src_guard.cells() else {
        return;
    };
    let mut guard = dst.write();
    let Some(d) = guard.cells_mut() else {
        return;
    };
    d.copy_from_slice(&s[src_off..src_off + len]);
    if let Some(sum) = src_guard.memo().filter(|_| len == src.len) {
        guard.set_memo(sum);
    }
}

/// Copy rows of `nx` elements: `dst[d..d + nx] = src[s..s + nx]` for every
/// `(d, s)` in `rows`, in order.
///
/// The one data path for ghost cells: the paper's device-side ghost update
/// (§IV-B-6), staging packs and unpacks, and host-side patches all move
/// x-rows of a box, so a row start per row replaces a per-cell index list
/// (see `tida::patch_rows`). A slab copying onto itself (a region that is
/// its own periodic neighbour) moves each row with `copy_within`. The
/// source's read lock is taken before the destination's write lock.
///
/// No-op when either slab is virtual: no data moves and no stamp is drawn.
/// Otherwise the destination gets a new stamp, and its digest memo, when
/// valid, moves by `Σ mix(new) − mix(old)` over the cells written — the
/// cost of a ghost write stays proportional to the cells it writes.
///
/// Panics when a row is out of bounds.
pub fn copy_rows(
    dst: &Slab,
    src: &Slab,
    nx: usize,
    rows: impl IntoIterator<Item = (usize, usize)>,
) {
    copy_spans(dst, src, rows.into_iter().map(|(d, s)| (d, s, nx)));
}

/// Copy runs of varying length between two slabs of one layout:
/// `dst[off..off + len] = src[off..off + len]` for every `(off, len)` in
/// `runs` (sorted, disjoint). This is the data path of a gathered
/// transfer, whose host and device sides share a layout. The stamp rules
/// are those of [`copy_rows`].
///
/// A valid destination memo stays valid. It moves by the cells written,
/// or — when the runs cover most of a same-length slab whose source memo
/// is valid — it becomes the source's sum corrected by the cells *not*
/// written, hashed on both sides in the copy's own pass. Either way the
/// copy hashes the smaller of the two sets.
///
/// A demand-zero destination gets every page on this first write, not
/// only the pages the runs touch: its other pages would otherwise fault
/// one by one under later writes, where a whole-slab first write takes
/// them all at once.
///
/// Panics when a run is out of bounds.
pub fn copy_runs(dst: &Slab, src: &Slab, runs: &[(usize, usize)]) {
    if dst.inner.read().is_demand_zero() && !src.is_virtual() {
        let mut guard = dst.inner.write();
        guard.allocate(dst.len);
        if let Some(d) = guard.cells_mut() {
            for page in d.chunks_mut(DEMAND_ZERO_MIN_LEN) {
                page[0] = 0.0;
            }
        }
    }
    let moved: usize = runs.iter().map(|&(_, len)| len).sum();
    if !dst.same_storage(src) && dst.len == src.len && 2 * moved > dst.len {
        let src_guard = src.read();
        if let (Some(sum), Some(s)) = (src_guard.memo(), src_guard.cells()) {
            let (mut guard, memo) = dst.write_tracked();
            let Some(d) = guard.cells_mut() else {
                return;
            };
            // Σ mix(dst) − Σ mix(src) over the cells between the runs,
            // which the copy leaves as they are.
            let mut kept = 0u64;
            let mut from = 0;
            for &(off, len) in runs.iter().chain(&[(d.len(), 0)]) {
                if memo.is_some() {
                    kept = kept
                        .wrapping_add(mix_sum(from, &d[from..off]))
                        .wrapping_sub(mix_sum(from, &s[from..off]));
                }
                d[off..off + len].copy_from_slice(&s[off..off + len]);
                from = off + len;
            }
            if memo.is_some() {
                guard.set_memo(sum.wrapping_add(kept));
            }
            return;
        }
    }
    copy_spans(dst, src, runs.iter().map(|&(off, len)| (off, off, len)));
}

/// The one body of [`copy_rows`] and [`copy_runs`]: copy every
/// `(dst_off, src_off, len)` span in order.
fn copy_spans(dst: &Slab, src: &Slab, spans: impl Iterator<Item = (usize, usize, usize)>) {
    let mut delta = 0u64;
    if dst.same_storage(src) {
        let (mut guard, memo) = dst.write_tracked();
        let Some(v) = guard.cells_mut() else {
            return;
        };
        for (d, s, nx) in spans {
            if memo.is_some() {
                delta = delta.wrapping_sub(mix_sum(d, &v[d..d + nx]));
            }
            v.copy_within(s..s + nx, d);
            if memo.is_some() {
                delta = delta.wrapping_add(mix_sum(d, &v[d..d + nx]));
            }
        }
        if let Some(memo) = memo {
            guard.set_memo(memo.wrapping_add(delta));
        }
        return;
    }
    let src_guard = src.read();
    let Some(s) = src_guard.cells() else {
        return;
    };
    let (mut guard, memo) = dst.write_tracked();
    let Some(d) = guard.cells_mut() else {
        return;
    };
    for (doff, soff, nx) in spans {
        let (to, from) = (&mut d[doff..doff + nx], &s[soff..soff + nx]);
        if memo.is_some() {
            delta = delta
                .wrapping_add(mix_sum(doff, from))
                .wrapping_sub(mix_sum(doff, to));
        }
        to.copy_from_slice(from);
    }
    if let Some(memo) = memo {
        guard.set_memo(memo.wrapping_add(delta));
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
    fn copy_rows_applies_row_pairs() {
        let src = Slab::from_vec((0..6).map(f64::from).collect());
        let dst = Slab::real(6);
        copy_rows(&dst, &src, 2, [(0, 4), (3, 1)]);
        assert_eq!(dst.snapshot().unwrap(), vec![4.0, 5.0, 0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn copy_rows_same_storage() {
        let s = Slab::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let alias = s.clone();
        copy_rows(&s, &alias, 2, [(0, 3), (2, 0)]);
        assert_eq!(s.snapshot().unwrap(), vec![4.0, 5.0, 4.0, 5.0, 5.0]);
    }

    #[test]
    #[should_panic]
    fn copy_rows_out_of_bounds_panics() {
        let a = Slab::real(4);
        let b = Slab::real(4);
        copy_rows(&a, &b, 2, [(3, 0)]);
    }

    #[test]
    fn copy_runs_moves_only_the_runs() {
        let src = Slab::from_vec((0..8).map(f64::from).collect());
        let dst = Slab::from_vec(vec![-1.0; 8]);
        copy_runs(&dst, &src, &[(0, 2), (5, 3)]);
        assert_eq!(
            dst.snapshot().unwrap(),
            vec![0.0, 1.0, -1.0, -1.0, -1.0, 5.0, 6.0, 7.0]
        );
        let stamp = dst.stamp();
        copy_runs(&dst, &Slab::virtual_(8), &[(0, 8)]);
        assert_eq!(dst.stamp(), stamp, "a virtual side moves nothing");
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
        copy_rows(&s, &other, 1, [(0, 3)]);
        check("copy_rows destination", &s);
        copy_rows(&s, &s.clone(), 2, [(2, 0)]);
        check("copy_rows onto itself", &s);
        copy_runs(&s, &other, &[(1, 2)]);
        check("copy_runs destination", &s);
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
        copy_rows(&v, &other, 2, [(0, 0)]);
        assert_eq!(v.stamp(), 0);
        let before = s.stamp();
        copy_rows(&s, &v, 2, [(0, 0)]);
        assert_eq!(s.stamp(), before, "a virtual source writes nothing");
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
        // Exhaustive over every bit of every element, on lengths summed
        // inline (below SIMD_MIN_LEN) and by the vector loop (with and
        // without a remainder).
        let base: Vec<f64> = (0..41).map(|i| i as f64 * 0.75 - 2.0).collect();
        for len in (1..=9).chain([SIMD_MIN_LEN, SIMD_MIN_LEN + 1, 41]) {
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
    fn word_digest_sees_equal_bit_flips_in_two_elements() {
        // A plain sum of keyed words would cancel two flips of the same bit
        // that go in opposite directions; the non-linear mix must not.
        let base: Vec<f64> = (0..12).map(|i| i as f64 * 1.25 - 7.0).collect();
        let clean = word_digest(&base);
        for i in 0..base.len() {
            for j in i + 1..base.len() {
                for bit in 0..64 {
                    let mut v = base.clone();
                    v[i] = f64::from_bits(v[i].to_bits() ^ (1u64 << bit));
                    v[j] = f64::from_bits(v[j].to_bits() ^ (1u64 << bit));
                    assert_ne!(word_digest(&v), clean, "bit {bit} in {i} and {j}");
                }
            }
        }
    }

    #[test]
    fn copies_keep_the_digest_memo_and_other_writes_drop_it() {
        let src = Slab::from_vec((0..40).map(|i| i as f64 * 0.5).collect());
        let dst = Slab::from_vec(vec![1.0; 40]);
        let fresh = |s: &Slab| s.with(|d| d.map(word_digest));
        dst.digest();
        assert!(memo_valid(&dst));
        copy(&dst, 5, &src, 11, 20);
        assert!(memo_valid(&dst), "a partial copy moves the memo");
        copy(&dst, 0, &dst.clone(), 3, 30);
        assert!(memo_valid(&dst), "a copy onto itself moves the memo");
        copy_rows(&dst, &src, 4, [(0, 36), (30, 2)]);
        copy_rows(&dst, &dst.clone(), 3, [(10, 12)]);
        assert!(memo_valid(&dst), "row copies move the memo");
        copy_runs(&dst, &src, &[(1, 3), (9, 17), (39, 1)]);
        assert!(memo_valid(&dst), "run copies move the memo");
        assert_eq!(dst.digest(), fresh(&dst));

        // A whole-slab copy hands the source's memo over as it is.
        let whole = Slab::real(40);
        assert!(!memo_valid(&src));
        copy(&whole, 0, &src, 0, 40);
        assert!(!memo_valid(&whole), "no memo to hand over");
        src.digest();
        copy(&whole, 0, &src, 0, 40);
        assert!(memo_valid(&whole), "the source's memo is handed over");
        assert_eq!(whole.digest(), src.digest());
        assert_eq!(whole.digest_range(0, 40), src.digest_range(0, 40));

        // Opaque writers drop it; the next digest rebuilds it.
        type Write = fn(&Slab);
        let writes: [(&str, Write); 7] = [
            ("with_mut", |s| s.with_mut(|_| ())),
            ("write_guard", |s| drop(s.write_guard())),
            ("set", |s| s.set(0, 2.0)),
            ("fill", |s| s.fill(3.0)),
            ("fill_with", |s| s.fill_with(|i| i as f64)),
            ("flip_bit", |s| {
                s.flip_bit(7, 0, s.len());
            }),
            ("dematerialize + materialize", |s| {
                s.dematerialize();
                s.materialize();
            }),
        ];
        for (what, write) in writes {
            dst.digest();
            write(&dst);
            assert!(!memo_valid(&dst), "{what} must drop the memo");
            assert_eq!(dst.digest(), fresh(&dst), "{what}");
            assert!(memo_valid(&dst), "the digest after {what} rebuilds it");
        }
    }

    #[test]
    fn a_run_copy_over_most_of_a_slab_corrects_the_source_sum() {
        let src = Slab::from_vec((0..40).map(|i| i as f64 * 0.25).collect());
        let dst = Slab::from_vec((0..40).map(|i| 100.0 - i as f64).collect());
        let fresh = |s: &Slab| s.with(|d| d.map(word_digest));
        src.digest();
        dst.digest();
        copy_runs(&dst, &src, &[(0, 12), (15, 20), (36, 4)]);
        assert!(memo_valid(&dst), "the corrected source sum is the memo");
        assert_eq!(dst.digest(), fresh(&dst));
        let (d, s) = (dst.snapshot().unwrap(), src.snapshot().unwrap());
        assert_eq!(d[..12], s[..12]);
        assert_eq!(d[12..15], [88.0, 87.0, 86.0]);
        assert_eq!(d[35], 65.0);
        // A destination without a memo gets none.
        let bare = Slab::from_vec(vec![1.0; 40]);
        copy_runs(&bare, &src, &[(0, 39)]);
        assert!(!memo_valid(&bare));
        assert_eq!(bare.snapshot().unwrap()[..39], s[..39]);
    }

    #[test]
    fn a_run_copy_into_a_demand_zero_slab_takes_all_its_pages() {
        let n = 3 * DEMAND_ZERO_MIN_LEN;
        let src = Slab::from_vec((0..n).map(|i| i as f64).collect());
        let dst = Slab::real(n);
        assert!(dst.inner.read().is_demand_zero());
        copy_runs(&dst, &src, &[(5, 2)]);
        let d = dst.snapshot().unwrap();
        assert_eq!(d[5..7], [5.0, 6.0]);
        assert!(d
            .iter()
            .enumerate()
            .all(|(i, &x)| x == 0.0 || (5..7).contains(&i)));
        // A virtual source moves nothing, so a demand-zero destination
        // stays as it is.
        let idle = Slab::real(n);
        copy_runs(&idle, &Slab::virtual_(n), &[(0, 1)]);
        assert!(idle.inner.read().is_demand_zero());
    }

    #[test]
    fn a_strike_is_seen_through_the_memo() {
        let s = Slab::from_vec((0..64).map(|i| i as f64).collect());
        let clean = s.digest().unwrap();
        for strike in [0u64, 1 << 40 | 17, u64::MAX] {
            assert!(s.flip_bit(strike, 0, 64));
            assert_ne!(s.digest().unwrap(), clean, "strike {strike:#x} unseen");
            assert!(s.flip_bit(strike, 0, 64));
            assert_eq!(s.digest().unwrap(), clean);
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
        /// `(dst, src, len, src_off, dst_off)`, reduced into bounds; a
        /// length of `usize::MAX` copies a whole slab from offset 0.
        Copy(usize, usize, usize, usize, usize),
        /// `(dst, src, nx, row picks)`.
        CopyRows(usize, usize, usize, Vec<(usize, usize)>),
        /// `(dst, src, cut points)`: runs between alternate cuts.
        CopyRuns(usize, usize, Vec<usize>),
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
            (
                b.clone(),
                b.clone(),
                prop_oneof![0usize..64, Just(usize::MAX)],
                0usize..64,
                0usize..64
            )
                .prop_map(|(d, s, n, so, dof)| SlabOp::Copy(d, s, n, so, dof)),
            (
                b.clone(),
                b.clone(),
                1usize..9,
                proptest::collection::vec((0usize..4096, 0usize..4096), 0..6)
            )
                .prop_map(|(d, s, nx, rows)| SlabOp::CopyRows(d, s, nx, rows)),
            (
                b.clone(),
                b.clone(),
                proptest::collection::vec(0usize..4096, 0..8)
            )
                .prop_map(|(d, s, cuts)| SlabOp::CopyRuns(d, s, cuts)),
            (b.clone(), any::<u64>()).prop_map(|(b, k)| SlabOp::Flip(b, k)),
            b.clone().prop_map(SlabOp::Read),
            b.clone().prop_map(SlabOp::Dematerialize),
            b.clone().prop_map(SlabOp::Materialize),
            (b, any::<bool>()).prop_map(|(b, zero)| SlabOp::Realloc(b, zero)),
        ]
    }

    /// Whether the slab's digest memo is currently valid.
    fn memo_valid(s: &Slab) -> bool {
        s.inner.read().memo().is_some()
    }

    proptest! {
        /// Over random operation sequences on a small pool of buffers —
        /// including buffers freed and re-allocated at the same index, and
        /// two buffers of equal length so whole-slab copies hand over the
        /// source's memo — every mutating path moves exactly its
        /// destination's stamp, and two memoised digests always equal a
        /// fresh recompute: one memoised by `(index, stamp)` outside the
        /// slab, and the slab's own digest memo, probed after a random
        /// subset of steps so the memo is sometimes valid and sometimes
        /// dropped when the next operation runs. (Digests are taken only
        /// on probed steps, since taking one rebuilds the memo.)
        #[test]
        fn prop_stamp_memo_matches_fresh_digest(
            lens in proptest::collection::vec(
                prop_oneof![1usize..48, DEMAND_ZERO_MIN_LEN..DEMAND_ZERO_MIN_LEN + 48],
                2,
            ),
            ops in proptest::collection::vec((slab_op(), any::<bool>()), 1..80),
        ) {
            use std::collections::HashMap;
            let lens = [lens[0], lens[1], lens[0]];
            let mut pool: Vec<Slab> = lens.iter().map(|&n| Slab::real(n)).collect();
            let mut memo: HashMap<usize, (u64, u64)> = HashMap::new();
            for (op, probe) in ops {
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
                    SlabOp::Copy(d, s, n, so, dof) => {
                        let (dl, sl) = (pool[d].len(), pool[s].len());
                        let (n, so, dof) = if n == usize::MAX {
                            (dl.min(sl), 0, 0)
                        } else {
                            let n = n % (dl.min(sl) + 1);
                            (n, so % (sl - n + 1), dof % (dl - n + 1))
                        };
                        copy(&pool[d], dof, &pool[s], so, n);
                        // A virtual source moves no data, so the
                        // destination is not written.
                        if n > 0 && (d == s || !pool[s].is_virtual()) {
                            wrote = Some(d);
                        }
                    }
                    SlabOp::CopyRows(d, s, nx, picks) => {
                        let nx = nx.min(pool[d].len()).min(pool[s].len());
                        let rows: Vec<(usize, usize)> = picks
                            .iter()
                            .map(|&(a, b)| {
                                (a % (pool[d].len() - nx + 1), b % (pool[s].len() - nx + 1))
                            })
                            .collect();
                        copy_rows(&pool[d], &pool[s], nx, rows);
                        if d == s || !pool[s].is_virtual() {
                            wrote = Some(d);
                        }
                    }
                    SlabOp::CopyRuns(d, s, cuts) => {
                        let n = pool[d].len().min(pool[s].len());
                        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
                        cuts.sort_unstable();
                        cuts.dedup();
                        let runs: Vec<(usize, usize)> = cuts
                            .chunks_exact(2)
                            .map(|c| (c[0], c[1] - c[0]))
                            .collect();
                        copy_runs(&pool[d], &pool[s], &runs);
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
                if !probe {
                    continue;
                }
                for (b, slab) in pool.iter().enumerate() {
                    let fresh = slab.with(|d| d.map(word_digest));
                    // The slab's own memo (served or rebuilt by digest()).
                    prop_assert_eq!(slab.digest(), fresh, "buffer {} digest memo went stale after {:?}", b, op);
                    // A digest memoised outside the slab by stamp.
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

        /// Every digest path computes the same sum: the dispatched loop,
        /// each vector build this CPU can run, the portable loop, and a
        /// position-by-position sum, at any start position and across the
        /// inline/vector threshold.
        #[test]
        fn prop_mix_sum_paths_agree(
            values in proptest::collection::vec(any::<u64>(), 0..80),
            first in 0usize..1_000_000,
        ) {
            let values: Vec<f64> = values.into_iter().map(f64::from_bits).collect();
            let by_position = values.iter().enumerate().fold(0u64, |acc, (j, v)| {
                acc.wrapping_add(mix(((first + j) as u64).wrapping_mul(KEY_STEP), v.to_bits()))
            });
            prop_assert_eq!(mix_sum_portable(first, &values), by_position);
            prop_assert_eq!(mix_sum(first, &values), by_position);
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 support was detected at run time.
                    prop_assert_eq!(unsafe { mix_sum_avx2(first, &values) }, by_position);
                }
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                {
                    // SAFETY: AVX-512F and AVX-512DQ support was detected.
                    prop_assert_eq!(unsafe { mix_sum_avx512(first, &values) }, by_position);
                }
            }
        }

        /// copy_rows matches a per-cell reference on random rows, onto
        /// another slab and onto itself; the destination's memo stays
        /// valid and exact.
        #[test]
        fn prop_copy_rows_matches_per_cell_reference(
            src in proptest::collection::vec(-1e6f64..1e6, 1..64),
            dst_len in 1usize..64,
            nx in 1usize..12,
            picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..8),
            same in any::<bool>(),
        ) {
            let dst_init: Vec<f64> = (0..dst_len).map(|i| i as f64 * -0.5).collect();
            let (s, d) = if same {
                let s = Slab::from_vec(src.clone());
                (s.clone(), s)
            } else {
                (Slab::from_vec(src.clone()), Slab::from_vec(dst_init.clone()))
            };
            let mut expect = if same { src.clone() } else { dst_init };
            let nx = nx.min(expect.len()).min(src.len());
            let rows: Vec<(usize, usize)> = picks
                .iter()
                .map(|&(a, b)| (a % (expect.len() - nx + 1), b % (src.len() - nx + 1)))
                .collect();
            d.digest();
            prop_assert!(memo_valid(&d));
            let before = d.stamp();
            copy_rows(&d, &s, nx, rows.iter().copied());
            for &(doff, soff) in &rows {
                // Rows move as a whole (memmove), also onto themselves.
                let row: Vec<f64> = (0..nx)
                    .map(|j| if same { expect[soff + j] } else { src[soff + j] })
                    .collect();
                for (j, v) in row.into_iter().enumerate() {
                    expect[doff + j] = v;
                }
            }
            prop_assert_eq!(d.snapshot().unwrap(), expect.clone());
            prop_assert!(d.stamp() != before, "the destination is restamped");
            prop_assert!(memo_valid(&d), "copy_rows keeps the memo");
            prop_assert_eq!(d.digest(), Some(word_digest(&expect)));
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
            copy_rows(&v, &r, 1, [(0, 0)]);
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
