//! Crash-consistent checkpoints: snapshot, versioned binary format, store.
//!
//! A [`Checkpoint`] captures everything a [`crate::TileAcc`] needs to resume
//! a run bit-identically: the step cursor, the LRU clock, the accumulated
//! [`AccStats`], every registered region's host slab, and the cache-list /
//! dirty-bit state (which, because snapshots are taken *after* a full
//! `sync_to_host`, must be empty/clean — the crash-consistency invariant
//! validated on restore).
//!
//! # Binary format (version 5)
//!
//! ```text
//! magic   b"TACK"
//! version u16 LE
//! section*  { tag u8, payload_len u64 LE, payload, fnv1a64(payload) u64 LE }
//! ```
//!
//! Sections: `META` (1) — step, clock, shape, cache list, dirty bits;
//! `STATS` (2) — the [`AccStats`] fields as u64 LE (a version-4 blob carries
//! the first 31 and decodes with the rest zeroed); `DATA` (3) — all region
//! values as f64 LE, concatenated in registration order. Every section
//! carries its own FNV-1a checksum, so a torn write (truncation) surfaces as
//! [`CheckpointError::Torn`] and a bit flip as
//! [`CheckpointError::ChecksumMismatch`] — a reader never trusts a partial
//! or corrupt snapshot.
//!
//! [`CheckpointStore`] keeps the most recent `keep` encoded snapshots in an
//! in-memory ring and, when a directory is configured, mirrors each one to
//! disk via an atomic temp-file + rename so a crash mid-write can never
//! replace a good snapshot with a torn one.

use crate::stats::AccStats;
use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"TACK";
// v2: the stats section grew from 22 to 26 words (prefetch/deferral
// counters). v3: 26 to 29 words (migration counters). v4: 29 to 31 (fusion
// counters). v5: 31 to 33 (part-dirty write-back counters); v4 blobs still
// decode, the new counters zeroed. Older blobs are rejected as
// UnsupportedVersion.
const VERSION: u16 = 5;
/// The oldest version [`Checkpoint::decode`] still reads.
const MIN_VERSION: u16 = 4;
/// Stats words per version, indexed from [`MIN_VERSION`].
const STATS_WORDS: [usize; 2] = [31, STATS_LEN];
const STATS_LEN: usize = 33;
const TAG_META: u8 = 1;
const TAG_STATS: u8 = 2;
const TAG_DATA: u8 = 3;

/// When and how many snapshots to retain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Take a checkpoint every `interval` steps (0 disables periodic
    /// checkpoints; an initial step-0 snapshot is still taken by the
    /// supervisor so recovery always has a floor).
    pub interval: u64,
    /// How many snapshots to retain (ring buffer; older ones are dropped).
    pub keep: usize,
    /// Mirror snapshots to this directory (atomic temp+rename writes).
    pub dir: Option<PathBuf>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            interval: 8,
            keep: 2,
            dir: None,
        }
    }
}

impl CheckpointPolicy {
    pub fn every(interval: u64) -> Self {
        CheckpointPolicy {
            interval,
            ..CheckpointPolicy::default()
        }
    }

    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    pub fn on_disk(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }
}

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure while mirroring or loading a snapshot.
    Io(String),
    /// The blob does not start with the `TACK` magic.
    BadMagic,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The blob ends mid-section: a torn (partial) write.
    Torn,
    /// A section's checksum does not match its payload: corruption.
    ChecksumMismatch,
    /// The snapshot decodes but does not fit this accelerator (different
    /// array/region shape) or violates the crash-consistency invariant.
    Incompatible,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Torn => write!(f, "torn checkpoint (truncated section)"),
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint section failed its checksum")
            }
            CheckpointError::Incompatible => {
                write!(f, "checkpoint does not match this accelerator")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A crash-consistent snapshot of a [`crate::TileAcc`] or of the `cluster`
/// crate's `Cluster`. Produced by their `checkpoint` methods; applied with
/// `restore`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Step cursor the snapshot was taken at; a restored run resumes here.
    pub step: u64,
    /// The runtime's LRU clock, so slot-victim choice replays identically.
    pub clock: u64,
    /// Runtime counters at snapshot time (rolled back on restore).
    pub stats: AccStats,
    /// `[array][region]` host-slab values; an empty region is virtual
    /// (never materialized). Public so out-of-crate runtimes (e.g. the
    /// cluster layer) can reuse the snapshot as a live-migration format.
    pub data: Vec<Vec<Vec<f64>>>,
    /// Cache list at snapshot time (`-1` = empty slot). Post-sync this is
    /// all `-1`; restore rejects anything else as inconsistent.
    pub cache: Vec<i64>,
    /// Dirty bits at snapshot time (must all be clear; see `cache`).
    pub dirty: Vec<bool>,
}

use memslab::fnv1a64;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.buf.len() {
            return Err(CheckpointError::Torn);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

fn stats_to_words(s: &AccStats) -> [u64; STATS_LEN] {
    [
        s.hits,
        s.loads,
        s.write_allocs,
        s.evictions,
        s.writebacks_skipped,
        s.host_syncs,
        s.kernels_gpu,
        s.kernels_host,
        s.conflict_fallbacks,
        s.ghost_gpu,
        s.ghost_host,
        s.transfer_retries,
        s.fault_fallbacks,
        s.slot_shrinks,
        s.salvaged_regions,
        s.checkpoints_taken,
        s.checkpoints_restored,
        s.hang_detections,
        s.integrity_detected,
        s.integrity_repaired,
        s.slots_quarantined,
        s.hazards,
        s.prefetch_loads,
        s.prefetch_hits,
        s.prefetch_fallbacks,
        s.writebacks_deferred,
        s.regions_migrated,
        s.migration_restage_loads,
        s.migration_restage_bytes,
        s.kernels_fused,
        s.fused_substeps,
        s.writebacks_valid_only,
        s.writebacks_shell_only,
    ]
}

fn stats_from_words(w: &[u64; STATS_LEN]) -> AccStats {
    AccStats {
        hits: w[0],
        loads: w[1],
        write_allocs: w[2],
        evictions: w[3],
        writebacks_skipped: w[4],
        host_syncs: w[5],
        kernels_gpu: w[6],
        kernels_host: w[7],
        conflict_fallbacks: w[8],
        ghost_gpu: w[9],
        ghost_host: w[10],
        transfer_retries: w[11],
        fault_fallbacks: w[12],
        slot_shrinks: w[13],
        salvaged_regions: w[14],
        checkpoints_taken: w[15],
        checkpoints_restored: w[16],
        hang_detections: w[17],
        integrity_detected: w[18],
        integrity_repaired: w[19],
        slots_quarantined: w[20],
        hazards: w[21],
        prefetch_loads: w[22],
        prefetch_hits: w[23],
        prefetch_fallbacks: w[24],
        writebacks_deferred: w[25],
        regions_migrated: w[26],
        migration_restage_loads: w[27],
        migration_restage_bytes: w[28],
        kernels_fused: w[29],
        fused_substeps: w[30],
        writebacks_valid_only: w[31],
        writebacks_shell_only: w[32],
    }
}

impl Checkpoint {
    /// Build a snapshot directly from drained region data — the entry point
    /// for runtimes layered above [`crate::TileAcc`] (the serving layer
    /// checkpoints a preempted job's regions through the same TACK codec and
    /// store machinery). `data` is `[array][region]` host values; the
    /// snapshot satisfies the post-sync invariant by construction (no
    /// resident slots, nothing dirty).
    pub fn from_region_data(step: u64, data: Vec<Vec<Vec<f64>>>) -> Checkpoint {
        Checkpoint {
            step,
            clock: 0,
            stats: AccStats::default(),
            data,
            cache: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// The `[array][region]` host values this snapshot carries.
    pub fn region_data(&self) -> &[Vec<Vec<f64>>] {
        &self.data
    }

    /// Serialize to the versioned, per-section-checksummed binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        put_u64(&mut meta, self.step);
        put_u64(&mut meta, self.clock);
        put_u64(&mut meta, self.data.len() as u64);
        for regions in &self.data {
            put_u64(&mut meta, regions.len() as u64);
            for r in regions {
                put_u64(&mut meta, r.len() as u64);
            }
        }
        put_u64(&mut meta, self.cache.len() as u64);
        for &c in &self.cache {
            put_u64(&mut meta, c as u64);
        }
        put_u64(&mut meta, self.dirty.len() as u64);
        for &d in &self.dirty {
            meta.push(d as u8);
        }

        let mut stats = Vec::new();
        for w in stats_to_words(&self.stats) {
            put_u64(&mut stats, w);
        }

        let mut data = Vec::new();
        for regions in &self.data {
            for r in regions {
                for &v in r {
                    data.extend_from_slice(&v.to_le_bytes());
                }
            }
        }

        let mut out = Vec::with_capacity(data.len() + meta.len() + 128);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for (tag, payload) in [(TAG_META, &meta), (TAG_STATS, &stats), (TAG_DATA, &data)] {
            out.push(tag);
            put_u64(&mut out, payload.len() as u64);
            out.extend_from_slice(payload);
            put_u64(&mut out, fnv1a64(payload));
        }
        out
    }

    /// Decode a blob, rejecting torn or corrupt snapshots. Inverse of
    /// [`Checkpoint::encode`].
    pub fn decode(blob: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Reader { buf: blob, pos: 0 };
        if r.take(4).map_err(|_| CheckpointError::Torn)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u16()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let (mut meta, mut stats, mut data) = (None, None, None);
        while !r.done() {
            let tag = r.u8()?;
            let len = r.u64()? as usize;
            let payload = r.take(len)?.to_vec();
            let sum = r.u64()?;
            if fnv1a64(&payload) != sum {
                return Err(CheckpointError::ChecksumMismatch);
            }
            match tag {
                TAG_META => meta = Some(payload),
                TAG_STATS => stats = Some(payload),
                TAG_DATA => data = Some(payload),
                // Unknown sections from a future minor revision are skipped
                // (their checksum was still verified above).
                _ => {}
            }
        }
        let (meta, stats, data) = match (meta, stats, data) {
            (Some(m), Some(s), Some(d)) => (m, s, d),
            _ => return Err(CheckpointError::Torn),
        };

        let mut m = Reader { buf: &meta, pos: 0 };
        let step = m.u64()?;
        let clock = m.u64()?;
        let narrays = m.u64()? as usize;
        let mut shape: Vec<Vec<usize>> = Vec::with_capacity(narrays);
        for _ in 0..narrays {
            let nregions = m.u64()? as usize;
            let mut lens = Vec::with_capacity(nregions);
            for _ in 0..nregions {
                lens.push(m.u64()? as usize);
            }
            shape.push(lens);
        }
        let ncache = m.u64()? as usize;
        let mut cache = Vec::with_capacity(ncache);
        for _ in 0..ncache {
            cache.push(m.u64()? as i64);
        }
        let ndirty = m.u64()? as usize;
        let mut dirty = Vec::with_capacity(ndirty);
        for _ in 0..ndirty {
            dirty.push(m.u8()? != 0);
        }

        let mut s = Reader {
            buf: &stats,
            pos: 0,
        };
        let mut words = [0u64; STATS_LEN];
        for w in &mut words[..STATS_WORDS[usize::from(version - MIN_VERSION)]] {
            *w = s.u64()?;
        }

        let total: usize = shape.iter().flatten().sum();
        if data.len() != total * 8 {
            return Err(CheckpointError::Incompatible);
        }
        let mut d = Reader { buf: &data, pos: 0 };
        let mut values: Vec<Vec<Vec<f64>>> = Vec::with_capacity(narrays);
        for lens in &shape {
            let mut regions = Vec::with_capacity(lens.len());
            for &len in lens {
                let mut r = Vec::with_capacity(len);
                for _ in 0..len {
                    r.push(f64::from_le_bytes(d.take(8)?.try_into().unwrap()));
                }
                regions.push(r);
            }
            values.push(regions);
        }

        Ok(Checkpoint {
            step,
            clock,
            stats: stats_from_words(&words),
            data: values,
            cache,
            dirty,
        })
    }
}

/// A bounded ring of encoded snapshots, optionally mirrored to disk.
///
/// The store keeps snapshots *encoded* — [`CheckpointStore::latest_valid`]
/// decodes newest-first and skips (counting) anything torn or corrupt, so a
/// failed or tampered latest snapshot transparently falls back to the one
/// before it.
pub struct CheckpointStore {
    policy: CheckpointPolicy,
    /// `(sequence number, encoded blob)`, oldest first.
    ring: VecDeque<(u64, Vec<u8>)>,
    next_seq: u64,
    /// Directory entries the last [`CheckpointStore::scan_dir`] skipped:
    /// foreign files, zero-length snapshots, unreadable entries.
    scan_skipped: u64,
}

impl CheckpointStore {
    pub fn new(policy: CheckpointPolicy) -> Self {
        CheckpointStore {
            policy,
            ring: VecDeque::new(),
            next_seq: 0,
            scan_skipped: 0,
        }
    }

    /// Rebuild a store from the `ck_*.tack` files in a directory (for a
    /// cross-process restart). Blobs are loaded verbatim; validation happens
    /// in [`CheckpointStore::latest_valid`].
    ///
    /// A snapshot directory on a real deployment is never pristine — editor
    /// droppings, half-written temp files from a killed mirror, operator
    /// notes. Anything that is not a well-formed, non-empty `ck_<seq>.tack`
    /// file is skipped and counted ([`CheckpointStore::scan_skipped`])
    /// rather than aborting the rescan: a recovery that has a valid snapshot
    /// on disk must find it regardless of what else accumulated next to it.
    /// Only a missing/unreadable directory itself is an error.
    pub fn scan_dir(policy: CheckpointPolicy, dir: &Path) -> Result<Self, CheckpointError> {
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        let mut skipped = 0u64;
        let entries = std::fs::read_dir(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        for entry in entries {
            let Ok(entry) = entry else {
                skipped += 1;
                continue;
            };
            let name = entry.file_name().to_string_lossy().into_owned();
            match name
                .strip_prefix("ck_")
                .and_then(|s| s.strip_suffix(".tack"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                Some(seq) => found.push((seq, entry.path())),
                // Foreign file (or a `.ck_*.tmp` torn mirror): not ours.
                None => skipped += 1,
            }
        }
        found.sort();
        let mut store = CheckpointStore::new(policy);
        for (seq, path) in found {
            let blob = match std::fs::read(&path) {
                Ok(b) => b,
                Err(_) => {
                    // Vanished or unreadable since the directory listing
                    // (permissions, concurrent pruning): skip it.
                    skipped += 1;
                    continue;
                }
            };
            if blob.is_empty() {
                // A zero-length snapshot carries nothing worth keeping in
                // the ring; it would only burn a `keep` slot and a rejection
                // in `latest_valid`.
                skipped += 1;
                continue;
            }
            store.ring.push_back((seq, blob));
            store.next_seq = store.next_seq.max(seq + 1);
        }
        while store.ring.len() > store.policy.keep.max(1) {
            store.ring.pop_front();
        }
        store.scan_skipped = skipped;
        Ok(store)
    }

    /// How many directory entries the last `scan_dir` skipped (foreign
    /// files, zero-length or unreadable snapshots). 0 for stores that were
    /// not built by a rescan.
    pub fn scan_skipped(&self) -> u64 {
        self.scan_skipped
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Encode and retain a snapshot (dropping the oldest beyond `keep`);
    /// mirror it to disk atomically when a directory is configured.
    pub fn push(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        let blob = ck.encode();
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(dir) = self.policy.dir.clone() {
            self.write_atomic(&dir, seq, &blob)?;
        }
        self.ring.push_back((seq, blob));
        while self.ring.len() > self.policy.keep.max(1) {
            if let Some((old, _)) = self.ring.pop_front() {
                if let Some(dir) = &self.policy.dir {
                    let _ = std::fs::remove_file(dir.join(format!("ck_{old:08}.tack")));
                }
            }
        }
        Ok(())
    }

    fn write_atomic(&self, dir: &Path, seq: u64, blob: &[u8]) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let tmp = dir.join(format!(".ck_{seq:08}.tmp"));
        let fin = dir.join(format!("ck_{seq:08}.tack"));
        std::fs::write(&tmp, blob).map_err(|e| CheckpointError::Io(e.to_string()))?;
        std::fs::rename(&tmp, &fin).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Ok(())
    }

    /// Decode the newest snapshot that passes validation, counting how many
    /// newer ones were rejected as torn/corrupt. `(None, n)` means no valid
    /// snapshot exists at all.
    pub fn latest_valid(&self) -> (Option<Checkpoint>, u64) {
        let mut rejected = 0;
        for (_, blob) in self.ring.iter().rev() {
            match Checkpoint::decode(blob) {
                Ok(ck) => return (Some(ck), rejected),
                Err(_) => rejected += 1,
            }
        }
        (None, rejected)
    }

    /// Flip one bit of the `idx_from_latest`-newest blob (0 = newest) —
    /// corruption injection for tests.
    pub fn tamper(&mut self, idx_from_latest: usize, byte: usize) {
        let n = self.ring.len();
        if let Some((_, blob)) = self.ring.get_mut(n - 1 - idx_from_latest) {
            let i = byte % blob.len();
            blob[i] ^= 0x40;
        }
    }

    /// Truncate the `idx_from_latest`-newest blob to `frac` of its length —
    /// torn-write injection for tests.
    pub fn truncate(&mut self, idx_from_latest: usize, frac: f64) {
        let n = self.ring.len();
        if let Some((_, blob)) = self.ring.get_mut(n - 1 - idx_from_latest) {
            let keep = ((blob.len() as f64) * frac) as usize;
            blob.truncate(keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            step: 42,
            clock: 7,
            stats: AccStats {
                hits: 3,
                loads: 5,
                checkpoints_taken: 1,
                ..AccStats::default()
            },
            data: vec![
                vec![vec![1.0, 2.5, -3.0], vec![]],
                vec![vec![0.125], vec![9.0, 10.0]],
            ],
            cache: vec![-1, -1],
            dirty: vec![false, false],
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let ck = sample();
        let blob = ck.encode();
        let back = Checkpoint::decode(&blob).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut blob = sample().encode();
        blob[0] = b'X';
        assert_eq!(Checkpoint::decode(&blob), Err(CheckpointError::BadMagic));
        let mut blob = sample().encode();
        blob[4] = 9;
        assert_eq!(
            Checkpoint::decode(&blob),
            Err(CheckpointError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn version_4_blobs_decode_with_the_new_counters_zeroed() {
        let mut ck = sample();
        ck.stats.fused_substeps = 6;
        ck.stats.writebacks_valid_only = 2;
        ck.stats.writebacks_shell_only = 1;
        // Re-frame the v5 blob as v4 wrote it: 31 stats words.
        let blob = ck.encode();
        let mut v4 = Vec::from(&blob[..4]);
        v4.extend_from_slice(&4u16.to_le_bytes());
        let mut at = 6;
        while at < blob.len() {
            let tag = blob[at];
            let len = u64::from_le_bytes(blob[at + 1..at + 9].try_into().unwrap()) as usize;
            let mut payload = &blob[at + 9..at + 9 + len];
            if tag == TAG_STATS {
                payload = &payload[..31 * 8];
            }
            v4.push(tag);
            put_u64(&mut v4, payload.len() as u64);
            v4.extend_from_slice(payload);
            put_u64(&mut v4, fnv1a64(payload));
            at += 9 + len + 8;
        }
        let back = Checkpoint::decode(&v4).unwrap();
        assert_eq!(back.stats.fused_substeps, 6);
        assert_eq!(back.stats.writebacks_valid_only, 0);
        assert_eq!(back.stats.writebacks_shell_only, 0);
        assert_eq!(back.data, ck.data);
        ck.stats.writebacks_valid_only = 0;
        ck.stats.writebacks_shell_only = 0;
        assert_eq!(back, ck);
        v4[4] = 3;
        assert_eq!(
            Checkpoint::decode(&v4),
            Err(CheckpointError::UnsupportedVersion(3))
        );
    }

    #[test]
    fn truncation_is_torn() {
        let blob = sample().encode();
        for cut in [3, 10, blob.len() / 2, blob.len() - 1] {
            let e = Checkpoint::decode(&blob[..cut]).unwrap_err();
            assert!(
                matches!(e, CheckpointError::Torn | CheckpointError::BadMagic),
                "cut at {cut} gave {e:?}"
            );
        }
    }

    #[test]
    fn bitflip_is_checksum_mismatch() {
        let blob = sample().encode();
        // Flip a byte inside every section's payload.
        for at in [20, blob.len() / 2, blob.len() - 12] {
            let mut b = blob.clone();
            b[at] ^= 0x01;
            let e = Checkpoint::decode(&b).unwrap_err();
            assert!(
                matches!(e, CheckpointError::ChecksumMismatch | CheckpointError::Torn),
                "flip at {at} gave {e:?}"
            );
        }
    }

    #[test]
    fn store_keeps_ring_and_falls_back_past_corruption() {
        let mut store = CheckpointStore::new(CheckpointPolicy::every(4).keep(3));
        for step in [4, 8, 12, 16] {
            let mut ck = sample();
            ck.step = step;
            store.push(&ck).unwrap();
        }
        assert_eq!(store.len(), 3); // keep=3 dropped step 4
        let (ck, rejected) = store.latest_valid();
        assert_eq!(ck.unwrap().step, 16);
        assert_eq!(rejected, 0);

        store.tamper(0, 40); // corrupt newest
        store.truncate(1, 0.5); // tear the one before it
        let (ck, rejected) = store.latest_valid();
        assert_eq!(ck.unwrap().step, 8);
        assert_eq!(rejected, 2);
    }

    #[test]
    fn scan_dir_skips_and_counts_foreign_and_empty_files() {
        let dir = std::env::temp_dir().join(format!("tack-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::every(1).keep(4).on_disk(&dir);
        let mut store = CheckpointStore::new(policy.clone());
        let mut ck = sample();
        ck.step = 11;
        store.push(&ck).unwrap();

        // Junk a real snapshot directory accumulates: an operator note, a
        // torn temp file from a killed mirror, a zero-length snapshot, and
        // a file with an unparseable sequence number.
        std::fs::write(dir.join("README.txt"), b"ops notes").unwrap();
        std::fs::write(dir.join(".ck_00000009.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("ck_00000099.tack"), b"").unwrap();
        std::fs::write(dir.join("ck_banana.tack"), b"not a seq").unwrap();

        let rescanned = CheckpointStore::scan_dir(policy, &dir).unwrap();
        assert_eq!(rescanned.scan_skipped(), 4, "every junk entry counted");
        assert_eq!(rescanned.len(), 1, "only the real snapshot loaded");
        let (got, rejected) = rescanned.latest_valid();
        assert_eq!(got.unwrap().step, 11);
        assert_eq!(rejected, 0, "junk never reaches the decode path");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_region_data_roundtrips_through_the_codec() {
        let ck = Checkpoint::from_region_data(5, vec![vec![vec![1.5, -2.0], vec![0.0]]]);
        assert_eq!(ck.step, 5);
        assert_eq!(ck.region_data()[0][0], vec![1.5, -2.0]);
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn disk_mirror_roundtrips_and_prunes() {
        let dir = std::env::temp_dir().join(format!("tack-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::every(1).keep(2).on_disk(&dir);
        let mut store = CheckpointStore::new(policy.clone());
        for step in [1, 2, 3] {
            let mut ck = sample();
            ck.step = step;
            store.push(&ck).unwrap();
        }
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files.len(), 2, "pruned to keep=2: {files:?}");

        let store2 = CheckpointStore::scan_dir(policy, &dir).unwrap();
        let (ck, rejected) = store2.latest_valid();
        assert_eq!(ck.unwrap().step, 3);
        assert_eq!(rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
