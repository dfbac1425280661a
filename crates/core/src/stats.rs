//! Runtime counters.

use std::fmt;

/// Counters accumulated by [`crate::TileAcc`] over a run. Useful for
/// asserting the caching protocol's behaviour (hits avoid transfers,
/// limited memory causes evictions, static-slot conflicts fall back to the
/// host) without inspecting the schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccStats {
    /// Device-cache hits: the region was already resident in its slot.
    pub hits: u64,
    /// Host→device region loads.
    pub loads: u64,
    /// Slots claimed without an upload because the kernel overwrites the
    /// whole region (write-intent allocation).
    pub write_allocs: u64,
    /// Evictions (another region needed the slot).
    pub evictions: u64,
    /// Eviction write-backs skipped because the slot was clean
    /// (only under `WritebackPolicy::DirtyOnly`).
    pub writebacks_skipped: u64,
    /// Device→host transfers triggered by host access.
    pub host_syncs: u64,
    /// Kernels launched on the device path.
    pub kernels_gpu: u64,
    /// Tiles executed on the host path (CPU mode or conflict fallback).
    pub kernels_host: u64,
    /// Tiles that *fell back* to the host because of a static slot conflict.
    pub conflict_fallbacks: u64,
    /// Ghost patches applied via device gather kernels.
    pub ghost_gpu: u64,
    /// Ghost patches applied on the host.
    pub ghost_host: u64,
    /// Transfer attempts re-issued after an injected transient fault.
    pub transfer_retries: u64,
    /// Tiles routed to the host because the device path was declared dead
    /// (persistent transfer failure).
    pub fault_fallbacks: u64,
    /// Device slots the pool gave up on because `cudaMalloc` failed mid-run.
    pub slot_shrinks: u64,
    /// Dirty regions rescued through the fault-exempt salvage copy path.
    pub salvaged_regions: u64,
    /// Crash-consistent checkpoints captured from this runtime.
    pub checkpoints_taken: u64,
    /// Times this runtime's state was rebuilt from a checkpoint.
    pub checkpoints_restored: u64,
    /// Hangs a supervisor detected against this runtime (progress deadline
    /// exceeded with no step retired).
    pub hang_detections: u64,
    /// Digest mismatches the transfer-integrity layer detected (in-flight
    /// corruption or a struck resident slot).
    pub integrity_detected: u64,
    /// Corruption events repaired in place: a bounded retransmit cleaned the
    /// link, or a clean slot was refilled from its host origin.
    pub integrity_repaired: u64,
    /// Device slots quarantined because an unrepairable corruption poisoned
    /// them (the runtime stops placing regions there).
    pub slots_quarantined: u64,
    /// Stream-ordering hazards the happens-before detector flagged
    /// (any kind; a clean run must show zero).
    pub hazards: u64,
    /// Host→device region loads issued by a prefetch (caller-driven or the
    /// lookahead scheduler) rather than by a demand miss. Also counted in
    /// `loads`, which covers every upload.
    pub prefetch_loads: u64,
    /// First organic uses that found their region resident only because a
    /// prefetch warmed it. Kept separate from `hits` so figures don't
    /// over-report organic cache efficiency.
    pub prefetch_hits: u64,
    /// Prefetches that could not stage a region (dead device path, static
    /// slot conflict, quarantine-exhausted pool) and degraded to a no-op.
    pub prefetch_fallbacks: u64,
    /// Clean-slot evictions whose mandatory write-back was elided because a
    /// detected step plan proves the host mirror is already current
    /// (only under `WritebackPolicy::Always` with a live plan).
    pub writebacks_deferred: u64,
    /// Write-backs of a slot only its valid box was dirty in (kernels
    /// wrote it, no ghost gather since the load): just the valid box went
    /// home, through a gathered copy.
    pub writebacks_valid_only: u64,
    /// Write-backs of a slot only its ghost shell was dirty in (a ghost
    /// gather wrote it, no kernel since the load): just the shell went
    /// home, through a gathered copy.
    pub writebacks_shell_only: u64,
    /// Fused temporal-blocking launches (one launch covering k stencil
    /// applications; also counted in `kernels_gpu`).
    pub kernels_fused: u64,
    /// Total stencil applications executed inside fused launches (host or
    /// device): the sum of every fused call's depth. `fused_substeps /
    /// kernels_fused` is the average amortization factor k.
    pub fused_substeps: u64,
    /// Regions re-owned onto a surviving device after a device loss or a
    /// quarantine evacuation (live migration; the `cluster` runtime only).
    pub regions_migrated: u64,
    /// Host→device uploads owed to migration: each migrated region of each
    /// array must be re-staged from its host mirror onto its new owner.
    /// Kept separate from `loads` so failover cost is visible on its own.
    pub migration_restage_loads: u64,
    /// Bytes of host-mirror state the migration re-stage moves (the
    /// separate accounting the failover conservation checks pin).
    pub migration_restage_bytes: u64,
}

impl fmt::Display for AccStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} loads={} evictions={} host_syncs={} kernels(gpu/host)={}/{} ghosts(gpu/host)={}/{} conflicts={}",
            self.hits,
            self.loads,
            self.evictions,
            self.host_syncs,
            self.kernels_gpu,
            self.kernels_host,
            self.ghost_gpu,
            self.ghost_host,
            self.conflict_fallbacks,
        )?;
        if self.transfer_retries + self.fault_fallbacks + self.slot_shrinks + self.salvaged_regions
            > 0
        {
            write!(
                f,
                " retries={} fault_fallbacks={} slot_shrinks={} salvaged={}",
                self.transfer_retries,
                self.fault_fallbacks,
                self.slot_shrinks,
                self.salvaged_regions,
            )?;
        }
        if self.checkpoints_taken + self.checkpoints_restored + self.hang_detections > 0 {
            write!(
                f,
                " ckpts(taken/restored)={}/{} hangs={}",
                self.checkpoints_taken, self.checkpoints_restored, self.hang_detections,
            )?;
        }
        if self.integrity_detected + self.integrity_repaired + self.slots_quarantined + self.hazards
            > 0
        {
            write!(
                f,
                " integrity(detected/repaired)={}/{} quarantined={} hazards={}",
                self.integrity_detected,
                self.integrity_repaired,
                self.slots_quarantined,
                self.hazards,
            )?;
        }
        if self.prefetch_loads
            + self.prefetch_hits
            + self.prefetch_fallbacks
            + self.writebacks_deferred
            > 0
        {
            write!(
                f,
                " prefetch(loads/hits)={}/{} prefetch_fallbacks={} deferred_wb={}",
                self.prefetch_loads,
                self.prefetch_hits,
                self.prefetch_fallbacks,
                self.writebacks_deferred,
            )?;
        }
        if self.writebacks_valid_only + self.writebacks_shell_only > 0 {
            write!(
                f,
                " part_wb(valid/shell)={}/{}",
                self.writebacks_valid_only, self.writebacks_shell_only,
            )?;
        }
        if self.kernels_fused + self.fused_substeps > 0 {
            write!(
                f,
                " fused(launches/substeps)={}/{}",
                self.kernels_fused, self.fused_substeps,
            )?;
        }
        if self.regions_migrated + self.migration_restage_loads + self.migration_restage_bytes > 0 {
            write!(
                f,
                " migrated={} restage(loads/bytes)={}/{}",
                self.regions_migrated, self.migration_restage_loads, self.migration_restage_bytes,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed_and_displays() {
        let s = AccStats::default();
        assert_eq!(s.hits, 0);
        assert_eq!(s.write_allocs, 0);
        assert_eq!(s.writebacks_skipped, 0);
        let text = s.to_string();
        assert!(text.contains("loads=0"));
        assert!(text.contains("evictions=0"));
    }

    #[test]
    fn display_reflects_counts() {
        let s = AccStats {
            hits: 3,
            loads: 2,
            kernels_gpu: 7,
            ..AccStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("hits=3"));
        assert!(text.contains("loads=2"));
        assert!(text.contains("kernels(gpu/host)=7/0"));
    }

    #[test]
    fn display_adds_fault_suffix_only_when_nonzero() {
        assert!(!AccStats::default().to_string().contains("retries="));
        let s = AccStats {
            transfer_retries: 2,
            fault_fallbacks: 4,
            slot_shrinks: 1,
            salvaged_regions: 1,
            ..AccStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("retries=2"));
        assert!(text.contains("fault_fallbacks=4"));
        assert!(text.contains("slot_shrinks=1"));
        assert!(text.contains("salvaged=1"));
    }

    #[test]
    fn display_adds_recovery_suffix_only_when_nonzero() {
        assert!(!AccStats::default().to_string().contains("ckpts"));
        let s = AccStats {
            checkpoints_taken: 3,
            checkpoints_restored: 1,
            hang_detections: 2,
            ..AccStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("ckpts(taken/restored)=3/1"));
        assert!(text.contains("hangs=2"));
    }

    #[test]
    fn display_adds_integrity_suffix_only_when_nonzero() {
        assert!(!AccStats::default().to_string().contains("integrity"));
        let s = AccStats {
            integrity_detected: 4,
            integrity_repaired: 3,
            slots_quarantined: 1,
            hazards: 2,
            ..AccStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("integrity(detected/repaired)=4/3"));
        assert!(text.contains("quarantined=1"));
        assert!(text.contains("hazards=2"));
    }

    #[test]
    fn display_adds_prefetch_suffix_only_when_nonzero() {
        assert!(!AccStats::default().to_string().contains("prefetch"));
        let s = AccStats {
            prefetch_loads: 5,
            prefetch_hits: 4,
            prefetch_fallbacks: 1,
            writebacks_deferred: 3,
            ..AccStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("prefetch(loads/hits)=5/4"));
        assert!(text.contains("prefetch_fallbacks=1"));
        assert!(text.contains("deferred_wb=3"));
    }

    #[test]
    fn display_adds_fused_suffix_only_when_nonzero() {
        assert!(!AccStats::default().to_string().contains("fused"));
        let s = AccStats {
            kernels_fused: 3,
            fused_substeps: 12,
            ..AccStats::default()
        };
        assert!(s.to_string().contains("fused(launches/substeps)=3/12"));
    }

    #[test]
    fn display_adds_migration_suffix_only_when_nonzero() {
        assert!(!AccStats::default().to_string().contains("migrated"));
        let s = AccStats {
            regions_migrated: 2,
            migration_restage_loads: 4,
            migration_restage_bytes: 4096,
            ..AccStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("migrated=2"));
        assert!(text.contains("restage(loads/bytes)=4/4096"));
    }
}
