//! Typed runtime errors.
//!
//! The accelerator runtime distinguishes failures the caller can *degrade*
//! around (a static slot conflict, a dead transfer lane — both handled
//! internally by falling back to the host path) from failures that end the
//! run: a crashed platform, device memory too small for a single region, or
//! a working set that cannot be distributed. The latter surface as
//! [`AccError`] so a supervisor (see [`crate::Supervisor`]) can decide
//! whether to restore a checkpoint or give up.

use std::fmt;

/// A non-degradable runtime failure of [`crate::TileAcc`] or of the jobs the
/// serving layer runs on its devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccError {
    /// The simulated platform died (seeded crash fault): in-flight work was
    /// lost and every later submission is refused. Recovery means discarding
    /// this instance and restoring a checkpoint.
    Crashed,
    /// Free device memory cannot hold even one region, so the slot pool
    /// cannot be sized.
    Capacity { free_bytes: u64, region_bytes: u64 },
    /// A device allocation the runtime cannot run without was refused
    /// (a serving job's working set).
    DeviceAlloc { bytes: u64 },
    /// A transfer failed persistently past the retry budget on a runtime
    /// with no host-fallback path (a serving job keeps its regions
    /// device-resident).
    TransferExhausted { region: usize },
    /// Silent data corruption the integrity layer could not repair in place:
    /// the authoritative copy of a field region is gone (dirty device slot
    /// struck, or the host mirror itself poisoned by a bad write-back).
    /// Recovery means restoring a checkpoint taken before the strike.
    Integrity { region: usize, kind: IntegrityKind },
    /// The serving layer's global admission queue is at its depth bound;
    /// the job was shed (overload protection, not a runtime failure).
    QueueFull { tenant: u32 },
    /// The submitting tenant is at its queued-job quota; the job was shed
    /// so one tenant's backlog cannot crowd out the others.
    QuotaExceeded { tenant: u32 },
    /// The job's deadline passed — either before it could be dispatched
    /// (queueing delay under load) or before it finished.
    DeadlineExceeded { tenant: u32, job: u64 },
    /// One device of a multi-device system died (or was quarantined by the
    /// health monitor) and the operation touched it. Unlike [`Crashed`]
    /// the platform survives: recovery means migrating the dead device's
    /// regions onto the survivors and resuming from a checkpoint.
    ///
    /// [`Crashed`]: AccError::Crashed
    DeviceLost { device: usize },
}

/// Where an unrepairable corruption was pinned down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityKind {
    /// A device-resident slot failed digest verification and no valid host
    /// origin existed to retransmit from (the slot was dirty).
    DirtySlot,
    /// The host mirror of a region is poisoned: a corrupted write-back (or
    /// exhausted D2H retransmits) landed bad bytes in the authoritative copy.
    HostMirror,
}

impl fmt::Display for IntegrityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityKind::DirtySlot => write!(f, "dirty device slot"),
            IntegrityKind::HostMirror => write!(f, "host mirror"),
        }
    }
}

impl fmt::Display for AccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccError::Crashed => write!(f, "simulated platform crashed; restore a checkpoint"),
            AccError::Capacity {
                free_bytes,
                region_bytes,
            } => write!(
                f,
                "device memory ({free_bytes} bytes free) cannot hold a single region ({region_bytes} bytes)"
            ),
            AccError::DeviceAlloc { bytes } => {
                write!(f, "required device allocation of {bytes} bytes was refused")
            }
            AccError::TransferExhausted { region } => write!(
                f,
                "persistent transfer fault on region {region} exhausted the retry budget"
            ),
            AccError::Integrity { region, kind } => write!(
                f,
                "unrepairable corruption on region {region} ({kind}); restore a checkpoint"
            ),
            AccError::QueueFull { tenant } => write!(
                f,
                "admission queue full; job from tenant {tenant} was shed"
            ),
            AccError::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant} is at its queued-job quota")
            }
            AccError::DeadlineExceeded { tenant, job } => {
                write!(f, "job {job} of tenant {tenant} missed its deadline")
            }
            AccError::DeviceLost { device } => write!(
                f,
                "device {device} was lost; migrate its regions to the survivors"
            ),
        }
    }
}

impl std::error::Error for AccError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(AccError::Crashed.to_string().contains("crashed"));
        let e = AccError::Capacity {
            free_bytes: 1024,
            region_bytes: 4096,
        };
        assert!(e.to_string().contains("1024"));
        assert!(e.to_string().contains("4096"));
        assert!(AccError::TransferExhausted { region: 3 }
            .to_string()
            .contains("region 3"));
        let e = AccError::Integrity {
            region: 5,
            kind: IntegrityKind::DirtySlot,
        };
        assert!(e.to_string().contains("region 5"));
        assert!(e.to_string().contains("dirty device slot"));
        assert!(AccError::Integrity {
            region: 0,
            kind: IntegrityKind::HostMirror,
        }
        .to_string()
        .contains("host mirror"));
        assert!(AccError::QueueFull { tenant: 2 }
            .to_string()
            .contains("shed"));
        assert!(AccError::QuotaExceeded { tenant: 1 }
            .to_string()
            .contains("quota"));
        assert!(AccError::DeadlineExceeded { tenant: 0, job: 7 }
            .to_string()
            .contains("deadline"));
        assert!(AccError::DeviceLost { device: 1 }
            .to_string()
            .contains("device 1"));
    }

    #[test]
    fn is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(AccError::Crashed);
        assert!(e.source().is_none());
    }
}
