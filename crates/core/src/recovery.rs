//! Run supervisor: watchdog, hang detection, bounded-time recovery.
//!
//! [`Supervisor::run`] drives a stepped workload over a [`TileAcc`] under a
//! watchdog. Around every step it drains the accelerator and reads the
//! virtual clock; a step that advances virtual time past
//! [`SupervisorConfig::progress_deadline`] is declared a **hang** (the
//! signature of a livelocked stream — work accepted, never completed), a
//! step that surfaces [`AccError::Crashed`] is a **crash**, and a step that
//! surfaces [`AccError::Integrity`] (unrepairable silent corruption — the
//! authoritative copy of a region is gone) is a **corruption**. Either way the
//! wedged instance is discarded, the latest *valid* snapshot is restored
//! (torn/corrupt ones are rejected by their checksums and counted), and the
//! run resumes from the snapshot's step — bounded by
//! [`SupervisorConfig::max_recoveries`] before surfacing
//! [`RecoveryError::RetriesExhausted`].
//!
//! State machine (documented in DESIGN.md §Recovery):
//!
//! ```text
//! Running --step ok, interval--> Checkpointing --pushed--> Running
//! Running --crash / hang------> Recovering --restore ok--> Running
//! Recovering --no valid ck----> failed(NoValidCheckpoint)
//! Recovering --attempts > max-> failed(RetriesExhausted)
//! Running --all steps retired-> final sync --> done
//! ```
//!
//! Because checkpoints are captured post-`sync_to_host` (host data
//! authoritative, device cache empty), a restored run's continuation depends
//! only on host slab contents — so the final grid is bit-identical to an
//! uninterrupted run's.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, CheckpointStore};
use crate::error::AccError;
use crate::health::HealthMonitor;
use crate::stats::AccStats;
use crate::tileacc::{ArrayId, TileAcc};
use gpu_sim::{RecoveryCounters, SimTime};
use std::fmt;

/// Watchdog and checkpoint cadence for a supervised run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Snapshot cadence and retention.
    pub policy: CheckpointPolicy,
    /// A single step advancing virtual time by more than this is a hang.
    pub progress_deadline: SimTime,
    /// How many crash/hang recoveries to attempt before giving up.
    pub max_recoveries: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            policy: CheckpointPolicy::default(),
            progress_deadline: SimTime::from_ns(50_000_000),
            max_recoveries: 3,
        }
    }
}

/// Why a supervised run could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// More crash/hang events than `max_recoveries` allows.
    RetriesExhausted,
    /// Recovery was needed but no snapshot passed validation.
    NoValidCheckpoint,
    /// A snapshot could not be stored or applied.
    Checkpoint(CheckpointError),
    /// A non-recoverable accelerator failure (not a crash).
    Fatal(AccError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::RetriesExhausted => {
                write!(f, "recovery retries exhausted; run abandoned")
            }
            RecoveryError::NoValidCheckpoint => {
                write!(f, "no valid checkpoint to restore")
            }
            RecoveryError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            RecoveryError::Fatal(e) => write!(f, "fatal accelerator error: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What a completed supervised run looked like.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Steps retired (= the requested count on success).
    pub steps: u64,
    /// Total virtual time across every attempt — discarded instances
    /// included, since their work (useful prefix plus the lost tail counted
    /// in `counters.recovery_time`) was really spent.
    pub elapsed: SimTime,
    /// Checkpoint/restore/hang accounting across all attempts.
    pub counters: RecoveryCounters,
    /// The final accelerator instance's stats.
    pub stats: AccStats,
}

/// Drives a workload to completion through crashes and hangs. See the
/// module docs for the state machine.
pub struct Supervisor {
    cfg: SupervisorConfig,
    store: CheckpointStore,
    counters: RecoveryCounters,
    /// Virtual time of instances discarded by recovery: a rebuilt
    /// accelerator's clock restarts at zero, so without this the outcome
    /// would silently drop everything the dead attempt spent.
    discarded_time: SimTime,
    /// Health score of the (single) device the supervised [`TileAcc`] runs
    /// on, fed by the same fault/latency/integrity signals the recovery
    /// state machine reacts to. Multi-device placement consults the
    /// per-device monitor of the `cluster` runtime instead.
    health: HealthMonitor,
}

enum StepFault {
    Crash,
    Hang,
    /// Unrepairable silent corruption (typed [`AccError::Integrity`]): the
    /// instance's data is untrustworthy, so it is discarded like a crash.
    Corruption,
}

impl Supervisor {
    pub fn new(cfg: SupervisorConfig) -> Self {
        let store = CheckpointStore::new(cfg.policy.clone());
        Supervisor {
            cfg,
            store,
            counters: RecoveryCounters::default(),
            discarded_time: SimTime::ZERO,
            health: HealthMonitor::with_defaults(1),
        }
    }

    /// Recovery accounting so far (useful after [`Supervisor::run`] fails).
    pub fn counters(&self) -> RecoveryCounters {
        self.counters
    }

    /// The device-health view the watchdog signals feed.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Run `steps` iterations of `step_fn` under the watchdog.
    ///
    /// `build(attempt)` constructs a fresh accelerator with its arrays
    /// registered; it is called once up front (`attempt = 0`) and once per
    /// recovery (`attempt ≥ 1`), letting a caller arm fault injection only
    /// on the first instance. For the final grid to be observable, register
    /// clones of the *same* [`tida::TileArray`]s each time — restore
    /// overwrites their shared host slabs.
    pub fn run(
        &mut self,
        steps: u64,
        mut build: impl FnMut(u32) -> TileAcc,
        mut step_fn: impl FnMut(&mut TileAcc, u64) -> Result<(), AccError>,
    ) -> Result<RecoveryOutcome, RecoveryError> {
        let mut acc = build(0);
        let mut attempt: u32 = 0;
        let mut step: u64 = 0;

        // A step-0 snapshot so recovery always has a floor to fall back to.
        // A store that already holds snapshots (a resumed supervisor) keeps
        // its existing floor instead.
        if self.store.is_empty() {
            self.take_checkpoint(&mut acc, 0)?;
        }
        let mut last_ck_time = acc.finish();

        loop {
            if step >= steps {
                // Drain everything to the host so the caller's arrays hold
                // the final grid. A crash here is recoverable like any other.
                let fault = match Self::final_sync(&mut acc) {
                    Ok(()) => break,
                    Err(AccError::Crashed) => StepFault::Crash,
                    Err(AccError::Integrity { .. }) => StepFault::Corruption,
                    Err(e) => return Err(RecoveryError::Fatal(e)),
                };
                self.note_fault(fault, &mut acc, last_ck_time);
                (acc, step, attempt, last_ck_time) = self.recover(attempt, &mut build)?;
                continue;
            }

            let before = acc.finish();
            let fault = match step_fn(&mut acc, step) {
                Ok(()) => {
                    let after = acc.finish();
                    if after.saturating_sub(before) > self.cfg.progress_deadline {
                        Some(StepFault::Hang)
                    } else {
                        None
                    }
                }
                Err(AccError::Crashed) => Some(StepFault::Crash),
                Err(AccError::Integrity { .. }) => Some(StepFault::Corruption),
                Err(e) => return Err(RecoveryError::Fatal(e)),
            };

            if let Some(fault) = fault {
                self.note_fault(fault, &mut acc, last_ck_time);
                (acc, step, attempt, last_ck_time) = self.recover(attempt, &mut build)?;
                continue;
            }

            self.health.observe_success(0);
            step += 1;
            let interval = self.cfg.policy.interval;
            if interval > 0 && step.is_multiple_of(interval) && step < steps {
                match self.take_checkpoint(&mut acc, step) {
                    Ok(()) => last_ck_time = acc.finish(),
                    Err(RecoveryError::Fatal(AccError::Crashed)) => {
                        self.note_fault(StepFault::Crash, &mut acc, last_ck_time);
                        (acc, step, attempt, last_ck_time) = self.recover(attempt, &mut build)?;
                    }
                    Err(RecoveryError::Fatal(AccError::Integrity { .. })) => {
                        self.note_fault(StepFault::Corruption, &mut acc, last_ck_time);
                        (acc, step, attempt, last_ck_time) = self.recover(attempt, &mut build)?;
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        let elapsed = self.discarded_time + acc.finish();
        acc.sync_recovery_stats(self.counters);
        Ok(RecoveryOutcome {
            steps,
            elapsed,
            counters: self.counters,
            stats: acc.stats(),
        })
    }

    fn final_sync(acc: &mut TileAcc) -> Result<(), AccError> {
        for a in 0..acc.num_arrays() {
            acc.sync_to_host(ArrayId(a))?;
        }
        acc.finish();
        Ok(())
    }

    fn take_checkpoint(&mut self, acc: &mut TileAcc, step: u64) -> Result<(), RecoveryError> {
        let ck = acc.checkpoint(step).map_err(RecoveryError::Fatal)?;
        self.store.push(&ck).map_err(RecoveryError::Checkpoint)?;
        self.counters.checkpoints_taken += 1;
        Ok(())
    }

    /// Account a crash/hang: the virtual time spent since the last snapshot
    /// is lost work that recovery will replay.
    fn note_fault(&mut self, fault: StepFault, acc: &mut TileAcc, last_ck_time: SimTime) {
        match fault {
            StepFault::Crash => {
                self.counters.crash_detections += 1;
                self.health.observe_fault(0);
            }
            StepFault::Hang => {
                self.counters.hang_detections += 1;
                self.health.observe_latency(0);
            }
            StepFault::Corruption => {
                self.counters.corruption_detections += 1;
                self.health.observe_integrity(0);
            }
        }
        let spent = acc.finish();
        self.discarded_time += spent;
        self.counters.recovery_time += spent.saturating_sub(last_ck_time);
    }

    /// Discard the wedged instance, restore the newest valid snapshot into a
    /// freshly built one, and resume from its step.
    #[allow(clippy::type_complexity)]
    fn recover(
        &mut self,
        attempt: u32,
        build: &mut impl FnMut(u32) -> TileAcc,
    ) -> Result<(TileAcc, u64, u32, SimTime), RecoveryError> {
        let attempt = attempt + 1;
        if attempt > self.cfg.max_recoveries {
            return Err(RecoveryError::RetriesExhausted);
        }
        let (ck, rejected) = self.store.latest_valid();
        self.counters.snapshots_rejected += rejected;
        let Some(ck) = ck else {
            return Err(RecoveryError::NoValidCheckpoint);
        };
        let mut acc = build(attempt);
        acc.restore(&ck).map_err(RecoveryError::Checkpoint)?;
        self.counters.checkpoints_restored += 1;
        acc.sync_recovery_stats(self.counters);
        let step = ck.step;
        let t = acc.finish();
        Ok((acc, step, attempt, t))
    }

    /// Tamper with stored snapshots (tests): flip a bit in the
    /// `idx`-newest blob.
    pub fn corrupt_snapshot(&mut self, idx_from_latest: usize, byte: usize) {
        self.store.tamper(idx_from_latest, byte);
    }

    /// Tear stored snapshots (tests): truncate the `idx`-newest blob.
    pub fn tear_snapshot(&mut self, idx_from_latest: usize, frac: f64) {
        self.store.truncate(idx_from_latest, frac);
    }

    /// Snapshots currently retained.
    pub fn snapshots(&self) -> usize {
        self.store.len()
    }
}

/// Restore a [`Checkpoint`] decoded elsewhere (e.g. from disk) into a fresh
/// accelerator — the cross-process restart path used by
/// `examples/checkpoint_restart.rs`.
pub fn restore_into(acc: &mut TileAcc, ck: &Checkpoint) -> Result<(), CheckpointError> {
    acc.restore(ck)
}
