//! Per-device health scoring with hysteresis-based quarantine.
//!
//! Every retry, integrity finding, and latency overrun the runtime observes
//! is attributed to the device it happened on; a leaky-integrator score per
//! device turns those point events into a level. Two thresholds with a gap
//! between them ([`HealthPolicy::quarantine_threshold`] <
//! [`HealthPolicy::readmit_threshold`]) plus a dwell count give hysteresis:
//! a flapping link pushes a device into quarantine once, and the device is
//! readmitted once — after the score has *recovered past the higher bar* and
//! stayed clean for [`HealthPolicy::readmit_dwell`] consecutive
//! observations — instead of oscillating in and out on every window edge.
//!
//! The monitor is pure bookkeeping: it never touches the simulator. The
//! runtimes consult it for placement (the `cluster` crate's `Cluster`
//! scores every device of every node and avoids quarantined ones when
//! re-owning migrated regions) and surface its transition counters (for
//! [`crate::TileAcc`], through [`gpu_sim::RunReport::health`]).

use gpu_sim::HealthCounters;

/// Scoring and hysteresis knobs. Scores live in `[0, 1]`; a fresh device
/// starts at 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// A healthy device whose score falls below this is quarantined.
    pub quarantine_threshold: f64,
    /// A quarantined device is readmitted only once its score climbs back
    /// above this (strictly higher than `quarantine_threshold` — the gap is
    /// the hysteresis band).
    pub readmit_threshold: f64,
    /// Weight a clean observation pulls the score toward 1.0 with
    /// (`score += decay * (1 - score)`).
    pub decay: f64,
    /// Score subtracted per retried/failed transfer attempt.
    pub fault_penalty: f64,
    /// Score subtracted per integrity finding pinned to the device.
    pub integrity_penalty: f64,
    /// Score subtracted per latency overrun (hang/progress-deadline miss).
    pub latency_penalty: f64,
    /// Consecutive clean observations a quarantined device must bank (with
    /// its score above `readmit_threshold`) before readmission.
    pub readmit_dwell: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            quarantine_threshold: 0.35,
            readmit_threshold: 0.85,
            decay: 0.25,
            fault_penalty: 0.2,
            integrity_penalty: 0.5,
            latency_penalty: 0.1,
            readmit_dwell: 4,
        }
    }
}

/// Where a device sits in the quarantine state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Eligible for placement.
    Healthy,
    /// Score fell through the floor; not eligible for new placement but
    /// still observed, and readmitted once it proves itself again.
    Quarantined,
    /// Permanently lost (device death); never readmitted.
    Dead,
}

/// Per-device health scores and quarantine transitions. See module docs.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    scores: Vec<f64>,
    states: Vec<HealthState>,
    /// Consecutive clean observations since the last fault, per device.
    dwell: Vec<u32>,
    counters: HealthCounters,
}

impl HealthMonitor {
    pub fn new(num_devices: usize, policy: HealthPolicy) -> Self {
        HealthMonitor {
            policy,
            scores: vec![1.0; num_devices],
            states: vec![HealthState::Healthy; num_devices],
            dwell: vec![0; num_devices],
            counters: HealthCounters::default(),
        }
    }

    pub fn with_defaults(num_devices: usize) -> Self {
        Self::new(num_devices, HealthPolicy::default())
    }

    pub fn num_devices(&self) -> usize {
        self.scores.len()
    }

    pub fn state(&self, device: usize) -> HealthState {
        self.states[device]
    }

    pub fn score(&self, device: usize) -> f64 {
        self.scores[device]
    }

    /// Whether the device is eligible for placement right now.
    pub fn available(&self, device: usize) -> bool {
        self.states[device] == HealthState::Healthy
    }

    /// Devices currently eligible for placement.
    pub fn available_devices(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&d| self.available(d))
            .collect()
    }

    /// Quarantine/readmission/loss transition counts so far.
    pub fn counters(&self) -> HealthCounters {
        self.counters
    }

    /// A clean operation completed on `device`: the score recovers toward
    /// 1.0, and a quarantined device banks dwell toward readmission.
    pub fn observe_success(&mut self, device: usize) {
        if self.states[device] == HealthState::Dead {
            return;
        }
        let s = &mut self.scores[device];
        *s += self.policy.decay * (1.0 - *s);
        self.dwell[device] = self.dwell[device].saturating_add(1);
        if self.states[device] == HealthState::Quarantined
            && *s >= self.policy.readmit_threshold
            && self.dwell[device] >= self.policy.readmit_dwell
        {
            self.states[device] = HealthState::Healthy;
            self.counters.readmissions += 1;
        }
    }

    /// A transfer attempt on `device` failed (retryable fault or flap).
    pub fn observe_fault(&mut self, device: usize) {
        self.penalize(device, self.policy.fault_penalty);
    }

    /// An integrity finding was pinned to `device`.
    pub fn observe_integrity(&mut self, device: usize) {
        self.penalize(device, self.policy.integrity_penalty);
    }

    /// `device` blew a progress deadline (hang / latency overrun).
    pub fn observe_latency(&mut self, device: usize) {
        self.penalize(device, self.policy.latency_penalty);
    }

    /// `device` is permanently gone. Idempotent; counted once.
    pub fn note_dead(&mut self, device: usize) {
        if self.states[device] != HealthState::Dead {
            self.states[device] = HealthState::Dead;
            self.scores[device] = 0.0;
            self.counters.devices_lost += 1;
        }
    }

    fn penalize(&mut self, device: usize, penalty: f64) {
        if self.states[device] == HealthState::Dead {
            return;
        }
        self.dwell[device] = 0;
        let s = &mut self.scores[device];
        *s = (*s - penalty).max(0.0);
        if self.states[device] == HealthState::Healthy && *s < self.policy.quarantine_threshold {
            self.states[device] = HealthState::Quarantined;
            self.counters.quarantines += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_devices_are_healthy_with_full_scores() {
        let m = HealthMonitor::with_defaults(3);
        assert_eq!(m.num_devices(), 3);
        for d in 0..3 {
            assert_eq!(m.state(d), HealthState::Healthy);
            assert_eq!(m.score(d), 1.0);
            assert!(m.available(d));
        }
        assert_eq!(m.available_devices(), vec![0, 1, 2]);
        assert!(!m.counters().any());
    }

    #[test]
    fn faults_quarantine_and_recovery_readmits_exactly_once() {
        let mut m = HealthMonitor::with_defaults(2);
        // A burst of faults drives device 1 through the floor — one
        // quarantine transition, however long the burst.
        for _ in 0..8 {
            m.observe_fault(1);
        }
        assert_eq!(m.state(1), HealthState::Quarantined);
        assert_eq!(m.counters().quarantines, 1);
        assert!(!m.available(1));
        assert_eq!(m.available_devices(), vec![0]);
        // A long clean streak readmits it exactly once.
        for _ in 0..32 {
            m.observe_success(1);
        }
        assert_eq!(m.state(1), HealthState::Healthy);
        assert_eq!(m.counters().readmissions, 1);
        // The bystander device never transitioned.
        assert_eq!(m.counters().quarantines, 1);
        assert_eq!(m.state(0), HealthState::Healthy);
    }

    #[test]
    fn hysteresis_band_blocks_oscillation() {
        // Alternating fault/success around the quarantine threshold must
        // not toggle the state: readmission needs the *higher* bar plus a
        // clean dwell, and any fault resets the dwell.
        let mut m = HealthMonitor::with_defaults(1);
        for _ in 0..8 {
            m.observe_fault(0);
        }
        assert_eq!(m.counters().quarantines, 1);
        for _ in 0..24 {
            m.observe_success(0);
            m.observe_fault(0);
        }
        assert_eq!(
            m.state(0),
            HealthState::Quarantined,
            "mixed signal keeps the device quarantined"
        );
        assert_eq!(m.counters().quarantines, 1, "no re-quarantine churn");
        assert_eq!(m.counters().readmissions, 0, "no premature readmission");
    }

    #[test]
    fn dead_is_terminal_and_counted_once() {
        let mut m = HealthMonitor::with_defaults(2);
        m.note_dead(0);
        m.note_dead(0);
        assert_eq!(m.counters().devices_lost, 1);
        assert_eq!(m.state(0), HealthState::Dead);
        for _ in 0..64 {
            m.observe_success(0);
        }
        assert_eq!(m.state(0), HealthState::Dead, "no resurrection");
        assert_eq!(m.score(0), 0.0);
        assert_eq!(m.available_devices(), vec![1]);
    }

    #[test]
    fn integrity_hits_harder_than_latency() {
        let mut m = HealthMonitor::with_defaults(2);
        m.observe_integrity(0);
        m.observe_latency(1);
        assert!(m.score(0) < m.score(1));
        assert!(m.score(1) < 1.0);
    }
}
