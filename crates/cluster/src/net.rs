//! The deterministic network cost model joining cluster nodes.
//!
//! Every ghost message travels over exactly one *link*, named by the
//! endpoints it joins:
//!
//! * `ib:a-b` — the inter-node fabric between nodes `a` and `b` (`a < b`;
//!   IB/ethernet class: high latency, modest bandwidth);
//! * `nvl:n` — node `n`'s intra-node interconnect (NVLink class: low
//!   latency, high bandwidth), used when source and destination regions
//!   live on different devices of one node;
//! * `loc:n` — the degenerate same-device path on node `n` (a host-memory
//!   copy; no contention queue).
//!
//! Each directed link keeps a busy-until horizon, so concurrent messages
//! serialize on the wire (per-link contention), and each node's NIC keeps a
//! transmit horizon shared by all of its outgoing inter-node traffic. The
//! model is pure bookkeeping over `SimTime` — no desim engine is involved
//! on the send side; the *receive* side lands as a stream-ordered op on the
//! destination node's capacity-1 NIC engine (see
//! [`gpu_sim::GpuSystem::net_deliver`]), which is what makes racing
//! arrivals schedule-oracle decision points.
//!
//! Link-scoped faults ([`gpu_sim::LinkFault`]) are evaluated here as pure
//! functions of `(plan seed, link name, per-link message ordinal)`: drops
//! cost one serialization plus a retransmit timeout each, reorders hold a
//! delivery back, and flap windows push the departure past the window. The
//! counters land in [`NetStats`] — the simulator's own `FaultStats` never
//! sees network faults.

use desim::SimTime;
use gpu_sim::LinkFault;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which class of link a message travels (decides latency/bandwidth and
/// which contention queues apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Same device: a host-memory staging copy, no wire.
    Local,
    /// Same node, different device: the intra-node interconnect.
    Intra,
    /// Different nodes: the inter-node fabric.
    Inter,
}

/// Latency/bandwidth parameters per link class, plus the retransmit
/// discipline for dropped messages. Defaults model an EDR-IB-ish fabric
/// with NVLink inside the node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Inter-node one-way latency.
    pub inter_latency: SimTime,
    /// Inter-node bandwidth in bytes per microsecond (12_500 = 12.5 GB/s).
    pub inter_bytes_per_us: u64,
    /// Intra-node one-way latency.
    pub intra_latency: SimTime,
    /// Intra-node bandwidth in bytes per microsecond.
    pub intra_bytes_per_us: u64,
    /// Same-device staging latency.
    pub local_latency: SimTime,
    /// Same-device staging bandwidth in bytes per microsecond.
    pub local_bytes_per_us: u64,
    /// Floor on the receive-side NIC occupancy per message.
    pub rx_overhead: SimTime,
    /// Wait before retransmitting a dropped message.
    pub retransmit_timeout: SimTime,
    /// Drop budget per message; past it the message goes through anyway
    /// (the model's stand-in for a reliable transport escalating).
    pub max_retransmits: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            inter_latency: SimTime::from_us(2),
            inter_bytes_per_us: 12_500,
            intra_latency: SimTime::from_ns(500),
            intra_bytes_per_us: 50_000,
            local_latency: SimTime::from_ns(200),
            local_bytes_per_us: 200_000,
            rx_overhead: SimTime::from_ns(300),
            retransmit_timeout: SimTime::from_us(10),
            max_retransmits: 16,
        }
    }
}

impl NetConfig {
    /// A deliberately thin inter-node fabric (for scaling studies where the
    /// halo traffic must eventually dominate).
    pub fn constrained(mut self, bytes_per_us: u64) -> Self {
        self.inter_bytes_per_us = bytes_per_us;
        self
    }
}

/// Counters accumulated by the network model over a run. Network faults
/// live here, not in the simulator's `FaultStats`: the wire is the
/// cluster's resource, not any node's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    pub msgs_local: u64,
    pub msgs_intra: u64,
    pub msgs_inter: u64,
    pub bytes_local: u64,
    pub bytes_intra: u64,
    pub bytes_inter: u64,
    /// Transmission attempts dropped by link faults (each costs one
    /// serialization plus the retransmit timeout).
    pub drops: u64,
    /// Messages delivered out of order (held back by a reorder fault).
    pub reorders: u64,
    /// Departures pushed past a link-flap down window.
    pub flap_stalls: u64,
    /// Wire time spent on retransmissions of dropped attempts.
    pub retransmit_time: SimTime,
}

impl NetStats {
    pub fn msgs(&self) -> u64 {
        self.msgs_local + self.msgs_intra + self.msgs_inter
    }

    pub fn bytes(&self) -> u64 {
        self.bytes_local + self.bytes_intra + self.bytes_inter
    }
}

/// The wire-time answer for one message: when it lands and how long the
/// receiving NIC is busy with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    pub arrival: SimTime,
    pub rx_time: SimTime,
    pub class: LinkClass,
}

/// Deterministic per-link state: contention horizons and message ordinals.
pub struct NetworkModel {
    cfg: NetConfig,
    /// Fault-plan seed; link-fault draws fold it with the link name and the
    /// per-link message ordinal.
    seed: u64,
    faults: Vec<LinkFault>,
    /// Per-node NIC transmit horizon (inter-node traffic only).
    tx_free: Vec<SimTime>,
    /// Per-directed-link busy horizon, keyed by (src node, dst node).
    /// Intra-node links use (n, n); local paths keep no queue.
    link_free: HashMap<(usize, usize), SimTime>,
    /// Per-link-name message ordinal (advanced once per message, never per
    /// retransmit, so drops do not shift later draws). Kept only when the
    /// plan has link faults, the only readers of the ordinal.
    ordinals: HashMap<String, u64>,
    stats: NetStats,
}

impl NetworkModel {
    pub fn new(nodes: usize, cfg: NetConfig, seed: u64, faults: Vec<LinkFault>) -> Self {
        NetworkModel {
            cfg,
            seed,
            faults,
            tx_free: vec![SimTime::ZERO; nodes],
            link_free: HashMap::new(),
            ordinals: HashMap::new(),
            stats: NetStats::default(),
        }
    }

    pub fn stats(&self) -> NetStats {
        self.stats
    }

    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Canonical name of the link carrying a message.
    pub fn link_name(src_node: usize, dst_node: usize, same_device: bool) -> String {
        if src_node != dst_node {
            let (a, b) = (src_node.min(dst_node), src_node.max(dst_node));
            format!("ib:{a}-{b}")
        } else if same_device {
            format!("loc:{src_node}")
        } else {
            format!("nvl:{src_node}")
        }
    }

    fn class_params(&self, class: LinkClass) -> (SimTime, u64) {
        match class {
            LinkClass::Local => (self.cfg.local_latency, self.cfg.local_bytes_per_us),
            LinkClass::Intra => (self.cfg.intra_latency, self.cfg.intra_bytes_per_us),
            LinkClass::Inter => (self.cfg.inter_latency, self.cfg.inter_bytes_per_us),
        }
    }

    /// Send `bytes` from `src_node` to `dst_node` with the payload ready at
    /// `ready`. Advances the link/NIC horizons and the per-link ordinal;
    /// returns when the message lands and how long the destination NIC is
    /// occupied receiving it.
    pub fn transfer(
        &mut self,
        src_node: usize,
        dst_node: usize,
        same_device: bool,
        bytes: u64,
        ready: SimTime,
    ) -> Delivery {
        let class = if src_node != dst_node {
            LinkClass::Inter
        } else if same_device {
            LinkClass::Local
        } else {
            LinkClass::Intra
        };
        // Only link faults read the link name and the message ordinal, so a
        // fault-free fabric builds neither.
        let faulty = !self.faults.is_empty();
        let link = if faulty {
            Self::link_name(src_node, dst_node, same_device)
        } else {
            String::new()
        };
        let (latency, bytes_per_us) = self.class_params(class);
        // Serialization time: bytes / bandwidth, floored at 1 ns.
        let ser_ns = ((bytes.max(1)).saturating_mul(1_000) / bytes_per_us.max(1)).max(1);
        let ser = SimTime::from_ns(ser_ns);

        match class {
            LinkClass::Local => {
                self.stats.msgs_local += 1;
                self.stats.bytes_local += bytes;
            }
            LinkClass::Intra => {
                self.stats.msgs_intra += 1;
                self.stats.bytes_intra += bytes;
            }
            LinkClass::Inter => {
                self.stats.msgs_inter += 1;
                self.stats.bytes_inter += bytes;
            }
        }

        // The local path is a host staging copy: no queue, no faults.
        if class == LinkClass::Local {
            return Delivery {
                arrival: ready + latency + ser,
                rx_time: ser.max(self.cfg.rx_overhead),
                class,
            };
        }

        // Departure waits for the wire (and, inter-node, the sending NIC).
        let mut depart = ready;
        let key = (src_node, dst_node);
        if let Some(&busy) = self.link_free.get(&key) {
            depart = depart.max(busy);
        }
        if class == LinkClass::Inter {
            depart = depart.max(self.tx_free[src_node]);
        }

        // Flap windows: the sender waits the window out (repeatedly, if the
        // departure keeps landing inside the next window).
        loop {
            let pushed = self
                .faults
                .iter()
                .filter(|f| f.applies_to(&link))
                .filter_map(|f| f.down_until(depart))
                .max();
            match pushed {
                Some(t) if t > depart => {
                    self.stats.flap_stalls += 1;
                    depart = t;
                }
                _ => break,
            }
        }

        // Drops: the worst applicable fault decides how many leading
        // attempts die; each costs one serialization plus the retransmit
        // timeout before the clean attempt goes out.
        let ordinal = if faulty {
            let o = self.ordinals.entry(link.clone()).or_insert(0);
            let v = *o;
            *o += 1;
            v
        } else {
            0
        };
        let drops = self
            .faults
            .iter()
            .filter(|f| f.applies_to(&link))
            .map(|f| f.drop_count(self.seed, &link, ordinal, self.cfg.max_retransmits))
            .max()
            .unwrap_or(0);
        let retry_ns = (ser_ns + self.cfg.retransmit_timeout.as_ns()) * drops as u64;
        if drops > 0 {
            self.stats.drops += drops as u64;
            self.stats.retransmit_time += SimTime::from_ns(ser_ns * drops as u64);
        }

        let wire_done = depart + SimTime::from_ns(retry_ns) + ser;
        self.link_free.insert(key, wire_done);
        if class == LinkClass::Inter {
            self.tx_free[src_node] = wire_done;
        }

        // Reorder: hold this delivery back past later traffic.
        let extra = self
            .faults
            .iter()
            .filter(|f| f.applies_to(&link))
            .filter_map(|f| f.reorder_for(self.seed, &link, ordinal))
            .max()
            .unwrap_or(SimTime::ZERO);
        if extra > SimTime::ZERO {
            self.stats.reorders += 1;
        }

        Delivery {
            arrival: wire_done + latency + extra,
            rx_time: ser.max(self.cfg.rx_overhead),
            class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(nodes: usize, faults: Vec<LinkFault>) -> NetworkModel {
        NetworkModel::new(nodes, NetConfig::default(), 7, faults)
    }

    #[test]
    fn link_names_are_canonical() {
        assert_eq!(NetworkModel::link_name(0, 1, false), "ib:0-1");
        assert_eq!(NetworkModel::link_name(1, 0, false), "ib:0-1");
        assert_eq!(NetworkModel::link_name(2, 2, false), "nvl:2");
        assert_eq!(NetworkModel::link_name(2, 2, true), "loc:2");
    }

    #[test]
    fn contention_serializes_a_shared_link() {
        let mut net = m(2, Vec::new());
        let a = net.transfer(0, 1, false, 1_000_000, SimTime::ZERO);
        let b = net.transfer(0, 1, false, 1_000_000, SimTime::ZERO);
        // The second message departs after the first clears the wire.
        assert!(b.arrival >= a.arrival);
        assert_eq!(
            (b.arrival - a.arrival).as_ns(),
            (a.arrival - net.cfg.inter_latency).as_ns(),
            "back-to-back equal messages are spaced one serialization apart"
        );
        assert_eq!(net.stats().msgs_inter, 2);
    }

    #[test]
    fn distinct_links_do_not_contend() {
        let mut net = m(3, Vec::new());
        let a = net.transfer(0, 1, false, 1_000_000, SimTime::ZERO);
        let b = net.transfer(0, 2, false, 1_000_000, SimTime::ZERO);
        // Same NIC: the second departs one serialization later, but the
        // wires themselves are independent.
        assert!(b.arrival > a.arrival);
        let c = net.transfer(2, 1, false, 1_000_000, SimTime::ZERO);
        assert_eq!(c.arrival, a.arrival, "different NIC, different wire");
    }

    #[test]
    fn drops_are_deterministic_and_counted() {
        let fault = LinkFault::on("ib:0-1").drops(0.5);
        let mut a = m(2, vec![fault.clone()]);
        let mut b = m(2, vec![fault]);
        for i in 0..32 {
            let ready = SimTime::from_us(i * 100);
            assert_eq!(
                a.transfer(0, 1, false, 4096, ready),
                b.transfer(0, 1, false, 4096, ready)
            );
        }
        assert!(a.stats().drops > 0, "a 0.5 drop rate fires within 32 msgs");
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn unnamed_links_are_untouched_by_scoped_faults() {
        let fault = LinkFault::on("ib:0-1").drops(1.0);
        let mut net = m(3, vec![fault]);
        let _ = net.transfer(0, 2, false, 4096, SimTime::ZERO);
        assert_eq!(net.stats().drops, 0);
    }

    #[test]
    fn flap_window_pushes_departure() {
        let fault = LinkFault::on("ib:0-1").flaps(
            SimTime::ZERO,
            SimTime::from_us(100),
            SimTime::from_us(40),
            1,
        );
        let mut net = m(2, vec![fault]);
        let d = net.transfer(0, 1, false, 4096, SimTime::ZERO);
        assert!(d.arrival >= SimTime::from_us(40), "waits out the window");
        assert_eq!(net.stats().flap_stalls, 1);
        // Past the last cycle the link is clean.
        let d2 = net.transfer(0, 1, false, 4096, SimTime::from_us(200));
        assert!(d2.arrival < SimTime::from_us(250));
    }

    #[test]
    fn reorder_holds_delivery_back() {
        let fault = LinkFault::on("ib:0-1").reorders(1.0, SimTime::from_us(50));
        let mut net = m(2, vec![fault]);
        let early = net.transfer(0, 1, false, 4096, SimTime::ZERO);
        let late = net.transfer(0, 1, false, 4096, SimTime::ZERO);
        // Both held back by the same delay; still deterministic.
        assert!(early.arrival > SimTime::from_us(50));
        assert!(late.arrival > early.arrival);
        assert_eq!(net.stats().reorders, 2);
    }
}
