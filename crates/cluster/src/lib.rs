//! Cluster-scale TiDA: per-node GPU systems joined by a deterministic
//! network cost model.
//!
//! The paper's runtime overlaps PCIe transfers with tiled kernels inside
//! one node. This crate scales the same design principle out: a
//! [`Cluster`] owns one simulated [`GpuSystem`] per node, a domain
//! decomposition assigns regions to nodes, and inter-node ghost traffic
//! travels over a [`NetworkModel`] — latency + bandwidth + per-link
//! contention queues, all seeded and deterministic — while interior
//! kernels keep the devices busy.
//!
//! # The exchange protocol
//!
//! Each step runs five strictly ordered phases across all regions (phase
//! k finishes submission for every region before phase k+1 starts for
//! any), the classic nonblocking halo-exchange shape:
//!
//! 1. **Stage out** — per region, the source array's grown slab is copied
//!    device→host on the region's *exchange stream*, ordered after the
//!    previous step's kernels by an event from the *compute stream*. A
//!    region whose source is not yet resident (step 0, post-restore) is
//!    uploaded instead; the host copy is already authoritative.
//! 2. **Interior compute** — the stencil over `valid.grow(-ghost)` runs
//!    on the compute stream. It reads only valid cells, so it needs no
//!    ghost data and overlaps the wire traffic of phase 3.
//! 3. **Send** — per ghost patch, in deterministic patch-list order: the
//!    send timestamp is the staging copy's completion time (probed with
//!    [`GpuSystem::op_completion`], which never blocks the simulated
//!    host), the payload is gathered from the source host slab, the
//!    [`NetworkModel`] prices the message (contention, drops, reorders,
//!    flaps), and the destination node receives it as a NIC op
//!    ([`GpuSystem::net_deliver`]) on the destination region's exchange
//!    stream, whose data effect scatters the payload into the
//!    destination host slab.
//! 4. **Stage in** — per region, the full grown slab (now holding fresh
//!    ghosts) is uploaded on the exchange stream, ordered after the
//!    interior kernel by an event (the upload writes cells the interior
//!    kernel reads).
//! 5. **Boundary compute** — the shell of the valid box (the onion peel
//!    `valid ∖ interior`, at most six boxes) runs on the compute stream,
//!    ordered after the upload by an event.
//!
//! Only same-stream ordering and events order work, so every node's
//! schedule stays maximally concurrent; the cross-node dependencies are
//! resolved driver-side as arrival timestamps, never as cross-scheduler
//! edges. The protocol is happens-before clean: a run with hazard
//! checking enabled reports zero findings.
//!
//! # Elasticity and faults
//!
//! Node health is tracked per node with the same [`HealthMonitor`] the
//! multi-GPU runtime uses per device. When a node dies (a
//! [`gpu_sim::DeviceDeath`] aimed at one of its devices, addressed by
//! *global* device index `node * devices_per_node + local`), the step
//! surfaces [`ClusterError::NodeLost`]; [`Cluster::failover`] restores a
//! [`Checkpoint`] (the TACK snapshot format, reused as the live-migration
//! payload) and [`Cluster::migrate_off`] re-owns the dead node's regions
//! onto healthy survivors — fresh streams, fresh device buffers, and the
//! host slabs re-adopted on the new owner (slab storage is shared, so the
//! adoption *is* the migration). Replaying from the snapshot's step is
//! bit-identical to a failure-free run.
//!
//! Link-scoped faults ([`gpu_sim::LinkFault`]: drop / reorder / flap on a
//! named link) are carried by the cluster-wide [`FaultPlan`] and
//! evaluated purely by the network model; they perturb timing, never
//! data — the protocol waits for every delivery before consuming ghosts,
//! so results stay bit-identical under any link-fault schedule.

pub mod net;

pub use gpu_sim::LinkFault;
pub use net::{Delivery, LinkClass, NetConfig, NetStats, NetworkModel};

use gpu_sim::{
    DeviceBuffer, FaultPlan, GpuSystem, HostBuffer, HostMemKind, KernelCost, KernelLaunch,
    MachineConfig, OpId, SimTime, StreamId,
};
use memslab::Slab;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use tida::{Box3, Decomposition, IntVect, Layout, TileArray};
use tida_acc::{
    AccStats, ArrayId, Checkpoint, CheckpointError, HealthMonitor, HealthState, RetryPolicy,
};

/// How to build a [`Cluster`]: node count, per-node platform, network
/// parameters, and one cluster-wide fault plan.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Devices per node (regions are assigned to global device slots).
    pub devices_per_node: usize,
    /// Per-node platform (every node is homogeneous).
    pub machine: MachineConfig,
    /// Network cost-model parameters.
    pub net: NetConfig,
    /// Cluster-wide fault plan. Device-scoped faults address devices by
    /// global index `node * devices_per_node + local`; link faults are
    /// evaluated by the network model only. Each node's derived plan gets
    /// a decorrelated seed (node 0 keeps the original, so a 1-node
    /// cluster reproduces single-system fault schedules exactly).
    pub fault: FaultPlan,
    /// Whether slabs carry data (`false` = timing-only virtual run).
    pub backed: bool,
}

impl ClusterConfig {
    /// `nodes` single-GPU K40m nodes over the default fabric, no faults.
    pub fn new(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            devices_per_node: 1,
            machine: MachineConfig::k40m(),
            net: NetConfig::default(),
            fault: FaultPlan::none(),
            backed: true,
        }
    }

    pub fn devices_per_node(mut self, dpn: usize) -> Self {
        assert!(dpn >= 1, "a node needs at least one device");
        self.devices_per_node = dpn;
        self
    }

    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    pub fn backed(mut self, backed: bool) -> Self {
        self.backed = backed;
        self
    }
}

/// Derive node `node`'s local fault plan from the cluster-wide plan:
/// device-scoped faults are kept only if they hit this node's global
/// device range (and remapped to local indices), link faults are cleared
/// (the network model owns them), and the seed is decorrelated for nodes
/// past the first so transient-rate draws don't repeat across nodes.
fn node_plan(plan: &FaultPlan, node: usize, dpn: usize) -> FaultPlan {
    let mut p = plan.clone();
    if node > 0 {
        p.seed ^= (node as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
    }
    let lo = node * dpn;
    let hi = lo + dpn;
    let in_range = |d: usize| d >= lo && d < hi;
    p.device_deaths.retain(|f| in_range(f.device));
    for f in &mut p.device_deaths {
        f.device -= lo;
    }
    p.link_flaps.retain(|f| in_range(f.device));
    for f in &mut p.link_flaps {
        f.device -= lo;
    }
    p.ecc.retain(|f| in_range(f.device));
    for f in &mut p.ecc {
        f.device -= lo;
    }
    p.link_faults.clear();
    p
}

/// What can go wrong driving a cluster step.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A node's whole platform crashed; everything it owned is gone.
    Crashed { node: usize },
    /// A node lost a device (or the node itself); its regions can be
    /// migrated onto survivors via [`Cluster::failover`].
    NodeLost { node: usize },
    /// Device allocation failed on a node.
    Alloc { node: usize, bytes: u64 },
    /// A transfer kept faulting past the retry budget.
    TransferExhausted { region: usize },
    /// An unrepairable corruption reached a region's host mirror.
    Integrity { region: usize },
    /// A snapshot could not be applied.
    Snapshot(CheckpointError),
    /// No healthy node is left to migrate onto.
    NoSurvivors,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Crashed { node } => write!(f, "node {node} crashed"),
            ClusterError::NodeLost { node } => write!(f, "node {node} lost"),
            ClusterError::Alloc { node, bytes } => {
                write!(f, "allocation of {bytes} bytes failed on node {node}")
            }
            ClusterError::TransferExhausted { region } => {
                write!(f, "transfer retry budget exhausted for region {region}")
            }
            ClusterError::Integrity { region } => {
                write!(
                    f,
                    "unrepairable corruption in region {region}'s host mirror"
                )
            }
            ClusterError::Snapshot(e) => write!(f, "snapshot rejected: {e:?}"),
            ClusterError::NoSurvivors => write!(f, "no healthy node left to migrate onto"),
        }
    }
}

impl std::error::Error for ClusterError {}

struct CArray {
    array: TileArray,
    /// Per-region host buffer handle *on the region's current owner node*
    /// (re-adopted on migration; the slab storage itself is shared).
    host: Vec<HostBuffer>,
    /// Per-region device buffer on the owner node.
    dev: Vec<DeviceBuffer>,
    resident: Vec<bool>,
    dirty: Vec<bool>,
}

/// The cluster runtime. See the module docs for the protocol.
pub struct Cluster {
    nodes: Vec<GpuSystem>,
    dpn: usize,
    net: NetworkModel,
    decomp: Option<Arc<Decomposition>>,
    arrays: Vec<CArray>,
    /// Owner *global device slot* per region (`node * dpn + local`).
    owner: Vec<usize>,
    /// Per-region compute stream on the owner device.
    cstream: Vec<StreamId>,
    /// Per-region exchange stream on the owner device.
    xstream: Vec<StreamId>,
    kernel_efficiency: f64,
    initialized: bool,
    retry: RetryPolicy,
    /// Per-*node* health scores fed by the transfer retry loops.
    health: HealthMonitor,
    stats: AccStats,
}

impl Cluster {
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        let nodes: Vec<GpuSystem> = (0..cfg.nodes)
            .map(|n| {
                let machine =
                    cfg.machine
                        .clone()
                        .with_faults(node_plan(&cfg.fault, n, cfg.devices_per_node));
                GpuSystem::multi(machine, cfg.devices_per_node, cfg.backed)
            })
            .collect();
        let net = NetworkModel::new(
            cfg.nodes,
            cfg.net,
            cfg.fault.seed,
            cfg.fault.link_faults.clone(),
        );
        let health = HealthMonitor::with_defaults(cfg.nodes);
        Cluster {
            nodes,
            dpn: cfg.devices_per_node,
            net,
            decomp: None,
            arrays: Vec::new(),
            owner: Vec::new(),
            cstream: Vec::new(),
            xstream: Vec::new(),
            kernel_efficiency: 0.95,
            initialized: false,
            retry: RetryPolicy::new(8, SimTime::from_us(20)),
            health,
            stats: AccStats::default(),
        }
    }

    /// Override the transfer retry budget (see [`RetryPolicy`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Register an array (all arrays must share one decomposition).
    pub fn register(&mut self, array: &TileArray) -> ArrayId {
        assert!(!self.initialized, "register arrays before first use");
        match &self.decomp {
            None => self.decomp = Some(array.decomp().clone()),
            Some(d) => assert!(
                Arc::ptr_eq(d, array.decomp()),
                "all registered arrays must share one decomposition"
            ),
        }
        self.arrays.push(CArray {
            array: array.clone(),
            host: Vec::new(),
            dev: Vec::new(),
            resident: Vec::new(),
            dirty: Vec::new(),
        });
        ArrayId(self.arrays.len() - 1)
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn node(&self, n: usize) -> &GpuSystem {
        &self.nodes[n]
    }

    pub fn node_mut(&mut self, n: usize) -> &mut GpuSystem {
        &mut self.nodes[n]
    }

    /// Node currently owning a region.
    pub fn owner_node(&self, region: usize) -> usize {
        self.owner[region] / self.dpn
    }

    /// Runtime counters (shared [`AccStats`] shape with the single-node
    /// runtimes; cache-protocol counters stay zero here).
    pub fn stats(&self) -> AccStats {
        self.stats
    }

    /// Network counters (messages, bytes, drops, reorders, flap stalls).
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// The per-node health monitor feeding migration decisions.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    fn num_regions(&self) -> usize {
        self.decomp.as_ref().expect("no arrays").num_regions()
    }

    fn node_of(&self, r: usize) -> usize {
        self.owner[r] / self.dpn
    }

    fn dev_of(&self, r: usize) -> usize {
        self.owner[r] % self.dpn
    }

    /// Enable/disable span tracing on every node.
    pub fn set_tracing(&mut self, on: bool) {
        for n in &mut self.nodes {
            n.set_tracing(on);
        }
    }

    /// Enable/disable happens-before hazard recording on every node.
    pub fn set_hazard_checking(&mut self, on: bool) {
        for n in &mut self.nodes {
            n.set_hazard_checking(on);
        }
    }

    /// Install one shared schedule oracle on every node's scheduler, so a
    /// model checker controls the whole cluster's nondeterminism through
    /// a single decision log (the driver is sequential, so the per-node
    /// decision points interleave deterministically).
    pub fn install_oracle(&mut self, oracle: Rc<RefCell<dyn desim::ScheduleOracle>>) {
        for n in &mut self.nodes {
            n.set_schedule_oracle(Some(oracle.clone()));
        }
    }

    /// Drain every node and return the cluster makespan (the slowest
    /// node's finish time).
    pub fn finish(&mut self) -> SimTime {
        let mut t = SimTime::ZERO;
        for n in &mut self.nodes {
            t = t.max(n.finish());
        }
        t
    }

    /// Total stream-ordering hazards recorded across all nodes.
    pub fn hazard_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.hazard_counters().total()).sum()
    }

    /// Total transfer-integrity detections across all nodes.
    pub fn integrity_detected(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.integrity_stats().detected)
            .sum()
    }

    /// Summed H2D bytes across all nodes.
    pub fn bytes_h2d(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats_bytes_h2d()).sum()
    }

    /// Summed D2H bytes across all nodes.
    pub fn bytes_d2h(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats_bytes_d2h()).sum()
    }

    /// Summed NIC-received bytes across all nodes (the node-side view of
    /// [`NetStats::bytes`]).
    pub fn bytes_net(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats_bytes_net()).sum()
    }

    /// Summed kernel launches across all nodes.
    pub fn kernels_launched(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats_kernels()).sum()
    }

    /// One trace over the whole cluster: per-node engine tables
    /// concatenated (engine names prefixed `n<i>.` when there is more
    /// than one node), span engine indices rebased.
    pub fn trace(&self) -> desim::Trace {
        if self.nodes.len() == 1 {
            return self.nodes[0].trace();
        }
        let mut engine_names = Vec::new();
        let mut spans = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let t = n.trace();
            let off = engine_names.len();
            engine_names.extend(t.engine_names.iter().map(|e| format!("n{i}.{e}")));
            spans.extend(t.spans.into_iter().map(|mut s| {
                s.engine += off;
                s
            }));
        }
        let mut merged = desim::Trace::new(engine_names);
        merged.spans = spans;
        merged
    }

    // ------------------------------------------------------------------
    // Region plumbing.
    // ------------------------------------------------------------------

    /// Fail fast when region `r`'s owner node crashed or lost a device.
    fn check_region(&self, r: usize) -> Result<(), ClusterError> {
        let node = self.node_of(r);
        if self.nodes[node].crashed() {
            return Err(ClusterError::Crashed { node });
        }
        if self.nodes[node].device_lost(self.dev_of(r)) {
            return Err(ClusterError::NodeLost { node });
        }
        Ok(())
    }

    /// Assign owners and allocate streams, device buffers and host-buffer
    /// handles: region `r` goes to global device slot
    /// `r * (nodes * dpn) / regions` (contiguous blocks minimize
    /// inter-node faces for slab decompositions).
    fn ensure_init(&mut self) -> Result<(), ClusterError> {
        if self.initialized {
            return Ok(());
        }
        let regions = self.num_regions();
        let slots = self.nodes.len() * self.dpn;
        self.owner = (0..regions).map(|r| r * slots / regions).collect();
        self.cstream = Vec::with_capacity(regions);
        self.xstream = Vec::with_capacity(regions);
        for r in 0..regions {
            let (node, dev) = (self.node_of(r), self.dev_of(r));
            self.cstream.push(self.nodes[node].create_stream_on(dev));
            self.xstream.push(self.nodes[node].create_stream_on(dev));
        }
        for ai in 0..self.arrays.len() {
            for r in 0..regions {
                let (node, dev) = (self.node_of(r), self.dev_of(r));
                let slab = self.arrays[ai].array.region(r).slab.clone();
                let len = slab.len();
                let host = self.nodes[node].adopt_host_slab(slab, HostMemKind::Pinned);
                let buf = self.nodes[node].malloc_device_on(dev, len).map_err(|_| {
                    ClusterError::Alloc {
                        node,
                        bytes: (len * std::mem::size_of::<f64>()) as u64,
                    }
                })?;
                self.arrays[ai].host.push(host);
                self.arrays[ai].dev.push(buf);
            }
            self.arrays[ai].resident = vec![false; regions];
            self.arrays[ai].dirty = vec![false; regions];
        }
        self.initialized = true;
        Ok(())
    }

    /// Upload region `r` of array `a` (full grown slab) on the given
    /// stream, with the standard retry loop.
    fn h2d_grown(&mut self, a: usize, r: usize, stream: StreamId) -> Result<OpId, ClusterError> {
        let node = self.node_of(r);
        let len = self.arrays[a].array.region(r).slab.len();
        let (dev, host) = (self.arrays[a].dev[r], self.arrays[a].host[r]);
        let mut op = self.nodes[node].memcpy_h2d_async(dev, 0, host, 0, len, stream);
        let mut attempt: u32 = 0;
        while self.nodes[node].op_faulted(op) {
            if self.nodes[node].crashed() {
                return Err(ClusterError::Crashed { node });
            }
            if self.nodes[node].device_lost(self.dev_of(r)) {
                return Err(ClusterError::NodeLost { node });
            }
            self.health.observe_fault(node);
            if self.retry.exhausted(attempt) {
                return Err(ClusterError::TransferExhausted { region: r });
            }
            self.stats.transfer_retries += 1;
            self.nodes[node].backoff_work(self.retry.backoff(attempt), "h2d-retry-backoff");
            op = self.nodes[node].memcpy_h2d_async(dev, 0, host, 0, len, stream);
            attempt += 1;
        }
        self.health.observe_success(node);
        Ok(op)
    }

    /// Stage region `r` of array `a` home (full grown slab) on the
    /// exchange stream. Retries like the upload path; past the budget the
    /// fault-exempt salvage copy still gets the data home.
    fn d2h_grown(&mut self, a: usize, r: usize) -> Result<OpId, ClusterError> {
        let node = self.node_of(r);
        let stream = self.xstream[r];
        let len = self.arrays[a].array.region(r).slab.len();
        let (dev, host) = (self.arrays[a].dev[r], self.arrays[a].host[r]);
        let mut op = self.nodes[node].memcpy_d2h_async(host, 0, dev, 0, len, stream);
        let mut attempt: u32 = 0;
        while self.nodes[node].op_faulted(op) {
            if self.nodes[node].crashed() {
                return Err(ClusterError::Crashed { node });
            }
            if self.nodes[node].device_lost(self.dev_of(r)) {
                return Err(ClusterError::NodeLost { node });
            }
            self.health.observe_fault(node);
            if self.retry.exhausted(attempt) {
                self.stats.salvaged_regions += 1;
                op = self.nodes[node].memcpy_d2h_salvage(host, 0, dev, 0, len, stream);
                break;
            }
            self.stats.transfer_retries += 1;
            self.nodes[node].backoff_work(self.retry.backoff(attempt), "d2h-retry-backoff");
            op = self.nodes[node].memcpy_d2h_async(host, 0, dev, 0, len, stream);
            attempt += 1;
        }
        if !self.nodes[node].op_faulted(op) {
            self.health.observe_success(node);
        }
        Ok(op)
    }

    /// Upload a read-only operand (e.g. a Jacobi right-hand side) once;
    /// it is never dirtied and never exchanged.
    fn ensure_aux_resident(&mut self, a: ArrayId, r: usize) -> Result<(), ClusterError> {
        if self.arrays[a.0].resident[r] {
            return Ok(());
        }
        self.stats.loads += 1;
        self.h2d_grown(a.0, r, self.cstream[r])?;
        self.arrays[a.0].resident[r] = true;
        self.arrays[a.0].dirty[r] = false;
        Ok(())
    }

    /// Launch the step kernel over `bx` on region `r`'s compute stream.
    #[allow(clippy::too_many_arguments)]
    fn launch_stencil<F>(
        &mut self,
        dst: ArrayId,
        src: ArrayId,
        aux: Option<ArrayId>,
        r: usize,
        bx: Box3,
        cost: KernelCost,
        label: &'static str,
        f: F,
    ) where
        F: Fn(&mut tida::ViewMut<'_>, &tida::View<'_>, Option<&tida::View<'_>>, Box3) + 'static,
    {
        let node = self.node_of(r);
        let (ddev, sdev) = (self.arrays[dst.0].dev[r], self.arrays[src.0].dev[r]);
        let dslab = self.nodes[node].device_slab(ddev);
        let sslab = self.nodes[node].device_slab(sdev);
        let dl = self.arrays[dst.0].array.region(r).layout;
        let sl = self.arrays[src.0].array.region(r).layout;
        let aux_pair = aux.map(|a| {
            (
                self.nodes[node].device_slab(self.arrays[a.0].dev[r]),
                self.arrays[a.0].array.region(r).layout,
            )
        });
        let mut launch = KernelLaunch::new(label, cost)
            .efficiency(self.kernel_efficiency)
            .reads(sdev.into())
            .writes(ddev.into())
            .exec(move || {
                let wrefs = [(&dslab, dl)];
                let run = |ws: &mut [tida::ViewMut<'_>], rs: &[tida::View<'_>]| {
                    let (first, _) = ws.split_first_mut().expect("one write view");
                    f(first, &rs[0], rs.get(1), bx);
                };
                match &aux_pair {
                    Some((aslab, al)) => {
                        tida::with_many(&wrefs, &[(&sslab, sl), (aslab, *al)], run)
                    }
                    None => tida::with_many(&wrefs, &[(&sslab, sl)], run),
                };
            });
        if let Some(a) = aux {
            launch = launch.reads(self.arrays[a.0].dev[r].into());
        }
        self.nodes[node].launch_kernel(self.cstream[r], launch);
        self.stats.kernels_gpu += 1;
    }

    // ------------------------------------------------------------------
    // The step.
    // ------------------------------------------------------------------

    /// One stencil step `dst <- f(src)` over every region, with the
    /// nonblocking halo exchange of `src` overlapped against the interior
    /// kernels (see the module docs for the five phases). `aux`, when
    /// given, is a read-only operand uploaded once and never exchanged.
    /// `cost` prices a kernel launch from its cell count.
    pub fn step<F>(
        &mut self,
        dst: ArrayId,
        src: ArrayId,
        aux: Option<ArrayId>,
        cost: impl Fn(u64) -> KernelCost,
        label: &'static str,
        f: F,
    ) -> Result<(), ClusterError>
    where
        F: Fn(&mut tida::ViewMut<'_>, &tida::View<'_>, Option<&tida::View<'_>>, Box3)
            + Clone
            + 'static,
    {
        assert_ne!(dst, src, "step operands must be distinct arrays");
        self.ensure_init()?;
        let regions = self.num_regions();
        let ghost = self.arrays[src.0].array.ghost();

        // Phase 1: stage the source out (or up). `staged[r]` is the
        // transfer whose completion timestamps the region's sends; `None`
        // means the host copy was authoritative before any simulated
        // work, so sends are ready at time zero.
        let mut staged: Vec<Option<OpId>> = Vec::with_capacity(regions);
        for r in 0..regions {
            self.check_region(r)?;
            let node = self.node_of(r);
            // Order the exchange after the previous step's kernels.
            let ev_k = self.nodes[node].record_event(self.cstream[r]);
            self.nodes[node].stream_wait_event(self.xstream[r], ev_k);
            if self.arrays[src.0].resident[r] {
                let op = self.d2h_grown(src.0, r)?;
                // Host now mirrors the device copy exactly.
                self.arrays[src.0].dirty[r] = false;
                staged.push(Some(op));
            } else {
                // Step 0 / post-restore: the host copy is authoritative —
                // upload it for the kernels and send straight from it.
                self.stats.loads += 1;
                let op = self.h2d_grown(src.0, r, self.xstream[r])?;
                let _ = op;
                let ev_up = self.nodes[node].record_event(self.xstream[r]);
                self.nodes[node].stream_wait_event(self.cstream[r], ev_up);
                self.arrays[src.0].resident[r] = true;
                self.arrays[src.0].dirty[r] = false;
                staged.push(None);
            }
            if let Some(a) = aux {
                self.ensure_aux_resident(a, r)?;
            }
            if !self.arrays[dst.0].resident[r] {
                // The step writes every valid cell of dst; no upload.
                self.stats.write_allocs += 1;
                self.arrays[dst.0].resident[r] = true;
            }
        }

        // Phase 2: interior kernels — they need no ghost data, so they
        // overlap the wire traffic submitted in phase 3.
        let mut interiors: Vec<Box3> = Vec::with_capacity(regions);
        for r in 0..regions {
            let valid = self.arrays[dst.0].array.region(r).valid;
            let interior = valid.grow(-ghost);
            if !interior.is_empty() {
                self.launch_stencil(
                    dst,
                    src,
                    aux,
                    r,
                    interior,
                    cost(interior.num_cells()),
                    label,
                    f.clone(),
                );
                self.check_region(r)?;
            }
            interiors.push(interior);
        }

        // Phase 3: price and deliver every ghost patch, in deterministic
        // patch-list order. The send timestamp is the staging copy's
        // completion time, probed without blocking the simulated host;
        // probing also forces the copy's data effect, so the driver-side
        // gather below reads fresh host data.
        let patches = self.arrays[src.0].array.patches_arc();
        let mut send_at: Vec<Option<SimTime>> = vec![None; regions];
        for p in patches.iter() {
            let (sr, dr) = (p.src_region, p.dst_region);
            let src_node = self.node_of(sr);
            let dst_node = self.node_of(dr);
            let ready = match staged[sr] {
                Some(op) => {
                    *send_at[sr].get_or_insert_with(|| self.nodes[src_node].op_completion(op))
                }
                None => SimTime::ZERO,
            };
            let bytes = p.num_cells() * std::mem::size_of::<f64>() as u64;
            let same_device = self.owner[sr] == self.owner[dr];
            let delivery = self
                .net
                .transfer(src_node, dst_node, same_device, bytes, ready);

            let sreg = self.arrays[src.0].array.region(sr);
            let dreg = self.arrays[src.0].array.region(dr);
            // Snapshot the payload at send time, packed by its own box: the
            // receiving scheduler replays effects in its own order, so the
            // scatter must not read the source slab lazily.
            let scatter = (!sreg.slab.is_virtual()).then(|| {
                let stage = Layout::new(p.dst_box);
                let payload = Slab::real(stage.len());
                let (nx, rows) = tida::patch_rows(stage, sreg.layout, p.dst_box, p.shift);
                memslab::copy_rows(&payload, &sreg.slab, nx, rows);
                (payload, stage, dreg.slab.clone(), dreg.layout, p.dst_box)
            });
            let host = self.arrays[src.0].host[dr];
            let effect = move || {
                if let Some((payload, stage, dst_slab, dst_layout, dst_box)) = &scatter {
                    let (nx, rows) = tida::patch_rows(*dst_layout, *stage, *dst_box, IntVect::ZERO);
                    memslab::copy_rows(dst_slab, payload, nx, rows);
                }
            };
            self.nodes[dst_node].net_deliver(
                self.xstream[dr],
                host,
                bytes,
                delivery.arrival,
                delivery.rx_time,
                effect,
            );
        }

        // Phases 4 + 5: once a region's deliveries are in (stream order
        // on its exchange stream), upload the refreshed grown slab —
        // after the interior kernel releases its read of the source
        // device cells — and run the boundary shell behind it.
        for (r, interior) in interiors.into_iter().enumerate() {
            let node = self.node_of(r);
            if !interior.is_empty() {
                let ev_int = self.nodes[node].record_event(self.cstream[r]);
                self.nodes[node].stream_wait_event(self.xstream[r], ev_int);
            }
            self.h2d_grown(src.0, r, self.xstream[r])?;
            let ev_ghosts = self.nodes[node].record_event(self.xstream[r]);
            self.nodes[node].stream_wait_event(self.cstream[r], ev_ghosts);
            let valid = self.arrays[dst.0].array.region(r).valid;
            for bx in shell_boxes(valid, interior) {
                self.launch_stencil(dst, src, aux, r, bx, cost(bx.num_cells()), label, f.clone());
            }
            self.arrays[dst.0].dirty[r] = true;
            self.check_region(r)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Host access.
    // ------------------------------------------------------------------

    /// Bring one region home (blocking), releasing residency.
    fn acquire_host(&mut self, a: ArrayId, r: usize) -> Result<(), ClusterError> {
        if !self.initialized || !self.arrays[a.0].resident[r] {
            return Ok(());
        }
        let node = self.node_of(r);
        if self.arrays[a.0].dirty[r] {
            self.stats.host_syncs += 1;
            let ev_k = self.nodes[node].record_event(self.cstream[r]);
            self.nodes[node].stream_wait_event(self.xstream[r], ev_k);
            self.d2h_grown(a.0, r)?;
        }
        let stream = self.xstream[r];
        self.nodes[node].stream_synchronize(stream);
        let dev_struck = self.nodes[node].device_poisoned(self.arrays[a.0].dev[r]);
        let _ = dev_struck;
        self.arrays[a.0].resident[r] = false;
        self.arrays[a.0].dirty[r] = false;
        if self.nodes[node].host_poisoned(self.arrays[a.0].host[r]) {
            self.stats.integrity_detected += 1;
            self.health.observe_integrity(node);
            return Err(ClusterError::Integrity { region: r });
        }
        Ok(())
    }

    /// Bring every region of `array` home (pipelined per-stream drain).
    pub fn sync_to_host(&mut self, array: ArrayId) -> Result<(), ClusterError> {
        for r in 0..self.num_regions() {
            self.acquire_host(array, r)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore / live migration.
    // ------------------------------------------------------------------

    /// Nodes that crashed or lost a device.
    pub fn lost_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| self.nodes[n].crashed() || !self.nodes[n].lost_devices().is_empty())
            .collect()
    }

    /// Capture a crash-consistent snapshot (the shared TACK [`Checkpoint`]
    /// format): all regions drained home first, so host slabs are
    /// authoritative.
    pub fn checkpoint(&mut self, step: u64) -> Result<Checkpoint, ClusterError> {
        for a in 0..self.arrays.len() {
            self.sync_to_host(ArrayId(a))?;
        }
        self.stats.checkpoints_taken += 1;
        let data: Vec<Vec<Vec<f64>>> = self
            .arrays
            .iter()
            .map(|e| {
                e.array
                    .regions()
                    .iter()
                    .map(|r| r.slab.snapshot().unwrap_or_default())
                    .collect()
            })
            .collect();
        Ok(Checkpoint {
            step,
            clock: 0,
            stats: self.stats,
            data,
            cache: Vec::new(),
            dirty: Vec::new(),
        })
    }

    /// Rebuild host state from a snapshot; all residency is dropped (the
    /// host copies are authoritative afterwards).
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        if ck.data.len() != self.arrays.len() {
            return Err(CheckpointError::Incompatible);
        }
        for (e, regions) in self.arrays.iter().zip(&ck.data) {
            if e.array.regions().len() != regions.len() {
                return Err(CheckpointError::Incompatible);
            }
            for (r, saved) in e.array.regions().iter().zip(regions) {
                if !saved.is_empty() && saved.len() != r.slab.len() {
                    return Err(CheckpointError::Incompatible);
                }
            }
        }
        if ck.cache.iter().any(|&c| c != -1) || ck.dirty.iter().any(|&d| d) {
            return Err(CheckpointError::Incompatible);
        }
        for (e, regions) in self.arrays.iter().zip(&ck.data) {
            for (r, saved) in e.array.regions().iter().zip(regions) {
                if !saved.is_empty() {
                    r.slab.materialize();
                    r.slab.with_mut(|dst| {
                        if let Some(dst) = dst {
                            dst.copy_from_slice(saved);
                        }
                    });
                }
            }
        }
        for a in self.arrays.iter_mut() {
            for f in a.resident.iter_mut() {
                *f = false;
            }
            for f in a.dirty.iter_mut() {
                *f = false;
            }
        }
        if self.initialized {
            for ai in 0..self.arrays.len() {
                for r in 0..self.num_regions() {
                    let node = self.node_of(r);
                    let host = self.arrays[ai].host[r];
                    self.nodes[node].clear_host_poison(host);
                }
            }
        }
        self.stats = ck.stats;
        Ok(())
    }

    /// Re-own every region of `from_node` onto surviving nodes: fresh
    /// streams and device buffers on the new owner, the region host slabs
    /// re-adopted there (shared storage — the adoption is the live
    /// migration), residency dropped. Healthy survivors are preferred;
    /// quarantined ones are a last resort.
    pub fn migrate_off(&mut self, from_node: usize) -> Result<(), ClusterError> {
        let from_lost =
            self.nodes[from_node].crashed() || !self.nodes[from_node].lost_devices().is_empty();
        if from_lost {
            self.health.note_dead(from_node);
        }
        if !self.initialized {
            return Ok(());
        }
        let all: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| {
                n != from_node
                    && !self.nodes[n].crashed()
                    && self.nodes[n].lost_devices().is_empty()
            })
            .collect();
        let healthy: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&n| self.health.state(n) == HealthState::Healthy)
            .collect();
        let survivors = if healthy.is_empty() { all } else { healthy };
        if survivors.is_empty() {
            return Err(ClusterError::NoSurvivors);
        }
        let regions = self.num_regions();
        let mut next = 0usize;
        for r in 0..regions {
            if self.node_of(r) != from_node {
                continue;
            }
            let new_node = survivors[next % survivors.len()];
            let new_dev = next % self.dpn;
            next += 1;
            self.owner[r] = new_node * self.dpn + new_dev;
            self.cstream[r] = self.nodes[new_node].create_stream_on(new_dev);
            self.xstream[r] = self.nodes[new_node].create_stream_on(new_dev);
            self.stats.regions_migrated += 1;
            for ai in 0..self.arrays.len() {
                let slab = self.arrays[ai].array.region(r).slab.clone();
                let len = slab.len();
                let bytes = (len * std::mem::size_of::<f64>()) as u64;
                // The old buffers are stranded on `from_node`; the node
                // (or its trustworthiness) is gone.
                let host = self.nodes[new_node].adopt_host_slab(slab, HostMemKind::Pinned);
                let dev = self.nodes[new_node]
                    .malloc_device_on(new_dev, len)
                    .map_err(|_| ClusterError::Alloc {
                        node: new_node,
                        bytes,
                    })?;
                self.arrays[ai].host[r] = host;
                self.arrays[ai].dev[r] = dev;
                self.arrays[ai].resident[r] = false;
                self.arrays[ai].dirty[r] = false;
                self.stats.migration_restage_loads += 1;
                self.stats.migration_restage_bytes += bytes;
            }
        }
        Ok(())
    }

    /// The full node-loss recovery protocol: restore the snapshot, then
    /// migrate every lost node's regions onto the survivors. Returns the
    /// step to resume from; replaying from there is bit-identical to a
    /// failure-free run because reconstruction happens purely from the
    /// snapshot's host data.
    pub fn failover(&mut self, ck: &Checkpoint) -> Result<u64, ClusterError> {
        self.restore(ck).map_err(ClusterError::Snapshot)?;
        for n in self.lost_nodes() {
            self.migrate_off(n)?;
        }
        self.stats.checkpoints_restored += 1;
        Ok(ck.step)
    }
}

/// The onion peel: the (at most six) face slabs making up
/// `valid ∖ interior`, disjoint and covering. When the interior is empty
/// the whole valid box is one "shell".
pub fn shell_boxes(valid: Box3, interior: Box3) -> Vec<Box3> {
    if interior.is_empty() {
        return vec![valid];
    }
    let mut out = Vec::new();
    let (vlo, vhi) = (valid.lo(), valid.hi());
    let (ilo, ihi) = (interior.lo(), interior.hi());
    if ilo.z() > vlo.z() {
        out.push(Box3::new(vlo, IntVect::new(vhi.x(), vhi.y(), ilo.z() - 1)));
    }
    if ihi.z() < vhi.z() {
        out.push(Box3::new(IntVect::new(vlo.x(), vlo.y(), ihi.z() + 1), vhi));
    }
    if ilo.y() > vlo.y() {
        out.push(Box3::new(
            IntVect::new(vlo.x(), vlo.y(), ilo.z()),
            IntVect::new(vhi.x(), ilo.y() - 1, ihi.z()),
        ));
    }
    if ihi.y() < vhi.y() {
        out.push(Box3::new(
            IntVect::new(vlo.x(), ihi.y() + 1, ilo.z()),
            IntVect::new(vhi.x(), vhi.y(), ihi.z()),
        ));
    }
    if ilo.x() > vlo.x() {
        out.push(Box3::new(
            IntVect::new(vlo.x(), ilo.y(), ilo.z()),
            IntVect::new(ilo.x() - 1, ihi.y(), ihi.z()),
        ));
    }
    if ihi.x() < vhi.x() {
        out.push(Box3::new(
            IntVect::new(ihi.x() + 1, ilo.y(), ilo.z()),
            IntVect::new(vhi.x(), ihi.y(), ihi.z()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceDeath, LinkFault};
    use kernels::heat;
    use tida::{Domain, ExchangeMode, RegionSpec};

    fn init(iv: IntVect) -> f64 {
        ((iv.x() * 3 + iv.y() * 5 + iv.z() * 7) % 11) as f64
    }

    fn heat_arrays(
        n: i64,
        regions: usize,
        backed: bool,
    ) -> (Arc<Decomposition>, TileArray, TileArray) {
        let dom = Domain::periodic_cube(n);
        let d = Arc::new(Decomposition::new(dom, RegionSpec::Count(regions)));
        let a = TileArray::new(d.clone(), 1, ExchangeMode::Faces, backed);
        let b = TileArray::new(d.clone(), 1, ExchangeMode::Faces, backed);
        a.fill_valid(init);
        (d, a, b)
    }

    fn drive_heat(cl: &mut Cluster, mut src: ArrayId, mut dst: ArrayId, steps: usize) -> ArrayId {
        for _ in 0..steps {
            cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
                heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
            })
            .unwrap();
            std::mem::swap(&mut src, &mut dst);
        }
        cl.sync_to_host(src).unwrap();
        src
    }

    #[test]
    fn shell_boxes_partition_the_valid_box() {
        let valid = Box3::cube(8);
        let interior = valid.grow(-1);
        let shells = shell_boxes(valid, interior);
        assert_eq!(shells.len(), 6);
        let total: u64 = shells.iter().map(|b| b.num_cells()).sum();
        assert_eq!(total + interior.num_cells(), valid.num_cells());
        for (i, a) in shells.iter().enumerate() {
            assert!(valid.contains_box(a));
            assert!(a.intersect(&interior).is_empty());
            for b in &shells[i + 1..] {
                assert!(a.intersect(b).is_empty(), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn shell_boxes_empty_interior_is_the_whole_box() {
        let valid = Box3::new(IntVect::ZERO, IntVect::new(7, 7, 1));
        let interior = valid.grow(-1);
        assert!(interior.is_empty());
        assert_eq!(shell_boxes(valid, interior), vec![valid]);
    }

    #[test]
    fn one_node_heat_matches_golden() {
        let (_, a, b) = heat_arrays(8, 4, true);
        let mut cl = Cluster::new(ClusterConfig::new(1));
        cl.set_hazard_checking(true);
        let (src, dst) = (cl.register(&a), cl.register(&b));
        let last = drive_heat(&mut cl, src, dst, 3);
        let out = if last.0 == 0 { &a } else { &b };
        assert_eq!(
            out.to_dense().unwrap(),
            heat::golden_run(init, 8, 3, heat::DEFAULT_FAC),
            "bitwise agreement with the dense golden"
        );
        assert!(cl.finish() > SimTime::ZERO);
        assert_eq!(cl.hazard_total(), 0, "protocol must be HB-clean");
        // One node, one device: all ghost traffic is local staging.
        let ns = cl.net_stats();
        assert!(ns.msgs_local > 0);
        assert_eq!(ns.msgs_inter, 0);
    }

    #[test]
    fn two_node_heat_matches_golden_and_uses_the_wire() {
        let (_, a, b) = heat_arrays(8, 4, true);
        let mut cl = Cluster::new(ClusterConfig::new(2));
        cl.set_hazard_checking(true);
        let (src, dst) = (cl.register(&a), cl.register(&b));
        let last = drive_heat(&mut cl, src, dst, 3);
        let out = if last.0 == 0 { &a } else { &b };
        assert_eq!(
            out.to_dense().unwrap(),
            heat::golden_run(init, 8, 3, heat::DEFAULT_FAC),
            "bitwise agreement with the dense golden"
        );
        assert_eq!(cl.hazard_total(), 0, "protocol must be HB-clean");
        assert_eq!(cl.integrity_detected(), 0);
        let ns = cl.net_stats();
        assert!(ns.msgs_inter > 0, "cross-node faces must cross the wire");
        assert!(cl.bytes_net() > 0);
        assert_eq!(
            cl.bytes_net(),
            ns.bytes(),
            "node NICs see what the wire sent"
        );
    }

    #[test]
    fn link_faults_perturb_timing_but_never_results() {
        let golden = heat::golden_run(init, 8, 3, heat::DEFAULT_FAC);

        let (_, a, b) = heat_arrays(8, 4, true);
        let mut clean = Cluster::new(ClusterConfig::new(2));
        let (s0, d0) = (clean.register(&a), clean.register(&b));
        let last = drive_heat(&mut clean, s0, d0, 3);
        let clean_out = if last.0 == 0 { &a } else { &b };
        assert_eq!(clean_out.to_dense().unwrap(), golden);
        let clean_makespan = clean.finish();

        let plan = FaultPlan::none().with_seed(7).with_link_fault(
            LinkFault::on("*")
                .drops(0.3)
                .reorders(0.2, SimTime::from_us(5)),
        );
        let (_, a2, b2) = heat_arrays(8, 4, true);
        let mut faulty = Cluster::new(ClusterConfig::new(2).fault(plan));
        let (s1, d1) = (faulty.register(&a2), faulty.register(&b2));
        let last = drive_heat(&mut faulty, s1, d1, 3);
        let faulty_out = if last.0 == 0 { &a2 } else { &b2 };
        assert_eq!(
            faulty_out.to_dense().unwrap(),
            golden,
            "drops and reorders delay messages; they never change data"
        );
        let ns = faulty.net_stats();
        assert!(ns.drops > 0, "the seeded drop schedule must fire");
        assert!(faulty.finish() >= clean_makespan);
    }

    #[test]
    fn node_death_failover_replays_bit_identically() {
        let steps = 3usize;
        let golden = heat::golden_run(init, 8, steps, heat::DEFAULT_FAC);

        // Global device 1 = node 1, local device 0: dies on its 3rd
        // transfer, mid-exchange.
        let plan = FaultPlan::none().with_device_death(DeviceDeath::at_transfer(1, 3));
        let (_, a, b) = heat_arrays(8, 4, true);
        let mut cl = Cluster::new(ClusterConfig::new(2).fault(plan));
        let ids = [cl.register(&a), cl.register(&b)];
        let ck = cl.checkpoint(0).unwrap();

        let mut s = 0u64;
        let mut recoveries = 0u32;
        while (s as usize) < steps {
            let (src, dst) = (ids[(s % 2) as usize], ids[((s + 1) % 2) as usize]);
            match cl.step(dst, src, None, heat::cost, "heat", |d, sv, _aux, bx| {
                heat::step_tile(d, sv, &bx, heat::DEFAULT_FAC)
            }) {
                Ok(()) => s += 1,
                Err(ClusterError::NodeLost { node }) => {
                    assert_eq!(node, 1);
                    s = cl.failover(&ck).unwrap();
                    recoveries += 1;
                    assert!(recoveries <= 2, "failover must converge");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let last = ids[(s % 2) as usize];
        cl.sync_to_host(last).unwrap();
        let out = if last.0 == 0 { &a } else { &b };
        assert_eq!(
            out.to_dense().unwrap(),
            golden,
            "replay from the snapshot must be bit-identical"
        );
        assert_eq!(recoveries, 1);
        let st = cl.stats();
        assert!(st.regions_migrated > 0, "node 1's regions must move");
        assert_eq!(st.checkpoints_restored, 1);
        assert!(
            st.migration_restage_bytes >= st.regions_migrated * 2 * 8, // at least something per region per array
        );
        // Everything now lives on node 0.
        for r in 0..4 {
            assert_eq!(cl.owner_node(r), 0);
        }
    }

    #[test]
    fn unbacked_run_completes_with_timing_only() {
        let (_, a, b) = heat_arrays(8, 4, false);
        let mut cl = Cluster::new(ClusterConfig::new(2).backed(false));
        let (src, dst) = (cl.register(&a), cl.register(&b));
        let last = drive_heat(&mut cl, src, dst, 2);
        let out = if last.0 == 0 { &a } else { &b };
        assert!(out.to_dense().is_none(), "virtual arrays carry no data");
        assert!(cl.finish() > SimTime::ZERO);
        assert!(
            cl.net_stats().msgs() > 0,
            "timing-only messages still priced"
        );
    }
}
