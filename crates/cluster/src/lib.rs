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
//! any), the classic nonblocking halo-exchange shape. What each phase
//! moves comes from the source array's *exchange plan*, built once per
//! owner map for the cluster's [`Transport`]: under
//! [`Transport::FacePacked`] (the default) only the ghost patches whose
//! two regions live on different nodes travel, patches between two
//! devices of one node go device to device, and the rest are filled on
//! the device; under [`Transport::HostStaged`] every region stages its
//! whole grown slab out and back in, and every patch travels.
//!
//! 1. **Stage out** — per region, the cells of the source that leave the
//!    device are copied device→host on the region's *exchange stream*,
//!    ordered after the previous step's kernels by an event from the
//!    *compute stream*. A region whose source is not yet resident (step
//!    0, post-restore) is uploaded whole instead; the host copy is
//!    already authoritative. Behind the stage-out, each *peer patch* (its
//!    two regions on different devices of one node) is packed by a
//!    kernel on the source region's exchange stream into a staging
//!    buffer, and a peer copy (`cudaMemcpyPeerAsync`) moves it to a
//!    staging buffer on the destination device, on the destination
//!    region's exchange stream.
//! 2. **Interior compute** — the stencil over `valid.grow(-ghost)` runs
//!    on the compute stream. It reads only valid cells, so it needs no
//!    ghost data and overlaps the wire traffic of phase 3. Behind it, a
//!    region with same-device patches gets one *ghost-fill* kernel that
//!    copies them from its neighbours' device buffers (face-packed only).
//!    The fills of one device run one after another, each after its
//!    region's stage-out copy and after its sources' last writers.
//! 3. **Send** — per wire patch, in deterministic patch-list order: the
//!    send timestamp is the staging copy's completion time (probed with
//!    [`GpuSystem::op_completion`], which never blocks the simulated
//!    host), the payload is gathered from the source host slab into the
//!    patch's send buffer (reused once its last delivery has run), the
//!    [`NetworkModel`] prices the message (contention, drops, reorders,
//!    flaps), and the destination node receives it as a NIC op
//!    ([`GpuSystem::net_deliver`]) on the destination region's exchange
//!    stream, whose data effect scatters the payload into the
//!    destination host slab.
//! 4. **Stage in** — per region that received anything, an unpack
//!    kernel per peer patch scatters the staged cells into its ghosts
//!    and the received wire ghosts are uploaded, on the exchange stream,
//!    ordered after the interior kernel (they write the buffer it reads)
//!    and after the device's last fill (the fills read it too).
//! 5. **Boundary compute** — the shell of the valid box (the onion peel
//!    `valid ∖ interior`, at most six boxes) runs on the compute stream,
//!    ordered after the upload, or after the device's last fill when
//!    nothing was uploaded.
//!
//! A region's runs move as ranged copies, each covering a stretch of
//! runs and the gaps between them; a gap is covered when [`MachineConfig`]
//! prices moving its cells at no more than one more copy's fixed cost. A
//! device→host copy may cover any gap, since the host copy of a resident
//! region is not authoritative; a host→device copy may cover a gap only
//! if it holds no valid cell and no cell the fill writes. A face-packed stage-out leaves
//! the host copy stale, so the region stays dirty and
//! [`Cluster::sync_to_host`] still drains whole slabs.
//!
//! Only same-stream ordering and events order work, so every node's
//! schedule stays maximally concurrent; the cross-node dependencies are
//! resolved driver-side as arrival timestamps, never as cross-scheduler
//! edges. The protocol is happens-before clean: a run with hazard
//! checking enabled reports zero findings.
//!
//! # Elasticity and faults
//!
//! The unit of failure is one device, addressed by its *global* slot
//! `node * devices_per_node + local`; a [`HealthMonitor`] scores every
//! slot. When a device dies (a [`gpu_sim::DeviceDeath`] aimed at its
//! slot), the step surfaces [`ClusterError::DeviceLost`];
//! [`Cluster::failover`] restores a [`Checkpoint`] (the TACK snapshot
//! format, reused as the live-migration payload) and
//! [`Cluster::migrate_off`] re-owns the dead device's regions onto
//! healthy surviving devices — fresh streams, fresh device buffers, and,
//! on another node, the host slabs re-adopted there (slab storage is
//! shared, so the adoption *is* the migration). A node whose platform
//! crashed loses all its devices. Replaying from the snapshot's step is
//! bit-identical to a failure-free run. A one-node cluster with several
//! devices is thus a multi-GPU runtime that survives losing any device
//! but the last.
//!
//! Link-scoped faults ([`gpu_sim::LinkFault`]: drop / reorder / flap on a
//! named link) are carried by the cluster-wide [`FaultPlan`] and
//! evaluated purely by the network model; they perturb timing, never
//! data — the protocol waits for every delivery before consuming ghosts,
//! so results stay bit-identical under any link-fault schedule.

mod multi;
pub mod net;
mod plan;

pub use gpu_sim::LinkFault;
pub use net::{Delivery, LinkClass, NetConfig, NetStats, NetworkModel};
pub use plan::Transport;

use gpu_sim::{
    DeviceBuffer, Event, FaultPlan, GpuSystem, HostBuffer, HostMemKind, KernelCost, KernelLaunch,
    MachineConfig, OpId, SimTime, StreamId,
};
use memslab::Slab;
use plan::{ExchangePlan, Xfer};
use std::cell::{Cell, RefCell};
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
    /// cluster reproduces single-system fault schedules exactly). When
    /// this is unset ([`FaultPlan::none`]), a plan carried by `machine`
    /// takes its place; setting both is rejected by [`Cluster::new`].
    pub fault: FaultPlan,
    /// Whether slabs carry data (`false` = timing-only virtual run).
    pub backed: bool,
    /// How ghost data moves between regions (see [`Transport`]).
    pub transport: Transport,
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
            transport: Transport::default(),
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

    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
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
    /// A device (by global slot) died; its regions can be migrated onto
    /// the surviving devices via [`Cluster::failover`].
    DeviceLost { device: usize },
    /// Device allocation failed on a node.
    Alloc { node: usize, bytes: u64 },
    /// A transfer kept faulting past the retry budget.
    TransferExhausted { region: usize },
    /// An unrepairable corruption reached a region's host mirror.
    Integrity { region: usize },
    /// A snapshot could not be applied.
    Snapshot(CheckpointError),
    /// No live device is left to migrate onto.
    NoSurvivors,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Crashed { node } => write!(f, "node {node} crashed"),
            ClusterError::DeviceLost { device } => write!(f, "device {device} lost"),
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
            ClusterError::NoSurvivors => write!(f, "no live device left to migrate onto"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Which way a staging copy moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    H2d,
    D2h,
}

struct CArray {
    array: TileArray,
    /// Per-region host buffer handle *on the region's current owner node*
    /// (re-adopted on migration; the slab storage itself is shared).
    host: Vec<HostBuffer>,
    /// Per-region device buffer on the owner node.
    dev: Vec<DeviceBuffer>,
    resident: Vec<bool>,
    dirty: Vec<bool>,
    /// Staging buffers of the array plan's peer patches, in plan order.
    stage: Vec<Stage>,
    /// Send buffers of the array plan's wire patches, in plan order: the
    /// host slabs a payload is snapshotted into at send time (see
    /// [`send_buf`]).
    send: Vec<Vec<Slab>>,
}

/// The device buffers one peer patch travels through: packed on the
/// source device, copied into the destination device, unpacked there.
struct Stage {
    node: usize,
    src: DeviceBuffer,
    dst: DeviceBuffer,
    /// The last peer copy out of `src`; the next pack into it waits.
    copied: Option<Event>,
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
    transport: Transport,
    /// Per-array exchange plan for the current owners (built with them).
    plans: Vec<Arc<ExchangePlan>>,
    retry: RetryPolicy,
    /// Per-device health scores (by global slot) fed by the transfer
    /// retry loops.
    health: HealthMonitor,
    stats: AccStats,
}

impl Cluster {
    /// Build the cluster. The cluster-wide fault plan is
    /// [`ClusterConfig::fault`], or the machine's plan when that is unset.
    ///
    /// # Panics
    ///
    /// If both [`ClusterConfig::fault`] and the machine carry a fault
    /// plan: one of them would be silently dropped.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        let none = FaultPlan::none();
        assert!(
            cfg.fault == none || cfg.machine.faults == none,
            "ClusterConfig carries two fault plans: set it with \
             ClusterConfig::fault or on the machine, not both"
        );
        let fault = if cfg.fault == none {
            &cfg.machine.faults
        } else {
            &cfg.fault
        };
        let nodes: Vec<GpuSystem> = (0..cfg.nodes)
            .map(|n| {
                let machine =
                    cfg.machine
                        .clone()
                        .with_faults(node_plan(fault, n, cfg.devices_per_node));
                GpuSystem::multi(machine, cfg.devices_per_node, cfg.backed)
            })
            .collect();
        let net = NetworkModel::new(cfg.nodes, cfg.net, fault.seed, fault.link_faults.clone());
        let health = HealthMonitor::with_defaults(cfg.nodes * cfg.devices_per_node);
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
            transport: cfg.transport,
            plans: Vec::new(),
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
            stage: Vec::new(),
            send: Vec::new(),
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

    /// Global device slot (`node * devices_per_node + local`) currently
    /// owning a region.
    pub fn owner(&self, region: usize) -> usize {
        self.owner[region]
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

    /// The per-device health monitor (indexed by global slot) feeding
    /// migration decisions.
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

    /// Summed device-to-device bytes across all nodes.
    pub fn bytes_p2p(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats_bytes_p2p()).sum()
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

    /// Fail fast when region `r`'s owner node crashed or its owner
    /// device died.
    fn check_region(&self, r: usize) -> Result<(), ClusterError> {
        let node = self.node_of(r);
        if self.nodes[node].crashed() {
            return Err(ClusterError::Crashed { node });
        }
        if self.nodes[node].device_lost(self.dev_of(r)) {
            return Err(ClusterError::DeviceLost {
                device: self.owner[r],
            });
        }
        Ok(())
    }

    /// Whether global device slot `d` is gone: its node crashed or the
    /// device itself died.
    fn slot_lost(&self, d: usize) -> bool {
        let node = &self.nodes[d / self.dpn];
        node.crashed() || node.device_lost(d % self.dpn)
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
                let node = self.node_of(r);
                let slab = self.arrays[ai].array.region(r).slab.clone();
                let len = slab.len();
                let host = self.nodes[node].adopt_host_slab(slab, HostMemKind::Pinned);
                let buf = self.malloc_on(self.owner[r], len)?;
                self.arrays[ai].host.push(host);
                self.arrays[ai].dev.push(buf);
            }
            self.arrays[ai].resident = vec![false; regions];
            self.arrays[ai].dirty = vec![false; regions];
        }
        self.build_plans()?;
        self.initialized = true;
        Ok(())
    }

    /// Allocate `len` cells on global device slot `slot`.
    fn malloc_on(&mut self, slot: usize, len: usize) -> Result<DeviceBuffer, ClusterError> {
        let node = slot / self.dpn;
        self.nodes[node]
            .malloc_device_on(slot % self.dpn, len)
            .map_err(|_| ClusterError::Alloc {
                node,
                bytes: (len * std::mem::size_of::<f64>()) as u64,
            })
    }

    /// Plan every array's exchange for the current owners and allocate
    /// the staging buffers of its peer patches. Arrays of one ghost width
    /// and exchange mode have the same patches and layouts, so they share
    /// one plan; each keeps its own staging and send buffers. Pending
    /// deliveries hold their own handles on the old send buffers, so
    /// dropping ours here is safe.
    fn build_plans(&mut self) -> Result<(), ClusterError> {
        let cfg = self.nodes[0].config();
        let shape = |a: &TileArray| (a.ghost(), a.exchange_mode());
        let mut plans: Vec<Arc<ExchangePlan>> = Vec::with_capacity(self.arrays.len());
        for (i, e) in self.arrays.iter().enumerate() {
            let same = (0..i).find(|&j| shape(&self.arrays[j].array) == shape(&e.array));
            plans.push(match same {
                Some(j) => Arc::clone(&plans[j]),
                None => Arc::new(ExchangePlan::build(
                    self.transport,
                    &e.array,
                    &self.owner,
                    self.dpn,
                    cfg,
                )),
            });
        }
        self.plans = plans;
        for ai in 0..self.arrays.len() {
            for old in std::mem::take(&mut self.arrays[ai].stage) {
                self.nodes[old.node].free_device(old.src);
                self.nodes[old.node].free_device(old.dst);
            }
            let (plan, patches) = (
                Arc::clone(&self.plans[ai]),
                self.arrays[ai].array.patches_arc(),
            );
            self.arrays[ai].send = vec![Vec::new(); plan.wire.len()];
            for &i in &plan.peers {
                let p = &patches[i];
                let cells = p.num_cells() as usize;
                let src = self.malloc_on(self.owner[p.src_region], cells)?;
                let dst = self.malloc_on(self.owner[p.dst_region], cells)?;
                self.arrays[ai].stage.push(Stage {
                    node: self.owner[p.dst_region] / self.dpn,
                    src,
                    dst,
                    copied: None,
                });
            }
        }
        Ok(())
    }

    /// Move the cells `x` of region `r` of array `a` between its host and
    /// device copies in direction `dir`, on `stream`, with the standard
    /// retry loop. Past the budget an upload fails; a download falls back
    /// to the fault-exempt salvage copy of the same range, which still
    /// gets the data home.
    fn transfer(
        &mut self,
        dir: Dir,
        a: usize,
        r: usize,
        x: Xfer,
        stream: StreamId,
    ) -> Result<OpId, ClusterError> {
        let node = self.node_of(r);
        let (dev, host) = (self.arrays[a].dev[r], self.arrays[a].host[r]);
        let Xfer { off, len } = x;
        let issue = |gpu: &mut GpuSystem| match dir {
            Dir::H2d => gpu.memcpy_h2d_async(dev, off, host, off, len, stream),
            Dir::D2h => gpu.memcpy_d2h_async(host, off, dev, off, len, stream),
        };
        let mut op = issue(&mut self.nodes[node]);
        let mut attempt: u32 = 0;
        while self.nodes[node].op_faulted(op) {
            if self.nodes[node].crashed() {
                return Err(ClusterError::Crashed { node });
            }
            if self.nodes[node].device_lost(self.dev_of(r)) {
                return Err(ClusterError::DeviceLost {
                    device: self.owner[r],
                });
            }
            self.health.observe_fault(self.owner[r]);
            if self.retry.exhausted(attempt) {
                if dir == Dir::H2d {
                    return Err(ClusterError::TransferExhausted { region: r });
                }
                self.stats.salvaged_regions += 1;
                op = self.nodes[node].memcpy_d2h_salvage(host, off, dev, off, len, stream);
                break;
            }
            self.stats.transfer_retries += 1;
            let label = match dir {
                Dir::H2d => "h2d-retry-backoff",
                Dir::D2h => "d2h-retry-backoff",
            };
            self.nodes[node].backoff_work(self.retry.backoff(attempt), label);
            op = issue(&mut self.nodes[node]);
            attempt += 1;
        }
        if !self.nodes[node].op_faulted(op) {
            self.health.observe_success(self.owner[r]);
        }
        Ok(op)
    }

    /// Region `r` of array `a`'s whole grown slab as one copy.
    fn whole(&self, a: usize, r: usize) -> Xfer {
        Xfer::whole(self.arrays[a].array.region(r).slab.len())
    }

    /// Upload a read-only operand (e.g. a Jacobi right-hand side) once;
    /// it is never dirtied and never exchanged.
    fn ensure_aux_resident(&mut self, a: ArrayId, r: usize) -> Result<(), ClusterError> {
        if self.arrays[a.0].resident[r] {
            return Ok(());
        }
        self.stats.loads += 1;
        let whole = self.whole(a.0, r);
        self.transfer(Dir::H2d, a.0, r, whole, self.cstream[r])?;
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
        let plan = Arc::clone(&self.plans[src.0]);

        // Phase 1: stage the source out (or up). `staged[r]` is the
        // transfer whose completion timestamps the region's sends; `None`
        // means the host copy was authoritative before any simulated
        // work, so sends are ready at time zero. `ready[r]` orders work
        // that reads the region's device copy after its last writer: the
        // previous step's kernels, or this step's upload.
        let mut staged: Vec<Option<OpId>> = Vec::with_capacity(regions);
        let mut ready: Vec<Event> = Vec::with_capacity(regions);
        for r in 0..regions {
            self.check_region(r)?;
            let node = self.node_of(r);
            let rp = &plan.regions[r];
            let resident = self.arrays[src.0].resident[r];
            // Order the exchange after the previous step's kernels.
            let ev_k = self.nodes[node].record_event(self.cstream[r]);
            if !resident || plan.uses_exchange_stream(r) {
                self.nodes[node].stream_wait_event(self.xstream[r], ev_k);
            }
            if resident {
                let mut last = None;
                for x in plan.send(r) {
                    last = Some(self.transfer(Dir::D2h, src.0, r, *x, self.xstream[r])?);
                }
                if rp.send_whole {
                    // Host now mirrors the device copy exactly.
                    self.arrays[src.0].dirty[r] = false;
                }
                staged.push(last);
                ready.push(ev_k);
            } else {
                // Step 0 / post-restore: the host copy is authoritative —
                // upload it for the kernels and send straight from it.
                self.stats.loads += 1;
                let whole = self.whole(src.0, r);
                self.transfer(Dir::H2d, src.0, r, whole, self.xstream[r])?;
                let ev_up = self.nodes[node].record_event(self.xstream[r]);
                self.nodes[node].stream_wait_event(self.cstream[r], ev_up);
                self.arrays[src.0].resident[r] = true;
                self.arrays[src.0].dirty[r] = false;
                staged.push(None);
                ready.push(ev_up);
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
        if !plan.peers.is_empty() {
            self.send_peers(src, &plan)?;
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

        // Device-side ghost fills, chained per device: a fill writes its
        // region's buffer and reads its neighbours', so no two may run at
        // once. Each waits for its region's send copy (which reads the
        // buffer it writes) and for its sources' last writers.
        // `filled[slot]` is the device's last fill.
        let mut filled: Vec<Option<Event>> = Vec::new();
        if plan.fills {
            filled.resize(self.nodes.len() * self.dpn, None);
            for r in 0..regions {
                if let Some(fill) = &plan.regions[r].fill {
                    let ev = self.launch_fill(
                        src,
                        r,
                        fill,
                        staged[r].is_some() || plan.regions[r].packs,
                        &ready,
                        filled[self.owner[r]],
                    );
                    filled[self.owner[r]] = Some(ev);
                    self.check_region(r)?;
                }
            }
        }

        // Phase 3: price and deliver every wire patch, in deterministic
        // patch-list order. The send timestamp is the staging copy's
        // completion time, probed without blocking the simulated host;
        // probing also forces the copy's data effect, so the driver-side
        // gather below reads fresh host data.
        let patches = self.arrays[src.0].array.patches_arc();
        let mut send_at: Vec<Option<SimTime>> = vec![None; regions];
        for (w, &i) in plan.wire.iter().enumerate() {
            let p = &patches[i];
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

            let arr = &mut self.arrays[src.0];
            let sreg = arr.array.region(sr);
            let dreg = arr.array.region(dr);
            // Snapshot the payload at send time, packed by its own box: the
            // receiving scheduler replays effects in its own order, so the
            // scatter must not read the source slab lazily.
            let scatter = (!sreg.slab.is_virtual()).then(|| {
                let stage = Layout::new(p.dst_box);
                let payload = send_buf(&mut arr.send[w], stage.len());
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
        // on its exchange stream), upload the received ghosts — after the
        // interior kernel releases its read of the source device cells
        // and after the device's fills stop reading them — and run the
        // boundary shell behind it.
        for (r, interior) in interiors.into_iter().enumerate() {
            let node = self.node_of(r);
            let fills_done = filled.get(self.owner[r]).copied().flatten();
            let rp = &plan.regions[r];
            if plan.recv(r).is_empty() && rp.peers_in.is_empty() && !rp.packs {
                // Later steps overwrite this region's buffers, which the
                // device's fills read.
                if let Some(ev) = fills_done {
                    self.nodes[node].stream_wait_event(self.cstream[r], ev);
                }
            } else {
                if !interior.is_empty() {
                    let ev_int = self.nodes[node].record_event(self.cstream[r]);
                    self.nodes[node].stream_wait_event(self.xstream[r], ev_int);
                }
                if let Some(ev) = fills_done {
                    self.nodes[node].stream_wait_event(self.xstream[r], ev);
                }
                for k in rp.peers_in.clone() {
                    self.unpack(src, &plan, k);
                }
                for x in plan.recv(r) {
                    self.transfer(Dir::H2d, src.0, r, *x, self.xstream[r])?;
                }
                let ev_ghosts = self.nodes[node].record_event(self.xstream[r]);
                self.nodes[node].stream_wait_event(self.cstream[r], ev_ghosts);
            }
            let valid = self.arrays[dst.0].array.region(r).valid;
            for bx in shell_boxes(valid, interior) {
                self.launch_stencil(dst, src, aux, r, bx, cost(bx.num_cells()), label, f.clone());
            }
            self.arrays[dst.0].dirty[r] = true;
            self.check_region(r)?;
        }
        Ok(())
    }

    /// Pack every peer patch of array `a` on its source region's exchange
    /// stream, then copy each to its destination device on the
    /// destination region's exchange stream. All packs are submitted
    /// before any copy waits for one, so no exchange stream stalls on
    /// another device's pack ahead of its own.
    fn send_peers(&mut self, a: ArrayId, plan: &ExchangePlan) -> Result<(), ClusterError> {
        let patches = self.arrays[a.0].array.patches_arc();
        let mut packed = Vec::with_capacity(plan.peers.len());
        for (k, &i) in plan.peers.iter().enumerate() {
            let p = patches[i];
            let s = p.src_region;
            let node = self.node_of(s);
            let (xs, stage) = (self.xstream[s], &self.arrays[a.0].stage[k]);
            if let Some(ev) = stage.copied {
                self.nodes[node].stream_wait_event(xs, ev);
            }
            let (from, to) = (self.arrays[a.0].dev[s], stage.src);
            let src_layout = self.arrays[a.0].array.region(s).layout;
            let (src_slab, stage_slab) = (
                self.nodes[node].device_slab(from),
                self.nodes[node].device_slab(to),
            );
            let backed = self.nodes[node].backed();
            self.nodes[node].launch_kernel(
                xs,
                KernelLaunch::new("pack", KernelCost::Bytes(16 * p.num_cells()))
                    .efficiency(self.kernel_efficiency)
                    .reads(from.into())
                    .writes(to.into())
                    .exec_if(backed, move || {
                        // The staging buffer holds the patch laid out by
                        // its own box.
                        let stage = Layout::new(p.dst_box);
                        let (nx, rows) = tida::patch_rows(stage, src_layout, p.dst_box, p.shift);
                        memslab::copy_rows(&stage_slab, &src_slab, nx, rows);
                    }),
            );
            packed.push(self.nodes[node].record_event(xs));
            self.check_region(s)?;
        }
        for (k, &i) in plan.peers.iter().enumerate() {
            let p = &patches[i];
            let (node, xd) = (self.node_of(p.dst_region), self.xstream[p.dst_region]);
            let Stage { src, dst, .. } = self.arrays[a.0].stage[k];
            self.nodes[node].stream_wait_event(xd, packed[k]);
            self.nodes[node].memcpy_p2p_async(dst, 0, src, 0, p.num_cells() as usize, xd);
            self.arrays[a.0].stage[k].copied = Some(self.nodes[node].record_event(xd));
            self.check_region(p.src_region)?;
            self.check_region(p.dst_region)?;
        }
        Ok(())
    }

    /// Scatter peer patch `k` of array `a`'s plan from its destination
    /// staging buffer into the destination region's ghosts, on that
    /// region's exchange stream.
    fn unpack(&mut self, a: ArrayId, plan: &ExchangePlan, k: usize) {
        let p = self.arrays[a.0].array.patches()[plan.peers[k]];
        let r = p.dst_region;
        let node = self.node_of(r);
        let (from, to) = (self.arrays[a.0].stage[k].dst, self.arrays[a.0].dev[r]);
        let dst_layout = self.arrays[a.0].array.region(r).layout;
        let (stage_slab, dst_slab) = (
            self.nodes[node].device_slab(from),
            self.nodes[node].device_slab(to),
        );
        let backed = self.nodes[node].backed();
        self.nodes[node].launch_kernel(
            self.xstream[r],
            KernelLaunch::new("unpack", KernelCost::Bytes(16 * p.num_cells()))
                .efficiency(self.kernel_efficiency)
                .reads(from.into())
                .writes(to.into())
                .exec_if(backed, move || {
                    let stage = Layout::new(p.dst_box);
                    let (nx, rows) = tida::patch_rows(dst_layout, stage, p.dst_box, IntVect::ZERO);
                    memslab::copy_rows(&dst_slab, &stage_slab, nx, rows);
                }),
        );
        self.stats.ghost_gpu += 1;
    }

    /// Launch region `r`'s ghost fill of array `a` on its compute stream:
    /// one kernel copying every same-device patch into the region's
    /// ghosts. It runs after the region's send copies and packs when
    /// `sent` (they read the buffer it writes), after
    /// its sources' `ready` events and after the device's previous fill
    /// `prev`. Returns the event the next fill on the device waits for.
    fn launch_fill(
        &mut self,
        a: ArrayId,
        r: usize,
        fill: &plan::Fill,
        sent: bool,
        ready: &[Event],
        prev: Option<Event>,
    ) -> Event {
        let node = self.node_of(r);
        let cs = self.cstream[r];
        if sent {
            let ev = self.nodes[node].record_event(self.xstream[r]);
            self.nodes[node].stream_wait_event(cs, ev);
        }
        for &s in &fill.sources {
            self.nodes[node].stream_wait_event(cs, ready[s]);
        }
        if let Some(ev) = prev {
            self.nodes[node].stream_wait_event(cs, ev);
        }
        let arr = &self.arrays[a.0];
        let dev = arr.dev[r];
        let backed = self.nodes[node].backed();
        let dst_slab = self.nodes[node].device_slab(dev);
        let dst_layout = arr.array.region(r).layout;
        let parts: Vec<_> = if backed {
            fill.patches
                .iter()
                .map(|p| {
                    let src_slab = self.nodes[node].device_slab(arr.dev[p.src_region]);
                    (*p, src_slab, arr.array.region(p.src_region).layout)
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut launch = KernelLaunch::new("ghost-fill", KernelCost::Bytes(16 * fill.cells))
            .efficiency(self.kernel_efficiency)
            .writes(dev.into())
            .exec_if(backed, move || {
                for (p, src_slab, src_layout) in &parts {
                    let (nx, rows) = tida::patch_rows(dst_layout, *src_layout, p.dst_box, p.shift);
                    memslab::copy_rows(&dst_slab, src_slab, nx, rows);
                }
            });
        if fill.reads_self {
            launch = launch.reads(dev.into());
        }
        for &s in &fill.sources {
            launch = launch.reads(arr.dev[s].into());
        }
        self.nodes[node].launch_kernel(cs, launch);
        self.stats.ghost_gpu += fill.patches.len() as u64;
        self.nodes[node].record_event(cs)
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
            let whole = self.whole(a.0, r);
            self.transfer(Dir::D2h, a.0, r, whole, self.xstream[r])?;
        }
        let stream = self.xstream[r];
        self.nodes[node].stream_synchronize(stream);
        self.arrays[a.0].resident[r] = false;
        self.arrays[a.0].dirty[r] = false;
        if self.nodes[node].host_poisoned(self.arrays[a.0].host[r]) {
            self.stats.integrity_detected += 1;
            self.health.observe_integrity(self.owner[r]);
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

    /// Reduce `map(cell)` over every valid cell of `array` with `combine`:
    /// one kernel per resident region on its owner device (a region whose
    /// host copy is authoritative is reduced on the host, priced as host
    /// work), the partials combined on the host in region order.
    /// Blocking. `None` for a timing-only run.
    pub fn reduce<M, C>(
        &mut self,
        array: ArrayId,
        label: &'static str,
        identity: f64,
        map: M,
        combine: C,
    ) -> Result<Option<f64>, ClusterError>
    where
        M: Fn(f64) -> f64 + Clone + 'static,
        C: Fn(f64, f64) -> f64 + Clone + 'static,
    {
        self.ensure_init()?;
        let regions = self.num_regions();
        let partials: Rc<[Cell<f64>]> = (0..regions).map(|_| Cell::new(identity)).collect();
        for r in 0..regions {
            self.check_region(r)?;
            let node = self.node_of(r);
            let reg = self.arrays[array.0].array.region(r);
            let (valid, layout, host_slab) = (reg.valid, reg.layout, reg.slab.clone());
            let cost = KernelCost::Bytes(valid.num_cells() * 8);
            let (m, c, out) = (map.clone(), combine.clone(), Rc::clone(&partials));
            let partial = move |slab: &Slab| {
                tida::with_view(slab, layout, |v| {
                    out[r].set(valid.iter().fold(identity, |acc, iv| c(acc, m(v.at(iv)))));
                });
            };
            if self.arrays[array.0].resident[r] {
                let dev = self.arrays[array.0].dev[r];
                let slab = self.nodes[node].device_slab(dev);
                self.nodes[node].launch_kernel(
                    self.cstream[r],
                    KernelLaunch::new(label, cost)
                        .efficiency(self.kernel_efficiency)
                        .reads(dev.into())
                        .exec(move || partial(&slab)),
                );
                self.stats.kernels_gpu += 1;
            } else {
                partial(&host_slab);
                let d = cost.duration_on_host(self.nodes[node].config());
                self.nodes[node].host_work(d, label);
            }
            self.check_region(r)?;
        }
        for n in &mut self.nodes {
            n.device_synchronize();
        }
        if self.arrays[array.0].array.is_virtual() {
            return Ok(None);
        }
        Ok(Some(partials.iter().map(Cell::get).fold(identity, combine)))
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore / live migration.
    // ------------------------------------------------------------------

    /// Global slots of the devices that died or whose node crashed.
    pub fn lost_devices(&self) -> Vec<usize> {
        (0..self.nodes.len() * self.dpn)
            .filter(|&d| self.slot_lost(d))
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

    /// Rebuild host state from a snapshot once every node has drained;
    /// all residency is dropped (the host copies are authoritative
    /// afterwards).
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
        // Quiesce first: an aborted step's copies and deliveries still in
        // flight would otherwise land in the restored host slabs, whose
        // storage the nodes share.
        self.finish();
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

    /// Re-own every region of device slot `from` onto the surviving
    /// devices, round-robin: fresh streams and device buffers on the new
    /// owner, the region host slabs re-adopted when it sits on another
    /// node (shared storage — the adoption is the live migration),
    /// residency dropped. Healthy survivors are preferred; quarantined
    /// ones are a last resort.
    pub fn migrate_off(&mut self, from: usize) -> Result<(), ClusterError> {
        if self.slot_lost(from) {
            self.health.note_dead(from);
        }
        if !self.initialized {
            return Ok(());
        }
        let all: Vec<usize> = (0..self.nodes.len() * self.dpn)
            .filter(|&d| d != from && !self.slot_lost(d))
            .collect();
        let healthy: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&d| self.health.state(d) == HealthState::Healthy)
            .collect();
        let survivors = if healthy.is_empty() { all } else { healthy };
        if survivors.is_empty() {
            return Err(ClusterError::NoSurvivors);
        }
        let mut next = 0usize;
        for r in 0..self.num_regions() {
            if self.owner[r] != from {
                continue;
            }
            let old_node = self.node_of(r);
            let slot = survivors[next % survivors.len()];
            next += 1;
            self.owner[r] = slot;
            let (node, dev) = (self.node_of(r), self.dev_of(r));
            self.cstream[r] = self.nodes[node].create_stream_on(dev);
            self.xstream[r] = self.nodes[node].create_stream_on(dev);
            self.stats.regions_migrated += 1;
            for ai in 0..self.arrays.len() {
                let slab = self.arrays[ai].array.region(r).slab.clone();
                let len = slab.len();
                // The old buffers are stranded on `from`; the device (or
                // its trustworthiness) is gone.
                if node != old_node {
                    self.arrays[ai].host[r] =
                        self.nodes[node].adopt_host_slab(slab, HostMemKind::Pinned);
                }
                self.arrays[ai].dev[r] = self.malloc_on(slot, len)?;
                self.arrays[ai].resident[r] = false;
                self.arrays[ai].dirty[r] = false;
                self.stats.migration_restage_loads += 1;
                self.stats.migration_restage_bytes += (len * std::mem::size_of::<f64>()) as u64;
            }
        }
        if next > 0 {
            self.build_plans()?;
        }
        Ok(())
    }

    /// The full device-loss recovery protocol: restore the snapshot, then
    /// migrate every lost device's regions onto the survivors. Returns the
    /// step to resume from; replaying from there is bit-identical to a
    /// failure-free run because reconstruction happens purely from the
    /// snapshot's host data.
    pub fn failover(&mut self, ck: &Checkpoint) -> Result<u64, ClusterError> {
        self.restore(ck).map_err(ClusterError::Snapshot)?;
        for d in self.lost_devices() {
            self.migrate_off(d)?;
        }
        self.stats.checkpoints_restored += 1;
        Ok(ck.step)
    }
}

/// A send buffer of `len` cells from `pool` that no pending delivery
/// still reads, allocating one when every buffer is in use. The receiving
/// node replays a delivery effect lazily, possibly steps later; the
/// effect holds a handle on its payload until it has run, so a buffer
/// the pool alone holds is free.
fn send_buf(pool: &mut Vec<Slab>, len: usize) -> Slab {
    if let Some(free) = pool.iter().find(|b| b.handles() == 1) {
        return free.clone();
    }
    let buf = Slab::real(len);
    pool.push(buf.clone());
    buf
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
        let mut cl = Cluster::new(ClusterConfig::new(1).transport(Transport::HostStaged));
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
    fn one_node_face_packed_heat_stays_on_the_device() {
        let (_, a, b) = heat_arrays(8, 4, true);
        let mut cl = Cluster::new(ClusterConfig::new(1).transport(Transport::FacePacked));
        cl.set_hazard_checking(true);
        let (src, dst) = (cl.register(&a), cl.register(&b));
        // Step only: the final drain is a whole-slab download.
        for (s, t) in [(src, dst), (dst, src), (src, dst)] {
            cl.step(t, s, None, heat::cost, "heat", |d, s, _aux, bx| {
                heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
            })
            .unwrap();
        }
        // One device: every ghost is filled on it. Nothing goes on the
        // wire, and PCIe carries only the step-0 upload of the source.
        let ns = cl.net_stats();
        assert_eq!(ns.msgs(), 0, "no message leaves the device");
        assert_eq!(cl.bytes_net(), 0);
        assert_eq!(cl.bytes_d2h(), 0);
        let slabs: u64 = (0..4).map(|r| a.region(r).bytes()).sum();
        assert_eq!(cl.bytes_h2d(), slabs, "only the step-0 upload");
        assert!(cl.stats().ghost_gpu > 0);
        cl.sync_to_host(dst).unwrap();
        assert_eq!(
            b.to_dense().unwrap(),
            heat::golden_run(init, 8, 3, heat::DEFAULT_FAC),
            "bitwise agreement with the dense golden"
        );
        assert_eq!(cl.hazard_total(), 0, "fills must be HB-clean");
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
                Err(ClusterError::DeviceLost { device }) => {
                    assert_eq!(device, 1);
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
    fn send_buffers_are_reused_behind_a_lagging_receiver() {
        let steps = 6;
        let golden = heat::golden_run(init, 8, steps, heat::DEFAULT_FAC);
        // One region per node. Node 1's sends come first in patch order,
        // so each step's sends into node 0 go out before anything makes
        // node 0 replay the previous step's deliveries: the receiver lags
        // one step behind, and a step returns with deliveries still
        // holding their payloads.
        let (_, a, b) = heat_arrays(8, 2, true);
        let mut cl = Cluster::new(ClusterConfig::new(2));
        let (mut src, mut dst) = (cl.register(&a), cl.register(&b));
        let mut lagged = false;
        for _ in 0..steps {
            cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
                heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
            })
            .unwrap();
            let pools = &cl.arrays[src.0].send;
            lagged |= pools.iter().flatten().any(|buf| buf.handles() > 1);
            std::mem::swap(&mut src, &mut dst);
        }
        assert!(lagged, "no delivery was pending when its step returned");
        cl.sync_to_host(src).unwrap();
        let out = if src.0 == 0 { &a } else { &b };
        assert_eq!(out.to_dense().unwrap(), golden);
        // Every wire patch reused one buffer on every later send.
        for e in &cl.arrays {
            assert!(!e.send.is_empty());
            assert!(e.send.iter().all(|pool| pool.len() == 1));
        }
    }

    #[test]
    fn a_send_buffer_is_reused_only_once_no_delivery_holds_it() {
        let mut pool = Vec::new();
        let first = send_buf(&mut pool, 4);
        // A pending delivery still holds `first`: the next send gets
        // another buffer.
        let second = send_buf(&mut pool, 4);
        assert!(!second.same_storage(&first));
        // Both deliveries ran and let go: the first buffer comes back.
        drop((first, second));
        let third = send_buf(&mut pool, 4);
        assert!(third.same_storage(&pool[0]));
        assert_eq!(pool.len(), 2);
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
