//! Cluster fault-matrix integration suite: seeded link faults and node
//! deaths crossed with the multi-node halo-exchange runtime.
//!
//! The contract under test, per fault class:
//!
//! * **link drops / reorders / flaps** — retransmits and delivery delays
//!   perturb *timing only*: the exchange protocol orders every consumer
//!   after the delivery op in stream order, so the final field is
//!   bit-identical to the failure-free golden and nothing is silently
//!   lost or reordered into wrong data;
//! * **node death** — the step (or the final drain) surfaces
//!   `DeviceLost` for the node's only device, failover restores the TACK
//!   snapshot and live-migrates the dead node's regions onto the
//!   survivors, the replay is bit-identical to a failure-free run, and
//!   the migration's restage traffic is accounted to the byte;
//! * **determinism** — the same plan replays to identical results, stats
//!   and simulated time, whatever the fault class.

use cluster::{Cluster, ClusterConfig, ClusterError, LinkFault, NetStats};
use gpu_sim::{DeviceDeath, FaultPlan, SimTime};
use kernels::{heat, init};
use proptest::prelude::*;
use std::sync::Arc;
use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};
use tida_acc::AccStats;

const N: i64 = 8;
const REGIONS: usize = 4;
const STEPS: u64 = 4;

/// CI's scheduled sweep sets `FAULT_SEED_OFFSET` to displace the seed
/// window the property tests explore; local and push/PR runs use offset 0.
fn seed_offset() -> u64 {
    std::env::var("FAULT_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn golden() -> Vec<f64> {
    heat::golden_run(init::hash_field(7), N, STEPS as usize, heat::DEFAULT_FAC)
}

struct ClusterRun {
    result: Vec<f64>,
    elapsed: SimTime,
    stats: AccStats,
    net: NetStats,
    recoveries: u64,
    hazards: u64,
}

fn decomp() -> Arc<Decomposition> {
    Arc::new(Decomposition::new(
        Domain::periodic_cube(N),
        RegionSpec::Count(REGIONS),
    ))
}

/// Drive `STEPS` heat steps and the final drain on a `nodes`-node
/// cluster under `plan`, riding out node losses in either with the
/// checkpoint/failover protocol. Any error other than a node loss fails
/// the run loudly — a faulted cluster must never return a wrong answer
/// quietly.
fn run_cluster(nodes: usize, plan: FaultPlan, hazard_checking: bool) -> ClusterRun {
    let d = decomp();
    let ua = TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    let ub = TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    ua.fill_valid(init::hash_field(7));

    let mut cl = Cluster::new(ClusterConfig::new(nodes).fault(plan));
    cl.set_hazard_checking(hazard_checking);
    let ids = [cl.register(&ua), cl.register(&ub)];
    let ck = cl.checkpoint(0).expect("pristine checkpoint");

    let mut s = 0u64;
    let mut recoveries = 0u64;
    loop {
        let r = if s < STEPS {
            let (src, dst) = (ids[(s % 2) as usize], ids[((s + 1) % 2) as usize]);
            cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
                heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
            })
        } else {
            cl.sync_to_host(ids[(s % 2) as usize])
        };
        match r {
            Ok(()) if s == STEPS => break,
            Ok(()) => s += 1,
            Err(ClusterError::DeviceLost { .. }) | Err(ClusterError::Crashed { .. }) => {
                recoveries += 1;
                assert!(recoveries <= 8, "failover livelock");
                s = cl.failover(&ck).expect("survivors remain");
            }
            Err(e) => panic!("cluster run must degrade gracefully, got {e}"),
        }
    }
    let elapsed = cl.finish();
    ClusterRun {
        result: if s.is_multiple_of(2) { &ua } else { &ub }
            .to_dense()
            .expect("backed run"),
        elapsed,
        stats: cl.stats(),
        net: cl.net_stats(),
        recoveries,
        hazards: cl.hazard_total(),
    }
}

// ---------------------------------------------------------------------------
// (a) directed: each link-fault class injects, costs time, changes nothing
// ---------------------------------------------------------------------------

#[test]
fn link_drops_inject_and_cost_time_only() {
    let clean = run_cluster(2, FaultPlan::none(), false);
    assert_eq!(clean.result, golden());
    let plan = FaultPlan::none()
        .with_seed(9)
        .with_link_fault(LinkFault::on("*").drops(0.5));
    let run = run_cluster(2, plan, false);
    assert_eq!(run.result, golden(), "drops must never change data");
    assert!(run.net.drops > 0, "plan injected nothing: {:?}", run.net);
    assert!(
        run.elapsed >= clean.elapsed,
        "retransmits cost time: {} !>= {}",
        run.elapsed,
        clean.elapsed
    );
    assert_eq!(run.recoveries, 0, "drops are not node losses");
}

#[test]
fn link_reorders_inject_and_cost_time_only() {
    let plan = FaultPlan::none()
        .with_seed(13)
        .with_link_fault(LinkFault::on("*").reorders(0.5, SimTime::from_us(40)));
    let run = run_cluster(2, plan, false);
    assert_eq!(run.result, golden(), "reorders must never change data");
    assert!(run.net.reorders > 0, "plan injected nothing: {:?}", run.net);
    assert_eq!(run.recoveries, 0);
}

#[test]
fn link_flaps_inject_and_cost_time_only() {
    let clean = run_cluster(2, FaultPlan::none(), false);
    let plan = FaultPlan::none()
        .with_seed(17)
        .with_link_fault(LinkFault::on("*").flaps(
            SimTime::ZERO,
            SimTime::from_us(50),
            SimTime::from_us(25),
            0,
        ));
    let run = run_cluster(2, plan, false);
    assert_eq!(run.result, golden(), "flaps must never change data");
    assert!(
        run.net.flap_stalls > 0,
        "plan injected nothing: {:?}",
        run.net
    );
    assert!(run.elapsed > clean.elapsed, "down windows stall the wire");
    assert_eq!(run.recoveries, 0);
}

// ---------------------------------------------------------------------------
// (b) directed: node death → failover → bit-identical replay, bytes booked
// ---------------------------------------------------------------------------

#[test]
fn node_death_failover_is_bit_identical_and_accounted() {
    let plan = FaultPlan::none()
        .with_seed(21)
        .with_device_death(DeviceDeath::at_transfer(1, 3));
    let run = run_cluster(2, plan, true);
    assert_eq!(run.result, golden(), "post-failover replay must be exact");
    assert!(run.recoveries >= 1, "the death must actually fire");
    assert_eq!(run.stats.checkpoints_restored, run.recoveries);
    assert!(run.stats.regions_migrated > 0);
    assert_eq!(run.hazards, 0, "recovery must stay HB-clean");

    // Restage accounting to the byte: every migrated region re-adopts one
    // grown host slab per registered array (two arrays here), and the
    // booked bytes are exactly those slabs.
    let grown_bytes = decomp().region_box(0).grow(1).num_cells() * 8;
    assert_eq!(
        run.stats.migration_restage_loads,
        2 * run.stats.regions_migrated,
        "two arrays per region"
    );
    assert_eq!(
        run.stats.migration_restage_bytes,
        run.stats.migration_restage_loads * grown_bytes,
        "migration restage bytes must match the re-adopted slabs"
    );
}

// ---------------------------------------------------------------------------
// (c) property: seeds × node counts × fault classes — never lost, never wrong
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum FaultClass {
    Clean,
    Drop,
    Reorder,
    Flap,
    NodeDeath,
}

fn fault_class() -> impl Strategy<Value = FaultClass> {
    prop_oneof![
        Just(FaultClass::Clean),
        Just(FaultClass::Drop),
        Just(FaultClass::Reorder),
        Just(FaultClass::Flap),
        Just(FaultClass::NodeDeath),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn prop_cluster_faults_never_lose_or_corrupt(
        seed in 0u64..10_000,
        nodes in 1usize..=4,
        class in fault_class(),
        death_after in 1u64..6,
    ) {
        // A node death needs a survivor to migrate onto.
        let nodes = match class {
            FaultClass::NodeDeath => nodes.max(2),
            _ => nodes,
        };
        let base = FaultPlan::none().with_seed(seed + seed_offset());
        let plan = match class {
            FaultClass::Clean => base,
            FaultClass::Drop => base.with_link_fault(LinkFault::on("*").drops(0.4)),
            FaultClass::Reorder => {
                base.with_link_fault(LinkFault::on("*").reorders(0.4, SimTime::from_us(25)))
            }
            FaultClass::Flap => base.with_link_fault(LinkFault::on("*").flaps(
                SimTime::ZERO,
                SimTime::from_us(80),
                SimTime::from_us(30),
                0,
            )),
            FaultClass::NodeDeath => base.with_device_death(DeviceDeath::at_transfer(
                (nodes - 1) as usize,
                death_after,
            )),
        };
        let run = run_cluster(nodes, plan, false);
        prop_assert_eq!(&run.result, &golden());
        if let FaultClass::NodeDeath = class {
            // The replay resets the stats to the snapshot's, so migration
            // accounting must still balance after however many failovers.
            if run.recoveries > 0 {
                prop_assert!(run.stats.regions_migrated > 0);
                prop_assert_eq!(
                    run.stats.migration_restage_loads,
                    2 * run.stats.regions_migrated
                );
            }
        } else {
            prop_assert_eq!(run.recoveries, 0, "link faults are not node losses");
        }
    }
}

// ---------------------------------------------------------------------------
// (d) determinism: one seeded plan of every class replays bit-identically
// ---------------------------------------------------------------------------

#[test]
fn faulted_runs_replay_deterministically() {
    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "drops",
            FaultPlan::none()
                .with_seed(33)
                .with_link_fault(LinkFault::on("*").drops(0.4)),
        ),
        (
            "reorders",
            FaultPlan::none()
                .with_seed(33)
                .with_link_fault(LinkFault::on("*").reorders(0.4, SimTime::from_us(25))),
        ),
        (
            "death",
            FaultPlan::none()
                .with_seed(33)
                .with_device_death(DeviceDeath::at_transfer(1, 2)),
        ),
    ];
    for (label, plan) in plans {
        let first = run_cluster(2, plan.clone(), false);
        let again = run_cluster(2, plan, false);
        assert_eq!(first.result, again.result, "{label}: results");
        assert_eq!(first.elapsed, again.elapsed, "{label}: simulated time");
        assert_eq!(first.stats, again.stats, "{label}: accelerator stats");
        assert_eq!(first.net.drops, again.net.drops, "{label}: drops");
        assert_eq!(first.net.reorders, again.net.reorders, "{label}: reorders");
        assert_eq!(first.recoveries, again.recoveries, "{label}: recoveries");
    }
}
