//! Transport equivalence: the face-packed cluster exchange (only wire
//! faces staged over PCIe, same-device ghosts filled on the device) and
//! the host-staged one (whole slabs out and back in) compute the same
//! field, bit for bit, as each other and as the dense golden — across
//! decompositions, exchange modes, node and device counts, transient
//! transfer faults and device-death failover. Every run is hazard-free and
//! its trace carries exactly the bytes its counters book.

use cluster::{Cluster, ClusterConfig, ClusterError, Transport};
use gpu_sim::{DeviceDeath, FaultPlan};
use integration_tests::support;
use kernels::{heat, init};
use proptest::prelude::*;
use tida::{ExchangeMode, RegionSpec, TileArray};

const N: i64 = 8;
const STEPS: u64 = 3;
const SEED: u64 = 5;

/// What one cluster run leaves behind.
struct Run {
    result: Vec<f64>,
    hazards: u64,
    /// `(trace H2D, counter H2D, trace D2H, counter D2H)` bytes, and the
    /// trace's NET payload against the NIC counter.
    bytes: [u64; 6],
    salvaged: u64,
    recoveries: u64,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    spec: RegionSpec,
    mode: ExchangeMode,
    nodes: usize,
    dpn: usize,
    /// Transient H2D and D2H fault rate.
    transient: f64,
    /// Kill the last device on its n-th transfer.
    death_at: Option<u64>,
    seed: u64,
}

fn run(case: Case, transport: Transport) -> Run {
    let d = support::heat_decomp(N, case.spec);
    let ua = TileArray::new(d.clone(), 1, case.mode, true);
    let ub = TileArray::new(d.clone(), 1, case.mode, true);
    ua.fill_valid(init::hash_field(SEED));

    let mut plan = FaultPlan::none().with_seed(case.seed);
    if case.transient > 0.0 {
        plan = plan.with_transient(case.transient);
    }
    if let Some(n) = case.death_at {
        plan = plan.with_device_death(DeviceDeath::at_transfer(case.nodes * case.dpn - 1, n));
    }
    let mut cl = Cluster::new(
        ClusterConfig::new(case.nodes)
            .devices_per_node(case.dpn)
            .fault(plan)
            .transport(transport),
    );
    cl.set_tracing(true);
    cl.set_hazard_checking(true);
    let ids = [cl.register(&ua), cl.register(&ub)];
    let ck = cl.checkpoint(0).expect("pristine checkpoint");

    // Steps, then the final drain; a device lost in either fails over and
    // replays from the snapshot.
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
            Err(ClusterError::DeviceLost { .. }) => {
                recoveries += 1;
                assert!(recoveries <= 4, "failover livelock");
                s = cl.failover(&ck).expect("survivors remain");
            }
            Err(e) => panic!("{case:?} under {transport:?}: {e}"),
        }
    }
    cl.finish();
    let trace = cl.trace();
    let (h2d, d2h) = support::transfer_bytes_from_trace(&trace);
    Run {
        result: support::result_array(&ua, &ub, STEPS),
        hazards: cl.hazard_total(),
        bytes: [
            h2d,
            cl.bytes_h2d(),
            d2h,
            cl.bytes_d2h(),
            baselines::net_bytes_from_trace(&trace),
            cl.bytes_net(),
        ],
        salvaged: cl.stats().salvaged_regions,
        recoveries,
    }
}

/// Run `case` under both transports and check each against the golden,
/// the trace and the other; returns the host-staged and face-packed runs.
fn check(case: Case) -> [Run; 2] {
    let golden = support::heat_golden(SEED, N, STEPS);
    let staged = run(case, Transport::HostStaged);
    let packed = run(case, Transport::FacePacked);
    for (name, r) in [("host-staged", &staged), ("face-packed", &packed)] {
        assert!(r.result == golden, "{case:?}: {name} differs from golden");
        assert_eq!(r.hazards, 0, "{case:?}: {name} hazards");
        let [th2d, ch2d, td2h, cd2h, tnet, cnet] = r.bytes;
        assert_eq!(th2d, ch2d, "{case:?}: {name} H2D trace vs counter");
        if r.salvaged == 0 {
            // A salvage copy books D2H bytes under its own span category.
            assert_eq!(td2h, cd2h, "{case:?}: {name} D2H trace vs counter");
        }
        assert_eq!(tnet, cnet, "{case:?}: {name} NET trace vs counter");
        if case.death_at.is_none() {
            assert_eq!(r.recoveries, 0);
        }
    }
    assert!(
        packed.result == staged.result,
        "{case:?}: transports differ"
    );
    [staged, packed]
}

fn spec() -> impl Strategy<Value = RegionSpec> {
    prop_oneof![
        Just(RegionSpec::Count(2)),
        Just(RegionSpec::Count(4)),
        Just(RegionSpec::Count(8)),
        Just(RegionSpec::Grid([2, 2, 2])),
        Just(RegionSpec::Grid([4, 2, 1])),
        Just(RegionSpec::Grid([1, 2, 4])),
    ]
}

fn mode() -> impl Strategy<Value = ExchangeMode> {
    prop_oneof![Just(ExchangeMode::Faces), Just(ExchangeMode::Full)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn face_packed_matches_host_staged_and_golden(
        spec in spec(),
        mode in mode(),
        nodes in 1usize..=4,
        dpn in 1usize..=2,
        transient in prop_oneof![Just(0.0), Just(0.15)],
        death in prop_oneof![Just(None), (1u64..12).prop_map(Some)],
        seed in 0u64..10_000,
    ) {
        // A device death needs a surviving device to migrate onto.
        let death_at = death.filter(|_| nodes >= 2 || dpn >= 2);
        check(Case { spec, mode, nodes, dpn, transient, death_at, seed });
    }
}

/// The shapes whose ghost edges a covering upload could clobber: the
/// x-rows of a `[2,2,2]` or `[4,2,1]` grid's received faces lie between
/// edge ghosts that, in `Full` mode, the device fill writes.
#[test]
fn grid_shapes_with_edge_ghosts_match_in_every_mode() {
    for spec in [RegionSpec::Grid([2, 2, 2]), RegionSpec::Grid([4, 2, 1])] {
        for mode in [ExchangeMode::Faces, ExchangeMode::Full] {
            for (nodes, dpn) in [(1, 1), (2, 1), (2, 2), (4, 1)] {
                check(Case {
                    spec,
                    mode,
                    nodes,
                    dpn,
                    transient: 0.0,
                    death_at: None,
                    seed: 1,
                });
            }
        }
    }
}

/// Transient H2D/D2H faults retry every kind of copy the plans issue, and
/// a device death mid-run fails over and replays — under both transports,
/// across nodes and between the two devices of one node.
#[test]
fn faults_and_failover_keep_the_transports_equivalent() {
    for death_at in [None, Some(2), Some(5)] {
        check(Case {
            spec: RegionSpec::Count(4),
            mode: ExchangeMode::Faces,
            nodes: 2,
            dpn: 1,
            transient: 0.3,
            death_at,
            seed: 11,
        });
    }
    for (nodes, dpn) in [(3, 2), (1, 2)] {
        let runs = check(Case {
            spec: RegionSpec::Grid([2, 2, 2]),
            mode: ExchangeMode::Full,
            nodes,
            dpn,
            transient: 0.0,
            death_at: Some(3),
            seed: 3,
        });
        for r in runs {
            assert!(r.recoveries >= 1, "the death must fire");
        }
    }
}
