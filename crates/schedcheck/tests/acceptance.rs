//! The model checker's acceptance criteria: exhaustive enumeration counts,
//! DPOR pruning, bug detection with minimal counterexamples, and
//! schedule-invariance of the full TileAcc heat step program.

use schedcheck::programs::{self, FusedConfig, HeatConfig};
use schedcheck::{CheckSpec, Checker, Fallback, Strategy};

/// Two independent 3-op chains sharing the h2d/compute/d2h engines have
/// exactly C(6,3) = 20 linearizations; exhaustive DFS must visit each one
/// exactly once and declare the walk complete.
#[test]
fn exhaustive_enumerates_ghost_exchange_schedules() {
    let checker = Checker::new(programs::ghost_exchange(), CheckSpec::default());
    let report = checker.explore(Strategy::Exhaustive {
        max_schedules: 1000,
    });
    assert!(report.complete, "budget must not be the reason we stopped");
    assert!(
        report.failure.is_none(),
        "all schedules agree on this program"
    );
    assert_eq!(
        report.schedules, 20,
        "C(6,3) linearizations of two independent 3-chains"
    );
    assert!(report.max_decision_points >= 3);
}

/// Sleep-set DPOR prunes commuting pairs: it must visit strictly fewer
/// schedules than exhaustive DFS on the same program while reaching the
/// same verdict. The floor of 8 is the per-engine admission orders that
/// genuinely matter (2 orders on each of the three shared engines).
#[test]
fn dpor_prunes_but_agrees_with_exhaustive() {
    let dfs = Checker::new(programs::ghost_exchange(), CheckSpec::default()).explore(
        Strategy::Exhaustive {
            max_schedules: 1000,
        },
    );
    let dpor =
        Checker::new(programs::ghost_exchange(), CheckSpec::default()).explore(Strategy::Dpor {
            max_schedules: 1000,
        });
    assert!(dpor.complete);
    assert!(dpor.failure.is_none());
    assert!(
        dpor.schedules < dfs.schedules,
        "DPOR {} must beat DFS {}",
        dpor.schedules,
        dfs.schedules
    );
    assert!(
        dpor.schedules >= 8,
        "cannot prune below the dependent-pair orders: {}",
        dpor.schedules
    );
}

/// The correct (event-synchronised) producer/consumer program passes under
/// every schedule.
#[test]
fn synchronised_ghost_passes_everywhere() {
    let checker = Checker::new(programs::racy_ghost(false), CheckSpec::default());
    let report = checker.explore(Strategy::Dpor {
        max_schedules: 2000,
    });
    assert!(report.complete);
    assert!(
        report.failure.is_none(),
        "{:?}",
        report.failure.map(|f| f.render())
    );
}

/// Dropping the event dependency leaves a latent race: FIFO still orders
/// the upload before the consumer kernel (so the bug ships green), but the
/// explorer finds a schedule that reads stale device memory, and shrinks
/// it to a minimal replayable counterexample.
#[test]
fn seeded_ordering_bug_is_caught_and_shrunk() {
    // The hazard tracker flags the missing dependency statically at enqueue
    // on *every* schedule (defense in depth) — disable that layer so this
    // test proves the dynamic result-divergence path catches it too.
    let spec = CheckSpec {
        check_hazards: false,
        ..CheckSpec::default()
    };
    let checker = Checker::new(programs::racy_ghost(true), spec);

    // Static layer sanity: even the passing FIFO schedule is flagged.
    let fifo = checker.run(&[], Fallback::Fifo);
    assert!(
        fifo.hazards > 0,
        "hazard tracker must flag the dropped dependency"
    );

    let report = checker.explore(Strategy::Exhaustive {
        max_schedules: 2000,
    });
    let failure = report.failure.expect("the race must be found");
    assert!(
        failure.reason.contains("digest"),
        "caught by result divergence: {}",
        failure.reason
    );

    // Minimality: the shrunk counterexample is a short forced vector over a
    // small program — at most 10 executed ops in the replayed trace.
    assert!(
        failure.trace.spans.len() <= 10,
        "counterexample must stay minimal: {} spans",
        failure.trace.spans.len()
    );
    assert!(!failure.forced.is_empty());

    // Replayability: the forced vector alone reproduces the violation.
    let replay = checker.run(&failure.forced, Fallback::Fifo);
    assert_ne!(replay.digest, fifo.digest, "replay must still diverge");

    // Exploration and shrinking ran untraced; the counterexample's trace
    // comes from the traced replay of the shrunk vector.
    assert!(
        !failure.trace.spans.is_empty(),
        "the counterexample must carry its replayed trace"
    );

    // And the render carries the pieces a human needs, naming ops by
    // their label strings (the log keeps them interned).
    let rendered = failure.render();
    assert!(rendered.contains("replay forced vector"));
    assert!(rendered.contains("interleaving:"));
    assert!(
        rendered.contains("consume(op"),
        "decision points name ops by label:\n{rendered}"
    );
    assert!(
        rendered.contains(" consume ["),
        "the timeline names spans by label:\n{rendered}"
    );

    // DPOR soundness: the racing pair conflicts on the shared buffer, so
    // pruning must not hide the bug.
    let spec = CheckSpec {
        check_hazards: false,
        ..CheckSpec::default()
    };
    let dpor = Checker::new(programs::racy_ghost(true), spec).explore(Strategy::Dpor {
        max_schedules: 2000,
    });
    assert!(
        dpor.failure.is_some(),
        "DPOR must still reach the racy schedule"
    );
}

/// The tentpole invariant: the full out-of-core heat step program (double
/// buffering, ReuseDistance eviction, lookahead-2 prefetch, ghost
/// exchange) is schedule-invariant — every DPOR-explored interleaving
/// produces the analytic golden field bit-identically with zero real
/// hazards, zero integrity findings, and conserved accelerator counters.
#[test]
fn heat_prefetch_schedules_are_invariant_under_dpor() {
    let cfg = HeatConfig::default();
    let checker = Checker::new(programs::heat_overlap(cfg), CheckSpec::default());

    // The FIFO golden run itself must match the analytic solution.
    let fifo = checker.run(&[], Fallback::Fifo);
    assert_eq!(
        fifo.result,
        programs::heat_golden(&cfg),
        "golden run vs analytic field"
    );
    assert_eq!(fifo.hazards, 0);
    let stats = fifo.stats.as_ref().unwrap();
    assert!(
        stats.prefetch_loads > 0,
        "lookahead-2 must actually prefetch"
    );
    // Both part-dirty write-back kinds (pack, gathered copy, unpack) sit
    // in the explored op chain.
    assert!(
        stats.writebacks_valid_only > 0 && stats.writebacks_shell_only > 0,
        "valid-only / shell-only write-backs: {} / {}",
        stats.writebacks_valid_only,
        stats.writebacks_shell_only
    );

    let report = checker.explore(Strategy::Dpor { max_schedules: 40 });
    assert!(
        report.failure.is_none(),
        "schedule-dependent behaviour in heat step:\n{}",
        report.failure.map(|f| f.render()).unwrap_or_default()
    );
    assert!(
        report.schedules >= 10,
        "the walk must actually explore: {}",
        report.schedules
    );
    assert!(
        report.max_decision_points > 0,
        "the program must expose choice points"
    );
}

/// Random-walk tier: transient transfer faults add retry timing as extra
/// choice points; results must stay golden on every sampled schedule.
#[test]
fn heat_with_transient_faults_survives_random_walks() {
    let cfg = HeatConfig {
        transient_rate: 0.25,
        ..HeatConfig::default()
    };
    let checker = Checker::new(programs::heat_overlap(cfg), CheckSpec::default());
    let report = checker.explore(Strategy::RandomWalk {
        seed: 0xC0FFEE,
        budget: 10,
    });
    assert!(
        report.failure.is_none(),
        "faulty-machine schedule divergence:\n{}",
        report.failure.map(|f| f.render()).unwrap_or_default()
    );
    let fifo = checker.run(&[], Fallback::Fifo);
    assert_eq!(fifo.result, programs::heat_golden(&cfg));
}

/// Checkpoint/restore *between* a step's prefetch issue and its kernels,
/// replayed under random schedules: still bit-identical, and prefetch
/// accounting does not double-count across the restore.
#[test]
fn mid_step_restore_is_schedule_invariant() {
    let cfg = HeatConfig {
        restore_mid_step: Some(3),
        ..HeatConfig::default()
    };
    let checker = Checker::new(programs::heat_overlap(cfg), CheckSpec::default());

    let fifo = checker.run(&[], Fallback::Fifo);
    assert_eq!(
        fifo.result,
        programs::heat_golden(&cfg),
        "restore must not change results"
    );
    let stats = fifo.stats.as_ref().unwrap();
    assert_eq!(stats.checkpoints_restored, 1);
    assert!(stats.prefetch_hits <= stats.prefetch_loads);

    // No double counting: the restored run must not issue more prefetch
    // loads than the same program without the mid-step restore plus one
    // step's worth (the replayed step re-learns its plan from scratch).
    let straight = Checker::new(
        programs::heat_overlap(HeatConfig::default()),
        CheckSpec::default(),
    )
    .run(&[], Fallback::Fifo);
    let sstats = straight.stats.as_ref().unwrap();
    assert!(
        stats.prefetch_loads <= sstats.prefetch_loads,
        "restore resets the planner; it must not inflate prefetch_loads ({} vs {})",
        stats.prefetch_loads,
        sstats.prefetch_loads
    );

    let report = checker.explore(Strategy::RandomWalk {
        seed: 0xBADD_CAFE,
        budget: 8,
    });
    assert!(
        report.failure.is_none(),
        "mid-flight restore schedule divergence:\n{}",
        report.failure.map(|f| f.render()).unwrap_or_default()
    );
}

/// The fused (temporal-blocking) step program at every supported depth:
/// FIFO must reproduce the analytic golden field bit-for-bit, with the
/// fused-launch counters conserved, and DPOR must find every sampled
/// interleaving schedule-invariant.
#[test]
fn fused_steps_are_schedule_invariant_at_every_depth() {
    for depth in [1usize, 2, 4, 8] {
        let cfg = FusedConfig {
            depth,
            steps: 8,
            ..FusedConfig::default()
        };
        let checker = Checker::new(programs::heat_fused(cfg), CheckSpec::default());

        let fifo = checker.run(&[], Fallback::Fifo);
        assert_eq!(
            fifo.result,
            programs::fused_golden(&cfg),
            "fused golden run vs analytic field at depth {depth}"
        );
        assert_eq!(fifo.hazards, 0, "depth {depth}");
        let stats = fifo.stats.as_ref().unwrap();
        if depth >= 2 {
            assert_eq!(
                stats.fused_substeps,
                stats.kernels_fused * depth as u64,
                "fused launch accounting at depth {depth}"
            );
        }

        let report = checker.explore(Strategy::Dpor { max_schedules: 10 });
        assert!(
            report.failure.is_none(),
            "schedule-dependent behaviour in fused step at depth {depth}:\n{}",
            report.failure.map(|f| f.render()).unwrap_or_default()
        );
    }
}

/// Cluster tentpole, part 1 — the network is just another engine: on the
/// two-node ghost-exchange skeleton (3 regions, owners [0,0,1], empty
/// interiors) the op partial order collapses to one chain per node — 9
/// ops on node 0, 8 on node 1, coupled only through message send/arrival
/// edges that FIFO admission cannot reorder — so exhaustive DFS must
/// enumerate exactly C(17,8) = 24310 global linearizations and declare
/// the walk complete, with every one of them agreeing with the FIFO
/// golden (zero hazards, zero integrity findings, identical digest).
#[test]
fn exhaustive_enumerates_cluster_ghost_schedules() {
    let checker = Checker::new(programs::cluster_ghost(), CheckSpec::default());
    let fifo = checker.run(&[], Fallback::Fifo);
    assert_eq!(fifo.hazards, 0, "exchange protocol must be HB-clean");
    assert_eq!(fifo.integrity_detected, 0);

    let report = checker.explore(Strategy::Exhaustive {
        max_schedules: 30_000,
    });
    assert!(report.complete, "budget must not be the reason we stopped");
    assert!(
        report.failure.is_none(),
        "network interleaving divergence:\n{}",
        report.failure.map(|f| f.render()).unwrap_or_default()
    );
    assert_eq!(
        report.schedules, 24_310,
        "C(17,8) interleavings of the two per-node op chains"
    );
    assert!(report.max_decision_points >= 8);
}

/// Cluster tentpole, part 2 — DPOR sees that almost all of those 24310
/// interleavings commute (ops on different nodes touch disjoint memory
/// unless a message edge orders them) and prunes to a tiny fraction,
/// while reaching the same all-green verdict.
#[test]
fn cluster_dpor_prunes_message_orders_but_agrees() {
    let report =
        Checker::new(programs::cluster_ghost(), CheckSpec::default()).explore(Strategy::Dpor {
            max_schedules: 30_000,
        });
    assert!(report.complete);
    assert!(
        report.failure.is_none(),
        "{:?}",
        report.failure.map(|f| f.render())
    );
    assert!(
        report.schedules < 24_310,
        "DPOR must beat the exhaustive count: {}",
        report.schedules
    );
    assert!(
        report.schedules >= 2,
        "message send/arrival pairs are dependent; some orders must remain: {}",
        report.schedules
    );
}

/// The same skeleton over the face-packed transport: node 0 fills the
/// region-0↔1 ghosts on its device, and only the region-1↔2 faces are
/// staged and sent. Exhaustive DFS must enumerate exactly the pinned
/// count, every schedule agreeing with the FIFO golden (which is also
/// the host-staged program's result), and DPOR must prune it.
#[test]
fn exhaustive_enumerates_face_packed_cluster_ghost_schedules() {
    let checker = Checker::new(programs::cluster_ghost_face_packed(), CheckSpec::default());
    let fifo = checker.run(&[], Fallback::Fifo);
    assert_eq!(fifo.hazards, 0, "fills and face copies must be HB-clean");
    assert_eq!(fifo.integrity_detected, 0);
    let staged =
        Checker::new(programs::cluster_ghost(), CheckSpec::default()).run(&[], Fallback::Fifo);
    assert_eq!(
        fifo.result, staged.result,
        "transports must agree bit for bit"
    );

    let report = checker.explore(Strategy::Exhaustive {
        max_schedules: 60_000,
    });
    assert!(report.complete, "budget must not be the reason we stopped");
    assert!(
        report.failure.is_none(),
        "face-packed interleaving divergence:\n{}",
        report.failure.map(|f| f.render()).unwrap_or_default()
    );
    assert_eq!(report.schedules, FACE_PACKED_SCHEDULES);

    let dpor = checker.explore(Strategy::Dpor {
        max_schedules: 60_000,
    });
    assert!(dpor.complete);
    assert!(
        dpor.failure.is_none(),
        "{:?}",
        dpor.failure.map(|f| f.render())
    );
    assert!(
        dpor.schedules < FACE_PACKED_SCHEDULES,
        "DPOR must beat the exhaustive count: {}",
        dpor.schedules
    );
}

/// Exhaustive schedule count of `cluster_ghost_face_packed`.
const FACE_PACKED_SCHEDULES: u64 = 2_600;

/// The full multi-step cluster heat program (periodic 8³, 4 regions over
/// 2 nodes, five-phase exchange each step) is schedule-invariant: every
/// DPOR-explored interleaving of stream ops *and* network deliveries
/// reproduces the analytic golden field bit-identically with zero
/// hazards.
#[test]
fn cluster_heat_schedules_are_invariant_under_dpor() {
    let cfg = programs::ClusterHeatConfig::default();
    let checker = Checker::new(programs::cluster_heat(cfg), CheckSpec::default());

    let fifo = checker.run(&[], Fallback::Fifo);
    assert_eq!(
        fifo.result,
        programs::cluster_heat_golden(&cfg),
        "golden run vs analytic field"
    );
    assert_eq!(fifo.hazards, 0);
    assert_eq!(fifo.integrity_detected, 0);

    let report = checker.explore(Strategy::Dpor { max_schedules: 25 });
    assert!(
        report.failure.is_none(),
        "schedule-dependent behaviour in cluster heat:\n{}",
        report.failure.map(|f| f.render()).unwrap_or_default()
    );
    assert!(
        report.schedules >= 5,
        "the walk must actually explore: {}",
        report.schedules
    );
    assert!(report.max_decision_points > 0);
}

/// Random-walk tier over a lossy fabric: link drops shift deliveries by
/// retransmit timeouts, adding timing-only choice points; the results
/// must stay bit-identical to the clean-fabric golden on every sampled
/// schedule.
#[test]
fn cluster_heat_with_link_drops_survives_random_walks() {
    let cfg = programs::ClusterHeatConfig {
        drop_rate: 0.3,
        ..programs::ClusterHeatConfig::default()
    };
    let checker = Checker::new(programs::cluster_heat(cfg), CheckSpec::default());
    let fifo = checker.run(&[], Fallback::Fifo);
    assert_eq!(
        fifo.result,
        programs::cluster_heat_golden(&cfg),
        "drops may delay ghosts but never change them"
    );
    let report = checker.explore(Strategy::RandomWalk {
        seed: 0xD0_5EED,
        budget: 8,
    });
    assert!(
        report.failure.is_none(),
        "lossy-fabric schedule divergence:\n{}",
        report.failure.map(|f| f.render()).unwrap_or_default()
    );
}
