//! `schedcheck` — the schedule-space checking lane runner.
//!
//! Drives the model checker's three tiers over the standard program suite
//! and emits a machine-readable summary plus, on failure, a replayable
//! counterexample file for CI to upload as an artifact.
//!
//! ```text
//! cargo run --release -p tida-bench --bin schedcheck -- --tier main --json OUT.json
//! cargo run --release -p tida-bench --bin schedcheck -- --tier nightly --artifact-dir artifacts/
//! ```
//!
//! * `--tier main` — exhaustive DFS on the small fixed programs; the whole
//!   lane is budgeted to finish well under a minute so it rides in the
//!   push/PR pipeline.
//! * `--tier nightly` — sleep-set DPOR on the full heat step program plus
//!   seeded random walks at paper scale (more steps, transient faults,
//!   mid-step restore), for the scheduled lane.
//!
//! Exit status 1 on any schedule-dependent divergence; the counterexample
//! render (forced vector + interleaving) is printed and, with
//! `--artifact-dir`, written to `schedcheck-counterexample-<name>.txt`.

use schedcheck::programs::{self, ClusterHeatConfig, FusedConfig, HeatConfig};
use schedcheck::{CheckSpec, Checker, Program, Report, Strategy};
use serde::Serialize;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

struct Lane {
    name: &'static str,
    strategy: Strategy,
    program: Program,
}

/// One lane's result in the JSON summary.
#[derive(Serialize)]
struct LaneSummary {
    lane: &'static str,
    schedules: u64,
    complete: bool,
    max_decision_points: usize,
    elapsed_s: f64,
    /// Exploration throughput — the number the simulator hot-path overhaul
    /// moved; CI logs carry it so budget headroom stays visible.
    schedules_per_sec: f64,
    failed: bool,
    forced: Option<Vec<usize>>,
    reason: Option<String>,
}

#[derive(Serialize)]
struct TierSummary {
    tier: String,
    lanes: Vec<LaneSummary>,
}

fn main_tier() -> Vec<Lane> {
    vec![
        Lane {
            name: "ghost-exchange-exhaustive",
            strategy: Strategy::Exhaustive {
                max_schedules: 1000,
            },
            program: programs::ghost_exchange(),
        },
        Lane {
            name: "synchronised-ghost-exhaustive",
            strategy: Strategy::Exhaustive {
                max_schedules: 2000,
            },
            program: programs::racy_ghost(false),
        },
        Lane {
            name: "heat-small-dpor",
            strategy: Strategy::Dpor { max_schedules: 12 },
            program: programs::heat_overlap(HeatConfig::default()),
        },
        Lane {
            name: "heat-fused-small-dpor",
            strategy: Strategy::Dpor { max_schedules: 12 },
            program: programs::heat_fused(FusedConfig::default()),
        },
        // Cluster skeleton: exhaustive over the two-node, three-region
        // ghost exchange — 24310 = C(17,8) interleavings of the two
        // per-node op chains, network deliveries included — staged
        // through the host, then face-packed (2600 schedules).
        Lane {
            name: "cluster-ghost-exhaustive",
            strategy: Strategy::Exhaustive {
                max_schedules: 30_000,
            },
            program: programs::cluster_ghost(),
        },
        Lane {
            name: "cluster-ghost-face-packed-exhaustive",
            strategy: Strategy::Exhaustive {
                max_schedules: 30_000,
            },
            program: programs::cluster_ghost_face_packed(),
        },
        Lane {
            name: "cluster-heat-small-dpor",
            strategy: Strategy::Dpor { max_schedules: 12 },
            program: programs::cluster_heat(ClusterHeatConfig::default()),
        },
    ]
}

/// Nightly budgets after the simulator hot-path overhaul: the same
/// wall-clock that used to buy 120 DPOR schedules now buys several times
/// more (the lane JSON's `schedules_per_sec` keeps the ratio visible), so
/// every budget below was raised ~4x over the pre-overhaul numbers
/// (120/60/48/32).
fn nightly_tier() -> Vec<Lane> {
    vec![
        Lane {
            name: "heat-dpor",
            strategy: Strategy::Dpor { max_schedules: 500 },
            program: programs::heat_overlap(HeatConfig::default()),
        },
        Lane {
            name: "heat-restore-dpor",
            strategy: Strategy::Dpor { max_schedules: 250 },
            program: programs::heat_overlap(HeatConfig {
                restore_mid_step: Some(3),
                ..HeatConfig::default()
            }),
        },
        Lane {
            name: "heat-paper-scale-walk",
            strategy: Strategy::RandomWalk {
                seed: 0x00C0_FFEE,
                budget: 200,
            },
            program: programs::heat_overlap(HeatConfig {
                steps: 10,
                ..HeatConfig::default()
            }),
        },
        Lane {
            name: "heat-faulty-walk",
            strategy: Strategy::RandomWalk {
                seed: 0xDEC0_DE00,
                budget: 128,
            },
            program: programs::heat_overlap(HeatConfig {
                steps: 8,
                transient_rate: 0.25,
                ..HeatConfig::default()
            }),
        },
        Lane {
            name: "heat-fused-dpor",
            strategy: Strategy::Dpor { max_schedules: 250 },
            program: programs::heat_fused(FusedConfig {
                depth: 2,
                steps: 8,
                ..FusedConfig::default()
            }),
        },
        Lane {
            name: "cluster-ghost-dpor",
            strategy: Strategy::Dpor {
                max_schedules: 30_000,
            },
            program: programs::cluster_ghost(),
        },
        Lane {
            name: "cluster-heat-dpor",
            strategy: Strategy::Dpor { max_schedules: 250 },
            program: programs::cluster_heat(ClusterHeatConfig::default()),
        },
    ]
    .into_iter()
    .chain(fused_sweep_lanes())
    .chain(cluster_sweep_lanes())
    .collect()
}

/// The nightly cluster soak: seeded random walks over the multi-step
/// cluster heat program across node counts and fabric fault classes —
/// every sampled interleaving of stream ops and (possibly retransmitted)
/// message deliveries must stay bit-identical to the FIFO golden.
fn cluster_sweep_lanes() -> Vec<Lane> {
    let grid: [(usize, f64, &'static str); 6] = [
        (2, 0.0, "cluster-n2-clean-walk"),
        (3, 0.0, "cluster-n3-clean-walk"),
        (4, 0.0, "cluster-n4-clean-walk"),
        (2, 0.3, "cluster-n2-lossy-walk"),
        (3, 0.3, "cluster-n3-lossy-walk"),
        (4, 0.3, "cluster-n4-lossy-walk"),
    ];
    grid.into_iter()
        .map(|(nodes, drop_rate, name)| Lane {
            name,
            strategy: Strategy::RandomWalk {
                seed: 0xC1_0D00 ^ (nodes as u64) << 8 ^ (drop_rate * 10.0) as u64,
                budget: 48,
            },
            program: programs::cluster_heat(ClusterHeatConfig {
                nodes,
                drop_rate,
                ..ClusterHeatConfig::default()
            }),
        })
        .collect()
}

/// The nightly k-sweep: seeded random walks over the fused step program at
/// every depth the 16³/2-region decomposition supports. Each depth shapes
/// the exchange (halo width), the per-launch work, and the schedule space
/// differently; all must stay bit-identical to the FIFO golden.
fn fused_sweep_lanes() -> Vec<Lane> {
    let depths: [(usize, &'static str); 4] = [
        (1, "heat-fused-k1-walk"),
        (2, "heat-fused-k2-walk"),
        (4, "heat-fused-k4-walk"),
        (8, "heat-fused-k8-walk"),
    ];
    depths
        .into_iter()
        .map(|(depth, name)| Lane {
            name,
            strategy: Strategy::RandomWalk {
                seed: 0xF0_5ED0 ^ depth as u64,
                budget: 64,
            },
            program: programs::heat_fused(FusedConfig {
                depth,
                steps: 8,
                ..FusedConfig::default()
            }),
        })
        .collect()
}

fn run_lane(lane: Lane, artifact_dir: Option<&str>) -> (LaneSummary, bool) {
    let start = std::time::Instant::now();
    let checker = Checker::new(lane.program, CheckSpec::default());
    let Report {
        schedules,
        complete,
        max_decision_points,
        failure,
    } = checker.explore(lane.strategy);
    let elapsed = start.elapsed().as_secs_f64();
    let failed = failure.is_some();

    if let Some(f) = &failure {
        let render = f.render();
        eprintln!("=== {} FAILED ===\n{render}", lane.name);
        if let Some(dir) = artifact_dir {
            let _ = std::fs::create_dir_all(dir);
            let path = format!("{dir}/schedcheck-counterexample-{}.txt", lane.name);
            if let Err(e) = std::fs::write(&path, &render) {
                eprintln!("could not write {path}: {e}");
            } else {
                eprintln!("counterexample written to {path}");
            }
        }
    }

    let schedules_per_sec = schedules as f64 / elapsed.max(1e-9);
    let summary = LaneSummary {
        lane: lane.name,
        schedules,
        complete,
        max_decision_points,
        elapsed_s: elapsed,
        schedules_per_sec,
        failed,
        forced: failure.as_ref().map(|f| f.forced.clone()),
        reason: failure.as_ref().map(|f| f.reason.clone()),
    };
    println!(
        "{:<32} {:>5} schedules{} | {:>4} decision points | {:.2}s ({:.0}/s) | {}",
        lane.name,
        schedules,
        if complete { " (complete)" } else { "" },
        max_decision_points,
        elapsed,
        schedules_per_sec,
        if failed { "FAIL" } else { "ok" },
    );
    (summary, failed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tier = flag_value(&args, "--tier").unwrap_or_else(|| "main".into());
    let artifact_dir = flag_value(&args, "--artifact-dir");
    let json_path = flag_value(&args, "--json");

    let lanes = match tier.as_str() {
        "main" => main_tier(),
        "nightly" => nightly_tier(),
        other => {
            eprintln!("unknown tier {other:?} (use main|nightly)");
            std::process::exit(2);
        }
    };

    let mut summaries = Vec::new();
    let mut any_failed = false;
    for lane in lanes {
        let (summary, failed) = run_lane(lane, artifact_dir.as_deref());
        summaries.push(summary);
        any_failed |= failed;
    }

    let doc = TierSummary {
        tier,
        lanes: summaries,
    };
    if let Some(path) = json_path {
        let text = serde_json::to_string_pretty(&doc).expect("summary serializes");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("summary written to {path}");
    }

    if any_failed {
        std::process::exit(1);
    }
}
