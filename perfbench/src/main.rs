//! One benchmark for the whole TiDA-acc stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process on one thread: an untimed
//! correctness gate, then repetitions of the workload's fixed unit of work
//! until `--seconds` of measurement have passed. Every repetition sets up
//! from scratch (the device cache starts cold, as in every user run), is
//! checked against its golden outputs outside the timed phase, and must
//! reproduce the simulated results of the first repetition exactly.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` spends half the
//! time untraced and half with host-time spans recorded around every call
//! into a layer, and prints the per-layer metrics plus the tracing
//! overhead. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod cluster_heat;
mod modelcheck;
mod ooc_heat;
mod runreport;
mod serving_mix;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// One repetition of a workload's fixed unit of work.
pub struct Rep {
    /// Host seconds of set-up: building the decomposition, arrays,
    /// runtime or checker, up to the first timed call.
    pub setup_s: f64,
    /// Peak resident set size over the repetition (VmHWM), in MB; read on
    /// a phase's first repetition only.
    pub peak_rss_mb: f64,
    /// Host seconds of the timed phase.
    pub run_s: f64,
    /// Host milliseconds of each operation (step, job or schedule).
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    /// Operations that ended in a typed runtime error.
    pub failed: u64,
    pub sim_makespan_ms: f64,
    /// Simulated results and counters that every repetition must repeat
    /// exactly.
    pub model: Vec<(&'static str, u64)>,
    /// Per-layer readings. Counters and simulated times are filled on
    /// every repetition, host-time spans only on traced ones.
    pub layer: BTreeMap<&'static str, f64>,
}

pub trait Workload {
    /// Correctness gate run once before anything is timed.
    fn precheck(&mut self) -> Result<(), String>;
    /// Set up, run the timed phase, then check the outputs untimed. With
    /// `traced`, spans are being recorded.
    fn rep(&mut self, traced: bool) -> Result<Rep, String>;
    /// The workload's own headline metrics (name, value, unit), printed
    /// for reading alongside the shared metric set.
    fn named(&self, e2e: &BTreeMap<&'static str, f64>, first: &Rep) -> Vec<(String, f64, String)>;
}

/// End-to-end metrics printed with `--trace 0`: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("sim_makespan_ms", "sim_ms"),
    ("host_run_s", "s"),
    ("host_op_ms_p50", "ms"),
    ("host_op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed with `--trace 1`: (name, unit). A layer a
/// workload does not use reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tida.setup_ms", "ms"),
    ("core.begin_step_self_ms", "ms"),
    ("core.fill_boundary_self_ms", "ms"),
    ("core.compute_self_ms", "ms"),
    ("core.sync_self_ms", "ms"),
    ("core.loads", "count"),
    ("core.evictions", "count"),
    ("core.writebacks_deferred", "count"),
    ("core.hit_ratio", "ratio"),
    ("core.prefetch_useful_ratio", "ratio"),
    ("kernels.heat_ms", "ms"),
    ("kernels.ns_per_cell", "ns"),
    ("gpu-sim.h2d_busy_ms", "sim_ms"),
    ("gpu-sim.d2h_busy_ms", "sim_ms"),
    ("gpu-sim.compute_busy_ms", "sim_ms"),
    ("gpu-sim.h2d_compute_overlap_ms", "sim_ms"),
    ("gpu-sim.crit_transfer_ms", "sim_ms"),
    ("gpu-sim.crit_kernel_ms", "sim_ms"),
    ("gpu-sim.crit_host_ms", "sim_ms"),
    ("gpu-sim.bytes_h2d", "B"),
    ("gpu-sim.bytes_d2h", "B"),
    ("gpu-sim.integrity_verified", "count"),
    ("gpu-sim.ops_executed", "count"),
    ("gpu-sim.hazards", "count"),
    ("desim.decision_points", "count"),
    ("desim.ns_per_decision", "ns"),
    ("serving.run_rounds_ms", "ms"),
    ("serving.us_per_round", "us"),
    ("serving.sim_job_latency_p50_ms", "sim_ms"),
    ("serving.sim_job_latency_p99_ms", "sim_ms"),
    ("serving.queue_wait_p99_ms", "sim_ms"),
    ("serving.service_p50_ms", "sim_ms"),
    ("serving.retries", "count"),
    ("serving.preemptions", "count"),
    ("serving.shed", "count"),
    ("cluster.step_self_ms", "ms"),
    ("cluster.finish_ms", "ms"),
    ("cluster.bytes_net", "B"),
    ("cluster.bytes_pcie", "B"),
    ("cluster.msgs_inter", "count"),
    ("cluster.net_drops", "count"),
    ("schedcheck.schedules", "count"),
    ("schedcheck.complete", "bool"),
    ("schedcheck.max_decision_points", "count"),
    ("schedcheck.us_per_schedule", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Repetitions and operations the untraced phase runs at least, so
/// medians rest on several samples and the p90 of operation times has at
/// least ten samples beyond it.
const MIN_UNTRACED: (usize, usize) = (3, 100);

/// Interior stretches needed to fit the elasticity on them rather than on
/// whole repetitions.
const MIN_INTERIOR_STRETCHES: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn make(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ooc-heat" => Box::new(ooc_heat::OocHeat::new(seed)),
        "serving-mix" => Box::new(serving_mix::ServingMix::new(seed)),
        "cluster-heat" => Box::new(cluster_heat::ClusterHeat::new(seed)),
        "modelcheck-cluster-ghost" => Box::new(modelcheck::ModelCheck::new(seed)),
        _ => return Err(format!("unknown workload {name:?}")),
    })
}

/// Time `batch` set-ups in one block and keep the last result; returns it
/// with the mean host seconds per set-up. A batch lets a set-up far
/// shorter than the timer's resolution be measured.
pub fn timed_setup<T>(batch: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let t = Instant::now();
    let mut last = setup();
    for _ in 1..batch {
        last = setup();
    }
    (last, t.elapsed().as_secs_f64() / batch.max(1) as f64)
}

/// A repetition with the host speed measured over it (see [`calib`]).
struct Timed {
    rep: Rep,
    stretches: Vec<calib::Stretch>,
}

impl Timed {
    /// Work-weighted mean reference time over the repetition.
    fn reference_s(&self) -> f64 {
        let work: f64 = self.stretches.iter().map(|s| s.work_s).sum();
        let weighted: f64 = self
            .stretches
            .iter()
            .map(|s| s.work_s * s.reference_s)
            .sum();
        weighted / work
    }
}

/// Run repetitions until `budget_s` has passed, at least `min_reps` ran
/// and they made at least `min_ops` operations.
fn phase(
    w: &mut dyn Workload,
    budget_s: f64,
    (min_reps, min_ops): (usize, usize),
    traced: bool,
) -> Result<Vec<Timed>, String> {
    let start = Instant::now();
    let mut reps: Vec<Timed> = Vec::new();
    let mut ops = 0;
    while reps.len() < min_reps || ops < min_ops || start.elapsed().as_secs_f64() < budget_s {
        span::set_enabled(traced);
        // The first repetition's peak, before the benchmark's own records
        // of earlier repetitions add to the resident set.
        let first = reps.is_empty();
        if first {
            stats::reset_peak_rss();
        }
        calib::begin();
        let mut rep = w.rep(traced)?;
        let stretches = calib::end();
        if first {
            rep.peak_rss_mb = stats::peak_rss_mb();
        }
        span::set_enabled(false);
        ops += rep.op_ms.len();
        reps.push(Timed { rep, stretches });
    }
    Ok(reps)
}

/// Whether a metric unit is host time (simulated time is `sim_ms`).
fn is_host_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// Rescale the host-time readings of `t` to the nominal host speed, for a
/// workload whose repetition times follow the reference with elasticity
/// `e` and whose set-up times follow it with `e_setup`. Each operation is
/// rescaled by the stretch it ended in, whole-repetition readings by the
/// work-weighted mean over stretches, the set-up by the first stretch.
fn rescale(t: Timed, e: f64, e_setup: f64) -> Rep {
    let k = |s: &calib::Stretch| (calib::NOMINAL_S / s.reference_s).powf(e);
    let work: f64 = t.stretches.iter().map(|s| s.work_s).sum();
    let k_rep = t.stretches.iter().map(|s| s.work_s * k(s)).sum::<f64>() / work;
    let mut rep = t.rep;
    rep.run_s *= k_rep;
    rep.setup_s *= (calib::NOMINAL_S / t.stretches[0].reference_s).powf(e_setup);
    let mut per_op = t
        .stretches
        .iter()
        .flat_map(|s| std::iter::repeat_n(k(s), s.ops));
    for x in rep.op_ms.iter_mut() {
        *x *= per_op.next().unwrap_or(k_rep);
    }
    for (name, unit) in PER_LAYER {
        if let (true, Some(v)) = (is_host_time(unit), rep.layer.get_mut(name)) {
            *v *= k_rep;
        }
    }
    rep
}

/// Model identity: every repetition must report the simulated results of
/// the first, bit for bit. A host-speed change that alters the model fails
/// here instead of being credited as a speed-up.
fn check_identity(reps: &[&Rep]) -> Result<(), String> {
    let first = reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.model != first.model || r.sim_makespan_ms.to_bits() != first.sim_makespan_ms.to_bits()
        {
            return Err(format!(
                "repetition {i} changed the model: {:?} (makespan {}) != {:?} (makespan {})",
                r.model, r.sim_makespan_ms, first.model, first.sim_makespan_ms
            ));
        }
    }
    Ok(())
}

fn json_metrics(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<String, String> {
    let mut w = make(&args.workload, args.seed)?;
    w.precheck()?;
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = phase(w.as_mut(), untraced_budget, MIN_UNTRACED, false)?;
    let traced = if args.trace {
        phase(w.as_mut(), args.seconds / 2.0, (1, 0), true)?
    } else {
        Vec::new()
    };
    let speeds: Vec<f64> = untraced.iter().map(Timed::reference_s).collect();
    let raw_run_s: Vec<f64> = untraced.iter().map(|t| t.rep.run_s).collect();
    // Fitted on the untraced repetitions only: tracing changes the work.
    // Stretches strictly inside a repetition hold nothing but operations,
    // so where there are enough of them, their time per operation gives a
    // finer fit than whole repetitions.
    let interior: Vec<&calib::Stretch> = untraced
        .iter()
        .filter(|t| t.stretches.len() > 2)
        .flat_map(|t| &t.stretches[1..t.stretches.len() - 1])
        .filter(|s| s.ops > 0)
        .collect();
    let e = if interior.len() >= MIN_INTERIOR_STRETCHES {
        calib::elasticity(
            &interior
                .iter()
                .map(|s| s.work_s / s.ops as f64)
                .collect::<Vec<_>>(),
            &interior.iter().map(|s| s.reference_s).collect::<Vec<_>>(),
            calib::Noise::Both,
        )
    } else {
        calib::elasticity(&raw_run_s, &speeds, calib::Noise::Both)
    };
    let e_setup = calib::elasticity(
        &untraced.iter().map(|t| t.rep.setup_s).collect::<Vec<_>>(),
        &untraced
            .iter()
            .map(|t| t.stretches[0].reference_s)
            .collect::<Vec<_>>(),
        calib::Noise::Times,
    );
    let untraced: Vec<Rep> = untraced
        .into_iter()
        .map(|t| rescale(t, e, e_setup))
        .collect();
    let traced: Vec<Rep> = traced.into_iter().map(|t| rescale(t, e, e_setup)).collect();
    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    check_identity(&all)?;
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();

    let runs = |rs: &[Rep]| stats::median(&rs.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let ops: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.op_ms.iter().copied())
        .collect();
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("sim_makespan_ms", untraced[0].sim_makespan_ms);
    e2e.insert("host_run_s", runs(&untraced));
    e2e.insert("host_op_ms_p50", stats::percentile(&ops, 50.0));
    e2e.insert("host_op_ms_p90", stats::percentile(&ops, 90.0));
    let setups: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
    e2e.insert("setup_s", stats::median(&setups));
    e2e.insert("peak_rss_mb", untraced[0].peak_rss_mb);

    println!(
        "workload {} seed {}: {} untraced + {} traced repetitions, {} operations ({} failed), \
         {} per-operation samples ({} beyond p90)",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        attempted,
        failed,
        ops.len(),
        stats::beyond(ops.len(), 90.0)
    );
    let fmt = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  host seconds per repetition, as measured: {}",
        fmt(&raw_run_s)
    );
    println!(
        "  reference loop ms around each repetition: {} (nominal {}, elasticity {e:.3}, set-up {e_setup:.3})",
        fmt(&speeds.iter().map(|x| x * 1e3).collect::<Vec<_>>()),
        calib::NOMINAL_S * 1e3
    );
    let mut named = w.named(&e2e, &untraced[0]);
    named.push((
        "failed_frac".into(),
        failed as f64 / attempted.max(1) as f64,
        "ratio".into(),
    ));
    for (n, v, u) in named {
        println!("  {n:<34} {v:>16.6} {u}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let xs: Vec<f64> = traced
                .iter()
                .map(|r| r.layer.get(name).copied().unwrap_or(0.0))
                .collect();
            layer.insert(name, stats::median(&xs));
        }
        layer.insert("trace.overhead_frac", runs(&traced) / runs(&untraced) - 1.0);
        PER_LAYER.iter().map(|(n, u)| (*n, layer[n], *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u)| (*n, e2e[n], *u)).collect()
    };
    for (n, v, u) in &metrics {
        println!("  {n:<34} {v:>16.6} {u}");
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: FAILED: {e}",
                args.workload, args.seed
            );
            ExitCode::FAILURE
        }
    }
}
