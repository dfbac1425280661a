//! `modelcheck-cluster-ghost`: exhaustive DFS of
//! `schedcheck::programs::cluster_ghost()` to a complete verdict — every
//! one of its 24310 schedules golden and hazard-free. Schedule
//! exploration and per-schedule `Cluster` construction dominate here.
//!
//! The program is fixed (its input field is built inside it), so the
//! seed does not change this workload.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use schedcheck::{programs, CheckSpec, Checker, Program, Strategy};

use crate::{calib, span, timed_setup, Rep, Workload};

/// C(17,8) interleavings of the two per-node op chains.
const SCHEDULES: u64 = 24_310;
/// Set-ups timed as one block: building a checker takes well under a
/// microsecond, close to the timer's resolution.
const SETUP_BATCH: usize = 1000;

pub struct ModelCheck;

impl ModelCheck {
    pub fn new(_seed: u64) -> Self {
        ModelCheck
    }
}

/// What the benchmark observes of one explored schedule.
struct Sample {
    host_ms: f64,
    makespan_ns: u64,
    decisions: u64,
}

/// `cluster_ghost()` with a span and a sample around every schedule run.
fn observed(samples: Rc<RefCell<Vec<Sample>>>) -> Program {
    let inner = programs::cluster_ghost();
    Box::new(move |oracle| {
        let t = Instant::now();
        let out = span::time("schedcheck.program", || inner(Rc::clone(&oracle)));
        samples.borrow_mut().push(Sample {
            host_ms: t.elapsed().as_secs_f64() * 1e3,
            makespan_ns: out.makespan.as_ns(),
            decisions: oracle.borrow().log.len() as u64,
        });
        calib::between_ops();
        out
    })
}

impl Workload for ModelCheck {
    fn precheck(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn rep(&mut self, _traced: bool) -> Result<Rep, String> {
        let samples = Rc::new(RefCell::new(Vec::with_capacity(SCHEDULES as usize)));
        let (checker, setup_s) = timed_setup(SETUP_BATCH, || {
            Checker::new(observed(Rc::clone(&samples)), CheckSpec::default())
        });

        let t_run = calib::Stopwatch::start();
        let report = span::time("schedcheck.explore", || {
            checker.explore(Strategy::Exhaustive {
                max_schedules: 2 * SCHEDULES,
            })
        });
        let run_s = t_run.elapsed_s();

        // Untimed: the verdict must be complete and all-green.
        if let Some(f) = &report.failure {
            return Err(format!("schedule violated the spec:\n{}", f.render()));
        }
        if !report.complete || report.schedules != SCHEDULES {
            return Err(format!(
                "expected a complete verdict over {SCHEDULES} schedules, got {} (complete: {})",
                report.schedules, report.complete
            ));
        }
        let samples = samples.take();
        let golden_makespan = samples.first().map_or(0, |s| s.makespan_ns);
        let decisions: u64 = samples.iter().map(|s| s.decisions).sum();
        let makespan_sum: u64 = samples.iter().map(|s| s.makespan_ns).sum();

        let mut layer = BTreeMap::new();
        layer.insert("schedcheck.schedules", report.schedules as f64);
        layer.insert("schedcheck.complete", f64::from(u8::from(report.complete)));
        layer.insert(
            "schedcheck.max_decision_points",
            report.max_decision_points as f64,
        );
        layer.insert(
            "schedcheck.us_per_schedule",
            run_s * 1e6 / report.schedules as f64,
        );
        layer.insert("desim.decision_points", decisions as f64);
        layer.insert(
            "desim.ns_per_decision",
            run_s * 1e9 / decisions.max(1) as f64,
        );
        Ok(Rep {
            setup_s,
            peak_rss_mb: 0.0,
            run_s,
            op_ms: samples.iter().map(|s| s.host_ms).collect(),
            attempted: report.schedules,
            failed: 0,
            sim_makespan_ms: golden_makespan as f64 / 1e6,
            model: vec![
                ("schedules", report.schedules),
                ("max_decision_points", report.max_decision_points as u64),
                ("decision_points", decisions),
                ("makespan_sum_ns", makespan_sum),
            ],
            layer,
        })
    }

    fn named(&self, e2e: &BTreeMap<&'static str, f64>, first: &Rep) -> Vec<(String, f64, String)> {
        vec![
            (
                "sim_makespan_ms (golden schedule)".into(),
                first.sim_makespan_ms,
                "sim_ms".into(),
            ),
            ("host_verdict_s".into(), e2e["host_run_s"], "s".into()),
        ]
    }
}
