//! Tracing is a recording choice, never a scheduling one: every program in
//! `programs` must make the same decisions and reach the same outcome
//! whether or not the oracle asks it for a span trace. Exploration relies
//! on this, since it runs untraced and only the counterexample replay is
//! traced.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use schedcheck::programs::{self, ClusterHeatConfig, FusedConfig, HeatConfig};
use schedcheck::{
    CheckSpec, Checker, ControlOracle, Fallback, Program, RunOutcome, Strategy, XorShift,
};

/// Every packaged program, with a name for failure messages.
fn all_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("ghost_exchange", programs::ghost_exchange()),
        ("racy_ghost(false)", programs::racy_ghost(false)),
        ("racy_ghost(true)", programs::racy_ghost(true)),
        (
            "heat_overlap",
            programs::heat_overlap(HeatConfig::default()),
        ),
        (
            "heat_overlap(faults, restore)",
            programs::heat_overlap(HeatConfig {
                transient_rate: 0.25,
                restore_mid_step: Some(2),
                ..HeatConfig::default()
            }),
        ),
        ("heat_fused", programs::heat_fused(FusedConfig::default())),
        ("cluster_ghost", programs::cluster_ghost()),
        (
            "cluster_heat",
            programs::cluster_heat(ClusterHeatConfig::default()),
        ),
    ]
}

/// Run `program` once the way the checker does, with the decision log
/// moved out of the oracle after the program returns.
fn run(program: &Program, forced: &[usize], fallback: Fallback, traced: bool) -> RunOutcome {
    let oracle = Rc::new(RefCell::new(
        ControlOracle::new(forced.to_vec(), fallback).with_tracing(traced),
    ));
    let mut out = program(Rc::clone(&oracle));
    out.decisions = std::mem::take(&mut oracle.borrow_mut().log);
    out
}

/// The decision log as plain data: chosen index and candidate op ids.
fn log_of(out: &RunOutcome) -> Vec<(usize, Vec<usize>)> {
    out.decisions
        .iter()
        .map(|d| (d.chosen, d.candidates.iter().map(|c| c.op).collect()))
        .collect()
}

#[test]
fn traced_and_untraced_runs_agree_under_the_same_forced_vector() {
    for (name, program) in all_programs() {
        // A non-FIFO schedule: the choices of one seeded random walk.
        let walk = run(
            &program,
            &[],
            Fallback::Random(XorShift::new(0x5EED)),
            false,
        );
        let forced: Vec<usize> = walk.decisions.iter().map(|d| d.chosen).collect();

        let traced = run(&program, &forced, Fallback::Fifo, true);
        let untraced = run(&program, &forced, Fallback::Fifo, false);

        assert!(
            !traced.decisions.is_empty(),
            "{name}: the program must expose decision points"
        );
        assert_eq!(log_of(&traced), log_of(&untraced), "{name}: decision log");
        assert_eq!(log_of(&traced), log_of(&walk), "{name}: forced replay");
        assert_eq!(traced.digest, untraced.digest, "{name}: digest");
        assert_eq!(traced.makespan, untraced.makespan, "{name}: makespan");
        assert_eq!(traced.hazards, untraced.hazards, "{name}: hazards");

        // The request is honoured both ways.
        assert!(
            !traced.trace.spans.is_empty(),
            "{name}: traced run has spans"
        );
        assert!(
            untraced.trace.spans.is_empty() && untraced.trace.engine_names.is_empty(),
            "{name}: untraced run records no trace"
        );
    }
}

/// Exploration runs untraced, and the exhaustive count does not move.
#[test]
fn exhaustive_exploration_runs_untraced_and_still_counts_twenty() {
    let traced_runs = Rc::new(Cell::new(0u64));
    let runs = Rc::new(Cell::new(0u64));
    let inner = programs::ghost_exchange();
    let (t, n) = (Rc::clone(&traced_runs), Rc::clone(&runs));
    let observed: Program = Box::new(move |oracle| {
        n.set(n.get() + 1);
        if oracle.borrow().tracing() {
            t.set(t.get() + 1);
        }
        inner(oracle)
    });

    let report = Checker::new(observed, CheckSpec::default()).explore(Strategy::Exhaustive {
        max_schedules: 1000,
    });
    assert!(report.complete);
    assert!(report.failure.is_none());
    assert_eq!(report.schedules, 20, "C(6,3) linearizations");
    assert_eq!(runs.get(), 20, "one program run per schedule");
    assert_eq!(traced_runs.get(), 0, "exploration must not ask for traces");
}
