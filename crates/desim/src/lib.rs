//! `desim` — a deterministic discrete-event engine.
//!
//! This crate is the timing substrate of the GPU platform simulator
//! (`gpu-sim`): simulated time ([`SimTime`]), capacity-k FIFO engines,
//! dependency-scheduled operations with data-effect callbacks
//! ([`Scheduler`]), and recorded span traces ([`Trace`]).
//!
//! It knows nothing about GPUs; `gpu-sim` maps CUDA-style streams, copy
//! engines and kernels onto these primitives.

mod intern;
mod parallel;
mod scheduler;
mod time;
mod trace;

pub use intern::{intern, intern_fmt, intern_static, Sym};
pub use parallel::ParallelDriver;
pub use scheduler::{
    Bound, Candidate, CriticalStep, Effect, EngineCounters, EngineId, Op, OpId, RawSpan,
    ScheduleOracle, Scheduler, TraceLevel,
};
pub use time::SimTime;
pub use trace::{Span, Trace};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One op as (engine, duration, not_before, deps-as-earlier-indices).
    type ArbOp = (usize, u64, u64, Vec<usize>);

    /// Random op DAGs: every schedule must satisfy the three invariants
    /// (capacity-1 engine exclusivity, dependency order, not_before).
    fn arb_program() -> impl Strategy<Value = (usize, Vec<ArbOp>)> {
        (1usize..4).prop_flat_map(|nengines| {
            let ops = proptest::collection::vec(
                (
                    0usize..nengines,
                    0u64..100,
                    0u64..50,
                    proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
                ),
                1..40,
            )
            .prop_map(move |raw| {
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (e, d, nb, deps))| {
                        let deps: Vec<usize> = if i == 0 {
                            vec![]
                        } else {
                            deps.into_iter().map(|ix| ix.index(i)).collect()
                        };
                        (e, d, nb, deps)
                    })
                    .collect::<Vec<_>>()
            });
            (Just(nengines), ops)
        })
    }

    /// One op of an incremental program: (engine or marker, duration,
    /// not_before, deps as indices into all earlier ops, whether to run
    /// the scheduler up to this op right after submitting it).
    type IncOp = (Option<usize>, u64, u64, Vec<prop::sample::Index>, bool);

    /// Programs submitted incrementally against multi-server engines:
    /// ops are run as they go, so later ops depend on ops that executed
    /// long before (their pending slots long since reused).
    fn arb_incremental() -> impl Strategy<Value = (Vec<usize>, Vec<IncOp>, Vec<u64>)> {
        (
            proptest::collection::vec(1usize..4, 1..4),
            proptest::collection::vec(
                (
                    proptest::option::of(0usize..3),
                    0u64..60,
                    0u64..400,
                    proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
                    any::<bool>(),
                ),
                1..120,
            ),
            proptest::collection::vec(any::<u64>(), 1..16),
        )
    }

    /// Oracle replaying a fixed list of raw picks, cycled, each taken
    /// modulo the candidate count.
    struct Picks {
        raw: Vec<u64>,
        next: usize,
    }

    impl ScheduleOracle for Picks {
        fn choose(&mut self, candidates: &[Candidate<'_>]) -> usize {
            let pick = self.raw[self.next % self.raw.len()];
            self.next += 1;
            (pick % candidates.len() as u64) as usize
        }
    }

    /// Everything a run exposes about its schedule, per op and overall.
    #[derive(Debug, PartialEq)]
    struct Observed {
        times: Vec<(Option<SimTime>, Option<SimTime>)>,
        critical: Vec<(OpId, Sym, SimTime, SimTime, Bound)>,
        decision_points: u64,
        makespan: SimTime,
    }

    fn run_incremental(
        caps: &[usize],
        prog: &[IncOp],
        picks: &[u64],
        level: TraceLevel,
    ) -> (Observed, Scheduler, Vec<OpId>) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut s = Scheduler::new();
        let engines: Vec<EngineId> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| s.add_engine(format!("e{i}"), c))
            .collect();
        s.set_trace_level(level);
        s.set_oracle(Some(Rc::new(RefCell::new(Picks {
            raw: picks.to_vec(),
            next: 0,
        }))));
        let mut ids: Vec<OpId> = Vec::new();
        for (i, (engine, d, nb, deps, run)) in prog.iter().enumerate() {
            let op = match engine {
                Some(e) => Op::on(engines[e % engines.len()], SimTime::from_ns(*d)),
                None => Op::marker(),
            };
            let deps = deps.iter().filter(|_| i > 0).map(|ix| ids[ix.index(i)]);
            let op = op
                .not_before(SimTime::from_ns(*nb))
                .after_all(deps)
                .label(format!("op{}", i % 7))
                .touches(i as u64 % 5, i % 3 == 0);
            let id = s.submit(op);
            ids.push(id);
            if *run {
                s.run_until(id);
            }
        }
        let makespan = s.run_all();
        let observed = Observed {
            times: ids
                .iter()
                .map(|&i| (s.start_of(i), s.completion(i)))
                .collect(),
            critical: s
                .critical_path()
                .into_iter()
                .map(|c| (c.op, c.label, c.start, c.end, c.bound))
                .collect(),
            decision_points: s.decision_points(),
            makespan,
        };
        (observed, s, ids)
    }

    proptest! {
        #[test]
        fn prop_schedule_invariants((nengines, prog) in arb_program()) {
            let mut s = Scheduler::new();
            let engines: Vec<EngineId> = (0..nengines).map(|i| s.add_engine(format!("e{i}"), 1)).collect();
            s.set_tracing(true);
            let mut ids: Vec<OpId> = Vec::new();
            for (e, d, nb, deps) in &prog {
                let op = Op::on(engines[*e], SimTime::from_ns(*d))
                    .not_before(SimTime::from_ns(*nb))
                    .after_all(deps.iter().map(|&i| ids[i]));
                ids.push(s.submit(op));
            }
            let makespan = s.run_all();

            // 1. deps respected + not_before respected
            for (i, (_, _, nb, deps)) in prog.iter().enumerate() {
                let start = s.start_of(ids[i]).unwrap();
                prop_assert!(start >= SimTime::from_ns(*nb));
                for &d in deps {
                    prop_assert!(s.completion(ids[d]).unwrap() <= start);
                }
            }
            // 2. capacity-1 engines never overlap
            let trace = s.trace();
            for e in 0..nengines {
                let spans = trace.spans_of(e);
                for w in spans.windows(2) {
                    prop_assert!(w[0].end <= w[1].start,
                        "engine {e} overlap: {:?}..{:?} then {:?}..{:?}",
                        w[0].start, w[0].end, w[1].start, w[1].end);
                }
            }
            // 3. makespan bounds: at least the longest op, at most sum + max not_before
            let total: u64 = prog.iter().map(|(_, d, _, _)| d).sum();
            let max_nb: u64 = prog.iter().map(|(_, _, nb, _)| *nb).max().unwrap_or(0);
            prop_assert!(makespan.as_ns() <= total + max_nb);
            let longest: u64 = prog.iter().map(|(_, d, _, _)| *d).max().unwrap_or(0);
            prop_assert!(makespan.as_ns() >= longest);

            // 4. the critical path is time-contiguous, ends at the makespan,
            //    and terminates at a host-bound op.
            let path = s.critical_path();
            prop_assert!(!path.is_empty());
            prop_assert_eq!(path[0].end, makespan);
            for w in path.windows(2) {
                // Dependency/Engine bounds abut exactly; HostAfter may leave
                // a gap covered by host-side time.
                match w[0].bound {
                    Bound::HostAfter(_) => prop_assert!(w[0].start >= w[1].end),
                    _ => prop_assert_eq!(w[0].start, w[1].end, "critical path has a gap"),
                }
            }
            prop_assert!(matches!(path.last().unwrap().bound, Bound::Host));
        }

        /// Recycling pending-op state keeps the history exact: with
        /// multi-server engines, deps on long-executed ops and random
        /// oracle choices, every trace level reports the same schedule,
        /// and the Full run's spans agree with it op by op.
        #[test]
        fn prop_trace_levels_agree_on_recycled_history(
            (caps, prog, picks) in arb_incremental()
        ) {
            let (full, sched, ids) = run_incremental(&caps, &prog, &picks, TraceLevel::Full);
            let (off, off_sched, _) = run_incremental(&caps, &prog, &picks, TraceLevel::Off);
            let (counters, counters_sched, _) =
                run_incremental(&caps, &prog, &picks, TraceLevel::Counters);
            prop_assert_eq!(&off, &full);
            prop_assert_eq!(&counters, &full);
            prop_assert!(off_sched.engine_counters().iter().all(|c| *c == EngineCounters::default()));
            prop_assert_eq!(counters_sched.engine_counters(), sched.engine_counters());
            prop_assert_eq!(sched.executed(), ids.len());

            // Every engine op left exactly one span, matching its record.
            let spans = sched.raw_spans();
            let engine_ops = prog.iter().filter(|(e, ..)| e.is_some()).count();
            prop_assert_eq!(spans.len(), engine_ops);
            let mut tally = vec![EngineCounters::default(); caps.len()];
            for sp in spans {
                let op = OpId(sp.seq as usize);
                prop_assert_eq!(sched.start_of(op), Some(sp.start));
                prop_assert_eq!(sched.completion(op), Some(sp.end));
                prop_assert!((sp.server as usize) < caps[sp.engine as usize]);
                tally[sp.engine as usize].ops += 1;
                tally[sp.engine as usize].busy_ns += (sp.end - sp.start).as_ns();
            }
            prop_assert_eq!(&tally[..], sched.engine_counters());
            // Dependencies, however old, still order their dependents.
            for (i, (_, _, nb, deps, _)) in prog.iter().enumerate() {
                let start = sched.start_of(ids[i]).unwrap();
                prop_assert!(start >= SimTime::from_ns(*nb));
                for ix in deps.iter().filter(|_| i > 0) {
                    prop_assert!(sched.completion(ids[ix.index(i)]).unwrap() <= start);
                }
            }
            prop_assert_eq!(full.critical.first().map(|c| c.3), Some(full.makespan));
        }

        /// The scheduler is deterministic: same program, same schedule.
        #[test]
        fn prop_deterministic((nengines, prog) in arb_program()) {
            let run = || {
                let mut s = Scheduler::new();
                let engines: Vec<EngineId> = (0..nengines).map(|i| s.add_engine(format!("e{i}"), 1)).collect();
                let mut ids: Vec<OpId> = Vec::new();
                for (e, d, nb, deps) in &prog {
                    let op = Op::on(engines[*e], SimTime::from_ns(*d))
                        .not_before(SimTime::from_ns(*nb))
                        .after_all(deps.iter().map(|&i| ids[i]));
                    ids.push(s.submit(op));
                }
                s.run_all();
                ids.iter().map(|&i| (s.start_of(i).unwrap(), s.completion(i).unwrap())).collect::<Vec<_>>()
            };
            prop_assert_eq!(run(), run());
        }
    }
}
