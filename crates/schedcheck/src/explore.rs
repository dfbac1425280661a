//! The explorer: stateless model checking over oracle choice sequences.
//!
//! A *program* is a closure that builds a fresh simulated system, installs
//! the supplied [`ControlOracle`], runs to completion, and reports a
//! [`RunOutcome`]. The explorer replays the program many times; each replay
//! is identified entirely by the forced choice prefix handed to the oracle
//! (plus its fallback policy), so any run — including a failing one — is
//! replayable from its decision vector alone.

use std::cell::RefCell;
use std::rc::Rc;

use desim::{SimTime, Sym, Trace};
use tida_acc::AccStats;

use crate::control::{ControlOracle, Decision, Fallback, OpSig, XorShift};

/// Everything the checker needs from one completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Final host-visible payload (dense field contents, concatenated).
    pub result: Vec<f64>,
    /// [`fnv_digest`] of `result`; bit-identity is compared on this.
    pub digest: u64,
    /// Total findings from the vector-clock hazard tracker.
    pub hazards: u64,
    /// Detected-corruption count from the transfer integrity book.
    pub integrity_detected: u64,
    /// Accelerator counters, when the program runs through TileAcc/MultiAcc.
    pub stats: Option<AccStats>,
    /// Recorded span trace; empty unless the oracle asked for one (see
    /// [`ControlOracle::tracing`]).
    pub trace: Trace,
    /// The oracle decision log: full candidate sets + chosen indices.
    pub decisions: Vec<Decision>,
    pub makespan: SimTime,
}

/// FNV-style digest over the raw f64 bits, one xor-multiply per 64-bit
/// word: cheap, deterministic, order-sensitive. For a fixed running state
/// each step is a bijection of the word (xor, then multiply by an odd
/// prime), so changing any single element always changes the digest.
pub fn fnv_digest(data: &[f64]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A schedule-controllable program under test. It installs the oracle on
/// the system it builds, records a span trace only when
/// [`ControlOracle::tracing`] asks for one, and leaves the decision log in
/// the oracle (the checker moves it into [`RunOutcome::decisions`]).
pub type Program = Box<dyn Fn(Rc<RefCell<ControlOracle>>) -> RunOutcome>;

/// Which observables must be schedule-invariant.
#[derive(Debug, Clone)]
pub struct CheckSpec {
    /// Final payload must be bit-identical to the golden (FIFO) run.
    pub check_digest: bool,
    /// Vector-clock hazard findings must be zero on every schedule.
    pub check_hazards: bool,
    /// Integrity book must detect zero corruptions on every schedule.
    pub check_integrity: bool,
    /// AccStats conservation invariants must hold (see [`stats_violation`]).
    pub check_stats: bool,
}

impl Default for CheckSpec {
    fn default() -> Self {
        CheckSpec {
            check_digest: true,
            check_hazards: true,
            check_integrity: true,
            check_stats: true,
        }
    }
}

/// Exploration strategy.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Depth-first enumeration of every choice sequence. Only viable for
    /// small programs; `max_schedules` bounds the walk (`complete` reports
    /// whether the bound was hit).
    Exhaustive { max_schedules: u64 },
    /// Same DFS skeleton, pruned with sleep sets: a candidate already tried
    /// at an ancestor decision point is skipped here when it is independent
    /// of every op chosen since (persistent/sleep-set DPOR).
    Dpor { max_schedules: u64 },
    /// Seeded random walks — the fallback tier for programs whose schedule
    /// space is too large to enumerate.
    RandomWalk { seed: u64, budget: u64 },
}

/// A schedule that violated the spec, shrunk and replayable.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Forced choice vector that reproduces the violation.
    pub forced: Vec<usize>,
    pub reason: String,
    /// Decision log of the failing run.
    pub decisions: Vec<Decision>,
    /// Span trace of the failing run, from a traced replay of `forced`.
    pub trace: Trace,
}

impl Failure {
    /// Human-readable counterexample: reason, the replay vector, the
    /// consulted decision points and the resulting engine timeline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("schedule violation: {}\n", self.reason));
        out.push_str(&format!("replay forced vector: {:?}\n", self.forced));
        for (i, d) in self.decisions.iter().enumerate() {
            let cands: Vec<String> = d
                .candidates
                .iter()
                .map(|c| {
                    let name = if c.label == Sym::EMPTY {
                        c.category
                    } else {
                        c.label
                    };
                    format!("{name}(op{})", c.op)
                })
                .collect();
            out.push_str(&format!(
                "  decision {i}: chose {} of [{}]\n",
                d.chosen,
                cands.join(", ")
            ));
        }
        out.push_str("interleaving:\n");
        out.push_str(&self.trace.render_gantt(80));
        out.push('\n');
        for s in &self.trace.spans {
            out.push_str(&format!(
                "  {:>8}..{:<8} {} [{}]\n",
                s.start.as_ns(),
                s.end.as_ns(),
                s.label,
                self.trace
                    .engine_names
                    .get(s.engine)
                    .map(String::as_str)
                    .unwrap_or("?")
            ));
        }
        out
    }
}

/// Result of one exploration.
#[derive(Debug)]
pub struct Report {
    /// Schedules actually executed (including the golden run).
    pub schedules: u64,
    /// True when the strategy finished without hitting its budget
    /// (random walk never claims completeness).
    pub complete: bool,
    /// Most decision points consulted in any single run.
    pub max_decision_points: usize,
    pub failure: Option<Failure>,
}

/// A program plus the invariants its schedules must satisfy.
pub struct Checker {
    program: Program,
    spec: CheckSpec,
}

impl Checker {
    pub fn new(program: Program, spec: CheckSpec) -> Self {
        Checker { program, spec }
    }

    /// Run the program once under the given oracle configuration, traced.
    pub fn run(&self, forced: &[usize], fallback: Fallback) -> RunOutcome {
        self.run_with_sleep(forced, fallback, Vec::new(), true)
    }

    /// One untraced run, as exploration and shrinking use: they compare
    /// outcomes and never look at spans.
    fn run_untraced(&self, forced: &[usize], fallback: Fallback) -> RunOutcome {
        self.run_with_sleep(forced, fallback, Vec::new(), false)
    }

    fn run_with_sleep(
        &self,
        forced: &[usize],
        fallback: Fallback,
        sleep: Vec<OpSig>,
        trace: bool,
    ) -> RunOutcome {
        let oracle = Rc::new(RefCell::new(
            ControlOracle::with_sleep(forced.to_vec(), fallback, sleep).with_tracing(trace),
        ));
        let mut out = (self.program)(Rc::clone(&oracle));
        // Take the log only now that the program has returned: a wrapping
        // program may still read it (say, its length) after the inner
        // program finishes, so no program may take it itself.
        out.decisions = std::mem::take(&mut oracle.borrow_mut().log);
        out
    }

    /// Compare a run against the golden outcome; `Some(reason)` on violation.
    fn violation(&self, golden: &RunOutcome, out: &RunOutcome) -> Option<String> {
        if self.spec.check_digest && out.digest != golden.digest {
            return Some(format!(
                "result diverged: digest {:#018x} != golden {:#018x}",
                out.digest, golden.digest
            ));
        }
        if self.spec.check_hazards && out.hazards != 0 {
            return Some(format!(
                "hazard tracker reported {} finding(s)",
                out.hazards
            ));
        }
        if self.spec.check_integrity && out.integrity_detected != 0 {
            return Some(format!(
                "integrity book detected {} corrupted transfer(s)",
                out.integrity_detected
            ));
        }
        if self.spec.check_stats {
            if let (Some(g), Some(s)) = (&golden.stats, &out.stats) {
                if let Some(r) = stats_violation(g, s) {
                    return Some(r);
                }
            }
        }
        None
    }

    /// Explore the schedule space with the given strategy.
    pub fn explore(&self, strategy: Strategy) -> Report {
        match strategy {
            Strategy::Exhaustive { max_schedules } => self.dfs(max_schedules, false),
            Strategy::Dpor { max_schedules } => self.dfs(max_schedules, true),
            Strategy::RandomWalk { seed, budget } => self.random_walk(seed, budget),
        }
    }

    fn fail(&self, golden: &RunOutcome, forced: Vec<usize>, reason: String) -> Failure {
        self.shrink(golden, forced, reason)
    }

    /// DFS over choice sequences. Each tree node is one consulted decision
    /// point on the current path; `forced = currents` replays the path and
    /// the FIFO fallback extends it deterministically to a leaf.
    fn dfs(&self, max_schedules: u64, dpor: bool) -> Report {
        struct Node {
            cands: Vec<OpSig>,
            current: usize,
            tried: Vec<bool>,
            /// Sleep set on entry: ops proven covered by sibling subtrees.
            sleep_entry: Vec<OpSig>,
        }

        let mut path: Vec<Node> = Vec::new();
        let mut schedules: u64 = 0;
        let mut max_decision_points = 0;
        let mut golden: Option<RunOutcome> = None;
        let mut complete = true;

        // Sleep set a child node inherits from `p`: every op proven covered
        // by an already-explored sibling subtree of `p`'s current choice.
        fn child_sleep(p: &Node) -> Vec<OpSig> {
            let pivot = &p.cands[p.current];
            p.sleep_entry
                .iter()
                .chain(
                    p.cands
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| p.tried[*i] && *i != p.current)
                        .map(|(_, c)| c),
                )
                .filter(|s| s.op != pivot.op && s.independent(pivot))
                .cloned()
                .collect()
        }

        loop {
            if schedules >= max_schedules {
                complete = false;
                break;
            }
            let forced: Vec<usize> = path.iter().map(|n| n.current).collect();
            // Sleep set at the first fallback decision; the oracle carries
            // it along the FIFO tail so redundant subtrees are never entered.
            let tail_sleep: Vec<OpSig> = if dpor {
                path.last().map(child_sleep).unwrap_or_default()
            } else {
                Vec::new()
            };
            let mut out = self.run_with_sleep(&forced, Fallback::Fifo, tail_sleep.clone(), false);
            schedules += 1;
            max_decision_points = max_decision_points.max(out.decisions.len());

            if let Some(g) = &golden {
                if let Some(reason) = self.violation(g, &out) {
                    let forced_full: Vec<usize> = out.decisions.iter().map(|d| d.chosen).collect();
                    return Report {
                        schedules,
                        complete: false,
                        max_decision_points,
                        failure: Some(self.fail(g, forced_full, reason)),
                    };
                }
            }
            let decisions = std::mem::take(&mut out.decisions);
            // The first run is the golden one; nothing reads its decisions.
            golden.get_or_insert(out);

            // Materialise the decision points this run exposed beyond the
            // already-known path, propagating the tail sleep set exactly as
            // the oracle did. New nodes take their candidate lists over
            // from the run's own log.
            let mut sleep_cur = tail_sleep;
            for d in decisions.into_iter().skip(path.len()) {
                let sleep_entry = sleep_cur.clone();
                if dpor {
                    let sig = &d.candidates[d.chosen];
                    sleep_cur.retain(|s| s.op != sig.op && s.independent(sig));
                }
                let n = d.candidates.len();
                let mut tried = vec![false; n];
                tried[d.chosen] = true;
                path.push(Node {
                    cands: d.candidates,
                    current: d.chosen,
                    tried,
                    sleep_entry,
                });
            }

            // Backtrack: advance the deepest node with an untried,
            // non-sleeping alternative.
            let advanced = loop {
                let Some(node) = path.last_mut() else {
                    break false;
                };
                let next = node.tried.iter().enumerate().position(|(i, &t)| {
                    let asleep = dpor && node.sleep_entry.iter().any(|s| s.op == node.cands[i].op);
                    !t && !asleep
                });
                match next {
                    Some(i) => {
                        node.tried[i] = true;
                        node.current = i;
                        break true;
                    }
                    None => {
                        path.pop();
                    }
                }
            };
            if !advanced {
                break;
            }
        }

        Report {
            schedules,
            complete,
            max_decision_points,
            failure: None,
        }
    }

    fn random_walk(&self, seed: u64, budget: u64) -> Report {
        let golden = self.run_untraced(&[], Fallback::Fifo);
        let mut schedules = 1;
        let mut max_decision_points = golden.decisions.len();
        for k in 0..budget {
            let walk_seed = seed
                .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .max(1);
            let out = self.run_untraced(&[], Fallback::Random(XorShift::new(walk_seed)));
            schedules += 1;
            max_decision_points = max_decision_points.max(out.decisions.len());
            if let Some(reason) = self.violation(&golden, &out) {
                let forced: Vec<usize> = out.decisions.iter().map(|d| d.chosen).collect();
                return Report {
                    schedules,
                    complete: false,
                    max_decision_points,
                    failure: Some(self.fail(&golden, forced, reason)),
                };
            }
        }
        Report {
            schedules,
            complete: false,
            max_decision_points,
            failure: None,
        }
    }

    /// Greedy delta-debugging of a failing forced vector: zero out choices
    /// from the tail forward while the violation persists, then drop the
    /// all-FIFO tail. The shrinking runs are untraced; the shrunk vector is
    /// re-run traced to produce the final (still-failing) counterexample.
    fn shrink(&self, golden: &RunOutcome, mut forced: Vec<usize>, reason: String) -> Failure {
        loop {
            let mut changed = false;
            for i in (0..forced.len()).rev() {
                if forced[i] == 0 {
                    continue;
                }
                let saved = forced[i];
                forced[i] = 0;
                let out = self.run_untraced(&forced, Fallback::Fifo);
                if self.violation(golden, &out).is_some() {
                    changed = true;
                } else {
                    forced[i] = saved;
                }
            }
            if !changed {
                break;
            }
        }
        while forced.last() == Some(&0) {
            forced.pop();
        }
        let out = self.run(&forced, Fallback::Fifo);
        let reason = self.violation(golden, &out).unwrap_or(reason);
        Failure {
            forced,
            reason,
            decisions: out.decisions,
            trace: out.trace,
        }
    }
}

/// Conservation invariants over accelerator counters that no legal schedule
/// may break, given a fixed host-side access sequence:
///
/// - total tile acquisitions (`hits + prefetch_hits + loads + write_allocs`)
///   is schedule-invariant;
/// - a prefetch hit requires a prior prefetch load (`prefetch_hits <=
///   prefetch_loads`);
/// - every kernel runs exactly once somewhere (`kernels_gpu + kernels_host`
///   conserved).
pub fn stats_violation(golden: &AccStats, s: &AccStats) -> Option<String> {
    let acq = |st: &AccStats| st.hits + st.prefetch_hits + st.loads + st.write_allocs;
    if acq(s) != acq(golden) {
        return Some(format!(
            "acquisition conservation broken: hits {} + prefetch_hits {} + loads {} + write_allocs {} != golden total {}",
            s.hits, s.prefetch_hits, s.loads, s.write_allocs, acq(golden)
        ));
    }
    if s.prefetch_hits > s.prefetch_loads {
        return Some(format!(
            "prefetch_hits {} exceeds prefetch_loads {}",
            s.prefetch_hits, s.prefetch_loads
        ));
    }
    let kernels = |st: &AccStats| st.kernels_gpu + st.kernels_host;
    if kernels(s) != kernels(golden) {
        return Some(format!(
            "kernel conservation broken: gpu {} + host {} != golden total {}",
            s.kernels_gpu,
            s.kernels_host,
            kernels(golden)
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::fnv_digest;

    const SAMPLE: [f64; 5] = [1.5, -0.0, 3.25e-300, f64::MAX, 7.0];

    #[test]
    fn any_single_bit_flip_changes_the_digest() {
        let base = fnv_digest(&SAMPLE);
        for i in 0..SAMPLE.len() {
            for bit in 0..64 {
                let mut v = SAMPLE;
                v[i] = f64::from_bits(v[i].to_bits() ^ (1 << bit));
                assert_ne!(fnv_digest(&v), base, "element {i}, bit {bit}");
            }
        }
    }

    #[test]
    fn swapping_unequal_elements_changes_the_digest() {
        let base = fnv_digest(&SAMPLE);
        for i in 0..SAMPLE.len() {
            for j in i + 1..SAMPLE.len() {
                let mut v = SAMPLE;
                v.swap(i, j);
                assert_ne!(fnv_digest(&v), base, "swap {i} <-> {j}");
            }
        }
    }
}
