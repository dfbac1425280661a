//! The controllable [`ScheduleOracle`]: forced decision prefixes, FIFO or
//! seeded-random fallback, a full decision log for replay/shrinking, and
//! the run's trace request.

use desim::{Candidate, ScheduleOracle, Sym};

/// xorshift64* — tiny deterministic PRNG so the random-walk tier needs no
/// external crate.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What the oracle does once the forced prefix is exhausted.
#[derive(Debug, Clone)]
pub enum Fallback {
    /// Pick index 0: candidates are sorted (ready, submission), so this is
    /// exactly the deterministic FIFO schedule.
    Fifo,
    /// Seeded random walk over the remaining decision points.
    Random(XorShift),
}

/// Schedule-relevant identity of one runnable op, captured at a decision
/// point. `op` is the scheduler's submission index, which is stable across
/// replays of the same program. Label and category stay interned, so
/// logging a candidate allocates at most its footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSig {
    pub op: usize,
    pub engine: Option<usize>,
    pub label: Sym,
    pub category: Sym,
    pub footprint: Vec<(u64, bool)>,
}

impl OpSig {
    fn from_candidate(c: &Candidate<'_>) -> Self {
        OpSig {
            op: c.op.0,
            engine: c.engine.map(|e| e.0),
            label: c.label,
            category: c.category,
            footprint: c.footprint.to_vec(),
        }
    }

    /// Conservative independence test for DPOR: two ops commute iff swapping
    /// their admission order cannot change any observable outcome.
    ///
    /// - Same engine: dependent. Admission order is service order on a
    ///   capacity-k FIFO engine, so start/end times shift — observable via
    ///   `stream_query` in an adaptive host program.
    /// - Overlapping footprint with a write on either side: dependent (the
    ///   data effects need not commute).
    /// - Otherwise independent: ops on different engines get identical
    ///   start/end times in either admission order, and disjoint (or
    ///   read-only shared) footprints make the effects commute.
    pub fn independent(&self, other: &OpSig) -> bool {
        if let (Some(a), Some(b)) = (self.engine, other.engine) {
            if a == b {
                return false;
            }
        }
        for &(ra, wa) in &self.footprint {
            for &(rb, wb) in &other.footprint {
                if ra == rb && (wa || wb) {
                    return false;
                }
            }
        }
        true
    }
}

/// One consulted decision point: the sorted candidate set and which index
/// was chosen.
#[derive(Debug, Clone)]
pub struct Decision {
    pub chosen: usize,
    pub candidates: Vec<OpSig>,
}

/// A [`ScheduleOracle`] driven by the explorer: decision `i` follows
/// `forced[i]` when present (clamped to the candidate count, so stale forced
/// prefixes from a shrinking pass stay in range), then the fallback policy.
/// Every consulted decision is logged for replay.
///
/// The oracle also carries the explorer's trace request: a program under
/// test reads [`ControlOracle::tracing`] before it runs and records a span
/// trace only when asked. Exploration runs untraced; a counterexample's
/// trace comes from a traced replay of its forced vector.
#[derive(Debug)]
pub struct ControlOracle {
    forced: Vec<usize>,
    fallback: Fallback,
    /// DPOR sleep set, seeded by the explorer for the first fallback
    /// decision and propagated along the tail: a sleeping op is covered by
    /// an already-explored sibling subtree, so the fallback avoids it.
    sleep: Vec<OpSig>,
    /// Whether the program should record a span trace.
    trace: bool,
    pub log: Vec<Decision>,
}

impl ControlOracle {
    /// A traced oracle; see [`ControlOracle::with_tracing`].
    pub fn new(forced: Vec<usize>, fallback: Fallback) -> Self {
        Self::with_sleep(forced, fallback, Vec::new())
    }

    pub fn with_sleep(forced: Vec<usize>, fallback: Fallback, sleep: Vec<OpSig>) -> Self {
        ControlOracle {
            // A replay consults about as many decisions as it forces.
            log: Vec::with_capacity(forced.len()),
            forced,
            fallback,
            sleep,
            trace: true,
        }
    }

    /// Ask the program for a span trace (`true`, the default) or not.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Whether the program should record a span trace. Programs must honour
    /// it: tracing changes what is recorded, never the schedule.
    pub fn tracing(&self) -> bool {
        self.trace
    }
}

impl ScheduleOracle for ControlOracle {
    fn choose(&mut self, candidates: &[Candidate<'_>]) -> usize {
        let i = self.log.len();
        let in_tail = self.forced.get(i).is_none();
        let chosen = match self.forced.get(i) {
            Some(&c) => c.min(candidates.len() - 1),
            None => match &mut self.fallback {
                Fallback::Fifo => {
                    // Prefer the lowest-index (FIFO) candidate that is not
                    // asleep; if all sleep, FIFO is sound (just redundant).
                    candidates
                        .iter()
                        .position(|c| !self.sleep.iter().any(|s| s.op == c.op.0))
                        .unwrap_or(0)
                }
                Fallback::Random(rng) => rng.below(candidates.len()),
            },
        };
        if in_tail && !self.sleep.is_empty() {
            // Propagate: drop the executed op and everything dependent on it.
            let sig = OpSig::from_candidate(&candidates[chosen]);
            self.sleep.retain(|s| s.op != sig.op && s.independent(&sig));
        }
        self.log.push(Decision {
            chosen,
            candidates: candidates.iter().map(OpSig::from_candidate).collect(),
        });
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(op: usize, engine: Option<usize>, fp: &[(u64, bool)]) -> OpSig {
        OpSig {
            op,
            engine,
            label: Sym::EMPTY,
            category: Sym::EMPTY,
            footprint: fp.to_vec(),
        }
    }

    #[test]
    fn same_engine_is_dependent() {
        let a = sig(0, Some(2), &[]);
        let b = sig(1, Some(2), &[]);
        assert!(!a.independent(&b));
    }

    #[test]
    fn different_engines_disjoint_footprints_commute() {
        let a = sig(0, Some(0), &[(1, true)]);
        let b = sig(1, Some(1), &[(2, true)]);
        assert!(a.independent(&b));
        assert!(b.independent(&a));
    }

    #[test]
    fn write_read_conflict_is_dependent() {
        let a = sig(0, Some(0), &[(7, true)]);
        let b = sig(1, Some(1), &[(7, false)]);
        assert!(!a.independent(&b));
        assert!(!b.independent(&a));
    }

    #[test]
    fn shared_reads_commute() {
        let a = sig(0, Some(0), &[(7, false)]);
        let b = sig(1, Some(1), &[(7, false)]);
        assert!(a.independent(&b));
    }

    #[test]
    fn markers_without_conflicts_commute() {
        let a = sig(0, None, &[]);
        let b = sig(1, None, &[]);
        assert!(a.independent(&b));
    }

    #[test]
    fn xorshift_below_is_in_range_and_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            let x = a.below(7);
            assert_eq!(x, b.below(7));
            assert!(x < 7);
        }
    }
}
