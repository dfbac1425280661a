//! Host-speed reference.
//!
//! The benchmark shares its machine, whose speed drifts in phases seconds
//! long: on a 2-core shared VM, with no steal time, code ran up to 1.5x
//! slower for seconds at a time (contention for caches and cores from
//! neighbours), and different code slowed by different amounts. A fixed
//! reference loop is timed before and after every repetition and, between
//! operations, after every [`PROBE_EVERY_S`] of work inside it; probe time
//! is left out of every timing. Each run estimates how strongly the
//! workload's times follow the reference (the elasticity `e`, see
//! [`elasticity`]) and reports every host-time reading at a nominal host
//! speed: measured time x ([`NOMINAL_S`] / reference time)^e, using the
//! reference time of the stretch between probes the reading falls in. A
//! workload the phases do not touch gets `e` near 0 and keeps its raw
//! times; one that slows with the reference gets `e` near 1. The loop is
//! the benchmark's own code and never changes with the program.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Reference-loop time that defines the nominal host speed (near the
/// loop's median time on that VM).
pub const NOMINAL_S: f64 = 0.009;

/// Work between two probes inside a repetition.
pub const PROBE_EVERY_S: f64 = 0.15;

/// The work between two probes of a repetition.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    /// Host seconds of work (the probes left out).
    pub work_s: f64,
    /// Mean reference time of the probes at its two ends.
    pub reference_s: f64,
    /// Operations that ended in it.
    pub ops: usize,
}

/// Probes of the current repetition.
#[derive(Default)]
struct Probes {
    /// Host time spent in probes so far (left out of every [`Stopwatch`]).
    probe_s: f64,
    /// End of the last probe, and its reference time.
    last: Option<(Instant, f64)>,
    /// Operations since the last probe.
    ops: usize,
    stretches: Vec<Stretch>,
}

thread_local! {
    static PROBES: RefCell<Probes> = RefCell::new(Probes::default());
}

/// Close the stretch since the last probe with a new one.
fn probe() {
    let end = Instant::now();
    let r = reference_s();
    PROBES.with(|p| {
        let mut p = p.borrow_mut();
        p.probe_s += r;
        if let Some((start, prev)) = p.last {
            let stretch = Stretch {
                work_s: (end - start).as_secs_f64(),
                reference_s: (prev + r) / 2.0,
                ops: std::mem::take(&mut p.ops),
            };
            p.stretches.push(stretch);
        }
        p.last = Some((Instant::now(), r));
    });
}

/// Start a repetition: probe.
pub fn begin() {
    PROBES.with(|p| {
        let mut p = p.borrow_mut();
        p.last = None;
        p.ops = 0;
        p.stretches.clear();
    });
    probe();
}

/// End a repetition: probe, and return its stretches in order.
pub fn end() -> Vec<Stretch> {
    probe();
    PROBES.with(|p| std::mem::take(&mut p.borrow_mut().stretches))
}

/// Between two operations of a timed phase: count the operation, and
/// probe once the stretch since the last probe holds [`PROBE_EVERY_S`] of
/// work. Operations that overlap one another (serving jobs) do not call
/// this, so a probe never lands inside a timed operation.
pub fn between_ops() {
    let due = PROBES.with(|p| {
        let mut p = p.borrow_mut();
        p.ops += 1;
        p.last
            .is_some_and(|(t, _)| t.elapsed().as_secs_f64() >= PROBE_EVERY_S)
    });
    if due {
        probe();
    }
}

fn probe_total_s() -> f64 {
    PROBES.with(|p| p.borrow().probe_s)
}

/// Host time since `start`, leaving out the probes taken meanwhile.
pub struct Stopwatch {
    start: Instant,
    probes_before: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
            probes_before: probe_total_s(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - (probe_total_s() - self.probes_before)
    }
}

/// Host seconds of one pass of the fixed reference loop (a few ms).
pub fn reference_s() -> f64 {
    let t = Instant::now();
    // A fixed hasher: the same allocations and probes in every process.
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 1u64;
    for i in 0..200_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let v = map.entry(x % 4096).or_default();
        if v.len() == 16 {
            v.clear();
        }
        v.push(i);
        if i % 7 == 0 {
            map.remove(&((x >> 20) % 4096));
        }
    }
    black_box(&map);
    t.elapsed().as_secs_f64()
}

/// How the noise in an elasticity fit is spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Noise {
    /// Both variables carry noise: repetition times against a reference
    /// timed around the repetition rather than during it. An ordinary
    /// least-squares slope would be biased towards 0, so the fit is the
    /// total-least-squares (orthogonal) slope.
    Both,
    /// The times carry most of it: a short set-up timed right after a
    /// probe. Ordinary least squares; an orthogonal fit would overshoot.
    Times,
}

/// Elasticity of `times` with respect to `refs`: the slope of ln(time)
/// on ln(reference), clamped to [0, 2]. Fewer than three points, or no
/// positive covariance, give 0 (raw times).
pub fn elasticity(times: &[f64], refs: &[f64], noise: Noise) -> f64 {
    let n = times.len();
    if n < 3 || refs.len() != n {
        return 0.0;
    }
    let ly: Vec<f64> = times.iter().map(|t| t.ln()).collect();
    let lx: Vec<f64> = refs.iter().map(|r| r.ln()).collect();
    let (mx, my) = (
        lx.iter().sum::<f64>() / n as f64,
        ly.iter().sum::<f64>() / n as f64,
    );
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    let syy: f64 = ly.iter().map(|y| (y - my) * (y - my)).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxy <= f64::EPSILON {
        return 0.0;
    }
    let slope = match noise {
        Noise::Both => {
            let d = syy - sxx;
            (d + (d * d + 4.0 * sxy * sxy).sqrt()) / (2.0 * sxy)
        }
        Noise::Times => sxy / sxx,
    };
    slope.clamp(0.0, 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elasticity_recovers_power_law() {
        let refs = [0.007, 0.008, 0.009, 0.010, 0.011];
        let times: Vec<f64> = refs.iter().map(|r: &f64| 3.0 * r.powf(0.6)).collect();
        for noise in [Noise::Both, Noise::Times] {
            assert!((elasticity(&times, &refs, noise) - 0.6).abs() < 1e-9);
            assert_eq!(elasticity(&[1.0, 1.0, 1.0], &refs[..3], noise), 0.0);
            assert_eq!(elasticity(&[1.0, 2.0], &refs[..2], noise), 0.0);
            assert_eq!(elasticity(&[1.0, 1.0, 1.0], &[0.01; 3], noise), 0.0);
        }
    }
}
