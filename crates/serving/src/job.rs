//! Job model of the serving layer.
//!
//! A job is a self-contained piece of tenant work: a handful of data
//! regions, seeded deterministically, pushed through a fixed number of
//! elementwise device steps and drained back. The compute is intentionally
//! simple — its value is that the final bytes are a *pure function of the
//! spec* (seed, sizes, step count), independent of scheduling, batching,
//! preemption, platform crashes and co-tenants. That is what lets the
//! isolation suite demand bit-identical results between a solo run, a
//! shared run, and a preempted-then-restored run.

use gpu_sim::SimTime;
use memslab::word_digest;
use tida_acc::AccError;

/// Identifier of an admitted job, unique per runtime instance.
pub type JobId = u64;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a hash to [1, 2): its high 52 bits become the mantissa of a value
/// with exponent 0. Every such value is exactly representable, so the
/// halving steps never drift into subnormals. Bit-identical to
/// `1.0 + (h >> 12) as f64 / 2⁵²`, without the integer-to-float conversion
/// that keeps that form from vectorising.
#[inline(always)]
fn unit_mantissa(h: u64) -> f64 {
    f64::from_bits(0x3ff0_0000_0000_0000 | (h >> 12))
}

/// `out[i] = unit_mantissa(splitmix64(key ^ i))`.
#[inline(always)]
fn seed_portable(key: u64, out: &mut [f64]) {
    for (i, x) in out.iter_mut().enumerate() {
        *x = unit_mantissa(splitmix64(key ^ i as u64));
    }
}

/// [`seed_portable`] compiled for AVX-512, which multiplies 64-bit lanes
/// in one instruction. Against the AVX2 build on an AVX-512 CPU it takes
/// 4% off `serving-mix` host time.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn seed_avx512(key: u64, out: &mut [f64]) {
    seed_portable(key, out)
}

/// [`seed_portable`] compiled for AVX2, for CPUs without AVX-512. AVX2
/// has no 64-bit multiply, but its emulated one still beats the baseline
/// build: with AVX-512 unavailable it takes 5% off `serving-mix` host
/// time, where every job's input is seeded at activation.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn seed_avx2(key: u64, out: &mut [f64]) {
    seed_portable(key, out)
}

/// Fill `out` with the seed stream `key`, on the widest vector build the
/// CPU has; every build writes the same bits.
///
/// The detection order is the one `memslab`'s digest sum uses. The two
/// dispatchers are kept in step by hand; a shared one is left for later
/// (ROADMAP item 4).
fn seed_into(key: u64, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: AVX-512F and AVX-512DQ support was detected at run
            // time.
            return unsafe { seed_avx512(key, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was detected at run time.
            return unsafe { seed_avx2(key, out) };
        }
    }
    seed_portable(key, out)
}

/// What one tenant asks the runtime to do.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owning tenant (quota accounting, fault scoping, isolation).
    pub tenant: u32,
    /// Number of data regions (device buffers) the job works on.
    pub regions: usize,
    /// Elements (f64) per region.
    pub region_len: usize,
    /// Device steps: each applies the same elementwise map to every region.
    pub steps: u64,
    /// Seed of the initial data and the step constant.
    pub seed: u64,
    /// Larger runs first and may preempt smaller ones mid-run.
    pub priority: u32,
    /// Virtual-time deadline; a job still queued (or unfinished) past it is
    /// failed with [`AccError::DeadlineExceeded`].
    pub deadline: Option<SimTime>,
}

impl JobSpec {
    pub fn new(tenant: u32, regions: usize, region_len: usize, steps: u64, seed: u64) -> Self {
        assert!(regions > 0 && region_len > 0, "a job must carry data");
        JobSpec {
            tenant,
            regions,
            region_len,
            steps,
            seed,
            priority: 0,
            deadline: None,
        }
    }

    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Total payload of one full H2D (or D2H) pass.
    pub fn bytes(&self) -> u64 {
        (self.regions * self.region_len * std::mem::size_of::<f64>()) as u64
    }

    /// Initial value of element `i` of region `r` — a deterministic
    /// function of the spec seed, so any party (runtime, golden model,
    /// crash recovery) can rebuild the input bit-identically.
    pub fn seed_value(&self, r: usize, i: usize) -> f64 {
        unit_mantissa(splitmix64(self.region_key(r) ^ i as u64))
    }

    /// Key of region `r`'s seed stream; element `i` hashes `key ^ i`.
    fn region_key(&self, r: usize) -> u64 {
        self.seed ^ ((r as u64) << 32)
    }

    /// The per-step elementwise map. Halving keeps every step exact in
    /// binary floating point; the seeded constant makes different jobs
    /// compute different answers.
    pub fn step_value(&self, x: f64) -> f64 {
        let c = (splitmix64(self.seed ^ 0x5354_4550) >> 12) as f64 / (1u64 << 52) as f64;
        x * 0.5 + c
    }

    /// Fill `out[r]` with region `r`'s initial data.
    pub fn seed_region(&self, r: usize, out: &mut [f64]) {
        seed_into(self.region_key(r), out);
    }

    /// Reference result: the digest a faithful end-to-end run must
    /// produce, computed host-side with no simulator involved.
    pub fn golden_digest(&self) -> u64 {
        let mut region = vec![0.0f64; self.region_len];
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for r in 0..self.regions {
            self.seed_region(r, &mut region);
            for _ in 0..self.steps {
                for x in region.iter_mut() {
                    *x = self.step_value(*x);
                }
            }
            acc = splitmix64(acc ^ word_digest(&region));
        }
        acc
    }

    /// Combine per-region digests the same way [`JobSpec::golden_digest`]
    /// does — used by the executor on the drained device results.
    pub fn combine_digests(region_digests: impl IntoIterator<Item = u64>) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for d in region_digests {
            acc = splitmix64(acc ^ d);
        }
        acc
    }
}

/// Terminal record of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    pub job: JobId,
    pub tenant: u32,
    /// Digest of the drained result data, or the typed failure.
    pub outcome: Result<u64, AccError>,
    /// Virtual time the job entered the admission queue.
    pub submitted: SimTime,
    /// Virtual time the job first reached the device (first dispatch).
    pub started: Option<SimTime>,
    /// Virtual time the job left the runtime (success or failure).
    pub finished: SimTime,
    /// Job-level resubmissions after device-path failures.
    pub retries: u32,
    /// Times the job was evicted mid-run (and later restored).
    pub preemptions: u32,
}

impl JobResult {
    /// Queue + service latency in virtual time.
    pub fn latency(&self) -> SimTime {
        self.finished - self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The map to [1, 2) before the mantissa was written directly: the
    /// reference every seeding build must match bit for bit.
    fn reference_unit(h: u64) -> f64 {
        1.0 + (h >> 12) as f64 / (1u64 << 52) as f64
    }

    #[test]
    fn unit_mantissa_matches_the_reference_at_the_edges() {
        let edges = [
            0,
            1,
            (1 << 12) - 1,
            1 << 12,
            1 << 63,
            u64::MAX >> 1,
            u64::MAX - 0xfff,
            u64::MAX,
        ];
        for h in edges {
            assert_eq!(
                unit_mantissa(h).to_bits(),
                reference_unit(h).to_bits(),
                "h = {h:#x}"
            );
        }
    }

    proptest! {
        /// Every seeding path writes the reference formula's bits: the
        /// dispatched fill, each vector build this CPU can run, the
        /// portable loop and the per-element `seed_value`, across vector
        /// tails (lengths 0..=70) and a long odd region.
        #[test]
        fn prop_seed_paths_agree(
            seed in any::<u64>(),
            r in 0usize..8,
            len in prop_oneof![0usize..=70, Just(4097usize)],
        ) {
            let spec = JobSpec::new(0, r + 1, 1, 0, seed);
            let key = spec.region_key(r);
            let reference: Vec<u64> = (0..len)
                .map(|i| splitmix64(seed ^ ((r as u64) << 32) ^ i as u64))
                .map(|h| reference_unit(h).to_bits())
                .collect();
            let bits = |fill: &dyn Fn(&mut [f64])| {
                let mut out = vec![0.0f64; len];
                fill(&mut out);
                out.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
            };
            let by_element: Vec<u64> =
                (0..len).map(|i| spec.seed_value(r, i).to_bits()).collect();
            prop_assert_eq!(&by_element, &reference);
            prop_assert_eq!(bits(&|out| spec.seed_region(r, out)), reference.clone());
            prop_assert_eq!(bits(&|out| seed_portable(key, out)), reference.clone());
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 support was detected at run time.
                    let avx2 = bits(&|out| unsafe { seed_avx2(key, out) });
                    prop_assert_eq!(avx2, reference.clone());
                }
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                {
                    // SAFETY: AVX-512F and AVX-512DQ support was detected.
                    let avx512 = bits(&|out| unsafe { seed_avx512(key, out) });
                    prop_assert_eq!(avx512, reference.clone());
                }
            }
        }
    }

    #[test]
    fn golden_digest_is_deterministic_and_spec_sensitive() {
        let a = JobSpec::new(0, 2, 64, 4, 42);
        assert_eq!(a.golden_digest(), a.golden_digest());
        assert_ne!(
            a.golden_digest(),
            JobSpec::new(0, 2, 64, 4, 43).golden_digest(),
            "seed changes the answer"
        );
        assert_ne!(
            a.golden_digest(),
            JobSpec::new(0, 2, 64, 5, 42).golden_digest(),
            "step count changes the answer"
        );
        // The tenant is bookkeeping, not data: results depend only on the
        // work, so a tenant's digest can be compared across placements.
        assert_eq!(
            a.golden_digest(),
            JobSpec::new(9, 2, 64, 4, 42).golden_digest()
        );
    }

    #[test]
    fn step_math_is_exact_in_f64() {
        let spec = JobSpec::new(0, 1, 8, 30, 7);
        let mut v = vec![0.0; 8];
        spec.seed_region(0, &mut v);
        // 30 halvings of a [1,2) value stay normal and exact; the digest
        // path never compares approximately, so this must hold.
        for _ in 0..30 {
            for x in v.iter_mut() {
                *x = spec.step_value(*x);
            }
        }
        assert!(v.iter().all(|x| x.is_finite() && *x > 0.0));
    }
}
