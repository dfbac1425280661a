//! Part-dirty write-backs: a slot dirty only in its valid box or only in
//! its ghost shell sends just that part home. Randomised backed heat runs
//! — slot budget, eviction policy, lookahead, write-back policy, fused
//! depth, with host probes, drains and checkpoint/restore interleaved —
//! must stay bitwise golden and hazard-free, and between them must
//! exercise both partial kinds.

use kernels::{heat, init};
use std::sync::Arc;
use tida::{
    tiles_of, Decomposition, Domain, ExchangeMode, Layout, RegionSpec, TileArray, TileSpec,
};
use tida_acc::{AccOptions, ArrayId, SlotPolicy, TileAcc, WritebackPolicy};

const N: i64 = 8;
const REGIONS: usize = 4;

/// SplitMix64: a self-contained deterministic case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Case {
    slots: usize,
    policy: SlotPolicy,
    lookahead: usize,
    writeback: WritebackPolicy,
    depth: usize,
    seed: u64,
}

impl Case {
    fn draw(rng: &mut Rng) -> Case {
        Case {
            slots: 1 + rng.below(8),
            policy: [
                SlotPolicy::StaticInterleaved,
                SlotPolicy::Lru,
                SlotPolicy::ReuseDistance,
            ][rng.below(3)],
            lookahead: rng.below(4),
            writeback: [WritebackPolicy::Always, WritebackPolicy::DirtyOnly][rng.below(2)],
            depth: 1 + rng.below(2),
            seed: rng.next() % 1000,
        }
    }
}

/// Per-case outcome: part-dirty write-backs by kind.
struct Outcome {
    valid_only: u64,
    shell_only: u64,
}

fn run(case: Case, rng: &mut Rng) -> Outcome {
    let decomp = Arc::new(Decomposition::new(
        Domain::periodic_cube(N),
        RegionSpec::Count(REGIONS),
    ));
    // Ghost 2 with the full exchange lets every case run fused depth 2.
    let ua = TileArray::new(decomp.clone(), 2, ExchangeMode::Full, true);
    let ub = TileArray::new(decomp.clone(), 2, ExchangeMode::Full, true);
    let field = init::hash_field(case.seed);
    ua.fill_valid(&field);
    let mut gpu = gpu_sim::GpuSystem::new(gpu_sim::MachineConfig::k40m());
    gpu.set_hazard_checking(true);
    let opts = AccOptions::paper()
        .with_max_slots(case.slots)
        .with_policy(case.policy)
        .with_lookahead(case.lookahead)
        .with_writeback(case.writeback);
    let mut acc = TileAcc::new(gpu, opts);
    let a = acc.register(&ua);
    let b = acc.register(&ub);
    let tiles = tiles_of(&decomp, TileSpec::RegionSized);
    let array_of = |id: ArrayId| if id == a { &ua } else { &ub };
    let golden = |steps: usize| heat::golden_run(&field, N, steps, heat::DEFAULT_FAC);
    let dense = Layout::new(tida::Box3::cube(N));

    let (mut src, mut dst) = (a, b);
    let mut steps = 0;
    let rounds = 2 + rng.below(4);
    for _ in 0..rounds {
        acc.begin_step().unwrap();
        acc.fill_boundary(src).unwrap();
        for r in 0..REGIONS {
            let valid = ua.region(r).valid;
            acc.compute_fused(
                r,
                dst,
                src,
                case.depth,
                heat::fused_cost(case.depth, &valid),
                "heat",
                |d, s, bx| heat::step_tile(d, s, &bx, heat::DEFAULT_FAC),
            )
            .unwrap();
        }
        steps += case.depth;
        // An odd depth leaves the newest level in dst; an even one in src.
        if case.depth % 2 == 1 {
            std::mem::swap(&mut src, &mut dst);
        }
        // Between rounds: nothing, a host probe of one region (pulled home
        // by a host-mode no-op kernel), a drain, or checkpoint/restore.
        match rng.below(4) {
            0 => {}
            1 => {
                let r = rng.below(REGIONS as u64);
                acc.set_gpu(false);
                acc.compute1(
                    tiles[r],
                    src,
                    gpu_sim::KernelCost::Flops(1.0),
                    "probe",
                    |_, _| {},
                )
                .unwrap();
                acc.set_gpu(true);
                let want = golden(steps);
                let arr = array_of(src);
                for iv in arr.region(r).valid.iter() {
                    let got = arr.value(iv).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        want[dense.offset(iv)].to_bits(),
                        "{case:?}: probe of region {r} at step {steps}, cell {iv}"
                    );
                }
            }
            2 => {
                acc.sync_to_host(src).unwrap();
                let got = array_of(src).to_dense().unwrap();
                assert_eq!(got, golden(steps), "{case:?}: drain at step {steps}");
            }
            _ => {
                let ck = acc.checkpoint(steps as u64).unwrap();
                acc.restore(&ck).unwrap();
            }
        }
    }
    acc.sync_to_host(src).unwrap();
    acc.finish();
    let got = array_of(src).to_dense().unwrap();
    let want = golden(steps);
    let bad = got
        .iter()
        .zip(&want)
        .filter(|(x, g)| x.to_bits() != g.to_bits())
        .count();
    assert_eq!(bad, 0, "{case:?}: {bad} cells differ from golden");
    let stats = acc.stats();
    assert_eq!(stats.hazards, 0, "{case:?}: stream-ordering hazards");
    Outcome {
        valid_only: stats.writebacks_valid_only,
        shell_only: stats.writebacks_shell_only,
    }
}

#[test]
fn part_dirty_writebacks_stay_golden_and_hazard_free() {
    let mut rng = Rng(0x5eed_0018);
    let (mut valid_only, mut shell_only) = (0, 0);
    for _ in 0..48 {
        let case = Case::draw(&mut rng);
        let out = run(case, &mut rng);
        valid_only += out.valid_only;
        shell_only += out.shell_only;
    }
    assert!(valid_only > 0, "no valid-only write-back in any case");
    assert!(shell_only > 0, "no shell-only write-back in any case");
}
