//! Cross-implementation conformance suite.
//!
//! The same application programs run through every execution model the
//! repo implements — the TileAcc runtime, the cluster runtime on one node
//! (with one device, and with two devices trading faces peer to peer),
//! and the whole-array CUDA baselines — and must agree:
//!
//! * **results** — bit-identical final grids, all equal to the host-only
//!   analytic solver (not merely close: the simulator executes real f64
//!   arithmetic in a fixed order per implementation, and the tiled order is
//!   engineered to match the dense order exactly);
//! * **counter invariants** — transfer byte counters are self-consistent
//!   (every model must upload at least one problem's worth of data and
//!   download at least one problem's worth of results; kernel counts match
//!   each model's launch structure);
//! * **trace ↔ counter agreement** — for models that expose an execution
//!   trace, the per-span transfer payloads parsed back out of the trace sum
//!   to exactly the runtime's own byte counters, so the schedule the trace
//!   claims is the schedule the accounting saw.

use baselines::{
    cuda_jacobi, tida_heat, tida_heat_multi, tida_jacobi, MemMode, RunOpts, RunResult, TidaOpts,
};
use gpu_sim::MachineConfig;
use integration_tests::support;
use kernels::jacobi;

const N: i64 = 8;
const STEPS: usize = 4;
const REGIONS: usize = 4;

fn cfg() -> MachineConfig {
    MachineConfig::k40m()
}

fn problem_bytes() -> u64 {
    (N * N * N) as u64 * 8
}

/// Bitwise-compare two runs' grids, with a context label for the failure.
fn assert_same_result(a: &RunResult, b: &RunResult) {
    assert_eq!(
        a.result.as_ref().expect("validated run"),
        b.result.as_ref().expect("validated run"),
        "{} and {} disagree",
        a.label,
        b.label
    );
}

/// Byte counters every conforming model must satisfy, whatever its
/// staging strategy: the problem is uploaded and the answer downloaded.
fn assert_counter_floor(r: &RunResult) {
    assert!(
        r.bytes_h2d >= problem_bytes(),
        "{}: uploaded {} < one problem ({})",
        r.label,
        r.bytes_h2d,
        problem_bytes()
    );
    assert!(
        r.bytes_d2h >= problem_bytes(),
        "{}: downloaded {} < one problem ({})",
        r.label,
        r.bytes_d2h,
        problem_bytes()
    );
    assert!(r.kernels > 0, "{}: no kernels ran", r.label);
}

/// The trace must account for exactly the bytes the runtime counted.
fn assert_trace_matches_counters(r: &RunResult) {
    let trace = r.trace.as_ref().expect("tracing run");
    let (h2d, d2h) = support::transfer_bytes_from_trace(trace);
    assert_eq!(
        h2d, r.bytes_h2d,
        "{}: trace H2D payloads disagree with the byte counter",
        r.label
    );
    assert_eq!(
        d2h, r.bytes_d2h,
        "{}: trace D2H payloads disagree with the byte counter",
        r.label
    );
}

// ---------------------------------------------------------------------------
// Program 1: heat — TileAcc vs CUDA whole-array
// ---------------------------------------------------------------------------

#[test]
fn heat_conforms_across_implementations() {
    let tida = tida_heat(
        &cfg(),
        N,
        STEPS,
        &TidaOpts::validated(REGIONS).with_tracing(),
    );
    let cuda_pinned = baselines::heat::cuda_heat(
        &cfg(),
        N,
        STEPS,
        RunOpts::validated(MemMode::Pinned).with_tracing(),
    );
    let cuda_pageable =
        baselines::heat::cuda_heat(&cfg(), N, STEPS, RunOpts::validated(MemMode::Pageable));

    // All three implementations agree bitwise, and with the analytic solver.
    assert_same_result(&tida, &cuda_pinned);
    assert_same_result(&tida, &cuda_pageable);
    assert_eq!(
        tida.result.as_ref().unwrap(),
        &support::heat_golden(11, N, STEPS as u64),
        "tiled execution diverged from the analytic solution"
    );

    for r in [&tida, &cuda_pinned, &cuda_pageable] {
        assert_counter_floor(r);
    }

    // Launch structure: the whole-array baseline runs one fused kernel per
    // step; the tiled runtimes run one kernel per tile per step plus the
    // ghost-exchange traffic, so they must launch strictly more.
    assert_eq!(cuda_pinned.kernels, STEPS as u64);
    assert!(tida.kernels >= (STEPS * REGIONS) as u64);

    // Trace accounting, for the models that expose a trace.
    assert_trace_matches_counters(&tida);
    assert_trace_matches_counters(&cuda_pinned);
}

// ---------------------------------------------------------------------------
// Program 2: jacobi — two-operand compute path, CUDA vs TileAcc
// ---------------------------------------------------------------------------

#[test]
fn jacobi_conforms_across_implementations() {
    let sweeps = 3;
    let cuda = cuda_jacobi(
        &cfg(),
        N,
        sweeps,
        RunOpts::validated(MemMode::Pinned).with_tracing(),
    );
    let tida = tida_jacobi(
        &cfg(),
        N,
        sweeps,
        &TidaOpts::validated(REGIONS).with_tracing(),
    );

    assert_same_result(&cuda, &tida);
    assert_eq!(
        cuda.result.as_ref().unwrap(),
        &jacobi::golden_run(&jacobi::manufactured_rhs(N), N, sweeps),
        "jacobi diverged from the analytic solution"
    );

    for r in [&cuda, &tida] {
        assert_counter_floor(r);
        assert_trace_matches_counters(r);
    }

    // The baseline uploads u and f once (2 problems); the tiled runtime
    // additionally re-exchanges ghosts every sweep, so it moves more.
    assert_eq!(cuda.bytes_h2d, 2 * problem_bytes());
    assert!(tida.bytes_h2d > cuda.bytes_h2d);
    assert_eq!(cuda.kernels, sweeps as u64);
}

// ---------------------------------------------------------------------------
// Program 3: out-of-core staging — slot-capped TileAcc vs uncapped
// ---------------------------------------------------------------------------

#[test]
fn out_of_core_staging_conforms_to_in_core() {
    let in_core = tida_heat(
        &cfg(),
        N,
        STEPS,
        &TidaOpts::validated(REGIONS).with_tracing(),
    );
    let staged = tida_heat(
        &cfg(),
        N,
        STEPS,
        &TidaOpts::validated(REGIONS)
            .with_max_slots(3)
            .with_tracing(),
    );
    // And the full overlap machinery on top of the slot cap: lookahead
    // prefetch + reuse-distance eviction must still be conforming.
    let overlapped = tida_heat(
        &cfg(),
        N,
        STEPS,
        &TidaOpts::validated(REGIONS)
            .with_max_slots(3)
            .with_overlap(2, tida_acc::SlotPolicy::ReuseDistance)
            .with_tracing(),
    );

    assert_same_result(&in_core, &staged);
    assert_same_result(&in_core, &overlapped);
    assert_eq!(
        in_core.result.as_ref().unwrap(),
        &support::heat_golden(11, N, STEPS as u64)
    );

    for r in [&in_core, &staged, &overlapped] {
        assert_counter_floor(r);
        assert_trace_matches_counters(r);
    }

    // Eviction pressure forces re-uploads: the capped run moves strictly
    // more H2D traffic than the in-core run, with identical results.
    assert!(
        staged.bytes_h2d > in_core.bytes_h2d,
        "slot cap must force restaging ({} vs {})",
        staged.bytes_h2d,
        in_core.bytes_h2d
    );
    // Staging changes transfer/gather structure (the capped run routes
    // ghost exchange through the host instead of device-side gathers) but
    // every variant still runs the full per-tile stencil schedule.
    for r in [&in_core, &staged, &overlapped] {
        assert!(
            r.kernels >= (STEPS * REGIONS) as u64,
            "{}: fewer launches than stencil tiles",
            r.label
        );
    }
}

// ---------------------------------------------------------------------------
// Program 4: the cluster runtime — 1-node Cluster (1 and 2 devices) vs TileAcc
// ---------------------------------------------------------------------------

/// A one-node cluster is just another execution model and must conform
/// like the rest: bitwise-identical heat and Jacobi grids (against the
/// other runtimes and the analytic solvers), the counter floors, and
/// trace-parsed transfer payloads summing exactly to the byte counters.
#[test]
fn cluster_conforms_across_implementations() {
    // Heat: Cluster(1 node, 1 device) vs TileAcc vs Cluster(1 node, 2
    // devices).
    let clu = baselines::cluster_heat(&cfg(), N, STEPS, REGIONS, 1, true, true);
    let tida = tida_heat(
        &cfg(),
        N,
        STEPS,
        &TidaOpts::validated(REGIONS).with_tracing(),
    );
    let multi = tida_heat_multi(&cfg(), N, STEPS, REGIONS, 2, true);
    assert_same_result(&clu, &tida);
    assert_same_result(&clu, &multi);
    assert_counter_floor(&multi);
    assert_eq!(
        clu.result.as_ref().unwrap(),
        &support::heat_golden(11, N, STEPS as u64),
        "cluster execution diverged from the analytic solution"
    );
    assert_counter_floor(&clu);
    assert_trace_matches_counters(&clu);
    // The stencil schedule is intact: at least one launch per region per
    // step (the exchange-protocol shell kernels may add more).
    assert!(clu.kernels >= (STEPS * REGIONS) as u64);

    // Jacobi: the two-operand path, rhs riding as the aux operand.
    let sweeps = 3;
    let cj = baselines::cluster_jacobi(&cfg(), N, sweeps, REGIONS, 1, true, true);
    let tj = tida_jacobi(
        &cfg(),
        N,
        sweeps,
        &TidaOpts::validated(REGIONS).with_tracing(),
    );
    assert_same_result(&cj, &tj);
    assert_eq!(
        cj.result.as_ref().unwrap(),
        &jacobi::golden_run(&jacobi::manufactured_rhs(N), N, sweeps),
        "cluster jacobi diverged from the analytic solution"
    );
    assert_counter_floor(&cj);
    assert_trace_matches_counters(&cj);
}

/// On two nodes the same accounting discipline must extend to the wire:
/// the NET spans parsed back out of the merged trace sum to exactly the
/// runtime's network byte counter, which in turn equals the link model's
/// own ledger — and the PCIe counters still reconcile with the trace.
#[test]
fn cluster_wire_accounting_matches_trace() {
    use cluster::{Cluster, ClusterConfig};
    use kernels::heat;
    use tida::{Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};

    let decomp = std::sync::Arc::new(Decomposition::new(
        Domain::periodic_cube(N),
        RegionSpec::Count(REGIONS),
    ));
    let ua = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    let ub = TileArray::new(decomp.clone(), 1, ExchangeMode::Faces, true);
    ua.fill_valid(kernels::init::hash_field(11));

    let mut cl = Cluster::new(ClusterConfig::new(2).machine(cfg()));
    cl.set_tracing(true);
    let a = cl.register(&ua);
    let b = cl.register(&ub);
    let (mut src, mut dst) = (a, b);
    for _ in 0..STEPS {
        cl.step(dst, src, None, heat::cost, "heat", |d, s, _aux, bx| {
            heat::step_tile(d, s, &bx, heat::DEFAULT_FAC)
        })
        .unwrap();
        std::mem::swap(&mut src, &mut dst);
    }
    cl.sync_to_host(src).unwrap();
    cl.finish();

    let trace = cl.trace();
    assert!(
        cl.bytes_net() > 0,
        "a 2-node run must put ghosts on the wire"
    );
    assert_eq!(
        baselines::net_bytes_from_trace(&trace),
        cl.bytes_net(),
        "trace NET payloads disagree with the network byte counter"
    );
    assert_eq!(
        cl.bytes_net(),
        cl.net_stats().bytes(),
        "runtime and link-model ledgers disagree"
    );
    let (h2d, d2h) = support::transfer_bytes_from_trace(&trace);
    assert_eq!(h2d, cl.bytes_h2d(), "merged-trace H2D accounting broke");
    assert_eq!(d2h, cl.bytes_d2h(), "merged-trace D2H accounting broke");

    // And the result is still the analytic golden, of course.
    let final_array = if src == a { &ua } else { &ub };
    assert_eq!(
        final_array.to_dense().unwrap(),
        support::heat_golden(11, N, STEPS as u64)
    );
}

// ---------------------------------------------------------------------------
// Schedule-space tie-in: the conformance programs are schedule-invariant
// ---------------------------------------------------------------------------

/// The model checker's oracle hooks into the same simulator the baselines
/// run on, so conformance extends across *schedules*, not just across
/// implementations: random-walk exploration of the full TileAcc heat
/// program keeps producing the conforming grid.
#[test]
fn conformance_holds_under_explored_schedules() {
    use schedcheck::programs::{self, HeatConfig};
    use schedcheck::{CheckSpec, Checker, Strategy};

    let cfg = HeatConfig::default();
    let checker = Checker::new(programs::heat_overlap(cfg), CheckSpec::default());
    let report = checker.explore(Strategy::RandomWalk {
        seed: 0x5EED_CAFE,
        budget: 6,
    });
    assert!(
        report.failure.is_none(),
        "schedule-dependent conformance break:\n{}",
        report.failure.map(|f| f.render()).unwrap_or_default()
    );
}
