//! End-to-end application tests beyond the paper's two kernels: the
//! multi-operand compute (Gray–Scott), full edge/corner ghost exchange on
//! the device (27-point smoother), reductions in a convergence loop
//! (Jacobi/Poisson), and sub-region tiles on the GPU path.

use kernels::{gray_scott, init, jacobi, stencil27};
use std::sync::Arc;
use tida::{
    tiles_of, Box3, Decomposition, Domain, ExchangeMode, IntVect, Layout, RegionSpec, TileArray,
    TileSpec,
};
use tida_acc::{AccOptions, TileAcc};

fn acc_with(max_slots: Option<usize>) -> TileAcc {
    let mut opts = AccOptions::paper();
    opts.max_slots = max_slots;
    TileAcc::new(
        gpu_sim::GpuSystem::new(gpu_sim::MachineConfig::k40m()),
        opts,
    )
}

fn dense_from(n: i64, f: impl Fn(IntVect) -> f64) -> Vec<f64> {
    let l = Layout::new(Box3::cube(n));
    (0..l.len()).map(|o| f(l.cell_at(o))).collect()
}

#[test]
fn gray_scott_multi_operand_compute_matches_golden() {
    let n = 8i64;
    let steps = 4;
    let p = gray_scott::GrayScott::default();
    let d = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(4),
    ));
    let mk = || TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    let (au, av, bu, bv) = (mk(), mk(), mk(), mk());
    let (fu, fv) = gray_scott::seed(n);
    au.fill_valid(&fu);
    av.fill_valid(&fv);

    let mut acc = acc_with(None);
    let ids = [
        acc.register(&au),
        acc.register(&av),
        acc.register(&bu),
        acc.register(&bv),
    ];
    let tiles = tiles_of(&d, TileSpec::RegionSized);
    let (mut cur, mut next) = ([ids[0], ids[1]], [ids[2], ids[3]]);
    for _ in 0..steps {
        acc.fill_boundary(cur[0]).unwrap();
        acc.fill_boundary(cur[1]).unwrap();
        for &t in &tiles {
            acc.compute(
                t,
                &next,
                &cur,
                gray_scott::cost(t.num_cells()),
                "gray-scott",
                move |ws, rs, bx| gray_scott::step_tile(ws, rs, &bx, p),
            )
            .unwrap();
        }
        std::mem::swap(&mut cur, &mut next);
    }
    acc.sync_to_host(cur[0]).unwrap();
    acc.sync_to_host(cur[1]).unwrap();
    acc.finish();

    // Golden dense run.
    let mut gu = dense_from(n, &fu);
    let mut gv = dense_from(n, &fv);
    let mut tu = vec![0.0; gu.len()];
    let mut tv = vec![0.0; gv.len()];
    for _ in 0..steps {
        gray_scott::golden_step(&mut tu, &mut tv, &gu, &gv, n, p);
        std::mem::swap(&mut gu, &mut tu);
        std::mem::swap(&mut gv, &mut tv);
    }

    let (ru, rv) = if cur[0] == ids[0] {
        (&au, &av)
    } else {
        (&bu, &bv)
    };
    assert_eq!(ru.to_dense().unwrap(), gu);
    assert_eq!(rv.to_dense().unwrap(), gv);
    assert!(acc.stats().kernels_gpu > 0);
}

#[test]
fn gray_scott_limited_memory_still_exact() {
    // 4 arrays x 2 regions = 8 global regions through 5 slots.
    let n = 6i64;
    let steps = 3;
    let p = gray_scott::GrayScott::default();
    let d = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(2),
    ));
    let mk = || TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    let (au, av, bu, bv) = (mk(), mk(), mk(), mk());
    let (fu, fv) = gray_scott::seed(n);
    au.fill_valid(&fu);
    av.fill_valid(&fv);

    let mut acc = acc_with(Some(5));
    let ids = [
        acc.register(&au),
        acc.register(&av),
        acc.register(&bu),
        acc.register(&bv),
    ];
    let tiles = tiles_of(&d, TileSpec::RegionSized);
    let (mut cur, mut next) = ([ids[0], ids[1]], [ids[2], ids[3]]);
    for _ in 0..steps {
        acc.fill_boundary(cur[0]).unwrap();
        acc.fill_boundary(cur[1]).unwrap();
        for &t in &tiles {
            acc.compute(
                t,
                &next,
                &cur,
                gray_scott::cost(t.num_cells()),
                "gray-scott",
                move |ws, rs, bx| gray_scott::step_tile(ws, rs, &bx, p),
            )
            .unwrap();
        }
        std::mem::swap(&mut cur, &mut next);
    }
    acc.sync_to_host(cur[0]).unwrap();
    acc.sync_to_host(cur[1]).unwrap();
    acc.finish();

    let mut gu = dense_from(n, &fu);
    let mut gv = dense_from(n, &fv);
    let mut tu = vec![0.0; gu.len()];
    let mut tv = vec![0.0; gv.len()];
    for _ in 0..steps {
        gray_scott::golden_step(&mut tu, &mut tv, &gu, &gv, n, p);
        std::mem::swap(&mut gu, &mut tu);
        std::mem::swap(&mut gv, &mut tv);
    }
    let (ru, rv) = if cur[0] == ids[0] {
        (&au, &av)
    } else {
        (&bu, &bv)
    };
    assert_eq!(ru.to_dense().unwrap(), gu);
    assert_eq!(rv.to_dense().unwrap(), gv);
}

#[test]
fn stencil27_full_exchange_on_device() {
    // Edge/corner ghost patches must flow through the device gather path.
    let n = 8i64;
    let steps = 3;
    let d = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Grid([2, 2, 1]),
    ));
    let ua = TileArray::new(d.clone(), 1, ExchangeMode::Full, true);
    let ub = TileArray::new(d.clone(), 1, ExchangeMode::Full, true);
    let f = init::hash_field(21);
    ua.fill_grown(|_| f64::NAN); // poison: any missed patch breaks equality
    ub.fill_grown(|_| f64::NAN);
    ua.fill_valid(&f);

    let mut acc = acc_with(None);
    let a = acc.register(&ua);
    let b = acc.register(&ub);
    let tiles = tiles_of(&d, TileSpec::RegionSized);
    let (mut src, mut dst) = (a, b);
    for _ in 0..steps {
        acc.fill_boundary(src).unwrap();
        for &t in &tiles {
            acc.compute2(
                t,
                dst,
                src,
                stencil27::cost(t.num_cells()),
                "s27",
                |dv, sv, bx| stencil27::step_tile(dv, sv, &bx),
            )
            .unwrap();
        }
        std::mem::swap(&mut src, &mut dst);
    }
    acc.sync_to_host(src).unwrap();
    acc.finish();

    let mut golden = dense_from(n, &f);
    let mut tmp = vec![0.0; golden.len()];
    for _ in 0..steps {
        stencil27::golden_step(&mut tmp, &golden, n);
        std::mem::swap(&mut golden, &mut tmp);
    }
    let arr = if src == a { &ua } else { &ub };
    assert_eq!(arr.to_dense().unwrap(), golden);
    assert!(acc.stats().ghost_gpu > 0);
}

#[test]
fn jacobi_converges_with_device_reductions() {
    let n = 8i64;
    let d = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(4),
    ));
    let mk = || TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    let (u, unew, rhs, res) = (mk(), mk(), mk(), mk());
    let f = jacobi::manufactured_rhs(n);
    rhs.from_dense(&f);
    u.fill_valid(|_| 0.0);

    let mut acc = acc_with(None);
    let (au, aun, af, ar) = (
        acc.register(&u),
        acc.register(&unew),
        acc.register(&rhs),
        acc.register(&res),
    );
    let tiles = tiles_of(&d, TileSpec::RegionSized);

    let mut residuals = Vec::new();
    let (mut cur, mut next) = (au, aun);
    for sweep in 0..60 {
        acc.fill_boundary(cur).unwrap();
        for &t in &tiles {
            acc.compute(
                t,
                &[next],
                &[cur, af],
                jacobi::cost(t.num_cells()),
                "jacobi",
                |ws, rs, bx| jacobi::sweep_tile(&mut ws[0], &rs[0], &rs[1], &bx),
            )
            .unwrap();
        }
        std::mem::swap(&mut cur, &mut next);
        if sweep % 20 == 19 {
            // Residual check through the reduction API.
            acc.fill_boundary(cur).unwrap();
            for &t in &tiles {
                acc.compute(
                    t,
                    &[ar],
                    &[cur, af],
                    jacobi::cost(t.num_cells()),
                    "residual",
                    |ws, rs, bx| jacobi::residual_tile(&mut ws[0], &rs[0], &rs[1], &bx),
                )
                .unwrap();
            }
            residuals.push(acc.reduce_max_abs(ar).unwrap().expect("backed run"));
        }
    }
    acc.sync_to_host(cur).unwrap();
    acc.finish();

    assert_eq!(residuals.len(), 3);
    assert!(
        residuals[1] < residuals[0] && residuals[2] < residuals[1],
        "residuals must decrease: {residuals:?}"
    );

    // Final iterate matches the dense golden run bitwise.
    let golden = jacobi::golden_run(&f, n, 60);
    let arr = if cur == au { &u } else { &unew };
    assert_eq!(arr.to_dense().unwrap(), golden);
    // And the reduction agrees with the dense residual evaluation.
    let dense_res = jacobi::golden_residual(&golden, &f, n);
    assert!((residuals[2] - dense_res).abs() < 1e-12);
}

#[test]
fn sub_region_tiles_on_gpu_path() {
    // Multiple tiles per region: the paper notes this launches one kernel
    // per tile (not recommended for performance, but must be correct).
    // Partial-tile writes must not trigger the write-intent skip.
    let n = 8i64;
    let steps = 2;
    let d = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(2),
    ));
    let ua = TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    let ub = TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    ua.fill_valid(init::hash_field(8));
    ub.fill_valid(init::hash_field(8)); // dst pre-filled: partial writes keep the rest

    let mut acc = acc_with(None);
    let a = acc.register(&ua);
    let b = acc.register(&ub);
    // 4x8x4 tiles: several per region.
    let tiles = tiles_of(&d, TileSpec::Size(IntVect::new(4, 8, 4)));
    assert!(tiles.len() > d.num_regions());

    let (mut src, mut dst) = (a, b);
    for _ in 0..steps {
        acc.fill_boundary(src).unwrap();
        for &t in &tiles {
            acc.compute2(
                t,
                dst,
                src,
                kernels::heat::cost(t.num_cells()),
                "heat",
                |dv, sv, bx| kernels::heat::step_tile(dv, sv, &bx, kernels::heat::DEFAULT_FAC),
            )
            .unwrap();
        }
        std::mem::swap(&mut src, &mut dst);
    }
    acc.sync_to_host(src).unwrap();
    acc.finish();

    let golden =
        kernels::heat::golden_run(init::hash_field(8), n, steps, kernels::heat::DEFAULT_FAC);
    let arr = if src == a { &ua } else { &ub };
    assert_eq!(arr.to_dense().unwrap(), golden);
    assert_eq!(acc.stats().write_allocs, 0, "partial tiles must upload dst");
}

#[test]
fn wave_three_time_levels_matches_golden() {
    // Three arrays rotate roles (prev, cur, next) each step: the runtime
    // must keep all three coherent across residency changes.
    let n = 8i64;
    let steps = 6;
    let c2 = kernels::wave::DEFAULT_C2;
    let d = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(4),
    ));
    let mk = || TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    let bufs = [mk(), mk(), mk()];
    let f = init::gaussian(n);
    bufs[0].fill_valid(&f); // prev
    bufs[1].fill_valid(&f); // cur (start from rest)

    let mut acc = acc_with(None);
    let ids = [
        acc.register(&bufs[0]),
        acc.register(&bufs[1]),
        acc.register(&bufs[2]),
    ];
    let tiles = tiles_of(&d, TileSpec::RegionSized);
    let (mut prev, mut cur, mut next) = (ids[0], ids[1], ids[2]);
    for _ in 0..steps {
        acc.fill_boundary(cur).unwrap();
        for &t in &tiles {
            acc.compute(
                t,
                &[next],
                &[cur, prev],
                kernels::wave::cost(t.num_cells()),
                "wave",
                move |ws, rs, bx| kernels::wave::step_tile(&mut ws[0], &rs[0], &rs[1], &bx, c2),
            )
            .unwrap();
        }
        let old_prev = prev;
        prev = cur;
        cur = next;
        next = old_prev;
    }
    acc.sync_to_host(cur).unwrap();
    acc.finish();

    let golden = kernels::wave::golden_run(&f, n, steps, c2);
    let pos = ids.iter().position(|&i| i == cur).unwrap();
    assert_eq!(bufs[pos].to_dense().unwrap(), golden);
}

#[test]
fn wave_limited_memory_three_arrays() {
    // 3 arrays x 4 regions = 12 global regions through 4 slots: the slot
    // pool must juggle three rotating roles under eviction pressure.
    let n = 6i64;
    let steps = 4;
    let c2 = kernels::wave::DEFAULT_C2;
    let d = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(3),
    ));
    let mk = || TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    let bufs = [mk(), mk(), mk()];
    let f = init::gaussian(n);
    bufs[0].fill_valid(&f);
    bufs[1].fill_valid(&f);

    let mut acc = acc_with(Some(4));
    let ids = [
        acc.register(&bufs[0]),
        acc.register(&bufs[1]),
        acc.register(&bufs[2]),
    ];
    let tiles = tiles_of(&d, TileSpec::RegionSized);
    let (mut prev, mut cur, mut next) = (ids[0], ids[1], ids[2]);
    for _ in 0..steps {
        acc.fill_boundary(cur).unwrap();
        for &t in &tiles {
            acc.compute(
                t,
                &[next],
                &[cur, prev],
                kernels::wave::cost(t.num_cells()),
                "wave",
                move |ws, rs, bx| kernels::wave::step_tile(&mut ws[0], &rs[0], &rs[1], &bx, c2),
            )
            .unwrap();
        }
        let old_prev = prev;
        prev = cur;
        cur = next;
        next = old_prev;
    }
    acc.sync_to_host(cur).unwrap();
    acc.finish();
    assert!(acc.stats().evictions > 0);

    let golden = kernels::wave::golden_run(&f, n, steps, c2);
    let pos = ids.iter().position(|&i| i == cur).unwrap();
    assert_eq!(bufs[pos].to_dense().unwrap(), golden);
}

#[test]
fn wave_on_two_gpus_with_reductions() {
    // Three time levels distributed over two devices of one node, energy
    // checked via the distributed reduction — the full multi-GPU API
    // surface at once. `prev` rides along as the step's aux operand.
    use cluster::{Cluster, ClusterConfig};
    let n = 8i64;
    let steps = 5;
    let c2 = kernels::wave::DEFAULT_C2;
    let d = Arc::new(Decomposition::new(
        Domain::periodic_cube(n),
        RegionSpec::Count(4),
    ));
    let mk = || TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
    let bufs = [mk(), mk(), mk()];
    let f = init::gaussian(n);
    bufs[0].fill_valid(&f);
    bufs[1].fill_valid(&f);

    let mut cl = Cluster::new(ClusterConfig::new(1).devices_per_node(2));
    let ids = [
        cl.register(&bufs[0]),
        cl.register(&bufs[1]),
        cl.register(&bufs[2]),
    ];
    let (mut prev, mut cur, mut next) = (ids[0], ids[1], ids[2]);
    for _ in 0..steps {
        cl.step(
            next,
            cur,
            Some(prev),
            kernels::wave::cost,
            "wave",
            move |w, r, p, bx| kernels::wave::step_tile(w, r, p.expect("prev level"), &bx, c2),
        )
        .unwrap();
        let old_prev = prev;
        prev = cur;
        cur = next;
        next = old_prev;
    }
    // Distributed max-abs reduction agrees with the dense field.
    let max_dev = cl
        .reduce(cur, "max-abs", 0.0, f64::abs, f64::max)
        .unwrap()
        .expect("backed");
    cl.sync_to_host(cur).unwrap();
    cl.finish();

    let golden = kernels::wave::golden_run(&f, n, steps, c2);
    let pos = ids.iter().position(|&i| i == cur).unwrap();
    assert_eq!(bufs[pos].to_dense().unwrap(), golden);
    let max_dense = golden.iter().fold(0f64, |m, &x| m.max(x.abs()));
    assert!((max_dev - max_dense).abs() < 1e-14);
    assert!(cl.bytes_p2p() > 0);
    assert_eq!(cl.hazard_total(), 0);
}
