//! The data-transfer-intensive kernel: a 3-D heat solver (§VI-A).
//!
//! Each time step updates every cell from its 6 nearest neighbours:
//!
//! ```text
//! u_new(i,j,k) = u(i,j,k) + fac * (u(i±1,j,k) + u(i,j±1,k) + u(i,j,k±1) - 6 u(i,j,k))
//! ```
//!
//! The same cell formula backs three executors that must agree bit-for-bit:
//! the golden dense reference, the per-tile row executor [`step_tile`], and
//! the simulated device kernel (which runs `step_tile` against device
//! slabs). [`stencil`] is the formula for one cell, the reference the row
//! executor is tested against.

use gpu_sim::KernelCost;
use tida::{Box3, IntVect, Layout, View, ViewMut};

/// Effective device-memory traffic per cell for the tuned CUDA stencil:
/// one 8-byte write, one streaming read, plus ~1/3 re-read of neighbour
/// planes that fall out of cache.
pub const BYTES_PER_CELL: u64 = 24;

/// Floating-point work per cell (7 adds + 1 multiply, counted generously).
pub const FLOPS_PER_CELL: f64 = 9.0;

/// Default diffusion factor; stable for the explicit 7-point scheme
/// (`fac <= 1/6`).
pub const DEFAULT_FAC: f64 = 0.1;

/// Device cost of a heat step over `cells` cells (roofline; the stencil is
/// memory-bound on the modelled K40m).
pub fn cost(cells: u64) -> KernelCost {
    KernelCost::Roofline {
        bytes: cells * BYTES_PER_CELL,
        flops: cells as f64 * FLOPS_PER_CELL,
    }
}

/// Device cost of ONE fused launch covering `k` temporally blocked heat
/// steps over a region with valid box `valid` (see
/// `gpu_sim::KernelCost::Fused`).
///
/// The fused kernel double-buffers the intermediate trapezoid levels on
/// chip (the shared-memory ping-pong pattern), so its DRAM traffic is one
/// clean streaming pass over the depth-`k` halo'd input block — 8 bytes
/// per cell, with no neighbour re-read slop because the halo planes stay
/// in the on-chip buffers — plus one 8-byte write of the final level. The
/// floating-point work is the full trapezoid: sub-step `i` computes
/// `valid.grow(k-1-i)`, so fusion trades redundant halo compute for
/// interconnect and launch amortization. `k = 1` has no fused structure
/// and carries exactly the unfused [`cost`] totals (24 B/cell, re-reads
/// included), so a depth-1 fused launch is bit-identical in time to the
/// ordinary path.
pub fn fused_cost(k: usize, valid: &Box3) -> KernelCost {
    assert!(k >= 1, "fused depth must be at least 1");
    if k == 1 {
        let cells = valid.num_cells();
        return KernelCost::Fused {
            k: 1,
            bytes: cells * BYTES_PER_CELL,
            flops: cells as f64 * FLOPS_PER_CELL,
        };
    }
    let flops: f64 = (0..k)
        .map(|i| valid.grow((k - 1 - i) as i64).num_cells() as f64)
        .sum::<f64>()
        * FLOPS_PER_CELL;
    let bytes = valid.grow(k as i64).num_cells() * 8 + valid.num_cells() * 8;
    KernelCost::Fused {
        k: k as u32,
        bytes,
        flops,
    }
}

/// The cell update, one cell at a time: the reference [`step_tile`]'s row
/// loop reproduces bit for bit.
#[inline]
pub fn stencil(src: &View<'_>, iv: IntVect, fac: f64) -> f64 {
    let c = src.at(iv);
    let sum = src.at(iv + IntVect::new(1, 0, 0))
        + src.at(iv - IntVect::new(1, 0, 0))
        + src.at(iv + IntVect::new(0, 1, 0))
        + src.at(iv - IntVect::new(0, 1, 0))
        + src.at(iv + IntVect::new(0, 0, 1))
        + src.at(iv - IntVect::new(0, 0, 1))
        - 6.0 * c;
    c + fac * sum
}

/// One heat step over the cells of `bx`: `dst <- step(src)`.
///
/// Works one x-row at a time: one layout offset per row, then seven row
/// slices (centre, x±1, y±1, z±1) summed in exactly [`stencil`]'s order,
/// so the result is bit-identical to the per-cell formula.
///
/// Panics unless `src`'s layout covers `bx.grow(1)` (the ghost cells) and
/// `dst`'s covers `bx`: a row slice past the layout's edge would silently
/// read the neighbouring row.
pub fn step_tile(dst: &mut ViewMut<'_>, src: &View<'_>, bx: &Box3, fac: f64) {
    assert!(
        src.layout.domain().contains_box(&bx.grow(1)),
        "heat: source layout {} does not cover {} and its ghost cells",
        src.layout.domain(),
        bx
    );
    assert!(
        dst.layout.domain().contains_box(bx),
        "heat: destination layout {} does not cover {}",
        dst.layout.domain(),
        bx
    );
    if bx.is_empty() {
        return;
    }
    let (lo, hi) = (bx.lo(), bx.hi());
    let nx = bx.size().x() as usize;
    let (sy, sz) = (src.layout.stride_y(), src.layout.stride_z());
    let s = src.data;
    for z in lo.z()..=hi.z() {
        for y in lo.y()..=hi.y() {
            let row = IntVect::new(lo.x(), y, z);
            let o = src.layout.offset(row);
            let c = &s[o..o + nx];
            let (xp, xm) = (&s[o + 1..o + 1 + nx], &s[o - 1..o - 1 + nx]);
            let (yp, ym) = (&s[o + sy..o + sy + nx], &s[o - sy..o - sy + nx]);
            let (zp, zm) = (&s[o + sz..o + sz + nx], &s[o - sz..o - sz + nx]);
            let d = dst.layout.offset(row);
            for (i, out) in dst.data[d..d + nx].iter_mut().enumerate() {
                let sum = xp[i] + xm[i] + yp[i] + ym[i] + zp[i] + zm[i] - 6.0 * c[i];
                *out = c[i] + fac * sum;
            }
        }
    }
}

/// Golden reference: one step on a dense periodic cube of side `n`.
pub fn golden_step(dst: &mut [f64], src: &[f64], n: i64, fac: f64) {
    let l = Layout::new(Box3::cube(n));
    assert_eq!(src.len(), l.len());
    assert_eq!(dst.len(), l.len());
    let wrap = |iv: IntVect| {
        IntVect::new(
            iv.x().rem_euclid(n),
            iv.y().rem_euclid(n),
            iv.z().rem_euclid(n),
        )
    };
    for iv in Box3::cube(n).iter() {
        let c = src[l.offset(iv)];
        let sum = src[l.offset(wrap(iv + IntVect::new(1, 0, 0)))]
            + src[l.offset(wrap(iv - IntVect::new(1, 0, 0)))]
            + src[l.offset(wrap(iv + IntVect::new(0, 1, 0)))]
            + src[l.offset(wrap(iv - IntVect::new(0, 1, 0)))]
            + src[l.offset(wrap(iv + IntVect::new(0, 0, 1)))]
            + src[l.offset(wrap(iv - IntVect::new(0, 0, 1)))]
            - 6.0 * c;
        dst[l.offset(iv)] = c + fac * sum;
    }
}

/// Golden reference: run `steps` steps on a dense periodic cube, starting
/// from `init(cell)`.
pub fn golden_run(init: impl Fn(IntVect) -> f64, n: i64, steps: usize, fac: f64) -> Vec<f64> {
    let l = Layout::new(Box3::cube(n));
    let mut a: Vec<f64> = (0..l.len()).map(|o| init(l.cell_at(o))).collect();
    let mut b = vec![0.0; l.len()];
    for _ in 0..steps {
        golden_step(&mut b, &a, n, fac);
        std::mem::swap(&mut a, &mut b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tida::{with_dst_src, Decomposition, Domain, ExchangeMode, RegionSpec, TileArray};

    fn init(iv: IntVect) -> f64 {
        ((iv.x() * 3 + iv.y() * 5 + iv.z() * 7) % 11) as f64
    }

    #[test]
    fn fused_cost_depth_one_equals_unfused_totals() {
        let valid = Box3::cube(8);
        let cells = valid.num_cells();
        match fused_cost(1, &valid) {
            gpu_sim::KernelCost::Fused { k, bytes, flops } => {
                assert_eq!(k, 1);
                assert_eq!(bytes, cells * BYTES_PER_CELL);
                assert_eq!(flops, cells as f64 * FLOPS_PER_CELL);
            }
            other => panic!("expected Fused, got {other:?}"),
        }
    }

    #[test]
    fn fused_cost_amortizes_dram_traffic_but_not_flops() {
        // The temporal-blocking trade: k separate launches stream
        // k * cells * BYTES_PER_CELL through DRAM; the fused launch keeps
        // the intermediate levels on chip, so its bytes are well below the
        // unfused total while its flops EXCEED k applications of the valid
        // box (the redundant trapezoid halo work is charged honestly).
        let valid = Box3::cube(32);
        let cells = valid.num_cells();
        for k in [2usize, 4] {
            match fused_cost(k, &valid) {
                gpu_sim::KernelCost::Fused { bytes, flops, .. } => {
                    let unfused_bytes = (k as u64 * cells * BYTES_PER_CELL) as f64;
                    let unfused_flops = k as f64 * cells as f64 * FLOPS_PER_CELL;
                    assert!(
                        (bytes as f64) < 0.5 * unfused_bytes,
                        "k={k}: fused bytes {bytes} not well below unfused {unfused_bytes}"
                    );
                    assert!(
                        flops > unfused_flops,
                        "k={k}: trapezoid flops {flops} must exceed unfused {unfused_flops}"
                    );
                }
                other => panic!("expected Fused, got {other:?}"),
            }
        }
    }

    #[test]
    fn uniform_field_is_fixed_point() {
        let n = 4;
        let src = vec![2.5; (n * n * n) as usize];
        let mut dst = vec![0.0; src.len()];
        golden_step(&mut dst, &src, n, DEFAULT_FAC);
        assert_eq!(dst, src);
    }

    #[test]
    fn golden_step_conserves_total_heat() {
        let n = 6;
        let l = Layout::new(Box3::cube(n));
        let src: Vec<f64> = (0..l.len()).map(|o| init(l.cell_at(o))).collect();
        let mut dst = vec![0.0; src.len()];
        golden_step(&mut dst, &src, n, DEFAULT_FAC);
        let s0: f64 = src.iter().sum();
        let s1: f64 = dst.iter().sum();
        assert!((s0 - s1).abs() < 1e-9 * s0.abs().max(1.0));
    }

    #[test]
    fn golden_run_smooths_towards_mean() {
        let n = 8;
        let out = golden_run(init, n, 200, DEFAULT_FAC);
        let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
        let spread = out.iter().fold(0f64, |m, &x| m.max((x - mean).abs()));
        assert!(
            spread < 0.3,
            "diffusion should flatten the field, spread={spread}"
        );
    }

    #[test]
    fn tile_executor_matches_golden_exactly() {
        let n = 6;
        let dom = Domain::periodic_cube(n);
        let d = Arc::new(Decomposition::new(dom, RegionSpec::Grid([2, 1, 2])));
        let src_arr = TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
        let dst_arr = TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
        src_arr.fill_valid(init);
        src_arr.fill_boundary();

        for rid in 0..d.num_regions() {
            let dst_r = dst_arr.region(rid);
            let src_r = src_arr.region(rid);
            with_dst_src(
                (&dst_r.slab, dst_r.layout),
                (&src_r.slab, src_r.layout),
                |mut dv, sv| step_tile(&mut dv, &sv, &dst_r.valid, DEFAULT_FAC),
            )
            .unwrap();
        }

        let golden = golden_run(init, n, 1, DEFAULT_FAC);
        assert_eq!(dst_arr.to_dense().unwrap(), golden, "bitwise agreement");
    }

    #[test]
    fn multi_step_tiled_matches_golden() {
        let n = 8;
        let steps = 5;
        let dom = Domain::periodic_cube(n);
        let d = Arc::new(Decomposition::new(dom, RegionSpec::Count(4)));
        let mut a = TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
        let mut b = TileArray::new(d.clone(), 1, ExchangeMode::Faces, true);
        a.fill_valid(init);
        for _ in 0..steps {
            a.fill_boundary();
            for rid in 0..d.num_regions() {
                let dst_r = b.region(rid);
                let src_r = a.region(rid);
                with_dst_src(
                    (&dst_r.slab, dst_r.layout),
                    (&src_r.slab, src_r.layout),
                    |mut dv, sv| step_tile(&mut dv, &sv, &dst_r.valid, DEFAULT_FAC),
                )
                .unwrap();
            }
            std::mem::swap(&mut a, &mut b);
        }
        assert_eq!(
            a.to_dense().unwrap(),
            golden_run(init, n, steps, DEFAULT_FAC)
        );
    }

    /// The per-cell reference: `stencil` at every cell of `bx`.
    fn per_cell(dst: &mut ViewMut<'_>, src: &View<'_>, bx: &Box3, fac: f64) {
        for iv in bx.iter() {
            dst.set(iv, stencil(src, iv, fac));
        }
    }

    /// Run the row kernel and the per-cell reference on the same inputs
    /// and demand bit-identical outputs (cells outside `bx` included).
    fn check_row_kernel(src_box: Box3, dst_box: Box3, bx: Box3, seed: u64) {
        let (sl, dl) = (Layout::new(src_box), Layout::new(dst_box));
        let mut x = seed | 1;
        let src: Vec<f64> = (0..sl.len())
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 20_000) as f64 / 7.0 - 1000.0
            })
            .collect();
        let init: Vec<f64> = (0..dl.len()).map(|o| -(o as f64)).collect();
        let (mut rows, mut cells) = (init.clone(), init);
        let sv = View {
            data: &src,
            layout: sl,
        };
        step_tile(
            &mut ViewMut {
                data: &mut rows,
                layout: dl,
            },
            &sv,
            &bx,
            DEFAULT_FAC,
        );
        per_cell(
            &mut ViewMut {
                data: &mut cells,
                layout: dl,
            },
            &sv,
            &bx,
            DEFAULT_FAC,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rows), bits(&cells), "box {bx} in {src_box}");
    }

    #[test]
    fn row_kernel_matches_per_cell_on_edge_cases() {
        let region = Box3::cube(6);
        let grown = region.grow(1);
        // The whole region: every row one ghost cell from the layout edge.
        check_row_kernel(grown, grown, region, 1);
        // Rows of one cell, and a single cell.
        check_row_kernel(
            grown,
            grown,
            Box3::new(IntVect::new(2, 0, 0), IntVect::new(2, 5, 5)),
            2,
        );
        check_row_kernel(
            grown,
            region,
            Box3::new(IntVect::splat(5), IntVect::splat(5)),
            3,
        );
        // An empty box writes nothing.
        check_row_kernel(grown, grown, Box3::EMPTY, 4);
    }

    proptest::proptest! {
        /// Random boxes inside random layouts: sub-tiles of a region, with
        /// the source layout anywhere from exactly `bx.grow(1)` to a few
        /// cells wider, and the destination a different layout.
        #[test]
        fn prop_row_kernel_matches_per_cell(
            lo in proptest::array::uniform3(-5i64..5),
            size in proptest::array::uniform3(1i64..7),
            src_pad_lo in proptest::array::uniform3(0i64..3),
            src_pad_hi in proptest::array::uniform3(0i64..3),
            dst_pad in proptest::array::uniform3(0i64..3),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let bx = Box3::new(IntVect(lo), IntVect(lo) + IntVect(size) - IntVect::UNIT);
            let src_box = Box3::new(
                bx.lo() - IntVect::UNIT - IntVect(src_pad_lo),
                bx.hi() + IntVect::UNIT + IntVect(src_pad_hi),
            );
            let dst_box = Box3::new(bx.lo() - IntVect(dst_pad), bx.hi() + IntVect(dst_pad));
            check_row_kernel(src_box, dst_box, bx, seed);
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn row_kernel_rejects_a_source_without_ghosts() {
        let bx = Box3::cube(4);
        // The source covers bx.grow(1) except its high z face.
        let src_box = Box3::new(bx.lo() - IntVect::UNIT, bx.hi() + IntVect::new(1, 1, 0));
        check_row_kernel(src_box, bx, bx, 5);
    }

    #[test]
    fn cost_is_memory_bound_on_k40m() {
        let cfg = gpu_sim::MachineConfig::k40m();
        let cells = 1u64 << 24;
        let t = cost(cells).duration(&cfg, 1.0);
        let mem_only = KernelCost::Bytes(cells * BYTES_PER_CELL).duration(&cfg, 1.0);
        assert_eq!(t, mem_only, "heat stencil should hit the memory roof");
    }
}
