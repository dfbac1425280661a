//! Linear memory layout of a box.
//!
//! [`Layout`] maps cells of a [`Box3`] to offsets in a region's slab,
//! x-fastest (the BoxLib/TiDA convention). A region's layout covers its
//! *grown* box, so ghost cells are addressable with the same mapping.

use crate::box3::Box3;
use crate::ivec::IntVect;
use serde::{Deserialize, Serialize};

/// Row-major (x fastest) layout over a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    bx: Box3,
    stride_y: i64,
    stride_z: i64,
}

impl Layout {
    pub fn new(bx: Box3) -> Layout {
        assert!(!bx.is_empty(), "cannot lay out an empty box");
        let size = bx.size();
        Layout {
            bx,
            stride_y: size.x(),
            stride_z: size.x() * size.y(),
        }
    }

    /// The box this layout covers.
    pub fn domain(&self) -> Box3 {
        self.bx
    }

    /// Number of elements in the layout.
    pub fn len(&self) -> usize {
        self.bx.num_cells() as usize
    }

    pub fn is_empty(&self) -> bool {
        false // layouts always cover a non-empty box
    }

    /// Linear offset of cell `iv`. Panics (debug) when out of the box.
    #[inline]
    pub fn offset(&self, iv: IntVect) -> usize {
        debug_assert!(
            self.bx.contains(iv),
            "cell {iv} outside layout box {}",
            self.bx
        );
        let rel = iv - self.bx.lo();
        (rel.x() + rel.y() * self.stride_y + rel.z() * self.stride_z) as usize
    }

    /// Inverse of [`Layout::offset`].
    pub fn cell_at(&self, offset: usize) -> IntVect {
        assert!(offset < self.len(), "offset {offset} out of layout");
        let o = offset as i64;
        let z = o / self.stride_z;
        let y = (o % self.stride_z) / self.stride_y;
        let x = o % self.stride_y;
        self.bx.lo() + IntVect::new(x, y, z)
    }

    /// Offset stride between neighbouring cells along y.
    pub fn stride_y(&self) -> usize {
        self.stride_y as usize
    }

    /// Offset stride between neighbouring cells along z.
    pub fn stride_z(&self) -> usize {
        self.stride_z as usize
    }

    /// The cells of `bx` as contiguous offset runs `(offset, len)` in
    /// layout order, abutting runs merged: one run per x-row of `bx`, or
    /// fewer when rows span the layout's whole width.
    ///
    /// Panics when `bx` escapes the layout's box.
    pub fn box_runs(&self, bx: Box3) -> Vec<(usize, usize)> {
        assert!(
            self.bx.contains_box(&bx),
            "box {bx} escapes layout box {}",
            self.bx
        );
        let mut runs = Vec::new();
        if bx.is_empty() {
            return runs;
        }
        let (lo, hi) = (bx.lo(), bx.hi());
        let nx = bx.size().x() as usize;
        for z in lo.z()..=hi.z() {
            for y in lo.y()..=hi.y() {
                push_run(&mut runs, self.offset(IntVect::new(lo.x(), y, z)), nx);
            }
        }
        runs
    }

    /// The cells of the layout's box *outside* `inner`, as merged offset
    /// runs in layout order — the ghost shell, when `inner` is a region's
    /// valid box. Together with [`Layout::box_runs`]`(inner)` it covers
    /// every cell exactly once.
    ///
    /// Panics when `inner` escapes the layout's box.
    pub fn shell_runs(&self, inner: Box3) -> Vec<(usize, usize)> {
        assert!(
            self.bx.contains_box(&inner),
            "box {inner} escapes layout box {}",
            self.bx
        );
        let (lo, hi) = (self.bx.lo(), self.bx.hi());
        let width = self.stride_y as usize;
        let mut runs = Vec::new();
        for z in lo.z()..=hi.z() {
            for y in lo.y()..=hi.y() {
                let start = self.offset(IntVect::new(lo.x(), y, z));
                if !inner.contains(IntVect::new(inner.lo().x(), y, z)) {
                    push_run(&mut runs, start, width);
                    continue;
                }
                // The row crosses `inner`: keep the cells either side of it.
                let before = (inner.lo().x() - lo.x()) as usize;
                let after = (inner.hi().x() - lo.x() + 1) as usize;
                push_run(&mut runs, start, before);
                push_run(&mut runs, start + after, width - after);
            }
        }
        runs
    }
}

/// Append the run `(off, len)`, merging it into the last run when the two
/// abut. Empty runs are dropped.
fn push_run(runs: &mut Vec<(usize, usize)>, off: usize, len: usize) {
    if len == 0 {
        return;
    }
    match runs.last_mut() {
        Some(last) if last.0 + last.1 == off => last.1 += len,
        _ => runs.push((off, len)),
    }
}

/// The x-rows of a ghost patch, for `memslab::copy_rows`: the row length
/// `nx` and, for every x-row of `dst_box` in layout order, the offset of
/// its first cell in `dst` and of its source in `src`, where the source of
/// cell `c` is `c - shift`. These are the paper's ghost-update index lists
/// (§IV-B-6) one row start per row instead of one offset per cell.
///
/// A staging buffer is laid out by `Layout::new(dst_box)`: as `dst` it
/// packs the patch, as `src` (with a zero shift) it unpacks it.
///
/// Panics when `dst_box` escapes `dst` or its source box escapes `src`.
pub fn patch_rows(
    dst: Layout,
    src: Layout,
    dst_box: Box3,
    shift: IntVect,
) -> (usize, impl Iterator<Item = (usize, usize)>) {
    assert!(
        dst.bx.contains_box(&dst_box),
        "patch box {dst_box} escapes layout box {}",
        dst.bx
    );
    let src_box = dst_box.shift(-shift);
    assert!(
        src.bx.contains_box(&src_box),
        "patch source {src_box} escapes layout box {}",
        src.bx
    );
    // An empty box has no rows (lo > hi in z too).
    let (lo, hi) = if dst_box.is_empty() {
        (IntVect::UNIT, IntVect::ZERO)
    } else {
        (dst_box.lo(), dst_box.hi())
    };
    let rows = (lo.z()..=hi.z())
        .flat_map(move |z| (lo.y()..=hi.y()).map(move |y| IntVect::new(lo.x(), y, z)))
        .map(move |c| (dst.offset(c), src.offset(c - shift)));
    (dst_box.size().x() as usize, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memslab::Slab;
    use proptest::prelude::*;

    #[test]
    fn offset_x_fastest() {
        let l = Layout::new(Box3::from_size(IntVect::new(4, 3, 2)));
        assert_eq!(l.offset(IntVect::new(0, 0, 0)), 0);
        assert_eq!(l.offset(IntVect::new(1, 0, 0)), 1);
        assert_eq!(l.offset(IntVect::new(0, 1, 0)), 4);
        assert_eq!(l.offset(IntVect::new(0, 0, 1)), 12);
        assert_eq!(l.offset(IntVect::new(3, 2, 1)), 23);
        assert_eq!(l.len(), 24);
    }

    #[test]
    fn offset_respects_nonzero_lo() {
        let bx = Box3::new(IntVect::new(-1, -1, -1), IntVect::new(2, 2, 2));
        let l = Layout::new(bx);
        assert_eq!(l.offset(IntVect::new(-1, -1, -1)), 0);
        assert_eq!(l.offset(IntVect::new(2, 2, 2)), l.len() - 1);
    }

    #[test]
    fn cell_at_inverts_offset() {
        let bx = Box3::new(IntVect::new(-2, 3, 1), IntVect::new(4, 7, 3));
        let l = Layout::new(bx);
        for iv in bx.iter() {
            assert_eq!(l.cell_at(l.offset(iv)), iv);
        }
    }

    #[test]
    fn patch_rows_in_layout_order() {
        let l = Layout::new(Box3::from_size(IntVect::new(4, 4, 2)));
        let sub = Box3::new(IntVect::new(1, 1, 0), IntVect::new(2, 2, 1));
        let (nx, rows) = patch_rows(l, l, sub, IntVect::new(-1, 0, 0));
        assert_eq!(nx, 2);
        let rows: Vec<_> = rows.collect();
        assert_eq!(rows, vec![(5, 6), (9, 10), (21, 22), (25, 26)]);
        let (nx, mut none) = patch_rows(l, l, Box3::EMPTY, IntVect::ZERO);
        assert_eq!((nx, none.next()), (0, None));
    }

    #[test]
    fn box_and_shell_runs_in_layout_order() {
        let l = Layout::new(Box3::from_size(IntVect::new(4, 3, 3)));
        let inner = Box3::new(IntVect::new(1, 1, 1), IntVect::new(2, 1, 1));
        assert_eq!(l.box_runs(inner), vec![(17, 2)]);
        // Everything up to the inner row, then the rest of the layout.
        assert_eq!(l.shell_runs(inner), vec![(0, 17), (19, 17)]);
        // Full-width rows merge into one run per plane, then across planes.
        let slab = Box3::new(IntVect::new(0, 0, 1), IntVect::new(3, 2, 2));
        assert_eq!(l.box_runs(slab), vec![(12, 24)]);
        assert_eq!(l.shell_runs(l.domain()), Vec::<(usize, usize)>::new());
        assert_eq!(l.box_runs(Box3::EMPTY), Vec::<(usize, usize)>::new());
        assert_eq!(l.shell_runs(Box3::EMPTY), vec![(0, l.len())]);
    }

    #[test]
    #[should_panic(expected = "escapes")]
    fn patch_rows_escaping_box_panics() {
        let l = Layout::new(Box3::from_size(IntVect::splat(2)));
        let _ = patch_rows(l, l, Box3::from_size(IntVect::splat(3)), IntVect::ZERO);
    }

    #[test]
    #[should_panic(expected = "patch source")]
    fn patch_rows_escaping_source_panics() {
        let l = Layout::new(Box3::from_size(IntVect::splat(2)));
        let _ = patch_rows(l, l, Box3::from_size(IntVect::splat(2)), IntVect::UNIT);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_box_layout_panics() {
        Layout::new(Box3::EMPTY);
    }

    proptest! {
        /// `box_runs(inner)` holds exactly the offsets of `inner`'s cells and
        /// `shell_runs(inner)` exactly the rest, each run maximal.
        #[test]
        fn prop_box_and_shell_runs_partition_the_layout(
            size in proptest::array::uniform3(1i64..7),
            inner_lo in proptest::array::uniform3(0i64..7),
            inner_size in proptest::array::uniform3(0i64..7),
        ) {
            let l = Layout::new(Box3::from_size(IntVect(size)));
            let lo = IntVect(inner_lo).min(IntVect(size) - IntVect::UNIT);
            let hi = (lo + IntVect(inner_size) - IntVect::UNIT).min(l.domain().hi());
            let inner = Box3::new(lo, hi);
            let mut owner = vec![0u8; l.len()];
            for (runs, tag) in [(l.box_runs(inner), 1u8), (l.shell_runs(inner), 2u8)] {
                for w in runs.windows(2) {
                    prop_assert!(w[0].0 + w[0].1 < w[1].0, "runs sorted and merged");
                }
                for (off, len) in runs {
                    prop_assert!(len > 0);
                    for (o, cell) in owner[off..off + len].iter_mut().enumerate() {
                        prop_assert_eq!(*cell, 0, "offset {} covered twice", off + o);
                        *cell = tag;
                    }
                }
            }
            for (o, &cell) in owner.iter().enumerate() {
                let want = if inner.contains(l.cell_at(o)) { 1 } else { 2 };
                prop_assert_eq!(cell, want, "offset {}", o);
            }
        }

        /// offset() is a bijection from cells to 0..len().
        #[test]
        fn prop_offset_bijective(
            lo in proptest::array::uniform3(-8i64..8),
            size in proptest::array::uniform3(1i64..6),
        ) {
            let lo = IntVect(lo);
            let bx = Box3::new(lo, lo + IntVect(size) - IntVect::UNIT);
            let l = Layout::new(bx);
            let mut seen = vec![false; l.len()];
            for iv in bx.iter() {
                let o = l.offset(iv);
                prop_assert!(o < l.len());
                prop_assert!(!seen[o], "offset {o} hit twice");
                seen[o] = true;
                prop_assert_eq!(l.cell_at(o), iv);
            }
            prop_assert!(seen.into_iter().all(|b| b));
        }

        /// patch_rows + memslab::copy_rows apply a patch exactly like a
        /// per-cell copy, onto another slab or within one slab (a region
        /// that is its own periodic neighbour); a virtual side is a no-op
        /// that draws no stamp, and a written backed destination is
        /// restamped.
        #[test]
        fn prop_patch_rows_copy_matches_per_cell_reference(
            dst_lo in proptest::array::uniform3(-4i64..4),
            dst_size in proptest::array::uniform3(1i64..7),
            sub_lo in proptest::array::uniform3(0i64..7),
            sub_size in proptest::array::uniform3(1i64..7),
            src_lo in proptest::array::uniform3(-4i64..4),
            src_extra in proptest::array::uniform3(0i64..3),
            src_at in proptest::array::uniform3(0i64..3),
            same in any::<bool>(),
            virtual_side in 0u8..3,
        ) {
            // A sub-box of the destination layout.
            let dl = Layout::new(Box3::new(
                IntVect(dst_lo),
                IntVect(dst_lo) + IntVect(dst_size) - IntVect::UNIT,
            ));
            let lo = dl.domain().lo() + IntVect(sub_lo).min(IntVect(dst_size) - IntVect::UNIT);
            let hi = (lo + IntVect(sub_size) - IntVect::UNIT).min(dl.domain().hi());
            let sub = Box3::new(lo, hi);
            // Its source box, inside the source layout (the destination's
            // own layout for a same-storage patch).
            let sl = if same {
                dl
            } else {
                Layout::new(Box3::new(
                    IntVect(src_lo),
                    IntVect(src_lo) + sub.size() + IntVect(src_extra) - IntVect::UNIT,
                ))
            };
            let slack = sl.domain().size() - sub.size();
            let from = sl.domain().lo() + IntVect(src_at).min(slack);
            let shift = sub.lo() - from;
            if same {
                // Ghost patches never read the cells they write.
                prop_assume!(sub.intersect(&sub.shift(-shift)).is_empty());
            }

            let init = |l: &Layout, k: f64| -> Vec<f64> {
                (0..l.len()).map(|o| o as f64 * k + 0.25).collect()
            };
            let dst = Slab::from_vec(init(&dl, -1.0));
            let src = if same { dst.clone() } else { Slab::from_vec(init(&sl, 3.0)) };
            let src_vals = src.snapshot().unwrap();
            let mut expect = dst.snapshot().unwrap();
            for c in sub.iter() {
                expect[dl.offset(c)] = src_vals[sl.offset(c - shift)];
            }

            let stamp = dst.stamp();
            match virtual_side {
                1 if !same => {
                    let v = Slab::virtual_(sl.len());
                    let (nx, rows) = patch_rows(dl, sl, sub, shift);
                    memslab::copy_rows(&dst, &v, nx, rows);
                    prop_assert_eq!(dst.stamp(), stamp, "virtual source: no stamp");
                    prop_assert_eq!(dst.snapshot().unwrap(), init(&dl, -1.0));
                }
                2 if !same => {
                    let v = Slab::virtual_(dl.len());
                    let (nx, rows) = patch_rows(dl, sl, sub, shift);
                    memslab::copy_rows(&v, &src, nx, rows);
                    prop_assert!(v.is_virtual());
                    prop_assert_eq!(v.stamp(), 0, "virtual destination: no stamp");
                }
                _ => {
                    let (nx, rows) = patch_rows(dl, sl, sub, shift);
                    memslab::copy_rows(&dst, &src, nx, rows);
                    prop_assert!(dst.stamp() != stamp, "destination restamped");
                    prop_assert_eq!(dst.snapshot().unwrap(), expect);
                }
            }
        }
    }
}
