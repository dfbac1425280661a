//! `TileArray`: the decomposed, ghost-padded data container.
//!
//! The TiDA `tileArray` allocates one physically separate buffer per region
//! (each grown by the ghost width), partitions the data, keeps the region
//! list, and performs ghost-cell updates (§IV-A). This is the host-side
//! container; `tida-acc` adds the device mirror on top.

use crate::box3::Box3;
use crate::domain::{Decomposition, ExchangeMode, GhostPatch};
use crate::ivec::IntVect;
use crate::layout::{patch_rows, Layout};
use crate::view::{with_view, with_view_mut};
use memslab::Slab;
use std::sync::Arc;

/// One region: a valid box, its ghost-grown box, the layout of the grown
/// box, and the backing slab.
#[derive(Debug, Clone)]
pub struct Region {
    pub id: usize,
    pub valid: Box3,
    pub grown: Box3,
    pub layout: Layout,
    pub slab: Slab,
}

impl Region {
    /// Size of this region's buffer in bytes.
    pub fn bytes(&self) -> u64 {
        self.slab.bytes()
    }
}

/// Set every cell of `bx` (inside the region's grown box) to `f(cell)`,
/// one x-row at a time: the layout offset is computed once per row and the
/// row is contiguous, so no per-cell offset arithmetic is needed. No-op
/// when the region is virtual.
fn fill_box(r: &Region, bx: Box3, f: &impl Fn(IntVect) -> f64) {
    if bx.is_empty() {
        return;
    }
    let (lo, hi) = (bx.lo(), bx.hi());
    let width = (hi.x() - lo.x() + 1) as usize;
    r.slab.with_mut(|data| {
        let Some(data) = data else { return };
        for z in lo.z()..=hi.z() {
            for y in lo.y()..=hi.y() {
                let start = r.layout.offset(IntVect::new(lo.x(), y, z));
                for (x, cell) in (lo.x()..).zip(&mut data[start..start + width]) {
                    *cell = f(IntVect::new(x, y, z));
                }
            }
        }
    });
}

/// A decomposed array: one ghost-padded buffer per region.
#[derive(Clone)]
pub struct TileArray {
    decomp: Arc<Decomposition>,
    ghost: i64,
    mode: ExchangeMode,
    regions: Vec<Region>,
    patches: Arc<Vec<GhostPatch>>,
}

impl TileArray {
    /// Allocate a tile array over `decomp` with the given ghost width.
    ///
    /// `backed = false` creates virtual slabs (timing-only runs).
    pub fn new(decomp: Arc<Decomposition>, ghost: i64, mode: ExchangeMode, backed: bool) -> Self {
        assert!(ghost >= 0, "ghost width cannot be negative");
        let regions: Vec<Region> = decomp
            .region_boxes()
            .iter()
            .enumerate()
            .map(|(id, &valid)| {
                let grown = valid.grow(ghost);
                let layout = Layout::new(grown);
                Region {
                    id,
                    valid,
                    grown,
                    layout,
                    slab: Slab::new(layout.len(), backed),
                }
            })
            .collect();
        let patches = if ghost > 0 {
            Arc::new(decomp.ghost_patches(ghost, mode))
        } else {
            Arc::new(Vec::new())
        };
        TileArray {
            decomp,
            ghost,
            mode,
            regions,
            patches,
        }
    }

    pub fn decomp(&self) -> &Arc<Decomposition> {
        &self.decomp
    }

    pub fn ghost(&self) -> i64 {
        self.ghost
    }

    pub fn exchange_mode(&self) -> ExchangeMode {
        self.mode
    }

    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    pub fn region(&self, id: usize) -> &Region {
        &self.regions[id]
    }

    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The precomputed ghost-patch geometry.
    pub fn patches(&self) -> &[GhostPatch] {
        &self.patches
    }

    /// Shared handle to the precomputed ghost-patch geometry. The patch
    /// list is immutable after construction, so exchange loops that need an
    /// owned handle (to sidestep borrowing the array while applying
    /// patches) clone this `Arc` instead of copying the `Vec` — the ghost
    /// hot path must not allocate per exchange.
    pub fn patches_arc(&self) -> Arc<Vec<GhostPatch>> {
        Arc::clone(&self.patches)
    }

    /// Largest region buffer size in bytes — the device slot size TiDA-acc
    /// allocates so any region can occupy any slot.
    pub fn max_region_bytes(&self) -> u64 {
        self.regions.iter().map(Region::bytes).max().unwrap_or(0)
    }

    /// Total bytes across all region buffers (including ghosts).
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(Region::bytes).sum()
    }

    /// True when the backing slabs are virtual.
    pub fn is_virtual(&self) -> bool {
        self.regions.iter().any(|r| r.slab.is_virtual())
    }

    /// Fill every *valid* cell with `f(cell)`. Ghosts are left untouched;
    /// call [`TileArray::fill_boundary`] (or let the accelerator path do it)
    /// to make them coherent.
    pub fn fill_valid(&self, f: impl Fn(IntVect) -> f64) {
        for r in &self.regions {
            fill_box(r, r.valid, &f);
        }
    }

    /// Fill every cell of every grown box with `f(cell)` — including ghost
    /// cells, evaluated at their (possibly out-of-domain) coordinates.
    pub fn fill_grown(&self, f: impl Fn(IntVect) -> f64) {
        for r in &self.regions {
            fill_box(r, r.grown, &f);
        }
    }

    /// Host-side ghost exchange: apply every patch (data effect only; the
    /// simulated cost of exchanges is charged by the layer that drives
    /// them).
    pub fn fill_boundary(&self) {
        for p in self.patches.iter() {
            self.apply_patch(p);
        }
    }

    /// Apply one ghost patch on the host, one x-row at a time.
    pub fn apply_patch(&self, p: &GhostPatch) {
        let dst = &self.regions[p.dst_region];
        let src = &self.regions[p.src_region];
        let (nx, rows) = patch_rows(dst.layout, src.layout, p.dst_box, p.shift);
        memslab::copy_rows(&dst.slab, &src.slab, nx, rows);
    }

    /// Value at a valid cell (`None` when virtual or out of domain).
    pub fn value(&self, iv: IntVect) -> Option<f64> {
        let rid = self.decomp.region_containing(iv)?;
        let r = &self.regions[rid];
        r.slab.get(r.layout.offset(iv))
    }

    /// Set a valid cell (no-op when virtual; panics out of domain).
    pub fn set_value(&self, iv: IntVect, v: f64) {
        let rid = self
            .decomp
            .region_containing(iv)
            .unwrap_or_else(|| panic!("cell {iv} outside domain"));
        let r = &self.regions[rid];
        r.slab.set(r.layout.offset(iv), v);
    }

    /// Assemble the valid data into one dense domain-ordered vector
    /// (`None` when virtual). For validation against golden references.
    pub fn to_dense(&self) -> Option<Vec<f64>> {
        if self.is_virtual() {
            return None;
        }
        let dl = Layout::new(self.decomp.domain().bx);
        let mut out = vec![0.0; dl.len()];
        for r in &self.regions {
            with_view(&r.slab, r.layout, |v| {
                for iv in r.valid.iter() {
                    out[dl.offset(iv)] = v.at(iv);
                }
            });
        }
        Some(out)
    }

    /// Scatter a dense domain-ordered vector into the valid cells.
    pub fn from_dense(&self, data: &[f64]) {
        let dl = Layout::new(self.decomp.domain().bx);
        assert_eq!(data.len(), dl.len(), "dense data size mismatch");
        for r in &self.regions {
            with_view_mut(&r.slab, r.layout, |mut v| {
                for iv in r.valid.iter() {
                    v.set(iv, data[dl.offset(iv)]);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Domain, RegionSpec};

    fn decomp(n: i64, spec: RegionSpec) -> Arc<Decomposition> {
        Arc::new(Decomposition::new(Domain::periodic_cube(n), spec))
    }

    #[test]
    fn regions_are_ghost_grown() {
        let a = TileArray::new(
            decomp(8, RegionSpec::Count(2)),
            1,
            ExchangeMode::Faces,
            true,
        );
        assert_eq!(a.num_regions(), 2);
        let r = a.region(0);
        assert_eq!(r.valid.size(), IntVect::new(8, 8, 4));
        assert_eq!(r.grown.size(), IntVect::new(10, 10, 6));
        assert_eq!(r.slab.len(), 600);
        assert_eq!(r.bytes(), 4800);
    }

    #[test]
    fn patches_arc_shares_the_precomputed_list() {
        let a = TileArray::new(
            decomp(8, RegionSpec::Count(2)),
            1,
            ExchangeMode::Faces,
            true,
        );
        let h1 = a.patches_arc();
        let h2 = a.patches_arc();
        // Same allocation every time: the exchange hot path clones a
        // refcount, never the patch list itself.
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(h1.len(), a.patches().len());
        let clone = a.clone();
        assert!(Arc::ptr_eq(&h1, &clone.patches_arc()));
    }

    #[test]
    fn fill_and_read_back() {
        let a = TileArray::new(
            decomp(4, RegionSpec::Grid([2, 1, 1])),
            1,
            ExchangeMode::Faces,
            true,
        );
        a.fill_valid(|iv| (iv.x() * 100 + iv.y() * 10 + iv.z()) as f64);
        assert_eq!(a.value(IntVect::new(3, 2, 1)), Some(321.0));
        a.set_value(IntVect::new(3, 2, 1), -1.0);
        assert_eq!(a.value(IntVect::new(3, 2, 1)), Some(-1.0));
        assert_eq!(a.value(IntVect::new(9, 0, 0)), None);
    }

    #[test]
    fn row_fills_match_per_cell_reference() {
        // Uneven regions and a ghost width of 2, so rows start at varying
        // offsets; the ghost-only cells keep their prior contents under
        // fill_valid.
        let f = |iv: IntVect| ((iv.x() * 7919 + iv.y() * 104_729 + iv.z() * 31) as f64).sin();
        for grown in [false, true] {
            let a = TileArray::new(
                decomp(7, RegionSpec::Grid([2, 3, 1])),
                2,
                ExchangeMode::Full,
                true,
            );
            for r in a.regions() {
                r.slab.fill(-3.5);
            }
            if grown {
                a.fill_grown(f);
            } else {
                a.fill_valid(f);
            }
            for r in a.regions() {
                let expect = Slab::from_vec(vec![-3.5; r.layout.len()]);
                with_view_mut(&expect, r.layout, |mut v| {
                    for iv in if grown { r.grown } else { r.valid }.iter() {
                        v.set(iv, f(iv));
                    }
                });
                let (got, want) = (r.slab.snapshot().unwrap(), expect.snapshot().unwrap());
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "region {} differs (grown = {grown})",
                    r.id
                );
            }
        }
    }

    #[test]
    fn dense_roundtrip() {
        let a = TileArray::new(
            decomp(6, RegionSpec::Grid([2, 3, 1])),
            1,
            ExchangeMode::Full,
            true,
        );
        let data: Vec<f64> = (0..216).map(|i| i as f64).collect();
        a.from_dense(&data);
        assert_eq!(a.to_dense().unwrap(), data);
    }

    #[test]
    fn fill_boundary_matches_periodic_neighbors() {
        let a = TileArray::new(
            decomp(4, RegionSpec::Grid([2, 2, 1])),
            1,
            ExchangeMode::Full,
            true,
        );
        a.fill_valid(|iv| (iv.x() + 10 * iv.y() + 100 * iv.z()) as f64);
        a.fill_boundary();
        let n = 4i64;
        for r in a.regions() {
            with_view(&r.slab, r.layout, |v| {
                for iv in r.grown.iter() {
                    // Periodic wrap of the coordinate gives the expected value.
                    let w = IntVect::new(
                        iv.x().rem_euclid(n),
                        iv.y().rem_euclid(n),
                        iv.z().rem_euclid(n),
                    );
                    let expect = (w.x() + 10 * w.y() + 100 * w.z()) as f64;
                    assert_eq!(v.at(iv), expect, "region {} cell {iv}", r.id);
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn faces_mode_fills_face_ghosts_only() {
        let a = TileArray::new(
            decomp(4, RegionSpec::Count(2)),
            1,
            ExchangeMode::Faces,
            true,
        );
        a.fill_grown(|_| f64::NAN); // poison
        a.fill_valid(|_| 1.0);
        a.fill_boundary();
        let r = a.region(0);
        with_view(&r.slab, r.layout, |v| {
            // Face ghost: filled.
            assert_eq!(v.at(IntVect::new(0, 0, -1)), 1.0);
            assert_eq!(v.at(IntVect::new(-1, 0, 0)), 1.0);
            // Corner ghost: untouched in Faces mode.
            assert!(v.at(IntVect::new(-1, -1, -1)).is_nan());
        })
        .unwrap();
    }

    #[test]
    fn virtual_array_reports_and_skips() {
        let a = TileArray::new(
            decomp(4, RegionSpec::Count(2)),
            1,
            ExchangeMode::Faces,
            false,
        );
        assert!(a.is_virtual());
        a.fill_valid(|_| 1.0);
        a.fill_boundary();
        assert_eq!(a.to_dense(), None);
        assert_eq!(a.value(IntVect::ZERO), None);
    }

    #[test]
    fn max_region_bytes_uniform_slabs() {
        let a = TileArray::new(
            decomp(8, RegionSpec::Count(4)),
            1,
            ExchangeMode::Faces,
            false,
        );
        assert_eq!(a.max_region_bytes(), a.region(0).bytes());
        assert_eq!(a.total_bytes(), 4 * a.region(0).bytes());
    }

    #[test]
    fn zero_ghost_array_has_no_patches() {
        let a = TileArray::new(
            decomp(4, RegionSpec::Count(2)),
            0,
            ExchangeMode::Faces,
            true,
        );
        assert!(a.patches().is_empty());
        assert_eq!(a.region(0).grown, a.region(0).valid);
    }
}
