//! `tida` — the tiling substrate the paper's library extends.
//!
//! TiDA (Unat et al.) decomposes an array into *regions* (physically
//! separate, ghost-padded buffers) and *tiles* (logical partitions of a
//! region's iteration space), traversed by a tile iterator. This crate is a
//! from-scratch Rust implementation of those abstractions:
//!
//! * [`IntVect`], [`Box3`], [`Layout`] — 3-D index algebra and memory
//!   layout;
//! * [`Domain`], [`Decomposition`], [`GhostPatch`] — regular region grids
//!   with periodic neighbour geometry;
//! * [`TileArray`], [`Region`] — the decomposed container with host-side
//!   ghost exchange;
//! * [`Tile`], [`TileIter`] — logical tiling and traversal;
//! * [`View`]/[`ViewMut`] — borrowed cell access for kernels.
//!
//! The accelerator extension (device slots, caching, streams, overlap) lives
//! in the `tida-acc` crate, mirroring how the paper layers TiDA-acc on TiDA.

mod array;
mod box3;
mod domain;
mod exec;
mod ivec;
mod layout;
mod tile;
mod view;

pub use array::{Region, TileArray};
pub use box3::{Box3, CellIter};
pub use domain::{Decomposition, Domain, ExchangeMode, GhostPatch, RegionSpec};
pub use exec::{out_of_order_permutation, par_for_each_tile};
pub use ivec::IntVect;
pub use layout::{patch_rows, Layout};
pub use tile::{tiles_of, Tile, TileIter, TileSpec};
pub use view::{with_dst_src, with_many, with_view, with_view_mut, View, ViewMut};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn arb_domain() -> impl Strategy<Value = (Domain, RegionSpec)> {
        (
            4i64..12,
            proptest::array::uniform3(any::<bool>()),
            proptest::array::uniform3(1usize..3),
        )
            .prop_map(|(n, periodic, grid)| {
                (
                    Domain {
                        bx: Box3::cube(n),
                        periodic,
                    },
                    RegionSpec::Grid(grid),
                )
            })
    }

    proptest! {
        /// Regions always partition the domain exactly.
        #[test]
        fn prop_decomposition_partitions((dom, spec) in arb_domain()) {
            let d = Decomposition::new(dom, spec);
            let total: u64 = d.region_boxes().iter().map(|b| b.num_cells()).sum();
            prop_assert_eq!(total, dom.bx.num_cells());
            for (i, a) in d.region_boxes().iter().enumerate() {
                prop_assert!(dom.bx.contains_box(a));
                for b in &d.region_boxes()[i + 1..] {
                    prop_assert!(a.intersect(b).is_empty());
                }
            }
        }

        /// After fill_boundary in Full mode, every ghost cell whose periodic
        /// image exists holds the image's value; face ghosts likewise in
        /// Faces mode.
        #[test]
        fn prop_ghost_exchange_correct((dom, spec) in arb_domain(), full in any::<bool>()) {
            let mode = if full { ExchangeMode::Full } else { ExchangeMode::Faces };
            let d = Arc::new(Decomposition::new(dom, spec));
            let a = TileArray::new(d.clone(), 1, mode, true);
            let n = dom.bx.size();
            let f = |iv: IntVect| (1 + iv.x() + 37 * iv.y() + 1009 * iv.z()) as f64;
            a.fill_grown(|_| f64::NAN);
            a.fill_valid(f);
            a.fill_boundary();

            for p in a.patches() {
                let r = a.region(p.dst_region);
                with_view(&r.slab, r.layout, |v| {
                    for iv in p.dst_box.iter() {
                        // The ghost must now hold the periodic image value.
                        let w = IntVect::new(
                            iv.x().rem_euclid(n.x()),
                            iv.y().rem_euclid(n.y()),
                            iv.z().rem_euclid(n.z()),
                        );
                        assert_eq!(v.at(iv), f(w), "patch dst {} cell {iv}", p.dst_region);
                    }
                }).unwrap();
            }
        }

        /// Tiling with any size partitions every region's valid box.
        #[test]
        fn prop_tiles_partition((dom, spec) in arb_domain(), ts in proptest::array::uniform3(1i64..6)) {
            let d = Decomposition::new(dom, spec);
            let tiles = tiles_of(&d, TileSpec::Size(IntVect(ts)));
            for rid in 0..d.num_regions() {
                let mine: Vec<&Tile> = tiles.iter().filter(|t| t.region == rid).collect();
                let total: u64 = mine.iter().map(|t| t.num_cells()).sum();
                prop_assert_eq!(total, d.region_box(rid).num_cells());
                for (i, a) in mine.iter().enumerate() {
                    prop_assert!(d.region_box(rid).contains_box(&a.bx));
                    for b in &mine[i + 1..] {
                        prop_assert!(a.bx.intersect(&b.bx).is_empty());
                    }
                }
            }
        }

        /// subtract() exactly partitions the difference for random boxes.
        #[test]
        fn prop_box_subtract_partitions(
            alo in proptest::array::uniform3(-6i64..6),
            asz in proptest::array::uniform3(1i64..6),
            blo in proptest::array::uniform3(-8i64..8),
            bsz in proptest::array::uniform3(1i64..8),
        ) {
            let a = Box3::new(IntVect(alo), IntVect(alo) + IntVect(asz) - IntVect::UNIT);
            let b = Box3::new(IntVect(blo), IntVect(blo) + IntVect(bsz) - IntVect::UNIT);
            let parts = a.subtract(&b);
            // Cell-exact check.
            for iv in a.iter() {
                let in_b = b.contains(iv);
                let covered = parts.iter().filter(|p| p.contains(iv)).count();
                prop_assert_eq!(covered, usize::from(!in_b), "cell {} of {} minus {}", iv, a, b);
            }
            for p in &parts {
                prop_assert!(a.contains_box(p));
            }
        }

        /// Dense scatter/gather is the identity on valid data.
        #[test]
        fn prop_dense_roundtrip((dom, spec) in arb_domain()) {
            let d = Arc::new(Decomposition::new(dom, spec));
            let a = TileArray::new(d, 2, ExchangeMode::Full, true);
            let data: Vec<f64> = (0..dom.bx.num_cells()).map(|i| i as f64 * 0.5).collect();
            a.from_dense(&data);
            prop_assert_eq!(a.to_dense().unwrap(), data);
        }
    }
}
