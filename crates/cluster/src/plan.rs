//! Per-region exchange plans: what a step moves between host and device
//! for each region, which ghost patches cross the wire, which travel
//! device to device inside a node, and which ghosts the device fills
//! itself.
//!
//! A plan depends only on the decomposition, the transport and the region
//! owners, so [`crate::Cluster`] builds one per registered array when it
//! first assigns owners and rebuilds it when a migration moves them; a
//! step only reads it.

use gpu_sim::{MachineConfig, SimTime};
use std::ops::Range;
use tida::{GhostPatch, TileArray};

/// How a cluster moves ghost data between regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Every region's whole grown slab goes device→host, every ghost
    /// patch travels as a message (same-device ones over the local host
    /// path), and the whole slab comes back host→device. The host mirror
    /// of the source is exact after every step.
    HostStaged,
    /// Only the cells of patches that leave the node go device→host,
    /// only those patches travel as messages, and only the received ghost
    /// cells come back host→device. Same-device patches (periodic
    /// self-patches and neighbours on the same device) never leave the
    /// device: one ghost-fill kernel per region copies them in place.
    /// Patches between two devices of one node never touch the host: a
    /// pack kernel, a peer copy and an unpack kernel move each one.
    #[default]
    FacePacked,
}

/// One host↔device staging copy of a region slab: the cells
/// `off..off + len`, the same on both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Xfer {
    pub(crate) off: usize,
    pub(crate) len: usize,
}

impl Xfer {
    /// The whole slab of `len` cells.
    pub(crate) fn whole(len: usize) -> Xfer {
        Xfer { off: 0, len }
    }
}

/// A region's device-side ghost fill: the same-device patches into it.
#[derive(Debug)]
pub(crate) struct Fill {
    /// The patches, in patch-list order.
    pub(crate) patches: Vec<GhostPatch>,
    /// Source regions other than the filled one, each once.
    pub(crate) sources: Vec<usize>,
    /// Whether a patch reads the filled region itself (a periodic
    /// self-patch).
    pub(crate) reads_self: bool,
    /// Ghost cells written.
    pub(crate) cells: u64,
}

/// What one step moves for one region.
#[derive(Debug)]
pub(crate) struct RegionPlan {
    /// Phase 1 device→host copies, as a range of the plan's copy list
    /// (empty: nothing leaves the device).
    send: Range<usize>,
    /// Whether the send copies cover the whole slab, leaving the host copy
    /// an exact mirror of the device one.
    pub(crate) send_whole: bool,
    /// The device-side ghost fill, if any patch into the region stays on
    /// its device.
    pub(crate) fill: Option<Fill>,
    /// Phase 4 host→device copies, as a range of the plan's copy list
    /// (empty: nothing arrives over the wire).
    recv: Range<usize>,
    /// The peer patches into the region, as a range of the plan's peer
    /// list.
    pub(crate) peers_in: Range<usize>,
    /// Whether a peer patch reads the region (its exchange stream packs).
    pub(crate) packs: bool,
}

/// One array's exchange plan under one transport and one owner map.
#[derive(Debug)]
pub(crate) struct ExchangePlan {
    pub(crate) regions: Vec<RegionPlan>,
    /// Every region's copies, back to back.
    copies: Vec<Xfer>,
    /// Indices into the array's patch list of the patches that travel as
    /// messages, in patch-list order.
    pub(crate) wire: Vec<usize>,
    /// Indices into the array's patch list of the patches between two
    /// devices of one node, grouped by destination region.
    pub(crate) peers: Vec<usize>,
    /// Whether any region has a device-side fill.
    pub(crate) fills: bool,
}

impl ExchangePlan {
    /// Region `r`'s phase 1 device→host copies.
    pub(crate) fn send(&self, r: usize) -> &[Xfer] {
        &self.copies[self.regions[r].send.clone()]
    }

    /// Region `r`'s phase 4 host→device copies.
    pub(crate) fn recv(&self, r: usize) -> &[Xfer] {
        &self.copies[self.regions[r].recv.clone()]
    }

    /// Whether region `r`'s exchange stream carries any of the step's
    /// copies, deliveries, packs or unpacks.
    pub(crate) fn uses_exchange_stream(&self, r: usize) -> bool {
        let rp = &self.regions[r];
        !rp.send.is_empty() || !rp.recv.is_empty() || rp.packs || !rp.peers_in.is_empty()
    }

    /// Plan `array`'s exchange with region `r` owned by global device
    /// slot `owner[r]` (node `owner[r] / dpn`), pricing copies on `cfg`.
    pub(crate) fn build(
        transport: Transport,
        array: &TileArray,
        owner: &[usize],
        dpn: usize,
        cfg: &MachineConfig,
    ) -> ExchangePlan {
        let patches = array.patches();
        let n = owner.len();
        let mut copies = Vec::with_capacity(2 * n);
        if transport == Transport::HostStaged {
            let regions = (0..n)
                .map(|r| {
                    let whole = Xfer::whole(array.region(r).layout.len());
                    RegionPlan {
                        send: append(&mut copies, [whole]),
                        send_whole: true,
                        fill: None,
                        recv: append(&mut copies, [whole]),
                        peers_in: 0..0,
                        packs: false,
                    }
                })
                .collect();
            return ExchangePlan {
                regions,
                copies,
                wire: (0..patches.len()).collect(),
                peers: Vec::new(),
                fills: false,
            };
        }

        let local = |p: &GhostPatch| owner[p.src_region] == owner[p.dst_region];
        let same_node = |p: &GhostPatch| owner[p.src_region] / dpn == owner[p.dst_region] / dpn;
        let wire: Vec<usize> = (0..patches.len())
            .filter(|&i| !same_node(&patches[i]))
            .collect();
        let mut peers_into: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut packs = vec![false; n];
        for (i, p) in patches.iter().enumerate() {
            if same_node(p) && !local(p) {
                peers_into[p.dst_region].push(i);
                packs[p.src_region] = true;
            }
        }
        let mut peers = Vec::new();
        let mut send_runs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut recv_runs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for &i in &wire {
            let p = &patches[i];
            let src_layout = array.region(p.src_region).layout;
            send_runs[p.src_region].extend(src_layout.box_runs(p.dst_box.shift(-p.shift)));
            let dst_layout = array.region(p.dst_region).layout;
            recv_runs[p.dst_region].extend(dst_layout.box_runs(p.dst_box));
        }
        let mut fills: Vec<Option<Fill>> = (0..n).map(|_| None).collect();
        for p in patches.iter().filter(|p| local(p)) {
            let r = p.dst_region;
            let fill = fills[r].get_or_insert_with(|| Fill {
                patches: Vec::new(),
                sources: Vec::new(),
                reads_self: false,
                cells: 0,
            });
            fill.patches.push(*p);
            fill.cells += p.num_cells();
            if p.src_region == r {
                fill.reads_self = true;
            } else if !fill.sources.contains(&p.src_region) {
                fill.sources.push(p.src_region);
            }
        }

        let d2h = |cells: usize| cfg.d2h_time(f64_bytes(cells));
        let h2d = |cells: usize| cfg.h2d_time(f64_bytes(cells));
        let any_fill = fills.iter().any(Option::is_some);
        let regions = fills
            .into_iter()
            .enumerate()
            .map(|(r, fill)| {
                let region = array.region(r);
                let layout = region.layout;
                // The host slab of a resident region is not authoritative:
                // a device→host copy may carry any cell between the runs.
                let send = cover(union(std::mem::take(&mut send_runs[r])), |_, _| true, d2h);
                // A host→device copy must not overwrite a valid cell (the
                // device holds the only fresh copy) or a cell the fill or
                // an unpack writes (the host never sees it).
                let mut kept = layout.box_runs(region.valid);
                let filled = fill.iter().flat_map(|f| f.patches.iter().copied());
                let unpacked = peers_into[r].iter().map(|&i| patches[i]);
                for p in filled.chain(unpacked) {
                    kept.extend(layout.box_runs(p.dst_box));
                }
                let kept = union(kept);
                let recv = cover(
                    union(std::mem::take(&mut recv_runs[r])),
                    |from, to| !overlaps(&kept, from, to),
                    h2d,
                );
                let send_whole = send == [Xfer::whole(layout.len())];
                let from = peers.len();
                peers.append(&mut peers_into[r]);
                RegionPlan {
                    send: append(&mut copies, send),
                    send_whole,
                    fill,
                    recv: append(&mut copies, recv),
                    peers_in: from..peers.len(),
                    packs: packs[r],
                }
            })
            .collect();
        ExchangePlan {
            regions,
            copies,
            wire,
            peers,
            fills: any_fill,
        }
    }
}

/// Append `xs` to `copies`; returns where they landed.
fn append(copies: &mut Vec<Xfer>, xs: impl IntoIterator<Item = Xfer>) -> Range<usize> {
    let from = copies.len();
    copies.extend(xs);
    from..copies.len()
}

fn f64_bytes(cells: usize) -> u64 {
    (cells * std::mem::size_of::<f64>()) as u64
}

/// Sort `runs` and merge the ones that overlap or abut.
fn union(mut runs: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    runs.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(runs.len());
    for (off, len) in runs {
        match out.last_mut() {
            Some(last) if off <= last.0 + last.1 => {
                last.1 = last.1.max(off + len - last.0);
            }
            _ => out.push((off, len)),
        }
    }
    out
}

/// Whether any of the sorted, disjoint `runs` meets the cells
/// `from..to`.
fn overlaps(runs: &[(usize, usize)], from: usize, to: usize) -> bool {
    let i = runs.partition_point(|&(off, len)| off + len <= from);
    runs.get(i).is_some_and(|&(off, _)| off < to)
}

/// Ranged copies moving the cells of sorted, disjoint `runs`, each
/// covering a stretch of runs and the gaps between them.
///
/// A gap is covered when `may_cover(from, to)` allows it and moving its
/// cells takes no longer than the fixed cost of one more copy; `ranged`
/// prices a copy of that many cells.
fn cover(
    runs: Vec<(usize, usize)>,
    may_cover: impl Fn(usize, usize) -> bool,
    ranged: impl Fn(usize) -> SimTime,
) -> Vec<Xfer> {
    let fixed = ranged(0);
    let mut copies: Vec<Xfer> = Vec::with_capacity(runs.len());
    for (off, len) in runs {
        match copies.last_mut() {
            Some(last)
                if ranged(off - (last.off + last.len)) - fixed <= fixed
                    && may_cover(last.off + last.len, off) =>
            {
                last.len = off + len - last.off;
            }
            _ => copies.push(Xfer { off, len }),
        }
    }
    copies
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tida::{Decomposition, Domain, ExchangeMode, RegionSpec};

    fn array(spec: RegionSpec, mode: ExchangeMode) -> TileArray {
        let d = Arc::new(Decomposition::new(Domain::periodic_cube(8), spec));
        TileArray::new(d, 1, mode, false)
    }

    #[test]
    fn union_merges_overlapping_and_abutting_runs() {
        assert_eq!(
            union(vec![(10, 2), (0, 3), (3, 1), (11, 4), (20, 1)]),
            vec![(0, 4), (10, 5), (20, 1)]
        );
    }

    #[test]
    fn overlaps_finds_any_meeting_run() {
        let runs = [(2, 3), (10, 2)];
        assert!(!overlaps(&runs, 0, 2));
        assert!(overlaps(&runs, 0, 3));
        assert!(!overlaps(&runs, 5, 10));
        assert!(overlaps(&runs, 11, 30));
        assert!(!overlaps(&runs, 12, 30));
    }

    #[test]
    fn host_staged_moves_whole_slabs_and_puts_every_patch_on_the_wire() {
        let a = array(RegionSpec::Count(4), ExchangeMode::Faces);
        let cfg = MachineConfig::k40m();
        let plan = ExchangePlan::build(Transport::HostStaged, &a, &[0, 0, 1, 1], 1, &cfg);
        assert_eq!(plan.wire.len(), a.patches().len());
        assert!(!plan.fills);
        for (r, rp) in plan.regions.iter().enumerate() {
            let whole = Xfer::whole(a.region(r).layout.len());
            assert_eq!(plan.send(r), std::slice::from_ref(&whole));
            assert_eq!(plan.recv(r), [whole]);
            assert!(rp.send_whole && rp.fill.is_none());
        }
    }

    #[test]
    fn face_packed_z_slabs_send_one_face_and_fill_the_rest_on_the_device() {
        // Four 8x8x2 z-slabs, two per device: each region has one
        // neighbour across the wire and one on its own device.
        let a = array(RegionSpec::Count(4), ExchangeMode::Faces);
        let cfg = MachineConfig::k40m();
        let plan = ExchangePlan::build(Transport::FacePacked, &a, &[0, 0, 1, 1], 1, &cfg);
        assert_eq!(plan.wire.len(), 4, "one face per region crosses");
        let face = 8 * 8;
        for (r, rp) in plan.regions.iter().enumerate() {
            let layout = a.region(r).layout;
            // One covering copy per direction: the face rows and the two
            // ghost columns between them.
            let moved = |x: &[Xfer]| match x {
                [one] => one.len,
                other => panic!("region {r}: expected one ranged copy, got {other:?}"),
            };
            assert_eq!(moved(plan.send(r)), face + 7 * 2);
            assert_eq!(moved(plan.recv(r)), face + 7 * 2);
            assert!(!rp.send_whole && plan.send(r)[0].len < layout.len());
            let fill = rp.fill.as_ref().expect("same-device ghosts");
            assert!(fill.reads_self, "periodic x/y self-patches");
            assert_eq!(fill.sources.len(), 1);
            assert_eq!(fill.cells, 4 * 8 * 2 + face as u64);
        }
    }

    #[test]
    fn two_devices_of_one_node_trade_faces_peer_to_peer() {
        // The same four z-slabs on one node with two devices: the faces
        // between the devices become peer patches and nothing is staged.
        let a = array(RegionSpec::Count(4), ExchangeMode::Faces);
        let cfg = MachineConfig::k40m();
        let owner = [0, 0, 1, 1];
        let plan = ExchangePlan::build(Transport::FacePacked, &a, &owner, 2, &cfg);
        assert!(plan.wire.is_empty(), "nothing leaves the node");
        assert_eq!(plan.peers.len(), 4, "one cross-device face per region");
        for (r, rp) in plan.regions.iter().enumerate() {
            assert!(plan.send(r).is_empty() && plan.recv(r).is_empty());
            assert!(rp.packs);
            let peers = &plan.peers[rp.peers_in.clone()];
            assert_eq!(peers.len(), 1);
            let p = a.patches()[peers[0]];
            assert_eq!(p.dst_region, r);
            assert_ne!(owner[p.src_region], owner[r], "peers cross devices");
            assert!(rp
                .fill
                .as_ref()
                .unwrap()
                .patches
                .iter()
                .all(|p| { owner[p.src_region] == owner[r] }));
        }

        // Host staging ignores devices: every patch still travels.
        let staged = ExchangePlan::build(Transport::HostStaged, &a, &owner, 2, &cfg);
        assert_eq!(staged.wire.len(), a.patches().len());
        assert!(staged.peers.is_empty() && !staged.fills);
        for (r, rp) in staged.regions.iter().enumerate() {
            let whole = Xfer::whole(a.region(r).layout.len());
            assert_eq!(staged.send(r), [whole]);
            assert_eq!(staged.recv(r), [whole]);
            assert!(rp.send_whole && !rp.packs && rp.peers_in.is_empty());
        }
    }

    #[test]
    fn faces_split_by_valid_cells_upload_in_separate_copies() {
        // A [4,2,1] grid over two devices: the y-faces cross, and each
        // region receives two ghost rows per z-plane with valid cells
        // between them, so the upload cannot be one covering copy. The
        // send rows have only ghosts between them and go out as one.
        let a = array(RegionSpec::Grid([4, 2, 1]), ExchangeMode::Faces);
        let cfg = MachineConfig::k40m();
        let owner = [0, 0, 0, 0, 1, 1, 1, 1];
        let plan = ExchangePlan::build(Transport::FacePacked, &a, &owner, 1, &cfg);
        for r in 0..owner.len() {
            assert!(plan.recv(r).len() > 1, "region {r}: {:?}", plan.recv(r));
            assert_eq!(plan.send(r).len(), 1, "region {r}: {:?}", plan.send(r));
        }
    }

    #[test]
    fn uploads_carry_every_received_cell_and_no_valid_or_filled_one() {
        // Two single-device nodes, and two nodes of two devices each.
        let layouts = [(2, 1), (4, 2)];
        for spec in [RegionSpec::Grid([2, 2, 2]), RegionSpec::Grid([4, 2, 1])] {
            for mode in [ExchangeMode::Faces, ExchangeMode::Full] {
                for (slots, dpn) in layouts {
                    let a = array(spec, mode);
                    let n = a.decomp().num_regions();
                    let owner: Vec<usize> = (0..n).map(|r| r * slots / n).collect();
                    let cfg = MachineConfig::k40m();
                    let plan = ExchangePlan::build(Transport::FacePacked, &a, &owner, dpn, &cfg);
                    check_uploads(&a, &plan, &format!("{spec:?} {mode:?} {slots}/{dpn}"));
                }
            }
        }
    }

    fn check_uploads(a: &TileArray, plan: &ExchangePlan, case: &str) {
        for (r, rp) in plan.regions.iter().enumerate() {
            let region = a.region(r);
            let mut kept = region.layout.box_runs(region.valid);
            let unpacked = plan.peers[rp.peers_in.clone()]
                .iter()
                .map(|&i| &a.patches()[i]);
            for p in rp.fill.iter().flat_map(|f| &f.patches).chain(unpacked) {
                kept.extend(region.layout.box_runs(p.dst_box));
            }
            let kept = union(kept);
            let recv = plan.recv(r);
            for x in recv {
                assert!(!overlaps(&kept, x.off, x.off + x.len), "{case} r{r}");
            }
            let received = plan.wire.iter().map(|&i| a.patches()[i]);
            for p in received.filter(|p| p.dst_region == r) {
                for (off, len) in region.layout.box_runs(p.dst_box) {
                    assert!(
                        recv.iter()
                            .any(|x| x.off <= off && off + len <= x.off + x.len),
                        "{case} r{r}: run ({off}, {len}) not uploaded"
                    );
                }
            }
        }
    }
}
