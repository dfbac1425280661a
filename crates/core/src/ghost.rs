//! Ghost-cell updates (§IV-B-6, Fig. 4).
//!
//! In GPU mode, `fill_boundary` first synchronizes the device (the paper's
//! `acc wait`), then walks the patch list. For each patch whose destination
//! region is (or becomes) device-resident, the *host* computes the
//! source/destination index lists — charged on the host clock — and launches
//! an index-list gather kernel in the destination slot's stream. Because the
//! launches are asynchronous, the host computes the next patch's indices
//! while the device applies the previous one: the CPU/GPU overlap of Fig. 4.
//! That is the simulated cost; the data effect of a backed run moves the
//! patch one x-row at a time (`tida::patch_rows` + `memslab::copy_rows`).
//!
//! Patches whose regions all live on the host are applied directly on the
//! host copies (the paper's "update of ghost cells of a region takes place
//! in CPU or GPU depending on the location of the region"), and a static
//! slot conflict between the two regions of a patch falls back to the host
//! path as well. Fatal failures (a crashed platform) propagate as
//! [`AccError`] — an interrupted exchange leaves ghost cells stale, which is
//! exactly what checkpoint restore repairs by replaying the exchange.

use crate::error::AccError;
use crate::tileacc::{AcquireFail, ArrayId, Residency, TileAcc};
use gpu_sim::{KernelCost, KernelLaunch};
use tida::GhostPatch;

impl TileAcc {
    /// Update the ghost cells of every region of `array` from its
    /// neighbours, on the device when possible.
    pub fn fill_boundary(&mut self, array: ArrayId) -> Result<(), AccError> {
        // The exchange mutates `self` per patch, so it cannot hold a borrow
        // of the patch list; clone the `Arc` handle (a refcount bump) rather
        // than the list itself — this runs once per step and must not
        // allocate.
        let patches = self.array(array).patches_arc();
        if patches.is_empty() {
            return Ok(());
        }
        if !self.gpu_enabled() || !self.ghost_on_device() {
            for p in patches.iter() {
                self.host_patch(array, p)?;
            }
            return Ok(());
        }

        // The paper synchronizes all streams before starting the update
        // (`acc wait`). The barrier-free extension relies on per-slot event
        // ordering instead (foreign-consumer drains below), letting the
        // exchange pipeline behind still-running kernels.
        if self.ghost_barrier() {
            self.gpu_mut().device_synchronize();
        }

        if self.ghost_batching() {
            return self.fill_boundary_batched(array, &patches);
        }
        for p in patches.iter() {
            let dst_res = self.residency(array, p.dst_region);
            let src_res = self.residency(array, p.src_region);
            if dst_res == Residency::Host && src_res == Residency::Host {
                // Both host-resident: update in place, no transfers.
                self.host_patch(array, p)?;
                continue;
            }
            self.device_patch(array, p)?;
        }
        Ok(())
    }

    /// Batched exchange: one combined gather kernel per destination region
    /// covering all of its patches (same traffic, far fewer launches).
    fn fill_boundary_batched(
        &mut self,
        array: ArrayId,
        patches: &[GhostPatch],
    ) -> Result<(), AccError> {
        let regions = self.array(array).num_regions();
        for dst in 0..regions {
            let mine: Vec<GhostPatch> = patches
                .iter()
                .filter(|p| p.dst_region == dst)
                .copied()
                .collect();
            if mine.is_empty() {
                continue;
            }
            let all_host = self.residency(array, dst) == Residency::Host
                && mine
                    .iter()
                    .all(|p| self.residency(array, p.src_region) == Residency::Host);
            if all_host {
                for p in &mine {
                    self.host_patch(array, p)?;
                }
                continue;
            }
            if !self.batched_device_patches(array, dst, &mine)? {
                // Slot conflict among the operands: per-patch fallback.
                self.bump_conflict();
                for p in &mine {
                    let dst_res = self.residency(array, p.dst_region);
                    let src_res = self.residency(array, p.src_region);
                    if dst_res == Residency::Host && src_res == Residency::Host {
                        self.host_patch(array, p)?;
                    } else {
                        self.device_patch(array, p)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Launch one gather kernel updating all ghost patches of `dst`.
    /// `Ok(false)` is a slot conflict among the operands (degradable);
    /// fatal failures propagate.
    fn batched_device_patches(
        &mut self,
        array: ArrayId,
        dst: usize,
        mine: &[GhostPatch],
    ) -> Result<bool, AccError> {
        // Acquire every distinct operand region, pinning as we go.
        let mut pinned: Vec<usize> = Vec::new();
        let mut src_slots: Vec<(usize, usize)> = Vec::new(); // (region, slot)
        for p in mine {
            if src_slots.iter().any(|&(r, _)| r == p.src_region) {
                continue;
            }
            match self.acquire_device(array, p.src_region, &pinned) {
                Ok(s) => {
                    if !pinned.contains(&s) {
                        pinned.push(s);
                    }
                    src_slots.push((p.src_region, s));
                }
                Err(AcquireFail::Fatal(e)) => return Err(e),
                Err(AcquireFail::Fallback) => return Ok(false),
            }
        }
        // The gather writes the destination's ghost cells: a read-write
        // intent, so the plan recorder predicts the dirtying and never
        // prefetches over a region a future exchange is about to write.
        let s_dst = match self.acquire_device_rw(array, dst, &pinned) {
            Ok(s) => s,
            Err(AcquireFail::Fatal(e)) => return Err(e),
            Err(AcquireFail::Fallback) => return Ok(false),
        };

        let total_cells: u64 = mine.iter().map(|p| p.num_cells()).sum();
        let idx_time = self.gpu().config().host_index_time(total_cells);
        self.gpu_mut().host_work(idx_time, desim::sym!("ghost-idx"));

        // Order the combined kernel after every source slot's stream and
        // after foreign uses of the destination slot it writes.
        let dst_stream = self.slot_stream(s_dst);
        for &(_, s) in &src_slots {
            if s != s_dst {
                let src_stream = self.slot_stream(s);
                let ev = self.gpu_mut().record_event(src_stream);
                self.gpu_mut().stream_wait_event(dst_stream, ev);
            }
        }
        self.drain_consumers_pub(s_dst, s_dst);

        let backed = self.gpu().backed();
        let dst_slab = self.gpu().device_slab(self.slot_dev(s_dst));
        let dst_layout = self.array(array).region(dst).layout;
        let srcs: Vec<(GhostPatch, memslab::Slab, tida::Layout)> = if backed {
            mine.iter()
                .map(|p| {
                    let slot = src_slots
                        .iter()
                        .find(|&&(r, _)| r == p.src_region)
                        .expect("acquired above")
                        .1;
                    (
                        *p,
                        self.gpu().device_slab(self.slot_dev(slot)),
                        self.array(array).region(p.src_region).layout,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let eff = self.kernel_efficiency();
        let mut launch =
            gpu_sim::KernelLaunch::new("ghost-batch", KernelCost::Bytes(total_cells * 16))
                .efficiency(eff)
                .writes(self.slot_dev(s_dst).into())
                .exec_if(backed, move || {
                    for (patch, src_slab, src_layout) in &srcs {
                        let (nx, rows) =
                            tida::patch_rows(dst_layout, *src_layout, patch.dst_box, patch.shift);
                        memslab::copy_rows(&dst_slab, src_slab, nx, rows);
                    }
                });
        for &(_, s) in &src_slots {
            launch = launch.reads(self.slot_dev(s).into());
        }
        self.gpu_mut().launch_kernel(dst_stream, launch);
        self.mark_shell_dirty(s_dst);
        for &(_, s) in &src_slots {
            self.note_foreign_read_pub(s, s_dst);
        }
        for _ in mine {
            self.bump_ghost_gpu();
        }
        // The crash trigger may have fired on one of this exchange's
        // transfers or on the gather launch itself.
        self.check_alive_pub()?;
        Ok(true)
    }

    /// Apply one patch on the host copies (also draining any in-flight
    /// write-backs of the two regions).
    fn host_patch(&mut self, array: ArrayId, p: &GhostPatch) -> Result<(), AccError> {
        self.acquire_host(array, p.src_region)?;
        self.acquire_host(array, p.dst_region)?;
        let cells = p.num_cells();
        let cfg = self.gpu().config();
        let cost = cfg.host_index_time(cells) + cfg.host_copy_time(cells * 16);
        self.array(array).apply_patch(p);
        self.gpu_mut().host_work(cost, desim::sym!("ghost-host"));
        self.bump_ghost_host();
        Ok(())
    }

    /// Apply one patch with a device gather kernel.
    fn device_patch(&mut self, array: ArrayId, p: &GhostPatch) -> Result<(), AccError> {
        let s_src = match self.acquire_device(array, p.src_region, &[]) {
            Ok(s) => s,
            Err(AcquireFail::Fatal(e)) => return Err(e),
            Err(AcquireFail::Fallback) => {
                self.bump_conflict();
                return self.host_patch(array, p);
            }
        };
        let s_dst = match self.acquire_device_rw(array, p.dst_region, &[s_src]) {
            Ok(s) => s,
            Err(AcquireFail::Fatal(e)) => return Err(e),
            Err(AcquireFail::Fallback) => {
                self.bump_conflict();
                return self.host_patch(array, p);
            }
        };

        // Host-side index computation (overlaps with previously launched
        // gather kernels because those were asynchronous).
        let cells = p.num_cells();
        let idx_time = self.gpu().config().host_index_time(cells);
        self.gpu_mut().host_work(idx_time, desim::sym!("ghost-idx"));

        if s_src != s_dst {
            let src_stream = self.slot_stream(s_src);
            let dst_stream = self.slot_stream(s_dst);
            let ev = self.gpu_mut().record_event(src_stream);
            self.gpu_mut().stream_wait_event(dst_stream, ev);
        }

        // Barrier-free correctness: the gather writes s_dst, so it must
        // wait for kernels in other streams still reading it.
        self.drain_consumers_pub(s_dst, s_dst);

        let backed = self.gpu().backed();
        let dst_slab = self.gpu().device_slab(self.slot_dev(s_dst));
        let src_slab = self.gpu().device_slab(self.slot_dev(s_src));
        let dst_layout = self.array(array).region(p.dst_region).layout;
        let src_layout = self.array(array).region(p.src_region).layout;
        let patch = *p;
        let eff = self.kernel_efficiency();
        let (sdev, ddev) = (self.slot_dev(s_src), self.slot_dev(s_dst));
        let stream = self.slot_stream(s_dst);
        self.gpu_mut().launch_kernel(
            stream,
            KernelLaunch::new("ghost", KernelCost::Bytes(cells * 16))
                .efficiency(eff)
                .reads(sdev.into())
                .writes(ddev.into())
                .exec_if(backed, move || {
                    let (nx, rows) =
                        tida::patch_rows(dst_layout, src_layout, patch.dst_box, patch.shift);
                    memslab::copy_rows(&dst_slab, &src_slab, nx, rows);
                }),
        );
        self.mark_shell_dirty(s_dst);
        self.note_foreign_read_pub(s_src, s_dst);
        self.bump_ghost_gpu();
        // The crash trigger may have fired on this patch's transfers or on
        // the gather launch itself.
        self.check_alive_pub()
    }
}
