//! The memory-controller state machine.

use std::fmt;

use lastcpu_bus::{
    CorrId, DeviceId, Dst, Envelope, MapOp, Payload, RequestId, ResourceKind, Status,
};
use lastcpu_mem::{FrameAllocator, PAGE_SHIFT, PAGE_SIZE};
use lastcpu_sim::DetHashMap;

/// One share of a region into another device's address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareEntry {
    /// Device that received the mapping.
    pub device: DeviceId,
    /// Address space on that device.
    pub pasid: u32,
    /// Virtual base of the mapping.
    pub va: u64,
    /// Permission bits granted.
    pub perms: u8,
}

/// One allocated region in the controller's tables.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region handle.
    pub id: u64,
    /// Owning device.
    pub owner: DeviceId,
    /// Owning address space.
    pub pasid: u32,
    /// Virtual base in the owner's address space.
    pub va: u64,
    /// Length in pages.
    pub pages: u64,
    /// First physical frame backing the region.
    pub first_frame: u64,
    /// Permission bits on the owner's mapping.
    pub perms: u8,
    /// Grants to other devices.
    pub shares: Vec<ShareEntry>,
}

impl Region {
    /// Region length in bytes.
    pub fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE
    }
}

/// Controller configuration.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemCtlConfig {
    /// Per-device byte quota (`None` = unlimited).
    pub per_device_quota: Option<u64>,
}

/// Controller counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemCtlStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Successful shares.
    pub shares: u64,
    /// Requests denied (ownership, quota).
    pub denials: u64,
    /// Allocations failed for lack of memory.
    pub oom: u64,
    /// Bytes currently allocated.
    pub bytes_in_use: u64,
    /// High-water mark of `bytes_in_use`.
    pub peak_bytes: u64,
    /// Regions reclaimed from failed devices.
    pub reclaimed: u64,
}

/// The memory-controller device logic.
///
/// # Examples
///
/// ```
/// use lastcpu_bus::{DeviceId, Dst, Envelope, Payload, RequestId};
/// use lastcpu_memctl::MemoryController;
///
/// let mut mc = MemoryController::new(DeviceId(3), 64 * 1024 * 1024);
/// let mut out = Vec::new();
/// // Startup: the controller claims the Memory resource class.
/// mc.on_start(&mut out);
/// assert!(matches!(out[0].payload, Payload::RegisterController { .. }));
/// ```
pub struct MemoryController {
    id: DeviceId,
    frames: FrameAllocator,
    regions: DetHashMap<u64, Region>,
    next_region: u64,
    /// Bytes each device has allocated, sorted by device; a device is
    /// listed from its first allocation on.
    usage: Vec<(DeviceId, u64)>,
    config: MemCtlConfig,
    stats: MemCtlStats,
    next_req: u64,
}

impl MemoryController {
    /// Creates a controller with bus address `id` managing `dram_bytes` of
    /// physical memory.
    pub fn new(id: DeviceId, dram_bytes: u64) -> Self {
        Self::with_config(id, dram_bytes, MemCtlConfig::default())
    }

    /// Creates a controller with an explicit configuration.
    pub fn with_config(id: DeviceId, dram_bytes: u64, config: MemCtlConfig) -> Self {
        MemoryController {
            id,
            frames: FrameAllocator::new(dram_bytes >> PAGE_SHIFT),
            regions: DetHashMap::default(),
            next_region: 1,
            usage: Vec::new(),
            config,
            stats: MemCtlStats::default(),
            next_req: 1,
        }
    }

    /// The controller's bus address.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Counters.
    pub fn stats(&self) -> MemCtlStats {
        self.stats
    }

    /// Bytes of physical memory still free.
    pub fn free_bytes(&self) -> u64 {
        self.frames.free_frames() * PAGE_SIZE
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Looks up a region by handle.
    pub fn region(&self, id: u64) -> Option<&Region> {
        self.regions.get(&id)
    }

    /// Fragmentation proxy: number of free blocks in the frame allocator.
    pub fn free_block_count(&self) -> usize {
        self.frames.free_block_count()
    }

    fn req(&mut self) -> RequestId {
        let r = RequestId(self.next_req);
        self.next_req += 1;
        r
    }

    /// Messages the controller sends at startup: claiming the Memory
    /// resource class with the bus (§2.2 "Address Translation").
    pub fn on_start(&mut self, out: &mut Vec<Envelope>) {
        let req = self.req();
        out.push(Envelope {
            src: self.id,
            dst: Dst::Bus,
            req,
            corr: CorrId::NONE,
            payload: Payload::RegisterController {
                resource: ResourceKind::Memory,
            },
        });
    }

    /// Handles one incoming envelope, appending outgoing envelopes to `out`.
    pub fn handle(&mut self, env: &Envelope, out: &mut Vec<Envelope>) {
        match &env.payload {
            Payload::MemAlloc {
                pasid,
                va,
                bytes,
                perms,
            } => self.handle_alloc(env.src, env.req, *pasid, *va, *bytes, *perms, out),
            Payload::MemFree { region } => self.handle_free(env.src, env.req, *region, out),
            Payload::Share {
                region,
                target,
                pasid,
                va,
                perms,
            } => self.handle_share(env.src, env.req, *region, *target, *pasid, *va, *perms, out),
            Payload::DeviceFailed { device } => self.reclaim_device(*device, out),
            // BusAck / MapComplete acknowledgements need no action: the
            // latency model guarantees mappings are installed before any
            // requester can observe the response (see crate docs).
            Payload::BusAck { .. } | Payload::MapComplete { .. } => {}
            _ => {
                // Not for us; respond with a protocol error if it was a
                // request (has a response-expecting shape).
                out.push(Envelope {
                    src: self.id,
                    dst: Dst::Device(env.src),
                    req: env.req,
                    corr: env.corr,
                    payload: Payload::ErrorNotify {
                        code: lastcpu_bus::ErrorCode::Protocol,
                        conn: lastcpu_bus::ConnId(0),
                        detail: format!("memctl cannot handle {}", env.payload.kind_name()),
                    },
                });
            }
        }
    }

    fn respond(&self, to: DeviceId, req: RequestId, payload: Payload, out: &mut Vec<Envelope>) {
        out.push(Envelope {
            src: self.id,
            dst: Dst::Device(to),
            req,
            corr: CorrId::NONE,
            payload,
        });
    }

    #[allow(clippy::too_many_arguments)] // Mirrors the wire message's fields.
    fn map_instruction(
        &mut self,
        op: MapOp,
        device: DeviceId,
        pasid: u32,
        va: u64,
        pa: u64,
        pages: u64,
        perms: u8,
        out: &mut Vec<Envelope>,
    ) {
        let req = self.req();
        out.push(Envelope {
            src: self.id,
            dst: Dst::Bus,
            req,
            corr: CorrId::NONE,
            payload: Payload::MapInstruction {
                resource: ResourceKind::Memory,
                op,
                device,
                pasid,
                va,
                pa,
                pages,
                perms,
            },
        });
    }

    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    fn handle_alloc(
        &mut self,
        from: DeviceId,
        req: RequestId,
        pasid: u32,
        va: u64,
        bytes: u64,
        perms: u8,
        out: &mut Vec<Envelope>,
    ) {
        if bytes == 0 || va % PAGE_SIZE != 0 {
            self.stats.denials += 1;
            self.respond(
                from,
                req,
                Payload::MemAllocResponse {
                    status: Status::BadRequest,
                    region: 0,
                },
                out,
            );
            return;
        }
        let pages = bytes.div_ceil(PAGE_SIZE);
        let rounded = pages * PAGE_SIZE;
        if let Some(quota) = self.config.per_device_quota {
            let used = self.usage_slot(from).map_or(0, |i| self.usage[i].1);
            if used + rounded > quota {
                self.stats.denials += 1;
                self.respond(
                    from,
                    req,
                    Payload::MemAllocResponse {
                        status: Status::NoResources,
                        region: 0,
                    },
                    out,
                );
                return;
            }
        }
        let first_frame = match self.frames.alloc_frames(pages) {
            Ok(f) => f,
            Err(_) => {
                self.stats.oom += 1;
                self.respond(
                    from,
                    req,
                    Payload::MemAllocResponse {
                        status: Status::NoResources,
                        region: 0,
                    },
                    out,
                );
                return;
            }
        };
        let id = self.next_region;
        self.next_region += 1;
        self.regions.insert(
            id,
            Region {
                id,
                owner: from,
                pasid,
                va,
                pages,
                first_frame,
                perms,
                shares: Vec::new(),
            },
        );
        match self.usage_slot(from) {
            Ok(i) => self.usage[i].1 += rounded,
            Err(i) => self.usage.insert(i, (from, rounded)),
        }
        self.stats.allocs += 1;
        self.stats.bytes_in_use += rounded;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes_in_use);

        // Instruct the bus to install the owner's mapping, then answer the
        // requester. The bus programs the IOMMU one hop earlier than the
        // response lands (§3 step 6), so the requester may DMA immediately.
        let pa = first_frame << PAGE_SHIFT;
        self.map_instruction(MapOp::Map, from, pasid, va, pa, pages, perms, out);
        self.respond(
            from,
            req,
            Payload::MemAllocResponse {
                status: Status::Ok,
                region: id,
            },
            out,
        );
    }

    fn handle_free(
        &mut self,
        from: DeviceId,
        req: RequestId,
        region: u64,
        out: &mut Vec<Envelope>,
    ) {
        let r = match self.regions.get(&region) {
            Some(r) if r.owner == from => r.clone(),
            Some(_) => {
                self.stats.denials += 1;
                self.respond(
                    from,
                    req,
                    Payload::MemFreeResponse {
                        status: Status::Denied,
                    },
                    out,
                );
                return;
            }
            None => {
                self.respond(
                    from,
                    req,
                    Payload::MemFreeResponse {
                        status: Status::NotFound,
                    },
                    out,
                );
                return;
            }
        };
        self.release_region(&r, out);
        self.regions.remove(&region);
        self.stats.frees += 1;
        self.respond(
            from,
            req,
            Payload::MemFreeResponse { status: Status::Ok },
            out,
        );
    }

    /// Emits unmaps for the owner and every share, then frees the frames.
    fn release_region(&mut self, r: &Region, out: &mut Vec<Envelope>) {
        self.map_instruction(MapOp::Unmap, r.owner, r.pasid, r.va, 0, r.pages, 0, out);
        for s in &r.shares {
            self.map_instruction(MapOp::Unmap, s.device, s.pasid, s.va, 0, r.pages, 0, out);
        }
        // Cannot fail: the frame came from this allocator.
        let _ = self.frames.free(r.first_frame);
        let rounded = r.bytes();
        if let Ok(i) = self.usage_slot(r.owner) {
            self.usage[i].1 = self.usage[i].1.saturating_sub(rounded);
        }
        self.stats.bytes_in_use = self.stats.bytes_in_use.saturating_sub(rounded);
    }

    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    fn handle_share(
        &mut self,
        from: DeviceId,
        req: RequestId,
        region: u64,
        target: DeviceId,
        pasid: u32,
        va: u64,
        perms: u8,
        out: &mut Vec<Envelope>,
    ) {
        let (first_frame, pages, owner_perms) = match self.regions.get(&region) {
            Some(r) if r.owner == from => (r.first_frame, r.pages, r.perms),
            Some(_) => {
                self.stats.denials += 1;
                self.respond(
                    from,
                    req,
                    Payload::ShareResponse {
                        status: Status::Denied,
                    },
                    out,
                );
                return;
            }
            None => {
                self.respond(
                    from,
                    req,
                    Payload::ShareResponse {
                        status: Status::NotFound,
                    },
                    out,
                );
                return;
            }
        };
        if va % PAGE_SIZE != 0 {
            self.stats.denials += 1;
            self.respond(
                from,
                req,
                Payload::ShareResponse {
                    status: Status::BadRequest,
                },
                out,
            );
            return;
        }
        // An owner cannot grant more than it holds.
        if perms & !owner_perms != 0 {
            self.stats.denials += 1;
            self.respond(
                from,
                req,
                Payload::ShareResponse {
                    status: Status::Denied,
                },
                out,
            );
            return;
        }
        let r = self.regions.get_mut(&region).expect("checked above");
        let already = r
            .shares
            .iter()
            .any(|s| s.device == target && s.pasid == pasid && s.va == va);
        if !already {
            r.shares.push(ShareEntry {
                device: target,
                pasid,
                va,
                perms,
            });
        }
        self.stats.shares += 1;
        let pa = first_frame << PAGE_SHIFT;
        self.map_instruction(MapOp::Map, target, pasid, va, pa, pages, perms, out);
        self.respond(
            from,
            req,
            Payload::ShareResponse { status: Status::Ok },
            out,
        );
    }

    /// Position of `device` in `usage`, or where it would be inserted.
    fn usage_slot(&self, device: DeviceId) -> Result<usize, usize> {
        self.usage.binary_search_by_key(&device, |&(d, _)| d)
    }

    /// Reclaims everything owned by a failed device and revokes the
    /// mappings its regions induced in surviving devices (§4 "Error
    /// Handling": the failure of one device must not strand memory).
    fn reclaim_device(&mut self, device: DeviceId, out: &mut Vec<Envelope>) {
        let dead_regions: Vec<Region> = self
            .regions
            .values()
            .filter(|r| r.owner == device)
            .cloned()
            .collect();
        for r in &dead_regions {
            // Revoke shares into *surviving* devices; the dead device's own
            // IOMMU is being reset anyway, but the unmap is idempotent.
            self.release_region(r, out);
            self.regions.remove(&r.id);
            self.stats.reclaimed += 1;
        }
        // Shares *held by* the dead device on others' regions are revoked
        // too — its reset must not leave dangling reach into shared memory.
        let mut revokes: Vec<(DeviceId, u32, u64, u64)> = Vec::new();
        for r in self.regions.values_mut() {
            r.shares.retain(|s| {
                if s.device == device {
                    revokes.push((s.device, s.pasid, s.va, r.pages));
                    false
                } else {
                    true
                }
            });
        }
        for (dev, pasid, va, pages) in revokes {
            self.map_instruction(MapOp::Unmap, dev, pasid, va, 0, pages, 0, out);
        }
    }
}

impl fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemoryController(id={:?}, regions={}, in_use={}KiB)",
            self.id,
            self.regions.len(),
            self.stats.bytes_in_use / 1024
        )
    }
}

impl lastcpu_snap::Snapshot for MemoryController {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u32(self.id.0);
        self.frames.snapshot(w);
        w.put_u64(self.next_region);
        w.put_u64(self.next_req);
        w.put_opt(self.config.per_device_quota.as_ref(), |w, q| w.put_u64(*q));
        w.put_u64(self.stats.allocs);
        w.put_u64(self.stats.frees);
        w.put_u64(self.stats.shares);
        w.put_u64(self.stats.denials);
        w.put_u64(self.stats.oom);
        w.put_u64(self.stats.bytes_in_use);
        w.put_u64(self.stats.peak_bytes);
        w.put_u64(self.stats.reclaimed);
        let mut ids: Vec<_> = self.regions.keys().copied().collect();
        ids.sort_unstable();
        w.put_len(ids.len());
        for id in ids {
            let rg = &self.regions[&id];
            w.put_u64(rg.id);
            w.put_u32(rg.owner.0);
            w.put_u32(rg.pasid);
            w.put_u64(rg.va);
            w.put_u64(rg.pages);
            w.put_u64(rg.first_frame);
            w.put_u8(rg.perms);
            w.put_len(rg.shares.len());
            for s in &rg.shares {
                w.put_u32(s.device.0);
                w.put_u32(s.pasid);
                w.put_u64(s.va);
                w.put_u8(s.perms);
            }
        }
        w.put_len(self.usage.len());
        for (d, b) in &self.usage {
            w.put_u32(d.0);
            w.put_u64(*b);
        }
    }
}

impl lastcpu_snap::Restore for MemoryController {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.id = DeviceId(r.u32()?);
        self.frames.restore(r)?;
        self.next_region = r.u64()?;
        self.next_req = r.u64()?;
        self.config.per_device_quota = r.opt(|r| r.u64())?;
        self.stats.allocs = r.u64()?;
        self.stats.frees = r.u64()?;
        self.stats.shares = r.u64()?;
        self.stats.denials = r.u64()?;
        self.stats.oom = r.u64()?;
        self.stats.bytes_in_use = r.u64()?;
        self.stats.peak_bytes = r.u64()?;
        self.stats.reclaimed = r.u64()?;
        let n = r.len()?;
        self.regions = DetHashMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let id = r.u64()?;
            let owner = DeviceId(r.u32()?);
            let pasid = r.u32()?;
            let va = r.u64()?;
            let pages = r.u64()?;
            let first_frame = r.u64()?;
            let perms = r.u8()?;
            let k = r.len()?;
            let mut shares = Vec::with_capacity(k);
            for _ in 0..k {
                shares.push(ShareEntry {
                    device: DeviceId(r.u32()?),
                    pasid: r.u32()?,
                    va: r.u64()?,
                    perms: r.u8()?,
                });
            }
            self.regions.insert(
                id,
                Region {
                    id,
                    owner,
                    pasid,
                    va,
                    pages,
                    first_frame,
                    perms,
                    shares,
                },
            );
        }
        let n = r.len()?;
        self.usage = Vec::with_capacity(n);
        for _ in 0..n {
            let d = DeviceId(r.u32()?);
            let b = r.u64()?;
            if self.usage.last().is_some_and(|&(prev, _)| prev >= d) {
                return Err(r.corrupt(format!("usage list not sorted at {d}")));
            }
            self.usage.push((d, b));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MC: DeviceId = DeviceId(3);
    const NIC: DeviceId = DeviceId(1);
    const SSD: DeviceId = DeviceId(2);

    fn mc() -> MemoryController {
        MemoryController::new(MC, 64 * 1024 * 1024)
    }

    fn alloc_env(bytes: u64) -> Envelope {
        Envelope {
            src: NIC,
            dst: Dst::Device(MC),
            req: RequestId(10),
            corr: CorrId::NONE,
            payload: Payload::MemAlloc {
                pasid: 1,
                va: 0x10000,
                bytes,
                perms: 3,
            },
        }
    }

    fn do_alloc(c: &mut MemoryController, bytes: u64) -> (u64, Vec<Envelope>) {
        let mut out = Vec::new();
        c.handle(&alloc_env(bytes), &mut out);
        let region = out
            .iter()
            .find_map(|e| match e.payload {
                Payload::MemAllocResponse {
                    status: Status::Ok,
                    region,
                } => Some(region),
                _ => None,
            })
            .expect("alloc should succeed");
        (region, out)
    }

    #[test]
    fn startup_registers_as_memory_controller() {
        let mut c = mc();
        let mut out = Vec::new();
        c.on_start(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, Dst::Bus);
        assert_eq!(
            out[0].payload,
            Payload::RegisterController {
                resource: ResourceKind::Memory
            }
        );
    }

    #[test]
    fn alloc_emits_map_then_response() {
        let mut c = mc();
        let (_region, out) = do_alloc(&mut c, 8192);
        // Order matters: MapInstruction first so the mapping is installed
        // before the requester sees the response.
        assert!(matches!(
            out[0].payload,
            Payload::MapInstruction {
                op: MapOp::Map,
                device: NIC,
                pasid: 1,
                va: 0x10000,
                pages: 2,
                perms: 3,
                ..
            }
        ));
        assert_eq!(out[0].dst, Dst::Bus);
        assert!(matches!(
            out[1].payload,
            Payload::MemAllocResponse {
                status: Status::Ok,
                ..
            }
        ));
        assert_eq!(out[1].dst, Dst::Device(NIC));
        assert_eq!(c.stats().allocs, 1);
        assert_eq!(c.stats().bytes_in_use, 8192);
    }

    #[test]
    fn alloc_rounds_to_pages() {
        let mut c = mc();
        let (region, _) = do_alloc(&mut c, 100);
        assert_eq!(c.region(region).unwrap().pages, 1);
        assert_eq!(c.stats().bytes_in_use, PAGE_SIZE);
    }

    #[test]
    fn zero_byte_and_unaligned_allocs_rejected() {
        let mut c = mc();
        let mut out = Vec::new();
        c.handle(&alloc_env(0), &mut out);
        assert!(matches!(
            out[0].payload,
            Payload::MemAllocResponse {
                status: Status::BadRequest,
                ..
            }
        ));
        out.clear();
        let mut env = alloc_env(4096);
        if let Payload::MemAlloc { ref mut va, .. } = env.payload {
            *va = 0x10001;
        }
        c.handle(&env, &mut out);
        assert!(matches!(
            out[0].payload,
            Payload::MemAllocResponse {
                status: Status::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn quota_enforced_per_device() {
        let mut c = MemoryController::with_config(
            MC,
            64 * 1024 * 1024,
            MemCtlConfig {
                per_device_quota: Some(8192),
            },
        );
        do_alloc(&mut c, 8192);
        let mut out = Vec::new();
        c.handle(&alloc_env(4096), &mut out);
        assert!(matches!(
            out[0].payload,
            Payload::MemAllocResponse {
                status: Status::NoResources,
                ..
            }
        ));
        assert_eq!(c.stats().denials, 1);
    }

    #[test]
    fn oom_reported_and_counted() {
        let mut c = MemoryController::new(MC, 4 * 1024 * 1024); // one max-order block
        do_alloc(&mut c, 4 * 1024 * 1024);
        let mut out = Vec::new();
        c.handle(&alloc_env(4096), &mut out);
        assert!(matches!(
            out[0].payload,
            Payload::MemAllocResponse {
                status: Status::NoResources,
                ..
            }
        ));
        assert_eq!(c.stats().oom, 1);
    }

    #[test]
    fn free_unmaps_owner_and_shares() {
        let mut c = mc();
        let (region, _) = do_alloc(&mut c, 4096);
        // Share to the SSD first.
        let mut out = Vec::new();
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(11),
                corr: CorrId::NONE,
                payload: Payload::Share {
                    region,
                    target: SSD,
                    pasid: 1,
                    va: 0x10000,
                    perms: 3,
                },
            },
            &mut out,
        );
        out.clear();
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(12),
                corr: CorrId::NONE,
                payload: Payload::MemFree { region },
            },
            &mut out,
        );
        let unmaps: Vec<DeviceId> = out
            .iter()
            .filter_map(|e| match e.payload {
                Payload::MapInstruction {
                    op: MapOp::Unmap,
                    device,
                    ..
                } => Some(device),
                _ => None,
            })
            .collect();
        assert!(unmaps.contains(&NIC));
        assert!(unmaps.contains(&SSD));
        assert!(matches!(
            out.last().unwrap().payload,
            Payload::MemFreeResponse { status: Status::Ok }
        ));
        assert_eq!(c.stats().bytes_in_use, 0);
        assert_eq!(c.region_count(), 0);
    }

    #[test]
    fn only_owner_can_free() {
        let mut c = mc();
        let (region, _) = do_alloc(&mut c, 4096);
        let mut out = Vec::new();
        c.handle(
            &Envelope {
                src: SSD,
                dst: Dst::Device(MC),
                req: RequestId(13),
                corr: CorrId::NONE,
                payload: Payload::MemFree { region },
            },
            &mut out,
        );
        assert!(matches!(
            out[0].payload,
            Payload::MemFreeResponse {
                status: Status::Denied
            }
        ));
        assert_eq!(c.region_count(), 1);
        assert_eq!(c.stats().denials, 1);
    }

    #[test]
    fn free_unknown_region_not_found() {
        let mut c = mc();
        let mut out = Vec::new();
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(14),
                corr: CorrId::NONE,
                payload: Payload::MemFree { region: 777 },
            },
            &mut out,
        );
        assert!(matches!(
            out[0].payload,
            Payload::MemFreeResponse {
                status: Status::NotFound
            }
        ));
    }

    #[test]
    fn share_maps_target_at_same_physical() {
        let mut c = mc();
        let (region, out0) = do_alloc(&mut c, 4096);
        let owner_pa = out0
            .iter()
            .find_map(|e| match e.payload {
                Payload::MapInstruction { pa, .. } => Some(pa),
                _ => None,
            })
            .unwrap();
        let mut out = Vec::new();
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(15),
                corr: CorrId::NONE,
                payload: Payload::Share {
                    region,
                    target: SSD,
                    pasid: 1,
                    va: 0x10000,
                    perms: 3,
                },
            },
            &mut out,
        );
        match out[0].payload {
            Payload::MapInstruction {
                op: MapOp::Map,
                device,
                pa,
                ..
            } => {
                assert_eq!(device, SSD);
                assert_eq!(pa, owner_pa, "shared memory = same physical frames");
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            out[1].payload,
            Payload::ShareResponse { status: Status::Ok }
        ));
        assert_eq!(c.region(region).unwrap().shares.len(), 1);
    }

    #[test]
    fn share_by_non_owner_denied() {
        let mut c = mc();
        let (region, _) = do_alloc(&mut c, 4096);
        let mut out = Vec::new();
        c.handle(
            &Envelope {
                src: SSD, // not the owner
                dst: Dst::Device(MC),
                req: RequestId(16),
                corr: CorrId::NONE,
                payload: Payload::Share {
                    region,
                    target: SSD,
                    pasid: 1,
                    va: 0x10000,
                    perms: 3,
                },
            },
            &mut out,
        );
        assert!(matches!(
            out[0].payload,
            Payload::ShareResponse {
                status: Status::Denied
            }
        ));
        assert!(c.region(region).unwrap().shares.is_empty());
    }

    #[test]
    fn share_cannot_amplify_permissions() {
        let mut c = mc();
        let mut out = Vec::new();
        // Owner holds read-only.
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(17),
                corr: CorrId::NONE,
                payload: Payload::MemAlloc {
                    pasid: 1,
                    va: 0x10000,
                    bytes: 4096,
                    perms: 1,
                },
            },
            &mut out,
        );
        let region = out
            .iter()
            .find_map(|e| match e.payload {
                Payload::MemAllocResponse { region, .. } => Some(region),
                _ => None,
            })
            .unwrap();
        out.clear();
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(18),
                corr: CorrId::NONE,
                payload: Payload::Share {
                    region,
                    target: SSD,
                    pasid: 1,
                    va: 0x10000,
                    perms: 3, // tries to grant RW from an R-only region
                },
            },
            &mut out,
        );
        assert!(matches!(
            out[0].payload,
            Payload::ShareResponse {
                status: Status::Denied
            }
        ));
    }

    #[test]
    fn duplicate_share_is_idempotent() {
        let mut c = mc();
        let (region, _) = do_alloc(&mut c, 4096);
        let share = Envelope {
            src: NIC,
            dst: Dst::Device(MC),
            req: RequestId(19),
            corr: CorrId::NONE,
            payload: Payload::Share {
                region,
                target: SSD,
                pasid: 1,
                va: 0x10000,
                perms: 3,
            },
        };
        let mut out = Vec::new();
        c.handle(&share, &mut out);
        c.handle(&share, &mut out);
        assert_eq!(c.region(region).unwrap().shares.len(), 1);
    }

    #[test]
    fn device_failure_reclaims_owned_regions() {
        let mut c = mc();
        let (region, _) = do_alloc(&mut c, 8192);
        let mut out = Vec::new();
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(20),
                corr: CorrId::NONE,
                payload: Payload::Share {
                    region,
                    target: SSD,
                    pasid: 1,
                    va: 0x10000,
                    perms: 3,
                },
            },
            &mut out,
        );
        out.clear();
        let free_before = c.free_bytes();
        c.handle(
            &Envelope {
                src: DeviceId::BUS,
                dst: Dst::Broadcast,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::DeviceFailed { device: NIC },
            },
            &mut out,
        );
        assert_eq!(c.region_count(), 0);
        assert!(c.free_bytes() > free_before);
        assert_eq!(c.stats().reclaimed, 1);
        // The share into the surviving SSD is revoked.
        assert!(out.iter().any(|e| matches!(
            e.payload,
            Payload::MapInstruction {
                op: MapOp::Unmap,
                device: SSD,
                ..
            }
        )));
    }

    #[test]
    fn device_failure_revokes_shares_it_held() {
        let mut c = mc();
        let (region, _) = do_alloc(&mut c, 4096); // owned by NIC
        let mut out = Vec::new();
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(21),
                corr: CorrId::NONE,
                payload: Payload::Share {
                    region,
                    target: SSD,
                    pasid: 1,
                    va: 0x10000,
                    perms: 3,
                },
            },
            &mut out,
        );
        out.clear();
        // Now the SSD (share-holder, not owner) dies.
        c.handle(
            &Envelope {
                src: DeviceId::BUS,
                dst: Dst::Broadcast,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::DeviceFailed { device: SSD },
            },
            &mut out,
        );
        // Region survives (owner alive) but the share is gone.
        assert_eq!(c.region_count(), 1);
        assert!(c.region(region).unwrap().shares.is_empty());
        assert!(out.iter().any(|e| matches!(
            e.payload,
            Payload::MapInstruction {
                op: MapOp::Unmap,
                device: SSD,
                ..
            }
        )));
    }

    #[test]
    fn peak_bytes_tracks_high_water() {
        let mut c = mc();
        let (r1, _) = do_alloc(&mut c, 8192);
        do_alloc(&mut c, 8192);
        let mut out = Vec::new();
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(22),
                corr: CorrId::NONE,
                payload: Payload::MemFree { region: r1 },
            },
            &mut out,
        );
        assert_eq!(c.stats().peak_bytes, 16384);
        assert_eq!(c.stats().bytes_in_use, 8192);
    }

    #[test]
    fn unrelated_payload_gets_protocol_error() {
        let mut c = mc();
        let mut out = Vec::new();
        c.handle(
            &Envelope {
                src: NIC,
                dst: Dst::Device(MC),
                req: RequestId(23),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut out,
        );
        assert!(matches!(
            out[0].payload,
            Payload::ErrorNotify {
                code: lastcpu_bus::ErrorCode::Protocol,
                ..
            }
        ));
    }

    /// The usage list is kept sorted by device so a lookup is a binary
    /// search and the snapshot walks it as is; restore holds a snapshot to
    /// that, after a round trip that keeps every byte.
    #[test]
    fn usage_list_round_trips_and_must_be_sorted() {
        use lastcpu_snap::{Restore as _, Snapshot as _};
        let mut c = mc();
        let mut out = Vec::new();
        for src in [SSD, NIC] {
            c.handle(
                &Envelope {
                    src,
                    ..alloc_env(PAGE_SIZE)
                },
                &mut out,
            );
        }
        assert_eq!(c.usage, vec![(NIC, PAGE_SIZE), (SSD, PAGE_SIZE)]);
        let bytes = c.snapshot_bytes();
        let mut back = mc();
        back.restore(&mut lastcpu_snap::SnapReader::new("memctl", &bytes))
            .expect("restores");
        assert_eq!(back.snapshot_bytes(), bytes);

        // The list is the snapshot's tail: (u32 id, u64 bytes) per device.
        let mut swapped = bytes.clone();
        let tail = swapped.len() - 2 * 12;
        swapped[tail] = SSD.0 as u8;
        swapped[tail + 12] = NIC.0 as u8;
        let err = mc()
            .restore(&mut lastcpu_snap::SnapReader::new("memctl", &swapped))
            .unwrap_err();
        assert!(
            matches!(&err, lastcpu_snap::SnapError::Corrupt { detail, .. } if detail.contains("not sorted")),
            "{err:?}"
        );
    }
}
