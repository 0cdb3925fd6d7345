//! An FPGA-style compute accelerator with spatially partitioned regions.
//!
//! §2.1 cites AmorphOS for "dynamic isolation of FPGA resources for
//! multiple applications"; this device models that resource class
//! ([`lastcpu_bus::ResourceKind::Compute`]): a fabric of `R` regions,
//! allocated to connections at open time, each connection's jobs executing
//! on its own regions only — spatial isolation, no interference between
//! tenants by construction.
//!
//! Jobs are submitted by doorbell: the value encodes the work size in
//! abstract *work units*; completion is signalled by a doorbell back. More
//! regions mean proportionally faster completion, which gives experiments a
//! knob connecting resource allocation to performance.
//!
//! Two sharing modes, matching §2.1's two isolation techniques:
//! [`ShareMode::Spatial`] partitions the fabric (an open is denied when no
//! regions remain — hardware partitioning, as in SR-IOV or AmorphOS's fixed
//! zones), while [`ShareMode::TimeShared`] always admits tenants and
//! stretches their job times by the fabric's oversubscription factor (the
//! software technique "if the device contains an embedded CPU").

use lastcpu_bus::wire::{WireReader, WireWriter};
use lastcpu_bus::{ConnId, DeviceId, ResourceKind, ServiceDesc, ServiceId, Status};
use lastcpu_sim::{DetHashMap, SimDuration};

use crate::device::DeviceCtx;
use crate::firmware::Firmware;
use crate::monitor::{AuthMode, Monitor, MonitorEvent};

/// Service id of the fabric service.
pub const FABRIC_SERVICE: ServiceId = ServiceId(1);

/// Doorbell value sent back on job completion, OR'd with the job id.
pub const DOORBELL_JOB_DONE: u64 = 1 << 63;

/// How the fabric is shared between tenants (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareMode {
    /// Hard spatial partitioning: opens beyond capacity are denied.
    Spatial,
    /// Admit everyone; oversubscription stretches every job's time by
    /// `granted_total / total_regions` when that ratio exceeds 1.
    TimeShared,
}

/// Encodes fabric open params: number of regions requested.
pub fn encode_fabric_params(regions: u16) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u16(regions);
    w.finish()
}

fn decode_fabric_params(buf: &[u8]) -> Option<u16> {
    let mut r = WireReader::new(buf);
    let n = r.u16().ok()?;
    r.expect_end().ok()?;
    Some(n)
}

struct FabricConn {
    peer: DeviceId,
    regions: u16,
    jobs_done: u64,
}

/// Accelerator counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct AccelStats {
    /// Jobs completed.
    pub jobs: u64,
    /// Total work units executed.
    pub work_units: u64,
    /// Opens rejected for lack of regions.
    pub rejected: u64,
}

/// The compute accelerator device.
pub struct Accelerator {
    name: String,
    monitor: Monitor,
    total_regions: u16,
    free_regions: u16,
    mode: ShareMode,
    conns: DetHashMap<ConnId, FabricConn>,
    /// Time to execute one work unit on one region.
    unit_time: SimDuration,
    stats: AccelStats,
    next_job: u64,
}

impl Accelerator {
    /// Creates a spatially partitioned accelerator with `regions` fabric
    /// regions.
    pub fn new(name: &str, regions: u16) -> Self {
        Self::with_mode(name, regions, ShareMode::Spatial)
    }

    /// Creates an accelerator with an explicit sharing mode.
    pub fn with_mode(name: &str, regions: u16, mode: ShareMode) -> Self {
        let mut monitor = Monitor::new();
        monitor.add_service(
            ServiceDesc {
                id: FABRIC_SERVICE,
                name: "fpga".into(),
                resource: ResourceKind::Compute,
            },
            AuthMode::Open,
        );
        Accelerator {
            name: name.to_string(),
            monitor,
            total_regions: regions,
            free_regions: regions,
            mode,
            conns: DetHashMap::default(),
            unit_time: SimDuration::from_micros(10),
            stats: AccelStats::default(),
            next_job: 1,
        }
    }

    /// Counters.
    pub fn stats(&self) -> AccelStats {
        self.stats
    }

    /// Regions not currently allocated.
    pub fn free_regions(&self) -> u16 {
        self.free_regions
    }

    /// Total fabric regions.
    pub fn total_regions(&self) -> u16 {
        self.total_regions
    }

    /// Regions granted across live tenants (exceeds `total_regions` when
    /// time-shared and oversubscribed).
    pub fn granted_regions(&self) -> u32 {
        self.conns.values().map(|c| c.regions as u32).sum()
    }

    /// Current job-time stretch factor from oversubscription (1.0 when not
    /// oversubscribed or when spatially partitioned).
    pub fn oversubscription(&self) -> f64 {
        match self.mode {
            ShareMode::Spatial => 1.0,
            ShareMode::TimeShared => {
                (self.granted_regions() as f64 / self.total_regions as f64).max(1.0)
            }
        }
    }
}

impl Firmware for Accelerator {
    const KIND: &'static str = "fpga-accelerator";
    const SELF_TEST: SimDuration = SimDuration::from_millis(5); // fabric configuration scan
    const HEARTBEAT: SimDuration = SimDuration::from_millis(2);

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        match ev {
            MonitorEvent::OpenRequested {
                req,
                from,
                principal,
                params,
                ..
            } => {
                let wanted = decode_fabric_params(&params).unwrap_or(0);
                let admit = wanted > 0
                    && (self.mode == ShareMode::TimeShared || wanted <= self.free_regions);
                if wanted == 0 {
                    self.monitor.reject_open(ctx, req, from, Status::BadRequest);
                } else if !admit {
                    self.stats.rejected += 1;
                    self.monitor
                        .reject_open(ctx, req, from, Status::NoResources);
                } else {
                    // Partial reconfiguration takes real time.
                    ctx.busy(SimDuration::from_millis(2).saturating_mul(wanted as u64));
                    self.free_regions = self.free_regions.saturating_sub(wanted);
                    let conn = self.monitor.accept_open(
                        ctx,
                        req,
                        from,
                        FABRIC_SERVICE,
                        principal,
                        0,
                        encode_fabric_params(wanted),
                    );
                    self.conns.insert(
                        conn,
                        FabricConn {
                            peer: from,
                            regions: wanted,
                            jobs_done: 0,
                        },
                    );
                }
            }
            MonitorEvent::Doorbell { conn, value } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                // A job: `value` work units across the conn's regions,
                // stretched by oversubscription when time-shared.
                let work = value.max(1);
                let regions = c.regions;
                let base = self
                    .unit_time
                    .saturating_mul(work)
                    .as_nanos()
                    .div_ceil(regions as u64);
                let stretched = (base as f64 * self.oversubscription()) as u64;
                let c = self.conns.get_mut(&conn).expect("checked above");
                ctx.busy(SimDuration::from_nanos(stretched));
                c.jobs_done += 1;
                self.stats.jobs += 1;
                self.stats.work_units += work;
                let job = self.next_job;
                self.next_job += 1;
                ctx.doorbell(c.peer, conn, DOORBELL_JOB_DONE | job);
            }
            MonitorEvent::PeerClosed { conn } => {
                if let Some(c) = self.conns.remove(&conn) {
                    self.free_regions = (self.free_regions + c.regions).min(self.total_regions);
                }
            }
            MonitorEvent::PeerFailed {
                dropped_server_conns,
                ..
            } => {
                for conn in dropped_server_conns {
                    if let Some(c) = self.conns.remove(&conn) {
                        self.free_regions = (self.free_regions + c.regions).min(self.total_regions);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) -> bool {
        self.conns.clear();
        self.free_regions = self.total_regions;
        ctx.busy(Self::SELF_TEST);
        true
    }

    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Snapshot::snapshot(self, w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Restore::restore(self, r)
    }
}

impl lastcpu_snap::Snapshot for Accelerator {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_str(&self.name);
        self.monitor.snapshot(w);
        w.put_u16(self.total_regions);
        w.put_u16(self.free_regions);
        w.put_u8(match self.mode {
            ShareMode::Spatial => 0,
            ShareMode::TimeShared => 1,
        });
        w.put_u64(self.unit_time.as_nanos());
        w.put_u64(self.stats.jobs);
        w.put_u64(self.stats.work_units);
        w.put_u64(self.stats.rejected);
        w.put_u64(self.next_job);
        let mut conns: Vec<_> = self.conns.keys().copied().collect();
        conns.sort_by_key(|c| c.0);
        w.put_len(conns.len());
        for c in conns {
            let fc = &self.conns[&c];
            w.put_u64(c.0);
            w.put_u32(fc.peer.0);
            w.put_u16(fc.regions);
            w.put_u64(fc.jobs_done);
        }
    }
}

impl lastcpu_snap::Restore for Accelerator {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.name = r.str()?;
        self.monitor.restore(r)?;
        self.total_regions = r.u16()?;
        self.free_regions = r.u16()?;
        self.mode = match r.u8()? {
            0 => ShareMode::Spatial,
            1 => ShareMode::TimeShared,
            t => return Err(r.corrupt(format!("bad ShareMode tag {t}"))),
        };
        self.unit_time = SimDuration::from_nanos(r.u64()?);
        self.stats.jobs = r.u64()?;
        self.stats.work_units = r.u64()?;
        self.stats.rejected = r.u64()?;
        self.next_job = r.u64()?;
        let n = r.len()?;
        self.conns = DetHashMap::default();
        for _ in 0..n {
            let c = ConnId(r.u64()?);
            let fc = FabricConn {
                peer: DeviceId(r.u32()?),
                regions: r.u16()?,
                jobs_done: r.u64()?,
            };
            self.conns.insert(c, fc);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use lastcpu_bus::CorrId;
    use lastcpu_bus::{Dst, Envelope, Payload, RequestId, Token};
    use lastcpu_iommu::Iommu;
    use lastcpu_mem::Dram;
    use lastcpu_sim::MetricsHub;
    use lastcpu_sim::{DetRng, SimTime};

    struct Fix {
        iommu: Iommu,
        dram: Dram,
        rng: DetRng,
        req: u64,
        stats: MetricsHub,
    }

    impl Fix {
        fn new() -> Self {
            Fix {
                iommu: Iommu::new(16),
                dram: Dram::new(1 << 20),
                rng: DetRng::new(7),
                req: 0,
                stats: MetricsHub::new(),
            }
        }

        fn ctx(&mut self) -> DeviceCtx<'_> {
            DeviceCtx::new(
                SimTime::ZERO,
                DeviceId(1),
                None,
                &mut self.iommu,
                &mut self.dram,
                &mut self.rng,
                &mut self.req,
                CorrId::NONE,
                &self.stats,
            )
        }
    }

    fn open_env(regions: u16) -> Envelope {
        Envelope {
            src: DeviceId(9),
            dst: Dst::Device(DeviceId(1)),
            req: RequestId(1),
            corr: CorrId::NONE,
            payload: Payload::OpenRequest {
                service: FABRIC_SERVICE,
                token: Token::NONE,
                params: encode_fabric_params(regions),
            },
        }
    }

    fn open_conn(fix: &mut Fix, acc: &mut Accelerator, regions: u16) -> Option<ConnId> {
        let mut ctx = fix.ctx();
        acc.on_message(&mut ctx, &open_env(regions));
        let (actions, _, _) = ctx.finish();
        actions.iter().find_map(|a| match a {
            crate::device::Action::SendBus(Envelope {
                payload:
                    Payload::OpenResponse {
                        status: Status::Ok,
                        conn,
                        ..
                    },
                ..
            }) => Some(*conn),
            _ => None,
        })
    }

    #[test]
    fn regions_allocated_and_exhausted() {
        let mut fix = Fix::new();
        let mut acc = Accelerator::new("fpga0", 4);
        assert!(open_conn(&mut fix, &mut acc, 3).is_some());
        assert_eq!(acc.free_regions(), 1);
        assert!(open_conn(&mut fix, &mut acc, 2).is_none());
        assert_eq!(acc.stats().rejected, 1);
        assert!(open_conn(&mut fix, &mut acc, 1).is_some());
        assert_eq!(acc.free_regions(), 0);
    }

    #[test]
    fn zero_region_request_rejected() {
        let mut fix = Fix::new();
        let mut acc = Accelerator::new("fpga0", 4);
        assert!(open_conn(&mut fix, &mut acc, 0).is_none());
        assert_eq!(acc.free_regions(), 4);
    }

    #[test]
    fn jobs_complete_faster_with_more_regions() {
        let mut fix = Fix::new();
        let mut acc = Accelerator::new("fpga0", 8);
        let wide = open_conn(&mut fix, &mut acc, 8).unwrap();
        let mut ctx = fix.ctx();
        acc.on_message(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(2),
                corr: CorrId::NONE,
                payload: Payload::Doorbell {
                    conn: wide,
                    value: 800,
                },
            },
        );
        let wide_time = ctx.elapsed();
        let (actions, _, _) = ctx.finish();
        assert!(actions.iter().any(|a| matches!(
            a,
            crate::device::Action::Doorbell { value, .. } if value & DOORBELL_JOB_DONE != 0
        )));

        let mut fix2 = Fix::new();
        let mut acc2 = Accelerator::new("fpga1", 8);
        let narrow = open_conn(&mut fix2, &mut acc2, 1).unwrap();
        let mut ctx = fix2.ctx();
        acc2.on_message(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(2),
                corr: CorrId::NONE,
                payload: Payload::Doorbell {
                    conn: narrow,
                    value: 800,
                },
            },
        );
        let narrow_time = ctx.elapsed();
        assert!(
            narrow_time.as_nanos() >= wide_time.as_nanos() * 7,
            "1 region ({narrow_time}) should be ~8x slower than 8 ({wide_time})"
        );
        assert_eq!(acc2.stats().jobs, 1);
        assert_eq!(acc2.stats().work_units, 800);
    }

    #[test]
    fn close_returns_regions() {
        let mut fix = Fix::new();
        let mut acc = Accelerator::new("fpga0", 4);
        let conn = open_conn(&mut fix, &mut acc, 4).unwrap();
        assert_eq!(acc.free_regions(), 0);
        let mut ctx = fix.ctx();
        acc.on_message(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(3),
                corr: CorrId::NONE,
                payload: Payload::CloseRequest { conn },
            },
        );
        assert_eq!(acc.free_regions(), 4);
    }

    #[test]
    fn peer_failure_returns_regions() {
        let mut fix = Fix::new();
        let mut acc = Accelerator::new("fpga0", 4);
        open_conn(&mut fix, &mut acc, 4).unwrap();
        let mut ctx = fix.ctx();
        acc.on_message(
            &mut ctx,
            &Envelope {
                src: DeviceId::BUS,
                dst: Dst::Broadcast,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::DeviceFailed {
                    device: DeviceId(9),
                },
            },
        );
        assert_eq!(acc.free_regions(), 4);
    }
}
