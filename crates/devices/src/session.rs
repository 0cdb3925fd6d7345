//! Client-side file-session state machine.
//!
//! Drives the paper's Figure 2 sequence (steps 3–7) against a smart SSD:
//!
//! 1. `OpenRequest` to the file service (with the auth token) —
//!    the response carries the shared-memory requirement;
//! 2. `MemAlloc` to the memory controller at a caller-chosen virtual base —
//!    the bus programs our IOMMU before the response lands;
//! 3. `Share` of the region to the serving device (same PASID: the
//!    application *is* its address space, §2.2);
//! 4. lay out the VIRTIO queue + buffer arena in the region and ring the
//!    setup doorbell.
//!
//! The session is then [`SessionState::Ready`] and the caller performs file
//! I/O through [`FileSession::client_mut`]. Both the smart-NIC KVS
//! application and the console device reuse this machine — it is the
//! "development library" codepath of §4 (*Programmability*).

use lastcpu_bus::wire::Wire;
use lastcpu_bus::{ConnId, DeviceId, ServiceId, Status, Token};
use lastcpu_mem::Pasid;

use crate::device::DeviceCtx;
use crate::monitor::{Monitor, MonitorEvent};
use crate::ssd::{FileClient, FileOpen, FileOpened, DOORBELL_COMPLETION};

/// Session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Not started.
    Idle,
    /// `OpenRequest` in flight.
    Opening,
    /// `MemAlloc` in flight.
    Allocating,
    /// `Share` in flight.
    Sharing,
    /// Queue is set up; I/O may proceed.
    Ready,
    /// Setup failed.
    Failed(Status),
}

/// Events surfaced to the session's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// Setup finished; the connection is usable.
    Ready {
        /// The server-assigned connection.
        conn: ConnId,
        /// File size reported at open.
        file_size: u64,
    },
    /// Completions are waiting in the queue (drain via `client_mut`).
    Completions {
        /// The connection.
        conn: ConnId,
    },
    /// The session died (setup failure, peer reset, peer death).
    Failed {
        /// Status describing the failure.
        status: Status,
    },
}

/// A client-side file session.
pub struct FileSession {
    memctl: DeviceId,
    target: DeviceId,
    service: ServiceId,
    token: Token,
    pasid: Pasid,
    va_base: u64,
    queue_size: u16,
    state: SessionState,
    op: u64,
    conn: ConnId,
    region: u64,
    shm_bytes: u64,
    file_size: u64,
    client: Option<FileClient>,
}

impl FileSession {
    /// Configures a session; nothing is sent until [`FileSession::start`].
    ///
    /// `va_base` is where the shared region will be mapped in `pasid`
    /// (page-aligned, chosen by the application), and `queue_size` the
    /// virtqueue depth (power of two).
    pub fn new(
        memctl: DeviceId,
        target: DeviceId,
        service: ServiceId,
        token: Token,
        pasid: Pasid,
        va_base: u64,
        queue_size: u16,
    ) -> Self {
        FileSession {
            memctl,
            target,
            service,
            token,
            pasid,
            va_base,
            queue_size,
            state: SessionState::Idle,
            op: 0,
            conn: ConnId(0),
            region: 0,
            shm_bytes: 0,
            file_size: 0,
            client: None,
        }
    }

    /// An idle session for [`Restore`](lastcpu_snap::Restore) to fill in.
    pub fn placeholder() -> Self {
        FileSession::new(
            DeviceId(0),
            DeviceId(0),
            ServiceId(0),
            Token::NONE,
            Pasid(0),
            0,
            1,
        )
    }

    /// The device this session talks to.
    pub fn target(&self) -> DeviceId {
        self.target
    }

    /// The connection id (valid once past `Opening`).
    pub fn conn(&self) -> ConnId {
        self.conn
    }

    /// The shared-memory region handle (valid once past `Allocating`).
    pub fn region(&self) -> u64 {
        self.region
    }

    /// The queue client and connection, once [`SessionState::Ready`].
    pub fn client_mut(&mut self) -> Option<(&mut FileClient, ConnId)> {
        match self.state {
            SessionState::Ready => self.client.as_mut().map(|c| (c, self.conn)),
            _ => None,
        }
    }

    /// Kicks off the open (§3 step 3).
    pub fn start(&mut self, ctx: &mut DeviceCtx<'_>, monitor: &mut Monitor) {
        debug_assert_eq!(self.state, SessionState::Idle);
        let params = FileOpen {
            pasid: self.pasid.as_u32(),
        };
        self.op = monitor.open(ctx, self.target, self.service, self.token, params.encode());
        self.state = SessionState::Opening;
    }

    fn fail(&mut self, status: Status) -> Option<SessionEvent> {
        self.state = SessionState::Failed(status);
        self.client = None;
        Some(SessionEvent::Failed { status })
    }

    /// Feeds a monitor event; returns a session event when state changes in
    /// a way the owner must act on.
    pub fn on_event(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        monitor: &mut Monitor,
        ev: &MonitorEvent,
    ) -> Option<SessionEvent> {
        match (self.state, ev) {
            (SessionState::Opening, MonitorEvent::OpenDone { op, result, .. })
                if *op == self.op =>
            {
                match result {
                    Ok((conn, shm, params)) => {
                        self.conn = *conn;
                        self.shm_bytes = *shm;
                        // File services reply with the file size.
                        if let Ok(FileOpened { size }) = FileOpened::decode(params) {
                            self.file_size = size;
                        }
                        // §3 step 5: allocate the shared memory.
                        self.op = monitor.alloc_shared(
                            ctx,
                            self.memctl,
                            self.pasid.as_u32(),
                            self.va_base,
                            self.shm_bytes,
                            3, // RW
                        );
                        self.state = SessionState::Allocating;
                        None
                    }
                    Err(status) => self.fail(*status),
                }
            }
            (SessionState::Allocating, MonitorEvent::AllocDone { op, result })
                if *op == self.op =>
            {
                match result {
                    Ok(region) => {
                        self.region = *region;
                        // §3 step 7: grant the region to the serving device.
                        self.op = monitor.share(
                            ctx,
                            self.memctl,
                            self.region,
                            self.target,
                            self.pasid.as_u32(),
                            self.va_base,
                            3, // RW
                        );
                        self.state = SessionState::Sharing;
                        None
                    }
                    Err(status) => self.fail(*status),
                }
            }
            (SessionState::Sharing, MonitorEvent::ShareDone { op, status }) if *op == self.op => {
                if !status.is_ok() {
                    return self.fail(*status);
                }
                // Lay out the queue in our (now mapped) region and tell the
                // SSD where it is.
                let mut view = ctx.dma_view(self.pasid);
                match FileClient::create(&mut view, self.va_base, self.queue_size) {
                    Ok((client, setup)) => {
                        self.client = Some(client);
                        ctx.doorbell(self.target, self.conn, setup);
                        self.state = SessionState::Ready;
                        Some(SessionEvent::Ready {
                            conn: self.conn,
                            file_size: self.file_size,
                        })
                    }
                    Err(_) => self.fail(Status::Failed),
                }
            }
            (SessionState::Ready, MonitorEvent::Doorbell { conn, value })
                if *conn == self.conn && *value == DOORBELL_COMPLETION =>
            {
                Some(SessionEvent::Completions { conn: self.conn })
            }
            (_, MonitorEvent::Error { conn, .. }) if *conn == self.conn => {
                self.fail(Status::Failed)
            }
            (_, MonitorEvent::PeerFailed { device, .. })
                if *device == self.target || *device == self.memctl =>
            {
                self.fail(Status::Failed)
            }
            _ => None,
        }
    }
}

lastcpu_snap::variants! { SessionState {
    Idle = 0 {}, Opening = 1 {}, Allocating = 2 {}, Sharing = 3 {}, Ready = 4 {},
    Failed = 5 { 0: status },
} }

lastcpu_snap::fields! { FileSession |self| (FileSession::placeholder()) {
    memctl, target, service, token, pasid, va_base, queue_size, state, op, conn, region,
    shm_bytes, file_size, client,
} }

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_bus::CorrId;
    use lastcpu_bus::{Dst, Envelope, Payload, RequestId};
    use lastcpu_iommu::Iommu;
    use lastcpu_mem::{Dram, Perms, PhysAddr, VirtAddr, PAGE_SIZE};
    use lastcpu_sim::MetricsHub;
    use lastcpu_sim::SimTime;

    const MEMCTL: DeviceId = DeviceId(5);
    const SSD: DeviceId = DeviceId(2);
    const ME: DeviceId = DeviceId(1);
    const VA: u64 = 0x100_0000;

    struct Fix {
        iommu: Iommu,
        dram: Dram,
        req: u64,
        stats: MetricsHub,
        pool: lastcpu_sim::BufPool,
    }

    impl Fix {
        fn new() -> Self {
            let mut iommu = Iommu::new(64);
            iommu.bind_pasid(Pasid(1));
            // Pre-map the region the session will use (in the real system
            // the bus does this when memctl instructs it).
            for i in 0..(crate::ssd::FILE_CONN_SHM / PAGE_SIZE) {
                iommu
                    .map(
                        Pasid(1),
                        VirtAddr::new(VA + i * PAGE_SIZE),
                        PhysAddr::new(0x20_0000 + i * PAGE_SIZE),
                        Perms::RW,
                    )
                    .unwrap();
            }
            Fix {
                iommu,
                dram: Dram::new(1 << 24),
                req: 0,
                stats: MetricsHub::new(),
                pool: lastcpu_sim::BufPool::new(),
            }
        }

        fn ctx(&mut self) -> DeviceCtx<'_> {
            DeviceCtx::new(
                SimTime::ZERO,
                ME,
                None,
                &mut self.iommu,
                &mut self.dram,
                &mut self.req,
                CorrId::NONE,
                &self.stats,
                &self.pool,
            )
        }
    }

    fn feed(
        fix: &mut Fix,
        monitor: &mut Monitor,
        session: &mut FileSession,
        env: Envelope,
    ) -> (Vec<SessionEvent>, Vec<Envelope>) {
        let mut ctx = fix.ctx();
        let mut out = Vec::new();
        if let Some(ev) = monitor.handle(&mut ctx, &env) {
            out.extend(session.on_event(&mut ctx, monitor, &ev));
        }
        let (actions, _) = ctx.finish();
        let sent = actions
            .into_iter()
            .filter_map(|a| match a {
                crate::device::Action::SendBus(e) => Some(e),
                _ => None,
            })
            .collect();
        (out, sent)
    }

    #[test]
    fn full_setup_sequence() {
        let mut fix = Fix::new();
        let mut monitor = Monitor::new();
        let mut session =
            FileSession::new(MEMCTL, SSD, ServiceId(100), Token::NONE, Pasid(1), VA, 16);

        // Step 3: open.
        let mut ctx = fix.ctx();
        session.start(&mut ctx, &mut monitor);
        let (actions, _) = ctx.finish();
        let open_req = match &actions[0] {
            crate::device::Action::SendBus(e) => {
                assert!(matches!(e.payload, Payload::OpenRequest { .. }));
                e.req
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(session.state, SessionState::Opening);

        // Step 4: SSD accepts, demanding shared memory.
        let (evs, sent) = feed(
            &mut fix,
            &mut monitor,
            &mut session,
            Envelope {
                src: SSD,
                dst: Dst::Device(ME),
                req: open_req,
                corr: CorrId::NONE,
                payload: Payload::OpenResponse {
                    status: Status::Ok,
                    conn: ConnId(7),
                    shm_bytes: crate::ssd::FILE_CONN_SHM,
                    params: FileOpened { size: 4242 }.encode(),
                },
            },
        );
        assert!(evs.is_empty());
        assert_eq!(session.state, SessionState::Allocating);
        // Step 5: MemAlloc went to the memory controller.
        let alloc_req = sent[0].req;
        assert_eq!(sent[0].dst, Dst::Device(MEMCTL));
        assert!(matches!(sent[0].payload, Payload::MemAlloc { va: VA, .. }));

        // Step 6 happened at the bus; we get the response.
        let (evs, sent) = feed(
            &mut fix,
            &mut monitor,
            &mut session,
            Envelope {
                src: MEMCTL,
                dst: Dst::Device(ME),
                req: alloc_req,
                corr: CorrId::NONE,
                payload: Payload::MemAllocResponse {
                    status: Status::Ok,
                    region: 55,
                },
            },
        );
        assert!(evs.is_empty());
        assert_eq!(session.state, SessionState::Sharing);
        assert_eq!(session.region(), 55);
        // Step 7: Share to the SSD.
        let share_req = sent[0].req;
        assert!(matches!(
            sent[0].payload,
            Payload::Share {
                region: 55,
                target: SSD,
                ..
            }
        ));

        let mut ctx = fix.ctx();
        let ev = monitor
            .handle(
                &mut ctx,
                &Envelope {
                    src: MEMCTL,
                    dst: Dst::Device(ME),
                    req: share_req,
                    corr: CorrId::NONE,
                    payload: Payload::ShareResponse { status: Status::Ok },
                },
            )
            .expect("the share completes");
        assert_eq!(
            session.on_event(&mut ctx, &mut monitor, &ev),
            Some(SessionEvent::Ready {
                conn: ConnId(7),
                file_size: 4242
            })
        );
        assert_eq!(session.state, SessionState::Ready);
        // The setup doorbell went to the SSD.
        let (actions, _) = ctx.finish();
        assert!(actions.iter().any(|a| matches!(
            a,
            crate::device::Action::Doorbell { to, conn, value }
                if *to == SSD && *conn == ConnId(7) && *value != 0
        )));
        assert!(session.client_mut().is_some());
    }

    #[test]
    fn open_denied_fails_session() {
        let mut fix = Fix::new();
        let mut monitor = Monitor::new();
        let mut session =
            FileSession::new(MEMCTL, SSD, ServiceId(100), Token::NONE, Pasid(1), VA, 16);
        let mut ctx = fix.ctx();
        session.start(&mut ctx, &mut monitor);
        let (actions, _) = ctx.finish();
        let open_req = match &actions[0] {
            crate::device::Action::SendBus(e) => e.req,
            other => panic!("unexpected {other:?}"),
        };
        let (evs, _) = feed(
            &mut fix,
            &mut monitor,
            &mut session,
            Envelope {
                src: SSD,
                dst: Dst::Device(ME),
                req: open_req,
                corr: CorrId::NONE,
                payload: Payload::OpenResponse {
                    status: Status::Denied,
                    conn: ConnId(0),
                    shm_bytes: 0,
                    params: vec![],
                },
            },
        );
        assert_eq!(
            evs,
            vec![SessionEvent::Failed {
                status: Status::Denied
            }]
        );
        assert_eq!(session.state, SessionState::Failed(Status::Denied));
        assert!(session.client_mut().is_none());
    }

    #[test]
    fn peer_failure_kills_session() {
        let mut fix = Fix::new();
        let mut monitor = Monitor::new();
        let mut session =
            FileSession::new(MEMCTL, SSD, ServiceId(100), Token::NONE, Pasid(1), VA, 16);
        let mut ctx = fix.ctx();
        session.start(&mut ctx, &mut monitor);
        drop(ctx);
        let (evs, _) = feed(
            &mut fix,
            &mut monitor,
            &mut session,
            Envelope {
                src: DeviceId::BUS,
                dst: Dst::Broadcast,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::DeviceFailed { device: SSD },
            },
        );
        assert_eq!(
            evs,
            vec![SessionEvent::Failed {
                status: Status::Failed
            }]
        );
    }
}
