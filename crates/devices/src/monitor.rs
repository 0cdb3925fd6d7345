//! The resource-monitor runtime embedded in every self-managing device.
//!
//! The paper (§2.1): each device "must implement logic to multiplex its
//! resources into multiple instances, provide isolation between the
//! instances and handle error conditions. This echos the requirements of a
//! resource monitor as in the LegoOS split-kernel design." And §4
//! (*Programmability*): applications link against "a library that
//! encapsulates the functionality of the system bus, and provides
//! functions for service discovery, resource allocation, etc."
//!
//! [`Monitor`] is both: the server-side context multiplexer and the
//! client-side library. The [`crate::firmware`] shell feeds it every
//! incoming envelope and timer tick; it returns [`MonitorEvent`]s for the
//! things the application must decide, and transparently handles the rest
//! (discovery replies, heartbeats, auth checks, peer-failure cleanup).

use std::sync::Arc;

use lastcpu_bus::{
    ConnId, DeviceId, Dst, Envelope, ErrorCode, Payload, RequestId, ServiceDesc, ServiceId, Status,
    Token,
};
use lastcpu_sim::{DetHashMap, DetHashSet, SimDuration};

use crate::auth;
use crate::device::DeviceCtx;

/// Timer-token namespace reserved by the monitor (top bit set).
const TOKEN_BASE: u64 = 1 << 63;
/// Heartbeat timer token.
const TOKEN_HEARTBEAT: u64 = TOKEN_BASE;
/// Discovery-window tokens: `TOKEN_DISCOVERY | op`.
const TOKEN_DISCOVERY: u64 = TOKEN_BASE | (1 << 62);

/// How a service authenticates `OpenRequest` tokens.
#[derive(Debug, Clone)]
pub enum AuthMode {
    /// Accept everything (public service).
    Open,
    /// Accept tokens from an explicit allow-list.
    Local(DetHashSet<Token>),
    /// Accept tokens sealed with a shared secret by an authentication
    /// service (capability-style; see [`crate::auth`]).
    Sealed {
        /// The secret shared with the auth service at deployment.
        secret: u64,
    },
}

impl AuthMode {
    /// Validates `token`, returning the authenticated principal if any.
    ///
    /// `Ok(None)` means "valid but anonymous" (open services).
    pub fn check(&self, token: Token) -> Result<Option<u64>, Status> {
        match self {
            AuthMode::Open => Ok(None),
            AuthMode::Local(set) => {
                if set.contains(&token) {
                    Ok(None)
                } else {
                    Err(Status::Denied)
                }
            }
            AuthMode::Sealed { secret } => match auth::verify(*secret, token) {
                Some(principal) => Ok(Some(principal)),
                None => Err(Status::Denied),
            },
        }
    }
}

/// A pending client-side operation.
#[derive(Debug)]
enum PendingOp {
    Discover {
        hits: Vec<(DeviceId, ServiceDesc)>,
        /// The query's request id (QueryHits echo it, so hits correlate to
        /// this exact discovery even when several overlap).
        req: RequestId,
    },
    Open {
        target: DeviceId,
    },
    Alloc,
    Share,
    Free,
    Close {
        conn: ConnId,
    },
}

/// A connection served by this device (one isolation context).
#[derive(Debug, Clone)]
pub struct ServerConn {
    /// The connection id we assigned.
    pub conn: ConnId,
    /// The client device.
    pub peer: DeviceId,
    /// Which of our services it is connected to.
    pub service: ServiceId,
    /// Authenticated principal, when auth produced one.
    pub principal: Option<u64>,
}

/// Events surfaced to the device application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorEvent {
    /// The bus acknowledged our `Hello`; the device is registered.
    Registered,
    /// A discovery window closed.
    DiscoveryDone {
        /// The operation handle returned by [`Monitor::discover`].
        op: u64,
        /// All `(device, service)` pairs that answered.
        hits: Vec<(DeviceId, ServiceDesc)>,
    },
    /// An `open` completed.
    OpenDone {
        /// The operation handle.
        op: u64,
        /// The serving device.
        target: DeviceId,
        /// Outcome: connection id, shared-memory requirement and service
        /// parameters on success.
        result: Result<(ConnId, u64, Vec<u8>), Status>,
    },
    /// An `alloc_shared` completed.
    AllocDone {
        /// The operation handle.
        op: u64,
        /// Region handle on success.
        result: Result<u64, Status>,
    },
    /// A `share` completed.
    ShareDone {
        /// The operation handle.
        op: u64,
        /// Outcome.
        status: Status,
    },
    /// A `free_region` completed.
    FreeDone {
        /// The operation handle.
        op: u64,
        /// Outcome.
        status: Status,
    },
    /// A `close` completed.
    CloseDone {
        /// The operation handle.
        op: u64,
        /// Outcome.
        status: Status,
    },
    /// The bus reports our IOMMU mappings changed (grant installed or
    /// revoked).
    MapChanged {
        /// Virtual base of the affected range.
        va: u64,
        /// Pages affected.
        pages: u64,
    },
    /// A client wants to open one of our services and passed
    /// authentication. Respond with [`Monitor::accept_open`] or
    /// [`Monitor::reject_open`].
    OpenRequested {
        /// Request id to echo in the response.
        req: RequestId,
        /// The requesting device.
        from: DeviceId,
        /// The requested service.
        service: ServiceId,
        /// Authenticated principal, if the auth mode produces one.
        principal: Option<u64>,
        /// Service-specific parameters.
        params: Vec<u8>,
    },
    /// A client closed a connection we were serving.
    PeerClosed {
        /// The closed connection.
        conn: ConnId,
    },
    /// A doorbell rang on a connection (either side).
    Doorbell {
        /// The connection.
        conn: ConnId,
        /// The value written.
        value: u64,
    },
    /// An error notification arrived.
    Error {
        /// Error class.
        code: ErrorCode,
        /// Affected connection (0 when N/A).
        conn: ConnId,
        /// Detail text.
        detail: String,
    },
    /// A device we had connections with failed; the listed connections are
    /// gone (already cleaned up).
    PeerFailed {
        /// The failed device.
        device: DeviceId,
        /// Client-side connections that died with it.
        lost_conns: Vec<ConnId>,
        /// Server-side connections that died with it.
        dropped_server_conns: Vec<ConnId>,
    },
}

/// The monitor state machine.
pub struct Monitor {
    services: Vec<(ServiceDesc, AuthMode)>,
    ops: DetHashMap<u64, PendingOp>,
    next_op: u64,
    req_to_op: DetHashMap<RequestId, u64>,
    conns: DetHashMap<ConnId, ServerConn>,
    next_conn: u64,
    /// Client-side: connections we opened, by serving device.
    opened: DetHashMap<ConnId, DeviceId>,
    discovery_window: SimDuration,
    heartbeat: Option<SimDuration>,
    registered: bool,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// A monitor with a 50 µs discovery window and no heartbeat.
    pub fn new() -> Self {
        Monitor {
            services: Vec::new(),
            ops: DetHashMap::default(),
            next_op: 1,
            req_to_op: DetHashMap::default(),
            conns: DetHashMap::default(),
            next_conn: 1,
            opened: DetHashMap::default(),
            discovery_window: SimDuration::from_micros(50),
            heartbeat: None,
            registered: false,
        }
    }

    /// Changes how long [`Monitor::discover`] waits for answers.
    pub fn set_discovery_window(&mut self, w: SimDuration) {
        self.discovery_window = w;
    }

    /// Whether the bus has acknowledged our `Hello`.
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Connections currently served, in unspecified order.
    pub fn server_conns(&self) -> impl Iterator<Item = &ServerConn> {
        self.conns.values()
    }

    /// Looks up a served connection.
    pub fn server_conn(&self, conn: ConnId) -> Option<&ServerConn> {
        self.conns.get(&conn)
    }

    /// Number of client-side connections currently open.
    pub fn open_conn_count(&self) -> usize {
        self.opened.len()
    }

    // --- Startup -----------------------------------------------------

    /// Sends `Hello` (after the device's self-test) and announces services.
    pub fn start(&mut self, ctx: &mut DeviceCtx<'_>, name: &str, kind: &str) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: name.to_string(),
                kind: kind.to_string(),
            },
        );
        for (svc, _) in &self.services {
            ctx.send_bus(
                Dst::Bus,
                Payload::Announce {
                    service: svc.clone(),
                },
            );
        }
    }

    /// Registers a service (before or after `start`; announces immediately
    /// when the context is provided post-start).
    pub fn add_service(&mut self, svc: ServiceDesc, auth: AuthMode) {
        self.services.retain(|(s, _)| s.id != svc.id);
        self.services.push((svc, auth));
    }

    /// Announces one service on the bus (for services added after start).
    pub fn announce(&self, ctx: &mut DeviceCtx<'_>, id: ServiceId) {
        if let Some((svc, _)) = self.services.iter().find(|(s, _)| s.id == id) {
            ctx.send_bus(
                Dst::Bus,
                Payload::Announce {
                    service: svc.clone(),
                },
            );
        }
    }

    /// Enables periodic heartbeats.
    pub fn enable_heartbeat(&mut self, ctx: &mut DeviceCtx<'_>, interval: SimDuration) {
        self.heartbeat = Some(interval);
        ctx.set_timer(interval, TOKEN_HEARTBEAT);
    }

    // --- Client-side operations ---------------------------------------

    fn new_op(&mut self, op: PendingOp) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        self.ops.insert(id, op);
        id
    }

    fn track(&mut self, req: RequestId, op: u64) {
        self.req_to_op.insert(req, op);
    }

    /// Starts service discovery for `pattern` (exact name or `prefix*`).
    ///
    /// Emits [`MonitorEvent::DiscoveryDone`] when the window closes.
    /// Overlapping discoveries are safe: answers echo the query's request
    /// id, so each hit is attributed to exactly the discovery that asked.
    pub fn discover(&mut self, ctx: &mut DeviceCtx<'_>, pattern: impl Into<Arc<str>>) -> u64 {
        let req = ctx.send_bus(
            Dst::Bus,
            Payload::Query {
                pattern: pattern.into(),
            },
        );
        let op = self.new_op(PendingOp::Discover {
            hits: Vec::new(),
            req,
        });
        self.track(req, op);
        ctx.set_timer(self.discovery_window, TOKEN_DISCOVERY | op);
        op
    }

    /// Opens a service on another device.
    pub fn open(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        target: DeviceId,
        service: ServiceId,
        token: Token,
        params: Vec<u8>,
    ) -> u64 {
        let op = self.new_op(PendingOp::Open { target });
        let req = ctx.send_bus(
            Dst::Device(target),
            Payload::OpenRequest {
                service,
                token,
                params,
            },
        );
        self.track(req, op);
        op
    }

    /// Requests shared memory from the memory controller (§3 step 5).
    pub fn alloc_shared(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        memctl: DeviceId,
        pasid: u32,
        va: u64,
        bytes: u64,
        perms: u8,
    ) -> u64 {
        let op = self.new_op(PendingOp::Alloc);
        let req = ctx.send_bus(
            Dst::Device(memctl),
            Payload::MemAlloc {
                pasid,
                va,
                bytes,
                perms,
            },
        );
        self.track(req, op);
        op
    }

    /// Grants a region we own to another device (§3 step 7).
    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    pub fn share(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        memctl: DeviceId,
        region: u64,
        target: DeviceId,
        pasid: u32,
        va: u64,
        perms: u8,
    ) -> u64 {
        let op = self.new_op(PendingOp::Share);
        let req = ctx.send_bus(
            Dst::Device(memctl),
            Payload::Share {
                region,
                target,
                pasid,
                va,
                perms,
            },
        );
        self.track(req, op);
        op
    }

    /// Releases a region we own.
    pub fn free_region(&mut self, ctx: &mut DeviceCtx<'_>, memctl: DeviceId, region: u64) -> u64 {
        let op = self.new_op(PendingOp::Free);
        let req = ctx.send_bus(Dst::Device(memctl), Payload::MemFree { region });
        self.track(req, op);
        op
    }

    /// Closes a connection we opened.
    pub fn close(&mut self, ctx: &mut DeviceCtx<'_>, conn: ConnId) -> Option<u64> {
        let target = self.opened.get(&conn).copied()?;
        let op = self.new_op(PendingOp::Close { conn });
        let req = ctx.send_bus(Dst::Device(target), Payload::CloseRequest { conn });
        self.track(req, op);
        Some(op)
    }

    // --- Server-side responses ------------------------------------------

    /// Accepts a pending [`MonitorEvent::OpenRequested`], allocating the
    /// connection context.
    #[allow(clippy::too_many_arguments)] // Mirrors the open-response fields.
    pub fn accept_open(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        req: RequestId,
        from: DeviceId,
        service: ServiceId,
        principal: Option<u64>,
        shm_bytes: u64,
        params: Vec<u8>,
    ) -> ConnId {
        let conn = ConnId(self.next_conn);
        self.next_conn += 1;
        self.conns.insert(
            conn,
            ServerConn {
                conn,
                peer: from,
                service,
                principal,
            },
        );
        ctx.send_bus_with_req(
            Dst::Device(from),
            req,
            Payload::OpenResponse {
                status: Status::Ok,
                conn,
                shm_bytes,
                params,
            },
        );
        conn
    }

    /// Rejects a pending [`MonitorEvent::OpenRequested`].
    pub fn reject_open(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        req: RequestId,
        from: DeviceId,
        status: Status,
    ) {
        ctx.send_bus_with_req(
            Dst::Device(from),
            req,
            Payload::OpenResponse {
                status,
                conn: ConnId(0),
                shm_bytes: 0,
                params: Vec::new(),
            },
        );
    }

    /// Drops a served connection (after a fatal per-connection error),
    /// notifying the peer (§4: "It must send a message to any consumer
    /// using that resource and then reset the resource").
    pub fn reset_conn(&mut self, ctx: &mut DeviceCtx<'_>, conn: ConnId, detail: &str) {
        if let Some(c) = self.conns.remove(&conn) {
            ctx.send_bus(
                Dst::Device(c.peer),
                Payload::ErrorNotify {
                    code: ErrorCode::ServiceReset,
                    conn,
                    detail: detail.to_string(),
                },
            );
        }
    }

    // --- Event pump ----------------------------------------------------

    /// Whether `name` matches a discovery `pattern` (exact, or `prefix*`).
    pub fn match_pattern(pattern: &str, name: &str) -> bool {
        match pattern.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => pattern == name,
        }
    }

    /// Feeds one incoming envelope; returns the event it raises for the
    /// application, if any. An envelope raises at most one, so the pump
    /// allocates nothing.
    pub fn handle(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) -> Option<MonitorEvent> {
        let mut ev = None;
        match &env.payload {
            Payload::HelloAck { .. } => {
                self.registered = true;
                ev = Some(MonitorEvent::Registered);
            }
            Payload::Query { pattern } => {
                // Answer for every matching service we host.
                for (svc, _) in &self.services {
                    if Self::match_pattern(pattern, &svc.name) {
                        ctx.send_bus_with_req(
                            Dst::Device(env.src),
                            env.req,
                            Payload::QueryHit {
                                device: ctx.dev,
                                service: svc.clone(),
                            },
                        );
                    }
                }
            }
            Payload::QueryHit { device, service } => {
                // Do not remove the mapping: one query collects many hits.
                if let Some(&op) = self.req_to_op.get(&env.req) {
                    if let Some(PendingOp::Discover { hits, .. }) = self.ops.get_mut(&op) {
                        hits.push((*device, service.clone()));
                    }
                }
            }
            Payload::OpenRequest {
                service,
                token,
                params,
            } => match self.services.iter().find(|(s, _)| s.id == *service) {
                None => {
                    self.reject_open(ctx, env.req, env.src, Status::NotFound);
                }
                Some((_, auth)) => match auth.check(*token) {
                    Ok(principal) => {
                        ev = Some(MonitorEvent::OpenRequested {
                            req: env.req,
                            from: env.src,
                            service: *service,
                            principal,
                            params: params.clone(),
                        })
                    }
                    Err(status) => {
                        self.reject_open(ctx, env.req, env.src, status);
                    }
                },
            },
            Payload::OpenResponse {
                status,
                conn,
                shm_bytes,
                params,
            } => {
                if let Some(op) = self.req_to_op.remove(&env.req) {
                    if let Some(PendingOp::Open { target, .. }) = self.ops.remove(&op) {
                        let result = if status.is_ok() {
                            self.opened.insert(*conn, target);
                            Ok((*conn, *shm_bytes, params.clone()))
                        } else {
                            Err(*status)
                        };
                        ev = Some(MonitorEvent::OpenDone { op, target, result });
                    }
                }
            }
            Payload::CloseRequest { conn } => {
                let status = if self.conns.remove(conn).is_some() {
                    ev = Some(MonitorEvent::PeerClosed { conn: *conn });
                    Status::Ok
                } else {
                    Status::NotFound
                };
                ctx.send_bus_with_req(
                    Dst::Device(env.src),
                    env.req,
                    Payload::CloseResponse { status },
                );
            }
            Payload::CloseResponse { status } => {
                if let Some(op) = self.req_to_op.remove(&env.req) {
                    if let Some(PendingOp::Close { conn, .. }) = self.ops.remove(&op) {
                        self.opened.remove(&conn);
                        ev = Some(MonitorEvent::CloseDone {
                            op,
                            status: *status,
                        });
                    }
                }
            }
            Payload::MemAllocResponse { status, region } => {
                if let Some(op) = self.req_to_op.remove(&env.req) {
                    if matches!(self.ops.remove(&op), Some(PendingOp::Alloc)) {
                        let result = if status.is_ok() {
                            Ok(*region)
                        } else {
                            Err(*status)
                        };
                        ev = Some(MonitorEvent::AllocDone { op, result });
                    }
                }
            }
            Payload::ShareResponse { status } => {
                if let Some(op) = self.req_to_op.remove(&env.req) {
                    if matches!(self.ops.remove(&op), Some(PendingOp::Share)) {
                        ev = Some(MonitorEvent::ShareDone {
                            op,
                            status: *status,
                        });
                    }
                }
            }
            Payload::MemFreeResponse { status } => {
                if let Some(op) = self.req_to_op.remove(&env.req) {
                    if matches!(self.ops.remove(&op), Some(PendingOp::Free)) {
                        ev = Some(MonitorEvent::FreeDone {
                            op,
                            status: *status,
                        });
                    }
                }
            }
            Payload::MapComplete { va, pages, .. } => {
                ev = Some(MonitorEvent::MapChanged {
                    va: *va,
                    pages: *pages,
                });
            }
            Payload::Doorbell { conn, value } => {
                ev = Some(MonitorEvent::Doorbell {
                    conn: *conn,
                    value: *value,
                });
            }
            Payload::ErrorNotify { code, conn, detail } => {
                ev = Some(MonitorEvent::Error {
                    code: *code,
                    conn: *conn,
                    detail: detail.clone(),
                });
            }
            Payload::DeviceFailed { device } => {
                let lost: Vec<ConnId> = self
                    .opened
                    .iter()
                    .filter(|(_, &d)| d == *device)
                    .map(|(&c, _)| c)
                    .collect();
                for c in &lost {
                    self.opened.remove(c);
                }
                let dropped: Vec<ConnId> = self
                    .conns
                    .values()
                    .filter(|c| c.peer == *device)
                    .map(|c| c.conn)
                    .collect();
                for c in &dropped {
                    self.conns.remove(c);
                }
                // Always surfaced, even with no connections: an application
                // mid-handshake with the dead device must learn about it.
                ev = Some(MonitorEvent::PeerFailed {
                    device: *device,
                    lost_conns: lost,
                    dropped_server_conns: dropped,
                });
            }
            // Announce/Withdraw broadcasts, heartbeat echoes etc. need no
            // application action.
            _ => {}
        }
        ev
    }

    /// Whether a timer token is the monitor's (top bit set); any other
    /// belongs to the device application.
    pub fn owns_timer(token: u64) -> bool {
        token & TOKEN_BASE != 0
    }

    /// Feeds a tick of one of the monitor's own timers (see
    /// [`Monitor::owns_timer`]); returns the event it raises, if any.
    pub fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) -> Option<MonitorEvent> {
        if token == TOKEN_HEARTBEAT {
            ctx.send_bus(Dst::Bus, Payload::Heartbeat);
            if let Some(interval) = self.heartbeat {
                ctx.set_timer(interval, TOKEN_HEARTBEAT);
            }
        } else if token & TOKEN_DISCOVERY == TOKEN_DISCOVERY {
            let op = token & !(TOKEN_DISCOVERY);
            if let Some(PendingOp::Discover { hits, req }) = self.ops.remove(&op) {
                self.req_to_op.remove(&req);
                return Some(MonitorEvent::DiscoveryDone { op, hits });
            }
        }
        None
    }

    /// Wipes all state (device reset). The device must `start` again.
    pub fn reset(&mut self) {
        self.ops.clear();
        self.req_to_op.clear();
        self.conns.clear();
        self.opened.clear();
        self.registered = false;
    }
}

#[cfg(test)]
mod discovery_correlation_tests {
    use super::*;
    use lastcpu_bus::{CorrId, ResourceKind};
    use lastcpu_iommu::Iommu;
    use lastcpu_mem::Dram;
    use lastcpu_sim::MetricsHub;
    use lastcpu_sim::{DetRng, SimTime};

    #[test]
    fn overlapping_discoveries_do_not_share_hits() {
        let mut iommu = Iommu::new(16);
        let mut dram = Dram::new(1 << 20);
        let mut rng = DetRng::new(7);
        let mut req = 0u64;
        let hub = MetricsHub::new();
        let mut m = Monitor::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut rng,
            &mut req,
            CorrId::NONE,
            &hub,
        );
        let op_a = m.discover(&mut ctx, "alpha:*");
        let op_b = m.discover(&mut ctx, "beta:*");
        let (actions, _, _) = ctx.finish();
        // Extract the two query request ids, in order.
        let reqs: Vec<RequestId> = actions
            .iter()
            .filter_map(|a| match a {
                crate::device::Action::SendBus(e) if matches!(e.payload, Payload::Query { .. }) => {
                    Some(e.req)
                }
                _ => None,
            })
            .collect();
        assert_eq!(reqs.len(), 2);

        let svc = |name: &str| ServiceDesc {
            id: ServiceId(1),
            name: name.into(),
            resource: ResourceKind::Compute,
        };
        // A hit answering query B arrives first; then one answering A.
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut rng,
            &mut req,
            CorrId::NONE,
            &hub,
        );
        m.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(5),
                dst: Dst::Device(DeviceId(1)),
                req: reqs[1],
                corr: CorrId::NONE,
                payload: Payload::QueryHit {
                    device: DeviceId(5),
                    service: svc("beta:thing"),
                },
            },
        );
        m.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(6),
                dst: Dst::Device(DeviceId(1)),
                req: reqs[0],
                corr: CorrId::NONE,
                payload: Payload::QueryHit {
                    device: DeviceId(6),
                    service: svc("alpha:thing"),
                },
            },
        );
        // Close both windows.
        let ev_a = m.on_timer(&mut ctx, (1 << 63) | (1 << 62) | op_a).unwrap();
        let ev_b = m.on_timer(&mut ctx, (1 << 63) | (1 << 62) | op_b).unwrap();
        match (&ev_a, &ev_b) {
            (
                MonitorEvent::DiscoveryDone { op: oa, hits: ha },
                MonitorEvent::DiscoveryDone { op: ob, hits: hb },
            ) => {
                assert_eq!(*oa, op_a);
                assert_eq!(*ob, op_b);
                assert_eq!(ha.len(), 1);
                assert_eq!(hb.len(), 1);
                assert_eq!(ha[0].1.name, "alpha:thing");
                assert_eq!(hb[0].1.name, "beta:thing");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

impl AuthMode {
    /// Serializes into a snapshot section.
    pub fn snap_encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        match self {
            AuthMode::Open => w.put_u8(0),
            AuthMode::Local(set) => {
                w.put_u8(1);
                let mut tokens: Vec<u128> = set.iter().map(|t| t.0).collect();
                tokens.sort_unstable();
                w.put_len(tokens.len());
                for t in tokens {
                    w.put_u128(t);
                }
            }
            AuthMode::Sealed { secret } => {
                w.put_u8(2);
                w.put_u64(*secret);
            }
        }
    }

    /// Inverse of [`AuthMode::snap_encode`].
    pub fn snap_decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(match r.u8()? {
            0 => AuthMode::Open,
            1 => {
                let n = r.len()?;
                let mut set = DetHashSet::default();
                for _ in 0..n {
                    set.insert(Token(r.u128()?));
                }
                AuthMode::Local(set)
            }
            2 => AuthMode::Sealed { secret: r.u64()? },
            t => return Err(r.corrupt(format!("bad AuthMode tag {t}"))),
        })
    }
}

impl PendingOp {
    fn snap_encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        match self {
            PendingOp::Discover { hits, req } => {
                w.put_u8(0);
                w.put_len(hits.len());
                for (d, svc) in hits {
                    w.put_u32(d.0);
                    svc.snap_encode(w);
                }
                w.put_u64(req.0);
            }
            PendingOp::Open { target } => {
                w.put_u8(1);
                w.put_u32(target.0);
            }
            PendingOp::Alloc => w.put_u8(2),
            PendingOp::Share => w.put_u8(3),
            PendingOp::Free => w.put_u8(4),
            PendingOp::Close { conn } => {
                w.put_u8(5);
                w.put_u64(conn.0);
            }
        }
    }

    fn snap_decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(match r.u8()? {
            0 => {
                let n = r.len()?;
                let mut hits = Vec::with_capacity(n);
                for _ in 0..n {
                    let d = DeviceId(r.u32()?);
                    hits.push((d, ServiceDesc::snap_decode(r)?));
                }
                PendingOp::Discover {
                    hits,
                    req: RequestId(r.u64()?),
                }
            }
            1 => PendingOp::Open {
                target: DeviceId(r.u32()?),
            },
            2 => PendingOp::Alloc,
            3 => PendingOp::Share,
            4 => PendingOp::Free,
            5 => PendingOp::Close {
                conn: ConnId(r.u64()?),
            },
            t => return Err(r.corrupt(format!("bad PendingOp tag {t}"))),
        })
    }
}

impl lastcpu_snap::Snapshot for Monitor {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_len(self.services.len());
        for (svc, auth) in &self.services {
            svc.snap_encode(w);
            auth.snap_encode(w);
        }
        let mut ops: Vec<_> = self.ops.keys().copied().collect();
        ops.sort_unstable();
        w.put_len(ops.len());
        for id in ops {
            w.put_u64(id);
            self.ops[&id].snap_encode(w);
        }
        w.put_u64(self.next_op);
        let mut reqs: Vec<_> = self.req_to_op.iter().map(|(r, o)| (r.0, *o)).collect();
        reqs.sort_unstable();
        w.put_len(reqs.len());
        for (req, op) in reqs {
            w.put_u64(req);
            w.put_u64(op);
        }
        let mut conns: Vec<_> = self.conns.keys().copied().collect();
        conns.sort_by_key(|c| c.0);
        w.put_len(conns.len());
        for c in conns {
            let sc = &self.conns[&c];
            w.put_u64(sc.conn.0);
            w.put_u32(sc.peer.0);
            w.put_u16(sc.service.0);
            w.put_opt(sc.principal.as_ref(), |w, p| w.put_u64(*p));
        }
        w.put_u64(self.next_conn);
        let mut opened: Vec<_> = self.opened.iter().map(|(c, d)| (c.0, d.0)).collect();
        opened.sort_unstable();
        w.put_len(opened.len());
        for (c, d) in opened {
            w.put_u64(c);
            w.put_u32(d);
        }
        w.put_u64(self.discovery_window.as_nanos());
        w.put_opt(self.heartbeat.as_ref(), |w, h| w.put_u64(h.as_nanos()));
        w.put_bool(self.registered);
    }
}

impl lastcpu_snap::Restore for Monitor {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        let n = r.len()?;
        self.services = Vec::with_capacity(n);
        for _ in 0..n {
            let svc = ServiceDesc::snap_decode(r)?;
            let auth = AuthMode::snap_decode(r)?;
            self.services.push((svc, auth));
        }
        let n = r.len()?;
        self.ops = DetHashMap::default();
        for _ in 0..n {
            let id = r.u64()?;
            self.ops.insert(id, PendingOp::snap_decode(r)?);
        }
        self.next_op = r.u64()?;
        let n = r.len()?;
        self.req_to_op = DetHashMap::default();
        for _ in 0..n {
            let req = RequestId(r.u64()?);
            let op = r.u64()?;
            self.req_to_op.insert(req, op);
        }
        let n = r.len()?;
        self.conns = DetHashMap::default();
        for _ in 0..n {
            let conn = ConnId(r.u64()?);
            let sc = ServerConn {
                conn,
                peer: DeviceId(r.u32()?),
                service: ServiceId(r.u16()?),
                principal: r.opt(|r| r.u64())?,
            };
            self.conns.insert(conn, sc);
        }
        self.next_conn = r.u64()?;
        let n = r.len()?;
        self.opened = DetHashMap::default();
        for _ in 0..n {
            let c = ConnId(r.u64()?);
            let d = DeviceId(r.u32()?);
            self.opened.insert(c, d);
        }
        self.discovery_window = SimDuration::from_nanos(r.u64()?);
        self.heartbeat = r.opt(|r| Ok(SimDuration::from_nanos(r.u64()?)))?;
        self.registered = r.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_bus::CorrId;
    use lastcpu_bus::ResourceKind;
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

    fn svc(id: u16, name: &str) -> ServiceDesc {
        ServiceDesc {
            id: ServiceId(id),
            name: name.to_string(),
            resource: ResourceKind::Storage,
        }
    }

    fn sent(ctx: DeviceCtx<'_>) -> Vec<Envelope> {
        let (actions, _, _) = ctx.finish();
        actions
            .into_iter()
            .filter_map(|a| match a {
                crate::device::Action::SendBus(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn start_sends_hello_and_announces() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        m.add_service(svc(1, "file:/a"), AuthMode::Open);
        let mut ctx = fix.ctx();
        m.start(&mut ctx, "ssd0", "smart-ssd");
        let msgs = sent(ctx);
        assert!(matches!(msgs[0].payload, Payload::Hello { .. }));
        assert!(matches!(msgs[1].payload, Payload::Announce { .. }));
    }

    #[test]
    fn registered_on_hello_ack() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        let mut ctx = fix.ctx();
        let ev = m.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId::BUS,
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::HelloAck {
                    assigned: DeviceId(1),
                },
            },
        );
        assert_eq!(ev, Some(MonitorEvent::Registered));
        assert!(m.is_registered());
    }

    #[test]
    fn query_answered_for_matching_services() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        m.add_service(svc(1, "file:/data/kv.db"), AuthMode::Open);
        m.add_service(svc(2, "file:/logs/app.log"), AuthMode::Open);
        m.add_service(svc(3, "loader"), AuthMode::Open);
        let mut ctx = fix.ctx();
        m.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Broadcast,
                req: RequestId(5),
                corr: CorrId::NONE,
                payload: Payload::Query {
                    pattern: "file:*".into(),
                },
            },
        );
        let msgs = sent(ctx);
        assert_eq!(msgs.len(), 2);
        for msg in &msgs {
            assert_eq!(msg.dst, Dst::Device(DeviceId(9)));
            assert_eq!(msg.req, RequestId(5));
            assert!(matches!(msg.payload, Payload::QueryHit { .. }));
        }
    }

    #[test]
    fn exact_query_matches_exactly() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        m.add_service(svc(1, "loader"), AuthMode::Open);
        m.add_service(svc(2, "loader2"), AuthMode::Open);
        let mut ctx = fix.ctx();
        m.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Broadcast,
                req: RequestId(5),
                corr: CorrId::NONE,
                payload: Payload::Query {
                    pattern: "loader".into(),
                },
            },
        );
        assert_eq!(sent(ctx).len(), 1);
    }

    #[test]
    fn discovery_collects_hits_until_window() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        let mut ctx = fix.ctx();
        let op = m.discover(&mut ctx, "file:*");
        let (actions, _, _) = ctx.finish();
        assert!(actions.iter().any(|a| matches!(
            a,
            crate::device::Action::SendBus(Envelope {
                payload: Payload::Query { .. },
                ..
            })
        )));
        let timer_token = actions
            .iter()
            .find_map(|a| match a {
                crate::device::Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();

        let mut ctx = fix.ctx();
        m.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(2),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::QueryHit {
                    device: DeviceId(2),
                    service: svc(4, "file:/data/kv.db"),
                },
            },
        );
        match &m
            .on_timer(&mut ctx, timer_token)
            .expect("the window closes")
        {
            MonitorEvent::DiscoveryDone { op: done, hits } => {
                assert_eq!(*done, op);
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].0, DeviceId(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn open_flow_client_and_server() {
        let mut fix_client = Fix::new();
        let mut fix_server = Fix::new();
        let mut client = Monitor::new();
        let mut server = Monitor::new();
        server.add_service(svc(1, "file:/x"), AuthMode::Open);

        // Client opens.
        let mut cctx = fix_client.ctx();
        let op = client.open(&mut cctx, DeviceId(2), ServiceId(1), Token::NONE, vec![9]);
        let msgs = sent(cctx);
        let open_req = msgs.into_iter().next().unwrap();

        // Server receives, app accepts.
        let mut sctx = fix_server.ctx();
        let ev = server.handle(&mut sctx, &open_req);
        let (req, from, service, principal) = match ev.as_ref().expect("one event") {
            MonitorEvent::OpenRequested {
                req,
                from,
                service,
                principal,
                params,
            } => {
                assert_eq!(params, &vec![9]);
                (*req, *from, *service, *principal)
            }
            other => panic!("unexpected {other:?}"),
        };
        let conn = server.accept_open(&mut sctx, req, from, service, principal, 65536, vec![7]);
        let resp = sent(sctx).into_iter().next().unwrap();

        // Client resolves.
        let mut cctx = fix_client.ctx();
        let ev = client.handle(&mut cctx, &resp);
        match ev.as_ref().expect("one event") {
            MonitorEvent::OpenDone {
                op: done,
                target,
                result: Ok((c, shm, params)),
            } => {
                assert_eq!(*done, op);
                assert_eq!(*target, DeviceId(2));
                assert_eq!(*c, conn);
                assert_eq!(*shm, 65536);
                assert_eq!(params, &vec![7]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.open_conn_count(), 1);
        assert_eq!(server.server_conns().count(), 1);
    }

    #[test]
    fn open_denied_by_local_auth() {
        let mut fix = Fix::new();
        let mut server = Monitor::new();
        let mut allowed = DetHashSet::default();
        allowed.insert(Token(42));
        server.add_service(svc(1, "secret"), AuthMode::Local(allowed));
        let mut ctx = fix.ctx();
        let ev = server.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(3),
                corr: CorrId::NONE,
                payload: Payload::OpenRequest {
                    service: ServiceId(1),
                    token: Token(7), // wrong
                    params: vec![],
                },
            },
        );
        assert!(ev.is_none(), "auth failure handled internally");
        let msgs = sent(ctx);
        assert!(matches!(
            msgs[0].payload,
            Payload::OpenResponse {
                status: Status::Denied,
                ..
            }
        ));
    }

    #[test]
    fn open_sealed_auth_extracts_principal() {
        let secret = 0xFEED;
        let token = auth::seal(secret, 1234);
        let mut fix = Fix::new();
        let mut server = Monitor::new();
        server.add_service(svc(1, "secure"), AuthMode::Sealed { secret });
        let mut ctx = fix.ctx();
        let ev = server.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(3),
                corr: CorrId::NONE,
                payload: Payload::OpenRequest {
                    service: ServiceId(1),
                    token,
                    params: vec![],
                },
            },
        );
        match ev.as_ref().expect("one event") {
            MonitorEvent::OpenRequested { principal, .. } => {
                assert_eq!(*principal, Some(1234));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn open_unknown_service_not_found() {
        let mut fix = Fix::new();
        let mut server = Monitor::new();
        let mut ctx = fix.ctx();
        let ev = server.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(3),
                corr: CorrId::NONE,
                payload: Payload::OpenRequest {
                    service: ServiceId(99),
                    token: Token::NONE,
                    params: vec![],
                },
            },
        );
        assert!(ev.is_none());
        let msgs = sent(ctx);
        assert!(matches!(
            msgs[0].payload,
            Payload::OpenResponse {
                status: Status::NotFound,
                ..
            }
        ));
    }

    #[test]
    fn close_flow_both_sides() {
        let mut fix = Fix::new();
        let mut server = Monitor::new();
        server.add_service(svc(1, "s"), AuthMode::Open);
        // Seed a server conn directly via accept path.
        let mut ctx = fix.ctx();
        let conn = server.accept_open(
            &mut ctx,
            RequestId(1),
            DeviceId(9),
            ServiceId(1),
            None,
            0,
            vec![],
        );
        drop(sent(ctx));
        let mut ctx = fix.ctx();
        let ev = server.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(2),
                corr: CorrId::NONE,
                payload: Payload::CloseRequest { conn },
            },
        );
        assert_eq!(ev, Some(MonitorEvent::PeerClosed { conn }));
        let msgs = sent(ctx);
        assert!(matches!(
            msgs[0].payload,
            Payload::CloseResponse { status: Status::Ok }
        ));
        assert_eq!(server.server_conns().count(), 0);
    }

    #[test]
    fn alloc_share_free_resolve_ops() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        let mc = DeviceId(5);

        let mut ctx = fix.ctx();
        let op_a = m.alloc_shared(&mut ctx, mc, 1, 0x10000, 8192, 3);
        let alloc_req = sent(ctx)[0].req;

        let mut ctx = fix.ctx();
        let ev = m.handle(
            &mut ctx,
            &Envelope {
                src: mc,
                dst: Dst::Device(DeviceId(1)),
                req: alloc_req,
                corr: CorrId::NONE,
                payload: Payload::MemAllocResponse {
                    status: Status::Ok,
                    region: 33,
                },
            },
        );
        assert_eq!(
            ev,
            Some(MonitorEvent::AllocDone {
                op: op_a,
                result: Ok(33)
            })
        );

        let mut ctx = fix.ctx();
        let op_s = m.share(&mut ctx, mc, 33, DeviceId(2), 1, 0x10000, 3);
        let share_req = sent(ctx)[0].req;
        let mut ctx = fix.ctx();
        let ev = m.handle(
            &mut ctx,
            &Envelope {
                src: mc,
                dst: Dst::Device(DeviceId(1)),
                req: share_req,
                corr: CorrId::NONE,
                payload: Payload::ShareResponse { status: Status::Ok },
            },
        );
        assert_eq!(
            ev,
            Some(MonitorEvent::ShareDone {
                op: op_s,
                status: Status::Ok
            })
        );

        let mut ctx = fix.ctx();
        let op_f = m.free_region(&mut ctx, mc, 33);
        let free_req = sent(ctx)[0].req;
        let mut ctx = fix.ctx();
        let ev = m.handle(
            &mut ctx,
            &Envelope {
                src: mc,
                dst: Dst::Device(DeviceId(1)),
                req: free_req,
                corr: CorrId::NONE,
                payload: Payload::MemFreeResponse { status: Status::Ok },
            },
        );
        assert_eq!(
            ev,
            Some(MonitorEvent::FreeDone {
                op: op_f,
                status: Status::Ok
            })
        );
    }

    #[test]
    fn device_failure_drops_both_kinds_of_conns() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        m.add_service(svc(1, "s"), AuthMode::Open);
        // A server conn from device 9 and a client conn to device 9.
        let mut ctx = fix.ctx();
        let server_conn = m.accept_open(
            &mut ctx,
            RequestId(1),
            DeviceId(9),
            ServiceId(1),
            None,
            0,
            vec![],
        );
        drop(sent(ctx));
        let mut ctx = fix.ctx();
        let _op = m.open(&mut ctx, DeviceId(9), ServiceId(2), Token::NONE, vec![]);
        let open_req = sent(ctx)[0].req;
        let mut ctx = fix.ctx();
        m.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(9),
                dst: Dst::Device(DeviceId(1)),
                req: open_req,
                corr: CorrId::NONE,
                payload: Payload::OpenResponse {
                    status: Status::Ok,
                    conn: ConnId(70),
                    shm_bytes: 0,
                    params: vec![],
                },
            },
        );
        // Now device 9 dies.
        let mut ctx = fix.ctx();
        let ev = m.handle(
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
        match ev.as_ref().expect("one event") {
            MonitorEvent::PeerFailed {
                device,
                lost_conns,
                dropped_server_conns,
            } => {
                assert_eq!(*device, DeviceId(9));
                assert_eq!(lost_conns, &vec![ConnId(70)]);
                assert_eq!(dropped_server_conns, &vec![server_conn]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.open_conn_count(), 0);
        assert_eq!(m.server_conns().count(), 0);
    }

    #[test]
    fn heartbeat_rearms() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        let mut ctx = fix.ctx();
        m.enable_heartbeat(&mut ctx, SimDuration::from_millis(1));
        let (actions, _, _) = ctx.finish();
        let token = actions
            .iter()
            .find_map(|a| match a {
                crate::device::Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        let mut ctx = fix.ctx();
        assert!(Monitor::owns_timer(token));
        assert_eq!(m.on_timer(&mut ctx, token), None);
        let (actions, _, _) = ctx.finish();
        let has_hb = actions.iter().any(|a| {
            matches!(
                a,
                crate::device::Action::SendBus(Envelope {
                    payload: Payload::Heartbeat,
                    ..
                })
            )
        });
        let rearmed = actions
            .iter()
            .any(|a| matches!(a, crate::device::Action::SetTimer { .. }));
        assert!(has_hb && rearmed);
    }

    #[test]
    fn application_timers_pass_through() {
        assert!(!Monitor::owns_timer(5));
    }

    #[test]
    fn doorbell_and_error_surface() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        let mut ctx = fix.ctx();
        let ev = m.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(2),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Doorbell {
                    conn: ConnId(4),
                    value: 2,
                },
            },
        );
        assert_eq!(
            ev,
            Some(MonitorEvent::Doorbell {
                conn: ConnId(4),
                value: 2
            })
        );
        let ev = m.handle(
            &mut ctx,
            &Envelope {
                src: DeviceId(2),
                dst: Dst::Device(DeviceId(1)),
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::ErrorNotify {
                    code: ErrorCode::ServiceReset,
                    conn: ConnId(4),
                    detail: "reset".into(),
                },
            },
        );
        assert!(matches!(ev, Some(MonitorEvent::Error { .. })));
    }

    #[test]
    fn reset_clears_everything() {
        let mut fix = Fix::new();
        let mut m = Monitor::new();
        m.add_service(svc(1, "s"), AuthMode::Open);
        let mut ctx = fix.ctx();
        m.accept_open(
            &mut ctx,
            RequestId(1),
            DeviceId(9),
            ServiceId(1),
            None,
            0,
            vec![],
        );
        m.reset();
        assert_eq!(m.server_conns().count(), 0);
        assert!(!m.is_registered());
        // Services survive reset (they are device configuration, not state).
        let mut ctx2 = fix.ctx();
        m.start(&mut ctx2, "d", "k");
        assert_eq!(sent(ctx2).len(), 2);
    }
}
