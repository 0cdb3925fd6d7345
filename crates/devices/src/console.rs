//! The operator console device (§4 "System Maintenance").
//!
//! The paper: a CPU-less server in a datacenter has no local console; an
//! operator reaches it remotely and reads application logs through the
//! ordinary service fabric, authenticating against the auth service. The
//! [`ConsoleDevice`] scripts exactly that session:
//!
//! 1. discover the `auth` service and log in with operator credentials;
//! 2. discover the device exporting the target log file;
//! 3. run the Figure 2 session setup against it (via
//!    [`crate::session::FileSession`]);
//! 4. read the whole log through the VIRTIO queue.
//!
//! When the read completes the log contents are available from
//! [`ConsoleDevice::log`], which the "operator" (the example binary or an
//! integration test) inspects. Every byte travelled the CPU-less path:
//! control messages over the bus, data over IOMMU-translated DMA.

use lastcpu_bus::{DeviceId, Status, Token};
use lastcpu_mem::Pasid;
use lastcpu_sim::SimDuration;

use crate::auth;
use crate::device::DeviceCtx;
use crate::firmware::Firmware;
use crate::monitor::{Monitor, MonitorEvent};
use crate::session::{FileSession, SessionEvent};
use crate::ssd::{FileOp, FileStatus, DOORBELL_WORK};

/// Where the console maps its shared region.
const VA_BASE: u64 = 0x4000_0000;
/// Read chunk size (must fit a client slot minus the status byte).
const CHUNK: u32 = 2048;

/// Console progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsoleState {
    /// Waiting for registration.
    Boot,
    /// Discovering the auth service.
    FindingAuth,
    /// Logging in.
    LoggingIn,
    /// Discovering the log file's owner.
    FindingLog,
    /// Running the session handshake.
    Connecting,
    /// Reading the log.
    Reading,
    /// Log fully read.
    Done,
    /// Something failed.
    Failed(Status),
}

/// The remote operator console.
pub struct ConsoleDevice {
    name: String,
    monitor: Monitor,
    memctl: DeviceId,
    user: String,
    password: String,
    log_path: String,
    state: ConsoleState,
    discover_op: u64,
    login_op: u64,
    token: Token,
    session: Option<FileSession>,
    log: Vec<u8>,
    expected: u64,
    next_offset: u64,
}

impl ConsoleDevice {
    /// Creates a console that will read `log_path` as `user`/`password`.
    ///
    /// `memctl` is the memory controller's bus address (part of the
    /// machine's wiring, like knowing which slot the MCH sits in).
    pub fn new(name: &str, memctl: DeviceId, user: &str, password: &str, log_path: &str) -> Self {
        ConsoleDevice {
            name: name.to_string(),
            monitor: Monitor::new(),
            memctl,
            user: user.to_string(),
            password: password.to_string(),
            log_path: log_path.to_string(),
            state: ConsoleState::Boot,
            discover_op: 0,
            login_op: 0,
            token: Token::NONE,
            session: None,
            log: Vec::new(),
            expected: 0,
            next_offset: 0,
        }
    }

    /// Current progress.
    pub fn state(&self) -> ConsoleState {
        self.state
    }

    /// The log contents once [`ConsoleState::Done`].
    pub fn log(&self) -> Option<&[u8]> {
        (self.state == ConsoleState::Done).then_some(self.log.as_slice())
    }

    fn fail(&mut self, status: Status) {
        self.state = ConsoleState::Failed(status);
    }

    fn drive(&mut self, ctx: &mut DeviceCtx<'_>, ev: &MonitorEvent) {
        // Session events first.
        if let Some(session) = self.session.as_mut() {
            match session.on_event(ctx, &mut self.monitor, ev) {
                Some(SessionEvent::Ready { file_size, .. }) => {
                    self.expected = file_size;
                    self.state = ConsoleState::Reading;
                    self.issue_reads(ctx);
                    return;
                }
                Some(SessionEvent::Completions { .. }) => {
                    self.drain(ctx);
                    return;
                }
                Some(SessionEvent::Failed { status }) => {
                    self.fail(status);
                    return;
                }
                None => {}
            }
        }
        match (self.state, ev) {
            (ConsoleState::Boot, MonitorEvent::Registered) => {
                self.state = ConsoleState::FindingAuth;
                self.discover_op = self.monitor.discover(ctx, "auth");
            }
            (ConsoleState::FindingAuth, MonitorEvent::DiscoveryDone { op, hits })
                if *op == self.discover_op =>
            {
                let Some((dev, svc)) = hits
                    .iter()
                    .find(|(_, s)| s.name == "auth")
                    .map(|(d, s)| (*d, s.id))
                else {
                    self.fail(Status::NotFound);
                    return;
                };
                self.state = ConsoleState::LoggingIn;
                self.login_op = self.monitor.open(
                    ctx,
                    dev,
                    svc,
                    Token::NONE,
                    auth::encode_login(&self.user, &self.password),
                );
            }
            (ConsoleState::LoggingIn, MonitorEvent::OpenDone { op, result, .. })
                if *op == self.login_op =>
            {
                match result {
                    Ok((_, _, params)) => match auth::decode_login_response(params) {
                        Some(token) => {
                            self.token = token;
                            self.state = ConsoleState::FindingLog;
                            self.discover_op = self
                                .monitor
                                .discover(ctx, format!("file:{}", self.log_path));
                        }
                        None => self.fail(Status::Failed),
                    },
                    Err(status) => self.fail(*status),
                }
            }
            (ConsoleState::FindingLog, MonitorEvent::DiscoveryDone { op, hits })
                if *op == self.discover_op =>
            {
                let wanted = format!("file:{}", self.log_path);
                let Some((dev, svc)) = hits
                    .iter()
                    .find(|(_, s)| s.name == wanted)
                    .map(|(d, s)| (*d, s.id))
                else {
                    self.fail(Status::NotFound);
                    return;
                };
                self.state = ConsoleState::Connecting;
                let mut session = FileSession::new(
                    self.memctl,
                    dev,
                    svc,
                    self.token,
                    Pasid(ctx.dev.0), // console's private address space
                    VA_BASE,
                    16,
                );
                session.start(ctx, &mut self.monitor);
                self.session = Some(session);
            }
            _ => {}
        }
    }

    /// Issues reads for the remainder of the file, as queue space allows.
    fn issue_reads(&mut self, ctx: &mut DeviceCtx<'_>) {
        let Some(session) = self.session.as_mut() else {
            return;
        };
        if self.expected == 0 {
            self.state = ConsoleState::Done;
            return;
        }
        let pasid = Pasid(ctx.dev.0);
        let mut issued = false;
        let mut offset = self.next_offset;
        if let Some((client, _conn)) = session.client_mut() {
            while offset < self.expected {
                let len = CHUNK.min((self.expected - offset) as u32);
                let op = FileOp::Read { offset, len };
                let mut view = ctx.dma_view(pasid);
                if !client.can_submit() || client.submit(&mut view, op.borrowed(), len).is_err() {
                    break;
                }
                offset += len as u64;
                issued = true;
            }
        }
        self.next_offset = offset;
        if issued {
            // Ring the work doorbell at the serving device.
            if let Some(session) = self.session.as_ref() {
                ctx.doorbell(session.target(), session.conn(), DOORBELL_WORK);
            }
        }
    }

    /// Drains completions into the log buffer.
    fn drain(&mut self, ctx: &mut DeviceCtx<'_>) {
        let pasid = Pasid(ctx.dev.0);
        let Some(session) = self.session.as_mut() else {
            return;
        };
        let mut got = Vec::new();
        if let Some((client, _)) = session.client_mut() {
            let mut view = ctx.dma_view(pasid);
            match client.completions(&mut view) {
                Ok(done) => got = done,
                Err(_) => {
                    self.fail(Status::Failed);
                    return;
                }
            }
        }
        for (_, status, payload) in got {
            if status != FileStatus::Ok {
                self.fail(Status::Failed);
                return;
            }
            self.log.extend_from_slice(&payload);
        }
        if self.log.len() as u64 >= self.expected {
            self.state = ConsoleState::Done;
        } else {
            self.issue_reads(ctx);
        }
    }
}

impl Firmware for ConsoleDevice {
    const KIND: &'static str = "console";
    const SELF_TEST: SimDuration = SimDuration::from_micros(5);
    const HEARTBEAT: SimDuration = SimDuration::from_millis(2);

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        self.drive(ctx, &ev);
    }

    /// Comes back without re-running the self-test (the recorded E4
    /// fingerprints reset `console0` at this cost).
    fn on_reset(&mut self, _ctx: &mut DeviceCtx<'_>) -> bool {
        self.session = None;
        self.state = ConsoleState::Boot;
        self.log.clear();
        self.next_offset = 0;
        true
    }
}
