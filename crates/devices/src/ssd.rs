//! The smart SSD: a self-managing storage device.
//!
//! This is the server half of the paper's §3 example. The SSD exposes:
//!
//! - one `file:<path>` service per exported file (what the NIC discovers by
//!   broadcasting the file name);
//! - an `fs` control service (create/delete/list, connectionless — the
//!   request rides in the open parameters);
//! - a `loader` service (§4 *Access Control*): uploads a new binary image
//!   into `/boot/`, guarded by sealed tokens.
//!
//! A file connection is one isolated context (§2.1). Its data path is a
//! VIRTIO split queue living in application shared memory (§3 step 7): the
//! client allocates the region, grants it to the SSD through the memory
//! controller, lays out a virtqueue in it, and rings a setup doorbell whose
//! value encodes the queue's base address and size. Every byte of queue
//! traffic then moves by DMA through the SSD's IOMMU under the
//! application's PASID.
//!
//! **Isolation scheduler.** With `isolation = true` (default) the SSD
//! serves connections round-robin, at most [`SsdConfig::quantum`] requests
//! per turn, re-arming a poll timer between turns; a flooding tenant then
//! shares the device instead of owning it. With `isolation = false` the SSD
//! drains whichever connection rang first to empty — the configuration the
//! E3 experiment uses as its no-isolation baseline.

use std::collections::VecDeque;

use lastcpu_bus::wire::{WireReader, WireWriter};
use lastcpu_bus::{ConnId, DeviceId, RequestId, ResourceKind, ServiceDesc, ServiceId, Status};
use lastcpu_iommu::IommuFault;
use lastcpu_mem::Pasid;
use lastcpu_sim::{profile, DetHashMap, SimDuration, TraceData};
use lastcpu_virtio::{DescChain, QueueError, QueueLayout, VirtqueueDevice};

use crate::device::DeviceCtx;
use crate::firmware::Firmware;
use crate::fs::{FlashFs, FsError};
use crate::monitor::{AuthMode, Monitor, MonitorEvent};

/// Service id of the `fs` control service.
pub const FS_SERVICE: ServiceId = ServiceId(1);
/// Service id of the loader service.
pub const LOADER_SERVICE: ServiceId = ServiceId(2);
/// First service id used for exported files.
pub const FILE_SERVICE_BASE: u16 = 100;

/// Shared-memory bytes a file connection requires (queue + buffers).
pub const FILE_CONN_SHM: u64 = 256 * 1024;

/// Timer token for continuing queue processing.
const TOKEN_POLL: u64 = 1;

/// Doorbell values (client → SSD): a setup doorbell carries the queue base
/// (page-aligned) OR'd with log2(queue size); a work doorbell is 0.
pub const DOORBELL_WORK: u64 = 0;
/// Doorbell value (SSD → client): completions available.
pub const DOORBELL_COMPLETION: u64 = 1;

/// Encodes a queue-setup doorbell value.
pub fn setup_doorbell(queue_base_va: u64, queue_size: u16) -> u64 {
    debug_assert_eq!(queue_base_va & 0xFFF, 0, "queue base must be page aligned");
    debug_assert!(queue_size.is_power_of_two());
    queue_base_va | queue_size.trailing_zeros() as u64
}

fn decode_setup_doorbell(value: u64) -> Option<(u64, u16)> {
    let log2 = (value & 0xFFF) as u32;
    if log2 == 0 || log2 > 15 {
        return None;
    }
    Some((value & !0xFFF, 1u16 << log2))
}

// --- File-service wire protocol (rides in virtqueue buffers) -----------

/// File operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileOp {
    /// Read `len` bytes at `offset`.
    Read {
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: u32,
    },
    /// Write `data` at `offset`.
    Write {
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Query the file size.
    Stat,
    /// Durability barrier.
    Flush,
}

impl FileOp {
    /// The operation as a view borrowing its write payload.
    pub fn borrowed(&self) -> FileOpRef<'_> {
        match self {
            FileOp::Read { offset, len } => FileOpRef::Read {
                offset: *offset,
                len: *len,
            },
            FileOp::Write { offset, data } => FileOpRef::Write {
                offset: *offset,
                data,
            },
            FileOp::Stat => FileOpRef::Stat,
            FileOp::Flush => FileOpRef::Flush,
        }
    }

    /// Encodes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes the request into a caller-supplied buffer (see
    /// [`FileOpRef::encode_into`]).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        self.borrowed().encode_into(buf);
    }
}

/// A decoded file-op view borrowing write payloads from the request bytes.
/// The SSD serve loop decodes through this so WRITE data is never copied
/// out of the request buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileOpRef<'a> {
    /// Read `len` bytes at `offset`.
    Read {
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u32,
    },
    /// Write bytes at `offset`.
    Write {
        /// Byte offset.
        offset: u64,
        /// Payload, borrowed from the request buffer.
        data: &'a [u8],
    },
    /// Query the file size.
    Stat,
    /// Durability barrier.
    Flush,
}

impl<'a> FileOpRef<'a> {
    /// Encodes the request into a caller-supplied buffer (appended), so the
    /// submit path can reuse one buffer across requests.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = WireWriter::with_buf(std::mem::take(buf));
        match *self {
            FileOpRef::Read { offset, len } => {
                w.u8(1);
                w.u64(offset);
                w.u32(len);
            }
            FileOpRef::Write { offset, data } => {
                w.u8(2);
                w.u64(offset);
                w.bytes(data);
            }
            FileOpRef::Stat => w.u8(3),
            FileOpRef::Flush => w.u8(4),
        }
        *buf = w.finish();
    }

    /// Decodes a request without copying the write payload.
    pub fn decode(buf: &'a [u8]) -> Option<FileOpRef<'a>> {
        let mut r = WireReader::new(buf);
        let op = match r.u8().ok()? {
            1 => FileOpRef::Read {
                offset: r.u64().ok()?,
                len: r.u32().ok()?,
            },
            2 => FileOpRef::Write {
                offset: r.u64().ok()?,
                data: r.bytes_ref().ok()?,
            },
            3 => FileOpRef::Stat,
            4 => FileOpRef::Flush,
            _ => return None,
        };
        r.expect_end().ok()?;
        Some(op)
    }
}

/// File-operation response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileStatus {
    /// Success.
    Ok,
    /// Read crossed end of file.
    Eof,
    /// Device out of space.
    NoSpace,
    /// Flash-level I/O error.
    Io,
    /// Malformed request.
    Bad,
}

impl FileStatus {
    fn to_u8(self) -> u8 {
        match self {
            FileStatus::Ok => 0,
            FileStatus::Eof => 1,
            FileStatus::NoSpace => 2,
            FileStatus::Io => 3,
            FileStatus::Bad => 4,
        }
    }

    fn from_u8(v: u8) -> FileStatus {
        match v {
            0 => FileStatus::Ok,
            1 => FileStatus::Eof,
            2 => FileStatus::NoSpace,
            3 => FileStatus::Io,
            _ => FileStatus::Bad,
        }
    }
}

/// Encodes a file-op response: status byte + payload.
pub fn encode_response(status: FileStatus, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 1);
    encode_response_into(status, payload, &mut out);
    out
}

/// Like [`encode_response`], but clears and reuses a caller buffer.
pub fn encode_response_into(status: FileStatus, payload: &[u8], buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(status.to_u8());
    buf.extend_from_slice(payload);
}

/// Splits a file-op response into status and payload.
pub fn decode_response(buf: &[u8]) -> Option<(FileStatus, &[u8])> {
    let (&s, rest) = buf.split_first()?;
    Some((FileStatus::from_u8(s), rest))
}

// --- fs control-service parameters --------------------------------------

/// Operations on the `fs` control service (carried in open params).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    /// Create a file and export it as a service.
    Create {
        /// File path.
        path: String,
    },
    /// Delete a file and withdraw its service.
    Delete {
        /// File path.
        path: String,
    },
    /// List files (names returned newline-separated in response params).
    List,
}

impl FsOp {
    /// Encodes into open-request params.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            FsOp::Create { path } => {
                w.u8(1);
                w.string(path);
            }
            FsOp::Delete { path } => {
                w.u8(2);
                w.string(path);
            }
            FsOp::List => w.u8(3),
        }
        w.finish()
    }

    fn decode(buf: &[u8]) -> Option<FsOp> {
        let mut r = WireReader::new(buf);
        let op = match r.u8().ok()? {
            1 => FsOp::Create {
                path: r.string().ok()?,
            },
            2 => FsOp::Delete {
                path: r.string().ok()?,
            },
            3 => FsOp::List,
            _ => return None,
        };
        r.expect_end().ok()?;
        Some(op)
    }
}

/// Encodes loader open params: image name + contents.
pub fn encode_loader_params(image: &str, contents: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.string(image);
    w.bytes(contents);
    w.finish()
}

// --- The device ----------------------------------------------------------

/// SSD configuration.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Per-connection isolation scheduling (the paper's §2.1 requirement).
    pub isolation: bool,
    /// Requests served per connection per scheduling turn when isolating.
    pub quantum: u32,
    /// Files to create and export at power-on.
    pub exports: Vec<String>,
    /// Auth for file services.
    pub file_auth: AuthMode,
    /// Auth for the loader service.
    pub loader_auth: AuthMode,
    /// Firmware overhead per request (command parse, dispatch).
    pub per_request_overhead: SimDuration,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            isolation: true,
            quantum: 4,
            exports: Vec::new(),
            file_auth: AuthMode::Open,
            loader_auth: AuthMode::Open,
            per_request_overhead: SimDuration::from_micros(1),
        }
    }
}

/// One file connection (isolation context).
struct FileConn {
    peer: DeviceId,
    pasid: Pasid,
    file: String,
    queue: Option<VirtqueueDevice>,
    /// Requests served (per-context accounting).
    served: u64,
}

/// Per-SSD counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SsdStats {
    /// File requests served.
    pub requests: u64,
    /// Bytes read from files.
    pub bytes_read: u64,
    /// Bytes written to files.
    pub bytes_written: u64,
    /// Connections reset due to data-path faults.
    pub conn_resets: u64,
    /// Loader images installed.
    pub images_loaded: u64,
}

/// The smart SSD device.
pub struct SmartSsd {
    name: String,
    monitor: Monitor,
    fs: FlashFs,
    config: SsdConfig,
    /// ServiceId → exported file path.
    exported: DetHashMap<ServiceId, String>,
    next_file_svc: u16,
    conns: DetHashMap<ConnId, FileConn>,
    /// Connections with work pending, in arrival order.
    work: VecDeque<ConnId>,
    poll_armed: bool,
    stats: SsdStats,
    /// Reused descriptor-walk buffers: the serve loop pops every chain into
    /// this one `DescChain` and reads request bytes into this one `Vec`, so
    /// steady-state request service allocates nothing for the walk itself.
    scratch_chain: DescChain,
    scratch_req: Vec<u8>,
    /// Reused response buffer: READ payloads are gathered here (after the
    /// status byte) and written back via DMA, with no per-request `Vec`.
    scratch_resp: Vec<u8>,
}

impl SmartSsd {
    /// Creates an SSD with the given filesystem and configuration.
    pub fn new(name: &str, fs: FlashFs, config: SsdConfig) -> Self {
        let mut ssd = SmartSsd {
            name: name.to_string(),
            monitor: Monitor::new(),
            fs,
            config,
            exported: DetHashMap::default(),
            next_file_svc: FILE_SERVICE_BASE,
            conns: DetHashMap::default(),
            work: VecDeque::new(),
            poll_armed: false,
            stats: SsdStats::default(),
            scratch_chain: DescChain {
                head: 0,
                readable: Vec::new(),
                writable: Vec::new(),
            },
            scratch_req: Vec::new(),
            scratch_resp: Vec::new(),
        };
        ssd.monitor.add_service(
            ServiceDesc {
                id: FS_SERVICE,
                name: "fs".into(),
                resource: ResourceKind::Storage,
            },
            ssd.config.file_auth.clone(),
        );
        ssd.monitor.add_service(
            ServiceDesc {
                id: LOADER_SERVICE,
                name: "loader".into(),
                resource: ResourceKind::Storage,
            },
            ssd.config.loader_auth.clone(),
        );
        ssd
    }

    /// Counters.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// The filesystem (inspection, fault injection).
    pub fn fs_mut(&mut self) -> &mut FlashFs {
        &mut self.fs
    }

    /// The monitor (connection inspection in tests).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Adjusts the isolation scheduler's quantum (requests per context per
    /// turn); used by the ablation experiments.
    pub fn set_quantum(&mut self, quantum: u32) {
        self.config.quantum = quantum.max(1);
    }

    /// Requests served on `conn` (per-context accounting).
    pub fn conn_served(&self, conn: ConnId) -> u64 {
        self.conns.get(&conn).map_or(0, |c| c.served)
    }

    fn export_file(&mut self, path: &str) -> ServiceId {
        let id = ServiceId(self.next_file_svc);
        self.next_file_svc += 1;
        self.exported.insert(id, path.to_string());
        self.monitor.add_service(
            ServiceDesc {
                id,
                name: format!("file:{path}"),
                resource: ResourceKind::Storage,
            },
            self.config.file_auth.clone(),
        );
        id
    }

    fn handle_fs_open(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        req: RequestId,
        from: DeviceId,
        params: &[u8],
    ) {
        ctx.busy(SimDuration::from_micros(2));
        match FsOp::decode(params) {
            Some(FsOp::Create { path }) => match self.fs.create(&path) {
                Ok(()) => {
                    let svc = self.export_file(&path);
                    self.monitor.announce(ctx, svc);
                    let mut w = WireWriter::new();
                    w.u16(svc.0);
                    // Control conns carry no shared memory and are closed
                    // by the response itself (conn id unused by clients).
                    self.monitor
                        .accept_open(ctx, req, from, FS_SERVICE, None, 0, w.finish());
                }
                Err(FsError::Exists) => self.monitor.reject_open(ctx, req, from, Status::Failed),
                Err(FsError::NoSpace) => {
                    self.monitor
                        .reject_open(ctx, req, from, Status::NoResources)
                }
                Err(_) => self.monitor.reject_open(ctx, req, from, Status::Failed),
            },
            Some(FsOp::Delete { path }) => {
                let svc = self
                    .exported
                    .iter()
                    .find(|(_, p)| **p == path)
                    .map(|(&s, _)| s);
                match self.fs.delete(&path) {
                    Ok(()) => {
                        if let Some(svc) = svc {
                            self.exported.remove(&svc);
                            ctx.send_bus(
                                lastcpu_bus::Dst::Bus,
                                lastcpu_bus::Payload::Withdraw { service: svc },
                            );
                        }
                        self.monitor
                            .accept_open(ctx, req, from, FS_SERVICE, None, 0, vec![]);
                    }
                    Err(FsError::NotFound) => {
                        self.monitor.reject_open(ctx, req, from, Status::NotFound)
                    }
                    Err(_) => self.monitor.reject_open(ctx, req, from, Status::Failed),
                }
            }
            Some(FsOp::List) => {
                let listing = self.fs.list().join("\n");
                self.monitor
                    .accept_open(ctx, req, from, FS_SERVICE, None, 0, listing.into_bytes());
            }
            None => self.monitor.reject_open(ctx, req, from, Status::BadRequest),
        }
    }

    fn handle_loader_open(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        req: RequestId,
        from: DeviceId,
        principal: Option<u64>,
        params: &[u8],
    ) {
        let mut r = WireReader::new(params);
        let parsed = (|| -> Option<(String, Vec<u8>)> {
            let name = r.string().ok()?;
            let contents = r.bytes().ok()?;
            r.expect_end().ok()?;
            Some((name, contents))
        })();
        match parsed {
            Some((image, contents)) => {
                let path = format!("/boot/{image}");
                if !self.fs.exists(&path) && self.fs.create(&path).is_err() {
                    self.monitor.reject_open(ctx, req, from, Status::Failed);
                    return;
                }
                match self.fs.write(&path, 0, &contents) {
                    Ok(cost) => {
                        ctx.busy(cost);
                        self.stats.images_loaded += 1;
                        ctx.trace(format_args!(
                            "loader: installed {path} ({} bytes) for principal {principal:?}",
                            contents.len()
                        ));
                        self.monitor.accept_open(
                            ctx,
                            req,
                            from,
                            LOADER_SERVICE,
                            principal,
                            0,
                            vec![],
                        );
                    }
                    Err(FsError::NoSpace) => {
                        self.monitor
                            .reject_open(ctx, req, from, Status::NoResources)
                    }
                    Err(_) => self.monitor.reject_open(ctx, req, from, Status::Failed),
                }
            }
            None => self.monitor.reject_open(ctx, req, from, Status::BadRequest),
        }
    }

    fn handle_file_open(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        req: RequestId,
        from: DeviceId,
        service: ServiceId,
        principal: Option<u64>,
        params: &[u8],
    ) {
        let Some(path) = self.exported.get(&service).cloned() else {
            self.monitor.reject_open(ctx, req, from, Status::NotFound);
            return;
        };
        let mut r = WireReader::new(params);
        let pasid = match r.u32() {
            Ok(p) if r.expect_end().is_ok() => p,
            _ => {
                self.monitor.reject_open(ctx, req, from, Status::BadRequest);
                return;
            }
        };
        let mut w = WireWriter::new();
        w.u64(self.fs.len(&path).unwrap_or(0));
        let conn = self.monitor.accept_open(
            ctx,
            req,
            from,
            service,
            principal,
            FILE_CONN_SHM,
            w.finish(),
        );
        self.conns.insert(
            conn,
            FileConn {
                peer: from,
                pasid: Pasid(pasid),
                file: path,
                queue: None,
                served: 0,
            },
        );
    }

    fn on_doorbell(&mut self, ctx: &mut DeviceCtx<'_>, conn: ConnId, value: u64) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        if state.queue.is_none() {
            // First doorbell: queue setup.
            if let Some((base, size)) = decode_setup_doorbell(value) {
                let layout = QueueLayout::new(base, size);
                state.queue = Some(VirtqueueDevice::attach(layout));
                ctx.trace_data(TraceData::QueueAttached {
                    conn: conn.0,
                    base,
                    size,
                });
            } else {
                self.reset_conn(ctx, conn, "bad queue setup doorbell");
            }
            return;
        }
        if value == DOORBELL_WORK {
            if !self.work.contains(&conn) {
                self.work.push_back(conn);
            }
            self.pump(ctx);
        }
    }

    /// Serves queued work according to the isolation policy.
    fn pump(&mut self, ctx: &mut DeviceCtx<'_>) {
        let quantum = if self.config.isolation {
            self.config.quantum
        } else {
            u32::MAX
        };
        if let Some(conn) = self.work.pop_front() {
            let more = self.serve_conn(ctx, conn, quantum);
            if more {
                self.work.push_back(conn);
            }
        }
        if !self.work.is_empty() && !self.poll_armed {
            // Continue after the cost accumulated so far has elapsed.
            self.poll_armed = true;
            ctx.set_timer(SimDuration::from_nanos(1), TOKEN_POLL);
        }
    }

    /// Serves up to `quantum` requests on `conn`. Returns whether requests
    /// may remain.
    ///
    /// The connection state is taken out of the table for the duration so
    /// the queue endpoint, the filesystem and the DMA context can be
    /// borrowed simultaneously.
    fn serve_conn(&mut self, ctx: &mut DeviceCtx<'_>, conn: ConnId, quantum: u32) -> bool {
        // Named sub-scope: allocations here show as `ssd.serve` in the E9
        // attribution table instead of vanishing into `engine.deliver`.
        let _sp = profile::span("ssd.serve");
        let Some(mut state) = self.conns.remove(&conn) else {
            return false;
        };
        let Some(queue) = state.queue.as_mut() else {
            self.conns.insert(conn, state);
            return false;
        };
        let pasid = state.pasid;
        let peer = state.peer;
        let mut served_any = false;
        let mut drained = false;
        let mut failed = false;
        for _ in 0..quantum {
            // Pop into the reusable scratch chain: no per-request Vec pair.
            let popped = {
                let mut view = ctx.dma_view(pasid);
                queue.pop_into(&mut view, &mut self.scratch_chain)
            };
            match popped {
                Ok(true) => {
                    match Self::serve_request(
                        &mut self.fs,
                        &mut self.stats,
                        &self.config,
                        queue,
                        ctx,
                        pasid,
                        &state.file,
                        &self.scratch_chain,
                        &mut self.scratch_req,
                        &mut self.scratch_resp,
                    ) {
                        Ok(()) => {
                            state.served += 1;
                            served_any = true;
                        }
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                Ok(false) => {
                    drained = true;
                    break;
                }
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            // Connection context is gone: fence it and tell the peer (§4).
            self.work.retain(|&c| c != conn);
            self.stats.conn_resets += 1;
            self.monitor.reset_conn(ctx, conn, "data-path fault");
            return false;
        }
        if served_any {
            ctx.doorbell(peer, conn, DOORBELL_COMPLETION);
        }
        self.conns.insert(conn, state);
        !drained
    }

    /// Executes one request chain against the filesystem.
    #[allow(clippy::too_many_arguments)] // Split borrows of self.
    fn serve_request(
        fs: &mut FlashFs,
        stats: &mut SsdStats,
        config: &SsdConfig,
        queue: &mut VirtqueueDevice,
        ctx: &mut DeviceCtx<'_>,
        pasid: Pasid,
        file: &str,
        chain: &DescChain,
        req_buf: &mut Vec<u8>,
        resp_buf: &mut Vec<u8>,
    ) -> Result<(), QueueError> {
        ctx.busy(config.per_request_overhead);
        {
            let mut view = ctx.dma_view(pasid);
            // Gather into the reusable request buffer (capacity persists
            // across requests; segments are read in place).
            queue.read_request_into(&mut view, chain, req_buf)?;
        }
        // Borrowed decode (WRITE payloads stay in `req_buf`) and a reusable
        // response buffer: steady-state service allocates nothing.
        match FileOpRef::decode(req_buf) {
            Some(FileOpRef::Read { offset, len }) => {
                // The client chose `offset` and `len`: bound them by the
                // file before sizing anything by them.
                let in_file = fs.len(file).map(|size| {
                    offset
                        .checked_add(len as u64)
                        .is_some_and(|end| end <= size)
                });
                match in_file {
                    Ok(true) => {
                        // Read straight into the response body, after the
                        // status byte — no intermediate data buffer.
                        resp_buf.clear();
                        resp_buf.resize(1 + len as usize, 0);
                        match fs.read(file, offset, &mut resp_buf[1..]) {
                            Ok(cost) => {
                                ctx.busy(cost);
                                stats.bytes_read += len as u64;
                                resp_buf[0] = FileStatus::Ok.to_u8();
                            }
                            Err(_) => encode_response_into(FileStatus::Io, &[], resp_buf),
                        }
                    }
                    Ok(false) => encode_response_into(FileStatus::Eof, &[], resp_buf),
                    Err(_) => encode_response_into(FileStatus::Io, &[], resp_buf),
                }
            }
            Some(FileOpRef::Write { offset, data }) => match fs.write(file, offset, data) {
                Ok(cost) => {
                    ctx.busy(cost);
                    stats.bytes_written += data.len() as u64;
                    encode_response_into(
                        FileStatus::Ok,
                        &(data.len() as u32).to_le_bytes(),
                        resp_buf,
                    );
                }
                Err(FsError::NoSpace) => encode_response_into(FileStatus::NoSpace, &[], resp_buf),
                Err(_) => encode_response_into(FileStatus::Io, &[], resp_buf),
            },
            Some(FileOpRef::Stat) => {
                let size = fs.len(file).unwrap_or(0);
                encode_response_into(FileStatus::Ok, &size.to_le_bytes(), resp_buf);
            }
            Some(FileOpRef::Flush) => {
                ctx.busy(SimDuration::from_micros(10));
                encode_response_into(FileStatus::Ok, &[], resp_buf);
            }
            None => encode_response_into(FileStatus::Bad, &[], resp_buf),
        }
        stats.requests += 1;
        let written = {
            let mut view = ctx.dma_view(pasid);
            match queue.write_response(&mut view, chain, resp_buf) {
                Ok(n) => n,
                Err(QueueError::ResponseTooLarge { .. }) => {
                    // Client under-provisioned its buffer: report truncated
                    // status-only response.
                    queue.write_response(&mut view, chain, &[FileStatus::Bad.to_u8()])?
                }
                Err(e) => return Err(e),
            }
        };
        let mut view = ctx.dma_view(pasid);
        queue.push_used(&mut view, chain.head, written)?;
        Ok(())
    }

    /// Resets one connection after a fatal per-connection error (§4).
    fn reset_conn(&mut self, ctx: &mut DeviceCtx<'_>, conn: ConnId, why: &str) {
        self.conns.remove(&conn);
        self.work.retain(|&c| c != conn);
        self.stats.conn_resets += 1;
        self.monitor.reset_conn(ctx, conn, why);
    }
}

impl Firmware for SmartSsd {
    const KIND: &'static str = "smart-ssd";
    const SELF_TEST: SimDuration = SimDuration::from_micros(50); // scan bad blocks
    const HEARTBEAT: SimDuration = SimDuration::from_millis(2);
    const MSG_SCOPE: Option<&'static str> = Some("ssd.on_msg");
    const TIMER_SCOPE: Option<&'static str> = Some("ssd.on_timer");

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Creates and exports the configured files so `Hello` is followed by
    /// their announces.
    fn boot(&mut self) {
        let exports = self.config.exports.clone();
        for path in exports {
            if !self.fs.exists(&path) {
                // Cannot fail on an empty, just-formatted device.
                self.fs.create(&path).expect("create export at power-on");
            }
            self.export_file(&path);
        }
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        match ev {
            MonitorEvent::OpenRequested {
                req,
                from,
                service,
                principal,
                params,
            } => {
                if service == FS_SERVICE {
                    self.handle_fs_open(ctx, req, from, &params);
                } else if service == LOADER_SERVICE {
                    self.handle_loader_open(ctx, req, from, principal, &params);
                } else {
                    self.handle_file_open(ctx, req, from, service, principal, &params);
                }
            }
            MonitorEvent::Doorbell { conn, value } => {
                self.on_doorbell(ctx, conn, value);
            }
            MonitorEvent::PeerClosed { conn } => {
                self.conns.remove(&conn);
                self.work.retain(|&c| c != conn);
            }
            MonitorEvent::PeerFailed {
                dropped_server_conns,
                ..
            } => {
                for conn in dropped_server_conns {
                    self.conns.remove(&conn);
                    self.work.retain(|&c| c != conn);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == TOKEN_POLL {
            self.poll_armed = false;
            self.pump(ctx);
        }
    }

    fn on_fault(&mut self, ctx: &mut DeviceCtx<'_>, fault: IommuFault) {
        // Faults surface synchronously during DMA and the affected conn is
        // reset there; an async fault with no conn attribution is only
        // logged (it cannot corrupt another context).
        ctx.trace(format_args!("{}: fault {fault}", self.name));
    }

    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) -> bool {
        self.conns.clear();
        self.work.clear();
        self.poll_armed = false;
        // §2.2: a reset device re-runs self-test.
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

// --- Driver-side client ---------------------------------------------------

/// Driver-side endpoint for a file connection.
///
/// Owns the virtqueue driver half and a buffer arena inside the connection's
/// shared-memory region. Used by the smart NIC's applications and by the
/// console device; also usable from tests over [`lastcpu_virtio::FlatMemory`].
pub struct FileClient {
    driver: lastcpu_virtio::VirtqueueDriver,
    arena: lastcpu_virtio::BufferArena,
    /// `(req_va, resp_va, resp_capacity)` of the request in flight under each
    /// descriptor head; indexed by head, one entry per descriptor.
    inflight: Vec<Option<(u64, u64, u32)>>,
    /// Reused request-encode buffer (capacity persists across submits).
    encode_buf: Vec<u8>,
}

/// Arena slot size for request/response buffers.
pub const CLIENT_SLOT: u64 = 4096;

impl FileClient {
    /// Lays out a virtqueue plus buffer arena in `[region_base,
    /// region_base + FILE_CONN_SHM)` and returns the client together with
    /// the setup-doorbell value to ring on the serving SSD.
    pub fn create<M: lastcpu_virtio::QueueMemory>(
        mem: &mut M,
        region_base: u64,
        queue_size: u16,
    ) -> Result<(Self, u64), QueueError> {
        let layout = QueueLayout::new(region_base, queue_size);
        let driver = lastcpu_virtio::VirtqueueDriver::create(mem, layout)?;
        let arena_base = layout.end().div_ceil(CLIENT_SLOT) * CLIENT_SLOT;
        let region_end = region_base + FILE_CONN_SHM;
        if arena_base + 2 * CLIENT_SLOT > region_end {
            return Err(QueueError::Corrupt("region too small for queue + buffers"));
        }
        let slots = ((region_end - arena_base) / CLIENT_SLOT).min(u16::MAX as u64) as u16;
        Ok((
            FileClient {
                driver,
                arena: lastcpu_virtio::BufferArena::new(arena_base, CLIENT_SLOT, slots),
                inflight: vec![None; queue_size as usize],
                encode_buf: Vec::new(),
            },
            setup_doorbell(region_base, queue_size),
        ))
    }

    /// Requests submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.inflight.iter().flatten().count()
    }

    /// Whether `head` is the handle of a request submitted and not yet
    /// completed.
    pub fn is_in_flight(&self, head: u16) -> bool {
        matches!(self.inflight.get(head as usize), Some(Some(_)))
    }

    /// Whether another request can be submitted right now.
    pub fn can_submit(&self) -> bool {
        self.driver.free_descriptors() >= 2 && self.arena.free_slots() >= 2
    }

    /// Submits a file operation, reserving `resp_capacity` bytes for the
    /// response payload. Returns the request handle (the descriptor head).
    ///
    /// Requests and responses are limited to one [`CLIENT_SLOT`] each;
    /// larger transfers are chunked by the caller.
    pub fn submit<M: lastcpu_virtio::QueueMemory>(
        &mut self,
        mem: &mut M,
        op: FileOpRef<'_>,
        resp_capacity: u32,
    ) -> Result<u16, QueueError> {
        // Encode into the reusable buffer (lent out for the duration so the
        // rest of `self` stays borrowable).
        let mut req = std::mem::take(&mut self.encode_buf);
        req.clear();
        op.encode_into(&mut req);
        let res = self.submit_encoded(mem, &req, resp_capacity);
        self.encode_buf = req;
        res
    }

    fn submit_encoded<M: lastcpu_virtio::QueueMemory>(
        &mut self,
        mem: &mut M,
        req: &[u8],
        resp_capacity: u32,
    ) -> Result<u16, QueueError> {
        let resp_len = resp_capacity + 1; // status byte
        if req.len() as u64 > CLIENT_SLOT || resp_len as u64 > CLIENT_SLOT {
            return Err(QueueError::ResponseTooLarge {
                need: (req.len() as u64).max(resp_len as u64),
                have: CLIENT_SLOT,
            });
        }
        if !self.can_submit() {
            return Err(QueueError::Full);
        }
        let req_va = self.arena.alloc().expect("checked can_submit");
        let resp_va = self.arena.alloc().expect("checked can_submit");
        mem.write(req_va, req)?;
        let head =
            match self
                .driver
                .submit_request(mem, req_va, req.len() as u32, resp_va, resp_len)
            {
                Ok(h) => h,
                Err(e) => {
                    self.arena.free(req_va);
                    self.arena.free(resp_va);
                    return Err(e);
                }
            };
        self.inflight[head as usize] = Some((req_va, resp_va, resp_len));
        Ok(head)
    }

    /// Drains one completion into `buf` (cleared and reused; on success it
    /// holds the response payload with the status byte stripped). Returns
    /// `None` when the queue has no further completions.
    ///
    /// This is the zero-alloc drain shape: callers loop over it with one
    /// long-lived buffer instead of materializing a `Vec` per completion.
    pub fn next_completion<M: lastcpu_virtio::QueueMemory>(
        &mut self,
        mem: &mut M,
        buf: &mut Vec<u8>,
    ) -> Result<Option<(u16, FileStatus)>, QueueError> {
        let Some(c) = self.driver.complete(mem)? else {
            return Ok(None);
        };
        let (req_va, resp_va, cap) = self
            .inflight
            .get_mut(c.head as usize)
            .and_then(Option::take)
            .ok_or(QueueError::Corrupt("completion for unknown head"))?;
        let n = c.written.min(cap) as usize;
        buf.clear();
        buf.resize(n, 0);
        mem.read(resp_va, buf)?;
        self.arena.free(req_va);
        self.arena.free(resp_va);
        if buf.is_empty() {
            return Err(QueueError::Corrupt("empty file-op response"));
        }
        let status = FileStatus::from_u8(buf[0]);
        buf.copy_within(1.., 0);
        buf.truncate(n - 1);
        Ok(Some((c.head, status)))
    }

    /// Drains completions, returning `(head, status, payload)` triples.
    pub fn completions<M: lastcpu_virtio::QueueMemory>(
        &mut self,
        mem: &mut M,
    ) -> Result<Vec<(u16, FileStatus, Vec<u8>)>, QueueError> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Some((head, status)) = self.next_completion(mem, &mut buf)? {
            out.push((head, status, std::mem::take(&mut buf)));
        }
        Ok(out)
    }
}

impl lastcpu_snap::Snapshot for SmartSsd {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_str(&self.name);
        self.monitor.snapshot(w);
        self.fs.snapshot(w);
        w.put_bool(self.config.isolation);
        w.put_u32(self.config.quantum);
        w.put_len(self.config.exports.len());
        for e in &self.config.exports {
            w.put_str(e);
        }
        self.config.file_auth.snap_encode(w);
        self.config.loader_auth.snap_encode(w);
        w.put_u64(self.config.per_request_overhead.as_nanos());
        let mut svcs: Vec<_> = self.exported.iter().map(|(s, p)| (s.0, p)).collect();
        svcs.sort_unstable();
        w.put_len(svcs.len());
        for (s, p) in svcs {
            w.put_u16(s);
            w.put_str(p);
        }
        w.put_u16(self.next_file_svc);
        let mut conns: Vec<_> = self.conns.keys().copied().collect();
        conns.sort_by_key(|c| c.0);
        w.put_len(conns.len());
        for c in conns {
            let fc = &self.conns[&c];
            w.put_u64(c.0);
            w.put_u32(fc.peer.0);
            w.put_u32(fc.pasid.0);
            w.put_str(&fc.file);
            w.put_opt(fc.queue.as_ref(), |w, q| q.snapshot(w));
            w.put_u64(fc.served);
        }
        w.put_len(self.work.len());
        for c in &self.work {
            w.put_u64(c.0);
        }
        w.put_bool(self.poll_armed);
        w.put_u64(self.stats.requests);
        w.put_u64(self.stats.bytes_read);
        w.put_u64(self.stats.bytes_written);
        w.put_u64(self.stats.conn_resets);
        w.put_u64(self.stats.images_loaded);
        // scratch_* buffers are reused walk scratch, cleared before every
        // use — deliberately not state.
    }
}

impl lastcpu_snap::Restore for SmartSsd {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.name = r.str()?;
        self.monitor.restore(r)?;
        self.fs.restore(r)?;
        self.config.isolation = r.bool()?;
        self.config.quantum = r.u32()?;
        let n = r.count()?;
        self.config.exports = Vec::with_capacity(n);
        for _ in 0..n {
            self.config.exports.push(r.str()?);
        }
        self.config.file_auth = AuthMode::snap_decode(r)?;
        self.config.loader_auth = AuthMode::snap_decode(r)?;
        self.config.per_request_overhead = SimDuration::from_nanos(r.u64()?);
        let n = r.len()?;
        self.exported = DetHashMap::default();
        for _ in 0..n {
            let s = ServiceId(r.u16()?);
            self.exported.insert(s, r.str()?);
        }
        self.next_file_svc = r.u16()?;
        let n = r.len()?;
        self.conns = DetHashMap::default();
        for _ in 0..n {
            let c = ConnId(r.u64()?);
            let peer = DeviceId(r.u32()?);
            let pasid = Pasid(r.u32()?);
            let file = r.str()?;
            let queue = r.opt(|r| {
                let mut q = VirtqueueDevice::attach(QueueLayout::new(0, 1));
                q.restore(r)?;
                Ok(q)
            })?;
            let served = r.u64()?;
            self.conns.insert(
                c,
                FileConn {
                    peer,
                    pasid,
                    file,
                    queue,
                    served,
                },
            );
        }
        let n = r.count()?;
        self.work = VecDeque::with_capacity(n);
        for _ in 0..n {
            self.work.push_back(ConnId(r.u64()?));
        }
        self.poll_armed = r.bool()?;
        self.stats.requests = r.u64()?;
        self.stats.bytes_read = r.u64()?;
        self.stats.bytes_written = r.u64()?;
        self.stats.conn_resets = r.u64()?;
        self.stats.images_loaded = r.u64()?;
        Ok(())
    }
}

impl lastcpu_snap::Snapshot for FileClient {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        self.driver.snapshot(w);
        self.arena.snapshot(w);
        w.put_len(self.in_flight());
        for (h, slot) in (0u16..).zip(&self.inflight) {
            let Some((req_va, resp_va, cap)) = *slot else {
                continue;
            };
            w.put_u16(h);
            w.put_u64(req_va);
            w.put_u64(resp_va);
            w.put_u32(cap);
        }
    }
}

impl lastcpu_snap::Restore for FileClient {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.driver.restore(r)?;
        self.arena.restore(r)?;
        let n = r.len()?;
        if n != self.driver.in_flight() {
            return Err(r.corrupt(format!(
                "{n} requests in flight over {} chains",
                self.driver.in_flight()
            )));
        }
        self.inflight = vec![None; self.driver.layout().size as usize];
        for _ in 0..n {
            let h = r.u16()?;
            // A head the driver does not hold a chain for would index out of
            // the table, or be completed without its descriptors coming back.
            if !self.driver.is_live_head(h) || self.is_in_flight(h) {
                return Err(r.corrupt(format!("in-flight request {h} is not a live chain")));
            }
            self.inflight[h as usize] = Some((r.u64()?, r.u64()?, r.u32()?));
        }
        Ok(())
    }
}

impl FileClient {
    /// A client with empty state, intended as the target of a
    /// [`lastcpu_snap::Restore`]; unusable until restored.
    pub fn placeholder() -> Self {
        FileClient {
            driver: lastcpu_virtio::VirtqueueDriver::detached(),
            arena: lastcpu_virtio::BufferArena::new(0, CLIENT_SLOT, 1),
            inflight: Vec::new(),
            encode_buf: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_virtio::{FlatMemory, VirtqueueDevice};
    use proptest::prelude::*;

    #[test]
    fn file_op_round_trips() {
        for op in [
            FileOp::Read {
                offset: 7,
                len: 100,
            },
            FileOp::Write {
                offset: 0,
                data: vec![1, 2, 3],
            },
            FileOp::Stat,
            FileOp::Flush,
        ] {
            let wire = op.encode();
            assert_eq!(FileOpRef::decode(&wire), Some(op.borrowed()));
            // No truncation of a valid frame is itself a frame.
            for cut in 0..wire.len() {
                assert_eq!(FileOpRef::decode(&wire[..cut]), None, "cut at {cut}");
            }
        }
        assert_eq!(FileOpRef::decode(&[9, 9]), None);
    }

    proptest! {
        /// Arbitrary bytes never panic the one file-op parser, and whatever
        /// it accepts survives a re-encode (length prefixes are varints, so
        /// the bytes themselves need not: an overlong prefix is accepted).
        #[test]
        fn prop_file_op_decode_is_stable_under_reencode(
            tag in 0u8..6,
            tail in proptest::collection::vec(any::<u8>(), 0..24),
        ) {
            let mut wire = vec![tag];
            wire.extend(tail);
            if let Some(v) = FileOpRef::decode(&wire) {
                let owned = match v {
                    FileOpRef::Read { offset, len } => FileOp::Read { offset, len },
                    FileOpRef::Write { offset, data } => FileOp::Write {
                        offset,
                        data: data.to_vec(),
                    },
                    FileOpRef::Stat => FileOp::Stat,
                    FileOpRef::Flush => FileOp::Flush,
                };
                prop_assert_eq!(FileOpRef::decode(&owned.encode()), Some(v));
            }
        }
    }

    #[test]
    fn fs_op_round_trips() {
        for op in [
            FsOp::Create {
                path: "/a/b".into(),
            },
            FsOp::Delete {
                path: "/a/b".into(),
            },
            FsOp::List,
        ] {
            assert_eq!(FsOp::decode(&op.encode()), Some(op));
        }
        assert_eq!(FsOp::decode(&[0]), None);
    }

    #[test]
    fn response_encoding_round_trips() {
        let r = encode_response(FileStatus::Ok, b"payload");
        let (s, p) = decode_response(&r).unwrap();
        assert_eq!(s, FileStatus::Ok);
        assert_eq!(p, b"payload");
        assert_eq!(decode_response(&[]), None);
        for st in [
            FileStatus::Ok,
            FileStatus::Eof,
            FileStatus::NoSpace,
            FileStatus::Io,
            FileStatus::Bad,
        ] {
            let enc = encode_response(st, &[]);
            assert_eq!(decode_response(&enc).unwrap().0, st);
        }
    }

    #[test]
    fn setup_doorbell_round_trips() {
        let v = setup_doorbell(0x40_0000, 64);
        assert_eq!(decode_setup_doorbell(v), Some((0x40_0000, 64)));
        // A work doorbell is not a setup doorbell.
        assert_eq!(decode_setup_doorbell(DOORBELL_WORK), None);
    }

    /// `TraceData` cannot name `ConnId` (the bus crate sits above it), so
    /// the record spells the id the way `ConnId`'s `Debug` does.
    #[test]
    fn queue_attached_record_spells_the_connection_as_the_bus_does() {
        let (conn, base, size) = (ConnId(412), 0x40_0000u64, 64u16);
        let record = TraceData::QueueAttached {
            conn: conn.0,
            base,
            size,
        };
        assert_eq!(
            record.to_string(),
            format!("{conn:?}: queue attached at {base:#x} size {size}")
        );
    }

    #[test]
    fn client_round_trip_against_raw_device_endpoint() {
        let mut mem = FlatMemory::new(FILE_CONN_SHM as usize + 0x2000);
        let (mut client, setup) = FileClient::create(&mut mem, 0x1000, 16).unwrap();
        let (base, size) = decode_setup_doorbell(setup).unwrap();
        assert_eq!((base, size), (0x1000, 16));
        let mut dev = VirtqueueDevice::attach(QueueLayout::new(base, size));

        let head = client
            .submit(&mut mem, FileOpRef::Read { offset: 0, len: 5 }, 16)
            .unwrap();
        assert_eq!(client.in_flight(), 1);

        // Device side: echo a canned response.
        let chain = dev.pop(&mut mem).unwrap().unwrap();
        let req = dev.read_request(&mut mem, &chain).unwrap();
        assert_eq!(
            FileOpRef::decode(&req),
            Some(FileOpRef::Read { offset: 0, len: 5 })
        );
        let resp = encode_response(FileStatus::Ok, b"hello");
        let n = dev.write_response(&mut mem, &chain, &resp).unwrap();
        dev.push_used(&mut mem, chain.head, n).unwrap();

        let done = client.completions(&mut mem).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, head);
        assert_eq!(done[0].1, FileStatus::Ok);
        assert_eq!(done[0].2, b"hello");
        assert_eq!(client.in_flight(), 0);
    }

    /// A checkpoint is input: an in-flight entry whose head the driver holds
    /// no chain for would be completed without its descriptors coming back
    /// (or index out of the table), so restore refuses it.
    #[test]
    fn client_restore_rejects_an_in_flight_head_that_is_not_a_live_chain() {
        use lastcpu_snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
        let mut mem = FlatMemory::new(FILE_CONN_SHM as usize + 0x2000);
        let (mut client, _) = FileClient::create(&mut mem, 0x1000, 16).unwrap();
        let head = client.submit(&mut mem, FileOpRef::Stat, 16).unwrap();
        let mut w = SnapWriter::new();
        client.snapshot(&mut w);
        let bytes = w.into_bytes();
        let restore = |bytes: &[u8]| {
            let mut back = FileClient::placeholder();
            back.restore(&mut SnapReader::new("client", bytes))
                .map(|()| back)
        };
        let back = restore(&bytes).expect("own section restores");
        assert!(back.is_in_flight(head));
        // The one in-flight entry closes the section: head, two addresses,
        // the response capacity.
        let head_at = bytes.len() - (2 + 8 + 8 + 4);
        assert_eq!(bytes[head_at..head_at + 2], head.to_le_bytes());
        for hostile in [head + 1, 999] {
            let mut doctored = bytes.clone();
            doctored[head_at..head_at + 2].copy_from_slice(&hostile.to_le_bytes());
            assert!(
                matches!(restore(&doctored), Err(SnapError::Corrupt { .. })),
                "head {hostile} accepted"
            );
        }
    }

    #[test]
    fn client_backpressure_and_release() {
        let mut mem = FlatMemory::new(FILE_CONN_SHM as usize + 0x2000);
        // Queue of 4 descriptors → 2 requests in flight max.
        let (mut client, _) = FileClient::create(&mut mem, 0x1000, 4).unwrap();
        let mut heads = vec![];
        while client.can_submit() {
            heads.push(client.submit(&mut mem, FileOpRef::Stat, 16).unwrap());
        }
        assert_eq!(heads.len(), 2);
        assert!(matches!(
            client.submit(&mut mem, FileOpRef::Stat, 16),
            Err(QueueError::Full)
        ));
        // Serve one; capacity returns.
        let mut dev = VirtqueueDevice::attach(QueueLayout::new(0x1000, 4));
        let chain = dev.pop(&mut mem).unwrap().unwrap();
        let resp = encode_response(FileStatus::Ok, &[]);
        let n = dev.write_response(&mut mem, &chain, &resp).unwrap();
        dev.push_used(&mut mem, chain.head, n).unwrap();
        assert_eq!(client.completions(&mut mem).unwrap().len(), 1);
        assert!(client.can_submit());
    }

    /// A file connection between a client and an SSD that share one mapped
    /// region, driven without a bus: what `serve_conn` sees after the open
    /// handshake and the setup doorbell.
    struct Rig {
        iommu: lastcpu_iommu::Iommu,
        dram: lastcpu_mem::Dram,
        rng: lastcpu_sim::DetRng,
        req: u64,
        stats: lastcpu_sim::MetricsHub,
    }

    const RIG_PASID: Pasid = Pasid(7);
    const RIG_CONN: ConnId = ConnId(1);
    const RIG_BASE: u64 = 0x10_0000;

    impl Rig {
        fn new() -> Self {
            use lastcpu_mem::{Perms, PhysAddr, VirtAddr};
            let mut iommu = lastcpu_iommu::Iommu::new(16);
            iommu.bind_pasid(RIG_PASID);
            for at in (RIG_BASE..RIG_BASE + FILE_CONN_SHM).step_by(4096) {
                iommu
                    .map(RIG_PASID, VirtAddr::new(at), PhysAddr::new(at), Perms::RW)
                    .unwrap();
            }
            Rig {
                iommu,
                dram: lastcpu_mem::Dram::new(RIG_BASE + FILE_CONN_SHM),
                rng: lastcpu_sim::DetRng::new(7),
                req: 0,
                stats: lastcpu_sim::MetricsHub::new(),
            }
        }

        fn ctx(&mut self) -> DeviceCtx<'_> {
            DeviceCtx::new(
                lastcpu_sim::SimTime::ZERO,
                DeviceId(1),
                None,
                &mut self.iommu,
                &mut self.dram,
                &mut self.rng,
                &mut self.req,
                lastcpu_sim::CorrId::NONE,
                &self.stats,
            )
        }

        /// An SSD holding `/f` = "hello flash" with one attached connection,
        /// and the client at the other end of it.
        fn connect(&mut self) -> (SmartSsd, FileClient) {
            use crate::flash::{NandChip, NandConfig};
            let mut fs = FlashFs::format(crate::ftl::Ftl::new(NandChip::new(NandConfig {
                blocks: 8,
                pages_per_block: 8,
                page_size: 64,
                ..NandConfig::default()
            })));
            fs.create("/f").unwrap();
            fs.write("/f", 0, b"hello flash").unwrap();
            let mut ssd = SmartSsd::new("ssd0", fs, SsdConfig::default());
            let mut ctx = self.ctx();
            let (client, setup) =
                FileClient::create(&mut ctx.dma_view(RIG_PASID), RIG_BASE, 16).unwrap();
            let (base, size) = decode_setup_doorbell(setup).unwrap();
            ssd.conns.insert(
                RIG_CONN,
                FileConn {
                    peer: DeviceId(2),
                    pasid: RIG_PASID,
                    file: "/f".into(),
                    queue: Some(VirtqueueDevice::attach(QueueLayout::new(base, size))),
                    served: 0,
                },
            );
            (ssd, client)
        }

        /// Submits `ops`, lets the SSD serve them all, returns the answers.
        fn round(
            &mut self,
            ssd: &mut SmartSsd,
            client: &mut FileClient,
            ops: &[FileOp],
        ) -> Vec<(FileStatus, Vec<u8>)> {
            let mut ctx = self.ctx();
            for op in ops {
                client
                    .submit(&mut ctx.dma_view(RIG_PASID), op.borrowed(), 16)
                    .unwrap();
            }
            assert!(
                !ssd.serve_conn(&mut ctx, RIG_CONN, u32::MAX),
                "queue drained"
            );
            let done = client.completions(&mut ctx.dma_view(RIG_PASID)).unwrap();
            done.into_iter().map(|(_, st, body)| (st, body)).collect()
        }
    }

    #[test]
    fn hostile_offset_gets_eof_and_the_device_keeps_serving() {
        let mut rig = Rig::new();
        let (mut ssd, mut client) = rig.connect();
        let answers = rig.round(
            &mut ssd,
            &mut client,
            &[
                FileOp::Read {
                    offset: u64::MAX - 3,
                    len: 8,
                },
                FileOp::Write {
                    offset: u64::MAX - 3,
                    data: vec![1; 8],
                },
                FileOp::Read { offset: 6, len: 5 },
            ],
        );
        assert_eq!(
            answers,
            [
                (FileStatus::Eof, vec![]),
                (FileStatus::NoSpace, vec![]),
                (FileStatus::Ok, b"flash".to_vec()),
            ]
        );
        assert_eq!(ssd.stats().requests, 3);
        assert_eq!(ssd.stats().conn_resets, 0);
        assert_eq!(ssd.conn_served(RIG_CONN), 3);
    }

    #[test]
    fn hostile_length_is_bounded_before_the_buffer_is_sized() {
        let mut rig = Rig::new();
        let (mut ssd, mut client) = rig.connect();
        let answers = rig.round(
            &mut ssd,
            &mut client,
            &[
                FileOp::Read {
                    offset: 0,
                    len: u32::MAX,
                },
                FileOp::Read { offset: 0, len: 12 },
                FileOp::Read { offset: 0, len: 11 },
            ],
        );
        assert_eq!(
            answers,
            [
                (FileStatus::Eof, vec![]),
                (FileStatus::Eof, vec![]),
                (FileStatus::Ok, b"hello flash".to_vec()),
            ]
        );
        // Sized by what the file could supply, never by what was asked for.
        assert!(ssd.scratch_resp.capacity() < 64);
    }

    #[test]
    fn oversized_request_rejected() {
        let mut mem = FlatMemory::new(FILE_CONN_SHM as usize + 0x2000);
        let (mut client, _) = FileClient::create(&mut mem, 0x1000, 16).unwrap();
        let big = FileOp::Write {
            offset: 0,
            data: vec![0; CLIENT_SLOT as usize + 1],
        };
        assert!(matches!(
            client.submit(&mut mem, big.borrowed(), 16),
            Err(QueueError::ResponseTooLarge { .. })
        ));
        assert!(matches!(
            client.submit(&mut mem, FileOpRef::Stat, CLIENT_SLOT as u32),
            Err(QueueError::ResponseTooLarge { .. })
        ));
    }
}
