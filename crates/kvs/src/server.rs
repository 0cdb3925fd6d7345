//! Deployment-independent KVS server logic.
//!
//! Both deployments — offloaded on the smart NIC and conventional on the
//! CPU — run exactly this state machine; they differ only in how request
//! packets arrive and responses leave. Keeping the store logic identical is
//! what makes the E2 comparison fair: the measured difference is the
//! *system structure*, not the application.
//!
//! Startup: discover the memory controller, discover the data file's
//! owner, run the Figure 2 session setup, rebuild the index by scanning the
//! log, then serve. GETs read values from the SSD through the VIRTIO
//! queue (unless the small NIC-local cache hits); PUTs append records.

use lastcpu_sim::DetHashMap;
use std::collections::VecDeque;

use lastcpu_bus::{DeviceId, Token};
use lastcpu_devices::device::DeviceCtx;
use lastcpu_devices::monitor::{Monitor, MonitorEvent};
use lastcpu_devices::session::{FileSession, SessionEvent};
use lastcpu_devices::ssd::{FileOpRef, FileStatus, DOORBELL_WORK};
use lastcpu_mem::Pasid;
use lastcpu_net::PortId;
use lastcpu_sim::critpath::{STAGE_SERVER_DONE, STAGE_SERVER_RECV};
use lastcpu_sim::profile;
use lastcpu_sim::{Bytes, CounterHandle, SimDuration};

use crate::engine::{KvEngine, LogScanner};
use crate::proto::{encode_response_into, KvsRequestRef, KvsStatus};

/// Rebuild read chunk.
const REBUILD_CHUNK: u32 = 2048;
/// Maximum queued-but-unsubmitted requests before shedding load.
const MAX_BACKLOG: usize = 512;
/// Virtual-address stride between session incarnations (16 MiB; regions are
/// ~256 KiB). A failed incarnation's region may still be mapped at its old
/// VA — there is no unmap protocol for an owner that survived its peer — so
/// each reconnect maps its fresh region at a fresh VA instead of aliasing
/// the stale mapping.
///
/// Public because the E11 security evaluation probes exactly these windows
/// (generation `g` lives at `va_base + g * VA_STRIDE`): a rotated-away
/// generation must be revoked, not merely unused.
pub const VA_STRIDE: u64 = 0x0100_0000;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Discovery pattern for the data file, e.g. `"file:/data/kv.db"`.
    pub file_pattern: String,
    /// Pre-wired memory-controller address. `None` (the CPU-less default)
    /// discovers the `memory` service; the baseline CPU sets this to itself
    /// (a kernel knows it is the memory manager).
    pub memctl: Option<DeviceId>,
    /// Auth token presented when opening the file service.
    pub token: Token,
    /// Virtual base for the shared region in the server's address space.
    pub va_base: u64,
    /// Virtqueue depth.
    pub queue_size: u16,
    /// Entries in the local value cache (0 = disabled).
    pub cache_entries: usize,
    /// Per-request processing cost (hash, parse) on the serving device.
    pub per_request_cost: SimDuration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            file_pattern: "file:/data/kv.db".into(),
            memctl: None,
            token: Token::NONE,
            va_base: 0x2000_0000,
            queue_size: 64,
            cache_entries: 0,
            per_request_cost: SimDuration::from_nanos(500),
        }
    }
}

/// Server lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// Waiting for registration.
    Boot,
    /// Discovering the memory controller.
    FindingMemory,
    /// Discovering the data file's owner.
    FindingFile,
    /// Figure-2 session setup in progress.
    Connecting,
    /// Scanning the log to rebuild the index.
    Rebuilding,
    /// Serving requests.
    Ready,
    /// Lost a backing resource (peer death, setup failure). Transient: the
    /// failure sites immediately call `KvsServer::restart`, which answers
    /// everything queued with [`KvsStatus::Unavailable`] and re-enters the
    /// discovery pipeline, so a revived SSD/memory controller brings the
    /// server back without outside intervention.
    Failed,
}

/// Per-request bookkeeping for storage operations in flight.
enum Pending {
    Get {
        port: PortId,
        id: u64,
    },
    Put {
        port: PortId,
        id: u64,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Delete {
        port: PortId,
        id: u64,
    },
    Rebuild {
        len: u32,
    },
}

/// Server counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// GETs served.
    pub gets: u64,
    /// PUTs served.
    pub puts: u64,
    /// DELETEs served.
    pub deletes: u64,
    /// GETs answered from the local cache.
    pub cache_hits: u64,
    /// Cache-hit GETs answered via the zero-alloc fast path (a subset of
    /// `cache_hits`; zero when the fast path is disabled).
    pub fast_gets: u64,
    /// Requests answered `Busy` due to backlog overflow.
    pub shed: u64,
    /// Requests answered `NotFound`.
    pub misses: u64,
    /// Backing-resource failures survived (each triggers a restart).
    pub failures: u64,
    /// Requests answered `Unavailable` (failed over or arrived mid-recovery).
    pub unavailable: u64,
}

/// Handles into the system-wide [`MetricsHub`], registered when the server
/// starts so `kvs.server.*` keys exist even before any request arrives.
/// Mirrors [`ServerStats`]; hub updates are plain `Cell` writes.
///
/// [`MetricsHub`]: lastcpu_sim::MetricsHub
struct HubCounters {
    gets: CounterHandle,
    puts: CounterHandle,
    deletes: CounterHandle,
    cache_hits: CounterHandle,
    shed: CounterHandle,
    misses: CounterHandle,
    restarts: CounterHandle,
    unavailable: CounterHandle,
}

impl HubCounters {
    fn register(hub: &lastcpu_sim::MetricsHub) -> Self {
        HubCounters {
            gets: hub.counter_handle("kvs.server.gets"),
            puts: hub.counter_handle("kvs.server.puts"),
            deletes: hub.counter_handle("kvs.server.deletes"),
            cache_hits: hub.counter_handle("kvs.server.cache_hits"),
            shed: hub.counter_handle("kvs.server.shed"),
            misses: hub.counter_handle("kvs.server.misses"),
            restarts: hub.counter_handle("kvs.server.restarts"),
            unavailable: hub.counter_handle("kvs.server.unavailable"),
        }
    }
}

/// A tiny FIFO value cache (the NIC-local DRAM cache of KV-Direct): a full
/// cache evicts the entry that was *inserted* longest ago. A lookup does not
/// refresh an entry's position — `get` takes `&self` so the hot GET path can
/// serialize straight from the borrowed value.
struct ValueCache {
    map: DetHashMap<Vec<u8>, Vec<u8>>,
    order: VecDeque<Vec<u8>>,
    capacity: usize,
}

impl ValueCache {
    fn new(capacity: usize) -> Self {
        ValueCache {
            map: DetHashMap::default(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Borrowed-value lookup: the hot GET path serializes the response
    /// straight from this reference instead of cloning the value out.
    fn get(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.map.get(key)
    }

    /// Takes the key the in-flight PUT already owns: a key new to the cache
    /// costs one copy (for `order`), an update none.
    fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = value;
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(victim) = self.order.pop_front() {
                self.map.remove(&victim);
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
    }

    fn remove(&mut self, key: &[u8]) {
        self.map.remove(key);
        self.order.retain(|k| k != key);
    }
}

/// Requests waiting for storage-queue space, oldest first.
///
/// A waiting request is its wire bytes ([`KvsRequestRef::encode_into`])
/// appended to one arena the server owns and reuses, plus a `(port, length)`
/// entry: queueing a request copies its bytes once and allocates nothing,
/// and the checkpoint section — which always stored the encoding — is a
/// straight copy.
#[derive(Default)]
struct Backlog {
    /// `(requester, encoded length)` per waiting request.
    entries: VecDeque<(PortId, usize)>,
    /// The encodings of `entries`, in order, starting at `head`.
    bytes: Vec<u8>,
    /// Offset in `bytes` of the oldest waiting request.
    head: usize,
}

impl Backlog {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn push_back(&mut self, port: PortId, req: &KvsRequestRef<'_>) {
        let at = self.bytes.len();
        req.encode_into(&mut self.bytes);
        self.entries.push_back((port, self.bytes.len() - at));
    }

    /// Drops the consumed prefix of `bytes` once it is at least as long as
    /// what is still waiting, so the arena stays within twice the live bytes
    /// however long the server runs backlogged.
    fn compact(&mut self) {
        if self.head >= self.bytes.len() - self.head {
            self.bytes.drain(..self.head);
            self.head = 0;
        }
    }

    /// The waiting requests, oldest first.
    fn iter(&self) -> impl Iterator<Item = (PortId, &[u8])> {
        let mut at = self.head;
        self.entries.iter().map(move |&(port, len)| {
            let body = &self.bytes[at..at + len];
            at += len;
            (port, body)
        })
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.bytes.clear();
        self.head = 0;
    }
}

/// What [`KvsServer::serve`] did with a request.
enum Served {
    /// Answered on the spot (cache hit, miss, error).
    Answered,
    /// Handed to the SSD; the caller owes it a doorbell.
    Submitted,
    /// The storage queue has no room; the request must wait its turn.
    Blocked,
}

/// The KVS server state machine.
pub struct KvsServer {
    config: ServerConfig,
    pasid: Pasid,
    state: ServerState,
    engine: KvEngine,
    scanner: LogScanner,
    memctl: Option<DeviceId>,
    mem_op: u64,
    file_op: u64,
    session: Option<FileSession>,
    file_size: u64,
    rebuild_next: u64,
    rebuild_inflight: u64,
    /// The storage operation in flight under each descriptor head: a
    /// request is a slot, indexed by the head `FileClient::submit` returned
    /// (one entry per descriptor of the virtqueue).
    inflight: Vec<Option<Pending>>,
    in_flight: usize,
    backlog: Backlog,
    cache: ValueCache,
    stats: ServerStats,
    met: Option<HubCounters>,
    /// True between a failure-triggered [`restart`](Self::restart) and the
    /// next transition to [`ServerState::Ready`]; requests arriving in that
    /// window get `Unavailable` (lost resource) rather than `Busy`
    /// (overload), so clients can tell the two apart.
    recovering: bool,
    /// Session incarnation counter; selects the VA window ([`VA_STRIDE`])
    /// the next session maps its shared region at.
    generation: u64,
    /// Reused completion-payload buffer for the streaming drain loop.
    comp_buf: Vec<u8>,
    /// Reused log-record buffer: a PUT's record or a DELETE's tombstone is
    /// encoded here and written to the queue's shared memory from here.
    rec: Vec<u8>,
    /// Whether `try_fast_get` may answer (test hook; defaults on).
    fast_path: bool,
}

impl KvsServer {
    /// Creates a server that will run in address space `pasid`.
    pub fn new(config: ServerConfig, pasid: Pasid) -> Self {
        let cache = ValueCache::new(config.cache_entries);
        let inflight = Self::empty_slots(config.queue_size);
        KvsServer {
            config,
            pasid,
            state: ServerState::Boot,
            engine: KvEngine::new(),
            scanner: LogScanner::new(),
            memctl: None,
            mem_op: 0,
            file_op: 0,
            session: None,
            file_size: 0,
            rebuild_next: 0,
            rebuild_inflight: 0,
            inflight,
            in_flight: 0,
            backlog: Backlog::default(),
            cache,
            stats: ServerStats::default(),
            met: None,
            recovering: false,
            generation: 0,
            comp_buf: Vec::new(),
            rec: Vec::new(),
            fast_path: true,
        }
    }

    /// An in-flight table for a virtqueue of `queue_size` descriptors.
    fn empty_slots(queue_size: u16) -> Vec<Option<Pending>> {
        std::iter::repeat_with(|| None)
            .take(queue_size as usize)
            .collect()
    }

    /// Enables or disables the [`try_fast_get`](Self::try_fast_get) fast
    /// path. Responses must be byte-identical either way — the differential
    /// test flips this to hold the two paths to that contract.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ServerState {
        self.state
    }

    /// Counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Live keys in the index.
    pub fn key_count(&self) -> usize {
        self.engine.len()
    }

    /// Whether `key` is live in the in-memory index. The E10 crash audit
    /// uses this to check acknowledged writes against surviving replicas.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.engine.get(key).is_some()
    }

    /// Starts the setup pipeline (call once registered on the bus).
    pub fn start(&mut self, ctx: &mut DeviceCtx<'_>, monitor: &mut Monitor) {
        self.met = Some(HubCounters::register(ctx.stats));
        match self.config.memctl {
            Some(dev) => {
                self.memctl = Some(dev);
                self.state = ServerState::FindingFile;
                self.file_op = monitor.discover(ctx, self.config.file_pattern.as_str());
            }
            None => {
                self.state = ServerState::FindingMemory;
                self.mem_op = monitor.discover(ctx, "memory");
            }
        }
    }

    /// Feeds a monitor event, appending response payloads to transmit onto
    /// `out` (an app-owned scratch vector, reused across events).
    pub fn on_event(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        monitor: &mut Monitor,
        ev: &MonitorEvent,
        out: &mut Vec<(PortId, Bytes)>,
    ) {
        if let Some(session) = self.session.as_mut() {
            match session.on_event(ctx, monitor, ev) {
                Some(SessionEvent::Ready { file_size, .. }) => {
                    self.file_size = file_size;
                    if file_size == 0 {
                        self.state = ServerState::Ready;
                        self.recovering = false;
                    } else {
                        self.state = ServerState::Rebuilding;
                        self.issue_rebuild_reads(ctx);
                    }
                    return;
                }
                Some(SessionEvent::Completions { .. }) => {
                    self.drain(ctx, out);
                    if self.state == ServerState::Failed {
                        self.restart(ctx, monitor, out);
                    }
                    return;
                }
                Some(SessionEvent::Failed { .. }) => {
                    self.state = ServerState::Failed;
                    self.restart(ctx, monitor, out);
                    return;
                }
                None => {}
            }
        }
        match (self.state, ev) {
            (ServerState::FindingMemory, MonitorEvent::DiscoveryDone { op, hits })
                if *op == self.mem_op =>
            {
                match hits
                    .iter()
                    .find(|(_, s)| Monitor::match_pattern("memory", &s.name))
                {
                    Some((dev, _)) => {
                        self.memctl = Some(*dev);
                        self.state = ServerState::FindingFile;
                        self.file_op = monitor.discover(ctx, self.config.file_pattern.as_str());
                    }
                    None => {
                        // The controller may still be booting; retry.
                        self.mem_op = monitor.discover(ctx, "memory");
                    }
                }
            }
            (ServerState::FindingFile, MonitorEvent::DiscoveryDone { op, hits })
                if *op == self.file_op =>
            {
                match hits
                    .iter()
                    .find(|(_, s)| Monitor::match_pattern(&self.config.file_pattern, &s.name))
                {
                    Some((dev, svc)) => {
                        let mut session = FileSession::new(
                            self.memctl.expect("set in FindingMemory"),
                            *dev,
                            svc.id,
                            self.config.token,
                            self.pasid,
                            self.config.va_base + self.generation * VA_STRIDE,
                            self.config.queue_size,
                        );
                        self.state = ServerState::Connecting;
                        session.start(ctx, monitor);
                        self.session = Some(session);
                    }
                    None => {
                        self.file_op = monitor.discover(ctx, self.config.file_pattern.as_str());
                    }
                }
            }
            _ => {}
        }
    }

    /// Pushes one response and emits its `server.done` critical-path mark
    /// (every response path funnels through here so the E12 analyzer can
    /// join the replica side of each operation). The response serializes
    /// straight from the borrowed value into a pooled buffer — no
    /// intermediate `KvsResponse`, no per-response `Vec`.
    fn respond(
        ctx: &mut DeviceCtx<'_>,
        out: &mut Vec<(PortId, Bytes)>,
        port: PortId,
        id: u64,
        status: KvsStatus,
        value: &[u8],
    ) {
        ctx.stage(STAGE_SERVER_DONE, id, status as u64);
        let mut buf = ctx.take_buf();
        encode_response_into(id, status, value, buf.vec_mut());
        out.push((port, buf));
    }

    /// Current queue depth (backlogged + in-flight requests), reported in
    /// `Busy` responses as the backpressure signal.
    fn queue_depth(&self) -> u32 {
        (self.backlog.len() + self.in_flight) as u32
    }

    /// Records `op` as in flight under descriptor head `head`.
    ///
    /// The slot can still hold an operation of a session the device lost
    /// without a [`restart`](Self::restart) — a NIC that was reset starts
    /// over with this table as it was. The new operation takes the slot, as
    /// an insert into the map this table replaced overwrote the old entry.
    fn track(&mut self, head: u16, op: Pending) {
        if self.inflight[head as usize].replace(op).is_none() {
            self.in_flight += 1;
        }
    }

    fn note_shed(&mut self) {
        self.stats.shed += 1;
        if let Some(met) = &self.met {
            met.shed.incr();
        }
    }

    /// Handles one network request, appending response payloads onto `out`
    /// (an app-owned scratch vector, reused across requests). The request
    /// borrows the frame it arrived in: it is served from there if the
    /// storage queue has room, and otherwise its bytes are copied into the
    /// backlog — the frame's buffer goes back to its pool when the caller
    /// drops it, either way.
    pub fn on_request(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        src: PortId,
        req: KvsRequestRef<'_>,
        out: &mut Vec<(PortId, Bytes)>,
    ) {
        // Named sub-scope: everything the fast path bypassed (PUTs,
        // misses, shed) attributes here in the E9 table.
        let _sp = profile::span("kvs.server.request");
        ctx.stage(STAGE_SERVER_RECV, req.id(), 0);
        if self.state != ServerState::Ready {
            // `Unavailable` = lost a backing resource (recovery under way);
            // `Busy` = still starting up or overloaded. Clients treat the
            // former as "back off longer".
            // Busy responses carry the current queue depth so a
            // congestion-aware router can scale its backoff instead of
            // retrying blind ([`KvsResponse::busy`]).
            if self.recovering || self.state == ServerState::Failed {
                self.note_unavailable();
                Self::respond(ctx, out, src, req.id(), KvsStatus::Unavailable, &[]);
            } else {
                let depth = self.queue_depth();
                Self::respond(
                    ctx,
                    out,
                    src,
                    req.id(),
                    KvsStatus::Busy,
                    &depth.to_le_bytes(),
                );
            }
            return;
        }
        ctx.busy(self.config.per_request_cost);
        if self.backlog.len() >= MAX_BACKLOG {
            self.note_shed();
            let depth = self.queue_depth();
            Self::respond(
                ctx,
                out,
                src,
                req.id(),
                KvsStatus::Busy,
                &depth.to_le_bytes(),
            );
            return;
        }
        if !self.backlog.is_empty() {
            // Responses leave in arrival order: behind waiting requests even
            // a cache hit waits.
            self.backlog.push_back(src, &req);
            self.pump(ctx, out);
            return;
        }
        match self.serve(ctx, out, src, &req) {
            Served::Answered => {}
            Served::Submitted => self.ring(ctx),
            Served::Blocked => self.backlog.push_back(src, &req),
        }
    }

    /// Zero-alloc fast path for the dominant request shape: a GET whose key
    /// is hot in the value cache, arriving while the server is `Ready` with
    /// an empty backlog and storage-queue space free (the exact conditions
    /// under which [`KvsServer::on_request`] would answer it inline from
    /// the cache). Replicates the slow path's effects — stage marks, busy
    /// charge, counters — and serializes the response into `buf` (typically
    /// a pooled buffer) straight from the borrowed key and cached value.
    ///
    /// Returns `true` when handled; `false` means the caller must fall back
    /// to [`KvsServer::on_request`].
    pub fn try_fast_get(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        req: &KvsRequestRef<'_>,
        buf: &mut Vec<u8>,
    ) -> bool {
        if !self.fast_path {
            return false;
        }
        let KvsRequestRef::Get { id, key } = *req else {
            return false;
        };
        if self.state != ServerState::Ready || !self.backlog.is_empty() {
            return false;
        }
        // `pump` only answers requests while the storage client has queue
        // space; without it this GET would backlog, so take the slow path.
        let Some(session) = self.session.as_mut() else {
            return false;
        };
        let Some((client, _)) = session.client_mut() else {
            return false;
        };
        if !client.can_submit() {
            return false;
        }
        let Some(v) = self.cache.get(key) else {
            return false;
        };
        // Same effects, in the same order, as on_request → pump for this
        // shape (the differential test in `tests/` holds the two paths
        // byte-identical).
        ctx.stage(STAGE_SERVER_RECV, id, 0);
        ctx.busy(self.config.per_request_cost);
        self.stats.gets += 1;
        self.stats.cache_hits += 1;
        self.stats.fast_gets += 1;
        if let Some(met) = &self.met {
            met.gets.incr();
            met.cache_hits.incr();
        }
        ctx.stage(STAGE_SERVER_DONE, id, KvsStatus::Ok as u64);
        encode_response_into(id, KvsStatus::Ok, v, buf);
        true
    }

    /// Tells the SSD there is work in the queue.
    fn ring(&mut self, ctx: &mut DeviceCtx<'_>) {
        if let Some(session) = &self.session {
            ctx.doorbell(session.target(), session.conn(), DOORBELL_WORK);
        }
    }

    /// Submits backlogged requests, oldest first, while queue space allows.
    fn pump(&mut self, ctx: &mut DeviceCtx<'_>, out: &mut Vec<(PortId, Bytes)>) {
        // The arena is lent out for the loop so the requests can borrow from
        // it while `serve` has the rest of `self`; nothing pushes meanwhile.
        let bytes = std::mem::take(&mut self.backlog.bytes);
        let mut submitted = false;
        while let Some((src, len)) = self.backlog.entries.pop_front() {
            let at = self.backlog.head;
            let req = KvsRequestRef::decode(&bytes[at..at + len])
                .expect("the backlog holds encodings this server wrote");
            match self.serve(ctx, out, src, &req) {
                Served::Answered => {}
                Served::Submitted => submitted = true,
                Served::Blocked => {
                    self.backlog.entries.push_front((src, len));
                    break;
                }
            }
            self.backlog.head += len;
        }
        self.backlog.bytes = bytes;
        self.backlog.compact();
        if submitted {
            self.ring(ctx);
        }
    }

    /// Serves one request if the storage queue has room for it: answers it
    /// from the cache or the index, or submits its storage operation. The one
    /// path every request takes, whether it just arrived or waited in the
    /// backlog. Only what becomes state is copied out of `req`: a PUT's key
    /// and value (they outlive the frame in the in-flight slot, and then in
    /// the cache).
    fn serve(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        out: &mut Vec<(PortId, Bytes)>,
        src: PortId,
        req: &KvsRequestRef<'_>,
    ) -> Served {
        let pasid = self.pasid;
        let Some((client, _)) = self.session.as_mut().and_then(|s| s.client_mut()) else {
            return Served::Blocked;
        };
        if !client.can_submit() {
            return Served::Blocked;
        }
        match *req {
            KvsRequestRef::Get { id, key } => {
                if let Some(v) = self.cache.get(key) {
                    self.stats.gets += 1;
                    self.stats.cache_hits += 1;
                    if let Some(met) = &self.met {
                        met.gets.incr();
                        met.cache_hits.incr();
                    }
                    // Serialize straight from the borrowed cache value:
                    // no intermediate clone into a KvsResponse.
                    Self::respond(ctx, out, src, id, KvsStatus::Ok, v);
                    return Served::Answered;
                }
                let Some(vref) = self.engine.get(key) else {
                    self.stats.gets += 1;
                    self.stats.misses += 1;
                    if let Some(met) = &self.met {
                        met.gets.incr();
                        met.misses.incr();
                    }
                    Self::respond(ctx, out, src, id, KvsStatus::NotFound, &[]);
                    return Served::Answered;
                };
                let op = FileOpRef::Read {
                    offset: vref.offset,
                    len: vref.len,
                };
                let mut view = ctx.dma_view(pasid);
                match client.submit(&mut view, op, vref.len) {
                    Ok(head) => {
                        self.track(head, Pending::Get { port: src, id });
                        Served::Submitted
                    }
                    Err(_) => Served::Blocked,
                }
            }
            KvsRequestRef::Put { id, key, value } => {
                let Ok(offset) = self.engine.put_into(key, value, &mut self.rec) else {
                    Self::respond(ctx, out, src, id, KvsStatus::Error, &[]);
                    return Served::Answered;
                };
                let op = FileOpRef::Write {
                    offset,
                    data: &self.rec,
                };
                let mut view = ctx.dma_view(pasid);
                match client.submit(&mut view, op, 8) {
                    Ok(head) => {
                        let op = Pending::Put {
                            port: src,
                            id,
                            key: key.to_vec(),
                            value: value.to_vec(),
                        };
                        self.track(head, op);
                        Served::Submitted
                    }
                    Err(_) => {
                        // Engine state already advanced; the log hole is
                        // tolerated (it will re-append on retry). Report
                        // busy.
                        self.shed_unsubmitted(ctx, out, src, id);
                        Served::Answered
                    }
                }
            }
            KvsRequestRef::Delete { id, key } => {
                self.cache.remove(key);
                match self.engine.delete_into(key, &mut self.rec) {
                    Ok(Some(offset)) => {
                        let op = FileOpRef::Write {
                            offset,
                            data: &self.rec,
                        };
                        let mut view = ctx.dma_view(pasid);
                        match client.submit(&mut view, op, 8) {
                            Ok(head) => {
                                self.track(head, Pending::Delete { port: src, id });
                                Served::Submitted
                            }
                            Err(_) => {
                                self.shed_unsubmitted(ctx, out, src, id);
                                Served::Answered
                            }
                        }
                    }
                    Ok(None) => {
                        self.stats.deletes += 1;
                        self.stats.misses += 1;
                        if let Some(met) = &self.met {
                            met.deletes.incr();
                            met.misses.incr();
                        }
                        Self::respond(ctx, out, src, id, KvsStatus::NotFound, &[]);
                        Served::Answered
                    }
                    Err(_) => {
                        Self::respond(ctx, out, src, id, KvsStatus::Error, &[]);
                        Served::Answered
                    }
                }
            }
        }
    }

    /// Answers `Busy` for a write whose log record could not be submitted.
    fn shed_unsubmitted(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        out: &mut Vec<(PortId, Bytes)>,
        src: PortId,
        id: u64,
    ) {
        self.note_shed();
        let depth = self.queue_depth();
        Self::respond(ctx, out, src, id, KvsStatus::Busy, &depth.to_le_bytes());
    }

    /// Issues index-rebuild reads while queue space allows.
    fn issue_rebuild_reads(&mut self, ctx: &mut DeviceCtx<'_>) {
        let pasid = self.pasid;
        let mut issued = false;
        while self.rebuild_next < self.file_size {
            let Some((client, _)) = self.session.as_mut().and_then(|s| s.client_mut()) else {
                break;
            };
            if !client.can_submit() {
                break;
            }
            let len = REBUILD_CHUNK.min((self.file_size - self.rebuild_next) as u32);
            let op = FileOpRef::Read {
                offset: self.rebuild_next,
                len,
            };
            let mut view = ctx.dma_view(pasid);
            let Ok(head) = client.submit(&mut view, op, len) else {
                break;
            };
            self.track(head, Pending::Rebuild { len });
            self.rebuild_next += len as u64;
            self.rebuild_inflight += 1;
            issued = true;
        }
        if issued {
            self.ring(ctx);
        }
    }

    /// Pops completions one at a time into `comp_buf` and answers each.
    /// Event and response order is identical to the old collect-then-process
    /// shape: completions come off the same virtqueue in the same order, and
    /// nothing here submits new work mid-loop.
    fn drain_completions(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        out: &mut Vec<(PortId, Bytes)>,
        comp_buf: &mut Vec<u8>,
    ) {
        let pasid = self.pasid;
        loop {
            // Re-borrow the session each iteration: the arms below need the
            // rest of `self` (stats, cache, scanner) between pops.
            let Some(session) = self.session.as_mut() else {
                return;
            };
            let Some((client, _)) = session.client_mut() else {
                return;
            };
            let popped = {
                let mut view = ctx.dma_view(pasid);
                client.next_completion(&mut view, comp_buf)
            };
            let (head, status) = match popped {
                Ok(Some(c)) => c,
                Ok(None) => return,
                Err(_) => {
                    self.state = ServerState::Failed;
                    return;
                }
            };
            let Some(pending) = self.inflight.get_mut(head as usize).and_then(Option::take) else {
                continue;
            };
            self.in_flight -= 1;
            match pending {
                Pending::Get { port, id } => {
                    self.stats.gets += 1;
                    if let Some(met) = &self.met {
                        met.gets.incr();
                    }
                    if status == FileStatus::Ok {
                        Self::respond(ctx, out, port, id, KvsStatus::Ok, comp_buf);
                    } else {
                        Self::respond(ctx, out, port, id, KvsStatus::Error, &[]);
                    }
                }
                Pending::Put {
                    port,
                    id,
                    key,
                    value,
                } => {
                    self.stats.puts += 1;
                    if let Some(met) = &self.met {
                        met.puts.incr();
                    }
                    if status == FileStatus::Ok {
                        self.cache.insert(key, value);
                        Self::respond(ctx, out, port, id, KvsStatus::Ok, &[]);
                    } else {
                        Self::respond(ctx, out, port, id, KvsStatus::Error, &[]);
                    }
                }
                Pending::Delete { port, id } => {
                    self.stats.deletes += 1;
                    if let Some(met) = &self.met {
                        met.deletes.incr();
                    }
                    let st = if status == FileStatus::Ok {
                        KvsStatus::Ok
                    } else {
                        KvsStatus::Error
                    };
                    Self::respond(ctx, out, port, id, st, &[]);
                }
                Pending::Rebuild { len } => {
                    self.rebuild_inflight -= 1;
                    if status == FileStatus::Ok && comp_buf.len() == len as usize {
                        if self.scanner.feed(&mut self.engine, comp_buf).is_err() {
                            self.state = ServerState::Failed;
                            return;
                        }
                    } else {
                        self.state = ServerState::Failed;
                        return;
                    }
                }
            }
        }
    }

    /// Drains storage completions, producing network responses.
    fn drain(&mut self, ctx: &mut DeviceCtx<'_>, out: &mut Vec<(PortId, Bytes)>) {
        // Named sub-scope for the E9 attribution table.
        let _sp = profile::span("kvs.server.drain");
        if self.session.is_none() {
            return;
        }
        // Stream completions one at a time through the reusable payload
        // buffer instead of materializing a Vec of owned payloads. The
        // buffer is lent out for the loop so `self` stays borrowable.
        let mut comp_buf = std::mem::take(&mut self.comp_buf);
        self.drain_completions(ctx, out, &mut comp_buf);
        self.comp_buf = comp_buf;
        if self.state == ServerState::Rebuilding {
            if self.rebuild_next >= self.file_size && self.rebuild_inflight == 0 {
                self.state = ServerState::Ready;
                self.recovering = false;
            } else {
                self.issue_rebuild_reads(ctx);
            }
        } else if self.state == ServerState::Ready && !self.backlog.is_empty() {
            self.pump(ctx, out);
        }
    }

    fn note_unavailable(&mut self) {
        self.stats.unavailable += 1;
        if let Some(met) = &self.met {
            met.unavailable.incr();
        }
    }

    /// Fails over after losing a backing resource: answers every queued and
    /// in-flight request with an explicit [`KvsStatus::Unavailable`] (instead
    /// of wedging them forever), drops the dead session, resets the index,
    /// and re-enters the discovery pipeline from the top. When the SSD comes
    /// back (e.g. after a bus-initiated reset in E4), discovery finds it
    /// again and the Figure-2 setup + log rebuild replays, returning the
    /// server to `Ready` with no outside intervention.
    fn restart(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        monitor: &mut Monitor,
        out: &mut Vec<(PortId, Bytes)>,
    ) {
        self.stats.failures += 1;
        if let Some(met) = &self.met {
            met.restarts.incr();
        }
        // Fail the in-flight storage ops, in descriptor-head order.
        for head in 0..self.inflight.len() {
            let (port, id) = match self.inflight[head].take() {
                Some(Pending::Get { port, id })
                | Some(Pending::Delete { port, id })
                | Some(Pending::Put { port, id, .. }) => (port, id),
                Some(Pending::Rebuild { .. }) | None => continue,
            };
            self.note_unavailable();
            Self::respond(ctx, out, port, id, KvsStatus::Unavailable, &[]);
        }
        self.in_flight = 0;
        // Fail the backlog in arrival order.
        let backlog = std::mem::take(&mut self.backlog);
        for (port, body) in backlog.iter() {
            let id = KvsRequestRef::decode(body)
                .expect("the backlog holds encodings this server wrote")
                .id();
            self.note_unavailable();
            Self::respond(ctx, out, port, id, KvsStatus::Unavailable, &[]);
        }
        self.backlog = backlog;
        self.backlog.clear();
        // Drop the dead session and the (now untrusted) index; the rebuild
        // scan will reconstruct it from the log on reconnect.
        self.session = None;
        self.engine = KvEngine::new();
        self.scanner = LogScanner::new();
        self.file_size = 0;
        self.rebuild_next = 0;
        self.rebuild_inflight = 0;
        self.recovering = true;
        self.generation += 1;
        match self.config.memctl {
            Some(dev) => {
                self.memctl = Some(dev);
                self.state = ServerState::FindingFile;
                self.file_op = monitor.discover(ctx, self.config.file_pattern.as_str());
            }
            None => {
                self.state = ServerState::FindingMemory;
                self.mem_op = monitor.discover(ctx, "memory");
            }
        }
    }
}

fn server_state_tag(s: ServerState) -> u8 {
    match s {
        ServerState::Boot => 0,
        ServerState::FindingMemory => 1,
        ServerState::FindingFile => 2,
        ServerState::Connecting => 3,
        ServerState::Rebuilding => 4,
        ServerState::Ready => 5,
        ServerState::Failed => 6,
    }
}

fn server_state_from_tag(
    r: &mut lastcpu_snap::SnapReader<'_>,
    tag: u8,
) -> lastcpu_snap::Result<ServerState> {
    Ok(match tag {
        0 => ServerState::Boot,
        1 => ServerState::FindingMemory,
        2 => ServerState::FindingFile,
        3 => ServerState::Connecting,
        4 => ServerState::Rebuilding,
        5 => ServerState::Ready,
        6 => ServerState::Failed,
        t => return Err(r.corrupt(format!("unknown server state tag {t}"))),
    })
}

impl Pending {
    fn snap_encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        match self {
            Pending::Get { port, id } => {
                w.put_u8(0);
                w.put_u32(port.0);
                w.put_u64(*id);
            }
            Pending::Put {
                port,
                id,
                key,
                value,
            } => {
                w.put_u8(1);
                w.put_u32(port.0);
                w.put_u64(*id);
                w.put_bytes(key);
                w.put_bytes(value);
            }
            Pending::Delete { port, id } => {
                w.put_u8(2);
                w.put_u32(port.0);
                w.put_u64(*id);
            }
            Pending::Rebuild { len } => {
                w.put_u8(3);
                w.put_u32(*len);
            }
        }
    }

    fn snap_decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Pending> {
        Ok(match r.u8()? {
            0 => Pending::Get {
                port: PortId(r.u32()?),
                id: r.u64()?,
            },
            1 => Pending::Put {
                port: PortId(r.u32()?),
                id: r.u64()?,
                key: r.bytes()?,
                value: r.bytes()?,
            },
            2 => Pending::Delete {
                port: PortId(r.u32()?),
                id: r.u64()?,
            },
            3 => Pending::Rebuild { len: r.u32()? },
            t => return Err(r.corrupt(format!("unknown pending-op tag {t}"))),
        })
    }
}

impl lastcpu_snap::Snapshot for ValueCache {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_len(self.capacity);
        // Insertion order is semantic (eviction picks the front), so entries
        // are written in `order`, not sorted; `order` holds exactly the map
        // keys.
        w.put_len(self.order.len());
        for k in &self.order {
            w.put_bytes(k);
            w.put_bytes(&self.map[k]);
        }
    }
}

impl lastcpu_snap::Restore for ValueCache {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.capacity = r.len()?;
        let n = r.count()?;
        if n > self.capacity {
            return Err(r.corrupt(format!(
                "cache holds {n} entries but capacity is {}",
                self.capacity
            )));
        }
        self.map = DetHashMap::default();
        self.order = VecDeque::with_capacity(n);
        for _ in 0..n {
            let k = r.bytes()?;
            let v = r.bytes()?;
            self.order.push_back(k.clone());
            self.map.insert(k, v);
        }
        Ok(())
    }
}

impl lastcpu_snap::Snapshot for KvsServer {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_str(&self.config.file_pattern);
        w.put_opt(self.config.memctl.as_ref(), |w, d| w.put_u32(d.0));
        w.put_u128(self.config.token.0);
        w.put_u64(self.config.va_base);
        w.put_u16(self.config.queue_size);
        w.put_len(self.config.cache_entries);
        w.put_u64(self.config.per_request_cost.as_nanos());
        w.put_u32(self.pasid.0);
        w.put_u8(server_state_tag(self.state));
        self.engine.snapshot(w);
        self.scanner.snapshot(w);
        w.put_opt(self.memctl.as_ref(), |w, d| w.put_u32(d.0));
        w.put_u64(self.mem_op);
        w.put_u64(self.file_op);
        w.put_opt(self.session.as_ref(), |w, s| s.snapshot(w));
        w.put_u64(self.file_size);
        w.put_u64(self.rebuild_next);
        w.put_u64(self.rebuild_inflight);
        w.put_len(self.in_flight);
        for (head, slot) in (0u16..).zip(&self.inflight) {
            if let Some(op) = slot {
                w.put_u16(head);
                op.snap_encode(w);
            }
        }
        w.put_len(self.backlog.len());
        for (port, body) in self.backlog.iter() {
            w.put_u32(port.0);
            w.put_bytes(body);
        }
        self.cache.snapshot(w);
        w.put_u64(self.stats.gets);
        w.put_u64(self.stats.puts);
        w.put_u64(self.stats.deletes);
        w.put_u64(self.stats.cache_hits);
        w.put_u64(self.stats.fast_gets);
        w.put_u64(self.stats.shed);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.failures);
        w.put_u64(self.stats.unavailable);
        w.put_bool(self.recovering);
        w.put_u64(self.generation);
        w.put_bool(self.fast_path);
        // Excluded: `met` (live MetricsHub handles, owned by the hub's own
        // section), `comp_buf` and `rec` (reused scratch, contents
        // meaningless between events).
    }
}

impl lastcpu_snap::Restore for KvsServer {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.config.file_pattern = r.str()?;
        self.config.memctl = r.opt(|r| Ok(DeviceId(r.u32()?)))?;
        self.config.token = Token(r.u128()?);
        self.config.va_base = r.u64()?;
        self.config.queue_size = r.u16()?;
        self.config.cache_entries = r.len()?;
        self.config.per_request_cost = SimDuration::from_nanos(r.u64()?);
        self.pasid = Pasid(r.u32()?);
        let tag = r.u8()?;
        self.state = server_state_from_tag(r, tag)?;
        self.engine.restore(r)?;
        self.scanner.restore(r)?;
        self.memctl = r.opt(|r| Ok(DeviceId(r.u32()?)))?;
        self.mem_op = r.u64()?;
        self.file_op = r.u64()?;
        self.session = r.opt(|r| {
            let mut s = FileSession::placeholder();
            s.restore(r)?;
            Ok(s)
        })?;
        self.file_size = r.u64()?;
        self.rebuild_next = r.u64()?;
        self.rebuild_inflight = r.u64()?;
        self.in_flight = r.len()?;
        self.inflight = Self::empty_slots(self.config.queue_size);
        for _ in 0..self.in_flight {
            let head = r.u16()?;
            // A head is an index into the table. (It need not be live in the
            // storage client: a reset NIC keeps the operations of the session
            // it lost until their heads are reused, see `track`.)
            let Some(slot) = self.inflight.get_mut(head as usize) else {
                return Err(r.corrupt(format!(
                    "in-flight operation under head {head} of a {}-descriptor queue",
                    self.config.queue_size
                )));
            };
            if slot.is_some() {
                return Err(r.corrupt(format!("two in-flight operations under head {head}")));
            }
            *slot = Some(Pending::snap_decode(r)?);
        }
        let n = r.len()?;
        self.backlog.clear();
        for _ in 0..n {
            let port = PortId(r.u32()?);
            let body = r.bytes()?;
            let req = KvsRequestRef::decode(&body)
                .ok_or_else(|| r.corrupt("undecodable backlogged request"))?;
            self.backlog.push_back(port, &req);
        }
        self.cache.restore(r)?;
        self.stats.gets = r.u64()?;
        self.stats.puts = r.u64()?;
        self.stats.deletes = r.u64()?;
        self.stats.cache_hits = r.u64()?;
        self.stats.fast_gets = r.u64()?;
        self.stats.shed = r.u64()?;
        self.stats.misses = r.u64()?;
        self.stats.failures = r.u64()?;
        self.stats.unavailable = r.u64()?;
        self.recovering = r.bool()?;
        self.generation = r.u64()?;
        self.fast_path = r.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::KvsResponse;

    #[test]
    fn value_cache_fifo_semantics() {
        let mut c = ValueCache::new(2);
        c.insert(b"a".to_vec(), vec![1]);
        c.insert(b"b".to_vec(), vec![2]);
        // Reading `a` does not save it: eviction is by insertion order.
        assert_eq!(c.get(b"a").cloned(), Some(vec![1]));
        c.insert(b"c".to_vec(), vec![3]); // evicts a
        assert_eq!(c.get(b"a"), None);
        assert_eq!(c.get(b"b").cloned(), Some(vec![2]));
        assert_eq!(c.get(b"c").cloned(), Some(vec![3]));
        c.remove(b"b");
        assert_eq!(c.get(b"b"), None);
        // Updating an existing key does not evict.
        c.insert(b"c".to_vec(), vec![9]);
        assert_eq!(c.get(b"c").cloned(), Some(vec![9]));
    }

    #[test]
    fn zero_capacity_cache_stores_nothing() {
        let mut c = ValueCache::new(0);
        c.insert(b"a".to_vec(), vec![1]);
        assert_eq!(c.get(b"a"), None);
    }

    #[test]
    fn backlog_is_a_fifo_of_wire_bytes_that_reuses_its_arena() {
        let mut b = Backlog::default();
        let key = |i: u64| format!("key-{i:04}").into_bytes();
        // Sustained backpressure: the queue never empties, yet the arena
        // stays within a few requests' bytes.
        let mut next_out = 0u64;
        for i in 0..10_000u64 {
            let k = key(i);
            b.push_back(PortId(i as u32), &KvsRequestRef::Get { id: i, key: &k });
            if i >= 3 {
                let (port, body) = b.iter().next().expect("non-empty");
                let expect = key(next_out);
                assert_eq!(port, PortId(next_out as u32));
                assert_eq!(
                    KvsRequestRef::decode(body),
                    Some(KvsRequestRef::Get {
                        id: next_out,
                        key: &expect
                    })
                );
                let (_, len) = b.entries.pop_front().expect("non-empty");
                b.head += len;
                b.compact();
                next_out += 1;
            }
        }
        assert_eq!(b.len(), 3);
        let live: usize = b.iter().map(|(_, body)| body.len()).sum();
        assert!(b.bytes.len() <= 2 * live, "{} bytes kept", b.bytes.len());
        assert!(
            b.bytes.capacity() < 1024,
            "arena grew to {}",
            b.bytes.capacity()
        );
        b.clear();
        assert!(b.is_empty() && b.iter().next().is_none());
    }

    /// The wire accepts a length prefix padded with a continuation byte, so
    /// a frame is not necessarily its request's encoding: the backlog (and
    /// with it the checkpoint) holds what the request re-encodes to, which
    /// is what the owned `KvsRequest` it used to hold would have written.
    #[test]
    fn backlog_holds_the_canonical_encoding_not_the_frame() {
        let canonical = KvsRequestRef::Get { id: 7, key: b"k" }.encode();
        let mut padded = canonical.clone();
        assert_eq!(padded[9], 1, "key length prefix");
        padded[9] = 0x81;
        padded.insert(10, 0x00);
        let req = KvsRequestRef::decode(&padded).expect("padded varints decode");
        assert_eq!(req, KvsRequestRef::Get { id: 7, key: b"k" });
        let mut b = Backlog::default();
        b.push_back(PortId(1), &req);
        assert_eq!(b.iter().next(), Some((PortId(1), &canonical[..])));
    }

    /// A checkpoint is input: an in-flight operation's head indexes the
    /// table, so one beyond the queue must be refused, not restored into a
    /// server that panics when the slot is touched.
    #[test]
    fn restore_rejects_an_in_flight_head_beyond_the_queue() {
        use lastcpu_snap::{Restore, SnapError, SnapReader, Snapshot};
        let mut server = KvsServer::new(ServerConfig::default(), Pasid(1));
        let op = || Pending::Get {
            port: PortId(7),
            id: 2,
        };
        server.track(63, op());
        let restore = |bytes: &[u8]| {
            let mut fresh = KvsServer::new(ServerConfig::default(), Pasid(0));
            fresh
                .restore(&mut SnapReader::new("server", bytes))
                .map(|()| fresh.snapshot_bytes())
        };
        let good = server.snapshot_bytes();
        assert_eq!(restore(&good).expect("own section restores"), good);
        // The same operation under head 64 of a 64-descriptor queue: a
        // section only a doctored checkpoint can hold.
        server.inflight[63] = None;
        server.inflight.push(Some(op()));
        assert!(matches!(
            restore(&server.snapshot_bytes()),
            Err(SnapError::Corrupt { .. })
        ));
    }

    #[test]
    fn server_starts_in_boot() {
        let s = KvsServer::new(ServerConfig::default(), Pasid(1));
        assert_eq!(s.state(), ServerState::Boot);
        assert_eq!(s.key_count(), 0);
    }

    mod degradation {
        use super::*;
        use lastcpu_bus::CorrId;
        use lastcpu_iommu::Iommu;
        use lastcpu_mem::Dram;
        use lastcpu_sim::{DetRng, MetricsHub, SimTime};

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
                    iommu: Iommu::new(8),
                    dram: Dram::new(1 << 20),
                    rng: DetRng::new(11),
                    req: 0,
                    stats: MetricsHub::new(),
                }
            }

            fn ctx(&mut self) -> DeviceCtx<'_> {
                DeviceCtx::new(
                    SimTime::ZERO,
                    DeviceId(9),
                    Some(PortId(3)),
                    &mut self.iommu,
                    &mut self.dram,
                    &mut self.rng,
                    &mut self.req,
                    CorrId::NONE,
                    &self.stats,
                )
            }
        }

        #[test]
        fn restart_fails_over_queued_work_and_reenters_discovery() {
            let mut fix = Fix::new();
            let mut monitor = Monitor::new();
            let mut server = KvsServer::new(ServerConfig::default(), Pasid(1));
            let mut ctx = fix.ctx();
            server.start(&mut ctx, &mut monitor);
            assert_eq!(server.state(), ServerState::FindingMemory);
            // Pretend the server got to Ready with work queued and in flight,
            // then the backing SSD died.
            server.state = ServerState::Ready;
            server
                .backlog
                .push_back(PortId(7), &KvsRequestRef::Get { id: 1, key: b"k" });
            server.track(
                4,
                Pending::Get {
                    port: PortId(7),
                    id: 2,
                },
            );
            let mut out = Vec::new();
            server.restart(&mut ctx, &mut monitor, &mut out);
            // Both the in-flight op and the backlogged request were answered
            // with an explicit Unavailable instead of being wedged.
            assert_eq!(out.len(), 2);
            for (_, bytes) in &out {
                let resp = KvsResponse::decode(bytes).unwrap();
                assert_eq!(resp.status, KvsStatus::Unavailable);
            }
            assert!(server.inflight.iter().all(Option::is_none));
            assert_eq!(server.queue_depth(), 0);
            assert!(server.backlog.is_empty());
            assert!(server.session.is_none());
            assert!(server.recovering);
            assert_eq!(server.state(), ServerState::FindingMemory);
            assert_eq!(server.stats().failures, 1);
            assert_eq!(server.stats().unavailable, 2);
        }

        #[test]
        fn requests_during_recovery_get_unavailable_not_busy() {
            let mut fix = Fix::new();
            let mut monitor = Monitor::new();
            let mut server = KvsServer::new(ServerConfig::default(), Pasid(1));
            let mut ctx = fix.ctx();
            server.start(&mut ctx, &mut monitor);
            // Before any failure: still booting => Busy.
            let mut out = Vec::new();
            server.on_request(
                &mut ctx,
                PortId(7),
                KvsRequestRef::Get { id: 5, key: b"k" },
                &mut out,
            );
            assert_eq!(
                KvsResponse::decode(&out[0].1).unwrap().status,
                KvsStatus::Busy
            );
            // After a failure-triggered restart: recovering => Unavailable.
            let mut sink = Vec::new();
            server.restart(&mut ctx, &mut monitor, &mut sink);
            let mut out = Vec::new();
            server.on_request(
                &mut ctx,
                PortId(7),
                KvsRequestRef::Get { id: 6, key: b"k" },
                &mut out,
            );
            assert_eq!(
                KvsResponse::decode(&out[0].1).unwrap().status,
                KvsStatus::Unavailable
            );
            // Reaching Ready clears the recovering flag.
            server.state = ServerState::Rebuilding;
            server.file_size = 0;
            let mut out2 = Vec::new();
            server.drain(&mut ctx, &mut out2); // no session: early return keeps flag
            assert!(server.recovering);
        }

        #[test]
        fn busy_responses_report_queue_depth() {
            let mut fix = Fix::new();
            let mut monitor = Monitor::new();
            let mut server = KvsServer::new(ServerConfig::default(), Pasid(1));
            let mut ctx = fix.ctx();
            server.start(&mut ctx, &mut monitor);
            // Fake a loaded Ready server: a full backlog plus in-flight work.
            server.state = ServerState::Ready;
            for i in 0..MAX_BACKLOG {
                let req = KvsRequestRef::Get {
                    id: i as u64,
                    key: b"k",
                };
                server.backlog.push_back(PortId(7), &req);
            }
            server.track(
                4,
                Pending::Get {
                    port: PortId(7),
                    id: 9000,
                },
            );
            let mut out = Vec::new();
            server.on_request(
                &mut ctx,
                PortId(7),
                KvsRequestRef::Get {
                    id: 9001,
                    key: b"k",
                },
                &mut out,
            );
            let resp = KvsResponse::decode(&out[0].1).unwrap();
            assert_eq!(resp.status, KvsStatus::Busy);
            assert_eq!(resp.busy_depth(), Some(MAX_BACKLOG as u32 + 1));
        }
    }
}
