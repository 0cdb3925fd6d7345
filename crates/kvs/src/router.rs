//! Rack-scale shard router: consistent hashing + R-way replication.
//!
//! A [`ShardRouterHost`] is the client-side entry point of the rack KVS. It
//! speaks the ordinary [`proto`](crate::proto) on its switch port, so an
//! unmodified [`KvsClientHost`](crate::client::KvsClientHost) drives it
//! exactly like a single server — but behind the port, the router:
//!
//! 1. **Discovers the rack.** It periodically queries the fabric's in-band
//!    directory ([`DirMsg::Query`] to the machine's directory port) and
//!    keeps a [`HashRing`] over every `smart-nic` KVS endpoint in the rack,
//!    local or remote (remote endpoints arrive pre-translated to fabric
//!    proxy ports, so routing to them is just `net_tx`).
//! 2. **Shards by key.** A GET goes to one of the key's replicas; a PUT
//!    fans out to the key's full R-way replica set (`ring.replicas(key, R)`)
//!    and is acknowledged to the client only when **every** current replica
//!    has acknowledged — the no-lost-acknowledged-writes invariant E10
//!    checks: once the client sees `Ok`, R machines hold the record, so any
//!    single machine crash leaves at least R−1 copies.
//! 3. **Fails over.** Sub-requests whose target vanishes from the directory
//!    (the fabric withdraws a crashed machine's endpoints on its next sweep —
//!    the heartbeat/recovery machinery at rack granularity) are re-dispatched
//!    against the *recomputed* replica set. The consistent-hash ring
//!    guarantees only the dead machine's keys move
//!    (`fabric.router.rebalance_moves` counts them). A sub is never timed
//!    out and re-sent: the replica that owns it answers, and the client's
//!    end-to-end timeout is the one retry for a request lost on the way. A
//!    request whose sub has gone unanswered for that timeout is given up,
//!    so a lost frame does not leak router state.
//! 4. **Tracks congestion.** Every sub carries a send timestamp; acks feed a
//!    per-endpoint RTT EWMA and outstanding-sub counts. Dispatch uses that
//!    state: power-of-two-choices replica selection for GETs, load-aware
//!    write fan-out order, and Busy backpressure driven by the queue depth
//!    servers report in their `Busy` responses.
//!
//! Determinism: all request bookkeeping lives in `BTreeMap`/`BTreeSet`
//! (iteration order is data-, not allocation-, dependent), sweeps walk
//! pendings in sequence order, and replica sets come from the ring, which
//! is membership-order independent. The congestion state is itself a pure
//! function of the event history (integer EWMA, no RNG, `BTreeMap`-ordered),
//! so a run replays bit-identically from the same seed.
//!
//! [`DirMsg::Query`]: lastcpu_fabric::DirMsg::Query

use lastcpu_sim::DetHashMap;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lastcpu_bus::wire::Wire;
use lastcpu_core::{HostCtx, NetHost};
use lastcpu_fabric::{DirMsg, HashRing};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::critpath::{
    op_key, STAGE_ROUTER_ACK, STAGE_ROUTER_RECV, STAGE_ROUTER_RESPOND, STAGE_ROUTER_SUB,
};
use lastcpu_sim::{costs, profile, MetricsHub, SimDuration, SimTime};

use crate::proto::{KvsRequestRef, KvsResponseRef, KvsStatus};

/// Timer token for the periodic tick (directory refresh + pending sweep).
const TOKEN_TICK: u64 = 1;

/// Answered request slots kept for reuse at most. A router serves a few
/// outstanding requests per client; what a burst leaves beyond this is handed
/// back to the allocator.
const SPARE_REQS: usize = 256;

/// Sub-request ids the router mints start here. Client-chosen ids are small
/// monotone counters, so the two id spaces can never collide and a frame
/// that decodes as both a request and a response (the wire layouts alias)
/// is disambiguated by its id range.
pub const SUB_ID_BASE: u64 = 1 << 62;

/// Directory `kind` of the endpoints the router shards over.
const SERVICE_KIND: &str = "smart-nic";

/// Re-dispatch budget per client request before giving up with
/// [`KvsStatus::Unavailable`].
const MAX_RETRIES: u32 = 24;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The local machine's fabric directory port ([`Fabric::directory_port`]).
    ///
    /// [`Fabric::directory_port`]: lastcpu_fabric::Fabric::directory_port
    pub dir_port: PortId,
    /// Replication factor R (clamped to ≥ 1; effective R is bounded by the
    /// number of live endpoints).
    pub replication: usize,
    /// Virtual nodes per endpoint on the hash ring.
    pub vnodes: u32,
    /// Host name (traces, stats).
    pub name: String,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            dir_port: PortId(0),
            replication: 1,
            vnodes: 64,
            name: "router".into(),
        }
    }
}

/// Operation class of a pending client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Get,
    Put,
}

/// One sub-request to one replica.
struct Sub {
    /// Endpoint name (`"m2/nic0"`), as the ring's handle.
    target: Arc<str>,
    /// Router-minted id (≥ [`SUB_ID_BASE`]).
    id: u64,
    /// When it was transmitted.
    sent_at: SimTime,
    /// `Some(status)` once answered; `None` while waiting.
    ack: Option<KvsStatus>,
}

/// A client request being served. The request is a slot: once answered it
/// waits on the router's spare list and the next request overwrites it, so
/// `key`, `value` and `subs` keep their buffers from request to request.
struct PendingReq {
    client: PortId,
    client_id: u64,
    key: Vec<u8>,
    op: Op,
    /// A PUT's value; empty for the other operations.
    value: Vec<u8>,
    subs: Vec<Sub>,
    /// Re-dispatch count (0 = initial dispatch only).
    attempts: u32,
    /// Marked by acks; the sweep re-dispatches marked requests.
    needs_redispatch: bool,
    /// Backpressure: a marked request is not re-dispatched before this
    /// instant (set by `Busy`/`Unavailable` acks; a membership change
    /// overrides it).
    defer_until: Option<SimTime>,
}

impl PendingReq {
    /// A slot that has not carried a request yet.
    fn empty() -> PendingReq {
        PendingReq {
            client: PortId(0),
            client_id: 0,
            key: Vec::new(),
            op: Op::Get,
            value: Vec::new(),
            subs: Vec::new(),
            attempts: 0,
            needs_redispatch: false,
            defer_until: None,
        }
    }

    /// Overwrites the slot with `req`, just arrived from `client` and not
    /// dispatched yet.
    fn fill(&mut self, client: PortId, req: KvsRequestRef<'_>) {
        let (op, value) = match req {
            KvsRequestRef::Get { .. } => (Op::Get, &[][..]),
            KvsRequestRef::Put { value, .. } => (Op::Put, value),
        };
        self.client = client;
        self.client_id = req.id();
        self.key.clear();
        self.key.extend_from_slice(req.key());
        self.op = op;
        self.value.clear();
        self.value.extend_from_slice(value);
        debug_assert!(self.subs.is_empty(), "cleared when it was answered");
        self.attempts = 0;
        self.needs_redispatch = true;
        self.defer_until = None;
    }
}

/// Per-endpoint congestion state, fed by ack timestamps.
#[derive(Debug, Default, Clone, Copy)]
struct EndpointLoad {
    /// Subs sent and not yet answered (cancellations decrement too).
    outstanding: u32,
    /// Integer EWMA of sub RTT in ns (`new = (7·old + sample) / 8`);
    /// 0 until the first sample.
    ewma_rtt_ns: u64,
    /// The endpoint reported `Busy`; avoid it until this instant.
    busy_until: SimTime,
}

lastcpu_sim::instruments! {
    /// The router's instruments: its own counts, each fed to the
    /// `fabric.router.*` key of its row once its machine adds it.
    struct RouterMetrics {
        /// Router counters, inspectable without the metrics hub.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct RouterStats {
            /// Client requests accepted.
            requests: counter "fabric.router.requests",
            /// Sub-requests routed to shard endpoints.
            hits: counter "fabric.router.hits",
            /// Re-dispatches (replica loss or transient rejection).
            failovers: counter "fabric.router.failovers",
            /// Requests abandoned after `MAX_RETRIES` re-dispatches, or
            /// with a sub unanswered for the client's timeout.
            give_ups: counter "fabric.router.give_ups",
            /// Acked keys whose primary moved across directory epochs.
            rebalance_moves: counter "fabric.router.rebalance_moves",
            /// Directory epochs observed.
            epoch: gauge "fabric.router.epoch",
            /// Directory replies received, including the no-change replies
            /// most ticks get (the router re-queries every tick).
            dir_replies: counter "fabric.router.dir_replies",
            /// Directory replies that actually installed a change.
            dir_installs: counter "fabric.router.dir_installs",
            /// Late replica responses to already-cancelled subs, dropped at
            /// triage.
            late_acks: counter "fabric.router.late_acks",
            /// Re-dispatches deferred by `Busy`/`Unavailable` backpressure.
            busy_deferrals: counter "fabric.router.busy_deferrals",
        }
        /// Shard endpoints in the last installed directory.
        endpoints: gauge "fabric.router.endpoints",
    }
}

/// The shard router host.
pub struct ShardRouterHost {
    config: RouterConfig,
    ring: HashRing,
    /// Endpoint name → port reachable from this machine.
    endpoints: BTreeMap<String, PortId>,
    /// Last directory epoch seen.
    epoch: u64,
    next_sub_id: u64,
    next_seq: u64,
    /// Pending client requests by arrival sequence.
    pending: BTreeMap<u64, PendingReq>,
    /// Sub-request id → pending sequence.
    sub_index: DetHashMap<u64, u64>,
    /// Per-endpoint congestion state (ordered, for deterministic iteration),
    /// keyed by the ring's name handles.
    load: BTreeMap<Arc<str>, EndpointLoad>,
    /// The replica list of the request being dispatched: one buffer, lent to
    /// [`HashRing::replicas_into`] per dispatch. Empty between calls; not
    /// state.
    reps: Vec<Arc<str>>,
    /// Keys whose PUT the router has acknowledged to a client. The E10
    /// crash scenario audits these against surviving machines' indices.
    acked_puts: BTreeSet<Vec<u8>>,
    /// Answered requests, kept (at most [`SPARE_REQS`]) for
    /// [`on_client`](Self::on_client) to overwrite. Host-side scratch: never
    /// snapshotted; `Restore` clears it.
    spare: Vec<PendingReq>,
    met: RouterMetrics,
}

impl ShardRouterHost {
    /// Creates a router; attach it to a fabric machine with
    /// [`System::add_host`](lastcpu_core::System::add_host).
    pub fn new(config: RouterConfig) -> Self {
        let vnodes = config.vnodes;
        // Salt the sub-id stream with the machine's directory port so sub
        // ids are unique *rack-wide*, not just per router — the E12
        // critical-path analyzer joins server-side stage marks on them
        // across a merged multi-machine trace. The salt lives in bits
        // 40..56, so ids stay ≥ SUB_ID_BASE and the id-range triage in
        // `on_frame` is unaffected.
        let salt = ((config.dir_port.0 as u64) & 0xFFFF) << 40;
        ShardRouterHost {
            config,
            ring: HashRing::new(vnodes),
            endpoints: BTreeMap::new(),
            epoch: 0,
            next_sub_id: SUB_ID_BASE | salt,
            next_seq: 0,
            pending: BTreeMap::new(),
            sub_index: DetHashMap::default(),
            load: BTreeMap::new(),
            reps: Vec::new(),
            acked_puts: BTreeSet::new(),
            spare: Vec::new(),
            met: RouterMetrics::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> RouterStats {
        self.met.stats()
    }

    /// Shard endpoints currently on the ring, sorted by name.
    pub fn endpoint_names(&self) -> Vec<&str> {
        self.ring.nodes().iter().map(|s| &**s).collect()
    }

    /// Keys whose PUT has been acknowledged to a client (sorted — the set
    /// is a `BTreeSet`, so iteration is deterministic).
    pub fn acked_put_keys(&self) -> &BTreeSet<Vec<u8>> {
        &self.acked_puts
    }

    /// Effective replication factor (configured R, at least 1).
    fn r(&self) -> usize {
        self.config.replication.max(1)
    }

    fn query_directory(&self, ctx: &mut HostCtx<'_>) {
        ctx.net_tx(
            self.config.dir_port,
            DirMsg::Query {
                epoch_hint: self.epoch,
            }
            .encode(),
        );
    }

    /// Installs a directory reply: rebuild the ring, count rebalance moves,
    /// and mark pendings whose in-flight targets vanished for immediate
    /// re-dispatch (machine-crash fail-over path).
    fn install_directory(
        &mut self,
        ctx: &mut HostCtx<'_>,
        epoch: u64,
        eps: Vec<lastcpu_fabric::DirEndpoint>,
    ) {
        self.met.dir_replies.incr();
        let mut fresh: BTreeMap<String, PortId> = BTreeMap::new();
        for ep in eps {
            if ep.kind == SERVICE_KIND {
                fresh.insert(ep.name, PortId(ep.port));
            }
        }
        if fresh == self.endpoints && epoch == self.epoch {
            return;
        }
        self.met.dir_installs.incr();
        self.epoch = epoch;
        self.met.epoch.set(epoch);
        self.met.endpoints.set(fresh.len() as u64);
        let membership_changed = fresh.keys().ne(self.endpoints.keys());
        if membership_changed {
            let ring = HashRing::with_members(self.config.vnodes, fresh.keys());
            // Rebalance accounting: how many acknowledged keys changed
            // primary? The consistent-hash property tests bound this by
            // ~K/N per single join/leave.
            let moves = self
                .acked_puts
                .iter()
                .filter(|k| {
                    let old = self.ring.primary(k);
                    let new = ring.primary(k);
                    old.is_some() && new.is_some() && old != new
                })
                .count() as u64;
            if moves > 0 {
                self.met.rebalance_moves.add(moves);
            }
            self.ring = ring;
        }
        self.endpoints = fresh;
        // Departed endpoints take their congestion state with them; a
        // re-joining endpoint starts cold (its in-flight subs were
        // cancelled below, so no outstanding count leaks).
        let endpoints = &self.endpoints;
        self.load.retain(|name, _| endpoints.contains_key(&**name));
        if membership_changed {
            // Fail over in-flight work addressed to departed endpoints: no
            // answer will come from them.
            let seqs: Vec<u64> = self
                .pending
                .iter()
                .filter(|(_, p)| {
                    p.subs
                        .iter()
                        .any(|s| s.ack.is_none() && !self.endpoints.contains_key(&*s.target))
                })
                .map(|(&seq, _)| seq)
                .collect();
            for seq in seqs {
                if let Some(p) = self.pending.get_mut(&seq) {
                    p.needs_redispatch = true;
                }
                self.redispatch(ctx, seq);
            }
        }
    }

    fn mint_sub(&mut self) -> u64 {
        let id = self.next_sub_id;
        self.next_sub_id += 1;
        id
    }

    /// Sends one sub-request to `target`; registers it under `seq`.
    fn issue_sub(&mut self, ctx: &mut HostCtx<'_>, seq: u64, target: Arc<str>) {
        let port = self.endpoints[&*target];
        let id = self.mint_sub();
        self.load
            .entry(Arc::clone(&target))
            .or_default()
            .outstanding += 1;
        let p = self.pending.get_mut(&seq).expect("pending exists");
        let key = &p.key[..];
        let frame = match p.op {
            Op::Get => KvsRequestRef::Get { id, key },
            Op::Put => KvsRequestRef::Put {
                id,
                key,
                value: &p.value,
            },
        }
        .encode();
        p.subs.push(Sub {
            target,
            id,
            sent_at: ctx.now,
            ack: None,
        });
        let opk = op_key(p.client.0, p.client_id);
        self.sub_index.insert(id, seq);
        self.met.hits.incr();
        ctx.stage(STAGE_ROUTER_SUB, id, opk);
        ctx.net_tx(port, frame);
    }

    /// Unregisters one sub: drops the id mapping and, if it was never
    /// answered, releases its outstanding-load slot.
    fn unregister_sub(
        sub_index: &mut DetHashMap<u64, u64>,
        load: &mut BTreeMap<Arc<str>, EndpointLoad>,
        sub: &Sub,
    ) {
        sub_index.remove(&sub.id);
        if sub.ack.is_none() {
            if let Some(l) = load.get_mut(&sub.target) {
                l.outstanding = l.outstanding.saturating_sub(1);
            }
        }
    }

    /// Completes `seq`: unregisters its outstanding subs, answers the client
    /// with `status` and `value` (borrowed — a GET hit goes from the replica's
    /// frame into the client's), and keeps the slot for the next request.
    fn complete(&mut self, ctx: &mut HostCtx<'_>, seq: u64, status: KvsStatus, value: &[u8]) {
        let mut p = self.pending.remove(&seq).expect("pending exists");
        for sub in &p.subs {
            Self::unregister_sub(&mut self.sub_index, &mut self.load, sub);
        }
        ctx.stage(
            STAGE_ROUTER_RESPOND,
            op_key(p.client.0, p.client_id),
            status as u64,
        );
        let resp = KvsResponseRef {
            id: p.client_id,
            status,
            value,
        };
        ctx.net_tx(p.client, resp.encode());
        if self.spare.len() < SPARE_REQS {
            // The targets are the ring's handles; let go of them now.
            p.subs.clear();
            self.spare.push(p);
        }
    }

    /// Folds one ack RTT sample into the target's congestion state.
    fn record_rtt(&mut self, target: &Arc<str>, rtt: SimDuration) {
        let l = self.load.entry(Arc::clone(target)).or_default();
        l.outstanding = l.outstanding.saturating_sub(1);
        let sample = rtt.as_nanos();
        l.ewma_rtt_ns = if l.ewma_rtt_ns == 0 {
            sample
        } else {
            (7 * l.ewma_rtt_ns + sample) / 8
        };
    }

    /// Load score for replica selection: busy endpoints last, then fewest
    /// outstanding subs, then lowest RTT estimate. Purely a function of
    /// recorded acks — no randomness, so selection replays exactly.
    fn load_score(&self, target: &str, now: SimTime) -> (bool, u32, u64) {
        let l = self.load.get(target).copied().unwrap_or_default();
        (l.busy_until > now, l.outstanding, l.ewma_rtt_ns)
    }

    /// Picks the GET target among `reps` for the given attempt: power of
    /// two choices over the first two candidates of the rotation that
    /// starts at `reps[attempts % len]`. Ties keep the rotation order
    /// (deterministic); an endpoint inside its backpressure window scores
    /// worst.
    ///
    /// A re-dispatch cancels an unacked sub only when its target left the
    /// directory, so no cancelled target is among `reps`.
    fn choose_get_target<'a>(
        &self,
        reps: &'a [Arc<str>],
        attempts: u32,
        now: SimTime,
    ) -> &'a Arc<str> {
        let n = reps.len();
        let start = attempts as usize % n;
        // With one replica the two candidates are the same endpoint.
        let (a, b) = (&reps[start], &reps[(start + 1) % n]);
        if self.load_score(b, now) < self.load_score(a, now) {
            b
        } else {
            a
        }
    }

    /// Orders a write's missing replicas for fan-out, load-aware:
    /// least-loaded replicas get their subs (and thus uplink slots) first;
    /// the name tie-break keeps the order deterministic.
    fn order_fan_out(&self, missing: &mut [Arc<str>], now: SimTime) {
        missing.sort_by(|a, b| {
            self.load_score(a, now)
                .cmp(&self.load_score(b, now))
                .then_with(|| a.cmp(b))
        });
    }

    /// (Re-)dispatches `seq` against the current replica set. Initial
    /// dispatch and fail-over share this path; only the latter counts as a
    /// fail-over and burns retry budget.
    fn redispatch(&mut self, ctx: &mut HostCtx<'_>, seq: u64) {
        self.with_reps(|this, reps| this.redispatch_with(ctx, seq, reps));
    }

    /// Lends `f` the replica-list buffer.
    fn with_reps(&mut self, f: impl FnOnce(&mut Self, &mut Vec<Arc<str>>)) {
        let mut reps = std::mem::take(&mut self.reps);
        f(self, &mut reps);
        reps.clear();
        self.reps = reps;
    }

    fn redispatch_with(&mut self, ctx: &mut HostCtx<'_>, seq: u64, reps: &mut Vec<Arc<str>>) {
        let r = self.r();
        // Phase 1: budget bookkeeping and the current replica set (short
        // borrow of the pending entry).
        let (initial, over_budget) = {
            let Some(p) = self.pending.get_mut(&seq) else {
                return;
            };
            if !p.needs_redispatch {
                return;
            }
            p.needs_redispatch = false;
            p.defer_until = None;
            let initial = p.subs.is_empty();
            if !initial {
                p.attempts += 1;
            }
            self.ring.replicas_into(&p.key, r, reps);
            (initial, p.attempts > MAX_RETRIES)
        };
        if !initial {
            self.met.failovers.incr();
        }
        if over_budget {
            self.give_up(ctx, seq);
            return;
        }
        if reps.is_empty() {
            // No endpoints at all (rack-wide outage); keep the request
            // parked. The next sweep retries and the budget bounds it.
            self.pending
                .get_mut(&seq)
                .expect("pending")
                .needs_redispatch = true;
            return;
        }
        // Phase 2: cancel stale subs (GET: everything unacked; writes:
        // everything but successful acks from targets still in the replica
        // set). In place, so what is kept stays in the slot's own buffer.
        let p = self.pending.get_mut(&seq).expect("pending exists");
        let (is_get, attempts) = (p.op == Op::Get, p.attempts);
        let (sub_index, load) = (&mut self.sub_index, &mut self.load);
        p.subs.retain(|s| {
            let keep = if is_get {
                s.ack.is_some()
            } else {
                matches!(s.ack, Some(KvsStatus::Ok) | Some(KvsStatus::NotFound))
                    && reps.contains(&s.target)
            };
            if !keep {
                Self::unregister_sub(sub_index, load, s);
            }
            keep
        });
        // Phase 3: pick targets and issue.
        if is_get {
            let target = Arc::clone(self.choose_get_target(reps, attempts, ctx.now));
            self.issue_sub(ctx, seq, target);
        } else {
            let p = &self.pending[&seq];
            reps.retain(|rep| !p.subs.iter().any(|s| s.target == *rep));
            self.order_fan_out(reps, ctx.now);
            for target in reps.drain(..) {
                self.issue_sub(ctx, seq, target);
            }
            self.check_write_done(ctx, seq, reps);
        }
    }

    /// Completes a PUT if every current replica has acknowledged.
    /// `reps` is the lent replica-list buffer (refilled here).
    fn check_write_done(&mut self, ctx: &mut HostCtx<'_>, seq: u64, reps: &mut Vec<Arc<str>>) {
        let Some(p) = self.pending.get(&seq) else {
            return;
        };
        self.ring.replicas_into(&p.key, self.r(), reps);
        if reps.is_empty() {
            return;
        }
        let covered = reps.iter().all(|r| {
            p.subs.iter().any(|s| {
                s.target == *r && matches!(s.ack, Some(KvsStatus::Ok | KvsStatus::NotFound))
            })
        });
        if !covered {
            return;
        }
        debug_assert!(p.op == Op::Put, "check_write_done is write-only");
        // An overwrite's key is already here; the slot keeps its own.
        if !self.acked_puts.contains(&p.key) {
            self.acked_puts.insert(p.key.clone());
        }
        self.complete(ctx, seq, KvsStatus::Ok, &[]);
    }

    /// A replica answered sub-request `resp.id`; `resp` borrows its frame.
    fn on_ack(&mut self, ctx: &mut HostCtx<'_>, resp: KvsResponseRef<'_>) {
        let Some(seq) = self.sub_index.remove(&resp.id) else {
            return; // late answer to a cancelled sub
        };
        let (is_get, target, rtt, first_ack) = {
            let Some(p) = self.pending.get_mut(&seq) else {
                return;
            };
            let Some(sub) = p.subs.iter_mut().find(|s| s.id == resp.id) else {
                return;
            };
            let first_ack = sub.ack.is_none();
            sub.ack = Some(resp.status);
            ctx.stage(STAGE_ROUTER_ACK, resp.id, op_key(p.client.0, p.client_id));
            (
                p.op == Op::Get,
                sub.target.clone(),
                ctx.now.since(sub.sent_at),
                first_ack,
            )
        };
        if first_ack {
            self.record_rtt(&target, rtt);
        }
        match resp.status {
            KvsStatus::Ok | KvsStatus::NotFound if is_get => {
                self.complete(ctx, seq, resp.status, resp.value);
            }
            KvsStatus::Error => {
                // Terminal server-side failure; propagate.
                self.complete(ctx, seq, KvsStatus::Error, &[]);
            }
            KvsStatus::Busy | KvsStatus::Unavailable => {
                // Transient (overload / mid-recovery), so the response is
                // backpressure: mark the endpoint busy for a window scaled
                // by the queue depth it reported and defer the re-dispatch
                // until the window passes, instead of hammering it tickwise.
                let depth = if resp.status == KvsStatus::Busy {
                    resp.busy_depth().unwrap_or(0)
                } else {
                    0
                };
                let scale = 1 + (u64::from(depth) / 64).min(7);
                let until = ctx.now + costs::ROUTER_BUSY_BACKOFF.saturating_mul(scale);
                let l = self.load.entry(Arc::clone(&target)).or_default();
                if until > l.busy_until {
                    l.busy_until = until;
                }
                self.met.busy_deferrals.incr();
                if let Some(p) = self.pending.get_mut(&seq) {
                    p.needs_redispatch = true;
                    p.defer_until = Some(p.defer_until.map_or(until, |d| d.max(until)));
                }
            }
            _ => self.with_reps(|this, reps| this.check_write_done(ctx, seq, reps)),
        }
    }

    /// A client request arrived; `req` borrows its frame.
    fn on_client(&mut self, ctx: &mut HostCtx<'_>, src: PortId, req: KvsRequestRef<'_>) {
        self.met.requests.incr();
        if self.ring.is_empty() {
            // Rack not discovered yet: tell the client to back off, same as
            // a booting single server would.
            let busy = KvsResponseRef {
                id: req.id(),
                status: KvsStatus::Busy,
                value: &[],
            };
            ctx.net_tx(src, busy.encode());
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        ctx.stage(STAGE_ROUTER_RECV, op_key(src.0, req.id()), seq);
        let mut p = self.spare.pop().unwrap_or_else(PendingReq::empty);
        p.fill(src, req);
        self.pending.insert(seq, p);
        self.redispatch(ctx, seq);
    }

    /// Gives `seq` up: answers the client `Unavailable` and counts it.
    fn give_up(&mut self, ctx: &mut HostCtx<'_>, seq: u64) {
        self.met.give_ups.incr();
        self.complete(ctx, seq, KvsStatus::Unavailable, &[]);
    }

    /// Periodic sweep: re-query the directory, re-dispatch transiently
    /// rejected requests once their deferral passes, and give up a request
    /// whose sub has gone unanswered for the client's timeout: no answer is
    /// coming, and retrying is the client's.
    fn sweep(&mut self, ctx: &mut HostCtx<'_>) {
        self.query_directory(ctx);
        let now = ctx.now;
        let due: Vec<(u64, bool)> =
            self.pending
                .iter()
                .filter_map(|(&seq, p)| {
                    let lost = p.subs.iter().any(|s| {
                        s.ack.is_none() && now.since(s.sent_at) >= costs::KVS_CLIENT_TIMEOUT
                    });
                    let ready = p.needs_redispatch && !p.defer_until.is_some_and(|d| now < d);
                    (lost || ready).then_some((seq, lost))
                })
                .collect();
        for (seq, lost) in due {
            if lost {
                self.give_up(ctx, seq);
            } else {
                self.redispatch(ctx, seq);
            }
        }
    }
}

impl NetHost for ShardRouterHost {
    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Snapshot::snapshot(self, w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Restore::restore(self, r)
    }

    fn name(&self) -> &str {
        &self.config.name
    }

    fn attach(&mut self, stats: &MetricsHub) {
        self.met.register(stats);
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.query_directory(ctx);
        ctx.set_timer(costs::ROUTER_TICK, TOKEN_TICK);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        let _prof = profile::span("kvs.router.dispatch");
        // 1. Directory replies (magic-tagged, and only ever from the
        //    directory port).
        if frame.src == self.config.dir_port && DirMsg::sniff(&frame.payload) {
            let _prof = profile::span("kvs.router.dir_reply");
            match DirMsg::decode(&frame.payload) {
                Ok(DirMsg::Reply { epoch, endpoints }) => {
                    self.install_directory(ctx, epoch, endpoints)
                }
                Ok(DirMsg::Unchanged) => self.met.dir_replies.incr(),
                _ => {}
            }
            return;
        }
        // 2. Replica acks: the request/response wire layouts alias, so a
        //    response is recognized by its id being in the router-minted
        //    range. Anything in that range whose sub is gone is a *late*
        //    answer to a cancelled sub and must be dropped here: letting it
        //    fall through to the request parse would mint a ghost pending
        //    request addressed back at a replica port (a NotFound response
        //    re-parses as a valid Get request).
        if let Some(resp) = KvsResponseRef::decode(&frame.payload) {
            if resp.id >= SUB_ID_BASE {
                if self.sub_index.contains_key(&resp.id) {
                    self.on_ack(ctx, resp);
                } else {
                    self.met.late_acks.incr();
                }
                return;
            }
        }
        // 3. Client requests.
        if let Some(req) = KvsRequestRef::decode(&frame.payload) {
            self.on_client(ctx, frame.src, req);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token != TOKEN_TICK {
            return;
        }
        self.sweep(ctx);
        ctx.set_timer(costs::ROUTER_TICK, TOKEN_TICK);
    }
}

lastcpu_snap::record!(Sub {
    target,
    id,
    sent_at,
    ack
});
lastcpu_snap::record!(EndpointLoad {
    outstanding,
    ewma_rtt_ns,
    busy_until
});

lastcpu_snap::fields! { PendingReq |self| (PendingReq::empty()) {
    client, client_id, key, ..OpValue, subs, attempts, needs_redispatch, defer_until,
} }

/// The operation as a tag byte; a PUT's value follows its tag.
struct OpValue;

impl lastcpu_snap::Span<PendingReq> for OpValue {
    fn put(&self, p: &PendingReq, w: &mut lastcpu_snap::SnapWriter) {
        match p.op {
            Op::Get => w.put_u8(0),
            Op::Put => {
                w.put_u8(1);
                w.put_bytes(&p.value);
            }
        }
    }

    fn take(
        &self,
        p: &mut PendingReq,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<()> {
        (p.op, p.value) = match r.u8()? {
            0 => (Op::Get, Vec::new()),
            1 => (Op::Put, r.bytes()?),
            t => return Err(r.bad_tag("Op", t)),
        };
        Ok(())
    }
}

// `sub_index` is derivable from `pending`, but serialized so a restore
// needs no rebuild pass and verification covers it. `met` is its
// `RouterStats` (the hub snapshots its own key space). Excluded: `spare`
// (answered slots: buffers, no request).
lastcpu_snap::fields! { ShardRouterHost |self| {
    config.dir_port, config.replication, config.vnodes, config.name, mut ring, endpoints, epoch, next_sub_id, next_seq, pending,
    sub_index, load, acked_puts, mut met,
} restored {
    self.spare.clear();
} }

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_core::HostAction;
    use lastcpu_fabric::DirEndpoint;
    use lastcpu_sim::{CorrId, DetRng, MetricsHub};

    #[test]
    fn sub_id_base_clears_client_id_space() {
        // Client ids count up from 1; the router mints from 1 << 62. A
        // century of simulated requests cannot bridge the gap.
        const { assert!(SUB_ID_BASE > u64::MAX / 4) }
    }

    #[test]
    fn fresh_router_is_not_ready() {
        let r = ShardRouterHost::new(RouterConfig::default());
        assert!(r.ring.is_empty());
        assert!(r.endpoint_names().is_empty());
        assert_eq!(r.stats().requests, 0);
        assert!(r.acked_put_keys().is_empty());
    }

    // --- direct-drive harness -------------------------------------------

    const DIR_PORT: PortId = PortId(900);
    const ROUTER_PORT: PortId = PortId(1);
    const CLIENT_PORT: PortId = PortId(5);

    struct Harness {
        router: ShardRouterHost,
        hub: MetricsHub,
        pool: lastcpu_sim::BufPool,
        rng: DetRng,
        now: SimTime,
        epoch: u64,
    }

    impl Harness {
        fn new(config: RouterConfig) -> Harness {
            let mut h = Harness {
                router: ShardRouterHost::new(RouterConfig {
                    dir_port: DIR_PORT,
                    ..config
                }),
                hub: MetricsHub::new(),
                pool: lastcpu_sim::BufPool::new(),
                rng: DetRng::new(7),
                now: SimTime::ZERO,
                epoch: 0,
            };
            h.router.attach(&h.hub);
            let mut ctx = HostCtx::new(
                h.now,
                ROUTER_PORT,
                &h.hub,
                &mut h.rng,
                CorrId::NONE,
                &h.pool,
            );
            h.router.on_start(&mut ctx);
            ctx.finish();
            h
        }

        fn frame(&mut self, src: PortId, payload: Vec<u8>) -> Vec<HostAction> {
            let frame = Frame::unicast(src, ROUTER_PORT, payload);
            let mut ctx = HostCtx::new(
                self.now,
                ROUTER_PORT,
                &self.hub,
                &mut self.rng,
                CorrId::NONE,
                &self.pool,
            );
            self.router.on_frame(&mut ctx, frame);
            ctx.finish()
        }

        /// Advances time and fires the periodic sweep.
        fn tick_after(&mut self, dt: SimDuration) -> Vec<HostAction> {
            self.now += dt;
            let mut ctx = HostCtx::new(
                self.now,
                ROUTER_PORT,
                &self.hub,
                &mut self.rng,
                CorrId::NONE,
                &self.pool,
            );
            self.router.on_timer(&mut ctx, TOKEN_TICK);
            ctx.finish()
        }

        /// Feeds a directory reply listing `eps` as smart-nic endpoints.
        fn install(&mut self, eps: &[(&str, u32)]) {
            self.epoch += 1;
            self.frame(DIR_PORT, reply_bytes(self.epoch, eps));
        }
    }

    /// KVS sub-requests (not directory queries) transmitted in `actions`,
    /// as `(dst, request)` pairs.
    fn subs_sent(actions: &[HostAction]) -> Vec<(PortId, KvsRequestRef<'_>)> {
        actions
            .iter()
            .filter_map(|a| match a {
                HostAction::NetTx(f) => KvsRequestRef::decode(&f.payload).map(|r| (f.dst, r)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn late_response_is_dropped_not_reparsed() {
        let mut h = Harness::new(RouterConfig::default());
        h.install(&[("m0/nic0", 10)]);
        // A GET in flight, so the router is live and has one real pending.
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequestRef::Get { id: 1, key: b"k" }.encode(),
        );
        assert_eq!(subs_sent(&acts).len(), 1);
        assert_eq!(h.router.stats().requests, 1);

        // A late NotFound response to a sub the router no longer tracks.
        // Its wire bytes alias a *valid* Get request — the ghost-request
        // hazard this test pins down.
        let late = KvsResponseRef {
            id: SUB_ID_BASE | 0xDEAD,
            status: KvsStatus::NotFound,
            value: b"ghost-key",
        };
        let payload = late.encode();
        assert!(
            KvsRequestRef::decode(&payload).is_some(),
            "test premise: the late response must alias a request"
        );
        let acts = h.frame(PortId(10), payload);
        assert!(acts.is_empty(), "late ack must be dropped, got {acts:?}");
        assert_eq!(
            h.router.stats().requests,
            1,
            "no ghost pending request minted"
        );
        assert_eq!(h.router.stats().late_acks, 1);
        assert_eq!(h.hub.counter("fabric.router.late_acks"), 1);
    }

    /// A Busy response reporting `depth`.
    fn busy(id: u64, depth: u32) -> Vec<u8> {
        KvsResponseRef {
            id,
            status: KvsStatus::Busy,
            value: &depth.to_le_bytes(),
        }
        .encode()
    }

    /// Frames (not directory queries) transmitted in `actions`, as
    /// `(dst, payload)` pairs.
    fn frames_sent(actions: &[HostAction]) -> Vec<(PortId, Vec<u8>)> {
        actions
            .iter()
            .filter_map(|a| match a {
                HostAction::NetTx(f) if !DirMsg::sniff(&f.payload) => {
                    Some((f.dst, f.payload.to_vec()))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn triage_of_the_borrowed_frame_is_the_owned_triage() {
        let mut h = Harness::new(RouterConfig::default());
        h.install(&[("m0/nic0", 10)]);

        // A client GET is, byte for byte, a NotFound response whose value is
        // the key. Its id is the client's, below the router-minted range, so
        // it is a request.
        let get = KvsRequestRef::Get {
            id: 9,
            key: b"alias",
        }
        .encode();
        assert_eq!(
            KvsResponseRef::decode(&get),
            Some(KvsResponseRef {
                id: 9,
                status: KvsStatus::NotFound,
                value: b"alias",
            }),
            "test premise: the layouts alias"
        );
        let acts = h.frame(CLIENT_PORT, get);
        let sent = subs_sent(&acts);
        let [(port, KvsRequestRef::Get { id: sub_id, key })] = &sent[..] else {
            panic!("one GET sub expected, got {sent:?}");
        };
        assert_eq!((*port, &key[..]), (PortId(10), &b"alias"[..]));
        assert!(*sub_id >= SUB_ID_BASE);
        assert_eq!(h.router.stats().requests, 1);
        assert_eq!(h.router.stats().late_acks, 0);

        // A Busy ack answers nobody; it marks the request for the sweep.
        let acts = h.frame(PortId(10), busy(*sub_id, 3));
        assert!(frames_sent(&acts).is_empty(), "{acts:?}");
        assert_eq!(h.router.stats().busy_deferrals, 1);
        assert!(h.router.pending.values().all(|p| p.needs_redispatch));
        // The same ack again is late: its sub left the index with the first.
        h.frame(PortId(10), busy(*sub_id, 3));
        assert_eq!(h.router.stats().late_acks, 1);
        assert_eq!(h.router.stats().requests, 1, "no ghost request");

        // The retry's hit goes to the client as the bytes an owned response
        // encodes to.
        let acts = h.tick_after(costs::ROUTER_BUSY_BACKOFF);
        let retry = subs_sent(&acts)[0].1.id();
        let hit = KvsResponseRef {
            id: retry,
            status: KvsStatus::Ok,
            value: &[0xC3; 300],
        };
        let acts = h.frame(PortId(10), hit.encode());
        assert_eq!(
            frames_sent(&acts),
            [(
                CLIENT_PORT,
                KvsResponseRef {
                    id: 9,
                    status: KvsStatus::Ok,
                    value: &[0xC3; 300],
                }
                .encode()
            )]
        );
        assert!(h.router.pending.is_empty() && h.router.sub_index.is_empty());
    }

    #[test]
    fn an_answered_request_is_the_next_ones_slot() {
        use lastcpu_snap::{Restore, Snapshot};
        let mut h = Harness::new(RouterConfig::default());
        h.install(&[("m0/nic0", 10)]);
        let put = |id: u64, value: &[u8]| {
            KvsRequestRef::Put {
                id,
                key: b"slot-key",
                value,
            }
            .encode()
        };
        let ok = |id: u64| {
            KvsResponseRef {
                id,
                status: KvsStatus::Ok,
                value: &[],
            }
            .encode()
        };
        let acts = h.frame(CLIENT_PORT, put(1, &[7; 64]));
        let sub = subs_sent(&acts)[0].1.id();
        h.frame(PortId(10), ok(sub));
        let [slot] = &h.router.spare[..] else {
            panic!("the answered request waits on the spare list");
        };
        assert!(slot.subs.is_empty(), "ring handles let go");
        let buffers = (slot.key.as_ptr(), slot.value.as_ptr(), slot.subs.as_ptr());

        // A smaller overwrite of the same key: same buffers, nothing of the
        // first request showing through, and the acked key is not copied again.
        let acts = h.frame(CLIENT_PORT, put(2, &[8; 16]));
        assert!(h.router.spare.is_empty());
        let (_, p) = h.router.pending.iter().next().expect("pending");
        assert_eq!((p.key.as_ptr(), p.value.as_ptr(), p.subs.as_ptr()), buffers);
        assert_eq!(
            (&p.key[..], &p.value[..]),
            (&b"slot-key"[..], &[8u8; 16][..])
        );
        assert_eq!((p.client_id, p.attempts, p.subs.len()), (2, 0, 1));
        let sent = subs_sent(&acts);
        assert_eq!(
            sent[0].1,
            KvsRequestRef::Put {
                id: sent[0].1.id(),
                key: b"slot-key",
                value: &[8; 16],
            }
        );
        h.frame(PortId(10), ok(sent[0].1.id()));
        assert_eq!(h.router.acked_put_keys().len(), 1);

        // A GET through a slot that last held a PUT carries no value, in
        // the frame or in a checkpoint taken while it waits.
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequestRef::Get { id: 3, key: b"k" }.encode(),
        );
        assert_eq!(
            subs_sent(&acts)[0].1,
            KvsRequestRef::Get {
                id: subs_sent(&acts)[0].1.id(),
                key: b"k",
            }
        );
        let p = h.router.pending.values().next().expect("pending");
        assert_eq!((p.op, p.value.len()), (Op::Get, 0));

        // The spare list is not state: it is in no snapshot and a restore
        // empties it.
        h.frame(PortId(10), ok(subs_sent(&acts)[0].1.id()));
        assert_eq!(h.router.spare.len(), 1);
        let bytes = h.router.snapshot_bytes();
        let mut fresh = ShardRouterHost::new(RouterConfig::default());
        fresh.restore_bytes("router", &bytes).expect("restores");
        assert_eq!(fresh.snapshot_bytes(), bytes);
        h.router.restore_bytes("router", &bytes).expect("restores");
        assert!(h.router.spare.is_empty());
    }

    fn reply_bytes(epoch: u64, eps: &[(&str, u32)]) -> Vec<u8> {
        DirMsg::Reply {
            epoch,
            endpoints: eps
                .iter()
                .map(|&(name, port)| DirEndpoint {
                    name: name.into(),
                    kind: "smart-nic".into(),
                    machine: 0,
                    port,
                })
                .collect(),
        }
        .encode()
    }

    #[test]
    fn dir_replies_and_installs_count_differently() {
        let mut h = Harness::new(RouterConfig::default());
        h.install(&[("m0/nic0", 10)]);
        assert_eq!(h.router.stats().dir_replies, 1);
        assert_eq!(h.router.stats().dir_installs, 1);
        // The same reply again: a reply, not an install.
        h.frame(DIR_PORT, reply_bytes(h.epoch, &[("m0/nic0", 10)]));
        assert_eq!(h.router.stats().dir_replies, 2);
        assert_eq!(h.router.stats().dir_installs, 1, "no-change reply counted");
        // Epoch bump with identical membership still installs (epoch moves).
        h.install(&[("m0/nic0", 10)]);
        assert_eq!(h.router.stats().dir_replies, 3);
        assert_eq!(h.router.stats().dir_installs, 2);
        // Same epoch, different port: it installs.
        h.frame(DIR_PORT, reply_bytes(h.epoch, &[("m0/nic0", 11)]));
        assert_eq!(h.router.stats().dir_replies, 4);
        assert_eq!(h.router.stats().dir_installs, 3);
        assert_eq!(h.router.endpoints["m0/nic0"], PortId(11));
        assert_eq!(h.hub.counter("fabric.router.dir_replies"), 4);
        assert_eq!(h.hub.counter("fabric.router.dir_installs"), 3);
    }

    #[test]
    fn unchanged_counts_one_reply_and_installs_nothing() {
        let mut h = Harness::new(RouterConfig::default());
        // Malformed (trailing byte) and non-reply frames from the directory
        // port pass the sniff but count nothing.
        let mut torn = reply_bytes(1, &[("m0/nic0", 10)]);
        torn.push(0);
        h.frame(DIR_PORT, torn);
        h.frame(DIR_PORT, DirMsg::Query { epoch_hint: 0 }.encode());
        assert_eq!(h.router.stats().dir_replies, 0);

        h.install(&[("m0/nic0", 10), ("m1/nic0", 11)]);
        let stats = h.router.stats();
        let (epoch, endpoints) = (h.router.epoch, h.router.endpoints.clone());
        let nodes: Vec<String> = h
            .router
            .endpoint_names()
            .iter()
            .map(|n| n.to_string())
            .collect();
        h.frame(DIR_PORT, DirMsg::Unchanged.encode());
        assert_eq!(h.router.stats().dir_replies, stats.dir_replies + 1);
        assert_eq!(h.router.stats().dir_installs, stats.dir_installs);
        assert_eq!(h.router.epoch, epoch);
        assert_eq!(h.router.endpoints, endpoints);
        assert_eq!(h.router.endpoint_names(), nodes);
        // Only the reply count moved, and the next query still names the
        // epoch the router holds.
        let mut counted = h.router.stats();
        counted.dir_replies -= 1;
        assert_eq!(format!("{counted:?}"), format!("{stats:?}"));
        let acts = h.tick_after(costs::ROUTER_TICK);
        let queries: Vec<DirMsg> = acts
            .iter()
            .filter_map(|a| match a {
                HostAction::NetTx(f) if f.dst == DIR_PORT => DirMsg::decode(&f.payload).ok(),
                _ => None,
            })
            .collect();
        assert_eq!(queries, [DirMsg::Query { epoch_hint: epoch }]);
    }

    #[test]
    fn an_unanswered_sub_is_never_resent_and_is_given_up_at_the_client_timeout() {
        let cfg = RouterConfig {
            replication: 2,
            ..RouterConfig::default()
        };
        let mut h = Harness::new(cfg);
        h.install(&[("m0/nic0", 10), ("m1/nic0", 11)]);
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequestRef::Get { id: 1, key: b"k" }.encode(),
        );
        assert_eq!(subs_sent(&acts).len(), 1);
        // No answer comes. Tick by tick up to the client's timeout, nothing
        // is sent but the directory query: the replica owns its answer.
        let ticks = costs::KVS_CLIENT_TIMEOUT.as_nanos() / costs::ROUTER_TICK.as_nanos();
        for _ in 1..ticks {
            let acts = h.tick_after(costs::ROUTER_TICK);
            assert!(frames_sent(&acts).is_empty(), "{acts:?}");
        }
        assert_eq!(h.router.pending.len(), 1);
        // At the client's timeout the request is answered `Unavailable`.
        let acts = h.tick_after(costs::ROUTER_TICK);
        assert_eq!(
            frames_sent(&acts),
            [(
                CLIENT_PORT,
                KvsResponseRef {
                    id: 1,
                    status: KvsStatus::Unavailable,
                    value: &[],
                }
                .encode()
            )]
        );
        assert!(h.router.pending.is_empty() && h.router.sub_index.is_empty());
        assert!(h.router.load.values().all(|l| l.outstanding == 0));
        let st = h.router.stats();
        assert_eq!((st.failovers, st.give_ups), (0, 1));
    }

    #[test]
    fn busy_ack_defers_redispatch() {
        let (tick, backoff) = (costs::ROUTER_TICK, costs::ROUTER_BUSY_BACKOFF);
        const { assert!(costs::ROUTER_BUSY_BACKOFF.as_nanos() > costs::ROUTER_TICK.as_nanos()) }
        let mut h = Harness::new(RouterConfig::default());
        h.install(&[("m0/nic0", 10)]);
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequestRef::Put {
                id: 1,
                key: b"k",
                value: b"v",
            }
            .encode(),
        );
        let sent = subs_sent(&acts);
        assert_eq!(sent.len(), 1);
        let sub_id = sent[0].1.id();

        // The server reports Busy with a shallow queue.
        h.frame(PortId(10), busy(sub_id, 3));
        assert_eq!(h.router.stats().busy_deferrals, 1);

        // Next tick falls inside the backpressure window: no reissue.
        let acts = h.tick_after(tick);
        assert!(
            subs_sent(&acts).is_empty(),
            "redispatch deferred while the endpoint is busy"
        );
        assert_eq!(h.router.stats().failovers, 0);

        // Once the window passes, the sweep reissues exactly once.
        let acts = h.tick_after(backoff);
        assert_eq!(subs_sent(&acts).len(), 1);
        assert_eq!(h.router.stats().failovers, 1);
        assert_eq!(h.router.stats().give_ups, 0);
    }

    #[test]
    fn busy_storm_stays_bounded_without_give_ups() {
        // A server under depth pressure answers Busy to every sub. The
        // router must keep retrying at the backpressure cadence — bounded
        // fail-overs, no give-ups — instead of burning the whole retry
        // budget tick by tick.
        let mut h = Harness::new(RouterConfig::default());
        h.install(&[("m0/nic0", 10)]);
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequestRef::Put {
                id: 1,
                key: b"k",
                value: b"v",
            }
            .encode(),
        );
        let mut last_sub = subs_sent(&acts)[0].1.id();

        let storm_rounds = 10;
        for _ in 0..storm_rounds {
            // Deep queue: depth 512 stretches the deferral window.
            h.frame(PortId(10), busy(last_sub, 512));
            // Sweep every tick until the deferral expires and a reissue
            // appears; the window is depth-scaled, so allow several ticks.
            let mut reissued = None;
            for _ in 0..64 {
                let acts = h.tick_after(costs::ROUTER_TICK);
                let sent = subs_sent(&acts);
                if !sent.is_empty() {
                    reissued = Some(sent[0].1.id());
                    break;
                }
            }
            last_sub = reissued.expect("storm retry reissued within the window");
        }
        // Finally the server drains and accepts.
        h.frame(
            PortId(10),
            KvsResponseRef {
                id: last_sub,
                status: KvsStatus::Ok,
                value: &[],
            }
            .encode(),
        );
        let st = h.router.stats();
        assert_eq!(st.give_ups, 0, "backpressure must not exhaust the budget");
        assert_eq!(st.failovers, storm_rounds, "one fail-over per storm round");
        assert_eq!(st.busy_deferrals, storm_rounds);
        assert!(h.router.acked_put_keys().contains(&b"k".to_vec()));
    }

    /// Replica selection as it was written before names became handles
    /// and the lists one lent buffer: `Vec<String>` in, fresh `Vec`s and a
    /// `BTreeSet` per call. Kept as the reference the proptest below holds
    /// the allocation-free code to.
    mod oracle {
        use super::super::*;

        pub type Load = BTreeMap<String, EndpointLoad>;

        fn load_score(load: &Load, target: &str, now: SimTime) -> (bool, u32, u64) {
            let l = load.get(target).copied().unwrap_or_default();
            (l.busy_until > now, l.outstanding, l.ewma_rtt_ns)
        }

        pub fn choose_get_target(
            load: &Load,
            reps: &[String],
            attempts: u32,
            now: SimTime,
        ) -> String {
            let n = reps.len();
            let start = attempts as usize % n;
            let cands: Vec<&String> = (0..n).map(|i| &reps[(start + i) % n]).collect();
            if cands.len() >= 2 {
                let (a, b) = (cands[0], cands[1]);
                if load_score(load, b, now) < load_score(load, a, now) {
                    return b.clone();
                }
            }
            cands[0].clone()
        }

        /// The PUT fan-out: replicas without a sub yet, in issue order.
        pub fn fan_out(
            load: &Load,
            reps: &[String],
            have_sub: &BTreeSet<String>,
            now: SimTime,
        ) -> Vec<String> {
            let mut missing: Vec<String> = reps
                .iter()
                .filter(|rep| !have_sub.contains(*rep))
                .cloned()
                .collect();
            missing.sort_by(|a, b| {
                load_score(load, a, now)
                    .cmp(&load_score(load, b, now))
                    .then_with(|| a.cmp(b))
            });
            missing
        }
    }

    mod selection_props {
        use super::super::*;
        use super::oracle;
        use proptest::prelude::*;

        /// Endpoint `i` of a six-machine pool. Scores collide on purpose
        /// (small ranges), so tie-breaks are exercised.
        fn name(i: u8) -> String {
            format!("m{i}/nic0")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// Over random replica lists, attempts, sub sets and load
            /// tables: the GET target and the PUT fan-out order are the
            /// oracle's.
            #[test]
            fn selection_matches_the_oracle(
                order in proptest::collection::vec(0u8..6, 1..7),
                attempts in 0u32..9,
                sub_mask in 0u8..64,
                table in proptest::collection::vec((0u8..6, 0u32..3, 0u64..3, 0u64..3), 0..7),
            ) {
                // A replica list has distinct members, in ring (any) order.
                let mut ids = order;
                let mut seen = 0u8;
                ids.retain(|i| {
                    let first = seen & (1 << i) == 0;
                    seen |= 1 << i;
                    first
                });
                let now = SimTime::from_nanos(1);
                let have_sub: BTreeSet<String> =
                    (0..6).filter(|i| sub_mask & (1 << i) != 0).map(name).collect();
                let mut router = ShardRouterHost::new(RouterConfig::default());
                let mut load = oracle::Load::new();
                for (i, outstanding, ewma_rtt_ns, busy_until) in table {
                    let l = EndpointLoad {
                        outstanding,
                        ewma_rtt_ns,
                        busy_until: SimTime::from_nanos(busy_until),
                    };
                    load.insert(name(i), l);
                    router.load.insert(name(i).into(), l);
                }
                let reps: Vec<String> = ids.iter().copied().map(name).collect();
                let mut handles: Vec<Arc<str>> = reps.iter().map(|n| n.as_str().into()).collect();

                let got = router.choose_get_target(&handles, attempts, now);
                prop_assert_eq!(
                    &**got,
                    oracle::choose_get_target(&load, &reps, attempts, now)
                );

                handles.retain(|rep| !have_sub.contains(&**rep));
                router.order_fan_out(&mut handles, now);
                let got: Vec<&str> = handles.iter().map(|n| &**n).collect();
                prop_assert_eq!(got, oracle::fan_out(&load, &reps, &have_sub, now));
            }
        }
    }

    #[test]
    fn p2c_picks_the_less_loaded_replica() {
        let cfg = RouterConfig {
            replication: 2,
            ..RouterConfig::default()
        };
        let mut h = Harness::new(cfg);
        h.install(&[("m0/nic0", 10), ("m1/nic0", 11)]);
        // First GET: both replicas idle, tie keeps rotation order.
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequestRef::Get { id: 1, key: b"k" }.encode(),
        );
        let first = subs_sent(&acts)[0].0;
        // Second GET for the same key while the first sub is outstanding:
        // p2c must pick the other replica.
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequestRef::Get { id: 2, key: b"k" }.encode(),
        );
        let second = subs_sent(&acts)[0].0;
        assert_ne!(first, second, "p2c spreads load across the replica pair");
    }

    /// An ack whose tag no status has, and an endpoint listed twice, are
    /// refused as `Corrupt`. Both restored `Ok` before, into a router whose
    /// next snapshot differs: the unknown ack read as `Error`, the second
    /// endpoint replaced the first.
    #[test]
    fn an_unknown_ack_or_a_repeated_endpoint_is_corrupt() {
        use lastcpu_snap::{Restore, SnapError, Snapshot};
        let with_ack = |ack| {
            let mut r = ShardRouterHost::new(RouterConfig::default());
            let mut p = PendingReq::empty();
            p.subs.push(Sub {
                target: "m0/nic0".into(),
                id: SUB_ID_BASE,
                sent_at: SimTime::ZERO,
                ack: Some(ack),
            });
            r.pending.insert(1, p);
            r.snapshot_bytes()
        };
        // The ack is the one byte the two snapshots differ in.
        let (ok, mut bytes) = (with_ack(KvsStatus::Ok), with_ack(KvsStatus::Busy));
        let diff: Vec<usize> = (0..bytes.len()).filter(|&i| ok[i] != bytes[i]).collect();
        let [at] = diff[..] else {
            panic!("expected one differing byte, got {diff:?}")
        };
        bytes[at] = 9;
        let restored =
            ShardRouterHost::new(RouterConfig::default()).restore_bytes("router", &bytes);
        assert!(
            matches!(restored, Err(SnapError::Corrupt { .. })),
            "{:?}",
            restored.err()
        );

        let mut r = ShardRouterHost::new(RouterConfig::default());
        r.endpoints.insert("ep-a".into(), PortId(1));
        r.endpoints.insert("ep-b".into(), PortId(2));
        let mut bytes = r.snapshot_bytes();
        let at = bytes
            .windows(4)
            .position(|w| w == b"ep-b")
            .expect("endpoint");
        bytes[at + 3] = b'a';
        let restored =
            ShardRouterHost::new(RouterConfig::default()).restore_bytes("router", &bytes);
        assert!(
            matches!(restored, Err(SnapError::Corrupt { .. })),
            "{:?}",
            restored.err()
        );
    }
}
