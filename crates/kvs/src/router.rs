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
//! 2. **Shards by key.** A GET goes to one of the key's replicas; PUT/DELETE
//!    fan out to the key's full R-way replica set (`ring.replicas(key, R)`)
//!    and are acknowledged to the client only when **every** current replica
//!    has acknowledged — the no-lost-acknowledged-writes invariant E10
//!    checks: once the client sees `Ok`, R machines hold the record, so any
//!    single machine crash leaves at least R−1 copies.
//! 3. **Fails over.** Sub-requests that time out, or whose target vanishes
//!    from the directory (the fabric withdraws a crashed machine's
//!    endpoints on its next sweep — the heartbeat/recovery machinery at
//!    rack granularity), are re-dispatched against the *recomputed* replica
//!    set. The consistent-hash ring guarantees only the dead machine's keys
//!    move (`fabric.router.rebalance_moves` counts them).
//! 4. **Tracks congestion.** Every sub carries a send timestamp; acks feed a
//!    per-endpoint RTT EWMA and outstanding-sub counts. The default
//!    [`RetryPolicy`] uses that state: power-of-two-choices replica
//!    selection for GETs, load-aware write fan-out order, adaptive
//!    (`max(base, k×ewma)`) timeouts, and Busy backpressure driven by the
//!    queue depth servers report in their `Busy` responses.
//!
//! Determinism: all request bookkeeping lives in `BTreeMap`/`BTreeSet`
//! (iteration order is data-, not allocation-, dependent), sweeps walk
//! pendings in sequence order, and replica sets come from the ring, which
//! is membership-order independent. The congestion state is itself a pure
//! function of the event history (integer EWMA, no RNG, `BTreeMap`-ordered),
//! so every policy arm replays bit-identically from the same seed.
//!
//! [`DirMsg::Query`]: lastcpu_fabric::DirMsg::Query

use lastcpu_sim::DetHashMap;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lastcpu_core::{HostCtx, NetHost};
use lastcpu_fabric::{DirMsg, HashRing};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::critpath::{
    op_key, STAGE_ROUTER_ACK, STAGE_ROUTER_RECV, STAGE_ROUTER_RESPOND, STAGE_ROUTER_SUB,
};
use lastcpu_sim::{profile, CounterHandle, GaugeHandle, SimDuration, SimTime};

use crate::proto::{encode_response, KvsRequestRef, KvsResponseRef, KvsStatus};

/// Timer token for the periodic tick (directory refresh + timeout sweep).
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

/// Retry/dispatch policy: the congestion-aware default and the documented
/// pre-congestion-aware baseline it is measured against.
///
/// `Static` preserves the original behavior (fixed `sub_timeout`, blind
/// rotation across replicas on retry). `AdaptiveP2c` switches on the whole
/// congestion machinery:
///
/// - timeouts stretch to `max(sub_timeout, k × ewma_rtt)` of the sub's
///   target, and `Busy`/`Unavailable` acks defer the re-dispatch by the
///   backpressure window instead of retrying on the very next tick;
/// - GETs pick the less-loaded of two rotation candidates (outstanding
///   subs, then RTT EWMA; ties resolve in rotation order, so the choice
///   stays deterministic), and write fan-out issues subs to the
///   least-loaded replicas first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// Fixed timeout + blind rotation (the pre-congestion-aware router).
    Static,
    /// Adaptive timeouts, Busy backpressure, power-of-two-choices GET
    /// placement and load-aware write fan-out order (default).
    #[default]
    AdaptiveP2c,
}

impl RetryPolicy {
    /// Both arms, baseline first.
    pub const ALL: [RetryPolicy; 2] = [RetryPolicy::Static, RetryPolicy::AdaptiveP2c];

    /// The flag/JSON spelling (`"static"`, `"adaptive+p2c"`).
    pub fn name(self) -> &'static str {
        match self {
            RetryPolicy::Static => "static",
            RetryPolicy::AdaptiveP2c => "adaptive+p2c",
        }
    }

    /// Parses the [`name`](Self::name) spelling.
    pub fn parse(s: &str) -> Option<RetryPolicy> {
        RetryPolicy::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Whether the congestion machinery (adaptive timeouts, backpressure,
    /// load-aware replica selection) is on.
    fn congestion_aware(self) -> bool {
        self == RetryPolicy::AdaptiveP2c
    }
}

impl std::fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The local machine's fabric directory port ([`Fabric::directory_port`]).
    ///
    /// [`Fabric::directory_port`]: lastcpu_fabric::Fabric::directory_port
    pub dir_port: PortId,
    /// Directory `kind` of the endpoints to shard over (`"smart-nic"`).
    pub service_kind: String,
    /// Replication factor R (clamped to ≥ 1; effective R is bounded by the
    /// number of live endpoints).
    pub replication: usize,
    /// Virtual nodes per endpoint on the hash ring.
    pub vnodes: u32,
    /// Tick period: directory re-query + pending-request timeout sweep.
    pub tick: SimDuration,
    /// Age after which an unanswered sub-request is re-dispatched. Under the
    /// congestion-aware policy this is the *floor*; the effective timeout is
    /// `max(sub_timeout, rtt_multiplier × ewma_rtt(target))`.
    pub sub_timeout: SimDuration,
    /// Re-dispatch budget per client request before giving up with
    /// [`KvsStatus::Unavailable`].
    pub max_retries: u32,
    /// Retry/dispatch policy arm.
    pub policy: RetryPolicy,
    /// Adaptive-timeout multiplier `k` in `max(sub_timeout, k × ewma_rtt)`.
    pub rtt_multiplier: u64,
    /// Base re-dispatch deferral after a `Busy`/`Unavailable` ack under the
    /// congestion-aware policy, scaled up with the queue depth the server
    /// reported.
    pub busy_backoff: SimDuration,
    /// Host name (traces, stats).
    pub name: String,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            dir_port: PortId(0),
            service_kind: "smart-nic".into(),
            replication: 1,
            vnodes: 64,
            tick: SimDuration::from_micros(1000),
            sub_timeout: SimDuration::from_micros(5000),
            max_retries: 24,
            policy: RetryPolicy::default(),
            rtt_multiplier: 4,
            busy_backoff: SimDuration::from_micros(2000),
            name: "router".into(),
        }
    }
}

/// Operation class of a pending client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Get,
    Put,
    Delete,
}

/// One sub-request to one replica.
struct Sub {
    /// Endpoint name (`"m2/nic0"`), as the ring's handle.
    target: Arc<str>,
    /// Router-minted id (≥ [`SUB_ID_BASE`]).
    id: u64,
    /// When it was (last) transmitted.
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
    /// Marked by acks/timeouts; the sweep re-dispatches marked requests.
    needs_redispatch: bool,
    /// Backpressure: a marked request is not re-dispatched before this
    /// instant (set by `Busy`/`Unavailable` acks under an adaptive policy;
    /// a timeout or membership change overrides it).
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
            KvsRequestRef::Delete { .. } => (Op::Delete, &[][..]),
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

/// Router counters, inspectable without the metrics hub.
#[derive(Debug, Default, Clone, Copy)]
pub struct RouterStats {
    /// Client requests accepted.
    pub requests: u64,
    /// Sub-requests routed to shard endpoints.
    pub hits: u64,
    /// Re-dispatches (timeout, replica loss, or transient rejection).
    pub failovers: u64,
    /// Requests abandoned after `max_retries` re-dispatches.
    pub give_ups: u64,
    /// Acked keys whose primary moved across directory epochs.
    pub rebalance_moves: u64,
    /// Directory epochs observed.
    pub epoch: u64,
    /// Directory replies received (including no-change replies).
    pub dir_replies: u64,
    /// Directory replies that actually installed a change.
    pub dir_installs: u64,
    /// Late replica responses to already-cancelled subs, dropped at triage.
    pub late_acks: u64,
    /// Re-dispatches deferred by `Busy`/`Unavailable` backpressure.
    pub busy_deferrals: u64,
}

/// Pre-registered `fabric.router.*` handles on the machine's metrics hub.
struct HubMetrics {
    requests: CounterHandle,
    hits: CounterHandle,
    failovers: CounterHandle,
    give_ups: CounterHandle,
    rebalance_moves: CounterHandle,
    dir_replies: CounterHandle,
    dir_installs: CounterHandle,
    late_acks: CounterHandle,
    busy_deferrals: CounterHandle,
    epoch: GaugeHandle,
    endpoints: GaugeHandle,
}

impl HubMetrics {
    fn register(hub: &lastcpu_sim::MetricsHub) -> Self {
        HubMetrics {
            requests: hub.counter_handle("fabric.router.requests"),
            hits: hub.counter_handle("fabric.router.hits"),
            failovers: hub.counter_handle("fabric.router.failovers"),
            give_ups: hub.counter_handle("fabric.router.give_ups"),
            rebalance_moves: hub.counter_handle("fabric.router.rebalance_moves"),
            dir_replies: hub.counter_handle("fabric.router.dir_replies"),
            dir_installs: hub.counter_handle("fabric.router.dir_installs"),
            late_acks: hub.counter_handle("fabric.router.late_acks"),
            busy_deferrals: hub.counter_handle("fabric.router.busy_deferrals"),
            epoch: hub.gauge_handle("fabric.router.epoch"),
            endpoints: hub.gauge_handle("fabric.router.endpoints"),
        }
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
    stats: RouterStats,
    met: Option<HubMetrics>,
    /// Payload of the last directory reply that went through
    /// [`install_directory`](Self::install_directory). A byte-equal reply
    /// decodes to the `endpoints` and `epoch` that call left behind, so it
    /// is only counted. Never snapshotted; `Restore` clears it.
    last_dir_reply: Option<Vec<u8>>,
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
            stats: RouterStats::default(),
            met: None,
            last_dir_reply: None,
        }
    }

    /// Counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Whether the router has discovered at least one shard endpoint.
    pub fn is_ready(&self) -> bool {
        !self.ring.is_empty()
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

    /// Counts one directory reply. Replies and installs are distinct
    /// counters: most replies carry no change (the router re-queries every
    /// tick).
    fn count_dir_reply(&mut self) {
        self.stats.dir_replies += 1;
        if let Some(met) = &self.met {
            met.dir_replies.incr();
        }
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
        self.count_dir_reply();
        let mut fresh: BTreeMap<String, PortId> = BTreeMap::new();
        for ep in eps {
            if ep.kind == self.config.service_kind {
                fresh.insert(ep.name, PortId(ep.port));
            }
        }
        if fresh == self.endpoints && epoch == self.epoch {
            return;
        }
        self.stats.dir_installs += 1;
        if let Some(met) = &self.met {
            met.dir_installs.incr();
        }
        self.epoch = epoch;
        self.stats.epoch = epoch;
        if let Some(met) = &self.met {
            met.epoch.set(epoch as i64);
            met.endpoints.set(fresh.len() as i64);
        }
        let membership_changed = fresh.keys().ne(self.endpoints.keys());
        if membership_changed {
            let mut ring = HashRing::new(self.config.vnodes);
            for name in fresh.keys() {
                ring.insert(name);
            }
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
                self.stats.rebalance_moves += moves;
                if let Some(met) = &self.met {
                    met.rebalance_moves.add(moves);
                }
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
            // Fail over in-flight work addressed to departed endpoints now
            // rather than waiting out the sub-timeout.
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
            Op::Delete => KvsRequestRef::Delete { id, key },
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
        self.stats.hits += 1;
        if let Some(met) = &self.met {
            met.hits.incr();
        }
        ctx.stage(STAGE_ROUTER_SUB, id, opk);
        ctx.net_tx(port, frame);
    }

    /// Unregisters one sub: drops the id mapping and, if it was never
    /// answered, releases its outstanding-load slot.
    fn unregister_sub(&mut self, sub: &Sub) {
        self.sub_index.remove(&sub.id);
        if sub.ack.is_none() {
            if let Some(l) = self.load.get_mut(&sub.target) {
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
            self.unregister_sub(sub);
        }
        ctx.stage(
            STAGE_ROUTER_RESPOND,
            op_key(p.client.0, p.client_id),
            status as u64,
        );
        ctx.net_tx(p.client, encode_response(p.client_id, status, value));
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

    /// Picks the GET target among `reps` for the given attempt.
    ///
    /// All arms skip what `avoid` names — the targets of subs the *current*
    /// re-dispatch just cancelled unacked. Without that, the rotation
    /// `reps[attempts % len]` can land back on the endpoint that just timed
    /// out when a directory epoch reordered the replica list (the original
    /// retry bug). If every replica is excluded (R = 1), the rotation pick
    /// stands — there is nowhere else to go.
    fn choose_get_target<'a>(
        &self,
        reps: &'a [Arc<str>],
        attempts: u32,
        avoid: impl Fn(&str) -> bool,
        now: SimTime,
    ) -> &'a Arc<str> {
        let n = reps.len();
        let start = attempts as usize % n;
        let rotation = || (0..n).map(|i| &reps[(start + i) % n]);
        // The first two candidates in rotation order: those not avoided,
        // or the whole rotation if that leaves none.
        let mut fresh = rotation().filter(|t| !avoid(t));
        let (a, b) = match fresh.next() {
            Some(a) => (a, fresh.next()),
            None => (&reps[start], rotation().nth(1)),
        };
        if let Some(b) = b {
            // Power of two choices over the first two rotation candidates;
            // ties keep the rotation order (deterministic). An endpoint
            // inside its backpressure window scores worst.
            if self.config.policy.congestion_aware()
                && self.load_score(b, now) < self.load_score(a, now)
            {
                return b;
            }
        }
        a
    }

    /// Orders a write's missing replicas for fan-out. Load-aware under the
    /// congestion policy: least-loaded replicas get their subs (and thus
    /// uplink slots) first; the name tie-break keeps the order
    /// deterministic. Ring order otherwise.
    fn order_fan_out(&self, missing: &mut [Arc<str>], now: SimTime) {
        if self.config.policy.congestion_aware() {
            missing.sort_by(|a, b| {
                self.load_score(a, now)
                    .cmp(&self.load_score(b, now))
                    .then_with(|| a.cmp(b))
            });
        }
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
        let max_retries = self.config.max_retries;
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
            (initial, p.attempts > max_retries)
        };
        if !initial {
            self.stats.failovers += 1;
            if let Some(met) = &self.met {
                met.failovers.incr();
            }
        }
        if over_budget {
            self.stats.give_ups += 1;
            if let Some(met) = &self.met {
                met.give_ups.incr();
            }
            self.complete(ctx, seq, KvsStatus::Unavailable, &[]);
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
        // set), remembering what was just cancelled.
        let is_get = self.pending[&seq].op == Op::Get;
        let (cancelled, attempts) = {
            let p = self.pending.get_mut(&seq).expect("pending exists");
            let keep = |s: &Sub| {
                if is_get {
                    s.ack.is_some()
                } else {
                    matches!(s.ack, Some(KvsStatus::Ok) | Some(KvsStatus::NotFound))
                        && reps.contains(&s.target)
                }
            };
            // In place, so what is kept stays in the slot's own buffer (an
            // initial dispatch has nothing to cancel and allocates nothing).
            let mut cancelled = Vec::new();
            let mut i = 0;
            while i < p.subs.len() {
                if keep(&p.subs[i]) {
                    i += 1;
                } else {
                    cancelled.push(p.subs.remove(i));
                }
            }
            (cancelled, p.attempts)
        };
        for s in &cancelled {
            self.unregister_sub(s);
        }
        // Phase 3: pick targets and issue.
        if is_get {
            // Targets whose sub this very re-dispatch cancelled while
            // unacked: the retry must not re-target them (they just timed
            // out or vanished), whatever the rotation arithmetic says.
            let avoid = |t: &str| cancelled.iter().any(|s| s.ack.is_none() && &*s.target == t);
            let target = Arc::clone(self.choose_get_target(reps, attempts, avoid, ctx.now));
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

    /// Completes a PUT/DELETE if every current replica has acknowledged.
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
        let status = match p.op {
            Op::Put => {
                // An overwrite's key is already here; the slot keeps its own.
                if !self.acked_puts.contains(&p.key) {
                    self.acked_puts.insert(p.key.clone());
                }
                KvsStatus::Ok
            }
            Op::Delete => {
                self.acked_puts.remove(&p.key);
                // NotFound on every replica is an honest miss; Ok anywhere
                // means the tombstone landed.
                if p.subs.iter().any(|s| s.ack == Some(KvsStatus::Ok)) {
                    KvsStatus::Ok
                } else {
                    KvsStatus::NotFound
                }
            }
            Op::Get => unreachable!("check_write_done is write-only"),
        };
        self.complete(ctx, seq, status, &[]);
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
                // Transient (overload / mid-recovery). Statically, retry on
                // the next sweep. Under the default policy the response is
                // backpressure: mark the endpoint busy for a window scaled
                // by the queue depth it reported and defer the re-dispatch
                // until the window passes, instead of hammering it tickwise.
                let defer = if self.config.policy.congestion_aware() {
                    let depth = if resp.status == KvsStatus::Busy {
                        resp.busy_depth().unwrap_or(0)
                    } else {
                        0
                    };
                    let scale = 1 + (u64::from(depth) / 64).min(7);
                    let until = ctx.now + self.config.busy_backoff.saturating_mul(scale);
                    let l = self.load.entry(Arc::clone(&target)).or_default();
                    if until > l.busy_until {
                        l.busy_until = until;
                    }
                    self.stats.busy_deferrals += 1;
                    if let Some(met) = &self.met {
                        met.busy_deferrals.incr();
                    }
                    Some(until)
                } else {
                    None
                };
                if let Some(p) = self.pending.get_mut(&seq) {
                    p.needs_redispatch = true;
                    if let Some(until) = defer {
                        p.defer_until = Some(p.defer_until.map_or(until, |d| d.max(until)));
                    }
                }
            }
            _ => self.with_reps(|this, reps| this.check_write_done(ctx, seq, reps)),
        }
    }

    /// A client request arrived; `req` borrows its frame.
    fn on_client(&mut self, ctx: &mut HostCtx<'_>, src: PortId, req: KvsRequestRef<'_>) {
        self.stats.requests += 1;
        if let Some(met) = &self.met {
            met.requests.incr();
        }
        if self.ring.is_empty() {
            // Rack not discovered yet: tell the client to back off, same as
            // a booting single server would.
            ctx.net_tx(src, encode_response(req.id(), KvsStatus::Busy, &[]));
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

    /// Periodic sweep: re-query the directory, re-dispatch timed-out or
    /// transiently rejected sub-requests.
    fn sweep(&mut self, ctx: &mut HostCtx<'_>) {
        self.query_directory(ctx);
        let now = ctx.now;
        let base = self.config.sub_timeout;
        let adaptive = self.config.policy.congestion_aware();
        let mult = self.config.rtt_multiplier;
        let load = &self.load;
        let seqs: Vec<u64> = self
            .pending
            .iter_mut()
            .filter_map(|(&seq, p)| {
                // Exponential backoff: each fail-over doubles the patience
                // (capped at 32x). Without this, a loaded rack whose RTT
                // momentarily exceeds the base timeout melts down: every
                // sweep cancels in-flight subs and reissues them, which adds
                // load, which lengthens RTT, which times out more subs.
                let backoff = 1u64 << p.attempts.min(5);
                let timed_out = p.subs.iter().any(|s| {
                    if s.ack.is_some() {
                        return false;
                    }
                    // Adaptive arm: a loaded endpoint earns patience
                    // proportional to its measured RTT, so in-flight work
                    // that is *about to complete* is not cancelled just
                    // because the rack is warm. The static floor still
                    // bounds cold endpoints.
                    let mut timeout = base;
                    if adaptive {
                        if let Some(l) = load.get(&s.target) {
                            if l.ewma_rtt_ns > 0 {
                                let est =
                                    SimDuration::from_nanos(l.ewma_rtt_ns.saturating_mul(mult));
                                if est > timeout {
                                    timeout = est;
                                }
                            }
                        }
                    }
                    now.since(s.sent_at) >= timeout.saturating_mul(backoff)
                });
                if timed_out {
                    // A real timeout overrides any backpressure deferral.
                    p.needs_redispatch = true;
                    p.defer_until = None;
                }
                if p.needs_redispatch && !p.defer_until.is_some_and(|d| now < d) {
                    Some(seq)
                } else {
                    None
                }
            })
            .collect();
        for seq in seqs {
            self.redispatch(ctx, seq);
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

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.met = Some(HubMetrics::register(ctx.stats));
        self.query_directory(ctx);
        ctx.set_timer(self.config.tick, TOKEN_TICK);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        let _prof = profile::span("kvs.router.dispatch");
        // 1. Directory replies (magic-tagged, and only ever from the
        //    directory port).
        if frame.src == self.config.dir_port && DirMsg::sniff(&frame.payload) {
            let _prof = profile::span("kvs.router.dir_reply");
            if self.last_dir_reply.as_deref() == Some(&frame.payload[..]) {
                self.count_dir_reply();
            } else if let Ok(DirMsg::Reply { epoch, endpoints }) = DirMsg::decode(&frame.payload) {
                self.install_directory(ctx, epoch, endpoints);
                self.last_dir_reply = Some(frame.payload.to_vec());
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
                    self.stats.late_acks += 1;
                    if let Some(met) = &self.met {
                        met.late_acks.incr();
                    }
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
        ctx.set_timer(self.config.tick, TOKEN_TICK);
    }
}

impl RetryPolicy {
    /// Stable one-byte tag for snapshot sections.
    pub fn snap_encode(self) -> u8 {
        match self {
            RetryPolicy::Static => 0,
            RetryPolicy::AdaptiveP2c => 3,
        }
    }

    /// Inverse of [`RetryPolicy::snap_encode`]. Tags 1 and 2 belonged to
    /// the retired `adaptive`-only and `p2c`-only arms and no longer decode.
    pub fn snap_decode(v: u8) -> Option<RetryPolicy> {
        Some(match v {
            0 => RetryPolicy::Static,
            3 => RetryPolicy::AdaptiveP2c,
            _ => return None,
        })
    }
}

impl PendingReq {
    /// The operation as a tag byte; a PUT's value follows its tag.
    fn snap_encode_op(&self, w: &mut lastcpu_snap::SnapWriter) {
        match self.op {
            Op::Get => w.put_u8(0),
            Op::Put => {
                w.put_u8(1);
                w.put_bytes(&self.value);
            }
            Op::Delete => w.put_u8(2),
        }
    }

    /// Inverse of [`PendingReq::snap_encode_op`]: the operation and its value.
    fn snap_decode_op(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<(Op, Vec<u8>)> {
        Ok(match r.u8()? {
            0 => (Op::Get, Vec::new()),
            1 => (Op::Put, r.bytes()?),
            2 => (Op::Delete, Vec::new()),
            t => return Err(r.corrupt(format!("unknown router op tag {t}"))),
        })
    }
}

impl lastcpu_snap::Snapshot for ShardRouterHost {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u32(self.config.dir_port.0);
        w.put_str(&self.config.service_kind);
        w.put_len(self.config.replication);
        w.put_u32(self.config.vnodes);
        w.put_u64(self.config.tick.as_nanos());
        w.put_u64(self.config.sub_timeout.as_nanos());
        w.put_u32(self.config.max_retries);
        w.put_u8(self.config.policy.snap_encode());
        w.put_u64(self.config.rtt_multiplier);
        w.put_u64(self.config.busy_backoff.as_nanos());
        w.put_str(&self.config.name);
        self.ring.snapshot(w);
        w.put_len(self.endpoints.len());
        for (name, port) in &self.endpoints {
            w.put_str(name);
            w.put_u32(port.0);
        }
        w.put_u64(self.epoch);
        w.put_u64(self.next_sub_id);
        w.put_u64(self.next_seq);
        w.put_len(self.pending.len());
        for (seq, p) in &self.pending {
            w.put_u64(*seq);
            w.put_u32(p.client.0);
            w.put_u64(p.client_id);
            w.put_bytes(&p.key);
            p.snap_encode_op(w);
            w.put_len(p.subs.len());
            for s in &p.subs {
                w.put_str(&s.target);
                w.put_u64(s.id);
                w.put_u64(s.sent_at.as_nanos());
                w.put_opt(s.ack.as_ref(), |w, a| w.put_u8(a.snap_encode()));
            }
            w.put_u32(p.attempts);
            w.put_bool(p.needs_redispatch);
            w.put_opt(p.defer_until.as_ref(), |w, t| w.put_u64(t.as_nanos()));
        }
        // sub_index is derivable from pending, but serialized so restore
        // needs no rebuild pass and verification covers it. Sorted: it is
        // an unordered map.
        let mut subs: Vec<u64> = self.sub_index.keys().copied().collect();
        subs.sort_unstable();
        w.put_len(subs.len());
        for id in subs {
            w.put_u64(id);
            w.put_u64(self.sub_index[&id]);
        }
        w.put_len(self.load.len());
        for (name, l) in &self.load {
            w.put_str(name);
            w.put_u32(l.outstanding);
            w.put_u64(l.ewma_rtt_ns);
            w.put_u64(l.busy_until.as_nanos());
        }
        w.put_len(self.acked_puts.len());
        for k in &self.acked_puts {
            w.put_bytes(k);
        }
        w.put_u64(self.stats.requests);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.failovers);
        w.put_u64(self.stats.give_ups);
        w.put_u64(self.stats.rebalance_moves);
        w.put_u64(self.stats.epoch);
        w.put_u64(self.stats.dir_replies);
        w.put_u64(self.stats.dir_installs);
        w.put_u64(self.stats.late_acks);
        w.put_u64(self.stats.busy_deferrals);
        // Excluded: `met` (live MetricsHub handles; the hub snapshots its
        // own key space), `last_dir_reply` (a memo of `endpoints` and
        // `epoch` above; the first reply after a restore decodes) and
        // `spare` (answered slots: buffers, no request).
    }
}

impl lastcpu_snap::Restore for ShardRouterHost {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.config.dir_port = PortId(r.u32()?);
        self.config.service_kind = r.str()?;
        self.config.replication = r.len()?;
        self.config.vnodes = r.u32()?;
        self.config.tick = SimDuration::from_nanos(r.u64()?);
        self.config.sub_timeout = SimDuration::from_nanos(r.u64()?);
        self.config.max_retries = r.u32()?;
        let tag = r.u8()?;
        self.config.policy = RetryPolicy::snap_decode(tag)
            .ok_or_else(|| r.corrupt(format!("unknown retry policy tag {tag}")))?;
        self.config.rtt_multiplier = r.u64()?;
        self.config.busy_backoff = SimDuration::from_nanos(r.u64()?);
        self.config.name = r.str()?;
        self.ring.restore(r)?;
        let n = r.len()?;
        self.endpoints = BTreeMap::new();
        for _ in 0..n {
            let name = r.str()?;
            let port = PortId(r.u32()?);
            self.endpoints.insert(name, port);
        }
        self.epoch = r.u64()?;
        self.next_sub_id = r.u64()?;
        self.next_seq = r.u64()?;
        let n = r.len()?;
        self.pending = BTreeMap::new();
        for _ in 0..n {
            let seq = r.u64()?;
            let client = PortId(r.u32()?);
            let client_id = r.u64()?;
            let key = r.bytes()?;
            let (op, value) = PendingReq::snap_decode_op(r)?;
            let ns = r.count()?;
            let mut subs = Vec::with_capacity(ns);
            for _ in 0..ns {
                subs.push(Sub {
                    target: r.str()?.into(),
                    id: r.u64()?,
                    sent_at: SimTime::from_nanos(r.u64()?),
                    ack: r.opt(|r| Ok(KvsStatus::snap_decode(r.u8()?)))?,
                });
            }
            let attempts = r.u32()?;
            let needs_redispatch = r.bool()?;
            let defer_until = r.opt(|r| Ok(SimTime::from_nanos(r.u64()?)))?;
            self.pending.insert(
                seq,
                PendingReq {
                    client,
                    client_id,
                    key,
                    op,
                    value,
                    subs,
                    attempts,
                    needs_redispatch,
                    defer_until,
                },
            );
        }
        let n = r.len()?;
        self.sub_index = DetHashMap::default();
        for _ in 0..n {
            let id = r.u64()?;
            let seq = r.u64()?;
            self.sub_index.insert(id, seq);
        }
        let n = r.len()?;
        self.load = BTreeMap::new();
        for _ in 0..n {
            let name = r.str()?.into();
            let l = EndpointLoad {
                outstanding: r.u32()?,
                ewma_rtt_ns: r.u64()?,
                busy_until: SimTime::from_nanos(r.u64()?),
            };
            self.load.insert(name, l);
        }
        let n = r.len()?;
        self.acked_puts = BTreeSet::new();
        for _ in 0..n {
            self.acked_puts.insert(r.bytes()?);
        }
        self.stats.requests = r.u64()?;
        self.stats.hits = r.u64()?;
        self.stats.failovers = r.u64()?;
        self.stats.give_ups = r.u64()?;
        self.stats.rebalance_moves = r.u64()?;
        self.stats.epoch = r.u64()?;
        self.stats.dir_replies = r.u64()?;
        self.stats.dir_installs = r.u64()?;
        self.stats.late_acks = r.u64()?;
        self.stats.busy_deferrals = r.u64()?;
        self.last_dir_reply = None;
        self.spare.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{KvsRequest, KvsResponse};
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
        assert!(!r.is_ready());
        assert!(r.endpoint_names().is_empty());
        assert_eq!(r.stats().requests, 0);
        assert!(r.acked_put_keys().is_empty());
    }

    #[test]
    fn retry_policy_names_round_trip() {
        for p in RetryPolicy::ALL {
            assert_eq!(RetryPolicy::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(RetryPolicy::parse("bogus"), None);
        assert_eq!(RetryPolicy::parse("adaptive"), None);
        assert_eq!(RetryPolicy::parse("p2c"), None);
        assert_eq!(RetryPolicy::default(), RetryPolicy::AdaptiveP2c);
    }

    #[test]
    fn retired_policy_tags_restore_as_corrupt() {
        use lastcpu_snap::{Restore, SnapError, Snapshot};
        let cfg = RouterConfig::default();
        let snap = |policy| {
            ShardRouterHost::new(RouterConfig {
                policy,
                ..cfg.clone()
            })
            .snapshot_bytes()
        };
        // The policy tag is the one byte the two arms' snapshots differ in.
        let (stat, mut bytes) = (snap(RetryPolicy::Static), snap(RetryPolicy::AdaptiveP2c));
        let diff: Vec<usize> = (0..bytes.len()).filter(|&i| stat[i] != bytes[i]).collect();
        let [at] = diff[..] else {
            panic!("expected one differing byte, got {diff:?}")
        };
        for tag in [0u8, 3] {
            bytes[at] = tag;
            let mut r = ShardRouterHost::new(cfg.clone());
            r.restore_bytes("router", &bytes)
                .expect("kept tag restores");
            assert_eq!(r.config.policy.snap_encode(), tag);
        }
        for tag in [1u8, 2] {
            bytes[at] = tag;
            let err = ShardRouterHost::new(cfg.clone())
                .restore_bytes("router", &bytes)
                .expect_err("retired tag must not decode");
            assert!(
                matches!(err, SnapError::Corrupt { .. }),
                "tag {tag}: {err:?}"
            );
        }
    }

    // --- direct-drive harness -------------------------------------------

    const DIR_PORT: PortId = PortId(900);
    const ROUTER_PORT: PortId = PortId(1);
    const CLIENT_PORT: PortId = PortId(5);

    struct Harness {
        router: ShardRouterHost,
        hub: MetricsHub,
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
                rng: DetRng::new(7),
                now: SimTime::ZERO,
                epoch: 0,
            };
            let mut ctx = HostCtx::new(h.now, ROUTER_PORT, &h.hub, &mut h.rng, CorrId::NONE);
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
    fn subs_sent(actions: &[HostAction]) -> Vec<(PortId, KvsRequest)> {
        actions
            .iter()
            .filter_map(|a| match a {
                HostAction::NetTx(f) => KvsRequest::decode(&f.payload).map(|r| (f.dst, r)),
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
            KvsRequest::Get {
                id: 1,
                key: b"k".to_vec(),
            }
            .encode(),
        );
        assert_eq!(subs_sent(&acts).len(), 1);
        assert_eq!(h.router.stats().requests, 1);

        // A late NotFound response to a sub the router no longer tracks.
        // Its wire bytes alias a *valid* Get request — the ghost-request
        // hazard this test pins down.
        let late = KvsResponse {
            id: SUB_ID_BASE | 0xDEAD,
            status: KvsStatus::NotFound,
            value: b"ghost-key".to_vec(),
        };
        let payload = late.encode();
        assert!(
            KvsRequest::decode(&payload).is_some(),
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
        let get = KvsRequest::Get {
            id: 9,
            key: b"alias".to_vec(),
        }
        .encode();
        assert_eq!(
            KvsResponse::decode(&get),
            Some(KvsResponse {
                id: 9,
                status: KvsStatus::NotFound,
                value: b"alias".to_vec(),
            }),
            "test premise: the layouts alias"
        );
        let acts = h.frame(CLIENT_PORT, get);
        let sent = subs_sent(&acts);
        let [(port, KvsRequest::Get { id: sub_id, key })] = &sent[..] else {
            panic!("one GET sub expected, got {sent:?}");
        };
        assert_eq!((*port, &key[..]), (PortId(10), &b"alias"[..]));
        assert!(*sub_id >= SUB_ID_BASE);
        assert_eq!(h.router.stats().requests, 1);
        assert_eq!(h.router.stats().late_acks, 0);

        // A Busy ack answers nobody; it marks the request for the sweep.
        let acts = h.frame(PortId(10), KvsResponse::busy(*sub_id, 3).encode());
        assert!(frames_sent(&acts).is_empty(), "{acts:?}");
        assert_eq!(h.router.stats().busy_deferrals, 1);
        assert!(h.router.pending.values().all(|p| p.needs_redispatch));
        // The same ack again is late: its sub left the index with the first.
        h.frame(PortId(10), KvsResponse::busy(*sub_id, 3).encode());
        assert_eq!(h.router.stats().late_acks, 1);
        assert_eq!(h.router.stats().requests, 1, "no ghost request");

        // The retry's hit goes to the client as the bytes an owned response
        // encodes to.
        let acts = h.tick_after(RouterConfig::default().busy_backoff);
        let retry = subs_sent(&acts)[0].1.id();
        let hit = KvsResponse {
            id: retry,
            status: KvsStatus::Ok,
            value: vec![0xC3; 300],
        };
        let acts = h.frame(PortId(10), hit.encode());
        assert_eq!(
            frames_sent(&acts),
            [(
                CLIENT_PORT,
                KvsResponse {
                    id: 9,
                    status: KvsStatus::Ok,
                    value: vec![0xC3; 300],
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
            KvsRequest::Put {
                id,
                key: b"slot-key".to_vec(),
                value: value.to_vec(),
            }
            .encode()
        };
        let ok = |id: u64| {
            KvsResponse {
                id,
                status: KvsStatus::Ok,
                value: vec![],
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
            KvsRequest::Put {
                id: sent[0].1.id(),
                key: b"slot-key".to_vec(),
                value: vec![8; 16],
            }
        );
        h.frame(PortId(10), ok(sent[0].1.id()));
        assert_eq!(h.router.acked_put_keys().len(), 1);

        // A GET through a slot that last held a PUT carries no value, in
        // the frame or in a checkpoint taken while it waits.
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequest::Get {
                id: 3,
                key: b"k".to_vec(),
            }
            .encode(),
        );
        assert_eq!(
            subs_sent(&acts)[0].1,
            KvsRequest::Get {
                id: subs_sent(&acts)[0].1.id(),
                key: b"k".to_vec(),
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
        // The same bytes again: a reply, not an install, and no decode —
        // the memo answers.
        let same = reply_bytes(h.epoch, &[("m0/nic0", 10)]);
        assert_eq!(h.router.last_dir_reply.as_ref(), Some(&same));
        h.frame(DIR_PORT, same);
        assert_eq!(h.router.stats().dir_replies, 2);
        assert_eq!(h.router.stats().dir_installs, 1, "no-change reply counted");
        // Epoch bump with identical membership still installs (epoch moves).
        h.install(&[("m0/nic0", 10)]);
        assert_eq!(h.router.stats().dir_replies, 3);
        assert_eq!(h.router.stats().dir_installs, 2);
        // Same epoch, different port: the bytes differ, so it installs.
        let moved = reply_bytes(h.epoch, &[("m0/nic0", 11)]);
        h.frame(DIR_PORT, moved.clone());
        assert_eq!(h.router.stats().dir_replies, 4);
        assert_eq!(h.router.stats().dir_installs, 3);
        assert_eq!(h.router.endpoints["m0/nic0"], PortId(11));
        assert_eq!(h.router.last_dir_reply, Some(moved));
        assert_eq!(h.hub.counter("fabric.router.dir_replies"), 4);
        assert_eq!(h.hub.counter("fabric.router.dir_installs"), 3);
    }

    #[test]
    fn dir_reply_memo_holds_only_installed_replies_and_not_across_restore() {
        use lastcpu_snap::{Restore, Snapshot};
        let mut h = Harness::new(RouterConfig::default());
        // Malformed (trailing byte) and non-reply frames from the directory
        // port pass the sniff but must leave the memo alone.
        let mut torn = reply_bytes(1, &[("m0/nic0", 10)]);
        torn.push(0);
        h.frame(DIR_PORT, torn);
        h.frame(DIR_PORT, DirMsg::Query { epoch_hint: 0 }.encode());
        assert_eq!(h.router.last_dir_reply, None);
        assert_eq!(h.router.stats().dir_replies, 0);

        h.install(&[("m0/nic0", 10)]);
        let good = reply_bytes(h.epoch, &[("m0/nic0", 10)]);
        assert_eq!(h.router.last_dir_reply.as_ref(), Some(&good));

        // The memo is not in the snapshot, and restoring clears it: the
        // first reply afterwards decodes, finds nothing changed, and
        // re-arms the memo.
        let bytes = h.router.snapshot_bytes();
        h.router.restore_bytes("router", &bytes).expect("restores");
        assert_eq!(h.router.last_dir_reply, None);
        assert_eq!(h.router.snapshot_bytes(), bytes);
        h.frame(DIR_PORT, good.clone());
        assert_eq!(h.router.stats().dir_replies, 2);
        assert_eq!(h.router.stats().dir_installs, 1);
        assert_eq!(h.router.last_dir_reply, Some(good));
    }

    #[test]
    fn get_retry_skips_the_just_timed_out_target() {
        // Reproduces the rotation bug: a directory epoch reorders the
        // replica list between dispatch and retry, so the blind
        // `reps[attempts % len]` lands back on the endpoint that just timed
        // out. Static policy — the skip is a bugfix on every arm.
        let cfg = RouterConfig {
            replication: 2,
            policy: RetryPolicy::Static,
            ..RouterConfig::default()
        };
        // Find a key whose replica list under {A,B} starts with A, and
        // under {A,B,C} is exactly [C, A] — then attempt 1 of the rotation
        // picks index 1 = A, the target that just timed out.
        let ring_of = |names: &[&str]| {
            let mut ring = HashRing::new(cfg.vnodes);
            for n in names {
                ring.insert(n);
            }
            ring
        };
        let (a, b, c) = ("m0/nic0", "m1/nic0", "m2/nic0");
        let two = ring_of(&[a, b]);
        let three = ring_of(&[a, b, c]);
        let key = (0u32..10_000)
            .map(|i| format!("key{i}").into_bytes())
            .find(|k| two.replicas(k, 2) == vec![a, b] && three.replicas(k, 2) == vec![c, a])
            .expect("such a key exists");

        let mut h = Harness::new(cfg);
        h.install(&[(a, 10), (b, 11)]);
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequest::Get {
                id: 1,
                key: key.clone(),
            }
            .encode(),
        );
        assert_eq!(subs_sent(&acts), {
            let sent = subs_sent(&acts);
            assert_eq!(sent[0].0, PortId(10), "initial dispatch goes to A");
            sent
        });
        // C joins; A stays alive so nothing is force-redispatched.
        h.install(&[(a, 10), (b, 11), (c, 12)]);
        // Let the sub to A time out (base 5 ms, attempts 0) and sweep.
        let acts = h.tick_after(SimDuration::from_micros(6000));
        let sent = subs_sent(&acts);
        assert_eq!(sent.len(), 1, "one retry issued");
        assert_ne!(sent[0].0, PortId(10), "retry must not re-target A");
        assert_eq!(sent[0].0, PortId(12), "rotation skip lands on C");
        assert_eq!(h.router.stats().failovers, 1);
    }

    #[test]
    fn busy_ack_defers_redispatch_under_adaptive_policy() {
        let cfg = RouterConfig {
            policy: RetryPolicy::AdaptiveP2c,
            ..RouterConfig::default()
        };
        let tick = cfg.tick;
        let backoff = cfg.busy_backoff;
        assert!(
            backoff > tick,
            "test relies on the deferral spanning a tick"
        );
        let mut h = Harness::new(cfg);
        h.install(&[("m0/nic0", 10)]);
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequest::Put {
                id: 1,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }
            .encode(),
        );
        let sent = subs_sent(&acts);
        assert_eq!(sent.len(), 1);
        let sub_id = sent[0].1.id();

        // The server reports Busy with a shallow queue.
        h.frame(PortId(10), KvsResponse::busy(sub_id, 3).encode());
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
        // adaptive arm must keep retrying at the backpressure cadence —
        // bounded fail-overs, no give-ups — instead of burning the whole
        // retry budget tick by tick.
        let cfg = RouterConfig {
            policy: RetryPolicy::AdaptiveP2c,
            ..RouterConfig::default()
        };
        let tick = cfg.tick;
        let backoff = cfg.busy_backoff;
        let mut h = Harness::new(cfg);
        h.install(&[("m0/nic0", 10)]);
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequest::Put {
                id: 1,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }
            .encode(),
        );
        let mut last_sub = subs_sent(&acts)[0].1.id();

        let storm_rounds = 10;
        for _ in 0..storm_rounds {
            // Deep queue: depth 512 stretches the deferral window.
            h.frame(PortId(10), KvsResponse::busy(last_sub, 512).encode());
            // Sweep every tick until the deferral expires and a reissue
            // appears; the window is depth-scaled, so allow several ticks.
            let mut reissued = None;
            for _ in 0..64 {
                let acts = h.tick_after(tick);
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
            KvsResponse {
                id: last_sub,
                status: KvsStatus::Ok,
                value: vec![],
            }
            .encode(),
        );
        let st = h.router.stats();
        assert_eq!(st.give_ups, 0, "backpressure must not exhaust the budget");
        assert_eq!(st.failovers, storm_rounds, "one fail-over per storm round");
        assert_eq!(st.busy_deferrals, storm_rounds);
        assert!(h.router.acked_put_keys().contains(&b"k".to_vec()));
        let _ = backoff;
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
            policy: RetryPolicy,
            load: &Load,
            reps: &[String],
            attempts: u32,
            avoid: &BTreeSet<String>,
            now: SimTime,
        ) -> String {
            let n = reps.len();
            let start = attempts as usize % n;
            let rotation: Vec<&String> = (0..n).map(|i| &reps[(start + i) % n]).collect();
            let fresh: Vec<&String> = rotation
                .iter()
                .copied()
                .filter(|t| !avoid.contains(*t))
                .collect();
            let cands = if fresh.is_empty() { rotation } else { fresh };
            if policy.congestion_aware() && cands.len() >= 2 {
                let (a, b) = (cands[0], cands[1]);
                if load_score(load, b, now) < load_score(load, a, now) {
                    return b.clone();
                }
            }
            cands[0].clone()
        }

        /// The PUT fan-out: replicas without a sub yet, in issue order.
        pub fn fan_out(
            policy: RetryPolicy,
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
            if policy.congestion_aware() {
                missing.sort_by(|a, b| {
                    load_score(load, a, now)
                        .cmp(&load_score(load, b, now))
                        .then_with(|| a.cmp(b))
                });
            }
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
            /// Over random replica lists, attempts, avoid sets, sub sets
            /// and load tables, under both policies: the GET target and the
            /// PUT fan-out order are the oracle's.
            #[test]
            fn selection_matches_the_oracle(
                order in proptest::collection::vec(0u8..6, 1..7),
                attempts in 0u32..9,
                avoid_mask in 0u8..64,
                sub_mask in 0u8..64,
                table in proptest::collection::vec((0u8..6, 0u32..3, 0u64..3, 0u64..3), 0..7),
                adaptive in any::<bool>(),
            ) {
                // A replica list has distinct members, in ring (any) order.
                let mut ids = order;
                let mut seen = 0u8;
                ids.retain(|i| {
                    let first = seen & (1 << i) == 0;
                    seen |= 1 << i;
                    first
                });
                let policy = if adaptive { RetryPolicy::AdaptiveP2c } else { RetryPolicy::Static };
                let now = SimTime::from_nanos(1);
                let masked = |mask: u8| -> BTreeSet<String> {
                    (0..6).filter(|i| mask & (1 << i) != 0).map(name).collect()
                };
                let (avoid, have_sub) = (masked(avoid_mask), masked(sub_mask));
                let mut router = ShardRouterHost::new(RouterConfig { policy, ..RouterConfig::default() });
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

                let got = router.choose_get_target(&handles, attempts, |t| avoid.contains(t), now);
                prop_assert_eq!(
                    &**got,
                    oracle::choose_get_target(policy, &load, &reps, attempts, &avoid, now)
                );

                handles.retain(|rep| !have_sub.contains(&**rep));
                router.order_fan_out(&mut handles, now);
                let got: Vec<&str> = handles.iter().map(|n| &**n).collect();
                prop_assert_eq!(got, oracle::fan_out(policy, &load, &reps, &have_sub, now));
            }
        }
    }

    #[test]
    fn p2c_picks_the_less_loaded_replica() {
        let cfg = RouterConfig {
            replication: 2,
            policy: RetryPolicy::AdaptiveP2c,
            ..RouterConfig::default()
        };
        let mut h = Harness::new(cfg);
        h.install(&[("m0/nic0", 10), ("m1/nic0", 11)]);
        // First GET: both replicas idle, tie keeps rotation order.
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequest::Get {
                id: 1,
                key: b"k".to_vec(),
            }
            .encode(),
        );
        let first = subs_sent(&acts)[0].0;
        // Second GET for the same key while the first sub is outstanding:
        // p2c must pick the other replica.
        let acts = h.frame(
            CLIENT_PORT,
            KvsRequest::Get {
                id: 2,
                key: b"k".to_vec(),
            }
            .encode(),
        );
        let second = subs_sent(&acts)[0].0;
        assert_ne!(first, second, "p2c spreads load across the replica pair");
    }
}
