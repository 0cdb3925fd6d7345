//! Closed-loop KVS workload generator.
//!
//! A [`KvsClientHost`] is a client machine on the network: it keeps a fixed
//! number of requests outstanding (closed loop), draws keys from a Zipfian
//! distribution and operations from a read/write mix — the YCSB knobs — and
//! records end-to-end latencies into the system stats registry.
//!
//! The client handles its own lost requests, and never polls. Each request
//! has a deadline: its send instant plus `kvs.client_timeout`, or plus
//! `kvs.client_probe` for the probe that waits for the server to come up.
//! The client keeps one wake-up armed, no later than its earliest
//! deadline; when it fires, every request past its deadline counts as
//! lost and the wake-up is armed again at the next deadline, so a client
//! with nothing outstanding arms none. A lost preload PUT is sent again
//! with its own key; a lost measured op counts as done with no latency
//! sample, so a workload ends even across failures.

use lastcpu_net::{Frame, PortId};
use lastcpu_sim::critpath::{op_key, STAGE_CLIENT_DONE, STAGE_CLIENT_ISSUE};
use lastcpu_sim::{costs, DetHashMap, MetricsHub, SimDuration, SimTime, Zipf};

use lastcpu_bus::wire::Wire;
use lastcpu_core::{HostCtx, NetHost};

use crate::proto::{encode_get_into, encode_put_into, KvsRequestRef, KvsResponseRef, KvsStatus};

/// Wake-up timer token.
const TOKEN_WAKE: u64 = 1;

/// Workload parameters. A request's lifetime is not one of them: it is
/// the `kvs.client_timeout` cost row, at which the shard router also gives
/// a request up.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of distinct keys; at least 1.
    pub keys: u64,
    /// Zipfian skew in `[0, 1)`: 0 is uniform, YCSB's default is 0.99.
    /// [`KvsClientHost::new`] panics on a value outside that range (the
    /// generator is undefined at 1 and above; see [`Zipf::try_new`]).
    pub theta: f64,
    /// Fraction of GETs (rest are PUTs).
    pub read_fraction: f64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Requests kept outstanding (closed loop).
    pub outstanding: usize,
    /// Total operations to run (after load phase).
    pub total_ops: u64,
    /// Pre-load every key once before measuring.
    pub preload: bool,
    /// Stats key prefix, e.g. `"client0"`.
    pub stats_prefix: String,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            keys: 1000,
            theta: 0.99,
            read_fraction: 0.95,
            value_size: 128,
            outstanding: 8,
            total_ops: 2000,
            preload: true,
            stats_prefix: "client".into(),
        }
    }
}

/// Workload phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the server to come up (probing).
    Probing,
    /// Inserting every key once.
    Loading,
    /// Measuring.
    Running,
    /// Finished.
    Done,
}

/// What an outstanding request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sent {
    /// The probe that waits for the server to come up.
    Probe,
    /// A preload PUT of key number `key`.
    Load { key: u64 },
    /// A measured GET.
    Get,
    /// A measured PUT.
    Put,
}

impl Sent {
    /// How long the request may go unanswered before it counts as lost.
    fn lifetime(self) -> SimDuration {
        match self {
            Sent::Probe => costs::KVS_CLIENT_PROBE,
            Sent::Load { .. } | Sent::Get | Sent::Put => costs::KVS_CLIENT_TIMEOUT,
        }
    }
}

lastcpu_sim::instruments! {
    /// The client's instruments, registered when its machine adds it,
    /// under its stats prefix; until then they feed no hub. `latency` also
    /// feeds the copy under the `kvs.` subsystem, so a metrics snapshot
    /// always exposes the KVS layer.
    #[derive(Default)]
    struct ClientMetrics(prefix: &str) {
        latency: histogram "{prefix}.latency" "kvs.{prefix}.latency",
        get_latency: histogram "{prefix}.get_latency",
        put_latency: histogram "{prefix}.put_latency",
        gets: counter "kvs.{prefix}.gets",
        puts: counter "kvs.{prefix}.puts",
        /// Measured operations answered `Unavailable` (the loading phase's
        /// are in `unavailable_rejections` only).
        unavailable: counter "kvs.{prefix}.unavailable",
    }
}

/// The client machine.
pub struct KvsClientHost {
    server: PortId,
    config: WorkloadConfig,
    /// Key sampler for `config.keys` / `config.theta`. Derived state:
    /// rebuilt on restore, never snapshotted.
    zipf: Zipf,
    met: ClientMetrics,
    phase: Phase,
    next_id: u64,
    /// id → (send instant, what was sent).
    outstanding: DetHashMap<u64, (SimTime, Sent)>,
    /// When the armed wake-up fires: never later than an outstanding
    /// deadline, and `None` only while nothing is outstanding. A timer
    /// that fires at another instant was replaced by an earlier one.
    wake_at: Option<SimTime>,
    load_next: u64,
    ops_done: u64,
    ops_issued: u64,
    errors: u64,
    busy_rejections: u64,
    unavailable_rejections: u64,
    timeouts: u64,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    /// Reusable PUT-value buffer: refilled per issue, so the steady-state
    /// loop never allocates for values.
    value_scratch: Vec<u8>,
}

impl KvsClientHost {
    /// Creates a client aimed at the KVS frontend on `server`.
    ///
    /// # Panics
    ///
    /// Panics if `config.keys` is 0 or `config.theta` is outside `[0, 1)`.
    pub fn new(server: PortId, config: WorkloadConfig) -> Self {
        KvsClientHost {
            server,
            zipf: Zipf::new(config.keys, config.theta),
            config,
            met: ClientMetrics::default(),
            phase: Phase::Probing,
            next_id: 1,
            outstanding: DetHashMap::default(),
            wake_at: None,
            load_next: 0,
            ops_done: 0,
            ops_issued: 0,
            errors: 0,
            busy_rejections: 0,
            unavailable_rejections: 0,
            timeouts: 0,
            started_at: None,
            finished_at: None,
            value_scratch: Vec::new(),
        }
    }

    /// Whether the workload completed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Operations completed in the measured phase.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Error responses observed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// `Busy` responses observed (server shed load).
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections
    }

    /// `Unavailable` responses observed (server failed over / recovering).
    pub fn unavailable_rejections(&self) -> u64 {
        self.unavailable_rejections
    }

    /// Requests that timed out (lost with a failed server).
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Measured-phase wall time, once done.
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finished_at?.since(self.started_at?))
    }

    /// When the measured phase began.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// When the measured phase ended.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Throughput in ops per virtual second, once done.
    pub fn throughput(&self) -> Option<f64> {
        let e = self.elapsed()?;
        if e == SimDuration::ZERO {
            return None;
        }
        Some(self.ops_done as f64 / (e.as_nanos() as f64 / 1e9))
    }

    /// Formats `key{k:08}` into `buf` without allocating (the zero-pad
    /// widens for keys past eight digits, matching `format!`). 23 bytes is
    /// "key" plus the 20 digits of `u64::MAX`.
    fn key_encode(k: u64, buf: &mut [u8; 23]) -> &[u8] {
        let mut digits = 1usize;
        let mut t = k;
        while t >= 10 {
            t /= 10;
            digits += 1;
        }
        let len = 3 + digits.max(8);
        buf[..3].copy_from_slice(b"key");
        let mut v = k;
        for b in buf[3..len].iter_mut().rev() {
            *b = b'0' + (v % 10) as u8;
            v /= 10;
        }
        &buf[..len]
    }

    #[cfg(test)]
    fn key_bytes(k: u64) -> Vec<u8> {
        let mut buf = [0u8; 23];
        Self::key_encode(k, &mut buf).to_vec()
    }

    /// Issues a GET, encoding straight into a pooled buffer.
    fn send_get(&mut self, ctx: &mut HostCtx<'_>, id: u64, key: &[u8]) {
        self.outstanding.insert(id, (ctx.now, Sent::Get));
        let mut buf = ctx.take_buf();
        encode_get_into(id, key, buf.vec_mut());
        ctx.net_tx(self.server, buf);
    }

    /// Issues a PUT with a `fill`-byte value, encoding straight into a
    /// pooled buffer (the value materializes in a reusable scratch).
    fn send_put(&mut self, ctx: &mut HostCtx<'_>, id: u64, key: &[u8], fill: u8, sent: Sent) {
        self.outstanding.insert(id, (ctx.now, sent));
        self.value_scratch.clear();
        self.value_scratch.resize(self.config.value_size, fill);
        let mut buf = ctx.take_buf();
        encode_put_into(id, key, &self.value_scratch, buf.vec_mut());
        ctx.net_tx(self.server, buf);
    }

    /// Issues the preload PUT of key number `k`: the first one, or again
    /// after it failed or was lost.
    fn send_load(&mut self, ctx: &mut HostCtx<'_>, k: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let mut kb = [0u8; 23];
        let key = Self::key_encode(k, &mut kb);
        self.send_put(ctx, id, key, 0xAB, Sent::Load { key: k });
    }

    fn issue_one(&mut self, ctx: &mut HostCtx<'_>) {
        match self.phase {
            Phase::Loading => {
                let k = self.load_next;
                self.load_next += 1;
                self.send_load(ctx, k);
            }
            Phase::Running => {
                let id = self.next_id;
                self.next_id += 1;
                let mut kb = [0u8; 23];
                let k = self.zipf.sample(ctx.rng());
                let key = Self::key_encode(k, &mut kb);
                let is_read = ctx.rng().chance(self.config.read_fraction);
                if is_read {
                    self.send_get(ctx, id, key);
                } else {
                    self.send_put(ctx, id, key, 0xCD, Sent::Put);
                }
                ctx.stage(STAGE_CLIENT_ISSUE, op_key(ctx.port.0, id), is_read as u64);
                self.ops_issued += 1;
            }
            _ => {}
        }
    }

    fn fill_pipeline(&mut self, ctx: &mut HostCtx<'_>) {
        match self.phase {
            Phase::Loading => {
                while self.outstanding.len() < self.config.outstanding
                    && self.load_next < self.config.keys
                {
                    self.issue_one(ctx);
                }
                if self.load_next >= self.config.keys && self.outstanding.is_empty() {
                    self.phase = Phase::Running;
                    self.started_at = Some(ctx.now);
                    self.fill_pipeline(ctx);
                }
            }
            Phase::Running => {
                while self.outstanding.len() < self.config.outstanding
                    && self.ops_issued < self.config.total_ops
                {
                    self.issue_one(ctx);
                }
                self.finish_if_done(ctx);
            }
            _ => {}
        }
    }

    /// Ends the measured phase once every op is done and none is out.
    fn finish_if_done(&mut self, ctx: &mut HostCtx<'_>) {
        if self.ops_done >= self.config.total_ops && self.outstanding.is_empty() {
            self.phase = Phase::Done;
            self.finished_at = Some(ctx.now);
            ctx.trace(format_args!(
                "workload done: {} ops, {} errors",
                self.ops_done, self.errors
            ));
        }
    }

    fn probe(&mut self, ctx: &mut HostCtx<'_>) {
        // A 1-byte GET; any non-Busy answer means the server is up.
        let id = self.next_id;
        self.next_id += 1;
        self.outstanding.insert(id, (ctx.now, Sent::Probe));
        let probe = KvsRequestRef::Get { id, key: b"probe" };
        ctx.net_tx(self.server, probe.encode());
    }

    /// Arms the wake-up at `at`, unless one is armed no later.
    fn wake_by(&mut self, ctx: &mut HostCtx<'_>, at: SimTime) {
        if !matches!(self.wake_at, Some(w) if w <= at) {
            self.wake_at = Some(at);
            ctx.set_timer(at.since(ctx.now), TOKEN_WAKE);
        }
    }

    /// Arms the wake-up at the earliest outstanding deadline if none is
    /// armed. An armed one needs no moving as requests come and go: it is
    /// no later than any deadline (a request sent after it was armed ends
    /// later), and when it fires it arms the next.
    fn keep_armed(&mut self, ctx: &mut HostCtx<'_>) {
        if self.wake_at.is_none() {
            let deadlines = self.outstanding.values();
            if let Some(at) = deadlines.map(|&(at, sent)| at + sent.lifetime()).min() {
                self.wake_by(ctx, at);
            }
        }
    }

    /// Counts every request past its deadline as lost. A lost preload PUT
    /// goes out again with its own key; a lost measured op counts as done
    /// with no latency sample.
    fn expire(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now;
        let before = self.outstanding.len();
        let mut reload = Vec::new();
        self.outstanding.retain(|&id, &mut (at, sent)| {
            let live = now < at + sent.lifetime();
            if let (false, Sent::Load { key }) = (live, sent) {
                reload.push((id, key));
            }
            live
        });
        let lost = (before - self.outstanding.len()) as u64;
        self.timeouts += lost;
        if self.phase == Phase::Running {
            self.ops_done += lost;
        }
        // In send order, so the new ids do not hang on the map's layout.
        reload.sort_unstable();
        for (_, key) in reload {
            self.send_load(ctx, key);
        }
    }
}

impl NetHost for KvsClientHost {
    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Snapshot::snapshot(self, w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Restore::restore(self, r)
    }

    fn name(&self) -> &str {
        &self.config.stats_prefix
    }

    fn attach(&mut self, stats: &MetricsHub) {
        self.met = ClientMetrics::register(stats, &self.config.stats_prefix);
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.probe(ctx);
        self.keep_armed(ctx);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        // Borrowed decode: the client never needs an owned copy of the
        // value bytes, so the hot completion path is allocation-free.
        let Some(resp) = KvsResponseRef::decode(&frame.payload) else {
            return;
        };
        let Some((sent_at, sent)) = self.outstanding.remove(&resp.id) else {
            return;
        };
        match self.phase {
            Phase::Probing => {
                // `Busy` or `Unavailable`: not up yet (or recovering), and
                // the probe's wake-up probes again.
                if !matches!(resp.status, KvsStatus::Busy | KvsStatus::Unavailable) {
                    self.phase = if self.config.preload {
                        Phase::Loading
                    } else {
                        self.started_at = Some(ctx.now);
                        Phase::Running
                    };
                    self.fill_pipeline(ctx);
                }
            }
            Phase::Loading => {
                match (resp.status, sent) {
                    (KvsStatus::Ok, _) => {}
                    (KvsStatus::Busy, Sent::Load { key }) => {
                        self.busy_rejections += 1;
                        self.send_load(ctx, key);
                    }
                    // The server failed over mid-load.
                    (KvsStatus::Unavailable, Sent::Load { key }) => {
                        self.unavailable_rejections += 1;
                        self.send_load(ctx, key);
                    }
                    _ => self.errors += 1,
                }
                self.fill_pipeline(ctx);
            }
            Phase::Running => {
                let latency = ctx.now.since(sent_at);
                let met = &self.met;
                self.ops_done += 1;
                let refill = match resp.status {
                    KvsStatus::Ok | KvsStatus::NotFound => {
                        ctx.stage(
                            STAGE_CLIENT_DONE,
                            op_key(ctx.port.0, resp.id),
                            latency.as_nanos(),
                        );
                        met.latency.record(latency);
                        if sent == Sent::Get {
                            met.get_latency.record(latency);
                            met.gets.incr();
                        } else {
                            met.put_latency.record(latency);
                            met.puts.incr();
                        }
                        true
                    }
                    KvsStatus::Busy => {
                        self.busy_rejections += 1;
                        false
                    }
                    // Explicit degradation: the server lost its backing
                    // store and is re-running discovery. The op counts as
                    // done with no latency sample.
                    KvsStatus::Unavailable => {
                        self.unavailable_rejections += 1;
                        met.unavailable.incr();
                        false
                    }
                    KvsStatus::Error => {
                        self.errors += 1;
                        true
                    }
                };
                if refill {
                    self.fill_pipeline(ctx);
                } else {
                    // Back off instead of hammering a shedding or
                    // recovering server at wire speed: recovery takes bus
                    // round-trips, not wire time.
                    self.finish_if_done(ctx);
                    if self.phase != Phase::Done {
                        self.wake_by(ctx, ctx.now + costs::KVS_CLIENT_PROBE);
                    }
                }
            }
            Phase::Done => {}
        }
        self.keep_armed(ctx);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token != TOKEN_WAKE || self.wake_at != Some(ctx.now) {
            return;
        }
        self.wake_at = None;
        match self.phase {
            Phase::Probing => {
                self.outstanding.clear();
                self.probe(ctx);
            }
            Phase::Loading | Phase::Running => {
                self.expire(ctx);
                self.fill_pipeline(ctx);
            }
            Phase::Done => {}
        }
        self.keep_armed(ctx);
    }
}

lastcpu_snap::tags! { Phase { Probing = 0, Loading = 1, Running = 2, Done = 3 } }

lastcpu_snap::variants! { Sent { Probe = 0 {}, Load = 1 { key }, Get = 2 {}, Put = 3 {} } }

// Excluded: `met` (live MetricsHub handles), `value_scratch` (refilled on
// every issue) and `zipf` (rebuilt from the config).
lastcpu_snap::fields! { KvsClientHost |self| {
    server, config.keys, config.theta, config.read_fraction, config.value_size,
    config.outstanding, config.total_ops, config.preload, config.stats_prefix,
    phase, next_id, outstanding, wake_at, load_next, ops_done, ops_issued, errors,
    busy_rejections, unavailable_rejections, timeouts, started_at, finished_at,
} restored |r| {
    self.zipf = Zipf::try_new(self.config.keys, self.config.theta).map_err(|e| r.corrupt(e))?;
} }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_bytes_are_stable_and_distinct() {
        assert_eq!(KvsClientHost::key_bytes(1), b"key00000001".to_vec());
        assert_ne!(KvsClientHost::key_bytes(1), KvsClientHost::key_bytes(2));
    }

    #[test]
    fn key_encode_matches_format_macro() {
        for k in [
            0,
            1,
            9,
            10,
            99_999_999,
            100_000_000,
            1_234_567_890,
            u64::MAX,
        ] {
            let mut buf = [0u8; 23];
            assert_eq!(
                KvsClientHost::key_encode(k, &mut buf),
                format!("key{k:08}").as_bytes(),
                "key {k}"
            );
        }
    }

    #[test]
    fn fresh_client_is_not_done() {
        let c = KvsClientHost::new(PortId(1), WorkloadConfig::default());
        assert!(!c.is_done());
        assert_eq!(c.ops_done(), 0);
        assert!(c.throughput().is_none());
    }

    // --- direct-drive harness -------------------------------------------

    const SERVER_PORT: PortId = PortId(2);
    const CLIENT_PORT: PortId = PortId(5);

    struct Harness {
        client: KvsClientHost,
        hub: MetricsHub,
        pool: lastcpu_sim::BufPool,
        rng: lastcpu_sim::DetRng,
        now: SimTime,
    }

    impl Harness {
        /// A started client: its probe is out.
        fn new(config: WorkloadConfig) -> Harness {
            let mut h = Harness {
                client: KvsClientHost::new(SERVER_PORT, config),
                hub: MetricsHub::new(),
                pool: lastcpu_sim::BufPool::new(),
                rng: lastcpu_sim::DetRng::new(7),
                now: SimTime::ZERO,
            };
            h.client.attach(&h.hub);
            h.call(|c, ctx| c.on_start(ctx));
            h
        }

        fn call(
            &mut self,
            f: impl FnOnce(&mut KvsClientHost, &mut HostCtx<'_>),
        ) -> Vec<HostAction> {
            let mut ctx = HostCtx::new(
                self.now,
                CLIENT_PORT,
                &self.hub,
                &mut self.rng,
                lastcpu_sim::CorrId::NONE,
                &self.pool,
            );
            f(&mut self.client, &mut ctx);
            ctx.finish()
        }

        /// Answers request `id` with `status` at `at`.
        fn answer(&mut self, at: SimTime, id: u64, status: KvsStatus) -> Vec<HostAction> {
            self.now = at;
            let resp = KvsResponseRef {
                id,
                status,
                value: &[],
            };
            let frame = Frame::unicast(SERVER_PORT, CLIENT_PORT, resp.encode());
            self.call(|c, ctx| c.on_frame(ctx, frame))
        }

        /// Fires the timer armed for `at`.
        fn fire(&mut self, at: SimTime) -> Vec<HostAction> {
            self.now = at;
            self.call(|c, ctx| c.on_timer(ctx, TOKEN_WAKE))
        }
    }

    use lastcpu_core::HostAction;

    /// The instants the timers in `actions` were armed for, seen from `now`.
    fn wakes(now: SimTime, actions: &[HostAction]) -> Vec<SimTime> {
        let at = |a: &HostAction| match a {
            HostAction::SetTimer { delay, token } if *token == TOKEN_WAKE => Some(now + *delay),
            _ => None,
        };
        actions.iter().filter_map(at).collect()
    }

    /// The requests in `actions` as `(id, key, is_put)`.
    fn sent(actions: &[HostAction]) -> Vec<(u64, Vec<u8>, bool)> {
        let req = |a: &HostAction| match a {
            HostAction::NetTx(f) => match KvsRequestRef::decode(&f.payload)? {
                KvsRequestRef::Get { id, key } => Some((id, key.to_vec(), false)),
                KvsRequestRef::Put { id, key, .. } => Some((id, key.to_vec(), true)),
            },
            _ => None,
        };
        actions.iter().filter_map(req).collect()
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    #[test]
    fn a_lost_request_counts_at_its_send_instant_plus_the_client_timeout() {
        let mut h = Harness::new(WorkloadConfig {
            keys: 4,
            outstanding: 2,
            total_ops: 4,
            preload: false,
            ..WorkloadConfig::default()
        });
        let probe_due = SimTime::ZERO + costs::KVS_CLIENT_PROBE;
        assert_eq!(h.client.wake_at, Some(probe_due));
        // The probe is answered: ops 2 and 3 go out at 10 us and arm
        // nothing, since the probe's wake-up comes sooner.
        let acts = h.answer(us(10), 1, KvsStatus::NotFound);
        assert_eq!(sent(&acts).iter().map(|s| s.0).collect::<Vec<_>>(), [2, 3]);
        assert!(wakes(h.now, &acts).is_empty());
        // Op 2 is answered and op 4 replaces it at 50 us.
        let acts = h.answer(us(50), 2, KvsStatus::Ok);
        assert_eq!(sent(&acts).len(), 1);
        // The probe's wake-up finds nothing due and arms op 3's deadline.
        let acts = h.fire(probe_due);
        assert!(sent(&acts).is_empty());
        let op3_due = us(10) + costs::KVS_CLIENT_TIMEOUT;
        assert_eq!(wakes(h.now, &acts), [op3_due]);
        assert_eq!((h.client.timeouts(), h.client.ops_done()), (0, 1));
        // Op 3 is never answered: at its deadline it counts as lost and
        // done, op 5 goes out, and the wake-up moves to op 4's deadline.
        let acts = h.fire(op3_due);
        assert_eq!((h.client.timeouts(), h.client.ops_done()), (1, 2));
        assert_eq!(sent(&acts).iter().map(|s| s.0).collect::<Vec<_>>(), [5]);
        assert_eq!(wakes(h.now, &acts), [us(50) + costs::KVS_CLIENT_TIMEOUT]);
        // Ops 4 and 5 are answered: the client is done, and its last
        // wake-up fires with nothing to do and arms no other.
        h.answer(op3_due + SimDuration::from_micros(5), 4, KvsStatus::Ok);
        let acts = h.answer(op3_due + SimDuration::from_micros(9), 5, KvsStatus::Ok);
        assert!(h.client.is_done() && acts.is_empty());
        assert!(h.fire(us(50) + costs::KVS_CLIENT_TIMEOUT).is_empty());
        assert_eq!(h.client.wake_at, None);
    }

    #[test]
    fn a_client_whose_last_op_is_answered_unavailable_is_done_at_that_answer() {
        let mut h = Harness::new(WorkloadConfig {
            keys: 4,
            outstanding: 1,
            total_ops: 2,
            preload: false,
            ..WorkloadConfig::default()
        });
        h.answer(us(10), 1, KvsStatus::NotFound);
        h.answer(us(20), 2, KvsStatus::Ok);
        assert!(!h.client.is_done());
        let acts = h.answer(us(30), 3, KvsStatus::Unavailable);
        assert!(h.client.is_done());
        assert_eq!(h.client.finished_at(), Some(us(30)));
        assert_eq!(h.client.unavailable_rejections(), 1);
        assert!(acts.is_empty(), "{acts:?}");
    }

    #[test]
    fn a_busy_op_backs_off_for_a_probe_interval_then_refills() {
        let mut h = Harness::new(WorkloadConfig {
            keys: 4,
            outstanding: 1,
            total_ops: 2,
            preload: false,
            ..WorkloadConfig::default()
        });
        h.answer(us(10), 1, KvsStatus::NotFound);
        // The probe's wake-up arms op 2's deadline.
        h.fire(SimTime::ZERO + costs::KVS_CLIENT_PROBE);
        let acts = h.answer(us(2_500), 2, KvsStatus::Busy);
        assert!(sent(&acts).is_empty());
        let back_off = us(2_500) + costs::KVS_CLIENT_PROBE;
        assert_eq!(wakes(h.now, &acts), [back_off]);
        let acts = h.fire(back_off);
        assert_eq!(sent(&acts).iter().map(|s| s.0).collect::<Vec<_>>(), [3]);
        let op3_due = back_off + costs::KVS_CLIENT_TIMEOUT;
        assert_eq!(wakes(h.now, &acts), [op3_due]);
        // The timer armed for op 2's deadline, which the back-off replaced,
        // fires with nothing to do.
        assert!(h.fire(us(10) + costs::KVS_CLIENT_TIMEOUT).is_empty());
        assert_eq!((h.client.timeouts(), h.client.wake_at), (0, Some(op3_due)));
    }

    #[test]
    fn a_failed_or_lost_preload_put_is_sent_again_with_its_own_key() {
        let mut h = Harness::new(WorkloadConfig {
            keys: 3,
            outstanding: 2,
            total_ops: 1,
            preload: true,
            ..WorkloadConfig::default()
        });
        let key = KvsClientHost::key_bytes;
        let acts = h.answer(us(10), 1, KvsStatus::NotFound);
        assert_eq!(sent(&acts), [(2, key(0), true), (3, key(1), true)]);
        // Key 1 is refused: it goes out again, not key 2.
        let acts = h.answer(us(20), 3, KvsStatus::Unavailable);
        assert_eq!(sent(&acts), [(4, key(1), true)]);
        let acts = h.answer(us(30), 2, KvsStatus::Ok);
        assert_eq!(sent(&acts), [(5, key(2), true)]);
        // Key 1's second PUT is lost: at its deadline it goes out a third
        // time, and key 2's PUT is still waiting.
        h.fire(SimTime::ZERO + costs::KVS_CLIENT_PROBE);
        let acts = h.fire(us(20) + costs::KVS_CLIENT_TIMEOUT);
        assert_eq!(sent(&acts), [(6, key(1), true)]);
        assert_eq!(h.client.timeouts(), 1);
        // Both answered: the load is complete and the measured op goes out.
        h.answer(us(100_030), 5, KvsStatus::Ok);
        let acts = h.answer(us(100_040), 6, KvsStatus::Ok);
        assert_eq!(sent(&acts).len(), 1);
        assert_eq!(h.client.started_at(), Some(us(100_040)));
    }
}
