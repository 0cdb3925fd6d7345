//! Closed-loop KVS workload generator.
//!
//! A [`KvsClientHost`] is a client machine on the network: it keeps a fixed
//! number of requests outstanding (closed loop), draws keys from a Zipfian
//! distribution and operations from a read/write mix — the YCSB knobs — and
//! records end-to-end latencies into the system stats registry.

use lastcpu_net::{Frame, PortId};
use lastcpu_sim::critpath::{op_key, STAGE_CLIENT_DONE, STAGE_CLIENT_ISSUE};
use lastcpu_sim::{costs, DetHashMap, MetricsHub, SimDuration, SimTime, Zipf};

use lastcpu_bus::wire::Wire;
use lastcpu_core::{HostCtx, NetHost};

use crate::proto::{encode_get_into, encode_put_into, KvsRequestRef, KvsResponseRef, KvsStatus};

/// Retry/progress timer token.
const TOKEN_TICK: u64 = 1;

/// Workload parameters.
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
    /// Request timeout: outstanding requests older than this are counted as
    /// lost and reissued (closed-loop recovery after server failures).
    pub timeout: SimDuration,
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
            timeout: costs::KVS_CLIENT_TIMEOUT,
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
    /// id → (sent_at, is_read).
    outstanding: DetHashMap<u64, (SimTime, bool)>,
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
        self.outstanding.insert(id, (ctx.now, true));
        let mut buf = ctx.take_buf();
        encode_get_into(id, key, buf.vec_mut());
        ctx.net_tx(self.server, buf);
    }

    /// Issues a PUT with a `fill`-byte value, encoding straight into a
    /// pooled buffer (the value materializes in a reusable scratch).
    fn send_put(&mut self, ctx: &mut HostCtx<'_>, id: u64, key: &[u8], fill: u8) {
        self.outstanding.insert(id, (ctx.now, false));
        self.value_scratch.clear();
        self.value_scratch.resize(self.config.value_size, fill);
        let mut buf = ctx.take_buf();
        encode_put_into(id, key, &self.value_scratch, buf.vec_mut());
        ctx.net_tx(self.server, buf);
    }

    fn issue_one(&mut self, ctx: &mut HostCtx<'_>) {
        let id = self.next_id;
        self.next_id += 1;
        let mut kb = [0u8; 23];
        match self.phase {
            Phase::Loading => {
                let key = Self::key_encode(self.load_next, &mut kb);
                self.load_next += 1;
                self.send_put(ctx, id, key, 0xAB);
            }
            Phase::Running => {
                let k = self.zipf.sample(ctx.rng());
                let key = Self::key_encode(k, &mut kb);
                let is_read = ctx.rng().chance(self.config.read_fraction);
                if is_read {
                    self.send_get(ctx, id, key);
                } else {
                    self.send_put(ctx, id, key, 0xCD);
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
                    ctx.set_timer(self.config.timeout, TOKEN_TICK);
                    self.fill_pipeline(ctx);
                }
            }
            Phase::Running => {
                while self.outstanding.len() < self.config.outstanding
                    && self.ops_issued < self.config.total_ops
                {
                    self.issue_one(ctx);
                }
                if self.ops_done >= self.config.total_ops && self.outstanding.is_empty() {
                    self.phase = Phase::Done;
                    self.finished_at = Some(ctx.now);
                    ctx.trace(format_args!(
                        "workload done: {} ops, {} errors",
                        self.ops_done, self.errors
                    ));
                }
            }
            _ => {}
        }
    }

    fn probe(&mut self, ctx: &mut HostCtx<'_>) {
        // A 1-byte GET; any non-Busy answer means the server is up.
        let id = self.next_id;
        self.next_id += 1;
        self.outstanding.insert(id, (ctx.now, true));
        let probe = KvsRequestRef::Get { id, key: b"probe" };
        ctx.net_tx(self.server, probe.encode());
        ctx.set_timer(costs::KVS_CLIENT_PROBE, TOKEN_TICK);
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
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        // Borrowed decode: the client never needs an owned copy of the
        // value bytes, so the hot completion path is allocation-free.
        let Some(resp) = KvsResponseRef::decode(&frame.payload) else {
            return;
        };
        let Some((sent_at, is_read)) = self.outstanding.remove(&resp.id) else {
            return;
        };
        match self.phase {
            Phase::Probing => {
                if matches!(resp.status, KvsStatus::Busy | KvsStatus::Unavailable) {
                    // Not up yet (or recovering); the tick timer re-probes.
                    return;
                }
                self.phase = if self.config.preload {
                    Phase::Loading
                } else {
                    self.started_at = Some(ctx.now);
                    Phase::Running
                };
                ctx.set_timer(self.config.timeout, TOKEN_TICK);
                self.fill_pipeline(ctx);
            }
            Phase::Loading => {
                match resp.status {
                    KvsStatus::Ok => {}
                    KvsStatus::Busy => {
                        // Reload this key later; simplest is to append it
                        // again at the end of the load range.
                        self.busy_rejections += 1;
                        self.load_next = self.load_next.saturating_sub(1);
                    }
                    KvsStatus::Unavailable => {
                        // Server failed over mid-load; reload the key once
                        // recovery completes.
                        self.unavailable_rejections += 1;
                        self.load_next = self.load_next.saturating_sub(1);
                    }
                    _ => self.errors += 1,
                }
                self.fill_pipeline(ctx);
            }
            Phase::Running => {
                let latency = ctx.now.since(sent_at);
                let met = &self.met;
                match resp.status {
                    KvsStatus::Ok | KvsStatus::NotFound => {
                        self.ops_done += 1;
                        ctx.stage(
                            STAGE_CLIENT_DONE,
                            op_key(ctx.port.0, resp.id),
                            latency.as_nanos(),
                        );
                        met.latency.record(latency);
                        if is_read {
                            met.get_latency.record(latency);
                            met.gets.incr();
                        } else {
                            met.put_latency.record(latency);
                            met.puts.incr();
                        }
                    }
                    KvsStatus::Busy => {
                        self.busy_rejections += 1;
                        self.ops_done += 1;
                        // Back off: refill on the next tick instead of
                        // hammering a shedding server at wire speed.
                        return;
                    }
                    KvsStatus::Unavailable => {
                        // Explicit degradation: the server lost its backing
                        // store and is re-running discovery. Count the op as
                        // done (no latency sample) and back off until the
                        // next tick — recovery takes bus round-trips, not
                        // wire time.
                        self.unavailable_rejections += 1;
                        self.ops_done += 1;
                        met.unavailable.incr();
                        return;
                    }
                    KvsStatus::Error => {
                        self.errors += 1;
                        self.ops_done += 1;
                    }
                }
                self.fill_pipeline(ctx);
            }
            Phase::Done => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token != TOKEN_TICK {
            return;
        }
        match self.phase {
            Phase::Probing => {
                self.outstanding.clear();
                self.probe(ctx);
            }
            Phase::Loading | Phase::Running => {
                // Expire lost requests (e.g. they died with a failed
                // server) so the closed loop keeps moving.
                let deadline = self.config.timeout;
                let now = ctx.now;
                let before = self.outstanding.len();
                self.outstanding
                    .retain(|_, (sent, _)| now.since(*sent) < deadline);
                let lost = (before - self.outstanding.len()) as u64;
                self.timeouts += lost;
                if self.phase == Phase::Running {
                    // Timed-out ops count as done (with no latency sample)
                    // so workloads terminate even across failures.
                    self.ops_done += lost;
                }
                if self.phase == Phase::Loading {
                    self.load_next = self.load_next.saturating_sub(lost);
                }
                self.fill_pipeline(ctx);
                if self.phase != Phase::Done {
                    ctx.set_timer(self.config.timeout, TOKEN_TICK);
                }
            }
            Phase::Done => {}
        }
    }
}

lastcpu_snap::tags! { Phase { Probing = 0, Loading = 1, Running = 2, Done = 3 } }

// Excluded: `met` (live MetricsHub handles), `value_scratch` (refilled on
// every issue) and `zipf` (rebuilt from the config).
lastcpu_snap::fields! { KvsClientHost |self| {
    server, config.keys, config.theta, config.read_fraction, config.value_size,
    config.outstanding, config.total_ops, config.preload, config.timeout, config.stats_prefix,
    phase, next_id, outstanding, load_next, ops_done, ops_issued, errors, busy_rejections,
    unavailable_rejections, timeouts, started_at, finished_at,
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
}
