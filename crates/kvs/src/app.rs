//! The KVS offloaded onto the smart NIC (the CPU-less deployment).

use lastcpu_devices::monitor::MonitorEvent;
use lastcpu_devices::nic::{NicApp, NicEnv};
use lastcpu_mem::Pasid;
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::Bytes;

use crate::proto::KvsRequestRef;
use crate::server::{KvsServer, ServerConfig, ServerState, ServerStats};

/// The NIC-hosted KVS application.
pub struct KvsNicApp {
    server: KvsServer,
    /// Reused response scratch: the server appends `(dst, payload)` pairs
    /// here and `transmit` drains them, so steady-state request handling
    /// never allocates an output vector.
    out: Vec<(PortId, Bytes)>,
}

impl KvsNicApp {
    /// Creates the app; it will run in address space `pasid`.
    pub fn new(config: ServerConfig, pasid: Pasid) -> Self {
        KvsNicApp {
            server: KvsServer::new(config, pasid),
            out: Vec::new(),
        }
    }

    /// Server lifecycle state.
    pub fn state(&self) -> ServerState {
        self.server.state()
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Live keys.
    pub fn key_count(&self) -> usize {
        self.server.key_count()
    }

    /// Whether `key` is live in the index (rack-audit hook).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.server.contains(key)
    }

    /// Enables or disables the server's zero-alloc GET fast path (test
    /// hook; see [`KvsServer::set_fast_path`]).
    pub fn set_fast_path(&mut self, on: bool) {
        self.server.set_fast_path(on);
    }

    fn transmit(env: &mut NicEnv<'_, '_>, responses: &mut Vec<(PortId, Bytes)>) {
        let Some(port) = env.ctx.port else {
            responses.clear();
            return;
        };
        for (dst, payload) in responses.drain(..) {
            env.ctx.net_tx(Frame::unicast(port, dst, payload));
        }
    }
}

impl NicApp for KvsNicApp {
    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Snapshot::snapshot(self, w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Restore::restore(self, r)
    }

    fn app_name(&self) -> &str {
        "kvs"
    }

    fn on_start(&mut self, env: &mut NicEnv<'_, '_>) {
        self.server.start(env.ctx, env.monitor);
    }

    fn on_net(&mut self, env: &mut NicEnv<'_, '_>, frame: Frame) {
        let Some(req) = KvsRequestRef::decode(&frame.payload) else {
            // Not our protocol; a real NIC would fall through to the next
            // classifier. Drop.
            return;
        };
        if let Some(port) = env.ctx.port {
            // Cache-hit GETs — the dominant shape — are answered without
            // materializing an owned request or an intermediate Vec: the
            // response serializes into a pooled buffer whose storage
            // recycles when the client consumes the reply frame.
            let _sp = lastcpu_sim::profile::span("kvs.app.fast_get");
            let mut buf = env.ctx.take_buf();
            if self.server.try_fast_get(env.ctx, &req, buf.vec_mut()) {
                env.ctx.net_tx(Frame::unicast(port, frame.src, buf));
                return;
            }
        }
        // Everything else — PUTs, misses, and any request arriving while
        // the storage queue is full or others wait — is served from the
        // frame it arrived in; one that must wait is copied into the
        // server's backlog as wire bytes. The frame's buffer goes back to
        // the pool when this handler returns, as it always did.
        let _sp = lastcpu_sim::profile::span("kvs.app.enqueue");
        let mut out = std::mem::take(&mut self.out);
        debug_assert!(out.is_empty());
        self.server.on_request(env.ctx, frame.src, req, &mut out);
        Self::transmit(env, &mut out);
        self.out = out;
    }

    fn on_event(&mut self, env: &mut NicEnv<'_, '_>, ev: MonitorEvent) {
        let mut out = std::mem::take(&mut self.out);
        debug_assert!(out.is_empty());
        self.server.on_event(env.ctx, env.monitor, &ev, &mut out);
        Self::transmit(env, &mut out);
        self.out = out;
    }

    fn on_reset(&mut self) {
        // Device reset loses all volatile state; the index would be rebuilt
        // on the next start. (The server is recreated by the system
        // assembler in recovery experiments.)
    }
}

impl lastcpu_snap::Snapshot for KvsNicApp {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        // `out` is drained within the same delivery, so only the server
        // carries durable state.
        self.server.snapshot(w);
    }
}

impl lastcpu_snap::Restore for KvsNicApp {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.server.restore(r)
    }
}
