//! The KVS hosted on the baseline CPU (the conventional deployment).
//!
//! Same [`crate::server::KvsServer`] logic as the NIC deployment, but every
//! request entered the kernel via a NIC interrupt and a copy, and every
//! response leaves through a syscall and another copy — the costs the
//! paper's offload removes. Storage I/O still uses the VIRTIO session; the
//! CPU drives it with its own MMU mappings.

use lastcpu_baseline::{CpuApp, KernelEnv};
use lastcpu_devices::monitor::MonitorEvent;
use lastcpu_mem::Pasid;
use lastcpu_net::PortId;
use lastcpu_sim::Bytes;

use crate::proto::KvsRequestRef;
use crate::server::{KvsServer, ServerConfig, ServerState, ServerStats};

/// The CPU-hosted KVS application.
pub struct KvsCpuApp {
    server: KvsServer,
    /// Reused response scratch (see [`crate::app::KvsNicApp`]).
    out: Vec<(PortId, Bytes)>,
}

impl KvsCpuApp {
    /// Creates the app; kernel memory lives in address space `pasid`.
    pub fn new(config: ServerConfig, pasid: Pasid) -> Self {
        KvsCpuApp {
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

    fn transmit(env: &mut KernelEnv<'_, '_>, responses: &mut Vec<(PortId, Bytes)>) {
        for (dst, payload) in responses.drain(..) {
            // The kernel egress path models a copy anyway (syscall + NIC
            // DMA), so handing over an owned Vec is faithful to it.
            env.send_packet(dst, payload.into_vec());
        }
    }
}

impl CpuApp for KvsCpuApp {
    fn app_name(&self) -> &str {
        "kvs-on-cpu"
    }

    fn on_start(&mut self, env: &mut KernelEnv<'_, '_>) {
        self.server.start(env.ctx, env.monitor);
    }

    fn on_packet(&mut self, env: &mut KernelEnv<'_, '_>, src: PortId, payload: Vec<u8>) {
        if let Some(req) = KvsRequestRef::decode(&payload) {
            let mut out = std::mem::take(&mut self.out);
            debug_assert!(out.is_empty());
            self.server.on_request(env.ctx, src, req, &mut out);
            Self::transmit(env, &mut out);
            self.out = out;
        }
    }

    fn on_event(&mut self, env: &mut KernelEnv<'_, '_>, ev: MonitorEvent) {
        let mut out = std::mem::take(&mut self.out);
        debug_assert!(out.is_empty());
        self.server.on_event(env.ctx, env.monitor, &ev, &mut out);
        Self::transmit(env, &mut out);
        self.out = out;
    }
}

impl lastcpu_snap::Snapshot for KvsCpuApp {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        // `out` is drained within the same delivery, so only the server
        // carries durable state.
        self.server.snapshot(w);
    }
}

impl lastcpu_snap::Restore for KvsCpuApp {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.server.restore(r)
    }
}
