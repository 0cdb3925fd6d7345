//! External network hosts.
//!
//! A [`NetHost`] is a machine on the far side of the network — a client
//! driving the KVS, a load generator, an operator's workstation. Hosts are
//! *not* devices: they have no bus address, no IOMMU, no access to anything
//! but their switch port. They exist so workloads enter the system the way
//! the paper describes — "The NIC exposes a KVS interface to other machines
//! over the network" (§3).

use std::fmt;

use lastcpu_net::{Frame, PortId};
use lastcpu_sim::{BufPool, Bytes, CorrId, DetRng, MetricsHub, SimDuration, SimTime};

/// Effects a host queues during a callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostAction {
    /// Transmit a frame.
    NetTx(Frame),
    /// Arm a timer.
    SetTimer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Token returned in `on_timer`.
        token: u64,
    },
    /// Emit a free-form trace record.
    Trace(String),
    /// Emit a critical-path stage mark (see [`lastcpu_sim::critpath`]).
    Stage {
        /// Milestone label (`client.issue`, `router.recv`, …).
        stage: &'static str,
        /// Primary join key.
        id: u64,
        /// Secondary disambiguator.
        aux: u64,
    },
}

/// Execution context of a host callback.
pub struct HostCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The host's switch port.
    pub port: PortId,
    /// Correlation id of the activity this callback belongs to. Frames the
    /// host transmits and timers it arms inherit it.
    pub corr: CorrId,
    /// The system-wide metrics hub (hosts record end-to-end latencies).
    pub stats: &'a MetricsHub,
    /// Whether the system's trace sink is collecting. Hosts use this to
    /// skip building [`HostAction::Trace`] / [`HostAction::Stage`] payloads
    /// on hot paths when nothing would record them.
    pub tracing: bool,
    rng: &'a mut DetRng,
    pool: Option<&'a BufPool>,
    actions: Vec<HostAction>,
}

impl<'a> HostCtx<'a> {
    /// Creates a context. Called by the simulator only.
    pub fn new(
        now: SimTime,
        port: PortId,
        stats: &'a MetricsHub,
        rng: &'a mut DetRng,
        corr: CorrId,
    ) -> Self {
        HostCtx {
            now,
            port,
            corr,
            stats,
            tracing: false,
            rng,
            pool: None,
            actions: Vec::new(),
        }
    }

    /// Marks the context as tracing-enabled (the simulator sets this from
    /// the trace sink's state before each callback).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Attaches the machine's payload-buffer pool (simulator only).
    pub fn with_pool(mut self, pool: &'a BufPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Seeds the action buffer with a reusable scratch `Vec` (simulator
    /// only; the simulator stores the `Vec` back after draining it, so the
    /// per-callback allocation disappears).
    pub fn with_scratch(mut self, actions: Vec<HostAction>) -> Self {
        debug_assert!(actions.is_empty());
        self.actions = actions;
        self
    }

    /// The host's deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// An empty payload buffer, drawn from the machine's pool when one is
    /// attached. Encode into it and pass it to [`HostCtx::net_tx`]; the
    /// storage recycles when the frame is consumed at the receiver.
    pub fn take_buf(&self) -> Bytes {
        match self.pool {
            Some(p) => p.take(),
            None => Bytes::new(),
        }
    }

    /// A payload buffer pre-filled with `len` copies of `byte` (pooled when
    /// a pool is attached).
    pub fn take_buf_filled(&self, byte: u8, len: usize) -> Bytes {
        match self.pool {
            Some(p) => p.take_filled(byte, len),
            None => vec![byte; len].into(),
        }
    }

    /// Queues a frame for transmission.
    pub fn net_tx(&mut self, dst: PortId, payload: impl Into<Bytes>) {
        let frame = Frame::unicast(self.port, dst, payload);
        self.actions.push(HostAction::NetTx(frame));
    }

    /// Arms a timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(HostAction::SetTimer { delay, token });
    }

    /// Emits a free-form trace record: `ctx.trace(format_args!(..))`. The
    /// line is formatted only while the trace sink is collecting.
    pub fn trace(&mut self, what: fmt::Arguments<'_>) {
        if self.tracing {
            self.actions.push(HostAction::Trace(what.to_string()));
        }
    }

    /// Emits a critical-path stage mark. A no-op while the trace sink is
    /// disabled, so per-operation marks cost performance runs nothing.
    #[inline]
    pub fn stage(&mut self, stage: &'static str, id: u64, aux: u64) {
        if self.tracing {
            self.actions.push(HostAction::Stage { stage, id, aux });
        }
    }

    /// Consumes the context. Called by the simulator only.
    pub fn finish(self) -> Vec<HostAction> {
        self.actions
    }
}

/// A machine on the network.
///
/// The `Any` supertrait lets the simulator hand back typed references for
/// workload inspection.
pub trait NetHost: std::any::Any {
    /// Host name (for traces).
    fn name(&self) -> &str;

    /// Called once at power-on.
    fn on_start(&mut self, ctx: &mut HostCtx<'_>);

    /// A frame arrived on the host's port.
    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame);

    /// A timer armed with [`HostCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _token: u64) {}

    /// Serializes the host's durable state into a checkpoint section
    /// body. Loud default: a host type either implements this or cannot
    /// appear in a checkpointed machine.
    fn snapshot_state(&self, _w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        Err(lastcpu_snap::SnapError::Unsupported(format!(
            "host {:?}",
            self.name()
        )))
    }

    /// Loads state written by [`NetHost::snapshot_state`] back in place.
    fn restore_state(&mut self, _r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        Err(lastcpu_snap::SnapError::Unsupported(format!(
            "host {:?}",
            self.name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queues_actions_in_order() {
        let stats = MetricsHub::new();
        let mut rng = DetRng::new(1);
        let mut ctx = HostCtx::new(SimTime::ZERO, PortId(3), &stats, &mut rng, CorrId::NONE)
            .with_tracing(true);
        ctx.net_tx(PortId(9), vec![1]);
        ctx.set_timer(SimDuration::from_micros(1), 7);
        ctx.trace(format_args!("x"));
        let a = ctx.finish();
        assert!(matches!(&a[0], HostAction::NetTx(f) if f.src == PortId(3) && f.dst == PortId(9)));
        assert!(matches!(a[1], HostAction::SetTimer { token: 7, .. }));
        assert!(matches!(&a[2], HostAction::Trace(_)));
    }

    #[test]
    fn trace_lines_follow_the_tracing_flag() {
        /// Panics if it is ever rendered.
        struct Unformattable;
        impl fmt::Display for Unformattable {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("formatted with tracing off")
            }
        }
        let stats = MetricsHub::new();
        let mut rng = DetRng::new(1);
        let mut off = HostCtx::new(SimTime::ZERO, PortId(3), &stats, &mut rng, CorrId::NONE);
        off.trace(format_args!("{Unformattable}"));
        assert!(off.finish().is_empty(), "lines dropped while not tracing");

        let mut rng = DetRng::new(1);
        let mut on = HostCtx::new(SimTime::ZERO, PortId(3), &stats, &mut rng, CorrId::NONE)
            .with_tracing(true);
        on.trace(format_args!("{} ops", 3));
        assert_eq!(on.finish(), [HostAction::Trace("3 ops".into())]);
    }

    #[test]
    fn stage_marks_follow_the_tracing_flag() {
        let stats = MetricsHub::new();
        let mut rng = DetRng::new(1);
        let mut off = HostCtx::new(SimTime::ZERO, PortId(3), &stats, &mut rng, CorrId::NONE);
        off.stage("client.issue", 1, 2);
        assert!(off.finish().is_empty(), "marks dropped while not tracing");

        let mut rng = DetRng::new(1);
        let mut on = HostCtx::new(SimTime::ZERO, PortId(3), &stats, &mut rng, CorrId::NONE)
            .with_tracing(true);
        on.stage("client.issue", 1, 2);
        let a = on.finish();
        assert!(matches!(
            a[0],
            HostAction::Stage {
                stage: "client.issue",
                id: 1,
                aux: 2
            }
        ));
    }
}
