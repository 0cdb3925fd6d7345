//! One device, one thing at a time: the ingress FIFO in front of each
//! slot, the `dispatch` that runs a firmware hook, and `apply_action` that
//! turns what the firmware asked for into events.
//!
//! §2.3: control messages and doorbells travel on separate planes but land
//! in one firmware, which is busy for the service time its handler charged;
//! work arriving meanwhile queues here in arrival order, and a doorbell rung
//! twice while pending coalesces (it is a level-triggered register).

use std::sync::Arc;

use lastcpu_bus::{DeviceId, Dst, Envelope, Payload, RequestId};
use lastcpu_devices::device::{Action, Device, DeviceCtx};
use lastcpu_net::Frame;
use lastcpu_sim::{profile, CorrId, SimTime, TraceData};

use super::faults::TakeDown;
use super::{Event, System};

/// A unit of work waiting in a device's ingress FIFO.
pub(super) enum Work {
    Msg(Arc<Envelope>),
    Timer(u64, CorrId),
    Net(Frame, CorrId),
}

impl System {
    fn slot_busy(&self, idx: usize, now: SimTime) -> bool {
        self.slots[idx].busy_until > now
    }

    /// Ensures one `InboxPop` is pending for the slot, at the time its
    /// firmware frees up.
    fn arm_pop(&mut self, idx: usize, now: SimTime) {
        if self.slots[idx].pop_armed {
            return;
        }
        self.slots[idx].pop_armed = true;
        let at = self.slots[idx].busy_until.max(now);
        self.queue.schedule_at(at, Event::InboxPop(idx));
    }

    /// Routes one unit of work to a device: runs it now if the firmware is
    /// idle and nothing is queued ahead of it, otherwise appends it to the
    /// ingress FIFO.
    pub(super) fn feed(&mut self, idx: usize, now: SimTime, work: Work) {
        if self.slots[idx].halted {
            self.discard(work);
            return;
        }
        if self.slot_busy(idx, now) || !self.slots[idx].inbox.is_empty() {
            // Doorbells are level-triggered registers, not edge queues: a
            // second ring of the same doorbell while the first is still
            // pending coalesces with it (MSI semantics, §2.3). Without
            // this, a tenant ringing per-request floods the ingress FIFO
            // faster than the device drains it.
            if let Work::Msg(ref e) = work {
                if let Payload::Doorbell { conn, value } = e.payload {
                    let dup = self.slots[idx].inbox.iter().any(|w| {
                        matches!(
                            w,
                            Work::Msg(other) if other.src == e.src
                                && other.payload == Payload::Doorbell { conn, value }
                        )
                    });
                    if dup {
                        self.met.doorbells_coalesced.incr();
                        self.discard(work);
                        return;
                    }
                }
            }
            self.slots[idx].inbox.push_back(work);
            self.slots[idx]
                .met
                .inbox_depth
                .set(self.slots[idx].inbox.len() as i64);
            self.arm_pop(idx, now);
            return;
        }
        self.run_work(idx, now, work);
        if !self.slots[idx].inbox.is_empty() {
            self.arm_pop(idx, now);
        }
    }

    /// Drops work that will not run, returning a message's allocation to
    /// the envelope free list.
    fn discard(&mut self, work: Work) {
        if let Work::Msg(env) = work {
            self.bus.envelopes().recycle(env);
        }
    }

    /// Drains the next item from a device's ingress FIFO.
    pub(super) fn inbox_pop(&mut self, idx: usize, now: SimTime) {
        self.slots[idx].pop_armed = false;
        if self.slot_busy(idx, now) {
            // Another same-instant event got in first; try again
            // when the firmware frees up. FIFO order is preserved
            // because the items stay in the inbox.
            self.arm_pop(idx, now);
            return;
        }
        let popped = self.slots[idx].inbox.pop_front();
        self.slots[idx]
            .met
            .inbox_depth
            .set(self.slots[idx].inbox.len() as i64);
        if let Some(work) = popped {
            self.run_work(idx, now, work);
        }
        if !self.slots[idx].inbox.is_empty() {
            self.arm_pop(idx, now);
        }
    }

    /// Executes one unit of work on an idle device.
    fn run_work(&mut self, idx: usize, now: SimTime, work: Work) {
        match work {
            Work::Msg(env) => {
                self.slots[idx].met.msgs.incr();
                self.trace_envelope(now, idx, &env);
                // Devices borrow their message: every recipient of a
                // broadcast reads the one allocation its sender made, and
                // the last one to run hands it back for the next message.
                self.dispatch(idx, now, env.corr, |d, ctx| d.on_message(ctx, &env));
                self.bus.envelopes().recycle(env);
            }
            Work::Timer(token, corr) => {
                self.dispatch(idx, now, corr, move |d, ctx| d.on_timer(ctx, token));
            }
            Work::Net(frame, corr) => {
                self.slots[idx].met.frames_rx.incr();
                self.dispatch(idx, now, corr, move |d, ctx| d.on_net(ctx, frame));
            }
        }
    }

    /// Runs one device hook and applies its effects.
    pub(super) fn dispatch(
        &mut self,
        idx: usize,
        now: SimTime,
        corr: CorrId,
        f: impl FnOnce(&mut dyn Device, &mut DeviceCtx<'_>),
    ) {
        let slot = &mut self.slots[idx];
        if slot.halted {
            return;
        }
        let scratch_actions = std::mem::take(&mut slot.scratch_actions);
        let scratch_faults = std::mem::take(&mut slot.scratch_faults);
        let mut ctx = DeviceCtx::new(
            now,
            slot.id,
            slot.port,
            &mut slot.iommu,
            &mut self.dram,
            &mut slot.rng,
            &mut slot.next_req,
            corr,
            &self.stats,
        )
        .with_tracing(self.trace.is_enabled())
        .with_pool(&self.pool)
        .with_scratch(scratch_actions, scratch_faults);
        f(slot.device.as_mut(), &mut ctx);
        let (mut actions, mut elapsed, mut faults) = ctx.finish();
        if slot.faults.slow_factor > 1 && now < slot.faults.slow_until {
            // An active slow-down fault stretches the firmware's service
            // time (thermal throttling, background housekeeping).
            elapsed = elapsed.saturating_mul(slot.faults.slow_factor as u64);
        }
        slot.busy_until = now + elapsed;
        let t = slot.busy_until;
        slot.met.handler_ns.record(elapsed);
        // The handler's modeled service time is the sim-ns cost of whatever
        // event scope this dispatch ran under.
        profile::charge_sim(elapsed.as_nanos());
        if !faults.is_empty() {
            slot.met.iommu_faults.add(faults.len() as u64);
            self.met.iommu_faults.add(faults.len() as u64);
        }
        self.drain_dma_audit(idx, now, corr);
        {
            // Named sub-scope: allocations while applying device effects
            // (event scheduling, routing) attribute to `engine.apply`
            // instead of the dispatching event's generic scope.
            let _sp = profile::span("engine.apply");
            for a in actions.drain(..) {
                self.apply_action(idx, t, corr, a);
            }
        }
        // Hand the (now empty) scratch buffers back to the slot. No
        // reentrant dispatch happens inside `apply_action` (effects become
        // scheduled events), so the slot's buffers were untouched meanwhile.
        faults.clear();
        let slot = &mut self.slots[idx];
        slot.scratch_actions = actions;
        slot.scratch_faults = faults;
    }

    fn apply_action(&mut self, idx: usize, t: SimTime, corr: CorrId, action: Action) {
        match action {
            Action::SendBus(env) => {
                if self.trace.is_enabled() {
                    let name = self.slots[idx].name.clone();
                    let dst = self.dst_name(env.dst);
                    let data = match &env.payload {
                        Payload::Query { pattern } => TraceData::Discovery {
                            pattern: Arc::clone(pattern),
                            dst,
                        },
                        p => TraceData::BusSend {
                            what: p.kind_name(),
                            dst,
                        },
                    };
                    self.trace.emit_data(t, name, env.corr, data);
                }
                // Arm the retry tracker *before* wire faults apply: the
                // tracker exists precisely to notice lost sends.
                if let Some(rpc) = self.rpc.as_mut() {
                    rpc.tracker.track(t, &env);
                }
                self.arm_rpc_sweep();
                let env = self.bus.envelopes().share(env);
                let Some((env, extra)) = self.wire_fault_filter(t, idx, env) else {
                    return;
                };
                // One hop to the bus; processing/latency modelled by the
                // bus's own cost model when it emits deliveries.
                let mut hop = self.config.bus_cost.hop_latency + extra;
                if let Some(link) = self.shared_link.as_mut() {
                    hop += link.occupy(t, env.encoded_len() as u64);
                    self.met.link_control_msgs.incr();
                }
                self.queue.schedule_at(t + hop, Event::BusMsg(env));
            }
            Action::Doorbell { to, conn, value } => {
                let env = Envelope {
                    src: self.slots[idx].id,
                    dst: Dst::Device(to),
                    req: RequestId(0),
                    corr,
                    payload: Payload::Doorbell { conn, value },
                };
                if self.trace.is_enabled() {
                    let name = self.slots[idx].name.clone();
                    let to = self.id_name(to);
                    self.trace
                        .emit_data(t, name, corr, TraceData::QueueDoorbell { to, value });
                }
                let mut lat = self.config.doorbell_latency;
                if let Some(link) = self.shared_link.as_mut() {
                    lat += link.occupy(t, 8);
                }
                self.met.doorbells.incr();
                if let Some(to_idx) = self.slot_of(to) {
                    let env = self.bus.envelopes().share(env);
                    self.queue
                        .schedule_at(t + lat, Event::Deliver { idx: to_idx, env });
                }
            }
            Action::SetTimer { delay, token } => {
                self.queue
                    .schedule_at(t + delay, Event::Timer { idx, token, corr });
            }
            Action::NetTx(frame) => self.route_frame(t, frame, corr),
            Action::Trace(data) => {
                let name = self.slots[idx].name.clone();
                self.trace.emit_data(t, name, corr, data);
            }
            Action::Stage { stage, id, aux } => {
                let name = self.slots[idx].name.clone();
                self.trace
                    .emit_data(t, name, corr, TraceData::Stage { stage, id, aux });
            }
            Action::Halt { reason } => self.take_down(idx, t, TakeDown::Halt { reason, corr }),
        }
    }

    fn trace_envelope(&mut self, now: SimTime, to_idx: usize, env: &Envelope) {
        if !self.trace.is_enabled() {
            return;
        }
        let to = self.slots[to_idx].name.clone();
        let from = if env.src == DeviceId::BUS {
            self.sources.bus.clone()
        } else {
            match self.slot_of(env.src) {
                Some(i) => self.slots[i].name.clone(),
                None => self.id_name(env.src),
            }
        };
        self.trace.emit_data(
            now,
            from,
            env.corr,
            TraceData::Deliver {
                to,
                kind: env.payload.kind_name(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::base_system;
    use lastcpu_sim::SimDuration;

    #[test]
    fn busy_device_defers_events() {
        // The SSD charges flash latencies; while busy, later messages wait.
        // Covered implicitly by the end-to-end tests; here we check the
        // mechanism directly with two starts of the same device kind.
        let mut sys = base_system();
        sys.add_memctl("memctl0");
        sys.power_on();
        let n = sys.run_for(SimDuration::from_millis(1));
        assert!(n > 0);
    }
}
