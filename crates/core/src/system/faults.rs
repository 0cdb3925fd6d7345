//! §4 "Error Handling" and the E4 fault matrix: taking devices down,
//! mangling their wire, noticing silence, and bringing them back.
//!
//! Five causes take a device down — [`System::kill_device`], the liveness
//! sweep, the `Crash` and `Hang` faults, and `Action::Halt` in `slots` — and
//! they differ on purpose in who clears the inbox and who forgets the
//! device's pending RPCs. [`System::take_down`] is the one place that does
//! it; its `match` is DESIGN.md §8's table.

use std::sync::Arc;

use lastcpu_bus::bus::DeviceState;
use lastcpu_bus::{DeviceId, Envelope};
use lastcpu_iommu::{AccessKind, IommuFault, IommuFaultKind};
use lastcpu_mem::{Pasid, VirtAddr, PAGE_SIZE};
use lastcpu_sim::{CorrId, DetRng, FaultKind, SimDuration, SimTime, TraceData};

use super::{DeviceHandle, Event, System};

/// Why a device goes down: one row each of DESIGN.md §8's table.
pub(super) enum TakeDown {
    /// [`System::kill_device`], the operator's kill.
    Kill { permanent: bool, corr: CorrId },
    /// The liveness sweep found its heartbeat lapsed.
    Lapsed,
    /// `FaultKind::Crash`.
    Crash,
    /// `FaultKind::Hang`.
    Hang,
    /// The firmware's own `Action::Halt`.
    Halt { reason: String, corr: CorrId },
}

impl System {
    /// Kills a device now. With `permanent = false` the bus's reset attempt
    /// revives it after [`crate::SystemConfig::reset_latency`]; with
    /// `permanent = true` the device stays dead (§4 "if the entire device
    /// fails").
    pub fn kill_device(&mut self, h: DeviceHandle, permanent: bool) {
        let now = self.now();
        let corr = self.fresh_corr();
        self.slots[h.idx].permanently_dead = permanent;
        self.take_down(h.idx, now, TakeDown::Kill { permanent, corr });
    }

    /// Takes slot `idx` down at `now`. Every cause halts the device and
    /// stamps `down_since`; what else happens is the row `how` selects.
    pub(super) fn take_down(&mut self, idx: usize, now: SimTime, how: TakeDown) {
        let id = self.slots[idx].id;
        let tracing = self.trace.is_enabled();
        let record =
            |corr, detail: std::fmt::Arguments<'_>| tracing.then(|| (corr, detail.to_string()));
        // (clears inbox, forgets the device's tracked RPCs, tells the bus,
        // trace record) — DESIGN.md §8.
        let (clear_inbox, forget_rpcs, tell_bus, record) = match how {
            TakeDown::Kill { permanent, corr } => {
                let detail = format_args!("device {id} killed (permanent={permanent})");
                (true, true, true, record(corr, detail))
            }
            // The reset pulse clears the inbox; the bus already marked the
            // device failed, in `check_liveness`.
            TakeDown::Lapsed => (false, false, false, None),
            TakeDown::Crash if self.slots[idx].permanently_dead => return,
            // Loud: `DeviceFailed` broadcast + reset pulse, and recovery
            // replays the Figure-2 init.
            TakeDown::Crash => (true, true, true, None),
            // Silent: the device just stops. Only the heartbeat liveness
            // sweep can detect this, which is the point of the fault.
            TakeDown::Hang => (true, false, false, None),
            TakeDown::Halt { reason, corr } => {
                let detail = format_args!("{id} halted: {reason}");
                (true, false, true, record(corr, detail))
            }
        };
        let slot = &mut self.slots[idx];
        slot.halted = true;
        if clear_inbox {
            slot.inbox.clear();
        }
        if slot.faults.down_since.is_none() {
            slot.faults.down_since = Some(now);
        }
        if forget_rpcs {
            if let Some(rpc) = self.rpc.as_mut() {
                rpc.tracker.forget_requester(id);
            }
        }
        if let Some((corr, detail)) = record {
            self.trace.emit_data(
                now,
                self.sources.fault.clone(),
                corr,
                TraceData::DeviceFault {
                    device: self.slots[idx].id_name.clone(),
                    detail,
                },
            );
        }
        if tell_bus {
            let mut fx = Vec::new();
            // Cannot fail: `id` is a slot of this system.
            let _ = self.bus.mark_failed(id, &mut fx);
            self.apply_bus_effects(now, &mut fx);
        }
    }

    /// Applies one scheduled fault-plan injection.
    pub(super) fn apply_fault(&mut self, now: SimTime, i: usize) {
        let ev = self.fault_events[i].clone();
        let Some(idx) = self.slots.iter().position(|s| s.device.name() == ev.target) else {
            return;
        };
        self.met.faults_injected.incr();
        let corr = self.fresh_corr();
        if self.trace.is_enabled() {
            self.trace.emit_data(
                now,
                self.sources.fault.clone(),
                corr,
                TraceData::DeviceFault {
                    device: self.slots[idx].name.clone(),
                    detail: format!("inject {} on {}", ev.kind.tag(), ev.target),
                },
            );
        }
        match ev.kind {
            FaultKind::Drop { count } => self.slots[idx].faults.drop_rem += count,
            FaultKind::Corrupt { count } => {
                self.slots[idx].faults.corrupt_rem += count;
                if let Some(plan) = self.config.fault_plan.as_ref() {
                    self.slots[idx].faults.corrupt_rng = Some(plan.stream(i as u64));
                }
            }
            FaultKind::Delay { count, extra_ns } => {
                let f = &mut self.slots[idx].faults;
                f.delay_rem += count;
                f.delay_extra = SimDuration::from_nanos(extra_ns.max(f.delay_extra.as_nanos()));
            }
            FaultKind::Crash => self.take_down(idx, now, TakeDown::Crash),
            FaultKind::Hang => self.take_down(idx, now, TakeDown::Hang),
            FaultKind::SlowDown { factor, for_ns } => {
                let f = &mut self.slots[idx].faults;
                f.slow_factor = factor.max(1);
                f.slow_until = now + SimDuration::from_nanos(for_ns);
            }
            FaultKind::IommuStorm { count } => {
                // A burst of spurious translation faults the device firmware
                // must service (§4: devices handle their own faults).
                for k in 0..count {
                    let fault = IommuFault {
                        pasid: Pasid(0),
                        va: VirtAddr::new(k as u64 * PAGE_SIZE),
                        access: AccessKind::Read,
                        kind: IommuFaultKind::NotMapped,
                    };
                    self.dispatch(idx, now, corr, move |d, ctx| d.on_fault(ctx, fault));
                }
                self.slots[idx].met.iommu_faults.add(count as u64);
                self.met.iommu_faults.add(count as u64);
            }
        }
    }

    /// Applies armed wire faults for slot `idx` to a message touching it
    /// (as sender or recipient). Returns `None` when the message is
    /// consumed (dropped, or corrupted beyond decoding), otherwise the
    /// possibly-corrupted envelope plus any extra latency.
    pub(super) fn wire_fault_filter(
        &mut self,
        now: SimTime,
        idx: usize,
        env: Arc<Envelope>,
    ) -> Option<(Arc<Envelope>, SimDuration)> {
        let f = &mut self.slots[idx].faults;
        if f.drop_rem == 0 && f.corrupt_rem == 0 && f.delay_rem == 0 {
            return Some((env, SimDuration::ZERO)); // fast path: nothing armed
        }
        if f.drop_rem > 0 {
            f.drop_rem -= 1;
            self.met.msgs_dropped.incr();
            if self.trace.is_enabled() {
                self.trace.emit_data(
                    now,
                    self.sources.fault.clone(),
                    env.corr,
                    TraceData::Text(format!("dropped {} on the wire", env.payload.kind_name())),
                );
            }
            return None;
        }
        if f.corrupt_rem > 0 {
            f.corrupt_rem -= 1;
            let rng = f.corrupt_rng.get_or_insert_with(|| DetRng::new(0xC0_22_09));
            // The corruption point is the one place on the delivery path
            // that genuinely needs the frame bytes (to flip a wire bit and
            // re-run the FNV-1a frame check); everywhere else sizes come
            // from `encoded_len()` without materializing the frame.
            let mut bytes = env.encode();
            let bit = rng.below(bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.met.msgs_corrupted.incr();
            let corr = env.corr;
            let kind = env.payload.kind_name();
            return match Envelope::decode(&bytes) {
                Ok(corrupted) => {
                    // Survived the frame check (astronomically unlikely with
                    // the FCS, but handled): delivered as a *different*
                    // message; the endpoint validation layers must cope.
                    if self.trace.is_enabled() {
                        self.trace.emit_data(
                            now,
                            self.sources.fault.clone(),
                            corr,
                            TraceData::Text(format!(
                                "corrupted {kind} -> {}",
                                corrupted.payload.kind_name()
                            )),
                        );
                    }
                    Some((self.bus.envelopes().share(corrupted), SimDuration::ZERO))
                }
                Err(_) => {
                    // The envelope's frame check sequence catches the flip;
                    // the receiver discards the frame, so on the wire this is
                    // a drop — the sender's RPC timeout retransmits.
                    self.met.msgs_dropped.incr();
                    if self.trace.is_enabled() {
                        self.trace.emit_data(
                            now,
                            self.sources.fault.clone(),
                            corr,
                            TraceData::Text(format!("corrupted {kind}; frame check dropped it")),
                        );
                    }
                    None
                }
            };
        }
        // delay_rem > 0
        f.delay_rem -= 1;
        let extra = f.delay_extra;
        self.met.msgs_delayed.incr();
        Some((env, extra))
    }

    /// The periodic heartbeat scan: devices the bus declares lapsed halt
    /// here too, and the scan re-arms itself.
    pub(super) fn liveness_sweep(&mut self, now: SimTime) {
        let mut fx = Vec::new();
        let lapsed = self.bus.check_liveness(now, &mut fx);
        for id in lapsed {
            if let Some(idx) = self.slot_of(id) {
                self.take_down(idx, now, TakeDown::Lapsed);
            }
        }
        self.apply_bus_effects(now, &mut fx);
        if let Some(interval) = self.config.liveness_interval {
            self.queue.schedule_in(interval, Event::Liveness);
        }
    }

    /// A reset pulse reaches a device: unless it is permanently dead it
    /// restarts with empty state and re-registers.
    pub(super) fn reset_device(&mut self, idx: usize, now: SimTime, corr: CorrId) {
        if self.slots[idx].permanently_dead {
            return;
        }
        self.slots[idx].halted = false;
        self.slots[idx].busy_until = now;
        self.slots[idx].inbox.clear();
        self.met.device_resets.incr();
        self.dispatch(idx, now, corr, |d, ctx| d.on_reset(ctx));
    }

    /// Records the down-to-alive latency of a device whose `Hello` just
    /// brought it back to the bus's `Alive` state after a fault.
    pub(super) fn note_possible_recovery(&mut self, now: SimTime, src: DeviceId) {
        let Some(idx) = self.slot_of(src) else {
            return;
        };
        let Some(t0) = self.slots[idx].faults.down_since else {
            return;
        };
        let alive = self
            .bus
            .device(src)
            .map(|e| e.state == DeviceState::Alive)
            .unwrap_or(false);
        if !alive {
            return;
        }
        let lat = now.since(t0);
        self.slots[idx].met.recovery_latency.record(lat);
        self.slots[idx].faults.down_since = None;
        if self.trace.is_enabled() {
            let name = &self.slots[idx].name;
            self.trace.emit_data(
                now,
                self.sources.fault.clone(),
                CorrId::NONE,
                TraceData::Text(format!("{name} recovered after {lat}")),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{base_system, small_fs};
    use super::*;
    use crate::config::SystemConfig;
    use lastcpu_devices::auth::AuthDevice;
    use lastcpu_devices::console::ConsoleDevice;
    use lastcpu_devices::monitor::AuthMode;
    use lastcpu_devices::ssd::{SmartSsd, SsdConfig};

    #[test]
    fn killed_device_is_fenced_and_revived_by_reset() {
        let mut sys = base_system();
        sys.add_memctl("memctl0");
        let auth = sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(1));
        assert_eq!(sys.bus().alive().count(), 2);
        sys.kill_device(auth, false);
        assert_eq!(sys.bus().alive().count(), 1);
        // The bus reset pulse revives it; it re-registers via Hello.
        sys.run_for(SimDuration::from_millis(5));
        assert_eq!(sys.bus().alive().count(), 2);
        assert_eq!(sys.stats().counter("system.device_resets"), 1);
    }

    #[test]
    fn permanent_kill_stays_dead() {
        let mut sys = base_system();
        sys.add_memctl("memctl0");
        let auth = sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(1));
        sys.kill_device(auth, true);
        sys.run_for(SimDuration::from_millis(10));
        assert_eq!(sys.bus().alive().count(), 1);
    }

    #[test]
    fn crash_fault_recovers_and_records_latency() {
        use lastcpu_sim::{FaultKind, FaultPlan};
        let mut plan = FaultPlan::new(1);
        plan.inject(
            SimTime::ZERO + SimDuration::from_millis(2),
            "auth0",
            FaultKind::Crash,
        );
        let mut sys = System::new(SystemConfig {
            fault_plan: Some(plan),
            ..SystemConfig::default()
        });
        sys.add_memctl("memctl0");
        sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(20));
        assert_eq!(sys.bus().alive().count(), 2, "crashed device re-registered");
        assert_eq!(sys.stats().counter("fault.injected"), 1);
        let h = sys
            .stats()
            .histogram("bus.auth0.recovery_latency")
            .expect("histogram registered");
        assert_eq!(h.count(), 1, "one recovery recorded");
        assert!(
            h.mean() >= sys.config.reset_latency,
            "recovery >= reset pulse"
        );
    }

    #[test]
    fn hang_fault_is_detected_by_liveness_and_recovered() {
        use lastcpu_sim::{FaultKind, FaultPlan};
        let mut plan = FaultPlan::new(1);
        plan.inject(
            SimTime::ZERO + SimDuration::from_millis(3),
            "auth0",
            FaultKind::Hang,
        );
        let mut sys = System::new(SystemConfig {
            fault_plan: Some(plan),
            // The hang is silent: only the heartbeat sweep can notice.
            liveness_interval: Some(SimDuration::from_millis(2)),
            ..SystemConfig::default()
        });
        sys.add_memctl("memctl0");
        sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        // Default heartbeat timeout is 10ms; detection needs hang + lapse.
        sys.run_for(SimDuration::from_millis(40));
        assert_eq!(sys.bus().alive().count(), 2, "hung device recovered");
        let h = sys
            .stats()
            .histogram("bus.auth0.recovery_latency")
            .expect("histogram registered");
        assert_eq!(h.count(), 1);
        assert!(
            h.mean() >= SimDuration::from_millis(10),
            "silent hang detection is bounded below by the heartbeat timeout, got {}",
            h.mean()
        );
    }

    #[test]
    fn faulty_run_replays_bit_identically() {
        use lastcpu_bus::RetryConfig;
        use lastcpu_sim::{FaultPlan, SimTime as T};
        let run = || {
            let plan = FaultPlan::generate(
                99,
                &["auth0", "console0", "ssd0"],
                T::ZERO,
                SimDuration::from_millis(30),
                12,
            );
            let mut sys = System::new(SystemConfig {
                fault_plan: Some(plan),
                rpc_retry: Some(RetryConfig::default()),
                ..SystemConfig::default()
            });
            let memctl = sys.add_memctl("memctl0");
            sys.add_device(Box::new(AuthDevice::new("auth0", 0xFEED, &[("op", "pw")])));
            let mut fs = small_fs();
            fs.create("/l").unwrap();
            fs.write("/l", 0, &vec![7u8; 3000]).unwrap();
            sys.add_device(Box::new(SmartSsd::new(
                "ssd0",
                fs,
                SsdConfig {
                    exports: vec!["/l".into()],
                    file_auth: AuthMode::Sealed { secret: 0xFEED },
                    ..SsdConfig::default()
                },
            )));
            sys.add_device(Box::new(ConsoleDevice::new(
                "console0", memctl.id, "op", "pw", "/l",
            )));
            sys.power_on();
            sys.run_for(SimDuration::from_millis(40));
            (
                sys.now(),
                sys.trace().total_emitted(),
                sys.stats().counter("fault.injected"),
                sys.stats().counter("fault.msgs_dropped"),
                sys.stats().counter("bus.rpc_retries"),
                sys.stats().counter("system.device_resets"),
                sys.bus().stats().messages,
            )
        };
        assert_eq!(run(), run());
    }
}
