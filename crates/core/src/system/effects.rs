//! Applying what the bus decided: deliveries, and the privileged IOMMU
//! writes of §2.2 "Address Translation".
//!
//! The bus crate returns intentions ([`BusEffect`]); this module is the
//! hardware that carries them out. A `MapInstruction` programs the target's
//! IOMMU one hop plus bus processing after it was accepted — strictly before
//! any two-hop response can reach the requester, so a device never sees
//! "allocation succeeded" while its mapping is pending.

use std::sync::Arc;

use lastcpu_bus::{BusEffect, Envelope, Payload};
use lastcpu_mem::{MapError, Pasid, Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use lastcpu_sim::{CorrId, SimTime, TraceData};

use super::{Event, System};

impl System {
    /// Hands one message to the bus and applies what it decides.
    pub(super) fn bus_msg(&mut self, now: SimTime, env: Arc<Envelope>) {
        self.met.bus_messages.incr();
        if self.trace.is_enabled() {
            if let Payload::Hello { name, kind } = &env.payload {
                self.trace.emit_data(
                    now,
                    self.sources.bus.clone(),
                    env.corr,
                    TraceData::BusRegister {
                        device: format!("{name} ({kind})"),
                    },
                );
            }
        }
        let src = env.src;
        let corr = env.corr;
        let was_hello = matches!(env.payload, Payload::Hello { .. });
        let mut fx = std::mem::take(&mut self.bus_fx);
        self.bus.handle(now, env, &mut fx);
        self.drain_bus_audit(now, corr);
        self.apply_bus_effects(now, &mut fx);
        self.bus_fx = fx;
        if was_hello {
            self.note_possible_recovery(now, src);
        }
    }

    /// Carries out, in order, everything the bus appended to `fx`, leaving
    /// it empty.
    pub(super) fn apply_bus_effects(&mut self, now: SimTime, fx: &mut Vec<BusEffect>) {
        for effect in fx.drain(..) {
            match effect {
                BusEffect::Deliver { to, env, latency } => {
                    let mut lat = latency;
                    if let Some(link) = self.shared_link.as_mut() {
                        lat += link.occupy(now, env.encoded_len() as u64);
                    }
                    if let Some(idx) = self.slot_of(to) {
                        // Destination-side wire faults: a reply eaten here
                        // must *not* complete the tracker — the requester
                        // never saw it.
                        let Some((env, extra)) = self.wire_fault_filter(now, idx, env) else {
                            continue;
                        };
                        if env.payload.is_reply() {
                            if let Some(rpc) = self.rpc.as_mut() {
                                rpc.tracker.complete(to, env.req, &env.payload);
                            }
                        }
                        self.queue
                            .schedule_at(now + lat + extra, Event::Deliver { idx, env });
                    }
                }
                BusEffect::ProgramMap {
                    device,
                    pasid,
                    va,
                    pa,
                    pages,
                    perms,
                    corr,
                } => {
                    if let Some(idx) = self.slot_of(device) {
                        if self.trace.is_enabled() {
                            self.trace.emit_data(
                                now,
                                self.sources.bus.clone(),
                                corr,
                                TraceData::DmaGrant {
                                    to: self.slots[idx].id_name.clone(),
                                    pages,
                                    writable: perms & 2 != 0,
                                },
                            );
                        }
                        // The privileged write lands after one hop plus bus
                        // processing — strictly before any 2-hop response.
                        let lat =
                            self.config.bus_cost.hop_latency + self.config.bus_cost.processing;
                        self.queue.schedule_at(
                            now + lat,
                            Event::Map {
                                idx,
                                pasid,
                                va,
                                pa,
                                pages,
                                perms,
                                corr,
                            },
                        );
                    }
                }
                BusEffect::ProgramUnmap {
                    device,
                    pasid,
                    va,
                    pages,
                    corr,
                } => {
                    if let Some(idx) = self.slot_of(device) {
                        let lat =
                            self.config.bus_cost.hop_latency + self.config.bus_cost.processing;
                        self.queue.schedule_at(
                            now + lat,
                            Event::Unmap {
                                idx,
                                pasid,
                                va,
                                pages,
                                corr,
                            },
                        );
                    }
                }
                BusEffect::ResetDevice { device, corr } => {
                    if let Some(idx) = self.slot_of(device) {
                        self.queue
                            .schedule_in(self.config.reset_latency, Event::Reset { idx, corr });
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // Mirrors the wire-level Map request.
    pub(super) fn apply_map(
        &mut self,
        idx: usize,
        pasid: u32,
        va: u64,
        pa: u64,
        pages: u64,
        perms: u8,
        corr: CorrId,
    ) {
        let slot = &mut self.slots[idx];
        let perms = Perms::from_bits(perms);
        slot.iommu.bind_pasid(Pasid(pasid));
        for i in 0..pages {
            let va_i = VirtAddr::new(va + i * PAGE_SIZE);
            let pa_i = PhysAddr::new(pa + i * PAGE_SIZE);
            match slot.iommu.map(Pasid(pasid), va_i, pa_i, perms) {
                Ok(()) => {}
                Err(MapError::AlreadyMapped { .. }) => {
                    // Idempotent re-grant (e.g. a share retried after a
                    // failure broadcast raced with it): refresh permissions.
                    let _ = slot.iommu.protect(Pasid(pasid), va_i, perms);
                }
                Err(e) => {
                    if self.trace.is_enabled() {
                        self.trace.emit_data(
                            self.queue.now(),
                            self.sources.bus.clone(),
                            corr,
                            TraceData::MapFailure {
                                error: format!("{e}"),
                            },
                        );
                    }
                    self.met.map_failures.incr();
                    return;
                }
            }
        }
        self.met.pages_mapped.add(pages);
        if self.trace.is_enabled() {
            self.trace.emit_data(
                self.queue.now(),
                self.sources.bus.clone(),
                corr,
                TraceData::IommuMap {
                    device: slot.id_name.clone(),
                    pasid,
                    va,
                    pa,
                    pages,
                    perms: perms.as_str(),
                },
            );
        }
    }

    pub(super) fn apply_unmap(
        &mut self,
        idx: usize,
        pasid: u32,
        va: u64,
        pages: u64,
        corr: CorrId,
    ) {
        let slot = &mut self.slots[idx];
        let mut removed = 0;
        for i in 0..pages {
            let va_i = VirtAddr::new(va + i * PAGE_SIZE);
            if slot.iommu.unmap(Pasid(pasid), va_i).is_ok() {
                removed += 1;
            }
        }
        self.met.pages_unmapped.add(removed);
        if self.trace.is_enabled() {
            self.trace.emit_data(
                self.queue.now(),
                self.sources.bus.clone(),
                corr,
                TraceData::IommuUnmap {
                    device: slot.id_name.clone(),
                    pasid,
                    va,
                    pages: removed,
                },
            );
        }
    }
}
