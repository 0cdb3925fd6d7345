//! E14 checkpoint / restore: one checksummed section per component, a
//! recipe fingerprint, and restore as deterministic replay verified byte for
//! byte.

use lastcpu_sim::SimTime;
use lastcpu_snap::{Checkpoint, Manifest, SnapError, SnapWriter, Snapshot as _};

use super::{Event, PortOwner, Slot, System, Work};

impl System {
    /// Stable fingerprint of the builder recipe: configuration plus the
    /// device/host lineup. Restore refuses to verify a checkpoint against
    /// a machine built from a different recipe — replay-based restore is
    /// only sound when the re-executed machine starts from the same
    /// construction.
    pub fn config_fingerprint(&self) -> u64 {
        let mut h = lastcpu_snap::fnv1a(format!("{:?}", self.config).as_bytes());
        for s in &self.slots {
            lastcpu_snap::fnv1a_fold(&mut h, s.device.name().as_bytes());
            lastcpu_snap::fnv1a_fold(&mut h, s.device.kind().as_bytes());
        }
        for hs in &self.hosts {
            lastcpu_snap::fnv1a_fold(&mut h, hs.host.name().as_bytes());
        }
        h
    }

    /// Folds one pending event — firing time, tie-break sequence, and full
    /// content — into the queue digest.
    fn fold_event(h: &mut u64, at: SimTime, seq: u64, ev: &Event) {
        let mut w = SnapWriter::new();
        w.put_u64(at.as_nanos());
        w.put_u64(seq);
        match ev {
            Event::Start(i) => {
                w.put_u8(0);
                w.put_len(*i);
            }
            Event::BusMsg(env) => {
                w.put_u8(1);
                w.put_bytes(&env.encode());
            }
            Event::Deliver { idx, env } => {
                w.put_u8(2);
                w.put_len(*idx);
                w.put_bytes(&env.encode());
            }
            Event::Timer { idx, token, corr } => {
                w.put_u8(3);
                w.put_len(*idx);
                w.put_u64(*token);
                w.put_u64(corr.0);
            }
            Event::Map {
                idx,
                pasid,
                va,
                pa,
                pages,
                perms,
                corr,
            } => {
                w.put_u8(4);
                w.put_len(*idx);
                w.put_u32(*pasid);
                w.put_u64(*va);
                w.put_u64(*pa);
                w.put_u64(*pages);
                w.put_u8(*perms);
                w.put_u64(corr.0);
            }
            Event::Unmap {
                idx,
                pasid,
                va,
                pages,
                corr,
            } => {
                w.put_u8(5);
                w.put_len(*idx);
                w.put_u32(*pasid);
                w.put_u64(*va);
                w.put_u64(*pages);
                w.put_u64(corr.0);
            }
            Event::Reset { idx, corr } => {
                w.put_u8(6);
                w.put_len(*idx);
                w.put_u64(corr.0);
            }
            Event::InboxPop(i) => {
                w.put_u8(7);
                w.put_len(*i);
            }
            Event::NetDeliver { port, frame, corr } => {
                w.put_u8(8);
                w.put_u32(port.0);
                w.put_u32(frame.src.0);
                w.put_u32(frame.dst.0);
                w.put_bytes(&frame.payload);
                w.put_u64(corr.0);
            }
            Event::HostStart(i) => {
                w.put_u8(9);
                w.put_len(*i);
            }
            Event::HostTimer { hidx, token, corr } => {
                w.put_u8(10);
                w.put_len(*hidx);
                w.put_u64(*token);
                w.put_u64(corr.0);
            }
            Event::Liveness => w.put_u8(11),
            Event::Fault(i) => {
                w.put_u8(12);
                w.put_len(*i);
            }
            Event::RetryCheck => w.put_u8(13),
        }
        lastcpu_snap::fnv1a_fold(h, &w.into_bytes());
    }

    /// The `engine` section: virtual clock, event cursors, a content digest
    /// of every pending event, and the machine-global odds and ends that
    /// live outside any component (correlation allocator, shared link,
    /// tunnel state, fault schedule).
    fn engine_section(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.queue.now().as_nanos());
        w.put_u64(self.queue.events_processed());
        w.put_u64(self.queue.seq_cursor());
        let mut entries = self.queue.entries();
        entries.sort_by_key(|(at, seq, _)| (*at, *seq));
        w.put_len(entries.len());
        let mut h = lastcpu_snap::fnv1a(b"queue");
        for (at, seq, ev) in &entries {
            Self::fold_event(&mut h, *at, *seq, ev);
        }
        w.put_u64(h);
        w.put_u64(self.next_corr);
        w.put_opt(self.memctl_id.as_ref(), |w, d| w.put_u32(d.0));
        w.put_opt(self.shared_link.as_ref(), |w, l| {
            w.put_u64(l.busy_until.as_nanos());
            w.put_u64(l.per_byte_ps);
        });
        let tunnel_ports = || {
            (1u32..)
                .zip(&self.port_owners)
                .filter(|(_, o)| matches!(o, PortOwner::Tunnel))
        };
        w.put_len(tunnel_ports().count());
        for (p, _) in tunnel_ports() {
            w.put_u32(p);
        }
        w.put_len(self.tunnel_out.len());
        for t in &self.tunnel_out {
            w.put_u64(t.at.as_nanos());
            w.put_u32(t.port.0);
            w.put_u32(t.frame.src.0);
            w.put_u32(t.frame.dst.0);
            w.put_bytes(&t.frame.payload);
        }
        w.put_len(self.fault_events.len());
        for f in &self.fault_events {
            w.put_u64(f.at.as_nanos());
            w.put_str(&f.target);
            f.kind.encode(&mut w);
        }
        w.into_bytes()
    }

    /// One device slot: engine-side bookkeeping (scheduling, ingress FIFO,
    /// armed faults, RNG), the slot's IOMMU, then the device's own state
    /// via [`Device::snapshot_state`].
    fn slot_section(&self, s: &Slot) -> lastcpu_snap::Result<Vec<u8>> {
        let mut w = SnapWriter::new();
        w.put_u32(s.id.0);
        w.put_opt(s.port.as_ref(), |w, p| w.put_u32(p.0));
        w.put_u64(s.busy_until.as_nanos());
        w.put_bool(s.halted);
        w.put_bool(s.permanently_dead);
        w.put_u64(s.next_req);
        s.rng.snapshot(&mut w);
        w.put_bool(s.pop_armed);
        w.put_len(s.inbox.len());
        for work in &s.inbox {
            match work {
                Work::Msg(env) => {
                    w.put_u8(0);
                    w.put_bytes(&env.encode());
                }
                Work::Timer(token, corr) => {
                    w.put_u8(1);
                    w.put_u64(*token);
                    w.put_u64(corr.0);
                }
                Work::Net(frame, corr) => {
                    w.put_u8(2);
                    w.put_u32(frame.src.0);
                    w.put_u32(frame.dst.0);
                    w.put_bytes(&frame.payload);
                    w.put_u64(corr.0);
                }
            }
        }
        w.put_u32(s.faults.drop_rem);
        w.put_u32(s.faults.corrupt_rem);
        w.put_opt(s.faults.corrupt_rng.as_ref(), |w, r| r.snapshot(w));
        w.put_u32(s.faults.delay_rem);
        w.put_u64(s.faults.delay_extra.as_nanos());
        w.put_u32(s.faults.slow_factor);
        w.put_u64(s.faults.slow_until.as_nanos());
        w.put_opt(s.faults.down_since.as_ref(), |w, t| w.put_u64(t.as_nanos()));
        s.iommu.snapshot(&mut w);
        s.device.snapshot_state(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Serializes the whole machine into a versioned [`Checkpoint`]:
    /// manifest (seed, virtual time, event cursor, config fingerprint)
    /// plus one checksummed section per component, in fixed order.
    ///
    /// Fails loudly ([`SnapError::Unsupported`]) if any attached device or
    /// host does not implement its snapshot hook — a checkpoint that
    /// silently skipped state could never verify a restore.
    pub fn checkpoint(&self, label: &str) -> lastcpu_snap::Result<Checkpoint> {
        let manifest = Manifest {
            schema_version: lastcpu_snap::SCHEMA_VERSION,
            seed: self.config.seed,
            virtual_ns: self.queue.now().as_nanos(),
            events: self.queue.events_processed(),
            config_fp: self.config_fingerprint(),
            label: label.to_string(),
        };
        let mut ck = Checkpoint::new(manifest);
        ck.add_section("engine", self.engine_section());
        ck.add_section("rng", {
            let mut w = SnapWriter::new();
            self.root_rng.snapshot(&mut w);
            w.into_bytes()
        });
        ck.add_section("bus", self.bus.snapshot_bytes());
        ck.add_section("rpc", {
            let mut w = SnapWriter::new();
            w.put_opt(self.rpc.as_ref(), |w, rpc| {
                rpc.tracker.snapshot(w);
                rpc.rng.snapshot(w);
                w.put_opt(rpc.sweep_at.as_ref(), |w, t| w.put_u64(t.as_nanos()));
            });
            w.into_bytes()
        });
        ck.add_section("dram", self.dram.snapshot_bytes());
        ck.add_section("switch", self.switch.snapshot_bytes());
        ck.add_section("pool", self.pool.snapshot_bytes());
        ck.add_section("metrics", self.stats.snapshot_bytes());
        ck.add_section("trace", self.trace.snapshot_bytes());
        for (i, s) in self.slots.iter().enumerate() {
            ck.add_section(&format!("dev{i}"), self.slot_section(s)?);
        }
        for (i, hs) in self.hosts.iter().enumerate() {
            let mut w = SnapWriter::new();
            w.put_u32(hs.port.0);
            hs.rng.snapshot(&mut w);
            hs.host.snapshot_state(&mut w)?;
            ck.add_section(&format!("host{i}"), w.into_bytes());
        }
        Ok(ck)
    }

    /// Steps until exactly `events` events have been processed (the
    /// manifest cursor). Returns the number of events stepped here.
    pub fn run_to_cursor(&mut self, events: u64) -> u64 {
        let mut n = 0;
        while self.queue.events_processed() < events {
            if self.step().is_none() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Byte-for-byte verification of this machine against `ck`: takes a
    /// fresh checkpoint and requires every section to match exactly.
    pub fn verify_checkpoint(&self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        let mine = self.checkpoint(&ck.manifest.label)?;
        if let Some(detail) = ck.diff(&mine) {
            return Err(SnapError::VerifyMismatch {
                section: "system".into(),
                detail,
            });
        }
        Ok(())
    }

    /// Restores this machine to the state captured in `ck`.
    ///
    /// The machine must be freshly built from the *same recipe* (config +
    /// device/host lineup, checked via the manifest fingerprint) and
    /// powered on. Restore is deterministic re-execution: the engine
    /// replays to the manifest's event cursor — bit-identical by
    /// construction of the simulator — and then every section is verified
    /// byte-for-byte against the checkpoint. Any divergence fails loudly
    /// with [`SnapError::VerifyMismatch`]; a successful return is a proof
    /// that this machine is in the checkpointed state, not an assumption.
    pub fn restore_from(&mut self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        if ck.manifest.schema_version != lastcpu_snap::SCHEMA_VERSION {
            return Err(SnapError::VersionMismatch {
                want: lastcpu_snap::SCHEMA_VERSION,
                got: ck.manifest.schema_version,
            });
        }
        if ck.manifest.seed != self.config.seed {
            return Err(SnapError::VerifyMismatch {
                section: "manifest".into(),
                detail: format!(
                    "seed mismatch: checkpoint {}, this machine {}",
                    ck.manifest.seed, self.config.seed
                ),
            });
        }
        if ck.manifest.config_fp != self.config_fingerprint() {
            return Err(SnapError::VerifyMismatch {
                section: "manifest".into(),
                detail: format!(
                    "config fingerprint mismatch: checkpoint {:#018x}, this machine {:#018x}",
                    ck.manifest.config_fp,
                    self.config_fingerprint()
                ),
            });
        }
        self.run_to_cursor(ck.manifest.events);
        self.verify_checkpoint(ck)
    }
}
