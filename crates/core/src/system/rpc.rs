//! Reply timeouts and retransmission for bus requests (§4: a lost message
//! must not wedge its sender; E4 measures the recoveries).
//!
//! Present only when `SystemConfig::rpc_retry` is set. The tracker lives in
//! `lastcpu-bus`; this module arms its sweep event, re-sends through the same
//! faulty wire, and synthesizes a terminal failure reply on give-up.

use lastcpu_bus::{DeviceId, Dst, Envelope, RetryStats, RetryVerdict};
use lastcpu_sim::{SimDuration, SimTime, TraceData};

use super::{Event, System};

impl System {
    /// Aggregate RPC retry counters, when retries are enabled.
    pub fn rpc_stats(&self) -> Option<RetryStats> {
        self.rpc.as_ref().map(|r| r.tracker.stats())
    }

    /// Ensures a [`Event::RetryCheck`] is scheduled at the tracker's next
    /// deadline. Deadlines only move later (each is `send + timeout`), so a
    /// sweep armed earlier never misses one.
    pub(super) fn arm_rpc_sweep(&mut self) {
        let Some(rpc) = self.rpc.as_mut() else {
            return;
        };
        let Some(d) = rpc.tracker.next_deadline() else {
            return;
        };
        if rpc.sweep_at.is_some_and(|t| t <= d) {
            return;
        }
        rpc.sweep_at = Some(d);
        self.queue.schedule_at(d, Event::RetryCheck);
    }

    /// Sweeps the RPC tracker: retransmits timed-out requests (with
    /// backoff + jitter) and surfaces terminal failures for exhausted ones.
    pub(super) fn rpc_sweep(&mut self, now: SimTime) {
        let verdicts = {
            let Some(rpc) = self.rpc.as_mut() else {
                return;
            };
            rpc.sweep_at = None;
            rpc.tracker.expire(now, &mut rpc.rng)
        };
        for v in verdicts {
            match v {
                RetryVerdict::Resend {
                    env,
                    send_at,
                    attempt,
                } => {
                    let src_idx = self.slot_of(env.src);
                    if let Some(idx) = src_idx {
                        self.slots[idx].met.retries.incr();
                    }
                    if self.trace.is_enabled() {
                        self.trace.emit_text(
                            now,
                            self.sources.bus,
                            env.corr,
                            TraceData::Text,
                            format!(
                                "retry {attempt} of {} from {}",
                                env.payload.kind_name(),
                                env.src
                            ),
                        );
                    }
                    // Retransmissions traverse the same faulty wire.
                    let env = self.bus.envelopes().share(env);
                    let filtered = match src_idx {
                        Some(idx) => self.wire_fault_filter(send_at, idx, env),
                        None => Some((env, SimDuration::ZERO)),
                    };
                    let Some((env, extra)) = filtered else {
                        continue;
                    };
                    let hop = self.config.bus_cost.hop_latency.saturating_add(extra);
                    self.queue
                        .schedule_at(send_at.saturating_add(hop), Event::BusMsg(env));
                }
                RetryVerdict::GiveUp {
                    env,
                    first_sent,
                    attempts,
                } => {
                    if self.trace.is_enabled() {
                        self.trace.emit_text(
                            now,
                            self.sources.fault,
                            env.corr,
                            TraceData::Text,
                            format!(
                                "{} from {} abandoned after {attempts} attempts ({} in flight)",
                                env.payload.kind_name(),
                                env.src,
                                now.since(first_sent),
                            ),
                        );
                    }
                    // Synthesize a terminal failure reply so the requester's
                    // state machine unwinds instead of wedging (graceful
                    // degradation; the KVS server turns this into
                    // `Unavailable` for its clients).
                    if let Some(payload) = env.payload.failure_reply() {
                        let src = match env.dst {
                            Dst::Device(d) => d,
                            _ => DeviceId::BUS,
                        };
                        let fail = Envelope {
                            src,
                            dst: Dst::Device(env.src),
                            req: env.req,
                            corr: env.corr,
                            payload,
                        };
                        if let Some(idx) = self.slot_of(env.src) {
                            let env = self.bus.envelopes().share(fail);
                            self.queue.schedule_at(now, Event::Deliver { idx, env });
                        }
                    }
                }
            }
        }
        self.arm_rpc_sweep();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use lastcpu_devices::auth::AuthDevice;

    #[test]
    fn dropped_hello_is_retransmitted_by_rpc_retry() {
        use lastcpu_bus::RetryConfig;
        use lastcpu_sim::{FaultKind, FaultPlan};
        // Arm a drop *before* power-on: the device's very first Hello is
        // eaten on the wire. Without retries it would stay invisible until
        // something reset it; with retries it re-registers on its own.
        let mut plan = FaultPlan::new(1);
        plan.inject(SimTime::ZERO, "auth0", FaultKind::Drop { count: 1 });
        let mut sys = System::new(SystemConfig {
            fault_plan: Some(plan),
            rpc_retry: Some(RetryConfig::default()),
            ..SystemConfig::default()
        });
        sys.add_memctl("memctl0");
        sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(5));
        assert_eq!(sys.bus().alive().count(), 2, "lost Hello was retried");
        assert!(sys.stats().counter("bus.auth0.retries") >= 1);
        assert_eq!(sys.stats().counter("fault.msgs_dropped"), 1);
        let rs = sys.rpc_stats().expect("retry enabled");
        assert!(rs.recovered >= 1, "completion arrived after a retry");
        assert_eq!(rs.give_ups, 0);
    }
}
