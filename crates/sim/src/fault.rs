//! Deterministic fault injection and retry/backoff policy.
//!
//! The paper assigns "initialization, coordination, and error handling" to
//! the management bus; this module supplies the *error* half of that story
//! in a form a discrete-event simulator can trust. A [`FaultPlan`] is an
//! ordinary data structure — a sorted list of `(time, target, kind)`
//! injections derived from a [`DetRng`] seed — that the system scheduler
//! turns into regular discrete events, so a faulty run replays
//! bit-identically from its seed (the gem5 lesson: fault paths are only
//! trusted once they are as deterministic as happy paths).
//!
//! [`BackoffPolicy`] is the shared bounded-exponential-backoff-with-jitter
//! policy used by bus RPC retries and the FTL's media retries; jitter comes
//! from a caller-supplied [`DetRng`] stream so it, too, replays.

use crate::costs;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// What kind of fault to inject at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently discard the next `count` bus messages sent by or delivered
    /// to the target (wire-layer loss).
    Drop {
        /// Messages to discard.
        count: u32,
    },
    /// Flip one wire bit in each of the next `count` messages touching the
    /// target. Messages that no longer decode are discarded; ones that
    /// still decode are delivered corrupted (the bus fencing/validation
    /// layers must cope).
    Corrupt {
        /// Messages to corrupt.
        count: u32,
    },
    /// Add `extra` latency to the next `count` messages touching the
    /// target (a congested or flapping link).
    Delay {
        /// Messages to delay.
        count: u32,
        /// Additional latency per message, in nanoseconds.
        extra_ns: u64,
    },
    /// Crash the target device: it is fenced, the bus broadcasts
    /// `DeviceFailed`, and the management-bus recovery path resets it and
    /// replays the Figure-2 init sequence.
    Crash,
    /// Hang the target silently: it stops processing *without* telling the
    /// bus. Only the heartbeat liveness sweep can detect this, making it
    /// the adversarial test of the detection path.
    Hang,
    /// Multiply the target's processing time by `factor` for `for_ns`
    /// nanoseconds (thermal throttling, background housekeeping).
    SlowDown {
        /// Service-time multiplier (≥ 1).
        factor: u32,
        /// How long the slowdown lasts, in nanoseconds.
        for_ns: u64,
    },
    /// Deliver `count` spurious IOMMU translation faults to the target in
    /// quick succession (a translation-fault storm).
    IommuStorm {
        /// Faults to deliver.
        count: u32,
    },
}

impl FaultKind {
    /// Short stable tag for traces and tables.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::Drop { .. } => "drop",
            FaultKind::Corrupt { .. } => "corrupt",
            FaultKind::Delay { .. } => "delay",
            FaultKind::Crash => "crash",
            FaultKind::Hang => "hang",
            FaultKind::SlowDown { .. } => "slowdown",
            FaultKind::IommuStorm { .. } => "iommu-storm",
        }
    }
}

/// One scheduled injection: at `at`, do `kind` to the device named
/// `target`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// Device name the fault applies to.
    pub target: String,
    /// What happens.
    pub kind: FaultKind,
}

lastcpu_snap::variants! { FaultKind {
    Drop = 0 { count }, Corrupt = 1 { count }, Delay = 2 { count, extra_ns }, Crash = 3 {},
    Hang = 4 {}, SlowDown = 5 { factor, for_ns }, IommuStorm = 6 { count },
} }

lastcpu_snap::record!(FaultEvent { at, target, kind });
lastcpu_snap::record!(BackoffPolicy {
    base,
    cap,
    max_retries,
    jitter_pct
});

/// A deterministic fault schedule.
///
/// Either built explicitly (`inject`) or generated from a seed
/// (`generate`); in both cases the plan is plain data, so two systems fed
/// the same plan produce identical event streams.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan remembering `seed` (used to derive per-fault RNG
    /// streams, e.g. for corruption bit choice).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one injection.
    pub fn inject(&mut self, at: SimTime, target: impl Into<String>, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent {
            at,
            target: target.into(),
            kind,
        });
        self
    }

    /// The scheduled injections, sorted by time (stable for equal times, so
    /// insertion order breaks ties deterministically).
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut v = self.events.clone();
        v.sort_by_key(|e| e.at);
        v
    }

    /// Generates a random plan of `count` faults against `targets` spread
    /// over `[t0 + horizon/8, t0 + horizon)`.
    ///
    /// Purely a function of its arguments: the same seed always yields the
    /// same plan. The leading eighth of the horizon is kept fault-free so
    /// the system finishes the Figure-2 init sequence before the first
    /// injection.
    pub fn generate(
        seed: u64,
        targets: &[&str],
        start: SimTime,
        horizon: SimDuration,
        count: u32,
    ) -> Self {
        assert!(!targets.is_empty(), "fault plan needs at least one target");
        let mut rng = DetRng::new(seed ^ 0xFA17_FA17_FA17_FA17);
        let mut plan = FaultPlan::new(seed);
        let quiet = horizon.as_nanos() / 8;
        let window = horizon.as_nanos().saturating_sub(quiet).max(1);
        for _ in 0..count {
            let at = start + SimDuration::from_nanos(quiet + rng.below(window));
            let target = targets[rng.below(targets.len() as u64) as usize];
            let kind = match rng.below(7) {
                0 => FaultKind::Drop {
                    count: 1 + rng.below(4) as u32,
                },
                1 => FaultKind::Corrupt {
                    count: 1 + rng.below(3) as u32,
                },
                2 => FaultKind::Delay {
                    count: 1 + rng.below(8) as u32,
                    extra_ns: 1_000 + rng.below(50_000),
                },
                3 => FaultKind::Crash,
                4 => FaultKind::Hang,
                5 => FaultKind::SlowDown {
                    factor: 2 + rng.below(7) as u32,
                    for_ns: 100_000 + rng.below(2_000_000),
                },
                _ => FaultKind::IommuStorm {
                    count: 1 + rng.below(16) as u32,
                },
            };
            plan.inject(at, target, kind);
        }
        plan
    }

    /// A per-fault RNG stream derived from the plan seed and the fault's
    /// index, for deterministic choices *while applying* a fault (which bit
    /// to flip, etc.).
    pub fn stream(&self, fault_index: u64) -> DetRng {
        DetRng::new(self.seed).split(0xB17F_0000 ^ fault_index)
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// Attempt numbering: attempt 0 is the original try; `delay(k, ..)` is the
/// pause before retry `k` (the `k`-th re-issue, 1-based). Once
/// `k > max_retries` the request is exhausted and the caller must surface a
/// terminal error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Upper bound any single delay is clamped to.
    pub cap: SimDuration,
    /// Retries allowed after the original attempt.
    pub max_retries: u32,
    /// Jitter as a percentage of the computed delay (`0` disables jitter);
    /// the jittered delay is `d + uniform(0, d*jitter_pct/100]`.
    pub jitter_pct: u32,
}

impl Default for BackoffPolicy {
    /// The `backoff.*` rows (10 µs base, 1 ms cap), 5 retries, 25 % jitter
    /// — tuned to the emulator's bus RTT (a few µs), not wall-clock
    /// networks.
    fn default() -> Self {
        BackoffPolicy {
            base: costs::BACKOFF_BASE,
            cap: costs::BACKOFF_CAP,
            max_retries: 5,
            jitter_pct: 25,
        }
    }
}

impl BackoffPolicy {
    /// The deterministic (jitter-free) delay before retry `retry`
    /// (1-based), or `None` once the budget is exhausted.
    pub fn delay(&self, retry: u32) -> Option<SimDuration> {
        if retry == 0 || retry > self.max_retries {
            return None;
        }
        let factor = 1u64 << (retry - 1).min(20);
        Some(
            self.base
                .saturating_mul(factor)
                .min(self.cap)
                .max(SimDuration::from_nanos(1)),
        )
    }

    /// Like [`BackoffPolicy::delay`] but with jitter drawn from `rng`
    /// (deterministic given the stream).
    pub fn delay_jittered(&self, retry: u32, rng: &mut DetRng) -> Option<SimDuration> {
        let d = self.delay(retry)?;
        if self.jitter_pct == 0 {
            return Some(d);
        }
        let span = d.as_nanos().saturating_mul(self.jitter_pct as u64) / 100;
        let jitter = if span == 0 { 0 } else { rng.below(span + 1) };
        Some(d + SimDuration::from_nanos(jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_generation_is_deterministic() {
        let targets = ["nic0", "ssd0", "memctl0"];
        let a = FaultPlan::generate(7, &targets, SimTime::ZERO, SimDuration::from_secs(1), 32);
        let b = FaultPlan::generate(7, &targets, SimTime::ZERO, SimDuration::from_secs(1), 32);
        assert_eq!(a.events(), b.events());
        let c = FaultPlan::generate(8, &targets, SimTime::ZERO, SimDuration::from_secs(1), 32);
        assert_ne!(a.events(), c.events(), "different seed, different plan");
    }

    #[test]
    fn plan_respects_quiet_period_and_horizon() {
        let horizon = SimDuration::from_millis(80);
        let start = SimTime::from_nanos(500);
        let p = FaultPlan::generate(3, &["d0"], start, horizon, 64);
        assert_eq!(p.events.len(), 64);
        for e in p.events() {
            assert!(e.at >= start + SimDuration::from_nanos(horizon.as_nanos() / 8));
            assert!(e.at < start + horizon);
        }
    }

    #[test]
    fn events_sorted_with_stable_ties() {
        let mut p = FaultPlan::new(0);
        let t = SimTime::from_nanos(10);
        p.inject(t, "b", FaultKind::Crash);
        p.inject(SimTime::from_nanos(5), "a", FaultKind::Hang);
        p.inject(t, "c", FaultKind::Crash);
        let ev = p.events();
        assert_eq!(ev[0].target, "a");
        assert_eq!(ev[1].target, "b", "equal times keep insertion order");
        assert_eq!(ev[2].target, "c");
    }

    #[test]
    fn backoff_grows_doubles_and_caps() {
        let p = BackoffPolicy {
            base: SimDuration::from_micros(10),
            cap: SimDuration::from_micros(55),
            max_retries: 5,
            jitter_pct: 0,
        };
        assert_eq!(p.delay(0), None, "attempt 0 is the original try");
        assert_eq!(p.delay(1), Some(SimDuration::from_micros(10)));
        assert_eq!(p.delay(2), Some(SimDuration::from_micros(20)));
        assert_eq!(p.delay(3), Some(SimDuration::from_micros(40)));
        assert_eq!(p.delay(4), Some(SimDuration::from_micros(55)), "capped");
        assert_eq!(p.delay(5), Some(SimDuration::from_micros(55)));
        assert_eq!(p.delay(6), None, "budget exhausted");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = BackoffPolicy {
            jitter_pct: 50,
            ..BackoffPolicy::default()
        };
        let mut r1 = DetRng::new(42);
        let mut r2 = DetRng::new(42);
        for retry in 1..=p.max_retries {
            let base = p.delay(retry).unwrap();
            let a = p.delay_jittered(retry, &mut r1).unwrap();
            let b = p.delay_jittered(retry, &mut r2).unwrap();
            assert_eq!(a, b, "same stream, same jitter");
            assert!(a >= base);
            assert!(a.as_nanos() <= base.as_nanos() + base.as_nanos() / 2 + 1);
        }
    }

    #[test]
    fn fault_streams_differ_per_index_but_replay() {
        let p = FaultPlan::new(99);
        assert_eq!(p.stream(0).next_u64(), p.stream(0).next_u64());
        assert_ne!(p.stream(0).next_u64(), p.stream(1).next_u64());
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(FaultKind::Crash.tag(), "crash");
        assert_eq!(FaultKind::Drop { count: 1 }.tag(), "drop");
        assert_eq!(
            FaultKind::Delay {
                count: 1,
                extra_ns: 5
            }
            .tag(),
            "delay"
        );
    }
}
