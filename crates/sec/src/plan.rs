//! Deterministic attack schedules.
//!
//! An [`AttackPlan`] is to the adversary what `lastcpu_sim::FaultPlan` is to
//! the environment: a sorted list of `(time, attack-kind)` entries derived
//! from a seed, turned into ordinary timer events by the malicious device.
//! Because the plan is plain data and every in-attack random choice comes
//! from a [`DetRng`] stream split off the plan seed, an adversarial run
//! replays bit-identically — which is what lets the E11 evaluation claim
//! "blocked" as a property of the *system*, not of one lucky interleaving.

use lastcpu_sim::{DetRng, SimDuration, SimTime};

/// One adversarial strategy the malicious device can execute.
///
/// Each variant maps onto one row of the E11 attack matrix and one claim in
/// the threat model (`DESIGN.md §11`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// DMA reads/writes far outside any VA window ever mapped for the
    /// attacker, under the victim application's PASID and under random
    /// PASIDs. Tests the paper's claim that the per-device IOMMU is "the
    /// cornerstone of data isolation": the attacker's own IOMMU has no
    /// tables for these PASIDs, so every access must fault.
    WildDma,
    /// DMA probes of the victim KVS's *generation* windows
    /// (`va_base + g·stride`), including generations that were valid
    /// earlier but have since been rotated and unmapped. Tests revocation:
    /// a stale grant must be dead, not merely unused.
    StaleGeneration,
    /// Confused-deputy requests over the control plane: direct
    /// `MapInstruction`s from a non-controller, privilege escalation via a
    /// vacant `RegisterController` class, and `Share` requests for regions
    /// the attacker does not own. Tests the claim that *only* the
    /// registered memory controller can cause IOMMU programming.
    ConfusedDeputy,
    /// Spoofed/replayed SSDP-style `Announce`s that shadow a live service
    /// name, so discovery clients would resolve to the attacker. The
    /// baseline protocol is silent about this; blocking it requires the
    /// opt-in `SecurityPolicy::deny_shadow_announce` hardening.
    SsdpSpoof,
    /// A burst of bus-directed control messages, testing control-plane
    /// availability. Blocking requires the opt-in
    /// `SecurityPolicy::flood_limit` hardening; shedding is observed
    /// through `sec.flood_dropped`, not through replies.
    ControlFlood,
}

impl AttackKind {
    /// Every attack kind, in matrix order.
    pub const ALL: [AttackKind; 5] = [
        AttackKind::WildDma,
        AttackKind::StaleGeneration,
        AttackKind::ConfusedDeputy,
        AttackKind::SsdpSpoof,
        AttackKind::ControlFlood,
    ];

    /// Short stable tag for traces, tables and `BENCH_e11.json` rows.
    pub fn tag(&self) -> &'static str {
        match self {
            AttackKind::WildDma => "wild-dma",
            AttackKind::StaleGeneration => "stale-generation",
            AttackKind::ConfusedDeputy => "confused-deputy",
            AttackKind::SsdpSpoof => "ssdp-spoof",
            AttackKind::ControlFlood => "control-flood",
        }
    }

    /// Dense index into per-kind arrays (`0..AttackKind::ALL.len()`).
    pub fn index(&self) -> usize {
        match self {
            AttackKind::WildDma => 0,
            AttackKind::StaleGeneration => 1,
            AttackKind::ConfusedDeputy => 2,
            AttackKind::SsdpSpoof => 3,
            AttackKind::ControlFlood => 4,
        }
    }
}

/// One scheduled attack: at `at`, run `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackEvent {
    /// When the attack fires (absolute virtual time).
    pub at: SimTime,
    /// The strategy to execute.
    pub kind: AttackKind,
}

/// A deterministic attack schedule.
///
/// Built explicitly ([`inject`](AttackPlan::inject)) or as a full matrix
/// ([`matrix`](AttackPlan::matrix)). Either way the plan is plain data: two
/// runs fed the same plan produce identical attack traffic.
///
/// # Examples
///
/// ```
/// use lastcpu_sec::{AttackKind, AttackPlan};
/// use lastcpu_sim::{SimDuration, SimTime};
///
/// // The matrix helper schedules every attack class exactly once.
/// let m = AttackPlan::matrix(7, SimTime::from_nanos(1_000), SimDuration::from_micros(500));
/// assert_eq!(m.events().len(), AttackKind::ALL.len());
/// assert_eq!(m.events()[0].kind, AttackKind::WildDma);
///
/// // Per-event RNG streams replay, and differ per event index.
/// assert_eq!(m.stream(0).next_u64(), m.stream(0).next_u64());
/// assert_ne!(m.stream(0).next_u64(), m.stream(1).next_u64());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AttackPlan {
    seed: u64,
    events: Vec<AttackEvent>,
}

impl AttackPlan {
    /// An empty plan remembering `seed` (used to derive per-attack RNG
    /// streams, e.g. which wild address to probe).
    pub fn new(seed: u64) -> Self {
        AttackPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one scheduled attack.
    pub fn inject(&mut self, at: SimTime, kind: AttackKind) -> &mut Self {
        self.events.push(AttackEvent { at, kind });
        self
    }

    /// The scheduled attacks, sorted by time (stable for equal times, so
    /// insertion order breaks ties deterministically).
    pub fn events(&self) -> Vec<AttackEvent> {
        let mut v = self.events.clone();
        v.sort_by_key(|e| e.at);
        v
    }

    /// The full attack matrix: every [`AttackKind`] once, in matrix order,
    /// starting at `start` and spaced `spacing` apart. The E11 bench uses
    /// this so each run exercises every class at a known instant.
    pub fn matrix(seed: u64, start: SimTime, spacing: SimDuration) -> Self {
        let mut plan = AttackPlan::new(seed);
        for (i, kind) in AttackKind::ALL.into_iter().enumerate() {
            plan.inject(start + spacing.saturating_mul(i as u64), kind);
        }
        plan
    }

    /// A per-attack RNG stream derived from the plan seed and the attack's
    /// index, for deterministic choices *while executing* an attack (which
    /// wild address to probe, which PASID to try).
    pub fn stream(&self, attack_index: u64) -> DetRng {
        DetRng::new(self.seed).split(0x5EC0_0000 ^ attack_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_kind_once_in_order() {
        let p = AttackPlan::matrix(0, SimTime::from_nanos(100), SimDuration::from_micros(10));
        let ev = p.events();
        assert_eq!(ev.len(), AttackKind::ALL.len());
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.kind, AttackKind::ALL[i]);
            assert_eq!(
                e.at,
                SimTime::from_nanos(100) + SimDuration::from_micros(10 * i as u64)
            );
        }
    }

    #[test]
    fn events_sorted_with_stable_ties() {
        let mut p = AttackPlan::new(0);
        let t = SimTime::from_nanos(10);
        p.inject(t, AttackKind::SsdpSpoof);
        p.inject(SimTime::from_nanos(5), AttackKind::WildDma);
        p.inject(t, AttackKind::ControlFlood);
        let ev = p.events();
        assert_eq!(ev[0].kind, AttackKind::WildDma);
        assert_eq!(ev[1].kind, AttackKind::SsdpSpoof, "ties keep insert order");
        assert_eq!(ev[2].kind, AttackKind::ControlFlood);
    }

    #[test]
    fn streams_replay_and_differ_per_index() {
        let p = AttackPlan::new(77);
        assert_eq!(p.stream(3).next_u64(), p.stream(3).next_u64());
        assert_ne!(p.stream(3).next_u64(), p.stream(4).next_u64());
    }

    #[test]
    fn tags_and_indices_are_stable_and_dense() {
        let mut seen = [false; AttackKind::ALL.len()];
        for k in AttackKind::ALL {
            assert!(!k.tag().is_empty());
            assert!(!seen[k.index()], "indices must be unique");
            seen[k.index()] = true;
        }
        assert_eq!(AttackKind::WildDma.tag(), "wild-dma");
        assert_eq!(AttackKind::ConfusedDeputy.tag(), "confused-deputy");
    }
}
