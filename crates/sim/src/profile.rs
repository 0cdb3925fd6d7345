//! Performance attribution: scoped allocation accounting and span timing.
//!
//! The E9 engine benchmark counts every heap allocation the process makes,
//! but a single total ("9.4 allocs/event") says nothing about *which*
//! subsystem allocates. This module adds the missing attribution axis:
//!
//! - [`AllocScope`]: an RAII guard that pushes a `subsystem.site` tag onto a
//!   thread-local scope stack. A benchmark's `#[global_allocator]` calls
//!   [`note_alloc`] on every allocation, which charges it to the innermost
//!   active scope (or the reserved *unattributed* bucket when no scope is
//!   active).
//! - [`span`]: an [`AllocScope`] that additionally measures wall-clock time
//!   (entry/exit `Instant`s) and feeds a per-scope log-bucket
//!   [`Histogram`]. Simulated time does not advance inside a handler, so
//!   modeled sim-ns costs are charged explicitly with [`charge_sim`] /
//!   [`charge_sim_to`] by the code that computes them (e.g. the dispatcher
//!   charges a device handler's modeled latency to the scope it ran under).
//! - [`snapshot`] / [`reset`]: drain the per-scope tables between benchmark
//!   phases.
//!
//! # Determinism
//!
//! Allocation counts and sim-ns charges are pure functions of the simulated
//! run, so they are bit-stable across same-seed runs. Wall-ns measurements
//! are host noise by definition; artifact writers must keep them in clearly
//! marked `wall` fields (the E12 determinism gate strips them).
//!
//! # Overhead
//!
//! Profiling is **off** by default. Every entry point first reads one
//! thread-local `Cell<bool>`; when the flag is clear, guards are inert and
//! no `Instant` is sampled, so instrumented hot paths pay a branch.
//!
//! All state is thread-local: the simulator is single-threaded, and keeping
//! the tables off shared atomics means parallel test threads cannot observe
//! each other's scopes. [`note_alloc`] tolerates being called during thread
//! teardown (it uses `try_with` and drops the sample if TLS is gone).

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::stats::Histogram;

/// Hard cap on distinct scope names. Attribution wants a handful of
/// `subsystem.site` tags, not a cardinality explosion; names past the cap
/// fall into the unattributed bucket.
pub const MAX_SCOPES: usize = 64;

/// Reserved slot 0: allocations made while no scope is active.
pub const UNATTRIBUTED: &str = "(unattributed)";

/// Per-scope attribution totals, drained by [`snapshot`].
#[derive(Debug, Clone)]
pub struct ScopeStats {
    /// The `subsystem.site` tag passed to [`AllocScope::enter`] / [`span`].
    pub name: &'static str,
    /// Heap allocations charged to this scope (innermost-scope wins).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Completed [`span`]s.
    pub spans: u64,
    /// Completed *top-level* spans (the ones `wall_root_ns` sums).
    pub root_spans: u64,
    /// Total wall time inside spans of this scope (includes nested scopes).
    pub wall_ns: u64,
    /// Wall time of *top-level* spans only (entered with an empty scope
    /// stack). Summing `wall_root_ns` across scopes never double-counts
    /// nesting, so it is the right numerator for coverage checks.
    pub wall_root_ns: u64,
    /// Modeled sim-ns charged via [`charge_sim`] / [`charge_sim_to`].
    pub sim_ns: u64,
    /// Log-bucket histogram of per-span wall durations.
    pub wall_hist: Histogram,
}

/// A point-in-time copy of the calling thread's attribution tables.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// Named scopes in registration order (slot 0, the unattributed bucket,
    /// is reported via the dedicated fields instead).
    pub scopes: Vec<ScopeStats>,
    /// Allocations that hit [`note_alloc`] with no active scope.
    pub unattributed_allocs: u64,
    /// Bytes of those allocations.
    pub unattributed_bytes: u64,
}

impl ProfileSnapshot {
    /// Total allocations seen while profiling was enabled.
    pub fn total_allocs(&self) -> u64 {
        self.unattributed_allocs + self.scopes.iter().map(|s| s.allocs).sum::<u64>()
    }

    /// Fraction of allocations attributed to a named scope (1.0 when no
    /// allocation was seen at all).
    pub fn attributed_alloc_fraction(&self) -> f64 {
        let total = self.total_allocs();
        if total == 0 {
            return 1.0;
        }
        1.0 - self.unattributed_allocs as f64 / total as f64
    }

    /// Sum of top-level span wall time (no double-counted nesting).
    pub fn wall_root_total_ns(&self) -> u64 {
        self.scopes.iter().map(|s| s.wall_root_ns).sum()
    }

    /// Number of completed top-level spans. Each one has two edges the
    /// profiler cannot see — half a clock read on either side of its
    /// measured interval plus its own bookkeeping — so this is the
    /// multiplier for pricing the instrument's share of unattributed time.
    pub fn root_span_total(&self) -> u64 {
        self.scopes.iter().map(|s| s.root_spans).sum()
    }
}

/// Sentinel marking an inert guard (profiling disabled at entry, or the
/// scope table was full).
const INERT: u16 = u16::MAX;

struct Registry {
    /// Slot 0 is the unattributed bucket; named scopes start at 1.
    names: Vec<&'static str>,
    /// `&'static str` pointer → slot cache. The same literal can have
    /// distinct addresses across codegen units, so this is a cache in
    /// front of the by-content scan, not the source of truth.
    by_ptr: Vec<(*const u8, usize, u16)>,
}

/// Span/sim-time tables. Allocation tallies live in the flat `ALLOCS` /
/// `BYTES` cells instead (the allocator hook cannot take a `RefCell`).
struct Table {
    spans: [u64; MAX_SCOPES],
    root_spans: [u64; MAX_SCOPES],
    wall: [u64; MAX_SCOPES],
    wall_root: [u64; MAX_SCOPES],
    sim: [u64; MAX_SCOPES],
    hists: Vec<Option<Histogram>>,
}

impl Table {
    fn new() -> Self {
        Table {
            spans: [0; MAX_SCOPES],
            root_spans: [0; MAX_SCOPES],
            wall: [0; MAX_SCOPES],
            wall_root: [0; MAX_SCOPES],
            sim: [0; MAX_SCOPES],
            hists: Vec::new(),
        }
    }
}

thread_local! {
    /// Innermost active scope slot; 0 = unattributed. Const-initialized
    /// `Cell`s so the allocator hook can read them without triggering a
    /// lazy TLS initializer (which could itself allocate).
    static CURRENT: Cell<u16> = const { Cell::new(0) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Allocation tally, kept as flat const-init cells for the same
    /// reason: [`note_alloc`] runs inside the global allocator.
    static ALLOCS: [Cell<u64>; MAX_SCOPES] =
        const { [const { Cell::new(0) }; MAX_SCOPES] };
    static BYTES: [Cell<u64>; MAX_SCOPES] =
        const { [const { Cell::new(0) }; MAX_SCOPES] };
    /// Everything not touched from the allocator lives behind RefCells.
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry {
        names: vec![UNATTRIBUTED],
        by_ptr: Vec::new(),
    });
    static TABLE: RefCell<Table> = RefCell::new(Table::new());
}

/// Turns profiling on or off for the **calling thread**.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether profiling is enabled on the calling thread.
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Interns `name`, returning its slot, or `INERT` when the table is full.
fn intern(name: &'static str) -> u16 {
    REGISTRY.with(|r| {
        let mut r = r.borrow_mut();
        let key = (name.as_ptr(), name.len());
        if let Some(&(_, _, slot)) = r.by_ptr.iter().find(|&&(p, l, _)| p == key.0 && l == key.1) {
            return slot;
        }
        let slot = match r.names.iter().position(|&n| n == name) {
            Some(i) => i as u16,
            None if r.names.len() < MAX_SCOPES => {
                r.names.push(name);
                (r.names.len() - 1) as u16
            }
            None => return INERT,
        };
        r.by_ptr.push((key.0, key.1, slot));
        slot
    })
}

/// RAII guard tagging allocations (but not time) to `name`.
pub struct AllocScope {
    prev: u16,
}

impl AllocScope {
    /// Pushes `name` as the innermost attribution scope. Inert (and
    /// free beyond one branch) while profiling is disabled.
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        if !is_enabled() {
            return AllocScope { prev: INERT };
        }
        let slot = intern(name);
        if slot == INERT {
            return AllocScope { prev: INERT };
        }
        let prev = CURRENT.with(|c| c.replace(slot));
        AllocScope { prev }
    }
}

impl Drop for AllocScope {
    #[inline]
    fn drop(&mut self) {
        if self.prev != INERT {
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// RAII guard tagging allocations *and* wall time to `name`.
pub struct Span {
    prev: u16,
    slot: u16,
    /// `None` for inert guards, so the disabled path never samples the
    /// clock (an `Instant::now()` per event would show up in the E9
    /// profiling-off overhead budget).
    start: Option<Instant>,
}

/// Opens a timed span named `name`; see [`Span`]. Inert while disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span {
            prev: INERT,
            slot: INERT,
            start: None,
        };
    }
    let slot = intern(name);
    if slot == INERT {
        return Span {
            prev: INERT,
            slot: INERT,
            start: None,
        };
    }
    let prev = CURRENT.with(|c| c.replace(slot));
    Span {
        prev,
        slot,
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.slot == INERT {
            return;
        }
        let ns = self
            .start
            .map(|t| t.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        CURRENT.with(|c| c.set(self.prev));
        let slot = self.slot as usize;
        TABLE.with(|t| {
            let mut t = t.borrow_mut();
            t.spans[slot] += 1;
            t.wall[slot] += ns;
            if self.prev == 0 {
                t.root_spans[slot] += 1;
                t.wall_root[slot] += ns;
            }
            if t.hists.len() <= slot {
                t.hists.resize_with(slot + 1, || None);
            }
            t.hists[slot]
                .get_or_insert_with(Histogram::new)
                .record_value(ns);
        });
    }
}

/// Charges `ns` of modeled sim time to the innermost active scope.
#[inline]
pub fn charge_sim(ns: u64) {
    if !is_enabled() {
        return;
    }
    let slot = CURRENT.with(|c| c.get()) as usize;
    TABLE.with(|t| t.borrow_mut().sim[slot] += ns);
}

/// Charges `ns` of modeled sim time to `name` regardless of the active
/// scope (used by components that compute latencies for work that
/// happens "elsewhere", e.g. fabric link serialization).
#[inline]
pub fn charge_sim_to(name: &'static str, ns: u64) {
    if !is_enabled() {
        return;
    }
    let slot = intern(name);
    if slot == INERT {
        return;
    }
    TABLE.with(|t| t.borrow_mut().sim[slot as usize] += ns);
}

/// Allocator hook: charges one allocation of `bytes` to the innermost
/// active scope. Must be called from a `#[global_allocator]`, so it
/// never allocates and tolerates TLS teardown.
#[inline]
pub fn note_alloc(bytes: usize) {
    let enabled = ENABLED.try_with(|e| e.get()).unwrap_or(false);
    if !enabled {
        return;
    }
    let slot = CURRENT.try_with(|c| c.get()).unwrap_or(0) as usize;
    let _ = ALLOCS.try_with(|a| a[slot].set(a[slot].get() + 1));
    let _ = BYTES.try_with(|b| b[slot].set(b[slot].get() + bytes as u64));
}

/// Copies the calling thread's attribution tables.
pub fn snapshot() -> ProfileSnapshot {
    REGISTRY.with(|r| {
        let r = r.borrow();
        TABLE.with(|t| {
            let t = t.borrow();
            let allocs: Vec<u64> = ALLOCS.with(|a| a.iter().map(Cell::get).collect());
            let bytes: Vec<u64> = BYTES.with(|b| b.iter().map(Cell::get).collect());
            let scopes = r
                .names
                .iter()
                .enumerate()
                .skip(1) // slot 0 = unattributed
                .map(|(i, &name)| ScopeStats {
                    name,
                    allocs: allocs[i],
                    alloc_bytes: bytes[i],
                    spans: t.spans[i],
                    root_spans: t.root_spans[i],
                    wall_ns: t.wall[i],
                    wall_root_ns: t.wall_root[i],
                    sim_ns: t.sim[i],
                    wall_hist: t.hists.get(i).and_then(|h| h.clone()).unwrap_or_default(),
                })
                .collect();
            ProfileSnapshot {
                scopes,
                unattributed_allocs: allocs[0],
                unattributed_bytes: bytes[0],
            }
        })
    })
}

/// Zeroes all counters and histograms. Scope registrations (and any
/// active guards) survive, so a benchmark can reset after warmup.
pub fn reset() {
    ALLOCS.with(|a| a.iter().for_each(|c| c.set(0)));
    BYTES.with(|b| b.iter().for_each(|c| c.set(0)));
    TABLE.with(|t| *t.borrow_mut() = Table::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each test fully owns this thread's tables: reset, enable, run, disable.
    fn with_profiling(f: impl FnOnce()) {
        reset();
        set_enabled(true);
        f();
        set_enabled(false);
        reset();
    }

    fn stats<'a>(snap: &'a ProfileSnapshot, name: &str) -> &'a ScopeStats {
        snap.scopes
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("scope {name} not in snapshot"))
    }

    #[test]
    fn allocations_attribute_to_innermost_scope() {
        with_profiling(|| {
            note_alloc(8); // before any scope: unattributed
            {
                let _outer = AllocScope::enter("test.outer");
                note_alloc(16);
                {
                    let _inner = AllocScope::enter("test.inner");
                    note_alloc(32);
                    note_alloc(32);
                }
                note_alloc(64);
            }
            let snap = snapshot();
            assert_eq!(snap.unattributed_allocs, 1);
            assert_eq!(snap.unattributed_bytes, 8);
            assert_eq!(stats(&snap, "test.outer").allocs, 2);
            assert_eq!(stats(&snap, "test.outer").alloc_bytes, 80);
            assert_eq!(stats(&snap, "test.inner").allocs, 2);
            assert_eq!(stats(&snap, "test.inner").alloc_bytes, 64);
            assert_eq!(snap.total_allocs(), 5);
            let frac = snap.attributed_alloc_fraction();
            assert!((frac - 0.8).abs() < 1e-9, "frac={frac}");
        });
    }

    #[test]
    fn disabled_profiling_records_nothing() {
        reset();
        assert!(!is_enabled());
        let _g = AllocScope::enter("test.off");
        note_alloc(128);
        charge_sim(99);
        let _s = span("test.off_span");
        drop(_s);
        let snap = snapshot();
        assert_eq!(snap.total_allocs(), 0);
        assert!(snap.scopes.iter().all(|s| s.spans == 0 && s.sim_ns == 0));
    }

    #[test]
    fn spans_count_and_measure() {
        with_profiling(|| {
            for _ in 0..3 {
                let _s = span("test.span");
            }
            let snap = snapshot();
            let s = stats(&snap, "test.span");
            assert_eq!(s.spans, 3);
            assert_eq!(s.wall_hist.count(), 3);
            // Top-level spans: self time == root time.
            assert_eq!(s.wall_ns, s.wall_root_ns);
        });
    }

    #[test]
    fn nested_span_wall_does_not_double_count_roots() {
        with_profiling(|| {
            {
                let _outer = span("test.root");
                let _inner = span("test.nested");
            }
            let snap = snapshot();
            assert_eq!(
                stats(&snap, "test.root").wall_root_ns,
                stats(&snap, "test.root").wall_ns
            );
            assert_eq!(stats(&snap, "test.nested").wall_root_ns, 0);
            assert_eq!(stats(&snap, "test.nested").root_spans, 0);
            assert_eq!(snap.root_span_total(), 1);
            assert!(stats(&snap, "test.nested").wall_ns <= stats(&snap, "test.root").wall_ns);
            assert_eq!(snap.wall_root_total_ns(), stats(&snap, "test.root").wall_ns);
        });
    }

    #[test]
    fn sim_charges_attribute_to_current_or_named_scope() {
        with_profiling(|| {
            {
                let _g = AllocScope::enter("test.simmed");
                charge_sim(100);
                charge_sim(50);
            }
            charge_sim_to("test.elsewhere", 70);
            let snap = snapshot();
            assert_eq!(stats(&snap, "test.simmed").sim_ns, 150);
            assert_eq!(stats(&snap, "test.elsewhere").sim_ns, 70);
        });
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        with_profiling(|| {
            let _g = AllocScope::enter("test.reset_me");
            note_alloc(8);
            drop(_g);
            reset();
            let snap = snapshot();
            assert_eq!(snap.total_allocs(), 0);
            // The name survives with zeroed stats.
            assert_eq!(stats(&snap, "test.reset_me").allocs, 0);
        });
    }

    #[test]
    fn scope_table_overflow_falls_back_to_inert() {
        // Leak distinct names to exhaust the table; must not panic, and
        // post-cap scopes must leave attribution untouched.
        with_profiling(|| {
            for i in 0..(MAX_SCOPES + 8) {
                let name: &'static str = Box::leak(format!("test.flood{i}").into_boxed_str());
                let _g = AllocScope::enter(name);
            }
            let snap = snapshot();
            assert!(snap.scopes.len() < MAX_SCOPES);
        });
    }
}
