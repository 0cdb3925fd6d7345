//! The event queue at the heart of the discrete-event engine.
//!
//! Events are arbitrary user values tagged with a firing time. Ties are
//! broken by insertion order (FIFO), which — together with the seeded RNG —
//! makes whole-system runs deterministic.
//!
//! # Engine
//!
//! The queue is a hierarchical timing wheel. The near future is an array of
//! power-of-two-granularity slots (O(1) unsorted insert); the slot currently
//! being drained is sorted once into a `ready` run; anything beyond the wheel
//! horizon parks in a small overflow heap. Under heavy traffic almost every
//! event lands in a slot or in the ready run, so the per-event cost is a push
//! plus an amortized share of one small sort — no O(log n) sift through a
//! cache-hostile heap per operation.
//!
//! The original `BinaryHeap` queue survives only as the `#[cfg(test)]`
//! reference model: the differential and property tests below check that the
//! wheel pops the bit-identical `(time, seq)` sequence on random
//! interleavings.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// An event extracted from the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The event payload.
    pub event: E,
}

/// Internal entry. The overflow heap relies on the reversed `Ord` so that the
/// *earliest* `(time, seq)` pops first; slot buckets sort ascending by the
/// same key.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Slot granularity: `1 << SLOT_SHIFT` nanoseconds per slot (256 ns), a bit
/// finer than one bus hop so bursts of back-to-back deliveries spread over a
/// handful of slots instead of piling into one.
const SLOT_SHIFT: u32 = 8;

/// Number of wheel slots (must be a power of two). With 256 ns slots the
/// wheel horizon is 1024 × 256 ns ≈ 262 µs; timers beyond that (heartbeats,
/// liveness scans) take the overflow heap, which is fine — they are rare.
const NUM_SLOTS: usize = 1024;

/// The timing wheel.
///
/// Invariants (checked by the differential property tests):
///
/// - `ready` is sorted ascending by `(at, seq)` and holds only entries whose
///   slot is `<= drain_slot`.
/// - `slots[s & mask]` holds only entries whose absolute slot is exactly `s`
///   for some `s` in `(drain_slot, drain_slot + NUM_SLOTS)`; buckets are
///   unsorted until drained.
/// - `overflow` holds entries at or beyond the horizon at the time they were
///   scheduled; its min is always `>=` every slot/ready entry **after**
///   [`Wheel::refill`] has run for the current `drain_slot`.
struct Wheel<E> {
    slots: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over `slots` (bit per bucket): the drain cursor
    /// skips runs of empty buckets with a couple of word scans instead of
    /// stepping slot by slot. Sparse schedules (events microseconds apart,
    /// i.e. dozens of empty slots between occupied ones) would otherwise
    /// pay a per-slot walk on every pop.
    occupied: [u64; NUM_SLOTS / 64],
    /// Sorted run for the slot currently being drained (plus any late
    /// arrivals at or before `drain_slot`, inserted in order).
    ready: VecDeque<Entry<E>>,
    /// Beyond-horizon events, min-heap by `(at, seq)`.
    overflow: BinaryHeap<Entry<E>>,
    /// Absolute slot index the drain cursor points at.
    drain_slot: u64,
    /// Number of entries across all `slots` buckets.
    in_slots: usize,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        let mut slots = Vec::with_capacity(NUM_SLOTS);
        slots.resize_with(NUM_SLOTS, Vec::new);
        Wheel {
            slots,
            occupied: [0; NUM_SLOTS / 64],
            ready: VecDeque::new(),
            overflow: BinaryHeap::new(),
            drain_slot: 0,
            in_slots: 0,
        }
    }

    /// Marks bucket `idx` occupied.
    #[inline]
    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Circular distance (in slots, `0..NUM_SLOTS`) from the cursor to the
    /// next occupied bucket. Requires `in_slots > 0`.
    fn next_occupied_distance(&self) -> u64 {
        let start = (self.drain_slot & Self::mask()) as usize;
        let (w0, b0) = (start / 64, start % 64);
        // Bits at or above the cursor in its own word (distance 0 included).
        let head = self.occupied[w0] >> b0;
        if head != 0 {
            return head.trailing_zeros() as u64;
        }
        let words = NUM_SLOTS / 64;
        for i in 1..=words {
            // `i == words` revisits the start word for the wrapped-around
            // bits below the cursor.
            let w = self.occupied[(w0 + i) % words];
            if w != 0 {
                return (i * 64 - b0) as u64 + w.trailing_zeros() as u64;
            }
        }
        unreachable!("in_slots > 0 implies an occupied bucket");
    }

    #[inline]
    fn mask() -> u64 {
        (NUM_SLOTS - 1) as u64
    }

    fn len(&self) -> usize {
        self.ready.len() + self.in_slots + self.overflow.len()
    }

    /// Inserts one entry. `seq` values are handed out monotonically by the
    /// queue, so an entry landing at or before the drain cursor can only
    /// belong *after* every same-instant entry already in `ready` — the
    /// sorted insert reduces to a search on `at` alone.
    fn schedule(&mut self, entry: Entry<E>) {
        let s = entry.at.as_nanos() >> SLOT_SHIFT;
        if s <= self.drain_slot {
            // At or before the drain cursor: merge into the sorted ready
            // run. The common case (scheduling for the instant being
            // drained) appends at/near the back.
            let pos = self.ready.partition_point(|e| e.at <= entry.at);
            if pos == self.ready.len() {
                self.ready.push_back(entry);
            } else {
                self.ready.insert(pos, entry);
            }
        } else if s - self.drain_slot < NUM_SLOTS as u64 {
            let idx = (s & Self::mask()) as usize;
            self.slots[idx].push(entry);
            self.mark(idx);
            self.in_slots += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Moves overflow entries that now fall inside the wheel window into
    /// their buckets.
    fn refill(&mut self) {
        let horizon = self.drain_slot + NUM_SLOTS as u64;
        while let Some(min) = self.overflow.peek() {
            let s = min.at.as_nanos() >> SLOT_SHIFT;
            if s >= horizon {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry");
            // `s >= drain_slot` always holds: overflow entries were beyond
            // the horizon when scheduled and the cursor only moves forward
            // (a cursor jump targets exactly the overflow minimum's slot).
            let idx = (s & Self::mask()) as usize;
            self.slots[idx].push(entry);
            self.mark(idx);
            self.in_slots += 1;
        }
    }

    /// Makes `ready` non-empty iff the wheel holds any entry.
    fn ensure_ready(&mut self) {
        while self.ready.is_empty() {
            if self.in_slots == 0 {
                if self.overflow.is_empty() {
                    return;
                }
                // Every near bucket is empty: jump the cursor straight to
                // the overflow minimum's slot instead of stepping through
                // the gap one slot at a time.
                let min_at = self.overflow.peek().expect("non-empty").at;
                self.drain_slot = min_at.as_nanos() >> SLOT_SHIFT;
                self.refill();
                debug_assert!(self.in_slots > 0);
            }
            // Advance to the next occupied slot in one bitmap scan
            // (guaranteed to exist within one revolution: `in_slots > 0`).
            // Jumping is safe: overflow entries pulled in by the wider
            // horizon all sit at or beyond the *old* horizon, which is
            // strictly later than any bucketed slot we could jump to, so
            // the target found before `refill` is still the minimum.
            let dist = self.next_occupied_distance();
            if dist > 0 {
                self.drain_slot += dist;
                self.refill();
            }
            let idx = (self.drain_slot & Self::mask()) as usize;
            let bucket = &mut self.slots[idx];
            bucket.sort_unstable_by_key(|e| (e.at, e.seq));
            self.in_slots -= bucket.len();
            self.occupied[idx / 64] &= !(1u64 << (idx % 64));
            // `drain` keeps the bucket's capacity for the next revolution.
            self.ready.extend(bucket.drain(..));
        }
    }

    fn clear(&mut self, now: SimTime) {
        for bucket in &mut self.slots {
            bucket.clear();
        }
        self.occupied = [0; NUM_SLOTS / 64];
        self.ready.clear();
        self.overflow.clear();
        self.in_slots = 0;
        self.drain_slot = now.as_nanos() >> SLOT_SHIFT;
    }
}

/// A deterministic min-priority event queue with a virtual clock.
///
/// The queue owns the clock: popping an event advances `now` to the event's
/// timestamp. Scheduling into the past is a logic error and is reported as
/// a panic rather than silently reordering history.
///
/// # Examples
///
/// ```
/// use lastcpu_sim::{EventQueue, SimDuration};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule_in(SimDuration::from_nanos(20), "b");
/// q.schedule_in(SimDuration::from_nanos(10), "a");
/// q.schedule_in(SimDuration::from_nanos(10), "a2"); // same instant: FIFO
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
/// assert_eq!(order, vec!["a", "a2", "b"]);
/// ```
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether the queue holds no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far (a cheap progress metric).
    ///
    /// Intentionally **cumulative across [`clear`](Self::clear)**: it counts
    /// work done over the queue's whole lifetime, not the current schedule.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current virtual time: an event in
    /// the past can never fire and indicates a bug in the caller's cost
    /// accounting.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event at {at:?} which is before now ({:?})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.wheel.schedule(Entry { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` to fire immediately (at the current time, after all
    /// events already scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Timestamp of the next pending event, if any.
    ///
    /// Takes `&mut self` because the wheel may advance its drain cursor to
    /// find the next event; the observable state (pending events, clock) is
    /// unchanged.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.ensure_ready();
        self.wheel.ready.front().map(|e| e.at)
    }

    /// Extracts the next entry if it fires at or before `deadline` (`None` =
    /// no deadline). Single peek: the qualifying entry is popped without
    /// re-comparing against the queue.
    fn pop_entry(&mut self, deadline: Option<SimTime>) -> Option<Entry<E>> {
        self.wheel.ensure_ready();
        let front = self.wheel.ready.front()?;
        if deadline.is_some_and(|d| front.at > d) {
            return None;
        }
        self.wheel.ready.pop_front()
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let entry = self.pop_entry(None)?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.popped += 1;
        Some(ScheduledEvent {
            at: entry.at,
            event: entry.event,
        })
    }

    /// Pops the next event only if it fires at or before `deadline`.
    ///
    /// Leaves the clock untouched when no event qualifies, so callers can
    /// interleave simulation with external pacing.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        let entry = self.pop_entry(Some(deadline))?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.popped += 1;
        Some(ScheduledEvent {
            at: entry.at,
            event: entry.event,
        })
    }

    /// Discards all pending events without advancing the clock.
    ///
    /// Also resets the FIFO tie-break counter, so a reused queue orders
    /// same-instant events exactly like a fresh one (the counter previously
    /// carried over, silently changing tie-break behaviour after reuse).
    /// [`events_processed`](Self::events_processed) is *not* reset — it is
    /// a lifetime counter by design.
    pub fn clear(&mut self) {
        self.wheel.clear(self.now);
        self.seq = 0;
    }

    /// The FIFO tie-break cursor: the `seq` the next scheduled event gets.
    pub fn seq_cursor(&self) -> u64 {
        self.seq
    }

    /// Every pending entry as `(time, seq, &event)`, sorted by `(time, seq)`
    /// — i.e. exactly the order the queue would pop them. Wheel internals
    /// (which bucket or heap an entry currently sits in) are not observable
    /// in a checkpoint.
    pub fn entries(&self) -> Vec<(SimTime, u64, &E)> {
        let w = &self.wheel;
        let mut out: Vec<(SimTime, u64, &E)> = w
            .ready
            .iter()
            .chain(w.slots.iter().flatten())
            .chain(w.overflow.iter())
            .map(|e| (e.at, e.seq, &e.event))
            .collect();
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    /// Reinitializes the queue from checkpointed state: clock, tie-break
    /// cursor, lifetime pop counter, and the pending entries *with their
    /// original seq values* (so same-instant FIFO order replays exactly).
    ///
    /// This is the restore path's reset — [`clear`](Self::clear) alone
    /// cannot be used because it zeroes the seq cursor and keeps the
    /// lifetime counter, both of which must instead match the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if an entry fires before `now` or carries a seq at or beyond
    /// `seq` (either would mean the checkpoint is internally inconsistent).
    pub fn reinit_from(
        &mut self,
        now: SimTime,
        seq: u64,
        popped: u64,
        entries: impl IntoIterator<Item = (SimTime, u64, E)>,
    ) {
        self.wheel.clear(now);
        self.now = now;
        self.seq = seq;
        self.popped = popped;
        // Insert in (at, seq) order: the wheel's sorted-ready merge relies
        // on same-instant entries arriving in ascending seq order.
        let mut entries: Vec<(SimTime, u64, E)> = entries.into_iter().collect();
        entries.sort_unstable_by_key(|&(at, s, _)| (at, s));
        for (at, entry_seq, event) in entries {
            assert!(
                at >= now,
                "reinit_from: entry at {at:?} is before the restored clock {now:?}"
            );
            assert!(
                entry_seq < seq,
                "reinit_from: entry seq {entry_seq} is at/beyond the cursor {seq}"
            );
            self.wheel.schedule(Entry {
                at,
                seq: entry_seq,
                event,
            });
        }
    }
}

#[cfg(test)]
mod difftest {
    use super::*;

    /// Reference model: the original binary min-heap on `(time, seq)`, with
    /// the same clock and counters as [`EventQueue`].
    struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        now: SimTime,
        seq: u64,
        popped: u64,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
                popped: 0,
            }
        }

        fn schedule_at(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { at, seq, event });
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }

        fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
            if self.peek_time()? > deadline {
                return None;
            }
            self.pop()
        }

        fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            self.popped += 1;
            Some(ScheduledEvent {
                at: entry.at,
                event: entry.event,
            })
        }
    }

    /// Differential check: the wheel and the reference heap produce identical
    /// pop sequences on a deterministic pseudo-random schedule mixing
    /// same-instant bursts, near-future and far-future (beyond-horizon)
    /// events, interleaved with pops and deadline-limited pops.
    pub fn differential_run(seed: u64, ops: usize) {
        use crate::rng::DetRng;
        let mut rng = DetRng::new(seed);
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut next_id = 0u64;
        for _ in 0..ops {
            match rng.below(10) {
                // Schedule a burst (possibly same-instant FIFO).
                0..=4 => {
                    let base = wheel.now();
                    let delay = match rng.below(4) {
                        0 => 0,                  // same instant
                        1 => rng.below(1 << 10), // near: inside one slot region
                        2 => rng.below(1 << 18), // mid: within the horizon
                        _ => rng.below(1 << 24), // far: mostly beyond the horizon
                    };
                    let at = base + SimDuration::from_nanos(delay);
                    let burst = 1 + rng.below(8);
                    for _ in 0..burst {
                        wheel.schedule_at(at, next_id);
                        heap.schedule_at(at, next_id);
                        next_id += 1;
                    }
                }
                // Pop a few.
                5..=7 => {
                    for _ in 0..=rng.below(6) {
                        let a = wheel.pop();
                        let b = heap.pop();
                        assert_eq!(a, b, "pop diverged (seed {seed:#x})");
                    }
                }
                // Deadline-limited pop.
                8 => {
                    let d = wheel.now() + SimDuration::from_nanos(rng.below(1 << 20));
                    let a = wheel.pop_until(d);
                    let b = heap.pop_until(d);
                    assert_eq!(a, b, "pop_until diverged (seed {seed:#x})");
                }
                // Peek (exercises the wheel cursor without consuming).
                _ => {
                    assert_eq!(wheel.peek_time(), heap.peek_time());
                }
            }
            assert_eq!(wheel.now(), heap.now);
            assert_eq!(wheel.len(), heap.heap.len());
        }
        // Drain: remaining sequences must match exactly.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b, "drain diverged (seed {seed:#x})");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.events_processed(), heap.popped);
    }
}

#[cfg(test)]
mod proptests {
    use super::difftest::differential_run;
    use proptest::prelude::*;

    proptest! {
        /// Property: for any random schedule (same-instant bursts, near- and
        /// far-future mixes included), the wheel and the reference heap pop
        /// bit-identical sequences.
        #[test]
        fn prop_wheel_matches_heap(seed in any::<u64>()) {
            differential_run(seed, 200);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> EventQueue<u32> {
        EventQueue::new()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = q();
        for i in 0..100 {
            q.schedule_at(SimTime::from_nanos(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(42), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_into_the_past_panics() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(10), 0);
        q.pop();
        q.schedule_at(SimTime::from_nanos(5), 1);
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(100), 2);
        assert_eq!(q.pop_until(SimTime::from_nanos(50)).unwrap().event, 1);
        assert!(q.pop_until(SimTime::from_nanos(50)).is_none());
        // Clock did not jump past the deadline.
        assert_eq!(q.now(), SimTime::from_nanos(10));
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    fn schedule_now_fires_after_existing_same_instant_events() {
        let mut q = q();
        q.schedule_now(1);
        q.schedule_now(2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    fn counts_processed_events() {
        let mut q = q();
        q.schedule_now(1);
        q.schedule_now(2);
        q.pop();
        q.pop();
        assert_eq!(q.events_processed(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_tie_break_but_not_events_processed() {
        let mut q = q();
        // Drive the seq counter up, then clear.
        for i in 0..10 {
            q.schedule_now(i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.events_processed(), 1, "popped is cumulative");

        // A reused queue must order same-instant events exactly like a
        // fresh one (the seq counter used to carry over).
        let mut fresh = EventQueue::new();
        // Align the fresh clock with the reused queue's.
        fresh.schedule_at(q.now(), 999);
        fresh.pop();
        for (queue, base) in [(&mut q, 100u32), (&mut fresh, 100u32)] {
            for i in 0..5 {
                queue.schedule_now(base + i);
            }
        }
        let a: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        let b: Vec<u32> = std::iter::from_fn(|| fresh.pop().map(|e| e.event)).collect();
        assert_eq!(a, b);
        assert_eq!(a, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn peek_time_reports_next_event() {
        let mut q = q();
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime::from_nanos(70), 1);
        q.schedule_at(SimTime::from_nanos(30), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(30)));
        // Peeking does not consume or advance.
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().event, 2);
    }

    /// Regression for the wheel's cursor-jump hazard: peeking a far-future
    /// event jumps the drain cursor; an event then scheduled *between* now
    /// and that far slot must still pop first.
    #[test]
    fn near_event_scheduled_after_far_future_peek_pops_first() {
        let mut q = q();
        // Far beyond the wheel horizon (262 µs): lands in overflow.
        q.schedule_at(SimTime::from_nanos(10_000_000), 1);
        // Force a cursor jump to the overflow minimum's slot.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10_000_000)));
        // Now schedule earlier events: before the jumped-to slot, at it, and
        // same-instant bursts.
        q.schedule_at(SimTime::from_nanos(100), 2);
        q.schedule_at(SimTime::from_nanos(100), 3);
        q.schedule_at(SimTime::from_nanos(9_999_999), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![2, 3, 4, 1]);
    }

    #[test]
    fn horizon_boundary_and_wraparound() {
        let mut q = q();
        // Straddle the wheel horizon (1024 slots × 256 ns = 262_144 ns)
        // and force multiple wheel revolutions.
        let times = [
            0u64, 255, 256, 262_143, 262_144, 262_145, 600_000, 1_000_000,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i as u32);
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.at.as_nanos())).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    use super::difftest::differential_run;

    #[test]
    fn differential_wheel_vs_heap_fixed_seeds() {
        for seed in [0xC0FFEE, 1, 2, 3, 0xE9, 0xDEAD_BEEF, 42, 1984] {
            differential_run(seed, 400);
        }
    }
}
