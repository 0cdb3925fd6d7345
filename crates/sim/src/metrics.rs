//! System-wide metrics hub.
//!
//! A [`MetricsHub`] is a hierarchical registry of counters, gauges, and the
//! log-bucketed [`Histogram`]s from [`crate::stats`], keyed
//! `subsystem.device.metric` (e.g. `nic.nic0.frames_rx`,
//! `kvs.kvs0.gets`). Every subsystem — bus, iommu, devices, net, kvs,
//! memctl — registers into the same hub at construction, so one snapshot
//! captures the whole machine and the exporters in [`crate::export`] can emit
//! it as Prometheus text or JSON.
//!
//! The hub is a cheaply clonable handle (`Rc<RefCell<…>>` — the simulator is
//! deliberately single-threaded). Components record through a
//! [`CounterHandle`], [`GaugeHandle`], or [`HistogramHandle`] taken once: a
//! handle update is a single `Cell` add, with no map lookup and no borrow
//! bookkeeping.
//!
//! A component declares its instruments once, with [`instruments!`]: one row
//! per instrument, naming its field, its kind and the hub keys it feeds. The
//! declaration derives the struct of handles and its registration, so one
//! call per event bumps every key the row names. A component that counts for
//! itself as well (`stats()`, checkpoints) declares a snapshot struct inside
//! its live one; each row then keeps the instance's own count and feeds the
//! hub key, which sums every instance registered on that hub.
//!
//! [`instruments!`]: crate::instruments

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::stats::Histogram;
use crate::time::SimDuration;

/// Cheap shared handle to one counter (monotonically increasing).
#[derive(Clone, Default)]
pub struct CounterHandle(Rc<Cell<u64>>);

impl CounterHandle {
    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating, so soak runs cannot overflow-panic).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().saturating_add(n));
    }
}

/// Cheap shared handle to one gauge (a signed level, e.g. a queue depth).
#[derive(Clone, Default)]
pub struct GaugeHandle(Rc<Cell<i64>>);

impl GaugeHandle {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    /// Moves the level by `delta` (saturating).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.set(self.0.get().saturating_add(delta));
    }
}

/// Cheap shared handle to one histogram.
#[derive(Clone, Default)]
pub struct HistogramHandle(Rc<RefCell<Histogram>>);

impl HistogramHandle {
    /// Records one duration.
    #[inline]
    pub fn record(&self, d: SimDuration) {
        self.0.borrow_mut().record(d);
    }

    /// Records one raw value.
    #[inline]
    pub fn record_value(&self, v: u64) {
        self.0.borrow_mut().record_value(v);
    }
}

/// One declared instrument's handles: every hub key its row names, bumped
/// by one call.
pub struct Keys<H, const K: usize>(pub [H; K]);

/// Handles that feed no hub, until the instrument is registered.
impl<H: Default, const K: usize> Default for Keys<H, K> {
    fn default() -> Self {
        Keys(std::array::from_fn(|_| H::default()))
    }
}

/// Gives [`Keys`] of handle type `$h` the handle's recording calls, each
/// applied to every key.
macro_rules! fan_out {
    ($h:ty: $($call:ident($($arg:ident: $t:ty),*)),*) => {
        impl<const K: usize> Keys<$h, K> {
            $(#[inline]
            pub fn $call(&self, $($arg: $t),*) {
                self.0.iter().for_each(|h| h.$call($($arg),*));
            })*
        }
    };
}

fan_out!(CounterHandle: incr(), add(n: u64));
fan_out!(GaugeHandle: set(v: i64), add(delta: i64));
fan_out!(HistogramHandle: record(d: SimDuration));

/// An instance's own count, fed to the hub key of its row once the instance
/// registers: the count is the instance's (`stats()`, its checkpoint), the
/// key sums every instance on the hub. What it counts before registering
/// stays its own.
#[derive(Default)]
pub struct Count {
    /// The instance's own count.
    pub n: u64,
    /// The row's key, once the instance registered (never, for a row that
    /// names none).
    pub key: Option<CounterHandle>,
}

impl Count {
    /// Counts one.
    #[inline]
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Counts `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.n += n;
        if let Some(key) = &self.key {
            key.add(n);
        }
    }
}

/// An instance's own level, fed to a gauge key once the instance registers
/// (see [`Count`]).
#[derive(Default)]
pub struct Level {
    /// The instance's own level.
    pub n: u64,
    /// The row's key, once the instance registered.
    pub key: Option<GaugeHandle>,
}

impl Level {
    /// Sets the level.
    #[inline]
    pub fn set(&mut self, v: u64) {
        self.n = v;
        if let Some(key) = &self.key {
            key.set(v as i64);
        }
    }
}

/// The handle `get` returns for the key a row spells: a key without
/// placeholders is looked up as written, a template is formatted once.
#[doc(hidden)]
pub fn handle<H>(key: fmt::Arguments<'_>, get: impl FnOnce(&str) -> H) -> H {
    match key.as_str() {
        Some(key) => get(key),
        None => get(&fmt::format(key)),
    }
}

/// Declares a component's instruments once: one row per instrument, `field:
/// kind "key" …` — the kind `counter`, `gauge` or `histogram`, then the hub
/// keys it feeds. A key is a `format!` template over the group's parameters
/// (`"{sub}.{name}.msgs"`); a key without placeholders builds no string.
///
/// `struct S(params) { rows }` derives `S`, a struct of [`Keys`], and
/// `S::register(hub, params)`; one call per event (`s.field.incr()`) bumps
/// every key of the row. Rows after a `;` name only a kind and a key: the
/// group registers that key and keeps no handle, for rows of another group
/// to feed.
///
/// `struct L { struct S { rows } rows }` is a component that counts for
/// itself as well. `S` is the plain snapshot of its own counts (a `u64` per
/// row, in row order, with a [`Field`](lastcpu_snap::Field)); a row of `S`
/// names at most one key, or none. `L` holds a [`Count`] or [`Level`] per row
/// of both lists (the rows after `S` are not in it) and derives `Default`,
/// `register(&mut self, hub)`, `stats()` and a checkpoint that is `S`'s.
///
/// ```
/// use lastcpu_sim::MetricsHub;
/// lastcpu_sim::instruments! {
///     struct Link(idx: usize) {
///         bytes: counter "link.m{idx}.bytes" "link.bytes";
///         counter "link.drops",
///     }
/// }
/// lastcpu_sim::instruments! {
///     struct Server {
///         #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///         pub struct ServerStats {
///             gets: counter "server.gets",
///             fast_gets: counter,
///         }
///         depth: gauge "server.depth",
///     }
/// }
/// let hub = MetricsHub::new();
/// let link = Link::register(&hub, 3);
/// link.bytes.add(64);
/// let (mut a, mut b) = (Server::default(), Server::default());
/// a.gets.incr(); // before registering: the instance's alone
/// a.register(&hub);
/// b.register(&hub);
/// a.gets.incr();
/// b.gets.add(2);
/// assert_eq!(hub.counter("link.m3.bytes"), 64);
/// assert_eq!(hub.counter("link.bytes"), 64);
/// assert_eq!(hub.counters().len(), 4); // link.drops registered too
/// assert_eq!(a.stats(), ServerStats { gets: 2, fast_gets: 0 });
/// assert_eq!(hub.counter("server.gets"), 3);
/// ```
#[macro_export]
macro_rules! instruments {
    ($(#[$lm:meta])* $lv:vis struct $live:ident {
        $(#[$sm:meta])* $sv:vis struct $snap:ident {
            $($(#[$fm:meta])* $f:ident: $kind:ident $($key:literal)?),* $(,)?
        }
        $($(#[$hm:meta])* $h:ident: $hkind:ident $hkey:literal),* $(,)?
    }) => {
        $(#[$sm])*
        $sv struct $snap {
            $($(#[$fm])* pub $f: u64,)*
        }
        $crate::__snap::record!($snap { $($f),* });

        $(#[$lm])*
        #[derive(Default)]
        $lv struct $live {
            $($f: $crate::instruments!(@own $kind),)*
            $($(#[$hm])* $h: $crate::instruments!(@own $hkind),)*
        }

        impl $live {
            /// Feeds every row to its key on `hub`; what was counted before
            /// stays the instance's own.
            $lv fn register(&mut self, hub: &$crate::MetricsHub) {
                $($(self.$f.key = Some($crate::instruments!(@key hub $kind $key));)?)*
                $(self.$h.key = Some($crate::instruments!(@key hub $hkind $hkey));)*
            }

            /// The instance's own counts.
            $lv fn stats(&self) -> $snap {
                $snap { $($f: self.$f.n),* }
            }
        }

        impl $crate::__snap::Snapshot for $live {
            fn snapshot(&self, w: &mut $crate::__snap::SnapWriter) {
                $crate::__snap::Field::put(&self.stats(), w);
            }
        }

        impl $crate::__snap::Restore for $live {
            fn restore(&mut self, r: &mut $crate::__snap::SnapReader<'_>) -> $crate::__snap::Result<()> {
                let s: $snap = $crate::__snap::Field::take(r)?;
                $(self.$f.n = s.$f;)*
                Ok(())
            }
        }
    };
    ($(#[$m:meta])* $v:vis struct $ty:ident $(($($p:ident: $pt:ty),*))? {
        $($(#[$fm:meta])* $f:ident: $kind:ident $($key:literal)+),* $(,)?
        $(; $($(#[$am:meta])* $akind:ident $akey:literal),+ $(,)?)?
    }) => {
        $(#[$m])*
        $v struct $ty {
            $($(#[$fm])* $f: $crate::metrics::Keys<
                $crate::instruments!(@handle $kind), { <[&str]>::len(&[$($key),+]) }
            >,)*
        }

        impl $ty {
            /// Registers every row on `hub`.
            $v fn register(hub: &$crate::MetricsHub, $($($p: $pt),*)?) -> Self {
                $($($crate::instruments!(@key hub $akind $akey);)+)?
                $ty { $($f: $crate::metrics::Keys([$($crate::instruments!(@key hub $kind $key)),+]),)* }
            }
        }
    };
    (@key $hub:ident $kind:ident $key:literal) => {
        $crate::metrics::handle(format_args!($key), |k| $crate::instruments!(@reg $kind)($hub, k))
    };
    (@own counter) => { $crate::metrics::Count };
    (@own gauge) => { $crate::metrics::Level };
    (@handle counter) => { $crate::CounterHandle };
    (@handle gauge) => { $crate::GaugeHandle };
    (@handle histogram) => { $crate::HistogramHandle };
    (@reg counter) => { $crate::MetricsHub::counter_handle };
    (@reg gauge) => { $crate::MetricsHub::gauge_handle };
    (@reg histogram) => { $crate::MetricsHub::histogram_handle };
}

#[derive(Default)]
struct HubInner {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    gauges: BTreeMap<String, Rc<Cell<i64>>>,
    histograms: BTreeMap<String, Rc<RefCell<Histogram>>>,
}

/// Shared, hierarchical registry of counters, gauges, and histograms.
///
/// Everything is recorded through a handle; an instrument is declared once
/// with [`instruments!`](crate::instruments), which registers its handles.
/// Readers look a key up by string (`counter`, `gauge`, `histogram`).
#[derive(Clone, Default)]
pub struct MetricsHub {
    inner: Rc<RefCell<HubInner>>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    // --- handle registration (construction-time) ---------------------------

    /// The counter named `key`, creating it on first use.
    ///
    /// Existing keys are looked up by `&str` — no `String` is built, so a
    /// second instance registering a key the hub already holds allocates
    /// nothing.
    pub fn counter_handle(&self, key: &str) -> CounterHandle {
        let mut inner = self.inner.borrow_mut();
        if let Some(cell) = inner.counters.get(key) {
            return CounterHandle(cell.clone());
        }
        let cell = Rc::new(Cell::new(0));
        inner.counters.insert(key.to_string(), cell.clone());
        CounterHandle(cell)
    }

    /// The gauge named `key`, creating it on first use (allocation-free for
    /// existing keys; see [`MetricsHub::counter_handle`]).
    pub fn gauge_handle(&self, key: &str) -> GaugeHandle {
        let mut inner = self.inner.borrow_mut();
        if let Some(cell) = inner.gauges.get(key) {
            return GaugeHandle(cell.clone());
        }
        let cell = Rc::new(Cell::new(0));
        inner.gauges.insert(key.to_string(), cell.clone());
        GaugeHandle(cell)
    }

    /// The histogram named `key`, creating it on first use (allocation-free
    /// for existing keys; see [`MetricsHub::counter_handle`]).
    pub fn histogram_handle(&self, key: &str) -> HistogramHandle {
        let mut inner = self.inner.borrow_mut();
        if let Some(h) = inner.histograms.get(key) {
            return HistogramHandle(h.clone());
        }
        let h = Rc::new(RefCell::new(Histogram::new()));
        inner.histograms.insert(key.to_string(), h.clone());
        HistogramHandle(h)
    }

    // --- reading ------------------------------------------------------------

    /// Current value of counter `key` (zero when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.inner.borrow().counters.get(key).map_or(0, |c| c.get())
    }

    /// Current level of gauge `key` (zero when absent).
    pub fn gauge(&self, key: &str) -> i64 {
        self.inner.borrow().gauges.get(key).map_or(0, |g| g.get())
    }

    /// Point-in-time copy of histogram `key`.
    pub fn histogram(&self, key: &str) -> Option<Histogram> {
        self.inner
            .borrow()
            .histograms
            .get(key)
            .map(|h| h.borrow().clone())
    }

    /// Snapshot of all counters in key order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .borrow()
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Snapshot of all gauges in key order.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        self.inner
            .borrow()
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect()
    }

    /// Snapshot of all histograms in key order.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.inner
            .borrow()
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.borrow().clone()))
            .collect()
    }
}

lastcpu_snap::fields! { MetricsHub |self| { ..Registered } }

/// Every registered metric in key order, counters, gauges, then histograms.
/// Zero-valued but registered metrics are included: registration is part
/// of the state (a restored hub must re-export the same key set). A
/// restore zeroes the live metrics, then loads through the get-or-create
/// path recording uses, so outstanding handles stay valid.
struct Registered;

impl lastcpu_snap::Span<MetricsHub> for Registered {
    fn put(&self, hub: &MetricsHub, w: &mut lastcpu_snap::SnapWriter) {
        use lastcpu_snap::Field;
        let inner = hub.inner.borrow();
        w.put_len(inner.counters.len());
        for (k, c) in &inner.counters {
            k.put(w);
            c.get().put(w);
        }
        w.put_len(inner.gauges.len());
        for (k, g) in &inner.gauges {
            k.put(w);
            g.get().put(w);
        }
        w.put_len(inner.histograms.len());
        for (k, h) in &inner.histograms {
            k.put(w);
            h.borrow().put(w);
        }
    }

    fn take(
        &self,
        hub: &mut MetricsHub,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<()> {
        use lastcpu_snap::Field;
        // Zero every metric but keep its registration, so handles stay valid.
        {
            let inner = hub.inner.borrow();
            for c in inner.counters.values() {
                c.set(0);
            }
            for g in inner.gauges.values() {
                g.set(0);
            }
            for h in inner.histograms.values() {
                h.borrow_mut().reset();
            }
        }
        for (k, v) in BTreeMap::<String, u64>::take(r)? {
            hub.counter_handle(&k).0.set(v);
        }
        for (k, v) in BTreeMap::<String, i64>::take(r)? {
            hub.gauge_handle(&k).0.set(v);
        }
        for (k, h) in BTreeMap::<String, Histogram>::take(r)? {
            *hub.histogram_handle(&k).0.borrow_mut() = h;
        }
        Ok(())
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "MetricsHub({} counters, {} gauges, {} histograms)",
            inner.counters.len(),
            inner.gauges.len(),
            inner.histograms.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_round_trip_through_keys() {
        let hub = MetricsHub::new();
        let msgs = hub.counter_handle("bus.messages");
        msgs.incr();
        msgs.add(2);
        hub.histogram_handle("kvs.kvs0.latency")
            .record(SimDuration::from_micros(5));
        hub.gauge_handle("nic.nic0.queue_depth").set(7);
        assert_eq!(hub.counter("bus.messages"), 3);
        assert_eq!(hub.counter("missing"), 0);
        assert_eq!(hub.gauge("nic.nic0.queue_depth"), 7);
        assert_eq!(hub.histogram("kvs.kvs0.latency").unwrap().count(), 1);
        assert!(hub.histogram("missing").is_none());
    }

    #[test]
    fn handles_share_storage_with_keys() {
        let hub = MetricsHub::new();
        let h = hub.counter_handle("iommu.dev3.maps");
        h.incr();
        h.add(4);
        hub.counter_handle("iommu.dev3.maps").incr();
        assert_eq!(hub.counter("iommu.dev3.maps"), 6);
        assert_eq!(h.0.get(), 6);

        let g = hub.gauge_handle("sys.inbox");
        g.add(3);
        g.add(-1);
        assert_eq!(hub.gauge("sys.inbox"), 2);

        let lat = hub.histogram_handle("ssd.ssd0.read_latency");
        lat.record(SimDuration::from_nanos(400));
        assert_eq!(hub.histogram("ssd.ssd0.read_latency").unwrap().count(), 1);
        assert_eq!(lat.0.borrow().count(), 1);
    }

    #[test]
    fn clones_view_the_same_hub() {
        let hub = MetricsHub::new();
        let view = hub.clone();
        hub.counter_handle("a.b.c").incr();
        assert_eq!(view.counter("a.b.c"), 1);
    }

    #[test]
    fn counters_saturate_instead_of_panicking() {
        let hub = MetricsHub::new();
        let h = hub.counter_handle("soak");
        h.add(u64::MAX - 1);
        h.add(5);
        assert_eq!(hub.counter("soak"), u64::MAX);
        let g = hub.gauge_handle("level");
        g.set(i64::MAX);
        g.add(1);
        assert_eq!(hub.gauge("level"), i64::MAX);
    }

    #[test]
    fn handle_lookup_of_existing_key_does_not_reintern() {
        // Fetching a handle for a key that already exists must return the
        // same storage (and, by construction, never rebuilds the key String
        // — the lookup goes through `BTreeMap::get(&str)`).
        let hub = MetricsHub::new();
        let a = hub.counter_handle("kvs.c0.gets");
        let b = hub.counter_handle("kvs.c0.gets");
        a.incr();
        b.incr();
        assert_eq!(hub.counter("kvs.c0.gets"), 2);
        assert_eq!(hub.counters().len(), 1);

        let ha = hub.histogram_handle("kvs.c0.lat");
        let hb = hub.histogram_handle("kvs.c0.lat");
        ha.record_value(1);
        hb.record_value(2);
        assert_eq!(hub.histogram("kvs.c0.lat").unwrap().count(), 2);
    }

    #[test]
    fn snapshots_and_reset() {
        let hub = MetricsHub::new();
        let handle = hub.counter_handle("bus.messages");
        handle.incr();
        hub.gauge_handle("q").set(-2);
        hub.histogram_handle("h").record_value(9);
        assert_eq!(hub.counters().len(), 1);
        assert_eq!(hub.gauges().len(), 1);
        assert_eq!(hub.histograms().len(), 1);
        // A restore zeroes what its section does not carry and keeps every
        // registration: after loading an empty hub's section, the handle
        // still feeds its key.
        let empty = lastcpu_snap::Span::bytes(&Registered, &MetricsHub::new());
        let mut r = lastcpu_snap::SnapReader::new("metrics", &empty);
        lastcpu_snap::Span::take(&Registered, &mut hub.clone(), &mut r).unwrap();
        assert_eq!(hub.counter("bus.messages"), 0);
        handle.incr(); // handles survive the reset
        assert_eq!(hub.counter("bus.messages"), 1);
    }

    crate::instruments! {
        struct Machine {
            msgs: counter "bus.messages";
            counter "iommu.faults",
        }
    }

    crate::instruments! {
        struct Slot(sub: &str, name: &str) {
            depth: gauge "{sub}.{name}.inbox_depth",
            faults: counter "iommu.{name}.faults" "iommu.faults",
            handler_ns: histogram "{sub}.{name}.handler_ns",
        }
    }

    crate::instruments! {
        struct Server {
            #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
            struct Stats {
                gets: counter "kvs.server.gets",
                fast_gets: counter,
                failures: counter "kvs.server.restarts",
                epoch: gauge "kvs.server.epoch",
            }
            depth: gauge "kvs.server.depth",
        }
    }

    #[test]
    fn a_row_feeds_every_key_it_names() {
        let hub = MetricsHub::new();
        let machine = Machine::register(&hub);
        assert_eq!(hub.counters().len(), 2, "a row after `;` registers its key");
        let slots = [
            Slot::register(&hub, "nic", "nic0"),
            Slot::register(&hub, "ssd", "ssd0"),
        ];
        machine.msgs.incr();
        slots[0].faults.add(2);
        slots[1].faults.incr();
        slots[1].depth.set(4);
        slots[0].handler_ns.record(SimDuration::from_nanos(90));
        assert_eq!(hub.counter("bus.messages"), 1);
        assert_eq!(hub.counter("iommu.nic0.faults"), 2);
        assert_eq!(hub.counter("iommu.ssd0.faults"), 1);
        assert_eq!(hub.counter("iommu.faults"), 3);
        assert_eq!(hub.gauge("ssd.ssd0.inbox_depth"), 4);
        assert_eq!(hub.histogram("nic.nic0.handler_ns").unwrap().count(), 1);
    }

    #[test]
    fn an_instance_counts_for_itself_and_the_hub_sums_instances() {
        use lastcpu_snap::{Restore, Snapshot};
        let hub = MetricsHub::new();
        let (mut a, mut b) = (Server::default(), Server::default());
        a.gets.incr();
        a.register(&hub);
        b.register(&hub);
        a.gets.incr();
        a.fast_gets.incr();
        b.gets.add(3);
        b.failures.incr();
        b.epoch.set(7);
        b.depth.set(2);
        let want = Stats {
            gets: 3,
            fast_gets: 0,
            failures: 1,
            epoch: 7,
        };
        assert_eq!(b.stats(), want);
        assert_eq!(a.stats().gets, 2, "the count before registering is kept");
        assert_eq!(hub.counter("kvs.server.gets"), 4, "…but reaches no key");
        assert_eq!(hub.counter("kvs.server.restarts"), 1);
        assert_eq!(hub.gauge("kvs.server.epoch"), 7);
        assert_eq!(hub.gauge("kvs.server.depth"), 2);
        assert!(hub.counters().iter().all(|(k, _)| !k.contains("fast")));

        // The checkpoint is the snapshot struct's encoding; a restore loads
        // the own counts and feeds no key.
        let bytes = b.snapshot_bytes();
        let mut w = lastcpu_snap::SnapWriter::new();
        lastcpu_snap::Field::put(&want, &mut w);
        assert_eq!(bytes, w.into_bytes());
        let mut c = Server::default();
        c.register(&hub);
        c.restore_bytes("server", &bytes).unwrap();
        assert_eq!(c.stats(), want);
        assert_eq!(hub.counter("kvs.server.gets"), 4);
    }
}
