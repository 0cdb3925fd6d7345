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
//! deliberately single-threaded). Hot paths should grab a [`CounterHandle`],
//! [`GaugeHandle`], or [`HistogramHandle`] once and update through it: a
//! handle update is a single `Cell` add, with no map lookup and no borrow
//! bookkeeping.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::stats::Histogram;
use crate::time::SimDuration;

/// Cheap shared handle to one counter (monotonically increasing).
#[derive(Clone)]
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

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Cheap shared handle to one gauge (a signed level, e.g. a queue depth).
#[derive(Clone)]
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

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

/// Cheap shared handle to one histogram.
#[derive(Clone)]
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

    /// Merges a whole sample set.
    pub fn merge(&self, other: &Histogram) {
        self.0.borrow_mut().merge(other);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> Histogram {
        self.0.borrow().clone()
    }
}

#[derive(Default)]
struct HubInner {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    gauges: BTreeMap<String, Rc<Cell<i64>>>,
    histograms: BTreeMap<String, Rc<RefCell<Histogram>>>,
}

/// Shared, hierarchical registry of counters, gauges, and histograms.
///
/// Call sites record by string key (`incr`, `add`, `record`, `counter`,
/// `histogram`); interior mutability means recording needs only `&self`.
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
    /// Existing keys are looked up by `&str` — no `String` is built. The
    /// `BTreeMap::entry` spelling used here originally interned `key` on
    /// *every* call, which made each by-key `incr`/`add`/`record` on a hot
    /// path cost one heap allocation even after the metric existed (the
    /// single largest contributor to E9's system-phase allocs/event).
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

    // --- by-key recording ---------------------------------------------------

    /// Increments the counter named `key`, creating it on first use.
    pub fn incr(&self, key: &str) {
        self.add(key, 1);
    }

    /// Adds `n` to the counter named `key`, creating it on first use.
    pub fn add(&self, key: &str, n: u64) {
        self.counter_handle(key).add(n);
    }

    /// Sets the gauge named `key`.
    pub fn gauge_set(&self, key: &str, v: i64) {
        self.gauge_handle(key).set(v);
    }

    /// Records a duration into histogram `key`, creating it on first use.
    pub fn record(&self, key: &str, d: SimDuration) {
        self.histogram_handle(key).record(d);
    }

    /// Records a raw value into histogram `key`, creating it on first use.
    pub fn record_value(&self, key: &str, v: u64) {
        self.histogram_handle(key).record_value(v);
    }

    /// Merges a whole sample set into histogram `key`, creating it on first
    /// use (used by the profiler to publish per-scope span histograms).
    pub fn merge_histogram(&self, key: &str, h: &Histogram) {
        self.histogram_handle(key).merge(h);
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

    /// Keys (counters, gauges, histograms) under `prefix`, in order.
    pub fn keys_under(&self, prefix: &str) -> Vec<String> {
        let inner = self.inner.borrow();
        let mut keys: Vec<String> = inner
            .counters
            .keys()
            .chain(inner.gauges.keys())
            .chain(inner.histograms.keys())
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.sort();
        keys
    }

    /// Zeroes every metric but keeps registrations (handles stay valid).
    pub fn reset(&self) {
        let inner = self.inner.borrow();
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
}

impl lastcpu_snap::Snapshot for MetricsHub {
    /// Serializes every registered metric in key order. Zero-valued but
    /// registered metrics are included: registration is part of the state
    /// (a restored hub must re-export the same key set).
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        let inner = self.inner.borrow();
        w.put_len(inner.counters.len());
        for (k, c) in &inner.counters {
            w.put_str(k);
            w.put_u64(c.get());
        }
        w.put_len(inner.gauges.len());
        for (k, g) in &inner.gauges {
            w.put_str(k);
            w.put_i64(g.get());
        }
        w.put_len(inner.histograms.len());
        for (k, h) in &inner.histograms {
            w.put_str(k);
            h.borrow().snapshot(w);
        }
    }
}

impl lastcpu_snap::Restore for MetricsHub {
    /// Zeroes live metrics, then loads checkpointed values — creating
    /// registrations for keys not yet seen, through the same get-or-create
    /// path recording uses, so outstanding handles stay valid.
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.reset();
        let n = r.len()?;
        for _ in 0..n {
            let k = r.str()?;
            let v = r.u64()?;
            self.counter_handle(&k).0.set(v);
        }
        let n = r.len()?;
        for _ in 0..n {
            let k = r.str()?;
            let v = r.i64()?;
            self.gauge_handle(&k).0.set(v);
        }
        let n = r.len()?;
        for _ in 0..n {
            let k = r.str()?;
            let h = self.histogram_handle(&k);
            h.0.borrow_mut().restore(r)?;
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
    fn by_key_round_trips() {
        let hub = MetricsHub::new();
        hub.incr("bus.messages");
        hub.add("bus.messages", 2);
        hub.record("kvs.kvs0.latency", SimDuration::from_micros(5));
        hub.gauge_set("nic.nic0.queue_depth", 7);
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
        hub.incr("iommu.dev3.maps");
        assert_eq!(hub.counter("iommu.dev3.maps"), 6);
        assert_eq!(h.get(), 6);

        let g = hub.gauge_handle("sys.inbox");
        g.add(3);
        g.add(-1);
        assert_eq!(hub.gauge("sys.inbox"), 2);

        let lat = hub.histogram_handle("ssd.ssd0.read_latency");
        lat.record(SimDuration::from_nanos(400));
        assert_eq!(hub.histogram("ssd.ssd0.read_latency").unwrap().count(), 1);
        assert_eq!(lat.snapshot().count(), 1);
    }

    #[test]
    fn clones_view_the_same_hub() {
        let hub = MetricsHub::new();
        let view = hub.clone();
        hub.incr("a.b.c");
        assert_eq!(view.counter("a.b.c"), 1);
    }

    #[test]
    fn counters_saturate_instead_of_panicking() {
        let hub = MetricsHub::new();
        let h = hub.counter_handle("soak");
        h.add(u64::MAX - 1);
        h.add(5);
        assert_eq!(h.get(), u64::MAX);
        let g = hub.gauge_handle("level");
        g.set(i64::MAX);
        g.add(1);
        assert_eq!(g.get(), i64::MAX);
    }

    #[test]
    fn handle_lookup_of_existing_key_does_not_reintern() {
        // Regression for the hot-path allocation: fetching a handle for a
        // key that already exists must return the same storage (and, by
        // construction, never rebuilds the key String — the lookup goes
        // through `BTreeMap::get(&str)`).
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
    fn merge_histogram_unions_samples() {
        let hub = MetricsHub::new();
        let mut h = Histogram::new();
        h.record_value(10);
        h.record_value(20);
        hub.record_value("prof.span", 5);
        hub.merge_histogram("prof.span", &h);
        let got = hub.histogram("prof.span").unwrap();
        assert_eq!(got.count(), 3);
        assert_eq!(got.min().as_nanos(), 5);
        assert_eq!(got.max().as_nanos(), 20);
    }

    #[test]
    fn snapshots_and_reset() {
        let hub = MetricsHub::new();
        hub.incr("bus.messages");
        hub.gauge_set("q", -2);
        hub.record_value("h", 9);
        assert_eq!(hub.counters().len(), 1);
        assert_eq!(hub.gauges().len(), 1);
        assert_eq!(hub.histograms().len(), 1);
        assert_eq!(hub.keys_under("bus."), vec!["bus.messages".to_string()]);
        let handle = hub.counter_handle("bus.messages");
        hub.reset();
        assert_eq!(hub.counter("bus.messages"), 0);
        handle.incr(); // handles survive reset
        assert_eq!(hub.counter("bus.messages"), 1);
    }
}
