//! Bench-side spans, kept in memory and written out when the traced run
//! ends. A span's self time is its duration minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// 0 = no parent.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub events: u64,
    pub allocs: u64,
}

/// Records nothing until [`Tracer::enable`]: the untraced run, which the
/// end-to-end metrics come from, pays one branch per span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enable(&mut self) {
        self.enabled = true;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, events: u64, allocs: u64) {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_ns,
            end_ns,
            events,
            allocs,
        });
    }

    /// Opens a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.push(name, now, now, 0, 0);
        self.open.push(self.spans.len() as u32);
    }

    /// Closes the innermost open span; its events and allocations are the
    /// sums over its children.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close matches an open");
        let (events, allocs) = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .fold((0, 0), |(e, a), s| (e + s.events, a + s.allocs));
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = now;
        s.events = events;
        s.allocs = allocs;
    }

    /// Records a finished childless span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, ns: u64, events: u64, allocs: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.push(name, start_ns, start_ns + ns, events, allocs);
    }

    /// One JSON object per line.
    pub fn jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"events\": {}, \"allocs\": {}}}",
                s.id, s.parent, s.name, workload, s.start_ns, s.end_ns, s.events, s.allocs
            );
        }
        out
    }
}
