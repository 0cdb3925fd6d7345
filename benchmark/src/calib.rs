//! Host-time calibration.
//!
//! Wall time on this host moves by half again between back-to-back runs of
//! identical work, CPU time moves with it, and the VM exposes no PMU. So
//! every host-time metric is reported in *calibrated seconds*: raw seconds
//! × ([`REF_NOMINAL_NS`] ÷ the ns/iteration a fixed reference kernel took
//! while interleaved with that phase). A phase that ran while the host was
//! slow is scaled down by exactly how slow the reference kernel found it.

use std::time::Instant;

use lastcpu_sim::profile::{self, ProfileSnapshot};

use crate::alloc;
use crate::spans::Tracer;

/// Nominal cost of one reference-kernel iteration. Pinned by the
/// calibration study in README.md; a calibrated second is a second on a
/// host where the kernel runs at exactly this speed.
pub const REF_NOMINAL_NS: f64 = 4.0;
/// Reference table size (the study kept 4 MiB over 32 MiB).
const REF_TABLE_BYTES: usize = 4 << 20;
const REF_ITERS: u64 = 2_000_000;
/// Longest stretch of measured work between two reference samples.
const REF_EVERY_NS: u64 = 50_000_000;

/// The reference kernel: xorshift-indexed read-modify-write over a table
/// larger than L2, so it feels both frequency and memory-system slowdowns.
pub struct RefKernel {
    table: Vec<u64>,
    state: u64,
}

impl RefKernel {
    pub fn new() -> Self {
        RefKernel {
            table: (0..(REF_TABLE_BYTES / 8) as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs the kernel once; returns elapsed nanoseconds.
    fn sample(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        let mut x = self.state;
        let t0 = Instant::now();
        for _ in 0..REF_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize & mask];
            *slot = slot.wrapping_add(x);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.state = std::hint::black_box(x);
        ns
    }
}

/// What a finished [`Meter`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub raw_s: f64,
    /// `REF_NOMINAL_NS` ÷ measured reference ns/iteration.
    pub cal_factor: f64,
    pub events: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Phase {
    pub fn cal_s(&self) -> f64 {
        self.raw_s * self.cal_factor
    }

    /// Calibrated nanoseconds per `n` units of work.
    pub fn cal_ns_per(&self, n: u64) -> f64 {
        self.cal_s() * 1e9 / n.max(1) as f64
    }
}

/// The measuring context of one process: the reference kernel and the span
/// recorder every phase reports into.
pub struct Ctx {
    pub refk: RefKernel,
    pub tracer: Tracer,
    /// What the library's profiler saw during the traced window.
    pub profile: Option<ProfileSnapshot>,
}

impl Ctx {
    pub fn new() -> Ctx {
        Ctx {
            refk: RefKernel::new(),
            tracer: Tracer::new(),
            profile: None,
        }
    }

    /// Opens the `window` span. The library's profiler (thread-local state)
    /// is switched on around the traced window only, so set-up and untimed
    /// work stay out of its tables.
    pub fn window_open(&mut self) {
        self.tracer.open("window");
        if self.tracer.enabled() {
            profile::reset();
            profile::set_enabled(true);
        }
    }

    pub fn window_close(&mut self) {
        if self.tracer.enabled() {
            profile::set_enabled(false);
            self.profile = Some(profile::snapshot());
        }
        self.tracer.close();
    }
}

/// Accumulates the measured pieces of one phase and the reference samples
/// interleaved with them. Time spent in the reference kernel, and anything
/// else the caller does between [`Meter::run`] calls, is excluded.
#[derive(Default)]
pub struct Meter {
    raw_ns: u64,
    last_ns: u64,
    since_ref_ns: u64,
    ref_ns: u64,
    ref_samples: u64,
    events: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Meter {
    /// Opens a phase with a reference sample.
    pub fn start(ctx: &mut Ctx) -> Meter {
        let mut m = Meter::default();
        m.reference(ctx);
        m
    }

    fn reference(&mut self, ctx: &mut Ctx) {
        self.ref_ns += ctx.refk.sample();
        self.ref_samples += 1;
        self.since_ref_ns = 0;
    }

    /// Times `f` as one piece of the phase and records it as a span named
    /// `span`. `f` returns its result and how many simulator events it
    /// retired.
    pub fn run<R>(&mut self, ctx: &mut Ctx, span: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let (a0, b0) = alloc::now();
        let t0 = Instant::now();
        let (r, events) = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::now();
        ctx.tracer.leaf(span, t0, ns, events, a1 - a0);
        self.raw_ns += ns;
        self.last_ns = ns;
        self.since_ref_ns += ns;
        self.events += events;
        self.allocs += a1 - a0;
        self.alloc_bytes += b1 - b0;
        if self.since_ref_ns >= REF_EVERY_NS {
            self.reference(ctx);
        }
        r
    }

    /// Raw nanoseconds of the latest [`Meter::run`] piece.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Closes the phase with a last reference sample.
    pub fn finish(mut self, ctx: &mut Ctx) -> Phase {
        if self.since_ref_ns > 0 {
            self.reference(ctx);
        }
        let ref_ns_per_iter = self.ref_ns as f64 / (self.ref_samples * REF_ITERS) as f64;
        Phase {
            raw_s: self.raw_ns as f64 / 1e9,
            cal_factor: REF_NOMINAL_NS / ref_ns_per_iter,
            events: self.events,
            allocs: self.allocs,
            alloc_bytes: self.alloc_bytes,
        }
    }
}
