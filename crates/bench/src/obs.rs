//! Observability artifacts an experiment can be asked for.
//!
//! The flags are declared once, in [`crate::cli::OBS`]; an experiment that
//! lists them gets:
//!
//! - `--trace-out <path>` — dump the protocol trace. A `.json` extension
//!   selects Chrome `trace_event` format (loadable in Perfetto /
//!   `chrome://tracing`); any other extension selects JSON-lines, one
//!   record per line.
//! - `--metrics-out <path>` — dump the metrics-hub snapshot. A `.json`
//!   extension selects a JSON document; any other extension selects a
//!   Prometheus-style text exposition.
//! - `--profile` — enable the E12 attribution profiler (scoped allocation
//!   accounting + hot-path span timing) for the run; the report gains a
//!   `profile` table.
//! - `--profile-out <path>` — dump the profile snapshot as JSON after the
//!   run, wall-clock fields included; implies `--profile`.
//!
//! Requesting `--trace-out` also forces tracing on in the system
//! configuration (several experiments disable it by default for speed).
//!
//! Sweep-style experiments build a fresh [`System`] per configuration;
//! they dump after every run, so the artifact on disk describes the
//! **last** configuration of the sweep. The profiler, by contrast, is
//! process-wide (thread-local) state: the harness arms it before the
//! experiment and dumps it once, after.

use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::{export, profile, MetricsHub, TraceSink};

use crate::cli::Args;
use crate::report::Cell;

/// Parsed observability arguments (see module docs).
#[derive(Debug, Default, Clone)]
pub struct ObsArgs {
    /// Trace dump destination, if requested.
    pub trace_out: Option<String>,
    /// Metrics dump destination, if requested.
    pub metrics_out: Option<String>,
    /// Whether `--profile` (or `--profile-out`) was given.
    pub profile: bool,
    /// Profile dump destination, if requested.
    pub profile_out: Option<String>,
}

impl ObsArgs {
    /// The observability flags of `args`; all off for an experiment that
    /// does not declare them.
    pub fn from_args(args: &Args) -> Self {
        let path = |flag| args.str(flag).map(String::from);
        let profile_out = path("--profile-out");
        ObsArgs {
            trace_out: path("--trace-out"),
            metrics_out: path("--metrics-out"),
            profile: args.on("--profile") || profile_out.is_some(),
            profile_out,
        }
    }

    /// Forces tracing on in `config` when a trace dump was requested.
    pub fn apply(&self, config: &mut SystemConfig) {
        if self.trace_out.is_some() {
            config.trace = true;
        }
    }

    /// Arms the profiler when `--profile` was requested.
    pub fn begin(&self) {
        if self.profile {
            profile::reset();
            profile::set_enabled(true);
        }
    }

    /// Writes the requested trace and metrics artifacts from `system`.
    pub fn dump(&self, system: &System) {
        self.dump_parts(system.trace(), system.stats());
    }

    /// [`ObsArgs::dump`] for a rack: its merged trace and the fabric's hub.
    /// The file extension selects the format (see module docs). Failures
    /// are reported to stderr but do not abort the experiment.
    pub fn dump_parts(&self, trace: &TraceSink, metrics: &MetricsHub) {
        if let Some(path) = &self.trace_out {
            let body = if path.ends_with(".json") {
                export::trace_chrome(trace)
            } else {
                export::trace_jsonl(trace)
            };
            write_artifact(path, &body, "trace");
        }
        if let Some(path) = &self.metrics_out {
            let body = if path.ends_with(".json") {
                export::metrics_json(metrics)
            } else {
                export::metrics_prometheus(metrics)
            };
            write_artifact(path, &body, "metrics");
        }
    }

    /// After the run: the `profile` table (one row per scope that saw an
    /// allocation, most first) and the `--profile-out` dump. Empty unless
    /// `--profile` was requested.
    pub fn finish(&self) -> Vec<Cell> {
        if !self.profile {
            return Vec::new();
        }
        let snap = profile::snapshot();
        if let Some(path) = &self.profile_out {
            write_artifact(path, &export::profile_json(&snap, true), "profile");
        }
        let mut rows: Vec<_> = snap.scopes.iter().filter(|s| s.allocs > 0).collect();
        rows.sort_by(|a, b| b.allocs.cmp(&a.allocs).then(a.name.cmp(b.name)));
        let mut rows: Vec<_> = rows
            .iter()
            .map(|s| (s.name, s.allocs, s.alloc_bytes))
            .collect();
        rows.push((
            "(unattributed)",
            snap.unattributed_allocs,
            snap.unattributed_bytes,
        ));
        let cell = |(scope, allocs, bytes): (&str, u64, u64)| {
            Cell::new("profile")
                .id("scope", scope)
                .exact("allocs", allocs, "count")
                .exact("alloc_bytes", bytes, "B")
        };
        rows.into_iter().map(cell).collect()
    }
}

fn write_artifact(path: &str, body: &str, label: &str) {
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("wrote {label} to {path}"),
        Err(e) => eprintln!("failed to write {label} to {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::OBS;

    fn obs(argv: &[&str]) -> ObsArgs {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        ObsArgs::from_args(&Args::parse(&[OBS], &argv, 0).unwrap())
    }

    #[test]
    fn profile_out_implies_profile() {
        let a = obs(&["--profile-out", "p.json", "--trace-out", "t.jsonl"]);
        assert!(a.profile);
        assert_eq!(a.profile_out.as_deref(), Some("p.json"));
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        let b = obs(&["--profile"]);
        assert!(b.profile && b.profile_out.is_none() && b.metrics_out.is_none());
        // An experiment that declares no observability flags has them off.
        let none = ObsArgs::from_args(&Args::parse(&[], &[], 0).unwrap());
        assert!(!none.profile && none.trace_out.is_none());
    }

    #[test]
    fn trace_request_forces_tracing_on() {
        let mut cfg = SystemConfig {
            trace: false,
            ..SystemConfig::default()
        };
        obs(&["--trace-out", "t.jsonl"]).apply(&mut cfg);
        assert!(cfg.trace);
    }
}
