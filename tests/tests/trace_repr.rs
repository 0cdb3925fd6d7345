//! Trace records changed representation (shared `Arc<str>` names instead of
//! a fresh `String` per mark); nothing a reader of the trace can see may
//! have moved. A small `kv_hot_get`-shaped machine runs with tracing on and
//! its exports and checkpoint are held to values recorded at the commit
//! before the change.

use lastcpu_core::devices::ssd::SsdConfig;
use lastcpu_core::SystemConfig;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{build_cpuless_kvs, ServerConfig};
use lastcpu_sim::{export, SimDuration};
use lastcpu_snap::{fnv1a, fnv1a_fold};

/// FNV-1a and byte length of each export, the record count, and a digest
/// over every checkpoint section (tag and bytes). The manifest is left out:
/// its `config_fp` hashes the `Debug` text of `SystemConfig`, which moves
/// whenever a config field is added or removed without any state changing.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    jsonl: (u64, usize),
    chrome: (u64, usize),
    prometheus: (u64, usize),
    records: usize,
    emitted: u64,
    checkpoint: u64,
}

const PARENT: Observed = Observed {
    jsonl: (1447353109249548547, 1539622),
    chrome: (15719403525993426421, 2532326),
    prometheus: (3757536611359131634, 7906),
    records: 15329,
    emitted: 15329,
    checkpoint: 6080328485652035253,
};

fn observe() -> Observed {
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed: 11,
            ..SystemConfig::default()
        },
        SsdConfig::default(),
        ServerConfig {
            cache_entries: 512,
            ..ServerConfig::default()
        },
    );
    assert!(setup.system.trace().is_enabled(), "tracing is the default");
    let clients: Vec<_> = (0..2)
        .map(|i| {
            setup.system.add_host(Box::new(KvsClientHost::new(
                setup.kvs_port,
                WorkloadConfig {
                    keys: 400,
                    theta: 0.99,
                    read_fraction: 0.95,
                    value_size: 128,
                    outstanding: 8,
                    total_ops: 600,
                    preload: true,
                    stats_prefix: format!("c{i}"),
                    ..WorkloadConfig::default()
                },
            )))
        })
        .collect();
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_secs(5));
    for &p in &clients {
        let c: &KvsClientHost = setup.system.host_as(p).expect("client port");
        assert!(c.is_done(), "client finished its 600 ops");
        assert_eq!(c.errors() + c.timeouts(), 0);
    }
    let sized = |s: String| (fnv1a(s.as_bytes()), s.len());
    let trace = setup.system.trace();
    Observed {
        jsonl: sized(export::trace_jsonl(trace)),
        chrome: sized(export::trace_chrome(trace)),
        prometheus: sized(export::metrics_prometheus(setup.system.stats())),
        records: trace.len(),
        emitted: trace.total_emitted(),
        checkpoint: {
            let ck = setup
                .system
                .checkpoint("trace-repr")
                .expect("every component snapshots");
            let mut h = fnv1a(b"sections");
            for tag in ck.section_tags() {
                fnv1a_fold(&mut h, tag.as_bytes());
                fnv1a_fold(&mut h, ck.section(tag).expect("listed section"));
            }
            h
        },
    }
}

#[test]
fn traced_kv_run_exports_and_checkpoints_as_before() {
    let first = observe();
    assert_eq!(first, observe(), "same seed, same bytes");
    assert_eq!(first, PARENT);
}
