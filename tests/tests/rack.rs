//! Rack-scale end-to-end tests: the fabric co-simulation driving a sharded,
//! replicated CPU-less KVS (the machinery behind experiment E10).
//!
//! Every machine in the rack is a full §3 deployment (smart NIC, smart SSD
//! and memory controller, no CPU) plus a [`ShardRouterHost`] that discovers
//! the rack through the fabric's in-band directory and shards client
//! requests over every `smart-nic` endpoint with R-way replication.
//!
//! [`ShardRouterHost`]: lastcpu_kvs::ShardRouterHost

use lastcpu_core::{HostCtx, NetHost, System, SystemConfig};
use lastcpu_fabric::{Fabric, FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{build_rack_kvs_with_policy, RackSetup, RetryPolicy};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::{export, CorrId, FaultKind, FaultPlan, SimDuration, SimTime};
use lastcpu_snap::{fnv1a_fold, Checkpoint};

/// A [`RackSetup`] with one closed-loop client per machine aimed at the
/// *local* shard router.
struct Rack {
    setup: RackSetup,
    client_ports: Vec<PortId>,
}

fn build_rack(machines: usize, replication: usize, seed: u64, workload: &WorkloadConfig) -> Rack {
    build_rack_policy(
        machines,
        replication,
        seed,
        workload,
        RetryPolicy::default(),
    )
}

fn build_rack_policy(
    machines: usize,
    replication: usize,
    seed: u64,
    workload: &WorkloadConfig,
    policy: RetryPolicy,
) -> Rack {
    build_rack_cfg(
        FabricConfig::default(),
        machines,
        replication,
        seed,
        false,
        workload,
        policy,
    )
}

fn build_rack_cfg(
    cfg: FabricConfig,
    machines: usize,
    replication: usize,
    seed: u64,
    trace: bool,
    workload: &WorkloadConfig,
    policy: RetryPolicy,
) -> Rack {
    let mut setup = build_rack_kvs_with_policy(
        cfg,
        machines,
        replication,
        lastcpu_core::SystemConfig {
            seed,
            trace,
            ..lastcpu_core::SystemConfig::default()
        },
        policy,
    );
    let mut client_ports = Vec::new();
    for i in 0..machines {
        let m = setup.machines[i];
        let router_port = setup.router_ports[i];
        let client_port = setup
            .fabric
            .machine_mut(m)
            .add_host(Box::new(KvsClientHost::new(
                router_port,
                WorkloadConfig {
                    stats_prefix: format!("c{i}"),
                    ..workload.clone()
                },
            )));
        client_ports.push(client_port);
    }
    Rack {
        setup,
        client_ports,
    }
}

impl Rack {
    fn len(&self) -> usize {
        self.setup.machines.len()
    }

    fn client(&self, i: usize) -> &KvsClientHost {
        self.setup
            .fabric
            .machine(self.setup.machines[i])
            .host_as(self.client_ports[i])
            .expect("client present")
    }

    /// Runs in 10 ms slices until every client finishes or `cap` elapses.
    fn run_to_completion(&mut self, cap: SimDuration) {
        let deadline = self.setup.fabric.now() + cap;
        while self.setup.fabric.now() < deadline {
            self.setup.fabric.run_for(SimDuration::from_millis(10));
            if self.all_done() {
                break;
            }
        }
    }

    fn all_done(&self) -> bool {
        (0..self.len()).all(|i| self.client(i).is_done())
    }
}

fn small_workload() -> WorkloadConfig {
    WorkloadConfig {
        keys: 40,
        theta: 0.9,
        read_fraction: 0.8,
        value_size: 64,
        outstanding: 4,
        total_ops: 200,
        preload: true,
        ..WorkloadConfig::default()
    }
}

#[test]
fn rack_serves_a_sharded_replicated_workload() {
    let mut rack = build_rack(3, 2, 0xE10, &small_workload());
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(10));

    for i in 0..3 {
        let c = rack.client(i);
        assert!(c.is_done(), "client {i} incomplete: {} ops", c.ops_done());
        assert_eq!(c.errors(), 0, "client {i} saw errors");
        let r = rack.setup.router(i);
        assert_eq!(r.endpoint_names().len(), 3, "router {i} discovered rack");
        assert!(r.stats().requests > 0 && r.stats().hits > 0);
    }
    // R = 2 over a shared 40-key space: every key lives on exactly two
    // machines, so the rack holds 80 records (the probe key is never stored).
    let total: usize = (0..3).map(|i| rack.setup.nic(i).app().key_count()).sum();
    assert_eq!(total, 80, "each key replicated on exactly R=2 machines");
    // The shards are spread: no machine holds everything, none is empty.
    for i in 0..3 {
        let n = rack.setup.nic(i).app().key_count();
        assert!(n > 0 && n < 80, "machine {i} holds {n}/80 records");
    }
    // Cross-machine traffic actually crossed the fabric.
    let fab = &rack.setup.fabric;
    assert!(fab.metrics().counter("fabric.frames_forwarded") > 0);
    assert!(fab.metrics().counter("fabric.bytes") > 0);
    // Routers pre-registered their hub metrics on their machines.
    let hub = fab.machine(rack.setup.machines[0]).stats();
    assert!(hub.counter("fabric.router.requests") > 0);
    assert!(hub.gauge("fabric.router.endpoints") == 3);
}

#[test]
fn replicated_rack_survives_machine_crash_without_losing_acked_writes() {
    // Load everything (R = 2), then kill a machine and audit: every key any
    // router acknowledged must still be held by a surviving machine.
    let wl = WorkloadConfig {
        read_fraction: 1.0, // after preload, pure GETs
        ..small_workload()
    };
    let mut rack = build_rack(3, 2, 0x51, &wl);
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(10));
    assert!(rack.all_done(), "pre-crash workload incomplete");
    assert_eq!(rack.setup.lost_acked_keys(), 0);

    let victim = rack.setup.machines[1];
    rack.setup.fabric.kill_machine(victim);
    // Let the directory sweep withdraw the machine and the routers refresh.
    rack.setup.fabric.run_for(SimDuration::from_millis(5));

    assert_eq!(
        rack.setup.lost_acked_keys(),
        0,
        "R=2 must keep every acknowledged write despite one crash"
    );
    for i in [0usize, 2] {
        assert_eq!(
            rack.setup.router(i).endpoint_names().len(),
            2,
            "router {i} saw the withdrawal"
        );
    }
    assert!(rack.setup.fabric.metrics().counter("fabric.dir.removals") >= 1);
}

#[test]
fn unreplicated_rack_loses_acked_writes_on_crash() {
    // The control: R = 1 stores each key exactly once, so killing a machine
    // loses the acked writes whose only copy it held.
    let wl = WorkloadConfig {
        read_fraction: 1.0,
        ..small_workload()
    };
    let mut rack = build_rack(3, 1, 0x51, &wl);
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(10));
    assert!(rack.all_done(), "pre-crash workload incomplete");
    let held_by_victim = rack.setup.nic(1).app().key_count();
    assert!(held_by_victim > 0, "victim holds some shard");

    rack.setup.fabric.kill_machine(rack.setup.machines[1]);
    rack.setup.fabric.run_for(SimDuration::from_millis(5));

    let lost = rack.setup.lost_acked_keys();
    assert!(
        lost > 0,
        "R=1 must lose the victim's shard ({held_by_victim} keys on it)"
    );
}

/// Full-state fingerprint of a completed rack run: every fabric counter,
/// every router stat, every machine-hub counter, client progress, and
/// per-machine key counts. Two runs with equal fingerprints took the same
/// event path.
fn run_fingerprint(seed: u64, policy: RetryPolicy) -> String {
    let mut rack = build_rack_policy(2, 2, seed, &small_workload(), policy);
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(10));
    assert!(rack.all_done(), "workload incomplete under {policy}");
    let mut fp = String::new();
    for (k, v) in rack.setup.fabric.metrics().counters() {
        fp.push_str(&format!("{k}={v};"));
    }
    for i in 0..2 {
        let s = rack.setup.router(i).stats();
        fp.push_str(&format!(
            "r{i}:{}/{}/{}/{}/{}/{}/{}/{}/{};",
            s.requests,
            s.hits,
            s.failovers,
            s.give_ups,
            s.rebalance_moves,
            s.dir_replies,
            s.dir_installs,
            s.late_acks,
            s.busy_deferrals
        ));
        fp.push_str(&format!("c{i}:{};", rack.client(i).ops_done()));
        fp.push_str(&format!("k{i}:{};", rack.setup.nic(i).app().key_count()));
        for (k, v) in rack
            .setup
            .fabric
            .machine(rack.setup.machines[i])
            .stats()
            .counters()
        {
            fp.push_str(&format!("m{i}.{k}={v};"));
        }
    }
    fp
}

#[test]
fn rack_runs_are_bit_identical() {
    let run = |seed: u64| run_fingerprint(seed, RetryPolicy::default());
    assert_eq!(run(7), run(7), "same seed, same rack, same bytes");
    assert_ne!(run(7), run(8), "different seed perturbs the run");
    // The deep observables — merged trace, metrics exports, pool activity —
    // replay too, so event order and buffer reuse are seed-determined.
    for seed in [7u64, 0xE13, 1984] {
        assert_eq!(
            deep_fingerprint(seed, false),
            deep_fingerprint(seed, false),
            "seed {seed:#x}: deep fingerprint diverged on replay"
        );
    }
    assert_ne!(
        deep_fingerprint(7, false),
        deep_fingerprint(8, false),
        "fingerprint insensitive to seed — it proves nothing"
    );
}

/// FNV-1a, to fold the (large) merged trace and metrics exports into a
/// fingerprint without megabyte-long assert messages.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deep fingerprint of a rack run: merged trace, fabric + per-machine
/// metrics exports, pool activity, per-machine key counts, client progress,
/// and the acked-write audit. Any divergence between two runs — event
/// reordering, a pool buffer taken in a different order — lands in this
/// string.
fn deep_fingerprint(seed: u64, crash: bool) -> String {
    let mut cfg = FabricConfig::default();
    if crash {
        let mut plan = FaultPlan::new(seed ^ 0xFAB);
        plan.inject(SimTime::from_nanos(2_000_000), "m1", FaultKind::Crash);
        cfg.fault_plan = Some(plan);
    }
    let mut rack = build_rack_cfg(
        cfg,
        2,
        2,
        seed,
        true,
        &small_workload(),
        RetryPolicy::default(),
    );
    rack.setup.fabric.power_on();
    if crash {
        // The crash arm never completes the workload; a fixed virtual-time
        // horizon keeps the runs comparable instead.
        rack.setup.fabric.run_for(SimDuration::from_secs(2));
    } else {
        rack.run_to_completion(SimDuration::from_secs(10));
        assert!(rack.all_done(), "workload incomplete at seed {seed:#x}");
    }

    let fab = &rack.setup.fabric;
    let mut fp = String::new();
    fp.push_str(&format!(
        "trace={:016x};",
        fnv1a(&export::trace_jsonl(&fab.merged_trace()))
    ));
    fp.push_str(&format!(
        "fabmet={:016x};",
        fnv1a(&export::metrics_json(fab.metrics()))
    ));
    fp.push_str(&format!("now={};", fab.now().as_nanos()));
    for i in 0..2 {
        let m = rack.setup.machines[i];
        fp.push_str(&format!(
            "m{i}.met={:016x};",
            fnv1a(&export::metrics_json(fab.machine(m).stats()))
        ));
        fp.push_str(&format!("m{i}.pool={:?};", fab.machine(m).pool().stats()));
        fp.push_str(&format!("k{i}={};", rack.setup.nic(i).app().key_count()));
        fp.push_str(&format!("c{i}={};", rack.client(i).ops_done()));
    }
    fp.push_str(&format!("lost={};", rack.setup.lost_acked_keys()));
    fp
}

#[test]
fn crash_arm_replays_bit_identically() {
    // A fault is retired in global order like any other event, at an
    // instant every machine has reached, so a mid-run machine crash replays
    // bit-identically from its seed.
    for seed in [7u64, 0xE13, 1984] {
        assert_eq!(
            deep_fingerprint(seed, true),
            deep_fingerprint(seed, true),
            "seed {seed:#x}: crash arm diverged on replay"
        );
    }
    assert_ne!(
        deep_fingerprint(7, true),
        deep_fingerprint(8, true),
        "crash-arm fingerprint insensitive to seed"
    );
}

#[test]
fn every_retry_policy_replays_bit_identically() {
    // Property sweep over the policy x seed grid: the congestion machinery
    // (EWMA timeouts, p2c selection, Busy deferral) must stay a pure
    // function of the event history — same seed, same arm, same bytes.
    // Different seeds must still perturb every arm (the fingerprint is not
    // trivially constant).
    for policy in RetryPolicy::ALL {
        for seed in [7u64, 0xE10, 1984] {
            assert_eq!(
                run_fingerprint(seed, policy),
                run_fingerprint(seed, policy),
                "policy {policy} seed {seed:#x} diverged on replay"
            );
        }
        assert_ne!(
            run_fingerprint(7, policy),
            run_fingerprint(8, policy),
            "policy {policy} fingerprint insensitive to seed"
        );
    }
}

/// Compact fingerprint of a 64-machine leaf-spine run (8 leaves of 8,
/// ECMP across 8 spines): fabric metrics, final clock, per-machine KVS
/// state, client progress, and the acked-write audit. Tracing stays off —
/// at this scale the merged trace would dominate the (debug-build) test.
fn leaf_spine_fingerprint(seed: u64) -> String {
    const MACHINES: usize = 64;
    let cfg = leaf_spine(1);
    // Tiny per-client workload: 64 clients already put 768 ops and their
    // R=2 replication traffic through every tier of the tree.
    let wl = WorkloadConfig {
        keys: 48,
        total_ops: 12,
        outstanding: 2,
        ..small_workload()
    };
    let mut rack = build_rack_cfg(cfg, MACHINES, 2, seed, false, &wl, RetryPolicy::default());
    rack.setup.fabric.power_on();
    rack.run_to_completion(SimDuration::from_secs(30));
    assert!(
        rack.all_done(),
        "64-machine leaf-spine workload incomplete at seed {seed:#x}"
    );
    let fab = &rack.setup.fabric;
    let mut fp = format!(
        "now={};fabmet={:016x};",
        fab.now().as_nanos(),
        fnv1a(&export::metrics_json(fab.metrics()))
    );
    for i in 0..MACHINES {
        fp.push_str(&format!(
            "k{i}={};c{i}={};",
            rack.setup.nic(i).app().key_count(),
            rack.client(i).ops_done()
        ));
    }
    fp.push_str(&format!("lost={};", rack.setup.lost_acked_keys()));
    fp
}

#[test]
fn leaf_spine_rack_replays_bit_identically() {
    // The ISSUE-10 scale-out contract: a 64-machine rack on a real
    // leaf-spine tree — per-link queuing, ECMP path diversity and all —
    // must stay inside the determinism envelope.
    let base = leaf_spine_fingerprint(0xE10);
    assert_eq!(
        base,
        leaf_spine_fingerprint(0xE10),
        "64-machine leaf-spine run diverged on replay"
    );
    assert_ne!(
        base,
        leaf_spine_fingerprint(0xE11),
        "leaf-spine fingerprint insensitive to seed"
    );
}

/// One digest over every section of the rack's checkpoint, tag and bytes,
/// with each machine section opened so that its own sections are folded in
/// place of its encoding. Manifests, the rack's and every machine's, are
/// left out as in `trace_repr.rs`: their `config_fp` hashes `Debug` text.
fn sections_digest(fab: &Fabric) -> u64 {
    fn fold(h: &mut u64, ck: &Checkpoint) {
        for tag in ck.section_tags() {
            let bytes = ck.section(tag).expect("listed section");
            fnv1a_fold(h, tag.as_bytes());
            if tag.starts_with("machine") {
                fold(
                    h,
                    &Checkpoint::decode(bytes).expect("machine section decodes"),
                );
            } else {
                fnv1a_fold(h, bytes);
            }
        }
    }
    let mut h = lastcpu_snap::fnv1a(b"sections");
    fold(&mut h, &fab.checkpoint("pin").expect("rack checkpoints"));
    h
}

/// Runs `machines` under `cfg` until the clients finish or `horizon` passes
/// and digests where the rack ended up.
fn schedule_digest(
    cfg: FabricConfig,
    machines: usize,
    wl: &WorkloadConfig,
    horizon: SimDuration,
) -> u64 {
    let mut rack = build_rack_cfg(cfg, machines, 2, 0xE14, false, wl, RetryPolicy::default());
    rack.setup.fabric.power_on();
    rack.run_to_completion(horizon);
    sections_digest(&rack.setup.fabric)
}

/// The default flat fabric with `m1` crashing 2 ms in.
fn flat_with_m1_crash() -> FabricConfig {
    let mut plan = FaultPlan::new(0xE14);
    plan.inject(SimTime::from_nanos(2_000_000), "m1", FaultKind::Crash);
    FabricConfig {
        fault_plan: Some(plan),
        ..FabricConfig::default()
    }
}

fn leaf_spine(oversub: u64) -> FabricConfig {
    FabricConfig {
        topology: TopologyConfig {
            kind: TopoKind::LeafSpine { leaf_size: 8 },
            oversub,
        },
        ..FabricConfig::default()
    }
}

#[test]
fn schedule_is_the_recorded_one() {
    // Digests recorded when the fabric began retiring the globally earliest
    // event: a later optimisation may not move one byte of any machine, the
    // fabric section, or the fabric metrics.
    let flat = schedule_digest(
        FabricConfig::default(),
        8,
        &small_workload(),
        SimDuration::from_secs(10),
    );

    // The crash withdraws m1's endpoints mid-run, so every survivor's
    // directory reply and router memo is invalidated once.
    let crash = schedule_digest(
        flat_with_m1_crash(),
        4,
        &small_workload(),
        SimDuration::from_millis(200),
    );

    let wl = WorkloadConfig {
        keys: 48,
        total_ops: 12,
        outstanding: 2,
        ..small_workload()
    };
    let tree = schedule_digest(leaf_spine(4), 32, &wl, SimDuration::from_secs(30));

    assert_eq!(
        format!("{flat:#018x} {crash:#018x} {tree:#018x}"),
        "0x3f744904cbe6ca9c 0x920bcb9a4ae7ff70 0xa23d1fe263272528",
        "8-machine flat, 4-machine crash arm, 32-machine leaf-spine:8 oversub 4"
    );
}

/// The shape on which slicing moved a checkpoint section before the fabric
/// stepped in global order: 16 traced machines on leaf-spine:8, four 1 KiB
/// requests in flight per client over 16 hot keys.
fn sliced_rack() -> Rack {
    let wl = WorkloadConfig {
        keys: 16,
        theta: 0.99,
        read_fraction: 0.9,
        value_size: 1024,
        outstanding: 4,
        total_ops: 600,
        preload: true,
        ..WorkloadConfig::default()
    };
    let mut rack = build_rack_cfg(leaf_spine(1), 16, 2, 22, true, &wl, RetryPolicy::default());
    rack.setup.fabric.power_on();
    rack
}

/// Drives `fab` to `until` in `run_until` calls `slice` apart.
fn run_sliced(fab: &mut Fabric, until: SimTime, slice: SimDuration) {
    while fab.now() < until {
        let t = (fab.now() + slice).min(until);
        fab.run_until(t);
    }
}

#[test]
fn run_until_composes_on_a_traced_rack() {
    let until = SimTime::from_nanos(120_000_000);
    let digest = |slice: SimDuration| {
        let mut rack = sliced_rack();
        run_sliced(&mut rack.setup.fabric, until, slice);
        sections_digest(&rack.setup.fabric)
    };
    let one_call = digest(SimDuration::from_secs(1));
    for slice_us in [100_000, 5_000, 1_000, 137, 17] {
        assert_eq!(
            digest(SimDuration::from_micros(slice_us)),
            one_call,
            "{slice_us} µs slices ended somewhere one call did not"
        );
    }
}

#[test]
fn a_checkpoint_of_a_sliced_run_restores() {
    let mut sliced = sliced_rack();
    run_sliced(
        &mut sliced.setup.fabric,
        SimTime::from_nanos(120_000_000),
        SimDuration::from_micros(137),
    );
    let ck = sliced
        .setup
        .fabric
        .checkpoint("sliced")
        .expect("rack checkpoints");
    let mut fresh = sliced_rack();
    fresh
        .setup
        .fabric
        .restore_from(&ck)
        .expect("one replay call lands where the slices did");
}

mod slicing_props {
    use super::*;
    use proptest::prelude::*;

    /// A small rack of each wiring, one of them losing a machine mid-run.
    fn shape(i: usize) -> (FabricConfig, usize) {
        let fat_tree = FabricConfig {
            topology: TopologyConfig {
                kind: TopoKind::FatTree { k: 0 },
                oversub: 1,
            },
            ..FabricConfig::default()
        };
        match i {
            0 => (flat_with_m1_crash(), 4),
            1 => (leaf_spine(1), 16),
            _ => (fat_tree, 8),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// However the caller cuts `[0, 20 ms]` into `run_until` calls — here
        /// a short random pattern of slice lengths, repeated — a traced rack
        /// ends byte-for-byte where one call leaves it.
        fn any_slicing_ends_where_one_call_does(
            which in 0usize..3,
            seed in 0u64..1_000,
            pattern in proptest::collection::vec(500u64..40_000, 1..8),
        ) {
            let until = SimTime::from_nanos(20_000_000);
            let build = || {
                let (cfg, machines) = shape(which);
                let wl = small_workload();
                let mut rack =
                    build_rack_cfg(cfg, machines, 2, seed, true, &wl, RetryPolicy::default());
                rack.setup.fabric.power_on();
                rack
            };
            let mut whole = build();
            whole.setup.fabric.run_until(until);
            let mut sliced = build();
            let fab = &mut sliced.setup.fabric;
            for slice in pattern.iter().cycle() {
                if fab.now() >= until {
                    break;
                }
                let t = (fab.now() + SimDuration::from_nanos(*slice)).min(until);
                fab.run_until(t);
            }
            prop_assert_eq!(
                sections_digest(&sliced.setup.fabric),
                sections_digest(&whole.setup.fabric)
            );
        }
    }
}

/// Arms a timer for every frame it receives; records when timers fire.
struct Alarm {
    delay: SimDuration,
    fired: Vec<SimTime>,
}

impl NetHost for Alarm {
    fn name(&self) -> &str {
        "alarm"
    }
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, _frame: Frame) {
        ctx.set_timer(self.delay, 1);
    }
    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        self.fired.push(ctx.now);
    }
}

/// Sends one frame to `target`, `after` its own start event.
struct Knock {
    target: PortId,
    after: SimDuration,
}

impl NetHost for Knock {
    fn name(&self) -> &str {
        "knock"
    }
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.after, 1);
    }
    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, _frame: Frame) {}
    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        ctx.net_tx(self.target, vec![1]);
    }
}

fn quiet_machine(seed: u64) -> System {
    System::new(SystemConfig {
        seed,
        ..SystemConfig::default()
    })
}

#[test]
fn work_queued_through_machine_mut_between_runs_is_seen() {
    // m1 goes idle after its start event; the fabric then caches "nothing
    // due" for it. An event queued from outside between two run calls must
    // still be found: the cache is refreshed when `run_until` is entered.
    let delay = SimDuration::from_micros(300);
    let mut fab = Fabric::new(FabricConfig::default());
    fab.add_machine("m0", quiet_machine(1));
    let m1 = fab.add_machine("m1", quiet_machine(2));
    let alarm = fab.machine_mut(m1).add_host(Box::new(Alarm {
        delay,
        fired: Vec::new(),
    }));
    fab.power_on();
    fab.run_until(SimTime::from_nanos(1_000_000));
    assert_eq!(fab.machine_mut(m1).peek_next_at(), None, "m1 is idle");

    let at = fab.now();
    let knock = Frame::unicast(alarm, alarm, vec![1]);
    fab.machine_mut(m1).inject_frame(at, knock, CorrId::NONE);
    fab.run_until(SimTime::from_nanos(2_000_000));
    let fired = &fab.machine(m1).host_as::<Alarm>(alarm).unwrap().fired;
    assert_eq!(fired.len(), 1, "the timer armed between runs fired");
    assert!(fired[0] >= at + delay && fired[0] < SimTime::from_nanos(2_000_000));
}

#[test]
fn a_frame_from_the_fabric_wakes_an_idle_machine() {
    // m1's own queue is empty from its start event until m0's frame crosses
    // the link 1.5 ms later, after several sweeps and thousands of
    // retirements have found it idle. The injection alone must put it back
    // among the machines with something due.
    let (after, delay) = (
        SimDuration::from_micros(1500),
        SimDuration::from_micros(700),
    );
    let mut fab = Fabric::new(FabricConfig::default());
    let m0 = fab.add_machine("m0", quiet_machine(1));
    let m1 = fab.add_machine("m1", quiet_machine(2));
    let alarm = fab.machine_mut(m1).add_host(Box::new(Alarm {
        delay,
        fired: Vec::new(),
    }));
    let target = fab.open_tunnel(m0, m1, alarm);
    fab.machine_mut(m0)
        .add_host(Box::new(Knock { target, after }));
    fab.power_on();
    fab.run_until(SimTime::from_nanos(1_000_000));
    assert_eq!(fab.machine_mut(m1).peek_next_at(), None, "m1 is idle");
    fab.run_until(SimTime::from_nanos(3_000_000));
    let fired = &fab.machine(m1).host_as::<Alarm>(alarm).unwrap().fired;
    assert_eq!(fired.len(), 1, "the frame woke m1 and its timer fired");
    assert!(fired[0] > SimTime::ZERO + after + delay);
}
