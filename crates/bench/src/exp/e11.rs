//! E11 — security evaluation: an adversarial device attacks the paper's
//! isolation story, and the audit layer proves every attack blocked.
//!
//! §2.2's claim is that per-device IOMMUs plus a bus that only programs
//! them "on instruction from the registered controller" make DRAM safe in
//! a machine where *every* device is a first-class bus citizen. E11 tests
//! that claim the only honest way: by compromising a device. A
//! [`MaliciousDevice`] joins an otherwise ordinary §3 KVS machine and runs
//! the full attack matrix —
//!
//! - **wild-dma** — DMA at addresses never mapped for it, under the victim
//!   app's PASID and random PASIDs (its own IOMMU must fault every probe);
//! - **stale-generation** — DMA at every VA window the KVS session protocol
//!   has used or will use (rotated-away generations must be revoked);
//! - **confused-deputy** — forged `MapInstruction`s, a vacant-class
//!   `RegisterController` escalation, and guessed-handle `Share`s (the bus
//!   and memory controller must refuse every one);
//! - **ssdp-spoof** — `Announce`s shadowing live service names, verbatim
//!   replays of observed descriptors, and forged `QueryHit`s (denied under
//!   the hardened [`SecurityPolicy`]);
//! - **control-flood** — bursts of bus-directed messages (shed by the
//!   hardened policy's per-sender limiter without starving the workload).
//!
//! Every verdict is recorded by the DMA/bus audit layer (`sec.*` metrics;
//! `SystemConfig::security_audit`), so each row's `blocked` count is
//! *evidence*, not absence of symptoms; `leaked` additionally cross-checks
//! the IOMMU state with the read-only probe oracle and the bus directory.
//! Any `leaked > 0` under the hardened policy is a real isolation bug.
//!
//! Phases: per seed, (`single`) the single-machine matrix under the
//! hardened policy with a no-attacker control run (integrity: the victim's
//! key count matches the control's, so blocking the attacker cost the
//! workload nothing), (`rack`) the same matrix on the E10 rack (attacker on
//! machine 0, replicated shards, acked-write audit). One extra
//! single-machine run per invocation repeats the first seed under the
//! *default* policy to document which classes the opt-in hardening closes
//! (discovery shadowing and floods) and which the base protocol already
//! blocks (all DMA and deputy classes). `*.attacks` has one row per attack
//! class and run. Everything is virtual-time and seeded; threat model in
//! `DESIGN.md` §11.

use lastcpu_bus::{SecurityPolicy, SystemBus};
use lastcpu_core::{DeviceHandle, System, SystemConfig};
use lastcpu_devices::nic::SmartNic;
use lastcpu_devices::ssd::SsdConfig;
use lastcpu_fabric::FabricConfig;
use lastcpu_iommu::AccessKind;
use lastcpu_kvs::build::KVS_FILE;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{build_cpuless_kvs, build_rack_kvs, KvsNicApp, ServerConfig, VA_STRIDE};
use lastcpu_mem::{Pasid, VirtAddr};
use lastcpu_net::PortId;
use lastcpu_sec::{AttackKind, AttackPlan, AttackStats, AttackTargets, MaliciousDevice};
use lastcpu_sim::{SimDuration, SimTime};

use super::{Experiment, Gates};
use crate::cli::{Args, OBS_RACK};
use crate::flags;
use crate::obs::ObsArgs;
use crate::rack::RackBench;
use crate::report::{Cell, Report};
use crate::Json;

pub const EXP: Experiment = Experiment {
    name: "e11",
    title: "E11: security — adversarial device vs the audited isolation layer",
    flags: flags! {
        "--seeds"       U64List "0xE11,0xE12,0xE13" "one hardened single + rack run per seed"
        "--ops"         U64     "300"               "measured ops per client"
        "--keys"        U64     "50"                "keyspace"
        "--value-size"  U64     "64"                "value bytes"
        "--outstanding" U64     "4"                 "requests in flight per client"
        "--flood-limit" U64     "16"                "hardened policy: bus messages per sender per ms"
        "--machines"    U64     "3"                 "rack size (>= 2: the attacker shares m0)"
        "--replication" U64     "2"                 "rack replication factor"
        "--no-rack"     Switch  ""                  "skip the rack phase"
    },
    obs: OBS_RACK,
    smoke: &["--seeds 3601 --ops 120 --keys 40 --machines 2 --replication 2"],
    run,
    check,
};

/// Virtual-time cap per run.
const RUN_CAP: SimDuration = SimDuration::from_secs(30);
/// First attack fires here; one matrix event every [`ATTACK_SPACING`].
const ATTACK_START: SimDuration = SimDuration::from_millis(10);
const ATTACK_SPACING: SimDuration = SimDuration::from_millis(2);
/// Runs never stop before this, so every scheduled attack has fired.
const ATTACK_WINDOW: SimDuration = SimDuration::from_millis(40);

const ATTACK_KINDS: [&str; 5] = [
    "wild-dma",
    "stale-generation",
    "confused-deputy",
    "ssdp-spoof",
    "control-flood",
];

/// The attack schedule every run uses: the full matrix once, then a second
/// wild-DMA + stale-generation round at steady state (windows are mapped
/// and warm by then — the more interesting moment to probe).
fn plan(seed: u64) -> AttackPlan {
    let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let mut p = AttackPlan::matrix(seed, SimTime::ZERO + ATTACK_START, ATTACK_SPACING);
    p.inject(at(30), AttackKind::WildDma)
        .inject(at(32), AttackKind::StaleGeneration);
    p
}

fn workload(args: &Args, prefix: &str) -> WorkloadConfig {
    WorkloadConfig {
        keys: args.u64("--keys"),
        theta: 0.9,
        read_fraction: 0.8,
        value_size: args.usize("--value-size"),
        outstanding: args.usize("--outstanding"),
        total_ops: args.u64("--ops"),
        preload: true,
        stats_prefix: prefix.into(),
        ..WorkloadConfig::default()
    }
}

fn sys_config(seed: u64, hardened: bool, args: &Args) -> SystemConfig {
    SystemConfig {
        seed,
        security_audit: true,
        security_policy: if hardened {
            SecurityPolicy::hardened(args.u64("--flood-limit") as u32)
        } else {
            SecurityPolicy::default()
        },
        trace: args.str("--trace-out").is_some(),
        ..SystemConfig::default()
    }
}

// --- leak probes ---------------------------------------------------------

/// Counts attacker-IOMMU translations at the VAs the attacks targeted:
/// (the victim app's base window, the forged-request VAs).
fn probe_attacker(system: &System, attacker: DeviceHandle, app_pasid: u32) -> (u64, u64) {
    let mmu = system.iommu(attacker);
    let hit = |va: u64| {
        let probe = mmu.probe(Pasid(app_pasid), VirtAddr::new(va), AccessKind::Read);
        u64::from(probe.is_some())
    };
    // Confused-deputy targets: the forged MapInstruction (0x7000_0000, 4
    // pages), the escalated one (0x7200_0000) and every guessable forged
    // Share slot (0x7100_0000 + handle<<16).
    let deputy = hit(0x7000_0000) + hit(0x7200_0000);
    let shares: u64 = (0..16u64)
        .map(|guess| hit(0x7100_0000 + (guess << 16)))
        .sum();
    (hit(0x2000_0000), deputy + shares)
}

/// Counts the victim app's generation windows that still translate. In a
/// fault-free run exactly the current generation must be live; anything
/// more is a revocation leak (the stale-generation attack's target).
fn probe_victim_windows(system: &System, frontend: DeviceHandle, app_pasid: u32) -> u64 {
    let mmu = system.iommu(frontend);
    let live = |g: &u64| {
        let va = VirtAddr::new(0x2000_0000 + g * VA_STRIDE);
        mmu.probe(Pasid(app_pasid), va, AccessKind::Read).is_some()
    };
    (0..8u64).filter(live).count() as u64
}

/// Counts attacker-announced services whose *name* shadows a service some
/// other alive device announced (discovery-poisoning evidence).
fn directory_shadow(bus: &SystemBus, attacker: DeviceHandle) -> u64 {
    let Some(me) = bus.device(attacker.id) else {
        return 0;
    };
    let shadows = |mine: &&lastcpu_bus::ServiceDesc| {
        bus.alive()
            .filter(|e| e.id != attacker.id)
            .any(|e| e.services.iter().any(|s| s.name == mine.name))
    };
    me.services.iter().filter(shadows).count() as u64
}

/// One row per attack class: the attacker's own tally joined with
/// independent evidence gathered *after* the run from IOMMU and
/// bus-directory state. `leaked` is `acked_ok` (the attacker saw success)
/// plus class-specific state evidence; for floods, `blocked` is the
/// bus-side shed count (floods draw no replies) and `leaked` flags a
/// starved victim workload. Returns the rows and the leak total.
fn attack_cells(
    id: &Cell,
    sys: &System,
    attacker: DeviceHandle,
    frontend: DeviceHandle,
    app_pasid: u32,
    client_done: bool,
) -> (Vec<Cell>, u64) {
    let (wild_hits, deputy_hits) = probe_attacker(sys, attacker, app_pasid);
    let stale_extra_windows = probe_victim_windows(sys, frontend, app_pasid).saturating_sub(1);
    let evil: &MaliciousDevice = sys.device_as(attacker).expect("attacker present");
    let mut total = 0;
    let row = |&(kind, s): &(AttackKind, AttackStats)| {
        let (extra_leak, blocked) = match kind {
            AttackKind::WildDma => (wild_hits, s.blocked()),
            AttackKind::StaleGeneration => (stale_extra_windows, s.blocked()),
            AttackKind::ConfusedDeputy => (deputy_hits, s.blocked()),
            AttackKind::SsdpSpoof => (directory_shadow(sys.bus(), attacker), s.blocked()),
            AttackKind::ControlFlood => (
                u64::from(!client_done),
                sys.stats().counter("sec.flood_dropped"),
            ),
        };
        total += s.acked_ok + extra_leak;
        let mut cell = id.clone().id("kind", kind.tag());
        cell.group.push_str(".attacks");
        cell.exact("attempts", s.attempts, "count")
            .exact("denied_local", s.denied_local, "count")
            .exact("denied_remote", s.denied_remote, "count")
            .exact("acked_ok", s.acked_ok, "count")
            .exact("unresolved", s.unresolved(), "count")
            .exact("blocked", blocked, "count")
            .exact("leaked", s.acked_ok + extra_leak, "count")
    };
    let rows = evil.all_stats().iter().map(row).collect();
    (rows, total)
}

/// The run's audit evidence: `sec.*` metrics plus the bus audit's exact
/// cumulative counters (counters survive the per-dispatch drain; only the
/// bounded record log is drained into the trace), summed over `systems`.
fn audit<'a>(cell: Cell, systems: impl Iterator<Item = &'a System> + Clone) -> Cell {
    let sum = |f: &dyn Fn(&System) -> u64| systems.clone().map(f).sum::<u64>();
    let counters = [
        "dma_allowed",
        "dma_denied",
        "privops_allowed",
        "privops_denied",
        "flood_dropped",
    ];
    let cell = counters.iter().fold(cell, |cell, name| {
        let total = sum(&|s| s.stats().counter(&format!("sec.{name}")));
        cell.exact(&format!("audit.{name}"), total, "count")
    });
    let bus_audit = |f: fn(&lastcpu_bus::BusAudit) -> u64| sum(&|s| s.bus().audit().map_or(0, f));
    cell.exact("audit.bus_denied", bus_audit(|a| a.denied()), "count")
        .exact(
            "audit.bus_rate_limited",
            bus_audit(|a| a.rate_limited()),
            "count",
        )
}

// --- single-machine phase -------------------------------------------------

/// Runs in 10 ms slices until the client is done *and* the attack window
/// has fully elapsed, or `cap` virtual time passes.
fn run_single_system(system: &mut System, port: PortId, cap: SimDuration) -> bool {
    let done = |s: &System| {
        s.host_as::<KvsClientHost>(port)
            .is_some_and(|c| c.is_done())
    };
    let deadline = system.now() + cap;
    let window = system.now() + ATTACK_WINDOW;
    while system.now() < deadline {
        system.run_for(SimDuration::from_millis(10));
        if done(system) && system.now() >= window {
            return true;
        }
    }
    done(system)
}

fn victim_keys(system: &System, frontend: DeviceHandle) -> u64 {
    system
        .device_as::<SmartNic<KvsNicApp>>(frontend)
        .map_or(0, |n| n.app().key_count() as u64)
}

fn shadow_targets(targets: &mut AttackTargets) {
    targets.shadow_services = vec![format!("file:{KVS_FILE}"), "fs".into()];
}

/// One single-machine run: control (no attacker) then the attacked run,
/// both from the same seed and config. Returns the cells, the leak total
/// and the attacked system.
fn run_single(args: &Args, seed: u64, hardened: bool) -> (Vec<Cell>, u64, System) {
    let build = || {
        let config = sys_config(seed, hardened, args);
        build_cpuless_kvs(config, SsdConfig::default(), ServerConfig::default())
    };
    let add_client = |setup: &mut lastcpu_kvs::KvsSetup| {
        let client = KvsClientHost::new(setup.kvs_port, workload(args, "c0"));
        setup.system.add_host(Box::new(client))
    };
    // Control: the identical machine and workload, no attacker. Its final
    // key count is the integrity reference, and (hardened) it shows the
    // policy is transparent to legitimate traffic.
    let control_keys = {
        let mut setup = build();
        let port = add_client(&mut setup);
        setup.system.power_on();
        run_single_system(&mut setup.system, port, RUN_CAP);
        victim_keys(&setup.system, setup.frontend)
    };

    let mut setup = build();
    // The app's PASID is public knowledge by design (§2.2): the NIC is
    // attached right after the SSD, and the app's address space is named
    // after the NIC's bus address.
    let app_pasid = setup.ssd.id.0 + 2;
    let memctl = setup
        .system
        .memctl_id()
        .expect("cpu-less build has a memory controller");
    let mut targets = AttackTargets::new(setup.frontend.id, memctl, app_pasid);
    shadow_targets(&mut targets);
    let evil = MaliciousDevice::new("evil0", plan(seed), targets);
    let attacker = setup.system.add_device(Box::new(evil));
    let port = add_client(&mut setup);
    setup.system.power_on();
    let client_done = run_single_system(&mut setup.system, port, RUN_CAP);

    let id = Cell::new("single")
        .id("seed", seed)
        .id("policy", if hardened { "hardened" } else { "default" });
    let (attacks, leaked) = attack_cells(
        &id,
        &setup.system,
        attacker,
        setup.frontend,
        app_pasid,
        client_done,
    );
    let client: &KvsClientHost = setup.system.host_as(port).expect("client present");
    let vkeys = victim_keys(&setup.system, setup.frontend);
    let cell = id
        .exact("client_done", client_done, "")
        .exact("client_ops", client.ops_done(), "count")
        .exact("client_errors", client.errors(), "count")
        .exact("victim_keys", vkeys, "count")
        .exact("control_keys", control_keys, "count")
        .exact(
            "integrity_ok",
            client_done && client.errors() == 0 && vkeys == control_keys,
            "",
        );
    let cell = audit(cell, std::iter::once(&setup.system)).exact("leaked_total", leaked, "count");
    let mut cells = vec![cell];
    cells.extend(attacks);
    (cells, leaked, setup.system)
}

// --- rack phase -----------------------------------------------------------

/// The rack matrix: the same attacker embedded in machine 0 of an E10
/// rack — replicated shards, cross-machine traffic, acked-write audit.
fn run_rack(args: &Args, seed: u64) -> (Vec<Cell>, u64) {
    let (machines, replication) = (args.usize("--machines"), args.usize("--replication"));
    let mut setup = build_rack_kvs(
        FabricConfig::default(),
        machines,
        replication,
        sys_config(seed, true, args),
    );
    let m0 = setup.machines[0];
    let frontend0 = setup.frontends[0];
    // Same attach-order arithmetic as the single-machine build: the NIC
    // follows the SSD on the bus, so app PASID = NIC id + 1.
    let app_pasid = frontend0.id.0 + 1;
    let memctl = setup
        .fabric
        .machine(m0)
        .memctl_id()
        .expect("rack machine has a memory controller");
    let mut targets = AttackTargets::new(frontend0.id, memctl, app_pasid);
    shadow_targets(&mut targets);
    let evil = MaliciousDevice::new("evil0", plan(seed), targets);
    let attacker = setup.fabric.machine_mut(m0).add_device(Box::new(evil));
    let mut b = RackBench::build(setup, workload(args, "c"));
    b.setup.fabric.power_on();
    let window = b.setup.fabric.now() + ATTACK_WINDOW;
    let clients_done = b.run_until_done(RUN_CAP);
    while b.setup.fabric.now() < window {
        b.setup.fabric.run_for(SimDuration::from_millis(10));
    }

    let id = Cell::new("rack")
        .id("seed", seed)
        .id("machines", machines)
        .id("replication", replication)
        .id("policy", "hardened");
    let sys0 = b.setup.fabric.machine(m0);
    let (attacks, leaked) = attack_cells(&id, sys0, attacker, frontend0, app_pasid, clients_done);
    let cell = id
        .exact("clients_done", clients_done, "")
        .exact("client_ops", b.sum_clients(|c| c.ops_done()), "count")
        .exact("client_errors", b.sum_clients(|c| c.errors()), "count")
        .exact("lost_acked_keys", b.setup.lost_acked_keys(), "count");
    let systems = b.setup.machines.iter().map(|&m| b.setup.fabric.machine(m));
    let cell = audit(cell, systems).exact("leaked_total", leaked, "count");
    let mut cells = vec![cell];
    cells.extend(attacks);
    (cells, leaked)
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    if args.u64("--machines") < 2 {
        return Err("--machines must be >= 2 (the attacker shares m0)".into());
    }
    let seeds = args.u64s("--seeds");
    let mut cells = Vec::new();
    // Hardened rows must never leak; this is the number CI pins to 0.
    let mut leaked_hardened = 0;
    // Every seed under the hardened policy; plus one default-policy run on
    // the first seed for the opt-in comparison.
    let mut last_hardened = None;
    for (seed, hardened) in seeds.iter().map(|&s| (s, true)).chain([(seeds[0], false)]) {
        let (run_cells, leaked, system) = run_single(args, seed, hardened);
        cells.extend(run_cells);
        if hardened {
            leaked_hardened += leaked;
            last_hardened = Some(system);
        }
    }
    if !args.on("--no-rack") {
        for &seed in &seeds {
            let (run_cells, leaked) = run_rack(args, seed);
            cells.extend(run_cells);
            leaked_hardened += leaked;
        }
    }
    cells.push(Cell::new("summary").exact("leaked_total_hardened", leaked_hardened, "count"));
    if let Some(system) = last_hardened {
        ObsArgs::from_args(args).dump(&system);
    }
    Ok(cells)
}

fn check(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let sealed = r
        .group("summary")
        .any(|c| c.num("leaked_total_hardened") == 0.0);
    g.require(
        sealed,
        "SECURITY LEAK: leaked_total_hardened is not 0".into(),
    );
    let hardened = |c: &&Cell| c.key_is("policy", "hardened");
    g.require(
        r.group("single").any(|c| hardened(&c)),
        "no hardened single-machine cells".into(),
    );
    for c in r.group("single").filter(hardened) {
        let intact = c.num("leaked_total") == 0.0
            && c.is("integrity_ok", true)
            && c.num("client_errors") == 0.0;
        g.require(
            intact,
            format!("{}: leak, integrity violation or client errors", c.label()),
        );
        let kinds: Vec<&str> = r
            .group("single.attacks")
            .filter(|a| a.key("seed") == c.key("seed") && hardened(a))
            .filter_map(|a| a.key("kind").and_then(Json::as_str))
            .collect();
        g.require(
            kinds == ATTACK_KINDS,
            format!("{}: attack kinds {kinds:?}", c.label()),
        );
    }
    let racked = r.config.get("no_rack") == Some(&true.into()) || r.group("rack").count() > 0;
    g.require(racked, "no rack cells".into());
    for c in r.group("rack") {
        let intact = c.num("leaked_total") == 0.0
            && c.is("clients_done", true)
            && c.num("client_errors") == 0.0;
        g.require(
            intact,
            format!("{}: leak, incomplete clients or client errors", c.label()),
        );
        g.require(
            c.num("lost_acked_keys") == 0.0,
            format!("{}: lost acknowledged writes", c.label()),
        );
    }
    g.0
}
