#!/usr/bin/env bash
# CI gate for the lastcpu workspace. Mirrors what a reviewer runs:
#
#   1. formatting, lints   cargo fmt --check; cargo clippy -D warnings; no std
#                          HashMap/HashSet in the library crates; no raw
#                          `impl Device for` outside the named list; no name
#                          spelled in `apply_action`, no `Envelope` copied
#                          under core/src/system/; no owned request copy in
#                          the NIC server, no envelope `Arc` made outside the
#                          recycling pool, no id list collected per submit;
#                          no fabric-link record formatted per frame, no owned
#                          decode in the shard router
#   2. tier-1              cargo build --release && cargo test -q (includes the
#                          strict-CLI table, one doctored-report test per gate
#                          and the diff exit codes: crates/bench/tests/)
#   3. docs gate           rustdoc warnings as errors, doctests, and a markdown
#                          link check over README/DESIGN/EXPERIMENTS/ROADMAP/docs
#   4. experiments         `lastcpu-bench all --smoke --no-wall --check`, twice:
#                          every experiment runs its reduced command lines and
#                          passes the gates in its own `check`; the two runs'
#                          artifacts are byte-identical; `diff` compares each
#                          pair; a wall-mode E9 pair goes through
#                          `diff --host-tol 30`
#   5. obs artifacts       f2's metrics snapshot covers every instrumented
#                          subsystem; e4's fault matrix replays from three seeds
#                          and exports retry and recovery-latency metrics
#   6. repo benchmark      the steps of benchmark/ci.sh (less one test, see the
#                          stage): the standalone benchmark crate builds
#                          offline, holds every exact metric and the state digest
#                          to repeat bit for bit, and compares clean with itself
#
# Set CI_CRITERION=1 to additionally run the criterion host-time benches
# (opt-in: they are measurements, not pass/fail gates, and take minutes).
# Everything runs offline; the workspace has no crates.io dependencies.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> library maps hash without a per-process seed (every library crate)"
# A std HashMap re-seeds per process, so its table growth — and with it
# allocs/event — differs between two runs of one binary. Non-test code in
# the library crates uses lastcpu_sim::DetHashMap/DetHashSet; only a
# top-level `#[cfg(test)]` item (the models the proptests compare against)
# and sim/src/dethash.rs, which defines the aliases, are exempt.
awk '
    FNR == 1 { skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip && !/^[ \t]*\/\// && /(^|[^A-Za-z_])Hash(Map|Set)/ {
        print "    " FILENAME ":" FNR ": " $0; bad = 1
    }
    skip && /^}/ { skip = 0 }
    END { exit bad }
' $(find crates/{sim,snap,mem,iommu,virtio,bus,net,sec,memctl,devices,core,kvs,fabric,baseline}/src \
        -name '*.rs' ! -path crates/sim/src/dethash.rs | sort) || {
    echo "FAIL: std HashMap/HashSet in non-test library code"; exit 1;
}

echo "==> the lifecycle is written once (no new raw Device impl)"
# A self-managing device implements `Firmware`; its `Device` impl is the
# blanket one in devices/src/firmware.rs, so a new service cannot re-type
# Hello / heartbeat / monitor pump / reset. Non-test code may implement
# `Device` directly only for the devices DESIGN.md "Writing a device" lists
# as deliberately not self-managing.
awk '
    FNR == 1 { skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip && /^[ \t]*impl(<.*>)? Device for / {
        ty = $0; sub(/.* Device for /, "", ty); sub(/[^A-Za-z_0-9].*/, "", ty)
        if (ty !~ /^(T|MemCtlDevice|CpuDevice|DumbNic|MaliciousDevice|DoorbellPinger|DoorbellPonger|ControlStorm|CentralProbe)$/) {
            print "    " FILENAME ":" FNR ": " $0; bad = 1
        }
    }
    skip && /^}/ { skip = 0 }
    END { exit bad }
' $(find crates/{devices,core,kvs,fabric,baseline,sec,bench}/src -name '*.rs' | sort) || {
    echo "FAIL: raw \`impl Device for\` outside the named list; implement Firmware"; exit 1;
}

echo "==> a message is allocated once and a name is spelled once"
# `apply_action` runs once per effect of every handler: a name it needs is
# a handle made when the slot was (`System::dst_name` / `id_name`), never a
# `format!` or `to_string()` per record. And the machine only ever passes an
# envelope on (`Arc::clone`, `&*env`): a deep copy under core/src/system/
# is a copy per recipient of a broadcast.
awk '
    FNR == 1 { skip = 0; in_apply = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    /^    fn apply_action\(/ { in_apply = 1 }
    in_apply && /format!|to_string\(\)/ {
        print "    " FILENAME ":" FNR ": " $0; bad = 1
    }
    in_apply && /^    }/ { in_apply = 0 }
    !skip && !/^[ \t]*\/\// &&
    /(^|[^A-Za-z_])(env|envelope|shared)\.clone\(\)|\(\*[a-z_]+\)\.clone\(\)|Envelope::clone/ {
        print "    " FILENAME ":" FNR ": " $0; bad = 1
    }
    skip && /^}/ { skip = 0 }
    END { exit bad }
' $(find crates/core/src/system -name '*.rs' | sort) || {
    echo "FAIL: a name formatted in apply_action, or an Envelope deep-copied in core/src/system"; exit 1;
}
# A request is a slot and an envelope is recycled: the NIC-side server serves
# the borrowed `KvsRequestRef` (a waiting one is wire bytes in the backlog
# arena, never an owned copy); an envelope's `Arc` is made in one place,
# `EnvelopePool::share` in bus/src/bus/envelopes.rs, so every send, doorbell
# and reply can ride a recycled allocation; and a descriptor chain is links
# in the driver's per-descriptor table, not a list collected per submit.
# On the rack: a frame crossing the fabric link is recorded as two integers
# and rendered when a checkpoint or an export wants the line, and the shard
# router triages and serves the borrowed `KvsResponseRef` / `KvsRequestRef`.
awk '
    FNR == 1 { skip = 0; in_submit = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    skip && /^}/ { skip = 0 }
    skip || /^[ \t]*\/\// { next }
    FILENAME ~ /kvs\/src\/(app|server)\.rs$/ && /\.to_owned\(\)|KvsRequest::decode/ {
        print "    " FILENAME ":" FNR ": " $0; bad = 1
    }
    FILENAME ~ /(core\/src\/system|bus\/src\/bus)\// && FILENAME !~ /envelopes\.rs$/ && /Arc::new\(/ {
        print "    " FILENAME ":" FNR ": " $0; bad = 1
    }
    FILENAME ~ /core\/src\/system\/net\.rs$/ && /TraceData::Text\(format!\(/ {
        print "    " FILENAME ":" FNR ": " $0; bad = 1
    }
    FILENAME ~ /kvs\/src\/router\.rs$/ && /Kvs(Response|Request)::decode\(/ {
        print "    " FILENAME ":" FNR ": " $0; bad = 1
    }
    FILENAME ~ /virtio\/src\/queue\.rs$/ && /^    pub fn submit_chain/ { in_submit = 1 }
    in_submit && /Vec<u16>|collect\(\)|vec!\[/ {
        print "    " FILENAME ":" FNR ": " $0; bad = 1
    }
    in_submit && /^    }/ { in_submit = 0 }
    END { exit bad }
' crates/kvs/src/app.rs crates/kvs/src/server.rs crates/kvs/src/router.rs crates/virtio/src/queue.rs \
  $(find crates/core/src/system crates/bus/src/bus -name '*.rs' | sort) || {
    echo "FAIL: an owned request copy in the NIC server or the shard router, an envelope Arc made outside EnvelopePool::share, a descriptor list collected per submit, or a fabric-link record formatted per frame"; exit 1;
}

echo "==> tier-1: cargo build --release"
cargo build --offline --release

echo "==> tier-1: cargo test -q"
cargo test --offline -q

echo "==> docs gate: cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

echo "==> docs gate: doctests"
cargo test --offline -q --doc

echo "==> docs gate: markdown links"
# Every relative link and intra-file anchor in the reviewer-facing docs
# must resolve (external URLs are counted, not fetched — CI is offline).
if command -v python3 >/dev/null 2>&1; then
    python3 scripts/check_links.py \
        README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md
else
    echo "    python3 unavailable, markdown link check skipped"
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bench=target/release/lastcpu-bench

echo "==> experiments: all --smoke --no-wall --check, twice"
"$bench" all --smoke --no-wall --check --out-dir "$tmp/a" >/dev/null
"$bench" all --smoke --no-wall --check --out-dir "$tmp/b" >/dev/null
diff -r "$tmp/a" "$tmp/b" || { echo "FAIL: same-flag runs differ"; exit 1; }
for a in "$tmp"/a/BENCH_*.json; do
    "$bench" diff "$a" "$tmp/b/$(basename "$a")" | tail -1
done

echo "==> regression diff (wall-mode e9 pair, --host-tol 30)"
# Same commit, so allocations/event must agree within their declared 2%;
# host time gets 30% to survive a noisy CI host (cross-commit runs on a
# quiet machine use the default 5%). Four times the smoke sizes and the best
# of three: at the smoke sizes the ssd phase is a 3 ms window, and one
# preemption moves it by more than 30% (5 of 10 same-binary pairs failed
# there on a loaded host; 0 of 10 at these sizes).
e9_pair=(--queue-ops 1000000 --queue-depth 8192 --virtual-ms 400 --repeat 3)
"$bench" e9 "${e9_pair[@]}" --check --out "$tmp/e9_a.json" >/dev/null
"$bench" e9 "${e9_pair[@]}" --check --out "$tmp/e9_b.json" >/dev/null
"$bench" diff --host-tol 30 "$tmp/e9_a.json" "$tmp/e9_b.json" | tail -1

echo "==> observability artifacts (f2 metrics prefixes; e4 fault seeds)"
"$bench" f2 --check --trace-out "$tmp/f2.jsonl" --metrics-out "$tmp/f2.prom" >/dev/null
[ -s "$tmp/f2.jsonl" ] || { echo "FAIL: empty trace"; exit 1; }
# The metrics snapshot must cover each subsystem the design instruments
# (names are sanitized to lastcpu_<subsystem>_... in the exposition).
for prefix in bus iommu nic ssd memctl kvs; do
    grep -q "lastcpu_${prefix}_" "$tmp/f2.prom" || {
        echo "FAIL: no ${prefix}.* metric in snapshot"; exit 1;
    }
done
# The fault matrix gates bit-identical replay per cell and a completed
# Figure-2 re-init per recovery; the exported snapshot must also carry the
# retry counters and recovery-latency histograms (keys bus.<device>.retries
# / bus.<device>.recovery_latency, sanitized to lastcpu_bus_<device>_...).
for seed in 0xE4 7 1984; do
    "$bench" e4 --check --fault-seed "$seed" --metrics-out "$tmp/e4_$seed.prom" >/dev/null
    grep -Eq 'lastcpu_bus_[a-z0-9]+_retries' "$tmp/e4_$seed.prom" || {
        echo "FAIL: no bus.*.retries counter for seed $seed"; exit 1;
    }
    grep -q 'recovery_latency' "$tmp/e4_$seed.prom" || {
        echo "FAIL: no recovery_latency histogram for seed $seed"; exit 1;
    }
done
echo "    metrics cover bus/iommu/nic/ssd/memctl/kvs; 3 fault seeds replayed"

echo "==> repo benchmark (build, exactness tests, smoke self-compare)"
# The crate the pipeline measures every change with path-depends on
# crates/*, so a change here that breaks its build or moves a simulated
# number between two same-seed runs has to fail here, not after merge.
#
# 2026-10-03, PR 21: benchmark/ci.sh inlined with one test skipped.
# benchmark/src/workloads/rack.rs::fabric_results_depend_on_run_until_slicing
# asserts (`assert_ne!`) that slicing `run_until` moves the rack's digest and
# says it is meant to fail once the fabric is fixed. PR 21 fixed the fabric
# and, not being a benchmark PR, could not edit benchmark/. The
# benchmark-only follow-up flips that pin to equality, deletes
# `rack_restore`'s scout run and refreshes benchmark/README.md "baseline
# facts"; after it this stage goes back to `bash benchmark/ci.sh | tail -3`.
(
    cd benchmark
    cargo build --release --offline
    cargo test --release --offline -- --skip fabric_results_depend_on_run_until_slicing
    run() { cargo run --release --offline --quiet -- "$@"; }
    run run --smoke --repeat 2 --out "$tmp/benchmark.json"
    run compare "$tmp/benchmark.json" "$tmp/benchmark.json"
    echo "benchmark CI OK"
) | tail -3

if [ "${CI_CRITERION:-0}" = "1" ]; then
    echo "==> criterion host-time benches (opt-in via CI_CRITERION=1)"
    cargo bench --offline -p lastcpu-bench
fi

echo "CI OK"
