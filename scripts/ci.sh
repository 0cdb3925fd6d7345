#!/usr/bin/env bash
# CI gate for the lastcpu workspace. Mirrors what a reviewer runs:
#
#   1. formatting, lints   cargo fmt --check; cargo clippy -D warnings; a
#                          census of lines the library must not contain, one
#                          rule per refusal (a seeded std map, a raw `impl
#                          Device for`, a copied envelope or request, a record
#                          formatted per frame, a digest or verification that
#                          holds a second copy of a checkpoint, ...)
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

echo "==> source census (one table of refused lines, one loop)"
# Each rule is a paragraph of `key: value` lines; every value is an awk ERE
# except `why`, which is printed with each offending line:
#   files   the paths the rule reads          skip   paths it leaves alone
#   forbid  the refused line                  allow  lines let through anyway
#   from/to the region of a file it reads (default: the whole file)
# Comment lines and top-level `#[cfg(test)]` items (the models proptests
# compare against, test-only devices) are never read.
lib='^crates/(sim|snap|mem|iommu|virtio|bus|net|sec|memctl|devices|core|kvs|fabric|baseline)/src/'
census="
files: $lib
skip: ^crates/sim/src/dethash\.rs\$
forbid: (^|[^A-Za-z_])Hash(Map|Set)
why: a std HashMap/HashSet re-seeds per process, so its growth and allocs/event differ between runs; use lastcpu_sim::DetHashMap/DetHashSet

files: ^crates/(devices|core|kvs|fabric|baseline|sec|bench)/src/
forbid: ^[ \t]*impl(<.*>)? Device for
allow: Device for (T|MemCtlDevice|CpuDevice|DumbNic|MaliciousDevice|DoorbellPinger|DoorbellPonger|ControlStorm|CentralProbe)([^A-Za-z_0-9]|\$)
why: a self-managing device implements Firmware (DESIGN.md §5 \"Writing a device\" lists the exceptions)

files: ^crates/core/src/system/
from: ^    fn apply_action\(
to: ^    }
forbid: format!|to_string\(\)
why: apply_action runs per effect; a name it needs is a handle made with the slot

files: ^crates/core/src/system/
forbid: \.iommu\.(map|unmap)\(
why: a MapInstruction programs its region through Iommu::grant/revoke, one walk per leaf table

files: ^crates/core/src/system/
forbid: (^|[^A-Za-z_])(env|envelope|shared)\.clone\(\)|\(\*[a-z_]+\)\.clone\(\)|Envelope::clone
why: the machine passes an envelope on; a deep copy is one per broadcast recipient

files: ^crates/kvs/src/(app|server)\.rs\$
forbid: \.to_owned\(\)|KvsRequest::decode
why: the NIC server serves the borrowed KvsRequestRef; a waiting request is wire bytes in the backlog arena

files: ^crates/(core/src/system|bus/src/bus)/
skip: envelopes\.rs\$
forbid: Arc::new\(
why: an envelope Arc is made by EnvelopePool::share alone, so every send rides a recycled allocation

files: ^crates/core/src/system/net\.rs\$
forbid: TraceData::Text\(format!\(
why: a fabric-link record is two integers, rendered when a checkpoint or an export wants the line

files: ^crates/kvs/src/router\.rs\$
forbid: Kvs(Response|Request)::decode\(
why: the shard router triages and serves the borrowed KvsResponseRef / KvsRequestRef

files: ^crates/virtio/src/queue\.rs\$
from: ^    pub fn submit_chain
to: ^    }
forbid: Vec<u16>|collect\(\)|vec!\[
why: a descriptor chain is links in the driver's table, not a list collected per submit

files: $lib
forbid: fnv1a\(&.*\.encode\(\)
why: hashing an encoding builds the encoding first; Checkpoint::digest folds over the walk

files: $lib
from: fn verify_checkpoint\(
to: ^    }
forbid: self\.checkpoint\(
why: verification compares each section as it serializes; a second checkpoint holds the state twice
"
census="$census" awk '
    BEGIN {
        n = split(ENVIRON["census"], paras, /\n\n/)
        for (i = 1; i <= n; i++) {
            k = split(paras[i], kv, /\n/)
            for (j = 1; j <= k; j++) {
                if (kv[j] == "") continue
                key = kv[j]; sub(/:.*/, "", key)
                val = kv[j]; sub(/^[a-z]+: /, "", val)
                rule[i, key] = val
            }
        }
    }
    FNR == 1 { test = 0; for (i = 1; i <= n; i++) inside[i] = rule[i, "from"] == "" }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test && /^}/ { test = 0; next }
    test || /^[ \t]*\/\// { next }
    {
        for (i = 1; i <= n; i++) {
            if (FILENAME !~ rule[i, "files"]) continue
            if (rule[i, "skip"] != "" && FILENAME ~ rule[i, "skip"]) continue
            if (rule[i, "from"] != "" && $0 ~ rule[i, "from"]) inside[i] = 1
            if (inside[i] && $0 ~ rule[i, "forbid"] &&
                (rule[i, "allow"] == "" || $0 !~ rule[i, "allow"])) {
                print "    " FILENAME ":" FNR ": " $0
                print "      refused: " rule[i, "why"]
                bad = 1
            }
            if (rule[i, "from"] != "" && $0 ~ rule[i, "to"]) inside[i] = 0
        }
    }
    END { exit bad }
' $(find crates -path '*/src/*' -name '*.rs' | sort) || {
    echo "FAIL: a refused line in library code (see above)"; exit 1;
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
