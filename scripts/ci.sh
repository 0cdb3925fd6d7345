#!/usr/bin/env bash
# CI gate for the lastcpu workspace. Mirrors what a reviewer runs:
#
#   1. formatting, lints   cargo fmt --check; cargo clippy -D warnings; a
#                          census of lines the library must not contain, one
#                          rule per refusal (a seeded std map, a raw `impl
#                          Device for`, a hand-built wire writer or reader, a
#                          copied envelope, a record
#                          formatted per frame, a digest or verification that
#                          holds a second copy of a checkpoint, a shared
#                          string in a trace record, a walk of every machine
#                          per retired rack event, a checkpoint checksum
#                          hashed byte by byte with FNV-1a, a hand-registered
#                          metric handle, a hand-written machine, rack or
#                          NIC section writer, a timing literal outside the
#                          cost table, a second counting allocator, a
#                          print! that panics on a closed pipe, ...);
#                          it reads crates/*/src, crates/*/tests and tests/;
#                          the public surface: every pub library item has a
#                          caller outside tests, or a reason on the stage's
#                          allow-list; and reach: every lastcpu_* function
#                          of the library rlibs is in a shipped program
#                          (lastcpu-bench, the examples, the components
#                          bench, benchmark/'s binary, built at opt-level 0
#                          into target/reach), or is derived glue, or has
#                          a reason on that stage's list
#   2. tier-1              cargo build --release && cargo test -q (includes the
#                          strict-CLI table, one doctored-report test per gate,
#                          the diff exit codes and the region test that holds
#                          every EXPERIMENTS.md table equal to the render of
#                          its committed artifact: crates/bench/tests/)
#   3. docs gate           rustdoc warnings as errors, doctests, and a markdown
#                          link check over README/DESIGN/EXPERIMENTS/ROADMAP/docs
#   4. experiments         `lastcpu-bench all --smoke --no-wall --check`, twice:
#                          every experiment runs its reduced command lines and
#                          passes the gates in its own `check`; the two runs'
#                          artifacts are byte-identical; each artifact's
#                          `show` is what its run printed; `diff` compares each
#                          pair; E9 runs A/A through `ab` (six ABBA pairs
#                          of one binary, sign-test intervals); the full E10 matrix
#                          reproduces BENCH_e10.json, every metric unchanged
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
skip: ^crates/(sim/src/dethash|snap/src/fields)\.rs\$
forbid: (^|[^A-Za-z_])Hash(Map|Set)
why: a std HashMap/HashSet re-seeds per process, so its growth and allocs/event differ between runs; use lastcpu_sim::DetHashMap, with () values for a set (the snap field codecs take any hasher)

files: $lib
skip: ^crates/snap/src/
forbid: ^[ \t]*impl(<.*>)? ([A-Za-z_]+::)*Restore for
why: a component's reader is derived from its one field list (lastcpu_snap::fields!, DESIGN.md §14.1); a hand-written Restore is a second spelling of its layout

files: $lib
forbid: fn (snap_decode|decode_payload)[(<]
why: an inverse is derived from the declaration (fields!, tags!, variants!), never written beside its writer

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

files: ^crates/(core/src/system|bus/src/bus)/
skip: envelopes\.rs\$
forbid: Arc::new\(
why: an envelope Arc is made by EnvelopePool::share alone, so every send rides a recycled allocation

files: ^crates/core/src/system/net\.rs\$
forbid: TraceData::Text\(format!\(
why: a fabric-link record is two integers, rendered when a checkpoint or an export wants the line

files: ^crates/(sim/src/record\.rs|core/src/system/)
forbid: Arc<str>
why: a trace record is plain data; a name is a Name in the sink's table, interned once

files: ^crates/sim/src/trace\.rs\$
from: ^impl(<'a>)? (Pack|Unpack|Packed|Iterator for Records)[<' ]
to: ^}
forbid: TraceData::[A-Z]
why: the ring packs and unpacks every variant through the code record_layout! generates from its rows, so a variant added to the table is in the ring; a variant named in the ring's own code is a second list of them

files: ^crates/bench/src/
forbid: (^|[^A-Za-z_])print(ln)?!
why: lastcpu-bench prints through cli::print, which a reader that closed the pipe (| head) silences; print!/println! panic there

files: $lib|^crates/bench/src/
skip: ^crates/bus/src/wire\.rs\$
forbid: WireWriter::(new|with_buf|with_capacity)|WireReader::new
why: a message is one declaration against the wire codec (variants!, record!, wire_tags!; DESIGN.md §14.1), which derives its encoder, decoder and framing; a hand-built writer or reader is a second spelling of its layout

files: $lib
forbid: \(Payload::[A-Za-z]+( \{ \.\. \})?, Payload::|Payload::[A-Za-z]+( \{ \.\. \})? => \"
why: a request's reply and a payload's name are declared once, in message.rs's Payload declaration (protocol!, DESIGN.md §14.1); a hand list of pairs or names is a second statement of the protocol

files: $lib|^crates/bench/src/
forbid: from_le_bytes\(params
why: open params are a declared message (FileOpened, FsCreated, ...); decode them, do not slice them

files: ^crates/virtio/src/queue\.rs\$
from: ^    pub fn submit_chain[<(]
to: ^    }
forbid: Vec<u16>|collect\(\)|vec!\[
why: a descriptor chain is links in the driver's table, not a list collected per submit

files: ^crates/virtio/src/queue\.rs\$
from: ^    pub fn read_request_into
to: ^    }
forbid: resize\(chain\.(readable|writable)_len
why: a peer's descriptor lengths are claims; a buffer grows with the bytes DMA read

files: $lib
forbid: fnv1a\(&.*\.encode\(\)
why: hashing an encoding builds the encoding first; Checkpoint::digest folds over the walk

files: $lib
from: fn verify_checkpoint\(
to: ^    }
forbid: self\.checkpoint\(
why: verification compares each section as it serializes; a second checkpoint holds the state twice

files: ^crates/snap/src/lib\.rs\$
from: ^impl.* SectionSink for Encoder
to: ^}
forbid: fnv1a\(
why: the encoder hands a section's checksum over through Emit::sum_of, so a verify can take it as a claim instead of hashing the body

files: ^crates/snap/src/lib\.rs\$
from: ^    pub fn decode\(bytes
to: ^    }
forbid: fnv1a\(
why: decode checks each section against the word-at-a-time checkpoint checksum (Sum), which folds eight bytes per multiply; FNV-1a is for recipe fingerprints only

files: ^crates/fabric/src/fabric\.rs\$
from: ^        loop \{
to: ^        \}
forbid: self\.machines\.(iter|iter_mut)\(|in &(mut )?self\.machines
why: choosing the next retirement must not visit every machine; run_until's winner tree names it, and a step, an injected frame or a kill moves one leaf

files: $lib
skip: ^crates/sim/src/metrics\.rs\$
forbid: (counter|gauge|histogram)_handle\(
why: an instrument is one row of a lastcpu_sim::instruments! declaration (DESIGN.md §7), which registers its handles; a hand-registered handle spells its key a second time

files: ^crates/(core/src/system/|fabric/src/|devices/src/nic\.rs\$)
forbid: SnapWriter::new\(\)|w\.put_
why: a machine, rack or NIC section is one declaration against lastcpu_snap (fields!, variants!, record!, a Span; DESIGN.md §14.1), which derives its writer and its reader; a hand-written writer is a layout no reader has

files: $lib
forbid: if let Some\(met\) = &self\.met
why: one call per event feeds the instance's own count and every key of its row; a block copying a count into the hub is a second spelling of the instrument

files: $lib
skip: ^crates/sim/src/costs\.rs\$
forbid: SimDuration::from_(nanos|micros|millis|secs)\([0-9]
allow: SimDuration::from_nanos\(1\)
why: a timing constant is one row of the cost table (lastcpu_sim::costs, DESIGN.md §5), declared once with its unit and its source; the 1 ns let through is the clock's resolution, which puts an event strictly after another and prices nothing

files: ^(crates|tests)/
skip: ^crates/bench/src/alloc\.rs\$
forbid: unsafe impl GlobalAlloc
why: allocations are counted by one allocator, lastcpu_bench::alloc::CountingAlloc (DESIGN.md §12.1), which counts only the calling thread; a binary installs it with one #[global_allocator] line and measures with watch
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
' $(find crates tests \( -path '*/src/*' -o -path '*/tests/*' \) -name '*.rs' | sort) || {
    echo "FAIL: a refused line in library or test code (see above)"; exit 1;
}

echo "==> public surface (every pub library item has a caller outside tests)"
# A `pub` item (fn, struct, enum, trait, type, const, static) in the non-test
# code of crates/*/src, the vendored crates/proptest and crates/criterion
# left out, fails when its name appears on no other non-test line of
# crates/*/src, crates/*/benches, examples/ or benchmark/src: a library item
# only tests reach is deleted with the tests that test only it. Comments,
# `pub use` / `pub mod` lines and top-level `#[cfg(test)]` items never count
# as a caller. The scan goes by name, so an item whose name is also spelled
# elsewhere passes it; the reach stage below, which goes by what the linker
# keeps, catches such an item. An item that stays without a caller is on this
# list, one `name  reason` line each: a hook through which a test drives
# behaviour no public path reaches, or an observation a pin reads that must
# not change. A name on the list that the scan no longer flags fails too.
surface_allow="
ROWS  the cost table's rows: DESIGN.md §5 renders them and tests/cost_table.rs holds each default to its row
app_mut  tests/delivery.rs turns the NIC server's fast path off through it, the slow path's only route in a test
containing  tests/trace_repr.rs, a pin, counts a rack's link-crossing records with it
endpoint_names  tests/metrics_pins.rs, a pin, holds a router's ring size through it
generate  FaultPlan::generate, the seeded random fault plan tests/trace_pins.rs (a pin) and tests/fault_props.rs replay
open_tunnel  a raw machine-to-machine tunnel, so fabric and rack tests drive link timing and faults without the KVS router's directory
section_tags  tests/checkpoint_pins.rs, tests/trace_repr.rs and tests/server_backlog.rs (pins) walk a checkpoint's sections with it
table_nodes  tests/iommu_pins.rs, a pin, holds a unit's page-table node count through it
total_emitted  tests/trace_pins.rs and tests/trace_repr.rs (pins) hold a sink's lifetime record count through it
"
surface_decl=$(find crates/*/src -name '*.rs' | grep -Ev '^crates/(proptest|criterion)/' | sort)
surface_use=$(find crates/*/src crates/*/benches examples benchmark/src -name '*.rs' \
    | grep -Ev '^crates/(proptest|criterion)/' | sort)
surface_allow="$surface_allow" surface_decl="$surface_decl" awk '
    BEGIN {
        n = split(ENVIRON["surface_decl"], d, "\n")
        for (i = 1; i <= n; i++) decl[d[i]] = 1
        n = split(ENVIRON["surface_allow"], a, "\n")
        for (i = 1; i <= n; i++) if (a[i] != "") { sub(/ .*/, "", a[i]); allow[a[i]] = 1 }
    }
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test && /^}[ \t]*$/ { test = 0; next }
    test || /^[ \t]*\/\// || /^[ \t]*pub (use|mod) / { next }
    {
        name = ""
        if (decl[FILENAME] && match($0, /^[ \t]*pub (const |async |unsafe )*(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
            at[name] = at[name] "    " FILENAME ":" FNR ": " $0 "\n"
        }
        line = $0
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(line, RSTART, RLENGTH)
            if (w == name) name = ""   # the declaration names itself once
            else seen[w] = 1
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END {
        for (k in at) if (!(k in seen)) {
            if (k in allow) { flagged[k] = 1; continue }
            printf "%s", at[k]
            print "      refused: pub " k " has no caller outside tests; delete it with the tests that test only it"
            bad = 1
        }
        for (k in allow) if (!(k in flagged)) {
            print "    surface allow-list: " k " has a caller or no declaration now; take it off the list"
            bad = 1
        }
        exit bad
    }
' $surface_use || {
    echo "FAIL: a public library item only tests reach (see above)"; exit 1;
}

echo "==> reach (every library function is in a shipped program, or has a reason)"
# The scan above goes by name; this stage goes by what the linker keeps. It
# builds every shipped program at opt-level 0 (no inlining) into its own
# target directory: lastcpu-bench and the four examples, the criterion bench
# `components` (built alone: `--benches` would also build each library's
# unit-test harness and count test code as a caller) and benchmark/'s
# binary. It takes the rlib and executable paths from cargo's JSON, so a
# stale artifact in the target directory counts for nothing, and lists with
# nm the lastcpu_* functions of the 15 library rlibs that no program holds.
# Such a function passes when it is
#   - derive, drop or closure glue, or a `Display` impl;
#   - named by its last path segment on the public-surface allow-list above;
#   - or at or under an entry below, one `path  reason` line each: a function
#     or a type (`<impl X>` and `<X as Trait>` read as `X`).
# Anything else fails, and so does an entry that matches nothing.
# A failure prints the function as nm names it; delete it with the tests
# that test only it, or list it here with the pin or the hook that needs it.
reach_allow="
lastcpu_bus::message::ErrorCode  a tags! writer and reader half: no program checkpoints or loads a machine holding an error reply in flight
lastcpu_bus::message::MapOp  a tags! writer and reader half: no program checkpoints or loads a machine holding a map instruction in flight
lastcpu_bus::wire::Rest  Codec::encoded_len; tests/wire_pins.rs sizes a rest-of-frame field through it
lastcpu_core::memctl_dev::MemCtlDevice::new  tests/restore_pins.rs builds the memory controller it restores into
lastcpu_core::system::System::restore_from  tests/checkpoint_pins.rs and tests/trace_repr.rs restore a machine through it
lastcpu_core::system::System::verify_checkpoint  tests/checkpoint_pins.rs holds its verdicts
lastcpu_devices::accel  the Accelerator, a Figure-1 device no experiment attaches yet, whole, its section's reader included: tests/restore_pins.rs and tests/wire_pins.rs pin its section and its message
lastcpu_devices::nic::EchoApp  tests/restore_pins.rs pins the echo NIC app's section, written and read; no program loads an echo NIC
lastcpu_devices::ssd::FileStatus  a tags! writer and reader half; tests/wire_pins.rs sizes it
lastcpu_devices::ssd::SmartSsd::monitor  tests/restore_pins.rs pins the SSD monitor's section through it
lastcpu_fabric::ring::HashRing::nodes  ShardRouterHost::endpoint_names reads it (tests/metrics_pins.rs)
lastcpu_iommu::unit::Iommu::audit  tests/restore_pins.rs pins the DMA audit's section through it
lastcpu_iommu::unit::Iommu::mapped_pages  tests/iommu_pins.rs holds a unit's mapped page count through it
lastcpu_iommu::unit::Iommu::protect  tests/iommu_pins.rs changes a mapping's permissions through it
lastcpu_kvs::app::KvsNicApp::set_fast_path  tests/delivery.rs turns the NIC server's fast path off, through SmartNic::app_mut, the slow path's only route in a test
lastcpu_kvs::cpu_app::KvsCpuApp  tests/restore_pins.rs pins its section, written and read (no program loads the CPU baseline), and tests/metrics_pins.rs reads its counters
lastcpu_kvs::engine::KvEngine::is_empty  clippy's len_without_is_empty asks for it beside the linked len
lastcpu_kvs::server::KvsServer::set_fast_path  KvsNicApp::set_fast_path's half
lastcpu_mem::pagetable::PageTable::mapped_pages  Iommu::mapped_pages reads it (tests/iommu_pins.rs)
lastcpu_mem::pagetable::PageTable::protect  Iommu::protect walks it (tests/iommu_pins.rs)
lastcpu_sim::metrics::MetricsHub::gauge  tests/metrics_pins.rs reads the hub's gauges through it
lastcpu_sim::trace::TraceSink::is_empty  clippy's len_without_is_empty asks for it beside the linked len
lastcpu_virtio::queue::VirtqueueDriver  a fields! writer and reader half: no program checkpoints or loads a virtqueue driver
"
reach_target=target/reach
reach_build() {
    cargo build --offline --quiet --profile dev --target-dir "$reach_target" \
        --message-format=json "$@"
}
reach_json=$(reach_build --workspace --bins --examples)
reach_rlibs=$(printf '%s\n' "$reach_json" | grep -o '"[^"]*/liblastcpu_[a-z]*-[0-9a-f]*\.rlib"' | tr -d '"' | sort -u)
reach_json="$reach_json
$(reach_build -p lastcpu-bench --bench components)
$(reach_build --manifest-path benchmark/Cargo.toml)"
reach_progs=$(printf '%s\n' "$reach_json" | grep -o '"executable":"[^"]*"' | sed 's/^"executable":"//; s/"$//' | sort -u)
reach_syms() { sed -E 's/^[0-9a-f]+ ([A-Za-z]) /\1 /; s/::h[0-9a-f]{16}$//'; }
# shellcheck disable=SC2086 # one path per word
nm -C --defined-only $reach_progs | reach_syms | cut -c3- | sort -u > "$reach_target/programs.txt"
# One line per function: the symbol, a tab, and its path for the list.
# shellcheck disable=SC2086
nm -C --defined-only $reach_rlibs 2>/dev/null | reach_syms | grep -E '^[tT] <?lastcpu_' | cut -c3- |
    sort -u | sed -E 'h
        s/^<([^ ]+) as .*>::([A-Za-z0-9_]+)$/\1::\2/
        s/^.*<impl ([^<>]* for )?([^<> ]+)>::([A-Za-z0-9_]+)$/\2::\3/
        s/<[A-Z][A-Za-z0-9_, ]*>//g
        x; G; s/\n/\t/' > "$reach_target/lib.txt"
reach_allow="$reach_allow" surface_allow="$surface_allow" awk -F'\t' '
    BEGIN {
        n = split(ENVIRON["reach_allow"], a, "\n")
        for (i = 1; i <= n; i++) if (a[i] != "") { sub(/ .*/, "", a[i]); entry[a[i]] = 1 }
        n = split(ENVIRON["surface_allow"], a, "\n")
        for (i = 1; i <= n; i++) if (a[i] != "") { sub(/ .*/, "", a[i]); surface[a[i]] = 1 }
    }
    FNR == NR { linked[$0] = 1; next }
    $1 in linked { next }
    { unreached++ }
    $1 ~ /\{\{closure\}\}|(as|impl) core::(clone::Clone|fmt::Debug|hash::Hash|default::Default|cmp::(PartialEq|Eq|PartialOrd|Ord))( for [^>]*)?>::|Drop( for .*)?>::drop$/ { glue++; next }
    $1 ~ /Display( for .*)?>::fmt$/ { display++; next }
    {
        name = $2; sub(/.*::/, "", name)
        if (name in surface) { by_name++; next }
        path = $2
        while (path != "") {
            if (path in entry) { used[path] = 1; listed++; next }
            if (path !~ /::/) break
            sub(/::[^:]*$/, "", path)
        }
        print "    " $1
        print "      refused: no shipped program links it; delete it with the tests that test only it"
        bad = 1
    }
    END {
        for (k in entry) if (!(k in used)) {
            print "    reach allow-list: " k " matches no unreached function; take it off the list"
            bad = 1
        }
        printf "    %d library functions no program links: %d glue, %d Display,", unreached, glue, display
        printf " %d on the surface allow-list, %d under a reach_allow entry\n", by_name, listed
        exit bad
    }
' "$reach_target/programs.txt" "$reach_target/lib.txt" || {
    echo "FAIL: a library function no shipped program links (see above)"; exit 1;
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
"$bench" all --smoke --no-wall --check --out-dir "$tmp/a" >"$tmp/printed.txt"
"$bench" all --smoke --no-wall --check --out-dir "$tmp/b" >/dev/null
diff -r "$tmp/a" "$tmp/b" || { echo "FAIL: same-flag runs differ"; exit 1; }
# An artifact renders to what its run printed: the first run's stdout, less
# its `wrote` lines, is `show` on each file those lines name, in order.
grep -v '^wrote ' "$tmp/printed.txt" >"$tmp/tables.txt"
sed -n 's/^wrote //p' "$tmp/printed.txt" | while read -r f; do "$bench" show "$f"; done >"$tmp/shown.txt"
diff "$tmp/tables.txt" "$tmp/shown.txt" || {
    echo "FAIL: an artifact's show differs from what its run printed"; exit 1;
}
echo "    $(grep -c '^wrote ' "$tmp/printed.txt") artifacts render as printed"
for a in "$tmp"/a/BENCH_*.json; do
    "$bench" diff "$a" "$tmp/b/$(basename "$a")" | tail -1
done

echo "==> host time, A/A (ab: e9, one binary against itself, 6 ABBA pairs)"
# One binary against itself, so every host metric's true ratio is 1. `ab`
# runs e9 six times a side in ABBA order and fails only when a host
# metric's whole sign-test interval (the extremes of six ratios, 96.9%
# coverage) is more than 10% worse, and holds every other metric, pair by
# pair, as `diff` does (allocations/event within their declared 2%). Four
# times the smoke sizes and the best of three within a run. Over 20 A/A
# runs on the 2-core host (part of the time beside a build) it failed 0
# times, and no interval lay wholly above a ratio of 1.000; the single
# `diff --host-tol 30` pair it replaces failed 2 of 4 and 1 of 3 times
# with no code at fault.
e9_pair=(--queue-ops 1000000 --queue-depth 8192 --virtual-ms 400 --repeat 3 --check)
"$bench" ab "$bench" "$bench" -- e9 "${e9_pair[@]}" | tail -1

echo "==> every simulated artifact reproduces (all --check; each metric unchanged)"
# The committed BENCH_*.json were written by `all --check` at default
# flags. F2, E1-E8, E10, E11 and the ablations hold simulated metrics only,
# so equal code reproduces every one exactly, and a change that moves any
# simulated byte (a device, the fabric, the router, a client) shows here as
# a changed metric. E9 and E14 also carry host-time columns, each with a
# bound: E9's wall_seconds, events_per_sec and ns_per_event, E14's ckpt_ms
# and restore_ms. Those may move with the host (--host-tol 100: up to twice
# as slow); every other column must read unchanged, so no diff line may
# name one. BENCH_e14.json's host values are the medians of five runs of
# one sitting. Against them, those five runs read 0.98-1.24x on every value
# but one: a 2.4 ms ckpt_ms read 5.7 ms (2.36x) once, and that run would
# fail here. A one-run host value of a few milliseconds has about 2x
# headroom for the host and not for a stall. E12 stays out: its scope wall columns are exact host metrics,
# and its rack phase's scope allocation counts move by a handful from run
# to run.
"$bench" all --check --out-dir "$tmp/all" >/dev/null
for spec in f2 e1 e2 e3 e4 e5 e6 e7 e8 e10 e11 ablations \
    'e9:wall_seconds|events_per_sec|ns_per_event' 'e14:ckpt_ms|restore_ms'; do
    id=${spec%%:*}
    host=${spec#"$id"}; host=${host#:}
    "$bench" diff --host-tol 100 "BENCH_$id.json" "$tmp/all/BENCH_$id.json" \
        >"$tmp/diff_$id.txt" || true
    if grep -q 'note: the two runs used different flags' "$tmp/diff_$id.txt"; then
        echo "FAIL: BENCH_$id.json was not written with its default flags"; exit 1
    fi
    pass='^PASS: [0-9]+ unchanged, 0 within bound, 0 improved, 0 regressed, 0 on one side only$'
    [ -z "$host" ] ||
        pass='^PASS: [0-9]+ unchanged, [0-9]+ within bound, [0-9]+ improved, 0 regressed, 0 on one side only$'
    moved=$(grep -E '^  ' "$tmp/diff_$id.txt" | grep -Ev " ($host): " || true)
    if ! grep -Eq "$pass" "$tmp/diff_$id.txt" || { [ -n "$host" ] && [ -n "$moved" ]; }; then
        cat "$tmp/diff_$id.txt"; echo "FAIL: $id no longer reproduces BENCH_$id.json"; exit 1
    fi
done
echo "    f2, e1-e11 (e9 and e14 but for host time) and ablations reproduce every metric"

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
