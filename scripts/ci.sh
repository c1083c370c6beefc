#!/usr/bin/env bash
# Offline CI gate: formatting, lints (deny warnings), and the full test
# suite. Everything runs against the vendored shims — no network access.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== matrix axes have readers =="
# Every DSI_* variable this script sets must be read by some test or crate:
# an axis whose reader was deleted would keep running as a silent no-op.
for var in $(grep -oE '\bDSI_[A-Z_]+=' scripts/ci.sh | tr -d = | sort -u); do
    if ! grep -rqF --include='*.rs' "\"$var\"" crates tests; then
        echo "$var is set here but nothing under crates/ or tests/ reads it"
        exit 1
    fi
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
# A superset of tier-1 (`cargo test -q`, whose default members are the root
# package and every crate): it repeats those tests and adds the shims' own.
cargo test --workspace -q

echo "== cargo test --release (the optimised kernels are the ones under test) =="
# Hierarchy and label construction *and repair* (the repaired == rebuilt
# properties of crates/hierarchy/tests/proptest_labels.rs, run in debug by
# the step above), the label-driven signature repair a publish runs (the
# label route against the forest route and a fresh build after every
# publish, tests/label_maintenance.rs, which also pins the maintained
# object-pair table to a fresh build's: a self-join below the last
# category's lower bound reads that table and no page), the chain of
# pure epoch repairs a publish runs against a fresh build, answered on
# the signature, hub-label and Dijkstra backends with no thread (the
# service's epoch::tests) and the signature codec once more
# as the benchmark and a publish run them: release arithmetic, debug
# assertions compiled out. The storage crate and the persistence tests
# run here too: the slicing-by-16 CRC-32 that verifies every buffer miss
# on a file-backed store, checked bit for bit against the bytewise
# reference (tests/persistence_and_cnn.rs), and the page-file and
# checkpoint fuzz. The hub labels' narrow (u16) and wide (u32) columns
# run through every backend of the service at K = 1 and K = 3, with the
# weight domain's refusals and its largest admissible weight, across a
# recovery, with joins on both sides of the last category's lower bound
# (tests/service_backends.rs).
cargo test --release -q -p dsi-graph -p dsi-hierarchy -p dsi-signature -p dsi-storage
cargo test --release -q --test label_maintenance
cargo test --release -q -p dsi-service --lib a_chain_of_repairs_is_a_fresh_build
cargo test --release -q --test persistence_and_cnn
cargo test --release -q --test service_backends

echo "== workload CLI smoke (the command-line driver README documents) =="
# The service's driver on a 500-node network, through the paths README and
# the verify notes drive: the hub-label backend, a publish, the shard
# router, and a checksummed page file with readahead and SLO admission.
# Each run must exit 0. A network too small to generate and a flag the CLI
# does not have must be refused with a "workload:" message and a non-zero
# exit, not a panic.
workload() { cargo run --release -q -p dsi-service --bin workload -- "$@"; }
for flags in "--queries 2000 --backend hl" "--queries 500 --updates 8" \
    "--partitions 2" "--store file --readahead 8 --deadline-us 1000"; do
    echo "-- workload --nodes 500 $flags --"
    # shellcheck disable=SC2086 # word-split the flag list on purpose
    workload --nodes 500 $flags >/dev/null
done
for flags in "--nodes 1" "--update-rate 1"; do
    echo "-- workload $flags (must be refused) --"
    # shellcheck disable=SC2086
    if err="$(workload $flags 2>&1)"; then
        echo "workload $flags exited 0"
        exit 1
    fi
    if ! grep -q '^workload: ' <<<"$err"; then
        echo "workload $flags failed without a workload: message:"
        echo "$err"
        exit 1
    fi
done

echo "== fault matrix (service equivalence under injected storage faults) =="
# Re-run the dsi-service fault suite under a matrix of fixed fault seeds:
# the answers must stay element-wise identical to a fault-free run no
# matter which deterministic fault schedule fires, and every degraded
# query is absorbed by the epoch's label oracle — the ladder's one
# in-memory rung. The request width picks the signature read path, and
# the suite checks that its mixed batch takes both. A join below the last
# category's lower bound reads no page and so cannot fault; the suite
# asserts that its mixed batch holds a join at or past that bound, which
# reads pages and so keeps joins in the matrix.
for seed in 1 2 3; do
    echo "-- DSI_FAULT_SEED=$seed --"
    DSI_FAULT_SEED=$seed cargo test -q -p dsi-service --test faults
done

echo "== partition fault matrix (sharded router under injected storage faults) =="
# The same fault suite served through the shard router over K partitioned
# indexes: answers stay element-wise identical, and (the isolation test)
# faults aimed at one partition degrade and quarantine only that
# partition's stripe — the other regions' counters stay zero.
for parts in 2 4; do
    for seed in 1 2; do
        echo "-- DSI_PARTITIONS=$parts DSI_FAULT_SEED=$seed --"
        DSI_PARTITIONS=$parts DSI_FAULT_SEED=$seed \
            cargo test -q -p dsi-service --test faults
    done
done

echo "== hub-label matrix (label replay agrees with paged answers under faults) =="
# DSI_BACKEND=hl replays every served batch on the memory-resident
# hub-label backend, which never touches the page store and so never sees
# an injected fault: its answers are the fault-free truth every paged
# (and degraded, and quarantined) run must reproduce, tie-aware at kNN
# cuts, single-index and sharded alike.
for seed in 1 2; do
    echo "-- DSI_BACKEND=hl DSI_FAULT_SEED=$seed --"
    DSI_BACKEND=hl DSI_FAULT_SEED=$seed \
        cargo test -q -p dsi-service --test faults
done
echo "-- DSI_BACKEND=hl DSI_PARTITIONS=2 DSI_FAULT_SEED=1 --"
DSI_BACKEND=hl DSI_PARTITIONS=2 DSI_FAULT_SEED=1 \
    cargo test -q -p dsi-service --test faults

echo "== store matrix (physical page stores under injected faults) =="
# The same fault suite with the physical page store swapped in: answers
# must be element-wise identical whether a buffer miss is accounting-only
# (mem), a checksummed pread (file), or a mapped copy (mmap), and whether
# misses are served one page at a time or through the batched readahead
# window — the store mode changes the syscall pattern, never the answers
# or the deterministic fault schedule.
for store in mem file; do
    for seed in 1 2; do
        echo "-- DSI_STORE=$store DSI_FAULT_SEED=$seed --"
        DSI_STORE=$store DSI_FAULT_SEED=$seed \
            cargo test -q -p dsi-service --test faults
    done
done
echo "-- DSI_STORE=mmap DSI_FAULT_SEED=1 DSI_READAHEAD=4 --"
DSI_STORE=mmap DSI_FAULT_SEED=1 DSI_READAHEAD=4 \
    cargo test -q -p dsi-service --test faults
echo "-- DSI_STORE=file DSI_FAULT_SEED=2 DSI_READAHEAD=8 DSI_PARTITIONS=2 --"
DSI_STORE=file DSI_FAULT_SEED=2 DSI_READAHEAD=8 DSI_PARTITIONS=2 \
    cargo test -q -p dsi-service --test faults

echo "== tmpdir hygiene (epoch page files unlinked after every run) =="
# Every file-backed epoch materialises a scratch page file and unlinks it
# when the epoch retires (open descriptors keep reading the unlinked
# inode). Anything matching the scratch prefix after the suites above is
# a leak.
stray="$(find "${TMPDIR:-/tmp}" -maxdepth 1 -name 'dsi-pages-*' 2>/dev/null || true)"
if [ -n "$stray" ]; then
    echo "stray page files left behind:"
    echo "$stray"
    exit 1
fi

echo "== maintenance matrix (double-buffered epochs under faults and sharding) =="
# The zero-pause maintenance axis: update batches publish epochs while a
# faulty (and, in the partitioned cells, sharded) service answers queries.
# DSI_MAINT=double-buffer scales up the concurrent-maintenance cell in the
# faults suite and re-runs the serialized-order oracle (all backends,
# including the hub-label one) plus the publish kill-point recovery tests
# across the same seed and partition axes: answers stay element-wise equal
# to one serialized state, and every torn publish recovers to exactly one
# epoch. The DSI_BACKEND=hl cell adds the label replay to the
# serialized-order-under-faults oracle: whenever a reader batch and its
# replay pin the same epoch, the labels must answer identically.
for seed in 1 2; do
    for parts in 1 3; do
        echo "-- DSI_MAINT=double-buffer DSI_FAULT_SEED=$seed DSI_PARTITIONS=$parts --"
        DSI_MAINT=double-buffer DSI_FAULT_SEED=$seed DSI_PARTITIONS=$parts \
            cargo test -q -p dsi-service --test faults \
                concurrent_maintenance_under_faults_stays_exact
    done
    echo "-- DSI_MAINT=double-buffer DSI_BACKEND=hl DSI_FAULT_SEED=$seed --"
    DSI_MAINT=double-buffer DSI_BACKEND=hl DSI_FAULT_SEED=$seed \
        cargo test -q -p dsi-service --test faults \
            concurrent_maintenance_under_faults_stays_exact
    DSI_MAINT=double-buffer DSI_FAULT_SEED=$seed \
        cargo test -q -p dsi-service --test concurrent_maintenance
    DSI_MAINT=double-buffer DSI_FAULT_SEED=$seed \
        cargo test -q -p dsi-service --test recovery publish_kill_points
done

echo "== perfbench --smoke (every workload differentially checked end to end) =="
# Last, the benchmark's own smoke cell: all four workloads, traced and
# untraced, on a 2,000-node network through the real QueryService, whose
# publishes repair the hierarchy and the labels, with every verification
# on — each backend (the hub-label bucket scans included) against
# Backend::Dijkstra on the same epoch and against the harness's brute
# force. A non-zero exit or any result line without "correct":true fails
# the gate.
smoke_out="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- --smoke)"
if grep -q '"correct":false' <<<"$smoke_out" || ! grep -q '"correct":true' <<<"$smoke_out"; then
    echo "perfbench --smoke reported an incorrect run:"
    grep '"correct"' <<<"$smoke_out" | cut -c1-200
    exit 1
fi

echo "ci: all checks passed"
