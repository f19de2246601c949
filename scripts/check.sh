#!/usr/bin/env bash
# Full tier-1 gate: formatting, build, tests, and the detlint
# determinism/safety invariants. CI and pre-push both run this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

# Queue smoke: the heap event queue against the linear-scan model
# queue — the differential harness replays randomized schedules through
# both and asserts identical dispatch order, plus the FIFO tie-break and
# seq-wraparound contracts. Runs first because everything below
# (every campaign, every determinism gate) sits on this queue.
echo "==> queue differential smoke"
cargo test -q -p sim-core --test queue_differential
cargo test -q -p sim-core --test fifo_replay

# The suite runs twice to prove the campaign runner's guarantee: results
# are identical whether campaigns run serially or on 8 worker threads
# (tests/parallel_determinism.rs additionally pins 1 vs 2 vs 8 in-process).
echo "==> cargo test (RUNNER_THREADS=1)"
RUNNER_THREADS=1 cargo test -q

echo "==> cargo test (RUNNER_THREADS=8)"
RUNNER_THREADS=8 cargo test -q

# The end-to-end benchmark (perfbench/, run by BENCHMARK.json) builds
# against this tree, so deleting public API can break it. Compile it and
# run its catalogue check and lib tests; the debug build skips the
# end-to-end runs. --locked fails instead of rewriting
# perfbench/Cargo.lock, and the build writes only to perfbench/target.
echo "==> perfbench builds against the tree (catalogue + lib tests)"
cargo test -q --locked --manifest-path perfbench/Cargo.toml

# Docs: every intra-doc link must resolve and none may point at a
# private item, so deleting or hiding an item cannot leave a dangling
# link behind.
echo "==> cargo doc (broken and private intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc -q --workspace --no-deps

# The JSON report is kept as a build artifact so CI annotations and
# local tooling can consume machine-readable findings; `set -o
# pipefail` above preserves detlint's exit code (0 clean / 1 findings /
# 2 usage or scan error) through the tee.
echo "==> detlint"
cargo run -q -p detlint
echo "==> detlint (JSON report -> target/detlint.json)"
mkdir -p target
cargo run -q -p detlint -- --quiet --format json | tee target/detlint.json >/dev/null

# Campaign-server smoke: boot 2 re-exec'd socket workers and the HTTP
# campaign server, submit Table II through the client, and diff the
# served stream against the in-example serial reference — the example
# exits non-zero if the bytes diverge (tests/campaignd_determinism.rs
# is the full tier-1 matrix; this proves the socket + HTTP path works
# in the checked-out tree).
echo "==> campaign-server smoke (campaign_server, 2 workers)"
cargo run -q -p campaignd --example campaign_server --release -- --workers 2 >/dev/null

# Fault-campaign smoke: the fault class × intensity sweep with the V2X
# watchdog enabled (DESIGN.md §11). The example runs the grid serially
# and on the thread runner and exits non-zero if the two tables are not
# byte-identical, so this doubles as a determinism check on the
# fault-injection plane.
echo "==> fault-campaign smoke (fault_sweep, 2 runs/cell)"
cargo run -q -p its-testbed --example fault_sweep --release -- --runs 2 >/dev/null

# Cooperative fault-cascade smoke (DESIGN.md §15): the blind-corner CPM
# ablation must hold in the checked-out tree — the example exits
# non-zero unless the CPM-on run clears the occluded obstacle the
# CPM-off run collides with — the intersection example must stop clear
# of the crossing through the shared detection-to-action chain (and
# collide without infrastructure), and the platoon example must run its
# degradation cascade under full leader radio silence.
echo "==> cooperative fault-cascade smoke (blind_corner + intersection + platoon_braking)"
cargo run -q -p its-testbed --example blind_corner --release >/dev/null
cargo run -q -p its-testbed --example intersection --release >/dev/null
cargo run -q -p its-testbed --example platoon_braking --release -- --faults leader_silence:1.0 >/dev/null

# Bench smoke: run the campaign-throughput bench in quick mode (32 runs
# per table) so the harness, its serial-vs-parallel bit-equality
# assertion, and the JSON generation and validation all execute (quick
# mode writes no file); then validate the tracked baseline via the bench
# crate's baseline test.
echo "==> bench smoke (BENCH_QUICK=1 campaign_throughput)"
BENCH_QUICK=1 cargo bench -q --bench campaign_throughput
cargo test -q -p bench tracked_bench_campaign_baseline_is_valid

# City-scale smoke: run the node-count bench in quick mode (small
# fleets, 1 s horizon) so the harness, its culled-vs-exhaustive
# bit-equality assertion and the JSON generation and schema validation
# all execute (quick mode writes no file); then validate the tracked
# baseline (exact N=100/500/2000 rows, flat per-event cost, culling
# speedup bar) via the bench crate's baseline test.
echo "==> city bench smoke (BENCH_QUICK=1 city_scale)"
BENCH_QUICK=1 cargo bench -q --bench city_scale
cargo test -q -p bench tracked_bench_city_baseline_is_valid

echo "check.sh: all gates passed"
