#!/usr/bin/env bash
# Canonical verification for the workspace: formatting, lints, the
# self-hosted audit (static rules A01-A09 + structural invariants), the
# cbr-flow dataflow lints (an honest call-graph pass over the real tree
# plus a seeded-fixture pass proving every rule fires), the cbr-race
# lock-discipline analysis (honest pass with a non-vacuous R04
# lock-free-read proof, plus the same seeded-fixture pairing), the
# cbr-bound numeric-safety analysis (honest pass with a non-vacuous
# B04 recursion-freedom proof, plus its own seeded fixtures), the
# cbr-cplx symbolic complexity analysis (honest pass proving the
# paper's differential asymptotic claim — D-Radix recognizably
# O((|Pq|+|Pd|)·log), TA the only quadratic root — plus its seeded
# fixtures), the cbr-sched schedule exploration — including the
# publish/retire and compaction harnesses over the epoch-published
# snapshot — (same honest + seeded-bug pairing), the bench smoke
# passes (both JSON trajectory pipelines end to end at micro scale),
# and tests. Run from the repository root. All sixteen must pass
# before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo run -q -p cbr-audit -- all
# Honest tree: the hot-path dataflow lints (F01-F05) must run clean
# against flow.allow, with the call graph resolving enough internal
# calls for the reachability analysis to mean anything.
cargo run -q -p cbr-flow -- --json
# Non-vacuity: the seeded fixture tree must trip every rule F01-F05.
cargo run -q -p cbr-flow -- --fixtures --expect-findings
# Honest tree: the lock-discipline rules (R01-R05) must run clean
# against race.allow, and the R04 lock-free-read proof must be
# non-vacuous — both snapshot query roots matched, zero reachable lock
# acquisitions. Grepping the report keeps the proof honest even if the
# exit code logic regresses.
race_json="$(cargo run -q -p cbr-race -- --json)"
grep -q '"r04_roots": 2' <<<"$race_json"
grep -q '"r04_lock_acquisitions": 0' <<<"$race_json"
# Non-vacuity: the seeded fixture tree must trip every rule R01-R05.
cargo run -q -p cbr-race -- --fixtures --expect-findings
# Honest tree: the numeric-safety rules (B01-B05) must run clean
# against bound.allow, and the B04 recursion-freedom proof must be
# non-vacuous — all eight hot-path roots matched, zero cyclic
# functions in the reachable call graph.
bound_json="$(cargo run -q -p cbr-bound -- --json)"
grep -q '"b04_roots": 8' <<<"$bound_json"
grep -q '"b04_cyclic_fns": 0' <<<"$bound_json"
# Non-vacuity: the seeded fixture tree must trip every rule B01-B05.
cargo run -q -p cbr-bound -- --fixtures --expect-findings
# Honest tree: the symbolic complexity rules (C01-C05) must run clean
# against cplx.allow, and the C03 differential proof must be
# non-vacuous — the D-Radix build recognized as O((|Pq|+|Pd|)·log),
# exactly one quadratic root (the TA baseline), and a non-empty
# reachable loop set actually analyzed.
cplx_json="$(cargo run -q -p cbr-cplx -- --json)"
grep -q '"c03_dradix_recognized": true' <<<"$cplx_json"
grep -q '"c03_quadratic_roots": 1' <<<"$cplx_json"
grep -q '"reachable_loops": [1-9]' <<<"$cplx_json"
# Non-vacuity: the seeded fixture tree must trip every rule C01-C05.
cargo run -q -p cbr-cplx -- --fixtures --expect-findings
# Honest tree: every concurrency harness must explore clean — the
# publish-retire and compact-race harnesses prove epoch publishes are
# atomic and compaction never invalidates a pinned reader — and the CI
# budget must cover at least a thousand distinct interleavings.
cargo run -q -p cbr-sched -- --budget 1200 --min-schedules 1000 --json
# Non-vacuity: with the seeded bugs compiled in, the checker must find
# them and every printed schedule ID must reproduce its finding.
cargo run -q -p cbr-sched --features seeded-races -- \
    --budget 200 \
    --harness seeded-unlock-race --harness seeded-lock-inversion \
    --expect-findings
# Bench smoke: run the machine-readable trajectory at micro scale and
# validate the emitted JSON in-process. Catches a panicking measurement
# loop or a malformed BENCH_knds.json run object without paying for a
# full benchmark; writes nothing.
cargo run -q --release -p cbr-bench --bin repro -- --json --smoke
# Same end-to-end smoke for the mixed read/write scale bench: a tiny
# collection, short phases, and in-process validation of the
# BENCH_scale.json run object; writes nothing.
cargo run -q --release -p cbr-bench --bin scale -- --smoke
# Every workspace member's tests: a bare `cargo test` from the root runs
# only the root package.
cargo test --workspace -q
# The shipped engine configuration: workspace feature unification turns
# on cbr-knds/cbr-dradix `counters` (cbr-cplx's dev harness needs them),
# so test those two crates once more on their own, counters compiled out.
cargo test -q -p cbr-knds -p cbr-dradix
