#!/bin/sh
# Full verification: release build, the complete test suite, and the
# panic-freedom lint gate (clippy::unwrap_used / expect_used / panic are
# denied workspace-wide; see [workspace.lints.clippy] in Cargo.toml).
#
# With --soak, additionally runs the 60-second daemon soak test: four
# clients hammer a picola-server under rotating chaos (worker panics,
# dropped sockets, shed queues, poisoned cache shards) and the run fails
# on any hang, lost job, or cache-conservation violation. Override the
# duration with PICOLA_SOAK_SECS (e.g. PICOLA_SOAK_SECS=10 for a quick
# local pass).
set -eu

cd "$(dirname "$0")/.."

SOAK=0
for arg in "$@"; do
    case "$arg" in
        --soak) SOAK=1 ;;
        *) echo "verify.sh: unknown argument '$arg' (supported: --soak)" >&2
           exit 2 ;;
    esac
done

echo "== one build configuration (no cargo features, no cfg(feature) gates)"
# Every runtime switch (a disabled Recorder, EvalOptions { cache: false },
# PICOLA_SIMD / the KernelBackend override) replaces a compile-time one;
# a feature gate coming back would split the build into configurations
# that CI no longer tests.
if grep -rnE 'cfg!?\(.*feature' crates src tests examples; then
    echo "verify.sh: cfg(feature) gate found (see above)" >&2
    exit 1
fi
if grep -ln '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
    echo "verify.sh: [features] table found in the manifest(s) above" >&2
    exit 1
fi

echo "== cargo build --release"
cargo build --release --offline

echo "== cargo test (workspace)"
cargo test -q --offline --workspace

echo "== cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== differential suite"
cargo test -q --offline --test differential_encoders --test chaos_parallel \
    --test determinism

echo "== SAT oracle property suite"
# The vendored proptest derives its input stream from each test's name
# and never reads *.proptest-regressions files; shrunk failures worth
# pinning are converted to deterministic tests instead (see
# tests/paper_properties.rs::historical_shrunk_instances_stay_fixed) —
# do not check regression files in.
cargo test -q --offline -p picola-logic --test prop_sat

echo "== golden table fixtures"
sh scripts/regen_tables.sh --check

echo "== bench_json --smoke (obs metrics + work and gap regression vs BENCH_pr8.json)"
cargo run -q --offline --release -p picola-bench --bin bench_json -- \
    --smoke --out /tmp/bench_smoke.json
if command -v python3 >/dev/null 2>&1; then
    # BENCH_pr8.json is the newest standard-tier report and the smoke
    # instances are its prefix: every overlapping (instance, encoder) work
    # counter must stay within +20% of it (they are identical today), and
    # no per-instance optimality gap may grow. The same call gates the
    # report's own invariants: metrics blocks, proven and cross-checked
    # sat_ab optima, wide/scalar kernel bit-identity, and the stream
    # block's zero mismatches, warm hit rate and peak-live bound. The
    # older BENCH_pr*.json files are ungated history.
    python3 scripts/check_bench_metrics.py /tmp/bench_smoke.json \
        --baseline BENCH_pr8.json
else
    # Fallback without python: the metrics block must at least be present
    # and non-trivially populated in every instance.
    grep -q '"metrics"' /tmp/bench_smoke.json
    grep -q '"total_work"' /tmp/bench_smoke.json
fi
rm -f /tmp/bench_smoke.json /tmp/bench_smoke.records.bin

if [ "$SOAK" = 1 ]; then
    echo "== server soak (${PICOLA_SOAK_SECS:-60}s under rotating chaos)"
    cargo test -q --offline --release --test server_soak -- --ignored
fi

echo "verify: OK"
