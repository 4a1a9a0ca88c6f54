#!/usr/bin/env bash
# Full verification gate: tier-1 (build + tests) plus formatting and lints.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --quick  # lints + debug tests only (skip release build)
#
# Tier-1 (ROADMAP.md) is `cargo build --release && cargo test -q`; this
# script is a superset and is what a PR should pass before merging. The
# full mode also builds the benchmark (perfbench/) against the tree, so a
# library change that breaks it fails here.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $quick -eq 0 ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release

    echo "==> analyzer lint (workspace invariants + baseline ratchet)"
    # Prints the violation-count summary line used for trend tracking; the
    # committed baseline fails the gate on any new violation or new pragma.
    cargo run -q --release -p neesgrid-analyzer -- lint --baseline analyzer-baseline.json

    echo "==> analyzer check-ntcp (exhaustive schedule checker)"
    cargo run -q --release -p neesgrid-analyzer -- check-ntcp

    echo "==> analyzer check-portal (exhaustive scheduler checker)"
    cargo run -q --release -p neesgrid-analyzer -- check-portal

    echo "==> determinism oracles (MOST trace and dumps, campaign corpus, checkpoint resume)"
    scripts/oracles.sh

    echo "==> perfbench build (the benchmark compiles against this tree)"
    # Cargo rewrites perfbench/Cargo.lock when it builds the benchmark; the
    # committed bytes go back whatever the build does, so perfbench/ stays
    # as it is.
    lock=$(mktemp)
    cp perfbench/Cargo.lock "$lock"
    status=0
    cargo build --release --offline --manifest-path perfbench/Cargo.toml || status=$?
    cp "$lock" perfbench/Cargo.lock
    rm -f "$lock"
    if (( status != 0 )); then
        echo "perfbench does not build against this tree" >&2
        exit "$status"
    fi
else
    # The whole --quick analyzer stage (lint + both checkers at reduced
    # budgets) carries a 10-second wall-clock budget so it stays a
    # pre-commit-friendly gate. The binary is built outside the window.
    cargo build -q -p neesgrid-analyzer
    analyzer_started=$(date +%s)

    echo "==> analyzer lint (workspace invariants + baseline ratchet)"
    ./target/debug/neesgrid-analyzer lint --baseline analyzer-baseline.json

    echo "==> analyzer check-ntcp (reduced budgets for --quick)"
    ./target/debug/neesgrid-analyzer check-ntcp --dup-budget 1 --drop-budget 1

    echo "==> analyzer check-portal (reduced budgets for --quick)"
    ./target/debug/neesgrid-analyzer check-portal --submissions 3 --steps 2 \
        --kill-budget 1 --cancel-budget 1

    analyzer_elapsed=$(( $(date +%s) - analyzer_started ))
    if (( analyzer_elapsed > 10 )); then
        echo "analyzer --quick stage took ${analyzer_elapsed}s (budget 10s)" >&2
        exit 1
    fi
    echo "==> analyzer --quick stage done in ${analyzer_elapsed}s (budget 10s)"

    echo "==> N=8 event-engine smoke (determinism + virtual-time retries)"
    cargo test -q --test event_engine

    echo "==> trace-determinism smoke (same-seed byte-identical telemetry)"
    cargo test -q --test telemetry_trace same_seed

    echo "==> portal smoke (wire API, crash recovery, tenant isolation)"
    cargo test -q --test portal_service

    echo "==> archive smoke (striped resume, replica failover, artifact fetch)"
    cargo test -q --test archive_transfer

    # Small grid (2 scenarios × few seeds) through the portal: dedup,
    # corpus digests, and same-seed byte-identity in well under 10s.
    echo "==> campaign smoke (DSL sweep, signature dedup, corpus determinism)"
    cargo test -q --test campaign_engine same_seed_sweep_is_byte_identical
    cargo test -q --test campaign_engine seeded_duplicate_failures_collapse_to_one_signature
fi

echo "==> cargo test -q (tier-1)"
cargo test -q

# The root package's tests ran just above as tier-1; the workspace pass
# runs every other member's.
echo "==> cargo test --workspace --exclude neesgrid -q"
cargo test --workspace --exclude neesgrid -q

echo "==> cargo build --benches (harness compiles)"
cargo build --workspace --benches

echo "All checks passed."
