#!/usr/bin/env bash
# Determinism oracles: the MOST trace and its flight dumps, the campaign
# verdict table, exported corpus, archive store digest (a CRC over every
# /cas/ path with its stored checksum and length) and the portal's seven
# `Stats` counters, checkpoint resume with the sizes and latest header of
# the snapshots it resumes from, and the field test's report must
# reproduce the values committed in scripts/oracles.expected, byte for
# byte. On a mismatch the diff's `+` lines are the values this tree
# produces.
#
#   scripts/oracles.sh
#
# A deliberate re-baseline edits scripts/oracles.expected in the same
# change and says so in CHANGES.md.

set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export LC_ALL=C

cargo build -q --release --example most_experiment --example checkpoint_resume \
    --example field_test
cargo build -q --release -p neesgrid-campaign

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

sha() { sha256sum | cut -d' ' -f1; }

oracles() {
    # The §3.4 pair at 300 steps with the public run traced; stdout holds
    # both flight-recorder dumps.
    mkdir "$work/most"
    (cd "$work/most" &&
        "$root/target/release/examples/most_experiment" --steps 300 --trace t.jsonl >stdout.txt)
    echo "most.trace.bytes=$(wc -c <"$work/most/t.jsonl")"
    echo "most.trace.sha256=$(sha <"$work/most/t.jsonl")"
    echo "most.stdout.lines=$(wc -l <"$work/most/stdout.txt")"
    echo "most.stdout.sha256=$(sha <"$work/most/stdout.txt")"

    # Every committed scenario through the portal, corpus exported.
    "$root/target/release/neesgrid-campaign" run scenarios/*.scn --out "$work/corpus" \
        >"$work/campaign.out" 2>"$work/campaign.err"
    echo "campaign.stdout.sha256=$(sha <"$work/campaign.out")"
    echo "campaign.summary=$(grep -m1 ' runs: ' "$work/campaign.err")"
    echo "campaign.files=$(find "$work/corpus" -type f | wc -l)"
    echo "campaign.tree.sha256=$(cd "$work/corpus" &&
        find . -type f -print0 | sort -z | xargs -0 sha256sum | sha)"
    echo "campaign.store_digest=$(grep -m1 '^archive store digest ' "$work/campaign.err" |
        awk '{print $NF}')"
    echo "campaign.portal_counters=$(grep -m1 '; portal: ' "$work/campaign.err" |
        sed 's/^.*; portal: //')"

    # Kill at step 1493, resume from the snapshot, compare with a clean run;
    # the snapshots the doomed run left at rest, byte counts and latest header.
    "$root/target/release/examples/checkpoint_resume" >"$work/resume.out"
    resume() { grep -m1 "^  $1 *:" "$work/resume.out" | sed 's/^[^:]*: //'; }
    echo "resume.snapshots=$(resume 'snapshots at rest')"
    echo "resume.bytes_at_rest=$(resume 'bytes at rest')"
    echo "resume.latest_snapshot=$(resume 'latest snapshot')"
    echo "resume.latest_header=$(resume 'latest header')"
    echo "resume.bit_identical=$(grep -m1 'bit-identical' "$work/resume.out" | awk '{print $NF}')"

    # The §5 field test: both excitations, the satellite uplink's bytes and
    # restart-marker resumes, and the laboratory archive's final tally.
    "$root/target/release/examples/field_test" >"$work/field.out"
    echo "field_test.stdout.lines=$(wc -l <"$work/field.out")"
    echo "field_test.stdout.sha256=$(sha <"$work/field.out")"
}

oracles >"$work/actual"
if ! diff -u scripts/oracles.expected "$work/actual"; then
    echo "determinism oracles differ from scripts/oracles.expected" >&2
    exit 1
fi
echo "determinism oracles match scripts/oracles.expected"
