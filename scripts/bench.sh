#!/usr/bin/env bash
# Benchmark gate: the MOST run benchmarks, the N-site scaling sweep, and
# the multi-tenant portal load run.
#
#   scripts/bench.sh            # sec34 MOST + sec51 scaling + portal_load
#   scripts/bench.sh --all      # every bench target in the harness
#
# sec34 times the full-length dry run, public run and public run without
# participants, in rotating order, and writes each one's median and best
# wall time, the crowd cost (public run minus its unwatched twin, medians)
# and the core count to BENCH_most.json. sec51 writes the median and best
# steps/second of five runs for
# N = 3, 8, 16, 64, with the core count, to BENCH_scaling.json at the repo
# root (and asserts 64-site double-run determinism); portal_load
# drives 10,000 tenants through the portal service and writes
# experiments/sec + p99 submission→first-step latency to BENCH_portal.json
# (asserting zero cross-tenant leaks). archive_ingest replicates striped
# captures while the 64-site run shares the engine and writes ingest
# throughput + dedup counts to BENCH_archive.json (asserting the MOST
# history stays bit-identical). campaign_sweep expands a 240-cell DSL
# scenario matrix through the portal five times and writes median/best
# runs/sec, unique failure signatures, and the corpus dedup ratio to
# BENCH_campaign.json (asserting every same-seed sweep is byte-identical
# to the first). fig12_checkpoint_overhead times the checkpoint_resume
# schedule (the 1,493-step public run, every-100 snapshots) with and
# without checkpoints and writes median/best of each, the snapshot count
# and bytes, and the cost per MB of snapshot to BENCH_checkpoint.json.
# json_reader decodes one 1,024-sample Poll reply of the MOST public run
# four ways (owned Response, the viewers' in-place SamplesView, Value, and
# RawValue, a pure syntax skip) beside a std f64 parse of its value texts,
# rotating the order each round, and writes the best and median ns per
# sample of each, with the core count and repeats, to BENCH_json.json.
# The analyzer stage
# records both exhaustive checkers' schedule counts and wall time to
# BENCH_analyzer.json. The script ends by printing every numeric field that
# differs from the committed BENCH_*.json, as `committed → new (×ratio)`.

set -euo pipefail
cd "$(dirname "$0")/.."

all=0
[[ "${1:-}" == "--all" ]] && all=1

echo "==> sec34_most_run (§3.4 scenarios → BENCH_most.json)"
cargo bench -p neesgrid-bench --bench sec34_most_run

echo "==> sec51_n_site_scaling (N = 3, 8, 16, 64 → BENCH_scaling.json)"
cargo bench -p neesgrid-bench --bench sec51_n_site_scaling

echo "==> portal_load (10k tenants → BENCH_portal.json)"
cargo bench -p neesgrid-bench --bench portal_load

echo "==> archive_ingest (striped ingest under 64-site load → BENCH_archive.json)"
cargo bench -p neesgrid-bench --bench archive_ingest

echo "==> campaign_sweep (240-cell scenario matrix → BENCH_campaign.json)"
cargo bench -p neesgrid-bench --bench campaign_sweep

echo "==> fig12_checkpoint_overhead (checkpoint_resume schedule → BENCH_checkpoint.json)"
cargo bench -p neesgrid-bench --bench fig12_checkpoint_overhead

echo "==> json_reader (Poll reply decode, ns per sample → BENCH_json.json)"
cargo bench -p neesgrid-bench --bench json_reader

echo "==> analyzer checkers (schedule counts → BENCH_analyzer.json)"
cargo run -q --release -p neesgrid-analyzer -- bench --out BENCH_analyzer.json

if [[ $all -eq 1 ]]; then
    echo "==> full bench suite"
    cargo bench -p neesgrid-bench
fi

# What moved: every numeric field that differs from the committed JSON,
# nested rows flattened (rows[3].median_steps_per_sec). Report only.
echo "==> BENCH_*.json against HEAD"
python3 - <<'EOF' || true
import glob, json, subprocess
def flat(v, path=""):
    if isinstance(v, dict):
        for k, x in v.items():
            yield from flat(x, f"{path}.{k}" if path else k)
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield from flat(x, f"{path}[{i}]")
    elif isinstance(v, (int, float)) and not isinstance(v, bool):
        yield path, v
for name in sorted(glob.glob("BENCH_*.json")):
    git = subprocess.run(["git", "show", f"HEAD:{name}"], capture_output=True, text=True)
    old = dict(flat(json.loads(git.stdout))) if git.returncode == 0 else {}
    for key, new in flat(json.load(open(name))):
        if key in old and old[key] != new:
            ratio = f" (×{new / old[key]:.3f})" if old[key] else ""
            print(f"{name} {key}: {old[key]} → {new}{ratio}")
EOF

echo "Benchmarks done."
