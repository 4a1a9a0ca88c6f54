#!/usr/bin/env bash
# Benchmark gate: runs each bench target of `neesgrid-bench` once. Every
# bench times its cases through one helper
# (`time_cases` in crates/bench/src/lib.rs: a warm-up pass, then rounds
# that rotate which case goes first) and writes one BENCH_*.json record at
# the repo root holding the core count, the repeats, and the best and
# median of every timing. Each bench's doc comment says what it times.
#
#   scripts/bench.sh            # the default set
#   scripts/bench.sh --all      # every bench target
#
# Default set (bench → record):
#   sec34_most_run             → BENCH_most.json        §3.4 runs at full length, crowd cost, scaled runs
#   sec51_n_site_scaling       → BENCH_scaling.json     steps/s at N = 3, 8, 16, 64; 64-site determinism
#   portal_load                → BENCH_portal.json      10,000 tenants through the portal, zero leaks
#   archive_ingest             → BENCH_archive.json     striped ingest under 64-site load, CAS ns/byte
#   campaign_sweep             → BENCH_campaign.json    240-cell matrix and scenarios/*.scn runs/s
#   fig12_checkpoint_overhead  → BENCH_checkpoint.json  checkpoint_resume schedule, scaled cadences
#   json_reader                → BENCH_json.json        Poll reply decode, ns per sample
#   fig08_dataviewer           → BENCH_nsds.json        NSDS fan-out, viewer ingest and hysteresis
#   analyzer_checkers          → BENCH_analyzer.json    check-ntcp and check-portal, whole spaces
# Also with --all:
#   fig01_ntcp_transactions    → BENCH_fig01.json       NTCP lifecycle operations
#   fig02_plugin_backends      → BENCH_fig02.json       five control-plugin backends
#   fig03_repository           → BENCH_fig03.json       stripe sweep, NMDS, ingestion tool
#   fig05_mspsds_step          → BENCH_fig05.json       PSD runs, local and over NTCP
#   fig06_actuator_tracking    → BENCH_fig06.json       servo-hydraulic moves, settle table
#   fig10_daq_pipeline         → BENCH_fig10.json       DAQ sampling, CSV, file drop
#   fig11_mini_most            → BENCH_fig11.json       Mini-MOST runs, stepper moves
#   sec50_realtime_sweep       → BENCH_sec50.json       protocol step, virtual RTT vs latency
#   telemetry_overhead         → BENCH_telemetry_overhead.json  tracing cost against its 5% budget
#
# The script ends by printing every numeric field that differs from the
# committed BENCH_*.json, as `committed → new (×ratio)`, and every one the
# committed records lack (new records included) as `new`.

set -euo pipefail
cd "$(dirname "$0")/.."

all=0
[[ "${1:-}" == "--all" ]] && all=1

benches=(sec34_most_run sec51_n_site_scaling portal_load archive_ingest campaign_sweep
    fig12_checkpoint_overhead json_reader fig08_dataviewer analyzer_checkers)
if [[ $all -eq 1 ]]; then
    benches+=(fig01_ntcp_transactions fig02_plugin_backends fig03_repository fig05_mspsds_step
        fig06_actuator_tracking fig10_daq_pipeline fig11_mini_most sec50_realtime_sweep
        telemetry_overhead)
fi
for bench in "${benches[@]}"; do
    echo "==> $bench"
    cargo bench -p neesgrid-bench --bench "$bench"
done

# What moved: every numeric field that differs from the committed JSON or
# is new to it, nested rows flattened (rows[3].median_steps_per_sec).
# Report only.
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
        if key not in old:
            print(f"{name} {key}: new {new}")
        elif old[key] != new:
            ratio = f" (×{new / old[key]:.3f})" if old[key] else ""
            print(f"{name} {key}: {old[key]} → {new}{ratio}")
EOF

echo "Benchmarks done."
