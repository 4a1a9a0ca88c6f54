//! E4 (Figures 4 & 5) — MS-PSDS per-step cost vs decomposition width.
//!
//! The modular framework's scaling dimension: how the pseudo-dynamic
//! step cost grows with the number of substructures, first purely local
//! (the numerics alone), then with each substructure behind its own NTCP
//! site, stepped by the simulation coordinator every deployment runs
//! (the protocol's contribution). `BENCH_fig05.json` at the repo root gets
//! the best and median of each run, with the core count and the repeats.

use std::hint::black_box;

use neesgrid_bench::{
    cores, loopback_net, put_best_and_median, single_site, time_cases, write_record,
};
use neesgrid_coordinator::{SimCoordBuilder, SimulationCoordinator};
use neesgrid_gridsim::VirtualNetwork;
use neesgrid_gsi::ActionLimits;
use neesgrid_ntcp::SimulationPlugin;
use neesgrid_structsim::material::LinearElastic;
use neesgrid_structsim::psd::PsdTest;
use neesgrid_structsim::substructure::{SimulatedSubstructure, Substructure, SubstructureBinding};
use neesgrid_structsim::{GroundMotion, Matrix};

const STEPS: usize = 50;

fn local_substructures(n: usize) -> Vec<(SubstructureBinding, Box<dyn Substructure>)> {
    (0..n)
        .map(|i| {
            (
                SubstructureBinding::new(vec![i]),
                Box::new(SimulatedSubstructure::spring_to_ground(
                    format!("s{i}"),
                    Box::new(LinearElastic::new(2.0e5)),
                )) as Box<dyn Substructure>,
            )
        })
        .collect()
}

/// Substructure counts of the local runs.
const LOCAL: [usize; 4] = [1, 2, 4, 8];
/// Site counts of the distributed runs.
const DISTRIBUTED: [usize; 3] = [1, 2, 4];
/// Local runs timed together in one repeat.
const LOCAL_RUNS: usize = 20;
/// Timed rounds.
const REPEATS: usize = 21;

/// A coordinator over `n` fresh NTCP sites, one spring each.
fn distributed(n: usize) -> (VirtualNetwork, SimulationCoordinator) {
    let net = loopback_net();
    let mut builder = SimCoordBuilder::new(vec![1000.0; n], net.clock()).dt(0.01);
    for i in 0..n {
        let name = format!("site-{i}");
        let client = single_site(
            &net,
            &name,
            Box::new(SimulationPlugin::new(
                format!("sim-{i}"),
                Box::new(SimulatedSubstructure::spring_to_ground(
                    format!("s{i}"),
                    Box::new(LinearElastic::new(2.0e5)),
                )),
            )),
            ActionLimits::most_large_scale(),
        );
        builder = builder.site(name, client, vec![i], 2.0e5);
    }
    (net, builder.build())
}

fn main() {
    let motion = GroundMotion::synthetic(9, 0.01, STEPS, 2.0);
    let tests: Vec<_> = LOCAL
        .iter()
        .map(|&n| PsdTest::new(vec![1000.0; n], Matrix::zeros(n, n), 0.01))
        .collect();
    let timings = time_cases(REPEATS, LOCAL.len() + DISTRIBUTED.len(), |case, watch| {
        if case < LOCAL.len() {
            let n = LOCAL[case];
            watch.time(|| {
                for _ in 0..LOCAL_RUNS {
                    black_box(
                        tests[case]
                            .run(local_substructures(n), &motion, STEPS)
                            .unwrap(),
                    );
                }
            });
        } else {
            // Fresh sites per run: substructure state and transaction
            // ledgers must not leak across runs.
            let (_net, mut coordinator) = distributed(DISTRIBUTED[case - LOCAL.len()]);
            watch.time(|| coordinator.run(&motion, STEPS));
        }
    });

    let mut local = Vec::new();
    for (n, (best, median)) in LOCAL.iter().zip(&timings) {
        let us = (
            best * 1e6 / LOCAL_RUNS as f64,
            median * 1e6 / LOCAL_RUNS as f64,
        );
        eprintln!(
            "fig05: local PSD, {n} substructures: best {:>7.1} µs, median {:>7.1} µs per {STEPS}-step run",
            us.0, us.1
        );
        let mut row = serde_json::json!({ "substructures": n });
        put_best_and_median(&mut row, "run_us", us);
        local.push(row);
    }
    let mut ntcp = Vec::new();
    for (n, (best, median)) in DISTRIBUTED.iter().zip(&timings[LOCAL.len()..]) {
        let ms = (best * 1e3, median * 1e3);
        eprintln!(
            "fig05: NTCP coordinator, {n} sites: best {:>6.3} ms, median {:>6.3} ms per {STEPS}-step run",
            ms.0, ms.1
        );
        let mut row = serde_json::json!({ "sites": n });
        put_best_and_median(&mut row, "run_ms", ms);
        ntcp.push(row);
    }
    let doc = serde_json::json!({
        "bench": "fig05_mspsds_step",
        "runs": "a 50-step PSD run of spring-to-ground substructures: local numerics alone, then \
                 each spring behind its own NTCP site stepped by the simulation coordinator \
                 (sites built untimed)",
        "steps": STEPS,
        "nproc": cores(),
        "repeats": REPEATS,
        "local_runs_per_repeat": LOCAL_RUNS,
        "local_psd": local,
        "ntcp_coordinator": ntcp,
    });
    write_record("fig05_mspsds_step", "fig05", &doc);
}
