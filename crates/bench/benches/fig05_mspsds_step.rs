//! E4 (Figures 4 & 5) — MS-PSDS per-step cost vs decomposition width.
//!
//! The modular framework's scaling dimension: how the pseudo-dynamic
//! step cost grows with the number of substructures, first purely local
//! (the numerics alone), then with each substructure behind its own NTCP
//! site, stepped by the simulation coordinator every deployment runs
//! (the protocol's contribution).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use neesgrid_bench::{loopback_net, single_site};
use neesgrid_coordinator::SimCoordBuilder;
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

fn bench_local(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig05/local_psd_run50");
    for n in [1usize, 2, 4, 8] {
        let motion = GroundMotion::synthetic(9, 0.01, STEPS, 2.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let test = PsdTest::new(vec![1000.0; n], Matrix::zeros(n, n), 0.01);
            b.iter(|| {
                std::hint::black_box(test.run(local_substructures(n), &motion, STEPS).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig05/ntcp_coordinator_run50");
    group.sample_size(10);
    for n in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_with_setup(
                || {
                    // Fresh sites per iteration: substructure state and
                    // transaction ledgers must not leak across runs.
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
                },
                |(net, mut coordinator)| {
                    let motion = GroundMotion::synthetic(9, 0.01, STEPS, 2.0);
                    let out = coordinator.run(&motion, STEPS);
                    drop(net);
                    std::hint::black_box(out)
                },
            )
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_local, bench_distributed
}
criterion_main!(benches);
