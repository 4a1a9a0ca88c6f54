//! Portal load — 10,000 tenants through the multi-tenant experiment
//! service.
//!
//! Every tenant logs in over the wire, submits one small experiment, and
//! a sampled subset also opens a streaming observer on its own run and
//! probes a *neighbour's* run (cancel + observe) — those probes must all
//! come back `CrossTenant`; any success is an isolation leak and fails
//! the bench. Submissions that hit the bounded queue are shed with a
//! typed `QueueFull` and retried after a scheduler tick, so the run also
//! exercises the backpressure path at scale. Reports the best and median
//! experiments/sec (wall clock) over several runs, each on a fresh portal,
//! and the service's p99 submission→first-step latency (virtual time), and
//! writes `BENCH_portal.json` at the repo root with the core count and the
//! repeats.

use std::sync::Arc;

use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record, Stopwatch};
use neesgrid_checkpoint::MemoryCheckpointStore;
use neesgrid_gridsim::{NetworkProfile, SimTime, VirtualNetwork};
use neesgrid_gsi::{CertificateAuthority, Credential, DistinguishedName};
use neesgrid_portal::{
    ExperimentSpec, Portal, PortalClient, PortalConfig, PortalStats, Rejection, Request, Response,
};

const TENANTS: u64 = 10_000;
const STEPS: usize = 8;
const OBSERVE_EVERY: u64 = 250;
const PROBE_EVERY: u64 = 97;
const SEED: u64 = 2004;
/// Timed runs, each on a fresh portal.
const REPEATS: usize = 5;

fn call(client: &PortalClient, who: &DistinguishedName, request: Request) -> Response {
    client.call_as(who, request).expect("portal link is up")
}

/// What one load run saw.
struct Load {
    stats: PortalStats,
    leaks: u64,
    queue_full_retries: u64,
    observed_samples: u64,
}

/// One load run on a fresh portal, built untimed; the tenants and the
/// final drain are timed.
fn load(watch: &mut Stopwatch) -> Load {
    let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(SEED));
    let ca = CertificateAuthority::nees(SEED);
    let service = Portal::serve(
        &net,
        "portal",
        ca.verifier(),
        Arc::new(MemoryCheckpointStore::new()),
        PortalConfig {
            workers: 8,
            slice_steps: 16,
            queue_capacity: 64,
            ..PortalConfig::default()
        },
    )
    .expect("portal node is fresh");
    let client = PortalClient::connect(&net, "client", "portal").expect("client node is fresh");

    let mut leaks = 0u64;
    let mut queue_full_retries = 0u64;
    let mut observed_samples = 0u64;
    let mut previous_run: Option<(String, DistinguishedName)> = None;

    watch.time(|| {
        for i in 0..TENANTS {
            let cred = Credential::issue(
                &ca,
                DistinguishedName::nees_user("REMOTE", &format!("tenant-{i:05}")),
                SimTime::ZERO,
                SimTime::from_secs(24 * 3600),
                SEED + i,
            );
            let who = cred.identity().clone();
            match call(
                &client,
                &who,
                Request::Login {
                    token: cred.token(),
                },
            ) {
                Response::Session { .. } => {}
                other => panic!("tenant {i} login refused: {other:?}"),
            }

            let spec = ExperimentSpec::basic(1, STEPS, SEED + i, 0);
            let run = loop {
                match call(&client, &who, Request::Submit { spec: spec.clone() }) {
                    Response::Submitted { run, .. } => break run,
                    Response::Rejected {
                        rejection: Rejection::QueueFull { .. },
                    } => {
                        // Explicit shed: free a slot, then retry.
                        queue_full_retries += 1;
                        service.tick();
                    }
                    other => panic!("tenant {i} submission refused: {other:?}"),
                }
            };

            // A sampled subset streams its own run.
            if i % OBSERVE_EVERY == 0 {
                let observer = match call(
                    &client,
                    &who,
                    Request::Observe {
                        run: run.clone(),
                        channels: "*".into(),
                        buffer: 256,
                    },
                ) {
                    Response::Observing { observer } => observer,
                    other => panic!("tenant {i} observe refused: {other:?}"),
                };
                service.drain();
                loop {
                    match call(&client, &who, Request::Poll { observer, max: 256 }) {
                        Response::Samples { samples, done, .. } => {
                            observed_samples += samples.len() as u64;
                            if done {
                                break;
                            }
                        }
                        other => panic!("tenant {i} poll refused: {other:?}"),
                    }
                }
                call(&client, &who, Request::Unobserve { observer });
            }

            // A sampled subset probes its neighbour's run. Every probe must
            // be denied; a success is a cross-tenant leak.
            if i % PROBE_EVERY == 0 {
                if let Some((victim_run, _)) = &previous_run {
                    for probe in [
                        Request::Cancel {
                            run: victim_run.clone(),
                        },
                        Request::Observe {
                            run: victim_run.clone(),
                            channels: "*".into(),
                            buffer: 16,
                        },
                    ] {
                        match call(&client, &who, probe) {
                            Response::Rejected {
                                rejection: Rejection::CrossTenant { .. },
                            } => {}
                            _ => leaks += 1,
                        }
                    }
                }
            }
            previous_run = Some((run, who));

            // Keep the pool fed without waiting for queue pressure.
            if i % 16 == 0 {
                service.tick();
            }
        }
        service.drain();
    });

    let stats = service.stats();
    assert_eq!(leaks, 0, "cross-tenant probes succeeded");
    assert_eq!(stats.completed, TENANTS, "not every experiment finished");
    assert!(stats.peak_sessions as u64 >= TENANTS);
    assert!(observed_samples > 0, "observers never saw a sample");
    Load {
        stats,
        leaks,
        queue_full_retries,
        observed_samples,
    }
}

fn main() {
    let mut last = None;
    let timings = time_cases(REPEATS, 1, |_, watch| last = Some(load(watch)));
    let Load {
        stats,
        leaks,
        queue_full_retries,
        observed_samples,
    } = last.expect("the load ran");
    let (best_ms, median_ms) = (timings[0].0 * 1e3, timings[0].1 * 1e3);
    let per_sec = |ms: f64| TENANTS as f64 / (ms / 1e3);
    eprintln!(
        "portal_load: {TENANTS} tenants, {REPEATS} runs: best {best_ms:.0} ms ({:.1} experiments/s), \
         median {median_ms:.0} ms ({:.1})",
        per_sec(best_ms),
        per_sec(median_ms),
    );
    eprintln!(
        "portal_load: p99 submit→first-step {:.3} ms virtual, {} QueueFull retries, {} samples streamed, {leaks} leaks",
        stats.p99_first_step_ns as f64 / 1e6,
        queue_full_retries,
        observed_samples,
    );

    let mut doc = serde_json::json!({
        "bench": "portal_load",
        "nproc": cores(),
        "repeats": REPEATS,
        "tenants": TENANTS,
        "steps_per_experiment": STEPS,
        "workers": 8,
        "p99_first_step_virtual_ns": stats.p99_first_step_ns,
        "queue_full_retries": queue_full_retries,
        "observed_samples": observed_samples,
        "cross_tenant_leaks": leaks,
        "stats": {
            "admitted": stats.admitted,
            "shed": stats.shed,
            "completed": stats.completed,
            "worker_crashes": stats.worker_crashes,
            "peak_sessions": stats.peak_sessions,
        },
    });
    put_best_and_median(&mut doc, "wall_clock_ms", (best_ms, median_ms));
    put_best_and_median(
        &mut doc,
        "experiments_per_sec",
        (per_sec(best_ms), per_sec(median_ms)),
    );
    write_record("portal_load", "portal", &doc);
}
