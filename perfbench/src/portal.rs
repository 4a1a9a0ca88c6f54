//! `portal`: many tenants, each logging in over the wire and submitting
//! one small experiment (1 site × 8 steps), with sampled observers and
//! cross-tenant probes, against a portal with an archive site attached.
//! Runs are tiny, so per-run setup and teardown, the login path, the
//! tenant table, admission and QueueFull backpressure dominate — the
//! opposite mix to `campaign`, which uses the same scheduler for a few
//! larger runs. A closed loop: one client, each call waits for its reply.

use std::sync::Arc;
use std::time::Instant;

use neesgrid_archive::{ArchiveSite, StripeConfig};
use neesgrid_checkpoint::MemoryCheckpointStore;
use neesgrid_gridsim::{NetworkProfile, SimTime, VirtualNetwork};
use neesgrid_gsi::{CertificateAuthority, Credential, CredentialToken, DistinguishedName};
use neesgrid_portal::{
    ExperimentSpec, Portal, PortalClient, PortalConfig, Rejection, Request, Response,
};
use neesgrid_repo::VirtualStore;
use neesgrid_telemetry::Telemetry;

use crate::harness::{self, metric, Tally};
use crate::trace;
use crate::Outcome;

/// Tenants per portal instance; each batch stands a fresh portal up.
const TENANTS: usize = 1000;
const STEPS: usize = 8;
const OBSERVE_EVERY: usize = 250;
const PROBE_EVERY: usize = 97;

/// A batch's inputs, generated before timing starts.
struct Inputs {
    seed: u64,
    ca: CertificateAuthority,
    tenants: Vec<(DistinguishedName, CredentialToken, ExperimentSpec)>,
}

fn inputs(seed: u64) -> Inputs {
    let ca = CertificateAuthority::nees(seed);
    let tenants = (0..TENANTS as u64)
        .map(|i| {
            let cred = Credential::issue(
                &ca,
                DistinguishedName::nees_user("REMOTE", &format!("tenant-{i:05}")),
                SimTime::ZERO,
                SimTime::from_secs(24 * 3600),
                seed.wrapping_add(i),
            );
            let spec = ExperimentSpec::basic(1, STEPS, seed.wrapping_add(i), 0);
            (cred.identity().clone(), cred.token(), spec)
        })
        .collect();
    Inputs { seed, ca, tenants }
}

/// A freshly served portal with its archive site and one client.
struct Deployment {
    _net: VirtualNetwork,
    portal: Portal,
    client: PortalClient,
}

fn deploy(inputs: &Inputs) -> Deployment {
    let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(inputs.seed));
    let portal = Portal::serve(
        &net,
        "portal",
        inputs.ca.verifier(),
        Arc::new(MemoryCheckpointStore::new()),
        PortalConfig {
            workers: 8,
            slice_steps: 16,
            queue_capacity: 64,
            ..PortalConfig::default()
        },
    )
    .expect("portal node is fresh");
    let archive = ArchiveSite::attach(
        &net,
        "repository",
        VirtualStore::new(),
        StripeConfig::default(),
        &Telemetry::disabled(),
    )
    .expect("archive node is fresh");
    portal.attach_archive(archive);
    let client = PortalClient::connect(&net, "client", "portal").expect("client node is fresh");
    Deployment {
        _net: net,
        portal,
        client,
    }
}

/// What one batch saw.
#[derive(Default)]
struct Batch {
    wall_s: f64,
    completed: u64,
    call_us: Vec<f64>,
    queue_full_retries: u64,
    shed: u64,
    leaks: u64,
    unexpected: u64,
    observed_samples: u64,
}

impl Batch {
    /// One wire call, timed alone. `None` when the link failed.
    fn call(
        &mut self,
        d: &Deployment,
        name: &'static str,
        who: &DistinguishedName,
        request: Request,
    ) -> Option<Response> {
        trace::span(name, || {
            let t = Instant::now();
            let reply = d.client.call_as(who, request);
            self.call_us.push(t.elapsed().as_secs_f64() * 1e6);
            reply.ok()
        })
    }
}

fn run_batch(inputs: &Inputs) -> Batch {
    let start = Instant::now();
    let mut b = Batch::default();
    let d = trace::span("portal.deploy", || deploy(inputs));
    let tick = |d: &Deployment| trace::span("portal.tick", || d.portal.tick());
    let mut previous: Option<String> = None;
    for (i, (who, token, spec)) in inputs.tenants.iter().enumerate() {
        let login = Request::Login {
            token: token.clone(),
        };
        if !matches!(
            b.call(&d, "portal.login", who, login),
            Some(Response::Session { .. })
        ) {
            b.unexpected += 1;
            continue;
        }
        let run = loop {
            let submit = Request::Submit { spec: spec.clone() };
            match b.call(&d, "portal.submit", who, submit) {
                Some(Response::Submitted { run, .. }) => break Some(run),
                Some(Response::Rejected {
                    rejection: Rejection::QueueFull { .. },
                }) => {
                    // Explicit shed: free a slot, then retry.
                    b.queue_full_retries += 1;
                    tick(&d);
                }
                _ => break None,
            }
        };
        let Some(run) = run else {
            b.unexpected += 1;
            continue;
        };

        if i % OBSERVE_EVERY == 0 {
            let observe = Request::Observe {
                run: run.clone(),
                channels: "*".into(),
                buffer: 256,
            };
            match b.call(&d, "portal.observe", who, observe) {
                Some(Response::Observing { observer }) => {
                    trace::span("portal.drain", || d.portal.drain());
                    loop {
                        let poll = Request::Poll { observer, max: 256 };
                        match b.call(&d, "portal.poll", who, poll) {
                            Some(Response::Samples { samples, done, .. }) => {
                                b.observed_samples += samples.len() as u64;
                                if done {
                                    break;
                                }
                            }
                            _ => {
                                b.unexpected += 1;
                                break;
                            }
                        }
                    }
                    b.call(&d, "portal.unobserve", who, Request::Unobserve { observer });
                }
                _ => b.unexpected += 1,
            }
        }

        // Probes of the previous tenant's run must all be refused as
        // cross-tenant; anything else is an isolation leak.
        if i % PROBE_EVERY == 0 {
            if let Some(victim) = &previous {
                for probe in [
                    Request::Cancel {
                        run: victim.clone(),
                    },
                    Request::Observe {
                        run: victim.clone(),
                        channels: "*".into(),
                        buffer: 16,
                    },
                ] {
                    if !matches!(
                        b.call(&d, "portal.probe", who, probe),
                        Some(Response::Rejected {
                            rejection: Rejection::CrossTenant { .. },
                        })
                    ) {
                        b.leaks += 1;
                    }
                }
            }
        }
        previous = Some(run);
        // Keep the pool fed without waiting for queue pressure.
        if i % 16 == 0 {
            tick(&d);
        }
    }
    trace::span("portal.drain", || d.portal.drain());
    let stats = d.portal.stats();
    b.completed = stats.completed;
    b.shed = stats.shed;
    if stats.completed != stats.admitted || stats.completed != TENANTS as u64 {
        b.unexpected += 1;
    }
    trace::span("portal.teardown", || drop(d));
    b.wall_s = start.elapsed().as_secs_f64();
    b
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let make = || {
        let inputs = inputs(seed);
        drop(std::hint::black_box(deploy(&inputs)));
        inputs
    };
    let mut setup = harness::Setup::default();
    let inputs = setup.burst(&make);
    if traced {
        trace::enable();
    }
    let from = trace::mark();
    let mut tally = Tally::default();
    let mut correct = true;
    let (mut rates, mut call_us, mut retries, mut shed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0;
    let mut wall_total = 0.0;
    harness::for_seconds(seconds, 2, |_| {
        if !traced {
            drop(setup.burst(&make));
        }
        let (b, pace) = harness::paced(|| run_batch(&inputs));
        correct &= b.leaks == 0 && b.unexpected == 0;
        // Each leak or unexpected reply fails one tenant's experiment.
        tally.record(
            TENANTS as u64,
            b.completed.saturating_sub(b.leaks + b.unexpected),
        );
        rates.push(b.completed as f64 / (b.wall_s * pace));
        call_us.extend(b.call_us);
        retries.push(b.queue_full_retries as f64);
        shed.push(b.shed as f64);
        samples += b.observed_samples;
        wall_total += b.wall_s;
    });
    correct &= samples > 0;
    assert!(
        harness::highest_supported_percentile(call_us.len()) >= Some(99.0),
        "too few calls for a p99"
    );
    let p50 = harness::percentile(&call_us, 50.0);
    let p99 = harness::percentile(&call_us, 99.0);
    if !traced {
        return Outcome {
            correct,
            tally,
            metrics: vec![
                metric("setup_s", setup.seconds(), "s"),
                metric(
                    "site_steps_per_s",
                    STEPS as f64 * harness::median(&rates),
                    "1/s",
                ),
                metric("runs_per_s", harness::median(&rates), "1/s"),
            ],
            extra: [
                metric("portal.call_p50_us", p50, "us"),
                metric("portal.call_p99_us", p99, "us"),
                metric("portal.call_samples", call_us.len() as f64, "count"),
            ]
            .into_iter()
            .chain(harness::rate_quantiles(&rates))
            .collect(),
        };
    }
    let totals = trace::totals(&trace::since(from));
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let tick_ns = (get("portal.tick").total_ns + get("portal.drain").total_ns) as f64;
    Outcome {
        correct,
        tally,
        metrics: vec![
            metric("portal.tick_ms", get("portal.tick").mean_us() / 1e3, "ms"),
            metric("portal.tick_share", tick_ns / 1e9 / wall_total, "fraction"),
            metric("portal.login_us", get("portal.login").mean_us(), "us"),
            metric("portal.submit_us", get("portal.submit").mean_us(), "us"),
            metric("portal.poll_us", get("portal.poll").mean_us(), "us"),
            metric(
                "portal.queue_full_retries",
                harness::median(&retries),
                "count",
            ),
            metric("portal.shed", harness::median(&shed), "count"),
            metric("portal.call_p50_us", p50, "us"),
            metric("portal.call_p99_us", p99, "us"),
        ],
        extra: vec![metric("portal.observed_samples", samples as f64, "count")],
    }
}
