//! E16 — the multi-tenant portal service, end to end over the wire.
//!
//! Two tenants share one facility the way MOST's remote participants
//! shared NEESgrid: every operation travels as a length-prefixed JSON
//! frame, admission is quota-checked, and GSI identity is the isolation
//! boundary. The headline property is crash recovery: a worker killed
//! mid-run is rescheduled from the checkpoint store and finishes with a
//! trajectory bit-identical to a run that never crashed.

use std::sync::Arc;

use neesgrid::checkpoint::MemoryCheckpointStore;
use neesgrid::gridsim::{LinkKey, NetworkProfile, SimTime, VirtualNetwork};
use neesgrid::gsi::{CertificateAuthority, Credential, DistinguishedName};
use neesgrid::portal::{
    ExperimentSpec, Portal, PortalClient, PortalConfig, Rejection, Request, Response, RunPolicy,
    RunState, TenantQuotas, MAX_TRACED_SITE_STEPS,
};
use neesgrid::telemetry::Telemetry;

fn deployment(
    config: PortalConfig,
) -> (VirtualNetwork, CertificateAuthority, Portal, PortalClient) {
    let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(61));
    let ca = CertificateAuthority::nees(61);
    let service = Portal::serve(
        &net,
        "portal",
        ca.verifier(),
        Arc::new(MemoryCheckpointStore::new()),
        config,
    )
    .expect("portal node is fresh");
    let client = PortalClient::connect(&net, "client", "portal").expect("client node is fresh");
    (net, ca, service, client)
}

fn tenant(ca: &CertificateAuthority, name: &str, seed: u64) -> Credential {
    Credential::issue(
        ca,
        DistinguishedName::nees_user("REMOTE", name),
        SimTime::ZERO,
        SimTime::from_secs(6 * 3600),
        seed,
    )
}

fn login(client: &PortalClient, cred: &Credential) {
    let reply = client
        .call_as(
            cred.identity(),
            Request::Login {
                token: cred.token(),
            },
        )
        .expect("login frame round-trips");
    assert!(
        matches!(reply, Response::Session { .. }),
        "login refused: {reply:?}"
    );
}

fn submit(client: &PortalClient, who: &DistinguishedName, spec: ExperimentSpec) -> String {
    match client.call_as(who, Request::Submit { spec }).unwrap() {
        Response::Submitted { run, .. } => run,
        other => panic!("submission refused: {other:?}"),
    }
}

fn rejection(reply: Response) -> Rejection {
    match reply {
        Response::Rejected { rejection } => rejection,
        other => panic!("expected a typed rejection, got {other:?}"),
    }
}

fn fetch(client: &PortalClient, who: &DistinguishedName, run: &str) -> (Vec<Vec<f64>>, u32) {
    match client
        .call_as(who, Request::Fetch { run: run.into() })
        .unwrap()
    {
        Response::History { history, digest } => (history.displacement, digest),
        other => panic!("fetch refused: {other:?}"),
    }
}

fn spec(steps: usize, seed: u64) -> ExperimentSpec {
    ExperimentSpec::basic(2, steps, seed, 5)
}

#[test]
fn worker_crash_mid_run_reschedules_and_finishes_bit_identically() {
    // Reference: the same spec on an undisturbed portal.
    let (_n1, ca1, service, client) = deployment(PortalConfig::default());
    let alice_ref = tenant(&ca1, "alice", 1);
    login(&client, &alice_ref);
    let run_ref = submit(&client, alice_ref.identity(), spec(40, 7));
    service.drain();
    let (ref_disp, ref_digest) = fetch(&client, alice_ref.identity(), &run_ref);

    // Crashy portal: two tenants in flight, one worker murdered mid-run.
    let (_n2, ca2, service, client) = deployment(PortalConfig::default());
    let alice = tenant(&ca2, "alice", 1);
    let bob = tenant(&ca2, "bob", 2);
    login(&client, &alice);
    login(&client, &bob);
    let run_a = submit(&client, alice.identity(), spec(40, 7));
    let run_b = submit(&client, bob.identity(), spec(30, 11));

    // One tick schedules both runs and advances each a partial slice.
    service.tick();
    let worker = match client
        .call_as(alice.identity(), Request::Status { run: run_a.clone() })
        .unwrap()
    {
        Response::Status { report } => {
            assert!(report.steps_completed > 0 && report.steps_completed < 40);
            match report.state {
                RunState::Running { worker } => worker,
                other => panic!("expected Running mid-experiment, got {other:?}"),
            }
        }
        other => panic!("status refused: {other:?}"),
    };

    // Kill the worker under Alice's run. The run must report Rescheduling,
    // then drain to completion from the checkpoint store.
    assert_eq!(service.kill_worker(worker).as_deref(), Some(run_a.as_str()));
    match client
        .call_as(alice.identity(), Request::Status { run: run_a.clone() })
        .unwrap()
    {
        Response::Status { report } => assert_eq!(report.state, RunState::Rescheduling),
        other => panic!("status refused: {other:?}"),
    }
    service.drain();

    let (crash_disp, crash_digest) = fetch(&client, alice.identity(), &run_a);
    assert_eq!(crash_digest, ref_digest, "post-crash trajectory diverged");
    assert_eq!(crash_disp, ref_disp);
    // Bob's run was never disturbed.
    let (_, bob_digest) = fetch(&client, bob.identity(), &run_b);
    assert_ne!(bob_digest, ref_digest);

    let stats = service.stats();
    assert_eq!(stats.worker_crashes, 1);
    assert_eq!(stats.rescheduled, 1);
    assert_eq!(stats.completed, 2);
    assert!(stats.p99_first_step_ns > 0);
}

#[test]
fn cross_tenant_access_is_denied_by_policy() {
    let (_net, ca, service, client) = deployment(PortalConfig::default());
    let alice = tenant(&ca, "alice", 1);
    let mallory = tenant(&ca, "mallory", 9);
    login(&client, &alice);
    login(&client, &mallory);
    let run = submit(&client, alice.identity(), spec(20, 3));
    service.drain();

    for request in [
        Request::Cancel { run: run.clone() },
        Request::Fetch { run: run.clone() },
        Request::Status { run: run.clone() },
        Request::Observe {
            run: run.clone(),
            channels: "*".into(),
            buffer: 64,
        },
    ] {
        let rej = rejection(client.call_as(mallory.identity(), request).unwrap());
        assert!(
            matches!(rej, Rejection::CrossTenant { .. }),
            "expected CrossTenant, got {rej:?}"
        );
    }
    // The owner still sees everything.
    let (_, digest) = fetch(&client, alice.identity(), &run);
    assert_ne!(digest, 0);
}

#[test]
fn over_quota_and_overflow_submissions_shed_with_typed_rejections() {
    let (_net, ca, service, client) = deployment(PortalConfig {
        queue_capacity: 2,
        workers: 1,
        ..PortalConfig::default()
    });
    let alice = tenant(&ca, "alice", 1);
    login(&client, &alice);
    service.set_quotas(
        alice.identity().clone(),
        TenantQuotas {
            max_concurrent: 1,
            max_total_steps: 100,
            max_observers: 1,
        },
    );

    // Concurrency quota: a second in-flight submission is refused.
    submit(&client, alice.identity(), spec(20, 3));
    let rej = rejection(
        client
            .call_as(alice.identity(), Request::Submit { spec: spec(20, 4) })
            .unwrap(),
    );
    assert_eq!(rej, Rejection::QuotaConcurrent { limit: 1 });

    // Step budget: 20 of 100 consumed, 90 more will not fit.
    service.drain();
    let rej = rejection(
        client
            .call_as(alice.identity(), Request::Submit { spec: spec(90, 5) })
            .unwrap(),
    );
    assert_eq!(
        rej,
        Rejection::QuotaSteps {
            limit: 100,
            requested: 90,
            used: 20,
        }
    );

    // Queue overflow: distinct tenants fill the bounded queue between
    // ticks; the third is shed, not silently dropped.
    for (i, name) in ["carol", "dave"].iter().enumerate() {
        let cred = tenant(&ca, name, 20 + i as u64);
        login(&client, &cred);
        submit(&client, cred.identity(), spec(10, 30 + i as u64));
    }
    let eve = tenant(&ca, "eve", 40);
    login(&client, &eve);
    let rej = rejection(
        client
            .call_as(eve.identity(), Request::Submit { spec: spec(10, 40) })
            .unwrap(),
    );
    assert_eq!(rej, Rejection::QueueFull { capacity: 2 });
    assert!(service.stats().shed >= 3);
}

#[test]
fn traced_submissions_past_the_site_step_limit_are_refused() {
    let (_net, ca, service, client) = deployment(PortalConfig::default());
    let alice = tenant(&ca, "alice", 1);
    login(&client, &alice);
    // Inside the default step quota, but ~32M trace events.
    let huge = ExperimentSpec {
        record_trace: true,
        ..ExperimentSpec::basic(32, 100_000, 9, 0)
    };
    let rej = rejection(
        client
            .call_as(alice.identity(), Request::Submit { spec: huge })
            .unwrap(),
    );
    assert_eq!(
        rej,
        Rejection::BadSpec {
            reason: "a traced run may have at most 50000 site-steps, got 32 sites × 100000 steps"
                .into()
        }
    );
    assert_eq!(service.stats().admitted, 0);

    let at_limit = ExperimentSpec {
        record_trace: true,
        ..ExperimentSpec::basic(25, MAX_TRACED_SITE_STEPS / 25, 9, 0)
    };
    assert_eq!(at_limit.validate(), Ok(()));
    let untraced = ExperimentSpec::basic(32, 100_000, 9, 0);
    assert_eq!(
        untraced.validate(),
        Ok(()),
        "the limit covers traced runs only"
    );
}

#[test]
fn observers_only_see_their_own_run_namespace() {
    let (_net, ca, service, client) = deployment(PortalConfig::default());
    let alice = tenant(&ca, "alice", 1);
    let bob = tenant(&ca, "bob", 2);
    login(&client, &alice);
    login(&client, &bob);
    let run_a = submit(&client, alice.identity(), spec(15, 3));
    let run_b = submit(&client, bob.identity(), spec(15, 4));

    // Subscribe before the runs execute so the full stream is captured.
    let observer = match client
        .call_as(
            alice.identity(),
            Request::Observe {
                run: run_a.clone(),
                channels: "*".into(),
                buffer: 4096,
            },
        )
        .unwrap()
    {
        Response::Observing { observer } => observer,
        other => panic!("observe refused: {other:?}"),
    };
    service.drain();

    let mut seen = Vec::new();
    loop {
        match client
            .call_as(
                alice.identity(),
                Request::Poll {
                    observer,
                    max: 1024,
                },
            )
            .unwrap()
        {
            Response::Samples {
                samples,
                dropped,
                done,
            } => {
                assert_eq!(dropped, 0);
                seen.extend(samples);
                if done {
                    break;
                }
            }
            other => panic!("poll refused: {other:?}"),
        }
    }
    assert!(!seen.is_empty());
    let prefix = format!("{run_a}/");
    for sample in &seen {
        assert!(
            sample.channel.starts_with(&prefix),
            "leak: observer on {run_a} saw channel {}",
            sample.channel
        );
        assert!(!sample.channel.contains(&run_b));
    }
    // Per-step dof channels plus the step marker all arrived.
    assert!(seen.iter().any(|s| s.channel.ends_with("/dof-0")));
    assert!(seen.iter().any(|s| s.channel.ends_with("/step")));

    match client
        .call_as(alice.identity(), Request::Unobserve { observer })
        .unwrap()
    {
        Response::Ok => {}
        other => panic!("unobserve refused: {other:?}"),
    }
    assert_eq!(service.stats().observers, 0);
}

/// The `Stats` reply and the trace keep one record: on a recording
/// telemetry, every `PortalStats` counter is its `portal.*` registry
/// counter, through each shed kind, a cancel, an aborted and a completed
/// run, and a worker kill with reschedule.
#[test]
fn stats_reply_and_registry_counters_agree() {
    let (_net, ca, service, client) = deployment(PortalConfig {
        queue_capacity: 2,
        workers: 1,
        ..PortalConfig::default()
    });
    let telemetry = Telemetry::recording();
    service.set_telemetry(telemetry.clone());
    let names = ["alice", "bob", "carol", "dave", "erin", "frank"];
    let [alice, bob, carol, dave, erin, frank] = std::array::from_fn(|i| {
        let cred = tenant(&ca, names[i], i as u64 + 1);
        login(&client, &cred);
        cred
    });
    service.set_quotas(
        alice.identity().clone(),
        TenantQuotas {
            max_concurrent: 1,
            max_total_steps: 100,
            max_observers: 1,
        },
    );
    let shed = |who: &Credential, spec: ExperimentSpec| {
        rejection(
            client
                .call_as(who.identity(), Request::Submit { spec })
                .unwrap(),
        )
    };

    // A completed run, with a `QuotaConcurrent` shed while it is in
    // flight and a `QuotaSteps` shed once it has used its budget.
    submit(&client, alice.identity(), spec(20, 3));
    assert!(matches!(
        shed(&alice, spec(20, 4)),
        Rejection::QuotaConcurrent { .. }
    ));
    service.drain();
    assert!(matches!(
        shed(&alice, spec(90, 5)),
        Rejection::QuotaSteps { .. }
    ));

    // An aborted run: a connection reset in an execute phase under the
    // public run's partial policy.
    let mut aborting = spec(24, 6);
    aborting.policy = RunPolicy::Partial;
    aborting
        .faults
        .reset_at(LinkKey::new("coordinator", "site-000"), 11);
    let aborted = submit(&client, bob.identity(), aborting);
    service.drain();
    match client
        .call_as(bob.identity(), Request::Status { run: aborted })
        .unwrap()
    {
        Response::Status { report } => assert!(
            matches!(report.state, RunState::Failed { .. }),
            "{report:?}"
        ),
        other => panic!("status refused: {other:?}"),
    }

    // A cancel while queued.
    let cancelled = submit(&client, bob.identity(), spec(20, 7));
    let reply = client
        .call_as(bob.identity(), Request::Cancel { run: cancelled })
        .unwrap();
    assert!(matches!(reply, Response::Ok), "{reply:?}");
    service.drain();

    // A worker killed mid-run; its run is rescheduled and completes.
    let crashed = submit(&client, carol.identity(), spec(40, 8));
    service.tick();
    assert_eq!(service.kill_worker(0), Some(crashed));
    service.drain();

    // A `QueueFull` shed: two queued runs fill the queue.
    submit(&client, dave.identity(), spec(10, 9));
    submit(&client, erin.identity(), spec(10, 10));
    assert!(matches!(
        shed(&frank, spec(10, 11)),
        Rejection::QueueFull { .. }
    ));
    service.drain();

    let stats = service.stats();
    assert_eq!(
        (
            stats.admitted,
            stats.shed,
            stats.completed,
            stats.failed,
            stats.cancelled,
            stats.worker_crashes,
            stats.rescheduled
        ),
        (6, 3, 4, 1, 1, 1, 1)
    );
    let portal_counters: Vec<(String, u64)> = telemetry
        .metrics_snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("portal."))
        .collect();
    let expected = [
        ("admitted", stats.admitted),
        ("cancelled", stats.cancelled),
        ("completed", stats.completed),
        ("failed", stats.failed),
        ("rescheduled", stats.rescheduled),
        ("shed", stats.shed),
        ("worker_crashes", stats.worker_crashes),
    ]
    .map(|(name, value)| (format!("portal.{name}"), value));
    assert_eq!(portal_counters, expected);
}
