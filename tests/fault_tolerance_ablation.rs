//! Ablation: how much fault tolerance is enough?
//!
//! DESIGN.md calls out the coordinator's fault-tolerance policy as the
//! design choice §3.4 turned on. This sweep injects increasingly hostile
//! fault schedules into the same distributed experiment and records which
//! policy configurations survive — quantifying the paper's lesson that
//! "having support for fault tolerance in the service isn't enough;
//! domain scientists will generally need some guidance in pushing these
//! features to the outer edges of the system".

use std::sync::Arc;
use std::time::Duration;

use neesgrid::coordinator::{FaultPolicy, SimCoordBuilder};
use neesgrid::gridsim::{FaultPlan, LinkKey, NetworkConfig, NodeId, VirtualNetwork};
use neesgrid::gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid::ntcp::{NtcpClient, NtcpServer, SimulationPlugin};
use neesgrid::ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid::structsim::material::LinearElastic;
use neesgrid::structsim::substructure::SimulatedSubstructure;
use neesgrid::structsim::GroundMotion;

const STEPS: usize = 120;

/// Run a 2-site experiment under `plan` and `policy`; return
/// (steps_completed, recoveries).
fn run_under(plan: FaultPlan, policy: FaultPolicy) -> (usize, u64) {
    let net = VirtualNetwork::new(NetworkConfig::default());
    let caller = DistinguishedName::nees_user("NCSA", "Coordinator");
    let mux = RpcMux::new(net.endpoint("coordinator").unwrap());
    let mut builder = SimCoordBuilder::new(vec![1000.0, 1000.0], net.clock())
        .dt(0.01)
        .fault_policy(policy);
    for (name, dof) in [("alpha", 0usize), ("beta", 1usize)] {
        let server = NtcpServer::new(
            name,
            SitePolicy::permissive(name, ActionLimits::most_large_scale()),
            Box::new(SimulationPlugin::new(
                format!("{name}-sim"),
                Box::new(SimulatedSubstructure::spring_to_ground(
                    "col",
                    Box::new(LinearElastic::new(2.0e5)),
                )),
            )),
            net.clock(),
        );
        let _ = ServiceContainer::new(net.endpoint(name).unwrap())
            .with_service("ntcp", Box::new(server))
            .permissive()
            .attach();
        let client = NtcpClient::new(
            RpcClient::new(Arc::clone(&mux), NodeId::new(name), "ntcp", caller.clone())
                .with_attempt_timeout(Duration::from_millis(60)),
        );
        builder = builder.site(name, client, vec![dof], 2.0e5);
    }
    net.set_fault_plan(plan);
    let mut coordinator = builder.build();
    let motion = GroundMotion::synthetic(5, 0.01, STEPS, 2.0);
    let outcome = coordinator.run(&motion, STEPS);
    let completed = outcome.steps_completed();
    let recoveries = outcome.retransmissions + outcome.log.transient_recoveries();
    (completed, recoveries)
}

/// Periodic drops: every `period`-th message on the coordinator→alpha link.
fn periodic_drops(period: u64) -> FaultPlan {
    let mut plan = FaultPlan::reliable();
    let mut idx = period;
    // Enough scheduled drops to cover the run including retransmissions.
    for _ in 0..(4 * STEPS as u64 / period + 4) {
        plan.drop_at(LinkKey::new("coordinator", "alpha"), idx);
        idx += period;
    }
    plan
}

#[test]
fn both_policies_survive_silent_loss_even_when_heavy() {
    // Silent drops are recovered by retransmission under *either* policy;
    // recovery count scales with the loss rate.
    let mut last_recoveries = 0;
    for period in [64u64, 16, 8] {
        for policy in [
            FaultPolicy::Partial,
            FaultPolicy::Full {
                max_step_retries: 3,
            },
        ] {
            let (completed, recoveries) = run_under(periodic_drops(period), policy);
            assert_eq!(
                completed, STEPS,
                "period {period}, policy {policy:?} failed early"
            );
            if policy == FaultPolicy::Partial {
                last_recoveries = recoveries;
            }
        }
    }
    assert!(
        last_recoveries >= 25,
        "heavy loss should show many recoveries, saw {last_recoveries}"
    );
}

#[test]
fn resets_separate_the_policies() {
    // A single reset: Partial dies at that step, Full completes.
    let mut plan = FaultPlan::reliable();
    plan.reset_at(LinkKey::new("coordinator", "beta"), 2 * 60);
    let (completed_partial, _) = run_under(plan.clone(), FaultPolicy::Partial);
    assert_eq!(completed_partial, 60);
    let (completed_full, recoveries) = run_under(
        plan,
        FaultPolicy::Full {
            max_step_retries: 3,
        },
    );
    assert_eq!(completed_full, STEPS);
    assert!(recoveries >= 1);
}

#[test]
fn repeated_resets_on_one_step_exhaust_bounded_retries() {
    // Even Full gives up when the same step keeps dying: retries are
    // bounded. Resets hit every retransmission of step 50's propose:
    // 3 step attempts × 5 transport attempts each = 15 messages, so 20
    // scheduled resets exhaust them all.
    let mut plan = FaultPlan::reliable();
    for i in 0..20 {
        plan.reset_at(LinkKey::new("coordinator", "alpha"), 2 * 50 + i);
    }
    let (completed, _) = run_under(
        plan,
        FaultPolicy::Full {
            max_step_retries: 2,
        },
    );
    assert_eq!(completed, 50, "bounded retries must eventually abort");
}

#[test]
fn results_are_identical_across_policies_when_both_complete() {
    // Fault handling must not perturb the physics: under recoverable loss
    // both policies produce the same displacement history.
    let run = |policy| {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let caller = DistinguishedName::nees_user("NCSA", "Coordinator");
        let mux = RpcMux::new(net.endpoint("coordinator").unwrap());
        let server = NtcpServer::new(
            "alpha",
            SitePolicy::permissive("alpha", ActionLimits::most_large_scale()),
            Box::new(SimulationPlugin::new(
                "sim",
                Box::new(SimulatedSubstructure::spring_to_ground(
                    "col",
                    Box::new(LinearElastic::new(2.0e5)),
                )),
            )),
            net.clock(),
        );
        let _ = ServiceContainer::new(net.endpoint("alpha").unwrap())
            .with_service("ntcp", Box::new(server))
            .permissive()
            .attach();
        let client = NtcpClient::new(
            RpcClient::new(mux, NodeId::new("alpha"), "ntcp", caller)
                .with_attempt_timeout(Duration::from_millis(60)),
        );
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("coordinator", "alpha"), 30);
        plan.drop_at(LinkKey::new("alpha", "coordinator"), 91);
        net.set_fault_plan(plan);
        let mut coordinator = SimCoordBuilder::new(vec![1000.0], net.clock())
            .dt(0.01)
            .fault_policy(policy)
            .site("alpha", client, vec![0], 2.0e5)
            .build();
        coordinator
            .run(&GroundMotion::synthetic(5, 0.01, 80, 2.0), 80)
            .history
    };
    let partial = run(FaultPolicy::Partial);
    let full = run(FaultPolicy::Full {
        max_step_retries: 3,
    });
    assert_eq!(partial.steps_completed, 80);
    assert!(partial.max_displacement_difference(&full) < 1e-15);
}
