//! The runs of §3.4, as reproducible scenarios.
//!
//! "The full, 1500-timestep distributed experiment was actually run twice:
//! once as a 'dry run' of the components directly involved in the
//! simulation …, and then as the full experiment, available for viewing by
//! remote participants. The dry run took about 5.5 hours and ran
//! successfully to completion. The public experiment ran for more than 5
//! hours but exited prematurely at step 1493 (out of 1500) … the
//! simulation coordinator had not been coded to take advantage of all the
//! fault-tolerance features, and a final network error caused the
//! simulation to terminate prematurely."
//!
//! The fault schedules below are deterministic (keyed by per-link message
//! index), so the same history replays every time.

use neesgrid_coordinator::{ExperimentOutcome, FaultPolicy};
use neesgrid_gridsim::{FaultPlan, LinkKey, VirtualNetwork};
use neesgrid_gsi::DistinguishedName;
use neesgrid_portal::{Deployment, ExperimentSpec};
use neesgrid_telemetry::Telemetry;

use crate::config::MostConfig;
use crate::runner::{MostDeployment, MostRunArtifacts};

/// The step at which the public run died, out of 1,500.
pub const PUBLIC_RUN_FATAL_STEP: u64 = 1493;

/// A named §3.4 scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The incremental-development rehearsal: every substructure
    /// numerical, no participants, reliable network.
    SimulationOnly,
    /// The dry run: full hybrid configuration, a handful of transient
    /// network failures, full fault tolerance → completes 1500/1500.
    DryRun,
    /// The public run: hybrid configuration, 130+ remote participants,
    /// the same transient failures *plus* a final link reset handled by an
    /// incompletely coded coordinator → terminates at step 1493.
    PublicRun,
}

impl Scenario {
    /// The experiment configuration for this scenario.
    pub fn config(&self) -> MostConfig {
        match self {
            Scenario::SimulationOnly => MostConfig::simulation_only(),
            _ => MostConfig::paper(),
        }
    }

    /// Remote-participant count.
    pub fn participants(&self) -> usize {
        match self {
            Scenario::SimulationOnly => 0,
            Scenario::DryRun => 8, // developers watching the rehearsal
            Scenario::PublicRun => 132,
        }
    }

    /// The coordinator's fault-tolerance configuration.
    pub fn policy(&self) -> FaultPolicy {
        match self {
            // The components of the dry run handled everything thrown at
            // them; model that as the full policy.
            Scenario::SimulationOnly | Scenario::DryRun => FaultPolicy::Full {
                max_step_retries: 3,
            },
            // "had not been coded to take advantage of all the
            // fault-tolerance features".
            Scenario::PublicRun => FaultPolicy::Partial,
        }
    }

    /// The deterministic network-fault schedule for `steps` total steps.
    pub fn fault_plan(&self, steps: usize) -> FaultPlan {
        match self {
            Scenario::SimulationOnly => FaultPlan::reliable(),
            Scenario::DryRun => transient_faults(steps),
            Scenario::PublicRun => public_run_fault_plan(steps),
        }
    }

    /// Build and run the scenario at its full step count.
    pub fn run(&self) -> MostRunArtifacts {
        self.run_with_steps(self.config().steps)
    }

    /// Build and run the scenario scaled to `steps` steps (fault schedule
    /// scales proportionally).
    pub fn run_with_steps(&self, steps: usize) -> MostRunArtifacts {
        let config = self.config().with_steps(steps);
        let deployment = MostDeployment::build(config, self.participants());
        deployment.set_fault_plan(self.fault_plan(steps));
        deployment.run(self.policy())
    }
}

/// The MOST topology generalized to `n` sites — the §5 question ("how far
/// does the two-phase step discipline scale?") made runnable. It is the
/// portal's [`Deployment`] of a basic spec (campus WAN, all-numerical
/// sites, reliable network, nominal motion): each site carries one global
/// DOF as a spring-to-ground column whose stiffness is drawn
/// deterministically from `seed`, and every actor is attached to the event
/// engine. The run is fully virtual: single-threaded, zero real sleeps,
/// and bit-identical across repeats with the same `(n, seed)`.
pub struct NSiteExperiment {
    deployment: Deployment,
    spec: ExperimentSpec,
}

impl NSiteExperiment {
    /// The virtual WAN (for fault plans or stats inspection).
    pub fn network(&self) -> &VirtualNetwork {
        &self.deployment.net
    }

    /// Run `steps` pseudo-dynamic steps under a synthetic ground motion
    /// derived from the experiment seed.
    pub fn run(mut self, steps: usize) -> ExperimentOutcome {
        self.spec.steps = steps;
        let motion = self.spec.ground_motion();
        self.deployment.coordinator.run(&motion, steps)
    }
}

/// Build the `n`-site experiment: site `i` is named `site-NNN` and binds
/// global DOF `i`.
pub fn n_site(n: usize, seed: u64) -> NSiteExperiment {
    n_site_with_telemetry(n, seed, Telemetry::disabled())
}

/// [`n_site`] with an instrumentation handle. An instrumented run is as
/// single-threaded and fully virtual as a plain one: two runs with the
/// same `(n, seed)` produce byte-identical trace exports.
pub fn n_site_with_telemetry(n: usize, seed: u64, telemetry: Telemetry) -> NSiteExperiment {
    assert!(n > 0, "an experiment needs at least one site");
    // `run` sets the step count.
    let spec = ExperimentSpec::basic(n, 0, seed, 0);
    let caller = DistinguishedName::nees_user("NCSA", "Coordinator");
    NSiteExperiment {
        deployment: Deployment::build(&spec, &caller, &telemetry),
        spec,
    }
}

/// "Several transient network failures throughout the day": silent drops
/// spread over the run, on different links, all recoverable by
/// retransmission. Message indexing: each step sends exactly one propose
/// and one execute *request* per coordinator→site link (index `2·step` and
/// `2·step + 1`), and the replies mirror that on the reverse link — until
/// a drop shifts subsequent indices on its link by one retransmission.
/// All drops are placed in index order, accounting for that shift.
fn transient_faults(steps: usize) -> FaultPlan {
    let mut plan = FaultPlan::reliable();
    let at = |frac: f64| -> u64 { ((steps as f64 * frac) as u64).max(1) };
    // Drop a propose request to UIUC ~13% in.
    plan.drop_at(LinkKey::new("coordinator", "uiuc"), 2 * at(0.13));
    // Drop an execute request to UIUC ~55% in (indices on this link have
    // shifted by one due to the retransmission above).
    plan.drop_at(LinkKey::new("coordinator", "uiuc"), 2 * at(0.55) + 2);
    // Drop a propose reply from NCSA ~40% in.
    plan.drop_at(LinkKey::new("ncsa", "coordinator"), 2 * at(0.40));
    // Drop an execute reply from CU ~75% in (at-most-once replay path).
    plan.drop_at(LinkKey::new("cu", "coordinator"), 2 * at(0.75) + 1);
    plan
}

/// The public run's schedule: the dry run's transient failures plus the
/// fatal reset — a connection reset on the coordinator→CU link while
/// carrying the propose of step `1493/1500 · steps`.
pub fn public_run_fault_plan(steps: usize) -> FaultPlan {
    let mut plan = transient_faults(steps);
    let fatal_step = (steps as u64 * PUBLIC_RUN_FATAL_STEP) / 1500;
    // The ~75% reply drop above forces one execute retransmission on the
    // coordinator→cu link, shifting its later message indices by one.
    plan.reset_at(LinkKey::new("coordinator", "cu"), 2 * fatal_step + 1);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_coordinator::Termination;

    #[test]
    fn scenario_parameters_match_the_paper() {
        assert_eq!(Scenario::PublicRun.participants(), 132);
        assert_eq!(Scenario::PublicRun.policy(), FaultPolicy::Partial);
        assert!(matches!(
            Scenario::DryRun.policy(),
            FaultPolicy::Full { .. }
        ));
        assert_eq!(
            Scenario::SimulationOnly.fault_plan(1500),
            FaultPlan::reliable()
        );
        assert_eq!(Scenario::PublicRun.config().steps, 1500);
    }

    #[test]
    fn public_run_plan_has_the_fatal_reset_at_step_1493() {
        let plan = public_run_fault_plan(1500);
        use neesgrid_gridsim::{FaultAction, MessageKind};
        assert_eq!(
            plan.decide(
                &LinkKey::new("coordinator", "cu"),
                2 * 1493 + 1,
                MessageKind::Request
            ),
            FaultAction::Reset
        );
        assert_eq!(plan.point_fault_count(), 5);
    }

    #[test]
    fn scaled_dry_run_completes_with_recoveries() {
        let artifacts = Scenario::DryRun.run_with_steps(150);
        assert_eq!(artifacts.outcome.steps_completed(), 150);
        assert!(matches!(
            artifacts.outcome.termination,
            Termination::Completed
        ));
        assert!(
            artifacts.report.transient_recoveries >= 4,
            "recoveries: {}",
            artifacts.report.transient_recoveries
        );
    }

    #[test]
    fn scaled_public_run_dies_at_the_proportional_step() {
        let artifacts = Scenario::PublicRun.run_with_steps(150);
        // 150 · 1493/1500 = 149 (integer): dies with one step to go.
        assert_eq!(artifacts.outcome.steps_completed(), 149);
        match &artifacts.outcome.termination {
            Termination::Aborted { step, site, error } => {
                assert_eq!(*step, 149);
                assert_eq!(site, "cu");
                assert!(error.contains("link reset"));
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(artifacts.participants >= 130);
        assert!(artifacts.report.transient_recoveries >= 4);
    }
}
