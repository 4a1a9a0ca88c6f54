//! The MATLAB-toolbox-style construction facade.
//!
//! §3.1: "The simulation coordinator … was written by an earthquake
//! engineer using a Matlab toolbox that we developed to provide a
//! convenient interface to NTCP." The builder mirrors that ergonomics:
//! declare the global model, point at the sites, pick a fault policy, run.

use std::sync::Arc;

use neesgrid_gridsim::SimClock;
use neesgrid_ntcp::NtcpClient;
use neesgrid_structsim::linalg::Matrix;
use neesgrid_structsim::substructure::SubstructureBinding;
use neesgrid_telemetry::Telemetry;

use crate::coordinator::{SimulationCoordinator, SiteHandle};
use crate::policy::FaultPolicy;

/// Builder for a [`SimulationCoordinator`].
pub struct SimCoordBuilder {
    masses: Vec<f64>,
    damping: Option<Matrix>,
    dt: f64,
    sites: Vec<SiteHandle>,
    policy: FaultPolicy,
    clock: Arc<SimClock>,
    telemetry: Telemetry,
}

impl SimCoordBuilder {
    /// Start a builder for a model with the given lumped masses.
    pub fn new(masses: Vec<f64>, clock: Arc<SimClock>) -> Self {
        SimCoordBuilder {
            masses,
            damping: None,
            dt: 0.01,
            sites: Vec::new(),
            policy: FaultPolicy::Full {
                max_step_retries: 3,
            },
            clock,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Install a telemetry handle on the built coordinator (default:
    /// disabled, zero overhead).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Set the integration time step (default 0.01 s).
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Set an explicit damping matrix (default: undamped).
    pub fn damping(mut self, c: Matrix) -> Self {
        self.damping = Some(c);
        self
    }

    /// Set the fault-tolerance policy.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a site: its NTCP client, the global DOFs it carries, and a
    /// stiffness estimate for proposal force fields.
    pub fn site(
        mut self,
        name: impl Into<String>,
        client: NtcpClient,
        global_dofs: Vec<usize>,
        stiffness_estimate: f64,
    ) -> Self {
        self.sites.push(SiteHandle {
            name: name.into(),
            client,
            binding: SubstructureBinding::new(global_dofs),
            stiffness_estimate,
        });
        self
    }

    /// Build the coordinator. Panics on an empty model or missing sites.
    pub fn build(self) -> SimulationCoordinator {
        assert!(
            !self.sites.is_empty(),
            "a coordinator needs at least one site"
        );
        let n = self.masses.len();
        let mut coord = SimulationCoordinator::new(
            self.masses,
            self.damping.unwrap_or_else(|| Matrix::zeros(n, n)),
            self.dt,
            self.sites,
            self.policy,
            self.clock,
        );
        coord.set_telemetry(self.telemetry);
        coord
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_gridsim::{NetworkConfig, NodeId, VirtualNetwork};
    use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
    use neesgrid_ntcp::{NtcpServer, SimulationPlugin};
    use neesgrid_ogsi::{RpcClient, RpcMux, ServiceContainer};
    use neesgrid_structsim::material::LinearElastic;
    use neesgrid_structsim::substructure::SimulatedSubstructure;
    use neesgrid_structsim::GroundMotion;

    #[test]
    fn builder_runs_a_single_site_experiment() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let server = NtcpServer::new(
            "uiuc",
            SitePolicy::permissive("uiuc", ActionLimits::most_large_scale()),
            Box::new(SimulationPlugin::new(
                "sim",
                Box::new(SimulatedSubstructure::spring_to_ground(
                    "col",
                    Box::new(LinearElastic::new(2.0e5)),
                )),
            )),
            net.clock(),
        );
        let _h = ServiceContainer::new(net.endpoint("uiuc").unwrap())
            .with_service("ntcp", Box::new(server))
            .permissive()
            .attach();
        let mux = RpcMux::new(net.endpoint("coordinator").unwrap());
        let client = NtcpClient::new(RpcClient::new(
            mux,
            NodeId::new("uiuc"),
            "ntcp",
            DistinguishedName::nees_user("NCSA", "Coordinator"),
        ));
        let mut coord = SimCoordBuilder::new(vec![1000.0], net.clock())
            .dt(0.01)
            .fault_policy(FaultPolicy::Full {
                max_step_retries: 2,
            })
            .site("uiuc", client, vec![0], 2.0e5)
            .build();
        let motion = GroundMotion::synthetic(1, 0.01, 50, 2.0);
        let outcome = coord.run(&motion, 50);
        assert_eq!(outcome.steps_completed(), 50);
        assert!(outcome.history.peak_displacement(0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn builder_requires_sites() {
        let clock = SimClock::new();
        let _ = SimCoordBuilder::new(vec![1000.0], clock).build();
    }
}
