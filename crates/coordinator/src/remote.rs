//! A remote NTCP server as a local [`Substructure`].
//!
//! §2.1: "from the perspective of a hybrid experiment, a physical
//! experiment and a computational simulation are indistinguishable."
//! [`NtcpSubstructure`] makes that literal: any integrator or PSD driver
//! written against [`neesgrid_structsim::Substructure`] works unchanged
//! whether the substructure is an in-process spring model or a servo-
//! hydraulic rig three states away.
//!
//! Semantics note: on physical hardware a probe cannot be taken back, so
//! `restoring` performs the full propose + execute cycle (committing at
//! the site) and `commit` is a no-op. This matches explicit PSD
//! integrators, which evaluate the restoring force exactly once per step.

use std::sync::atomic::{AtomicU64, Ordering};

use neesgrid_gridsim::SimTime;
use neesgrid_ntcp::{ControlPoint, NtcpClient, NtcpError};
use neesgrid_structsim::substructure::{Substructure, SubstructureError};

/// A substructure whose physics lives behind a remote NTCP server.
pub struct NtcpSubstructure {
    name: String,
    client: NtcpClient,
    ndof: usize,
    /// Stiffness estimate used for the proposals' expected-force field.
    pub stiffness_estimate: f64,
    /// Execution timeout carried in proposals.
    pub transaction_timeout: SimTime,
    sequence: AtomicU64,
}

impl NtcpSubstructure {
    /// Bind a remote site as a substructure with `ndof` interface DOFs.
    pub fn new(
        name: impl Into<String>,
        client: NtcpClient,
        ndof: usize,
        stiffness_estimate: f64,
    ) -> Self {
        assert!(ndof > 0);
        NtcpSubstructure {
            name: name.into(),
            client,
            ndof,
            stiffness_estimate,
            transaction_timeout: SimTime::from_secs(60),
            sequence: AtomicU64::new(0),
        }
    }

    fn map_err(&self, e: NtcpError) -> SubstructureError {
        let recoverable = matches!(
            &e,
            NtcpError::Transport(neesgrid_ogsi::RpcError::Timeout { .. })
                | NtcpError::Transport(neesgrid_ogsi::RpcError::LinkReset)
        ) || matches!(
            &e,
            NtcpError::Fault {
                retryable: true,
                ..
            }
        );
        SubstructureError {
            message: format!("{}: {e}", self.name),
            recoverable,
        }
    }
}

impl Substructure for NtcpSubstructure {
    fn name(&self) -> &str {
        &self.name
    }

    fn interface_dofs(&self) -> usize {
        self.ndof
    }

    fn restoring(&mut self, displacements: &[f64]) -> Result<Vec<f64>, SubstructureError> {
        if displacements.len() != self.ndof {
            return Err(SubstructureError::fatal(format!(
                "{}: expected {} displacements, got {}",
                self.name,
                self.ndof,
                displacements.len()
            )));
        }
        let seq = self.sequence.fetch_add(1, Ordering::Relaxed);
        let tx = format!("{}-sub-{seq:08}", self.name);
        let actions: Vec<ControlPoint> = displacements
            .iter()
            .enumerate()
            .map(|(i, &d)| ControlPoint {
                name: format!("dof-{i}"),
                displacement_m: d,
                velocity_mps: 0.0,
                expected_force_n: self.stiffness_estimate * d.abs(),
            })
            .collect();
        self.client
            .propose(&tx, actions, self.transaction_timeout)
            .map_err(|e| self.map_err(e))?;
        let results = self.client.execute(&tx).map_err(|e| self.map_err(e))?;
        Ok(results.iter().map(|r| r.force_n).collect())
    }

    fn commit(&mut self) -> Result<(), SubstructureError> {
        // Execution already committed site state; see module docs.
        Ok(())
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
    use neesgrid_structsim::psd::PsdTest;
    use neesgrid_structsim::substructure::{SimulatedSubstructure, SubstructureBinding};
    use neesgrid_structsim::{GroundMotion, Matrix};

    fn remote_site(net: &VirtualNetwork, name: &str, k: f64) -> NtcpSubstructure {
        let server = NtcpServer::new(
            name,
            SitePolicy::permissive(name, ActionLimits::most_large_scale()),
            Box::new(SimulationPlugin::new(
                format!("{name}-sim"),
                Box::new(SimulatedSubstructure::spring_to_ground(
                    "col",
                    Box::new(LinearElastic::new(k)),
                )),
            )),
            net.clock(),
        );
        let _h = ServiceContainer::new(net.endpoint(name).unwrap())
            .with_service("ntcp", Box::new(server))
            .permissive()
            .attach();
        let mux = RpcMux::new(net.endpoint(format!("client-{name}")).unwrap());
        NtcpSubstructure::new(
            name,
            NtcpClient::new(RpcClient::new(
                mux,
                NodeId::new(name),
                "ntcp",
                DistinguishedName::nees_user("NCSA", "Coordinator"),
            )),
            1,
            k,
        )
    }

    #[test]
    fn remote_substructure_behaves_like_local_spring() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mut remote = remote_site(&net, "uiuc", 2.0e5);
        let f = remote.restoring(&[0.002]).unwrap();
        assert!((f[0] - 400.0).abs() < 1e-9);
        remote.commit().unwrap();
        assert_eq!(remote.interface_dofs(), 1);
    }

    #[test]
    fn psd_test_runs_transparently_over_ntcp() {
        // The indistinguishability claim as an executable test: PsdTest
        // (written with no networking in mind) driving a remote site.
        let net = VirtualNetwork::new(NetworkConfig::default());
        let remote = remote_site(&net, "uiuc", 2.0e5);
        let motion = GroundMotion::synthetic(5, 0.01, 60, 2.0);
        let test = PsdTest::new(vec![1000.0], Matrix::zeros(1, 1), 0.01);
        let remote_hist = test
            .run(
                vec![(SubstructureBinding::new(vec![0]), Box::new(remote) as _)],
                &motion,
                60,
            )
            .unwrap();
        // Identical local run.
        let local =
            SimulatedSubstructure::spring_to_ground("local", Box::new(LinearElastic::new(2.0e5)));
        let local_hist = test
            .run(
                vec![(SubstructureBinding::new(vec![0]), Box::new(local) as _)],
                &motion,
                60,
            )
            .unwrap();
        let diff = remote_hist.max_displacement_difference(&local_hist);
        assert!(diff < 1e-12, "remote vs local diff {diff}");
    }

    #[test]
    fn dimension_mismatch_is_fatal() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mut remote = remote_site(&net, "uiuc", 2.0e5);
        let err = remote.restoring(&[0.1, 0.2]).unwrap_err();
        assert!(!err.recoverable);
    }

    #[test]
    fn unreachable_site_is_a_substructure_error() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let mux = RpcMux::new(net.endpoint("client").unwrap());
        let mut remote = NtcpSubstructure::new(
            "ghost-site",
            NtcpClient::new(RpcClient::new(
                mux,
                NodeId::new("ghost"),
                "ntcp",
                DistinguishedName::nees_user("NCSA", "Coordinator"),
            )),
            1,
            1.0e5,
        );
        let err = remote.restoring(&[0.001]).unwrap_err();
        assert!(err.message.contains("ghost-site"));
        assert!(!err.recoverable, "no-route is not recoverable");
    }
}
