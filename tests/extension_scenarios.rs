//! E11 — §5's follow-on experiments, built on the same framework.
//!
//! "Earthquake engineers at RPI, UIUC and Lehigh University plan to use
//! the NEESgrid framework to study soil-structure interaction in an
//! experiment involving two structural sites (UIUC and Lehigh), one
//! geotechnical site (RPI), and a computational simulation node at NCSA."
//! And: "We are working … to support distributed experiments with
//! near-real-time requirements", which is what the α-OS integrator is for.

use std::sync::Arc;
use std::time::Duration;

use neesgrid::coordinator::{FaultPolicy, SimCoordBuilder, Termination};
use neesgrid::gridsim::{NetworkConfig, NodeId, VirtualNetwork};
use neesgrid::gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid::ntcp::{NtcpClient, NtcpServer, SimulationPlugin};
use neesgrid::ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid::structsim::element::{CouplingSpring, GroundSpring};
use neesgrid::structsim::material::{BilinearHysteretic, LinearElastic};
use neesgrid::structsim::substructure::{SimulatedSubstructure, Substructure};
use neesgrid::structsim::{AlphaOsIntegrator, GroundMotion, Matrix, Vector};

/// Soil–structure model: DOF 0 = soil (RPI centrifuge), DOF 1 = UIUC
/// structure, DOF 2 = Lehigh structure; NCSA simulates the coupling
/// girder between the two structural DOFs.
type SiteSpec = (String, Box<dyn Substructure>, Vec<usize>, f64);

fn soil_structure_sites() -> Vec<SiteSpec> {
    // Soil responds nonlinearly almost immediately (low yield).
    let soil = SimulatedSubstructure::spring_to_ground(
        "rpi-soil",
        Box::new(BilinearHysteretic::new(5.0e6, 20_000.0, 0.15)),
    );
    let uiuc = SimulatedSubstructure::spring_to_ground(
        "uiuc-structure",
        Box::new(LinearElastic::new(1.2e6)),
    );
    let lehigh = SimulatedSubstructure::spring_to_ground(
        "lehigh-structure",
        Box::new(LinearElastic::new(1.0e6)),
    );
    // Soil→structure coupling at both foundations + girder between them.
    let mut ncsa = SimulatedSubstructure::new("ncsa-coupling", 3);
    ncsa.add_element(Box::new(CouplingSpring::new(
        0,
        1,
        Box::new(LinearElastic::new(3.0e6)),
    )));
    ncsa.add_element(Box::new(CouplingSpring::new(
        0,
        2,
        Box::new(LinearElastic::new(3.0e6)),
    )));
    ncsa.add_element(Box::new(CouplingSpring::new(
        1,
        2,
        Box::new(LinearElastic::new(0.8e6)),
    )));
    vec![
        (
            "rpi".into(),
            Box::new(soil) as Box<dyn Substructure>,
            vec![0],
            5.0e6,
        ),
        ("uiuc".into(), Box::new(uiuc), vec![1], 1.2e6),
        ("lehigh".into(), Box::new(lehigh), vec![2], 1.0e6),
        ("ncsa".into(), Box::new(ncsa), vec![0, 1, 2], 3.0e6),
    ]
}

#[test]
fn four_site_soil_structure_experiment_runs() {
    let net = VirtualNetwork::new(NetworkConfig::default());
    let caller = DistinguishedName::nees_user("NCSA", "SSI Coordinator");
    let mux = RpcMux::new(net.endpoint("coordinator").unwrap());
    let mut builder = SimCoordBuilder::new(vec![50_000.0, 9_000.0, 8_000.0], net.clock())
        .dt(0.005)
        .fault_policy(FaultPolicy::Full {
            max_step_retries: 2,
        });
    // Geotechnical rigs carry far larger forces than the MOST columns;
    // sites publish limits sized to their own equipment.
    let ssi_limits = ActionLimits {
        max_displacement_m: 0.20,
        max_velocity_mps: 0.05,
        max_force_n: 2.0e6,
    };
    for (name, sub, dofs, k) in soil_structure_sites() {
        let server = NtcpServer::new(
            name.clone(),
            SitePolicy::permissive(&name, ssi_limits),
            Box::new(SimulationPlugin::new(format!("{name}-plugin"), sub)),
            net.clock(),
        );
        let _ = ServiceContainer::new(net.endpoint(name.as_str()).unwrap())
            .with_service("ntcp", Box::new(server))
            .permissive()
            .attach();
        let client = NtcpClient::new(
            RpcClient::new(
                Arc::clone(&mux),
                NodeId::new(name.as_str()),
                "ntcp",
                caller.clone(),
            )
            .with_attempt_timeout(Duration::from_millis(100)),
        );
        builder = builder.site(name, client, dofs, k);
    }
    let mut coordinator = builder.build();
    let motion = GroundMotion::synthetic(1994, 0.005, 600, 2.5); // Northridge-flavoured
    let outcome = coordinator.run(&motion, 600);
    assert_eq!(outcome.steps_completed(), 600);
    assert!(matches!(outcome.termination, Termination::Completed));
    // All three physical DOFs respond, stay bounded, and the soft soil
    // reaches its nonlinear range (the phenomenon the experiment studies).
    let soil_peak = outcome.history.peak_displacement(0);
    let uiuc_peak = outcome.history.peak_displacement(1);
    let lehigh_peak = outcome.history.peak_displacement(2);
    assert!(soil_peak > 1e-4, "soil never moved: {soil_peak}");
    assert!(
        uiuc_peak > 1e-4 && lehigh_peak > 1e-4,
        "structures never moved"
    );
    assert!(
        soil_peak < 0.2 && uiuc_peak < 0.2 && lehigh_peak < 0.2,
        "unbounded response"
    );
    // Soil restoring force saturates past its 20 kN yield.
    let soil_force_peak = outcome
        .history
        .restoring_series(0)
        .iter()
        .fold(0.0f64, |m, &f| m.max(f.abs()));
    assert!(
        soil_force_peak > 20_000.0,
        "soil stayed elastic: peak force {soil_force_peak}"
    );
}

#[test]
fn alpha_os_tolerates_coarser_steps_than_central_difference() {
    // The §5 near-real-time work: delay-tolerant integration. For a
    // linear SDOF with ω = 20 rad/s, central difference is unstable at
    // dt = 0.12 s (> 2/ω), while α-OS (implicit corrector) stays bounded.
    let k = 400.0;
    let m = 1.0;
    let dt = 0.12;
    let steps = 400;

    // Central difference blows up (verified in structsim unit tests);
    // here: α-OS on the same problem stays bounded and decays with α<0.
    let mass = Matrix::diag(&[m]);
    let damping = Matrix::zeros(1, 1);
    let k_mat = Matrix::diag(&[k]);
    let d0 = Vector::from_slice(&[0.01]);
    let v0 = Vector::zeros(1);
    let r0 = Vector::from_slice(&[k * 0.01]);
    let p0 = Vector::zeros(1);
    let mut os = AlphaOsIntegrator::new(mass, damping, k_mat, dt, -0.1, d0, v0, r0, p0);
    let mut peak: f64 = 0.0;
    for _ in 0..steps {
        let pred = os.predictor();
        let r = pred.scale(k);
        let res = os.advance(&r, &Vector::zeros(1));
        peak = peak.max(res.displacement[0].abs());
    }
    assert!(peak <= 0.0100001, "α-OS grew: peak {peak}");
}

#[test]
fn six_dof_quasi_static_loading_in_one_transaction() {
    // §5: "At the University of Minnesota, an experiment is planned that
    // will use the NEESgrid framework to operate a six-degree-of-freedom
    // controller, to apply realistic deformations and loading
    // quasi-statically to large-scale structures." One NTCP transaction
    // carries all six control points; the site reviews them together.
    let net = VirtualNetwork::new(NetworkConfig::default());
    let mut specimen = SimulatedSubstructure::new("umn-specimen", 6);
    for dof in 0..6 {
        // Mixed stiffness per axis (translations stiffer than rotations'
        // equivalent lever-arm springs).
        let k = if dof < 3 { 5.0e6 } else { 8.0e5 };
        specimen.add_element(Box::new(GroundSpring::new(
            dof,
            Box::new(LinearElastic::new(k)),
        )));
    }
    let server = NtcpServer::new(
        "umn",
        SitePolicy::permissive(
            "umn",
            ActionLimits {
                max_displacement_m: 0.1,
                max_velocity_mps: 0.01,
                max_force_n: 1.0e6,
            },
        ),
        Box::new(SimulationPlugin::new("umn-6dof", Box::new(specimen))),
        net.clock(),
    );
    let _ = ServiceContainer::new(net.endpoint("umn").unwrap())
        .with_service("ntcp", Box::new(server))
        .permissive()
        .attach();
    let mux = RpcMux::new(net.endpoint("operator").unwrap());
    let client = NtcpClient::new(
        RpcClient::new(
            mux,
            NodeId::new("umn"),
            "ntcp",
            DistinguishedName::nees_user("UMN", "Operator"),
        )
        .with_attempt_timeout(Duration::from_millis(100)),
    );
    // Quasi-static ramp: five load stages, six DOFs each.
    for stage in 1..=5 {
        let scale = stage as f64 * 0.002;
        let actions: Vec<neesgrid::ntcp::ControlPoint> = (0..6)
            .map(|dof| {
                let k = if dof < 3 { 5.0e6 } else { 8.0e5 };
                neesgrid::ntcp::ControlPoint {
                    name: format!("dof-{dof}"),
                    displacement_m: scale * (1.0 + dof as f64 * 0.1),
                    velocity_mps: 0.001,
                    expected_force_n: k * scale * (1.0 + dof as f64 * 0.1),
                }
            })
            .collect();
        let tx = format!("stage-{stage}");
        client
            .propose(
                &tx,
                actions.clone(),
                neesgrid::gridsim::SimTime::from_secs(120),
            )
            .unwrap();
        let results = client.execute(&tx).unwrap();
        assert_eq!(results.len(), 6);
        for (dof, r) in results.iter().enumerate() {
            let k = if dof < 3 { 5.0e6 } else { 8.0e5 };
            let expected = k * actions[dof].displacement_m;
            assert!(
                (r.force_n - expected).abs() < 1e-6 * expected.abs().max(1.0),
                "stage {stage} dof {dof}: {} vs {expected}",
                r.force_n
            );
        }
    }
    // A seventh control point is infeasible: the rig has six axes.
    let too_many: Vec<neesgrid::ntcp::ControlPoint> = (0..7)
        .map(|d| neesgrid::ntcp::ControlPoint::displacement(format!("dof-{d}"), 0.001, 100.0))
        .collect();
    let err = client
        .propose("bad", too_many, neesgrid::gridsim::SimTime::from_secs(10))
        .unwrap_err();
    assert!(matches!(err, neesgrid::ntcp::NtcpError::Rejected { .. }));
}

#[test]
fn emergency_stop_mid_experiment_aborts_cleanly() {
    // §4: "to be able to terminate the local experiment at any time."
    // A site engages its e-stop mid-run; the coordinator sees a rejection
    // and shuts the experiment down rather than pressing on.
    let net = VirtualNetwork::new(NetworkConfig::default());
    let caller = DistinguishedName::nees_user("NCSA", "Coordinator");
    let mux = RpcMux::new(net.endpoint("coordinator").unwrap());

    // A policy whose emergency stop engages partway through: model by a
    // displacement limit the response will cross as it builds up.
    let tight = SitePolicy::permissive(
        "uiuc",
        ActionLimits {
            max_displacement_m: 0.004,
            max_velocity_mps: 1.0,
            max_force_n: 1e9,
        },
    );
    let server = NtcpServer::new(
        "uiuc",
        tight,
        Box::new(SimulationPlugin::new(
            "sim",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "col",
                Box::new(LinearElastic::new(1.0e6)),
            )),
        )),
        net.clock(),
    );
    let _ = ServiceContainer::new(net.endpoint("uiuc").unwrap())
        .with_service("ntcp", Box::new(server))
        .permissive()
        .attach();
    let client = NtcpClient::new(
        RpcClient::new(mux, NodeId::new("uiuc"), "ntcp", caller)
            .with_attempt_timeout(Duration::from_millis(80)),
    );
    let mut coordinator = SimCoordBuilder::new(vec![8_000.0], net.clock())
        .dt(0.01)
        .fault_policy(FaultPolicy::Full {
            max_step_retries: 2,
        })
        .site("uiuc", client, vec![0], 1.0e6)
        .build();
    let motion = GroundMotion::synthetic(3, 0.01, 400, 3.0);
    let outcome = coordinator.run(&motion, 400);
    match &outcome.termination {
        Termination::Aborted { site, error, .. } => {
            assert_eq!(site, "uiuc");
            assert!(error.contains("rejected"));
        }
        other => panic!("expected abort, got {other:?}"),
    }
    // Every completed step respected the limit.
    for d in &outcome.history.displacement {
        assert!(d[0].abs() <= 0.004 + 1e-12);
    }
}
