//! Soil–structure interaction — the §5 follow-on experiment.
//!
//! "Earthquake engineers at RPI, UIUC and Lehigh University plan to use
//! the NEESgrid framework to study soil-structure interaction in an
//! experiment involving two structural sites (UIUC and Lehigh), one
//! geotechnical site (RPI), and a computational simulation node at NCSA.
//! The experiment will focus on an idealized model of the
//! Collector-Distributor 36 of the Santa Monica Freeway that was damaged
//! in the 1994 Northridge earthquake."
//!
//! Four NTCP sites, three global DOFs, one coordinator — the same
//! framework MOST used, demonstrating that nothing in it is specific to
//! the two-column frame.
//!
//! Run with: `cargo run --example soil_structure`

use std::sync::Arc;
use std::time::Duration;

use neesgrid::coordinator::{FaultPolicy, SimCoordBuilder, Termination};
use neesgrid::gridsim::{NetworkConfig, NodeId, VirtualNetwork};
use neesgrid::gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid::ntcp::{NtcpClient, NtcpServer, SimulationPlugin};
use neesgrid::ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid::structsim::element::CouplingSpring;
use neesgrid::structsim::material::{BilinearHysteretic, LinearElastic};
use neesgrid::structsim::substructure::{SimulatedSubstructure, Substructure};
use neesgrid::structsim::GroundMotion;

fn main() {
    let net = VirtualNetwork::new(NetworkConfig::default());
    let caller = DistinguishedName::nees_user("NCSA", "SSI Coordinator");
    let mux = RpcMux::new(net.endpoint("coordinator").unwrap());

    // DOF 0: soil (RPI centrifuge). DOF 1: UIUC pier. DOF 2: Lehigh pier.
    type SiteSpec<'a> = (&'a str, Box<dyn Substructure>, Vec<usize>, f64);
    let sites: Vec<SiteSpec> = vec![
        (
            "rpi",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "rpi-centrifuge-soil",
                Box::new(BilinearHysteretic::new(5.0e6, 20_000.0, 0.15)),
            )),
            vec![0],
            5.0e6,
        ),
        (
            "uiuc",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "uiuc-pier",
                Box::new(LinearElastic::new(1.2e6)),
            )),
            vec![1],
            1.2e6,
        ),
        (
            "lehigh",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "lehigh-pier",
                Box::new(LinearElastic::new(1.0e6)),
            )),
            vec![2],
            1.0e6,
        ),
        (
            "ncsa",
            {
                let mut c = SimulatedSubstructure::new("ncsa-coupling", 3);
                c.add_element(Box::new(CouplingSpring::new(
                    0,
                    1,
                    Box::new(LinearElastic::new(3.0e6)),
                )));
                c.add_element(Box::new(CouplingSpring::new(
                    0,
                    2,
                    Box::new(LinearElastic::new(3.0e6)),
                )));
                c.add_element(Box::new(CouplingSpring::new(
                    1,
                    2,
                    Box::new(LinearElastic::new(0.8e6)),
                )));
                Box::new(c)
            },
            vec![0, 1, 2],
            3.0e6,
        ),
    ];

    let limits = ActionLimits {
        max_displacement_m: 0.20,
        max_velocity_mps: 0.05,
        max_force_n: 2.0e6,
    };
    let mut builder = SimCoordBuilder::new(vec![50_000.0, 9_000.0, 8_000.0], net.clock())
        .dt(0.005)
        .fault_policy(FaultPolicy::Full {
            max_step_retries: 3,
        });
    for (name, sub, dofs, k) in sites {
        let server = NtcpServer::new(
            name,
            SitePolicy::permissive(name, limits),
            Box::new(SimulationPlugin::new(format!("{name}-plugin"), sub)),
            net.clock(),
        );
        let _ = ServiceContainer::new(net.endpoint(name).unwrap())
            .with_service("ntcp", Box::new(server))
            .permissive()
            .attach();
        let client = NtcpClient::new(
            RpcClient::new(Arc::clone(&mux), NodeId::new(name), "ntcp", caller.clone())
                .with_attempt_timeout(Duration::from_millis(100)),
        );
        builder = builder.site(name, client, dofs, k);
    }

    let mut coordinator = builder.build();
    // Northridge-flavoured synthetic motion (the 1994 event motivated the
    // CD-36 study).
    let motion = GroundMotion::synthetic(1994, 0.005, 1200, 2.5);
    println!("Running 1,200 steps across rpi / uiuc / lehigh / ncsa …");
    let outcome = coordinator.run(&motion, 1200);

    match &outcome.termination {
        Termination::Completed => println!("completed {} steps", outcome.steps_completed()),
        Termination::Aborted { step, site, error } => {
            println!("aborted at step {step} ({site}): {error}")
        }
    }
    for (dof, label) in [(0, "RPI soil"), (1, "UIUC pier"), (2, "Lehigh pier")] {
        let peak_d = outcome.history.peak_displacement(dof) * 1e3;
        let peak_f = outcome
            .history
            .restoring_series(dof)
            .iter()
            .fold(0.0f64, |m, &f| m.max(f.abs()))
            / 1e3;
        println!("  {label:<12}: peak {peak_d:7.2} mm, peak restoring {peak_f:8.1} kN");
    }
    println!(
        "  transport retransmissions observed: {}",
        outcome.retransmissions
    );
}
