//! Mini-MOST (§3.5).
//!
//! "Once MOST was complete, there was a desire for a less-expensive,
//! self-contained version that could be installed into an average lab.
//! Mini-MOST is a tabletop-sized system, with a single (1m by 10cm) beam,
//! using stepper motors. … The control and DAQ are run from a single
//! Windows-based PC, which can also host the MATLAB simulation coordinator
//! if required. Sensors are also scaled back to a strain gauge, LVDT for
//! position, and a load cell for force. … The second substantial change is
//! in the simulation coordinator: the smaller beam has different mass,
//! spring constant, inertia and so forth."
//!
//! A single-site SDOF hybrid experiment: one NTCP server driving either
//! the [`neesgrid_apparatus::LabViewPlugin`] rig (stepper + mini beam +
//! scaled-back sensors) or — "for testing when the actual hardware is not
//! available" — the first-order kinetic simulator.

use std::sync::Arc;
use std::time::Duration;

use neesgrid_apparatus::stepper::StepperConfig;
use neesgrid_apparatus::{
    FirstOrderKineticPlugin, LabViewPlugin, LoadCell, Lvdt, Specimen, SteelColumn, StepperMotor,
    StrainGauge,
};
use neesgrid_coordinator::{FaultPolicy, SimCoordBuilder, Termination};
use neesgrid_gridsim::{NetworkConfig, NodeId, VirtualNetwork};
use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid_ntcp::{ControlPlugin, NtcpClient, NtcpServer};
use neesgrid_ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid_structsim::psd::PsdHistory;
use neesgrid_structsim::GroundMotion;
use neesgrid_telemetry::Telemetry;

/// Mini-MOST configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniMostConfig {
    /// Effective mass at the beam tip, kg.
    pub mass_kg: f64,
    /// Integration step, s (the tabletop runs a coarser clock).
    pub dt: f64,
    /// Steps to run.
    pub steps: usize,
    /// Ground-motion seed.
    pub motion_seed: u64,
    /// Peak ground acceleration, m/s² (scaled to tabletop forces).
    pub pga: f64,
    /// Use the first-order kinetic simulator instead of the stepper rig.
    pub use_kinetic_simulator: bool,
}

impl MiniMostConfig {
    /// The tabletop defaults: light mass, gentle shaking, 200 steps.
    pub fn tabletop() -> Self {
        MiniMostConfig {
            mass_kg: 2.0,
            dt: 0.02,
            steps: 200,
            motion_seed: 0x4D49_4E49, // "MINI"
            pga: 0.4,
            use_kinetic_simulator: false,
        }
    }

    /// The hardware-free variant (§3.5's first-order kinetic simulator).
    pub fn kinetic_simulator() -> Self {
        MiniMostConfig {
            use_kinetic_simulator: true,
            ..MiniMostConfig::tabletop()
        }
    }

    /// The motion record.
    pub fn ground_motion(&self) -> GroundMotion {
        GroundMotion::synthetic(self.motion_seed, self.dt, self.steps, self.pga)
    }
}

/// The result of a Mini-MOST run.
pub struct MiniMostOutcome {
    /// Recorded histories.
    pub history: PsdHistory,
    /// Steps completed.
    pub steps_completed: usize,
    /// Whether it ran to completion.
    pub completed: bool,
    /// Peak beam-tip displacement, m.
    pub peak_displacement_m: f64,
}

/// Run Mini-MOST: one site, one coordinator, tabletop scale.
pub fn run_mini_most(config: &MiniMostConfig) -> MiniMostOutcome {
    run_mini_most_with_telemetry(config, Telemetry::disabled())
}

/// [`run_mini_most`] with an instrumentation handle threaded through the
/// WAN, RPC mux, NTCP server, and coordinator. The tabletop container is
/// attached to the event engine like every other deployment, so
/// same-configuration runs export byte-identical traces.
pub fn run_mini_most_with_telemetry(
    config: &MiniMostConfig,
    telemetry: Telemetry,
) -> MiniMostOutcome {
    let net = VirtualNetwork::new(NetworkConfig::default());
    net.set_telemetry(telemetry.clone());
    let beam = SteelColumn::mini_most_beam();
    let stiffness = beam.initial_stiffness();
    let plugin: Box<dyn ControlPlugin> = if config.use_kinetic_simulator {
        Box::new(FirstOrderKineticPlugin::new(
            "mini-most-kinetic",
            0.05,
            stiffness,
        ))
    } else {
        Box::new(LabViewPlugin::new(
            "mini-most-labview",
            StepperMotor::new(StepperConfig::mini_most()),
            Box::new(beam),
            Lvdt::new("mini/lvdt", 301, 2e-6, 1e-6),
            LoadCell::new("mini/load", 302, 200.0),
            StrainGauge::new("mini/strain", 303, 3000.0),
        ))
    };
    let mut server = NtcpServer::new(
        "mini-most",
        SitePolicy::permissive("mini-most", ActionLimits::mini_most()),
        plugin,
        net.clock(),
    );
    server.set_telemetry(telemetry.clone());
    ServiceContainer::new(net.endpoint("mini-most").expect("endpoint name is unique"))
        .with_service("ntcp", Box::new(server))
        .permissive()
        .attach();
    let mux = RpcMux::new(
        net.endpoint("coordinator")
            .expect("endpoint name is unique"),
    );
    mux.set_telemetry(telemetry.clone());
    let client = NtcpClient::new(
        RpcClient::new(
            mux,
            NodeId::new("mini-most"),
            "ntcp",
            DistinguishedName::nees_user("MINI", "Tabletop Coordinator"),
        )
        .with_attempt_timeout(Duration::from_millis(100)),
    );
    let mut coordinator = SimCoordBuilder::new(vec![config.mass_kg], net.clock())
        .dt(config.dt)
        .fault_policy(FaultPolicy::Full {
            max_step_retries: 2,
        })
        .telemetry(telemetry)
        .site("mini-most", client, vec![0], stiffness)
        .build();
    let _ = Arc::strong_count(&net.clock());
    let outcome = coordinator.run(&config.ground_motion(), config.steps);
    MiniMostOutcome {
        steps_completed: outcome.steps_completed(),
        completed: matches!(outcome.termination, Termination::Completed),
        peak_displacement_m: outcome.history.peak_displacement(0),
        history: outcome.history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabletop_run_completes_at_tabletop_scale() {
        let config = MiniMostConfig::tabletop();
        let out = run_mini_most(&config);
        assert!(out.completed);
        assert_eq!(out.steps_completed, 200);
        // Millimeter-scale motion, within the ±20 mm tabletop policy.
        assert!(
            out.peak_displacement_m > 1e-4,
            "peak {}",
            out.peak_displacement_m
        );
        assert!(
            out.peak_displacement_m < 0.020,
            "peak {}",
            out.peak_displacement_m
        );
    }

    #[test]
    fn stepper_quantization_is_visible_in_the_history() {
        let config = MiniMostConfig::tabletop();
        let out = run_mini_most(&config);
        // Measured restoring forces come from quantized positions + noisy
        // sensors; the series must be non-trivial.
        let forces = out.history.restoring_series(0);
        let nonzero = forces.iter().filter(|f| f.abs() > 1e-6).count();
        assert!(nonzero > 100, "forces mostly zero ({nonzero} nonzero)");
    }

    #[test]
    fn kinetic_simulator_variant_tracks_the_rig_variant() {
        // §3.5: the first-order simulator stands in for the beam during
        // development. Same coordinator, same motion — similar response.
        let rig = run_mini_most(&MiniMostConfig::tabletop());
        let sim = run_mini_most(&MiniMostConfig::kinetic_simulator());
        assert!(sim.completed);
        let rel = (sim.peak_displacement_m - rig.peak_displacement_m).abs()
            / rig.peak_displacement_m.max(1e-9);
        assert!(rel < 0.3, "simulator vs rig peak differs {rel}");
    }
}
