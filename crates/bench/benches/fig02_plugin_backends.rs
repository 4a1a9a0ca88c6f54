//! E2 (Figures 2 & 9) — the control-plugin architecture.
//!
//! The same displacement command dispatched through each backend used in
//! MOST/Mini-MOST: direct numerical simulation, the polled Mplugin, the
//! Shore-Western servo-hydraulic bridge, the Mini-MOST LabVIEW/stepper
//! rig, and the first-order kinetic simulator. Wall-time differences here
//! are protocol/emulation overhead; the *virtual* durations each backend
//! reports (actuator seconds vs model milliseconds) are printed once.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use neesgrid_apparatus::stepper::StepperConfig;
use neesgrid_apparatus::{
    ActuatorConfig, FirstOrderKineticPlugin, LabViewPlugin, LoadCell, Lvdt, ServoHydraulicActuator,
    ShoreWesternController, ShoreWesternPlugin, SteelColumn, StepperMotor, StrainGauge,
};
use neesgrid_ntcp::{BufferedPlugin, ControlPlugin, ControlPoint, SimulationPlugin};
use neesgrid_structsim::{LinearElastic, SimulatedSubstructure};

fn action(d: f64) -> Vec<ControlPoint> {
    vec![ControlPoint::displacement("dof-0", d, 5_000.0)]
}

fn sim_plugin() -> Box<dyn ControlPlugin> {
    Box::new(SimulationPlugin::new(
        "direct-sim",
        Box::new(SimulatedSubstructure::spring_to_ground(
            "col",
            Box::new(LinearElastic::new(2.0e5)),
        )),
    ))
}

fn mplugin() -> Box<dyn ControlPlugin> {
    let mut inner = sim_plugin();
    Box::new(BufferedPlugin::new(
        "mplugin",
        move |actions: &[ControlPoint]| inner.execute(actions),
    ))
}

fn shore_western() -> Box<dyn ControlPlugin> {
    let controller = ShoreWesternController::new(
        ServoHydraulicActuator::new(ActuatorConfig::lab_100kn()),
        Box::new(SteelColumn::most_uiuc()),
        Lvdt::lab_grade("lvdt", 1),
        LoadCell::new("load", 2, 150_000.0),
        120_000.0,
    );
    Box::new(ShoreWesternPlugin::new("shore-western", controller, 0.075))
}

fn labview() -> Box<dyn ControlPlugin> {
    Box::new(LabViewPlugin::new(
        "labview",
        StepperMotor::new(StepperConfig::mini_most()),
        Box::new(SteelColumn::mini_most_beam()),
        Lvdt::new("lvdt", 3, 1e-6, 1e-6),
        LoadCell::new("load", 4, 200.0),
        StrainGauge::new("strain", 5, 3000.0),
    ))
}

fn kinetic() -> Box<dyn ControlPlugin> {
    Box::new(FirstOrderKineticPlugin::new("kinetic", 0.05, 1100.0))
}

fn bench_backends(c: &mut Criterion) {
    // Print the virtual execution durations once (the figure's content:
    // what each backend's "execute" costs in experiment time).
    eprintln!("fig02: virtual execution durations for a 2 mm command");
    for (label, mut plugin) in [
        ("direct-sim", sim_plugin()),
        ("mplugin-polled", mplugin()),
        ("shore-western", shore_western()),
        ("labview-stepper", labview()),
        ("first-order-kinetic", kinetic()),
    ] {
        let out = plugin.execute(&action(0.002)).unwrap();
        eprintln!("  {label:<22} {}", out.duration);
    }

    let mut group = c.benchmark_group("fig02");
    for (label, factory) in [
        ("direct-sim", sim_plugin as fn() -> Box<dyn ControlPlugin>),
        ("mplugin-polled", mplugin),
        ("shore-western", shore_western),
        ("labview-stepper", labview),
        ("first-order-kinetic", kinetic),
    ] {
        group.bench_function(label, |b| {
            let mut plugin = factory();
            let mut sign = 1.0;
            b.iter(|| {
                sign = -sign;
                std::hint::black_box(plugin.execute(&action(0.002 * sign)).unwrap())
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_backends
}
criterion_main!(benches);
