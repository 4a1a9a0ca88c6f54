//! E2 (Figures 2 & 9) — the control-plugin architecture.
//!
//! The same displacement command dispatched through each backend used in
//! MOST/Mini-MOST: direct numerical simulation, the polled Mplugin, the
//! Shore-Western servo-hydraulic bridge, the Mini-MOST LabVIEW/stepper
//! rig, and the first-order kinetic simulator. Wall-time differences here
//! are protocol/emulation overhead; the *virtual* durations each backend
//! reports (actuator seconds vs model milliseconds) are printed once.
//! `BENCH_fig02.json` at the repo root gets both: each backend's virtual
//! execute duration, and the best and median wall ns per execute.

use std::hint::black_box;

use neesgrid_apparatus::stepper::StepperConfig;
use neesgrid_apparatus::{
    ActuatorConfig, FirstOrderKineticPlugin, LabViewPlugin, LoadCell, Lvdt, ServoHydraulicActuator,
    ShoreWesternController, ShoreWesternPlugin, SteelColumn, StepperMotor, StrainGauge,
};
use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record};
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

/// Executes timed together in one repeat of one backend.
const EXECUTES: usize = 1000;
/// Timed rounds.
const REPEATS: usize = 21;

fn main() {
    let backends = [
        ("direct_sim", sim_plugin as fn() -> Box<dyn ControlPlugin>),
        ("mplugin_polled", mplugin),
        ("shore_western", shore_western),
        ("labview_stepper", labview),
        ("first_order_kinetic", kinetic),
    ];
    // The figure's content: what each backend's execute costs in
    // experiment time.
    let mut virtual_s = serde_json::Map::new();
    eprintln!("fig02: virtual execution durations for a 2 mm command");
    for (label, factory) in backends {
        let out = factory().execute(&action(0.002)).unwrap();
        eprintln!("  {label:<22} {}", out.duration);
        virtual_s.insert(label.into(), out.duration.as_secs_f64().into());
    }

    let mut plugins: Vec<_> = backends.iter().map(|(_, factory)| factory()).collect();
    let mut sign = 1.0;
    let timings = time_cases(REPEATS, plugins.len(), |case, watch| {
        let plugin = &mut plugins[case];
        watch.time(|| {
            for _ in 0..EXECUTES {
                sign = -sign;
                black_box(plugin.execute(&action(0.002 * sign)).unwrap());
            }
        })
    });

    let mut doc = serde_json::json!({
        "bench": "fig02_plugin_backends",
        "command": "a 2 mm displacement command, alternating in sign, executed on each backend",
        "nproc": cores(),
        "repeats": REPEATS,
        "executes_per_repeat": EXECUTES,
        "virtual_execute_s": virtual_s,
    });
    for ((label, _), (best, median)) in backends.iter().zip(timings) {
        let ns = (best * 1e9 / EXECUTES as f64, median * 1e9 / EXECUTES as f64);
        eprintln!(
            "fig02: {label:<22} best {:>9.1} ns/execute, median {:>9.1}",
            ns.0, ns.1
        );
        put_best_and_median(&mut doc, &format!("{label}_ns"), ns);
    }
    write_record("fig02_plugin_backends", "fig02", &doc);
}
