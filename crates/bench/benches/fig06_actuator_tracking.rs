//! E5 (Figures 6 & 7) — the physical substructure rigs.
//!
//! Regenerates the behavioural content of the physical-test figures: how
//! the emulated servo-hydraulic rig tracks commands. Virtual settle time
//! vs move amplitude is printed once (the physically meaningful series);
//! the timed moves measure the emulation's compute cost.
//! `BENCH_fig06.json` at the repo root gets both, the timings as the best
//! and median µs per move with the core count and the repeats.

use std::hint::black_box;

use serde_json::json;

use neesgrid_apparatus::{
    ActuatorConfig, ControllerCommand, ControllerResponse, LoadCell, Lvdt, ServoHydraulicActuator,
    ShoreWesternController, SteelColumn,
};
use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record};

fn controller() -> ShoreWesternController {
    ShoreWesternController::new(
        ServoHydraulicActuator::new(ActuatorConfig::lab_100kn()),
        Box::new(SteelColumn::most_uiuc()),
        Lvdt::lab_grade("lvdt", 1),
        LoadCell::new("load", 2, 150_000.0),
        120_000.0,
    )
}

/// Amplitudes of the settle table, m.
const SETTLE: [f64; 5] = [0.0005, 0.002, 0.010, 0.030, 0.050];
/// Amplitudes of the timed moves, m.
const MOVES: [f64; 3] = [0.002, 0.010, 0.050];
/// Moves timed together in one repeat of one amplitude.
const MOVES_PER_REPEAT: usize = 100;
/// Timed rounds.
const REPEATS: usize = 21;

fn main() {
    // The figure-shaped data: settle time and tracking error vs amplitude.
    eprintln!("fig06: servo-hydraulic tracking (virtual time)");
    eprintln!("  amplitude    settle      |error|");
    let mut tracking = Vec::new();
    for amp in SETTLE {
        let mm = amp * 1e3;
        match controller().execute(ControllerCommand::Move { target_m: amp }) {
            ControllerResponse::Moved(m) => {
                let error_um = (m.displacement_m - amp).abs() * 1e6;
                eprintln!("  {mm:7.1} mm  {:>9}  {error_um:8.1} um", m.duration);
                tracking.push(json!({
                    "amplitude_mm": mm,
                    "settle_s": m.duration.as_secs_f64(),
                    "error_um": error_um,
                }));
            }
            other => {
                eprintln!("  {mm:7.1} mm  refused: {other:?}");
                tracking.push(json!({ "amplitude_mm": mm, "refused": format!("{other:?}") }));
            }
        }
    }

    let mut controllers: Vec<_> = MOVES.iter().map(|_| controller()).collect();
    let mut sign = 1.0;
    let timings = time_cases(REPEATS, MOVES.len(), |case, watch| {
        let ctl = &mut controllers[case];
        watch.time(|| {
            for _ in 0..MOVES_PER_REPEAT {
                sign = -sign;
                black_box(ctl.execute(ControllerCommand::Move {
                    target_m: MOVES[case] * sign,
                }));
            }
        })
    });

    let mut move_cost = Vec::new();
    for (amp, (best, median)) in MOVES.iter().zip(timings) {
        let us = (
            best * 1e6 / MOVES_PER_REPEAT as f64,
            median * 1e6 / MOVES_PER_REPEAT as f64,
        );
        eprintln!(
            "fig06: move emulation, {:4.1} mm: best {:>7.2} µs, median {:>7.2} µs",
            amp * 1e3,
            us.0,
            us.1
        );
        let mut row = json!({ "amplitude_mm": amp * 1e3 });
        put_best_and_median(&mut row, "move_us", us);
        move_cost.push(row);
    }
    let doc = json!({
        "bench": "fig06_actuator_tracking",
        "moves": "the emulated Shore-Western rig moving to ± the amplitude, alternating",
        "nproc": cores(),
        "repeats": REPEATS,
        "moves_per_repeat": MOVES_PER_REPEAT,
        "tracking": tracking,
        "move_cost": move_cost,
    });
    write_record("fig06_actuator_tracking", "fig06", &doc);
}
