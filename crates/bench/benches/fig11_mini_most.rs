//! E8 (Figure 11, §3.5) — Mini-MOST.
//!
//! Full tabletop runs: the stepper-motor rig vs the first-order kinetic
//! simulator stand-in, plus a bare stepper positioning microbench.
//! `BENCH_fig11.json` at the repo root gets each run's steps and peak, and
//! the best and median of each timing, with the core count and the repeats.

use std::hint::black_box;

use serde_json::json;

use neesgrid_apparatus::stepper::StepperConfig;
use neesgrid_apparatus::StepperMotor;
use neesgrid_bench::{cores, put_best_and_median, time_cases, write_record};
use neesgrid_most::{run_mini_most, MiniMostConfig};

/// Stepper moves timed together in one repeat.
const MOVES: usize = 10_000;
/// Timed rounds.
const REPEATS: usize = 11;

fn main() {
    let configs = [
        ("stepper_rig", MiniMostConfig::tabletop()),
        ("kinetic_sim", MiniMostConfig::kinetic_simulator()),
    ];
    // The figure-shaped summary.
    let mut runs = serde_json::Map::new();
    for (label, config) in &configs {
        let out = run_mini_most(config);
        eprintln!(
            "fig11: {label}: {}/{} steps, peak {:.3} mm",
            out.steps_completed,
            config.steps,
            out.peak_displacement_m * 1e3
        );
        runs.insert(
            label.to_string(),
            json!({
                "steps_completed": out.steps_completed,
                "steps": config.steps,
                "peak_mm": out.peak_displacement_m * 1e3,
            }),
        );
    }

    let mut motor = StepperMotor::new(StepperConfig::mini_most());
    let mut sign = 1.0;
    let timings = time_cases(REPEATS, 3, |case, watch| match case {
        0 | 1 => drop(watch.time(|| run_mini_most(&configs[case].1))),
        _ => watch.time(|| {
            for _ in 0..MOVES {
                sign = -sign;
                black_box(motor.move_to(0.002 * sign).unwrap());
            }
        }),
    });

    let mut doc = json!({
        "bench": "fig11_mini_most",
        "nproc": cores(),
        "repeats": REPEATS,
        "stepper_moves_per_repeat": MOVES,
        "summary": runs,
    });
    for (key, (best, median), scale) in [
        ("mini_most_200_steps_stepper_ms", timings[0], 1e3),
        ("mini_most_200_steps_kinetic_ms", timings[1], 1e3),
        ("stepper_move_2mm_ns", timings[2], 1e9 / MOVES as f64),
    ] {
        let t = (best * scale, median * scale);
        eprintln!("fig11: {key:<30} best {:>8.3}, median {:>8.3}", t.0, t.1);
        put_best_and_median(&mut doc, key, t);
    }
    write_record("fig11_mini_most", "fig11", &doc);
}
