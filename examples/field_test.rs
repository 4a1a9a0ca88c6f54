//! The UCLA field test — §5's wireless building experiment.
//!
//! Shakes a four-story office-building model with harmonic and
//! earthquake-type force histories, measures with a lossy 802.11 wireless
//! accelerometer array, buffers at a mobile command center, and archives
//! to the laboratory over an interruptible satellite uplink (the archive's
//! striped transfer engine, resuming from the laboratory's restart marker).
//!
//! Run with: `cargo run --example field_test`

use neesgrid::most::{run_field_test, Excitation, FieldTestConfig};
use neesgrid::repo::VirtualStore;

fn main() {
    let store = VirtualStore::new();

    for (label, excitation) in [
        (
            "Harmonic forcing (1.6 Hz, near resonance)",
            Excitation::Harmonic {
                amplitude_n: 50_000.0,
                frequency_hz: 1.6,
            },
        ),
        (
            "Earthquake-type force history",
            Excitation::EarthquakeType {
                seed: 1994,
                peak_n: 80_000.0,
            },
        ),
    ] {
        let mut config = FieldTestConfig::ucla_office_building();
        config.excitation = excitation;
        println!("=== {label} ===");
        println!(
            "  building fundamental mode : {:.2} Hz",
            config.fundamental_frequency_hz()
        );
        let out = run_field_test(&config, &store);
        for (floor, peak) in out.peak_floor_accel.iter().enumerate() {
            println!("  floor {floor} peak acceleration : {peak:.4} m/s²");
        }
        println!(
            "  wireless telemetry        : {} samples received, {} lost ({:.1}%)",
            out.samples_received,
            out.samples_lost,
            100.0 * out.samples_lost as f64 / (out.samples_received + out.samples_lost) as f64
        );
        println!(
            "  satellite uplink          : {} bytes archived, {} restart-marker resumes",
            out.archived_bytes, out.uplink_resumes
        );
        println!(
            "  identified frequency      : {:.2} Hz (from roof record)",
            out.estimated_fundamental_hz
        );
        println!();
    }
    println!(
        "Laboratory archive now holds {} files ({} bytes).",
        store.list("/experiments/ucla-field/").len(),
        store.total_bytes()
    );
}
