//! E10 (§5) — the near-real-time work.
//!
//! "MOST and most follow-on experiments have lax performance requirements
//! … We are working … to support distributed experiments with
//! near-real-time requirements. … we are working on improving NTCP
//! performance, while the earthquake engineers are developing simulation
//! and control software that can better tolerate delays."
//!
//! Two series are produced:
//! * virtual NTCP round-trip time vs injected one-way WAN latency (printed
//!   — latency is virtual, so this is exact, not sampled);
//! * wall-clock protocol throughput, the ceiling on how fast a
//!   delay-tolerant integrator could step if the physics were free.
//!
//! `BENCH_sec50.json` at the repo root gets both, the wall clock as the best
//! and median µs per step with the core count and the repeats.

use std::hint::black_box;

use neesgrid_bench::{cores, put_best_and_median, single_site, time_cases, write_record};
use neesgrid_gridsim::{LatencyModel, NetworkConfig, SimTime, VirtualNetwork};
use neesgrid_gsi::ActionLimits;
use neesgrid_ntcp::{ControlPoint, NtcpClient, SimulationPlugin};
use neesgrid_structsim::{LinearElastic, SimulatedSubstructure};

fn plugin() -> Box<SimulationPlugin> {
    let mut p = SimulationPlugin::new(
        "rt-sim",
        Box::new(SimulatedSubstructure::spring_to_ground(
            "col",
            Box::new(LinearElastic::new(2.0e5)),
        )),
    );
    p.compute_time = SimTime::from_millis(1);
    Box::new(p)
}

/// One propose + execute of transaction `tx`.
fn step(client: &NtcpClient, tx: &str) {
    client
        .propose(
            tx,
            vec![ControlPoint::displacement("dof-0", 0.001, 200.0)],
            SimTime::from_secs(10),
        )
        .unwrap();
    black_box(client.execute(tx).unwrap());
}

/// One-way WAN latencies of the sweep, ms.
const LATENCIES_MS: [u64; 7] = [0, 5, 15, 30, 60, 120, 250];
/// Protocol steps timed together in one repeat.
const STEPS: usize = 1000;
/// Timed rounds.
const REPEATS: usize = 21;

fn main() {
    eprintln!("sec50: virtual step time (propose+execute) vs one-way WAN latency");
    eprintln!("  latency    step RTT   max step rate");
    let mut sweep = Vec::new();
    for latency_ms in LATENCIES_MS {
        let net = VirtualNetwork::new(NetworkConfig {
            default_latency: LatencyModel::Fixed(SimTime::from_millis(latency_ms)),
            ..Default::default()
        });
        let client = single_site(&net, "site", plugin(), ActionLimits::most_large_scale());
        let clock = net.clock();
        let t0 = clock.now();
        step(&client, "rt-1");
        // The site's 1 ms compute time keeps the round trip above zero.
        let step_rtt = clock.now().saturating_sub(t0);
        let rate = 1.0 / step_rtt.as_secs_f64();
        eprintln!("  {latency_ms:>5} ms  {step_rtt:>9}  {rate:8.2} steps/s");
        sweep.push(serde_json::json!({
            "latency_ms": latency_ms,
            "step_rtt_s": step_rtt.as_secs_f64(),
            "max_steps_per_s": rate,
        }));
    }

    // Wall-clock protocol throughput (zero-latency network).
    let net = VirtualNetwork::new(NetworkConfig::default());
    let client = single_site(
        &net,
        "fast-site",
        plugin(),
        ActionLimits::most_large_scale(),
    );
    let mut n = 0u64;
    let timings = time_cases(REPEATS, 1, |_, watch| {
        watch.time(|| {
            for _ in 0..STEPS {
                n += 1;
                step(&client, &format!("wt-{n}"));
            }
        })
    });
    let us = (
        timings[0].0 * 1e6 / STEPS as f64,
        timings[0].1 * 1e6 / STEPS as f64,
    );
    eprintln!(
        "sec50: protocol step wall clock: best {:.2} µs, median {:.2} µs",
        us.0, us.1
    );

    let mut doc = serde_json::json!({
        "bench": "sec50_realtime_sweep",
        "step": "propose + execute of one displacement over NTCP to one site with a 1 ms compute \
                 time; the sweep is virtual time, the wall clock is on a zero-latency network",
        "nproc": cores(),
        "repeats": REPEATS,
        "steps_per_repeat": STEPS,
        "virtual_sweep": sweep,
    });
    put_best_and_median(&mut doc, "protocol_step_wallclock_us", us);
    write_record("sec50_realtime_sweep", "sec50", &doc);
}
