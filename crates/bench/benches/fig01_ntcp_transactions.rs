//! E1 (Figure 1) — NTCP transaction state machine.
//!
//! Regenerates the behavioural content of the state-transition figure:
//! the cost of each protocol phase (propose, execute, cancel, full
//! lifecycle over the network) and of the pure in-memory state machine.
//! `BENCH_fig01.json` at the repo root gets the best and median µs per
//! operation of each, with the core count and the repeats.

use std::hint::black_box;

use neesgrid_bench::{
    cores, loopback_net, put_best_and_median, single_site, time_cases, write_record,
};
use neesgrid_gridsim::SimTime;
use neesgrid_gsi::ActionLimits;
use neesgrid_ntcp::{ControlPoint, SimulationPlugin, Transaction, TxState};
use neesgrid_structsim::{LinearElastic, SimulatedSubstructure};

/// Operations timed together in one repeat of one case.
const OPS: usize = 1000;
/// Timed rounds.
const REPEATS: usize = 21;
/// The cases, in the order of their first round.
const OPERATIONS: [&str; 5] = [
    "state_machine_full_lifecycle",
    "propose_accept",
    "propose_execute_lifecycle",
    "propose_cancel",
    "propose_rejected_by_policy",
];

fn plugin() -> Box<SimulationPlugin> {
    Box::new(SimulationPlugin::new(
        "bench-sim",
        Box::new(SimulatedSubstructure::spring_to_ground(
            "col",
            Box::new(LinearElastic::new(2.0e5)),
        )),
    ))
}

fn action(d: f64) -> Vec<ControlPoint> {
    vec![ControlPoint::displacement("dof-0", d, 2.0e5 * d.abs())]
}

fn full_lifecycle() {
    let mut tx = Transaction::propose(
        "t",
        action(0.001),
        SimTime::from_secs(30),
        SimTime::from_secs(1),
    );
    tx.transition(TxState::Accepted, SimTime::from_secs(2))
        .unwrap();
    tx.transition(TxState::Executing, SimTime::from_secs(3))
        .unwrap();
    tx.transition(TxState::Completed, SimTime::from_secs(4))
        .unwrap();
    black_box(tx.to_sde_value());
}

fn main() {
    let net = loopback_net();
    let client = single_site(&net, "site", plugin(), ActionLimits::most_large_scale());
    let propose = |tx: &str| {
        client
            .propose(tx, action(0.001), SimTime::from_secs(30))
            .unwrap()
    };
    let mut n = 0u64;
    let timings = time_cases(REPEATS, OPERATIONS.len(), |case, watch| {
        watch.time(|| {
            for _ in 0..OPS {
                if case == 0 {
                    full_lifecycle();
                    continue;
                }
                n += 1;
                let tx = &format!("t-{n}");
                match case {
                    1 => propose(tx),
                    2 => {
                        propose(tx);
                        black_box(client.execute(tx).unwrap());
                    }
                    3 => {
                        propose(tx);
                        client.cancel(tx).unwrap();
                    }
                    _ => {
                        let err = client
                            .propose(tx, action(9.0), SimTime::from_secs(30))
                            .unwrap_err();
                        black_box(err);
                    }
                }
            }
        })
    });

    let mut doc = serde_json::json!({
        "bench": "fig01_ntcp_transactions",
        "operations": "the in-memory state machine's propose → accepted → executing → completed \
                       lifecycle, then over loopback RPC to one NTCP site: propose (accepted), \
                       propose + execute, propose + cancel, and a propose the site policy refuses",
        "nproc": cores(),
        "repeats": REPEATS,
        "ops_per_repeat": OPS,
    });
    for (name, (best, median)) in OPERATIONS.iter().zip(timings) {
        let us = (best * 1e6 / OPS as f64, median * 1e6 / OPS as f64);
        eprintln!(
            "fig01: {name:<29} best {:>8.2} µs, median {:>8.2}",
            us.0, us.1
        );
        put_best_and_median(&mut doc, &format!("{name}_us"), us);
    }
    write_record("fig01_ntcp_transactions", "fig01", &doc);
}
