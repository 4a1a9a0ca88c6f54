//! # neesgrid-bench — shared helpers for the evaluation harness
//!
//! One bench per paper figure/result (see DESIGN.md's experiment index),
//! each timing its cases through [`time_cases`] and writing one
//! `BENCH_*.json` record through [`write_record`]. This library also holds
//! the topology helpers the benches share.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;

use neesgrid_gridsim::{NetworkConfig, NodeId, VirtualNetwork};
use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid_ntcp::{ControlPlugin, NtcpClient, NtcpServer};
use neesgrid_ogsi::{RpcClient, RpcMux, ServiceContainer};

/// Stand up one permissive NTCP site over `plugin` and return a client.
/// The network handle must outlive the client.
pub fn single_site(
    net: &VirtualNetwork,
    name: &str,
    plugin: Box<dyn ControlPlugin>,
    limits: ActionLimits,
) -> NtcpClient {
    let server = NtcpServer::new(
        name,
        SitePolicy::permissive(name, limits),
        plugin,
        net.clock(),
    );
    let _handle = ServiceContainer::new(net.endpoint(name).expect("endpoint name is unique"))
        .with_service("ntcp", Box::new(server))
        .permissive()
        .attach();
    let mux = RpcMux::new(
        net.endpoint(format!("bench-client-{name}"))
            .expect("endpoint name is unique"),
    );
    NtcpClient::new(
        RpcClient::new(
            Arc::clone(&mux),
            NodeId::new(name),
            "ntcp",
            DistinguishedName::nees_user("BENCH", "driver"),
        )
        .with_attempt_timeout(Duration::from_millis(200)),
    )
}

/// A zero-latency network for protocol-cost benches.
pub fn loopback_net() -> VirtualNetwork {
    VirtualNetwork::new(NetworkConfig::default())
}

/// `(best, median)` of a set of timings: the smallest and the upper
/// median. Panics on an empty set.
fn best_and_median(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
}

/// The part of one run of a case that [`time_cases`] records: only what
/// runs inside [`Stopwatch::time`]. A case builds the fresh state it needs
/// before that call and checks what it returned after it, untimed.
pub struct Stopwatch(Duration);

impl Stopwatch {
    /// Run `work` and add its wall time to this run's sample.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(work());
        self.0 += started.elapsed();
        out
    }
}

/// Time `cases` cases in rounds, `run(case, watch)` running case `case`
/// once, and return each case's `(best, median)` in seconds.
///
/// An untimed warm-up pass runs every case once. Each of the `repeats`
/// rounds then runs every case once, starting with case `round % cases`
/// and going on in order, so each case leads once in every `cases`
/// consecutive rounds. The host this was tuned on slows by up to 1.8x for
/// seconds at a time: the rotation spreads that over every case, and the
/// best rarely sees it.
pub fn time_cases(
    repeats: usize,
    cases: usize,
    mut run: impl FnMut(usize, &mut Stopwatch),
) -> Vec<(f64, f64)> {
    for case in 0..cases {
        run(case, &mut Stopwatch(Duration::ZERO));
    }
    let mut samples = vec![Vec::with_capacity(repeats); cases];
    for round in 0..repeats {
        for k in 0..cases {
            let case = (round + k) % cases;
            let mut watch = Stopwatch(Duration::ZERO);
            run(case, &mut watch);
            samples[case].push(watch.0.as_secs_f64());
        }
    }
    samples.into_iter().map(best_and_median).collect()
}

/// Put a `(best, median)` pair into `doc`, a record object, as `key` and
/// `median_{key}`.
pub fn put_best_and_median(doc: &mut Value, key: &str, (best, median): (f64, f64)) {
    let Value::Object(m) = doc else {
        panic!("a record is a JSON object");
    };
    m.insert(key.to_string(), best.into());
    m.insert(format!("median_{key}"), median.into());
}

/// The cores this process may run on, recorded beside every timing.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Write `doc` as `BENCH_{name}.json` at the repository root, and say so
/// on stderr under the bench's `label`.
pub fn write_record(label: &str, name: &str, doc: &Value) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = serde_json::to_string_pretty(doc).expect("serialize");
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("{label}: wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_case_leads_once_in_every_len_consecutive_rounds() {
        let mut order = Vec::new();
        assert_eq!(time_cases(7, 3, |case, _| order.push(case)).len(), 3);
        assert_eq!(order.len(), 3 + 7 * 3, "a warm-up pass, then 7 rounds");
        let rounds: Vec<&[usize]> = order[3..].chunks(3).collect();
        for round in &rounds {
            let mut cases = round.to_vec();
            cases.sort();
            assert_eq!(cases, [0, 1, 2], "every case runs once a round");
        }
        for window in rounds.windows(3) {
            let mut leaders: Vec<usize> = window.iter().map(|round| round[0]).collect();
            leaders.sort();
            assert_eq!(leaders, [0, 1, 2], "each case leads once in 3 rounds");
        }
    }

    #[test]
    fn warm_up_and_setup_are_not_recorded() {
        let (work, pause) = (Duration::from_millis(5), Duration::from_millis(100));
        let mut runs = 0;
        let timings = time_cases(3, 1, |_, watch| {
            runs += 1;
            if runs == 1 {
                // The warm-up pass: what it times is dropped.
                watch.time(|| std::thread::sleep(pause));
            } else {
                std::thread::sleep(pause); // fresh state, built untimed
                watch.time(|| std::thread::sleep(work));
            }
        });
        assert_eq!(runs, 4);
        let (best, median) = timings[0];
        assert!(
            best >= work.as_secs_f64(),
            "best {best} s misses the timed work"
        );
        assert!(median < 0.06, "median {median} s counts untimed work");
    }

    #[test]
    fn best_and_median_of_known_samples() {
        assert_eq!(best_and_median(vec![3.0, 1.0, 2.0]), (1.0, 2.0));
        assert_eq!(best_and_median(vec![5.0, 9.0, 1.0, 7.0, 3.0]), (1.0, 5.0));
        // An even count takes the upper median.
        assert_eq!(best_and_median(vec![4.0, 1.0, 3.0, 2.0]), (1.0, 3.0));
        assert_eq!(best_and_median(vec![2.0, 8.0]), (2.0, 8.0));
    }
}
