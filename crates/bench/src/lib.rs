//! # neesgrid-bench — shared helpers for the evaluation harness
//!
//! One Criterion bench per paper figure/result (see DESIGN.md's experiment
//! index). This library holds the topology helpers the benches share, and
//! the helpers that write a bench's `BENCH_*.json` record.

use std::sync::Arc;
use std::time::Duration;

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
pub fn best_and_median(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
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
