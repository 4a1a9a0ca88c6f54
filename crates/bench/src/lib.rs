//! # neesgrid-bench — shared helpers for the evaluation harness
//!
//! One Criterion bench per paper figure/result (see DESIGN.md's experiment
//! index). This library holds the topology helpers the benches share.

use std::sync::Arc;
use std::time::Duration;

use neesgrid_gridsim::{NetworkConfig, NetworkProfile, NodeId, VirtualNetwork};
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

/// A 2003-grade WAN for end-to-end benches (the campus-WAN preset).
pub fn wan_net() -> VirtualNetwork {
    VirtualNetwork::new(NetworkConfig {
        default_latency: NetworkProfile::CampusWan.latency(),
        ..Default::default()
    })
}
