//! Quickstart: one NTCP site, three transactions.
//!
//! The smallest NEESgrid experiment: stand up a virtual network, host an
//! NTCP server whose control plugin drives a numerical substructure, and
//! walk a client through the propose → execute → inspect protocol —
//! including a rejection by site policy and a cancellation.
//!
//! Run with: `cargo run --example quickstart`

use std::time::Duration;

use neesgrid::gridsim::{NetworkConfig, NodeId, SimTime, VirtualNetwork};
use neesgrid::gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid::ntcp::{ControlPoint, NtcpClient, NtcpServer, SimulationPlugin};
use neesgrid::ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid::structsim::{LinearElastic, SimulatedSubstructure};

fn main() {
    // 1. A virtual grid network with one experiment site.
    let net = VirtualNetwork::new(NetworkConfig::default());

    // 2. The site: an NTCP server whose plugin drives a 200 kN/m column
    //    model, under MOST-grade policy limits (±50 mm, 100 kN).
    let substructure =
        SimulatedSubstructure::spring_to_ground("demo-column", Box::new(LinearElastic::new(2.0e5)));
    let server = NtcpServer::new(
        "demo-site",
        SitePolicy::permissive("demo-site", ActionLimits::most_large_scale()),
        Box::new(SimulationPlugin::new("demo-plugin", Box::new(substructure))),
        net.clock(),
    );
    let _site = ServiceContainer::new(net.endpoint("demo-site").unwrap())
        .with_service("ntcp", Box::new(server))
        .permissive()
        .attach();

    // 3. A client.
    let mux = RpcMux::new(net.endpoint("operator").unwrap());
    let client = NtcpClient::new(
        RpcClient::new(
            mux,
            NodeId::new("demo-site"),
            "ntcp",
            DistinguishedName::nees_user("DEMO", "Operator"),
        )
        .with_attempt_timeout(Duration::from_millis(100)),
    );

    // 4. Propose and execute a 10 mm displacement.
    client
        .propose(
            "step-1",
            vec![ControlPoint::displacement("dof-0", 0.010, 2_000.0)],
            SimTime::from_secs(30),
        )
        .expect("proposal accepted");
    let results = client.execute("step-1").expect("execution");
    println!(
        "step-1: imposed {:.4} m, measured restoring force {:.1} N",
        results[0].displacement_m, results[0].force_n
    );

    // 5. A dangerous proposal is refused before anything moves.
    let err = client
        .propose(
            "step-2",
            vec![ControlPoint::displacement("dof-0", 0.5, 100_000.0)],
            SimTime::from_secs(30),
        )
        .expect_err("policy must refuse");
    println!("step-2 refused: {err}");

    // 6. Propose, think better of it, cancel.
    client
        .propose(
            "step-3",
            vec![ControlPoint::displacement("dof-0", -0.005, 1_000.0)],
            SimTime::from_secs(30),
        )
        .expect("proposal accepted");
    client.cancel("step-3").expect("cancelled");
    println!("step-3 cancelled before execution");

    // 7. Inspect the server's transaction ledger via OGSI service data.
    let status = client.get_status().expect("status");
    println!(
        "server status: {} transactions ({} completed, {} rejected, {} cancelled), {} executions",
        status["transactions"],
        status["completed"],
        status["rejected"],
        status["cancelled"],
        status["executions"],
    );
    let t1 = client
        .get_transaction("step-1")
        .expect("transaction record");
    println!(
        "step-1 final state: {} (state trail length {})",
        t1["state"],
        t1["timestamps"].as_array().map(Vec::len).unwrap_or(0)
    );
}
