//! A site's checkpoint state travels as the JSON text the `snapshotSite`
//! reply carried: into the snapshot, through the store, and back onto a
//! server, without a byte changing on the way.
//!
//! Random sequences of proposals (accepted and rejected), executions
//! (completed and failed by the plugin), cancellations and protocol
//! faults run against a real `NtcpServer` behind a lossy link, so the
//! state holds transactions in every state, remembered replies and
//! remembered faults, and hysteretic specimen state. Then:
//!
//! * the reply text is a fixed point of parse-then-render, so keeping it
//!   as text stores the bytes re-rendering a parsed tree would;
//! * a snapshot loaded from a store re-encodes to the stored bytes;
//! * restoring it onto a fresh server reproduces the state document.

use std::sync::Arc;
use std::time::Duration;

use neesgrid::checkpoint::snapshot::encode;
use neesgrid::checkpoint::{CheckpointPolicy, CheckpointStore, Checkpointer, RepoCheckpointStore};
use neesgrid::coordinator::{CoordinatorState, ExperimentLog};
use neesgrid::gridsim::{
    FaultAction, FaultPlan, LinkKey, NetworkConfig, NodeId, RateFault, SimTime, VirtualNetwork,
};
use neesgrid::gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid::ntcp::{
    ControlPlugin, ControlPoint, ExecuteOutcome, NtcpClient, NtcpServer, PluginError,
    SimulationPlugin,
};
use neesgrid::ogsi::{RpcClient, RpcMux, ServiceContainer};
use neesgrid::repo::VirtualStore;
use neesgrid::structsim::psd::PsdHistory;
use neesgrid::structsim::{BilinearHysteretic, SimulatedSubstructure};
use proptest::prelude::*;
use serde_json::Value;

const SITE: &str = "uiuc";
const RUN_ID: &str = "prop";

/// A yielding specimen whose plugin fails executions on request: a
/// control point named `jam` fails transiently, `trip` permanently.
struct Flaky(SimulationPlugin);

impl ControlPlugin for Flaky {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String> {
        self.0.review(actions)
    }

    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
        match actions[0].name.as_str() {
            "jam" => Err(PluginError::transient("actuator jammed")),
            "trip" => Err(PluginError::permanent("interlock tripped")),
            _ => self.0.execute(actions),
        }
    }

    fn state(&self) -> Option<Value> {
        self.0.state()
    }

    fn restore(&mut self, state: &Value) -> Result<(), PluginError> {
        self.0.restore(state)
    }
}

/// A client on its own endpoint `from`, talking to the site.
fn client(net: &VirtualNetwork, from: &str) -> NtcpClient {
    let mux = RpcMux::new(net.endpoint(from).expect("fresh endpoint"));
    NtcpClient::new(
        RpcClient::new(
            mux,
            NodeId::new(SITE),
            "ntcp",
            DistinguishedName::nees_user("NCSA", "Coordinator"),
        )
        .with_attempt_timeout(Duration::from_millis(80)),
    )
}

/// A network with the site served on it.
fn site_network() -> VirtualNetwork {
    let net = VirtualNetwork::new(NetworkConfig::default());
    let plugin = SimulationPlugin::new(
        "uiuc-sim",
        Box::new(SimulatedSubstructure::spring_to_ground(
            "col",
            Box::new(BilinearHysteretic::new(2.0e5, 800.0, 0.1)),
        )),
    );
    let server = NtcpServer::new(
        SITE,
        SitePolicy::permissive(SITE, ActionLimits::most_large_scale()),
        Box::new(Flaky(plugin)),
        net.clock(),
    );
    let container = ServiceContainer::new(net.endpoint(SITE).expect("fresh endpoint"))
        .with_service("ntcp", Box::new(server))
        .permissive();
    let _handle = container.attach();
    net
}

/// A checkpointer for the site on its own `checkpointer` endpoint.
fn checkpointer(net: &VirtualNetwork, store: Arc<dyn CheckpointStore>) -> Checkpointer {
    let ck_client = client(net, "checkpointer");
    let mux = RpcMux::new(net.endpoint("coordinator-ck").expect("fresh endpoint"));
    Checkpointer::new(
        RUN_ID,
        CheckpointPolicy::every(1),
        store,
        vec![(SITE.to_string(), ck_client)],
        mux,
        net.clock(),
    )
}

/// Run one generated operation; its outcome only shapes the server state.
fn apply(client: &NtcpClient, names: &mut Vec<String>, op: u8, arg: u16) {
    let pick = |names: &[String]| names.get(usize::from(arg) % names.len().max(1)).cloned();
    let timeout = SimTime::from_secs(30);
    let point = |name: &str| {
        let d = (f64::from(arg) / f64::from(u16::MAX) - 0.5) * 0.02;
        vec![ControlPoint::displacement(name, d, 100.0)]
    };
    match op {
        // A fresh proposal, executed or not later.
        0..=2 => {
            let name = format!("tx-{}", names.len());
            let _ = client.propose(&name, point("dof-0"), timeout);
            names.push(name);
        }
        // Over the site's displacement limit: rejected before motion.
        3 => {
            let name = format!("tx-{}", names.len());
            let big = vec![ControlPoint::displacement("dof-0", 0.5, 100.0)];
            let _ = client.propose(&name, big, timeout);
            names.push(name);
        }
        4 | 5 => {
            if let Some(name) = pick(names) {
                let _ = client.execute(&name);
            }
        }
        6 => {
            if let Some(name) = pick(names) {
                let _ = client.cancel(&name);
            }
        }
        // Plugin failures, remembered as faults.
        7 => {
            let name = format!("tx-{}", names.len());
            let which = if arg.is_multiple_of(2) { "jam" } else { "trip" };
            let _ = client.propose(&name, point(which), timeout);
            let _ = client.execute(&name);
            names.push(name);
        }
        // Protocol faults: an unknown or a duplicate transaction.
        _ => {
            let _ = client.execute("no-such-tx");
            if let Some(name) = pick(names) {
                let _ = client.propose(&name, point("dof-0"), timeout);
            }
        }
    }
}

fn coordinator_state(step: u64) -> CoordinatorState {
    CoordinatorState {
        step,
        d_prev: vec![0.0],
        d_curr: vec![0.0],
        history: PsdHistory {
            dt: 0.01,
            displacement: Vec::new(),
            velocity: Vec::new(),
            acceleration: Vec::new(),
            restoring: Vec::new(),
            steps_completed: 0,
        },
        log: ExperimentLog::new(),
        retransmissions: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn site_state_keeps_its_bytes_from_reply_to_store_to_server(
        ops in proptest::collection::vec((0u8..9, any::<u16>()), 1..32),
        drop_per_mille in 0u16..300,
        salt in any::<u64>(),
    ) {
        let net = site_network();
        // Lose some replies and duplicate some requests on the experiment
        // link, so retransmissions replay remembered outcomes.
        let mut plan = FaultPlan::reliable();
        plan.rate(RateFault {
            link: Some(LinkKey::new(SITE, "coordinator")),
            per_mille: drop_per_mille,
            action: FaultAction::Drop,
            salt,
        });
        plan.rate(RateFault {
            link: Some(LinkKey::new("coordinator", SITE)),
            per_mille: drop_per_mille / 2,
            action: FaultAction::Duplicate,
            salt: salt ^ 1,
        });
        net.set_fault_plan(plan);
        let coordinator = client(&net, "coordinator");
        let mut names = Vec::new();
        for &(op, arg) in &ops {
            apply(&coordinator, &mut names, op, arg);
        }

        let reply = client(&net, "probe").snapshot_site().expect("snapshotSite answers");
        let reparsed: Value = serde_json::from_str(reply.get()).expect("reply is JSON");
        prop_assert_eq!(reparsed.to_string(), reply.get());

        let backing = VirtualStore::new();
        let store: Arc<dyn CheckpointStore> =
            Arc::new(RepoCheckpointStore::new(backing.clone(), net.clock(), "/ckpt"));
        let step = ops.len() as u64;
        checkpointer(&net, Arc::clone(&store))
            .save(&coordinator_state(step))
            .expect("snapshot saves");
        let stored = backing
            .get(&format!("/ckpt/{RUN_ID}/checkpoints/step-{step:06}.ckpt"))
            .expect("snapshot is stored")
            .content;
        let snapshot = store.load(RUN_ID, step).expect("snapshot loads");
        prop_assert_eq!(snapshot.sites[0].state.get(), reply.get());
        prop_assert_eq!(&encode(&snapshot)[..], &stored[..]);

        let fresh = site_network();
        checkpointer(&fresh, store)
            .prepare_resume(&snapshot)
            .expect("site state restores");
        let restored = client(&fresh, "probe").snapshot_site().expect("snapshotSite answers");
        prop_assert_eq!(restored.get(), reply.get());
    }
}
