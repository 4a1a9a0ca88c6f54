//! §4 — security considerations, end to end.
//!
//! "Telecontrol incurs serious health and safety risks … We provide
//! several mechanisms to help alleviate these risks: the usual Grid-based
//! authentication and access control, and the ability in NTCP for sites …
//! to enforce limits on what actions are allowed."

use std::sync::Arc;
use std::time::Duration;

use neesgrid::apparatus::{
    ActuatorConfig, LoadCell, Lvdt, ServoHydraulicActuator, ShoreWesternController,
    ShoreWesternPlugin, SteelColumn,
};
use neesgrid::gridsim::{NetworkConfig, NodeId, SimTime, VirtualNetwork};
use neesgrid::gsi::{
    authenticate, ActionLimits, CertificateAuthority, Credential, DistinguishedName, SitePolicy,
};
use neesgrid::ntcp::{ControlPoint, NtcpClient, NtcpError, NtcpServer, SimulationPlugin};
use neesgrid::ogsi::{RpcClient, RpcError, RpcMux, ServiceContainer};
use neesgrid::structsim::{LinearElastic, SimulatedSubstructure};

struct Rig {
    net: VirtualNetwork,
    ca: CertificateAuthority,
    host_cred: Credential,
}

impl Rig {
    fn new() -> Self {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let ca = CertificateAuthority::nees(77);
        let host_cred = Credential::issue(
            &ca,
            DistinguishedName::nees_host("uiuc", "ntcp"),
            SimTime::ZERO,
            SimTime::from_secs(100_000),
            1,
        );
        Rig { net, ca, host_cred }
    }

    fn user(&self, name: &str, seed: u64, lifetime_s: u64) -> Credential {
        Credential::issue(
            &self.ca,
            DistinguishedName::nees_user("REMOTE", name),
            SimTime::ZERO,
            SimTime::from_secs(lifetime_s),
            seed,
        )
    }

    /// Start a strict (GSI-enforcing) NTCP site; only `admitted` users get
    /// security contexts installed.
    fn start_site(&self, admitted: &[&Credential]) {
        let server = NtcpServer::new(
            "uiuc",
            SitePolicy::permissive("uiuc", ActionLimits::most_large_scale()),
            Box::new(SimulationPlugin::new(
                "sim",
                Box::new(SimulatedSubstructure::spring_to_ground(
                    "col",
                    Box::new(LinearElastic::new(1.0e6)),
                )),
            )),
            self.net.clock(),
        );
        let mut container = ServiceContainer::new(self.net.endpoint("uiuc").unwrap())
            .with_service("ntcp", Box::new(server));
        for cred in admitted {
            let session = authenticate(cred, &self.host_cred, &self.ca.verifier(), SimTime::ZERO)
                .expect("handshake");
            container.install_session(session);
        }
        let _ = container.attach();
    }

    fn client(&self, name: &str, as_user: &DistinguishedName) -> NtcpClient {
        let mux = RpcMux::new(self.net.endpoint(name).unwrap());
        NtcpClient::new(
            RpcClient::new(mux, NodeId::new("uiuc"), "ntcp", as_user.clone())
                .with_attempt_timeout(Duration::from_millis(80)),
        )
    }
}

fn action(d: f64) -> Vec<ControlPoint> {
    vec![ControlPoint::displacement("dof-0", d, 1.0e6 * d.abs())]
}

#[test]
fn unauthenticated_caller_cannot_reach_the_control_system() {
    let rig = Rig::new();
    let alice = rig.user("alice", 10, 100_000);
    rig.start_site(&[&alice]);
    // Mallory never ran the GSI handshake.
    let mallory = DistinguishedName::nees_user("REMOTE", "mallory");
    let client = rig.client("mallory-host", &mallory);
    let err = client
        .propose("t1", action(0.001), SimTime::from_secs(30))
        .unwrap_err();
    assert!(
        matches!(&err, NtcpError::Fault { code, .. } if code == "AccessDenied"),
        "got {err:?}"
    );
}

#[test]
fn authenticated_caller_is_admitted() {
    let rig = Rig::new();
    let alice = rig.user("alice", 10, 100_000);
    rig.start_site(&[&alice]);
    let client = rig.client("alice-host", alice.identity());
    client
        .propose("t1", action(0.001), SimTime::from_secs(30))
        .unwrap();
    let results = client.execute("t1").unwrap();
    assert!((results[0].force_n - 1000.0).abs() < 1e-6);
}

#[test]
fn expired_credential_session_is_refused() {
    let rig = Rig::new();
    let shortlived = rig.user("shortlived", 11, 60);
    rig.start_site(&[&shortlived]);
    let client = rig.client("short-host", shortlived.identity());
    client
        .propose("t1", action(0.001), SimTime::from_secs(30))
        .unwrap();
    // Push the experiment clock past the credential lifetime.
    rig.net.clock().advance_to(SimTime::from_secs(120));
    let err = client
        .propose("t2", action(0.001), SimTime::from_secs(30))
        .unwrap_err();
    assert!(
        matches!(&err, NtcpError::Fault { code, message, .. }
            if code == "AccessDenied" && message.contains("expired")),
        "got {err:?}"
    );
}

#[test]
fn site_force_limits_refuse_dangerous_commands_before_motion() {
    // §4: the site bounds what a *fully authenticated* client may do.
    let net = VirtualNetwork::new(NetworkConfig::default());
    let server = NtcpServer::new(
        "uiuc",
        SitePolicy::permissive("uiuc", ActionLimits::most_large_scale()),
        Box::new(SimulationPlugin::new(
            "sim",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "col",
                Box::new(LinearElastic::new(1.0e6)),
            )),
        )),
        net.clock(),
    );
    let _ = ServiceContainer::new(net.endpoint("uiuc").unwrap())
        .with_service("ntcp", Box::new(server))
        .permissive()
        .attach();
    let mux = RpcMux::new(net.endpoint("client").unwrap());
    let client = NtcpClient::new(RpcClient::new(
        mux,
        NodeId::new("uiuc"),
        "ntcp",
        DistinguishedName::nees_user("NCSA", "Coordinator"),
    ));
    // 200 kN expected force > 100 kN site limit → rejected at proposal.
    let err = client
        .propose(
            "danger",
            vec![ControlPoint::displacement("dof-0", 0.04, 200_000.0)],
            SimTime::from_secs(30),
        )
        .unwrap_err();
    assert!(matches!(&err, NtcpError::Rejected { reason } if reason.contains("force")));
    // Nothing executed.
    assert_eq!(client.get_status().unwrap()["executions"], 0);
}

#[test]
fn hardware_interlock_backstops_the_policy_layer() {
    // Even if the grid-level policy is too lax, the Shore-Western
    // controller's own interlock refuses (defence in depth, §4).
    let net = VirtualNetwork::new(NetworkConfig::default());
    let controller = ShoreWesternController::new(
        ServoHydraulicActuator::new(ActuatorConfig::lab_100kn()),
        Box::new(SteelColumn::most_uiuc()),
        Lvdt::lab_grade("lvdt", 9),
        LoadCell::new("load", 10, 150_000.0),
        10_000.0, // tight hardware interlock
    );
    let plugin = ShoreWesternPlugin::new("uiuc-sw", controller, 0.075);
    let lax = SitePolicy::permissive(
        "uiuc",
        ActionLimits {
            max_displacement_m: 10.0,
            max_velocity_mps: 10.0,
            max_force_n: 1e12,
        },
    );
    let server = NtcpServer::new("uiuc", lax, Box::new(plugin), net.clock());
    let _ = ServiceContainer::new(net.endpoint("uiuc").unwrap())
        .with_service("ntcp", Box::new(server))
        .permissive()
        .attach();
    let mux = RpcMux::new(net.endpoint("client").unwrap());
    let client = NtcpClient::new(RpcClient::new(
        mux,
        NodeId::new("uiuc"),
        "ntcp",
        DistinguishedName::nees_user("NCSA", "Coordinator"),
    ));
    // ~29 kN predicted > 10 kN interlock → plugin review refuses.
    let err = client
        .propose(
            "hot",
            vec![ControlPoint::displacement("dof-0", 0.03, 0.0)],
            SimTime::from_secs(30),
        )
        .unwrap_err();
    assert!(
        matches!(&err, NtcpError::Rejected { reason } if reason.contains("interlock")),
        "got {err:?}"
    );
}

#[test]
fn proxy_delegation_carries_identity_not_more_rights() {
    let rig = Rig::new();
    let alice = rig.user("alice", 10, 100_000);
    // Session installed for the *end entity*; the proxy authenticates as it.
    let proxy = alice
        .delegate(SimTime::ZERO, SimTime::from_secs(600))
        .unwrap();
    rig.start_site(&[&proxy]);
    let client = rig.client("proxy-host", proxy.identity());
    client
        .propose("t1", action(0.001), SimTime::from_secs(30))
        .unwrap();
    // After the proxy expires, the session (bounded by the proxy) dies.
    rig.net.clock().advance_to(SimTime::from_secs(700));
    let err = client
        .propose("t2", action(0.001), SimTime::from_secs(30))
        .unwrap_err();
    assert!(matches!(&err, NtcpError::Fault { code, .. } if code == "AccessDenied"));
    let _ = RpcError::NoRoute; // exercise re-export
    let _ = Arc::strong_count(&rig.net.clock());
}
