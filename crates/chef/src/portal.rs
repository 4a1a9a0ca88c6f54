//! The portal facade — a thin client of the portal wire service.
//!
//! CHEF no longer owns sessions, chat, or stream fan-out: every one of
//! those flows through the `neesgrid-portal` wire API as length-prefixed
//! JSON frames. Logging in presents the credential's serializable token;
//! chat and the notebook are service-side collaboration boards; the data
//! viewer is fed by polling a facility observer held open on the
//! service. Only strictly client-local equipment stays here: the camera
//! fleet (control gated on a live wire session) and the https download
//! bridge.

use std::sync::Arc;

use bytes::Bytes;

use neesgrid_gridsim::{NetworkError, NodeId, SimClock, SimTime, VirtualNetwork};
use neesgrid_gsi::{Credential, DistinguishedName};
use neesgrid_portal::{
    decode, BoardEntry, ClientError, PortalClient, Request, Response, Role, SamplesView, Session,
};
use neesgrid_repo::{HttpsBridge, Nfms};

use crate::telepresence::CameraServer;
use crate::viewer::DataViewer;

/// The collaboration portal client for one experiment.
pub struct CollabPortal {
    client: PortalClient,
    clock: Arc<SimClock>,
    /// Camera fleet (control is gated on a live wire session).
    pub cameras: CameraServer,
    downloads: u64,
}

/// A facility-stream observer held open on the portal service. Pumping
/// it drains samples over the wire into a [`DataViewer`].
pub struct RemoteFeed {
    client: PortalClient,
    owner: DistinguishedName,
    observer: u64,
    dropped: u64,
}

impl RemoteFeed {
    /// Drain everything currently buffered on the service into `viewer`
    /// (called on the UI cadence). Returns the samples ingested and why
    /// the pump stopped early, if it did: a failed or refused `Poll`, or a
    /// reply the viewer cannot take (a sample older than its channel's
    /// latest). Samples ingested before an error stay ingested and are
    /// counted.
    ///
    /// Each reply of up to 1,024 samples is read in place: the viewer
    /// ingests every sample straight from the reply frame.
    pub fn pump(&mut self, viewer: &mut DataViewer) -> (usize, Result<(), String>) {
        let mut total = 0;
        loop {
            let poll = Request::Poll {
                observer: self.observer,
                max: 1024,
            };
            let frame = match self.client.call_frame(&self.owner, poll) {
                Ok(frame) => frame,
                Err(e) => return (total, Err(e.to_string())),
            };
            let samples = match decode::<SamplesView>(&frame) {
                Ok(SamplesView::Samples {
                    samples, dropped, ..
                }) => {
                    self.dropped = dropped;
                    samples
                }
                Err(_) => return (total, Err(refusal(&frame))),
            };
            if samples.is_empty() {
                return (total, Ok(()));
            }
            for s in &samples {
                if let Err(e) = viewer.ingest(&s.channel, s.t, s.value) {
                    return (total, Err(format!("malformed Poll reply: {e}")));
                }
                total += 1;
            }
        }
    }

    /// Samples this observer has lost to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Release the observer slot on the service.
    pub fn close(self) -> Result<(), String> {
        match self
            .client
            .call_as(
                &self.owner,
                Request::Unobserve {
                    observer: self.observer,
                },
            )
            .map_err(|e| e.to_string())?
        {
            Response::Ok => Ok(()),
            Response::Rejected { rejection } => Err(rejection.to_string()),
            other => Err(format!("unexpected Unobserve reply: {other:?}")),
        }
    }
}

/// Why a `Poll` reply that is not `Samples` stopped the pump, read from
/// the frame as a [`Response`].
fn refusal(frame: &[u8]) -> String {
    match decode::<Response>(frame) {
        Err(e) => ClientError::Frame(e).to_string(),
        Ok(Response::Rejected { rejection }) => rejection.to_string(),
        Ok(Response::Error { message }) => message,
        Ok(other) => format!("unexpected Poll reply: {other:?}"),
    }
}

impl CollabPortal {
    /// Connect a CHEF client node to a served portal on the same control
    /// network.
    pub fn connect(
        net: &VirtualNetwork,
        node: &str,
        portal: impl Into<NodeId>,
    ) -> Result<CollabPortal, NetworkError> {
        let client = PortalClient::connect(net, node, portal)?;
        Ok(CollabPortal {
            clock: Arc::clone(client.clock()),
            client,
            cameras: CameraServer::most(),
            downloads: 0,
        })
    }

    /// The underlying wire client (for operations beyond the facade).
    pub fn client(&self) -> &PortalClient {
        &self.client
    }

    /// Issue a request as `user`, flattening rejections into strings.
    fn call(&self, user: &DistinguishedName, request: Request) -> Result<Response, String> {
        match self
            .client
            .call_as(user, request)
            .map_err(|e| e.to_string())?
        {
            Response::Rejected { rejection } => Err(rejection.to_string()),
            Response::Error { message } => Err(message),
            other => Ok(other),
        }
    }

    /// Log a participant in over the wire.
    pub fn login(&mut self, credential: &Credential, now: SimTime) -> Result<Session, String> {
        self.clock.advance_to(now);
        let user = credential.identity().clone();
        match self.call(
            &user,
            Request::Login {
                token: credential.token(),
            },
        )? {
            Response::Session { role, expires_at } => Ok(Session {
                user,
                role,
                opened_at: now,
                expires_at,
            }),
            other => Err(format!("unexpected Login reply: {other:?}")),
        }
    }

    /// The caller's live role, per the service.
    pub fn whoami(&self, user: &DistinguishedName, now: SimTime) -> Result<Role, String> {
        self.clock.advance_to(now);
        match self.call(user, Request::Whoami)? {
            Response::Session { role, .. } => Ok(role),
            other => Err(format!("unexpected Whoami reply: {other:?}")),
        }
    }

    /// Post to the chat board (requires a Participant+ session).
    pub fn post_chat(
        &mut self,
        user: &DistinguishedName,
        text: impl Into<String>,
        now: SimTime,
    ) -> Result<u64, String> {
        self.post_board(user, "chat", text, now)
    }

    /// Post to the electronic notebook (requires a Participant+ session).
    pub fn post_note(
        &mut self,
        user: &DistinguishedName,
        text: impl Into<String>,
        now: SimTime,
    ) -> Result<u64, String> {
        self.post_board(user, "notebook", text, now)
    }

    fn post_board(
        &mut self,
        user: &DistinguishedName,
        board: &str,
        text: impl Into<String>,
        now: SimTime,
    ) -> Result<u64, String> {
        self.clock.advance_to(now);
        match self.call(
            user,
            Request::Post {
                board: board.to_string(),
                text: text.into(),
            },
        )? {
            Response::Posted { seq } => Ok(seq),
            other => Err(format!("unexpected Post reply: {other:?}")),
        }
    }

    /// Read a collaboration board (any live session).
    pub fn board(&self, user: &DistinguishedName, board: &str) -> Result<Vec<BoardEntry>, String> {
        match self.call(
            user,
            Request::Board {
                board: board.to_string(),
            },
        )? {
            Response::BoardEntries { entries } => Ok(entries),
            other => Err(format!("unexpected Board reply: {other:?}")),
        }
    }

    /// Open a data viewer fed from a facility observer over `pattern`.
    /// Returns the viewer and the remote feed to pump.
    pub fn open_viewer(
        &self,
        user: &DistinguishedName,
        pattern: &str,
        buffer: usize,
    ) -> Result<(DataViewer, RemoteFeed), String> {
        match self.call(
            user,
            Request::ObserveFacility {
                pattern: pattern.to_string(),
                buffer,
            },
        )? {
            Response::Observing { observer } => Ok((
                DataViewer::new(),
                RemoteFeed {
                    client: self.client.clone(),
                    owner: user.clone(),
                    observer,
                    dropped: 0,
                },
            )),
            other => Err(format!("unexpected ObserveFacility reply: {other:?}")),
        }
    }

    /// Take exclusive control of a camera (requires a Participant+
    /// session on the service).
    pub fn acquire_camera(
        &mut self,
        user: &DistinguishedName,
        camera: &str,
        now: SimTime,
    ) -> Result<(), String> {
        let role = self.whoami(user, now)?;
        if role < Role::Participant {
            return Err(format!("{user} is observer-only"));
        }
        self.cameras
            .camera_mut(camera)
            .ok_or_else(|| format!("no camera '{camera}'"))?
            .acquire(user.clone())
    }

    /// Download an archived file through the https bridge (requires a
    /// live session of any role).
    pub fn download(
        &mut self,
        user: &DistinguishedName,
        nfms: &Nfms,
        logical: &str,
        now: SimTime,
    ) -> Result<Bytes, String> {
        self.whoami(user, now)
            .map_err(|e| format!("{user} has no live session: {e}"))?;
        let bytes = HttpsBridge.get(nfms, logical)?;
        self.downloads += 1;
        Ok(bytes)
    }

    /// Files downloaded through the portal.
    pub fn downloads(&self) -> u64 {
        self.downloads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_checkpoint::MemoryCheckpointStore;
    use neesgrid_daq::nsds::{NsdsSample, NsdsServer};
    use neesgrid_gridsim::{MessageKind, NetworkProfile};
    use neesgrid_gsi::CertificateAuthority;
    use neesgrid_portal::{encode, Portal, PortalConfig, RequestFrame, PORTAL_SERVICE};
    use neesgrid_repo::VirtualStore;

    fn setup() -> (VirtualNetwork, CertificateAuthority, Portal, CollabPortal) {
        let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(33));
        let ca = CertificateAuthority::nees(33);
        let service = Portal::serve(
            &net,
            "portal",
            ca.verifier(),
            Arc::new(MemoryCheckpointStore::new()),
            PortalConfig {
                default_role: Role::Observer,
                ..PortalConfig::default()
            },
        )
        .expect("portal node is fresh");
        let portal = CollabPortal::connect(&net, "chef", "portal").expect("client node is fresh");
        (net, ca, service, portal)
    }

    fn participant(ca: &CertificateAuthority, name: &str, seed: u64) -> Credential {
        Credential::issue(
            ca,
            DistinguishedName::nees_user("REMOTE", name),
            SimTime::ZERO,
            SimTime::from_secs(6 * 3600),
            seed,
        )
    }

    #[test]
    fn observer_cannot_chat_participant_can() {
        let (_net, ca, service, mut portal) = setup();
        let obs = participant(&ca, "observer", 1);
        let part = participant(&ca, "participant", 2);
        service.assign_role(part.identity().clone(), Role::Participant);
        portal.login(&obs, SimTime::from_secs(1)).unwrap();
        portal.login(&part, SimTime::from_secs(1)).unwrap();
        assert!(portal
            .post_chat(obs.identity(), "hi", SimTime::from_secs(2))
            .is_err());
        portal
            .post_chat(part.identity(), "step 100 done", SimTime::from_secs(2))
            .unwrap();
        assert_eq!(portal.board(part.identity(), "chat").unwrap().len(), 1);
        // The notebook is a separate board.
        portal
            .post_note(part.identity(), "observations", SimTime::from_secs(3))
            .unwrap();
        assert_eq!(portal.board(part.identity(), "notebook").unwrap().len(), 1);
    }

    #[test]
    fn viewer_fed_from_facility_hub_over_the_wire() {
        let (_net, ca, service, mut portal) = setup();
        let hub = Arc::new(NsdsServer::new());
        service.attach_facility_hub(Arc::clone(&hub));
        let user = participant(&ca, "viewer", 4);
        portal.login(&user, SimTime::from_secs(1)).unwrap();
        let (mut viewer, mut feed) = portal.open_viewer(user.identity(), "resp/*", 256).unwrap();
        for i in 0..50u64 {
            hub.publish(NsdsSample {
                channel: "resp/dof-0".into(),
                t: SimTime::from_millis(i * 10),
                value: i as f64,
            });
        }
        assert_eq!(feed.pump(&mut viewer), (50, Ok(())));
        assert_eq!(feed.dropped(), 0);
        viewer.seek(viewer.live_edge);
        assert_eq!(viewer.visible_series("resp/dof-0").len(), 50);
        feed.close().unwrap();
    }

    #[test]
    fn download_requires_session() {
        let (_net, ca, _service, mut portal) = setup();
        let nfms = Nfms::new(VirtualStore::new());
        let csv = Bytes::from_static(b"x,y");
        nfms.cas().ingest("/most/d.csv", &csv, 1024, SimTime::ZERO);
        let user = participant(&ca, "dl", 3);
        // No session yet.
        assert!(portal
            .download(user.identity(), &nfms, "/most/d.csv", SimTime::from_secs(1))
            .is_err());
        portal.login(&user, SimTime::from_secs(1)).unwrap();
        let bytes = portal
            .download(user.identity(), &nfms, "/most/d.csv", SimTime::from_secs(2))
            .unwrap();
        assert_eq!(&bytes[..], b"x,y");
        assert_eq!(portal.downloads(), 1);
    }

    #[test]
    fn camera_control_gated_by_wire_session_role() {
        let (_net, ca, service, mut portal) = setup();
        let obs = participant(&ca, "watcher", 5);
        let driver = participant(&ca, "driver", 6);
        service.assign_role(driver.identity().clone(), Role::Participant);
        portal.login(&obs, SimTime::from_secs(1)).unwrap();
        portal.login(&driver, SimTime::from_secs(1)).unwrap();
        let camera = portal.cameras.names()[0].to_string();
        assert!(portal
            .acquire_camera(obs.identity(), &camera, SimTime::from_secs(2))
            .is_err());
        portal
            .acquire_camera(driver.identity(), &camera, SimTime::from_secs(2))
            .unwrap();
    }

    #[test]
    fn most_scale_crowd() {
        // §3.4: "over 130 remote participants logged on to observe MOST."
        let (_net, ca, service, mut portal) = setup();
        let hub = Arc::new(NsdsServer::new());
        service.attach_facility_hub(Arc::clone(&hub));
        let mut viewers = Vec::new();
        for i in 0..132 {
            let cred = participant(&ca, &format!("crowd-{i}"), 1000 + i);
            portal.login(&cred, SimTime::from_secs(1)).unwrap();
            viewers.push(
                portal
                    .open_viewer(cred.identity(), "resp/*", 128)
                    .expect("observer slot within quota"),
            );
        }
        // Stream a burst of response data to the whole crowd.
        for i in 0..100u64 {
            hub.publish(NsdsSample {
                channel: "resp/dof-0".into(),
                t: SimTime::from_millis(i * 10),
                value: (i as f64 * 0.01).sin(),
            });
        }
        for (viewer, feed) in viewers.iter_mut() {
            assert_eq!(feed.pump(viewer), (100, Ok(())));
            assert_eq!(feed.dropped(), 0);
        }
        assert!(service.peak_sessions() >= 130);
        assert_eq!(service.stats().observers, 132);
    }

    #[test]
    fn crowd_catches_up_on_exactly_the_tail_of_the_stream() {
        const VIEWERS: usize = 6;
        const BUFFER: usize = 96;
        const PUBLISHED: usize = 1000;
        let (_net, ca, service, mut portal) = setup();
        let hub = Arc::new(NsdsServer::new());
        service.attach_facility_hub(Arc::clone(&hub));
        let mut crowd = Vec::new();
        for i in 0..VIEWERS {
            let cred = participant(&ca, &format!("tail-{i}"), 2000 + i as u64);
            portal.login(&cred, SimTime::from_secs(1)).unwrap();
            crowd.push(portal.open_viewer(cred.identity(), "*", BUFFER).unwrap());
        }
        // Escapes and non-ASCII in the names; −0.0, subnormals and
        // extremes in the values: the viewers' copies must be bit-exact.
        let channels = ["uiuc/lvdt-1", "cu/\"load\"\\1", "ncsa/δ-disp"];
        let published: Vec<NsdsSample> = (0..PUBLISHED)
            .map(|i| NsdsSample {
                channel: channels[i % channels.len()].into(),
                t: SimTime::from_nanos(i as u64 * 10_000_000 + 7),
                value: match i % 5 {
                    0 => -0.0,
                    1 => f64::MIN_POSITIVE / (i as f64 + 2.0),
                    2 => 1e300 / (i as f64 + 1.0),
                    _ => (i as f64 * 0.37).sin(),
                },
            })
            .collect();
        for sample in &published {
            hub.publish(sample.clone());
        }
        let tail = &published[PUBLISHED - BUFFER..];
        for (viewer, feed) in crowd.iter_mut() {
            assert_eq!(feed.pump(viewer), (BUFFER, Ok(())));
            assert_eq!(feed.dropped(), (PUBLISHED - BUFFER) as u64);
            viewer.seek(viewer.live_edge);
            assert_eq!(viewer.channels().len(), channels.len());
            for channel in channels {
                let want: Vec<(SimTime, u64)> = tail
                    .iter()
                    .filter(|s| s.channel == channel)
                    .map(|s| (s.t, s.value.to_bits()))
                    .collect();
                let got: Vec<(SimTime, u64)> = viewer
                    .visible_series(channel)
                    .into_iter()
                    .map(|(t, value)| (t, value.to_bits()))
                    .collect();
                assert_eq!(got, want, "{channel}");
            }
        }
    }

    #[test]
    fn malformed_poll_reply_is_a_feed_error_not_a_panic() {
        // A stub portal that answers every Poll with a sample older than
        // the one before it on the same channel.
        let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(41));
        let stub = net.endpoint("stub-portal").expect("fresh node");
        let replier = stub.clone();
        stub.install_handler(move |env| {
            if env.kind != MessageKind::Request {
                return;
            }
            let frame: RequestFrame = decode(&env.payload).expect("client frames decode");
            let sample = |ms, value| NsdsSample {
                channel: "resp/dof-0".into(),
                t: SimTime::from_millis(ms),
                value,
            };
            let reply = match frame.request {
                Request::ObserveFacility { .. } => Response::Observing { observer: 7 },
                Request::Poll { .. } => Response::Samples {
                    samples: [sample(20, 1.0), sample(10, 2.0)].into_iter().collect(),
                    dropped: 0,
                    done: false,
                },
                other => Response::Error {
                    message: format!("stub serves no {other:?}"),
                },
            };
            replier.send(
                env.src,
                PORTAL_SERVICE,
                MessageKind::Reply,
                env.correlation_id,
                encode(&reply).expect("reply fits a frame"),
            );
        });
        let portal = CollabPortal::connect(&net, "chef", "stub-portal").expect("fresh node");
        let user = DistinguishedName::nees_user("REMOTE", "viewer");
        let (mut viewer, mut feed) = portal.open_viewer(&user, "resp/*", 16).unwrap();
        let (received, result) = feed.pump(&mut viewer);
        assert_eq!(received, 1);
        let err = result.unwrap_err();
        assert!(err.starts_with("malformed Poll reply"), "{err}");
        // The in-order prefix was ingested; the viewer is still usable.
        assert_eq!(viewer.live_edge, SimTime::from_millis(20));
        viewer.seek(viewer.live_edge);
        assert_eq!(
            viewer.visible_series("resp/dof-0"),
            vec![(SimTime::from_millis(20), 1.0)]
        );
        // The next pump takes the reply's in-order sample again (same time
        // as the latest, so accepted) and fails on the older one.
        let (received, result) = feed.pump(&mut viewer);
        assert_eq!(received, 1);
        assert!(result.is_err());
    }
}
