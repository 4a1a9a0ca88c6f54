//! Decoders of untrusted bytes never panic, and portal frames round-trip.
//!
//! Traces come back from disk and corpus entries; portal frames come off
//! the wire; scenarios are text anyone can edit. Whatever the bytes, the
//! JSON parser, the trace-signature extractor, the report renderer, the
//! portal frame decoder (requests and replies), the hex decoder artifact
//! chunks go through and the scenario DSL parser answer with a result or
//! an error: no panic, no stack overflow, and a scenario error names a line
//! of its input. Inputs are random bytes, JSON- and DSL-token soup, and
//! truncations and byte flips of the lines of a real trace and of the
//! committed scenarios. Every request and reply the portal speaks decodes
//! back to itself from its own frame.

use std::sync::OnceLock;

use neesgrid::campaign::ScenarioDoc;
use neesgrid::daq::nsds::NsdsSample;
use neesgrid::gridsim::{FaultPlan, LinkKey, NetworkProfile, SimTime};
use neesgrid::gsi::{CertificateAuthority, Credential, DistinguishedName, PolicyDecision};
use neesgrid::most::n_site_with_telemetry;
use neesgrid::portal::{
    decode, encode, BoardEntry, ExperimentSpec, LinkProfile, MotionSuite, PortalStats, Rejection,
    Request, RequestFrame, Response, Role, RunPolicy, RunReport, RunState, SiteKind,
};
use neesgrid::repo::from_hex;
use neesgrid::structsim::psd::PsdHistory;
use neesgrid::telemetry::{render_report, Telemetry, TraceSignature};
use proptest::prelude::*;
use serde_json::Value;

/// The trace of a short three-site run: every event kind, span ids,
/// string and numeric fields, and metric lines.
fn trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let telemetry = Telemetry::recording();
        n_site_with_telemetry(3, 7, telemetry.clone()).run(3);
        telemetry.export_jsonl()
    })
}

/// The committed `scenarios/*.scn` files, in name order.
fn scenarios() -> &'static [String] {
    static SCENARIOS: OnceLock<Vec<String>> = OnceLock::new();
    SCENARIOS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("the scenarios directory exists")
            .map(|entry| entry.expect("a readable entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "scn"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|path| std::fs::read_to_string(path).expect("a readable scenario"))
            .collect()
    })
}

/// Parse `text` as a scenario: a document, or an error on one of its lines.
fn parse_scenario(text: &str) {
    if let Err(e) = ScenarioDoc::parse(text) {
        let lines = text.split('\n').count();
        assert!(
            (1..=lines).contains(&e.line),
            "{e} names a line outside the {lines}-line input {text:?}"
        );
    }
}

/// `body` behind its 4-byte length prefix.
fn frame(body: &str) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    frame
}

/// Feed `text` to every decoder, alone and appended to the real trace.
fn decode_everywhere(text: &str) {
    parse_scenario(text);
    let _ = serde_json::from_str::<Value>(text);
    let _ = decode::<RequestFrame>(&frame(text));
    let _ = decode::<Response>(&frame(text));
    // As an artifact chunk's data, `text` (odd-length, non-hex or not)
    // reaches the hex decoder the portal client runs on every chunk.
    let chunk = serde_json::json!({"Artifact": {
        "artifact": "trace.jsonl", "total_len": 1, "digest": 0, "offset": 0,
        "data": text, "eof": true,
    }});
    let chunk = serde_json::to_string(&chunk).expect("a JSON value serializes");
    match decode::<Response>(&frame(&chunk)) {
        Ok(Response::Artifact { data, .. }) => {
            assert_eq!(data, text);
            let _ = from_hex(&data);
        }
        other => panic!("a well-formed artifact frame decodes: {other:?}"),
    }
    for jsonl in [text.to_string(), format!("{}{text}", trace())] {
        let _ = TraceSignature::from_jsonl(&jsonl);
        let _ = render_report(&jsonl);
    }
}

/// Space-separated tokens that steer the parser into every branch.
const JSON_TOKENS: &str =
    "[ ] { } \" : , \\ \\u d83d 0 - 1e999 . e + null tru false \n é \u{1} \"kind\" \"span_start\"";

/// The DSL's keywords, punctuation and edge-case numbers, space-separated.
const DSL_TOKENS: &str = "campaign \"x\" { } [ ] ; , : = -> - .. . / # \n \" motion sites \
    network faults run sweep suite amplitude count mix profile link drop reset dup rate on at \
    step phase propose execute message kill worker tick steps checkpoint-every policy seeds \
    strong numerical campus-wan partial 0 1 1.5 1000 9223372036854775807 \
    9223372036854775808 18446744073709551616 \"coordinator\" \"site-000\" é";

proptest! {
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        decode_everywhere(&String::from_utf8_lossy(&bytes));
        let _ = decode::<RequestFrame>(&bytes);
        let _ = decode::<Response>(&bytes);
    }

    #[test]
    fn json_token_soup_never_panics(picks in proptest::collection::vec(any::<usize>(), 0..400)) {
        let tokens: Vec<&str> = JSON_TOKENS.split(' ').collect();
        decode_everywhere(&picks.iter().map(|&i| tokens[i % tokens.len()]).collect::<String>());
    }

    #[test]
    fn dsl_token_soup_never_panics(picks in proptest::collection::vec(any::<usize>(), 0..200)) {
        // Split on spaces only, so the newline stays a token.
        let tokens: Vec<&str> = DSL_TOKENS.split(' ').collect();
        let soup: Vec<&str> = picks.iter().map(|&i| tokens[i % tokens.len()]).collect();
        parse_scenario(&soup.join(" "));
        parse_scenario(&format!("campaign \"soup\" {{ {} }}", soup.join(" ")));
    }

    #[test]
    fn cut_and_flipped_scenarios_never_panic(
        file in any::<usize>(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let scenarios = scenarios();
        prop_assert!(scenarios.len() >= 5, "the committed scenarios are read");
        let text = &scenarios[file % scenarios.len()];
        prop_assert!(ScenarioDoc::parse(text).is_ok(), "a committed scenario parses");
        let mut bytes = text.as_bytes().to_vec();
        let at = at % bytes.len();
        parse_scenario(&String::from_utf8_lossy(&bytes[..at]));
        bytes[at] ^= mask;
        parse_scenario(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn cut_and_flipped_trace_lines_never_panic(
        line in any::<usize>(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let lines: Vec<&str> = trace().lines().collect();
        prop_assert!(lines.len() > 50, "the traced run emits a real trace");
        let mut bytes = lines[line % lines.len()].as_bytes().to_vec();
        let at = at % bytes.len();
        decode_everywhere(&String::from_utf8_lossy(&bytes[..at]));
        bytes[at] ^= mask;
        decode_everywhere(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn committed_scenarios_with_edge_numbers_never_panic() {
    const EDGES: [&str; 6] = [
        "0",
        "1000",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551615",
        "18446744073709551616",
    ];
    for text in scenarios() {
        // Every run of digits in turn, comments included, becomes each edge.
        let mut at = 0;
        while let Some(start) = text[at..].find(|c: char| c.is_ascii_digit()) {
            let start = at + start;
            let end = text[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(text.len(), |len| start + len);
            for edge in EDGES {
                parse_scenario(&format!("{}{edge}{}", &text[..start], &text[end..]));
            }
            at = end;
        }
    }
}

/// Deterministic source for generated frames (xorshift64*).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn usize(&mut self) -> usize {
        (self.next() >> self.below(64)) as usize
    }

    /// A finite float: JSON does not carry non-finite values.
    fn f64(&mut self) -> f64 {
        match self.below(3) {
            0 => [0.0, -0.0, 1e-300, 0.05, -2.5e9, f64::MAX][self.below(6)],
            1 => Some(f64::from_bits(self.next()))
                .filter(|f| f.is_finite() && *f != 0.0)
                .unwrap_or(1.5),
            _ => (self.next() as i64) as f64 / 1e6,
        }
    }

    fn text(&mut self) -> String {
        const CHARS: [char; 10] = ['a', 'Z', ' ', '"', '\\', '\n', '\u{1}', 'é', '日', '😀'];
        (0..self.below(12))
            .map(|_| CHARS[self.below(CHARS.len())])
            .collect()
    }

    fn dn(&mut self) -> DistinguishedName {
        DistinguishedName::nees_user(&self.text(), &self.text())
    }

    fn time(&mut self) -> SimTime {
        SimTime::from_nanos(self.next())
    }

    fn role(&mut self) -> Role {
        [Role::Observer, Role::Participant, Role::Operator][self.below(3)]
    }

    fn profile(&mut self) -> NetworkProfile {
        [
            NetworkProfile::Lan,
            NetworkProfile::CampusWan,
            NetworkProfile::LossyWan,
        ][self.below(3)]
    }

    fn spec(&mut self) -> ExperimentSpec {
        let mut spec = ExperimentSpec::basic(self.usize(), self.usize(), self.next(), self.next());
        spec.profile = self.profile();
        spec.links = (0..self.below(3))
            .map(|_| LinkProfile {
                src: self.text(),
                dst: self.text(),
                profile: self.profile(),
            })
            .collect();
        spec.mix = (0..self.below(3))
            .map(|_| [SiteKind::Numerical, SiteKind::Emulated][self.below(2)])
            .collect();
        let mut faults = FaultPlan::reliable();
        for _ in 0..self.below(3) {
            let link = LinkKey::new(self.text(), self.text());
            if self.coin() {
                faults.drop_at(link, self.next());
            } else {
                faults.reset_at(link, self.next());
            }
        }
        spec.faults = faults;
        spec.policy = [RunPolicy::Full, RunPolicy::Partial][self.below(2)];
        spec.motion = [
            MotionSuite::Nominal,
            MotionSuite::Strong,
            MotionSuite::Extreme,
        ][self.below(3)];
        spec.amplitude = self.f64();
        spec.record_trace = self.coin();
        spec
    }

    fn request(&mut self) -> Request {
        match self.below(16) {
            0 => {
                let ca = CertificateAuthority::nees(self.next());
                let cred = Credential::issue(&ca, self.dn(), self.time(), self.time(), self.next());
                Request::Login {
                    token: cred.token(),
                }
            }
            1 => Request::Logout,
            2 => Request::Whoami,
            3 => Request::Submit { spec: self.spec() },
            4 => Request::Status { run: self.text() },
            5 => Request::Fetch { run: self.text() },
            6 => Request::FetchArtifact {
                run: self.text(),
                artifact: self.text(),
                offset: self.next(),
                max: self.usize(),
            },
            7 => Request::Cancel { run: self.text() },
            8 => Request::Observe {
                run: self.text(),
                channels: self.text(),
                buffer: self.usize(),
            },
            9 => Request::ObserveFacility {
                pattern: self.text(),
                buffer: self.usize(),
            },
            10 => Request::Poll {
                observer: self.next(),
                max: self.usize(),
            },
            11 => Request::Unobserve {
                observer: self.next(),
            },
            12 => Request::Post {
                board: self.text(),
                text: self.text(),
            },
            13 => Request::Board { board: self.text() },
            _ => Request::Stats,
        }
    }

    fn rejection(&mut self) -> Rejection {
        match self.below(11) {
            0 => Rejection::NotLoggedIn,
            1 => Rejection::BadCredential { error: self.text() },
            2 => Rejection::AlreadyLoggedIn,
            3 => Rejection::RoleDenied { need: self.role() },
            4 => Rejection::QueueFull {
                capacity: self.usize(),
            },
            5 => Rejection::QuotaConcurrent {
                limit: self.usize(),
            },
            6 => Rejection::QuotaSteps {
                limit: self.next(),
                requested: self.next(),
                used: self.next(),
            },
            7 => Rejection::QuotaObservers {
                limit: self.usize(),
            },
            8 => Rejection::CrossTenant {
                decision: PolicyDecision {
                    allowed: self.coin(),
                    reason: self.text(),
                },
            },
            9 => Rejection::UnknownRun { run: self.text() },
            _ => Rejection::BadSpec {
                reason: self.text(),
            },
        }
    }

    fn rows(&mut self) -> Vec<Vec<f64>> {
        (0..self.below(3))
            .map(|_| (0..self.below(3)).map(|_| self.f64()).collect())
            .collect()
    }

    fn response(&mut self) -> Response {
        match self.below(13) {
            0 => Response::Ok,
            1 => Response::Session {
                role: self.role(),
                expires_at: self.time(),
            },
            2 => Response::Submitted {
                run: self.text(),
                queued: self.usize(),
            },
            3 => Response::Rejected {
                rejection: self.rejection(),
            },
            4 => Response::Status {
                report: RunReport {
                    run: self.text(),
                    state: match self.below(6) {
                        0 => RunState::Queued,
                        1 => RunState::Running {
                            worker: self.usize(),
                        },
                        2 => RunState::Rescheduling,
                        3 => RunState::Completed,
                        4 => RunState::Cancelled,
                        _ => RunState::Failed { error: self.text() },
                    },
                    steps_completed: self.usize(),
                    steps_requested: self.usize(),
                },
            },
            5 => Response::Observing {
                observer: self.next(),
            },
            6 => Response::Samples {
                samples: (0..self.below(4))
                    .map(|_| NsdsSample {
                        channel: self.text(),
                        t: self.time(),
                        value: self.f64(),
                    })
                    .collect(),
                dropped: self.next(),
                done: self.coin(),
            },
            7 => Response::Artifact {
                artifact: self.text(),
                total_len: self.next(),
                digest: self.next() as u32,
                offset: self.next(),
                data: self.text(),
                eof: self.coin(),
            },
            8 => Response::History {
                history: PsdHistory {
                    dt: self.f64(),
                    displacement: self.rows(),
                    velocity: self.rows(),
                    acceleration: self.rows(),
                    restoring: self.rows(),
                    steps_completed: self.usize(),
                },
                digest: self.next() as u32,
            },
            9 => Response::Posted { seq: self.next() },
            10 => Response::BoardEntries {
                entries: (0..self.below(3))
                    .map(|_| BoardEntry {
                        seq: self.next(),
                        author: self.dn(),
                        at: self.time(),
                        text: self.text(),
                    })
                    .collect(),
            },
            11 => Response::Stats {
                report: PortalStats {
                    admitted: self.next(),
                    shed: self.next(),
                    queue_depth: self.usize(),
                    p99_first_step_ns: self.next(),
                    ..PortalStats::default()
                },
            },
            _ => Response::Error {
                message: self.text(),
            },
        }
    }
}

/// `$x` comes back from its own frame as a `$t`: the same value (by its
/// `Debug` text) and the same frame bytes.
macro_rules! round_trips {
    ($t:ty, $x:expr) => {{
        let x: $t = $x;
        let frame = encode(&x).expect("a generated frame fits the cap");
        let back: $t = decode(&frame).map_err(|e| TestCaseError(format!("{e} for {x:?}")))?;
        prop_assert_eq!(format!("{back:?}"), format!("{x:?}"));
        prop_assert_eq!(encode(&back).expect("it fit once"), frame);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn portal_frames_decode_to_what_was_encoded(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        round_trips!(
            RequestFrame,
            RequestFrame {
                tenant: g.dn(),
                request: g.request(),
            }
        );
        round_trips!(Response, g.response());
    }
}
