//! `nsite`: back-to-back 64-site experiments on the event engine.
//!
//! Each experiment is built here exactly as `neesgrid_most::n_site(64, s)`
//! builds it — same node names, stiffnesses, clients and hosting mode — so
//! the benchmark can hold the network and coordinator handles and, in a
//! traced run, inject timing wrappers around each site's NTCP service and
//! plugin. The run is fully virtual and single-threaded, so it measures
//! the per-message path (event engine and routing, OGSI container and RPC
//! mux, the envelope codec, the NTCP state machine, the coordinator) while
//! the spring-to-ground physics does almost nothing.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use neesgrid_coordinator::{ExperimentOutcome, SimCoordBuilder, SimulationCoordinator};
use neesgrid_gridsim::{NetworkProfile, NetworkStats, NodeId, SimTime, VirtualNetwork};
use neesgrid_gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid_ntcp::{
    ControlPlugin, ControlPoint, ExecuteOutcome, NtcpClient, NtcpServer, PluginError,
    SimulationPlugin,
};
use neesgrid_ogsi::{
    AttachedContainer, CallContext, GridService, RpcClient, RpcMux, ServiceContainer, ServiceData,
    ServiceFault,
};
use neesgrid_structsim::material::LinearElastic;
use neesgrid_structsim::substructure::SimulatedSubstructure;
use neesgrid_structsim::GroundMotion;
use serde_json::Value;

use crate::harness::{self, metric, Metrics, Tally};
use crate::trace;
use crate::Outcome;

const SITES: usize = 64;
/// Short enough that every seed completes: longer runs exceed the 0.05 m
/// site limit on most seeds (seed 40 aborts at step 178).
const STEPS: usize = 100;
const DT: f64 = 0.01;
/// Distinct experiments generated per run; the loop cycles through them.
const POOL: u64 = 32;
/// Experiments whose steps support a p99 (1,000 samples).
const P99_RUNS: usize = 1000 / STEPS;
/// Request bodies kept per traced run for the codec probe.
const CODEC_SAMPLE: usize = 4096;

/// One experiment's inputs, generated before timing starts.
struct Input {
    seed: u64,
    stiffness: Vec<f64>,
    motion: GroundMotion,
}

fn inputs(seed: u64) -> Vec<Input> {
    (0..POOL)
        .map(|j| {
            let s = seed.wrapping_mul(1_000).wrapping_add(j);
            Input {
                seed: s,
                stiffness: (0..SITES as u64).map(|i| site_stiffness(s, i)).collect(),
                motion: GroundMotion::synthetic(s, DT, STEPS, 2.0),
            }
        })
        .collect()
}

/// The per-site stiffness `n_site` draws (splitmix64 over seed and index).
fn site_stiffness(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    1.5e5 + (z % 100_000) as f64
}

/// A built experiment. Field order is drop order, as in `n_site`.
struct Topology {
    net: VirtualNetwork,
    coordinator: SimulationCoordinator,
    _containers: Vec<AttachedContainer>,
}

/// Request bodies the traced service wrapper captured.
type Bodies = Arc<Mutex<Vec<Value>>>;

struct TracedService {
    inner: NtcpServer,
    bodies: Bodies,
}

impl GridService for TracedService {
    fn service_type(&self) -> &'static str {
        self.inner.service_type()
    }

    fn handle(
        &mut self,
        ctx: &CallContext,
        operation: &str,
        body: &Value,
    ) -> Result<Value, ServiceFault> {
        {
            let mut bodies = self.bodies.lock().expect("body sample lock");
            if bodies.len() < CODEC_SAMPLE {
                bodies.push(body.clone());
            }
        }
        trace::span("ntcp.handle", || self.inner.handle(ctx, operation, body))
    }

    fn sde(&mut self) -> Option<&mut ServiceData> {
        self.inner.sde()
    }

    fn tick(&mut self, now: SimTime) {
        self.inner.tick(now)
    }
}

struct TracedPlugin {
    inner: SimulationPlugin,
}

impl ControlPlugin for TracedPlugin {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String> {
        trace::span("structsim.review", || self.inner.review(actions))
    }

    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
        trace::span("structsim.execute", || self.inner.execute(actions))
    }

    fn cancel(&mut self, actions: &[ControlPoint]) -> Result<(), PluginError> {
        self.inner.cancel(actions)
    }

    fn state(&self) -> Option<Value> {
        self.inner.state()
    }

    fn restore(&mut self, state: &Value) -> Result<(), PluginError> {
        self.inner.restore(state)
    }
}

/// Build the experiment for `input`; with `bodies`, every site's service
/// and plugin is wrapped for tracing.
fn build(input: &Input, bodies: Option<&Bodies>) -> Topology {
    let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(input.seed));
    let clock = net.clock();
    let mux = RpcMux::new(
        net.endpoint("coordinator")
            .expect("coordinator endpoint is unique"),
    );
    let caller = DistinguishedName::nees_user("NCSA", "Coordinator");
    let mut containers = Vec::with_capacity(SITES);
    let mut builder = SimCoordBuilder::new(vec![1000.0; SITES], Arc::clone(&clock)).dt(DT);
    for (i, &k) in input.stiffness.iter().enumerate() {
        let name = format!("site-{i:03}");
        let plugin = SimulationPlugin::new(
            format!("{name}-sim"),
            Box::new(SimulatedSubstructure::spring_to_ground(
                format!("{name}-column"),
                Box::new(LinearElastic::new(k)),
            )),
        );
        let plugin: Box<dyn ControlPlugin> = match bodies {
            Some(_) => Box::new(TracedPlugin { inner: plugin }),
            None => Box::new(plugin),
        };
        let server = NtcpServer::new(
            name.clone(),
            SitePolicy::permissive(&name, ActionLimits::most_large_scale()),
            plugin,
            Arc::clone(&clock),
        );
        let service: Box<dyn GridService> = match bodies {
            Some(bodies) => Box::new(TracedService {
                inner: server,
                bodies: Arc::clone(bodies),
            }),
            None => Box::new(server),
        };
        containers.push(
            ServiceContainer::new(
                net.endpoint(name.as_str())
                    .expect("site endpoint is unique"),
            )
            .with_service("ntcp", service)
            .permissive()
            .attach(),
        );
        let client = NtcpClient::new(
            RpcClient::new(
                Arc::clone(&mux),
                NodeId::new(name.as_str()),
                "ntcp",
                caller.clone(),
            )
            .with_attempt_timeout(Duration::from_millis(150)),
        );
        builder = builder.site(name, client, vec![i], k);
    }
    Topology {
        net,
        coordinator: builder.build(),
        _containers: containers,
    }
}

/// One experiment's observations.
struct Run {
    outcome: ExperimentOutcome,
    stats: NetworkStats,
    wall_s: f64,
    step_ms: Vec<f64>,
}

fn run_one(input: &Input, bodies: Option<&Bodies>) -> Run {
    let start = Instant::now();
    let mut topo = trace::span("nsite.build", || build(input, bodies));
    let stats = topo.net.stats();
    let ticks = Arc::new(Mutex::new(Vec::with_capacity(STEPS)));
    {
        let ticks = Arc::clone(&ticks);
        topo.coordinator.set_on_step(Box::new(move |_| {
            ticks.lock().expect("step tick lock").push(Instant::now())
        }));
    }
    let run_start = Instant::now();
    let outcome = trace::span("nsite.run", || topo.coordinator.run(&input.motion, STEPS));
    trace::span("nsite.teardown", || drop(topo));
    let wall_s = start.elapsed().as_secs_f64();
    let ticks = ticks.lock().expect("step tick lock");
    let step_ms = std::iter::once(&run_start)
        .chain(ticks.iter())
        .zip(ticks.iter())
        .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
        .collect();
    Run {
        outcome,
        stats,
        wall_s,
        step_ms,
    }
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The benchmark-built experiment reproduces `n_site(64, seed)` bit for
/// bit: histories, event log, termination and link counters.
fn matches_n_site(input: &Input, run: &Run) -> bool {
    let reference = neesgrid_most::n_site(SITES, input.seed);
    let stats = reference.network().stats();
    let want = reference.run(STEPS);
    let (a, b) = (&run.outcome.history, &want.history);
    bits(&a.displacement) == bits(&b.displacement)
        && bits(&a.restoring) == bits(&b.restoring)
        && bits(&a.velocity) == bits(&b.velocity)
        && a.steps_completed == b.steps_completed
        && run.outcome.log.events == want.log.events
        && run.outcome.termination == want.termination
        && run.outcome.retransmissions == want.retransmissions
        && run.stats.totals() == stats.totals()
}

/// Aggregates over the experiments of one loop.
#[derive(Default)]
struct Loop {
    tally: Tally,
    rates: Vec<f64>,
    walls: Vec<f64>,
    step_ms: Vec<f64>,
    site_steps: u64,
    sent: u64,
    delivered: u64,
    wire_bytes: u64,
    correct: bool,
}

impl Loop {
    fn new() -> Loop {
        Loop {
            correct: true,
            ..Loop::default()
        }
    }

    fn add(&mut self, input: &Input, (run, pace): (Run, f64), check: bool) {
        if check {
            self.correct &= matches_n_site(input, &run);
        }
        let done = (SITES * run.outcome.steps_completed()) as u64;
        // Once the benchmark's topology fails to reproduce `n_site`, no
        // experiment counts as completed.
        let credited = if self.correct { done } else { 0 };
        self.tally.record((SITES * STEPS) as u64, credited);
        self.rates.push(done as f64 / (run.wall_s * pace));
        self.walls.push(run.wall_s * pace);
        self.step_ms.extend(run.step_ms);
        self.site_steps += done;
        let totals = run.stats.totals();
        self.sent += totals.sent;
        self.delivered += totals.delivered;
        self.wire_bytes += totals.bytes_delivered;
    }
}

/// Runs experiments for `seconds`, and at least `min_runs` of them, calling
/// `between` before each. With `bodies`, every second experiment is built
/// with the tracing wrappers and recorded, so the traced and untraced
/// halves share the host's slow and fast spells; returns (untraced, traced).
fn run_loop(
    inputs: &[Input],
    seconds: f64,
    min_runs: usize,
    bodies: Option<&Bodies>,
    between: &mut dyn FnMut(),
) -> (Loop, Loop) {
    let (mut plain, mut traced) = (Loop::new(), Loop::new());
    harness::for_seconds(seconds, min_runs, |i| {
        between();
        let input = &inputs[(i / 2) % inputs.len()];
        match bodies {
            Some(bodies) if i % 2 == 1 => {
                trace::set_enabled(true);
                let run = harness::paced(|| run_one(input, Some(bodies)));
                trace::set_enabled(false);
                traced.add(input, run, i == 1);
            }
            _ => {
                // A workload run earlier in the process may have left
                // recording on; plain experiments must add no spans.
                trace::set_enabled(false);
                plain.add(input, harness::paced(|| run_one(input, None)), i == 0)
            }
        }
    });
    (plain, traced)
}

fn step_percentiles(l: &Loop) -> Metrics {
    assert!(
        harness::highest_supported_percentile(l.step_ms.len()) >= Some(99.0),
        "too few steps for a p99"
    );
    vec![
        metric(
            "coordinator.step_p50_ms",
            harness::percentile(&l.step_ms, 50.0),
            "ms",
        ),
        metric(
            "coordinator.step_p99_ms",
            harness::percentile(&l.step_ms, 99.0),
            "ms",
        ),
    ]
}

/// Time `serde_json` encode and decode over the captured request bodies:
/// (µs per message, mean body bytes).
fn codec_probe(bodies: &[Value]) -> (f64, f64) {
    let encoded: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| serde_json::to_vec(b).expect("body encodes"))
        .collect();
    let bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / bodies.len() as f64;
    let mut per_msg = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for b in bodies {
            let wire = serde_json::to_vec(std::hint::black_box(b)).expect("body encodes");
            let back: Value = serde_json::from_slice(&wire).expect("body decodes");
            std::hint::black_box(back);
        }
        per_msg.push(t.elapsed().as_secs_f64() * 1e6 / bodies.len() as f64);
    }
    (harness::median(&per_msg), bytes)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let make = || {
        let inputs = inputs(seed);
        drop(std::hint::black_box(build(&inputs[0], None)));
        inputs
    };
    let mut setup = harness::Setup::default();
    let inputs = setup.burst(&make);
    if !traced {
        let (l, _) = run_loop(&inputs, seconds, P99_RUNS, None, &mut || {
            drop(setup.burst(&make))
        });
        let mut extra = step_percentiles(&l);
        extra.push(metric(
            "coordinator.step_samples",
            l.step_ms.len() as f64,
            "count",
        ));
        extra.extend(harness::rate_quantiles(&l.rates));
        return Outcome {
            correct: l.correct,
            tally: l.tally,
            metrics: vec![
                metric("setup_s", setup.seconds(), "s"),
                metric("site_steps_per_s", harness::median(&l.rates), "1/s"),
                metric("runs_per_s", 1.0 / harness::median(&l.walls), "1/s"),
            ],
            extra,
        };
    }

    let bodies: Bodies = Arc::default();
    let from = trace::mark();
    let (plain, l) = run_loop(&inputs, seconds, 2 * P99_RUNS, Some(&bodies), &mut || {});
    let totals = trace::totals(&trace::since(from));
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (handle, review, execute, run_span, teardown) = (
        get("ntcp.handle"),
        get("structsim.review"),
        get("structsim.execute"),
        get("nsite.run"),
        get("nsite.teardown"),
    );
    let site_steps = l.site_steps.max(1) as f64;
    let bodies = bodies.lock().expect("body sample lock");
    let (codec_us, body_bytes) = codec_probe(&bodies);
    let plain_rate = harness::median(&plain.rates);
    let traced_rate = harness::median(&l.rates);
    let mut metrics = vec![
        metric("ntcp.handle_us", handle.mean_self_us(), "us"),
        metric(
            "ntcp.calls_per_site_step",
            handle.count as f64 / site_steps,
            "count",
        ),
        metric("ogsi.codec_us_per_msg", codec_us, "us"),
        metric("ogsi.body_bytes_per_msg", body_bytes, "B"),
        metric(
            "gridsim.msgs_per_site_step",
            l.sent as f64 / site_steps,
            "count",
        ),
        metric(
            "gridsim.wire_bytes_per_msg",
            l.wire_bytes as f64 / l.delivered.max(1) as f64,
            "B",
        ),
        metric(
            "coordinator.outside_services_us_per_site_step",
            (run_span.total_ns.saturating_sub(handle.total_ns)) as f64 / 1e3 / site_steps,
            "us",
        ),
        metric("most.nsite_teardown_s", teardown.mean_us() / 1e6, "s"),
        metric("structsim.execute_us", execute.mean_us(), "us"),
        metric("structsim.review_us", review.mean_us(), "us"),
        metric(
            "trace.overhead_frac",
            1.0 - traced_rate / plain_rate,
            "fraction",
        ),
    ];
    metrics.extend(step_percentiles(&plain));
    let mut tally = plain.tally;
    tally.merge(l.tally);
    Outcome {
        correct: plain.correct && l.correct,
        tally,
        metrics,
        extra: vec![
            metric("site_steps_per_s_untraced", plain_rate, "1/s"),
            metric("site_steps_per_s_traced", traced_rate, "1/s"),
        ],
    }
}
