//! `campaign`: `run_campaign` over the repository's own `scenarios/*.scn`
//! (34 runs). It is the only workload that, in its timed path, records a
//! telemetry trace in every run, checkpoints and resumes after a worker
//! kill, absorbs lossy-WAN retransmissions, signs traces, and ingests the
//! corpus into the archive's content-addressed store with dedup. The
//! workload seed shifts the seed ranges of the swept scenarios; the two
//! MOST scenarios stay pinned to the seed their fault indices were
//! written for.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use neesgrid_archive::{ArchiveSite, StripeConfig};
use neesgrid_campaign::{
    expand, run_campaign, CampaignConfig, CampaignReport, RunPlan, ScenarioDoc,
};
use neesgrid_checkpoint::MemoryCheckpointStore;
use neesgrid_gridsim::{NetworkProfile, SimTime, VirtualNetwork};
use neesgrid_gsi::{CertificateAuthority, Credential, DistinguishedName};
use neesgrid_portal::{Portal, PortalClient, PortalConfig, Request, Response, TenantQuotas};
use neesgrid_repo::VirtualStore;
use neesgrid_telemetry::{Telemetry, TraceSignature};

use crate::harness::{self, metric, Tally};
use crate::trace;
use crate::Outcome;

/// Parse every scenario file and apply the seed shift.
fn docs(dir: &Path, seed: u64) -> Vec<ScenarioDoc> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenario directory is readable")
        .map(|e| e.expect("scenario entry is readable").path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).expect("scenario file is readable");
            let mut doc = ScenarioDoc::parse(&src).expect("committed scenario parses");
            if !doc.name.starts_with("most-") {
                let shift = seed.wrapping_mul(16);
                doc.sweep.seed_lo += shift;
                doc.sweep.seed_hi += shift;
            }
            doc
        })
        .collect()
}

/// Every run is in the verdict table, and each of its corpus artifacts
/// reads back from the archive at its recorded length. Returns the runs
/// that pass.
fn archived_runs(report: &CampaignReport) -> u64 {
    let cas = report.archive.cas();
    report
        .entries
        .iter()
        .filter(|e| {
            report.verdicts.iter().any(|v| v.label == e.label)
                && e.artifacts.iter().all(|a| {
                    cas.read(&a.logical)
                        .is_ok_and(|bytes| bytes.len() as u64 == a.total_len)
                })
        })
        .count() as u64
}

/// The archived traces, in corpus order.
fn traces(report: &CampaignReport) -> Vec<(String, Bytes)> {
    let cas = report.archive.cas();
    report
        .entries
        .iter()
        .flat_map(|e| &e.artifacts)
        .map(|a| (a.logical.clone(), cas.read(&a.logical).expect("archived")))
        .collect()
}

/// Re-ingest every corpus artifact into a fresh archive site, MB/s.
fn ingest_probe(artifacts: &[(String, Bytes)]) -> f64 {
    let bytes: usize = artifacts.iter().map(|(_, b)| b.len()).sum();
    let mut rates = Vec::new();
    for _ in 0..3 {
        let net = VirtualNetwork::new(NetworkProfile::Lan.config(0));
        let site = ArchiveSite::attach(
            &net,
            "probe",
            VirtualStore::new(),
            StripeConfig::default(),
            &Telemetry::disabled(),
        )
        .expect("probe node is fresh");
        let t = Instant::now();
        for (logical, content) in artifacts {
            std::hint::black_box(site.ingest_local(logical, content, SimTime::ZERO));
        }
        rates.push(bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
    }
    harness::median(&rates)
}

/// Re-sign every archived trace; (µs per run, signatures that differ
/// from the verdict's).
fn signature_probe(report: &CampaignReport, traces: &[(String, Bytes)]) -> (f64, usize) {
    let runs: Vec<(String, &str)> = traces
        .iter()
        .filter(|(l, _)| l.ends_with("/trace.jsonl"))
        .map(|(l, b)| (l.clone(), std::str::from_utf8(b).expect("trace is UTF-8")))
        .collect();
    let t = Instant::now();
    let sigs: Vec<TraceSignature> = runs
        .iter()
        .map(|(_, text)| TraceSignature::from_jsonl(text))
        .collect();
    let us = t.elapsed().as_secs_f64() * 1e6 / runs.len() as f64;
    let differ = runs
        .iter()
        .zip(&sigs)
        .filter(|((logical, _), sig)| {
            !report.verdicts.iter().any(|v| {
                logical == &format!("/corpus/{}/trace.jsonl", v.label)
                    && v.signature.id() == sig.id()
            })
        })
        .count();
    (us, differ)
}

/// `n_site_with_telemetry` recording vs disabled, 8 sites × 200 steps,
/// alternating: the fraction of wall time telemetry adds.
fn telemetry_overhead(seed: u64) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..6 {
        let t = Instant::now();
        std::hint::black_box(neesgrid_most::n_site(8, seed).run(200));
        off.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(
            neesgrid_most::n_site_with_telemetry(8, seed, Telemetry::recording()).run(200),
        );
        on.push(t.elapsed().as_secs_f64());
    }
    harness::median(&on) / harness::median(&off) - 1.0
}

/// The seed `run_campaign` gives its control plane.
const CONTROL_SEED: u64 = 2004;

/// Stand up the control plane `run_campaign` builds for `plans` — a LAN
/// network, the portal with an archive site attached, a client, and the
/// campaign tenant's quotas and login — and tear it down unrun.
fn deploy(config: &CampaignConfig, plans: &[RunPlan]) {
    let net = VirtualNetwork::new(NetworkProfile::Lan.config(CONTROL_SEED));
    let ca = CertificateAuthority::nees(CONTROL_SEED);
    let portal = Portal::serve(
        &net,
        "portal",
        ca.verifier(),
        Arc::new(MemoryCheckpointStore::new()),
        PortalConfig {
            workers: config.workers,
            slice_steps: config.slice_steps,
            queue_capacity: config.queue_capacity,
            ..PortalConfig::default()
        },
    )
    .expect("portal node is fresh");
    let archive = ArchiveSite::attach(
        &net,
        "repository",
        VirtualStore::new(),
        StripeConfig::default(),
        &Telemetry::disabled(),
    )
    .expect("archive node is fresh");
    portal.attach_archive(archive);
    let client =
        PortalClient::connect(&net, "campaign-client", "portal").expect("client node is fresh");
    let cred = Credential::issue(
        &ca,
        DistinguishedName::nees_user("REMOTE", "campaign"),
        SimTime::ZERO,
        SimTime::from_secs(30 * 24 * 3600),
        CONTROL_SEED,
    );
    let who = cred.identity().clone();
    portal.set_quotas(
        who.clone(),
        TenantQuotas {
            max_concurrent: plans.len(),
            max_total_steps: plans.iter().map(|p| p.spec.steps as u64).sum::<u64>() + 1,
            max_observers: 8,
        },
    );
    let login = Request::Login {
        token: cred.token(),
    };
    assert!(
        matches!(client.call_as(&who, login), Ok(Response::Session { .. })),
        "the campaign tenant logs in"
    );
    drop(std::hint::black_box((client, portal, net)));
}

pub fn run(scenario_dir: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let config = CampaignConfig::default();
    let make = || {
        let docs = docs(scenario_dir, seed);
        let plans: Vec<RunPlan> = docs.iter().flat_map(expand).collect();
        deploy(&config, &plans);
        // Sites per run label, to count site-steps from the verdicts.
        let sites: BTreeMap<String, u64> = plans
            .into_iter()
            .map(|plan| (plan.label, plan.spec.sites as u64))
            .collect();
        (docs, sites)
    };
    let mut setup = harness::Setup::default();
    let (docs, sites) = setup.burst(&make);
    let expected = sites.len() as u64;
    if traced {
        trace::enable();
    }
    let mut tally = Tally::default();
    let mut correct = true;
    let (mut rates, mut site_rates) = (Vec::new(), Vec::new());
    let mut first: Option<CampaignReport> = None;
    harness::for_seconds(seconds, 2, |_| {
        if !traced {
            drop(setup.burst(&make));
        }
        let t = Instant::now();
        let (report, pace) =
            harness::paced(|| trace::span("campaign.run", || run_campaign(&docs, &config)));
        let wall_s = t.elapsed().as_secs_f64() * pace;
        let Ok(report) = report else {
            correct = false;
            tally.record(expected, 0);
            return;
        };
        let archived = archived_runs(&report);
        correct &= report.verdicts.len() as u64 == expected && archived == expected;
        // A sweep whose verdict table differs from the first one's fails
        // as a whole.
        let same = first
            .as_ref()
            .is_none_or(|first| first.verdict_table() == report.verdict_table());
        correct &= same;
        tally.record(expected, if same { archived } else { 0 });
        let site_steps: u64 = report
            .verdicts
            .iter()
            .map(|v| v.steps_completed as u64 * sites.get(&v.label).copied().unwrap_or(0))
            .sum();
        rates.push(report.verdicts.len() as f64 / wall_s);
        site_rates.push(site_steps as f64 / wall_s);
        first.get_or_insert(report);
    });
    let Some(report) = first else {
        return Outcome::failed(tally);
    };
    if !traced {
        return Outcome {
            correct,
            tally,
            metrics: vec![
                metric("setup_s", setup.seconds(), "s"),
                metric("site_steps_per_s", harness::median(&site_rates), "1/s"),
                metric("runs_per_s", harness::median(&rates), "1/s"),
            ],
            extra: [metric(
                "campaign.unique_signatures",
                report.unique_signatures() as f64,
                "count",
            )]
            .into_iter()
            .chain(harness::rate_quantiles(&site_rates))
            .collect(),
        };
    }
    let runs = report.verdicts.len() as f64;
    let artifacts = traces(&report);
    let (signature_us, differ) = signature_probe(&report, &artifacts);
    correct &= differ == 0;
    let trace_bytes: usize = artifacts
        .iter()
        .filter(|(l, _)| l.ends_with("/trace.jsonl"))
        .map(|(_, b)| b.len())
        .sum();
    let cas = report.archive.cas().stats();
    Outcome {
        correct,
        tally,
        metrics: vec![
            metric("archive.blocks_written", cas.blocks_written as f64, "count"),
            metric("archive.blocks_deduped", cas.blocks_deduped as f64, "count"),
            metric("archive.ingest_mb_per_s", ingest_probe(&artifacts), "MB/s"),
            metric(
                "telemetry.trace_bytes_per_run",
                trace_bytes as f64 / runs,
                "B",
            ),
            metric("telemetry.signature_us_per_run", signature_us, "us"),
            metric(
                "telemetry.overhead_frac",
                telemetry_overhead(seed),
                "fraction",
            ),
            metric(
                "campaign.unique_signatures",
                report.unique_signatures() as f64,
                "count",
            ),
            metric("campaign.ticks", report.ticks as f64, "count"),
            metric(
                "portal.rescheduled",
                report.stats.rescheduled as f64,
                "count",
            ),
        ],
        extra: vec![
            metric("archive.bytes_written", cas.bytes_written as f64, "B"),
            metric("archive.bytes_deduped", cas.bytes_deduped as f64, "B"),
        ],
    }
}
