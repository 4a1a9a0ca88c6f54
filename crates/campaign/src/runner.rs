//! The sweep runner: expands scenarios into a run matrix, pushes every
//! run through the portal's wire API as one quota'd tenant, drives the
//! scheduler (including declared worker kills), and collects per-run
//! verdicts with noise-free failure signatures.
//!
//! The runner is a *client* of the portal, not a bypass: the login, every
//! submission and every run's `Status` are length-prefixed frames on the
//! wire, through admission control, a bounded queue (QueueFull is retried
//! after a scheduler tick, never special-cased away), and the shared
//! worker pool. A campaign is therefore also a load test of the
//! multi-tenant service it runs on.
//!
//! The runner also owns the deployment, and reads it in-process where a
//! remote tenant could not: it drives the scheduler (`tick`,
//! `kill_worker`), reads its counters (`stats`), and reads each run's
//! trace from the archive it attached to the portal, where finalize put
//! it. That read checks every block against its address and the whole
//! trace against its manifest's CRC-32, the checks a `FetchArtifact`
//! download makes, without the hex round trip.
//!
//! Everything is deterministic: the control plane runs on a LAN-profile
//! virtual network, the matrix expands in fixed order, and verdicts
//! render as canonical JSON sorted by run label — two same-seed sweeps
//! produce byte-identical verdict tables and corpus digests.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use neesgrid_archive::{ArchiveSite, CasError, StripeConfig};
use neesgrid_checkpoint::MemoryCheckpointStore;
use neesgrid_gridsim::{NetworkProfile, SimTime, VirtualNetwork};
use neesgrid_gsi::{CertificateAuthority, Credential, DistinguishedName};
use neesgrid_portal::{
    ClientError, Portal, PortalClient, PortalConfig, PortalStats, Rejection, Request, Response,
    RunState, TenantQuotas,
};
use neesgrid_repo::VirtualStore;
use neesgrid_telemetry::{Telemetry, TraceSignature};
use serde::Serialize;

use crate::corpus::{Corpus, CorpusEntry};
use crate::dsl::{ScenarioDoc, WorkerKill};
use crate::plan::{expand, RunPlan};

/// Seed for the campaign's control plane (portal, archive, CA). Runs
/// execute on their own per-run networks seeded from the sweep, so this
/// only shapes control-frame latencies.
const CONTROL_SEED: u64 = 2004;

/// Ticks the scheduler may sit with no run reaching a terminal state
/// before the runner declares it stalled (a worker-pool bug, not a
/// slow campaign: every tick advances every busy worker a full slice).
const STALL_TICKS: u64 = 10_000;

/// How the campaign's portal deployment is shaped.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker-pool size.
    pub workers: usize,
    /// Steps advanced per worker per tick.
    pub slice_steps: u64,
    /// Bounded submission-queue capacity.
    pub queue_capacity: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: 4,
            slice_steps: 32,
            queue_capacity: 64,
        }
    }
}

/// Why a campaign could not finish.
#[derive(Debug)]
pub enum CampaignError {
    /// No scenarios / empty matrix.
    Empty,
    /// Control-plane wiring failed (duplicate node names, dead link).
    Deployment(String),
    /// A wire call failed outright.
    Wire(ClientError),
    /// The portal refused something it should not have.
    Refused {
        /// What the runner was doing.
        context: String,
        /// The portal's reply.
        reply: String,
    },
    /// The scheduler stopped making progress.
    Stalled {
        /// Runs still not terminal.
        pending: usize,
    },
    /// A run's archived trace could not be read back.
    Archive {
        /// The run whose trace is unreadable.
        run: String,
        /// What the archive reported.
        error: CasError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Empty => write!(f, "campaign has no runs"),
            CampaignError::Deployment(m) => write!(f, "control-plane deployment failed: {m}"),
            CampaignError::Wire(e) => write!(f, "wire call failed: {e:?}"),
            CampaignError::Refused { context, reply } => {
                write!(f, "portal refused {context}: {reply}")
            }
            CampaignError::Stalled { pending } => {
                write!(f, "scheduler stalled with {pending} runs pending")
            }
            CampaignError::Archive { run, error } => {
                write!(f, "archived trace of {run} unreadable: {error}")
            }
        }
    }
}

impl From<ClientError> for CampaignError {
    fn from(e: ClientError) -> Self {
        CampaignError::Wire(e)
    }
}

/// One run's result: terminal state, trace signature, provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct RunVerdict {
    /// Matrix label (campaign + axis values + seed).
    pub label: String,
    /// Portal-assigned run id.
    pub run_id: String,
    /// The run's seed.
    pub seed: u64,
    /// `completed`, `failed`, or `cancelled`.
    pub outcome: String,
    /// Abort reason (empty unless `failed`).
    pub error: String,
    /// Steps committed.
    pub steps_completed: usize,
    /// The run was rescheduled from checkpoint after a worker kill.
    pub resumed: bool,
    /// Noise-free failure signature from the archived trace.
    pub signature: TraceSignature,
}

impl RunVerdict {
    /// Canonical one-line JSON for the verdict table, with a fixed key
    /// order: `label, run, seed, outcome, error, steps, resumed,
    /// signature`.
    pub fn to_canonical(&self) -> String {
        let mut out = String::from("{\"label\":");
        self.label.write_json(&mut out);
        out.push_str(",\"run\":");
        self.run_id.write_json(&mut out);
        out.push_str(",\"seed\":");
        self.seed.write_json(&mut out);
        out.push_str(",\"outcome\":");
        self.outcome.write_json(&mut out);
        out.push_str(",\"error\":");
        self.error.write_json(&mut out);
        out.push_str(",\"steps\":");
        self.steps_completed.write_json(&mut out);
        out.push_str(",\"resumed\":");
        self.resumed.write_json(&mut out);
        out.push_str(",\"signature\":");
        self.signature.id().write_json(&mut out);
        out.push('}');
        out
    }
}

/// Everything a finished campaign reports.
pub struct CampaignReport {
    /// Per-run verdicts, sorted by label.
    pub verdicts: Vec<RunVerdict>,
    /// Signature id → run labels sharing it (the dedup).
    pub groups: BTreeMap<String, Vec<String>>,
    /// Corpus entries, one per run, in matrix order.
    pub entries: Vec<CorpusEntry>,
    /// Digest over every corpus manifest — byte-comparable across
    /// same-seed sweeps.
    pub corpus_digest: String,
    /// Submissions shed with `QueueFull` and retried.
    pub queue_full_retries: u64,
    /// Scheduler ticks driven.
    pub ticks: u64,
    /// The portal's own counters.
    pub stats: PortalStats,
    /// The archive holding every run's artifacts and the corpus.
    pub archive: ArchiveSite,
}

impl CampaignReport {
    /// Distinct failure/behaviour signatures across the campaign.
    pub fn unique_signatures(&self) -> usize {
        self.groups.len()
    }

    /// The canonical verdict table: one line per run, sorted by label.
    /// Byte-identical across same-seed re-runs of the same scenarios.
    pub fn verdict_table(&self) -> String {
        let mut out = String::new();
        for v in &self.verdicts {
            out.push_str(&v.to_canonical());
            out.push('\n');
        }
        out
    }

    /// Human summary: counts and the signature groups.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let completed = self
            .verdicts
            .iter()
            .filter(|v| v.outcome == "completed")
            .count();
        let failed = self
            .verdicts
            .iter()
            .filter(|v| v.outcome == "failed")
            .count();
        out.push_str(&format!(
            "{} runs: {completed} completed, {failed} failed, {} signatures, corpus {}\n",
            self.verdicts.len(),
            self.groups.len(),
            self.corpus_digest,
        ));
        for (sig, labels) in &self.groups {
            let novel = labels.first().map(String::as_str).unwrap_or("?");
            out.push_str(&format!(
                "  {sig}: {} run(s), first {novel}\n",
                labels.len()
            ));
        }
        out
    }
}

/// Expand and execute `docs` as one campaign. Every run goes through
/// the portal wire API; every run's trace is archived and signed; every
/// run becomes a corpus entry.
pub fn run_campaign(
    docs: &[ScenarioDoc],
    config: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    let mut plans: Vec<(usize, RunPlan)> = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        for plan in expand(doc) {
            plans.push((i, plan));
        }
    }
    if plans.is_empty() {
        return Err(CampaignError::Empty);
    }
    let mut kills: Vec<WorkerKill> = docs.iter().flat_map(|d| d.kills.clone()).collect();
    kills.sort_by_key(|k| (k.tick, k.worker));

    // Control plane: LAN profile so campaign traffic itself is not the
    // experiment; per-run networks carry the scenario's conditions.
    let net = VirtualNetwork::new(NetworkProfile::Lan.config(CONTROL_SEED));
    let ca = CertificateAuthority::nees(CONTROL_SEED);
    let service = Portal::serve(
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
    .map_err(|e| CampaignError::Deployment(format!("{e:?}")))?;
    let archive = ArchiveSite::attach(
        &net,
        "repository",
        VirtualStore::new(),
        StripeConfig::default(),
        &Telemetry::disabled(),
    )
    .map_err(|e| CampaignError::Deployment(format!("{e:?}")))?;
    service.attach_archive(archive.clone());

    // One quota'd tenant for the whole sweep — sized to the matrix, so
    // admission control is exercised but never the bottleneck.
    let cred = Credential::issue(
        &ca,
        DistinguishedName::nees_user("REMOTE", "campaign"),
        SimTime::ZERO,
        SimTime::from_secs(30 * 24 * 3600),
        CONTROL_SEED,
    );
    let who = cred.identity().clone();
    let client = PortalClient::connect(&net, "campaign-client", "portal")
        .map_err(|e| CampaignError::Deployment(format!("{e:?}")))?
        .with_tenant(who.clone());
    let total_steps: u64 = plans.iter().map(|(_, p)| p.spec.steps as u64).sum();
    service.set_quotas(
        who,
        TenantQuotas {
            max_concurrent: plans.len(),
            max_total_steps: total_steps + 1,
            max_observers: 8,
        },
    );
    match client.call(Request::Login {
        token: cred.token(),
    })? {
        Response::Session { .. } => {}
        other => {
            return Err(CampaignError::Refused {
                context: "campaign login".into(),
                reply: format!("{other:?}"),
            })
        }
    }

    let mut ticks = 0u64;
    let mut queue_full_retries = 0u64;
    let mut next_kill = 0usize;
    let tick = |service: &Portal, ticks: &mut u64, next_kill: &mut usize| {
        while *next_kill < kills.len() && kills[*next_kill].tick <= *ticks {
            service.kill_worker(kills[*next_kill].worker);
            *next_kill += 1;
        }
        service.tick();
        *ticks += 1;
    };

    // Submit the whole matrix; QueueFull frees a slot with one tick and
    // retries — the shed path is part of the campaign, not an error.
    let mut run_ids: Vec<String> = Vec::with_capacity(plans.len());
    for (_, plan) in &plans {
        let run = loop {
            match client.call(Request::Submit {
                spec: plan.spec.clone(),
            })? {
                Response::Submitted { run, .. } => break run,
                Response::Rejected {
                    rejection: Rejection::QueueFull { .. },
                } => {
                    queue_full_retries += 1;
                    tick(&service, &mut ticks, &mut next_kill);
                }
                other => {
                    return Err(CampaignError::Refused {
                        context: format!("submission of {}", plan.label),
                        reply: format!("{other:?}"),
                    })
                }
            }
        };
        run_ids.push(run);
    }

    // Drive the scheduler (firing declared kills) until every run is
    // terminal.
    let total = plans.len() as u64;
    let mut idle = 0u64;
    loop {
        let stats = service.stats();
        let done = stats.completed + stats.failed + stats.cancelled;
        if done >= total {
            break;
        }
        tick(&service, &mut ticks, &mut next_kill);
        let after = service.stats();
        if after.completed + after.failed + after.cancelled == done {
            idle += 1;
            if idle > STALL_TICKS {
                return Err(CampaignError::Stalled {
                    pending: (total - done) as usize,
                });
            }
        } else {
            idle = 0;
        }
    }

    // Collect verdicts + archived traces, record the corpus (matrix
    // order, so novelty assignment is deterministic).
    let mut corpus = Corpus::new(archive.clone());
    let mut verdicts: Vec<RunVerdict> = Vec::with_capacity(plans.len());
    let mut entries: Vec<CorpusEntry> = Vec::with_capacity(plans.len());
    let now = net.clock().now();
    for ((doc_idx, plan), run_id) in plans.iter().zip(&run_ids) {
        let report = match client.call(Request::Status {
            run: run_id.clone(),
        })? {
            Response::Status { report } => report,
            other => {
                return Err(CampaignError::Refused {
                    context: format!("status of {run_id}"),
                    reply: format!("{other:?}"),
                })
            }
        };
        let (outcome, error) = match &report.state {
            RunState::Completed => ("completed".to_string(), String::new()),
            RunState::Failed { error } => ("failed".to_string(), error.clone()),
            RunState::Cancelled => ("cancelled".to_string(), String::new()),
            other => {
                return Err(CampaignError::Refused {
                    context: format!("terminal status of {run_id}"),
                    reply: format!("non-terminal state {other:?}"),
                })
            }
        };
        let trace = archived_trace(&archive, run_id)?;
        let (signature, resumed) =
            TraceSignature::from_jsonl_and_resumed(&String::from_utf8_lossy(&trace));
        let verdict = RunVerdict {
            label: plan.label.clone(),
            run_id: run_id.clone(),
            seed: plan.seed,
            outcome,
            error,
            steps_completed: report.steps_completed,
            resumed,
            signature,
        };
        entries.push(corpus.record(&docs[*doc_idx].source, &verdict, &trace, now));
        verdicts.push(verdict);
    }

    let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for v in &verdicts {
        groups
            .entry(v.signature.id())
            .or_default()
            .push(v.label.clone());
    }
    for labels in groups.values_mut() {
        labels.sort();
    }
    verdicts.sort_by(|a, b| a.label.cmp(&b.label));

    Ok(CampaignReport {
        verdicts,
        groups,
        entries,
        corpus_digest: corpus.digest(),
        queue_full_retries,
        ticks,
        stats: service.stats(),
        archive,
    })
}

/// The trace the portal archived for `run`, read from `archive` in place:
/// every block is checked against its address and the whole trace against
/// its manifest's CRC-32.
fn archived_trace(archive: &ArchiveSite, run: &str) -> Result<Bytes, CampaignError> {
    archive
        .cas()
        .read(&format!("/runs/{run}/trace.jsonl"))
        .map_err(|error| CampaignError::Archive {
            run: run.to_string(),
            error,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unreadable_trace_is_an_error_naming_the_run() {
        let net = VirtualNetwork::new(NetworkProfile::Lan.config(CONTROL_SEED));
        let archive = ArchiveSite::attach(
            &net,
            "repository",
            VirtualStore::new(),
            StripeConfig::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let trace = Bytes::from_static(b"{\"t\":0}\n");
        let manifest = archive.ingest_local("/runs/run-000001/trace.jsonl", &trace, SimTime::ZERO);
        assert_eq!(archived_trace(&archive, "run-000001").unwrap(), trace);

        let missing = archived_trace(&archive, "run-000002").unwrap_err();
        assert!(matches!(
            &missing,
            CampaignError::Archive { run, error: CasError::UnknownManifest(_) } if run == "run-000002"
        ));
        assert_eq!(
            missing.to_string(),
            "archived trace of run-000002 unreadable: no manifest for '/runs/run-000002/trace.jsonl'"
        );

        let key = manifest.blocks[0].key;
        archive
            .cas()
            .backing()
            .put(key.path(), Bytes::from_static(b"junk"), SimTime::ZERO);
        assert!(matches!(
            archived_trace(&archive, "run-000001"),
            Err(CampaignError::Archive { run, error: CasError::CorruptBlock { .. } }) if run == "run-000001"
        ));
    }

    #[test]
    fn verdict_line_bytes_are_pinned() {
        let verdict = RunVerdict {
            label: "most/public \"quoted\"/seed=7".into(),
            run_id: "run-000012".into(),
            seed: u64::MAX,
            outcome: "failed".into(),
            error: "cu: transport: link reset\n\tat step 1493".into(),
            steps_completed: 1492,
            resumed: true,
            signature: TraceSignature::from_jsonl(""),
        };
        assert_eq!(
            verdict.to_canonical(),
            r#"{"label":"most/public \"quoted\"/seed=7","run":"run-000012","seed":18446744073709551615,"outcome":"failed","error":"cu: transport: link reset\n\tat step 1493","steps":1492,"resumed":true,"signature":"13a28dbbad440e38"}"#
        );
    }
}
