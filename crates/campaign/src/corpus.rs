//! The regression corpus: every campaign run archived as a
//! content-addressed manifest set, plus bit-identical replay.
//!
//! A corpus entry is four artifacts under `/corpus/{label}/…` in the
//! campaign's [`ArchiveSite`]:
//!
//! * `scenario.scn` — the verbatim DSL source the run came from;
//! * `seed.txt` — the seed (decimal, newline-terminated);
//! * `trace.jsonl` — the run's canonical telemetry trace;
//! * `verdict.json` — the canonical verdict line (outcome + signature).
//!
//! Identical content deduplicates at the block layer for free — two
//! seeds of the same scenario share their `scenario.scn` blocks — and
//! the corpus digest (an order-independent fold over every manifest)
//! is byte-comparable across same-seed sweeps.
//!
//! [`replay_entry`] re-executes an entry from nothing but its scenario
//! source, label, and run id: the deployment is a pure function of the
//! spec, so an undisturbed run's replayed trace matches the recorded
//! bytes exactly. Runs that were resumed from checkpoint after a worker
//! kill carry a `resume` event mid-trace that an uninterrupted replay
//! cannot reproduce; those entries are flagged `resumed` and replay
//! falls back to comparing failure signatures.

use std::sync::Arc;

use bytes::Bytes;
use neesgrid_archive::{ArchiveSite, Manifest};
use neesgrid_checkpoint::MemoryCheckpointStore;
use neesgrid_daq::NsdsServer;
use neesgrid_gridsim::SimTime;
use neesgrid_gsi::DistinguishedName;
use neesgrid_portal::{RunProgress, WorkerRun};
use neesgrid_telemetry::TraceSignature;

use crate::dsl::ScenarioDoc;
use crate::plan::expand;
use crate::runner::RunVerdict;

/// FNV-1a offset basis / prime (64-bit), matching the telemetry
/// signature's hash so the whole stack shares one hashing idiom.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One archived artifact of a corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryArtifact {
    /// Logical archive name (`/corpus/{label}/{file}`).
    pub logical: String,
    /// Whole-artifact CRC-32 from the manifest.
    pub digest: u32,
    /// Artifact length in bytes.
    pub total_len: u64,
}

/// One recorded run in the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Matrix label.
    pub label: String,
    /// Signature id the run deduped under.
    pub signature_id: String,
    /// First run of the campaign with this signature.
    pub novel: bool,
    /// The run's seed.
    pub seed: u64,
    /// Portal run id (needed for bit-identical replay: the run id is
    /// woven into the deployment's credential names).
    pub run_id: String,
    /// The run was resumed from checkpoint (replay compares signatures,
    /// not bytes).
    pub resumed: bool,
    /// The four archived artifacts.
    pub artifacts: Vec<EntryArtifact>,
}

/// Recorder for one campaign's corpus.
pub struct Corpus {
    site: ArchiveSite,
    seen: std::collections::BTreeSet<String>,
    digest: u64,
}

impl Corpus {
    /// A recorder writing into `site`.
    pub fn new(site: ArchiveSite) -> Corpus {
        Corpus {
            site,
            seen: std::collections::BTreeSet::new(),
            digest: FNV_OFFSET,
        }
    }

    /// Archive one run: scenario source, seed, trace, and verdict, all
    /// content-addressed under the run's label. `trace` is ingested as
    /// given, without a copy.
    pub fn record(
        &mut self,
        source: &str,
        verdict: &RunVerdict,
        trace: &Bytes,
        now: SimTime,
    ) -> CorpusEntry {
        let signature_id = verdict.signature.id();
        let novel = self.seen.insert(signature_id.clone());
        let base = format!("/corpus/{}", verdict.label);
        let files: [(&str, Bytes); 4] = [
            ("scenario.scn", Bytes::from(source.to_string())),
            ("seed.txt", Bytes::from(format!("{}\n", verdict.seed))),
            ("trace.jsonl", trace.clone()),
            ("verdict.json", {
                let mut line = verdict.to_canonical();
                line.push('\n');
                Bytes::from(line)
            }),
        ];
        let mut artifacts = Vec::with_capacity(files.len());
        for (name, content) in files {
            let manifest = self
                .site
                .ingest_local(&format!("{base}/{name}"), &content, now);
            self.fold(&manifest);
            artifacts.push(EntryArtifact {
                logical: manifest.logical.clone(),
                digest: manifest.digest,
                total_len: manifest.total_len,
            });
        }
        CorpusEntry {
            label: verdict.label.clone(),
            signature_id,
            novel,
            seed: verdict.seed,
            run_id: verdict.run_id.clone(),
            resumed: verdict.resumed,
            artifacts,
        }
    }

    fn fold(&mut self, manifest: &Manifest) {
        let mut h = self.digest;
        for b in manifest.logical.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= u64::from(manifest.digest);
        h = h.wrapping_mul(FNV_PRIME);
        h ^= manifest.total_len;
        h = h.wrapping_mul(FNV_PRIME);
        self.digest = h;
    }

    /// Digest over every manifest recorded so far (hex). Same scenarios
    /// + same seeds → same digest, byte for byte.
    pub fn digest(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// The archive this corpus writes into.
    pub fn site(&self) -> &ArchiveSite {
        &self.site
    }
}

/// What a replay found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// The replayed trace matched the recorded bytes exactly.
    pub bit_identical: bool,
    /// The failure signatures matched (the criterion for resumed runs).
    pub signature_match: bool,
    /// The trace the replay produced.
    pub replay_trace: String,
    /// Human-readable explanation.
    pub detail: String,
}

impl ReplayReport {
    /// Whether the replay verifies the entry: byte equality for
    /// undisturbed runs, signature equality for resumed ones.
    pub fn verified(&self, resumed: bool) -> bool {
        if resumed {
            self.signature_match
        } else {
            self.bit_identical
        }
    }
}

/// Re-execute one corpus entry from its scenario source and compare
/// against the recorded trace. The entry's `label` selects the matrix
/// cell; `run_id` must be the recorded portal run id (it feeds the
/// deployment's credential naming, so a different id would perturb
/// checkpoint snapshot sizes).
pub fn replay_entry(
    source: &str,
    label: &str,
    run_id: &str,
    recorded_trace: &str,
) -> Result<ReplayReport, String> {
    let doc = ScenarioDoc::parse(source).map_err(|e| format!("scenario does not parse: {e}"))?;
    let plan = expand(&doc)
        .into_iter()
        .find(|p| p.label == label)
        .ok_or_else(|| format!("label {label} is not in the scenario's run matrix"))?;

    let mut run = WorkerRun::build(
        run_id,
        DistinguishedName::nees_user("REMOTE", "campaign"),
        plan.spec.clone(),
        Arc::new(MemoryCheckpointStore::new()),
        Arc::new(NsdsServer::new()),
    );
    let mut budget = plan.spec.steps as u64 + 2;
    loop {
        match run.advance(64) {
            RunProgress::Done(_) => break,
            RunProgress::InFlight => {
                budget = budget.saturating_sub(1);
                if budget == 0 {
                    return Err(format!("replay of {label} did not terminate"));
                }
            }
        }
    }
    let replay_trace = run.into_telemetry().export_jsonl();
    let bit_identical = replay_trace == recorded_trace;
    let signature_match =
        TraceSignature::from_jsonl(&replay_trace) == TraceSignature::from_jsonl(recorded_trace);
    let detail = if bit_identical {
        format!(
            "{label}: replay is bit-identical ({} bytes)",
            replay_trace.len()
        )
    } else if signature_match {
        format!(
            "{label}: traces differ ({} vs {} bytes) but signatures match",
            replay_trace.len(),
            recorded_trace.len()
        )
    } else {
        format!("{label}: replay DIVERGED — signatures differ")
    };
    Ok(ReplayReport {
        bit_identical,
        signature_match,
        replay_trace,
        detail,
    })
}
