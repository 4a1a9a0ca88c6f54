//! `-- report`: render a trace JSONL into a human-readable summary.
//!
//! The renderer is deliberately tolerant: it aggregates whatever events
//! and metric lines are present (a partial trace from an aborted run is
//! exactly the interesting case) and prints per-site, per-step, and
//! per-link tables.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::metrics::Histogram;

#[derive(Debug, Default)]
struct SiteRow {
    proposes: u64,
    executes: u64,
    cancels: u64,
    failures: u64,
    dedup_hits: u64,
}

#[derive(Debug, Default)]
struct LinkRow {
    sent: u64,
    delivered: u64,
    dropped: u64,
    reset: u64,
    bytes: u64,
}

/// Split a metric name of the form `family.kind{label}` into
/// `(family.kind, label)`; label is empty when unlabelled.
fn split_label(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(open) => {
            let base = &name[..open];
            let label = name[open + 1..].trim_end_matches('}');
            (base, label)
        }
        None => (name, ""),
    }
}

/// Render a trace (the canonical JSONL produced by
/// [`crate::Telemetry::export_jsonl`], or a merged trace) into a
/// human-readable per-site / per-step / per-link summary.
pub fn render_report(jsonl: &str) -> Result<String, String> {
    let mut events = 0u64;
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    let mut sites: BTreeMap<String, SiteRow> = BTreeMap::new();
    let mut links: BTreeMap<String, LinkRow> = BTreeMap::new();
    let mut phases: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut span_starts: BTreeMap<u64, (u64, String)> = BTreeMap::new();
    let mut steps_completed = 0u64;
    let mut abort: Option<String> = None;
    let mut resumes = 0u64;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut rtt: Option<Histogram> = None;
    let mut checkpoint_bytes: Vec<u64> = Vec::new();

    for (lineno, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = doc["kind"].as_str().unwrap_or("");
        let fields = &doc["fields"];
        match kind {
            "counter" => {
                if let (Some(name), Some(value)) = (doc["name"].as_str(), doc["value"].as_u64()) {
                    counters.insert(name.to_string(), value);
                    let (base, label) = split_label(name);
                    if let Some(stat) = base.strip_prefix("link.") {
                        let row = links.entry(label.to_string()).or_default();
                        match stat {
                            "sent" => row.sent = value,
                            "delivered" => row.delivered = value,
                            "dropped" => row.dropped = value,
                            "reset" => row.reset = value,
                            "bytes" => row.bytes = value,
                            _ => {}
                        }
                    }
                }
            }
            "histogram" => {
                if doc["name"] == "rpc.rtt_ns" {
                    rtt = Some(Histogram {
                        count: doc["count"].as_u64().unwrap_or(0),
                        sum_ns: doc["sum_ns"].as_u64().unwrap_or(0),
                        max_ns: doc["max_ns"].as_u64().unwrap_or(0),
                        ..Histogram::default()
                    });
                }
            }
            "span_start" | "span_end" | "instant" => {
                events += 1;
                let t = doc["t"].as_u64().unwrap_or(0);
                t_min = t_min.min(t);
                t_max = t_max.max(t);
                let sub = doc["sub"].as_str().unwrap_or("");
                let name = doc["name"].as_str().unwrap_or("");
                let span = doc["span"].as_u64().unwrap_or(0);
                if kind == "span_start" {
                    span_starts.insert(span, (t, name.to_string()));
                }
                match (sub, name, kind) {
                    ("ntcp", "propose" | "execute" | "cancel", "span_end") => {
                        let site = fields["site"].as_str().unwrap_or("?").to_string();
                        let row = sites.entry(site).or_default();
                        match name {
                            "propose" => row.proposes += 1,
                            "execute" => row.executes += 1,
                            _ => row.cancels += 1,
                        }
                        if fields["outcome"].as_str().is_some_and(|o| {
                            o.starts_with("err") || o == "rejected" || o == "failed"
                        }) {
                            row.failures += 1;
                        }
                    }
                    ("ntcp", "dedup_hit", _) => {
                        let site = fields["site"].as_str().unwrap_or("?").to_string();
                        sites.entry(site).or_default().dedup_hits += 1;
                    }
                    ("coordinator", "step", "span_end") => steps_completed += 1,
                    ("coordinator", phase_name, "span_end") if phase_name.ends_with("_phase") => {
                        if let Some((start_t, _)) = span_starts.get(&span) {
                            phases
                                .entry(phase_name.to_string())
                                .or_default()
                                .observe(t.saturating_sub(*start_t));
                        }
                    }
                    ("coordinator", "abort", _) => {
                        abort = Some(format!(
                            "step {} site {} ({})",
                            fields["step"].as_u64().unwrap_or(0),
                            fields["site"].as_str().unwrap_or("?"),
                            fields["error"].as_str().unwrap_or("?"),
                        ));
                    }
                    ("coordinator", "resume", _) => resumes += 1,
                    ("checkpoint", "snapshot", _) => {
                        checkpoint_bytes.push(fields["bytes"].as_u64().unwrap_or(0));
                    }
                    _ => {}
                }
            }
            other => return Err(format!("line {}: unknown kind '{other}'", lineno + 1)),
        }
    }

    let mut out = String::new();
    out.push_str("neesgrid trace report\n");
    out.push_str("=====================\n");
    if events == 0 {
        out.push_str("  (no trace events)\n");
        return Ok(out);
    }
    out.push_str(&format!(
        "  events: {events}   virtual span: {:.3}s -> {:.3}s\n",
        t_min as f64 / 1e9,
        t_max as f64 / 1e9
    ));
    out.push_str(&format!("  steps completed: {steps_completed}"));
    match &abort {
        Some(a) => out.push_str(&format!("   ABORTED at {a}\n")),
        None => out.push('\n'),
    }
    if resumes > 0 {
        out.push_str(&format!("  checkpoint resumes: {resumes}\n"));
    }

    if !sites.is_empty() {
        out.push_str("\nper-site NTCP activity\n");
        out.push_str(&format!(
            "  {:<14} {:>9} {:>9} {:>8} {:>9} {:>11}\n",
            "site", "proposes", "executes", "cancels", "failures", "dedup-hits"
        ));
        for (site, row) in &sites {
            out.push_str(&format!(
                "  {:<14} {:>9} {:>9} {:>8} {:>9} {:>11}\n",
                site, row.proposes, row.executes, row.cancels, row.failures, row.dedup_hits
            ));
        }
    }

    if !phases.is_empty() {
        out.push_str("\nper-step coordinator phases (virtual time)\n");
        for (phase, agg) in &phases {
            out.push_str(&format!(
                "  {:<16} n={:<7} mean={:.3}ms max={:.3}ms\n",
                phase,
                agg.count,
                agg.mean_ms(),
                agg.max_ns as f64 / 1e6
            ));
        }
    }

    if !links.is_empty() {
        out.push_str("\nper-link traffic\n");
        out.push_str(&format!(
            "  {:<28} {:>7} {:>9} {:>7} {:>6} {:>12}\n",
            "link", "sent", "delivered", "dropped", "reset", "bytes"
        ));
        for (link, row) in &links {
            out.push_str(&format!(
                "  {:<28} {:>7} {:>9} {:>7} {:>6} {:>12}\n",
                link, row.sent, row.delivered, row.dropped, row.reset, row.bytes
            ));
        }
    }

    let rpc_calls = counters.get("rpc.calls").copied().unwrap_or(0);
    if rpc_calls > 0 {
        out.push_str("\nrpc\n");
        out.push_str(&format!(
            "  calls={rpc_calls} retries={} failures={} completion-waits={}\n",
            counters.get("rpc.retries").copied().unwrap_or(0),
            counters.get("rpc.failures").copied().unwrap_or(0),
            counters.get("rpc.completion_waits").copied().unwrap_or(0),
        ));
        if let Some(h) = rtt {
            out.push_str(&format!(
                "  rtt: n={} mean={:.3}ms max={:.3}ms\n",
                h.count,
                h.mean_ms(),
                h.max_ns as f64 / 1e6
            ));
        }
    }

    let nsds: Vec<(&String, &u64)> = counters
        .iter()
        .filter(|(k, _)| k.starts_with("nsds."))
        .collect();
    if !nsds.is_empty() {
        out.push_str("\ndaq / NSDS subscribers\n");
        for (name, value) in nsds {
            out.push_str(&format!("  {name:<44} {value:>10}\n"));
        }
    }

    if !checkpoint_bytes.is_empty() {
        let total = checkpoint_bytes
            .iter()
            .fold(0u64, |a, b| a.saturating_add(*b));
        out.push_str(&format!(
            "\ncheckpoint: {} snapshots, {} bytes total, last {} bytes\n",
            checkpoint_bytes.len(),
            total,
            checkpoint_bytes.last().copied().unwrap_or(0)
        ));
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Field;
    use crate::Telemetry;

    #[test]
    fn report_summarizes_sites_links_and_abort() {
        let t = Telemetry::recording();
        let s = t.span_start(
            1_000_000,
            "ntcp",
            "propose",
            [
                ("site", Field::Str("cu".into())),
                ("tx", Field::Str("step-000149-a0".into())),
            ],
        );
        t.span_end(
            2_000_000,
            s,
            [
                ("site", Field::Str("cu".into())),
                ("outcome", Field::Str("err_transport".into())),
            ],
        );
        t.instant(
            3_000_000,
            "coordinator",
            "abort",
            [
                ("step", Field::U64(149)),
                ("site", Field::Str("cu".into())),
                ("error", Field::Str("link reset by peer".into())),
            ],
        );
        t.counter_handle("link.dropped{coordinator->cu}").add(1);
        t.counter_handle("link.sent{coordinator->cu}").add(42);
        let report = render_report(&t.export_jsonl()).expect("renders");
        assert!(report.contains("ABORTED at step 149 site cu (link reset by peer)"));
        assert!(report.contains("coordinator->cu"));
        assert!(report.contains("cu"));
        assert!(report.contains("failures"));
    }

    #[test]
    fn empty_trace_is_not_an_error() {
        let report = render_report("").expect("renders");
        assert!(report.contains("no trace events"));
    }

    #[test]
    fn hostile_numbers_saturate_instead_of_overflowing() {
        let mut jsonl = String::new();
        for span in 1..=2 {
            jsonl.push_str(&format!(
                "{{\"t\":0,\"seq\":0,\"kind\":\"span_start\",\"span\":{span},\"sub\":\"coordinator\",\"name\":\"execute_phase\",\"fields\":{{}}}}\n\
                 {{\"t\":{max},\"seq\":1,\"kind\":\"span_end\",\"span\":{span},\"sub\":\"coordinator\",\"name\":\"execute_phase\",\"fields\":{{}}}}\n\
                 {{\"t\":1,\"seq\":2,\"kind\":\"instant\",\"sub\":\"checkpoint\",\"name\":\"snapshot\",\"fields\":{{\"bytes\":{max}}}}}\n",
                max = u64::MAX
            ));
        }
        let report = render_report(&jsonl).expect("renders");
        assert!(report.contains(&format!("2 snapshots, {} bytes total", u64::MAX)));
    }
}
