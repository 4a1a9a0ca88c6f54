//! Rendering lint and checker results as text or machine-readable JSON.

use serde_json::{json, Value};

use crate::explore::CheckReport;
use crate::rules::LintSummary;

/// Human-readable lint report: one `file:line: [rule] message` per
/// finding plus the violation-count summary line used for trend
/// tracking in `scripts/check.sh`.
pub fn lint_text(summary: &LintSummary) -> String {
    let mut out = String::new();
    for f in &summary.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    let per_rule: Vec<String> = summary
        .per_rule()
        .into_iter()
        .map(|(rule, n)| format!("{rule}={n}"))
        .collect();
    let breakdown = if per_rule.is_empty() {
        String::new()
    } else {
        format!(" ({})", per_rule.join(", "))
    };
    out.push_str(&format!(
        "analyzer: {} violation(s){}, {} suppressed, {} files scanned\n",
        summary.findings.len(),
        breakdown,
        summary.suppressed,
        summary.files_scanned
    ));
    out
}

/// Machine-readable lint report.
pub fn lint_json(summary: &LintSummary) -> Value {
    json!({
        "violations": summary.findings.len(),
        "suppressed": summary.suppressed,
        "files_scanned": summary.files_scanned,
        "findings": summary.findings.iter().map(|f| json!({
            "file": f.file,
            "line": f.line,
            "rule": f.rule,
            "message": f.message,
        })).collect::<Vec<Value>>(),
    })
}

/// Human-readable report of the checker run as `command`, naming the
/// `invariants` every schedule satisfied.
pub fn check_text(
    command: &str,
    invariants: &[&str],
    report: &CheckReport,
    elapsed_ms: u128,
) -> String {
    let mut out = format!(
        "{command}: {} schedule(s) explored (deepest {} events) in {} ms{}\n",
        report.schedules,
        report.deepest,
        elapsed_ms,
        if report.truncated {
            " [truncated by --max-schedules]"
        } else {
            ""
        }
    );
    match &report.violation {
        None => out.push_str(&format!(
            "{command}: all schedules satisfy {}\n",
            invariants.join(", ")
        )),
        Some(v) => {
            out.push_str(&format!(
                "{command}: VIOLATION of {} — {}\n  schedule:\n",
                v.invariant, v.detail
            ));
            for (i, step) in v.trace.iter().enumerate() {
                out.push_str(&format!("    {:>2}. {step}\n", i + 1));
            }
        }
    }
    out
}

/// Machine-readable checker report.
pub fn check_json(report: &CheckReport, elapsed_ms: u128) -> Value {
    json!({
        "schedules": report.schedules,
        "deepest": report.deepest,
        "elapsed_ms": elapsed_ms as u64,
        "truncated": report.truncated,
        "violation": match &report.violation {
            None => Value::Null,
            Some(v) => json!({
                "invariant": v.invariant,
                "detail": v.detail,
                "trace": v.trace,
            }),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn lint_text_has_findings_and_summary_line() {
        let summary = LintSummary {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                rule: "no-unwrap",
                message: "bad".into(),
            }],
            files_scanned: 3,
            suppressed: 2,
            suppressed_sites: Default::default(),
        };
        let text = lint_text(&summary);
        assert!(text.contains("crates/x/src/lib.rs:7: [no-unwrap] bad"));
        assert!(
            text.contains("analyzer: 1 violation(s) (no-unwrap=1), 2 suppressed, 3 files scanned")
        );
    }

    #[test]
    fn lint_json_shape() {
        let summary = LintSummary {
            findings: vec![],
            files_scanned: 5,
            suppressed: 1,
            suppressed_sites: Default::default(),
        };
        let v = lint_json(&summary);
        assert_eq!(v["violations"], json!(0));
        assert_eq!(v["files_scanned"], json!(5));
        assert_eq!(v["findings"], json!([]));
    }
}
