//! The flight recorder: the post-mortem "step 1493 report".
//!
//! The paper's public MOST run died at step 1493 on an error whose cause
//! had to be reconstructed by hand. The flight recorder makes that
//! reconstruction automatic: when the coordinator aborts (or an RPC
//! exhausts its retries) a dump is rendered from the in-flight spans, a
//! metrics snapshot, and each subsystem's last [`RECENT_PER_SUBSYSTEM`]
//! events, read back from the append-only trace log — the last N NTCP
//! transactions, per-link drop/reset counters, open proposals, and pending
//! retransmission timers, all at the virtual instant of the failure.

use std::sync::Mutex;

use crate::lock;
use crate::metrics::MetricsSnapshot;
use crate::trace::TraceEvent;

/// Recent events a dump shows per subsystem: enough for the last ~10
/// steps of a three-site run (each step is ~a dozen events per subsystem).
pub const RECENT_PER_SUBSYSTEM: usize = 128;

/// The dump renderer and the collected dumps.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    dumps: Mutex<Vec<String>>,
}

impl FlightRecorder {
    /// Render and store a post-mortem dump. `open_spans` are the spans
    /// started but not yet ended at the moment of the failure (in-flight
    /// proposals, armed retransmission timers); `metrics` is the registry
    /// snapshot carrying the per-link counters; `events` is the full
    /// recorded trace, whose tail supplies each subsystem's recent events.
    pub fn dump(
        &self,
        t_ns: u64,
        reason: &str,
        open_spans: &[TraceEvent],
        metrics: &MetricsSnapshot,
        events: &[TraceEvent],
    ) -> String {
        let mut out = String::new();
        out.push_str("==== FLIGHT RECORDER DUMP ====\n");
        out.push_str(&format!("reason: {reason}\n"));
        out.push_str(&format!(
            "virtual-time: {:.6}s ({t_ns} ns)\n",
            t_ns as f64 / 1e9
        ));

        out.push_str("-- in-flight spans (started, not ended) --\n");
        if open_spans.is_empty() {
            out.push_str("  (none)\n");
        }
        for span in open_spans {
            out.push_str("  ");
            out.push_str(&span.to_display_line());
            out.push('\n');
        }

        out.push_str("-- metrics --\n");
        let lines = metrics.to_display_lines();
        if lines.is_empty() {
            out.push_str("  (none)\n");
        }
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }

        for (subsystem, recent) in recent_by_subsystem(events) {
            out.push_str(&format!(
                "-- recent {subsystem} events (last {} of ring) --\n",
                recent.len()
            ));
            for event in recent {
                out.push_str("  ");
                out.push_str(&event.to_display_line());
                out.push('\n');
            }
        }

        out.push_str("==== END DUMP ====\n");
        lock(&self.dumps).push(out.clone());
        out
    }

    /// All dumps collected so far, oldest first.
    pub fn dumps(&self) -> Vec<String> {
        lock(&self.dumps).clone()
    }
}

/// Each subsystem's last [`RECENT_PER_SUBSYSTEM`] events, oldest first,
/// with subsystems in name order: one backwards walk over the log. There
/// are only a handful of subsystems, so lookup is a short linear scan.
fn recent_by_subsystem(events: &[TraceEvent]) -> Vec<(&'static str, Vec<&TraceEvent>)> {
    let mut windows: Vec<(&'static str, Vec<&TraceEvent>)> = Vec::new();
    for event in events.iter().rev() {
        match windows
            .iter_mut()
            .find(|(name, _)| *name == event.subsystem)
        {
            Some((_, window)) if window.len() == RECENT_PER_SUBSYSTEM => {}
            Some((_, window)) => window.push(event),
            None => windows.push((event.subsystem, vec![event])),
        }
    }
    for (_, window) in &mut windows {
        window.reverse();
    }
    windows.sort_by_key(|(name, _)| *name);
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Field, TraceKind};

    fn event(seq: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            t_ns: seq * 1000,
            seq,
            kind: TraceKind::Instant,
            span: 0,
            subsystem: "ntcp",
            name,
            fields: [("site", Field::Str("cu".into()))].into(),
        }
    }

    #[test]
    fn dump_reports_each_subsystems_recent_events() {
        let rec = FlightRecorder::default();
        let events: Vec<TraceEvent> = (0..RECENT_PER_SUBSYSTEM as u64 + 5)
            .map(|i| event(i, "propose"))
            .collect();
        let dump = rec.dump(
            10_000,
            "test abort",
            &[],
            &MetricsSnapshot::default(),
            &events,
        );
        assert!(dump.contains("reason: test abort"));
        assert!(dump.contains("(last 128 of ring)"));
        assert!(dump.contains("seq=132"), "newest event kept");
        assert!(!dump.contains("seq=4 "), "old events left out");
        assert!(dump.contains("seq=5 "), "oldest of the window kept");
        assert_eq!(rec.dumps().len(), 1);
    }
}
