//! Harness arithmetic shared by every workload: percentiles and the rule
//! for which ones a sample count supports, metric-name validation,
//! failure accounting, the result line, and peak memory.

use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, as printed.
pub type Metrics = Vec<Metric>;

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A metric name starts with a letter or digit and is at most 64 of
/// `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Nearest-rank position (1-based) of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 10_000 > 9_990) from
    // pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support percentile `p`: at least ten samples lie
/// beyond its nearest-rank position.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// The highest of the conventional percentiles that `n` samples support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supports_percentile(n, p))
}

/// Nearest-rank percentile of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Operations attempted and failed. What one operation is depends on the
/// workload (a site-step, a MOST step, a tenant's experiment, a campaign
/// run); outcomes a scenario intends, such as a scripted abort, are not
/// failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count `attempted` operations of which `completed` succeeded. Any
    /// excess of completions over attempts is not credited.
    pub fn record(&mut self, attempted: u64, completed: u64) {
        self.attempted += attempted;
        self.failed += attempted - completed.min(attempted);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `ops_failed_frac`: failed over attempted; a run that attempted
    /// nothing failed entirely.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let mut map = serde_json::Map::new();
    for m in metrics {
        assert!(valid_metric_name(m.name), "bad metric name {}", m.name);
        assert!(
            !map.contains_key(m.name),
            "metric {} reported twice",
            m.name
        );
        map.insert(
            m.name.to_string(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        );
    }
    let failed = if tally.attempted == 0 {
        1
    } else {
        tally.failed
    };
    serde_json::json!({
        "correct": correct,
        "attempted": tally.attempted.max(1),
        "failed": failed,
        "metrics": serde_json::Value::Object(map),
    })
    .to_string()
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Quantiles of per-operation rates, for the machine record.
pub fn rate_quantiles(rates: &[f64]) -> Metrics {
    vec![
        metric("ops", rates.len() as f64, "count"),
        metric("ops.rate_q25", percentile(rates, 25.0), "1/s"),
        metric("ops.rate_q50", percentile(rates, 50.0), "1/s"),
        metric("ops.rate_q75", percentile(rates, 75.0), "1/s"),
    ]
}

/// Seconds one [`reference_pass`] takes on the 2-core host the benchmark
/// was tuned on, in its fast spells.
const REFERENCE_S: f64 = 3.5e-4;

/// A fixed piece of allocation-, map- and string-heavy work, the mix the
/// stack's message path does, whose time tracks the host's current speed.
fn reference_pass() {
    let mut map = std::collections::BTreeMap::new();
    for i in 0..1500u64 {
        map.insert(format!("site-{:03}/step-{i}", i % 64), (i as f64).sqrt());
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_by_key(|k| std::cmp::Reverse(k.len()));
    let total: f64 = map.values().sum();
    std::hint::black_box((keys.len(), total));
}

/// How long a [`reference_pass`] takes now: the best of three.
fn reference_s() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            reference_pass();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs `f` between two timed reference passes and returns its result with
/// the factor that scales a duration measured during it to the tuning
/// host's fast speed. The shared 2-core host this benchmark was tuned on
/// switches, for seconds to minutes at a time, into a mode 1.1x to 1.8x
/// slower, depending on the work. Scaling every timed figure by the
/// reference work's speed around it keeps most of those spells out of the
/// figures (the spread of a workload's rate over seeds fell from 13-31% to
/// 2-11%) while leaving any change in the stack's own code in them; the
/// median over a run's operations absorbs the error left in single ones.
pub fn paced<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = reference_s();
    let out = f();
    let after = reference_s();
    (out, 2.0 * REFERENCE_S / (before + after))
}

/// How long each burst of set-ups lasts (at least one set-up). A burst
/// comes before the loop and one before every operation, so the set-up
/// sample spreads over the whole run, as the operations do.
const SETUP_BURST_S: f64 = 0.02;

/// Runs `make` once: its output and how long it took.
fn time<T>(make: &impl Fn() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(make());
    (out, t.elapsed().as_secs_f64())
}

/// Times a workload's set-up in bursts, at the tuning host's pace;
/// `setup_s` is the median of all repetitions.
#[derive(Default)]
pub struct Setup {
    times: Vec<f64>,
}

impl Setup {
    /// Make the inputs for one burst and return the last ones made.
    pub fn burst<T>(&mut self, make: &impl Fn() -> T) -> T {
        let start = Instant::now();
        let ((out, times), pace) = paced(|| {
            let mut times = Vec::new();
            loop {
                let (out, seconds) = time(make);
                times.push(seconds);
                if start.elapsed().as_secs_f64() >= SETUP_BURST_S {
                    return (out, times);
                }
            }
        });
        self.times.extend(times.iter().map(|t| t * pace));
        out
    }

    pub fn seconds(&self) -> f64 {
        median(&self.times)
    }
}

/// Loops `op` until `seconds` have passed and it ran at least `min_ops`
/// times (and at least once).
pub fn for_seconds(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        op(i);
        i += 1;
        if i >= min_ops && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1,000 samples sits at rank 990: exactly ten beyond it.
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(19, 50.0));
        assert!(!supports_percentile(0, 50.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(2_000), Some(99.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(25), Some(50.0));
        assert_eq!(highest_supported_percentile(12), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "ntcp.handle_us", "a-b.c_1", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn result_line_rejects_bad_names() {
        result_line(true, Tally::default(), &[metric("bad name", 1.0, "s")]);
    }

    #[test]
    fn failure_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 1.0, "nothing attempted is a failure");
        t.record(6400, 6400);
        t.record(6400, 6000);
        assert_eq!(
            t,
            Tally {
                attempted: 12800,
                failed: 400
            }
        );
        assert_eq!(t.failed_frac(), 400.0 / 12800.0);
        // Completions beyond the attempts are not credited.
        t.record(10, 12);
        assert_eq!(t.failed, 400);
        let mut u = Tally::default();
        u.record(2, 0);
        t.merge(u);
        assert_eq!(
            t,
            Tally {
                attempted: 12812,
                failed: 402
            }
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.record(4, 3);
        let line = result_line(false, t, &[metric("setup_s", 0.5, "s")]);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(v["attempted"], 4);
        assert_eq!(v["failed"], 1);
        assert_eq!(v["correct"], false);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
        // A run that attempted nothing still reports a failure.
        let empty = result_line(true, Tally::default(), &[]);
        let v: serde_json::Value = serde_json::from_str(&empty).unwrap();
        assert_eq!(v["attempted"], 1);
        assert_eq!(v["failed"], 1);
    }
}
