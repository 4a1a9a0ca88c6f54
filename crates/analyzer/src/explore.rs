//! The schedule explorer both exhaustive checkers share.
//!
//! A loom-style *stateless* model checker: it re-runs a model from its
//! initial state once per schedule and makes every nondeterministic
//! choice by exhaustive enumeration. A choice stack records, per depth,
//! which of how many enabled events the schedule took; backtracking
//! advances the deepest choice with an untried sibling. A checker only
//! supplies its model as a [`World`].

/// A model the explorer drives; a fresh one is built per schedule.
pub trait World {
    /// One nondeterministic event.
    type Event: Copy;

    /// The enabled events, in a fixed deterministic order. An empty answer
    /// ends the schedule.
    fn enabled(&self) -> Vec<Self::Event>;

    /// Apply one event and check every invariant.
    fn step(&mut self, event: Self::Event) -> Result<(), Violation>;

    /// A violation of `invariant`, carrying the schedule so far.
    fn violation(&self, invariant: &str, detail: String) -> Violation;
}

/// An invariant violation, with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant fired.
    pub invariant: String,
    /// What was observed.
    pub detail: String,
    /// The event sequence, in order.
    pub trace: Vec<String>,
}

/// Result of an exhaustive run.
#[derive(Debug)]
pub struct CheckReport {
    /// Complete schedules explored.
    pub schedules: u64,
    /// Longest schedule (events).
    pub deepest: usize,
    /// First violation found, if any (exploration stops there).
    pub violation: Option<Violation>,
    /// True if `max_schedules` stopped exploration before exhaustion.
    pub truncated: bool,
}

/// Depth safety bound: budgets cap real schedules far below this.
const MAX_DEPTH: usize = 64;

/// Run one schedule, replaying `choices` and extending it at fresh
/// decision points. Returns the depth reached.
fn run_one<W: World>(mut world: W, choices: &mut Vec<(usize, usize)>) -> Result<usize, Violation> {
    let mut depth = 0usize;
    loop {
        let evs = world.enabled();
        if evs.is_empty() {
            return Ok(depth);
        }
        if depth >= MAX_DEPTH {
            return Err(world.violation(
                "depth-bound",
                format!("schedule exceeded {MAX_DEPTH} events"),
            ));
        }
        let pick = if depth < choices.len() {
            if choices[depth].1 != evs.len() {
                return Err(world.violation(
                    "nondeterministic-model",
                    format!(
                        "replay divergence at depth {depth}: {} enabled events, expected {}",
                        evs.len(),
                        choices[depth].1
                    ),
                ));
            }
            choices[depth].0
        } else {
            choices.push((0, evs.len()));
            0
        };
        world.step(evs[pick])?;
        depth += 1;
    }
}

/// Advance `choices` to the next unexplored schedule; false = exhausted.
fn backtrack(choices: &mut Vec<(usize, usize)>) -> bool {
    while let Some(last) = choices.last_mut() {
        if last.0 + 1 < last.1 {
            last.0 += 1;
            return true;
        }
        choices.pop();
    }
    false
}

/// Explore every schedule of the worlds `new_world` builds, stopping at
/// the first violation or after `max_schedules` schedules.
pub fn explore<W: World>(max_schedules: u64, mut new_world: impl FnMut() -> W) -> CheckReport {
    let mut choices: Vec<(usize, usize)> = Vec::new();
    let mut report = CheckReport {
        schedules: 0,
        deepest: 0,
        violation: None,
        truncated: false,
    };
    loop {
        report.schedules += 1;
        match run_one(new_world(), &mut choices) {
            Ok(depth) => report.deepest = report.deepest.max(depth),
            Err(v) => {
                report.violation = Some(v);
                return report;
            }
        }
        if report.schedules >= max_schedules {
            report.truncated = true;
            return report;
        }
        if !backtrack(&mut choices) {
            return report;
        }
    }
}
