//! Spans recorded from the benchmark's own files around calls into each
//! layer: name, start, end and the span that caused it. They stay in
//! memory until the run ends and are then written out. Recording is off
//! unless [`enable`] is called, and then a span costs two clock reads and
//! one uncontended lock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span recorder poisoned by a panicking thread")
}

pub fn enable() {
    set_enabled(true);
}

/// Turn recording on or off; spans already open still close.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name` when recording is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let index = {
        let mut all = spans();
        all.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        all.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    let out = f();
    OPEN.with(|open| open.borrow_mut().pop());
    spans()[index].end_ns = now_ns();
    out
}

/// Number of spans recorded so far; pass it to [`since`].
pub fn mark() -> usize {
    spans().len()
}

/// The spans recorded after `mark`, with parents re-indexed into the
/// returned list (a parent recorded before `mark` becomes `None`).
pub fn since(mark: usize) -> Vec<Span> {
    spans()[mark..]
        .iter()
        .map(|s| Span {
            parent: s.parent.and_then(|p| p.checked_sub(mark)),
            ..*s
        })
        .collect()
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a list of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }

    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Write every recorded span to `path`, one JSON object a line.
pub fn write_all(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans().iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            s("root", 0, 100, None),
            s("a", 10, 30, Some(0)),
            // Overlaps `a`: the overlap counts once.
            s("b", 20, 40, Some(0)),
            // Runs past its parent's end: clipped to it.
            s("c", 90, 120, Some(0)),
            // A grandchild reduces only its own parent.
            s("leaf", 12, 18, Some(1)),
            s("other", 200, 250, None),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6, 50]);
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(t["leaf"].mean_self_us(), 0.006);
    }

    #[test]
    fn spans_nest_and_rebase() {
        enable();
        let before = mark();
        span("outer", || {
            span("inner", || std::hint::black_box(1 + 1));
        });
        let got = since(before);
        // Other tests may record concurrently on their own threads; keep
        // only this thread's pair.
        let outer = got.iter().position(|s| s.name == "outer").unwrap();
        let inner = got
            .iter()
            .position(|s| s.name == "inner" && s.parent == Some(outer))
            .unwrap();
        assert!(got[outer].start_ns <= got[inner].start_ns);
        assert!(got[inner].end_ns <= got[outer].end_ns);
        assert_eq!(got[outer].parent, None);
    }
}
