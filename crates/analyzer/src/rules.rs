//! The invariant lint rules and the engine that applies them.
//!
//! Nine rules, each guarding a property the rest of the workspace depends
//! on but the compiler cannot check:
//!
//! | rule            | invariant                                              |
//! |-----------------|--------------------------------------------------------|
//! | `no-unwrap`     | protocol crates never `unwrap()`/`expect()`/`panic!` in non-test library code — the step-1493 failure class |
//! | `no-wall-clock` | nothing outside annotated real-time paths reads the wall clock (`Instant::now`, `SystemTime::now`, `thread::sleep`) — checkpoint replay and fault-plan indexing assume determinism. In protocol and `ogsi` library code the rule also flags the blocking-wait patterns `recv_timeout(…)` and `Duration::from_secs(…)`: with the event engine owning time, a hard-coded real-seconds wait is almost always a bug |
//! | `no-todo`       | no `todo!`/`unimplemented!` ships                       |
//! | `missing-docs`  | public items of protocol crates carry doc comments      |
//! | `telemetry-span-balance` | in protocol crates a function that calls `.span_start(…)` must also call `.span_end(…)`, with no `return` or `?` between the first start and the last end — the wrapper pattern that guarantees spans close on every path. Cross-function spans (the ogsi RPC call/complete pair) live in exempt crates |
//! | `no-unbounded-channel` | queueing code (portal, coordinator, daq) never constructs an unbounded queue: `unbounded(…)`, zero-capacity `channel()`, and `VecDeque::new()` are flagged. Multi-tenant admission only sheds load if every queue has an explicit capacity and an explicit policy at the push site |
//! | `no-hash-iteration` | replay-relevant crates (gridsim, ogsi, ntcp, coordinator, portal, telemetry) never iterate a `HashMap`/`HashSet` — hash order varies run-to-run and breaks bit-identical replay. Tracked through fields, locals, params, `use … as` aliases, and lock guards by the [`crate::parse`] layer; a `BTreeMap` conversion or an in-statement sort passes |
//! | `lock-order` | across portal/coordinator, no two mutexes are acquired in both orders (the 2-cycle in the acquired-before graph) — see [`crate::lockorder`] |
//! | `bounded-buffer-contract` | every channel/ring construction in queueing code carries a `// analyzer:buffer(cap = …, drop = oldest\|shed\|block)` declaration whose capacity matches the code — the machine-checked half of the bounded-buffering contract |
//!
//! Code inside `#[cfg(test)]` / `#[test]` regions is exempt from every
//! rule. A finding can be waived in place with
//! `// analyzer:allow(<rule>, reason = "…")` on the offending line or the
//! line above; a pragma without a real reason is itself a violation
//! (`bad-pragma`), and a pragma that no longer suppresses anything is one
//! too (`dead-pragma`) — stale waivers rot into false documentation.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::contracts::{check_buffer_contract, check_hash_iteration, BufferDecl};
use crate::lexer::{lex, Delim, Pragma, TokKind, Token};
use crate::lockorder::{self, FileLocks};
use crate::parse::ParsedFile;

/// The nine enforceable rules, in reporting order.
pub const RULE_NAMES: [&str; 9] = [
    "no-unwrap",
    "no-wall-clock",
    "no-todo",
    "missing-docs",
    "telemetry-span-balance",
    "no-unbounded-channel",
    "no-hash-iteration",
    "lock-order",
    "bounded-buffer-contract",
];

/// Rule id reported for malformed or reasonless suppression pragmas.
pub const BAD_PRAGMA: &str = "bad-pragma";

/// Rule id reported for pragmas that no longer suppress anything.
pub const DEAD_PRAGMA: &str = "dead-pragma";

/// Which rules apply to one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// `no-unwrap` applies.
    pub unwrap: bool,
    /// `no-wall-clock` applies.
    pub wall_clock: bool,
    /// The stricter `no-wall-clock` extension for event-engine code:
    /// `recv_timeout` and `Duration::from_secs` are also flagged.
    pub blocking: bool,
    /// `no-todo` applies.
    pub todo: bool,
    /// `missing-docs` applies.
    pub docs: bool,
    /// `telemetry-span-balance` applies.
    pub span_balance: bool,
    /// `no-unbounded-channel` applies.
    pub bounded_queues: bool,
    /// `no-hash-iteration` applies.
    pub hash_iteration: bool,
    /// `lock-order` sequences are extracted (the cross-file check runs in
    /// [`lint_workspace`]).
    pub lock_order: bool,
    /// `bounded-buffer-contract` applies.
    pub buffer_contract: bool,
}

impl RuleSet {
    /// Every rule on (used by tests).
    pub fn all() -> Self {
        RuleSet {
            unwrap: true,
            wall_clock: true,
            blocking: true,
            todo: true,
            docs: true,
            span_balance: true,
            bounded_queues: true,
            hash_iteration: true,
            lock_order: true,
            buffer_contract: true,
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of [`RULE_NAMES`] or [`BAD_PRAGMA`]).
    pub rule: &'static str,
    /// Human-readable detail.
    pub message: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations found (bad pragmas included).
    pub findings: Vec<Finding>,
    /// Number of findings waived by valid pragmas.
    pub suppressed: usize,
    /// Findings waived, broken down by rule (for the baseline ratchet).
    pub suppressed_by_rule: BTreeMap<&'static str, usize>,
    /// Per-function lock-acquisition sequences (when `lock_order` is on;
    /// consumed by the cross-file pass in [`lint_workspace`]).
    pub lock_seqs: Vec<Vec<lockorder::LockSite>>,
    /// Lines carrying `analyzer:allow(lock-order, …)` pragmas — their
    /// dead/used status is only known after the cross-file pass.
    pub lock_allows: Vec<u32>,
}

/// Result of linting the whole workspace.
#[derive(Debug, Default)]
pub struct LintSummary {
    /// All violations, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Total findings waived by valid pragmas.
    pub suppressed: usize,
    /// Waived findings per `(file, rule)` — the baseline ratchet compares
    /// these so a new pragma'd site fails CI just like a new violation.
    pub suppressed_sites: BTreeMap<(String, String), usize>,
}

impl LintSummary {
    /// Count of findings per rule, for the trend summary line.
    pub fn per_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for f in &self.findings {
            *m.entry(f.rule).or_insert(0) += 1;
        }
        m
    }
}

/// A validated suppression.
struct Suppression {
    line: u32,
    rule: &'static str,
    /// How many findings this pragma waived (zero at the end = dead).
    used: usize,
}

/// Parse pragmas into suppressions and buffer declarations; malformed or
/// unknown-kind pragmas become findings.
fn parse_pragmas(
    file: &str,
    pragmas: &[Pragma],
    findings: &mut Vec<Finding>,
) -> (Vec<Suppression>, Vec<BufferDecl>) {
    let mut allows = Vec::new();
    let mut buffers = Vec::new();
    for p in pragmas {
        let parsed = match p.kind.as_str() {
            "allow" => parse_pragma_text(&p.text).map(|rule| {
                allows.push(Suppression {
                    line: p.line,
                    rule,
                    used: 0,
                });
            }),
            "buffer" => parse_buffer_text(&p.text).map(|(cap, drop)| {
                buffers.push(BufferDecl {
                    line: p.line,
                    cap,
                    drop,
                    used: false,
                });
            }),
            other => Err(format!(
                "unknown analyzer pragma kind '{other}' — expected `allow` or `buffer`"
            )),
        };
        if let Err(why) = parsed {
            findings.push(Finding {
                file: file.to_string(),
                line: p.line,
                rule: BAD_PRAGMA,
                message: why,
            });
        }
    }
    (allows, buffers)
}

/// Parse `(cap = <expr>, drop = oldest|shed|block)`.
fn parse_buffer_text(text: &str) -> Result<(String, String), String> {
    let body = text
        .strip_prefix('(')
        .and_then(|t| t.rfind(')').map(|end| &t[..end]))
        .ok_or_else(|| {
            "buffer pragma must be `analyzer:buffer(cap = <expr>, drop = oldest|shed|block)`"
                .to_string()
        })?;
    let (cap_part, drop_part) = body
        .rsplit_once(',')
        .ok_or_else(|| "buffer pragma is missing the `drop = …` clause".to_string())?;
    let cap = cap_part
        .trim()
        .strip_prefix("cap")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| "buffer pragma must start with `cap = <expr>`".to_string())?;
    if cap.is_empty() {
        return Err("buffer pragma capacity must not be empty".to_string());
    }
    let drop = drop_part
        .trim()
        .strip_prefix("drop")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| "buffer pragma is missing the `drop = …` clause".to_string())?;
    if !matches!(drop, "oldest" | "shed" | "block") {
        return Err(format!(
            "buffer pragma drop policy '{drop}' must be oldest, shed, or block"
        ));
    }
    Ok((cap.to_string(), drop.to_string()))
}

/// Parse `(<rule>, reason = "…")`, returning the canonical rule name.
fn parse_pragma_text(text: &str) -> Result<&'static str, String> {
    let body = text
        .strip_prefix('(')
        .and_then(|t| t.rfind(')').map(|end| &t[..end]))
        .ok_or_else(|| "pragma must be `analyzer:allow(<rule>, reason = \"…\")`".to_string())?;
    let (rule_part, rest) = body
        .split_once(',')
        .ok_or_else(|| "pragma is missing the `reason = \"…\"` clause".to_string())?;
    let rule_name = rule_part.trim();
    let rule = RULE_NAMES
        .iter()
        .find(|r| **r == rule_name)
        .copied()
        .ok_or_else(|| format!("unknown rule '{rule_name}' in pragma"))?;
    let rest = rest.trim();
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| "pragma is missing the `reason = \"…\"` clause".to_string())?;
    let inner = reason
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| "pragma reason must be a quoted string".to_string())?;
    if inner.trim().is_empty() {
        return Err("pragma reason must not be empty".to_string());
    }
    Ok(rule)
}

/// Public view of [`test_mask`] for the sibling passes (lock-order test
/// fixtures, the contract rules).
pub fn test_mask_for(tokens: &[Token]) -> Vec<bool> {
    test_mask(tokens)
}

/// Mark every token that sits inside `#[cfg(test)]` / `#[test]` code.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokKind::Pound
            && matches!(
                tokens.get(i + 1).map(|t| &t.kind),
                Some(TokKind::Open(Delim::Bracket))
            )
        {
            if let Some(close) = matching(tokens, i + 1, Delim::Bracket) {
                if attr_is_test(&tokens[i + 2..close]) {
                    mark_following_block(tokens, close + 1, &mut mask, i);
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Does an attribute body (`cfg(test)`, `test`, …) gate test-only code?
/// `cfg` attributes count when they mention `test` without a `not`.
fn attr_is_test(body: &[Token]) -> bool {
    let idents: Vec<&str> = body
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    }
}

/// From `start` (just past a test attribute), skip further attributes and
/// the item header, then mark the item's braced body — and the attribute
/// span itself, from `attr_start` — as test code. An item ending in `;`
/// has no body to mark.
fn mark_following_block(tokens: &[Token], start: usize, mask: &mut [bool], attr_start: usize) {
    let mut i = start;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Pound
                if matches!(
                    tokens.get(i + 1).map(|t| &t.kind),
                    Some(TokKind::Open(Delim::Bracket))
                ) =>
            {
                match matching(tokens, i + 1, Delim::Bracket) {
                    Some(close) => i = close + 1,
                    None => return,
                }
            }
            TokKind::Semi => return,
            TokKind::Open(Delim::Brace) => {
                let end = matching(tokens, i, Delim::Brace).unwrap_or(tokens.len() - 1);
                for m in mask.iter_mut().take(end + 1).skip(attr_start) {
                    *m = true;
                }
                return;
            }
            _ => i += 1,
        }
    }
}

/// Index of the delimiter closing the one opened at `open`.
fn matching(tokens: &[Token], open: usize, delim: Delim) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match &t.kind {
            TokKind::Open(d) if *d == delim => depth += 1,
            TokKind::Close(d) if *d == delim => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Lint a single source text under the given rule set.
pub fn lint_source(file: &str, src: &str, rules: RuleSet) -> FileOutcome {
    let lexed = lex(src);
    let mut outcome = FileOutcome::default();
    let (mut suppressions, mut buffer_decls) =
        parse_pragmas(file, &lexed.pragmas, &mut outcome.findings);
    let mask = test_mask(&lexed.tokens);
    let tokens = &lexed.tokens;

    let mut raw: Vec<Finding> = Vec::new();
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let line = tokens[i].line;
        let ident = match &tokens[i].kind {
            TokKind::Ident(s) => s.as_str(),
            _ => continue,
        };
        let next_bang = matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokKind::Bang));
        let prev_dot = i > 0 && tokens[i - 1].kind == TokKind::Dot;
        let call_after = matches!(
            tokens.get(i + 1).map(|t| &t.kind),
            Some(TokKind::Open(Delim::Paren))
        );

        if rules.unwrap {
            if prev_dot && call_after && (ident == "unwrap" || ident == "expect") {
                raw.push(finding(file, line, "no-unwrap", format!(".{ident}() in protocol library code — propagate a Result or add an allow pragma with the invariant")));
            }
            if ident == "panic" && next_bang {
                raw.push(finding(
                    file,
                    line,
                    "no-unwrap",
                    "panic! in protocol library code — return an error instead".into(),
                ));
            }
        }
        if rules.todo && next_bang && (ident == "todo" || ident == "unimplemented") {
            raw.push(finding(
                file,
                line,
                "no-todo",
                format!("{ident}! must not ship in library code"),
            ));
        }
        if rules.wall_clock {
            let path_next = |want: &str| {
                matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokKind::PathSep))
                    && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(TokKind::Ident(s)) if s == want)
            };
            let hit = match ident {
                "Instant" | "SystemTime" if path_next("now") => Some(format!("{ident}::now")),
                "thread" if path_next("sleep") => Some("thread::sleep".into()),
                _ => None,
            };
            if let Some(what) = hit {
                raw.push(finding(file, line, "no-wall-clock", format!("{what} breaks determinism — use the virtual clock (SimClock/SimTime), or annotate a genuinely real-time path")));
            }
            if rules.blocking {
                if prev_dot && call_after && ident == "recv_timeout" {
                    raw.push(finding(file, line, "no-wall-clock", ".recv_timeout() blocks a real thread on a real duration — schedule a virtual timer on the event engine instead".into()));
                }
                if ident == "Duration" && path_next("from_secs") {
                    raw.push(finding(file, line, "no-wall-clock", "Duration::from_secs in event-engine code is a hard-coded real-time wait — derive waits from virtual time, or annotate why this path is genuinely real-time".into()));
                }
            }
        }
        if rules.bounded_queues {
            let path_next = |want: &str| {
                matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokKind::PathSep))
                    && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(TokKind::Ident(s)) if s == want)
            };
            let next_is_path_sep =
                matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokKind::PathSep));
            let empty_call = call_after
                && matches!(
                    tokens.get(i + 2).map(|t| &t.kind),
                    Some(TokKind::Close(Delim::Paren))
                );
            // `unbounded(…)` or `unbounded::<T>(…)` — but not `use …::unbounded;`.
            if ident == "unbounded" && (call_after || next_is_path_sep) {
                raw.push(finding(file, line, "no-unbounded-channel", "unbounded() gives the producer no backpressure — use a bounded channel and shed explicitly, or annotate the pragma with the growth bound".into()));
            }
            // Zero-argument `channel()` is std mpsc's unbounded constructor.
            if ident == "channel" && empty_call {
                raw.push(finding(file, line, "no-unbounded-channel", "zero-capacity channel() is unbounded — use a bounded constructor (sync_channel / bounded) with an explicit capacity".into()));
            }
            if ident == "VecDeque" && path_next("new") {
                raw.push(finding(file, line, "no-unbounded-channel", "VecDeque::new() starts a queue with no capacity bound — use with_capacity and enforce the bound at the push site, or annotate the pragma with the invariant".into()));
            }
        }
        if rules.docs && ident == "pub" {
            if let Some(f) = check_missing_docs(file, tokens, i) {
                raw.push(f);
            }
        }
    }

    if rules.span_balance {
        check_span_balance(file, tokens, &mask, &mut raw);
    }

    if rules.hash_iteration || rules.buffer_contract || rules.lock_order {
        let parsed = ParsedFile::parse(tokens);
        if rules.hash_iteration {
            check_hash_iteration(file, tokens, &mask, &parsed, &mut raw);
        }
        if rules.buffer_contract {
            check_buffer_contract(file, src, tokens, &mask, &mut buffer_decls, &mut raw);
        }
        if rules.lock_order {
            outcome.lock_seqs = lockorder::lock_sequences(tokens, &mask, &parsed);
        }
    }

    for f in raw {
        let waived = suppressions
            .iter_mut()
            .find(|s| s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line));
        if let Some(s) = waived {
            s.used += 1;
            outcome.suppressed += 1;
            *outcome.suppressed_by_rule.entry(s.rule).or_insert(0) += 1;
        } else {
            outcome.findings.push(f);
        }
    }

    // Dead-pragma accounting. `lock-order` allows are adjudicated by the
    // cross-file pass; everything else that waived nothing is stale.
    for s in &suppressions {
        if s.rule == "lock-order" {
            outcome.lock_allows.push(s.line);
        } else if s.used == 0 {
            outcome.findings.push(Finding {
                file: file.to_string(),
                line: s.line,
                rule: DEAD_PRAGMA,
                message: format!(
                    "allow({}) pragma no longer suppresses anything — remove it or the invariant it documents is fiction",
                    s.rule
                ),
            });
        }
    }
    if rules.buffer_contract {
        for d in &buffer_decls {
            if !d.used {
                outcome.findings.push(Finding {
                    file: file.to_string(),
                    line: d.line,
                    rule: DEAD_PRAGMA,
                    message:
                        "buffer pragma attaches to no channel/ring construction on this or the next line — remove or move it"
                            .to_string(),
                });
            }
        }
    }
    outcome.findings.sort_by_key(|f| f.line);
    outcome
}

fn finding(file: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule,
        message,
    }
}

/// The `telemetry-span-balance` pass. For every non-test function body:
/// a `.span_start(…)` call demands a `.span_end(…)` call in the same body,
/// and no `return` or `?` may sit between the first start and the last end.
/// That is the structural shape of the wrapper pattern — compute the result
/// into a binding, end the span, then return — which guarantees the span
/// closes on every path without flow analysis. Functions *named*
/// `span_start`/`span_end` (the telemetry crate's own definitions and
/// wrappers around them) are exempt.
fn check_span_balance(file: &str, tokens: &[Token], mask: &[bool], raw: &mut Vec<Finding>) {
    let mut i = 0;
    while i < tokens.len() {
        if mask[i] || !matches!(&tokens[i].kind, TokKind::Ident(s) if s == "fn") {
            i += 1;
            continue;
        }
        let name = match tokens.get(i + 1).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => s.clone(),
            _ => {
                i += 1;
                continue;
            }
        };
        // Find the body's opening brace; a `;` first means a bodyless
        // declaration (trait method signature).
        let mut j = i + 2;
        let open = loop {
            match tokens.get(j).map(|t| &t.kind) {
                Some(TokKind::Open(Delim::Brace)) => break Some(j),
                Some(TokKind::Semi) | None => break None,
                _ => j += 1,
            }
        };
        let Some(open) = open else {
            i = j;
            continue;
        };
        let close = matching(tokens, open, Delim::Brace).unwrap_or(tokens.len() - 1);
        if name != "span_start" && name != "span_end" {
            let body = &tokens[open + 1..close];
            let is_call = |k: usize, want: &str| {
                matches!(&body[k].kind, TokKind::Ident(s) if s == want)
                    && k > 0
                    && body[k - 1].kind == TokKind::Dot
                    && matches!(
                        body.get(k + 1).map(|t| &t.kind),
                        Some(TokKind::Open(Delim::Paren))
                    )
            };
            let starts: Vec<usize> = (0..body.len())
                .filter(|&k| is_call(k, "span_start"))
                .collect();
            let ends: Vec<usize> = (0..body.len())
                .filter(|&k| is_call(k, "span_end"))
                .collect();
            if !starts.is_empty() {
                if ends.is_empty() {
                    raw.push(finding(
                        file,
                        body[starts[0]].line,
                        "telemetry-span-balance",
                        format!("fn `{name}` starts a telemetry span but never ends one — every span_start needs a span_end on all return paths"),
                    ));
                } else {
                    let lo = starts[0];
                    let hi = ends[ends.len() - 1];
                    for tok in body.iter().take(hi).skip(lo) {
                        let exits_early = match &tok.kind {
                            TokKind::Ident(s) => s == "return",
                            TokKind::Op(c) => *c == '?',
                            _ => false,
                        };
                        if exits_early {
                            raw.push(finding(
                                file,
                                tok.line,
                                "telemetry-span-balance",
                                format!("fn `{name}` may exit between span_start and span_end — use the wrapper pattern: bind the result, end the span, then return"),
                            ));
                        }
                    }
                }
            }
        }
        // Descend into the body: nested fns get their own pass.
        i = open + 1;
    }
}

/// Item keywords whose `pub` declarations require a doc comment.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "mod", "const", "static", "type",
];

/// If `tokens[at]` (an `Ident("pub")`) introduces an undocumented public
/// item, produce the finding.
fn check_missing_docs(file: &str, tokens: &[Token], at: usize) -> Option<Finding> {
    // Must be at item position: start of file/block, after an item end, or
    // after an attribute or doc comment.
    if at > 0
        && !matches!(
            tokens[at - 1].kind,
            TokKind::Open(Delim::Brace)
                | TokKind::Close(Delim::Brace)
                | TokKind::Semi
                | TokKind::Close(Delim::Bracket)
                | TokKind::DocComment
        )
    {
        return None;
    }
    // `pub(crate)`/`pub(super)` are not public API.
    if matches!(
        tokens.get(at + 1).map(|t| &t.kind),
        Some(TokKind::Open(Delim::Paren))
    ) {
        return None;
    }
    // Find the item keyword, skipping modifiers (`const` doubles as both).
    let mut k = at + 1;
    let kw = loop {
        match tokens.get(k).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) if s == "const" => {
                if matches!(tokens.get(k + 1).map(|t| &t.kind), Some(TokKind::Ident(n)) if n == "fn")
                {
                    k += 1;
                } else {
                    break "const";
                }
            }
            Some(TokKind::Ident(s)) if matches!(s.as_str(), "unsafe" | "async" | "extern") => {
                k += 1;
            }
            Some(TokKind::Lit) => k += 1, // extern "C"
            Some(TokKind::Ident(s)) if ITEM_KEYWORDS.contains(&s.as_str()) => break s.as_str(),
            _ => return None, // `pub use` re-exports and anything else
        }
    };
    let kw: String = kw.to_string();
    let name = tokens[k + 1..]
        .iter()
        .find_map(|t| match &t.kind {
            TokKind::Ident(s) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default();
    // Walk back over attributes; a doc comment must sit above them.
    let mut j = at;
    loop {
        if j == 0 {
            break;
        }
        match tokens[j - 1].kind {
            TokKind::DocComment => return None, // documented
            TokKind::Close(Delim::Bracket) => {
                // Skip back over `#[…]`.
                let mut depth = 0usize;
                let mut b = j - 1;
                loop {
                    match tokens[b].kind {
                        TokKind::Close(Delim::Bracket) => depth += 1,
                        TokKind::Open(Delim::Bracket) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if b == 0 {
                        return None; // malformed; stay quiet
                    }
                    b -= 1;
                }
                if b > 0 && tokens[b - 1].kind == TokKind::Pound {
                    j = b - 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    Some(finding(
        file,
        tokens[at].line,
        "missing-docs",
        format!("public {kw} `{name}` has no doc comment"),
    ))
}

/// Decide which rules apply to a repo-relative path; `None` = not scanned.
pub fn rules_for(rel: &str) -> Option<RuleSet> {
    let rel = rel.replace('\\', "/");
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.starts_with("crates/shims/") {
        return None; // vendored API shims, not ours to lint
    }
    let in_crate_src = rel.starts_with("crates/") && rel.contains("/src/");
    let in_root_src = rel.starts_with("src/");
    if !in_crate_src && !in_root_src {
        return None; // tests/, benches/, examples/ are exercise code
    }
    let protocol = ["ntcp", "gridsim", "coordinator", "checkpoint", "telemetry"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    // The archive and its data plane (the repository's CAS and stripe
    // engine) carry replay-relevant protocol state but keep transfer spans
    // open across handler invocations, so they join every protocol rule
    // except span-balance (and docs, which rides with the original
    // protocol set).
    let archive = rel.starts_with("crates/archive/src/")
        || ["crates/repo/src/cas.rs", "crates/repo/src/stripe.rs"].contains(&rel.as_str());
    // The campaign engine drives sweeps whose whole value is reproducible
    // verdicts: a panic mid-sweep loses the corpus, hash iteration breaks
    // byte-identical verdict tables, and its submit queue already rides
    // the portal's bounded admission path — so it takes the determinism
    // and robustness rules, but not the span/docs discipline of the
    // protocol crates.
    let campaign = rel.starts_with("crates/campaign/src/");
    Some(RuleSet {
        unwrap: protocol || archive || campaign,
        docs: protocol,
        wall_clock: !rel.starts_with("crates/bench/"),
        // The event engine owns time in the protocol crates and the ogsi
        // RPC/hosting layer; a blocking real-time wait there defeats it.
        blocking: protocol || rel.starts_with("crates/ogsi/src/"),
        todo: true,
        // ogsi is deliberately exempt: its rpc call/complete pair is a
        // legitimate cross-function span (started in call_async, ended in
        // complete). Protocol crates must keep spans function-local.
        span_balance: protocol,
        // The crates that queue between tenants: the portal's admission
        // queue, the coordinator's scheduling structures, and the daq
        // streaming buffers. Everywhere else an unbounded Vec is idiomatic.
        bounded_queues: archive
            || campaign
            || ["portal", "coordinator", "daq"]
                .iter()
                .any(|c| rel.starts_with(&format!("crates/{c}/src/"))),
        // Replay-relevant crates: anything whose iteration order feeds the
        // simulation, the wire, or a checkpoint. Hash iteration there
        // breaks the bit-identical-replay guarantee silently.
        hash_iteration: archive
            || campaign
            || [
                "gridsim",
                "ogsi",
                "ntcp",
                "coordinator",
                "portal",
                "telemetry",
            ]
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/"))),
        // The crates that hold mutexes across a shared-service boundary.
        lock_order: ["portal", "coordinator"]
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/"))),
        // Same scope as `no-unbounded-channel`: where a queue must be
        // bounded, its bound must also be declared and kept in sync.
        buffer_contract: archive
            || campaign
            || ["portal", "coordinator", "daq"]
                .iter()
                .any(|c| rel.starts_with(&format!("crates/{c}/src/"))),
    })
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every in-scope file under the workspace `root`.
pub fn lint_workspace(root: &Path) -> Result<LintSummary, String> {
    let mut files = Vec::new();
    for base in ["crates", "src"] {
        let dir = root.join(base);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut summary = LintSummary::default();
    let mut lock_files: Vec<FileLocks> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(rules) = rules_for(&rel) else {
            continue;
        };
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let outcome = lint_source(&rel, &src, rules);
        summary.files_scanned += 1;
        summary.suppressed += outcome.suppressed;
        for (rule, n) in &outcome.suppressed_by_rule {
            *summary
                .suppressed_sites
                .entry((rel.clone(), rule.to_string()))
                .or_insert(0) += n;
        }
        summary.findings.extend(outcome.findings);
        if !outcome.lock_seqs.is_empty() || !outcome.lock_allows.is_empty() {
            lock_files.push(FileLocks {
                file: rel,
                seqs: outcome.lock_seqs,
                allows: outcome.lock_allows,
            });
        }
    }

    // The cross-file lock-order pass, plus dead-pragma adjudication for
    // its allows.
    let lock_outcome = lockorder::check_lock_order(&lock_files);
    summary.suppressed += lock_outcome.suppressed;
    for (file, _line) in &lock_outcome.used_allows {
        *summary
            .suppressed_sites
            .entry((file.clone(), "lock-order".to_string()))
            .or_insert(0) += 1;
    }
    summary.findings.extend(lock_outcome.findings);
    for fl in &lock_files {
        for &line in &fl.allows {
            if !lock_outcome
                .used_allows
                .iter()
                .any(|(f, l)| *f == fl.file && *l == line)
            {
                summary.findings.push(Finding {
                    file: fl.file.clone(),
                    line,
                    rule: DEAD_PRAGMA,
                    message: "allow(lock-order) pragma no longer suppresses anything — remove it or the invariant it documents is fiction".to_string(),
                });
            }
        }
    }

    summary
        .findings
        .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> FileOutcome {
        lint_source("test.rs", src, RuleSet::all())
    }

    fn rules_of(out: &FileOutcome) -> Vec<&'static str> {
        out.findings.iter().map(|f| f.rule).collect()
    }

    // ---- no-unwrap ----

    #[test]
    fn unwrap_expect_panic_flagged() {
        let out = lint(
            "/// d\npub fn f(x: Option<u8>) -> u8 {\n    let a = x.unwrap();\n    let b = x.expect(\"b\");\n    panic!(\"boom\");\n}\n",
        );
        assert_eq!(rules_of(&out), vec!["no-unwrap", "no-unwrap", "no-unwrap"]);
        assert_eq!(out.findings[0].line, 3);
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let out = lint(
            "/// d\npub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unwrap_in_test_module_exempt() {
        let out = lint(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); panic!(); }\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn test_fn_outside_mod_exempt() {
        let out = lint("#[test]\nfn t() { None::<u8>.unwrap(); }\n");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn pragma_suppresses_on_same_or_next_line() {
        let out = lint(
            "/// d\npub fn f(x: Option<u8>) -> u8 {\n    // analyzer:allow(no-unwrap, reason = \"checked two lines up\")\n    x.unwrap()\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn pragma_for_wrong_rule_does_not_suppress() {
        let out = lint(
            "/// d\npub fn f(x: Option<u8>) -> u8 {\n    // analyzer:allow(no-todo, reason = \"mismatched\")\n    x.unwrap()\n}\n",
        );
        // The unwrap stays a violation, and the mismatched pragma — which
        // suppressed nothing — is reported dead.
        assert_eq!(rules_of(&out), vec![DEAD_PRAGMA, "no-unwrap"]);
    }

    #[test]
    fn dead_pragmas_are_flagged_and_live_ones_are_not() {
        let out = lint(
            "/// d\npub fn f(x: Option<u8>) -> u8 {\n    // analyzer:allow(no-unwrap, reason = \"nothing to waive anymore\")\n    x.unwrap_or(0)\n}\n",
        );
        assert_eq!(rules_of(&out), vec![DEAD_PRAGMA]);
        assert!(out.findings[0].message.contains("no longer suppresses"));
        let out = lint(
            "/// d\npub fn f(x: Option<u8>) -> u8 {\n    // analyzer:allow(no-unwrap, reason = \"checked above\")\n    x.unwrap()\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn reasonless_or_unknown_pragma_is_a_violation() {
        let out = lint("// analyzer:allow(no-unwrap)\n// analyzer:allow(no-unwrap, reason = \"\")\n// analyzer:allow(nonsense, reason = \"x\")\n");
        assert_eq!(rules_of(&out), vec![BAD_PRAGMA, BAD_PRAGMA, BAD_PRAGMA]);
    }

    // ---- no-wall-clock ----

    #[test]
    fn wall_clock_patterns_flagged() {
        let out = lint(
            "fn f() {\n    let t = std::time::Instant::now();\n    let s = SystemTime::now();\n    std::thread::sleep(d);\n}\n",
        );
        assert_eq!(
            rules_of(&out),
            vec!["no-wall-clock", "no-wall-clock", "no-wall-clock"]
        );
        assert!(out.findings[0].message.contains("Instant::now"));
    }

    #[test]
    fn wall_clock_in_tests_exempt() {
        let out = lint("#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn virtual_clock_identifiers_unflagged() {
        let out = lint("fn f(c: &SimClock) -> SimTime { c.now() }\n");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn blocking_wait_patterns_flagged() {
        let out = lint(
            "fn f(rx: &Receiver<u8>) {\n    let _ = rx.recv_timeout(d);\n    let d = Duration::from_secs(5);\n}\n",
        );
        assert_eq!(rules_of(&out), vec!["no-wall-clock", "no-wall-clock"]);
        assert!(out.findings[0].message.contains("recv_timeout"));
        assert!(out.findings[1].message.contains("from_secs"));
    }

    #[test]
    fn virtual_time_and_subsecond_durations_unflagged() {
        // SimTime::from_secs is virtual time; from_secs_f64 and from_millis
        // are distinct identifiers; a bare `recv` doesn't block on a
        // duration.
        let out = lint(
            "fn f(rx: &Receiver<u8>) -> SimTime {\n    let _ = rx.recv();\n    let _ = Duration::from_secs_f64(0.5);\n    let _ = Duration::from_millis(5);\n    SimTime::from_secs(60)\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn blocking_waits_unflagged_without_blocking_rule() {
        let rules = RuleSet {
            blocking: false,
            ..RuleSet::all()
        };
        let out = lint_source(
            "test.rs",
            "fn f(rx: &Receiver<u8>) { let _ = rx.recv_timeout(Duration::from_secs(5)); }\n",
            rules,
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    // ---- no-todo ----

    #[test]
    fn todo_and_unimplemented_flagged() {
        let out = lint("fn f() { todo!() }\nfn g() { unimplemented!(\"later\") }\n");
        assert_eq!(rules_of(&out), vec!["no-todo", "no-todo"]);
    }

    #[test]
    fn todo_ident_without_bang_unflagged() {
        let out = lint("fn f(todo: u8) -> u8 { todo }\n");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    // ---- missing-docs ----

    #[test]
    fn undocumented_pub_items_flagged() {
        let out = lint("pub fn f() {}\npub struct S;\npub enum E { A }\n");
        assert_eq!(
            rules_of(&out),
            vec!["missing-docs", "missing-docs", "missing-docs"]
        );
        assert!(out.findings[0].message.contains("`f`"));
    }

    #[test]
    fn documented_and_attributed_items_pass() {
        let out = lint(
            "/// Docs.\npub fn f() {}\n/// Docs.\n#[derive(Debug)]\npub struct S;\n/** block */\npub const X: u8 = 0;\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn pub_crate_and_pub_use_exempt() {
        let out = lint("pub(crate) fn f() {}\npub use other::Thing;\n");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn pub_const_fn_reports_fn() {
        let out = lint("pub const fn f() {}\n");
        assert_eq!(rules_of(&out), vec!["missing-docs"]);
        assert!(out.findings[0].message.contains("public fn"));
    }

    #[test]
    fn attribute_between_doc_and_item_still_documented() {
        let out = lint("/// Docs.\n#[derive(Debug, Clone)]\n#[repr(C)]\npub struct S;\n");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    // ---- telemetry-span-balance ----

    #[test]
    fn span_start_without_end_flagged() {
        let out = lint(
            "fn f(&self) {\n    let s = self.telemetry.span_start(t, \"x\", \"y\", vec![]);\n    work();\n}\n",
        );
        assert_eq!(rules_of(&out), vec!["telemetry-span-balance"]);
        assert!(out.findings[0].message.contains("never ends"));
    }

    #[test]
    fn return_between_start_and_end_flagged() {
        let out = lint(
            "fn f(&self) -> u8 {\n    let s = self.telemetry.span_start(t, \"x\", \"y\", vec![]);\n    if bad { return 0; }\n    self.telemetry.span_end(t, s, vec![]);\n    1\n}\n",
        );
        assert_eq!(rules_of(&out), vec!["telemetry-span-balance"]);
        assert_eq!(out.findings[0].line, 3);
    }

    #[test]
    fn question_mark_between_start_and_end_flagged() {
        let out = lint(
            "fn f(&self) -> Result<u8, E> {\n    let s = self.telemetry.span_start(t, \"x\", \"y\", vec![]);\n    let v = fallible()?;\n    self.telemetry.span_end(t, s, vec![]);\n    Ok(v)\n}\n",
        );
        assert_eq!(rules_of(&out), vec!["telemetry-span-balance"]);
    }

    #[test]
    fn wrapper_pattern_passes() {
        // The sanctioned shape: start, compute into a binding (the inner
        // call may fail — that's its problem), end, then return.
        let out = lint(
            "fn f(&self) -> Result<u8, E> {\n    let s = self.telemetry.span_start(t, \"x\", \"y\", vec![]);\n    let result = self.inner();\n    self.telemetry.span_end(t, s, vec![]);\n    result\n}\nfn g(&self) -> Result<u8, E> {\n    let v = fallible()?;\n    Ok(v)\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn span_fn_definitions_exempt() {
        // The telemetry crate's own span_start/span_end (and wrappers named
        // after them) are not unbalanced spans.
        let out = lint(
            "pub(crate) fn span_start(&self, t: u64) -> SpanId {\n    self.record(t);\n    SpanId(1)\n}\npub(crate) fn span_end(&self, t: u64) {\n    self.record(t);\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn span_in_test_module_exempt() {
        let out = lint(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let s = tel.span_start(0, \"a\", \"b\", vec![]); }\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    // ---- no-unbounded-channel ----

    #[test]
    fn unbounded_constructors_flagged() {
        let out = lint(
            "fn f() {\n    let (tx, rx) = unbounded();\n    let (a, b) = crossbeam::channel::unbounded::<u8>();\n    let (c, d) = std::sync::mpsc::channel();\n    let q: VecDeque<u8> = VecDeque::new();\n}\n",
        );
        assert_eq!(
            rules_of(&out),
            vec![
                "no-unbounded-channel",
                "no-unbounded-channel",
                "no-unbounded-channel",
                "no-unbounded-channel"
            ]
        );
        assert!(out.findings[1].message.contains("backpressure"));
        assert!(out.findings[3].message.contains("with_capacity"));
    }

    #[test]
    fn bounded_constructors_unflagged() {
        // buffer_contract off: this test checks only that bounded ctors
        // escape the no-unbounded-channel rule (the contract rule has its
        // own tests in `contracts`).
        let rules = RuleSet {
            buffer_contract: false,
            ..RuleSet::all()
        };
        let out = lint_source(
            "test.rs",
            "fn f() {\n    let (tx, rx) = bounded(64);\n    let (a, b) = sync_channel(16);\n    let (c, d) = channel(32);\n    let q: VecDeque<u8> = VecDeque::with_capacity(8);\n}\n",
            rules,
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unbounded_pragma_and_scope_respected() {
        let out = lint(
            "fn f() {\n    // analyzer:allow(no-unbounded-channel, reason = \"drained every tick, bounded by pool size\")\n    let q: VecDeque<u8> = VecDeque::new();\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed, 1);
        let rules = RuleSet {
            bounded_queues: false,
            ..RuleSet::all()
        };
        let out = lint_source("test.rs", "fn f() { let (tx, rx) = unbounded(); }\n", rules);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unbounded_in_tests_exempt() {
        let out = lint(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let q: VecDeque<u8> = VecDeque::new(); }\n}\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    // ---- scoping ----

    #[test]
    fn rule_scope_by_path() {
        let p = rules_for("crates/ntcp/src/server.rs").unwrap();
        assert!(p.unwrap && p.docs && p.wall_clock && p.blocking && p.todo && p.span_balance);
        assert!(!p.bounded_queues);
        let t = rules_for("crates/telemetry/src/lib.rs").unwrap();
        assert!(t.unwrap && t.docs && t.wall_clock && t.blocking && t.todo && t.span_balance);
        let o = rules_for("crates/ogsi/src/rpc.rs").unwrap();
        assert!(!o.unwrap && !o.docs && o.wall_clock && o.blocking && o.todo && !o.span_balance);
        let m = rules_for("crates/most/src/runner.rs").unwrap();
        assert!(m.wall_clock && !m.blocking && !m.span_balance && !m.bounded_queues);
        let b = rules_for("crates/bench/src/lib.rs").unwrap();
        assert!(!b.wall_clock && !b.blocking && b.todo);
        let q = rules_for("crates/portal/src/scheduler.rs").unwrap();
        assert!(q.bounded_queues && q.wall_clock && !q.unwrap && !q.docs);
        assert!(
            rules_for("crates/coordinator/src/coordinator.rs")
                .unwrap()
                .bounded_queues
        );
        assert!(rules_for("crates/daq/src/nsds.rs").unwrap().bounded_queues);
        // Determinism/concurrency contracts: hash iteration everywhere
        // replayability matters, lock order + buffer contracts where the
        // concurrency actually lives.
        assert!(p.hash_iteration && !p.lock_order && !p.buffer_contract);
        assert!(t.hash_iteration);
        assert!(o.hash_iteration);
        assert!(!m.hash_iteration && !m.lock_order);
        assert!(q.hash_iteration && q.lock_order && q.buffer_contract);
        let c = rules_for("crates/coordinator/src/coordinator.rs").unwrap();
        assert!(c.hash_iteration && c.lock_order && c.buffer_contract);
        let d = rules_for("crates/daq/src/nsds.rs").unwrap();
        assert!(!d.hash_iteration && !d.lock_order && d.buffer_contract);
        // The archive data plane: every protocol-grade rule except docs
        // and span-balance (its transfer spans legitimately cross handler
        // invocations, like ogsi's rpc call/complete pair).
        let a = rules_for("crates/repo/src/stripe.rs").unwrap();
        assert!(a.unwrap && a.wall_clock && a.hash_iteration);
        assert!(a.bounded_queues && a.buffer_contract);
        assert!(!a.docs && !a.span_balance && !a.lock_order && !a.blocking);
        assert_eq!(rules_for("crates/repo/src/cas.rs"), Some(a));
        // The campaign engine: determinism + robustness rules (a panic
        // loses the sweep, hash iteration un-reproduces the verdict
        // table), minus the protocol span/docs discipline.
        let g = rules_for("crates/campaign/src/runner.rs").unwrap();
        assert!(g.unwrap && g.wall_clock && g.hash_iteration);
        assert!(g.bounded_queues && g.buffer_contract);
        assert!(!g.docs && !g.span_balance && !g.lock_order && !g.blocking);
        assert_eq!(rules_for("crates/shims/rand/src/lib.rs"), None);
        assert_eq!(rules_for("crates/ntcp/tests/integration.rs"), None);
        assert_eq!(rules_for("tests/most.rs"), None);
        assert!(rules_for("src/lib.rs").is_some());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let out = lint("#[cfg(not(test))]\nfn f() { x.unwrap(); }\n");
        assert_eq!(rules_of(&out), vec!["no-unwrap"]);
    }
}
