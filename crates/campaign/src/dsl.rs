//! The scenario DSL: a declarative, versionable description of one
//! campaign — ground motion, site mix, network conditions, injected
//! faults, and the sweep axes that multiply it into a run matrix.
//!
//! The format is deliberately small and hand-parsed (the workspace
//! builds offline; the analyzer set the precedent of rolling its own
//! lexer). A scenario is one `campaign` block:
//!
//! ```text
//! # The paper's public-run failure, swept over eight seeds.
//! campaign "public-run" {
//!   motion  { suite = strong; amplitude = 1.0; }
//!   sites   { count = 3; mix = [numerical, emulated]; }
//!   network {
//!     profile = campus-wan;
//!     link "coordinator" -> "site-001" : lossy-wan;
//!   }
//!   faults {
//!     drop  "coordinator" -> "site-000" at step 4 phase propose;
//!     reset "coordinator" -> "site-002" at step 11 phase execute;
//!     dup   "site-000" -> "coordinator" at message 7;
//!     drop rate 15/1000 on "coordinator" -> "site-000";
//!     kill worker 0 at tick 3;
//!   }
//!   run   { steps = 24; checkpoint-every = 8; policy = partial; }
//!   sweep { seeds = 1..8; amplitude = [1.0, 2.5]; }
//! }
//! ```
//!
//! Step-addressed faults use the workspace's message-indexing
//! convention: each coordinator step sends exactly one propose and one
//! execute request per coordinator→site link, so `at step N phase
//! propose` is per-link message index `2·N` and `phase execute` is
//! `2·N + 1` — *assuming no earlier retransmission shifted the link's
//! indices*. Plans that must account for such shifts (the MOST
//! scenarios do) say `at message M` with the literal index instead.
//!
//! Every knob has a default, so the smallest valid scenario is
//! `campaign "x" { }`. Unknown keys are errors, not warnings: a typo'd
//! axis silently sweeping nothing would poison a whole corpus.

use std::fmt;

use neesgrid_gridsim::{FaultAction, LinkKey, NetworkProfile};
use neesgrid_portal::{LinkProfile, MotionSuite, RunPolicy, SiteKind};

/// A parse failure, with the 1-based source line that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// One injected-fault statement, kept as IR so the per-run
/// [`FaultPlan`](neesgrid_gridsim::FaultPlan) can be built with a
/// seed-derived salt at expansion time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultStmt {
    /// A scheduled fault at one per-link message index.
    Point {
        /// Drop, reset, or duplicate.
        action: FaultAction,
        /// The link it fires on.
        link: LinkKey,
        /// Per-link message index.
        index: u64,
    },
    /// A deterministic background fault rate.
    Rate {
        /// Drop, reset, or duplicate.
        action: FaultAction,
        /// Faults per thousand messages (0..=1000).
        per_mille: u16,
        /// Restrict to one link; `None` = every link.
        link: Option<LinkKey>,
    },
}

/// A scheduled portal worker kill, exercising checkpoint recovery
/// inside a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill {
    /// Worker slot index.
    pub worker: usize,
    /// Campaign scheduler tick (0-based) at which to kill it.
    pub tick: u64,
}

/// The sweep axes: seeds × every listed axis, expanded as a cartesian
/// product. An empty axis means "just the scenario's base value".
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Inclusive seed range.
    pub seed_lo: u64,
    /// Inclusive seed range.
    pub seed_hi: u64,
    /// Amplitude axis.
    pub amplitudes: Vec<f64>,
    /// Network-profile axis.
    pub profiles: Vec<NetworkProfile>,
    /// Motion-suite axis.
    pub suites: Vec<MotionSuite>,
    /// Fault-policy axis.
    pub policies: Vec<RunPolicy>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            seed_lo: 1,
            seed_hi: 1,
            amplitudes: Vec::new(),
            profiles: Vec::new(),
            suites: Vec::new(),
            policies: Vec::new(),
        }
    }
}

/// A parsed scenario: everything `campaign "…" { … }` declared, plus
/// the original source text (archived verbatim into the corpus).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDoc {
    /// Campaign name (the corpus namespace).
    pub name: String,
    /// Ground-motion suite.
    pub suite: MotionSuite,
    /// Scale factor on the suite's peak.
    pub amplitude: f64,
    /// Number of experiment sites.
    pub sites: usize,
    /// Site material mix, cycled over site indices.
    pub mix: Vec<SiteKind>,
    /// Default network condition.
    pub profile: NetworkProfile,
    /// Per-link overrides.
    pub links: Vec<LinkProfile>,
    /// Injected faults (IR; see [`FaultStmt`]).
    pub faults: Vec<FaultStmt>,
    /// Scheduled worker kills.
    pub kills: Vec<WorkerKill>,
    /// Pseudo-dynamic steps per run.
    pub steps: usize,
    /// Checkpoint cadence (0 = never).
    pub checkpoint_every: u64,
    /// Coordinator fault-tolerance policy.
    pub policy: RunPolicy,
    /// The sweep axes.
    pub sweep: Sweep,
    /// The verbatim source text this doc was parsed from.
    pub source: String,
}

impl ScenarioDoc {
    /// Parse one scenario file.
    pub fn parse(src: &str) -> Result<ScenarioDoc, ParseError> {
        Parser::new(lex(src)?).campaign(src)
    }
}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(String),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    Eq,
    Arrow,
    DotDot,
    Slash,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Num(s) => write!(f, "`{s}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::DotDot => write!(f, "`..`"),
            Tok::Slash => write!(f, "`/`"),
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // Comment to end of line.
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' => {
                chars.next();
                toks.push((Tok::LBrace, line));
            }
            '}' => {
                chars.next();
                toks.push((Tok::RBrace, line));
            }
            '[' => {
                chars.next();
                toks.push((Tok::LBracket, line));
            }
            ']' => {
                chars.next();
                toks.push((Tok::RBracket, line));
            }
            ';' => {
                chars.next();
                toks.push((Tok::Semi, line));
            }
            ',' => {
                chars.next();
                toks.push((Tok::Comma, line));
            }
            ':' => {
                chars.next();
                toks.push((Tok::Colon, line));
            }
            '=' => {
                chars.next();
                toks.push((Tok::Eq, line));
            }
            '/' => {
                chars.next();
                toks.push((Tok::Slash, line));
            }
            '-' => {
                chars.next();
                match chars.peek() {
                    Some('>') => {
                        chars.next();
                        toks.push((Tok::Arrow, line));
                    }
                    _ => return Err(err(line, "stray `-` (expected `->`)")),
                }
            }
            '.' => {
                chars.next();
                match chars.peek() {
                    Some('.') => {
                        chars.next();
                        toks.push((Tok::DotDot, line));
                    }
                    _ => return Err(err(line, "stray `.` (expected `..`)")),
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\n') | None => return Err(err(line, "unterminated string literal")),
                        Some(c) => s.push(c),
                    }
                }
                toks.push((Tok::Str(s), line));
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        s.push(d);
                        chars.next();
                    } else if d == '.' {
                        // `1..8` is a range, `1.5` is a float: peek past
                        // the dot without consuming it.
                        let mut ahead = chars.clone();
                        ahead.next();
                        match ahead.peek() {
                            Some(n) if n.is_ascii_digit() && !s.contains('.') => {
                                s.push('.');
                                chars.next();
                            }
                            _ => break,
                        }
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Num(s), line));
            }
            c if c.is_ascii_alphabetic() => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    // `campus-wan` is one identifier; `-` is part of an
                    // ident only when a letter/digit follows (so `a ->`
                    // still lexes as ident + arrow).
                    if d.is_ascii_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else if d == '-' {
                        let mut ahead = chars.clone();
                        ahead.next();
                        match ahead.peek() {
                            Some(n) if n.is_ascii_alphanumeric() => {
                                s.push('-');
                                chars.next();
                            }
                            _ => break,
                        }
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Ident(s), line));
            }
            other => return Err(err(line, format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

// --------------------------------------------------------------- parser

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn new(toks: Vec<(Tok, usize)>) -> Parser {
        Parser { toks, pos: 0 }
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(1)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let line = self.line();
        match self.toks.get(self.pos) {
            Some((t, _)) => {
                self.pos += 1;
                Ok(t.clone())
            }
            None => Err(err(line, "unexpected end of input")),
        }
    }

    fn require(&mut self, want: &Tok) -> Result<(), ParseError> {
        let line = self.line();
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(err(line, format!("expected {want}, got {got}")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            got => Err(err(line, format!("expected identifier, got {got}"))),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        match self.next()? {
            Tok::Str(s) => Ok(s),
            got => Err(err(line, format!("expected string literal, got {got}"))),
        }
    }

    fn uint(&mut self) -> Result<u64, ParseError> {
        let line = self.line();
        match self.next()? {
            Tok::Num(s) => s
                .parse::<u64>()
                .map_err(|_| err(line, format!("expected integer, got `{s}`"))),
            got => Err(err(line, format!("expected integer, got {got}"))),
        }
    }

    fn float(&mut self) -> Result<f64, ParseError> {
        let line = self.line();
        match self.next()? {
            Tok::Num(s) => s
                .parse::<f64>()
                .map_err(|_| err(line, format!("expected number, got `{s}`"))),
            got => Err(err(line, format!("expected number, got {got}"))),
        }
    }

    /// `"src" -> "dst"`
    fn link(&mut self) -> Result<LinkKey, ParseError> {
        let line = self.line();
        let src = self.string()?;
        self.require(&Tok::Arrow)?;
        let dst = self.string()?;
        if src == dst {
            return Err(err(line, "link src and dst must differ"));
        }
        Ok(LinkKey::new(src, dst))
    }

    fn profile_name(&mut self) -> Result<NetworkProfile, ParseError> {
        let line = self.line();
        let name = self.ident()?;
        NetworkProfile::parse(&name)
            .ok_or_else(|| err(line, format!("unknown network profile `{name}`")))
    }

    fn campaign(mut self, src: &str) -> Result<ScenarioDoc, ParseError> {
        let line = self.line();
        let kw = self.ident()?;
        if kw != "campaign" {
            return Err(err(line, format!("expected `campaign`, got `{kw}`")));
        }
        let name = self.string()?;
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            return Err(err(
                line,
                "campaign name must be non-empty [a-zA-Z0-9-] (it becomes a corpus namespace)",
            ));
        }
        let mut doc = ScenarioDoc {
            name,
            suite: MotionSuite::Nominal,
            amplitude: 1.0,
            sites: 2,
            mix: Vec::new(),
            profile: NetworkProfile::CampusWan,
            links: Vec::new(),
            faults: Vec::new(),
            kills: Vec::new(),
            steps: 16,
            checkpoint_every: 0,
            policy: RunPolicy::Full,
            sweep: Sweep::default(),
            source: src.to_string(),
        };
        self.require(&Tok::LBrace)?;
        loop {
            let line = self.line();
            match self.next()? {
                Tok::RBrace => break,
                Tok::Ident(block) => match block.as_str() {
                    "motion" => self.motion_block(&mut doc)?,
                    "sites" => self.sites_block(&mut doc)?,
                    "network" => self.network_block(&mut doc)?,
                    "faults" => self.faults_block(&mut doc)?,
                    "run" => self.run_block(&mut doc)?,
                    "sweep" => self.sweep_block(&mut doc)?,
                    other => return Err(err(line, format!("unknown block `{other}`"))),
                },
                got => return Err(err(line, format!("expected a block name, got {got}"))),
            }
        }
        if self.pos != self.toks.len() {
            return Err(err(self.line(), "trailing input after campaign block"));
        }
        if doc.sweep.seed_lo > doc.sweep.seed_hi {
            return Err(err(1, "sweep seeds range is empty"));
        }
        Ok(doc)
    }

    fn motion_block(&mut self, doc: &mut ScenarioDoc) -> Result<(), ParseError> {
        self.require(&Tok::LBrace)?;
        loop {
            let line = self.line();
            match self.next()? {
                Tok::RBrace => return Ok(()),
                Tok::Ident(key) => {
                    self.require(&Tok::Eq)?;
                    match key.as_str() {
                        "suite" => {
                            let name = self.ident()?;
                            doc.suite = MotionSuite::parse(&name).ok_or_else(|| {
                                err(line, format!("unknown motion suite `{name}`"))
                            })?;
                        }
                        "amplitude" => doc.amplitude = self.float()?,
                        other => return Err(err(line, format!("unknown motion key `{other}`"))),
                    }
                    self.require(&Tok::Semi)?;
                }
                got => return Err(err(line, format!("expected a motion key, got {got}"))),
            }
        }
    }

    fn sites_block(&mut self, doc: &mut ScenarioDoc) -> Result<(), ParseError> {
        self.require(&Tok::LBrace)?;
        loop {
            let line = self.line();
            match self.next()? {
                Tok::RBrace => return Ok(()),
                Tok::Ident(key) => {
                    self.require(&Tok::Eq)?;
                    match key.as_str() {
                        "count" => doc.sites = self.uint()? as usize,
                        "mix" => {
                            self.require(&Tok::LBracket)?;
                            doc.mix.clear();
                            loop {
                                if self.peek() == Some(&Tok::RBracket) {
                                    self.next()?;
                                    break;
                                }
                                let line = self.line();
                                let name = self.ident()?;
                                let kind = SiteKind::parse(&name).ok_or_else(|| {
                                    err(line, format!("unknown site kind `{name}`"))
                                })?;
                                doc.mix.push(kind);
                                if self.peek() == Some(&Tok::Comma) {
                                    self.next()?;
                                }
                            }
                        }
                        other => return Err(err(line, format!("unknown sites key `{other}`"))),
                    }
                    self.require(&Tok::Semi)?;
                }
                got => return Err(err(line, format!("expected a sites key, got {got}"))),
            }
        }
    }

    fn network_block(&mut self, doc: &mut ScenarioDoc) -> Result<(), ParseError> {
        self.require(&Tok::LBrace)?;
        loop {
            let line = self.line();
            match self.next()? {
                Tok::RBrace => return Ok(()),
                Tok::Ident(key) => match key.as_str() {
                    "profile" => {
                        self.require(&Tok::Eq)?;
                        doc.profile = self.profile_name()?;
                        self.require(&Tok::Semi)?;
                    }
                    "link" => {
                        let link = self.link()?;
                        self.require(&Tok::Colon)?;
                        let profile = self.profile_name()?;
                        doc.links.push(LinkProfile {
                            src: link.src.to_string(),
                            dst: link.dst.to_string(),
                            profile,
                        });
                        self.require(&Tok::Semi)?;
                    }
                    other => return Err(err(line, format!("unknown network key `{other}`"))),
                },
                got => return Err(err(line, format!("expected a network key, got {got}"))),
            }
        }
    }

    fn fault_action(&self, line: usize, name: &str) -> Result<FaultAction, ParseError> {
        match name {
            "drop" => Ok(FaultAction::Drop),
            "reset" => Ok(FaultAction::Reset),
            "dup" => Ok(FaultAction::Duplicate),
            other => Err(err(line, format!("unknown fault action `{other}`"))),
        }
    }

    fn faults_block(&mut self, doc: &mut ScenarioDoc) -> Result<(), ParseError> {
        self.require(&Tok::LBrace)?;
        loop {
            let line = self.line();
            match self.next()? {
                Tok::RBrace => return Ok(()),
                Tok::Ident(kw) if kw == "kill" => {
                    // kill worker N at tick T ;
                    let line = self.line();
                    let noun = self.ident()?;
                    if noun != "worker" {
                        return Err(err(line, format!("expected `worker`, got `{noun}`")));
                    }
                    let worker = self.uint()? as usize;
                    let at = self.ident()?;
                    if at != "at" {
                        return Err(err(line, format!("expected `at`, got `{at}`")));
                    }
                    let unit = self.ident()?;
                    if unit != "tick" {
                        return Err(err(line, format!("expected `tick`, got `{unit}`")));
                    }
                    let tick = self.uint()?;
                    self.require(&Tok::Semi)?;
                    doc.kills.push(WorkerKill { worker, tick });
                }
                Tok::Ident(kw) => {
                    let action = self.fault_action(line, &kw)?;
                    if self.peek() == Some(&Tok::Ident("rate".to_string())) {
                        // <action> rate N/1000 [on <link>] ;
                        self.next()?;
                        let n = self.uint()?;
                        self.require(&Tok::Slash)?;
                        let denom = self.uint()?;
                        if denom != 1000 || n > 1000 {
                            return Err(err(
                                self.line(),
                                "fault rates are per-mille: `N/1000` with N <= 1000",
                            ));
                        }
                        let link = if self.peek() == Some(&Tok::Ident("on".to_string())) {
                            self.next()?;
                            Some(self.link()?)
                        } else {
                            None
                        };
                        self.require(&Tok::Semi)?;
                        doc.faults.push(FaultStmt::Rate {
                            action,
                            per_mille: n as u16,
                            link,
                        });
                    } else {
                        // <action> <link> at step N [phase propose|execute] ;
                        // <action> <link> at message M ;
                        let link = self.link()?;
                        let line = self.line();
                        let at = self.ident()?;
                        if at != "at" {
                            return Err(err(line, format!("expected `at`, got `{at}`")));
                        }
                        let unit_line = self.line();
                        let unit = self.ident()?;
                        let index = match unit.as_str() {
                            "message" => self.uint()?,
                            "step" => {
                                let step_line = self.line();
                                let step = self.uint()?;
                                // A step past u64::MAX / 2 has no message
                                // index; below it, 2·N + 1 fits as well.
                                let mut index = step.checked_mul(2).ok_or_else(|| {
                                    err(
                                        step_line,
                                        format!(
                                            "step {step} is out of range (at most {})",
                                            u64::MAX / 2
                                        ),
                                    )
                                })?;
                                if self.peek() == Some(&Tok::Ident("phase".to_string())) {
                                    self.next()?;
                                    let line = self.line();
                                    let phase = self.ident()?;
                                    match phase.as_str() {
                                        "propose" => {}
                                        "execute" => index += 1,
                                        other => {
                                            return Err(err(
                                                line,
                                                format!(
                                                    "unknown phase `{other}` (propose|execute)"
                                                ),
                                            ))
                                        }
                                    }
                                }
                                index
                            }
                            other => {
                                return Err(err(
                                    unit_line,
                                    format!("expected `step` or `message`, got `{other}`"),
                                ))
                            }
                        };
                        self.require(&Tok::Semi)?;
                        doc.faults.push(FaultStmt::Point {
                            action,
                            link,
                            index,
                        });
                    }
                }
                got => return Err(err(line, format!("expected a fault statement, got {got}"))),
            }
        }
    }

    fn run_block(&mut self, doc: &mut ScenarioDoc) -> Result<(), ParseError> {
        self.require(&Tok::LBrace)?;
        loop {
            let line = self.line();
            match self.next()? {
                Tok::RBrace => return Ok(()),
                Tok::Ident(key) => {
                    self.require(&Tok::Eq)?;
                    match key.as_str() {
                        "steps" => doc.steps = self.uint()? as usize,
                        "checkpoint-every" => doc.checkpoint_every = self.uint()?,
                        "policy" => {
                            let name = self.ident()?;
                            doc.policy = RunPolicy::parse(&name).ok_or_else(|| {
                                err(line, format!("unknown policy `{name}` (full|partial)"))
                            })?;
                        }
                        other => return Err(err(line, format!("unknown run key `{other}`"))),
                    }
                    self.require(&Tok::Semi)?;
                }
                got => return Err(err(line, format!("expected a run key, got {got}"))),
            }
        }
    }

    fn sweep_block(&mut self, doc: &mut ScenarioDoc) -> Result<(), ParseError> {
        self.require(&Tok::LBrace)?;
        loop {
            let line = self.line();
            match self.next()? {
                Tok::RBrace => return Ok(()),
                Tok::Ident(key) => {
                    self.require(&Tok::Eq)?;
                    match key.as_str() {
                        "seeds" => {
                            doc.sweep.seed_lo = self.uint()?;
                            self.require(&Tok::DotDot)?;
                            doc.sweep.seed_hi = self.uint()?;
                        }
                        "amplitude" => {
                            doc.sweep.amplitudes = self.float_list()?;
                        }
                        "profile" => {
                            self.require(&Tok::LBracket)?;
                            doc.sweep.profiles.clear();
                            loop {
                                if self.peek() == Some(&Tok::RBracket) {
                                    self.next()?;
                                    break;
                                }
                                doc.sweep.profiles.push(self.profile_name()?);
                                if self.peek() == Some(&Tok::Comma) {
                                    self.next()?;
                                }
                            }
                        }
                        "suite" => {
                            self.require(&Tok::LBracket)?;
                            doc.sweep.suites.clear();
                            loop {
                                if self.peek() == Some(&Tok::RBracket) {
                                    self.next()?;
                                    break;
                                }
                                let line = self.line();
                                let name = self.ident()?;
                                let suite = MotionSuite::parse(&name).ok_or_else(|| {
                                    err(line, format!("unknown motion suite `{name}`"))
                                })?;
                                doc.sweep.suites.push(suite);
                                if self.peek() == Some(&Tok::Comma) {
                                    self.next()?;
                                }
                            }
                        }
                        "policy" => {
                            self.require(&Tok::LBracket)?;
                            doc.sweep.policies.clear();
                            loop {
                                if self.peek() == Some(&Tok::RBracket) {
                                    self.next()?;
                                    break;
                                }
                                let line = self.line();
                                let name = self.ident()?;
                                let policy = RunPolicy::parse(&name)
                                    .ok_or_else(|| err(line, format!("unknown policy `{name}`")))?;
                                doc.sweep.policies.push(policy);
                                if self.peek() == Some(&Tok::Comma) {
                                    self.next()?;
                                }
                            }
                        }
                        other => return Err(err(line, format!("unknown sweep axis `{other}`"))),
                    }
                    self.require(&Tok::Semi)?;
                }
                got => return Err(err(line, format!("expected a sweep axis, got {got}"))),
            }
        }
    }

    fn float_list(&mut self) -> Result<Vec<f64>, ParseError> {
        self.require(&Tok::LBracket)?;
        let mut out = Vec::new();
        loop {
            if self.peek() == Some(&Tok::RBracket) {
                self.next()?;
                break;
            }
            out.push(self.float()?);
            if self.peek() == Some(&Tok::Comma) {
                self.next()?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_campaign_parses_with_defaults() {
        let doc = ScenarioDoc::parse("campaign \"smoke\" { }").expect("parses");
        assert_eq!(doc.name, "smoke");
        assert_eq!(doc.sites, 2);
        assert_eq!(doc.steps, 16);
        assert_eq!(doc.policy, RunPolicy::Full);
        assert_eq!(doc.profile, NetworkProfile::CampusWan);
        assert_eq!((doc.sweep.seed_lo, doc.sweep.seed_hi), (1, 1));
        assert!(doc.faults.is_empty() && doc.kills.is_empty());
    }

    #[test]
    fn full_grammar_round_trips() {
        let src = r#"
# comment
campaign "public-run" {
  motion  { suite = strong; amplitude = 1.5; }
  sites   { count = 3; mix = [numerical, emulated]; }
  network {
    profile = lan;
    link "coordinator" -> "site-001" : lossy-wan;
  }
  faults {
    drop  "coordinator" -> "site-000" at step 4;
    drop  "coordinator" -> "site-000" at step 5 phase propose;
    reset "coordinator" -> "site-002" at step 11 phase execute;
    dup   "site-000" -> "coordinator" at message 7;
    drop rate 15/1000 on "coordinator" -> "site-000";
    dup rate 3/1000;
    kill worker 0 at tick 3;
  }
  run   { steps = 24; checkpoint-every = 8; policy = partial; }
  sweep { seeds = 1..8; amplitude = [1.0, 2.5]; profile = [campus-wan, lossy-wan]; }
}
"#;
        let doc = ScenarioDoc::parse(src).expect("parses");
        assert_eq!(doc.suite, MotionSuite::Strong);
        assert_eq!(doc.amplitude, 1.5);
        assert_eq!(doc.mix, vec![SiteKind::Numerical, SiteKind::Emulated]);
        assert_eq!(doc.profile, NetworkProfile::Lan);
        assert_eq!(doc.links.len(), 1);
        assert_eq!(doc.links[0].profile, NetworkProfile::LossyWan);
        assert_eq!(doc.faults.len(), 6);
        assert_eq!(
            doc.faults[0],
            FaultStmt::Point {
                action: FaultAction::Drop,
                link: LinkKey::new("coordinator", "site-000"),
                index: 8,
            }
        );
        assert_eq!(
            doc.faults[2],
            FaultStmt::Point {
                action: FaultAction::Reset,
                link: LinkKey::new("coordinator", "site-002"),
                index: 23,
            }
        );
        assert_eq!(
            doc.faults[3],
            FaultStmt::Point {
                action: FaultAction::Duplicate,
                link: LinkKey::new("site-000", "coordinator"),
                index: 7,
            }
        );
        assert_eq!(
            doc.faults[4],
            FaultStmt::Rate {
                action: FaultAction::Drop,
                per_mille: 15,
                link: Some(LinkKey::new("coordinator", "site-000")),
            }
        );
        assert_eq!(
            doc.faults[5],
            FaultStmt::Rate {
                action: FaultAction::Duplicate,
                per_mille: 3,
                link: None,
            }
        );
        assert_eq!(doc.kills, vec![WorkerKill { worker: 0, tick: 3 }]);
        assert_eq!(doc.steps, 24);
        assert_eq!(doc.checkpoint_every, 8);
        assert_eq!(doc.policy, RunPolicy::Partial);
        assert_eq!((doc.sweep.seed_lo, doc.sweep.seed_hi), (1, 8));
        assert_eq!(doc.sweep.amplitudes, vec![1.0, 2.5]);
        assert_eq!(
            doc.sweep.profiles,
            vec![NetworkProfile::CampusWan, NetworkProfile::LossyWan]
        );
        assert_eq!(doc.source, src);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = ScenarioDoc::parse("campaign \"x\" {\n  bogus { }\n}").expect_err("unknown block");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"), "{e}");

        let e = ScenarioDoc::parse("campaign \"x\" {\n  run { steps = nope; }\n}")
            .expect_err("bad value");
        assert_eq!(e.line, 2);

        let e = ScenarioDoc::parse("campaign \"x\" { sweep { seeds = 9..2; } }")
            .expect_err("empty seed range");
        assert!(e.message.contains("seeds"), "{e}");
    }

    #[test]
    fn rate_denominator_must_be_per_mille() {
        let e =
            ScenarioDoc::parse("campaign \"x\" { faults { drop rate 1/100 on \"a\" -> \"b\"; } }")
                .expect_err("bad denominator");
        assert!(e.message.contains("per-mille"), "{e}");
    }

    #[test]
    fn out_of_range_step_is_an_error_on_its_line() {
        let faults = |stmt: &str| {
            ScenarioDoc::parse(&format!(
                "campaign \"x\" {{\n  faults {{\n    {stmt}\n  }}\n}}"
            ))
        };
        let e = faults("drop \"coordinator\" -> \"site-000\" at step 9223372036854775808;")
            .expect_err("2·N overflows");
        assert_eq!(e.line, 3);
        assert!(e.message.contains("out of range"), "{e}");
        // The largest step still has an index in both phases.
        let doc = faults(
            "drop \"coordinator\" -> \"site-000\" at step 9223372036854775807 phase execute;",
        )
        .expect("parses");
        assert_eq!(
            doc.faults[0],
            FaultStmt::Point {
                action: FaultAction::Drop,
                link: LinkKey::new("coordinator", "site-000"),
                index: u64::MAX,
            }
        );
    }

    #[test]
    fn self_links_are_rejected() {
        let e =
            ScenarioDoc::parse("campaign \"x\" { faults { drop \"a\" -> \"a\" at message 1; } }")
                .expect_err("self link");
        assert!(e.message.contains("differ"), "{e}");
    }
}
