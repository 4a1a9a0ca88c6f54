//! # neesgrid-analyzer — the workspace's own static-analysis gate
//!
//! Two tools the compiler and `cargo test` cannot replace, born from the
//! paper's step-1493 failure (an unhandled network error under an
//! untested interleaving) and PR 1's determinism-dependent checkpoint
//! guarantee:
//!
//! * [`rules`] + [`lexer`] + [`parse`] — an **invariant linter** over the
//!   workspace source: no `unwrap()`/`expect()`/`panic!` in protocol-crate
//!   library code, no wall-clock reads outside annotated real-time paths,
//!   no `todo!`, documented public protocol APIs, plus the determinism and
//!   concurrency contracts in [`contracts`] (no hash-order iteration,
//!   bounded-buffer declarations) and [`lockorder`] (workspace-wide mutex
//!   acquisition order). Hand-rolled lexer and item-level parse layer,
//!   zero external dependencies, same vendoring policy as `crates/shims`.
//! * [`checker`] — an **exhaustive schedule checker** that drives the
//!   NTCP propose/execute/cancel machine through every interleaving of
//!   message duplication, reply loss, and snapshot/restore within a
//!   bounded budget, proving at-most-once execution and dedup-cache
//!   consistency across a checkpoint-restore boundary.
//! * [`portal_checker`] — the same exhaustive technique pointed at the
//!   portal worker pool: submit/slice/kill/checkpoint/cancel
//!   interleavings, proving at-most-once execution, step-budget
//!   conservation, and bit-identical completion across reschedules.
//!
//! All run from one binary (`cargo run -p neesgrid-analyzer -- lint` /
//! `-- check-ntcp` / `-- check-portal`) and all gate `scripts/check.sh`.

pub mod baseline;
pub mod checker;
pub mod contracts;
pub mod explore;
pub mod lexer;
pub mod lockorder;
pub mod parse;
pub mod portal_checker;
pub mod report;
pub mod rules;

pub use checker::{check, CheckConfig, Mutation};
pub use explore::{CheckReport, Violation};
pub use rules::{lint_source, lint_workspace, rules_for, Finding, LintSummary, RuleSet};
