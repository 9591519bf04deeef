//! `ipg-analyze` — workspace determinism & hot-path lint engine.
//!
//! PR 2/3 bought this workspace bit-for-bit thread-count-invariant
//! builds and hash-free hot paths; this crate turns those conventions
//! into a machine-checked pre-PR gate. It is a self-contained,
//! dependency-free, token-level static analyzer: a hand-rolled [`lexer`]
//! (no `syn` — the workspace stays hermetic), a [`rules`] framework with
//! per-rule severity and justified inline suppressions (the only way
//! to excuse a finding), and deterministic (path+line-sorted) human /
//! JSON-lines [`report`]s. The [`driver`] walks the workspace members
//! from the root `Cargo.toml`, and the gate fails on any finding no
//! suppression excuses.
//!
//! Run it as `cargo run -p ipg-analyze` (humans) or with `--format json`
//! (tools); `scripts/check.sh` runs it before clippy, and
//! `scripts/bench.sh` refuses to record numbers while any DET-class
//! finding is live. See DESIGN.md §9 for the rule table and policy.

pub mod callgraph;
pub mod driver;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod report;
pub mod rules;
