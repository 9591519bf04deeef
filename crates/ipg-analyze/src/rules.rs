//! The rule framework and the shipped rules.
//!
//! Each rule is grounded in an invariant the repo already relies on:
//!
//! | rule     | severity | invariant                                                        |
//! |----------|----------|------------------------------------------------------------------|
//! | DET001   | error    | no default-hasher `HashMap`/`HashSet` in `ipg-core` hot modules  |
//! | DET002   | error    | every parallel reduce carries a `Parallel-reduction audit:`      |
//! | DET003   | error    | no wall-clock reads outside `ipg-obs` / `vendor/rayon`           |
//! | DET004   | error    | no RNG construction in `ipg-sim` cycle loops (use `rng::node_stream`) |
//! | DET005   | error    | no raw trace-event plumbing in `ipg-sim` cycle loops (use `ShardTracer`) |
//! | DET006   | error    | no raw fault-event plumbing in `ipg-sim` cycle loops (consume `FaultPlan`) |
//! | DET007   | error    | no raw bitset mutation in `ipg-sim` cycle loops (use the `Worklist` API) |
//! | DET008   | error    | no raw socket/byte I/O in the dist coordinator/worker (all traffic via `dist::frame`) |
//! | DET100   | error    | no determinism sink *reachable* from an engine cycle entry point |
//! | LAYER001 | error    | crate layering: `ipg-core` stays pure; I/O only in the sanctioned crates |
//! | ALLOC001 | error    | no steady-state allocation in functions on a cycle-loop path     |
//! | PANIC001 | warning  | no `unwrap`/`expect`/`panic!` in library code of the core crates |
//! | HYG001   | error    | every suppression carries a `reason="…"`                         |
//!
//! DET100/LAYER001/ALLOC001 are *graph rules*: their [`Rule::check`]
//! bodies are empty and the findings come from [`crate::reach`], which
//! walks the call graph the driver builds. DET001 and DET003–DET008 are
//! rows of one table-driven token rule (`BANNED_IDENTS`: id, scope,
//! identifier list, message). DET003/DET004 are file-scoped special
//! cases of DET100 — they share its sink tables ([`crate::reach::CLOCK_SINKS`] /
//! [`crate::reach::RNG_SINKS`]) so the fast per-file checks and the
//! reachability pass can never disagree about what counts as a sink.
//!
//! Suppression syntax (same line as the finding or the line above):
//!
//! ```text
//! // ipg-analyze: allow(DET001) reason="keys are interned; iteration order never observed"
//! ```

use crate::lexer::{Comment, Lexed, TokKind};
use crate::reach;

/// Finding severity. Both levels gate the build when the finding is new;
/// the split exists so `scripts/bench.sh` can refuse on determinism
/// (DET-class) findings specifically via `--rules`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// Trimmed source line.
    pub snippet: String,
}

/// How a file participates in the build — some rules only apply to
/// shipped library code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileKind {
    /// `src/**` of a library target.
    Lib,
    /// `src/main.rs` or `src/bin/**`.
    Bin,
    /// `tests/**`.
    Test,
    /// `benches/**`.
    Bench,
}

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    pub crate_name: &'a str,
    pub rel_path: &'a str,
    pub kind: FileKind,
    pub lexed: &'a Lexed,
    /// Raw source lines (for snippets).
    pub lines: &'a [String],
    /// `#[cfg(test)]` item line ranges (inclusive).
    pub test_ranges: &'a [(u32, u32)],
}

impl FileCtx<'_> {
    /// Is `line` inside a `#[cfg(test)]` item?
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Trimmed source text of `line`.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    }

    pub fn in_vendor(&self) -> bool {
        self.rel_path.starts_with("vendor/")
    }

    fn file_name(&self) -> &str {
        self.rel_path.rsplit('/').next().unwrap_or(self.rel_path)
    }
}

/// A lint rule.
pub trait Rule {
    fn id(&self) -> &'static str;
    fn severity(&self) -> Severity;
    /// One-line description for `--list-rules` and the docs.
    fn describe(&self) -> &'static str;
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>);

    /// Helper to emit a finding.
    fn emit(&self, ctx: &FileCtx<'_>, line: u32, message: String, out: &mut Vec<Finding>) {
        out.push(Finding {
            rule: self.id(),
            severity: self.severity(),
            path: ctx.rel_path.to_string(),
            line,
            message,
            snippet: ctx.snippet(line),
        });
    }
}

/// All shipped rules, in id order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    // DET001 heads the table; DET002 sorts between it and DET003.
    let (det001, det003_on) = BANNED_IDENTS.split_at(1);
    let mut rules: Vec<Box<dyn Rule>> = vec![Box::new(det001[0]), Box::new(Det002)];
    for &r in det003_on {
        rules.push(Box::new(r));
    }
    rules.push(Box::new(Det100));
    rules.push(Box::new(Layer001));
    rules.push(Box::new(Alloc001));
    rules.push(Box::new(Panic001));
    rules.push(Box::new(Hyg001));
    rules
}

/// Is `id` a known rule id?
pub fn known_rule(id: &str) -> bool {
    all_rules().iter().any(|r| r.id() == id)
}

// ---------------------------------------------------------------------------
// #[cfg(test)] region detection
// ---------------------------------------------------------------------------

/// Line ranges (inclusive) of items gated behind `#[cfg(test)]` (or any
/// `cfg(...)` whose argument list mentions `test`). The range runs from
/// the attribute to the matching close brace of the item's block.
pub fn test_ranges(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // match: # [ cfg ( … test … ) ]
        if toks[i].kind != TokKind::Punct('#') {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let Some(rest) = toks.get(i + 1..) else { break };
        if rest.first().map(|t| &t.kind) != Some(&TokKind::Punct('[')) {
            i += 1;
            continue;
        }
        if rest.get(1).map(|t| &t.kind) != Some(&TokKind::Ident("cfg".to_string())) {
            i += 1;
            continue;
        }
        // scan the attribute to its closing ']' looking for ident `test`
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut saw_test = false;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('[') | TokKind::Punct('(') => depth += 1,
                TokKind::Punct(']') | TokKind::Punct(')') => {
                    depth -= 1;
                    if depth <= 0 && toks[j].kind == TokKind::Punct(']') {
                        break;
                    }
                }
                TokKind::Ident(s) if s == "test" => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_test {
            i = j.max(i + 1);
            continue;
        }
        // find the gated item's brace block and its matching close
        let mut k = j + 1;
        while k < toks.len() && toks[k].kind != TokKind::Punct('{') {
            if toks[k].kind == TokKind::Punct(';') {
                // braceless item (`#[cfg(test)] mod tests;`): gate that line
                out.push((start_line, toks[k].line));
                k = usize::MAX;
                break;
            }
            k += 1;
        }
        if k == usize::MAX {
            i = j + 1;
            continue;
        }
        if k >= toks.len() {
            break;
        }
        let mut brace = 0i32;
        let mut end_line = toks[k].line;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('{') => brace += 1,
                TokKind::Punct('}') => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        out.push((start_line, end_line));
        i = k.max(i + 1);
    }
    out
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// A parsed, *well-formed* suppression directive.
#[derive(Clone, Debug)]
pub struct Suppression {
    pub line: u32,
    pub rule: String,
}

const ALLOW_MARKER: &str = "ipg-analyze: allow(";

/// Parse suppression directives out of the file's comments. Returns the
/// well-formed ones plus HYG001 findings for malformed ones (missing
/// `reason=`, unknown rule, unclosed paren). HYG001 itself cannot be
/// suppressed — otherwise one malformed comment could excuse another.
pub fn parse_suppressions(
    comments: &[Comment],
    ctx_path: &str,
    lines: &[String],
) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let mut text = c.text.as_str();
        while let Some(pos) = text.find(ALLOW_MARKER) {
            let after = &text[pos + ALLOW_MARKER.len()..];
            let bad = |msg: String, findings: &mut Vec<Finding>| {
                findings.push(Finding {
                    rule: "HYG001",
                    severity: Severity::Error,
                    path: ctx_path.to_string(),
                    line: c.line,
                    message: msg,
                    snippet: lines
                        .get(c.line as usize - 1)
                        .map(|s| s.trim().to_string())
                        .unwrap_or_default(),
                });
            };
            let Some(close) = after.find(')') else {
                bad(
                    "malformed suppression: missing `)`".to_string(),
                    &mut findings,
                );
                break;
            };
            let rule = after[..close].trim().to_string();
            let tail = &after[close + 1..];
            if !known_rule(&rule) {
                bad(
                    format!("suppression names unknown rule `{rule}`"),
                    &mut findings,
                );
            } else if rule == "HYG001" {
                bad("HYG001 cannot be suppressed".to_string(), &mut findings);
            } else if !has_nonempty_reason(tail) {
                bad(
                    format!("suppression of {rule} missing `reason=\"…\"` justification"),
                    &mut findings,
                );
            } else {
                sups.push(Suppression { line: c.line, rule });
            }
            text = tail;
        }
    }
    (sups, findings)
}

/// Does the directive tail carry `reason="<non-empty>"`?
fn has_nonempty_reason(tail: &str) -> bool {
    let Some(pos) = tail.find("reason=\"") else {
        return false;
    };
    let rest = &tail[pos + "reason=\"".len()..];
    match rest.find('"') {
        Some(end) => !rest[..end].trim().is_empty(),
        None => false,
    }
}

/// Is the finding covered by a suppression? A directive covers its own
/// line (trailing comment) and the line directly below it (comment above
/// the offending expression).
pub fn is_suppressed(f: &Finding, sups: &[Suppression]) -> bool {
    sups.iter()
        .any(|s| s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line))
}

// ---------------------------------------------------------------------------
// DET002 — unaudited parallel reductions
// ---------------------------------------------------------------------------

struct Det002;

const PAR_SOURCES: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_chunks_mut",
];
const REDUCERS: &[&str] = &["reduce", "try_reduce", "sum", "fold", "try_fold"];
const AUDIT_MARKER: &str = "Parallel-reduction audit:";
/// An audit comment must end at most this many lines above the reduce.
const AUDIT_WINDOW: u32 = 10;

impl Rule for Det002 {
    fn id(&self) -> &'static str {
        "DET002"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn describe(&self) -> &'static str {
        "parallel reduce/sum/fold must carry a `Parallel-reduction audit:` comment within 10 lines"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        // Usage-site rule: the pool implementation itself is exempt.
        if ctx.in_vendor() {
            return;
        }
        let toks = &ctx.lexed.tokens;
        // Track the bracket depth at which a parallel iterator chain began;
        // a `;` at (or a close below) that depth ends the chain, so `;`
        // inside `map(|x| { … })` closures does not.
        let mut depth = 0i32;
        let mut chain: Option<i32> = None;
        let mut prev_dot = false;
        for t in toks {
            match &t.kind {
                TokKind::Punct(c) => {
                    match c {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' => {
                            depth -= 1;
                            if let Some(d) = chain {
                                if depth < d {
                                    chain = None;
                                }
                            }
                        }
                        ';' if chain == Some(depth) => chain = None,
                        _ => {}
                    }
                    prev_dot = *c == '.';
                }
                TokKind::Ident(s) => {
                    if PAR_SOURCES.contains(&s.as_str()) && !ctx.in_test(t.line) {
                        chain = Some(depth);
                    } else if chain == Some(depth)
                        && prev_dot
                        && REDUCERS.contains(&s.as_str())
                        && !ctx.in_test(t.line)
                        && !audited(&ctx.lexed.comments, t.line)
                    {
                        self.emit(
                            ctx,
                            t.line,
                            format!(
                                "parallel `{s}` without a `{AUDIT_MARKER}` comment within \
                                 {AUDIT_WINDOW} lines — document associativity / chunk-order \
                                 determinism (see DESIGN.md §7)"
                            ),
                            out,
                        );
                    }
                    prev_dot = false;
                }
                _ => prev_dot = false,
            }
        }
    }
}

fn audited(comments: &[Comment], line: u32) -> bool {
    comments.iter().any(|c| {
        c.line <= line && c.end_line + AUDIT_WINDOW >= line && c.text.contains(AUDIT_MARKER)
    })
}

// ---------------------------------------------------------------------------
// DET001, DET003–DET008 — banned identifiers in a scoped set of files
// ---------------------------------------------------------------------------

/// The files a [`BannedIdents`] row applies to.
#[derive(Clone, Copy)]
enum Scope {
    /// Library files (`src/**`) of crate `.0` whose file name is listed
    /// in `.1`: the scope names modules, not integration tests that
    /// happen to share a module's file name.
    Files(&'static str, &'static [&'static str]),
    /// Files of crate `.0` under path prefix `.1`, except the file named `.2`.
    Under(&'static str, &'static str, &'static str),
    /// Every file outside `ipg-obs` and `vendor/rayon/`.
    OutsideObs,
}

impl Scope {
    fn covers(self, ctx: &FileCtx<'_>) -> bool {
        match self {
            Scope::Files(krate, files) => {
                ctx.kind == FileKind::Lib
                    && ctx.crate_name == krate
                    && files.contains(&ctx.file_name())
            }
            Scope::Under(krate, prefix, except) => {
                ctx.crate_name == krate
                    && ctx.rel_path.starts_with(prefix)
                    && ctx.file_name() != except
            }
            Scope::OutsideObs => {
                ctx.crate_name != "ipg-obs" && !ctx.rel_path.starts_with("vendor/rayon/")
            }
        }
    }
}

/// A token rule: every non-test use of one of `idents` in a file that
/// `scope` covers is an error. The message is `what`, the identifier
/// in backticks, then `why`.
#[derive(Clone, Copy)]
struct BannedIdents {
    id: &'static str,
    describe: &'static str,
    scope: Scope,
    idents: &'static [&'static str],
    what: &'static str,
    why: &'static str,
}

impl Rule for BannedIdents {
    fn id(&self) -> &'static str {
        self.id
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn describe(&self) -> &'static str {
        self.describe
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !self.scope.covers(ctx) {
            return;
        }
        for t in &ctx.lexed.tokens {
            let TokKind::Ident(s) = &t.kind else { continue };
            if self.idents.contains(&s.as_str()) && !ctx.in_test(t.line) {
                self.emit(
                    ctx,
                    t.line,
                    format!("{} `{s}` {}", self.what, self.why),
                    out,
                );
            }
        }
    }
}

/// `ipg-core` modules on the build/route/solve hot paths, which use no
/// hashing at all or `util::FxHashMap`.
const HOT_MODULES: &[&str] = &[
    "graph.rs",
    "codec.rs",
    "builder.rs",
    "routing.rs",
    "tuple_routing.rs",
    "solve.rs",
];

/// `ipg-sim` modules whose per-cycle loops run (or may run) on worker
/// threads.
const SHARDED_MODULES: Scope = Scope::Files("ipg-sim", &["engine.rs", "wormhole.rs"]);

/// DET001 and DET003–DET008, in id order. Why each list is banned where
/// it is:
///
/// - DET001: default-hasher `HashMap`/`HashSet` iteration order varies
///   per process; the `ipg-core` hot modules use `util::FxHashMap` or no
///   hashing at all, and a justified exception carries a suppression.
/// - DET003: wall-clock reads make output depend on the host. The sink
///   table is shared with the DET100 reachability pass.
/// - DET004: sharded determinism requires every draw to come from a
///   node-keyed counter stream built by `rng::node_stream`; naming a
///   generator means someone is seeding ad hoc, which couples the stream
///   to shard layout or thread count. Sink table shared with DET100.
/// - DET005: `TraceEvent`/`EventRing` belong to `ipg-obs::trace`
///   internals. The `ShardTracer` methods own the one-writer-per-ring
///   discipline, the sampling clock and the no-steady-state-allocation
///   policy; a shard loop that builds events or drains a ring by hand can
///   bypass all three, and worse, branch on ring occupancy.
/// - DET006: the cycle loops must consume the *compiled* `FaultPlan`
///   (`apply_due`, `shard_events`, `ShardFaults::next_due`); a loop that
///   matches raw `FaultEvent`s or expands `RandomFaults` itself can draw
///   RNG mid-cycle or apply kills in shard- or thread-dependent order.
/// - DET007: the activation invariant (DESIGN.md §13) requires the
///   worklist bit and the queue state to change together, so membership
///   changes only through the counted `Worklist::insert` / `remove`; a
///   loop that flips bits directly can skip (or double-service) work
///   relative to the reference model (`ipg-sim/tests/reference/`).
/// - DET008: the dist coordinator/worker move every byte through
///   `dist::frame`, which owns the length-prefix/checksum discipline and
///   the read-all-then-write-all deadlock argument; an ad-hoc
///   `write_all`/`to_le_bytes` site ships unversioned, unchecksummed
///   bytes whose layout drifts from DESIGN.md §15. `frame.rs` itself is
///   the sanctioned home.
const BANNED_IDENTS: &[BannedIdents] = &[
    BannedIdents {
        id: "DET001",
        describe: "no default-hasher HashMap/HashSet in ipg-core hot modules (use util::FxHashMap)",
        scope: Scope::Files("ipg-core", HOT_MODULES),
        idents: &["HashMap", "HashSet"],
        what: "default-hasher",
        why: "in hot module; use `util::FxHashMap` or suppress with a determinism justification",
    },
    BannedIdents {
        id: "DET003",
        describe: "no Instant/SystemTime/available_parallelism outside ipg-obs and vendor/rayon",
        scope: Scope::OutsideObs,
        idents: reach::CLOCK_SINKS,
        what: "wall-clock access",
        why: "outside ipg-obs; route timing through `Obs::span` / `Span::elapsed_secs` so \
              core output stays clock-free",
    },
    BannedIdents {
        id: "DET004",
        describe: "no global/ad-hoc RNG construction in ipg-sim shard loops (use rng::node_stream)",
        scope: SHARDED_MODULES,
        idents: reach::RNG_SINKS,
        what: "RNG construction",
        why: "in a sharded simulator module; draw from the per-node counter streams via \
              `rng::node_stream` so output is identical for every IPG_THREADS",
    },
    BannedIdents {
        id: "DET005",
        describe: "no raw TraceEvent/EventRing plumbing in ipg-sim shard loops (emit via ShardTracer)",
        scope: SHARDED_MODULES,
        idents: &["TraceEvent", "EventRing"],
        what: "raw flight-recorder type",
        why: "in a sharded simulator module; emit through the `ShardTracer` methods so the \
              one-writer-per-ring and sampling discipline stays in ipg-obs::trace \
              (DESIGN.md §11)",
    },
    BannedIdents {
        id: "DET006",
        describe: "no raw FaultEvent/FaultKind/RandomFaults plumbing in ipg-sim shard loops (consume the compiled FaultPlan)",
        scope: SHARDED_MODULES,
        idents: &["FaultEvent", "FaultKind", "RandomFaults"],
        what: "raw fault-model type",
        why: "in a sharded simulator module; fault decisions must flow through the compiled \
              `FaultPlan` API (`apply_due` / `shard_events`) so kills land in plan order and \
              no RNG is drawn mid-cycle",
    },
    BannedIdents {
        id: "DET007",
        describe: "no raw FixedBitSet/set_bit/clear_bit mutation in ipg-sim shard loops (use the Worklist API)",
        scope: SHARDED_MODULES,
        idents: &["FixedBitSet", "set_bit", "clear_bit"],
        what: "raw bitset access",
        why: "in a sparse cycle kernel; mutate worklist membership only through \
              `Worklist::insert` / `Worklist::remove` so the activation bit and the queue \
              state change together (DESIGN.md §13)",
    },
    BannedIdents {
        id: "DET008",
        describe: "no raw socket/byte I/O in ipg-sim dist protocol files (all traffic via dist::frame)",
        scope: Scope::Under("ipg-sim", "crates/ipg-sim/src/dist/", "frame.rs"),
        idents: &[
            "read_exact",
            "write_all",
            "read_to_end",
            "flush",
            "to_le_bytes",
            "from_le_bytes",
            "to_be_bytes",
            "from_be_bytes",
            "UnixStream",
            "stdin",
        ],
        what: "raw I/O primitive",
        why: "in a dist protocol file; every byte crossing the process boundary must go \
              through the `dist::frame` codec (`FrameIo::frame_send` / `frame_recv`) so it is \
              length-prefixed, versioned and checksummed (DESIGN.md §15)",
    },
];

// ---------------------------------------------------------------------------
// DET100 / LAYER001 / ALLOC001 — graph rules
// ---------------------------------------------------------------------------
//
// These three run over the workspace call graph, not file by file, so
// their findings are produced by the driver via `crate::reach`; the rule
// types here own the id/severity/docs (for `--list-rules`, `--rules`
// filtering, and suppression validation).

struct Det100;

impl Rule for Det100 {
    fn id(&self) -> &'static str {
        "DET100"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn describe(&self) -> &'static str {
        "no wall-clock/hash/RNG/I-O sink reachable from an engine cycle entry point (chain printed)"
    }
    fn check(&self, _ctx: &FileCtx<'_>, _out: &mut Vec<Finding>) {
        // handled by the driver's graph passes (crate::reach::det100)
    }
}

struct Layer001;

impl Rule for Layer001 {
    fn id(&self) -> &'static str {
        "LAYER001"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn describe(&self) -> &'static str {
        "ipg-core stays pure (no std::{fs,net,time}, no ipg-obs/ipg-cli); I/O only in cli/obs/bench"
    }
    fn check(&self, _ctx: &FileCtx<'_>, _out: &mut Vec<Finding>) {
        // handled by the driver's graph passes (crate::reach::layer001)
    }
}

struct Alloc001;

impl Rule for Alloc001 {
    fn id(&self) -> &'static str {
        "ALLOC001"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn describe(&self) -> &'static str {
        "no Vec::new/Box::new/vec!/format!/.collect() in functions on a cycle-loop path"
    }
    fn check(&self, _ctx: &FileCtx<'_>, _out: &mut Vec<Finding>) {
        // handled by the driver's graph passes (crate::reach::alloc001)
    }
}

// ---------------------------------------------------------------------------
// PANIC001 — panics in library code of the core crates
// ---------------------------------------------------------------------------

struct Panic001;

const PANIC_CRATES: &[&str] = &["ipg-core", "ipg-sim", "ipg-cluster", "ipg-networks"];

impl Rule for Panic001 {
    fn id(&self) -> &'static str {
        "PANIC001"
    }
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    fn describe(&self) -> &'static str {
        "no unwrap()/expect()/panic! in non-test library code of the core crates"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !PANIC_CRATES.contains(&ctx.crate_name) || ctx.kind != FileKind::Lib {
            return;
        }
        let toks = &ctx.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            let TokKind::Ident(s) = &t.kind else { continue };
            if ctx.in_test(t.line) {
                continue;
            }
            let prev_dot = i > 0 && toks[i - 1].kind == TokKind::Punct('.');
            let next = toks.get(i + 1).map(|t| &t.kind);
            let call = next == Some(&TokKind::Punct('('));
            let bang = next == Some(&TokKind::Punct('!'));
            let hit = match s.as_str() {
                "unwrap" | "expect" => prev_dot && call,
                "panic" => bang,
                _ => false,
            };
            if hit {
                self.emit(
                    ctx,
                    t.line,
                    format!(
                        "`{s}` in library code; return `Result` (see `IpgError`) or \
                         suppress with the invariant that makes it unreachable"
                    ),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// HYG001 — suppressions must be justified
// ---------------------------------------------------------------------------
//
// HYG001 findings are produced during suppression parsing (so the checks
// share one parser); the rule type exists to own the id/severity/docs.

struct Hyg001;

impl Rule for Hyg001 {
    fn id(&self) -> &'static str {
        "HYG001"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn describe(&self) -> &'static str {
        "every `ipg-analyze: allow(…)` must carry a non-empty reason=\"…\""
    }
    fn check(&self, _ctx: &FileCtx<'_>, _out: &mut Vec<Finding>) {
        // handled by parse_suppressions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_of<'a>(
        lexed: &'a Lexed,
        lines: &'a [String],
        ranges: &'a [(u32, u32)],
        crate_name: &'a str,
        rel_path: &'a str,
        kind: FileKind,
    ) -> FileCtx<'a> {
        FileCtx {
            crate_name,
            rel_path,
            kind,
            lexed,
            lines,
            test_ranges: ranges,
        }
    }

    fn run_on(src: &str, crate_name: &str, rel_path: &str, kind: FileKind) -> Vec<Finding> {
        let lexed = lex(src);
        let lines: Vec<String> = src.lines().map(|s| s.to_string()).collect();
        let ranges = test_ranges(&lexed);
        let ctx = ctx_of(&lexed, &lines, &ranges, crate_name, rel_path, kind);
        let mut out = Vec::new();
        for r in all_rules() {
            r.check(&ctx, &mut out);
        }
        let (sups, mut hyg) = parse_suppressions(&lexed.comments, rel_path, &lines);
        out.retain(|f| !is_suppressed(f, &sups));
        out.append(&mut hyg);
        out
    }

    #[test]
    fn det001_flags_hot_modules_only() {
        let src = "use std::collections::HashMap;\n";
        let hot = run_on(
            src,
            "ipg-core",
            "crates/ipg-core/src/graph.rs",
            FileKind::Lib,
        );
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].rule, "DET001");
        let cold = run_on(
            src,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib,
        );
        assert!(cold.is_empty());
        let other = run_on(src, "ipg-sim", "crates/ipg-sim/src/graph.rs", FileKind::Lib);
        assert!(other.is_empty());
    }

    #[test]
    fn det002_needs_audit_within_window() {
        let bad = "fn f(v: &[u32]) -> u32 {\n v.par_iter().map(|x| {\n let y = *x;\n y\n }).reduce(|| 0, |a, b| a + b)\n}\n";
        let f = run_on(
            bad,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "DET002");
        assert_eq!(f[0].line, 5);

        let good = "// Parallel-reduction audit: u32 sum, associative.\nfn f(v: &[u32]) -> u32 {\n v.par_iter().copied().reduce(|| 0, |a, b| a + b)\n}\n";
        assert!(run_on(
            good,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn det002_ignores_sequential_folds_and_vendor() {
        let seq = "fn f(v: &[u32]) -> u32 { v.iter().fold(0, |a, b| a + b) }\n";
        assert!(run_on(
            seq,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib
        )
        .is_empty());
        let vend = "fn f(v: &[u32]) -> u32 { v.par_iter().sum() }\n";
        assert!(run_on(vend, "rayon", "vendor/rayon/src/lib.rs", FileKind::Lib).is_empty());
    }

    #[test]
    fn det002_chain_survives_closure_semicolons_but_not_statement_end() {
        // the `;` ends the par statement; a later sequential fold is clean
        let src = "fn f(v: &[u32]) -> u32 {\n let s: Vec<u32> = v.par_iter().map(|x| *x).collect();\n s.iter().fold(0, |a, b| a + b)\n}\n";
        assert!(run_on(
            src,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn det003_exempts_obs_and_vendor_rayon() {
        let src = "use std::time::Instant;\n";
        assert_eq!(
            run_on(
                src,
                "ipg-core",
                "crates/ipg-core/src/builder.rs",
                FileKind::Lib
            )
            .len(),
            1
        );
        assert!(run_on(src, "ipg-obs", "crates/ipg-obs/src/lib.rs", FileKind::Lib).is_empty());
        assert!(run_on(src, "rayon", "vendor/rayon/src/lib.rs", FileKind::Lib).is_empty());
    }

    #[test]
    fn det004_scopes_to_sharded_sim_modules() {
        let src = "use rand::rngs::SmallRng;\nfn f(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }\n";
        let hot = run_on(
            src,
            "ipg-sim",
            "crates/ipg-sim/src/engine.rs",
            FileKind::Lib,
        );
        assert!(hot.len() >= 2, "{hot:?}");
        assert!(hot.iter().all(|f| f.rule == "DET004"));
        // rng.rs is the one sanctioned construction site
        let sanctioned = run_on(src, "ipg-sim", "crates/ipg-sim/src/rng.rs", FileKind::Lib);
        assert!(sanctioned.is_empty(), "{sanctioned:?}");
        let other = run_on(
            src,
            "ipg-core",
            "crates/ipg-core/src/engine.rs",
            FileKind::Lib,
        );
        assert!(other.is_empty(), "{other:?}");
        // test code inside the module is exempt
        let test_only = "#[cfg(test)]\nmod tests {\n use rand::rngs::SmallRng;\n}\n";
        assert!(run_on(
            test_only,
            "ipg-sim",
            "crates/ipg-sim/src/wormhole.rs",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn det005_scopes_to_sharded_sim_modules() {
        let src = "use ipg_obs::trace::{EventRing, TraceEvent};\nfn f(ring: &mut EventRing) { ring.push(TraceEvent::default()); }\n";
        let hot = run_on(
            src,
            "ipg-sim",
            "crates/ipg-sim/src/wormhole.rs",
            FileKind::Lib,
        );
        assert!(hot.len() >= 2, "{hot:?}");
        assert!(hot.iter().all(|f| f.rule == "DET005"));
        // the trace module itself (ipg-obs) is the sanctioned home
        let home = run_on(src, "ipg-obs", "crates/ipg-obs/src/trace.rs", FileKind::Lib);
        assert!(home.is_empty(), "{home:?}");
        // the sanctioned ShardTracer API does not trip the rule
        let ok = "use ipg_obs::ShardTracer;\nfn f(t: &mut ShardTracer) { t.merge(0, 1); }\n";
        assert!(run_on(ok, "ipg-sim", "crates/ipg-sim/src/engine.rs", FileKind::Lib).is_empty());
        // test code inside the module is exempt
        let test_only = "#[cfg(test)]\nmod tests {\n use ipg_obs::trace::TraceEvent;\n}\n";
        assert!(run_on(
            test_only,
            "ipg-sim",
            "crates/ipg-sim/src/engine.rs",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn det007_scopes_to_sharded_sim_modules() {
        let src = "use crate::worklist::FixedBitSet;\nfn f(b: &mut FixedBitSet) { b.set_bit(3); b.clear_bit(4); }\n";
        let hot = run_on(
            src,
            "ipg-sim",
            "crates/ipg-sim/src/engine.rs",
            FileKind::Lib,
        );
        assert!(hot.len() >= 3, "{hot:?}");
        assert!(hot.iter().all(|f| f.rule == "DET007"));
        // worklist.rs itself is the sanctioned home of the bitset
        let home = run_on(
            src,
            "ipg-sim",
            "crates/ipg-sim/src/worklist.rs",
            FileKind::Lib,
        );
        assert!(home.is_empty(), "{home:?}");
        // the counted Worklist API does not trip the rule
        let ok = "use crate::worklist::Worklist;\nfn f(w: &mut Worklist) { w.insert(3); w.remove(4); }\n";
        assert!(run_on(
            ok,
            "ipg-sim",
            "crates/ipg-sim/src/wormhole.rs",
            FileKind::Lib
        )
        .is_empty());
        // test code inside the module is exempt
        let test_only = "#[cfg(test)]\nmod tests {\n use crate::worklist::FixedBitSet;\n}\n";
        assert!(run_on(
            test_only,
            "ipg-sim",
            "crates/ipg-sim/src/wormhole.rs",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn det008_scopes_to_dist_protocol_files() {
        let src = "use std::os::unix::net::UnixStream;\nfn f(s: &mut UnixStream, v: u32) { s.write_all(&v.to_le_bytes()).unwrap(); }\n";
        let hot = run_on(
            src,
            "ipg-sim",
            "crates/ipg-sim/src/dist/coordinator.rs",
            FileKind::Lib,
        );
        assert!(
            hot.iter().filter(|f| f.rule == "DET008").count() >= 4,
            "{hot:?}"
        );
        let hot = run_on(
            src,
            "ipg-sim",
            "crates/ipg-sim/src/dist/worker.rs",
            FileKind::Lib,
        );
        assert!(hot.iter().any(|f| f.rule == "DET008"), "{hot:?}");
        // frame.rs is the sanctioned home of the codec
        let home = run_on(
            src,
            "ipg-sim",
            "crates/ipg-sim/src/dist/frame.rs",
            FileKind::Lib,
        );
        assert!(home.iter().all(|f| f.rule != "DET008"), "{home:?}");
        // the same idents outside the dist module are not this rule's business
        let outside = run_on(src, "ipg-cli", "crates/ipg-cli/src/main.rs", FileKind::Bin);
        assert!(outside.iter().all(|f| f.rule != "DET008"), "{outside:?}");
        // the frame-level API does not trip the rule
        let ok = "use super::frame::FrameIo;\nfn f(io: &mut FrameIo) { io.note_cycle(3); }\n";
        assert!(run_on(
            ok,
            "ipg-sim",
            "crates/ipg-sim/src/dist/worker.rs",
            FileKind::Lib
        )
        .is_empty());
        // test code inside the module is exempt
        let test_only =
            "#[cfg(test)]\nmod tests {\n fn f(v: u32) -> [u8; 4] { v.to_le_bytes() }\n}\n";
        assert!(run_on(
            test_only,
            "ipg-sim",
            "crates/ipg-sim/src/dist/coordinator.rs",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn det006_scopes_to_sharded_sim_modules() {
        let src = "use crate::fault::{FaultEvent, FaultKind};\nfn f(ev: &FaultEvent) -> bool { matches!(ev.kind, FaultKind::Node(_)) }\n";
        let hot = run_on(
            src,
            "ipg-sim",
            "crates/ipg-sim/src/engine.rs",
            FileKind::Lib,
        );
        assert!(hot.len() >= 2, "{hot:?}");
        assert!(hot.iter().all(|f| f.rule == "DET006"));
        // fault.rs itself is the sanctioned home of the spec layer
        let home = run_on(src, "ipg-sim", "crates/ipg-sim/src/fault.rs", FileKind::Lib);
        assert!(home.is_empty(), "{home:?}");
        // the compiled-plan API does not trip the rule
        let ok = "use crate::fault::{FaultPlan, LocalFault, ShardFaults};\nfn f(p: &FaultPlan) -> usize { p.events().len() }\n";
        assert!(run_on(ok, "ipg-sim", "crates/ipg-sim/src/engine.rs", FileKind::Lib).is_empty());
        // test code inside the module is exempt
        let test_only = "#[cfg(test)]\nmod tests {\n use crate::fault::RandomFaults;\n}\n";
        assert!(run_on(
            test_only,
            "ipg-sim",
            "crates/ipg-sim/src/wormhole.rs",
            FileKind::Lib
        )
        .is_empty());
        // so is an integration test that shares a module's file name
        let reference = run_on(
            src,
            "ipg-sim",
            "crates/ipg-sim/tests/reference/wormhole.rs",
            FileKind::Test,
        );
        assert!(reference.is_empty(), "{reference:?}");
    }

    #[test]
    fn panic001_scopes_to_lib_code() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n fn g(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        let f = run_on(
            src,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(run_on(
            src,
            "ipg-core",
            "crates/ipg-core/src/bin/t.rs",
            FileKind::Bin
        )
        .is_empty());
        assert!(run_on(src, "ipg-cli", "crates/ipg-cli/src/spec.rs", FileKind::Lib).is_empty());
    }

    #[test]
    fn panic001_does_not_flag_unwrap_or() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(run_on(
            src,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn suppression_requires_reason() {
        let ok = "// ipg-analyze: allow(PANIC001) reason=\"index verified above\"\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(run_on(ok, "ipg-core", "crates/ipg-core/src/algo.rs", FileKind::Lib).is_empty());

        let bare =
            "// ipg-analyze: allow(PANIC001)\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let f = run_on(
            bare,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib,
        );
        // the unsuppressed PANIC001 plus the HYG001 about the bare allow
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == "HYG001"));
        assert!(f.iter().any(|x| x.rule == "PANIC001"));
    }

    #[test]
    fn suppression_of_unknown_rule_is_hyg001() {
        let src = "// ipg-analyze: allow(NOPE001) reason=\"x\"\nfn f() {}\n";
        let f = run_on(
            src,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib,
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "HYG001");
    }

    #[test]
    fn trailing_same_line_suppression_works() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() } // ipg-analyze: allow(PANIC001) reason=\"caller checks\"\n";
        assert!(run_on(
            src,
            "ipg-core",
            "crates/ipg-core/src/algo.rs",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn cfg_test_ranges_cover_nested_braces() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { if true { } }\n}\nfn c() {}\n";
        let lx = lex(src);
        let r = test_ranges(&lx);
        assert_eq!(r, vec![(2, 5)]);
    }
}
