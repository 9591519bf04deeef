//! Workspace walk + analysis orchestration.
//!
//! The driver discovers crates from the root `Cargo.toml` workspace
//! `members` list (globs expanded via the filesystem), then scans every
//! `.rs` file under each member's `src/`, `tests/`, and `benches/` trees
//! — lexing, item-parsing, and running the token-level rules — **in
//! parallel** over the vendored `rayon` pool. The per-file results merge
//! in input order (the pool's `collect` is chunk-order-preserving), so
//! reports are byte-identical for every `IPG_THREADS`.
//!
//! On top of the per-file scan sit the graph passes ([`crate::reach`]):
//! the call graph is built from the parsed files and DET100 / ALLOC001 /
//! LAYER001 run over it, with the same inline-suppression machinery as
//! the token rules. Every finding that no suppression excuses is new,
//! and any new finding fails the gate.

use crate::callgraph::{self, FileUnit};
use crate::lexer;
use crate::parser;
use crate::reach::{self, ManifestDep};
use crate::rules::{self, FileCtx, FileKind, Finding, Suppression};
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Analysis configuration.
pub struct Config {
    /// Workspace root (directory containing the `[workspace]` Cargo.toml).
    pub root: PathBuf,
    /// When set, only findings of these rules are reported.
    pub rules_filter: Option<Vec<String>>,
    /// When set, only analyze the member whose crate name (or directory
    /// name) matches — the self-lint stage runs with `ipg-analyze` here.
    /// A name that matches no member is an error, not an empty scan.
    pub member: Option<String>,
}

impl Config {
    pub fn new(root: PathBuf) -> Config {
        Config {
            root,
            rules_filter: None,
            member: None,
        }
    }
}

/// The result of one analysis run.
pub struct Outcome {
    /// Findings no inline suppression excuses — these fail the gate.
    pub new: Vec<Finding>,
    /// Count of findings silenced by inline suppressions.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files: usize,
}

impl Outcome {
    /// Does this run pass the gate?
    pub fn ok(&self) -> bool {
        self.new.is_empty()
    }
}

/// Everything one parallel scan task produces for one file.
struct FileScan {
    unit: FileUnit,
    /// Token-rule findings, suppressions already applied.
    findings: Vec<Finding>,
    /// Well-formed suppressions (kept for the graph passes).
    sups: Vec<Suppression>,
    /// How many token-rule findings the suppressions silenced.
    suppressed: usize,
}

/// Run the analysis.
pub fn analyze(cfg: &Config) -> Result<Outcome, String> {
    let members = workspace_members(&cfg.root)?;

    // member list → flat file job list (jobs are sorted: members are
    // sorted and member_sources sorts within each member)
    let mut jobs: Vec<(String, String, FileKind)> = Vec::new(); // (crate, rel, kind)
    let mut manifest_deps: Vec<ManifestDep> = Vec::new();
    let mut skipped = Vec::new(); // crate names `cfg.member` did not match
    for member in &members {
        let crate_name = crate_name(&cfg.root.join(member))?;
        if let Some(only) = &cfg.member {
            let dir_name = member.rsplit('/').next().unwrap_or(member);
            if only != &crate_name && only != dir_name {
                skipped.push(crate_name);
                continue;
            }
        }
        manifest_deps.extend(member_manifest_deps(&cfg.root, member, &crate_name));
        for (rel, kind) in member_sources(&cfg.root, member) {
            jobs.push((crate_name.clone(), rel, kind));
        }
    }

    if let Some(only) = &cfg.member {
        if skipped.len() == members.len() {
            return Err(format!(
                "--member `{only}` names no workspace member (members: {})",
                skipped.join(", ")
            ));
        }
    }

    // parallel per-file scan; `collect` preserves job order, so the merge
    // below is deterministic for every IPG_THREADS
    let root = cfg.root.clone();
    let scans: Vec<Result<FileScan, String>> = jobs
        .into_par_iter()
        .map(move |(crate_name, rel, kind)| scan_file(&root, crate_name, rel, kind))
        .collect();

    let mut findings = Vec::new();
    let mut units: Vec<FileUnit> = Vec::new();
    let mut all_sups: Vec<Vec<Suppression>> = Vec::new();
    let mut suppressed = 0usize;
    let mut files = 0usize;
    for scan in scans {
        let mut scan = scan?;
        files += 1;
        suppressed += scan.suppressed;
        findings.append(&mut scan.findings);
        all_sups.push(scan.sups);
        units.push(scan.unit);
    }

    // graph passes: DET100 / ALLOC001 over the call graph, LAYER001 over
    // files + manifests
    let graph_crates: BTreeSet<String> = units
        .iter()
        .filter(|u| {
            !u.rel_path.starts_with("vendor/")
                && !reach::BOUNDARY_CRATES.contains(&u.crate_name.as_str())
        })
        .map(|u| u.crate_name.clone())
        .collect();
    let graph = callgraph::build(&units, &graph_crates);
    let mut graph_findings = reach::det100(&units, &graph);
    graph_findings.extend(reach::alloc001(&units, &graph));
    graph_findings.extend(reach::layer001(&units, &manifest_deps));
    for f in graph_findings {
        let sups = units
            .iter()
            .position(|u| u.rel_path == f.path)
            .map(|i| all_sups[i].as_slice())
            .unwrap_or(&[]);
        if rules::is_suppressed(&f, sups) {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }

    if let Some(filter) = &cfg.rules_filter {
        findings.retain(|f| filter.iter().any(|r| r == f.rule));
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });

    Ok(Outcome {
        new: findings,
        suppressed,
        files,
    })
}

/// Lex, parse, and token-lint one file. Pure function of the file
/// contents — safe to run on any pool worker.
fn scan_file(
    root: &Path,
    crate_name: String,
    rel: String,
    kind: FileKind,
) -> Result<FileScan, String> {
    let abs = root.join(&rel);
    let src = fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
    let lexed = lexer::lex(&src);
    let lines: Vec<String> = src.lines().map(|s| s.to_string()).collect();
    let test_ranges = rules::test_ranges(&lexed);
    let ctx = FileCtx {
        crate_name: &crate_name,
        rel_path: &rel,
        kind,
        lexed: &lexed,
        lines: &lines,
        test_ranges: &test_ranges,
    };
    let mut findings = Vec::new();
    for r in rules::all_rules() {
        r.check(&ctx, &mut findings);
    }
    let (sups, mut hyg) = rules::parse_suppressions(&lexed.comments, &rel, &lines);
    let before = findings.len();
    findings.retain(|f| !rules::is_suppressed(f, &sups));
    let suppressed = before - findings.len();
    findings.append(&mut hyg);
    let parsed = parser::parse(&lexed);
    let module = module_path(&rel);
    Ok(FileScan {
        unit: FileUnit {
            crate_name,
            rel_path: rel,
            kind,
            module,
            tokens: lexed.tokens,
            parsed,
            test_ranges,
            lines,
        },
        findings,
        sups,
        suppressed,
    })
}

/// File-level module path from the location under `src/`:
/// `…/src/engine.rs` → `["engine"]`, `…/src/lib.rs` → `[]`,
/// `…/src/foo/mod.rs` → `["foo"]`.
fn module_path(rel: &str) -> Vec<String> {
    let Some(pos) = rel.find("/src/") else {
        return Vec::new();
    };
    let rest = &rel[pos + "/src/".len()..];
    let rest = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut parts: Vec<&str> = rest.split('/').collect();
    if parts.last() == Some(&"mod") {
        parts.pop();
    }
    if parts == ["lib"] || parts == ["main"] {
        return Vec::new();
    }
    parts.into_iter().map(|s| s.to_string()).collect()
}

/// Locate the workspace root by walking up from `start` to the first
/// `Cargo.toml` containing a `[workspace]` table.
pub fn find_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start
        .canonicalize()
        .map_err(|e| format!("canonicalize {}: {e}", start.display()))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace Cargo.toml found above {}",
                start.display()
            ));
        }
    }
}

/// Workspace members from the root manifest, with `*` globs expanded and
/// the result sorted. Members without a `Cargo.toml` are skipped.
fn workspace_members(root: &Path) -> Result<Vec<String>, String> {
    let manifest = root.join("Cargo.toml");
    let text =
        fs::read_to_string(&manifest).map_err(|e| format!("read {}: {e}", manifest.display()))?;
    let list = extract_members_array(&text)
        .ok_or_else(|| format!("no workspace members array in {}", manifest.display()))?;
    let mut members = Vec::new();
    for pat in list {
        if let Some(prefix) = pat.strip_suffix("/*") {
            let dir = root.join(prefix);
            let Ok(rd) = fs::read_dir(&dir) else { continue };
            for e in rd.flatten() {
                let p = e.path();
                if p.join("Cargo.toml").is_file() {
                    if let Some(name) = p.file_name().and_then(|n| n.to_str()) {
                        members.push(format!("{prefix}/{name}"));
                    }
                }
            }
        } else if root.join(&pat).join("Cargo.toml").is_file() {
            members.push(pat);
        }
    }
    members.sort();
    members.dedup();
    Ok(members)
}

/// Pull the quoted entries out of `members = [ … ]`.
fn extract_members_array(manifest: &str) -> Option<Vec<String>> {
    let start = manifest.find("members")?;
    let open = manifest[start..].find('[')? + start;
    let close = manifest[open..].find(']')? + open;
    let mut out = Vec::new();
    let mut rest = &manifest[open + 1..close];
    while let Some(q1) = rest.find('"') {
        let after = &rest[q1 + 1..];
        let q2 = after.find('"')?;
        out.push(after[..q2].to_string());
        rest = &after[q2 + 1..];
    }
    Some(out)
}

/// `package.name` from a member manifest (falls back to the dir name).
fn crate_name(member_dir: &Path) -> Result<String, String> {
    let manifest = member_dir.join("Cargo.toml");
    let text =
        fs::read_to_string(&manifest).map_err(|e| format!("read {}: {e}", manifest.display()))?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let rest = rest.trim();
                if rest.len() >= 2 && rest.starts_with('"') {
                    if let Some(end) = rest[1..].find('"') {
                        return Ok(rest[1..1 + end].to_string());
                    }
                }
            }
        }
    }
    Ok(member_dir
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("unknown")
        .to_string())
}

/// `[dependencies]` entries from a member manifest, as [`ManifestDep`]s
/// for the layering pass. `[dev-dependencies]` are deliberately skipped —
/// tests may depend on anything.
fn member_manifest_deps(root: &Path, member: &str, crate_name: &str) -> Vec<ManifestDep> {
    let rel = format!("{member}/Cargo.toml");
    let Ok(text) = fs::read_to_string(root.join(&rel)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name = …` or `name.workspace = true`; names may be quoted
        let head = line
            .split(['=', '.'])
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('"');
        if !head.is_empty() {
            out.push(ManifestDep {
                crate_name: crate_name.to_string(),
                dep: head.to_string(),
                rel_path: rel.clone(),
                line: idx as u32 + 1,
                snippet: line.to_string(),
            });
        }
    }
    out
}

/// All `.rs` sources of one member, as sorted `(root-relative path,
/// kind)` pairs. Fixture trees under `tests/fixtures/` are skipped —
/// they contain deliberate rule violations for the analyzer's own tests.
fn member_sources(root: &Path, member: &str) -> Vec<(String, FileKind)> {
    let mut out = Vec::new();
    for (sub, base_kind) in [
        ("src", FileKind::Lib),
        ("tests", FileKind::Test),
        ("benches", FileKind::Bench),
    ] {
        let dir = root.join(member).join(sub);
        if dir.is_dir() {
            walk(&dir, &mut |p| {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(p)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                if rel.contains("/tests/fixtures/") {
                    return;
                }
                let kind = if base_kind == FileKind::Lib
                    && (rel.contains("/src/bin/") || rel.ends_with("/src/main.rs"))
                {
                    FileKind::Bin
                } else {
                    base_kind
                };
                out.push((rel, kind));
            });
        }
    }
    out.sort();
    out
}

/// Depth-first sorted walk over `.rs` files.
fn walk(dir: &Path, f: &mut impl FnMut(&Path)) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk(&p, f);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            f(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths_from_rel_paths() {
        assert_eq!(module_path("crates/ipg-sim/src/engine.rs"), vec!["engine"]);
        assert_eq!(
            module_path("crates/ipg-sim/src/lib.rs"),
            Vec::<String>::new()
        );
        assert_eq!(
            module_path("crates/ipg-cli/src/main.rs"),
            Vec::<String>::new()
        );
        assert_eq!(module_path("crates/x/src/foo/mod.rs"), vec!["foo"]);
        assert_eq!(module_path("crates/x/src/foo/bar.rs"), vec!["foo", "bar"]);
        assert_eq!(
            module_path("crates/x/tests/golden.rs"),
            Vec::<String>::new()
        );
    }
}
