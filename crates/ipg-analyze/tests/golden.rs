//! Golden-file tests: each rule is demonstrated by a fixture mini-workspace
//! under `tests/fixtures/<name>/` holding a positive case, a suppressed
//! case, and a clean case. The committed `expected.jsonl` next to each
//! fixture is compared byte-for-byte, and the binary's exit codes and
//! cross-environment byte-stability are checked through subprocess runs.

use ipg_analyze::driver::{self, Config};
use ipg_analyze::report;
use std::path::PathBuf;
use std::process::Command;

const FIXTURES: &[&str] = &[
    "det001", "det002", "det003", "det004", "det005", "det006", "det007", "det008", "panic001",
    "hyg001", "det100", "layer001", "alloc001", "clean",
];

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_lib(name: &str) -> (String, bool) {
    let cfg = Config::new(fixture_root(name));
    let outcome = driver::analyze(&cfg).expect("fixture analysis must succeed");
    (report::jsonl(&outcome), outcome.ok())
}

#[test]
fn fixture_reports_match_goldens() {
    for name in FIXTURES {
        let (jsonl, _) = run_lib(name);
        let golden_path = fixture_root(name).join("expected.jsonl");
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
        assert_eq!(
            jsonl, golden,
            "{name}: jsonl report diverged from expected.jsonl"
        );
    }
}

#[test]
fn fixture_gate_verdicts() {
    for (name, expect_ok) in [
        ("det001", false),
        ("det002", false),
        ("det003", false),
        ("det004", false),
        ("det005", false),
        ("det006", false),
        ("det007", false),
        ("det008", false),
        ("panic001", false),
        ("hyg001", false),
        ("det100", false),
        ("layer001", false),
        ("alloc001", false),
        ("clean", true),
    ] {
        let (_, ok) = run_lib(name);
        assert_eq!(ok, expect_ok, "{name}: unexpected gate verdict");
    }
}

#[test]
fn reports_are_byte_identical_across_runs() {
    for name in FIXTURES {
        let (a, _) = run_lib(name);
        let (b, _) = run_lib(name);
        assert_eq!(a, b, "{name}: repeated runs must emit identical bytes");
    }
}

/// Run the binary; returns its exit code and its stdout followed by its
/// stderr.
fn run_bin(args: &[&str], envs: &[(&str, &str)]) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ipg-analyze"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn ipg-analyze");
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn exit_codes_gate_the_build() {
    let det001 = fixture_root("det001").display().to_string();
    let clean = fixture_root("clean").display().to_string();
    // (args, exit code, text the output must carry): a filter that keeps
    // no rule or no member is a usage error naming its flag, never a
    // silent pass
    for (args, want, needle) in [
        (&["--root", &clean][..], 0, "0 new findings"),
        (&["--root", &det001][..], 2, "2 new findings"),
        (&["--rules", "NOSUCH"][..], 1, "unknown rule `NOSUCH`"),
        (&["--root", &det001, "--rules", ""][..], 1, "--rules"),
        (&["--root", &det001, "--rules", ","][..], 1, "--rules"),
        (
            &["--root", &det001, "--member", "nosuch"][..],
            1,
            "--member `nosuch` names no workspace member (members: ipg-core)",
        ),
    ] {
        let (code, out) = run_bin(args, &[]);
        assert_eq!(code, want, "{args:?} must exit {want}:\n{out}");
        assert!(
            out.contains(needle),
            "{args:?} must print {needle:?}:\n{out}"
        );
    }
}

#[test]
fn rules_filter_scopes_the_gate() {
    // bench.sh uses --rules DET001,…,DET005: PANIC001-only findings
    // must not block it.
    let root = fixture_root("panic001").display().to_string();
    let (code, out) = run_bin(
        &[
            "--root",
            &root,
            "--format",
            "json",
            "--rules",
            "DET001,DET002,DET003",
        ],
        &[],
    );
    assert_eq!(
        code, 0,
        "DET-filtered run must pass on PANIC-only fixture:\n{out}"
    );
    let (code, _) = run_bin(
        &["--root", &root, "--format", "json", "--rules", "PANIC001"],
        &[],
    );
    assert_eq!(code, 2, "PANIC001 filter must still catch its findings");
}

#[test]
fn det100_fixture_reports_the_full_call_chain() {
    // The chain crosses a crate boundary: the engine file contains no
    // clock ident at all, yet the finding names every hop to the sink.
    let (jsonl, ok) = run_lib("det100");
    assert!(!ok, "det100 fixture must fail the gate");
    assert!(
        jsonl.contains("reachable from cycle entry: Simulator::run -> helper -> stamp"),
        "DET100 must print the full call chain:\n{jsonl}"
    );
}

#[test]
fn output_is_byte_identical_across_thread_settings() {
    for name in ["det001", "det100", "panic001"] {
        let root = fixture_root(name).display().to_string();
        let args = ["--root", root.as_str(), "--format", "json"];
        let (c1, out1) = run_bin(&args, &[("IPG_THREADS", "1")]);
        let (c4, out4) = run_bin(&args, &[("IPG_THREADS", "4")]);
        assert_eq!(c1, c4, "{name}: exit code must not depend on IPG_THREADS");
        assert_eq!(out1, out4, "{name}: output must not depend on IPG_THREADS");
    }
}

#[test]
fn real_workspace_passes_the_gate() {
    // The repo's own source must be clean, every finding excused inline —
    // this is the same check `scripts/check.sh` runs.
    let root = driver::find_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the analyzer crate");
    let cfg = Config::new(root);
    let outcome = driver::analyze(&cfg).expect("workspace analysis must succeed");
    let report = report::human(&outcome);
    assert!(outcome.ok(), "workspace has unexcused findings:\n{report}");
    assert!(
        outcome.files > 50,
        "workspace walk looks truncated: {report}"
    );
}

#[test]
fn real_workspace_output_is_byte_identical_across_thread_settings() {
    let root = driver::find_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the analyzer crate");
    let root = root.display().to_string();
    let args = ["--root", root.as_str(), "--format", "json"];
    let (c1, out1) = run_bin(&args, &[("IPG_THREADS", "1")]);
    let (c2, out2) = run_bin(&args, &[("IPG_THREADS", "2")]);
    let (c4, out4) = run_bin(&args, &[("IPG_THREADS", "4")]);
    assert_eq!((c1, &out1), (c2, &out2), "IPG_THREADS=1 vs 2 diverged");
    assert_eq!((c1, &out1), (c4, &out4), "IPG_THREADS=1 vs 4 diverged");
}
