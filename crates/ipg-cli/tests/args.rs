//! `ipg` command lines from outside the process, as one table of rows.
//!
//! A refused row exits non-zero, prints nothing on stdout, creates no
//! file, and its error names the offending argument, environment
//! variable or trace-file field. The arguments are checked against the
//! command's declared grammar (`src/args.rs`) before any work starts:
//! unknown flags, extra positionals, bad values, a flag given twice, a
//! flag taken as another flag's value and a flag without the flag it
//! depends on. An accepted row exits zero.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

const NET: &str = "hsn:l=2,nucleus=Q2";

/// Arguments, environment, what the error must contain.
type Row<'a> = (&'a [&'a str], &'a [(&'a str, &'a str)], &'a str);

const HEADER: &str =
    "{\"record\":\"trace_meta\",\"version\":1,\"shards\":2,\"interval\":64,\"events\":1,\"dropped_events\":0}\n";

fn event(cycle: &str, shard: &str) -> String {
    format!(
        "{{\"record\":\"trace\",\"cycle\":{cycle},\"shard\":{shard},\"kind\":\"phase_a\",\"a\":1,\"b\":2,\"value\":0}}\n"
    )
}

/// A fresh directory holding one well-formed trace file and four whose
/// numbers do not fit their fields.
fn fixture_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ipg-args-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let files = [
        ("good.jsonl", format!("{HEADER}{}", event("0", "1"))),
        ("shard.jsonl", format!("{HEADER}{}", event("0", "70000"))),
        ("track.jsonl", format!("{HEADER}{}", event("0", "2"))),
        (
            "cycle.jsonl",
            format!("{HEADER}{}", event("99999999999", "0")),
        ),
        (
            "interval.jsonl",
            format!(
                "{}{}",
                HEADER.replace("\"interval\":64", "\"interval\":0"),
                event("0", "0")
            ),
        ),
    ];
    for (name, text) in &files {
        std::fs::write(dir.join(name), text).expect("write trace file");
    }
    dir
}

/// Exit status, stdout and stderr of one `ipg` run in `dir`.
fn ipg(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ipg"))
        .current_dir(dir)
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("spawn ipg");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list temp dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// Runs every row in a fresh fixture directory and checks that it is
/// refused: non-zero exit, empty stdout, no file created, and an error
/// naming what the row says.
fn assert_refused(name: &str, rows: &[Row]) {
    let dir = fixture_dir(name);
    let files = listing(&dir);
    for &(args, envs, names) in rows {
        let (ok, stdout, stderr) = ipg(&dir, args, envs);
        assert!(
            !ok,
            "ipg {args:?} {envs:?} must fail; it printed:\n{stdout}"
        );
        assert_eq!(stdout, "", "ipg {args:?} must print nothing on stdout");
        assert!(
            stderr.contains(names),
            "ipg {args:?} {envs:?}: the error must name {names}, got: {stderr}"
        );
        assert_eq!(listing(&dir), files, "ipg {args:?} must create no file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fixed_arity_commands_reject_extra_arguments() {
    // Fixed-arity commands take no flags and no extra positionals;
    // `compare` takes networks only.
    let rows: &[Row] = &[
        (
            &["info", "q:3", "--bogus"],
            &[],
            "unexpected argument `--bogus`",
        ),
        (
            &["info", "--bogus", "q:3"],
            &[],
            "unexpected argument `--bogus`",
        ),
        (&["dot", "q:2", "extra"], &[], "unexpected argument `extra`"),
        (
            &["layout", "q:3", "extra"],
            &[],
            "unexpected argument `extra`",
        ),
        (
            &["route", "q:3", "0", "7", "--bogus"],
            &[],
            "unexpected argument `--bogus`",
        ),
        (
            &["route", "q:3", "0", "7", "5"],
            &[],
            "unexpected argument `5`",
        ),
        (
            &["solve", "star:4", "1234", "2134", "extra"],
            &[],
            "unexpected argument `extra`",
        ),
        (
            &["solve", "star:4", "1234", "--bogus"],
            &[],
            "unexpected argument `--bogus`",
        ),
        (
            &["compare", "q:3", "--bogus"],
            &[],
            "unexpected argument `--bogus`",
        ),
        (
            &["compare", "--bogus", "q:3"],
            &[],
            "unexpected argument `--bogus`",
        ),
        (&["help", "extra"], &[], "unexpected argument `extra`"),
        (&["worker", "extra"], &[], "unexpected argument `extra`"),
    ];
    assert_refused("fixed", rows);
}

#[test]
fn simulate_rejects_bad_input_with_a_contextual_error() {
    // simulate: flags, positionals, the rate and the environment.
    let rows: &[Row] = &[
        (
            &["simulate", NET, "0.02", "--wrokers", "2"],
            &[],
            "--wrokers",
        ),
        (&["simulate", NET, "--bogus", "0.02"], &[], "--bogus"),
        (&["simulate", NET, "0.02", "0.03"], &[], "`0.03`"),
        (&["simulate", NET, "nan"], &[], "rate `nan`"),
        (&["simulate", NET, "inf"], &[], "rate `inf`"),
        (&["simulate", NET, "-0.5"], &[], "rate `-0.5`"),
        (&["simulate", NET, "1.5"], &[], "rate `1.5`"),
        (
            &["simulate", NET, "0.02", "--wormhole", "--vcs", "0"],
            &[],
            "--vcs",
        ),
        // The flit arena (links × VCs × 2 flits) is sized before any
        // allocation: 16 links × 10^9 VCs would be 256 GB of flits, and
        // usize::MAX VCs overflow the product.
        (
            &[
                "simulate",
                "ring:8",
                "0.01",
                "--wormhole",
                "--vcs",
                "1000000000",
                "--obs",
                "run.jsonl",
            ],
            &[],
            "bad --vcs `1000000000`",
        ),
        (
            &[
                "simulate",
                "ring:8",
                "0.01",
                "--wormhole",
                "--vcs",
                "18446744073709551615",
            ],
            &[],
            "--vcs",
        ),
        (
            &["simulate", NET, "0.02", "--wormhole", "--flits", "0"],
            &[],
            "--flits",
        ),
        (
            &["simulate", NET, "0.02", "--trace-interval", "0"],
            &[],
            "--trace-interval",
        ),
        (
            &["simulate", NET, "0.02", "--workers", "0"],
            &[],
            "--workers",
        ),
        (
            &["simulate", NET, "0.02", "--workers", "2", "--wormhole"],
            &[],
            "--workers",
        ),
        (
            &["simulate", NET, "0.02", "--workers", "2"],
            &[("IPG_DIST_TIMEOUT", "abc")],
            "IPG_DIST_TIMEOUT",
        ),
        (
            &["simulate", NET, "0.02", "--workers", "2"],
            &[("IPG_DIST_TIMEOUT", "0")],
            "IPG_DIST_TIMEOUT",
        ),
        // A flag does not take another flag as its value.
        (
            &["simulate", NET, "0.02", "--obs", "--wormhole"],
            &[],
            "--obs <path> needs a value",
        ),
        (
            &["simulate", NET, "0.02", "--trace", "--obs", "x"],
            &[],
            "--trace <path> needs a value",
        ),
        // A flag is given once.
        (
            &[
                "simulate", NET, "0.02", "--obs", "a.jsonl", "--obs", "b.jsonl",
            ],
            &[],
            "--obs is given twice",
        ),
        (
            &["simulate", NET, "--wormhole", "--wormhole"],
            &[],
            "--wormhole is given twice",
        ),
        // A dependent flag needs its primary.
        (
            &["simulate", NET, "0.02", "--vcs", "3"],
            &[],
            "--vcs needs --wormhole",
        ),
        (
            &["simulate", NET, "0.02", "--flits", "8"],
            &[],
            "--flits needs --wormhole",
        ),
        (
            &["simulate", NET, "0.02", "--policy", "single"],
            &[],
            "--policy needs --wormhole",
        ),
        (
            &["simulate", NET, "0.02", "--obs-interval", "100"],
            &[],
            "--obs-interval needs --obs",
        ),
        (
            &["simulate", NET, "0.02", "--trace-interval", "5"],
            &[],
            "--trace-interval needs --trace",
        ),
        // The fault spec's syntax is checked before the network is
        // parsed, let alone built.
        (
            &["simulate", "frob:3", "--faults", "bogus"],
            &[],
            "bad --faults",
        ),
        (
            &["simulate", NET, "--faults", "script:link@x:0-1"],
            &[],
            "bad --faults",
        ),
        // The detour router refuses a directed graph, as a graph error.
        (
            &[
                "simulate",
                "rotator:4",
                "0.01",
                "--faults",
                "rate:links=0.1,at=0",
            ],
            &[],
            "directed",
        ),
    ];
    assert_refused("simulate", rows);
}

#[test]
fn trace_rejects_bad_input_with_a_contextual_error() {
    // trace: flags, positionals and trace files whose numbers do not
    // fit their fields.
    let rows: &[Row] = &[
        (
            &["trace", "summary", "good.jsonl", "--tpo", "3"],
            &[],
            "--tpo",
        ),
        (
            &["trace", "summary", "good.jsonl", "other.jsonl"],
            &[],
            "`other.jsonl`",
        ),
        (&["trace", "summary", "good.jsonl", "--top"], &[], "--top"),
        (
            &["trace", "summary", "good.jsonl", "--top", "--top"],
            &[],
            "--top <n> needs a value",
        ),
        (
            &["trace", "summary", "good.jsonl", "--top", "x"],
            &[],
            "--top",
        ),
        (
            &["trace", "chrome", "good.jsonl", "out.json", "--nmae", "x"],
            &[],
            "--nmae",
        ),
        (
            &["trace", "chrome", "good.jsonl", "out.json", "extra"],
            &[],
            "`extra`",
        ),
        (&["trace", "summary", "shard.jsonl"], &[], "shard `70000`"),
        (&["trace", "summary", "track.jsonl"], &[], "shard 2"),
        (
            &["trace", "summary", "cycle.jsonl"],
            &[],
            "cycle `99999999999`",
        ),
        (&["trace", "summary", "interval.jsonl"], &[], "interval"),
        (
            &["trace", "chrome", "shard.jsonl", "out.json"],
            &[],
            "shard `70000`",
        ),
    ];
    assert_refused("trace", rows);
}

#[test]
fn network_specs_are_checked_and_sized_before_any_work() {
    // Every token of a spec is checked against its family's row, and the
    // node count comes from the row's formula before anything is built.
    let rows: &[Row] = &[
        (&["info", "hsn:l=2,nucleus=Q2,symetric"], &[], "`symetric`"),
        (&["info", "hypercube:6,foo=3"], &[], "`foo=3`"),
        (&["info", "hypercube:6,7"], &[], "`7`"),
        (&["info", "petersen:99"], &[], "`99`"),
        (&["info", "hcn:3,symmetric"], &[], "`symmetric`"),
        (&["info", "hsn:l=2,l=3,nucleus=Q2"], &[], "`l=3`"),
        (&["compare", "q:3", "q:3,x"], &[], "`x`"),
        (&["info", "hsn:l=1,nucleus=K1"], &[], "at least 2"),
        (&["simulate", "complete:1", "0.5"], &[], "at least 2"),
        (&["layout", "star:1"], &[], "at least 2"),
        (&["layout", "q:13"], &[], "4096-node cap"),
        (&["dot", "q:11"], &[], "2000-node cap"),
        // 3,628,800 nodes: refused from the formula, not after a build.
        (&["simulate", "star:10"], &[], "65536-node bound"),
        (&["info", "hsn:l=2,nucleus=Q12"], &[], "4194304-node cap"),
        // 262,144 nodes: over the all-pairs bound, refused before a build.
        (
            &["compare", "q:3", "hsn:l=3,nucleus=Q6"],
            &[],
            "`hsn:l=3,nucleus=Q6`: hsn: 262144 nodes exceed the 100000-node cap",
        ),
        (
            &["simulate", "cn:l=2,nucleus=Q13", "--workers", "2"],
            &[],
            "16777216-node cap",
        ),
        (
            &["solve", "star:99999999999", "12", "21"],
            &[],
            "game `star:99999999999`",
        ),
        (&["solve", "pancake:0", "1", "1"], &[], "game `pancake:0`"),
    ];
    assert_refused("network", rows);
}

#[test]
fn info_skips_all_pairs_passes_above_the_bound() {
    // 262,144 nodes: every all-pairs line is skipped, so the run returns
    // at once. The deadline turns a pass that would run for hours into a
    // failure instead of a hung suite.
    let dir = std::env::temp_dir();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ipg"))
        .current_dir(&dir)
        .args(["info", "hsn:l=3,nucleus=Q6"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ipg");
    // 1200 polls 50 ms apart: a deadline of at least 60 s, counted in
    // polls so the test reads no clock.
    let poll = Duration::from_millis(50);
    let mut polls = 0;
    while child.try_wait().expect("poll ipg").is_none() {
        if polls == 1200 {
            let _ = child.kill();
            let _ = child.wait();
            panic!("ipg info hsn:l=3,nucleus=Q6 still running after 60 s");
        }
        polls += 1;
        std::thread::sleep(poll);
    }
    let out = child.wait_with_output().expect("collect ipg output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "ipg info failed:\n{stdout}");
    for line in [
        "diameter:     (skipped; > 100k nodes)",
        "I-degree:       1.97",
        "I-diameter:     (skipped; > 100k nodes)",
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
}

#[test]
fn solve_names_both_labels_when_no_sequence_exists() {
    // Well-formed labels of different symbol multisets: no generator
    // sequence joins them, and the error says which labels and why.
    let rows: &[Row] = &[(
        &["solve", "star:4", "1235", "2134"],
        &[],
        "label `2134` is unreachable from label `1235`: the labels hold different symbol multisets",
    )];
    assert_refused("solve", rows);
}

#[test]
fn good_command_lines_succeed() {
    let rows: &[&[&str]] = &[
        &[],
        &["help"],
        &["info", "q:3"],
        &["dot", "q:2"],
        &["layout", "q:3"],
        &["route", "q:3", "0", "7"],
        &["solve", "star:4", "1234", "2134"],
        &["compare", "q:3", "q:4"],
        &["route", "cn:l=9,nucleus=Q1,symmetric", "0", "4607"],
        &[
            "solve",
            "star:35",
            "123456789abcdefghijklmnopqrstuvwxyz",
            "213456789abcdefghijklmnopqrstuvwxyz",
        ],
        &[
            "simulate",
            "q:3",
            "0.02",
            "--wormhole",
            "--vcs",
            "3",
            "--flits",
            "2",
            "--policy",
            "single",
        ],
        &[
            "simulate",
            "q:3",
            "--obs",
            "run.jsonl",
            "--obs-interval",
            "100",
        ],
        &["trace", "summary", "good.jsonl", "--top", "3"],
        &["trace", "chrome", "good.jsonl", "out.json", "--name", "run"],
    ];
    let dir = fixture_dir("good");
    for &args in rows {
        let (ok, _, stderr) = ipg(&dir, args, &[]);
        assert!(ok, "ipg {args:?} must succeed, got: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
