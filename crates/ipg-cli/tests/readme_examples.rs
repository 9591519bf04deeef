//! README.md's `ipg simulate` console examples are real runs: the
//! `--faults` block and the `--trace` + `trace summary` block are
//! re-run command by command, and each command's stdout must equal the
//! lines the README shows under it. A `...` line stands for elided
//! output: the shown lines before it must open the actual output and
//! the lines after it must close it. When a change moves these numbers
//! on purpose, update the README blocks, not this test.

use std::path::Path;
use std::process::Command;

const README: &str = include_str!("../../../README.md");
const PREFIX: &str = "$ cargo run --release -p ipg-cli -- ";

/// One `$` line of a console block and the output shown under it.
struct Step {
    args: Vec<String>,
    shown: Vec<String>,
}

/// Split a command line into words: whitespace separates, double
/// quotes group (and are dropped).
fn words(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (mut word, mut quoted) = (None::<String>, false);
    for c in line.chars() {
        match c {
            '"' => {
                quoted = !quoted;
                word.get_or_insert_with(String::new);
            }
            c if c.is_whitespace() && !quoted => out.extend(word.take()),
            c => word.get_or_insert_with(String::new).push(c),
        }
    }
    out.extend(word);
    out
}

/// The steps of a console block, or `None` when a line of it is
/// neither an `ipg` command nor output under one.
fn steps(block: &[&str]) -> Option<Vec<Step>> {
    let mut steps: Vec<Step> = Vec::new();
    for line in block {
        if let Some(cmd) = line.strip_prefix(PREFIX) {
            steps.push(Step {
                args: words(cmd),
                shown: Vec::new(),
            });
            continue;
        }
        if line.starts_with("$ ") {
            return None;
        }
        let step = steps.last_mut()?;
        if step.args.last().is_some_and(|a| a == "\\") {
            step.args.pop();
            step.args.extend(words(line));
        } else {
            step.shown.push(line.to_string());
        }
    }
    Some(steps)
}

/// The steps of the README's first ```console block of `ipg` commands
/// whose first command contains `marker`.
fn console_block(marker: &str) -> Vec<Step> {
    let mut lines = README.lines();
    while lines.any(|l| l == "```console") {
        let block: Vec<&str> = lines.by_ref().take_while(|l| *l != "```").collect();
        let Some(steps) = steps(&block) else {
            continue;
        };
        if steps
            .first()
            .is_some_and(|s| s.args.iter().any(|a| a.contains(marker)))
        {
            return steps;
        }
    }
    panic!("README.md has no console block whose first command contains `{marker}`");
}

/// Does `actual` match the `shown` lines, `...` eliding a middle run?
fn matches_shown(actual: &[&str], shown: &[String]) -> bool {
    match shown.iter().position(|l| l == "...") {
        None => actual == shown,
        Some(gap) => {
            let (head, tail) = (&shown[..gap], &shown[gap + 1..]);
            actual.len() >= head.len() + tail.len()
                && actual[..head.len()] == *head
                && actual[actual.len() - tail.len()..] == *tail
        }
    }
}

fn check_block(marker: &str, commands: usize) {
    let steps = console_block(marker);
    assert_eq!(steps.len(), commands, "commands in the `{marker}` block");
    let dir = std::env::temp_dir().join(format!(
        "ipg-readme-{}-{}",
        marker.trim_start_matches('-'),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for step in &steps {
        let out = run_ipg(&dir, &step.args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "ipg {:?} failed: {}",
            step.args,
            String::from_utf8_lossy(&out.stderr)
        );
        let actual: Vec<&str> = stdout.lines().collect();
        assert!(
            matches_shown(&actual, &step.shown),
            "README.md shows for `ipg {}`:\n{}\nbut it prints:\n{stdout}",
            step.args.join(" "),
            step.shown.join("\n")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_ipg(dir: &Path, args: &[String]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ipg"))
        .current_dir(dir)
        .args(args)
        // The output is thread-count independent; pinning keeps the
        // example from depending on that holding.
        .env("IPG_THREADS", "2")
        .output()
        .expect("spawn ipg")
}

#[test]
fn readme_fault_example_prints_what_it_shows() {
    check_block("--faults", 1);
}

#[test]
fn readme_trace_example_prints_what_it_shows() {
    check_block("--trace", 3);
}

#[test]
fn elided_lines_match_any_middle_run() {
    let shown: Vec<String> = ["a", "...", "z"].map(String::from).to_vec();
    assert!(matches_shown(&["a", "b", "c", "z"], &shown));
    assert!(matches_shown(&["a", "z"], &shown));
    assert!(!matches_shown(&["a", "b"], &shown));
    assert!(!matches_shown(&["z"], &shown));
    let exact: Vec<String> = vec!["a".to_string()];
    assert!(matches_shown(&["a"], &exact));
    assert!(!matches_shown(&["a", "b"], &exact));
}
