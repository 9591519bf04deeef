//! `ipg trace` rejects bad input from outside the process — unknown
//! flags, extra positionals and trace files whose values do not fit
//! their fields — with a non-zero exit and an error that names the
//! offending flag or field, instead of silently ignoring or truncating it.

use std::process::Command;

const HEADER: &str =
    "{\"record\":\"trace_meta\",\"version\":1,\"shards\":2,\"interval\":64,\"events\":1,\"dropped_events\":0}\n";

fn event(cycle: &str, shard: &str) -> String {
    format!(
        "{{\"record\":\"trace\",\"cycle\":{cycle},\"shard\":{shard},\"kind\":\"phase_a\",\"a\":1,\"b\":2,\"value\":0}}\n"
    )
}

#[test]
fn trace_rejects_bad_input_with_a_contextual_error() {
    let dir = std::env::temp_dir().join(format!("ipg-trace-args-{}", std::process::id()));
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
    // Arguments after `trace`, what the error must name.
    let cases: &[(&[&str], &str)] = &[
        (&["summary", "good.jsonl", "--tpo", "3"], "--tpo"),
        (&["summary", "good.jsonl", "other.jsonl"], "`other.jsonl`"),
        (&["summary", "good.jsonl", "--top"], "--top"),
        (&["summary", "good.jsonl", "--top", "x"], "--top"),
        (
            &["chrome", "good.jsonl", "out.json", "--nmae", "x"],
            "--nmae",
        ),
        (&["chrome", "good.jsonl", "out.json", "extra"], "`extra`"),
        (&["summary", "shard.jsonl"], "shard `70000`"),
        (&["summary", "track.jsonl"], "shard 2"),
        (&["summary", "cycle.jsonl"], "cycle `99999999999`"),
        (&["summary", "interval.jsonl"], "interval"),
        (&["chrome", "shard.jsonl", "out.json"], "shard `70000`"),
    ];
    for &(args, names) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ipg"))
            .current_dir(&dir)
            .arg("trace")
            .args(args)
            .output()
            .expect("spawn ipg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "ipg trace {args:?} must fail; it printed:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            stderr.contains(names),
            "ipg trace {args:?}: the error must name {names}, got: {stderr}"
        );
    }
    // The well-formed file still goes through both subcommands.
    for args in [
        &["summary", "good.jsonl", "--top", "3"][..],
        &["chrome", "good.jsonl", "out.json", "--name", "run"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ipg"))
            .current_dir(&dir)
            .arg("trace")
            .args(args)
            .output()
            .expect("spawn ipg");
        assert!(
            out.status.success(),
            "ipg trace {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
