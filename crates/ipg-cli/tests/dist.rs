//! Failure modes of `simulate --workers N`: a dead worker and the
//! in-process node cap. Byte-identity with the in-process engine is a
//! row of the determinism matrix (`tests/determinism.rs`, workers axis).

use std::path::Path;
use std::process::Command;

fn run_ipg(dir: &Path, envs: &[(&str, &str)], args: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ipg"));
    cmd.current_dir(dir);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.args(args).output().expect("spawn ipg")
}

#[test]
fn dead_worker_yields_a_contextual_error_not_a_hang() {
    let dir = std::env::temp_dir().join(format!("ipg-dist-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // Worker 1 exits at cycle 700 (mid-warmup). The coordinator must
    // fail promptly — the EOF is immediate; the deadline is a backstop,
    // not the mechanism — naming the worker in its error.
    let out = run_ipg(
        &dir,
        &[("IPG_DIST_TEST_EXIT", "1:700"), ("IPG_DIST_TIMEOUT", "10")],
        &[
            "simulate",
            "ring-cn:l=3,nucleus=Q3",
            "0.02",
            "--workers",
            "2",
        ],
    );
    assert!(
        !out.status.success(),
        "a run with a dead worker must not report success"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("worker 1"),
        "error must name the dead worker: {err}"
    );
    assert!(err.contains("cycle"), "error must name the cycle: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dist_clears_the_in_process_node_cap() {
    // `cn:l=2,nucleus=Q12` is 2^24 nodes — over the in-process cap. The
    // full run is bench territory; here it must at least get past
    // parsing under --workers and be rejected without it.
    let dir = std::env::temp_dir().join(format!("ipg-dist-cap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = run_ipg(&dir, &[], &["simulate", "cn:l=2,nucleus=Q12", "0.02"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("node cap"),
        "in-process parse must reject 2^24 nodes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
