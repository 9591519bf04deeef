//! Smoke runs of the whole harness at 64 cycles per schedule: child
//! re-exec, the distributed workers, the traced child, every correctness
//! check, the JSON report and the single-workload result line.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

/// The metric lists the benchmark declares at the repository root.
fn declared(section: &str) -> Vec<String> {
    let text = include_str!("../../../../../../BENCHMARK.json");
    let doc = serde_json::parse_value(text).expect("BENCHMARK.json parses");
    match doc.get(section) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("metric without a name: {other:?}"),
            })
            .collect(),
        other => panic!("BENCHMARK.json has no {section} list: {other:?}"),
    }
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Float(f)) => *f,
        Some(Value::UInt(u)) => *u as f64,
        Some(Value::Int(i)) => *i as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ipg_perf_{name}_{}", std::process::id()))
}

fn ipg_perf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ipg_perf"))
        .args(args)
        .output()
        .expect("ipg_perf starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "ipg_perf {args:?} failed\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    let dir = temp_dir("smoke");
    let report = dir.join("report.json");
    let report_arg = report.to_str().expect("temp path is UTF-8");
    ipg_perf(&[
        "--seed",
        "3",
        "--samples",
        "1",
        "--cycles",
        "64",
        "--out",
        report_arg,
    ]);
    let text = std::fs::read_to_string(&report).expect("report written");
    let doc = serde_json::parse_value(&text).expect("report parses");
    let workloads = doc.get("workloads").expect("workloads");
    let expected = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"));
    let expected: Vec<String> = expected.collect();
    for name in [
        "uniform-8k",
        "lowrate-1m",
        "faults-8k",
        "wormhole-8k",
        "dist-1m",
    ] {
        let w = workloads
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            number(w.get("failed")),
            0.0,
            "{name}: {:?}",
            w.get("failures")
        );
        let metrics = w.get("metrics").expect("metrics");
        let value = |m: &str| {
            number(
                metrics
                    .get(m)
                    .unwrap_or_else(|| panic!("{name} lacks {m}"))
                    .get("value"),
            )
        };
        for m in &expected {
            value(m);
        }
        for m in [
            "cycles_per_s",
            "hops_per_s",
            "setup_s",
            "peak_rss_mb",
            "route.calls",
        ] {
            assert!(value(m) > 0.0, "{name}: {m} must be positive");
        }
        // the outside-in breakdown never claims more time than the run
        let (route, rng) = (value("route.share"), value("rng.share"));
        assert!(route > 0.0 && rng > 0.0, "{name}: shares {route} {rng}");
        assert!(route + rng <= 1.10, "{name}: shares sum to {}", route + rng);
    }
    let dist = workloads.get("dist-1m").expect("dist-1m").get("metrics");
    let dist = dist.expect("dist metrics");
    for m in [
        "dist.setup_bytes",
        "dist.worker_rss_mb",
        "dist.overhead_ms_per_cycle",
    ] {
        assert!(dist.get(m).is_some(), "dist-1m lacks {m}");
    }
    let faults = workloads
        .get("faults-8k")
        .expect("faults-8k")
        .get("metrics");
    assert!(faults
        .expect("faults metrics")
        .get("fault.compile_s")
        .is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_workload_prints_the_result_line_last() {
    let dir = temp_dir("line");
    let report = dir.join("report.json");
    let report_arg = report.to_str().expect("temp path is UTF-8");
    let args = [
        "--workload",
        "uniform-8k",
        "--seed",
        "5",
        "--seconds",
        "0.5",
    ];
    let stdout = ipg_perf(
        &[
            &args[..],
            &["--trace", "0", "--cycles", "64", "--out", report_arg],
        ]
        .concat(),
    );
    let last = stdout.lines().last().expect("some output");
    let line = serde_json::parse_value(last).expect("last line is JSON");
    let Value::Object(fields) = &line else {
        panic!("result line is not an object: {last}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert!(number(line.get("attempted")) >= 3.0);
    let Some(Value::Object(metrics)) = line.get("metrics") else {
        panic!("no metrics object: {last}");
    };
    let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(names, declared("end_to_end"));
    let _ = std::fs::remove_dir_all(&dir);
}
