//! Distill a `CRITERION_JSON` line file into `results/BENCH_core.json`.
//!
//! `scripts/bench.sh` runs the `addressing` and `thm41_routing`
//! criterion suites with `CRITERION_JSON` pointing at a scratch `.jsonl`,
//! then invokes this binary on it. The report keeps every case's
//! median/min/mean ns per operation (including the codec router's
//! `shortest_next_hop` cost per hop) and derives the interned-vs-rank
//! build and route speedups per instance — the numbers later PRs regress
//! against.
//!
//! `bench_report --render-docs` instead rewrites the generated blocks of
//! README.md, EXPERIMENTS.md and DESIGN.md from `results/BENCH_sim.json`
//! (see `ipg_bench::bench_sim`); `scripts/bench.sh` runs it right after
//! `sim_bench`.
//!
//! Usage: `bench_report <criterion.jsonl>` | `bench_report --render-docs`

use ipg_bench::{bench_sim, workspace_root, write_json};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;

#[derive(Deserialize)]
struct Line {
    group: String,
    id: String,
    median_ns: f64,
    min_ns: f64,
    mean_ns: f64,
    samples: u64,
    iters: u64,
}

#[derive(Serialize)]
struct Case {
    id: String,
    median_ns: f64,
    min_ns: f64,
    mean_ns: f64,
    samples: u64,
    iters: u64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    ipg_threads: String,
    cases: Vec<Case>,
    /// `interned_build` median / `rank_build` median, per instance.
    build_speedup: BTreeMap<String, f64>,
    /// `interned_route` median / `rank_route` median, per instance.
    route_speedup: BTreeMap<String, f64>,
}

/// Rewrite every generated block of the docs from the committed JSON.
fn render_docs() {
    let bench = bench_sim::load().unwrap_or_else(|e| panic!("{e}"));
    for name in bench_sim::DOC_FILES {
        let path = workspace_root().join(name);
        let doc = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
        let rendered = bench_sim::render(&doc, &bench).unwrap_or_else(|e| panic!("{name}: {e}"));
        if rendered == doc {
            println!("{name}: up to date");
        } else {
            fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {name}: {e}"));
            println!("{name}: rendered");
        }
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: bench_report <criterion.jsonl> | --render-docs");
    if path == "--render-docs" {
        return render_docs();
    }
    let data = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));

    let mut cases: Vec<Case> = Vec::new();
    for line in data.lines().filter(|l| !l.trim().is_empty()) {
        let l: Line = serde_json::from_str(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        cases.push(Case {
            id: format!("{}/{}", l.group, l.id),
            median_ns: l.median_ns,
            min_ns: l.min_ns,
            mean_ns: l.mean_ns,
            samples: l.samples,
            iters: l.iters,
        });
    }
    // later duplicates (re-runs appended to the same file) win
    let median_of = |prefix: &str, instance: &str| -> Option<f64> {
        cases
            .iter()
            .rev()
            .find(|c| c.id == format!("addressing/{prefix}/{instance}"))
            .map(|c| c.median_ns)
    };

    let instances: Vec<String> = cases
        .iter()
        .filter_map(|c| c.id.strip_prefix("addressing/interned_build/"))
        .map(str::to_string)
        .collect();
    let mut build_speedup = BTreeMap::new();
    let mut route_speedup = BTreeMap::new();
    for inst in &instances {
        if let (Some(a), Some(b)) = (
            median_of("interned_build", inst),
            median_of("rank_build", inst),
        ) {
            build_speedup.insert(inst.clone(), a / b);
        }
        if let (Some(a), Some(b)) = (
            median_of("interned_route", inst),
            median_of("rank_route", inst),
        ) {
            route_speedup.insert(inst.clone(), a / b);
        }
    }

    let report = Report {
        bench: "addressing",
        ipg_threads: std::env::var("IPG_THREADS").unwrap_or_default(),
        cases,
        build_speedup,
        route_speedup,
    };
    for (inst, s) in &report.build_speedup {
        println!("build speedup {inst}: {s:.2}x");
    }
    for (inst, s) in &report.route_speedup {
        println!("route speedup {inst}: {s:.2}x");
    }
    write_json("BENCH_core", &report);
}
