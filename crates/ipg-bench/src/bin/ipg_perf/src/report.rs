//! Metric definitions, aggregation of child samples into metrics,
//! correctness verdicts, the printed tables, the JSON report and
//! `--compare`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::stats::{median, share, Summary};
use crate::workload::{Sample, Workload};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric: name, unit, direction and (end-to-end only) the share of
/// the parent's median by which it may worsen before a change counts as
/// a regression. `BENCHMARK.json` lists the same values.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of `ipg simulate` sees; measured on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("cycles_per_s", "cycles/s", Higher, 0.25),
    e2e("hops_per_s", "hops/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("time_to_result_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
];

/// Per-layer metrics measured on every workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("core.build_s", "s", Lower),
    layer("core.graph_mb", "MiB", Lower),
    layer("router.build_s", "s", Lower),
    layer("engine.assemble_s", "s", Lower),
    layer("engine.assemble_mb", "MiB", Lower),
    layer("route.calls", "hops", Lower),
    layer("route.calls_per_cycle", "hops/cycle", Lower),
    layer("route.ns_per_call", "ns", Lower),
    layer("route.share", "ratio", Lower),
    layer("rng.ns_per_node_cycle", "ns", Lower),
    layer("rng.share", "ratio", Lower),
    layer("engine.other_share", "ratio", Lower),
    layer("engine.other_ns_per_hop", "ns", Lower),
    layer("engine.window_ms_p50", "ms", Lower),
    layer("engine.window_ms_pmax10", "ms", Lower),
    layer("engine.window_tail_pct", "%", Higher),
    layer("engine.windows", "count", Higher),
    layer("model.link_util_max_pct", "%", Lower),
    layer("model.buffer_max", "count", Lower),
    layer("obs.overhead_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.events", "count", Lower),
    layer("trace.dropped", "count", Lower),
    layer("host.speed_pct", "%", Higher),
];

/// Layer metrics only some workloads have: printed and written to the
/// JSON report, not part of the `--workload` result line.
pub const WORKLOAD_SPECIFIC: &[MetricDef] = &[
    layer("fault.compile_s", "s", Lower),
    layer("dist.setup_s", "s", Lower),
    layer("dist.setup_bytes", "B", Lower),
    layer("dist.frames", "count", Lower),
    layer("dist.bytes_per_cycle", "B/cycle", Lower),
    layer("dist.overhead_ms_per_cycle", "ms", Lower),
    layer("dist.worker_rss_mb", "MiB", Lower),
    layer("route.hops_checked", "hops", Higher),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(WORKLOAD_SPECIFIC)
        .find(|d| d.name == name)
}

/// Everything the children of one workload reported.
pub struct WorkloadRun {
    pub w: Workload,
    pub plain: Vec<Sample>,
    /// `dist-1m` only: an in-process `lowrate-1m` sample of the same
    /// seed, whose result the distributed runs must reproduce.
    pub reference: Option<Sample>,
    pub traced: Option<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl WorkloadRun {
    pub fn new(w: Workload) -> WorkloadRun {
        WorkloadRun {
            w,
            plain: Vec::new(),
            reference: None,
            traced: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Count a child that was started; a child that crashed or printed
    /// no sample counts as failed.
    pub fn record(&mut self, r: Result<Sample, String>) -> Option<Sample> {
        self.attempted += 1;
        r.map_err(|e| self.fail(e)).ok()
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }

    /// The result every sample must reproduce.
    fn baseline(&self) -> Option<&Sample> {
        self.reference.as_ref().or(self.plain.first())
    }

    fn route_calls(&self) -> u64 {
        self.baseline().map_or(0, |s| s.route_calls)
    }

    /// Check every sample: its own checks passed, and its result (and
    /// route-call count, where it has one) equals the baseline's.
    pub fn verify(&mut self) {
        let Some(base) = self.baseline().cloned() else {
            return;
        };
        let samples: Vec<Sample> = self
            .reference
            .iter()
            .chain(&self.plain)
            .chain(&self.traced)
            .cloned()
            .collect();
        for (i, s) in samples.iter().enumerate() {
            let tag = format!(
                "{} sample {i}{}",
                self.w.name(),
                if s.traced { " (traced)" } else { "" }
            );
            if !s.failures.is_empty() {
                self.fail(format!("{tag}: {}", s.failures.join("; ")));
            } else if s.result != base.result {
                self.fail(format!(
                    "{tag}: result {} differs from {}",
                    s.result, base.result
                ));
            } else if s.route_calls != 0 && s.route_calls != base.route_calls {
                self.fail(format!(
                    "{tag}: {} route calls, baseline {}",
                    s.route_calls, base.route_calls
                ));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.plain.is_empty()
    }

    /// Every metric this run measured.
    pub fn metrics(&self) -> BTreeMap<String, Summary> {
        let mut m = BTreeMap::new();
        let mut put = |name: &str, values: &[f64]| {
            if let (Some(def), false) = (lookup(name), values.is_empty()) {
                let summary = Summary::of(values, def.unit, def.better == Lower);
                m.insert(name.to_string(), summary);
            }
        };
        let calls = self.route_calls() as f64;
        let per = |f: &dyn Fn(&Sample) -> f64| self.plain.iter().map(f).collect::<Vec<_>>();
        put("cycles_per_s", &per(&|s| s.cycles as f64 / s.run_s));
        put("hops_per_s", &per(&|s| calls / s.run_s));
        put("setup_s", &per(&|s| s.setup_s));
        put("time_to_result_s", &per(&|s| s.setup_s + s.run_s));
        put("peak_rss_mb", &per(&|s| s.peak_rss_kb as f64 / 1024.0));

        // Layer readings: over the plain samples where they have them,
        // otherwise the traced child's single reading.
        let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &self.plain {
            for (k, v) in s.readings() {
                layers.entry(k).or_default().push(*v);
            }
        }
        if let Some(t) = &self.traced {
            for (k, v) in t.readings() {
                layers.entry(k).or_insert_with(|| vec![*v]);
            }
        }
        for (k, v) in &layers {
            put(k, v);
        }
        let Some(base) = self.baseline() else {
            return m;
        };
        let cycles = base.cycles.max(1) as f64;
        put("route.calls", &[calls]);
        put("route.calls_per_cycle", &[calls / cycles]);
        let checked: Vec<f64> = self
            .reference
            .iter()
            .chain(&self.plain)
            .chain(&self.traced)
            .filter(|s| s.hops_checked > 0)
            .map(|s| s.hops_checked as f64)
            .collect();
        put("route.hops_checked", &checked);

        let (Some(t), false) = (&self.traced, self.plain.is_empty()) else {
            return m;
        };
        // Shares of the plain median run time, which for the distributed
        // workload is the CPU time of the coordinator and all its workers.
        let mut runs: Vec<f64> = self.plain.iter().map(|s| s.run_s).collect();
        runs.sort_by(f64::total_cmp);
        let run = median(&runs);
        let get = |k: &str| t.get(k);
        let route = share(calls * get("route.ns_per_call") * 1e-9, run);
        let rng = share(
            get("rng.ns_per_node_cycle") * t.nodes as f64 * cycles * 1e-9,
            run,
        );
        put("route.share", &[route]);
        put("rng.share", &[rng]);
        put("engine.other_share", &[1.0 - route - rng]);
        put(
            "engine.other_ns_per_hop",
            &[share((1.0 - route - rng) * run * 1e9, calls)],
        );
        put(
            "obs.overhead_pct",
            &[(share(get("obs.run_s"), run) - 1.0) * 100.0],
        );
        put(
            "trace.overhead_pct",
            &[(share(get("trace.run_s"), run) - 1.0) * 100.0],
        );
        if let Some(&inproc) = t.durations.get("dist.inproc_run_s") {
            put(
                "dist.overhead_ms_per_cycle",
                &[(run - inproc) / cycles * 1e3],
            );
        }
        m
    }

    pub fn report(&self) -> WorkloadReport {
        WorkloadReport {
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures.clone(),
            result: self
                .baseline()
                .map(|s| s.result.clone())
                .unwrap_or_default(),
            metrics: self.metrics(),
        }
    }
}

/// The JSON report `--out` writes and `--compare` reads.
#[derive(Serialize, Deserialize)]
pub struct Report {
    pub seed: u64,
    pub workloads: BTreeMap<String, WorkloadReport>,
}

#[derive(Serialize, Deserialize)]
pub struct WorkloadReport {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub result: String,
    pub metrics: BTreeMap<String, Summary>,
}

/// Print one workload's metrics, table by table, with sample counts.
pub fn print_workload(name: &str, r: &WorkloadReport) {
    println!(
        "== {name}: {} samples attempted, {} failed ==",
        r.attempted, r.failed
    );
    for f in &r.failures {
        println!("   FAILED: {f}");
    }
    for (title, defs) in [
        ("end-to-end", END_TO_END),
        ("per layer", PER_LAYER),
        ("workload-specific", WORKLOAD_SPECIFIC),
    ] {
        let rows: Vec<_> = defs
            .iter()
            .filter_map(|d| r.metrics.get(d.name).map(|s| (d, s)))
            .collect();
        if rows.is_empty() {
            continue;
        }
        println!("   {title}:");
        for (d, s) in rows {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            println!(
                "     {:<26} {:>14} {:<10} n={:<3} median {} min {} max {} ({} is better){bound}",
                d.name,
                fmt(s.value),
                d.unit,
                s.n,
                fmt(s.median),
                fmt(s.min),
                fmt(s.max),
                d.better.as_str()
            );
        }
    }
}

/// A number in a table: four significant digits, never scientific for
/// the magnitudes these metrics take.
fn fmt(v: f64) -> String {
    if v == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// The one-line result printed when a single workload runs: correctness,
/// sample counts, and the chosen metric set with units. Metrics a failed
/// run could not measure read 0.
pub fn result_line(run: &WorkloadRun, report: &WorkloadReport, defs: &[MetricDef]) -> String {
    let metrics = defs
        .iter()
        .map(|d| {
            let value = report.metrics.get(d.name).map_or(0.0, |s| s.value);
            (
                d.name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(d.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(run.correct())),
        ("attempted".into(), Value::UInt(run.attempted)),
        ("failed".into(), Value::UInt(run.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

/// How a metric moved between two reports.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No bound: the metric is reported, not judged.
    Info,
    Ok,
    /// The parent's own spread exceeds the bound, so a change within it
    /// cannot be told apart from noise.
    Unresolved,
    Regression,
}

/// Judge `new` against `old` for a metric with direction `better` and
/// regression bound `bound` (a share of the old value).
pub fn verdict(old: &Summary, new: &Summary, better: Better, bound: Option<f64>) -> (f64, Verdict) {
    let delta = share(new.value - old.value, old.value.abs());
    let worse = match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let Some(bound) = bound else {
        return (delta, Verdict::Info);
    };
    let spread = old.spread();
    let v = if worse > bound && !(spread > bound && delta.abs() <= spread) {
        Verdict::Regression
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (delta, v)
}

/// `--compare OLD NEW`: one row per (workload, metric) both reports
/// hold, with each side's median and quartiles and the move of the value
/// (the better quartile). Returns the number of regressions.
pub fn compare(old: &Report, new: &Report) -> usize {
    println!(
        "{:<12} {:<26} {:>24} {:>24} {:>8} {:>6}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "delta", "bound"
    );
    let mut regressions = 0;
    for (w, nw) in &new.workloads {
        let Some(ow) = old.workloads.get(w) else {
            continue;
        };
        for (name, ns) in &nw.metrics {
            let (Some(os), Some(def)) = (ow.metrics.get(name), lookup(name)) else {
                continue;
            };
            let (delta, v) = verdict(os, ns, def.better, def.bound);
            regressions += usize::from(v == Verdict::Regression);
            let q = |s: &Summary| format!("{} [{}, {}]", fmt(s.median), fmt(s.q1), fmt(s.q3));
            let bound = def
                .bound
                .map_or("-".into(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "{w:<12} {name:<26} {:>24} {:>24} {:>+7.1}% {bound:>6}  {v:?}",
                q(os),
                q(ns),
                delta * 100.0
            );
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(value: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            value,
            unit: "s".into(),
            n: 10,
            median: value,
            min: q1,
            max: q3,
            q1,
            q3,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let old = summary(100.0, 99.0, 101.0);
        // 20% slower on a lower-is-better metric with a 10% bound
        let (d, v) = verdict(&old, &summary(120.0, 119.0, 121.0), Lower, Some(0.10));
        assert!((d - 0.20).abs() < 1e-12);
        assert_eq!(v, Verdict::Regression);
        // the same move on a higher-is-better metric is an improvement
        assert_eq!(
            verdict(&old, &summary(120.0, 119.0, 121.0), Higher, Some(0.10)).1,
            Verdict::Ok
        );
        // within the bound
        assert_eq!(
            verdict(&old, &summary(105.0, 104.0, 106.0), Lower, Some(0.10)).1,
            Verdict::Ok
        );
        // no bound: reported only
        assert_eq!(
            verdict(&old, &summary(300.0, 299.0, 301.0), Lower, None).1,
            Verdict::Info
        );
        // the parent's own spread (30%) exceeds the bound: a 20% move
        // inside it is unresolved, a 40% move beyond it is a regression
        let noisy = summary(100.0, 85.0, 115.0);
        assert_eq!(
            verdict(&noisy, &summary(120.0, 110.0, 130.0), Lower, Some(0.10)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &summary(140.0, 130.0, 150.0), Lower, Some(0.10)).1,
            Verdict::Regression
        );
        assert_eq!(
            verdict(&noisy, &summary(101.0, 90.0, 110.0), Lower, Some(0.10)).1,
            Verdict::Unresolved
        );
    }

    fn sample(run_s: f64, durations: &[(&str, f64)]) -> Sample {
        Sample {
            result: "R".into(),
            nodes: 1000,
            cycles: 100,
            route_calls: 50_000,
            setup_s: 0.5,
            run_s,
            peak_rss_kb: 2048,
            durations: durations.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            ..Sample::default()
        }
    }

    #[test]
    fn shares_split_the_plain_median_run_time() {
        let mut run = WorkloadRun::new(Workload::Uniform8k);
        run.plain = vec![sample(1.0, &[]), sample(0.5, &[]), sample(2.0, &[])];
        run.traced = Some(Sample {
            traced: true,
            ..sample(
                9.0,
                &[
                    // 50_000 calls × 6000 ns = 0.3 s of the 1 s median
                    ("route.ns_per_call", 6000.0),
                    // 1000 nodes × 100 cycles × 2000 ns = 0.2 s
                    ("rng.ns_per_node_cycle", 2000.0),
                    ("obs.run_s", 1.25),
                    ("trace.run_s", 1.0),
                ],
            )
        });
        run.verify();
        assert!(run.correct());
        let m = run.metrics();
        let v = |k: &str| m[k].value;
        assert!((v("route.share") - 0.3).abs() < 1e-9);
        assert!((v("rng.share") - 0.2).abs() < 1e-9);
        assert!((v("engine.other_share") - 0.5).abs() < 1e-9);
        // 0.5 s of residual over 50_000 hops
        assert!((v("engine.other_ns_per_hop") - 10_000.0).abs() < 1e-6);
        assert!((v("obs.overhead_pct") - 25.0).abs() < 1e-9);
        assert!(v("trace.overhead_pct").abs() < 1e-9);
        // end-to-end values are the better quartile of the three samples
        // (quantiles of [50, 100, 200] cycles/s are 50 and 200)
        assert_eq!(m["cycles_per_s"].median, 100.0);
        assert_eq!(v("cycles_per_s"), 200.0);
        assert_eq!(m["cycles_per_s"].n, 3);
        assert_eq!(v("hops_per_s"), 100_000.0);
        assert_eq!(v("time_to_result_s"), 1.0);
        assert_eq!(v("peak_rss_mb"), 2.0);
        assert_eq!(v("route.calls_per_cycle"), 500.0);
    }

    #[test]
    fn mismatched_results_fail_the_run() {
        let mut run = WorkloadRun::new(Workload::Uniform8k);
        let mut odd = sample(1.0, &[]);
        odd.result = "other".into();
        run.plain = vec![sample(1.0, &[]), odd];
        run.attempted = 2;
        run.verify();
        assert_eq!(run.failed, 1);
        assert!(!run.correct());
        let line = result_line(&run, &run.report(), END_TO_END);
        assert!(
            line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"),
            "{line}"
        );
    }

    #[test]
    fn tables_cover_every_name_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(WORKLOAD_SPECIFIC)
            .map(|d| d.name)
            .collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = lookup("setup_s").expect("setup_s is defined");
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// tables: same names in the same order, units, directions, bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = serde_json::parse_value(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(items)) = doc.get(section) else {
                panic!("BENCHMARK.json lacks {section}");
            };
            assert_eq!(items.len(), defs.len(), "{section}");
            for (item, d) in items.iter().zip(defs) {
                let text = |k: &str| match item.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{section}.{k}: {other:?}"),
                };
                assert_eq!(text("name"), d.name);
                assert_eq!(text("unit"), d.unit, "{}", d.name);
                assert_eq!(text("better"), d.better.as_str(), "{}", d.name);
                let bound = match item.get("bound") {
                    Some(Value::Float(b)) => Some(*b),
                    None => None,
                    other => panic!("{}.bound: {other:?}", d.name),
                };
                assert_eq!(bound, d.bound, "{}", d.name);
            }
        }
    }
}
