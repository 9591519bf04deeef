//! `ipg_perf`: the repository's benchmark of the `ipg-sim` simulators.
//!
//! Every sample is one batch simulation in a fresh child process (this
//! binary re-executed as `__sample`), so peak-memory readings are exact
//! and nothing carries over between samples. The parent starts the next
//! sample only after the previous one exits (a closed loop with one
//! client), round-robin across workloads, after one traced child per
//! workload for the per-layer breakdown. Times are CPU times at a
//! nominal core speed, and each metric's value is the better quartile of
//! its samples. See README.md for why, and for the workloads, the metrics
//! and the sizing measurements.
//!
//! ```text
//! ipg_perf [--seed N] [--samples N] [--seconds S] [--trace 0|1]
//!          [--only W | --workload W] [--out PATH] [--cycles N]
//! ipg_perf --compare OLD.json NEW.json
//! ```
//!
//! With a single workload selected the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).

mod probe;
mod report;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use probe::{secs, Clock};
use report::{Report, WorkloadRun, END_TO_END, PER_LAYER};
use workload::{Sample, Workload, ALL};

const USAGE: &str = "usage: ipg_perf [--seed N] [--samples N] [--seconds S] [--trace 0|1] \
[--only W | --workload W] [--out PATH] [--cycles N]\n       ipg_perf --compare OLD.json NEW.json";

/// What one invocation measures.
struct Plan {
    workloads: Vec<Workload>,
    seed: u64,
    /// Plain samples per workload, at least.
    samples: usize,
    /// Keep sampling until this many seconds have passed.
    seconds: f64,
    /// Run the traced child (per-layer breakdown).
    traced: bool,
    /// Shrink every schedule to this many cycles (smoke runs).
    cycles: Option<u32>,
    out: PathBuf,
}

enum Cli {
    Run(Plan),
    Compare(PathBuf, PathBuf),
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut plan = Plan {
        workloads: ALL.to_vec(),
        seed: 7,
        samples: 3,
        seconds: 0.0,
        traced: true,
        cycles: None,
        out: PathBuf::from("target/ipg_perf/latest.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--compare" => {
                let old = PathBuf::from(value()?);
                return Ok(Cli::Compare(old, PathBuf::from(value()?)));
            }
            "--seed" => plan.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--samples" => plan.samples = num(value()?)?.max(1.0) as usize,
            "--seconds" => plan.seconds = num(value()?)?.max(0.0),
            "--trace" => plan.traced = value()? != "0",
            "--cycles" => plan.cycles = Some(num(value()?)?.max(8.0) as u32),
            "--out" => plan.out = PathBuf::from(value()?),
            "--only" | "--workload" => {
                let name = value()?;
                let w =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                plan.workloads = vec![w];
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Cli::Run(plan))
}

/// Run one sample in a fresh child process with a pinned environment.
fn spawn_sample(w: Workload, plan: &Plan, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "__sample",
        w.name(),
        &plan.seed.to_string(),
        if traced { "1" } else { "0" },
    ]);
    if let Some(c) = plan.cycles {
        cmd.arg(c.to_string());
    }
    let out = cmd
        .env("IPG_THREADS", "1")
        .env_remove("IPG_DENSE_ENGINE")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start sample: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{}: sample exited with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("{}: unreadable sample ({e}): {line}", w.name()))
}

/// Collect samples: references, then traced children, then plain samples
/// round-robin until every workload has `plan.samples` and the traced
/// and plain children have filled `plan.seconds` (a round is started
/// only while its expected end lies closer to the target than stopping
/// now). The reference comes before the clock starts, so that `dist-1m`,
/// the noisiest workload, keeps as many plain samples as the others.
fn collect(plan: &Plan) -> Vec<WorkloadRun> {
    let mut runs: Vec<WorkloadRun> = plan
        .workloads
        .iter()
        .map(|&w| WorkloadRun::new(w))
        .collect();
    for run in runs.iter_mut().filter(|r| r.w == Workload::Dist1m) {
        run.reference = run.record(spawn_sample(Workload::Lowrate1m, plan, false));
    }
    let clock = Clock::new();
    let start = clock.start();
    if plan.traced {
        for run in &mut runs {
            run.traced = run.record(spawn_sample(run.w, plan, true));
        }
    }
    let sampling = clock.start();
    let mut rounds = 0;
    let round_secs = |rounds: usize| secs(&sampling) / rounds.max(1) as f64;
    while rounds < plan.samples || secs(&start) + round_secs(rounds) / 2.0 < plan.seconds {
        for run in &mut runs {
            if let Some(s) = run.record(spawn_sample(run.w, plan, false)) {
                run.plain.push(s);
            }
        }
        rounds += 1;
    }
    for run in &mut runs {
        run.verify();
    }
    runs
}

fn write_report(path: &Path, report: &Report) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_report(path: &Path) -> Result<Report, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn run(plan: &Plan) -> Result<bool, String> {
    let runs = collect(plan);
    let report = Report {
        seed: plan.seed,
        workloads: runs
            .iter()
            .map(|r| (r.w.name().to_string(), r.report()))
            .collect(),
    };
    for (name, r) in &report.workloads {
        report::print_workload(name, r);
    }
    write_report(&plan.out, &report)?;
    println!("report: {}", plan.out.display());
    if let [single] = runs.as_slice() {
        let defs = if plan.traced { PER_LAYER } else { END_TO_END };
        println!(
            "{}",
            report::result_line(single, &report.workloads[single.w.name()], defs)
        );
    }
    Ok(runs.iter().all(WorkloadRun::correct))
}

/// `__sample <workload> <seed> <traced 0|1> [cycles]`: one child sample.
fn sample_child(args: &[String]) -> Result<(), String> {
    let w = args
        .first()
        .and_then(|n| Workload::parse(n))
        .ok_or("__sample needs a workload")?;
    let seed = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .ok_or("__sample needs a seed")?;
    let traced = args.get(2).is_some_and(|t| t == "1");
    let cycles = args.get(3).and_then(|c| c.parse().ok());
    let s = workload::run_sample(w, seed, traced, cycles);
    println!("{}", serde_json::to_string(&s).map_err(|e| e.to_string())?);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("__dist-worker") => {
            ipg_sim::dist::worker_main(workload::dist_worker_router, probe::vm_hwm_kb)
                .map(|()| true)
                .map_err(|e| format!("dist worker: {e}"))
        }
        Some("__sample") => sample_child(&args[1..]).map(|()| true),
        _ => match parse_cli(&args) {
            Ok(Cli::Run(plan)) => run(&plan),
            Ok(Cli::Compare(old, new)) => read_report(&old)
                .and_then(|o| Ok((o, read_report(&new)?)))
                .map(|(o, n)| report::compare(&o, &n) == 0),
            Err(e) => Err(format!("{e}\n{USAGE}")),
        },
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ipg_perf: {e}");
            std::process::exit(2);
        }
    }
}
