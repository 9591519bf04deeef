//! The determinism matrix: every CLI-level byte-identity contract, as one
//! declared grid of *(config, axis, variants)* rows.
//!
//! Each row runs its configs under every variant of one axis, each
//! variant a fresh `ipg` subprocess in a sibling working directory (so
//! the relative manifest and trace paths that `simulate` echoes match),
//! and requires three streams to be byte-identical to the first
//! variant's:
//!
//! - **stdout**;
//! - **trace** — the whole flight-recorder file, which records only
//!   virtual time and counts;
//! - **records** — the sorted deterministic manifest family (`window` +
//!   `metrics`; `meta`/`span`/`rate`/`scaling` carry wall-clock data and
//!   `dist` the per-worker telemetry).
//!
//! The axes:
//!
//! - **threads** — `IPG_THREADS` ∈ {1, 2, 4}. The pool size is read once
//!   per process, hence the subprocesses.
//! - **workers** — the in-process engine vs `--workers 1/2/4`.
//! - **trace** — `--trace` off vs on at `IPG_THREADS=2`; stdout's
//!   `trace:` line is dropped and only stdout and records are compared.
//!
//! The engines' oracle is not a CLI axis: it is a reference model that
//! only `ipg-sim`'s tests run (`crates/ipg-sim/tests/oracle.rs`, which
//! covers the two configs below). The two
//! `sparse_*_kernel_matches_dense_oracle_end_to_end` tests at the bottom
//! (named for the in-engine oracle the reference model replaced) hold
//! the `ipg` binary's streams to an in-process run of the same config.
//!
//! A mismatch names the stream, the axis, both variants, the 1-based
//! number of the first differing line and both lines; trace lines carry
//! their `cycle` and `shard`.

use std::path::Path;
use std::process::Command;

/// A config runs as given (`PLAIN`) or with the flight recorder on
/// (`TRACED`: `--trace run.trace.jsonl --trace-interval 128`).
const PLAIN: bool = false;
const TRACED: bool = true;

#[derive(Clone, Copy, Debug)]
enum Axis {
    Threads,
    Workers,
    Trace,
}

impl Axis {
    fn variants(self) -> &'static [&'static str] {
        match self {
            Axis::Threads => &["1", "2", "4"],
            Axis::Workers => &["inproc", "1", "2", "4"],
            Axis::Trace => &["off", "on"],
        }
    }
}

/// What one run shows the outside world.
struct Streams {
    stdout: String,
    trace: Option<String>,
    records: String,
}

/// Run `ipg <args>` in `dir` under `variant` of `axis`. `simulate` runs
/// always write a manifest (`--obs-interval 500`).
fn run(dir: &Path, axis: Axis, variant: &str, args: &[&str], traced: bool) -> Streams {
    let simulate = args[0] == "simulate";
    let mut argv: Vec<&str> = args.to_vec();
    if simulate {
        argv.extend(["--obs", "run.manifest.jsonl", "--obs-interval", "500"]);
    }
    if traced {
        argv.extend(["--trace", "run.trace.jsonl", "--trace-interval", "128"]);
    }
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ipg"));
    cmd.current_dir(dir);
    match (axis, variant) {
        (Axis::Threads, t) => {
            cmd.env("IPG_THREADS", t);
        }
        (Axis::Workers, "inproc") => {}
        (Axis::Workers, w) => argv.extend(["--workers", w]),
        (Axis::Trace, mode) => {
            cmd.env("IPG_THREADS", "2");
            if mode == "on" {
                argv.extend(["--trace", "run.trace.jsonl"]);
            }
        }
    }
    let out = cmd.args(&argv).output().expect("spawn ipg");
    assert!(
        out.status.success(),
        "ipg {argv:?} ({axis:?} {variant}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(!stdout.is_empty(), "ipg {argv:?} produced no output");
    if let Axis::Trace = axis {
        stdout = stdout
            .lines()
            .filter(|l| !l.starts_with("trace:"))
            .map(|l| format!("{l}\n"))
            .collect();
    }
    // The `trace_meta` header holds event totals, so it differs whenever
    // any event does; moving it last makes the first differing line the
    // first differing event, with its `cycle` and `shard`.
    let trace = traced.then(|| {
        let t = std::fs::read_to_string(dir.join("run.trace.jsonl")).expect("read trace");
        let (meta, events) = t.split_once('\n').expect("trace has a header line");
        assert!(!events.is_empty(), "ipg {argv:?}: trace has no events");
        format!("{events}{meta}\n")
    });
    let records = if simulate {
        deterministic_records(&dir.join("run.manifest.jsonl"))
    } else {
        String::new()
    };
    Streams {
        stdout,
        trace,
        records,
    }
}

/// The deterministic record family of a manifest, one per line, sorted:
/// in-window record order is stable, but sorting keeps the comparison
/// independent of it.
fn deterministic_records(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("read manifest");
    let mut lines: Vec<&str> = text
        .lines()
        .filter(|l| ipg_obs::is_deterministic_record(l))
        .collect();
    assert!(
        !lines.is_empty(),
        "no deterministic records in {}",
        path.display()
    );
    lines.sort_unstable();
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Where `got` (from variant `v`) first departs from `base` (from `v0`):
/// the stream name, the 1-based line number and both lines. `None` when
/// the two are byte-identical.
fn divergence(stream: &str, (v0, base): (&str, &str), (v, got): (&str, &str)) -> Option<String> {
    if base == got {
        return None;
    }
    let (mut a, mut b) = (base.lines(), got.lines());
    let mut line = 1;
    loop {
        match (a.next(), b.next()) {
            (x, y) if x != y => {
                let show = |l: Option<&str>| l.unwrap_or("<end of stream>").to_string();
                return Some(format!(
                    "{stream}, variant {v} vs {v0}, first at line {line}:\n    {v0}: {}\n    {v}: {}",
                    show(x),
                    show(y)
                ));
            }
            (None, _) => return Some(format!("{stream}, variant {v} vs {v0}: trailing newline")),
            _ => line += 1,
        }
    }
}

/// One row of the matrix: every config under every variant of `axis`.
/// A failure lists every diverging stream and variant at once, so the
/// trace line (with its `cycle` and `shard`) shows up next to the stdout
/// summary it explains.
fn check(name: &str, axis: Axis, configs: &[(bool, &[&str])]) {
    let root = std::env::temp_dir().join(format!("ipg-matrix-{name}-{}", std::process::id()));
    let variants = axis.variants();
    for (i, &(traced, args)) in configs.iter().enumerate() {
        let streams: Vec<Streams> = variants
            .iter()
            .map(|v| {
                let dir = root.join(format!("c{i}")).join(v);
                std::fs::create_dir_all(&dir).expect("create temp dir");
                run(&dir, axis, v, args, traced)
            })
            .collect();
        let (v0, s0) = (variants[0], &streams[0]);
        let mut report = Vec::new();
        for (&v, s) in variants.iter().zip(&streams).skip(1) {
            report.extend(divergence("stdout", (v0, &s0.stdout), (v, &s.stdout)));
            if let (Some(t0), Some(t)) = (&s0.trace, &s.trace) {
                report.extend(divergence("trace", (v0, t0), (v, t)));
            }
            report.extend(divergence("records", (v0, &s0.records), (v, &s.records)));
        }
        assert!(
            report.is_empty(),
            "ipg {args:?} diverges on the {axis:?} axis:\n  {}",
            report.join("\n  ")
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Declare the grid: `test_name: Axis { MODE [args..], .. }` expands to
/// one `#[test]` checking every listed config under every variant.
macro_rules! matrix {
    ($($(#[doc = $doc:literal])* $name:ident: $axis:ident {
        $($mode:ident [$($arg:literal),+ $(,)?]),+ $(,)?
    })+) => {$(
        $(#[doc = $doc])*
        #[test]
        fn $name() {
            check(stringify!($name), Axis::$axis, &[$(($mode, &[$($arg),+])),+]);
        }
    )+};
}

matrix! {
    /// `dot` prints every node label in BFS-rank order, so any divergence
    /// in the parallel frontier numbering shows up here immediately.
    dot_node_ranks_are_thread_count_independent: Threads {
        PLAIN ["dot", "hsn:l=2,nucleus=Q2"],
        PLAIN ["dot", "ring-cn:l=3,nucleus=Q2"],
        PLAIN ["dot", "star:5"],
    }
    info_metrics_are_thread_count_independent: Threads {
        PLAIN ["info", "hsn:l=2,nucleus=Q3"],
        PLAIN ["info", "cn:l=3,nucleus=Q2"],
        PLAIN ["info", "hsn:l=2,nucleus=Q2,symmetric"],
        PLAIN ["info", "hypercube:8"],
    }
    route_is_thread_count_independent: Threads {
        PLAIN ["route", "hsn:l=2,nucleus=Q3", "0", "60"],
    }
    simulate_manifest_is_thread_count_independent: Threads {
        PLAIN ["simulate", "ring-cn:l=2,nucleus=Q2", "0.02"],
    }
    simulate_multi_shard_manifest_is_thread_count_independent: Threads {
        PLAIN ["simulate", "ring-cn:l=3,nucleus=Q2", "0.03"],
    }
    simulate_trace_file_is_thread_count_independent: Threads {
        TRACED ["simulate", "ring-cn:l=3,nucleus=Q2", "0.03"],
    }
    /// Scripted kills: no deterministic output may depend on the worker
    /// count even while links and nodes die mid-run.
    simulate_scripted_faults_are_thread_count_independent: Threads {
        TRACED ["simulate", "ring-cn:l=3,nucleus=Q2", "0.03",
                "--faults", "script:link@600:0-1+link@900:10-11+node@1200:5"],
        TRACED ["simulate", "ring-cn:l=3,nucleus=Q2", "0.03",
                "--faults", "script:link@600:0-1+node@1200:5"],
    }
    /// Rate-drawn kills expand at compile time from per-node/per-edge RNG
    /// streams, so the same byte-identity must hold for the random mode.
    simulate_rate_faults_are_thread_count_independent: Threads {
        TRACED ["simulate", "ring-cn:l=3,nucleus=Q2", "0.03",
                "--faults", "rate:links=0.05,nodes=0.01,at=800"],
    }
    simulate_wormhole_manifest_is_thread_count_independent: Threads {
        PLAIN ["simulate", "hsn:l=2,nucleus=Q2", "0.05",
               "--wormhole", "--vcs", "3", "--flits", "4", "--policy", "hop"],
    }
    /// 512 nodes — four engine shards — so 2- and 4-worker runs genuinely
    /// split the shard range and exercise the cross-worker frame protocol.
    dist_run_is_byte_identical_to_in_process: Workers {
        TRACED ["simulate", "ring-cn:l=3,nucleus=Q3", "0.02"],
    }
    /// Detour routing, mid-run link and node kills, and unreachable-packet
    /// drops must merge across the process boundary exactly as they do
    /// across threads.
    dist_faulted_run_is_byte_identical_to_in_process: Workers {
        TRACED ["simulate", "ring-cn:l=3,nucleus=Q3", "0.02",
                "--faults", "script:link@600:0-1+node@800:5;rate:links=0.05,at=1000"],
        TRACED ["simulate", "ring-cn:l=3,nucleus=Q3", "0.02",
                "--faults", "script:link@600:0-1+node@1200:5"],
    }
    /// 64 nodes — a single engine shard: `--workers 4` must degrade to
    /// one worker and still match the in-process run.
    dist_worker_count_is_clamped_to_the_shard_count: Workers {
        TRACED ["simulate", "hsn:l=2,nucleus=Q2", "0.02"],
    }
    /// Attaching the flight recorder must not perturb the simulation.
    tracing_is_invisible_to_stdout_and_records: Trace {
        PLAIN ["simulate", "ring-cn:l=3,nucleus=Q2", "0.03"],
    }
}

/// The `ipg` binary's three streams for `args` at `IPG_THREADS=2` must
/// equal what the engine produces in-process on the same config:
/// `in_process` returns the expected stdout result block, the trace JSONL
/// and the in-memory manifest of that run.
fn check_against_in_process(
    name: &str,
    args: &[&str],
    in_process: impl Fn() -> (String, String, String),
) {
    let dir = std::env::temp_dir().join(format!("ipg-inproc-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cli = run(&dir, Axis::Threads, "2", args, TRACED);
    let _ = std::fs::remove_dir_all(&dir);
    let (block, trace, manifest) = in_process();
    let (meta, events) = trace.split_once('\n').expect("trace has a header line");
    let mut lines: Vec<&str> = manifest
        .lines()
        .filter(|l| ipg_obs::is_deterministic_record(l))
        .collect();
    lines.sort_unstable();
    let records: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut report = Vec::new();
    if !cli.stdout.contains(&block) {
        report.push(format!(
            "stdout lacks the in-process result block:\n{block}"
        ));
    }
    report.extend(divergence(
        "trace",
        ("in-process", &format!("{events}{meta}\n")),
        ("cli", cli.trace.as_deref().expect("traced run")),
    ));
    report.extend(divergence(
        "records",
        ("in-process", &records),
        ("cli", &cli.records),
    ));
    assert!(
        report.is_empty(),
        "ipg {args:?}: the CLI's run diverges from the in-process run:\n  {}\n{}",
        report.join("\n  "),
        cli.stdout
    );
}

/// Multi-shard network with mid-run kills: worklist re-activation after
/// purges must not leak into any deterministic output.
#[test]
fn sparse_packet_kernel_matches_dense_oracle_end_to_end() {
    use ipg_core::tuple_routing::ShortestTupleRouter;
    use ipg_networks::{classic, hier};
    use ipg_sim::engine::{SimConfig, Simulator};
    use ipg_sim::fault::{FaultPlan, FaultSpec};
    use ipg_sim::router::DetourRouter;

    let faults = "script:link@600:0-1+node@1200:5";
    let args = [
        "simulate",
        "ring-cn:l=3,nucleus=Q2",
        "0.03",
        "--faults",
        faults,
    ];
    check_against_in_process("packet", &args, || {
        // What `simulate` builds for these args: the codec router under
        // the detour wrapper, the nucleus module map, the CLI's schedule.
        let tn = hier::ring_cn(3, classic::hypercube(2), "Q2");
        let g = tn.build();
        let (module, _) = tn.nucleus_partition();
        let cfg = SimConfig {
            injection_rate: 0.03,
            warmup_cycles: 500,
            measure_cycles: 2_000,
            drain_cycles: 4_000,
            ..SimConfig::default()
        };
        let spec = FaultSpec::parse(faults).unwrap();
        let plan = FaultPlan::compile(&spec, &g, cfg.seed).unwrap();
        let router = DetourRouter::new(ShortestTupleRouter::new(tn).unwrap(), g.clone()).unwrap();
        let mut sim = Simulator::with_router(router, &g, |v| module[v as usize], &cfg);
        sim.set_fault_plan(Some(plan));
        let (obs, mem) = ipg_obs::Obs::in_memory();
        let tc = ipg_obs::TraceConfig::with_interval(128);
        let (r, trace) = sim.run_traced(&cfg, &obs, 500, Some(&tc));
        obs.finish();
        assert!(r.dropped_unreachable > 0, "the node kill must bite");
        let block = format!(
            "injected:   {}\ndelivered:  {} ({:.1}%)\ndropped:    {} (unreachable)\n\
             in flight:  {} at end; {} drained unmeasured\nlatency:    avg {:.2}, max {}\n\
             throughput: {:.4} packets/node/cycle\n",
            r.injected,
            r.delivered,
            100.0 * r.delivered as f64 / r.injected.max(1) as f64,
            r.dropped_unreachable,
            r.in_flight_at_end,
            r.unmeasured_delivered,
            r.avg_latency,
            r.max_latency,
            r.throughput
        );
        (block, trace.unwrap().to_jsonl(), mem.contents())
    });
}

#[test]
fn sparse_wormhole_kernel_matches_dense_oracle_end_to_end() {
    use ipg_core::tuple_routing::ShortestTupleRouter;
    use ipg_networks::{classic, hier};
    use ipg_sim::wormhole::{VcPolicy, WormholeConfig, WormholeOutcome, WormholeSim};

    let args = [
        "simulate",
        "hsn:l=2,nucleus=Q2",
        "0.05",
        "--wormhole",
        "--vcs",
        "3",
        "--flits",
        "4",
        "--policy",
        "hop",
    ];
    check_against_in_process("wormhole", &args, || {
        let tn = hier::hsn(2, classic::hypercube(2), "Q2");
        let g = tn.build();
        let sim = WormholeSim::with_router(ShortestTupleRouter::new(tn).unwrap(), &g);
        let cfg = WormholeConfig {
            vcs: 3,
            packet_flits: 4,
            injection_rate: 0.05,
            policy: VcPolicy::HopIndexed,
            ..WormholeConfig::default()
        };
        let (obs, mem) = ipg_obs::Obs::in_memory();
        let tc = ipg_obs::TraceConfig::with_interval(128);
        let (out, trace) = sim.run_traced(&cfg, &obs, 500, Some(&tc));
        obs.finish();
        let WormholeOutcome::Completed(s) = out else {
            panic!("the in-process run deadlocked on the CLI's wormhole config");
        };
        let block = format!(
            "mode:       wormhole (3 VCs, 4-flit packets)\ninjected:   {}\n\
             delivered:  {} ({:.1}%)\nlatency:    avg {:.2}\n",
            s.injected,
            s.delivered,
            100.0 * s.delivered as f64 / s.injected.max(1) as f64,
            s.avg_latency
        );
        (block, trace.unwrap().to_jsonl(), mem.contents())
    });
}
