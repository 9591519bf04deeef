//! Simulation-engine benchmark: the two measurements `ipg_perf` does not
//! make, distilled into `results/BENCH_sim.json`.
//!
//! 1. *table vs codec* — symmetric ring-CN(2,Q6), 8192 nodes, the largest
//!    spec both routing backends can load. The table backend pays the
//!    all-pairs BFS precompute; the codec backend routes arithmetically
//!    on tuple digits. Both run the same cycle schedule in `PAIRS`
//!    alternating table/codec pairs, and each backend reports the median
//!    and quartiles of its router build and run times. The end-to-end
//!    ratio is the user-visible `ipg simulate` speedup; the steady-state
//!    ratio isolates the per-cycle cost.
//! 2. *memory split* — complete-CN(2,Q11) at 2^22 nodes, past the
//!    in-process CLI cap, run through `dist::run_dist` with `WORKERS`
//!    workers in one process and on the in-process engine in another.
//!    The first process's `VmHWM` is the coordinator peak, the second's
//!    the single-process peak; the workers report their own.
//!
//! Every reading comes from a fresh child process (this binary
//! re-executed as `__arm <name>`, printing one JSON line), so no
//! high-water mark or warm cache carries over from an earlier arm. The
//! parent exits non-zero, before writing anything, when the children's
//! delivered counts disagree: table vs codec, and dist vs in-process.
//! The codec engine's throughput, the flight recorder's overhead and the
//! worker fleet's speed are `ipg_perf` workloads and metrics
//! (`uniform-8k`, `lowrate-1m`, `trace.overhead_pct`, `dist-1m`).
//!
//! All timing goes through `Obs` spans (`Span::elapsed_secs`) — the
//! DET003 lint keeps raw `Instant` reads out of this crate.

use ipg_bench::bench_sim::{
    render_block, BackendTiming, MemorySplit, SimBench, Spread, TableVsCodec,
};
use ipg_bench::report::{self, Report};
use ipg_core::graph::Csr;
use ipg_core::superip::TupleNetwork;
use ipg_core::tuple_routing::ShortestTupleRouter;
use ipg_networks::{classic, hier};
use ipg_obs::{NullRecorder, Obs};
use ipg_sim::dist::{run_dist, worker_main, DistConfig, WorkerSetup};
use ipg_sim::engine::{SimConfig, Simulator};
use ipg_sim::table::RoutingTable;
use ipg_sim::Router;
use serde::{Deserialize, Serialize};
use std::process::{exit, Command, Stdio};

/// Alternating table/codec child pairs in the table-vs-codec arm.
const PAIRS: usize = 5;
/// Worker processes of the memory split's distributed run.
const WORKERS: u32 = 4;
/// The worker-mode netspec tag of the memory split's network.
const BIG_NETSPEC: &str = "bench:cn2q11";

/// What one `__arm` child prints, as a single JSON line on stdout.
#[derive(Serialize, Deserialize)]
struct ArmOut {
    /// Router construction (0 where the process builds none).
    build_secs: f64,
    run_secs: f64,
    delivered: u64,
    /// This process's `VmHWM` in KiB.
    rss_kb: u64,
    /// Each dist worker's `VmHWM` in KiB (empty for in-process runs).
    worker_rss_kb: Vec<u64>,
}

/// The table-vs-codec network and schedule, or with `big` the memory
/// split's.
fn setup(big: bool) -> (TupleNetwork, SimConfig) {
    let (tn, rate, warmup, measure, drain) = if big {
        let tn = hier::complete_cn(2, classic::hypercube(11), "Q11");
        (tn, 0.002, 20, 60, 60)
    } else {
        let tn = hier::symmetric(&hier::ring_cn(2, classic::hypercube(6), "Q6"));
        (tn, 0.02, 200, 800, 500)
    };
    let c = SimConfig {
        injection_rate: rate,
        warmup_cycles: warmup,
        measure_cycles: measure,
        drain_cycles: drain,
        seed: 7,
        ..SimConfig::default()
    };
    (tn, c)
}

fn total_cycles(c: &SimConfig) -> u32 {
    c.warmup_cycles + c.measure_cycles + c.drain_cycles
}

/// Build the router for the memory split's network inside a dist worker.
/// A tag instead of a CLI spec: ipg-bench sits below ipg-cli and cannot
/// use its parser.
fn bench_router(ws: &WorkerSetup) -> Result<Box<dyn Router>, String> {
    if ws.netspec != BIG_NETSPEC {
        return Err(format!("unknown bench netspec `{}`", ws.netspec));
    }
    Ok(Box::new(
        ShortestTupleRouter::new(setup(true).0).map_err(|e| e.to_string())?,
    ))
}

/// Peak resident set size of this process in KiB (`VmHWM`). 0 where
/// procfs is unavailable.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn exe() -> String {
    std::env::current_exe()
        .expect("current_exe must resolve to re-exec this binary")
        .display()
        .to_string()
}

/// Run `f` inside a span of `obs`; return its result and elapsed seconds.
fn timed<T>(obs: &Obs, label: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = obs.span(label);
    let out = f();
    (out, span.elapsed_secs().unwrap_or(0.0).max(1e-9))
}

/// One in-process run of `setup(big)`: build the router with `build`,
/// then run the schedule.
fn run_inproc<R: Router>(big: bool, build: impl FnOnce(TupleNetwork, &Csr) -> R) -> ArmOut {
    let obs = Obs::with_recorder(Box::new(NullRecorder));
    let (tn, c) = setup(big);
    let g = tn.build();
    let (class, _) = tn.nucleus_partition();
    let (router, build_secs) = timed(&obs, "build", || build(tn, &g));
    let mut sim = Simulator::with_router(router, &g, |v| class[v as usize], &c);
    let (r, run_secs) = timed(&obs, "run", || sim.run(&c));
    ArmOut {
        build_secs,
        run_secs,
        delivered: r.delivered,
        rss_kb: vm_hwm_kb(),
        worker_rss_kb: Vec::new(),
    }
}

fn codec_router(tn: TupleNetwork, _: &Csr) -> ShortestTupleRouter {
    ShortestTupleRouter::new(tn).expect("l=2 is within the codec router bound")
}

/// The child side of `__arm <name>`.
fn arm(name: &str) -> Result<ArmOut, String> {
    match name {
        "table" => Ok(run_inproc(false, |_, g| RoutingTable::new(g))),
        "codec" => Ok(run_inproc(false, codec_router)),
        "inproc" => Ok(run_inproc(true, codec_router)),
        "dist" => {
            let obs = Obs::with_recorder(Box::new(NullRecorder));
            let (tn, c) = setup(true);
            let g = tn.build();
            let (class, _) = tn.nucleus_partition();
            let dc = DistConfig {
                workers: WORKERS,
                worker_argv: vec![exe(), "__dist-worker".to_string()],
                netspec: BIG_NETSPEC.to_string(),
                window: 0,
                trace: None,
                read_timeout: std::time::Duration::from_secs(600),
            };
            let (run, run_secs) = timed(&obs, "run", || {
                run_dist(&g, |v| class[v as usize], &c, None, &Obs::disabled(), &dc)
            });
            let run = run.map_err(|e| e.to_string())?;
            Ok(ArmOut {
                build_secs: 0.0,
                run_secs,
                delivered: run.result.delivered,
                rss_kb: vm_hwm_kb(),
                worker_rss_kb: run.workers.iter().map(|w| w.rss_kb).collect(),
            })
        }
        other => Err(format!("unknown arm `{other}`")),
    }
}

/// Run arm `name` in a fresh child process, under a manifest span.
fn spawn_arm(rep: &Report, name: &str, sample: usize) -> ArmOut {
    let _span = rep.obs().span(&format!("{name}/{sample}"));
    eprintln!("arm {name} #{sample}");
    let out = Command::new(exe())
        .args(["__arm", name])
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| panic!("spawn arm {name}: {e}"));
    if !out.status.success() {
        eprintln!("sim_bench: arm {name} #{sample} failed ({})", out.status);
        exit(1);
    }
    let line = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(line.trim())
        .unwrap_or_else(|e| panic!("arm {name} #{sample} printed `{line}`: {e}"))
}

fn backend_timing(samples: &[ArmOut], cycles: f64) -> BackendTiming {
    let build_secs = Spread::of(&samples.iter().map(|a| a.build_secs).collect::<Vec<_>>());
    let run_secs = Spread::of(&samples.iter().map(|a| a.run_secs).collect::<Vec<_>>());
    BackendTiming {
        build_secs,
        run_secs,
        cycles_per_sec: cycles / run_secs.median,
        end_to_end_cycles_per_sec: cycles / (build_secs.median + run_secs.median),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        // The dist coordinator re-execs this binary as a worker, so the
        // bench is self-contained — no ipg install.
        Some("__dist-worker") => {
            if let Err(e) = worker_main(bench_router, vm_hwm_kb) {
                eprintln!("sim_bench dist worker: {e}");
                exit(1);
            }
            return;
        }
        Some("__arm") => {
            let name = args.next().unwrap_or_default();
            match arm(&name) {
                Ok(out) => println!("{}", serde_json::to_string(&out).expect("serialize")),
                Err(e) => {
                    eprintln!("sim_bench arm {name}: {e}");
                    exit(1);
                }
            }
            return;
        }
        _ => {}
    }

    let ((small, small_c), (big, big_c)) = (setup(false), setup(true));
    let rep = report::start(
        "sim_bench",
        &[
            ("table_vs_codec_network", small.name.as_str().into()),
            (
                "table_vs_codec_injection_rate",
                small_c.injection_rate.into(),
            ),
            ("memory_split_network", big.name.as_str().into()),
            ("memory_split_injection_rate", big_c.injection_rate.into()),
            ("pairs", PAIRS.into()),
            ("seed", small_c.seed.into()),
        ],
    );

    // Alternate which backend goes first, so slow host drift lands on
    // both evenly.
    let (mut table, mut codec) = (Vec::new(), Vec::new());
    for i in 0..PAIRS {
        if i % 2 == 0 {
            table.push(spawn_arm(&rep, "table", i));
            codec.push(spawn_arm(&rep, "codec", i));
        } else {
            codec.push(spawn_arm(&rep, "codec", i));
            table.push(spawn_arm(&rep, "table", i));
        }
    }
    // Same injection streams, both routers exact-shortest: the delivered
    // counts agree even though tie-breaks differ.
    let delivered = table[0].delivered;
    let small_cycles = f64::from(total_cycles(&small_c));
    let (t, c) = (
        backend_timing(&table, small_cycles),
        backend_timing(&codec, small_cycles),
    );
    let table_vs_codec = TableVsCodec {
        network: small.name.clone(),
        nodes: small.node_count(),
        cycles: total_cycles(&small_c),
        injection_rate: small_c.injection_rate,
        samples: PAIRS,
        delivered,
        delivered_match: table.iter().chain(&codec).all(|a| a.delivered == delivered),
        speedup_end_to_end: (t.build_secs.median + t.run_secs.median)
            / (c.build_secs.median + c.run_secs.median),
        speedup_steady_state: t.run_secs.median / c.run_secs.median,
        table: t,
        codec: c,
    };

    let dist = spawn_arm(&rep, "dist", 0);
    let inproc = spawn_arm(&rep, "inproc", 0);
    let memory_split = MemorySplit {
        network: big.name.clone(),
        nodes: big.node_count(),
        cycles: total_cycles(&big_c),
        injection_rate: big_c.injection_rate,
        workers: dist.worker_rss_kb.len() as u32,
        delivered: dist.delivered,
        delivered_match: dist.delivered == inproc.delivered,
        dist_run_secs: dist.run_secs,
        inproc_run_secs: inproc.run_secs,
        coordinator_rss_kb: dist.rss_kb,
        single_process_rss_kb: inproc.rss_kb,
        worker_rss_kb: dist.worker_rss_kb,
    };

    let out = SimBench {
        bench: "sim_bench".to_string(),
        ipg_threads: rayon::current_num_threads(),
        table_vs_codec,
        memory_split,
    };
    if !out.table_vs_codec.delivered_match || !out.memory_split.delivered_match {
        eprintln!(
            "sim_bench: delivered counts disagree across children (table: {:?}, codec: {:?}, \
             dist: {}, in-process: {}); results not written",
            table.iter().map(|a| a.delivered).collect::<Vec<_>>(),
            codec.iter().map(|a| a.delivered).collect::<Vec<_>>(),
            out.memory_split.delivered,
            inproc.delivered
        );
        exit(1);
    }
    for name in ["table_vs_codec", "memory_split"] {
        println!("== {name} ==");
        print!("{}", render_block(name, &out).expect("known block"));
    }
    rep.json("BENCH_sim", &out);
    rep.finish();
}
