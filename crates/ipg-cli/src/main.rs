//! `ipg` — command-line interface to the IP-graph workspace.
//!
//! The commands — `info`, `compare`, `dot`, `route`, `simulate`,
//! `trace summary`, `trace chrome`, `layout`, `solve`, `help` and the
//! hidden `worker` — and their arguments are declared once, in
//! [`COMMANDS`]. Every command line is checked against its table before
//! any work starts, and `ipg help` is rendered from the tables. `info`
//! and `compare` run all-pairs distance passes only up to
//! [`ALL_PAIRS_MAX_NODES`] nodes.

mod args;
mod spec;

use args::{cmd, flag, Arity, Command, Kind, Parsed, Pos, Rel, U32, USIZE};
use ipg_cluster::{costs, imetrics, partition::Partition};
use ipg_core::algo;
use ipg_core::graph::Csr;
use ipg_core::superip::TupleNetwork;
use ipg_core::tuple_routing::{ShortestTupleRouter, SHORTEST_ROUTER_MAX_L};
use ipg_obs::{MetaVal, Obs, Trace, TraceConfig};
use ipg_sim::engine::{SimConfig, Simulator};
use ipg_sim::fault::{FaultPlan, FaultSpec};
use ipg_sim::router::{DetourRouter, Router};
use ipg_sim::table::RoutingTable;
use ipg_sim::wormhole::{VcPolicy, WormholeConfig, WormholeOutcome, WormholeSim};
use std::borrow::Cow;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every command `ipg` accepts, in the order `ipg help` lists them.
#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    cmd("info", &[NETWORK], "topology + clustered (§5) metrics", cmd_info),
    cmd("compare", &[Pos("network", Kind::Network, Arity::Many)], "cost table (DD / ID / II)",
        cmd_compare),
    cmd("dot", &[NETWORK], "Graphviz DOT on stdout", cmd_dot),
    cmd("route", &[NETWORK, Pos("src", Kind::Node, Arity::One), Pos("dst", Kind::Node, Arity::One)],
        "shortest route between node ids", cmd_route),
    Command {
        flags: &[
            flag("--obs <path>", Kind::Text, None, "write a JSON-lines run manifest"),
            flag("--obs-interval <cycles>", Kind::Count(0, U32), Some("0"),
                "also snapshot metrics every N cycles"),
            flag("--wormhole", Kind::Switch, None, "flit-level wormhole switching instead"),
            flag("--vcs <n>", Kind::Count(1, USIZE), Some("2"),
                "wormhole VC count; the flit buffers\n(links × VCs × 2 flits) are capped at\n\
                 2^28 slots"),
            flag("--flits <n>", Kind::Count(1, U32), Some("4"), "wormhole packet length"),
            flag("--policy single|hop", Kind::Choice(&["single", "hop"]), Some("hop"),
                "wormhole VC allocation policy"),
            flag("--faults <spec>", Kind::Faults, None,
                "deterministic fault campaign; routing\nbecomes fault-aware (detour). Spec, e.g.:\n\
                 script:link@600:0-1+node@800:5;rate:links=0.05,at=1000"),
            flag("--trace <path>", Kind::Text, None, "write a flight-recorder trace (JSON lines)"),
            flag("--trace-interval <cycles>", Kind::Count(1, U32), Some("64"),
                "trace sampling interval"),
            flag("--workers <n>", Kind::Count(1, U32), None,
                "run across n OS processes; results are\nbyte-identical to the in-process run,\n\
                 per-worker memory is bounded by its\nshard range"),
        ],
        rels: &[
            Rel::Needs("--obs-interval", "--obs"),
            Rel::Needs("--vcs", "--wormhole"),
            Rel::Needs("--flits", "--wormhole"),
            Rel::Needs("--policy", "--wormhole"),
            Rel::Needs("--trace-interval", "--trace"),
            Rel::Excludes("--workers", "--wormhole"),
        ],
        ..cmd("simulate", &[NETWORK, Pos("rate", Kind::Rate, Arity::Default("0.01"))],
            "packet simulation", cmd_simulate)
    },
    Command {
        flags: &[flag("--top <n>", Kind::Count(0, USIZE), Some("10"), "hottest links to list")],
        ..cmd("trace summary", &[TRACE], "summarize a flight-recorder trace", cmd_trace_summary)
    },
    Command {
        flags: &[flag("--name <s>", Kind::Text, Some("ipg-trace"), "process name in the export")],
        ..cmd("trace chrome", &[TRACE, Pos("out", Kind::Text, Arity::One)],
            "convert to Chrome/Perfetto trace JSON", cmd_trace_chrome)
    },
    cmd("layout", &[NETWORK], "bisection width + grid-layout wirelength", cmd_layout),
    cmd("solve", &[Pos("game", Kind::Game, Arity::One), Pos("src", Kind::Label, Arity::One),
        Pos("dst", Kind::Label, Arity::One)],
        "solve a ball-arrangement game (games:\nstar:n, pancake:n; labels like 654321)", cmd_solve),
    cmd("help", &[], "this text", |_| {
        print!("{}", args::help());
        Ok(())
    }),
    // `simulate --workers N` re-executes this binary as `ipg worker` for
    // each shard-range process; stdin carries the coordinator socket.
    Command { hidden: true, ..cmd("worker", &[], "one shard-range process", cmd_dist_worker) },
];

const NETWORK: Pos = Pos("network", Kind::Network, Arity::One);
const TRACE: Pos = Pos("trace", Kind::Text, Arity::One);

/// The most flit buffer slots a `simulate --wormhole` run may allocate:
/// 2^28 slots, 2 GiB of flits. The wormhole engine's flit arena holds
/// `links × vcs × buffer_flits` slots.
const MAX_FLIT_SLOTS: usize = 1 << 28;

/// The most nodes any all-pairs distance pass runs on: `info` skips its
/// distance lines above it and `compare` refuses the spec.
const ALL_PAIRS_MAX_NODES: usize = 100_000;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::validate(&argv).and_then(|p| (p.cmd.run)(&p)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Build the `network` argument, refusing more than `cap` nodes before
/// anything is built.
fn network(p: &Parsed, cap: usize) -> Result<spec::Network, String> {
    spec::parse(p.text("network")?, cap)?.build()
}

fn cmd_info(p: &Parsed) -> Result<(), String> {
    let net = network(p, spec::MAX_NODES)?;
    let g = &net.graph;
    println!("network:      {}", net.name);
    println!("nodes:        {}", g.node_count());
    println!(
        "links:        {}{}",
        g.arc_count() / 2,
        if g.is_symmetric() {
            ""
        } else {
            " (directed arcs/2)"
        }
    );
    println!("degree:       {}..{}", g.min_degree(), g.max_degree());
    let all_pairs = g.node_count() <= ALL_PAIRS_MAX_NODES;
    let skipped = format!("(skipped; > {}k nodes)", ALL_PAIRS_MAX_NODES / 1000);
    if all_pairs {
        let s = algo::distance_summary(g, &algo::all_nodes(g));
        println!("diameter:     {}", s.diameter());
        println!("avg distance: {:.3}", s.mean());
    } else {
        println!("diameter:     {skipped}");
    }
    if g.node_count() <= 5_000 {
        if let Some(girth) = algo::girth(g) {
            println!("girth:        {girth}");
        }
    }
    if let Some(part) = &net.partition {
        println!();
        println!(
            "packing:        {} modules of ≤ {} nodes",
            part.count,
            part.max_module_size()
        );
        println!("I-degree:       {:.2}", imetrics::i_degree(g, part));
        if all_pairs {
            let s = imetrics::i_distance_summary(g, part, &algo::all_nodes(g));
            println!("I-diameter:     {}", s.max);
            println!("avg I-distance: {:.2}", s.mean());
        } else {
            println!("I-diameter:     {skipped}");
        }
    }
    Ok(())
}

fn cmd_compare(p: &Parsed) -> Result<(), String> {
    let specs = p
        .all("network")
        .map(|t| spec::parse(t, ALL_PAIRS_MAX_NODES));
    let specs = specs.collect::<Result<Vec<_>, _>>()?;
    println!(
        "{:<24} {:>8} {:>4} {:>5} {:>8} {:>6} {:>7} {:>8} {:>8}",
        "network", "N", "deg", "diam", "DD", "I-deg", "I-diam", "ID", "II"
    );
    for spec in &specs {
        let net = spec.build()?;
        let part = net
            .partition
            .clone()
            .unwrap_or_else(|| Partition::singletons(net.graph.node_count()));
        let c = costs::summarize(&net.name, &net.graph, &part);
        println!(
            "{:<24} {:>8} {:>4} {:>5} {:>8.0} {:>6.2} {:>7} {:>8.1} {:>8.1}",
            c.name,
            c.nodes,
            c.degree,
            c.diameter,
            c.dd_cost(),
            c.i_degree,
            c.i_diameter,
            c.id_cost(),
            c.ii_cost()
        );
    }
    Ok(())
}

fn cmd_dot(p: &Parsed) -> Result<(), String> {
    let net = network(p, 2_000)?;
    print!(
        "{}",
        ipg_networks::viz::to_dot(&net.graph, &net.name, |v| v.to_string())
    );
    Ok(())
}

fn cmd_route(p: &Parsed) -> Result<(), String> {
    let net = network(p, spec::MAX_NODES)?;
    let node = |name: &str| -> Result<u32, String> {
        let v: u32 = p.get(name)?;
        if (v as usize) < net.graph.node_count() {
            Ok(v)
        } else {
            Err(format!("node {v} out of range"))
        }
    };
    let (src, dst) = (node("src")?, node("dst")?);
    let path = algo::shortest_path(&net.graph, src, dst).ok_or("destination unreachable")?;
    println!(
        "{}: {} -> {} in {} hops",
        net.name,
        src,
        dst,
        path.len() - 1
    );
    for w in path.windows(2) {
        let off = net
            .partition
            .as_ref()
            .map(|p| !p.same(w[0], w[1]))
            .unwrap_or(false);
        println!(
            "  {} -> {}{}",
            w[0],
            w[1],
            if off { "   (off-module)" } else { "" }
        );
    }
    if let Some(tn) = &net.tuple {
        let (_, t_src) = tn.decode(src);
        let (_, t_dst) = tn.decode(dst);
        println!("  tuples: {t_src:?} -> {t_dst:?}");
    }
    Ok(())
}

fn cmd_layout(p: &Parsed) -> Result<(), String> {
    let net = network(p, 4_096)?;
    let b = ipg_layout::bisection::bisection_width_kl(&net.graph, 16, 0xcafe);
    println!("network:            {}", net.name);
    println!("bisection (KL ub):  {b}");
    println!(
        "Thompson area ≥     {}",
        ipg_layout::grid::thompson_area_lower_bound(b as u64)
    );
    let naive = ipg_layout::grid::row_major_layout(net.graph.node_count());
    println!(
        "row-major layout:   area {}, total wirelength {}, max wire {}",
        naive.area(),
        naive.total_wirelength(&net.graph),
        naive.max_wirelength(&net.graph)
    );
    if let Some(tn) = &net.tuple {
        let rec = ipg_layout::grid::recursive_layout(tn);
        println!(
            "recursive layout:   area {}, total wirelength {}, max wire {}",
            rec.area(),
            rec.total_wirelength(&net.graph),
            rec.max_wirelength(&net.graph)
        );
    }
    Ok(())
}

fn cmd_solve(p: &Parsed) -> Result<(), String> {
    use ipg_core::label::Label;
    use ipg_core::solve::solve;

    let spec = args::game(p.text("game")?).ok_or("bad game")?();
    let label = |name: &str| Label::parse(p.text(name)?).ok_or(format!("bad {name} label"));
    let (src, dst) = (label("src")?, label("dst")?);
    let sol = solve(&spec, &src, &dst, 50_000_000).map_err(|e| e.to_string())?;
    println!("{} -> {} in {} moves:", src, dst, sol.len());
    let mut cur = src.symbols().to_vec();
    for &m in &sol.moves {
        cur = spec.generators[m].perm.apply(&cur);
        println!(
            "  {:<8} -> {}",
            spec.generators[m].name,
            Label::from(cur.clone())
        );
    }
    Ok(())
}

fn cmd_simulate(p: &Parsed) -> Result<(), String> {
    let wormhole = p.opt("--wormhole").is_some();
    let faults = p.opt("--faults");
    let obs_path = p.opt("--obs").map(PathBuf::from);
    let obs_interval: u32 = p.get("--obs-interval")?;
    let trace_path = p.opt("--trace").map(PathBuf::from);
    let trace_interval: u32 = p.get("--trace-interval")?;
    // Check the environment knob a `--workers` run reads before any work.
    let workers = match p.opt("--workers") {
        Some(_) => Some((p.get("--workers")?, dist_timeout()?)),
        None => None,
    };
    let netspec = p.text("network")?;
    // The multi-process path admits larger networks: workers route by
    // tuple codec without materializing the graph, so the memory bound
    // is per shard range, not per network.
    let cap = match workers {
        Some(_) => spec::DIST_MAX_NODES,
        None => spec::MAX_NODES,
    };
    let spec = spec::parse(netspec, cap)?;
    let choice = RouterChoice::new(spec.tuple()?, faults.is_some());
    let router_kind = choice.label();
    if choice.codec.is_none() && spec.nodes() > 65_536 {
        return Err(format!(
            "{} nodes exceed the 65536-node bound of the all-pairs routing table \
             (table-free codec routing needs a super-IP spec with l ≤ {SHORTEST_ROUTER_MAX_L})",
            spec.nodes()
        ));
    }
    let net = spec.build()?;
    let rate: f64 = p.get("rate")?;
    // The flit arena is sized from the built graph, before any file is
    // opened or any engine state allocated.
    let wcfg = if wormhole {
        let vcs: usize = p.get("--vcs")?;
        let wcfg = WormholeConfig {
            vcs,
            packet_flits: p.get("--flits")?,
            injection_rate: rate,
            policy: match p.text("--policy")? {
                "single" => VcPolicy::Single,
                _ => VcPolicy::HopIndexed,
            },
            ..WormholeConfig::default()
        };
        let links = net.graph.arc_count();
        let slots = links
            .checked_mul(vcs)
            .and_then(|s| s.checked_mul(wcfg.buffer_flits));
        if slots.is_none_or(|s| s > MAX_FLIT_SLOTS) {
            return Err(format!(
                "bad --vcs `{vcs}`: {links} links × {vcs} VCs × {} flits passes the \
                 cap of {MAX_FLIT_SLOTS} flit buffer slots",
                wcfg.buffer_flits
            ));
        }
        Some(wcfg)
    } else {
        None
    };
    let cfg = SimConfig {
        injection_rate: rate,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    };
    let module: Vec<u32> = match &net.partition {
        Some(part) => part.class.clone(),
        None => vec![0; net.graph.node_count()],
    };
    // A fault campaign compiles against the topology and the run seed
    // (the seed only matters for `rate:` sections) and upgrades the
    // router to the fault-aware detour wrapper.
    let fault_plan = match faults {
        Some(s) => {
            let spec = FaultSpec::parse(s).map_err(|e| format!("bad --faults: {e}"))?;
            let plan = FaultPlan::compile(&spec, &net.graph, cfg.seed)
                .map_err(|e| format!("bad --faults: {e}"))?;
            Some(plan)
        }
        None => None,
    };
    let obs = match &obs_path {
        Some(path) => {
            Obs::to_file(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?
        }
        None => Obs::disabled(),
    };
    let trace_cfg = trace_path
        .as_ref()
        .map(|_| TraceConfig::with_interval(trace_interval));
    obs.emit_meta(
        "ipg-simulate",
        &[
            ("network", MetaVal::from(net.name.as_str())),
            ("nodes", MetaVal::from(net.graph.node_count())),
            (
                "mode",
                MetaVal::from(if wormhole { "wormhole" } else { "packet" }),
            ),
            ("router", MetaVal::from(router_kind)),
            ("faults", MetaVal::from(faults.unwrap_or("none"))),
            ("injection_rate", MetaVal::from(rate)),
            ("warmup_cycles", MetaVal::from(cfg.warmup_cycles as u64)),
            ("measure_cycles", MetaVal::from(cfg.measure_cycles as u64)),
            ("drain_cycles", MetaVal::from(cfg.drain_cycles as u64)),
            ("seed", MetaVal::from(cfg.seed)),
            (
                "ipg_threads",
                MetaVal::from(rayon::current_num_threads() as u64),
            ),
        ],
    );
    let router = choice.build(Some(Cow::Borrowed(&net.graph)), &obs)?;
    println!("network:    {}", net.name);
    println!("router:     {router_kind}");
    println!("rate:       {rate}");
    if let Some(wcfg) = wcfg {
        let mut sim = WormholeSim::with_router(router, &net.graph);
        sim.set_fault_plan(fault_plan);
        let (out, trace) = sim.run_traced(&wcfg, &obs, obs_interval, trace_cfg.as_ref());
        obs.finish();
        println!(
            "mode:       wormhole ({} VCs, {}-flit packets)",
            wcfg.vcs, wcfg.packet_flits
        );
        match out {
            WormholeOutcome::Completed(s) => {
                println!("injected:   {}", s.injected);
                println!(
                    "delivered:  {} ({:.1}%)",
                    s.delivered,
                    100.0 * s.delivered as f64 / s.injected.max(1) as f64
                );
                if faults.is_some() {
                    println!("dropped:    {} (unreachable)", s.dropped);
                }
                println!("latency:    avg {:.2}", s.avg_latency);
            }
            WormholeOutcome::Deadlocked {
                at_cycle,
                stuck_packets,
            } => {
                println!("deadlocked: cycle {at_cycle}, {stuck_packets} packets stuck");
            }
        }
        write_trace(trace, trace_path.as_deref())?;
    } else {
        // Both engines print through the same block below: a distributed
        // run's stdout, manifest, and trace are byte-compatible with the
        // in-process engine's (the manifest gains `dist` records — the
        // per-worker RSS/frame gauges — which sit outside the
        // deterministic record family).
        let (r, trace) = match workers {
            Some((w, read_timeout)) => {
                drop(router); // coordinator never routes; workers rebuild their own
                let exe = std::env::current_exe()
                    .map_err(|e| format!("cannot locate the worker binary: {e}"))?;
                let exe = exe
                    .to_str()
                    .ok_or("worker binary path is not valid UTF-8")?
                    .to_string();
                let dc = ipg_sim::dist::DistConfig {
                    workers: w,
                    worker_argv: vec![exe, "worker".into()],
                    netspec: netspec.to_string(),
                    window: obs_interval,
                    trace: trace_cfg.clone(),
                    read_timeout,
                };
                let run = ipg_sim::dist::run_dist(
                    &net.graph,
                    |v| module[v as usize],
                    &cfg,
                    fault_plan.as_ref(),
                    &obs,
                    &dc,
                )
                .map_err(|e| e.to_string())?;
                (run.result, run.trace)
            }
            None => {
                let mut sim =
                    Simulator::with_router(router, &net.graph, |v| module[v as usize], &cfg);
                sim.set_fault_plan(fault_plan);
                sim.run_traced(&cfg, &obs, obs_interval, trace_cfg.as_ref())
            }
        };
        obs.finish();
        println!("injected:   {}", r.injected);
        println!(
            "delivered:  {} ({:.1}%)",
            r.delivered,
            100.0 * r.delivered as f64 / r.injected.max(1) as f64
        );
        if faults.is_some() {
            println!("dropped:    {} (unreachable)", r.dropped_unreachable);
        }
        println!(
            "in flight:  {} at end; {} drained unmeasured",
            r.in_flight_at_end, r.unmeasured_delivered
        );
        println!(
            "latency:    avg {:.2}, max {}",
            r.avg_latency, r.max_latency
        );
        println!("throughput: {:.4} packets/node/cycle", r.throughput);
        write_trace(trace, trace_path.as_deref())?;
    }
    if let Some(path) = obs_path {
        println!("manifest:   {}", path.display());
    }
    Ok(())
}

/// How long a `--workers` coordinator waits on a worker frame:
/// `IPG_DIST_TIMEOUT` seconds (a positive whole number) when set, else
/// 120 s.
fn dist_timeout() -> Result<std::time::Duration, String> {
    let secs = match std::env::var("IPG_DIST_TIMEOUT") {
        Ok(s) => s.parse().ok().filter(|&t: &u64| t > 0).ok_or_else(|| {
            format!("IPG_DIST_TIMEOUT must be a positive whole number of seconds, got `{s}`")
        })?,
        Err(std::env::VarError::NotPresent) => 120,
        Err(e) => return Err(format!("IPG_DIST_TIMEOUT: {e}")),
    };
    Ok(std::time::Duration::from_secs(secs))
}

/// The hidden `ipg worker` mode: adopt the coordinator socket from
/// stdin and run the worker half of the distributed cycle protocol.
fn cmd_dist_worker(_: &Parsed) -> Result<(), String> {
    ipg_sim::dist::worker_main(build_worker_router, vm_hwm_kb).map_err(|e| e.to_string())
}

/// The routing backend of a `simulate` run, decided once for the
/// in-process engine and for every `--workers` process so that per-hop
/// decisions are byte-identical. Super-IP specs with `l ≤
/// SHORTEST_ROUTER_MAX_L` route arithmetically on their codec digits (no
/// per-pair state); everything else falls back to the all-pairs BFS
/// table, whose O(N²) memory caps it at 65,536 nodes. A fault campaign
/// wraps either in the fault-aware detour router.
struct RouterChoice {
    /// The tuple form, when the codec router is chosen.
    codec: Option<TupleNetwork>,
    faulted: bool,
}

impl RouterChoice {
    fn new(tuple: Option<TupleNetwork>, faulted: bool) -> RouterChoice {
        RouterChoice {
            codec: tuple.filter(|tn| tn.l <= SHORTEST_ROUTER_MAX_L),
            faulted,
        }
    }

    /// The `router:` label of stdout and the manifest.
    fn label(&self) -> &'static str {
        match (self.codec.is_some(), self.faulted) {
            (true, false) => "codec (table-free)",
            (true, true) => "detour-codec (fault-aware)",
            (false, false) => "all-pairs table",
            (false, true) => "detour-table (fault-aware)",
        }
    }

    /// Whether [`RouterChoice::build`] needs the graph: the table and the
    /// detour wrapper do, the fault-free codec router does not.
    fn needs_graph(&self) -> bool {
        self.codec.is_none() || self.faulted
    }

    /// Build the router; `graph` must be given when
    /// [`RouterChoice::needs_graph`] says so.
    fn build(self, graph: Option<Cow<'_, Csr>>, obs: &Obs) -> Result<Box<dyn Router>, String> {
        const NO_GRAPH: &str = "this router needs the graph";
        let base: Box<dyn Router> = match self.codec {
            Some(tn) => Box::new(ShortestTupleRouter::new(tn).map_err(|e| e.to_string())?),
            None => Box::new(RoutingTable::new_instrumented(
                graph.as_deref().ok_or(NO_GRAPH)?,
                obs,
            )),
        };
        if !self.faulted {
            return Ok(base);
        }
        let g = graph.ok_or(NO_GRAPH)?.into_owned();
        Ok(Box::new(
            DetourRouter::new(base, g).map_err(|e| e.to_string())?,
        ))
    }
}

/// Rebuild this worker's router from the shipped netspec. Codec-routed
/// fault-free networks never materialize the graph: per-worker memory
/// stays bounded by the shard range, which is what lets `--workers`
/// clear the in-process node cap.
fn build_worker_router(ws: &ipg_sim::dist::WorkerSetup) -> Result<Box<dyn Router>, String> {
    let spec = spec::parse(&ws.netspec, spec::DIST_MAX_NODES)?;
    let choice = RouterChoice::new(spec.tuple()?, ws.faulted);
    let graph = choice.needs_graph().then(|| spec.build()).transpose()?;
    choice.build(graph.map(|net| Cow::Owned(net.graph)), &Obs::disabled())
}

/// Peak resident set size of this process in KiB, from the kernel's
/// `VmHWM` high-water mark. Returns 0 where procfs is unavailable.
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

/// Write a collected flight-recorder trace as JSON lines and report it.
/// Event and drop counts are computation-derived, so the printed line is
/// byte-identical across `IPG_THREADS` settings.
fn write_trace(trace: Option<Trace>, path: Option<&std::path::Path>) -> Result<(), String> {
    let (Some(trace), Some(p)) = (trace, path) else {
        return Ok(());
    };
    std::fs::write(p, trace.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
    println!(
        "trace:      {} ({} events, {} dropped)",
        p.display(),
        trace.events.len(),
        trace.dropped
    );
    Ok(())
}

/// Load a flight-recorder trace written by `simulate --trace`.
fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Trace::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_trace_summary(p: &Parsed) -> Result<(), String> {
    let trace = load_trace(p.text("trace")?)?;
    print!("{}", trace.summarize(p.get("--top")?).render());
    Ok(())
}

/// `ipg trace chrome <trace> <out>`: convert a trace to Chrome/Perfetto
/// trace-event JSON.
fn cmd_trace_chrome(p: &Parsed) -> Result<(), String> {
    let out = p.text("out")?;
    let json = load_trace(p.text("trace")?)?.to_chrome_json(p.text("--name")?);
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("chrome trace: {out} (load in ui.perfetto.dev or chrome://tracing)");
    Ok(())
}
