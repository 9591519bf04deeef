//! The five workloads and the child-process side of a sample: build the
//! network, time each layer's public entry point from outside, run the
//! simulation, check its output, and (for the traced child) measure the
//! per-layer breakdown.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ipg_core::algo::{bfs, UNREACHABLE};
use ipg_core::fault::{bfs_faulted, FaultView};
use ipg_core::graph::Csr;
use ipg_core::superip::TupleNetwork;
use ipg_core::tuple_routing::ShortestTupleRouter;
use ipg_networks::{classic, hier};
use ipg_obs::{Obs, TraceConfig};
use ipg_sim::dist::{run_dist, DistConfig, DistRun, DistWorkerStats, WorkerSetup};
use ipg_sim::engine::{SimConfig, SimResult, Simulator};
use ipg_sim::rng::{node_stream, InjectionSchedule, NodeRng, SCHEDULE_CHUNK};
use ipg_sim::wormhole::{VcPolicy, WormTraffic, WormholeConfig, WormholeOutcome, WormholeSim};
use ipg_sim::{DetourRouter, FaultPlan, FaultSpec, Router};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::probe::{
    cpu_secs, cpu_time, rss_mb, step_ns, vm_hwm_kb, window_durations, CountingRouter, Hop,
    RouteLog, WindowClock, NOMINAL_STEP_NS,
};
use crate::stats::{median, tail_with_ten_beyond};

/// One benchmark workload. Why each exists is in the README.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Uniform8k,
    Lowrate1m,
    Faults8k,
    Wormhole8k,
    Dist1m,
}

/// Every workload, in round-robin order.
pub const ALL: [Workload; 5] = [
    Workload::Uniform8k,
    Workload::Lowrate1m,
    Workload::Faults8k,
    Workload::Wormhole8k,
    Workload::Dist1m,
];

/// Worker processes of the distributed workload.
pub const DIST_WORKERS: u32 = 2;

/// Netspec tag the distributed coordinator ships to its workers.
pub const DIST_NETSPEC: &str = "ipg_perf:complete-cn5-q4";

/// Fault campaign of `faults-8k`: every link dies with probability 0.10
/// before the first cycle, so the fault set is static for the whole run.
const FAULTS: &str = "rate:links=0.10,at=0";

/// Logged routing queries in a plain sample (feeds the hop check).
const CHECK_LOG: usize = 1 << 16;
/// Logged routing queries in the traced child (feeds the replay).
const REPLAY_LOG: usize = 1 << 20;
/// Destinations the hop check runs a BFS from, and hops it checks.
const CHECK_DESTS: usize = 8;
const CHECK_HOPS: usize = 256;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform8k => "uniform-8k",
            Workload::Lowrate1m => "lowrate-1m",
            Workload::Faults8k => "faults-8k",
            Workload::Wormhole8k => "wormhole-8k",
            Workload::Dist1m => "dist-1m",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// sym-ring-CN(2,Q6) (8192 nodes) or complete-CN(5,Q4) (2^20 nodes).
    pub fn network(self) -> TupleNetwork {
        match self {
            Workload::Lowrate1m | Workload::Dist1m => {
                hier::complete_cn(5, classic::hypercube(4), "Q4")
            }
            _ => hier::symmetric(&hier::ring_cn(2, classic::hypercube(6), "Q6")),
        }
    }

    fn rate(self) -> f64 {
        match self {
            Workload::Uniform8k | Workload::Faults8k => 0.02,
            Workload::Lowrate1m | Workload::Dist1m => 0.002,
            Workload::Wormhole8k => 0.01,
        }
    }

    /// `(warmup, measure, drain)` cycles, sized so one sample runs the
    /// schedule in about one to two seconds on a 2-core x86-64 host
    /// (README sizing table): short enough for several samples in every
    /// benchmark run. `cycles` overrides the total for smoke runs.
    fn schedule(self, cycles: Option<u32>) -> (u32, u32, u32) {
        if let Some(total) = cycles {
            let edge = total / 8;
            return (edge, total - 2 * edge, edge);
        }
        match self {
            Workload::Uniform8k => (200, 1600, 200),
            Workload::Lowrate1m | Workload::Dist1m => (20, 60, 20),
            Workload::Faults8k => (10, 20, 10),
            Workload::Wormhole8k => (0, 300, 0),
        }
    }

    pub fn sim_config(self, seed: u64, cycles: Option<u32>) -> SimConfig {
        let (warmup, measure, drain) = self.schedule(cycles);
        SimConfig {
            injection_rate: self.rate(),
            warmup_cycles: warmup,
            measure_cycles: measure,
            drain_cycles: drain,
            seed,
            ..SimConfig::default()
        }
    }

    fn wormhole_config(self, seed: u64, cycles: Option<u32>) -> WormholeConfig {
        let (warmup, measure, drain) = self.schedule(cycles);
        WormholeConfig {
            vcs: 2,
            packet_flits: 4,
            injection_rate: self.rate(),
            cycles: warmup + measure + drain,
            seed,
            policy: VcPolicy::HopIndexed,
            traffic: WormTraffic::Uniform,
            ..WormholeConfig::default()
        }
    }
}

/// What a child process reports to the parent: one JSON line.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Sample {
    pub traced: bool,
    /// Debug rendering of the simulation result: equal across samples of
    /// one workload and seed, or the simulation is nondeterministic.
    pub result: String,
    /// Failed correctness checks (empty when the sample is correct).
    pub failures: Vec<String>,
    pub nodes: u64,
    pub cycles: u64,
    /// Next-hop queries of the run; 0 where the router ran in other
    /// processes (the distributed workers).
    pub route_calls: u64,
    pub hops_checked: u64,
    /// Set-up and run time, in CPU seconds at the nominal core speed
    /// (see [`run_sample`]).
    pub setup_s: f64,
    pub run_s: f64,
    pub peak_rss_kb: u64,
    /// Per-layer readings that are not times (counts, sizes, ratios), by
    /// metric name.
    pub layers: BTreeMap<String, f64>,
    /// Per-layer times, by metric name, rescaled like `setup_s`.
    pub durations: BTreeMap<String, f64>,
}

impl Sample {
    fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    fn duration(&mut self, name: &str, value: f64) {
        self.durations.insert(name.to_string(), value);
    }

    /// Every per-layer reading and time.
    pub fn readings(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.layers.iter().chain(&self.durations)
    }

    /// A per-layer reading or time; 0 if the sample has none.
    pub fn get(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .or_else(|| self.durations.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Multiply every time in the sample by `k`.
    fn rescale(&mut self, k: f64) {
        self.setup_s *= k;
        self.run_s *= k;
        for v in self.durations.values_mut() {
            *v *= k;
        }
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn expect_result(&mut self, what: &str, result: &str) {
        if result != self.result {
            self.fail(format!(
                "{what} result {result} differs from plain {}",
                self.result
            ));
        }
    }
}

/// The network under test.
struct Net {
    tn: TupleNetwork,
    g: Csr,
    class: Vec<u32>,
}

impl Net {
    /// Build graph and module partition, timed as the ipg-core layer.
    fn build(w: Workload, s: &mut Sample) -> Net {
        let rss0 = rss_mb();
        let (net, t) = cpu_time(|| {
            let tn = w.network();
            let g = tn.build();
            let (class, _) = tn.nucleus_partition();
            Net { tn, g, class }
        });
        s.duration("core.build_s", t);
        s.layer("core.graph_mb", rss_mb() - rss0);
        s.nodes = net.g.node_count() as u64;
        net
    }

    fn codec_router(&self) -> ShortestTupleRouter {
        ShortestTupleRouter::new(self.tn.clone()).expect("l <= 5 is within the codec router bound")
    }
}

/// Which flavour of run: plain, with an enabled `Obs` emitting a window
/// record every cycle, or with the flight recorder on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Obs,
    Trace,
}

/// One assembled-and-run simulation.
struct RunOut {
    result: String,
    failures: Vec<String>,
    cycles: u64,
    route: Arc<RouteLog>,
    assemble_s: f64,
    assemble_mb: f64,
    run_s: f64,
    /// Per-window host seconds (Obs mode).
    windows: Vec<f64>,
    /// Modelled link-utilisation and buffer high-water gauges (Obs mode).
    gauges: (f64, f64),
    /// Trace events and drops (Trace mode).
    trace: (f64, f64),
}

/// `injected == delivered + in_flight_at_end + dropped_unreachable`.
fn conservation(r: &SimResult) -> Option<String> {
    let accounted = r.delivered + r.in_flight_at_end + r.dropped_unreachable;
    (r.injected != accounted).then(|| format!("packet conservation broken: {r:?}"))
}

fn wormhole_checks(o: &WormholeOutcome) -> Vec<String> {
    match o {
        WormholeOutcome::Deadlocked { at_cycle, .. } => {
            vec![format!("wormhole deadlocked at cycle {at_cycle}")]
        }
        WormholeOutcome::Completed(st) if st.delivered + st.dropped > st.injected => {
            vec![format!("wormhole delivered more than it injected: {st:?}")]
        }
        WormholeOutcome::Completed(_) => Vec::new(),
    }
}

/// What every run of one sample shares.
struct Ctx<'a> {
    w: Workload,
    net: &'a Net,
    seed: u64,
    /// Schedule override for smoke runs.
    cycles: Option<u32>,
}

/// Assemble the workload's in-process engine around `router` and run it.
fn simulate<R: Router>(
    cx: &Ctx,
    router: R,
    plan: Option<&FaultPlan>,
    mode: Mode,
    log_capacity: usize,
) -> RunOut {
    let (w, net) = (cx.w, cx.net);
    let route = RouteLog::new(log_capacity);
    let router = CountingRouter::new(router, Arc::clone(&route));
    let trace_cfg = TraceConfig::default();
    let trace = (mode == Mode::Trace).then_some(&trace_cfg);
    let window = u32::from(mode == Mode::Obs);
    let rss0 = rss_mb();
    let (assemble_s, assemble_mb, run_s, obs, marks, result, ran, failures, tr, gauges);
    if w == Workload::Wormhole8k {
        let cfg = w.wormhole_config(cx.seed, cx.cycles);
        let (mut sim, t) = cpu_time(|| WormholeSim::with_router(router, &net.g));
        sim.set_fault_plan(plan.cloned());
        (assemble_s, assemble_mb) = (t, rss_mb() - rss0);
        (obs, marks) = obs_for(mode);
        let (o, t) = cpu_time(|| sim.run_traced(&cfg, &obs, window, trace));
        run_s = t;
        (ran, failures, result, tr) =
            (cfg.cycles, wormhole_checks(&o.0), format!("{:?}", o.0), o.1);
        gauges = [
            "wormhole.link_utilization_max_pct",
            "wormhole.vc_buffer_max",
        ];
    } else {
        let cfg = w.sim_config(cx.seed, cx.cycles);
        let (mut sim, t) =
            cpu_time(|| Simulator::with_router(router, &net.g, |v| net.class[v as usize], &cfg));
        sim.set_fault_plan(plan.cloned());
        (assemble_s, assemble_mb) = (t, rss_mb() - rss0);
        (obs, marks) = obs_for(mode);
        let ((r, t_out), t) = cpu_time(|| sim.run_traced(&cfg, &obs, window, trace));
        run_s = t;
        (ran, result, tr) = (r.cycles, format!("{r:?}"), t_out);
        failures = conservation(&r).into_iter().collect();
        gauges = ["engine.link_utilization_max_pct", "engine.queue_depth_max"];
    }
    RunOut {
        result,
        failures,
        cycles: u64::from(ran),
        route,
        assemble_s,
        assemble_mb,
        run_s,
        windows: marks.map_or_else(Vec::new, |m| {
            window_durations(&m.lock().expect("window marks lock"))
        }),
        gauges: (
            obs.gauge(gauges[0]).get() as f64,
            obs.gauge(gauges[1]).get() as f64,
        ),
        trace: tr.map_or((0.0, 0.0), |t| (t.events.len() as f64, t.dropped as f64)),
    }
}

/// The `Obs` handle for a run in `mode`. For `Mode::Obs` it records into
/// a window clock that starts now, so start it just before the run.
fn obs_for(mode: Mode) -> (Obs, Option<Arc<Mutex<Vec<f64>>>>) {
    if mode == Mode::Obs {
        let (rec, marks) = WindowClock::start();
        (Obs::with_recorder(Box::new(rec)), Some(marks))
    } else {
        (Obs::disabled(), None)
    }
}

/// The fault view every logged hop saw. The workload kills everything at
/// cycle 0, so the final view is the view of the whole run.
fn static_view(plan: &FaultPlan, failures: &mut Vec<String>) -> FaultView {
    if plan.events().iter().any(|e| e.cycle != 0) {
        failures.push("hop check needs a fault set fixed before cycle 0".into());
    }
    let mut view = FaultView::new(plan.node_count() as usize);
    plan.apply_due(&mut 0, u32::MAX, &mut view);
    view
}

/// Check that logged hops step exactly one BFS level closer to their
/// destination (on the faulted graph under `view`). BFS runs from the
/// `CHECK_DESTS` destinations with the most logged queries; at most
/// `CHECK_HOPS` hops are checked. Returns the number checked.
fn check_hops(g: &Csr, view: Option<&FaultView>, log: &[Hop], failures: &mut Vec<String>) -> u64 {
    if !g.is_symmetric() {
        failures.push("hop check needs an undirected graph".into());
        return 0;
    }
    let mut count = vec![0u32; g.node_count()];
    let mut first = Vec::new();
    for h in log {
        if count[h.d as usize] == 0 {
            first.push(h.d);
        }
        count[h.d as usize] += 1;
    }
    // stable sort: ties keep first-appearance order
    first.sort_by_key(|&d| std::cmp::Reverse(count[d as usize]));
    let mut checked = 0u64;
    let mut bad = 0u64;
    for &d in first.iter().take(CHECK_DESTS) {
        let dist = match view {
            Some(v) => bfs_faulted(g, v, d),
            None => bfs(g, d),
        };
        for h in log.iter().filter(|h| h.d == d) {
            if checked as usize == CHECK_HOPS {
                break;
            }
            checked += 1;
            let du = dist[h.u as usize];
            let ok = if h.hop == u32::MAX {
                view.is_some() && du == UNREACHABLE
            } else {
                du != UNREACHABLE
                    && g.has_arc(h.u, h.hop)
                    && view.is_none_or(|v| v.arc_usable(h.u, h.hop))
                    && dist[h.hop as usize].checked_add(1) == Some(du)
            };
            if !ok {
                bad += 1;
                if bad <= 3 {
                    failures.push(format!(
                        "hop {} -> {:?} toward {d} is not one BFS level closer",
                        h.u,
                        (h.hop != u32::MAX).then_some(h.hop)
                    ));
                }
            }
        }
    }
    if bad > 3 {
        failures.push(format!("{bad} of {checked} checked hops failed"));
    }
    if checked == 0 {
        failures.push("no logged hops to check".into());
    }
    checked
}

/// CPU nanoseconds per next-hop query: whole passes over the logged
/// queries, each through a fresh router so a cache inside it (the detour
/// router's BFS fields) starts as cold as in the run, until at least a
/// CPU second has passed; median over passes. Whole passes, because cache
/// hit rates change over a run and a prefix would misstate the mean.
fn replay_ns<R: Router>(make_router: impl Fn() -> R, log: &[Hop], view: Option<&FaultView>) -> f64 {
    if log.is_empty() {
        return 0.0;
    }
    let start = cpu_secs();
    let mut per_call = Vec::new();
    while per_call.is_empty() || cpu_secs() - start < 1.0 {
        let router = make_router();
        let ((), t) = cpu_time(|| {
            for h in log {
                black_box(match view {
                    Some(v) => router.next_hop_faulted(h.u, h.d, v),
                    None => router.next_hop(h.u, h.d),
                });
            }
        });
        per_call.push(t / log.len() as f64);
    }
    per_call.sort_by(f64::total_cmp);
    median(&per_call) * 1e9
}

/// CPU nanoseconds per node-cycle of `InjectionSchedule::refill` over
/// `n` node streams at `rate` (median over refills of `SCHEDULE_CHUNK`
/// cycles, for at least half a CPU second).
fn rng_ns_per_node_cycle(n: u32, rate: f64, seed: u64) -> f64 {
    let mut rngs: Vec<NodeRng> = (0..n).map(|v| node_stream(seed, v)).collect();
    let mut sched = InjectionSchedule::default();
    let start = cpu_secs();
    let mut per = Vec::new();
    let mut base = 0u32;
    while per.len() < 3 || cpu_secs() - start < 0.5 {
        let t0 = cpu_secs();
        sched.refill(
            base..base + SCHEDULE_CHUNK,
            n,
            rate,
            &mut rngs,
            |_| false,
            |src, rng| {
                let mut d = rng.gen_range(0..n - 1);
                if d >= src {
                    d += 1;
                }
                Some(d)
            },
        );
        black_box(sched.due(base));
        per.push((cpu_secs() - t0) / (f64::from(n) * f64::from(SCHEDULE_CHUNK)));
        base += SCHEDULE_CHUNK;
    }
    per.sort_by(f64::total_cmp);
    median(&per) * 1e9
}

/// Record the obs-mode readings of a traced child.
fn record_obs(s: &mut Sample, run_s: f64, windows: &[f64], gauges: (f64, f64)) {
    s.duration("obs.run_s", run_s);
    let mut ms: Vec<f64> = windows.iter().map(|t| t * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    if !ms.is_empty() {
        s.duration("engine.window_ms_p50", median(&ms));
        let (pct, tail) = tail_with_ten_beyond(&ms).unwrap_or((100.0, ms[ms.len() - 1]));
        s.duration("engine.window_ms_pmax10", tail);
        s.layer("engine.window_tail_pct", pct);
    }
    s.layer("engine.windows", ms.len() as f64);
    s.layer("model.link_util_max_pct", gauges.0);
    s.layer("model.buffer_max", gauges.1);
}

/// Run one sample of `w` in this process. `traced` adds the per-layer
/// breakdown runs; `cycles` shrinks the schedule for smoke runs.
///
/// Every time is CPU time, rescaled to the nominal core speed by the
/// mean of two readings of the reference kernel, one before and one
/// after the sample's work: a shared host's clock rate wanders by ±10%
/// over minutes, and this takes that drift out of the comparison between
/// runs. The host's speed is reported as `host.speed_pct`.
pub fn run_sample(w: Workload, seed: u64, traced: bool, cycles: Option<u32>) -> Sample {
    let before = step_ns();
    let mut s = Sample {
        traced,
        ..Sample::default()
    };
    sample_work(w, seed, traced, cycles, &mut s);
    let speed = NOMINAL_STEP_NS / ((before + step_ns()) / 2.0);
    s.rescale(speed);
    s.layer("host.speed_pct", speed * 100.0);
    s
}

fn sample_work(w: Workload, seed: u64, traced: bool, cycles: Option<u32>, s: &mut Sample) {
    let net = Net::build(w, s);
    let cx = Ctx {
        w,
        net: &net,
        seed,
        cycles,
    };
    match w {
        Workload::Dist1m => dist_sample(&cx, traced, s),
        Workload::Faults8k => {
            let spec = FaultSpec::parse(FAULTS).expect("the workload's fault spec parses");
            let (plan, t) = cpu_time(|| FaultPlan::compile(&spec, &net.g, seed));
            s.duration("fault.compile_s", t);
            let plan = plan.expect("the fault spec compiles against its own graph");
            let make = || {
                DetourRouter::new(net.codec_router(), net.g.clone())
                    .expect("the network is undirected")
            };
            inproc_sample(&cx, traced, make, Some(&plan), s);
        }
        _ => {
            let make = || net.codec_router();
            inproc_sample(&cx, traced, make, None, s);
        }
    }
}

fn inproc_sample<R: Router>(
    cx: &Ctx,
    traced: bool,
    make_router: impl Fn() -> R,
    plan: Option<&FaultPlan>,
    s: &mut Sample,
) {
    let (router, t) = cpu_time(&make_router);
    s.duration("router.build_s", t);
    let cap = if traced { REPLAY_LOG } else { CHECK_LOG };
    let run = |router: R, mode: Mode, cap: usize| simulate(cx, router, plan, mode, cap);
    let out = run(router, Mode::Plain, cap);
    s.duration("engine.assemble_s", out.assemble_s);
    s.layer("engine.assemble_mb", out.assemble_mb);
    s.setup_s =
        s.get("core.build_s") + s.get("fault.compile_s") + s.get("router.build_s") + out.assemble_s;
    s.run_s = out.run_s;
    s.peak_rss_kb = vm_hwm_kb();
    s.cycles = out.cycles;
    s.route_calls = out.route.calls();
    s.result = out.result;
    s.failures.extend(out.failures);
    let view = plan.map(|p| static_view(p, &mut s.failures));
    let log = out.route.log();
    s.hops_checked = check_hops(&cx.net.g, view.as_ref(), &log, &mut s.failures);
    if !traced {
        return;
    }
    // Each run gets a fresh router: the detour router's BFS cache would
    // otherwise make every run after the first look faster than it is.
    let o = run(make_router(), Mode::Obs, 0);
    s.expect_result("obs-enabled", &o.result);
    if o.route.calls() != s.route_calls {
        s.fail(format!(
            "obs-enabled run made {} route calls, plain {}",
            o.route.calls(),
            s.route_calls
        ));
    }
    record_obs(s, o.run_s, &o.windows, o.gauges);
    let t = run(make_router(), Mode::Trace, 0);
    s.expect_result("traced", &t.result);
    s.duration("trace.run_s", t.run_s);
    s.layer("trace.events", t.trace.0);
    s.layer("trace.dropped", t.trace.1);
    s.duration(
        "route.ns_per_call",
        replay_ns(&make_router, &log, view.as_ref()),
    );
    s.duration(
        "rng.ns_per_node_cycle",
        rng_ns_per_node_cycle(s.nodes as u32, cx.w.rate(), cx.seed),
    );
}

/// Build the router inside a `__dist-worker` process.
pub fn dist_worker_router(ws: &WorkerSetup) -> Result<Box<dyn Router>, String> {
    if ws.netspec != DIST_NETSPEC || ws.faulted {
        return Err(format!("unknown worker setup `{}`", ws.netspec));
    }
    let tn = Workload::Dist1m.network();
    Ok(Box::new(
        ShortestTupleRouter::new(tn).map_err(|e| e.to_string())?,
    ))
}

fn dist_config(trace: bool, window: u32) -> DistConfig {
    let exe = std::env::current_exe().expect("current_exe resolves to spawn dist workers");
    DistConfig {
        workers: DIST_WORKERS,
        worker_argv: vec![exe.display().to_string(), "__dist-worker".to_string()],
        netspec: DIST_NETSPEC.to_string(),
        window,
        trace: trace.then(TraceConfig::default),
        read_timeout: Duration::from_secs(120),
    }
}

/// Sum a per-worker counter over a distributed run.
fn total(run: &DistRun, f: impl Fn(&DistWorkerStats) -> u64) -> u64 {
    run.workers.iter().map(f).sum()
}

fn dist_sample(cx: &Ctx, traced: bool, s: &mut Sample) {
    let net = cx.net;
    let cfg = cx.w.sim_config(cx.seed, cx.cycles);
    let zero_cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 0,
        drain_cycles: 0,
        ..cfg.clone()
    };
    let module = |v: u32| net.class[v as usize];
    // CPU time of this coordinator plus its workers, which `run_dist`
    // has reaped by the time it returns.
    let dist = |c: &SimConfig, obs: &Obs, dc: &DistConfig| {
        cpu_time(|| run_dist(&net.g, module, c, None, obs, dc).expect("distributed run"))
    };
    // Zero cycles: spawn, Setup, ShardLinks, Ready and Final only. The
    // coordinator frees the shipped link arrays before returning, so its
    // memory cost is the growth of its peak, not of its resident set.
    let hwm0 = vm_hwm_kb();
    let (zero, t_zero) = dist(&zero_cfg, &Obs::disabled(), &dist_config(false, 0));
    s.duration("engine.assemble_s", t_zero);
    s.layer("engine.assemble_mb", (vm_hwm_kb() - hwm0) as f64 / 1024.0);
    s.duration("dist.setup_s", t_zero);
    s.layer("dist.setup_bytes", total(&zero, |x| x.frame_bytes) as f64);
    s.setup_s = s.get("core.build_s") + t_zero;
    let (full, t_full) = dist(&cfg, &Obs::disabled(), &dist_config(false, 0));
    s.run_s = t_full - t_zero;
    s.peak_rss_kb = vm_hwm_kb();
    s.cycles = u64::from(full.result.cycles);
    s.result = format!("{:?}", full.result);
    s.failures.extend(conservation(&full.result));
    let worker_kb = full.workers.iter().map(|x| x.rss_kb).max().unwrap_or(0);
    s.layer("dist.worker_rss_mb", worker_kb as f64 / 1024.0);
    let frames = total(&full, |x| x.frames) - total(&zero, |x| x.frames);
    let bytes = total(&full, |x| x.frame_bytes) - total(&zero, |x| x.frame_bytes);
    s.layer("dist.frames", frames as f64);
    s.layer(
        "dist.bytes_per_cycle",
        bytes as f64 / s.cycles.max(1) as f64,
    );
    if !traced {
        return;
    }
    // The workers route in other processes, so the count, the query log
    // and the in-process baseline come from the same schedule run here;
    // its result must match the distributed one exactly.
    let (router, t) = cpu_time(|| net.codec_router());
    s.duration("router.build_s", t);
    let inproc = simulate(cx, router, None, Mode::Plain, REPLAY_LOG);
    s.expect_result("in-process", &inproc.result);
    s.route_calls = inproc.route.calls();
    s.duration("dist.inproc_run_s", inproc.run_s);
    let log = inproc.route.log();
    s.hops_checked = check_hops(&net.g, None, &log, &mut s.failures);

    let (obs, marks) = obs_for(Mode::Obs);
    let (o, t) = dist(&cfg, &obs, &dist_config(false, 1));
    s.expect_result("obs-enabled", &format!("{:?}", o.result));
    let marks = marks.expect("Obs mode records windows");
    let windows = window_durations(&marks.lock().expect("window marks lock"));
    let gauges = (
        obs.gauge("engine.link_utilization_max_pct").get() as f64,
        obs.gauge("engine.queue_depth_max").get() as f64,
    );
    // The first window also holds the fleet's spawn and setup.
    record_obs(s, t - t_zero, windows.get(1..).unwrap_or(&[]), gauges);
    let (tr, t) = dist(&cfg, &Obs::disabled(), &dist_config(true, 0));
    s.expect_result("traced", &format!("{:?}", tr.result));
    s.duration("trace.run_s", t - t_zero);
    let (events, dropped) = tr
        .trace
        .map_or((0.0, 0.0), |t| (t.events.len() as f64, t.dropped as f64));
    s.layer("trace.events", events);
    s.layer("trace.dropped", dropped);
    s.duration(
        "route.ns_per_call",
        replay_ns(|| net.codec_router(), &log, None),
    );
    s.duration(
        "rng.ns_per_node_cycle",
        rng_ns_per_node_cycle(s.nodes as u32, cx.w.rate(), cx.seed),
    );
}
