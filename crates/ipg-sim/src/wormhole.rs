//! Flit-level wormhole simulation with virtual channels and deadlock
//! detection.
//!
//! The paper's §5 latency arguments repeatedly distinguish wormhole /
//! cut-through switching from packet switching. The store-and-forward
//! engine in [`crate::engine`] has unbounded buffers and cannot deadlock;
//! this module models the real constraints: per-VC input buffers of
//! finite depth, one flit per physical link per cycle, and wormhole
//! channel allocation (a packet holds its output VC from head to tail).
//!
//! Deadlock is real here: deterministic shortest-path routing on a single
//! VC forms cyclic channel dependencies (e.g. around a ring), and the
//! simulator detects the resulting stall. The *hop-indexed* VC policy —
//! the `h`-th hop uses VC `h` — makes the channel dependency graph
//! acyclic, so it is deadlock-free whenever `vcs ≥ longest route`.
//! Low-diameter networks (the paper's super-IP graphs) therefore need
//! fewer VCs for guaranteed deadlock freedom: a concrete hardware payoff
//! of small (inter-cluster) diameters.
//!
//! # Data layout and determinism
//!
//! Links are the packet engine's: the [`Csr`]'s rows, borrowed (so the
//! graph outlives the simulator, `'g`), link `li` leaving the node whose
//! row holds it. The only link structure of the engine's own is a flat
//! in-link index (offsets plus link ids, ascending per node, from one
//! counting pass) for VC allocation and ejection: 4 bytes per link and
//! 4 per node (DESIGN.md §10).
//!
//! VC buffers are fixed-depth rings over **one flat flit arena**
//! (`links × vcs × buffer_flits` slots) instead of a `VecDeque` per VC,
//! so a run allocates its buffer space once. Next-hop queries go through
//! the [`Router`] trait — the all-pairs [`RoutingTable`] or the
//! arithmetic [`ipg_core::tuple_routing::ShortestTupleRouter`].
//! Injection randomness comes from per-node streams
//! ([`crate::rng::node_stream`]), the same scheme as the packet engine.
//!
//! Unlike the packet engine the wormhole simulator is **not sharded**:
//! wormhole channel allocation couples nodes through per-cycle VC
//! ownership and credit (buffer-slot) state across links, so a cycle
//! cannot be split into independent node-range phases without changing
//! allocation outcomes. The loop is sequential — and therefore trivially
//! thread-count invariant.
//!
//! # Sparse flit hot path
//!
//! A cycle touches only the work in flight (DESIGN.md §13): injection
//! is precomputed in node-major chunks ([`crate::rng::InjectionSchedule`],
//! whose contract is one geometric gap draw per node per chunk window
//! and one per packet, the same as the packet engine's), and the
//! per-cycle link-service loop iterates a node [`Worklist`] instead of
//! every link. The activation invariant is **exact**, not lazy: node `u`
//! is on the worklist iff `demand[u] > 0`, where `demand[u]` counts
//! `u`'s pending source-queue packets plus the flits buffered on `u`'s
//! input VCs — precisely the state `step_link` can act on. Every queue
//! mutation routes through `demand_add`/`demand_sub` (and the
//! `buf_push`/`buf_pop` buffer helpers), so the bit and the queue state
//! change together. The sweep is a **live cursor** over ascending node
//! ids — CSR link order, since links are grouped by source node — so a
//! flit forwarded to a higher-numbered node this cycle is swept again
//! this cycle. `step_link` returns early on `demand == 0`: a speed rule
//! only, since a node without demand has nothing any VC probe could
//! move. The oracle is a reference model outside the crate
//! (`tests/reference/wormhole.rs`) that keeps every node's pending
//! injection cycle, steps every link every cycle and must reach the
//! same [`WormholeOutcome`].

use crate::engine::{link_toward, row, uniform_destination};
use crate::fault::{FaultPlan, LocalFault, ShardFaults};
use crate::rng::{node_stream, InjectionSchedule, NodeRng, SCHEDULE_CHUNK};
use crate::router::Router;
use crate::table::RoutingTable;
use crate::worklist::Worklist;
use ipg_core::fault::FaultView;
use ipg_core::graph::Csr;
use ipg_obs::{Counter, Histogram, Obs, ShardTracer, Trace, TraceConfig, ENGINE_TRACK};
use std::collections::VecDeque;
use std::ops::Range;

/// Virtual-channel selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcPolicy {
    /// All packets use VC 0. Cheap, but cyclic channel dependencies can
    /// deadlock.
    Single,
    /// A packet on its `h`-th hop uses VC `min(h, vcs−1)`; strictly
    /// increasing VC indices break dependency cycles (deadlock-free when
    /// `vcs ≥ longest route`).
    HopIndexed,
}

/// Traffic for the wormhole simulator.
#[derive(Clone, Debug)]
pub enum WormTraffic {
    /// Uniform random destinations.
    Uniform,
    /// Fixed destination per source (a permutation, or many-to-one).
    Fixed(Vec<u32>),
}

/// Configuration.
#[derive(Clone, Debug)]
pub struct WormholeConfig {
    /// Virtual channels per physical link (≥ 1).
    pub vcs: usize,
    /// Input buffer depth per VC, in flits (≥ 1).
    pub buffer_flits: usize,
    /// Packet length in flits (≥ 1; the last flit is the tail).
    pub packet_flits: u32,
    /// Injection probability per node per cycle.
    pub injection_rate: f64,
    /// Cycle budget.
    pub cycles: u32,
    /// Declare deadlock after this many cycles without any flit movement
    /// while flits remain buffered.
    pub deadlock_threshold: u32,
    /// RNG seed (each node derives its own stream via
    /// [`crate::rng::node_stream`]).
    pub seed: u64,
    /// VC selection policy.
    pub policy: VcPolicy,
    /// Traffic pattern.
    pub traffic: WormTraffic,
}

impl Default for WormholeConfig {
    fn default() -> Self {
        WormholeConfig {
            vcs: 2,
            buffer_flits: 2,
            packet_flits: 4,
            injection_rate: 0.02,
            cycles: 5_000,
            deadlock_threshold: 500,
            seed: 0x0f11_77ee,
            policy: VcPolicy::HopIndexed,
            traffic: WormTraffic::Uniform,
        }
    }
}

/// Result of a wormhole run.
#[derive(Clone, Debug)]
pub enum WormholeOutcome {
    /// Ran to the cycle budget (or drained).
    Completed(WormholeStats),
    /// No flit moved for `deadlock_threshold` cycles while flits remained.
    Deadlocked {
        /// Cycle at which deadlock was declared.
        at_cycle: u32,
        /// Distinct packets stuck in network buffers.
        stuck_packets: usize,
    },
}

impl WormholeOutcome {
    /// Convenience: the stats of a completed run (panics on deadlock).
    pub fn stats(&self) -> &WormholeStats {
        match self {
            WormholeOutcome::Completed(s) => s,
            WormholeOutcome::Deadlocked { at_cycle, .. } => {
                // ipg-analyze: allow(PANIC001) reason="documented contract: this accessor panics on deadlock"
                panic!("simulation deadlocked at cycle {at_cycle}")
            }
        }
    }

    /// Did the run deadlock?
    pub fn is_deadlocked(&self) -> bool {
        matches!(self, WormholeOutcome::Deadlocked { .. })
    }
}

/// Statistics of a completed run.
#[derive(Clone, Copy, Debug)]
pub struct WormholeStats {
    /// Packets injected.
    pub injected: u64,
    /// Packets fully delivered (tail consumed).
    pub delivered: u64,
    /// Packets destroyed by the fault campaign: refused at launch for
    /// lack of a usable route, purged when a link/node died under their
    /// flits, or stranded with no faulted-graph path mid-flight. Always 0
    /// without a fault plan.
    pub dropped: u64,
    /// Mean packet latency (injection cycle to tail consumption).
    pub avg_latency: f64,
}

#[derive(Clone, Copy, Default)]
struct Flit {
    pkt: u32,
    is_head: bool,
    is_tail: bool,
}

struct PacketInfo {
    dst: u32,
    born: u32,
    /// links the HEAD flit has crossed (drives hop-indexed VC choice).
    head_hops: u32,
}

/// "No owner" sentinel in the per-VC owner array.
const NO_OWNER: u32 = u32::MAX;

/// All per-VC buffer state, flat: one arena of `vc_count × depth` flit
/// slots used as fixed-capacity rings, plus per-VC head/len/owner arrays.
struct VcBufs {
    depth: usize,
    flits: Vec<Flit>,
    head: Vec<u32>,
    len: Vec<u32>,
    owner: Vec<u32>,
}

impl VcBufs {
    fn new(vc_count: usize, depth: usize) -> Self {
        VcBufs {
            depth,
            flits: vec![Flit::default(); vc_count * depth],
            head: vec![0; vc_count],
            len: vec![0; vc_count],
            owner: vec![NO_OWNER; vc_count],
        }
    }

    #[inline]
    fn len(&self, vc: usize) -> usize {
        self.len[vc] as usize
    }

    #[inline]
    fn front(&self, vc: usize) -> Option<Flit> {
        if self.len[vc] == 0 {
            None
        } else {
            Some(self.flits[vc * self.depth + self.head[vc] as usize])
        }
    }

    #[inline]
    fn pop_front(&mut self, vc: usize) -> Flit {
        debug_assert!(self.len[vc] > 0);
        let f = self.flits[vc * self.depth + self.head[vc] as usize];
        self.head[vc] = (self.head[vc] + 1) % self.depth as u32;
        self.len[vc] -= 1;
        f
    }

    #[inline]
    fn push_back(&mut self, vc: usize, flit: Flit) {
        debug_assert!((self.len[vc] as usize) < self.depth);
        let slot = (self.head[vc] as usize + self.len[vc] as usize) % self.depth;
        self.flits[vc * self.depth + slot] = flit;
        self.len[vc] += 1;
    }

    fn total_buffered(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }
}

/// Static network description for wormhole runs, generic over the
/// next-hop [`Router`].
///
/// Links are the [`Csr`]'s arcs in row order, read straight out of the
/// graph the simulator was built from, so that graph must outlive it
/// (`'g`).
pub struct WormholeSim<'g, R: Router = RoutingTable> {
    n: usize,
    router: R,
    /// Per-node out-link offsets and each link's next node: the CSR's
    /// own rows, so link `li` runs from the node whose row holds it to
    /// `to[li]`.
    link_of: &'g [u32],
    to: &'g [u32],
    /// In-link index: node `v`'s incoming link ids, ascending, are
    /// `in_links[in_of[v]..in_of[v + 1]]`.
    in_of: Vec<u32>,
    in_links: Vec<u32>,
    /// compiled fault campaign applied by every run (None = fault-free).
    plan: Option<FaultPlan>,
}

impl<'g> WormholeSim<'g, RoutingTable> {
    /// Build for a graph. To observe the routing-table build, pass
    /// `RoutingTable::new_instrumented(g, obs)` to
    /// [`WormholeSim::with_router`] instead.
    pub fn new(g: &'g Csr) -> Self {
        Self::with_router(RoutingTable::new(g), g)
    }
}

impl<'g, R: Router> WormholeSim<'g, R> {
    /// Build around an arbitrary [`Router`] answering queries over `g`'s
    /// node-id space. The out-links borrow `g`'s rows; only the in-link
    /// index is built, by one counting pass over the link targets.
    pub fn with_router(router: R, g: &'g Csr) -> Self {
        let n = g.node_count();
        let (link_of, to) = g.rows(0..n as u32);
        let mut in_of = vec![0u32; n + 1];
        for &v in to {
            in_of[v as usize + 1] += 1;
        }
        for v in 0..n {
            in_of[v + 1] += in_of[v];
        }
        let mut fill = in_of.clone();
        let mut in_links = vec![0u32; to.len()];
        for (li, &v) in to.iter().enumerate() {
            in_links[fill[v as usize] as usize] = li as u32;
            fill[v as usize] += 1;
        }
        WormholeSim {
            n,
            router,
            link_of,
            to,
            in_of,
            in_links,
            plan: None,
        }
    }

    /// Install (or clear) a compiled fault plan for subsequent runs. Dead
    /// links are never serviced and a link or node death destroys the
    /// wormholes caught on it (a severed worm cannot complete, and its
    /// stranded flits would wedge every channel its body spans); dead
    /// nodes neither inject nor deliver; next-hop queries go through
    /// [`Router::next_hop_faulted`] so fault-aware routers detour while
    /// oblivious ones stall or drop.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        if let Some(p) = &plan {
            assert!(
                p.node_count() as usize == self.n,
                "fault plan node count {} != network node count {}",
                p.node_count(),
                self.n
            );
        }
        self.plan = plan;
    }

    fn link_toward(&self, u: u32, v: u32) -> u32 {
        link_toward(self.link_of, self.to, 0, u, v) as u32
    }

    /// Node `u`'s out-link ids (its CSR row).
    fn out_links(&self, u: u32) -> Range<u32> {
        let r = row(self.link_of, u as usize);
        r.start as u32..r.end as u32
    }

    /// Node `v`'s in-link ids, ascending.
    fn in_links(&self, v: u32) -> &[u32] {
        &self.in_links[self.in_of[v as usize] as usize..self.in_of[v as usize + 1] as usize]
    }

    /// Run the simulation.
    pub fn run(&self, cfg: &WormholeConfig) -> WormholeOutcome {
        self.run_traced(cfg, &Obs::disabled(), 0, None).0
    }

    /// [`WormholeSim::run`] with observability and flight-recorder
    /// tracing. An enabled `obs` gets a `wormhole_run` span, packet
    /// counters, a latency histogram, per-link utilization and per-VC
    /// buffer high-water histograms, and — when `window > 0` — a
    /// `window` metrics snapshot every `window` cycles. A `trace` config
    /// records per-sample `cycle` events (injection/delivery deltas,
    /// buffered flits), hottest-link utilization, VC queue depths, and
    /// credit stalls (buffer-full probe failures). The wormhole loop is
    /// sequential, so the whole run records on one shard track; as in
    /// the packet engine, tracing reads state but never writes it. A
    /// disabled `obs` and no `trace` make this identical to
    /// [`WormholeSim::run`].
    pub fn run_traced(
        &self,
        cfg: &WormholeConfig,
        obs: &Obs,
        window: u32,
        trace: Option<&TraceConfig>,
    ) -> (WormholeOutcome, Option<Trace>) {
        let span = obs.span("wormhole_run");
        let track = obs.enabled();
        // Link-busy accounting feeds the end-of-run utilization
        // histograms (obs) and sampled link-utilization events (trace).
        let track_links = track || trace.is_some();
        let links = self.to.len();
        let vc_count = links * cfg.vcs;
        let mut run = Run {
            sim: self,
            cfg,
            rngs: (0..self.n as u32)
                .map(|v| node_stream(cfg.seed, v))
                .collect(),
            packets: Vec::new(),
            source: vec![VecDeque::new(); self.n],
            bufs: VcBufs::new(vc_count, cfg.buffer_flits),
            rr: vec![0; links],
            injected: 0,
            delivered: 0,
            latency_sum: 0,
            c_injected: obs.counter("wormhole.injected"),
            c_delivered: obs.counter("wormhole.delivered"),
            h_latency: obs.histogram("wormhole.latency_cycles"),
            link_busy: vec![0u64; if track_links { links } else { 0 }],
            vc_buffer_hw: vec![0u32; if track { vc_count } else { 0 }],
            stalls: vec![0u64; if trace.is_some() { links } else { 0 }],
            tracer: trace.map(|tc| {
                let mut t = ShardTracer::new(0, tc);
                t.init_links(links);
                t
            }),
            faulted: self.plan.is_some(),
            view: FaultView::new(self.n),
            plan_cursor: 0,
            faults: self
                .plan
                .as_ref()
                .map(|p| p.shard_events(0, self.n as u32, |u, v| self.link_toward(u, v)))
                .unwrap_or_default(),
            link_dead: vec![false; if self.plan.is_some() { links } else { 0 }],
            dropped: 0,
            c_dropped: obs.counter("wormhole.dropped_unreachable"),
            sched: InjectionSchedule::default(),
            active: Worklist::new(self.n),
            scratch: Vec::new(),
            doomed: Vec::new(),
            demand: vec![0; self.n],
            in_flits: vec![0; self.n],
            in_nodes: 0,
            buffered_total: 0,
        };
        let outcome = run.execute(obs, window);
        if track {
            obs.counter("wormhole.links").add(links as u64);
            if outcome.is_deadlocked() {
                obs.counter("wormhole.deadlocked").incr();
            }
            let cycles = match &outcome {
                WormholeOutcome::Completed(_) => cfg.cycles,
                WormholeOutcome::Deadlocked { at_cycle, .. } => at_cycle + 1,
            };
            let h_util = obs.histogram("wormhole.link_utilization_pct");
            let g_util = obs.gauge("wormhole.link_utilization_max_pct");
            for &busy in &run.link_busy {
                let pct = (busy * 100 / cycles.max(1) as u64).min(100);
                h_util.observe(pct);
                g_util.record_max(pct);
            }
            let h_hw = obs.histogram("wormhole.vc_buffer_high_water");
            let g_hw = obs.gauge("wormhole.vc_buffer_max");
            for &hw in &run.vc_buffer_hw {
                h_hw.observe(hw as u64);
                g_hw.record_max(hw as u64);
            }
        }
        drop(span);
        let trace_out = match (trace, run.tracer.take()) {
            (Some(tc), Some(tracer)) => Some(Trace::collect(
                tc.interval.max(1),
                vec![tracer],
                ShardTracer::new(ENGINE_TRACK, tc),
            )),
            _ => None,
        };
        (outcome, trace_out)
    }
}

struct Run<'a, R: Router> {
    sim: &'a WormholeSim<'a, R>,
    cfg: &'a WormholeConfig,
    rngs: Vec<NodeRng>,
    packets: Vec<PacketInfo>,
    /// per-source queue of (packet, flits left to inject).
    source: Vec<VecDeque<(u32, u32)>>,
    bufs: VcBufs,
    rr: Vec<usize>,
    injected: u64,
    delivered: u64,
    latency_sum: u64,
    c_injected: Counter,
    c_delivered: Counter,
    h_latency: Histogram,
    /// cycles each physical link carried a flit (observability only).
    link_busy: Vec<u64>,
    /// per-(link, vc) buffer occupancy high-water marks.
    vc_buffer_hw: Vec<u32>,
    /// per-link credit stalls: cycles an output probe found the
    /// downstream VC buffer full (tracing only).
    stalls: Vec<u64>,
    /// flight recorder (single track: the wormhole loop is sequential).
    tracer: Option<ShardTracer>,
    /// is a fault plan active? (hoisted so the hot loop branches on a bool)
    faulted: bool,
    /// dead-node/dead-link view, grown as scripted kills fall due.
    view: FaultView,
    /// how much of the plan's event list has been applied to `view`.
    plan_cursor: usize,
    /// the plan projected onto link ids (the whole network is one shard).
    faults: ShardFaults,
    /// per-link dead flags (empty when no plan is active).
    link_dead: Vec<bool>,
    /// packets destroyed by the fault campaign.
    dropped: u64,
    c_dropped: Counter,
    /// chunked node-major injection precompute.
    sched: InjectionSchedule,
    /// nodes with demand (pending source packets or buffered input
    /// flits); bit set iff `demand > 0`.
    active: Worklist,
    /// snapshot buffer for the ejection pass over `active`.
    scratch: Vec<u32>,
    /// packets to destroy, gathered for [`Run::purge`] (empty between
    /// calls).
    doomed: Vec<u32>,
    /// per-node: pending source-queue entries + buffered input flits.
    demand: Vec<u32>,
    /// per-node: flits buffered on the node's input VCs.
    in_flits: Vec<u32>,
    /// nodes with `in_flits > 0` (worklist gauge).
    in_nodes: u32,
    /// flits buffered network-wide (replaces the per-cycle arena scan).
    buffered_total: u64,
}

impl<R: Router> Run<'_, R> {
    #[inline]
    fn sidx(&self, link: u32, vc: usize) -> usize {
        link as usize * self.cfg.vcs + vc
    }

    fn want_vc(&self, hops: u32) -> usize {
        match self.cfg.policy {
            VcPolicy::Single => 0,
            VcPolicy::HopIndexed => (hops as usize).min(self.cfg.vcs - 1),
        }
    }

    /// One unit of work appeared at node `v` (a source packet or an
    /// input flit). Activates `v` on the 0→1 transition.
    #[inline]
    fn demand_add(&mut self, v: usize) {
        self.demand[v] += 1;
        if self.demand[v] == 1 {
            self.active.insert(v as u32);
        }
    }

    /// One unit of work left node `v`. Deactivates on the 1→0 transition.
    #[inline]
    fn demand_sub(&mut self, v: usize) {
        debug_assert!(self.demand[v] > 0);
        self.demand[v] -= 1;
        if self.demand[v] == 0 {
            self.active.remove(v as u32);
        }
    }

    /// Buffer `flit` on VC slot `sidx`, maintaining the flit counters and
    /// the downstream node's demand. The **only** way flits enter buffers.
    #[inline]
    fn buf_push(&mut self, sidx: usize, flit: Flit) {
        self.bufs.push_back(sidx, flit);
        self.buffered_total += 1;
        let v = self.sim.to[sidx / self.cfg.vcs] as usize;
        if self.in_flits[v] == 0 {
            self.in_nodes += 1;
        }
        self.in_flits[v] += 1;
        self.demand_add(v);
    }

    /// Pop the front flit of VC slot `sidx`, maintaining the counters.
    /// The **only** way flits leave buffers.
    #[inline]
    fn buf_pop(&mut self, sidx: usize) -> Flit {
        let f = self.bufs.pop_front(sidx);
        self.buffered_total -= 1;
        let v = self.sim.to[sidx / self.cfg.vcs] as usize;
        self.in_flits[v] -= 1;
        if self.in_flits[v] == 0 {
            self.in_nodes -= 1;
        }
        self.demand_sub(v);
        f
    }

    /// Inject one packet `src → dst` (`dst != src`): count the
    /// injection, then refuse the launch if the faulted graph has no
    /// usable route.
    fn enqueue_packet(&mut self, src: u32, dst: u32, cycle: u32) {
        self.injected += 1;
        self.c_injected.incr();
        if self.faulted && self.route(src, dst).is_none() {
            // refused launch: no usable route on the faulted graph
            self.drop_one();
            return;
        }
        let pkt = self.packets.len() as u32;
        self.packets.push(PacketInfo {
            dst,
            born: cycle,
            head_hops: 0,
        });
        self.source[src as usize].push_back((pkt, self.cfg.packet_flits));
        self.demand_add(src as usize);
    }

    fn inject(&mut self, cycle: u32) {
        if self.sched.needs_refill(cycle) {
            let n = self.sim.n as u32;
            let cfg = self.cfg;
            let faulted = self.faulted;
            let view = &self.view;
            self.sched.refill(
                cycle..cycle + SCHEDULE_CHUNK.min(cfg.cycles - cycle),
                n,
                cfg.injection_rate,
                &mut self.rngs,
                |src| faulted && view.node_dead(src),
                |src, rng| match &cfg.traffic {
                    WormTraffic::Uniform => Some(uniform_destination(n, src, rng)),
                    // fixed patterns consume no destination draw; a
                    // self-mapped source injects nothing
                    WormTraffic::Fixed(map) => {
                        let d = map[src as usize];
                        (d != src).then_some(d)
                    }
                },
            );
        }
        for i in 0..self.sched.due(cycle).len() {
            let (src, dst) = self.sched.due(cycle)[i];
            if self.faulted && self.view.node_dead(src) {
                continue; // died mid-chunk: events past the death are void
            }
            self.enqueue_packet(src, dst, cycle);
        }
    }

    /// Next hop for `u → d`, consulting the fault view when a plan is
    /// active. `None` means no usable route exists on the faulted graph;
    /// without a plan every destination must be routable.
    #[inline]
    fn route(&self, u: u32, d: u32) -> Option<u32> {
        if self.faulted {
            return self.sim.router.next_hop_faulted(u, d, &self.view);
        }
        match self.sim.router.next_hop(u, d) {
            Some(h) => Some(h),
            // ipg-analyze: allow(PANIC001) reason="simulated graphs are connected; an unroutable destination is a construction bug"
            None => panic!("no route from {u} to {d}"),
        }
    }

    #[inline]
    fn drop_one(&mut self) {
        self.dropped += 1;
        self.c_dropped.incr();
    }

    /// Destroy the packets listed in `self.doomed` outright: remove
    /// every buffered flit of theirs network-wide, release any VC
    /// ownership they hold, cancel their pending source flits, count
    /// each packet dropped once, and empty the list.
    fn purge(&mut self) {
        if self.doomed.is_empty() {
            return;
        }
        let mut doomed = std::mem::take(&mut self.doomed);
        doomed.sort_unstable();
        doomed.dedup();
        for sidx in 0..self.bufs.len.len() {
            if self.bufs.owner[sidx] != NO_OWNER
                && doomed.binary_search(&self.bufs.owner[sidx]).is_ok()
            {
                self.bufs.owner[sidx] = NO_OWNER;
            }
            let l = self.bufs.len(sidx);
            for _ in 0..l {
                let f = self.buf_pop(sidx);
                if doomed.binary_search(&f.pkt).is_err() {
                    self.buf_push(sidx, f);
                }
            }
        }
        for v in 0..self.source.len() {
            let before = self.source[v].len();
            self.source[v].retain(|&(p, _)| doomed.binary_search(&p).is_err());
            for _ in self.source[v].len()..before {
                self.demand_sub(v);
            }
        }
        self.dropped += doomed.len() as u64;
        self.c_dropped.add(doomed.len() as u64);
        doomed.clear();
        self.doomed = doomed;
    }

    /// Kill physical link `li`: stop servicing it and destroy the packets
    /// whose flits sit in (or which own) its VC buffers — a severed
    /// wormhole cannot complete, and its stranded body flits would wedge
    /// every channel they span.
    fn kill_link(&mut self, li: u32) {
        if self.link_dead[li as usize] {
            return;
        }
        self.link_dead[li as usize] = true;
        for vc in 0..self.cfg.vcs {
            let sidx = self.sidx(li, vc);
            if self.bufs.owner[sidx] != NO_OWNER {
                self.doomed.push(self.bufs.owner[sidx]);
            }
            let head = self.bufs.head[sidx] as usize;
            let depth = self.bufs.depth;
            for i in 0..self.bufs.len(sidx) {
                self.doomed
                    .push(self.bufs.flits[sidx * depth + (head + i) % depth].pkt);
            }
        }
        self.purge();
    }

    /// Apply one projected kill. A node kill takes out every attached
    /// link (in and out) and the node's pending injections.
    fn apply_fault(&mut self, f: LocalFault) {
        match f {
            LocalFault::Link(li) => self.kill_link(li),
            LocalFault::Node(v) => {
                for li in self.sim.out_links(v) {
                    self.kill_link(li);
                }
                for &li in self.sim.in_links(v) {
                    self.kill_link(li);
                }
                let pending = self.source[v as usize].iter().map(|&(p, _)| p);
                self.doomed.extend(pending);
                self.purge();
            }
        }
    }

    /// Pop the front flit of the source queue at `u` if it belongs to
    /// `want` (None = any head-eligible packet, i.e. an un-started one).
    fn pop_source(&mut self, u: u32, want: Option<u32>) -> Option<Flit> {
        let &(pkt, left) = self.source[u as usize].front()?;
        if let Some(w) = want {
            if pkt != w {
                return None;
            }
        } else if left != self.cfg.packet_flits {
            return None; // already streaming; only body continuation may pop
        }
        let is_head = left == self.cfg.packet_flits;
        let is_tail = left == 1;
        if is_tail {
            self.source[u as usize].pop_front();
            self.demand_sub(u as usize);
        } else {
            // ipg-analyze: allow(PANIC001) reason="caller peeked front() before calling pop_source"
            self.source[u as usize].front_mut().expect("checked").1 -= 1;
        }
        Some(Flit {
            pkt,
            is_head,
            is_tail,
        })
    }

    /// One step of output link `link` of node `u`: move at most one
    /// flit onto it.
    fn step_link(&mut self, link: u32, u: u32) -> bool {
        if !self.link_dead.is_empty() && self.link_dead[link as usize] {
            return false; // dead links refuse every launch
        }
        if self.demand[u as usize] == 0 {
            // Nothing at u to send, so no probe could move a flit. A
            // probe failure only counts as a credit stall with demand
            // behind it.
            return false;
        }
        for probe in 0..self.cfg.vcs {
            let out_vc = (self.rr[link as usize] + probe) % self.cfg.vcs;
            let sidx = self.sidx(link, out_vc);
            if self.bufs.len(sidx) >= self.cfg.buffer_flits {
                // Credit stall: the downstream buffer has no free slot.
                if !self.stalls.is_empty() {
                    self.stalls[link as usize] += 1;
                }
                continue;
            }
            let moved = match self.bufs.owner[sidx] {
                NO_OWNER => self.allocate_head(link, out_vc, u),
                pkt => self.advance_body(link, out_vc, u, pkt),
            };
            if moved {
                self.rr[link as usize] = (out_vc + 1) % self.cfg.vcs;
                return true;
            }
        }
        false
    }

    /// Move the next flit of `pkt` (which owns `(link, out_vc)`) from node
    /// `u` onto the link.
    fn advance_body(&mut self, link: u32, out_vc: usize, u: u32, pkt: u32) -> bool {
        // source continuation?
        if let Some(flit) = self.pop_source(u, Some(pkt)) {
            return self.deliver_onto(link, out_vc, flit);
        }
        // front of an input buffer at u
        for &in_link in self.sim.in_links(u) {
            for vc in 0..self.cfg.vcs {
                let iidx = self.sidx(in_link, vc);
                if let Some(flit) = self.bufs.front(iidx) {
                    if flit.pkt == pkt {
                        let flit = self.buf_pop(iidx);
                        return self.deliver_onto(link, out_vc, flit);
                    }
                }
            }
        }
        false
    }

    /// Try to allocate the free `(link, out_vc)` to a waiting head flit.
    fn allocate_head(&mut self, link: u32, out_vc: usize, u: u32) -> bool {
        // a new packet at the source?
        if let Some(&(pkt, left)) = self.source[u as usize].front() {
            if left == self.cfg.packet_flits {
                let dst = self.packets[pkt as usize].dst;
                match self.route(u, dst) {
                    None => {
                        // the network around u decayed since injection:
                        // refuse the launch and drop the un-started packet
                        self.source[u as usize].pop_front();
                        self.demand_sub(u as usize);
                        self.drop_one();
                        return false;
                    }
                    Some(hop) => {
                        if self.sim.link_toward(u, hop) == link && self.want_vc(0) == out_vc {
                            // ipg-analyze: allow(PANIC001) reason="front() matched in the guard just above"
                            let flit = self.pop_source(u, None).expect("front checked");
                            return self.deliver_onto(link, out_vc, flit);
                        }
                    }
                }
            }
        }
        // head flits waiting at input buffers of u
        for &in_link in self.sim.in_links(u) {
            for vc in 0..self.cfg.vcs {
                let iidx = self.sidx(in_link, vc);
                let Some(flit) = self.bufs.front(iidx) else {
                    continue;
                };
                if !flit.is_head {
                    continue;
                }
                let info = &self.packets[flit.pkt as usize];
                if info.dst == u {
                    continue; // consumed by the ejection stage
                }
                let (pkt, dst, hops) = (flit.pkt, info.dst, info.head_hops);
                let Some(hop) = self.route(u, dst) else {
                    // mid-flight packet with no usable route left: destroy
                    // it rather than let its flits wedge the channel
                    self.doomed.push(pkt);
                    self.purge();
                    continue;
                };
                if self.sim.link_toward(u, hop) != link || self.want_vc(hops) != out_vc {
                    continue;
                }
                let flit = self.buf_pop(iidx);
                return self.deliver_onto(link, out_vc, flit);
            }
        }
        false
    }

    /// Put `flit` into the output's downstream buffer, maintaining
    /// ownership and hop counts.
    fn deliver_onto(&mut self, link: u32, out_vc: usize, flit: Flit) -> bool {
        let sidx = self.sidx(link, out_vc);
        if flit.is_head {
            self.packets[flit.pkt as usize].head_hops += 1;
            if !flit.is_tail {
                self.bufs.owner[sidx] = flit.pkt;
            }
        }
        if flit.is_tail {
            self.bufs.owner[sidx] = NO_OWNER;
        }
        self.buf_push(sidx, flit);
        if !self.link_busy.is_empty() {
            self.link_busy[link as usize] += 1;
        }
        if !self.vc_buffer_hw.is_empty() {
            self.vc_buffer_hw[sidx] = self.vc_buffer_hw[sidx].max(self.bufs.len(sidx) as u32);
        }
        true
    }

    /// Eject flits that reached their destination, visiting only the
    /// in-links of nodes with buffered input flits. Each `(link, vc)`
    /// buffer is drained independently and the delivered/latency updates
    /// commute, so the visiting order does not matter.
    fn eject(&mut self, cycle: u32) -> bool {
        let mut moved = false;
        // Snapshot: every node with buffered input flits has demand > 0
        // and is therefore on the worklist; ejection only shrinks it.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.active.collect_into(&mut scratch);
        for &v in &scratch {
            if self.in_flits[v as usize] == 0 {
                continue; // source demand only: nothing buffered to eject
            }
            for &link in self.sim.in_links(v) {
                moved |= self.eject_link(link, cycle);
            }
        }
        self.scratch = scratch;
        moved
    }

    /// Drain destination-reached flits from the front of `link`'s VCs.
    fn eject_link(&mut self, link: u32, cycle: u32) -> bool {
        let to = self.sim.to[link as usize];
        let mut moved = false;
        for vc in 0..self.cfg.vcs {
            let sidx = self.sidx(link, vc);
            while let Some(flit) = self.bufs.front(sidx) {
                if self.packets[flit.pkt as usize].dst != to {
                    break;
                }
                self.buf_pop(sidx);
                moved = true;
                if flit.is_tail {
                    self.delivered += 1;
                    let lat = (cycle + 1 - self.packets[flit.pkt as usize].born) as u64;
                    self.latency_sum += lat;
                    self.c_delivered.incr();
                    self.h_latency.observe(lat);
                }
            }
        }
        moved
    }

    fn execute(&mut self, obs: &Obs, window: u32) -> WormholeOutcome {
        let mut idle = 0u32;
        for cycle in 0..self.cfg.cycles {
            if self.faulted {
                let sim = self.sim;
                if let Some(p) = sim.plan.as_ref() {
                    p.apply_due(&mut self.plan_cursor, cycle, &mut self.view);
                }
                while let Some(f) = self.faults.next_due(cycle) {
                    self.apply_fault(f);
                }
            }
            self.inject(cycle);
            let mut moved = false;
            // Live cursor sweep over demand nodes in ascending order —
            // CSR link order (links are grouped by source). A node
            // activated *ahead* of the cursor by a flit delivered this
            // cycle is swept this cycle; one activated behind the cursor
            // waits for the next cycle.
            let mut cursor = 0u32;
            while let Some(u) = self.active.next_active(cursor) {
                cursor = u + 1;
                for link in self.sim.out_links(u) {
                    moved |= self.step_link(link, u);
                }
            }
            moved |= self.eject(cycle);
            if window > 0 && (cycle + 1) % window == 0 {
                obs.emit_window(cycle as u64 + 1);
            }

            let buffered = self.buffered_total as usize;
            debug_assert_eq!(buffered, self.bufs.total_buffered());
            if let Some(t) = self.tracer.as_mut() {
                if t.sampled(u64::from(cycle)) {
                    let c = u64::from(cycle);
                    t.wormhole_cycle(c, self.injected, self.delivered, buffered as u64);
                    let deepest = self.bufs.len.iter().copied().max().unwrap_or(0);
                    t.queue_depth(c, deepest, buffered as u64);
                    t.link_util(c, &self.link_busy);
                    t.credit_stalls(c, &self.stalls);
                    t.worklist(c, self.active.len(), self.in_nodes, self.buffered_total);
                }
            }
            if moved {
                idle = 0;
            } else if buffered > 0 {
                idle += 1;
                if idle >= self.cfg.deadlock_threshold {
                    // Terminal path: count distinct wedged packets with a
                    // sort+dedup rather than a hash set — the count (and
                    // any future listing of it) stays seed-deterministic.
                    let mut stuck: Vec<u32> = (0..self.bufs.len.len())
                        .flat_map(|vc| {
                            let head = self.bufs.head[vc] as usize;
                            let len = self.bufs.len(vc);
                            let depth = self.bufs.depth;
                            let flits = &self.bufs.flits;
                            (0..len).map(move |i| flits[vc * depth + (head + i) % depth].pkt)
                        })
                        .collect();
                    stuck.sort_unstable();
                    stuck.dedup();
                    return WormholeOutcome::Deadlocked {
                        at_cycle: cycle,
                        stuck_packets: stuck.len(),
                    };
                }
            }
        }
        WormholeOutcome::Completed(WormholeStats {
            injected: self.injected,
            delivered: self.delivered,
            dropped: self.dropped,
            avg_latency: if self.delivered == 0 {
                0.0
            } else {
                self.latency_sum as f64 / self.delivered as f64
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_networks::{classic, hier};

    #[test]
    fn light_load_delivers_everything() {
        let g = classic::hypercube(5);
        let sim = WormholeSim::new(&g);
        let cfg = WormholeConfig {
            vcs: 6,
            injection_rate: 0.005,
            cycles: 4_000,
            ..WormholeConfig::default()
        };
        let out = sim.run(&cfg);
        let s = out.stats();
        assert!(s.injected > 0);
        assert!(
            s.delivered as f64 >= 0.95 * s.injected as f64,
            "delivered {} of {}",
            s.delivered,
            s.injected
        );
        // wormhole latency ≈ distance + packet length
        assert!(
            s.avg_latency > 4.0 && s.avg_latency < 30.0,
            "{}",
            s.avg_latency
        );
    }

    #[test]
    fn out_links_borrow_the_csr_rows_and_in_links_index_them_ascending() {
        use ipg_core::superip::{NucleusSpec, SuperIpSpec};
        let undirected = hier::hcn(2, false);
        let directed = SuperIpSpec::directed_ring_cn(3, NucleusSpec::hypercube(2))
            .to_ip_spec()
            .generate()
            .unwrap()
            .to_directed_csr();
        assert!(undirected.is_symmetric() && !directed.is_symmetric());
        let inside = |inner: &[u32], outer: &[u32]| {
            let (i, o) = (inner.as_ptr_range(), outer.as_ptr_range());
            o.start <= i.start && i.end <= o.end
        };
        for g in [&undirected, &directed] {
            let sim = WormholeSim::new(g);
            let n = g.node_count() as u32;
            let (offsets, targets) = g.rows(0..n);
            assert!(
                inside(sim.link_of, offsets),
                "`link_of` is not a view of the CSR offsets"
            );
            assert!(
                inside(sim.to, targets),
                "`to` is not a view of the CSR targets"
            );
            for u in 0..n {
                let out = sim.out_links(u);
                assert_eq!(
                    &sim.to[out.start as usize..out.end as usize],
                    g.neighbors(u)
                );
            }
            // Brute force: every link into v, scanning all links in id order.
            for v in 0..n {
                let want: Vec<u32> = (0..targets.len() as u32)
                    .filter(|&li| targets[li as usize] == v)
                    .collect();
                assert_eq!(sim.in_links(v), &want[..], "in-links of node {v}");
            }
        }
    }

    #[test]
    fn single_vc_ring_deadlocks_under_cyclic_traffic() {
        // every node sends 3 hops clockwise on an 8-ring: the channel
        // dependency cycle fills and wedges with long packets and tiny
        // buffers on a single VC.
        let g = classic::ring(8);
        let sim = WormholeSim::new(&g);
        let fixed: Vec<u32> = (0..8u32).map(|i| (i + 3) % 8).collect();
        let cfg = WormholeConfig {
            vcs: 1,
            buffer_flits: 1,
            packet_flits: 8,
            injection_rate: 0.5,
            cycles: 20_000,
            deadlock_threshold: 300,
            policy: VcPolicy::Single,
            traffic: WormTraffic::Fixed(fixed),
            ..WormholeConfig::default()
        };
        assert!(sim.run(&cfg).is_deadlocked(), "expected a wedged ring");
    }

    #[test]
    fn hop_indexed_vcs_break_the_cycle() {
        let g = classic::ring(8);
        let sim = WormholeSim::new(&g);
        let fixed: Vec<u32> = (0..8u32).map(|i| (i + 3) % 8).collect();
        let cfg = WormholeConfig {
            vcs: 3, // routes are ≤ 3 hops
            buffer_flits: 1,
            packet_flits: 8,
            injection_rate: 0.5,
            cycles: 20_000,
            deadlock_threshold: 300,
            policy: VcPolicy::HopIndexed,
            traffic: WormTraffic::Fixed(fixed),
            ..WormholeConfig::default()
        };
        let out = sim.run(&cfg);
        assert!(!out.is_deadlocked(), "hop-indexed VCs must not deadlock");
        assert!(out.stats().delivered > 100);
    }

    #[test]
    fn low_diameter_needs_fewer_vcs() {
        // the §5 payoff: guaranteed-deadlock-free hop-indexed wormhole
        // needs vcs ≥ route length; HSN(2,Q2) (diameter 5) runs clean with
        // 5 VCs at 16 nodes while the ring of the same size needs 8.
        let hsn = hier::hcn(2, false);
        let sim = WormholeSim::new(&hsn);
        let cfg = WormholeConfig {
            vcs: 5,
            injection_rate: 0.05,
            cycles: 6_000,
            policy: VcPolicy::HopIndexed,
            ..WormholeConfig::default()
        };
        let out = sim.run(&cfg);
        assert!(!out.is_deadlocked());
        let s = out.stats();
        assert!(s.delivered as f64 > 0.9 * s.injected as f64);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = classic::torus2d(4);
        let sim = WormholeSim::new(&g);
        let cfg = WormholeConfig {
            injection_rate: 0.05,
            cycles: 2_000,
            vcs: 8,
            ..WormholeConfig::default()
        };
        let a = sim.run(&cfg);
        let b = sim.run(&cfg);
        assert_eq!(a.stats().delivered, b.stats().delivered);
        assert_eq!(a.stats().avg_latency, b.stats().avg_latency);
    }

    #[test]
    fn wormhole_latency_scales_with_packet_length() {
        let g = classic::hypercube(4);
        let sim = WormholeSim::new(&g);
        let base = WormholeConfig {
            vcs: 5,
            injection_rate: 0.01,
            cycles: 4_000,
            ..WormholeConfig::default()
        };
        let short = sim.run(&WormholeConfig {
            packet_flits: 2,
            ..base.clone()
        });
        let long = sim.run(&WormholeConfig {
            packet_flits: 12,
            ..base
        });
        assert!(
            long.stats().avg_latency > short.stats().avg_latency + 5.0,
            "long {} vs short {}",
            long.stats().avg_latency,
            short.stats().avg_latency
        );
    }

    #[test]
    fn tracing_does_not_perturb_wormhole_and_records_credit_stalls() {
        // Congested hop-indexed run: small buffers + long packets force
        // buffer-full probe failures, i.e. credit stalls.
        let g = classic::torus2d(4);
        let sim = WormholeSim::new(&g);
        let cfg = WormholeConfig {
            vcs: 8,
            buffer_flits: 1,
            packet_flits: 8,
            injection_rate: 0.05,
            cycles: 2_000,
            ..WormholeConfig::default()
        };
        let plain = sim.run(&cfg);
        let tc = TraceConfig::with_interval(50);
        let (traced, trace) = sim.run_traced(&cfg, &Obs::disabled(), 0, Some(&tc));
        assert_eq!(plain.stats().injected, traced.stats().injected);
        assert_eq!(plain.stats().delivered, traced.stats().delivered);
        assert_eq!(plain.stats().avg_latency, traced.stats().avg_latency);
        let trace = trace.unwrap();
        assert_eq!(trace.shards, 1);
        let sum = trace.summarize(3);
        assert!(sum.injected > 0, "cycle events carry injection deltas");
        assert!(sum.credit_stalls > 0, "tiny buffers must stall credits");
        assert!(!sum.hot_links.is_empty());
        // deterministic across repeat runs
        let (_, trace2) = sim.run_traced(&cfg, &Obs::disabled(), 0, Some(&tc));
        assert_eq!(trace2.unwrap().to_jsonl(), trace.to_jsonl());
    }

    #[test]
    fn fault_kills_destroy_worms_but_adaptive_routing_keeps_delivering() {
        use crate::fault::FaultSpec;
        use crate::router::DetourRouter;
        let g = classic::hypercube(5);
        let router = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
        let mut sim = WormholeSim::with_router(router, &g);
        let spec = FaultSpec::parse("script:node@500:3+link@800:0-1+link@800:4-5").unwrap();
        let plan = FaultPlan::compile(&spec, &g, 0xabcd).unwrap();
        sim.set_fault_plan(Some(plan));
        let cfg = WormholeConfig {
            vcs: 6,
            injection_rate: 0.02,
            cycles: 6_000,
            ..WormholeConfig::default()
        };
        let out = sim.run(&cfg);
        assert!(!out.is_deadlocked(), "adaptive routing must not wedge");
        let s = out.stats();
        assert!(s.dropped > 0, "traffic touching node 3 must be destroyed");
        assert!(s.delivered > 0);
        assert!(
            s.injected >= s.delivered + s.dropped,
            "injected {} < delivered {} + dropped {}",
            s.injected,
            s.delivered,
            s.dropped
        );
        // the dead node stops injecting: repeat runs stay deterministic
        let again = sim.run(&cfg);
        assert_eq!(s.injected, again.stats().injected);
        assert_eq!(s.delivered, again.stats().delivered);
        assert_eq!(s.dropped, again.stats().dropped);
    }

    #[test]
    fn empty_fault_plan_matches_no_plan() {
        let g = classic::torus2d(4);
        let plain = WormholeSim::new(&g);
        let mut faulted = WormholeSim::new(&g);
        faulted.set_fault_plan(Some(FaultPlan::empty(g.node_count() as u32)));
        let cfg = WormholeConfig {
            vcs: 8,
            injection_rate: 0.05,
            cycles: 2_000,
            ..WormholeConfig::default()
        };
        let a = plain.run(&cfg);
        let b = faulted.run(&cfg);
        assert_eq!(a.stats().injected, b.stats().injected);
        assert_eq!(a.stats().delivered, b.stats().delivered);
        assert_eq!(a.stats().avg_latency, b.stats().avg_latency);
        assert_eq!(b.stats().dropped, 0);
    }

    #[test]
    fn codec_router_backend_behaves_like_the_table() {
        use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
        use ipg_core::tuple_routing::ShortestTupleRouter;
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(2));
        let g = spec.fast_undirected_csr().unwrap();
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let router = ShortestTupleRouter::new(tn).unwrap();
        let sim = WormholeSim::with_router(router, &g);
        let cfg = WormholeConfig {
            vcs: 6,
            injection_rate: 0.01,
            cycles: 4_000,
            ..WormholeConfig::default()
        };
        let out = sim.run(&cfg);
        assert!(!out.is_deadlocked());
        let s = out.stats();
        assert!(s.injected > 0);
        assert!(
            s.delivered as f64 >= 0.95 * s.injected as f64,
            "delivered {} of {}",
            s.delivered,
            s.injected
        );
    }
}
