//! The synchronous simulation engine.
//!
//! Time advances in cycles. Each node owns one FIFO output queue per
//! outgoing link; a link forwards one packet every `service interval`
//! cycles (off-module links may be slower, modeling the §5.4 regime where
//! on-chip links run at a higher clock rate). Arriving packets are either
//! consumed (destination reached) or appended to the next output queue.
//! Injection is Bernoulli(p) per node per cycle in law, drawn as one
//! geometric gap per packet (injection contract v2,
//! [`crate::rng::InjectionSchedule`]), with uniform random destinations.
//!
//! # Execution model: shards, mailboxes, and a two-phase cycle
//!
//! Nodes are partitioned into contiguous **shards** (a pure function of the
//! node count — never of the worker count). Each cycle runs as:
//!
//! 1. **Phase A** (parallel over shards): every node due to inject this
//!    cycle (its gap, drawn from its private RNG stream, ends here)
//!    enqueues into its local link FIFO; every ready link launches its head packet into the
//!    shard's **outbox** as a plain-value message stamped with its arrival
//!    wheel slot.
//! 2. **Merge** (sequential): outboxes are drained in shard order and each
//!    message is appended to the *destination* shard's arrival wheel.
//!    Because outbox contents are in (node, link) order and shards are
//!    merged in index order, wheel-slot contents are identical for every
//!    worker count.
//! 3. **Phase B** (parallel over shards): each shard drains its own wheel
//!    slot for this cycle boundary — delivering packets (per-shard stat
//!    accumulators, atomic obs counters) or re-enqueueing them on the next
//!    local link FIFO.
//!
//! One driver, `ShardRange`, runs these steps over a contiguous run of
//! shards: [`Simulator`] over all of them, the dist worker over its own,
//! adding only the frame exchange between the merge's two halves
//! (`phase_split`, `phase_merge`; DESIGN.md §15).
//!
//! Randomness comes from [`crate::rng::node_stream`]: one counter-based
//! stream per node, so a node's draws depend only on `(seed, node id,
//! draw index)` — the engine is bit-identical for every `IPG_THREADS`,
//! including 1.
//!
//! # Flat data layout
//!
//! Queued packets live in a per-shard slab pool (struct-of-arrays: `dst`,
//! `born`, `tagged`, `next`); link FIFOs are circular intrusive lists
//! threaded through the pool's `next` array (a link keeps only its
//! tail; the head is `next[tail]`), and the arrival wheel and outboxes
//! recycle their buffers — so steady-state cycles perform no heap
//! allocation at all.
//!
//! A shard keeps its links in parallel arrays. Bytes per directed link
//! in a run without obs or trace (DESIGN.md §10):
//!
//! | state | was | now |
//! |---|---|---|
//! | `to` (next node) | 4 | 0 in-process (a view of the run's CSR targets); 4 in a dist worker |
//! | service interval | 4 (`u32` per link) | 1/8 (one off-module bit; the shard keeps the `[on, off]` pair) |
//! | `next_free` (link clock) | 8 (`u64`) | 4 (`u32`, saturating at `u32::MAX`, a cycle no run reaches) |
//! | FIFO head | 4 | 0 (`pool.next[tail]`) |
//! | FIFO tail | 4 | 4 |
//! | `qlen` | 4 | 0 (4 when obs or trace reads it) |
//! | owning node | 4 | 0 (sampled gauges walk `link_of`) |
//! | active-link worklist bit | 1/8 | 1/8 |
//! | **total** | **32.125** | **8.25** in-process; **12.25** in a dist worker |
//!
//! Per node, the shard keeps `link_of` and the node's RNG stream; the
//! per-node busy-link count (4 bytes) is gone too. In-process, `to` and
//! `link_of` cost no extra bytes: they are the shard's slices of the
//! run's CSR targets and offsets, so the [`Csr`] a [`Simulator`] is
//! built from must outlive it (the `'g` lifetime). A dist worker has no
//! CSR and owns the copies it is shipped: 4 bytes per link and 4 per
//! node, plus one off-module flag byte per link on the wire, never an
//! interval. Both read node `local`'s links as `link_of[local] -
//! link_of[0] .. link_of[local + 1] - link_of[0]` (`row`, which the
//! wormhole engine reads its whole-CSR rows with too). Obs adds
//! `link_busy` (8), `queue_hw` (4) and `qlen` (4) per link, a trace
//! `link_busy` and `qlen`, a fault plan one dead flag (1).
//!
//! # Sparse cycle kernel
//!
//! At low injection rates almost every node is idle and almost every
//! FIFO is empty in a given cycle, so a cycle only touches the work in
//! flight (DESIGN.md §13):
//!
//! - injection decisions are drawn ahead of time in node-major chunks
//!   ([`crate::rng::InjectionSchedule`]); its contract is one geometric
//!   gap draw per node per chunk window and one more per packet, each
//!   injection's destination draws coming right before the next gap, so
//!   a chunk costs O(live nodes + packets) draws, not O(nodes × cycles);
//! - link service iterates a [`crate::worklist::Worklist`] of non-empty
//!   FIFOs in ascending (CSR) link order, maintained by the
//!   `fifo_push`/`fifo_pop` helpers that every queue mutation —
//!   including fault drains — goes through;
//! - phase B's arrival wheel is indexed by slot already; occupancy
//!   counters make empty slots and the end-of-run `tagged_in_flight`
//!   accounting O(1).
//!
//! The oracle is a reference model outside the crate
//! (`tests/reference/packet.rs`): a cycle-major loop that keeps every
//! node's pending injection cycle and visits every link, and it must
//! produce the same [`SimResult`].
//!
//! # Routing
//!
//! The engine is generic over [`Router`]: the all-pairs [`RoutingTable`]
//! for arbitrary graphs (O(N²) memory, ≤ 65,536 nodes) or the arithmetic
//! [`ipg_core::tuple_routing::ShortestTupleRouter`] for super-IP networks
//! (O(1) memory per query), which lifts the node-count ceiling entirely.

use crate::fault::{FaultPlan, LocalFault, ShardFaults};
use crate::rng::{node_stream, InjectionSchedule, NodeRng, SCHEDULE_CHUNK};
use crate::router::Router;
use crate::table::RoutingTable;
use crate::worklist::{FrozenBits, Worklist};
use ipg_core::fault::FaultView;
use ipg_core::graph::Csr;
use ipg_obs::{Counter, Histogram, Obs, ShardTracer, Span, Trace, TraceConfig, ENGINE_TRACK};
use rand::Rng;
use std::borrow::Cow;
use std::ops::Range;

/// Destination selection for injected packets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Traffic {
    /// Uniformly random destination ≠ source.
    Uniform,
    /// Bit-complement permutation: `dst = !src` (requires a power-of-two
    /// node count). The classic worst case for dimension-ordered meshes.
    BitComplement,
    /// Transpose permutation: swap the low and high halves of the node-id
    /// bits (requires a power-of-two node count with an even bit width).
    Transpose,
    /// Hotspot: with probability `fraction`, send to `target`; otherwise
    /// uniform.
    Hotspot {
        /// Probability of addressing the hotspot.
        fraction: f64,
        /// The hotspot node.
        target: u32,
    },
}

/// Switching technique (paper §5 distinguishes packet switching from
/// wormhole/cut-through for its latency arguments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Switching {
    /// Store-and-forward: a message is fully serialized at every hop
    /// (per-hop latency = interval × message_length).
    StoreForward,
    /// Virtual cut-through: the header advances after one service
    /// interval; the tail catches up once at the destination. Each link
    /// is still occupied for interval × message_length cycles.
    CutThrough,
}

/// Simulation parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Packets injected per node per cycle (Bernoulli probability).
    pub injection_rate: f64,
    /// Cycles before measurement starts.
    pub warmup_cycles: u32,
    /// Cycles during which injected packets are tagged for measurement.
    pub measure_cycles: u32,
    /// Extra cycles to let tagged packets drain.
    pub drain_cycles: u32,
    /// A link forwards one packet every this many cycles (≥ 1) when both
    /// endpoints share a module.
    pub on_module_interval: u32,
    /// Service interval of off-module links (≥ on_module_interval models
    /// slower off-chip signaling or narrower channels).
    pub off_module_interval: u32,
    /// RNG seed (simulations are deterministic given the seed; each node
    /// derives its own stream via [`crate::rng::node_stream`]).
    pub seed: u64,
    /// Message length in flits (scales per-link occupancy; with
    /// store-and-forward it also scales per-hop latency).
    pub message_length: u32,
    /// Store-and-forward or virtual cut-through.
    pub switching: Switching,
    /// Destination pattern.
    pub traffic: Traffic,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            injection_rate: 0.01,
            warmup_cycles: 1_000,
            measure_cycles: 4_000,
            drain_cycles: 20_000,
            on_module_interval: 1,
            off_module_interval: 1,
            seed: 0x5eed_1b9a_44c0_ffee,
            message_length: 1,
            switching: Switching::StoreForward,
            traffic: Traffic::Uniform,
        }
    }
}

/// Aggregated results of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimResult {
    /// Tagged packets injected during the measurement window.
    pub injected: u64,
    /// Tagged packets delivered before the run ended.
    pub delivered: u64,
    /// Packets delivered that were injected *outside* the measurement
    /// window (warmup or drain traffic): drained, but not measured.
    pub unmeasured_delivered: u64,
    /// Tagged packets still buffered when the run ended. Together with
    /// `delivered` and `dropped_unreachable` this accounts for every
    /// tagged injection:
    /// `injected == delivered + in_flight_at_end + dropped_unreachable`,
    /// so a shortfall in `delivered` is attributable to saturation
    /// backlog or to faults, not to packets silently vanishing with the
    /// measurement window.
    pub in_flight_at_end: u64,
    /// Tagged packets dropped because a fault campaign left them without
    /// a usable route: no next hop on the faulted graph, arrival at a
    /// dead node, or buffered at a node when it died. Always 0 without a
    /// fault plan.
    pub dropped_unreachable: u64,
    /// Mean latency (cycles) of delivered tagged packets.
    pub avg_latency: f64,
    /// Max latency of delivered tagged packets.
    pub max_latency: u32,
    /// Delivered tagged packets per node per cycle of the measurement
    /// window (the accepted throughput).
    pub throughput: f64,
    /// Total cycles simulated.
    pub cycles: u32,
}

/// Target nodes per shard; the shard count is `clamp(n / 128, 1, 64)` —
/// a pure function of the node count, so shard boundaries (and therefore
/// results) never depend on the worker count.
const SHARD_TARGET_NODES: usize = 128;
/// Upper bound on the shard count (matches the pool's chunk granularity).
const MAX_SHARDS: usize = 64;

/// Freelist / FIFO terminator in the packet pool and link queues.
const NIL: u32 = u32::MAX;

/// A packet in motion between shards: launched in Phase A, merged into the
/// destination shard's arrival wheel, consumed in Phase B. Crate-visible
/// because the distributed worker ships these between processes (encoded
/// by `dist::frame`) with exactly the in-process merge semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Msg {
    /// Node the packet is arriving at.
    pub(crate) to: u32,
    /// Final destination.
    pub(crate) dst: u32,
    /// Injection cycle.
    pub(crate) born: u32,
    /// Injected during the measurement window?
    pub(crate) tagged: bool,
    /// Arrival wheel slot (precomputed from launch cycle + head advance).
    pub(crate) slot: u32,
}

/// Slab pool of queued packets, struct-of-arrays. Link FIFOs are circular
/// intrusive lists threaded through `next`; freed slots form a freelist
/// through the same array, so steady-state alloc/free touches no
/// allocator.
#[derive(Default)]
struct Pool {
    dst: Vec<u32>,
    born: Vec<u32>,
    tagged: Vec<bool>,
    next: Vec<u32>,
    free: u32,
    /// Slots currently allocated (the pool-occupancy telemetry gauge).
    live: u32,
}

impl Pool {
    fn reset(&mut self) {
        self.dst.clear();
        self.born.clear();
        self.tagged.clear();
        self.next.clear();
        self.free = NIL;
        self.live = 0;
    }

    #[inline]
    fn alloc(&mut self, dst: u32, born: u32, tagged: bool) -> u32 {
        self.live += 1;
        if self.free != NIL {
            let i = self.free;
            self.free = self.next[i as usize];
            self.dst[i as usize] = dst;
            self.born[i as usize] = born;
            self.tagged[i as usize] = tagged;
            self.next[i as usize] = NIL;
            i
        } else {
            let i = self.dst.len() as u32;
            self.dst.push(dst);
            self.born.push(born);
            self.tagged.push(tagged);
            self.next.push(NIL);
            i
        }
    }

    #[inline]
    fn release(&mut self, i: u32) {
        self.next[i as usize] = self.free;
        self.free = i;
        self.live -= 1;
    }
}

/// Per-link state, struct-of-arrays over the links owned by one shard:
/// 8 bytes per link plus one bit, and `to` (the module docs' table).
struct Links<'g> {
    /// Each link's next node: the shard's slice of the CSR targets
    /// in-process, the shipped copy in a dist worker.
    to: Cow<'g, [u32]>,
    /// Last packet of each link's FIFO, [`NIL`] when it is empty. The
    /// FIFO is a circular list through [`Pool::next`]: the head is
    /// `next[tail]`.
    tail: Vec<u32>,
    /// First cycle the link may launch again. Saturates at `u32::MAX`,
    /// which no cycle of a run reaches.
    next_free: Vec<u32>,
    /// Service interval of the two link classes: `[on-module,
    /// off-module]`.
    speed: [u32; 2],
    /// Links of the off-module class (`speed[1]`).
    off_module: FrozenBits,
    /// FIFO lengths, allocated only when obs or trace reads them.
    qlen: Vec<u32>,
}

impl Links<'_> {
    fn len(&self) -> usize {
        self.to.len()
    }

    #[inline]
    fn interval(&self, li: usize) -> u32 {
        self.speed[usize::from(self.off_module.get(li))]
    }

    #[inline]
    fn is_empty(&self, li: usize) -> bool {
        self.tail[li] == NIL
    }

    /// The slowest service interval among the links (1 without links).
    fn max_interval(&self) -> u32 {
        let slow = self.off_module.count_ones();
        let mut m = 1;
        if slow < self.len() {
            m = m.max(self.speed[0]);
        }
        if slow > 0 {
            m = m.max(self.speed[1]);
        }
        m
    }

    /// Append `p` to link `li`'s FIFO; returns whether it was empty.
    #[inline]
    fn enqueue(&mut self, li: usize, p: u32, pool: &mut Pool) -> bool {
        let t = self.tail[li];
        let was_empty = t == NIL;
        if was_empty {
            pool.next[p as usize] = p;
        } else {
            pool.next[p as usize] = pool.next[t as usize];
            pool.next[t as usize] = p;
        }
        self.tail[li] = p;
        if !self.qlen.is_empty() {
            self.qlen[li] += 1;
        }
        was_empty
    }

    /// Take the head of link `li`'s FIFO, which must be non-empty;
    /// returns it and whether the FIFO is now empty.
    #[inline]
    fn dequeue(&mut self, li: usize, pool: &mut Pool) -> (u32, bool) {
        let t = self.tail[li];
        let head = pool.next[t as usize];
        let now_empty = head == t;
        if now_empty {
            self.tail[li] = NIL;
        } else {
            pool.next[t as usize] = pool.next[head as usize];
        }
        if !self.qlen.is_empty() {
            self.qlen[li] -= 1;
        }
        (head, now_empty)
    }
}

/// One contiguous node range with everything its cycle work touches:
/// link FIFOs, packet pool, per-node RNG streams, outbox, arrival wheel.
/// Crate-visible so the distributed worker (`dist::worker`) can assemble
/// its local shards; only [`ShardRange`] drives them.
pub(crate) struct Shard<'g> {
    /// First global node id.
    base: u32,
    /// Nodes in this shard.
    node_count: u32,
    /// Per-node link offsets (length `node_count + 1`), relative to
    /// `link_of[0]`: the shard's slice of the CSR offsets in-process, the
    /// shipped copy (starting at 0) in a dist worker. Read through
    /// [`Shard::node_links`].
    link_of: Cow<'g, [u32]>,
    links: Links<'g>,
    pool: Pool,
    rngs: Vec<NodeRng>,
    /// Chunked injection events precomputed from the node streams.
    sched: InjectionSchedule,
    /// Links with a non-empty FIFO. Iterated ascending by the phase-A
    /// service loop, so links launch in CSR order.
    active_links: Worklist,
    /// Scratch for snapshotting `active_links` while the loop mutates it.
    active_scratch: Vec<u32>,
    /// O(1) occupancy counters: packets queued in FIFOs / waiting in the
    /// arrival wheel, total and tagged-only (the in-flight accounting).
    queued_total: u64,
    tagged_queued: u64,
    wheel_live: u64,
    tagged_wheel: u64,
    outbox: Vec<Msg>,
    wheel: Vec<Vec<Msg>>,
    stats: RunTotals,
    link_busy: Vec<u64>,
    queue_hw: Vec<u32>,
    /// This shard's slice of the run's fault plan (empty when no plan).
    faults: ShardFaults,
    /// Dead flags for the shard's outgoing links; empty when no plan is
    /// installed, so the healthy hot path pays one `is_empty` branch.
    link_dead: Vec<bool>,
    /// Flight-recorder emitter for this shard (`None` when tracing is
    /// off). Owned by the shard, so tracing in the parallel phases is
    /// lock-free; events carry only computation-derived payloads, so
    /// simulation state and results are untouched (DESIGN.md §11).
    tracer: Option<ShardTracer>,
}

/// Every per-cycle metric handle the shards write, shared by all shards
/// of a run. Counters and histograms are atomic, so concurrent updates
/// from worker threads commute and barrier-time values stay
/// deterministic.
pub(crate) struct EngineObs {
    injected: Counter,
    injected_all: Counter,
    dropped: Counter,
    delivered: Counter,
    unmeasured: Counter,
    latency: Histogram,
}

impl EngineObs {
    /// Register (or re-attach to) the per-cycle engine metrics on `obs`.
    /// The in-process run, the dist worker and the dist coordinator all
    /// attach here, so merged registries line up name for name.
    pub(crate) fn attach(obs: &Obs) -> EngineObs {
        EngineObs {
            injected: obs.counter("engine.injected_tagged"),
            injected_all: obs.counter("engine.injected_total"),
            dropped: obs.counter("engine.dropped_unreachable"),
            delivered: obs.counter("engine.delivered_tagged"),
            unmeasured: obs.counter("engine.delivered_unmeasured"),
            latency: obs.histogram("engine.latency_cycles"),
        }
    }
}

/// Switch `span` at the top of `cycle` when a run phase starts there:
/// `measure` after the warmup, `drain` after the measurement window.
/// The caller opens `warmup` before the first cycle. Shared by the
/// in-process run and the dist coordinator.
pub(crate) fn phase_span(obs: &Obs, cfg: &SimConfig, cycle: u32, span: &mut Option<Span>) {
    let drain_at = cfg.warmup_cycles + cfg.measure_cycles;
    for (at, name) in [(cfg.warmup_cycles, "measure"), (drain_at, "drain")] {
        if cycle == at {
            span.take();
            *span = Some(obs.span(name));
        }
    }
}

/// The metric window boundary the end of `cycle` reaches (none if 0).
pub(crate) fn window_end(window: u32, cycle: u32) -> Option<u64> {
    (window > 0 && (cycle + 1) % window == 0).then(|| u64::from(cycle) + 1)
}

/// Parameters of one run, copied into every shard closure.
#[derive(Clone, Copy)]
pub(crate) struct RunParams {
    n: u32,
    seed: u64,
    injection_rate: f64,
    traffic: Traffic,
    msg_len: u32,
    store_forward: bool,
    tag_lo: u32,
    tag_hi: u32,
    pub(crate) wheel_len: u32,
    tail_penalty: u32,
    pub(crate) total_cycles: u32,
}

/// Derive one run's [`RunParams`] from the config. `max_interval` must
/// bound the service interval of **every** link of the network, not
/// just the local shard range's: a head advance as long as the wheel
/// would land in a slot drained too early. Any larger bound times
/// arrivals identically, so a distributed worker derives it from the
/// config's two link classes instead of scanning the graph.
pub(crate) fn cycle_params(n: u32, cfg: &SimConfig, max_interval: u32) -> RunParams {
    let msg_len = cfg.message_length.max(1);
    let store_forward = cfg.switching == Switching::StoreForward;
    // Arrival wheel: one slot per possible head-advance value. A link
    // with service interval k serves one message per k·L cycles; the
    // head advances after k (cut-through) or k·L (store-and-forward)
    // cycles — slow off-module signaling, §5.4.
    let max_advance = if store_forward {
        max_interval * msg_len
    } else {
        max_interval
    };
    let wheel_len = max_advance + 1;
    RunParams {
        n,
        seed: cfg.seed,
        injection_rate: cfg.injection_rate,
        traffic: cfg.traffic,
        msg_len,
        store_forward,
        tag_lo: cfg.warmup_cycles,
        tag_hi: cfg.warmup_cycles + cfg.measure_cycles,
        wheel_len,
        // Cut-through: the tail catches up with the header once, at
        // the destination.
        tail_penalty: match cfg.switching {
            Switching::StoreForward => 0,
            Switching::CutThrough => (msg_len - 1) * cfg.on_module_interval,
        },
        total_cycles: cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles,
    }
}

/// Per-run totals, also each shard's accumulators. The distributed
/// worker ships its range's sum in its final frame; the coordinator
/// absorbs every worker's totals and converts the sum to a [`SimResult`]
/// with exactly the in-process arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RunTotals {
    pub(crate) injected: u64,
    pub(crate) delivered: u64,
    pub(crate) unmeasured: u64,
    pub(crate) dropped: u64,
    pub(crate) latency_sum: u64,
    pub(crate) max_latency: u32,
    pub(crate) in_flight: u64,
}

impl RunTotals {
    /// Fold another total in (coordinator-side aggregation).
    pub(crate) fn absorb(&mut self, o: &RunTotals) {
        self.injected += o.injected;
        self.delivered += o.delivered;
        self.unmeasured += o.unmeasured;
        self.dropped += o.dropped;
        self.latency_sum += o.latency_sum;
        self.max_latency = self.max_latency.max(o.max_latency);
        self.in_flight += o.in_flight;
    }

    /// The [`SimResult`] these whole-run totals describe.
    pub(crate) fn into_sim_result(
        self,
        n: u64,
        measure_cycles: u32,
        total_cycles: u32,
    ) -> SimResult {
        debug_assert_eq!(
            self.injected,
            self.delivered + self.in_flight + self.dropped
        );
        SimResult {
            injected: self.injected,
            delivered: self.delivered,
            unmeasured_delivered: self.unmeasured,
            in_flight_at_end: self.in_flight,
            dropped_unreachable: self.dropped,
            avg_latency: if self.delivered == 0 {
                0.0
            } else {
                self.latency_sum as f64 / self.delivered as f64
            },
            max_latency: self.max_latency,
            throughput: self.delivered as f64 / (n as f64 * f64::from(measure_cycles)),
            cycles: total_cycles,
        }
    }
}

impl<'g> Shard<'g> {
    /// Construct a quiescent shard over `[base, base + node_count)` from
    /// its per-node link offsets, its links' next nodes `to`, which of
    /// them are off-module, and the `[on, off]` service intervals; run
    /// state starts empty until [`Shard::prepare_run`]. `link_of` and
    /// `to` are borrowed CSR rows ([`Csr::rows`]) or owned shipped ones;
    /// the dist worker checks shipped arrays against these preconditions
    /// first.
    pub(crate) fn assemble(
        base: u32,
        node_count: u32,
        link_of: Cow<'g, [u32]>,
        to: Cow<'g, [u32]>,
        off_module: FrozenBits,
        speed: [u32; 2],
    ) -> Shard<'g> {
        debug_assert_eq!(link_of.len(), node_count as usize + 1);
        debug_assert_eq!(
            (link_of[node_count as usize] - link_of[0]) as usize,
            to.len()
        );
        debug_assert_eq!(to.len(), off_module.len());
        let nl = to.len();
        let links = Links {
            to,
            tail: vec![NIL; nl],
            next_free: vec![0; nl],
            speed,
            off_module,
            qlen: Vec::new(),
        };
        Shard {
            base,
            node_count,
            link_of,
            links,
            pool: Pool {
                free: NIL,
                ..Pool::default()
            },
            rngs: Vec::new(),
            sched: InjectionSchedule::default(),
            active_links: Worklist::new(nl),
            active_scratch: Vec::new(),
            queued_total: 0,
            tagged_queued: 0,
            wheel_live: 0,
            tagged_wheel: 0,
            outbox: Vec::new(),
            wheel: Vec::new(),
            stats: RunTotals::default(),
            link_busy: Vec::new(),
            queue_hw: Vec::new(),
            faults: ShardFaults::default(),
            link_dead: Vec::new(),
            tracer: None,
        }
    }

    /// Reset every piece of run state for a fresh run: FIFOs, pool,
    /// per-node RNG streams, worklists, occupancy counters, wheel
    /// geometry, telemetry arrays, the shard's fault slice, and the
    /// tracer. `track_id` is the tracer's track number — the shard's
    /// **global** shard index, which equals the local index in-process
    /// but not in a distributed worker that owns shards `[lo, hi)`.
    fn prepare_run(
        &mut self,
        pr: &RunParams,
        track: bool,
        track_links: bool,
        plan: Option<&FaultPlan>,
        trace: Option<&TraceConfig>,
        track_id: u16,
    ) {
        let nl = self.links.len();
        self.links.next_free.fill(0);
        self.links.tail.fill(NIL);
        self.links.qlen = vec![0u32; if track_links { nl } else { 0 }];
        self.pool.reset();
        self.rngs = (self.base..self.base + self.node_count)
            .map(|v| node_stream(pr.seed, v))
            .collect();
        self.sched.reset();
        self.active_links.clear();
        self.active_scratch.clear();
        self.queued_total = 0;
        self.tagged_queued = 0;
        self.wheel_live = 0;
        self.tagged_wheel = 0;
        self.outbox.clear();
        self.wheel.clear();
        self.wheel.resize_with(pr.wheel_len as usize, Vec::new);
        self.stats = RunTotals::default();
        self.link_busy = vec![0u64; if track_links { nl } else { 0 }];
        self.queue_hw = vec![0u32; if track { nl } else { 0 }];
        self.link_dead = vec![false; if plan.is_some() { nl } else { 0 }];
        self.faults = match plan {
            Some(p) => p.shard_events(self.base, self.node_count, |u, v| {
                self.link_toward(u, v) as u32
            }),
            None => ShardFaults::default(),
        };
        self.tracer = trace.map(|tc| {
            let mut t = ShardTracer::new(track_id, tc);
            t.init_links(nl);
            t
        });
    }

    /// Append one merged arrival to the wheel, maintaining the occupancy
    /// counters. The only sanctioned wheel insertion — the range merge
    /// goes through it, so in-flight accounting can never desync.
    #[inline]
    fn wheel_push(&mut self, msg: Msg) {
        self.wheel[msg.slot as usize].push(msg);
        self.wheel_live += 1;
        if msg.tagged {
            self.tagged_wheel += 1;
        }
    }

    /// Node `local`'s links, as indices into the shard's link arrays.
    #[inline]
    fn node_links(&self, local: usize) -> Range<usize> {
        row(&self.link_of, local)
    }

    /// The node owning link `li`: the last one whose links start at or
    /// before it (a binary search over [`Shard::node_links`]'s starts).
    fn owner_of(&self, li: usize) -> u32 {
        let first = self.link_of[0];
        let after = self
            .link_of
            .partition_point(|&o| (o - first) as usize <= li);
        self.base + (after - 1) as u32
    }

    fn link_toward(&self, u: u32, v: u32) -> usize {
        link_toward(&self.link_of, &self.links.to, self.base, u, v)
    }

    /// Enqueue pool slot `p` on link `li`. The only sanctioned FIFO push:
    /// it keeps the active-link worklist and the queued-occupancy
    /// counters in lockstep with the queue state (the DESIGN.md §13
    /// activation invariant).
    #[inline]
    fn fifo_push(&mut self, li: usize, p: u32) {
        let was_empty = self.links.enqueue(li, p, &mut self.pool);
        self.queued_total += 1;
        if self.pool.tagged[p as usize] {
            self.tagged_queued += 1;
        }
        if was_empty {
            self.active_links.insert(li as u32);
        }
    }

    /// Dequeue the head of link `li` (must be non-empty). The only
    /// sanctioned FIFO pop — see [`Shard::fifo_push`].
    #[inline]
    fn fifo_pop(&mut self, li: usize) -> u32 {
        let (p, now_empty) = self.links.dequeue(li, &mut self.pool);
        self.queued_total -= 1;
        if self.pool.tagged[p as usize] {
            self.tagged_queued -= 1;
        }
        if now_empty {
            self.active_links.remove(li as u32);
        }
        p
    }

    /// Nodes with a non-empty out-FIFO, and the deepest FIFO (0 unless
    /// obs or trace keeps `qlen`): one ascending walk of the active
    /// links against `link_of`, so a node is counted once however many
    /// of its links are active. Only sampled trace cycles call it.
    fn busy_nodes_and_deepest(&self) -> (u32, u32) {
        let (mut busy, mut deepest) = (0u32, 0u32);
        let (mut node, mut last) = (0usize, usize::MAX);
        self.active_links.for_each(|li| {
            while self.node_links(node).end <= li as usize {
                node += 1;
            }
            if node != last {
                busy += 1;
                last = node;
            }
            if let Some(&q) = self.links.qlen.get(li as usize) {
                deepest = deepest.max(q);
            }
        });
        (busy, deepest)
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn accept<R: Router + ?Sized>(
        &mut self,
        at: u32,
        dst: u32,
        born: u32,
        tagged: bool,
        router: &R,
        fv: Option<&FaultView>,
        c_dropped: &Counter,
    ) {
        let hop = match fv {
            Some(view) => router.next_hop_faulted(at, dst, view),
            None => router.next_hop(at, dst),
        };
        let hop = match hop {
            Some(h) => h,
            // Under a fault campaign, "no usable hop" is an accounted
            // outcome, not a bug: the packet is dropped as unreachable.
            None if fv.is_some() => {
                self.drop_packet(tagged, c_dropped);
                return;
            }
            // ipg-analyze: allow(PANIC001) reason="simulated graphs are connected; an unroutable destination is a construction bug"
            None => panic!("no route from {at} to {dst}"),
        };
        let li = self.link_toward(at, hop);
        let p = self.pool.alloc(dst, born, tagged);
        self.fifo_push(li, p);
        if !self.queue_hw.is_empty() {
            self.queue_hw[li] = self.queue_hw[li].max(self.links.qlen[li]);
        }
    }

    /// Account one packet lost to the fault campaign. Tagged drops feed
    /// the `SimResult` conservation invariant; the counter sees every
    /// drop.
    #[inline]
    fn drop_packet(&mut self, tagged: bool, c_dropped: &Counter) {
        if tagged {
            self.stats.dropped += 1;
        }
        c_dropped.incr();
    }

    /// Apply one local kill. Dead links re-route their queued packets at
    /// the owning node through the already-updated fault view (adaptive
    /// routers sidestep; oblivious routers re-strand them); a dying node
    /// takes its buffered packets down with it.
    fn apply_fault<R: Router + ?Sized>(
        &mut self,
        f: LocalFault,
        router: &R,
        view: &FaultView,
        c_dropped: &Counter,
    ) {
        match f {
            LocalFault::Link(li) => {
                let li = li as usize;
                if self.link_dead[li] {
                    return;
                }
                self.link_dead[li] = true;
                let owner = self.owner_of(li);
                // ipg-analyze: allow(ALLOC001) reason="fault application runs once per injected fault event, not per cycle; orphan list is bounded by the dead link's queue"
                let mut orphans = Vec::new();
                while !self.links.is_empty(li) {
                    let p = self.fifo_pop(li);
                    let i = p as usize;
                    orphans.push((self.pool.dst[i], self.pool.born[i], self.pool.tagged[i]));
                    self.pool.release(p);
                }
                for (dst, born, tagged) in orphans {
                    self.accept(owner, dst, born, tagged, router, Some(view), c_dropped);
                }
            }
            LocalFault::Node(local) => {
                for li in self.node_links(local as usize) {
                    self.link_dead[li] = true;
                    while !self.links.is_empty(li) {
                        let p = self.fifo_pop(li);
                        let tagged = self.pool.tagged[p as usize];
                        self.pool.release(p);
                        self.drop_packet(tagged, c_dropped);
                    }
                }
            }
        }
    }

    /// Inject one scheduled packet: stat and counter updates plus routing
    /// it into a FIFO.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn inject_one<R: Router + ?Sized>(
        &mut self,
        src: u32,
        dst: u32,
        cycle: u32,
        pr: &RunParams,
        router: &R,
        fv: Option<&FaultView>,
        eo: &EngineObs,
    ) {
        let tagged = cycle >= pr.tag_lo && cycle < pr.tag_hi;
        if tagged {
            self.stats.injected += 1;
            eo.injected.incr();
        }
        eo.injected_all.incr();
        self.accept(src, dst, cycle, tagged, router, fv, &eo.dropped);
    }

    /// Serve link `li`: if it is alive, free, and non-empty, launch its
    /// head packet into the outbox stamped with its arrival wheel slot.
    #[inline]
    fn launch(&mut self, li: usize, cycle: u32, pr: &RunParams) {
        if !self.link_dead.is_empty() && self.link_dead[li] {
            return; // dead links refuse launches
        }
        if self.links.next_free[li] <= cycle && !self.links.is_empty(li) {
            let p = self.fifo_pop(li);
            let interval = self.links.interval(li);
            // occupancy: the whole message crosses the link
            let occupancy = u64::from(interval) * u64::from(pr.msg_len);
            self.links.next_free[li] =
                u32::try_from(u64::from(cycle) + occupancy).unwrap_or(u32::MAX);
            if !self.link_busy.is_empty() {
                self.link_busy[li] += occupancy;
            }
            // forward progress of the head
            let advance = if pr.store_forward {
                interval * pr.msg_len
            } else {
                interval
            };
            let slot = (cycle + advance) % pr.wheel_len;
            self.outbox.push(Msg {
                to: self.links.to[li],
                dst: self.pool.dst[p as usize],
                born: self.pool.born[p as usize],
                tagged: self.pool.tagged[p as usize],
                slot,
            });
            self.pool.release(p);
        }
    }

    /// Phase A: apply kills due this cycle (plan order), then injection
    /// (node order), then link service (link order), launching departures
    /// into the local outbox. Counter updates are atomic adds,
    /// order-independent across shards. Injection comes off the chunked
    /// schedule, service off the active-link worklist.
    fn phase_a<R: Router + ?Sized>(
        &mut self,
        cycle: u32,
        pr: &RunParams,
        router: &R,
        fv: Option<&FaultView>,
        eo: &EngineObs,
    ) {
        if let Some(view) = fv {
            while let Some(f) = self.faults.next_due(cycle) {
                self.apply_fault(f, router, view, &eo.dropped);
            }
        }
        if self.sched.needs_refill(cycle) {
            // Node-major chunk refill in the per-node cycle-major draw
            // order (see [`InjectionSchedule`]).
            let base = self.base;
            let (n, traffic) = (pr.n, pr.traffic);
            self.sched.refill(
                cycle..cycle + SCHEDULE_CHUNK.min(pr.total_cycles - cycle),
                self.node_count,
                pr.injection_rate,
                &mut self.rngs,
                |local| fv.is_some_and(|view| view.node_dead(base + local)),
                |local, rng| pick_destination(n, base + local, traffic, rng),
            );
        }
        let mut injected_now = 0u32;
        // Index iteration: `inject_one` needs `&mut self` while the due
        // bucket borrows `self.sched`.
        for i in 0..self.sched.due(cycle).len() {
            let (local, dst) = self.sched.due(cycle)[i];
            let src = self.base + local;
            if fv.is_some_and(|view| view.node_dead(src)) {
                continue; // died mid-chunk: its pre-drawn events are void
            }
            injected_now += 1;
            self.inject_one(src, dst, cycle, pr, router, fv, eo);
        }
        // Snapshot the non-empty links in ascending order. A launch can
        // only *empty* a local FIFO (arrivals land via the wheel next
        // phase), so the snapshot covers every link with work.
        let mut scratch = std::mem::take(&mut self.active_scratch);
        scratch.clear();
        self.active_links.collect_into(&mut scratch);
        for &li in &scratch {
            self.launch(li as usize, cycle, pr);
        }
        self.active_scratch = scratch;
        let launched = self.outbox.len() as u64;
        let c = u64::from(cycle);
        if self.tracer.as_ref().is_some_and(|t| t.sampled(c)) {
            let (busy, _) = self.busy_nodes_and_deepest();
            if let Some(t) = self.tracer.as_mut() {
                t.phase_a(c, injected_now, launched as u32);
                t.outbox_depth(c, launched);
                t.link_util(c, &self.link_busy);
                t.worklist(c, self.active_links.len(), busy, self.queued_total);
            }
        }
    }

    /// Phase B: drain this cycle boundary's arrival wheel slot — deliver
    /// or re-enqueue. Counter/histogram updates are atomic adds, so their
    /// end-of-phase values are independent of shard interleaving.
    fn phase_b<R: Router + ?Sized>(
        &mut self,
        cycle: u32,
        slot: usize,
        pr: &RunParams,
        router: &R,
        fv: Option<&FaultView>,
        eo: &EngineObs,
    ) {
        let sampling = self
            .tracer
            .as_ref()
            .is_some_and(|t| t.sampled(u64::from(cycle)));
        if !sampling && self.wheel[slot].is_empty() {
            return; // O(1) skip: nothing arrives at this boundary
        }
        let msgs = std::mem::take(&mut self.wheel[slot]);
        self.wheel_live -= msgs.len() as u64;
        let mut delivered_now = 0u32;
        for msg in &msgs {
            if msg.tagged {
                self.tagged_wheel -= 1;
            }
            if fv.is_some_and(|view| view.node_dead(msg.to)) {
                // dead nodes neither deliver nor forward
                self.drop_packet(msg.tagged, &eo.dropped);
                continue;
            }
            if msg.to == msg.dst {
                delivered_now += 1;
                if msg.tagged {
                    self.stats.delivered += 1;
                    let lat = cycle + 1 - msg.born + pr.tail_penalty;
                    self.stats.latency_sum += u64::from(lat);
                    self.stats.max_latency = self.stats.max_latency.max(lat);
                    eo.delivered.incr();
                    eo.latency.observe(u64::from(lat));
                } else {
                    self.stats.unmeasured += 1;
                    eo.unmeasured.incr();
                }
            } else {
                self.accept(
                    msg.to,
                    msg.dst,
                    msg.born,
                    msg.tagged,
                    router,
                    fv,
                    &eo.dropped,
                );
            }
        }
        let drained = msgs.len() as u32;
        // return the drained buffer so steady-state cycles don't allocate
        let mut buf = msgs;
        buf.clear();
        self.wheel[slot] = buf;
        if sampling {
            // Gauges read the O(1) occupancy counters the fifo helpers
            // and the wheel merge maintain; only the busy-node count and
            // the deepest-queue probe walk anything, and only the links
            // that actually hold packets.
            let (busy, deepest) = self.busy_nodes_and_deepest();
            if let Some(t) = self.tracer.as_mut() {
                let c = u64::from(cycle);
                t.phase_b(c, drained, delivered_now);
                t.active_nodes(c, u64::from(busy));
                t.pool_occupancy(c, u64::from(self.pool.live));
                t.wheel_depth(c, self.wheel_live);
                t.queue_depth(c, deepest, self.queued_total);
            }
        }
    }

    /// Tagged packets still buffered (link FIFOs or the arrival wheel).
    /// O(1): reads the occupancy counters maintained by the fifo helpers
    /// and the wheel merge instead of re-walking every FIFO and slot.
    fn tagged_in_flight(&self) -> u64 {
        self.tagged_queued + self.tagged_wheel
    }
}

/// Row `local` of `link_of`, laid out as [`Csr::rows`] returns it, as
/// indices into the row's targets. Offsets count from `link_of[0]`,
/// which is 0 for a whole CSR or a shipped copy and the first node's
/// offset for a borrowed slice.
#[inline]
pub(crate) fn row(link_of: &[u32], local: usize) -> Range<usize> {
    let first = link_of[0];
    (link_of[local] - first) as usize..(link_of[local + 1] - first) as usize
}

/// The link from `u` toward `v`, as an index into `to`: one scan of
/// `u`'s row in rows `link_of`/`to` whose first node is `base`. Shards,
/// the wormhole engine and their fault projections
/// ([`FaultPlan::shard_events`]) all resolve a hop to a link here.
pub(crate) fn link_toward(link_of: &[u32], to: &[u32], base: u32, u: u32, v: u32) -> usize {
    let links = row(link_of, (u - base) as usize);
    match to[links.clone()].iter().position(|&w| w == v) {
        Some(i) => links.start + i,
        // ipg-analyze: allow(PANIC001) reason="routers only emit neighbors; reaching here is a router bug"
        None => panic!("next hop {v} is not a neighbor of {u}"),
    }
}

/// A uniformly random destination other than `src` among `n` nodes:
/// one draw from `src`'s stream. Both engines' uniform traffic.
pub(crate) fn uniform_destination(n: u32, src: u32, rng: &mut NodeRng) -> u32 {
    let dst = rng.gen_range(0..n - 1);
    dst + u32::from(dst >= src)
}

/// Pick a destination for a packet injected at `src` (None when the
/// pattern maps `src` to itself). Draws only from `src`'s own stream.
fn pick_destination(n: u32, src: u32, traffic: Traffic, rng: &mut NodeRng) -> Option<u32> {
    match traffic {
        Traffic::Uniform => Some(uniform_destination(n, src, rng)),
        Traffic::BitComplement => {
            assert!(n.is_power_of_two(), "bit-complement needs 2^k nodes");
            let dst = !src & (n - 1);
            (dst != src).then_some(dst)
        }
        Traffic::Transpose => {
            assert!(n.is_power_of_two(), "transpose needs 2^k nodes");
            let bits = n.trailing_zeros();
            assert!(bits % 2 == 0, "transpose needs an even bit width");
            let half = bits / 2;
            let lo = src & ((1 << half) - 1);
            let hi = src >> half;
            let dst = (lo << half) | hi;
            (dst != src).then_some(dst)
        }
        Traffic::Hotspot { fraction, target } => {
            if rng.gen::<f64>() < fraction && target != src {
                Some(target)
            } else {
                Some(uniform_destination(n, src, rng))
            }
        }
    }
}

/// The simulator: a network sharded into contiguous node ranges plus a
/// [`Router`] answering next-hop queries.
///
/// The shards read their links straight out of the [`Csr`] the simulator
/// was built from, so that graph must outlive it (`'g`).
pub struct Simulator<'g, R: Router = RoutingTable> {
    n: usize,
    router: R,
    shards: Vec<Shard<'g>>,
    max_interval: u32,
    plan: Option<FaultPlan>,
}

/// The deterministic shard layout: `(shard_count, shard_size)` as a pure
/// function of the node count — never of worker count or host state, so
/// shard boundaries (and therefore results) are identical in-process and
/// across any distributed worker split.
pub(crate) fn shard_layout(n: usize) -> (usize, u32) {
    let shard_count = (n / SHARD_TARGET_NODES).clamp(1, MAX_SHARDS);
    let shard_size = n.div_ceil(shard_count).max(1) as u32;
    (shard_count, shard_size)
}

/// `(base, node_count)` of shard `si` in the layout of `n` nodes whose
/// shards hold `shard_size` nodes (the last one possibly fewer).
pub(crate) fn shard_span(n: u32, shard_size: u32, si: u32) -> (u32, u32) {
    let base = si * shard_size;
    (base, shard_size.min(n - base))
}

/// The service intervals of the two link classes, `[on-module,
/// off-module]`: a link forwards one packet every
/// `cfg.on_module_interval` cycles when both endpoints share a module,
/// every `cfg.off_module_interval` otherwise, and never faster than one
/// per cycle.
pub(crate) fn link_speeds(cfg: &SimConfig) -> [u32; 2] {
    [
        cfg.on_module_interval.max(1),
        cfg.off_module_interval.max(1),
    ]
}

/// Which of nodes `nodes`' outgoing links leave their module, in (node,
/// neighbor) order, exactly the order the cycle loops service them in:
/// bits for an in-process shard, flags for the wire. The one
/// classification both use.
fn off_module_bits<B: FromIterator<bool>>(
    g: &Csr,
    module: impl Fn(u32) -> u32,
    nodes: Range<u32>,
) -> B {
    let module = &module;
    nodes
        .flat_map(|u| g.neighbors(u).iter().map(move |&v| module(u) != module(v)))
        .collect()
}

/// One shard's outgoing links as the owned arrays a dist worker is
/// shipped: the shard's [`Csr::rows`] with the offsets rebased to 0 (4
/// bytes per node) and the targets copied (4 bytes per link), plus one
/// off-module flag per link. The distributed coordinator ships these so
/// workers never materialize the full CSR; an in-process shard borrows
/// the same rows instead of copying them.
pub(crate) fn shard_link_arrays(
    g: &Csr,
    module: impl Fn(u32) -> u32,
    base: u32,
    node_count: u32,
) -> (Vec<u32>, Vec<u32>, Vec<bool>) {
    let nodes = base..base + node_count;
    let (offsets, targets) = g.rows(nodes.clone());
    let link_of = offsets.iter().map(|&o| o - offsets[0]).collect();
    (link_of, targets.to_vec(), off_module_bits(g, module, nodes))
}

/// The cycle driver: a contiguous run `[lo, hi)` of the shard layout
/// through one run. Each cycle is `phase_a`, `phase_split`,
/// `phase_merge`, `phase_b`; after the last one, `finish`.
pub(crate) struct ShardRange<'a, 'g, R: Router + ?Sized> {
    shards: &'a mut [Shard<'g>],
    /// Global index of `shards[0]`.
    lo: u32,
    shard_size: u32,
    /// The range covers every shard, so no departure leaves it.
    whole: bool,
    pr: RunParams,
    router: &'a R,
    plan: Option<&'a FaultPlan>,
    /// The full-network fault view, mutated only between the parallel
    /// phases: shards always read a settled view, so fault application
    /// order can never depend on the worker count.
    view: FaultView,
    fault_cursor: usize,
    eo: EngineObs,
}

impl<'a, 'g, R: Router + ?Sized> ShardRange<'a, 'g, R> {
    /// Reset `shards` — global shards `lo..lo + shards.len()` — for a
    /// fresh run and attach the engine metrics to `obs`.
    pub(crate) fn prepare(
        shards: &'a mut [Shard<'g>],
        lo: u32,
        pr: RunParams,
        router: &'a R,
        plan: Option<&'a FaultPlan>,
        obs: &Obs,
        trace: Option<&TraceConfig>,
    ) -> Self {
        let track = obs.enabled();
        // Link-busy accounting feeds both the end-of-run utilization
        // histograms (obs) and the sampled link-utilization trace
        // events, so it is kept when either consumer is active.
        let track_links = track || trace.is_some();
        for (i, sh) in shards.iter_mut().enumerate() {
            let track_id = (lo + i as u32) as u16;
            sh.prepare_run(&pr, track, track_links, plan, trace, track_id);
        }
        let (shard_count, shard_size) = shard_layout(pr.n as usize);
        ShardRange {
            whole: lo == 0 && shards.len() == shard_count,
            shards,
            lo,
            shard_size,
            pr,
            router,
            plan,
            view: FaultView::new(pr.n as usize),
            fault_cursor: 0,
            eo: EngineObs::attach(obs),
        }
    }

    /// Phase A: apply the faults due this cycle to the view, then run
    /// every shard's phase A in parallel.
    pub(crate) fn phase_a(&mut self, cycle: u32) {
        if let Some(p) = self.plan {
            p.apply_due(&mut self.fault_cursor, cycle, &mut self.view);
        }
        let fv = self.plan.map(|_| &self.view);
        let (pr, router, eo) = (&self.pr, self.router, &self.eo);
        rayon::slice::par_for_each_mut(self.shards, |_, sh| {
            sh.phase_a(cycle, pr, router, fv, eo);
        });
    }

    /// First half of the merge: move departures bound for shards outside
    /// the range into `remote`, in order. Returns every departure
    /// launched this cycle, local and remote.
    pub(crate) fn phase_split(&mut self, remote: &mut Vec<Msg>) -> u32 {
        let mut launched = 0u32;
        let (lo, hi) = (self.lo, self.lo + self.shards.len() as u32);
        let (shard_size, whole) = (self.shard_size, self.whole);
        for sh in self.shards.iter_mut() {
            launched += sh.outbox.len() as u32;
            if !whole {
                // `retain` visits each message once, in order.
                sh.outbox.retain(|msg| {
                    let local = (lo..hi).contains(&(msg.to / shard_size));
                    if !local {
                        remote.push(*msg);
                    }
                    local
                });
            }
        }
        launched
    }

    /// Second half of the merge: push arrivals onto their wheels in
    /// global shard order — `pre` (from shards below the range), the
    /// local outboxes in shard order, then `post` (from shards above).
    pub(crate) fn phase_merge(&mut self, pre: &[Msg], post: &[Msg]) {
        for &msg in pre {
            self.land(msg);
        }
        for si in 0..self.shards.len() {
            let mut outbox = std::mem::take(&mut self.shards[si].outbox);
            for &msg in &outbox {
                self.land(msg);
            }
            // return the drained buffer so steady-state cycles don't allocate
            outbox.clear();
            self.shards[si].outbox = outbox;
        }
        for &msg in post {
            self.land(msg);
        }
    }

    #[inline]
    fn land(&mut self, msg: Msg) {
        self.shards[(msg.to / self.shard_size - self.lo) as usize].wheel_push(msg);
    }

    /// Phase B: every shard drains its wheel slot for the next cycle
    /// boundary, in parallel.
    pub(crate) fn phase_b(&mut self, cycle: u32) {
        let slot = ((cycle + 1) % self.pr.wheel_len) as usize;
        let fv = self.plan.map(|_| &self.view);
        let (pr, router, eo) = (&self.pr, self.router, &self.eo);
        rayon::slice::par_for_each_mut(self.shards, |_, sh| {
            sh.phase_b(cycle, slot, pr, router, fv, eo);
        });
    }

    /// End the run: the summed totals, the end-of-run link telemetry
    /// folded into `obs` when it is enabled, and the shard tracers.
    pub(crate) fn finish(self, obs: &Obs) -> (RunTotals, Vec<ShardTracer>) {
        let mut t = RunTotals::default();
        for sh in self.shards.iter() {
            t.absorb(&sh.stats);
            t.in_flight += sh.tagged_in_flight();
        }
        if obs.enabled() {
            obs.counter("engine.in_flight_at_end").add(t.in_flight);
            let links_total: usize = self.shards.iter().map(|s| s.links.len()).sum();
            obs.counter("engine.links").add(links_total as u64);
            let h_util = obs.histogram("engine.link_utilization_pct");
            let g_util = obs.gauge("engine.link_utilization_max_pct");
            let h_qhw = obs.histogram("engine.queue_depth_high_water");
            let g_qhw = obs.gauge("engine.queue_depth_max");
            let cycles = u64::from(self.pr.total_cycles.max(1));
            for sh in self.shards.iter() {
                for (busy, hw) in sh.link_busy.iter().zip(&sh.queue_hw) {
                    let pct = (busy.saturating_mul(100) / cycles).min(100);
                    h_util.observe(pct);
                    g_util.record_max(pct);
                    h_qhw.observe(u64::from(*hw));
                    g_qhw.record_max(u64::from(*hw));
                }
            }
        }
        let tracers = self
            .shards
            .iter_mut()
            .filter_map(|sh| sh.tracer.take())
            .collect();
        (t, tracers)
    }
}

impl<'g> Simulator<'g, RoutingTable> {
    /// Build a simulator for graph `g`. `module(u)` gives each node's
    /// module id (used to classify links as on-/off-module).
    /// To observe the routing-table build, pass
    /// `RoutingTable::new_instrumented(g, obs)` to
    /// [`Simulator::with_router`] instead.
    pub fn new(g: &'g Csr, module: impl Fn(u32) -> u32, cfg: &SimConfig) -> Self {
        Self::with_router(RoutingTable::new(g), g, module, cfg)
    }
}

impl<'g, R: Router> Simulator<'g, R> {
    /// Build a simulator around an arbitrary [`Router`] — e.g. a
    /// [`ipg_core::tuple_routing::ShortestTupleRouter`] for super-IP
    /// networks too large for the all-pairs table. `router` must answer
    /// queries over exactly `g`'s node-id space. The shards borrow `g`'s
    /// rows instead of copying them.
    pub fn with_router(
        router: R,
        g: &'g Csr,
        module: impl Fn(u32) -> u32,
        cfg: &SimConfig,
    ) -> Self {
        let n = g.node_count();
        let (shard_count, shard_size) = shard_layout(n);
        let mut shards = Vec::with_capacity(shard_count);
        let mut max_interval = 1u32;
        for si in 0..shard_count as u32 {
            let (base, node_count) = shard_span(n as u32, shard_size, si);
            let nodes = base..base + node_count;
            let (link_of, to) = g.rows(nodes.clone());
            let off_module = off_module_bits(g, &module, nodes);
            let sh = Shard::assemble(
                base,
                node_count,
                Cow::Borrowed(link_of),
                Cow::Borrowed(to),
                off_module,
                link_speeds(cfg),
            );
            max_interval = max_interval.max(sh.links.max_interval());
            shards.push(sh);
        }
        Simulator {
            n,
            router,
            shards,
            max_interval,
            plan: None,
        }
    }

    /// Recompute every sparse-kernel counter and worklist bit from the
    /// underlying queue state and assert they agree — the DESIGN.md §13
    /// activation invariant, checked the expensive way. Test-only
    /// plumbing (proptests call it after each run); hidden from docs.
    #[doc(hidden)]
    pub fn validate_sparse_state(&self) {
        for (si, sh) in self.shards.iter().enumerate() {
            let mut queued = 0u64;
            let mut tagged_q = 0u64;
            let mut busy = 0u32;
            let mut active = 0u32;
            for local in 0..sh.node_count as usize {
                let mut owner_busy = false;
                for li in sh.node_links(local) {
                    // Walk the circular FIFO from its head back to its
                    // tail; a list that does not close is caught by the
                    // pool-size bound instead of looping forever.
                    let tail = sh.links.tail[li];
                    let mut walked = 0u32;
                    let mut p = tail;
                    while tail != NIL && (walked == 0 || p != tail) {
                        p = sh.pool.next[p as usize];
                        walked += 1;
                        assert!(
                            walked as usize <= sh.pool.next.len(),
                            "shard {si}: FIFO of link {li} does not close at its tail"
                        );
                        queued += 1;
                        if sh.pool.tagged[p as usize] {
                            tagged_q += 1;
                        }
                    }
                    assert_eq!(
                        sh.active_links.contains(li as u32),
                        walked > 0,
                        "shard {si}: worklist bit desynced from link {li} ({walked} queued)"
                    );
                    if walked > 0 {
                        owner_busy = true;
                        active += 1;
                    }
                    if let Some(&ql) = sh.links.qlen.get(li) {
                        assert_eq!(walked, ql, "shard {si}: qlen desynced on link {li}");
                    }
                }
                busy += u32::from(owner_busy);
            }
            assert_eq!(queued, sh.queued_total, "shard {si}: queued_total");
            assert_eq!(tagged_q, sh.tagged_queued, "shard {si}: tagged_queued");
            assert_eq!(
                busy,
                sh.busy_nodes_and_deepest().0,
                "shard {si}: busy nodes"
            );
            assert_eq!(active, sh.active_links.len(), "shard {si}: worklist len");
            let wl: u64 = sh.wheel.iter().map(|s| s.len() as u64).sum();
            assert_eq!(wl, sh.wheel_live, "shard {si}: wheel_live");
            let tw = sh.wheel.iter().flatten().filter(|m| m.tagged).count() as u64;
            assert_eq!(tw, sh.tagged_wheel, "shard {si}: tagged_wheel");
        }
    }

    /// The router driving next-hop decisions.
    pub fn router(&self) -> &R {
        &self.router
    }

    /// Install (or clear) a compiled [`FaultPlan`] for subsequent runs.
    /// With a plan installed, routing goes through
    /// [`Router::next_hop_faulted`] and unroutable packets are accounted
    /// in [`SimResult::dropped_unreachable`] instead of panicking.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        if let Some(p) = &plan {
            assert!(
                p.node_count() as usize == self.n,
                "fault plan compiled for {} nodes but the network has {}",
                p.node_count(),
                self.n
            );
        }
        self.plan = plan;
    }

    /// Run the simulation and collect statistics.
    pub fn run(&mut self, cfg: &SimConfig) -> SimResult {
        self.run_traced(cfg, &Obs::disabled(), 0, None).0
    }

    /// [`Simulator::run`] with observability and flight-recorder
    /// tracing. When `obs` is enabled the run emits phase spans
    /// (`run/warmup`, `run/measure`, `run/drain`), packet counters, a
    /// tagged-latency histogram, per-link utilization and queue-depth
    /// high-water histograms, and — when `window > 0` — a `window`
    /// metrics snapshot every `window` cycles. When `trace` is set,
    /// every shard records sampled phase/gauge events into a
    /// pre-allocated ring (see [`ipg_obs::trace`]) and the drained
    /// [`Trace`] is returned alongside the result. A disabled `obs` and
    /// no `trace` make this identical to [`Simulator::run`]. Tracing
    /// reads simulation state but never writes it: the [`SimResult`]
    /// and all deterministic obs records are byte-identical with
    /// tracing on, off, and across `IPG_THREADS`.
    pub fn run_traced(
        &mut self,
        cfg: &SimConfig,
        obs: &Obs,
        window: u32,
        trace: Option<&TraceConfig>,
    ) -> (SimResult, Option<Trace>) {
        let run_span = obs.span("run");
        let pr = cycle_params(self.n as u32, cfg, self.max_interval);
        let plan = self.plan.as_ref();
        let mut range =
            ShardRange::prepare(&mut self.shards, 0, pr, &self.router, plan, obs, trace);
        let mut engine_tracer = trace.map(|tc| ShardTracer::new(ENGINE_TRACK, tc));
        // One range covers every shard: nothing is remote, and the merge
        // has no `pre`/`post` arrivals.
        let mut remote = Vec::new();
        let mut span = Some(obs.span("warmup"));
        for cycle in 0..pr.total_cycles {
            phase_span(obs, cfg, cycle, &mut span);
            range.phase_a(cycle);
            let moved = range.phase_split(&mut remote);
            range.phase_merge(&[], &[]);
            if let Some(t) = engine_tracer.as_mut() {
                if t.sampled(u64::from(cycle)) {
                    t.merge(u64::from(cycle), moved);
                }
            }
            range.phase_b(cycle);
            if let Some(at) = window_end(window, cycle) {
                obs.emit_window(at);
            }
        }
        drop(span);

        let (totals, tracers) = range.finish(obs);
        drop(run_span);

        let trace_out = trace
            .zip(engine_tracer)
            .map(|(tc, eng)| Trace::collect(tc.interval.max(1), tracers, eng));
        let result = totals.into_sim_result(self.n as u64, cfg.measure_cycles, pr.total_cycles);
        (result, trace_out)
    }
}

/// Convenience: build and run in one call with everything in one module
/// (uniform link speed).
pub fn run_uniform(g: &Csr, cfg: &SimConfig) -> SimResult {
    Simulator::new(g, |_| 0, cfg).run(cfg)
}

/// Convenience: build and run with a module map (off-module links use
/// `cfg.off_module_interval`).
pub fn run_clustered(g: &Csr, module: &[u32], cfg: &SimConfig) -> SimResult {
    Simulator::new(g, |u| module[u as usize], cfg).run(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_networks::classic;

    fn light_cfg() -> SimConfig {
        SimConfig {
            injection_rate: 0.005,
            warmup_cycles: 500,
            measure_cycles: 2_000,
            drain_cycles: 5_000,
            on_module_interval: 1,
            off_module_interval: 1,
            seed: 42,
            ..SimConfig::default()
        }
    }

    #[test]
    fn light_load_latency_tracks_average_distance() {
        // store-and-forward light-load latency ≈ average distance (one
        // cycle per hop) + small queueing noise.
        let g = classic::hypercube(6);
        let avg = ipg_core::algo::average_distance(&g);
        let r = run_uniform(&g, &light_cfg());
        assert!(r.delivered > 0);
        assert!(
            (r.avg_latency - avg).abs() < 1.0,
            "latency {} vs avg distance {avg}",
            r.avg_latency
        );
    }

    #[test]
    fn all_tagged_packets_delivered_at_light_load() {
        let g = classic::torus2d(6);
        let r = run_uniform(&g, &light_cfg());
        assert_eq!(r.injected, r.delivered);
    }

    #[test]
    fn saturation_throughput_orders_ring_vs_hypercube() {
        // At the same high injection rate the hypercube (avg distance
        // n/2 = 3, high bisection) delivers far more than the 64-ring
        // (avg distance ~16).
        let heavy = SimConfig {
            injection_rate: 0.4,
            warmup_cycles: 500,
            measure_cycles: 2_000,
            drain_cycles: 4_000,
            ..light_cfg()
        };
        let cube = run_uniform(&classic::hypercube(6), &heavy);
        let ring = run_uniform(&classic::ring(64), &heavy);
        assert!(
            cube.throughput > 1.5 * ring.throughput,
            "cube {} vs ring {}",
            cube.throughput,
            ring.throughput
        );
        // the ring is past saturation: it cannot deliver what was injected
        assert!(ring.delivered < ring.injected);
        // the hypercube is not: everything tagged arrives
        assert_eq!(cube.delivered, cube.injected);
    }

    #[test]
    fn slow_off_module_links_raise_latency() {
        let g = classic::hypercube(6);
        let module: Vec<u32> = (0..64u32).map(|u| u >> 2).collect();
        let fast = run_clustered(&g, &module, &light_cfg());
        let slow_cfg = SimConfig {
            off_module_interval: 4,
            ..light_cfg()
        };
        let slow = run_clustered(&g, &module, &slow_cfg);
        assert!(slow.avg_latency > fast.avg_latency);
    }

    #[test]
    fn bit_complement_latency_is_graph_diameter() {
        // complement pairs are at distance n in Q_n: light-load latency ≈ n
        let g = classic::hypercube(6);
        let cfg = SimConfig {
            traffic: Traffic::BitComplement,
            ..light_cfg()
        };
        let r = run_uniform(&g, &cfg);
        assert!(r.delivered > 0);
        assert!(
            (r.avg_latency - 6.0).abs() < 0.5,
            "latency {}",
            r.avg_latency
        );
    }

    #[test]
    fn transpose_pattern_valid_and_delivers() {
        let g = classic::hypercube(6); // 64 nodes, 6 bits: even width
        let cfg = SimConfig {
            traffic: Traffic::Transpose,
            ..light_cfg()
        };
        let r = run_uniform(&g, &cfg);
        assert_eq!(r.injected, r.delivered);
    }

    #[test]
    fn hotspot_saturates_before_uniform() {
        let g = classic::hypercube(6);
        let heavy = SimConfig {
            injection_rate: 0.2,
            drain_cycles: 3_000,
            ..light_cfg()
        };
        let uni = run_uniform(&g, &heavy);
        // The hotspot must be saturated by a margin the drain phase cannot
        // clear: node 0 has 6 ingress links in Q6, so offered hotspot load
        // is 64 nodes x 0.2 rate x fraction. At fraction 0.5 that is 6.4
        // pkts/cycle — within noise of the 6/cycle capacity, and the
        // backlog drains fully. At 0.8 it is ~10.2 pkts/cycle, well past
        // saturation (cf. paper Sec. 5's saturation-throughput setup).
        let hot = run_uniform(
            &g,
            &SimConfig {
                traffic: Traffic::Hotspot {
                    fraction: 0.8,
                    target: 0,
                },
                ..heavy
            },
        );
        // the hotspot's links bound delivery: hotspot run delivers less
        assert!(hot.delivered < uni.delivered);
    }

    #[test]
    fn cut_through_beats_store_and_forward_for_long_messages() {
        let g = classic::hypercube(6);
        let base = SimConfig {
            message_length: 8,
            injection_rate: 0.002,
            ..light_cfg()
        };
        let sf = run_uniform(&g, &base);
        let ct = run_uniform(
            &g,
            &SimConfig {
                switching: Switching::CutThrough,
                ..base
            },
        );
        // SF ≈ hops·L, CT ≈ hops + L: for avg 3 hops, L=8 → ~24 vs ~11
        assert!(
            ct.avg_latency + 4.0 < sf.avg_latency,
            "CT {} vs SF {}",
            ct.avg_latency,
            sf.avg_latency
        );
        // at L = 1 the two modes coincide
        let one = SimConfig {
            message_length: 1,
            ..base
        };
        let sf1 = run_uniform(&g, &one);
        let ct1 = run_uniform(
            &g,
            &SimConfig {
                switching: Switching::CutThrough,
                ..one
            },
        );
        assert_eq!(sf1.avg_latency, ct1.avg_latency);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = classic::torus2d(5);
        let a = run_uniform(&g, &light_cfg());
        let b = run_uniform(&g, &light_cfg());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.max_latency, b.max_latency);
    }

    #[test]
    fn multi_shard_run_preserves_accounting_and_delivery() {
        // 576 nodes → 4 shards of 144: packets routinely cross shard
        // boundaries through the mailbox merge. Light load must still
        // deliver every tagged packet, and the conservation invariant
        // must hold exactly.
        let g = classic::torus2d(24);
        let sim = Simulator::new(&g, |_| 0, &light_cfg());
        assert!(sim.shards.len() >= 4, "expected a multi-shard partition");
        let r = run_uniform(&g, &light_cfg());
        assert_eq!(r.injected, r.delivered + r.in_flight_at_end);
        assert_eq!(r.injected, r.delivered);
        let avg = ipg_core::algo::average_distance(&g);
        assert!(
            (r.avg_latency - avg).abs() < 1.5,
            "latency {} vs avg distance {avg}",
            r.avg_latency
        );
    }

    #[test]
    fn codec_router_engine_matches_table_engine_behavior() {
        use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
        use ipg_core::tuple_routing::ShortestTupleRouter;
        // Same spec, same seed, two routers: path lengths are identical
        // (both exact-shortest), so delivery sets agree and latencies
        // differ only by tie-break-induced queueing noise.
        let spec = SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(2));
        let g = spec.fast_undirected_csr().unwrap();
        let module: Vec<u32> = {
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            (0..g.node_count() as u32)
                .map(|v| {
                    let mut t = vec![0u32; 3];
                    tn.decode_into(v, &mut t);
                    v / tn.m_nodes() as u32
                })
                .collect()
        };
        let cfg = light_cfg();
        let mut table_sim = Simulator::new(&g, |u| module[u as usize], &cfg);
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let router = ShortestTupleRouter::new(tn).unwrap();
        let mut codec_sim = Simulator::with_router(router, &g, |u| module[u as usize], &cfg);
        let rt = table_sim.run(&cfg);
        let rc = codec_sim.run(&cfg);
        assert_eq!(rt.injected, rc.injected, "injection is router-independent");
        assert_eq!(rt.delivered, rc.delivered);
        assert!(
            (rt.avg_latency - rc.avg_latency).abs() < 0.5,
            "table {} vs codec {}",
            rt.avg_latency,
            rc.avg_latency
        );
    }

    #[test]
    fn tracing_does_not_perturb_results_and_is_deterministic() {
        let g = classic::torus2d(24); // multi-shard
        let cfg = light_cfg();
        let run = |trace: Option<&TraceConfig>| {
            let mut sim = Simulator::new(&g, |_| 0, &cfg);
            sim.run_traced(&cfg, &Obs::disabled(), 0, trace)
        };
        let (plain, none) = run(None);
        assert!(none.is_none());
        let tc = TraceConfig::with_interval(100);
        let (traced, trace) = run(Some(&tc));
        assert_eq!(plain, traced, "tracing must not change the simulation");
        let trace = trace.unwrap();
        assert!(trace.shards >= 4);
        assert!(!trace.events.is_empty());
        // same run again: the trace itself is deterministic
        let (_, trace2) = run(Some(&tc));
        assert_eq!(trace2.unwrap().to_jsonl(), trace.to_jsonl());
        // sampled phase events appear only on interval cycles
        for e in &trace.events {
            assert_eq!(e.cycle % 100, 0, "cycle {} off the interval", e.cycle);
        }
        // a multi-shard light-load run shows work on every shard track
        let sum = trace.summarize(5);
        assert_eq!(sum.shard_work.len(), trace.shards as usize);
        assert!(sum.launched > 0);
        assert!(sum.merged > 0);
        assert!(sum.queue_samples > 0);
    }

    #[test]
    fn trace_pool_occupancy_tracks_live_slots() {
        let g = classic::torus2d(6);
        let cfg = light_cfg();
        let mut sim = Simulator::new(&g, |_| 0, &cfg);
        let tc = TraceConfig::with_interval(50);
        let (r, trace) = sim.run_traced(&cfg, &Obs::disabled(), 0, Some(&tc));
        let trace = trace.unwrap();
        // After the drain phase all tagged packets were delivered, so the
        // final pool-occupancy samples go back to (near) zero.
        let pool_events: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == ipg_obs::trace::EventKind::PoolOccupancy as u16)
            .collect();
        assert!(!pool_events.is_empty());
        assert_eq!(r.injected, r.delivered);
        let last = pool_events.last().unwrap();
        assert_eq!(last.value, 0, "drained run should end with an empty pool");
        // and at least one mid-run sample saw live packets
        assert!(pool_events.iter().any(|e| e.value > 0));
    }

    #[test]
    fn adaptive_router_detours_around_a_scripted_link_kill() {
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        let g = classic::hypercube(6);
        let cfg = light_cfg();
        let spec = FaultSpec::parse("script:link@1000:0-1+link@1200:0-2").unwrap();
        let plan = FaultPlan::compile(&spec, &g, cfg.seed).unwrap();
        let router = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
        let mut sim = Simulator::with_router(router, &g, |_| 0, &cfg);
        sim.set_fault_plan(Some(plan));
        let r = sim.run(&cfg);
        // Q6 stays connected after losing two links; the adaptive router
        // must deliver everything without drops.
        assert!(r.injected > 0);
        assert_eq!(r.dropped_unreachable, 0);
        assert_eq!(r.injected, r.delivered, "detours must rescue every packet");
        assert_eq!(
            r.injected,
            r.delivered + r.in_flight_at_end + r.dropped_unreachable
        );
    }

    #[test]
    fn oblivious_router_strands_packets_the_adaptive_router_rescues() {
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        let g = classic::hypercube(6);
        let cfg = light_cfg();
        let spec = FaultSpec::parse("rate:links=0.1,at=0").unwrap();
        let plan = FaultPlan::compile(&spec, &g, cfg.seed).unwrap();
        assert!(!plan.is_empty());

        let mut oblivious = Simulator::new(&g, |_| 0, &cfg);
        oblivious.set_fault_plan(Some(plan.clone()));
        let ro = oblivious.run(&cfg);

        let adaptive = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
        let mut sim = Simulator::with_router(adaptive, &g, |_| 0, &cfg);
        sim.set_fault_plan(Some(plan));
        let ra = sim.run(&cfg);

        // Injection is router-independent; both conserve packets.
        assert_eq!(ro.injected, ra.injected);
        assert_eq!(
            ro.injected,
            ro.delivered + ro.in_flight_at_end + ro.dropped_unreachable
        );
        assert_eq!(
            ra.injected,
            ra.delivered + ra.in_flight_at_end + ra.dropped_unreachable
        );
        // The oblivious router keeps queueing onto dead links: packets
        // strand. Q6 survives 10% link loss connected (w.h.p. under this
        // fixed seed), so the adaptive router delivers strictly more.
        assert!(
            ro.in_flight_at_end > 0,
            "expected stranded packets on dead links"
        );
        assert!(
            ra.delivered > ro.delivered,
            "adaptive {} must beat oblivious {}",
            ra.delivered,
            ro.delivered
        );
    }

    #[test]
    fn severed_nucleus_accounts_unreachable_instead_of_livelocking() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
        use ipg_core::tuple_routing::ShortestTupleRouter;
        // Sever cluster 0 of ring-CN(3, Q2) completely: every link with
        // exactly one endpoint in the first nucleus copy dies at cycle 0.
        let spec = SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(2));
        let g = spec.fast_undirected_csr().unwrap();
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let m = tn.m_nodes() as u32;
        let events: Vec<FaultEvent> = g
            .arcs()
            .filter(|&(u, v)| u < v && (u < m) != (v < m))
            .map(|(u, v)| FaultEvent {
                cycle: 0,
                kind: FaultKind::Link(u, v),
            })
            .collect();
        assert!(!events.is_empty());
        let fspec = FaultSpec {
            events,
            random: None,
        };
        let cfg = light_cfg();
        let plan = FaultPlan::compile(&fspec, &g, cfg.seed).unwrap();
        let router = DetourRouter::new(ShortestTupleRouter::new(tn).unwrap(), g.clone()).unwrap();
        let mut sim = Simulator::with_router(router, &g, |_| 0, &cfg);
        sim.set_fault_plan(Some(plan));
        // Must terminate (no livelock) with exact conservation: packets
        // addressed across the cut are counted as dropped-unreachable.
        let r = sim.run(&cfg);
        assert!(r.dropped_unreachable > 0, "cross-cut packets must drop");
        assert!(r.delivered > 0, "intra-component traffic still flows");
        assert_eq!(
            r.injected,
            r.delivered + r.in_flight_at_end + r.dropped_unreachable
        );
    }

    #[test]
    fn empty_fault_plan_matches_no_plan_byte_for_byte() {
        use crate::fault::FaultPlan;
        use crate::router::DetourRouter;
        let g = classic::torus2d(24); // multi-shard
        let cfg = light_cfg();
        let mut bare = Simulator::new(&g, |_| 0, &cfg);
        let rb = bare.run(&cfg);
        let adaptive = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
        let mut sim = Simulator::with_router(adaptive, &g, |_| 0, &cfg);
        sim.set_fault_plan(Some(FaultPlan::empty(g.node_count() as u32)));
        let re = sim.run(&cfg);
        assert_eq!(rb, re, "zero faults must degenerate exactly");
    }

    #[test]
    fn fault_runs_are_deterministic_given_seed() {
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        let g = classic::torus2d(24); // multi-shard
        let cfg = light_cfg();
        let spec = FaultSpec::parse("script:node@600:7;rate:links=0.05,at=1500").unwrap();
        let run = || {
            let plan = FaultPlan::compile(&spec, &g, cfg.seed).unwrap();
            let router = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
            let mut sim = Simulator::with_router(router, &g, |_| 0, &cfg);
            sim.set_fault_plan(Some(plan));
            sim.run(&cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.dropped_unreachable > 0, "node 7 dies with traffic around");
    }

    /// Drive `sim`'s shards as one range per `[cuts[k], cuts[k + 1])`
    /// through the worker's steps in one process: each range hands its
    /// remote departures over, and every range merges what lower ranges
    /// sent as `pre` and what higher ranges sent as `post`, both in
    /// origin order. The wheel is one slot longer than the single
    /// range's, as a worker sizing it from the config may make it.
    /// Returns the summed result and the shard trace.
    fn run_split<R: Router>(
        sim: &mut Simulator<'_, R>,
        cfg: &SimConfig,
        cuts: &[u32],
        tc: &TraceConfig,
    ) -> (SimResult, Vec<ipg_obs::trace::TraceEvent>) {
        let pr = cycle_params(sim.n as u32, cfg, sim.max_interval + 1);
        let shard_size = shard_layout(sim.n).1;
        let obs = Obs::disabled();
        let mut rest: &mut [Shard<'_>] = &mut sim.shards;
        let mut ranges = Vec::new();
        for w in cuts.windows(2) {
            let (mine, tail) = rest.split_at_mut((w[1] - w[0]) as usize);
            rest = tail;
            let plan = sim.plan.as_ref();
            ranges.push(ShardRange::prepare(
                mine,
                w[0],
                pr,
                &sim.router,
                plan,
                &obs,
                Some(tc),
            ));
        }
        assert!(rest.is_empty(), "cuts must cover every shard");
        let mut remote: Vec<Vec<Msg>> = vec![Vec::new(); ranges.len()];
        for cycle in 0..pr.total_cycles {
            for (r, out) in ranges.iter_mut().zip(&mut remote) {
                r.phase_a(cycle);
                out.clear();
                r.phase_split(out);
            }
            for (k, r) in ranges.iter_mut().enumerate() {
                let (mut pre, mut post) = (Vec::new(), Vec::new());
                for (j, out) in remote.iter().enumerate() {
                    let (lo, hi) = (cuts[k], cuts[k + 1]);
                    let to_k = out
                        .iter()
                        .filter(|m| (lo..hi).contains(&(m.to / shard_size)));
                    if j < k {
                        pre.extend(to_k);
                    } else if j > k {
                        post.extend(to_k);
                    }
                }
                r.phase_merge(&pre, &post);
                r.phase_b(cycle);
            }
        }
        let mut totals = RunTotals::default();
        let mut tracers = Vec::new();
        for r in ranges {
            let (t, tr) = r.finish(&obs);
            totals.absorb(&t);
            tracers.extend(tr);
        }
        let trace = Trace::collect(tc.interval, tracers, ShardTracer::new(ENGINE_TRACK, tc));
        let result = totals.into_sim_result(sim.n as u64, cfg.measure_cycles, pr.total_cycles);
        (result, trace.events)
    }

    #[test]
    fn split_ranges_merge_like_one_range() {
        use crate::fault::{FaultPlan, FaultSpec};
        use crate::router::DetourRouter;
        use ipg_core::tuple_routing::ShortestTupleRouter;
        use ipg_networks::hier;

        // The determinism matrix's faulted multi-shard config: 512
        // nodes in 4 shards, the codec router under the detour wrapper.
        let tn = hier::ring_cn(3, classic::hypercube(3), "Q3");
        let g = tn.build();
        let (module, _) = tn.nucleus_partition();
        let cfg = SimConfig {
            injection_rate: 0.02,
            warmup_cycles: 500,
            measure_cycles: 2_000,
            drain_cycles: 2_000,
            ..SimConfig::default()
        };
        let spec =
            FaultSpec::parse("script:link@600:0-1+node@800:5;rate:links=0.05,at=1000").unwrap();
        let sim = || {
            let plan = FaultPlan::compile(&spec, &g, cfg.seed).unwrap();
            let codec = ShortestTupleRouter::new(tn.clone()).unwrap();
            let router = DetourRouter::new(codec, g.clone()).unwrap();
            let mut sim = Simulator::with_router(router, &g, |v| module[v as usize], &cfg);
            sim.set_fault_plan(Some(plan));
            sim
        };
        let tc = TraceConfig::with_interval(128);
        let (whole, trace) = sim().run_traced(&cfg, &Obs::disabled(), 0, Some(&tc));
        let shard_events: Vec<_> = trace
            .unwrap()
            .events
            .into_iter()
            .filter(|e| e.shard != ENGINE_TRACK)
            .collect();
        assert_eq!(shard_layout(g.node_count()).0, 4);
        assert!(whole.dropped_unreachable > 0, "the node kill must bite");
        for cuts in [&[0, 2, 4][..], &[0, 1, 3, 4][..]] {
            let (split, events) = run_split(&mut sim(), &cfg, cuts, &tc);
            assert_eq!(split, whole, "ranges {cuts:?} must merge like one range");
            assert!(
                events == shard_events,
                "ranges {cuts:?}: shard trace differs"
            );
        }
    }

    /// Links with a queued packet and nodes owning one, counted from the
    /// FIFO tails alone (no worklist, no sampled walk).
    fn brute_force_busy(sh: &Shard) -> (u32, u32) {
        let (mut active, mut busy) = (0u32, 0u32);
        for local in 0..sh.node_count as usize {
            let queued = sh
                .node_links(local)
                .filter(|&li| sh.links.tail[li] != NIL)
                .count() as u32;
            active += queued;
            busy += u32::from(queued > 0);
        }
        (active, busy)
    }

    #[test]
    fn trace_busy_gauges_match_a_brute_force_count() {
        use ipg_obs::trace::EventKind;
        // A saturated 4-shard ring: most links hold packets, so many
        // nodes have both links busy and must be counted once.
        let g = classic::ring(512);
        let cfg = SimConfig {
            injection_rate: 0.3,
            warmup_cycles: 0,
            measure_cycles: 300,
            drain_cycles: 0,
            seed: 7,
            ..SimConfig::default()
        };
        let every = 10;
        let tc = TraceConfig::with_interval(every);
        for obs in [
            Obs::disabled(),
            Obs::with_recorder(Box::new(ipg_obs::NullRecorder)),
        ] {
            let mut sim = Simulator::new(&g, |_| 0, &cfg);
            let pr = cycle_params(sim.n as u32, &cfg, sim.max_interval);
            let mut range =
                ShardRange::prepare(&mut sim.shards, 0, pr, &sim.router, None, &obs, Some(&tc));
            // (cycle, shard, kind, worklist entries, busy nodes)
            let mut want = Vec::new();
            let mut remote = Vec::new();
            let mut sample = |range: &ShardRange<'_, '_, RoutingTable>, cycle: u32, kind| {
                for (si, sh) in range.shards.iter().enumerate() {
                    let (active, busy) = brute_force_busy(sh);
                    let active = if kind == EventKind::Worklist {
                        active
                    } else {
                        0
                    };
                    want.push((cycle, si as u16, kind as u16, active, busy));
                }
            };
            for cycle in 0..pr.total_cycles {
                range.phase_a(cycle);
                if cycle % every == 0 {
                    sample(&range, cycle, EventKind::Worklist);
                }
                range.phase_split(&mut remote);
                range.phase_merge(&[], &[]);
                range.phase_b(cycle);
                if cycle % every == 0 {
                    sample(&range, cycle, EventKind::ActiveNodes);
                }
            }
            let (_, tracers) = range.finish(&obs);
            let trace = Trace::collect(every, tracers, ShardTracer::new(ENGINE_TRACK, &tc));
            let mut got: Vec<_> = trace
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    k if k == EventKind::Worklist as u16 => Some((e.cycle, e.shard, k, e.a, e.b)),
                    k if k == EventKind::ActiveNodes as u16 => {
                        Some((e.cycle, e.shard, k, 0, e.value as u32))
                    }
                    _ => None,
                })
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(trace.dropped, 0);
            assert_eq!(got, want, "obs {}: busy gauges", obs.enabled());
            assert!(
                want.iter()
                    .any(|&(_, _, k, a, b)| k == EventKind::Worklist as u16 && b < a),
                "the run must have nodes with two busy links"
            );
        }
    }

    /// Heap bytes of a shard's per-link state, by capacity: `to` counts
    /// only when the shard owns it, not when it is a view of the CSR.
    fn link_bytes(sh: &Shard) -> usize {
        let l = &sh.links;
        let to = match &l.to {
            Cow::Borrowed(_) => 0,
            Cow::Owned(v) => v.capacity(),
        };
        4 * (to + l.tail.capacity() + l.next_free.capacity() + l.qlen.capacity())
            + l.off_module.heap_bytes()
            + sh.active_links.heap_bytes()
            + 8 * sh.link_busy.capacity()
            + 4 * sh.queue_hw.capacity()
            + sh.link_dead.capacity()
    }

    /// The shards a dist worker assembles for `g`: owned copies of every
    /// shard's rows, exactly as the coordinator ships them.
    fn shipped_shards(
        g: &Csr,
        module: impl Fn(u32) -> u32,
        cfg: &SimConfig,
    ) -> Vec<Shard<'static>> {
        let n = g.node_count();
        let (shard_count, shard_size) = shard_layout(n);
        (0..shard_count as u32)
            .map(|si| {
                let (base, node_count) = shard_span(n as u32, shard_size, si);
                let (link_of, to, off) = shard_link_arrays(g, &module, base, node_count);
                let (link_of, to) = (Cow::Owned(link_of), Cow::Owned(to));
                let off = off.into_iter().collect();
                Shard::assemble(base, node_count, link_of, to, off, link_speeds(cfg))
            })
            .collect()
    }

    #[test]
    fn plain_run_link_state_stays_at_twelve_and_a_quarter_bytes_per_link() {
        // Both link classes present. Per link: `tail` and `next_free` (4
        // bytes each) plus the off-module bit and the worklist bit in
        // whole u64 words — 8.25 bytes in-process once a shard's link
        // count is a multiple of 64, as here (576 per shard), where `to`
        // is a view of the CSR. A dist worker owns its shipped `to` as
        // well: 12.25 bytes.
        let g = classic::torus2d(24);
        let cfg = SimConfig {
            off_module_interval: 3,
            ..light_cfg()
        };
        let module = |u: u32| u / 8;
        let mut sim = Simulator::new(&g, module, &cfg);
        let borrowed = sim.run(&cfg);
        assert!(borrowed.delivered > 0);
        let per_link = |sim: &Simulator<'_>, owned: usize| {
            let (mut bytes, mut links) = (0, 0);
            for sh in &sim.shards {
                let nl = sh.links.len();
                let bound = (8 + owned) * nl + 2 * 8 * nl.div_ceil(64);
                assert!(
                    link_bytes(sh) <= bound,
                    "{} bytes for {nl} links",
                    link_bytes(sh)
                );
                bytes += link_bytes(sh);
                links += nl;
            }
            assert!(
                bytes * 4 <= links * (33 + 4 * owned),
                "{bytes} bytes for {links} links is over {}.25 per link",
                8 + owned
            );
        };
        per_link(&sim, 0);
        sim.shards = shipped_shards(&g, module, &cfg);
        assert_eq!(
            sim.run(&cfg),
            borrowed,
            "owned rows must run like borrowed ones"
        );
        per_link(&sim, 4);
    }

    /// Every shard of `sim` (built on `g` with `module`) holds exactly the
    /// rows [`shard_link_arrays`] ships for it, so a worker's owned arrays
    /// and the in-process views cannot drift apart, and its `to` and
    /// `link_of` lie inside `g`'s own buffers: nothing was copied.
    fn assert_rows_are_borrowed<R: Router>(
        sim: &Simulator<'_, R>,
        g: &Csr,
        module: impl Fn(u32) -> u32,
    ) {
        let n = g.node_count();
        let (offsets, targets) = g.rows(0..n as u32);
        let inside = |inner: &[u32], outer: &[u32]| {
            let (i, o) = (inner.as_ptr_range(), outer.as_ptr_range());
            o.start <= i.start && i.end <= o.end
        };
        let (shard_count, shard_size) = shard_layout(n);
        assert_eq!(sim.shards.len(), shard_count);
        for (si, sh) in sim.shards.iter().enumerate() {
            let (base, node_count) = shard_span(n as u32, shard_size, si as u32);
            assert_eq!((sh.base, sh.node_count), (base, node_count));
            let (link_of, to, off) = shard_link_arrays(g, &module, base, node_count);
            let local: Vec<Range<usize>> =
                (0..node_count as usize).map(|l| sh.node_links(l)).collect();
            let shipped: Vec<Range<usize>> = link_of
                .windows(2)
                .map(|w| w[0] as usize..w[1] as usize)
                .collect();
            assert_eq!(local, shipped, "shard {si}: node link ranges");
            assert_eq!(&sh.links.to[..], &to[..], "shard {si}: link targets");
            assert_eq!(
                (0..off.len())
                    .map(|li| sh.links.off_module.get(li))
                    .collect::<Vec<_>>(),
                off,
                "shard {si}: off-module bits"
            );
            assert!(
                matches!(sh.links.to, Cow::Borrowed(_)) && inside(&sh.links.to, targets),
                "shard {si}: `to` is not a view of the CSR targets"
            );
            assert!(
                matches!(sh.link_of, Cow::Borrowed(_)) && inside(&sh.link_of, offsets),
                "shard {si}: `link_of` is not a view of the CSR offsets"
            );
        }
    }

    #[test]
    fn in_process_shards_borrow_the_rows_the_workers_are_shipped() {
        use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
        use ipg_core::tuple_routing::ShortestTupleRouter;
        // Every super-IP family at l = 2 to 4, plain and symmetric seeds,
        // up to 5,000 nodes (1 to 32 shards).
        let cfg = SimConfig {
            injection_rate: 0.02,
            warmup_cycles: 0,
            measure_cycles: 100,
            drain_cycles: 100,
            ..light_cfg()
        };
        let mut multi_shard = 0;
        for l in 2..5 {
            for family in 0..4 {
                for (nuc, sym) in [
                    (NucleusSpec::hypercube(2), false),
                    (NucleusSpec::hypercube(3), false),
                    (NucleusSpec::complete(5), false),
                    (NucleusSpec::ring(4), false),
                    (NucleusSpec::hypercube(1), true),
                    (NucleusSpec::hypercube(2), true),
                    (NucleusSpec::hypercube(3), true),
                ] {
                    let mut spec = match family {
                        0 => SuperIpSpec::hsn(l, nuc),
                        1 => SuperIpSpec::ring_cn(l, nuc),
                        2 => SuperIpSpec::complete_cn(l, nuc),
                        _ => SuperIpSpec::superflip(l, nuc),
                    };
                    if sym {
                        spec = spec.symmetric();
                    }
                    if spec.expected_size().unwrap() > 5_000 {
                        continue;
                    }
                    let g = spec.fast_undirected_csr().unwrap();
                    let tn = TupleNetwork::from_spec(&spec).unwrap();
                    let m = tn.m_nodes() as u32;
                    let module = |v: u32| v / m;
                    let router = ShortestTupleRouter::new(tn).unwrap();
                    let mut sim = Simulator::with_router(router, &g, module, &cfg);
                    assert_rows_are_borrowed(&sim, &g, module);
                    multi_shard += usize::from(sim.shards.len() > 1);
                    let borrowed = sim.run(&cfg);
                    sim.shards = shipped_shards(&g, module, &cfg);
                    assert_eq!(sim.run(&cfg), borrowed, "{}: owned vs borrowed", spec.name);
                }
            }
        }
        assert!(multi_shard >= 10, "only {multi_shard} multi-shard specs");
    }

    /// Steps from `u` toward nothing in particular: neighbor `d mod
    /// degree`, none at a node without links. Routes any directed graph,
    /// strongly connected or not.
    struct Wander<'g>(&'g Csr);

    impl Router for Wander<'_> {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }

        fn next_hop(&self, u: u32, d: u32) -> Option<u32> {
            let nb = self.0.neighbors(u);
            (u != d && !nb.is_empty()).then(|| nb[d as usize % nb.len()])
        }
    }

    #[test]
    fn uneven_rows_are_borrowed_and_fault_like_shipped_ones() {
        use crate::fault::{FaultPlan, FaultSpec};
        // Uneven degrees: node u starts up to u % 5 edges, none to a
        // multiple of 5, so every fifth node has no link at all (fault
        // plans kill both directions of a link, so the graph is
        // symmetric); 514 nodes make 4 shards of 129, the last one 127.
        let n = 514u32;
        let adj = (0..n)
            .map(|u| {
                (1..=u % 5)
                    .map(|k| (u + 7 * k) % n)
                    .filter(|v| v % 5 != 0)
                    .collect()
            })
            .collect();
        let g = Csr::from_adj(adj).symmetrized();
        assert_eq!(shard_layout(n as usize), (4, 129));
        assert!(g.degree(0) == 0 && g.max_degree() >= 5 && g.degree(n - 1) > 0);
        let module = |u: u32| u / 10;
        let cfg = SimConfig {
            injection_rate: 0.05,
            warmup_cycles: 0,
            measure_cycles: 200,
            drain_cycles: 100,
            ..light_cfg()
        };
        let mut sim = Simulator::with_router(Wander(&g), &g, module, &cfg);
        assert_rows_are_borrowed(&sim, &g, module);
        // Owner lookup across the degree-0 nodes, shard by shard.
        for sh in &sim.shards {
            for local in 0..sh.node_count as usize {
                for li in sh.node_links(local) {
                    assert_eq!(sh.owner_of(li), sh.base + local as u32);
                }
            }
        }
        // Link kills re-route at the owner, node kills drain the node's
        // links (node 400 has none): both read the rows, borrowed or
        // shipped.
        let spec = FaultSpec::parse("script:node@60:3+node@90:400;rate:links=0.1,at=50").unwrap();
        sim.set_fault_plan(Some(FaultPlan::compile(&spec, &g, cfg.seed).unwrap()));
        let borrowed = sim.run(&cfg);
        assert!(borrowed.delivered > 0 && borrowed.dropped_unreachable > 0);
        sim.shards = shipped_shards(&g, module, &cfg);
        assert_eq!(
            sim.run(&cfg),
            borrowed,
            "owned vs borrowed rows under faults"
        );
    }

    #[test]
    fn steady_state_cycles_do_not_allocate_pool_slots_unboundedly() {
        // The slab pool reuses freed slots: at a stable light load the
        // pool's backing arrays stop growing once the pipeline fills.
        let g = classic::torus2d(6);
        let cfg = light_cfg();
        let mut sim = Simulator::new(&g, |_| 0, &cfg);
        sim.run(&cfg);
        let cap: usize = sim.shards.iter().map(|s| s.pool.dst.len()).sum();
        // far below one-slot-per-injection (~36 nodes × 7500 cycles × 0.005)
        assert!(cap < 400, "pool grew to {cap} slots");
    }
}
