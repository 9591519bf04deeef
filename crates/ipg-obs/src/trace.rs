//! Flight-recorder tracing: per-shard, pre-allocated event rings.
//!
//! The sharded simulation engine records fixed-size binary
//! [`TraceEvent`]s into per-shard [`EventRing`]s at a configurable
//! sampling interval. The design constraints, in order:
//!
//! 1. **Zero effect on simulation state.** Events carry only data the
//!    deterministic computation already produced — cycle numbers,
//!    queue depths, busy counts. No wall-clock timestamps: virtual
//!    time (the cycle counter) is the trace clock, which makes trace
//!    files byte-identical across `IPG_THREADS` and lets them be
//!    byte-compared in CI. Wall-clock data stays in the manifest's
//!    `span`/`rate` records (see DESIGN.md §11).
//! 2. **Zero steady-state allocation.** Rings are sized up front; when
//!    full, the oldest event is evicted (counted in `dropped_events`)
//!    rather than growing or blocking the hot loop.
//! 3. **One writer per ring.** Each shard owns its [`ShardTracer`];
//!    the coordinator owns one extra tracer (shard id
//!    [`ENGINE_TRACK`]) for merge-phase events. No locks, no atomics.
//!
//! After a run the rings drain into a [`Trace`], which exports two
//! formats: a compact JSON-lines time-series (`to_jsonl` /
//! `from_jsonl`) the `ipg trace` subcommand summarizes, and Chrome
//! trace-event JSON (`to_chrome_json`) loadable in Perfetto, with one
//! thread track per shard and virtual-time spans for the A/merge/B
//! phases.
//!
//! Simulation code must emit through the [`ShardTracer`] API — never
//! by constructing [`TraceEvent`]s or touching [`EventRing`] directly.
//! The DET005 lint (`ipg-analyze`) enforces this for the engine's hot
//! modules.

use crate::json;
use crate::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Shard id used for coordinator-side (merge phase) events.
pub const ENGINE_TRACK: u16 = u16::MAX;

/// What a [`TraceEvent`] describes. Stored as a `u16` in the event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u16)]
pub enum EventKind {
    /// Phase A done for one shard: `a` = packets injected this cycle,
    /// `b` = messages launched into the outbox.
    PhaseA = 0,
    /// Mailbox merge done (engine track): `a` = messages moved.
    Merge = 1,
    /// Phase B done for one shard: `a` = wheel entries drained,
    /// `b` = packets delivered this cycle.
    PhaseB = 2,
    /// Gauge: `value` = nodes with at least one queued message.
    ActiveNodes = 3,
    /// Gauge: `value` = live pool slots (packets or flits in flight).
    PoolOccupancy = 4,
    /// Gauge: `value` = messages waiting in the arrival wheel.
    WheelDepth = 5,
    /// Gauge: `value` = messages in the outbox after phase A.
    OutboxDepth = 6,
    /// Gauge: `a` = deepest single link queue, `value` = total queued.
    QueueDepth = 7,
    /// Sample: `a` = shard-local link index, `value` = busy cycles
    /// accumulated on that link since the previous sample.
    LinkUtil = 8,
    /// Sample: `a` = shard-local link index, `value` = wormhole credit
    /// stalls (buffer-full probe failures) since the previous sample.
    CreditStall = 9,
    /// Wormhole cycle sample: `a` = packets injected and `b` = packets
    /// delivered since the previous sample, `value` = flits buffered.
    Cycle = 10,
    /// Sparse-kernel occupancy gauge: `a` = active worklist entries
    /// (non-empty link FIFOs / live wormhole channels), `b` = busy
    /// nodes, `value` = total queued messages. Shows how sparse the
    /// cycle actually was.
    Worklist = 11,
}

const KIND_NAMES: &[(EventKind, &str)] = &[
    (EventKind::PhaseA, "phase_a"),
    (EventKind::Merge, "merge"),
    (EventKind::PhaseB, "phase_b"),
    (EventKind::ActiveNodes, "active_nodes"),
    (EventKind::PoolOccupancy, "pool"),
    (EventKind::WheelDepth, "wheel_depth"),
    (EventKind::OutboxDepth, "outbox_depth"),
    (EventKind::QueueDepth, "queue_depth"),
    (EventKind::LinkUtil, "link_util"),
    (EventKind::CreditStall, "credit_stall"),
    (EventKind::Cycle, "cycle"),
    (EventKind::Worklist, "worklist"),
];

impl EventKind {
    /// Stable string name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        KIND_NAMES
            .iter()
            .find(|(k, _)| *k == self)
            .map(|(_, s)| *s)
            .unwrap_or("unknown")
    }

    /// Parse a JSONL kind name back to the enum.
    pub fn from_name(s: &str) -> Option<EventKind> {
        KIND_NAMES.iter().find(|(_, n)| *n == s).map(|(k, _)| *k)
    }

    fn from_u16(v: u16) -> Option<EventKind> {
        KIND_NAMES
            .iter()
            .find(|(k, _)| *k as u16 == v)
            .map(|(k, _)| *k)
    }
}

/// One fixed-size (24-byte) flight-recorder event.
///
/// The payload fields `a`, `b`, `value` are interpreted per
/// [`EventKind`]. Everything is computation-derived: no wall clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TraceEvent {
    /// Simulation cycle the event describes.
    pub cycle: u32,
    /// [`EventKind`] as `u16`.
    pub kind: u16,
    /// Shard the event belongs to ([`ENGINE_TRACK`] for the merge
    /// track).
    pub shard: u16,
    /// First payload word (meaning depends on `kind`).
    pub a: u32,
    /// Second payload word (meaning depends on `kind`).
    pub b: u32,
    /// Wide payload word (meaning depends on `kind`).
    pub value: u64,
}

/// Pre-allocated single-writer ring of [`TraceEvent`]s.
///
/// `push` never allocates and never blocks: when the ring is full the
/// oldest event is evicted and `dropped` is incremented.
pub struct EventRing {
    buf: Vec<TraceEvent>,
    head: usize,
    len: usize,
    dropped: u64,
}

impl EventRing {
    /// Ring holding up to `capacity` events (minimum 1), fully
    /// allocated up front.
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            buf: vec![TraceEvent::default(); capacity],
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        let cap = self.buf.len();
        if self.len < cap {
            self.buf[(self.head + self.len) % cap] = ev;
            self.len += 1;
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain events oldest-first into `out`.
    fn drain_into(&mut self, out: &mut Vec<TraceEvent>) {
        let cap = self.buf.len();
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % cap]);
        }
        self.head = 0;
        self.len = 0;
    }
}

/// Flight-recorder configuration.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Record events only on cycles divisible by this (minimum 1).
    pub interval: u32,
    /// Per-shard ring capacity in events.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            interval: 64,
            capacity: 16 * 1024,
        }
    }
}

impl TraceConfig {
    /// Config with the given sampling interval (clamped to ≥ 1) and the
    /// default ring capacity.
    pub fn with_interval(interval: u32) -> TraceConfig {
        TraceConfig {
            interval: interval.max(1),
            ..TraceConfig::default()
        }
    }
}

/// Per-shard event emitter. The only sanctioned way for simulation
/// code to produce trace events (enforced by DET005).
///
/// Each tracer is owned by exactly one shard (or the coordinator), so
/// emission is lock-free and allocation-free after construction.
pub struct ShardTracer {
    shard: u16,
    interval: u32,
    ring: EventRing,
    prev_busy: Vec<u64>,
    prev_stall: Vec<u64>,
    prev_a: u64,
    prev_b: u64,
}

/// How many top links a tracer reports per sample.
const TOP_LINKS_PER_SAMPLE: usize = 4;

impl ShardTracer {
    /// Tracer for `shard` (use [`ENGINE_TRACK`] for the coordinator).
    pub fn new(shard: u16, cfg: &TraceConfig) -> ShardTracer {
        ShardTracer {
            shard,
            interval: cfg.interval.max(1),
            ring: EventRing::new(cfg.capacity),
            prev_busy: Vec::new(),
            prev_stall: Vec::new(),
            prev_a: 0,
            prev_b: 0,
        }
    }

    /// Pre-size the per-link delta snapshots so the first sample does
    /// not allocate. Call once at setup with the shard's link count.
    pub fn init_links(&mut self, links: usize) {
        self.prev_busy.clear();
        self.prev_busy.resize(links, 0);
        self.prev_stall.clear();
        self.prev_stall.resize(links, 0);
    }

    /// Whether `cycle` is a sampling cycle under this tracer's interval.
    #[inline]
    pub fn sampled(&self, cycle: u64) -> bool {
        cycle % self.interval as u64 == 0
    }

    /// Events evicted so far from this tracer's ring.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    #[inline]
    fn emit(&mut self, cycle: u64, kind: EventKind, a: u32, b: u32, value: u64) {
        self.ring.push(TraceEvent {
            cycle: cycle as u32,
            kind: kind as u16,
            shard: self.shard,
            a,
            b,
            value,
        });
    }

    /// Phase A done: `injected` packets entered, `launched` messages
    /// went to the outbox this cycle.
    pub fn phase_a(&mut self, cycle: u64, injected: u32, launched: u32) {
        self.emit(cycle, EventKind::PhaseA, injected, launched, 0);
    }

    /// Merge done (engine track): `moved` messages crossed shards.
    pub fn merge(&mut self, cycle: u64, moved: u32) {
        self.emit(cycle, EventKind::Merge, moved, 0, 0);
    }

    /// Phase B done: `drained` wheel entries, `delivered` packets.
    pub fn phase_b(&mut self, cycle: u64, drained: u32, delivered: u32) {
        self.emit(cycle, EventKind::PhaseB, drained, delivered, 0);
    }

    /// Gauge: nodes with at least one queued message.
    pub fn active_nodes(&mut self, cycle: u64, count: u64) {
        self.emit(cycle, EventKind::ActiveNodes, 0, 0, count);
    }

    /// Gauge: live pool slots.
    pub fn pool_occupancy(&mut self, cycle: u64, live: u64) {
        self.emit(cycle, EventKind::PoolOccupancy, 0, 0, live);
    }

    /// Gauge: messages waiting in the arrival wheel.
    pub fn wheel_depth(&mut self, cycle: u64, depth: u64) {
        self.emit(cycle, EventKind::WheelDepth, 0, 0, depth);
    }

    /// Gauge: messages in the outbox after phase A.
    pub fn outbox_depth(&mut self, cycle: u64, depth: u64) {
        self.emit(cycle, EventKind::OutboxDepth, 0, 0, depth);
    }

    /// Gauge: deepest link queue and total queued messages.
    pub fn queue_depth(&mut self, cycle: u64, deepest: u32, total: u64) {
        self.emit(cycle, EventKind::QueueDepth, deepest, 0, total);
    }

    /// Sparse-kernel occupancy gauge: worklist entries, busy nodes, and
    /// total queued messages at this sample.
    pub fn worklist(&mut self, cycle: u64, active: u32, busy_nodes: u32, queued: u64) {
        self.emit(cycle, EventKind::Worklist, active, busy_nodes, queued);
    }

    /// Wormhole cycle sample: injection/delivery deltas since the last
    /// sample plus current buffered-flit count.
    pub fn wormhole_cycle(&mut self, cycle: u64, injected: u64, delivered: u64, buffered: u64) {
        let da = injected.saturating_sub(self.prev_a);
        let db = delivered.saturating_sub(self.prev_b);
        self.prev_a = injected;
        self.prev_b = delivered;
        self.emit(cycle, EventKind::Cycle, da as u32, db as u32, buffered);
    }

    /// Report the top links by busy-cycle delta since the previous
    /// sample (at most [`TOP_LINKS_PER_SAMPLE`] events, zero deltas
    /// skipped), then refresh the snapshot.
    pub fn link_util(&mut self, cycle: u64, busy: &[u64]) {
        if self.prev_busy.len() != busy.len() {
            self.prev_busy.resize(busy.len(), 0);
        }
        let mut top = [(0u64, 0usize); TOP_LINKS_PER_SAMPLE];
        top_deltas(busy, &mut self.prev_busy, &mut top);
        for &(delta, li) in top.iter().filter(|(d, _)| *d > 0) {
            self.emit(cycle, EventKind::LinkUtil, li as u32, 0, delta);
        }
    }

    /// Report the top links by credit-stall delta since the previous
    /// sample, then refresh the snapshot. Same shape as
    /// [`ShardTracer::link_util`].
    pub fn credit_stalls(&mut self, cycle: u64, stalls: &[u64]) {
        if self.prev_stall.len() != stalls.len() {
            self.prev_stall.resize(stalls.len(), 0);
        }
        let mut top = [(0u64, 0usize); TOP_LINKS_PER_SAMPLE];
        top_deltas(stalls, &mut self.prev_stall, &mut top);
        for &(delta, li) in top.iter().filter(|(d, _)| *d > 0) {
            self.emit(cycle, EventKind::CreditStall, li as u32, 0, delta);
        }
    }
}

/// Compute per-index deltas of `now` against `prev`, keep the largest
/// few in `top` (descending; ties broken toward the lower index), and
/// overwrite `prev` with `now`.
fn top_deltas(now: &[u64], prev: &mut [u64], top: &mut [(u64, usize)]) {
    for (li, (&n, p)) in now.iter().zip(prev.iter_mut()).enumerate() {
        let delta = n.saturating_sub(*p);
        *p = n;
        if delta == 0 {
            continue;
        }
        // Insertion into a tiny fixed array: find the first slot this
        // delta beats and shift the rest down.
        let mut pos = top.len();
        for (i, &(d, _)) in top.iter().enumerate() {
            if delta > d {
                pos = i;
                break;
            }
        }
        if pos < top.len() {
            for j in (pos + 1..top.len()).rev() {
                top[j] = top[j - 1];
            }
            top[pos] = (delta, li);
        }
    }
}

/// A drained flight-recorder run: all events merged cycle-ordered,
/// plus enough metadata to re-export or summarize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Number of simulation shards (excluding the engine track).
    pub shards: u16,
    /// Sampling interval in cycles.
    pub interval: u32,
    /// Total events evicted across all rings.
    pub dropped: u64,
    /// Events sorted by cycle; within a cycle, shard order then the
    /// engine track, preserving per-shard emission order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Drain per-shard tracers (in shard order) plus the engine tracer
    /// into a merged, deterministic event stream.
    pub fn collect(
        interval: u32,
        mut shard_tracers: Vec<ShardTracer>,
        mut engine: ShardTracer,
    ) -> Trace {
        let shards = shard_tracers.len() as u16;
        let mut events = Vec::with_capacity(
            shard_tracers.iter().map(|t| t.ring.len()).sum::<usize>() + engine.ring.len(),
        );
        let mut dropped = 0u64;
        for t in &mut shard_tracers {
            dropped += t.ring.dropped();
            t.ring.drain_into(&mut events);
        }
        dropped += engine.ring.dropped();
        engine.ring.drain_into(&mut events);
        // Stable sort: rings are cycle-ordered and concatenated in
        // shard order, so per-cycle this yields shard 0..n then the
        // engine track, each preserving emission order.
        events.sort_by_key(|e| e.cycle);
        Trace {
            shards,
            interval,
            dropped,
            events,
        }
    }

    /// Compact JSON-lines export: one `trace_meta` header line, then
    /// one `trace` line per event. Fully deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 80);
        let _ = writeln!(
            out,
            "{{\"record\":\"trace_meta\",\"version\":1,\"shards\":{},\"interval\":{},\"events\":{},\"dropped_events\":{}}}",
            self.shards,
            self.interval,
            self.events.len(),
            self.dropped,
        );
        for e in &self.events {
            let kind = EventKind::from_u16(e.kind).map_or("unknown", EventKind::as_str);
            let _ = writeln!(
                out,
                "{{\"record\":\"trace\",\"cycle\":{},\"shard\":{},\"kind\":{},\"a\":{},\"b\":{},\"value\":{}}}",
                e.cycle,
                e.shard,
                json::quote(kind),
                e.a,
                e.b,
                e.value,
            );
        }
        out
    }

    /// Parse a JSONL export produced by [`Trace::to_jsonl`]. Rejects,
    /// with a line-numbered error, any number outside its field's type, an
    /// `interval` of 0 and a shard id that is neither below `shards` nor
    /// [`ENGINE_TRACK`].
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| "empty trace file".to_string())?;
        if field_str(header, "record") != Some("trace_meta") {
            return Err("first line is not a trace_meta record".to_string());
        }
        let meta = |e: String| format!("line 1: {e}");
        let shards: u16 = field_num(header, "shards").map_err(meta)?;
        let interval: u32 = field_num(header, "interval").map_err(meta)?;
        if interval == 0 {
            return Err("line 1: interval must be ≥ 1".to_string());
        }
        let dropped: u64 = field_num(header, "dropped_events").map_err(meta)?;
        let mut events = Vec::new();
        for (no, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            if field_str(line, "record") != Some("trace") {
                return Err(format!("line {}: not a trace record", no + 1));
            }
            let kind_name =
                field_str(line, "kind").ok_or_else(|| format!("line {}: missing kind", no + 1))?;
            let kind = EventKind::from_name(kind_name)
                .ok_or_else(|| format!("line {}: unknown kind {kind_name:?}", no + 1))?;
            let err = |e: String| format!("line {}: {e}", no + 1);
            let shard: u16 = field_num(line, "shard").map_err(err)?;
            if shard >= shards && shard != ENGINE_TRACK {
                return Err(err(format!(
                    "shard {shard} is neither below shards ({shards}) nor the engine track"
                )));
            }
            events.push(TraceEvent {
                cycle: field_num(line, "cycle").map_err(err)?,
                kind: kind as u16,
                shard,
                a: field_num(line, "a").map_err(err)?,
                b: field_num(line, "b").map_err(err)?,
                value: field_num(line, "value").map_err(err)?,
            });
        }
        Ok(Trace {
            shards,
            interval,
            dropped,
            events,
        })
    }

    /// Chrome trace-event JSON (Perfetto-loadable), spans keyed by
    /// shard. Virtual time: one simulation cycle = 100 µs of trace
    /// time, with the A/merge/B spans occupying fixed sub-slots so the
    /// pipeline structure is visible at any zoom. Deterministic: the
    /// output depends only on the trace contents and `name`.
    pub fn to_chrome_json(&self, name: &str) -> String {
        const CYCLE_US: u64 = 100;
        let mut out = String::with_capacity(256 + self.events.len() * 120);
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"source\":{},\"shards\":{},\"interval\":{},\"dropped_events\":{}}},\"traceEvents\":[",
            json::quote(name),
            self.shards,
            self.interval,
            self.dropped,
        );
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, line: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&line);
        };
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":{}}}}}",
                json::quote(name)
            ),
        );
        for s in 0..self.shards {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{s},\"args\":{{\"name\":{}}}}}",
                    json::quote(&format!("shard {s}"))
                ),
            );
        }
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"engine\"}}}}",
                self.shards
            ),
        );
        for e in &self.events {
            let Some(kind) = EventKind::from_u16(e.kind) else {
                continue;
            };
            let tid = if e.shard == ENGINE_TRACK {
                self.shards as u64
            } else {
                e.shard as u64
            };
            let ts = e.cycle as u64 * CYCLE_US;
            let line = match kind {
                EventKind::PhaseA => format!(
                    "{{\"name\":\"phase_a\",\"ph\":\"X\",\"ts\":{ts},\"dur\":30,\"pid\":0,\"tid\":{tid},\"args\":{{\"injected\":{},\"launched\":{}}}}}",
                    e.a, e.b
                ),
                EventKind::Merge => format!(
                    "{{\"name\":\"merge\",\"ph\":\"X\",\"ts\":{},\"dur\":30,\"pid\":0,\"tid\":{tid},\"args\":{{\"moved\":{}}}}}",
                    ts + 35,
                    e.a
                ),
                EventKind::PhaseB => format!(
                    "{{\"name\":\"phase_b\",\"ph\":\"X\",\"ts\":{},\"dur\":30,\"pid\":0,\"tid\":{tid},\"args\":{{\"drained\":{},\"delivered\":{}}}}}",
                    ts + 70,
                    e.a, e.b
                ),
                EventKind::Cycle => format!(
                    "{{\"name\":\"cycle\",\"ph\":\"X\",\"ts\":{ts},\"dur\":90,\"pid\":0,\"tid\":{tid},\"args\":{{\"injected\":{},\"delivered\":{},\"buffered\":{}}}}}",
                    e.a, e.b, e.value
                ),
                EventKind::QueueDepth => format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"total\":{},\"max\":{}}}}}",
                    json::quote(&format!("queue[{}]", track_label(e.shard))),
                    e.value, e.a
                ),
                EventKind::ActiveNodes
                | EventKind::PoolOccupancy
                | EventKind::WheelDepth
                | EventKind::OutboxDepth => format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"v\":{}}}}}",
                    json::quote(&format!("{}[{}]", kind.as_str(), track_label(e.shard))),
                    e.value
                ),
                EventKind::Worklist => format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"active\":{},\"busy_nodes\":{},\"queued\":{}}}}}",
                    json::quote(&format!("worklist[{}]", track_label(e.shard))),
                    e.a, e.b, e.value
                ),
                EventKind::LinkUtil | EventKind::CreditStall => format!(
                    "{{\"name\":{},\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"s\":\"t\",\"args\":{{\"link\":{},\"delta\":{}}}}}",
                    json::quote(kind.as_str()),
                    e.a, e.value
                ),
            };
            push(&mut out, &mut first, line);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Deterministic analysis of the trace: phase work breakdown,
    /// per-shard imbalance, hottest links, queue-depth quantiles.
    pub fn summarize(&self, top_n: usize) -> TraceSummary {
        let mut injected = 0u64;
        let mut launched = 0u64;
        let mut merged = 0u64;
        let mut drained = 0u64;
        let mut delivered = 0u64;
        let mut stalls = 0u64;
        let mut per_shard_work: BTreeMap<u16, u64> = BTreeMap::new();
        let mut links: BTreeMap<(u16, u32), u64> = BTreeMap::new();
        let queue_hist = Histogram::active();
        let mut queue_max = 0u64;
        let mut cycles = (u32::MAX, 0u32);
        for e in &self.events {
            cycles.0 = cycles.0.min(e.cycle);
            cycles.1 = cycles.1.max(e.cycle);
            match EventKind::from_u16(e.kind) {
                Some(EventKind::PhaseA) => {
                    injected += e.a as u64;
                    launched += e.b as u64;
                    *per_shard_work.entry(e.shard).or_insert(0) += e.b as u64;
                }
                Some(EventKind::Merge) => merged += e.a as u64,
                Some(EventKind::PhaseB) => {
                    drained += e.a as u64;
                    delivered += e.b as u64;
                }
                Some(EventKind::Cycle) => {
                    injected += e.a as u64;
                    delivered += e.b as u64;
                    *per_shard_work.entry(e.shard).or_insert(0) += e.a as u64;
                }
                Some(EventKind::LinkUtil) => {
                    *links.entry((e.shard, e.a)).or_insert(0) += e.value;
                }
                Some(EventKind::CreditStall) => stalls += e.value,
                Some(EventKind::QueueDepth) => {
                    queue_hist.observe(e.value);
                    queue_max = queue_max.max(e.a as u64);
                }
                _ => {}
            }
        }
        let shard_work: Vec<(u16, u64)> = per_shard_work
            .iter()
            .filter(|(s, _)| **s != ENGINE_TRACK)
            .map(|(s, w)| (*s, *w))
            .collect();
        let imbalance = if shard_work.is_empty() {
            1.0
        } else {
            let max = shard_work.iter().map(|(_, w)| *w).max().unwrap_or(0);
            let mean =
                shard_work.iter().map(|(_, w)| *w).sum::<u64>() as f64 / shard_work.len() as f64;
            if mean > 0.0 {
                max as f64 / mean
            } else {
                1.0
            }
        };
        let mut hot: Vec<((u16, u32), u64)> = links.into_iter().collect();
        // Descending by busy total; ties broken by (shard, link) so the
        // ordering is total.
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(top_n);
        TraceSummary {
            shards: self.shards,
            interval: self.interval,
            events: self.events.len() as u64,
            dropped: self.dropped,
            first_cycle: if self.events.is_empty() { 0 } else { cycles.0 },
            last_cycle: cycles.1,
            injected,
            launched,
            merged,
            drained,
            delivered,
            credit_stalls: stalls,
            shard_work,
            imbalance,
            hot_links: hot
                .into_iter()
                .map(|((s, l), v)| HotLink {
                    shard: s,
                    link: l,
                    busy: v,
                })
                .collect(),
            queue_p50: queue_hist.percentile(0.50),
            queue_p95: queue_hist.percentile(0.95),
            queue_p99: queue_hist.percentile(0.99),
            queue_samples: queue_hist.count(),
            queue_deepest: queue_max,
        }
    }
}

fn track_label(shard: u16) -> String {
    if shard == ENGINE_TRACK {
        "engine".to_string()
    } else {
        shard.to_string()
    }
}

/// One entry of [`TraceSummary::hot_links`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotLink {
    /// Shard that owns the link.
    pub shard: u16,
    /// Shard-local link index.
    pub link: u32,
    /// Busy cycles accumulated across all samples.
    pub busy: u64,
}

/// Deterministic rollup of a [`Trace`], rendered by `ipg trace
/// summary`.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    pub shards: u16,
    pub interval: u32,
    pub events: u64,
    pub dropped: u64,
    pub first_cycle: u32,
    pub last_cycle: u32,
    pub injected: u64,
    pub launched: u64,
    pub merged: u64,
    pub drained: u64,
    pub delivered: u64,
    pub credit_stalls: u64,
    /// Phase-A work (launched messages) per shard, shard-ordered.
    pub shard_work: Vec<(u16, u64)>,
    /// Max-over-mean of per-shard phase-A work (1.0 = perfectly even).
    pub imbalance: f64,
    pub hot_links: Vec<HotLink>,
    pub queue_p50: u64,
    pub queue_p95: u64,
    pub queue_p99: u64,
    pub queue_samples: u64,
    pub queue_deepest: u64,
}

impl TraceSummary {
    /// Human-readable rendering (deterministic: derived from trace
    /// contents only).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events over cycles {}..={} ({} shards, sample interval {}, {} dropped)",
            self.events,
            self.first_cycle,
            self.last_cycle,
            self.shards,
            self.interval,
            self.dropped,
        );
        let _ = writeln!(
            out,
            "phase work: injected {} / launched {} / merged {} / drained {} / delivered {}",
            self.injected, self.launched, self.merged, self.drained, self.delivered,
        );
        let _ = writeln!(
            out,
            "shard imbalance: {:.3} (max/mean phase-A work across {} shards)",
            self.imbalance,
            self.shard_work.len(),
        );
        for (s, w) in &self.shard_work {
            let _ = writeln!(out, "  shard {s:>3}: {w} launched");
        }
        let _ = writeln!(
            out,
            "queue depth: p50 {} / p95 {} / p99 {} over {} samples (deepest single link {})",
            self.queue_p50, self.queue_p95, self.queue_p99, self.queue_samples, self.queue_deepest,
        );
        if self.credit_stalls > 0 {
            let _ = writeln!(out, "credit stalls: {}", self.credit_stalls);
        }
        if self.hot_links.is_empty() {
            let _ = writeln!(out, "hottest links: none sampled");
        } else {
            let _ = writeln!(out, "hottest links (busy cycles across samples):");
            for h in &self.hot_links {
                let _ = writeln!(out, "  shard {:>3} link {:>4}: {}", h.shard, h.link, h.busy);
            }
        }
        out
    }
}

/// Extract the unsigned integer field `"key":123` from a JSONL line as a
/// `T`: missing, non-numeric and out-of-range values are errors naming
/// the field.
fn field_num<T: TryFrom<u64>>(line: &str, key: &str) -> Result<T, String> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat).ok_or_else(|| format!("missing {key}"))? + pat.len();
    let raw = line[at..].split([',', '}']).next().unwrap_or("").trim();
    raw.parse::<u64>()
        .ok()
        .and_then(|v| T::try_from(v).ok())
        .ok_or_else(|| format!("{key} `{raw}` is not a {}", std::any::type_name::<T>()))
}

/// Extract a (non-escaped) string field `"key":"value"` from a JSONL
/// line. Only suitable for our own exports, where emitted kinds and
/// record names never contain escapes.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u32, kind: EventKind, shard: u16, a: u32, b: u32, value: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            kind: kind as u16,
            shard,
            a,
            b,
            value,
        }
    }

    #[test]
    fn ring_wraparound_evicts_oldest_and_counts_drops() {
        let mut r = EventRing::new(4);
        for i in 0..10u32 {
            r.push(ev(i, EventKind::PhaseA, 0, i, 0, 0));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let mut out = Vec::new();
        r.drain_into(&mut out);
        let cycles: Vec<u32> = out.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "oldest evicted, order kept");
        assert!(r.is_empty());
        // ring is reusable after a drain
        r.push(ev(42, EventKind::PhaseB, 0, 0, 0, 0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 6, "drain does not reset the drop count");
    }

    #[test]
    fn zero_capacity_ring_still_works() {
        let mut r = EventRing::new(0); // clamped to 1
        r.push(ev(1, EventKind::PhaseA, 0, 0, 0, 0));
        r.push(ev(2, EventKind::PhaseA, 0, 0, 0, 0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn tracer_sampling_interval() {
        let t = ShardTracer::new(0, &TraceConfig::with_interval(64));
        assert!(t.sampled(0));
        assert!(!t.sampled(1));
        assert!(!t.sampled(63));
        assert!(t.sampled(64));
        assert!(t.sampled(128));
        let every = ShardTracer::new(0, &TraceConfig::with_interval(0)); // clamped to 1
        assert!(every.sampled(7));
    }

    #[test]
    fn kind_names_roundtrip() {
        for (k, name) in KIND_NAMES {
            assert_eq!(k.as_str(), *name);
            assert_eq!(EventKind::from_name(name), Some(*k));
            assert_eq!(EventKind::from_u16(*k as u16), Some(*k));
        }
        assert_eq!(EventKind::from_name("nope"), None);
        assert_eq!(EventKind::from_u16(999), None);
    }

    #[test]
    fn link_util_reports_top_deltas_descending() {
        let mut t = ShardTracer::new(3, &TraceConfig::default());
        t.init_links(6);
        t.link_util(0, &[5, 0, 9, 1, 9, 2]);
        let trace = Trace::collect(64, Vec::new(), t);
        let utils: Vec<(u32, u64)> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::LinkUtil as u16)
            .map(|e| (e.a, e.value))
            .collect();
        // top 4 of deltas [5,0,9,1,9,2]: 9@2, 9@4, 5@0, 2@5
        assert_eq!(utils, vec![(2, 9), (4, 9), (0, 5), (5, 2)]);
    }

    #[test]
    fn link_util_deltas_are_since_last_sample() {
        let mut t = ShardTracer::new(0, &TraceConfig::default());
        t.init_links(2);
        t.link_util(0, &[10, 3]);
        t.link_util(64, &[12, 3]); // deltas 2, 0 -> one event
        let trace = Trace::collect(64, Vec::new(), t);
        let second: Vec<_> = trace.events.iter().filter(|e| e.cycle == 64).collect();
        assert_eq!(second.len(), 1);
        assert_eq!((second[0].a, second[0].value), (0, 2));
    }

    #[test]
    fn collect_merges_cycle_ordered_with_engine_last() {
        let cfg = TraceConfig::default();
        let mut s0 = ShardTracer::new(0, &cfg);
        let mut s1 = ShardTracer::new(1, &cfg);
        let mut eng = ShardTracer::new(ENGINE_TRACK, &cfg);
        for c in [0u64, 64] {
            s0.phase_a(c, 1, 2);
            s1.phase_a(c, 3, 4);
            eng.merge(c, 5);
            s0.phase_b(c, 2, 1);
            s1.phase_b(c, 4, 3);
        }
        let trace = Trace::collect(64, vec![s0, s1], eng);
        assert_eq!(trace.shards, 2);
        let order: Vec<(u32, u16, u16)> = trace
            .events
            .iter()
            .map(|e| (e.cycle, e.shard, e.kind))
            .collect();
        let a = EventKind::PhaseA as u16;
        let b = EventKind::PhaseB as u16;
        let m = EventKind::Merge as u16;
        assert_eq!(
            order,
            vec![
                (0, 0, a),
                (0, 0, b),
                (0, 1, a),
                (0, 1, b),
                (0, ENGINE_TRACK, m),
                (64, 0, a),
                (64, 0, b),
                (64, 1, a),
                (64, 1, b),
                (64, ENGINE_TRACK, m),
            ]
        );
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let cfg = TraceConfig::with_interval(32);
        let mut s0 = ShardTracer::new(0, &cfg);
        let mut eng = ShardTracer::new(ENGINE_TRACK, &cfg);
        s0.phase_a(0, 7, 9);
        s0.queue_depth(0, 3, 17);
        s0.pool_occupancy(0, 41);
        eng.merge(0, 11);
        let trace = Trace::collect(32, vec![s0], eng);
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        // and the export is stable
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("{\"record\":\"meta\"}").is_err());
        let missing_kind = "{\"record\":\"trace_meta\",\"version\":1,\"shards\":1,\"interval\":1,\"events\":1,\"dropped_events\":0}\n{\"record\":\"trace\",\"cycle\":0,\"shard\":0,\"a\":0,\"b\":0,\"value\":0}\n";
        assert!(Trace::from_jsonl(missing_kind).is_err());
        // Out-of-range or malformed values are rejected with the line and
        // the field, never truncated.
        let header = |shards: &str, interval: &str| {
            format!("{{\"record\":\"trace_meta\",\"version\":1,\"shards\":{shards},\"interval\":{interval},\"events\":1,\"dropped_events\":0}}\n")
        };
        let event = |cycle: &str, shard: &str, a: &str| {
            format!("{{\"record\":\"trace\",\"cycle\":{cycle},\"shard\":{shard},\"kind\":\"phase_a\",\"a\":{a},\"b\":0,\"value\":0}}\n")
        };
        let ok = format!("{}{}", header("2", "64"), event("5", "1", "3"));
        assert!(Trace::from_jsonl(&ok).is_ok());
        let engine = format!("{}{}", header("2", "64"), event("5", "65535", "3"));
        assert!(Trace::from_jsonl(&engine).is_ok());
        let cases = [
            (
                format!("{}{}", header("2", "64"), event("5", "70000", "3")),
                "line 2",
                "shard `70000`",
            ),
            (
                format!("{}{}", header("2", "64"), event("5", "2", "3")),
                "line 2",
                "shard 2",
            ),
            (
                format!("{}{}", header("2", "64"), event("99999999999", "0", "3")),
                "line 2",
                "cycle `99999999999`",
            ),
            (
                format!("{}{}", header("2", "64"), event("5", "0", "-1")),
                "line 2",
                "a `-1`",
            ),
            (
                format!("{}{}", header("2", "64"), event("5", "0", "1.5")),
                "line 2",
                "a `1.5`",
            ),
            (
                format!("{}{}", header("2", "0"), event("5", "0", "3")),
                "line 1",
                "interval",
            ),
            (
                format!("{}{}", header("2", "4294967296"), event("5", "0", "3")),
                "line 1",
                "interval `4294967296`",
            ),
            (
                format!("{}{}", header("65536", "64"), event("5", "0", "3")),
                "line 1",
                "shards `65536`",
            ),
        ];
        for (text, line, field) in &cases {
            let err = Trace::from_jsonl(text).expect_err(text);
            assert!(
                err.contains(line) && err.contains(field),
                "{err:?} must name {line} and {field}"
            );
        }
    }

    #[test]
    fn chrome_export_escapes_strings_and_has_structure() {
        let cfg = TraceConfig::default();
        let mut s0 = ShardTracer::new(0, &cfg);
        s0.phase_a(0, 1, 2);
        s0.wheel_depth(0, 5);
        let trace = Trace::collect(64, vec![s0], ShardTracer::new(ENGINE_TRACK, &cfg));
        let name = "run \"q\\6\"\nnewline";
        let js = trace.to_chrome_json(name);
        assert!(js.contains("\\\"q\\\\6\\\"\\nnewline"), "{js}");
        assert!(js.starts_with('{') && js.trim_end().ends_with('}'));
        assert!(js.contains("\"traceEvents\":["));
        assert!(js.contains("\"ph\":\"X\""));
        assert!(js.contains("\"ph\":\"C\""));
        assert!(js.contains("\"thread_name\""));
        // no raw control characters anywhere in the output
        assert!(js.chars().all(|c| c == '\n' || (c as u32) >= 0x20));
    }

    #[test]
    fn summary_computes_imbalance_and_hot_links() {
        let cfg = TraceConfig::with_interval(1);
        let mut s0 = ShardTracer::new(0, &cfg);
        let mut s1 = ShardTracer::new(1, &cfg);
        s0.init_links(3);
        s1.init_links(3);
        s0.phase_a(0, 2, 30);
        s1.phase_a(0, 2, 10);
        s0.link_util(0, &[100, 0, 7]);
        s1.link_util(0, &[0, 250, 0]);
        s0.queue_depth(0, 9, 20);
        s1.queue_depth(0, 4, 10);
        let trace = Trace::collect(1, vec![s0, s1], ShardTracer::new(ENGINE_TRACK, &cfg));
        let sum = trace.summarize(2);
        assert_eq!(sum.launched, 40);
        assert!((sum.imbalance - 1.5).abs() < 1e-9, "{}", sum.imbalance);
        assert_eq!(sum.hot_links.len(), 2);
        assert_eq!((sum.hot_links[0].shard, sum.hot_links[0].link), (1, 1));
        assert_eq!(sum.hot_links[0].busy, 250);
        assert_eq!((sum.hot_links[1].shard, sum.hot_links[1].link), (0, 0));
        assert_eq!(sum.queue_deepest, 9);
        assert_eq!(sum.queue_samples, 2);
        let rendered = sum.render();
        assert!(rendered.contains("shard imbalance: 1.500"), "{rendered}");
        assert!(rendered.contains("hottest links"), "{rendered}");
    }

    #[test]
    fn summary_of_empty_trace_is_benign() {
        let trace = Trace {
            shards: 0,
            interval: 64,
            dropped: 0,
            events: Vec::new(),
        };
        let sum = trace.summarize(5);
        assert_eq!(sum.events, 0);
        assert_eq!(sum.imbalance, 1.0);
        assert_eq!(sum.queue_p99, 0);
        assert!(sum.hot_links.is_empty());
        let _ = sum.render(); // must not panic
    }

    #[test]
    fn wormhole_cycle_emits_deltas() {
        let mut t = ShardTracer::new(0, &TraceConfig::with_interval(1));
        t.wormhole_cycle(0, 10, 4, 6);
        t.wormhole_cycle(1, 25, 9, 16);
        let trace = Trace::collect(1, Vec::new(), t);
        assert_eq!(trace.events.len(), 2);
        assert_eq!((trace.events[0].a, trace.events[0].b), (10, 4));
        assert_eq!((trace.events[1].a, trace.events[1].b), (15, 5));
        assert_eq!(trace.events[1].value, 16);
    }
}
