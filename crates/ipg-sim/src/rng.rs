//! Per-node deterministic RNG streams.
//!
//! The sharded engine (and the wormhole simulator) draw randomness from one
//! independent stream per node instead of a single global generator. This is
//! what makes parallel cycle execution deterministic: a node's draws depend
//! only on `(config seed, node id, how many draws the node has made)` — never
//! on the order in which shards interleave, the worker count, or which other
//! nodes happened to inject this cycle.
//!
//! This module is the **only** place in `ipg-sim` allowed to name the
//! concrete generator or its seeding API; `ipg-analyze` rule DET004 rejects
//! `SmallRng` / `SeedableRng` / `seed_from_u64` tokens inside `engine.rs`
//! and `wormhole.rs` so a global-RNG regression cannot slip back in.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One node's private generator. A thin newtype over the vendored
/// xoshiro256++ [`SmallRng`] — the wrapper exists so simulation code can
/// hold and pass RNG state without naming the underlying type.
#[derive(Clone, Debug)]
pub struct NodeRng(SmallRng);

impl rand::RngCore for NodeRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Derive node `node`'s stream from the run seed.
///
/// The node id is avalanche-mixed (SplitMix64-style finalizer) before being
/// XORed into the seed so that consecutive node ids land in unrelated
/// regions of the seed space — `seed ^ node` alone would give sibling nodes
/// seeds differing in a couple of low bits, which correlates the first few
/// draws of the underlying generator.
pub fn node_stream(seed: u64, node: u32) -> NodeRng {
    let mut z = (u64::from(node)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    NodeRng(SmallRng::seed_from_u64(seed ^ z))
}

/// Derive the stream for the undirected link `{u, v}` from the run seed.
///
/// Symmetric in its endpoints (the pair is canonicalized to `min, max`
/// before mixing) so both directions of a link share one stream, and built
/// from the same SplitMix64 finalizer as [`node_stream`] — the pair is
/// packed into one 64-bit word, so two distinct links never alias. The
/// rate-based fault mode draws per-link kill decisions from here; drawing
/// them from a node's stream would perturb that node's injection sequence
/// and break byte-identity against the no-fault run.
pub fn edge_stream(seed: u64, u: u32, v: u32) -> NodeRng {
    let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
    let mut z = ((u64::from(hi) << 32) | u64::from(lo)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    NodeRng(SmallRng::seed_from_u64(seed ^ !z))
}

/// Integer Bernoulli threshold: `(next_u64() >> 11) < threshold` decides
/// exactly like `rng.gen::<f64>() < rate`, with no int→float conversion.
/// It is the rounding rule of [`InjectionSchedule`]'s gap table.
///
/// Exactness: the vendored `Standard` f64 is `k·2⁻⁵³` with
/// `k = next_u64() >> 11`, and both `k·2⁻⁵³` and `rate` are exact f64
/// values, so `k·2⁻⁵³ < rate  ⟺  k < rate·2⁵³` over the reals. Scaling
/// by `2⁵³` is a pure exponent shift (no rounding), and taking `ceil`
/// makes `k < threshold` match the strict real inequality whether or not
/// `rate·2⁵³` is integral. A gap table entry `T_k = threshold(1 − q^(k+1))`
/// therefore compares one draw against the f64 value `1 − q^(k+1)`
/// exactly: the only rounding in the whole draw is in building that f64.
#[inline]
pub fn bernoulli_threshold(rate: f64) -> u64 {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    let t = (rate.max(0.0) * TWO_53).ceil();
    if t >= TWO_53 {
        1u64 << 53 // rate ≥ 1.0: every 53-bit draw passes
    } else {
        t as u64
    }
}

/// Cycles covered per [`InjectionSchedule::refill`], and the window a
/// drawn gap lives in: every live node redraws at each multiple of it.
///
/// Why 256: a node pays one draw per chunk even when it does not inject,
/// so the idle cost is 1/256 of a draw per node-cycle; the gap table has
/// one entry per offset (256 × 8 bytes, 2 KiB, L1-resident while a shard
/// refills); and the per-cycle event buckets stay cache-sized. The value
/// is part of the injection contract: changing it changes every stream.
pub const SCHEDULE_CHUNK: u32 = 256;

/// Chunked injection schedule: how both engines draw injections.
///
/// The contract (injection contract v2) is a **geometric gap draw per
/// node per chunk window**. At the start of each `SCHEDULE_CHUNK`-cycle
/// window every live node draws the gap `k` to its first injection
/// (`P(k) = p·qᵏ`, `q = 1 − p`); after each injection it draws the
/// destination, then the gap to its next injection. A gap reaching past
/// the window's end is discarded and the node draws afresh at the next
/// window. Geometric gaps are memoryless, so the discard leaves the law
/// of a Bernoulli(p)-per-cycle process unchanged, and no per-node state
/// survives a window. A node's draws come only from its own stream
/// ([`node_stream`]), so a window is drawn **node-major** ahead of time:
/// the refill records `(node, destination)` events bucketed by cycle,
/// and the per-cycle hot path touches only nodes that inject.
///
/// Each gap is one `next_u64() >> 11` against the table
/// `T_k = bernoulli_threshold(1 − q^(k+1))` for `k < SCHEDULE_CHUNK`
/// (the gap is the first `k` with `u < T_k`). `q^k` is built by repeated
/// f64 multiplication, so no libm call enters the stream and the outputs
/// do not depend on the platform's `ln`/`pow`. Rate ≥ 1 injects every
/// cycle; rate ≤ 0 never injects.
///
/// Nodes dead at refill time are skipped (they can never draw again —
/// kills are permanent). Nodes that die *mid-chunk* have events already
/// recorded past their death; callers must filter those at execution
/// time with a `node_dead` check. The extra pre-drawn values are
/// unobservable: a dead node's stream is never consulted again.
#[derive(Default)]
pub struct InjectionSchedule {
    /// First cycle the current chunk covers.
    base: u32,
    /// Cycles covered (0 = nothing buffered; forces a refill).
    span: u32,
    /// Per cycle-offset event buckets: `(local node, destination)` in
    /// node order.
    buckets: Vec<Vec<(u32, u32)>>,
    /// The rate `gap_cdf` was built for (bit pattern; `None` = not yet).
    cdf_rate: Option<u64>,
    /// Gap CDF thresholds `T_k`, non-decreasing; cut after the first
    /// entry that every draw passes (`2⁵³`).
    gap_cdf: Vec<u64>,
}

impl InjectionSchedule {
    /// Forget any buffered chunk (keeps allocations). Call at run start.
    pub fn reset(&mut self) {
        self.base = 0;
        self.span = 0;
        for b in &mut self.buckets {
            b.clear();
        }
    }

    /// Does `cycle` fall outside the buffered chunk?
    #[inline]
    pub fn needs_refill(&self, cycle: u32) -> bool {
        self.span == 0 || cycle < self.base || cycle >= self.base + self.span
    }

    /// Rebuild the gap table when `rate` differs from the one it holds.
    /// The vector grows once to at most `SCHEDULE_CHUNK` entries.
    fn build_gap_cdf(&mut self, rate: f64) {
        if self.cdf_rate == Some(rate.to_bits()) {
            return;
        }
        self.cdf_rate = Some(rate.to_bits());
        self.gap_cdf.clear();
        let q = 1.0 - rate;
        let mut q_pow = q; // q^(k+1)
        for _ in 0..SCHEDULE_CHUNK {
            let t = bernoulli_threshold(1.0 - q_pow);
            self.gap_cdf.push(t);
            if t == 1 << 53 {
                break; // every draw lands by here
            }
            q_pow *= q;
        }
    }

    /// Draw injection decisions for the half-open `cycles` range (one
    /// chunk window, starting at a multiple of [`SCHEDULE_CHUNK`]) from
    /// each live node's stream. `skip(local)` exempts dead nodes from
    /// drawing; `pick(local, rng)` draws the destination right after a
    /// gap lands inside the window (returning `None` for self-mapped
    /// patterns, which consume their draws but inject nothing).
    pub fn refill(
        &mut self,
        cycles: core::ops::Range<u32>,
        node_count: u32,
        rate: f64,
        rngs: &mut [NodeRng],
        mut skip: impl FnMut(u32) -> bool,
        mut pick: impl FnMut(u32, &mut NodeRng) -> Option<u32>,
    ) {
        use rand::RngCore;
        let span = cycles.end - cycles.start;
        debug_assert!(
            cycles.start % SCHEDULE_CHUNK == 0 && span <= SCHEDULE_CHUNK,
            "a refill covers one chunk window"
        );
        self.base = cycles.start;
        self.span = span;
        if self.buckets.len() < span as usize {
            // ipg-analyze: allow(ALLOC001) reason="buckets grow once to the refill-window span, then are cleared and recycled; steady state allocates nothing"
            self.buckets.resize_with(span as usize, Vec::new);
        }
        for b in &mut self.buckets[..span as usize] {
            b.clear();
        }
        self.build_gap_cdf(rate);
        let cdf = &self.gap_cdf[..];
        let last = cdf[cdf.len() - 1];
        // The first `k` with `u < T_k`; `SCHEDULE_CHUNK` (past every
        // window) when the table runs out, which only a full-length
        // table can, since a cut table ends at `2⁵³`. At low rates most
        // draws run out, so that case skips the search.
        let gap = |rng: &mut NodeRng| {
            let u = rng.next_u64() >> 11;
            if u >= last {
                cdf.len() as u32
            } else {
                cdf.partition_point(|&t| t <= u) as u32
            }
        };
        for local in 0..node_count {
            if skip(local) {
                continue;
            }
            let rng = &mut rngs[local as usize];
            let mut off = gap(rng);
            while off < span {
                if let Some(dst) = pick(local, rng) {
                    self.buckets[off as usize].push((local, dst));
                }
                off += 1 + gap(rng);
            }
        }
    }

    /// The `(local node, destination)` events due at `cycle`, in node
    /// order. Empty when the cycle holds no injections.
    #[inline]
    pub fn due(&self, cycle: u32) -> &[(u32, u32)] {
        debug_assert!(!self.needs_refill(cycle), "schedule not refilled");
        &self.buckets[(cycle - self.base) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a1: Vec<u64> = (0..8)
            .map({
                let mut r = node_stream(7, 3);
                move |_| r.gen::<u64>()
            })
            .collect();
        let a2: Vec<u64> = (0..8)
            .map({
                let mut r = node_stream(7, 3);
                move |_| r.gen::<u64>()
            })
            .collect();
        assert_eq!(a1, a2, "same (seed, node) must replay the same stream");

        let b: Vec<u64> = (0..8)
            .map({
                let mut r = node_stream(7, 4);
                move |_| r.gen::<u64>()
            })
            .collect();
        assert_ne!(a1, b, "adjacent nodes must get unrelated streams");

        let c: Vec<u64> = (0..8)
            .map({
                let mut r = node_stream(8, 3);
                move |_| r.gen::<u64>()
            })
            .collect();
        assert_ne!(a1, c, "different run seeds must change every stream");
    }

    #[test]
    fn edge_streams_are_symmetric_and_distinct() {
        let draws = |mut r: NodeRng| -> Vec<u64> { (0..8).map(|_| r.gen::<u64>()).collect() };
        let uv = draws(edge_stream(7, 3, 9));
        let vu = draws(edge_stream(7, 9, 3));
        assert_eq!(uv, vu, "both directions of a link must share one stream");
        assert_ne!(
            uv,
            draws(edge_stream(7, 3, 10)),
            "different links must get unrelated streams"
        );
        assert_ne!(
            uv,
            draws(edge_stream(8, 3, 9)),
            "different run seeds must change every stream"
        );
        assert_ne!(
            draws(edge_stream(7, 0, 9)),
            draws(node_stream(7, 9)),
            "edge and node domains must not alias"
        );
    }

    /// Every event of `cycles` cycles drawn chunk by chunk through
    /// [`InjectionSchedule::refill`], as `(cycle, node, destination)`.
    fn scheduled(
        cycles: u32,
        nodes: u32,
        rate: f64,
        seed: u64,
        skip: impl Fn(u32) -> bool,
        pick: impl Fn(u32, &mut NodeRng) -> Option<u32>,
    ) -> Vec<(u32, u32, u32)> {
        let mut rngs: Vec<NodeRng> = (0..nodes).map(|v| node_stream(seed, v)).collect();
        let mut sched = InjectionSchedule::default();
        let mut out = Vec::new();
        for base in (0..cycles).step_by(SCHEDULE_CHUNK as usize) {
            let end = cycles.min(base + SCHEDULE_CHUNK);
            sched.refill(base..end, nodes, rate, &mut rngs, &skip, &pick);
            for cycle in base..end {
                out.extend(sched.due(cycle).iter().map(|&(v, d)| (cycle, v, d)));
            }
        }
        out
    }

    /// A destination draw that sometimes maps a node to itself, so the
    /// tests cover picks that consume draws but inject nothing.
    fn pick(nodes: u32) -> impl Fn(u32, &mut NodeRng) -> Option<u32> {
        move |local, rng| {
            let d = rng.gen_range(0..nodes);
            (d != local).then_some(d)
        }
    }

    #[test]
    fn chunked_schedule_matches_a_cycle_major_pending_gap_loop() {
        // Written from the contract, not from `refill`: cycle-major, a
        // pending next-injection cycle per node, redrawn at every
        // multiple of SCHEDULE_CHUNK, gaps by a linear f64 scan.
        let seed = 99u64;
        let nodes = 24u32;
        let skip = |v: u32| v == 5;
        for (rate, cycles) in [(0.3, 700u32), (0.02, 1000), (1.0, 300), (0.0, 300)] {
            let mut rngs: Vec<NodeRng> = (0..nodes).map(|v| node_stream(seed, v)).collect();
            let gap = |rng: &mut NodeRng| {
                let u = rng.gen::<f64>();
                let q = 1.0 - rate;
                let mut q_pow = q;
                for k in 0..SCHEDULE_CHUNK {
                    if u < 1.0 - q_pow {
                        return Some(k);
                    }
                    q_pow *= q;
                }
                None
            };
            let mut pending: Vec<Option<u32>> = vec![None; nodes as usize];
            let mut want = Vec::new();
            for cycle in 0..cycles {
                let window_end = (cycle / SCHEDULE_CHUNK + 1) * SCHEDULE_CHUNK;
                for v in 0..nodes {
                    if skip(v) {
                        continue;
                    }
                    let rng = &mut rngs[v as usize];
                    if cycle % SCHEDULE_CHUNK == 0 {
                        pending[v as usize] = gap(rng).map(|k| cycle + k);
                    }
                    if pending[v as usize] != Some(cycle) {
                        continue;
                    }
                    if let Some(d) = pick(nodes)(v, rng) {
                        want.push((cycle, v, d));
                    }
                    pending[v as usize] = gap(rng)
                        .map(|k| cycle + 1 + k)
                        .filter(|&next| next < window_end);
                }
            }
            let got = scheduled(cycles, nodes, rate, seed, skip, pick(nodes));
            assert_eq!(
                got, want,
                "rate {rate}: refill departs from the pending-gap loop"
            );
            if rate > 0.0 {
                assert!(!want.is_empty(), "rate {rate}: test must see injections");
            }
        }
    }

    #[test]
    fn gap_draw_keeps_the_bernoulli_law() {
        // 3000 cycles: eleven full chunks and a truncated 184-cycle one.
        let (nodes, cycles, seed) = (1000u32, 3000u32, 7u64);
        let skip = |v: u32| v == 3;
        let live = f64::from(nodes - 1) * f64::from(cycles);
        for rate in [0.002, 0.02, 0.3] {
            let events = scheduled(cycles, nodes, rate, seed, skip, |_, _| Some(0));
            assert!(
                events.iter().all(|&(_, v, _)| v != 3),
                "a skipped node drew"
            );
            let (mean, sd) = (live * rate, (live * rate * (1.0 - rate)).sqrt());
            let total = events.len() as f64;
            assert!(
                (total - mean).abs() < 4.0 * sd,
                "rate {rate}: {total} injections, expected {mean} ± 4·{sd:.1}"
            );
            // Gaps after each injection, across chunk boundaries, against
            // P(k) = p·q^k in bins of equal width with an open last bin.
            // Only injections at least `horizon` cycles before the end
            // count, so a gap the run cuts off still lands in the last
            // bin and long gaps are not under-sampled.
            let q = 1.0 - rate;
            let (width, bins) = (((0.25 / rate).ceil() as u32).max(1), 8u32);
            let horizon = width * (bins - 1);
            let mut next = vec![None; nodes as usize];
            let mut seen = vec![0f64; bins as usize];
            for &(c, v, _) in events.iter().rev() {
                let after = next[v as usize].replace(c);
                if c + horizon < cycles {
                    let k = after.map_or(horizon, |n: u32| n - c - 1);
                    seen[(k / width).min(bins - 1) as usize] += 1.0;
                }
            }
            let samples: f64 = seen.iter().sum();
            let mut chi2 = 0.0;
            for (b, &o) in seen.iter().enumerate() {
                let lo = q.powi((b as u32 * width) as i32);
                let hi = if b as u32 == bins - 1 {
                    0.0
                } else {
                    q.powi(((b as u32 + 1) * width) as i32)
                };
                let e = samples * (lo - hi);
                assert!(e > 20.0, "rate {rate}: bin {b} too thin to test ({e:.1})");
                chi2 += (o - e) * (o - e) / e;
            }
            // 7 degrees of freedom: mean 7, sd √14; allow 4 sd.
            let df = f64::from(bins - 1);
            assert!(
                chi2 < df + 4.0 * (2.0 * df).sqrt(),
                "rate {rate}: gap histogram {seen:?} departs from p·q^k (χ² {chi2:.1})"
            );
        }
        let none = scheduled(cycles, nodes, 0.0, seed, skip, |_, _| Some(0));
        assert!(none.is_empty(), "rate 0 must inject nothing");
        let all = scheduled(600, 10, 1.0, seed, |v| v == 3, |_, _| Some(0));
        assert_eq!(
            all.len(),
            600 * 9,
            "rate 1 must inject every live node every cycle"
        );
    }

    #[test]
    fn adjacent_nodes_do_not_correlate_in_early_draws() {
        // With naive `seed ^ node` seeding, nodes 0/1 start from seeds
        // differing in one bit. The mixed scheme must decorrelate the very
        // first Bernoulli draw across a block of consecutive nodes.
        let seed = 0x5eed_1b9a_44c0_ffee;
        let hits = (0..1000u32)
            .filter(|&n| node_stream(seed, n).gen_bool(0.5))
            .count();
        assert!(
            (400..=600).contains(&hits),
            "first draws look biased across nodes: {hits}/1000"
        );
    }
}
