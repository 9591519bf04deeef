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
/// exactly like `rng.gen::<f64>() < rate` while skipping the int→float
/// conversion and float compare in the hottest loop the engine has (one
/// draw per node per cycle, every cycle).
///
/// Exactness: the vendored `Standard` f64 is `k·2⁻⁵³` with
/// `k = next_u64() >> 11`, and both `k·2⁻⁵³` and `rate` are exact f64
/// values, so `k·2⁻⁵³ < rate  ⟺  k < rate·2⁵³` over the reals. Scaling
/// by `2⁵³` is a pure exponent shift (no rounding), and taking `ceil`
/// makes `k < threshold` match the strict real inequality whether or not
/// `rate·2⁵³` is integral.
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

/// One Bernoulli trial against a [`bernoulli_threshold`]: consumes exactly
/// one `next_u64`, same decision as `rng.gen::<f64>() < rate`.
#[inline]
pub fn bernoulli(rng: &mut NodeRng, threshold: u64) -> bool {
    use rand::RngCore;
    (rng.next_u64() >> 11) < threshold
}

/// Cycles covered per [`InjectionSchedule::refill`]. Large enough that a
/// node's generator state stays in registers across a whole chunk of
/// Bernoulli draws (a per-cycle loop would re-touch every node's ~32-byte
/// state every cycle — pure memory traffic at low injection rates);
/// small enough that a shard's per-cycle event buckets stay cache-sized.
pub const SCHEDULE_CHUNK: u32 = 256;

/// Chunked injection schedule: how both engines draw injections.
///
/// The contract is the **per-node cycle-major draw order**: node `v`'s
/// stream yields one Bernoulli per cycle, each success followed at once
/// by the destination draws, exactly as if every live node drew from its
/// stream every cycle (the order the test-only reference model draws
/// in). A node's stream position depends only on how many draws it has
/// made ([`node_stream`]), so its next `SCHEDULE_CHUNK` cycles of
/// decisions can be drawn **ahead of time, node-major** without changing
/// any drawn value, because streams never interleave across nodes. The
/// refill records `(node, destination)` events bucketed by cycle; the
/// per-cycle hot path then touches only nodes that actually inject.
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

    /// Draw injection decisions for the half-open `cycles` range from
    /// each live node's stream. `skip(local)` exempts dead nodes from
    /// drawing; `pick(local, rng)` draws the destination right after a
    /// successful Bernoulli (returning `None` for self-mapped patterns,
    /// which consume their draws but inject nothing).
    pub fn refill(
        &mut self,
        cycles: core::ops::Range<u32>,
        node_count: u32,
        rate: f64,
        rngs: &mut [NodeRng],
        mut skip: impl FnMut(u32) -> bool,
        mut pick: impl FnMut(u32, &mut NodeRng) -> Option<u32>,
    ) {
        let span = cycles.end - cycles.start;
        self.base = cycles.start;
        self.span = span;
        if self.buckets.len() < span as usize {
            // ipg-analyze: allow(ALLOC001) reason="buckets grow once to the refill-window span, then are cleared and recycled; steady state allocates nothing"
            self.buckets.resize_with(span as usize, Vec::new);
        }
        for b in &mut self.buckets[..span as usize] {
            b.clear();
        }
        let threshold = bernoulli_threshold(rate);
        for local in 0..node_count {
            if skip(local) {
                continue;
            }
            let rng = &mut rngs[local as usize];
            for off in 0..span {
                if !bernoulli(rng, threshold) {
                    continue;
                }
                if let Some(dst) = pick(local, rng) {
                    self.buckets[off as usize].push((local, dst));
                }
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

    #[test]
    fn chunked_schedule_replays_the_dense_cycle_major_order() {
        // Dense reference: cycle-major iteration, one Bernoulli (+ one
        // destination draw on a hit) per node per cycle.
        let seed = 99u64;
        let (nodes, span, rate) = (16u32, 32u32, 0.3f64);
        let pick = |local: u32, rng: &mut NodeRng| -> Option<u32> {
            let mut d = rng.gen_range(0..nodes - 1);
            if d >= local {
                d += 1;
            }
            Some(d)
        };
        let mut dense_rngs: Vec<NodeRng> = (0..nodes).map(|v| node_stream(seed, v)).collect();
        let mut dense: Vec<Vec<(u32, u32)>> = vec![Vec::new(); span as usize];
        for cycle in 0..span {
            for local in 0..nodes {
                let rng = &mut dense_rngs[local as usize];
                if rng.gen::<f64>() < rate {
                    if let Some(d) = pick(local, rng) {
                        dense[cycle as usize].push((local, d));
                    }
                }
            }
        }
        let mut sparse_rngs: Vec<NodeRng> = (0..nodes).map(|v| node_stream(seed, v)).collect();
        let mut sched = InjectionSchedule::default();
        sched.refill(0..span, nodes, rate, &mut sparse_rngs, |_| false, pick);
        for cycle in 0..span {
            assert_eq!(
                sched.due(cycle),
                &dense[cycle as usize][..],
                "cycle {cycle}: node-major chunk must replay the dense order"
            );
        }
        assert!(
            dense.iter().any(|b| !b.is_empty()),
            "test must exercise non-empty buckets"
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
