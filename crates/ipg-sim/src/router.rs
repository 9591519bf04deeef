//! The routing abstraction behind the simulation engines.
//!
//! Simulators ask one question per hop: *which neighbor moves this packet
//! one step closer to its destination?* [`Router`] answers it behind a
//! trait so two very different implementations can plug into the same
//! engine:
//!
//! - [`RoutingTable`] — an all-pairs BFS table. Works on **any** CSR, but
//!   costs `O(N²)` memory and `O(N·M)` precompute, which caps it at 65,536
//!   nodes (a 2^20-node CN would need a 4 TB table).
//! - [`ShortestTupleRouter`] — arithmetic routing over
//!   [`ipg_core::TupleNetwork`] codec digits: `O(l!·2^l)` tables built once
//!   from the *nucleus* (size `m`, not `N = m^l`), then `next_hop(u, d)`
//!   is computed per query with **O(1) memory per node pair**. This is what
//!   makes hierarchical networks at paper scale simulatable at all.
//!
//! Both produce exact shortest paths; they may differ in *which* shortest
//! path they pick (the table hash-spreads ties, the codec router uses a
//! fixed neighbor order), so swapping routers changes per-link load
//! patterns but never path lengths.
//!
//! # Fault awareness
//!
//! Under a fault campaign the engines route through
//! [`Router::next_hop_faulted`], which also sees the current
//! [`FaultView`]. The default implementation ignores the view — a
//! fault-*oblivious* router keeps steering packets into dead equipment,
//! which is exactly the non-adaptive baseline the fault sweeps compare
//! against. [`DetourRouter`] is the fault-*aware* implementation: it
//! keeps the inner router's greedy hop whenever that hop is alive and
//! still on a faulted shortest path, and otherwise sidesteps through an
//! alternate neighbor chosen against a cached BFS distance field on the
//! faulted graph.

use ipg_core::algo::UNREACHABLE;
use ipg_core::fault::{bfs_faulted, FaultView};
use ipg_core::graph::Csr;
use ipg_core::tuple_routing::ShortestTupleRouter;
use ipg_core::{IpgError, Result};
use std::collections::VecDeque;
use std::sync::{Arc, PoisonError, RwLock};

use crate::table::RoutingTable;

/// A next-hop oracle over a fixed node-id space. `Sync` because the
/// sharded engine queries it from worker threads concurrently.
pub trait Router: Send + Sync {
    /// Number of nodes in the routed network.
    fn node_count(&self) -> usize;

    /// A neighbor of `u` on a shortest path to `d`, or `None` when `u == d`
    /// or `d` is unreachable from `u`. Must be a pure function of
    /// `(u, d)` — the engine's determinism depends on it.
    fn next_hop(&self, u: u32, d: u32) -> Option<u32>;

    /// Full path `u -> d` (inclusive) by iterating [`Router::next_hop`];
    /// errors with [`IpgError::Unreachable`] when no path exists.
    fn path(&self, u: u32, d: u32) -> Result<Vec<u32>> {
        let mut path = vec![u];
        let mut cur = u;
        while cur != d {
            match self.next_hop(cur, d) {
                Some(next) => {
                    cur = next;
                    path.push(cur);
                }
                None => return Err(IpgError::Unreachable { from: u, to: d }),
            }
        }
        Ok(path)
    }

    /// Next hop under a fault campaign. `None` means the router has no
    /// usable hop — the engines account the packet as dropped-unreachable.
    ///
    /// The default ignores `view`: a fault-oblivious router keeps issuing
    /// its healthy-graph hop even into dead links/nodes (such packets
    /// strand or get dropped at arrival — the non-adaptive baseline).
    /// Must be a pure function of `(u, d, view)`.
    #[inline]
    fn next_hop_faulted(&self, u: u32, d: u32, view: &FaultView) -> Option<u32> {
        let _ = view;
        self.next_hop(u, d)
    }

    /// Full path `u -> d` on the faulted graph by iterating
    /// [`Router::next_hop_faulted`]. Errors with [`IpgError::Unreachable`]
    /// when the router gives up, emits a hop across dead equipment (a
    /// fault-oblivious router will), or fails to arrive within
    /// `node_count()` hops (the bound turns a routing cycle on the
    /// faulted graph into an error instead of a livelock).
    fn path_faulted(&self, u: u32, d: u32, view: &FaultView) -> Result<Vec<u32>> {
        let unreachable = || IpgError::Unreachable { from: u, to: d };
        let mut path = vec![u];
        let mut cur = u;
        while cur != d {
            let next = self
                .next_hop_faulted(cur, d, view)
                .ok_or_else(unreachable)?;
            if !view.arc_usable(cur, next) {
                return Err(unreachable());
            }
            cur = next;
            path.push(cur);
            if path.len() > self.node_count() {
                return Err(unreachable());
            }
        }
        Ok(path)
    }
}

impl<T: Router + ?Sized> Router for Box<T> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    #[inline]
    fn next_hop(&self, u: u32, d: u32) -> Option<u32> {
        (**self).next_hop(u, d)
    }

    fn path(&self, u: u32, d: u32) -> Result<Vec<u32>> {
        (**self).path(u, d)
    }

    #[inline]
    fn next_hop_faulted(&self, u: u32, d: u32, view: &FaultView) -> Option<u32> {
        (**self).next_hop_faulted(u, d, view)
    }

    fn path_faulted(&self, u: u32, d: u32, view: &FaultView) -> Result<Vec<u32>> {
        (**self).path_faulted(u, d, view)
    }
}

impl Router for RoutingTable {
    fn node_count(&self) -> usize {
        RoutingTable::node_count(self)
    }

    #[inline]
    fn next_hop(&self, u: u32, d: u32) -> Option<u32> {
        // The dense table stores `u` itself as the sentinel for both
        // `u == d` and "unreachable".
        let next = RoutingTable::next_hop(self, u, d);
        if next == u {
            None
        } else {
            Some(next)
        }
    }

    fn path(&self, u: u32, d: u32) -> Result<Vec<u32>> {
        RoutingTable::path(self, u, d)
    }
}

impl Router for ShortestTupleRouter {
    fn node_count(&self) -> usize {
        self.network().node_count()
    }

    #[inline]
    fn next_hop(&self, u: u32, d: u32) -> Option<u32> {
        ShortestTupleRouter::next_hop(self, u, d)
    }

    fn path(&self, u: u32, d: u32) -> Result<Vec<u32>> {
        ShortestTupleRouter::path(self, u, d)
    }
}

/// One destination's hop distances on the faulted graph: bytes, with
/// [`FAR`] for "unreachable", when every distance fits in 0..=254, else
/// `u32`s with [`UNREACHABLE`].
#[derive(Clone)]
enum Field {
    Narrow(Arc<[u8]>),
    Wide(Arc<[u32]>),
}

/// The unreachable marker of a narrow [`Field`].
const FAR: u8 = u8::MAX;

impl Field {
    /// Distance from `v`, [`UNREACHABLE`] when there is no path.
    #[inline]
    fn dist(&self, v: u32) -> u32 {
        match self {
            Field::Narrow(f) => match f[v as usize] {
                FAR => UNREACHABLE,
                x => u32::from(x),
            },
            Field::Wide(f) => f[v as usize],
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Field::Narrow(f) => f.len(),
            Field::Wide(f) => 4 * f.len(),
        }
    }
}

/// The faulted graph of one fault epoch as CSR arrays — a dead node's row
/// is empty, dead arcs are dropped, and surviving neighbours keep the
/// graph's row order — plus the scratch of the BFS that fills distance
/// fields from it. Every buffer grows once and is reused by later epochs
/// and fills, so a fill allocates only the fields it hands out.
#[derive(Default)]
struct AliveGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Per node, the lanes that have seen it and the lanes that reach it
    /// on the level being expanded.
    masks: Vec<[u64; 2]>,
    /// The current level: each node with the lanes that reached it.
    frontier: Vec<(u32, u64)>,
    /// The nodes the current level reaches first, one spare slot past `n`.
    reached: Vec<u32>,
    /// The last fill's distances, lane-major with [`AliveGraph::stride`].
    dist: Vec<u8>,
}

const SEEN: usize = 0;
const NEXT: usize = 1;

impl AliveGraph {
    /// Rebuild from `g` under `view`.
    fn rebuild(&mut self, g: &Csr, view: &FaultView) {
        self.offsets.clear();
        self.targets.clear();
        self.offsets.push(0);
        for u in 0..g.node_count() as u32 {
            if !view.node_dead(u) {
                let alive = g.neighbors(u).iter().filter(|&&v| view.arc_usable(u, v));
                self.targets.extend(alive);
            }
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Distance between lanes in `dist`: `n` rounded up and one cache line
    /// more, so the 64 lanes' bytes for a node fall in distinct cache sets
    /// (at `n` = 8192 an unpadded stride maps them all to one set).
    fn stride(&self) -> usize {
        (self.offsets.len() - 1).next_multiple_of(64) + 64
    }

    /// Fill the distance fields to `dests` (at most 64, distinct) with one
    /// push-style bit-parallel BFS: lane `i` carries `dests[i]`, and
    /// [`AliveGraph::lane`] reads its field afterwards. The frontier is a
    /// node list, so one lane does a plain BFS's work. Returns the mask of
    /// lanes that reach a distance above 254, whose fields must go wide.
    fn fill(&mut self, view: &FaultView, dests: &[u32]) -> u64 {
        debug_assert!(dests.len() <= 64);
        let n = self.offsets.len() - 1;
        let stride = self.stride();
        let AliveGraph {
            offsets,
            targets,
            masks,
            frontier,
            reached,
            dist,
        } = self;
        masks.clear();
        masks.resize(n, [0; 2]);
        reached.resize(n + 1, 0);
        dist.clear();
        dist.resize(dests.len() * stride, FAR);
        frontier.clear();
        for (lane, &t) in dests.iter().enumerate() {
            if !view.node_dead(t) {
                masks[t as usize][SEEN] = 1 << lane;
                dist[lane * stride + t as usize] = 0;
                frontier.push((t, 1 << lane));
            }
        }
        let mut wide = 0u64;
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            // Branch-free expansion: every neighbour is written to
            // `reached[len]`, and `len` only moves past a node the level
            // reaches for the first time (at most `n`, hence the spare slot).
            let mut len = 0;
            for &(u, m) in frontier.iter() {
                let row = offsets[u as usize] as usize..offsets[u as usize + 1] as usize;
                for &v in &targets[row] {
                    let mv = &mut masks[v as usize];
                    let new = m & !mv[SEEN];
                    reached[len] = v;
                    len += usize::from(mv[NEXT] == 0 && new != 0);
                    mv[SEEN] |= new;
                    mv[NEXT] |= new;
                }
            }
            frontier.clear();
            for &v in &reached[..len] {
                let m = std::mem::take(&mut masks[v as usize][NEXT]);
                frontier.push((v, m));
                if level >= u32::from(FAR) {
                    wide |= m;
                    continue;
                }
                let mut bits = m;
                while bits != 0 {
                    dist[bits.trailing_zeros() as usize * stride + v as usize] = level as u8;
                    bits &= bits - 1;
                }
            }
        }
        wide
    }

    /// Lane `i`'s field from the last [`AliveGraph::fill`].
    fn lane(&self, i: usize) -> &[u8] {
        &self.dist[i * self.stride()..][..self.offsets.len() - 1]
    }
}

/// Per-destination distance fields on the faulted graph, valid for one
/// fault epoch, and that epoch's alive graph. Fields are FIFO-evicted
/// once their bytes pass [`DETOUR_CACHE_BYTES`], so memory stays bounded
/// and deterministic; every field is a pure function of `(destination,
/// epoch)`, so neither lock timing nor eviction can change a result.
/// Epoch 0 is the healthy view, which never reaches the cache, so a new
/// router rebuilds `alive` on its first miss.
struct DetourCache {
    epoch: u64,
    alive: AliveGraph,
    fields: Vec<Option<Field>>,
    order: VecDeque<u32>,
    /// Bytes of the cached fields.
    bytes: usize,
}

/// Byte budget for the cached distance fields. The alive graph is not
/// charged: like the router's own copy of the topology, which it is a
/// subgraph of, it is sized by the arcs, not by the traffic.
const DETOUR_CACHE_BYTES: usize = 64 << 20;

/// Destinations per fill: one lane per 4 bytes per node of the budget,
/// at most the 64 of a mask word (64 at 8192 nodes, 16 at 2^20).
fn fill_lanes(n: usize) -> usize {
    (DETOUR_CACHE_BYTES / (4 * n.max(1))).clamp(1, 64)
}

/// The fault-aware adaptive router: wraps any inner [`Router`] and
/// consults a [`FaultView`] per hop.
///
/// Healthy network (`view.is_empty()`): delegates verbatim to the inner
/// router, so schedules degenerate byte-for-byte to the inner router's.
///
/// Faulted network: looks up (or computes, once per destination per
/// fault epoch) the hop-distance field of the *faulted* graph from the
/// destination, then
///
/// 1. keeps the inner router's greedy hop when that hop is alive and
///    strictly decreases faulted distance (the codec hop survives
///    whenever it can), and otherwise
/// 2. detours through the first alive neighbor — nucleus arcs first, then
///    super-generators, i.e. the CSR neighbor order — that strictly
///    decreases faulted distance.
///
/// Every hop strictly decreases the faulted distance, so paths are exact
/// shortest on the faulted graph (the "detour bound" is zero extra hops)
/// and livelock is impossible. Unreachable destinations (or dead
/// endpoints) yield `None`, which the engines account as
/// dropped-unreachable.
pub struct DetourRouter<R: Router> {
    inner: R,
    graph: Csr,
    cache: RwLock<DetourCache>,
}

/// The codec-routing instantiation used for super-IP networks — the
/// `--faults` adaptive router in `ipg simulate`.
pub type DetourTupleRouter = DetourRouter<ShortestTupleRouter>;

impl<R: Router> DetourRouter<R> {
    /// Wrap `inner` with fault awareness over `graph` (the same topology
    /// the inner router answers for). Errors when the node counts
    /// disagree or `graph` is not symmetric — detouring relies on
    /// faulted-graph distances being symmetric.
    pub fn new(inner: R, graph: Csr) -> Result<Self> {
        if inner.node_count() != graph.node_count() {
            return Err(IpgError::InvalidGraph {
                reason: format!(
                    "detour router: inner router covers {} nodes but the graph has {}",
                    inner.node_count(),
                    graph.node_count()
                ),
            });
        }
        if !graph.is_symmetric() {
            return Err(IpgError::InvalidGraph {
                reason: "the detour router needs a symmetric graph, and this one is directed"
                    .into(),
            });
        }
        let n = graph.node_count();
        Ok(DetourRouter {
            inner,
            graph,
            cache: RwLock::new(DetourCache {
                epoch: 0,
                alive: AliveGraph::default(),
                fields: vec![None; n],
                order: VecDeque::new(),
                bytes: 0,
            }),
        })
    }

    /// The wrapped fault-oblivious router.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Faulted-graph distances from `d`, cached per fault epoch.
    fn field(&self, d: u32, view: &FaultView) -> Field {
        loop {
            {
                let cache = self.cache.read().unwrap_or_else(PoisonError::into_inner);
                if cache.epoch == view.epoch() {
                    if let Some(f) = &cache.fields[d as usize] {
                        return f.clone();
                    }
                }
            }
            self.fill_block(d, view);
        }
    }

    /// Cache the fields of the [`fill_lanes`]-aligned block of
    /// destinations that holds `d`, those not cached yet, from one fill
    /// on the epoch's alive graph. A field that goes wide comes from
    /// [`bfs_faulted`] instead.
    fn fill_block(&self, d: u32, view: &FaultView) {
        let mut guard = self.cache.write().unwrap_or_else(PoisonError::into_inner);
        let cache = &mut *guard;
        if cache.epoch != view.epoch() {
            // new fault epoch: every cached field is stale
            cache.fields.iter_mut().for_each(|f| *f = None);
            cache.order.clear();
            cache.alive.rebuild(&self.graph, view);
            cache.bytes = 0;
            cache.epoch = view.epoch();
        }
        let n = self.graph.node_count() as u32;
        let lanes = fill_lanes(n as usize) as u32;
        let start = d - d % lanes;
        let mut dests = [0u32; 64];
        let mut k = 0;
        for t in start..n.min(start + lanes) {
            if cache.fields[t as usize].is_none() {
                dests[k] = t;
                k += 1;
            }
        }
        let dests = &dests[..k];
        let wide = cache.alive.fill(view, dests);
        for (i, &t) in dests.iter().enumerate() {
            let f = if wide >> i & 1 == 0 {
                Field::Narrow(Arc::from(cache.alive.lane(i)))
            } else {
                Field::Wide(Arc::from(bfs_faulted(&self.graph, view, t)))
            };
            cache.bytes += f.bytes();
            cache.fields[t as usize] = Some(f);
            cache.order.push_back(t);
        }
        // oldest first, but never the block just filled
        while cache.bytes > DETOUR_CACHE_BYTES && cache.order.len() > dests.len() {
            let old = cache
                .order
                .pop_front()
                .and_then(|t| cache.fields[t as usize].take());
            if let Some(f) = old {
                cache.bytes -= f.bytes();
            }
        }
    }
}

impl<R: Router> Router for DetourRouter<R> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    #[inline]
    fn next_hop(&self, u: u32, d: u32) -> Option<u32> {
        self.inner.next_hop(u, d)
    }

    fn path(&self, u: u32, d: u32) -> Result<Vec<u32>> {
        self.inner.path(u, d)
    }

    fn next_hop_faulted(&self, u: u32, d: u32, view: &FaultView) -> Option<u32> {
        if view.is_empty() {
            return self.inner.next_hop(u, d);
        }
        if u == d || view.node_dead(u) || view.node_dead(d) {
            return None;
        }
        let df = self.field(d, view);
        let du = df.dist(u);
        if du == UNREACHABLE {
            return None;
        }
        if let Some(h) = self.inner.next_hop(u, d) {
            if view.arc_usable(u, h) && df.dist(h) < du {
                return Some(h);
            }
        }
        self.graph
            .neighbors(u)
            .iter()
            .copied()
            .find(|&v| view.arc_usable(u, v) && df.dist(v) < du)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_core::algo;
    use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};

    #[test]
    fn both_impls_agree_on_path_lengths() {
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(2));
        let g = spec.fast_undirected_csr().unwrap();
        let table = RoutingTable::new(&g);
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let codec = ShortestTupleRouter::new(tn).unwrap();
        assert_eq!(Router::node_count(&table), Router::node_count(&codec));
        let n = g.node_count() as u32;
        for u in 0..n {
            let dist = algo::bfs(&g, u);
            for d in 0..n {
                let pt = Router::path(&table, d, u).unwrap();
                let pc = Router::path(&codec, d, u).unwrap();
                assert_eq!(pt.len(), pc.len(), "{d}->{u}");
                assert_eq!(pt.len() - 1, dist[d as usize] as usize);
                for w in pc.windows(2) {
                    assert!(g.has_arc(w[0], w[1]), "codec hop {w:?} not a link");
                }
            }
        }
    }

    #[test]
    fn detour_router_degenerates_and_detours() {
        let g = ipg_networks::classic::ring(8);
        let inner = RoutingTable::new(&g);
        let det = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();

        // zero faults: byte-for-byte the inner router's hops
        let healthy = FaultView::new(8);
        for u in 0..8 {
            for d in 0..8 {
                assert_eq!(
                    det.next_hop_faulted(u, d, &healthy),
                    Router::next_hop(&inner, u, d),
                    "{u}->{d} must degenerate to the inner router"
                );
            }
        }

        // cut {0, 1}: 0 -> 1 must go the long way round, and stay exact
        // shortest on the faulted graph
        let mut cut = FaultView::new(8);
        cut.kill_link(0, 1);
        let p = det.path_faulted(0, 1, &cut).unwrap();
        assert_eq!(p.len(), 8, "7 hops around the ring: {p:?}");
        for w in p.windows(2) {
            assert!(g.has_arc(w[0], w[1]) && cut.arc_usable(w[0], w[1]));
        }

        // a dead endpoint or a severed destination yields None / Unreachable
        let mut dead = FaultView::new(8);
        dead.kill_node(3);
        assert_eq!(det.next_hop_faulted(0, 3, &dead), None);
        assert_eq!(det.next_hop_faulted(3, 0, &dead), None);
        let mut severed = FaultView::new(8);
        severed.kill_link(2, 3);
        severed.kill_link(3, 4);
        assert!(det.path_faulted(0, 3, &severed).is_err());

        // the oblivious default keeps issuing its healthy hop...
        assert_eq!(
            Router::next_hop_faulted(&inner, 0, 1, &cut),
            Router::next_hop(&inner, 0, 1)
        );
        // ...so its faulted path errors instead of livelocking
        assert!(matches!(
            inner.path_faulted(0, 1, &cut),
            Err(IpgError::Unreachable { from: 0, to: 1 })
        ));
    }

    #[test]
    fn detour_router_rejects_mismatched_or_directed_graphs() {
        let ring = ipg_networks::classic::ring(8);
        let small = ipg_networks::classic::ring(4);
        let graph_error =
            |r: Result<DetourRouter<RoutingTable>>| matches!(r, Err(IpgError::InvalidGraph { .. }));
        assert!(graph_error(DetourRouter::new(
            RoutingTable::new(&ring),
            small
        )));
        let directed = ipg_core::Csr::from_fn(4, |u, out| out.push((u + 1) % 4));
        assert!(graph_error(DetourRouter::new(
            RoutingTable::new(&directed),
            directed.clone()
        )));
    }

    #[test]
    fn table_next_hop_maps_sentinel_to_none() {
        let g = ipg_core::Csr::from_fn(6, |u, out| {
            // two disconnected triangles
            let base = u - u % 3;
            out.push(base + (u + 1) % 3);
            out.push(base + (u + 2) % 3);
        });
        let table = RoutingTable::new(&g);
        assert_eq!(Router::next_hop(&table, 2, 2), None, "self route");
        assert_eq!(Router::next_hop(&table, 0, 4), None, "unreachable");
        assert!(Router::next_hop(&table, 0, 2).is_some());
        assert!(Router::path(&table, 0, 5).is_err());
    }

    /// The documented detour rule applied to `dist` (the oracle's field
    /// of `d`): the inner hop if it is usable and strictly closer, else
    /// the first usable CSR neighbour that is strictly closer.
    fn reference_hop(
        inner: &impl Router,
        g: &Csr,
        view: &FaultView,
        dist: &[u32],
        u: u32,
        d: u32,
    ) -> Option<u32> {
        let du = dist[u as usize];
        if u == d || view.node_dead(u) || view.node_dead(d) || du == UNREACHABLE {
            return None;
        }
        let closer = |v: u32| view.arc_usable(u, v) && dist[v as usize] < du;
        match inner.next_hop(u, d) {
            Some(h) if closer(h) => Some(h),
            _ => g.neighbors(u).iter().copied().find(|&v| closer(v)),
        }
    }

    /// A 10×10 torus (100 nodes, so a 64-lane block ends short) with
    /// every tenth link and nodes 3, 64 and 70 dead.
    fn faulted_torus() -> (Csr, FaultView) {
        let g = ipg_networks::classic::torus2d(10);
        let mut view = FaultView::new(g.node_count());
        for (u, v) in g.arcs().filter(|&(u, v)| u < v) {
            if (u * 31 + v * 17) % 10 == 0 {
                view.kill_link(u, v);
            }
        }
        for v in [3, 64, 70] {
            view.kill_node(v);
        }
        (g, view)
    }

    #[test]
    fn fill_matches_bfs_faulted_at_every_lane_count() {
        let (g, view) = faulted_torus();
        let n = g.node_count() as u32;
        let mut alive = AliveGraph::default();
        alive.rebuild(&g, &view);
        let all: Vec<u32> = (0..n).collect();
        for lanes in [1, 7, 64] {
            for block in all.chunks(lanes) {
                assert_eq!(alive.fill(&view, block), 0, "no distance above 254");
                for (i, &t) in block.iter().enumerate() {
                    let f = Field::Narrow(Arc::from(alive.lane(i)));
                    let want = bfs_faulted(&g, &view, t);
                    assert!(
                        (0..n).all(|v| f.dist(v) == want[v as usize]),
                        "{lanes} lanes, to {t}"
                    );
                }
            }
        }

        // through the router: blocks 0..64 and a short 64..100, each with
        // dead destinations, then both blocks again with holes in them
        assert_eq!(fill_lanes(g.node_count()), 64);
        let det = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
        for round in 0..2 {
            if round == 1 {
                let mut cache = det.cache.write().unwrap();
                for t in [5, 6, 40, 64, 65, 99] {
                    let f = cache.fields[t].take().unwrap();
                    cache.bytes -= f.bytes();
                }
            }
            for d in (0..n).rev() {
                let f = det.field(d, &view);
                let want = bfs_faulted(&g, &view, d);
                assert!(
                    (0..n).all(|v| f.dist(v) == want[v as usize]),
                    "field of {d}"
                );
            }
        }
    }

    #[test]
    fn fields_go_wide_past_distance_254() {
        // ring(k) plus a pendant node whose link is dead: the alive graph
        // is the ring, whose largest distance is ⌊k/2⌋
        for (k, wide) in [(509u32, false), (511, true)] {
            let ring = (0..k).map(|u| (u, (u + 1) % k));
            let g = Csr::from_edges(k as usize + 1, ring.chain([(0, k)]), true);
            let mut view = FaultView::new(g.node_count());
            view.kill_link(0, k);
            let inner = RoutingTable::new(&g);
            let det = DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
            for d in 0..=k {
                let dist = bfs_faulted(&g, &view, d);
                if d < k {
                    let far = dist.iter().filter(|&&x| x != UNREACHABLE).max();
                    assert_eq!(far, Some(&(k / 2)));
                }
                for u in 0..=k {
                    assert_eq!(
                        det.next_hop_faulted(u, d, &view),
                        reference_hop(&inner, &g, &view, &dist, u, d),
                        "ring {k}: {u}->{d}"
                    );
                }
                let is_wide = matches!(det.field(d, &view), Field::Wide(_));
                assert_eq!(is_wide, wide && d < k, "ring {k}: field of {d}");
            }
        }
    }

    #[test]
    fn fill_lanes_follow_the_byte_budget() {
        assert_eq!(fill_lanes(8192), 64);
        assert_eq!(fill_lanes(1 << 20), 16);
        assert_eq!(fill_lanes(1 << 22), 4);
    }
}
