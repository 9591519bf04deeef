//! Compact fault views over CSR graphs.
//!
//! A [`FaultView`] records which nodes and links of a fixed graph are
//! currently dead: a bitset for nodes, a sorted arc-key vector for links
//! (fault sets are small relative to the graph, so binary search beats a
//! hash probe and — unlike a default-hasher set — has no iteration-order
//! trap). The view is plain data: queries are pure, mutation bumps an
//! `epoch` counter so consumers (e.g. the fault-aware router in
//! `ipg-sim`) can cache derived state per fault configuration.
//!
//! [`bfs_faulted`] is the reference routing oracle on the faulted graph:
//! exact hop distances with every dead node and dead arc removed. The
//! property-test battery checks the adaptive router against it, and the
//! connectivity-threshold sweeps (Jin/Reidys-style random induced
//! subgraphs) are built from [`largest_alive_component`].

use crate::algo::UNREACHABLE;
use crate::graph::Csr;
use std::collections::VecDeque;

/// The dead-node / dead-link state of a graph with `n` nodes.
///
/// Links are undirected: killing `{u, v}` removes both arcs. Node and
/// arc ids are *not* validated against a graph here — the view is a pure
/// set; callers resolve ids against their topology (the fault-plan
/// compiler in `ipg-sim` rejects kills that name absent links).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultView {
    n: usize,
    /// Bitset over node ids.
    dead_nodes: Vec<u64>,
    /// Sorted `(u << 32) | v` keys; both directions of a killed link.
    dead_arcs: Vec<u64>,
    dead_node_count: usize,
    epoch: u64,
}

#[inline]
fn arc_key(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

impl FaultView {
    /// A fully-healthy view over `n` nodes.
    pub fn new(n: usize) -> Self {
        FaultView {
            n,
            dead_nodes: vec![0u64; n.div_ceil(64)],
            dead_arcs: Vec::new(),
            dead_node_count: 0,
            epoch: 0,
        }
    }

    /// Number of nodes the view spans.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// True when nothing is dead — the healthy-network fast path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dead_node_count == 0 && self.dead_arcs.is_empty()
    }

    /// Monotone counter bumped by every kill; equal epochs on the same
    /// view imply an identical fault set, so derived state (BFS distance
    /// fields) may be cached keyed by it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Dead-node count.
    pub fn dead_nodes(&self) -> usize {
        self.dead_node_count
    }

    /// Dead-link count (undirected).
    pub fn dead_links(&self) -> usize {
        self.dead_arcs.len() / 2
    }

    /// Kill node `v` (idempotent).
    pub fn kill_node(&mut self, v: u32) {
        let (w, b) = (v as usize / 64, v as usize % 64);
        if self.dead_nodes[w] & (1u64 << b) == 0 {
            self.dead_nodes[w] |= 1u64 << b;
            self.dead_node_count += 1;
            self.epoch += 1;
        }
    }

    /// Kill the undirected link `{u, v}` — both arcs (idempotent).
    pub fn kill_link(&mut self, u: u32, v: u32) {
        let mut changed = false;
        for key in [arc_key(u, v), arc_key(v, u)] {
            if let Err(pos) = self.dead_arcs.binary_search(&key) {
                self.dead_arcs.insert(pos, key);
                changed = true;
            }
        }
        if changed {
            self.epoch += 1;
        }
    }

    /// Is node `v` dead?
    #[inline]
    pub fn node_dead(&self, v: u32) -> bool {
        self.dead_nodes[v as usize / 64] & (1u64 << (v as usize % 64)) != 0
    }

    /// Is the arc `u -> v` dead (killed as part of link `{u, v}`)?
    #[inline]
    pub fn arc_dead(&self, u: u32, v: u32) -> bool {
        !self.dead_arcs.is_empty() && self.dead_arcs.binary_search(&arc_key(u, v)).is_ok()
    }

    /// Can a packet traverse `u -> v`? False when the arc or either
    /// endpoint is dead.
    #[inline]
    pub fn arc_usable(&self, u: u32, v: u32) -> bool {
        !self.node_dead(u) && !self.node_dead(v) && !self.arc_dead(u, v)
    }
}

/// BFS hop distances from `src` on `g` restricted to alive nodes and
/// arcs. Dead nodes (including a dead `src`) get [`UNREACHABLE`], as does
/// everything cut off by the fault set.
pub fn bfs_faulted(g: &Csr, view: &FaultView, src: u32) -> Vec<u32> {
    // ipg-analyze: allow(ALLOC001) reason="DetourRouter's fallback for a field with a distance above 254: once per such destination per fault epoch, then FIFO-cached; not steady-state"
    let mut dist = vec![UNREACHABLE; g.node_count()];
    if view.node_dead(src) {
        return dist;
    }
    dist[src as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE && view.arc_usable(u, v) {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Size of the largest connected component among alive nodes, honoring
/// dead links. Drives the empirical connectivity-threshold sweeps.
pub fn largest_alive_component(g: &Csr, view: &FaultView) -> usize {
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut best = 0usize;
    for s in 0..n as u32 {
        if seen[s as usize] || view.node_dead(s) {
            continue;
        }
        let dist = bfs_faulted(g, view, s);
        let mut size = 0usize;
        for v in 0..n {
            if dist[v] != UNREACHABLE {
                seen[v] = true;
                size += 1;
            }
        }
        best = best.max(size);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    fn path4() -> Csr {
        // 0 - 1 - 2 - 3
        Csr::from_edges(4, [(0, 1), (1, 2), (2, 3)], true)
    }

    #[test]
    fn kills_are_idempotent_and_bump_epoch_once() {
        let mut v = FaultView::new(4);
        assert!(v.is_empty());
        v.kill_node(2);
        let e = v.epoch();
        v.kill_node(2);
        assert_eq!(v.epoch(), e, "re-killing a dead node must not bump epoch");
        v.kill_link(0, 1);
        assert!(v.arc_dead(0, 1) && v.arc_dead(1, 0), "links die both ways");
        let e2 = v.epoch();
        v.kill_link(1, 0);
        assert_eq!(v.epoch(), e2, "same link in either order is one kill");
        assert_eq!(v.dead_nodes(), 1);
        assert_eq!(v.dead_links(), 1);
        assert!(!v.is_empty());
    }

    #[test]
    fn bfs_faulted_respects_dead_links_and_nodes() {
        let g = path4();
        let healthy = FaultView::new(4);
        assert_eq!(bfs_faulted(&g, &healthy, 0), algo::bfs(&g, 0));

        let mut cut = FaultView::new(4);
        cut.kill_link(1, 2);
        let d = bfs_faulted(&g, &cut, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);

        let mut dead_mid = FaultView::new(4);
        dead_mid.kill_node(1);
        let d = bfs_faulted(&g, &dead_mid, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], UNREACHABLE, "dead nodes are unreachable");
        assert_eq!(d[2], UNREACHABLE, "paths may not cross dead nodes");

        let mut dead_src = FaultView::new(4);
        dead_src.kill_node(0);
        assert!(bfs_faulted(&g, &dead_src, 0)
            .iter()
            .all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn largest_alive_component_counts_survivors() {
        let g = path4();
        let mut v = FaultView::new(4);
        assert_eq!(largest_alive_component(&g, &v), 4);
        v.kill_node(1);
        // components: {0}, {2, 3}
        assert_eq!(largest_alive_component(&g, &v), 2);
        v.kill_link(2, 3);
        assert_eq!(largest_alive_component(&g, &v), 1);
    }
}
