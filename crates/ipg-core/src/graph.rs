//! Compact CSR graph representation shared by every crate in the workspace.
//!
//! Interconnection networks here are *simple* graphs for metric purposes:
//! the constructors deduplicate parallel edges and drop self-loops (a
//! generator may map a label to itself — e.g. the first generated node in
//! the paper's HCN(2,2) example is the seed itself — but such a move is not
//! a physical link).

use serde::{Deserialize, Serialize};

/// Compressed sparse row graph. May be directed; [`Csr::is_symmetric`]
/// reports whether every arc has a reverse arc (i.e. the graph can be read
/// as undirected).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Build from an arc list. `symmetrize` adds the reverse of every arc.
    /// Self-loops are dropped and parallel arcs deduplicated.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32)>,
        symmetrize: bool,
    ) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (u, v) in edges {
            let (u, v) = (u as usize, v as usize);
            assert!(u < n && v < n, "edge endpoint out of range");
            if u == v {
                continue;
            }
            adj[u].push(v as u32);
            if symmetrize {
                adj[v].push(u as u32);
            }
        }
        Csr::from_adj(adj)
    }

    /// Build from per-node neighbor lists (deduplicates, drops self-loops).
    pub fn from_adj(mut adj: Vec<Vec<u32>>) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0usize;
        for (u, row) in adj.iter_mut().enumerate() {
            row.sort_unstable();
            row.dedup();
            row.retain(|&v| v as usize != u);
            total += row.len();
            assert!(total <= u32::MAX as usize, "arc count exceeds u32");
            offsets.push(total as u32);
        }
        let mut targets = Vec::with_capacity(total);
        for row in adj {
            targets.extend_from_slice(&row);
        }
        Csr { offsets, targets }
    }

    /// Build a graph by calling `neighbors(u, &mut out)` for each node.
    /// Rows are written straight into the CSR arrays (one reused scratch
    /// buffer, no per-node allocation); as with [`Csr::from_adj`], each row
    /// is sorted, deduplicated, and stripped of self-loops.
    pub fn from_fn(n: usize, mut neighbors: impl FnMut(u32, &mut Vec<u32>)) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut targets: Vec<u32> = Vec::new();
        let mut buf: Vec<u32> = Vec::new();
        for u in 0..n as u32 {
            buf.clear();
            neighbors(u, &mut buf);
            buf.sort_unstable();
            buf.dedup();
            buf.retain(|&v| v != u);
            let total = targets.len() + buf.len();
            assert!(total <= u32::MAX as usize, "arc count exceeds u32");
            targets.extend_from_slice(&buf);
            offsets.push(total as u32);
        }
        Csr { offsets, targets }
    }

    /// The same graph under a node renumbering: old node `u` becomes
    /// `new_ids[u]`. Panics unless `new_ids` is a bijection on `0..n`.
    /// Used to compare graphs built in different numberings (e.g. the
    /// BFS-interned builder vs. the arithmetic codec builder).
    pub fn relabeled(&self, new_ids: &[u32]) -> Csr {
        let n = self.node_count();
        assert_eq!(new_ids.len(), n, "relabeling length mismatch");
        let mut old_of = vec![u32::MAX; n];
        for (old, &new) in new_ids.iter().enumerate() {
            assert!((new as usize) < n, "relabeling target out of range");
            assert_eq!(
                old_of[new as usize],
                u32::MAX,
                "relabeling is not injective"
            );
            old_of[new as usize] = old as u32;
        }
        Csr::from_fn(n, |u, out| {
            for &v in self.neighbors(old_of[u as usize]) {
                out.push(new_ids[v as usize]);
            }
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (an undirected edge counts twice).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges, assuming the graph is symmetric.
    pub fn edge_count_undirected(&self) -> usize {
        debug_assert!(self.is_symmetric());
        self.targets.len() / 2
    }

    /// Out-neighbors of `u` (sorted, unique).
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.targets[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// The rows of nodes `nodes`, as views into the CSR arrays: their
    /// `nodes.len() + 1` offsets, which index the whole graph's targets
    /// (so they start at `offsets[nodes.start]`, not at 0), and the
    /// targets those offsets span, node by node in ascending order.
    pub fn rows(&self, nodes: std::ops::Range<u32>) -> (&[u32], &[u32]) {
        let offsets = &self.offsets[nodes.start as usize..=nodes.end as usize];
        let (first, last) = (offsets[0] as usize, offsets[offsets.len() - 1] as usize);
        (offsets, &self.targets[first..last])
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count() as u32)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Minimum out-degree.
    pub fn min_degree(&self) -> usize {
        (0..self.node_count() as u32)
            .map(|u| self.degree(u))
            .min()
            .unwrap_or(0)
    }

    /// True when every node has the same degree.
    pub fn is_regular(&self) -> bool {
        self.min_degree() == self.max_degree()
    }

    /// Does `u -> v` exist? (binary search; rows are sorted)
    pub fn has_arc(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// True when every arc has a reverse arc.
    pub fn is_symmetric(&self) -> bool {
        (0..self.node_count() as u32).all(|u| self.neighbors(u).iter().all(|&v| self.has_arc(v, u)))
    }

    /// The graph with every arc reversed.
    pub fn reversed(&self) -> Csr {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.node_count()];
        for u in 0..self.node_count() as u32 {
            for &v in self.neighbors(u) {
                adj[v as usize].push(u);
            }
        }
        Csr::from_adj(adj)
    }

    /// The symmetrized graph (union of arcs and reverse arcs).
    pub fn symmetrized(&self) -> Csr {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.node_count()];
        for u in 0..self.node_count() as u32 {
            for &v in self.neighbors(u) {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
        }
        Csr::from_adj(adj)
    }

    /// Iterate over all arcs `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.node_count() as u32)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Quotient graph: merge nodes by `class[u]` (classes must be
    /// `0..num_classes`), dedup edges, drop intra-class loops. Used for the
    /// paper's quotient networks (e.g. QCN(l, Q7/Q3), Fig. 3) and for fast
    /// inter-cluster distance computation.
    pub fn quotient(&self, class: &[u32], num_classes: usize) -> Csr {
        assert_eq!(class.len(), self.node_count());
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_classes];
        for (u, v) in self.arcs() {
            let (cu, cv) = (class[u as usize], class[v as usize]);
            if cu != cv {
                adj[cu as usize].push(cv);
            }
        }
        Csr::from_adj(adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Csr {
        Csr::from_edges(3, [(0, 1), (1, 2)], true)
    }

    #[test]
    fn basic_counts() {
        let g = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.edge_count_undirected(), 2);
        assert_eq!(g.degree(1), 2);
        assert!(g.is_symmetric());
        assert!(!g.is_regular());
    }

    #[test]
    fn dedup_and_loops() {
        let g = Csr::from_edges(2, [(0, 1), (0, 1), (0, 0), (1, 1)], true);
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn directed_reverse() {
        let g = Csr::from_edges(3, [(0, 1), (1, 2)], false);
        assert!(!g.is_symmetric());
        let r = g.reversed();
        assert!(r.has_arc(1, 0));
        assert!(r.has_arc(2, 1));
        assert!(!r.has_arc(0, 1));
        assert_eq!(g.symmetrized().arc_count(), 4);
    }

    #[test]
    fn rows_view_a_node_range() {
        // degrees 1, 0, 3, 2: node 1 has no out-arcs
        let g = Csr::from_edges(4, [(0, 2), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1)], false);
        let (offsets, targets) = g.rows(0..4);
        assert_eq!(offsets, [0, 1, 1, 4, 6]);
        assert_eq!(targets, [2, 0, 1, 3, 0, 1]);
        // empty range: one offset, no targets
        assert_eq!(g.rows(2..2), (&[1u32][..], &[][..]));
        // the degree-0 node alone
        assert_eq!(g.rows(1..2), (&[1u32, 1][..], &[][..]));
        // the last node: offsets keep their global values
        assert_eq!(g.rows(3..4), (&[4u32, 6][..], &[0u32, 1][..]));
        // a middle range starting at the degree-0 node
        assert_eq!(g.rows(1..3), (&[1u32, 1, 4][..], &[0u32, 1, 3][..]));
        assert_eq!(g.rows(4..4), (&[6u32][..], &[][..]));
    }

    #[test]
    fn quotient_merges() {
        // square 0-1-2-3-0, classes {0,1} and {2,3}
        let g = Csr::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], true);
        let q = g.quotient(&[0, 0, 1, 1], 2);
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.arc_count(), 2); // one undirected edge
        assert!(q.has_arc(0, 1));
    }

    #[test]
    fn from_fn_builder() {
        let g = Csr::from_fn(4, |u, out| {
            out.push((u + 1) % 4);
            out.push((u + 3) % 4);
        });
        assert!(g.is_symmetric());
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn from_fn_dedups_and_drops_loops() {
        let g = Csr::from_fn(3, |u, out| {
            out.push(u); // self-loop, dropped
            out.push((u + 1) % 3);
            out.push((u + 1) % 3); // duplicate, merged
        });
        assert_eq!(g.arc_count(), 3);
        for u in 0..3 {
            assert!(!g.has_arc(u, u));
        }
    }

    #[test]
    fn relabeled_reverses_a_rotation() {
        // directed triangle 0->1->2->0, rotated by one
        let g = Csr::from_edges(3, [(0, 1), (1, 2), (2, 0)], false);
        let r = g.relabeled(&[1, 2, 0]);
        assert!(r.has_arc(1, 2));
        assert!(r.has_arc(2, 0));
        assert!(r.has_arc(0, 1));
        // identity relabeling is a no-op
        assert_eq!(g.relabeled(&[0, 1, 2]), g);
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn relabeled_rejects_non_bijection() {
        path3().relabeled(&[0, 0, 1]);
    }
}
