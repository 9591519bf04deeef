//! Graph algorithms: BFS, eccentricities, diameter, average distance,
//! 0/1-weighted BFS (for inter-cluster metrics), and connectivity.
//!
//! Every distance metric over many sources — diameter, average distance,
//! and the I-metrics of `ipg-cluster` — is one [`DistanceSummary`] built by
//! [`reduce_sources`], which runs one closure per source on rayon and
//! reduces exact integers. Distances are `u32`, with `UNREACHABLE` marking
//! disconnected pairs.

use crate::graph::Csr;
use rayon::prelude::*;
use std::collections::VecDeque;

/// Distance value for unreachable pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src` over out-arcs.
pub fn bfs(g: &Csr, src: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS with parent tracking; returns (distances, parents). `parents[src]`
/// is `src` itself; unreachable nodes have parent `UNREACHABLE`.
pub fn bfs_parents(g: &Csr, src: u32) -> (Vec<u32>, Vec<u32>) {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut parent = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    parent[src as usize] = src;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Shortest path from `src` to `dst` as a node sequence (inclusive), or
/// `None` if unreachable.
pub fn shortest_path(g: &Csr, src: u32, dst: u32) -> Option<Vec<u32>> {
    let (dist, parent) = bfs_parents(g, src);
    if dist[dst as usize] == UNREACHABLE {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Eccentricity of `src` (max finite BFS distance); `UNREACHABLE` if any
/// node is unreachable.
pub fn eccentricity(g: &Csr, src: u32) -> u32 {
    bfs(g, src).into_iter().max().unwrap_or(0)
}

/// Max, sum and pair count of the distances from a set of sources.
///
/// Every field is an exact integer, so summaries reduce in any order to
/// the same value; [`DistanceSummary::mean`] does the one float division.
/// Pairs are ordered and distinct, and only finite distances count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistanceSummary {
    /// Largest finite distance.
    pub max: u32,
    /// Sum of the finite distances.
    pub sum: u64,
    /// The mean's denominator: the number of pairs summed.
    pub pairs: u64,
    /// Whether some source does not reach some node.
    pub unreachable: bool,
}

impl DistanceSummary {
    /// The summary of one source's distance row: the finite distances to
    /// every node but `src` itself.
    pub fn of_row(src: u32, dist: &[u32]) -> Self {
        let mut s = Self::default();
        for (v, &d) in dist.iter().enumerate() {
            if d == UNREACHABLE {
                s.unreachable = true;
            } else if v as u32 != src {
                s.max = s.max.max(d);
                s.sum += d as u64;
                s.pairs += 1;
            }
        }
        s
    }

    /// Two summaries over disjoint source sets, combined.
    fn merge(self, o: Self) -> Self {
        Self {
            max: self.max.max(o.max),
            sum: self.sum + o.sum,
            pairs: self.pairs + o.pairs,
            unreachable: self.unreachable || o.unreachable,
        }
    }

    /// Mean distance, `sum / pairs`; 0 when there are no pairs.
    pub fn mean(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.sum as f64 / self.pairs as f64
        }
    }

    /// Largest distance, or `UNREACHABLE` if some pair is unreachable.
    pub fn diameter(&self) -> u32 {
        if self.unreachable {
            UNREACHABLE
        } else {
            self.max
        }
    }
}

/// The one parallel distance reduction: `per_source` summarizes each of
/// `sources` and the summaries merge into one.
pub fn reduce_sources(
    sources: &[u32],
    per_source: impl Fn(u32) -> DistanceSummary + Sync + Send,
) -> DistanceSummary {
    sources
        .par_iter()
        .map(|&s| per_source(s))
        // Parallel-reduction audit: `(u32 max, u64 sum, u64 pairs, bool
        // or)` — each component is associative and commutative, so any
        // chunking gives the exact sequential value; the float division
        // happens after, in `DistanceSummary::mean`.
        .reduce(DistanceSummary::default, DistanceSummary::merge)
}

/// Every node id of `g`, the source list of an all-pairs pass.
pub fn all_nodes(g: &Csr) -> Vec<u32> {
    (0..g.node_count() as u32).collect()
}

/// BFS distance summary over `sources` (parallel over sources).
pub fn distance_summary(g: &Csr, sources: &[u32]) -> DistanceSummary {
    reduce_sources(sources, |s| DistanceSummary::of_row(s, &bfs(g, s)))
}

/// Exact diameter by all-sources BFS. Returns `UNREACHABLE` for a graph
/// that is not (strongly) connected.
pub fn diameter(g: &Csr) -> u32 {
    distance_summary(g, &all_nodes(g)).diameter()
}

/// Average distance over all ordered pairs `(u, v)` of distinct nodes
/// with `v` reachable from `u` (all-sources BFS).
pub fn average_distance(g: &Csr) -> f64 {
    distance_summary(g, &all_nodes(g)).mean()
}

/// Distance histogram from one source: `hist[d]` = number of nodes at
/// distance `d` (unreachable nodes excluded).
pub fn distance_histogram(g: &Csr, src: u32) -> Vec<u64> {
    let d = bfs(g, src);
    let max = d
        .iter()
        .copied()
        .filter(|&x| x != UNREACHABLE)
        .max()
        .unwrap_or(0);
    let mut hist = vec![0u64; max as usize + 1];
    for &dv in &d {
        if dv != UNREACHABLE {
            hist[dv as usize] += 1;
        }
    }
    hist
}

/// 0/1-weighted BFS: arcs for which `heavy(u, v)` is true cost 1, others
/// cost 0. Used for exact inter-cluster distances (off-module hops cost 1,
/// on-module hops are free — paper §5.2).
pub fn bfs_01(g: &Csr, src: u32, mut heavy: impl FnMut(u32, u32) -> bool) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut deque = VecDeque::new();
    dist[src as usize] = 0;
    deque.push_back(src);
    while let Some(u) = deque.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            let w = if heavy(u, v) { 1 } else { 0 };
            let nd = du + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                if w == 0 {
                    deque.push_front(v);
                } else {
                    deque.push_back(v);
                }
            }
        }
    }
    dist
}

/// Is the graph (weakly) connected? Checks reachability in the symmetrized
/// graph.
pub fn is_connected(g: &Csr) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    let sym = if g.is_symmetric() {
        g.clone()
    } else {
        g.symmetrized()
    };
    bfs(&sym, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Is the directed graph strongly connected? (Every node reachable from 0
/// and 0 reachable from every node.)
pub fn is_strongly_connected(g: &Csr) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    bfs(g, 0).iter().all(|&d| d != UNREACHABLE)
        && bfs(&g.reversed(), 0).iter().all(|&d| d != UNREACHABLE)
}

/// Girth (length of the shortest cycle) of an undirected simple graph, or
/// `None` for forests. O(n·m); fine for the validation sizes we use it at.
pub fn girth(g: &Csr) -> Option<u32> {
    let n = g.node_count();
    let mut best: u32 = UNREACHABLE;
    for src in 0..n as u32 {
        // BFS that detects the shortest cycle through src.
        let mut dist = vec![UNREACHABLE; n];
        let mut parent = vec![UNREACHABLE; n];
        let mut queue = VecDeque::new();
        dist[src as usize] = 0;
        parent[src as usize] = src;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            if dist[u as usize] * 2 >= best {
                break;
            }
            for &v in g.neighbors(u) {
                if dist[v as usize] == UNREACHABLE {
                    dist[v as usize] = dist[u as usize] + 1;
                    parent[v as usize] = u;
                    queue.push_back(v);
                } else if parent[u as usize] != v {
                    best = best.min(dist[u as usize] + dist[v as usize] + 1);
                }
            }
        }
    }
    (best != UNREACHABLE).then_some(best)
}

/// A cheap structural fingerprint: (n, arcs, min/max degree, diameter,
/// distance histogram from node 0, girth). Equal fingerprints do not prove
/// isomorphism but are a strong necessary condition used to cross-validate
/// direct constructions against IP-generated graphs at sizes where exact
/// isomorphism search is too slow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Node count.
    pub nodes: usize,
    /// Arc count.
    pub arcs: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Exact diameter.
    pub diameter: u32,
    /// Sorted multiset of all-node distance histograms (vertex-invariant).
    pub sorted_histograms: Vec<Vec<u64>>,
    /// Girth (None for forests).
    pub girth: Option<u32>,
}

/// Compute the [`Fingerprint`] of a graph.
pub fn fingerprint(g: &Csr) -> Fingerprint {
    let mut hists: Vec<Vec<u64>> = (0..g.node_count() as u32)
        .into_par_iter()
        .map(|s| distance_histogram(g, s))
        .collect();
    hists.sort();
    let diameter = hists.iter().map(|h| h.len() as u32 - 1).max().unwrap_or(0);
    Fingerprint {
        nodes: g.node_count(),
        arcs: g.arc_count(),
        min_degree: g.min_degree(),
        max_degree: g.max_degree(),
        diameter,
        sorted_histograms: hists,
        girth: girth(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cycle(n: usize) -> Csr {
        Csr::from_fn(n, |u, out| {
            out.push((u + 1) % n as u32);
            out.push((u + n as u32 - 1) % n as u32);
        })
    }

    #[test]
    fn bfs_on_cycle() {
        let g = cycle(6);
        let d = bfs(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn diameter_of_cycles() {
        assert_eq!(diameter(&cycle(6)), 3);
        assert_eq!(diameter(&cycle(7)), 3);
        assert_eq!(diameter(&cycle(8)), 4);
    }

    #[test]
    fn average_distance_of_c4() {
        // C4: each node sees distances 1,1,2 => mean 4/3.
        let avg = average_distance(&cycle(4));
        assert!((avg - 4.0 / 3.0).abs() < 1e-12);
    }

    fn two_triangles() -> Csr {
        Csr::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], true)
    }

    #[test]
    fn disconnected_summary_counts_finite_pairs_only() {
        let g = two_triangles();
        assert_eq!(diameter(&g), UNREACHABLE);
        let s = distance_summary(&g, &all_nodes(&g));
        // Each node reaches the two others of its triangle at distance 1.
        assert_eq!((s.max, s.sum, s.pairs, s.unreachable), (1, 12, 12, true));
        assert_eq!(average_distance(&g), 1.0);
    }

    #[test]
    fn directed_path_is_unreachable_backwards() {
        let path = Csr::from_edges(3, [(0, 1), (1, 2)], false);
        assert_eq!(diameter(&path), UNREACHABLE);
        let s = distance_summary(&path, &all_nodes(&path));
        // 0→1, 0→2, 1→2 at 1, 2, 1; nothing reaches backwards.
        assert_eq!((s.max, s.sum, s.pairs, s.unreachable), (2, 4, 3, true));
        let from_0 = distance_summary(&path, &[0]);
        assert_eq!(from_0.diameter(), 2);
        assert_eq!(from_0.mean(), 1.5);
    }

    #[test]
    fn source_subsets() {
        let g = cycle(6);
        let one = distance_summary(&g, &[2]);
        assert_eq!(
            (one.max, one.sum, one.pairs, one.unreachable),
            (3, 9, 5, false)
        );
        let none = distance_summary(&g, &[]);
        assert_eq!(none, DistanceSummary::default());
        assert_eq!((none.diameter(), none.mean()), (0, 0.0));
    }

    /// All-pairs distances by Floyd–Warshall, `UNREACHABLE` where no path.
    fn floyd_warshall(g: &Csr) -> Vec<Vec<u32>> {
        let n = g.node_count();
        let mut d = vec![vec![UNREACHABLE; n]; n];
        for (u, row) in d.iter_mut().enumerate() {
            row[u] = 0;
            for &v in g.neighbors(u as u32) {
                row[v as usize] = row[v as usize].min(1);
            }
        }
        for k in 0..n {
            let dk = d[k].clone();
            for row in d.iter_mut().filter(|row| row[k] != UNREACHABLE) {
                let dik = row[k];
                for (dij, &dkj) in row.iter_mut().zip(&dk) {
                    if dkj != UNREACHABLE {
                        *dij = (*dij).min(dik + dkj);
                    }
                }
            }
        }
        d
    }

    proptest! {
        #[test]
        fn summary_matches_floyd_warshall(
            n in 1usize..13,
            directed in 0usize..2,
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..30),
        ) {
            let edges = edges.into_iter().map(|(u, v)| (u % n as u32, v % n as u32));
            let g = Csr::from_edges(n, edges, directed == 0);
            let d = floyd_warshall(&g);
            let mut want = DistanceSummary::default();
            for (u, row) in d.iter().enumerate() {
                for (v, &duv) in row.iter().enumerate() {
                    if duv == UNREACHABLE {
                        want.unreachable = true;
                    } else if u != v {
                        want.max = want.max.max(duv);
                        want.sum += duv as u64;
                        want.pairs += 1;
                    }
                }
            }
            prop_assert_eq!(distance_summary(&g, &all_nodes(&g)), want);
            let diam = if want.unreachable { UNREACHABLE } else { want.max };
            prop_assert_eq!(diameter(&g), diam);
        }
    }

    #[test]
    fn shortest_path_endpoints() {
        let g = cycle(8);
        let p = shortest_path(&g, 0, 4).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 4);
        for w in p.windows(2) {
            assert!(g.has_arc(w[0], w[1]));
        }
    }

    #[test]
    fn unreachable_marked() {
        let g = Csr::from_edges(4, [(0, 1), (2, 3)], true);
        let d = bfs(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
        assert!(!is_connected(&g));
    }

    #[test]
    fn directed_connectivity() {
        let ring = Csr::from_fn(5, |u, out| out.push((u + 1) % 5));
        assert!(!ring.is_symmetric());
        assert!(is_strongly_connected(&ring));
        let path = Csr::from_edges(3, [(0, 1), (1, 2)], false);
        assert!(!is_strongly_connected(&path));
        assert!(is_connected(&path));
    }

    #[test]
    fn zero_one_bfs_prefers_free_arcs() {
        // 0-1-2 with heavy arc 0->2 direct: distance should be 0 via free path.
        let g = Csr::from_edges(3, [(0, 1), (1, 2), (0, 2)], true);
        let d = bfs_01(&g, 0, |u, v| (u, v) == (0, 2) || (u, v) == (2, 0));
        assert_eq!(d, vec![0, 0, 0]);
        let d2 = bfs_01(&g, 0, |_, _| true);
        assert_eq!(d2, vec![0, 1, 1]);
    }

    #[test]
    fn girth_values() {
        assert_eq!(girth(&cycle(5)), Some(5));
        assert_eq!(girth(&cycle(4)), Some(4));
        let tree = Csr::from_edges(4, [(0, 1), (0, 2), (0, 3)], true);
        assert_eq!(girth(&tree), None);
    }

    #[test]
    fn fingerprints_distinguish() {
        let c6 = fingerprint(&cycle(6));
        assert_ne!(c6, fingerprint(&two_triangles())); // same n, arcs, degrees — girth differs
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = cycle(9);
        let h = distance_histogram(&g, 2);
        assert_eq!(h.iter().sum::<u64>(), 9);
    }
}
