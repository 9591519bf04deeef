//! Inter-cluster (off-module) metrics — paper §5.2–§5.3.
//!
//! - **I-degree**: max over modules of the average per-node off-module
//!   links (§5.3).
//! - **I-distance** between two nodes: the minimum number of off-module
//!   link traversals needed to route between them (on-module hops are
//!   free); **I-diameter** is its maximum and **average I-distance** its
//!   mean over distinct ordered pairs (§5.2).
//!
//! Both computation paths return an [`algo::DistanceSummary`] over an
//! explicit source list, reduced by the one [`algo::reduce_sources`]:
//! [`i_distance_summary`] runs exact per-source 0/1-weighted BFS, and
//! [`quotient_summary`] BFS on the *module quotient graph* (contract each
//! module; distances in the quotient equal I-distances whenever modules
//! induce connected subgraphs — true for every packing in this workspace,
//! and asserted in tests).

use crate::partition::Partition;
use ipg_core::algo::{self, DistanceSummary};
use ipg_core::graph::Csr;

/// The three §5 measures for one (network, packing) pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterClusterMetrics {
    /// Max over modules of average per-node off-module links.
    pub i_degree: f64,
    /// Max I-distance over all node pairs.
    pub i_diameter: u32,
    /// Mean I-distance over distinct ordered pairs.
    pub avg_i_distance: f64,
}

/// I-degree (§5.3): for each module, sum the off-module arc endpoints of
/// its nodes and divide by the module size; take the maximum.
pub fn i_degree(g: &Csr, part: &Partition) -> f64 {
    assert_eq!(g.node_count(), part.node_count());
    let mut off = vec![0u64; part.count];
    for u in 0..g.node_count() as u32 {
        let cu = part.class[u as usize];
        for &v in g.neighbors(u) {
            if part.class[v as usize] != cu {
                off[cu as usize] += 1;
            }
        }
    }
    let sizes = part.module_sizes();
    off.iter()
        .zip(sizes.iter())
        .filter(|&(_, &s)| s > 0)
        .map(|(&o, &s)| o as f64 / s as f64)
        .fold(0.0, f64::max)
}

/// Exact I-distances from `src` (0/1 BFS; off-module arcs cost 1).
pub fn i_distances(g: &Csr, part: &Partition, src: u32) -> Vec<u32> {
    algo::bfs_01(g, src, |u, v| !part.same(u, v))
}

/// Exact I-distance summary over `sources` (0/1 BFS, parallel over
/// sources): its `max` is the I-diameter and its `mean()` the average
/// I-distance. `O(n·m)` over all sources — [`quotient_summary`] is the
/// fast path for large graphs.
pub fn i_distance_summary(g: &Csr, part: &Partition, sources: &[u32]) -> DistanceSummary {
    algo::reduce_sources(sources, |s| {
        DistanceSummary::of_row(s, &i_distances(g, part, s))
    })
}

/// All three metrics, exactly.
pub fn exact_metrics(g: &Csr, part: &Partition) -> InterClusterMetrics {
    let s = i_distance_summary(g, part, &algo::all_nodes(g));
    InterClusterMetrics {
        i_degree: i_degree(g, part),
        i_diameter: s.max,
        avg_i_distance: s.mean(),
    }
}

/// The module quotient graph (one node per module).
pub fn module_graph(g: &Csr, part: &Partition) -> Csr {
    g.quotient(&part.class, part.count)
}

/// I-distance summary through the module quotient `q` with module sizes
/// `sizes`, from the quotient nodes in `sources`. Module pairs are
/// weighted by their sizes, and the mean divides by `Σ_a w_a·(N−1)` over
/// the sources: same-module pairs count, at distance 0. Exact whenever
/// every module induces a connected subgraph; otherwise a lower bound.
/// From every module this is the exact summary; from a subset it is exact
/// for vertex-transitive quotients with uniform module sizes.
pub fn quotient_summary(q: &Csr, sizes: &[usize], sources: &[u32]) -> DistanceSummary {
    let n_total: u64 = sizes.iter().map(|&s| s as u64).sum();
    algo::reduce_sources(sources, |a| {
        let wa = sizes[a as usize] as u64;
        let mut s = DistanceSummary {
            pairs: wa * (n_total - 1),
            ..DistanceSummary::default()
        };
        for (b, &db) in algo::bfs(q, a).iter().enumerate() {
            if db == algo::UNREACHABLE {
                s.unreachable = true;
            } else {
                s.max = s.max.max(db);
                s.sum += db as u64 * wa * sizes[b] as u64;
            }
        }
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
    use ipg_networks::classic;

    #[test]
    fn singleton_partition_recovers_plain_metrics() {
        let g = classic::hypercube(4);
        let p = Partition::singletons(16);
        let m = exact_metrics(&g, &p);
        assert_eq!(m.i_diameter, 4);
        assert!((m.i_degree - 4.0).abs() < 1e-12);
        assert!((m.avg_i_distance - algo::average_distance(&g)).abs() < 1e-12);
    }

    #[test]
    fn single_module_zeroes_everything() {
        let g = classic::hypercube(3);
        let p = Partition::single_module(8);
        let m = exact_metrics(&g, &p);
        assert_eq!(m.i_diameter, 0);
        assert_eq!(m.i_degree, 0.0);
        assert_eq!(m.avg_i_distance, 0.0);
    }

    #[test]
    fn hypercube_subcube_idegree_matches_section_5_3() {
        // §5.3: a node in a 17-cube has 14 (or 13) off-module links when a
        // 3(or 4)-cube is placed within a module. Check the small analog:
        // Q6 with Q3 modules → 3 off-module links per node.
        let g = classic::hypercube(6);
        let p = crate::partition::subcube_partition(6, 3);
        let m = exact_metrics(&g, &p);
        assert!((m.i_degree - 3.0).abs() < 1e-12);
        assert_eq!(m.i_diameter, 3); // n − k
    }

    #[test]
    fn star_substar_idegree_matches_section_5_3() {
        // §5.3: a node in an 8-star has 6 (or 5) off-module links when a
        // 3(or 4)-star is placed within a module. Small analog: S5 with
        // S3 modules → degree 4, 2 of them inside the sub-star.
        let labels = classic::star_labels(5);
        let g = classic::star(5);
        let p = crate::partition::substar_partition(&labels, 3);
        let m = exact_metrics(&g, &p);
        assert!((m.i_degree - 2.0).abs() < 1e-12); // n − 3 = 2
    }

    #[test]
    fn ring_cn_idegree_matches_section_5_3() {
        // ring-CN: 1 off-module link per node when l = 2, 2 when l ≥ 3
        // (minus the self-loop nodes, which only lower the average below
        // the bound).
        let tn2 = ipg_networks::hier::ring_cn(2, classic::hypercube(2), "Q2");
        let p2 = crate::partition::nucleus_partition(&tn2);
        // With M = 16 one node per module has a swap self-loop, so the
        // exact average is (M−1)/M below the §5.3 bound of 1.
        let d2 = i_degree(&tn2.build(), &p2);
        assert!(d2 <= 1.0 + 1e-12);
        assert!(d2 > 0.7);

        let tn3 = ipg_networks::hier::ring_cn(3, classic::hypercube(2), "Q2");
        let p3 = crate::partition::nucleus_partition(&tn3);
        let d3 = i_degree(&tn3.build(), &p3);
        assert!(d3 <= 2.0 + 1e-12);
        assert!(d3 > 1.7);
    }

    #[test]
    fn hsn_i_diameter_is_t() {
        // With free nucleus moves, the I-diameter of an HSN/CN equals the
        // schedule length t = l − 1.
        for l in 2..=4 {
            let spec = SuperIpSpec::hsn(l, NucleusSpec::hypercube(1));
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let g = tn.build();
            let p = crate::partition::nucleus_partition(&tn);
            let idiam = i_distance_summary(&g, &p, &algo::all_nodes(&g)).max;
            assert_eq!(idiam as usize, l - 1, "HSN({l},Q1)");
        }
    }

    /// The exact and the quotient summary over every source.
    fn both_summaries(g: &Csr, p: &Partition) -> (DistanceSummary, DistanceSummary) {
        let q = module_graph(g, p);
        (
            i_distance_summary(g, p, &algo::all_nodes(g)),
            quotient_summary(&q, &p.module_sizes(), &algo::all_nodes(&q)),
        )
    }

    #[test]
    fn quotient_equals_exact_on_connected_modules() {
        let tn = ipg_networks::hier::hsn(3, classic::hypercube(2), "Q2");
        for (g, p) in [
            (
                classic::hypercube(6),
                crate::partition::subcube_partition(6, 2),
            ),
            (
                classic::torus2d(8),
                crate::partition::torus_block_partition(8, 2, 2),
            ),
            (tn.build(), crate::partition::nucleus_partition(&tn)),
        ] {
            // Same-module pairs sit at distance 0 on both paths, so the
            // integer sums, pair counts and maxima agree exactly.
            let (exact, quotient) = both_summaries(&g, &p);
            assert_eq!(exact, quotient);
        }
    }

    #[test]
    fn sampled_equals_full_for_vertex_transitive_quotient() {
        let g = classic::hypercube(6);
        let p = crate::partition::subcube_partition(6, 2);
        let (_, full) = both_summaries(&g, &p);
        let one = quotient_summary(&module_graph(&g, &p), &p.module_sizes(), &[0]);
        assert_eq!(full.max, one.max);
        assert!((full.mean() - one.mean()).abs() < 1e-9);
    }

    use ipg_core::algo;
}
