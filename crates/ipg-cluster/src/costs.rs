//! Composite figures of merit (paper §5): DD-cost, ID-cost, II-cost.
//!
//! Under unit node capacity and light traffic, packet latency is
//! approximately proportional to **DD-cost** (degree × diameter, Fig. 2);
//! under unit per-node *off-module* capacity it tracks **ID-cost**
//! (I-degree × diameter, Fig. 4); and when off-module links are the
//! bottleneck it tracks **II-cost** (I-degree × I-diameter, Fig. 5).

use crate::imetrics;
use crate::partition::Partition;
use ipg_core::algo;
use ipg_core::graph::Csr;
use serde::Serialize;

/// Everything §5 measures about one (network, packing) pair.
#[derive(Clone, Debug, Serialize)]
pub struct CostSummary {
    /// Network name.
    pub name: String,
    /// Node count.
    pub nodes: usize,
    /// Maximum degree.
    pub degree: usize,
    /// Exact diameter.
    pub diameter: u32,
    /// Average distance over distinct ordered pairs.
    pub avg_distance: f64,
    /// Max module size of the packing.
    pub module_size: usize,
    /// Inter-cluster degree.
    pub i_degree: f64,
    /// Inter-cluster diameter.
    pub i_diameter: u32,
    /// Average inter-cluster distance.
    pub avg_i_distance: f64,
}

impl CostSummary {
    /// DD-cost = degree × diameter (Fig. 2).
    pub fn dd_cost(&self) -> f64 {
        self.degree as f64 * self.diameter as f64
    }

    /// ID-cost = I-degree × diameter (Fig. 4).
    pub fn id_cost(&self) -> f64 {
        self.i_degree * self.diameter as f64
    }

    /// II-cost = I-degree × I-diameter (Fig. 5).
    pub fn ii_cost(&self) -> f64 {
        self.i_degree * self.i_diameter as f64
    }
}

/// Compute every metric exactly (all-pairs BFS + 0/1 BFS; use only at
/// BFS-feasible sizes). With singleton modules every arc is off-module, so
/// the I-metrics are the plain ones and the 0/1 BFS is skipped.
pub fn summarize(name: impl Into<String>, g: &Csr, part: &Partition) -> CostSummary {
    let module_size = part.max_module_size();
    let sources = algo::all_nodes(g);
    let plain = algo::distance_summary(g, &sources);
    let i = if module_size <= 1 {
        plain
    } else {
        imetrics::i_distance_summary(g, part, &sources)
    };
    CostSummary {
        name: name.into(),
        nodes: g.node_count(),
        degree: g.max_degree(),
        diameter: plain.diameter(),
        avg_distance: plain.mean(),
        module_size,
        i_degree: imetrics::i_degree(g, part),
        i_diameter: i.max,
        avg_i_distance: i.mean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use ipg_networks::classic;

    #[test]
    fn hypercube_summary() {
        let g = classic::hypercube(5);
        let p = partition::subcube_partition(5, 2);
        let s = summarize("Q5", &g, &p);
        assert_eq!(s.nodes, 32);
        assert_eq!(s.degree, 5);
        assert_eq!(s.diameter, 5);
        assert_eq!(s.dd_cost(), 25.0);
        assert_eq!(s.i_diameter, 3);
        assert!((s.i_degree - 3.0).abs() < 1e-12);
        assert_eq!(s.id_cost(), 15.0);
        assert_eq!(s.ii_cost(), 9.0);
        assert_eq!(s.module_size, 4);
    }

    #[test]
    fn cn_beats_hypercube_on_ii_cost() {
        // The paper's headline: cyclic-shift networks have far smaller
        // II-cost than hypercubes of similar size.
        let tn = ipg_networks::hier::ring_cn(3, classic::hypercube(2), "Q2");
        let g = tn.build();
        let p = partition::nucleus_partition(&tn);
        let cn = summarize(&tn.name, &g, &p); // 64 nodes

        let q6 = classic::hypercube(6);
        let pq = partition::subcube_partition(6, 2);
        let cube = summarize("Q6", &q6, &pq); // 64 nodes

        assert!(cn.ii_cost() < cube.ii_cost());
        assert!(cn.id_cost() < cube.id_cost());
    }
}
