//! Shared sweep for Figures 4 and 5: ID-cost and II-cost with at most 16
//! nodes per module.
//!
//! Measured points build the graph and compute I-degree exactly and
//! I-diameter via the module quotient; diameters come from exact BFS at
//! small sizes and from the (test-verified) closed forms beyond. Analytic
//! points extend each family's series to paper-scale sizes.

use crate::{capped_nucleus_partition, quotient_i_summary};
use ipg_cluster::analytic::{self, NucleusStats, NUC_FQ4, NUC_Q4};
use ipg_cluster::imetrics;
use ipg_cluster::partition::{
    subcube_partition, substar_partition, torus_block_partition, Partition,
};
use ipg_core::algo;
use ipg_core::graph::Csr;
use ipg_networks::{classic, hier};
use serde::Serialize;

/// One point of the Fig-4/5 sweep.
#[derive(Clone, Serialize)]
pub struct CostPoint {
    /// Family label.
    pub family: String,
    /// Parameter, e.g. `"l=3"`.
    pub param: String,
    /// Node count.
    pub nodes: u64,
    /// log2 of the node count.
    pub log2_nodes: f64,
    /// Node degree.
    pub degree: u32,
    /// Diameter.
    pub diameter: u64,
    /// Inter-cluster degree.
    pub i_degree: f64,
    /// Inter-cluster diameter.
    pub i_diameter: u64,
    /// ID-cost = I-degree × diameter (Fig. 4).
    pub id_cost: f64,
    /// II-cost = I-degree × I-diameter (Fig. 5).
    pub ii_cost: f64,
    /// `"measured"` or `"analytic"`.
    pub mode: &'static str,
}

#[allow(clippy::too_many_arguments)]
fn finish(
    family: &str,
    param: String,
    nodes: u64,
    degree: u32,
    diameter: u64,
    i_degree: f64,
    i_diameter: u64,
    mode: &'static str,
) -> CostPoint {
    CostPoint {
        family: family.to_string(),
        param,
        nodes,
        log2_nodes: (nodes as f64).log2(),
        degree,
        diameter,
        i_degree,
        i_diameter,
        id_cost: i_degree * diameter as f64,
        ii_cost: i_degree * i_diameter as f64,
        mode,
    }
}

/// The module cap of Figures 4 and 5.
pub const MODULE_CAP: usize = 16;

fn measured(family: &str, param: String, g: &Csr, part: &Partition, diameter: u64) -> CostPoint {
    assert!(part.max_module_size() <= MODULE_CAP);
    let i_degree = imetrics::i_degree(g, part);
    let (i, _) = quotient_i_summary(g, part, 256);
    finish(
        family,
        param,
        g.node_count() as u64,
        g.max_degree() as u32,
        diameter,
        i_degree,
        i.max as u64,
        "measured",
    )
}

/// Generate the full sweep (measured points + analytic extensions).
pub fn sweep() -> Vec<CostPoint> {
    let mut pts = Vec::new();

    // hypercube, Q4 modules
    for n in [6usize, 8, 10, 12, 14] {
        let g = classic::hypercube(n);
        let p = subcube_partition(n, 4);
        pts.push(measured("hypercube", format!("n={n}"), &g, &p, n as u64));
    }
    for n in [16u32, 18, 20, 22] {
        let a = analytic::hypercube(n, 4);
        pts.push(finish(
            "hypercube",
            a.param.clone(),
            a.nodes,
            a.degree,
            a.diameter,
            a.i_degree.unwrap(),
            a.i_diameter.unwrap(),
            "analytic",
        ));
    }

    // 2-D torus, 4×4 blocks
    for k in [8u64, 16, 32, 64] {
        let g = classic::torus2d(k as usize);
        let p = torus_block_partition(k as usize, 4, 4);
        pts.push(measured("2D-torus", format!("k={k}"), &g, &p, 2 * (k / 2)));
    }
    for k in [128u64, 256, 512, 1024] {
        let a = analytic::torus2d(k, 4);
        pts.push(finish(
            "2D-torus",
            a.param.clone(),
            a.nodes,
            a.degree,
            a.diameter,
            a.i_degree.unwrap(),
            a.i_diameter.unwrap(),
            "analytic",
        ));
    }

    // star graph, sub-S3 modules (6 nodes); I-diameter has no closed form,
    // so all points are measured (feasible through S8 = 40320 nodes).
    for n in [5usize, 6, 7, 8] {
        let g = classic::star(n);
        let labels = classic::star_labels(n);
        let p = substar_partition(&labels, 3);
        let diam = (3 * (n as u64 - 1)) / 2;
        pts.push(measured("star", format!("n={n}"), &g, &p, diam));
    }

    // super-IP families over Q4 / FQ4 nuclei (16-node modules)
    type FamilyCtor = fn(usize, Csr, &str) -> ipg_core::superip::TupleNetwork;
    let families: Vec<(&str, NucleusStats, FamilyCtor)> = vec![
        ("ring-CN(l,Q4)", NUC_Q4, hier::ring_cn),
        ("ring-CN(l,FQ4)", NUC_FQ4, hier::ring_cn),
        ("CN(l,Q4)", NUC_Q4, hier::complete_cn),
        ("CN(l,FQ4)", NUC_FQ4, hier::complete_cn),
        ("superflip(l,Q4)", NUC_Q4, hier::superflip),
    ];
    for (family, nuc, ctor) in &families {
        for l in 2..=4usize {
            let nucleus = if nuc.name == "Q4" {
                classic::hypercube(4)
            } else {
                classic::folded_hypercube(4)
            };
            let tn = ctor(l, nucleus, nuc.name);
            let g = tn.build();
            let (class, count) = capped_nucleus_partition(&tn, MODULE_CAP);
            let part = Partition::new(class, count);
            let diameter = (nuc.diameter as u64 + 1) * l as u64 - 1; // Cor 4.2
                                                                     // verify at the smallest size
            if g.node_count() <= 4096 {
                assert_eq!(algo::diameter(&g) as u64, diameter, "{family} l={l}");
            }
            pts.push(measured(family, format!("l={l}"), &g, &part, diameter));
        }
        for l in 5..=6u32 {
            let a = match *family {
                "ring-CN(l,Q4)" | "ring-CN(l,FQ4)" => analytic::ring_cn(l, *nuc),
                "superflip(l,Q4)" => analytic::superflip(l, *nuc),
                _ => analytic::complete_cn(l, *nuc),
            };
            pts.push(finish(
                family,
                a.param.clone(),
                a.nodes,
                a.degree,
                a.diameter,
                a.i_degree.unwrap(),
                a.i_diameter.unwrap(),
                "analytic",
            ));
        }
    }

    pts.sort_by(|a, b| a.family.cmp(&b.family).then(a.nodes.cmp(&b.nodes)));
    pts
}
