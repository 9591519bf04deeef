//! Figure 3: (a) average inter-cluster distance and (b) inter-cluster
//! diameter versus network size, with at most 24 processors per module.
//!
//! Networks: hypercube (subcube modules), HCN(n,n) = HSN(2,Q_n) (nucleus
//! modules, split into 16-node subcubes when the nucleus exceeds 24
//! nodes), HSN(l,Q4), complete-CN(l,Q4), ring-CN(l,Q4), and
//! QCN(2, Q7/Q3) (each 3-subcube of ring-CN(2,Q7) merged into one node;
//! 16 merged nodes per module).
//!
//! All values are exact: I-degree by direct counting, I-diameter and
//! average I-distance via the module quotient graph (equal to the
//! 0/1-BFS values because every module induces a connected subgraph —
//! asserted for the small instances).

use ipg_bench::{capped_nucleus_partition, f2, print_table, quotient_i_summary, write_json};
use ipg_cluster::imetrics;
use ipg_cluster::partition::{subcube_partition, Partition};
use ipg_core::algo;
use ipg_core::graph::Csr;
use ipg_core::superip::TupleNetwork;
use ipg_networks::{classic, hier};
use serde::Serialize;

const MODULE_CAP: usize = 24;

#[derive(Serialize)]
struct Fig3Point {
    family: String,
    param: String,
    nodes: usize,
    log2_nodes: f64,
    module_size: usize,
    i_degree: f64,
    i_diameter: u32,
    avg_i_distance: f64,
    exact: bool,
}

fn measure(family: &str, param: String, g: &Csr, part: &Partition) -> Fig3Point {
    assert!(
        part.max_module_size() <= MODULE_CAP,
        "{family} module too big"
    );
    let i_degree = imetrics::i_degree(g, part);
    let (i, exact) = quotient_i_summary(g, part, 512);
    // For small graphs, confirm the quotient shortcut against 0/1 BFS:
    // both run from every source, so the integer summaries agree exactly.
    if g.node_count() <= 4096 {
        let e = imetrics::i_distance_summary(g, part, &algo::all_nodes(g));
        assert_eq!(e, i, "{family} quotient vs exact I-distance summary");
    }
    Fig3Point {
        family: family.to_string(),
        param,
        nodes: g.node_count(),
        log2_nodes: (g.node_count() as f64).log2(),
        module_size: part.max_module_size(),
        i_degree,
        i_diameter: i.max,
        avg_i_distance: i.mean(),
        exact,
    }
}

fn tuple_point(family: &str, param: String, tn: &TupleNetwork) -> Fig3Point {
    let g = tn.build();
    let (class, count) = capped_nucleus_partition(tn, MODULE_CAP);
    let part = Partition::new(class, count);
    measure(family, param, &g, &part)
}

fn main() {
    let mut pts = Vec::new();

    // hypercube with 16-node subcube modules
    for n in [8usize, 10, 12, 14, 16] {
        let g = classic::hypercube(n);
        let p = subcube_partition(n, 4);
        pts.push(measure("hypercube", format!("n={n}"), &g, &p));
    }

    // HCN(n,n) = HSN(2, Q_n)
    for n in [3usize, 4, 5, 6, 7, 8] {
        let tn = hier::hsn(2, classic::hypercube(n), &format!("Q{n}"));
        pts.push(tuple_point("HCN(n,n)", format!("n={n}"), &tn));
    }

    // HSN(l, Q4), complete-CN(l, Q4), ring-CN(l, Q4)
    for l in 2..=4usize {
        let nuc = || classic::hypercube(4);
        pts.push(tuple_point(
            "HSN(l,Q4)",
            format!("l={l}"),
            &hier::hsn(l, nuc(), "Q4"),
        ));
        pts.push(tuple_point(
            "CN(l,Q4)",
            format!("l={l}"),
            &hier::complete_cn(l, nuc(), "Q4"),
        ));
        pts.push(tuple_point(
            "ring-CN(l,Q4)",
            format!("l={l}"),
            &hier::ring_cn(l, nuc(), "Q4"),
        ));
    }

    // QCN(2, Q7/Q3): 16 quotient nodes per module
    {
        let q = hier::qcn(2, 7, 3);
        let part = Partition::new(q.module.clone(), q.modules);
        pts.push(measure("QCN(l,Q7/Q3)", "l=2".into(), &q.graph, &part));
    }

    pts.sort_by(|a, b| a.family.cmp(&b.family).then(a.nodes.cmp(&b.nodes)));

    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.family.clone(),
                p.param.clone(),
                p.nodes.to_string(),
                f2(p.log2_nodes),
                p.module_size.to_string(),
                f2(p.i_degree),
                p.i_diameter.to_string(),
                f2(p.avg_i_distance),
                if p.exact { "exact" } else { "sampled" }.into(),
            ]
        })
        .collect();
    println!("== Fig 3: inter-cluster metrics (≤ {MODULE_CAP} nodes/module) ==");
    print_table(
        &[
            "family",
            "param",
            "N",
            "log2 N",
            "mod",
            "I-deg",
            "I-diam",
            "avg I-dist",
            "mode",
        ],
        &rows,
    );

    // Claim checks (the figure's visual story): at comparable sizes the
    // super-IP families need far fewer off-module transmissions than the
    // hypercube.
    let find = |family: &str, nodes: usize| {
        pts.iter()
            .find(|p| p.family == family && p.nodes == nodes)
            .unwrap_or_else(|| panic!("{family} at {nodes} missing"))
    };
    let cube16 = find("hypercube", 65536);
    let hsn4 = find("HSN(l,Q4)", 65536);
    let cn4 = find("CN(l,Q4)", 65536);
    assert!(hsn4.i_diameter < cube16.i_diameter);
    assert!(cn4.i_diameter < cube16.i_diameter);
    assert!(hsn4.avg_i_distance < cube16.avg_i_distance);
    assert!(cn4.avg_i_distance < cube16.avg_i_distance);
    println!();
    println!(
        "claim check @ 2^16 nodes: I-diam cube={} HSN={} CN={}; avg I-dist cube={:.2} HSN={:.2} CN={:.2}",
        cube16.i_diameter,
        hsn4.i_diameter,
        cn4.i_diameter,
        cube16.avg_i_distance,
        hsn4.avg_i_distance,
        cn4.avg_i_distance
    );

    write_json("fig3_icost", &pts);
}
