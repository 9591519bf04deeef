//! Figure 1: structures of HSN(l, Q2) for l = 2, 3 with radix-4 node
//! labels — (a) HSN(2, Q2) ≡ HCN(2,2) without diameter links, (b)
//! HSN(3, Q2).
//!
//! Prints the node ranking (radix-4 digit string per node, as in the
//! paper's figure), the adjacency list, structural invariants, and writes
//! DOT renderings plus a JSON summary under `results/`.

use ipg_bench::{print_table, results_dir, write_json};
use ipg_core::algo;
use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
use ipg_networks::viz::to_dot;
use serde::Serialize;
use std::fs;

#[derive(Serialize)]
struct Fig1Entry {
    name: String,
    nodes: usize,
    edges: usize,
    max_degree: usize,
    min_degree: usize,
    diameter: u32,
    avg_distance: f64,
    radix4_labels: Vec<String>,
}

fn radix4(tn: &TupleNetwork, v: u32, l: usize) -> String {
    let (_, tuple) = tn.decode(v);
    // paper's ranking: leftmost super-symbol is the most significant digit
    tuple
        .iter()
        .rev()
        .map(|d| char::from_digit(*d, 10).expect("radix-4 digit"))
        .collect::<String>()
        + &" ".repeat(3usize.saturating_sub(l))
}

fn build(l: usize) -> (SuperIpSpec, TupleNetwork) {
    // spec: the label/generator view (printed); tn: the tuple view over
    // the bit-encoded Q2 so the radix-4 digits are the natural cube
    // coordinates, as in the paper's figure.
    let spec = SuperIpSpec::hsn(l, NucleusSpec::hypercube(2));
    let tn = ipg_networks::hier::hsn(l, ipg_networks::classic::hypercube(2), "Q2");
    (spec, tn)
}

fn main() {
    let mut summaries = Vec::new();
    for l in [2usize, 3] {
        let (spec, tn) = build(l);
        let g = tn.build();
        println!("== Fig 1{}: {} ==", if l == 2 { 'a' } else { 'b' }, tn.name);
        println!(
            "   generators: {} nucleus + {} super (seed {})",
            spec.nucleus.spec.generators.len(),
            spec.supers.len(),
            spec.to_ip_spec().seed.display_grouped(spec.m()),
        );

        let labels: Vec<String> = (0..g.node_count() as u32)
            .map(|v| radix4(&tn, v, l))
            .collect();

        let rows: Vec<Vec<String>> = (0..g.node_count() as u32)
            .map(|v| {
                vec![
                    v.to_string(),
                    labels[v as usize].trim().to_string(),
                    g.neighbors(v)
                        .iter()
                        .map(|&w| labels[w as usize].trim().to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                ]
            })
            .collect();
        print_table(&["node", "radix-4", "neighbors"], &rows);

        let distances = algo::distance_summary(&g, &algo::all_nodes(&g));
        let diameter = distances.diameter();
        println!(
            "   nodes={} edges={} degree {}..{} diameter={} (Cor 4.2 predicts {})",
            g.node_count(),
            g.edge_count_undirected(),
            g.min_degree(),
            g.max_degree(),
            diameter,
            3 * l - 1,
        );
        println!();

        let dot = to_dot(&g, &tn.name, |v| labels[v as usize].trim().to_string());
        let path = results_dir().join(format!("fig1_hsn{l}_q2.dot"));
        fs::write(&path, dot).expect("write dot");
        eprintln!("wrote {}", path.display());

        summaries.push(Fig1Entry {
            name: tn.name.clone(),
            nodes: g.node_count(),
            edges: g.edge_count_undirected(),
            max_degree: g.max_degree(),
            min_degree: g.min_degree(),
            diameter,
            avg_distance: distances.mean(),
            radix4_labels: labels,
        });
    }
    write_json("fig1_structure", &summaries);
}
