//! Simulation experiment (§5 delay claims): packet latency of several
//! 4096-node networks under three link-speed regimes, checked against the
//! DD/ID/II cost orderings.
//!
//! 1. *uniform* — all links equal: light-load latency tracks the average
//!    distance (and family ordering tracks DD-cost);
//! 2. *slow off-module* — off-module links 4× slower: latency ordering
//!    tracks II-cost (the paper's "on-chip links can be driven at a
//!    considerably higher clock rate" regime);
//! 3. *throughput* — heavy load, uniform links: accepted throughput is
//!    inversely related to average distance.

use ipg_bench::{f2, print_table, quotient_i_summary, report, sample_sources};
use ipg_cluster::partition::{subcube_partition, torus_block_partition, Partition};
use ipg_core::algo;
use ipg_core::graph::Csr;
use ipg_networks::{classic, hier};
use ipg_obs::Obs;
use ipg_sim::engine::{SimConfig, SimResult, Simulator};
use ipg_sim::RoutingTable;
use serde::Serialize;

#[derive(Serialize)]
struct SimRow {
    network: String,
    nodes: usize,
    avg_distance: f64,
    avg_i_distance: f64,
    latency_uniform: f64,
    latency_slow_off: f64,
    throughput_heavy: f64,
}

fn light(seed: u64) -> SimConfig {
    SimConfig {
        injection_rate: 0.002,
        warmup_cycles: 1_000,
        measure_cycles: 3_000,
        drain_cycles: 8_000,
        on_module_interval: 1,
        off_module_interval: 1,
        seed,
        ..SimConfig::default()
    }
}

/// One run with the routing-table build and the simulation both
/// recording into `obs`.
fn run_observed(g: &Csr, class: &[u32], cfg: &SimConfig, obs: &Obs) -> SimResult {
    let table = RoutingTable::new_instrumented(g, obs);
    let mut sim = Simulator::with_router(table, g, |u| class[u as usize], cfg);
    sim.run_traced(cfg, obs, 0, None).0
}

fn networks() -> Vec<(String, Csr, Partition)> {
    let mut out = Vec::new();
    // 4096-node instances of four families, 16-node modules
    out.push((
        "hypercube Q12".to_string(),
        classic::hypercube(12),
        subcube_partition(12, 4),
    ));
    out.push((
        "2D torus 64x64".to_string(),
        classic::torus2d(64),
        torus_block_partition(64, 4, 4),
    ));
    {
        let tn = hier::ring_cn(3, classic::hypercube(4), "Q4");
        let g = tn.build();
        let (class, count) = tn.nucleus_partition();
        out.push((tn.name.clone(), g, Partition::new(class, count)));
    }
    {
        let tn = hier::hsn(3, classic::hypercube(4), "Q4");
        let g = tn.build();
        let (class, count) = tn.nucleus_partition();
        out.push((tn.name.clone(), g, Partition::new(class, count)));
    }
    out
}

fn main() {
    let rep = report::start(
        "sim_latency",
        &[
            ("nodes", 4096u64.into()),
            ("light_injection_rate", 0.002.into()),
            ("heavy_injection_rate", 0.3.into()),
            ("slow_off_module_interval", 4u64.into()),
            ("seed", 7u64.into()),
        ],
    );
    let nets = networks();
    // Sampled average distance (sufficient at 4096 nodes): every network
    // has 4096 nodes, so they share one even sample of 64 sources.
    assert!(nets.iter().all(|(_, g, _)| g.node_count() == 4096));
    let sources = sample_sources(&nets[0].1, 64);
    let mut rows = Vec::new();
    for (name, g, part) in nets {
        eprintln!("simulating {name} ...");
        let _net_span = rep.obs().span(&name);
        let avg_distance = algo::distance_summary(&g, &sources).mean();
        // 256 modules: the quotient summary runs from every module.
        let (i, exact) = quotient_i_summary(&g, &part, 256);
        assert!(exact, "{name}: sampled I-distance");

        let uniform = run_observed(&g, &part.class, &light(7), rep.obs());
        let slow_cfg = SimConfig {
            off_module_interval: 4,
            ..light(7)
        };
        let slow = run_observed(&g, &part.class, &slow_cfg, rep.obs());
        let heavy_cfg = SimConfig {
            injection_rate: 0.3,
            warmup_cycles: 1_000,
            measure_cycles: 2_000,
            drain_cycles: 2_000,
            ..light(7)
        };
        let heavy = run_observed(&g, &part.class, &heavy_cfg, rep.obs());

        rows.push(SimRow {
            network: name,
            nodes: g.node_count(),
            avg_distance,
            avg_i_distance: i.mean(),
            latency_uniform: uniform.avg_latency,
            latency_slow_off: slow.avg_latency,
            throughput_heavy: heavy.throughput,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.network.clone(),
                r.nodes.to_string(),
                f2(r.avg_distance),
                f2(r.avg_i_distance),
                f2(r.latency_uniform),
                f2(r.latency_slow_off),
                format!("{:.4}", r.throughput_heavy),
            ]
        })
        .collect();
    println!("== Simulation: 4096-node networks, 16-node modules ==");
    print_table(
        &[
            "network",
            "N",
            "avg dist",
            "avg I-dist",
            "latency (uniform)",
            "latency (off 4x)",
            "throughput (heavy)",
        ],
        &table,
    );

    // Claims:
    // 1. light-load uniform latency ≈ avg distance (within queueing noise)
    for r in &rows {
        assert!(
            (r.latency_uniform - r.avg_distance).abs() < 0.15 * r.avg_distance + 1.0,
            "{}: latency {} vs avg distance {}",
            r.network,
            r.latency_uniform,
            r.avg_distance
        );
    }
    // 2. with slow off-module links, the low-I-distance networks suffer least
    let slow_penalty = |r: &SimRow| r.latency_slow_off - r.latency_uniform;
    let by_name = |n: &str| rows.iter().find(|r| r.network.contains(n)).unwrap();
    let cube = by_name("hypercube");
    let rcn = by_name("ring-CN");
    let hsn = by_name("HSN");
    assert!(
        slow_penalty(rcn) < slow_penalty(cube),
        "ring-CN penalty {} vs hypercube {}",
        slow_penalty(rcn),
        slow_penalty(cube)
    );
    assert!(slow_penalty(hsn) < slow_penalty(cube));
    println!();
    println!(
        "claim check: off-module slowdown penalty ring-CN={:.2} HSN={:.2} hypercube={:.2}",
        slow_penalty(rcn),
        slow_penalty(hsn),
        slow_penalty(cube)
    );

    rep.json("sim_latency", &rows);
    rep.finish();
}
