//! Wormhole experiment: virtual channels, deadlock, and the payoff of
//! small diameters.
//!
//! With hop-indexed VC allocation (deadlock-free when `vcs ≥ longest
//! route`), the number of VCs a router must implement for *guaranteed*
//! deadlock freedom equals the network diameter — so the low-diameter
//! super-IP graphs need cheaper routers than rings/tori of the same
//! size, and the §5 wormhole discussion becomes concrete hardware.

use ipg_bench::{f2, print_table, report};
use ipg_core::algo;
use ipg_core::graph::Csr;
use ipg_networks::{classic, hier};
use ipg_sim::wormhole::{VcPolicy, WormTraffic, WormholeConfig, WormholeOutcome, WormholeSim};
use serde::Serialize;

#[derive(Serialize)]
struct WormRow {
    network: String,
    nodes: usize,
    diameter: u32,
    vcs_needed: u32,
    delivered_pct: f64,
    avg_latency: f64,
}

fn main() {
    let rep = report::start(
        "wormhole_vcs",
        &[
            ("part1_ring_nodes", 8u64.into()),
            ("part2_nodes", 64u64.into()),
            ("part2_injection_rate", 0.01.into()),
            ("part2_cycles", 8_000u64.into()),
        ],
    );
    // Part 1: single-VC wormhole deadlocks on cyclic dependencies, and
    // hop-indexed VCs fix it.
    let ring = classic::ring(8);
    let sim = WormholeSim::new(&ring);
    let fixed: Vec<u32> = (0..8u32).map(|i| (i + 3) % 8).collect();
    let base = WormholeConfig {
        vcs: 1,
        buffer_flits: 1,
        packet_flits: 8,
        injection_rate: 0.5,
        cycles: 20_000,
        deadlock_threshold: 300,
        policy: VcPolicy::Single,
        traffic: WormTraffic::Fixed(fixed),
        ..WormholeConfig::default()
    };
    let wedged = {
        let _span = rep.obs().span("single-vc deadlock demo");
        sim.run_traced(&base, rep.obs(), 0, None).0
    };
    assert!(wedged.is_deadlocked(), "single-VC ring must wedge");
    let fixed_run = sim
        .run_traced(
            &WormholeConfig {
                vcs: 3,
                policy: VcPolicy::HopIndexed,
                ..base
            },
            rep.obs(),
            0,
            None,
        )
        .0;
    assert!(!fixed_run.is_deadlocked());
    println!("single-VC 8-ring under cyclic traffic: DEADLOCK (as theory predicts);");
    println!(
        "hop-indexed with 3 VCs: {} packets delivered, no deadlock\n",
        fixed_run.stats().delivered
    );

    // Part 2: VCs needed for guaranteed deadlock freedom = diameter
    // (longest shortest-path route), measured per network at 64 nodes.
    let nets: Vec<(String, Csr)> = vec![
        ("ring C64".into(), classic::ring(64)),
        ("2D torus 8x8".into(), classic::torus2d(8)),
        ("hypercube Q6".into(), classic::hypercube(6)),
        (
            "HSN(3,Q2)".into(),
            hier::hsn(3, classic::hypercube(2), "Q2").build(),
        ),
        (
            "ring-CN(3,Q2)".into(),
            hier::ring_cn(3, classic::hypercube(2), "Q2").build(),
        ),
    ];
    let mut rows = Vec::new();
    for (name, g) in &nets {
        let _net_span = rep.obs().span(name);
        let diameter = algo::diameter(g);
        let sim = WormholeSim::new(g);
        let cfg = WormholeConfig {
            vcs: diameter as usize,
            buffer_flits: 2,
            packet_flits: 4,
            injection_rate: 0.01,
            cycles: 8_000,
            deadlock_threshold: 1_000,
            policy: VcPolicy::HopIndexed,
            traffic: WormTraffic::Uniform,
            ..WormholeConfig::default()
        };
        let out = sim.run_traced(&cfg, rep.obs(), 0, None).0;
        let (pct, lat) = match &out {
            WormholeOutcome::Completed(s) => (
                100.0 * s.delivered as f64 / s.injected.max(1) as f64,
                s.avg_latency,
            ),
            WormholeOutcome::Deadlocked { .. } => (0.0, f64::NAN),
        };
        assert!(!out.is_deadlocked(), "{name}: hop-indexed must be clean");
        rows.push(WormRow {
            network: name.clone(),
            nodes: g.node_count(),
            diameter,
            vcs_needed: diameter,
            delivered_pct: pct,
            avg_latency: lat,
        });
    }
    println!("== hop-indexed wormhole at 64 nodes: VCs for guaranteed deadlock freedom ==");
    print_table(
        &[
            "network",
            "N",
            "diameter",
            "VCs needed",
            "delivered %",
            "avg latency",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.network.clone(),
                    r.nodes.to_string(),
                    r.diameter.to_string(),
                    r.vcs_needed.to_string(),
                    f2(r.delivered_pct),
                    f2(r.avg_latency),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let ring_vcs = rows[0].vcs_needed;
    let hsn_vcs = rows
        .iter()
        .find(|r| r.network.contains("HSN"))
        .unwrap()
        .vcs_needed;
    assert!(hsn_vcs * 3 <= ring_vcs);
    println!();
    println!(
        "claim check: HSN(3,Q2) needs {hsn_vcs} VCs vs the ring's {ring_vcs} — small diameters"
    );
    println!("buy cheap deadlock-free wormhole routers (the §5 hardware argument).");

    rep.json("wormhole_vcs", &rows);
    rep.finish();
}
