//! The engines against the reference model (DESIGN.md §13).
//!
//! `reference::packet` and `reference::wormhole` restate both cycle
//! engines as plain single-shard loops over `ipg-sim`'s public API (see
//! `reference/mod.rs`). Every test here runs a config through an engine
//! and through its reference and requires the same outcome: the exact
//! `SimResult`, or the same `WormholeStats` fields, deadlock cycle and
//! stuck-packet count. Packet runs also re-derive the sparse kernel's
//! worklists and occupancy counters from its queues afterwards
//! (`Simulator::validate_sparse_state`).

mod reference;

use ipg_core::graph::Csr;
use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
use ipg_core::tuple_routing::ShortestTupleRouter;
use ipg_networks::{classic, hier};
use ipg_sim::wormhole::{VcPolicy, WormTraffic, WormholeConfig, WormholeOutcome};
use ipg_sim::{
    DetourRouter, FaultPlan, FaultSpec, Router, RoutingTable, SimConfig, SimResult, Simulator,
    Switching, Traffic, WormholeSim,
};

/// Run `cfg` through the packet engine and the reference model and
/// require identical results. Returns the engine's result.
fn packet_case<R: Router>(
    what: &str,
    g: &Csr,
    module: &[u32],
    cfg: &SimConfig,
    router: R,
    plan: Option<FaultPlan>,
) -> SimResult {
    let mut sim = Simulator::with_router(router, g, |v| module[v as usize], cfg);
    sim.set_fault_plan(plan.clone());
    let got = sim.run(cfg);
    sim.validate_sparse_state();
    let want = reference::packet::run(g, |v| module[v as usize], cfg, sim.router(), plan.as_ref());
    assert_eq!(
        got, want,
        "{what}: the packet engine departs from the reference"
    );
    got
}

/// Run `cfg` through the wormhole engine and the reference model (each
/// with its own `router()`) and require the same outcome. Returns the
/// engine's outcome.
fn wormhole_case<R: Router>(
    what: &str,
    g: &Csr,
    cfg: &WormholeConfig,
    router: impl Fn() -> R,
    plan: Option<FaultPlan>,
) -> WormholeOutcome {
    let mut sim = WormholeSim::with_router(router(), g);
    sim.set_fault_plan(plan.clone());
    let got = sim.run(cfg);
    let want = reference::wormhole::run(g, cfg, &router(), plan.as_ref());
    match (&got, &want) {
        (WormholeOutcome::Completed(a), WormholeOutcome::Completed(b)) => assert_eq!(
            (a.injected, a.delivered, a.dropped, a.avg_latency),
            (b.injected, b.delivered, b.dropped, b.avg_latency),
            "{what}: the wormhole engine departs from the reference"
        ),
        (
            WormholeOutcome::Deadlocked {
                at_cycle: ca,
                stuck_packets: pa,
            },
            WormholeOutcome::Deadlocked {
                at_cycle: cb,
                stuck_packets: pb,
            },
        ) => assert_eq!(
            (ca, pa),
            (cb, pb),
            "{what}: the engines deadlock differently"
        ),
        _ => panic!("{what}: engine {got:?} vs reference {want:?}"),
    }
    got
}

fn light_cfg() -> SimConfig {
    SimConfig {
        injection_rate: 0.005,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        drain_cycles: 5_000,
        on_module_interval: 1,
        off_module_interval: 1,
        seed: 42,
        ..SimConfig::default()
    }
}

/// What `ipg simulate <spec> <rate>` runs: the CLI's schedule.
fn cli_cfg(rate: f64) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    }
}

fn plan(spec: &str, g: &Csr, seed: u64) -> FaultPlan {
    FaultPlan::compile(&FaultSpec::parse(spec).unwrap(), g, seed).unwrap()
}

#[test]
fn reference_matches_packet_engine_byte_for_byte() {
    // 576 nodes in 4 shards: packets cross shard boundaries every cycle.
    let g = classic::torus2d(24);
    let r = packet_case(
        "torus24",
        &g,
        &vec![0; g.node_count()],
        &light_cfg(),
        RoutingTable::new(&g),
        None,
    );
    assert!(r.delivered > 0);
}

#[test]
fn reference_matches_packet_engine_under_faults() {
    // A table-routed multi-shard torus with a node kill and rate kills.
    let g = classic::torus2d(24);
    let cfg = light_cfg();
    let r = packet_case(
        "faulted torus24",
        &g,
        &vec![0; g.node_count()],
        &cfg,
        DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap(),
        Some(plan(
            "script:node@600:7;rate:links=0.05,at=1500",
            &g,
            cfg.seed,
        )),
    );
    assert!(r.dropped_unreachable > 0, "node 7 dies with traffic around");

    // Exactly what `ipg simulate ring-cn:l=3,nucleus=Q2 0.03 --faults
    // script:link@600:0-1+node@1200:5` runs: the codec router under the
    // detour wrapper, the nucleus module map, the CLI's schedule.
    let tn = hier::ring_cn(3, classic::hypercube(2), "Q2");
    let g = tn.build();
    let (module, _) = tn.nucleus_partition();
    let cfg = cli_cfg(0.03);
    let codec = ShortestTupleRouter::new(tn).unwrap();
    let r = packet_case(
        "the CLI's faulted ring-CN(3,Q2)",
        &g,
        &module,
        &cfg,
        DetourRouter::new(codec, g.clone()).unwrap(),
        Some(plan("script:link@600:0-1+node@1200:5", &g, cfg.seed)),
    );
    assert!(r.dropped_unreachable > 0, "the node kill must bite");

    // A node kill mid-measurement and a batch of link kills in the drain:
    // queues the kills empty and the detours they cause.
    let tn = hier::complete_cn(2, classic::hypercube(3), "Q3");
    let g = tn.build();
    let module: Vec<u32> = (0..g.node_count() as u32).map(|v| v / 8).collect();
    let cfg = SimConfig {
        injection_rate: 0.04,
        warmup_cycles: 200,
        measure_cycles: 400,
        drain_cycles: 1_000,
        ..SimConfig::default()
    };
    let r = packet_case(
        "complete-CN(2,Q3) with late kills",
        &g,
        &module,
        &cfg,
        DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap(),
        Some(plan("script:node@300:5;rate:links=0.05,at=700", &g, 0xfa17)),
    );
    assert!(r.delivered > 0, "adaptive routing must keep delivering");

    // Past saturation with slow off-module links, so the links that die
    // hold deep queues: their packets are re-routed in queue order.
    let g = classic::hypercube(6);
    let module: Vec<u32> = (0..64).map(|v| v / 8).collect();
    let cfg = SimConfig {
        injection_rate: 0.3,
        warmup_cycles: 200,
        measure_cycles: 600,
        drain_cycles: 600,
        off_module_interval: 3,
        message_length: 2,
        seed: 9,
        ..SimConfig::default()
    };
    let r = packet_case(
        "saturated Q6 losing loaded links",
        &g,
        &module,
        &cfg,
        DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap(),
        Some(plan("rate:links=0.1,at=500", &g, cfg.seed)),
    );
    assert!(r.in_flight_at_end > 0, "the run must end saturated");
}

#[test]
fn saturated_link_clock_never_frees_and_matches_the_reference() {
    // Cut-through messages of 2^31 flits: an off-module link (interval
    // 2) is busy for 2^32 cycles per packet, past `u32::MAX` from any
    // cycle, so its clock saturates and it never launches again. A
    // clock that wrapped would free it the next cycle. On-module links
    // (interval 1) stay busy for 2^31 cycles, beyond the run too.
    let g = classic::hypercube(4);
    let module: Vec<u32> = (0..16).map(|v| v / 4).collect();
    let cfg = SimConfig {
        injection_rate: 0.05,
        warmup_cycles: 10,
        measure_cycles: 200,
        drain_cycles: 100,
        on_module_interval: 1,
        off_module_interval: 2,
        message_length: 1 << 31,
        switching: Switching::CutThrough,
        seed: 11,
        ..SimConfig::default()
    };
    let r = packet_case(
        "2^31-flit cut-through on Q4",
        &g,
        &module,
        &cfg,
        RoutingTable::new(&g),
        None,
    );
    assert!(r.delivered > 0, "first packets still cross");
    assert!(r.in_flight_at_end > 0, "busy links strand the rest");
}

#[test]
fn reference_matches_wormhole_byte_for_byte() {
    // Congested multi-hop config: small buffers and long packets force
    // credit stalls and same-cycle multi-hop forwarding.
    let g = classic::torus2d(4);
    let cfg = WormholeConfig {
        vcs: 8,
        buffer_flits: 1,
        packet_flits: 8,
        injection_rate: 0.05,
        cycles: 2_000,
        ..WormholeConfig::default()
    };
    let out = wormhole_case("congested torus4", &g, &cfg, || RoutingTable::new(&g), None);
    assert!(out.stats().injected > 0 && out.stats().delivered > 0);

    // Exactly what `ipg simulate hsn:l=2,nucleus=Q2 0.05 --wormhole
    // --vcs 3 --flits 4 --policy hop` runs: the codec router,
    // hop-indexed VCs.
    let tn = hier::hsn(2, classic::hypercube(2), "Q2");
    let g = tn.build();
    let cfg = WormholeConfig {
        vcs: 3,
        packet_flits: 4,
        injection_rate: 0.05,
        policy: VcPolicy::HopIndexed,
        ..WormholeConfig::default()
    };
    let codec = || ShortestTupleRouter::new(tn.clone()).unwrap();
    let out = wormhole_case("the CLI's HSN(2,Q2)", &g, &cfg, codec, None);
    assert!(!out.is_deadlocked());
}

#[test]
fn reference_matches_wormhole_under_faults() {
    // Purges (network-wide flit removal), refused launches and a node
    // dying with packets queued at its source.
    let g = classic::hypercube(5);
    let cfg = WormholeConfig {
        vcs: 6,
        injection_rate: 0.02,
        cycles: 6_000,
        ..WormholeConfig::default()
    };
    let detour = || DetourRouter::new(RoutingTable::new(&g), g.clone()).unwrap();
    let faults = plan("script:node@500:3+link@800:0-1+link@800:4-5", &g, 0xabcd);
    let out = wormhole_case("faulted Q5", &g, &cfg, detour, Some(faults));
    assert!(out.stats().dropped > 0, "the fault campaign must bite");
}

#[test]
fn reference_matches_wormhole_on_deadlock() {
    // Every node sends 3 hops clockwise on an 8-ring over one VC: the
    // channel dependency cycle wedges.
    let g = classic::ring(8);
    let cfg = WormholeConfig {
        vcs: 1,
        buffer_flits: 1,
        packet_flits: 8,
        injection_rate: 0.5,
        cycles: 20_000,
        deadlock_threshold: 300,
        policy: VcPolicy::Single,
        traffic: WormTraffic::Fixed((0..8u32).map(|i| (i + 3) % 8).collect()),
        ..WormholeConfig::default()
    };
    let out = wormhole_case("ring8", &g, &cfg, || RoutingTable::new(&g), None);
    assert!(out.is_deadlocked(), "expected a wedged ring");
}

/// A super-IP family constructor applied to `(l, nucleus)`.
fn super_family(family: usize, l: usize, nuc: NucleusSpec) -> SuperIpSpec {
    match family % 4 {
        0 => SuperIpSpec::hsn(l, nuc),
        1 => SuperIpSpec::ring_cn(l, nuc),
        2 => SuperIpSpec::complete_cn(l, nuc),
        _ => SuperIpSpec::superflip(l, nuc),
    }
}

/// The packet engine against the reference on a deterministic sweep of
/// super-IP specs × traffic × fault campaigns × switching × message
/// length × on/off-module link speeds. Each case builds a routing table
/// and runs two simulations, so the sweep is a few dozen hand-spread
/// points rather than a proptest strategy (seeds derived by SplitMix).
#[test]
fn packet_engine_matches_reference_on_random_specs() {
    for case in 0usize..24 {
        let (l, family, kind, traffic_kind, fault_kind) =
            (2 + case % 2, case % 4, (case / 2) % 4, case % 4, case % 3);
        let seed = (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16;
        let nuc = match kind {
            0 => NucleusSpec::hypercube(1),
            1 => NucleusSpec::hypercube(2),
            2 => NucleusSpec::complete(3),
            _ => NucleusSpec::ring(4),
        };
        let spec = super_family(family, l, nuc);
        if spec.expected_size().unwrap() > 600 {
            continue;
        }
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let g = tn.build();
        let n = g.node_count() as u32;
        let (module, _) = tn.nucleus_partition();
        // Odd cases send off-uniform traffic: a permutation on 2^k nodes,
        // a hotspot otherwise.
        let traffic = match (traffic_kind, n.is_power_of_two()) {
            (3, true) if n.trailing_zeros() % 2 == 0 => Traffic::Transpose,
            (1 | 3, true) => Traffic::BitComplement,
            (1 | 3, false) => Traffic::Hotspot {
                fraction: 0.3,
                target: n / 2,
            },
            _ => Traffic::Uniform,
        };
        let (on, off) = [(1, 1), (1, 4), (2, 3)][(case / 3) % 3];
        let cfg = SimConfig {
            injection_rate: 0.05,
            warmup_cycles: 40,
            measure_cycles: 120,
            drain_cycles: 240,
            on_module_interval: on,
            off_module_interval: off,
            seed,
            message_length: 1 + (case as u32 / 4) % 3,
            switching: if (case / 2) % 2 == 0 {
                Switching::StoreForward
            } else {
                Switching::CutThrough
            },
            traffic,
        };
        let faults = match fault_kind {
            0 => None,
            1 => Some(format!("script:node@60:{}", n / 2)),
            _ => Some("rate:links=0.02,at=90".to_string()),
        };
        let faults = faults.map(|f| plan(&f, &g, seed ^ 0xfa17));
        let what = format!("case {case}: {} {cfg:?}", spec.name);
        packet_case(&what, &g, &module, &cfg, RoutingTable::new(&g), faults);
    }
}

/// The wormhole engine against the reference across families, traffic
/// shapes and fault campaigns, deadlock verdicts included.
#[test]
fn wormhole_matches_reference_on_random_specs() {
    for case in 0usize..8 {
        let (l, family, traffic_kind, faulted) =
            (2 + case % 2, case % 4, (case / 2) % 2, case % 3 == 0);
        let seed = (case as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 16;
        let spec = super_family(family, l, NucleusSpec::hypercube(1 + family % 2));
        if spec.expected_size().unwrap() > 600 {
            continue;
        }
        let g = TupleNetwork::from_spec(&spec).unwrap().build();
        let n = g.node_count() as u32;
        let traffic = match traffic_kind {
            0 => WormTraffic::Uniform,
            // many-to-one onto the middle node (self-maps inject nothing)
            _ => WormTraffic::Fixed((0..n).map(|v| if v % 3 == 0 { n / 2 } else { v }).collect()),
        };
        let cfg = WormholeConfig {
            vcs: 8,
            injection_rate: 0.02,
            cycles: 800,
            seed,
            traffic,
            ..WormholeConfig::default()
        };
        let faults = faulted.then(|| plan("rate:links=0.02,at=200", &g, seed ^ 0xfa17));
        let what = format!("case {case}: {}", spec.name);
        wormhole_case(&what, &g, &cfg, || RoutingTable::new(&g), faults);
    }
}
