//! Theorem-4.1 bench: hierarchical routing cost — label-router
//! construction (codec, nucleus distance table and schedule search) and
//! per-route latency from labels, compared against a full BFS per query
//! — and the per-hop cost of the exact-shortest codec router the
//! simulators call, and what one faulted distance field costs the detour
//! router.

use criterion::{criterion_group, criterion_main, Criterion};
use ipg_core::algo;
use ipg_core::fault::{bfs_faulted, FaultView};
use ipg_core::routing::SuperRouter;
use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
use ipg_core::tuple_routing::ShortestTupleRouter;
use ipg_sim::{DetourRouter, FaultPlan, FaultSpec, Router};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("thm41_routing");

    let spec = SuperIpSpec::hsn(3, NucleusSpec::hypercube(2));
    let ip = spec.to_ip_spec().generate().unwrap();
    let csr = ip.to_undirected_csr();

    g.bench_function("router_build/HSN(3,Q2)", |b| {
        b.iter(|| black_box(SuperRouter::new(&spec).unwrap()))
    });

    let router = SuperRouter::new(&spec).unwrap();
    let n = ip.node_count() as u32;
    g.bench_function("route/HSN(3,Q2)", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(17) % n;
            let j = (i.wrapping_mul(31) + 7) % n;
            black_box(router.route(ip.label(i), ip.label(j)).unwrap().len())
        })
    });
    g.bench_function("bfs_route/HSN(3,Q2)", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(17) % n;
            let j = (i.wrapping_mul(31) + 7) % n;
            black_box(algo::shortest_path(&csr, i, j).unwrap().len())
        })
    });

    // schedule search alone, across families (the t / t_S computation)
    g.bench_function("schedule/t(HSN l=6)", |b| {
        let s = SuperIpSpec::hsn(6, NucleusSpec::hypercube(1));
        b.iter(|| black_box(ipg_core::routing::t_value(&s).unwrap()))
    });
    g.bench_function("schedule/t_S(sym ring-CN l=5)", |b| {
        let s = SuperIpSpec::ring_cn(5, NucleusSpec::hypercube(1)).symmetric();
        b.iter(|| black_box(ipg_core::routing::t_s_value(&s).unwrap()))
    });
    g.finish();
}

/// `count` seeded `(u, d)` pairs with `u ≠ d` over `n` nodes (a 64-bit
/// LCG), so every run replays the same queries.
fn route_pairs(n: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut x = seed;
    let mut draw = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((x >> 32) % u64::from(n)) as u32
    };
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let (u, d) = (draw(), draw());
        if u != d {
            pairs.push((u, d));
        }
    }
    pairs
}

/// One `ShortestTupleRouter::next_hop` per iteration over a fixed list of
/// pairs: the per-hop cost, without running a simulation. The networks
/// are those of the `ipg_perf` workloads: the 8192-node one (symmetric
/// seed, one forced product per hop) and the 2^20-node one (plain seed,
/// 120 candidate products).
fn shortest_next_hop(c: &mut Criterion) {
    let mut g = c.benchmark_group("shortest_next_hop");
    for (name, spec) in [
        (
            "sym-ring-CN(2,Q6)",
            SuperIpSpec::ring_cn(2, NucleusSpec::hypercube(6)).symmetric(),
        ),
        (
            "complete-CN(5,Q4)",
            SuperIpSpec::complete_cn(5, NucleusSpec::hypercube(4)),
        ),
    ] {
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let pairs = route_pairs(tn.node_count() as u32, 4096, 7);
        let router = ShortestTupleRouter::new(tn).unwrap();
        let mut i = 0;
        g.bench_function(name, |b| {
            b.iter(|| {
                let (u, d) = pairs[i % pairs.len()];
                i += 1;
                black_box(router.next_hop(u, d))
            })
        });
    }
    g.finish();
}

/// One faulted distance field on the `faults-8k` network and fault set
/// (sym-ring-CN(2,Q6), 10% of links dead, seed 7): `ipg_core`'s
/// `bfs_faulted` against the detour router's fill. The router fills the
/// 64 fields of a destination block at once, so each `fill_64_lanes`
/// iteration is one cache miss that caches 64 fields: divide its time by
/// 64 to compare per field.
fn detour_field(c: &mut Criterion) {
    let mut g = c.benchmark_group("detour_field");
    let spec = SuperIpSpec::ring_cn(2, NucleusSpec::hypercube(6)).symmetric();
    let tn = TupleNetwork::from_spec(&spec).unwrap();
    let graph = tn.build();
    let n = graph.node_count() as u32;
    let faults = FaultSpec::parse("rate:links=0.10,at=0").unwrap();
    let plan = FaultPlan::compile(&faults, &graph, 7).unwrap();
    let mut view = FaultView::new(n as usize);
    plan.apply_due(&mut 0, u32::MAX, &mut view);

    let mut d = 0u32;
    g.bench_function("sym-ring-CN(2,Q6)/bfs_faulted", |b| {
        b.iter(|| {
            d = (d + 1) % n;
            black_box(bfs_faulted(&graph, &view, d))
        })
    });
    g.bench_function("sym-ring-CN(2,Q6)/fill_64_lanes", |b| {
        // A fresh router per sample; its first query builds the alive
        // graph untimed. Each timed query then misses in a new block.
        let router =
            DetourRouter::new(ShortestTupleRouter::new(tn.clone()).unwrap(), graph.clone())
                .unwrap();
        black_box(router.next_hop_faulted(1, 0, &view));
        let mut block = 0;
        b.iter(|| {
            block += 1;
            assert!(block < n / 64, "more iterations than uncached blocks");
            black_box(router.next_hop_faulted(block * 64 + 1, block * 64, &view))
        })
    });
    g.finish();
}

criterion_group!(benches, bench, shortest_next_hop, detour_field);
criterion_main!(benches);
