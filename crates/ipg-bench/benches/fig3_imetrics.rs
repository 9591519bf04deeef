//! Figure-3 bench: computing the inter-cluster metrics (I-degree,
//! I-diameter, average I-distance) for representative networks, via both
//! the exact 0/1-BFS path and the module-quotient shortcut.

use criterion::{criterion_group, criterion_main, Criterion};
use ipg_bench::quotient_i_summary;
use ipg_cluster::imetrics;
use ipg_cluster::partition::{nucleus_partition, subcube_partition};
use ipg_core::algo;
use ipg_networks::{classic, hier};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_imetrics");

    let q12 = classic::hypercube(12);
    let pq = subcube_partition(12, 4);
    g.bench_function("exact_01bfs/Q12", |b| {
        b.iter(|| {
            black_box(imetrics::i_distance_summary(
                &q12,
                &pq,
                &algo::all_nodes(&q12),
            ))
        })
    });
    g.bench_function("quotient/Q12", |b| {
        b.iter(|| black_box(quotient_i_summary(&q12, &pq, 512)))
    });
    g.bench_function("i_degree/Q12", |b| {
        b.iter(|| black_box(imetrics::i_degree(&q12, &pq)))
    });

    let tn = hier::complete_cn(3, classic::hypercube(4), "Q4");
    let cn = tn.build();
    let pcn = nucleus_partition(&tn);
    g.bench_function("exact_01bfs/CN(3,Q4)", |b| {
        b.iter(|| {
            black_box(imetrics::i_distance_summary(
                &cn,
                &pcn,
                &algo::all_nodes(&cn),
            ))
        })
    });
    g.bench_function("quotient/CN(3,Q4)", |b| {
        b.iter(|| black_box(quotient_i_summary(&cn, &pcn, 512)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
