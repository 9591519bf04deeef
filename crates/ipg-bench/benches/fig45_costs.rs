//! Figure-4/5 bench: one measured sweep point end-to-end (build network,
//! partition, I-degree + quotient I-diameter) per family, at the 4096-node
//! scale the sweep uses.

use criterion::{criterion_group, criterion_main, Criterion};
use ipg_bench::{capped_nucleus_partition, quotient_i_summary};
use ipg_cluster::imetrics;
use ipg_cluster::partition::{subcube_partition, torus_block_partition, Partition};
use ipg_networks::{classic, hier};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig45_point");
    g.sample_size(20);

    g.bench_function("hypercube/n=12", |b| {
        b.iter(|| {
            let g = classic::hypercube(12);
            let p = subcube_partition(12, 4);
            let i = imetrics::i_degree(&g, &p);
            let d = quotient_i_summary(&g, &p, 256).0.max;
            black_box((i, d))
        })
    });
    g.bench_function("torus/k=64", |b| {
        b.iter(|| {
            let g = classic::torus2d(64);
            let p = torus_block_partition(64, 4, 4);
            let i = imetrics::i_degree(&g, &p);
            let d = quotient_i_summary(&g, &p, 256).0.max;
            black_box((i, d))
        })
    });
    g.bench_function("ring-CN/l=3,Q4", |b| {
        b.iter(|| {
            let tn = hier::ring_cn(3, classic::hypercube(4), "Q4");
            let g = tn.build();
            let (class, count) = capped_nucleus_partition(&tn, 16);
            let p = Partition::new(class, count);
            let i = imetrics::i_degree(&g, &p);
            let d = quotient_i_summary(&g, &p, 256).0.max;
            black_box((i, d))
        })
    });
    g.bench_function("star/n=7", |b| {
        b.iter(|| {
            let g = classic::star(7);
            let labels = classic::star_labels(7);
            let p = ipg_cluster::partition::substar_partition(&labels, 3);
            let i = imetrics::i_degree(&g, &p);
            let d = quotient_i_summary(&g, &p, 256).0.max;
            black_box((i, d))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
