//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! - label interning hasher: FxHash vs SipHash in the generation hot loop;
//! - all-pairs sweeps: sequential vs rayon-parallel BFS;
//! - I-distance computation: 0/1 BFS vs module-quotient BFS;
//! - IP generation vs direct tuple construction at equal output.

use criterion::{criterion_group, criterion_main, Criterion};
use ipg_bench::quotient_i_summary;
use ipg_cluster::imetrics;
use ipg_cluster::partition::subcube_partition;
use ipg_core::algo;
use ipg_core::label::Label;
use ipg_core::spec::IpGraphSpec;
use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
use ipg_networks::classic;
use std::collections::HashMap;
use std::hint::black_box;

fn bench_hashers(c: &mut Criterion) {
    // interning workload: the labels of a generated 7-star
    let ip = IpGraphSpec::star(7).generate().unwrap();
    let labels: Vec<Label> = ip.labels().to_vec();
    let mut g = c.benchmark_group("ablation_labels");
    g.bench_function("intern/fxhash", |b| {
        b.iter(|| {
            let mut map: ipg_core::util::FxHashMap<Label, u32> = Default::default();
            for (i, l) in labels.iter().enumerate() {
                map.insert(l.clone(), i as u32);
            }
            let mut hits = 0u32;
            for l in &labels {
                hits += map[l];
            }
            black_box(hits)
        })
    });
    g.bench_function("intern/siphash", |b| {
        b.iter(|| {
            let mut map: HashMap<Label, u32> = HashMap::new();
            for (i, l) in labels.iter().enumerate() {
                map.insert(l.clone(), i as u32);
            }
            let mut hits = 0u32;
            for l in &labels {
                hits += map[l];
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_bfs_parallelism(c: &mut Criterion) {
    let g = classic::hypercube(11); // 2048 nodes
    let mut grp = c.benchmark_group("ablation_bfs");
    grp.sample_size(10);
    grp.bench_function("all_pairs/parallel", |b| {
        b.iter(|| black_box(algo::diameter(&g)))
    });
    grp.bench_function("all_pairs/sequential", |b| {
        b.iter(|| {
            let mut worst = 0;
            for s in 0..g.node_count() as u32 {
                worst = worst.max(algo::eccentricity(&g, s));
            }
            black_box(worst)
        })
    });
    grp.finish();
}

fn bench_idistance_paths(c: &mut Criterion) {
    let g = classic::hypercube(12);
    let p = subcube_partition(12, 4);
    let mut grp = c.benchmark_group("ablation_imetrics");
    grp.sample_size(10);
    grp.bench_function("i_distance/zero_one_bfs", |b| {
        b.iter(|| black_box(imetrics::i_distance_summary(&g, &p, &algo::all_nodes(&g))))
    });
    grp.bench_function("i_distance/quotient", |b| {
        b.iter(|| black_box(quotient_i_summary(&g, &p, 512)))
    });
    grp.finish();
}

fn bench_generation_paths(c: &mut Criterion) {
    let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(4)); // 256 nodes
    let mut grp = c.benchmark_group("ablation_generation");
    grp.bench_function("generate/ip_closure", |b| {
        b.iter(|| black_box(spec.to_ip_spec().generate().unwrap().node_count()))
    });
    grp.bench_function("generate/tuple", |b| {
        b.iter(|| {
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            black_box(tn.build().arc_count())
        })
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_hashers,
    bench_bfs_parallelism,
    bench_idistance_paths,
    bench_generation_paths
);
criterion_main!(benches);
