//! Addressing bench: hash-interned vs. rank-indexed (arithmetic codec)
//! construction and routing on HSN/CN instances at several sizes.
//!
//! Three comparisons per instance, both builds ending in the undirected
//! CSR the simulator runs:
//!
//! - `interned_build` — label-by-label BFS generation with `FxHashMap`
//!   interning, then undirected CSR conversion (the general-IP fallback
//!   path);
//! - `rank_build` — [`TupleNetwork::from_spec`] plus its one-pass
//!   arithmetic build (no label vector, no hash map);
//! - `interned_route` / `rank_route` — the one Theorem-4.1 router,
//!   `TupleRouter`, from labels (`SuperRouter`: label → codec id →
//!   route → label for every hop) vs. from codec ids: the cost of the
//!   label bridge.
//!
//! `scripts/bench.sh` runs this suite with `CRITERION_JSON` set and
//! distills the medians into `results/BENCH_core.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use ipg_core::codec::NodeCodec;
use ipg_core::routing::SuperRouter;
use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
use ipg_core::tuple_routing::TupleRouter;
use std::hint::black_box;

/// Fixed instance list, smallest to largest. The largest HSN and CN
/// entries are the acceptance-criteria cases for the ≥ 2× build speedup.
fn instances() -> Vec<SuperIpSpec> {
    vec![
        SuperIpSpec::hsn(2, NucleusSpec::hypercube(2)),
        SuperIpSpec::hsn(2, NucleusSpec::hypercube(3)),
        SuperIpSpec::hsn(2, NucleusSpec::hypercube(4)),
        SuperIpSpec::hsn(3, NucleusSpec::hypercube(3)),
        SuperIpSpec::complete_cn(4, NucleusSpec::hypercube(2)),
        SuperIpSpec::complete_cn(5, NucleusSpec::hypercube(2)),
    ]
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("addressing");
    g.sample_size(20);
    for spec in instances() {
        g.bench_function(format!("interned_build/{}", spec.name), |b| {
            b.iter(|| {
                let ip = spec.to_ip_spec().generate().unwrap();
                black_box(ip.to_undirected_csr().arc_count())
            })
        });
        g.bench_function(format!("rank_build/{}", spec.name), |b| {
            b.iter(|| {
                // end-to-end: nucleus generation and the tuple network's
                // tables are part of the build, not amortized away
                let tn = TupleNetwork::from_spec(&spec).unwrap();
                black_box(tn.build().arc_count())
            })
        });
    }
    g.finish();
}

fn bench_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("addressing");
    g.sample_size(20);
    for spec in instances() {
        let ip = spec.to_ip_spec().generate().unwrap();
        let sr = SuperRouter::new(&spec).unwrap();
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let tr = TupleRouter::new(tn).unwrap();
        let codec = NodeCodec::new(&spec).unwrap();
        let n = ip.node_count() as u32;
        // deterministic sample of (src, dst) pairs, identical nodes for
        // both routers (mapped through the codec for the id-based one)
        let pairs: Vec<(u32, u32)> = (0..32u32)
            .map(|i| ((i * 97) % n, (i * 193 + n / 2) % n))
            .collect();
        g.bench_function(format!("interned_route/{}", spec.name), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for &(u, v) in &pairs {
                    total += sr.route(ip.label(u), ip.label(v)).unwrap().len();
                }
                black_box(total)
            })
        });
        let id_pairs: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(u, v)| {
                (
                    codec.encode(ip.label(u).symbols()).unwrap(),
                    codec.encode(ip.label(v).symbols()).unwrap(),
                )
            })
            .collect();
        g.bench_function(format!("rank_route/{}", spec.name), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for &(u, v) in &id_pairs {
                    total += tr.route(u, v).unwrap().len();
                }
                black_box(total)
            })
        });
    }
    g.finish();
}

fn bench_codec_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("addressing");
    g.sample_size(20);
    // label round trip on a 256-node instance with 16-symbol labels
    let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(4));
    let codec = NodeCodec::new(&spec).unwrap();
    let n = codec.node_count() as u32;
    g.bench_function("codec_encode_decode/HSN(2,Q4)", |b| {
        let mut buf = vec![0u8; codec.label_len()];
        b.iter(|| {
            let mut acc = 0u64;
            for id in 0..n {
                codec.decode_into(id, &mut buf);
                acc += codec.encode(&buf).unwrap() as u64;
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_route, bench_codec_ops);
criterion_main!(benches);
