//! Cross-crate integration tests: the three construction paths agree, the
//! router produces valid minimal-bounded walks on every family, metrics
//! compose, and the simulator runs on generated networks.

use ipgraph::prelude::*;

/// The three ways to build HSN(2, Q_n) agree: label generation (ipg-core),
/// tuple construction (ipg-core::superip), direct HCN (ipg-networks).
#[test]
fn three_construction_paths_agree() {
    for n in 1..=3usize {
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(n));
        let ip = spec.to_ip_spec().generate().unwrap();
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        // explicit isomorphism IP -> tuple
        ipgraph::core::superip::explicit_isomorphism(&spec, &ip, &tn).unwrap();
        // tuple over bit-encoded nucleus == direct HCN, arc for arc
        let tuple_direct = hier::hsn(2, classic::hypercube(n), &format!("Q{n}")).build();
        assert_eq!(tuple_direct, hier::hcn(n, false), "n={n}");
        // and all have the same fingerprint
        let f1 = algo::fingerprint(&ip.to_undirected_csr());
        let f2 = algo::fingerprint(&tn.build());
        let f3 = algo::fingerprint(&tuple_direct);
        assert_eq!(f1, f2);
        assert_eq!(f2, f3);
    }
}

/// End-to-end: spec -> generate -> route -> validate against BFS, across
/// every §3 family and several nuclei.
#[test]
fn routing_is_valid_and_bounded_across_families() {
    let nuclei = [
        NucleusSpec::hypercube(2),
        NucleusSpec::complete(3),
        NucleusSpec::ring(4),
    ];
    for nucleus in &nuclei {
        for spec in [
            SuperIpSpec::hsn(2, nucleus.clone()),
            SuperIpSpec::ring_cn(3, nucleus.clone()),
            SuperIpSpec::superflip(3, nucleus.clone()),
        ] {
            let ip = spec.to_ip_spec().generate().unwrap();
            let router = routing::SuperRouter::new(&spec).unwrap();
            let g = ip.to_undirected_csr();
            let bound = routing::predicted_diameter(&spec).unwrap();
            assert_eq!(algo::diameter(&g), bound, "{}", spec.name);
            // spot-check 40 pairs
            let n = ip.node_count() as u32;
            for i in 0..40u32 {
                let u = (i * 7919) % n;
                let v = (i * 104729 + 13) % n;
                let path = router.route(ip.label(u), ip.label(v)).unwrap();
                assert!(path.len() as u32 - 1 <= bound, "{}: {u}->{v}", spec.name);
                for w in path.windows(2) {
                    let a = ip.node_of(&w[0]).unwrap();
                    let b = ip.node_of(&w[1]).unwrap();
                    assert!(ip.arcs_of(a).contains(&b), "{}", spec.name);
                }
            }
        }
    }
}

/// Metrics pipeline: tuple network -> partition -> summary; values agree
/// between the exact and quotient paths.
#[test]
fn metrics_pipeline_consistency() {
    let tn = hier::complete_cn(3, classic::hypercube(3), "Q3");
    let g = tn.build();
    let part = partition::nucleus_partition(&tn);
    let s = summarize(&tn.name, &g, &part);
    assert_eq!(s.nodes, 512);
    assert_eq!(s.diameter, 11); // (3+1)·3 − 1
    assert_eq!(s.i_diameter, 2); // t = l − 1
    let q = imetrics::module_graph(&g, &part);
    let qs = imetrics::quotient_summary(&q, &part.module_sizes(), &algo::all_nodes(&q));
    assert_eq!(qs.max, s.i_diameter);
    assert!((qs.mean() - s.avg_i_distance).abs() < 1e-9);
    assert!(s.dd_cost() >= s.id_cost());
    assert!(s.id_cost() >= s.ii_cost());
}

/// The simulator accepts generated super-IP networks and reproduces the
/// distance-latency correspondence on them.
#[test]
fn simulator_on_generated_network() {
    let tn = hier::hsn(2, classic::hypercube(3), "Q3");
    let g = tn.build();
    let (module, _) = tn.nucleus_partition();
    let cfg = SimConfig {
        injection_rate: 0.005,
        warmup_cycles: 300,
        measure_cycles: 1_000,
        drain_cycles: 2_000,
        on_module_interval: 1,
        off_module_interval: 1,
        seed: 3,
        ..SimConfig::default()
    };
    let r = run_clustered(&g, &module, &cfg);
    assert_eq!(r.injected, r.delivered, "light load should deliver all");
    let avg = algo::average_distance(&g);
    assert!((r.avg_latency - avg).abs() < 1.0);
}

/// Symmetric variants: vertex-transitive, regular, and correctly sized —
/// across families (the §3.5 claims, end to end).
#[test]
fn symmetric_variants_end_to_end() {
    let cases: Vec<(SuperIpSpec, u64)> = vec![
        (
            SuperIpSpec::hsn(2, NucleusSpec::hypercube(2)).symmetric(),
            2 * 16,
        ),
        (
            SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)).symmetric(),
            3 * 8,
        ),
        (
            SuperIpSpec::superflip(3, NucleusSpec::hypercube(1)).symmetric(),
            6 * 8,
        ),
        (
            SuperIpSpec::complete_cn(3, NucleusSpec::hypercube(1)).symmetric(),
            3 * 8,
        ),
    ];
    for (spec, want) in cases {
        let ip = spec.to_ip_spec().generate().unwrap();
        assert_eq!(ip.node_count() as u64, want, "{}", spec.name);
        let g = ip.to_undirected_csr();
        assert!(g.is_regular(), "{}", spec.name);
        assert_eq!(
            symmetry::vertex_transitivity(&g, 10_000_000),
            symmetry::Transitivity::Yes,
            "{}",
            spec.name
        );
    }
}

/// The quotient-network machinery: QCN distances lower-bound the base
/// network's I-distances and the module map is consistent.
#[test]
fn quotient_network_consistency() {
    let q = hier::qcn(2, 5, 2);
    assert_eq!(q.graph.node_count(), (1 << 10) / 4); // 32^2 / 2^2
    assert!(algo::is_connected(&q.graph));
    let part = Partition::new(q.module.clone(), q.modules);
    assert_eq!(part.max_module_size(), 8); // 2^(5−2)
    let m = imetrics::exact_metrics(&q.graph, &part);
    assert!(m.i_diameter >= 1);
}

/// Generated de Bruijn and shuffle-exchange graphs plug into the routing
/// table / simulator machinery like any other Csr.
#[test]
fn ip_defined_networks_are_usable_downstream() {
    let db = ipdefs::debruijn_ip(5)
        .generate()
        .unwrap()
        .to_undirected_csr();
    assert!(algo::is_connected(&db));
    let table = ipgraph::sim::table::RoutingTable::new(&db);
    let p = table.path(0, 17).unwrap();
    assert!(p.len() >= 2);
    for w in p.windows(2) {
        assert!(db.has_arc(w[0], w[1]));
    }
}

/// RHSN recursion: sizes square at each level and diameters follow
/// Theorem 4.1 applied recursively.
#[test]
fn rhsn_recursive_diameters() {
    // level 2: HSN(2, Q2): D = 2·2 + 1 = 5. level 3: HSN(2, level2):
    // D = 2·5 + 1 = 11.
    let l2 = hier::rhsn(2, classic::hypercube(2), "Q2").build();
    assert_eq!(algo::diameter(&l2), 5);
    let l3 = hier::rhsn(3, classic::hypercube(2), "Q2").build();
    assert_eq!(l3.node_count(), 256);
    assert_eq!(algo::diameter(&l3), 11);
}
