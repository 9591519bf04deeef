//! Hierarchical interconnection networks: the super-IP families of §3 and
//! the previously proposed networks the paper unifies (§1): HCN, HFN, HHN,
//! RCC, HSE, plus quotient networks (QCN, Fig. 3).
//!
//! Constructors here use the *tuple* form ([`TupleNetwork`]) over explicit
//! nucleus graphs with documented node encodings, so the results are
//! deterministic and usable by partitioning code. The `ipdefs` module
//! cross-validates them against label-generated IP graphs.

use crate::classic;
use ipg_core::graph::Csr;
use ipg_core::perm::Perm;
use ipg_core::superip::{
    complete_cn_supers, hsn_supers, ring_cn_supers, superflip_supers, SeedKind, SuperGen,
    TupleNetwork,
};

/// Block perms of a family's super-generator set (the one table in
/// [`ipg_core::superip`], shared with `SuperIpSpec`'s constructors).
fn block_perms(l: usize, supers: &[SuperGen]) -> Vec<Perm> {
    supers.iter().map(|s| s.block_perm(l)).collect()
}

/// Hierarchical swapped network HSN(l, G) over an arbitrary nucleus graph.
/// Node id encodes the tuple `(g_1 … g_l)` in radix `|V(G)|`, coordinate 1
/// (the leftmost super-symbol) least significant.
pub fn hsn(l: usize, nucleus: Csr, nucleus_name: &str) -> TupleNetwork {
    TupleNetwork::new(
        format!("HSN({l},{nucleus_name})"),
        nucleus,
        l,
        block_perms(l, &hsn_supers(l)),
        SeedKind::Repeated,
    )
}

/// Ring cyclic-shift network ring-CN(l, G) (§3.3). Fixed inter-cluster
/// degree: 1 when `l = 2`, 2 when `l ≥ 3` (§5.3).
pub fn ring_cn(l: usize, nucleus: Csr, nucleus_name: &str) -> TupleNetwork {
    TupleNetwork::new(
        format!("ring-CN({l},{nucleus_name})"),
        nucleus,
        l,
        block_perms(l, &ring_cn_supers(l)),
        SeedKind::Repeated,
    )
}

/// Complete cyclic-shift network complete-CN(l, G) (§3.3).
pub fn complete_cn(l: usize, nucleus: Csr, nucleus_name: &str) -> TupleNetwork {
    TupleNetwork::new(
        format!("complete-CN({l},{nucleus_name})"),
        nucleus,
        l,
        block_perms(l, &complete_cn_supers(l)),
        SeedKind::Repeated,
    )
}

/// Super-flip network (§3.4).
pub fn superflip(l: usize, nucleus: Csr, nucleus_name: &str) -> TupleNetwork {
    TupleNetwork::new(
        format!("superflip({l},{nucleus_name})"),
        nucleus,
        l,
        block_perms(l, &superflip_supers(l)),
        SeedKind::Repeated,
    )
}

/// Symmetric variant of any of the above (§3.5): adds the block-order
/// component, multiplying the size by `|H|` (`l!` for HSN/super-flip, `l`
/// for CNs) and making the graph vertex-transitive.
pub fn symmetric(tn: &TupleNetwork) -> TupleNetwork {
    TupleNetwork::new(
        format!("sym-{}", tn.name),
        tn.nucleus.clone(),
        tn.l,
        tn.block_perms.clone(),
        SeedKind::DistinctShifted,
    )
}

/// Hierarchical cubic network HCN(n, n) (Ghose & Desai \[15\]), direct
/// construction. Node id = `J + I·2^n` where `I` is the cube id and `J`
/// the node-in-cube id. Edges:
///
/// - local: `(I, J) ~ (I, J')` for `J ~ J'` in `Q_n`;
/// - non-local: `(I, J) ~ (J, I)` for `I ≠ J`;
/// - diameter links (only if `diameter_links`): `(I, I) ~ (Ī, Ī)`.
///
/// Without diameter links this equals `HSN(2, Q_n)` arc-for-arc.
pub fn hcn(n: usize, diameter_links: bool) -> Csr {
    assert!((1..16).contains(&n));
    let m = 1u32 << n;
    let mask = m - 1;
    Csr::from_fn((m as usize) * (m as usize), |v, out| {
        let j = v & mask;
        let i = v >> n;
        for b in 0..n {
            out.push((j ^ (1 << b)) | (i << n));
        }
        if i != j {
            out.push(i | (j << n));
        } else if diameter_links {
            let ic = i ^ mask;
            out.push((ic << n) | ic);
        }
    })
}

/// Hierarchical folded-hypercube network HFN(n, n) (Duh, Chen & Fang \[13\]):
/// folded hypercubes as basic modules with swap links — the super-IP member
/// `HSN(2, FQ_n)` (the paper lists HFN among the networks the model
/// unifies).
pub fn hfn(n: usize) -> TupleNetwork {
    hsn(2, classic::folded_hypercube(n), &format!("FQ{n}"))
}

/// Hierarchical hypercube network HHN(k) (Yun & Park \[34\]), direct
/// construction: `2^(2^k + k)` nodes. Node id = `J + I·2^k` with
/// `J ∈ {0,1}^k` (node-in-cluster) and `I ∈ {0,1}^(2^k)` (cluster id).
/// Local edges form `Q_k` on `J`; the external edge flips bit `dec(J)`
/// of `I`.
pub fn hhn(k: usize) -> Csr {
    assert!((1..=4).contains(&k), "HHN size is 2^(2^k + k)");
    let inner = 1u32 << k;
    let outer_bits = 1usize << k;
    let n = 1usize << (outer_bits + k);
    Csr::from_fn(n, |v, out| {
        let j = v & (inner - 1);
        let i = v >> k;
        for b in 0..k {
            out.push((j ^ (1 << b)) | (i << k));
        }
        out.push(j | ((i ^ (1 << j)) << k));
    })
}

/// Recursively connected complete network RCC(l, K_m) in its super-IP form:
/// complete-graph nucleus with transposition super-generators (Corollary
/// 4.2 lists RCC with the same `(D_G + 1)·l − 1` diameter, here `2l − 1`).
pub fn rcc(l: usize, m: usize) -> TupleNetwork {
    TupleNetwork::new(
        format!("RCC({l},K{m})"),
        classic::complete(m),
        l,
        block_perms(l, &hsn_supers(l)),
        SeedKind::Repeated,
    )
}

/// Recursive hierarchical swapped network RHSN \[26\]: `levels`-deep
/// recursion of two-block swapped networks, starting from `base`. Level 1
/// is `base` itself; level `i` is `HSN(2, level_{i-1})`. Size `M^(2^(levels-1))`.
pub fn rhsn(levels: usize, base: Csr, base_name: &str) -> TupleNetwork {
    assert!(levels >= 2);
    let mut g = base;
    let mut name = base_name.to_string();
    for _ in 2..levels {
        let tn = hsn(2, g, &name);
        name = tn.name.clone();
        g = tn.build();
    }
    hsn(2, g, &name)
}

/// Hierarchical shuffle-exchange network HSE (Cypher & Sanz \[10\]) in its
/// super-IP form: shuffle-exchange nucleus with cyclic-shift
/// super-generators (the paper lists HSE among the unified networks).
pub fn hse(l: usize, n: usize) -> TupleNetwork {
    ring_cn(l, classic::shuffle_exchange(n), &format!("SE{n}"))
}

/// Cyclic Petersen network CPN(l) \[32\]: the ring cyclic-shift network
/// over the Petersen graph — 10^l nodes, degree 5 (3 + 2), diameter
/// `3l − 1`.
pub fn cyclic_petersen(l: usize) -> TupleNetwork {
    ring_cn(l, classic::petersen(), "P")
}

/// Complete cyclic Petersen network: complete-CN over the Petersen graph.
pub fn complete_cyclic_petersen(l: usize) -> TupleNetwork {
    complete_cn(l, classic::petersen(), "P")
}

/// A quotient network: the result of merging groups of nodes of a base
/// network into single nodes (paper §6: quotient variants minimize
/// off-module transmissions).
#[derive(Clone, Debug)]
pub struct QuotientNetwork {
    /// Display name.
    pub name: String,
    /// The quotient graph.
    pub graph: Csr,
    /// For each quotient node, its module id under the nucleus packing.
    pub module: Vec<u32>,
    /// Number of modules.
    pub modules: usize,
}

/// Quotient cyclic-shift network QCN(l, Q_big / Q_small) (Fig. 3):
/// ring-CN(l, Q_big) with each `Q_small`-subcube of the leftmost
/// super-symbol merged into one node. Each nucleus copy becomes
/// `2^(big−small)` quotient nodes, which form one module.
pub fn qcn(l: usize, big: usize, small: usize) -> QuotientNetwork {
    assert!(small < big);
    let tn = ring_cn(l, classic::hypercube(big), &format!("Q{big}"));
    let base = tn.build();
    // Tuple ids put coordinate 0 (the leftmost block, a Q_big node id) in
    // the least significant `big` bits, so merging a Q_small subcube is a
    // right shift.
    let n = base.node_count();
    let qnodes = n >> small;
    let class: Vec<u32> = (0..n as u32).map(|v| v >> small).collect();
    let graph = base.quotient(&class, qnodes);
    let per_module = 1u32 << (big - small);
    let module: Vec<u32> = (0..qnodes as u32).map(|q| q / per_module).collect();
    QuotientNetwork {
        name: format!("QCN({l},Q{big}/Q{small})"),
        graph,
        module,
        modules: qnodes / per_module as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_core::algo;

    #[test]
    fn hcn_without_diameter_links_equals_hsn2() {
        for n in 1..=3 {
            let direct = hcn(n, false);
            let tuple = hsn(2, classic::hypercube(n), &format!("Q{n}")).build();
            assert_eq!(direct, tuple, "HCN({n},{n}) vs HSN(2,Q{n})");
        }
    }

    #[test]
    fn hcn_with_diameter_links_adds_edges() {
        let without = hcn(2, false);
        let with = hcn(2, true);
        assert_eq!(with.node_count(), without.node_count());
        assert!(with.arc_count() > without.arc_count());
        // diameter links connect (I,I) to (Ī,Ī): node 0b0000 to 0b1111
        assert!(with.has_arc(0b0000, 0b1111));
        assert!(!without.has_arc(0b0000, 0b1111));
    }

    #[test]
    fn fig1a_hsn2_q2_structure() {
        // Paper Fig 1a: HSN(2, Q2) = HCN(2,2) without diameter links:
        // 16 nodes, max degree 3 (2 cube links + 1 swap; the 4 nodes with
        // I = J have degree 2).
        let g = hcn(2, false);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(algo::diameter(&g), 5); // (D_G+1)·l − 1 = 3·2 − 1
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn fig1b_hsn3_q2_structure() {
        // Paper Fig 1b: HSN(3, Q2): 64 nodes, degree ≤ 2 + 2 supergens.
        let g = hsn(3, classic::hypercube(2), "Q2").build();
        assert_eq!(g.node_count(), 64);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(algo::diameter(&g), 8); // 3·3 − 1
    }

    #[test]
    fn hfn_size_and_degree() {
        let g = hfn(2).build();
        assert_eq!(g.node_count(), 16);
        // nucleus FQ2 has degree 3; plus one swap link
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn hhn_props() {
        // HHN(2): 2^(4+2) = 64 nodes, degree k+1 = 3.
        let g = hhn(2);
        assert_eq!(g.node_count(), 64);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 3);
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn rcc_props() {
        // RCC(2, K4): 16 nodes, degree 3+1.
        let g = rcc(2, 4).build();
        assert_eq!(g.node_count(), 16);
        assert_eq!(algo::diameter(&g), 3); // 2·1 + 1
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn rhsn_sizes() {
        // levels=2 → HSN(2, base): M^2; levels=3 → (M^2)^2 = M^4.
        let base = classic::hypercube(1);
        assert_eq!(rhsn(2, base.clone(), "Q1").build().node_count(), 4);
        assert_eq!(rhsn(3, base, "Q1").build().node_count(), 16);
    }

    #[test]
    fn hse_props() {
        let g = hse(2, 3).build();
        assert_eq!(g.node_count(), 64);
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn qcn_shapes() {
        // QCN(2, Q3/Q1): ring-CN(2,Q3) has 64 nodes; merging 2-node
        // subcubes gives 32 quotient nodes in 8 modules of 4.
        let q = qcn(2, 3, 1);
        assert_eq!(q.graph.node_count(), 32);
        assert_eq!(q.modules, 8);
        assert!(algo::is_connected(&q.graph));
        let mut counts = vec![0usize; q.modules];
        for &m in &q.module {
            counts[m as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4));
    }

    #[test]
    fn symmetric_variants_are_vertex_transitive() {
        use ipg_core::symmetry::{vertex_transitivity, Transitivity};
        let plain = hsn(2, classic::hypercube(1), "Q1");
        let sym = symmetric(&plain);
        let g = sym.build();
        assert_eq!(g.node_count(), 8); // 2!·2^2
        assert_eq!(vertex_transitivity(&g, 1_000_000), Transitivity::Yes);
        // The plain HSN(2,Q1) is NOT vertex-transitive (swap self-loops
        // make two node classes).
        let gp = plain.build();
        assert_eq!(vertex_transitivity(&gp, 1_000_000), Transitivity::No);
    }

    #[test]
    fn cyclic_petersen_props() {
        // CPN(2): 100 nodes, degree 3 + 1 (L1 = R1 at l = 2),
        // diameter (2+1)·2 − 1 = 5.
        let g = cyclic_petersen(2).build();
        assert_eq!(g.node_count(), 100);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(algo::diameter(&g), 5);
        // CPN(3): 1000 nodes, degree 5, diameter 8.
        let g = cyclic_petersen(3).build();
        assert_eq!(g.node_count(), 1000);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(algo::diameter(&g), 8);
        let g = complete_cyclic_petersen(3).build();
        assert_eq!(g.max_degree(), 5);
        assert_eq!(algo::diameter(&g), 8);
    }

    /// The two-pass build that [`TupleNetwork::build`] replaced: directed
    /// rows (nucleus arcs, then each block perm's image, its order found
    /// by search rather than the transition table), then `symmetrized()`.
    fn two_pass_build(tn: &TupleNetwork) -> Csr {
        let order_of = |p: &Perm| {
            (0..tn.order_count() as u32)
                .find(|&i| tn.order_perm(i) == p)
                .expect("the order group is closed")
        };
        let mut image = vec![0u32; tn.l];
        Csr::from_fn(tn.node_count(), |id, row| {
            let (order, tuple) = tn.decode(id);
            let base = id - tuple[0];
            row.extend(tn.nucleus.neighbors(tuple[0]).iter().map(|&nb| base + nb));
            for bp in &tn.block_perms {
                for (o, &p) in image.iter_mut().zip(bp.image()) {
                    *o = tuple[p as usize];
                }
                let next = match tn.order_count() {
                    1 => 0,
                    _ => order_of(&tn.order_perm(order).then(bp)),
                };
                row.push(tn.encode(next, &image));
            }
        })
        .symmetrized()
    }

    #[test]
    fn one_pass_build_matches_two_pass_reference() {
        use ipg_core::superip::{NucleusSpec, SuperIpSpec};
        let q = classic::hypercube;
        let mut nets = vec![
            hsn(3, q(2), "Q2"),
            ring_cn(2, q(3), "Q3"),
            ring_cn(3, q(2), "Q2"),
            complete_cn(4, q(1), "Q1"),
            superflip(3, q(2), "Q2"),
            symmetric(&hsn(3, q(1), "Q1")),
            symmetric(&ring_cn(4, q(1), "Q1")),
            symmetric(&complete_cn(3, q(2), "Q2")),
            symmetric(&superflip(3, q(1), "Q1")),
            hfn(2),
            rcc(3, 3),
            rhsn(3, q(1), "Q1"),
            hse(2, 3),
            cyclic_petersen(3),
            complete_cyclic_petersen(3),
        ];
        // the spec families of the tuple-vs-IP oracle, dir-CN included:
        // its L_1 is the one generator whose inverse is not in the set
        let nuc = NucleusSpec::hypercube(2);
        for spec in [
            SuperIpSpec::hsn(3, nuc.clone()),
            SuperIpSpec::ring_cn(3, nuc.clone()),
            SuperIpSpec::complete_cn(4, NucleusSpec::hypercube(1)),
            SuperIpSpec::superflip(3, nuc.clone()),
            SuperIpSpec::hsn(2, nuc.clone()).symmetric(),
            SuperIpSpec::ring_cn(4, NucleusSpec::hypercube(1)).symmetric(),
            SuperIpSpec::superflip(3, NucleusSpec::hypercube(1)).symmetric(),
            SuperIpSpec::directed_ring_cn(3, nuc.clone()),
            SuperIpSpec::directed_ring_cn(4, NucleusSpec::hypercube(1)).symmetric(),
        ] {
            nets.push(TupleNetwork::from_spec(&spec).unwrap());
        }
        for tn in &nets {
            assert_eq!(tn.build(), two_pass_build(tn), "{}", tn.name);
        }
    }

    #[test]
    fn ring_cn_degrees_match_section_5_3() {
        // off-module links per node: 1 when l=2, 2 when l≥3; total degree
        // adds the nucleus degree (Q2: 2).
        let nuc = || classic::hypercube(2);
        let g2 = ring_cn(2, nuc(), "Q2").build();
        assert_eq!(g2.max_degree(), 2 + 1);
        let g3 = ring_cn(3, nuc(), "Q2").build();
        assert_eq!(g3.max_degree(), 2 + 2);
        let g4 = complete_cn(4, nuc(), "Q2").build();
        assert_eq!(g4.max_degree(), 2 + 3);
        let g4f = superflip(4, nuc(), "Q2").build();
        assert_eq!(g4f.max_degree(), 2 + 3);
    }
}
