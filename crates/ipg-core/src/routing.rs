//! Theorem 4.1 over labels: the super-generator schedule functions and
//! [`SuperRouter`], the label form of the constructive router.
//!
//! Routing in an IP graph is *sorting the source label into the destination
//! label* (paper §4). For super-IP graphs the algorithm is:
//!
//! 1. pick a `t`-step schedule of super-generators that brings every
//!    super-symbol to the leftmost position at least once (for symmetric
//!    graphs, a `t_S`-step schedule that additionally realizes the required
//!    final block arrangement, Theorem 4.3);
//! 2. sort the leftmost super-symbol to its destination value with nucleus
//!    generators (≤ `D_G` steps);
//! 3. run the schedule, sorting each super-symbol the first time it arrives
//!    at the leftmost position.
//!
//! Total: ≤ `l·D_G + t` steps, which Theorem 4.1 shows is exactly the
//! diameter. The algorithm itself runs once, on tuple node ids, in
//! [`TupleRouter`]; [`SuperRouter`] routes labels over the
//! [`NodeCodec`], translating them to ids and the id path back to labels.

use crate::algo;
use crate::codec::NodeCodec;
use crate::error::{IpgError, Result};
use crate::label::Label;
use crate::superip::{SeedKind, SuperIpSpec};
use crate::tuple_routing::{schedule_over_perms, TupleRouter};

/// Theorem 4.1's `t`: the minimum number of super-generator applications
/// bringing every super-symbol to the leftmost position at least once.
/// `None` if the §3.1 reachability requirement fails.
pub fn t_value(spec: &SuperIpSpec) -> Option<usize> {
    schedule_over_perms(&spec.block_perms(), spec.l, None).map(|s| s.len())
}

/// Theorem 4.3's `t_S`: the worst case over all required final block
/// arrangements (all elements of the block-permutation group).
pub fn t_s_value(spec: &SuperIpSpec) -> Option<usize> {
    let perms = spec.block_perms();
    let mut worst = 0usize;
    for g in &spec.block_group() {
        worst = worst.max(schedule_over_perms(&perms, spec.l, Some(g))?.len());
    }
    Some(worst)
}

/// The diameter predicted by Theorem 4.1 (plain seeds) or Theorem 4.3
/// (symmetric seeds): `l·D_G + t` resp. `l·D_G + t_S`.
pub fn predicted_diameter(spec: &SuperIpSpec) -> Result<u32> {
    let nucleus = spec.nucleus.generate()?;
    let d_g = algo::diameter(&nucleus.to_undirected_csr());
    let t = match spec.seed_kind {
        SeedKind::Repeated => t_value(spec),
        SeedKind::DistinctShifted => t_s_value(spec),
    }
    .ok_or_else(|| IpgError::InvalidSpec {
        reason: "some super-symbol can never reach the leftmost position".into(),
    })?;
    Ok(spec.l as u32 * d_g + t as u32)
}

/// Corollary 4.2's closed form for the Section-3 families (`t = l − 1`):
/// `diameter = (D_G + 1)·log_M N − 1 = (D_G + 1)·l − 1`.
pub fn corollary_4_2_diameter(l: usize, nucleus_diameter: u32) -> u32 {
    (nucleus_diameter + 1) * l as u32 - 1
}

/// Hierarchical router for a (symmetric) super-IP graph, over labels.
///
/// The label bridge over [`TupleRouter`]: [`SuperRouter::route`] encodes
/// both labels with the spec's [`NodeCodec`], routes the ids and decodes
/// every id of the path, realizing Theorem 4.1's (4.3's) bound.
pub struct SuperRouter {
    codec: NodeCodec,
    router: TupleRouter,
}

impl SuperRouter {
    /// Build a router for `spec`. Errors where [`NodeCodec::new`] rejects
    /// the spec, for example a symmetric seed over a nucleus with repeated
    /// symbols, a super-symbol that can never reach the leftmost position,
    /// or ids past the `u32` space.
    pub fn new(spec: &SuperIpSpec) -> Result<Self> {
        let codec = NodeCodec::new(spec)?;
        let router = TupleRouter::new(codec.network().clone())?;
        Ok(SuperRouter { codec, router })
    }

    /// Route from `src` to `dst`, returning the full label path (inclusive
    /// of both endpoints). The path length is at most `l·D_G + t`
    /// (`l·D_G + t_S` for symmetric graphs).
    pub fn route(&self, src: &Label, dst: &Label) -> Result<Vec<Label>> {
        let id = |label: &Label| {
            self.codec
                .encode(label.symbols())
                .ok_or_else(|| IpgError::UnknownLabel {
                    label: label.to_string(),
                })
        };
        let path = self.router.route(id(src)?, id(dst)?)?;
        Ok(path.into_iter().map(|v| self.codec.decode(v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superip::{NucleusSpec, SuperIpSpec};

    fn check_route_all_pairs(spec: &SuperIpSpec) {
        let ip = spec.to_ip_spec().generate().unwrap();
        let router = SuperRouter::new(spec).unwrap();
        let g = ip.to_undirected_csr();
        let bound = predicted_diameter(spec).unwrap() as usize;
        let mut worst = 0usize;
        for u in 0..ip.node_count() as u32 {
            let du = algo::bfs(&g, u);
            for v in 0..ip.node_count() as u32 {
                let path = router.route(ip.label(u), ip.label(v)).unwrap();
                // path is a real walk
                for w in path.windows(2) {
                    let a = ip.node_of(&w[0]).unwrap();
                    let b = ip.node_of(&w[1]).unwrap();
                    assert!(
                        ip.arcs_of(a).contains(&b),
                        "{}: {} -> {} is not an arc",
                        spec.name,
                        w[0],
                        w[1]
                    );
                }
                let len = path.len() - 1;
                assert!(len >= du[v as usize] as usize, "shorter than BFS?!");
                assert!(
                    len <= bound,
                    "{}: route {} -> {} took {len} > bound {bound}",
                    spec.name,
                    ip.label(u),
                    ip.label(v)
                );
                worst = worst.max(len);
            }
        }
        // Theorem 4.1/4.3: the bound is the exact diameter, and the
        // constructive algorithm attains it on the worst pair.
        assert_eq!(
            algo::diameter(&g) as usize,
            bound,
            "{}: BFS diameter vs predicted",
            spec.name
        );
    }

    #[test]
    fn t_is_l_minus_1_for_section3_families() {
        for l in 2..=5 {
            let nuc = NucleusSpec::hypercube(1);
            assert_eq!(t_value(&SuperIpSpec::hsn(l, nuc.clone())), Some(l - 1));
            assert_eq!(t_value(&SuperIpSpec::ring_cn(l, nuc.clone())), Some(l - 1));
            assert_eq!(
                t_value(&SuperIpSpec::complete_cn(l, nuc.clone())),
                Some(l - 1)
            );
            assert_eq!(
                t_value(&SuperIpSpec::superflip(l, nuc.clone())),
                Some(l - 1)
            );
        }
    }

    #[test]
    fn corollary_4_2_matches_theorem_4_1() {
        for l in 2..=4 {
            for spec in [
                SuperIpSpec::hsn(l, NucleusSpec::hypercube(2)),
                SuperIpSpec::ring_cn(l, NucleusSpec::hypercube(2)),
                SuperIpSpec::complete_cn(l, NucleusSpec::hypercube(2)),
                SuperIpSpec::superflip(l, NucleusSpec::hypercube(2)),
            ] {
                assert_eq!(
                    predicted_diameter(&spec).unwrap(),
                    corollary_4_2_diameter(l, 2),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn routed_paths_valid_hsn2_q2() {
        check_route_all_pairs(&SuperIpSpec::hsn(2, NucleusSpec::hypercube(2)));
    }

    #[test]
    fn routed_paths_valid_hsn3_q1() {
        check_route_all_pairs(&SuperIpSpec::hsn(3, NucleusSpec::hypercube(1)));
    }

    #[test]
    fn routed_paths_valid_ring_cn() {
        check_route_all_pairs(&SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)));
        check_route_all_pairs(&SuperIpSpec::ring_cn(4, NucleusSpec::hypercube(1)));
    }

    #[test]
    fn routed_paths_valid_superflip() {
        check_route_all_pairs(&SuperIpSpec::superflip(3, NucleusSpec::hypercube(1)));
    }

    #[test]
    fn routed_paths_valid_complete_cn() {
        check_route_all_pairs(&SuperIpSpec::complete_cn(3, NucleusSpec::hypercube(1)));
    }

    #[test]
    fn routed_paths_valid_star_nucleus() {
        check_route_all_pairs(&SuperIpSpec::hsn(2, NucleusSpec::star(3)));
    }

    #[test]
    fn symmetric_routing_respects_colors() {
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(1)).symmetric();
        check_route_all_pairs(&spec);
    }

    #[test]
    fn symmetric_ring_cn_routing() {
        let spec = SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)).symmetric();
        check_route_all_pairs(&spec);
    }

    #[test]
    fn symmetric_seed_needs_distinct_nucleus_symbols() {
        // §3.5 defines symmetric seeds over distinct-symbol nuclei only;
        // K3's seed repeats its blank, so there is no such network
        let spec = SuperIpSpec::hsn(2, NucleusSpec::complete(3)).symmetric();
        assert!(matches!(
            SuperRouter::new(&spec),
            Err(IpgError::InvalidSpec { .. })
        ));
    }
}
