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

    /// The label router this module's [`SuperRouter`] replaced, kept for
    /// one change as the oracle of `label_bridge_matches_reference`: it
    /// rewrites labels with the expanded generator permutations over the
    /// generated nucleus graph.
    mod reference {
        use crate::algo;
        use crate::builder::IpGraph;
        use crate::error::{IpgError, Result};
        use crate::label::Label;
        use crate::perm::Perm;
        use crate::superip::{SeedKind, SuperIpSpec};
        use crate::tuple_routing::schedule_over_perms;

        /// Hierarchical router for a (symmetric) super-IP graph.
        ///
        /// Precomputes the nucleus all-pairs distance table and the super-generator
        /// schedule(s); `SuperRouter::route` then produces an explicit label path
        /// realizing Theorem 4.1's bound.
        pub struct SuperRouter {
            spec: SuperIpSpec,
            nucleus: IpGraph,
            /// nucleus directed distances, row-major `dist[a·M + b]`.
            nucleus_dist: Vec<u16>,
            schedule: Vec<usize>,
            /// expanded full-label permutations: nucleus generators first, then
            /// super-generators (same order as `spec.to_ip_spec()`).
            full_perms: Vec<Perm>,
        }

        impl SuperRouter {
            /// Build a router for `spec`.
            pub fn new(spec: &SuperIpSpec) -> Result<Self> {
                let nucleus = spec.nucleus.generate()?;
                let g = nucleus.to_directed_csr();
                let m = g.node_count();
                let mut nucleus_dist = vec![u16::MAX; m * m];
                for a in 0..m as u32 {
                    for (b, d) in algo::bfs(&g, a).into_iter().enumerate() {
                        if d != algo::UNREACHABLE {
                            nucleus_dist[a as usize * m + b] = d as u16;
                        }
                    }
                }
                let schedule =
                    schedule_over_perms(&spec.block_perms(), spec.l, None).ok_or_else(|| {
                        IpgError::InvalidSpec {
                            reason: "some super-symbol can never reach the leftmost position"
                                .into(),
                        }
                    })?;
                let full_perms = spec
                    .to_ip_spec()
                    .generators
                    .into_iter()
                    .map(|g| g.perm)
                    .collect();
                Ok(SuperRouter {
                    spec: spec.clone(),
                    nucleus,
                    nucleus_dist,
                    schedule,
                    full_perms,
                })
            }

            /// Nucleus distance between two nucleus nodes.
            fn ndist(&self, a: u32, b: u32) -> u16 {
                self.nucleus_dist[a as usize * self.nucleus.node_count() + b as usize]
            }

            /// Identify the nucleus node and color of a block's content.
            fn block_id(&self, block: &[u8]) -> Result<(u32, usize)> {
                let m = self.spec.m();
                match self.spec.seed_kind {
                    SeedKind::Repeated => {
                        let lab = Label::from(block);
                        let id =
                            self.nucleus
                                .node_of(&lab)
                                .ok_or_else(|| IpgError::UnknownLabel {
                                    label: lab.to_string(),
                                })?;
                        Ok((id, 0))
                    }
                    SeedKind::DistinctShifted => {
                        let nucleus_min = self
                            .nucleus
                            .spec()
                            .seed
                            .symbols()
                            .iter()
                            .copied()
                            .min()
                            .unwrap_or(0) as usize;
                        let blk_min = block.iter().copied().min().unwrap_or(0) as usize;
                        let c = (blk_min - nucleus_min) / m;
                        let lab = Label::from(
                            block
                                .iter()
                                .map(|&s| s - (c * m) as u8)
                                .collect::<Vec<u8>>(),
                        );
                        let id =
                            self.nucleus
                                .node_of(&lab)
                                .ok_or_else(|| IpgError::UnknownLabel {
                                    label: lab.to_string(),
                                })?;
                        Ok((id, c))
                    }
                }
            }

            /// Sort the leftmost block of `cur` to match `target_block`, appending
            /// every intermediate label to `path`. Uses greedy descent on the
            /// nucleus distance table (≤ `D_G` steps). `scratch` must have the
            /// same length as `cur` (permutation output buffer, no allocation).
            fn sort_leftmost(
                &self,
                cur: &mut Vec<u8>,
                target_block: &[u8],
                path: &mut Vec<Label>,
                scratch: &mut Vec<u8>,
            ) -> Result<()> {
                let m = self.spec.m();
                let (mut a, _) = self.block_id(&cur[..m])?;
                let (b, _) = self.block_id(target_block)?;
                let n_nuc = self.spec.nucleus.spec.generators.len();
                while a != b {
                    let d = self.ndist(a, b);
                    if d == u16::MAX {
                        return Err(IpgError::InvalidSpec {
                            reason: "nucleus graph is not strongly connected".into(),
                        });
                    }
                    let mut advanced = false;
                    for gi in 0..n_nuc {
                        let succ = self.nucleus.arc(a, gi);
                        if self.ndist(succ, b) + 1 == d {
                            // apply the corresponding full-label generator
                            self.full_perms[gi].apply_into(cur, scratch);
                            std::mem::swap(cur, scratch);
                            path.push(Label::from(cur.as_slice()));
                            a = succ;
                            advanced = true;
                            break;
                        }
                    }
                    debug_assert!(advanced, "distance table inconsistent");
                    if !advanced {
                        return Err(IpgError::InvalidSpec {
                            reason: "nucleus routing failed to advance".into(),
                        });
                    }
                }
                Ok(())
            }

            /// Route from `src` to `dst`, returning the full label path (inclusive
            /// of both endpoints). The path length is at most `l·D_G + t`
            /// (`l·D_G + t_S` for symmetric graphs).
            pub fn route(&self, src: &Label, dst: &Label) -> Result<Vec<Label>> {
                let l = self.spec.l;
                let m = self.spec.m();
                if src.len() != l * m || dst.len() != l * m {
                    return Err(IpgError::UnknownLabel {
                        label: format!("bad label length for route: {src} -> {dst}"),
                    });
                }
                // Pick the schedule. For symmetric graphs the colors dictate the
                // required final arrangement.
                let schedule = match self.spec.seed_kind {
                    SeedKind::Repeated => self.schedule.clone(),
                    SeedKind::DistinctShifted => {
                        let mut src_colors = Vec::with_capacity(l);
                        let mut dst_colors = Vec::with_capacity(l);
                        for j in 0..l {
                            src_colors.push(self.block_id(src.block(j, m))?.1);
                            dst_colors.push(self.block_id(dst.block(j, m))?.1);
                        }
                        // target arrangement A: position j of the result holds the
                        // source block whose color is dst_colors[j].
                        let mut image = vec![0u16; l];
                        for (j, &c) in dst_colors.iter().enumerate() {
                            let i = src_colors
                                .iter()
                                .position(|&sc| sc == c)
                                .expect("colors are a permutation");
                            image[j] = i as u16;
                        }
                        let target = Perm::from_image(image).expect("bijection");
                        schedule_over_perms(&self.spec.block_perms(), l, Some(&target)).ok_or_else(
                            || IpgError::InvalidSpec {
                                reason: "required block arrangement unreachable".into(),
                            },
                        )?
                    }
                };

                // Final position d_i of the block initially at position i.
                let mut arrangement = Perm::identity(l);
                for &gi in &schedule {
                    arrangement = arrangement.then(&self.spec.supers[gi].block_perm(l));
                }
                let inv = arrangement.inverse();
                let final_pos: Vec<usize> = (0..l).map(|i| inv.image()[i] as usize).collect();

                let super_gen_offset = self.spec.nucleus.spec.generators.len();

                let mut cur = src.symbols().to_vec();
                let mut scratch = vec![0u8; cur.len()];
                let mut path = vec![src.clone()];
                // Sort the block currently leftmost (initial position 0).
                self.sort_leftmost(
                    &mut cur,
                    dst.block(final_pos[0], m),
                    &mut path,
                    &mut scratch,
                )?;

                let mut sorted = vec![false; l];
                sorted[0] = true;
                let mut arr = Perm::identity(l);
                for &gi in &schedule {
                    let bp = self.spec.supers[gi].block_perm(l);
                    arr = arr.then(&bp);
                    self.full_perms[super_gen_offset + gi].apply_into(&cur, &mut scratch);
                    let changed = scratch != cur;
                    std::mem::swap(&mut cur, &mut scratch);
                    if changed {
                        // label fixed points are no-ops, not link traversals
                        path.push(Label::from(cur.as_slice()));
                    }
                    let leftmost_origin = arr.image()[0] as usize;
                    if !sorted[leftmost_origin] {
                        sorted[leftmost_origin] = true;
                        self.sort_leftmost(
                            &mut cur,
                            dst.block(final_pos[leftmost_origin], m),
                            &mut path,
                            &mut scratch,
                        )?;
                    }
                }
                debug_assert_eq!(
                    cur,
                    dst.symbols(),
                    "routing must terminate at the destination"
                );
                if cur != dst.symbols() {
                    return Err(IpgError::InvalidSpec {
                        reason: format!("routing ended at {} not {dst}", Label::from(cur)),
                    });
                }
                Ok(path)
            }
        }
    }

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

    /// Every pair of every spec: the label bridge's path is as long as
    /// the reference router's, each hop is an arc of the directed IP
    /// graph, and no path exceeds Theorem 4.1's (4.3's) bound. All five
    /// families over Q1, Q2, K3 and C4 nuclei, plain and (Q1, Q2)
    /// symmetric, up to 256 nodes.
    #[test]
    fn label_bridge_matches_reference() {
        let families: [fn(usize, NucleusSpec) -> SuperIpSpec; 5] = [
            SuperIpSpec::hsn,
            SuperIpSpec::ring_cn,
            SuperIpSpec::complete_cn,
            SuperIpSpec::superflip,
            SuperIpSpec::directed_ring_cn,
        ];
        let mut specs = Vec::new();
        for family in families {
            for (l, nucleus) in [
                (3, NucleusSpec::hypercube(1)),
                (4, NucleusSpec::hypercube(1)),
                (2, NucleusSpec::hypercube(2)),
                (3, NucleusSpec::hypercube(2)),
                (2, NucleusSpec::complete(3)),
                (3, NucleusSpec::complete(3)),
                (2, NucleusSpec::ring(4)),
                (3, NucleusSpec::ring(4)),
            ] {
                specs.push(family(l, nucleus));
            }
            specs.push(family(3, NucleusSpec::hypercube(1)).symmetric());
            specs.push(family(2, NucleusSpec::hypercube(2)).symmetric());
        }
        specs.push(SuperIpSpec::hsn(4, NucleusSpec::hypercube(2)));
        specs.push(SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(2)).symmetric());
        for spec in &specs {
            let ip = spec.to_ip_spec().generate().unwrap();
            assert!(ip.node_count() <= 256, "{}", spec.name);
            let bridge = SuperRouter::new(spec).unwrap();
            let reference = reference::SuperRouter::new(spec).unwrap();
            let bound = predicted_diameter(spec).unwrap() as usize;
            for u in 0..ip.node_count() as u32 {
                for v in 0..ip.node_count() as u32 {
                    let (src, dst) = (ip.label(u), ip.label(v));
                    let path = bridge.route(src, dst).unwrap();
                    let want = reference.route(src, dst).unwrap().len();
                    assert_eq!(
                        path.len(),
                        want,
                        "{}: {src} -> {dst}: path {path:?}, reference length {}",
                        spec.name,
                        want - 1
                    );
                    assert_eq!((&path[0], &path[path.len() - 1]), (src, dst));
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
                    assert!(path.len() - 1 <= bound, "{}: {src} -> {dst}", spec.name);
                }
            }
        }
    }
}
