//! Arithmetic node addressing for super-IP graphs: label ↔ dense-id codec.
//!
//! Theorem 3.2 gives every super-IP graph a closed-form size (`M^l` for
//! repeated seeds, `|H|·M^l` for symmetric seeds), which means node
//! identity is *computable*, not something that must be discovered by
//! hashing: a node id is a mixed-radix number over per-block nucleus
//! ranks, plus a block-order rank for symmetric seeds. [`NodeCodec`]
//! implements that bijection both ways in `O(l·m)` with zero heap
//! allocation.
//!
//! Codec ids *are* [`TupleNetwork`] ids (`id = order_idx·M^l + Σ_j
//! digit_j·M^j`, where `digit_j` is the nucleus node id of block `j`):
//! the codec wraps the spec's tuple network and keeps only the label
//! layer on top of it, so codec ids interoperate with
//! [`TupleRouter`](crate::tuple_routing::TupleRouter) and the tuple-level
//! metric machinery without translation. It is the one label bridge:
//! graph rows come from [`TupleNetwork::neighbors_into`], and
//! [`NodeCodec::renumbering`] maps a hash-interned graph onto the same ids.

use crate::builder::IpGraph;
use crate::error::{IpgError, Result};
use crate::label::Label;
use crate::rank;
use crate::superip::{SeedKind, SuperIpSpec, TupleNetwork};

/// Maximum number of blocks `l` the codec supports (the tuple network's
/// stack buffers; real super-IP specs are far smaller).
pub use crate::superip::MAX_BLOCKS;

/// Sentinel for "arrangement rank is not a nucleus node".
const NONE: u32 = u32::MAX;

/// Largest nucleus arrangement table the codec will materialize
/// (`(Σc)!/Πcᵢ!` entries). Specs beyond this fall back to hash interning.
const MAX_ARRANGEMENTS: u64 = 1 << 22;

/// Largest `l!` color table for symmetric seeds.
const MAX_ORDER_RANKS: u64 = 1 << 20;

/// Label ↔ dense-id codec for one super-IP spec (all four §3 families,
/// repeated and symmetric seeds).
///
/// The codec is the label layer over a [`TupleNetwork`]: its ids *are*
/// that network's ids, and every digit and order goes through it.
/// Construction enumerates the nucleus once (`M` nodes) and precomputes
/// the arrangement-rank → nucleus-id table, the flat nucleus label and
/// the `S_l` rank → order-index table (symmetric seeds).
pub struct NodeCodec {
    tn: TupleNetwork,
    m: usize,
    k: usize,
    seed_kind: SeedKind,
    /// Multiset-arrangement rank → nucleus node id ([`NONE`] if the
    /// arrangement is not in the nucleus orbit).
    rank_to_id: Vec<u32>,
    /// Flat nucleus labels: `nucleus_syms[id·m..(id+1)·m]`.
    nucleus_syms: Vec<u8>,
    /// The nucleus seed's multiset as ascending `(symbol, count)` runs:
    /// what every block must hold after its color shift.
    nucleus_runs: Vec<(u8, u32)>,
    /// `S_l` permutation rank → order index ([`NONE`] outside `H`);
    /// empty for repeated seeds.
    sl_rank_to_order: Vec<u32>,
    /// Smallest symbol of the nucleus seed (color base, symmetric seeds).
    nucleus_min: u8,
}

impl NodeCodec {
    /// Build a codec for `spec`. Errors when the spec is outside the
    /// arithmetic fast path (oversized arrangement/order tables, id space
    /// beyond `u32`, or an unreachable block) — callers should then fall
    /// back to hash-interned generation.
    pub fn new(spec: &SuperIpSpec) -> Result<NodeCodec> {
        let l = spec.l;
        let m = spec.m();
        let bad = |reason: String| IpgError::InvalidSpec { reason };
        // Cap the arrangement table *before* generating the nucleus: the
        // nucleus node count is bounded by the arrangement count, so this
        // also bounds generation cost.
        let nucleus_seed = spec.nucleus.spec.seed.symbols();
        let mut counts = [0u32; 256];
        for &s in nucleus_seed {
            counts[s as usize] += 1;
        }
        let arrangements = rank::multiset_count(&counts);
        if arrangements > MAX_ARRANGEMENTS {
            return Err(bad(format!(
                "nucleus arrangement table too large ({arrangements})"
            )));
        }
        let order_ranks = match spec.seed_kind {
            SeedKind::Repeated => 0,
            SeedKind::DistinctShifted => {
                if !spec.nucleus.spec.seed.has_distinct_symbols() {
                    return Err(bad(
                        "symmetric seeds need a distinct-symbol nucleus seed (§3.5)".into(),
                    ));
                }
                (1..=l as u64)
                    .try_fold(1u64, |n, i| n.checked_mul(i))
                    .filter(|&ranks| ranks <= MAX_ORDER_RANKS)
                    .ok_or_else(|| bad(format!("order rank table too large ({l}!)")))?
            }
        };
        let nucleus = spec.nucleus.generate()?;
        let tn = TupleNetwork::from_nucleus(spec, &nucleus)?;
        if !spec.all_blocks_reach_leftmost() {
            return Err(bad(
                "some super-symbol can never reach the leftmost position".into(),
            ));
        }
        let mut rank_to_id = vec![NONE; arrangements as usize];
        let mut nucleus_syms = Vec::with_capacity(nucleus.node_count() * m);
        for v in 0..nucleus.node_count() as u32 {
            let syms = nucleus.label(v).symbols();
            rank_to_id[rank::multiset_rank(syms) as usize] = v;
            nucleus_syms.extend_from_slice(syms);
        }
        let mut sl_rank_to_order = vec![NONE; order_ranks as usize];
        if spec.seed_kind == SeedKind::DistinctShifted {
            for oi in 0..tn.order_count() as u32 {
                sl_rank_to_order[rank::perm_rank(tn.order_perm(oi).image()) as usize] = oi;
            }
        }
        Ok(NodeCodec {
            tn,
            m,
            k: l * m,
            seed_kind: spec.seed_kind,
            rank_to_id,
            nucleus_syms,
            nucleus_runs: (0..=u8::MAX)
                .filter(|&s| counts[s as usize] > 0)
                .map(|s| (s, counts[s as usize]))
                .collect(),
            sl_rank_to_order,
            nucleus_min: nucleus_seed.iter().copied().min().unwrap_or(0),
        })
    }

    /// The tuple network whose ids this codec labels.
    pub fn network(&self) -> &TupleNetwork {
        &self.tn
    }

    /// Total node count `|H|·M^l` (Theorem 3.2 / §3.5).
    pub fn node_count(&self) -> usize {
        self.tn.node_count()
    }

    /// Label length `l·m`.
    pub fn label_len(&self) -> usize {
        self.k
    }

    /// Nucleus node id and color of one block, or `None` if the block is
    /// not (a shifted copy of) a nucleus-orbit label.
    fn block_digit(&self, block: &[u8]) -> Option<(u32, u8)> {
        let (shift, color) = match self.seed_kind {
            SeedKind::Repeated => (0u8, 0u8),
            SeedKind::DistinctShifted => {
                let blk_min = block.iter().copied().min()?;
                let c = (blk_min.checked_sub(self.nucleus_min)? as usize) / self.m;
                if c >= self.tn.l {
                    return None;
                }
                ((c * self.m) as u8, c as u8)
            }
        };
        // The multiset must match the nucleus seed's shifted by the
        // color, otherwise the rank below is an index into a different
        // arrangement family. The runs' counts sum to `m`, the block
        // length, so matching every run leaves room for no other symbol.
        for &(s, want) in &self.nucleus_runs {
            let at = u16::from(s) + u16::from(shift);
            if block.iter().filter(|&&b| u16::from(b) == at).count() != want as usize {
                return None;
            }
        }
        // An arrangement's rank depends only on the order of its
        // symbols, which the color shift keeps: rank the block as is.
        let r = rank::multiset_rank(block) as usize;
        match self.rank_to_id.get(r) {
            Some(&id) if id != NONE => Some((id, color)),
            _ => None,
        }
    }

    /// Dense id of the node labelled `symbols`, or `None` if the label is
    /// not a node of this super-IP graph. `O(l·m)`-ish, allocation-free.
    pub fn encode(&self, symbols: &[u8]) -> Option<u32> {
        let l = self.tn.l;
        if symbols.len() != self.k {
            return None;
        }
        let mut digits = [0u32; MAX_BLOCKS];
        let mut colors = [0u8; MAX_BLOCKS];
        for j in 0..l {
            (digits[j], colors[j]) = self.block_digit(&symbols[j * self.m..(j + 1) * self.m])?;
        }
        let order_idx = match self.seed_kind {
            SeedKind::Repeated => 0,
            SeedKind::DistinctShifted => {
                // colors must form a permutation of 0..l inside H
                let mut seen = 0u32;
                for &c in &colors[..l] {
                    let bit = 1u32 << c;
                    if seen & bit != 0 {
                        return None;
                    }
                    seen |= bit;
                }
                let r = rank::perm_rank(&colors[..l]) as usize;
                match self.sl_rank_to_order.get(r) {
                    Some(&oi) if oi != NONE => oi,
                    _ => return None,
                }
            }
        };
        Some(self.tn.encode(order_idx, &digits[..l]))
    }

    /// Write the label of node `id` into `out` (length must be `l·m`).
    /// Inverse of [`NodeCodec::encode`]; allocation-free.
    pub fn decode_into(&self, id: u32, out: &mut [u8]) {
        debug_assert!((id as usize) < self.node_count());
        debug_assert_eq!(out.len(), self.k);
        let mut digits = [0u32; MAX_BLOCKS];
        let digits = &mut digits[..self.tn.l];
        let sigma = self.tn.order_perm(self.tn.decode_into(id, digits)).image();
        for (j, &digit) in digits.iter().enumerate() {
            let shift = match self.seed_kind {
                SeedKind::Repeated => 0u8,
                SeedKind::DistinctShifted => (sigma[j] as usize * self.m) as u8,
            };
            let src = &self.nucleus_syms[digit as usize * self.m..][..self.m];
            for (o, &s) in out[j * self.m..(j + 1) * self.m].iter_mut().zip(src) {
                *o = s + shift;
            }
        }
    }

    /// The label of node `id` (allocating convenience wrapper).
    pub fn decode(&self, id: u32) -> Label {
        let mut out = vec![0u8; self.k];
        self.decode_into(id, &mut out);
        Label::from(out)
    }

    /// Codec id of every node of a hash-interned [`IpGraph`], indexed by
    /// BFS node id — the bridge between the two builders
    /// (`ip.to_undirected_csr().relabeled(&map) == codec.network().build()`).
    pub fn renumbering(&self, ip: &IpGraph) -> Result<Vec<u32>> {
        if ip.node_count() != self.node_count() {
            return Err(IpgError::InvalidSpec {
                reason: format!(
                    "node counts differ: interned={} codec={}",
                    ip.node_count(),
                    self.node_count()
                ),
            });
        }
        (0..ip.node_count() as u32)
            .map(|v| {
                self.encode(ip.label(v).symbols())
                    .ok_or_else(|| IpgError::UnknownLabel {
                        label: ip.label(v).to_string(),
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superip::{NucleusSpec, TupleNetwork};

    fn specs() -> Vec<SuperIpSpec> {
        vec![
            SuperIpSpec::hsn(2, NucleusSpec::hypercube(2)),
            SuperIpSpec::hsn(3, NucleusSpec::hypercube(1)),
            SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)),
            SuperIpSpec::complete_cn(4, NucleusSpec::hypercube(1)),
            SuperIpSpec::superflip(3, NucleusSpec::hypercube(1)),
            SuperIpSpec::hsn(2, NucleusSpec::complete(4)),
            SuperIpSpec::ring_cn(2, NucleusSpec::ring(4)),
            SuperIpSpec::hsn(2, NucleusSpec::hypercube(1)).symmetric(),
            SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)).symmetric(),
            SuperIpSpec::superflip(3, NucleusSpec::hypercube(1)).symmetric(),
        ]
    }

    #[test]
    fn roundtrip_all_ids() {
        for spec in specs() {
            let codec = NodeCodec::new(&spec).unwrap();
            assert_eq!(
                codec.node_count() as u64,
                spec.expected_size().unwrap(),
                "{}",
                spec.name
            );
            let mut buf = vec![0u8; codec.label_len()];
            for id in 0..codec.node_count() as u32 {
                codec.decode_into(id, &mut buf);
                assert_eq!(codec.encode(&buf), Some(id), "{}: id {id}", spec.name);
            }
        }
    }

    #[test]
    fn ids_match_tuple_network() {
        // renumbering the interned graph through the codec gives the tuple
        // network's one-pass build exactly
        for spec in specs() {
            let codec = NodeCodec::new(&spec).unwrap();
            let ip = spec.to_ip_spec().generate().unwrap();
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let map = codec.renumbering(&ip).unwrap();
            assert_eq!(
                ip.to_undirected_csr().relabeled(&map),
                tn.build(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn foreign_labels_rejected() {
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(2));
        let codec = NodeCodec::new(&spec).unwrap();
        // wrong length
        assert_eq!(codec.encode(&[1, 2, 3]), None);
        // right multiset per block, but `1324` is outside the Q2 orbit
        // (only pair swaps (1,2) and (3,4) are generators)
        assert_eq!(
            codec.encode(Label::parse("1324 1234").unwrap().symbols()),
            None
        );
        // wrong multiset per block
        assert_eq!(
            codec.encode(Label::parse("3344 3344").unwrap().symbols()),
            None
        );
        // wrong alphabet entirely
        assert_eq!(codec.encode(&[9u8; 8]), None);
    }

    #[test]
    fn symmetric_foreign_colors_rejected() {
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(1)).symmetric();
        let codec = NodeCodec::new(&spec).unwrap();
        // duplicate colors: both blocks from color-0 range
        assert_eq!(codec.encode(&[1, 2, 1, 2]), None);
        assert_eq!(codec.node_count(), 8); // 2!·2²
    }

    #[test]
    fn oversized_specs_error_cleanly() {
        // star-9 nucleus: 9! = 362880 arrangements is fine, but star-11
        // would need an 11!-entry table — over the cap.
        let spec = SuperIpSpec::hsn(2, NucleusSpec::star(11));
        assert!(NodeCodec::new(&spec).is_err());
        // 16^9, 4^17 = 2^34 and 2^33 ids (the last also past MAX_BLOCKS):
        // errors from both the codec and the tuple network, not the
        // tuple network's panic
        for spec in [
            SuperIpSpec::hsn(9, NucleusSpec::hypercube(4)),
            SuperIpSpec::hsn(17, NucleusSpec::hypercube(2)),
            SuperIpSpec::hsn(33, NucleusSpec::hypercube(1)),
        ] {
            assert!(NodeCodec::new(&spec).is_err(), "{}", spec.name);
            assert!(TupleNetwork::from_spec(&spec).is_err(), "{}", spec.name);
        }
    }
}
