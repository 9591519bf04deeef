//! Arithmetic node addressing for super-IP graphs: label ↔ dense-id codec.
//!
//! Theorem 3.2 gives every super-IP graph a closed-form size (`M^l` for
//! repeated seeds, `|H|·M^l` for symmetric seeds), which means node
//! identity is *computable*, not something that must be discovered by
//! hashing: a node id is a mixed-radix number over per-block nucleus
//! ranks, plus a block-order rank for symmetric seeds. [`NodeCodec`]
//! implements that bijection both ways in `O(l·m)` with zero heap
//! allocation, and [`NodeCodec::build_directed_csr`] uses it to emit the
//! generated graph's CSR directly — no label vector, no hash interning.
//!
//! Codec ids *are* [`TupleNetwork`] ids (`id = order_idx·M^l + Σ_j
//! digit_j·M^j`, where `digit_j` is the nucleus node id of block `j`):
//! the codec wraps the spec's tuple network and keeps only the label
//! layer on top of it, so codec ids interoperate with
//! [`TupleRouter`](crate::tuple_routing::TupleRouter) and the tuple-level
//! metric machinery without translation.
//!
//! Labels of at most [`PACKED_MAX`] symbols additionally get a packed
//! representation: the whole label lives in one `u128` and every full
//! generator becomes a precomputed byte-shuffle table, so a neighbor is a
//! shuffle + re-rank with no `Vec<u8>` in sight ([`PackedLabel`]).

use crate::builder::IpGraph;
use crate::error::{IpgError, Result};
use crate::graph::Csr;
use crate::label::Label;
use crate::rank;
use crate::superip::{SeedKind, SuperIpSpec, TupleNetwork};
use crate::util::factorial;

/// Maximum label length for the packed (`u128`) representation.
pub const PACKED_MAX: usize = 16;

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

/// A whole node label packed into one `u128` (little-endian: byte `i` is
/// the symbol at position `i`). Only valid for labels of at most
/// [`PACKED_MAX`] symbols; unused high bytes are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PackedLabel(u128);

impl PackedLabel {
    /// Pack a symbol slice; `None` if it exceeds [`PACKED_MAX`] symbols.
    pub fn pack(symbols: &[u8]) -> Option<PackedLabel> {
        if symbols.len() > PACKED_MAX {
            return None;
        }
        let mut bytes = [0u8; PACKED_MAX];
        bytes[..symbols.len()].copy_from_slice(symbols);
        Some(PackedLabel(u128::from_le_bytes(bytes)))
    }

    /// Write the first `out.len()` symbols into `out`.
    pub fn unpack_into(self, out: &mut [u8]) {
        debug_assert!(out.len() <= PACKED_MAX);
        let bytes = self.0.to_le_bytes();
        out.copy_from_slice(&bytes[..out.len()]);
    }

    /// The symbol at position `i`.
    #[inline]
    pub fn get(self, i: usize) -> u8 {
        debug_assert!(i < PACKED_MAX);
        (self.0 >> (8 * i)) as u8
    }

    /// Apply a byte-shuffle table: output byte `i` is input byte
    /// `table[i]`. A position permutation in one-line image form is
    /// exactly such a table, so this *is* generator application.
    #[inline]
    pub fn shuffle(self, table: &[u8; PACKED_MAX]) -> PackedLabel {
        let src = self.0.to_le_bytes();
        let mut out = [0u8; PACKED_MAX];
        for (o, &p) in out.iter_mut().zip(table.iter()) {
            *o = src[p as usize];
        }
        PackedLabel(u128::from_le_bytes(out))
    }
}

/// Label ↔ dense-id codec for one super-IP spec (all four §3 families,
/// repeated and symmetric seeds).
///
/// The codec is the label layer over a [`TupleNetwork`]: its ids *are*
/// that network's ids, and every digit, order and generator step goes
/// through it. Construction enumerates the nucleus once (`M` nodes) and
/// precomputes the arrangement-rank → nucleus-id table, the flat nucleus
/// label and per-generator arc tables, the `S_l` rank → order-index
/// table (symmetric seeds), and — for labels of ≤ [`PACKED_MAX`]
/// symbols — one byte-shuffle table per full-label generator.
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
    /// Dense nucleus generator successors: `nucleus_arcs[id·d_n + gi]`.
    nucleus_arcs: Vec<u32>,
    d_n: usize,
    /// `S_l` permutation rank → order index ([`NONE`] outside `H`);
    /// empty for repeated seeds.
    sl_rank_to_order: Vec<u32>,
    /// Smallest symbol of the nucleus seed (color base, symmetric seeds).
    nucleus_min: u8,
    /// Byte-shuffle tables for the `d_n + supers` full-label generators,
    /// present when `k ≤ PACKED_MAX`.
    shuffles: Vec<[u8; PACKED_MAX]>,
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
        if !(1..=MAX_BLOCKS).contains(&l) {
            return Err(bad(format!(
                "codec supports 1..={MAX_BLOCKS} blocks, got {l}"
            )));
        }
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
        let nucleus = spec.nucleus.generate()?;
        let m_nodes = nucleus.node_count();
        let mut rank_to_id = vec![NONE; arrangements as usize];
        let mut nucleus_syms = Vec::with_capacity(m_nodes * m);
        for v in 0..m_nodes as u32 {
            let syms = nucleus.label(v).symbols();
            rank_to_id[rank::multiset_rank(syms) as usize] = v;
            nucleus_syms.extend_from_slice(syms);
        }
        let d_n = nucleus.generator_count();
        let mut nucleus_arcs = Vec::with_capacity(m_nodes * d_n);
        for v in 0..m_nodes as u32 {
            nucleus_arcs.extend_from_slice(nucleus.arcs_of(v));
        }

        let orders = match spec.seed_kind {
            SeedKind::Repeated => 1,
            SeedKind::DistinctShifted => {
                if !spec.nucleus.spec.seed.has_distinct_symbols() {
                    return Err(bad(
                        "symmetric seeds need a distinct-symbol nucleus seed (§3.5)".into(),
                    ));
                }
                let ranks = factorial(l);
                if ranks > MAX_ORDER_RANKS {
                    return Err(bad(format!("order rank table too large ({l}! = {ranks})")));
                }
                spec.block_group().len() as u64
            }
        };
        // `TupleNetwork::new` asserts this bound; checking it here makes an
        // oversized spec fall back instead of panicking.
        (0..l)
            .try_fold(orders, |n: u64, _| n.checked_mul(m_nodes as u64))
            .filter(|&n| n <= u32::MAX as u64 + 1)
            .ok_or_else(|| bad("id space exceeds u32".into()))?;
        if !spec.all_blocks_reach_leftmost() {
            return Err(bad(
                "some super-symbol can never reach the leftmost position".into(),
            ));
        }
        let tn = TupleNetwork::new(
            spec.name.clone(),
            nucleus.to_undirected_csr(),
            l,
            spec.block_perms(),
            spec.seed_kind,
        );
        let mut sl_rank_to_order = Vec::new();
        if spec.seed_kind == SeedKind::DistinctShifted {
            sl_rank_to_order = vec![NONE; factorial(l) as usize];
            for oi in 0..tn.order_count() as u32 {
                sl_rank_to_order[rank::perm_rank(tn.order_perm(oi).image()) as usize] = oi;
            }
        }

        // Packed-label shuffle tables (identity-padded to PACKED_MAX).
        let k = l * m;
        let shuffles = if k <= PACKED_MAX {
            spec.to_ip_spec()
                .generators
                .iter()
                .map(|g| {
                    let mut t = [0u8; PACKED_MAX];
                    for (i, slot) in t.iter_mut().enumerate() {
                        *slot = g.perm.image().get(i).map_or(i as u8, |&p| p as u8);
                    }
                    t
                })
                .collect()
        } else {
            Vec::new()
        };

        Ok(NodeCodec {
            tn,
            m,
            k,
            seed_kind: spec.seed_kind,
            rank_to_id,
            nucleus_syms,
            nucleus_arcs,
            d_n,
            sl_rank_to_order,
            nucleus_min: nucleus_seed.iter().copied().min().unwrap_or(0),
            shuffles,
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

    /// Number of generators (`d_N` nucleus + super), i.e. out-arcs per node.
    pub fn generator_count(&self) -> usize {
        self.d_n + self.tn.block_perms.len()
    }

    /// True when labels fit the packed `u128` representation.
    pub fn supports_packed(&self) -> bool {
        !self.shuffles.is_empty()
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
        let mut buf = [0u8; 256];
        let shifted = &mut buf[..self.m];
        for (o, &s) in shifted.iter_mut().zip(block.iter()) {
            *o = s.checked_sub(shift)?;
        }
        // The multiset must match the nucleus seed's, otherwise the rank
        // below is an index into a different arrangement family.
        let mut counts = [0u32; 256];
        for &s in shifted.iter() {
            counts[s as usize] += 1;
        }
        for &s in shifted.iter() {
            let mut want = 0u32;
            for &t in &self.nucleus_syms[..self.m] {
                want += (t == s) as u32;
            }
            if counts[s as usize] != want {
                return None;
            }
        }
        let r = rank::multiset_rank(shifted) as usize;
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

    /// [`NodeCodec::encode`] over a packed label.
    pub fn encode_packed(&self, packed: PackedLabel) -> Option<u32> {
        debug_assert!(self.supports_packed());
        let mut buf = [0u8; PACKED_MAX];
        packed.unpack_into(&mut buf[..self.k]);
        self.encode(&buf[..self.k])
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

    /// Packed label of node `id` (requires [`NodeCodec::supports_packed`]).
    pub fn decode_packed(&self, id: u32) -> PackedLabel {
        let mut buf = [0u8; PACKED_MAX];
        self.decode_into(id, &mut buf[..self.k]);
        // ipg-analyze: allow(PANIC001) reason="supports_packed precondition: k <= PACKED_MAX"
        PackedLabel::pack(&buf[..self.k]).expect("k <= PACKED_MAX")
    }

    /// Apply full-label generator `gi` (nucleus generators first, then
    /// supers — the [`SuperIpSpec::to_ip_spec`] order) to a packed label:
    /// one byte shuffle, no allocation.
    #[inline]
    pub fn apply_packed(&self, packed: PackedLabel, gi: usize) -> PackedLabel {
        packed.shuffle(&self.shuffles[gi])
    }

    /// All `d_N + supers` generator successors of `id`, in generator
    /// order, self-arcs included — the arithmetic equivalent of
    /// [`IpGraph::arcs_of`]. Pure tuple arithmetic: nucleus moves replace
    /// digit 0 via the nucleus arc table, super moves are
    /// [`TupleNetwork::apply_gen`] over the block perms.
    pub fn arcs_into(&self, id: u32, out: &mut Vec<u32>) {
        let mut digits = [0u32; MAX_BLOCKS];
        let mut image = [0u32; MAX_BLOCKS];
        let (digits, image) = (&mut digits[..self.tn.l], &mut image[..self.tn.l]);
        let order = self.tn.decode_into(id, digits);
        // nucleus generators: digit 0 has weight M^0 = 1
        let base = id - digits[0];
        let arcs = &self.nucleus_arcs[digits[0] as usize * self.d_n..][..self.d_n];
        out.extend(arcs.iter().map(|&nb| base + nb));
        for gi in 0..self.tn.block_perms.len() {
            let next = self.tn.apply_gen(order, digits, gi, image);
            out.push(self.tn.encode(next, image));
        }
    }

    /// Generator successor of `id` computed the packed way — shuffle the
    /// label, re-rank. Slower than [`NodeCodec::arcs_into`] (which never
    /// touches symbols) but exercises the label-level path; used for
    /// cross-checking and for callers that already hold packed labels.
    pub fn packed_neighbor(&self, id: u32, gi: usize) -> u32 {
        let next = self.apply_packed(self.decode_packed(id), gi);
        self.encode_packed(next)
            // ipg-analyze: allow(PANIC001) reason="Cayley closure: a generator image of a node is a node"
            .expect("generator image of a node is a node")
    }

    /// Emit the directed simple CSR of the whole graph (self-arcs
    /// dropped, parallel arcs deduplicated — same view as
    /// [`IpGraph::to_directed_csr`]) in codec-id numbering, without ever
    /// materializing a label or touching a hash map. Rows are computed
    /// per id, so parallel chunking by id range is deterministic for any
    /// `IPG_THREADS` value.
    pub fn build_directed_csr(&self) -> Csr {
        Csr::from_fn_par(self.node_count(), |id, out| self.arcs_into(id, out))
    }

    /// Codec id of every node of a hash-interned [`IpGraph`], indexed by
    /// BFS node id — the bridge used to cross-check the two builders
    /// (`ip.to_directed_csr().relabeled(&map) == codec.build_directed_csr()`).
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
    use crate::superip::{explicit_isomorphism, NucleusSpec, TupleNetwork};

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
        for spec in specs() {
            let codec = NodeCodec::new(&spec).unwrap();
            let ip = spec.to_ip_spec().generate().unwrap();
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let iso = explicit_isomorphism(&spec, &ip, &tn).unwrap();
            for v in 0..ip.node_count() as u32 {
                assert_eq!(
                    codec.encode(ip.label(v).symbols()),
                    Some(iso[v as usize]),
                    "{}: node {v}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn csr_identical_to_interned_builder() {
        for spec in specs() {
            let codec = NodeCodec::new(&spec).unwrap();
            let ip = spec.to_ip_spec().generate().unwrap();
            let map = codec.renumbering(&ip).unwrap();
            assert_eq!(
                ip.to_directed_csr().relabeled(&map),
                codec.build_directed_csr(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn packed_neighbors_agree_with_arithmetic() {
        for spec in specs() {
            let codec = NodeCodec::new(&spec).unwrap();
            if !codec.supports_packed() {
                continue;
            }
            let mut arcs = Vec::new();
            for id in 0..codec.node_count() as u32 {
                arcs.clear();
                codec.arcs_into(id, &mut arcs);
                for (gi, &w) in arcs.iter().enumerate() {
                    assert_eq!(
                        codec.packed_neighbor(id, gi),
                        w,
                        "{}: id {id} gen {gi}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn packed_shuffle_matches_perm_apply() {
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(2));
        let codec = NodeCodec::new(&spec).unwrap();
        let gens = spec.to_ip_spec().generators;
        let label = Label::parse("3434 4343").unwrap();
        let packed = PackedLabel::pack(label.symbols()).unwrap();
        for (gi, g) in gens.iter().enumerate() {
            let want = g.perm.apply(label.symbols());
            let got = codec.apply_packed(packed, gi);
            let mut out = vec![0u8; label.len()];
            got.unpack_into(&mut out);
            assert_eq!(out, want, "generator {gi}");
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
        // 4^17 = 2^34 ids: an error here, not the tuple network's panic
        let spec = SuperIpSpec::hsn(17, NucleusSpec::hypercube(2));
        assert!(NodeCodec::new(&spec).is_err());
    }
}
