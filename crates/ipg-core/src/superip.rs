//! Super-IP graphs (paper §3): IP graphs whose seed consists of `l` groups
//! (*super-symbols*) of `m` symbols, with *nucleus generators* permuting the
//! symbols of the leftmost group and *super-generators* permuting whole
//! groups.
//!
//! Two equivalent constructions are provided:
//!
//! 1. [`SuperIpSpec::to_ip_spec`] expands the spec into a plain
//!    [`IpGraphSpec`] and generates the graph label-by-label, exactly as the
//!    paper's ball-arrangement game does.
//! 2. [`TupleNetwork`] builds the same graph directly on tuples
//!    `(g_1, …, g_l) ∈ V(G)^l` (plus a block-order component for symmetric
//!    variants): nucleus edges act on coordinate 1, super-generators permute
//!    coordinates. This is *O(N·deg)* with no hashing and works for any
//!    nucleus graph — even ones that are awkward to express with generators
//!    (e.g. the Petersen graph).
//!
//! [`explicit_isomorphism`] maps construction 1 onto construction 2
//! node-by-node through the label codec ([`NodeCodec::renumbering`]) and
//! checks that the renumbered graph *is* the tuple network's, giving a
//! machine-checked proof (used heavily in tests) that they agree.

use crate::builder::IpGraph;
use crate::codec::NodeCodec;
use crate::error::{IpgError, Result};
use crate::graph::Csr;
use crate::label::Label;
use crate::perm::Perm;
use crate::spec::{Generator, IpGraphSpec};
use crate::util::FxHashMap;
use serde::{Deserialize, Serialize};

/// The nucleus of a super-IP graph: a small IP graph on `m` symbols.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NucleusSpec {
    /// The underlying IP-graph spec (seed length = `m`).
    pub spec: IpGraphSpec,
}

impl NucleusSpec {
    /// Wrap an arbitrary IP-graph spec as a nucleus.
    pub fn new(spec: IpGraphSpec) -> Self {
        NucleusSpec { spec }
    }

    /// Number of symbols `m` per super-symbol.
    pub fn m(&self) -> usize {
        self.spec.seed.len()
    }

    /// The hypercube `Q_n` as an IP graph: `2n` symbols in `n` pairs; the
    /// order within pair `i` encodes bit `i`; generators are the pair
    /// transpositions `(2i−1, 2i)` (paper §2, HCN construction).
    pub fn hypercube(n: usize) -> Self {
        let m = 2 * n;
        let gens = (0..n)
            .map(|i| {
                Generator::new(
                    format!("({},{})", 2 * i + 1, 2 * i + 2),
                    Perm::transposition(m, 2 * i, 2 * i + 1),
                )
            })
            .collect();
        NucleusSpec {
            spec: IpGraphSpec {
                name: format!("Q{n}"),
                seed: Label::distinct(m),
                generators: gens,
            },
        }
    }

    /// The folded hypercube `FQ_n`: `Q_n` plus the complement generator that
    /// swaps *every* pair simultaneously (flipping all `n` bits at once).
    pub fn folded_hypercube(n: usize) -> Self {
        let m = 2 * n;
        let mut nucleus = NucleusSpec::hypercube(n);
        let cycles: Vec<Vec<usize>> = (0..n).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let refs: Vec<&[usize]> = cycles.iter().map(|c| c.as_slice()).collect();
        // ipg-analyze: allow(PANIC001) reason="cycles (2i, 2i+1) are disjoint by construction"
        let comp = Perm::from_cycles(m, &refs).expect("disjoint pair swaps");
        nucleus.spec.generators.push(Generator::new("C", comp));
        nucleus.spec.name = format!("FQ{n}");
        nucleus
    }

    /// The complete graph `K_r` as an IP graph: one marker symbol among
    /// `r − 1` blanks; all transpositions moving the marker. The marker
    /// position is the node identity.
    pub fn complete(r: usize) -> Self {
        assert!(r >= 2);
        let mut seed = vec![0u8; r];
        seed[0] = 1;
        let gens = (0..r)
            .flat_map(|i| (i + 1..r).map(move |j| (i, j)))
            .map(|(i, j)| {
                Generator::new(
                    format!("({},{})", i + 1, j + 1),
                    Perm::transposition(r, i, j),
                )
            })
            .collect();
        NucleusSpec {
            spec: IpGraphSpec {
                name: format!("K{r}"),
                seed: Label::from(seed),
                generators: gens,
            },
        }
    }

    /// The star graph `S_n` as a nucleus (a Cayley graph, distinct symbols).
    pub fn star(n: usize) -> Self {
        NucleusSpec {
            spec: IpGraphSpec::star(n),
        }
    }

    /// The generalized hypercube of Bhuyan & Agrawal \[7\] as an IP graph:
    /// one symbol group of `r` slots per dimension, a marker's slot
    /// encoding the digit; generators are all in-group transpositions
    /// (transpositions not moving a marker are self-loops and vanish in
    /// the simple graph). §4 recommends GH nuclei for diameter-optimal
    /// super-IP graphs (Theorem 4.4).
    pub fn generalized_hypercube(radices: &[usize]) -> Self {
        assert!(!radices.is_empty());
        let m: usize = radices.iter().sum();
        let mut seed = vec![0u8; m];
        let mut gens = Vec::new();
        let mut base = 0usize;
        for (d, &r) in radices.iter().enumerate() {
            assert!(r >= 2);
            seed[base] = (d + 1) as u8; // distinct marker per dimension
            for i in 0..r {
                for j in i + 1..r {
                    gens.push(Generator::new(
                        format!("d{d}({},{})", i + 1, j + 1),
                        Perm::transposition(m, base + i, base + j),
                    ));
                }
            }
            base += r;
        }
        let name = format!(
            "GH({})",
            radices
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("x")
        );
        NucleusSpec {
            spec: IpGraphSpec {
                name,
                seed: Label::from(seed),
                generators: gens,
            },
        }
    }

    /// A ring `C_r` as an IP graph: one marker among blanks, rotated left or
    /// right by one position.
    pub fn ring(r: usize) -> Self {
        assert!(r >= 3);
        let mut seed = vec![0u8; r];
        seed[0] = 1;
        NucleusSpec {
            spec: IpGraphSpec {
                name: format!("C{r}"),
                seed: Label::from(seed),
                generators: vec![
                    Generator::new("L", Perm::cyclic_left(r, 1)),
                    Generator::new("R", Perm::cyclic_right(r, 1)),
                ],
            },
        }
    }

    /// Generate the nucleus graph.
    pub fn generate(&self) -> Result<IpGraph> {
        self.spec.generate()
    }
}

/// A super-generator kind (paper §3.2–3.4). All act on super-symbol (block)
/// indices; `0` is the leftmost block.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuperGen {
    /// `T_{i+1,m}` — swap block 0 with block `i` (§3.2, gives HSNs).
    Transpose(usize),
    /// `L_{s,m}` — cyclic left shift of the blocks by `s` (§3.3).
    CyclicL(usize),
    /// `R_{s,m}` — cyclic right shift of the blocks by `s` (§3.3).
    CyclicR(usize),
    /// `F_{i,m}` — reverse the order of the first `i` blocks (§3.4).
    Flip(usize),
    /// Any other block permutation.
    Custom(Perm),
}

impl SuperGen {
    /// The block-level permutation (over `l` block positions).
    pub fn block_perm(&self, l: usize) -> Perm {
        match self {
            SuperGen::Transpose(i) => Perm::transposition(l, 0, *i),
            SuperGen::CyclicL(s) => Perm::cyclic_left(l, *s),
            SuperGen::CyclicR(s) => Perm::cyclic_right(l, *s),
            SuperGen::Flip(i) => Perm::flip_prefix(l, *i),
            SuperGen::Custom(p) => {
                assert_eq!(p.len(), l, "custom block perm length mismatch");
                p.clone()
            }
        }
    }

    /// Paper-style display name.
    pub fn name(&self) -> String {
        match self {
            SuperGen::Transpose(i) => format!("T{}", i + 1),
            SuperGen::CyclicL(s) => format!("L{s}"),
            SuperGen::CyclicR(s) => format!("R{s}"),
            SuperGen::Flip(i) => format!("F{i}"),
            SuperGen::Custom(p) => format!("B{p}"),
        }
    }

    /// Expand to a position permutation over `l·m` label positions: block
    /// `j` of the result is block `blockperm[j]` of the input, symbols
    /// untouched (§3.1: super-generators do not reorder symbols within
    /// groups).
    pub fn position_perm(&self, l: usize, m: usize) -> Perm {
        let bp = self.block_perm(l);
        let mut image = Vec::with_capacity(l * m);
        for j in 0..l {
            let src = bp.image()[j] as usize;
            for r in 0..m {
                image.push((src * m + r) as u16);
            }
        }
        // ipg-analyze: allow(PANIC001) reason="block image enumerates each src*m+r exactly once"
        Perm::from_image(image).expect("block perm expands to valid perm")
    }
}

/// Super-generator set of an HSN: transpositions `T_2 … T_l`.
pub fn hsn_supers(l: usize) -> Vec<SuperGen> {
    (1..l).map(SuperGen::Transpose).collect()
}

/// Super-generator set of a ring-CN: `L_1`, and `R_1` when `l ≥ 3` (the
/// two are the same block perm when `l = 2`).
pub fn ring_cn_supers(l: usize) -> Vec<SuperGen> {
    if l == 2 {
        vec![SuperGen::CyclicL(1)]
    } else {
        vec![SuperGen::CyclicL(1), SuperGen::CyclicR(1)]
    }
}

/// Super-generator set of a complete-CN: `L_1 … L_{l−1}`.
pub fn complete_cn_supers(l: usize) -> Vec<SuperGen> {
    (1..l).map(SuperGen::CyclicL).collect()
}

/// Super-generator set of a super-flip network: `F_2 … F_l`.
pub fn superflip_supers(l: usize) -> Vec<SuperGen> {
    (2..=l).map(SuperGen::Flip).collect()
}

/// Seed style for a super-IP graph (paper §3.1 vs §3.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedKind {
    /// `S₁ S₁ … S₁` — `l` identical copies of the nucleus seed. The graph
    /// has `M^l` nodes (Theorem 3.2).
    Repeated,
    /// `S₁ S₂ … S_l` with `S_i` = nucleus seed shifted into its own symbol
    /// range — all symbols distinct, so the graph is a Cayley graph
    /// (vertex-symmetric and regular, §3.5). The graph has `|H|·M^l` nodes
    /// where `H` is the group generated by the block permutations
    /// (`l!` for HSNs, `l` for cyclic-shift networks).
    DistinctShifted,
}

/// A complete super-IP graph specification.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SuperIpSpec {
    /// Display name.
    pub name: String,
    /// The nucleus.
    pub nucleus: NucleusSpec,
    /// Number of super-symbols `l`.
    pub l: usize,
    /// The super-generators.
    pub supers: Vec<SuperGen>,
    /// Repeated (plain) or distinct (symmetric) seed.
    pub seed_kind: SeedKind,
}

impl SuperIpSpec {
    /// Hierarchical swapped network HSN(l, G) (§3.2): transposition
    /// super-generators `T_2 … T_l`. `HSN(2, Q_n)` ≡ HCN(n,n) without
    /// diameter links.
    pub fn hsn(l: usize, nucleus: NucleusSpec) -> Self {
        assert!(l >= 2);
        SuperIpSpec {
            name: format!("HSN({l},{})", nucleus.spec.name),
            nucleus,
            l,
            supers: hsn_supers(l),
            seed_kind: SeedKind::Repeated,
        }
    }

    /// Ring cyclic-shift network ring-CN(l, G) = basic-CN(l, G) (§3.3):
    /// super-generators `L_1` and `R_1` (identical when `l = 2`).
    pub fn ring_cn(l: usize, nucleus: NucleusSpec) -> Self {
        assert!(l >= 2);
        SuperIpSpec {
            name: format!("ring-CN({l},{})", nucleus.spec.name),
            nucleus,
            l,
            supers: ring_cn_supers(l),
            seed_kind: SeedKind::Repeated,
        }
    }

    /// Complete cyclic-shift network complete-CN(l, G) (§3.3): all cyclic
    /// shifts `L_1 … L_{l−1}` (note `R_i = L_{l−i}`, so this is
    /// inverse-closed with `l − 1` super-generators, matching §5.3's
    /// off-module link counts).
    pub fn complete_cn(l: usize, nucleus: NucleusSpec) -> Self {
        assert!(l >= 2);
        SuperIpSpec {
            name: format!("complete-CN({l},{})", nucleus.spec.name),
            nucleus,
            l,
            supers: complete_cn_supers(l),
            seed_kind: SeedKind::Repeated,
        }
    }

    /// Directed cyclic-shift network (Corollary 4.2 lists it alongside the
    /// undirected families): the single super-generator `L_1`, giving a
    /// digraph with inter-cluster out-degree 1 for every `l`.
    pub fn directed_ring_cn(l: usize, nucleus: NucleusSpec) -> Self {
        assert!(l >= 2);
        SuperIpSpec {
            name: format!("dir-CN({l},{})", nucleus.spec.name),
            nucleus,
            l,
            supers: vec![SuperGen::CyclicL(1)],
            seed_kind: SeedKind::Repeated,
        }
    }

    /// Super-flip network (§3.4): flip super-generators `F_2 … F_l`.
    pub fn superflip(l: usize, nucleus: NucleusSpec) -> Self {
        assert!(l >= 2);
        SuperIpSpec {
            name: format!("superflip({l},{})", nucleus.spec.name),
            nucleus,
            l,
            supers: superflip_supers(l),
            seed_kind: SeedKind::Repeated,
        }
    }

    /// The symmetric variant (§3.5): same generators, distinct-symbol seed.
    pub fn symmetric(mut self) -> Self {
        self.seed_kind = SeedKind::DistinctShifted;
        self.name = format!("sym-{}", self.name);
        self
    }

    /// Number of symbols per super-symbol.
    pub fn m(&self) -> usize {
        self.nucleus.m()
    }

    /// Total label length `l·m`.
    pub fn label_len(&self) -> usize {
        self.l * self.m()
    }

    /// Number of nucleus generators `d_N`.
    pub fn nucleus_generator_count(&self) -> usize {
        self.nucleus.spec.generators.len()
    }

    /// Number of super-generators `d_S` (Theorem 3.1's bound on the
    /// inter-cluster degree).
    pub fn super_generator_count(&self) -> usize {
        self.supers.len()
    }

    /// Block-level permutations of the super-generators.
    pub fn block_perms(&self) -> Vec<Perm> {
        self.supers.iter().map(|s| s.block_perm(self.l)).collect()
    }

    /// The subgroup of `S_l` generated by the block permutations,
    /// enumerated by closure (identity first). Its size multiplies `M^l`
    /// for symmetric variants.
    pub fn block_group(&self) -> Vec<Perm> {
        block_closure(self.l, &self.block_perms(), usize::MAX).0
    }

    /// Expected node count (Theorem 3.2 and its §3.5 refinement):
    /// `M^l` for repeated seeds, `|H|·M^l` for distinct seeds.
    pub fn expected_size(&self) -> Result<u64> {
        let nucleus = self.nucleus.generate()?;
        let m_n = nucleus.node_count() as u64;
        let base = m_n
            .checked_pow(self.l as u32)
            .ok_or_else(|| IpgError::InvalidSpec {
                reason: "size overflows u64".into(),
            })?;
        Ok(match self.seed_kind {
            SeedKind::Repeated => base,
            SeedKind::DistinctShifted => base * self.block_group().len() as u64,
        })
    }

    /// Check the §3.1 reachability requirement: every block can be brought
    /// to the leftmost position by some sequence of super-generators.
    pub fn all_blocks_reach_leftmost(&self) -> bool {
        let group = self.block_group();
        (0..self.l).all(|b| group.iter().any(|p| p.image()[0] as usize == b))
    }

    /// Undirected simple CSR of the generated graph via the arithmetic
    /// fast path — the codec's [`TupleNetwork::build`] (one pass, no label
    /// vector, no hash interning) — or the symmetrized interned graph when
    /// [`NodeCodec::new`] does not support the spec. The two paths number
    /// nodes differently (mixed-radix tuple ids vs. BFS discovery order);
    /// [`NodeCodec::renumbering`] maps one onto the other.
    pub fn fast_undirected_csr(&self) -> Result<Csr> {
        match NodeCodec::new(self) {
            Ok(codec) => Ok(codec.network().build()),
            Err(_) => Ok(self.to_ip_spec().generate()?.to_undirected_csr()),
        }
    }

    /// Expand into a plain IP-graph spec: nucleus generators act on the
    /// leftmost block's positions, super-generators permute blocks, and the
    /// seed follows [`SeedKind`].
    pub fn to_ip_spec(&self) -> IpGraphSpec {
        let l = self.l;
        let m = self.m();
        let k = l * m;
        let mut generators =
            Vec::with_capacity(self.nucleus.spec.generators.len() + self.supers.len());
        for g in &self.nucleus.spec.generators {
            // Embed the m-position nucleus permutation into the first block.
            let mut image: Vec<u16> = (0..k as u16).collect();
            for (i, &p) in g.perm.image().iter().enumerate() {
                image[i] = p;
            }
            generators.push(Generator::new(
                g.name.clone(),
                // ipg-analyze: allow(PANIC001) reason="relabeling a bijection by a bijection stays bijective"
                Perm::from_image(image).expect("embedding preserves bijection"),
            ));
        }
        for s in &self.supers {
            generators.push(Generator::new(s.name(), s.position_perm(l, m)));
        }
        let base = self.nucleus.spec.seed.symbols();
        let seed = match self.seed_kind {
            SeedKind::Repeated => Label::repeat_block(base, l),
            SeedKind::DistinctShifted => {
                assert!(
                    self.nucleus.spec.seed.has_distinct_symbols(),
                    "symmetric super-IP graphs need a distinct-symbol nucleus seed (§3.5)"
                );
                let mut out = Vec::with_capacity(k);
                for block in 0..l {
                    for &s in base {
                        out.push(s + (block * m) as u8);
                    }
                }
                Label::from(out)
            }
        };
        IpGraphSpec {
            name: self.name.clone(),
            seed,
            generators,
        }
    }
}

/// The subgroup of `S_l` generated by `gens`, enumerated by closure
/// (identity first, then breadth-first discovery order), with the index
/// of each element. The one closure behind [`SuperIpSpec::block_group`]
/// and the block-order group of [`TupleNetwork`]. Enumeration stops once
/// more than `cap` elements are known, so a caller bounding `|H|` never
/// enumerates a group much larger than its bound.
fn block_closure(l: usize, gens: &[Perm], cap: usize) -> (Vec<Perm>, FxHashMap<Perm, u32>) {
    let mut elems = vec![Perm::identity(l)];
    let mut index: FxHashMap<Perm, u32> = FxHashMap::default();
    index.insert(elems[0].clone(), 0);
    let mut next = 0;
    while next < elems.len() && elems.len() <= cap {
        let cur = elems[next].clone();
        for g in gens {
            let prod = cur.then(g);
            if !index.contains_key(&prod) {
                index.insert(prod.clone(), elems.len() as u32);
                elems.push(prod);
            }
        }
        next += 1;
    }
    (elems, index)
}

/// Largest number of blocks `l` a [`TupleNetwork`] supports: tuples are
/// decoded into stack buffers of this size. With a nucleus of two or more
/// nodes the `u32` id space already implies it.
pub const MAX_BLOCKS: usize = 32;

/// Size of the `u32` node id space.
const ID_SPACE: u64 = 1 << 32;

/// Direct tuple construction of a (symmetric) super-IP graph over an
/// arbitrary nucleus graph, and the one owner of its tuple arithmetic.
///
/// Nodes are `(order, g_1 … g_l)` where `g_j ∈ V(G)` and `order` indexes the
/// block-order group `H` (trivial for plain super-IP graphs), numbered
/// `id = order·M^l + Σ_j g_j·M^j`. Edges:
///
/// - `(σ, g) ~ (σ, g')` when `g'` differs from `g` only in coordinate 0 and
///   `g_0 ~ g'_0` in the nucleus (nucleus generators act on the leftmost
///   super-symbol);
/// - `(σ, g) ~ (σ·β, g∘β)` for each super-generator block permutation `β`.
///
/// The graph is undirected, so `β⁻¹` moves are edges too: the network
/// keeps the inverse-closed generator set [`TupleNetwork::gens`] (the
/// block perms, then each missing inverse) and one order-transition table
/// over it, which [`TupleNetwork::neighbors_into`], the tuple routers and
/// [`crate::codec::NodeCodec`] all step through.
#[derive(Clone, Debug)]
pub struct TupleNetwork {
    /// Display name.
    pub name: String,
    /// The nucleus graph (undirected; should be connected).
    pub nucleus: Csr,
    /// Number of blocks.
    pub l: usize,
    /// Block permutations of the super-generators.
    pub block_perms: Vec<Perm>,
    /// `block_perms`, then the inverse of each that is not already in the
    /// set, in `block_perms` order.
    gens: Vec<Perm>,
    /// Block-order group (identity only for plain super-IP graphs).
    order_group: Vec<Perm>,
    /// Dense order transitions: `order_next[oi·gens + gi]` is the index
    /// of `order_group[oi].then(&gens[gi])` (all 0 for plain seeds).
    order_next: Vec<u32>,
    /// `pow[j] = M^j` for `j = 0..=l`.
    pow: Vec<u64>,
}

impl TupleNetwork {
    /// Build the tuple form of `spec` using its generated nucleus graph.
    /// Errors where [`TupleNetwork::new`] would panic: `l` outside
    /// `1..=MAX_BLOCKS`, or `|H|·M^l` past the `u32` id space.
    pub fn from_spec(spec: &SuperIpSpec) -> Result<Self> {
        Self::from_nucleus(spec, &spec.nucleus.generate()?)
    }

    /// [`TupleNetwork::from_spec`] over an already generated nucleus: the
    /// one place a spec's id space is checked.
    pub(crate) fn from_nucleus(spec: &SuperIpSpec, nucleus: &IpGraph) -> Result<Self> {
        let (l, name) = (spec.l, &spec.name);
        let bad = |reason: String| IpgError::InvalidSpec {
            reason: format!("{name}: {reason}"),
        };
        if !(1..=MAX_BLOCKS).contains(&l) {
            return Err(bad(format!("l = {l} is outside 1..={MAX_BLOCKS} blocks")));
        }
        let block_perms = spec.block_perms();
        let cells = (0..l)
            .try_fold(1u64, |n, _| n.checked_mul(nucleus.node_count() as u64))
            .filter(|&n| n <= ID_SPACE);
        let max_orders = cells.map_or(0, |c| (ID_SPACE / c) as usize);
        let orders = match spec.seed_kind {
            SeedKind::Repeated => 1,
            SeedKind::DistinctShifted => block_closure(l, &block_perms, max_orders).0.len(),
        };
        if orders > max_orders {
            return Err(bad("|H|·M^l nodes exceed the u32 id space (2^32)".into()));
        }
        Ok(Self::new(
            name.clone(),
            nucleus.to_undirected_csr(),
            l,
            block_perms,
            spec.seed_kind,
        ))
    }

    /// Build directly from any undirected nucleus graph. Panics when the
    /// nucleus is directed, a block perm does not act on `l` blocks, or
    /// the node count `|H|·M^l` exceeds the `u32` id space (2^32).
    pub fn new(
        name: impl Into<String>,
        nucleus: Csr,
        l: usize,
        block_perms: Vec<Perm>,
        seed_kind: SeedKind,
    ) -> Self {
        let name = name.into();
        assert!(l >= 1);
        for p in &block_perms {
            assert_eq!(p.len(), l, "block perm length must equal l");
        }
        assert!(
            nucleus.is_symmetric(),
            "{name}: the nucleus graph must be undirected"
        );
        let (order_group, order_index) = match seed_kind {
            SeedKind::Repeated => block_closure(l, &[], usize::MAX),
            SeedKind::DistinctShifted => block_closure(l, &block_perms, usize::MAX),
        };
        let m = nucleus.node_count() as u64;
        let count = (0..l).fold(order_group.len() as u128, |n, _| {
            n.saturating_mul(u128::from(m))
        });
        assert!(
            count <= 1 << 32,
            "{name}: |H|·M^l = {count} nodes exceeds the u32 id space (2^32)"
        );
        assert!(
            l <= MAX_BLOCKS,
            "{name}: l = {l} exceeds {MAX_BLOCKS} blocks"
        );
        let pow: Vec<u64> = std::iter::successors(Some(1u64), |p| p.checked_mul(m))
            .take(l + 1)
            .collect();
        let mut gens = block_perms.clone();
        for bp in &block_perms {
            let inv = bp.inverse();
            if !gens.contains(&inv) {
                gens.push(inv);
            }
        }
        let order_next = if order_group.len() > 1 {
            order_group
                .iter()
                .flat_map(|sigma| gens.iter().map(|g| order_index[&sigma.then(g)]))
                .collect()
        } else {
            vec![0; gens.len()]
        };
        TupleNetwork {
            name,
            nucleus,
            l,
            block_perms,
            gens,
            order_group,
            order_next,
            pow,
        }
    }

    /// Nucleus size `M`.
    pub fn m_nodes(&self) -> usize {
        self.nucleus.node_count()
    }

    /// Size of the block-order group `H`.
    pub fn order_count(&self) -> usize {
        self.order_group.len()
    }

    /// Total node count `|H|·M^l`.
    pub fn node_count(&self) -> usize {
        self.order_count() * self.pow[self.l] as usize
    }

    /// The inverse-closed super-generator set: the block perms, then the
    /// inverse of each that is not already in the set. Index `gi` of
    /// [`TupleNetwork::apply_gen`] and [`TupleNetwork::order_apply`].
    pub fn gens(&self) -> &[Perm] {
        &self.gens
    }

    /// Encode `(order_idx, tuple)` as a node id.
    pub fn encode(&self, order_idx: u32, tuple: &[u32]) -> u32 {
        debug_assert_eq!(tuple.len(), self.l);
        let mut id = order_idx as u64 * self.pow[self.l];
        for (&g, &w) in tuple.iter().zip(&self.pow) {
            debug_assert!((g as usize) < self.m_nodes());
            id += g as u64 * w;
        }
        // ipg-analyze: allow(PANIC001) reason="TupleNetwork::new rejects node counts past u32"
        u32::try_from(id).expect("node id fits u32")
    }

    /// Decode a node id into `(order_idx, tuple)`.
    pub fn decode(&self, node: u32) -> (u32, Vec<u32>) {
        let mut tuple = vec![0u32; self.l];
        let order_idx = self.decode_into(node, &mut tuple);
        (order_idx, tuple)
    }

    /// Allocation-free [`TupleNetwork::decode`]: fill `tuple` (length `l`)
    /// and return the order index.
    pub fn decode_into(&self, node: u32, tuple: &mut [u32]) -> u32 {
        debug_assert_eq!(tuple.len(), self.l);
        let m = self.pow[1];
        let base = self.pow[self.l];
        let mut id = node as u64;
        let order_idx = (id / base) as u32;
        id %= base;
        for slot in tuple.iter_mut() {
            *slot = (id % m) as u32;
            id /= m;
        }
        order_idx
    }

    /// Apply generator `gens()[gi]` to `(order, tuple)`: write the permuted
    /// tuple into `out` (length `l`) and return the new order index.
    #[inline]
    pub fn apply_gen(&self, order: u32, tuple: &[u32], gi: usize, out: &mut [u32]) -> u32 {
        for (o, &p) in out.iter_mut().zip(self.gens[gi].image()) {
            *o = tuple[p as usize];
        }
        self.order_apply(order, gi)
    }

    /// Push the undirected row of node `id`: its nucleus arcs on coordinate
    /// 0 in nucleus CSR order (mixed-radix weight 1, so a nucleus edge is
    /// `id − g_0 + g_0'`), then its image under every generator of
    /// [`TupleNetwork::gens`]. Because the generator set is closed under
    /// inverses, this is the node's out-arcs plus the reverses of its
    /// in-arcs. The row may hold repeats and `id` itself (generators that
    /// fix the node); [`Csr::from_fn`] sorts, dedups and drops them.
    pub fn neighbors_into(&self, id: u32, out: &mut Vec<u32>) {
        let mut tuple = [0u32; MAX_BLOCKS];
        let mut image = [0u32; MAX_BLOCKS];
        let (tuple, image) = (&mut tuple[..self.l], &mut image[..self.l]);
        let order = self.decode_into(id, tuple);
        let base = id - tuple[0];
        out.extend(self.nucleus.neighbors(tuple[0]).iter().map(|&nb| base + nb));
        for gi in 0..self.gens.len() {
            let next = self.apply_gen(order, tuple, gi, image);
            out.push(self.encode(next, image));
        }
    }

    /// Materialize the undirected graph in one pass, row by row from
    /// [`TupleNetwork::neighbors_into`]: entirely arithmetic, no hashing,
    /// no per-node allocation and no symmetrize pass.
    pub fn build(&self) -> Csr {
        Csr::from_fn(self.node_count(), |id, row| self.neighbors_into(id, row))
    }

    /// The block-order permutation at index `idx`.
    pub fn order_perm(&self, idx: u32) -> &Perm {
        &self.order_group[idx as usize]
    }

    /// Apply generator `gens()[gen_idx]` to the order component: the index
    /// of `order_perm(idx).then(gens()[gen_idx])` (always 0 for plain
    /// repeated-seed networks). A dense table lookup; the first
    /// `block_perms.len()` generators are the block perms themselves.
    #[inline]
    pub fn order_apply(&self, idx: u32, gen_idx: usize) -> u32 {
        self.order_next[idx as usize * self.gens.len() + gen_idx]
    }

    /// Module id of each node under the paper's §5 packing: one nucleus
    /// copy per module (coordinate 0 varies within a module). Returns the
    /// per-node module array and the number of modules.
    pub fn nucleus_partition(&self) -> (Vec<u32>, usize) {
        let n = self.node_count();
        let m = self.m_nodes();
        // coordinate 0 is the least significant digit: dropping it is `id / M`
        let class = (0..n).map(|id| (id / m) as u32).collect();
        (class, n / m)
    }
}

/// Construct the explicit isomorphism from an IP-generated super-IP graph to
/// its tuple network: each label's tuple id from [`NodeCodec::renumbering`].
/// Returns the node map `ip node -> tuple node` after verifying it is a
/// bijection under which the IP graph's undirected CSR *equals* `tn`'s
/// build; errors otherwise.
pub fn explicit_isomorphism(
    spec: &SuperIpSpec,
    ip: &IpGraph,
    tn: &TupleNetwork,
) -> Result<Vec<u32>> {
    let mismatch = |reason: String| IpgError::InvalidSpec { reason };
    if ip.node_count() != tn.node_count() {
        return Err(mismatch(format!(
            "node counts differ: ip={} tuple={}",
            ip.node_count(),
            tn.node_count()
        )));
    }
    let map = NodeCodec::new(spec)?.renumbering(ip)?;

    // bijection check, before `Csr::relabeled` (which panics on one)
    let mut seen = vec![false; tn.node_count()];
    for &t in &map {
        match seen.get_mut(t as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => return Err(mismatch("node map is not a bijection".into())),
        }
    }
    if ip.to_undirected_csr().relabeled(&map) != tn.build() {
        return Err(mismatch(
            "renumbered IP graph differs from the tuple network".into(),
        ));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn hypercube_nucleus_sizes() {
        for n in 1..=4 {
            let ip = NucleusSpec::hypercube(n).generate().unwrap();
            assert_eq!(ip.node_count(), 1 << n, "Q{n}");
            let g = ip.to_undirected_csr();
            assert!(g.is_regular());
            assert_eq!(g.max_degree(), n);
            assert_eq!(algo::diameter(&g), n as u32);
        }
    }

    #[test]
    fn folded_hypercube_props() {
        // FQ3: 8 nodes, degree 4, diameter ceil(3/2) = 2.
        let ip = NucleusSpec::folded_hypercube(3).generate().unwrap();
        assert_eq!(ip.node_count(), 8);
        let g = ip.to_undirected_csr();
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 4);
        assert_eq!(algo::diameter(&g), 2);
    }

    #[test]
    fn complete_nucleus() {
        let ip = NucleusSpec::complete(5).generate().unwrap();
        assert_eq!(ip.node_count(), 5);
        let g = ip.to_undirected_csr();
        assert_eq!(g.max_degree(), 4);
        assert_eq!(algo::diameter(&g), 1);
    }

    #[test]
    fn ring_nucleus() {
        let ip = NucleusSpec::ring(6).generate().unwrap();
        assert_eq!(ip.node_count(), 6);
        let g = ip.to_undirected_csr();
        assert_eq!(g.max_degree(), 2);
        assert_eq!(algo::diameter(&g), 3);
    }

    #[test]
    fn hcn22_is_hsn2_q2() {
        // Paper Fig 1a: HSN(2, Q2) = HCN(2,2) without diameter links: 16
        // nodes, and the IP generation from seed `3434 3434`-style labels
        // matches the tuple construction.
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(2));
        let ip = spec.to_ip_spec().generate().unwrap();
        assert_eq!(ip.node_count(), 16);
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        explicit_isomorphism(&spec, &ip, &tn).unwrap();
    }

    #[test]
    fn theorem_3_2_sizes() {
        // N = M^l for repeated seeds.
        for l in 2..=3 {
            let spec = SuperIpSpec::hsn(l, NucleusSpec::hypercube(2));
            let ip = spec.to_ip_spec().generate().unwrap();
            assert_eq!(ip.node_count() as u64, spec.expected_size().unwrap());
            assert_eq!(ip.node_count(), 4usize.pow(l as u32));
        }
    }

    #[test]
    fn symmetric_sizes() {
        // Symmetric HSN: l!·M^l; symmetric ring-CN: l·M^l.
        let hsn = SuperIpSpec::hsn(3, NucleusSpec::hypercube(1)).symmetric();
        let ip = hsn.to_ip_spec().generate().unwrap();
        assert_eq!(ip.node_count(), 6 * 8); // 3!·2^3
        assert_eq!(ip.node_count() as u64, hsn.expected_size().unwrap());

        let cn = SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)).symmetric();
        let ip = cn.to_ip_spec().generate().unwrap();
        assert_eq!(ip.node_count(), 3 * 8); // 3·2^3
        assert_eq!(ip.node_count() as u64, cn.expected_size().unwrap());
    }

    #[test]
    fn symmetric_variants_are_regular() {
        for spec in [
            SuperIpSpec::hsn(3, NucleusSpec::hypercube(1)).symmetric(),
            SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)).symmetric(),
            SuperIpSpec::superflip(3, NucleusSpec::hypercube(1)).symmetric(),
        ] {
            let ip = spec.to_ip_spec().generate().unwrap();
            let g = ip.to_undirected_csr();
            assert!(g.is_regular(), "{} not regular", spec.name);
            assert!(ip.spec().seed.has_distinct_symbols());
        }
    }

    #[test]
    fn tuple_matches_ip_for_all_families() {
        let nuc = NucleusSpec::hypercube(2);
        for spec in [
            SuperIpSpec::hsn(3, nuc.clone()),
            SuperIpSpec::ring_cn(3, nuc.clone()),
            SuperIpSpec::complete_cn(4, NucleusSpec::hypercube(1)),
            SuperIpSpec::superflip(3, nuc.clone()),
            SuperIpSpec::hsn(2, nuc.clone()).symmetric(),
            SuperIpSpec::ring_cn(4, NucleusSpec::hypercube(1)).symmetric(),
            SuperIpSpec::superflip(3, NucleusSpec::hypercube(1)).symmetric(),
            // L_1 is not self-inverse: the only family whose rows need the
            // inverse-generator arcs
            SuperIpSpec::directed_ring_cn(3, nuc.clone()),
            SuperIpSpec::directed_ring_cn(4, NucleusSpec::hypercube(1)).symmetric(),
        ] {
            let ip = spec.to_ip_spec().generate().unwrap();
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            explicit_isomorphism(&spec, &ip, &tn).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn block_reachability() {
        for spec in [
            SuperIpSpec::hsn(4, NucleusSpec::hypercube(1)),
            SuperIpSpec::ring_cn(4, NucleusSpec::hypercube(1)),
            SuperIpSpec::complete_cn(5, NucleusSpec::hypercube(1)),
            SuperIpSpec::superflip(4, NucleusSpec::hypercube(1)),
        ] {
            assert!(spec.all_blocks_reach_leftmost(), "{}", spec.name);
        }
    }

    #[test]
    fn block_groups() {
        // transpositions generate S_l; single rotations generate C_l;
        // flips generate S_l.
        assert_eq!(
            SuperIpSpec::hsn(4, NucleusSpec::hypercube(1))
                .block_group()
                .len(),
            24
        );
        assert_eq!(
            SuperIpSpec::ring_cn(4, NucleusSpec::hypercube(1))
                .block_group()
                .len(),
            4
        );
        assert_eq!(
            SuperIpSpec::complete_cn(5, NucleusSpec::hypercube(1))
                .block_group()
                .len(),
            5
        );
        assert_eq!(
            SuperIpSpec::superflip(4, NucleusSpec::hypercube(1))
                .block_group()
                .len(),
            24
        );
    }

    #[test]
    fn degree_bounds_theorem_3_1() {
        let spec = SuperIpSpec::hsn(3, NucleusSpec::hypercube(2));
        let ip = spec.to_ip_spec().generate().unwrap();
        let g = ip.to_undirected_csr();
        assert!(g.max_degree() <= spec.nucleus_generator_count() + spec.super_generator_count());
    }

    #[test]
    fn nucleus_partition_shape() {
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(2));
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let (class, modules) = tn.nucleus_partition();
        assert_eq!(modules, 4); // 16 nodes / 4 per nucleus
        let mut counts = vec![0; modules];
        for &c in &class {
            counts[c as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4));
    }

    #[test]
    fn generalized_hypercube_nucleus() {
        // GH(3x4): 12 nodes, degree (3−1)+(4−1) = 5, diameter 2.
        let nuc = NucleusSpec::generalized_hypercube(&[3, 4]);
        let ip = nuc.generate().unwrap();
        assert_eq!(ip.node_count(), 12);
        let g = ip.to_undirected_csr();
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 5);
        assert_eq!(algo::diameter(&g), 2);
    }

    #[test]
    fn gh_nucleus_makes_low_diameter_super_ip() {
        // Theorem 4.4 direction: GH(4x4) (16 nodes, diameter 2) gives
        // HSN(2, GH) diameter (2+1)·2 − 1 = 5 at 256 nodes, vs 9 for a
        // Q4 nucleus of the same size.
        let spec = SuperIpSpec::hsn(2, NucleusSpec::generalized_hypercube(&[4, 4]));
        let g = spec.to_ip_spec().generate().unwrap().to_undirected_csr();
        assert_eq!(g.node_count(), 256);
        assert_eq!(algo::diameter(&g), 5);
    }

    #[test]
    fn directed_ring_cn_diameter() {
        // directed diameter still (D_G+1)·l − 1 (Cor. 4.2): BFS over the
        // directed arcs.
        let spec = SuperIpSpec::directed_ring_cn(3, NucleusSpec::hypercube(2));
        let ip = spec.to_ip_spec().generate().unwrap();
        assert_eq!(ip.node_count(), 64);
        let g = ip.to_directed_csr();
        assert!(algo::is_strongly_connected(&g));
        assert_eq!(algo::diameter(&g), 8);
    }

    #[test]
    #[should_panic(expected = "HSN(33,Q1): |H|·M^l = 8589934592 nodes exceeds the u32 id space")]
    fn new_rejects_node_counts_past_u32() {
        let q1 = NucleusSpec::hypercube(1)
            .generate()
            .unwrap()
            .to_undirected_csr();
        let perms = (1..33).map(|i| Perm::transposition(33, 0, i)).collect();
        TupleNetwork::new("HSN(33,Q1)", q1, 33, perms, SeedKind::Repeated);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let spec = SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(2)).symmetric();
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        for node in 0..tn.node_count() as u32 {
            let (oi, t) = tn.decode(node);
            assert_eq!(tn.encode(oi, &t), node);
        }
    }
}
