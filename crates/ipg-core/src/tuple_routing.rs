//! Table-free hierarchical routing on [`TupleNetwork`]s.
//!
//! `TupleRouter` is the Theorem-4.1 algorithm on tuple node ids: per-node
//! state is just the nucleus distance table (`O(M²)`) and the
//! super-generator schedule (`O(l!)` worst case, computed once), so it
//! routes on million-node networks without materializing the graph.
//! [`crate::routing::SuperRouter`] is its label form: it translates
//! labels to ids and back through [`crate::codec::NodeCodec`].

use crate::algo;
use crate::error::{IpgError, Result};
use crate::graph::Csr;
use crate::perm::Perm;
use crate::rank;
use crate::superip::TupleNetwork;
use crate::util::{factorial, FxHashMap};
use std::collections::VecDeque;

/// Largest `l` for which the schedule search uses flat per-state arrays
/// (`l!·2^l` entries: 645,120 at `l = 7`). Beyond that the sparse
/// hash-map search is both smaller and faster, since BFS rarely touches
/// the full state space.
const FLAT_SCHEDULE_MAX_L: usize = 7;

/// `via` sentinel: state not yet discovered.
const VIA_UNSEEN: u8 = 0xFF;
/// `via` sentinel: the BFS start state.
const VIA_START: u8 = 0xFE;

/// Minimal super-generator schedule over raw block permutations: visits
/// every block at the leftmost position; optionally ends at `target`.
/// (The [`crate::routing`] theorem functions call this search.) `None`
/// when no such schedule exists, or for more than 253 generators (each
/// state's generator is kept in one byte).
///
/// One BFS over `(block arrangement, visited set)` states; the store of
/// discovered states is flat for `l ≤ 7` and hashed beyond (see
/// [`Discovered`]). The FIFO order and generator iteration order do not
/// depend on the store, so both give the same schedule.
pub fn schedule_over_perms(perms: &[Perm], l: usize, target: Option<&Perm>) -> Option<Vec<usize>> {
    schedule_search(perms, l, target, l <= FLAT_SCHEDULE_MAX_L)
}

fn schedule_search(
    perms: &[Perm],
    l: usize,
    target: Option<&Perm>,
    flat: bool,
) -> Option<Vec<usize>> {
    if perms.len() >= VIA_START as usize {
        return None;
    }
    let full: u32 = (1u32 << l) - 1;
    let done = |arr: &Perm, visited: u32| visited == full && target.is_none_or(|t| arr == t);
    // The start state (identity arrangement, block 0 leftmost) may already
    // satisfy the goal — only possible when l = 1.
    let start = Perm::identity(l);
    if done(&start, 1) {
        return Some(vec![]);
    }
    let mut seen = Discovered::new(l, flat);
    let start_slot = seen.claim(&start, 1, VIA_START, 0)?;
    let mut queue: VecDeque<(Perm, u32, u32)> = VecDeque::new();
    queue.push_back((start, 1, start_slot));
    while let Some((arrangement, visited, slot)) = queue.pop_front() {
        for (gi, bp) in perms.iter().enumerate() {
            let arr = arrangement.then(bp);
            let nvis = visited | (1 << arr.image()[0]);
            let Some(nslot) = seen.claim(&arr, nvis, gi as u8, slot) else {
                continue;
            };
            if done(&arr, nvis) {
                return Some(seen.steps_to(nslot));
            }
            queue.push_back((arr, nvis, nslot));
        }
    }
    None
}

/// Lexicographic rank of a block arrangement — the flat-state row index.
#[inline]
fn arrangement_rank(p: &Perm) -> usize {
    rank::perm_rank(p.image()) as usize
}

/// The schedule search's discovered states: for each state's slot, the
/// generator that reached it (`via`) and the slot it was reached from
/// (`parent`). Flat (`index: None`): the slot is
/// `perm_rank(arrangement)·2^l ∣ visited` into preallocated `l!·2^l`
/// arrays, no hashing and no per-state `Perm` clones. Hashed: slots are
/// handed out in discovery order through a map.
struct Discovered {
    l: usize,
    index: Option<FxHashMap<(Perm, u32), u32>>,
    via: Vec<u8>,
    parent: Vec<u32>,
}

impl Discovered {
    fn new(l: usize, flat: bool) -> Self {
        let states = if flat {
            factorial(l) as usize * (1usize << l)
        } else {
            0
        };
        Discovered {
            l,
            index: (!flat).then(FxHashMap::default),
            via: vec![VIA_UNSEEN; states],
            parent: vec![0; states],
        }
    }

    /// Record state `(arr, visited)` as reached by generator `via` from
    /// slot `parent`; returns its slot, or `None` if it was already seen.
    fn claim(&mut self, arr: &Perm, visited: u32, via: u8, parent: u32) -> Option<u32> {
        let slot = match &mut self.index {
            None => (arrangement_rank(arr) << self.l) | visited as usize,
            Some(index) => {
                let next = self.via.len() as u32;
                if *index.entry((arr.clone(), visited)).or_insert(next) != next {
                    return None;
                }
                self.via.push(VIA_UNSEEN);
                self.parent.push(0);
                next as usize
            }
        };
        if self.via[slot] != VIA_UNSEEN {
            return None;
        }
        self.via[slot] = via;
        self.parent[slot] = parent;
        Some(slot as u32)
    }

    /// The generator indices leading from the start state to `slot`.
    fn steps_to(&self, mut slot: u32) -> Vec<usize> {
        let mut steps = Vec::new();
        while self.via[slot as usize] != VIA_START {
            steps.push(self.via[slot as usize] as usize);
            slot = self.parent[slot as usize];
        }
        steps.reverse();
        steps
    }
}

/// All-pairs distances of the (undirected) nucleus graph, row-major
/// `M×M`; `u16::MAX` where unreachable.
fn nucleus_distances(nucleus: &Csr) -> Vec<u16> {
    let m = nucleus.node_count();
    let mut ndist = vec![u16::MAX; m * m];
    for a in 0..m as u32 {
        for (b, d) in algo::bfs(nucleus, a).into_iter().enumerate() {
            if d != algo::UNREACHABLE {
                ndist[a as usize * m + b] = d as u16;
            }
        }
    }
    ndist
}

/// Hierarchical router over tuple node ids.
pub struct TupleRouter {
    tn: TupleNetwork,
    /// nucleus distances, row-major.
    ndist: Vec<u16>,
    /// default schedule (plain networks).
    schedule: Vec<usize>,
}

impl TupleRouter {
    /// Precompute nucleus distances and the default schedule.
    pub fn new(tn: TupleNetwork) -> Result<Self> {
        let schedule = schedule_over_perms(&tn.block_perms, tn.l, None).ok_or_else(|| {
            IpgError::InvalidSpec {
                reason: "some super-symbol can never reach the leftmost position".into(),
            }
        })?;
        Ok(TupleRouter {
            ndist: nucleus_distances(&tn.nucleus),
            tn,
            schedule,
        })
    }

    /// The underlying network.
    pub fn network(&self) -> &TupleNetwork {
        &self.tn
    }

    fn nd(&self, a: u32, b: u32) -> u16 {
        self.ndist[a as usize * self.tn.m_nodes() + b as usize]
    }

    /// Nucleus-route coordinate 0 of `tuple` to value `target`, pushing
    /// every intermediate node id.
    fn sort_coord0(
        &self,
        order_idx: u32,
        tuple: &mut [u32],
        target: u32,
        path: &mut Vec<u32>,
    ) -> Result<()> {
        while tuple[0] != target {
            let d = self.nd(tuple[0], target);
            if d == u16::MAX {
                return Err(IpgError::Unreachable {
                    from: tuple[0],
                    to: target,
                });
            }
            let mut advanced = false;
            for &nb in self.tn.nucleus.neighbors(tuple[0]) {
                if self.nd(nb, target) + 1 == d {
                    tuple[0] = nb;
                    path.push(self.tn.encode(order_idx, tuple));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return Err(IpgError::InvalidSpec {
                    reason: "nucleus distance table inconsistent".into(),
                });
            }
        }
        Ok(())
    }

    /// Route between two node ids, returning the node-id path (inclusive).
    /// Path length ≤ `l·D_G + t` (Theorem 4.1) for plain networks, and
    /// ≤ `l·D_G + t_S` for symmetric ones (Theorem 4.3).
    pub fn route(&self, src: u32, dst: u32) -> Result<Vec<u32>> {
        let l = self.tn.l;
        let (src_o, src_t) = self.tn.decode(src);
        let (dst_o, dst_t) = self.tn.decode(dst);

        // Required final block arrangement. For plain networks any
        // all-visiting schedule works; for symmetric ones the block-order
        // components must match: σ_dst = σ_src ∘ β  ⇒  β = σ_src⁻¹ σ_dst.
        let schedule: Vec<usize> = if self.tn.order_count() == 1 {
            self.schedule.clone()
        } else {
            let sigma_src = self.tn.order_perm(src_o);
            let sigma_dst = self.tn.order_perm(dst_o);
            // σ_src.then(β) = σ_dst  ⇒  β = σ_src⁻¹.then(σ_dst)
            let beta = sigma_src.inverse().then(sigma_dst);
            schedule_over_perms(&self.tn.block_perms, l, Some(&beta)).ok_or_else(|| {
                IpgError::InvalidSpec {
                    reason: "required block arrangement unreachable".into(),
                }
            })?
        };

        // final position of the block initially at position i
        let mut arrangement = Perm::identity(l);
        for &gi in &schedule {
            arrangement = arrangement.then(&self.tn.block_perms[gi]);
        }
        let inv = arrangement.inverse();
        let final_pos: Vec<usize> = (0..l).map(|i| inv.image()[i] as usize).collect();

        let mut order = src_o;
        let mut tuple = src_t;
        let mut path = vec![src];
        self.sort_coord0(order, &mut tuple, dst_t[final_pos[0]], &mut path)?;

        let mut sorted = vec![false; l];
        sorted[0] = true;
        let mut arr = Perm::identity(l);
        let mut buf = vec![0u32; l];
        for &gi in &schedule {
            arr = arr.then(&self.tn.block_perms[gi]);
            order = self.tn.apply_gen(order, &tuple, gi, &mut buf);
            std::mem::swap(&mut tuple, &mut buf);
            let next = self.tn.encode(order, &tuple);
            // a super-generator may fix the current node (e.g. swapping
            // two equal blocks); that is a no-op, not a link traversal
            // ipg-analyze: allow(PANIC001) reason="path starts with src and only grows"
            if next != *path.last().expect("non-empty") {
                path.push(next);
            }
            let origin = arr.image()[0] as usize;
            if !sorted[origin] {
                sorted[origin] = true;
                self.sort_coord0(order, &mut tuple, dst_t[final_pos[origin]], &mut path)?;
            }
        }
        // ipg-analyze: allow(PANIC001) reason="path starts with src and only grows"
        let last = *path.last().expect("non-empty");
        if last != dst {
            return Err(IpgError::InvalidSpec {
                reason: format!("tuple routing ended at {last} not {dst}"),
            });
        }
        Ok(path)
    }
}

// ---------------------------------------------------------------------------
// Exact-distance table-free routing
// ---------------------------------------------------------------------------

/// Largest `l` supported by [`ShortestTupleRouter`] (its word tables are
/// flat `l!·2^l` arrays, the same bound as [`FLAT_SCHEDULE_MAX_L`]).
pub const SHORTEST_ROUTER_MAX_L: usize = FLAT_SCHEDULE_MAX_L;

/// Distance sentinel: unreachable.
const DIST_INF: u32 = u32::MAX;

/// Candidate products whose partial costs one `next_hop` keeps on the
/// stack to score nucleus neighbours incrementally: every product for
/// `l ≤ 5` (`5! = 120`); later candidates are re-scored in full.
const CACHED_TAILS: usize = 120;

/// A candidate final block arrangement: its flat rank, the inverse image
/// (`inv[q]` = final position of the block starting at position `q`), and
/// the shortest word length realizing it with no visit requirement (a
/// lower bound on its cost).
#[derive(Default)]
struct ProductCand {
    rank: u32,
    inv: [u8; FLAT_SCHEDULE_MAX_L],
    base: u16,
}

/// Exact shortest-path router over tuple node ids — the codec-backed
/// `next_hop` used by the `ipg-sim` engine on super-IP networks.
///
/// Unlike [`TupleRouter`] (the literal Theorem-4.1 schedule, whose paths
/// only meet the *diameter* bound), this router computes the true graph
/// distance of [`TupleNetwork::build`]'s undirected graph and walks it
/// one hop at a time, so iterated `next_hop` reproduces BFS-shortest path
/// lengths with `O(M² + l!·2^l)` memory — no `O(N²)` table.
///
/// Distance formula: a path from `u` to `d` projects onto a word `w` over
/// the inverse-closed super-generator set with product `π` (constrained to
/// `σ_u⁻¹σ_d` on symmetric seeds), plus nucleus corrections applied to a
/// block only while it sits at position 0. Writing `fp(q)` for the final
/// position of the block starting at `q` (`fp = π⁻¹`),
///
/// ```text
/// dist(u,d) = min over π [ Σ_q ndist(t_u[q], t_d[fp(q)])
///                          + W(π, {q : t_u[q] ≠ t_d[fp(q)]}) ]
/// ```
///
/// where `W(π, V)` is the shortest word with product `π` whose prefix
/// products put every block of `V` at position 0 at least once. `≤` holds
/// because every such plan is realizable as a walk (steps fixing the node
/// cost nothing), `≥` because projecting any path yields such a plan.
/// `W` comes from one BFS over `(arrangement, visited)` states followed by
/// a superset-min sweep over the visited masks.
pub struct ShortestTupleRouter {
    tn: TupleNetwork,
    /// nucleus distances, row-major `M×M`.
    ndist: Vec<u16>,
    /// `wmin[rank·2^l | V] = min over V' ⊇ V of W_exact(arrangement, V')`.
    wmin: Vec<u16>,
    /// Reachable products, sorted by `base` for early-exit pruning.
    prods: Vec<ProductCand>,
}

impl ShortestTupleRouter {
    /// Precompute nucleus distances and the word tables. Errors when
    /// `l > SHORTEST_ROUTER_MAX_L`.
    pub fn new(tn: TupleNetwork) -> Result<Self> {
        let l = tn.l;
        if l > SHORTEST_ROUTER_MAX_L {
            return Err(IpgError::InvalidSpec {
                reason: format!(
                    "table-free routing supports l <= {SHORTEST_ROUTER_MAX_L}, got {l}"
                ),
            });
        }
        // BFS over (arrangement, visited-blocks) states under the
        // inverse-closed generator set; `visited` tracks which blocks
        // occupied position 0 after some prefix (block 0 starts there).
        let states = factorial(l) as usize * (1usize << l);
        let mut wmin = vec![u16::MAX; states];
        let start = Perm::identity(l);
        let start_idx = (arrangement_rank(&start) << l) | 1;
        wmin[start_idx] = 0;
        let mut reached: Vec<(u32, Perm)> = vec![(arrangement_rank(&start) as u32, start.clone())];
        let mut queue: VecDeque<(Perm, u32)> = VecDeque::new();
        queue.push_back((start, 1));
        while let Some((arrangement, visited)) = queue.pop_front() {
            let here = wmin[(arrangement_rank(&arrangement) << l) | visited as usize];
            for bp in tn.gens() {
                let arr = arrangement.then(bp);
                let nvis = visited | (1 << arr.image()[0]);
                let rank = arrangement_rank(&arr);
                let nidx = (rank << l) | nvis as usize;
                if wmin[nidx] != u16::MAX {
                    continue;
                }
                wmin[nidx] = here + 1;
                if !reached.iter().any(|(r, _)| *r == rank as u32) {
                    reached.push((rank as u32, arr.clone()));
                }
                queue.push_back((arr, nvis));
            }
        }
        // superset-min over the visited masks of each arrangement row
        for row in wmin.chunks_mut(1 << l) {
            for b in 0..l {
                let bit = 1usize << b;
                for v in 0..row.len() {
                    if v & bit == 0 {
                        row[v] = row[v].min(row[v | bit]);
                    }
                }
            }
        }

        let mut prods: Vec<ProductCand> = reached
            .into_iter()
            .map(|(rank, p)| {
                let mut inv = [0u8; FLAT_SCHEDULE_MAX_L];
                for (o, &v) in inv.iter_mut().zip(p.inverse().image().iter()) {
                    *o = v as u8;
                }
                let base = wmin[(rank as usize) << l];
                ProductCand { rank, inv, base }
            })
            .collect();
        prods.sort_by_key(|c| c.base);

        Ok(ShortestTupleRouter {
            ndist: nucleus_distances(&tn.nucleus),
            tn,
            wmin,
            prods,
        })
    }

    /// The underlying network.
    pub fn network(&self) -> &TupleNetwork {
        &self.tn
    }

    #[inline]
    fn nd(&self, a: u32, b: u32) -> u16 {
        self.ndist[a as usize * self.tn.m_nodes() + b as usize]
    }

    /// The forced product of a symmetric-seed node with order index `o`:
    /// `σ_o.then(π) = σ_d` gives `π = σ_o⁻¹σ_d`. Composed in stack
    /// buffers and ranked by Lehmer code: it runs for `u` and again for
    /// every generator neighbour on each hop.
    fn forced_product(&self, o: u32, do_: u32) -> ProductCand {
        let l = self.tn.l;
        let so = self.tn.order_perm(o).image();
        let sd = self.tn.order_perm(do_).image();
        let mut inv_o = [0u8; FLAT_SCHEDULE_MAX_L];
        for (j, &p) in so.iter().enumerate() {
            inv_o[p as usize] = j as u8;
        }
        let mut beta = [0u8; FLAT_SCHEDULE_MAX_L];
        for (b, &p) in beta.iter_mut().zip(sd) {
            *b = inv_o[p as usize];
        }
        let rank = rank::perm_rank(&beta[..l]) as u32;
        let mut inv = [0u8; FLAT_SCHEDULE_MAX_L];
        for (i, &b) in beta[..l].iter().enumerate() {
            inv[b as usize] = i as u8;
        }
        ProductCand {
            rank,
            inv,
            base: self.wmin[(rank as usize) << l],
        }
    }

    /// The products a path from a node with order index `o` to `d` can
    /// realize: on symmetric seeds the forced one, stored in `slot`; on
    /// plain seeds every reachable one, sorted by `base`.
    fn candidates<'a>(&'a self, o: u32, do_: u32, slot: &'a mut ProductCand) -> &'a [ProductCand] {
        if self.tn.order_count() > 1 {
            *slot = self.forced_product(o, do_);
            std::slice::from_ref(slot)
        } else {
            &self.prods
        }
    }

    /// Nucleus corrections of candidate `c` outside coordinate 0,
    /// `Σ_{q≥1} ndist(t[q], t_d[fp(q)])`, packed as `sum << 8 | mask`,
    /// where `mask` flags the mismatched blocks `q ≥ 1` (`l ≤ 7` fits a
    /// byte); `DIST_INF` when some block cannot be corrected.
    #[inline]
    fn tail(&self, c: &ProductCand, t: &[u32], dt: &[u32]) -> u32 {
        let mut sum = 0u32;
        let mut mask = 0u32;
        for (q, (&tq, &fq)) in (1..).zip(t[1..].iter().zip(&c.inv[1..])) {
            let nd = self.nd(tq, dt[fq as usize]);
            if nd == u16::MAX {
                return DIST_INF;
            }
            sum += u32::from(nd);
            mask |= u32::from(nd > 0) << q;
        }
        (sum << 8) | mask
    }

    /// Cost of candidate `c` for a node with `t0` at coordinate 0 and the
    /// given [`tail`](Self::tail) elsewhere: nucleus corrections plus the
    /// shortest word that visits every mismatched block.
    #[inline]
    fn finish(&self, c: &ProductCand, tail: u32, t0: u32, dt: &[u32]) -> u32 {
        if tail == DIST_INF {
            return DIST_INF;
        }
        let nd = self.nd(t0, dt[c.inv[0] as usize]);
        if nd == u16::MAX {
            return DIST_INF;
        }
        let mask = (tail & 0xFF) as usize | usize::from(nd > 0);
        let w = self.wmin[((c.rank as usize) << self.tn.l) | mask];
        if w == u16::MAX {
            return DIST_INF;
        }
        (tail >> 8) + u32::from(nd) + u32::from(w)
    }

    /// Cheapest cost from tuple `t` to `dt` over `cands`, which are sorted
    /// by `base`, a lower bound on each one's cost. The scan stops at the
    /// first candidate whose `base` reaches the best cost so far or `cap`:
    /// a result below `cap` is exact, one at or above it means the true
    /// cost is too. Each scanned candidate's tail goes to `tails` while it
    /// has room. Returns the cost and the number of candidates scanned.
    fn scan(
        &self,
        cands: &[ProductCand],
        t: &[u32],
        dt: &[u32],
        cap: u32,
        tails: &mut [u32],
    ) -> (u32, usize) {
        let mut best = DIST_INF;
        let mut scanned = 0;
        for c in cands {
            if u32::from(c.base) >= best.min(cap) {
                break;
            }
            let tail = self.tail(c, t, dt);
            if let Some(slot) = tails.get_mut(scanned) {
                *slot = tail;
            }
            best = best.min(self.finish(c, tail, t[0], dt));
            scanned += 1;
        }
        (best, scanned)
    }

    /// Graph distance from `u` to `d` (`None` when unreachable).
    pub fn dist(&self, u: u32, d: u32) -> Option<u32> {
        if u == d {
            return Some(0);
        }
        let l = self.tn.l;
        let mut ut = [0u32; FLAT_SCHEDULE_MAX_L];
        let mut dt = [0u32; FLAT_SCHEDULE_MAX_L];
        let uo = self.tn.decode_into(u, &mut ut[..l]);
        let do_ = self.tn.decode_into(d, &mut dt[..l]);
        let mut slot = ProductCand::default();
        let cands = self.candidates(uo, do_, &mut slot);
        match self.scan(cands, &ut[..l], &dt[..l], DIST_INF, &mut []).0 {
            DIST_INF => None,
            v => Some(v),
        }
    }

    /// First hop of a shortest path from `u` to `d`: the first neighbor
    /// (nucleus arcs in CSR order, then super-generators in closed-set
    /// order) whose distance to `d` is one less — so iterating `next_hop`
    /// yields a path of length exactly `dist(u, d)`, deterministically.
    ///
    /// Cost per hop: `u` and `d` are decoded once and `u`'s candidate
    /// products are scored once. A nucleus arc changes coordinate 0 only,
    /// so every candidate keeps its tail and a nucleus neighbour costs one
    /// `ndist` and one `wmin` lookup per candidate. A generator moves every
    /// block, so a generator neighbour is scored afresh (on symmetric
    /// seeds, with its own forced product). Neighbour scans stop at
    /// `dist(u, d)`: a candidate no cheaper than that cannot make the
    /// neighbour one step closer.
    pub fn next_hop(&self, u: u32, d: u32) -> Option<u32> {
        if u == d {
            return None;
        }
        let l = self.tn.l;
        let mut ut = [0u32; FLAT_SCHEDULE_MAX_L];
        let mut dt = [0u32; FLAT_SCHEDULE_MAX_L];
        let uo = self.tn.decode_into(u, &mut ut[..l]);
        let do_ = self.tn.decode_into(d, &mut dt[..l]);
        let (ut, dt) = (&ut[..l], &dt[..l]);
        let mut slot = ProductCand::default();
        let cands = self.candidates(uo, do_, &mut slot);
        let mut tails = [0u32; CACHED_TAILS];
        let (here, scanned) = self.scan(cands, ut, dt, DIST_INF, &mut tails);
        if here == DIST_INF {
            return None;
        }
        // nucleus arcs: coordinate 0 has mixed-radix weight 1. The scan
        // for `u` stopped at a `base` of at least `here`, so it covered
        // every candidate a neighbour scan can reach.
        let base_id = u - ut[0];
        for &nb in self.tn.nucleus.neighbors(ut[0]) {
            let mut best = DIST_INF;
            for (i, c) in cands[..scanned].iter().enumerate() {
                if u32::from(c.base) >= best.min(here) {
                    break;
                }
                let tail = match tails.get(i) {
                    Some(&tail) => tail,
                    None => self.tail(c, ut, dt),
                };
                best = best.min(self.finish(c, tail, nb, dt));
            }
            if best != DIST_INF && best + 1 == here {
                return Some(base_id + nb);
            }
        }
        // super-generator arcs (the inverse-closed set covers the reverse
        // arcs of non-involutive generators)
        let mut vt = [0u32; FLAT_SCHEDULE_MAX_L];
        for gi in 0..self.tn.gens().len() {
            let vo = self.tn.apply_gen(uo, ut, gi, &mut vt[..l]);
            let vid = self.tn.encode(vo, &vt[..l]);
            if vid == u {
                continue; // generator fixes the node: a dropped self-loop
            }
            let mut vslot = ProductCand::default();
            let vcands = self.candidates(vo, do_, &mut vslot);
            let (v, _) = self.scan(vcands, &vt[..l], dt, here, &mut []);
            if v != DIST_INF && v + 1 == here {
                return Some(vid);
            }
        }
        None
    }

    /// Shortest node-id path `u -> d` (inclusive); its length is exactly
    /// `dist(u, d)`.
    pub fn path(&self, u: u32, d: u32) -> Result<Vec<u32>> {
        let mut path = vec![u];
        let mut cur = u;
        while cur != d {
            match self.next_hop(cur, d) {
                Some(next) => {
                    cur = next;
                    path.push(cur);
                }
                None => {
                    return Err(IpgError::Unreachable { from: u, to: d });
                }
            }
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Csr;
    use crate::superip::{NucleusSpec, SeedKind, SuperIpSpec, TupleNetwork};
    use proptest::prelude::*;

    fn check_all_pairs(spec: &SuperIpSpec) {
        let tn = TupleNetwork::from_spec(spec).unwrap();
        let g = tn.build();
        let router = TupleRouter::new(tn).unwrap();
        let bound = crate::routing::predicted_diameter(spec).unwrap() as usize;
        for u in 0..g.node_count() as u32 {
            for v in 0..g.node_count() as u32 {
                let path = router.route(u, v).unwrap();
                assert_eq!(path[0], u);
                assert_eq!(*path.last().unwrap(), v);
                for w in path.windows(2) {
                    assert!(
                        g.has_arc(w[0], w[1]),
                        "{}: {} -> {} not an arc",
                        spec.name,
                        w[0],
                        w[1]
                    );
                }
                assert!(path.len() - 1 <= bound, "{}: {u}->{v}", spec.name);
            }
        }
    }

    #[test]
    fn all_pairs_hsn() {
        check_all_pairs(&SuperIpSpec::hsn(2, NucleusSpec::hypercube(2)));
        check_all_pairs(&SuperIpSpec::hsn(3, NucleusSpec::hypercube(1)));
    }

    #[test]
    fn all_pairs_cn_and_flip() {
        check_all_pairs(&SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)));
        check_all_pairs(&SuperIpSpec::superflip(3, NucleusSpec::hypercube(1)));
    }

    #[test]
    fn all_pairs_symmetric() {
        check_all_pairs(&SuperIpSpec::hsn(2, NucleusSpec::hypercube(1)).symmetric());
        check_all_pairs(&SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)).symmetric());
    }

    #[test]
    fn flat_and_hashed_stores_give_one_schedule() {
        // the store of discovered states must not change the search
        for spec in [
            SuperIpSpec::hsn(4, NucleusSpec::hypercube(1)),
            SuperIpSpec::ring_cn(5, NucleusSpec::hypercube(1)),
            SuperIpSpec::complete_cn(4, NucleusSpec::hypercube(1)),
            SuperIpSpec::superflip(5, NucleusSpec::hypercube(1)),
            SuperIpSpec::directed_ring_cn(4, NucleusSpec::hypercube(1)),
        ] {
            let (perms, l) = (spec.block_perms(), spec.l);
            let targets = spec.block_group();
            for target in std::iter::once(None).chain(targets.iter().map(Some)) {
                let flat = schedule_search(&perms, l, target, true);
                assert!(flat.is_some(), "{}", spec.name);
                assert_eq!(
                    flat,
                    schedule_search(&perms, l, target, false),
                    "{}: target {target:?}",
                    spec.name
                );
            }
        }
    }

    /// All-pairs check: `ShortestTupleRouter::dist` equals BFS distance on
    /// the materialized graph, and iterated `next_hop` realizes it.
    fn check_shortest_matches_bfs(tn: TupleNetwork) {
        let g = tn.build();
        let name = tn.name.clone();
        let r = ShortestTupleRouter::new(tn).unwrap();
        for u in 0..g.node_count() as u32 {
            let dist = algo::bfs(&g, u);
            for v in 0..g.node_count() as u32 {
                let d = dist[v as usize];
                assert_ne!(d, algo::UNREACHABLE, "{name}: {u}->{v} disconnected");
                assert_eq!(r.dist(u, v), Some(d), "{name}: dist {u}->{v}");
                let p = r.path(u, v).unwrap();
                assert_eq!(p.len() as u32 - 1, d, "{name}: path length {u}->{v}");
                assert_eq!(p[0], u);
                assert_eq!(*p.last().unwrap(), v);
                for w in p.windows(2) {
                    assert!(
                        g.has_arc(w[0], w[1]),
                        "{name}: {}->{} not an arc",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    #[test]
    fn shortest_matches_bfs_on_plain_families() {
        for spec in [
            SuperIpSpec::hsn(2, NucleusSpec::hypercube(2)),
            SuperIpSpec::hsn(3, NucleusSpec::hypercube(1)),
            SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)),
            SuperIpSpec::complete_cn(3, NucleusSpec::hypercube(1)),
            SuperIpSpec::superflip(3, NucleusSpec::hypercube(1)),
        ] {
            check_shortest_matches_bfs(TupleNetwork::from_spec(&spec).unwrap());
        }
    }

    #[test]
    fn shortest_matches_bfs_on_symmetric_families() {
        for spec in [
            SuperIpSpec::hsn(2, NucleusSpec::hypercube(1)).symmetric(),
            SuperIpSpec::hsn(2, NucleusSpec::hypercube(2)).symmetric(),
            SuperIpSpec::ring_cn(3, NucleusSpec::hypercube(1)).symmetric(),
        ] {
            check_shortest_matches_bfs(TupleNetwork::from_spec(&spec).unwrap());
        }
    }

    #[test]
    fn shortest_handles_non_involutive_generators() {
        // dir-CN's single rotation L_1 is not self-inverse: the symmetrized
        // graph contains R_1 arcs the router must route over too.
        let spec = SuperIpSpec::directed_ring_cn(3, NucleusSpec::hypercube(1));
        check_shortest_matches_bfs(TupleNetwork::from_spec(&spec).unwrap());
        // same situation over a triangle nucleus via the raw constructor
        let triangle = Csr::from_fn(3, |u, row| {
            row.push((u + 1) % 3);
            row.push((u + 2) % 3);
        });
        let tn = TupleNetwork::new(
            "rot3-C3",
            triangle,
            3,
            vec![Perm::cyclic_left(3, 1)],
            SeedKind::Repeated,
        );
        check_shortest_matches_bfs(tn);
    }

    #[test]
    fn shortest_beats_or_matches_schedule_router() {
        // the Theorem-4.1 schedule router meets the diameter bound but is
        // not shortest; the shortest router must never be longer
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(2));
        let tn = TupleNetwork::from_spec(&spec).unwrap();
        let sched = TupleRouter::new(tn.clone()).unwrap();
        let short = ShortestTupleRouter::new(tn.clone()).unwrap();
        let mut strictly_shorter = 0;
        for u in 0..tn.node_count() as u32 {
            for v in 0..tn.node_count() as u32 {
                let a = short.path(u, v).unwrap().len();
                let b = sched.route(u, v).unwrap().len();
                assert!(a <= b, "{u}->{v}: shortest {a} vs schedule {b}");
                if a < b {
                    strictly_shorter += 1;
                }
            }
        }
        assert!(strictly_shorter > 0, "expected some strictly shorter pairs");
    }

    #[test]
    fn shortest_router_scales_past_the_table_bound() {
        // CN(5, Q3): 2^15 nodes — an O(N²) table would be a gigabyte.
        // The router's tables are O(M² + l!·2^l); verify sampled distances
        // against one true BFS of the built graph.
        let nucleus = crate::superip::NucleusSpec::hypercube(3)
            .generate()
            .unwrap()
            .to_undirected_csr();
        let perms: Vec<Perm> = (1..5).map(|s| Perm::cyclic_left(5, s)).collect();
        let tn = TupleNetwork::new("CN(5,Q3)", nucleus, 5, perms, SeedKind::Repeated);
        assert_eq!(tn.node_count(), 1 << 15);
        let g = tn.build();
        let r = ShortestTupleRouter::new(tn).unwrap();
        let dist = algo::bfs(&g, 0);
        let n = g.node_count() as u32;
        for i in 0..64u32 {
            let v = i * (n / 64) + 17 * i % (n / 64);
            assert_eq!(r.dist(0, v), Some(dist[v as usize]), "0->{v}");
        }
        let far = (n - 1, dist[n as usize - 1]);
        let p = r.path(0, far.0).unwrap();
        assert_eq!(p.len() as u32 - 1, far.1);
        for w in p.windows(2) {
            assert!(g.has_arc(w[0], w[1]));
        }
    }

    #[test]
    fn rejects_oversized_l() {
        let tn = TupleNetwork::new(
            "big-l",
            Csr::from_fn(2, |u, row| row.push(1 - u)),
            8,
            vec![Perm::cyclic_left(8, 1)],
            SeedKind::Repeated,
        );
        assert!(ShortestTupleRouter::new(tn).is_err());
    }

    #[test]
    fn routes_on_large_network_without_building_it() {
        // CN(5, Q4): 2^20 nodes; the router needs only the 16-node
        // nucleus table and the schedule.
        let nucleus = crate::superip::NucleusSpec::hypercube(4)
            .generate()
            .unwrap()
            .to_undirected_csr();
        let perms: Vec<Perm> = (1..5).map(|s| Perm::cyclic_left(5, s)).collect();
        let tn = TupleNetwork::new("CN(5,Q4)", nucleus, 5, perms, SeedKind::Repeated);
        assert_eq!(tn.node_count(), 1 << 20);
        let router = TupleRouter::new(tn).unwrap();
        let tn = router.network();
        let path = router.route(0, (1 << 20) - 1).unwrap();
        assert!(path.len() - 1 <= 24); // (4+1)·5 − 1
                                       // verify the walk against locally computed neighbor sets
        let g_small_check = |a: u32, b: u32| -> bool {
            let (oa, ta) = tn.decode(a);
            let (_, tb) = tn.decode(b);
            // nucleus move?
            if ta[1..] == tb[1..] && tn.nucleus.has_arc(ta[0], tb[0]) {
                return true;
            }
            // supergen move?
            for (gi, bp) in tn.block_perms.iter().enumerate() {
                let mut img = vec![0u32; tn.l];
                for (j, slot) in img.iter_mut().enumerate() {
                    *slot = ta[bp.image()[j] as usize];
                }
                if img == tb && tn.encode(tn.order_apply(oa, gi), &img) == b {
                    return true;
                }
            }
            false
        };
        for w in path.windows(2) {
            assert!(g_small_check(w[0], w[1]), "{} -> {}", w[0], w[1]);
        }
    }

    /// Reference `next_hop` / `dist` that the one-pass router must match
    /// exactly: a full evaluation of the distance formula for `u` and
    /// again for every neighbour, with forced products ranked by the
    /// general `rank::multiset_rank`.
    mod reference {
        use super::super::{ShortestTupleRouter, DIST_INF, FLAT_SCHEDULE_MAX_L};
        use crate::rank;

        /// Cost of one candidate product: nucleus corrections plus the word.
        fn eval(r: &ShortestTupleRouter, rank: u32, inv: &[u8], ut: &[u32], dt: &[u32]) -> u32 {
            let l = r.tn.l;
            let mut mism = 0usize;
            let mut nc = 0u32;
            for (q, &u_val) in ut.iter().enumerate() {
                let nd = r.nd(u_val, dt[inv[q] as usize]);
                if nd == u16::MAX {
                    return DIST_INF;
                }
                nc += nd as u32;
                if nd > 0 {
                    mism |= 1 << q;
                }
            }
            let w = r.wmin[((rank as usize) << l) | mism];
            if w == u16::MAX {
                return DIST_INF;
            }
            nc + w as u32
        }

        /// Distance between decoded endpoints (`DIST_INF` when unreachable).
        fn dist_parts(r: &ShortestTupleRouter, uo: u32, ut: &[u32], do_: u32, dt: &[u32]) -> u32 {
            if r.tn.order_count() > 1 {
                // the product is forced: β = σ_u⁻¹σ_d
                let su = r.tn.order_perm(uo).image();
                let sd = r.tn.order_perm(do_).image();
                let mut inv_u = [0u8; FLAT_SCHEDULE_MAX_L];
                for (j, &p) in su.iter().enumerate() {
                    inv_u[p as usize] = j as u8;
                }
                let mut beta = [0u8; FLAT_SCHEDULE_MAX_L];
                for (b, &p) in beta.iter_mut().zip(sd.iter()) {
                    *b = inv_u[p as usize];
                }
                let rank = rank::multiset_rank(&beta[..sd.len()]) as u32;
                let mut inv = [0u8; FLAT_SCHEDULE_MAX_L];
                for (i, &b) in beta[..sd.len()].iter().enumerate() {
                    inv[b as usize] = i as u8;
                }
                eval(r, rank, &inv, ut, dt)
            } else {
                let mut best = DIST_INF;
                for c in &r.prods {
                    if (c.base as u32) >= best {
                        break; // sorted by base: nothing cheaper follows
                    }
                    best = best.min(eval(r, c.rank, &c.inv, ut, dt));
                }
                best
            }
        }

        pub fn dist(r: &ShortestTupleRouter, u: u32, d: u32) -> Option<u32> {
            if u == d {
                return Some(0);
            }
            let l = r.tn.l;
            let mut ut = [0u32; FLAT_SCHEDULE_MAX_L];
            let mut dt = [0u32; FLAT_SCHEDULE_MAX_L];
            let uo = r.tn.decode_into(u, &mut ut[..l]);
            let do_ = r.tn.decode_into(d, &mut dt[..l]);
            match dist_parts(r, uo, &ut[..l], do_, &dt[..l]) {
                DIST_INF => None,
                v => Some(v),
            }
        }

        pub fn next_hop(r: &ShortestTupleRouter, u: u32, d: u32) -> Option<u32> {
            if u == d {
                return None;
            }
            let l = r.tn.l;
            let mut ut = [0u32; FLAT_SCHEDULE_MAX_L];
            let mut dt = [0u32; FLAT_SCHEDULE_MAX_L];
            let mut vt = [0u32; FLAT_SCHEDULE_MAX_L];
            let uo = r.tn.decode_into(u, &mut ut[..l]);
            let do_ = r.tn.decode_into(d, &mut dt[..l]);
            let here = dist_parts(r, uo, &ut[..l], do_, &dt[..l]);
            if here == DIST_INF {
                return None;
            }
            // nucleus arcs: coordinate 0 has mixed-radix weight 1
            let t0 = ut[0];
            let base_id = u - t0;
            for &nb in r.tn.nucleus.neighbors(t0) {
                ut[0] = nb;
                let v = dist_parts(r, uo, &ut[..l], do_, &dt[..l]);
                if v != DIST_INF && v + 1 == here {
                    return Some(base_id + nb);
                }
            }
            ut[0] = t0;
            for (gi, g) in r.tn.gens().iter().enumerate() {
                for (j, slot) in vt[..l].iter_mut().enumerate() {
                    *slot = ut[g.image()[j] as usize];
                }
                let vo = r.tn.order_apply(uo, gi);
                let vid = r.tn.encode(vo, &vt[..l]);
                if vid == u {
                    continue; // generator fixes the node: a dropped self-loop
                }
                let v = dist_parts(r, vo, &vt[..l], do_, &dt[..l]);
                if v != DIST_INF && v + 1 == here {
                    return Some(vid);
                }
            }
            None
        }
    }

    /// Splitmix64 step: the sampled-pair stream of
    /// `codec_next_hop_matches_reference`.
    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        #[test]
        fn codec_next_hop_matches_reference(
            family in 0usize..5,
            shape in 0usize..8,
            sym in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            // The one-pass `next_hop` and `dist` equal the reference on
            // random specs: every family, including the non-involutive
            // dir-CN, with plain and symmetric seeds. All pairs up to 2000
            // nodes, 512 sampled pairs beyond (the larger symmetric specs
            // and the last shape, the 2^15-node complete-CN(5,Q3)). Plain
            // complete-CN with l = 6 has 720 candidate products, more than
            // the per-hop tail cache holds.
            let spec = if shape == 7 {
                SuperIpSpec::complete_cn(5, NucleusSpec::hypercube(3))
            } else {
                let (l, nucleus) = match shape {
                    0 => (2, NucleusSpec::hypercube(2)),
                    1 => (2, NucleusSpec::ring(4)),
                    2 => (3, NucleusSpec::hypercube(1)),
                    3 => (3, NucleusSpec::complete(3)),
                    4 => (3, NucleusSpec::hypercube(2)),
                    5 => (4, NucleusSpec::hypercube(1)),
                    _ => (6, NucleusSpec::hypercube(1)),
                };
                let spec = match family {
                    0 => SuperIpSpec::hsn(l, nucleus),
                    1 => SuperIpSpec::ring_cn(l, nucleus),
                    2 => SuperIpSpec::complete_cn(l, nucleus),
                    3 => SuperIpSpec::superflip(l, nucleus),
                    _ => SuperIpSpec::directed_ring_cn(l, nucleus),
                };
                if sym == 1 {
                    spec.symmetric()
                } else {
                    spec
                }
            };
            let r = ShortestTupleRouter::new(TupleNetwork::from_spec(&spec).unwrap()).unwrap();
            let n = r.network().node_count() as u32;
            let check = |u: u32, d: u32| {
                prop_assert_eq!(
                    r.next_hop(u, d),
                    reference::next_hop(&r, u, d),
                    "{}: next_hop({}, {})",
                    spec.name,
                    u,
                    d
                );
                prop_assert_eq!(
                    r.dist(u, d),
                    reference::dist(&r, u, d),
                    "{}: dist({}, {})",
                    spec.name,
                    u,
                    d
                );
            };
            if n <= 2000 {
                for u in 0..n {
                    for d in 0..n {
                        check(u, d);
                    }
                }
            } else {
                let mut x = seed;
                for _ in 0..512 {
                    let u = (splitmix(&mut x) % u64::from(n)) as u32;
                    let d = (splitmix(&mut x) % u64::from(n)) as u32;
                    check(u, d);
                }
            }
        }
    }
}
