//! Shortest-path next-hop routing tables.
//!
//! For each (node, destination) pair we store one next hop lying on a
//! shortest path. Ties are broken by a deterministic hash of (node,
//! destination), spreading traffic across equivalent paths without
//! per-packet randomness.

use ipg_core::algo;
use ipg_core::graph::Csr;
use ipg_obs::Obs;

/// Dense next-hop table: `next[u·n + d]` is the neighbor of `u` on a
/// shortest path to `d` (or `u` itself when `u == d` / unreachable).
pub struct RoutingTable {
    n: usize,
    next: Vec<u32>,
}

impl RoutingTable {
    /// Build from all-destinations BFS on the reversed graph. `O(n·m)`
    /// time, `O(n²)` space — sized for simulation-scale networks
    /// (≤ ~20k nodes).
    pub fn new(g: &Csr) -> Self {
        Self::new_instrumented(g, &Obs::disabled())
    }

    /// [`RoutingTable::new`] with observability: a `table_build` span,
    /// node/entry counters, and a per-destination BFS counter.
    pub fn new_instrumented(g: &Csr, obs: &Obs) -> Self {
        let _span = obs.span("table_build");
        let n = g.node_count();
        assert!(n <= 65_536, "routing table is O(n^2); graph too large");
        obs.counter("table.nodes").add(n as u64);
        obs.counter("table.arcs").add(g.arc_count() as u64);
        obs.counter("table.entries").add((n * n) as u64);
        let bfs_runs = obs.counter("table.bfs_runs");
        // borrow the input directly when symmetric — no O(n+m) clone
        let rev_storage;
        let rev = if g.is_symmetric() {
            g
        } else {
            rev_storage = g.reversed();
            &rev_storage
        };
        let mut next = vec![0u32; n * n];
        for d in 0..n as u32 {
            bfs_runs.incr();
            // dist[u] = distance from u to d (BFS from d over reversed arcs)
            let dist = algo::bfs(rev, d);
            for u in 0..n as u32 {
                if u == d || dist[u as usize] == algo::UNREACHABLE {
                    next[u as usize * n + d as usize] = u;
                    continue;
                }
                let du = dist[u as usize];
                // collect min-distance successors; pick by hash
                let mut count = 0u32;
                for &v in g.neighbors(u) {
                    if dist[v as usize].checked_add(1) == Some(du) {
                        count += 1;
                    }
                }
                debug_assert!(count > 0);
                let pick = mix(u as u64, d as u64) % count as u64;
                let mut seen = 0u64;
                for &v in g.neighbors(u) {
                    if dist[v as usize].checked_add(1) == Some(du) {
                        if seen == pick {
                            next[u as usize * n + d as usize] = v;
                            break;
                        }
                        seen += 1;
                    }
                }
            }
        }
        RoutingTable { n, next }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The next hop from `u` toward `d`.
    #[inline]
    pub fn next_hop(&self, u: u32, d: u32) -> u32 {
        self.next[u as usize * self.n + d as usize]
    }

    /// Full path `u -> d` following the table. The sentinel encoding
    /// (`next[u][d] == u`) means "unreachable" for `u != d` — e.g. after
    /// fault-masking disconnects the graph — and is reported as
    /// [`ipg_core::IpgError::Unreachable`] instead of silently returning a
    /// truncated path.
    pub fn path(&self, u: u32, d: u32) -> ipg_core::Result<Vec<u32>> {
        let mut path = vec![u];
        let mut cur = u;
        while cur != d {
            let nxt = self.next_hop(cur, d);
            if nxt == cur {
                return Err(ipg_core::IpgError::Unreachable { from: u, to: d });
            }
            cur = nxt;
            path.push(cur);
        }
        Ok(path)
    }
}

#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Csr {
        Csr::from_fn(n, |u, out| {
            out.push((u + 1) % n as u32);
            out.push((u + n as u32 - 1) % n as u32);
        })
    }

    #[test]
    fn paths_are_shortest() {
        let g = cycle(8);
        let t = RoutingTable::new(&g);
        for u in 0..8u32 {
            let d = algo::bfs(&g, u);
            for v in 0..8u32 {
                let p = t.path(u, v).unwrap();
                assert_eq!(p.len() - 1, d[v as usize] as usize, "{u}->{v}");
                for w in p.windows(2) {
                    assert!(g.has_arc(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let g = cycle(5);
        let t = RoutingTable::new(&g);
        assert_eq!(t.path(3, 3).unwrap(), vec![3]);
    }

    #[test]
    fn for_super_ip_matches_codec_graph() {
        use ipg_core::superip::{NucleusSpec, SuperIpSpec};
        let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(2));
        let g = spec.fast_undirected_csr().unwrap();
        let t = RoutingTable::new(&g);
        assert_eq!(t.node_count(), 16);
        // every next hop is a real link on a shortest path
        for u in 0..16u32 {
            let d = algo::bfs(&g, u);
            for v in 0..16u32 {
                let p = t.path(v, u).unwrap();
                assert_eq!(p.len() - 1, d[v as usize] as usize);
            }
        }
    }

    #[test]
    fn tie_breaking_spreads() {
        // On C4, opposite nodes have two equal paths; different (u,d)
        // pairs should not all pick the same direction.
        let g = cycle(4);
        let t = RoutingTable::new(&g);
        let picks: Vec<u32> = (0..4u32).map(|u| t.next_hop(u, (u + 2) % 4)).collect();
        let clockwise = picks
            .iter()
            .zip(0..4u32)
            .filter(|&(&p, u)| p == (u + 1) % 4)
            .count();
        assert!(clockwise > 0 && clockwise < 4, "picks {picks:?}");
    }

    #[test]
    fn neighbours_that_reach_nothing_are_skipped_without_overflow() {
        // Directed and not strongly connected: 0 → {1, 2}, 1 → 0, and
        // node 2 has no out-arcs, so its distance to every other node is
        // UNREACHABLE. Scanning 0's successors toward 1 must step over it.
        let g = Csr::from_edges(3, [(0, 1), (0, 2), (1, 0)], false);
        let t = RoutingTable::new(&g);
        assert_eq!(t.path(0, 1).unwrap(), vec![0, 1]);
        assert_eq!(t.path(1, 2).unwrap(), vec![1, 0, 2]);
        assert!(t.path(2, 0).is_err());
    }

    #[test]
    fn unreachable_destination_is_an_error_not_a_loop() {
        // Fault-masked graph: two C4 components with no links between them
        // (nodes 0..4 and 4..8), as produced by masking every cross-cluster
        // link out of a C8. Before the fix, `path` returned a silently
        // truncated path; now it must report Unreachable — and terminate.
        let g = Csr::from_fn(8, |u, out| {
            let base = u & !3;
            out.push(base + ((u + 1) & 3));
            out.push(base + ((u + 3) & 3));
        });
        let t = RoutingTable::new(&g);
        // in-component routing still works
        assert_eq!(t.path(0, 2).unwrap().len(), 3);
        assert_eq!(t.path(5, 6).unwrap(), vec![5, 6]);
        // cross-component routing errors out
        match t.path(1, 6) {
            Err(ipg_core::IpgError::Unreachable { from: 1, to: 6 }) => {}
            other => panic!("expected Unreachable, got {other:?}"),
        }
        match t.path(7, 0) {
            Err(ipg_core::IpgError::Unreachable { from: 7, to: 0 }) => {}
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }
}
