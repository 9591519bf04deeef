//! Solving the ball-arrangement game directly: shortest generator
//! sequences between two labels *without* materializing the IP graph.
//!
//! Bidirectional breadth-first search over labels: expand frontiers from
//! the source (forward generators) and from the destination (inverse
//! generators) until they meet. Memory and time are `O(b^(d/2))` instead
//! of `O(b^d)` — this answers distance queries on orbits far too large to
//! enumerate (e.g. the 13! pancake graph).

use crate::error::{IpgError, Result};
use crate::label::Label;
use crate::spec::IpGraphSpec;
use crate::util::FxHashMap;
use std::collections::VecDeque;

/// A solution: the generator indices transforming `src` into `dst`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// Generator indices, in application order.
    pub moves: Vec<usize>,
}

impl Solution {
    /// Number of moves (= the distance in the IP graph).
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// True when src == dst.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Check that `moves` really transforms `src` into `dst`.
pub fn verify_solution(spec: &IpGraphSpec, src: &Label, dst: &Label, moves: &[usize]) -> bool {
    let mut cur = src.symbols().to_vec();
    for &m in moves {
        if m >= spec.generators.len() {
            return false;
        }
        cur = spec.generators[m].perm.apply(&cur);
    }
    cur == dst.symbols()
}

/// Find a shortest generator sequence from `src` to `dst`, exploring at
/// most `node_budget` labels (across both frontiers). Errors with
/// [`IpgError::BudgetExceeded`] when the budget runs out and with
/// [`IpgError::UnreachableLabel`], naming both labels and the reason,
/// when the labels hold different symbol multisets or the frontiers
/// exhaust without meeting (different orbits).
pub fn solve(spec: &IpGraphSpec, src: &Label, dst: &Label, node_budget: usize) -> Result<Solution> {
    let k = spec.seed.len();
    if src.len() != k || dst.len() != k {
        return Err(IpgError::UnknownLabel {
            label: format!("{src} / {dst}"),
        });
    }
    let unreachable = |reason| IpgError::UnreachableLabel {
        from: src.to_string(),
        to: dst.to_string(),
        reason,
    };
    if src.multiset_signature() != dst.multiset_signature() {
        return Err(unreachable(
            "the labels hold different symbol multisets, and generators only permute symbols",
        ));
    }
    if src == dst {
        return Ok(Solution { moves: vec![] });
    }
    let fwd_perms: Vec<_> = spec.generators.iter().map(|g| g.perm.clone()).collect();
    let bwd_perms: Vec<_> = fwd_perms.iter().map(|p| p.inverse()).collect();

    // parent maps: label -> (generator idx, parent label, depth)
    type Parents = FxHashMap<Label, (usize, Label, u32)>;
    let mut fwd: Parents = FxHashMap::default();
    let mut bwd: Parents = FxHashMap::default();
    fwd.insert(src.clone(), (usize::MAX, src.clone(), 0));
    bwd.insert(dst.clone(), (usize::MAX, dst.clone(), 0));
    let mut fq: VecDeque<Label> = VecDeque::from([src.clone()]);
    let mut bq: VecDeque<Label> = VecDeque::from([dst.clone()]);

    let reconstruct = |meet: &Label, fwd: &Parents, bwd: &Parents| -> Solution {
        let mut moves = Vec::new();
        // walk back to src
        let mut cur = meet.clone();
        while cur.symbols() != src.symbols() {
            let (gi, parent, _) = fwd[&cur].clone();
            moves.push(gi);
            cur = parent;
        }
        moves.reverse();
        // walk toward dst: bwd expanded with inverse perms, so the stored
        // generator applied at `cur` moves one step closer to dst.
        let mut cur = meet.clone();
        while cur.symbols() != dst.symbols() {
            let (gi, parent, _) = bwd[&cur].clone();
            moves.push(gi);
            cur = parent;
        }
        Solution { moves }
    };

    let mut explored = 2usize;
    let mut scratch = vec![0u8; k];
    loop {
        // expand the smaller frontier one full level; collect every meet
        // in the level and keep the one with the smallest total depth
        // (stopping at the first meet can overshoot by one).
        let expand_fwd = fq.len() <= bq.len();
        let (queue, this, other, perms) = if expand_fwd {
            (&mut fq, &mut fwd, &bwd, &fwd_perms)
        } else {
            (&mut bq, &mut bwd, &fwd, &bwd_perms)
        };
        if queue.is_empty() {
            return Err(unreachable(
                "both search frontiers are exhausted: the labels lie in different orbits",
            ));
        }
        let level = queue.len();
        let mut best: Option<(u32, Label)> = None;
        for _ in 0..level {
            // ipg-analyze: allow(PANIC001) reason="loop runs queue.len() times and only this pop drains it"
            let cur = queue.pop_front().expect("level counted");
            let depth = this[&cur].2 + 1;
            for (gi, p) in perms.iter().enumerate() {
                // probe with the scratch buffer (Label: Borrow<[u8]>) so
                // already-seen candidates cost no allocation
                p.apply_into(cur.symbols(), &mut scratch);
                if this.contains_key(scratch.as_slice()) {
                    continue;
                }
                let next = Label::from(scratch.as_slice());
                explored += 1;
                if explored > node_budget {
                    return Err(IpgError::BudgetExceeded {
                        budget: node_budget,
                    });
                }
                this.insert(next.clone(), (gi, cur.clone(), depth));
                if let Some(&(_, _, od)) = other.get(&next) {
                    let total = depth + od;
                    if best.as_ref().map(|(b, _)| total < *b).unwrap_or(true) {
                        best = Some((total, next.clone()));
                    }
                }
                queue.push_back(next);
            }
        }
        if let Some((_, meet)) = best {
            let sol = reconstruct(&meet, &fwd, &bwd);
            debug_assert!(verify_solution(spec, src, dst, &sol.moves));
            return Ok(sol);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use crate::spec::IpGraphSpec;

    #[test]
    fn solves_star_to_identity() {
        let spec = IpGraphSpec::star(6);
        let src = Label::parse("654321").unwrap();
        let dst = Label::parse("123456").unwrap();
        let sol = solve(&spec, &src, &dst, 1_000_000).unwrap();
        assert!(verify_solution(&spec, &src, &dst, &sol.moves));
        // star distance of the full reversal 654321 is 7 (checked against
        // the BFS on the full graph below)
        let ip = spec.generate().unwrap();
        let g = ip.to_directed_csr();
        let d = algo::bfs(&g, ip.node_of(&src).unwrap());
        assert_eq!(sol.len(), d[ip.node_of(&dst).unwrap() as usize] as usize);
    }

    #[test]
    fn all_pairs_match_bfs_on_small_graph() {
        let spec = IpGraphSpec::star(5);
        let ip = spec.generate().unwrap();
        let g = ip.to_directed_csr();
        for u in (0..120u32).step_by(17) {
            let d = algo::bfs(&g, u);
            for v in (0..120u32).step_by(13) {
                let sol = solve(&spec, ip.label(u), ip.label(v), 1_000_000).unwrap();
                assert_eq!(
                    sol.len(),
                    d[v as usize] as usize,
                    "{} -> {}",
                    ip.label(u),
                    ip.label(v)
                );
            }
        }
    }

    #[test]
    fn solves_on_orbit_too_large_to_enumerate() {
        // pancake graph on 12 symbols: 12! ≈ 4.8e8 nodes — far beyond the
        // budget, but a moderate-distance pair solves quickly.
        let spec = IpGraphSpec::pancake(12);
        let src = Label::parse("123456789abc").unwrap();
        // four prefix flips away
        let mut cur = src.symbols().to_vec();
        for i in [3usize, 7, 5, 10] {
            cur = crate::perm::Perm::flip_prefix(12, i).apply(&cur);
        }
        let dst = Label::from(cur);
        let sol = solve(&spec, &src, &dst, 2_000_000).unwrap();
        assert!(sol.len() <= 4);
        assert!(verify_solution(&spec, &src, &dst, &sol.moves));
    }

    #[test]
    fn different_orbits_unreachable() {
        // Different multisets: refused before any search.
        let spec = IpGraphSpec::star(4);
        let src = Label::parse("1234").unwrap();
        let dst = Label::parse("1123").unwrap();
        let err = solve(&spec, &src, &dst, 1_000).unwrap_err();
        assert!(matches!(err, IpgError::UnreachableLabel { .. }));
        assert_eq!(
            err.to_string(),
            "label `1123` is unreachable from label `1234`: the labels hold different symbol \
             multisets, and generators only permute symbols"
        );

        // Same multiset, but one cyclic shift reaches only the four
        // rotations of the source: the frontiers exhaust.
        let rotate = crate::perm::Perm::from_image(vec![1, 2, 3, 0]).unwrap();
        let spec = IpGraphSpec::new(
            "C4",
            Label::parse("1234").unwrap(),
            vec![crate::spec::Generator::new("r", rotate)],
        )
        .unwrap();
        let dst = Label::parse("2134").unwrap();
        let err = solve(&spec, &src, &dst, 1_000).unwrap_err().to_string();
        assert!(
            err.contains("`2134` is unreachable from label `1234`")
                && err.contains("frontiers are exhausted"),
            "{err}"
        );
    }

    #[test]
    fn budget_errors_cleanly() {
        let spec = IpGraphSpec::pancake(10);
        let src = Label::distinct(10);
        let dst = Label::from(crate::perm::Perm::flip_prefix(10, 10).apply(src.symbols()));
        // flipping all 10 is 1 move; with budget 2 the search cannot even
        // expand a level... budget 3 suffices for depth-1.
        assert!(matches!(
            solve(&spec, &src, &dst, 2),
            Err(IpgError::BudgetExceeded { .. }) | Ok(_)
        ));
    }

    #[test]
    fn identity_is_empty() {
        let spec = IpGraphSpec::star(5);
        let l = Label::distinct(5);
        assert_eq!(solve(&spec, &l, &l, 10).unwrap().len(), 0);
    }

    #[test]
    fn works_with_repeated_symbols() {
        let spec = IpGraphSpec::section2_example();
        let ip = spec.generate().unwrap();
        let g = ip.to_directed_csr();
        let d = algo::bfs(&g, 0);
        for v in 0..36u32 {
            let sol = solve(&spec, ip.label(0), ip.label(v), 100_000).unwrap();
            assert_eq!(sol.len(), d[v as usize] as usize);
        }
    }
}
