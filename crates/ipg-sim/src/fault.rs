//! Deterministic fault plans for the simulation engines.
//!
//! A fault campaign is described twice, at two levels of abstraction:
//!
//! - [`FaultSpec`] is the *declarative* form — what the user writes on the
//!   command line (`--faults <spec>`): scripted link/node kills pinned to
//!   cycles, and/or a rate-based random mode.
//! - [`FaultPlan`] is the *compiled* form — every kill resolved to a
//!   concrete `(cycle, element)` pair, validated against the simulated
//!   graph, canonicalized and sorted. The engines consume only this.
//!
//! The split is what keeps the cycle loops deterministic and lintable:
//! `engine.rs` / `wormhole.rs` never inspect spec-level types or compare
//! cycle numbers against fault constants (ipg-analyze rule DET006 rejects
//! the spec-level type names there outright). They ask the plan "what dies
//! now?" through [`FaultPlan::apply_due`] / [`ShardFaults::next_due`] and
//! apply the answer.
//!
//! # Determinism contract
//!
//! Random mode is expanded at **compile time**, before the first cycle
//! runs, drawing one Bernoulli per node from [`crate::rng::node_stream`]
//! and one per undirected link from [`crate::rng::edge_stream`] under a
//! dedicated fault seed. No draw happens inside the cycle loop, no
//! injection stream is perturbed, and the resulting kill list is a pure
//! function of `(graph, spec, seed)` — so simulation output is
//! byte-identical across `IPG_THREADS` in every fault mode.
//!
//! # Spec syntax
//!
//! ```text
//! script:link@600:0-1+node@700:5      # kill link {0,1} at cycle 600,
//!                                     # node 5 at cycle 700
//! rate:links=0.05,nodes=0.01,at=1000  # each link dies w.p. 0.05 and each
//!                                     # node w.p. 0.01, all at cycle 1000
//! rate:links=0.1,at=0,seed=7          # optional dedicated fault seed
//! script:...+...;rate:...             # both modes, ';'-separated
//! ```
//!
//! `+` separates scripted items and `;` separates sections so a whole spec
//! stays one shell word.

use crate::rng::{edge_stream, node_stream};
use ipg_core::fault::FaultView;
use ipg_core::graph::Csr;
use rand::Rng;

/// What dies: an undirected link (both arcs) or a node.
///
/// Links are stored canonically as `Link(min, max)`. The derive order
/// matters: at equal cycles links die before nodes, so a node kill never
/// shadows a link kill scheduled for the same cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Kill the undirected link `{u, v}` (canonical `u < v`).
    Link(u32, u32),
    /// Kill a node: it stops injecting, delivering, and forwarding.
    Node(u32),
}

/// One scripted kill: `kind` takes effect at the start of `cycle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Cycle at whose start the element dies (before injection).
    pub cycle: u32,
    /// What dies.
    pub kind: FaultKind,
}

/// Rate-based random fault mode: every link/node independently dies with
/// the given probability, all at `at_cycle`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RandomFaults {
    /// Per-link kill probability in `[0, 1]`.
    pub link_rate: f64,
    /// Per-node kill probability in `[0, 1]`.
    pub node_rate: f64,
    /// Cycle at whose start the drawn faults take effect.
    pub at_cycle: u32,
    /// Dedicated fault seed, XORed with the run seed at compile time so
    /// the same campaign can be replayed under different traffic seeds.
    pub seed: u64,
}

impl Default for RandomFaults {
    fn default() -> Self {
        RandomFaults {
            link_rate: 0.0,
            node_rate: 0.0,
            at_cycle: 0,
            seed: 0,
        }
    }
}

/// The declarative form of a fault campaign (see module docs for the
/// `--faults` string syntax).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Scripted kills (any order; compilation sorts them).
    pub events: Vec<FaultEvent>,
    /// Optional rate-based random mode, expanded at compile time.
    pub random: Option<RandomFaults>,
}

impl FaultSpec {
    /// Parse the `--faults` mini-language. Returns a human-readable error
    /// string on malformed input.
    pub fn parse(s: &str) -> std::result::Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for section in s.split(';').filter(|t| !t.trim().is_empty()) {
            let section = section.trim();
            if let Some(body) = section.strip_prefix("script:") {
                for item in body.split('+').filter(|t| !t.is_empty()) {
                    spec.events.push(parse_script_item(item)?);
                }
            } else if let Some(body) = section.strip_prefix("rate:") {
                if spec.random.is_some() {
                    return Err("duplicate rate: section".into());
                }
                spec.random = Some(parse_rate(body)?);
            } else {
                return Err(format!(
                    "fault section must start with script: or rate:, got {section:?}"
                ));
            }
        }
        if spec.events.is_empty() && spec.random.is_none() {
            return Err("empty fault spec".into());
        }
        Ok(spec)
    }
}

/// `link@600:0-1` or `node@700:5`.
fn parse_script_item(item: &str) -> std::result::Result<FaultEvent, String> {
    let (head, ids) = item
        .split_once(':')
        .ok_or_else(|| format!("scripted kill {item:?} needs kind@cycle:ids"))?;
    let (kind, cycle) = head
        .split_once('@')
        .ok_or_else(|| format!("scripted kill {item:?} needs kind@cycle:ids"))?;
    let cycle: u32 = cycle
        .parse()
        .map_err(|_| format!("bad cycle in {item:?}"))?;
    let kind = match kind {
        "link" => {
            let (u, v) = ids
                .split_once('-')
                .ok_or_else(|| format!("link kill {item:?} needs u-v"))?;
            let u: u32 = u.parse().map_err(|_| format!("bad node id in {item:?}"))?;
            let v: u32 = v.parse().map_err(|_| format!("bad node id in {item:?}"))?;
            if u == v {
                return Err(format!("link kill {item:?} is a self-loop"));
            }
            FaultKind::Link(u.min(v), u.max(v))
        }
        "node" => FaultKind::Node(
            ids.parse()
                .map_err(|_| format!("bad node id in {item:?}"))?,
        ),
        other => return Err(format!("unknown fault kind {other:?} in {item:?}")),
    };
    Ok(FaultEvent { cycle, kind })
}

/// `links=0.05,nodes=0.01,at=1000,seed=7` — every key optional.
fn parse_rate(body: &str) -> std::result::Result<RandomFaults, String> {
    let mut rf = RandomFaults::default();
    for kv in body.split(',').filter(|t| !t.is_empty()) {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("rate entry {kv:?} needs key=value"))?;
        match k {
            "links" => rf.link_rate = parse_rate_value(kv, v)?,
            "nodes" => rf.node_rate = parse_rate_value(kv, v)?,
            "at" => rf.at_cycle = v.parse().map_err(|_| format!("bad cycle in {kv:?}"))?,
            "seed" => rf.seed = v.parse().map_err(|_| format!("bad seed in {kv:?}"))?,
            other => return Err(format!("unknown rate key {other:?}")),
        }
    }
    if rf.link_rate == 0.0 && rf.node_rate == 0.0 {
        return Err("rate: section kills nothing (set links= and/or nodes=)".into());
    }
    Ok(rf)
}

fn parse_rate_value(kv: &str, v: &str) -> std::result::Result<f64, String> {
    let rate: f64 = v.parse().map_err(|_| format!("bad rate in {kv:?}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("rate in {kv:?} must be within [0, 1]"));
    }
    Ok(rate)
}

/// A compiled, graph-validated fault campaign: the only form the engines
/// accept. Events are canonical (`Link(min, max)`), deduplicated, and
/// sorted by `(cycle, kind)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    n: u32,
    events: Vec<FaultEvent>,
}

/// Salt separating compile-time fault draws from every in-cycle stream of
/// the same run seed.
const FAULT_SEED_SALT: u64 = 0xfa17_5eed_0000_0001;

impl FaultPlan {
    /// Compile `spec` against graph `g` under the run seed.
    ///
    /// Validates every scripted id (node in range, link present in `g`),
    /// expands the random mode with one compile-time Bernoulli per
    /// node/undirected link, canonicalizes, dedups, and sorts. The result
    /// is a pure function of `(g, spec, sim_seed)`.
    pub fn compile(
        spec: &FaultSpec,
        g: &Csr,
        sim_seed: u64,
    ) -> std::result::Result<FaultPlan, String> {
        let n = g.node_count() as u32;
        let mut events = Vec::with_capacity(spec.events.len());
        for ev in &spec.events {
            match ev.kind {
                FaultKind::Node(v) => {
                    if v >= n {
                        return Err(format!("node kill {v} out of range (n = {n})"));
                    }
                    events.push(*ev);
                }
                FaultKind::Link(u, v) => {
                    if u >= n || v >= n {
                        return Err(format!("link kill {u}-{v} out of range (n = {n})"));
                    }
                    if !g.has_arc(u, v) || !g.has_arc(v, u) {
                        return Err(format!("link kill {u}-{v} names a non-existent link"));
                    }
                    events.push(FaultEvent {
                        cycle: ev.cycle,
                        kind: FaultKind::Link(u.min(v), u.max(v)),
                    });
                }
            }
        }
        if let Some(rf) = spec.random {
            let seed = sim_seed ^ rf.seed ^ FAULT_SEED_SALT;
            if rf.node_rate > 0.0 {
                for v in 0..n {
                    if node_stream(seed, v).gen::<f64>() < rf.node_rate {
                        events.push(FaultEvent {
                            cycle: rf.at_cycle,
                            kind: FaultKind::Node(v),
                        });
                    }
                }
            }
            if rf.link_rate > 0.0 {
                for (u, v) in g.arcs() {
                    // one draw per undirected link, not per arc
                    if u < v && edge_stream(seed, u, v).gen::<f64>() < rf.link_rate {
                        events.push(FaultEvent {
                            cycle: rf.at_cycle,
                            kind: FaultKind::Link(u, v),
                        });
                    }
                }
            }
        }
        events.sort_unstable();
        events.dedup();
        Ok(FaultPlan { n, events })
    }

    /// A plan that kills nothing (`n` nodes, for API symmetry).
    pub fn empty(n: u32) -> FaultPlan {
        FaultPlan {
            n,
            events: Vec::new(),
        }
    }

    /// Reassemble a plan from an already-compiled kill list, e.g. one
    /// shipped over the distributed frame protocol. The events must come
    /// from [`FaultPlan::events`] of a plan compiled against the same
    /// graph (canonical, deduplicated, `(cycle, kind)`-sorted); this
    /// constructor re-sorts defensively but performs no graph
    /// validation.
    pub fn from_parts(n: u32, mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_unstable();
        events.dedup();
        FaultPlan { n, events }
    }

    /// Node count the plan was compiled against.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// True when the plan schedules no kills.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The compiled kill list, sorted by `(cycle, kind)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Apply every kill due at or before the start of `cycle` to `view`,
    /// advancing `cursor`. Called sequentially by the run coordinator
    /// before Phase A, so worker threads only ever read a settled view.
    pub fn apply_due(&self, cursor: &mut usize, cycle: u32, view: &mut FaultView) {
        while let Some(ev) = self.events.get(*cursor) {
            if ev.cycle > cycle {
                break;
            }
            // Type-qualified: the call graph resolves bare `.kill_link` by name.
            match ev.kind {
                FaultKind::Link(u, v) => FaultView::kill_link(view, u, v),
                FaultKind::Node(v) => FaultView::kill_node(view, v),
            }
            *cursor += 1;
        }
    }

    /// Project the plan onto one shard's contiguous node range
    /// `[base, base + node_count)`. Node kills become local node indices;
    /// each endpoint of a killed link that the shard owns becomes the
    /// local index of its outgoing link, resolved through `link_index`
    /// (the shard's `u -> v` link lookup). Events stay in plan order, so
    /// the projection is deterministic and already due-sorted.
    pub fn shard_events(
        &self,
        base: u32,
        node_count: u32,
        mut link_index: impl FnMut(u32, u32) -> u32,
    ) -> ShardFaults {
        let hi = base + node_count;
        let mut events = Vec::new();
        for ev in &self.events {
            match ev.kind {
                FaultKind::Node(v) => {
                    if (base..hi).contains(&v) {
                        events.push((ev.cycle, LocalFault::Node(v - base)));
                    }
                }
                FaultKind::Link(u, v) => {
                    if (base..hi).contains(&u) {
                        events.push((ev.cycle, LocalFault::Link(link_index(u, v))));
                    }
                    if (base..hi).contains(&v) {
                        events.push((ev.cycle, LocalFault::Link(link_index(v, u))));
                    }
                }
            }
        }
        ShardFaults { events, cursor: 0 }
    }
}

/// A kill projected into one shard's local index space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalFault {
    /// Shard-local outgoing-link index (into the shard's link arrays).
    Link(u32),
    /// Shard-local node index (`global - base`).
    Node(u32),
}

/// One shard's slice of a [`FaultPlan`]: a pre-sorted local kill list
/// with a cursor, drained by the shard at the start of each Phase A.
#[derive(Clone, Debug, Default)]
pub struct ShardFaults {
    events: Vec<(u32, LocalFault)>,
    cursor: usize,
}

impl ShardFaults {
    /// Next kill due at or before the start of `cycle`, if any. Advances
    /// the cursor; call in a loop to drain a cycle's kills.
    #[inline]
    pub fn next_due(&mut self, cycle: u32) -> Option<LocalFault> {
        match self.events.get(self.cursor) {
            Some(&(c, f)) if c <= cycle => {
                self.cursor += 1;
                Some(f)
            }
            _ => None,
        }
    }

    /// Rewind for a fresh run.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// True when the shard has no kills at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_networks::classic;

    #[test]
    fn parse_scripted_and_rate_sections() {
        let spec = FaultSpec::parse("script:link@600:9-0+node@700:5;rate:links=0.05,at=1000")
            .expect("valid spec");
        assert_eq!(
            spec.events,
            vec![
                FaultEvent {
                    cycle: 600,
                    kind: FaultKind::Link(0, 9)
                },
                FaultEvent {
                    cycle: 700,
                    kind: FaultKind::Node(5)
                },
            ]
        );
        let rf = spec.random.expect("rate section");
        assert_eq!(rf.link_rate, 0.05);
        assert_eq!(rf.node_rate, 0.0);
        assert_eq!(rf.at_cycle, 1000);

        for bad in [
            "",
            "script:",
            "script:link@600:3",
            "script:node@x:3",
            "script:gnome@5:3",
            "script:link@5:3-3",
            "rate:",
            "rate:links=1.5",
            "rate:bogus=1",
            "faults:everywhere",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn compile_validates_sorts_and_dedups() {
        let g = classic::ring(8);
        let spec = FaultSpec::parse("script:node@700:5+link@600:1-0+link@600:0-1").unwrap();
        let plan = FaultPlan::compile(&spec, &g, 42).unwrap();
        assert_eq!(
            plan.events(),
            &[
                FaultEvent {
                    cycle: 600,
                    kind: FaultKind::Link(0, 1)
                },
                FaultEvent {
                    cycle: 700,
                    kind: FaultKind::Node(5)
                },
            ]
        );

        let bad_node = FaultSpec::parse("script:node@0:99").unwrap();
        assert!(FaultPlan::compile(&bad_node, &g, 42).is_err());
        let bad_link = FaultSpec::parse("script:link@0:0-4").unwrap();
        assert!(
            FaultPlan::compile(&bad_link, &g, 42).is_err(),
            "0-4 is not a ring link"
        );
    }

    #[test]
    fn random_mode_is_deterministic_and_rate_shaped() {
        let g = classic::hypercube(8); // 256 nodes, 1024 links
        let spec = FaultSpec::parse("rate:links=0.25,nodes=0.1,at=50").unwrap();
        let a = FaultPlan::compile(&spec, &g, 7).unwrap();
        let b = FaultPlan::compile(&spec, &g, 7).unwrap();
        assert_eq!(a, b, "same (graph, spec, seed) must compile identically");
        let c = FaultPlan::compile(&spec, &g, 8).unwrap();
        assert_ne!(a, c, "the run seed participates in fault draws");

        let links = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Link(..)))
            .count();
        let nodes = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Node(..)))
            .count();
        assert!((150..=350).contains(&links), "links killed: {links}");
        assert!((10..=45).contains(&nodes), "nodes killed: {nodes}");
        assert!(a.events().iter().all(|e| e.cycle == 50));

        // a dedicated fault seed changes the draw under the same run seed
        let reseeded = FaultSpec::parse("rate:links=0.25,nodes=0.1,at=50,seed=9").unwrap();
        let d = FaultPlan::compile(&reseeded, &g, 7).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn apply_due_and_shard_projection() {
        let g = classic::ring(8);
        let spec = FaultSpec::parse("script:link@2:1-2+node@5:6+node@2:1").unwrap();
        let plan = FaultPlan::compile(&spec, &g, 0).unwrap();

        let mut view = FaultView::new(8);
        let mut cursor = 0;
        plan.apply_due(&mut cursor, 0, &mut view);
        assert!(view.is_empty());
        plan.apply_due(&mut cursor, 2, &mut view);
        assert!(view.arc_dead(1, 2) && view.node_dead(1) && !view.node_dead(6));
        plan.apply_due(&mut cursor, 5, &mut view);
        assert!(view.node_dead(6));

        // shard [4, 8): sees node 6 and neither endpoint of link {1, 2}
        let upper = plan.shard_events(4, 4, |_, _| unreachable!("no local links die"));
        assert_eq!(upper.events, vec![(5, LocalFault::Node(2))]);
        // shard [0, 4): link {1, 2} owns both endpoints → two local links
        let mut lower = plan.shard_events(0, 4, |u, v| u * 10 + v);
        assert_eq!(
            lower.events,
            vec![
                (2, LocalFault::Link(12)),
                (2, LocalFault::Link(21)),
                (2, LocalFault::Node(1)),
            ]
        );
        assert_eq!(lower.next_due(1), None);
        assert_eq!(lower.next_due(2), Some(LocalFault::Link(12)));
        assert_eq!(lower.next_due(2), Some(LocalFault::Link(21)));
        assert_eq!(lower.next_due(2), Some(LocalFault::Node(1)));
        assert_eq!(lower.next_due(2), None);
        lower.reset();
        assert_eq!(lower.next_due(2), Some(LocalFault::Link(12)));
    }
}
