//! Reference model of the packet engine (`ipg_sim::engine`).
//!
//! One cycle: apply the kills due now, let every live node whose pending
//! injection falls due inject (node order; [`super::Injection`]), let
//! every link launch its head packet (CSR order), then handle the
//! packets whose head arrives at the end of the cycle (launch order).
//! A link with service interval `k` carrying `L`-flit messages is busy
//! for `k·L` cycles per packet; the head arrives after `k·L` cycles with
//! store-and-forward and after `k` with cut-through, where the tail
//! catches up once at the destination.

use ipg_core::fault::FaultView;
use ipg_core::graph::Csr;
use ipg_sim::fault::{FaultKind, FaultPlan};
use ipg_sim::rng::{node_stream, NodeRng};
use ipg_sim::{Router, SimConfig, SimResult, Switching, Traffic};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

use super::Injection;

#[derive(Clone, Copy)]
struct Packet {
    dst: u32,
    born: u32,
    /// Injected during the measurement window.
    tagged: bool,
}

struct Link {
    to: u32,
    interval: u32,
    /// First cycle at which the link may launch again (exact: a link
    /// busy past the last `u32` cycle never launches again).
    free_at: u64,
    dead: bool,
    fifo: VecDeque<Packet>,
}

struct Model<'a, R: ?Sized> {
    router: &'a R,
    /// `Some` whenever a fault plan is installed, even an empty one:
    /// routing then goes through `next_hop_faulted`.
    view: Option<FaultView>,
    /// Node `u`'s outgoing links are `links[first[u]..first[u + 1]]`.
    first: Vec<usize>,
    links: Vec<Link>,
    /// Tagged packets dropped by the fault campaign.
    dropped: u64,
}

impl<R: Router + ?Sized> Model<'_, R> {
    /// The first link `u -> v` in CSR order.
    fn link(&self, u: u32, v: u32) -> usize {
        (self.first[u as usize]..self.first[u as usize + 1])
            .find(|&li| self.links[li].to == v)
            .expect("routers only emit neighbours")
    }

    fn node_dead(&self, v: u32) -> bool {
        self.view.as_ref().is_some_and(|view| view.node_dead(v))
    }

    fn drop_packet(&mut self, p: Packet) {
        if p.tagged {
            self.dropped += 1;
        }
    }

    /// Queue `p` at node `at` on the link toward its next hop, or drop it
    /// when the faulted graph offers none.
    fn route(&mut self, at: u32, p: Packet) {
        let hop = match &self.view {
            Some(view) => self.router.next_hop_faulted(at, p.dst, view),
            None => Some(self.router.next_hop(at, p.dst).expect("connected graph")),
        };
        match hop {
            Some(h) => {
                let li = self.link(at, h);
                self.links[li].fifo.push_back(p);
            }
            None => self.drop_packet(p),
        }
    }

    /// The arc `u -> v` dies: its queued packets are re-routed at `u`, in
    /// queue order.
    fn kill_arc(&mut self, u: u32, v: u32) {
        let li = self.link(u, v);
        if std::mem::replace(&mut self.links[li].dead, true) {
            return;
        }
        for p in std::mem::take(&mut self.links[li].fifo) {
            self.route(u, p);
        }
    }

    /// Node `v` dies: its outgoing links stop and their queues are lost.
    fn kill_node(&mut self, v: u32) {
        for li in self.first[v as usize]..self.first[v as usize + 1] {
            self.links[li].dead = true;
            for p in std::mem::take(&mut self.links[li].fifo) {
                self.drop_packet(p);
            }
        }
    }
}

/// A uniformly random node other than `src`.
fn uniform(n: u32, src: u32, rng: &mut NodeRng) -> u32 {
    let d = rng.gen_range(0..n - 1);
    d + u32::from(d >= src)
}

/// The destination of a packet injected at `src`, drawn from `src`'s own
/// stream; `None` when the pattern maps `src` to itself.
fn destination(n: u32, src: u32, traffic: Traffic, rng: &mut NodeRng) -> Option<u32> {
    let half = n.trailing_zeros() / 2;
    let dst = match traffic {
        Traffic::Uniform => uniform(n, src, rng),
        Traffic::Hotspot { fraction, target } => {
            if rng.gen::<f64>() < fraction && target != src {
                target
            } else {
                uniform(n, src, rng)
            }
        }
        Traffic::BitComplement => (n - 1) ^ src,
        Traffic::Transpose => (src % (1 << half)) << half | src >> half,
    };
    (dst != src).then_some(dst)
}

/// Run `cfg` on `g` with `module(u)` classing links as on- or off-module,
/// next hops from `router` and, when given, the kills of `plan`.
pub fn run<R: Router + ?Sized>(
    g: &Csr,
    module: impl Fn(u32) -> u32,
    cfg: &SimConfig,
    router: &R,
    plan: Option<&FaultPlan>,
) -> SimResult {
    let n = g.node_count() as u32;
    if matches!(cfg.traffic, Traffic::BitComplement | Traffic::Transpose) {
        assert!(n.is_power_of_two(), "permutation traffic needs 2^k nodes");
    }
    let flits = cfg.message_length.max(1);
    let mut first = vec![0];
    let mut links = Vec::new();
    for u in 0..n {
        for &v in g.neighbors(u) {
            let interval = if module(u) == module(v) {
                cfg.on_module_interval
            } else {
                cfg.off_module_interval
            };
            links.push(Link {
                to: v,
                interval: interval.max(1),
                free_at: 0,
                dead: false,
                fifo: VecDeque::new(),
            });
        }
        first.push(links.len());
    }
    let mut m = Model {
        router,
        view: plan.map(|_| FaultView::new(n as usize)),
        first,
        links,
        dropped: 0,
    };
    let mut rngs: Vec<NodeRng> = (0..n).map(|v| node_stream(cfg.seed, v)).collect();
    let mut injection = Injection::new(n, cfg.injection_rate);
    let window = cfg.warmup_cycles..cfg.warmup_cycles + cfg.measure_cycles;
    let cycles = window.end + cfg.drain_cycles;
    let tail = match cfg.switching {
        Switching::StoreForward => 0,
        Switching::CutThrough => (flits - 1) * cfg.on_module_interval,
    };
    // Packets in flight, by the cycle their head arrives at `to`.
    let mut arrivals: BTreeMap<u32, Vec<(u32, Packet)>> = BTreeMap::new();
    let (mut injected, mut delivered, mut unmeasured) = (0u64, 0u64, 0u64);
    let (mut latency_sum, mut max_latency) = (0u64, 0u32);
    let mut applied = 0;
    for cycle in 0..cycles {
        if let (Some(plan), Some(view)) = (plan, m.view.as_mut()) {
            let from = applied;
            plan.apply_due(&mut applied, cycle, view);
            for ev in &plan.events()[from..applied] {
                match ev.kind {
                    FaultKind::Link(u, v) => {
                        m.kill_arc(u, v);
                        m.kill_arc(v, u);
                    }
                    FaultKind::Node(v) => m.kill_node(v),
                }
            }
        }
        for src in 0..n {
            if m.node_dead(src) {
                continue; // dead nodes never draw again
            }
            let rng = &mut rngs[src as usize];
            if !injection.fires(src, cycle, rng) {
                continue;
            }
            let dst = destination(n, src, cfg.traffic, rng);
            injection.rearm(src, cycle, rng);
            let Some(dst) = dst else {
                continue;
            };
            let tagged = window.contains(&cycle);
            injected += u64::from(tagged);
            m.route(
                src,
                Packet {
                    dst,
                    born: cycle,
                    tagged,
                },
            );
        }
        for l in &mut m.links {
            if l.dead || l.free_at > u64::from(cycle) {
                continue;
            }
            let Some(p) = l.fifo.pop_front() else {
                continue;
            };
            l.free_at = u64::from(cycle) + u64::from(l.interval) * u64::from(flits);
            let head = match cfg.switching {
                Switching::StoreForward => l.interval * flits,
                Switching::CutThrough => l.interval,
            };
            arrivals.entry(cycle + head).or_default().push((l.to, p));
        }
        for (at, p) in arrivals.remove(&(cycle + 1)).unwrap_or_default() {
            if m.node_dead(at) {
                m.drop_packet(p);
            } else if at != p.dst {
                m.route(at, p);
            } else if p.tagged {
                delivered += 1;
                let latency = cycle + 1 - p.born + tail;
                latency_sum += u64::from(latency);
                max_latency = max_latency.max(latency);
            } else {
                unmeasured += 1;
            }
        }
    }
    let queued = m.links.iter().flat_map(|l| l.fifo.iter());
    let moving = arrivals.values().flatten().map(|(_, p)| p);
    let in_flight = queued.chain(moving).filter(|p| p.tagged).count() as u64;
    SimResult {
        injected,
        delivered,
        unmeasured_delivered: unmeasured,
        in_flight_at_end: in_flight,
        dropped_unreachable: m.dropped,
        avg_latency: if delivered == 0 {
            0.0
        } else {
            latency_sum as f64 / delivered as f64
        },
        max_latency,
        throughput: delivered as f64 / (f64::from(n) * f64::from(cfg.measure_cycles)),
        cycles,
    }
}
