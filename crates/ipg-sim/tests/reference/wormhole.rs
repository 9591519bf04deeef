//! Reference model of the wormhole engine (`ipg_sim::wormhole`).
//!
//! One cycle: apply the kills due now, let every live node whose pending
//! injection falls due inject (node order; [`super::Injection`]), step
//! every link once (CSR order), then eject every flit that has reached
//! its destination. A link step probes its VCs round-robin
//! from the one after its last winner and moves one flit into the first
//! VC buffer with room that either continues the packet owning it or is
//! free and wanted by a head flit at the link's source. A flit moved to
//! a higher-numbered node can move again later in the same cycle. Kills
//! destroy every packet with a flit on (or owning) a dead link.

use ipg_core::fault::FaultView;
use ipg_core::graph::Csr;
use ipg_sim::fault::{FaultKind, FaultPlan};
use ipg_sim::rng::node_stream;
use ipg_sim::wormhole::{VcPolicy, WormTraffic, WormholeConfig, WormholeOutcome, WormholeStats};
use ipg_sim::Router;
use rand::Rng;
use std::collections::VecDeque;

use super::Injection;

#[derive(Clone, Copy)]
struct Flit {
    pkt: u32,
    head: bool,
    tail: bool,
}

struct Packet {
    dst: u32,
    born: u32,
    /// Links the head flit has crossed.
    hops: u32,
}

struct Model<'a, R: ?Sized> {
    cfg: &'a WormholeConfig,
    router: &'a R,
    /// `Some` whenever a fault plan is installed.
    view: Option<FaultView>,
    from: Vec<u32>,
    to: Vec<u32>,
    /// Node `u`'s outgoing links are `first[u]..first[u + 1]`.
    first: Vec<usize>,
    /// Incoming links per node, ascending.
    inputs: Vec<Vec<usize>>,
    dead: Vec<bool>,
    /// `bufs[link * vcs + vc]`: that VC's input buffer at `to[link]`.
    bufs: Vec<VecDeque<Flit>>,
    /// The packet holding each VC from its head to its tail.
    owner: Vec<Option<u32>>,
    /// Per link: the VC probed first.
    rr: Vec<usize>,
    packets: Vec<Packet>,
    /// Per node: `(packet, flits not yet sent)`, oldest first.
    source: Vec<VecDeque<(u32, u32)>>,
    dropped: u64,
}

impl<R: Router + ?Sized> Model<'_, R> {
    fn link(&self, u: u32, v: u32) -> usize {
        (self.first[u as usize]..self.first[u as usize + 1])
            .find(|&li| self.to[li] == v)
            .expect("routers only emit neighbours")
    }

    fn route(&self, u: u32, d: u32) -> Option<u32> {
        match &self.view {
            Some(view) => self.router.next_hop_faulted(u, d, view),
            None => Some(self.router.next_hop(u, d).expect("connected graph")),
        }
    }

    fn vc_for(&self, hops: u32) -> usize {
        match self.cfg.policy {
            VcPolicy::Single => 0,
            VcPolicy::HopIndexed => (hops as usize).min(self.cfg.vcs - 1),
        }
    }

    /// Destroy every packet in `doomed`: its flits, VC ownerships and
    /// unsent flits vanish, and each counts as dropped once.
    fn purge(&mut self, mut doomed: Vec<u32>) {
        doomed.sort_unstable();
        doomed.dedup();
        let gone = |p: u32| doomed.binary_search(&p).is_ok();
        for (buf, owner) in self.bufs.iter_mut().zip(&mut self.owner) {
            if owner.is_some_and(gone) {
                *owner = None;
            }
            buf.retain(|f| !gone(f.pkt));
        }
        for q in &mut self.source {
            q.retain(|&(p, _)| !gone(p));
        }
        self.dropped += doomed.len() as u64;
    }

    fn kill_link(&mut self, li: usize) {
        if std::mem::replace(&mut self.dead[li], true) {
            return;
        }
        let vcs = li * self.cfg.vcs..(li + 1) * self.cfg.vcs;
        let owners = self.owner[vcs.clone()].iter().flatten().copied();
        let queued = self.bufs[vcs].iter().flatten().map(|f| f.pkt);
        let doomed = owners.chain(queued).collect();
        self.purge(doomed);
    }

    /// The next flit of the packet at the front of `u`'s source queue: of
    /// `want` when given, else only the head of an unsent packet.
    fn pop_source(&mut self, u: u32, want: Option<u32>) -> Option<Flit> {
        let flits = self.cfg.packet_flits;
        let q = &mut self.source[u as usize];
        let &(pkt, left) = q.front()?;
        if want.map_or(left != flits, |w| w != pkt) {
            return None;
        }
        if left == 1 {
            q.pop_front();
        } else {
            q[0].1 -= 1;
        }
        Some(Flit {
            pkt,
            head: left == flits,
            tail: left == 1,
        })
    }

    /// Move `flit` across `link` into VC `vc`'s buffer.
    fn send(&mut self, link: usize, vc: usize, flit: Flit) -> bool {
        let slot = link * self.cfg.vcs + vc;
        if flit.head {
            self.packets[flit.pkt as usize].hops += 1;
        }
        self.owner[slot] = (!flit.tail).then_some(flit.pkt);
        self.bufs[slot].push_back(flit);
        true
    }

    /// The free VC `vc` of `link` goes to a head flit at `u` routed there:
    /// first an unsent packet at the source, then the head flits at the
    /// fronts of `u`'s input buffers, in link and VC order.
    fn allocate(&mut self, link: usize, vc: usize, u: u32) -> bool {
        if let Some(&(pkt, left)) = self.source[u as usize].front() {
            if left == self.cfg.packet_flits {
                match self.route(u, self.packets[pkt as usize].dst) {
                    None => {
                        self.source[u as usize].pop_front();
                        self.dropped += 1;
                        return false;
                    }
                    Some(hop) if self.link(u, hop) == link && self.vc_for(0) == vc => {
                        let flit = self.pop_source(u, None).expect("an unsent packet");
                        return self.send(link, vc, flit);
                    }
                    Some(_) => {}
                }
            }
        }
        for i in 0..self.inputs[u as usize].len() {
            let input = self.inputs[u as usize][i];
            for in_vc in 0..self.cfg.vcs {
                let slot = input * self.cfg.vcs + in_vc;
                let Some(&flit) = self.bufs[slot].front() else {
                    continue;
                };
                let p = &self.packets[flit.pkt as usize];
                if !flit.head || p.dst == u {
                    continue;
                }
                let (dst, hops) = (p.dst, p.hops);
                let Some(hop) = self.route(u, dst) else {
                    self.purge(vec![flit.pkt]); // stranded mid-flight
                    continue;
                };
                if self.link(u, hop) == link && self.vc_for(hops) == vc {
                    self.bufs[slot].pop_front();
                    return self.send(link, vc, flit);
                }
            }
        }
        false
    }

    /// VC `vc` of `link` belongs to `pkt`: move its next flit at `u`.
    fn advance(&mut self, link: usize, vc: usize, u: u32, pkt: u32) -> bool {
        if let Some(flit) = self.pop_source(u, Some(pkt)) {
            return self.send(link, vc, flit);
        }
        for i in 0..self.inputs[u as usize].len() {
            let input = self.inputs[u as usize][i];
            for in_vc in 0..self.cfg.vcs {
                let slot = input * self.cfg.vcs + in_vc;
                if self.bufs[slot].front().is_some_and(|f| f.pkt == pkt) {
                    let flit = self.bufs[slot].pop_front().expect("front checked");
                    return self.send(link, vc, flit);
                }
            }
        }
        false
    }

    /// Move at most one flit across `link`.
    fn step(&mut self, link: usize) -> bool {
        if self.dead[link] {
            return false;
        }
        let (u, vcs) = (self.from[link], self.cfg.vcs);
        for probe in 0..vcs {
            let vc = (self.rr[link] + probe) % vcs;
            let slot = link * vcs + vc;
            if self.bufs[slot].len() >= self.cfg.buffer_flits {
                continue; // no credit downstream
            }
            let moved = match self.owner[slot] {
                None => self.allocate(link, vc, u),
                Some(pkt) => self.advance(link, vc, u, pkt),
            };
            if moved {
                self.rr[link] = (vc + 1) % vcs;
                return true;
            }
        }
        false
    }
}

/// Run `cfg` on `g` with next hops from `router` and, when given, the
/// kills of `plan`.
pub fn run<R: Router + ?Sized>(
    g: &Csr,
    cfg: &WormholeConfig,
    router: &R,
    plan: Option<&FaultPlan>,
) -> WormholeOutcome {
    let n = g.node_count() as u32;
    let (mut from, mut to, mut first) = (Vec::new(), Vec::new(), vec![0]);
    let mut inputs = vec![Vec::new(); n as usize];
    for u in 0..n {
        for &v in g.neighbors(u) {
            inputs[v as usize].push(to.len());
            from.push(u);
            to.push(v);
        }
        first.push(to.len());
    }
    let links = to.len();
    let mut m = Model {
        cfg,
        router,
        view: plan.map(|_| FaultView::new(n as usize)),
        from,
        to,
        first,
        inputs,
        dead: vec![false; links],
        bufs: vec![VecDeque::new(); links * cfg.vcs],
        owner: vec![None; links * cfg.vcs],
        rr: vec![0; links],
        packets: Vec::new(),
        source: vec![VecDeque::new(); n as usize],
        dropped: 0,
    };
    let mut rngs: Vec<_> = (0..n).map(|v| node_stream(cfg.seed, v)).collect();
    let mut injection = Injection::new(n, cfg.injection_rate);
    let (mut injected, mut delivered, mut latency_sum) = (0u64, 0u64, 0u64);
    let (mut applied, mut idle) = (0, 0);
    for cycle in 0..cfg.cycles {
        if let (Some(plan), Some(view)) = (plan, m.view.as_mut()) {
            let before = applied;
            plan.apply_due(&mut applied, cycle, view);
            for ev in &plan.events()[before..applied] {
                match ev.kind {
                    FaultKind::Link(u, v) => {
                        m.kill_link(m.link(u, v));
                        m.kill_link(m.link(v, u));
                    }
                    FaultKind::Node(v) => {
                        for li in m.first[v as usize]..m.first[v as usize + 1] {
                            m.kill_link(li);
                        }
                        for i in 0..m.inputs[v as usize].len() {
                            m.kill_link(m.inputs[v as usize][i]);
                        }
                        let unsent = m.source[v as usize].iter().map(|&(p, _)| p).collect();
                        m.purge(unsent);
                    }
                }
            }
        }
        for src in 0..n {
            if m.view.as_ref().is_some_and(|view| view.node_dead(src)) {
                continue; // dead nodes never draw again
            }
            let rng = &mut rngs[src as usize];
            if !injection.fires(src, cycle, rng) {
                continue;
            }
            let dst = match &cfg.traffic {
                WormTraffic::Uniform => {
                    let d = rng.gen_range(0..n - 1);
                    d + u32::from(d >= src)
                }
                WormTraffic::Fixed(map) => map[src as usize],
            };
            injection.rearm(src, cycle, rng);
            if dst == src {
                continue;
            }
            injected += 1;
            if m.view.is_some() && m.route(src, dst).is_none() {
                m.dropped += 1; // refused: no route on the faulted graph
                continue;
            }
            m.source[src as usize].push_back((m.packets.len() as u32, cfg.packet_flits));
            m.packets.push(Packet {
                dst,
                born: cycle,
                hops: 0,
            });
        }
        let mut moved = false;
        for link in 0..links {
            moved |= m.step(link);
        }
        for link in 0..links {
            for slot in link * cfg.vcs..(link + 1) * cfg.vcs {
                while let Some(&flit) = m.bufs[slot].front() {
                    let p = &m.packets[flit.pkt as usize];
                    if p.dst != m.to[link] {
                        break;
                    }
                    if flit.tail {
                        delivered += 1;
                        latency_sum += u64::from(cycle + 1 - p.born);
                    }
                    m.bufs[slot].pop_front();
                    moved = true;
                }
            }
        }
        let buffered: usize = m.bufs.iter().map(VecDeque::len).sum();
        if moved {
            idle = 0;
        } else if buffered > 0 {
            idle += 1;
            if idle >= cfg.deadlock_threshold {
                let mut stuck: Vec<u32> = m.bufs.iter().flatten().map(|f| f.pkt).collect();
                stuck.sort_unstable();
                stuck.dedup();
                return WormholeOutcome::Deadlocked {
                    at_cycle: cycle,
                    stuck_packets: stuck.len(),
                };
            }
        }
    }
    WormholeOutcome::Completed(WormholeStats {
        injected,
        delivered,
        dropped: m.dropped,
        avg_latency: if delivered == 0 {
            0.0
        } else {
            latency_sum as f64 / delivered as f64
        },
    })
}
