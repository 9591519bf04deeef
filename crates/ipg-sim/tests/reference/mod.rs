//! A reference model of both cycle engines, used only by the oracle tests.
//!
//! Each model is one shard stepped by a plain cycle loop: every live node
//! keeps a pending next-injection cycle ([`Injection`]), every link is
//! visited in CSR order, queues are `VecDeque`s, and faults come straight
//! off `FaultPlan::events` / `FaultPlan::apply_due`. The models reach
//! `ipg-sim` only through its public API (the per-node streams, the
//! routers, the compiled fault plan and the config and result types), so
//! the compiler keeps them from sharing any kernel code: a bug in
//! injection, link service, arrival timing, delivery, fault handling or
//! VC allocation shows up as a different result.

pub mod packet;
pub mod wormhole;

use ipg_sim::rng::{NodeRng, SCHEDULE_CHUNK};
use rand::Rng;

/// Injection contract v2, restated cycle-major. At every multiple of
/// `SCHEDULE_CHUNK` each live node draws the gap `k` to its first
/// injection (`P(k) = p·qᵏ`); after each injection it draws the
/// destination and then the gap to its next one. A gap reaching past the
/// window's end is dropped, and the node waits for the next window.
pub struct Injection {
    rate: f64,
    /// The cycle node `v` injects at next, if inside the current window.
    pending: Vec<Option<u32>>,
}

impl Injection {
    pub fn new(nodes: u32, rate: f64) -> Self {
        Injection {
            rate,
            pending: vec![None; nodes as usize],
        }
    }

    /// The gap to the next injection: the first `k` with
    /// `u < 1 − q^(k+1)`, by a linear scan; `None` past any window.
    fn gap(&self, rng: &mut NodeRng) -> Option<u32> {
        let u = rng.gen::<f64>();
        let q = 1.0 - self.rate;
        let mut q_pow = q;
        for k in 0..SCHEDULE_CHUNK {
            if u < 1.0 - q_pow {
                return Some(k);
            }
            q_pow *= q;
        }
        None
    }

    /// Does live node `v` inject at `cycle`? Draws the window's first gap
    /// when `cycle` opens a window. On `true` the caller draws the
    /// destination, then calls [`Injection::rearm`].
    pub fn fires(&mut self, v: u32, cycle: u32, rng: &mut NodeRng) -> bool {
        if cycle % SCHEDULE_CHUNK == 0 {
            self.pending[v as usize] = self.gap(rng).map(|k| cycle + k);
        }
        self.pending[v as usize] == Some(cycle)
    }

    /// Draw node `v`'s next gap after its injection at `cycle`.
    pub fn rearm(&mut self, v: u32, cycle: u32, rng: &mut NodeRng) {
        let window_end = (cycle / SCHEDULE_CHUNK + 1) * SCHEDULE_CHUNK;
        self.pending[v as usize] = self
            .gap(rng)
            .map(|k| cycle + 1 + k)
            .filter(|&next| next < window_end);
    }
}
