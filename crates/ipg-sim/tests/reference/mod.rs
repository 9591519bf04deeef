//! A reference model of both cycle engines, used only by the oracle tests.
//!
//! Each model is one shard stepped by a plain cycle loop: every live node
//! draws its injection Bernoulli from its `rng::node_stream` every cycle,
//! every link is visited in CSR order, queues are `VecDeque`s, and faults
//! come straight off `FaultPlan::events` / `FaultPlan::apply_due`. The
//! models reach `ipg-sim` only through its public API (the per-node
//! streams, the routers, the compiled fault plan and the config and
//! result types), so the compiler keeps them from sharing any kernel
//! code: a bug in injection, link service, arrival timing, delivery,
//! fault handling or VC allocation shows up as a different result.

pub mod packet;
pub mod wormhole;
