//! # ipg-sim — packet-level network simulation
//!
//! A synchronous, cycle-based, store-and-forward network simulator used to
//! substantiate the paper's §5 delay claims empirically:
//!
//! - with uniform link speeds and light traffic, latency tracks the
//!   **DD-cost** family ordering;
//! - when off-module links are slower than on-module links (the §5.4
//!   "on-chip links can be driven at a considerably higher clock rate"
//!   regime), latency tracks **II-cost**;
//! - saturation throughput is inversely related to the average
//!   (inter-cluster) distance (§5.2).
//!
//! Three simulation layers:
//!
//! - [`engine`] — cycle-based store-and-forward / virtual-cut-through
//!   engine: output-queued routers, per-link service intervals,
//!   shortest-path next-hop tables with deterministic tie-breaking,
//!   Bernoulli-law injection (one geometric gap draw per packet) with
//!   uniform / permutation / hotspot traffic;
//! - [`wormhole`] — flit-level wormhole switching with finite per-VC
//!   buffers, hop-indexed virtual-channel allocation, and deadlock
//!   detection;
//! - [`emulate`] — hypercube algorithms (bitonic sort, parallel prefix)
//!   executed through embeddings with per-dimension dilation/congestion
//!   step costs.
//!
//! Both cycle-level engines accept a compiled [`fault`] plan — scripted
//! or rate-drawn link/node kills applied deterministically mid-run — and
//! route around it (or into it, for the non-adaptive baseline) through
//! [`router::DetourRouter`] / [`Router::next_hop_faulted`].

pub mod dist;
pub mod emulate;
pub mod engine;
pub mod fault;
pub mod rng;
pub mod router;
pub mod table;
pub mod worklist;
pub mod wormhole;

pub use emulate::HostEmulator;
pub use engine::{SimConfig, SimResult, Simulator, Switching, Traffic};
pub use fault::{FaultPlan, FaultSpec};
pub use router::{DetourRouter, DetourTupleRouter, Router};
pub use table::RoutingTable;
pub use wormhole::{WormholeConfig, WormholeOutcome, WormholeSim};
