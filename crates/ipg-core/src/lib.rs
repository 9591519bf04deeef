//! # ipg-core — the index-permutation (IP) graph model
//!
//! This crate implements the model introduced by Yeh & Parhami in *"The
//! Index-Permutation Graph Model for Hierarchical Interconnection Networks"*
//! (ICPP 1999): a generalization of Cayley graphs in which node labels are
//! sequences of **possibly repeated** symbols and edges are the actions of a
//! fixed set of position permutations (*generators*) on those labels.
//!
//! The paper visualizes the model as a *ball-arrangement game*: `k` numbered
//! balls (numbers may repeat) are rearranged by a fixed set of permissible
//! moves; states are network nodes, moves are links, and routing is solving
//! the game.
//!
//! ## Layout
//!
//! - [`perm`] — permutations of label positions (one-line and cycle forms).
//! - [`label`] — symbol sequences with repeats (multiset labels).
//! - [`spec`] — [`IpGraphSpec`]: seed + named generators.
//! - [`builder`] — breadth-first closure of the seed under the generators,
//!   producing an [`IpGraph`] (the state-transition graph of the game).
//! - [`probe`] — clock-free instrumentation hooks for the builder
//!   ([`BuildProbe`]); the observability impl lives in `ipg-obs`.
//! - [`graph`] — compact CSR graphs shared by every crate in the workspace.
//! - [`algo`] — BFS, diameters, average distances, 0/1-weighted BFS,
//!   connectivity; all-pairs sweeps are parallelized with rayon.
//! - [`fault`] — compact dead-node/dead-link views over CSR graphs and
//!   the faulted-graph BFS oracle backing fault-aware routing.
//! - [`superip`] — super-IP graphs: nucleus + super-generators, the
//!   equivalent *tuple network* construction, and symmetric variants.
//! - [`codec`] — arithmetic node addressing for super-IP graphs: the one
//!   label ↔ tuple-id bridge (mixed-radix over nucleus ranks) onto the
//!   tuple network, which skips hash interning entirely.
//! - [`routing`] — Theorem 4.1's `t`/`t_S` and predicted diameter, and
//!   `SuperRouter`, which routes labels over the codec and
//!   [`tuple_routing`]'s `TupleRouter`.
//! - [`symmetry`] — regularity, vertex-transitivity and isomorphism checks
//!   used to cross-validate IP definitions against direct constructions.
//! - [`embed`] — dilation measurement for embeddings (e.g. hypercube into
//!   HSN with dilation 3, paper §3.2).
//!
//! ## Quick example
//!
//! Build the 16-node HCN(2,2) without diameter links (≡ HSN(2, Q₂)) exactly
//! as Section 2 of the paper does — three generators applied to the seed
//! `3434 3434`:
//!
//! ```
//! use ipg_core::prelude::*;
//!
//! let spec = SuperIpSpec::hsn(2, NucleusSpec::hypercube(2));
//! let ip = spec.to_ip_spec().generate().unwrap();
//! assert_eq!(ip.node_count(), 16);            // Theorem 3.2: N = M^l = 4^2
//! let g = ip.to_undirected_csr();
//! assert_eq!(ipg_core::algo::diameter(&g), 5); // Corollary 4.2: (D+1)l - 1
//! ```

pub mod algo;
pub mod builder;
pub mod centrality;
pub mod codec;
pub mod connectivity;
pub mod embed;
pub mod error;
pub mod fault;
pub mod graph;
pub mod label;
pub mod perm;
pub mod probe;
pub mod rank;
pub mod routing;
pub mod solve;
pub mod spec;
pub mod superip;
pub mod symmetry;
pub mod tuple_routing;
pub mod util;

pub use builder::IpGraph;
pub use codec::NodeCodec;
pub use error::{IpgError, Result};
pub use fault::FaultView;
pub use graph::Csr;
pub use label::Label;
pub use perm::Perm;
pub use probe::{BuildProbe, NoProbe};
pub use spec::{Generator, IpGraphSpec};
pub use superip::{NucleusSpec, SeedKind, SuperGen, SuperIpSpec, TupleNetwork};

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::algo;
    pub use crate::builder::IpGraph;
    pub use crate::codec::NodeCodec;
    pub use crate::error::{IpgError, Result};
    pub use crate::fault::FaultView;
    pub use crate::graph::Csr;
    pub use crate::label::Label;
    pub use crate::perm::Perm;
    pub use crate::routing;
    pub use crate::spec::{Generator, IpGraphSpec};
    pub use crate::superip::{NucleusSpec, SeedKind, SuperGen, SuperIpSpec, TupleNetwork};
}
