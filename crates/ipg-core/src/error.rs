//! Error type shared across the workspace.

use std::fmt;

/// Errors raised while constructing or analyzing IP graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpgError {
    /// A permutation image was not a bijection on `0..k`.
    InvalidPermutation {
        /// Human-readable reason (duplicate index, out of range, ...).
        reason: String,
    },
    /// A generator's length does not match the seed label length.
    LengthMismatch {
        /// Length expected (seed label length).
        expected: usize,
        /// Length found on the offending generator.
        found: usize,
        /// Name of the offending generator.
        generator: String,
    },
    /// Generation exceeded the configured node budget.
    BudgetExceeded {
        /// The budget that was exceeded.
        budget: usize,
    },
    /// A routing request referenced a label outside the generated graph.
    UnknownLabel {
        /// Display form of the unknown label.
        label: String,
    },
    /// No path exists (disconnected directed reachability).
    Unreachable {
        /// Source node index.
        from: u32,
        /// Destination node index.
        to: u32,
    },
    /// No generator sequence carries one label to the other.
    UnreachableLabel {
        /// Display form of the source label.
        from: String,
        /// Display form of the destination label.
        to: String,
        /// Why no sequence exists.
        reason: &'static str,
    },
    /// A super-IP specification was internally inconsistent.
    InvalidSpec {
        /// Human-readable reason.
        reason: String,
    },
    /// A graph lacks a property the requested use needs (symmetry, a
    /// matching node count).
    InvalidGraph {
        /// Human-readable reason.
        reason: String,
    },
    /// A distributed simulation component failed (frame protocol
    /// violation, worker death, transport error).
    Dist {
        /// Worker index the failure is attributed to (`u32::MAX` when
        /// it is not attributable to one worker).
        worker: u32,
        /// Simulation cycle at the time of failure (`u64::MAX` before
        /// the cycle loop starts).
        cycle: u64,
        /// Human-readable context: what was expected, what was seen,
        /// the last frame successfully processed.
        detail: String,
    },
}

impl fmt::Display for IpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpgError::InvalidPermutation { reason } => {
                write!(f, "invalid permutation: {reason}")
            }
            IpgError::LengthMismatch {
                expected,
                found,
                generator,
            } => write!(
                f,
                "generator `{generator}` acts on {found} positions but the seed has {expected}"
            ),
            IpgError::BudgetExceeded { budget } => {
                write!(f, "generation exceeded the node budget of {budget}")
            }
            IpgError::UnknownLabel { label } => {
                write!(f, "label `{label}` is not a node of the generated graph")
            }
            IpgError::Unreachable { from, to } => {
                write!(f, "node {to} is unreachable from node {from}")
            }
            IpgError::UnreachableLabel { from, to, reason } => {
                write!(
                    f,
                    "label `{to}` is unreachable from label `{from}`: {reason}"
                )
            }
            IpgError::InvalidSpec { reason } => write!(f, "invalid super-IP spec: {reason}"),
            IpgError::InvalidGraph { reason } => write!(f, "unsuitable graph: {reason}"),
            IpgError::Dist {
                worker,
                cycle,
                detail,
            } => {
                write!(f, "distributed simulation failed")?;
                if *worker != u32::MAX {
                    write!(f, " (worker {worker}")?;
                    if *cycle != u64::MAX {
                        write!(f, ", cycle {cycle}")?;
                    }
                    write!(f, ")")?;
                } else if *cycle != u64::MAX {
                    write!(f, " (cycle {cycle})")?;
                }
                write!(f, ": {detail}")
            }
        }
    }
}

impl std::error::Error for IpgError {}

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, IpgError>;
