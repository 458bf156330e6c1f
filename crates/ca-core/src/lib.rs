//! Formal model for randomized coordinated attack.
//!
//! This crate implements, verbatim, the model of *“A Tradeoff Between Safety
//! and Liveness for Randomized Coordinated Attack Protocols”* (Varghese &
//! Lynch, PODC 1992): synchronous processes at the vertices of an undirected
//! graph, communicating over links whose messages an adversary may destroy,
//! with private random tapes.
//!
//! # Layout
//!
//! * [`graph`] — the communication graph `G(E,V)` and standard topologies.
//! * [`run`] — runs `R = I(R) ∪ M(R)`: which inputs arrive, which messages
//!   are delivered.
//! * [`tape`] — the random inputs `α_i`.
//! * [`protocol`] — the local-protocol state-machine interface
//!   (`δ_i`, `σ_i`, `O_i`).
//! * [`exec`] — the execution generator `Ex(R, α)`.
//! * [`exec_sliced`] — the 64-lane bit-sliced trial-parallel executor for
//!   counting-automaton protocols (scalar `exec` stays the oracle).
//! * [`outcome`] — total/no/partial attack classification.
//! * [`flow`] — the *flows-to* (causality) relation.
//! * [`level`] — information levels `L_i^r(R)` and modified levels
//!   `ML_i^r(R)`.
//! * [`clip`] — the clipping construction `Clip_i(R)`.
//! * [`rational`] — exact rational arithmetic for outcome probabilities.
//! * [`bitset`] — compact process sets.
//!
//! # Example
//!
//! Compute the information level of every process on a run where one link
//! dies halfway through:
//!
//! ```
//! use ca_core::{graph::Graph, run::Run, level::levels,
//!               ids::{ProcessId, Round}};
//!
//! let graph = Graph::complete(3)?;
//! let mut run = Run::good(&graph, 6);
//! run.cut_link_from_round(ProcessId::new(0), ProcessId::new(1), Round::new(3));
//! let table = levels(&run);
//! assert!(table.min_level() >= 1);
//! # Ok::<(), ca_core::error::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitset;
pub mod clip;
pub mod error;
pub mod exec;
pub mod exec_sliced;
pub mod flow;
pub mod graph;
pub mod ids;
pub mod knowledge;
pub mod level;
pub mod outcome;
pub mod protocol;
pub mod rational;
pub mod run;
pub mod tape;

pub use error::{CaError, ModelError};
pub use exec::{execute, execute_outputs, Execution};
pub use exec_sliced::{SlicedEngine, SlicedSpec};
pub use graph::Graph;
pub use ids::{Node, ProcessId, Round};
pub use level::{levels, modified_levels, LevelTable};
pub use outcome::{Outcome, OutcomeCounts};
pub use protocol::{Ctx, Protocol};
pub use rational::Rational;
pub use run::{MsgSlot, Run};
pub use tape::{BitTape, TapeReader, TapeSet};

// The level frontier's test oracles, shared with the integration tests. The
// alias lets `tests/oracle/mod.rs` name this crate `ca_core` from both.
#[cfg(test)]
extern crate self as ca_core;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
