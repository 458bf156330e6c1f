//! Exact analysis, run constructions, and the experiment suite.
//!
//! * [`enumeration`] — exact probabilities by exhaustive tape enumeration
//!   (zero-error cross-check of the closed forms).
//! * [`exact`] — closed-form outcome probabilities for Protocols S and A on
//!   fixed runs (the paper's theorems as equalities over [`ca_core::Rational`]).
//! * [`level_dp`] — the level-vector dynamic program: exact worst-case
//!   PA/TA curves in polynomial time, past enumeration's 24-bit wall
//!   (enumeration stays on as the differential oracle), and the exact
//!   expected outcomes against §8's weak adversary.
//! * [`runs`] — the lower-bound run constructions (Lemma A.6 tree runs, `R₁`,
//!   ML staircases, causal-independence runs).
//! * [`tradeoff`] — consequences of `L/U ≤ N`: frontiers and round
//!   crossovers (Section 8's 1000-round claim).
//! * [`sweep`] — big-graph scenario sweeps: topology × weak-adversary
//!   tradeoff frontiers over generated graphs (`ca sweep`).
//! * [`experiments`] — E1–E12, the executable version of the paper's claims;
//!   see DESIGN.md §4 for the index.
//! * [`report`] — tables (text + CSV) used by the experiment runner.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod enumeration;
pub mod exact;
pub mod experiments;
pub mod level_dp;
pub mod report;
pub mod runs;
pub mod sweep;
pub mod tradeoff;
#[cfg(test)]
mod weak_exact;
// The level frontier's test oracles, kept with ca-core's tests.
#[cfg(test)]
#[path = "../../ca-core/tests/oracle/mod.rs"]
mod oracle;

pub use exact::{protocol_a_outcomes, protocol_s_outcomes, ExactOutcome};
pub use experiments::{Experiment, ExperimentResult, Scale};
pub use level_dp::{DpSpec, SweepReport};
pub use report::Table;
pub use sweep::{run_sweep, ScenarioSweepConfig, ScenarioSweepReport};
