//! # coordinated-attack
//!
//! A full reproduction of *“A Tradeoff Between Safety and Liveness for
//! Randomized Coordinated Attack Protocols”* (George Varghese and Nancy A.
//! Lynch, PODC 1992) as a Rust library: the formal model, the paper's
//! protocols, the lower-bound machinery, and an executable experiment suite
//! verifying every quantitative claim.
//!
//! This crate is a facade over the workspace:
//!
//! * [`core`] (`ca-core`) — graphs, runs, executions, causality,
//!   information levels, clipping.
//! * [`protocols`] (`ca-protocols`) — Protocol S (optimal), Protocol A
//!   (the §3 example), and baselines.
//! * [`sim`] (`ca-sim`) — adversary strategies and Monte Carlo estimation.
//! * [`analysis`] (`ca-analysis`) — exact outcome probabilities, tradeoff
//!   frontiers, and experiments E1–E12.
//!
//! # Quickstart
//!
//! Two generals, ten rounds, a 1-in-8 disagreement budget:
//!
//! ```
//! use coordinated_attack::prelude::*;
//!
//! let graph = Graph::complete(2)?;
//! let run = Run::good(&graph, 10);          // the adversary delivers everything
//! let exact = protocol_s_outcomes(&graph, &run, 8); // ε = 1/8
//!
//! // Theorem 6.8: liveness = min(1, ε·ML(R)) = min(1, 10/8) = 1.
//! assert_eq!(exact.ta, Rational::ONE);
//! # Ok::<(), coordinated_attack::core::ModelError>(())
//! ```
//!
//! See `examples/` for end-to-end scenarios, and run every experiment with
//! `cargo run --release -p ca-bench --bin ca -- expt`.

#![warn(missing_docs)]

pub use ca_analysis as analysis;
pub use ca_async as asynchronous;
pub use ca_core as core;
pub use ca_protocols as protocols;
pub use ca_sim as sim;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use ca_analysis::exact::{protocol_a_outcomes, protocol_s_outcomes, ExactOutcome};
    pub use ca_analysis::report::Table;
    pub use ca_analysis::runs::{leader_only_input_run, ml_staircase, tree_run};
    pub use ca_analysis::sweep::{run_sweep, ScenarioSweepConfig, ScenarioSweepReport};
    pub use ca_core::exec::{execute, execute_outputs, Execution};
    pub use ca_core::graph::{Graph, GraphStats, TopologySpec};
    pub use ca_core::ids::{ProcessId, Round};
    pub use ca_core::level::{levels, modified_levels};
    pub use ca_core::outcome::Outcome;
    pub use ca_core::protocol::{Ctx, Protocol};
    pub use ca_core::rational::Rational;
    pub use ca_core::run::Run;
    pub use ca_core::tape::TapeSet;
    pub use ca_protocols::{
        AttackOnInput, ChainProtocol, CombineRule, DeterministicFlood, FixedThreshold, GridS,
        NeverAttack, ProtocolA, ProtocolS, Repeat, ValidityMode, VectorS,
    };
    pub use ca_sim::{
        simulate, simulate_scalar, simulate_sliced, BernoulliEstimate, FixedRun, LossModel,
        SimConfig, SimReport, WeakAdversary,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let graph = Graph::complete(2).unwrap();
        let run = Run::good(&graph, 4);
        let out = protocol_s_outcomes(&graph, &run, 8);
        assert_eq!(out.ta, Rational::new(1, 2));
    }
}
