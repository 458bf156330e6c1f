//! The experiment suite: every quantitative claim of the paper, executable.
//!
//! The paper is a theory paper with no empirical tables, so the "evaluation"
//! we reproduce is its theorem/claim list (see DESIGN.md §4). Each experiment
//! produces a [`Table`] (the figure/table analogue), a list of headline
//! findings comparing paper vs. measured, and a pass/fail verdict for the
//! paper-shape checks (who wins, what bounds hold, where crossovers fall).
//!
//! | id  | claim |
//! |-----|-------|
//! | E1  | `U_s(A) = 1/(N-1) ≈ 1/N` (§3) |
//! | E2  | `L(A, R_good) = 1`; one dead mid-chain packet ⟹ `L = 0` (§3) |
//! | E3  | `L(F,R) ≤ ε·L(R)` for F = S on structured + random runs (Thm 5.4) |
//! | E4  | `U_s(S) ≤ ε`, and the bound is tight (Thm 6.7) |
//! | E5  | `L(S,R) = min(1, ε·ML(R))` — the liveness curve (Thm 6.8) |
//! | E6  | `L−1 ≤ ML ≤ L`, cross-process ML spread ≤ 1 (Lemmas 6.1/6.2) |
//! | E7  | `count_i^r = ML_i^r(R)` (Lemma 6.4) |
//! | E8  | second lower bound machinery: tree run, `R₁`, optimality (§7/A) |
//! | E9  | liveness 1 with `U ≤ 1/t` needs `N ≥ t` rounds (§8's 1000-round claim) |
//! | E10 | weak adversary: `L/U ≫ N` (§8) |
//! | E11 | level growth by topology — the capacity `L(R)` that Thm 5.4 prices |
//! | E12 | causal independence ⟹ probabilistic independence (Lemma A.2) |
//!
//! The extension experiments X2–X7 live here too. X1 (the asynchronous
//! model) lives in `ca-async`, which depends on this crate, so the one
//! registry listing all of them in id order is
//! `ca_async::experiments::registry`.

use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::fmt;

mod e01_protocol_a_unsafety;
mod e02_protocol_a_liveness;
mod e03_tradeoff_bound;
mod e04_protocol_s_unsafety;
mod e05_liveness_curve;
mod e06_level_lemmas;
mod e07_count_tracks_ml;
mod e08_second_lower_bound;
mod e09_round_crossover;
mod e10_weak_adversary;
mod e11_topology_levels;
mod e12_causal_independence;
mod x02_adaptive_adversary;
mod x03_bandwidth;
mod x04_chain_vs_gossip;
mod x05_eager_dichotomy;
mod x06_exact_curve;
mod x07_sweep_frontier;

pub use e01_protocol_a_unsafety::ProtocolAUnsafety;
pub use e02_protocol_a_liveness::ProtocolALiveness;
pub use e03_tradeoff_bound::TradeoffBound;
pub use e04_protocol_s_unsafety::ProtocolSUnsafety;
pub use e05_liveness_curve::LivenessCurve;
pub use e06_level_lemmas::LevelLemmas;
pub use e07_count_tracks_ml::CountTracksMl;
pub use e08_second_lower_bound::SecondLowerBound;
pub use e09_round_crossover::RoundCrossover;
pub use e10_weak_adversary::WeakAdversary;
pub use e11_topology_levels::TopologyLevels;
pub use e12_causal_independence::CausalIndependence;
pub use x02_adaptive_adversary::AdaptiveAdversaryExperiment;
pub use x03_bandwidth::BandwidthAblation;
pub use x04_chain_vs_gossip::ChainVsGossip;
pub use x05_eager_dichotomy::EagerDichotomy;
pub use x06_exact_curve::ExactCurve;
pub use x07_sweep_frontier::SweepFrontier;

/// How big to run an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Monte Carlo trials per estimated probability.
    pub trials: u64,
    /// Base seed (experiments are deterministic functions of it).
    pub seed: u64,
}

impl Scale {
    /// CI-friendly scale (seconds).
    pub fn quick() -> Self {
        Scale {
            trials: 2_000,
            seed: 0xCA11,
        }
    }

    /// Paper-grade scale (tens of seconds).
    pub fn full() -> Self {
        Scale {
            trials: 40_000,
            seed: 0xCA11,
        }
    }

    /// [`Scale::full`] or [`Scale::quick`], with the trial count overridden
    /// when one is given — the `--full` / `--trials K` resolution shared by
    /// every scaled `ca` command.
    pub fn resolve(full: bool, trials: Option<u64>) -> Self {
        let base = if full { Scale::full() } else { Scale::quick() };
        Scale {
            trials: trials.unwrap_or(base.trials),
            ..base
        }
    }
}

/// The output of one experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Experiment id (`"E1"`, …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The regenerated table (the paper's figure/table analogue).
    pub table: Table,
    /// Headline paper-vs-measured findings.
    pub findings: Vec<String>,
    /// Whether every paper-shape check held.
    pub passed: bool,
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {} — {}", self.id, self.title)?;
        writeln!(f)?;
        writeln!(f, "{}", self.table)?;
        for finding in &self.findings {
            writeln!(f, "* {finding}")?;
        }
        writeln!(f, "verdict: {}", if self.passed { "PASS" } else { "FAIL" })
    }
}

/// An executable experiment.
pub trait Experiment: Sync {
    /// Stable id (`"E1"` …).
    fn id(&self) -> &'static str;
    /// One-line title.
    fn title(&self) -> &'static str;
    /// Runs the experiment at the given scale.
    fn run(&self, scale: Scale) -> ExperimentResult;

    /// Runs the experiment inside an `expt.experiment` observability span,
    /// so profiles attribute engine counters (trials, transitions, sampled
    /// runs…) experiment by experiment. Identical results to
    /// [`Experiment::run`]; with observability compiled out it *is*
    /// [`Experiment::run`].
    fn run_observed(&self, scale: Scale) -> ExperimentResult {
        let obs = ca_obs::Metrics::new();
        let result = {
            let _span = obs.span(ca_obs::SpanId::ExptExperiment);
            self.run(scale)
        };
        obs.flush();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        assert!(Scale::quick().trials < Scale::full().trials);
        assert_eq!(Scale::quick().seed, Scale::full().seed);
        assert_eq!(Scale::resolve(false, None), Scale::quick());
        assert_eq!(Scale::resolve(true, None), Scale::full());
        let smoke = Scale::resolve(true, Some(20));
        assert_eq!((smoke.trials, smoke.seed), (20, Scale::full().seed));
    }
}
