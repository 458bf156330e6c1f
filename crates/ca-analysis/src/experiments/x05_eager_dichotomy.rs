//! X5 — Theorem A.1's dichotomy, realized by a concrete protocol.
//!
//! Theorem A.1: *if any protocol has a run with liveness above `ε·ML(R)`,
//! some other run must fall below.* The "eager" variant of Protocol S
//! (attack iff `count ≥ 1` and `count + 1 ≥ rfire`) is the concrete witness:
//!
//! * on every run with `ML(R) ≥ 1` its liveness is `min(1, ε·(ML(R)+1))` —
//!   strictly **above** the `ε·ML(R)` frontier;
//! * but its true worst-case unsafety is `2ε`, attained on
//!   `R₁ = {(v₀,1,0)}`, where the leader attacks alone whenever
//!   `rfire ≤ 2`.
//!
//! Re-budgeting (`ε' = 2ε`) puts eager exactly back on the frontier:
//! `L = min(1, ε'·(ML+1)/2) ≤ ε'·ML` for `ML ≥ 1`. The "+1" is never free —
//! which is the theorem's content.

use super::{Experiment, ExperimentResult, Scale};
use crate::exact::protocol_s_worst_pa;
use crate::level_dp::{run_outcomes, DpSpec};
use crate::report::{fmt_estimate, Table};
use crate::runs::{leader_only_input_run, ml_staircase, tree_run};
use ca_core::graph::Graph;
use ca_core::level::modified_levels;
use ca_core::rational::Rational;
use ca_core::run::Run;
use ca_protocols::ProtocolS;
use ca_sim::{simulate, FixedRun, SimConfig};

/// X5: the eager variant demonstrates that beating `ε·ML` costs unsafety.
#[derive(Clone, Copy, Debug, Default)]
pub struct EagerDichotomy;

impl Experiment for EagerDichotomy {
    fn id(&self) -> &'static str {
        "X5"
    }

    fn title(&self) -> &'static str {
        "Extension: the Theorem A.1 dichotomy — beating ε·ML(R) costs unsafety"
    }

    fn run(&self, scale: Scale) -> ExperimentResult {
        let t = 6u64;
        let eps = Rational::new(1, t as i128);
        let graph = Graph::complete(3).expect("graph");
        let n = 6u32;
        let mut table = Table::new([
            "run",
            "ML(R)",
            "frontier ε·ML",
            "L(S,R)",
            "L(eager,R)",
            "above frontier?",
        ]);
        let mut passed = true;
        let exact = |run: &Run, spec: DpSpec| {
            run_outcomes(&graph, run, &spec).expect("X5's runs are valid on K3")
        };

        // Arm 1: eager's liveness beats the frontier on every ML ≥ 1 run.
        let mut runs: Vec<(String, Run)> =
            vec![("tree run (ML=1)".to_owned(), tree_run(&graph, n))];
        for (k, run) in ml_staircase(&graph, n).into_iter().enumerate() {
            runs.push((format!("staircase k={k}"), run));
        }
        for (name, run) in &runs {
            let ml = modified_levels(run).min_level();
            let frontier = (eps * Rational::from(ml)).min(Rational::ONE);
            let live_s = exact(run, DpSpec::protocol_s(t)).ta;
            let live_e = exact(run, DpSpec::eager(t)).ta;
            let above = live_e > frontier;
            if ml >= 1 && frontier < Rational::ONE {
                passed &= above;
                passed &= live_e == (eps * Rational::from(ml + 1)).min(Rational::ONE);
            }
            if ml == 0 {
                // Validity is still sure: no process reaches count 1.
                passed &= live_e == Rational::ZERO;
            }
            table.push_row([
                name.clone(),
                ml.to_string(),
                frontier.to_string(),
                live_s.to_string(),
                live_e.to_string(),
                format!("{above}"),
            ]);
        }

        // Arm 2: the price. Worst-case unsafety over cut families *plus* the
        // R₁-style runs where the dichotomy bites.
        let mut family = ca_sim::cut_family(&graph, n);
        family.push(leader_only_input_run(graph.len(), n));
        family.push(tree_run(&graph, n));
        let (worst_s, _) = protocol_s_worst_pa(&graph, &family, t);
        let mut worst_e = Rational::ZERO;
        let mut worst_idx = 0;
        for (k, run) in family.iter().enumerate() {
            let pa = exact(run, DpSpec::eager(t)).pa;
            if pa > worst_e {
                worst_e = pa;
                worst_idx = k;
            }
        }
        passed &= worst_s == eps;
        passed &= worst_e == eps + eps; // 2ε, on R₁
        table.push_row([
            "WORST-CASE UNSAFETY".to_owned(),
            "-".to_owned(),
            format!("ε = {eps}"),
            worst_s.to_string(),
            worst_e.to_string(),
            format!("eager pays 2ε (run #{worst_idx})"),
        ]);

        // Monte Carlo confirmation of the 2ε failure on R₁.
        let r1 = leader_only_input_run(graph.len(), n);
        let eager = ProtocolS::eager(1.0 / t as f64);
        let report = simulate(
            &eager,
            &graph,
            &FixedRun::new(r1),
            SimConfig::new(scale.trials, scale.seed ^ 0x55),
        );
        passed &= report
            .disagreement()
            .consistent_with_z(2.0 * eps.to_f64(), 4.0);
        table.push_row([
            "R₁ disagreement (eager, MC)".to_owned(),
            "0".to_owned(),
            format!("2ε = {}", eps + eps),
            "-".to_owned(),
            fmt_estimate(&report.disagreement()),
            "confirms 2ε".to_owned(),
        ]);

        let findings = vec![
            "eager S lives strictly above the ε·ML(R) frontier on every run with ML ≥ 1 — \
             exactly the protocol Theorem A.1 says must pay somewhere"
                .to_owned(),
            "it pays on R₁: disagreement 2ε (exact and Monte Carlo) — re-budgeted to its true \
             ε' = 2ε, eager is back on (not above) the frontier, so Protocol S is optimal"
                .to_owned(),
        ];

        ExperimentResult {
            id: self.id().to_owned(),
            title: self.title().to_owned(),
            table,
            findings,
            passed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x5_passes() {
        let result = EagerDichotomy.run(Scale::quick());
        assert!(result.passed, "{result}");
        assert_eq!(result.table.len(), 10);
    }
}
