//! E10 — the weak adversary: vastly better tradeoffs (Section 8).
//!
//! The paper closes with: against a *probabilistic* adversary that destroys
//! each message with unknown probability `p`, there are "preliminary results
//! that show vastly improved performance". We make that concrete: under
//! random drops, Protocol S's measured `L/U` ratio blows past the strong
//! adversary's ceiling `L/U ≤ N`, because unsafety is no longer the worst
//! case over runs but an average — and the average run's counts race far
//! above the firing threshold, where disagreement is impossible.
//!
//! The deterministic [`FixedThreshold`] baseline is also measured: good
//! against random drops (its only failure mode is the run's level landing
//! exactly on the threshold), but destroyed by a strong adversary (E4's
//! worst-case machinery shows `U_s = 1`), which is why randomization is
//! still the right tool when the adversary is adaptive.

use super::{Experiment, ExperimentResult, Scale};
use crate::level_dp::{weak_outcomes, DpSpec};
use crate::report::{fmt_estimate, fmt_f64, Table};
use ca_core::graph::Graph;
use ca_protocols::{FixedThreshold, ProtocolS};
use ca_sim::{simulate, SimConfig};

/// E10: measured `L/U` against the weak adversary.
#[derive(Clone, Copy, Debug, Default)]
pub struct WeakAdversary;

impl Experiment for WeakAdversary {
    fn id(&self) -> &'static str {
        "E10"
    }

    fn title(&self) -> &'static str {
        "Weak (probabilistic) adversary: L/U ≫ N (§8)"
    }

    fn run(&self, scale: Scale) -> ExperimentResult {
        let graph = Graph::complete(2).expect("graph");
        let n = 24u32;
        let t = 12u64; // ε = 1/12; under the strong adversary L/U ≤ N = 24.
        let proto = ProtocolS::new(1.0 / t as f64);
        let mut table = Table::new([
            "drop p",
            "protocol",
            "L = Pr[TA]",
            "U = Pr[PA]",
            "exact L (Markov)",
            "exact U (Markov)",
            "L/U (exact)",
        ]);
        let mut passed = true;
        let mut findings = Vec::new();

        let mut best_ratio: f64 = 0.0;
        for (k, p) in [0.05f64, 0.1, 0.2, 0.3].into_iter().enumerate() {
            let sampler = ca_sim::WeakAdversary::iid(&graph, n, p);
            let report = simulate(
                &proto,
                &graph,
                &sampler,
                SimConfig::new(scale.trials, scale.seed ^ (0xE10 + k as u64)),
            );
            let live = report.liveness();
            let dis = report.disagreement();
            // Exact cross-check from the level DP's weighted pass.
            let exact =
                weak_outcomes(&graph, n, &DpSpec::protocol_s(t), p).expect("K2 fits the DP");
            passed &= live.consistent_with_z(exact.ta, 4.0);
            passed &= dis.consistent_with_z(exact.pa, 4.0);
            let ratio = if exact.pa > 0.0 {
                exact.ta / exact.pa
            } else {
                f64::INFINITY
            };
            best_ratio = best_ratio.max(ratio);
            table.push_row([
                fmt_f64(p),
                "S".to_owned(),
                fmt_estimate(&live),
                fmt_estimate(&dis),
                fmt_f64(exact.ta),
                fmt_f64(exact.pa),
                if ratio.is_finite() {
                    format!("{ratio:.0}")
                } else {
                    "∞".to_owned()
                },
            ]);
            // At mild drop rates liveness should be essentially 1 and
            // unsafety far below ε.
            if p <= 0.2 {
                passed &= live.point() > 0.9;
                passed &= exact.pa < 1.0 / t as f64;
            }
        }
        passed &= best_ratio > n as f64;

        // FixedThreshold baseline under the same weak adversary.
        let theta = n / 2;
        let thresh = FixedThreshold::new(theta);
        for (k, p) in [0.1f64, 0.3].into_iter().enumerate() {
            let sampler = ca_sim::WeakAdversary::iid(&graph, n, p);
            let report = simulate(
                &thresh,
                &graph,
                &sampler,
                SimConfig::new(scale.trials, scale.seed ^ (0xE10F + k as u64)),
            );
            table.push_row([
                fmt_f64(p),
                format!("threshold θ={theta}"),
                fmt_estimate(&report.liveness()),
                fmt_estimate(&report.disagreement()),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
            ]);
        }

        findings.push(format!(
            "Protocol S against random drops: exact L/U reaches {:.0}, far above the \
             strong-adversary ceiling L/U ≤ N = {n} — the paper's 'vastly improved performance' \
             (§8), with the level DP's exact weighted pass matching Monte Carlo",
            if best_ratio.is_finite() {
                best_ratio
            } else {
                f64::MAX
            }
        ));
        findings.push(
            "the deterministic threshold baseline is also strong here (disagreement only when the \
             run's level lands exactly on θ), but E4-style strong-adversary analysis gives it \
             U_s = 1 — randomization is what buys worst-case safety"
                .to_owned(),
        );

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
    fn e10_passes() {
        let result = WeakAdversary.run(Scale::quick());
        assert!(result.passed, "{result}");
        assert_eq!(result.table.len(), 6);
    }

    #[test]
    fn exact_column_is_pinned() {
        // E10's exact (L, U) per drop probability, as the two-general Markov
        // chain that preceded the level DP's weighted pass computed them.
        let pinned = [
            (0.05, 0.999_999_999_998_428_6, 1.506_188_380_106_541_9e-12),
            (0.1, 0.999_999_992_194_700_1, 7.142_505_287_781_265e-9),
            (0.2, 0.999_977_860_101_659_7, 1.806_813_209_428_607e-5),
            (0.3, 0.998_633_548_068_470_9, 9.585_290_830_077_757e-4),
        ];
        let graph = Graph::complete(2).unwrap();
        for (p, ta, pa) in pinned {
            let out = weak_outcomes(&graph, 24, &DpSpec::protocol_s(12), p).unwrap();
            for (got, want) in [(out.ta, ta), (out.pa, pa)] {
                let diff = (got - want).abs();
                assert!(
                    diff <= 1e-12 && diff <= 1e-9 * want,
                    "p={p}: {got:e} vs pinned {want:e}"
                );
            }
        }
    }
}
