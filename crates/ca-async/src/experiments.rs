//! X1 — the asynchronous extension experiment — and the experiment
//! [`registry`].
//!
//! Section 8: *"While our results are stated in a synchronous model, it
//! seems clear that they can be extended to an asynchronous model."* X1
//! verifies the extension: against cut, slow, and lossy couriers with a hard
//! deadline, the asynchronous Protocol S keeps `U ≤ ε` (exactly, via the
//! asynchronous exact analysis) while its liveness is priced in
//! latency-bounded gossip depth instead of rounds.
//!
//! This crate is the lowest one that sees both X1 and the synchronous suite
//! in `ca-analysis`, so it builds the one registry of every experiment.

use crate::courier::{CutCourier, RandomDropCourier, ReliableCourier};
use crate::engine::{run_async, AsyncConfig};
use crate::exact::async_s_outcomes;
use crate::protocol::AsyncS;
use ca_analysis::experiments::*;
use ca_analysis::report::{fmt_f64, Table};
use ca_core::graph::Graph;
use ca_core::outcome::Outcome;
use ca_core::rational::Rational;
use ca_core::tape::TapeSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// X1: the asynchronous model extension (§8).
#[derive(Clone, Copy, Debug, Default)]
pub struct AsyncExtension;

impl Experiment for AsyncExtension {
    fn id(&self) -> &'static str {
        "X1"
    }

    fn title(&self) -> &'static str {
        "Extension: asynchronous model — U ≤ ε survives, liveness priced in latency (§8)"
    }

    fn run(&self, scale: Scale) -> ExperimentResult {
        let mut table = Table::new([
            "courier",
            "deadline T",
            "exact L (TA)",
            "exact U (PA)",
            "ε",
            "MC disagreement",
        ]);
        let mut passed = true;
        let mut findings = Vec::new();
        let g = Graph::complete(2).expect("graph");
        let t = 6u64;
        let eps = Rational::new(1, t as i128);

        // Arm 1: latency sweep with a reliable courier — liveness is bought
        // with deadline/latency, the asynchronous analogue of rounds.
        let mut liveness_by_latency = Vec::new();
        for latency in [1u64, 2, 4] {
            let config = AsyncConfig::all_inputs(&g, 12);
            let mut courier = ReliableCourier::new(latency);
            let exact = async_s_outcomes(&g, &config, &mut courier, t);
            passed &= exact.is_valid() && exact.pa <= eps;
            liveness_by_latency.push(exact.ta);
            table.push_row([
                format!("reliable, latency {latency}"),
                "12".to_owned(),
                exact.ta.to_string(),
                exact.pa.to_string(),
                eps.to_string(),
                "-".to_owned(),
            ]);
        }
        passed &= liveness_by_latency.windows(2).all(|w| w[0] >= w[1]);

        // Arm 2: cut-courier sweep — the strong adversary's best async move.
        // Exact PA must stay ≤ ε at every cut; record the worst.
        let mut worst_pa = Rational::ZERO;
        for cut in 1..=13u64 {
            let config = AsyncConfig::all_inputs(&g, 12);
            let mut courier = CutCourier::new(1, cut);
            let exact = async_s_outcomes(&g, &config, &mut courier, t);
            passed &= exact.pa <= eps;
            worst_pa = worst_pa.max(exact.pa);
        }
        table.push_row([
            "cut sweep (13 cuts, worst)".to_owned(),
            "12".to_owned(),
            "-".to_owned(),
            worst_pa.to_string(),
            eps.to_string(),
            "-".to_owned(),
        ]);
        passed &= worst_pa == eps; // the bound stays tight asynchronously

        // Arm 3: lossy courier, Monte Carlo — the weak adversary
        // asynchronously. Heartbeats provide the retransmission that the
        // synchronous model's send-every-round gave for free.
        let proto = AsyncS::new(1.0 / t as f64);
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xA51);
        let trials = (scale.trials / 4).max(500);
        let (mut ta_n, mut pa_n) = (0u64, 0u64);
        for k in 0..trials {
            let tapes = TapeSet::random(&mut rng, 2, 64);
            let mut courier = RandomDropCourier::new(0.2, 1, 3, scale.seed ^ k);
            let config = AsyncConfig::all_inputs(&g, 30).with_heartbeat(2);
            let out = run_async(&proto, &g, &config, &tapes, &mut courier);
            match out.outcome() {
                Outcome::TotalAttack => ta_n += 1,
                Outcome::PartialAttack => pa_n += 1,
                Outcome::NoAttack => {}
            }
        }
        let pa_rate = pa_n as f64 / trials as f64;
        let ta_rate = ta_n as f64 / trials as f64;
        passed &= pa_rate <= eps.to_f64() + 0.03;
        passed &= ta_rate > 0.9;
        table.push_row([
            "random-drop p=0.2, latency 1..3 (MC)".to_owned(),
            "30".to_owned(),
            fmt_f64(ta_rate),
            fmt_f64(pa_rate),
            eps.to_string(),
            fmt_f64(pa_rate),
        ]);

        findings.push(
            "the safety bound U ≤ ε survives the move to an asynchronous, event-driven model — \
             exactly, for every cut courier, and it remains tight"
                .to_owned(),
        );
        findings.push(
            "liveness is monotone in deadline/latency: the tradeoff is the same, with gossip \
             depth replacing rounds — §8's extension claim, made concrete"
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

/// Every experiment, in id order: the paper suite E1–E12, then the
/// extensions X1–X7. `ca expt`, `ca bench`, `ca profile` and the
/// `paper_claims` test all run this list.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(ProtocolAUnsafety),
        Box::new(ProtocolALiveness),
        Box::new(TradeoffBound),
        Box::new(ProtocolSUnsafety),
        Box::new(LivenessCurve),
        Box::new(LevelLemmas),
        Box::new(CountTracksMl),
        Box::new(SecondLowerBound),
        Box::new(RoundCrossover),
        Box::new(WeakAdversary),
        Box::new(TopologyLevels),
        Box::new(CausalIndependence),
        Box::new(AsyncExtension),
        Box::new(AdaptiveAdversaryExperiment),
        Box::new(BandwidthAblation),
        Box::new(ChainVsGossip),
        Box::new(EagerDichotomy),
        Box::new(ExactCurve),
        Box::new(SweepFrontier),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_every_id_once_in_id_order() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        let expected: Vec<String> = (1..=12)
            .map(|k| format!("E{k}"))
            .chain((1..=7).map(|k| format!("X{k}")))
            .collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn x1_passes() {
        let result = AsyncExtension.run(Scale::quick());
        assert!(result.passed, "{result}");
        assert_eq!(result.table.len(), 5);
    }
}
