//! Exact outcome probabilities for [`AsyncS`] under deterministic couriers.
//!
//! The counting dynamics (and therefore the entire communication pattern) of
//! `AsyncS` do not depend on the sampled *value* of `rfire` — only on its
//! propagation, which is value-blind. So for any courier whose decisions
//! depend only on send metadata (all of ours), the final counts and token
//! possession are deterministic. One reference execution reads them off, and
//! [`DpSpec::outcome`] integrates the uniform `rfire ∈ (0, 1/ε]` over them —
//! the same firing rule the synchronous per-run engine,
//! `ca_analysis::level_dp::run_outcomes`, applies to the extremes of the
//! final counts.

use crate::courier::Courier;
use crate::engine::{run_async, AsyncConfig};
use crate::protocol::AsyncS;
use ca_analysis::exact::ExactOutcome;
use ca_analysis::level_dp::DpSpec;
use ca_core::graph::Graph;
use ca_core::tape::{BitTape, TapeSet};

/// Exact outcome probabilities of `AsyncS` with `ε = 1/t` under the given
/// (deterministic) courier.
///
/// The courier is consumed for one reference execution; pass a fresh one
/// (couriers with internal RNGs are fine as long as they are seed-fresh —
/// the result is then exact *conditioned on that courier randomness*).
///
/// # Panics
///
/// Panics if `t == 0`.
pub fn async_s_outcomes<C: Courier + ?Sized>(
    graph: &Graph,
    config: &AsyncConfig,
    courier: &mut C,
    t: u64,
) -> ExactOutcome {
    assert!(t > 0, "t = 1/epsilon must be positive");
    let proto = AsyncS::new(1.0 / t as f64);
    // Fixed tape: only the leader draws (64 bits); the value is irrelevant
    // to the counting dynamics.
    let tapes = TapeSet::from_tapes(
        (0..graph.len())
            .map(|_| BitTape::from_words(vec![0xFEED_FACE_0123_4567]))
            .collect(),
    );
    let out = run_async(&proto, graph, config, &tapes, courier);
    DpSpec::protocol_s(t).outcome(out.states.iter().map(|s| (s.count, s.token.is_some())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::courier::{CutCourier, ReliableCourier, SilenceCourier};
    use crate::engine::run_async;
    use ca_core::outcome::Outcome;
    use ca_core::rational::Rational;
    use ca_core::tape::TapeSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_is_valid_and_safe_across_cuts() {
        let g = Graph::complete(2).unwrap();
        let config = AsyncConfig::all_inputs(&g, 16);
        let t = 4u64;
        let eps = Rational::new(1, t as i128);
        for cut in 1..=17u64 {
            let mut courier = CutCourier::new(1, cut);
            let out = async_s_outcomes(&g, &config, &mut courier, t);
            assert!(out.is_valid(), "invalid outcome at cut {cut}: {out}");
            assert!(out.pa <= eps, "PA {} > ε at cut {cut}", out.pa);
        }
    }

    #[test]
    fn exact_liveness_saturates_with_generous_deadline() {
        let g = Graph::complete(2).unwrap();
        let config = AsyncConfig::all_inputs(&g, 40);
        let mut courier = ReliableCourier::new(1);
        let out = async_s_outcomes(&g, &config, &mut courier, 8);
        assert_eq!(out.ta, Rational::ONE);
    }

    #[test]
    fn exact_matches_monte_carlo() {
        let g = Graph::complete(2).unwrap();
        let config = AsyncConfig::all_inputs(&g, 9);
        let t = 8u64;
        let mut courier = ReliableCourier::new(2);
        let exact = async_s_outcomes(&g, &config, &mut courier, t);

        let proto = AsyncS::new(1.0 / t as f64);
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 4000;
        let (mut ta, mut pa) = (0u32, 0u32);
        for _ in 0..trials {
            let tapes = TapeSet::random(&mut rng, 2, 64);
            let mut courier = ReliableCourier::new(2);
            let out = run_async(&proto, &g, &config, &tapes, &mut courier);
            match out.outcome() {
                Outcome::TotalAttack => ta += 1,
                Outcome::PartialAttack => pa += 1,
                Outcome::NoAttack => {}
            }
        }
        let ta_rate = ta as f64 / trials as f64;
        let pa_rate = pa as f64 / trials as f64;
        assert!(
            (ta_rate - exact.ta.to_f64()).abs() < 0.03,
            "TA: exact {} vs MC {ta_rate}",
            exact.ta
        );
        assert!(
            (pa_rate - exact.pa.to_f64()).abs() < 0.03,
            "PA: exact {} vs MC {pa_rate}",
            exact.pa
        );
    }

    #[test]
    fn silence_outcome() {
        let g = Graph::complete(2).unwrap();
        let config = AsyncConfig::all_inputs(&g, 10);
        let mut courier = SilenceCourier;
        let out = async_s_outcomes(&g, &config, &mut courier, 8);
        // Leader alone can attack (rfire ≤ 1): PA = 1/8, TA = 0.
        assert_eq!(out.ta, Rational::ZERO);
        assert_eq!(out.pa, Rational::new(1, 8));
    }
}
