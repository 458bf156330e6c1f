//! The safety–liveness tradeoff: `L/U ≤ N` and its consequences.
//!
//! Theorem 5.4 says `L(F, R) ≤ U_s(F) · L(R)` for every protocol and run;
//! since `L(R) ≤ N + 1` is bounded by the rounds (and `= N` on good runs of a
//! 2-clique), any protocol with liveness 1 on some run needs
//! `U ≥ 1/L(R) ≥ ~1/N`. This module computes the bound's consequences —
//! e.g. Section 8's headline number: liveness 1 with `U ≤ 0.001` needs at
//! least 1000 rounds — and the achieved frontier of Protocol S.

use crate::exact::protocol_s_outcomes;
use ca_core::graph::Graph;
use ca_core::level::{levels, modified_levels};
use ca_core::rational::Rational;
use ca_core::run::Run;
use serde::{Deserialize, Serialize};

/// One point on the tradeoff frontier.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Number of protocol rounds.
    pub n: u32,
    /// The unsafety budget `ε` (as `1/t`).
    pub t: u64,
    /// `L(R)` of the probe run (the lower-bound capacity).
    pub level: u32,
    /// `ML(R)` of the probe run (what Protocol S can use).
    pub modified_level: u32,
    /// The upper bound `min(1, ε·L(R))` of Theorem 5.4.
    pub bound: Rational,
    /// Protocol S's exact liveness `min(1, ε·ML(R))` on the probe run.
    pub achieved: Rational,
}

/// Computes the frontier on the good run of `graph` for each horizon in `ns`.
pub fn frontier(graph: &Graph, ns: &[u32], t: u64) -> Vec<FrontierPoint> {
    ns.iter()
        .map(|&n| {
            let run = Run::good(graph, n);
            let level = levels(&run).min_level();
            let ml = modified_levels(&run).min_level();
            let eps = Rational::new(1, t as i128);
            FrontierPoint {
                n,
                t,
                level,
                modified_level: ml,
                bound: (eps * Rational::from(level)).min(Rational::ONE),
                achieved: protocol_s_outcomes(graph, &run, t).ta,
            }
        })
        .collect()
}

/// The smallest horizon in `1..=cap` satisfying `pred`, where `pred` is
/// **monotone** in the horizon (once true, true for every larger horizon).
///
/// Levels of the good run only grow as rounds are added, so both round
/// thresholds below are monotone and binary search returns exactly what the
/// linear scan `(1..=cap).find(pred)` would — at `O(log cap)` probes instead
/// of `O(cap)`, which is what keeps E9's `t = 1000` row cheap.
fn min_horizon_satisfying(cap: u32, pred: impl Fn(u32) -> bool) -> Option<u32> {
    if cap == 0 || !pred(cap) {
        return None;
    }
    let (mut lo, mut hi) = (1u32, cap);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// The minimum horizon `N` for which Protocol S reaches liveness 1 on the
/// good run of `graph` with unsafety budget `ε = 1/t`, or `None` if no
/// `N ≤ cap` suffices.
///
/// For the 2-clique `ML(good) = N`, so the answer is exactly `t` — the
/// Section 8 claim that `ε = 0.001` forces 1000 rounds.
pub fn min_rounds_for_certain_liveness(graph: &Graph, t: u64, cap: u32) -> Option<u32> {
    min_horizon_satisfying(cap, |n| {
        let run = Run::good(graph, n);
        protocol_s_outcomes(graph, &run, t).ta == Rational::ONE
    })
}

/// The lower-bound version: the smallest `N` such that `ε·L(good run) ≥ 1` —
/// no protocol can reach liveness 1 sooner (Theorem 5.4), so this is a lower
/// bound on rounds for *every* protocol.
///
/// On the 2-clique the unmodified level of the good run is `N + 1` (hearing
/// the input already counts as one level), so this returns `t - 1` — one
/// round less than Protocol S needs. The gap is exactly the `L` vs `ML`
/// slack of Lemma 6.1, which the second lower bound (Theorem A.1) closes.
pub fn min_rounds_lower_bound(graph: &Graph, t: u64, cap: u32) -> Option<u32> {
    min_horizon_satisfying(cap, |n| {
        let run = Run::good(graph, n);
        u64::from(levels(&run).min_level()) >= t
    })
}

/// The achieved tradeoff ratio `L(S, R_good) / U_s(S)` at horizon `n`
/// (with `U_s(S) = ε` exactly, which experiment E4 verifies), as a rational.
pub fn achieved_ratio(graph: &Graph, n: u32, t: u64) -> Rational {
    let run = Run::good(graph, n);
    let liveness = protocol_s_outcomes(graph, &run, t).ta;
    liveness / Rational::new(1, t as i128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_respects_theorem_5_4() {
        let g = Graph::complete(2).unwrap();
        for pt in frontier(&g, &[1, 2, 4, 8, 16], 8) {
            assert!(
                pt.achieved <= pt.bound,
                "L(S) must respect the bound: {pt:?}"
            );
            // And the gap is at most one level's worth of ε (Lemma 6.1).
            let eps = Rational::new(1, 8);
            assert!(pt.bound - pt.achieved <= eps, "gap > ε: {pt:?}");
        }
    }

    #[test]
    fn two_clique_needs_exactly_t_rounds() {
        // Section 8's numeric claim, scaled down: ε = 1/12 ⟹ 12 rounds for
        // Protocol S; the level-based lower bound allows one round less
        // (L = N + 1 on the good run), the Lemma 6.1 gap.
        let g = Graph::complete(2).unwrap();
        assert_eq!(min_rounds_for_certain_liveness(&g, 12, 64), Some(12));
        assert_eq!(min_rounds_lower_bound(&g, 12, 64), Some(11));
        assert_eq!(min_rounds_for_certain_liveness(&g, 12, 8), None);
    }

    #[test]
    fn exact_dp_round_agrees_with_the_good_run_closed_form() {
        // The sweep maximizes over every run, the closed form probes the
        // good run; the good run is optimal, so they must agree — and the
        // DP proves it rather than assuming it.
        use crate::level_dp::{sweep, DpSpec};
        let certain_round = |g: &Graph, t: u64, cap: u32| {
            sweep(g, cap, &DpSpec::protocol_s(t), &[]).map(|r| r.first_certain_round)
        };
        for (g, t, cap) in [
            (Graph::complete(2).unwrap(), 12u64, 16u32),
            (Graph::complete(3).unwrap(), 7, 12),
            (Graph::line(3).unwrap(), 5, 16),
        ] {
            assert_eq!(
                certain_round(&g, t, cap).unwrap(),
                min_rounds_for_certain_liveness(&g, t, cap),
                "t={t} on {g:?}"
            );
        }
        // Unreachable cap: both report None.
        let g = Graph::complete(2).unwrap();
        assert_eq!(certain_round(&g, 12, 8).unwrap(), None);
        // Ineligible graph: typed error, not a wrong answer.
        assert!(certain_round(&Graph::complete(5).unwrap(), 4, 4).is_err());
    }

    #[test]
    fn bigger_cliques_need_rounds_too() {
        // On K_m the level still climbs ~1 per round (complete gossip), so
        // the answer stays close to t.
        let g = Graph::complete(4).unwrap();
        let rounds = min_rounds_for_certain_liveness(&g, 6, 64).unwrap();
        assert!(rounds >= 6, "lower bound: at least t rounds");
        assert!(rounds <= 8, "complete graph gossips fast");
    }

    #[test]
    fn achieved_ratio_equals_ml_until_saturation() {
        let g = Graph::complete(2).unwrap();
        // Until liveness saturates, L/U = ML(R) = N ≤ the bound N.
        assert_eq!(achieved_ratio(&g, 5, 8), Rational::from(5i64));
        // After saturation the ratio is capped at t.
        assert_eq!(achieved_ratio(&g, 20, 8), Rational::from(8i64));
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        // The binary search relies on monotonicity of the probed predicates
        // in the horizon; cross-check against the naive linear scan over
        // several topologies, budgets, and caps (including unreachable ones).
        let graphs = [
            Graph::complete(2).unwrap(),
            Graph::complete(4).unwrap(),
            Graph::line(4).unwrap(),
            Graph::ring(5).unwrap(),
        ];
        for g in &graphs {
            for t in [2u64, 3, 5, 8] {
                for cap in [1u32, 4, 20, 40] {
                    let linear_live = (1..=cap)
                        .find(|&n| protocol_s_outcomes(g, &Run::good(g, n), t).ta == Rational::ONE);
                    assert_eq!(
                        min_rounds_for_certain_liveness(g, t, cap),
                        linear_live,
                        "liveness threshold: t={t} cap={cap}"
                    );
                    let linear_lower =
                        (1..=cap).find(|&n| u64::from(levels(&Run::good(g, n)).min_level()) >= t);
                    assert_eq!(
                        min_rounds_lower_bound(g, t, cap),
                        linear_lower,
                        "lower bound threshold: t={t} cap={cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn line_graph_pays_its_diameter() {
        // On a line of 4, levels climb ~1 per 3 rounds; liveness 1 needs
        // roughly 3t rounds — topology matters, the tradeoff is per *level*,
        // not per round.
        let g_line = Graph::line(4).unwrap();
        let g_clique = Graph::complete(4).unwrap();
        let t = 4u64;
        let line_rounds = min_rounds_for_certain_liveness(&g_line, t, 128).unwrap();
        let clique_rounds = min_rounds_for_certain_liveness(&g_clique, t, 128).unwrap();
        assert!(
            line_rounds > clique_rounds,
            "line {line_rounds} vs clique {clique_rounds}"
        );
    }
}
