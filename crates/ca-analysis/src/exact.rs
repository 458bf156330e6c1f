//! Exact outcome probabilities.
//!
//! For a **fixed run**, both of the paper's protocols have so little
//! randomness that every outcome probability is a small closed-form rational:
//!
//! * **Protocol S** — the counting automaton is deterministic given the run
//!   (`count_i = ML_i(R)`, Lemma 6.4; which processes hear `rfire` is a
//!   flows-to fact). The only randomness is `rfire ~ U(0, 1/ε]`, so
//!   `Pr[TA|R] = min(1, ε·Mincount)` and
//!   `Pr[PA|R] = min(1, ε·Maxcount) − min(1, ε·Mincount)`, where the
//!   min/max range over final counts. Because counts spread by at most 1
//!   (Lemma 6.2), `Pr[PA|R] ≤ ε` — Theorem 6.7 in one line.
//! * **Protocol A** — the only randomness is `rfire ~ U{2..N}`; we execute
//!   the real protocol once per possible value and tally.
//!
//! The Protocol S functions read the final counts as modified levels
//! (Lemma 6.4) from the sparse level frontier, as
//! [`crate::level_dp::run_outcomes`] does, and integrate over `rfire` with
//! [`DpSpec`]'s firing rule. `tests/level_dp_differential.rs` holds that
//! engine to executions of `ProtocolS` itself.

use crate::level_dp::{run_outcomes, DpSpec};
use ca_core::exec::execute;
use ca_core::graph::Graph;
use ca_core::level::modified_levels;
use ca_core::rational::Rational;
use ca_core::run::Run;
use ca_core::tape::{BitTape, TapeSet};
use ca_protocols::ProtocolA;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Exact probabilities of the three outcomes for one protocol on one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExactOutcome {
    /// `Pr[TA|R]` — the liveness `L(F, R)`.
    pub ta: Rational,
    /// `Pr[NA|R]`.
    pub na: Rational,
    /// `Pr[PA|R]` — the disagreement probability.
    pub pa: Rational,
}

impl ExactOutcome {
    /// Checks internal consistency (`ta + na + pa = 1`, all in `[0,1]`).
    pub fn is_valid(&self) -> bool {
        self.ta.is_probability()
            && self.na.is_probability()
            && self.pa.is_probability()
            && self.ta + self.na + self.pa == Rational::ONE
    }
}

impl fmt::Display for ExactOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TA={} NA={} PA={}", self.ta, self.na, self.pa)
    }
}

/// Exact outcome probabilities of **Protocol S** with `ε = 1/t` on `run`:
/// [`run_outcomes`] under [`DpSpec::protocol_s`].
///
/// The final counts and token possession do not depend on the sampled
/// `rfire` value, so the uniform `rfire ∈ (0, t]` is integrated exactly.
///
/// # Panics
///
/// Panics if `t == 0` or [`Run::validate`] rejects `run` on `graph`.
pub fn protocol_s_outcomes(graph: &Graph, run: &Run, t: u64) -> ExactOutcome {
    run_outcomes(graph, run, &DpSpec::protocol_s(t)).unwrap_or_else(|e| panic!("{e}"))
}

/// Exact outcome probabilities of **Protocol A** (horizon `n`) on `run`,
/// computed by executing the protocol once for each of the `n - 1` equally
/// likely values of `rfire`.
///
/// # Panics
///
/// Panics if the run is not over exactly 2 processes or horizons mismatch.
pub fn protocol_a_outcomes(graph: &Graph, run: &Run, n: u32) -> ExactOutcome {
    assert_eq!(run.process_count(), 2, "protocol A is a 2-general protocol");
    assert_eq!(
        run.horizon(),
        n,
        "run horizon differs from protocol horizon"
    );
    let proto = ProtocolA::new(n);
    let denom = (n - 1) as i128;
    let (mut ta, mut na, mut pa) = (0i128, 0i128, 0i128);
    for rfire in 2..=n {
        // Force the leader's tape so rejection sampling yields this rfire.
        let word = u64::from(rfire - 2);
        let tapes = TapeSet::from_tapes(vec![
            BitTape::from_words(vec![word; 64]),
            BitTape::from_words(vec![0; 64]),
        ]);
        let ex = execute(&proto, graph, run, &tapes);
        match ex.outcome() {
            ca_core::outcome::Outcome::TotalAttack => ta += 1,
            ca_core::outcome::Outcome::NoAttack => na += 1,
            ca_core::outcome::Outcome::PartialAttack => pa += 1,
        }
    }
    ExactOutcome {
        ta: Rational::new(ta, denom),
        na: Rational::new(na, denom),
        pa: Rational::new(pa, denom),
    }
}

/// Exact per-process decision probabilities `Pr[D_i|R]` of Protocol S on
/// `run`: `min(1, ε·count_i)` for `count_i ≥ 1` (which implies the token),
/// else 0 — [`DpSpec::attack_prob`] of each final count, read as the
/// modified level `ML_i(R)` (Lemma 6.4).
///
/// These are the quantities the paper's elementary Lemmas 2.2 and 2.3 bound:
/// `Pr[D_i|R] − Pr[D_j|R] ≤ U_s(F)` and `L(F,R) ≤ Pr[D_i|R]` — asserted over
/// exact values in this module's tests.
///
/// # Panics
///
/// Panics if `t == 0` or [`Run::validate`] rejects `run` on `graph`.
pub fn protocol_s_decision_probabilities(graph: &Graph, run: &Run, t: u64) -> Vec<Rational> {
    let spec = DpSpec::protocol_s(t);
    spec.validate_params().unwrap_or_else(|e| panic!("{e}"));
    run.validate(graph).unwrap_or_else(|e| panic!("{e}"));
    modified_levels(run)
        .final_levels()
        .into_iter()
        .map(|count| spec.attack_prob(count, count >= 1))
        .collect()
}

/// Exact worst-case disagreement of Protocol S over a family of runs:
/// returns `(worst_pa, index_of_worst_run)`.
///
/// # Panics
///
/// Panics if `family` is empty.
pub fn protocol_s_worst_pa(graph: &Graph, family: &[Run], t: u64) -> (Rational, usize) {
    assert!(!family.is_empty(), "empty run family");
    family
        .iter()
        .enumerate()
        .map(|(k, run)| (protocol_s_outcomes(graph, run, t).pa, k))
        .max()
        .expect("nonempty family")
}

/// Exact worst-case disagreement of Protocol A over a family of runs.
///
/// # Panics
///
/// Panics if `family` is empty.
pub fn protocol_a_worst_pa(graph: &Graph, family: &[Run], n: u32) -> (Rational, usize) {
    assert!(!family.is_empty(), "empty run family");
    family
        .iter()
        .enumerate()
        .map(|(k, run)| (protocol_a_outcomes(graph, run, n).pa, k))
        .max()
        .expect("nonempty family")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{dense_levels, final_extremes};
    use ca_core::ids::{ProcessId, Round};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn s_good_run_liveness_is_min_one_epsilon_ml() {
        // Theorem 6.8 as an equality on the good run: ML(R) = N for m = 2.
        let g = Graph::complete(2).unwrap();
        for n in [2u32, 4, 7] {
            for t in [2u64, 8, 20] {
                let run = Run::good(&g, n);
                let out = protocol_s_outcomes(&g, &run, t);
                let ml = final_extremes(&dense_levels(&run, true)).0;
                assert_eq!(ml, n);
                let predicted = Rational::new(ml as i128, t as i128).min(Rational::ONE);
                assert_eq!(out.ta, predicted, "n={n}, t={t}");
                assert!(out.is_valid());
            }
        }
    }

    #[test]
    fn s_disagreement_never_exceeds_epsilon() {
        // Theorem 6.7, exactly, over the whole cut family.
        let g = Graph::complete(2).unwrap();
        let n = 5;
        let t = 4u64;
        let eps = Rational::new(1, t as i128);
        for run in ca_sim::cut_family(&g, n) {
            let out = protocol_s_outcomes(&g, &run, t);
            assert!(out.pa <= eps, "PA = {} > ε on {run}", out.pa);
            assert!(out.is_valid());
        }
    }

    #[test]
    fn s_survives_crash_stop_failures() {
        // Crash-stop is a special case of link failure: the bound holds and
        // liveness still follows min(1, ε·ML) exactly.
        let g = Graph::complete(3).unwrap();
        let n = 6;
        let t = 5u64;
        let eps = Rational::new(1, t as i128);
        for run in ca_sim::crash_family(&g, n) {
            let out = protocol_s_outcomes(&g, &run, t);
            assert!(out.pa <= eps, "PA = {} > ε on crash run {run}", out.pa);
            let ml = final_extremes(&dense_levels(&run, true)).0;
            assert_eq!(
                out.ta,
                (eps * Rational::from(ml)).min(Rational::ONE),
                "liveness formula under crash"
            );
        }
    }

    #[test]
    fn s_empty_run_is_perfectly_safe_and_dead() {
        let g = Graph::complete(3).unwrap();
        let out = protocol_s_outcomes(&g, &Run::empty(3, 4), 5);
        assert_eq!(out.ta, Rational::ZERO);
        assert_eq!(out.pa, Rational::ZERO);
        assert_eq!(out.na, Rational::ONE);
    }

    #[test]
    fn s_leaderless_run_cannot_attack() {
        // Cut the leader off: no token ever leaves it, and the leader's own
        // count is capped at 1; Pr[attack] = ε for the leader alone → PA = ε.
        let g = Graph::complete(2).unwrap();
        let mut run = Run::good(&g, 4);
        for r in 1..=4u32 {
            run.remove_message(p(0), p(1), Round::new(r));
        }
        let out = protocol_s_outcomes(&g, &run, 8);
        assert_eq!(out.ta, Rational::ZERO);
        assert_eq!(
            out.pa,
            Rational::new(1, 8),
            "leader attacks alone iff rfire ≤ 1"
        );
    }

    #[test]
    fn s_saturates_at_probability_one() {
        // ML(R) = N ≥ t ⟹ liveness exactly 1.
        let g = Graph::complete(2).unwrap();
        let run = Run::good(&g, 6);
        let out = protocol_s_outcomes(&g, &run, 4);
        assert_eq!(out.ta, Rational::ONE);
        assert_eq!(out.pa, Rational::ZERO);
    }

    #[test]
    fn a_good_run_certain_attack() {
        let g = Graph::complete(2).unwrap();
        let n = 6;
        let out = protocol_a_outcomes(&g, &Run::good(&g, n), n);
        assert_eq!(out.ta, Rational::ONE);
        assert!(out.is_valid());
    }

    #[test]
    fn a_cut_at_d_has_pa_exactly_one_over_n_minus_one() {
        let g = Graph::complete(2).unwrap();
        let n = 7;
        for d in 2..=n {
            let mut run = Run::good(&g, n);
            run.cut_from_round(Round::new(d));
            let out = protocol_a_outcomes(&g, &run, n);
            assert_eq!(out.pa, Rational::new(1, (n - 1) as i128), "cut at {d}");
            // TA iff rfire < d: (d - 2) of the (n-1) values.
            assert_eq!(out.ta, Rational::new((d - 2) as i128, (n - 1) as i128));
        }
    }

    #[test]
    fn a_worst_case_over_cut_family_is_one_over_n_minus_one() {
        let g = Graph::complete(2).unwrap();
        let n = 6;
        let family = ca_sim::cut_family(&g, n);
        let (worst, _) = protocol_a_worst_pa(&g, &family, n);
        assert_eq!(worst, Rational::new(1, (n - 1) as i128));
    }

    #[test]
    fn s_worst_case_over_cut_family_is_epsilon() {
        let g = Graph::complete(2).unwrap();
        let n = 6;
        let t = 3u64;
        let family = ca_sim::cut_family(&g, n);
        let (worst, _) = protocol_s_worst_pa(&g, &family, t);
        assert_eq!(worst, Rational::new(1, t as i128), "the bound is tight");
    }

    #[test]
    fn lemmas_2_2_and_2_3_hold_exactly() {
        // Lemma 2.2: Pr[D_i|R] − Pr[D_j|R] ≤ U_s(F) = ε.
        // Lemma 2.3: L(F,R) ≤ Pr[D_i|R] for every i.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = Graph::complete(3).unwrap();
        let t = 6u64;
        let eps = Rational::new(1, t as i128);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..40 {
            let mut run = Run::good(&g, 5);
            let slots: Vec<_> = run.messages().collect();
            for s in slots {
                if rng.gen_bool(0.4) {
                    run.remove_message(s.from, s.to, s.round);
                }
            }
            let probs = protocol_s_decision_probabilities(&g, &run, t);
            let out = protocol_s_outcomes(&g, &run, t);
            for &pi in &probs {
                assert!(out.ta <= pi, "Lemma 2.3: L = {} > Pr[D_i] = {pi}", out.ta);
                for &pj in &probs {
                    assert!(pi - pj <= eps, "Lemma 2.2: {pi} - {pj} > ε");
                }
            }
        }
    }

    #[test]
    fn lemma_5_3_decision_probability_bounded_by_u_times_level() {
        // Pr[D_i|R] ≤ U_s(F)·L_i(R) with U_s(S) = ε, exactly.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = Graph::complete(3).unwrap();
        let t = 5u64;
        let eps = Rational::new(1, t as i128);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..40 {
            let mut run = Run::good(&g, 4);
            for i in g.vertices() {
                if rng.gen_bool(0.3) {
                    run.remove_input(i);
                }
            }
            let slots: Vec<_> = run.messages().collect();
            for s in slots {
                if rng.gen_bool(0.4) {
                    run.remove_message(s.from, s.to, s.round);
                }
            }
            let probs = protocol_s_decision_probabilities(&g, &run, t);
            let l = dense_levels(&run, false);
            for (i, &pi) in g.vertices().zip(&probs) {
                let bound = (eps * Rational::from(l[i.index()][4])).min(Rational::ONE);
                assert!(pi <= bound, "Lemma 5.3: Pr[D_{i}] = {pi} > ε·L_i = {bound}");
            }
        }
    }

    #[test]
    fn a_no_input_run_is_dead() {
        let g = Graph::complete(2).unwrap();
        let n = 5;
        let run = Run::good_with_inputs(&g, n, &[]);
        let out = protocol_a_outcomes(&g, &run, n);
        assert_eq!(out.na, Rational::ONE);
    }
}
