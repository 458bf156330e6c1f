//! The weak (probabilistic) adversary family for big-graph sweeps.
//!
//! §8's weak adversary destroys messages *randomly* instead of adversarially.
//! [`WeakAdversary`] is that adversary over the good run, driven by a
//! serializable [`LossModel`] — per-link iid loss (the paper's own model) or
//! a two-state Gilbert–Elliott bursty channel (per Tamir et al.'s
//! unreliable-communication model, PAPERS.md). It samples either a dense
//! [`Run`] (the [`RunSampler`] path) or, through
//! [`WeakAdversary::sample_edges_into`], an edge-keyed [`EdgeRun`] for graphs
//! where the dense `m²`-bit representation is a waste.
//!
//! # Draw-order contract
//!
//! Both sampling paths draw **identical coins in the identical order**:
//! link-major over the directed edges sorted by `(from, to)`, rounds
//! ascending within each link — which over a good base run is exactly the
//! canonical `(from, to, round)` slot order of [`Run::messages`]. For the
//! [`LossModel::Iid`] model this is one `gen_bool(p)` per slot, which is the
//! [`SlicedSampler::IidDrop`] lane-mask contract, so the bit-sliced engine's
//! scalar-oracle byte-identity carries over ([`RunSampler::sliced`] returns
//! `IidDrop`). Gilbert–Elliott draws, per link: one stationarity coin for the
//! initial channel state, then per round one loss coin and one transition
//! coin (a fixed number of draws regardless of outcomes); it has no lane-mask
//! form, so `sliced()` stays `None` and the engine takes the scalar path.
//! The iid arm evaluates its `gen_bool(p)` coins in an exact integer form,
//! 64 slots per loss mask (see `coin_threshold`). `tests` pin the dense and
//! edge-keyed paths against each other per seed, and the workspace's
//! `tests/atlas_oracles.rs` pins the edge-keyed path against a `gen_bool`
//! transcription of this contract.

use crate::strategy::{RunSampler, SlicedSampler};
use ca_core::error::CaError;
use ca_core::graph::Graph;
use ca_core::ids::Round;
use ca_core::run::{EdgeRun, Run};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A per-link message-loss model: the serializable recipe for one weak
/// adversary (embedded in sweep configs and reports).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// Every message destroyed independently with probability `p`.
    Iid {
        /// Per-message destruction probability.
        p: f64,
    },
    /// Two-state Gilbert–Elliott channel per directed link: the link sits in
    /// a `Good` or `Bad` state, loses each round's message with the state's
    /// loss probability, then transitions. Chains start in their stationary
    /// distribution, so the long-run loss rate is
    /// [`LossModel::stationary_loss`] from round 1.
    GilbertElliott {
        /// Loss probability while the link is in the good state.
        loss_good: f64,
        /// Loss probability while the link is in the bad (burst) state.
        loss_bad: f64,
        /// Per-round transition probability good → bad.
        good_to_bad: f64,
        /// Per-round transition probability bad → good.
        bad_to_good: f64,
    },
}

impl LossModel {
    /// The stationary probability of the bad state (`0` for iid).
    pub fn stationary_bad(&self) -> f64 {
        match *self {
            LossModel::Iid { .. } => 0.0,
            LossModel::GilbertElliott {
                good_to_bad,
                bad_to_good,
                ..
            } => good_to_bad / (good_to_bad + bad_to_good),
        }
    }

    /// The long-run per-message loss rate.
    pub fn stationary_loss(&self) -> f64 {
        match *self {
            LossModel::Iid { p } => p,
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                ..
            } => {
                let pi_bad = self.stationary_bad();
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }

    /// A short stable name for tables and reports (e.g. `iid0.05`,
    /// `ge0.01-0.5`).
    pub fn name(&self) -> String {
        match *self {
            LossModel::Iid { p } => format!("iid{p}"),
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                ..
            } => format!("ge{loss_good}-{loss_bad}"),
        }
    }

    /// Checks that every probability lies in `[0, 1]` (NaN does not) and
    /// that a Gilbert–Elliott model has a nonzero transition rate.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::MalformedConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), CaError> {
        let check = |name: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(CaError::malformed(format!(
                    "{name} must be in [0,1], got {v}"
                )))
            }
        };
        match *self {
            LossModel::Iid { p } => check("p", p),
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                good_to_bad,
                bad_to_good,
            } => {
                check("loss_good", loss_good)?;
                check("loss_bad", loss_bad)?;
                check("good_to_bad", good_to_bad)?;
                check("bad_to_good", bad_to_good)?;
                if good_to_bad + bad_to_good > 0.0 {
                    Ok(())
                } else {
                    Err(CaError::malformed(
                        "Gilbert-Elliott needs at least one nonzero transition rate",
                    ))
                }
            }
        }
    }
}

/// The weak adversary over the good run of a graph: every input arrives,
/// and each round's message on each directed link is destroyed according to
/// a [`LossModel`].
///
/// Implements [`RunSampler`] (dense path, used by `simulate` and the chaos
/// harness) and additionally offers [`WeakAdversary::sample_edges_into`]
/// (edge-keyed path, used by the `ca sweep` engine at big `m`).
#[derive(Clone, Debug)]
pub struct WeakAdversary {
    /// The dense good run (the `RunSampler` base), built from `template` on
    /// first dense use: the edge-keyed sweep never needs its `m²` bits per
    /// round.
    base: OnceLock<Run>,
    /// The edge-keyed good run (the template `edge_template` hands out).
    template: EdgeRun,
    model: LossModel,
}

impl WeakAdversary {
    /// A weak adversary with the given loss model over the good run of
    /// `graph` with horizon `n`.
    ///
    /// # Panics
    ///
    /// Panics if any model probability is outside `[0, 1]`, or if a
    /// Gilbert–Elliott model has both transition rates zero.
    pub fn new(graph: &Graph, n: u32, model: LossModel) -> Self {
        if let Err(e) = model.validate() {
            panic!("{e}");
        }
        WeakAdversary {
            base: OnceLock::new(),
            template: EdgeRun::good(graph, n),
            model,
        }
    }

    /// The dense good run, built on first use (`EdgeRun::to_run` of the
    /// template equals `Run::good` of the graph).
    fn base(&self) -> &Run {
        self.base.get_or_init(|| self.template.to_run())
    }

    /// Shorthand for [`LossModel::Iid`].
    pub fn iid(graph: &Graph, n: u32, p: f64) -> Self {
        Self::new(graph, n, LossModel::Iid { p })
    }

    /// The loss model.
    pub fn model(&self) -> &LossModel {
        &self.model
    }

    /// A fresh edge-keyed good run sized for this adversary — the scratch
    /// buffer callers thread through [`WeakAdversary::sample_edges_into`].
    pub fn edge_template(&self) -> EdgeRun {
        self.template.clone()
    }

    /// Writes one trial into the edge-keyed `er`, resetting it to the good
    /// run first. Returns the number of messages destroyed.
    ///
    /// Draws exactly the coins of [`RunSampler::sample_into`] in the same
    /// order (see the module docs), so per-seed the two paths produce the
    /// same run — `tests` pin `er.to_run() == run`.
    pub fn sample_edges_into<R: Rng + ?Sized>(&self, er: &mut EdgeRun, rng: &mut R) -> u64 {
        er.reset_good();
        self.for_each_destroyed(rng, |e, r| {
            er.destroy(e, r);
        })
    }

    /// Draws the trial's coins and reports each destroyed `(edge index,
    /// round)` — the single sampling engine both paths share.
    fn for_each_destroyed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut destroy: impl FnMut(usize, Round),
    ) -> u64 {
        let n = self.template.horizon();
        let mut flipped = 0;
        match self.model {
            LossModel::Iid { p } => {
                // Slot `s` is edge `s / n`, round `s % n + 1`: link-major.
                // Up to 64 coins go into a loss mask before any destroy, and
                // each is `gen_bool(p)` in integer form (see `coin_threshold`).
                let threshold = coin_threshold(p);
                let slots = self.template.directed_edge_count() * n as usize;
                for start in (0..slots).step_by(64) {
                    let mut lost = 0u64;
                    for bit in 0..(slots - start).min(64) {
                        lost |= u64::from((rng.next_u64() >> 11) < threshold) << bit;
                    }
                    while lost != 0 {
                        let s = start + lost.trailing_zeros() as usize;
                        lost &= lost - 1;
                        destroy(s / n as usize, Round::new((s % n as usize) as u32 + 1));
                        flipped += 1;
                    }
                }
            }
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                good_to_bad,
                bad_to_good,
            } => {
                let pi_bad = self.model.stationary_bad();
                for e in 0..self.template.directed_edge_count() {
                    let mut bad = rng.gen_bool(pi_bad);
                    for r in Round::protocol_rounds(n) {
                        let loss = if bad { loss_bad } else { loss_good };
                        if rng.gen_bool(loss) {
                            destroy(e, r);
                            flipped += 1;
                        }
                        bad = if bad {
                            !rng.gen_bool(bad_to_good)
                        } else {
                            rng.gen_bool(good_to_bad)
                        };
                    }
                }
            }
        }
        flipped
    }

    fn drop_into<R: Rng + ?Sized>(&self, run: &mut Run, rng: &mut R) -> u64 {
        let edges = self.template.directed_edges();
        self.for_each_destroyed(rng, |e, r| {
            let (from, to) = edges[e];
            run.remove_message(from, to, r);
        })
    }
}

/// The integer form of `gen_bool(p)`: for the vendored `rand`,
/// `gen_bool(p)` is `k · 2⁻⁵³ < p` with `k = x >> 11` for the next word `x`,
/// and `k · 2⁻⁵³ < p ⇔ k < p · 2⁵³ ⇔ k < ⌈p · 2⁵³⌉` because `k` is an
/// integer and both scalings by `2⁵³` are exact in `f64`. So
/// `(x >> 11) < coin_threshold(p)` is the same coin from the same word.
fn coin_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "validated probability");
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl RunSampler for WeakAdversary {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Run {
        let mut run = self.base().clone();
        self.drop_into(&mut run, rng);
        run
    }

    fn sample_into<R: Rng + ?Sized>(&self, run: &mut Run, rng: &mut R) {
        run.clone_from(self.base());
        self.drop_into(run, rng);
    }

    fn sample_into_observed<R: Rng + ?Sized>(
        &self,
        run: &mut Run,
        rng: &mut R,
        obs: &ca_obs::Metrics,
    ) {
        run.clone_from(self.base());
        let flipped = self.drop_into(run, rng);
        obs.inc(ca_obs::CounterId::RunSamples);
        obs.add(ca_obs::CounterId::RunSlotsFlipped, flipped);
    }

    fn sliced(&self) -> Option<SlicedSampler<'_>> {
        match self.model {
            // One gen_bool(p) per canonical slot of a good base — exactly the
            // IidDrop lane-mask contract.
            LossModel::Iid { p } => Some(SlicedSampler::IidDrop {
                base: self.base(),
                p,
            }),
            // The per-link Markov chain has no base-run-plus-lane-mask form;
            // force the scalar path.
            LossModel::GilbertElliott { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BernoulliEstimate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ge_model() -> LossModel {
        LossModel::GilbertElliott {
            loss_good: 0.01,
            loss_bad: 0.5,
            good_to_bad: 0.05,
            bad_to_good: 0.25,
        }
    }

    #[test]
    fn dense_and_edge_paths_agree_per_seed() {
        let g = Graph::ring(5).unwrap();
        for model in [LossModel::Iid { p: 0.2 }, ge_model()] {
            let weak = WeakAdversary::new(&g, 6, model);
            let mut er = weak.edge_template();
            let mut run = Run::empty(1, 0);
            for seed in 0..20 {
                weak.sample_into(&mut run, &mut StdRng::seed_from_u64(seed));
                let dropped = weak.sample_edges_into(&mut er, &mut StdRng::seed_from_u64(seed));
                assert_eq!(er.to_run(), run, "{} seed {seed}", model.name());
                assert_eq!(
                    dropped as usize,
                    weak.base().message_count() - run.message_count(),
                    "flip count, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn gilbert_elliott_hits_stationary_loss_rate() {
        // Chains start in the stationary distribution, so the empirical loss
        // rate over many links and rounds must match the closed form at z=4
        // (for iid, the closed form is p itself).
        let g = Graph::complete(2).unwrap();
        let n = 500;
        for model in [LossModel::Iid { p: 0.3 }, ge_model()] {
            let weak = WeakAdversary::new(&g, n, model);
            let mut er = weak.edge_template();
            let total_slots = weak.template.message_count();
            let mut rng = StdRng::seed_from_u64(0xCE11);
            let mut est = BernoulliEstimate::default();
            for _ in 0..100 {
                let dropped = weak.sample_edges_into(&mut er, &mut rng);
                est.merge(&BernoulliEstimate::new(dropped, total_slots as u64));
            }
            let expected = weak.model().stationary_loss();
            assert!(
                est.consistent_with_z(expected, 4.0),
                "{} loss rate {} inconsistent with stationary {expected}",
                model.name(),
                est.point()
            );
        }
        // The closed form itself: pi_bad = 0.05/0.30, loss = (1-pi)*0.01 + pi*0.5.
        let pi = 0.05 / 0.30;
        let ge = ge_model().stationary_loss();
        assert!((ge - ((1.0 - pi) * 0.01 + pi * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // With a sticky bad state, P(loss at r+1 | loss at r) must exceed the
        // marginal loss rate — that's the whole point of the model.
        let g = Graph::complete(2).unwrap();
        let n = 400;
        let weak = WeakAdversary::new(&g, n, ge_model());
        let mut er = weak.edge_template();
        let mut rng = StdRng::seed_from_u64(7);
        let (mut pair_loss, mut pairs, mut losses, mut slots) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..50 {
            weak.sample_edges_into(&mut er, &mut rng);
            for e in 0..er.directed_edge_count() {
                for r in 1..n {
                    let a = !er.delivers_edge(e, Round::new(r));
                    let b = !er.delivers_edge(e, Round::new(r + 1));
                    losses += a as u64;
                    slots += 1;
                    if a {
                        pairs += 1;
                        pair_loss += b as u64;
                    }
                }
            }
        }
        let conditional = pair_loss as f64 / pairs as f64;
        let marginal = losses as f64 / slots as f64;
        assert!(
            conditional > 1.5 * marginal,
            "expected bursty losses: P(loss|loss)={conditional:.3} vs marginal={marginal:.3}"
        );
    }

    #[test]
    fn iid_sliced_ge_scalar() {
        let g = Graph::complete(3).unwrap();
        let iid = WeakAdversary::iid(&g, 3, 0.1);
        assert!(matches!(
            iid.sliced(),
            Some(SlicedSampler::IidDrop { p, .. }) if p == 0.1
        ));
        let ge = WeakAdversary::new(&g, 3, ge_model());
        assert!(ge.sliced().is_none());
        assert_eq!(ge.model().name(), "ge0.01-0.5");
    }

    #[test]
    fn loss_model_serde_round_trips() {
        let models = vec![LossModel::Iid { p: 0.05 }, ge_model()];
        let json = serde::json::to_string(&models).unwrap();
        let back: Vec<LossModel> = serde::json::from_str(&json).unwrap();
        assert_eq!(back, models);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn rejects_out_of_range_probability() {
        let g = Graph::complete(2).unwrap();
        let _ = WeakAdversary::iid(&g, 2, 1.5);
    }
}
