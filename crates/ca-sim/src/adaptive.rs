//! Adaptive adversaries — and why they don't help.
//!
//! The paper's strong adversary picks a run up front. A seemingly stronger
//! adversary decides round by round which messages to destroy, *adaptively*.
//! But the model hides message contents (footnote 3: the adversary "has no
//! access to message bits", and some form of encryption justifies this), and
//! in the model every process sends to every neighbor every round — so the
//! only observable history is the adversary's **own past choices**. An
//! adaptive metadata-only adversary is therefore just a (possibly
//! randomized) way of choosing a run, and the worst-case bound
//! `U_s(F) = max_R Pr[PA|R]` already covers it:
//!
//! `Pr[PA, adaptive 𝒜] = Σ_R Pr[𝒜 picks R]·Pr[PA|R] ≤ max_R Pr[PA|R]`.
//!
//! [`materialize`] implements the collapse constructively (adaptive strategy
//! → run), and the X2 extension experiment measures several adaptive
//! strategies against Protocol S — none beats `ε`.

use crate::strategy::RunSampler;
use ca_core::graph::Graph;
use ca_core::ids::{ProcessId, Round};
use ca_core::level::{min_modified_level_into, LevelScratch};
use ca_core::run::Run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A round-by-round adaptive adversary over message metadata.
///
/// `decide_inputs` is called once (round 0); `decide_round` once per protocol
/// round, in order. Implementations may carry state between calls — that
/// state can only depend on their own earlier decisions, which is exactly
/// the point.
pub trait AdaptiveAdversary {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Which processes receive the input signal.
    fn decide_inputs(&mut self, m: usize) -> Vec<bool>;

    /// For each directed slot of this round (in the given order), whether it
    /// is delivered.
    fn decide_round(&mut self, round: Round, slots: &[(ProcessId, ProcessId)]) -> Vec<bool>;
}

/// Collapses an adaptive adversary into the run it chooses — the
/// constructive form of "adaptivity without bit access adds nothing".
///
/// # Panics
///
/// Panics if the adversary returns decision vectors of the wrong length.
pub fn materialize<A: AdaptiveAdversary + ?Sized>(adversary: &mut A, graph: &Graph, n: u32) -> Run {
    let mut run = Run::empty(graph.len(), n);
    let inputs = adversary.decide_inputs(graph.len());
    assert_eq!(inputs.len(), graph.len(), "input decision length mismatch");
    for (i, deliver) in graph.vertices().zip(&inputs) {
        if *deliver {
            run.add_input(i);
        }
    }
    let slots: Vec<(ProcessId, ProcessId)> = graph.directed_edges().collect();
    for r in Round::protocol_rounds(n) {
        let decisions = adversary.decide_round(r, &slots);
        assert_eq!(
            decisions.len(),
            slots.len(),
            "round decision length mismatch"
        );
        for ((from, to), deliver) in slots.iter().zip(&decisions) {
            if *deliver {
                run.add_message(*from, *to, r);
            }
        }
    }
    run
}

/// Wraps an adaptive adversary (plus a seed schedule) as a [`RunSampler`]:
/// each trial materializes a fresh copy — the distribution-over-runs view.
#[derive(Clone, Debug)]
pub struct AdaptiveSampler<F> {
    graph: Graph,
    n: u32,
    make: F,
}

impl<F, A> AdaptiveSampler<F>
where
    F: Fn(u64) -> A + Sync,
    A: AdaptiveAdversary,
{
    /// Creates a sampler that builds a fresh adversary per trial from a seed.
    pub fn new(graph: Graph, n: u32, make: F) -> Self {
        AdaptiveSampler { graph, n, make }
    }
}

impl<F, A> RunSampler for AdaptiveSampler<F>
where
    F: Fn(u64) -> A + Sync,
    A: AdaptiveAdversary,
{
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Run {
        let mut adversary = (self.make)(rng.gen());
        materialize(&mut adversary, &self.graph, self.n)
    }
}

/// Adaptive strategy: deliver everything until a *randomly drawn* cut round,
/// then destroy everything — the randomized version of the prefix cut.
#[derive(Clone, Debug)]
pub struct RandomizedCut {
    cut: u32,
}

impl RandomizedCut {
    /// Draws the cut uniformly from `1..=n+1` (`n+1` = never cut).
    pub fn new(n: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        RandomizedCut {
            cut: rng.gen_range(1..=n + 1),
        }
    }
}

impl AdaptiveAdversary for RandomizedCut {
    fn name(&self) -> &'static str {
        "randomized-cut"
    }

    fn decide_inputs(&mut self, m: usize) -> Vec<bool> {
        vec![true; m]
    }

    fn decide_round(&mut self, round: Round, slots: &[(ProcessId, ProcessId)]) -> Vec<bool> {
        vec![round.get() < self.cut; slots.len()]
    }
}

/// Adaptive strategy: a "gambler" that delivers rounds until it has let `k`
/// full rounds through, then flips increasingly biased coins to decide when
/// to strike, destroying everything afterwards. Its state is its own history
/// — the most an adaptive metadata-only adversary can use.
#[derive(Clone, Debug)]
pub struct Gambler {
    rng: StdRng,
    free_rounds: u32,
    struck: bool,
}

impl Gambler {
    /// Creates the gambler; it never strikes during the first `free_rounds`.
    pub fn new(free_rounds: u32, seed: u64) -> Self {
        Gambler {
            rng: StdRng::seed_from_u64(seed),
            free_rounds,
            struck: false,
        }
    }
}

impl AdaptiveAdversary for Gambler {
    fn name(&self) -> &'static str {
        "gambler"
    }

    fn decide_inputs(&mut self, m: usize) -> Vec<bool> {
        vec![true; m]
    }

    fn decide_round(&mut self, round: Round, slots: &[(ProcessId, ProcessId)]) -> Vec<bool> {
        if self.struck {
            return vec![false; slots.len()];
        }
        if round.get() > self.free_rounds {
            // Strike probability grows with how long it has already waited.
            let p = (f64::from(round.get() - self.free_rounds) * 0.15).min(0.9);
            if self.rng.gen_bool(p) {
                self.struck = true;
                return vec![false; slots.len()];
            }
        }
        vec![true; slots.len()]
    }
}

/// Adaptive strategy: destroys exactly one *random link direction* per round
/// after a grace period, rotating targets based on its own history.
#[derive(Clone, Debug)]
pub struct LinkChopper {
    rng: StdRng,
    grace: u32,
}

impl LinkChopper {
    /// Creates the chopper with a grace period of delivered rounds.
    pub fn new(grace: u32, seed: u64) -> Self {
        LinkChopper {
            rng: StdRng::seed_from_u64(seed),
            grace,
        }
    }
}

impl AdaptiveAdversary for LinkChopper {
    fn name(&self) -> &'static str {
        "link-chopper"
    }

    fn decide_inputs(&mut self, m: usize) -> Vec<bool> {
        vec![true; m]
    }

    fn decide_round(&mut self, round: Round, slots: &[(ProcessId, ProcessId)]) -> Vec<bool> {
        if round.get() <= self.grace || slots.is_empty() {
            return vec![true; slots.len()];
        }
        let victim = self.rng.gen_range(0..slots.len());
        (0..slots.len()).map(|k| k != victim).collect()
    }
}

/// Adaptive strategy: the min-level hunter. It tracks the run built from
/// its **own past choices**, recomputes the minimum modified level before
/// every round, and strikes — destroying everything forever — the moment
/// that level reaches `target`.
///
/// This is the online form of the paper's worst case: conditioning on the
/// observed min-level state is the most a metadata-only adversary can do,
/// and on a complete graph the strategy materializes to exactly the prefix
/// cut at round `target + 1` (`ML(R) = target`), the deepest point on the
/// `L = U·ML(R)` tradeoff line the adversary can force while keeping the
/// run's level at `target`. With `target = 1` the induced liveness is the
/// floor `ε` — adaptivity rediscovers, but cannot beat, the offline bound.
#[derive(Debug)]
pub struct MinLevelCut {
    graph: Graph,
    target: u32,
    run: Run,
    scratch: LevelScratch,
    struck: bool,
}

impl MinLevelCut {
    /// Creates the hunter for runs of horizon `n`; it strikes once the
    /// observed min modified level reaches `target`.
    pub fn new(graph: Graph, n: u32, target: u32) -> Self {
        let run = Run::empty(graph.len(), n);
        MinLevelCut {
            graph,
            target,
            run,
            scratch: LevelScratch::new(),
            struck: false,
        }
    }

    /// Whether the strike has happened yet.
    pub fn struck(&self) -> bool {
        self.struck
    }
}

impl AdaptiveAdversary for MinLevelCut {
    fn name(&self) -> &'static str {
        "min-level-cut"
    }

    fn decide_inputs(&mut self, m: usize) -> Vec<bool> {
        debug_assert_eq!(m, self.graph.len(), "graph/model size mismatch");
        for i in self.graph.vertices() {
            self.run.add_input(i);
        }
        vec![true; m]
    }

    fn decide_round(&mut self, round: Round, slots: &[(ProcessId, ProcessId)]) -> Vec<bool> {
        if !self.struck {
            // The run-so-far has nothing past the previous round, so its min
            // modified level is exactly what the protocol ends up with if
            // the adversary strikes *now*.
            let observed = min_modified_level_into(&self.run, &mut self.scratch);
            if observed >= self.target {
                self.struck = true;
            }
        }
        if self.struck {
            return vec![false; slots.len()];
        }
        for (from, to) in slots {
            self.run.add_message(*from, *to, round);
        }
        vec![true; slots.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialize_randomized_cut_is_a_prefix_cut() {
        let g = Graph::complete(2).unwrap();
        let n = 5;
        for seed in 0..20u64 {
            let mut adv = RandomizedCut::new(n, seed);
            let run = materialize(&mut adv, &g, n);
            run.validate(&g).unwrap();
            // Prefix structure: if round r has any delivery, all rounds < r are full.
            let full_round = |r: u32| run.messages_in_round(Round::new(r)).count() == 2;
            let mut seen_empty = false;
            for r in 1..=n {
                if full_round(r) {
                    assert!(!seen_empty, "non-prefix delivery pattern (seed {seed})");
                } else {
                    assert_eq!(run.messages_in_round(Round::new(r)).count(), 0);
                    seen_empty = true;
                }
            }
        }
    }

    #[test]
    fn gambler_eventually_strikes_and_stays_struck() {
        let g = Graph::complete(2).unwrap();
        let mut adv = Gambler::new(2, 7);
        let run = materialize(&mut adv, &g, 30);
        // Find the strike point; everything after must be destroyed.
        let mut dead = false;
        for r in 1..=30u32 {
            let count = run.messages_in_round(Round::new(r)).count();
            if dead {
                assert_eq!(count, 0, "gambler resurrected at round {r}");
            } else if count == 0 {
                dead = true;
            }
        }
        assert!(dead, "the gambler should strike within 30 rounds");
    }

    #[test]
    fn link_chopper_removes_one_slot_per_round_after_grace() {
        let g = Graph::complete(3).unwrap();
        let mut adv = LinkChopper::new(2, 3);
        let run = materialize(&mut adv, &g, 6);
        for r in 1..=2u32 {
            assert_eq!(run.messages_in_round(Round::new(r)).count(), 6);
        }
        for r in 3..=6u32 {
            assert_eq!(run.messages_in_round(Round::new(r)).count(), 5);
        }
    }

    #[test]
    fn min_level_cut_materializes_to_the_prefix_cut() {
        use ca_core::level::modified_levels;
        let g = Graph::complete(2).unwrap();
        let n = 6;
        for target in 0..=n + 1 {
            let mut adv = MinLevelCut::new(g.clone(), n, target);
            let run = materialize(&mut adv, &g, n);
            run.validate(&g).unwrap();
            // On a complete graph the hunter is exactly the prefix cut at
            // round target + 1 (or the good run when it never strikes).
            let mut expected = Run::good(&g, n);
            if target <= n {
                expected.cut_from_round(Round::new(target + 1));
            }
            assert_eq!(run, expected, "target {target}");
            let ml = modified_levels(&run).min_level();
            assert_eq!(ml, target.min(n), "target {target}");
            // `target = n` is only *observed* after the last round, when no
            // decision remains to strike on.
            assert_eq!(adv.struck(), target < n, "target {target}");
        }
    }

    #[test]
    fn min_level_cut_on_larger_graphs_stays_valid() {
        use ca_core::level::modified_levels;
        let g = Graph::complete(3).unwrap();
        let mut adv = MinLevelCut::new(g.clone(), 8, 3);
        assert_eq!(adv.name(), "min-level-cut");
        let run = materialize(&mut adv, &g, 8);
        run.validate(&g).unwrap();
        assert_eq!(modified_levels(&run).min_level(), 3);
    }

    #[test]
    fn adaptive_sampler_produces_valid_runs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = Graph::complete(2).unwrap();
        let sampler = AdaptiveSampler::new(g.clone(), 4, |seed| Gambler::new(1, seed));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            sampler.sample(&mut rng).validate(&g).unwrap();
        }
    }
}
