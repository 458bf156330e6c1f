//! Parallel Monte Carlo estimation of protocol behavior.
//!
//! The probability space of the paper is: fix a run `R`, draw the tapes `α`
//! uniformly. [`simulate`] estimates `Pr[TA|R]`, `Pr[NA|R]`, `Pr[PA|R]` and
//! the per-process decision probabilities `Pr[D_i|R]` by sampling tapes; the
//! run itself may also be resampled per trial (for the weak adversary) by
//! using a non-constant [`RunSampler`].
//!
//! Sampling is deterministic given the seed: trial `t` uses an RNG seeded by
//! `mix64(seed, t)`, independent of thread scheduling, so every experiment
//! in EXPERIMENTS.md is exactly reproducible.
//!
//! Two execution paths produce the (byte-identical) reports: the scalar
//! oracle [`simulate_scalar`], which runs every trial through the full
//! [`Protocol`] state machine, and the bit-sliced 64-lane path
//! [`simulate_sliced`] for counting-automaton protocols over fixed-run or
//! iid-drop samplers. [`simulate`] picks the sliced path whenever it
//! applies; differential tests pin the two paths to each other.

use crate::chaos::{mix64, parallel_map};
use crate::stats::{BernoulliEstimate, RunningStats};
use crate::strategy::{RunSampler, SlicedSampler};
use ca_core::error::CaError;
use ca_core::exec::{execute_outputs_observed, ExecScratch};
use ca_core::exec_sliced::{SlicedEngine, SlicedSpec, LANES};
use ca_core::graph::Graph;
use ca_core::level::{min_modified_level_into, modified_levels, LevelScratch};
use ca_core::outcome::{Outcome, OutcomeCounts};
use ca_core::protocol::Protocol;
use ca_core::run::Run;
use ca_core::tape::TapeSet;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Results of a Monte Carlo simulation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Outcome tallies.
    pub counts: OutcomeCounts,
    /// Per-process attack tallies (`D_i` counts).
    pub attacks: Vec<u64>,
    /// Number of trials.
    pub trials: u64,
    /// Distribution of the run's modified level `ML(R)` across trials
    /// (interesting when the sampler is random; constant for a fixed run).
    pub ml: RunningStats,
}

impl SimReport {
    /// An empty report over `m` processes.
    fn empty(m: usize) -> SimReport {
        SimReport {
            counts: OutcomeCounts::new(),
            attacks: vec![0; m],
            trials: 0,
            ml: RunningStats::new(),
        }
    }

    /// Merges per-worker reports over `m` processes in worker order.
    fn merged(m: usize, parts: &[SimReport]) -> SimReport {
        let mut report = SimReport::empty(m);
        for part in parts {
            report.merge(part);
        }
        report
    }

    /// Empirical liveness `Pr[TA]`.
    pub fn liveness(&self) -> BernoulliEstimate {
        BernoulliEstimate::new(self.counts.total_attack, self.trials)
    }

    /// Empirical disagreement `Pr[PA]`.
    pub fn disagreement(&self) -> BernoulliEstimate {
        BernoulliEstimate::new(self.counts.partial_attack, self.trials)
    }

    /// Empirical decision probability `Pr[D_i]` of process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn attack_rate(&self, i: ca_core::ids::ProcessId) -> BernoulliEstimate {
        BernoulliEstimate::new(self.attacks[i.index()], self.trials)
    }

    /// Merges another report's tallies into this one, failing on shape
    /// mismatch: reports over different process counts (different `attacks`
    /// lengths) describe different sample spaces and must never be pooled.
    /// On `Err` nothing has been merged — `self` is untouched.
    pub fn try_merge(&mut self, other: &SimReport) -> Result<(), CaError> {
        if self.attacks.len() != other.attacks.len() {
            return Err(CaError::malformed(format!(
                "cannot merge a SimReport over {} processes into one over {}",
                other.attacks.len(),
                self.attacks.len()
            )));
        }
        self.counts.merge(&other.counts);
        for (a, b) in self.attacks.iter_mut().zip(&other.attacks) {
            *a += b;
        }
        self.trials += other.trials;
        self.ml.merge(&other.ml);
        Ok(())
    }

    /// Merges another report's tallies into this one.
    ///
    /// # Panics
    ///
    /// Panics if the reports' shapes differ (see [`SimReport::try_merge`]).
    /// The pre-fix `zip` silently truncated the longer `attacks` vector,
    /// corrupting per-process tallies when reports from different graph
    /// sizes were pooled.
    pub fn merge(&mut self, other: &SimReport) {
        debug_assert_eq!(
            self.attacks.len(),
            other.attacks.len(),
            "merging SimReports of mismatched shape"
        );
        self.try_merge(other).expect("mismatched SimReport shapes");
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | L={} U={}",
            self.counts,
            self.liveness(),
            self.disagreement()
        )
    }
}

/// Configuration for a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of Monte Carlo trials.
    pub trials: u64,
    /// Base seed; the whole simulation is a deterministic function of it.
    pub seed: u64,
    /// Number of worker threads (0 = use available parallelism).
    pub threads: usize,
}

impl SimConfig {
    /// A configuration with the given number of trials and seed, using all
    /// available cores.
    pub fn new(trials: u64, seed: u64) -> Self {
        SimConfig {
            trials,
            seed,
            threads: 0,
        }
    }

    fn worker_count(&self) -> usize {
        crate::chaos::resolve_workers(self.threads)
    }
}

/// Domain-separation tag for the common-random-numbers stream of
/// [`worst_disagreement`].
///
/// Member seeds come from a *re-keyed* SplitMix64 stream,
/// `mix64(mix64(seed, CRN_STREAM), k)`: mixing the tag through the
/// full avalanche **before** indexing puts the member seeds on a different
/// stream from the per-trial `mix64(seed, t)` inside [`simulate`], so the
/// two stay structurally disjoint however large `trials` or the family
/// grow. (The previous scheme, `mix64(seed, k + 0x5EED)`, merely offset
/// the *same* stream by `0x5EED = 24301` — per-trial seeds collide with it
/// as soon as `trials > 0x5EED`, making member `k`'s trials correlate with
/// trials `0x5EED + k` of any simulation sharing the base seed.)
const CRN_STREAM: u64 = 0x43524E_5354524D; // "CRN" "STRM"

/// The derived seed of family member `k` under the CRN scheme.
fn crn_member_seed(seed: u64, k: u64) -> u64 {
    mix64(mix64(seed, CRN_STREAM), k)
}

/// Runs `config.trials` independent executions of `protocol` on runs drawn
/// from `sampler`, with fresh tapes per trial, in parallel.
///
/// Dispatches to the bit-sliced 64-lane engine ([`simulate_sliced`]) when
/// both the protocol and the sampler support it, and to the scalar oracle
/// ([`simulate_scalar`]) otherwise. The two paths are byte-identical by
/// contract — same `(seed, trials)`, same report — so the dispatch is
/// unobservable except in throughput.
///
/// # Panics
///
/// Panics if the sampler produces runs whose dimensions do not match `graph`.
pub fn simulate<P, S>(protocol: &P, graph: &Graph, sampler: &S, config: SimConfig) -> SimReport
where
    P: Protocol + Sync,
    S: RunSampler,
{
    match simulate_sliced(protocol, graph, sampler, config) {
        Some(report) => report,
        None => simulate_scalar(protocol, graph, sampler, config),
    }
}

/// The scalar Monte Carlo path: one `(run, tapes)` execution per trial on
/// [`ca_core::exec`].
///
/// This is the **cross-check oracle** for [`simulate_sliced`]: it executes
/// protocols through their full [`Protocol`] state machines, making no
/// structural assumptions, so the differential tests hold the sliced path to
/// whatever this one reports. It is also the path every protocol/sampler
/// combination without sliced support takes.
///
/// # Panics
///
/// Panics if the sampler produces runs whose dimensions do not match `graph`.
pub fn simulate_scalar<P, S>(
    protocol: &P,
    graph: &Graph,
    sampler: &S,
    config: SimConfig,
) -> SimReport
where
    P: Protocol + Sync,
    S: RunSampler,
{
    let m = graph.len();
    let workers = config.worker_count();

    // The whole-call span lives on its own sink so its count is 1 per
    // `simulate` call (a stable number), never 1 per worker (which would
    // vary with the thread count and break profile byte-stability).
    let outer_obs = ca_obs::Metrics::new();
    let outer_span = outer_obs.span(ca_obs::SpanId::SimSimulate);

    // Static partition of the trial indices across workers: worker `w` runs
    // trials `t ≡ w (mod workers)`, and per-trial reseeding keeps the result
    // independent of the partitioning. Each worker owns one RNG, one tape
    // set, and one execution scratch for its whole trial range — the
    // per-trial loop allocates nothing beyond what the sampler itself
    // requires.
    let parts = parallel_map(workers, workers, |w| {
        use ca_obs::{CounterId, HistId, SpanId};
        // Per-worker observability sink, flushed into the caller's capture
        // at the end — same discipline as `local` below, so the fast path
        // records into plain `Cell`s.
        let obs = ca_obs::Metrics::new();
        let mut local = SimReport::empty(m);
        // For a fixed-run sampler the run (and hence ML(R)) is the same
        // every trial, and sampling consumes no randomness: use the run by
        // reference and compute ML once.
        let fixed_run = sampler.fixed_run();
        let fixed_ml = fixed_run.map(|r| modified_levels(r).min_level() as f64);
        let j_bits = protocol.tape_bits().max(1);
        let mut tapes = TapeSet::empty(m);
        let mut scratch = ExecScratch::new();
        // One scratch run per worker: randomized samplers refill it in place
        // (`sample_into`), so the per-trial loop performs no run allocation
        // at all once the buffers have warmed up.
        let mut sampled = Run::empty(0, 0);
        let mut level_scratch = LevelScratch::new();
        let mut rng;
        let mut t = w as u64;
        while t < config.trials {
            let _trial_span = obs.span(SpanId::SimTrial);
            // One worker-local RNG, reseeded per trial from the SplitMix
            // stream: trial t's draws are a function of (seed, t) alone,
            // whatever worker runs it.
            rng = StdRng::seed_from_u64(mix64(config.seed, t));
            let run: &Run = match fixed_run {
                Some(run) => {
                    obs.inc(CounterId::SimFixedRunTrials);
                    run
                }
                None => {
                    let _sample_span = obs.span(SpanId::RunSample);
                    sampler.sample_into_observed(&mut sampled, &mut rng, &obs);
                    &sampled
                }
            };
            tapes.fill_random(&mut rng, j_bits);
            obs.inc(CounterId::SimTapeRefills);
            let outputs =
                execute_outputs_observed(protocol, graph, run, &tapes, &mut scratch, &obs);
            let verdict_span = obs.span(SpanId::SimVerdict);
            let outcome = Outcome::classify(outputs);
            local.counts.record(outcome);
            for (i, &o) in outputs.iter().enumerate() {
                if o {
                    local.attacks[i] += 1;
                }
            }
            let ml = match fixed_ml {
                Some(ml) => ml,
                None => min_modified_level_into(run, &mut level_scratch) as f64,
            };
            drop(verdict_span);
            local.ml.record(ml);
            obs.record(HistId::SimTrialMl, ml as u64);
            obs.inc(CounterId::SimTrials);
            local.trials += 1;
            t += workers as u64;
        }
        obs.flush();
        local
    });

    drop(outer_span);
    outer_obs.flush();
    SimReport::merged(m, &parts)
}

/// The bit-sliced 64-lane Monte Carlo path: packs trials into 64-wide lane
/// groups per worker and executes each group in one pass of
/// [`SlicedEngine`], for counting-automaton protocols over fixed-run or
/// iid-drop samplers.
///
/// The per-trial `(seed, t)` determinism contract is preserved exactly:
/// lane `t mod 64` of group `t / 64` reseeds
/// `StdRng::seed_from_u64(mix64(seed, t))` and replays the scalar draw
/// order — sampler coins first (one `gen_bool(p)` per base slot in canonical
/// slot order), then the leader's tape words — so the returned report is
/// **byte-identical** to [`simulate_scalar`]'s for the same `(seed,
/// trials)`, whatever the thread count. Groups are statically partitioned
/// across workers the way trials are in the scalar path.
///
/// Returns `None` when the combination cannot run sliced — the protocol has
/// no [`Protocol::sliced_spec`], the sampler has no [`RunSampler::sliced`]
/// description, or the instance exceeds the engine's size guards
/// ([`SlicedEngine::new`]) — in which case the caller falls back to the
/// scalar path ([`simulate`] does this automatically).
///
/// # Panics
///
/// Panics if the sampler's base run disagrees with `graph` on process count.
pub fn simulate_sliced<P, S>(
    protocol: &P,
    graph: &Graph,
    sampler: &S,
    config: SimConfig,
) -> Option<SimReport>
where
    P: Protocol + Sync,
    S: RunSampler,
{
    let spec = protocol.sliced_spec()?;
    let sliced = sampler.sliced()?;
    let base = sliced.base_run();
    assert_eq!(
        graph.len(),
        base.process_count(),
        "graph and run disagree on process count"
    );
    // Validate the instance once up front; each worker then builds its own
    // engine infallibly.
    SlicedEngine::new(base, spec)?;

    let m = graph.len();
    let n = base.horizon();
    let workers = config.worker_count();

    // Same discipline as the scalar path: the whole-call span on its own
    // sink, one `Metrics` + one local report per worker, merged in worker
    // order.
    let outer_obs = ca_obs::Metrics::new();
    let outer_span = outer_obs.span(ca_obs::SpanId::SimSimulate);

    let groups = config.trials.div_ceil(LANES as u64);
    // Potential directed slots per trial; what a trial does not keep, the
    // adversary destroyed (mirrors the scalar engine's accounting).
    let edge_slots = (graph.edge_count() as u64) * 2 * u64::from(n);

    let parts = parallel_map(workers, workers, |w| {
        use ca_obs::{CounterId, HistId, SpanId};
        let obs = ca_obs::Metrics::new();
        let mut local = SimReport::empty(m);
        let mut engine = SlicedEngine::new(base, spec).expect("instance validated before spawning");
        let slot_count = engine.slot_count();
        // Slots each lane kept (= messages delivered in its trial).
        let mut kept_lanes = [0u64; LANES];
        let mut rng;
        let mut g = w as u64;
        while g < groups {
            // One `sim.trial` span per 64-trial group: span counts
            // measure engine passes, counters keep counting trials.
            let _group_span = obs.span(SpanId::SimTrial);
            obs.inc(CounterId::SimSlicedGroups);
            let first = g * LANES as u64;
            let active = (config.trials - first).min(LANES as u64) as usize;
            engine.begin_group();
            // One `run.sample` span per group (the per-trial counters
            // still count trials); per-lane counter ticks accumulate
            // locally and post once per group — a span pair and
            // several sink writes per trial would otherwise rival the
            // sliced engine's own per-trial cost.
            let sample_span = obs.span(SpanId::RunSample);
            let mut flipped_total = 0u64;
            for (lane, kept) in kept_lanes.iter_mut().take(active).enumerate() {
                let t = first + lane as u64;
                rng = StdRng::seed_from_u64(mix64(config.seed, t));
                match sliced {
                    SlicedSampler::Fixed(_) => {
                        *kept = slot_count as u64;
                    }
                    SlicedSampler::IidDrop { p, .. } => {
                        let mut flipped = 0u64;
                        for slot in 0..slot_count {
                            if rng.gen_bool(p) {
                                engine.destroy_slot_lane(slot, lane);
                                flipped += 1;
                            }
                        }
                        flipped_total += flipped;
                        *kept = slot_count as u64 - flipped;
                    }
                }
                if let SlicedSpec::RandomFire {
                    offset, t: width, ..
                } = spec
                {
                    // The leader's rfire draw. The scalar path does
                    // `TapeSet::fill_random_leader` and then reads
                    // `draw_unit()` = (first tape word + 1) / 2⁶⁴;
                    // the first tape word is exactly the next
                    // `rng.gen::<u64>()` of the fill, and the
                    // per-trial RNG is discarded right after, so
                    // drawing that one word here yields a rfire
                    // bit-identical to the scalar trial's.
                    let word = rng.gen::<u64>();
                    let unit = (word as f64 + 1.0) / 18_446_744_073_709_551_616.0; // 2^64
                    engine.set_rfire(lane, offset + width * unit);
                }
            }
            match sliced {
                SlicedSampler::Fixed(_) => {
                    obs.add(CounterId::SimFixedRunTrials, active as u64);
                }
                SlicedSampler::IidDrop { .. } => {
                    obs.add(CounterId::RunSamples, active as u64);
                    obs.add(CounterId::RunSlotsFlipped, flipped_total);
                }
            }
            if matches!(spec, SlicedSpec::RandomFire { .. }) {
                obs.add(CounterId::SimTapeRefills, active as u64);
            }
            drop(sample_span);
            let out = {
                let _exec_span = obs.span(SpanId::ExecExecute);
                engine.run_group()
            };
            // Aggregate execution counters over the group; per-trial
            // sums match the scalar engine's per-trial adds.
            let kept_total: u64 = kept_lanes[..active].iter().sum();
            obs.add(
                CounterId::ExecTransitions,
                (m as u64) * u64::from(n) * active as u64,
            );
            obs.add(CounterId::ExecMessagesDelivered, kept_total);
            obs.add(
                CounterId::ExecMessagesDestroyed,
                edge_slots * active as u64 - kept_total,
            );
            if matches!(spec, SlicedSpec::RandomFire { .. }) {
                // Only the leader consumes tape bits (64 per trial).
                obs.add(CounterId::ExecTapeBitsConsumed, 64 * active as u64);
            }
            let verdict_span = obs.span(SpanId::SimVerdict);
            // Tally the packed outputs: a trial is a total attack iff
            // its lane is set in every process's attack word, a
            // no-attack iff set in none.
            let live: u64 = if active == LANES {
                !0
            } else {
                (1u64 << active) - 1
            };
            let mut ta = live;
            let mut na = live;
            for (i, &attack) in out.attack.iter().enumerate() {
                ta &= attack;
                na &= !attack;
                local.attacks[i] += u64::from((attack & live).count_ones());
            }
            let ta = u64::from(ta.count_ones());
            let na = u64::from(na.count_ones());
            local.counts.total_attack += ta;
            local.counts.no_attack += na;
            local.counts.partial_attack += active as u64 - ta - na;
            for (lane, &kept) in kept_lanes.iter().take(active).enumerate() {
                // Lemma 6.4: the minimum final count is the run's
                // minimum modified level, which is what the scalar
                // path records per trial.
                let ml = f64::from(out.min_count[lane]);
                local.ml.record(ml);
                obs.record(HistId::SimTrialMl, ml as u64);
                obs.record(HistId::ExecDeliveredPerTrial, kept);
            }
            drop(verdict_span);
            obs.add(CounterId::SimTrials, active as u64);
            local.trials += active as u64;
            g += workers as u64;
        }
        obs.flush();
        local
    });

    drop(outer_span);
    outer_obs.flush();
    Some(SimReport::merged(m, &parts))
}

/// Estimates the worst-case disagreement probability of `protocol` over a
/// family of candidate runs, simulating each and returning
/// `(worst_index, reports)`.
///
/// Each family member `k` is simulated under its own derived seed
/// `crn_member_seed(seed, k)` — a common-random-numbers scheme on a
/// domain-separated SplitMix64 stream (the private `CRN_STREAM` tag): run `k`
/// always
/// sees the same trial randomness no matter which other runs share the
/// family, so estimates are comparable across invocations and adding or
/// removing candidates never perturbs the others' numbers, and the member
/// seeds can never collide with the per-trial stream `mix64(seed, t)`
/// used inside [`simulate`].
///
/// Ties in the estimated disagreement are broken toward the **first** index
/// in family order, so the reported worst run is stable under appending new
/// candidates and independent of how equal maxima are arranged.
///
/// # Panics
///
/// Panics if `family` is empty or `config.trials == 0` — a zero-trial
/// comparison would rank every member by its degenerate zero-trial estimate
/// and return an arbitrary index.
pub fn worst_disagreement<P>(
    protocol: &P,
    graph: &Graph,
    family: &[ca_core::run::Run],
    config: SimConfig,
) -> (usize, Vec<SimReport>)
where
    P: Protocol + Sync,
{
    assert!(!family.is_empty(), "empty run family");
    assert!(
        config.trials > 0,
        "worst_disagreement over zero trials has no meaningful winner"
    );
    let reports: Vec<SimReport> = family
        .iter()
        .enumerate()
        .map(|(k, run)| {
            let sampler = crate::strategy::FixedRun::new(run.clone());
            let cfg = SimConfig {
                seed: crn_member_seed(config.seed, k as u64),
                ..config
            };
            simulate(protocol, graph, &sampler, cfg)
        })
        .collect();
    let mut worst = 0;
    for (k, report) in reports.iter().enumerate().skip(1) {
        // Strict `>`: the first maximal index wins ties.
        if report.disagreement().point() > reports[worst].disagreement().point() {
            worst = k;
        }
    }
    (worst, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FixedRun;
    use crate::weak::WeakAdversary;
    use ca_core::ids::{ProcessId, Round};
    use ca_core::run::Run;
    use ca_protocols::{ProtocolA, ProtocolS};

    #[test]
    fn splitmix_spreads_seeds() {
        // The per-trial seeds `simulate` derives through `mix64`
        // (SplitMix64) differ across trial indices and across base seeds.
        let a = mix64(42, 0);
        let b = mix64(42, 1);
        let c = mix64(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn simulation_is_deterministic_given_seed() {
        let g = Graph::complete(2).unwrap();
        let proto = ProtocolS::new(0.25);
        let sampler = FixedRun::new(Run::good(&g, 4));
        let cfg = SimConfig::new(500, 7);
        let a = simulate(&proto, &g, &sampler, cfg);
        let b = simulate(&proto, &g, &sampler, cfg);
        assert_eq!(a, b);
        // And independent of the thread count.
        let serial = SimConfig { threads: 1, ..cfg };
        let c = simulate(&proto, &g, &sampler, serial);
        assert_eq!(a, c);
    }

    #[test]
    fn liveness_on_good_run_matches_theory() {
        // ε = 1/8, N = 4 on a 2-clique: ML(R) = 4, L = 1/2.
        let g = Graph::complete(2).unwrap();
        let proto = ProtocolS::new(0.125);
        let sampler = FixedRun::new(Run::good(&g, 4));
        let report = simulate(&proto, &g, &sampler, SimConfig::new(4000, 11));
        // Pass/fail verdicts use z = 4 (~1/16k false-failure rate); the 95%
        // interval is for display only.
        assert!(report.liveness().consistent_with_z(0.5, 4.0), "{report}");
        assert_eq!(report.ml.mean(), 4.0);
        assert_eq!(report.trials, 4000);
    }

    #[test]
    fn per_process_attack_rates() {
        // On the good run the leader's count is Mincount+1, so it attacks
        // with probability ε(ML+1), the follower with ε·ML.
        let g = Graph::complete(2).unwrap();
        let proto = ProtocolS::new(0.125);
        let sampler = FixedRun::new(Run::good(&g, 4));
        let report = simulate(&proto, &g, &sampler, SimConfig::new(6000, 13));
        let leader = report.attack_rate(ProcessId::new(0));
        let follower = report.attack_rate(ProcessId::new(1));
        assert!(leader.consistent_with_z(0.625, 4.0), "leader {leader}");
        assert!(follower.consistent_with_z(0.5, 4.0), "follower {follower}");
    }

    #[test]
    fn worst_disagreement_finds_the_planted_cut() {
        // Protocol A with a small cut family: every mid-chain cut has
        // PA probability 1/(N-1); cut at round 1 and the good run have 0.
        let n = 5u32;
        let g = Graph::complete(2).unwrap();
        let proto = ProtocolA::new(n);
        let family = vec![
            Run::good(&g, n),
            {
                let mut r = Run::good(&g, n);
                r.cut_from_round(Round::new(1));
                r
            },
            {
                let mut r = Run::good(&g, n);
                r.cut_from_round(Round::new(3));
                r
            },
        ];
        let (worst, reports) = worst_disagreement(&proto, &g, &family, SimConfig::new(1500, 17));
        assert_eq!(worst, 2, "the mid-chain cut must be worst");
        assert!(reports[0].disagreement().point() < 1e-9);
        assert!(reports[1].disagreement().point() < 1e-9);
        assert!(reports[2].disagreement().consistent_with_z(0.25, 4.0));
    }

    #[test]
    fn weak_adversary_sampler_integration() {
        let g = Graph::complete(2).unwrap();
        let proto = ProtocolS::new(0.25);
        let sampler = WeakAdversary::iid(&g, 8, 0.2);
        let report = simulate(&proto, &g, &sampler, SimConfig::new(800, 19));
        // Liveness should be substantial and disagreement far below ε.
        assert!(report.liveness().point() > 0.5, "{report}");
        assert!(report.disagreement().point() < 0.25, "{report}");
        // ML varies across sampled runs.
        assert!(report.ml.std_dev() > 0.0);
    }

    fn report_over(m: usize, trials: u64) -> SimReport {
        SimReport {
            counts: OutcomeCounts {
                total_attack: trials,
                no_attack: 0,
                partial_attack: 0,
            },
            attacks: vec![trials; m],
            trials,
            ml: RunningStats::new(),
        }
    }

    #[test]
    fn try_merge_rejects_mismatched_shapes_without_mutating() {
        // Regression: the pre-fix `merge` zipped the attacks vectors, so a
        // 3-process report merged into a 2-process one silently dropped the
        // third process's tallies while still adding the trials.
        let mut a = report_over(2, 10);
        let before = a.clone();
        let b = report_over(3, 5);
        assert!(a.try_merge(&b).is_err());
        assert_eq!(a, before, "a failed merge must leave self untouched");
        // Matching shapes still merge.
        assert!(a.try_merge(&report_over(2, 5)).is_ok());
        assert_eq!(a.trials, 15);
        assert_eq!(a.attacks, vec![15, 15]);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn merge_panics_on_mismatched_shapes() {
        let mut a = report_over(2, 10);
        a.merge(&report_over(3, 5));
    }

    #[test]
    fn crn_stream_is_disjoint_from_trial_seeds() {
        // Regression: the pre-fix scheme `mix64(seed, k + 0x5EED)` is the
        // per-trial stream offset by 24301, so member k's seed equaled trial
        // (0x5EED + k)'s seed exactly.
        let seed = 42u64;
        let trial_seeds: std::collections::HashSet<u64> =
            (0..30_000).map(|t| mix64(seed, t)).collect();
        let old_member_seed = mix64(seed, 5 + 0x5EED);
        assert!(
            trial_seeds.contains(&old_member_seed),
            "sanity: the pre-fix scheme collides with the per-trial stream"
        );
        for k in 0..64 {
            assert!(
                !trial_seeds.contains(&crn_member_seed(seed, k)),
                "member {k}'s CRN seed collides with a per-trial seed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn worst_disagreement_rejects_zero_trials() {
        // Regression: with 0 trials every member's disagreement estimate is
        // the degenerate default, the strict-`>` scan never updates, and
        // index 0 was returned as if it meant something.
        let g = Graph::complete(2).unwrap();
        let family = vec![Run::good(&g, 3)];
        worst_disagreement(&ProtocolA::new(3), &g, &family, SimConfig::new(0, 1));
    }

    #[test]
    fn sliced_dispatch_engages_exactly_when_supported() {
        let g = Graph::complete(2).unwrap();
        let cfg = SimConfig::new(100, 23);
        let s = ProtocolS::new(0.25);
        let drop = WeakAdversary::iid(&g, 4, 0.3);
        assert!(simulate_sliced(&s, &g, &drop, cfg).is_some());
        assert!(simulate_sliced(&s, &g, &FixedRun::new(Run::good(&g, 4)), cfg).is_some());
        // Input-randomizing samplers and non-counting protocols fall back.
        let rr = crate::strategy::RandomRun::new(g.clone(), 4, 0.8, 0.7);
        assert!(simulate_sliced(&s, &g, &rr, cfg).is_none());
        assert!(simulate_sliced(&ProtocolA::new(4), &g, &drop, cfg).is_none());
    }

    #[test]
    fn sliced_path_matches_the_scalar_oracle_byte_for_byte() {
        let g = Graph::complete(3).unwrap();
        let cfg = SimConfig::new(333, 29); // crosses lane-group boundaries
        let s = ProtocolS::new(0.2);
        let drop = WeakAdversary::iid(&g, 5, 0.25);
        let sliced = simulate_sliced(&s, &g, &drop, cfg).expect("sliced path must engage");
        assert_eq!(sliced, simulate_scalar(&s, &g, &drop, cfg));
        let fixed = FixedRun::new(Run::good(&g, 5));
        let sliced = simulate_sliced(&s, &g, &fixed, cfg).expect("sliced path must engage");
        assert_eq!(sliced, simulate_scalar(&s, &g, &fixed, cfg));
    }
}
