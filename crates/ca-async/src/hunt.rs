//! The adversary zoo: adaptive fault-schedule search for the paper's worst case.
//!
//! The `L/U ≤ N` tradeoff (Theorem 2) is an adversarial claim: the boundary
//! is attained by a specific worst-case adversary, the **prefix cut**, whose
//! liveness floor over non-vacuous runs is `ε` (the `ML(R) = 1` corner of
//! the `L = U·ML(R)` line). This module hunts for that adversary from
//! scratch over the [`FaultPrimitive`] vocabulary:
//!
//! * a **schedule genome** — windows, cut targets, loss rates over the
//!   existing fault primitives — with deterministic seed-derived mutation
//!   and crossover (`GenomeDist` is the cross-entropy sampling
//!   distribution the elites re-fit each generation);
//! * an **elite-selection outer loop** ([`run_hunt`]): each generation
//!   samples a population, screens it on the bit-sliced Monte Carlo fast
//!   path with a successive-halving bandit (near-elite candidates earn
//!   exponentially more trials), and re-fits the sampling distribution from
//!   the elites;
//! * an **online adversary probe**: [`ca_sim::adaptive::MinLevelCut`]
//!   conditions its cut on the observed min-level state — the strongest
//!   thing a metadata-only adaptive adversary can do — and the report pins
//!   its liveness against the offline winner.
//!
//! The objective is *minimize exact `Pr[TA]` subject to the safety oracles
//! **and non-vacuity***: a schedule whose induced run has `ML(R) = 0` (a
//! blackout) trivially zeroes liveness, so such candidates are typed
//! [`CandidateStatus::Infeasible`] and ranked last — the search has to
//! navigate around the blackout cliff to reach the true floor, the prefix
//! cut at round 2 with exact TA exactly `ε`.
//!
//! **Evaluation domain.** A schedule is scored on the *synchronous* run it
//! induces ([`induced_run`]): tick `r − 1` carries round `r`, and a message
//! survives iff the [`ChaosCourier`] delivers it undamaged
//! (`Fate::Deliver(sent_at + base_latency)` exactly — any added latency
//! breaks lockstep and counts as destroyed). Because the courier keys each
//! fault's coin stream on the fault's *content*, deleting one fault never
//! reshuffles another's decisions, which is what lets the existing
//! [`ddmin`] shrink every elite soundly.
//!
//! Determinism contract: [`HuntReport`] is a pure function of `(graph,
//! config minus threads)` — candidate ids, per-rung trial seeds, and all
//! rankings are derived from the config seed with exact integer/rational
//! comparisons, and every parallel stage goes through the index-ordered
//! [`parallel_map`]. The CLI pins this with byte-identity goldens across
//! `--threads 1/2/8` and replay runs.

use crate::chaos::{ChaosCourier, FaultPrimitive, FaultSchedule, TimeWindow};
use crate::courier::{Courier, Fate, SendEvent};
use crate::supervisor::panic_message;
use ca_analysis::level_dp::{run_outcomes, DpSpec};
use ca_core::error::CaError;
use ca_core::graph::Graph;
use ca_core::ids::{ProcessId, Round};
use ca_core::level::modified_levels;
use ca_core::rational::Rational;
use ca_core::run::Run;
use ca_protocols::ProtocolS;
use ca_sim::adaptive::{materialize, MinLevelCut};
use ca_sim::chaos::{ddmin, mix64, parallel_map};
use ca_sim::stats::BernoulliEstimate;
use ca_sim::{simulate, FixedRun, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parameters of a hunt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HuntConfig {
    /// Outer-loop generations.
    pub generations: u32,
    /// Candidates per generation.
    pub population: usize,
    /// Monte Carlo trial budget per generation (split by the
    /// successive-halving bandit).
    pub budget: u64,
    /// Master seed; the report is a deterministic function of it.
    pub seed: u64,
    /// Horizon `N` of the induced synchronous runs (= ticks of genome
    /// window space).
    pub rounds: u32,
    /// `t = 1/ε`.
    pub t: u64,
    /// Maximum faults per candidate schedule.
    pub max_faults: usize,
    /// Worker threads (0 = available parallelism). The report is
    /// independent of this — [`run_hunt`] stores it as 0.
    pub threads: usize,
    /// Elites kept (and shrunk) per generation.
    pub elites: usize,
}

impl HuntConfig {
    /// The quick-scale configuration around a master seed: 6 generations of
    /// 24 candidates, 4096 MC trials per generation, `N = 8`, `t = 8`.
    pub fn quick(seed: u64) -> Self {
        HuntConfig {
            generations: 6,
            population: 24,
            budget: 4096,
            seed,
            rounds: 8,
            t: 8,
            max_faults: 4,
            threads: 0,
            elites: 4,
        }
    }
}

/// How a candidate's evaluation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateStatus {
    /// Feasible and fully scored.
    Ok,
    /// The induced run is vacuous (`ML(R) = 0`): zero liveness for free,
    /// which the paper's tradeoff excludes — ranked last, never elite.
    Infeasible,
    /// The courier rejected the schedule with a typed error.
    Rejected,
    /// Evaluation panicked; caught at the per-candidate boundary.
    Failed,
}

/// One evaluated candidate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CandidateResult {
    /// Global candidate id (`generation * population + slot`).
    pub id: u64,
    /// Generation the candidate belongs to.
    pub generation: u32,
    /// The genome.
    pub schedule: FaultSchedule,
    /// Outcome of the evaluation.
    pub status: CandidateStatus,
    /// Rejection or panic message, when the status carries one.
    pub detail: Option<String>,
    /// Min modified level of the induced run.
    pub ml: u32,
    /// Exact `Pr[TA]` of Protocol S on the induced run (`min(1, ε·ML)`).
    pub exact_ta: f64,
    /// Exact `Pr[PA] ≤ ε` held (Theorem 1 on the induced run).
    pub safety_ok: bool,
    /// The exact outcome distribution summed to 1.
    pub outcome_valid: bool,
    /// Total-attack tally over the bandit's Monte Carlo trials.
    pub mc_tally: u64,
    /// Monte Carlo trials the bandit spent on this candidate.
    pub mc_trials: u64,
}

impl CandidateResult {
    /// Exact TA as a rational (reconstructed from `ml` — the induced-run
    /// value `min(ml, t)/t`), for exact-arithmetic ranking.
    fn exact_ta_rational(&self, t: u64) -> Rational {
        DpSpec::protocol_s(t).attack_prob(self.ml, true)
    }

    /// Exact ranking key: lowest exact TA, then fewest faults, then lowest
    /// id. Only meaningful for `Ok` candidates.
    fn exact_key(&self, t: u64) -> (Rational, usize, u64) {
        (
            self.exact_ta_rational(t),
            self.schedule.faults.len(),
            self.id,
        )
    }
}

/// One elite of the final generation, auto-shrunk before reporting.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EliteSummary {
    /// Candidate id.
    pub id: u64,
    /// Min modified level of its induced run.
    pub ml: u32,
    /// Exact `Pr[TA]`.
    pub exact_ta: f64,
    /// Fault count before shrinking.
    pub faults_before: usize,
    /// Fault count after shrinking.
    pub faults_after: usize,
    /// The ddmin-shrunk schedule (still reproduces `ml ≥ 1` and
    /// `exact TA ≤` the elite's).
    pub schedule: FaultSchedule,
}

/// One generation's trajectory line.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GenerationSummary {
    /// Generation index.
    pub generation: u32,
    /// Feasible (`Ok`) candidates.
    pub feasible: u64,
    /// Infeasible (blackout) candidates.
    pub infeasible: u64,
    /// Rejected + failed candidates.
    pub degraded: u64,
    /// Best (lowest) exact TA among this generation's feasible candidates.
    pub best_ta: f64,
    /// Its induced-run min modified level.
    pub best_ml: u32,
    /// Monte Carlo trials the bandit spent this generation.
    pub mc_trials: u64,
}

/// The online-adversary probe: [`MinLevelCut`] with target 1 on the same
/// instance, pinned against the offline winner.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnlineProbe {
    /// The adversary's name.
    pub adversary: String,
    /// The min-level target it strikes at.
    pub target: u32,
    /// Min modified level of the materialized run.
    pub ml: u32,
    /// Exact `Pr[TA]` of Protocol S on that run.
    pub exact_ta: f64,
    /// Whether the offline best matched the online adversary's liveness.
    pub matches_offline_best: bool,
}

/// The analytic anchors the hunt is measured against.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalyticAnchors {
    /// `ε = 1/t`: the liveness floor over non-vacuous runs (the
    /// `ML(R) = 1` corner of the tradeoff line).
    pub floor_ta: f64,
    /// `N`: the `L/U = N` boundary ratio of Theorem 2 (the good-run
    /// corner).
    pub boundary_ratio: f64,
}

/// The byte-stable JSON result of a hunt.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HuntReport {
    /// Report schema version.
    pub schema: u32,
    /// Number of processes.
    pub m: usize,
    /// The hunt parameters.
    pub config: HuntConfig,
    /// Candidates evaluated in total.
    pub candidates: u64,
    /// Candidates typed `Infeasible`.
    pub infeasible: u64,
    /// Candidates typed `Rejected`.
    pub rejected: u64,
    /// Candidates typed `Failed` (evaluation panicked; caught).
    pub failed: u64,
    /// Per-generation trajectory.
    pub generations: Vec<GenerationSummary>,
    /// The best feasible candidate found across all generations.
    pub best: Option<CandidateResult>,
    /// `best.schedule` ddmin-shrunk to a minimal fault list with the same
    /// feasible liveness damage.
    pub shrunk: Option<FaultSchedule>,
    /// Differences between the best schedule and its shrunk form.
    pub shrunk_diff: Vec<String>,
    /// The final generation's elites, each auto-shrunk.
    pub elites: Vec<EliteSummary>,
    /// The online min-level adversary probe.
    pub online: OnlineProbe,
    /// Analytic anchors (`ε`, `N`).
    pub analytic: AnalyticAnchors,
    /// Whether the best schedule reproduces the paper's worst case: its
    /// induced run sits at `ML(R) = 1` with exact TA exactly `ε`.
    pub prefix_cut_equivalent: bool,
    /// Whether the best candidate's observed MC attack rate is within the
    /// z = 4 interval of the analytic floor `ε`.
    pub mc_within_floor_interval: bool,
}

impl HuntReport {
    /// Deterministic single-line JSON.
    pub fn to_json(&self) -> String {
        json::to_string(self).expect("reports are always serializable")
    }

    /// Deterministic pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        json::to_string_pretty(self).expect("reports are always serializable")
    }

    /// Parses a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::MalformedConfig`] on parse errors.
    pub fn from_json(text: &str) -> Result<Self, CaError> {
        json::from_str(text).map_err(|e| CaError::malformed(format!("bad hunt report JSON: {e}")))
    }
}

/// The synchronous run a schedule induces: tick `r − 1` carries round `r`
/// (all inputs present), and the slot survives iff the courier delivers it
/// **undamaged** — `Fate::Deliver(sent_at + base_latency)` exactly. Added
/// latency breaks lockstep, so a jittered message counts as destroyed.
///
/// Sequence numbers are assigned in canonical `(round, directed edge)`
/// order independent of the fault list, so together with the courier's
/// content-keyed coin streams, removing one fault never reshuffles
/// another's decisions (the ddmin soundness property).
///
/// # Errors
///
/// Returns [`CaError::MalformedConfig`] when the schedule fails validation.
pub fn induced_run(graph: &Graph, schedule: &FaultSchedule, rounds: u32) -> Result<Run, CaError> {
    let mut courier = ChaosCourier::new(schedule.clone())?;
    let mut run = Run::empty(graph.len(), rounds);
    for i in graph.vertices() {
        run.add_input(i);
    }
    let on_time = schedule.base_latency;
    let mut seq = 0u64;
    for r in 1..=rounds {
        let sent_at = u64::from(r - 1);
        for (from, to) in graph.directed_edges() {
            let event = SendEvent {
                from,
                to,
                sent_at,
                seq,
            };
            seq += 1;
            // An on-time arrival past `u64::MAX` never happens.
            let fate = courier.fate(event);
            if sent_at.checked_add(on_time).map(Fate::Deliver) == Some(fate) {
                run.add_message(from, to, Round::new(r));
            }
        }
    }
    Ok(run)
}

/// The cross-entropy sampling distribution over the genome space: fault
/// kind weights plus window geometry, re-fit from the elites each
/// generation. `ReplayRun` is excluded from the genome — it would let the
/// search paste an arbitrary run verbatim instead of discovering one.
#[derive(Clone, Debug, PartialEq)]
struct GenomeDist {
    /// Sampling weight of each of the 8 genome fault kinds.
    kind_weights: [f64; 8],
    /// Probability a sampled window is open-ended.
    open_window_p: f64,
    /// Mean normalized window start in `[0, 1]` (the "cut target").
    start_bias: f64,
}

/// Genome fault kinds, indexed to match [`GenomeDist::kind_weights`].
const KIND_DROP_LINK: usize = 0;
const KIND_DROP_PROB: usize = 1;
const KIND_DELAY_JITTER: usize = 2;
const KIND_DUPLICATE: usize = 3;
const KIND_REORDER: usize = 4;
const KIND_BURST_LOSS: usize = 5;
const KIND_CRASH_WINDOW: usize = 6;
const KIND_PARTITION: usize = 7;

fn kind_index(fault: &FaultPrimitive) -> Option<usize> {
    match fault {
        FaultPrimitive::DropLink { .. } => Some(KIND_DROP_LINK),
        FaultPrimitive::DropProb { .. } => Some(KIND_DROP_PROB),
        FaultPrimitive::DelayJitter { .. } => Some(KIND_DELAY_JITTER),
        FaultPrimitive::Duplicate { .. } => Some(KIND_DUPLICATE),
        FaultPrimitive::Reorder { .. } => Some(KIND_REORDER),
        FaultPrimitive::BurstLoss { .. } => Some(KIND_BURST_LOSS),
        FaultPrimitive::CrashWindow { .. } => Some(KIND_CRASH_WINDOW),
        FaultPrimitive::Partition { .. } => Some(KIND_PARTITION),
        FaultPrimitive::ReplayRun { .. } => None,
    }
}

impl GenomeDist {
    /// The uninformed starting distribution: uniform kinds, balanced window
    /// geometry.
    fn uniform() -> Self {
        GenomeDist {
            kind_weights: [1.0; 8],
            open_window_p: 0.5,
            start_bias: 0.5,
        }
    }

    /// Re-fits the distribution from the elite schedules (add-one
    /// smoothing keeps every kind reachable, so the search can always
    /// escape a local optimum).
    fn refit(elites: &[&FaultSchedule], max_tick: u64) -> Self {
        let mut kind_weights = [1.0f64; 8];
        let mut open = 1.0f64;
        let mut closed = 1.0f64;
        let mut start_sum = 0.0f64;
        let mut windows = 0.0f64;
        for schedule in elites {
            for fault in &schedule.faults {
                if let Some(k) = kind_index(fault) {
                    kind_weights[k] += 1.0;
                }
                if let Some(w) = fault.window() {
                    if w.end.is_none() {
                        open += 1.0;
                    } else {
                        closed += 1.0;
                    }
                    start_sum += w.start as f64 / max_tick.max(1) as f64;
                    windows += 1.0;
                }
            }
        }
        GenomeDist {
            kind_weights,
            open_window_p: open / (open + closed),
            start_bias: if windows > 0.0 {
                start_sum / windows
            } else {
                0.5
            },
        }
    }

    /// Draws a fault kind from the weights.
    fn sample_kind(&self, rng: &mut StdRng) -> usize {
        let total: f64 = self.kind_weights.iter().sum();
        let mut draw = rng.gen_range(0.0..total);
        for (k, w) in self.kind_weights.iter().enumerate() {
            if draw < *w {
                return k;
            }
            draw -= w;
        }
        self.kind_weights.len() - 1
    }

    /// Samples a window in tick space `[0, max_tick]`, biased toward the
    /// learned cut target. Never empty (validation rejects those).
    fn sample_window(&self, rng: &mut StdRng, max_tick: u64) -> TimeWindow {
        let start = if rng.gen_bool(0.6) {
            // Exploit: near the learned cut target, ±1 tick of jitter.
            let center = (self.start_bias * max_tick as f64).round() as i64;
            let jitter = rng.gen_range(-1i64..=1);
            (center + jitter).clamp(0, max_tick as i64) as u64
        } else {
            // Explore: uniform over the whole horizon.
            rng.gen_range(0..=max_tick)
        };
        if rng.gen_bool(self.open_window_p.clamp(0.05, 0.95)) {
            TimeWindow::from(start)
        } else {
            TimeWindow::between(start, rng.gen_range(start + 1..=max_tick + 1))
        }
    }

    /// Samples one genome fault.
    fn sample_fault(&self, rng: &mut StdRng, m: usize, max_tick: u64) -> FaultPrimitive {
        let pid = |rng: &mut StdRng| ProcessId::new(rng.gen_range(0..m as u32));
        match self.sample_kind(rng) {
            KIND_DROP_LINK => {
                let from = pid(rng);
                let to = loop {
                    let to = pid(rng);
                    if to != from || m == 1 {
                        break to;
                    }
                };
                FaultPrimitive::DropLink {
                    from,
                    to,
                    bidirectional: rng.gen_bool(0.5),
                    window: self.sample_window(rng, max_tick),
                }
            }
            KIND_DROP_PROB => FaultPrimitive::DropProb {
                p: rng.gen_range(0.0..1.0),
                window: self.sample_window(rng, max_tick),
            },
            KIND_DELAY_JITTER => FaultPrimitive::DelayJitter {
                extra_max: rng.gen_range(1u64..=4),
                window: self.sample_window(rng, max_tick),
            },
            KIND_DUPLICATE => FaultPrimitive::Duplicate {
                p: rng.gen_range(0.0..1.0),
                echo_delay: rng.gen_range(1u64..=4),
                window: self.sample_window(rng, max_tick),
            },
            KIND_REORDER => FaultPrimitive::Reorder {
                p: rng.gen_range(0.0..1.0),
                max_swap: rng.gen_range(1u64..=4),
                window: self.sample_window(rng, max_tick),
            },
            KIND_BURST_LOSS => {
                let period = rng.gen_range(2u64..=max_tick.max(2));
                FaultPrimitive::BurstLoss {
                    period,
                    burst_len: rng.gen_range(1..=period),
                }
            }
            KIND_CRASH_WINDOW => FaultPrimitive::CrashWindow {
                process: pid(rng),
                window: self.sample_window(rng, max_tick),
            },
            _ => {
                let group_a = (0..m as u32)
                    .filter(|_| rng.gen_bool(0.5))
                    .map(ProcessId::new)
                    .collect();
                FaultPrimitive::Partition {
                    group_a,
                    window: self.sample_window(rng, max_tick),
                }
            }
        }
    }

    /// Samples a whole schedule (1..=max_faults faults, base latency 1).
    fn sample_schedule(
        &self,
        seed: u64,
        m: usize,
        max_tick: u64,
        max_faults: usize,
    ) -> FaultSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_faults = rng.gen_range(1..=max_faults.max(1));
        let faults = (0..n_faults)
            .map(|_| self.sample_fault(&mut rng, m, max_tick))
            .collect();
        FaultSchedule {
            seed: rng.gen(),
            base_latency: 1,
            faults,
        }
    }
}

/// Overwrites a fault's window, if it has one.
fn set_window(fault: &mut FaultPrimitive, w: TimeWindow) -> bool {
    match fault {
        FaultPrimitive::DropLink { window, .. }
        | FaultPrimitive::DropProb { window, .. }
        | FaultPrimitive::DelayJitter { window, .. }
        | FaultPrimitive::Duplicate { window, .. }
        | FaultPrimitive::Reorder { window, .. }
        | FaultPrimitive::CrashWindow { window, .. }
        | FaultPrimitive::Partition { window, .. } => {
            *window = w;
            true
        }
        FaultPrimitive::BurstLoss { .. } | FaultPrimitive::ReplayRun { .. } => false,
    }
}

/// Seed-derived point mutation: re-window one fault, add a fresh fault,
/// drop one, or re-seed the coin streams.
fn mutate(
    parent: &FaultSchedule,
    dist: &GenomeDist,
    seed: u64,
    m: usize,
    max_tick: u64,
    max_faults: usize,
) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = parent.clone();
    match rng.gen_range(0u32..4) {
        0 if !out.faults.is_empty() => {
            let k = rng.gen_range(0..out.faults.len());
            let w = dist.sample_window(&mut rng, max_tick);
            if !set_window(&mut out.faults[k], w) {
                // Windowless kinds get replaced outright.
                out.faults[k] = dist.sample_fault(&mut rng, m, max_tick);
            }
        }
        1 if out.faults.len() < max_faults => {
            out.faults.push(dist.sample_fault(&mut rng, m, max_tick));
        }
        2 if out.faults.len() > 1 => {
            let k = rng.gen_range(0..out.faults.len());
            out.faults.remove(k);
        }
        _ => {
            out.seed = rng.gen();
        }
    }
    out
}

/// Seed-derived one-point crossover on the fault lists.
fn crossover(a: &FaultSchedule, b: &FaultSchedule, seed: u64, max_faults: usize) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let cut_a = rng.gen_range(0..=a.faults.len());
    let cut_b = rng.gen_range(0..=b.faults.len());
    let mut faults: Vec<FaultPrimitive> = a.faults[..cut_a].to_vec();
    faults.extend_from_slice(&b.faults[cut_b..]);
    faults.truncate(max_faults.max(1));
    FaultSchedule {
        seed: rng.gen(),
        base_latency: a.base_latency,
        faults,
    }
}

/// Evaluates one candidate structurally: induced run, min modified level,
/// exact outcome, safety oracles. Panics are caught at this boundary and
/// typed [`CandidateStatus::Failed`].
fn evaluate_candidate(
    graph: &Graph,
    config: &HuntConfig,
    id: u64,
    generation: u32,
    schedule: FaultSchedule,
) -> CandidateResult {
    evaluate_guarded(id, generation, schedule, |schedule| {
        evaluate_candidate_inner(graph, config, id, generation, schedule)
    })
}

/// Runs `evaluate` on `schedule` inside the per-candidate panic boundary
/// and records the candidate's metrics.
fn evaluate_guarded(
    id: u64,
    generation: u32,
    schedule: FaultSchedule,
    evaluate: impl FnOnce(FaultSchedule) -> CandidateResult,
) -> CandidateResult {
    use ca_obs::{CounterId, SpanId};
    let obs = ca_obs::Metrics::new();
    let result = {
        let _span = obs.span(SpanId::HuntEvaluate);
        let caught = catch_unwind(AssertUnwindSafe(|| evaluate(schedule.clone())));
        match caught {
            Ok(result) => result,
            Err(payload) => CandidateResult {
                id,
                generation,
                schedule,
                status: CandidateStatus::Failed,
                detail: Some(panic_message(payload)),
                ml: 0,
                exact_ta: 0.0,
                safety_ok: true,
                outcome_valid: true,
                mc_tally: 0,
                mc_trials: 0,
            },
        }
    };
    obs.inc(CounterId::HuntCandidates);
    match result.status {
        CandidateStatus::Infeasible => obs.inc(CounterId::HuntCandidatesInfeasible),
        CandidateStatus::Failed => obs.inc(CounterId::HuntCandidatesFailed),
        CandidateStatus::Ok | CandidateStatus::Rejected => {}
    }
    obs.flush();
    result
}

fn evaluate_candidate_inner(
    graph: &Graph,
    config: &HuntConfig,
    id: u64,
    generation: u32,
    schedule: FaultSchedule,
) -> CandidateResult {
    // Exact TA ranking through the level DP's per-run engine, which
    // `tests/level_dp_differential.rs` holds to the executed protocol on
    // induced runs.
    let scored = induced_run(graph, &schedule, config.rounds).and_then(|run| {
        let exact = run_outcomes(graph, &run, &DpSpec::protocol_s(config.t))?;
        Ok((modified_levels(&run).min_level(), exact))
    });
    let (ml, exact) = match scored {
        Ok(scored) => scored,
        Err(e) => {
            return CandidateResult {
                id,
                generation,
                schedule,
                status: CandidateStatus::Rejected,
                detail: Some(e.to_string()),
                ml: 0,
                exact_ta: 0.0,
                safety_ok: true,
                outcome_valid: true,
                mc_tally: 0,
                mc_trials: 0,
            }
        }
    };
    let eps = Rational::new(1, config.t as i128);
    let status = if ml >= 1 {
        CandidateStatus::Ok
    } else {
        CandidateStatus::Infeasible
    };
    CandidateResult {
        id,
        generation,
        schedule,
        status,
        detail: None,
        ml,
        exact_ta: exact.ta.to_f64(),
        safety_ok: exact.pa <= eps,
        outcome_valid: exact.is_valid(),
        mc_tally: 0,
        mc_trials: 0,
    }
}

/// Domain separation for the bandit's per-rung trial streams.
const HUNT_MC_STREAM: u64 = 0x4855_4E54_4D43; // "HUNTMC"

/// Allocates `trials` Monte Carlo trials to one candidate (rung `rung`)
/// through [`simulate`] — the bit-sliced fast path whenever the induced-run
/// instance fits the 64-lane engine — and returns its total-attack tally.
fn mc_rung_tally(
    graph: &Graph,
    config: &HuntConfig,
    candidate: &CandidateResult,
    rung: u32,
    trials: u64,
) -> u64 {
    let run = induced_run(graph, &candidate.schedule, config.rounds)
        .expect("candidate was evaluated Ok, its schedule validates");
    let sampler = FixedRun::new(run);
    let proto = ProtocolS::new(1.0 / config.t as f64);
    let sim = SimConfig {
        trials,
        seed: mix64(
            mix64(config.seed, HUNT_MC_STREAM),
            mix64(candidate.id, u64::from(rung)),
        ),
        threads: 1,
    };
    simulate(&proto, graph, &sampler, sim).counts.total_attack
}

/// The successive-halving bandit: every surviving candidate gets the same
/// per-rung allocation, the field is halved on MC-tally rank (lowest
/// observed TA survives), and the allocation doubles — near-elite
/// candidates earn exponentially more trials. Returns the generation's
/// total spend; tallies/trials accumulate on the candidates in place.
fn bandit_screen(
    graph: &Graph,
    config: &HuntConfig,
    obs: &ca_obs::Metrics,
    feasible: &mut [CandidateResult],
) -> u64 {
    if feasible.is_empty() || config.budget == 0 {
        return 0;
    }
    let mut active: Vec<usize> = (0..feasible.len()).collect();
    let mut allocation = (config.budget / (2 * active.len() as u64)).max(1);
    let keep = config.elites.max(1);
    let mut spent = 0u64;
    let mut rung = 0u32;
    loop {
        let tallies: Vec<u64> = parallel_map(active.len(), config.threads, |slot| {
            mc_rung_tally(graph, config, &feasible[active[slot]], rung, allocation)
        });
        for (slot, tally) in tallies.into_iter().enumerate() {
            let c = &mut feasible[active[slot]];
            c.mc_tally += tally;
            c.mc_trials += allocation;
        }
        spent += allocation * active.len() as u64;
        obs.add(
            ca_obs::CounterId::HuntMcTrials,
            allocation * active.len() as u64,
        );
        // Rank by observed tally (equal cumulative trials across the
        // active set, so tallies compare directly); ties break toward
        // fewer faults, then the lower id.
        active.sort_by_key(|&k| {
            let c = &feasible[k];
            (c.mc_tally, c.schedule.faults.len(), c.id)
        });
        if active.len() <= keep || spent >= config.budget {
            break;
        }
        active.truncate(active.len().div_ceil(2).max(keep));
        allocation *= 2;
        rung += 1;
    }
    for c in feasible.iter() {
        obs.record(ca_obs::HistId::HuntTrialsPerCandidate, c.mc_trials);
    }
    spent
}

/// Shrinks a feasible candidate's schedule to a minimal fault list that
/// still induces a non-vacuous run with at-most-the-same exact TA
/// (exact-arithmetic predicate — no Monte Carlo in the shrink loop).
fn shrink_candidate(graph: &Graph, config: &HuntConfig, best: &CandidateResult) -> FaultSchedule {
    if best.schedule.faults.is_empty() {
        return best.schedule.clone();
    }
    let obs = ca_obs::Metrics::new();
    let span = obs.span(ca_obs::SpanId::HuntShrink);
    let target = best.exact_ta_rational(config.t);
    let reproduces = |faults: &[FaultPrimitive]| {
        obs.inc(ca_obs::CounterId::ChaosShrinkEvals);
        let candidate = FaultSchedule {
            seed: best.schedule.seed,
            base_latency: best.schedule.base_latency,
            faults: faults.to_vec(),
        };
        let Ok(run) = induced_run(graph, &candidate, config.rounds) else {
            return false;
        };
        let ml = modified_levels(&run).min_level();
        if ml == 0 {
            return false;
        }
        DpSpec::protocol_s(config.t).attack_prob(ml, true) <= target
    };
    let kept = ddmin(&best.schedule.faults, reproduces);
    drop(span);
    obs.flush();
    FaultSchedule {
        seed: best.schedule.seed,
        base_latency: best.schedule.base_latency,
        faults: kept,
    }
}

/// Re-scores one saved schedule exactly as the hunt would — the structural
/// evaluation (induced run, min level, exact outcome, safety oracles)
/// plus a Monte Carlo allocation of `config.budget` trials — so a shrunk
/// winner can be replayed from its JSON file (`ca hunt --replay`).
pub fn replay_schedule(
    graph: &Graph,
    config: &HuntConfig,
    schedule: FaultSchedule,
) -> CandidateResult {
    let mut candidate = evaluate_candidate(graph, config, 0, 0, schedule);
    if candidate.status == CandidateStatus::Ok && config.budget > 0 {
        candidate.mc_tally = mc_rung_tally(graph, config, &candidate, 0, config.budget);
        candidate.mc_trials = config.budget;
    }
    candidate
}

/// Runs the full hunt. Deterministic given `(graph, config)` and
/// independent of `config.threads`.
pub fn run_hunt(graph: &Graph, config: &HuntConfig) -> HuntReport {
    let hunt_obs = ca_obs::Metrics::new();
    let hunt_span = hunt_obs.span(ca_obs::SpanId::HuntRun);
    let m = graph.len();
    let max_tick = u64::from(config.rounds.max(1) - 1);
    let population = config.population.max(1);
    let elite_count = config.elites.max(1).min(population);
    let fresh_count = (population / 4).max(1);

    let mut dist = GenomeDist::uniform();
    let mut elites: Vec<CandidateResult> = Vec::new();
    let mut best: Option<CandidateResult> = None;
    let mut generations: Vec<GenerationSummary> = Vec::new();
    let mut infeasible_total = 0u64;
    let mut rejected_total = 0u64;
    let mut failed_total = 0u64;

    for gen in 0..config.generations {
        let gen_span = hunt_obs.span(ca_obs::SpanId::HuntGeneration);
        // Deterministic population: carried elites, fresh samples from the
        // (re-fit) distribution, and mutated crossover offspring.
        let genomes: Vec<FaultSchedule> = (0..population)
            .map(|slot| {
                let cseed = mix64(mix64(config.seed, u64::from(gen)), slot as u64);
                if gen == 0 || elites.is_empty() {
                    dist.sample_schedule(cseed, m, max_tick, config.max_faults)
                } else if slot < elites.len() {
                    elites[slot].schedule.clone()
                } else if slot < elites.len() + fresh_count {
                    dist.sample_schedule(cseed, m, max_tick, config.max_faults)
                } else {
                    let a = &elites[slot % elites.len()].schedule;
                    let b = &elites[(slot + 1) % elites.len()].schedule;
                    let child = crossover(a, b, cseed, config.max_faults);
                    mutate(
                        &child,
                        &dist,
                        mix64(cseed, 1),
                        m,
                        max_tick,
                        config.max_faults,
                    )
                }
            })
            .collect();

        let mut results: Vec<CandidateResult> =
            parallel_map(genomes.len(), config.threads, |slot| {
                let id = u64::from(gen) * population as u64 + slot as u64;
                evaluate_candidate(graph, config, id, gen, genomes[slot].clone())
            });

        let gen_infeasible = results
            .iter()
            .filter(|c| c.status == CandidateStatus::Infeasible)
            .count() as u64;
        let gen_degraded = results
            .iter()
            .filter(|c| {
                matches!(
                    c.status,
                    CandidateStatus::Rejected | CandidateStatus::Failed
                )
            })
            .count() as u64;
        infeasible_total += gen_infeasible;
        rejected_total += results
            .iter()
            .filter(|c| c.status == CandidateStatus::Rejected)
            .count() as u64;
        failed_total += results
            .iter()
            .filter(|c| c.status == CandidateStatus::Failed)
            .count() as u64;

        // The bandit screens the feasible field on the MC fast path.
        let mut feasible: Vec<CandidateResult> = results
            .iter()
            .filter(|c| c.status == CandidateStatus::Ok)
            .cloned()
            .collect();
        let spent = bandit_screen(graph, config, &hunt_obs, &mut feasible);
        // Copy accumulated tallies back into the full result set so every
        // candidate's record carries its spend.
        for c in &feasible {
            if let Some(slot) = results.iter_mut().find(|r| r.id == c.id) {
                slot.mc_tally = c.mc_tally;
                slot.mc_trials = c.mc_trials;
            }
        }

        // Elite selection is by *exact* TA (ground truth), among the
        // bandit's survivors and past elites; the MC screen only decided
        // who earned enough trials to be considered.
        feasible.sort_by_key(|c| c.exact_key(config.t));
        elites = feasible.iter().take(elite_count).cloned().collect();
        if let Some(gen_best) = elites.first() {
            let better = match &best {
                None => true,
                Some(b) => gen_best.exact_key(config.t) < b.exact_key(config.t),
            };
            if better {
                best = Some(gen_best.clone());
            }
        }
        if !elites.is_empty() {
            let elite_schedules: Vec<&FaultSchedule> = elites.iter().map(|c| &c.schedule).collect();
            dist = GenomeDist::refit(&elite_schedules, max_tick);
        }

        generations.push(GenerationSummary {
            generation: gen,
            feasible: feasible.len() as u64,
            infeasible: gen_infeasible,
            degraded: gen_degraded,
            best_ta: elites.first().map_or(0.0, |c| c.exact_ta),
            best_ml: elites.first().map_or(0, |c| c.ml),
            mc_trials: spent,
        });
        drop(gen_span);
    }

    // Every elite is auto-shrunk before reporting.
    let elite_summaries: Vec<EliteSummary> = elites
        .iter()
        .map(|c| {
            let shrunk = shrink_candidate(graph, config, c);
            EliteSummary {
                id: c.id,
                ml: c.ml,
                exact_ta: c.exact_ta,
                faults_before: c.schedule.faults.len(),
                faults_after: shrunk.faults.len(),
                schedule: shrunk,
            }
        })
        .collect();

    let (shrunk, shrunk_diff) = match &best {
        Some(b) => {
            let s = shrink_candidate(graph, config, b);
            let diff = b.schedule.diff(&s);
            (Some(s), diff)
        }
        None => (None, Vec::new()),
    };

    // The online probe: the adaptive min-level adversary at target 1, the
    // deepest non-vacuous cut it can force.
    let mut online_adv = MinLevelCut::new(graph.clone(), config.rounds, 1);
    let online_run = materialize(&mut online_adv, graph, config.rounds);
    let online_ml = modified_levels(&online_run).min_level();
    let online_exact = run_outcomes(graph, &online_run, &DpSpec::protocol_s(config.t))
        .unwrap_or_else(|e| panic!("the min-level cut is a run on the graph: {e}"));
    let online = OnlineProbe {
        adversary: "min-level-cut".to_owned(),
        target: 1,
        ml: online_ml,
        exact_ta: online_exact.ta.to_f64(),
        matches_offline_best: best
            .as_ref()
            .is_some_and(|b| b.exact_ta_rational(config.t) == online_exact.ta),
    };

    let eps = Rational::new(1, config.t as i128);
    let floor_ta = eps.to_f64();
    let prefix_cut_equivalent = best
        .as_ref()
        .is_some_and(|b| b.ml == 1 && b.exact_ta_rational(config.t) == eps);
    let mc_within_floor_interval = best.as_ref().is_some_and(|b| {
        b.mc_trials > 0
            && BernoulliEstimate::new(b.mc_tally, b.mc_trials).consistent_with_z(floor_ta, 4.0)
    });

    drop(hunt_span);
    hunt_obs.flush();

    HuntReport {
        schema: 1,
        m,
        // The worker count is an execution detail, never part of the
        // determinism contract: the stored config zeroes it so the report
        // bytes are identical at any `--threads`.
        config: HuntConfig {
            threads: 0,
            ..*config
        },
        candidates: u64::from(config.generations) * population as u64,
        infeasible: infeasible_total,
        rejected: rejected_total,
        failed: failed_total,
        generations,
        best,
        shrunk,
        shrunk_diff,
        elites: elite_summaries,
        online,
        analytic: AnalyticAnchors {
            floor_ta,
            boundary_ratio: f64::from(config.rounds),
        },
        prefix_cut_equivalent,
        mc_within_floor_interval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k2() -> Graph {
        Graph::complete(2).unwrap()
    }

    #[test]
    fn induced_run_of_the_reliable_schedule_is_good() {
        let g = k2();
        let run = induced_run(&g, &FaultSchedule::reliable(1), 5).unwrap();
        assert_eq!(run, Run::good(&g, 5));
        assert_eq!(modified_levels(&run).min_level(), 5);
    }

    #[test]
    fn induced_run_of_a_partition_from_tick_one_is_the_prefix_cut() {
        let g = k2();
        let schedule = FaultSchedule {
            seed: 0,
            base_latency: 1,
            faults: vec![FaultPrimitive::Partition {
                group_a: vec![ProcessId::new(0)],
                window: TimeWindow::from(1),
            }],
        };
        let run = induced_run(&g, &schedule, 6).unwrap();
        let mut expected = Run::good(&g, 6);
        expected.cut_from_round(Round::new(2));
        assert_eq!(run, expected);
        assert_eq!(modified_levels(&run).min_level(), 1);
    }

    #[test]
    fn jittered_messages_count_as_destroyed_in_lockstep() {
        let g = k2();
        // Deterministic jitter from tick 0 adds latency to most sends; the
        // induced run treats any late delivery as destroyed.
        let schedule = FaultSchedule {
            seed: 9,
            base_latency: 1,
            faults: vec![FaultPrimitive::DelayJitter {
                extra_max: 1000,
                window: TimeWindow::always(),
            }],
        };
        let run = induced_run(&g, &schedule, 6).unwrap();
        assert!(run.message_count() < Run::good(&g, 6).message_count());
    }

    #[test]
    fn induced_run_drops_arrivals_past_the_last_tick() {
        // With a base latency of u64::MAX only round 1's sends (at tick 0)
        // can arrive on time; every later arrival saturates and is lost.
        let g = k2();
        let schedule = FaultSchedule {
            seed: 0,
            base_latency: u64::MAX,
            faults: vec![],
        };
        let run = induced_run(&g, &schedule, 4).unwrap();
        let mut expect = Run::empty(2, 4);
        for i in g.vertices() {
            expect.add_input(i);
        }
        for (from, to) in g.directed_edges() {
            expect.add_message(from, to, Round::new(1));
        }
        assert_eq!(run, expect);
    }

    #[test]
    fn evaluate_types_blackouts_infeasible_and_panics_failed() {
        let g = k2();
        let config = HuntConfig::quick(1);
        // Blackout: everything destroyed, ML = 0, zero liveness for free.
        let blackout = FaultSchedule {
            seed: 0,
            base_latency: 1,
            faults: vec![FaultPrimitive::Partition {
                group_a: vec![ProcessId::new(0)],
                window: TimeWindow::always(),
            }],
        };
        let r = evaluate_candidate(&g, &config, 0, 0, blackout);
        assert_eq!(r.status, CandidateStatus::Infeasible);
        assert_eq!(r.ml, 0);
        assert_eq!(r.exact_ta, 0.0);
        // Poisoned: the evaluation panics behind the real boundary (no
        // valid schedule is known to panic, so the panic is injected).
        let r = evaluate_guarded(1, 0, FaultSchedule::reliable(1), |_| -> CandidateResult {
            panic!("poisoned evaluation")
        });
        assert_eq!(r.status, CandidateStatus::Failed);
        assert_eq!(r.detail.as_deref(), Some("poisoned evaluation"));
        // Invalid: typed rejection.
        let invalid = FaultSchedule {
            seed: 0,
            base_latency: 0,
            faults: vec![],
        };
        let r = evaluate_candidate(&g, &config, 2, 0, invalid);
        assert_eq!(r.status, CandidateStatus::Rejected);
        // A firing rule the exact engine refuses: typed rejection too.
        let zero_t = HuntConfig { t: 0, ..config };
        let r = evaluate_candidate(&g, &zero_t, 3, 0, FaultSchedule::reliable(1));
        assert_eq!(r.status, CandidateStatus::Rejected);
        assert!(r.detail.is_some_and(|d| d.contains("firing range")));
    }

    #[test]
    fn hunt_is_deterministic_and_thread_count_independent() {
        let g = k2();
        let mut config = HuntConfig::quick(7);
        config.generations = 2;
        config.population = 8;
        config.budget = 256;
        let a = run_hunt(&g, &config);
        let b = run_hunt(&g, &config);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let serial = HuntConfig {
            threads: 1,
            ..config
        };
        let c = run_hunt(&g, &serial);
        assert_eq!(
            a.to_json(),
            c.to_json(),
            "thread count leaked into the report"
        );
    }

    #[test]
    fn hunt_converges_to_the_prefix_cut_floor_at_quick_scale() {
        let g = k2();
        let config = HuntConfig::quick(7);
        let report = run_hunt(&g, &config);
        let best = report.best.as_ref().expect("a feasible best exists");
        assert_eq!(best.ml, 1, "{}", report.to_json_pretty());
        assert!(report.prefix_cut_equivalent);
        assert!(report.mc_within_floor_interval);
        assert_eq!(report.analytic.floor_ta, 0.125);
        assert_eq!(report.analytic.boundary_ratio, 8.0);
        // The online min-level adversary lands on the same floor.
        assert_eq!(report.online.ml, 1);
        assert_eq!(report.online.exact_ta, 0.125);
        assert!(report.online.matches_offline_best);
        // The shrunk winner still reproduces the floor.
        let shrunk = report.shrunk.as_ref().expect("shrunk schedule exists");
        assert!(shrunk.faults.len() <= best.schedule.faults.len());
        let run = induced_run(&g, shrunk, config.rounds).unwrap();
        assert_eq!(modified_levels(&run).min_level(), 1);
        // Every reported elite was shrunk to a reproducing schedule.
        for elite in &report.elites {
            assert!(elite.faults_after <= elite.faults_before);
            let run = induced_run(&g, &elite.schedule, config.rounds).unwrap();
            assert!(modified_levels(&run).min_level() >= 1);
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let g = k2();
        let mut config = HuntConfig::quick(3);
        config.generations = 1;
        config.population = 6;
        config.budget = 128;
        let report = run_hunt(&g, &config);
        let text = report.to_json();
        let back = HuntReport::from_json(&text).unwrap();
        assert_eq!(report, back);
        assert_eq!(text, back.to_json(), "serialization is deterministic");
        assert!(HuntReport::from_json("{").is_err());
    }

    #[test]
    fn genome_operators_are_deterministic() {
        let dist = GenomeDist::uniform();
        let a = dist.sample_schedule(11, 2, 7, 4);
        assert_eq!(a, dist.sample_schedule(11, 2, 7, 4));
        a.validate().unwrap();
        let b = dist.sample_schedule(12, 2, 7, 4);
        let child = crossover(&a, &b, 13, 4);
        assert_eq!(child, crossover(&a, &b, 13, 4));
        child.validate().unwrap();
        assert!(child.faults.len() <= 4);
        let mutant = mutate(&child, &dist, 14, 2, 7, 4);
        assert_eq!(mutant, mutate(&child, &dist, 14, 2, 7, 4));
        mutant.validate().unwrap();
    }

    #[test]
    fn refit_concentrates_on_elite_kinds() {
        let partition_heavy = FaultSchedule {
            seed: 1,
            base_latency: 1,
            faults: vec![
                FaultPrimitive::Partition {
                    group_a: vec![ProcessId::new(0)],
                    window: TimeWindow::from(1),
                },
                FaultPrimitive::Partition {
                    group_a: vec![ProcessId::new(1)],
                    window: TimeWindow::from(1),
                },
            ],
        };
        let dist = GenomeDist::refit(&[&partition_heavy], 7);
        assert!(dist.kind_weights[KIND_PARTITION] > dist.kind_weights[KIND_DROP_PROB]);
        // Both elite windows are open-ended and start at tick 1.
        assert!(dist.open_window_p > 0.5);
        assert!((dist.start_bias - 1.0 / 7.0).abs() < 1e-9);
    }
}
