//! Chaos campaigns: adversarial schedule search with shrinking.
//!
//! A campaign samples many [`FaultSchedule`]s from a master seed, runs
//! [`AsyncS`] under each, and checks the paper's claims as invariant
//! oracles:
//!
//! * **count spread** — final counts differ by at most 1 across processes
//!   (the Figure 1 automaton's safety core);
//! * **token discipline** — a process that never heard `rfire` never
//!   attacks (validity);
//! * **outcome validity** — the exact outcome distribution is a
//!   distribution (`TA + NA + PA = 1`, each in `[0, 1]`);
//! * **safety** — exact `Pr[PA] ≤ ε`, by rational arithmetic, against the
//!   schedule-as-adversary (Theorem 1's upper bound, which holds against
//!   *any* courier);
//! * **liveness** — exact `Pr[TA] ≥ min(1, ε·C)` where `C` is the minimum
//!   count reached by the deadline (the asynchronous analogue of
//!   `min(1, ε·ML(R))`), cross-checked against the exact computation;
//! * **Monte Carlo consistency** — the empirical attack rate over random
//!   tapes agrees with the exact rational probability;
//! * **determinism** — replaying the same schedule reproduces the same
//!   outcome byte for byte.
//!
//! Every execution goes through [`try_run_async`], so a hostile schedule
//! can only degrade an outcome, never abort the process. A schedule that
//! violates an oracle is delta-debugged ([`ca_sim::chaos::ddmin`]) to a
//! minimal fault list that still violates; when no schedule violates
//! (the expected case — the theorems hold), the campaign instead shrinks
//! the schedule that did the most *liveness damage* (lowest exact `TA`) to
//! the minimal fault list achieving that damage, which is what
//! `ca chaos` reports as the worst case.
//!
//! Executions use all-inputs configurations with a bounded-backoff
//! heartbeat ([`HeartbeatPolicy::bounded`] with period 2, 8 beats, backoff
//! 2): retransmission restores loss tolerance without letting a chaos
//! schedule provoke unbounded send amplification.

use crate::chaos::{ChaosCourier, FaultPrimitive, FaultSchedule, TimeWindow};
use crate::courier::Time;
use crate::engine::{try_run_async, AsyncConfig, HeartbeatPolicy};
use crate::exact::async_s_outcomes;
use crate::protocol::AsyncS;
use crate::supervisor::panic_message;
use ca_core::graph::Graph;
use ca_core::ids::ProcessId;
use ca_core::outcome::Outcome;
use ca_core::rational::Rational;
use ca_core::run::Run;
use ca_core::tape::{BitTape, TapeSet};
use ca_protocols::ProtocolS;
use ca_sim::chaos::{ddmin, mix64, parallel_map};
use ca_sim::stats::BernoulliEstimate;
use ca_sim::{simulate_sliced, FixedRun, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parameters of a chaos campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of schedules to sample and check.
    pub schedules: u64,
    /// Master seed; the whole campaign (sampling, oracles, shrinking) is a
    /// deterministic function of it.
    pub seed: u64,
    /// The real-time deadline `T` of every execution.
    pub deadline: Time,
    /// `t = 1/ε`: the agreement parameter's reciprocal.
    pub t: u64,
    /// Maximum faults per sampled schedule.
    pub max_faults: usize,
    /// Worker threads (0 = available parallelism). The report is
    /// independent of this.
    pub threads: usize,
    /// Monte Carlo cross-check trials per schedule (0 disables the oracle).
    pub mc_trials: u64,
}

impl CampaignConfig {
    /// A campaign with default fault density (≤ 4 faults per schedule),
    /// all cores, and a 200-trial Monte Carlo cross-check.
    pub fn new(schedules: u64, seed: u64, deadline: Time, t: u64) -> Self {
        CampaignConfig {
            schedules,
            seed,
            deadline,
            t,
            max_faults: 4,
            threads: 0,
            mc_trials: 200,
        }
    }
}

/// Pass/fail of each invariant oracle for one schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleVerdicts {
    /// Final counts spread by at most 1.
    pub count_spread_ok: bool,
    /// No tokenless process attacked.
    pub token_discipline_ok: bool,
    /// Exact `(TA, NA, PA)` is a probability distribution.
    pub outcome_valid: bool,
    /// Exact `Pr[PA] ≤ ε`.
    pub safety_ok: bool,
    /// Exact `Pr[TA] ≥ min(1, ε·C)` for the deadline mincount `C`.
    pub liveness_ok: bool,
    /// Empirical attack rate consistent with the exact probability.
    pub mc_consistent: bool,
    /// Replaying the schedule reproduced the identical outcome.
    pub deterministic: bool,
}

impl OracleVerdicts {
    const ALL_OK: OracleVerdicts = OracleVerdicts {
        count_spread_ok: true,
        token_discipline_ok: true,
        outcome_valid: true,
        safety_ok: true,
        liveness_ok: true,
        mc_consistent: true,
        deterministic: true,
    };

    /// Whether every oracle passed.
    pub fn all_ok(&self) -> bool {
        self.count_spread_ok
            && self.token_discipline_ok
            && self.outcome_valid
            && self.safety_ok
            && self.liveness_ok
            && self.mc_consistent
            && self.deterministic
    }

    /// Number of failed oracles (violation severity).
    pub fn failed(&self) -> u32 {
        [
            self.count_spread_ok,
            self.token_discipline_ok,
            self.outcome_valid,
            self.safety_ok,
            self.liveness_ok,
            self.mc_consistent,
            self.deterministic,
        ]
        .iter()
        .filter(|&&ok| !ok)
        .count() as u32
    }
}

/// Full evaluation of one schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleResult {
    /// Index of the schedule within the campaign.
    pub index: u64,
    /// The schedule itself (replayable).
    pub schedule: FaultSchedule,
    /// Oracle verdicts.
    pub verdicts: OracleVerdicts,
    /// Exact `Pr[TA]` as a float (for the report; oracles compare exactly).
    pub ta: f64,
    /// Exact `Pr[PA]` as a float.
    pub pa: f64,
    /// Minimum count reached by the deadline (`C` in the liveness bound).
    pub mincount: u32,
    /// Set when the engine rejected the schedule with a typed error
    /// instead of running it (graceful degradation, not a violation).
    pub rejected: Option<String>,
    /// Set when evaluating the schedule **panicked**; the panic was caught
    /// at the per-schedule boundary (mirroring `supervisor::supervise`) and
    /// its message recorded here, so one poisoned schedule degrades to a
    /// typed failure instead of killing the whole campaign.
    pub failed: Option<String>,
}

impl ScheduleResult {
    /// Whether this schedule violated at least one oracle.
    pub fn is_violation(&self) -> bool {
        self.rejected.is_none() && self.failed.is_none() && !self.verdicts.all_ok()
    }
}

/// One line per schedule in the report.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSummary {
    /// Schedule index.
    pub index: u64,
    /// Number of faults in the schedule.
    pub faults: usize,
    /// Exact `Pr[TA]`.
    pub ta: f64,
    /// Exact `Pr[PA]`.
    pub pa: f64,
    /// All oracles passed.
    pub ok: bool,
}

/// The JSON-serializable result of a chaos campaign.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Number of processes in the graph.
    pub m: usize,
    /// The campaign parameters.
    pub config: CampaignConfig,
    /// Schedules sampled and evaluated.
    pub schedules_tried: u64,
    /// Schedules that violated at least one oracle.
    pub violations: u64,
    /// Schedules whose evaluation panicked (caught per schedule and
    /// recorded as [`ScheduleResult::failed`]).
    pub failures: u64,
    /// The worst schedule: most-severe violator, or (when none violate) the
    /// schedule with the lowest exact `Pr[TA]` — maximum liveness damage.
    pub worst: Option<ScheduleResult>,
    /// `worst.schedule` shrunk by delta debugging to a minimal fault list
    /// that still reproduces (the violation, or the liveness damage).
    pub shrunk: Option<FaultSchedule>,
    /// Oracle verdicts of the shrunk schedule's replay.
    pub shrunk_verdicts: Option<OracleVerdicts>,
    /// Human-readable differences between the worst schedule and its
    /// shrunk counterexample.
    pub shrunk_diff: Vec<String>,
    /// Per-schedule summaries, in campaign order.
    pub summaries: Vec<ScheduleSummary>,
}

impl ChaosReport {
    /// Deterministic single-line JSON.
    pub fn to_json(&self) -> String {
        json::to_string(self).expect("reports are always serializable")
    }

    /// Deterministic pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        json::to_string_pretty(self).expect("reports are always serializable")
    }
}

/// The execution configuration every campaign run uses: all processes get
/// the input; bounded-backoff heartbeats (period 2, ≤ 8 beats, backoff 2).
fn engine_config(graph: &Graph, deadline: Time) -> AsyncConfig {
    AsyncConfig::all_inputs(graph, deadline)
        .with_heartbeat_policy(HeartbeatPolicy::bounded(2, 8, 2))
}

/// The fixed tape set of the reference execution (the counting dynamics of
/// `AsyncS` are value-blind, so any tape works — see `exact`).
fn fixed_tapes(m: usize) -> TapeSet {
    TapeSet::from_tapes(
        (0..m)
            .map(|_| BitTape::from_words(vec![0xFEED_FACE_0123_4567]))
            .collect(),
    )
}

/// Samples one schedule from a seed: up to `max_faults` primitives with
/// windows inside `[0, deadline]`.
pub fn sample_schedule(seed: u64, m: usize, deadline: Time, max_faults: usize) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_faults = rng.gen_range(0..=max_faults as u64) as usize;
    let faults = (0..n_faults)
        .map(|_| sample_fault(&mut rng, m, deadline))
        .collect();
    FaultSchedule {
        seed,
        base_latency: rng.gen_range(1u64..=3),
        faults,
    }
}

fn sample_window(rng: &mut StdRng, deadline: Time) -> TimeWindow {
    let start = rng.gen_range(0..=deadline);
    if rng.gen_bool(0.5) {
        TimeWindow::from(start)
    } else {
        // Validation rejects empty windows, so sample `end > start`.
        TimeWindow::between(start, rng.gen_range(start + 1..=deadline + 1))
    }
}

fn sample_fault(rng: &mut StdRng, m: usize, deadline: Time) -> FaultPrimitive {
    let pid = |rng: &mut StdRng| ProcessId::new(rng.gen_range(0..m as u32));
    match rng.gen_range(0u32..8) {
        0 => {
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
                window: sample_window(rng, deadline),
            }
        }
        1 => FaultPrimitive::DropProb {
            p: rng.gen_range(0.0..0.6),
            window: sample_window(rng, deadline),
        },
        2 => FaultPrimitive::DelayJitter {
            extra_max: rng.gen_range(1u64..=6),
            window: sample_window(rng, deadline),
        },
        3 => FaultPrimitive::Duplicate {
            p: rng.gen_range(0.0..1.0),
            echo_delay: rng.gen_range(1u64..=4),
            window: sample_window(rng, deadline),
        },
        4 => FaultPrimitive::Reorder {
            p: rng.gen_range(0.0..0.8),
            max_swap: rng.gen_range(1u64..=4),
            window: sample_window(rng, deadline),
        },
        5 => {
            let period = rng.gen_range(2u64..=8);
            FaultPrimitive::BurstLoss {
                period,
                burst_len: rng.gen_range(1..=period),
            }
        }
        6 => FaultPrimitive::CrashWindow {
            process: pid(rng),
            window: sample_window(rng, deadline),
        },
        _ => {
            let group_a = (0..m as u32)
                .filter(|_| rng.gen_bool(0.5))
                .map(ProcessId::new)
                .collect();
            FaultPrimitive::Partition {
                group_a,
                window: sample_window(rng, deadline),
            }
        }
    }
}

/// The observability counter charged for one fault primitive.
fn fault_counter(fault: &FaultPrimitive) -> ca_obs::CounterId {
    use ca_obs::CounterId as C;
    match fault {
        FaultPrimitive::DropLink { .. } => C::ChaosFaultsDropLink,
        FaultPrimitive::DropProb { .. } => C::ChaosFaultsDropProb,
        FaultPrimitive::DelayJitter { .. } => C::ChaosFaultsDelayJitter,
        FaultPrimitive::Duplicate { .. } => C::ChaosFaultsDuplicate,
        FaultPrimitive::Reorder { .. } => C::ChaosFaultsReorder,
        FaultPrimitive::BurstLoss { .. } => C::ChaosFaultsBurstLoss,
        FaultPrimitive::CrashWindow { .. } => C::ChaosFaultsCrashWindow,
        FaultPrimitive::Partition { .. } => C::ChaosFaultsPartition,
        FaultPrimitive::ReplayRun { .. } => C::ChaosFaultsReplayRun,
    }
}

/// Evaluates one schedule against all oracles.
pub fn evaluate_schedule(
    graph: &Graph,
    config: &CampaignConfig,
    index: u64,
    schedule: FaultSchedule,
) -> ScheduleResult {
    evaluate_guarded(index, schedule, |schedule, obs| {
        evaluate_schedule_inner(graph, config, index, schedule, obs)
    })
}

/// Runs `evaluate` on `schedule` inside the per-schedule panic boundary
/// and records the evaluation's metrics.
fn evaluate_guarded(
    index: u64,
    schedule: FaultSchedule,
    evaluate: impl FnOnce(FaultSchedule, &ca_obs::Metrics) -> ScheduleResult,
) -> ScheduleResult {
    use ca_obs::{CounterId, HistId, SpanId};
    // One local sink per evaluation, flushed on exit: evaluations run on
    // `parallel_map` workers, and per-schedule attribution is what keeps
    // every counter a thread-count-independent function of the campaign
    // seed.
    let obs = ca_obs::Metrics::new();
    // The panic boundary mirrors `supervisor::supervise`: a poisoned
    // schedule (one whose evaluation panics inside the engine or the
    // courier) becomes a typed `failed` entry instead of tearing down the
    // `parallel_map` worker and with it the whole campaign.
    let result = {
        let _span = obs.span(SpanId::ChaosEvaluate);
        let caught = catch_unwind(AssertUnwindSafe(|| evaluate(schedule.clone(), &obs)));
        match caught {
            Ok(result) => result,
            Err(payload) => ScheduleResult {
                index,
                schedule,
                verdicts: OracleVerdicts::ALL_OK,
                ta: 0.0,
                pa: 0.0,
                mincount: 0,
                rejected: None,
                failed: Some(panic_message(payload)),
            },
        }
    };
    obs.inc(CounterId::ChaosSchedules);
    if result.rejected.is_some() {
        obs.inc(CounterId::ChaosSchedulesRejected);
    }
    if result.failed.is_some() {
        obs.inc(CounterId::ChaosSchedulesFailed);
    }
    for fault in &result.schedule.faults {
        obs.inc(fault_counter(fault));
    }
    obs.record(
        HistId::ChaosFaultsPerSchedule,
        result.schedule.faults.len() as u64,
    );
    obs.add(
        CounterId::ChaosOracleFailures,
        u64::from(result.verdicts.failed()),
    );
    obs.flush();
    result
}

fn evaluate_schedule_inner(
    graph: &Graph,
    config: &CampaignConfig,
    index: u64,
    schedule: FaultSchedule,
    obs: &ca_obs::Metrics,
) -> ScheduleResult {
    let rejected = |schedule: FaultSchedule, why: String| ScheduleResult {
        index,
        schedule,
        verdicts: OracleVerdicts::ALL_OK,
        ta: 0.0,
        pa: 0.0,
        mincount: 0,
        rejected: Some(why),
        failed: None,
    };

    let courier = match ChaosCourier::new(schedule.clone()) {
        Ok(c) => c,
        Err(e) => return rejected(schedule, e.to_string()),
    };
    let aconfig = engine_config(graph, config.deadline);
    let proto = AsyncS::new(1.0 / config.t as f64);
    let tapes = fixed_tapes(graph.len());

    // Reference execution (twice, for the determinism oracle).
    let out = match try_run_async(&proto, graph, &aconfig, &tapes, &mut courier.clone()) {
        Ok(out) => out,
        Err(e) => return rejected(schedule, e.to_string()),
    };
    let replay = try_run_async(&proto, graph, &aconfig, &tapes, &mut courier.clone());
    let deterministic = replay.as_ref().is_ok_and(|r| {
        r.outputs == out.outputs
            && r.sent == out.sent
            && r.delivered == out.delivered
            && r.duplicates_suppressed == out.duplicates_suppressed
    });

    // Structural oracles on the final states.
    let oracle_span = obs.span(ca_obs::SpanId::ChaosOracles);
    let counts: Vec<u32> = out.states.iter().map(|s| s.count).collect();
    let mincount = counts.iter().copied().min().unwrap_or(0);
    let maxcount = counts.iter().copied().max().unwrap_or(0);
    let count_spread_ok = maxcount - mincount <= 1;
    let token_discipline_ok = out
        .states
        .iter()
        .zip(&out.outputs)
        .all(|(s, &attacked)| s.token.is_some() || !attacked);

    // Exact probabilities and the paper bounds, in rational arithmetic.
    let exact = async_s_outcomes(graph, &aconfig, &mut courier.clone(), config.t);
    let outcome_valid = exact.is_valid();
    let t_rat = Rational::new(config.t as i128, 1);
    let eps = Rational::new(1, config.t as i128);
    let safety_ok = exact.pa <= eps;
    let liveness_bound = Rational::from(mincount).min(t_rat) / t_rat; // min(1, ε·C)
    let liveness_ok = exact.ta >= liveness_bound;
    drop(oracle_span);

    // Monte Carlo cross-check. The sliced fast path applies whenever the
    // exact TA matches the value-blind mincount formula (see
    // `mc_cross_check_sliced`); otherwise — or when the sliced engine
    // declines the surrogate instance — fall back to the scalar async loop
    // over random tapes.
    let mc_consistent = if config.mc_trials == 0 {
        true
    } else {
        let _mc_span = obs.span(ca_obs::SpanId::ChaosMcCrossCheck);
        match mc_cross_check_sliced(config, index, mincount, &exact.ta) {
            Some(ok) => ok,
            None => {
                let mut est = BernoulliEstimate::new(0, 0);
                for trial in 0..config.mc_trials {
                    let mut rng = StdRng::seed_from_u64(mix64(mix64(config.seed, index), trial));
                    let tapes = TapeSet::random(&mut rng, graph.len(), 64);
                    let run = try_run_async(&proto, graph, &aconfig, &tapes, &mut courier.clone());
                    let total = run.is_ok_and(|r| r.outcome() == Outcome::TotalAttack);
                    est.record(total);
                }
                // z = 4: deliberately loose — the oracle hunts for systematic
                // disagreement between engine and exact computation, not
                // noise.
                est.consistent_with_z(exact.ta.to_f64(), 4.0)
            }
        }
    };

    ScheduleResult {
        index,
        schedule,
        verdicts: OracleVerdicts {
            count_spread_ok,
            token_discipline_ok,
            outcome_valid,
            safety_ok,
            liveness_ok,
            mc_consistent,
            deterministic,
        },
        ta: exact.ta.to_f64(),
        pa: exact.pa.to_f64(),
        mincount,
        rejected: None,
        failed: None,
    }
}

/// Domain separation for the sliced cross-check's trial stream (never
/// collides with the scalar path's `mix64(mix64(seed, index), trial)`
/// seeds, which use small trial numbers).
const MC_SLICED_STREAM: u64 = 0x4D43_534C_4943_4544; // "MCSLICED"

/// The synchronous surrogate of one schedule's Monte Carlo cross-check:
/// Protocol S on a 2-clique good run of `min(mincount, t)` rounds.
///
/// `AsyncS` is value-blind: given the courier, the counting dynamics are
/// fixed, and a random-tape trial is a total attack iff the leader's
/// `rfire` draw lands under `min(1, ε·mincount)` — a Bernoulli whose
/// parameter equals the surrogate's exact TA (`min(1, ε·ML)` with
/// `ML = min(mincount, t)`, both `min(mincount, t)/t`).
fn mc_surrogate(mincount: u32, t: u64) -> (Graph, Run) {
    let ml = u32::try_from(u64::from(mincount).min(t)).expect("t clamp fits u32 via mincount");
    let graph = Graph::complete(2).expect("K2 is constructible");
    let run = Run::good(&graph, ml);
    (graph, run)
}

/// The bit-sliced fast path of the Monte Carlo cross-check oracle: samples
/// the surrogate's Bernoulli through `simulate_sliced`, replacing
/// `mc_trials` full async executions with `mc_trials / 64` passes of the
/// 64-lane engine.
///
/// Returns `None` when the surrogate is not provably equivalent — the exact
/// TA disagrees with the value-blind mincount formula, which is precisely
/// the engine-vs-exact divergence the oracle exists to catch — or when the
/// sliced engine declines the instance; the caller then takes the scalar
/// async path.
fn mc_cross_check_sliced(
    config: &CampaignConfig,
    index: u64,
    mincount: u32,
    exact_ta: &Rational,
) -> Option<bool> {
    let t_rat = Rational::new(config.t as i128, 1);
    let formula = Rational::from(mincount).min(t_rat) / t_rat;
    if *exact_ta != formula {
        return None;
    }
    let (graph, run) = mc_surrogate(mincount, config.t);
    let sampler = FixedRun::new(run);
    let proto = ProtocolS::new(1.0 / config.t as f64);
    // threads: 1 — evaluations already run one-per-`parallel_map`-worker;
    // the report is thread-count independent regardless, by `simulate`'s
    // contract.
    let sim = SimConfig {
        trials: config.mc_trials,
        seed: mix64(mix64(config.seed, index), MC_SLICED_STREAM),
        threads: 1,
    };
    let report = simulate_sliced(&proto, &graph, &sampler, sim)?;
    Some(report.liveness().consistent_with_z(exact_ta.to_f64(), 4.0))
}

/// Shrinks the worst schedule's fault list to a minimal reproduction.
fn shrink_worst(
    graph: &Graph,
    config: &CampaignConfig,
    worst: &ScheduleResult,
) -> (FaultSchedule, OracleVerdicts, Vec<String>) {
    // Re-running MC inside the shrink loop is only needed when the MC
    // oracle is the one that tripped.
    let shrink_config = CampaignConfig {
        mc_trials: if worst.verdicts.mc_consistent {
            0
        } else {
            config.mc_trials
        },
        ..*config
    };
    let obs = ca_obs::Metrics::new();
    let _span = obs.span(ca_obs::SpanId::ChaosShrink);
    let violation = worst.is_violation();
    let reproduces = |faults: &[FaultPrimitive]| {
        obs.inc(ca_obs::CounterId::ChaosShrinkEvals);
        let candidate = FaultSchedule {
            seed: worst.schedule.seed,
            base_latency: worst.schedule.base_latency,
            faults: faults.to_vec(),
        };
        let result = evaluate_schedule(graph, &shrink_config, worst.index, candidate);
        if violation {
            result.is_violation()
        } else {
            result.rejected.is_none() && result.ta <= worst.ta
        }
    };
    let kept = ddmin(&worst.schedule.faults, reproduces);
    let shrunk = FaultSchedule {
        seed: worst.schedule.seed,
        base_latency: worst.schedule.base_latency,
        faults: kept,
    };
    let verdicts = evaluate_schedule(graph, config, worst.index, shrunk.clone()).verdicts;
    let diff = worst.schedule.diff(&shrunk);
    drop(_span);
    obs.flush();
    (shrunk, verdicts, diff)
}

/// Runs a full chaos campaign: sample, evaluate in parallel, pick the worst
/// schedule, shrink it. Deterministic given `config` (independent of the
/// thread count).
pub fn run_campaign(graph: &Graph, config: &CampaignConfig) -> ChaosReport {
    let campaign_obs = ca_obs::Metrics::new();
    let campaign_span = campaign_obs.span(ca_obs::SpanId::ChaosCampaign);
    let results: Vec<ScheduleResult> =
        parallel_map(config.schedules as usize, config.threads, |k| {
            let schedule = sample_schedule(
                mix64(config.seed, k as u64),
                graph.len(),
                config.deadline,
                config.max_faults,
            );
            evaluate_schedule(graph, config, k as u64, schedule)
        });

    let violations = results.iter().filter(|r| r.is_violation()).count() as u64;
    let failures = results.iter().filter(|r| r.failed.is_some()).count() as u64;
    let worst = if violations > 0 {
        // Most-severe violator; ties break to the earliest index.
        results
            .iter()
            .filter(|r| r.is_violation())
            .max_by_key(|r| (r.verdicts.failed(), std::cmp::Reverse(r.index)))
            .cloned()
    } else {
        // No violations: the schedule doing the most liveness damage.
        results
            .iter()
            .filter(|r| r.rejected.is_none() && r.failed.is_none())
            .min_by(|a, b| {
                a.ta.partial_cmp(&b.ta)
                    .expect("exact probabilities are finite")
                    .then(a.index.cmp(&b.index))
            })
            .cloned()
    };

    let (shrunk, shrunk_verdicts, shrunk_diff) = match &worst {
        Some(w) if !w.schedule.faults.is_empty() => {
            let (s, v, d) = shrink_worst(graph, config, w);
            (Some(s), Some(v), d)
        }
        Some(w) => (Some(w.schedule.clone()), Some(w.verdicts), Vec::new()),
        None => (None, None, Vec::new()),
    };
    drop(campaign_span);
    campaign_obs.flush();

    ChaosReport {
        m: graph.len(),
        config: *config,
        schedules_tried: config.schedules,
        violations,
        failures,
        summaries: results
            .iter()
            .map(|r| ScheduleSummary {
                index: r.index,
                faults: r.schedule.faults.len(),
                ta: r.ta,
                pa: r.pa,
                ok: r.rejected.is_none() && r.failed.is_none() && r.verdicts.all_ok(),
            })
            .collect(),
        worst,
        shrunk,
        shrunk_verdicts,
        shrunk_diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_schedules_are_valid_and_deterministic() {
        for k in 0..40 {
            let s = sample_schedule(mix64(5, k), 3, 16, 4);
            s.validate().unwrap_or_else(|e| panic!("schedule {k}: {e}"));
            assert_eq!(s, sample_schedule(mix64(5, k), 3, 16, 4));
            assert!(s.faults.len() <= 4);
        }
    }

    #[test]
    fn evaluate_passes_on_the_empty_schedule() {
        let g = Graph::complete(3).unwrap();
        let config = CampaignConfig::new(1, 1, 16, 4);
        let r = evaluate_schedule(&g, &config, 0, FaultSchedule::reliable(1));
        assert!(r.rejected.is_none());
        assert!(r.verdicts.all_ok(), "{:?}", r.verdicts);
        // Generous deadline, reliable delivery: certain total attack.
        assert_eq!(r.ta, 1.0);
        assert_eq!(r.pa, 0.0);
    }

    #[test]
    fn evaluate_rejects_invalid_schedules_without_panicking() {
        let g = Graph::complete(3).unwrap();
        let config = CampaignConfig::new(1, 1, 16, 4);
        let bad = FaultSchedule {
            seed: 0,
            base_latency: 0,
            faults: Vec::new(),
        };
        let r = evaluate_schedule(&g, &config, 0, bad);
        assert!(r.rejected.is_some());
        assert!(!r.is_violation(), "rejection is graceful, not a violation");
    }

    #[test]
    fn campaign_is_deterministic_and_thread_count_independent() {
        let g = Graph::complete(3).unwrap();
        let mut config = CampaignConfig::new(6, 42, 12, 4);
        config.mc_trials = 40;
        let a = run_campaign(&g, &config);
        let b = run_campaign(&g, &config);
        assert_eq!(a, b);
        let serial = CampaignConfig {
            threads: 1,
            ..config
        };
        let c = run_campaign(&g, &serial);
        assert_eq!(a.summaries, c.summaries);
        assert_eq!(a.worst, c.worst);
        assert_eq!(a.shrunk, c.shrunk);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn campaign_finds_no_violations_and_shrinks_the_worst() {
        // The theorems hold, so a healthy engine yields zero violations;
        // the report then carries a liveness-damage counterexample.
        let g = Graph::complete(3).unwrap();
        let mut config = CampaignConfig::new(10, 7, 12, 4);
        config.mc_trials = 30;
        let report = run_campaign(&g, &config);
        assert_eq!(report.violations, 0, "{}", report.to_json_pretty());
        assert_eq!(report.failures, 0);
        assert_eq!(report.schedules_tried, 10);
        assert_eq!(report.summaries.len(), 10);
        let worst = report.worst.as_ref().expect("worst schedule exists");
        let shrunk = report.shrunk.as_ref().expect("shrunk schedule exists");
        assert!(shrunk.faults.len() <= worst.schedule.faults.len());
        // The shrunk schedule reproduces the worst liveness damage.
        let r = evaluate_schedule(&g, &config, worst.index, shrunk.clone());
        assert!(r.ta <= worst.ta);
        // And its replay verdicts are recorded.
        assert!(report.shrunk_verdicts.is_some());
    }

    #[test]
    fn poisoned_schedule_becomes_a_typed_failure() {
        // An evaluation that panics inside the engine or the courier must
        // become a typed `failed` entry instead of unwinding through the
        // campaign. No valid schedule is known to panic, so the panic is
        // injected behind the real boundary.
        let poisoned = FaultSchedule {
            seed: 3,
            base_latency: 1,
            faults: vec![FaultPrimitive::DelayJitter {
                extra_max: u64::MAX,
                window: TimeWindow::always(),
            }],
        };
        let evaluate = || {
            evaluate_guarded(0, poisoned.clone(), |_, _| -> ScheduleResult {
                panic!("poisoned evaluation")
            })
        };
        let r = evaluate();
        assert_eq!(r.failed.as_deref(), Some("poisoned evaluation"), "{r:?}");
        assert!(r.rejected.is_none());
        assert!(!r.is_violation(), "a failure is not an oracle violation");
        assert_eq!(r.schedule, poisoned, "the poisoned schedule is preserved");
        // Evaluation of failures is deterministic: same schedule, same
        // typed failure.
        assert_eq!(r, evaluate());
        // The schedule itself, whose jitter bound once overflowed the
        // modulus, now evaluates cleanly.
        let g = Graph::complete(3).unwrap();
        let mut config = CampaignConfig::new(1, 1, 12, 4);
        config.mc_trials = 0;
        let real = evaluate_schedule(&g, &config, 0, poisoned);
        assert_eq!(real.failed, None, "{real:?}");
    }

    #[test]
    fn sliced_cross_check_matches_the_scalar_oracle_byte_for_byte() {
        // The surrogate instance the campaign routes the MC oracle through
        // must stay pinned to the scalar engine, per `simulate`'s contract.
        for mincount in [1u32, 3, 8, 20] {
            let (g, run) = mc_surrogate(mincount, 8);
            let sampler = FixedRun::new(run);
            let proto = ProtocolS::new(1.0 / 8.0);
            let cfg = SimConfig {
                trials: 200,
                seed: 99,
                threads: 1,
            };
            let sliced = simulate_sliced(&proto, &g, &sampler, cfg)
                .expect("sliced engine must accept the surrogate");
            assert_eq!(sliced, ca_sim::simulate_scalar(&proto, &g, &sampler, cfg));
        }
        // The campaign-facing wrapper agrees with the exact TA on an
        // eligible schedule (value-blind formula holds by construction).
        let config = CampaignConfig::new(1, 7, 12, 8);
        let ta = Rational::new(3, 8);
        assert_eq!(
            mc_cross_check_sliced(&config, 0, 3, &ta),
            Some(true),
            "a healthy Bernoulli sample must be consistent with its own parameter"
        );
        // An exact TA that disagrees with the mincount formula (the very
        // divergence the oracle hunts) forces the scalar fallback.
        assert_eq!(
            mc_cross_check_sliced(&config, 0, 3, &Rational::new(1, 2)),
            None
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let g = Graph::complete(2).unwrap();
        let mut config = CampaignConfig::new(3, 9, 10, 4);
        config.mc_trials = 0;
        let report = run_campaign(&g, &config);
        let text = report.to_json();
        let back: ChaosReport = json::from_str(&text).expect("report parses");
        assert_eq!(report, back);
        assert_eq!(text, back.to_json(), "serialization is deterministic");
    }
}
