//! Observability for the coordinated-attack engine: spans, counters, and
//! log2-bucketed histograms.
//!
//! The engine crates (`ca-core`, `ca-sim`, `ca-async`, `ca-analysis`) are
//! instrumented against this crate's [`Metrics`] handle. The design rules,
//! in order of importance:
//!
//! 1. **The disabled path compiles to nothing.** Without the `enabled`
//!    cargo feature (each engine crate forwards it as its own `obs`
//!    feature), `Metrics` is a zero-sized type and every instrumentation
//!    call is an empty `#[inline(always)]` function — no clocks, no
//!    atomics, no branches survive optimization.
//! 2. **No locks, no `dyn` on the fast path.** A `Metrics` value is a
//!    per-worker struct of `Cell`s, mirroring the one-RNG-per-worker scheme
//!    of the Monte Carlo engine: each worker owns one and merges it into
//!    its caller's [`capture`] exactly once, at join ([`Metrics::flush`]).
//!    The only lock in the crate guards that merge.
//! 3. **No process-global state.** A caller owns its sink: [`capture`]
//!    runs a closure and returns the [`Snapshot`] of every handle built
//!    inside it, and a fan-out carries the capture into its workers with
//!    [`Capture`]. Concurrent captures never see each other's metrics.
//! 4. **Static registry.** Every metric is a compile-time enum variant
//!    ([`CounterId`], [`HistId`], [`SpanId`]) so recording is an array
//!    index and reports have a fixed, byte-stable order.
//!
//! # Stability contract
//!
//! Reports built from a [`Snapshot`] distinguish two kinds of values:
//!
//! * **stable** — counters, histogram contents of value histograms, and
//!   span/histogram *counts*: deterministic functions of the workload's
//!   `(scale, seed)`, identical whatever the thread count, because every
//!   recorded event is a per-trial (or per-schedule) fact and merging is
//!   commutative. `ca profile` pins these byte-for-byte.
//! * **timing** — span `total_ns` and the contents of time histograms
//!   ([`HistId::is_time_ns`]): machine- and run-dependent, suppressed
//!   unless explicitly requested (`ca profile --timed`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

/// Whether the instrumentation layer was compiled in.
///
/// `false` means every [`Metrics`] operation is a no-op and snapshots are
/// permanently zero; front ends use this to refuse to emit empty profiles.
pub const ENABLED: bool = cfg!(feature = "enabled");

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

/// Monotonic counters. All counters are **stable**: exact across thread
/// counts for a fixed workload seed (see the crate docs).
///
/// Units are events unless the name says otherwise (`bits`, `slots`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum CounterId {
    /// Protocol state transitions executed (`δ_i` applications), one per
    /// process per round per execution.
    ExecTransitions,
    /// Messages delivered into inboxes by the execution engine.
    ExecMessagesDelivered,
    /// Messages destroyed by the adversary: potential slots
    /// (directed edges × rounds) minus delivered, summed per execution.
    ExecMessagesDestroyed,
    /// Random-tape bits consumed across all processes of an execution.
    ExecTapeBitsConsumed,
    /// Runs the adversary sampled (`RunSampler::sample_into` calls observed by
    /// the Monte Carlo engine).
    RunSamples,
    /// Delivery slots flipped (messages destroyed) by adversary samplers
    /// while producing a run.
    RunSlotsFlipped,
    /// Monte Carlo trials completed.
    SimTrials,
    /// Trials that took the fixed-run fast path (no sampling, hoisted
    /// `ML(R)`).
    SimFixedRunTrials,
    /// In-place tape refills (`TapeSet::fill_random`), one per trial.
    SimTapeRefills,
    /// 64-trial lane groups executed by the bit-sliced Monte Carlo path
    /// (`simulate_sliced`), one per `SlicedEngine::run_group` pass.
    SimSlicedGroups,
    /// Chaos schedules evaluated against the oracle suite (campaign
    /// sampling plus every shrink re-evaluation).
    ChaosSchedules,
    /// Chaos schedules the engine rejected with a typed error instead of
    /// running (graceful degradation, not violations).
    ChaosSchedulesRejected,
    /// `DropLink` fault primitives injected.
    ChaosFaultsDropLink,
    /// `DropProb` fault primitives injected.
    ChaosFaultsDropProb,
    /// `DelayJitter` fault primitives injected.
    ChaosFaultsDelayJitter,
    /// `Duplicate` fault primitives injected.
    ChaosFaultsDuplicate,
    /// `Reorder` fault primitives injected.
    ChaosFaultsReorder,
    /// `BurstLoss` fault primitives injected.
    ChaosFaultsBurstLoss,
    /// `CrashWindow` fault primitives injected.
    ChaosFaultsCrashWindow,
    /// `Partition` fault primitives injected.
    ChaosFaultsPartition,
    /// `ReplayRun` fault primitives injected.
    ChaosFaultsReplayRun,
    /// Individual oracle failures across evaluated schedules (0 while the
    /// paper's theorems hold).
    ChaosOracleFailures,
    /// Candidate fault lists evaluated by `ddmin` while shrinking the worst
    /// schedule.
    ChaosShrinkEvals,
    /// Chaos schedules whose evaluation panicked and was converted into a
    /// typed `failed` entry by the campaign's panic boundary.
    ChaosSchedulesFailed,
    /// Hunt candidates evaluated (every generation, every rung).
    HuntCandidates,
    /// Hunt candidates whose induced run was a vacuous adversary
    /// (`ML(R) = 0`): ranked last, never elite.
    HuntCandidatesInfeasible,
    /// Hunt candidates whose evaluation panicked and became a typed
    /// `Failed` entry.
    HuntCandidatesFailed,
    /// Monte Carlo trials spent across all hunt candidates (the bandit
    /// allocator's actual spend).
    HuntMcTrials,
    /// Service instances that arrived at a shard (admitted or shed).
    ServeInstances,
    /// Instances shed by per-shard back-pressure (admission queue over its
    /// bound) — never executed, always counted.
    ServeShed,
    /// Admitted instances whose sojourn (queue wait + service) exceeded the
    /// per-instance deadline budget.
    ServeTimedOut,
    /// Admitted instances whose gossip never completed within the retry
    /// allowance (degraded verdict: some process never heard `rfire`).
    ServeUndecided,
    /// Instances that ended in a typed engine error, plus instances drained
    /// from a shard the supervisor gave up on.
    ServeFailed,
    /// Extra execution attempts beyond each instance's first.
    ServeRetries,
    /// Shard restarts performed by the supervisor after a panic.
    ServeShardRestarts,
    /// Level-DP frontier entries the exact sweep expanded: structural
    /// classes holding at least one reachable base, summed over rounds.
    ExactDpStates,
    /// Level-DP transition-kernel cache hits (a structural class whose
    /// successors were already memoized).
    ExactDpKernelHits,
    /// Level-DP transition-kernel cache misses: kernels built by stepping
    /// the real counting automaton once per subset of each receiver's
    /// in-edges.
    ExactDpKernelMisses,
    /// Level-DP clip-equivalence collapses: kernel-edge applications whose
    /// shifted base set passed the probability-saturation cap and folded
    /// onto it.
    ExactDpCollapses,
}

impl CounterId {
    /// Number of counters in the registry.
    pub const COUNT: usize = 39;

    /// Every counter, in canonical registry (report) order.
    pub const ALL: [CounterId; Self::COUNT] = [
        CounterId::ExecTransitions,
        CounterId::ExecMessagesDelivered,
        CounterId::ExecMessagesDestroyed,
        CounterId::ExecTapeBitsConsumed,
        CounterId::RunSamples,
        CounterId::RunSlotsFlipped,
        CounterId::SimTrials,
        CounterId::SimFixedRunTrials,
        CounterId::SimTapeRefills,
        CounterId::SimSlicedGroups,
        CounterId::ChaosSchedules,
        CounterId::ChaosSchedulesRejected,
        CounterId::ChaosFaultsDropLink,
        CounterId::ChaosFaultsDropProb,
        CounterId::ChaosFaultsDelayJitter,
        CounterId::ChaosFaultsDuplicate,
        CounterId::ChaosFaultsReorder,
        CounterId::ChaosFaultsBurstLoss,
        CounterId::ChaosFaultsCrashWindow,
        CounterId::ChaosFaultsPartition,
        CounterId::ChaosFaultsReplayRun,
        CounterId::ChaosOracleFailures,
        CounterId::ChaosShrinkEvals,
        CounterId::ChaosSchedulesFailed,
        CounterId::HuntCandidates,
        CounterId::HuntCandidatesInfeasible,
        CounterId::HuntCandidatesFailed,
        CounterId::HuntMcTrials,
        CounterId::ServeInstances,
        CounterId::ServeShed,
        CounterId::ServeTimedOut,
        CounterId::ServeUndecided,
        CounterId::ServeFailed,
        CounterId::ServeRetries,
        CounterId::ServeShardRestarts,
        CounterId::ExactDpStates,
        CounterId::ExactDpKernelHits,
        CounterId::ExactDpKernelMisses,
        CounterId::ExactDpCollapses,
    ];

    /// The counter's stable report name (`layer.metric`).
    pub fn name(self) -> &'static str {
        match self {
            CounterId::ExecTransitions => "exec.transitions",
            CounterId::ExecMessagesDelivered => "exec.messages_delivered",
            CounterId::ExecMessagesDestroyed => "exec.messages_destroyed",
            CounterId::ExecTapeBitsConsumed => "exec.tape_bits_consumed",
            CounterId::RunSamples => "run.samples",
            CounterId::RunSlotsFlipped => "run.slots_flipped",
            CounterId::SimTrials => "sim.trials",
            CounterId::SimFixedRunTrials => "sim.fixed_run_trials",
            CounterId::SimTapeRefills => "sim.tape_refills",
            CounterId::SimSlicedGroups => "sim.sliced_groups",
            CounterId::ChaosSchedules => "chaos.schedules",
            CounterId::ChaosSchedulesRejected => "chaos.schedules_rejected",
            CounterId::ChaosFaultsDropLink => "chaos.faults.drop_link",
            CounterId::ChaosFaultsDropProb => "chaos.faults.drop_prob",
            CounterId::ChaosFaultsDelayJitter => "chaos.faults.delay_jitter",
            CounterId::ChaosFaultsDuplicate => "chaos.faults.duplicate",
            CounterId::ChaosFaultsReorder => "chaos.faults.reorder",
            CounterId::ChaosFaultsBurstLoss => "chaos.faults.burst_loss",
            CounterId::ChaosFaultsCrashWindow => "chaos.faults.crash_window",
            CounterId::ChaosFaultsPartition => "chaos.faults.partition",
            CounterId::ChaosFaultsReplayRun => "chaos.faults.replay_run",
            CounterId::ChaosOracleFailures => "chaos.oracle_failures",
            CounterId::ChaosShrinkEvals => "chaos.shrink_evals",
            CounterId::ChaosSchedulesFailed => "chaos.schedules_failed",
            CounterId::HuntCandidates => "hunt.candidates",
            CounterId::HuntCandidatesInfeasible => "hunt.candidates_infeasible",
            CounterId::HuntCandidatesFailed => "hunt.candidates_failed",
            CounterId::HuntMcTrials => "hunt.mc_trials",
            CounterId::ServeInstances => "serve.instances",
            CounterId::ServeShed => "serve.shed",
            CounterId::ServeTimedOut => "serve.timed_out",
            CounterId::ServeUndecided => "serve.undecided",
            CounterId::ServeFailed => "serve.failed",
            CounterId::ServeRetries => "serve.retries",
            CounterId::ServeShardRestarts => "serve.shard_restarts",
            CounterId::ExactDpStates => "exact.dp.states",
            CounterId::ExactDpKernelHits => "exact.dp.kernel_hits",
            CounterId::ExactDpKernelMisses => "exact.dp.kernel_misses",
            CounterId::ExactDpCollapses => "exact.dp.collapses",
        }
    }
}

/// Log2-bucketed histograms. Value histograms are **stable**; time
/// histograms ([`HistId::is_time_ns`]) carry machine-dependent nanosecond
/// values and only their sample `count` is stable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum HistId {
    /// Wall time of one Monte Carlo trial, nanoseconds.
    SimTrialNs,
    /// Modified level `ML(R)` of the run each trial executed.
    SimTrialMl,
    /// Messages delivered per execution.
    ExecDeliveredPerTrial,
    /// Wall time of one schedule's oracle checks, nanoseconds.
    ChaosOracleNs,
    /// Fault primitives per evaluated chaos schedule.
    ChaosFaultsPerSchedule,
    /// Decision latency (virtual ticks to quiesce) of on-time decided
    /// service instances.
    ServeDecisionTicks,
    /// Virtual ticks an admitted service instance waited in its shard's
    /// queue before execution started.
    ServeQueueWaitTicks,
    /// Monte Carlo trials allocated to one hunt candidate across all of a
    /// generation's rungs (the successive-halving allocation profile).
    HuntTrialsPerCandidate,
}

impl HistId {
    /// Number of histograms in the registry.
    pub const COUNT: usize = 8;

    /// Every histogram, in canonical registry order.
    pub const ALL: [HistId; Self::COUNT] = [
        HistId::SimTrialNs,
        HistId::SimTrialMl,
        HistId::ExecDeliveredPerTrial,
        HistId::ChaosOracleNs,
        HistId::ChaosFaultsPerSchedule,
        HistId::ServeDecisionTicks,
        HistId::ServeQueueWaitTicks,
        HistId::HuntTrialsPerCandidate,
    ];

    /// The histogram's stable report name.
    pub fn name(self) -> &'static str {
        match self {
            HistId::SimTrialNs => "sim.trial_ns",
            HistId::SimTrialMl => "sim.trial_ml",
            HistId::ExecDeliveredPerTrial => "exec.delivered_per_trial",
            HistId::ChaosOracleNs => "chaos.oracle_check_ns",
            HistId::ChaosFaultsPerSchedule => "chaos.faults_per_schedule",
            HistId::ServeDecisionTicks => "serve.decision_ticks",
            HistId::ServeQueueWaitTicks => "serve.queue_wait_ticks",
            HistId::HuntTrialsPerCandidate => "hunt.trials_per_candidate",
        }
    }

    /// Whether the recorded values are wall-clock nanoseconds (suppressed
    /// in stable reports; only the sample count is deterministic).
    pub fn is_time_ns(self) -> bool {
        matches!(self, HistId::SimTrialNs | HistId::ChaosOracleNs)
    }
}

/// Span timers. Spans nest at fixed positions ([`SpanId::parent`]) so the
/// merged tree is byte-stable; a span's `count` is stable, its `total_ns`
/// is timing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum SpanId {
    /// One experiment run (`Experiment::run_observed`).
    ExptExperiment,
    /// One `simulate` call (all trials, all workers).
    SimSimulate,
    /// One Monte Carlo trial.
    SimTrial,
    /// Sampling the adversary's run within a trial.
    RunSample,
    /// Protocol execution (`execute_outputs_observed`) within a trial.
    ExecExecute,
    /// Outcome classification + `ML(R)` bookkeeping within a trial.
    SimVerdict,
    /// One chaos campaign (`run_campaign`).
    ChaosCampaign,
    /// One schedule evaluation against the oracle suite.
    ChaosEvaluate,
    /// The exact/structural oracle block of a schedule evaluation.
    ChaosOracles,
    /// The Monte Carlo cross-check of a schedule evaluation.
    ChaosMcCrossCheck,
    /// Delta-debug shrinking of the worst schedule.
    ChaosShrink,
    /// One service run (`run_serve`): load generation to aggregate roll-up.
    ServeRun,
    /// One shard execution attempt within a service run.
    ServeShard,
    /// One instance execution attempt within a shard.
    ServeInstance,
    /// One adversary hunt (`run_hunt`): every generation, plus the final
    /// shrink and the online-adversary probe.
    HuntRun,
    /// One hunt generation: sampling, all evaluation rungs, elite refit.
    HuntGeneration,
    /// One candidate evaluation rung (induced run, oracles, Monte Carlo).
    HuntEvaluate,
    /// Delta-debug shrinking of the hunt's best schedule.
    HuntShrink,
    /// One exact level-DP worst-case sweep (`level_dp::worst_case`): every
    /// round's frontier advance over all delivery patterns and input sets.
    ExactDpSweep,
    /// Transition-kernel builds within a sweep (cache misses only).
    ExactDpKernel,
    /// Frontier extremes evaluation (curve checkpoints + final report).
    ExactDpExtremes,
}

impl SpanId {
    /// Number of spans in the registry.
    pub const COUNT: usize = 21;

    /// Every span, in canonical registry order (parents before children).
    pub const ALL: [SpanId; Self::COUNT] = [
        SpanId::ExptExperiment,
        SpanId::SimSimulate,
        SpanId::SimTrial,
        SpanId::RunSample,
        SpanId::ExecExecute,
        SpanId::SimVerdict,
        SpanId::ChaosCampaign,
        SpanId::ChaosEvaluate,
        SpanId::ChaosOracles,
        SpanId::ChaosMcCrossCheck,
        SpanId::ChaosShrink,
        SpanId::ServeRun,
        SpanId::ServeShard,
        SpanId::ServeInstance,
        SpanId::HuntRun,
        SpanId::HuntGeneration,
        SpanId::HuntEvaluate,
        SpanId::HuntShrink,
        SpanId::ExactDpSweep,
        SpanId::ExactDpKernel,
        SpanId::ExactDpExtremes,
    ];

    /// The span's stable report name.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::ExptExperiment => "expt.experiment",
            SpanId::SimSimulate => "sim.simulate",
            SpanId::SimTrial => "sim.trial",
            SpanId::RunSample => "run.sample",
            SpanId::ExecExecute => "exec.execute",
            SpanId::SimVerdict => "sim.verdict",
            SpanId::ChaosCampaign => "chaos.campaign",
            SpanId::ChaosEvaluate => "chaos.evaluate",
            SpanId::ChaosOracles => "chaos.oracles",
            SpanId::ChaosMcCrossCheck => "chaos.mc_cross_check",
            SpanId::ChaosShrink => "chaos.shrink",
            SpanId::ServeRun => "serve.run",
            SpanId::ServeShard => "serve.shard",
            SpanId::ServeInstance => "serve.instance",
            SpanId::HuntRun => "hunt.run",
            SpanId::HuntGeneration => "hunt.generation",
            SpanId::HuntEvaluate => "hunt.evaluate",
            SpanId::HuntShrink => "hunt.shrink",
            SpanId::ExactDpSweep => "exact.dp.sweep",
            SpanId::ExactDpKernel => "exact.dp.kernel",
            SpanId::ExactDpExtremes => "exact.dp.extremes",
        }
    }

    /// The span's static parent in the rendered tree, if any.
    pub fn parent(self) -> Option<SpanId> {
        match self {
            SpanId::ExptExperiment
            | SpanId::SimSimulate
            | SpanId::ChaosCampaign
            | SpanId::ServeRun
            | SpanId::HuntRun
            | SpanId::ExactDpSweep => None,
            SpanId::SimTrial => Some(SpanId::SimSimulate),
            SpanId::RunSample | SpanId::ExecExecute | SpanId::SimVerdict => Some(SpanId::SimTrial),
            SpanId::ChaosEvaluate | SpanId::ChaosShrink => Some(SpanId::ChaosCampaign),
            SpanId::ChaosOracles | SpanId::ChaosMcCrossCheck => Some(SpanId::ChaosEvaluate),
            SpanId::ServeShard => Some(SpanId::ServeRun),
            SpanId::ServeInstance => Some(SpanId::ServeShard),
            SpanId::HuntGeneration | SpanId::HuntShrink => Some(SpanId::HuntRun),
            SpanId::HuntEvaluate => Some(SpanId::HuntGeneration),
            SpanId::ExactDpKernel | SpanId::ExactDpExtremes => Some(SpanId::ExactDpSweep),
        }
    }

    /// A histogram fed with this span's per-entry durations, if any.
    pub fn linked_hist(self) -> Option<HistId> {
        match self {
            SpanId::SimTrial => Some(HistId::SimTrialNs),
            SpanId::ChaosOracles => Some(HistId::ChaosOracleNs),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot (always compiled)
// ---------------------------------------------------------------------------

/// Number of log2 buckets: bucket `b` holds values with bit length `b`
/// (bucket 0 is the exact value 0, bucket 64 covers `≥ 2^63`).
pub const BUCKETS: usize = 65;

/// The log2 bucket index of a value: its bit length.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Aggregated data of one histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistData {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Minimum recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Maximum recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
}

impl HistData {
    const ZERO: HistData = HistData {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
        buckets: [0; BUCKETS],
    };

    fn merge(&mut self, other: &HistData) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// Aggregated data of one span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanData {
    /// Number of completed span entries (stable).
    pub count: u64,
    /// Total wall time inside the span, nanoseconds (timing).
    pub total_ns: u64,
}

impl SpanData {
    const ZERO: SpanData = SpanData {
        count: 0,
        total_ns: 0,
    };
}

/// A merged, read-only view of everything recorded: what per-worker
/// [`Metrics`] flush into and reports are built from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    counters: [u64; CounterId::COUNT],
    hists: [HistData; HistId::COUNT],
    spans: [SpanData; SpanId::COUNT],
}

impl Snapshot {
    /// The all-zero snapshot.
    pub const ZERO: Snapshot = Snapshot {
        counters: [0; CounterId::COUNT],
        hists: [HistData::ZERO; HistId::COUNT],
        spans: [SpanData::ZERO; SpanId::COUNT],
    };

    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::ZERO
    }

    /// The value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// The aggregated data of a histogram.
    pub fn hist(&self, id: HistId) -> &HistData {
        &self.hists[id as usize]
    }

    /// The aggregated data of a span.
    pub fn span(&self, id: SpanId) -> &SpanData {
        &self.spans[id as usize]
    }

    /// Merges another snapshot into this one (commutative, associative —
    /// worker merge order never shows in the result).
    pub fn merge(&mut self, other: &Snapshot) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.count += b.count;
            a.total_ns += b.total_ns;
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.hists.iter().all(|h| h.count == 0)
            && self.spans.iter().all(|s| s.count == 0)
    }
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::new()
    }
}

// ---------------------------------------------------------------------------
// Captures (always compiled; never on the fast path)
// ---------------------------------------------------------------------------

type Sink = Arc<Mutex<Snapshot>>;

thread_local! {
    static CURRENT: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

/// Runs `f` with a fresh sink and returns what it recorded.
///
/// Every [`Metrics`] handle built while `f` runs, on this thread or on a
/// worker that carries this capture (see [`Capture`]), flushes into the
/// returned snapshot. A handle stays bound to the capture it was built in,
/// wherever and whenever it flushes; a handle built outside any capture
/// discards its flushes.
///
/// Captures nest: a capture opened inside another keeps what is recorded
/// inside it, and the enclosing capture does not see those metrics.
///
/// With the `enabled` feature off nothing records, and the snapshot is
/// empty.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let sink = Sink::default();
    let value = Capture(Some(Arc::clone(&sink))).install(f);
    let snapshot = sink.lock().expect("observability sink poisoned").clone();
    (value, snapshot)
}

/// The capture a thread records into, as a value a fan-out hands to its
/// workers: read it once with [`Capture::current`] on the calling thread,
/// then [`Capture::install`] it on each worker.
#[derive(Debug)]
pub struct Capture(Option<Sink>);

impl Capture {
    /// The calling thread's capture (none outside any [`capture`]).
    pub fn current() -> Capture {
        Capture(CURRENT.with(|c| c.borrow().clone()))
    }

    /// Runs `f` with this capture as the calling thread's, then restores
    /// the thread's previous capture, also when `f` panics.
    pub fn install<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<Sink>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(self.0.clone())));
        f()
    }
}

// ---------------------------------------------------------------------------
// Metrics handle — enabled implementation
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod handle {
    use super::*;
    use std::cell::Cell;
    use std::time::Instant;

    struct HistCells {
        count: Cell<u64>,
        sum: Cell<u64>,
        min: Cell<u64>,
        max: Cell<u64>,
        buckets: [Cell<u64>; BUCKETS],
    }

    struct SpanCells {
        count: Cell<u64>,
        total_ns: Cell<u64>,
    }

    /// A per-worker metrics sink: plain `Cell`s, `&self` everywhere, no
    /// locks. Create one per worker, record freely, [`Metrics::flush`] at
    /// join.
    pub struct Metrics {
        counters: [Cell<u64>; CounterId::COUNT],
        hists: [HistCells; HistId::COUNT],
        spans: [SpanCells; SpanId::COUNT],
        sink: Option<Sink>,
    }

    impl std::fmt::Debug for Metrics {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Metrics").field("enabled", &true).finish()
        }
    }

    impl Metrics {
        /// A fresh all-zero sink, bound to the calling thread's
        /// [`capture`] (if any).
        pub fn new() -> Self {
            Metrics {
                counters: std::array::from_fn(|_| Cell::new(0)),
                hists: std::array::from_fn(|_| HistCells {
                    count: Cell::new(0),
                    sum: Cell::new(0),
                    min: Cell::new(u64::MAX),
                    max: Cell::new(0),
                    buckets: std::array::from_fn(|_| Cell::new(0)),
                }),
                spans: std::array::from_fn(|_| SpanCells {
                    count: Cell::new(0),
                    total_ns: Cell::new(0),
                }),
                sink: Capture::current().0,
            }
        }

        /// Adds 1 to a counter.
        #[inline]
        pub fn inc(&self, id: CounterId) {
            self.add(id, 1);
        }

        /// Adds `v` to a counter.
        #[inline]
        pub fn add(&self, id: CounterId, v: u64) {
            let c = &self.counters[id as usize];
            c.set(c.get().wrapping_add(v));
        }

        /// Records one histogram sample.
        #[inline]
        pub fn record(&self, id: HistId, v: u64) {
            let h = &self.hists[id as usize];
            h.count.set(h.count.get() + 1);
            h.sum.set(h.sum.get().wrapping_add(v));
            h.min.set(h.min.get().min(v));
            h.max.set(h.max.get().max(v));
            let b = &h.buckets[bucket_of(v)];
            b.set(b.get() + 1);
        }

        /// Opens a span; the guard records the elapsed time (and a sample
        /// in the span's linked histogram, if any) when dropped.
        #[inline]
        pub fn span(&self, id: SpanId) -> SpanGuard<'_> {
            SpanGuard {
                metrics: self,
                id,
                start: Instant::now(),
            }
        }

        /// Merges this sink into the capture it was built in (or discards
        /// it, outside any capture) and zeroes it, so a worker can flush
        /// exactly once at join without double counting on reuse.
        pub fn flush(&self) {
            let mut delta = Snapshot::ZERO;
            for (a, b) in delta.counters.iter_mut().zip(&self.counters) {
                *a = b.replace(0);
            }
            for (a, b) in delta.hists.iter_mut().zip(&self.hists) {
                a.count = b.count.replace(0);
                a.sum = b.sum.replace(0);
                a.min = b.min.replace(u64::MAX);
                a.max = b.max.replace(0);
                for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
                    *x = y.replace(0);
                }
            }
            for (a, b) in delta.spans.iter_mut().zip(&self.spans) {
                a.count = b.count.replace(0);
                a.total_ns = b.total_ns.replace(0);
            }
            if let Some(sink) = &self.sink {
                sink.lock()
                    .expect("observability sink poisoned")
                    .merge(&delta);
            }
        }
    }

    impl Default for Metrics {
        fn default() -> Self {
            Metrics::new()
        }
    }

    /// Open-span guard: records on drop.
    pub struct SpanGuard<'a> {
        metrics: &'a Metrics,
        id: SpanId,
        start: Instant,
    }

    impl std::fmt::Debug for SpanGuard<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("SpanGuard").field("id", &self.id).finish()
        }
    }

    impl Drop for SpanGuard<'_> {
        fn drop(&mut self) {
            let ns = self.start.elapsed().as_nanos() as u64;
            let s = &self.metrics.spans[self.id as usize];
            s.count.set(s.count.get() + 1);
            s.total_ns.set(s.total_ns.get() + ns);
            if let Some(hist) = self.id.linked_hist() {
                self.metrics.record(hist, ns);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics handle — disabled implementation (all no-ops)
// ---------------------------------------------------------------------------

#[cfg(not(feature = "enabled"))]
mod handle {
    use super::*;

    /// Disabled metrics sink: zero-sized, every method an empty inline.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Metrics;

    impl Metrics {
        /// A fresh (zero-sized) sink.
        #[inline(always)]
        pub fn new() -> Self {
            Metrics
        }

        /// No-op.
        #[inline(always)]
        pub fn inc(&self, _id: CounterId) {}

        /// No-op.
        #[inline(always)]
        pub fn add(&self, _id: CounterId, _v: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn record(&self, _id: HistId, _v: u64) {}

        /// No-op; the guard is zero-sized and records nothing.
        #[inline(always)]
        pub fn span(&self, _id: SpanId) -> SpanGuard<'_> {
            SpanGuard {
                _life: std::marker::PhantomData,
            }
        }

        /// No-op.
        #[inline(always)]
        pub fn flush(&self) {}
    }

    /// Disabled span guard: zero-sized, drops silently.
    #[derive(Debug)]
    pub struct SpanGuard<'a> {
        _life: std::marker::PhantomData<&'a ()>,
    }

    // An explicit (empty) Drop keeps callers' `drop(span)` scope ends
    // meaningful to the compiler and lints in both feature configurations.
    impl Drop for SpanGuard<'_> {
        #[inline(always)]
        fn drop(&mut self) {}
    }
}

pub use handle::{Metrics, SpanGuard};

// ---------------------------------------------------------------------------
// Human-readable rendering
// ---------------------------------------------------------------------------

/// Renders a snapshot as a human-readable report: nonzero counters,
/// histogram summaries, and the span tree. With `timed` false, durations
/// and time-histogram values are omitted (they are suppressed in stable
/// reports anyway).
pub fn render(snapshot: &Snapshot, timed: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "counters:");
    for id in CounterId::ALL {
        let v = snapshot.counter(id);
        if v != 0 {
            let _ = writeln!(out, "  {:<26} {v}", id.name());
        }
    }
    let _ = writeln!(out, "histograms:");
    for id in HistId::ALL {
        let h = snapshot.hist(id);
        if h.count == 0 {
            continue;
        }
        if id.is_time_ns() && !timed {
            let _ = writeln!(out, "  {:<26} count={}", id.name(), h.count);
        } else {
            let mean = h.sum as f64 / h.count as f64;
            let _ = writeln!(
                out,
                "  {:<26} count={} mean={mean:.1} min={} max={}",
                id.name(),
                h.count,
                if h.count == 0 { 0 } else { h.min },
                h.max,
            );
        }
    }
    let _ = writeln!(out, "spans:");
    for id in SpanId::ALL {
        if snapshot.span(id).count == 0 {
            continue;
        }
        let mut depth = 0;
        let mut p = id.parent();
        while let Some(parent) = p {
            depth += 1;
            p = parent.parent();
        }
        let s = snapshot.span(id);
        let label = format!("{}{}", "  ".repeat(depth), id.name());
        if timed {
            let _ = writeln!(
                out,
                "  {label:<26} count={:<9} total={:.3} ms",
                s.count,
                s.total_ns as f64 / 1e6
            );
        } else {
            let _ = writeln!(out, "  {label:<26} count={}", s.count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn registry_names_are_unique_and_ordered() {
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.extend(HistId::ALL.iter().map(|h| h.name()));
        names.extend(SpanId::ALL.iter().map(|s| s.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
        // Registry index matches enum discriminant (reports rely on it).
        for (k, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, k);
        }
        for (k, id) in HistId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, k);
        }
        for (k, id) in SpanId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, k);
        }
    }

    #[test]
    fn span_parents_precede_children_in_registry_order() {
        for id in SpanId::ALL {
            if let Some(parent) = id.parent() {
                assert!(
                    (parent as usize) < (id as usize),
                    "{} must come after its parent {}",
                    id.name(),
                    parent.name()
                );
            }
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn record_flush_and_merge_roundtrip() {
        let ((), snap) = capture(|| {
            let m = Metrics::new();
            m.inc(CounterId::SimTrials);
            m.add(CounterId::ExecTransitions, 41);
            m.inc(CounterId::ExecTransitions);
            m.record(HistId::SimTrialMl, 3);
            m.record(HistId::SimTrialMl, 5);
            {
                let _g = m.span(SpanId::SimTrial);
            }
            m.flush();
            // Flushing zeroes the local sink: a second flush adds nothing.
            m.flush();
        });
        assert_eq!(snap.counter(CounterId::SimTrials), 1);
        assert_eq!(snap.counter(CounterId::ExecTransitions), 42);
        let ml = snap.hist(HistId::SimTrialMl);
        assert_eq!((ml.count, ml.sum, ml.min, ml.max), (2, 8, 3, 5));
        assert_eq!(ml.buckets[bucket_of(3)], 1);
        assert_eq!(ml.buckets[bucket_of(5)], 1);
        let trial = snap.span(SpanId::SimTrial);
        assert_eq!(trial.count, 1);
        // The linked histogram got the span's duration sample.
        assert_eq!(snap.hist(HistId::SimTrialNs).count, 1);

        // Merge is additive.
        let mut doubled = snap.clone();
        doubled.merge(&snap);
        assert_eq!(doubled.counter(CounterId::ExecTransitions), 84);
        assert_eq!(doubled.hist(HistId::SimTrialMl).count, 4);
        assert_eq!(doubled.hist(HistId::SimTrialMl).min, 3);

        // A fresh capture starts empty.
        assert!(capture(|| ()).1.is_empty());
    }

    /// Records `n` trials on a fresh handle and flushes it.
    #[cfg(feature = "enabled")]
    fn record_trials(n: u64) {
        let m = Metrics::new();
        m.add(CounterId::SimTrials, n);
        m.flush();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn concurrent_captures_see_only_their_own_counters() {
        // Both captures are open while both threads record and flush: a
        // shared sink would hand each the other's trials.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = [3u64, 40]
            .into_iter()
            .map(|n| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    capture(|| {
                        barrier.wait();
                        record_trials(n);
                        barrier.wait();
                    })
                    .1
                })
            })
            .collect();
        for (thread, n) in threads.into_iter().zip([3u64, 40]) {
            let snap = thread.join().expect("capture thread");
            assert_eq!(snap.counter(CounterId::SimTrials), n);
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn handles_flush_into_the_capture_they_were_built_in() {
        // Built outside any capture: the flush is dropped, even inside one.
        let outside = Metrics::new();
        outside.inc(CounterId::SimTrials);
        assert!(capture(|| outside.flush()).1.is_empty());

        // A nested capture keeps its own metrics; the enclosing one does
        // not see them.
        let ((), outer) = capture(|| {
            record_trials(1);
            let ((), inner) = capture(|| record_trials(10));
            assert_eq!(inner.counter(CounterId::SimTrials), 10);
        });
        assert_eq!(outer.counter(CounterId::SimTrials), 1);

        // Flushed after its capture ended, a handle still goes to that
        // capture, not to the one open at the flush.
        let ((), outer) = capture(|| {
            let (late, _) = capture(Metrics::new);
            late.inc(CounterId::SimTrials);
            late.flush();
        });
        assert!(outer.is_empty());

        // Flushed on another thread, it still reaches its capture.
        let ((), snap) = capture(|| {
            let moved = Metrics::new();
            moved.inc(CounterId::SimTrials);
            std::thread::spawn(move || moved.flush())
                .join()
                .expect("flush thread");
        });
        assert_eq!(snap.counter(CounterId::SimTrials), 1);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_handle_is_zero_sized_and_inert() {
        assert_eq!(std::mem::size_of::<Metrics>(), 0);
        let ((), snap) = capture(|| {
            let m = Metrics::new();
            m.inc(CounterId::SimTrials);
            m.record(HistId::SimTrialMl, 3);
            {
                let _g = m.span(SpanId::SimTrial);
            }
            m.flush();
        });
        assert!(snap.is_empty());
        const { assert!(!ENABLED) };
    }

    #[test]
    fn render_shows_nonzero_entries() {
        let mut snap = Snapshot::new();
        snap.counters[CounterId::SimTrials as usize] = 7;
        snap.spans[SpanId::SimTrial as usize] = SpanData {
            count: 7,
            total_ns: 7_000_000,
        };
        let text = render(&snap, true);
        assert!(text.contains("sim.trials"), "{text}");
        assert!(text.contains("sim.trial "), "{text}");
        assert!(text.contains("7.000 ms"), "{text}");
        let stable = render(&snap, false);
        assert!(!stable.contains("total="), "{stable}");
    }
}
