//! `ca serve`: a sharded coordination service over the chaos layer.
//!
//! This module promotes the per-call harness into a long-running service
//! runtime: many concurrent [`AsyncS`] instances, sharded across worker
//! threads, driven by an open- or closed-loop load generator, each instance
//! executed against a shared courier specification (reliable or a
//! [`FaultSchedule`] injected mid-flight). The robustness machinery is the
//! point:
//!
//! * **Deadline budgets with retry.** Every instance gets a sojourn budget
//!   in virtual ticks. An execution whose gossip never completed (some
//!   process never heard `rfire` — the degraded verdict the engine's
//!   bounded-heartbeat exhaustion produces) is retried against a fresh coin
//!   stream while budget remains; exhaustion surfaces as a typed
//!   `TimedOut`/`Undecided` count, never a hang.
//! * **Back-pressure with explicit shedding.** Each shard models a
//!   single-server admission queue in virtual time; an arrival that finds
//!   the queue at its bound is *shed* — counted in the report, never
//!   silently dropped and never executed.
//! * **Supervision.** Shards run under [`supervise`]: a panicked shard is
//!   restarted, and a shard that keeps panicking is drained into an
//!   explicit poisoned entry whose instances are all accounted as failed.
//!
//! Determinism contract (same as `ca profile`): the report is a pure
//! function of the configuration — `(scale, seed)` — and byte-identical
//! across thread counts, because shards are the unit of parallel work, each
//! shard is a sequential function of `(config, shard index)`, and all
//! queueing happens in virtual time. Wall-clock fields (`wall_ms`,
//! `instances_per_sec`) stay zero unless timing is explicitly requested.

use crate::chaos::{ChaosCourier, FaultPrimitive, FaultSchedule, TimeWindow};
use crate::courier::{ReliableCourier, Time};
use crate::engine::{try_run_async, AsyncConfig, HeartbeatPolicy};
use crate::protocol::AsyncS;
use crate::supervisor::{supervise, Progress};
use ca_core::error::CaError;
use ca_core::graph::Graph;
use ca_core::ids::ProcessId;
use ca_core::outcome::OutcomeCounts;
use ca_core::tape::{BitTape, TapeSet};
use ca_obs::{bucket_of, CounterId, HistId, SpanId, BUCKETS};
use ca_sim::chaos::mix64;
use serde::json;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Stream tag for arrival-gap coins (decorrelates them from tape seeds).
const ARRIVAL_STREAM: u64 = 0x0A11_4C0D;
/// Stream tag for per-process tape words.
const TAPE_STREAM: u64 = 0x7A9E;

/// How instances arrive at their shard's admission queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arrival {
    /// Open loop: arrivals keep coming regardless of completions, with
    /// deterministic pseudo-random gaps uniform in `0..=2·mean_gap` ticks
    /// (so the mean inter-arrival gap is `mean_gap`). Overload is possible —
    /// this is the mode that exercises shedding.
    Open {
        /// Mean inter-arrival gap in virtual ticks.
        mean_gap: Time,
    },
    /// Closed loop: the next instance arrives exactly when the previous one
    /// leaves the shard, so the queue never builds and nothing is shed.
    Closed,
}

/// The courier every instance runs against.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CourierSpec {
    /// Reliable delivery at a fixed latency.
    Reliable {
        /// Delivery latency in ticks (≥ 1).
        latency: Time,
    },
    /// A fault schedule, re-seeded per instance attempt so retries see
    /// fresh fault coins while the fault *structure* stays fixed.
    Chaos {
        /// The injected schedule.
        schedule: FaultSchedule,
    },
}

/// Configuration of one service run.
///
/// Everything except `threads`, `timed`, `stall_warn_ms`, and the
/// `inject_panic_*` test hooks is part of the report's parameter echo and
/// of the determinism contract.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Processes per instance (the graph is `K_m`).
    pub m: usize,
    /// `t = 1/ε`: the agreement parameter's reciprocal.
    pub t: u64,
    /// Per-instance engine deadline `T` in ticks.
    pub deadline: Time,
    /// Retransmission policy of every instance (bounded policies are what
    /// keep a hostile schedule from hanging an instance).
    pub heartbeat: HeartbeatPolicy,
    /// Total instances offered to the service.
    pub instances: u64,
    /// Shards (instance `i` goes to shard `i mod shards`). Part of the
    /// workload shape: changing it changes per-shard queues.
    pub shards: usize,
    /// Admission-queue bound per shard, counting the instance in service.
    /// An arrival that finds the queue full is shed.
    pub queue_bound: usize,
    /// Per-instance sojourn budget in virtual ticks (queue wait + service
    /// across all attempts). Exceeding it is a timeout.
    pub budget: Time,
    /// Extra execution attempts allowed per instance after the first.
    pub retries: u32,
    /// The load-generation mode.
    pub arrival: Arrival,
    /// The courier specification shared by all instances.
    pub courier: CourierSpec,
    /// Master seed: arrivals, tapes, and per-attempt fault coins all derive
    /// from it.
    pub seed: u64,
    /// Worker threads (0 = available parallelism, honoring `CA_THREADS`).
    /// The report is independent of this.
    pub threads: usize,
    /// Record wall-clock throughput in the report (breaks byte-stability
    /// across machines; off for golden comparisons).
    pub timed: bool,
    /// Stall-watchdog window in wall-clock milliseconds (`None` disables).
    /// Advisory only: stalls are warned about on stderr, never reported.
    pub stall_warn_ms: Option<u64>,
    /// Test hook: make this shard panic at the start of an execution
    /// attempt, to exercise the supervisor's restart path.
    pub inject_panic_shard: Option<usize>,
    /// Test hook: how many leading shard attempts the injected panic kills
    /// (1 = first attempt panics, restart succeeds; 2 = shard is poisoned).
    pub inject_panic_attempts: u32,
}

impl ServeConfig {
    /// A small config with sane defaults: reliable courier, closed loop,
    /// generous budget. Callers override fields for their scenario.
    pub fn new(m: usize, t: u64, instances: u64, seed: u64) -> Self {
        ServeConfig {
            m,
            t,
            deadline: 30,
            heartbeat: HeartbeatPolicy::bounded(2, 6, 2),
            instances,
            shards: 4,
            queue_bound: 8,
            budget: 64,
            retries: 1,
            arrival: Arrival::Closed,
            courier: CourierSpec::Reliable { latency: 1 },
            seed,
            threads: 0,
            timed: false,
            stall_warn_ms: Some(5_000),
            inject_panic_shard: None,
            inject_panic_attempts: 0,
        }
    }

    /// The smoke-scale scenario `ca serve --smoke` runs: `K_3`, ε = 1/8,
    /// 480 instances over 8 shards, open-loop load faster than the service
    /// rate, and a fault schedule combining probabilistic loss, jitter, a
    /// crash window, and periodic burst outages — sized so the report shows
    /// every degradation mode (shed, timeout/undecided, retries) while most
    /// instances still decide.
    pub fn smoke(seed: u64) -> Self {
        let schedule = FaultSchedule {
            seed: 0x00C0_FFEE,
            base_latency: 1,
            faults: vec![
                FaultPrimitive::DropProb {
                    p: 0.3,
                    window: TimeWindow::always(),
                },
                FaultPrimitive::DelayJitter {
                    extra_max: 3,
                    window: TimeWindow::always(),
                },
                FaultPrimitive::CrashWindow {
                    process: ProcessId::new(1),
                    window: TimeWindow::between(4, 10),
                },
                FaultPrimitive::BurstLoss {
                    period: 16,
                    burst_len: 2,
                },
            ],
        };
        ServeConfig {
            deadline: 24,
            shards: 8,
            queue_bound: 3,
            budget: 72,
            arrival: Arrival::Open { mean_gap: 18 },
            courier: CourierSpec::Chaos { schedule },
            ..ServeConfig::new(3, 8, 480, seed)
        }
    }

    /// Typed validation of the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::MalformedConfig`] on any out-of-range parameter
    /// or invalid embedded fault schedule.
    pub fn validate(&self) -> Result<(), CaError> {
        if self.m < 2 {
            return Err(CaError::malformed("serve needs at least 2 processes"));
        }
        if self.t == 0 {
            return Err(CaError::malformed("t = 1/epsilon must be at least 1"));
        }
        if self.deadline == 0 {
            return Err(CaError::malformed("deadline must be at least 1 tick"));
        }
        if self.instances == 0 {
            return Err(CaError::malformed("at least one instance is required"));
        }
        if self.shards == 0 {
            return Err(CaError::malformed("at least one shard is required"));
        }
        if self.queue_bound == 0 {
            return Err(CaError::malformed("queue_bound must be at least 1"));
        }
        if self.budget == 0 {
            return Err(CaError::malformed("budget must be at least 1 tick"));
        }
        if self.heartbeat.period == 0 || self.heartbeat.backoff == 0 {
            return Err(CaError::malformed("invalid heartbeat policy"));
        }
        match &self.courier {
            CourierSpec::Reliable { latency } if *latency == 0 => {
                Err(CaError::malformed("latency must be at least 1 tick"))
            }
            CourierSpec::Reliable { .. } => Ok(()),
            CourierSpec::Chaos { schedule } => schedule.validate(),
        }
    }

    /// The report's parameter echo: the deterministic subset of the config.
    fn params(&self) -> ServeParams {
        ServeParams {
            m: self.m,
            t: self.t,
            deadline: self.deadline,
            heartbeat: self.heartbeat.clone(),
            instances: self.instances,
            shards: self.shards,
            queue_bound: self.queue_bound,
            budget: self.budget,
            retries: self.retries,
            arrival: self.arrival,
            courier: self.courier.clone(),
            seed: self.seed,
        }
    }

    /// Number of instances owned by one shard.
    fn shard_instances(&self, shard: usize) -> u64 {
        let shards = self.shards as u64;
        let shard = shard as u64;
        if shard >= self.instances % shards {
            self.instances / shards
        } else {
            self.instances / shards + 1
        }
    }
}

/// The deterministic parameters echoed into a [`ServeReport`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeParams {
    /// Processes per instance.
    pub m: usize,
    /// `t = 1/ε`.
    pub t: u64,
    /// Per-instance engine deadline.
    pub deadline: Time,
    /// Retransmission policy.
    pub heartbeat: HeartbeatPolicy,
    /// Total instances offered.
    pub instances: u64,
    /// Shard count.
    pub shards: usize,
    /// Per-shard admission-queue bound.
    pub queue_bound: usize,
    /// Per-instance sojourn budget.
    pub budget: Time,
    /// Retry allowance per instance.
    pub retries: u32,
    /// Load-generation mode.
    pub arrival: Arrival,
    /// Courier specification.
    pub courier: CourierSpec,
    /// Master seed.
    pub seed: u64,
}

/// One bucket of a sparse log2 histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Bucket {
    /// Bucket index: the bit length of the values it holds (0 = the exact
    /// value 0, 64 = `≥ 2^63`).
    pub log2: u32,
    /// Samples in the bucket.
    pub count: u64,
}

/// A sparse, serializable log2 histogram (same bucketing as `ca-obs`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Hist {
    /// Number of samples.
    pub count: u64,
    /// Sum of sampled values.
    pub sum: u64,
    /// Minimum sampled value (0 when empty).
    pub min: u64,
    /// Maximum sampled value (0 when empty).
    pub max: u64,
    /// Nonzero buckets, ascending by `log2`.
    pub buckets: Vec<Log2Bucket>,
}

impl Log2Hist {
    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Hist) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        // Merge via the dense form: both inputs are sparse over the same
        // fixed bucket space, so this is exact and keeps the output sorted.
        let mut dense = [0u64; BUCKETS];
        for bucket in self.buckets.iter().chain(&other.buckets) {
            dense[bucket.log2 as usize] += bucket.count;
        }
        self.buckets = dense
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(log2, &count)| Log2Bucket {
                log2: log2 as u32,
                count,
            })
            .collect();
    }

    /// An upper bound on the `pct`-th percentile (0–100): the largest value
    /// the containing log2 bucket can hold. 0 when empty.
    pub fn percentile_upper(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (pct * self.count).div_ceil(100).max(1);
        let mut seen = 0u64;
        for bucket in &self.buckets {
            seen += bucket.count;
            if seen >= rank {
                return match bucket.log2 {
                    0 => 0,
                    b if b >= 64 => u64::MAX,
                    b => (1u64 << b) - 1,
                };
            }
        }
        self.max
    }
}

/// Dense log2 accumulator used while a shard runs; serialized sparsely.
struct HistAcc {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl HistAcc {
    fn new() -> Self {
        HistAcc {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    fn sparse(&self) -> Log2Hist {
        Log2Hist {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(log2, &count)| Log2Bucket {
                    log2: log2 as u32,
                    count,
                })
                .collect(),
        }
    }
}

/// Per-shard aggregate of one service run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Instances that arrived at this shard (admitted or shed).
    pub instances: u64,
    /// Arrivals shed by back-pressure (never executed, always counted).
    pub shed: u64,
    /// Instances that decided within budget (`= verdicts` total).
    pub decided: u64,
    /// Instances whose sojourn exceeded the budget.
    pub timed_out: u64,
    /// Instances whose gossip never completed within the retry allowance.
    pub undecided: u64,
    /// Instances that ended in a typed engine error, or were drained from
    /// this shard after the supervisor gave up on it.
    pub failed: u64,
    /// Execution attempts beyond each instance's first.
    pub retries: u64,
    /// Total execution attempts.
    pub attempts: u64,
    /// Messages sent across all execution attempts.
    pub sent: u64,
    /// Messages delivered across all execution attempts.
    pub delivered: u64,
    /// Verdict tally of decided instances.
    pub verdicts: OutcomeCounts,
    /// Sojourn (queue wait + service) of decided instances, ticks.
    pub decision_ticks: Log2Hist,
    /// Queue wait of admitted instances, ticks.
    pub queue_wait_ticks: Log2Hist,
    /// Virtual time at which this shard went idle.
    pub makespan: u64,
    /// Supervisor restarts performed on this shard.
    pub restarts: u32,
    /// Whether the supervisor drained the shard after repeated panics
    /// (its instances are all counted in `failed`).
    pub poisoned: bool,
    /// Message of the last panic observed on this shard, if any.
    pub panic: Option<String>,
}

/// Run-level totals of a [`ServeReport`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeTotals {
    /// Instances offered across all shards.
    pub instances: u64,
    /// Instances shed by back-pressure.
    pub shed: u64,
    /// Instances decided within budget.
    pub decided: u64,
    /// Instances that exceeded their sojourn budget.
    pub timed_out: u64,
    /// Instances whose gossip never completed.
    pub undecided: u64,
    /// Instances that failed (typed errors plus drained shards).
    pub failed: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Total execution attempts.
    pub attempts: u64,
    /// Messages sent.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Verdict tally of decided instances (the PA/TA/NA split).
    pub verdicts: OutcomeCounts,
    /// Sojourn histogram of decided instances, ticks.
    pub decision_ticks: Log2Hist,
    /// Queue-wait histogram of admitted instances, ticks.
    pub queue_wait_ticks: Log2Hist,
    /// Upper bound on the 99th-percentile decision sojourn, ticks.
    pub p99_decision_ticks: u64,
    /// Virtual time at which the slowest shard went idle.
    pub virtual_makespan: u64,
    /// Decided instances per 1000 virtual ticks of makespan.
    pub decided_per_kticks: f64,
    /// Supervisor restarts across all shards.
    pub shard_restarts: u64,
    /// Shards drained after repeated panics.
    pub shards_poisoned: u64,
    /// Wall-clock duration, milliseconds (0 unless timing was requested).
    pub wall_ms: u64,
    /// Offered instances per wall-clock second (0 unless timing was
    /// requested).
    pub instances_per_sec: f64,
}

/// The byte-stable JSON report of one service run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Report schema version.
    pub schema: u32,
    /// The deterministic parameters the run used.
    pub params: ServeParams,
    /// Run-level totals.
    pub totals: ServeTotals,
    /// Per-shard aggregates, in shard index order.
    pub shards: Vec<ShardStats>,
}

impl ServeReport {
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
        json::from_str(text).map_err(|e| CaError::malformed(format!("bad serve report JSON: {e}")))
    }
}

/// How one admitted instance left the service.
enum Resolution {
    Decided(ca_core::outcome::Outcome),
    TimedOut,
    Undecided,
    Failed,
}

/// Runs one shard to completion: a pure, sequential function of
/// `(config, shard)` — this is what makes the roll-up thread-count
/// independent.
fn run_shard(
    graph: &Graph,
    config: &ServeConfig,
    shard: usize,
    attempt: u32,
    progress: &Progress,
) -> ShardStats {
    if config.inject_panic_shard == Some(shard) && attempt < config.inject_panic_attempts {
        panic!("injected fault: shard {shard} attempt {attempt}");
    }

    // One local observability sink per shard attempt, flushed only on
    // success: a panicked attempt's partial records die with its sink, so
    // restarts never double count.
    let obs = ca_obs::Metrics::new();
    let shard_span = obs.span(SpanId::ServeShard);

    let proto = AsyncS::new(1.0 / config.t as f64);
    let aconfig = AsyncConfig::all_inputs(graph, config.deadline)
        .with_heartbeat_policy(config.heartbeat.clone());

    let mut stats = ShardStats::default();
    let mut decision_hist = HistAcc::new();
    let mut wait_hist = HistAcc::new();
    // The single-server queue in virtual time: completion times of admitted
    // instances that may still be in the system.
    let mut ends: VecDeque<u64> = VecDeque::new();
    let mut clock: u64 = 0; // when the server frees
    let mut arrive: u64 = 0;

    let mut instance = shard as u64;
    while instance < config.instances {
        match config.arrival {
            Arrival::Open { mean_gap } => {
                let gap = mix64(mix64(config.seed, ARRIVAL_STREAM), instance) % (2 * mean_gap + 1);
                arrive = arrive.saturating_add(gap);
            }
            Arrival::Closed => arrive = clock,
        }
        stats.instances += 1;
        obs.inc(CounterId::ServeInstances);
        stats.makespan = stats.makespan.max(arrive);

        while ends.front().is_some_and(|&e| e <= arrive) {
            ends.pop_front();
        }
        if ends.len() >= config.queue_bound {
            // Back-pressure: the admission queue is full. Shed — counted,
            // never executed.
            stats.shed += 1;
            obs.inc(CounterId::ServeShed);
        } else {
            let start = arrive.max(clock);
            let wait = start - arrive;
            wait_hist.record(wait);
            obs.record(HistId::ServeQueueWaitTicks, wait);
            let mut spent = wait;
            let mut service: u64 = 0;

            let resolution = if spent >= config.budget {
                // The budget ran out while the instance sat in the queue:
                // it times out at the head of the queue without service.
                Resolution::TimedOut
            } else {
                run_instance(
                    &proto,
                    graph,
                    &aconfig,
                    config,
                    instance,
                    &mut spent,
                    &mut service,
                    &mut stats,
                    &obs,
                )
            };
            match resolution {
                Resolution::Decided(outcome) => {
                    stats.decided += 1;
                    stats.verdicts.record(outcome);
                    decision_hist.record(spent);
                    obs.record(HistId::ServeDecisionTicks, spent);
                }
                Resolution::TimedOut => {
                    stats.timed_out += 1;
                    obs.inc(CounterId::ServeTimedOut);
                }
                Resolution::Undecided => {
                    stats.undecided += 1;
                    obs.inc(CounterId::ServeUndecided);
                }
                Resolution::Failed => {
                    stats.failed += 1;
                    obs.inc(CounterId::ServeFailed);
                }
            }
            let end = start + service;
            clock = end;
            ends.push_back(end);
            stats.makespan = stats.makespan.max(end);
        }

        progress.tick();
        instance += config.shards as u64;
    }

    stats.decision_ticks = decision_hist.sparse();
    stats.queue_wait_ticks = wait_hist.sparse();
    drop(shard_span);
    obs.flush();
    stats
}

/// Executes one admitted instance's attempt loop.
#[allow(clippy::too_many_arguments)]
fn run_instance(
    proto: &AsyncS,
    graph: &Graph,
    aconfig: &AsyncConfig,
    config: &ServeConfig,
    instance: u64,
    spent: &mut u64,
    service: &mut u64,
    stats: &mut ShardStats,
    obs: &ca_obs::Metrics,
) -> Resolution {
    for attempt in 0..=config.retries {
        if attempt > 0 {
            stats.retries += 1;
            obs.inc(CounterId::ServeRetries);
        }
        stats.attempts += 1;
        let instance_span = obs.span(SpanId::ServeInstance);

        // Fresh coins per attempt: tapes and fault decisions both derive
        // from (seed, instance, attempt), so a retry is a genuinely new
        // execution of the same workload item.
        let iseed = mix64(mix64(config.seed, instance), u64::from(attempt));
        let tapes = TapeSet::from_tapes(
            graph
                .vertices()
                .map(|p| {
                    BitTape::from_words(vec![mix64(
                        iseed,
                        TAPE_STREAM ^ u64::from(p.index() as u32),
                    )])
                })
                .collect(),
        );
        let result = match &config.courier {
            CourierSpec::Reliable { latency } => {
                let mut courier = ReliableCourier::new(*latency);
                try_run_async(proto, graph, aconfig, &tapes, &mut courier)
            }
            CourierSpec::Chaos { schedule } => {
                let mut reseeded = schedule.clone();
                reseeded.seed = mix64(schedule.seed, iseed);
                let mut courier =
                    ChaosCourier::new(reseeded).expect("schedule validated by run_serve");
                try_run_async(proto, graph, aconfig, &tapes, &mut courier)
            }
        };
        drop(instance_span);

        match result {
            Err(_) => {
                if attempt < config.retries && *spent < config.budget {
                    continue;
                }
                return Resolution::Failed;
            }
            Ok(out) => {
                let latency = out.last_event_at.max(1);
                *spent += latency;
                *service += latency;
                stats.sent += out.sent;
                stats.delivered += out.delivered;
                // Degraded verdict: some process never heard rfire, so the
                // gossip conversation is incomplete (the shape heartbeat
                // exhaustion under faults produces).
                let undecided = out.states.iter().any(|s| s.token.is_none());
                if *spent > config.budget {
                    return Resolution::TimedOut;
                }
                if undecided {
                    if attempt < config.retries && *spent < config.budget {
                        continue;
                    }
                    return Resolution::Undecided;
                }
                return Resolution::Decided(out.outcome());
            }
        }
    }
    unreachable!("the attempt loop always resolves on its last iteration")
}

/// The drained placeholder for a shard the supervisor gave up on: every
/// instance it owned is accounted as failed — nothing silently disappears.
fn poisoned_stats(
    config: &ServeConfig,
    shard: usize,
    restarts: u32,
    panic: Option<String>,
) -> ShardStats {
    let owned = config.shard_instances(shard);
    ShardStats {
        instances: owned,
        failed: owned,
        restarts,
        poisoned: true,
        panic,
        ..ShardStats::default()
    }
}

/// Runs the service: load generation, sharded execution under supervision,
/// and the aggregate roll-up.
///
/// The returned report is byte-stable: identical for identical
/// deterministic parameters ([`ServeConfig::validate`] / [`ServeParams`])
/// whatever the thread count, unless `timed` is set.
///
/// # Errors
///
/// Returns [`CaError::MalformedConfig`] (or a model error) if the
/// configuration is invalid.
pub fn run_serve(config: &ServeConfig) -> Result<ServeReport, CaError> {
    config.validate()?;
    let graph = Graph::complete(config.m)?;
    let started = std::time::Instant::now();

    let run_obs = ca_obs::Metrics::new();
    let run_span = run_obs.span(SpanId::ServeRun);
    let outcome = supervise(
        config.shards,
        config.threads,
        2,
        config.stall_warn_ms.map(std::time::Duration::from_millis),
        |shard, attempt, progress| run_shard(&graph, config, shard, attempt, progress),
    );
    drop(run_span);

    let mut shards: Vec<ShardStats> = Vec::with_capacity(config.shards);
    for shard_run in outcome.shards {
        match shard_run.result {
            Some(mut stats) => {
                stats.restarts = shard_run.restarts;
                stats.panic = shard_run.panic;
                shards.push(stats);
            }
            None => {
                let stats =
                    poisoned_stats(config, shard_run.shard, shard_run.restarts, shard_run.panic);
                // The drained shard's per-attempt sink died unflushed;
                // account its instances at the run level so the obs
                // invariant (instances = outcomes) survives poisoning.
                run_obs.add(CounterId::ServeInstances, stats.instances);
                run_obs.add(CounterId::ServeFailed, stats.failed);
                shards.push(stats);
            }
        }
    }

    let mut totals = ServeTotals::default();
    for stats in &shards {
        totals.instances += stats.instances;
        totals.shed += stats.shed;
        totals.decided += stats.decided;
        totals.timed_out += stats.timed_out;
        totals.undecided += stats.undecided;
        totals.failed += stats.failed;
        totals.retries += stats.retries;
        totals.attempts += stats.attempts;
        totals.sent += stats.sent;
        totals.delivered += stats.delivered;
        totals.verdicts.merge(&stats.verdicts);
        totals.decision_ticks.merge(&stats.decision_ticks);
        totals.queue_wait_ticks.merge(&stats.queue_wait_ticks);
        totals.virtual_makespan = totals.virtual_makespan.max(stats.makespan);
        totals.shard_restarts += u64::from(stats.restarts);
        totals.shards_poisoned += u64::from(stats.poisoned);
    }
    totals.p99_decision_ticks = totals.decision_ticks.percentile_upper(99);
    totals.decided_per_kticks = if totals.virtual_makespan == 0 {
        0.0
    } else {
        totals.decided as f64 * 1000.0 / totals.virtual_makespan as f64
    };
    debug_assert_eq!(
        totals.instances,
        totals.shed + totals.decided + totals.timed_out + totals.undecided + totals.failed,
        "shed-load accounting: every offered instance has exactly one outcome"
    );
    if config.timed {
        let elapsed = started.elapsed();
        totals.wall_ms = elapsed.as_millis() as u64;
        totals.instances_per_sec = if elapsed.as_secs_f64() > 0.0 {
            totals.instances as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
    }

    run_obs.add(CounterId::ServeShardRestarts, totals.shard_restarts);
    run_obs.flush();

    Ok(ServeReport {
        schema: 1,
        params: config.params(),
        totals,
        shards,
    })
}

/// Compares a fresh report against a baseline, mirroring
/// `ca profile --compare`.
///
/// Stable *counters* must match exactly; *latency* metrics (the decision
/// histogram and its percentiles) may drift, gated by `p99_budget_pct`: the
/// new p99 decision sojourn may exceed the old by at most that percentage.
/// Returns human-readable drift messages; empty means the gate passes.
pub fn compare_reports(old: &ServeReport, new: &ServeReport, p99_budget_pct: u64) -> Vec<String> {
    let mut drift = Vec::new();
    if old.schema != new.schema {
        drift.push(format!("schema: {} -> {}", old.schema, new.schema));
    }
    if old.params != new.params {
        drift.push("params differ: baselines only compare like-for-like runs".to_owned());
    }
    let counters = [
        ("instances", old.totals.instances, new.totals.instances),
        ("shed", old.totals.shed, new.totals.shed),
        ("decided", old.totals.decided, new.totals.decided),
        ("timed_out", old.totals.timed_out, new.totals.timed_out),
        ("undecided", old.totals.undecided, new.totals.undecided),
        ("failed", old.totals.failed, new.totals.failed),
        ("retries", old.totals.retries, new.totals.retries),
        ("attempts", old.totals.attempts, new.totals.attempts),
        ("sent", old.totals.sent, new.totals.sent),
        ("delivered", old.totals.delivered, new.totals.delivered),
        (
            "verdicts.total_attack",
            old.totals.verdicts.total_attack,
            new.totals.verdicts.total_attack,
        ),
        (
            "verdicts.no_attack",
            old.totals.verdicts.no_attack,
            new.totals.verdicts.no_attack,
        ),
        (
            "verdicts.partial_attack",
            old.totals.verdicts.partial_attack,
            new.totals.verdicts.partial_attack,
        ),
        (
            "shard_restarts",
            old.totals.shard_restarts,
            new.totals.shard_restarts,
        ),
        (
            "shards_poisoned",
            old.totals.shards_poisoned,
            new.totals.shards_poisoned,
        ),
    ];
    for (name, old_v, new_v) in counters {
        if old_v != new_v {
            drift.push(format!("{name}: {old_v} -> {new_v}"));
        }
    }
    let (old_p99, new_p99) = (old.totals.p99_decision_ticks, new.totals.p99_decision_ticks);
    if new_p99.saturating_mul(100) > old_p99.saturating_mul(100 + p99_budget_pct) {
        drift.push(format!(
            "p99 decision sojourn regressed past the {p99_budget_pct}% budget: \
             {old_p99} -> {new_p99} ticks"
        ));
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ServeConfig {
        let mut config = ServeConfig::smoke(7);
        config.stall_warn_ms = None;
        config
    }

    fn accounting_holds(report: &ServeReport) {
        let t = &report.totals;
        assert_eq!(
            t.instances,
            t.shed + t.decided + t.timed_out + t.undecided + t.failed,
            "every instance has exactly one outcome"
        );
        for (k, s) in report.shards.iter().enumerate() {
            assert_eq!(
                s.instances,
                s.shed + s.decided + s.timed_out + s.undecided + s.failed,
                "shard {k} accounting"
            );
        }
        assert_eq!(t.decided, t.verdicts.total());
        assert_eq!(t.decision_ticks.count, t.decided);
        assert!(t.delivered <= t.sent);
    }

    #[test]
    fn smoke_run_degrades_gracefully_and_accounts_for_everything() {
        let report = run_serve(&smoke()).expect("smoke config is valid");
        accounting_holds(&report);
        let t = &report.totals;
        assert_eq!(t.instances, 480);
        // The acceptance bar: injected faults and overload must
        // surface as explicit degradation, not hangs — and most of the
        // service still works.
        assert!(t.shed > 0, "open-loop overload must shed: {t:?}");
        assert!(
            t.timed_out + t.undecided > 0,
            "faults must cost some instances their budget: {t:?}"
        );
        assert!(t.decided > t.instances / 2, "most instances decide: {t:?}");
        assert!(t.retries > 0, "chaos must force retries: {t:?}");
        assert!(t.p99_decision_ticks > 0);
        assert_eq!(t.shard_restarts, 0);
        assert_eq!(t.wall_ms, 0, "untimed reports carry no wall clock");
    }

    #[test]
    fn report_is_thread_count_independent_and_deterministic() {
        let mut config = smoke();
        config.instances = 120;
        let reports: Vec<String> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let mut c = config.clone();
                c.threads = threads;
                run_serve(&c).expect("valid").to_json()
            })
            .collect();
        assert_eq!(reports[0], reports[1], "1 vs 2 threads");
        assert_eq!(reports[0], reports[2], "1 vs 8 threads");
        let again = {
            let mut c = config.clone();
            c.threads = 1;
            run_serve(&c).expect("valid").to_json()
        };
        assert_eq!(reports[0], again, "repeat at the same seed");
    }

    #[test]
    fn closed_loop_reliable_service_sheds_nothing_and_decides_everything() {
        let mut config = ServeConfig::new(3, 4, 64, 11);
        config.stall_warn_ms = None;
        let report = run_serve(&config).expect("valid");
        accounting_holds(&report);
        let t = &report.totals;
        assert_eq!(t.shed, 0, "closed loop cannot overload the queue");
        assert_eq!(t.decided, 64, "reliable courier always completes gossip");
        assert_eq!(t.timed_out + t.undecided + t.failed, 0);
        assert_eq!(t.retries, 0);
        assert_eq!(t.queue_wait_ticks.max, 0, "closed loop never waits");
    }

    #[test]
    fn tiny_budget_times_instances_out_instead_of_hanging() {
        let mut config = ServeConfig::new(3, 4, 32, 13);
        config.stall_warn_ms = None;
        config.budget = 1;
        config.retries = 0;
        let report = run_serve(&config).expect("valid");
        accounting_holds(&report);
        assert_eq!(
            report.totals.timed_out, 32,
            "a 1-tick budget cannot fit any decision"
        );
        assert_eq!(report.totals.decided, 0);
    }

    #[test]
    fn injected_shard_panic_restarts_without_corrupting_the_report() {
        let mut config = smoke();
        config.instances = 120;
        let clean = run_serve(&config).expect("valid");

        let mut faulty = config.clone();
        faulty.inject_panic_shard = Some(3);
        faulty.inject_panic_attempts = 1;
        let recovered = run_serve(&faulty).expect("valid");

        accounting_holds(&recovered);
        assert_eq!(recovered.totals.shard_restarts, 1);
        assert_eq!(recovered.shards[3].restarts, 1);
        assert!(!recovered.shards[3].poisoned);
        // The restart re-ran the deterministic shard body: every functional
        // number matches the clean run exactly.
        assert_eq!(recovered.totals.verdicts, clean.totals.verdicts);
        assert_eq!(recovered.totals.shed, clean.totals.shed);
        assert_eq!(recovered.totals.decision_ticks, clean.totals.decision_ticks);
        let mut clean_shard = clean.shards[3].clone();
        clean_shard.restarts = recovered.shards[3].restarts;
        clean_shard.panic = recovered.shards[3].panic.clone();
        assert_eq!(clean_shard, recovered.shards[3]);
    }

    #[test]
    fn poisoned_shard_is_drained_into_explicit_failures() {
        let mut config = smoke();
        config.instances = 120;
        config.inject_panic_shard = Some(2);
        config.inject_panic_attempts = 2; // both supervised attempts die
        let report = run_serve(&config).expect("valid");
        accounting_holds(&report);
        assert_eq!(report.totals.shards_poisoned, 1);
        assert!(report.shards[2].poisoned);
        assert_eq!(report.shards[2].instances, report.shards[2].failed);
        assert!(report.shards[2].failed > 0, "drained, not dropped");
        assert!(
            report.shards[2]
                .panic
                .as_deref()
                .is_some_and(|p| p.contains("injected fault")),
            "panic message preserved"
        );
        // The other shards are untouched.
        assert!(report.totals.decided > 0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut config = smoke();
        config.instances = 48;
        let report = run_serve(&config).expect("valid");
        let text = report.to_json();
        let back = ServeReport::from_json(&text).expect("parses");
        assert_eq!(report, back);
        assert_eq!(text, back.to_json(), "serialization is deterministic");
        assert!(ServeReport::from_json("{").is_err());
    }

    #[test]
    fn compare_gate_passes_identical_and_flags_drift_and_regression() {
        let mut config = smoke();
        config.instances = 48;
        let report = run_serve(&config).expect("valid");
        assert!(compare_reports(&report, &report, 25).is_empty());

        let mut drifted = report.clone();
        drifted.totals.shed += 1;
        let messages = compare_reports(&report, &drifted, 25);
        assert!(
            messages.iter().any(|m| m.starts_with("shed:")),
            "{messages:?}"
        );

        let mut slow = report.clone();
        slow.totals.p99_decision_ticks = report.totals.p99_decision_ticks * 2;
        let messages = compare_reports(&report, &slow, 25);
        assert!(messages.iter().any(|m| m.contains("p99")), "{messages:?}");
        // Within budget: no regression message.
        let mut ok = report.clone();
        ok.totals.p99_decision_ticks = report.totals.p99_decision_ticks + 1;
        assert!(
            compare_reports(&report, &ok, 200).is_empty(),
            "small drift within a generous budget passes"
        );
    }

    #[test]
    fn empty_schedule_serve_equals_reliable_serve() {
        // The PR 1 property lifted to the serve loop: an empty fault
        // schedule must produce identical aggregate verdict counts to the
        // reliable courier at the same latency.
        let mut config = ServeConfig::new(3, 6, 96, 21);
        config.stall_warn_ms = None;
        config.arrival = Arrival::Open { mean_gap: 3 };
        config.courier = CourierSpec::Reliable { latency: 2 };
        let reliable = run_serve(&config).expect("valid");

        let mut chaos = config.clone();
        chaos.courier = CourierSpec::Chaos {
            schedule: FaultSchedule::reliable(2),
        };
        let empty = run_serve(&chaos).expect("valid");

        assert_eq!(reliable.totals.verdicts, empty.totals.verdicts);
        assert_eq!(reliable.totals.shed, empty.totals.shed);
        assert_eq!(reliable.totals.decided, empty.totals.decided);
        assert_eq!(reliable.totals.decision_ticks, empty.totals.decision_ticks);
        assert_eq!(reliable.shards.len(), empty.shards.len());
        for (a, b) in reliable.shards.iter().zip(&empty.shards) {
            assert_eq!(a.verdicts, b.verdicts);
            assert_eq!(a.makespan, b.makespan);
        }
    }

    #[test]
    fn validate_rejects_malformed_configs() {
        let bad = |f: fn(&mut ServeConfig)| {
            let mut c = ServeConfig::new(3, 4, 10, 1);
            f(&mut c);
            run_serve(&c).is_err()
        };
        assert!(bad(|c| c.m = 1));
        assert!(bad(|c| c.t = 0));
        assert!(bad(|c| c.deadline = 0));
        assert!(bad(|c| c.instances = 0));
        assert!(bad(|c| c.shards = 0));
        assert!(bad(|c| c.queue_bound = 0));
        assert!(bad(|c| c.budget = 0));
        assert!(bad(|c| c.courier = CourierSpec::Reliable { latency: 0 }));
        assert!(bad(|c| {
            c.courier = CourierSpec::Chaos {
                schedule: FaultSchedule {
                    seed: 0,
                    base_latency: 0,
                    faults: Vec::new(),
                },
            }
        }));
    }

    #[test]
    fn log2_hist_merge_and_percentile() {
        let mut a = HistAcc::new();
        for v in [0u64, 1, 1, 2, 3, 7] {
            a.record(v);
        }
        let mut b = HistAcc::new();
        for v in [4u64, 100] {
            b.record(v);
        }
        let mut m = a.sparse();
        m.merge(&b.sparse());
        assert_eq!(m.count, 8);
        assert_eq!(m.sum, 118);
        assert_eq!((m.min, m.max), (0, 100));
        assert_eq!(m.buckets.iter().map(|b| b.count).sum::<u64>(), 8);
        // Buckets stay sorted and deduplicated after the merge.
        for pair in m.buckets.windows(2) {
            assert!(pair[0].log2 < pair[1].log2);
        }
        // p50 of 8 samples is the 4th: value 2, bucket log2=2, upper 3.
        assert_eq!(m.percentile_upper(50), 3);
        // p100 lands in 100's bucket (log2 = 7): upper bound 127.
        assert_eq!(m.percentile_upper(100), 127);
        assert_eq!(Log2Hist::default().percentile_upper(99), 0);
        // Merging an empty histogram is a no-op; merging into one copies.
        let mut empty = Log2Hist::default();
        empty.merge(&m);
        assert_eq!(empty, m);
        let snapshot = m.clone();
        m.merge(&Log2Hist::default());
        assert_eq!(m, snapshot);
    }
}
