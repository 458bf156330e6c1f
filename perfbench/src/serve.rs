//! `serve-smoke`: the `ca serve --smoke` preset through `run_serve` with
//! one worker thread.

use crate::measure::{median, peak_rss_mb, repeated_setup_s, settle, timed, Budget, Metric, Tally};
use crate::trace::Tracer;
use crate::Outcome;
use ca_async::courier::ReliableCourier;
use ca_async::engine::{try_run_async, AsyncConfig};
use ca_async::serve::{run_serve, Arrival, CourierSpec, ServeConfig, ServeReport, ShardStats};
use ca_async::{AsyncS, ChaosCourier};
use ca_core::graph::Graph;
use ca_core::outcome::Outcome as Verdict;
use ca_core::tape::{BitTape, TapeSet};
use ca_sim::mix64;
use std::collections::VecDeque;

/// `run_serve`'s stream tag for arrival gaps.
const ARRIVAL_STREAM: u64 = 0x0A11_4C0D;
/// `run_serve`'s stream tag for per-process tape words.
const TAPE_STREAM: u64 = 0x7A9E;

/// The shipped smoke preset on one worker thread (the supervisor's
/// watchdog, still on, is the second thread).
pub fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..ServeConfig::smoke(seed)
    }
}

/// The checks every report must pass: every offered instance has exactly
/// one outcome, no shard restarted or was poisoned, and (after the warm-up)
/// the report is the reference's.
pub fn check(report: &ServeReport, reference: Option<&ServeReport>) -> bool {
    let t = &report.totals;
    t.instances == t.shed + t.decided + t.timed_out + t.undecided + t.failed
        && t.instances > 0
        && t.shard_restarts == 0
        && t.shards_poisoned == 0
        && reference.is_none_or(|r| r == report)
}

/// The untraced run: `setup_s` over repeated constructions, then
/// back-to-back `run_serve` calls until the budget is spent.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let setup_s = repeated_setup_s(
        || {
            let c = config(seed);
            c.validate().expect("the smoke preset is valid");
            c
        },
        0.01,
        15,
    );
    let config = config(seed);
    let mut tally = Tally::default();
    let reference = run_serve(&config).ok();
    settle();
    tally.record(reference.as_ref().is_some_and(|r| check(r, None)));
    let (mut offered, mut decided) = (0u64, 0u64);
    let mut walls = Vec::new();
    let budget = Budget::new(seconds, 3);
    while budget.more(walls.len()) {
        let (report, wall) = timed(|| run_serve(&config));
        settle();
        walls.push(wall);
        if let Ok(r) = &report {
            offered += r.totals.instances;
            decided += r.totals.decided;
        }
        tally
            .record(report.is_ok_and(|r| reference.as_ref().is_some_and(|re| check(&r, Some(re)))));
    }
    let decided_frac = if offered == 0 {
        0.0
    } else {
        decided as f64 / offered as f64
    };
    Outcome {
        tally,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", config.instances as f64 / median(&walls), "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
            Metric::new("ok_frac", decided_frac, "ratio"),
        ],
    }
}

enum Resolution {
    Decided(Verdict),
    TimedOut,
    Undecided,
    Failed,
}

/// The replica of `run_serve`'s shard loop: the same admission queue in
/// virtual time, the same per-attempt seeds, and a span around every
/// courier construction plus `try_run_async` call. Returns the shard's
/// tallies in `ShardStats` form (histograms reduced to count and sum).
pub fn replica_shard(
    graph: &Graph,
    config: &ServeConfig,
    shard: usize,
    tr: &mut Tracer,
) -> ShardStats {
    let span = tr.open("serve.shard", shard as u64);
    let proto = AsyncS::new(1.0 / config.t as f64);
    let aconfig = AsyncConfig::all_inputs(graph, config.deadline)
        .with_heartbeat_policy(config.heartbeat.clone());
    let mut s = ShardStats::default();
    let mut ends: VecDeque<u64> = VecDeque::new();
    let (mut clock, mut arrive) = (0u64, 0u64);
    let mut instance = shard as u64;
    while instance < config.instances {
        match config.arrival {
            Arrival::Open { mean_gap } => {
                let gap = mix64(mix64(config.seed, ARRIVAL_STREAM), instance) % (2 * mean_gap + 1);
                arrive = arrive.saturating_add(gap);
            }
            Arrival::Closed => arrive = clock,
        }
        s.instances += 1;
        s.makespan = s.makespan.max(arrive);
        while ends.front().is_some_and(|&e| e <= arrive) {
            ends.pop_front();
        }
        if ends.len() >= config.queue_bound {
            s.shed += 1;
        } else {
            let start = arrive.max(clock);
            let mut spent = start - arrive;
            let mut service = 0u64;
            let resolution = if spent >= config.budget {
                Resolution::TimedOut
            } else {
                let span = tr.open("serve.instance", instance);
                let r = replica_instance(
                    (&proto, graph, &aconfig, config),
                    instance,
                    (&mut spent, &mut service),
                    &mut s,
                    tr,
                );
                tr.close(span);
                r
            };
            match resolution {
                Resolution::Decided(outcome) => {
                    s.decided += 1;
                    s.verdicts.record(outcome);
                    s.decision_ticks.count += 1;
                    s.decision_ticks.sum += spent;
                }
                Resolution::TimedOut => s.timed_out += 1,
                Resolution::Undecided => s.undecided += 1,
                Resolution::Failed => s.failed += 1,
            }
            let end = start + service;
            clock = end;
            ends.push_back(end);
            s.makespan = s.makespan.max(end);
        }
        instance += config.shards as u64;
    }
    tr.close(span);
    s
}

/// One admitted instance's attempt loop, as `run_serve` runs it.
fn replica_instance(
    (proto, graph, aconfig, config): (&AsyncS, &Graph, &AsyncConfig, &ServeConfig),
    instance: u64,
    (spent, service): (&mut u64, &mut u64),
    s: &mut ShardStats,
    tr: &mut Tracer,
) -> Resolution {
    for attempt in 0..=config.retries {
        if attempt > 0 {
            s.retries += 1;
        }
        s.attempts += 1;
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
        let result = tr.leaf("async.try_run_async", instance, || match &config.courier {
            CourierSpec::Reliable { latency } => try_run_async(
                proto,
                graph,
                aconfig,
                &tapes,
                &mut ReliableCourier::new(*latency),
            ),
            CourierSpec::Chaos { schedule } => {
                let mut reseeded = schedule.clone();
                reseeded.seed = mix64(schedule.seed, iseed);
                let mut courier = ChaosCourier::new(reseeded).expect("the smoke schedule is valid");
                try_run_async(proto, graph, aconfig, &tapes, &mut courier)
            }
        });
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
                s.sent += out.sent;
                s.delivered += out.delivered;
                let undecided = out.states.iter().any(|st| st.token.is_none());
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
    unreachable!("the last attempt always resolves")
}

/// Whether a replica shard reproduces the report's shard.
fn same_shard(replica: &ShardStats, report: &ShardStats) -> bool {
    let key = |s: &ShardStats| {
        (
            [
                s.instances,
                s.shed,
                s.decided,
                s.timed_out,
                s.undecided,
                s.failed,
            ],
            [s.retries, s.attempts, s.sent, s.delivered, s.makespan],
            (s.decision_ticks.count, s.decision_ticks.sum),
        )
    };
    key(replica) == key(report) && replica.verdicts == report.verdicts
}

/// The traced run: per pass, `run_serve` with the shipped watchdog, with
/// `stall_warn_ms: None`, and the shard-loop replica, for about `seconds`
/// (at least three passes).
pub fn traced(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let smoke = config(seed);
    let quiet = ServeConfig {
        stall_warn_ms: None,
        ..smoke.clone()
    };
    let graph = Graph::complete(smoke.m).expect("K_m builds");
    let mut tally = Tally::default();
    let reference = run_serve(&smoke).ok();
    tally.record(reference.as_ref().is_some_and(|r| check(r, None)));
    let (mut with_watchdog, mut without, mut replica, mut engine) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sent = 0u64;
    let budget = Budget::new(seconds, 3);
    while budget.more(replica.len()) {
        let mut reports = Vec::new();
        for (cfg, walls) in [(&smoke, &mut with_watchdog), (&quiet, &mut without)] {
            let span = tr.open("serve.run_serve", u64::from(cfg.stall_warn_ms.is_some()));
            reports.push(run_serve(cfg));
            walls.push(tr.close(span) as f64);
        }
        let mark = tr.mark();
        let span = tr.open("serve.replica", 0);
        let shards: Vec<ShardStats> = (0..smoke.shards)
            .map(|k| replica_shard(&graph, &smoke, k, tr))
            .collect();
        replica.push(tr.close(span) as f64);
        let t = tr.totals(mark..tr.mark());
        engine.push(
            t.get("async.try_run_async")
                .map_or(0.0, |x| x.total_ns as f64),
        );
        sent = shards.iter().map(|s| s.sent).sum();
        // Both entry-point runs must match the reference, and the replica
        // must reproduce every shard of it.
        let ok = reference.as_ref().is_some_and(|re| {
            reports
                .iter()
                .all(|r| r.as_ref().is_ok_and(|r| check(r, Some(re))))
                && shards.len() == re.shards.len()
                && shards.iter().zip(&re.shards).all(|(a, b)| same_shard(a, b))
        });
        tally.record(ok);
    }
    let totals = reference.map(|r| r.totals).unwrap_or_default();
    let (smoke_ns, busy_ns) = (median(&with_watchdog), median(&without));
    let (replica_ns, engine_ns) = (median(&replica), median(&engine));
    let wait_ns = smoke_ns - busy_ns;
    let layer_sum = engine_ns + (replica_ns - engine_ns) + wait_ns;
    Outcome {
        tally,
        metrics: vec![
            Metric::new("async.engine_ns_per_message", engine_ns / sent as f64, "ns"),
            Metric::new("serve.watchdog_wait_ms", wait_ns / 1e6, "ms"),
            Metric::new("serve.shard_busy_ms", busy_ns / 1e6, "ms"),
            Metric::new("serve.attempts", totals.attempts as f64, "count"),
            Metric::new("serve.retries", totals.retries as f64, "count"),
            Metric::new("serve.sent", totals.sent as f64, "count"),
            Metric::new("serve.delivered", totals.delivered as f64, "count"),
            Metric::new(
                "serve.decision_p99_ticks",
                totals.p99_decision_ticks as f64,
                "ticks",
            ),
            Metric::new("serve.trace_overhead", replica_ns / busy_ns, "ratio"),
            Metric::new("serve.layer_sum_ratio", layer_sum / smoke_ns, "ratio"),
        ],
    }
}
