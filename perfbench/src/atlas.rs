//! `atlas-iid` and `atlas-bursty`: the m = 1000 scenario atlas through
//! `run_sweep`, one topology cell per call.

use crate::measure::{median, peak_rss_mb, settle, timed, Budget, Metric, Tally};
use crate::trace::Tracer;
use crate::Outcome;
use ca_analysis::sweep::{
    run_sweep, FrontierPoint, ScenarioCell, ScenarioSweepConfig, ScenarioSweepReport,
};
use ca_core::graph::GraphStats;
use ca_core::level::{modified_level_extremes_into, LevelScratch};
use ca_sim::weak::{LossModel, WeakAdversary};
use ca_sim::{mix64, BernoulliEstimate};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;

/// Processes per generated topology.
pub const M: usize = 1000;
/// Monte Carlo trials per cell, as `ca sweep --m 1000 --trials 100` runs.
pub const TRIALS: u64 = 100;
/// Repeated constructions behind `setup_s`.
const SETUP_REPS: usize = 5;

/// Which of the default atlas's two loss models a workload keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loss {
    /// 5% iid loss.
    Iid,
    /// The bursty Gilbert–Elliott channel.
    Bursty,
}

/// One single-cell sweep config per default topology, on one worker.
pub fn cell_configs(loss: Loss, seed: u64) -> Vec<ScenarioSweepConfig> {
    let base = ScenarioSweepConfig::default_at(M, TRIALS, seed);
    let adversary = *base
        .adversaries
        .iter()
        .find(|a| {
            matches!((loss, a), (Loss::Iid, LossModel::Iid { .. }))
                || matches!((loss, a), (Loss::Bursty, LossModel::GilbertElliott { .. }))
        })
        .expect("the default atlas has both loss models");
    base.topologies
        .iter()
        .map(|topology| ScenarioSweepConfig {
            topologies: vec![topology.clone()],
            adversaries: vec![adversary],
            threads: 1,
            ..base.clone()
        })
        .collect()
}

/// The checks every repetition's report must pass: TA + PA + NA = trials at
/// every point, TA nonincreasing along the t-curve, and (after the warm-up)
/// the same report as the reference.
pub fn check(report: &ScenarioSweepReport, reference: Option<&ScenarioSweepReport>) -> bool {
    let cells_ok = !report.cells.is_empty()
        && report.cells.iter().all(|cell| {
            cell.points.iter().all(|pt| {
                [pt.ta, pt.pa, pt.na]
                    .iter()
                    .all(|e| e.trials == cell.trials)
                    && pt.ta.successes + pt.pa.successes + pt.na.successes == cell.trials
            }) && cell
                .points
                .windows(2)
                .all(|w| w[0].ta.successes >= w[1].ta.successes)
        });
    cells_ok && reference.is_none_or(|r| r == report)
}

/// Builds every cell's inputs once, as `run_sweep` does per cell.
fn build_inputs(configs: &[ScenarioSweepConfig]) {
    for config in configs {
        let graph = config.topologies[0]
            .build()
            .expect("default topologies build");
        let stats = GraphStats::of(&graph);
        let weak = WeakAdversary::new(
            &graph,
            stats.diameter + config.horizon_slack,
            config.adversaries[0],
        );
        black_box(weak.edge_template());
    }
}

/// The untraced run: `setup_s`, then interleaved per-cell `run_sweep`
/// repetitions until the budget is spent.
pub fn run(loss: Loss, seed: u64, seconds: f64) -> Outcome {
    let configs = cell_configs(loss, seed);
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| timed(|| build_inputs(&configs)).1)
        .collect();
    let mut tally = Tally::default();
    let references: Vec<Option<ScenarioSweepReport>> = configs
        .iter()
        .map(|c| {
            let report = run_sweep(c).ok();
            settle();
            tally.record(report.as_ref().is_some_and(|r| check(r, None)));
            report
        })
        .collect();
    let mut walls = vec![Vec::new(); configs.len()];
    let budget = Budget::new(seconds, 3);
    let mut passes = 0;
    while budget.more(passes) {
        for (c, config) in configs.iter().enumerate() {
            let (report, wall) = timed(|| run_sweep(config));
            settle();
            let ok =
                report.is_ok_and(|r| references[c].as_ref().is_some_and(|re| check(&r, Some(re))));
            tally.record(ok);
            walls[c].push(wall);
        }
        passes += 1;
    }
    let per_pass: f64 = walls.iter().map(|w| median(w)).sum();
    let trials = (TRIALS * configs.len() as u64) as f64;
    Outcome {
        tally,
        metrics: vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("ops_per_s", trials / per_pass, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
            Metric::new("ok_frac", 1.0 - tally.fail_frac(), "ratio"),
        ],
    }
}

/// Per-pass layer times of one cell, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
struct CellPass {
    build: f64,
    stats: f64,
    weak_new: f64,
    sample: f64,
    frontier: f64,
    trial_rest: f64,
    cell_rest: f64,
}

/// The replica of `run_sweep`'s cell loop for a single-cell config, with a
/// span around every public call. Returns the cell it computed and the
/// messages the sampler destroyed.
pub fn replica_cell(
    config: &ScenarioSweepConfig,
    cell: u64,
    tr: &mut Tracer,
) -> (ScenarioCell, u64) {
    let topology = &config.topologies[0];
    let adversary = config.adversaries[0];
    let cell_span = tr.open("sweep.cell", cell);
    let graph = tr.leaf("graph.build", cell, || {
        topology.build().expect("default topologies build")
    });
    let stats = tr.leaf("graph.stats", cell, || GraphStats::of(&graph));
    let horizon = stats.diameter + config.horizon_slack;
    let (weak, mut er) = tr.leaf("weak.new", cell, || {
        let weak = WeakAdversary::new(&graph, horizon, adversary);
        let er = weak.edge_template();
        (weak, er)
    });
    let mut scratch = LevelScratch::new();
    let mut points: Vec<FrontierPoint> = config
        .t_curve
        .iter()
        .map(|&t| FrontierPoint {
            t,
            ta: BernoulliEstimate::default(),
            pa: BernoulliEstimate::default(),
            na: BernoulliEstimate::default(),
        })
        .collect();
    let (mut ml_min_sum, mut ml_max_sum) = (0u64, 0u64);
    let (mut ml_floor, mut ml_ceiling) = (u32::MAX, 0u32);
    let mut lost = 0u64;
    // A one-cell config is cell 0 of its own sweep.
    let cell_seed = mix64(config.seed, 0);
    for trial in 0..config.trials {
        let trial_span = tr.open("sweep.trial", trial);
        let mut rng = StdRng::seed_from_u64(mix64(cell_seed, trial));
        lost += tr.leaf("weak.sample", trial, || {
            weak.sample_edges_into(&mut er, &mut rng)
        });
        let (ml_min, ml_max) = tr.leaf("level.frontier", trial, || {
            modified_level_extremes_into(&er, &mut scratch)
        });
        let u = (rng.next_u64() as f64 + 1.0) / 18_446_744_073_709_551_616.0; // 2^64
        ml_min_sum += u64::from(ml_min);
        ml_max_sum += u64::from(ml_max);
        ml_floor = ml_floor.min(ml_min);
        ml_ceiling = ml_ceiling.max(ml_max);
        for pt in points.iter_mut() {
            let rfire = f64::from(pt.t) * u;
            let ta = f64::from(ml_min) >= rfire;
            let na = f64::from(ml_max) < rfire;
            pt.ta.record(ta);
            pt.na.record(na);
            pt.pa.record(!ta && !na);
        }
        tr.close(trial_span);
    }
    tr.close(cell_span);
    let out = ScenarioCell {
        topology: topology.clone(),
        topology_name: topology.name(),
        adversary,
        adversary_name: adversary.name(),
        graph: stats,
        horizon,
        trials: config.trials,
        ml_min_sum,
        ml_max_sum,
        ml_floor,
        ml_ceiling,
        points,
    };
    (out, lost)
}

/// The traced run: interleaves `run_sweep` with its replica per cell for
/// about `seconds` (at least two passes) and derives the atlas layer metrics.
pub fn traced(loss: Loss, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let configs = cell_configs(loss, seed);
    let mut tally = Tally::default();
    let references: Vec<Option<ScenarioSweepReport>> =
        configs.iter().map(|c| run_sweep(c).ok()).collect();
    let mut untraced = vec![Vec::new(); configs.len()];
    let mut replica = vec![Vec::new(); configs.len()];
    let mut layers = vec![Vec::<CellPass>::new(); configs.len()];
    let mut cells: Vec<Option<(ScenarioCell, u64)>> = vec![None; configs.len()];
    let budget = Budget::new(seconds, 2);
    let mut passes = 0;
    while budget.more(passes) {
        for (c, config) in configs.iter().enumerate() {
            let span = tr.open("sweep.run_sweep", c as u64);
            let report = run_sweep(config);
            untraced[c].push(tr.close(span) as f64);
            let mark = tr.mark();
            let span = tr.open("sweep.replica", c as u64);
            let (cell, lost) = replica_cell(config, c as u64, tr);
            replica[c].push(tr.close(span) as f64);
            // The replica must reproduce the entry point's cell exactly.
            let ok = report.is_ok_and(|r| {
                references[c].as_ref().is_some_and(|re| check(&r, Some(re))) && r.cells[0] == cell
            });
            tally.record(ok);
            let t = tr.totals(mark..tr.mark());
            let ns = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64);
            let self_ns = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64);
            layers[c].push(CellPass {
                build: ns("graph.build"),
                stats: ns("graph.stats"),
                weak_new: ns("weak.new"),
                sample: ns("weak.sample"),
                frontier: ns("level.frontier"),
                trial_rest: self_ns("sweep.trial"),
                cell_rest: self_ns("sweep.cell"),
            });
            cells[c] = Some((cell, lost));
        }
        passes += 1;
    }

    // Per cell, each layer's median over the passes; summed over cells.
    let layer = |f: fn(&CellPass) -> f64| -> f64 {
        layers
            .iter()
            .map(|passes| median(&passes.iter().map(f).collect::<Vec<_>>()))
            .sum()
    };
    let (build, stats, weak_new) = (
        layer(|p| p.build),
        layer(|p| p.stats),
        layer(|p| p.weak_new),
    );
    let (sample, frontier) = (layer(|p| p.sample), layer(|p| p.frontier));
    let (trial_rest, cell_rest) = (layer(|p| p.trial_rest), layer(|p| p.cell_rest));
    let untraced_ns: f64 = untraced.iter().map(|w| median(w)).sum();
    let replica_ns: f64 = replica.iter().map(|w| median(w)).sum();
    let cells: Vec<(ScenarioCell, u64)> = cells.into_iter().flatten().collect();
    let trials: u64 = cells.iter().map(|(c, _)| c.trials).sum();
    // Slots drawn per trial = edge-rounds the frontier walks: directed edges
    // times the horizon.
    let edge_rounds: f64 = cells
        .iter()
        .map(|(c, _)| (2 * c.graph.edges as u64 * u64::from(c.horizon) * c.trials) as f64)
        .sum();
    let lost: u64 = cells.iter().map(|(_, l)| l).sum();

    let mut metrics = vec![
        Metric::new("graph.build_ms", build / 1e6, "ms"),
        Metric::new("graph.stats_ms", stats / 1e6, "ms"),
        Metric::new("weak.new_ms", weak_new / 1e6, "ms"),
        Metric::new("weak.sample_ns_per_slot", sample / edge_rounds, "ns"),
        Metric::new(
            "level.frontier_ns_per_edge_round",
            frontier / edge_rounds,
            "ns",
        ),
        Metric::new("sweep.rest_ns_per_trial", trial_rest / trials as f64, "ns"),
        Metric::new("weak.lost_per_trial", lost as f64 / trials as f64, "count"),
    ];
    for (cell, _) in &cells {
        metrics.push(Metric::new(
            format!("level.ml_min_mean.{}", cell.topology_name),
            cell.mean_ml_min(),
            "level",
        ));
        metrics.push(Metric::new(
            format!("level.ml_max_mean.{}", cell.topology_name),
            cell.mean_ml_max(),
            "level",
        ));
    }
    let layer_sum = build + stats + weak_new + sample + frontier + trial_rest + cell_rest;
    metrics.push(Metric::new(
        "atlas.trace_overhead",
        replica_ns / untraced_ns,
        "ratio",
    ));
    metrics.push(Metric::new(
        "atlas.layer_sum_ratio",
        layer_sum / untraced_ns,
        "ratio",
    ));
    Outcome { tally, metrics }
}
