//! The scenario sweep: topology × weak-adversary × protocol tradeoff
//! frontiers at big `m`.
//!
//! Every experiment in the registry probes a fixed small graph. The sweep
//! opens the workload axis instead: it takes a list of
//! [`TopologySpec`]s (generated graphs at `m` in the hundreds to ~2000), a
//! list of weak-adversary [`LossModel`]s, and a curve of Protocol S firing
//! ranges `t = 1/ε`, and estimates per cell how the topology's
//! diameter/expansion shifts §8's `L/U` tradeoff — the observed TA (liveness)
//! and PA (unsafety) rates as a function of `t`.
//!
//! # How a trial is classified
//!
//! One trial samples an [`EdgeRun`](ca_core::run::EdgeRun) through the weak
//! adversary's edge-keyed path, runs the sparse level frontier once for the
//! modified-level extremes `(min_i ML_i, max_i ML_i)`, and draws one `rfire`
//! coin. By Lemma 6.4, Protocol S's counts equal `ML`, so with
//! `rfire = t · u` (input-based validity, zero slack):
//!
//! * **TA** ⟺ `min ML ≥ rfire` — everyone fires;
//! * **NA** ⟺ `max ML < rfire` — nobody fires;
//! * **PA** otherwise.
//!
//! The whole `t`-curve shares the single trial (common random numbers): the
//! frontier pass and the unit draw `u` are computed once, and each curve
//! point just compares against its own `t · u`. That makes cross-`t`
//! comparisons noise-free and the per-cell cost independent of curve length.
//!
//! # Determinism
//!
//! Cells are independent: cell `c` derives its RNG stream from
//! `mix64(seed, c)` and trial `k` within it from `mix64(cell_seed, k)`, so
//! reports are byte-identical for a given `(config, seed)` across thread
//! counts (the `threads` knob is serialized as 0, like `SimReport`). All
//! tallies are integer [`BernoulliEstimate`]s; the only floats in a report
//! are echoed config parameters.

use crate::report::Table;
use ca_core::error::CaError;
use ca_core::graph::{GraphStats, TopologySpec};
use ca_core::level::{modified_level_extremes_into, LevelScratch};
use ca_sim::weak::{LossModel, WeakAdversary};
use ca_sim::{mix64, parallel_map, resolve_workers, BernoulliEstimate};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of one scenario sweep: the cross product of topologies and
/// adversaries, the Protocol S firing-range curve, and the sampling budget.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSweepConfig {
    /// Topologies to sweep (each a seed-deterministic generator spec).
    pub topologies: Vec<TopologySpec>,
    /// Weak-adversary loss models to sweep.
    pub adversaries: Vec<LossModel>,
    /// Protocol S firing ranges `t = 1/ε` for the tradeoff curve.
    pub t_curve: Vec<u32>,
    /// Monte Carlo trials per cell.
    pub trials: u64,
    /// Root seed; cell `c` uses `mix64(seed, c)`.
    pub seed: u64,
    /// Horizon slack: each cell runs `N = diameter + horizon_slack` rounds,
    /// giving information `horizon_slack` spare rounds beyond one graph
    /// traversal.
    pub horizon_slack: u32,
    /// Worker threads (0 = `CA_THREADS` or all cores). Serialized as 0 so
    /// reports stay byte-identical across thread counts.
    pub threads: usize,
}

impl ScenarioSweepConfig {
    /// The default scenario set at process count `m`: a near-square grid
    /// (high diameter), a Watts–Strogatz small world and a Barabási–Albert
    /// scale-free graph (low diameter), each under iid 5% loss and a bursty
    /// Gilbert–Elliott channel with the same ~9% stationary loss character.
    pub fn default_at(m: usize, trials: u64, seed: u64) -> Self {
        ScenarioSweepConfig {
            topologies: vec![
                TopologySpec::near_square_grid(m),
                TopologySpec::SmallWorld {
                    m,
                    k: 6,
                    beta: 0.1,
                    seed: 1,
                },
                TopologySpec::ScaleFree {
                    m,
                    attach: 3,
                    seed: 1,
                },
            ],
            adversaries: vec![
                LossModel::Iid { p: 0.05 },
                LossModel::GilbertElliott {
                    loss_good: 0.01,
                    loss_bad: 0.5,
                    good_to_bad: 0.05,
                    bad_to_good: 0.25,
                },
            ],
            t_curve: vec![2, 4, 8, 16],
            trials,
            seed,
            horizon_slack: 4,
            threads: 0,
        }
    }

    fn validate(&self) -> Result<(), CaError> {
        if self.topologies.is_empty() {
            return Err(CaError::malformed("sweep needs at least one topology"));
        }
        if self.adversaries.is_empty() {
            return Err(CaError::malformed("sweep needs at least one adversary"));
        }
        if self.t_curve.is_empty() || self.t_curve.contains(&0) {
            return Err(CaError::malformed(
                "sweep needs a nonempty t-curve of positive firing ranges",
            ));
        }
        if self.trials == 0 {
            return Err(CaError::malformed("sweep needs at least one trial"));
        }
        for adversary in &self.adversaries {
            adversary.validate()?;
        }
        // Every connected graph has at least two directed edges, so a slack
        // past half the cap can never fit a cell.
        if u64::from(self.horizon_slack) > MAX_CELL_SLOTS / 2 {
            return Err(CaError::malformed(format!(
                "horizon_slack {} exceeds the per-cell cap of {MAX_CELL_SLOTS} message slots",
                self.horizon_slack
            )));
        }
        Ok(())
    }
}

/// The most message slots (directed edges × horizon) one cell may sample:
/// each is one bit of the cell's [`EdgeRun`](ca_core::run::EdgeRun) and one
/// coin per trial. The default atlas at `m = 2048` needs about 1.2 M.
const MAX_CELL_SLOTS: u64 = 1 << 28;

/// One point of a cell's tradeoff curve: outcome tallies at firing range `t`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Protocol S firing range `t = 1/ε` (the paper's `L/U` axis up to `N`).
    pub t: u32,
    /// Total-attack (liveness) tally.
    pub ta: BernoulliEstimate,
    /// Partial-attack (unsafety) tally.
    pub pa: BernoulliEstimate,
    /// No-attack tally.
    pub na: BernoulliEstimate,
}

/// One topology × adversary cell of the sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioCell {
    /// The topology spec (reproducible: `spec.build()` regenerates the graph).
    pub topology: TopologySpec,
    /// Short topology name for tables.
    pub topology_name: String,
    /// The adversary loss model.
    pub adversary: LossModel,
    /// Short adversary name for tables.
    pub adversary_name: String,
    /// Generated-graph statistics (the frontier's x-axis material).
    pub graph: GraphStats,
    /// The cell's horizon `N = diameter + horizon_slack`.
    pub horizon: u32,
    /// Trials run.
    pub trials: u64,
    /// Sum over trials of `min_i ML_i` (integer, for byte-stable means).
    pub ml_min_sum: u64,
    /// Sum over trials of `max_i ML_i`.
    pub ml_max_sum: u64,
    /// Smallest `min_i ML_i` observed.
    pub ml_floor: u32,
    /// Largest `max_i ML_i` observed.
    pub ml_ceiling: u32,
    /// The tradeoff curve, one point per configured `t`.
    pub points: Vec<FrontierPoint>,
}

impl ScenarioCell {
    /// Mean over trials of the run-wide modified level `min_i ML_i`.
    pub fn mean_ml_min(&self) -> f64 {
        self.ml_min_sum as f64 / self.trials as f64
    }

    /// Mean over trials of `max_i ML_i`.
    pub fn mean_ml_max(&self) -> f64 {
        self.ml_max_sum as f64 / self.trials as f64
    }
}

/// The byte-stable result of [`run_sweep`]. Contains no wall-clock fields;
/// the `ca sweep --compare` drift gate relies on exact equality.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSweepReport {
    /// Report schema version.
    pub schema: u32,
    /// The configuration that produced it (threads zeroed).
    pub config: ScenarioSweepConfig,
    /// One cell per topology × adversary pair, topology-major.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioSweepReport {
    /// Renders the per-cell frontier as a [`Table`] (one row per cell × t).
    pub fn table(&self) -> Table {
        let mut table = Table::new(vec![
            "topology",
            "adversary",
            "diam",
            "deg",
            "N",
            "t",
            "TA",
            "PA",
            "NA",
        ]);
        for cell in &self.cells {
            for pt in &cell.points {
                table.push_row(vec![
                    cell.topology_name.clone(),
                    cell.adversary_name.clone(),
                    cell.graph.diameter.to_string(),
                    format!("{:.1}", cell.graph.degree_mean()),
                    cell.horizon.to_string(),
                    pt.t.to_string(),
                    format!("{:.3}", pt.ta.point()),
                    format!("{:.3}", pt.pa.point()),
                    format!("{:.3}", pt.na.point()),
                ]);
            }
        }
        table
    }
}

/// Runs one topology × adversary cell.
fn run_cell(
    topology: &TopologySpec,
    adversary: &LossModel,
    config: &ScenarioSweepConfig,
    cell_seed: u64,
) -> Result<ScenarioCell, CaError> {
    let graph = topology.build().map_err(CaError::from)?;
    let stats = GraphStats::of(&graph);
    let horizon = stats
        .diameter
        .checked_add(config.horizon_slack)
        .ok_or_else(|| CaError::malformed("diameter + horizon_slack overflows u32"))?;
    let slots = 2 * stats.edges as u64 * u64::from(horizon);
    if slots > MAX_CELL_SLOTS {
        return Err(CaError::malformed(format!(
            "{} needs {slots} message slots (directed edges × horizon {horizon}), \
             over the per-cell cap of {MAX_CELL_SLOTS}",
            topology.name()
        )));
    }
    let weak = WeakAdversary::new(&graph, horizon, *adversary);
    let mut er = weak.edge_template();
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
    for trial in 0..config.trials {
        // One RNG stream per trial, like the Monte Carlo engine: trial
        // identity, not worker identity, determines the draws.
        let mut rng = StdRng::seed_from_u64(mix64(cell_seed, trial));
        // Draw order: slot coins in canonical link-major order, then one
        // rfire unit coin — shared by the whole t-curve (CRN).
        weak.sample_edges_into(&mut er, &mut rng);
        let (ml_min, ml_max) = modified_level_extremes_into(&er, &mut scratch);
        let u = (rng.next_u64() as f64 + 1.0) / 18_446_744_073_709_551_616.0; // 2^64
        ml_min_sum += u64::from(ml_min);
        ml_max_sum += u64::from(ml_max);
        ml_floor = ml_floor.min(ml_min);
        ml_ceiling = ml_ceiling.max(ml_max);
        for pt in points.iter_mut() {
            // rfire uniform in (0, t]: TA iff every count clears it, NA iff
            // none does (ML = 0 processes never fire; rfire > 0 covers them).
            let rfire = f64::from(pt.t) * u;
            let ta = f64::from(ml_min) >= rfire;
            let na = f64::from(ml_max) < rfire;
            pt.ta.record(ta);
            pt.na.record(na);
            pt.pa.record(!ta && !na);
        }
    }
    Ok(ScenarioCell {
        topology: topology.clone(),
        topology_name: topology.name(),
        adversary: *adversary,
        adversary_name: adversary.name(),
        graph: stats,
        horizon,
        trials: config.trials,
        ml_min_sum,
        ml_max_sum,
        ml_floor,
        ml_ceiling,
        points,
    })
}

/// Runs the scenario sweep: every topology × adversary cell in parallel
/// (order-preserving, per-cell seed streams), returning a byte-stable report.
///
/// # Errors
///
/// Returns an error if the config is degenerate (empty axes, zero trials or
/// firing ranges), a loss model is invalid (a probability outside `[0, 1]`
/// or NaN, or a Gilbert–Elliott model with both transition rates zero), a
/// topology spec fails to build, or a cell's horizon overflows `u32` or its
/// slot count (directed edges × horizon) exceeds the per-cell cap of `2^28`.
pub fn run_sweep(config: &ScenarioSweepConfig) -> Result<ScenarioSweepReport, CaError> {
    config.validate()?;
    let cells: Vec<(usize, usize)> = (0..config.topologies.len())
        .flat_map(|t| (0..config.adversaries.len()).map(move |a| (t, a)))
        .collect();
    let workers = resolve_workers(config.threads);
    let results = parallel_map(cells.len(), workers, |idx| {
        let (t, a) = cells[idx];
        run_cell(
            &config.topologies[t],
            &config.adversaries[a],
            config,
            mix64(config.seed, idx as u64),
        )
    });
    let mut out = Vec::with_capacity(results.len());
    for cell in results {
        out.push(cell?);
    }
    let mut echoed = config.clone();
    echoed.threads = 0;
    Ok(ScenarioSweepReport {
        schema: 1,
        config: echoed,
        cells: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ScenarioSweepConfig {
        ScenarioSweepConfig {
            topologies: vec![TopologySpec::Ring { m: 8 }, TopologySpec::Complete { m: 5 }],
            adversaries: vec![
                LossModel::Iid { p: 0.1 },
                LossModel::GilbertElliott {
                    loss_good: 0.02,
                    loss_bad: 0.6,
                    good_to_bad: 0.1,
                    bad_to_good: 0.3,
                },
            ],
            t_curve: vec![2, 4, 8],
            trials: 64,
            seed: 0xCA11,
            horizon_slack: 3,
            threads: 1,
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let mut one = tiny_config();
        one.threads = 1;
        let mut four = tiny_config();
        four.threads = 4;
        let a = run_sweep(&one).unwrap();
        let b = run_sweep(&four).unwrap();
        assert_eq!(a, b, "reports must not depend on worker count");
        assert_eq!(
            serde::json::to_string(&a).unwrap(),
            serde::json::to_string(&b).unwrap()
        );
        assert_eq!(a.config.threads, 0, "threads echoed as 0");
    }

    #[test]
    fn outcome_tallies_partition_trials() {
        let report = run_sweep(&tiny_config()).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert_eq!(cell.trials, 64);
            assert!(cell.ml_floor <= cell.ml_ceiling);
            for pt in &cell.points {
                let total = pt.ta.point() * 64.0 + pt.pa.point() * 64.0 + pt.na.point() * 64.0;
                assert!(
                    (total - 64.0).abs() < 1e-9,
                    "TA/PA/NA must partition the trials"
                );
            }
        }
    }

    #[test]
    fn liveness_decreases_with_t_on_each_cell() {
        // rfire = t·u grows with t under shared u, so TA (min ML ≥ rfire) is
        // monotone nonincreasing along the curve — exactly the §8 tradeoff
        // shape, and a direct consequence of CRN sharing.
        let report = run_sweep(&tiny_config()).unwrap();
        for cell in &report.cells {
            for w in cell.points.windows(2) {
                assert!(
                    w[0].ta.point() >= w[1].ta.point(),
                    "TA must fall as t grows: {cell:?}"
                );
            }
        }
    }

    #[test]
    fn complete_graph_outlevels_ring_under_same_loss() {
        // Same loss model, same trial budget: the dense graph reaches higher
        // run-wide ML than the ring (more disjoint paths, smaller diameter).
        let report = run_sweep(&tiny_config()).unwrap();
        let ring_iid = &report.cells[0];
        let k5_iid = &report.cells[2];
        assert_eq!(ring_iid.topology_name, "ring8");
        assert_eq!(k5_iid.topology_name, "k5");
        assert!(
            k5_iid.mean_ml_min() > ring_iid.mean_ml_min(),
            "K5 {} vs ring {}",
            k5_iid.mean_ml_min(),
            ring_iid.mean_ml_min()
        );
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mut c = tiny_config();
        c.topologies.clear();
        assert!(run_sweep(&c).is_err());
        let mut c = tiny_config();
        c.trials = 0;
        assert!(run_sweep(&c).is_err());
        let mut c = tiny_config();
        c.t_curve = vec![0];
        assert!(run_sweep(&c).is_err());
    }

    /// `run_sweep` on `c` fails with a malformed-config error mentioning
    /// `needle` (before this check existed, each case panicked in a worker or
    /// wrapped to a tiny horizon).
    fn assert_malformed(c: &ScenarioSweepConfig, needle: &str) {
        match run_sweep(c) {
            Err(e @ CaError::MalformedConfig { .. }) => {
                assert!(e.to_string().contains(needle), "{e}")
            }
            other => panic!("expected a malformed-config error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_loss_models() {
        for (model, needle) in [
            (LossModel::Iid { p: 1.5 }, "p must be in [0,1]"),
            (LossModel::Iid { p: -0.1 }, "p must be in [0,1]"),
            (
                LossModel::Iid { p: f64::NAN },
                "p must be in [0,1], got NaN",
            ),
            (
                LossModel::GilbertElliott {
                    loss_good: 0.0,
                    loss_bad: f64::NAN,
                    good_to_bad: 0.1,
                    bad_to_good: 0.1,
                },
                "loss_bad must be in [0,1]",
            ),
            (
                LossModel::GilbertElliott {
                    loss_good: 0.01,
                    loss_bad: 0.5,
                    good_to_bad: 0.0,
                    bad_to_good: 0.0,
                },
                "nonzero transition rate",
            ),
        ] {
            let mut c = tiny_config();
            c.adversaries.push(model);
            assert_malformed(&c, needle);
        }
    }

    #[test]
    fn rejects_a_horizon_that_overflows() {
        // diameter + u32::MAX would overflow (a debug panic, a wrapped
        // horizon in release).
        let mut c = tiny_config();
        c.horizon_slack = u32::MAX;
        assert_malformed(&c, "horizon_slack");
    }

    #[test]
    fn rejects_cells_over_the_slot_cap() {
        // K64 has 4032 directed edges: a 2^17 slack passes the config check
        // but the cell would need ~528 M slots.
        let mut c = tiny_config();
        c.topologies = vec![TopologySpec::Complete { m: 64 }];
        c.horizon_slack = 1 << 17;
        assert_malformed(&c, "k64 needs");
    }

    #[test]
    fn report_serde_round_trips_and_tables() {
        let report = run_sweep(&tiny_config()).unwrap();
        let json = serde::json::to_string_pretty(&report).unwrap();
        let back: ScenarioSweepReport = serde::json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let rendered = report.table().to_string();
        assert!(rendered.contains("ring8"));
        assert!(rendered.contains("ge0.02-0.6"));
    }
}
