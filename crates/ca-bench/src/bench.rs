//! The `ca bench` engine: wall-clock timing of every experiment.
//!
//! Times each registry experiment (E1–E12 plus the X* extensions, including
//! the asynchronous X1) at a chosen [`Scale`] and produces a JSON report —
//! the `BENCH_experiments.json` perf trajectory. Experiments run serially so
//! the per-experiment wall times are honest (no cross-experiment core
//! contention); each experiment still parallelizes internally.
//!
//! The JSON is byte-stable: struct field order is fixed, the registry order
//! is fixed, and every value other than the clock readings is a
//! deterministic function of the scale. With timing suppressed
//! ([`BenchConfig::stable`]) the whole report is deterministic, which the
//! golden tests use to pin the format.

use ca_analysis::experiments::Scale;
use ca_async::experiments::registry;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration for one bench sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BenchConfig {
    /// Use [`Scale::full`] instead of [`Scale::quick`].
    pub full: bool,
    /// Override the scale's trial count (for fast smoke runs).
    pub trials: Option<u64>,
    /// Zero out all clock readings so the report is byte-deterministic.
    pub stable: bool,
}

/// One experiment's timing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Experiment id (`"E1"`, …).
    pub id: String,
    /// Whether the experiment's paper-shape checks passed.
    pub passed: bool,
    /// Wall time in milliseconds (0 when timing is suppressed).
    pub wall_ms: f64,
    /// Monte Carlo trials per wall second (0 when timing is suppressed).
    ///
    /// Uses the scale's per-probability trial count as the work unit — a
    /// throughput proxy that is comparable release to release at a fixed
    /// scale (exact-only experiments like E9 report their table rebuild
    /// rate in the same unit). The synthetic [`DP_PROBE_ID`] entry uses DP
    /// frontier states visited per second instead.
    pub trials_per_sec: f64,
}

/// Id of the synthetic level-DP throughput entry appended after the
/// experiment registry: one exact sweep of the §8 curve instance, reporting
/// **states visited per second** in [`BenchEntry::trials_per_sec`]. Because
/// [`compare_reports`] keys entries by id, `--compare` gates DP throughput
/// regressions exactly like the experiments.
pub const DP_PROBE_ID: &str = "DP";

/// Id of the synthetic big-graph scenario-sweep throughput entry appended
/// after [`DP_PROBE_ID`]: one `ca sweep` workload (m = 1000 topologies ×
/// weak adversaries through the sparse level frontier), reporting
/// **frontier-classified trials per second** in
/// [`BenchEntry::trials_per_sec`]. This is the regression gate for the
/// sparse gossip path, which the per-experiment entries (tiny graphs)
/// barely exercise.
pub const SWEEP_PROBE_ID: &str = "SWEEP";

/// The full bench report (`BENCH_experiments.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report format version.
    pub schema: u32,
    /// `"quick"` or `"full"` (the base scale before any trial override).
    pub scale: String,
    /// Monte Carlo trials per estimated probability.
    pub trials: u64,
    /// Base seed of the sweep.
    pub seed: u64,
    /// Whether the clock readings are real (false under `--stable`).
    pub timed: bool,
    /// Per-experiment timings, in registry order.
    pub experiments: Vec<BenchEntry>,
    /// Total wall time across all experiments, milliseconds.
    pub total_wall_ms: f64,
}

impl BenchReport {
    /// Serializes the report as pretty JSON (deterministic field and
    /// registry order).
    pub fn to_json_pretty(&self) -> String {
        serde::json::to_string_pretty(self).expect("bench reports are always serializable")
    }
}

/// Runs every experiment once at the configured scale, timing each.
pub fn run_bench(config: &BenchConfig) -> BenchReport {
    let scale = Scale::resolve(config.full, config.trials);
    let mut experiments = Vec::new();
    let mut total_ms = 0.0;
    for experiment in registry() {
        let start = Instant::now();
        let result = experiment.run(scale);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        total_ms += wall_ms;
        let (wall_ms, trials_per_sec) = if config.stable {
            (0.0, 0.0)
        } else {
            (wall_ms, scale.trials as f64 / (wall_ms / 1e3))
        };
        experiments.push(BenchEntry {
            id: result.id,
            passed: result.passed,
            wall_ms,
            trials_per_sec,
        });
    }
    experiments.push(dp_probe(&scale, config.stable, &mut total_ms));
    experiments.push(sweep_probe(&scale, config.stable, &mut total_ms));
    BenchReport {
        schema: 1,
        scale: if config.full { "full" } else { "quick" }.to_owned(),
        trials: scale.trials,
        seed: scale.seed,
        timed: !config.stable,
        experiments,
        total_wall_ms: if config.stable { 0.0 } else { total_ms },
    }
}

/// The level-DP throughput probe behind the [`DP_PROBE_ID`] entry: one
/// exact sweep of the X6 instance (K3, `t = N`, paper scale from
/// `trials ≥ 2000`, smoke-sized below), timed, with the curve's shape
/// checks folded into `passed`. States visited per second is the
/// throughput unit — the DP's work is frontier expansions, not trials.
fn dp_probe(scale: &Scale, stable: bool, total_ms: &mut f64) -> BenchEntry {
    use ca_analysis::level_dp::{self, DpSpec};
    use ca_core::rational::Rational;

    let n: u32 = if scale.trials >= 2_000 { 1_000 } else { 64 };
    let t = u64::from(n);
    let graph = ca_core::graph::Graph::complete(3).expect("graph");
    let spec = DpSpec::protocol_s(t);
    let start = Instant::now();
    let sweep = level_dp::sweep(&graph, n, &spec, &[n]).expect("K3 is DP-eligible");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    *total_ms += wall_ms;
    let passed = sweep.first_certain_round == Some(n) && sweep.u_s == Rational::new(1, t as i128);
    let (wall_ms, states_per_sec) = if stable {
        (0.0, 0.0)
    } else {
        (wall_ms, sweep.stats.states_visited as f64 / (wall_ms / 1e3))
    };
    BenchEntry {
        id: DP_PROBE_ID.to_owned(),
        passed,
        wall_ms,
        trials_per_sec: states_per_sec,
    }
}

/// The scenario-sweep throughput probe behind the [`SWEEP_PROBE_ID`] entry:
/// the default `ca sweep` workload (paper scale m = 1000 from
/// `trials ≥ 2000`, smoke-sized below), timed end to end — topology
/// generation, weak-adversary edge sampling, and the sparse level frontier.
/// `passed` folds in the tradeoff-shape check (TA monotone nonincreasing in
/// `t`, exact under common random numbers). Classified trials per second is
/// the throughput unit.
fn sweep_probe(scale: &Scale, stable: bool, total_ms: &mut f64) -> BenchEntry {
    use ca_analysis::sweep::{run_sweep, ScenarioSweepConfig};

    let (m, trials) = if scale.trials >= 2_000 {
        (1_000, 100)
    } else {
        (96, 12)
    };
    let config = ScenarioSweepConfig::default_at(m, trials, scale.seed);
    let start = Instant::now();
    let report = run_sweep(&config).expect("default sweep config is well-formed");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    *total_ms += wall_ms;
    let passed = report.cells.len() == config.topologies.len() * config.adversaries.len()
        && report.cells.iter().all(|cell| {
            cell.points
                .windows(2)
                .all(|w| w[0].ta.successes >= w[1].ta.successes)
        });
    let classified: u64 = report.cells.iter().map(|c| c.trials).sum();
    let (wall_ms, classified_per_sec) = if stable {
        (0.0, 0.0)
    } else {
        (wall_ms, classified as f64 / (wall_ms / 1e3))
    };
    BenchEntry {
        id: SWEEP_PROBE_ID.to_owned(),
        passed,
        wall_ms,
        trials_per_sec: classified_per_sec,
    }
}

/// Throughput drop (percent) beyond which [`compare_reports`] flags an
/// experiment as regressed.
pub const REGRESSION_THRESHOLD_PCT: f64 = 25.0;

/// Wall-time floor (milliseconds) below which an experiment is too fast to
/// regression-gate: at sub-10ms scale a single scheduler blip swings the
/// reading past [`REGRESSION_THRESHOLD_PCT`], so such entries still report
/// their deltas but never flag a regression.
pub const MIN_REGRESSION_WALL_MS: f64 = 10.0;

/// One experiment's wall/throughput deltas between two bench reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompareEntry {
    /// Experiment id (`"E1"`, …).
    pub id: String,
    /// Old wall time, milliseconds.
    pub old_wall_ms: f64,
    /// New wall time, milliseconds.
    pub new_wall_ms: f64,
    /// Old throughput, trials per second.
    pub old_trials_per_sec: f64,
    /// New throughput, trials per second.
    pub new_trials_per_sec: f64,
    /// Throughput change in percent (positive = faster). 0 when either side
    /// is untimed.
    pub throughput_delta_pct: f64,
    /// Whether the throughput dropped by more than
    /// [`REGRESSION_THRESHOLD_PCT`].
    pub regression: bool,
}

/// The result of diffing two bench reports by experiment id.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchComparison {
    /// Per-experiment deltas, in the new report's order.
    pub entries: Vec<CompareEntry>,
    /// Ids present only in the old report.
    pub only_in_old: Vec<String>,
    /// Ids present only in the new report.
    pub only_in_new: Vec<String>,
}

impl BenchComparison {
    /// Ids of the experiments whose throughput regressed past the threshold.
    pub fn regressions(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|e| e.regression)
            .map(|e| e.id.as_str())
            .collect()
    }
}

impl std::fmt::Display for BenchComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<5} {:>12} {:>12} {:>14} {:>14} {:>9}",
            "id", "old ms", "new ms", "old trials/s", "new trials/s", "delta"
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "{:<5} {:>12.1} {:>12.1} {:>14.0} {:>14.0} {:>+8.1}%{}",
                e.id,
                e.old_wall_ms,
                e.new_wall_ms,
                e.old_trials_per_sec,
                e.new_trials_per_sec,
                e.throughput_delta_pct,
                if e.regression { "  REGRESSION" } else { "" }
            )?;
        }
        for id in &self.only_in_old {
            writeln!(f, "{id:<5} only in old report")?;
        }
        for id in &self.only_in_new {
            writeln!(f, "{id:<5} only in new report")?;
        }
        Ok(())
    }
}

/// Diffs two bench reports by experiment id: per-experiment wall and
/// throughput deltas, flagging any experiment whose throughput dropped by
/// more than [`REGRESSION_THRESHOLD_PCT`]. Untimed entries (zero clocks, as
/// produced under `--stable`'s suppressed timing or a zero-length run)
/// compare with a zero delta and never regress — only real clock readings
/// can fail a comparison. Entries faster than [`MIN_REGRESSION_WALL_MS`] on
/// either side report their deltas but never flag a regression: at that
/// scale the reading is timer noise, not throughput.
pub fn compare_reports(old: &BenchReport, new: &BenchReport) -> BenchComparison {
    let mut entries = Vec::new();
    let mut only_in_new = Vec::new();
    for entry in &new.experiments {
        let Some(before) = old.experiments.iter().find(|e| e.id == entry.id) else {
            only_in_new.push(entry.id.clone());
            continue;
        };
        let timed = before.trials_per_sec > 0.0 && entry.trials_per_sec > 0.0;
        let delta_pct = if timed {
            (entry.trials_per_sec / before.trials_per_sec - 1.0) * 100.0
        } else {
            0.0
        };
        let gateable =
            before.wall_ms >= MIN_REGRESSION_WALL_MS && entry.wall_ms >= MIN_REGRESSION_WALL_MS;
        entries.push(CompareEntry {
            id: entry.id.clone(),
            old_wall_ms: before.wall_ms,
            new_wall_ms: entry.wall_ms,
            old_trials_per_sec: before.trials_per_sec,
            new_trials_per_sec: entry.trials_per_sec,
            throughput_delta_pct: delta_pct,
            regression: gateable && delta_pct < -REGRESSION_THRESHOLD_PCT,
        });
    }
    let only_in_old = old
        .experiments
        .iter()
        .filter(|e| new.experiments.iter().all(|n| n.id != e.id))
        .map(|e| e.id.clone())
        .collect();
    BenchComparison {
        entries,
        only_in_old,
        only_in_new,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_reports_are_deterministic() {
        let config = BenchConfig {
            full: false,
            trials: Some(50),
            stable: true,
        };
        let a = run_bench(&config);
        let b = run_bench(&config);
        assert_eq!(a, b);
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
        assert_eq!(
            a.experiments.len(),
            21,
            "18 sync experiments + X1 + the DP and SWEEP probes"
        );
        assert!(a.experiments.iter().all(|e| e.passed), "{a:?}");
        assert_eq!(a.experiments.last().unwrap().id, SWEEP_PROBE_ID);
        assert!(!a.timed);
        assert_eq!(a.total_wall_ms, 0.0);
    }

    #[test]
    fn report_order_matches_registry_order() {
        // The registry is in id order (pinned in `ca-async`); the emitted
        // JSON lists experiments in exactly that order.
        let registry = registry();
        let registry_ids: Vec<&str> = registry.iter().map(|e| e.id()).collect();
        let report = run_bench(&BenchConfig {
            full: false,
            trials: Some(10),
            stable: true,
        });
        let report_ids: Vec<&str> = report.experiments.iter().map(|e| e.id.as_str()).collect();
        // The synthetic DP and SWEEP throughput probes are appended after
        // the registry, in that order.
        assert_eq!(report_ids[..registry_ids.len()], registry_ids);
        assert_eq!(
            report_ids[registry_ids.len()..],
            [DP_PROBE_ID, SWEEP_PROBE_ID]
        );
        let json = report.to_json_pretty();
        let mut last = 0;
        for id in &registry_ids {
            let needle = format!("\"id\": \"{id}\"");
            let pos = json[last..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{id} out of order in JSON"));
            last += pos + needle.len();
        }
    }

    fn report_with(entries: &[(&str, f64, f64)]) -> BenchReport {
        BenchReport {
            schema: 1,
            scale: "quick".to_owned(),
            trials: 100,
            seed: 42,
            timed: true,
            experiments: entries
                .iter()
                .map(|(id, wall_ms, tps)| BenchEntry {
                    id: (*id).to_owned(),
                    passed: true,
                    wall_ms: *wall_ms,
                    trials_per_sec: *tps,
                })
                .collect(),
            total_wall_ms: entries.iter().map(|(_, w, _)| w).sum(),
        }
    }

    #[test]
    fn compare_flags_only_large_throughput_drops() {
        let old = report_with(&[("E1", 10.0, 1000.0), ("E2", 10.0, 1000.0)]);
        // E1 is 20% slower (within tolerance), E2 is 50% slower (regressed).
        let new = report_with(&[("E1", 12.5, 800.0), ("E2", 20.0, 500.0)]);
        let cmp = compare_reports(&old, &new);
        assert_eq!(cmp.regressions(), vec!["E2"]);
        assert!(!cmp.entries[0].regression);
        assert!((cmp.entries[0].throughput_delta_pct - -20.0).abs() < 1e-9);
        assert!((cmp.entries[1].throughput_delta_pct - -50.0).abs() < 1e-9);
        let shown = cmp.to_string();
        assert!(shown.contains("REGRESSION"), "{shown}");

        // Speedups are never regressions.
        let faster = report_with(&[("E1", 2.0, 5000.0), ("E2", 2.0, 5000.0)]);
        assert!(compare_reports(&old, &faster).regressions().is_empty());
    }

    #[test]
    fn compare_never_gates_sub_floor_walls() {
        // E1 sits below the 10ms floor on both sides; E2 crosses it on one
        // side only. Both drop >25% in throughput, but neither can be a
        // regression — only E3, timed above the floor on both sides, gates.
        let old = report_with(&[
            ("E1", 0.2, 10_000.0),
            ("E2", 8.0, 250.0),
            ("E3", 50.0, 40.0),
        ]);
        let new = report_with(&[
            ("E1", 0.4, 5_000.0),
            ("E2", 16.0, 125.0),
            ("E3", 100.0, 20.0),
        ]);
        let cmp = compare_reports(&old, &new);
        assert_eq!(cmp.regressions(), vec!["E3"]);
        // The deltas are still reported for the sub-floor entries.
        assert!((cmp.entries[0].throughput_delta_pct - -50.0).abs() < 1e-9);
        assert!((cmp.entries[1].throughput_delta_pct - -50.0).abs() < 1e-9);
    }

    #[test]
    fn compare_handles_untimed_and_mismatched_ids() {
        let old = report_with(&[("E1", 10.0, 1000.0), ("E9", 5.0, 2000.0)]);
        let mut new = report_with(&[("E1", 0.0, 0.0), ("X1", 3.0, 100.0)]);
        new.timed = false;
        let cmp = compare_reports(&old, &new);
        // Untimed entries compare with zero delta and never regress.
        assert!(cmp.regressions().is_empty());
        assert_eq!(cmp.entries[0].throughput_delta_pct, 0.0);
        assert_eq!(cmp.only_in_old, vec!["E9"]);
        assert_eq!(cmp.only_in_new, vec!["X1"]);
    }

    #[test]
    fn compare_round_trips_through_report_json() {
        // A committed BENCH_experiments.json parses back into a comparable
        // report — the shape `ca bench --compare` relies on.
        let old = report_with(&[("E1", 10.0, 1000.0)]);
        let parsed: BenchReport = serde::json::from_str(&old.to_json_pretty()).unwrap();
        assert_eq!(parsed, old);
        assert!(compare_reports(&parsed, &old).regressions().is_empty());
    }

    #[test]
    fn timed_reports_carry_positive_clocks() {
        let config = BenchConfig {
            full: false,
            trials: Some(50),
            stable: false,
        };
        let report = run_bench(&config);
        assert!(report.timed);
        assert!(report.total_wall_ms > 0.0);
        assert!(report.experiments.iter().all(|e| e.trials_per_sec > 0.0));
        assert_eq!(report.trials, 50);
    }
}
