//! The `ca profile` engine: per-experiment observability snapshots and
//! timings.
//!
//! For every registry experiment (and one fixed chaos campaign) `ca
//! profile` runs the workload inside its own [`ca_obs::capture`] and
//! reports the section's verdict with what the engine *did*: the merged
//! counters, histograms, and span tree — messages delivered vs. destroyed,
//! runs sampled, tape bits drawn, faults injected per primitive, shrink
//! iterations, and so on.
//!
//! By default the report is **byte-identical across thread counts and
//! repeat runs** for a fixed seed, because every counter the engine records
//! is a per-trial (or per-schedule) fact merged commutatively — nothing
//! depends on which worker did the work. Wall-clock readings (section
//! `wall_ms` and `wall_mad_ms`, span `total_ns`, time-histogram contents)
//! are 0 unless [`ProfileConfig::timed`] asks for them. Timed, each section
//! runs once to warm up and then [`REPS`] times on the clock, and reports
//! its median-wall run with the median absolute deviation (MAD) of the
//! walls; every timed run must record the warm-up's stable metrics, or the
//! profile fails. Zero-valued metrics are omitted, and the metric order is
//! the fixed `ca-obs` registry order.

use ca_analysis::experiments::Scale;
use ca_async::campaign::{run_campaign, CampaignConfig};
use ca_async::experiments::registry;
use ca_core::graph::Graph;
use ca_obs::{CounterId, HistId, Snapshot, SpanId};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Timed runs per section under [`ProfileConfig::timed`], after one
/// warm-up run. Odd, so the median is one run's wall time.
pub const REPS: usize = 5;
const _: () = assert!(REPS % 2 == 1);

/// Median wall-time rise (percent of the old median) past which
/// [`compare_profiles`] flags a section, if the rise also exceeds four MADs.
pub const REGRESSION_THRESHOLD_PCT: f64 = 25.0;

/// Configuration for one profile sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Use [`Scale::full`] instead of [`Scale::quick`].
    pub full: bool,
    /// Override the scale's trial count (for fast smoke runs).
    pub trials: Option<u64>,
    /// Time each section over [`REPS`] runs after a warm-up instead of
    /// running it once untimed. Timed reports are machine-dependent and not
    /// byte-stable; stable metrics are unchanged.
    pub timed: bool,
}

/// One named counter value (zero-valued counters are omitted).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Registry name (`"exec.transitions"`, …).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One nonzero log2 histogram bucket.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketEntry {
    /// Bucket index: the bit length of the values it holds (0 = exactly 0).
    pub log2: u32,
    /// Samples in the bucket.
    pub count: u64,
}

/// One histogram's aggregate (histograms with no samples are omitted).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistEntry {
    /// Registry name (`"sim.trial_ml"`, …).
    pub name: String,
    /// Number of samples (always stable).
    pub count: u64,
    /// Sum of values (0 for suppressed time histograms).
    pub sum: u64,
    /// Minimum value (0 for suppressed time histograms).
    pub min: u64,
    /// Maximum value (0 for suppressed time histograms).
    pub max: u64,
    /// Nonzero buckets in index order (empty for suppressed time
    /// histograms).
    pub buckets: Vec<BucketEntry>,
}

/// One span's aggregate (spans never entered are omitted).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEntry {
    /// Registry name (`"sim.trial"`, …).
    pub name: String,
    /// Parent span name, `""` for roots (the static tree of the registry).
    pub parent: String,
    /// Completed entries (always stable).
    pub count: u64,
    /// Total nanoseconds inside the span (0 when timing is suppressed).
    pub total_ns: u64,
}

/// All metrics of one snapshot, in registry order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSection {
    /// Nonzero counters.
    pub counters: Vec<CounterEntry>,
    /// Nonempty histograms.
    pub histograms: Vec<HistEntry>,
    /// Entered spans.
    pub spans: Vec<SpanEntry>,
}

/// One profiled workload section (an experiment, or the chaos campaign).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SectionProfile {
    /// Section id: the experiment id, or `"chaos"`.
    pub id: String,
    /// The experiment's paper-shape verdict; for chaos, no oracle
    /// violations and no failed evaluations.
    pub passed: bool,
    /// Median wall time of the timed runs, milliseconds (0 untimed).
    pub wall_ms: f64,
    /// Median absolute deviation of the timed runs' walls, milliseconds
    /// (0 untimed).
    pub wall_mad_ms: f64,
    /// What the engine recorded while this section ran (its median-wall
    /// run, when timed).
    pub metrics: MetricsSection,
}

/// The full profile report (`ca profile` JSON).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Report format version.
    pub schema: u32,
    /// `"quick"` or `"full"` (the base scale before any trial override).
    pub scale: String,
    /// Monte Carlo trials per estimated probability.
    pub trials: u64,
    /// Base seed of the sweep.
    pub seed: u64,
    /// Whether the clock readings are real (false by default; profiles are
    /// stable-first).
    pub timed: bool,
    /// Runs behind each section's metrics: [`REPS`] timed, 1 untimed.
    pub reps: usize,
    /// Per-experiment sections, in registry order (E1–E12, X1–X7).
    pub experiments: Vec<SectionProfile>,
    /// The fixed chaos-campaign section.
    pub chaos: SectionProfile,
    /// Every section's metrics merged.
    pub totals: MetricsSection,
}

impl ProfileReport {
    /// Serializes the report as pretty JSON (deterministic field and
    /// registry order).
    pub fn to_json_pretty(&self) -> String {
        serde::json::to_string_pretty(self).expect("profile reports are always serializable")
    }

    /// Every section: the experiments in registry order, then chaos.
    pub fn sections(&self) -> impl Iterator<Item = &SectionProfile> {
        self.experiments.iter().chain([&self.chaos])
    }
}

/// A finished profile run: the serializable report plus the merged raw
/// snapshot (for the human-readable span-tree dump).
#[derive(Clone, Debug)]
pub struct ProfileRun {
    /// The JSON report.
    pub report: ProfileReport,
    /// The merged snapshot behind `report.totals`.
    pub totals_snapshot: Snapshot,
}

fn section_from(snapshot: &Snapshot, timed: bool) -> MetricsSection {
    let counters = CounterId::ALL
        .iter()
        .filter_map(|&id| {
            let value = snapshot.counter(id);
            (value != 0).then(|| CounterEntry {
                name: id.name().to_owned(),
                value,
            })
        })
        .collect();
    let histograms = HistId::ALL
        .iter()
        .filter_map(|&id| {
            let h = snapshot.hist(id);
            if h.count == 0 {
                return None;
            }
            // Time histograms keep their (stable) sample count but shed the
            // machine-dependent nanosecond values unless timing is on.
            let suppressed = id.is_time_ns() && !timed;
            Some(HistEntry {
                name: id.name().to_owned(),
                count: h.count,
                sum: if suppressed { 0 } else { h.sum },
                min: if suppressed { 0 } else { h.min },
                max: if suppressed { 0 } else { h.max },
                buckets: if suppressed {
                    Vec::new()
                } else {
                    h.buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &count)| count != 0)
                        .map(|(log2, &count)| BucketEntry {
                            log2: log2 as u32,
                            count,
                        })
                        .collect()
                },
            })
        })
        .collect();
    let spans = SpanId::ALL
        .iter()
        .filter_map(|&id| {
            let s = snapshot.span(id);
            (s.count != 0).then(|| SpanEntry {
                name: id.name().to_owned(),
                parent: id.parent().map(|p| p.name()).unwrap_or("").to_owned(),
                count: s.count,
                total_ns: if timed { s.total_ns } else { 0 },
            })
        })
        .collect();
    MetricsSection {
        counters,
        histograms,
        spans,
    }
}

/// The fixed chaos workload every profile includes: a small K3 campaign,
/// deterministic in the profile seed.
fn chaos_workload(seed: u64) -> (Graph, CampaignConfig) {
    let graph = Graph::complete(3).expect("K3 is constructible");
    let config = CampaignConfig {
        schedules: 8,
        seed,
        deadline: 12,
        t: 4,
        max_faults: 4,
        threads: 0,
        mc_trials: 40,
    };
    (graph, config)
}

/// Profiles one workload section, each run inside its own capture so its
/// snapshot holds that workload's metrics and nothing else. Untimed, `work`
/// runs once. Timed, it runs once to warm up and then [`REPS`] times on the
/// clock, and the section reports the median-wall run; a timed run whose
/// stable metrics differ from the warm-up's fails the section.
fn profile_section<T>(
    id: &str,
    timed: bool,
    mut work: impl FnMut() -> T,
    passed: impl Fn(&T) -> bool,
) -> Result<(SectionProfile, Snapshot), String> {
    let warm_up = ca_obs::capture(&mut work);
    let runs = if timed {
        let stable = section_from(&warm_up.1, false);
        let mut runs = Vec::with_capacity(REPS);
        for rep in 1..=REPS {
            let start = Instant::now();
            let run = ca_obs::capture(&mut work);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if section_from(&run.1, false) != stable {
                return Err(format!(
                    "section {id}: timed run {rep} of {REPS} recorded different \
                     stable metrics than its warm-up"
                ));
            }
            runs.push((wall_ms, run));
        }
        runs
    } else {
        vec![(0.0, warm_up)]
    };
    let (wall_ms, wall_mad_ms, (result, snapshot)) = median_run(runs);
    let section = SectionProfile {
        id: id.to_owned(),
        passed: passed(&result),
        wall_ms,
        wall_mad_ms,
        metrics: section_from(&snapshot, timed),
    };
    Ok((section, snapshot))
}

/// The run with the median wall time among an odd number of `(wall, run)`
/// pairs, with that wall and the median absolute deviation of all walls.
fn median_run<T>(mut runs: Vec<(f64, T)>) -> (f64, f64, T) {
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mid = runs.len() / 2;
    let wall_ms = runs[mid].0;
    let mut deviations: Vec<f64> = runs.iter().map(|run| (run.0 - wall_ms).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    let (_, run) = runs.swap_remove(mid);
    (wall_ms, deviations[mid], run)
}

/// Runs every registry experiment plus the fixed chaos campaign, capturing
/// each section's observability snapshot (and timing it, if
/// [`ProfileConfig::timed`]).
///
/// # Errors
///
/// A timed section whose runs record different stable metrics; the message
/// names the section.
pub fn run_profile(config: &ProfileConfig) -> Result<ProfileRun, String> {
    let scale = Scale::resolve(config.full, config.trials);
    let mut totals = Snapshot::new();
    let mut experiments = Vec::new();
    for experiment in registry() {
        let (section, snapshot) = profile_section(
            experiment.id(),
            config.timed,
            || experiment.run_observed(scale),
            |result| result.passed,
        )?;
        totals.merge(&snapshot);
        experiments.push(section);
    }

    let (graph, chaos_config) = chaos_workload(scale.seed);
    let (chaos, snapshot) = profile_section(
        "chaos",
        config.timed,
        || run_campaign(&graph, &chaos_config),
        |report| report.violations == 0 && report.failures == 0,
    )?;
    totals.merge(&snapshot);

    Ok(ProfileRun {
        report: ProfileReport {
            schema: 2,
            scale: if config.full { "full" } else { "quick" }.to_owned(),
            trials: scale.trials,
            seed: scale.seed,
            timed: config.timed,
            reps: if config.timed { REPS } else { 1 },
            experiments,
            chaos,
            totals: section_from(&totals, config.timed),
        },
        totals_snapshot: totals,
    })
}

/// One counter's change between two profile reports.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Value in the old report (0 if absent).
    pub old: u64,
    /// Value in the new report (0 if absent).
    pub new: u64,
}

/// One section's median wall time in two timed reports.
#[derive(Clone, Debug, PartialEq)]
pub struct WallDelta {
    /// Section id.
    pub id: String,
    /// Old median wall time, milliseconds.
    pub old_ms: f64,
    /// Old median absolute deviation, milliseconds.
    pub old_mad_ms: f64,
    /// New median wall time, milliseconds.
    pub new_ms: f64,
    /// New median absolute deviation, milliseconds.
    pub new_mad_ms: f64,
    /// Whether the median rose by more than both
    /// [`REGRESSION_THRESHOLD_PCT`] of the old median and four times the
    /// larger MAD.
    pub regression: bool,
}

/// The result of diffing two profile reports.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileComparison {
    /// Every total counter present in either report, in registry order.
    pub entries: Vec<CounterDelta>,
    /// Median wall times of the sections present in both reports, in the
    /// new report's order; empty unless both reports are timed.
    pub walls: Vec<WallDelta>,
}

impl ProfileComparison {
    /// Names of the counters whose values differ.
    ///
    /// Counters are deterministic functions of `(scale, seed)`, so at equal
    /// scales any difference means the engine's behavior changed — which is
    /// sometimes the point of a PR, but never something to merge unnoticed.
    pub fn changed(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|e| e.old != e.new)
            .map(|e| e.name.as_str())
            .collect()
    }

    /// Ids of the sections whose median wall time regressed.
    pub fn slower(&self) -> Vec<&str> {
        self.walls
            .iter()
            .filter(|w| w.regression)
            .map(|w| w.id.as_str())
            .collect()
    }
}

impl std::fmt::Display for ProfileComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<28} {:>16} {:>16}", "counter", "old", "new")?;
        for e in &self.entries {
            writeln!(
                f,
                "{:<28} {:>16} {:>16}{}",
                e.name,
                e.old,
                e.new,
                if e.old != e.new { "  CHANGED" } else { "" }
            )?;
        }
        if self.walls.is_empty() {
            return Ok(());
        }
        writeln!(
            f,
            "{:<8} {:>22} {:>22}",
            "section", "old ms ± MAD", "new ms ± MAD"
        )?;
        for w in &self.walls {
            writeln!(
                f,
                "{:<8} {:>12.3} ± {:<7.3} {:>12.3} ± {:<7.3}{}",
                w.id,
                w.old_ms,
                w.old_mad_ms,
                w.new_ms,
                w.new_mad_ms,
                if w.regression { "  REGRESSION" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// Diffs two profile reports: the total counters by name and, when both
/// reports are timed, each section's median wall time by id. A section
/// regresses when its median rises by more than both
/// [`REGRESSION_THRESHOLD_PCT`] of the old median and four times the larger
/// of the two MADs; there is no wall-time floor.
pub fn compare_profiles(old: &ProfileReport, new: &ProfileReport) -> ProfileComparison {
    let value_in = |section: &MetricsSection, name: &str| {
        section
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let entries = CounterId::ALL
        .iter()
        .map(|id| {
            let name = id.name();
            CounterDelta {
                name: name.to_owned(),
                old: value_in(&old.totals, name),
                new: value_in(&new.totals, name),
            }
        })
        .filter(|d| d.old != 0 || d.new != 0)
        .collect();
    let walls = if old.timed && new.timed {
        new.sections()
            .filter_map(|s| {
                let b = old.sections().find(|b| b.id == s.id)?;
                let noise = 4.0 * b.wall_mad_ms.max(s.wall_mad_ms);
                let budget = (REGRESSION_THRESHOLD_PCT / 100.0 * b.wall_ms).max(noise);
                Some(WallDelta {
                    id: s.id.clone(),
                    old_ms: b.wall_ms,
                    old_mad_ms: b.wall_mad_ms,
                    new_ms: s.wall_ms,
                    new_mad_ms: s.wall_mad_ms,
                    regression: s.wall_ms - b.wall_ms > budget,
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    ProfileComparison { entries, walls }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> ProfileConfig {
        ProfileConfig {
            full: false,
            trials: Some(20),
            timed: false,
        }
    }

    fn profile(config: &ProfileConfig) -> ProfileRun {
        run_profile(config).expect("every section repeats its stable metrics")
    }

    #[test]
    fn untimed_profiles_are_deterministic() {
        let a = profile(&smoke_config());
        let b = profile(&smoke_config());
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.to_json_pretty(), b.report.to_json_pretty());
        assert_eq!(a.report.experiments.len(), 19, "18 sync experiments + X1");
        assert!(!a.report.timed);
        assert_eq!(a.report.reps, 1);
        assert!(a.report.sections().all(|s| s.passed), "{:?}", a.report);
        assert!(a.report.sections().all(|s| s.wall_ms == 0.0
            && s.wall_mad_ms == 0.0
            && s.metrics.spans.iter().all(|sp| sp.total_ns == 0)));
    }

    #[test]
    fn timed_profiles_time_every_section_and_keep_its_counters() {
        let untimed = profile(&smoke_config()).report;
        let timed = profile(&ProfileConfig {
            timed: true,
            ..smoke_config()
        })
        .report;
        assert!(timed.timed);
        assert_eq!(timed.reps, REPS);
        assert!(timed.sections().all(|s| s.passed), "{timed:?}");
        assert!(timed.sections().all(|s| s.wall_ms > 0.0), "{timed:?}");
        let cmp = compare_profiles(&untimed, &timed);
        assert!(cmp.changed().is_empty(), "{cmp}");
        assert!(cmp.walls.is_empty(), "an untimed side has no wall rows");
        let same = compare_profiles(&timed, &timed);
        assert_eq!(same.walls.len(), 20, "19 experiments + chaos");
        assert!(
            same.changed().is_empty() && same.slower().is_empty(),
            "{same}"
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn timed_sections_must_repeat_their_stable_metrics() {
        let record = |trials| {
            let obs = ca_obs::Metrics::new();
            obs.add(CounterId::SimTrials, trials);
            obs.flush();
        };
        let steady = profile_section("steady", true, || record(1), |_| true);
        let (section, snapshot) = steady.expect("identical runs pass");
        assert_eq!(snapshot.counter(CounterId::SimTrials), 1);
        assert_eq!(section.metrics.counters[0].value, 1);

        let mut runs = 0;
        let drifting = profile_section(
            "drifting",
            true,
            || {
                runs += 1;
                record(if runs == 4 { 2 } else { 1 });
            },
            |_| true,
        );
        let err = drifting.expect_err("a run that records more trials must fail");
        assert!(err.contains("section drifting"), "{err}");
        assert!(err.contains("timed run 3 of 5"), "{err}");
    }

    #[test]
    fn the_median_wall_run_speaks_for_the_section() {
        let runs = vec![(5.0, 'a'), (1.0, 'b'), (9.0, 'c'), (3.0, 'd'), (7.5, 'e')];
        // Deviations from 5.0 are 0, 4, 4, 2, 2.5: their median is 2.5.
        assert_eq!(median_run(runs), (5.0, 2.5, 'a'));
        assert_eq!(median_run(vec![(0.0, 'u')]), (0.0, 0.0, 'u'));
    }

    fn timed_report(sections: &[(&str, f64, f64)]) -> ProfileReport {
        let empty = MetricsSection {
            counters: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
        };
        let section = |id: &str, wall_ms, wall_mad_ms| SectionProfile {
            id: id.to_owned(),
            passed: true,
            wall_ms,
            wall_mad_ms,
            metrics: empty.clone(),
        };
        ProfileReport {
            schema: 2,
            scale: "quick".to_owned(),
            trials: 20,
            seed: 42,
            timed: true,
            reps: REPS,
            experiments: sections
                .iter()
                .map(|&(id, wall_ms, mad)| section(id, wall_ms, mad))
                .collect(),
            chaos: section("chaos", 5.0, 0.1),
            totals: empty.clone(),
        }
    }

    #[test]
    fn wall_rule_flags_rises_past_both_the_threshold_and_the_noise() {
        let old = timed_report(&[
            ("E1", 10.0, 0.1),
            ("E2", 10.0, 0.1),
            ("E3", 0.2, 0.001),
            ("E4", 10.0, 0.1),
        ]);
        let new = timed_report(&[
            // +30% with small MADs.
            ("E1", 13.0, 0.1),
            // +39%, but inside four of the larger (new) MAD.
            ("E2", 13.9, 1.0),
            // No floor: a sub-millisecond section gates like any other.
            ("E3", 0.3, 0.001),
            // Speedups never flag.
            ("E4", 1.0, 0.0),
        ]);
        let cmp = compare_profiles(&old, &new);
        assert_eq!(cmp.slower(), ["E1", "E3"]);
        let shown = cmp.to_string();
        assert!(shown.contains("10.000 ± 0.100"), "{shown}");
        assert!(shown.contains("REGRESSION"), "{shown}");
    }

    #[test]
    fn wall_rows_need_a_timed_section_on_both_sides() {
        let old = timed_report(&[("E1", 10.0, 0.1), ("E9", 10.0, 0.1)]);
        let new = timed_report(&[("E1", 50.0, 0.1), ("X1", 50.0, 0.1)]);
        let cmp = compare_profiles(&old, &new);
        let ids: Vec<&str> = cmp.walls.iter().map(|w| w.id.as_str()).collect();
        assert_eq!(ids, ["E1", "chaos"]);
        assert_eq!(cmp.slower(), ["E1"]);

        let untimed = ProfileReport {
            timed: false,
            ..new.clone()
        };
        assert!(compare_profiles(&old, &untimed).walls.is_empty());
        assert!(compare_profiles(&untimed, &old).walls.is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let run = profile(&smoke_config());
        let text = run.report.to_json_pretty();
        let back: ProfileReport = serde::json::from_str(&text).expect("report parses");
        assert_eq!(run.report, back);
    }

    #[test]
    fn compare_detects_scale_changes() {
        let a = profile(&smoke_config()).report;
        let same = compare_profiles(&a, &a);
        assert!(same.changed().is_empty(), "{same}");
        if ca_obs::ENABLED {
            let b = profile(&ProfileConfig {
                trials: Some(40),
                ..smoke_config()
            })
            .report;
            let diff = compare_profiles(&a, &b);
            assert!(
                diff.changed().contains(&"sim.trials"),
                "doubling trials must change the trial counter: {diff}"
            );
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn profiles_attribute_work_to_sections() {
        let run = profile(&smoke_config());
        let totals = &run.report.totals;
        let counter = |name: &str| {
            totals
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        assert!(counter("sim.trials") > 0);
        assert!(counter("exec.transitions") > 0);
        assert!(counter("chaos.schedules") > 0);
        // The chaos section holds the campaign metrics, not the experiments'.
        assert!(run
            .report
            .chaos
            .metrics
            .counters
            .iter()
            .any(|c| c.name == "chaos.schedules"));
        // Span tree: trials nest under simulate.
        let trial = totals
            .spans
            .iter()
            .find(|s| s.name == "sim.trial")
            .expect("trial span present");
        assert_eq!(trial.parent, "sim.simulate");
        // The scalar engine opens one trial span per trial; the bit-sliced
        // engine opens one per 64-lane group. The counter always counts
        // trials, so each span covers between 1 and 64 of them.
        assert!(trial.count > 0);
        assert!(trial.count <= counter("sim.trials"));
        assert!(counter("sim.trials") <= trial.count * 64);
    }
}
