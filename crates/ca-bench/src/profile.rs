//! The `ca profile` engine: per-experiment observability snapshots.
//!
//! Where `ca bench` answers "how long does each experiment take", `ca
//! profile` answers "what did the engine *do*": for every registry
//! experiment (and one fixed chaos campaign) it runs the workload inside
//! its own [`ca_obs::capture`] and reports the merged counters, histograms,
//! and span tree — messages delivered vs. destroyed, runs sampled, tape
//! bits drawn, faults injected per primitive, shrink iterations, and so on.
//!
//! The JSON report follows the `ca bench` stability contract, but stricter:
//! by default the report is **byte-identical across thread counts and
//! repeat runs** for a fixed seed, because every counter the engine records
//! is a per-trial (or per-schedule) fact merged commutatively — nothing
//! depends on which worker did the work. Wall-clock readings (section
//! `wall_ms`, span `total_ns`, time-histogram contents) are suppressed to 0
//! unless [`ProfileConfig::timed`] asks for them, exactly like
//! `ca bench --stable` — except that for profiles the stable form is the
//! *default*, since attribution (which layer does how much work), not
//! timing, is the product. Zero-valued metrics are omitted, and the metric
//! order is the fixed `ca-obs` registry order.

use ca_analysis::experiments::Scale;
use ca_async::campaign::{run_campaign, CampaignConfig};
use ca_async::experiments::registry;
use ca_core::graph::Graph;
use ca_obs::{CounterId, HistId, Snapshot, SpanId};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration for one profile sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Use [`Scale::full`] instead of [`Scale::quick`].
    pub full: bool,
    /// Override the scale's trial count (for fast smoke runs).
    pub trials: Option<u64>,
    /// Keep real clock readings instead of zeroing them. Timed reports are
    /// machine-dependent and not byte-stable; stable counters are unchanged.
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
    /// Wall time in milliseconds (0 when timing is suppressed).
    pub wall_ms: f64,
    /// What the engine recorded while this section ran.
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
    /// Per-experiment sections, in registry order (E1–E12, X1–X5).
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

/// Profiles one workload section: runs `work` inside its own capture, so the
/// section's snapshot holds that workload's metrics and nothing else.
fn profile_section<T>(
    id: &str,
    timed: bool,
    work: impl FnOnce() -> T,
) -> (SectionProfile, Snapshot, T) {
    let start = Instant::now();
    let (result, snapshot) = ca_obs::capture(work);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let section = SectionProfile {
        id: id.to_owned(),
        wall_ms: if timed { wall_ms } else { 0.0 },
        metrics: section_from(&snapshot, timed),
    };
    (section, snapshot, result)
}

/// Runs every registry experiment plus the fixed chaos campaign, capturing
/// each section's observability snapshot.
pub fn run_profile(config: &ProfileConfig) -> ProfileRun {
    let scale = Scale::resolve(config.full, config.trials);
    let mut totals = Snapshot::new();
    let mut experiments = Vec::new();
    for experiment in registry() {
        let (mut section, snapshot, result) =
            profile_section(experiment.id(), config.timed, || {
                experiment.run_observed(scale)
            });
        section.id = result.id;
        totals.merge(&snapshot);
        experiments.push(section);
    }

    let (graph, chaos_config) = chaos_workload(scale.seed);
    let (chaos, snapshot, _) = profile_section("chaos", config.timed, || {
        run_campaign(&graph, &chaos_config)
    });
    totals.merge(&snapshot);

    ProfileRun {
        report: ProfileReport {
            schema: 1,
            scale: if config.full { "full" } else { "quick" }.to_owned(),
            trials: scale.trials,
            seed: scale.seed,
            timed: config.timed,
            experiments,
            chaos,
            totals: section_from(&totals, config.timed),
        },
        totals_snapshot: totals,
    }
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

/// The result of diffing two profile reports' total counters.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileComparison {
    /// Every counter present in either report, in registry order.
    pub entries: Vec<CounterDelta>,
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
        Ok(())
    }
}

/// Diffs the total counters of two profile reports by name.
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
    ProfileComparison { entries }
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

    #[test]
    fn untimed_profiles_are_deterministic() {
        let a = run_profile(&smoke_config());
        let b = run_profile(&smoke_config());
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.to_json_pretty(), b.report.to_json_pretty());
        assert_eq!(a.report.experiments.len(), 19, "18 sync experiments + X1");
        assert!(!a.report.timed);
        assert!(a
            .report
            .experiments
            .iter()
            .all(|s| s.wall_ms == 0.0 && s.metrics.spans.iter().all(|sp| sp.total_ns == 0)));
    }

    #[test]
    fn report_round_trips_through_json() {
        let run = run_profile(&smoke_config());
        let text = run.report.to_json_pretty();
        let back: ProfileReport = serde::json::from_str(&text).expect("report parses");
        assert_eq!(run.report, back);
    }

    #[test]
    fn compare_detects_scale_changes() {
        let a = run_profile(&smoke_config()).report;
        let same = compare_profiles(&a, &a);
        assert!(same.changed().is_empty(), "{same}");
        if ca_obs::ENABLED {
            let b = run_profile(&ProfileConfig {
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
        let run = run_profile(&smoke_config());
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
