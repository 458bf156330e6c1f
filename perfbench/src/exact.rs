//! `exact`: two `level_dp::sweep` solves, one frontier-bound and one
//! kernel-bound.

use crate::measure::{median, peak_rss_mb, repeated_setup_s, timed, Budget, Metric, Tally};
use crate::trace::Tracer;
use crate::Outcome;
use ca_analysis::level_dp::{sweep, DpSpec, DpStats, SweepReport};
use ca_core::graph::Graph;
use ca_core::rational::Rational;

/// One DP instance: `t = N`, Protocol S, checkpoints as `ca exact --sweep`
/// picks them.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The complete graph the instance runs on.
    pub graph: Graph,
    /// Horizon N, equal to the firing range t.
    pub rounds: u32,
    /// Protocol S at `t = rounds`.
    pub spec: DpSpec,
    /// Checkpoint horizons.
    pub checkpoints: Vec<u32>,
}

impl Instance {
    /// Protocol S on `K_m` at `N = t = n`.
    pub fn complete(m: usize, n: u32) -> Instance {
        Instance {
            graph: Graph::complete(m).expect("complete graphs build"),
            rounds: n,
            spec: DpSpec::protocol_s(u64::from(n)),
            checkpoints: checkpoints(n),
        }
    }

    /// Solves the instance with `level_dp::sweep`.
    pub fn solve(&self) -> Option<SweepReport> {
        sweep(&self.graph, self.rounds, &self.spec, &self.checkpoints).ok()
    }
}

/// The instance pair: §8's curve at K3, N = t = 1000 (frontier-bound), and
/// K4 at N = t = 2 (140 kernels of 4,096 delivery patterns, kernel-bound).
pub fn instances() -> [Instance; 2] {
    [Instance::complete(3, 1000), Instance::complete(4, 2)]
}

/// `ca exact --sweep`'s checkpoints: 1, N/4, N/2, 3N/4 and N.
fn checkpoints(n: u32) -> Vec<u32> {
    let mut c: Vec<u32> = [1, n / 4, n / 2, 3 * n / 4, n]
        .into_iter()
        .filter(|&c| c >= 1)
        .collect();
    c.dedup();
    c
}

/// The checks every solve must pass: liveness 1 is first reached at N,
/// `U_s = 1/t`, and (after the warm-up) the report, `DpStats` included, is
/// the reference's.
pub fn check(inst: &Instance, report: &SweepReport, reference: Option<&SweepReport>) -> bool {
    report.first_certain_round == Some(inst.rounds)
        && report.u_s == Rational::new(1, i128::from(inst.rounds))
        && reference.is_none_or(|r| r.stats == report.stats && r == report)
}

fn references(insts: &[Instance], tally: &mut Tally) -> Vec<Option<SweepReport>> {
    insts
        .iter()
        .map(|inst| {
            let report = inst.solve();
            tally.record(report.as_ref().is_some_and(|r| check(inst, r, None)));
            report
        })
        .collect()
}

/// The untraced run: `setup_s` over repeated constructions, then
/// alternating solves until the budget is spent.
pub fn run(seconds: f64) -> Outcome {
    let setup_s = repeated_setup_s(instances, 0.01, 15);
    let insts = instances();
    let mut tally = Tally::default();
    let refs = references(&insts, &mut tally);
    let mut walls = vec![Vec::new(); insts.len()];
    let budget = Budget::new(seconds, 3);
    let mut passes = 0;
    while budget.more(passes) {
        for (i, inst) in insts.iter().enumerate() {
            let (report, wall) = timed(|| inst.solve());
            tally.record(report.is_some_and(|r| check(inst, &r, refs[i].as_ref())));
            walls[i].push(wall);
        }
        passes += 1;
    }
    let per_pass: f64 = walls.iter().map(|w| median(w)).sum();
    Outcome {
        tally,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", insts.len() as f64 / per_pass, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
            Metric::new("ok_frac", 1.0 - tally.fail_frac(), "ratio"),
        ],
    }
}

/// The traced run: a span around every solve. The program exposes no
/// public boundary inside `sweep`, so the split between frontier expansion
/// and kernel computation is a fit: each solve's median time is
/// `states · a + patterns · b`, where `states` and `patterns`
/// (`kernel_misses · 2^E`) come from its `DpStats`; the frontier-bound K3 and
/// kernel-bound K4 solves determine `a` and `b`. With no replica, there is no
/// tracing overhead to report.
pub fn traced(seconds: f64, tr: &mut Tracer) -> Outcome {
    let insts = instances();
    let mut tally = Tally::default();
    let refs = references(&insts, &mut tally);
    let mut times = vec![Vec::new(); insts.len()];
    let budget = Budget::new(seconds, 2);
    let mut passes = 0;
    while budget.more(passes) {
        for (i, inst) in insts.iter().enumerate() {
            let span = tr.open("dp.sweep", i as u64);
            let report = inst.solve();
            times[i].push(tr.close(span) as f64);
            tally.record(report.is_some_and(|r| check(inst, &r, refs[i].as_ref())));
        }
        passes += 1;
    }
    let stats: Vec<DpStats> = refs
        .iter()
        .map(|r| r.as_ref().map(|r| r.stats).unwrap_or_default())
        .collect();
    let states: Vec<f64> = stats.iter().map(|s| s.states_visited as f64).collect();
    let patterns: Vec<f64> = insts
        .iter()
        .zip(&stats)
        .map(|(inst, s)| s.kernel_misses as f64 * (1u64 << (2 * inst.graph.edge_count())) as f64)
        .collect();
    let t: Vec<f64> = times.iter().map(|t| median(t)).collect();
    // Solve [states patterns] · [a b]ᵀ = t by Cramer's rule.
    let det = states[0] * patterns[1] - states[1] * patterns[0];
    let a = (t[0] * patterns[1] - t[1] * patterns[0]) / det;
    let b = (states[0] * t[1] - states[1] * t[0]) / det;
    let sum = |f: fn(&DpStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    Outcome {
        tally,
        metrics: vec![
            Metric::new("dp.frontier_ns_per_state", a, "ns"),
            Metric::new("dp.kernel_ns_per_pattern", b, "ns"),
            Metric::new("dp.states_visited", sum(|s| s.states_visited), "count"),
            Metric::new("dp.kernel_misses", sum(|s| s.kernel_misses), "count"),
            Metric::new(
                "dp.structural_states",
                sum(|s| s.structural_states),
                "count",
            ),
        ],
    }
}
