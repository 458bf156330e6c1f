//! `mc`: `simulate` on E10's instance under an iid sampler (sliced engine)
//! and a Gilbert–Elliott sampler (scalar engine).

use crate::measure::{median, peak_rss_mb, repeated_setup_s, settle, timed, Budget, Metric, Tally};
use crate::trace::Tracer;
use crate::Outcome;
use ca_core::exec::{execute_outputs_into, ExecScratch};
use ca_core::exec_sliced::{SlicedEngine, SlicedSpec, LANES};
use ca_core::graph::Graph;
use ca_core::level::{min_modified_level_into, LevelScratch};
use ca_core::outcome::{Outcome as Verdict, OutcomeCounts};
use ca_core::protocol::Protocol;
use ca_core::run::Run;
use ca_core::tape::TapeSet;
use ca_protocols::ProtocolS;
use ca_sim::weak::{LossModel, WeakAdversary};
use ca_sim::{
    mix64, simulate, simulate_scalar, RunSampler, RunningStats, SimConfig, SimReport, SlicedSampler,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// E10's horizon.
pub const N: u32 = 24;
/// E10's firing range `t = 1/ε`.
pub const T: u64 = 12;
/// Trials per `simulate` call on the sliced (iid) half.
pub const IID_TRIALS: u64 = 1 << 16;
/// Trials per `simulate` call on the scalar (Gilbert–Elliott) half.
pub const GE_TRIALS: u64 = 4_096;
/// Trials of the sliced-versus-scalar prefix check.
const PREFIX_TRIALS: u64 = 512;

/// The workload's inputs.
#[derive(Debug)]
pub struct Inputs {
    /// K2.
    pub graph: Graph,
    /// Protocol S at ε = 1/12.
    pub protocol: ProtocolS,
    /// 10% iid loss: runs on the sliced engine.
    pub iid: WeakAdversary,
    /// The default atlas's bursty channel: runs on the scalar engine.
    pub ge: WeakAdversary,
}

/// Builds the inputs.
pub fn inputs() -> Inputs {
    let graph = Graph::complete(2).expect("K2 builds");
    let ge = LossModel::GilbertElliott {
        loss_good: 0.01,
        loss_bad: 0.5,
        good_to_bad: 0.05,
        bad_to_good: 0.25,
    };
    Inputs {
        protocol: ProtocolS::new(1.0 / T as f64),
        iid: WeakAdversary::new(&graph, N, LossModel::Iid { p: 0.1 }),
        ge: WeakAdversary::new(&graph, N, ge),
        graph,
    }
}

/// The two halves' `simulate` configs: `(sampler is iid, config)`.
fn configs(seed: u64) -> [(bool, SimConfig); 2] {
    [(true, IID_TRIALS), (false, GE_TRIALS)].map(|(iid, trials)| {
        let config = SimConfig {
            trials,
            seed: mix64(seed, u64::from(!iid)),
            threads: 1,
        };
        (iid, config)
    })
}

fn sampler(inputs: &Inputs, iid: bool) -> &WeakAdversary {
    if iid {
        &inputs.iid
    } else {
        &inputs.ge
    }
}

/// The checks every `simulate` report must pass: the tallies partition the
/// trials, Pr[PA] ≤ ε within z = 4 (Theorem 6.7 holds for every run, so for
/// any run distribution), and (after the warm-up) the report is the
/// reference's.
pub fn check(report: &SimReport, config: &SimConfig, reference: Option<&SimReport>) -> bool {
    let c = report.counts;
    report.trials == config.trials
        && c.total_attack + c.partial_attack + c.no_attack == config.trials
        && report.disagreement().wilson_interval(4.0).0 <= 1.0 / T as f64
        && reference.is_none_or(|r| r == report)
}

/// The byte-identity contract on a trial prefix: `simulate`'s report equals
/// `simulate_scalar`'s for both samplers.
pub fn check_prefix(inputs: &Inputs, seed: u64) -> bool {
    configs(seed).iter().all(|&(iid, config)| {
        let config = SimConfig {
            trials: PREFIX_TRIALS,
            ..config
        };
        let s = sampler(inputs, iid);
        simulate(&inputs.protocol, &inputs.graph, s, config)
            == simulate_scalar(&inputs.protocol, &inputs.graph, s, config)
    })
}

fn references(inputs: &Inputs, seed: u64, tally: &mut Tally) -> Vec<SimReport> {
    tally.record(check_prefix(inputs, seed));
    configs(seed)
        .iter()
        .map(|&(iid, config)| {
            let report = simulate(
                &inputs.protocol,
                &inputs.graph,
                sampler(inputs, iid),
                config,
            );
            settle();
            tally.record(check(&report, &config, None));
            report
        })
        .collect()
}

/// The untraced run: `setup_s` over repeated constructions, then
/// alternating `simulate` calls on the two halves until the budget is spent.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let setup_s = repeated_setup_s(inputs, 0.01, 15);
    let inputs = inputs();
    let mut tally = Tally::default();
    let refs = references(&inputs, seed, &mut tally);
    let configs = configs(seed);
    let mut walls = vec![Vec::new(); configs.len()];
    let budget = Budget::new(seconds, 3);
    let mut passes = 0;
    while budget.more(passes) {
        for (i, &(iid, config)) in configs.iter().enumerate() {
            let s = sampler(&inputs, iid);
            let (report, wall) = timed(|| simulate(&inputs.protocol, &inputs.graph, s, config));
            settle();
            tally.record(check(&report, &config, Some(&refs[i])));
            walls[i].push(wall);
        }
        passes += 1;
    }
    let per_pass: f64 = walls.iter().map(|w| median(w)).sum();
    let trials = (IID_TRIALS + GE_TRIALS) as f64;
    Outcome {
        tally,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", trials / per_pass, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
            Metric::new("ok_frac", 1.0 - tally.fail_frac(), "ratio"),
        ],
    }
}

fn empty_report(m: usize) -> SimReport {
    SimReport {
        counts: OutcomeCounts::new(),
        attacks: vec![0; m],
        trials: 0,
        ml: RunningStats::new(),
    }
}

/// The replica of `simulate`'s sliced path on one worker, with spans around
/// each group's lane fill (`begin_group`, the per-lane draws,
/// `destroy_slot_lane`, `set_rfire`) and its `run_group`. Returns the report
/// and the slots destroyed.
pub fn replica_sliced(inputs: &Inputs, config: SimConfig, tr: &mut Tracer) -> (SimReport, u64) {
    let m = inputs.graph.len();
    let spec = inputs.protocol.sliced_spec().expect("Protocol S slices");
    let Some(SlicedSampler::IidDrop { base, p }) = inputs.iid.sliced() else {
        panic!("iid loss slices as IidDrop");
    };
    let mut engine = SlicedEngine::new(base, spec).expect("E10's instance fits the engine");
    let slot_count = engine.slot_count();
    let mut report = empty_report(m);
    let mut destroyed = 0u64;
    let groups = config.trials.div_ceil(LANES as u64);
    for g in 0..groups {
        let group_span = tr.open("mc.group", g);
        let first = g * LANES as u64;
        let active = (config.trials - first).min(LANES as u64) as usize;
        let fill = tr.open("exec.lane_fill", g);
        engine.begin_group();
        for lane in 0..active {
            let mut rng = StdRng::seed_from_u64(mix64(config.seed, first + lane as u64));
            for slot in 0..slot_count {
                if rng.gen_bool(p) {
                    engine.destroy_slot_lane(slot, lane);
                    destroyed += 1;
                }
            }
            if let SlicedSpec::RandomFire { offset, t, .. } = spec {
                let unit = (rng.gen::<u64>() as f64 + 1.0) / 18_446_744_073_709_551_616.0; // 2^64
                engine.set_rfire(lane, offset + t * unit);
            }
        }
        tr.close(fill);
        let out = tr.leaf("exec.run_group", g, || engine.run_group());
        let live: u64 = if active == LANES {
            !0
        } else {
            (1u64 << active) - 1
        };
        let (mut ta, mut na) = (live, live);
        for (i, &attack) in out.attack.iter().enumerate() {
            ta &= attack;
            na &= !attack;
            report.attacks[i] += u64::from((attack & live).count_ones());
        }
        let (ta, na) = (u64::from(ta.count_ones()), u64::from(na.count_ones()));
        report.counts.total_attack += ta;
        report.counts.no_attack += na;
        report.counts.partial_attack += active as u64 - ta - na;
        for &ml in &out.min_count[..active] {
            report.ml.record(f64::from(ml));
        }
        report.trials += active as u64;
        tr.close(group_span);
    }
    (report, destroyed)
}

/// The replica of `simulate`'s scalar path on one worker, with spans around
/// each trial's run sampling, tape fill and execution. Returns the report and
/// the messages destroyed.
pub fn replica_scalar(inputs: &Inputs, config: SimConfig, tr: &mut Tracer) -> (SimReport, u64) {
    let (graph, protocol, sampler) = (&inputs.graph, &inputs.protocol, &inputs.ge);
    let m = graph.len();
    let j_bits = protocol.tape_bits().max(1);
    let good = Run::good(graph, N).message_count() as u64;
    let mut report = empty_report(m);
    let mut tapes = TapeSet::empty(m);
    let mut scratch = ExecScratch::new();
    let mut run = Run::empty(0, 0);
    let mut level_scratch = LevelScratch::new();
    let mut destroyed = 0u64;
    for t in 0..config.trials {
        let trial_span = tr.open("mc.trial", t);
        let mut rng = StdRng::seed_from_u64(mix64(config.seed, t));
        tr.leaf("run.sample", t, || sampler.sample_into(&mut run, &mut rng));
        destroyed += good - run.message_count() as u64;
        tr.leaf("tape.fill", t, || tapes.fill_random(&mut rng, j_bits));
        let outputs = tr.leaf("exec.scalar", t, || {
            execute_outputs_into(protocol, graph, &run, &tapes, &mut scratch)
        });
        report.counts.record(Verdict::classify(outputs));
        for (i, &o) in outputs.iter().enumerate() {
            report.attacks[i] += u64::from(o);
        }
        report
            .ml
            .record(f64::from(min_modified_level_into(&run, &mut level_scratch)));
        report.trials += 1;
        tr.close(trial_span);
    }
    (report, destroyed)
}

/// Per-pass layer times in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
struct Pass {
    lane_fill: f64,
    run_group: f64,
    group_rest: f64,
    sample: f64,
    tape: f64,
    exec: f64,
    trial_rest: f64,
}

/// The traced run: per pass, both halves through `simulate` and through
/// their replicas, for about `seconds` (at least two passes).
pub fn traced(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let inputs = inputs();
    let mut tally = Tally::default();
    let refs = references(&inputs, seed, &mut tally);
    let [(_, iid_config), (_, ge_config)] = configs(seed);
    let mut untraced = [Vec::new(), Vec::new()];
    let mut replica = [Vec::new(), Vec::new()];
    let mut layers: Vec<Pass> = Vec::new();
    let mut destroyed = 0u64;
    let budget = Budget::new(seconds, 2);
    let mut passes = 0;
    while budget.more(passes) {
        for (i, (iid, config)) in configs(seed).into_iter().enumerate() {
            let span = tr.open("mc.simulate", i as u64);
            let report = simulate(
                &inputs.protocol,
                &inputs.graph,
                sampler(&inputs, iid),
                config,
            );
            untraced[i].push(tr.close(span) as f64);
            tally.record(check(&report, &config, Some(&refs[i])));
        }
        let mark = tr.mark();
        let span = tr.open("mc.sliced_replica", 0);
        let (sliced, lost_iid) = replica_sliced(&inputs, iid_config, tr);
        replica[0].push(tr.close(span) as f64);
        let span = tr.open("mc.scalar_replica", 1);
        let (scalar, lost_ge) = replica_scalar(&inputs, ge_config, tr);
        replica[1].push(tr.close(span) as f64);
        // Each replica must reproduce `simulate`'s report exactly.
        tally.record(sliced == refs[0] && scalar == refs[1]);
        destroyed = lost_iid + lost_ge;
        let t = tr.totals(mark..tr.mark());
        let ns = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64);
        let self_ns = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64);
        layers.push(Pass {
            lane_fill: ns("exec.lane_fill"),
            run_group: ns("exec.run_group"),
            group_rest: self_ns("mc.group") + self_ns("mc.sliced_replica"),
            sample: ns("run.sample"),
            tape: ns("tape.fill"),
            exec: ns("exec.scalar"),
            trial_rest: self_ns("mc.trial") + self_ns("mc.scalar_replica"),
        });
        passes += 1;
    }
    let layer = |f: fn(&Pass) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let (iid_n, ge_n) = (IID_TRIALS as f64, GE_TRIALS as f64);
    let m = inputs.graph.len() as f64;
    let groups = IID_TRIALS.div_ceil(LANES as u64) as f64;
    let slots = (2 * inputs.graph.edge_count()) as f64 * f64::from(N);
    let words = m * inputs.protocol.tape_bits().div_ceil(64) as f64;
    let (sliced_ns, scalar_ns) = (median(&untraced[0]), median(&untraced[1]));
    let untraced_ns = sliced_ns + scalar_ns;
    let replica_ns = median(&replica[0]) + median(&replica[1]);
    let layer_sum = layer(|p| p.lane_fill)
        + layer(|p| p.run_group)
        + layer(|p| p.group_rest)
        + layer(|p| p.sample)
        + layer(|p| p.tape)
        + layer(|p| p.exec)
        + layer(|p| p.trial_rest);
    Outcome {
        tally,
        metrics: vec![
            Metric::new("mc.sliced_ns_per_trial", sliced_ns / iid_n, "ns"),
            Metric::new("mc.scalar_ns_per_trial", scalar_ns / ge_n, "ns"),
            Metric::new(
                "exec.sliced_ns_per_group",
                layer(|p| p.run_group) / groups,
                "ns",
            ),
            Metric::new(
                "exec.lane_fill_ns_per_trial",
                layer(|p| p.lane_fill) / iid_n,
                "ns",
            ),
            Metric::new(
                "exec.scalar_ns_per_transition",
                layer(|p| p.exec) / (ge_n * m * f64::from(N)),
                "ns",
            ),
            Metric::new(
                "tape.fill_ns_per_word",
                layer(|p| p.tape) / (ge_n * words),
                "ns",
            ),
            Metric::new(
                "run.sample_ns_per_slot",
                layer(|p| p.sample) / (ge_n * slots),
                "ns",
            ),
            Metric::new(
                "mc.destroyed_per_trial",
                destroyed as f64 / (iid_n + ge_n),
                "count",
            ),
            Metric::new("mc.trace_overhead", replica_ns / untraced_ns, "ratio"),
            Metric::new("mc.layer_sum_ratio", layer_sum / untraced_ns, "ratio"),
        ],
    }
}
