//! The benchmark's own tests:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The test that runs every workload end to end is skipped in debug builds.

use ca_analysis::sweep::{run_sweep, ScenarioSweepConfig};
use ca_async::serve::run_serve;
use ca_core::graph::{Graph, TopologySpec};
use ca_core::rational::Rational;
use ca_sim::weak::LossModel;
use ca_sim::{simulate, SimConfig};
use perfbench::measure::{result_json, Tally};
use perfbench::trace::Tracer;
use perfbench::{atlas, exact, mc, serve, Workload};
use serde::json::Value;

const BURSTY: LossModel = LossModel::GilbertElliott {
    loss_good: 0.01,
    loss_bad: 0.5,
    good_to_bad: 0.05,
    bad_to_good: 0.25,
};

fn one_cell(topology: TopologySpec, adversary: LossModel, trials: u64) -> ScenarioSweepConfig {
    ScenarioSweepConfig {
        topologies: vec![topology],
        adversaries: vec![adversary],
        trials,
        threads: 1,
        ..ScenarioSweepConfig::default_at(48, trials, 11)
    }
}

#[test]
fn atlas_replica_equals_run_sweep() {
    let mut configs: Vec<ScenarioSweepConfig> = [LossModel::Iid { p: 0.05 }, BURSTY]
        .into_iter()
        .map(|a| one_cell(TopologySpec::near_square_grid(48), a, 40))
        .collect();
    // One real cell of the workload, at a few trials.
    let mut scale_free = atlas::cell_configs(atlas::Loss::Iid, 5).remove(2);
    scale_free.trials = 4;
    configs.push(scale_free);
    for config in &configs {
        let report = run_sweep(config).expect("sweep runs");
        let mut tr = Tracer::new();
        let (cell, lost) = atlas::replica_cell(config, 0, &mut tr);
        assert_eq!(report.cells, vec![cell], "{config:?}");
        assert!(lost > 0);
        let totals = tr.totals(0..tr.mark());
        for name in ["sweep.trial", "weak.sample", "level.frontier"] {
            assert_eq!(totals[name].count, config.trials, "{name}");
        }
        assert_eq!(totals["graph.build"].count, 1);
    }
}

#[test]
fn mc_replicas_equal_simulate() {
    let inputs = mc::inputs();
    // 700 trials: ten full lane groups and one partial one.
    let config = SimConfig {
        trials: 700,
        seed: 5,
        threads: 1,
    };
    let mut tr = Tracer::new();
    let (sliced, _) = mc::replica_sliced(&inputs, config, &mut tr);
    assert_eq!(
        sliced,
        simulate(&inputs.protocol, &inputs.graph, &inputs.iid, config)
    );
    let (scalar, destroyed) = mc::replica_scalar(&inputs, config, &mut tr);
    assert_eq!(
        scalar,
        simulate(&inputs.protocol, &inputs.graph, &inputs.ge, config)
    );
    assert!(destroyed > 0);
    assert!(mc::check_prefix(&inputs, 5));
}

#[test]
fn serve_replica_equals_run_serve() {
    let config = serve::config(9);
    let report = run_serve(&config).expect("the smoke preset runs");
    assert!(serve::check(&report, Some(&report)));
    let graph = Graph::complete(config.m).expect("K_m builds");
    let mut tr = Tracer::new();
    for (k, shard) in report.shards.iter().enumerate() {
        let r = serve::replica_shard(&graph, &config, k, &mut tr);
        assert_eq!(
            (
                r.instances,
                r.shed,
                r.decided,
                r.timed_out,
                r.undecided,
                r.failed
            ),
            (
                shard.instances,
                shard.shed,
                shard.decided,
                shard.timed_out,
                shard.undecided,
                shard.failed
            )
        );
        assert_eq!(
            (r.retries, r.attempts, r.sent, r.delivered),
            (shard.retries, shard.attempts, shard.sent, shard.delivered)
        );
        assert_eq!(r.verdicts, shard.verdicts);
        assert_eq!(r.decision_ticks.sum, shard.decision_ticks.sum);
        assert_eq!(r.makespan, shard.makespan);
    }
}

#[test]
fn a_forced_check_failure_is_counted() {
    let mut tally = Tally::default();

    let config = one_cell(TopologySpec::Ring { m: 12 }, LossModel::Iid { p: 0.1 }, 30);
    let good = run_sweep(&config).expect("sweep runs");
    let mut bad = good.clone();
    bad.cells[0].points[0].ta.successes += 1;
    tally.record(atlas::check(&good, Some(&good)));
    tally.record(atlas::check(&bad, Some(&good)));

    let inst = exact::Instance::complete(2, 8);
    let good = inst.solve().expect("K2 solves");
    let mut bad = good.clone();
    bad.u_s = Rational::new(1, 7);
    tally.record(exact::check(&inst, &good, Some(&good)));
    tally.record(exact::check(&inst, &bad, Some(&good)));

    let inputs = mc::inputs();
    let config = SimConfig {
        trials: 256,
        seed: 2,
        threads: 1,
    };
    let good = simulate(&inputs.protocol, &inputs.graph, &inputs.ge, config);
    let mut bad = good.clone();
    bad.counts.partial_attack = 200;
    tally.record(mc::check(&good, &config, Some(&good)));
    tally.record(mc::check(&bad, &config, Some(&good)));

    let good = run_serve(&serve::config(4)).expect("the smoke preset runs");
    let mut bad = good.clone();
    bad.totals.shed += 1;
    tally.record(serve::check(&good, Some(&good)));
    tally.record(serve::check(&bad, Some(&good)));

    assert_eq!((tally.attempted, tally.failed), (8, 4));
    assert_eq!(tally.fail_frac(), 0.5);
    assert!(
        result_json(tally, &[]).starts_with("{\"correct\": false, \"attempted\": 8, \"failed\": 4")
    );
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde::json::parse(&text).expect("BENCHMARK.json parses")
}

fn text(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

fn listed(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| (text(m.get("name")), text(m.get("unit"))))
        .collect()
}

#[test]
fn workloads_match_benchmark_json() {
    let listed: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("a workload list")
        .iter()
        .map(|w| text(w.get("name")))
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(ours, listed);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs every workload; use --release")]
fn printed_metrics_match_benchmark_json() {
    for w in Workload::ALL {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let spans = format!("{}/spans-{}.tsv", env!("CARGO_TARGET_TMPDIR"), w.name());
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w.name(), "--seed", "3", "--seconds", "0.1"])
                .args(["--trace", trace, "--spans", &spans])
                .output()
                .expect("the benchmark runs");
            assert!(out.status.success(), "{} --trace {trace}", w.name());
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let result = serde::json::parse(stdout.lines().last().expect("a result line"))
                .expect("the result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{}",
                w.name()
            );
            let printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("a metrics object")
                .iter()
                .map(|(name, m)| (name.clone(), text(m.get("unit"))))
                .collect();
            assert_eq!(printed, listed(key), "{} --trace {trace}", w.name());
            if trace == "1" {
                let tsv = std::fs::read_to_string(&spans).expect("spans were written");
                assert!(tsv.lines().count() > 100, "{}", w.name());
            }
        }
    }
}
