//! Determinism golden tests: the Monte Carlo engine's results are a function
//! of `(protocol, graph, sampler, trials, seed)` only — never of the thread
//! count or scheduling.
//!
//! Trial `t` draws all its randomness from an RNG seeded
//! `mix64(seed, t)`, so whichever worker executes trial `t` produces the
//! same outcome, and the merged report is invariant under the static
//! partition of trials across workers.

use coordinated_attack::prelude::*;
use coordinated_attack::sim::RandomRun;

// `simulate` dispatches the Protocol S and threshold cases below through the
// bit-sliced engine (fixed-run and random-drop samplers); the random-run
// cases fall back to the scalar path. Both paths are covered by the same
// invariant, and tests/sliced_differential.rs additionally pins the two
// paths byte-identical to each other.

fn report_for_threads<P, S>(
    protocol: &P,
    graph: &Graph,
    sampler: &S,
    trials: u64,
    seed: u64,
    threads: usize,
) -> SimReport
where
    P: Protocol + Sync,
    S: coordinated_attack::sim::RunSampler,
{
    let config = SimConfig {
        trials,
        seed,
        threads,
    };
    simulate(protocol, graph, sampler, config)
}

fn assert_thread_invariant<P, S>(label: &str, protocol: &P, graph: &Graph, sampler: &S, seed: u64)
where
    P: Protocol + Sync,
    S: coordinated_attack::sim::RunSampler,
{
    let baseline = report_for_threads(protocol, graph, sampler, 600, seed, 1);
    for threads in [2usize, 8] {
        let report = report_for_threads(protocol, graph, sampler, 600, seed, threads);
        assert_eq!(
            baseline, report,
            "{label}: report at {threads} threads differs from the serial run"
        );
    }
}

#[test]
fn protocol_s_reports_are_thread_count_invariant() {
    let graph = Graph::complete(4).expect("graph");
    let proto = ProtocolS::new(1.0 / 8.0);
    assert_thread_invariant(
        "S/fixed-good",
        &proto,
        &graph,
        &FixedRun::new(Run::good(&graph, 6)),
        7,
    );
    assert_thread_invariant(
        "S/random-drop",
        &proto,
        &graph,
        &WeakAdversary::iid(&graph, 6, 0.3),
        11,
    );
    assert_thread_invariant(
        "S/random-run",
        &proto,
        &graph,
        &RandomRun::new(graph.clone(), 6, 0.8, 0.7),
        13,
    );
}

#[test]
fn protocol_a_reports_are_thread_count_invariant() {
    let graph = Graph::complete(2).expect("graph");
    let proto = ProtocolA::new(8);
    assert_thread_invariant(
        "A/fixed-good",
        &proto,
        &graph,
        &FixedRun::new(Run::good(&graph, 8)),
        17,
    );
    assert_thread_invariant(
        "A/random-drop",
        &proto,
        &graph,
        &WeakAdversary::iid(&graph, 8, 0.2),
        19,
    );
}

#[test]
fn sliced_threshold_reports_are_thread_count_invariant() {
    let graph = Graph::complete(3).expect("graph");
    let proto = FixedThreshold::new(5);
    assert_thread_invariant(
        "θ/fixed-good",
        &proto,
        &graph,
        &FixedRun::new(Run::good(&graph, 5)),
        23,
    );
    assert_thread_invariant(
        "θ/random-drop",
        &proto,
        &graph,
        &WeakAdversary::iid(&graph, 5, 0.4),
        29,
    );
}

#[test]
fn sliced_and_scalar_paths_agree_across_thread_counts() {
    // A direct cross-path golden: the serial scalar report is the oracle,
    // and the sliced path must reproduce it byte-for-byte at every width.
    let graph = Graph::complete(3).expect("graph");
    let proto = ProtocolS::new(0.25);
    let sampler = WeakAdversary::iid(&graph, 6, 0.3);
    let config = SimConfig {
        trials: 600,
        seed: 37,
        threads: 1,
    };
    let oracle = simulate_scalar(&proto, &graph, &sampler, config);
    for threads in [1usize, 2, 8] {
        let config = SimConfig { threads, ..config };
        let sliced = simulate_sliced(&proto, &graph, &sampler, config)
            .expect("Protocol S over iid loss supports the sliced path");
        assert_eq!(
            sliced, oracle,
            "sliced report at {threads} threads differs from the scalar oracle"
        );
    }
}
