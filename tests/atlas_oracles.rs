//! Oracles for the `ca sweep` fast paths, in the tier-1 gate.
//!
//! The sweep's per-trial pipeline is three fast paths: the generators and
//! `Graph::diameter` behind each cell's set-up, the weak adversary's
//! word-chunked edge sampler, and the sparse level frontier over flat word
//! rows. Each is pinned here against a slow path written straight from its
//! contract:
//!
//! * the frontier against the dense gossip DP (the test oracle in
//!   `crates/ca-core/tests/oracle/mod.rs`) on multi-word rows (`m` around
//!   the 64- and 128-process word boundaries);
//! * generated edge lists against fingerprints recorded before the fast
//!   paths existed (the seed-determinism contract);
//! * the edge sampler against a `gen_bool` transcription of the draw-order
//!   contract, including the integer coin threshold at its boundaries;
//! * `Graph::diameter` against per-source BFS;
//! * the sweep's Lemma 6.4 classification against Protocol S executed on
//!   the same run with the same `rfire` coin.

use coordinated_attack::analysis::sweep::{run_sweep, ScenarioSweepConfig};
use coordinated_attack::core::exec::execute;
use coordinated_attack::core::graph::{generators, Graph, TopologySpec};
use coordinated_attack::core::ids::{ProcessId, Round};
use coordinated_attack::core::level::{
    level_extremes_into, modified_level_extremes_into, LevelScratch,
};
use coordinated_attack::core::outcome::Outcome;
use coordinated_attack::core::run::EdgeRun;
use coordinated_attack::core::tape::TapeSet;
use coordinated_attack::protocols::ProtocolS;
use coordinated_attack::sim::mix64;
use coordinated_attack::sim::weak::{LossModel, WeakAdversary};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

#[path = "../crates/ca-core/tests/oracle/mod.rs"]
mod oracle;
use oracle::{dense_levels, final_extremes};

const BURSTY: LossModel = LossModel::GilbertElliott {
    loss_good: 0.01,
    loss_bad: 0.5,
    good_to_bad: 0.05,
    bad_to_good: 0.25,
};

/// Generated graphs whose frontier rows straddle one, two and four words.
fn word_boundary_graphs() -> Vec<Graph> {
    let mut out = Vec::new();
    for (i, m) in [63usize, 64, 65, 127, 128, 129, 200]
        .into_iter()
        .enumerate()
    {
        let seed = i as u64 + 1;
        let degree = if m % 2 == 0 { 3 } else { 4 };
        out.push(generators::random_regular(m, degree, seed).expect("regular graph"));
        out.push(generators::watts_strogatz(m, 4, 0.2, seed).expect("small-world graph"));
        out.push(generators::barabasi_albert(m, 2, seed).expect("scale-free graph"));
    }
    out
}

/// Destroys each slot with probability `p` and each input with
/// probability `q`.
fn damage(er: &mut EdgeRun, p: f64, q: f64, rng: &mut StdRng) {
    er.reset_good();
    for e in 0..er.directed_edge_count() {
        for r in 1..=er.horizon() {
            if rng.gen_bool(p) {
                er.destroy(e, Round::new(r));
            }
        }
    }
    for i in 0..er.process_count() {
        if rng.gen_bool(q) {
            er.remove_input(ProcessId::new(i as u32));
        }
    }
}

#[test]
fn frontier_matches_the_dense_oracle_on_multi_word_rows() {
    let mut rng = StdRng::seed_from_u64(0xA71A5);
    let mut scratch = LevelScratch::new();
    for g in word_boundary_graphs() {
        // Three diameters of rounds: levels climb to 3+, so rows fill, reset
        // and fill again across every word, tail included.
        let n = 3 * g.diameter().expect("generated graphs are connected") + 2;
        let mut er = EdgeRun::good(&g, n);
        let mut top = 0;
        for (p, q) in [(0.0, 0.0), (0.05, 0.02), (0.3, 0.1)] {
            damage(&mut er, p, q, &mut rng);
            let dense = er.to_run();
            let l = final_extremes(&dense_levels(&dense, false));
            let ml = final_extremes(&dense_levels(&dense, true));
            assert_eq!(
                level_extremes_into(&er, &mut scratch),
                l,
                "L on {g} at N = {n}, p = {p}"
            );
            assert_eq!(
                modified_level_extremes_into(&er, &mut scratch),
                ml,
                "ML on {g} at N = {n}, p = {p}"
            );
            top = top.max(ml.1);
        }
        assert!(
            top >= 3,
            "{g}: levels must climb past one full row, got {top}"
        );
    }
}

/// Edge count plus a `mix64` fold of the sorted edge list.
fn fingerprint(g: &Graph) -> (usize, u64) {
    let hash = g.edges().iter().fold(g.edge_count() as u64, |h, &(a, b)| {
        mix64(h, (u64::from(a.as_u32()) << 32) | u64::from(b.as_u32()))
    });
    (g.edge_count(), hash)
}

#[test]
fn generated_edge_lists_match_their_recorded_fingerprints() {
    // Recorded from the generators as they stood before the membership-set
    // rewiring and the bit-parallel diameter; any change to a draw, a
    // rejection or a rewire answer moves these.
    let atlas = ScenarioSweepConfig::default_at(1000, 1, 0).topologies;
    assert_eq!(atlas.len(), 3, "grid, small world, scale free");
    let recorded = [
        (1935, 0x1d9f_da67_c071_17fc, 63),
        (3000, 0xb173_b868_10dd_7cdb, 11),
        (2994, 0xef04_ea42_955e_e097, 6),
    ];
    let small = [
        (
            TopologySpec::SmallWorld {
                m: 2048,
                k: 6,
                beta: 0.1,
                seed: 1,
            },
            (6144, 0xf9f2_8416_067a_4d9d, 12),
        ),
        (
            TopologySpec::RandomRegular {
                m: 64,
                degree: 4,
                seed: 7,
            },
            (128, 0x4063_ec7a_6298_2204, 5),
        ),
        (
            TopologySpec::RandomRegular {
                m: 129,
                degree: 4,
                seed: 3,
            },
            (258, 0x2ea3_5952_9875_7815, 6),
        ),
        (
            TopologySpec::SmallWorld {
                m: 65,
                k: 4,
                beta: 0.3,
                seed: 9,
            },
            (130, 0x0a51_83dd_798a_946f, 6),
        ),
        (
            TopologySpec::SmallWorld {
                m: 128,
                k: 6,
                beta: 0.5,
                seed: 2,
            },
            (384, 0x6231_9be6_de4e_f239, 5),
        ),
        (
            TopologySpec::SmallWorld {
                m: 200,
                k: 4,
                beta: 1.0,
                seed: 4,
            },
            (400, 0x2e4e_fa1e_7ecb_8f2e, 7),
        ),
        (
            TopologySpec::ScaleFree {
                m: 63,
                attach: 2,
                seed: 5,
            },
            (123, 0x5b11_6d7d_9b82_8f0e, 5),
        ),
        (
            TopologySpec::ScaleFree {
                m: 256,
                attach: 3,
                seed: 11,
            },
            (762, 0x2c3a_664f_57f8_932d, 5),
        ),
    ];
    let cases = atlas.into_iter().zip(recorded).chain(small);
    for (spec, (edges, hash, diameter)) in cases {
        let g = spec.build().expect("spec builds");
        assert_eq!(fingerprint(&g), (edges, hash), "{}", spec.name());
        assert_eq!(g.diameter(), Some(diameter), "{}", spec.name());
    }
}

/// The weak adversary's draw-order contract, transcribed with `gen_bool`:
/// link-major over the directed edges, rounds ascending; iid draws one coin
/// per slot, Gilbert–Elliott one stationarity coin per link and then a loss
/// coin and a transition coin per round.
fn reference_sample<R: Rng + ?Sized>(er: &mut EdgeRun, model: LossModel, rng: &mut R) -> u64 {
    er.reset_good();
    let mut lost = 0;
    for e in 0..er.directed_edge_count() {
        let mut destroy = |er: &mut EdgeRun, r: u32| {
            er.destroy(e, Round::new(r));
            lost += 1;
        };
        match model {
            LossModel::Iid { p } => {
                for r in 1..=er.horizon() {
                    if rng.gen_bool(p) {
                        destroy(er, r);
                    }
                }
            }
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                good_to_bad,
                bad_to_good,
            } => {
                let mut bad = rng.gen_bool(model.stationary_bad());
                for r in 1..=er.horizon() {
                    if rng.gen_bool(if bad { loss_bad } else { loss_good }) {
                        destroy(er, r);
                    }
                    bad = if bad {
                        !rng.gen_bool(bad_to_good)
                    } else {
                        rng.gen_bool(good_to_bad)
                    };
                }
            }
        }
    }
    lost
}

#[test]
fn edge_sampler_draws_the_contract_coins_per_seed() {
    let graphs = [
        Graph::ring(5).expect("ring"),
        Graph::grid(3, 4).expect("grid"),
        generators::watts_strogatz(65, 4, 0.3, 9).expect("small world"),
    ];
    let models = [
        LossModel::Iid { p: 0.0 },
        LossModel::Iid { p: 0.05 },
        LossModel::Iid { p: 0.3 },
        LossModel::Iid { p: 1.0 },
        BURSTY,
    ];
    for g in &graphs {
        // Slot counts that end mid-word and on a word boundary (ring5 has
        // 10 directed edges: 10 · 32 = 320 = 5 · 64).
        for n in [1, 3, 7, 32] {
            for model in models {
                let weak = WeakAdversary::new(g, n, model);
                let (mut fast, mut slow) = (weak.edge_template(), weak.edge_template());
                for seed in 0..12 {
                    let mut a = StdRng::seed_from_u64(seed);
                    let mut b = StdRng::seed_from_u64(seed);
                    let lost = weak.sample_edges_into(&mut fast, &mut a);
                    let expected = reference_sample(&mut slow, model, &mut b);
                    let at = format!("{g}, N = {n}, {}, seed {seed}", model.name());
                    assert_eq!(fast, slow, "{at}");
                    assert_eq!(lost, expected, "{at}");
                    assert_eq!(a, b, "the same number of draws, {at}");
                }
            }
        }
    }
}

/// An RNG that replays fixed words, so a test can aim coins at a threshold.
struct Script {
    words: Vec<u64>,
    next: usize,
}

impl RngCore for Script {
    fn next_u64(&mut self) -> u64 {
        let x = self.words[self.next % self.words.len()];
        self.next += 1;
        x
    }
}

/// Words whose 53-bit coin values sit at and around `p · 2⁵³`, with both
/// extremes of the 11 discarded bits, plus `extra` random words.
fn aimed_words(p: f64, extra: usize, rng: &mut StdRng) -> Vec<u64> {
    let top = (1u64 << 53) - 1;
    let k = (p * (1u64 << 53) as f64) as u64;
    let mut words = Vec::new();
    for coin in [0, 1, k.saturating_sub(1), k, k + 1, k + 2, top - 1, top] {
        let coin = coin.min(top);
        words.extend([coin << 11, (coin << 11) | 0x7ff]);
    }
    words.extend((0..extra).map(|_| rng.next_u64()));
    words
}

/// Samples one trial from `words` through the edge sampler and through the
/// `gen_bool` reference, on K2 with one slot per word.
fn assert_coins_match(p: f64, words: Vec<u64>) {
    let g = Graph::complete(2).expect("K2");
    let n = words.len().div_ceil(2) as u32;
    let weak = WeakAdversary::iid(&g, n, p);
    let (mut fast, mut slow) = (weak.edge_template(), weak.edge_template());
    let mut a = Script {
        words: words.clone(),
        next: 0,
    };
    let mut b = Script { words, next: 0 };
    weak.sample_edges_into(&mut fast, &mut a);
    reference_sample(&mut slow, LossModel::Iid { p }, &mut b);
    assert_eq!(a.next, b.next, "p = {p:e}: draw count");
    if fast != slow {
        let slot = (0..fast.directed_edge_count())
            .flat_map(|e| (1..=n).map(move |r| (e, Round::new(r))))
            .find(|&(e, r)| fast.delivers_edge(e, r) != slow.delivers_edge(e, r))
            .expect("a differing slot");
        panic!("p = {p:e}: the coin at slot {slot:?} differs from gen_bool");
    }
}

#[test]
fn integer_coin_threshold_equals_gen_bool() {
    let mut rng = StdRng::seed_from_u64(0xC011);
    let named = [
        0.0,
        1.0,
        0.05,
        0.1,
        1.0 - f64::EPSILON / 2.0, // 1 − 2⁻⁵³, the largest f64 below 1
        f64::MIN_POSITIVE / 4.0,  // subnormal
        f64::from_bits(1),        // the smallest subnormal
    ];
    for p in named {
        let words = aimed_words(p, 256, &mut rng);
        assert_coins_match(p, words);
    }
    for _ in 0..300 {
        // Uniform p, and p spread over every binade (subnormals included).
        let uniform: f64 = rng.gen();
        let spread = f64::from_bits(rng.next_u64() >> 2);
        for p in [uniform, spread] {
            if (0.0..=1.0).contains(&p) {
                let words = aimed_words(p, 64, &mut rng);
                assert_coins_match(p, words);
            }
        }
    }
}

/// The diameter by definition: the largest BFS distance from any source.
fn diameter_by_bfs(g: &Graph) -> Option<u32> {
    let mut best = 0;
    for v in g.vertices() {
        for d in g.bfs_distances(v) {
            best = best.max(d?);
        }
    }
    Some(best)
}

#[test]
fn diameter_equals_the_per_source_bfs_maximum() {
    let mut graphs = vec![
        Graph::ring(3).expect("ring"),
        Graph::ring(64).expect("ring"),
        Graph::ring(65).expect("ring"),
        Graph::ring(129).expect("ring"),
        Graph::line(2).expect("line"),
        Graph::line(130).expect("line"),
        Graph::grid(2, 3).expect("grid"),
        Graph::grid(7, 19).expect("grid"),
        Graph::star(70).expect("star"),
        Graph::complete(66).expect("complete"),
    ];
    graphs.extend(word_boundary_graphs());
    // Disconnected: two components, and a multi-word graph with one
    // isolated vertex past the second word boundary.
    graphs.push(Graph::new(4, &[(0, 1), (2, 3)]).expect("graph"));
    let path: Vec<(u32, u32)> = (0..129).map(|i| (i, i + 1)).collect();
    graphs.push(Graph::new(131, &path).expect("graph"));
    let mut disconnected = 0;
    for g in &graphs {
        let expected = diameter_by_bfs(g);
        assert_eq!(g.diameter(), expected, "{g}");
        disconnected += usize::from(expected.is_none());
    }
    assert_eq!(disconnected, 2);
}

#[test]
fn sweep_classes_equal_executed_protocol_s() {
    // Lemma 6.4 (Protocol S's counts equal ML) is the sweep's shortcut: it
    // classifies a trial from (min ML, max ML, u) without running the
    // protocol. Replay every trial and run the automaton instead.
    let config = ScenarioSweepConfig {
        topologies: vec![
            TopologySpec::RandomRegular {
                m: 10,
                degree: 3,
                seed: 4,
            },
            TopologySpec::SmallWorld {
                m: 16,
                k: 4,
                beta: 0.2,
                seed: 2,
            },
            TopologySpec::ScaleFree {
                m: 12,
                attach: 2,
                seed: 3,
            },
            TopologySpec::Grid { rows: 3, cols: 4 },
        ],
        adversaries: vec![LossModel::Iid { p: 0.15 }, BURSTY],
        t_curve: vec![1, 2, 3, 4, 8],
        trials: 48,
        seed: 0x5EED,
        horizon_slack: 3,
        threads: 1,
    };
    let report = run_sweep(&config).expect("sweep runs");
    let mut scratch = LevelScratch::new();
    let mut classes = [0usize; 3];
    for (c, cell) in report.cells.iter().enumerate() {
        let graph = cell.topology.build().expect("spec builds");
        let weak = WeakAdversary::new(&graph, cell.horizon, cell.adversary);
        let mut er = weak.edge_template();
        let mut tapes = TapeSet::empty(graph.len());
        let cell_seed = mix64(config.seed, c as u64);
        let mut tallies = vec![[0u64; 3]; config.t_curve.len()];
        for trial in 0..config.trials {
            // The sweep's draws: the slot coins, then one word for `u`. A
            // tape fill from the same point deals that word to the leader.
            let mut rng = StdRng::seed_from_u64(mix64(cell_seed, trial));
            weak.sample_edges_into(&mut er, &mut rng);
            tapes.fill_random(&mut rng, 64);
            let word = tapes.tape(ProcessId::LEADER).reader().draw_u64();
            let u = (word as f64 + 1.0) / 18_446_744_073_709_551_616.0; // 2^64
            let (lo, hi) = modified_level_extremes_into(&er, &mut scratch);
            let run = er.to_run();
            for (k, &t) in config.t_curve.iter().enumerate() {
                let protocol = ProtocolS::new(1.0 / f64::from(t));
                assert_eq!(protocol.t(), f64::from(t), "t = {t} round-trips ε");
                let rfire = f64::from(t) * u;
                let shortcut = if f64::from(lo) >= rfire {
                    Outcome::TotalAttack
                } else if f64::from(hi) < rfire {
                    Outcome::NoAttack
                } else {
                    Outcome::PartialAttack
                };
                let executed = execute(&protocol, &graph, &run, &tapes).outcome();
                assert_eq!(
                    executed, shortcut,
                    "{} × {}, trial {trial}, t = {t}: ML in [{lo}, {hi}], rfire = {rfire}",
                    cell.topology_name, cell.adversary_name
                );
                let class = match executed {
                    Outcome::TotalAttack => 0,
                    Outcome::PartialAttack => 1,
                    Outcome::NoAttack => 2,
                };
                tallies[k][class] += 1;
                classes[class] += 1;
            }
        }
        for (pt, tally) in cell.points.iter().zip(&tallies) {
            assert_eq!(
                [pt.ta.successes, pt.pa.successes, pt.na.successes],
                *tally,
                "{} × {} at t = {}: report vs executed tallies",
                cell.topology_name,
                cell.adversary_name,
                pt.t
            );
        }
    }
    assert!(
        classes.iter().all(|&n| n > 0),
        "every class must occur: {classes:?}"
    );
}
