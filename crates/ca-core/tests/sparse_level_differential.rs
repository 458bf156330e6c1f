//! Differential property tests: the sparse counting-automaton frontier
//! against the dense gossip DP, over random graphs (generated families
//! included) and random delivery patterns.
//!
//! The dense per-process level-vector table is the test-only oracle here
//! (`oracle/mod.rs`); the library computes levels only with the
//! `(count, seen)` frontier, both for the extremes
//! ([`ca_core::level::level_extremes_into`] and friends) and for the
//! per-round tables ([`ca_core::level::levels`]). See the `ca_core::level`
//! module docs and DESIGN.md §11 for why the compression is exact.

use ca_core::graph::{generators, Graph};
use ca_core::ids::{ProcessId, Round};
use ca_core::level::{
    level_extremes_into, levels, min_level_into, min_modified_level_into,
    modified_level_extremes_into, modified_levels, LevelScratch,
};
use ca_core::run::EdgeRun;
use proptest::prelude::*;

mod oracle;
use oracle::{dense_levels, final_extremes};

/// Strategy: a connected graph from the classic zoo or the generated
/// families (random-regular, Watts–Strogatz, Barabási–Albert), 2..=24
/// vertices. Generator seeds come from proptest, so shrinking explores the
/// seed space too.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (2usize..=24, 0u8..7, 0u64..1_000).prop_map(|(m, kind, seed)| match kind {
        0 => Graph::complete(m).expect("graph"),
        1 if m >= 3 => Graph::ring(m).expect("graph"),
        2 => Graph::star(m.max(2)).expect("graph"),
        3 => Graph::line(m).expect("graph"),
        4 if m >= 4 => {
            // Keep degree·m even and degree < m.
            let degree = if m % 2 == 0 { 3.min(m - 1) } else { 2 };
            generators::random_regular(m, degree, seed).expect("regular graph")
        }
        5 if m >= 6 => generators::watts_strogatz(m, 4, 0.3, seed).expect("ws graph"),
        6 if m >= 4 => generators::barabasi_albert(m, 2, seed).expect("ba graph"),
        _ => Graph::complete(m).expect("graph"),
    })
}

/// Strategy: an [`EdgeRun`] over the graph with horizon `n`, with random
/// inputs removed and each (edge, round) delivery destroyed per a random
/// mask.
fn edge_run_strategy(n: u32) -> impl Strategy<Value = EdgeRun> {
    graph_strategy().prop_flat_map(move |g| {
        let template = EdgeRun::good(&g, n);
        let slot_count = template.directed_edge_count() * n as usize;
        let m = g.len();
        (
            Just(template),
            proptest::collection::vec(any::<bool>(), m),
            proptest::collection::vec(any::<bool>(), slot_count),
        )
            .prop_map(move |(template, keep_inputs, kill)| {
                let mut er = template;
                for (i, keep) in keep_inputs.iter().enumerate() {
                    if !keep {
                        er.remove_input(ProcessId::new(i as u32));
                    }
                }
                let edges = er.directed_edge_count();
                for (slot, kill) in kill.iter().enumerate() {
                    if *kill {
                        er.destroy(slot % edges, Round::new(1 + (slot / edges) as u32));
                    }
                }
                er
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The frontier's run-wide minima equal the dense gossip DP's, for both
    /// plain and modified levels, on every sampled (graph, run).
    #[test]
    fn frontier_minima_match_dense_dp(er in edge_run_strategy(4)) {
        let dense = er.to_run();
        let mut scratch = LevelScratch::new();
        prop_assert_eq!(
            min_level_into(&er, &mut scratch),
            final_extremes(&dense_levels(&dense, false)).0
        );
        prop_assert_eq!(
            min_modified_level_into(&er, &mut scratch),
            final_extremes(&dense_levels(&dense, true)).0
        );
    }

    /// The frontier's (min, max) extremes and its per-round level tables
    /// equal the dense DP's, which materializes every vector: every
    /// (process, round) of `L` and `ML`.
    #[test]
    fn frontier_extremes_match_level_tables(er in edge_run_strategy(4)) {
        let dense = er.to_run();
        let mut scratch = LevelScratch::new();
        let (l, ml) = (dense_levels(&dense, false), dense_levels(&dense, true));
        prop_assert_eq!(level_extremes_into(&er, &mut scratch), final_extremes(&l));
        prop_assert_eq!(modified_level_extremes_into(&er, &mut scratch), final_extremes(&ml));
        let (table, table_m) = (levels(&dense), modified_levels(&dense));
        for i in 0..dense.process_count() {
            let p = ProcessId::new(i as u32);
            for r in 0..=dense.horizon() {
                prop_assert_eq!(table.level_at(p, Round::new(r)), l[i][r as usize]);
                prop_assert_eq!(table_m.level_at(p, Round::new(r)), ml[i][r as usize]);
            }
        }
    }

    /// The edge-keyed run converts losslessly: message counts agree with the
    /// dense run it expands to.
    #[test]
    fn edge_run_expands_losslessly(er in edge_run_strategy(3)) {
        let dense = er.to_run();
        prop_assert_eq!(er.message_count(), dense.message_count());
        prop_assert_eq!(er.process_count(), dense.process_count());
        prop_assert_eq!(er.horizon(), dense.horizon());
    }

    /// Scratch reuse across graphs of different sizes never leaks state:
    /// interleaving two differently-sized runs through one scratch gives the
    /// same answers as fresh scratches.
    #[test]
    fn scratch_reuse_is_sound(a in edge_run_strategy(3), b in edge_run_strategy(3)) {
        let mut shared = LevelScratch::new();
        let ab_shared = (
            modified_level_extremes_into(&a, &mut shared),
            modified_level_extremes_into(&b, &mut shared),
            modified_level_extremes_into(&a, &mut shared),
        );
        let mut fresh_a = LevelScratch::new();
        let mut fresh_b = LevelScratch::new();
        prop_assert_eq!(ab_shared.0, modified_level_extremes_into(&a, &mut fresh_a));
        prop_assert_eq!(ab_shared.1, modified_level_extremes_into(&b, &mut fresh_b));
        prop_assert_eq!(ab_shared.2, ab_shared.0);
    }

    /// Generator determinism as a law, not a spot check: the same
    /// (family, parameters, seed) always builds the identical graph.
    #[test]
    fn generators_are_seed_deterministic(m in 6usize..=32, seed in 0u64..10_000) {
        let a = generators::watts_strogatz(m, 4, 0.2, seed).expect("ws");
        let b = generators::watts_strogatz(m, 4, 0.2, seed).expect("ws");
        prop_assert_eq!(a, b);
        let a = generators::barabasi_albert(m, 2, seed).expect("ba");
        let b = generators::barabasi_albert(m, 2, seed).expect("ba");
        prop_assert_eq!(a, b);
        let degree = if m % 2 == 0 { 3 } else { 2 };
        let a = generators::random_regular(m, degree, seed).expect("rr");
        let b = generators::random_regular(m, degree, seed).expect("rr");
        prop_assert_eq!(a, b);
    }
}
