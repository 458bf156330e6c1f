//! Property-based tests of the model substrate.
//!
//! Strategy: generate random graphs and random runs, then assert the paper's
//! structural lemmas (flow transitivity, clipping, level monotonicity) and
//! the algebraic laws of the support types.

use ca_core::bitset::BitSet;
use ca_core::clip::{clip, is_clipped};
use ca_core::flow::FlowGraph;
use ca_core::graph::Graph;
use ca_core::ids::{ProcessId, Round};
use ca_core::level::{levels, modified_levels};
use ca_core::outcome::Outcome;
use ca_core::rational::Rational;
use ca_core::run::Run;
use proptest::prelude::*;

mod oracle;

/// Strategy: a small connected-ish graph (complete, ring, star, line) with
/// 2..=5 vertices.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (2usize..=5, 0u8..4).prop_map(|(m, kind)| match kind {
        0 => Graph::complete(m).expect("graph"),
        1 if m >= 3 => Graph::ring(m).expect("graph"),
        2 => Graph::star(m.max(2)).expect("graph"),
        _ => Graph::line(m).expect("graph"),
    })
}

/// Strategy: a run over the graph with horizon `n`, with each input and each
/// message slot kept according to a random bitmask.
fn run_strategy(n: u32) -> impl Strategy<Value = (Graph, Run)> {
    graph_strategy().prop_flat_map(move |g| {
        let slots: Vec<_> = Run::good(&g, n).messages().collect();
        let slot_count = slots.len();
        let m = g.len();
        (
            Just(g),
            proptest::collection::vec(any::<bool>(), m),
            proptest::collection::vec(any::<bool>(), slot_count),
        )
            .prop_map(move |(g, inputs, keeps)| {
                let mut run = Run::empty(g.len(), n);
                for (i, keep) in inputs.iter().enumerate() {
                    if *keep {
                        run.add_input(ProcessId::new(i as u32));
                    }
                }
                for (s, keep) in slots.iter().zip(&keeps) {
                    if *keep {
                        run.add_message(s.from, s.to, s.round);
                    }
                }
                (g, run)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 4.1: flows-to is transitive.
    #[test]
    fn flow_is_transitive((_g, run) in run_strategy(3)) {
        let flow = FlowGraph::new(&run);
        let m = run.process_count();
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    for (ri, rj, rk) in [(0u32, 1u32, 2u32), (0, 2, 3), (1, 2, 3)] {
                        let a = flow.flows_to(ProcessId::new(i as u32), Round::new(ri), ProcessId::new(j as u32), Round::new(rj));
                        let b = flow.flows_to(ProcessId::new(j as u32), Round::new(rj), ProcessId::new(k as u32), Round::new(rk));
                        let c = flow.flows_to(ProcessId::new(i as u32), Round::new(ri), ProcessId::new(k as u32), Round::new(rk));
                        if a && b {
                            prop_assert!(c, "transitivity violated: ({i},{ri})→({j},{rj})→({k},{rk})");
                        }
                    }
                }
            }
        }
    }

    /// Clipping is idempotent, produces sub-runs, and preserves L_i and ML_i
    /// (Lemma 4.2).
    #[test]
    fn clipping_laws((g, run) in run_strategy(3)) {
        for i in g.vertices() {
            let clipped = clip(&run, i);
            prop_assert!(clipped.is_subset(&run));
            prop_assert!(is_clipped(&clipped, i));
            prop_assert_eq!(levels(&run).level(i), levels(&clipped).level(i));
            prop_assert_eq!(modified_levels(&run).level(i), modified_levels(&clipped).level(i));
        }
    }

    /// Lemma 5.2: if L_i(R) = l > 0 then some process has level ≤ l-1 in
    /// Clip_i(R).
    #[test]
    fn clipped_run_has_lagging_process((g, run) in run_strategy(3)) {
        for i in g.vertices() {
            let l = levels(&run).level(i);
            if l > 0 {
                let clipped = clip(&run, i);
                let min = g.vertices().map(|k| levels(&clipped).level(k)).min().unwrap();
                prop_assert!(min < l, "Lemma 5.2: min {min} vs l {l}");
            }
        }
    }

    /// Levels are monotone in the run (more messages/inputs ⟹ levels not lower)
    /// and satisfy Lemmas 6.1 / 6.2.
    #[test]
    fn level_laws((g, run) in run_strategy(3)) {
        let l = levels(&run);
        let ml = modified_levels(&run);
        // Lemma 6.1.
        for i in g.vertices() {
            prop_assert!(ml.level(i) <= l.level(i));
            prop_assert!(l.level(i) <= ml.level(i) + 1);
        }
        // Lemma 6.2.
        let finals = ml.final_levels();
        let max = *finals.iter().max().unwrap();
        for v in &finals {
            prop_assert!(v + 1 >= max);
        }
        // Monotone in rounds.
        for i in g.vertices() {
            for r in 1..=3u32 {
                prop_assert!(l.level_at(i, Round::new(r)) >= l.level_at(i, Round::new(r - 1)));
            }
        }
        // Monotone in the run: the good run dominates.
        let good = levels(&Run::good(&g, 3));
        for i in g.vertices() {
            prop_assert!(good.level(i) >= l.level(i));
        }
    }

    /// The frontier's level tables and the dense gossip oracle both match
    /// the literal recursive definition at every (process, round).
    #[test]
    fn gossip_matches_definition((g, run) in run_strategy(2)) {
        let (l, ml) = (levels(&run), modified_levels(&run));
        let (dense, dense_m) = (oracle::dense_levels(&run, false), oracle::dense_levels(&run, true));
        for i in g.vertices() {
            for r in 0..=2u32 {
                let want = oracle::level_by_definition(&run, i, Round::new(r));
                let want_m = oracle::modified_level_by_definition(&run, i, Round::new(r));
                prop_assert_eq!(l.level_at(i, Round::new(r)), want);
                prop_assert_eq!(dense[i.index()][r as usize], want);
                prop_assert_eq!(ml.level_at(i, Round::new(r)), want_m);
                prop_assert_eq!(dense_m[i.index()][r as usize], want_m);
            }
        }
    }

    /// Forward and backward reachability agree.
    #[test]
    fn flow_duality((g, run) in run_strategy(3)) {
        let flow = FlowGraph::new(&run);
        for i in g.vertices() {
            let fwd = flow.reach_from(i, Round::new(0));
            for j in g.vertices() {
                let back = flow.reach_to(j, Round::new(3));
                prop_assert_eq!(fwd.contains(j, Round::new(3)), back.contains(i, Round::new(0)));
            }
        }
    }

    /// Outcome classification is total and consistent.
    #[test]
    fn outcome_classification(outputs in proptest::collection::vec(any::<bool>(), 1..8)) {
        let o = Outcome::classify(&outputs);
        let yes = outputs.iter().filter(|&&b| b).count();
        match o {
            Outcome::TotalAttack => prop_assert_eq!(yes, outputs.len()),
            Outcome::NoAttack => prop_assert_eq!(yes, 0),
            Outcome::PartialAttack => prop_assert!(yes > 0 && yes < outputs.len()),
        }
    }

    /// Rational arithmetic: field laws on small values.
    #[test]
    fn rational_laws(a in -50i128..50, b in 1i128..50, c in -50i128..50, d in 1i128..50) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(x * y, y * x);
        prop_assert_eq!(x + Rational::ZERO, x);
        prop_assert_eq!(x * Rational::ONE, x);
        prop_assert_eq!(x - x, Rational::ZERO);
        prop_assert_eq!((x + y) - y, x);
        if y != Rational::ZERO {
            prop_assert_eq!((x / y) * y, x);
        }
        prop_assert_eq!(x * (y + Rational::ONE), x * y + x);
    }

    /// BitSet behaves like a set of usize.
    #[test]
    fn bitset_model(ops in proptest::collection::vec((0usize..100, any::<bool>()), 0..50)) {
        let mut bs = BitSet::new(100);
        let mut model = std::collections::BTreeSet::new();
        for (x, insert) in ops {
            if insert {
                bs.insert(x);
                model.insert(x);
            } else {
                bs.remove(x);
                model.remove(&x);
            }
        }
        prop_assert_eq!(bs.len(), model.len());
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), model.into_iter().collect::<Vec<_>>());
    }

    /// The bit-packed run representation agrees with a reference
    /// `BTreeSet<MsgSlot>` model under arbitrary add/remove sequences —
    /// membership, count, canonical iteration order, per-round iteration —
    /// and a serde round trip preserves equality. Adds stay inside the
    /// matrix (the only slots a run holds); removes and queries also probe
    /// slots outside it (process ≥ m, round outside `1..=n`), which are
    /// never delivered.
    #[test]
    fn run_matches_btreeset_model(
        ops in proptest::collection::vec((0u32..6, 0u32..6, 0u32..6, any::<bool>()), 0..80)
    ) {
        let mut run = Run::empty(4, 3);
        let mut model = std::collections::BTreeSet::new();
        for (from, to, round, insert) in ops {
            let (f, t, r) = (ProcessId::new(from), ProcessId::new(to), Round::new(round));
            if insert {
                if from < 4 && to < 4 && (1..=3).contains(&round) {
                    run.add_message(f, t, r);
                    model.insert((from, to, round));
                }
            } else {
                prop_assert_eq!(run.remove_message(f, t, r), model.remove(&(from, to, round)));
            }
            prop_assert_eq!(run.delivers(f, t, r), model.contains(&(from, to, round)));
        }
        prop_assert_eq!(run.message_count(), model.len());
        let listed: Vec<_> = run.messages()
            .map(|s| (s.from.as_u32(), s.to.as_u32(), s.round.get()))
            .collect();
        let expected: Vec<_> = model.iter().copied().collect();
        prop_assert_eq!(&listed, &expected, "canonical (from, to, round) order");
        for r in 0..6u32 {
            let in_round: Vec<_> = run.messages_in_round(Round::new(r))
                .map(|s| (s.from.as_u32(), s.to.as_u32(), s.round.get()))
                .collect();
            let model_round: Vec<_> = expected.iter().copied()
                .filter(|&(_, _, sr)| sr == r)
                .collect();
            prop_assert_eq!(in_round, model_round, "round {} slots", r);
        }
        let back: Run = serde::json::from_str(&serde::json::to_string(&run).unwrap()).unwrap();
        prop_assert_eq!(back, run);
    }

    /// Runs: union is an upper bound; subset is a partial order.
    #[test]
    fn run_lattice((g, run) in run_strategy(2), (g2, run2) in run_strategy(2)) {
        // Only combine when dimensions agree.
        if g.len() == g2.len() {
            let u = run.union(&run2);
            prop_assert!(run.is_subset(&u));
            prop_assert!(run2.is_subset(&u));
            prop_assert!(u.is_subset(&u));
        } else {
            prop_assert!(!run.is_subset(&run2));
        }
    }
}
