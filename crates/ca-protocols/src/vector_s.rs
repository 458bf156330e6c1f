//! `VectorS`: the uncompressed ablation of Protocol S.
//!
//! Protocol S compresses each process's knowledge into `(count, seen)` — a
//! counter plus one bit per process (Figure 1). The obvious alternative is
//! to gossip the *full vector* of per-process levels ("the highest level I
//! know each of you has reached") and recompute the modified level locally.
//! Behaviorally the two are identical — both compute `ML_i^r(R)` exactly and
//! fire on the same `rfire` — but the vector variant sends `Θ(m)` words per
//! message where S sends `Θ(m)` *bits*.
//!
//! This module exists as a designed-in ablation: the equivalence is proved
//! by tests (same outputs on the same tapes and runs), and experiment X3
//! (`ca expt x3`) quantifies what Figure 1's compression buys in bytes on
//! the wire.

use ca_core::ids::{ProcessId, Round};
use ca_core::protocol::{Ctx, Protocol};
use ca_core::tape::TapeReader;
use serde::{Deserialize, Serialize};

/// The uncompressed full-vector variant of Protocol S.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorS {
    epsilon: f64,
}

/// State: the gossip vector plus the Protocol S decision inputs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VectorState {
    /// `heard[k]` = highest level of process `k` whose attainment has flowed
    /// here (own entry = own level).
    pub heard: Vec<u32>,
    /// Whether the input has flowed here.
    pub valid: bool,
    /// Whether the leader's round-0 state (and thus `rfire`) has flowed here.
    pub rfire: Option<f64>,
}

/// Message: the entire state (full-information gossip).
pub type VectorMsg = VectorState;

impl VectorS {
    /// Creates the ablation protocol with agreement parameter `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1]`.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        VectorS { epsilon }
    }

    /// The agreement parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Recomputes this process's own level from the base condition and the
    /// heard vector (the `h > 1` clause of the ML definition).
    fn settle(state: &mut VectorState, id: ProcessId) {
        let me = id.index();
        if state.valid && state.rfire.is_some() && state.heard[me] == 0 {
            state.heard[me] = 1;
        }
        let min_other = state
            .heard
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != me)
            .map(|(_, &v)| v)
            .min()
            .expect("m >= 2");
        if min_other >= 1 && min_other + 1 > state.heard[me] {
            state.heard[me] = min_other + 1;
        }
    }
}

impl Protocol for VectorS {
    type State = VectorState;
    type Msg = VectorMsg;

    fn name(&self) -> &'static str {
        "vector-S"
    }

    fn tape_bits(&self) -> usize {
        64
    }

    fn init(&self, ctx: Ctx<'_>, received_input: bool, tape: &mut TapeReader<'_>) -> VectorState {
        let rfire = if ctx.id == ProcessId::LEADER {
            Some((1.0 / self.epsilon) * tape.draw_unit())
        } else {
            None
        };
        let mut state = VectorState {
            heard: vec![0; ctx.m()],
            valid: received_input,
            rfire,
        };
        if state.valid && state.rfire.is_some() {
            state.heard[ctx.id.index()] = 1;
        }
        state
    }

    fn message(&self, _ctx: Ctx<'_>, state: &VectorState, _to: ProcessId) -> VectorMsg {
        state.clone()
    }

    fn transition(
        &self,
        ctx: Ctx<'_>,
        state: &VectorState,
        _round: Round,
        received: &[(ProcessId, VectorMsg)],
        _tape: &mut TapeReader<'_>,
    ) -> VectorState {
        let mut next = state.clone();
        for (_, msg) in received {
            for (mine, theirs) in next.heard.iter_mut().zip(&msg.heard) {
                *mine = (*mine).max(*theirs);
            }
            next.valid |= msg.valid;
            if next.rfire.is_none() {
                next.rfire = msg.rfire;
            }
        }
        Self::settle(&mut next, ctx.id);
        next
    }

    fn output(&self, ctx: Ctx<'_>, state: &VectorState) -> bool {
        match state.rfire {
            Some(rfire) => state.heard[ctx.id.index()] as f64 >= rfire,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolS;
    use ca_core::exec::execute;
    use ca_core::graph::Graph;
    use ca_core::level::modified_levels;
    use ca_core::run::Run;
    use ca_core::tape::TapeSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn vector_level_tracks_ml() {
        let g = Graph::ring(4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let proto = VectorS::new(0.25);
        for _ in 0..30 {
            let mut run = Run::good(&g, 5);
            let slots: Vec<_> = run.messages().collect();
            for s in slots {
                if rng.gen_bool(0.4) {
                    run.remove_message(s.from, s.to, s.round);
                }
            }
            let tapes = TapeSet::random(&mut rng, 4, 64);
            let ex = execute(&proto, &g, &run, &tapes);
            let ml = modified_levels(&run);
            for i in g.vertices() {
                assert_eq!(
                    ex.local(i).states[5].heard[i.index()],
                    ml.level(i),
                    "vector level != ML at {i} in {run:?}"
                );
            }
        }
    }

    #[test]
    fn equivalent_to_protocol_s_on_same_tapes() {
        // Same ε, same tapes (so the same rfire), same runs ⟹ identical
        // output vectors: the compression is lossless.
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let s = ProtocolS::new(0.2);
        let v = VectorS::new(0.2);
        for _ in 0..50 {
            let mut run = Run::good(&g, 4);
            for i in g.vertices() {
                if rng.gen_bool(0.3) {
                    run.remove_input(i);
                }
            }
            let slots: Vec<_> = run.messages().collect();
            for slot in slots {
                if rng.gen_bool(0.45) {
                    run.remove_message(slot.from, slot.to, slot.round);
                }
            }
            let tapes = TapeSet::random(&mut rng, 3, 64);
            let out_s = execute(&s, &g, &run, &tapes).outputs();
            let out_v = execute(&v, &g, &run, &tapes).outputs();
            assert_eq!(out_s, out_v, "ablation diverged on {run:?}");
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1]")]
    fn rejects_bad_epsilon() {
        VectorS::new(2.0);
    }
}
