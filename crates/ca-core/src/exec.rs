//! The execution generator `Ex(R, α)`.
//!
//! Given a protocol `F`, a graph, a run `R`, and a tape vector `α`, the
//! execution is fully determined: round 0 sets the start states from `I(R)`,
//! then each round every process sends `σ_i(q_i^{r-1}, j)` to every neighbor
//! `j`, the run decides which messages arrive, and states advance via
//! `δ_i`. Outputs are read from the final states.
//!
//! [`execute`] records the entire execution (states, messages, outputs) for
//! analysis and for checking indistinguishability; [`execute_outputs`] is the
//! allocation-light fast path used by the Monte Carlo engine.

use crate::graph::Graph;
use crate::ids::{ProcessId, Round};
use crate::outcome::Outcome;
use crate::protocol::{Ctx, Protocol};
use crate::run::Run;
use crate::tape::TapeSet;
use std::fmt;

/// One process's view of an execution: `E_i` in the paper.
#[derive(Clone)]
pub struct LocalExecution<P: Protocol> {
    /// States `q_i^0 .. q_i^N`.
    pub states: Vec<P::State>,
    /// Messages received each round: `received[r]` holds round `r`'s
    /// deliveries (index 0 is always empty), each sorted by sender.
    pub received: Vec<Vec<(ProcessId, P::Msg)>>,
    /// Messages sent each round: `sent[r]` holds `(to, msg)` pairs
    /// (index 0 is always empty).
    pub sent: Vec<Vec<(ProcessId, P::Msg)>>,
    /// The output bit `O_i`.
    pub output: bool,
}

impl<P: Protocol> PartialEq for LocalExecution<P> {
    fn eq(&self, other: &Self) -> bool {
        self.states == other.states
            && self.received == other.received
            && self.sent == other.sent
            && self.output == other.output
    }
}

impl<P: Protocol> fmt::Debug for LocalExecution<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalExecution")
            .field("states", &self.states)
            .field("output", &self.output)
            .finish()
    }
}

/// A complete execution `Ex(R, α)`: a vector of local executions.
#[derive(Clone)]
pub struct Execution<P: Protocol> {
    locals: Vec<LocalExecution<P>>,
}

impl<P: Protocol> Execution<P> {
    /// The local execution of process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn local(&self, i: ProcessId) -> &LocalExecution<P> {
        &self.locals[i.index()]
    }

    /// The output vector `(O_i)`.
    pub fn outputs(&self) -> Vec<bool> {
        self.locals.iter().map(|l| l.output).collect()
    }

    /// The outcome classification of this execution.
    pub fn outcome(&self) -> Outcome {
        let outputs = self.outputs();
        Outcome::classify(&outputs)
    }

    /// Returns whether this execution and `other` are *identical to* `i`
    /// (`E_i = Ẽ_i`): same states, same received messages, same sent
    /// messages, same output.
    pub fn identical_to(&self, other: &Execution<P>, i: ProcessId) -> bool {
        self.local(i) == other.local(i)
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.locals.len()
    }

    /// Returns whether the execution has no processes (never true).
    pub fn is_empty(&self) -> bool {
        self.locals.is_empty()
    }
}

impl<P: Protocol> fmt::Debug for Execution<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Execution")
            .field("outputs", &self.outputs())
            .finish()
    }
}

/// Generates the full execution `Ex(R, α)`, recording states and messages.
///
/// # Panics
///
/// Panics if dimensions disagree (graph vs. run vs. tapes) or if a protocol
/// draws more tape bits than [`Protocol::tape_bits`] provided.
pub fn execute<P: Protocol>(
    protocol: &P,
    graph: &Graph,
    run: &Run,
    tapes: &TapeSet,
) -> Execution<P> {
    check_dimensions(graph, run, tapes);
    let m = graph.len();
    let n = run.horizon();

    let mut readers: Vec<_> = graph.vertices().map(|i| tapes.tape(i).reader()).collect();

    // Round 0: start states.
    let mut locals: Vec<LocalExecution<P>> = graph
        .vertices()
        .map(|i| {
            let ctx = Ctx::new(graph, n, i);
            let state = protocol.init(ctx, run.has_input(i), &mut readers[i.index()]);
            LocalExecution {
                states: vec![state],
                received: vec![Vec::new()],
                sent: vec![Vec::new()],
                output: false,
            }
        })
        .collect();

    // Rounds 1..=N.
    for r in Round::protocol_rounds(n) {
        // Generate all messages from end-of-previous-round states.
        let mut inboxes: Vec<Vec<(ProcessId, P::Msg)>> = vec![Vec::new(); m];
        for i in graph.vertices() {
            let ctx = Ctx::new(graph, n, i);
            let state = locals[i.index()]
                .states
                .last()
                .expect("state history nonempty");
            let mut sent = Vec::with_capacity(graph.neighbors(i).len());
            for &j in graph.neighbors(i) {
                let msg = protocol.message(ctx, state, j);
                if run.delivers(i, j, r) {
                    inboxes[j.index()].push((i, msg.clone()));
                }
                sent.push((j, msg));
            }
            locals[i.index()].sent.push(sent);
        }
        // Deliver and transition.
        for j in graph.vertices() {
            let ctx = Ctx::new(graph, n, j);
            let mut inbox = std::mem::take(&mut inboxes[j.index()]);
            inbox.sort_by_key(|(from, _)| *from);
            let state = {
                let prev = locals[j.index()]
                    .states
                    .last()
                    .expect("state history nonempty");
                protocol.transition(ctx, prev, r, &inbox, &mut readers[j.index()])
            };
            locals[j.index()].states.push(state);
            locals[j.index()].received.push(inbox);
        }
    }

    // Outputs.
    for i in graph.vertices() {
        let ctx = Ctx::new(graph, n, i);
        let state = locals[i.index()]
            .states
            .last()
            .expect("state history nonempty");
        locals[i.index()].output = protocol.output(ctx, state);
    }

    Execution { locals }
}

/// Reusable buffers for [`execute_outputs_into`].
///
/// The Monte Carlo engine runs millions of executions back to back; a
/// scratch threaded through the per-trial loop lets every trial reuse the
/// state, inbox, and output buffers of the previous one instead of
/// allocating fresh `Vec`s. A scratch is tied to nothing: the same value can
/// serve runs of different sizes, graphs, and horizons in any order.
pub struct ExecScratch<P: Protocol> {
    states: Vec<P::State>,
    inboxes: Vec<Vec<(ProcessId, P::Msg)>>,
    tape_pos: Vec<usize>,
    outputs: Vec<bool>,
}

impl<P: Protocol> ExecScratch<P> {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        ExecScratch {
            states: Vec::new(),
            inboxes: Vec::new(),
            tape_pos: Vec::new(),
            outputs: Vec::new(),
        }
    }
}

impl<P: Protocol> Default for ExecScratch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> fmt::Debug for ExecScratch<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecScratch")
            .field("processes", &self.states.len())
            .finish()
    }
}

/// Runs the execution and returns only the output vector — the fast path for
/// Monte Carlo sampling (no trace recording).
///
/// Equivalent to [`execute_outputs_into`] with a fresh scratch; hot loops
/// should hold a scratch and call that instead.
///
/// # Panics
///
/// Panics under the same conditions as [`execute`].
pub fn execute_outputs<P: Protocol>(
    protocol: &P,
    graph: &Graph,
    run: &Run,
    tapes: &TapeSet,
) -> Vec<bool> {
    let mut scratch = ExecScratch::new();
    execute_outputs_into(protocol, graph, run, tapes, &mut scratch);
    scratch.outputs
}

/// [`execute_outputs`] with caller-provided buffers: writes the output
/// vector into `scratch` and returns it as a slice, allocating nothing once
/// the scratch has warmed up.
///
/// The produced outputs are identical to [`execute_outputs`] — the scratch
/// only changes where intermediate state lives, never what is computed.
///
/// # Panics
///
/// Panics under the same conditions as [`execute`].
pub fn execute_outputs_into<'s, P: Protocol>(
    protocol: &P,
    graph: &Graph,
    run: &Run,
    tapes: &TapeSet,
    scratch: &'s mut ExecScratch<P>,
) -> &'s [bool] {
    execute_outputs_impl(protocol, graph, run, tapes, scratch, None)
}

/// [`execute_outputs_into`] reporting per-execution engine counters
/// (transitions, messages delivered/destroyed, tape bits consumed) to an
/// observability sink.
///
/// Computes exactly what [`execute_outputs_into`] computes; with the `obs`
/// feature off the extra argument is zero-sized and the whole instrumentation
/// folds away.
///
/// # Panics
///
/// Panics under the same conditions as [`execute`].
pub fn execute_outputs_observed<'s, P: Protocol>(
    protocol: &P,
    graph: &Graph,
    run: &Run,
    tapes: &TapeSet,
    scratch: &'s mut ExecScratch<P>,
    obs: &ca_obs::Metrics,
) -> &'s [bool] {
    execute_outputs_impl(protocol, graph, run, tapes, scratch, Some(obs))
}

fn execute_outputs_impl<'s, P: Protocol>(
    protocol: &P,
    graph: &Graph,
    run: &Run,
    tapes: &TapeSet,
    scratch: &'s mut ExecScratch<P>,
    obs: Option<&ca_obs::Metrics>,
) -> &'s [bool] {
    let _span = obs.map(|o| o.span(ca_obs::SpanId::ExecExecute));
    check_dimensions(graph, run, tapes);
    let m = graph.len();
    let n = run.horizon();
    let mut delivered: u64 = 0;

    // Tape read positions persist across rounds; readers are reconstructed
    // per use so the scratch stays free of borrows into `tapes`.
    scratch.tape_pos.clear();
    scratch.tape_pos.resize(m, 0);

    scratch.states.clear();
    for i in graph.vertices() {
        let mut reader = tapes.tape(i).reader();
        let state = protocol.init(Ctx::new(graph, n, i), run.has_input(i), &mut reader);
        scratch.tape_pos[i.index()] = reader.bits_consumed();
        scratch.states.push(state);
    }

    if scratch.inboxes.len() != m {
        scratch.inboxes.resize_with(m, Vec::new);
    }

    for r in Round::protocol_rounds(n) {
        for inbox in scratch.inboxes.iter_mut() {
            inbox.clear();
        }
        let states = &scratch.states;
        let inboxes = &mut scratch.inboxes;
        run.messages_in_round(r).for_each(|slot| {
            let ctx = Ctx::new(graph, n, slot.from);
            let msg = protocol.message(ctx, &states[slot.from.index()], slot.to);
            inboxes[slot.to.index()].push((slot.from, msg));
            delivered += 1;
        });
        for j in graph.vertices() {
            // `messages_in_round` yields slots sorted by (from, to), so each
            // inbox is filled in sender order already — no sort needed.
            debug_assert!(
                scratch.inboxes[j.index()]
                    .windows(2)
                    .all(|w| w[0].0 <= w[1].0),
                "inbox fill order must follow the canonical slot order"
            );
            let mut reader = tapes.tape(j).reader_at(scratch.tape_pos[j.index()]);
            scratch.states[j.index()] = protocol.transition(
                Ctx::new(graph, n, j),
                &scratch.states[j.index()],
                r,
                &scratch.inboxes[j.index()],
                &mut reader,
            );
            scratch.tape_pos[j.index()] = reader.bits_consumed();
        }
    }

    scratch.outputs.clear();
    scratch.outputs.extend(
        graph
            .vertices()
            .map(|i| protocol.output(Ctx::new(graph, n, i), &scratch.states[i.index()])),
    );

    if let Some(o) = obs {
        use ca_obs::{CounterId, HistId};
        // One δ application per process per protocol round.
        o.add(CounterId::ExecTransitions, (m as u64) * u64::from(n));
        o.add(CounterId::ExecMessagesDelivered, delivered);
        // Potential slots = directed edges × rounds; the adversary destroyed
        // whatever was not delivered.
        let slots = (graph.edge_count() as u64) * 2 * u64::from(n);
        o.add(CounterId::ExecMessagesDestroyed, slots - delivered);
        let bits: u64 = scratch.tape_pos.iter().map(|&p| p as u64).sum();
        o.add(CounterId::ExecTapeBitsConsumed, bits);
        o.record(HistId::ExecDeliveredPerTrial, delivered);
    }
    &scratch.outputs
}

fn check_dimensions(graph: &Graph, run: &Run, tapes: &TapeSet) {
    assert_eq!(
        graph.len(),
        run.process_count(),
        "graph and run disagree on process count"
    );
    assert_eq!(
        graph.len(),
        tapes.len(),
        "graph and tape set disagree on process count"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::TapeReader;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A deterministic "flood the input" protocol used to exercise the
    /// engine: state = has the input reached me (directly or via gossip);
    /// output = state.
    struct Flood;

    impl Protocol for Flood {
        type State = bool;
        type Msg = bool;

        fn name(&self) -> &'static str {
            "flood"
        }
        fn tape_bits(&self) -> usize {
            0
        }
        fn init(&self, _ctx: Ctx<'_>, received_input: bool, _tape: &mut TapeReader<'_>) -> bool {
            received_input
        }
        fn message(&self, _ctx: Ctx<'_>, state: &bool, _to: ProcessId) -> bool {
            *state
        }
        fn transition(
            &self,
            _ctx: Ctx<'_>,
            state: &bool,
            _round: Round,
            received: &[(ProcessId, bool)],
            _tape: &mut TapeReader<'_>,
        ) -> bool {
            *state || received.iter().any(|(_, m)| *m)
        }
        fn output(&self, _ctx: Ctx<'_>, state: &bool) -> bool {
            *state
        }
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn tapes(m: usize) -> TapeSet {
        let mut rng = StdRng::seed_from_u64(1);
        TapeSet::random(&mut rng, m, 64)
    }

    #[test]
    fn flood_reaches_everyone_on_good_run() {
        let g = Graph::line(4).unwrap();
        let run = Run::good_with_inputs(&g, 3, &[p(0)]);
        let ex = execute(&Flood, &g, &run, &tapes(4));
        assert_eq!(ex.outputs(), vec![true, true, true, true]);
        assert_eq!(ex.outcome(), Outcome::TotalAttack);
    }

    #[test]
    fn flood_blocked_by_cut() {
        let g = Graph::line(4).unwrap();
        let mut run = Run::good_with_inputs(&g, 3, &[p(0)]);
        // Cut the 1→2 link entirely: input can't pass process 1.
        for r in 1..=3u32 {
            run.remove_message(p(1), p(2), Round::new(r));
        }
        let ex = execute(&Flood, &g, &run, &tapes(4));
        assert_eq!(ex.outputs(), vec![true, true, false, false]);
        assert_eq!(ex.outcome(), Outcome::PartialAttack);
    }

    #[test]
    fn flood_matches_input_flow() {
        // Flood's output is exactly "the input flows to (i, N)" — check
        // against FlowGraph on random runs.
        use crate::flow::FlowGraph;
        use rand::Rng;
        let g = Graph::ring(5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let mut run = Run::good(&g, 4);
            for i in g.vertices() {
                if rng.gen_bool(0.5) {
                    run.remove_input(i);
                }
            }
            let slots: Vec<_> = run.messages().collect();
            for s in slots {
                if rng.gen_bool(0.5) {
                    run.remove_message(s.from, s.to, s.round);
                }
            }
            let ex = execute(&Flood, &g, &run, &tapes(5));
            let flow = FlowGraph::new(&run);
            for i in g.vertices() {
                assert_eq!(
                    ex.local(i).output,
                    flow.input_flows_to(i, Round::new(4)),
                    "run {run:?} process {i}"
                );
            }
        }
    }

    #[test]
    fn execute_and_execute_outputs_agree() {
        use rand::Rng;
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let mut run = Run::good(&g, 3);
            let slots: Vec<_> = run.messages().collect();
            for s in slots {
                if rng.gen_bool(0.4) {
                    run.remove_message(s.from, s.to, s.round);
                }
            }
            let t = tapes(3);
            assert_eq!(
                execute(&Flood, &g, &run, &t).outputs(),
                execute_outputs(&Flood, &g, &run, &t)
            );
        }
    }

    #[test]
    fn local_execution_records_messages() {
        let g = Graph::complete(2).unwrap();
        let run = Run::good_with_inputs(&g, 2, &[p(0)]);
        let ex = execute(&Flood, &g, &run, &tapes(2));
        let l1 = ex.local(p(1));
        // Round 1: P1 received P0's "true".
        assert_eq!(l1.received[1], vec![(p(0), true)]);
        // P1 sent "false" in round 1 (its state was false at end of round 0).
        assert_eq!(l1.sent[1], vec![(p(0), false)]);
        // Round 2: P1 sends "true".
        assert_eq!(l1.sent[2], vec![(p(0), true)]);
        assert_eq!(l1.states, vec![false, true, true]);
    }

    #[test]
    fn indistinguishability_lemma_2_1_shape() {
        // Runs R = {(0→1, r1)} and R̃ = R ∪ {(1→0, r2)} differ only in a
        // message received by P0; they are identical to P1 up to... actually
        // a message *received* by 0 changes only 0's view here because Flood
        // messages from 0 don't change. Verify executions identical to 1.
        let g = Graph::complete(2).unwrap();
        let mut ra = Run::empty(2, 2);
        ra.add_input(p(0));
        ra.add_message(p(0), p(1), Round::new(1));
        let mut rb = ra.clone();
        rb.add_message(p(1), p(0), Round::new(2));
        let t = tapes(2);
        let ea = execute(&Flood, &g, &ra, &t);
        let eb = execute(&Flood, &g, &rb, &t);
        assert!(ea.identical_to(&eb, p(1)));
        assert!(!ea.identical_to(&eb, p(0)), "P0's received sets differ");
    }

    #[test]
    #[should_panic(expected = "disagree on process count")]
    fn dimension_mismatch_panics() {
        let g = Graph::complete(2).unwrap();
        let run = Run::empty(3, 2);
        execute(&Flood, &g, &run, &tapes(2));
    }
}
