//! Information levels: the knowledge measure behind both bounds.
//!
//! A process reaches **height** 1 when the input flows to it; it reaches
//! height `h > 1` when, for every other process `i`, it has heard (in the
//! flows-to sense) that `i` reached height `h - 1`. The **level**
//! `L_i^r(R)` is the maximum height `i` reaches by round `r`; `L_i(R)` is
//! `L_i^N(R)` and `L(R) = min_i L_i(R)`.
//!
//! The **modified level** `ML_i^r(R)` differs only at height 1: it requires
//! both the input *and* the leader's round-0 state `(1, 0)` to flow to the
//! process (because Protocol S needs every attacker to know `rfire`).
//!
//! One engine computes both: a sparse counting-automaton frontier,
//! `O(|messages| · m/64)` per round, generic over any [`DeliverySource`]
//! (dense [`Run`] or edge-keyed [`crate::run::EdgeRun`]).
//!
//! * [`min_level_into`], [`modified_level_extremes_into`] and friends read
//!   the final extremes allocation-free from a reused [`LevelScratch`]; this
//!   is the hot path every Monte Carlo trial and every per-run exact outcome
//!   rides. See DESIGN.md §11 for the frontier invariant.
//! * [`levels`] / [`modified_levels`] record each process's frontier count
//!   after every round into a [`LevelTable`].
//!
//! # Why the sparse frontier is exact
//!
//! The levels propagate as a gossip: each process `j` carries a full vector
//! `heard[j][i]`, the highest level of `i` it has heard of. But those
//! vectors obey a spread invariant (the engine-level face of Lemma 6.2): once
//! `j` has heard that anyone reached height `v ≥ 2`, it must have heard —
//! transitively, through the same message — that *everyone* reached `v - 1`,
//! because the only source of "`i` is at `v`" is `i`'s own vector, which held
//! `≥ v - 1` for every process when `i` got there. So `max - min ≤ 1` within
//! each vector, and the whole vector compresses losslessly to a pair: the own
//! level `count_j = heard[j][j]` plus the set
//! `seen_j = {k : heard[j][k] = count_j}`. That pair is exactly the paper's
//! Figure-1 counting automaton (Lemma 6.4: `count_i^r = ML_i^r`), and the
//! frontier propagates it in `O(m/64)` per message instead of `O(m)` —
//! touching only processes that actually receive messages. The unmodified
//! level `L` is the same automaton with the leader-state requirement dropped
//! from the base case.
//!
//! The dense `O(m²·N)` gossip DP and a memoized transcription of the
//! recursive definition are the frontier's test oracles, kept in
//! `tests/oracle/mod.rs`: this module's tests and
//! `tests/sparse_level_differential.rs` pin every `(process, round)` of the
//! tables and the extremes against them over sampled graphs and runs.
//!
//! The paper's Lemmas 6.1 and 6.2 (`L_i - 1 ≤ ML_i ≤ L_i`,
//! `|ML_i - ML_j| ≤ 1`) are asserted in this module's tests and again as
//! property tests.

use crate::error::CaError;
use crate::ids::{ProcessId, Round};
use crate::run::{DeliverySource, Run};
use serde::{Deserialize, Serialize};

/// Per-process, per-round level table for one run.
///
/// # Examples
///
/// ```
/// use ca_core::{graph::Graph, run::Run, level::levels, ids::ProcessId};
/// let g = Graph::complete(2)?;
/// let run = Run::good(&g, 4);
/// let table = levels(&run);
/// // With all messages delivered, levels climb one unit per round.
/// assert_eq!(table.level(ProcessId::new(0)), 5);
/// assert_eq!(table.min_level(), 5);
/// # Ok::<(), ca_core::error::ModelError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelTable {
    /// `table[i][r]` = level of process `i` at end of round `r`.
    table: Vec<Vec<u32>>,
    n: u32,
}

impl LevelTable {
    /// The level of `i` at the end of round `r` (`L_i^r(R)` or `ML_i^r(R)`).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `r` is out of range.
    pub fn level_at(&self, i: ProcessId, r: Round) -> u32 {
        self.table[i.index()][r.index()]
    }

    /// The final level of `i` (`L_i(R) = L_i^N(R)`).
    pub fn level(&self, i: ProcessId) -> u32 {
        self.table[i.index()][self.n as usize]
    }

    /// The run-wide level `L(R) = min_i L_i(R)`.
    pub fn min_level(&self) -> u32 {
        self.table
            .iter()
            .map(|row| row[self.n as usize])
            .min()
            .expect("at least one process")
    }

    /// The maximum final level across processes.
    pub fn max_level(&self) -> u32 {
        self.table
            .iter()
            .map(|row| row[self.n as usize])
            .max()
            .expect("at least one process")
    }

    /// All final levels, indexed by process.
    pub fn final_levels(&self) -> Vec<u32> {
        self.table.iter().map(|row| row[self.n as usize]).collect()
    }

    /// The horizon `N`.
    pub fn horizon(&self) -> u32 {
        self.n
    }
}

/// Computes the level table `L_i^r(R)` for all `i, r`: the frontier's count
/// of every process, recorded after every round.
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes (the definition degenerates
/// for `m = 1`: the `h > 1` clause is vacuous and levels diverge).
pub fn levels(run: &Run) -> LevelTable {
    frontier_table(run, false)
}

/// Computes the modified level table `ML_i^r(R)` for all `i, r`.
///
/// Identical to [`levels`] except that height 1 additionally requires the
/// leader's round-0 state `(1, 0)` (code: `(ProcessId::LEADER, 0)`) to flow
/// to the process.
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn modified_levels(run: &Run) -> LevelTable {
    frontier_table(run, true)
}

/// Fallible variant of [`levels`]: returns a typed error instead of
/// panicking when the run has fewer than 2 processes.
pub fn try_levels(run: &Run) -> Result<LevelTable, CaError> {
    ensure_two_processes(run)?;
    Ok(frontier_table(run, false))
}

/// Fallible variant of [`modified_levels`].
pub fn try_modified_levels(run: &Run) -> Result<LevelTable, CaError> {
    ensure_two_processes(run)?;
    Ok(frontier_table(run, true))
}

fn ensure_two_processes(run: &Run) -> Result<(), CaError> {
    if run.process_count() < 2 {
        return Err(CaError::malformed(format!(
            "levels are defined for m >= 2 (paper's model), got m = {}",
            run.process_count()
        )));
    }
    Ok(())
}

/// The [`LevelTable`] of one frontier pass: row `i` takes process `i`'s count
/// at round 0 and after each round.
fn frontier_table(run: &Run, modified: bool) -> LevelTable {
    let n = run.horizon();
    let mut table: Vec<Vec<u32>> = (0..run.process_count())
        .map(|_| Vec::with_capacity(n as usize + 1))
        .collect();
    frontier(run, modified, &mut LevelScratch::new(), |nodes| {
        for (row, node) in table.iter_mut().zip(nodes) {
            row.push(node.count);
        }
    });
    LevelTable { table, n }
}

/// Reusable buffers for [`min_level_into`] / [`min_modified_level_into`].
///
/// The Monte Carlo engine asks for one number per trial — `min_i L_i(R)` —
/// millions of times; a scratch threaded through the loop keeps the
/// frontier's working rows alive across trials instead of reallocating them.
///
/// Layout (DESIGN.md §11): the per-process scalars sit in one packed
/// `Node` array, and the seen-sets and round accumulators are flat
/// `m × ⌈m/64⌉` word rows, so a delivered message is one row copy or OR.
#[derive(Debug, Default)]
pub struct LevelScratch {
    /// One packed record per process.
    nodes: Vec<Node>,
    /// Row `j` (`words` words from `j · words`): the processes `j` knows to
    /// be at `nodes[j].count`.
    seen: Vec<u64>,
    /// Row `j`: this round's union of the seen-rows of `j`'s senders at
    /// `nodes[j].rx_high`.
    rx: Vec<u64>,
    /// Words per row, `⌈m/64⌉`.
    words: usize,
    /// Valid bits of a row's last word.
    tail: u64,
    stamp_cur: u32,
    /// Receivers touched this round, in first-message order.
    touch: Vec<u32>,
    /// `m` the frontier buffers are currently sized for.
    cap: usize,
}

/// The frontier's per-process scalars, kept together so the sweep touches
/// one cache line per receiver.
#[derive(Clone, Copy, Debug, Default)]
struct Node {
    /// The process's current level (`heard[j][j]` in the dense view).
    count: u32,
    /// Highest sender count received this round.
    rx_high: u32,
    /// Round stamp: `stamp == stamp_cur` means the `rx_*` accumulators are
    /// live this round (lazy reset, no per-round clear).
    stamp: u32,
    /// [`VALID`] / [`TOKEN`] and their per-round accumulators.
    flags: u32,
}

/// The input has flowed to the process.
const VALID: u32 = 1;
/// The leader's round-0 state has flowed to the process.
const TOKEN: u32 = 2;
/// Accumulator bits, `VALID` / `TOKEN` shifted by [`RX_SHIFT`]: what flowed
/// in this round.
const RX_SHIFT: u32 = 2;
const RX_FLAGS: u32 = (VALID | TOKEN) << RX_SHIFT;

impl LevelScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `L(R) = min_i L_i(R)` without building the full [`LevelTable`] —
/// allocation-free once the scratch has warmed up.
///
/// Generic over the delivery representation: dense [`Run`] or sparse
/// [`crate::run::EdgeRun`].
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn min_level_into<D: DeliverySource + ?Sized>(run: &D, scratch: &mut LevelScratch) -> u32 {
    frontier(run, false, scratch, |_| {}).0
}

/// `ML(R) = min_i ML_i(R)` without building the full [`LevelTable`] —
/// allocation-free once the scratch has warmed up.
///
/// Generic over the delivery representation: dense [`Run`] or sparse
/// [`crate::run::EdgeRun`].
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn min_modified_level_into<D: DeliverySource + ?Sized>(
    run: &D,
    scratch: &mut LevelScratch,
) -> u32 {
    frontier(run, true, scratch, |_| {}).0
}

/// Final-level extremes `(min_i L_i(R), max_i L_i(R))` in one frontier pass.
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn level_extremes_into<D: DeliverySource + ?Sized>(
    run: &D,
    scratch: &mut LevelScratch,
) -> (u32, u32) {
    frontier(run, false, scratch, |_| {})
}

/// Final modified-level extremes `(min_i ML_i(R), max_i ML_i(R))` in one
/// frontier pass — what the `ca sweep` classifier consumes: with Protocol S's
/// firing threshold `rfire`, TA ⟺ `min ≥ rfire` and NA ⟺ `max < rfire`
/// (Lemma 6.4 equates `ML` with the attack counts).
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn modified_level_extremes_into<D: DeliverySource + ?Sized>(
    run: &D,
    scratch: &mut LevelScratch,
) -> (u32, u32) {
    frontier(run, true, scratch, |_| {})
}

/// The sparse counting-automaton frontier (see the module docs for why it is
/// exactly the level gossip): each process carries `(count, seen)`; a round
/// sweeps delivered messages into per-receiver accumulators reading only
/// previous-round sender state, then finalizes the touched receivers —
/// adopt a higher count outright, union seen-sets at an equal count, and bump
/// `count` (at most once) when `seen` covers all `m` processes.
///
/// `each_round` sees every process's state at round 0 and after each round;
/// the final `(min, max)` count is returned.
fn frontier<D: DeliverySource + ?Sized>(
    run: &D,
    modified: bool,
    s: &mut LevelScratch,
    mut each_round: impl FnMut(&[Node]),
) -> (u32, u32) {
    let m = run.process_count();
    let n = run.horizon();
    assert!(m >= 2, "levels are defined for m >= 2 (paper's model)");

    if s.cap != m {
        s.cap = m;
        s.words = m.div_ceil(64);
        s.tail = u64::MAX >> (s.words * 64 - m);
        s.nodes = vec![Node::default(); m];
        s.seen = vec![0; m * s.words];
        s.rx = vec![0; m * s.words];
        s.stamp_cur = 0;
        s.touch = Vec::with_capacity(m);
    }
    let LevelScratch {
        nodes,
        seen,
        rx,
        words,
        tail,
        stamp_cur,
        touch,
        ..
    } = s;
    let (w, tail) = (*words, *tail);
    // The base case: the input (and, for ML, the leader's round-0 state)
    // has flowed in.
    let base = if modified { VALID | TOKEN } else { VALID };
    // Resets row `j` to `{j}`.
    let singleton = |row: &mut [u64], j: usize| {
        row.fill(0);
        row[j / 64] = 1 << (j % 64);
    };

    // Round 0: inputs arrive; the leader holds its own round-0 state.
    for (j, node) in nodes.iter_mut().enumerate() {
        let mut flags = 0;
        if run.has_input(ProcessId::new(j as u32)) {
            flags |= VALID;
        }
        if j == ProcessId::LEADER.index() {
            flags |= TOKEN;
        }
        node.flags = flags;
        let row = &mut seen[j * w..(j + 1) * w];
        if flags & base == base {
            node.count = 1;
            singleton(row, j);
        } else {
            node.count = 0;
            row.fill(0);
        }
    }
    each_round(nodes);

    for r in Round::protocol_rounds(n) {
        // Lazy accumulator reset: a fresh stamp invalidates every receiver's
        // accumulators at once. On wrap, hard-reset the stamps.
        *stamp_cur = stamp_cur.wrapping_add(1);
        if *stamp_cur == 0 {
            nodes.iter_mut().for_each(|node| node.stamp = 0);
            *stamp_cur = 1;
        }
        let cur = *stamp_cur;
        touch.clear();
        // Sweep: senders' states are still end-of-previous-round values
        // (writes happen only in the finalize pass, and the sweep writes
        // only receiver accumulators), so no snapshot copies are needed.
        run.for_each_delivery_in_round(r, |from, to| {
            let (i, j) = (from.index(), to.index());
            let sender = nodes[i];
            let node = &mut nodes[j];
            if node.stamp != cur {
                node.stamp = cur;
                touch.push(j as u32);
                node.flags &= !RX_FLAGS;
                node.rx_high = 0;
            }
            node.flags |= (sender.flags & (VALID | TOKEN)) << RX_SHIFT;
            let ci = sender.count;
            if ci > node.rx_high {
                node.rx_high = ci;
                rx[j * w..(j + 1) * w].copy_from_slice(&seen[i * w..(i + 1) * w]);
            } else if ci == node.rx_high && ci > 0 {
                let dst = &mut rx[j * w..(j + 1) * w];
                for (d, &x) in dst.iter_mut().zip(&seen[i * w..(i + 1) * w]) {
                    *d |= x;
                }
            }
        });
        // Finalize the touched receivers (untouched state cannot change:
        // levels only move when a message arrives — Lemma 5.1).
        for &j in touch.iter() {
            let j = j as usize;
            let node = &mut nodes[j];
            node.flags |= (node.flags & RX_FLAGS) >> RX_SHIFT;
            let row = &mut seen[j * w..(j + 1) * w];
            if node.count == 0 && node.flags & base == base {
                node.count = 1;
                singleton(row, j);
            }
            if node.count >= 1 && node.rx_high >= node.count {
                let acc = &rx[j * w..(j + 1) * w];
                if node.rx_high > node.count {
                    node.count = node.rx_high;
                    row.copy_from_slice(acc);
                    row[j / 64] |= 1 << (j % 64);
                } else {
                    for (d, &x) in row.iter_mut().zip(acc) {
                        *d |= x;
                    }
                }
                // Full row: every word all ones, the last up to its `tail`.
                let (last, body) = row.split_last().expect("m >= 2");
                if *last == tail && body.iter().all(|&x| x == u64::MAX) {
                    node.count += 1;
                    singleton(row, j);
                }
            }
        }
        each_round(nodes);
    }

    let mut lo = u32::MAX;
    let mut hi = 0;
    for node in nodes.iter() {
        lo = lo.min(node.count);
        hi = hi.max(node.count);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::oracle::{
        dense_levels, final_extremes, level_by_definition, modified_level_by_definition,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn r(i: u32) -> Round {
        Round::new(i)
    }

    /// A random run over the graph: each input/message kept with probability `keep`.
    fn random_run<R: Rng>(g: &Graph, n: u32, keep: f64, rng: &mut R) -> Run {
        let mut run = Run::good(g, n);
        for i in g.vertices() {
            if !rng.gen_bool(keep) {
                run.remove_input(i);
            }
        }
        let slots: Vec<_> = run.messages().collect();
        for s in slots {
            if !rng.gen_bool(keep) {
                run.remove_message(s.from, s.to, s.round);
            }
        }
        run
    }

    #[test]
    fn empty_run_has_level_zero() {
        let table = levels(&Run::empty(3, 4));
        assert_eq!(table.min_level(), 0);
        assert_eq!(table.max_level(), 0);
    }

    #[test]
    fn input_without_messages_gives_level_one() {
        let g = Graph::complete(2).unwrap();
        let mut run = Run::empty(2, 3);
        run.add_input(p(0));
        let _ = g;
        let table = levels(&run);
        assert_eq!(table.level(p(0)), 1);
        assert_eq!(table.level(p(1)), 0);
        assert_eq!(table.min_level(), 0);
    }

    #[test]
    fn good_run_levels_climb_one_per_round() {
        // Two processes, all messages delivered: at end of round r the level
        // is r+1 (hear input at round 0, then one exchange per round).
        let g = Graph::complete(2).unwrap();
        let run = Run::good(&g, 5);
        let table = levels(&run);
        for i in [p(0), p(1)] {
            for rr in 0..=5u32 {
                assert_eq!(table.level_at(i, r(rr)), rr + 1, "process {i} round {rr}");
            }
        }
    }

    #[test]
    fn level_monotone_in_round() {
        let g = Graph::ring(4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let run = random_run(&g, 4, 0.6, &mut rng);
            let table = levels(&run);
            for i in g.vertices() {
                for rr in 1..=4u32 {
                    assert!(table.level_at(i, r(rr)) >= table.level_at(i, r(rr - 1)));
                }
            }
        }
    }

    #[test]
    fn gossip_matches_definition_small_random() {
        // Both the frontier's tables and the dense gossip oracle, at every
        // (process, round).
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..30 {
            let run = random_run(&g, 3, 0.5, &mut rng);
            let fast = levels(&run);
            let fast_m = modified_levels(&run);
            let (dense, dense_m) = (dense_levels(&run, false), dense_levels(&run, true));
            for i in g.vertices() {
                for rr in 0..=3u32 {
                    let want = level_by_definition(&run, i, r(rr));
                    let want_m = modified_level_by_definition(&run, i, r(rr));
                    let at = (i.index(), rr as usize);
                    assert_eq!(
                        (fast.level_at(i, r(rr)), dense[at.0][at.1]),
                        (want, want),
                        "L mismatch at {i}, {rr} in {run:?}"
                    );
                    assert_eq!(
                        (fast_m.level_at(i, r(rr)), dense_m[at.0][at.1]),
                        (want_m, want_m),
                        "ML mismatch at {i}, {rr} in {run:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gossip_matches_definition_line_graph() {
        let g = Graph::line(3).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let run = random_run(&g, 4, 0.7, &mut rng);
            let fast = levels(&run);
            let dense = dense_levels(&run, false);
            for i in g.vertices() {
                for rr in 0..=4u32 {
                    let want = level_by_definition(&run, i, r(rr));
                    assert_eq!(fast.level_at(i, r(rr)), want, "{i}, {rr} in {run:?}");
                    assert_eq!(dense[i.index()][rr as usize], want, "{i}, {rr} in {run:?}");
                }
            }
        }
    }

    #[test]
    fn lemma_6_1_ml_within_one_of_l() {
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..50 {
            let run = random_run(&g, 4, 0.6, &mut rng);
            let l = levels(&run);
            let ml = modified_levels(&run);
            for i in g.vertices() {
                assert!(ml.level(i) <= l.level(i), "ML ≤ L");
                assert!(l.level(i) <= ml.level(i) + 1, "L - 1 ≤ ML");
            }
        }
    }

    #[test]
    fn lemma_6_2_ml_spread_at_most_one() {
        let g = Graph::ring(4).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..50 {
            let run = random_run(&g, 5, 0.6, &mut rng);
            let ml = modified_levels(&run);
            // |ML_i - ML_j| ≤ 1 — but only when both are positive: processes
            // that never hear rfire stay at 0... The paper's Lemma 6.2 states
            // ML_j ≥ ML_i - 1 unconditionally; verify exactly that.
            let finals = ml.final_levels();
            let max = *finals.iter().max().unwrap();
            for &v in finals.iter() {
                assert!(
                    v + 1 >= max,
                    "Lemma 6.2 violated: finals={finals:?} in {run:?}"
                );
            }
        }
    }

    #[test]
    fn leader_cut_off_keeps_ml_low() {
        // If nobody hears from the leader's round-0 state, ML stays 0 for
        // everyone except possibly the leader itself.
        let g = Graph::complete(3).unwrap();
        let mut run = Run::good(&g, 3);
        // Destroy everything the leader ever sends.
        for rr in 1..=3u32 {
            for j in [p(1), p(2)] {
                run.remove_message(p(0), j, r(rr));
            }
        }
        let ml = modified_levels(&run);
        assert!(ml.level(p(0)) >= 1, "leader knows rfire and input");
        assert_eq!(ml.level(p(1)), 0);
        assert_eq!(ml.level(p(2)), 0);
        // Lemma 6.2 still holds: max - min <= 1 requires leader level <= 1.
        assert_eq!(ml.level(p(0)), 1);
    }

    #[test]
    fn star_graph_levels_slower() {
        // On a star, leaves only talk through the center: levels grow at
        // roughly half the complete-graph rate.
        let g = Graph::star(4).unwrap();
        let run = Run::good(&g, 6);
        let table = levels(&run);
        let complete = levels(&Run::good(&Graph::complete(4).unwrap(), 6));
        assert!(table.min_level() < complete.min_level());
        assert!(table.min_level() >= 1);
    }

    #[test]
    fn level_monotone_in_run_subset() {
        // Adding messages can only increase levels.
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..20 {
            let small = random_run(&g, 3, 0.4, &mut rng);
            let mut big = small.clone();
            // Add a few random extra deliveries.
            for _ in 0..4 {
                let a = rng.gen_range(0..3u32);
                let b = (a + 1 + rng.gen_range(0..2u32)) % 3;
                let rr = rng.gen_range(1..=3u32);
                big.add_message(p(a), p(b), r(rr));
            }
            let ls = levels(&small);
            let lb = levels(&big);
            for i in g.vertices() {
                assert!(lb.level(i) >= ls.level(i));
            }
        }
    }

    #[test]
    fn lemma_5_1_level_changes_have_message_witnesses() {
        // If L_k(R) = l > 0, some delivered tuple (j, k, r) has L_k^r(R) = l:
        // levels only move when a message arrives.
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut checked = 0;
        for _ in 0..40 {
            let run = random_run(&g, 4, 0.6, &mut rng);
            let table = levels(&run);
            for k in g.vertices() {
                let l = table.level(k);
                if l <= 1 {
                    // l = 1 can arise from the input (round 0), which is not
                    // a message tuple; the lemma's backward walk then ends at
                    // the input round. Only check l > 1 here.
                    continue;
                }
                checked += 1;
                let witness = run
                    .messages()
                    .filter(|s| s.to == k)
                    .any(|s| table.level_at(k, s.round) == l);
                assert!(witness, "no message witness for L_{k} = {l} in {run:?}");
            }
        }
        assert!(checked > 10, "exercised enough nontrivial cases");
    }

    #[test]
    #[should_panic(expected = "m >= 2")]
    fn single_process_panics() {
        // Construct a degenerate 1-process run directly.
        let run = Run::empty(1, 2);
        let _ = levels(&run);
    }

    #[test]
    fn scratch_min_level_matches_table_min_level() {
        // One scratch reused across runs of different graphs and horizons —
        // exactly the Monte Carlo engine's usage pattern — and the tables'
        // minima, both against the dense oracle's.
        let mut scratch = LevelScratch::new();
        let mut rng = StdRng::seed_from_u64(404);
        for g in [
            Graph::complete(2).unwrap(),
            Graph::complete(3).unwrap(),
            Graph::ring(4).unwrap(),
        ] {
            for _ in 0..25 {
                let run = random_run(&g, 4, 0.55, &mut rng);
                let want = final_extremes(&dense_levels(&run, false)).0;
                let want_m = final_extremes(&dense_levels(&run, true)).0;
                assert_eq!(
                    (min_level_into(&run, &mut scratch), levels(&run).min_level()),
                    (want, want),
                    "L mismatch in {run:?}"
                );
                assert_eq!(
                    (
                        min_modified_level_into(&run, &mut scratch),
                        modified_levels(&run).min_level()
                    ),
                    (want_m, want_m),
                    "ML mismatch in {run:?}"
                );
            }
        }
    }

    #[test]
    fn frontier_matches_dense_oracle_and_extremes() {
        // Every (process, round) of the tables, and the extremes.
        let mut scratch = LevelScratch::new();
        let mut rng = StdRng::seed_from_u64(909);
        for g in [
            Graph::complete(3).unwrap(),
            Graph::grid(2, 3).unwrap(),
            Graph::star(5).unwrap(),
        ] {
            for _ in 0..25 {
                let run = random_run(&g, 5, 0.5, &mut rng);
                for modified in [false, true] {
                    let dense = dense_levels(&run, modified);
                    let (table, extremes) = if modified {
                        let extremes = modified_level_extremes_into(&run, &mut scratch);
                        (modified_levels(&run), extremes)
                    } else {
                        (levels(&run), level_extremes_into(&run, &mut scratch))
                    };
                    for i in g.vertices() {
                        for rr in 0..=5u32 {
                            assert_eq!(
                                table.level_at(i, r(rr)),
                                dense[i.index()][rr as usize],
                                "table mismatch (modified={modified}) at {i}, {rr} in {run:?}"
                            );
                        }
                    }
                    assert_eq!(
                        extremes,
                        final_extremes(&dense),
                        "extremes mismatch (modified={modified}) in {run:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_accepts_edge_runs() {
        // The same schedule through both delivery representations must give
        // identical levels — this is the contract that lets the sweep engine
        // run on EdgeRun while goldens stay pinned to Run.
        use crate::run::EdgeRun;
        let g = Graph::ring(6).unwrap();
        let mut er = EdgeRun::good(&g, 5);
        let mut rng = StdRng::seed_from_u64(1234);
        let mut scratch = LevelScratch::new();
        for _ in 0..10 {
            er.reset_good();
            for e in 0..er.directed_edge_count() {
                for rr in 1..=5u32 {
                    if rng.gen_bool(0.4) {
                        er.destroy(e, r(rr));
                    }
                }
            }
            if rng.gen_bool(0.3) {
                er.remove_input(p(rng.gen_range(0..6u32)));
            }
            let dense = er.to_run();
            assert_eq!(
                modified_level_extremes_into(&er, &mut scratch),
                modified_level_extremes_into(&dense, &mut scratch),
                "EdgeRun vs Run ML mismatch in {dense:?}"
            );
            assert_eq!(
                level_extremes_into(&er, &mut scratch),
                level_extremes_into(&dense, &mut scratch),
                "EdgeRun vs Run L mismatch in {dense:?}"
            );
        }
    }

    #[test]
    fn try_levels_returns_typed_error_for_single_process() {
        let run = Run::empty(1, 2);
        let err = try_levels(&run).unwrap_err();
        assert!(err.to_string().contains("m = 1"), "{err}");
        assert!(try_modified_levels(&run).is_err());

        let g = Graph::complete(2).unwrap();
        let good = Run::good(&g, 3);
        assert_eq!(
            try_levels(&good).unwrap().final_levels(),
            levels(&good).final_levels()
        );
    }
}
