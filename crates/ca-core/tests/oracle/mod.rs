//! Test oracles for the level frontier in `ca_core::level`.
//!
//! The library computes levels one way, with the sparse `(count, seen)`
//! frontier. The two slow transcriptions it is checked against live here,
//! once, and every test that needs them includes this file: ca-core's unit
//! tests (through the crate root), its integration tests (`mod oracle;`),
//! and through `#[path]` ca-analysis's unit tests and the workspace
//! tests.
//!
//! * [`dense_levels`] — the `O(m²·N)` gossip dynamic program: every process
//!   carries the full vector of the highest level it has heard of for every
//!   process. The frontier is its lossless compression (see the
//!   `ca_core::level` module docs), so the two must agree at every
//!   `(process, round)`.
//! * [`level_by_definition`] / [`modified_level_by_definition`] — a direct,
//!   memoized transcription of the paper's recursive definition of height,
//!   level and modified level over the flows-to relation.

#![allow(dead_code)]

use ca_core::flow::FlowGraph;
use ca_core::ids::{ProcessId, Round};
use ca_core::run::Run;

/// The dense gossip DP's level table: `table[i][r]` is `L_i^r(R)`, or
/// `ML_i^r(R)` when `modified`.
///
/// Each process `j` carries a vector `heard[j][i]` = the highest level of `i`
/// whose attainment has flowed to `j` so far, along with its own current
/// level. A delivered message `(i, j, r)` merges `i`'s end-of-round-`(r-1)`
/// vector into `j`'s. After merging a round's messages, `j`'s level rises to
/// `1 + min_{i≠j} heard[j][i]` whenever that minimum is positive (the `h > 1`
/// clause), and to 1 when the base condition holds: the input has flowed to
/// `j` (and, for `ML`, so has the leader's round-0 state).
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn dense_levels(run: &Run, modified: bool) -> Vec<Vec<u32>> {
    let m = run.process_count();
    let n = run.horizon();
    assert!(m >= 2, "levels are defined for m >= 2 (paper's model)");

    // valid[j]: has the input flowed to j?  heard_leader[j]: has (leader, 0)
    // flowed to j? (Only used for the modified measure.)
    let mut valid: Vec<bool> = (0..m)
        .map(|j| run.has_input(ProcessId::new(j as u32)))
        .collect();
    let mut heard_leader: Vec<bool> = (0..m).map(|j| j == ProcessId::LEADER.index()).collect();

    // heard[j][i] = best level of i known (via flow) to j. heard[j][j] is j's own level.
    let mut heard: Vec<Vec<u32>> = vec![vec![0; m]; m];
    let mut table: Vec<Vec<u32>> = vec![vec![0; n as usize + 1]; m];

    let base_holds = |valid_j: bool, heard_leader_j: bool| -> bool {
        if modified {
            valid_j && heard_leader_j
        } else {
            valid_j
        }
    };

    // Round 0: inputs arrive; the leader's own round-0 state is at the leader.
    for j in 0..m {
        if base_holds(valid[j], heard_leader[j]) {
            heard[j][j] = 1;
        }
        table[j][0] = heard[j][j];
    }

    // Rounds 1..=N: deliver messages, merge vectors, raise levels.
    let mut snapshot = heard.clone();
    let mut valid_snap = valid.clone();
    let mut leader_snap = heard_leader.clone();
    for r in Round::protocol_rounds(n) {
        snapshot.clone_from(&heard);
        valid_snap.clone_from(&valid);
        leader_snap.clone_from(&heard_leader);
        for slot in run.messages_in_round(r) {
            let (i, j) = (slot.from.index(), slot.to.index());
            for k in 0..m {
                if snapshot[i][k] > heard[j][k] {
                    heard[j][k] = snapshot[i][k];
                }
            }
            valid[j] |= valid_snap[i];
            heard_leader[j] |= leader_snap[i];
        }
        for j in 0..m {
            // Base height 1.
            if base_holds(valid[j], heard_leader[j]) && heard[j][j] == 0 {
                heard[j][j] = 1;
            }
            // h > 1 clause: 1 + min over other processes of their known level.
            let min_other = (0..m)
                .filter(|&i| i != j)
                .map(|i| heard[j][i])
                .min()
                .expect("m >= 2");
            if min_other >= 1 && min_other + 1 > heard[j][j] {
                heard[j][j] = min_other + 1;
            }
            table[j][r.index()] = heard[j][j];
        }
    }
    table
}

/// `(min_i, max_i)` of a [`dense_levels`] table's final column.
pub fn final_extremes(table: &[Vec<u32>]) -> (u32, u32) {
    let finals = table.iter().map(|row| *row.last().expect("round 0"));
    let min = finals.clone().min().expect("at least one process");
    (min, finals.max().expect("at least one process"))
}

/// Computes `L_j^r(R)` straight from the recursive definition, memoized.
/// Exponentially slower than the frontier in the worst case, but a faithful
/// transcription.
pub fn level_by_definition(run: &Run, j: ProcessId, r: Round) -> u32 {
    definition_level(run, j, r, false)
}

/// Computes `ML_j^r(R)` straight from the recursive definition, memoized.
pub fn modified_level_by_definition(run: &Run, j: ProcessId, r: Round) -> u32 {
    definition_level(run, j, r, true)
}

fn definition_level(run: &Run, j: ProcessId, r: Round, modified: bool) -> u32 {
    let m = run.process_count();
    let n = run.horizon();
    assert!(m >= 2, "levels are defined for m >= 2");
    let flow = FlowGraph::new(run);

    // Precompute forward cones from every (i, s) and from the environment.
    let env = flow.env_reach();
    let leader0 = flow.reach_from(ProcessId::LEADER, Round::INPUT);

    // can_reach[h][i][s] = can i reach height h by round s? Computed level by level.
    // Height 1:
    let reach1 = |i: ProcessId, s: Round| -> bool {
        let base = env.contains(i, s);
        if modified {
            base && leader0.contains(i, s)
        } else {
            base
        }
    };

    let max_h = (n + 2) as usize;
    // reach[h] for h >= 1; index 0 unused (height 0 always true).
    let mut reach: Vec<Vec<Vec<bool>>> = Vec::with_capacity(max_h + 1);
    reach.push(vec![vec![true; n as usize + 1]; m]); // height 0
    let mut h1 = vec![vec![false; n as usize + 1]; m];
    for (i, row) in h1.iter_mut().enumerate() {
        for s in 0..=n {
            row[s as usize] = reach1(ProcessId::new(i as u32), Round::new(s));
        }
    }
    reach.push(h1);

    for h in 2..=max_h {
        let prev = &reach[h - 1];
        let mut cur = vec![vec![false; n as usize + 1]; m];
        let mut any = false;
        #[allow(clippy::needless_range_loop)] // `jj` also parameterizes the flow query
        for jj in 0..m {
            // For each i ≠ jj, find whether some (i, r_i) flows to (jj, s) with
            // i reaching h-1 by r_i.
            for s in 0..=n {
                let ok = (0..m).filter(|&i| i != jj).all(|i| {
                    (0..=s).any(|ri| {
                        prev[i][ri as usize]
                            && flow.flows_to(
                                ProcessId::new(i as u32),
                                Round::new(ri),
                                ProcessId::new(jj as u32),
                                Round::new(s),
                            )
                    })
                });
                if ok {
                    cur[jj][s as usize] = true;
                    any = true;
                }
            }
        }
        reach.push(cur);
        if !any {
            break;
        }
    }

    let mut best = 0;
    for (h, table) in reach.iter().enumerate() {
        if table[j.index()][r.index()] {
            best = h as u32;
        }
    }
    best
}
