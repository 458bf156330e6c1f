//! Bit-sliced execution of the level-counting automaton: 64 trials at once.
//!
//! The scalar engine ([`crate::exec`]) executes one `(run, tapes)` pair at a
//! time. For the protocols the Monte Carlo experiments actually measure —
//! Protocol S and the fixed-threshold baseline, both thin wrappers around the
//! paper's Figure-1 counting automaton — the per-process state is a handful
//! of small fields, and the paper's probability space (fix a run, draw tapes)
//! is embarrassingly trial-parallel. This module exploits that shape: every
//! automaton field is stored *bit-sliced* across `u64` words, with bit `l`
//! of each word belonging to trial `l` of a 64-trial group, so one pass of
//! the round loop advances 64 independent trials at once.
//!
//! # Lane layout
//!
//! For `m` processes over horizon `N`, a [`SlicedEngine`] keeps, per process
//! `i`:
//!
//! * `valid[i]` — one word; lane `l` set iff `valid_i` holds in trial `l`.
//! * `token[i]` — one word; lane `l` set iff the leader's token has flowed
//!   to `i` (the token *value* is not sliced: it is `rfire`, identical for
//!   every holder within a lane, kept per lane in [`SlicedEngine::set_rfire`]).
//! * `cnt[i]` — `cb` bit-planes (`cb` = bit width of `N + 2`, enough for the
//!   maximum count `N + 1` plus one defensive headroom bit); lane `l` of
//!   plane `p` is bit `p` of `count_i` in trial `l`.
//! * `seen[i]` — `m` words; word `k`, lane `l` set iff `k ∈ seen_i` in
//!   trial `l`.
//!
//! Count comparisons are lane-parallel most-significant-plane-down scans
//! (the private `gt_lanes`/`eq_lanes` helpers), count adoption is a masked
//! select, and the
//! Figure-1 bump (`seen = V ⟹ count += 1`) is a ripple-carry increment over
//! the planes.
//!
//! The delivery schedule reuses the round-major `M(R)` bit matrix of
//! [`crate::run::Run`]: the engine pre-indexes the base run's slots by
//! `(round, receiver)` once, and keeps one *lane mask* word per slot — lane
//! `l` set iff the slot is delivered in trial `l`. A group starts from the
//! base run in every lane ([`SlicedEngine::begin_group`]); per-trial
//! adversaries destroy slots lane by lane ([`SlicedEngine::destroy_slot_lane`]).
//!
//! # Scalar-oracle contract
//!
//! The sliced engine is an *optimization*, never a second source of truth:
//! for any group of trials it must produce exactly the outputs, counts, and
//! minimum levels the scalar engine produces for the same runs and tapes.
//! The Monte Carlo layer (`ca-sim`) pins this with differential tests
//! (sliced vs scalar tallies must be byte-identical) and falls back to the
//! scalar path whenever a protocol or sampler cannot promise the counting
//! automaton shape ([`SlicedEngine::new`] returns `None`).

use crate::ids::ProcessId;
use crate::run::Run;

/// Number of trials executed per group: one per bit of a `u64`.
pub const LANES: usize = 64;

/// Upper bound on per-buffer state words (`m · (2 + cb + m)`); larger
/// instances fall back to the scalar engine.
const MAX_STATE_WORDS: usize = 1 << 20;

/// Upper bound on delivery slots and `(round, receiver)` buckets.
const MAX_SLOTS: usize = 1 << 24;

/// What a protocol must look like to run on the sliced engine: the Figure-1
/// counting automaton (leader-originated token, validity flooding, level
/// counting) plus one of the two supported output rules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SlicedSpec {
    /// Protocol S's randomized rule: the leader draws
    /// `rfire = offset + t · u` for a unit draw `u` from the first 64 bits
    /// of its tape (and consumes nothing else; non-leaders consume no tape),
    /// and a process attacks iff it holds the token, `count ≥ 1`, and
    /// `(count + slack) as f64 ≥ rfire`.
    RandomFire {
        /// Additive offset of the firing range (0 for input-based validity,
        /// 1 for message-based).
        offset: f64,
        /// The firing range width `t = 1/ε`.
        t: f64,
        /// Decision slack (0 for standard S, 1 for the eager variant).
        slack: u32,
    },
    /// The deterministic threshold rule: attack iff the process holds the
    /// token and `count ≥ θ`. No process consumes tape bits.
    Threshold {
        /// The firing threshold `θ ≥ 1`.
        theta: u32,
    },
}

/// One double-buffered side of the sliced automaton state.
#[derive(Clone, Debug)]
struct LaneState {
    /// `valid_i` per process: one word each.
    valid: Vec<u64>,
    /// Token presence per process: one word each.
    token: Vec<u64>,
    /// `count_i` per process: `cb` bit-planes each, process-major.
    cnt: Vec<u64>,
    /// `seen_i` per process: `m` words each (one per member), process-major.
    seen: Vec<u64>,
}

impl LaneState {
    fn zeroed(m: usize, cb: usize) -> Self {
        LaneState {
            valid: vec![0; m],
            token: vec![0; m],
            cnt: vec![0; m * cb],
            seen: vec![0; m * m],
        }
    }

    fn copy_from(&mut self, src: &LaneState) {
        self.valid.copy_from_slice(&src.valid);
        self.token.copy_from_slice(&src.token);
        self.cnt.copy_from_slice(&src.cnt);
        self.seen.copy_from_slice(&src.seen);
    }
}

/// Per-group results: packed attack bits and per-lane minimum counts.
#[derive(Clone, Debug)]
pub struct GroupOutput {
    /// `attack[i]`: lane `l` set iff process `i` attacks in trial `l`.
    pub attack: Vec<u64>,
    /// `min_count[l]`: `min_i count_i` at the end of trial `l` — by
    /// Lemma 6.4 this equals the run's minimum modified level `ML(R)`.
    pub min_count: [u32; LANES],
}

/// The 64-lane bit-sliced executor for one base run and one [`SlicedSpec`].
///
/// Usage per 64-trial group: [`SlicedEngine::begin_group`], then per lane
/// destroy slots ([`SlicedEngine::destroy_slot_lane`]) and set `rfire`
/// ([`SlicedEngine::set_rfire`]) as the trial's RNG dictates, then
/// [`SlicedEngine::run_group`].
#[derive(Debug)]
pub struct SlicedEngine {
    m: usize,
    n: u32,
    /// Count bit-planes per process.
    cb: usize,
    spec: SlicedSpec,
    /// `I(R)` of the base run (inputs are not sliced: samplers that
    /// randomize inputs fall back to the scalar engine).
    has_input: Vec<bool>,
    /// Bucket boundaries into `rx_sender`/`rx_slot`: bucket
    /// `(round - 1) · m + receiver` holds that receiver's inbox entries for
    /// the round, senders ascending (the canonical inbox order).
    rx_ptr: Vec<u32>,
    /// Sender of each inbox entry.
    rx_sender: Vec<u32>,
    /// Canonical slot index of each inbox entry (into `masks`).
    rx_slot: Vec<u32>,
    /// Per-slot lane masks: lane `l` set iff the slot is delivered in
    /// trial `l`. Indexed in the base run's canonical slot order.
    masks: Vec<u64>,
    cur: LaneState,
    nxt: LaneState,
    /// Scratch: lane-wise `highcount` planes during one transition.
    hc: Vec<u64>,
    /// Per-lane `rfire` (only read under [`SlicedSpec::RandomFire`]).
    rfire: [f64; LANES],
    out: GroupOutput,
}

/// Lane-parallel `a > b` over count planes (most significant plane down).
#[inline]
fn gt_lanes(a: &[u64], b: &[u64]) -> u64 {
    let mut gt = 0u64;
    let mut eq = !0u64;
    for p in (0..a.len()).rev() {
        gt |= eq & a[p] & !b[p];
        eq &= !(a[p] ^ b[p]);
    }
    gt
}

/// Lane-parallel `a == b` over count planes.
#[inline]
fn eq_lanes(a: &[u64], b: &[u64]) -> u64 {
    let mut eq = !0u64;
    for p in 0..a.len() {
        eq &= !(a[p] ^ b[p]);
    }
    eq
}

impl SlicedEngine {
    /// Builds an engine for `base` under `spec`, or `None` when the instance
    /// does not fit the sliced representation: fewer than two processes, or
    /// state/slot counts past the size guards. `None` means "use the scalar
    /// engine", never an error.
    pub fn new(base: &Run, spec: SlicedSpec) -> Option<SlicedEngine> {
        let m = base.process_count();
        let n = base.horizon();
        if m < 2 {
            return None;
        }
        let slots = base.message_count();
        let buckets = (n as usize).checked_mul(m)?;
        if slots > MAX_SLOTS || buckets > MAX_SLOTS {
            return None;
        }
        // Counts reach at most n + 1; one extra headroom bit keeps the
        // ripple-carry increment from ever wrapping a lane.
        let cb = (64 - (u64::from(n) + 2).leading_zeros()) as usize;
        if m.checked_mul(2 + cb + m)? > MAX_STATE_WORDS {
            return None;
        }
        // Counting-sort the canonical slot list by (round, receiver). The
        // canonical (from, to, round) order visits each bucket's senders in
        // ascending order, so buckets inherit the scalar engine's inbox
        // order.
        let mut rx_ptr = vec![0u32; buckets + 1];
        for s in base.messages() {
            let b = (s.round.get() as usize - 1) * m + s.to.index();
            rx_ptr[b + 1] += 1;
        }
        for b in 0..buckets {
            rx_ptr[b + 1] += rx_ptr[b];
        }
        let mut cursor: Vec<u32> = rx_ptr[..buckets].to_vec();
        let mut rx_sender = vec![0u32; slots];
        let mut rx_slot = vec![0u32; slots];
        for (s_idx, s) in base.messages().enumerate() {
            let b = (s.round.get() as usize - 1) * m + s.to.index();
            let at = cursor[b] as usize;
            cursor[b] += 1;
            rx_sender[at] = s.from.index() as u32;
            rx_slot[at] = s_idx as u32;
        }
        let has_input = (0..m)
            .map(|i| base.has_input(ProcessId::new(i as u32)))
            .collect();
        Some(SlicedEngine {
            m,
            n,
            cb,
            spec,
            has_input,
            rx_ptr,
            rx_sender,
            rx_slot,
            masks: vec![!0u64; slots],
            cur: LaneState::zeroed(m, cb),
            nxt: LaneState::zeroed(m, cb),
            hc: vec![0; cb],
            rfire: [0.0; LANES],
            out: GroupOutput {
                attack: vec![0; m],
                min_count: [0; LANES],
            },
        })
    }

    /// Number of delivery slots in the base run (the valid range of
    /// [`SlicedEngine::destroy_slot_lane`]'s slot index, in canonical slot
    /// order).
    pub fn slot_count(&self) -> usize {
        self.masks.len()
    }

    /// The spec this engine executes.
    pub fn spec(&self) -> SlicedSpec {
        self.spec
    }

    /// Resets the engine for a fresh 64-trial group: every lane starts from
    /// the base run (all slots delivered) and the automaton's initial
    /// states — the leader holds the token, processes in `I(R)` are valid,
    /// and `count = 1, seen = {i}` exactly where `valid ∧ token`.
    pub fn begin_group(&mut self) {
        self.masks.fill(!0);
        let m = self.m;
        let cur = &mut self.cur;
        cur.valid.fill(0);
        cur.token.fill(0);
        cur.cnt.fill(0);
        cur.seen.fill(0);
        for (i, &inp) in self.has_input.iter().enumerate() {
            if inp {
                cur.valid[i] = !0;
            }
        }
        let leader = ProcessId::LEADER.index();
        cur.token[leader] = !0;
        // Only the leader can satisfy `valid ∧ token` initially.
        cur.cnt[leader * self.cb] = cur.valid[leader];
        cur.seen[leader * m + leader] = cur.valid[leader];
    }

    /// Destroys one delivery slot in one lane: `slot` indexes the base
    /// run's canonical `(from, to, round)` slot order.
    #[inline]
    pub fn destroy_slot_lane(&mut self, slot: usize, lane: usize) {
        debug_assert!(lane < LANES);
        self.masks[slot] &= !(1u64 << lane);
    }

    /// Sets lane `lane`'s `rfire` (the leader's token value under
    /// [`SlicedSpec::RandomFire`]; ignored under [`SlicedSpec::Threshold`]).
    #[inline]
    pub fn set_rfire(&mut self, lane: usize, rfire: f64) {
        self.rfire[lane] = rfire;
    }

    /// Runs all `N` rounds for the current group and extracts outputs.
    ///
    /// Lanes whose trials were never configured (a final partial group)
    /// execute the base run; callers mask them out of the tallies.
    pub fn run_group(&mut self) -> &GroupOutput {
        let m = self.m;
        let cb = self.cb;
        let n = self.n as usize;
        {
            let SlicedEngine {
                cur,
                nxt,
                hc,
                masks,
                rx_ptr,
                rx_sender,
                rx_slot,
                ..
            } = self;
            for r in 0..n {
                nxt.copy_from(cur);
                for j in 0..m {
                    let b = r * m + j;
                    let lo = rx_ptr[b] as usize;
                    let hi = rx_ptr[b + 1] as usize;
                    if lo == hi {
                        // No base-run slot targets j this round: the scalar
                        // transition is the identity (valid ∧ token ⟹
                        // count ≥ 1 is an invariant, so line 3 cannot fire
                        // without messages either).
                        continue;
                    }
                    // Gather the inbox: which lanes received anything, and
                    // the lane-wise OR of the senders' token/valid bits
                    // (exact for the token because its value is identical
                    // across holders).
                    let mut any = 0u64;
                    let mut tok_in = 0u64;
                    let mut val_in = 0u64;
                    for e in lo..hi {
                        let i = rx_sender[e] as usize;
                        let dm = masks[rx_slot[e] as usize];
                        any |= dm;
                        tok_in |= dm & cur.token[i];
                        val_in |= dm & cur.valid[i];
                    }
                    if any == 0 {
                        continue;
                    }
                    // Figure 1, lines 1–2: adopt token and validity.
                    nxt.token[j] = cur.token[j] | tok_in;
                    nxt.valid[j] = cur.valid[j] | val_in;
                    // Line 3: lanes that just satisfied `valid ∧ token`
                    // with count still 0 start counting at 1, seen = {j}.
                    let cj = j * cb;
                    let sj = j * m;
                    let mut nz = 0u64;
                    for p in 0..cb {
                        nz |= cur.cnt[cj + p];
                    }
                    let start = nxt.valid[j] & nxt.token[j] & !nz;
                    if start != 0 {
                        nxt.cnt[cj] |= start;
                        for k in 0..m {
                            nxt.seen[sj + k] &= !start;
                        }
                        nxt.seen[sj + j] |= start;
                    }
                    // Main block: only lanes that are counting and received
                    // at least one message participate.
                    let act = (nz | start) & any;
                    if act == 0 {
                        continue;
                    }
                    // highcount = lane-wise max over delivered senders.
                    hc.fill(0);
                    for e in lo..hi {
                        let i = rx_sender[e] as usize;
                        let dm = masks[rx_slot[e] as usize];
                        if dm == 0 {
                            continue;
                        }
                        let ci = &cur.cnt[i * cb..(i + 1) * cb];
                        let g = gt_lanes(ci, hc) & dm;
                        if g != 0 {
                            for p in 0..cb {
                                hc[p] = (ci[p] & g) | (hc[p] & !g);
                            }
                        }
                    }
                    // highcount > count: adopt it, clearing seen first.
                    let hgt = gt_lanes(hc, &nxt.cnt[cj..cj + cb]) & act;
                    if hgt != 0 {
                        for k in 0..m {
                            nxt.seen[sj + k] &= !hgt;
                        }
                        for (p, &h) in hc.iter().enumerate().take(cb) {
                            nxt.cnt[cj + p] = (h & hgt) | (nxt.cnt[cj + p] & !hgt);
                        }
                    }
                    // highcount == count (true on just-adopted lanes too):
                    // union the seen-sets of senders at highcount, insert
                    // self.
                    let eqm = eq_lanes(hc, &nxt.cnt[cj..cj + cb]) & act;
                    if eqm != 0 {
                        for e in lo..hi {
                            let i = rx_sender[e] as usize;
                            let dm = masks[rx_slot[e] as usize] & eqm;
                            if dm == 0 {
                                continue;
                            }
                            let sel = eq_lanes(&cur.cnt[i * cb..(i + 1) * cb], hc) & dm;
                            if sel == 0 {
                                continue;
                            }
                            for k in 0..m {
                                nxt.seen[sj + k] |= cur.seen[i * m + k] & sel;
                            }
                        }
                        nxt.seen[sj + j] |= eqm;
                    }
                    // seen = V ⟹ bump: ripple-carry increment, reset seen
                    // to {j}.
                    let mut full = act;
                    for k in 0..m {
                        full &= nxt.seen[sj + k];
                    }
                    if full != 0 {
                        let mut carry = full;
                        for p in 0..cb {
                            let x = nxt.cnt[cj + p];
                            nxt.cnt[cj + p] = x ^ carry;
                            carry &= x;
                        }
                        debug_assert_eq!(carry, 0, "count overflowed its bit-planes");
                        for k in 0..m {
                            nxt.seen[sj + k] &= !full;
                        }
                        nxt.seen[sj + j] |= full;
                    }
                }
                std::mem::swap(cur, nxt);
            }
        }
        // Extraction: transpose the count planes back to per-lane integers
        // and evaluate the output rule per (process, lane).
        self.out.min_count = [u32::MAX; LANES];
        for i in 0..m {
            let ci = &self.cur.cnt[i * cb..(i + 1) * cb];
            let tok = self.cur.token[i];
            let mut attack = 0u64;
            for lane in 0..LANES {
                let mut c: u32 = 0;
                for (p, plane) in ci.iter().enumerate() {
                    c |= (((plane >> lane) & 1) as u32) << p;
                }
                if c < self.out.min_count[lane] {
                    self.out.min_count[lane] = c;
                }
                let has_tok = (tok >> lane) & 1 == 1;
                let attacks = match self.spec {
                    SlicedSpec::RandomFire { slack, .. } => {
                        has_tok && c >= 1 && f64::from(c + slack) >= self.rfire[lane]
                    }
                    SlicedSpec::Threshold { theta } => has_tok && c >= theta,
                };
                if attacks {
                    attack |= 1 << lane;
                }
            }
            self.out.attack[i] = attack;
        }
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn lane_comparisons() {
        // Planes encode per-lane numbers: lane 0 → a=2,b=1; lane 1 → a=1,b=3;
        // lane 2 → a=3,b=3; lane 3 → a=0,b=0.
        let a = [0b0110u64, 0b0101];
        let b = [0b0101u64, 0b0110];
        assert_eq!(gt_lanes(&a, &b), 0b0001);
        assert_eq!(gt_lanes(&b, &a), 0b0010);
        assert_eq!(eq_lanes(&a, &b), !0b0011u64);
    }

    #[test]
    fn construction_guards() {
        let g = Graph::complete(2).unwrap();
        let spec = SlicedSpec::Threshold { theta: 1 };
        assert!(
            SlicedEngine::new(&Run::empty(1, 3), spec).is_none(),
            "m < 2"
        );
        assert!(SlicedEngine::new(&Run::good(&g, 4), spec).is_some());
    }

    #[test]
    fn count_planes_cover_the_maximum_count() {
        let g = Graph::complete(2).unwrap();
        for n in [1u32, 2, 6, 7, 30, 31] {
            let engine =
                SlicedEngine::new(&Run::good(&g, n), SlicedSpec::Threshold { theta: 1 }).unwrap();
            // Max count is n + 1; cb must represent it (plus headroom).
            assert!(
                (1u64 << engine.cb) > u64::from(n) + 1,
                "cb = {} too small for n = {n}",
                engine.cb
            );
        }
    }

    #[test]
    fn good_run_leapfrog_counts_and_threshold_outputs() {
        // Hand-traced Figure 1 on a 2-clique (see counting.rs): after an even
        // horizon N the leader's count is N + 1, the follower's N. θ = N + 1
        // therefore splits them: the leader attacks, the follower does not.
        let g = Graph::complete(2).unwrap();
        let n = 6u32;
        let run = Run::good(&g, n);
        let mut engine = SlicedEngine::new(&run, SlicedSpec::Threshold { theta: n + 1 }).unwrap();
        engine.begin_group();
        let out = engine.run_group();
        assert_eq!(out.attack[0], !0u64, "leader count n+1 ≥ θ in every lane");
        assert_eq!(out.attack[1], 0, "follower count n < θ in every lane");
        assert!(out.min_count.iter().all(|&c| c == n), "min count = ML = n");
    }

    #[test]
    fn destroyed_lane_diverges_from_the_rest() {
        // Destroy every slot in lane 0 only: the leader never spreads the
        // token there, its count stays at 1, the follower stays at 0.
        let g = Graph::complete(2).unwrap();
        let run = Run::good(&g, 4);
        let mut engine = SlicedEngine::new(&run, SlicedSpec::Threshold { theta: 1 }).unwrap();
        engine.begin_group();
        for s in 0..engine.slot_count() {
            engine.destroy_slot_lane(s, 0);
        }
        let out = engine.run_group();
        assert_eq!(out.min_count[0], 0, "follower stuck at 0 in lane 0");
        assert_eq!(out.min_count[1], 4, "other lanes run the good run");
        assert_eq!(out.attack[0], !0u64, "leader has count ≥ 1 everywhere");
        assert_eq!(out.attack[1], !1u64, "follower attacks except lane 0");
    }

    #[test]
    fn random_fire_extraction_compares_against_rfire() {
        // Good run, N = 2: leader count 3, follower 2. rfire = 2.5 puts the
        // leader over and the follower under; slack 1 lifts the follower too.
        let g = Graph::complete(2).unwrap();
        let run = Run::good(&g, 2);
        let spec = SlicedSpec::RandomFire {
            offset: 0.0,
            t: 4.0,
            slack: 0,
        };
        let mut engine = SlicedEngine::new(&run, spec).unwrap();
        engine.begin_group();
        for lane in 0..LANES {
            engine.set_rfire(lane, 2.5);
        }
        let out = engine.run_group();
        assert_eq!(out.attack[0], !0u64);
        assert_eq!(out.attack[1], 0);
        assert!(out.min_count.iter().all(|&c| c == 2));

        let eager = SlicedSpec::RandomFire {
            offset: 0.0,
            t: 4.0,
            slack: 1,
        };
        let mut engine = SlicedEngine::new(&run, eager).unwrap();
        engine.begin_group();
        for lane in 0..LANES {
            engine.set_rfire(lane, 2.5);
        }
        let out = engine.run_group();
        assert_eq!(out.attack[1], !0u64, "slack 1: follower 2 + 1 ≥ 2.5");
    }

    #[test]
    fn no_input_means_no_counting_and_no_attack() {
        let g = Graph::complete(3).unwrap();
        let run = Run::good_with_inputs(&g, 3, &[]);
        let mut engine = SlicedEngine::new(&run, SlicedSpec::Threshold { theta: 1 }).unwrap();
        engine.begin_group();
        let out = engine.run_group();
        assert!(out.attack.iter().all(|&a| a == 0));
        assert!(out.min_count.iter().all(|&c| c == 0));
    }

    #[test]
    fn begin_group_resets_masks_and_state() {
        let g = Graph::complete(2).unwrap();
        let run = Run::good(&g, 3);
        let mut engine = SlicedEngine::new(&run, SlicedSpec::Threshold { theta: 1 }).unwrap();
        engine.begin_group();
        for s in 0..engine.slot_count() {
            for lane in 0..LANES {
                engine.destroy_slot_lane(s, lane);
            }
        }
        let dead = engine.run_group().min_count;
        assert!(dead.iter().all(|&c| c == 0));
        engine.begin_group();
        let fresh = engine.run_group().min_count;
        assert!(fresh.iter().all(|&c| c == 3), "reset restores the base run");
    }
}
