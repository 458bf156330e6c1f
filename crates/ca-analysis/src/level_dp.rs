//! Exact PA/TA in polynomial time: the **level-vector dynamic program**.
//!
//! The exhaustive oracles ([`crate::enumeration`], [`Run::try_enumerate_all`])
//! pay `2^bits` executions and hit the typed 24-bit wall long before the
//! paper's §8 scale (N = 1000). The paper's own structure admits far better:
//! counts equal modified levels (Lemma 6.4), levels move by at most a couple
//! of units per round, and the spread `|ML_i − ML_j| ≤ 1` (Lemma 6.2) is an
//! automaton invariant. So the *joint* state of the `m` counting automata,
//! viewed up to a common count shift, lives in a **constant-size** space:
//!
//! * per process: a normalized count in `{0, 1, 2}`, the seen-set
//!   (`m ≤ 8` ⟹ one byte), and the valid/token flags — 12 bits, so the
//!   whole structural state packs into a `u128`;
//! * plus one shared **base** (the common shift), clipped at the protocol's
//!   saturation point: once every counting process fires with probability 1
//!   (`count + slack − offset ≥ t`, or `count ≥ θ`), larger bases are
//!   outcome- and dynamics-equivalent, so they collapse onto one class.
//!
//! The sweep [`sweep`] runs a transfer over `(structural state → set of
//! reachable bases)`, each set a list of base intervals (one, on every
//! instance measured): per-round transition kernels are **memoized per
//! structural class**, so the whole 2^inputs × 2^(E·N) run space (`E` =
//! directed edges) reduces to (reachable structs) × (N rounds) kernel
//! applications — polynomial in N. A kernel is built per receiver: a
//! receiver's next state depends only on its own state and on which of its
//! in-edges deliver, so the automaton steps once per subset of each
//! receiver's in-edges (`Σ_j 2^indeg(j)` steps, 32 on K4 against 2^12
//! delivery patterns) and the successors are the product of the receivers'
//! distinct outcomes. That computes `max_R Pr[TA|R]` and `max_R Pr[PA|R]`
//! for *every* horizon up to N exactly — every attack probability of a
//! spec is an integer over one shared denominator, so extremes are integer
//! extremes, read in closed form per base interval — at scales where
//! enumeration returns its typed `bits > 24` error.
//!
//! A class is an **orbit** of structural states under the graph's
//! automorphisms, the leader-moving ones included: a state carries each
//! process's token flag, so relabelling the processes by an automorphism
//! maps kernels to kernels and leaves outcomes alone. Each state is stored
//! as the least key of its orbit (symmetry reduction, as in explicit-state
//! model checking), which cuts K3's classes from 139 to 41 and K4's from
//! 4,953 to 303 at N = 2. Graphs without symmetry keep growing classes with
//! N, so both all-runs passes stop with a typed error past
//! [`MAX_DP_ENTRIES`] stored kernel edges and mass entries.
//!
//! [`weak_outcomes`] answers §8's weak adversary with the same classes and
//! kernels: it replaces the ∀ over runs with an expectation, carrying a
//! probability mass per `(class, base)` instead of a set of reachable bases.
//!
//! [`run_outcomes`] is the per-run engine behind every exact outcome of the
//! Figure 1 family: Lemma 6.4 makes the final counts over one fixed run the
//! modified levels, so it reads their extremes off the sparse level frontier
//! ([`ca_core::level`]), and [`DpSpec::outcome`] integrates the firing rule
//! over them. [`crate::exact::protocol_s_outcomes`], the hunt's ranking and
//! the asynchronous closed form all read their outcomes from those two.
//!
//! # Fidelity and the enumeration-as-oracle contract
//!
//! Transitions are computed by running the **real**
//! [`CountingState::process_messages_from`] on reconstructed states, never a
//! hand-derived transition table. The DP is an *optimization*, not a second
//! source of truth: on every DP-eligible configuration small enough to
//! enumerate (`bits ≤ 24`),
//!
//! * [`run_outcomes`] must equal the executed protocol — `ProtocolS` through
//!   the generic engine, exhaustively enumerated `GridS` tapes and the
//!   executed `FixedThreshold` indicator,
//! * [`sweep`] must equal [`worst_case_by_enumeration`] (brute force over
//!   [`Run::try_enumerate_all`]), and
//! * [`weak_outcomes`] must equal the probability-weighted sum of
//!   [`run_outcomes`] over every run in which all inputs arrive,
//!
//! all enforced by the differential suite in `tests/level_dp_differential.rs`
//! and the in-module tests below.

use crate::exact::ExactOutcome;
use ca_core::bitset::BitSet;
use ca_core::error::CaError;
use ca_core::graph::Graph;
use ca_core::ids::ProcessId;
use ca_core::level::{modified_level_extremes_into, LevelScratch};
use ca_core::rational::Rational;
use ca_core::run::Run;
use ca_obs::{CounterId, Metrics, SpanId};
use ca_protocols::counting::{CountingMsg, CountingState};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Most processes the sweep supports: the per-process seen-set must fit the
/// 8 bits reserved for it in the packed structural key.
pub const MAX_DP_PROCESSES: usize = 8;

/// Most directed edges the sweep supports. Kernels step the automaton per
/// receiver, but a structural class can still have one distinct successor
/// per delivery pattern, so `E` bounds a kernel at `2^E` edges and the
/// classes its successors intern; 12 keeps that at 4096 (K4's 12 directed
/// edges are the largest clique).
pub const MAX_DP_EDGES: usize = 12;

/// Most entries one all-runs pass stores: kernel edges and the raw keys its
/// intern map caches, plus the `f64` mass entries [`weak_outcomes`] holds.
/// The vertex and edge caps above bound a kernel, not how many classes a
/// long horizon reaches: on a graph with little symmetry the classes keep
/// growing with `N`. Past this budget (about 256 MiB of kernel edges)
/// [`sweep`] and [`weak_outcomes`] return [`CaError::MalformedConfig`]
/// instead of exhausting memory, checked once per kernel build. It admits
/// star7 at N = 14, t = 3 (16.3 M edges), the largest instance measured.
pub const MAX_DP_ENTRIES: u64 = 1 << 25;

/// Largest firing range `t = 1/ε` (and threshold `θ`) the all-runs passes
/// ([`sweep`], [`weak_outcomes`]) accept. The sweep's base sets are runs of
/// bases, whatever `t`; the bound is for [`weak_outcomes`], whose mass
/// vectors hold one `f64` per un-saturated base value, so a structural
/// class's mass is at most 512 KiB. Per-run evaluation ([`run_outcomes`])
/// keeps neither and takes any `t`.
pub const MAX_DP_T: u64 = 1 << 16;

/// Bits per process in the packed structural key: 2 (normalized count)
/// + 1 (valid) + 1 (token) + 8 (seen-set).
const PROC_BITS: u32 = 12;

/// One process's word of the packed structural key.
const WORD_MASK: u128 = (1 << PROC_BITS) - 1;

/// A DP-eligible output rule: the integer-parameter mirror of
/// [`ca_core::SlicedSpec`]. Both supported protocol families are the Figure-1
/// counting automaton; only the firing rule differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DpSpec {
    /// Protocol S's randomized rule: `rfire` uniform on `(offset, offset+t]`,
    /// attack iff `count ≥ 1 ∧ count + slack ≥ rfire`, so a process with
    /// `count ≥ 1` and the token attacks with probability
    /// `clamp((count + slack − offset) / t, 0, 1)` — exact in rationals.
    RandomFire {
        /// 0 for input-based validity, 1 for message-based (footnote 1).
        offset: u32,
        /// The firing range width `t = 1/ε` as an exact integer.
        t: u64,
        /// Decision slack (0 for standard S, 1 for the eager variant).
        slack: u32,
    },
    /// The deterministic threshold rule of
    /// [`ca_protocols::FixedThreshold`]: attack iff the process holds the
    /// token and `count ≥ θ`.
    Threshold {
        /// The firing threshold `θ ≥ 1`.
        theta: u32,
    },
}

impl DpSpec {
    /// Standard Protocol S with `ε = 1/t`.
    pub fn protocol_s(t: u64) -> Self {
        DpSpec::RandomFire {
            offset: 0,
            t,
            slack: 0,
        }
    }

    /// The eager variant ([`ca_protocols::ProtocolS::eager`]).
    pub fn eager(t: u64) -> Self {
        DpSpec::RandomFire {
            offset: 0,
            t,
            slack: 1,
        }
    }

    /// The message-based-validity variant
    /// ([`ca_protocols::ProtocolS::with_message_validity`]).
    pub fn message_validity(t: u64) -> Self {
        DpSpec::RandomFire {
            offset: 1,
            t,
            slack: 0,
        }
    }

    /// The deterministic threshold rule.
    pub fn threshold(theta: u32) -> Self {
        DpSpec::Threshold { theta }
    }

    /// Exact probability that a process with this final `count` (and token
    /// possession) attacks. Tokenless and count-0 processes never attack.
    pub fn attack_prob(&self, count: u32, has_token: bool) -> Rational {
        match self.attack_num(count, has_token) {
            0 => Rational::ZERO,
            num => Rational::new(num.into(), self.attack_den().into()),
        }
    }

    /// The one denominator of every attack probability: `t` for
    /// [`DpSpec::RandomFire`], 1 for [`DpSpec::Threshold`]. Since all of a
    /// spec's probabilities share it, the max of `k/D` is `(max k)/D`, so
    /// extremes are taken over the integer numerators.
    fn attack_den(&self) -> u64 {
        match *self {
            DpSpec::RandomFire { t, .. } => t,
            DpSpec::Threshold { .. } => 1,
        }
    }

    /// The numerator of [`Self::attack_prob`] over [`Self::attack_den`]:
    /// `clamp(count + slack − offset, 0, t)`, or the 0/1 threshold step.
    fn attack_num(&self, count: u32, has_token: bool) -> u64 {
        if !has_token || count == 0 {
            return 0;
        }
        match *self {
            DpSpec::RandomFire { offset, t, slack } => (u64::from(count) + u64::from(slack))
                .saturating_sub(u64::from(offset))
                .min(t),
            DpSpec::Threshold { theta } => u64::from(count >= theta),
        }
    }

    /// The `(TA, some attack)` numerators over [`Self::attack_den`] for
    /// processes with these final `(count, token)` pairs: every attack event
    /// is driven by the one shared `rfire` draw (or is deterministic), so
    /// they are nested — `Pr[TA] = min_i p_i`, `Pr[some attack] = max_i p_i`.
    fn outcome_nums(&self, procs: impl Iterator<Item = (u32, bool)>) -> (u64, u64) {
        procs.fold((self.attack_den(), 0), |(ta, some), (count, token)| {
            let k = self.attack_num(count, token);
            (ta.min(k), some.max(k))
        })
    }

    /// Exact outcome probabilities of processes that end a run with these
    /// final `(count, token)` pairs — Lemma 6.4's closed form: `Pr[TA|R]` is
    /// the least attack probability and `Pr[PA|R]` the gap up to the
    /// greatest (Theorems 6.7 and 6.8). Every per-run exact outcome of the
    /// Figure 1 family, synchronous or asynchronous, is read through this
    /// method. No processes, no attack.
    pub fn outcome(&self, procs: impl IntoIterator<Item = (u32, bool)>) -> ExactOutcome {
        let (ta, some) = self.outcome_nums(procs.into_iter());
        let den = self.attack_den();
        let rat = |num: u64| Rational::new(num.into(), den.into());
        let ta = ta.min(some);
        ExactOutcome {
            ta: rat(ta),
            na: rat(den - some),
            pa: rat(some - ta),
        }
    }

    /// The base at which every counting process (`count ≥ 1`, which implies
    /// token possession) fires with probability exactly 1, whatever its
    /// normalized count. Bases at or past this value are clip-equivalent:
    /// same outcome probabilities, same (shift-invariant) dynamics.
    fn saturation_base(&self) -> u32 {
        match *self {
            // count = 1 + base, p = 1 ⟺ 1 + base + slack − offset ≥ t.
            DpSpec::RandomFire { offset, t, slack } => {
                (t as i64 + i64::from(offset) - i64::from(slack) - 1).max(0) as u32
            }
            // count = 1 + base ≥ θ.
            DpSpec::Threshold { theta } => theta - 1,
        }
    }

    /// Validates the firing-rule parameters: a positive `t` with validity
    /// offset 0 or 1, or a positive `θ`.
    pub fn validate_params(&self) -> Result<(), CaError> {
        self.validate_range(u64::MAX)
    }

    /// [`Self::validate_params`] with `t` (or `θ`) also at most `max`.
    fn validate_range(&self, max: u64) -> Result<(), CaError> {
        match *self {
            DpSpec::RandomFire { offset, t, .. } => {
                if t == 0 || t > max {
                    return Err(CaError::malformed(format!(
                        "DP firing range t = {t} outside 1..={max}"
                    )));
                }
                if offset > 1 {
                    return Err(CaError::malformed(format!(
                        "DP rfire offset {offset} is not a validity mode (0 or 1)"
                    )));
                }
            }
            DpSpec::Threshold { theta } => {
                if theta == 0 || u64::from(theta) > max {
                    return Err(CaError::malformed(format!(
                        "DP threshold θ = {theta} outside 1..={max}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates parameters *and* the instance's fit for the all-runs passes
    /// ([`sweep`], [`weak_outcomes`]): `t` or `θ` within [`MAX_DP_T`] for the
    /// base sets, `m ≤ 8` for the packed seen-sets, and `E ≤ 12` for the
    /// successors a kernel can have.
    pub fn validate_for_sweep(&self, graph: &Graph) -> Result<(), CaError> {
        self.validate_range(MAX_DP_T)?;
        let m = graph.len();
        if !(2..=MAX_DP_PROCESSES).contains(&m) {
            return Err(CaError::malformed(format!(
                "level DP sweep supports 2..={MAX_DP_PROCESSES} processes, graph has {m}"
            )));
        }
        let edges = graph.directed_edges().count();
        if edges > MAX_DP_EDGES {
            return Err(CaError::malformed(format!(
                "level DP sweep supports ≤{MAX_DP_EDGES} directed edges, graph has {edges}"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-run exact outcomes (the level frontier's extremes)
// ---------------------------------------------------------------------------

/// Exact outcome probabilities of the DP-eligible protocol `spec` on one
/// fixed run. This is the one per-run exact engine of the Figure 1 family —
/// Protocol S and its eager and message-validity variants, and the
/// deterministic threshold rule — with no limit on `t`.
///
/// Lemma 6.4 makes each process's final count its modified level `ML_i(R)`,
/// and a count `≥ 1` implies the token. Every attack numerator is
/// nondecreasing in the count, so the least and greatest attack
/// probabilities are those of `min_i ML_i(R)` and `max_i ML_i(R)`
/// (Theorems 6.7 and 6.8): [`DpSpec::outcome`] of the frontier's extremes,
/// the same read `ca sweep` classifies with.
///
/// # Errors
///
/// [`DpSpec::validate_params`], and [`CaError::Model`] for a run that
/// [`Run::validate`] rejects on `graph` (a process-count mismatch, or a
/// slot on a non-edge).
pub fn run_outcomes(graph: &Graph, run: &Run, spec: &DpSpec) -> Result<ExactOutcome, CaError> {
    spec.validate_params()?;
    run.validate(graph)?;
    let (lo, hi) = modified_level_extremes_into(run, &mut LevelScratch::new());
    Ok(spec.outcome([(lo, lo >= 1), (hi, hi >= 1)]))
}

// ---------------------------------------------------------------------------
// Structural states: packing, interning
// ---------------------------------------------------------------------------

/// The automata before round 1: the leader holds the token, and a process
/// is valid iff `has_input` says its input arrived.
fn initial_states(graph: &Graph, has_input: impl Fn(ProcessId) -> bool) -> Vec<CountingState<u8>> {
    graph
        .vertices()
        .map(|i| {
            let token = (i == ProcessId::LEADER).then_some(1u8);
            CountingState::initial(graph.len(), i, has_input(i), token)
        })
        .collect()
}

/// A process's key bits other than its count: valid, token and seen-set.
fn flag_bits(s: &CountingState<u8>) -> u16 {
    let seen_mask = s.seen.iter().fold(0u16, |mask, b| mask | 1 << b);
    (u16::from(s.valid) << 2) | (u16::from(s.token.is_some()) << 3) | (seen_mask << 4)
}

/// Process `i`'s 12-bit word of the structural key, placed at its offset.
///
/// # Panics
///
/// Panics if the normalized count exceeds 2 — that would break Lemma 6.2's
/// spread invariant, which the packing relies on.
fn proc_word(i: usize, count: u32, flags: u16) -> u128 {
    assert!(
        count <= 2,
        "normalized count {count} breaks the Lemma 6.2 spread invariant"
    );
    u128::from(count as u16 | flags) << (i as u32 * PROC_BITS)
}

/// Packs the joint automaton state (normalized counts) into the structural
/// key: 12 bits per process, low process first.
fn pack_state(states: &[CountingState<u8>]) -> u128 {
    states
        .iter()
        .enumerate()
        .fold(0, |key, (i, s)| key | proc_word(i, s.count, flag_bits(s)))
}

/// Inverse of [`pack_state`].
fn unpack_state(key: u128, m: usize) -> Vec<CountingState<u8>> {
    (0..m)
        .map(|i| {
            let w = ((key >> (i as u32 * PROC_BITS)) & WORD_MASK) as u16;
            let mut seen = BitSet::new(m);
            for b in 0..m {
                if (w >> (4 + b)) & 1 == 1 {
                    seen.insert(b);
                }
            }
            CountingState {
                count: u32::from(w & 0b11),
                seen,
                valid: w & 0b100 != 0,
                token: (w & 0b1000 != 0).then_some(1u8),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Symmetry: one class per orbit of the graph's automorphisms
// ---------------------------------------------------------------------------

/// A graph automorphism `σ` acting on structural keys: process `i`'s word
/// moves to `σ(i)`, and its seen-set bits map through `σ`.
struct Automorphism {
    /// Per key position `j`, the process whose word lands there: `σ⁻¹(j)`.
    from: [u8; MAX_DP_PROCESSES],
    /// Per seen-set byte, its image under `σ`.
    seen: [u8; 256],
}

/// Every automorphism of `graph` but the identity, found by backtracking
/// over vertex maps: vertex `v` may map to an unused vertex of its degree
/// whose edges to the images of `0..v` are exactly `v`'s edges to `0..v`.
/// The maps that move the leader are kept too: a key carries each process's
/// token flag, and the automaton reads nothing else of who leads.
fn automorphisms(graph: &Graph) -> Vec<Automorphism> {
    fn extend(adj: &[u8], map: &mut [u8; MAX_DP_PROCESSES], used: u8, out: &mut Vec<Automorphism>) {
        let v = used.count_ones() as usize;
        if v == adj.len() {
            if map
                .iter()
                .take(v)
                .enumerate()
                .any(|(i, &s)| usize::from(s) != i)
            {
                let mut from = [0; MAX_DP_PROCESSES];
                for (i, &s) in map.iter().take(v).enumerate() {
                    from[usize::from(s)] = i as u8;
                }
                let seen = std::array::from_fn(|byte| {
                    (0..v)
                        .filter(|&b| byte >> b & 1 == 1)
                        .fold(0, |img, b| img | 1 << map[b])
                });
                out.push(Automorphism { from, seen });
            }
            return;
        }
        for u in (0..adj.len()).filter(|&u| used >> u & 1 == 0) {
            let keeps_edges = adj[u].count_ones() == adj[v].count_ones()
                && (0..v).all(|w| adj[v] >> w & 1 == adj[u] >> map[w] & 1);
            if keeps_edges {
                map[v] = u as u8;
                extend(adj, map, used | 1 << u, out);
            }
        }
    }
    let adj: Vec<u8> = graph
        .vertices()
        .map(|v| graph.neighbors(v).iter().fold(0, |a, u| a | 1 << u.index()))
        .collect();
    let mut out = Vec::new();
    extend(&adj, &mut [0; MAX_DP_PROCESSES], 0, &mut out);
    out
}

/// The least key in `key`'s orbit under `autos` (the identity included).
/// Each image is built from the top word down and dropped at the first word
/// above the best so far.
fn canonical(key: u128, m: usize, autos: &[Automorphism]) -> u128 {
    let mut words = [0u16; MAX_DP_PROCESSES];
    for (i, w) in words.iter_mut().take(m).enumerate() {
        *w = (key >> (i as u32 * PROC_BITS) & WORD_MASK) as u16;
    }
    let mut best = key;
    'group: for a in autos {
        let mut image = 0;
        let mut below = false;
        for j in (0..m).rev() {
            let w = words[usize::from(a.from[j])];
            let w = w & 0xF | u16::from(a.seen[usize::from(w >> 4)]) << 4;
            let at = j as u32 * PROC_BITS;
            if !below {
                let b = (best >> at & WORD_MASK) as u16;
                if w > b {
                    continue 'group;
                }
                below = w < b;
            }
            image |= u128::from(w) << at;
        }
        if below {
            best = image;
        }
    }
    best
}

/// Hashes the intern map's `u128` keys with one folded multiply: cheaper
/// than SipHash, and the keys are not attacker-chosen.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u128(&mut self, key: u128) {
        let lo = key as u64 ^ 0x243F_6A88_85A3_08D3;
        let hi = (key >> 64) as u64 ^ 0x1319_8A2E_0370_7344;
        let product = u128::from(lo) * u128::from(hi);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

// ---------------------------------------------------------------------------
// Base sets: reachable common shifts per structural class, clipped
// ---------------------------------------------------------------------------

/// An inclusive run `lo..=hi` of reachable bases.
type BaseRun = (u32, u32);

/// The set of reachable bases for one structural class, within `0..=cap`,
/// where the cap is the clip-equivalence class "saturated — everything
/// fires with probability 1". Stored as disjoint, non-adjacent runs in
/// ascending order: the first inline, any further ones spilled to `rest`.
/// On every instance measured each class's reachable bases form one run,
/// which a shift updates in O(1); more runs stay exact, at O(runs) per
/// merge.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BaseSet {
    /// The lowest run; `None` iff the set is empty.
    first: Option<BaseRun>,
    /// The runs above `first`, ascending.
    rest: Vec<BaseRun>,
    /// The saturation cap: the highest base the set can hold.
    cap: u32,
}

impl BaseSet {
    fn empty(cap: u32) -> Self {
        BaseSet {
            first: None,
            rest: Vec::new(),
            cap,
        }
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Empties the set, keeping its spill allocation.
    fn clear(&mut self) {
        self.first = None;
        self.rest.clear();
    }

    fn insert(&mut self, b: u32) {
        debug_assert!(b <= self.cap);
        self.add_run((b, b));
    }

    /// Highest reachable base, if any.
    fn top(&self) -> Option<u32> {
        self.rest.last().or(self.first.as_ref()).map(|&(_, hi)| hi)
    }

    /// The runs, ascending.
    fn runs(&self) -> impl Iterator<Item = BaseRun> + '_ {
        self.first.into_iter().chain(self.rest.iter().copied())
    }

    /// Adds the bases `lo..=hi`, merging runs that overlap or touch.
    #[inline]
    fn add_run(&mut self, (lo, hi): BaseRun) {
        match self.first {
            None => self.first = Some((lo, hi)),
            Some((a, b)) if self.rest.is_empty() && lo <= b + 1 && a <= hi + 1 => {
                self.first = Some((a.min(lo), b.max(hi)));
            }
            Some(_) => self.merge_run((lo, hi)),
        }
    }

    /// [`BaseSet::add_run`] once the set holds, or would hold, more than one
    /// run: re-merges the sorted list.
    #[cold]
    #[inline(never)]
    fn merge_run(&mut self, run: BaseRun) {
        let mut all: Vec<BaseRun> = self.runs().collect();
        all.insert(all.partition_point(|&(a, _)| a < run.0), run);
        self.rest.clear();
        for run in all {
            match self.rest.last_mut() {
                Some(last) if run.0 <= last.1 + 1 => last.1 = last.1.max(run.1),
                _ => self.rest.push(run),
            }
        }
        self.first = Some(self.rest.remove(0));
    }

    /// ORs `other` shifted up by `delta` into `self`, clamping both ends of
    /// each run to the cap, which folds every base past it onto it. Returns
    /// whether any base was clipped — a clip-equivalence-class collapse.
    fn or_shifted(&mut self, other: &BaseSet, delta: u32) -> bool {
        debug_assert_eq!(self.cap, other.cap);
        // `first` is read apart from `rest`, not through `runs()`: the
        // chained iterator made this one-run shift, the sweep's inner loop,
        // ~1.5× slower on K3 at N = t = 1000.
        let Some(first) = other.first else {
            return false;
        };
        let cap = u64::from(self.cap);
        let shift = |b: u32| u64::from(b) + u64::from(delta);
        let clamp = |(lo, hi): BaseRun| (shift(lo).min(cap) as u32, shift(hi).min(cap) as u32);
        self.add_run(clamp(first));
        for &run in &other.rest {
            self.add_run(clamp(run));
        }
        let top = other.rest.last().map_or(first.1, |&(_, hi)| hi);
        shift(top) > cap
    }
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

/// One row of the exactly computed §8 curve: worst-case (over all runs of
/// this horizon) total-attack and partial-attack probabilities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Run horizon (number of rounds).
    pub round: u32,
    /// `max_R Pr[TA|R]` — the best achievable liveness at this horizon.
    pub max_ta: Rational,
    /// `max_R Pr[PA|R]` — the worst-case disagreement `U_s` at this horizon.
    pub max_pa: Rational,
}

/// Deterministic work counters of one sweep (mirrored into the `exact.dp.*`
/// observability counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpStats {
    /// Distinct classes interned: orbits of structural states under the
    /// graph's automorphisms, each named by its least key.
    pub structural_states: u64,
    /// Frontier entries expanded, summed over rounds.
    pub states_visited: u64,
    /// Kernel-cache hits (a class revisited in a later round or frontier).
    pub kernel_hits: u64,
    /// Kernel-cache misses (kernels actually computed: `Σ_j 2^indeg(j)`
    /// automaton steps each, one per subset of a receiver's in-edges).
    pub kernel_misses: u64,
    /// Kernel-edge applications that clipped: a source's base set shifted
    /// past the saturation cap and folded onto it (clip-equivalence
    /// collapses), counted once per edge, not per folded base.
    pub collapses: u64,
}

/// The byte-stable result of [`sweep`]: the exactly computed tradeoff curve
/// plus the work statistics. Contains no wall-clock fields, so serialized
/// reports are identical run to run — the `ca exact --compare` drift gate
/// relies on this.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Report schema version.
    pub schema: u32,
    /// Number of processes.
    pub m: usize,
    /// Sweep horizon N.
    pub rounds: u32,
    /// The firing rule analyzed.
    pub spec: DpSpec,
    /// First horizon with `max_ta = 1` (liveness 1 achievable), if reached.
    pub first_certain_round: Option<u32>,
    /// `max_ta` at the final horizon.
    pub final_max_ta: Rational,
    /// Worst-case disagreement at the final horizon — since sparse runs
    /// embed every shorter run, this is `U_s` over the whole ≤N-round family.
    pub u_s: Rational,
    /// Curve rows at the requested checkpoint horizons (final always
    /// included).
    pub curve: Vec<CurvePoint>,
    /// Work counters.
    pub stats: DpStats,
}

/// A memoized transition kernel: the distinct `(successor id, base delta)`
/// edges of one structural class, stored at their exact size.
type Kernel = Box<[(u32, u32)]>;

/// The weak adversary's kernel: each edge with its probability.
type WeightedKernel = Box<[(u32, u32, f64)]>;

/// Two bases of one structural class, found by binary search over
/// `0..=cap` (its TA and "some attack" numerators are nondecreasing in the
/// base) and memoized per class.
#[derive(Clone, Copy, Debug)]
struct Thresholds {
    /// The least base with TA = 1, or `cap + 1` if none.
    certain: u32,
    /// The least base at which "some attack" reaches its value at the cap.
    peak: u32,
}

/// The engine state of one all-runs pass of `spec`, separated so kernels
/// intern successors while the frontier is being expanded.
///
/// A class is an orbit of structural keys under the graph's automorphisms,
/// named by its least key. Kernels commute with automorphisms (the
/// automaton reads a delivered set, not its order, and a key carries each
/// process's token), outcome numerators are symmetric in the processes, and
/// iid loss weighs an edge set and its image alike. So the orbit of a
/// successor and its delta do not depend on which member was stepped, and
/// both measures are exact on orbits: an orbit's bases are the union of its
/// members' bases, and its mass their sum.
struct Sweeper {
    m: usize,
    spec: DpSpec,
    /// The saturation cap: [`DpSpec::saturation_base`].
    cap: u32,
    /// Per receiver: the sender of each of its in-edges.
    senders: Vec<Vec<usize>>,
    /// The graph's automorphisms other than the identity.
    autos: Vec<Automorphism>,
    /// Raw or canonical structural key → interned id, so every raw key is
    /// canonicalized once.
    ids: HashMap<u128, u32, BuildHasherDefault<KeyHasher>>,
    /// id → the least key of the class's orbit.
    keys: Vec<u128>,
    /// id → memoized transition kernel.
    kernels: Vec<Option<Kernel>>,
    /// id → memoized [`Sweeper::thresholds`].
    thresholds: Vec<Option<Thresholds>>,
    /// Kernel edges, cached raw keys and mass entries held, against
    /// `budget`.
    stored: u64,
    /// The most entries the pass may hold: [`MAX_DP_ENTRIES`].
    budget: u64,
    stats: DpStats,
}

impl Sweeper {
    fn new(graph: &Graph, spec: &DpSpec) -> Self {
        let mut senders = vec![Vec::new(); graph.len()];
        for (from, to) in graph.directed_edges() {
            senders[to.index()].push(from.index());
        }
        Sweeper {
            m: graph.len(),
            spec: *spec,
            cap: spec.saturation_base(),
            senders,
            autos: automorphisms(graph),
            ids: HashMap::default(),
            keys: Vec::new(),
            kernels: Vec::new(),
            thresholds: Vec::new(),
            stored: 0,
            budget: MAX_DP_ENTRIES,
            stats: DpStats::default(),
        }
    }

    /// The class of raw key `key`: its orbit, interned on first sight.
    fn intern(&mut self, key: u128) -> usize {
        if let Some(&id) = self.ids.get(&key) {
            return id as usize;
        }
        let canon = canonical(key, self.m, &self.autos);
        // A key that is its orbit's least has just missed the lookup.
        let known = if canon == key {
            None
        } else {
            self.ids.get(&canon).copied()
        };
        let id = match known {
            Some(id) => id,
            None => {
                let id = self.keys.len() as u32;
                self.ids.insert(canon, id);
                self.keys.push(canon);
                self.kernels.push(None);
                self.thresholds.push(None);
                self.stats.structural_states += 1;
                id
            }
        };
        if canon != key {
            self.ids.insert(key, id);
            // Checked with the next kernel's edges.
            self.stored += 1;
        }
        id as usize
    }

    /// Counts `n` more stored entries against the budget.
    fn charge(&mut self, n: usize) -> Result<(), CaError> {
        self.stored += n as u64;
        if self.stored > self.budget {
            return Err(CaError::malformed(format!(
                "level DP budget exceeded: more than {} kernel edges, raw keys and mass \
                 entries after {} classes",
                self.budget,
                self.keys.len()
            )));
        }
        Ok(())
    }

    /// The memoized kernel for structural class `id`: its distinct
    /// `(successor class, base delta)` edges, sorted.
    fn kernel(&mut self, id: usize, obs: &Metrics) -> Result<&[(u32, u32)], CaError> {
        if self.kernels[id].is_some() {
            self.stats.kernel_hits += 1;
            obs.inc(CounterId::ExactDpKernelHits);
        } else {
            self.stats.kernel_misses += 1;
            obs.inc(CounterId::ExactDpKernelMisses);
            let _span = obs.span(SpanId::ExactDpKernel);
            let mut edges = Vec::new();
            // Weights at p = 0 are never read: the strong kernel is the set.
            self.for_each_successor(id, 0.0, |succ, delta, _| {
                edges.push((succ as u32, delta));
            });
            edges.sort_unstable();
            edges.dedup();
            self.charge(edges.len())?;
            self.kernels[id] = Some(edges.into_boxed_slice());
        }
        Ok(self.kernels[id].as_deref().expect("kernel just ensured"))
    }

    /// Reports every distinct raw successor of structural class `id` as
    /// `(successor class, base delta, weight)`.
    ///
    /// In a synchronous round receiver `j`'s next state depends only on its
    /// own state and on which of its in-edges deliver (Figure 1's
    /// PROCESS-MESSAGE reads nothing else), so the real automaton steps once
    /// per subset of each receiver's in-edges — `Σ_j 2^indeg(j)` steps, not
    /// one per `2^E` delivery pattern — and the successors are the cartesian
    /// product of the receivers' distinct outcomes. A raw joint state is its
    /// normalized key plus the delta, so distinct elements are distinct raw
    /// successors; raw successors in one orbit report the same class, which
    /// the kernels merge. An element's weight is its probability when each
    /// message is destroyed independently with probability `p`: the product
    /// over receivers of `Σ (1−p)^k p^(indeg−k)` over the subsets giving that
    /// receiver's outcome.
    fn for_each_successor(&mut self, id: usize, p: f64, mut visit: impl FnMut(usize, u32, f64)) {
        let m = self.m;
        let states = unpack_state(self.keys[id], m);
        let msgs: Vec<CountingMsg<u8>> = states.iter().map(CountingState::to_msg).collect();
        // Per receiver: its distinct next states as `(raw count, flag bits,
        // summed weight)`, in first-seen order.
        let outcomes: Vec<Vec<(u32, u16, f64)>> = states
            .iter()
            .zip(&self.senders)
            .enumerate()
            .map(|(j, (state, senders))| {
                let indeg = senders.len() as i32;
                let mut distinct: Vec<(u32, u16, f64)> = Vec::new();
                for subset in 0u32..1 << indeg {
                    let mut next = state.clone();
                    if subset != 0 {
                        let inbox = senders
                            .iter()
                            .enumerate()
                            .filter(move |&(b, _)| subset >> b & 1 == 1)
                            .map(|(_, &from)| &msgs[from]);
                        next.process_messages_from(m, ProcessId::new(j as u32), inbox);
                    }
                    let k = subset.count_ones() as i32;
                    let w = (1.0 - p).powi(k) * p.powi(indeg - k);
                    let flags = flag_bits(&next);
                    match distinct
                        .iter_mut()
                        .find(|o| (o.0, o.1) == (next.count, flags))
                    {
                        Some(o) => o.2 += w,
                        None => distinct.push((next.count, flags, w)),
                    }
                }
                distinct
            })
            .collect();
        // Odometer over the product; shift by (min count − 1) to normalize,
        // so the minimum positive count sits at exactly 1 (the `count ≥ 1`
        // semantics the automaton branches on).
        let mut pick = vec![0usize; m];
        loop {
            let chosen = || pick.iter().zip(&outcomes).map(|(&c, o)| o[c]);
            let min = chosen().map(|(count, ..)| count).min().unwrap_or(0);
            let delta = min.saturating_sub(1);
            let (key, weight) =
                chosen()
                    .enumerate()
                    .fold((0, 1.0), |(key, weight), (j, (count, flags, w))| {
                        (key | proc_word(j, count - delta, flags), weight * w)
                    });
            visit(self.intern(key), delta, weight);
            let Some(j) = (0..m).find(|&j| pick[j] + 1 < outcomes[j].len()) else {
                return;
            };
            pick[j] += 1;
            pick[..j].fill(0);
        }
    }

    /// The weak adversary's kernel for class `id`: every successor with its
    /// probability when each message is destroyed independently with
    /// probability `p`, sorted. Zero-weight edges are dropped; the weights
    /// of one successor's raw edges are summed in product order.
    fn weighted_kernel(&mut self, id: usize, p: f64) -> Result<WeightedKernel, CaError> {
        let mut edges = Vec::new();
        self.for_each_successor(id, p, |succ, delta, w| {
            if w > 0.0 {
                edges.push((succ as u32, delta, w));
            }
        });
        // A stable sort: duplicates stay in product order.
        edges.sort_by_key(|&(succ, delta, _)| (succ, delta));
        edges.dedup_by(|dup, kept| {
            let same = (dup.0, dup.1) == (kept.0, kept.1);
            if same {
                kept.2 += dup.2;
            }
            same
        });
        self.charge(edges.len())?;
        Ok(edges.into_boxed_slice())
    }

    /// The `(TA, some attack)` numerators of class `id` at `base`, over
    /// [`DpSpec::attack_den`].
    fn outcome_nums(&self, id: usize, base: u32) -> (u64, u64) {
        let key = self.keys[id];
        self.spec.outcome_nums((0..self.m).map(|i| {
            let w = (key >> (i as u32 * PROC_BITS)) as u32;
            ((w & 0b11) + base, w & 0b1000 != 0)
        }))
    }

    /// Whether class `id` has a process at normalized count 0. A zero count
    /// forces a zero delta and counts never decrease, so such a class is
    /// reachable only at base 0.
    fn has_zero_count(&self, id: usize) -> bool {
        (0..self.m).any(|i| (self.keys[id] >> (i as u32 * PROC_BITS)) & 0b11 == 0)
    }

    /// The round-0 frontier: every input subset at base 0 (the adversary
    /// also chooses which inputs arrive — matching `Run::enumerate_all`'s
    /// run space).
    fn start(&mut self, graph: &Graph) -> Vec<BaseSet> {
        let mut frontier = Vec::new();
        for mask in 0u32..1 << self.m {
            let states = initial_states(graph, |i| mask >> i.index() & 1 == 1);
            let id = self.intern(pack_state(&states));
            frontier.resize_with(self.keys.len(), || BaseSet::empty(self.cap));
            frontier[id].insert(0);
        }
        frontier
    }

    /// Expands every class of `frontier` through its kernel into `next`
    /// (empty on entry), in ascending id order, and empties `frontier`.
    fn step(
        &mut self,
        frontier: &mut [BaseSet],
        next: &mut Vec<BaseSet>,
        obs: &Metrics,
    ) -> Result<(), CaError> {
        for (id, bases) in frontier.iter_mut().enumerate() {
            if bases.is_empty() {
                continue;
            }
            self.stats.states_visited += 1;
            obs.inc(CounterId::ExactDpStates);
            let cap = self.cap;
            let mut collapses = 0;
            for &(succ, delta) in self.kernel(id, obs)? {
                let succ = succ as usize;
                if next.len() <= succ {
                    next.resize_with(succ + 1, || BaseSet::empty(cap));
                }
                if next[succ].or_shifted(bases, delta) {
                    collapses += 1;
                    obs.inc(CounterId::ExactDpCollapses);
                }
            }
            self.stats.collapses += collapses;
            bases.clear();
        }
        Ok(())
    }

    /// Adds `rounds` more steps of a frontier at its fixed point to the work
    /// counters, in closed form. `before` holds the counters as they stood
    /// before the step that found the fixed point: each further step visits
    /// the same classes and clips the same kernel edges, and every one of
    /// its kernels is now a hit.
    fn repeat_step(&mut self, before: DpStats, rounds: u32, obs: &Metrics) {
        let rounds = u64::from(rounds);
        let visited = (self.stats.states_visited - before.states_visited) * rounds;
        let collapses = (self.stats.collapses - before.collapses) * rounds;
        self.stats.states_visited += visited;
        self.stats.kernel_hits += visited;
        self.stats.collapses += collapses;
        obs.add(CounterId::ExactDpStates, visited);
        obs.add(CounterId::ExactDpKernelHits, visited);
        obs.add(CounterId::ExactDpCollapses, collapses);
    }

    /// Per-round certainty test: TA is nondecreasing in the base (every
    /// attack probability is), so a class reaches TA = 1 iff its highest
    /// reachable base is at least its `certain` threshold. True iff some
    /// class does.
    fn ta_certain(&mut self, frontier: &[BaseSet]) -> bool {
        frontier.iter().enumerate().any(|(id, bases)| {
            bases
                .top()
                .is_some_and(|top| top >= self.thresholds(id).certain)
        })
    }

    /// Class `id`'s [`Thresholds`], memoized.
    fn thresholds(&mut self, id: usize) -> Thresholds {
        if let Some(thresholds) = self.thresholds[id] {
            return thresholds;
        }
        let den = self.spec.attack_den();
        let saturated = self.outcome_nums(id, self.cap).1;
        let thresholds = Thresholds {
            certain: self.least_base(id, |(ta, _)| ta == den),
            peak: self.least_base(id, |(_, some)| some == saturated),
        };
        self.thresholds[id] = Some(thresholds);
        thresholds
    }

    /// The least base in `0..=cap` at which class `id`'s `(TA, some
    /// attack)` numerators satisfy `holds`, or `cap + 1` if none do, by
    /// binary search: `holds` must stay true once it holds, as it does for
    /// any bound on those nondecreasing numerators.
    fn least_base(&self, id: usize, holds: impl Fn((u64, u64)) -> bool) -> u32 {
        let (mut lo, mut hi) = (0, self.cap + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if holds(self.outcome_nums(id, mid)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// The `(max TA, max PA)` numerators of class `id` over the bases
    /// `lo..=hi`, in O(1) once the class's thresholds are known. TA is
    /// nondecreasing in the base, so its max sits at `hi`. On a class's
    /// reachable bases "some attack" and TA are clamps or steps of
    /// `count + base` with the same slope, so PA = some − TA never falls
    /// before the peak and never rises after it: its max sits at the peak
    /// clamped into the run. A class with a zero count, where that slope
    /// argument fails, is reachable only at base 0.
    fn run_extremes(&mut self, id: usize, (lo, hi): BaseRun) -> (u64, u64) {
        debug_assert!(
            hi == 0 || !self.has_zero_count(id),
            "class {id} at base {hi}"
        );
        let peak = self.thresholds(id).peak.clamp(lo, hi);
        let (ta, _) = self.outcome_nums(id, hi);
        let (peak_ta, peak_some) = self.outcome_nums(id, peak);
        (ta, peak_some - peak_ta)
    }

    /// Checkpoint extremes over every reachable `(class, base)` pair: the
    /// fold of [`Sweeper::run_extremes`] over each class's runs.
    fn extremes(&mut self, frontier: &[BaseSet], obs: &Metrics) -> (Rational, Rational) {
        let _span = obs.span(SpanId::ExactDpExtremes);
        let mut max_ta = 0;
        let mut max_pa = 0;
        for (id, bases) in frontier.iter().enumerate() {
            for run in bases.runs() {
                let (ta, pa) = self.run_extremes(id, run);
                max_ta = max_ta.max(ta);
                max_pa = max_pa.max(pa);
            }
        }
        let rat = |num: u64| Rational::new(num.into(), self.spec.attack_den().into());
        (rat(max_ta), rat(max_pa))
    }
}

/// Whether two frontiers hold the same base set for every class, a class
/// past either's end holding none.
fn same_frontier(a: &[BaseSet], b: &[BaseSet]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short == &long[..short.len()] && long[short.len()..].iter().all(BaseSet::is_empty)
}

/// Runs the level-vector DP over **all** runs of horizon ≤ `rounds` (every
/// input subset × every per-round delivery pattern) and returns the exactly
/// computed worst-case curve: `max_R Pr[TA|R]` at every horizon (recorded at
/// the checkpoint horizons, plus the final), `max_R Pr[PA|R]` at the
/// checkpoints, the first horizon achieving liveness 1, and the DP work
/// statistics.
///
/// Time is `O(rounds · classes · kernel-edges)` plus one kernel computation
/// (`Σ_j 2^indeg(j)` automaton steps) per structural class — polynomial in
/// `rounds` where enumeration is exponential. Once a step leaves the
/// frontier unchanged (checked at power-of-two rounds) every later round
/// repeats it: the sweep stops there, reads the remaining checkpoints off
/// the fixed frontier and adds the remaining rounds' work counters in
/// closed form, so the report is the one stepping every round would give.
///
/// # Errors
///
/// [`DpSpec::validate_for_sweep`], and [`CaError::MalformedConfig`] once
/// kernel edges and cached raw keys exceed [`MAX_DP_ENTRIES`].
pub fn sweep(
    graph: &Graph,
    rounds: u32,
    spec: &DpSpec,
    checkpoints: &[u32],
) -> Result<SweepReport, CaError> {
    sweep_within(graph, rounds, spec, checkpoints, MAX_DP_ENTRIES)
}

/// [`sweep`] under a budget of `budget` stored entries.
fn sweep_within(
    graph: &Graph,
    rounds: u32,
    spec: &DpSpec,
    checkpoints: &[u32],
    budget: u64,
) -> Result<SweepReport, CaError> {
    spec.validate_for_sweep(graph)?;
    let obs = Metrics::new();
    let report = (|| {
        let _sweep_span = obs.span(SpanId::ExactDpSweep);
        let mut sw = Sweeper::new(graph, spec);
        sw.budget = budget;
        // Two reused buffers, indexed by class id; an empty set is a class
        // absent from the frontier.
        let mut frontier = sw.start(graph);
        let mut next: Vec<BaseSet> = Vec::new();

        let mut wanted: Vec<u32> = checkpoints
            .iter()
            .copied()
            .filter(|&c| c <= rounds)
            .chain([rounds])
            .collect();
        wanted.sort_unstable();
        wanted.dedup();

        let mut curve: Vec<CurvePoint> = Vec::new();
        let mut first_certain: Option<u32> = None;
        let mut record = |sw: &mut Sweeper, frontier: &[BaseSet], round: u32| {
            if wanted.binary_search(&round).is_ok() {
                let (max_ta, max_pa) = sw.extremes(frontier, &obs);
                curve.push(CurvePoint {
                    round,
                    max_ta,
                    max_pa,
                });
            }
        };
        record(&mut sw, &frontier, 0);

        for r in 1..=rounds {
            // Every kernel holds its class's empty-delivery edge (the class
            // itself, delta 0), so the frontier only grows, and a step that
            // leaves it unchanged leaves it unchanged for good. Checking
            // only at power-of-two rounds before the last keeps the test
            // off the loop.
            let before = (r.is_power_of_two() && r < rounds).then(|| (frontier.clone(), sw.stats));
            sw.step(&mut frontier, &mut next, &obs)?;
            std::mem::swap(&mut frontier, &mut next);
            if first_certain.is_none() && sw.ta_certain(&frontier) {
                first_certain = Some(r);
            }
            record(&mut sw, &frontier, r);
            if let Some((_, stats)) = before.filter(|(prev, _)| same_frontier(prev, &frontier)) {
                sw.repeat_step(stats, rounds - r, &obs);
                for &c in wanted.iter().filter(|&&c| c > r) {
                    record(&mut sw, &frontier, c);
                }
                break;
            }
        }

        let last = curve.last().copied().unwrap_or(CurvePoint {
            round: rounds,
            max_ta: Rational::ZERO,
            max_pa: Rational::ZERO,
        });
        Ok(SweepReport {
            schema: 1,
            m: graph.len(),
            rounds,
            spec: *spec,
            first_certain_round: first_certain,
            final_max_ta: last.max_ta,
            u_s: last.max_pa,
            curve,
            stats: sw.stats,
        })
    })();
    obs.flush();
    report
}

/// Expected outcome probabilities against the weak adversary, from
/// [`weak_outcomes`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeakOutcome {
    /// Expected liveness `E[Pr[TA|R]]` over the run distribution.
    pub ta: f64,
    /// Expected disagreement `E[Pr[PA|R]]` over the run distribution.
    pub pa: f64,
}

/// Exact expected outcomes of `spec` after `rounds` rounds against §8's weak
/// adversary: every input arrives, and each message is destroyed
/// independently with probability `p`.
///
/// The same structural classes and real-automaton kernels as [`sweep`], but
/// the transfer carries a probability mass per `(class, base)` instead of a
/// set of reachable bases. A delivery pattern with `k` of the `E` directed
/// edges delivered weighs `(1−p)^k · p^(E−k)`; since losses are independent
/// per edge, a kernel edge's weight is the product over receivers of the
/// weights of their own in-edge subsets. Mass at bases past the saturation
/// base folds onto it, exactly as the sweep clips, and nothing is pruned:
/// the only error is f64 rounding.
///
/// # Errors
///
/// The sweep's limits ([`DpSpec::validate_for_sweep`]),
/// [`CaError::MalformedConfig`] for `p` outside `[0, 1]` (NaN included),
/// and the same error once kernel edges, cached raw keys and mass entries
/// exceed [`MAX_DP_ENTRIES`].
pub fn weak_outcomes(
    graph: &Graph,
    rounds: u32,
    spec: &DpSpec,
    p: f64,
) -> Result<WeakOutcome, CaError> {
    weak_outcomes_within(graph, rounds, spec, p, MAX_DP_ENTRIES)
}

/// [`weak_outcomes`] under a budget of `budget` stored entries.
fn weak_outcomes_within(
    graph: &Graph,
    rounds: u32,
    spec: &DpSpec,
    p: f64,
    budget: u64,
) -> Result<WeakOutcome, CaError> {
    spec.validate_for_sweep(graph)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(CaError::malformed(format!(
            "drop probability p must be in [0,1], got {p}"
        )));
    }
    let mut sw = Sweeper::new(graph, spec);
    sw.budget = budget;
    let cap = sw.cap as usize;
    let start = sw.intern(pack_state(&initial_states(graph, |_| true)));
    // Per class: the mass at each base, up to the highest base reached.
    let mut mass: Vec<Vec<f64>> = vec![Vec::new(); sw.keys.len()];
    mass[start].push(1.0);
    sw.charge(1)?;
    let mut kernels: Vec<Option<WeightedKernel>> = Vec::new();
    for _ in 0..rounds {
        let mut next: Vec<Vec<f64>> = Vec::new();
        for (id, src) in mass.iter().enumerate() {
            if src.is_empty() {
                continue;
            }
            if kernels.len() <= id {
                kernels.resize_with(id + 1, || None);
            }
            if kernels[id].is_none() {
                kernels[id] = Some(sw.weighted_kernel(id, p)?);
            }
            let kernel = kernels[id].as_deref().expect("kernel just ensured");
            next.resize_with(sw.keys.len(), Vec::new);
            for &(succ, delta, w) in kernel {
                let delta = delta as usize;
                let dst = &mut next[succ as usize];
                let top = (src.len() - 1 + delta).min(cap);
                if dst.len() <= top {
                    sw.charge(top + 1 - dst.len())?;
                    dst.resize(top + 1, 0.0);
                }
                // Bases landing below the cap get one add each, as a slice
                // add that vectorizes; the rest fold onto the cap in
                // ascending order. Every accumulator sees the adds of one
                // clamped add per base in the same order: bit-identical.
                let (below, folded) = src.split_at(src.len().min(cap.saturating_sub(delta)));
                if !below.is_empty() {
                    for (d, &x) in dst[delta..].iter_mut().zip(below) {
                        *d += w * x;
                    }
                }
                for &x in folded {
                    dst[cap] += w * x;
                }
            }
        }
        sw.stored -= mass.iter().map(|bases| bases.len() as u64).sum::<u64>();
        mass = next;
    }
    // `k / D` in f64 is the same correctly rounded quotient as the reduced
    // fraction's: both operands are exact, and so is the value.
    let den = spec.attack_den() as f64;
    let mut out = WeakOutcome { ta: 0.0, pa: 0.0 };
    for (id, bases) in mass.iter().enumerate() {
        for (base, &x) in bases.iter().enumerate() {
            let (ta, some) = sw.outcome_nums(id, base as u32);
            out.ta += x * (ta as f64 / den);
            out.pa += x * ((some - ta) as f64 / den);
        }
    }
    Ok(out)
}

/// The brute-force oracle for [`sweep`]: enumerates **every** run of the
/// horizon with [`Run::try_enumerate_all`] (typed `bits > 24` error past the
/// wall — exactly the wall the DP removes) and maximizes [`run_outcomes`]
/// over it. Returns `(max_ta, max_pa)`.
pub fn worst_case_by_enumeration(
    graph: &Graph,
    rounds: u32,
    spec: &DpSpec,
) -> Result<(Rational, Rational), CaError> {
    spec.validate_params()?;
    let mut max_ta = Rational::ZERO;
    let mut max_pa = Rational::ZERO;
    for run in Run::try_enumerate_all(graph, rounds)? {
        let out = run_outcomes(graph, &run, spec)?;
        max_ta = max_ta.max(out.ta);
        max_pa = max_pa.max(out.pa);
    }
    Ok((max_ta, max_pa))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::dense_levels;
    use ca_core::ids::Round;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    fn rat(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// star4 led from a leaf: hub 1. Its automorphisms move the leader.
    fn leaf_led_star4() -> Result<Graph, ca_core::ModelError> {
        Graph::new(4, &[(1, 0), (1, 2), (1, 3)])
    }

    /// The paw: triangle 0–1–2 with a pendant 3 on 2. Swapping 0 and 1
    /// moves the leader.
    fn paw() -> Result<Graph, ca_core::ModelError> {
        Graph::new(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    /// Every vertex map of `graph` that keeps its edges, found by trying all
    /// `m!` permutations: `maps[k][i]` is the image of vertex `i`.
    fn vertex_automorphisms(graph: &Graph) -> Vec<Vec<usize>> {
        let m = graph.len();
        let mut perms: Vec<Vec<usize>> = vec![Vec::new()];
        for _ in 0..m {
            perms = perms
                .iter()
                .flat_map(|perm| {
                    (0..m)
                        .filter(move |v| !perm.contains(v))
                        .map(move |v| [perm.as_slice(), &[v]].concat())
                })
                .collect();
        }
        let p = |i: usize| ProcessId::new(i as u32);
        perms
            .into_iter()
            .filter(|map| {
                graph
                    .edges()
                    .iter()
                    .all(|&(a, b)| graph.has_edge(p(map[a.index()]), p(map[b.index()])))
            })
            .collect()
    }

    /// The least key in `key`'s orbit under `maps`: a map moves process
    /// `i`'s state to its image, and maps the seen-set element-wise.
    fn orbit_min(key: u128, m: usize, maps: &[Vec<usize>]) -> u128 {
        let states = unpack_state(key, m);
        maps.iter()
            .map(|map| {
                let mut image = states.clone();
                for (i, state) in states.iter().enumerate() {
                    let mut seen = BitSet::new(m);
                    for b in state.seen.iter() {
                        seen.insert(map[b]);
                    }
                    image[map[i]] = CountingState {
                        seen,
                        ..state.clone()
                    };
                }
                pack_state(&image)
            })
            .min()
            .expect("the identity keeps every edge")
    }

    /// The reference kernel: steps `process_messages` for every receiver
    /// under each of the `2^E` delivery patterns, shifts the counts so the
    /// minimum positive count is 1, maps the packed successor through
    /// `canon`, and sums each pattern's weight `(1−p)^k p^(E−k)` per
    /// `(successor key, delta)`, one sum per `p`. The sums are compensated
    /// (Neumaier), so that over thousands of patterns the reference stays
    /// more accurate than the kernel it checks.
    fn per_pattern_kernel(
        graph: &Graph,
        key: u128,
        ps: &[f64],
        canon: impl Fn(u128) -> u128,
    ) -> BTreeMap<(u128, u32), Vec<f64>> {
        let m = graph.len();
        let edges: Vec<(usize, usize)> = graph
            .directed_edges()
            .map(|(a, b)| (a.index(), b.index()))
            .collect();
        let e = edges.len() as i32;
        let states = unpack_state(key, m);
        let msgs: Vec<CountingMsg<u8>> = states.iter().map(CountingState::to_msg).collect();
        let mut kernel = BTreeMap::new();
        for pattern in 0u32..1 << e {
            let mut next = states.clone();
            for (j, state) in next.iter_mut().enumerate() {
                let inbox: Vec<CountingMsg<u8>> = edges
                    .iter()
                    .enumerate()
                    .filter(|&(e, &(_, to))| to == j && pattern >> e & 1 == 1)
                    .map(|(_, &(from, _))| msgs[from].clone())
                    .collect();
                if !inbox.is_empty() {
                    state.process_messages(m, ProcessId::new(j as u32), &inbox);
                }
            }
            let min = next.iter().map(|s| s.count).min().unwrap_or(0);
            let delta = min.saturating_sub(1);
            for s in &mut next {
                s.count -= delta;
            }
            let k = pattern.count_ones() as i32;
            let sums = kernel
                .entry((canon(pack_state(&next)), delta))
                .or_insert_with(|| vec![(0.0, 0.0); ps.len()]);
            for ((sum, carry), &p) in sums.iter_mut().zip(ps) {
                let x = (1.0 - p).powi(k) * p.powi(e - k);
                let total = *sum + x;
                *carry += if sum.abs() >= x {
                    (*sum - total) + x
                } else {
                    (x - total) + *sum
                };
                *sum = total;
            }
        }
        kernel
            .into_iter()
            .map(|(edge, sums)| (edge, sums.iter().map(|(sum, carry)| sum + carry).collect()))
            .collect()
    }

    /// A sweeper holding every class a sweep of `rounds` on `graph` interns,
    /// discovered breadth first. Kernels do not read the spec.
    fn interned_classes(graph: &Graph, rounds: u32) -> Sweeper {
        let mut sw = Sweeper::new(graph, &DpSpec::protocol_s(1));
        sw.start(graph);
        let obs = Metrics::new();
        let mut depth = vec![0; sw.keys.len()];
        let mut id = 0;
        while id < sw.keys.len() {
            if depth[id] < rounds {
                sw.kernel(id, &obs).unwrap();
                depth.resize(sw.keys.len(), depth[id] + 1);
            }
            id += 1;
        }
        sw
    }

    #[test]
    fn product_kernels_match_the_per_pattern_loop() {
        let ps = [0.1, 0.35, 0.0, 1.0];
        let obs = Metrics::new();
        let cases = [
            (Graph::complete(2), 4, usize::MAX),
            (Graph::complete(3), 4, usize::MAX),
            (Graph::ring(4), 2, usize::MAX),
            (Graph::ring(5), 1, usize::MAX),
            (Graph::star(4), 4, usize::MAX),
            (leaf_led_star4(), 3, usize::MAX),
            (paw(), 2, usize::MAX),
            (Graph::line(3), 4, usize::MAX),
            (Graph::complete(4), 1, 32),
        ];
        for (graph, rounds, limit) in cases {
            let graph = graph.unwrap();
            // Kernel successors are orbits: map the reference's through the
            // brute-force canonicalizer.
            let maps = vertex_automorphisms(&graph);
            let canon = |key| orbit_min(key, graph.len(), &maps);
            let mut sw = interned_classes(&graph, rounds);
            for id in 0..sw.keys.len().min(limit) {
                let reference = per_pattern_kernel(&graph, sw.keys[id], &ps, canon);
                let strong = sw.kernel(id, &obs).unwrap().to_vec();
                let mut got: Vec<(u128, u32)> = strong
                    .iter()
                    .map(|&(succ, delta)| (sw.keys[succ as usize], delta))
                    .collect();
                got.sort_unstable();
                got.dedup();
                assert_eq!(got.len(), strong.len(), "duplicate kernel edges");
                assert!(
                    got.iter().eq(reference.keys()),
                    "class {id} of {graph:?}: strong kernel differs"
                );
                for (i, &p) in ps.iter().enumerate() {
                    let weighted = sw.weighted_kernel(id, p).unwrap();
                    let got: BTreeMap<(u128, u32), f64> = weighted
                        .iter()
                        .map(|&(succ, delta, w)| ((sw.keys[succ as usize], delta), w))
                        .collect();
                    assert_eq!(got.len(), weighted.len(), "duplicate weighted edges");
                    let want: BTreeMap<(u128, u32), f64> = reference
                        .iter()
                        .filter(|(_, w)| w[i] > 0.0)
                        .map(|(&edge, w)| (edge, w[i]))
                        .collect();
                    assert!(
                        got.keys().eq(want.keys()),
                        "class {id} of {graph:?} at p = {p}: weighted edges differ"
                    );
                    for (edge, (&g, &w)) in got.keys().zip(got.values().zip(want.values())) {
                        if p == 0.0 || p == 1.0 {
                            assert_eq!(g.to_bits(), w.to_bits(), "{edge:?} at p = {p}");
                        } else {
                            assert!(
                                (g - w).abs() <= 1e-14 * w,
                                "{edge:?} at p = {p}: {g} vs {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn classes_are_the_orbits_of_the_raw_keys_reached() {
        // Breadth first over raw keys with the per-pattern reference, no
        // quotient, from every input subset: a sweep of the same depth
        // interns one class per orbit of the keys this reaches.
        let cases = [
            (Graph::complete(3), 8),
            (Graph::ring(4), 4),
            (leaf_led_star4(), 6),
            (paw(), 4),
            (Graph::line(4), 8),
        ];
        for (graph, depth) in cases {
            let graph = graph.unwrap();
            let m = graph.len();
            let mut reached: BTreeSet<u128> = (0u32..1 << m)
                .map(|mask| pack_state(&initial_states(&graph, |i| mask >> i.index() & 1 == 1)))
                .collect();
            let mut layer: Vec<u128> = reached.iter().copied().collect();
            for _ in 0..depth {
                let mut next = Vec::new();
                for key in layer {
                    for &(succ, _) in per_pattern_kernel(&graph, key, &[], |k| k).keys() {
                        if reached.insert(succ) {
                            next.push(succ);
                        }
                    }
                }
                layer = next;
            }
            let maps = vertex_automorphisms(&graph);
            let orbits: BTreeSet<u128> = reached.iter().map(|&k| orbit_min(k, m, &maps)).collect();
            let report = sweep(&graph, depth, &DpSpec::protocol_s(1), &[]).unwrap();
            assert_eq!(
                report.stats.structural_states,
                orbits.len() as u64,
                "{graph:?} at depth {depth}: {} raw keys",
                reached.len()
            );
        }
    }

    #[test]
    fn automorphisms_are_the_edge_preserving_vertex_maps() {
        // The backtracking search against all m! permutations, the leader
        // free to move; the identity is left out of the search's list.
        let cases = [
            (Graph::complete(2), 2),
            (Graph::complete(4), 24),
            (Graph::ring(6), 12),
            (Graph::star(7), 720),
            (Graph::line(5), 2),
            (leaf_led_star4(), 6),
            (paw(), 2),
            // The asymmetric 7-vertex tree: the identity alone.
            (
                Graph::new(7, &[(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]),
                1,
            ),
        ];
        for (graph, order) in cases {
            let graph = graph.unwrap();
            let m = graph.len();
            let found = automorphisms(&graph);
            assert_eq!(found.len() + 1, order, "{graph:?}");
            let mut images: Vec<Vec<usize>> = found
                .iter()
                .map(|a| {
                    let mut image = vec![0; m];
                    for (j, &i) in a.from.iter().take(m).enumerate() {
                        image[usize::from(i)] = j;
                    }
                    image
                })
                .collect();
            images.push((0..m).collect());
            images.sort_unstable();
            assert_eq!(images, vertex_automorphisms(&graph), "{graph:?}");
        }
    }

    #[test]
    fn both_passes_refuse_past_the_entry_budget() {
        // ring5 at N = 4 stores thousands of kernel edges: a 1,000-entry
        // budget refuses both passes with the typed error. K2's few kernels
        // fit, and the budget leaves its answers alone.
        let ring = Graph::ring(5).unwrap();
        let k2 = Graph::complete(2).unwrap();
        let spec = DpSpec::protocol_s(40);
        let budget = 1_000;
        let refusals = [
            sweep_within(&ring, 4, &spec, &[4], budget).map(drop),
            weak_outcomes_within(&ring, 4, &spec, 0.1, budget).map(drop),
        ];
        for refusal in refusals {
            let err = refusal.unwrap_err();
            assert!(matches!(err, CaError::MalformedConfig { .. }), "{err}");
            assert!(err.to_string().contains("budget exceeded"), "{err}");
        }
        assert_eq!(
            sweep_within(&k2, 40, &spec, &[40], budget).unwrap(),
            sweep(&k2, 40, &spec, &[40]).unwrap()
        );
        assert_eq!(
            weak_outcomes_within(&k2, 40, &spec, 0.1, budget).unwrap(),
            weak_outcomes(&k2, 40, &spec, 0.1).unwrap()
        );
        // Mass entries count: K2's kernels hold 18 edges, but at t = 40 its
        // mass spreads over up to 40 bases per class.
        assert!(sweep_within(&k2, 40, &spec, &[40], 30).is_ok());
        assert!(weak_outcomes_within(&k2, 40, &spec, 0.1, 30).is_err());
    }

    #[test]
    fn attack_probability_formulas() {
        let s = DpSpec::protocol_s(4);
        assert_eq!(s.attack_prob(0, true), Rational::ZERO);
        assert_eq!(s.attack_prob(3, false), Rational::ZERO);
        assert_eq!(s.attack_prob(3, true), rat(3, 4));
        assert_eq!(s.attack_prob(9, true), Rational::ONE, "clamps at 1");
        // Message validity shifts the numerator down by one.
        assert_eq!(
            DpSpec::message_validity(4).attack_prob(1, true),
            Rational::ZERO
        );
        assert_eq!(DpSpec::message_validity(4).attack_prob(3, true), rat(2, 4));
        // Eager shifts it up by one.
        assert_eq!(DpSpec::eager(4).attack_prob(1, true), rat(2, 4));
        // Threshold is the 0/1 step.
        assert_eq!(DpSpec::threshold(3).attack_prob(2, true), Rational::ZERO);
        assert_eq!(DpSpec::threshold(3).attack_prob(3, true), Rational::ONE);
    }

    #[test]
    fn run_outcomes_matches_the_closed_form_on_thinned_runs() {
        // Lemma 6.4 (final count_i = ML_i(R)) makes Theorems 6.7/6.8 a closed
        // form over modified levels, here from the dense gossip oracle: process
        // i attacks with probability min(1, (ML_i + slack)/t) if ML_i ≥ 1.
        let mut rng = StdRng::seed_from_u64(91);
        for m in [2usize, 3] {
            let g = Graph::complete(m).unwrap();
            for _ in 0..25 {
                let mut run = Run::good(&g, 5);
                for i in g.vertices() {
                    if rng.gen_bool(0.25) {
                        run.remove_input(i);
                    }
                }
                let slots: Vec<_> = run.messages().collect();
                for s in slots {
                    if rng.gen_bool(0.4) {
                        run.remove_message(s.from, s.to, s.round);
                    }
                }
                let ml = dense_levels(&run, true);
                for t in [2u64, 7] {
                    for slack in [0u32, 1] {
                        let p = |i: ProcessId| match ml[i.index()][5] {
                            0 => Rational::ZERO,
                            l => rat(i128::from(l + slack).min(t as i128), t as i128),
                        };
                        let ta = g.vertices().map(p).min().unwrap();
                        let some = g.vertices().map(p).max().unwrap();
                        let spec = DpSpec::RandomFire {
                            offset: 0,
                            t,
                            slack,
                        };
                        assert_eq!(
                            run_outcomes(&g, &run, &spec).unwrap(),
                            ExactOutcome {
                                ta,
                                na: Rational::ONE - some,
                                pa: some - ta,
                            },
                            "m={m} t={t} slack={slack} on {run}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn run_outcomes_rejects_slots_off_the_graph() {
        // A 0→2 slot on line(3) is no edge. Stepping it would answer some
        // other run (TA 1/2, where executing ProtocolS gives 1/4).
        let g = Graph::line(3).unwrap();
        let mut run = Run::good(&g, 4);
        run.add_message(ProcessId::new(0), ProcessId::new(2), Round::new(1));
        let err = run_outcomes(&g, &run, &DpSpec::protocol_s(4)).unwrap_err();
        assert!(matches!(err, CaError::Model(_)), "{err}");
        assert!(err.to_string().contains("non-edge"), "{err}");
        // A process-count mismatch is the same typed error.
        let k2_run = Run::good(&Graph::complete(2).unwrap(), 2);
        let err = run_outcomes(
            &Graph::complete(3).unwrap(),
            &k2_run,
            &DpSpec::protocol_s(4),
        );
        assert!(matches!(err, Err(CaError::Model(_))), "{err:?}");
    }

    #[test]
    fn message_validity_never_attacks_without_messages() {
        // Footnote 1's condition, exactly: the no-message run has NA = 1
        // under message-based validity but PA = ε under input-based.
        let g = Graph::complete(3).unwrap();
        let mut run = Run::empty(3, 4);
        for i in g.vertices() {
            run.add_input(i);
        }
        let mv = run_outcomes(&g, &run, &DpSpec::message_validity(8)).unwrap();
        assert_eq!(mv.na, Rational::ONE);
        let s = run_outcomes(&g, &run, &DpSpec::protocol_s(8)).unwrap();
        assert_eq!(s.pa, rat(1, 8), "leader alone attacks iff rfire ≤ 1");
    }

    #[test]
    fn eager_doubles_unsafety_on_r1() {
        // Theorem A.1's price on R₁ = {(v₀,1,0)}: the eager leader attacks
        // alone whenever rfire ≤ 2.
        let g = Graph::complete(2).unwrap();
        let mut run = Run::empty(2, 3);
        run.add_input(ProcessId::LEADER);
        let eager = run_outcomes(&g, &run, &DpSpec::eager(8)).unwrap();
        assert_eq!(eager.pa, rat(2, 8));
        let plain = run_outcomes(&g, &run, &DpSpec::protocol_s(8)).unwrap();
        assert_eq!(plain.pa, rat(1, 8));
    }

    #[test]
    fn sweep_matches_enumeration_on_two_generals() {
        let g = Graph::complete(2).unwrap();
        let rounds = 4;
        let all: Vec<u32> = (0..=rounds).collect();
        for spec in [
            DpSpec::protocol_s(3),
            DpSpec::eager(3),
            DpSpec::message_validity(3),
            DpSpec::threshold(2),
        ] {
            let report = sweep(&g, rounds, &spec, &all).unwrap();
            assert_eq!(report.curve.len(), all.len());
            for row in &report.curve {
                let (ta, pa) = worst_case_by_enumeration(&g, row.round, &spec).unwrap();
                assert_eq!(row.max_ta, ta, "{spec:?} round {}", row.round);
                assert_eq!(row.max_pa, pa, "{spec:?} round {}", row.round);
            }
        }
    }

    #[test]
    fn sweep_matches_enumeration_on_three_generals() {
        let g = Graph::complete(3).unwrap();
        let spec = DpSpec::protocol_s(3);
        let report = sweep(&g, 2, &spec, &[1, 2]).unwrap();
        for row in report.curve.iter().filter(|row| row.round > 0) {
            let (ta, pa) = worst_case_by_enumeration(&g, row.round, &spec).unwrap();
            assert_eq!((row.max_ta, row.max_pa), (ta, pa), "round {}", row.round);
        }
    }

    #[test]
    fn saturation_clipping_is_exact_at_tiny_t() {
        // t = 2 saturates almost immediately: every base past the cap folds
        // onto the clip class, and the result still matches brute force.
        let g = Graph::complete(2).unwrap();
        let spec = DpSpec::protocol_s(2);
        let report = sweep(&g, 6, &spec, &[6]).unwrap();
        let (ta, pa) = worst_case_by_enumeration(&g, 6, &spec).unwrap();
        assert_eq!(report.final_max_ta, ta);
        assert_eq!(report.u_s, pa);
        assert!(report.stats.collapses > 0, "tiny t must clip: {report:?}");
    }

    #[test]
    fn the_paper_curve_shape_on_three_generals() {
        // Theorem 6.8 as the sweep sees it: best liveness is min(1, r/t),
        // liveness 1 first at r = t, and U_s = ε throughout.
        let g = Graph::complete(3).unwrap();
        let t = 5u64;
        let all: Vec<u32> = (0..=8).collect();
        let report = sweep(&g, 8, &DpSpec::protocol_s(t), &all).unwrap();
        for row in &report.curve {
            assert_eq!(
                row.max_ta,
                rat(i128::from(row.round).min(t as i128), t as i128),
                "max TA at round {}",
                row.round
            );
        }
        assert_eq!(report.first_certain_round, Some(t as u32));
        assert_eq!(report.u_s, rat(1, t as i128));
        assert_eq!(report.final_max_ta, Rational::ONE);
    }

    #[test]
    fn threshold_sweep_finds_the_certainty_round_and_total_unsafety() {
        // FixedThreshold against the strong adversary: liveness 1 from round
        // θ (the good run), but U_s = 1 (cut exactly at the threshold).
        let g = Graph::complete(2).unwrap();
        let report = sweep(&g, 5, &DpSpec::threshold(3), &[5]).unwrap();
        assert_eq!(report.first_certain_round, Some(3));
        assert_eq!(report.u_s, Rational::ONE);
    }

    #[test]
    fn sweep_rejects_oversized_instances() {
        let spec = DpSpec::protocol_s(4);
        let big = Graph::complete(5).unwrap(); // 20 directed edges
        assert!(sweep(&big, 2, &spec, &[]).is_err());
        let wide = Graph::star(9).unwrap(); // 9 processes
        assert!(sweep(&wide, 2, &spec, &[]).is_err());
        // MAX_DP_T bounds the all-runs passes' base sets, not a single run.
        let k2 = Graph::complete(2).unwrap();
        for wide_t in [
            DpSpec::protocol_s(MAX_DP_T + 1),
            DpSpec::threshold(MAX_DP_T as u32 + 1),
        ] {
            assert!(sweep(&k2, 2, &wide_t, &[]).is_err(), "{wide_t:?}");
            assert!(weak_outcomes(&k2, 2, &wide_t, 0.1).is_err(), "{wide_t:?}");
        }
        let good = run_outcomes(&k2, &Run::good(&k2, 2), &DpSpec::protocol_s(MAX_DP_T + 1));
        assert_eq!(good.unwrap().ta, rat(2, i128::from(MAX_DP_T + 1)));
        assert!(DpSpec::threshold(0).validate_params().is_err());
        assert!(DpSpec::protocol_s(0).validate_params().is_err());
    }

    /// [`sweep`] stepping every round, with no stop at the fixed point, and
    /// the first round whose step left the frontier unchanged.
    fn sweep_every_round(
        graph: &Graph,
        rounds: u32,
        spec: &DpSpec,
        checkpoints: &[u32],
    ) -> (SweepReport, Option<u32>) {
        let obs = Metrics::new();
        let mut sw = Sweeper::new(graph, spec);
        let mut frontier = sw.start(graph);
        let mut next = Vec::new();
        let (mut curve, mut first_certain, mut fixed) = (Vec::new(), None, None);
        for round in 0..=rounds {
            if round > 0 {
                let prev = frontier.clone();
                sw.step(&mut frontier, &mut next, &obs).unwrap();
                std::mem::swap(&mut frontier, &mut next);
                if first_certain.is_none() && sw.ta_certain(&frontier) {
                    first_certain = Some(round);
                }
                if fixed.is_none() && same_frontier(&prev, &frontier) {
                    fixed = Some(round);
                }
            }
            if round == rounds || checkpoints.contains(&round) {
                let (max_ta, max_pa) = sw.extremes(&frontier, &obs);
                curve.push(CurvePoint {
                    round,
                    max_ta,
                    max_pa,
                });
            }
        }
        obs.flush();
        let last = *curve.last().expect("the final round");
        let report = SweepReport {
            schema: 1,
            m: graph.len(),
            rounds,
            spec: *spec,
            first_certain_round: first_certain,
            final_max_ta: last.max_ta,
            u_s: last.max_pa,
            curve,
            stats: sw.stats,
        };
        (report, fixed)
    }

    #[test]
    fn the_sweep_stops_at_the_frontier_fixed_point() {
        // Instances whose frontier stops changing before the first power of
        // two below N, so the stop is taken: report and counters must equal
        // stepping every round.
        let cases = [
            (Graph::complete(2), DpSpec::protocol_s(2), 50),
            (Graph::complete(3), DpSpec::protocol_s(10), 40),
            (Graph::complete(4), DpSpec::protocol_s(2), 12),
            (Graph::ring(4), DpSpec::eager(5), 30),
            (Graph::line(5), DpSpec::threshold(4), 40),
        ];
        let counters = [
            CounterId::ExactDpStates,
            CounterId::ExactDpKernelHits,
            CounterId::ExactDpKernelMisses,
            CounterId::ExactDpCollapses,
        ];
        for (graph, spec, n) in cases {
            let graph = graph.unwrap();
            // `ca exact`'s checkpoints: some before the stop, some after.
            let checkpoints = [1, n / 4, n / 2, 3 * n / 4];
            let (got, got_obs) = ca_obs::capture(|| sweep(&graph, n, &spec, &checkpoints).unwrap());
            let ((want, fixed), want_obs) =
                ca_obs::capture(|| sweep_every_round(&graph, n, &spec, &checkpoints));
            let fixed = fixed.expect("the frontier fixes before N");
            assert!(fixed.next_power_of_two() < n, "{spec:?}: fixed at {fixed}");
            assert_eq!(got, want, "{graph:?} {spec:?}");
            for id in counters {
                assert_eq!(got_obs.counter(id), want_obs.counter(id), "{id:?}");
            }
        }
        // The closed form at the widest horizon: K2 at t = 2 visits 8 classes
        // (orbits under swapping the two generals) per round once fixed, all
        // kernel hits, 2 of them clipping.
        let n = u32::MAX;
        let wide = sweep(&Graph::complete(2).unwrap(), n, &DpSpec::protocol_s(2), &[]).unwrap();
        let n = u64::from(n);
        assert_eq!(wide.stats.structural_states, 8);
        assert_eq!(wide.stats.states_visited, 8 * n - 4);
        assert_eq!(wide.stats.kernel_hits, 8 * n - 12);
        assert_eq!(wide.stats.collapses, 2 * n - 4);
        assert_eq!(wide.curve.len(), 1);
    }

    #[test]
    fn stats_are_deterministic_and_kernels_memoize() {
        let g = Graph::complete(3).unwrap();
        let spec = DpSpec::protocol_s(6);
        let a = sweep(&g, 12, &spec, &[12]).unwrap();
        let b = sweep(&g, 12, &spec, &[12]).unwrap();
        assert_eq!(a, b, "sweep must be fully deterministic");
        assert_eq!(a.stats.kernel_misses, a.stats.structural_states);
        assert!(a.stats.kernel_hits > a.stats.kernel_misses);
        assert!(a.stats.states_visited >= 12);
    }

    #[test]
    fn weak_outcomes_reject_bad_p_and_oversized_graphs() {
        let k2 = Graph::complete(2).unwrap();
        let spec = DpSpec::protocol_s(4);
        for p in [-0.1, 1.5, f64::NAN] {
            assert!(
                matches!(
                    weak_outcomes(&k2, 3, &spec, p),
                    Err(CaError::MalformedConfig { .. })
                ),
                "p={p}"
            );
        }
        assert!(weak_outcomes(&Graph::complete(5).unwrap(), 3, &spec, 0.1).is_err());
        assert!(weak_outcomes(&k2, 3, &DpSpec::protocol_s(0), 0.1).is_err());
    }

    /// Every base of `set`, ascending.
    fn bases(set: &BaseSet) -> Vec<u32> {
        set.runs().flat_map(|(lo, hi)| lo..=hi).collect()
    }

    #[test]
    fn base_set_shift_clips_onto_the_cap() {
        let mut a = BaseSet::empty(4);
        a.insert(0);
        a.insert(3);
        assert_eq!(a.runs().collect::<Vec<_>>(), vec![(0, 0), (3, 3)]);
        let mut b = BaseSet::empty(4);
        assert!(!b.or_shifted(&a, 0), "no shift, no clip");
        assert!(b.or_shifted(&a, 2), "3 + 2 > cap 4 clips");
        assert_eq!(bases(&b), vec![0, 2, 3, 4]);
        assert_eq!(b.runs().collect::<Vec<_>>(), vec![(0, 0), (2, 4)]);
        assert_eq!(b.top(), Some(4));
        // Filling the gap merges the runs; adjacent runs merge too.
        b.insert(1);
        assert_eq!(b.runs().collect::<Vec<_>>(), vec![(0, 4)]);
        // Deltas beyond the cap fold everything onto it.
        let mut c = BaseSet::empty(4);
        assert!(c.or_shifted(&a, 9));
        assert_eq!(c.runs().collect::<Vec<_>>(), vec![(4, 4)]);
        assert!(
            c.or_shifted(&a, u32::MAX),
            "no overflow at the widest delta"
        );
        assert_eq!(c.runs().collect::<Vec<_>>(), vec![(4, 4)]);
        // An empty source adds nothing and clips nothing.
        assert!(!c.or_shifted(&BaseSet::empty(4), 9));
        c.clear();
        assert!(c.is_empty() && c.top().is_none());
    }

    #[test]
    fn base_sets_match_a_bitset_oracle() {
        // Random inserts and shifted ORs on a few sets at once, each set
        // beside a bool-per-base oracle. Inserts at random bases leave gaps,
        // adjacent runs and overlaps to merge; deltas reach past the cap.
        let mut rng = StdRng::seed_from_u64(29);
        for cap in [0u32, 1, 2, 5, 17, 64, 130] {
            for _ in 0..150 {
                let mut sets: Vec<(BaseSet, Vec<bool>)> = (0..3)
                    .map(|_| (BaseSet::empty(cap), vec![false; cap as usize + 1]))
                    .collect();
                for _ in 0..16 {
                    let i = rng.gen_range(0..sets.len());
                    if rng.gen_bool(0.5) {
                        let b = rng.gen_range(0..=cap);
                        sets[i].0.insert(b);
                        sets[i].1[b as usize] = true;
                    } else {
                        let (src, src_bits) = sets[rng.gen_range(0..sets.len())].clone();
                        let delta = rng.gen_range(0..=cap + 3);
                        let mut clipped = false;
                        for b in (0..=cap).filter(|&b| src_bits[b as usize]) {
                            clipped |= b + delta > cap;
                            sets[i].1[(b + delta).min(cap) as usize] = true;
                        }
                        let got = sets[i].0.or_shifted(&src, delta);
                        assert_eq!(got, clipped, "collapse flag, cap {cap} delta {delta}");
                    }
                    let (set, bits) = &sets[i];
                    let want: Vec<u32> = (0..=cap).filter(|&b| bits[b as usize]).collect();
                    assert_eq!(bases(set), want, "cap {cap}: {set:?}");
                    assert_eq!(set.top(), want.last().copied());
                    assert!(set.first.is_some() || set.rest.is_empty());
                    let runs: Vec<BaseRun> = set.runs().collect();
                    assert!(runs.iter().all(|&(lo, hi)| lo <= hi && hi <= cap));
                    assert!(
                        runs.windows(2).all(|w| w[0].1 + 1 < w[1].0),
                        "runs must be disjoint and non-adjacent: {runs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_extremes_match_the_per_base_scan() {
        // The per-base scan is the oracle: max TA and max PA over every base
        // of a run, checked against `run_extremes` on every run a short sweep
        // reaches and on random runs of every class it interns. A class with
        // a zero count is reachable only at base 0, so its runs are [0, 0].
        // The certainty threshold must also agree with TA at the run's top.
        fn check(sw: &mut Sweeper, id: usize, (lo, hi): BaseRun) {
            let scanned = (lo..=hi).fold((0, 0), |(ta, pa), base| {
                let (t, some) = sw.outcome_nums(id, base);
                (ta.max(t), pa.max(some - t))
            });
            let spec = sw.spec;
            assert_eq!(
                sw.run_extremes(id, (lo, hi)),
                scanned,
                "{spec:?} class {id} ({lo}, {hi})"
            );
            assert_eq!(
                hi >= sw.thresholds(id).certain,
                sw.outcome_nums(id, hi).0 == spec.attack_den(),
                "{spec:?} class {id} at {hi}"
            );
        }
        let mut rng = StdRng::seed_from_u64(37);
        let obs = Metrics::new();
        let cases = [
            (Graph::complete(2), 8),
            (Graph::complete(3), 6),
            (Graph::complete(4), 2),
            (Graph::ring(4), 3),
            (Graph::ring(5), 2),
            (Graph::star(5), 2),
            (Graph::line(5), 4),
        ];
        let mut checked = 0;
        for (graph, rounds) in cases {
            let graph = graph.unwrap();
            let specs = [1u64, 2, 7, 40].into_iter().flat_map(|t| {
                [
                    DpSpec::protocol_s(t),
                    DpSpec::eager(t),
                    DpSpec::message_validity(t),
                    DpSpec::threshold(t as u32),
                ]
            });
            for spec in specs {
                let mut sw = Sweeper::new(&graph, &spec);
                let mut frontier = sw.start(&graph);
                let mut next = Vec::new();
                for round in 0..=rounds {
                    for (id, set) in frontier.iter().enumerate() {
                        for run in set.runs() {
                            check(&mut sw, id, run);
                            checked += 1;
                        }
                    }
                    if round < rounds {
                        sw.step(&mut frontier, &mut next, &obs).unwrap();
                        std::mem::swap(&mut frontier, &mut next);
                    }
                }
                for id in 0..sw.keys.len() {
                    for _ in 0..3 {
                        let run = if sw.has_zero_count(id) {
                            (0, 0)
                        } else {
                            let lo = rng.gen_range(0..=sw.cap);
                            (lo, rng.gen_range(lo..=sw.cap))
                        };
                        check(&mut sw, id, run);
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked > 100_000,
            "only {checked} (class, run) pairs checked"
        );
    }

    /// The weighted pass as it shipped before its mass transfer was split:
    /// one clamped add per source base and kernel edge.
    fn weak_outcomes_clamped(graph: &Graph, rounds: u32, spec: &DpSpec, p: f64) -> WeakOutcome {
        let mut sw = Sweeper::new(graph, spec);
        let cap = sw.cap as usize;
        let start = sw.intern(pack_state(&initial_states(graph, |_| true)));
        let mut mass: Vec<Vec<f64>> = vec![Vec::new(); sw.keys.len()];
        mass[start].push(1.0);
        let mut kernels: Vec<Option<WeightedKernel>> = Vec::new();
        for _ in 0..rounds {
            let mut next: Vec<Vec<f64>> = Vec::new();
            for (id, src) in mass.iter().enumerate() {
                if src.is_empty() {
                    continue;
                }
                kernels.resize_with(kernels.len().max(id + 1), || None);
                let kernel = kernels[id].get_or_insert_with(|| sw.weighted_kernel(id, p).unwrap());
                next.resize_with(sw.keys.len(), Vec::new);
                for &(succ, delta, w) in kernel.iter() {
                    let delta = delta as usize;
                    let dst = &mut next[succ as usize];
                    let top = (src.len() - 1 + delta).min(cap);
                    if dst.len() <= top {
                        dst.resize(top + 1, 0.0);
                    }
                    for (b, &x) in src.iter().enumerate() {
                        dst[(b + delta).min(cap)] += w * x;
                    }
                }
            }
            mass = next;
        }
        let den = spec.attack_den() as f64;
        let mut out = WeakOutcome { ta: 0.0, pa: 0.0 };
        for (id, bases) in mass.iter().enumerate() {
            for (base, &x) in bases.iter().enumerate() {
                let (ta, some) = sw.outcome_nums(id, base as u32);
                out.ta += x * (ta as f64 / den);
                out.pa += x * ((some - ta) as f64 / den);
            }
        }
        out
    }

    #[test]
    fn split_mass_transfer_is_bit_identical_to_the_clamped_loop() {
        let cases = [
            (Graph::complete(2), 12),
            (Graph::complete(3), 9),
            (Graph::ring(4), 6),
            (Graph::star(4), 6),
            (Graph::line(3), 8),
        ];
        for (graph, rounds) in cases {
            let graph = graph.unwrap();
            for spec in [
                DpSpec::protocol_s(5),
                DpSpec::eager(3),
                DpSpec::message_validity(7),
                DpSpec::threshold(2),
            ] {
                for p in [0.0, 0.05, 0.3, 1.0] {
                    let got = weak_outcomes(&graph, rounds, &spec, p).unwrap();
                    let want = weak_outcomes_clamped(&graph, rounds, &spec, p);
                    assert_eq!(
                        (got.ta.to_bits(), got.pa.to_bits()),
                        (want.ta.to_bits(), want.pa.to_bits()),
                        "{graph:?} {spec:?} p = {p}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }
}
