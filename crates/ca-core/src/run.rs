//! Runs: which inputs arrive and which messages are delivered.
//!
//! A run `R = I(R) ∪ M(R)` fully describes the adversary's choices for one
//! execution: `I(R)` is the set of processes that receive the input signal
//! (tuples `(v₀, i, 0)` in the paper), and `M(R)` is the set of delivered
//! messages (tuples `(i, j, r)` with `(i,j) ∈ E` and `1 ≤ r ≤ N`). Every
//! message *not* in `M(R)` is destroyed by the adversary.
//!
//! # Representation
//!
//! `M(R)` is stored as a round-major bit matrix: one block of `u64` words per
//! round `1..=n`, each block a dense `m × m` matrix of ordered process pairs
//! (bit `from·m + to`). Membership ([`Run::delivers`]) is a single mask test,
//! per-round iteration walks set bits with `trailing_zeros`, and
//! equality/subset/union are word-wise compares — the same machinery as
//! [`crate::bitset::BitSet`]. The matrix is the whole run: nothing outside
//! it (a round outside `1..=n`, a process id `≥ m`) is a slot.
//! [`Run::add_message`] panics on such a slot, as [`Run::add_input`] does on
//! an input `≥ m`, and queries about one answer false. Runs from outside
//! the program, `Run`'s deserializer among them, go through
//! [`Run::from_parts`], which returns a typed error instead.
//!
//! The canonical slot order is unchanged: [`Run::messages`] yields slots
//! sorted by `(from, to, round)` and [`Run::messages_in_round`] by
//! `(from, to)`. Samplers draw per-slot randomness in this order, which is
//! what keeps the Monte Carlo determinism goldens stable across
//! representations (see DESIGN.md).
//!
//! On the wire a run is still the explicit slot list
//! `{m, n, inputs, messages: [{from, to, round}, ...]}` — chaos-schedule
//! replay files stay readable, and files written by older versions parse
//! unchanged as long as every slot lies inside the matrix.

use crate::bitset::BitSet;
use crate::error::{CaError, ModelError};
use crate::graph::{Graph, MAX_PROCESSES};
use crate::ids::{ProcessId, Round};
use serde::ser::{Serialize, SerializeStruct, Serializer};
use std::fmt;

/// A directed message slot `(from, to, round)`: the message sent by `from` to
/// `to` in the given protocol round (`1..=N`).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct MsgSlot {
    /// Sending process.
    pub from: ProcessId,
    /// Receiving process.
    pub to: ProcessId,
    /// Protocol round in `1..=N`.
    pub round: Round,
}

impl MsgSlot {
    /// Creates a message slot.
    #[inline]
    pub const fn new(from: ProcessId, to: ProcessId, round: Round) -> Self {
        MsgSlot { from, to, round }
    }
}

impl fmt::Display for MsgSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.from, self.to, self.round.get())
    }
}

/// A run: the adversary's complete delivery schedule for one execution.
///
/// A `Run` is parameterized by the process count `m` and horizon `n` (the
/// paper's `N`): message rounds range over `1..=n`.
///
/// # Examples
///
/// ```
/// use ca_core::graph::Graph;
/// use ca_core::run::Run;
/// use ca_core::ids::ProcessId;
///
/// let g = Graph::complete(2)?;
/// // The "good" run: every input arrives and every message is delivered.
/// let run = Run::good(&g, 4);
/// assert!(run.has_input(ProcessId::new(0)));
/// assert_eq!(run.message_count(), 2 * 4); // 2 directed edges × 4 rounds
/// # Ok::<(), ca_core::error::ModelError>(())
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct Run {
    m: usize,
    n: u32,
    inputs: BitSet,
    /// Round-major delivery matrix: `words_per_round` words per round
    /// `1..=n`, bit `from·m + to` within a round's block.
    words: Vec<u64>,
    /// Cached `|M(R)|`, the matrix's popcount.
    msg_count: usize,
}

/// The largest delivery matrix [`Run::from_parts`] accepts, in `u64` words:
/// 2^24 words (128 MiB), e.g. 16M rounds on two processes or 256 rounds on
/// [`MAX_PROCESSES`].
pub const MAX_RUN_WORDS: usize = 1 << 24;

impl Run {
    /// The empty run over `m` processes and horizon `n`: no inputs, no
    /// deliveries. (The paper's `R̃ = ∅`.)
    pub fn empty(m: usize, n: u32) -> Self {
        Run {
            m,
            n,
            inputs: BitSet::new(m),
            words: vec![0; n as usize * Self::words_per_round(m)],
            msg_count: 0,
        }
    }

    /// Builds a run from its parts, checking each one: the way in for runs
    /// from outside the program (files, `ca`'s `--rounds`).
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] when `m` exceeds [`MAX_PROCESSES`], the
    /// matrix exceeds [`MAX_RUN_WORDS`] (both checked before allocating),
    /// `inputs` is not over `m` processes, or a slot lies outside the matrix.
    pub fn from_parts(
        m: usize,
        n: u32,
        inputs: BitSet,
        messages: impl IntoIterator<Item = MsgSlot>,
    ) -> Result<Run, ModelError> {
        let invalid = |name, reason| Err(ModelError::InvalidParameter { name, reason });
        if m > MAX_PROCESSES {
            let max = MAX_PROCESSES;
            return Err(ModelError::TooManyProcesses { got: m, max });
        }
        if Self::words_per_round(m).saturating_mul(n as usize) > MAX_RUN_WORDS {
            return invalid("n", "m·m·n bits exceed MAX_RUN_WORDS (2^24 words)");
        }
        if inputs.capacity() != m {
            return invalid("inputs", "capacity is not the process count m");
        }
        let mut run = Run::empty(m, n);
        run.inputs = inputs;
        for s in messages {
            if run.slot_pos(s.from, s.to, s.round).is_none() {
                let reason = "slot outside the run's processes 0..m and rounds 1..=N";
                return Err(ModelError::InvalidMessageSlot { reason });
            }
            run.add_message(s.from, s.to, s.round);
        }
        Ok(run)
    }

    /// The "good" run: every process receives the input and every message on
    /// every edge of `graph` is delivered in every round `1..=n`.
    pub fn good(graph: &Graph, n: u32) -> Self {
        let mut run = Run::empty(graph.len(), n);
        for p in graph.vertices() {
            run.inputs.insert(p.index());
        }
        for (a, b) in graph.directed_edges() {
            for r in Round::protocol_rounds(n) {
                run.add_message(a, b, r);
            }
        }
        run
    }

    /// A run delivering everything like [`Run::good`] but with inputs only at
    /// the given processes.
    pub fn good_with_inputs(graph: &Graph, n: u32, inputs: &[ProcessId]) -> Self {
        let mut run = Run::good(graph, n);
        run.inputs.clear();
        for &p in inputs {
            run.inputs.insert(p.index());
        }
        run
    }

    fn words_per_round(m: usize) -> usize {
        (m * m).div_ceil(64)
    }

    /// The `(word index, bit mask)` of an in-matrix slot, or `None` for a
    /// slot outside the matrix.
    fn slot_pos(&self, from: ProcessId, to: ProcessId, round: Round) -> Option<(usize, u64)> {
        let (f, t, r) = (from.index(), to.index(), round.get());
        if f < self.m && t < self.m && r >= 1 && r <= self.n {
            let bit = f * self.m + t;
            let word = (r as usize - 1) * Self::words_per_round(self.m) + bit / 64;
            Some((word, 1u64 << (bit % 64)))
        } else {
            None
        }
    }

    /// Number of processes `m`.
    pub fn process_count(&self) -> usize {
        self.m
    }

    /// The horizon `N` (last protocol round).
    pub fn horizon(&self) -> u32 {
        self.n
    }

    /// Returns whether process `i` receives the input signal (tuple `(v₀,i,0)`).
    #[inline]
    pub fn has_input(&self, i: ProcessId) -> bool {
        self.inputs.contains(i.index())
    }

    /// Returns whether any process receives the input signal (`I(R) ≠ ∅`).
    pub fn has_any_input(&self) -> bool {
        !self.inputs.is_empty()
    }

    /// The set of processes receiving the input signal.
    pub fn inputs(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.inputs.iter().map(|i| ProcessId::new(i as u32))
    }

    /// Adds the input tuple `(v₀, i, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn add_input(&mut self, i: ProcessId) -> &mut Self {
        self.inputs.insert(i.index());
        self
    }

    /// Removes the input tuple `(v₀, i, 0)`.
    pub fn remove_input(&mut self, i: ProcessId) -> &mut Self {
        self.inputs.remove(i.index());
        self
    }

    /// Returns whether the message `(from, to, round)` is delivered (false
    /// for any slot outside the matrix).
    #[inline]
    pub fn delivers(&self, from: ProcessId, to: ProcessId, round: Round) -> bool {
        self.slot_pos(from, to, round)
            .is_some_and(|(w, mask)| self.words[w] & mask != 0)
    }

    /// Adds a delivered message `(from, to, round)`.
    ///
    /// Whether the slot is an edge of the graph is [`Run::validate`]'s
    /// check.
    ///
    /// # Panics
    ///
    /// Panics if the slot lies outside the matrix: a process id `≥ m` or a
    /// round outside `1..=n`.
    pub fn add_message(&mut self, from: ProcessId, to: ProcessId, round: Round) -> &mut Self {
        let (w, mask) = self
            .slot_pos(from, to, round)
            .expect("message slot outside the run");
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.msg_count += 1;
        }
        self
    }

    /// Removes (destroys) a delivered message, returning whether it was present.
    pub fn remove_message(&mut self, from: ProcessId, to: ProcessId, round: Round) -> bool {
        match self.slot_pos(from, to, round) {
            Some((w, mask)) if self.words[w] & mask != 0 => {
                self.words[w] &= !mask;
                self.msg_count -= 1;
                true
            }
            _ => false,
        }
    }

    /// Iterates over the delivered message slots in canonical `(from, to,
    /// round)` order.
    ///
    /// An occupancy pass first ORs every round block together, so only pairs
    /// delivered in at least one round get their per-round probe — sparse
    /// runs skip absent pairs wholesale instead of probing `m² · n` bits.
    pub fn messages(&self) -> impl Iterator<Item = MsgSlot> + '_ {
        let m = self.m;
        let n = self.n;
        let wpr = Self::words_per_round(m);
        let words = &self.words;
        let mut occupied = vec![0u64; wpr];
        for (w, word) in self.words.iter().enumerate() {
            occupied[w % wpr.max(1)] |= word;
        }
        let mut word = 0usize;
        let mut bits = occupied.first().copied().unwrap_or(0);
        let pairs = std::iter::from_fn(move || loop {
            if bits != 0 {
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                return Some(word * 64 + tz);
            }
            word += 1;
            if word >= occupied.len() {
                return None;
            }
            bits = occupied[word];
        });
        pairs.flat_map(move |pair| {
            let (word, mask) = (pair / 64, 1u64 << (pair % 64));
            (1..=n)
                .filter(move |&r| words[(r as usize - 1) * wpr + word] & mask != 0)
                .map(move |r| {
                    MsgSlot::new(
                        ProcessId::new((pair / m) as u32),
                        ProcessId::new((pair % m) as u32),
                        Round::new(r),
                    )
                })
        })
    }

    /// Iterates over delivered messages of one round, sorted by `(from, to)`
    /// (none outside `1..=n`).
    ///
    /// Hot loops (the execution engine, the level gossip) visit every round
    /// of a run once per trial through `for_each`, which folds the word
    /// scan into one loop per block word.
    pub fn messages_in_round(&self, round: Round) -> impl Iterator<Item = MsgSlot> + '_ {
        let (m, r) = (self.m, round.get() as usize);
        let wpr = Self::words_per_round(m);
        let block = if r >= 1 && r <= self.n as usize {
            &self.words[(r - 1) * wpr..r * wpr]
        } else {
            &[]
        };
        block.iter().enumerate().flat_map(move |(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let pair = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(MsgSlot::new(
                    ProcessId::new((pair / m) as u32),
                    ProcessId::new((pair % m) as u32),
                    round,
                ))
            })
        })
    }

    /// Number of delivered messages `|M(R)|`.
    pub fn message_count(&self) -> usize {
        self.msg_count
    }

    /// Number of input tuples `|I(R)|`.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Destroys every message sent in rounds `>= round`, on every edge.
    ///
    /// This is the "cut at round `round`" adversary move that defeats chains
    /// of acknowledgements (§3).
    pub fn cut_from_round(&mut self, round: Round) -> &mut Self {
        let wpr = Self::words_per_round(self.m);
        let start = ((round.get().max(1) as usize - 1) * wpr).min(self.words.len());
        for w in self.words[start..].iter_mut() {
            self.msg_count -= w.count_ones() as usize;
            *w = 0;
        }
        self
    }

    /// Destroys every message from `from` to `to` in rounds `>= round`.
    pub fn cut_link_from_round(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        round: Round,
    ) -> &mut Self {
        if from.index() < self.m && to.index() < self.m {
            let bit = from.index() * self.m + to.index();
            let wpr = Self::words_per_round(self.m);
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            for r in round.get().max(1)..=self.n {
                let w = (r as usize - 1) * wpr + word;
                if self.words[w] & mask != 0 {
                    self.words[w] &= !mask;
                    self.msg_count -= 1;
                }
            }
        }
        self
    }

    /// Returns whether `self ⊆ other` (both inputs and messages).
    pub fn is_subset(&self, other: &Run) -> bool {
        self.m == other.m
            && self.n == other.n
            && self.inputs.is_subset(&other.inputs)
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(a, b)| a & !b == 0)
    }

    /// The union of two runs.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn union(&self, other: &Run) -> Run {
        assert_eq!(self.m, other.m, "run process-count mismatch");
        assert_eq!(self.n, other.n, "run horizon mismatch");
        let mut out = self.clone();
        out.inputs.union_with(&other.inputs);
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        out.msg_count = out.words.iter().map(|w| w.count_ones() as usize).sum();
        out
    }

    /// Validates that every message slot corresponds to an edge of `graph`,
    /// and that dimensions match.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first violation found.
    pub fn validate(&self, graph: &Graph) -> Result<(), ModelError> {
        if graph.len() != self.m {
            return Err(ModelError::InvalidParameter {
                name: "graph",
                reason: "graph size does not match run process count",
            });
        }
        for s in self.messages() {
            if !graph.has_edge(s.from, s.to) {
                return Err(ModelError::InvalidMessageSlot {
                    reason: "message slot on a non-edge",
                });
            }
        }
        Ok(())
    }

    /// Enumerates **all** runs over `graph` with horizon `n` — all subsets of
    /// inputs × all subsets of message slots. Exponential; intended for
    /// exhaustive checks on tiny instances.
    ///
    /// # Panics
    ///
    /// Panics if the number of slots plus inputs exceeds
    /// [`crate::error::MAX_ENUMERATION_BITS`] (≥ 16M runs), to guard against
    /// accidental blow-ups.
    pub fn enumerate_all(graph: &Graph, n: u32) -> Vec<Run> {
        Run::try_enumerate_all(graph, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Run::enumerate_all`]: returns a typed error
    /// instead of panicking when the instance is too large to enumerate.
    pub fn try_enumerate_all(graph: &Graph, n: u32) -> Result<Vec<Run>, CaError> {
        let slots: Vec<MsgSlot> = graph
            .directed_edges()
            .flat_map(|(a, b)| Round::protocol_rounds(n).map(move |r| MsgSlot::new(a, b, r)))
            .collect();
        let bits = slots.len() + graph.len();
        crate::error::check_enumeration_bits(bits, "runs")?;
        let mut out = Vec::with_capacity(1usize << bits);
        for mask in 0u64..(1u64 << bits) {
            let mut run = Run::empty(graph.len(), n);
            for (k, p) in graph.vertices().enumerate() {
                if mask & (1 << k) != 0 {
                    run.add_input(p);
                }
            }
            for (k, s) in slots.iter().enumerate() {
                if mask & (1 << (graph.len() + k)) != 0 {
                    run.add_message(s.from, s.to, s.round);
                }
            }
            out.push(run);
        }
        Ok(out)
    }
}

/// A delivery schedule the level frontier can consume: process count,
/// horizon, inputs, and per-round delivered messages in canonical order.
///
/// Two implementations exist: the dense [`Run`] (an `m × m` matrix per
/// round — canonical, graph-agnostic, serializable) and the sparse
/// [`EdgeRun`] (one bit per directed *edge* per round — the big-graph hot
/// path, where `m²` bits per round would dwarf the actual edge set).
/// [`crate::level::min_modified_level_into`] and friends are generic over
/// this trait, so both representations ride the same frontier code.
pub trait DeliverySource {
    /// Number of processes `m`.
    fn process_count(&self) -> usize;
    /// The horizon `N` (last protocol round).
    fn horizon(&self) -> u32;
    /// Returns whether process `i` receives the input signal.
    fn has_input(&self, i: ProcessId) -> bool;
    /// Calls `f(from, to)` for every delivered message of `round` in
    /// canonical `(from, to)` order.
    fn for_each_delivery_in_round(&self, round: Round, f: impl FnMut(ProcessId, ProcessId));
}

impl DeliverySource for Run {
    fn process_count(&self) -> usize {
        self.m
    }

    fn horizon(&self) -> u32 {
        self.n
    }

    fn has_input(&self, i: ProcessId) -> bool {
        Run::has_input(self, i)
    }

    fn for_each_delivery_in_round(&self, round: Round, mut f: impl FnMut(ProcessId, ProcessId)) {
        self.messages_in_round(round)
            .for_each(|slot| f(slot.from, slot.to));
    }
}

/// An edge-keyed delivery schedule: one bit per directed edge per round.
///
/// [`Run`] spends `m²` bits per round so that any ordered pair is
/// addressable — right for the adversary-search and enumeration paths, but
/// hopeless at `m = 1000` on a sparse graph (a grid run would burn ~8.7 MB
/// where the edge set needs ~35 KB). `EdgeRun` fixes the graph up front and
/// masks only its directed edges, which is what the weak-adversary samplers
/// perturb anyway.
///
/// # Canonical order
///
/// Directed edges are stored sorted by `(from, to)`, so per-round iteration
/// is in the same canonical order as [`Run::messages_in_round`] — this is
/// what keeps sampler coin draws byte-compatible between the two
/// representations (see DESIGN.md §11). Samplers iterate *link-major*
/// (edges in `(from, to)` order, rounds ascending within each link), the
/// same order [`Run::messages`] yields slots of a good run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeRun {
    m: usize,
    n: u32,
    /// Directed edges sorted by `(from, to)`.
    edges: Vec<(ProcessId, ProcessId)>,
    inputs: BitSet,
    /// Round-major delivery mask: `edges.len().div_ceil(64)` words per round
    /// `1..=n`, bit `e` within a block = `edges[e]` delivered.
    words: Vec<u64>,
}

impl EdgeRun {
    /// The "good" run over `graph`: every input arrives and every directed
    /// edge delivers in every round `1..=n`.
    pub fn good(graph: &Graph, n: u32) -> Self {
        let mut edges: Vec<(ProcessId, ProcessId)> = graph.directed_edges().collect();
        edges.sort_unstable();
        let m = graph.len();
        let wpr = edges.len().div_ceil(64);
        let mut inputs = BitSet::new(m);
        for p in graph.vertices() {
            inputs.insert(p.index());
        }
        let mut words = vec![u64::MAX; n as usize * wpr];
        // Mask off the unused tail bits of each round block so equality and
        // popcounts stay exact.
        if !edges.is_empty() && !edges.len().is_multiple_of(64) {
            let tail = u64::MAX >> (64 - edges.len() % 64);
            for r in 0..n as usize {
                words[r * wpr + wpr - 1] = tail;
            }
        }
        EdgeRun {
            m,
            n,
            edges,
            inputs,
            words,
        }
    }

    /// Resets every slot back to delivered and every input back to arriving —
    /// the per-trial reset the weak-adversary samplers start from
    /// (the edge-keyed analogue of `run.clone_from(&good)`).
    pub fn reset_good(&mut self) {
        for b in self.words.iter_mut() {
            *b = u64::MAX;
        }
        let e = self.edges.len();
        if e > 0 && !e.is_multiple_of(64) {
            let wpr = self.words_per_round();
            let tail = u64::MAX >> (64 - e % 64);
            for r in 0..self.n as usize {
                self.words[r * wpr + wpr - 1] = tail;
            }
        }
        for j in 0..self.m {
            self.inputs.insert(j);
        }
    }

    fn words_per_round(&self) -> usize {
        self.edges.len().div_ceil(64)
    }

    /// Number of processes `m`.
    pub fn process_count(&self) -> usize {
        self.m
    }

    /// The horizon `N` (last protocol round).
    pub fn horizon(&self) -> u32 {
        self.n
    }

    /// Returns whether process `i` receives the input signal.
    #[inline]
    pub fn has_input(&self, i: ProcessId) -> bool {
        self.inputs.contains(i.index())
    }

    /// The directed edges, sorted by `(from, to)` — the canonical link order
    /// samplers draw coins in.
    pub fn directed_edges(&self) -> &[(ProcessId, ProcessId)] {
        &self.edges
    }

    /// Number of directed edges.
    pub fn directed_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Removes the input signal at `i`.
    pub fn remove_input(&mut self, i: ProcessId) {
        self.inputs.remove(i.index());
    }

    /// Destroys the message on directed edge index `e` in `round`.
    ///
    /// # Panics
    ///
    /// Panics if `e` or `round` is out of range.
    #[inline]
    pub fn destroy(&mut self, e: usize, round: Round) {
        assert!(e < self.edges.len(), "edge index out of range");
        let r = round.get();
        assert!(r >= 1 && r <= self.n, "round outside 1..=N");
        let w = (r as usize - 1) * self.words_per_round() + e / 64;
        self.words[w] &= !(1u64 << (e % 64));
    }

    /// Returns whether directed edge index `e` delivers in `round`.
    #[inline]
    pub fn delivers_edge(&self, e: usize, round: Round) -> bool {
        let r = round.get();
        if e >= self.edges.len() || r < 1 || r > self.n {
            return false;
        }
        let w = (r as usize - 1) * self.words_per_round() + e / 64;
        self.words[w] & (1u64 << (e % 64)) != 0
    }

    /// Number of delivered messages.
    pub fn message_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Converts to the dense representation (differential tests; not a hot
    /// path).
    pub fn to_run(&self) -> Run {
        let mut run = Run::empty(self.m, self.n);
        for i in self.inputs.iter() {
            run.add_input(ProcessId::new(i as u32));
        }
        for (e, &(from, to)) in self.edges.iter().enumerate() {
            for r in Round::protocol_rounds(self.n) {
                if self.delivers_edge(e, r) {
                    run.add_message(from, to, r);
                }
            }
        }
        run
    }
}

impl DeliverySource for EdgeRun {
    fn process_count(&self) -> usize {
        self.m
    }

    fn horizon(&self) -> u32 {
        self.n
    }

    fn has_input(&self, i: ProcessId) -> bool {
        EdgeRun::has_input(self, i)
    }

    fn for_each_delivery_in_round(&self, round: Round, mut f: impl FnMut(ProcessId, ProcessId)) {
        let r = round.get();
        if r < 1 || r > self.n {
            return;
        }
        let wpr = self.words_per_round();
        let block = &self.words[(r as usize - 1) * wpr..(r as usize) * wpr];
        for (word, &bits) in block.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let e = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (from, to) = self.edges[e];
                f(from, to);
            }
        }
    }
}

impl Clone for Run {
    fn clone(&self) -> Self {
        Run {
            m: self.m,
            n: self.n,
            inputs: self.inputs.clone(),
            words: self.words.clone(),
            msg_count: self.msg_count,
        }
    }

    /// Clones without reallocating: the scratch-run pattern in the Monte
    /// Carlo engine (`sample_into`) leans on this to reuse the destination's
    /// buffers trial after trial.
    fn clone_from(&mut self, source: &Self) {
        self.m = source.m;
        self.n = source.n;
        self.inputs.clone_from(&source.inputs);
        self.words.clone_from(&source.words);
        self.msg_count = source.msg_count;
    }
}

impl Serialize for Run {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Keep the wire format of the old derived impl: the message matrix
        // goes out as the explicit sorted slot list.
        let mut st = serializer.serialize_struct("Run", 4)?;
        st.serialize_field("m", &self.m)?;
        st.serialize_field("n", &self.n)?;
        st.serialize_field("inputs", &self.inputs)?;
        st.serialize_field("messages", &self.messages().collect::<Vec<_>>())?;
        st.end()
    }
}

impl serde::de::Deserialize for Run {
    fn deserialize(value: &serde::json::Value) -> Result<Self, serde::json::Error> {
        let obj = value.as_object().ok_or_else(|| {
            serde::json::Error::custom(format!("expected object for Run, got {}", value.kind()))
        })?;
        Run::from_parts(
            serde::de::field(obj, "m")?,
            serde::de::field(obj, "n")?,
            serde::de::field(obj, "inputs")?,
            serde::de::field::<Vec<MsgSlot>>(obj, "messages")?,
        )
        .map_err(serde::json::Error::custom)
    }
}

impl fmt::Debug for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Run")
            .field("m", &self.m)
            .field("n", &self.n)
            .field("inputs", &self.inputs)
            .field("messages", &self.messages().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run(inputs={{{}}}, |M|={})",
            self.inputs()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.message_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn r(i: u32) -> Round {
        Round::new(i)
    }

    #[test]
    fn paper_example_run() {
        // The paper's example: {(v0,3,0), (1,2,6), (3,2,7)} — translated to
        // 0-based ids: input at P2, messages (P0→P1, r6) and (P2→P1, r7).
        let g = Graph::complete(3).unwrap();
        let mut run = Run::empty(3, 8);
        run.add_input(p(2));
        run.add_message(p(0), p(1), r(6));
        run.add_message(p(2), p(1), r(7));
        assert!(run.has_input(p(2)));
        assert!(!run.has_input(p(0)));
        assert!(run.delivers(p(0), p(1), r(6)));
        assert!(!run.delivers(p(1), p(0), r(6)));
        assert_eq!(run.message_count(), 2);
        run.validate(&g).unwrap();
    }

    #[test]
    fn good_run_counts() {
        let g = Graph::line(3).unwrap();
        let run = Run::good(&g, 5);
        // 2 undirected edges → 4 directed slots per round × 5 rounds.
        assert_eq!(run.message_count(), 20);
        assert_eq!(run.input_count(), 3);
        run.validate(&g).unwrap();
    }

    #[test]
    fn good_with_inputs_subset() {
        let g = Graph::complete(3).unwrap();
        let run = Run::good_with_inputs(&g, 2, &[p(1)]);
        assert!(!run.has_input(p(0)));
        assert!(run.has_input(p(1)));
        assert_eq!(run.input_count(), 1);
    }

    #[test]
    fn cut_from_round() {
        let g = Graph::complete(2).unwrap();
        let mut run = Run::good(&g, 4);
        run.cut_from_round(r(3));
        assert_eq!(run.message_count(), 4); // rounds 1,2 × 2 directions
        assert!(run.delivers(p(0), p(1), r(2)));
        assert!(!run.delivers(p(0), p(1), r(3)));
    }

    #[test]
    fn cut_link_from_round() {
        let g = Graph::complete(2).unwrap();
        let mut run = Run::good(&g, 3);
        run.cut_link_from_round(p(0), p(1), r(2));
        assert!(run.delivers(p(0), p(1), r(1)));
        assert!(!run.delivers(p(0), p(1), r(2)));
        assert!(run.delivers(p(1), p(0), r(3)), "other direction untouched");
    }

    #[test]
    fn subset_and_union() {
        let g = Graph::complete(2).unwrap();
        let empty = Run::empty(2, 3);
        let good = Run::good(&g, 3);
        assert!(empty.is_subset(&good));
        assert!(!good.is_subset(&empty));
        let u = empty.union(&good);
        assert_eq!(u, good);
    }

    #[test]
    fn validate_rejects_bad_slots() {
        let g = Graph::line(3).unwrap();
        let mut run = Run::empty(3, 3);
        run.add_message(p(0), p(2), r(1)); // non-edge in the line graph
        assert!(matches!(
            run.validate(&g),
            Err(ModelError::InvalidMessageSlot { .. })
        ));
    }

    #[test]
    fn enumerate_all_tiny() {
        let g = Graph::complete(2).unwrap();
        // 2 inputs + 2 directed edges × 1 round = 4 bits → 16 runs.
        let runs = Run::enumerate_all(&g, 1);
        assert_eq!(runs.len(), 16);
        // All must validate; exactly one is the good run.
        let good = Run::good(&g, 1);
        assert_eq!(runs.iter().filter(|r| **r == good).count(), 1);
        for run in &runs {
            run.validate(&g).unwrap();
        }
    }

    #[test]
    fn display_and_debug() {
        let g = Graph::complete(2).unwrap();
        let run = Run::good(&g, 1);
        assert!(format!("{run}").contains("|M|=2"));
        assert!(format!("{run:?}").contains("messages"));
    }

    #[test]
    fn remove_message_and_input() {
        let g = Graph::complete(2).unwrap();
        let mut run = Run::good(&g, 2);
        assert!(run.remove_message(p(0), p(1), r(1)));
        assert!(!run.remove_message(p(0), p(1), r(1)));
        run.remove_input(p(0));
        assert!(!run.has_input(p(0)));
    }

    #[test]
    fn try_enumerate_all_rejects_oversized_instances() {
        let g = Graph::complete(4).unwrap();
        let err = Run::try_enumerate_all(&g, 8).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");

        let small = Graph::complete(2).unwrap();
        let runs = Run::try_enumerate_all(&small, 1).unwrap();
        assert_eq!(runs.len(), Run::enumerate_all(&small, 1).len());
    }

    #[test]
    fn messages_are_in_canonical_slot_order() {
        let g = Graph::complete(3).unwrap();
        let run = Run::good(&g, 3);
        let slots: Vec<_> = run.messages().collect();
        let mut sorted = slots.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(slots, sorted, "messages() must yield sorted unique slots");
        for round in Round::protocol_rounds(3) {
            let per_round: Vec<_> = run.messages_in_round(round).collect();
            let expected: Vec<_> = slots.iter().copied().filter(|s| s.round == round).collect();
            assert_eq!(per_round, expected);
        }
    }

    #[test]
    fn out_of_matrix_queries_answer_false() {
        let g = Graph::complete(2).unwrap();
        let mut run = Run::good(&g, 2);
        assert!(!run.delivers(p(0), p(1), r(9)), "round beyond the horizon");
        assert!(!run.delivers(p(0), p(1), r(0)), "the input round");
        assert!(!run.delivers(p(7), p(0), r(1)), "process beyond m");
        assert!(!run.remove_message(p(0), p(1), r(9)));
        assert_eq!(run.messages_in_round(r(9)).count(), 0);
        run.cut_link_from_round(p(7), p(0), r(1));
        assert_eq!(run, Run::good(&g, 2));
    }

    #[test]
    #[should_panic(expected = "outside the run")]
    fn add_message_outside_the_matrix_panics() {
        Run::empty(2, 2).add_message(p(0), p(1), r(3));
    }

    #[test]
    fn clone_from_reuses_and_matches_clone() {
        let g = Graph::complete(4).unwrap();
        let big = Run::good(&g, 6);
        let mut scratch = Run::empty(0, 0);
        scratch.clone_from(&big);
        assert_eq!(scratch, big);
        let small = Run::empty(2, 1);
        scratch.clone_from(&small);
        assert_eq!(scratch, small);
        assert_eq!(scratch.message_count(), 0);
    }

    #[test]
    fn serde_round_trip_preserves_equality() {
        let g = Graph::complete(3).unwrap();
        let mut run = Run::good_with_inputs(&g, 4, &[p(0), p(2)]);
        run.remove_message(p(1), p(2), r(3));
        let json = serde::json::to_string(&run).unwrap();
        let back: Run = serde::json::from_str(&json).unwrap();
        assert_eq!(back, run);
    }

    #[test]
    fn edge_run_good_matches_dense_good() {
        for g in [
            Graph::complete(3).unwrap(),
            Graph::ring(5).unwrap(),
            Graph::grid(2, 3).unwrap(),
        ] {
            let dense = Run::good(&g, 4);
            let sparse = EdgeRun::good(&g, 4);
            assert_eq!(sparse.to_run(), dense);
            assert_eq!(sparse.message_count(), dense.message_count());
        }
    }

    #[test]
    fn edge_run_deliveries_iterate_in_canonical_order() {
        let g = Graph::grid(2, 3).unwrap();
        let mut er = EdgeRun::good(&g, 3);
        er.destroy(0, r(2));
        er.destroy(3, r(2));
        er.remove_input(p(1));
        let dense = er.to_run();
        for round in Round::protocol_rounds(3) {
            let mut sparse_pairs = Vec::new();
            er.for_each_delivery_in_round(round, |a, b| sparse_pairs.push((a, b)));
            let dense_pairs: Vec<_> = dense
                .messages_in_round(round)
                .map(|s| (s.from, s.to))
                .collect();
            assert_eq!(sparse_pairs, dense_pairs, "round {round}");
        }
    }

    #[test]
    fn edge_run_destroy_and_reset() {
        let g = Graph::ring(4).unwrap();
        let mut er = EdgeRun::good(&g, 2);
        let full = er.message_count();
        assert_eq!(full, 8 * 2);
        assert!(er.delivers_edge(5, r(1)));
        er.destroy(5, r(1));
        assert!(!er.delivers_edge(5, r(1)));
        assert_eq!(er.message_count(), full - 1);
        er.remove_input(p(2));
        assert!(!DeliverySource::has_input(&er, p(2)));
        er.reset_good();
        assert_eq!(er.message_count(), full);
        assert!(DeliverySource::has_input(&er, p(2)));
        // Out-of-range probes are simply absent, as with Run::delivers.
        assert!(!er.delivers_edge(99, r(1)));
        assert!(!er.delivers_edge(0, r(9)));
    }

    #[test]
    fn delivery_source_run_matches_inherent_accessors() {
        let g = Graph::complete(3).unwrap();
        let run = Run::good_with_inputs(&g, 2, &[p(0)]);
        assert_eq!(DeliverySource::process_count(&run), 3);
        assert_eq!(DeliverySource::horizon(&run), 2);
        assert!(DeliverySource::has_input(&run, p(0)));
        assert!(!DeliverySource::has_input(&run, p(1)));
        let mut pairs = Vec::new();
        run.for_each_delivery_in_round(r(1), |a, b| pairs.push((a, b)));
        assert_eq!(pairs.len(), run.messages_in_round(r(1)).count());
    }

    #[test]
    fn deserializes_old_format_slot_list() {
        // A fixture produced by the previous BTreeSet-backed representation:
        // messages as an explicit sorted slot array.
        let json = r#"{"m":2,"n":2,"inputs":{"blocks":[3],"capacity":2},"messages":[{"from":0,"to":1,"round":1},{"from":1,"to":0,"round":2}]}"#;
        let run: Run = serde::json::from_str(json).unwrap();
        assert_eq!(run.process_count(), 2);
        assert_eq!(run.horizon(), 2);
        assert_eq!(run.input_count(), 2);
        assert!(run.delivers(p(0), p(1), r(1)));
        assert!(!run.delivers(p(0), p(1), r(2)));
        assert!(run.delivers(p(1), p(0), r(2)));
        // And it re-serializes to the same wire format.
        assert_eq!(serde::json::to_string(&run).unwrap(), json);
    }

    /// Deserializes a run of `m` processes over `n` rounds whose input set
    /// has `capacity` and whose slot list is `messages`.
    fn parse(m: usize, n: u32, capacity: usize, messages: &str) -> Result<Run, String> {
        let blocks = vec!["0"; capacity.div_ceil(64)].join(",");
        let json = format!(
            r#"{{"m":{m},"n":{n},"inputs":{{"blocks":[{blocks}],"capacity":{capacity}}},"messages":[{messages}]}}"#
        );
        serde::json::from_str::<Run>(&json).map_err(|e| e.to_string())
    }

    #[test]
    fn deserializer_rejects_slots_outside_the_matrix() {
        let slot =
            |f: u32, t: u32, round: u32| format!(r#"{{"from":{f},"to":{t},"round":{round}}}"#);
        assert!(parse(2, 1, 2, &slot(0, 1, 1)).is_ok());
        // Past the horizon, round 0 (the input round), a process ≥ m.
        for bad in [slot(0, 1, 2), slot(1, 0, 0), slot(0, 2, 1)] {
            let err = parse(2, 1, 2, &bad).unwrap_err();
            assert!(err.contains("slot outside the run"), "{bad}: {err}");
        }
    }

    #[test]
    fn deserializer_rejects_inputs_of_another_capacity() {
        let err = parse(2, 1, 3, "").unwrap_err();
        assert!(err.contains("`inputs`"), "{err}");
        assert!(parse(3, 1, 3, "").is_ok());
    }

    #[test]
    fn deserializer_rejects_oversized_shapes_before_allocating() {
        // m = n = 2^20 would ask for 2^56 words; the checks come first.
        let err = parse(1 << 20, 1 << 20, 0, "").unwrap_err();
        assert!(err.contains("at most 2048"), "{err}");
        let err = parse(MAX_PROCESSES + 1, 1, MAX_PROCESSES + 1, "").unwrap_err();
        assert!(err.contains("at most 2048"), "{err}");
        // Two processes take one word per round: the cap is its round count.
        let err = parse(2, MAX_RUN_WORDS as u32 + 1, 2, "").unwrap_err();
        assert!(err.contains("MAX_RUN_WORDS"), "{err}");
        let err = parse(2, u32::MAX, 2, "").unwrap_err();
        assert!(err.contains("MAX_RUN_WORDS"), "{err}");
        // On MAX_PROCESSES a round is 2^16 words, so 256 rounds fit.
        let at_cap = Run::from_parts(MAX_PROCESSES, 256, BitSet::new(MAX_PROCESSES), []);
        assert_eq!(at_cap.map(|r| r.horizon()), Ok(256));
        let over = Run::from_parts(MAX_PROCESSES, 257, BitSet::new(MAX_PROCESSES), []);
        assert!(matches!(
            over,
            Err(ModelError::InvalidParameter { name: "n", .. })
        ));
    }
}
