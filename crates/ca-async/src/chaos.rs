//! Deterministic fault-injection schedules: the chaos courier.
//!
//! A [`FaultSchedule`] is a serializable list of composable, metadata-only
//! fault primitives — link drops, probabilistic loss, delay jitter,
//! duplication, reordering, burst loss, per-process crash windows, and
//! link partitions. A [`ChaosCourier`] interprets a schedule as a
//! [`Courier`]: like the paper's strong adversary it sees only message
//! metadata (sender, receiver, send time, sequence number), never contents,
//! so it cannot learn `rfire` — every schedule is a legal adversary.
//!
//! Determinism and shrinkability are the design constraints:
//!
//! * the whole execution is a pure function of `(schedule, protocol inputs,
//!   tapes)` — a schedule saved to JSON replays to the identical outcome;
//! * each fault primitive draws its coins from a stream derived from
//!   `(schedule.seed, fault index, message seq)`, so deleting one fault
//!   never reshuffles another fault's decisions. That independence is what
//!   lets delta debugging (`ca_sim::chaos::ddmin`) shrink a violating
//!   schedule fault-by-fault while the rest of the behavior stays fixed.
//!
//! An empty schedule is exactly [`ReliableCourier`]: every message arrives
//! after `base_latency` ticks (property-tested in `tests/prop_chaos.rs`).
//!
//! [`ReliableCourier`]: crate::courier::ReliableCourier

use crate::courier::{Courier, Fate, SendEvent, Time};
use ca_core::error::CaError;
use ca_core::ids::{ProcessId, Round};
use ca_core::run::Run;
use ca_sim::chaos::mix64;
use serde::json;
use serde::{Deserialize, Serialize};

/// A half-open window of virtual time `[start, end)`; `end = None` means
/// "until forever".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeWindow {
    /// First tick the window covers.
    pub start: Time,
    /// First tick after the window, or `None` for an open-ended window.
    pub end: Option<Time>,
}

impl TimeWindow {
    /// The window covering all of time.
    pub fn always() -> Self {
        TimeWindow {
            start: 0,
            end: None,
        }
    }

    /// The open-ended window starting at `start`.
    pub fn from(start: Time) -> Self {
        TimeWindow { start, end: None }
    }

    /// The window `[start, end)`.
    pub fn between(start: Time, end: Time) -> Self {
        TimeWindow {
            start,
            end: Some(end),
        }
    }

    /// Whether the window covers tick `t`.
    pub fn contains(&self, t: Time) -> bool {
        t >= self.start && self.end.is_none_or(|end| t < end)
    }

    /// Whether the window is empty (can never match).
    pub fn is_empty(&self) -> bool {
        self.end.is_some_and(|end| end <= self.start)
    }
}

/// One composable, metadata-only fault. All probabilistic primitives flip
/// coins derived from `(schedule seed, fault index, message seq)` — see the
/// module docs for why.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultPrimitive {
    /// Destroys every message on the link `from → to` (both directions if
    /// `bidirectional`) sent during the window.
    DropLink {
        /// Link source.
        from: ProcessId,
        /// Link destination.
        to: ProcessId,
        /// Also destroy `to → from` traffic.
        bidirectional: bool,
        /// When the link is down (by send time).
        window: TimeWindow,
    },
    /// Destroys each message sent during the window independently with
    /// probability `p`.
    DropProb {
        /// Loss probability in `[0, 1]`.
        p: f64,
        /// When the loss process is active (by send time).
        window: TimeWindow,
    },
    /// Adds uniform extra latency in `0..=extra_max` to messages sent during
    /// the window.
    DelayJitter {
        /// Maximum extra ticks.
        extra_max: Time,
        /// When jitter applies (by send time).
        window: TimeWindow,
    },
    /// With probability `p`, schedules a second copy of the message
    /// `echo_delay` ticks after the first. The engine's sequence-number
    /// dedup delivers at most one copy.
    Duplicate {
        /// Duplication probability in `[0, 1]`.
        p: f64,
        /// Ticks between the original arrival and the echo.
        echo_delay: Time,
        /// When duplication applies (by send time).
        window: TimeWindow,
    },
    /// With probability `p`, holds a message back an extra `1..=max_swap`
    /// ticks so later sends can overtake it (FIFO violation).
    Reorder {
        /// Reorder probability in `[0, 1]`.
        p: f64,
        /// Maximum extra holding time (≥ 1).
        max_swap: Time,
        /// When reordering applies (by send time).
        window: TimeWindow,
    },
    /// Periodic outage: destroys every message sent in the first
    /// `burst_len` ticks of each `period`-tick cycle.
    BurstLoss {
        /// Cycle length (≥ 1).
        period: Time,
        /// Ticks of loss at the start of each cycle.
        burst_len: Time,
    },
    /// Crash-stops a process for the window: everything it sends — and
    /// everything sent to it — during the window is destroyed.
    CrashWindow {
        /// The crashed process.
        process: ProcessId,
        /// When the process is down (by send time).
        window: TimeWindow,
    },
    /// Partitions the graph for the window: messages crossing between
    /// `group_a` and its complement are destroyed; intra-group traffic
    /// flows normally.
    Partition {
        /// One side of the partition (the complement is the other side).
        group_a: Vec<ProcessId>,
        /// When the partition holds (by send time).
        window: TimeWindow,
    },
    /// Replays a synchronous [`Run`]: the send at tick `t` belongs to round
    /// `t / ticks_per_round + 1`, and any message whose `(from, to, round)`
    /// slot is *not* in `M(R)` is destroyed — including every send past the
    /// run's horizon, since `M(R)` holds only rounds `1..=N`. The run
    /// serializes as its canonical sorted slot list, so schedules embedding
    /// one stay readable, diffable, and byte-deterministic (the coin-stream
    /// keying below depends on that). A schedule file whose run lists a
    /// slot outside its matrix (past its horizon, or a process `≥ m`) or
    /// names a matrix over [`ca_core::run::MAX_RUN_WORDS`] fails to parse
    /// with a typed error.
    ReplayRun {
        /// The synchronous run to replay.
        run: Run,
        /// Ticks of virtual time per protocol round (≥ 1).
        ticks_per_round: Time,
    },
}

impl FaultPrimitive {
    /// The primitive's activity window, when it has one (`BurstLoss` and
    /// `ReplayRun` are windowless).
    pub fn window(&self) -> Option<&TimeWindow> {
        match self {
            FaultPrimitive::DropLink { window, .. }
            | FaultPrimitive::DropProb { window, .. }
            | FaultPrimitive::DelayJitter { window, .. }
            | FaultPrimitive::Duplicate { window, .. }
            | FaultPrimitive::Reorder { window, .. }
            | FaultPrimitive::CrashWindow { window, .. }
            | FaultPrimitive::Partition { window, .. } => Some(window),
            FaultPrimitive::BurstLoss { .. } | FaultPrimitive::ReplayRun { .. } => None,
        }
    }

    /// Typed validation; `index` is used only for error messages.
    fn validate(&self, index: usize) -> Result<(), CaError> {
        if let Some(window) = self.window() {
            if window.is_empty() {
                return Err(CaError::malformed(format!(
                    "fault[{index}] window [{}, {:?}) is empty",
                    window.start, window.end
                )));
            }
        }
        let check_p = |p: f64, what: &str| {
            if !(0.0..=1.0).contains(&p) {
                return Err(CaError::malformed(format!(
                    "fault[{index}] {what} probability {p} not in [0, 1]"
                )));
            }
            Ok(())
        };
        match self {
            FaultPrimitive::DropProb { p, .. } => check_p(*p, "drop")?,
            FaultPrimitive::Duplicate { p, .. } => check_p(*p, "duplicate")?,
            FaultPrimitive::Reorder { p, max_swap, .. } => {
                check_p(*p, "reorder")?;
                if *max_swap == 0 {
                    return Err(CaError::malformed(format!(
                        "fault[{index}] reorder max_swap must be at least 1"
                    )));
                }
            }
            FaultPrimitive::BurstLoss { period, burst_len } => {
                if *period == 0 {
                    return Err(CaError::malformed(format!(
                        "fault[{index}] burst period must be at least 1"
                    )));
                }
                if burst_len > period {
                    return Err(CaError::malformed(format!(
                        "fault[{index}] burst_len {burst_len} exceeds period {period}"
                    )));
                }
            }
            FaultPrimitive::ReplayRun {
                ticks_per_round, ..
            } => {
                if *ticks_per_round == 0 {
                    return Err(CaError::malformed(format!(
                        "fault[{index}] replay ticks_per_round must be at least 1"
                    )));
                }
            }
            FaultPrimitive::DropLink { .. }
            | FaultPrimitive::DelayJitter { .. }
            | FaultPrimitive::CrashWindow { .. }
            | FaultPrimitive::Partition { .. } => {}
        }
        Ok(())
    }
}

/// A complete fault-injection schedule: a seed, a base latency, and a list
/// of [`FaultPrimitive`]s applied in order to every send.
///
/// Serializable to JSON ([`FaultSchedule::to_json`]) and back, so violating
/// schedules found by a chaos campaign can be saved, replayed, and diffed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Seed for every probabilistic primitive's coin stream.
    pub seed: u64,
    /// Latency (≥ 1 tick) of an unfaulted delivery.
    pub base_latency: Time,
    /// The faults, applied in order.
    pub faults: Vec<FaultPrimitive>,
}

impl FaultSchedule {
    /// The empty schedule: behaviorally identical to
    /// [`ReliableCourier`](crate::courier::ReliableCourier) with the same
    /// latency.
    pub fn reliable(base_latency: Time) -> Self {
        FaultSchedule {
            seed: 0,
            base_latency,
            faults: Vec::new(),
        }
    }

    /// Validates the schedule without running it.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::MalformedConfig`] if the base latency is zero or
    /// any fault primitive has an out-of-range parameter.
    pub fn validate(&self) -> Result<(), CaError> {
        if self.base_latency == 0 {
            return Err(CaError::malformed("base_latency must be at least 1 tick"));
        }
        for (k, fault) in self.faults.iter().enumerate() {
            fault.validate(k)?;
        }
        Ok(())
    }

    /// Serializes to deterministic single-line JSON.
    pub fn to_json(&self) -> String {
        json::to_string(self).expect("schedules are always serializable")
    }

    /// Serializes to deterministic pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        json::to_string_pretty(self).expect("schedules are always serializable")
    }

    /// Parses a schedule from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::MalformedConfig`] on parse errors or invalid
    /// parameters.
    pub fn from_json(text: &str) -> Result<Self, CaError> {
        let schedule: FaultSchedule = json::from_str(text)
            .map_err(|e| CaError::malformed(format!("bad schedule JSON: {e}")))?;
        schedule.validate()?;
        Ok(schedule)
    }

    /// Human-readable field-by-field differences against another schedule
    /// (empty when equal). Useful for comparing a violating schedule with
    /// its shrunk counterexample.
    pub fn diff(&self, other: &FaultSchedule) -> Vec<String> {
        let mut out = Vec::new();
        if self.seed != other.seed {
            out.push(format!("seed: {} -> {}", self.seed, other.seed));
        }
        if self.base_latency != other.base_latency {
            out.push(format!(
                "base_latency: {} -> {}",
                self.base_latency, other.base_latency
            ));
        }
        let shared = self.faults.len().max(other.faults.len());
        for k in 0..shared {
            match (self.faults.get(k), other.faults.get(k)) {
                (Some(a), Some(b)) if a != b => {
                    out.push(format!("fault[{k}]: {a:?} -> {b:?}"));
                }
                (Some(a), None) => out.push(format!("fault[{k}] removed: {a:?}")),
                (None, Some(b)) => out.push(format!("fault[{k}] added: {b:?}")),
                _ => {}
            }
        }
        out
    }
}

/// Converts 64 uniform bits into a uniform `f64` in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a over bytes: hashes a fault's canonical JSON into its stream id.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A [`Courier`] interpreting a [`FaultSchedule`] deterministically.
///
/// Stateless across sends: every decision is a pure function of the
/// schedule and the send's metadata, never of earlier decisions. Each
/// fault's coin stream is keyed on the schedule seed and a hash of the
/// fault's *content* (not its list position), so removing one fault never
/// reshuffles another's decisions — the property delta debugging needs.
/// (Corollary: two byte-identical faults in one schedule share a stream and
/// collapse into one.)
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosCourier {
    schedule: FaultSchedule,
    /// Per-fault stream seeds: `mix64(schedule.seed, fnv1a(fault JSON))`.
    streams: Vec<u64>,
}

impl ChaosCourier {
    /// Builds a courier after validating the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::MalformedConfig`] if the schedule is invalid.
    pub fn new(schedule: FaultSchedule) -> Result<Self, CaError> {
        schedule.validate()?;
        let streams = schedule
            .faults
            .iter()
            .map(|fault| {
                let canonical =
                    json::to_string(fault).expect("fault primitives are always serializable");
                mix64(schedule.seed, fnv1a(canonical.as_bytes()))
            })
            .collect();
        Ok(ChaosCourier { schedule, streams })
    }

    /// The interpreted schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// The decision coin for `(fault k, message seq, draw d)`: independent
    /// streams per fault content and per draw.
    fn coin(&self, fault: usize, seq: u64, draw: u64) -> u64 {
        mix64(self.streams[fault], seq.wrapping_mul(2).wrapping_add(draw))
    }

    /// Primary fate plus the number of echo copies to schedule.
    fn decide(&self, e: SendEvent) -> (Fate, Option<Time>) {
        let mut latency = self.schedule.base_latency;
        let mut destroyed = false;
        let mut echo_at_delay: Option<Time> = None;

        for (k, fault) in self.schedule.faults.iter().enumerate() {
            match fault {
                FaultPrimitive::DropLink {
                    from,
                    to,
                    bidirectional,
                    window,
                } => {
                    let hit = (e.from == *from && e.to == *to)
                        || (*bidirectional && e.from == *to && e.to == *from);
                    if hit && window.contains(e.sent_at) {
                        destroyed = true;
                    }
                }
                FaultPrimitive::DropProb { p, window } => {
                    if window.contains(e.sent_at) && unit(self.coin(k, e.seq, 0)) < *p {
                        destroyed = true;
                    }
                }
                FaultPrimitive::DelayJitter { extra_max, window } => {
                    if window.contains(e.sent_at) && *extra_max > 0 {
                        let extra = self.coin(k, e.seq, 0) % extra_max.saturating_add(1);
                        latency = latency.saturating_add(extra);
                    }
                }
                FaultPrimitive::Duplicate {
                    p,
                    echo_delay,
                    window,
                } => {
                    if window.contains(e.sent_at) && unit(self.coin(k, e.seq, 0)) < *p {
                        echo_at_delay = Some((*echo_delay).max(1));
                    }
                }
                FaultPrimitive::Reorder {
                    p,
                    max_swap,
                    window,
                } => {
                    if window.contains(e.sent_at) && unit(self.coin(k, e.seq, 0)) < *p {
                        let swap = 1 + self.coin(k, e.seq, 1) % *max_swap;
                        latency = latency.saturating_add(swap);
                    }
                }
                FaultPrimitive::BurstLoss { period, burst_len } => {
                    if e.sent_at % period < *burst_len {
                        destroyed = true;
                    }
                }
                FaultPrimitive::CrashWindow { process, window } => {
                    if (e.from == *process || e.to == *process) && window.contains(e.sent_at) {
                        destroyed = true;
                    }
                }
                FaultPrimitive::Partition { group_a, window } => {
                    if window.contains(e.sent_at)
                        && group_a.contains(&e.from) != group_a.contains(&e.to)
                    {
                        destroyed = true;
                    }
                }
                FaultPrimitive::ReplayRun {
                    run,
                    ticks_per_round,
                } => {
                    let round = Round::new(
                        u32::try_from(e.sent_at / ticks_per_round + 1).unwrap_or(u32::MAX),
                    );
                    if !run.delivers(e.from, e.to, round) {
                        destroyed = true;
                    }
                }
            }
        }

        if destroyed {
            (Fate::Destroy, None)
        } else {
            (
                Fate::Deliver(e.sent_at.saturating_add(latency)),
                echo_at_delay,
            )
        }
    }
}

impl Courier for ChaosCourier {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn fate(&mut self, event: SendEvent) -> Fate {
        self.decide(event).0
    }

    fn fates(&mut self, event: SendEvent, out: &mut Vec<Fate>) {
        match self.decide(event) {
            (Fate::Destroy, _) => out.push(Fate::Destroy),
            (Fate::Deliver(at), echo) => {
                out.push(Fate::Deliver(at));
                if let Some(delay) = echo {
                    out.push(Fate::Deliver(at.saturating_add(delay)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::courier::ReliableCourier;
    use crate::engine::{run_async, AsyncConfig};
    use crate::protocol::AsyncS;
    use ca_core::graph::Graph;
    use ca_core::tape::TapeSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tapes(m: usize) -> TapeSet {
        let mut rng = StdRng::seed_from_u64(1);
        TapeSet::random(&mut rng, m, 64)
    }

    fn event(from: u32, to: u32, sent_at: Time, seq: u64) -> SendEvent {
        SendEvent {
            from: ProcessId::new(from),
            to: ProcessId::new(to),
            sent_at,
            seq,
        }
    }

    #[test]
    fn time_window_semantics() {
        let w = TimeWindow::between(3, 6);
        assert!(!w.contains(2) && w.contains(3) && w.contains(5) && !w.contains(6));
        assert!(TimeWindow::always().contains(0));
        assert!(TimeWindow::from(4).contains(u64::MAX));
        assert!(!TimeWindow::from(4).contains(3));
        assert!(TimeWindow::between(5, 5).is_empty());
        assert!(!TimeWindow::between(5, 6).is_empty());
    }

    #[test]
    fn empty_schedule_is_reliable() {
        let mut chaos = ChaosCourier::new(FaultSchedule::reliable(2)).unwrap();
        let mut reliable = ReliableCourier::new(2);
        for seq in 0..50 {
            let e = event(0, 1, seq, seq);
            assert_eq!(chaos.fate(e), reliable.fate(e));
        }
    }

    #[test]
    fn drop_link_is_directional_unless_bidirectional() {
        let fault = FaultPrimitive::DropLink {
            from: ProcessId::new(0),
            to: ProcessId::new(1),
            bidirectional: false,
            window: TimeWindow::always(),
        };
        let mut c = ChaosCourier::new(FaultSchedule {
            seed: 1,
            base_latency: 1,
            faults: vec![fault.clone()],
        })
        .unwrap();
        assert_eq!(c.fate(event(0, 1, 0, 0)), Fate::Destroy);
        assert_eq!(c.fate(event(1, 0, 0, 1)), Fate::Deliver(1));

        let both = FaultPrimitive::DropLink {
            from: ProcessId::new(0),
            to: ProcessId::new(1),
            bidirectional: true,
            window: TimeWindow::between(0, 5),
        };
        let mut c = ChaosCourier::new(FaultSchedule {
            seed: 1,
            base_latency: 1,
            faults: vec![both],
        })
        .unwrap();
        assert_eq!(c.fate(event(1, 0, 0, 0)), Fate::Destroy);
        assert_eq!(
            c.fate(event(1, 0, 5, 1)),
            Fate::Deliver(6),
            "window expired"
        );
    }

    #[test]
    fn burst_loss_and_partition_and_crash() {
        let schedule = FaultSchedule {
            seed: 2,
            base_latency: 1,
            faults: vec![FaultPrimitive::BurstLoss {
                period: 10,
                burst_len: 3,
            }],
        };
        let mut c = ChaosCourier::new(schedule).unwrap();
        assert_eq!(c.fate(event(0, 1, 12, 0)), Fate::Destroy);
        assert_eq!(c.fate(event(0, 1, 13, 1)), Fate::Deliver(14));

        let schedule = FaultSchedule {
            seed: 2,
            base_latency: 1,
            faults: vec![FaultPrimitive::Partition {
                group_a: vec![ProcessId::new(0)],
                window: TimeWindow::always(),
            }],
        };
        let mut c = ChaosCourier::new(schedule).unwrap();
        assert_eq!(c.fate(event(0, 1, 0, 0)), Fate::Destroy);
        assert_eq!(
            c.fate(event(1, 2, 0, 1)),
            Fate::Deliver(1),
            "intra-group ok"
        );

        let schedule = FaultSchedule {
            seed: 2,
            base_latency: 1,
            faults: vec![FaultPrimitive::CrashWindow {
                process: ProcessId::new(1),
                window: TimeWindow::between(2, 8),
            }],
        };
        let mut c = ChaosCourier::new(schedule).unwrap();
        assert_eq!(c.fate(event(1, 0, 3, 0)), Fate::Destroy, "crashed sender");
        assert_eq!(c.fate(event(0, 1, 3, 1)), Fate::Destroy, "crashed receiver");
        assert_eq!(c.fate(event(0, 2, 3, 2)), Fate::Deliver(4));
        assert_eq!(c.fate(event(1, 0, 8, 3)), Fate::Deliver(9), "recovered");
    }

    #[test]
    fn decisions_are_per_fault_independent() {
        // Removing the first fault must not reshuffle the jitter's coins,
        // even though the jitter's list position shifts — streams key on
        // fault content, not index. This is what ddmin shrinking relies on.
        let noop_drop = FaultPrimitive::DropProb {
            p: 0.0,
            window: TimeWindow::always(),
        };
        let jitter = FaultPrimitive::DelayJitter {
            extra_max: 5,
            window: TimeWindow::always(),
        };
        let with_drop = FaultSchedule {
            seed: 9,
            base_latency: 1,
            faults: vec![noop_drop, jitter.clone()],
        };
        let without_drop = FaultSchedule {
            seed: 9,
            base_latency: 1,
            faults: vec![jitter],
        };
        let mut a = ChaosCourier::new(with_drop).unwrap();
        let mut b = ChaosCourier::new(without_drop).unwrap();
        for seq in 0..100 {
            let e = event(0, 1, seq, seq);
            assert_eq!(a.fate(e), b.fate(e));
        }
        // Different schedule seeds give different decision streams.
        let jitter_only = |seed| FaultSchedule {
            seed,
            base_latency: 1,
            faults: vec![FaultPrimitive::DelayJitter {
                extra_max: 1000,
                window: TimeWindow::always(),
            }],
        };
        let mut c = ChaosCourier::new(jitter_only(1)).unwrap();
        let mut d = ChaosCourier::new(jitter_only(2)).unwrap();
        let differs = (0..50).any(|seq| {
            let e = event(0, 1, seq, seq);
            c.fate(e) != d.fate(e)
        });
        assert!(differs, "seed must drive the jitter stream");
    }

    #[test]
    fn duplicate_pushes_echo_fates() {
        let schedule = FaultSchedule {
            seed: 3,
            base_latency: 2,
            faults: vec![FaultPrimitive::Duplicate {
                p: 1.0,
                echo_delay: 3,
                window: TimeWindow::always(),
            }],
        };
        let mut c = ChaosCourier::new(schedule).unwrap();
        let mut fates = Vec::new();
        c.fates(event(0, 1, 10, 0), &mut fates);
        assert_eq!(fates, vec![Fate::Deliver(12), Fate::Deliver(15)]);
    }

    #[test]
    fn maximal_ticks_saturate_instead_of_wrapping() {
        // A schedule may carry any u64. Arrival ticks saturate at u64::MAX,
        // which lies past every deadline: the message never arrives.
        const M: Time = Time::MAX;
        let fates = |base_latency, fault| {
            let mut c = ChaosCourier::new(FaultSchedule {
                seed: 1,
                base_latency,
                faults: vec![fault],
            })
            .unwrap();
            let mut out = Vec::new();
            c.fates(event(0, 1, 7, 0), &mut out);
            out
        };
        let never = FaultPrimitive::DropProb {
            p: 0.0,
            window: TimeWindow::always(),
        };
        assert_eq!(fates(M, never), vec![Fate::Deliver(M)], "base latency");
        let jitter = FaultPrimitive::DelayJitter {
            extra_max: M,
            window: TimeWindow::always(),
        };
        assert!(
            matches!(fates(1, jitter.clone())[..], [Fate::Deliver(at)] if at > 7),
            "jitter"
        );
        assert_eq!(fates(M, jitter), vec![Fate::Deliver(M)], "jitter on top");
        let reorder = FaultPrimitive::Reorder {
            p: 1.0,
            max_swap: M,
            window: TimeWindow::always(),
        };
        assert_eq!(fates(M, reorder), vec![Fate::Deliver(M)], "reorder");
        let echo = FaultPrimitive::Duplicate {
            p: 1.0,
            echo_delay: M,
            window: TimeWindow::always(),
        };
        assert_eq!(
            fates(2, echo),
            vec![Fate::Deliver(9), Fate::Deliver(M)],
            "echo delay"
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultSchedule {
            seed: 0,
            base_latency: 0,
            faults: vec![]
        }
        .validate()
        .is_err());
        let bad_p = FaultSchedule {
            seed: 0,
            base_latency: 1,
            faults: vec![FaultPrimitive::DropProb {
                p: 1.5,
                window: TimeWindow::always(),
            }],
        };
        assert!(bad_p.validate().is_err());
        let bad_burst = FaultSchedule {
            seed: 0,
            base_latency: 1,
            faults: vec![FaultPrimitive::BurstLoss {
                period: 2,
                burst_len: 3,
            }],
        };
        assert!(bad_burst.validate().is_err());
        let bad_swap = FaultSchedule {
            seed: 0,
            base_latency: 1,
            faults: vec![FaultPrimitive::Reorder {
                p: 0.5,
                max_swap: 0,
                window: TimeWindow::always(),
            }],
        };
        assert!(ChaosCourier::new(bad_swap).is_err());
    }

    #[test]
    fn replay_run_destroys_everything_outside_the_run() {
        let mut run = Run::empty(2, 2);
        run.add_message(ProcessId::new(0), ProcessId::new(1), Round::new(1));
        run.add_message(ProcessId::new(1), ProcessId::new(0), Round::new(2));
        let schedule = FaultSchedule {
            seed: 5,
            base_latency: 2,
            faults: vec![FaultPrimitive::ReplayRun {
                run,
                ticks_per_round: 10,
            }],
        };
        let mut c = ChaosCourier::new(schedule).unwrap();
        // Round 1 (ticks 0..10): only 0→1 is in M(R).
        assert_eq!(c.fate(event(0, 1, 0, 0)), Fate::Deliver(2));
        assert_eq!(c.fate(event(1, 0, 9, 1)), Fate::Destroy);
        // Round 2 (ticks 10..20): only 1→0.
        assert_eq!(c.fate(event(1, 0, 10, 2)), Fate::Deliver(12));
        assert_eq!(c.fate(event(0, 1, 19, 3)), Fate::Destroy);
        // Past the horizon: everything dies.
        assert_eq!(c.fate(event(0, 1, 20, 4)), Fate::Destroy);

        // ticks_per_round = 0 is rejected by validation.
        let bad = FaultSchedule {
            seed: 0,
            base_latency: 1,
            faults: vec![FaultPrimitive::ReplayRun {
                run: Run::empty(2, 1),
                ticks_per_round: 0,
            }],
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn replay_run_schedule_round_trips_through_json() {
        let mut run = Run::empty(3, 2);
        run.add_input(ProcessId::new(0));
        run.add_message(ProcessId::new(0), ProcessId::new(2), Round::new(1));
        run.add_message(ProcessId::new(2), ProcessId::new(1), Round::new(2));
        let schedule = FaultSchedule {
            seed: 11,
            base_latency: 1,
            faults: vec![FaultPrimitive::ReplayRun {
                run,
                ticks_per_round: 4,
            }],
        };
        let text = schedule.to_json();
        // The run appears as an explicit, readable slot list on the wire.
        assert!(text.contains(r#""messages":[{"from":0"#), "{text}");
        let back = FaultSchedule::from_json(&text).unwrap();
        assert_eq!(schedule, back);
        assert_eq!(text, back.to_json(), "serialization is deterministic");
    }

    #[test]
    fn json_round_trip_preserves_schedules() {
        let schedule = FaultSchedule {
            seed: 42,
            base_latency: 2,
            faults: vec![
                FaultPrimitive::DropProb {
                    p: 0.25,
                    window: TimeWindow::between(1, 9),
                },
                FaultPrimitive::CrashWindow {
                    process: ProcessId::new(2),
                    window: TimeWindow::from(4),
                },
                FaultPrimitive::Partition {
                    group_a: vec![ProcessId::new(0), ProcessId::new(1)],
                    window: TimeWindow::always(),
                },
            ],
        };
        let text = schedule.to_json();
        let back = FaultSchedule::from_json(&text).unwrap();
        assert_eq!(schedule, back);
        // Serialization is deterministic: same schedule, same bytes.
        assert_eq!(text, back.to_json());
        // Pretty form parses too.
        assert_eq!(
            FaultSchedule::from_json(&schedule.to_json_pretty()).unwrap(),
            schedule
        );
        // Parse errors and invalid parameters surface as typed errors.
        assert!(FaultSchedule::from_json("{").is_err());
        assert!(FaultSchedule::from_json(r#"{"seed":0,"base_latency":0,"faults":[]}"#).is_err());
    }

    #[test]
    fn diff_reports_changed_and_removed_faults() {
        let a = FaultSchedule {
            seed: 1,
            base_latency: 1,
            faults: vec![
                FaultPrimitive::BurstLoss {
                    period: 5,
                    burst_len: 1,
                },
                FaultPrimitive::DropProb {
                    p: 0.5,
                    window: TimeWindow::always(),
                },
            ],
        };
        let mut b = a.clone();
        b.faults.pop();
        b.seed = 2;
        let d = a.diff(&b);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].contains("seed"));
        assert!(d[1].contains("removed"));
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn validation_rejects_empty_and_inverted_windows() {
        let with_window = |window| FaultSchedule {
            seed: 0,
            base_latency: 1,
            faults: vec![FaultPrimitive::DropProb { p: 0.5, window }],
        };
        // Empty: end == start can never match.
        assert!(with_window(TimeWindow::between(5, 5)).validate().is_err());
        // Inverted: end < start.
        assert!(with_window(TimeWindow::between(7, 3)).validate().is_err());
        // Nonempty and open-ended windows pass.
        assert!(with_window(TimeWindow::between(5, 6)).validate().is_ok());
        assert!(with_window(TimeWindow::from(5)).validate().is_ok());
        // Every windowed primitive kind is covered by the same check.
        let empty = TimeWindow::between(2, 2);
        let windowed = vec![
            FaultPrimitive::DropLink {
                from: ProcessId::new(0),
                to: ProcessId::new(1),
                bidirectional: false,
                window: empty,
            },
            FaultPrimitive::DropProb {
                p: 0.1,
                window: empty,
            },
            FaultPrimitive::DelayJitter {
                extra_max: 1,
                window: empty,
            },
            FaultPrimitive::Duplicate {
                p: 0.1,
                echo_delay: 1,
                window: empty,
            },
            FaultPrimitive::Reorder {
                p: 0.1,
                max_swap: 1,
                window: empty,
            },
            FaultPrimitive::CrashWindow {
                process: ProcessId::new(0),
                window: empty,
            },
            FaultPrimitive::Partition {
                group_a: vec![ProcessId::new(0)],
                window: empty,
            },
        ];
        for fault in windowed {
            assert!(fault.window().is_some());
            let schedule = FaultSchedule {
                seed: 0,
                base_latency: 1,
                faults: vec![fault.clone()],
            };
            assert!(schedule.validate().is_err(), "{fault:?}");
        }
        // Windowless primitives report no window to check.
        assert!(FaultPrimitive::BurstLoss {
            period: 3,
            burst_len: 1
        }
        .window()
        .is_none());
        assert!(FaultPrimitive::ReplayRun {
            run: Run::empty(2, 1),
            ticks_per_round: 1
        }
        .window()
        .is_none());
    }

    #[test]
    fn diff_is_symmetric_on_swapped_primitives() {
        let burst = FaultPrimitive::BurstLoss {
            period: 5,
            burst_len: 1,
        };
        let drop = FaultPrimitive::DropProb {
            p: 0.5,
            window: TimeWindow::always(),
        };
        let a = FaultSchedule {
            seed: 1,
            base_latency: 1,
            faults: vec![burst.clone(), drop.clone()],
        };
        let b = FaultSchedule {
            seed: 1,
            base_latency: 1,
            faults: vec![drop, burst],
        };
        let forward = a.diff(&b);
        let backward = b.diff(&a);
        // Both positions differ in both directions: same entry count, and
        // every entry names the same fault slot.
        assert_eq!(forward.len(), 2, "{forward:?}");
        assert_eq!(forward.len(), backward.len());
        for (f, r) in forward.iter().zip(backward.iter()) {
            assert_eq!(f.split(':').next(), r.split(':').next(), "{f} vs {r}");
        }
    }

    #[test]
    fn every_fault_primitive_round_trips_through_json() {
        let mut run = Run::empty(2, 2);
        run.add_input(ProcessId::new(0));
        run.add_message(ProcessId::new(0), ProcessId::new(1), Round::new(1));
        let all_variants = vec![
            FaultPrimitive::DropLink {
                from: ProcessId::new(0),
                to: ProcessId::new(1),
                bidirectional: true,
                window: TimeWindow::between(0, 9),
            },
            FaultPrimitive::DropProb {
                p: 0.25,
                window: TimeWindow::always(),
            },
            FaultPrimitive::DelayJitter {
                extra_max: 4,
                window: TimeWindow::from(2),
            },
            FaultPrimitive::Duplicate {
                p: 0.5,
                echo_delay: 2,
                window: TimeWindow::always(),
            },
            FaultPrimitive::Reorder {
                p: 0.5,
                max_swap: 3,
                window: TimeWindow::between(1, 7),
            },
            FaultPrimitive::BurstLoss {
                period: 6,
                burst_len: 2,
            },
            FaultPrimitive::CrashWindow {
                process: ProcessId::new(1),
                window: TimeWindow::between(3, 5),
            },
            FaultPrimitive::Partition {
                group_a: vec![ProcessId::new(0)],
                window: TimeWindow::from(1),
            },
            FaultPrimitive::ReplayRun {
                run,
                ticks_per_round: 4,
            },
        ];
        let schedule = FaultSchedule {
            seed: 13,
            base_latency: 1,
            faults: all_variants,
        };
        let text = schedule.to_json();
        let back = FaultSchedule::from_json(&text).unwrap();
        assert_eq!(schedule, back);
        assert_eq!(text, back.to_json(), "serialization is deterministic");
        // The courier accepts the full-vocabulary schedule, and decisions
        // stay identical across the round trip.
        let mut a = ChaosCourier::new(schedule).unwrap();
        let mut b = ChaosCourier::new(back).unwrap();
        for seq in 0..40 {
            let e = event(0, 1, seq, seq);
            assert_eq!(a.fate(e), b.fate(e));
        }
    }

    #[test]
    fn chaos_execution_is_deterministic_end_to_end() {
        let g = Graph::complete(3).unwrap();
        let config = AsyncConfig::all_inputs(&g, 15).with_heartbeat(3);
        let proto = AsyncS::new(0.25);
        let schedule = FaultSchedule {
            seed: 77,
            base_latency: 1,
            faults: vec![
                FaultPrimitive::DropProb {
                    p: 0.3,
                    window: TimeWindow::always(),
                },
                FaultPrimitive::DelayJitter {
                    extra_max: 4,
                    window: TimeWindow::from(2),
                },
                FaultPrimitive::Duplicate {
                    p: 0.5,
                    echo_delay: 2,
                    window: TimeWindow::always(),
                },
            ],
        };
        let run = |schedule: &FaultSchedule| {
            let mut courier = ChaosCourier::new(schedule.clone()).unwrap();
            run_async(&proto, &g, &config, &tapes(3), &mut courier)
        };
        let a = run(&schedule);
        let b = run(&FaultSchedule::from_json(&schedule.to_json()).unwrap());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.duplicates_suppressed, b.duplicates_suppressed);
    }
}
