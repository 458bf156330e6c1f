//! Couriers: the asynchronous adversary.
//!
//! In the synchronous model the adversary is a run — a set of delivered
//! message slots. Asynchronously the adversary decides, per sent message,
//! whether it is destroyed and at what (virtual) time it arrives. Like the
//! paper's strong adversary it sees message *metadata* (sender, receiver,
//! send time, sequence number) but never message contents — so it cannot
//! learn `rfire`.

use ca_core::ids::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Virtual time (integer ticks).
pub type Time = u64;

/// Metadata of one sent message — all the adversary may see.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendEvent {
    /// Sending process.
    pub from: ProcessId,
    /// Receiving process.
    pub to: ProcessId,
    /// Virtual time of the send.
    pub sent_at: Time,
    /// Global sequence number of the send (unique, increasing).
    pub seq: u64,
}

/// The adversary's decision for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fate {
    /// The message is destroyed.
    Destroy,
    /// The message arrives at the given time (must be strictly after the send).
    Deliver(Time),
}

/// An asynchronous adversary: decides the fate of every sent message.
///
/// Implementations may be stateful (adaptive in metadata) but never see
/// message contents.
pub trait Courier {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Decides the fate of one message.
    fn fate(&mut self, event: SendEvent) -> Fate;

    /// Decides *all* fates of one send. The default forwards to
    /// [`Courier::fate`] — exactly one fate per send. Duplicating couriers
    /// override this to push several fates (each scheduled copy is delivered
    /// or destroyed independently; the engine's sequence-number dedup lets
    /// at most one copy through). Pushing nothing is equivalent to
    /// [`Fate::Destroy`].
    fn fates(&mut self, event: SendEvent, out: &mut Vec<Fate>) {
        out.push(self.fate(event));
    }
}

/// Delivers everything with a fixed latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableCourier {
    latency: Time,
}

impl ReliableCourier {
    /// Creates a courier with the given fixed latency (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0` (delivery must be after the send).
    pub fn new(latency: Time) -> Self {
        assert!(latency >= 1, "latency must be at least 1 tick");
        ReliableCourier { latency }
    }
}

impl Courier for ReliableCourier {
    fn name(&self) -> &'static str {
        "reliable"
    }

    fn fate(&mut self, event: SendEvent) -> Fate {
        Fate::Deliver(event.sent_at + self.latency)
    }
}

/// Delivers with fixed latency until a cut time, then destroys everything —
/// the asynchronous analogue of the prefix-cut run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutCourier {
    latency: Time,
    cut_at: Time,
}

impl CutCourier {
    /// Creates a courier that destroys every message sent at or after `cut_at`.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`.
    pub fn new(latency: Time, cut_at: Time) -> Self {
        assert!(latency >= 1, "latency must be at least 1 tick");
        CutCourier { latency, cut_at }
    }
}

impl Courier for CutCourier {
    fn name(&self) -> &'static str {
        "cut"
    }

    fn fate(&mut self, event: SendEvent) -> Fate {
        if event.sent_at >= self.cut_at {
            Fate::Destroy
        } else {
            Fate::Deliver(event.sent_at + self.latency)
        }
    }
}

/// The weak adversary, asynchronously: destroys each message independently
/// with probability `p`, otherwise delivers with latency uniform in
/// `[min_latency, max_latency]`. Deterministic given its seed and the
/// sequence of send events.
#[derive(Clone, Debug)]
pub struct RandomDropCourier {
    p: f64,
    min_latency: Time,
    max_latency: Time,
    rng: StdRng,
}

impl RandomDropCourier {
    /// Creates the courier.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0,1]` or the latency range is empty or starts at 0.
    pub fn new(p: f64, min_latency: Time, max_latency: Time, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        assert!(
            1 <= min_latency && min_latency <= max_latency,
            "latency range must be nonempty and start at ≥ 1"
        );
        RandomDropCourier {
            p,
            min_latency,
            max_latency,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Courier for RandomDropCourier {
    fn name(&self) -> &'static str {
        "random-drop"
    }

    fn fate(&mut self, event: SendEvent) -> Fate {
        if self.p > 0.0 && self.rng.gen_bool(self.p) {
            Fate::Destroy
        } else {
            let latency = self.rng.gen_range(self.min_latency..=self.max_latency);
            Fate::Deliver(event.sent_at + latency)
        }
    }
}

/// Destroys every message: the total-silence adversary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SilenceCourier;

impl Courier for SilenceCourier {
    fn name(&self) -> &'static str {
        "silence"
    }

    fn fate(&mut self, _event: SendEvent) -> Fate {
        Fate::Destroy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sent_at: Time, seq: u64) -> SendEvent {
        SendEvent {
            from: ProcessId::new(0),
            to: ProcessId::new(1),
            sent_at,
            seq,
        }
    }

    #[test]
    fn reliable_adds_latency() {
        let mut c = ReliableCourier::new(3);
        assert_eq!(c.fate(ev(5, 0)), Fate::Deliver(8));
        assert_eq!(c.name(), "reliable");
    }

    #[test]
    #[should_panic(expected = "at least 1 tick")]
    fn zero_latency_rejected() {
        ReliableCourier::new(0);
    }

    #[test]
    fn cut_destroys_after_cut_time() {
        let mut c = CutCourier::new(1, 10);
        assert_eq!(c.fate(ev(9, 0)), Fate::Deliver(10));
        assert_eq!(c.fate(ev(10, 1)), Fate::Destroy);
        assert_eq!(c.fate(ev(11, 2)), Fate::Destroy);
    }

    #[test]
    fn random_drop_is_seed_deterministic() {
        let run = |seed| {
            let mut c = RandomDropCourier::new(0.5, 1, 4, seed);
            (0..20).map(|s| c.fate(ev(s, s))).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds diverge somewhere");
    }

    #[test]
    fn random_drop_extremes() {
        let mut never = RandomDropCourier::new(0.0, 2, 2, 1);
        assert_eq!(never.fate(ev(1, 0)), Fate::Deliver(3));
        let mut always = RandomDropCourier::new(1.0, 1, 1, 1);
        assert_eq!(always.fate(ev(1, 0)), Fate::Destroy);
    }

    #[test]
    fn silence_destroys_everything() {
        let mut c = SilenceCourier;
        for s in 0..5 {
            assert_eq!(c.fate(ev(s, s)), Fate::Destroy);
        }
    }
}
