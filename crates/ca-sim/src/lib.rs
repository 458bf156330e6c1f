//! Simulation substrate: adversary strategies, Monte Carlo, statistics.
//!
//! * [`strategy`] — run samplers: fixed runs (oblivious strong adversary),
//!   the weak probabilistic adversary of Section 8, random-run search,
//!   crash-stop injection, and the structured cut families that contain the
//!   worst cases.
//! * [`adaptive`] — round-by-round adaptive adversaries and their collapse
//!   to distributions over runs (footnote 3's regime).
//! * [`chaos`] — generic chaos-campaign machinery: deterministic seed
//!   derivation, order-preserving parallel map, and delta-debugging
//!   (`ddmin`) shrinking of violating inputs.
//! * [`monte_carlo`] — parallel, seed-deterministic estimation of
//!   `Pr[TA|R]`, `Pr[PA|R]`, and per-process decision probabilities.
//! * [`stats`] — Bernoulli estimates with Wilson intervals.
//! * [`trace`] — human-readable execution traces and run diagrams.
//! * [`weak`] — the weak-adversary family for big-graph sweeps: per-link iid
//!   and Gilbert–Elliott bursty loss, with dense and edge-keyed sampling
//!   paths pinned to the same coin draws.
//! * [`wire`] — message wire-size accounting (a counting serde serializer).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod chaos;
pub mod monte_carlo;
pub mod stats;
pub mod strategy;
pub mod trace;
pub mod weak;
pub mod wire;

pub use chaos::{ddmin, mix64, parallel_map, resolve_workers};
pub use monte_carlo::{
    simulate, simulate_scalar, simulate_sliced, worst_disagreement, SimConfig, SimReport,
};
pub use stats::{BernoulliEstimate, RunningStats};
pub use strategy::{
    crash_family, cut_family, single_drop_family, FixedRun, RandomRun, RunSampler, SlicedSampler,
};
pub use weak::{LossModel, WeakAdversary};
