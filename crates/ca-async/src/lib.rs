//! Asynchronous coordinated attack.
//!
//! The paper's conclusions (§8) state: *"While our results are stated in a
//! synchronous model, it seems clear that they can be extended to an
//! asynchronous model."* This crate builds that extension: an event-driven
//! model where processes react to message deliveries (no lockstep rounds),
//! an adversary — the [`courier::Courier`] — that decides, per message,
//! whether it is destroyed and when it arrives, and a hard real-time
//! deadline `T` at which every process must output.
//!
//! The asynchronous port of Protocol S ([`protocol::AsyncS`]) runs the same
//! Figure 1 counting automaton, re-broadcasting its state whenever the state
//! changes. Because the automaton (not the round structure) carries the
//! safety argument, the paper's guarantees survive verbatim:
//!
//! * `U ≤ ε` against **any** courier — counts still spread by at most one,
//!   so only `rfire` landing in a unit window splits the generals;
//! * liveness is `min(1, ε·C)` where `C` is the minimum count reached by the
//!   deadline — now a function of latency and losses rather than rounds.
//!
//! The extension experiment `X1` (see `experiments`) verifies both claims
//! against cut, lossy, and slow couriers, exactly and by Monte Carlo.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod chaos;
pub mod courier;
pub mod engine;
pub mod exact;
pub mod experiments;
pub mod hunt;
pub mod protocol;
pub mod serve;
pub mod supervisor;

pub use campaign::{run_campaign, CampaignConfig, ChaosReport, OracleVerdicts, ScheduleResult};
pub use chaos::{ChaosCourier, FaultPrimitive, FaultSchedule, TimeWindow};
pub use courier::{Courier, CutCourier, Fate, RandomDropCourier, ReliableCourier, SendEvent};
pub use engine::{
    run_async, try_run_async, AsyncConfig, AsyncOutcome, AsyncProtocol, HeartbeatPolicy,
};
pub use exact::async_s_outcomes;
pub use hunt::{
    induced_run, replay_schedule, run_hunt, CandidateResult, CandidateStatus, HuntConfig,
    HuntReport,
};
pub use protocol::AsyncS;
pub use serve::{
    compare_reports, run_serve, Arrival, CourierSpec, Log2Hist, ServeConfig, ServeReport,
    ServeTotals, ShardStats,
};
pub use supervisor::{supervise, Progress, ShardRun, SuperviseOutcome};
