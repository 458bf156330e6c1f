//! The engine behind the `ca` CLI's measured report: `ca profile`'s engine
//! metrics and, with `--timed`, per-section wall times.

#![warn(missing_docs)]

pub mod profile;
