//! The engines behind the `ca` CLI's measured reports: `ca bench` timings
//! and `ca profile` engine metrics.

#![warn(missing_docs)]

pub mod bench;
pub mod profile;
