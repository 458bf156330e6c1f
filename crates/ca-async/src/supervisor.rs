//! Shard supervision: panic recovery and stall detection for the serve
//! runtime.
//!
//! [`supervise`] fans a set of shards out over worker threads (via
//! [`ca_sim::chaos::parallel_map`], so shard results come back in index
//! order regardless of scheduling) and wraps every shard execution in a
//! panic boundary:
//!
//! * a shard that **panics** is restarted, up to a fixed attempt budget; the
//!   attempt number is passed back into the shard body so a deterministic
//!   workload re-runs identically (and a deterministically-panicking shard
//!   fails deterministically);
//! * a shard that exhausts its attempts is **drained**: its result slot is
//!   `None` and the panic message is preserved, so the caller can account
//!   for every instance the shard owned instead of silently dropping them;
//! * a shard that **stalls** (no progress ticks for longer than the
//!   configured wall-clock window) is flagged and reported on stderr. Safe
//!   Rust cannot kill a wedged thread, so stall detection is advisory: it
//!   never touches shard results, which keeps the aggregate report a pure
//!   function of `(scale, seed)`.
//!
//! Determinism contract: restart counts and panic messages are part of the
//! returned [`ShardRun`]s and are deterministic whenever the shard body is a
//! pure function of `(shard, attempt)`; the stall set is wall-clock-derived
//! and deliberately kept out of anything byte-stable.

use ca_sim::chaos::parallel_map;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A per-shard progress beacon: the shard body ticks it as it works, the
/// watchdog reads it to distinguish "slow" from "wedged".
#[derive(Debug, Default)]
pub struct Progress {
    ticks: AtomicU64,
    started: AtomicBool,
    finished: AtomicBool,
}

impl Progress {
    fn new() -> Self {
        Progress::default()
    }

    /// Records one unit of forward progress (e.g. one instance completed).
    #[inline]
    pub fn tick(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Total progress ticks recorded so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// The supervised result of one shard.
#[derive(Debug)]
pub struct ShardRun<R> {
    /// Shard index.
    pub shard: usize,
    /// The shard's result, or `None` when every attempt panicked (the shard
    /// was drained — the caller must account for its work explicitly).
    pub result: Option<R>,
    /// Restarts performed (0 = first attempt succeeded).
    pub restarts: u32,
    /// Message of the last panic, if any attempt panicked.
    pub panic: Option<String>,
}

/// Everything [`supervise`] observed.
#[derive(Debug)]
pub struct SuperviseOutcome<R> {
    /// Per-shard results, in shard index order.
    pub shards: Vec<ShardRun<R>>,
    /// Shards the watchdog flagged as stalled (advisory, wall-clock-derived;
    /// never part of byte-stable reports).
    pub stalled: Vec<usize>,
}

impl<R> SuperviseOutcome<R> {
    /// Total restarts across all shards.
    pub fn total_restarts(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.restarts)).sum()
    }
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `run(shard, attempt, progress)` for every shard on `threads` workers
/// (0 = available parallelism, honoring `CA_THREADS`), restarting panicked
/// shards up to `max_attempts` total attempts each.
///
/// When `stall_warn` is set, a watchdog thread flags (and warns on stderr
/// about) any started-but-unfinished shard whose progress beacon did not
/// move for at least that long. The flag is advisory only — see the module
/// docs.
///
/// # Panics
///
/// Panics if `max_attempts == 0`.
pub fn supervise<R, F>(
    shards: usize,
    threads: usize,
    max_attempts: u32,
    stall_warn: Option<Duration>,
    run: F,
) -> SuperviseOutcome<R>
where
    R: Send,
    F: Fn(usize, u32, &Progress) -> R + Sync,
{
    assert!(max_attempts >= 1, "at least one attempt per shard");
    let progress: Vec<Progress> = (0..shards).map(|_| Progress::new()).collect();
    let stalled_flags: Vec<AtomicBool> = (0..shards).map(|_| AtomicBool::new(false)).collect();
    let done = AtomicBool::new(false);

    let mut results: Vec<(Option<R>, u32, Option<String>)> = Vec::new();
    std::thread::scope(|scope| {
        let watchdog = stall_warn.map(|window| {
            let (progress, stalled_flags, done) = (&progress, &stalled_flags, &done);
            scope.spawn(move || {
                let poll = (window / 4)
                    .max(Duration::from_millis(5))
                    .min(Duration::from_millis(50));
                let mut last_seen: Vec<(u64, std::time::Instant)> = progress
                    .iter()
                    .map(|p| (p.ticks(), std::time::Instant::now()))
                    .collect();
                while !done.load(Ordering::Relaxed) {
                    // Unparked as soon as the shards finish, so the scope
                    // never waits out a poll interval.
                    std::thread::park_timeout(poll);
                    for (k, p) in progress.iter().enumerate() {
                        if !p.started.load(Ordering::Relaxed) || p.finished.load(Ordering::Relaxed)
                        {
                            last_seen[k] = (p.ticks(), std::time::Instant::now());
                            continue;
                        }
                        let now_ticks = p.ticks();
                        if now_ticks != last_seen[k].0 {
                            last_seen[k] = (now_ticks, std::time::Instant::now());
                        } else if last_seen[k].1.elapsed() >= window
                            && !stalled_flags[k].swap(true, Ordering::Relaxed)
                        {
                            eprintln!(
                                "warning: shard {k} made no progress for \
                                 {:?} (watchdog; advisory only)",
                                window
                            );
                        }
                    }
                }
            })
        });

        results = parallel_map(shards, threads, |shard| {
            progress[shard].started.store(true, Ordering::Relaxed);
            let mut restarts = 0u32;
            let mut last_panic: Option<String> = None;
            let mut result = None;
            for attempt in 0..max_attempts {
                match catch_unwind(AssertUnwindSafe(|| run(shard, attempt, &progress[shard]))) {
                    Ok(r) => {
                        restarts = attempt;
                        result = Some(r);
                        break;
                    }
                    Err(payload) => {
                        last_panic = Some(panic_message(payload));
                        restarts = attempt;
                    }
                }
            }
            if result.is_none() {
                // Every attempt panicked: restarts = attempts - 1.
                restarts = max_attempts - 1;
            }
            progress[shard].finished.store(true, Ordering::Relaxed);
            (result, restarts, last_panic)
        });
        done.store(true, Ordering::Relaxed);
        if let Some(watchdog) = watchdog {
            watchdog.thread().unpark();
        }
    });

    let shards_out = results
        .into_iter()
        .enumerate()
        .map(|(shard, (result, restarts, panic))| ShardRun {
            shard,
            result,
            restarts,
            panic,
        })
        .collect();
    let stalled = stalled_flags
        .iter()
        .enumerate()
        .filter(|(_, f)| f.load(Ordering::Relaxed))
        .map(|(k, _)| k)
        .collect();
    SuperviseOutcome {
        shards: shards_out,
        stalled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_shards_run_once_in_index_order() {
        let out = supervise(5, 2, 3, None, |shard, attempt, p| {
            p.tick();
            (shard, attempt)
        });
        assert_eq!(out.shards.len(), 5);
        for (k, s) in out.shards.iter().enumerate() {
            assert_eq!(s.shard, k);
            assert_eq!(s.result, Some((k, 0)), "first attempt succeeds");
            assert_eq!(s.restarts, 0);
            assert!(s.panic.is_none());
        }
        assert!(out.stalled.is_empty());
        assert_eq!(out.total_restarts(), 0);
    }

    #[test]
    fn panicked_shard_is_restarted_and_result_preserved() {
        let out = supervise(3, 2, 2, None, |shard, attempt, _p| {
            if shard == 1 && attempt == 0 {
                panic!("injected shard panic");
            }
            shard * 10 + attempt as usize
        });
        assert_eq!(out.shards[0].result, Some(0));
        assert_eq!(out.shards[0].restarts, 0);
        // Shard 1 panicked once, then succeeded on attempt 1.
        assert_eq!(out.shards[1].result, Some(11));
        assert_eq!(out.shards[1].restarts, 1);
        assert_eq!(out.shards[1].panic.as_deref(), Some("injected shard panic"));
        assert_eq!(out.shards[2].result, Some(20));
        assert_eq!(out.total_restarts(), 1);
    }

    #[test]
    fn deterministically_panicking_shard_is_drained() {
        let out = supervise(2, 1, 2, None, |shard, attempt, _p| {
            if shard == 0 {
                panic!("always broken (attempt {attempt})");
            }
            7usize
        });
        assert!(out.shards[0].result.is_none(), "drained");
        assert_eq!(out.shards[0].restarts, 1);
        assert_eq!(
            out.shards[0].panic.as_deref(),
            Some("always broken (attempt 1)")
        );
        assert_eq!(out.shards[1].result, Some(7));
    }

    #[test]
    fn watchdog_flags_a_stalled_shard_but_keeps_its_result() {
        // Shard 0 goes quiet for well past the stall window, then finishes;
        // shard 1 ticks and finishes promptly. Generous margins keep this
        // robust on slow machines.
        let out = supervise(
            2,
            2,
            1,
            Some(Duration::from_millis(40)),
            |shard, _attempt, p| {
                p.tick();
                if shard == 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                shard
            },
        );
        assert_eq!(out.shards[0].result, Some(0), "stall is advisory");
        assert_eq!(out.shards[1].result, Some(1));
        assert!(out.stalled.contains(&0), "stalled: {:?}", out.stalled);
        assert!(!out.stalled.contains(&1));
    }

    #[test]
    fn watchdog_releases_supervise_as_soon_as_shards_finish() {
        // Regression: the watchdog slept out its poll interval (50 ms under
        // a long window) after the last shard finished, and the scope
        // joined it, so every supervised run took at least that long.
        let fastest = (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                supervise(3, 2, 1, Some(Duration::from_secs(3600)), |shard, _, p| {
                    p.tick();
                    shard
                });
                start.elapsed()
            })
            .min()
            .expect("five calls");
        assert!(fastest < Duration::from_millis(25), "fastest {fastest:?}");
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_is_rejected() {
        supervise(1, 1, 0, None, |_, _, _| ());
    }
}
