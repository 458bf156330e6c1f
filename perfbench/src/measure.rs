//! Timing, robust summaries, failure tallies and the printed result.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The median of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f` and returns its result with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Pauses for a millisecond after an entry-point call that spawned worker
/// threads. On the one CPU a run is pinned to, the next call could otherwise
/// spawn its worker before the last one has finished exiting, and peak
/// memory then sometimes counts both (atlas: 11.2 or 13.2 MiB).
pub fn settle() {
    std::thread::sleep(Duration::from_millis(1));
}

/// Seconds per call of a set-up that takes only microseconds: the median,
/// over `batches` batches, of a batch's wall time over its call count. One
/// batch repeats `build` until it has run for about `batch_s` seconds.
pub fn repeated_setup_s<T>(mut build: impl FnMut() -> T, batch_s: f64, batches: usize) -> f64 {
    // Calibrate the batch size once, on a warm call path.
    black_box(build());
    let mut calls = 1u64;
    loop {
        let (_, wall) = timed(|| {
            for _ in 0..calls {
                black_box(build());
            }
        });
        if wall >= batch_s / 4.0 || calls >= 1 << 30 {
            calls = ((calls as f64) * batch_s / wall.max(1e-9)).ceil().max(1.0) as u64;
            break;
        }
        calls *= 4;
    }
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let (_, wall) = timed(|| {
                for _ in 0..calls {
                    black_box(build());
                }
            });
            wall / calls as f64
        })
        .collect();
    median(&per_call)
}

/// A time budget: work continues while [`Budget::more`] says so.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    start: Instant,
    length: Duration,
    min_passes: usize,
}

impl Budget {
    /// A budget of `seconds`, but never fewer than `min_passes` passes.
    pub fn new(seconds: f64, min_passes: usize) -> Self {
        Budget {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds.max(0.0)),
            min_passes,
        }
    }

    /// Whether another pass should run after `done` passes.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_passes || self.start.elapsed() < self.length
    }
}

/// Counts attempted and failed operations (repetitions whose output check
/// failed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether its output check passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The result line: the tally and the metrics as one JSON object.
pub fn result_json(tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0, 5.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn a_failed_check_counts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.fail_frac(), 0.5);
        let json = result_json(t, &[Metric::new("x", 1.5, "s")]);
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
