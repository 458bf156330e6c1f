//! Generic chaos-campaign machinery: deterministic fan-out and shrinking.
//!
//! The chaos harness (in `ca-async`) samples many fault schedules, runs each
//! against the engine's invariant oracles, and shrinks any violating
//! schedule to a minimal counterexample. The protocol-agnostic pieces live
//! here:
//!
//! * [`mix64`] — SplitMix64 seed derivation, so every sampled schedule (and
//!   every per-fault decision inside one) is a pure function of
//!   `(base seed, index)`, independent of thread scheduling.
//! * [`parallel_map`] — a deterministic parallel map: results come back in
//!   input order regardless of which worker computed them. It is the
//!   workspace's one compute fan-out: Monte Carlo, sweeps, enumeration,
//!   chaos campaigns, hunts and serve shards all spawn their workers
//!   through it, and it carries the caller's [`ca_obs::capture`] into
//!   every worker.
//! * [`ddmin`] — Zeller-style delta debugging over an item list, used to
//!   strip a violating schedule down to the faults that matter.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// SplitMix64: derives a well-mixed child seed from `(seed, index)`.
///
/// Children of distinct indices are decorrelated even for adjacent indices,
/// which is what lets each fault primitive in a schedule draw its randomness
/// independently of the others' presence — a prerequisite for shrinking
/// (removing fault `k` must not reshuffle fault `j`'s coin flips).
pub fn mix64(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolves a requested worker count into an actual one.
///
/// A positive request wins unchanged. A request of 0 ("pick for me") defers
/// first to the `CA_THREADS` environment variable — which is how
/// `ca profile --threads` pins the whole process, including nested
/// `parallel_map` fan-out, to a fixed width — and then to the machine's
/// available parallelism.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(var) = std::env::var("CA_THREADS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to `0..count` on `workers` threads (0 = available
/// parallelism, honoring `CA_THREADS` — see [`resolve_workers`]), returning
/// results in index order.
///
/// Work is handed out by a shared counter, but the output slot is fixed by
/// the index, so the result is identical to the serial map whenever `f` is a
/// pure function of its index. Every worker records into the caller's
/// [`ca_obs::capture`], so metrics recorded in `f` reach the caller
/// whichever thread ran it.
///
/// # Panics
///
/// Panics if a worker panics.
pub fn parallel_map<R, F>(count: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = resolve_workers(workers).min(count.max(1));

    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..count).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let capture = ca_obs::Capture::current();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                capture.install(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= count {
                        break;
                    }
                    let r = f(k);
                    results.lock().expect("results lock poisoned")[k] = Some(r);
                })
            });
        }
    });

    results
        .into_inner()
        .expect("results lock poisoned")
        .into_iter()
        .map(|r| r.expect("every index computed"))
        .collect()
}

/// Delta debugging (ddmin): shrinks `items` to a subset that still satisfies
/// `test`, minimal in the sense that removing any single remaining item
/// makes `test` fail (1-minimality).
///
/// `test` must hold on the full input; it is the "still reproduces the
/// violation" predicate. The result preserves the relative order of the
/// kept items. `test` is invoked O(n²) times in the worst case.
///
/// # Panics
///
/// Panics if `test(items)` is false — shrinking an input that does not
/// reproduce is a caller bug.
pub fn ddmin<T: Clone>(items: &[T], mut test: impl FnMut(&[T]) -> bool) -> Vec<T> {
    assert!(test(items), "ddmin input must satisfy the predicate");
    let mut current: Vec<T> = items.to_vec();
    let mut granularity = 2usize;

    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;

        // Try removing one chunk at a time (test on the complement).
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let complement: Vec<T> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            if !complement.is_empty() && test(&complement) {
                current = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }

        if !reduced {
            if chunk <= 1 {
                break; // 1-minimal: no single item can be removed.
            }
            granularity = (granularity * 2).min(current.len());
        }
    }

    // A singleton might still be removable if the empty subset reproduces.
    if current.len() == 1 && test(&[]) {
        current.clear();
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_decorrelates_indices_and_seeds() {
        assert_ne!(mix64(1, 0), mix64(1, 1));
        assert_ne!(mix64(1, 0), mix64(2, 0));
        assert_eq!(mix64(7, 3), mix64(7, 3));
    }

    #[test]
    fn parallel_map_is_order_preserving_and_thread_count_independent() {
        let serial = parallel_map(37, 1, |k| k * k);
        let parallel = parallel_map(37, 4, |k| k * k);
        assert_eq!(serial, parallel);
        assert_eq!(serial[6], 36);
        assert_eq!(parallel_map::<usize, _>(0, 4, |k| k), Vec::<usize>::new());
    }

    #[test]
    fn workers_record_into_the_callers_capture() {
        use ca_obs::CounterId::SimTrials;
        let tally = |workers| {
            let (_, snap) = ca_obs::capture(|| {
                parallel_map(37, workers, |k| {
                    let obs = ca_obs::Metrics::new();
                    obs.add(SimTrials, k as u64);
                    obs.flush();
                })
            });
            snap.counter(SimTrials)
        };
        let serial = if ca_obs::ENABLED { (0..37).sum() } else { 0 };
        assert_eq!(tally(1), serial);
        assert_eq!(tally(4), serial);
    }

    #[test]
    fn ddmin_finds_a_planted_minimal_pair() {
        // The violation needs both 3 and 7 to be present.
        let items: Vec<u32> = (0..20).collect();
        let shrunk = ddmin(&items, |s| s.contains(&3) && s.contains(&7));
        assert_eq!(shrunk, vec![3, 7]);
    }

    #[test]
    fn ddmin_handles_single_and_no_culprits() {
        let items: Vec<u32> = (0..10).collect();
        let shrunk = ddmin(&items, |s| s.contains(&9));
        assert_eq!(shrunk, vec![9]);
        // A predicate true even on the empty set shrinks to nothing.
        let shrunk = ddmin(&items, |_| true);
        assert!(shrunk.is_empty());
    }

    #[test]
    fn ddmin_preserves_order_of_kept_items() {
        let items = vec![5u32, 1, 4, 2, 3];
        let shrunk = ddmin(&items, |s| s.iter().filter(|&&x| x % 2 == 0).count() >= 2);
        assert_eq!(shrunk, vec![4, 2]);
    }

    #[test]
    #[should_panic(expected = "must satisfy the predicate")]
    fn ddmin_rejects_non_reproducing_input() {
        ddmin(&[1u32, 2, 3], |s| s.contains(&99));
    }
}
