//! Differential oracle for the bit-sliced Monte Carlo engine.
//!
//! The sliced path (`simulate_sliced`) promises **byte-identical** reports
//! to the scalar oracle (`simulate_scalar`) for the same `(seed, trials)` —
//! not statistically close, equal. These tests hold it to that over random
//! runs, protocols (all Protocol S validity/slack variants plus the
//! fixed-threshold baseline), samplers, trial counts that cross lane-group
//! boundaries, and the `bits == 24` enumeration-boundary run shape.

use coordinated_attack::prelude::*;
use coordinated_attack::sim::{RandomRun, RunSampler, SlicedSampler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts the full contract for one instance: the sliced path engages and
/// its report equals the scalar oracle's, and the public `simulate`
/// dispatcher returns that same report.
fn assert_paths_agree<P, S>(label: &str, proto: &P, g: &Graph, sampler: &S, cfg: SimConfig)
where
    P: Protocol + Sync,
    S: RunSampler,
{
    let sliced = simulate_sliced(proto, g, sampler, cfg)
        .unwrap_or_else(|| panic!("{label}: sliced path must engage"));
    let scalar = simulate_scalar(proto, g, sampler, cfg);
    assert_eq!(sliced, scalar, "{label}: sliced report differs from oracle");
    assert_eq!(
        simulate(proto, g, sampler, cfg),
        scalar,
        "{label}: dispatcher disagrees with the oracle"
    );
}

/// Dispatches a protocol choice to [`assert_paths_agree`]. All Protocol S
/// variants exercise `j_bits = 64` (leader rfire draw); the threshold
/// baseline exercises `j_bits = 0` (no tape at all).
fn check_protocols<S: RunSampler>(choice: u8, g: &Graph, sampler: &S, cfg: SimConfig) {
    match choice {
        0 => assert_paths_agree("S", &ProtocolS::new(0.2), g, sampler, cfg),
        1 => assert_paths_agree(
            "S/msg-validity",
            &ProtocolS::with_message_validity(0.2),
            g,
            sampler,
            cfg,
        ),
        2 => assert_paths_agree("S/eager", &ProtocolS::eager(0.2), g, sampler, cfg),
        _ => assert_paths_agree(
            "fixed-threshold",
            &FixedThreshold::new(u32::from(choice) - 2),
            g,
            sampler,
            cfg,
        ),
    }
}

/// A deterministic random thinning of the good run: inputs kept with
/// probability 3/4, delivery slots with probability 3/5.
fn thin_run(g: &Graph, n: u32, seed: u64) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut run = Run::good(g, n);
    for i in g.vertices() {
        if !rng.gen_bool(0.75) {
            run.remove_input(i);
        }
    }
    let slots: Vec<_> = run.messages().collect();
    for s in slots {
        if !rng.gen_bool(0.6) {
            run.remove_message(s.from, s.to, s.round);
        }
    }
    run
}

/// iid loss over an arbitrary base run: one `gen_bool(p)` per base slot in
/// canonical order. That is the `IidDrop` contract, which `WeakAdversary`
/// meets over the good run only.
struct IidOver {
    base: Run,
    p: f64,
}

impl RunSampler for IidOver {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Run {
        let mut run = self.base.clone();
        for s in self.base.messages() {
            if rng.gen_bool(self.p) {
                run.remove_message(s.from, s.to, s.round);
            }
        }
        run
    }

    fn sliced(&self) -> Option<SlicedSampler<'_>> {
        Some(SlicedSampler::IidDrop {
            base: &self.base,
            p: self.p,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The main differential sweep: random complete graphs, horizons, base
    /// runs, protocol variants, samplers, and trial counts that straddle the
    /// 64-lane group width.
    #[test]
    fn sliced_reports_equal_scalar_reports(
        m in 2usize..=4,
        n in 1u32..=6,
        run_seed in any::<u64>(),
        mix in any::<u64>(),
        trials in 65u64..=200,
        seed in any::<u64>(),
    ) {
        // The shim's tuple strategies stop at 6 elements, so the discrete
        // choices ride in one word.
        let proto_choice = (mix % 7) as u8;
        let sampler_choice = ((mix >> 8) % 3) as u8;
        let drop_pct = (mix >> 16) % 101;
        let g = Graph::complete(m).expect("graph");
        let base = thin_run(&g, n, run_seed);
        let cfg = SimConfig { trials, seed, threads: 2 };
        let p = drop_pct as f64 / 100.0;
        match sampler_choice {
            0 => check_protocols(proto_choice, &g, &FixedRun::new(base), cfg),
            1 => check_protocols(proto_choice, &g, &WeakAdversary::iid(&g, n, p), cfg),
            _ => check_protocols(proto_choice, &g, &IidOver { base, p }, cfg),
        }
    }

    /// The `bits == 24` enumeration boundary: `m = 2, n = 11` gives exactly
    /// 2 input bits + 22 slot bits, the largest shape `try_enumerate_all`
    /// accepts. Runs are built directly from a 24-bit mask (never via
    /// enumeration — 2^24 runs would not fit in memory).
    #[test]
    fn boundary_runs_at_24_bits_agree(
        mask in any::<u32>(),
        proto_is_s in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = 11u32;
        let g = Graph::complete(2).expect("graph");
        let mut run = Run::empty(2, n);
        for (b, i) in g.vertices().enumerate() {
            if mask & (1 << b) != 0 {
                run.add_input(i);
            }
        }
        for (b, s) in Run::good(&g, n).messages().enumerate() {
            if mask & (1 << (b + 2)) != 0 {
                run.add_message(s.from, s.to, s.round);
            }
        }
        let cfg = SimConfig { trials: 130, seed, threads: 2 };
        let sampler = FixedRun::new(run);
        if proto_is_s {
            assert_paths_agree("S@24-bit", &ProtocolS::new(0.1), &g, &sampler, cfg);
        } else {
            assert_paths_agree("θ@24-bit", &FixedThreshold::new(6), &g, &sampler, cfg);
        }
    }
}

#[test]
fn dispatcher_falls_back_for_unsupported_combinations() {
    let g = Graph::complete(2).expect("graph");
    let cfg = SimConfig::new(100, 7);
    let s = ProtocolS::new(0.25);
    // Input-randomizing sampler: no sliced description.
    let rr = RandomRun::new(g.clone(), 4, 0.8, 0.7);
    assert!(simulate_sliced(&s, &g, &rr, cfg).is_none());
    // Non-counting protocol: no sliced spec.
    let drop = WeakAdversary::iid(&g, 4, 0.3);
    assert!(simulate_sliced(&ProtocolA::new(4), &g, &drop, cfg).is_none());
    // The dispatcher still answers via the scalar path, and its report is
    // the scalar report.
    assert_eq!(
        simulate(&ProtocolA::new(4), &g, &drop, cfg),
        simulate_scalar(&ProtocolA::new(4), &g, &drop, cfg)
    );
}

#[test]
fn sliced_reports_are_thread_count_invariant_and_match_the_oracle() {
    // Thread-count byte-identity for the sliced path, mirroring
    // tests/determinism.rs, plus cross-path equality at every width.
    let g = Graph::complete(3).expect("graph");
    let proto = ProtocolS::new(0.125);
    let sampler = WeakAdversary::iid(&g, 6, 0.3);
    let base_cfg = SimConfig {
        trials: 600,
        seed: 31,
        threads: 1,
    };
    let oracle = simulate_scalar(&proto, &g, &sampler, base_cfg);
    for threads in [1usize, 2, 8] {
        let cfg = SimConfig {
            threads,
            ..base_cfg
        };
        let report = simulate_sliced(&proto, &g, &sampler, cfg).expect("sliced path must engage");
        assert_eq!(
            report, oracle,
            "sliced report at {threads} threads differs from the serial scalar oracle"
        );
    }
}
