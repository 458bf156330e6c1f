//! Differential oracle for the level-vector DP.
//!
//! The DP (`ca_analysis::level_dp`) promises **exact** agreement — equal
//! rationals, not statistically close — with three independent oracles:
//!
//! * per fixed run, the executing closed form below (`ProtocolS` run through
//!   the generic engine, its final counts integrated over `rfire`) and (for
//!   power-of-two `t`) exhaustive enumeration of real `GridS` executions
//!   over every leader tape — the discretization is exact when `t | 2^b`;
//! * per fixed run, the deterministic `FixedThreshold` protocol executed
//!   outright (its outcome distribution is an indicator);
//! * over the whole run space, `worst_case_by_enumeration` — every input
//!   subset × delivery pattern at `bits ≤ 24`, the strongest adversary the
//!   enumeration wall permits.
//!
//! The per-run cases cover every kind of run the library scores: thinnings
//! of the good run, `WeakAdversary` samples, and the induced runs of sampled
//! chaos schedules that the hunt ranks. Past the wall, enumeration must
//! refuse with its typed error while the sweep keeps answering (the point
//! of the DP) — pinned by the boundary test.

use coordinated_attack::analysis::enumeration::enumerate_leader_tapes;
use coordinated_attack::analysis::level_dp::{self, DpSpec};
use coordinated_attack::asynchronous::campaign::sample_schedule;
use coordinated_attack::asynchronous::induced_run;
use coordinated_attack::core::tape::BitTape;
use coordinated_attack::prelude::*;
use coordinated_attack::sim::RunSampler;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The executing closed form: runs `ProtocolS` itself through the generic
/// engine, reads each process's final count and token, and integrates
/// `rfire ~ U(0, t]` over the slack-generalized rule `count ≥ 1 ∧
/// count + slack ≥ rfire` (slack 0 is Protocol S, slack 1
/// `ProtocolS::eager`). Shares no code with `level_dp` or `DpSpec`.
fn executed_closed_form(g: &Graph, run: &Run, t: u64, slack: u32) -> ExactOutcome {
    let proto = ProtocolS::new(1.0 / t as f64);
    // Any tape will do: counts and token possession are rfire-independent.
    let tapes = TapeSet::from_tapes(
        (0..g.len())
            .map(|_| BitTape::from_words(vec![0x0123_4567_89AB_CDEF]))
            .collect(),
    );
    let ex = execute(&proto, g, run, &tapes);
    let t_rat = Rational::new(t as i128, 1);
    let clamp = |threshold: u32| Rational::from(threshold).min(t_rat) / t_rat;
    // TA is the least attack probability, or 0 once some process can never
    // attack; "some attack" is the greatest.
    let mut ta = Some(Rational::ONE);
    let mut some = Rational::ZERO;
    for i in g.vertices() {
        let state = ex.local(i).states.last().expect("final state");
        if state.token.is_some() && state.count >= 1 {
            let p = clamp(state.count + slack);
            some = some.max(p);
            ta = ta.map(|v| v.min(p));
        } else {
            ta = None;
        }
    }
    let ta = ta.unwrap_or(Rational::ZERO);
    ExactOutcome {
        ta,
        na: Rational::ONE - some,
        pa: some - ta,
    }
}

/// A deterministic random thinning of the good run: inputs kept with
/// probability 3/4, delivery slots with probability 3/5 (the same mix the
/// sliced-engine differential uses).
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

/// star4 led from a leaf (hub 1): its automorphisms move the leader.
fn leaf_led_star4() -> Graph {
    Graph::new(4, &[(1, 0), (1, 2), (1, 3)]).expect("graph")
}

/// The paw, triangle 0–1–2 with a pendant 3 on 2: swapping 0 and 1 moves
/// the leader.
fn paw() -> Graph {
    Graph::new(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).expect("graph")
}

/// A DP-eligible (graph, horizon) pair small enough for the run-space
/// enumeration oracle: `m + E·n ≤ 24` bits. The last two shapes have
/// automorphisms that move the leader, which the DP's quotient uses.
fn tiny_shape(choice: u8) -> (Graph, u32) {
    let n = u32::from(choice / 6);
    match choice % 6 {
        0 => (Graph::complete(2).expect("graph"), 1 + n % 6),
        1 => (Graph::complete(3).expect("graph"), 1 + n % 2),
        2 => (Graph::line(3).expect("graph"), 1 + n % 3),
        3 => (Graph::ring(4).expect("graph"), 1),
        4 => (leaf_led_star4(), 1 + n % 2),
        _ => (paw(), 1),
    }
}

/// One of the four DP-eligible firing rules.
fn spec_for(choice: u8, t: u64, theta: u32) -> DpSpec {
    match choice % 4 {
        0 => DpSpec::protocol_s(t),
        1 => DpSpec::message_validity(t),
        2 => DpSpec::eager(t),
        _ => DpSpec::threshold(theta),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The whole-run-space differential: the sweep's worst-case TA and PA
    /// must equal brute force over every enumerated run, for every firing
    /// rule, on shapes the 24-bit oracle can still reach.
    #[test]
    fn sweep_equals_run_enumeration_on_tiny_shapes(
        shape in any::<u8>(),
        spec_choice in any::<u8>(),
        t in 1u64..=8,
        theta in 1u32..=4,
    ) {
        let (g, n) = tiny_shape(shape);
        let spec = spec_for(spec_choice, t, theta);
        let report = level_dp::sweep(&g, n, &spec, &[n]).expect("DP-eligible");
        let (ta, pa) = level_dp::worst_case_by_enumeration(&g, n, &spec).expect("oracle");
        prop_assert_eq!(report.final_max_ta, ta, "max TA diverged");
        prop_assert_eq!(report.u_s, pa, "max PA diverged");
    }

    /// Per-run differential against the executing closed form, across the
    /// slack family (Protocol S and eager) on thinned runs.
    #[test]
    fn run_outcomes_equal_the_closed_form_on_thinned_runs(
        m in 2usize..=4,
        n in 1u32..=6,
        run_seed in any::<u64>(),
        t in 1u64..=9,
        slack in 0u32..=1,
    ) {
        let g = Graph::complete(m).expect("graph");
        let run = thin_run(&g, n, run_seed);
        let spec = if slack == 0 { DpSpec::protocol_s(t) } else { DpSpec::eager(t) };
        let dp = level_dp::run_outcomes(&g, &run, &spec).expect("eligible");
        prop_assert_eq!(dp, executed_closed_form(&g, &run, t, slack));
    }

    /// Per-run differential against enumerated **executions**: for
    /// power-of-two `t = 2^k`, `GridS` with a `2^k`-point firing grid is not
    /// an approximation — `t` divides the grid, so every threshold
    /// probability is exactly `count/t` and the enumerated distribution over
    /// all `2^k` leader tapes must equal the DP's rationals bit for bit.
    #[test]
    fn run_outcomes_equal_grid_tape_enumeration_at_power_of_two_t(
        m in 2usize..=3,
        n in 1u32..=5,
        run_seed in any::<u64>(),
        k in 1u32..=4,
    ) {
        let g = Graph::complete(m).expect("graph");
        let run = thin_run(&g, n, run_seed);
        let t = 1u64 << k;
        let dp = level_dp::run_outcomes(&g, &run, &DpSpec::protocol_s(t)).expect("eligible");
        let grid = GridS::new(1.0 / t as f64, k);
        let (oracle, _) = enumerate_leader_tapes(&grid, &g, &run, k);
        prop_assert_eq!(dp, oracle);
    }

    /// Per-run differential for the deterministic threshold rule: the DP's
    /// distribution must be the indicator of the executed outcome.
    #[test]
    fn threshold_outcomes_equal_the_executed_indicator(
        m in 2usize..=4,
        n in 1u32..=6,
        run_seed in any::<u64>(),
        theta in 1u32..=5,
    ) {
        let g = Graph::complete(m).expect("graph");
        let run = thin_run(&g, n, run_seed);
        let dp = level_dp::run_outcomes(&g, &run, &DpSpec::threshold(theta)).expect("eligible");
        let proto = FixedThreshold::new(theta);
        let tapes = TapeSet::from_tapes(vec![BitTape::from_words(vec![0]); m]);
        let ex = execute(&proto, &g, &run, &tapes);
        let (ta, na, pa) = match ex.outcome() {
            Outcome::TotalAttack => (Rational::ONE, Rational::ZERO, Rational::ZERO),
            Outcome::NoAttack => (Rational::ZERO, Rational::ONE, Rational::ZERO),
            Outcome::PartialAttack => (Rational::ZERO, Rational::ZERO, Rational::ONE),
        };
        prop_assert_eq!((dp.ta, dp.na, dp.pa), (ta, na, pa));
    }

    /// Sampler-driven runs (the Monte Carlo engine's run distribution, not
    /// just thinnings of the good run) against the executing closed form.
    #[test]
    fn run_outcomes_equal_the_closed_form_on_sampled_runs(
        n in 1u32..=6,
        drop_pct in 0u64..=100,
        sample_seed in any::<u64>(),
        t in 1u64..=9,
    ) {
        let g = Graph::complete(3).expect("graph");
        let sampler = WeakAdversary::iid(&g, n, drop_pct as f64 / 100.0);
        let run = sampler.sample(&mut StdRng::seed_from_u64(sample_seed));
        let dp = level_dp::run_outcomes(&g, &run, &DpSpec::protocol_s(t)).expect("eligible");
        prop_assert_eq!(dp, executed_closed_form(&g, &run, t, 0));
    }

    /// The runs the hunt ranks with `run_outcomes`: `induced_run` of a
    /// sampled chaos schedule (up to four faults in the horizon) on K2, K3,
    /// ring4 and line3, against the executing closed form. Schedules that
    /// fail validation induce no run.
    #[test]
    fn run_outcomes_equal_the_closed_form_on_induced_runs(
        shape in 0u8..4,
        rounds in 1u32..=8,
        schedule_seed in any::<u64>(),
        t in 1u64..=9,
    ) {
        let g = match shape {
            0 => Graph::complete(2),
            1 => Graph::complete(3),
            2 => Graph::ring(4),
            _ => Graph::line(3),
        }
        .expect("graph");
        let schedule = sample_schedule(schedule_seed, g.len(), u64::from(rounds), 4);
        if let Ok(run) = induced_run(&g, &schedule, rounds) {
            let dp = level_dp::run_outcomes(&g, &run, &DpSpec::protocol_s(t)).expect("eligible");
            prop_assert_eq!(dp, executed_closed_form(&g, &run, t, 0));
        }
    }
}

/// The exact boundary of the enumeration oracle, and the first step past it.
/// On `K2`, `n = 11` is the largest enumerable shape (`2 + 2·11 = 24`
/// bits); `n = 12` is 26 bits — `try_enumerate_all` must refuse with its
/// typed error while the sweep keeps answering, with the closed-form §8
/// values. The oracle cross-check runs at `n = 8` (`2^18` runs): same code
/// path as the wall, debug-build-friendly size.
#[test]
fn sweep_crosses_the_enumeration_wall_with_the_closed_form_values() {
    let g = Graph::complete(2).expect("graph");
    let spec = DpSpec::protocol_s(12);

    // Below the wall the oracle works and the sweep matches it.
    let below_wall = level_dp::sweep(&g, 8, &spec, &[8]).expect("sweep below the wall");
    let (ta, pa) = level_dp::worst_case_by_enumeration(&g, 8, &spec).expect("18 bits is legal");
    assert_eq!(below_wall.final_max_ta, ta);
    assert_eq!(below_wall.u_s, pa);

    // One round further: enumeration refuses, the DP answers.
    let err = Run::try_enumerate_all(&g, 12).expect_err("26 bits must refuse");
    assert!(
        err.to_string().contains("2^26 runs"),
        "guard names the size and unit: {err}"
    );
    assert!(level_dp::worst_case_by_enumeration(&g, 12, &spec).is_err());
    let past_wall = level_dp::sweep(&g, 12, &spec, &[12]).expect("sweep past the wall");
    // ML(good run) = N on K2, so liveness 1 arrives exactly at N = t = 12,
    // and the worst-case disagreement is ε = 1/12 (Theorems 6.7/6.8).
    assert_eq!(past_wall.first_certain_round, Some(12));
    assert_eq!(past_wall.final_max_ta, Rational::ONE);
    assert_eq!(past_wall.u_s, Rational::new(1, 12));
}

/// `weak_outcomes` against brute force: the sum of `Pr[R] · run_outcomes(R)`
/// over every run `R` in which all inputs arrive, where a run delivering `k`
/// of its `S` good-run slots has `Pr[R] = (1−p)^k · p^(S−k)`. Each shape is
/// enumerated once; per spec, outcomes are summed exactly per `k`, so every
/// `p` costs only a polynomial evaluation.
#[test]
fn weak_outcomes_equal_the_probability_weighted_run_sum() {
    let shapes = [
        (Graph::complete(2), 6),
        (Graph::complete(3), 2),
        (Graph::ring(4), 2),
        (Graph::star(4), 2),
        (Ok(leaf_led_star4()), 2),
        (Ok(paw()), 2),
        (Graph::line(3), 3),
    ];
    // Caps 2, 0, 8 and 1: every base clips on some shape, and none does
    // under message validity at t = 8.
    let specs = [
        DpSpec::protocol_s(3),
        DpSpec::eager(2),
        DpSpec::message_validity(8),
        DpSpec::threshold(2),
    ];
    for (g, n) in shapes {
        let g = g.expect("graph");
        let slots: Vec<_> = Run::good(&g, n).messages().collect();
        let runs: Vec<(usize, Run)> = (0u32..1 << slots.len())
            .map(|mask| {
                let mut run = Run::empty(g.len(), n);
                for i in g.vertices() {
                    run.add_input(i);
                }
                for (b, s) in slots.iter().enumerate() {
                    if mask >> b & 1 == 1 {
                        run.add_message(s.from, s.to, s.round);
                    }
                }
                (mask.count_ones() as usize, run)
            })
            .collect();
        for spec in specs {
            let mut by_k = vec![(Rational::ZERO, Rational::ZERO); slots.len() + 1];
            for (k, run) in &runs {
                let out = level_dp::run_outcomes(&g, run, &spec).expect("eligible");
                by_k[*k] = (by_k[*k].0 + out.ta, by_k[*k].1 + out.pa);
            }
            for p in [0.0f64, 0.1, 0.35, 1.0] {
                let (mut ta, mut pa) = (0.0, 0.0);
                for (k, (sum_ta, sum_pa)) in by_k.iter().enumerate() {
                    let w = (1.0 - p).powi(k as i32) * p.powi((slots.len() - k) as i32);
                    ta += w * sum_ta.to_f64();
                    pa += w * sum_pa.to_f64();
                }
                let dp = level_dp::weak_outcomes(&g, n, &spec, p).expect("eligible");
                assert!(
                    (dp.ta - ta).abs() <= 1e-12 && (dp.pa - pa).abs() <= 1e-12,
                    "{g:?} n={n} {spec:?} p={p}: DP {dp:?} vs brute force ({ta}, {pa})"
                );
            }
        }
    }
}
