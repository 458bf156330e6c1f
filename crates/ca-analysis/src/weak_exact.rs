//! Oracles for the exact analysis against §8's weak adversary,
//! [`crate::level_dp::weak_outcomes`]: the closed forms at `p = 0` (the
//! good run) and `p = 1` (every message lost), monotonicity in `p` with
//! `U ≤ ε`, agreement with Monte Carlo, and the §8 ratio past the strong
//! adversary's ceiling.

mod tests {
    use crate::level_dp::{run_outcomes, weak_outcomes, DpSpec};
    use ca_core::graph::Graph;
    use ca_core::protocol::Protocol;
    use ca_core::run::Run;
    use ca_protocols::{FixedThreshold, ProtocolS};
    use ca_sim::{simulate, SimConfig, WeakAdversary};

    fn specs() -> [DpSpec; 4] {
        [
            DpSpec::protocol_s(5),
            DpSpec::eager(3),
            DpSpec::message_validity(4),
            DpSpec::threshold(3),
        ]
    }

    fn small_graphs() -> [Graph; 3] {
        [
            Graph::complete(3).unwrap(),
            Graph::ring(4).unwrap(),
            Graph::star(4).unwrap(),
        ]
    }

    /// `weak_outcomes(p)` equals the exact outcome of `run` bit for bit,
    /// for every spec in [`specs`].
    fn assert_is_one_run(g: &Graph, n: u32, p: f64, run: &Run) {
        for spec in specs() {
            let out = weak_outcomes(g, n, &spec, p).unwrap();
            let want = run_outcomes(g, run, &spec).unwrap();
            assert_eq!(
                (out.ta, out.pa),
                (want.ta.to_f64(), want.pa.to_f64()),
                "{spec:?} n={n} p={p}"
            );
        }
    }

    #[test]
    fn zero_drop_matches_synchronous_exact() {
        // p = 0 is the good run: on two generals liveness = min(1, N/t); on
        // any graph the expectation is the good run's outcome.
        for (n, t) in [(4u32, 8u64), (10, 8), (6, 3)] {
            let k2 = Graph::complete(2).unwrap();
            let out = weak_outcomes(&k2, n, &DpSpec::protocol_s(t), 0.0).unwrap();
            let expect_live = (n as f64 / t as f64).min(1.0);
            assert!(
                (out.ta - expect_live).abs() < 1e-12,
                "n={n}, t={t}: {out:?}"
            );
        }
        for g in small_graphs() {
            for n in [0u32, 1, 4, 9] {
                assert_is_one_run(&g, n, 0.0, &Run::good(&g, n));
            }
        }
    }

    #[test]
    fn total_loss_leaves_leader_alone() {
        // p = 1: nothing is ever delivered, so the leader attacks iff
        // rfire ≤ 1 and nobody else does: PA = ε, liveness 0. On any graph
        // the expectation is the outcome of the run that keeps only inputs.
        let k2 = Graph::complete(2).unwrap();
        let out = weak_outcomes(&k2, 8, &DpSpec::protocol_s(4), 1.0).unwrap();
        assert_eq!(out.ta, 0.0);
        assert!((out.pa - 0.25).abs() < 1e-12, "{out:?}");
        for g in small_graphs() {
            for n in [0u32, 1, 4, 9] {
                let mut silent = Run::empty(g.len(), n);
                for i in g.vertices() {
                    silent.add_input(i);
                }
                assert_is_one_run(&g, n, 1.0, &silent);
            }
        }
    }

    #[test]
    fn monotone_in_drop_probability() {
        // Fewer deliveries never raise a level, so liveness falls as p
        // grows; every run has Pr[PA|R] ≤ ε (Theorem 6.7), so U ≤ ε too.
        let t = 6u64;
        for (g, n) in [
            (Graph::complete(2), 10),
            (Graph::complete(3), 10),
            (Graph::star(4), 4),
        ] {
            let g = g.unwrap();
            let mut last = f64::INFINITY;
            for p in [0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0] {
                let out = weak_outcomes(&g, n, &DpSpec::protocol_s(t), p).unwrap();
                assert!(out.ta <= last + 1e-12, "liveness rose at p={p}: {out:?}");
                assert!(out.pa <= 1.0 / t as f64 + 1e-12, "U > ε at p={p}: {out:?}");
                last = out.ta;
            }
        }
    }

    /// `weak_outcomes` against `simulate` under the iid weak adversary, at z = 4.
    fn assert_matches_monte_carlo<P: Protocol + Sync>(g: &Graph, spec: DpSpec, proto: &P, p: f64) {
        let n = 8;
        let exact = weak_outcomes(g, n, &spec, p).unwrap();
        let report = simulate(
            proto,
            g,
            &WeakAdversary::iid(g, n, p),
            SimConfig::new(20_000, 77),
        );
        assert!(
            report.liveness().consistent_with_z(exact.ta, 4.0),
            "{spec:?}: exact L {} vs MC {}",
            exact.ta,
            report.liveness()
        );
        assert!(
            report.disagreement().consistent_with_z(exact.pa, 4.0),
            "{spec:?}: exact U {} vs MC {}",
            exact.pa,
            report.disagreement()
        );
    }

    #[test]
    fn matches_monte_carlo() {
        let k2 = Graph::complete(2).unwrap();
        assert_matches_monte_carlo(&k2, DpSpec::protocol_s(8), &ProtocolS::new(0.125), 0.3);
        let k3 = Graph::complete(3).unwrap();
        assert_matches_monte_carlo(&k3, DpSpec::eager(4), &ProtocolS::eager(0.25), 0.5);
        let ring = Graph::ring(4).unwrap();
        assert_matches_monte_carlo(&ring, DpSpec::threshold(3), &FixedThreshold::new(3), 0.2);
    }

    #[test]
    fn ratio_blows_past_the_strong_ceiling() {
        // The §8 claim in exact form: at moderate N and small p, L/U far
        // exceeds the strong-adversary ceiling N.
        let n = 24u32;
        let k2 = Graph::complete(2).unwrap();
        let out = weak_outcomes(&k2, n, &DpSpec::protocol_s(12), 0.05).unwrap();
        assert!(out.ta > 0.999, "{out:?}");
        assert!(out.pa < 1e-4, "{out:?}");
        let ratio = out.ta / out.pa.max(1e-300);
        assert!(ratio > 10.0 * n as f64, "ratio {ratio} vs ceiling {n}");
    }
}
