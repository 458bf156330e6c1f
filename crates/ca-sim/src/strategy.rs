//! Strategies of the adversary: run samplers and structured run families.
//!
//! The strong adversary chooses a single worst-case run; the weak adversary
//! of Section 8 *samples* runs (each message destroyed independently with
//! probability `p`: [`crate::weak::WeakAdversary`]). Both fit one
//! abstraction: a [`RunSampler`] produces the run for each Monte Carlo
//! trial. Deterministic strategies are samplers that ignore the RNG;
//! families of candidate worst-case runs are provided for exhaustive search
//! ([`cut_family`], [`single_drop_family`]).

use ca_core::graph::Graph;
use ca_core::ids::Round;
use ca_core::run::{MsgSlot, Run};
use rand::Rng;
use std::fmt::Debug;

/// A source of runs, one per Monte Carlo trial.
pub trait RunSampler: Sync {
    /// Produces the run for one trial.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Run;

    /// Writes the run for one trial into `run`, overwriting whatever it
    /// held. Semantically identical to `*run = self.sample(rng)` — same run,
    /// same RNG draws in the same order — but implementations can reuse
    /// `run`'s buffers instead of allocating a fresh `Run` per trial. The
    /// Monte Carlo engine calls this with one scratch run per worker.
    fn sample_into<R: Rng + ?Sized>(&self, run: &mut Run, rng: &mut R) {
        *run = self.sample(rng);
    }

    /// [`RunSampler::sample_into`] reporting sampling counters (runs drawn,
    /// slots flipped) to an observability sink.
    ///
    /// Produces exactly the run and RNG draws of [`RunSampler::sample_into`];
    /// the default implementation records only the sample count, and
    /// randomized samplers override it to attribute their slot flips too.
    fn sample_into_observed<R: Rng + ?Sized>(
        &self,
        run: &mut Run,
        rng: &mut R,
        obs: &ca_obs::Metrics,
    ) {
        self.sample_into(run, rng);
        obs.inc(ca_obs::CounterId::RunSamples);
    }

    /// The constant run this sampler always produces, if any.
    ///
    /// Returning `Some` promises that [`RunSampler::sample`] returns a clone
    /// of exactly this run on every call **and never touches the RNG** — the
    /// Monte Carlo engine then skips the per-trial clone and hoists
    /// run-derived quantities (like `ML(R)`) out of the trial loop without
    /// changing any reported number. Samplers with any randomness must keep
    /// the default `None`.
    fn fixed_run(&self) -> Option<&Run> {
        None
    }

    /// This sampler's bit-sliced description, if it has one.
    ///
    /// Returning `Some` promises that the returned [`SlicedSampler`]
    /// reproduces [`RunSampler::sample`] *exactly*: the same per-trial run
    /// distribution from the same RNG draws in the same order (the
    /// per-variant contracts are on the enum). The Monte Carlo engine uses
    /// it to drive 64 trials per pass through the sliced executor without
    /// materializing a `Run` per trial; samplers that randomize inputs,
    /// adapt to history, or otherwise do not fit the base-run-plus-lane-mask
    /// shape must keep the default `None` (forcing the scalar path).
    fn sliced(&self) -> Option<SlicedSampler<'_>> {
        None
    }
}

/// A sampler's bit-sliced description: how the 64-lane engine reproduces
/// its per-trial runs as lane masks over one shared base run.
#[derive(Clone, Copy, Debug)]
pub enum SlicedSampler<'a> {
    /// Every trial executes exactly this run, with no RNG draws.
    Fixed(&'a Run),
    /// Every trial starts from `base` and destroys each of its delivery
    /// slots independently with probability `p`, drawing exactly one
    /// `gen_bool(p)` coin per slot in canonical `(from, to, round)` slot
    /// order — the iid draw-order contract of
    /// [`crate::weak::WeakAdversary`] over a good base run.
    IidDrop {
        /// The run trials start from.
        base: &'a Run,
        /// The per-slot destruction probability.
        p: f64,
    },
}

impl<'a> SlicedSampler<'a> {
    /// The base run every lane starts from.
    pub fn base_run(&self) -> &'a Run {
        match self {
            SlicedSampler::Fixed(run) => run,
            SlicedSampler::IidDrop { base, .. } => base,
        }
    }
}

/// Always the same run (a deterministic, oblivious adversary).
#[derive(Clone, Debug)]
pub struct FixedRun {
    run: Run,
}

impl FixedRun {
    /// Wraps a fixed run.
    pub fn new(run: Run) -> Self {
        FixedRun { run }
    }

    /// The wrapped run.
    pub fn run(&self) -> &Run {
        &self.run
    }
}

impl RunSampler for FixedRun {
    fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Run {
        self.run.clone()
    }

    fn sample_into<R: Rng + ?Sized>(&self, run: &mut Run, _rng: &mut R) {
        run.clone_from(&self.run);
    }

    fn fixed_run(&self) -> Option<&Run> {
        Some(&self.run)
    }

    fn sliced(&self) -> Option<SlicedSampler<'_>> {
        Some(SlicedSampler::Fixed(&self.run))
    }
}

/// A fully random adversary: inputs kept with probability `input_keep`,
/// messages kept with probability `msg_keep`. Used for randomized search
/// over the whole run space.
#[derive(Clone, Debug)]
pub struct RandomRun {
    graph: Graph,
    base: Run,
    /// The good run's slots in canonical order, cached so each trial draws
    /// its coins over a flat list instead of re-walking the bit matrix.
    slots: Vec<MsgSlot>,
    input_keep: f64,
    msg_keep: f64,
}

impl RandomRun {
    /// Creates the sampler.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(graph: Graph, n: u32, input_keep: f64, msg_keep: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&input_keep),
            "input_keep must be in [0,1]"
        );
        assert!((0.0..=1.0).contains(&msg_keep), "msg_keep must be in [0,1]");
        let base = Run::good(&graph, n);
        let slots = base.messages().collect();
        RandomRun {
            graph,
            base,
            slots,
            input_keep,
            msg_keep,
        }
    }
}

impl RunSampler for RandomRun {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Run {
        let mut run = self.base.clone();
        self.thin(&mut run, rng);
        run
    }

    fn sample_into<R: Rng + ?Sized>(&self, run: &mut Run, rng: &mut R) {
        run.clone_from(&self.base);
        self.thin(run, rng);
    }

    fn sample_into_observed<R: Rng + ?Sized>(
        &self,
        run: &mut Run,
        rng: &mut R,
        obs: &ca_obs::Metrics,
    ) {
        run.clone_from(&self.base);
        let flipped = self.thin(run, rng);
        obs.inc(ca_obs::CounterId::RunSamples);
        obs.add(ca_obs::CounterId::RunSlotsFlipped, flipped);
    }
}

impl RandomRun {
    /// Input coins first (in vertex order), then one coin per good-run slot
    /// in canonical slot order — the historical draw order. Returns the
    /// number of message slots destroyed (inputs are not counted).
    fn thin<R: Rng + ?Sized>(&self, run: &mut Run, rng: &mut R) -> u64 {
        for i in self.graph.vertices() {
            if !rng.gen_bool(self.input_keep) {
                run.remove_input(i);
            }
        }
        let mut flipped = 0;
        for s in &self.slots {
            if !rng.gen_bool(self.msg_keep) && run.remove_message(s.from, s.to, s.round) {
                flipped += 1;
            }
        }
        flipped
    }
}

/// The *prefix-cut* family of runs: full delivery and full input until a cut
/// round `c`, then nothing from round `c` on — one run per `c ∈ 1..=n+1`
/// (where `c = n+1` is the good run).
fn prefix_cut_runs(graph: &Graph, n: u32) -> Vec<Run> {
    (1..=n + 1)
        .map(|c| {
            let mut run = Run::good(graph, n);
            if c <= n {
                run.cut_from_round(Round::new(c));
            }
            run
        })
        .collect()
}

/// The prefix-cut family (full delivery until round `c`, nothing after),
/// `c ∈ 1..=n+1`, plus per-link cut variants: for every directed edge and
/// every round, deliver everything except that link from that round on.
///
/// For the protocols in this paper the worst run is always in this family
/// (the tests cross-check with randomized search).
pub fn cut_family(graph: &Graph, n: u32) -> Vec<Run> {
    let mut runs = prefix_cut_runs(graph, n);
    for (a, b) in graph.directed_edges() {
        for c in 1..=n {
            let mut run = Run::good(graph, n);
            run.cut_link_from_round(a, b, Round::new(c));
            runs.push(run);
        }
    }
    runs
}

/// Crash-stop failure injection: runs where a chosen process "crashes" at a
/// round (all its outgoing messages from that round on are destroyed; it
/// still receives). One run per `(process, crash_round)` pair, plus the good
/// run. Link-failure adversaries subsume crashes, so the paper's bounds must
/// hold here too — the tests and the families in E4 use this to check.
pub fn crash_family(graph: &Graph, n: u32) -> Vec<Run> {
    let mut runs = vec![Run::good(graph, n)];
    for victim in graph.vertices() {
        for crash_at in 1..=n {
            let mut run = Run::good(graph, n);
            for &peer in graph.neighbors(victim) {
                run.cut_link_from_round(victim, peer, Round::new(crash_at));
            }
            runs.push(run);
        }
    }
    runs
}

/// Every run obtained from the good run by destroying exactly one message.
pub fn single_drop_family(graph: &Graph, n: u32) -> Vec<Run> {
    let good = Run::good(graph, n);
    good.messages()
        .map(|s| {
            let mut run = good.clone();
            run.remove_message(s.from, s.to, s.round);
            run
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weak::{LossModel, WeakAdversary};
    use ca_core::ids::ProcessId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prefix_cut_family_shape() {
        let g = Graph::complete(2).unwrap();
        let runs = prefix_cut_runs(&g, 3);
        assert_eq!(runs.len(), 4);
        // c = 1: nothing delivered.
        assert_eq!(runs[0].message_count(), 0);
        // c = 2: only round 1 delivered (2 directed slots).
        assert_eq!(runs[1].message_count(), 2);
        // c = 4 (= n+1): the good run.
        assert_eq!(runs[3], Run::good(&g, 3));
        // All keep the full input set.
        for r in &runs {
            assert_eq!(r.input_count(), 2);
        }
    }

    #[test]
    fn fixed_run_ignores_rng() {
        let g = Graph::complete(2).unwrap();
        let run = Run::good(&g, 2);
        let sampler = FixedRun::new(run.clone());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sampler.sample(&mut rng), run);
        assert_eq!(sampler.run(), &run);
    }

    #[test]
    fn sliced_descriptions_match_the_samplers() {
        let g = Graph::complete(2).unwrap();
        let run = Run::good(&g, 3);
        let fixed = FixedRun::new(run.clone());
        assert!(matches!(fixed.sliced(), Some(SlicedSampler::Fixed(r)) if *r == run));
        let drop = WeakAdversary::iid(&g, 3, 0.4);
        match drop.sliced() {
            Some(SlicedSampler::IidDrop { base, p }) => {
                assert_eq!(base, &run);
                assert_eq!(p, 0.4);
            }
            other => panic!("iid loss must describe itself as IidDrop, got {other:?}"),
        }
        assert!(
            RandomRun::new(g, 3, 0.8, 0.7).sliced().is_none(),
            "input-randomizing samplers must force the scalar path"
        );
    }

    #[test]
    fn random_drop_rates() {
        // The iid weak adversary keeps each message with probability 1 − p
        // on the dense sampling path.
        let g = Graph::complete(3).unwrap();
        let sampler = WeakAdversary::iid(&g, 10, 0.3);
        assert_eq!(sampler.model(), &LossModel::Iid { p: 0.3 });
        let mut rng = StdRng::seed_from_u64(2);
        let total_slots = Run::good(&g, 10).message_count();
        let mut kept = 0usize;
        let trials = 200;
        for _ in 0..trials {
            kept += sampler.sample(&mut rng).message_count();
        }
        let keep_rate = kept as f64 / (trials * total_slots) as f64;
        assert!((keep_rate - 0.7).abs() < 0.02, "keep rate {keep_rate}");
    }

    #[test]
    fn random_drop_extremes() {
        // p = 0 is the good run; p = 1 destroys every message but no input.
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            WeakAdversary::iid(&g, 3, 0.0).sample(&mut rng),
            Run::good(&g, 3)
        );
        let lost = WeakAdversary::iid(&g, 3, 1.0).sample(&mut rng);
        assert_eq!(lost.message_count(), 0);
        assert_eq!(lost.input_count(), 3);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn random_drop_rejects_bad_p() {
        let _ = WeakAdversary::iid(&Graph::complete(2).unwrap(), 2, -0.1);
    }

    #[test]
    fn random_run_respects_probabilities() {
        let g = Graph::complete(2).unwrap();
        let sampler = RandomRun::new(g, 4, 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let run = sampler.sample(&mut rng);
        assert_eq!(run.input_count(), 2);
        assert_eq!(run.message_count(), 0);
    }

    #[test]
    fn cut_family_contains_prefix_cuts_and_link_cuts() {
        let g = Graph::complete(2).unwrap();
        let n = 3;
        let family = cut_family(&g, n);
        // n+1 prefix cuts + 2 directed edges × n link cuts.
        assert_eq!(family.len(), (n as usize + 1) + 2 * n as usize);
        assert!(family.contains(&Run::good(&g, n)));
    }

    #[test]
    fn crash_family_shape() {
        let g = Graph::complete(3).unwrap();
        let n = 4;
        let family = crash_family(&g, n);
        // good run + 3 processes × 4 crash rounds.
        assert_eq!(family.len(), 1 + 3 * 4);
        // A crash at round 1 silences the victim entirely.
        let victim_silent = &family[1]; // (P0, crash at 1)
        assert!(victim_silent
            .messages()
            .all(|s| s.from != ProcessId::new(0)));
        // The victim still receives.
        assert!(victim_silent.messages().any(|s| s.to == ProcessId::new(0)));
    }

    #[test]
    fn single_drop_family_size() {
        let g = Graph::line(3).unwrap();
        let family = single_drop_family(&g, 2);
        // 4 directed slots per round × 2 rounds = 8 runs, each missing one.
        assert_eq!(family.len(), 8);
        let good_count = Run::good(&g, 2).message_count();
        for run in family {
            assert_eq!(run.message_count(), good_count - 1);
        }
    }
}
