//! Breaks one E10-shaped Monte Carlo trial into its phases and times each in
//! isolation: RNG reseed, run sampling, tape refill, execution, and the
//! per-trial `modified_levels` call. Run with `cargo run --release -p ca-sim
//! --example profile_trial` when deciding where the next hot-path cycle
//! should go.

use ca_core::exec::{execute_outputs_into, ExecScratch};
use ca_core::graph::Graph;
use ca_core::level::{min_modified_level_into, LevelScratch};
use ca_core::run::Run;
use ca_core::tape::TapeSet;
use ca_protocols::ProtocolS;
use ca_sim::{RunSampler, WeakAdversary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

fn time<F: FnMut()>(label: &str, iters: u64, mut f: F) {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!("{label:<18} {:8.2} ns/iter", per * 1e9);
}

fn main() {
    let graph = Graph::complete(2).expect("graph");
    let n = 24u32;
    let proto = ProtocolS::new(1.0 / 12.0);
    let sampler = WeakAdversary::iid(&graph, n, 0.1);
    let iters = 200_000u64;

    let mut rng = StdRng::seed_from_u64(1);
    let mut sampled = Run::empty(0, 0);
    let mut tapes = TapeSet::empty(graph.len());
    let mut scratch = ExecScratch::new();
    let mut levels = LevelScratch::new();
    sampler.sample_into(&mut sampled, &mut rng);
    tapes.fill_random(&mut rng, 64);

    let mut seed = 0u64;
    time("reseed", iters, || {
        seed += 1;
        black_box(StdRng::seed_from_u64(seed));
    });
    time("sample_into", iters, || {
        sampler.sample_into(&mut sampled, &mut rng);
    });
    time("fill_random", iters, || {
        tapes.fill_random(&mut rng, 64);
    });
    time("execute", iters, || {
        black_box(execute_outputs_into(
            &proto,
            &graph,
            &sampled,
            &tapes,
            &mut scratch,
        ));
    });
    time("min_ml", iters, || {
        black_box(min_modified_level_into(&sampled, &mut levels));
    });
    time("full trial", iters, || {
        let mut rng = StdRng::seed_from_u64(seed);
        seed += 1;
        sampler.sample_into(&mut sampled, &mut rng);
        tapes.fill_random(&mut rng, 64);
        black_box(execute_outputs_into(
            &proto,
            &graph,
            &sampled,
            &tapes,
            &mut scratch,
        ));
        black_box(min_modified_level_into(&sampled, &mut levels));
    });
}
