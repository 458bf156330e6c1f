//! Quickstart: two generals coordinate an attack over an unreliable link.
//!
//! Runs Protocol S end to end on a good run and on an adversarial cut,
//! printing the execution trace and comparing measured liveness/unsafety
//! with the paper's formulas.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use coordinated_attack::prelude::*;
use coordinated_attack::sim::trace::render_trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 10u32; // rounds
    let t = 8u64; // ε = 1/8: at most a 12.5% chance of disagreement, ever
    let graph = Graph::complete(2)?;
    let protocol = ProtocolS::new(1.0 / t as f64);

    println!("== one execution on the good run ==\n");
    let good = Run::good(&graph, n);
    let mut rng = StdRng::seed_from_u64(2024);
    let tapes = TapeSet::random(&mut rng, graph.len(), 64);
    let execution = execute(&protocol, &graph, &good, &tapes);
    println!("{}", render_trace(&graph, &good, &execution));

    println!("== exact analysis (no sampling) ==\n");
    let exact = protocol_s_outcomes(&graph, &good, t);
    let ml = modified_levels(&good).min_level();
    println!("good run:      ML(R) = {ml}, Pr[all attack] = {} (Theorem 6.8: min(1, ε·ML) = min(1, {ml}/{t}))", exact.ta);

    let mut cut = Run::good(&graph, n);
    cut.cut_from_round(Round::new(4));
    let exact_cut = protocol_s_outcomes(&graph, &cut, t);
    println!(
        "cut at r4:     ML(R) = {}, Pr[all attack] = {}, Pr[disagree] = {} (≤ ε = 1/{t})",
        modified_levels(&cut).min_level(),
        exact_cut.ta,
        exact_cut.pa
    );

    println!("\n== Monte Carlo cross-check ({} trials) ==\n", 20_000);
    let report = simulate(
        &protocol,
        &graph,
        &FixedRun::new(cut),
        SimConfig::new(20_000, 7),
    );
    println!("cut at r4:     liveness = {}", report.liveness());
    println!("               disagree = {}", report.disagreement());
    println!("\nthe worst the adversary can ever do to Protocol S is ε = 1/{t} disagreement —");
    println!("but liveness costs rounds: certain attack needs N ≥ t = {t} (run `ca expt` for the full tables)");
    Ok(())
}
