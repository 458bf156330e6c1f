//! Tradeoff explorer: sweep `(N, ε)` and print the safety–liveness frontier.
//!
//! For each horizon `N` and unsafety budget `ε = 1/t`, prints the Theorem
//! 5.4 ceiling `min(1, ε·L(R))`, Protocol S's exact liveness, and the
//! achieved ratio `L/U` — the whole tradeoff surface of the paper in one
//! table, plus the weak-adversary escape hatch of Section 8.
//!
//! ```text
//! cargo run --release --example tradeoff_explorer
//! ```

use coordinated_attack::analysis::tradeoff::{achieved_ratio, frontier};
use coordinated_attack::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = Graph::complete(2)?;
    let ns = [2u32, 4, 8, 16, 32, 64];

    println!("the strong-adversary frontier on K2 (exact; Thm 5.4 vs Protocol S)\n");
    for t in [4u64, 16, 64] {
        let mut table = Table::new([
            "N",
            "L(R_good)",
            "ML(R_good)",
            "ceiling ε·L(R)",
            "L(S, R_good)",
            "achieved L/U",
            "ceiling N",
        ]);
        for pt in frontier(&graph, &ns, t) {
            table.push_row([
                pt.n.to_string(),
                pt.level.to_string(),
                pt.modified_level.to_string(),
                pt.bound.to_string(),
                pt.achieved.to_string(),
                achieved_ratio(&graph, pt.n, t).to_string(),
                pt.n.to_string(),
            ]);
        }
        println!("ε = 1/{t}:\n{table}");
    }

    println!("the weak-adversary escape hatch (§8): random drops, measured L/U\n");
    let n = 24u32;
    let t = 12u64;
    let proto = ProtocolS::new(1.0 / t as f64);
    let mut table = Table::new([
        "drop prob p",
        "liveness",
        "disagreement",
        "measured L/U",
        "strong ceiling",
    ]);
    for p in [0.05f64, 0.15, 0.3] {
        let report = simulate(
            &proto,
            &graph,
            &WeakAdversary::iid(&graph, n, p),
            SimConfig::new(30_000, 11),
        );
        let l = report.liveness();
        let u = report.disagreement();
        let ratio = if u.point() > 0.0 {
            format!("{:.0}", l.point() / u.point())
        } else {
            "∞ (no disagreement observed)".to_owned()
        };
        table.push_row([
            format!("{p}"),
            format!("{:.4}", l.point()),
            format!("{:.2e}", u.point()),
            ratio,
            format!("N = {n}"),
        ]);
    }
    println!("{table}");
    println!("under the strong adversary the ratio L/U can never exceed N (here {n});");
    println!("under random drops it sails far past — the 'vastly improved performance' of §8.");
    Ok(())
}
