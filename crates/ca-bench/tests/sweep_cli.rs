//! Golden tests of the `ca sweep` subcommand, driving the real binary.
//!
//! Pins the scenario-sweep determinism contract: the report is a pure
//! function of `(--m, --trials, --seed)` — byte-identical across repeat
//! invocations AND across worker counts (`--threads 1/2/8`) — because cells
//! derive their trial seed streams from `mix64(seed, cell)` regardless of
//! which worker runs them. Also pins the `--compare` drift gate and the
//! shape of the emitted JSON (no clocks, integer tallies).

use ca_analysis::ScenarioSweepReport;
use std::path::PathBuf;
use std::process::Command;

/// Small enough to finish in well under a second, big enough that every
/// generated family and both adversaries produce nontrivial frontiers.
const SMOKE: [&str; 6] = ["sweep", "--m", "96", "--trials", "40", "--seed"];

/// The smoke report at seed 7, as `ca sweep --m 96 --trials 40 --seed 7
/// --out FILE` writes it. Regenerate it only for an intended change to the
/// generators, the samplers or the level frontier, and say why.
const GOLDEN_SEED_7: &str = include_str!("golden/sweep_m96_trials40_seed7.json");

fn ca_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca"))
}

fn tmp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ca_sweep_cli_{}_{name}.json", std::process::id()));
    path
}

fn run_smoke(seed: &str, threads: &str, out: &PathBuf) -> String {
    let output = ca_bin()
        .args(SMOKE)
        .args([seed, "--threads", threads, "--out"])
        .arg(out)
        .output()
        .expect("run ca sweep");
    assert!(
        output.status.success(),
        "ca sweep --threads {threads} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(std::fs::read(out).expect("read report")).expect("report is UTF-8")
}

#[test]
fn sweep_report_is_byte_identical_across_thread_counts() {
    let out_1 = tmp_path("t1");
    let out_2 = tmp_path("t2");
    let out_8 = tmp_path("t8");
    let r1 = run_smoke("7", "1", &out_1);
    let r2 = run_smoke("7", "2", &out_2);
    let r8 = run_smoke("7", "8", &out_8);
    assert_eq!(r1, r2, "sweep reports must not depend on the worker count");
    assert_eq!(r1, r8, "sweep reports must not depend on the worker count");

    // Repeat invocation at the same width is also byte-identical.
    let out_again = tmp_path("t1b");
    let r1_again = run_smoke("7", "1", &out_again);
    assert_eq!(r1, r1_again, "repeat sweep runs must be byte-identical");

    for out in [&out_1, &out_2, &out_8, &out_again] {
        let _ = std::fs::remove_file(out);
    }
}

#[test]
fn sweep_report_matches_the_checked_in_golden() {
    // Every other test here checks self-consistency, which a change that
    // moves every frontier the same way would pass.
    let out = tmp_path("golden");
    let report = run_smoke("7", "2", &out);
    let _ = std::fs::remove_file(&out);
    assert!(
        report == GOLDEN_SEED_7,
        "ca sweep --m 96 --trials 40 --seed 7 drifted from \
         tests/golden/sweep_m96_trials40_seed7.json"
    );
}

#[test]
fn sweep_json_has_frontier_shape_and_no_clocks() {
    let output = ca_bin()
        .args(SMOKE)
        .arg("7")
        .output()
        .expect("run ca sweep");
    assert!(
        output.status.success(),
        "smoke sweep must exit cleanly: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let report: ScenarioSweepReport =
        serde::json::from_str(&text).expect("stdout is a parseable sweep report");
    assert_eq!(report.schema, 1);
    assert_eq!(report.config.threads, 0, "threads must be echoed as 0");
    // 3 topologies × 2 adversaries, in topology-major order.
    assert_eq!(report.cells.len(), 6);
    for cell in &report.cells {
        assert_eq!(cell.trials, 40);
        assert!(cell.graph.diameter > 0);
        for pt in &cell.points {
            assert_eq!(
                pt.ta.successes + pt.pa.successes + pt.na.successes,
                cell.trials,
                "TA/PA/NA must partition the trials"
            );
        }
        // The §8 shape: liveness never rises with t (exact under CRN).
        assert!(cell
            .points
            .windows(2)
            .all(|w| w[0].ta.successes >= w[1].ta.successes));
    }
    // No wall-clock fields anywhere in the report.
    assert!(!text.contains("wall"), "sweep reports must carry no clocks");
    // The human-readable table goes to stderr, keeping stdout pure JSON.
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("topology"), "stderr carries the table: {err}");
}

#[test]
fn compare_gate_passes_on_identical_runs_and_fails_on_drift() {
    let baseline = tmp_path("baseline");
    run_smoke("7", "0", &baseline);

    // Same config, same seed: the gate passes.
    let same = ca_bin()
        .args(SMOKE)
        .args(["7", "--compare"])
        .arg(&baseline)
        .output()
        .expect("run ca sweep --compare");
    assert!(
        same.status.success(),
        "identical sweep run must pass the gate: {}",
        String::from_utf8_lossy(&same.stderr)
    );
    assert!(
        String::from_utf8_lossy(&same.stderr).contains("byte-identical"),
        "the gate reports the match"
    );

    // Different seed: integer tallies drift, the gate fails.
    let drifted = ca_bin()
        .args(SMOKE)
        .args(["8", "--compare"])
        .arg(&baseline)
        .output()
        .expect("run ca sweep --compare");
    assert!(
        !drifted.status.success(),
        "a drifted run must fail the gate"
    );
    let err = String::from_utf8_lossy(&drifted.stderr);
    assert!(
        err.contains("drifted from the baseline"),
        "unexpected error output: {err}"
    );

    let _ = std::fs::remove_file(&baseline);
}
