//! Golden tests of the `ca hunt` subcommand, driving the real binary.
//!
//! Pins the adversary-zoo contracts end to end:
//!
//! * **Determinism** — the hunt report is a pure function of `(graph,
//!   config)`: byte-identical across repeat invocations AND across worker
//!   counts (`--threads 1/2/8`), because every parallel stage is
//!   index-ordered and all ranking is exact arithmetic.
//! * **Convergence** — at quick scale on `k2` the search rediscovers the
//!   paper's worst case: the best schedule's induced run sits at
//!   `ML(R) = 1` with exact TA exactly `ε = 1/t`, its Monte Carlo attack
//!   rate is within `z = 4` of that analytic floor, and the online
//!   min-level adversary lands on the same liveness.
//! * **Replay** — the shrunk winner round-trips through its JSON file and
//!   re-scores to the same feasible damage.
//! * **The `--compare` drift gate** — passes on identical runs, fails on a
//!   different seed.
//!
//! Deliberately NOT gated on the `obs` feature: the hunt must run (and stay
//! deterministic) with observability compiled out.

use ca_async::{CandidateStatus, HuntReport};
use std::path::PathBuf;
use std::process::Command;

fn ca_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca"))
}

fn tmp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ca_hunt_cli_{}_{name}.json", std::process::id()));
    path
}

/// Small-but-converging scale (seed 7 on k2): fast enough for CI, deep
/// enough that the search reaches the prefix-cut floor.
const QUICK: &[&str] = &[
    "hunt",
    "--graph",
    "k2",
    "--generations",
    "3",
    "--population",
    "12",
    "--budget",
    "512",
    "--seed",
    "7",
];

fn run_hunt(threads: &str, out: &PathBuf) -> String {
    let output = ca_bin()
        .args(QUICK)
        .args(["--threads", threads, "--out"])
        .arg(out)
        .output()
        .expect("run ca hunt");
    assert!(
        output.status.success(),
        "ca hunt --threads {threads} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(std::fs::read(out).expect("read report")).expect("report is UTF-8")
}

#[test]
fn hunt_report_is_byte_identical_across_thread_counts() {
    let out_1 = tmp_path("t1");
    let out_2 = tmp_path("t2");
    let out_8 = tmp_path("t8");
    let r1 = run_hunt("1", &out_1);
    let r2 = run_hunt("2", &out_2);
    let r8 = run_hunt("8", &out_8);
    assert_eq!(r1, r2, "hunt reports must not depend on the worker count");
    assert_eq!(r1, r8, "hunt reports must not depend on the worker count");

    // Repeat invocation at the same width is also byte-identical.
    let out_again = tmp_path("t1b");
    let r1_again = run_hunt("1", &out_again);
    assert_eq!(r1, r1_again, "repeat hunt runs must be byte-identical");

    for out in [&out_1, &out_2, &out_8, &out_again] {
        let _ = std::fs::remove_file(out);
    }
}

#[test]
fn hunt_rediscovers_the_prefix_cut_worst_case() {
    let output = ca_bin().args(QUICK).output().expect("run ca hunt");
    assert!(
        output.status.success(),
        "hunt must exit cleanly: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let report = HuntReport::from_json(&text).expect("stdout is a parseable hunt report");

    assert_eq!(report.schema, 1);
    assert_eq!(report.analytic.floor_ta, 0.125, "ε = 1/8");
    assert_eq!(report.analytic.boundary_ratio, 8.0, "L/U ≤ N with N = 8");

    // The search reached the paper's worst case: a non-vacuous schedule
    // whose induced run sits at ML(R) = 1 with exact TA exactly ε.
    let best = report.best.as_ref().expect("a feasible best exists");
    assert_eq!(best.status, CandidateStatus::Ok);
    assert_eq!(best.ml, 1, "best schedule cuts to the ML = 1 floor");
    assert_eq!(best.exact_ta, 0.125, "exact TA is the analytic floor ε");
    assert!(report.prefix_cut_equivalent);
    // Its Monte Carlo attack rate agrees with the floor at z = 4.
    assert!(best.mc_trials > 0);
    assert!(report.mc_within_floor_interval);

    // The online min-level adversary independently lands on the same
    // liveness: adaptivity rediscovers, but cannot beat, the offline bound.
    assert_eq!(report.online.ml, 1);
    assert_eq!(report.online.exact_ta, 0.125);
    assert!(report.online.matches_offline_best);

    // Infeasible blackouts were seen and navigated around, not crowned.
    assert!(report.candidates >= report.infeasible);
    assert_eq!(report.failed, 0, "no candidate evaluation panicked");
}

#[test]
fn shrunk_winner_replays_to_the_same_damage() {
    let out = tmp_path("replay_src");
    let text = run_hunt("0", &out);
    let report = HuntReport::from_json(&text).expect("parseable hunt report");
    let shrunk = report
        .shrunk
        .as_ref()
        .expect("hunt produced a shrunk winner");

    let schedule_path = tmp_path("replay_schedule");
    std::fs::write(&schedule_path, shrunk.to_json_pretty()).expect("write schedule");

    let replay = ca_bin()
        .args(["hunt", "--graph", "k2", "--seed", "7", "--replay"])
        .arg(&schedule_path)
        .output()
        .expect("run ca hunt --replay");
    assert!(
        replay.status.success(),
        "replay must exit cleanly: {}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let replay_text = String::from_utf8(replay.stdout).expect("stdout is UTF-8");
    let result: ca_async::CandidateResult =
        serde::json::from_str(&replay_text).expect("stdout is a parseable candidate result");
    assert_eq!(result.status, CandidateStatus::Ok);
    assert_eq!(result.ml, report.best.as_ref().unwrap().ml);
    assert_eq!(result.exact_ta, report.best.as_ref().unwrap().exact_ta);
    assert!(result.safety_ok, "the shrunk winner never broke safety");

    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&schedule_path);
}

#[test]
fn deeply_nested_replay_file_is_a_typed_error() {
    let path = tmp_path("deep_schedule");
    let deep = format!("{}1{}", "{\"a\":".repeat(50_000), "}".repeat(50_000));
    std::fs::write(&path, deep).expect("write schedule");
    let replay = ca_bin()
        .args(["hunt", "--graph", "k2", "--replay"])
        .arg(&path)
        .output()
        .expect("run ca hunt --replay");
    let err = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(1), "{err}");
    assert!(err.starts_with("error: bad schedule"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compare_gate_passes_on_identical_runs_and_fails_on_drift() {
    let baseline = tmp_path("baseline");
    run_hunt("0", &baseline);

    // Same config, different worker count: the gate passes.
    let same = ca_bin()
        .args(QUICK)
        .args(["--threads", "2", "--compare"])
        .arg(&baseline)
        .output()
        .expect("run ca hunt --compare");
    assert!(
        same.status.success(),
        "identical hunt run must pass the gate: {}",
        String::from_utf8_lossy(&same.stderr)
    );

    // Different seed: the report drifts, the gate fails.
    let mut drifted_args: Vec<&str> = QUICK.to_vec();
    let seed_slot = drifted_args.len() - 1;
    drifted_args[seed_slot] = "8";
    let drifted = ca_bin()
        .args(&drifted_args)
        .arg("--compare")
        .arg(&baseline)
        .output()
        .expect("run ca hunt --compare");
    assert!(
        !drifted.status.success(),
        "a drifted run must fail the gate"
    );
    let err = String::from_utf8_lossy(&drifted.stderr);
    assert!(
        err.contains("regressed from the baseline"),
        "unexpected error output: {err}"
    );

    let _ = std::fs::remove_file(&baseline);
}
