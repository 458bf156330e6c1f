//! Golden tests of the `ca profile` subcommand, driving the real binary.
//!
//! Pins the observability stability contract: the default (untimed) profile
//! is a deterministic function of `(scale, seed)` — byte-identical across
//! repeat invocations AND across worker counts (`--threads 1/2/8`), because
//! every stable metric is a per-trial fact merged commutatively. Also pins
//! the report shape (registry order, omitted zeros) and the `--compare`
//! drift gate.
//!
//! Compiled only with the `obs` feature (the default): with observability
//! compiled out, `ca profile` intentionally refuses to run.
#![cfg(feature = "obs")]

use std::path::PathBuf;
use std::process::Command;

fn ca_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca"))
}

fn tmp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ca_profile_cli_{}_{name}.json", std::process::id()));
    path
}

fn run_profile(threads: &str, out: &PathBuf) -> String {
    let output = ca_bin()
        .args(["profile", "--trials", "20", "--threads", threads, "--out"])
        .arg(out)
        .output()
        .expect("run ca profile");
    assert!(
        output.status.success(),
        "ca profile --threads {threads} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(std::fs::read(out).expect("read report")).expect("report is UTF-8")
}

#[test]
fn profile_is_byte_identical_across_thread_counts() {
    let out_1 = tmp_path("t1");
    let out_2 = tmp_path("t2");
    let out_8 = tmp_path("t8");
    let p1 = run_profile("1", &out_1);
    let p2 = run_profile("2", &out_2);
    let p8 = run_profile("8", &out_8);
    assert_eq!(p1, p2, "profiles must not depend on the worker count");
    assert_eq!(p1, p8, "profiles must not depend on the worker count");

    // Repeat invocation at the same width is also byte-identical.
    let out_again = tmp_path("t1b");
    let p1_again = run_profile("1", &out_again);
    assert_eq!(p1, p1_again, "repeat profiles must be byte-identical");

    for out in [&out_1, &out_2, &out_8, &out_again] {
        let _ = std::fs::remove_file(out);
    }
}

#[test]
fn profile_report_has_the_pinned_shape() {
    let output = ca_bin()
        .args(["profile", "--trials", "20"])
        .output()
        .expect("run ca profile");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("stdout is UTF-8");

    assert!(text.contains("\"schema\": 2"));
    assert!(text.contains("\"timed\": false"));
    assert!(text.contains("\"reps\": 1"));
    assert!(!text.contains("\"passed\": false"), "every section passes");
    assert!(text.contains("\"id\": \"chaos\""));

    // Sections appear in registry order: E1..E12 then X1..X5.
    let ids = ["E1", "E2", "E12", "X1", "X5"];
    let positions: Vec<usize> = ids
        .iter()
        .map(|id| {
            text.find(&format!("\"id\": \"{id}\""))
                .unwrap_or_else(|| panic!("experiment {id} missing from profile"))
        })
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "experiment sections out of registry order: {positions:?}"
    );

    // The engine's headline counters are present and attributed.
    for name in [
        "exec.transitions",
        "exec.messages_delivered",
        "sim.trials",
        "run.samples",
        "chaos.schedules",
    ] {
        assert!(text.contains(name), "counter `{name}` missing from profile");
    }

    // Untimed by default: no clock leaks anywhere.
    assert!(
        !text.contains("\"wall_ms\": 0.00"),
        "wall_ms must be exactly 0.0"
    );
    for field in [
        "\"wall_ms\": 0.0",
        "\"wall_mad_ms\": 0.0",
        "\"total_ns\": 0",
    ] {
        assert!(text.contains(field));
    }
}

#[test]
fn compare_gate_passes_on_identical_runs_and_fails_on_drift() {
    let baseline = tmp_path("baseline");
    run_profile("0", &baseline);

    // Same scale, same seed: the gate passes.
    let same = ca_bin()
        .args(["profile", "--trials", "20", "--compare"])
        .arg(&baseline)
        .output()
        .expect("run ca profile --compare");
    assert!(
        same.status.success(),
        "identical profile must pass the drift gate: {}",
        String::from_utf8_lossy(&same.stderr)
    );

    // Different trial count: stable counters drift, the gate fails.
    let drifted = ca_bin()
        .args(["profile", "--trials", "40", "--compare"])
        .arg(&baseline)
        .output()
        .expect("run ca profile --compare");
    assert!(
        !drifted.status.success(),
        "a drifted profile must fail the gate"
    );
    let err = String::from_utf8_lossy(&drifted.stderr);
    assert!(
        err.contains("stable counters drifted"),
        "unexpected error output: {err}"
    );

    let _ = std::fs::remove_file(&baseline);
}
