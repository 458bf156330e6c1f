//! Golden tests of the `ca serve` subcommand, driving the real binary.
//!
//! Pins the service determinism contract: the aggregate report of a serve
//! run is a pure function of `(scale, seed)` — byte-identical across repeat
//! invocations AND across worker counts (`--threads 1/2/8`) — because
//! shards are the unit of parallelism and each shard's virtual-time queue
//! is sequential. Also pins graceful degradation (the smoke preset must
//! shed or time out work, never hang or lose it), the `--compare`
//! drift/regression gate, and `ca serve --smoke --report`, the report CI
//! gates, byte for byte against `tests/golden/serve_smoke.json`.
//!
//! Deliberately NOT gated on the `obs` feature: unlike `ca profile`, the
//! service must run (and stay deterministic) with observability compiled
//! out.

use ca_async::ServeReport;
use std::path::PathBuf;
use std::process::Command;

fn ca_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca"))
}

fn tmp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ca_serve_cli_{}_{name}.json", std::process::id()));
    path
}

/// `ca serve --smoke --report`'s report. An intended change to the service
/// or the async engine regenerates it with `--out` and says why.
const GOLDEN: &str = include_str!("golden/serve_smoke.json");

fn run_smoke(threads: &str, out: &PathBuf) -> String {
    let output = ca_bin()
        .args([
            "serve",
            "--smoke",
            "--seed",
            "7",
            "--threads",
            threads,
            "--out",
        ])
        .arg(out)
        .output()
        .expect("run ca serve");
    assert!(
        output.status.success(),
        "ca serve --threads {threads} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(std::fs::read(out).expect("read report")).expect("report is UTF-8")
}

#[test]
fn serve_report_is_byte_identical_across_thread_counts() {
    let out_1 = tmp_path("t1");
    let out_2 = tmp_path("t2");
    let out_8 = tmp_path("t8");
    let r1 = run_smoke("1", &out_1);
    let r2 = run_smoke("2", &out_2);
    let r8 = run_smoke("8", &out_8);
    assert_eq!(r1, r2, "serve reports must not depend on the worker count");
    assert_eq!(r1, r8, "serve reports must not depend on the worker count");

    // Repeat invocation at the same width is also byte-identical.
    let out_again = tmp_path("t1b");
    let r1_again = run_smoke("1", &out_again);
    assert_eq!(r1, r1_again, "repeat serve runs must be byte-identical");

    for out in [&out_1, &out_2, &out_8, &out_again] {
        let _ = std::fs::remove_file(out);
    }
}

#[test]
fn smoke_report_matches_the_checked_in_golden() {
    let out = tmp_path("golden");
    let output = ca_bin()
        .args(["serve", "--smoke", "--report", "--out"])
        .arg(&out)
        .output()
        .expect("run ca serve --smoke --report");
    assert!(
        output.status.success(),
        "ca serve exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let report = std::fs::read_to_string(&out).expect("read report");
    let _ = std::fs::remove_file(&out);
    assert!(
        report == GOLDEN,
        "ca serve --smoke --report drifted from tests/golden/serve_smoke.json"
    );
}

#[test]
fn smoke_run_degrades_gracefully_and_loses_nothing() {
    let output = ca_bin()
        .args(["serve", "--smoke", "--seed", "7", "--report"])
        .output()
        .expect("run ca serve --report");
    assert!(
        output.status.success(),
        "smoke serve must exit cleanly: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(text.contains("\"schema\": 1"));
    let report = ServeReport::from_json(&text).expect("stdout is a parseable serve report");

    let t = &report.totals;
    // Graceful degradation, not graceful collapse: overload is shed or timed
    // out explicitly, while most of the offered load still decides.
    assert!(
        t.shed + t.timed_out > 0,
        "smoke preset must exhibit overload"
    );
    assert!(
        t.decided > t.instances / 2,
        "most instances decide: {} of {}",
        t.decided,
        t.instances
    );
    // Every instance is accounted for exactly once.
    assert_eq!(
        t.shed + t.decided + t.timed_out + t.undecided + t.failed,
        t.instances,
        "accounting must balance"
    );
    assert_eq!(
        t.verdicts.total(),
        t.decided,
        "every decided instance has a verdict"
    );
    assert_eq!(t.shards_poisoned, 0);
    // Untimed by default: no wall clock leaks into the report.
    assert_eq!(t.wall_ms, 0);
    assert_eq!(t.instances_per_sec, 0.0);
}

#[test]
fn compare_gate_passes_on_identical_runs_and_fails_on_drift() {
    let baseline = tmp_path("baseline");
    run_smoke("0", &baseline);

    // Same scale, same seed: the gate passes.
    let same = ca_bin()
        .args(["serve", "--smoke", "--seed", "7", "--compare"])
        .arg(&baseline)
        .output()
        .expect("run ca serve --compare");
    assert!(
        same.status.success(),
        "identical serve run must pass the gate: {}",
        String::from_utf8_lossy(&same.stderr)
    );

    // Different seed: stable counters drift, the gate fails.
    let drifted = ca_bin()
        .args(["serve", "--smoke", "--seed", "8", "--compare"])
        .arg(&baseline)
        .output()
        .expect("run ca serve --compare");
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
