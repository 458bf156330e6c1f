//! Malformed input files through the real binary: every entry point that
//! reads a file must exit 1 with `error:` (never a panic's 101 or an
//! abort's 134) and leave `--out` unwritten.
//!
//! The cases so far are run shapes. A `Run` inside a `ReplayRun` fault is
//! checked once, by its deserializer, on every path that reads one: the
//! chaos and hunt `--replay` files, `serve --schedule`, and the hunt and
//! serve `--compare` baselines that embed a schedule.

use std::path::{Path, PathBuf};
use std::process::Command;

fn ca_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca"))
}

fn tmp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "ca_malformed_cli_{}_{name}.json",
        std::process::id()
    ));
    path
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(path).expect("read the golden")
}

/// `ReplayRun` faults whose run is not a run: `(name, fault, error text)`.
const BAD_FAULTS: &[(&str, &str, &str)] = &[
    // m = n = 2^20: the matrix would be 2^56 words. The shape is refused
    // before anything is allocated.
    (
        "huge",
        r#"{"ReplayRun":{"run":{"m":1048576,"n":1048576,"inputs":{"blocks":[],"capacity":0},"messages":[]},"ticks_per_round":1}}"#,
        "at most 2048",
    ),
    // A horizon-1 run on K2 listing slots in rounds 2 and 3. Replaying them
    // would deliver sends the run's horizon says are destroyed.
    (
        "past_horizon",
        r#"{"ReplayRun":{"run":{"m":2,"n":1,"inputs":{"blocks":[3],"capacity":2},"messages":[{"from":0,"to":1,"round":1},{"from":0,"to":1,"round":2},{"from":1,"to":0,"round":3}]},"ticks_per_round":1}}"#,
        "slot outside the run",
    ),
];

/// The schedule file holding only `fault`.
fn schedule(fault: &str) -> String {
    format!(r#"{{"seed":0,"base_latency":1,"faults":[{fault}]}}"#)
}

/// `report` with `fault` prepended to the first `"faults"` list after
/// `anchor`.
fn embed(report: &str, anchor: &str, fault: &str) -> String {
    let at = report.find(anchor).expect("anchor in the golden");
    let list = at + report[at..].find("\"faults\": [").expect("a fault list") + 11;
    format!("{}{fault},{}", &report[..list], &report[list..])
}

/// Runs `ca args… FILE --out OUT` and checks the typed failure.
fn assert_refused(name: &str, args: &[&str], file: &Path, want: &str) {
    let out = tmp_path(&format!("{name}_out"));
    let output = ca_bin()
        .args(args)
        .arg(file)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run ca");
    let err = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{name} {args:?}: {err}");
    assert!(err.starts_with("error: "), "{name} {args:?}: {err}");
    assert!(err.contains(want), "{name} {args:?}: {err}");
    assert!(!out.exists(), "{name} {args:?}: --out was written");
}

#[test]
fn bad_replay_runs_are_refused_on_every_file_reading_path() {
    let hunt = golden("hunt_k2_seed7.json");
    let serve = golden("serve_smoke.json");
    let schedule_readers: [&[&str]; 3] = [
        &["chaos", "--graph", "k2", "--t", "4", "--replay"],
        &["hunt", "--graph", "k2", "--replay"],
        &["serve", "--smoke", "--report", "--schedule"],
    ];
    for &(name, fault, want) in BAD_FAULTS {
        let file = tmp_path(name);
        std::fs::write(&file, schedule(fault)).expect("write schedule");
        for args in schedule_readers {
            assert_refused(name, args, &file, want);
        }
        std::fs::write(&file, embed(&hunt, "\"shrunk\"", fault)).expect("write baseline");
        let hunt_gate = ["hunt", "--graph", "k2", "--seed", "7", "--compare"];
        assert_refused(name, &hunt_gate, &file, want);
        std::fs::write(&file, embed(&serve, "\"courier\"", fault)).expect("write baseline");
        assert_refused(
            name,
            &["serve", "--smoke", "--report", "--compare"],
            &file,
            want,
        );
        let _ = std::fs::remove_file(&file);
    }
}
