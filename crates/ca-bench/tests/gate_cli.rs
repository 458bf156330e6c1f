//! Table-driven tests of the `--out` / `--compare` gate every report
//! command shares (`bench`, `profile`, `serve`, `sweep`, `exact --sweep`,
//! `hunt`), driving the real binary at each command's smallest flags.
//!
//! Pins the gate's order of operations: a baseline that cannot be read or
//! parsed fails the run before `--out` writes anything, and the baseline is
//! read before `--out` writes, so `--out F --compare F` diffs against the
//! bytes `F` held before the run — what CI's `bench --out B --compare B`
//! relies on.

use std::process::{Command, Output};

fn ca(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ca"))
        .args(args)
        .output()
        .expect("run ca")
}

fn tmp_path(name: &str) -> String {
    let mut path = std::env::temp_dir();
    path.push(format!("ca_gate_cli_{}_{name}.json", std::process::id()));
    path.to_str().expect("temp dir is UTF-8").to_owned()
}

const SWEEP: [&str; 7] = ["sweep", "--m", "32", "--trials", "4", "--seed", "7"];

/// Each gated command at its smallest flags.
fn gated_commands() -> Vec<Vec<&'static str>> {
    let mut commands = vec![
        vec!["bench", "--trials", "20", "--stable"],
        vec!["serve", "--smoke", "--report"],
        SWEEP.to_vec(),
        vec![
            "exact", "--sweep", "--graph", "k2", "--rounds", "8", "--t", "8",
        ],
        vec![
            "hunt",
            "--graph",
            "k2",
            "--generations",
            "1",
            "--population",
            "4",
            "--budget",
            "64",
            "--seed",
            "7",
        ],
    ];
    // With observability compiled out, `ca profile` refuses to run at all.
    if cfg!(feature = "obs") {
        commands.push(vec!["profile", "--trials", "20"]);
    }
    commands
}

#[test]
fn unreadable_or_malformed_baselines_fail_before_out_is_written() {
    let missing = tmp_path("missing");
    let malformed = tmp_path("malformed");
    std::fs::write(&malformed, "{ \"schema\": ").expect("write malformed baseline");
    for command in gated_commands() {
        let out = tmp_path(&format!("{}_out", command[0]));
        for baseline in [&missing, &malformed] {
            let _ = std::fs::remove_file(&out);
            let args = [&command[..], &["--compare", baseline, "--out", &out]].concat();
            let output = ca(&args);
            assert_eq!(output.status.code(), Some(1), "{args:?} must exit 1");
            let err = String::from_utf8_lossy(&output.stderr);
            assert!(err.contains("error:"), "{args:?}: {err}");
            assert!(
                std::fs::metadata(&out).is_err(),
                "{args:?}: --out written despite a bad baseline"
            );
        }
    }
    let _ = std::fs::remove_file(&malformed);
}

#[test]
fn out_and_compare_on_one_file_diff_the_old_bytes() {
    let file = tmp_path("same_file");
    let gated = |seed: &str| {
        let mut args = SWEEP.to_vec();
        args[6] = seed;
        ca(&[&args[..], &["--out", &file, "--compare", &file]].concat())
    };
    assert!(ca(&[&SWEEP[..], &["--out", &file]].concat())
        .status
        .success());

    // Refreshing an identical baseline in place passes.
    let same = gated("7");
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );

    // A drifted run fails even though --out rewrites the same file: the
    // gate read the old bytes first.
    let drifted = gated("8");
    assert_eq!(drifted.status.code(), Some(1));
    let err = String::from_utf8_lossy(&drifted.stderr);
    assert!(err.contains("drifted from the baseline"), "{err}");
    // And --out still refreshed the file with the new report.
    let written = std::fs::read_to_string(&file).expect("read refreshed file");
    assert_eq!(written.as_bytes(), drifted.stdout.as_slice());

    let _ = std::fs::remove_file(&file);
}
