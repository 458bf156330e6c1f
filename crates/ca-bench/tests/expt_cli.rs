//! Golden tests of the `ca expt` subcommand, driving the real binary.
//!
//! Pins the experiment runner's contract: it runs the one registry, in the
//! id order every registry report (`ca profile`, BENCH_experiments.json)
//! uses, selects experiments by case-insensitive id, rejects unknown ids
//! with a typed error, and exports each table as CSV on request.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ca(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ca"))
        .args(args)
        .output()
        .expect("run ca")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8")
}

#[test]
fn list_matches_the_bench_report_order() {
    let list = ca(&["expt", "--list"]);
    assert!(list.status.success());
    let listed: Vec<String> = stdout(&list)
        .lines()
        .map(|line| {
            line.split_whitespace()
                .next()
                .expect("id column")
                .to_owned()
        })
        .collect();
    assert_eq!(listed.len(), 19, "E1–E12 and X1–X7: {listed:?}");
    let registry: Vec<String> = ca_async::experiments::registry()
        .iter()
        .map(|e| e.id().to_owned())
        .collect();
    assert_eq!(listed, registry);
}

#[test]
fn named_ids_run_exactly_those_experiments() {
    let output = ca(&["expt", "e4", "X1"]);
    let text = stdout(&output);
    assert!(output.status.success(), "{text}");
    assert!(text.starts_with("running 2 experiment(s) at 2000 trials (seed 0xca11)"));
    let summary: Vec<&str> = text
        .split("== summary ==\n")
        .nth(1)
        .expect("summary section")
        .lines()
        .take_while(|line| !line.is_empty())
        .collect();
    assert_eq!(summary.len(), 2, "{summary:?}");
    assert!(summary[0].starts_with("E4    PASS"), "{summary:?}");
    assert!(summary[1].starts_with("X1    PASS"), "{summary:?}");
    assert!(text.ends_with("ALL EXPERIMENTS PASSED\n"), "{text}");
}

#[test]
fn unknown_ids_are_rejected() {
    let output = ca(&["expt", "E99"]);
    assert_eq!(output.status.code(), Some(1));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("error:") && err.contains("E99"), "{err}");
}

#[test]
fn csv_flag_writes_one_file_per_table() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("ca_expt_cli_{}_csv", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp dir is UTF-8");
    let output = ca(&["expt", "e4", "--trials", "200", "--csv", dir_arg]);
    assert!(output.status.success(), "{}", stdout(&output));
    let csv = std::fs::read_to_string(PathBuf::from(&dir).join("e4.csv")).expect("e4.csv written");
    assert!(csv.lines().count() > 1, "{csv}");
    let _ = std::fs::remove_dir_all(&dir);
}
