//! Malformed numeric flags get a typed `error: …` and exit 1 — never a
//! panic (exit 101), a saturated value, or a silently ignored setting.

use std::process::{Command, Output};

fn ca(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ca"))
        .args(args)
        .output()
        .expect("run ca")
}

#[test]
fn malformed_numeric_flags_are_rejected() {
    let cases: &[&[&str]] = &[
        &["exact", "--t", "0"],
        &["exact", "--epsilon", "-1"],
        // 1/0 would saturate t to 2^64 − 1.
        &["exact", "--epsilon", "0"],
        &["exact", "--epsilon", "NaN"],
        &["exact", "--epsilon", "inf"],
        &["exact", "--epsilon", "1.5"],
        // 1/ε is not an integer: the integer-t commands would analyse a
        // rounded ε (1/3 for 0.3, 1/1 for 0.7) under the flag's name.
        &["exact", "--epsilon", "0.3"],
        &["exact", "--sweep", "--epsilon", "0.4"],
        &["hunt", "--epsilon", "0.7"],
        &["chaos", "--epsilon", "0.3", "--schedules", "2"],
        &["serve", "--smoke", "--epsilon", "0.3"],
        &["simulate", "--t", "0"],
        &["trace", "--t", "0"],
        // Would turn every schedule into a caught worker panic.
        &["chaos", "--t", "0", "--schedules", "2"],
        // Processes outside K2 would be silently ignored.
        &["levels", "--graph", "k2", "--drop-link", "0:5:1"],
        &["levels", "--graph", "k2", "--drop-link", "5:0:1"],
    ];
    for args in cases {
        let output = ca(args);
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(output.stdout.is_empty(), "{args:?} printed output");
    }
}

#[test]
fn boundary_values_are_accepted() {
    for args in [
        &["exact", "--epsilon", "1"][..],
        &["exact", "--t", "1"],
        // Reciprocals that are integers up to float rounding.
        &["exact", "--epsilon", "0.1"],
        &["exact", "--epsilon", "0.001"],
        // Past the sweep's MAX_DP_T: one run needs no base sets.
        &["exact", "--t", "100000"],
        // `simulate` and `trace` take any ε in (0, 1].
        &["simulate", "--epsilon", "0.3", "--trials", "100"],
        &["levels", "--graph", "k3", "--drop-link", "0:2:1"],
    ] {
        let output = ca(args);
        assert!(
            output.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}

/// Runs `ca args…` under a 2 GiB address-space cap, so a command that
/// tried to allocate a 4-billion-round run would abort.
fn ca_capped(args: &[&str]) -> Output {
    Command::new("sh")
        .args(["-c", "ulimit -v 2097152; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_ca"))
        .args(args)
        .output()
        .expect("run ca under a capped address space")
}

#[test]
fn oversized_rounds_are_an_error_only_where_a_run_is_built() {
    let rounds = ["--graph", "k2", "--rounds", "4000000000"];
    // `graphs` builds no run, so `--rounds` costs it nothing.
    let output = ca_capped(&[&["graphs"][..], &rounds].concat());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "graphs: {err}");
    // The commands that build the dense run, and `hunt`, which builds one
    // per candidate, refuse the shape before allocating it.
    for command in ["levels", "trace", "simulate", "exact", "hunt"] {
        let output = ca_capped(&[&[command][..], &rounds].concat());
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{command}: {err}");
        assert!(
            err.starts_with("error: --rounds 4000000000"),
            "{command}: {err}"
        );
        assert!(err.contains("MAX_RUN_WORDS"), "{command}: {err}");
    }
}
