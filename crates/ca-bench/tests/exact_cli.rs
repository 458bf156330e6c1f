//! Golden tests of the `ca exact --sweep` subcommand, driving the real
//! binary.
//!
//! Pins the byte-stability contract of the level-DP sweep report: same
//! `(graph, rounds, t)` ⟹ byte-identical JSON (exact rationals, no clocks),
//! which is what makes the `--compare` drift gate meaningful, and pins four
//! reports byte for byte against checked-in goldens. Also pins the headline
//! capability: a sweep at `--rounds 100` succeeds where run enumeration
//! would refuse (`2^(3 + 6·100)` executions on K3).

use std::path::PathBuf;
use std::process::Command;

fn ca_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca"))
}

fn tmp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ca_exact_cli_{}_{name}.json", std::process::id()));
    path
}

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The checked-in sweep goldens: `(graph, rounds, t, file)`. An intended
/// change to the DP's output regenerates them with `--out` and says why.
const GOLDENS: &[(&str, &str, &str, &str)] = &[
    // §8's headline instance: the frontier-bound K3 at N = t = 1000.
    ("k3", "1000", "1000", "exact_k3_n1000_t1000.json"),
    // Kernel-bound: K4's 12 directed edges, the most the DP accepts.
    ("k4", "2", "2", "exact_k4_n2_t2.json"),
    // The saturation clip path: N = 2t folds bases onto the cap.
    ("k4", "6", "3", "exact_k4_n6_t3.json"),
    // A sparse graph at the edge cap, with the most classes per round.
    ("ring6", "4", "3", "exact_ring6_n4_t3.json"),
    // Past the frontier's fixed point (round 4): the sweep stops there and
    // adds the remaining rounds' counters in closed form.
    ("k2", "4000000000", "2", "exact_k2_n4000000000_t2.json"),
];

#[test]
fn sweep_reports_match_the_checked_in_goldens() {
    for &(graph, rounds, t, file) in GOLDENS {
        let out = tmp_path(&format!("golden_{graph}_{rounds}_{t}"));
        let output = ca_bin()
            .args([
                "exact", "--sweep", "--graph", graph, "--rounds", rounds, "--t", t, "--out",
            ])
            .arg(&out)
            .output()
            .expect("run ca exact --sweep");
        assert!(
            output.status.success(),
            "{file}: ca exact --sweep exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        let got = std::fs::read(&out).expect("read the report");
        let want = std::fs::read(golden(file)).expect("read the golden");
        assert!(
            got == want,
            "{file}: the sweep report drifted from the golden"
        );
        let _ = std::fs::remove_file(&out);
    }
}

/// The memoized kernels of a sparse graph fit a small address space: ring6
/// at N = 4 interns thousands of classes, each with its own kernel, and must
/// still finish under a 256 MiB `ulimit -v`.
#[cfg(target_os = "linux")]
#[test]
fn sparse_sweep_fits_a_256_mib_address_space() {
    let out = tmp_path("ring6_capped");
    let output = Command::new("sh")
        .args([
            "-c",
            "ulimit -v 262144; exec \"$0\" \"$@\"",
            env!("CARGO_BIN_EXE_ca"),
            "exact",
            "--sweep",
            "--graph",
            "ring6",
            "--rounds",
            "4",
            "--t",
            "3",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("run ca under a capped address space");
    assert!(
        output.status.success(),
        "ca exact --sweep under ulimit -v exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let got = std::fs::read(&out).expect("read the report");
    let want = std::fs::read(golden("exact_ring6_n4_t3.json")).expect("read the golden");
    assert!(
        got == want,
        "the capped ring6 report drifted from the golden"
    );
    let _ = std::fs::remove_file(&out);
}

#[test]
fn sweep_report_is_byte_identical_across_invocations() {
    let out_a = tmp_path("a");
    let out_b = tmp_path("b");
    for out in [&out_a, &out_b] {
        let output = ca_bin()
            .args([
                "exact", "--sweep", "--graph", "k3", "--rounds", "100", "--t", "100", "--out",
            ])
            .arg(out)
            .output()
            .expect("run ca exact --sweep");
        assert!(
            output.status.success(),
            "ca exact --sweep exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let a = std::fs::read(&out_a).expect("read first report");
    let b = std::fs::read(&out_b).expect("read second report");
    assert!(!a.is_empty());
    assert_eq!(a, b, "sweep reports must be byte-identical");
    assert_eq!(a.last(), Some(&b'\n'), "report file ends with a newline");
    let text = String::from_utf8(a).expect("report is UTF-8");
    // The §8 shape at N = t = 100, far past the 2^24 enumeration wall:
    // liveness 1 first at round 100, U_s = ε = 1/100 exactly.
    assert!(text.contains("\"first_certain_round\": 100"), "{text}");
    assert!(
        text.contains("\"u_s\": {\n    \"num\": 1,\n    \"den\": 100\n  }"),
        "{text}"
    );
    let _ = std::fs::remove_file(&out_a);
    let _ = std::fs::remove_file(&out_b);
}

#[test]
fn sweep_compare_gate_passes_on_identical_and_fails_on_drift() {
    let baseline = tmp_path("baseline");
    let args = [
        "exact", "--sweep", "--graph", "k2", "--rounds", "24", "--t", "24",
    ];
    let output = ca_bin()
        .args(args)
        .arg("--out")
        .arg(&baseline)
        .output()
        .expect("write baseline");
    assert!(output.status.success());

    // Same configuration: the gate passes (and --out may refresh in place).
    let same = ca_bin()
        .args(args)
        .arg("--compare")
        .arg(&baseline)
        .output()
        .expect("run ca exact --sweep --compare");
    assert!(
        same.status.success(),
        "identical sweep must pass the drift gate: {}",
        String::from_utf8_lossy(&same.stderr)
    );

    // Different budget: the exact rationals drift, the gate fails.
    let drifted = ca_bin()
        .args([
            "exact",
            "--sweep",
            "--graph",
            "k2",
            "--rounds",
            "24",
            "--t",
            "12",
            "--compare",
        ])
        .arg(&baseline)
        .output()
        .expect("run drifted compare");
    assert!(!drifted.status.success(), "a drifted sweep must fail");
    let err = String::from_utf8_lossy(&drifted.stderr);
    assert!(err.contains("drifted from the baseline"), "{err}");

    let _ = std::fs::remove_file(&baseline);
}

#[test]
fn sweep_rejects_ineligible_graphs_with_a_typed_error() {
    let output = ca_bin()
        .args([
            "exact", "--sweep", "--graph", "k5", "--rounds", "4", "--t", "4",
        ])
        .output()
        .expect("run ca exact --sweep on K5");
    assert!(!output.status.success(), "K5 has 20 directed edges > 12");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("error:"), "{err}");
}
