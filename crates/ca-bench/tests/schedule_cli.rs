//! Hostile fault schedules through the real binary: `ca chaos --replay` and
//! `ca serve --schedule` accept any `u64` tick in a schedule file, and the
//! chaos courier's arrival arithmetic saturates rather than wraps. A
//! saturated arrival lies past every deadline, so the message never arrives:
//! no panic, no poisoned shard, no instance decided on a phantom delivery.

use ca_async::{ScheduleResult, ServeReport};
use std::path::PathBuf;
use std::process::Command;

fn ca_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca"))
}

/// Writes `json` to a per-process temp file named after `name`.
fn schedule_file(name: &str, json: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "ca_schedule_cli_{}_{name}.json",
        std::process::id()
    ));
    std::fs::write(&path, json).expect("write schedule");
    path
}

/// The three maximal-tick schedules: a base latency, a jitter bound and an
/// echo delay of `u64::MAX`, each open-ended.
fn maximal_schedules() -> [(&'static str, String); 3] {
    let max = u64::MAX;
    let window = r#"{"start":0,"end":null}"#;
    [
        (
            "base_latency",
            format!(r#"{{"seed":1,"base_latency":{max},"faults":[]}}"#),
        ),
        (
            "jitter",
            format!(
                r#"{{"seed":1,"base_latency":1,"faults":[{{"DelayJitter":{{"extra_max":{max},"window":{window}}}}}]}}"#
            ),
        ),
        (
            "echo",
            format!(
                r#"{{"seed":1,"base_latency":1,"faults":[{{"Duplicate":{{"p":1.0,"echo_delay":{max},"window":{window}}}}}]}}"#
            ),
        ),
    ]
}

#[test]
fn chaos_replay_of_maximal_ticks_runs_cleanly() {
    for (name, json) in maximal_schedules() {
        let path = schedule_file(&format!("chaos_{name}"), &json);
        let out = ca_bin()
            .args(["chaos", "--graph", "k3", "--deadline", "16", "--t", "4"])
            .arg("--replay")
            .arg(&path)
            .output()
            .expect("run ca chaos --replay");
        let _ = std::fs::remove_file(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let result: ScheduleResult = serde::json::from_str(&text).expect("a schedule result");
        assert_eq!(result.failed, None, "{name}");
        assert_eq!(result.rejected, None, "{name}");
    }
}

#[test]
fn serve_with_maximal_ticks_poisons_nothing() {
    for (name, json) in maximal_schedules() {
        let path = schedule_file(&format!("serve_{name}"), &json);
        let out = ca_bin()
            .args(["serve", "--smoke", "--report", "--schedule"])
            .arg(&path)
            .output()
            .expect("run ca serve --schedule");
        let _ = std::fs::remove_file(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {stderr}");
        let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let report = ServeReport::from_json(&text).expect("a serve report");
        let t = &report.totals;
        assert_eq!(t.shards_poisoned, 0, "{name}");
        assert_eq!(t.failed, 0, "{name}");
        if name == "base_latency" {
            // No message can arrive, so no instance can decide to attack.
            assert_eq!(t.decided, 0, "{name}");
            assert_eq!(t.verdicts.total_attack, 0, "{name}");
        }
    }
}
