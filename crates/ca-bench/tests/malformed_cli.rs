//! Malformed input files through the real binary: every entry point that
//! reads a file must exit 1 with `error:` (never a panic's 101 or an
//! abort's 134) and leave `--out` unwritten.
//!
//! Two kinds of case. Run shapes: a `Run` inside a `ReplayRun` fault is
//! checked once, by its deserializer, on every path that reads one: the
//! chaos and hunt `--replay` files, `serve --schedule`, and the hunt and
//! serve `--compare` baselines that embed a schedule. And a fixed table of
//! mutations — truncations, a float past f64's range, a string or `null`
//! for a number, control bytes flipped in at seeded positions — applied to
//! the checked-in goldens and to the hunt golden's shrunk schedule, through
//! every `--compare`, `--replay` and `--schedule` reader.

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

/// Runs `ca args… FILE --out OUT`, checks the typed failure and returns its
/// stderr.
fn assert_refused(name: &str, args: &[&str], file: &Path, want: &str) -> String {
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
    // `sweep` prints its table on stderr before it reads the baseline.
    let last = err.lines().last().unwrap_or_default();
    assert!(last.starts_with("error: "), "{name} {args:?}: {err}");
    assert!(err.contains(want), "{name} {args:?}: {err}");
    assert!(!out.exists(), "{name} {args:?}: --out was written");
    err.into_owned()
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

/// One fixed damage to a well-formed input file.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Cut the text (trailing whitespace trimmed) after this many eighths.
    Truncate(usize),
    /// Replace the target's float field with this literal.
    Float(&'static str),
    /// Replace the target's integer field with this literal.
    Number(&'static str),
    /// Overwrite one byte outside the string literals with a control byte,
    /// both drawn from this seed ([`flip_byte`]).
    Flip(u64),
}

const MUTATIONS: &[(&str, Mutation)] = &[
    ("cut_1_8", Mutation::Truncate(1)),
    ("cut_1_2", Mutation::Truncate(4)),
    ("cut_7_8", Mutation::Truncate(7)),
    // Past f64's range: a parse error, never an infinity that the report
    // cannot serialize again.
    ("float_1e400", Mutation::Float("1e400")),
    ("number_as_string", Mutation::Number("\"7\"")),
    ("number_as_null", Mutation::Number("null")),
    // A flipped byte is a parse error whose message escapes the byte.
    ("flip_1", Mutation::Flip(1)),
    ("flip_2", Mutation::Flip(2)),
    ("flip_3", Mutation::Flip(3)),
    ("flip_4", Mutation::Flip(4)),
];

/// `text` with the byte at a seeded position outside its string literals
/// (quotes excluded) overwritten by a seeded control byte in `0x01..=0x08`,
/// which JSON admits nowhere outside a string.
fn flip_byte(text: &str, seed: u64) -> String {
    // splitmix64: one fixed draw per seed.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let (mut in_string, mut escaped) = (false, false);
    let outside: Vec<usize> = (text.bytes().enumerate())
        .filter_map(|(i, b)| {
            let outside = !in_string && b != b'"';
            if escaped {
                escaped = false;
            } else if in_string && b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = !in_string;
            }
            outside.then_some(i)
        })
        .collect();
    let mut bytes = text.as_bytes().to_vec();
    bytes[outside[(z % outside.len() as u64) as usize]] = 1 + (z >> 32) as u8 % 8;
    String::from_utf8(bytes).expect("an ASCII byte for an ASCII byte")
}

/// `text` with the scalar after the first `"key": ` replaced by `with`.
fn replace_value(text: &str, key: &str, with: &str) -> String {
    let pattern = format!("\"{key}\": ");
    let at = text.find(&pattern).expect("key in the input") + pattern.len();
    let end = at + text[at..].find([',', '\n', '}']).expect("end of the value");
    assert!(
        text[at..end].parse::<f64>().is_ok(),
        "`{key}` holds a number"
    );
    format!("{}{with}{}", &text[..at], &text[end..])
}

/// The object after `"key": ` in `text`, braces balanced.
fn object_at<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text
        .find(&format!("\"{key}\": {{"))
        .expect("key in the input")
        + key.len()
        + 4;
    let mut depth = 0;
    for (i, c) in text[start..].char_indices() {
        depth += match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        };
        if depth == 0 {
            return &text[start..=start + i];
        }
    }
    panic!("unbalanced object at `{key}`")
}

/// A file-reading entry point and the well-formed input it accepts.
struct Target {
    /// `ca` arguments up to the file.
    args: &'static [&'static str],
    /// The input the mutations damage.
    text: String,
    /// The field a [`Mutation::Float`] replaces (an integer one where the
    /// input has no float).
    float: &'static str,
    /// The field a [`Mutation::Number`] replaces.
    number: &'static str,
    /// What every refusal names.
    want: &'static str,
}

#[test]
fn mutated_goldens_and_schedules_are_refused() {
    let hunt = golden("hunt_k2_seed7.json");
    let shrunk = object_at(&hunt, "shrunk").to_owned();
    let schedule = |args| Target {
        args,
        text: shrunk.clone(),
        float: "base_latency",
        number: "start",
        want: "bad schedule in",
    };
    let targets = [
        Target {
            args: &["hunt", "--graph", "k2", "--seed", "7", "--compare"],
            text: hunt.clone(),
            float: "exact_ta",
            number: "m",
            want: "bad hunt report in",
        },
        Target {
            args: &[
                "sweep",
                "--m",
                "96",
                "--trials",
                "40",
                "--seed",
                "7",
                "--compare",
            ],
            text: golden("sweep_m96_trials40_seed7.json"),
            float: "p",
            number: "trials",
            want: "bad sweep report in",
        },
        Target {
            args: &["serve", "--smoke", "--report", "--compare"],
            text: golden("serve_smoke.json"),
            float: "decided_per_kticks",
            number: "instances",
            want: "bad serve report in",
        },
        Target {
            args: &[
                "exact",
                "--sweep",
                "--graph",
                "k4",
                "--rounds",
                "2",
                "--t",
                "2",
                "--compare",
            ],
            text: golden("exact_k4_n2_t2.json"),
            float: "rounds",
            number: "num",
            want: "bad sweep report in",
        },
        schedule(&["chaos", "--graph", "k2", "--t", "4", "--replay"]),
        schedule(&["hunt", "--graph", "k2", "--replay"]),
        schedule(&["serve", "--smoke", "--report", "--schedule"]),
    ];
    let mut escaped_bytes = 0;
    for target in &targets {
        for &(name, mutation) in MUTATIONS {
            let text = match mutation {
                Mutation::Truncate(eighths) => {
                    let text = target.text.trim_end();
                    text[..text.len() * eighths / 8].to_owned()
                }
                Mutation::Float(with) => replace_value(&target.text, target.float, with),
                Mutation::Number(with) => replace_value(&target.text, target.number, with),
                Mutation::Flip(seed) => flip_byte(&target.text, seed),
            };
            let file = tmp_path(name);
            std::fs::write(&file, text).expect("write the mutated input");
            let err = assert_refused(name, target.args, &file, target.want);
            if let Mutation::Float(_) = mutation {
                assert!(
                    err.contains("out of range"),
                    "{name} {:?}: {err}",
                    target.args
                );
            }
            if let Mutation::Flip(_) = mutation {
                assert!(
                    !err.contains(|c: char| c.is_control() && c != '\n'),
                    "{name} {:?}: a raw control byte in {err:?}",
                    target.args
                );
                escaped_bytes += usize::from(err.contains("unexpected `\\x0"));
            }
            let _ = std::fs::remove_file(&file);
        }
    }
    assert!(escaped_bytes > 0, "no flip landed where a value starts");
}
