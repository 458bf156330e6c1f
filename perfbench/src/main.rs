//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run writes its spans to `--spans FILE`.

use perfbench::measure::result_json;
use perfbench::trace::Tracer;
use perfbench::{run_traced, run_untraced, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        let mut tracer = Tracer::new();
        let outcome = run_traced(args.workload, args.seed, args.seconds, &mut tracer);
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write_tsv(path) {
                eprintln!("error: cannot write spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        outcome
    } else {
        run_untraced(args.workload, args.seed, args.seconds)
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "error: metric {} is not a finite number: {}",
            m.name, m.value
        );
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(outcome.tally, &outcome.metrics));
    ExitCode::SUCCESS
}
