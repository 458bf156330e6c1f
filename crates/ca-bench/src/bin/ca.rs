//! `ca`: a command-line explorer for the coordinated-attack workspace.
//!
//! ```text
//! ca levels   --graph k2 --rounds 8 --cut 4        # level tables for a run
//! ca trace    --graph k3 --rounds 5 --epsilon 0.25 # one traced execution of S
//! ca simulate --graph k2 --rounds 8 --epsilon 0.125 --cut 4 --trials 20000
//! ca exact    --graph star4 --rounds 8 --t 5 --cut 3
//! ca exact    --sweep --graph k3 --rounds 1000 --t 1000 --out exact_sweep.json
//! ca exact    --sweep --graph k3 --rounds 24 --t 24 --compare exact_sweep.json
//! ca chaos    --graph k3 --deadline 16 --t 4 --schedules 64 --seed 7
//! ca chaos    --graph k3 --deadline 16 --t 4 --replay shrunk.json
//! ca hunt     --graph k2 --rounds 8 --t 8 --seed 7          # adversary search
//! ca hunt     --graph k2 --replay worst.json                # re-score a schedule
//! ca hunt     --graph k2 --seed 7 --compare hunt_smoke.json # fail on drift
//! ca expt                                          # every experiment, quick scale
//! ca expt     --full --csv results/                # paper-grade, tables as CSV
//! ca expt     e4 x1                                # only the named experiments
//! ca profile  --out profile.json                   # per-experiment engine metrics
//! ca profile  --compare profile.json               # fail if stable counters drift
//! ca profile  --timed --out BENCH_experiments.json # median wall of 5 runs per section
//! ca profile  --timed --compare BENCH_experiments.json # also fail on slower medians
//! ca serve    --smoke --report                     # sharded service under chaos load
//! ca serve    --smoke --compare serve_smoke.json   # fail on drift / p99 regression
//! ca sweep    --m 1000 --trials 100 --out sweep.json    # big-graph frontiers
//! ca sweep    --m 1000 --trials 100 --compare sweep.json # fail on drift
//! ca graphs                                        # list available topologies
//! ```
//!
//! Graph names: `k<m>` (complete), `line<m>`, `ring<m>`, `star<m>`,
//! `grid<r>x<c>`, `cube<d>`, `torus<r>x<c>`.
//!
//! The five report commands (`profile`, `serve`, `sweep`, `exact --sweep`,
//! `hunt`) share one gate, [`publish`]: each report type
//! supplies only its drift rule and messages through [`GatedReport`].

use ca_analysis::exact::protocol_s_outcomes;
use ca_analysis::experiments::{Experiment, Scale};
use ca_analysis::level_dp::{self, DpSpec, SweepReport};
use ca_analysis::report::Table;
use ca_analysis::{run_sweep, ScenarioSweepConfig, ScenarioSweepReport};
use ca_async::campaign::{evaluate_schedule, run_campaign, CampaignConfig};
use ca_async::experiments::registry;
use ca_async::{Arrival, CourierSpec, FaultSchedule, HuntConfig, HuntReport, ServeConfig};
use ca_async::{ServeReport, ServeTotals};
use ca_bench::profile::{self, ProfileConfig, ProfileReport};
use ca_core::bitset::BitSet;
use ca_core::exec::execute;
use ca_core::graph::Graph;
use ca_core::ids::{ProcessId, Round};
use ca_core::level::{levels, modified_levels};
use ca_core::run::{MsgSlot, Run};
use ca_core::tape::TapeSet;
use ca_obs::Snapshot;
use ca_protocols::ProtocolS;
use ca_sim::trace::{render_run, render_trace};
use ca_sim::{simulate, FixedRun, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One subcommand: its name, its `--help` entry, and its body.
struct Command {
    name: &'static str,
    /// Flags and summary for `--help`; empty when [`FLAGS_HELP`] covers it.
    help: &'static str,
    run: fn(&Opts, &Graph) -> Result<(), String>,
}

/// Every subcommand, in `--help` order. The usage line, the help text, and
/// the unknown-command error are all generated from this table.
const COMMANDS: &[Command] = &[
    Command {
        name: "levels",
        help: "",
        run: levels_cmd,
    },
    Command {
        name: "trace",
        help: "",
        run: trace_cmd,
    },
    Command {
        name: "simulate",
        help: "",
        run: simulate_cmd,
    },
    Command {
        name: "exact",
        help: "[--sweep] [--out FILE] [--compare OLD.json] — one run's \
               exact outcome distribution; with --sweep, the exhaustive worst \
               case over ALL runs (every input subset × delivery pattern) via \
               the level-vector DP, as byte-stable JSON: the full §8 curve at \
               --rounds N is polynomial in N, where enumeration stops at \
               2^24 executions; --compare fails on any drift from a baseline",
        run: exact_cmd,
    },
    Command {
        name: "chaos",
        help: "--deadline T --schedules K --max-faults F --threads W \
               --mc-trials K --out FILE --replay FILE [--spans]",
        run: chaos_cmd,
    },
    Command {
        name: "hunt",
        help: "[--generations G] [--population P] [--budget K] \
               [--rounds N] [--t T] [--max-faults F] [--seed S] [--threads W] \
               [--out FILE] [--replay FILE] [--compare OLD.json] [--spans] — \
               adaptive adversary search for the paper's worst-case fault \
               schedule; the report is byte-stable in (graph, config) at any \
               --threads; --replay re-scores a saved schedule; --compare fails \
               if the report drifted from a baseline",
        run: hunt_cmd,
    },
    Command {
        name: "expt",
        help: "[--full] [--trials K] [--seed S] [--list] [--spans] [--csv DIR] \
               [ID ...] — run the E1–E12 paper suite and the X1–X7 extensions \
               (all, or the named ids, case-insensitive) at quick scale and \
               seed 0xca11 unless overridden, printing each table with its \
               paper-shape verdict; --csv writes one CSV per table; exits 1 if \
               any check fails",
        run: expt_cmd,
    },
    Command {
        name: "profile",
        help: "[--full] [--trials K] [--threads W] [--timed] [--spans] \
               [--out FILE] [--compare OLD.json] — capture each experiment's \
               verdict, engine counters, histograms, and span trees \
               (byte-stable by default); --timed runs each section once to \
               warm up, then 5 times on the clock, and reports the median \
               wall time and its MAD (BENCH_experiments.json); --compare fails \
               if any stable counter drifted or, with both reports timed, a \
               median rose past both 25% and 4 MADs (needs an obs-enabled \
               build)",
        run: profile_cmd,
    },
    Command {
        name: "serve",
        help: "[--smoke] [--instances N] [--shards N] [--queue-bound N] \
               [--budget T] [--retries N] [--deadline T] [--t T] \
               [--arrival-gap G | --closed] [--schedule FILE | --latency L] \
               [--seed S] [--threads W] [--timed] [--report] [--out FILE] \
               [--compare OLD.json] [--p99-budget PCT] — run a sharded \
               coordination service (instances of async S over one courier) \
               under load; the aggregate report is byte-stable in (scale, \
               seed) at any --threads; --compare fails if stable counters \
               drift or p99 decision latency regresses past the budget \
               (default 25%)",
        run: serve_cmd,
    },
    Command {
        name: "sweep",
        help: "[--m N] [--trials K] [--seed S] [--threads W] \
               [--out FILE] [--compare OLD.json] — topology × weak-adversary \
               tradeoff frontiers on generated big graphs (grid, small world, \
               scale free × iid and Gilbert–Elliott loss) via the sparse level \
               frontier; byte-stable JSON on stdout (table on stderr) at any \
               --threads; --compare fails on any drift from a baseline",
        run: sweep_cmd,
    },
    Command {
        name: "graphs",
        help: "",
        run: graphs_cmd,
    },
];

/// The flags most commands share, for `--help`.
const FLAGS_HELP: &str = "flags: --graph NAME --rounds N --epsilon E | --t T --cut R \
                          --drop-link F:T:R --trials K --seed S";

fn parse_graph(name: &str) -> Result<Graph, String> {
    let err = |e: ca_core::ModelError| format!("bad graph `{name}`: {e}");
    if let Some(m) = name.strip_prefix('k') {
        return Graph::complete(m.parse().map_err(|_| format!("bad size in `{name}`"))?)
            .map_err(err);
    }
    if let Some(m) = name.strip_prefix("line") {
        return Graph::line(m.parse().map_err(|_| format!("bad size in `{name}`"))?).map_err(err);
    }
    if let Some(m) = name.strip_prefix("ring") {
        return Graph::ring(m.parse().map_err(|_| format!("bad size in `{name}`"))?).map_err(err);
    }
    if let Some(m) = name.strip_prefix("star") {
        return Graph::star(m.parse().map_err(|_| format!("bad size in `{name}`"))?).map_err(err);
    }
    if let Some(d) = name.strip_prefix("cube") {
        return Graph::hypercube(d.parse().map_err(|_| format!("bad dim in `{name}`"))?)
            .map_err(err);
    }
    type GraphCtor = fn(usize, usize) -> Result<Graph, ca_core::ModelError>;
    for (prefix, ctor) in [
        ("grid", Graph::grid as GraphCtor),
        ("torus", Graph::torus as GraphCtor),
    ] {
        if let Some(dims) = name.strip_prefix(prefix) {
            let (r, c) = dims
                .split_once('x')
                .ok_or_else(|| format!("`{name}` needs RxC dimensions"))?;
            let r = r.parse().map_err(|_| format!("bad rows in `{name}`"))?;
            let c = c.parse().map_err(|_| format!("bad cols in `{name}`"))?;
            return ctor(r, c).map_err(err);
        }
    }
    Err(format!("unknown graph `{name}` (try `ca graphs`)"))
}

#[derive(Debug)]
struct Opts {
    graph: String,
    rounds: u32,
    epsilon: f64,
    t: u64,
    cut: Option<u32>,
    drop_link: Option<(u32, u32, u32)>,
    trials: u64,
    seed: u64,
    deadline: u64,
    schedules: u64,
    max_faults: usize,
    threads: usize,
    mc_trials: u64,
    out: Option<String>,
    replay: Option<String>,
    full: bool,
    timed: bool,
    spans: bool,
    explicit_trials: Option<u64>,
    compare: Option<String>,
    sweep: bool,
    // `sweep` command: process count for the generated topologies.
    m: usize,
    // `serve` flags. Options so a preset (`--smoke`) keeps its tuning unless
    // a flag is given explicitly.
    instances: Option<u64>,
    shards: Option<usize>,
    queue_bound: Option<usize>,
    budget: Option<u64>,
    retries: Option<u32>,
    arrival_gap: Option<u64>,
    closed: bool,
    smoke: bool,
    report: bool,
    schedule: Option<String>,
    latency: Option<u64>,
    p99_budget: u64,
    // `hunt` flags.
    generations: u32,
    population: usize,
    // `expt` flags and its positional experiment ids.
    list: bool,
    csv: Option<PathBuf>,
    ids: Vec<String>,
    deadline_set: bool,
    t_set: bool,
    seed_set: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            graph: "k2".to_owned(),
            rounds: 8,
            epsilon: 0.125,
            t: 8,
            cut: None,
            drop_link: None,
            trials: 10_000,
            seed: 42,
            deadline: 16,
            schedules: 64,
            max_faults: 4,
            threads: 0,
            mc_trials: 200,
            out: None,
            replay: None,
            full: false,
            timed: false,
            spans: false,
            explicit_trials: None,
            compare: None,
            sweep: false,
            m: 1000,
            instances: None,
            shards: None,
            queue_bound: None,
            budget: None,
            retries: None,
            arrival_gap: None,
            closed: false,
            smoke: false,
            report: false,
            schedule: None,
            latency: None,
            p99_budget: 25,
            generations: 6,
            population: 24,
            list: false,
            csv: None,
            ids: Vec::new(),
            deadline_set: false,
            t_set: false,
            seed_set: false,
        }
    }
}

impl Opts {
    /// The firing range `t = 1/ε` for the commands that analyse an integer
    /// `t` (`exact`, `chaos`, `hunt`, `serve`). An `--epsilon` whose
    /// reciprocal is not an integer (within 1e-9, relative) is an error
    /// rather than silently rounded to a different ε.
    fn integer_t(&self) -> Result<u64, String> {
        let t = self.t as f64;
        if (1.0 / self.epsilon - t).abs() <= 1e-9 * t {
            Ok(self.t)
        } else {
            Err(format!(
                "--epsilon {} is not 1/t for an integer t, and this command \
                 analyses ε = 1/t exactly; pass the firing range with --t",
                self.epsilon
            ))
        }
    }
}

/// Parses `value` as the number `flag` takes.
fn num<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag}"))
}

/// Parses the flags after the command name. Bare words are experiment ids
/// when `takes_ids` (only `ca expt` takes them) and errors otherwise.
fn parse_opts(args: &[String], takes_ids: bool) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut next = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires {what}"))
        };
        match arg.as_str() {
            "--graph" => opts.graph = next("a graph name")?,
            "--rounds" => opts.rounds = num(arg, next("a count")?)?,
            "--epsilon" => {
                let epsilon: f64 = num(arg, next("a value")?)?;
                if epsilon.is_nan() || epsilon <= 0.0 || epsilon > 1.0 {
                    return Err(format!("--epsilon must be in (0, 1], got {epsilon}"));
                }
                opts.epsilon = epsilon;
                opts.t = (1.0 / epsilon).round() as u64;
                opts.t_set = true;
            }
            "--t" => {
                opts.t = num(arg, next("a value")?)?;
                if opts.t == 0 {
                    return Err("--t must be at least 1 (ε = 1/t)".to_owned());
                }
                opts.epsilon = 1.0 / opts.t as f64;
                opts.t_set = true;
            }
            "--cut" => opts.cut = Some(num(arg, next("a round")?)?),
            "--drop-link" => {
                let spec = next("FROM:TO:ROUND")?;
                let parts: Vec<_> = spec.split(':').collect();
                if parts.len() != 3 {
                    return Err("--drop-link needs FROM:TO:ROUND".to_owned());
                }
                opts.drop_link = Some((
                    parts[0].parse().map_err(|_| "bad FROM".to_owned())?,
                    parts[1].parse().map_err(|_| "bad TO".to_owned())?,
                    parts[2].parse().map_err(|_| "bad ROUND".to_owned())?,
                ));
            }
            "--trials" => {
                opts.trials = num(arg, next("a count")?)?;
                opts.explicit_trials = Some(opts.trials);
            }
            "--full" => opts.full = true,
            "--sweep" => opts.sweep = true,
            "--m" => opts.m = num(arg, next("a count")?)?,
            "--timed" => opts.timed = true,
            "--spans" => opts.spans = true,
            "--seed" => {
                opts.seed = num(arg, next("a seed")?)?;
                opts.seed_set = true;
            }
            "--deadline" => {
                opts.deadline = num(arg, next("a time")?)?;
                opts.deadline_set = true;
            }
            "--schedules" => opts.schedules = num(arg, next("a count")?)?,
            "--max-faults" => opts.max_faults = num(arg, next("a count")?)?,
            "--threads" => opts.threads = num(arg, next("a count")?)?,
            "--mc-trials" => opts.mc_trials = num(arg, next("a count")?)?,
            "--out" => opts.out = Some(next("a file path")?),
            "--compare" => opts.compare = Some(next("a baseline report")?),
            "--replay" => opts.replay = Some(next("a schedule file")?),
            "--instances" => opts.instances = Some(num(arg, next("a count")?)?),
            "--shards" => opts.shards = Some(num(arg, next("a count")?)?),
            "--queue-bound" => opts.queue_bound = Some(num(arg, next("a count")?)?),
            "--budget" => opts.budget = Some(num(arg, next("ticks")?)?),
            "--retries" => opts.retries = Some(num(arg, next("a count")?)?),
            "--arrival-gap" => opts.arrival_gap = Some(num(arg, next("ticks")?)?),
            "--closed" => opts.closed = true,
            "--smoke" => opts.smoke = true,
            "--report" => opts.report = true,
            "--schedule" => opts.schedule = Some(next("a schedule file")?),
            "--latency" => opts.latency = Some(num(arg, next("ticks")?)?),
            "--p99-budget" => opts.p99_budget = num(arg, next("a percentage")?)?,
            "--generations" => opts.generations = num(arg, next("a count")?)?,
            "--population" => opts.population = num(arg, next("a count")?)?,
            "--list" => opts.list = true,
            "--csv" => opts.csv = Some(next("a directory")?.into()),
            id if takes_ids && !id.starts_with('-') => opts.ids.push(id.to_owned()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// The run `levels`, `trace`, `simulate` and `exact` (without `--sweep`)
/// analyse: the good `--rounds` run, cut by `--cut` and `--drop-link`.
/// `Run::from_parts` refuses an oversized `--rounds` before allocating.
fn build_run(graph: &Graph, opts: &Opts) -> Result<Run, String> {
    let n = opts.rounds;
    let good = graph
        .directed_edges()
        .flat_map(|(a, b)| Round::protocol_rounds(n).map(move |r| MsgSlot::new(a, b, r)));
    let mut run = Run::from_parts(graph.len(), n, BitSet::full(graph.len()), good)
        .map_err(|e| format!("--rounds {n}: {e}"))?;
    if let Some(cut) = opts.cut {
        run.cut_from_round(Round::new(cut));
    }
    if let Some((from, to, round)) = opts.drop_link {
        let m = graph.len();
        if from as usize >= m || to as usize >= m {
            return Err(format!(
                "--drop-link {from}:{to}:{round} names a process outside the graph (m = {m})"
            ));
        }
        run.cut_link_from_round(ProcessId::new(from), ProcessId::new(to), Round::new(round));
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("usage: ca <{}> [flags] (see --help)", names.join("|"));
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" {
        println!(
            "ca — explore the coordinated-attack model\ncommands: {}\n{FLAGS_HELP}",
            names.join(", ")
        );
        for c in COMMANDS.iter().filter(|c| !c.help.is_empty()) {
            println!("{}: {}", c.name, c.help);
        }
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|c| c.name == command) {
        Some(c) => parse_opts(&args[1..], c.name == "expt").and_then(|opts| {
            let graph = parse_graph(&opts.graph)?;
            (c.run)(&opts, &graph)
        }),
        None => Err(format!("unknown command `{command}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// The gate: one path from a finished report to stdout, `--out`, `--compare`.
// ---------------------------------------------------------------------------

/// A report `ca` prints, writes with `--out`, and gates with `--compare`.
/// Each report is already free of threads and clocks when it is built, so
/// the trait holds only what differs between reports: the noun in
/// `bad … report` errors and the drift rule with its messages.
trait GatedReport: Serialize + Deserialize {
    /// The report's name in `bad … report in FILE` errors.
    const NOUN: &'static str;

    /// Applies the drift rule against `baseline`, printing any diff table
    /// and the pass note; `Err` carries the failure message.
    fn check(&self, baseline: &Self, opts: &Opts) -> Result<(), String>;
}

/// Pretty JSON, the byte form of every report.
fn to_json<T: Serialize>(value: &T) -> String {
    serde::json::to_string_pretty(value).expect("reports are always serializable")
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// `--out FILE`: writes the JSON with a trailing newline.
fn write_out(opts: &Opts, json: &str) -> Result<(), String> {
    match &opts.out {
        Some(path) => std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write `{path}`: {e}")),
        None => Ok(()),
    }
}

fn read_schedule(path: &str) -> Result<FaultSchedule, String> {
    FaultSchedule::from_json(&read_file(path)?)
        .map_err(|e| format!("bad schedule in `{path}`: {e}"))
}

/// `--spans`: a human-readable metrics and span-tree dump on stderr, so
/// stdout stays pure JSON.
fn dump_spans(opts: &Opts, snapshot: &Snapshot, timed: bool) {
    if !opts.spans {
        return;
    }
    if ca_obs::ENABLED {
        eprint!("{}", ca_obs::render(snapshot, timed));
    } else {
        eprintln!(
            "note: --spans needs an observability-enabled build \
             (the default `ca`); nothing was recorded"
        );
    }
}

/// Shows the report (`show` gets its JSON), then gates it. The `--compare`
/// baseline is read *before* `--out` writes, so `--out F --compare F`
/// still diffs against the bytes `F` held before this run.
fn publish<R: GatedReport>(report: &R, opts: &Opts, show: impl FnOnce(&str)) -> Result<(), String> {
    let json = to_json(report);
    show(&json);
    let baseline: Option<R> = match &opts.compare {
        Some(path) => Some(
            serde::json::from_str(&read_file(path)?)
                .map_err(|e| format!("bad {} report in `{path}`: {e}", R::NOUN))?,
        ),
        None => None,
    };
    write_out(opts, &json)?;
    match baseline {
        Some(baseline) => report.check(&baseline, opts),
        None => Ok(()),
    }
}

/// The byte-equality drift rule of the exact and integer-only reports:
/// any difference is a real change, never timer noise.
fn byte_identical<R: Serialize>(new: &R, old: &R, pass: &str, fail: &str) -> Result<(), String> {
    if to_json(new) != to_json(old) {
        return Err(fail.to_owned());
    }
    eprintln!("{pass}");
    Ok(())
}

impl GatedReport for ProfileReport {
    const NOUN: &'static str = "profile";

    /// Fails unless every stable counter matches exactly and, when both
    /// reports are timed, no section's median wall time regressed.
    fn check(&self, baseline: &Self, _: &Opts) -> Result<(), String> {
        let cmp = profile::compare_profiles(baseline, self);
        print!("{cmp}");
        let mut problems = Vec::new();
        let changed = cmp.changed();
        if !changed.is_empty() {
            problems.push(format!(
                "stable counters drifted from the baseline: {}",
                changed.join(", ")
            ));
        }
        let slower = cmp.slower();
        if !slower.is_empty() {
            problems.push(format!(
                "median wall time regressed >{}% and past 4 MADs on: {}",
                profile::REGRESSION_THRESHOLD_PCT,
                slower.join(", ")
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl GatedReport for ServeReport {
    const NOUN: &'static str = "serve";

    /// Fails unless the stable counters match and p99 stays in budget.
    fn check(&self, baseline: &Self, opts: &Opts) -> Result<(), String> {
        let problems = ca_async::compare_reports(baseline, self, opts.p99_budget);
        if problems.is_empty() {
            eprintln!("serve compare: stable counters match, p99 within budget");
            return Ok(());
        }
        for p in &problems {
            eprintln!("  {p}");
        }
        Err(format!(
            "serve report regressed from the baseline ({} problem(s))",
            problems.len()
        ))
    }
}

impl GatedReport for ScenarioSweepReport {
    const NOUN: &'static str = "sweep";

    fn check(&self, baseline: &Self, _: &Opts) -> Result<(), String> {
        byte_identical(
            self,
            baseline,
            "sweep compare: byte-identical to the baseline",
            "scenario sweep drifted from the baseline \
             (integer tallies disagree — not timer noise)",
        )
    }
}

impl GatedReport for SweepReport {
    const NOUN: &'static str = "sweep";

    fn check(&self, baseline: &Self, _: &Opts) -> Result<(), String> {
        byte_identical(
            self,
            baseline,
            "exact compare: byte-identical to the baseline",
            "exact sweep drifted from the baseline \
             (exact rationals disagree — not timer noise)",
        )
    }
}

impl GatedReport for HuntReport {
    const NOUN: &'static str = "hunt";

    fn check(&self, baseline: &Self, _: &Opts) -> Result<(), String> {
        byte_identical(
            self,
            baseline,
            "hunt compare: byte-identical modulo --threads",
            "hunt report regressed from the baseline (byte drift)",
        )
    }
}

// ---------------------------------------------------------------------------
// Commands.
// ---------------------------------------------------------------------------

fn levels_cmd(opts: &Opts, graph: &Graph) -> Result<(), String> {
    let run = &build_run(graph, opts)?;
    print!("{}", render_run(run));
    let l = levels(run);
    let ml = modified_levels(run);
    let mut table = Table::new(["process", "L_i(R)", "ML_i(R)"]);
    for i in graph.vertices() {
        table.push_row([
            i.to_string(),
            l.level(i).to_string(),
            ml.level(i).to_string(),
        ]);
    }
    println!("\n{table}");
    println!("L(R) = {}, ML(R) = {}", l.min_level(), ml.min_level());
    Ok(())
}

fn trace_cmd(opts: &Opts, graph: &Graph) -> Result<(), String> {
    let run = &build_run(graph, opts)?;
    let proto = ProtocolS::new(opts.epsilon);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let tapes = TapeSet::random(&mut rng, graph.len(), 64);
    let ex = execute(&proto, graph, run, &tapes);
    print!("{}", render_trace(graph, run, &ex));
    Ok(())
}

fn simulate_cmd(opts: &Opts, graph: &Graph) -> Result<(), String> {
    let report = simulate(
        &ProtocolS::new(opts.epsilon),
        graph,
        &FixedRun::new(build_run(graph, opts)?),
        SimConfig::new(opts.trials, opts.seed),
    );
    println!("{report}");
    Ok(())
}

fn exact_cmd(opts: &Opts, graph: &Graph) -> Result<(), String> {
    let t = opts.integer_t()?;
    if !opts.sweep {
        let run = &build_run(graph, opts)?;
        let out = protocol_s_outcomes(graph, run, t);
        let ml = modified_levels(run).min_level();
        println!("ML(R) = {ml}, ε = 1/{t}");
        println!(
            "Pr[TA|R] = {}   Pr[NA|R] = {}   Pr[PA|R] = {}",
            out.ta, out.na, out.pa
        );
        return Ok(());
    }
    // Exhaustive worst case over ALL runs via the level-vector DP, as
    // byte-stable JSON: no clocks, interned-state order, exact rationals.
    let n = opts.rounds;
    // 3N/4 in u64: `3 * n` overflows u32 past N = 1,431,655,765.
    let mut checkpoints: Vec<u32> = [1, n / 4, n / 2, (u64::from(n) * 3 / 4) as u32, n]
        .into_iter()
        .filter(|&c| c >= 1)
        .collect();
    checkpoints.dedup();
    let report = level_dp::sweep(graph, n, &DpSpec::protocol_s(t), &checkpoints)
        .map_err(|e| e.to_string())?;
    publish(&report, opts, |json| println!("{json}"))
}

fn chaos_cmd(opts: &Opts, graph: &Graph) -> Result<(), String> {
    let config = CampaignConfig {
        schedules: opts.schedules,
        seed: opts.seed,
        deadline: opts.deadline,
        t: opts.integer_t()?,
        max_faults: opts.max_faults,
        threads: opts.threads,
        mc_trials: opts.mc_trials,
    };
    let (json, snapshot) = match &opts.replay {
        // Replay a saved (typically shrunk) schedule against the oracles
        // instead of sampling a fresh campaign.
        Some(path) => {
            let schedule = read_schedule(path)?;
            ca_obs::capture(|| to_json(&evaluate_schedule(graph, &config, 0, schedule)))
        }
        None => ca_obs::capture(|| to_json(&run_campaign(graph, &config))),
    };
    println!("{json}");
    dump_spans(opts, &snapshot, true);
    write_out(opts, &json)
}

fn hunt_cmd(opts: &Opts, graph: &Graph) -> Result<(), String> {
    // Every candidate induces a dense `--rounds` run: check its shape once,
    // before the search builds one per candidate.
    Run::from_parts(graph.len(), opts.rounds, BitSet::new(graph.len()), [])
        .map_err(|e| format!("--rounds {}: {e}", opts.rounds))?;
    let mut config = HuntConfig::quick(opts.seed);
    config.generations = opts.generations;
    config.population = opts.population.max(1);
    if let Some(b) = opts.budget {
        config.budget = b;
    }
    config.rounds = opts.rounds;
    config.t = opts.integer_t()?;
    config.max_faults = opts.max_faults;
    config.threads = opts.threads;
    config.elites = (config.population / 6).max(2).min(config.population);
    if let Some(path) = &opts.replay {
        // Re-score a saved (typically shrunk) schedule instead of running a
        // fresh search.
        let json = to_json(&ca_async::replay_schedule(
            graph,
            &config,
            read_schedule(path)?,
        ));
        println!("{json}");
        return write_out(opts, &json);
    }
    let (report, snapshot) = ca_obs::capture(|| ca_async::run_hunt(graph, &config));
    publish(&report, opts, |json| {
        println!("{json}");
        dump_spans(opts, &snapshot, true);
    })
}

fn expt_cmd(opts: &Opts, _: &Graph) -> Result<(), String> {
    let all = registry();
    if opts.list {
        for e in &all {
            println!("{:4}  {}", e.id(), e.title());
        }
        return Ok(());
    }
    let chosen: Vec<&dyn Experiment> = if opts.ids.is_empty() {
        all.iter().map(AsRef::as_ref).collect()
    } else {
        opts.ids
            .iter()
            .map(|id| {
                all.iter()
                    .find(|e| e.id().eq_ignore_ascii_case(id))
                    .map(AsRef::as_ref)
                    .ok_or_else(|| format!("unknown experiment id `{id}` (try --list)"))
            })
            .collect::<Result<_, _>>()?
    };
    let mut scale = Scale::resolve(opts.full, opts.explicit_trials);
    if opts.seed_set {
        scale.seed = opts.seed;
    }
    println!(
        "running {} experiment(s) at {} trials (seed {:#x})\n",
        chosen.len(),
        scale.trials,
        scale.seed
    );
    if let Some(dir) = &opts.csv {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    let mut summary = Vec::new();
    for experiment in chosen {
        let start = Instant::now();
        let (result, snapshot) = ca_obs::capture(|| experiment.run_observed(scale));
        let secs = start.elapsed().as_secs_f64();
        println!("{result}");
        println!("({secs:.1}s)\n");
        if opts.spans {
            eprintln!("-- {} engine metrics --", result.id);
            dump_spans(opts, &snapshot, true);
            eprintln!();
        }
        if let Some(dir) = &opts.csv {
            let path = dir.join(format!("{}.csv", result.id.to_lowercase()));
            std::fs::write(&path, result.table.to_csv())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        summary.push((result, secs));
    }

    println!("== summary ==");
    for (result, secs) in &summary {
        println!(
            "{:4}  {}  {:5.1}s  {}",
            result.id,
            if result.passed { "PASS" } else { "FAIL" },
            secs,
            result.title
        );
    }
    println!();
    if summary.iter().all(|(result, _)| result.passed) {
        println!("ALL EXPERIMENTS PASSED");
        Ok(())
    } else {
        println!("SOME EXPERIMENTS FAILED");
        Err("an experiment's paper-shape checks failed".to_owned())
    }
}

fn profile_cmd(opts: &Opts, _: &Graph) -> Result<(), String> {
    if !ca_obs::ENABLED {
        return Err("this `ca` was built without observability; \
                    rebuild with the default features (or `--features obs`) \
                    to use `ca profile`"
            .to_owned());
    }
    if opts.threads > 0 {
        // Pin the worker count process-wide (experiments size their own
        // pools): profiles must be identical at any width, and this is how
        // the golden test proves it.
        std::env::set_var("CA_THREADS", opts.threads.to_string());
    }
    let profiled = profile::run_profile(&ProfileConfig {
        full: opts.full,
        trials: opts.explicit_trials,
        timed: opts.timed,
    })?;
    publish(&profiled.report, opts, |json| {
        println!("{json}");
        dump_spans(opts, &profiled.totals_snapshot, opts.timed);
    })
}

fn serve_cmd(opts: &Opts, graph: &Graph) -> Result<(), String> {
    let t = opts.integer_t()?;
    // Base config: the fixed smoke preset (chaos schedule + open-loop
    // overload) or a plain reliable closed-loop service sized by --graph.
    // Explicit flags override either base.
    let mut config = if opts.smoke {
        ServeConfig::smoke(opts.seed)
    } else {
        ServeConfig::new(graph.len(), t, 512, opts.seed)
    };
    if opts.smoke && opts.t_set {
        config.t = t;
    }
    if opts.deadline_set {
        config.deadline = opts.deadline;
    }
    if let Some(v) = opts.instances {
        config.instances = v;
    }
    if let Some(v) = opts.shards {
        config.shards = v;
    }
    if let Some(v) = opts.queue_bound {
        config.queue_bound = v;
    }
    if let Some(v) = opts.budget {
        config.budget = v;
    }
    if let Some(v) = opts.retries {
        config.retries = v;
    }
    match (opts.arrival_gap, opts.closed) {
        (Some(_), true) => return Err("--arrival-gap and --closed are mutually exclusive".into()),
        (Some(gap), false) => config.arrival = Arrival::Open { mean_gap: gap },
        (None, true) => config.arrival = Arrival::Closed,
        (None, false) => {}
    }
    match (&opts.schedule, opts.latency) {
        (Some(_), Some(_)) => return Err("--schedule and --latency are mutually exclusive".into()),
        (Some(path), None) => {
            config.courier = CourierSpec::Chaos {
                schedule: read_schedule(path)?,
            }
        }
        (None, Some(latency)) => config.courier = CourierSpec::Reliable { latency },
        (None, None) => {}
    }
    config.threads = opts.threads;
    config.timed = opts.timed;
    let report = ca_async::run_serve(&config).map_err(|e| e.to_string())?;
    publish(&report, opts, |json| {
        if opts.report {
            // Pure JSON on stdout, like `ca profile`.
            println!("{json}");
        } else {
            print_serve_summary(&report.totals, config.shards, opts.timed);
        }
    })
}

fn print_serve_summary(t: &ServeTotals, shards: usize, timed: bool) {
    println!(
        "serve: {} instances over {} shards — {} decided, {} shed, \
         {} timed out, {} undecided, {} failed",
        t.instances, shards, t.decided, t.shed, t.timed_out, t.undecided, t.failed
    );
    println!(
        "verdicts: TA={} NA={} PA={}; retries={}, attempts={}",
        t.verdicts.total_attack,
        t.verdicts.no_attack,
        t.verdicts.partial_attack,
        t.retries,
        t.attempts
    );
    println!(
        "p99 decision latency <= {} ticks; virtual makespan {} ticks; \
         restarts={}, poisoned={}",
        t.p99_decision_ticks, t.virtual_makespan, t.shard_restarts, t.shards_poisoned
    );
    if timed {
        println!(
            "wall: {} ms ({:.0} instances/sec)",
            t.wall_ms, t.instances_per_sec
        );
    }
}

fn sweep_cmd(opts: &Opts, _: &Graph) -> Result<(), String> {
    // Big-graph scenario sweep: observed TA/PA/NA frontiers per topology ×
    // weak adversary, as byte-stable JSON (no clocks, integer tallies,
    // per-trial seed streams). The human-readable table goes to stderr so
    // stdout stays pure JSON.
    let mut config =
        ScenarioSweepConfig::default_at(opts.m, opts.explicit_trials.unwrap_or(100), opts.seed);
    config.threads = opts.threads;
    let report = run_sweep(&config).map_err(|e| e.to_string())?;
    publish(&report, opts, |json| {
        println!("{json}");
        eprintln!("{}", report.table());
    })
}

fn graphs_cmd(_: &Opts, _: &Graph) -> Result<(), String> {
    println!("k<m>  line<m>  ring<m>  star<m>  grid<r>x<c>  torus<r>x<c>  cube<d>");
    Ok(())
}
