//! `smcbench` command line.
//!
//! ```text
//! smcbench --list
//! smcbench --workload <name> [--seed <n>] [--seconds <n>] [--trace [0|1]]
//!          [--out <file.json>] [--spans <file.jsonl>]
//! ```
//!
//! Prints one `workload metric value unit` line per metric, a digest line,
//! and, last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exit status: 0 when every output check passed, 1 when one
//! failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use smcbench::catalog::{self, Kind, MetricInfo, Workload};
use smcbench::{inputs, layers, pass, stats};

const USAGE: &str = "usage: smcbench --list\n       smcbench --workload <name> [--seed <n>] [--seconds <n>] [--trace [0|1]] [--out <file.json>] [--spans <file.jsonl>]";

/// Fewest timed passes, however short `--seconds` is.
const MIN_PASSES: usize = 4;
/// Campaign executor threads in the timed passes.
const CAMPAIGN_WORKERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

enum Command {
    List,
    Run(Args),
}

fn value(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    argv.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    value(argv, flag)?
        .parse()
        .map_err(|_| format!("{flag} takes an unsigned integer"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 10;
    let mut trace = false;
    let mut out = None;
    let mut spans = None;
    let mut pending: Option<String> = None;
    while let Some(arg) = pending.take().or_else(|| argv.next()) {
        match arg.as_str() {
            "--list" => return Ok(Command::List),
            "--workload" => {
                let name = value(&mut argv, "--workload")?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = number(&mut argv, "--seed")?,
            "--seconds" => seconds = number(&mut argv, "--seconds")?,
            "--trace" => {
                // `--trace` alone means on; `--trace 0|1` sets it.
                trace = true;
                match argv.next() {
                    Some(v) if v == "0" => trace = false,
                    Some(v) if v == "1" => {}
                    other => pending = other,
                }
            }
            "--out" => out = Some(PathBuf::from(value(&mut argv, "--out")?)),
            "--spans" => spans = Some(PathBuf::from(value(&mut argv, "--spans")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
        spans,
    }))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::List) => {
            print!("{}", catalog::list_text());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(args)) => args,
        Err(e) => {
            eprintln!("smcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("smcbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// A metric's samples from this run.
struct Measured {
    info: &'static MetricInfo,
    samples: Vec<f64>,
}

fn measured(name: &str, samples: Vec<f64>) -> Measured {
    Measured {
        info: catalog::metric(name).expect("every reported metric is in the catalog"),
        samples,
    }
}

/// Run the benchmark; `Ok(false)` when an output check failed.
fn run(args: &Args, started: Instant) -> Result<bool, String> {
    let w = args.workload;

    // Set-up (build the inputs, then warm up) precedes every timed pass,
    // so `setup_s` samples the same stretch of host time as `wall_s`:
    // this host slows down for seconds at a time, and set-ups bunched at
    // the start would all land in one such stretch. The first repetition
    // also covers process start and argument parsing.
    let budget = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    let mut outcomes = Vec::new();
    let mut t0 = started;
    let measuring = Instant::now();
    let inputs = loop {
        let inputs = inputs::build(w, args.seed, 1);
        pass::warm_up(&inputs);
        setup_s.push(t0.elapsed().as_secs_f64());
        if walls.len() >= MIN_PASSES && measuring.elapsed() >= budget {
            break inputs;
        }
        let start = Instant::now();
        let outcome = pass::run_pass(&inputs, CAMPAIGN_WORKERS);
        walls.push(start.elapsed().as_secs_f64());
        outcomes.push(outcome);
        t0 = Instant::now();
    };

    let first = &outcomes[0];
    let mut problems = first.problems.clone();
    if outcomes.iter().any(|o| o.digest != first.digest) {
        problems.push("passes disagree on the digest".to_string());
    }
    if first.store.is_some() && pass::run_pass(&inputs, 1).store != first.store {
        problems.push("campaign stores differ between 1 and 2 workers".to_string());
    }

    let untraced_pass_s = stats::median(&walls);
    let traced = args
        .trace
        .then(|| layers::run_traced(&inputs, untraced_pass_s));
    if let Some(t) = &traced {
        problems.extend(t.problems.iter().cloned());
    }
    let rss = stats::peak_rss_mib()?;

    let per_pass = |f: &dyn Fn(&pass::PassOutcome) -> f64| outcomes.iter().map(f).collect();
    let e2e = vec![
        measured("wall_s", walls.clone()),
        measured(
            "sim_mcycles_per_s",
            outcomes
                .iter()
                .zip(&walls)
                .map(|(o, s)| o.sim_cycles as f64 / s / 1e6)
                .collect(),
        ),
        measured("setup_s", setup_s),
        measured("peak_rss_mib", vec![rss]),
        measured("sim_cycles", per_pass(&|o| o.sim_cycles as f64)),
        measured("bw_permille", per_pass(&pass::PassOutcome::bw_permille)),
        measured(
            "served_permille",
            per_pass(&pass::PassOutcome::served_permille),
        ),
    ];
    let per_layer: Vec<Measured> = traced
        .as_ref()
        .map(|t| {
            t.metrics
                .iter()
                .map(|(name, v)| measured(name, vec![*v]))
                .collect()
        })
        .unwrap_or_default();

    let reported: &[Measured] = if args.trace { &per_layer } else { &e2e };
    for m in reported {
        println!(
            "{} {} {} {}",
            w.name(),
            m.info.name,
            stats::median(&m.samples),
            m.info.unit
        );
    }
    println!("{} digest {:016x} fnv1a64", w.name(), first.digest);
    for p in &problems {
        eprintln!("smcbench: check failed: {p}");
    }

    let correct = problems.is_empty();
    if let Some(path) = &args.out {
        let all: Vec<&Measured> = e2e.iter().chain(&per_layer).collect();
        let doc = out_json(args, walls.len(), first.digest, correct, &problems, &all);
        std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let (Some(path), Some(t)) = (&args.spans, &traced) {
        std::fs::write(path, t.spans.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.info.name,
                num(stats::median(&m.samples)),
                m.info.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

/// A finite number in JSON form (non-finite values cannot occur from the
/// ratios above, whose denominators are checked, but JSON has no NaN).
fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `--out` document: every metric's samples and summary.
fn out_json(
    args: &Args,
    passes: usize,
    digest: u64,
    correct: bool,
    problems: &[String],
    metrics: &[&Measured],
) -> String {
    let mut doc = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"passes\": {passes},\n  \"digest\": \"{digest:016x}\",\n  \"correct\": {correct},\n  \"problems\": [{}],\n  \"metrics\": {{\n",
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", ")
    );
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            let (q1, q3) = stats::quartiles(&m.samples);
            let samples: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
            format!(
                "    {}: {{\"unit\": {}, \"kind\": \"{}\", \"samples\": [{}], \"median\": {}, \"q1\": {}, \"q3\": {}, \"count\": {}}}",
                json_str(m.info.name),
                json_str(m.info.unit),
                if m.info.kind == Kind::Exact { "exact" } else { "host" },
                samples.join(", "),
                num(stats::median(&m.samples)),
                num(q1),
                num(q3),
                m.samples.len()
            )
        })
        .collect();
    doc.push_str(&rows.join(",\n"));
    doc.push_str("\n  }\n}\n");
    doc
}
