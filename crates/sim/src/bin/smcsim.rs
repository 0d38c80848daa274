//! `smcsim` — run one streaming computation on a configurable Direct RDRAM
//! memory system and report effective bandwidth.
//!
//! See `smcsim --help` for the options.

use std::env;
use std::process::ExitCode;

use sim::cli;

/// A subcommand: its arguments in, its output or error out.
type Command = fn(&[String]) -> Result<String, String>;

/// The subcommands, by their first argument: each with the argument it
/// cannot do without, if any, and its body. Anything else is a run.
const COMMANDS: &[(&str, Option<&str>, Command)] = &[
    ("check", Some("a trace file"), |args| {
        cli::run_check(&args[0]).map(|report| report + "\n")
    }),
    ("report", None, cli::run_report),
    ("campaign", None, cli::run_campaign_cmd),
    ("serve", None, cli::run_serve_cmd),
];

fn fail(message: &str, code: u8) -> ExitCode {
    eprintln!("smcsim: {message}");
    ExitCode::from(code)
}

/// Exit codes: 0 ok, 1 a failed run or gate, 2 bad arguments.
fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cli::usage());
        return ExitCode::SUCCESS;
    }
    let command = COMMANDS
        .iter()
        .find(|(name, _, _)| args.first().is_some_and(|a| a == name));
    let outcome = match command {
        Some((name, Some(needs), _)) if args.len() == 1 => {
            return fail(&format!("{name} needs {needs}\n{}", cli::usage()), 2);
        }
        Some((_, _, run)) => run(&args[1..]),
        None => match cli::parse(&args) {
            Ok(job) => cli::execute(&job),
            Err(e) => return fail(&e, 2),
        },
    };
    match outcome {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e, 1),
    }
}
