//! Regenerate the paper's tables and figures, the extension studies and the
//! ablations, from the table in `rambus::studies`.
//!
//! ```text
//! cargo run --release --bin repro                   # every study
//! cargo run --release --bin repro -- fig7           # one study
//! cargo run --release --bin repro -- --out results  # + .txt/.json/.csv/.svg files
//! cargo run --release --bin repro -- --list         # list names
//! ```
//!
//! Exit codes: 0 ok, 1 an output file could not be written, 2 bad
//! arguments.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use rambus::studies::{Study, STUDIES};

fn usage() -> String {
    let names: Vec<&str> = STUDIES.iter().map(|s| s.name).collect();
    format!(
        "usage: repro [--list] [--out DIR] [STUDY...]\nstudies: {} (default: all)",
        names.join(" ")
    )
}

fn bad_arguments(message: &str) -> ExitCode {
    eprintln!("repro: {message}\n{}", usage());
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut help, mut list) = (false, false);
    let mut out_dir: Option<PathBuf> = None;
    let mut selected: Vec<&Study> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => help = true,
            "--list" => list = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(dir.into()),
                None => return bad_arguments("--out requires a directory"),
            },
            name => match STUDIES.iter().find(|s| s.name == name) {
                Some(study) => selected.push(study),
                None => return bad_arguments(&format!("unknown study or flag {name:?}")),
            },
        }
    }
    if help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if list {
        for study in STUDIES {
            println!("{}", study.name);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("repro: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if selected.is_empty() {
        selected = STUDIES.iter().collect();
    }
    for study in selected {
        let artifacts = (study.run)();
        println!("{}\n{}", "=".repeat(72), artifacts.text);
        let Some(dir) = &out_dir else { continue };
        for (file, contents) in artifacts.files(study.name) {
            if let Err(e) = fs::write(dir.join(&file), contents) {
                eprintln!("repro: cannot write {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
