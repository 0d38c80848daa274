//! The counter outputs, pinned byte for byte: the `--metrics-out` JSONL, the
//! `--prom-out` exposition and the `serve --json` report. Each command line
//! is regenerated through `cli::parse` and `cli::execute` and compared with
//! the committed files under `tests/golden/`, so a change to any counter's
//! name, position, kind, unit, help string or value shows up as a byte
//! diff.

use std::path::Path;

use sim::cli;

/// A serve of two latency-sensitive and four bandwidth-hungry tenants on
/// two interleaved channels.
const SERVE: &str = "--tenants ls:2:daxpy:256+bh:4:copy:256 --arb regulated \
                     --budget-permille 500 --channels 2 --placement interleaved:1024 \
                     --fault-seed 7 --retry-budget 2 --json";

/// Run `args` with each `(flag, file)` output written to a scratch
/// directory, then compare every output, and the printed report when
/// `stdout` names a file, with the committed bytes of that file.
fn check(case: &str, args: &str, outputs: &[(&str, &str)], stdout: Option<&str>) {
    let dir = std::env::temp_dir().join(format!("sim-pinned-{case}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut argv: Vec<String> = args.split_whitespace().map(String::from).collect();
    for (flag, file) in outputs {
        argv.push((*flag).to_string());
        argv.push(dir.join(file).display().to_string());
    }
    let job = cli::parse(&argv).unwrap_or_else(|e| panic!("{case}: {e}"));
    let printed = cli::execute(&job).unwrap_or_else(|e| panic!("{case}: {e}"));
    let mut produced: Vec<(&str, String)> = outputs
        .iter()
        .map(|(_, file)| (*file, std::fs::read_to_string(dir.join(file)).unwrap()))
        .collect();
    produced.extend(stdout.map(|file| (file, printed)));
    std::fs::remove_dir_all(&dir).ok();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (file, text) in produced {
        let want = std::fs::read_to_string(golden.join(file)).unwrap();
        assert_eq!(
            text, want,
            "{case}: {file} differs from tests/golden/{file}"
        );
    }
}

#[test]
fn counter_outputs_match_the_pinned_bytes() {
    // The telemetry CI run: SMC counters, attribution and histograms.
    check(
        "daxpy-smc-cli",
        "--kernel daxpy --n 1024 --memory cli --order smc --fifo 64",
        &[
            ("--metrics-out", "daxpy-smc-cli.metrics.jsonl"),
            ("--prom-out", "daxpy-smc-cli.prom"),
        ],
        None,
    );
    // The natural-order controller's rows.
    check(
        "copy-natural-cli",
        "--kernel copy --n 1024 --memory cli --order natural",
        &[("--metrics-out", "copy-natural-cli.metrics.jsonl")],
        None,
    );
    // A chaotic kernel run: every fault and recovery counter is nonzero.
    check(
        "copy-smc-chaos",
        "--kernel copy --n 1024 --memory cli --order smc --fifo 32 --channels 2 \
         --placement interleaved:1024 \
         --chaos brownout:0:100:1500:4;outage:1:400:600;devfail:1:0:2000:2",
        &[("--metrics-out", "copy-smc-chaos.metrics.jsonl")],
        None,
    );
    // A chaotic serve: every fault and recovery counter is nonzero.
    check(
        "serve-chaos",
        &format!("{SERVE} --chaos brownout:0:0:4000:4;outage:1:0:900;devfail:1:0:2000:2"),
        &[("--metrics-out", "serve-chaos.metrics.jsonl")],
        Some("serve-chaos.json"),
    );
    // A one-slot admission queue: the closed loop schedules retries.
    check(
        "serve-retry",
        &format!("{SERVE} --queue-cap 1"),
        &[("--metrics-out", "serve-retry.metrics.jsonl")],
        Some("serve-retry.json"),
    );
}
