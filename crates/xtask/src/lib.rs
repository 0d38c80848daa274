//! Repository-specific static analysis (`cargo run -p xtask -- lint`).
//!
//! A span-aware analyzer built from three layers:
//!
//! * [`lexer`] — a token-level Rust lexer (strings, raw strings, nested
//!   block comments, char literals vs lifetimes) with byte spans and
//!   line/column positions;
//! * [`engine`] — per-file region analyses shared by every rule:
//!   `#[cfg(test)]` masking, float-boundary masking, match-expression
//!   structure;
//! * [`rules`] — the rule families. Besides the ported no-panic /
//!   no-float / crate-hygiene rules, three families fence the
//!   determinism and cycle-exactness guarantees the simulator's goldens
//!   rest on: **no-nondeterminism** (randomized containers, unstable
//!   hashers, wall-clock reads), **cycle-integrity** (truncating casts and
//!   unchecked arithmetic on cycle-carrying values in device/controller
//!   hot paths), and **exhaustive-match** (`_ =>` wildcard arms over
//!   protocol enums).
//!
//! Findings carry file/line/column and render as text, JSON, or SARIF
//! ([`report`]). Suppressions live in `lint-allow.txt`
//! ([`allowlist`]) with stale-entry detection; the fixture corpus under
//! `tests/fixtures/` proves each rule fires on known-bad input and stays
//! silent on known-good input.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use engine::{Finding, SourceFile};

/// Crates whose non-test code must be panic-free, float-free, and free of
/// nondeterminism (they feed DeviceStats, telemetry, campaign stores, or
/// the serve loop).
pub const HOT_PATH_CRATES: &[&str] = &[
    "rdram",
    "smc",
    "baseline",
    "faults",
    "checker",
    "telemetry",
    "campaign",
    "tenancy",
    "memsys",
];

/// Extra files held to the no-panic standard with no allowlist escape
/// hatch (entries naming them are reported as stale).
pub const NO_ALLOWLIST_FILES: &[&str] = &["crates/sim/src/runner.rs", "crates/sim/src/cli.rs"];

/// `sim` files that feed deterministic stores and so are scanned for
/// panics and nondeterminism (allowlist-eligible, unlike
/// [`NO_ALLOWLIST_FILES`]).
pub const SIM_DETERMINISTIC_FILES: &[&str] =
    &["crates/sim/src/serve.rs", "crates/sim/src/counters.rs"];

/// Controller/device hot-path files under the cycle-integrity rule: this
/// is where the paper's integer-cycle timing rules live.
pub const CYCLE_HOT_FILES: &[&str] = &[
    "crates/rdram/src/device.rs",
    "crates/rdram/src/bank.rs",
    "crates/rdram/src/bus.rs",
    "crates/rdram/src/refresh.rs",
    "crates/rdram/src/packet.rs",
    "crates/rdram/src/timing.rs",
    "crates/smc/src/msu.rs",
    "crates/smc/src/controller.rs",
    "crates/baseline/src/controller.rs",
    "crates/memsys/src/system.rs",
    "crates/memsys/src/map.rs",
    "crates/faults/src/injector.rs",
    "crates/tenancy/src/retry.rs",
];

/// Crates that must carry `#![deny(missing_docs)]`.
pub const STRICT_DOCS_CRATES: &[&str] = &[
    "rdram",
    "smc",
    "baseline",
    "faults",
    "checker",
    "telemetry",
    "campaign",
    "tenancy",
    "memsys",
];

/// Name of the checked-in allowlist at the repository root.
pub const ALLOWLIST: &str = "lint-allow.txt";

/// Which rule families to run on one file.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// `.unwrap()` / `.expect(` / `panic!(` and friends.
    pub no_panic: bool,
    /// Float types and literals outside declared boundaries.
    pub no_float: bool,
    /// Randomized containers, unstable hashers, wall-clock reads.
    pub no_nondeterminism: bool,
    /// Truncating casts / unchecked cycle arithmetic.
    pub cycle_integrity: bool,
    /// `_ =>` wildcard arms over protocol enums.
    pub exhaustive_match: bool,
}

impl RuleSet {
    /// Every token-level rule family enabled (fixture corpus runs).
    pub fn all() -> Self {
        RuleSet {
            no_panic: true,
            no_float: true,
            no_nondeterminism: true,
            cycle_integrity: true,
            exhaustive_match: true,
        }
    }
}

/// Run the enabled token-level rules over already-loaded source text.
/// This is the entry point the fixture corpus tests drive.
pub fn scan_source(rel: &str, text: &str, rules: RuleSet) -> Vec<Finding> {
    let file = SourceFile::new(rel, text);
    let mut out = Vec::new();
    if rules.no_panic {
        out.extend(rules::no_panic(&file));
    }
    if rules.no_float {
        out.extend(rules::no_float(&file));
    }
    if rules.no_nondeterminism {
        out.extend(rules::no_nondeterminism(&file));
    }
    if rules.cycle_integrity {
        out.extend(rules::cycle_integrity(&file));
    }
    if rules.exhaustive_match {
        out.extend(rules::exhaustive_match(&file));
    }
    out
}

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_of(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .display()
        .to_string()
}

/// The rule set a repository file gets, derived from its path.
fn ruleset_for(rel: &str) -> RuleSet {
    let in_hot_crate = HOT_PATH_CRATES
        .iter()
        .any(|k| rel.starts_with(&format!("crates/{k}/src/")));
    let no_allowlist = NO_ALLOWLIST_FILES.iter().any(|p| rel.ends_with(p));
    let sim_det = SIM_DETERMINISTIC_FILES.iter().any(|p| rel.ends_with(p));
    RuleSet {
        no_panic: in_hot_crate || no_allowlist || sim_det,
        // sim's runner/CLI legitimately derive float bandwidth figures.
        no_float: in_hot_crate,
        no_nondeterminism: in_hot_crate || sim_det || rel.ends_with("crates/sim/src/runner.rs"),
        cycle_integrity: CYCLE_HOT_FILES.iter().any(|p| rel.ends_with(p)),
        // Wildcard-arm hygiene applies to every crate in the workspace.
        exhaustive_match: rel.starts_with("crates/") && rel.contains("/src/"),
    }
}

/// Everything one lint run produces.
pub struct LintOutcome {
    /// Findings that survived the allowlist (including stale-allowlist
    /// findings). Empty means the lint passes.
    pub findings: Vec<Finding>,
}

/// Run the full repository lint rooted at `root`.
pub fn run_lint(root: &Path) -> Result<LintOutcome, String> {
    let allow_path = root.join(ALLOWLIST);
    let allow_text = fs::read_to_string(&allow_path)
        .map_err(|e| format!("cannot read {}: {e}", allow_path.display()))?;
    let mut allow = allowlist::parse(&allow_text, ALLOWLIST)?;

    let mut findings = Vec::new();

    // Token-level rules over every crate source file.
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs.into_iter().filter(|d| d.is_dir()) {
            rust_files(&dir.join("src"), &mut files);
        }
    }
    for file in &files {
        let rel = rel_of(root, file);
        let rules = ruleset_for(&rel);
        let any = rules.no_panic
            || rules.no_float
            || rules.no_nondeterminism
            || rules.cycle_integrity
            || rules.exhaustive_match;
        if !any {
            continue;
        }
        match fs::read_to_string(file) {
            Ok(text) => findings.extend(scan_source(&rel, &text, rules)),
            Err(e) => findings.push(Finding {
                rule: "no-panic",
                path: rel,
                line: 0,
                col: 0,
                message: format!("cannot read file: {e}"),
            }),
        }
    }

    // Whole-crate and vendor hygiene checks.
    check_forbid_unsafe(root, &mut findings);
    check_strict_docs(root, &mut findings);
    check_vendor_drift(root, &mut findings);

    let findings = allowlist::apply(findings, &mut allow, NO_ALLOWLIST_FILES, ALLOWLIST);
    Ok(LintOutcome { findings })
}

fn check_forbid_unsafe(root: &Path, findings: &mut Vec<Finding>) {
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return;
    };
    let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    dirs.sort();
    for dir in dirs.into_iter().filter(|d| d.is_dir()) {
        let lib = dir.join("src/lib.rs");
        let main = dir.join("src/main.rs");
        let entry = if lib.is_file() { lib } else { main };
        let rel = rel_of(root, &entry);
        match fs::read_to_string(&entry) {
            Ok(text) if text.contains("#![forbid(unsafe_code)]") => {}
            Ok(_) => findings.push(Finding {
                rule: "forbid-unsafe",
                path: rel,
                line: 1,
                col: 1,
                message: "crate root lacks `#![forbid(unsafe_code)]`".into(),
            }),
            Err(e) => findings.push(Finding {
                rule: "forbid-unsafe",
                path: rel,
                line: 0,
                col: 0,
                message: format!("cannot read crate root: {e}"),
            }),
        }
    }
}

fn check_strict_docs(root: &Path, findings: &mut Vec<Finding>) {
    for krate in STRICT_DOCS_CRATES {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        let rel = rel_of(root, &lib);
        match fs::read_to_string(&lib) {
            Ok(text) if text.contains("#![deny(missing_docs)]") => {}
            Ok(_) => findings.push(Finding {
                rule: "strict-docs",
                path: rel,
                line: 1,
                col: 1,
                message: "hot-path crate must carry `#![deny(missing_docs)]`".into(),
            }),
            Err(e) => findings.push(Finding {
                rule: "strict-docs",
                path: rel,
                line: 0,
                col: 0,
                message: format!("cannot read crate root: {e}"),
            }),
        }
    }
}

fn check_vendor_drift(root: &Path, findings: &mut Vec<Finding>) {
    let vendor = root.join("vendor");
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let Ok(entries) = fs::read_dir(&vendor) else {
        return;
    };
    let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    dirs.sort();
    // Concatenated manifests of all stubs, for intra-vendor references
    // (serde_derive is reachable only through serde's path dependency).
    let vendor_manifests: String = dirs
        .iter()
        .filter(|d| d.is_dir())
        .filter_map(|d| fs::read_to_string(d.join("Cargo.toml")).ok())
        .collect();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let rel = format!("vendor/{name}");
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        if !manifest.contains(&format!("name = \"{name}\"")) {
            findings.push(Finding {
                rule: "vendor-drift",
                path: format!("{rel}/Cargo.toml"),
                line: 1,
                col: 1,
                message: format!("package name must match directory name `{name}`"),
            });
        }
        let referenced = root_manifest.contains(&format!("vendor/{name}\""))
            || vendor_manifests.contains(&format!("../{name}\""));
        if !referenced {
            findings.push(Finding {
                rule: "vendor-drift",
                path: format!("{rel}/Cargo.toml"),
                line: 1,
                col: 1,
                message: "stub is referenced by neither the workspace manifest nor another stub"
                    .into(),
            });
        }
        match fs::read_to_string(dir.join("src/lib.rs")) {
            Ok(text) if text.contains("stand-in") => {}
            Ok(_) => findings.push(Finding {
                rule: "vendor-drift",
                path: format!("{rel}/src/lib.rs"),
                line: 1,
                col: 1,
                message: "stub must document itself as an offline stand-in".into(),
            }),
            Err(e) => findings.push(Finding {
                rule: "vendor-drift",
                path: format!("{rel}/src/lib.rs"),
                line: 0,
                col: 0,
                message: format!("cannot read stub root: {e}"),
            }),
        }
    }
    // Reverse direction: every vendor path the workspace names must exist.
    for line in root_manifest.lines() {
        if let Some(pos) = line.find("path = \"vendor/") {
            let rest = &line[pos + "path = \"".len()..];
            if let Some(end) = rest.find('"') {
                let path = &rest[..end];
                if !root.join(path).join("Cargo.toml").is_file() {
                    findings.push(Finding {
                        rule: "vendor-drift",
                        path: "Cargo.toml".into(),
                        line: 1,
                        col: 1,
                        message: format!("workspace references missing stub `{path}`"),
                    });
                }
            }
        }
    }
}
