//! Repository hygiene: the vendored stand-ins stay in step with the
//! manifests that name them, and every package inherits the workspace lint
//! policy (`[workspace.lints]` in the root manifest), so a new crate cannot
//! drop `unsafe_code = "forbid"` or `missing_docs = "deny"` unnoticed.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The package directories under `dir`, sorted.
fn packages(dir: &str) -> Vec<PathBuf> {
    let entries =
        fs::read_dir(root().join(dir)).unwrap_or_else(|e| panic!("cannot list {dir}: {e}"));
    let mut dirs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

fn dir_name(dir: &Path) -> String {
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

#[test]
fn vendored_stubs_match_the_manifests_that_name_them() {
    let manifest = read(&root().join("Cargo.toml"));
    let stubs = packages("vendor");
    assert!(!stubs.is_empty(), "no vendored stubs found");
    // serde_derive is reachable only through serde's path dependency.
    let stub_manifests: String = stubs.iter().map(|d| read(&d.join("Cargo.toml"))).collect();
    let mut problems = Vec::new();
    for dir in &stubs {
        let name = dir_name(dir);
        if !read(&dir.join("Cargo.toml")).contains(&format!("name = \"{name}\"")) {
            problems.push(format!(
                "vendor/{name}: package name differs from its directory"
            ));
        }
        if !manifest.contains(&format!("\"vendor/{name}\""))
            && !stub_manifests.contains(&format!("\"../{name}\""))
        {
            problems.push(format!(
                "vendor/{name}: named by neither the root manifest nor another stub"
            ));
        }
        let doc = read(&dir.join("src/lib.rs"));
        if !doc.lines().next().is_some_and(|l| l.contains("stand-in")) {
            problems.push(format!(
                "vendor/{name}: the crate doc must open by calling it a stand-in"
            ));
        }
    }
    for line in manifest.lines() {
        if let Some((_, rest)) = line.split_once("path = \"vendor/") {
            let stub = rest.split('"').next().unwrap_or_default();
            if !root()
                .join("vendor")
                .join(stub)
                .join("Cargo.toml")
                .is_file()
            {
                problems.push(format!("Cargo.toml names a missing stub vendor/{stub}"));
            }
        }
    }
    assert!(problems.is_empty(), "vendor drift: {problems:#?}");
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let mut manifests = vec![root().join("Cargo.toml")];
    manifests.extend(packages("crates").iter().map(|d| d.join("Cargo.toml")));
    assert!(manifests.len() > 1, "no crates found");
    let missing: Vec<String> = manifests
        .iter()
        .filter(|m| {
            !read(m)
                .split_once("\n[lints]\n")
                .is_some_and(|(_, table)| table.starts_with("workspace = true\n"))
        })
        .map(|m| m.strip_prefix(root()).unwrap_or(m).display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`: {missing:?}"
    );
}
