//! The `repro` binary's command line: it lists the table of studies in
//! order and rejects an unknown study or flag before running anything.

use std::process::{Command, Output};

use rambus::studies::STUDIES;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn list_prints_the_table_in_order() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let names: String = STUDIES.iter().map(|s| format!("{}\n", s.name)).collect();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), names);
}

#[test]
fn unknown_studies_and_flags_exit_2_before_running_anything() {
    let names = STUDIES.iter().map(|s| s.name).collect::<Vec<_>>().join(" ");
    for args in [
        &["fig99"][..],
        &["--figure", "fig1"],
        &["fig1", "fig99"],
        &["--out"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran a study");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(stderr.contains(&names), "{args:?}: {stderr}");
    }
}
