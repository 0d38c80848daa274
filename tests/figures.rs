//! The table of studies regenerates `results/`: each study runs once, every
//! artifact matches its committed file byte for byte, and every committed
//! file is some study's artifact.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use rambus::studies::{Artifacts, STUDIES};

/// One run of every study, shared by the tests in this file.
fn studies() -> &'static BTreeMap<&'static str, Artifacts> {
    static RUN: OnceLock<BTreeMap<&'static str, Artifacts>> = OnceLock::new();
    RUN.get_or_init(|| STUDIES.iter().map(|s| (s.name, (s.run)())).collect())
}

#[test]
fn every_study_matches_its_committed_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut produced = BTreeSet::new();
    for (name, artifacts) in studies() {
        for (file, contents) in artifacts.files(name) {
            let committed = fs::read_to_string(results.join(&file)).unwrap_or_default();
            assert!(
                committed == contents,
                "results/{file} is missing or differs from the regenerated artifact; \
                 rerun `cargo run --release --bin repro -- --out results`"
            );
            produced.insert(file);
        }
    }
    let committed: BTreeSet<String> = fs::read_dir(&results)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(committed, produced, "results/ holds only study artifacts");
}

#[test]
fn every_experiment_renders_nonempty_text() {
    for (name, a) in studies() {
        assert!(
            a.text.len() > 100,
            "{name} rendered only {} bytes",
            a.text.len()
        );
    }
}

#[test]
fn structured_experiments_serialize_to_json() {
    for (name, a) in studies() {
        if ["fig1", "fig2", "fig4", "fig5", "fig6"].contains(name) {
            assert!(a.json.is_none(), "{name} is text-only");
            continue;
        }
        let Some(json) = &a.json else {
            panic!("{name} has no JSON")
        };
        let v: serde_json::Value = serde_json::from_str(json).expect("valid JSON");
        assert!(v.is_object(), "{name} must serialize to an object");
    }
}

#[test]
fn csv_experiments_have_headers_and_rows() {
    for name in ["fig7", "fig8", "fig9"] {
        let csv = studies()[name]
            .csv
            .as_deref()
            .expect("the figures have CSV");
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines.len() > 5, "{name} CSV too small");
        let cols = lines[0].split(',').count();
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.split(',').count(), cols, "{name} row {i} ragged");
        }
    }
    assert!(studies()["headline"].csv.is_none());
}

#[test]
fn svg_experiments_produce_well_formed_documents() {
    let svgs = |name: &str| studies()[name].svgs.iter();
    assert_eq!(svgs("fig7").len(), 16, "one SVG per Figure 7 panel");
    for (file, svg) in svgs("fig7").chain(svgs("fig8")).chain(svgs("fig9")) {
        assert!(file.ends_with(".svg"));
        assert!(svg.starts_with("<svg"), "{file}");
        assert!(svg.trim_end().ends_with("</svg>"), "{file}");
        assert!(svg.contains("polyline"), "{file} has no series");
    }
    assert!(studies()["headline"].svgs.is_empty());
}
