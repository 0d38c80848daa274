//! The table of studies: every table, figure and ablation that `repro`
//! regenerates, each declared once as a name and the one function that
//! runs it.
//!
//! A study's function runs its simulations once and returns all of its
//! [`Artifacts`]. `repro` selects, lists and writes studies only through
//! [`STUDIES`], and `tests/figures.rs` compares every artifact with its
//! committed file under `results/`.

use serde::Serialize;
use sim::experiments;

use crate::ablations;

/// One study: a name and the function that runs it.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// Selection name, and the stem of the study's artifact files.
    pub name: &'static str,
    /// Run the study once and return all its artifacts.
    pub run: fn() -> Artifacts,
}

/// Everything one run of a study produces.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// The plain-text rendering.
    pub text: String,
    /// The study's data as pretty-printed JSON, for the structured studies.
    pub json: Option<String>,
    /// The plottable series as CSV.
    pub csv: Option<String>,
    /// SVG figures as `(file name, document)` pairs.
    pub svgs: Vec<(String, String)>,
}

impl Artifacts {
    fn text(text: String) -> Self {
        Artifacts {
            text,
            ..Artifacts::default()
        }
    }

    fn data(text: String, data: &impl Serialize) -> Self {
        Artifacts {
            json: Some(serde_json::to_string_pretty(data).expect("study data serializes")),
            ..Artifacts::text(text)
        }
    }

    /// Every file of a study named `name`, as `(file name, contents)`:
    /// `<name>.txt`, then `<name>.json` and `<name>.csv` where the study has
    /// them, then its SVGs.
    pub fn files(&self, name: &str) -> Vec<(String, &str)> {
        let mut files = vec![(format!("{name}.txt"), self.text.as_str())];
        files.extend(self.json.as_deref().map(|j| (format!("{name}.json"), j)));
        files.extend(self.csv.as_deref().map(|c| (format!("{name}.csv"), c)));
        files.extend(self.svgs.iter().map(|(f, svg)| (f.clone(), svg.as_str())));
        files
    }
}

/// Every study, in paper order: Figures 1–9, this reproduction's
/// extension studies, the Section 6 headline claims and the ablations.
#[rustfmt::skip]
pub const STUDIES: &[Study] = &[
    Study { name: "fig1", run: || Artifacts::text(experiments::fig1::render()) },
    Study { name: "fig2", run: || Artifacts::text(experiments::fig2::render()) },
    Study { name: "fig4", run: || Artifacts::text(experiments::fig4::render()) },
    Study { name: "fig5", run: || Artifacts::text(experiments::fig56::render_fig5()) },
    Study { name: "fig6", run: || Artifacts::text(experiments::fig56::render_fig6()) },
    Study { name: "fig7", run: fig7 },
    Study { name: "fig8", run: fig8 },
    Study { name: "fig9", run: fig9 },
    Study { name: "extra", run: extra },
    Study { name: "numa", run: numa },
    Study { name: "chaos", run: chaos },
    Study { name: "headline", run: headline },
    Study { name: "ablations", run: ablations },
];

fn fig7() -> Artifacts {
    let fig = experiments::fig7::run();
    Artifacts {
        csv: Some(fig.to_csv()),
        svgs: fig.to_svgs(),
        ..Artifacts::data(fig.render(), &fig)
    }
}

fn fig8() -> Artifacts {
    let fig = experiments::fig8::run();
    Artifacts {
        csv: Some(fig.to_csv()),
        svgs: vec![("fig8.svg".into(), fig.to_svg())],
        ..Artifacts::data(fig.render(), &fig)
    }
}

fn fig9() -> Artifacts {
    let fig = experiments::fig9::run();
    Artifacts {
        csv: Some(fig.to_csv()),
        svgs: vec![("fig9.svg".into(), fig.to_svg())],
        ..Artifacts::data(fig.render(), &fig)
    }
}

fn extra() -> Artifacts {
    let data = experiments::extra::run();
    Artifacts::data(data.render(), &data)
}

fn numa() -> Artifacts {
    let data = experiments::numa::run();
    Artifacts {
        csv: Some(data.to_csv()),
        ..Artifacts::data(data.render(), &data)
    }
}

fn chaos() -> Artifacts {
    let data = experiments::chaos::run();
    Artifacts {
        csv: Some(data.to_csv()),
        ..Artifacts::data(data.render(), &data)
    }
}

fn headline() -> Artifacts {
    let data = experiments::headline::run();
    Artifacts::data(data.render(), &data)
}

fn ablations() -> Artifacts {
    let data = ablations::run();
    Artifacts::data(data.render(), &data)
}
