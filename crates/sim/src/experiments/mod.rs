//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each submodule produces a serializable result plus a plain-text
//! rendering. The root package's table of studies names each one once,
//! and its `repro` binary (`cargo run --release --bin repro`) runs them and
//! writes `results/`, which EXPERIMENTS.md compares with the paper.

pub mod chaos;
pub mod extra;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod fig56;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod grid;
pub mod headline;
pub mod numa;
