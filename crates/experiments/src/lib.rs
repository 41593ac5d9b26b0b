//! # maps-experiments
//!
//! The figure/table reproduction harness: every evaluation panel of the
//! MAPS paper (Figs. 6–8, Fig. 10) is encoded as a [`PanelSpec`] — a
//! swept parameter, a world builder, and the five compared strategies —
//! and regenerated by the `fig6` / `fig7` / `fig8` / `fig10` binaries.
//! `run_all` executes every panel; `ablation` measures MAPS
//! design-choice variants. Every cell runs the per-period batch loop,
//! `maps_simulator::Simulation::run`.
//!
//! Output: paper-style text tables on stdout plus one JSON-lines file
//! per panel under `results/` for machine consumption.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod panels;
pub mod report;
pub mod runner;

pub use cli::{CliArgs, CliError};
pub use panels::{all_panels, panel_by_name, PanelSpec, Scale};
pub use report::{print_metric_tables, write_jsonl, Row};
pub use runner::{run_panel, RunOptions};
