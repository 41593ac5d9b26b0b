//! # maps-experiments
//!
//! The figure/table reproduction harness: every evaluation panel of the
//! MAPS paper (Figs. 6–8, Fig. 10) is encoded as a [`PanelSpec`] — a
//! swept parameter, a world builder, and the compared strategies, each
//! under its table label — and regenerated by the `fig6` / `fig7` /
//! `fig8` / `fig10` binaries. `run_all` executes every panel, the
//! ablation included. Every study is one [`run_panel`], and every cell
//! runs the per-period batch loop, `maps_simulator::Simulation::run`.
//!
//! The `ablation` binary runs panel `maps` of figure `ablation`
//! ([`panels::ablation`]): seven MAPS variants — the default, Algorithm
//! 3's pseudocode Δ rule, no UCB optimism, the Sec. 4.2.2 change
//! detector, Sec. 4.2.3 smoothing, Appendix C.6's `L̃` and no plateau
//! lookahead — and BaseP, on the Table-3 default world at `|W|` = 5000.
//! It takes the figures' flags (`--quick`, `--seeds N`, `--parallel`,
//! `--no-memory`, `--max-edges K`, `--out DIR`, `--telemetry`) and, like
//! them, runs one seed by default: `--quick --seeds 2` gives the
//! two-seed quick table and `--seeds 3` the three-seed full one.
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
pub use panels::{all_panels, panel_by_name, paper_strategies, PanelSpec, Scale, StrategyBuilder};
pub use report::{print_metric_tables, write_jsonl, Row};
pub use runner::{run_panel, RunOptions};
