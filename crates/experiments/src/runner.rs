//! Sweep execution: runs every (x, strategy) cell of a panel through
//! [`Simulation::run`], the per-period batch loop the paper evaluates,
//! optionally in parallel, and aggregates seeds into [`Row`]s. Every
//! study — the paper's panels and the MAPS ablation — runs here.
//!
//! ## Determinism contract
//!
//! [`run_panel`] is the workspace's one parallel call. Both modes walk
//! the same `(cell × seed)` job grid, so `num_seeds`-fold averaging
//! parallelizes too; `parallel` only chooses whether the jobs are
//! mapped with `par_iter` or `iter`. Every job is seeded by its own
//! `(x, strategy, seed)` coordinates (never by anything
//! schedule-dependent), jobs are collected in job order, and each
//! cell's seeds are aggregated in seed order. Rows are therefore
//! **bit-identical** to the serial mode (modulo the serial-only
//! memory/timing columns) at any thread count — enforced by
//! `seed_parallel_rows_bitwise_deterministic` below. Root `clippy.toml`
//! bans `par_iter` everywhere else.

use crate::panels::{PanelSpec, Scale, StrategyBuilder};
use crate::report::Row;
use maps_simulator::alloc::TrackingAllocator;
use maps_simulator::{GroundTruth, Outcome, SimOptions, Simulation};
use rayon::prelude::*;

/// Options controlling a panel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Dataset scale.
    pub scale: Scale,
    /// Seeds to average over (the paper reports single runs; averaging
    /// over ≥1 seeds reduces Monte-Carlo noise in the tables).
    pub num_seeds: u64,
    /// Run the `(cell × seed)` jobs in parallel. Wall-clock timings and
    /// peak-memory figures are only meaningful in serial mode; parallel
    /// mode is for fast revenue-shape iteration.
    pub parallel: bool,
    /// Measure peak heap via the tracking allocator on a serial run
    /// (requires the binary to install [`TrackingAllocator`] as the
    /// global allocator).
    pub track_memory: bool,
    /// Per-task edge cap of the period graph builder, forwarded to
    /// [`SimOptions::max_edges_per_task`].
    pub max_edges_per_task: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        let sim = SimOptions::default();
        Self {
            scale: Scale::Full,
            num_seeds: 1,
            parallel: false,
            track_memory: true,
            max_edges_per_task: sim.max_edges_per_task,
        }
    }
}

impl RunOptions {
    /// The per-simulation options this panel run induces.
    fn sim_options(&self) -> SimOptions {
        SimOptions {
            max_edges_per_task: self.max_edges_per_task,
            ..SimOptions::default()
        }
    }
}

/// Runs one simulation cell through the batch loop, with peak-memory
/// accounting on a serial run that asks for it. The strategy is built
/// inside the measured run, beside the engine it drives.
fn run_cell(
    spec: &PanelSpec,
    x: f64,
    strategy: &StrategyBuilder,
    options: RunOptions,
    seed: u64,
) -> Outcome {
    let build = || (spec.build)(x, options.scale, seed);
    let run = |truth: GroundTruth| {
        let strategy = strategy(truth.grid.num_cells());
        Simulation::with_strategy(truth, strategy)
            .with_options(options.sim_options())
            .run()
    };
    // `parallel` disables memory tracking: the peak is process-wide, so
    // cells running side by side would read each other's.
    if options.track_memory && !options.parallel {
        let (mut outcome, mib) = TrackingAllocator::run_peak_mib(build, run);
        outcome.peak_memory_mib = Some(mib);
        outcome
    } else {
        run(build())
    }
}

/// Averages several outcomes into one row.
fn aggregate(spec: &PanelSpec, x: f64, label: &str, outcomes: &[Outcome]) -> Row {
    let n = outcomes.len() as f64;
    let mean = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / n;
    Row {
        figure: spec.figure.to_string(),
        panel: spec.panel.to_string(),
        paper_ref: spec.paper_ref.to_string(),
        x_name: spec.x_name.to_string(),
        x,
        strategy: label.to_string(),
        revenue: mean(&|o| o.total_revenue),
        pricing_secs: mean(&|o| o.pricing_secs),
        clearing_secs: mean(&|o| o.clearing_secs),
        calibration_secs: mean(&|o| o.calibration_secs),
        memory_mib: outcomes
            .iter()
            .filter_map(|o| o.peak_memory_mib)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            }),
        issued: mean(&|o| o.issued_tasks as f64),
        accepted: mean(&|o| o.accepted_tasks as f64),
        matched: mean(&|o| o.matched_tasks as f64),
        telemetry: {
            // Merged over seeds; histogram merge is order-independent,
            // so the summary is as deterministic as each outcome.
            let mut merged = maps_telemetry::LatencyTelemetry::new();
            for o in outcomes {
                merged.merge(&o.latency);
            }
            crate::report::LatencySummary::from(&merged)
        },
    }
}

/// Runs a whole panel: every sweep value × the panel's strategies.
pub fn run_panel(spec: &PanelSpec, options: RunOptions) -> Vec<Row> {
    let cells: Vec<(f64, usize)> = spec
        .xs
        .iter()
        .flat_map(|&x| (0..spec.strategies.len()).map(move |s| (x, s)))
        .collect();
    let seeds = options.num_seeds.max(1);
    let jobs: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|c| (0..seeds).map(move |s| (c, s)))
        .collect();
    let job = |&(c, seed): &(usize, u64)| {
        let (x, s) = cells[c];
        run_cell(spec, x, &spec.strategies[s].1, options, seed)
    };
    // Serial mode runs a cell's jobs as the cell is aggregated, so a
    // peak-memory reading holds the cell's earlier seeds, not every
    // outcome of the panel.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one parallel call: each job is a pure function of its coordinates and `collect` keeps job order"
    )]
    let mut outcomes: Box<dyn Iterator<Item = Outcome> + '_> = if options.parallel {
        Box::new(jobs.par_iter().map(job).collect::<Vec<_>>().into_iter())
    } else {
        Box::new(jobs.iter().map(job))
    };
    (cells.iter())
        .map(|&(x, s)| {
            let mut block = Vec::with_capacity(seeds as usize);
            block.extend(outcomes.by_ref().take(seeds as usize));
            aggregate(spec, x, spec.strategies[s].0, &block)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panels::{ablation, fig6_w, paper_strategies};
    use maps_simulator::SyntheticConfig;
    use std::sync::Arc;

    /// A deliberately tiny two-x panel so the thread sweep below stays
    /// fast even at `num_seeds = 8`.
    fn tiny_panel() -> PanelSpec {
        PanelSpec {
            figure: "test",
            panel: "tiny",
            x_name: "|W|",
            paper_ref: "determinism regression",
            xs: vec![20.0, 35.0],
            build: Arc::new(|x, _scale, seed| {
                SyntheticConfig::paper_default()
                    .with_num_workers(x as usize)
                    .with_num_tasks(90)
                    .with_periods(5)
                    .with_grid_side(3)
                    .build(seed)
            }),
            strategies: paper_strategies(),
        }
    }

    /// A row set as comparable values, every float as its bits (so a
    /// moved rounding or a `-0.0` shows).
    fn rows_canon(rows: &[Row]) -> Vec<(String, Option<u64>, [u64; 5])> {
        // pricing/clearing/calibration secs are wall-clock readings,
        // legitimately thread- and load-dependent: excluded.
        (rows.iter())
            .map(|r| {
                let name = format!("{}/{}/{}", r.figure, r.panel, r.strategy);
                let memory = r.memory_mib.map(f64::to_bits);
                let floats = [r.x, r.revenue, r.issued, r.accepted, r.matched];
                (name, memory, floats.map(f64::to_bits))
            })
            .collect()
    }

    /// Seed-parallel rows under 1/2/3/8-thread pools equal the serial
    /// mode's, bit for bit, for `num_seeds ∈ {1, 3, 8}`.
    #[test]
    fn seed_parallel_rows_bitwise_deterministic() {
        let spec = tiny_panel();
        for num_seeds in [1u64, 3, 8] {
            let options = RunOptions {
                scale: Scale::Quick,
                num_seeds,
                parallel: false,
                track_memory: false,
                ..RunOptions::default()
            };
            let serial = rows_canon(&run_panel(&spec, options));
            let parallel = RunOptions {
                parallel: true,
                ..options
            };
            for threads in [1, 2, 3, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("thread pool builds");
                let rows = rows_canon(&pool.install(|| run_panel(&spec, parallel)));
                assert_eq!(
                    rows, serial,
                    "num_seeds {num_seeds}, {threads} threads: parallel rows diverged from the serial mode"
                );
            }
        }
    }

    #[test]
    fn quick_panel_produces_all_rows() {
        let spec = fig6_w();
        let rows = run_panel(
            &spec,
            RunOptions {
                scale: Scale::Quick,
                num_seeds: 1,
                parallel: true,
                track_memory: false,
                ..RunOptions::default()
            },
        );
        assert_eq!(rows.len(), 5 * 5);
        for row in &rows {
            assert!(row.revenue >= 0.0);
            assert!(row.issued > 0.0);
            assert_eq!(row.figure, "fig6");
        }
        // Every strategy appears for every x.
        for &x in &spec.xs {
            let strategies: Vec<_> = rows
                .iter()
                .filter(|r| r.x == x)
                .map(|r| r.strategy.clone())
                .collect();
            assert_eq!(strategies.len(), 5, "x={x}");
        }
    }

    /// A labelled constructor runs exactly what `StrategyKind` ran: the
    /// ablation's default MAPS and its BaseP are `fig6_w`'s MAPS and
    /// BaseP at |W| = 5000, bit for bit.
    #[test]
    fn ablation_default_and_basep_rows_are_fig6_w_rows() {
        let options = RunOptions {
            scale: Scale::Quick,
            track_memory: false,
            ..RunOptions::default()
        };
        let run = |mut spec: PanelSpec, labels: [&str; 2]| {
            spec.xs = vec![5000.0];
            spec.strategies.retain(|(label, _)| labels.contains(label));
            run_panel(&spec, options)
        };
        let canon = |rows: &[Row]| -> Vec<_> {
            (rows.iter())
                .map(|r| {
                    let floats = [r.x, r.revenue, r.issued, r.accepted, r.matched];
                    (floats.map(f64::to_bits), r.telemetry)
                })
                .collect()
        };
        let ablation = run(ablation(), ["MAPS (default: L-diff, UCB)", "BaseP"]);
        let fig6 = run(fig6_w(), ["MAPS", "BaseP"]);
        assert_eq!(ablation.len(), 2);
        assert_eq!(canon(&ablation), canon(&fig6));
    }

    #[test]
    fn seeds_are_averaged() {
        let spec = fig6_w();
        let one = run_panel(
            &spec,
            RunOptions {
                scale: Scale::Quick,
                num_seeds: 1,
                parallel: true,
                track_memory: false,
                ..RunOptions::default()
            },
        );
        let three = run_panel(
            &spec,
            RunOptions {
                scale: Scale::Quick,
                num_seeds: 3,
                parallel: true,
                track_memory: false,
                ..RunOptions::default()
            },
        );
        // Same shape, (almost surely) different values.
        assert_eq!(one.len(), three.len());
        assert!(one
            .iter()
            .zip(&three)
            .any(|(a, b)| (a.revenue - b.revenue).abs() > 1e-9));
    }
}
