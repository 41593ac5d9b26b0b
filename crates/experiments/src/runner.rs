//! Sweep execution: runs every (x, strategy) cell of a panel, optionally
//! in parallel, and aggregates seeds into [`Row`]s. [`run_panel`] is the
//! one cell loop; how a cell is driven (batch, service, ingested,
//! journaled) is `run_cell`'s choice.
//!
//! ## Determinism contract (PR 2)
//!
//! Parallel mode fans out over the full `(cell × seed)` job grid — not
//! just cells — so `num_seeds`-fold averaging parallelizes too. Every
//! job is seeded by its own `(x, strategy, seed)` coordinates (never by
//! anything schedule-dependent), jobs are collected in job order, and
//! each cell's seeds are aggregated sequentially in seed order. Rows are
//! therefore **bit-identical** to the serial path (modulo the serial-only
//! memory/timing columns) at any rayon thread count — enforced by
//! `seed_parallel_rows_bitwise_deterministic` below.

use crate::panels::{PanelSpec, Scale};
use crate::report::Row;
use maps_core::StrategyKind;
use maps_simulator::alloc::TrackingAllocator;
use maps_simulator::{Outcome, SimOptions, Simulation};
use rayon::prelude::*;

/// Options controlling a panel run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Dataset scale.
    pub scale: Scale,
    /// Seeds to average over (the paper reports single runs; averaging
    /// over ≥1 seeds reduces Monte-Carlo noise in the tables).
    pub num_seeds: u64,
    /// Run cells in parallel with rayon. Wall-clock timings and peak-
    /// memory figures are only meaningful in serial mode; parallel mode
    /// is for fast revenue-shape iteration.
    pub parallel: bool,
    /// Measure peak heap via the tracking allocator (requires the binary
    /// to install [`TrackingAllocator`] as the global allocator, and
    /// implies serial execution).
    pub track_memory: bool,
    /// Per-task edge cap of the period graph builder, forwarded to
    /// [`SimOptions::max_edges_per_task`].
    pub max_edges_per_task: usize,
    /// With `shards ≥ 1`, replay every run through the online service
    /// (`maps-service`) instead of the in-process batch loop; `0`
    /// (default) keeps the batch simulator. The count itself is ignored
    /// (the service serves from one index) and goes with ROADMAP item
    /// 14. Schedule-independent row columns are bit-identical either
    /// way — the service-equals-batch contract, enforced by
    /// `service_rows_match_batch_rows` below.
    pub shards: usize,
    /// With `producers ≥ 1`, stream every service replay through the
    /// bounded multi-producer ingestion front-end
    /// (`maps_service::replay_ingested`) with that many producer
    /// threads; `0` (default) uses the synchronous serial `push` path.
    /// Only meaningful together with the service path, which
    /// `producers ≥ 1` selects whatever `shards` says. Row columns are
    /// bit-identical either way and at any producer count — the
    /// ingestion interleaving-invariance contract, enforced by
    /// `ingested_rows_match_batch_rows` below.
    pub producers: usize,
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
            shards: 0,
            producers: 0,
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

/// Durability options for [`run_panel`]: every cell's service replay
/// writes a write-ahead journal (and epoch checkpoints) into its own
/// subdirectory of `dir`, and `recover` resumes cells whose journal
/// already exists from a previous — possibly crashed — run instead of
/// recomputing them from scratch.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// Root directory; each `(panel, x, strategy, seed)` cell journals
    /// into its own deterministic subdirectory.
    pub dir: std::path::PathBuf,
    /// Recover cells with an existing journal (latest checkpoint +
    /// journal-tail replay + remainder of the stream) instead of
    /// replaying them from scratch. By the recovery-equals-uninterrupted
    /// contract the rows are bit-identical either way.
    pub recover: bool,
    /// Checkpoint cadence in epochs, forwarded to
    /// [`maps_service::JournalConfig`].
    pub checkpoint_every: u32,
}

impl JournalOptions {
    /// The journal directory of one cell.
    fn cell_config(
        &self,
        spec: &PanelSpec,
        x: f64,
        kind: StrategyKind,
        seed: u64,
    ) -> maps_service::JournalConfig {
        let slug = format!(
            "{}_{}_x{}_{}_s{seed}",
            spec.figure,
            spec.panel,
            x.to_bits(),
            kind.name()
        );
        maps_service::JournalConfig::new(self.dir.join(slug), self.checkpoint_every)
    }
}

/// Runs one simulation cell — through the batch loop, the online
/// service, the ingestion front-end or, with `journal`, the journaled
/// (or recovered) serial service replay — with peak-memory accounting
/// on a serial run that asks for it. Rows are bit-identical whichever
/// way the cell is driven: the journal is write-path-only, and a
/// recovered cell replays to the same outcome as an uninterrupted one.
fn run_cell(
    spec: &PanelSpec,
    x: f64,
    kind: StrategyKind,
    options: RunOptions,
    journal: Option<&JournalOptions>,
    seed: u64,
) -> Outcome {
    let truth = (spec.build)(x, options.scale, seed);
    let sim = options.sim_options();
    // The peak is process-wide: cells running side by side would read
    // each other's.
    let track = options.track_memory && !options.parallel;
    if track {
        TrackingAllocator::reset_peak();
    }
    let mut outcome = if let Some(journal) = journal {
        let config = journal.cell_config(spec, x, kind, seed);
        let recovered = (journal.recover && config.journal_path().exists())
            .then(|| maps_service::replay_recovered(&truth, kind, 1, sim, &config));
        match recovered {
            Some(Ok(outcome)) => outcome,
            // No journal, or one whose writer died before its baseline
            // checkpoint: nothing durable, and a cell is a pure function
            // of its coordinates — run it from the start.
            None | Some(Err(maps_service::RecoveryError::NoCheckpoint)) => {
                maps_service::replay_journaled(&truth, kind, 1, sim, &config)
                    .unwrap_or_else(|e| panic!("cell journaling failed: {e}"))
            }
            Some(Err(e)) => panic!("cell recovery failed: {e}"),
        }
    } else if options.producers >= 1 {
        maps_service::replay_ingested(&truth, kind, 1, options.producers, sim)
    } else if options.shards >= 1 {
        maps_service::replay_with_options(&truth, kind, 1, sim)
    } else {
        Simulation::new(truth, kind).with_options(sim).run()
    };
    if track {
        outcome.peak_memory_mib = Some(TrackingAllocator::peak_mib());
    }
    outcome
}

/// Averages several outcomes into one row.
fn aggregate(spec: &PanelSpec, x: f64, kind: StrategyKind, outcomes: &[Outcome]) -> Row {
    let n = outcomes.len() as f64;
    let mean = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / n;
    Row {
        figure: spec.figure.to_string(),
        panel: spec.panel.to_string(),
        paper_ref: spec.paper_ref.to_string(),
        x_name: spec.x_name.to_string(),
        x,
        strategy: kind.name().to_string(),
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
            Some(crate::report::LatencySummary::from(&merged))
        },
    }
}

/// Runs a whole panel: every sweep value × the five strategies, each
/// cell's service replay journaled when `journal` is given (the service
/// path even if `options.shards` is 0).
pub fn run_panel(
    spec: &PanelSpec,
    options: RunOptions,
    journal: Option<&JournalOptions>,
) -> Vec<Row> {
    let cells: Vec<(f64, StrategyKind)> = spec
        .xs
        .iter()
        .flat_map(|&x| StrategyKind::ALL.into_iter().map(move |k| (x, k)))
        .collect();
    let seeds = options.num_seeds.max(1);
    if options.parallel {
        // Seed-parallel fan-out over the (cell × seed) job grid. Each
        // job is a pure function of its coordinates, `collect` preserves
        // job order, and the per-cell aggregation below walks seeds in
        // seed order — so the rows are bit-identical at any thread count.
        let jobs: Vec<(usize, u64)> = (0..cells.len())
            .flat_map(|c| (0..seeds).map(move |s| (c, s)))
            .collect();
        let outcomes: Vec<Outcome> = jobs
            .par_iter()
            .map(|&(c, seed)| {
                let (x, kind) = cells[c];
                run_cell(spec, x, kind, options, journal, seed)
            })
            .collect();
        cells
            .iter()
            .enumerate()
            .map(|(c, &(x, kind))| {
                let block = &outcomes[c * seeds as usize..(c + 1) * seeds as usize];
                aggregate(spec, x, kind, block)
            })
            .collect()
    } else {
        cells
            .iter()
            .map(|&(x, kind)| {
                let outcomes: Vec<Outcome> = (0..seeds)
                    .map(|seed| run_cell(spec, x, kind, options, journal, seed))
                    .collect();
                aggregate(spec, x, kind, &outcomes)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panels::fig6_w;
    use maps_simulator::SyntheticConfig;
    use maps_testkit::BitPattern;
    use std::sync::Arc;

    /// A deliberately tiny two-x panel so the thread-sweep regression
    /// tests stay fast even at `num_seeds = 8`.
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
        }
    }

    /// Canonical bit-level encoding of a row set (floats via `to_bits`).
    fn rows_canon(rows: &[Row]) -> Vec<u64> {
        let mut out = Vec::new();
        for r in rows {
            r.figure.bit_pattern(&mut out);
            r.panel.bit_pattern(&mut out);
            r.x.bit_pattern(&mut out);
            r.strategy.bit_pattern(&mut out);
            r.revenue.bit_pattern(&mut out);
            r.memory_mib.bit_pattern(&mut out);
            r.issued.bit_pattern(&mut out);
            r.accepted.bit_pattern(&mut out);
            r.matched.bit_pattern(&mut out);
            // pricing/clearing/calibration secs are wall-clock readings,
            // legitimately thread- and load-dependent: excluded.
        }
        out
    }

    /// PR-2 acceptance: seed-parallel rows are bit-identical across
    /// 1/2/3/8-thread pools for `num_seeds ∈ {1, 3, 8}`, and match the
    /// serial path.
    #[test]
    fn seed_parallel_rows_bitwise_deterministic() {
        let spec = tiny_panel();
        for num_seeds in [1u64, 3, 8] {
            let options = RunOptions {
                scale: Scale::Quick,
                num_seeds,
                parallel: true,
                track_memory: false,
                ..RunOptions::default()
            };
            let parallel =
                maps_testkit::assert_deterministic(|| rows_canon(&run_panel(&spec, options, None)));
            let serial = run_panel(
                &spec,
                RunOptions {
                    parallel: false,
                    ..options
                },
                None,
            );
            assert_eq!(
                parallel,
                rows_canon(&serial),
                "num_seeds {num_seeds}: parallel rows diverged from the serial path"
            );
        }
    }

    /// Routing a panel through the online service must leave every
    /// schedule-independent row column bitwise unchanged — the
    /// service-equals-batch contract observed at the experiment-harness
    /// level.
    #[test]
    fn service_rows_match_batch_rows() {
        let spec = tiny_panel();
        let base = RunOptions {
            scale: Scale::Quick,
            num_seeds: 2,
            parallel: true,
            track_memory: false,
            ..RunOptions::default()
        };
        let batch = rows_canon(&run_panel(&spec, base, None));
        let service_rows = run_panel(&spec, RunOptions { shards: 1, ..base }, None);
        assert_eq!(
            rows_canon(&service_rows),
            batch,
            "service rows diverged from the batch loop"
        );
    }

    /// Streaming a panel through the multi-producer ingestion front-end
    /// must leave every schedule-independent row column bitwise
    /// unchanged, at any producer count — the ingestion
    /// interleaving-invariance contract observed at the
    /// experiment-harness level.
    #[test]
    fn ingested_rows_match_batch_rows() {
        let spec = tiny_panel();
        let base = RunOptions {
            scale: Scale::Quick,
            num_seeds: 2,
            parallel: true,
            track_memory: false,
            ..RunOptions::default()
        };
        let batch = rows_canon(&run_panel(&spec, base, None));
        for producers in [1usize, 3, 4] {
            let ingested_rows = run_panel(&spec, RunOptions { producers, ..base }, None);
            assert_eq!(
                rows_canon(&ingested_rows),
                batch,
                "{producers}-producer ingested rows diverged from the batch loop"
            );
        }
    }

    /// Journaling a panel's service replays must leave every
    /// schedule-independent row column bitwise unchanged (the journal is
    /// write-path-only), and `--recover` over the completed journals
    /// must reproduce the same rows again — recovery equals
    /// uninterrupted, observed at the experiment-harness level.
    #[test]
    fn journaled_rows_match_batch_rows_and_recovery_reproduces_them() {
        let spec = tiny_panel();
        let base = RunOptions {
            scale: Scale::Quick,
            num_seeds: 2,
            parallel: false,
            track_memory: false,
            shards: 1,
            ..RunOptions::default()
        };
        let batch = rows_canon(&run_panel(
            &spec,
            RunOptions {
                shards: 0,
                parallel: true,
                ..base
            },
            None,
        ));
        let journal = JournalOptions {
            dir: std::env::temp_dir()
                .join(format!("maps_experiments_journal_{}", std::process::id())),
            recover: false,
            checkpoint_every: 2,
        };
        let journaled = run_panel(&spec, base, Some(&journal));
        assert_eq!(
            rows_canon(&journaled),
            batch,
            "journaled rows diverged from the batch loop"
        );
        let recover = JournalOptions {
            recover: true,
            ..journal.clone()
        };
        let recovered = run_panel(&spec, base, Some(&recover));
        assert_eq!(
            rows_canon(&recovered),
            batch,
            "recovered rows diverged from the batch loop"
        );
        // A cell that died between creating its journal and writing the
        // baseline checkpoint left only the journal file: `--recover`
        // runs that cell from the start (it used to panic, every time).
        let killed = recover.cell_config(&spec, spec.xs[0], StrategyKind::ALL[0], 0);
        for entry in std::fs::read_dir(&killed.dir).unwrap() {
            let path = entry.unwrap().path();
            if path != killed.journal_path() {
                std::fs::remove_file(path).unwrap();
            }
        }
        assert_eq!(std::fs::read_dir(&killed.dir).unwrap().count(), 1);
        let restarted = run_panel(&spec, base, Some(&recover));
        assert_eq!(
            rows_canon(&restarted),
            batch,
            "rows of a cell restarted from a checkpoint-less journal diverged"
        );
        // The journaled cell is driven by the one loop, so it reads
        // `track_memory` like every other cell (the column was `-`).
        let tracked = RunOptions {
            track_memory: true,
            ..base
        };
        let rows = run_panel(&spec, tracked, Some(&recover));
        assert!(rows.iter().all(|r| r.memory_mib.is_some()));
        let _ = std::fs::remove_dir_all(&journal.dir);
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
            None,
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
            None,
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
            None,
        );
        // Same shape, (almost surely) different values.
        assert_eq!(one.len(), three.len());
        assert!(one
            .iter()
            .zip(&three)
            .any(|(a, b)| (a.revenue - b.revenue).abs() > 1e-9));
    }
}
