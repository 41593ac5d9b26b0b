//! Tiny shared CLI for the figure binaries (no external arg parser in
//! the offline dependency set).

use crate::panels::{all_panels, panel_by_name, PanelSpec, Scale};
use crate::report::{print_metric_tables, print_telemetry, write_jsonl};
use crate::runner::{run_panel, JournalOptions, RunOptions};
use std::path::PathBuf;

/// Parsed command-line options for a figure binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// Restrict to one panel (e.g. `--panel w`); `None` = all panels of
    /// the figure.
    pub panel: Option<String>,
    /// `--quick`: ~20× smaller datasets.
    pub quick: bool,
    /// `--parallel`: rayon over cells (disables memory tracking).
    pub parallel: bool,
    /// `--seeds N`: average over N ≥ 1 seeds (default 1). `--seeds 0`
    /// is rejected at parse time — it used to be accepted here and then
    /// silently clamped to 1 deep inside the runner.
    pub seeds: u64,
    /// `--out DIR`: JSONL output directory (default `results/`).
    pub out_dir: PathBuf,
    /// `--no-memory`: skip peak-heap tracking.
    pub no_memory: bool,
    /// `--max-edges K`: per-task edge cap of the period graph builder
    /// (default 64; a huge value keeps every in-range edge — through
    /// the same k-nearest build, there is no uncapped one).
    pub max_edges: usize,
    /// `--shards N`: route every simulation through the online service
    /// (`maps-service`) instead of the in-process batch loop; `0` (the
    /// default) keeps the batch simulator. N ≥ 1 is ignored (the service
    /// serves from one index) and kept for source compatibility until
    /// ROADMAP item 14 deletes the flag. Revenue/count columns are
    /// bit-identical to the batch path (the service-equals-batch
    /// contract).
    pub shards: usize,
    /// `--producers N`: stream service replays through the bounded
    /// multi-producer ingestion front-end with N ≥ 1 producer threads
    /// (requires `--shards`; rows stay bit-identical at any N — the
    /// interleaving-invariance contract); `0` (the default) keeps the
    /// synchronous serial push path.
    pub producers: usize,
    /// `--journal DIR`: attach a write-ahead event journal (plus epoch
    /// checkpoints) to every cell's service replay, one subdirectory of
    /// DIR per cell (requires `--shards`, refuses `--producers` and
    /// `--parallel`; rows stay bit-identical — the journal is
    /// write-path-only — and carry the Memory column like any serial
    /// run). `None` (the default) journals nothing.
    pub journal: Option<PathBuf>,
    /// `--recover`: resume cells whose journal already exists in the
    /// `--journal` directory from a previous — possibly crashed — run
    /// (latest checkpoint + journal-tail replay + remainder of the
    /// stream) instead of recomputing them. Requires `--journal`; rows
    /// stay bit-identical (recovery equals uninterrupted).
    pub recover: bool,
    /// `--telemetry`: print the deterministic event-time latency dump
    /// (task wait / queue depth / worker pool log2-histogram quantiles)
    /// after each panel's metric tables. The numbers are part of
    /// `Outcome::deterministic_bits`, so the dump is diffable across
    /// thread/producer configurations.
    pub telemetry: bool,
}

/// Why [`CliArgs::try_parse`] refused an argument list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h`: print the usage text and exit — not a complaint,
    /// so no error line precedes it.
    HelpRequested,
    /// A real parse problem, with the message to print before the
    /// usage text.
    Invalid(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Invalid(message)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::HelpRequested => f.write_str("help requested"),
            CliError::Invalid(message) => f.write_str(message),
        }
    }
}

impl CliArgs {
    /// Parses `std::env::args`, exiting with the usage message on error.
    pub fn parse(bin: &str) -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(CliError::HelpRequested) => usage(bin),
            Err(CliError::Invalid(e)) => {
                eprintln!("{e}");
                usage(bin)
            }
        }
    }

    /// Parses an explicit argument list (testable core of
    /// [`CliArgs::parse`]). Flags that take a value error out when the
    /// value is missing or malformed instead of being silently ignored.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let defaults = RunOptions::default();
        let mut parsed = CliArgs {
            panel: None,
            quick: false,
            parallel: false,
            seeds: 1,
            out_dir: PathBuf::from("results"),
            no_memory: false,
            max_edges: defaults.max_edges_per_task,
            shards: defaults.shards,
            producers: defaults.producers,
            journal: None,
            recover: false,
            telemetry: false,
        };
        let mut it = args.into_iter();
        // A flag's value: present, non-flag-shaped, and parseable.
        fn value_of<T: std::str::FromStr>(flag: &str, next: Option<String>) -> Result<T, String> {
            let raw = next.ok_or_else(|| format!("{flag} requires a value"))?;
            if raw.starts_with("--") {
                return Err(format!("{flag} requires a value, got flag '{raw}'"));
            }
            raw.parse()
                .map_err(|_| format!("{flag}: invalid value '{raw}'"))
        }
        while let Some(a) = it.next() {
            match a.as_str() {
                "--panel" => parsed.panel = Some(value_of("--panel", it.next())?),
                "--quick" => parsed.quick = true,
                "--parallel" => parsed.parallel = true,
                "--no-memory" => parsed.no_memory = true,
                "--max-edges" => {
                    parsed.max_edges = value_of("--max-edges", it.next())?;
                    if parsed.max_edges == 0 {
                        return Err("--max-edges must be at least 1".to_string().into());
                    }
                }
                "--seeds" => {
                    parsed.seeds = value_of("--seeds", it.next())?;
                    if parsed.seeds == 0 {
                        return Err("--seeds must be at least 1 (0 would average over nothing)"
                            .to_string()
                            .into());
                    }
                }
                "--shards" => {
                    parsed.shards = value_of("--shards", it.next())?;
                    if parsed.shards == 0 {
                        return Err(
                            "--shards must be at least 1 (omit the flag for the batch loop)"
                                .to_string()
                                .into(),
                        );
                    }
                }
                "--producers" => {
                    parsed.producers = value_of("--producers", it.next())?;
                    if parsed.producers == 0 {
                        return Err(
                            "--producers must be at least 1 (omit the flag for serial push)"
                                .to_string()
                                .into(),
                        );
                    }
                }
                "--journal" => {
                    parsed.journal =
                        Some(PathBuf::from(value_of::<String>("--journal", it.next())?))
                }
                "--recover" => parsed.recover = true,
                "--telemetry" => parsed.telemetry = true,
                "--out" => parsed.out_dir = PathBuf::from(value_of::<String>("--out", it.next())?),
                "--help" | "-h" => return Err(CliError::HelpRequested),
                other => return Err(format!("unknown argument: {other}").into()),
            }
        }
        if parsed.producers > 0 && parsed.shards == 0 {
            return Err(
                "--producers requires --shards N (the ingestion front-end feeds the \
                 online service)"
                    .to_string()
                    .into(),
            );
        }
        if parsed.journal.is_some() && parsed.shards == 0 {
            return Err(
                "--journal requires --shards N (the write-ahead journal is a service-path \
                 feature)"
                    .to_string()
                    .into(),
            );
        }
        if parsed.journal.is_some() && parsed.producers > 0 {
            return Err(
                "--journal journals the serial service push path; drop --producers"
                    .to_string()
                    .into(),
            );
        }
        if parsed.journal.is_some() && parsed.parallel {
            return Err(
                "--journal runs cells serially (parallel cells would contend on fsync and \
                 durability timings would mean nothing); drop --parallel"
                    .to_string()
                    .into(),
            );
        }
        if parsed.recover && parsed.journal.is_none() {
            return Err(
                "--recover requires --journal DIR (there is no journal to recover from)"
                    .to_string()
                    .into(),
            );
        }
        Ok(parsed)
    }

    /// The corresponding [`JournalOptions`] when `--journal` was given.
    pub fn journal_options(&self) -> Option<JournalOptions> {
        self.journal.as_ref().map(|dir| JournalOptions {
            dir: dir.clone(),
            recover: self.recover,
            checkpoint_every: 4,
        })
    }

    /// The corresponding [`RunOptions`].
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            scale: if self.quick {
                Scale::Quick
            } else {
                Scale::Full
            },
            num_seeds: self.seeds,
            parallel: self.parallel,
            track_memory: !self.no_memory && !self.parallel,
            max_edges_per_task: self.max_edges,
            shards: self.shards,
            producers: self.producers,
        }
    }
}

fn usage(bin: &str) -> ! {
    eprintln!(
        "usage: {bin} [--panel KEY] [--quick] [--parallel] [--seeds N] \
         [--out DIR] [--no-memory] [--max-edges K] [--shards N] \
         [--producers N] [--journal DIR [--recover]] [--telemetry]\n\
         panels: w r mu-t mean-s | mu-v sigma-v t g | aw scale beijing1 beijing2 | alpha\n\
         --seeds N           average over N >= 1 seeds (default 1)\n\
         --max-edges K       per-task edge cap of the period graph (default 64;\n\
                             a huge K keeps every in-range edge, same build)\n\
         --shards N          drive runs through the online service (N >= 1,\n\
                             ignored: one index; rows bit-identical to the\n\
                             batch loop — omit for the in-process loop)\n\
         --producers N       stream service replays through the bounded\n\
                             multi-producer ingestion front-end (N >= 1\n\
                             producer threads, requires --shards; rows\n\
                             bit-identical at any N — omit for serial push)\n\
         --journal DIR       attach a write-ahead event journal + epoch\n\
                             checkpoints to every cell's service replay, one\n\
                             subdirectory of DIR per cell (requires --shards,\n\
                             refuses --producers and --parallel; rows\n\
                             bit-identical — the journal is write-path-only)\n\
         --recover           resume cells whose journal already exists in the\n\
                             --journal DIR from a previous (possibly crashed)\n\
                             run instead of recomputing them; rows bit-identical\n\
                             (recovery equals uninterrupted)\n\
         --telemetry         print the deterministic event-time latency dump\n\
                             (task wait / queue depth / worker pool quantiles)\n\
                             after each panel — diffable across thread/\n\
                             producer configurations"
    );
    std::process::exit(2)
}

/// Shared main body: run the selected panels of one figure.
pub fn run_figure(figure: &str, args: &CliArgs) {
    let panels: Vec<PanelSpec> = match &args.panel {
        Some(name) => match panel_by_name(name) {
            Some(p) if p.figure == figure || figure == "all" => vec![p],
            Some(p) => {
                eprintln!("panel '{name}' belongs to {}, not {figure}", p.figure);
                std::process::exit(2)
            }
            None => {
                eprintln!("unknown panel '{name}'");
                std::process::exit(2)
            }
        },
        None => all_panels()
            .into_iter()
            .filter(|p| figure == "all" || p.figure == figure)
            .collect(),
    };
    let options = args.run_options();
    for spec in panels {
        eprintln!(
            "running {}/{} ({}, scale {:?}, seeds {})…",
            spec.figure, spec.panel, spec.paper_ref, options.scale, options.num_seeds
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "progress reporting for the operator, never enters result rows"
        )]
        let start = std::time::Instant::now();
        let rows = run_panel(&spec, options, args.journal_options().as_ref());
        eprintln!("  done in {:.1}s", start.elapsed().as_secs_f64());
        print_metric_tables(&rows);
        if args.telemetry {
            print_telemetry(&rows);
        }
        let path = args
            .out_dir
            .join(format!("{}_{}.jsonl", spec.figure, spec.panel));
        if let Err(e) = write_jsonl(&rows, &path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        CliArgs::try_parse(args.iter().map(|s| s.to_string())).map_err(|e| match e {
            CliError::HelpRequested => "HELP".to_string(),
            CliError::Invalid(message) => message,
        })
    }

    #[test]
    fn defaults_parse_empty() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.seeds, 1);
        assert_eq!(args.shards, 0, "batch loop by default");
        assert!(args.panel.is_none());
    }

    #[test]
    fn full_flag_set_round_trips() {
        let args = parse(&[
            "--panel",
            "w",
            "--quick",
            "--parallel",
            "--seeds",
            "3",
            "--out",
            "tmp",
            "--no-memory",
            "--max-edges",
            "16",
            "--shards",
            "4",
            "--producers",
            "2",
            "--telemetry",
        ])
        .unwrap();
        assert_eq!(args.panel.as_deref(), Some("w"));
        assert!(args.quick && args.parallel && args.no_memory);
        assert_eq!(args.seeds, 3);
        assert_eq!(args.max_edges, 16);
        assert_eq!(args.shards, 4);
        assert_eq!(args.producers, 2);
        assert!(args.telemetry);
        assert!(!parse(&[]).unwrap().telemetry, "dump is opt-in");
        let options = args.run_options();
        assert_eq!(options.num_seeds, 3);
        assert_eq!(options.shards, 4);
        assert_eq!(options.producers, 2);
        assert!(!options.track_memory, "parallel disables memory tracking");
    }

    /// The satellite regression: `--seeds 0` used to parse fine and get
    /// silently clamped to 1 deep inside `run_panel`.
    #[test]
    fn zero_seeds_rejected_at_parse_time() {
        let err = parse(&["--seeds", "0"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
    }

    #[test]
    fn zero_shards_and_zero_max_edges_rejected() {
        assert!(parse(&["--shards", "0"]).unwrap_err().contains("--shards"));
        assert!(parse(&["--max-edges", "0"])
            .unwrap_err()
            .contains("--max-edges"));
    }

    /// `--producers` is the ingestion front-end of the online service:
    /// 0 producers is meaningless, and without `--shards` there is no
    /// service to feed — both are parse errors, not silent fallbacks.
    #[test]
    fn producers_flag_is_validated() {
        assert!(parse(&["--producers", "0", "--shards", "2"])
            .unwrap_err()
            .contains("--producers"));
        assert!(parse(&["--producers", "2"])
            .unwrap_err()
            .contains("requires --shards"));
        let args = parse(&["--producers", "2", "--shards", "3"]).unwrap();
        assert_eq!((args.producers, args.shards), (2, 3));
        assert_eq!(parse(&[]).unwrap().producers, 0, "serial push by default");
    }

    /// `--journal` is the durability layer of the online service:
    /// without `--shards` there is no service replay to journal, the
    /// multi-producer front-end path is not journaled, journaled cells
    /// run serially, and `--recover` without a journal directory has
    /// nothing to recover from — all parse errors, not silent fallbacks.
    #[test]
    fn journal_flags_are_validated() {
        assert!(parse(&["--journal", "wal"])
            .unwrap_err()
            .contains("requires --shards"));
        assert!(
            parse(&["--journal", "wal", "--shards", "2", "--producers", "2"])
                .unwrap_err()
                .contains("--producers")
        );
        assert!(parse(&["--journal", "wal", "--shards", "2", "--parallel"])
            .unwrap_err()
            .contains("--parallel"));
        assert!(parse(&["--recover"])
            .unwrap_err()
            .contains("requires --journal"));
        let args = parse(&["--journal", "wal", "--shards", "2", "--recover"]).unwrap();
        assert_eq!(args.journal.as_deref(), Some(std::path::Path::new("wal")));
        assert!(args.recover);
        let journal = args.journal_options().expect("journal options");
        assert_eq!(journal.dir, PathBuf::from("wal"));
        assert!(journal.recover);
        let plain = parse(&[]).unwrap();
        assert!(plain.journal.is_none() && !plain.recover);
        assert!(plain.journal_options().is_none());
    }

    /// The satellite regression: value-taking flags at the end of the
    /// line (or followed by another flag) used to be silently ignored —
    /// `--panel` most prominently.
    #[test]
    fn missing_values_are_errors_not_ignored() {
        for flags in [
            &["--panel"][..],
            &["--seeds"],
            &["--max-edges"],
            &["--shards"],
            &["--out"],
            &["--producers"],
            &["--journal"],
            &["--panel", "--quick"],
            &["--seeds", "--parallel"],
        ] {
            let err = parse(flags).unwrap_err();
            assert!(err.contains("requires a value"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn malformed_numbers_are_errors() {
        assert!(parse(&["--seeds", "three"])
            .unwrap_err()
            .contains("invalid"));
        assert!(parse(&["--max-edges", "-1"])
            .unwrap_err()
            .contains("invalid"));
    }

    #[test]
    fn unknown_arguments_are_errors() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown"));
    }

    /// `--help` is a usage request, not a parse complaint: it must not
    /// surface an error message of its own.
    #[test]
    fn help_is_distinguished_from_errors() {
        for flags in [&["--help"][..], &["-h"], &["--quick", "--help"]] {
            assert_eq!(
                CliArgs::try_parse(flags.iter().map(|s| s.to_string())),
                Err(CliError::HelpRequested),
                "{flags:?}"
            );
        }
    }
}
