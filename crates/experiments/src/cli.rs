//! Tiny shared CLI for the figure binaries (no external arg parser in
//! the offline dependency set).

use crate::panels::{all_panels, panel_by_name, PanelSpec, Scale};
use crate::report::{print_metric_tables, print_telemetry, write_jsonl};
use crate::runner::{run_panel, RunOptions};
use std::path::PathBuf;

/// Parsed command-line options for a figure binary. Each flag that
/// shapes the run writes the [`RunOptions`] field it sets:
///
/// * `--quick`: [`Scale::Quick`]: `|W|` and `|R|` ÷ 20 (at least 50),
///   `T` ÷ 8 (at least 25), `fig8_scale`'s sizes ÷ 100, Beijing at 2 %;
/// * `--parallel`: run the (cell × seed) jobs in parallel;
/// * `--seeds N`: average over N ≥ 1 seeds (default 1; `--seeds 0` is
///   refused at parse time rather than clamped inside the runner);
/// * `--no-memory`: skip peak-heap tracking;
/// * `--max-edges K`: per-task edge cap of the period graph builder
///   (default 64; a huge value keeps every in-range edge — through the
///   same k-nearest build, there is no uncapped one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// Restrict to one panel (e.g. `--panel w`); `None` = all panels of
    /// the figure.
    pub panel: Option<String>,
    /// `--out DIR`: JSONL output directory (default `results/`).
    pub out_dir: PathBuf,
    /// `--telemetry`: print the deterministic event-time latency dump
    /// (task wait / queue depth / worker pool log2-histogram quantiles)
    /// after each panel's metric tables. The numbers are part of
    /// `Outcome::deterministic_bits`, so the dump is diffable across
    /// thread counts.
    pub telemetry: bool,
    /// How the panels run.
    pub options: RunOptions,
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
        let mut parsed = CliArgs {
            panel: None,
            out_dir: PathBuf::from("results"),
            telemetry: false,
            options: RunOptions::default(),
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
                "--quick" => parsed.options.scale = Scale::Quick,
                "--parallel" => parsed.options.parallel = true,
                "--no-memory" => parsed.options.track_memory = false,
                "--max-edges" => {
                    parsed.options.max_edges_per_task = value_of("--max-edges", it.next())?;
                    if parsed.options.max_edges_per_task == 0 {
                        return Err("--max-edges must be at least 1".to_string().into());
                    }
                }
                "--seeds" => {
                    parsed.options.num_seeds = value_of("--seeds", it.next())?;
                    if parsed.options.num_seeds == 0 {
                        return Err("--seeds must be at least 1 (0 would average over nothing)"
                            .to_string()
                            .into());
                    }
                }
                "--telemetry" => parsed.telemetry = true,
                "--out" => parsed.out_dir = PathBuf::from(value_of::<String>("--out", it.next())?),
                "--help" | "-h" => return Err(CliError::HelpRequested),
                other => return Err(format!("unknown argument: {other}").into()),
            }
        }
        Ok(parsed)
    }
}

fn usage(bin: &str) -> ! {
    eprintln!("{}", usage_text(bin));
    std::process::exit(2)
}

/// The usage message, one line per entry: a flag's description
/// continues on the next line at the column it starts in.
fn usage_text(bin: &str) -> String {
    [
        &format!(
            "usage: {bin} [--panel KEY] [--quick] [--parallel] [--seeds N] \
             [--out DIR] [--no-memory] [--max-edges K] [--telemetry]"
        ),
        "panels: w r mu-t mean-s | mu-v sigma-v t g | aw scale beijing1 beijing2 | alpha | maps",
        "--seeds N           average over N >= 1 seeds (default 1)",
        "--max-edges K       per-task edge cap of the period graph (default 64;",
        "                    a huge K keeps every in-range edge, same build)",
        "--telemetry         print the deterministic event-time latency dump",
        "                    (task wait / queue depth / worker pool quantiles)",
        "                    after each panel — diffable across thread counts",
    ]
    .join("\n")
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
    let options = args.options;
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
        let rows = run_panel(&spec, options);
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

    /// A description that runs onto a second line starts it in the
    /// column the description starts in on the flag's line (a `\`
    /// continuation inside one string literal used to strip those
    /// lines' indentation, printing them at column 0).
    #[test]
    fn usage_continuation_lines_keep_their_indentation() {
        let text = usage_text("fig6");
        // Past a flag's name and its padding; all of a continuation line.
        let description_column = |line: &str| {
            let gap = line.find("  ").unwrap_or(0);
            line.len() - line[gap..].trim_start().len()
        };
        for line in text.lines().skip(2) {
            assert_eq!(description_column(line), 20, "{line:?}");
        }
        let continued = text.lines().filter(|line| line.starts_with(' '));
        assert_eq!(continued.count(), 3, "{text}");
    }

    #[test]
    fn defaults_parse_empty() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.options, RunOptions::default());
        assert_eq!(args.options.num_seeds, 1);
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
            "--telemetry",
        ])
        .unwrap();
        assert_eq!(args.panel.as_deref(), Some("w"));
        assert_eq!(args.out_dir, PathBuf::from("tmp"));
        assert!(args.telemetry);
        assert!(!parse(&[]).unwrap().telemetry, "dump is opt-in");
        assert_eq!(
            args.options,
            RunOptions {
                scale: Scale::Quick,
                num_seeds: 3,
                parallel: true,
                track_memory: false,
                max_edges_per_task: 16,
            }
        );
    }

    /// The satellite regression: `--seeds 0` used to parse fine and get
    /// silently clamped to 1 deep inside `run_panel`.
    #[test]
    fn zero_seeds_rejected_at_parse_time() {
        let err = parse(&["--seeds", "0"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
    }

    #[test]
    fn zero_max_edges_rejected() {
        assert!(parse(&["--max-edges", "0"])
            .unwrap_err()
            .contains("--max-edges"));
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
            &["--out"],
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

    /// A flag the figures do not take is refused by name — including
    /// the four that routed cells through the online service.
    #[test]
    fn unknown_arguments_are_errors() {
        for flags in [
            &["--bogus"][..],
            &["--shards", "1"],
            &["--producers", "2"],
            &["--journal", "wal"],
            &["--recover"],
        ] {
            let err = parse(flags).unwrap_err();
            assert_eq!(err, format!("unknown argument: {}", flags[0]));
        }
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
