//! `maps_benchmark` — the repo's end-to-end serving benchmark.
//!
//! Four stream workloads through the shipping service API, five
//! end-to-end metrics, and a traced run that times each layer from
//! outside. See `README.md` next to this package for what every
//! workload and metric means; `BENCHMARK.json` at the repo root is the
//! contract a driver reads.
//!
//! ```text
//! maps_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--quick] [--scratch-dir DIR] [--trace-out FILE]
//! maps_benchmark run | trace   [--seed <n>] [--seconds <s>] [--quick] [--scratch-dir DIR]
//! maps_benchmark selfcheck     [--seed <n>] [--seconds <s>] [--scratch-dir DIR]
//! ```

mod drive;
mod measure;
mod probes;
mod reference;
mod report;
mod stream;
mod trace;

use drive::Feed;
use maps_simulator::alloc::TrackingAllocator;
use measure::Plan;
use report::{Better, END_TO_END};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use stream::StreamShape;

/// The paper's Memory(MB) instrument: `peak_heap_mib` reads it.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 25;
/// Seed of a bare `run`; the second recorded seed is `0xB0B`.
const DEFAULT_SEED: u64 = 0x5E41;

/// One workload: a stream shape and how it is fed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    shape: StreamShape,
    feed: Feed,
    /// The `--quick` twin: same structure, tiny counts.
    quick_shape: StreamShape,
    quick_feed: Feed,
}

const CHURN: StreamShape = StreamShape {
    periods: 300,
    pool: 5_000,
    arrivals: 1_250,
    arrival_duration: 12,
    tasks: 25,
};
const QUICK_CHURN: StreamShape = StreamShape {
    periods: 24,
    pool: 400,
    arrivals: 100,
    arrival_duration: 4,
    tasks: 10,
};
const RUSH: StreamShape = StreamShape {
    periods: 240,
    pool: 5_000,
    arrivals: 25,
    arrival_duration: 50,
    tasks: 250,
};
const QUICK_RUSH: StreamShape = StreamShape {
    periods: 20,
    pool: 400,
    arrivals: 5,
    arrival_duration: 8,
    tasks: 40,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "churn",
        shape: CHURN,
        feed: Feed::Plain,
        quick_shape: QUICK_CHURN,
        quick_feed: Feed::Plain,
    },
    Workload {
        name: "rush",
        shape: RUSH,
        feed: Feed::Plain,
        quick_shape: QUICK_RUSH,
        quick_feed: Feed::Plain,
    },
    Workload {
        name: "durable",
        // The head of churn's stream: same seed, identical events.
        shape: StreamShape {
            periods: 200,
            ..CHURN
        },
        // A checkpoint every 24 epochs, a crash every 25: recovery `i`
        // replays `i` epochs (1..=7) over a journal that keeps growing,
        // and the 8 checkpoint-writing ticks are 4 % of the 200 — above
        // p95, which therefore reads the journal-sync ticks. With the
        // issue's cadence of 4 a quarter of the ticks fsync a checkpoint
        // file, and on a shared disk `tick_ms_p95` spread 39 % over ten
        // runs against 19 % here (interleaved runs, same minutes).
        feed: Feed::Durable {
            checkpoint_every: 24,
            recover_every: 25,
        },
        quick_shape: StreamShape {
            periods: 16,
            ..QUICK_CHURN
        },
        quick_feed: Feed::Durable {
            checkpoint_every: 4,
            recover_every: 2,
        },
    },
    Workload {
        name: "fanin",
        shape: CHURN,
        feed: Feed::Fanin { producers: 2 },
        quick_shape: QUICK_CHURN,
        quick_feed: Feed::Fanin { producers: 2 },
    },
];

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    scratch_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  maps_benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--quick] [--scratch-dir DIR] [--trace-out FILE]\n  \
         maps_benchmark run|trace [--seed <n>] [--seconds <s>] [--quick] [--scratch-dir DIR]\n  \
         maps_benchmark selfcheck [--seed <n>] [--seconds <s>] [--scratch-dir DIR]",
        names.join("|")
    )
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut raw = raw.into_iter();
    while let Some(arg) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                let text = value("a number")?;
                args.seed = Some(parse_u64(&text).ok_or(format!("bad seed {text}"))?);
            }
            "--seconds" => {
                let text = value("a number")?;
                let seconds: f64 = text.parse().map_err(|_| format!("bad seconds {text}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("bad seconds {text}"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--scratch-dir" => args.scratch_dir = Some(PathBuf::from(value("a directory")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a file")?)),
            "run" | "trace" | "selfcheck" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where journals go unless `--scratch-dir` says otherwise: next to
/// the executable, i.e. inside the build directory of the checkout the
/// benchmark was built from. A driver's contract may forbid writing
/// anywhere else; pass a tmpfs path to take the disk out of the numbers.
fn default_scratch() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

fn host_line(scratch: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "nproc={nproc} rayon_threads={} shards={} scratch={} scratch_fs={}",
        rayon::current_num_threads(),
        drive::SHARDS,
        scratch.display(),
        filesystem_of(scratch)
    )
}

/// One workload in this process: the form a driver calls.
fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or_else(usage)?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}\n{}", usage()))?;
    let scratch_base = args.scratch_dir.clone().unwrap_or_else(default_scratch);
    let plan = Plan {
        workload: workload.name,
        shape: if args.quick {
            workload.quick_shape
        } else {
            workload.shape
        },
        feed: if args.quick {
            workload.quick_feed
        } else {
            workload.feed
        },
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(RUN_SECONDS as f64),
        quick: args.quick,
        host: host_line(&scratch_base),
        scratch_base,
        trace_out: args.trace_out.clone(),
    };
    let report = if args.trace {
        measure::run_traced(&plan)
    } else {
        measure::run_timed(&plan)
    };
    report.print_table();
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs every workload, each in a child process of its own (so no
/// workload inherits another's heap or page cache state), passing the
/// children's tables through. Returns each child's `DETAIL` object.
fn run_set(args: &Args, traced: bool) -> Result<Vec<Value>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut details = Vec::new();
    for workload in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
            .args([
                "--seconds",
                &args.seconds.unwrap_or(RUN_SECONDS as f64).to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if args.quick {
            child.arg("--quick");
        }
        if let Some(dir) = &args.scratch_dir {
            child.arg("--scratch-dir").arg(dir);
        }
        let output = child.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let mut detail = None;
        for line in stdout.lines() {
            match line.strip_prefix("DETAIL ") {
                Some(json) => detail = serde_json::from_str::<Value>(json).ok(),
                // The child's last line is for a driver; the table above
                // it already says the same.
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        if !output.status.success() {
            return Err(format!(
                "workload {} failed: {}",
                workload.name, output.status
            ));
        }
        details.push(detail.ok_or(format!("workload {} printed no DETAIL line", workload.name))?);
    }
    Ok(details)
}

fn number(value: &Value, path: &[&str]) -> Option<f64> {
    let leaf = path.iter().try_fold(value, |v, key| v.get(key))?;
    match leaf {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

/// Two full sets of `run` back to back on the same build; fails when
/// any end-to-end metric of the second set is worse than the first's by
/// more than its bound.
fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    if args.quick {
        return Err("selfcheck refuses --quick: tiny passes measure nothing".into());
    }
    let first = run_set(args, false)?;
    let second = run_set(args, false)?;
    println!("# selfcheck: second set against first, same build");
    println!(
        "{:<8} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse_by", "bound"
    );
    let mut within = true;
    for ((workload, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for (def, bound) in END_TO_END {
            let read = |set: &Value| {
                number(set, &["metrics", def.name, "value"])
                    .ok_or(format!("{}: no {} in DETAIL", workload.name, def.name))
            };
            let (a, b) = (read(a)?, read(b)?);
            let worse_by = match def.better {
                Better::Higher => (a - b) / a,
                Better::Lower => (b - a) / a,
            };
            let ok = worse_by <= bound;
            within &= ok;
            println!(
                "{:<8} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                workload.name,
                def.name,
                a,
                b,
                worse_by * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    Ok(if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let outcome =
        parse_args(std::env::args().skip(1)).and_then(|args| match args.command.as_deref() {
            None => run_workload(&args),
            Some("selfcheck") => selfcheck(&args),
            Some(command) => run_set(&args, command == "trace").map(|_| ExitCode::SUCCESS),
        });
    outcome.unwrap_or_else(|error| {
        eprintln!("maps_benchmark: {error}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_form_parses() {
        let a = args(&[
            "--workload",
            "rush",
            "--seed",
            "0xB0B",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("rush"));
        assert_eq!(a.seed, Some(0xB0B));
        assert_eq!(a.seconds, Some(3.0));
        assert!(a.trace);
        assert!(a.command.is_none() && !a.quick);
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
        assert_eq!(
            args(&["selfcheck", "--quick"]).unwrap().command.as_deref(),
            Some("selfcheck")
        );
    }

    /// `durable` is the head of `churn`, `fanin` the whole of it; the
    /// quick twins keep every structural feature of the full shapes.
    #[test]
    fn workloads_share_churns_stream_and_quick_twins_keep_the_structure() {
        let find = |name: &str| WORKLOADS.iter().find(|w| w.name == name).unwrap();
        let (churn, durable, fanin) = (find("churn"), find("durable"), find("fanin"));
        assert_eq!(fanin.shape, churn.shape);
        assert_eq!(fanin.quick_shape, churn.quick_shape);
        for (d, c) in [
            (durable.shape, churn.shape),
            (durable.quick_shape, churn.quick_shape),
        ] {
            assert!(d.periods < c.periods);
            assert_eq!(
                StreamShape {
                    periods: c.periods,
                    ..d
                },
                c
            );
        }
        let recoveries = |shape: StreamShape, feed: Feed| match feed {
            Feed::Durable { recover_every, .. } => (shape.periods - 1) / recover_every,
            _ => 0,
        };
        assert_eq!(recoveries(durable.shape, durable.feed), 7);
        assert_eq!(recoveries(durable.quick_shape, durable.quick_feed), 7);
        for w in &WORKLOADS {
            assert!(w.shape.periods >= 200, "{}: p95 needs 200 ticks", w.name);
        }
    }

    #[test]
    fn selfcheck_refuses_quick() {
        let a = args(&["selfcheck", "--quick"]).unwrap();
        assert!(selfcheck(&a).unwrap_err().contains("refuses --quick"));
    }
}
