//! Drives the built binary in `--quick` mode: every workload, both the
//! timed and the traced run, the crash/recover cycles and the
//! two-producer path — the whole harness at toy size.

use serde_json::Value;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["churn", "rush", "durable", "fanin"];

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maps_benchmark"))
        .args(args)
        .output()
        .expect("spawn maps_benchmark")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The value of `metrics.<name>.value` in a result line.
fn metric(result: &Value, name: &str) -> f64 {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Value::Number(n)) => *n,
        other => panic!("{name}: expected a number, got {other:?}"),
    }
}

/// Runs one workload in the driver's form and returns its last line.
fn result_line(workload: &str, trace: &str) -> Value {
    let args = [
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.05",
        "--trace",
        trace,
    ];
    let output = benchmark(&[&args[..], &["--quick"]].concat());
    let text = stdout(&output);
    assert!(
        output.status.success(),
        "{workload} trace={trace}: {}\n{text}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        text.contains("quick=true"),
        "{workload}: table not flagged quick"
    );
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("DETAIL "))
        .expect("a DETAIL line");
    let detail: Value = serde_json::from_str(detail).expect("DETAIL parses");
    assert_eq!(detail.get("quick"), Some(&Value::Bool(true)));
    let last = text.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result line parses");
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed"),
        Some(&Value::Number(0.0)),
        "{workload}"
    );
    assert!(matches!(result.get("attempted"), Some(Value::Number(n)) if *n >= 1.0));
    result
}

#[test]
fn timed_quick_run_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let result = result_line(workload, "0");
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "events_per_s",
                "peak_heap_mib",
                "setup_s",
                "tick_ms_p50",
                "tick_ms_p95"
            ],
            "{workload}"
        );
        for name in names {
            assert!(
                metric(&result, name) > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
    }
}

#[test]
fn traced_quick_run_separates_the_layers() {
    for workload in WORKLOADS {
        let result = result_line(workload, "1");
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        assert_eq!(metrics.len(), 40, "{workload}");
        for name in metrics.keys() {
            let exercised = match name.split('.').next().unwrap() {
                "ingest" => workload == "fanin",
                "journal" | "recovery" => workload == "durable",
                _ => continue,
            };
            let value = metric(&result, name);
            if exercised {
                assert!(value != 0.0, "{workload}: {name} should be measured");
            } else {
                assert_eq!(value, 0.0, "{workload}: {name} should be absent");
            }
        }
        assert!(metric(&result, "simulator.reference_loop_ms") > 0.0);
        assert!(metric(&result, "service.tick_busy_ms") > 0.0);
        assert!(metric(&result, "core.graph_edges") > 0.0);
        assert_eq!(metric(&result, "service.events_rejected"), 0.0);
    }
    assert_eq!(metric(&result_line("fanin", "1"), "ingest.epochs"), 24.0);
    assert!(metric(&result_line("durable", "1"), "recovery.epochs_replayed") > 0.0);
}

#[test]
fn span_file_is_json_lines_with_parents() {
    let path =
        std::env::temp_dir().join(format!("maps_benchmark_spans_{}.jsonl", std::process::id()));
    let output = benchmark(&[
        "--workload",
        "durable",
        "--seed",
        "3",
        "--seconds",
        "0.05",
        "--trace",
        "1",
        "--quick",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(output.status.success());
    let text = std::fs::read_to_string(&path).expect("span file written");
    std::fs::remove_file(&path).unwrap();
    let spans: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("span parses"))
        .collect();
    let named = |name: &str| {
        spans
            .iter()
            .filter(|s| s.get("name") == Some(&Value::String(name.into())))
            .count()
    };
    assert_eq!(named("recover"), 7, "seven crash/recover cycles");
    assert_eq!(named("tick"), 16);
    assert_eq!(named("knn_graph"), 16);
    assert_eq!(named("reference_loop"), 1);
    let orphans = spans
        .iter()
        .filter(|s| s.get("parent") == Some(&Value::Null))
        .count();
    assert_eq!(orphans, 3, "roots: the pass, calibrate, the reference loop");
}

#[test]
fn bare_run_covers_all_workloads_and_selfcheck_refuses_quick() {
    let output = benchmark(&["run", "--quick", "--seconds", "0.05"]);
    let text = stdout(&output);
    assert!(output.status.success(), "{text}");
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("# workload={workload} ")),
            "{workload} missing:\n{text}"
        );
    }
    let refused = benchmark(&["selfcheck", "--quick"]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("refuses --quick"));
}
