//! Result rows, paper-style tables and JSON-lines output.

use maps_telemetry::{LatencyTelemetry, Log2Histogram};
use serde::{Serialize, Value};
use std::io::Write;
use std::path::Path;

/// Deterministic event-time latency summary of one experiment cell:
/// count and log2-bucket p50/p99/p999 upper bounds for each of the
/// three histograms an [`maps_simulator::Outcome`] carries. These are
/// derived from `Outcome::latency` (merged over seeds), so — unlike
/// the wall-clock columns — two runs of the same cell always export
/// the same numbers at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// `(count, p50, p99, p999)` of the admission→priced task wait.
    pub task_wait: (u64, u64, u64, u64),
    /// `(count, p50, p99, p999)` of the per-tick pricing queue depth.
    pub queue_depth: (u64, u64, u64, u64),
    /// `(count, p50, p99, p999)` of the live worker pool per tick.
    pub worker_pool: (u64, u64, u64, u64),
}

fn quantiles(h: &Log2Histogram) -> (u64, u64, u64, u64) {
    (h.count(), h.p50(), h.p99(), h.p999())
}

impl From<&LatencyTelemetry> for LatencySummary {
    fn from(t: &LatencyTelemetry) -> Self {
        LatencySummary {
            task_wait: quantiles(&t.task_wait),
            queue_depth: quantiles(&t.queue_depth),
            worker_pool: quantiles(&t.worker_pool),
        }
    }
}

fn summary_object(q: (u64, u64, u64, u64)) -> Value {
    serde::object([
        ("count", q.0.to_value()),
        ("p50", q.1.to_value()),
        ("p99", q.2.to_value()),
        ("p999", q.3.to_value()),
    ])
}

impl Serialize for LatencySummary {
    fn to_value(&self) -> Value {
        serde::object([
            ("task_wait", summary_object(self.task_wait)),
            ("queue_depth", summary_object(self.queue_depth)),
            ("worker_pool", summary_object(self.worker_pool)),
        ])
    }
}

/// One aggregated experiment cell (a point in one of the paper's plots).
///
/// `Serialize` is implemented by hand below: the offline vendored
/// `serde` has no derive macro.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Figure id (`fig6` … `fig10`).
    pub figure: String,
    /// Panel key (`w`, `r`, …).
    pub panel: String,
    /// Paper sub-figure reference.
    pub paper_ref: String,
    /// x-axis name.
    pub x_name: String,
    /// Sweep value.
    pub x: f64,
    /// Strategy display name.
    pub strategy: String,
    /// Total revenue (Revenue panels).
    pub revenue: f64,
    /// Strategy pricing time over all periods (Time panels).
    pub pricing_secs: f64,
    /// Market-clearing time (same for all strategies; reported apart).
    pub clearing_secs: f64,
    /// One-off calibration time.
    pub calibration_secs: f64,
    /// Peak heap in MiB (Memory panels), if tracked.
    pub memory_mib: Option<f64>,
    /// Average issued tasks.
    pub issued: f64,
    /// Average accepted tasks.
    pub accepted: f64,
    /// Average matched tasks.
    pub matched: f64,
    /// Event-time latency summary (merged over the cell's seeds).
    pub telemetry: LatencySummary,
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        serde::object([
            ("figure", self.figure.to_value()),
            ("panel", self.panel.to_value()),
            ("paper_ref", self.paper_ref.to_value()),
            ("x_name", self.x_name.to_value()),
            ("x", self.x.to_value()),
            ("strategy", self.strategy.to_value()),
            ("revenue", self.revenue.to_value()),
            ("pricing_secs", self.pricing_secs.to_value()),
            ("clearing_secs", self.clearing_secs.to_value()),
            ("calibration_secs", self.calibration_secs.to_value()),
            ("memory_mib", self.memory_mib.to_value()),
            ("issued", self.issued.to_value()),
            ("accepted", self.accepted.to_value()),
            ("matched", self.matched.to_value()),
            ("telemetry", self.telemetry.to_value()),
        ])
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100_000.0 {
        format!("{:.3e}", v)
    } else if v.abs() >= 100.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.4}", v)
    }
}

/// The rows' strategies in the order they first appear, and the width
/// of a label column that holds the longest (at least 10).
fn strategy_labels(rows: &[Row]) -> (Vec<&str>, usize) {
    let mut labels: Vec<&str> = Vec::new();
    for row in rows {
        if !labels.contains(&row.strategy.as_str()) {
            labels.push(&row.strategy);
        }
    }
    let width = labels
        .iter()
        .map(|l| l.chars().count())
        .fold(10, usize::max);
    (labels, width)
}

/// Renders one metric (revenue / time / memory) of a panel as a table of
/// strategies × sweep values, mirroring a paper sub-figure.
pub fn metric_table(rows: &[Row], metric: &str) -> String {
    let mut xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let x_name = rows.first().map(|r| r.x_name.clone()).unwrap_or_default();
    let (labels, width) = strategy_labels(rows);
    let mut out = String::new();
    out.push_str(&format!("{:<width$}", format!("{metric}\\{x_name}")));
    for &x in &xs {
        out.push_str(&format!("{:>14}", fmt_value(x)));
    }
    out.push('\n');
    for strategy in labels {
        out.push_str(&format!("{strategy:<width$}"));
        for &x in &xs {
            let cell = rows
                .iter()
                .find(|r| r.strategy == strategy && r.x == x)
                .map(|r| match metric {
                    "revenue" => fmt_value(r.revenue),
                    "time" => fmt_value(r.pricing_secs),
                    "memory" => r
                        .memory_mib
                        .map(fmt_value)
                        .unwrap_or_else(|| "-".to_string()),
                    other => panic!("unknown metric {other}"),
                })
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!("{cell:>14}"));
        }
        out.push('\n');
    }
    out
}

/// Prints the three paper metrics (revenue, time, memory) for a panel.
pub fn print_metric_tables(rows: &[Row]) {
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    let head = &rows[0];
    println!(
        "== {} / {} — {} (x = {}) ==",
        head.figure, head.panel, head.paper_ref, head.x_name
    );
    for metric in ["revenue", "time", "memory"] {
        println!("{}", metric_table(rows, metric));
    }
}

/// Prints the `--telemetry` dump for a panel: one line per row with the
/// event-time latency quantiles. Everything here is deterministic (the
/// histograms ride in `Outcome::deterministic_bits`), so this output is
/// diffable across thread counts.
pub fn print_telemetry(rows: &[Row]) {
    let (_, width) = strategy_labels(rows);
    println!("-- event-time latency telemetry (deterministic) --");
    println!(
        "{:<width$} {:>10} {:>28} {:>28} {:>28}",
        "strategy",
        "x",
        "task_wait p50/p99/p999",
        "queue_depth p50/p99/p999",
        "worker_pool p50/p99/p999"
    );
    for row in rows {
        let t = &row.telemetry;
        let fmt = |q: (u64, u64, u64, u64)| format!("{}/{}/{} (n={})", q.1, q.2, q.3, q.0);
        println!(
            "{:<width$} {:>10} {:>28} {:>28} {:>28}",
            row.strategy,
            fmt_value(row.x),
            fmt(t.task_wait),
            fmt(t.queue_depth),
            fmt(t.worker_pool),
        );
    }
}

/// Writes rows as JSON lines to `path`, replacing whatever a previous
/// run left there: one run, one file (creates parent dirs).
pub fn write_jsonl(rows: &[Row], path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for row in rows {
        serde_json::to_writer(&mut file, row)?;
        file.write_all(b"\n")?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(strategy: &str, x: f64, revenue: f64) -> Row {
        Row {
            figure: "fig6".into(),
            panel: "w".into(),
            paper_ref: "Fig. 6 (a,e,i)".into(),
            x_name: "|W|".into(),
            x,
            strategy: strategy.into(),
            revenue,
            pricing_secs: 0.1,
            clearing_secs: 0.05,
            calibration_secs: 0.2,
            memory_mib: Some(5.0),
            issued: 100.0,
            accepted: 70.0,
            matched: 50.0,
            telemetry: LatencySummary {
                task_wait: (100, 63, 127, 127),
                queue_depth: (10, 15, 15, 15),
                worker_pool: (10, 255, 255, 255),
            },
        }
    }

    #[test]
    fn table_contains_all_strategies_and_values() {
        let rows = vec![
            row("MAPS", 1250.0, 123.0),
            row("BaseP", 1250.0, 456789.0),
            row("BaseP", 2500.0, 7.0),
        ];
        let t = metric_table(&rows, "revenue");
        assert!(t.contains("MAPS") && t.contains("BaseP"));
        assert!(!t.contains("CappedUCB"), "only the rows' strategies");
        assert!(t.contains("123.0"));
        assert!(t.contains("4.568e5"));
        // MAPS has no row at 2500: its cell renders as '-'.
        assert!(t.lines().any(|l| l.starts_with("MAPS") && l.ends_with('-')));
    }

    /// Strategies are listed in the order the rows first name them, and
    /// a label longer than 10 widens the label column of every line.
    #[test]
    fn labels_follow_the_rows_and_set_the_column_width() {
        let long = "MAPS (default: L-diff, UCB)";
        let rows = vec![
            row(long, 5000.0, 1.0),
            row("Custom", 5000.0, 2.0),
            row(long, 7500.0, 3.0),
        ];
        let t = metric_table(&rows, "revenue");
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with(long) && lines[2].starts_with("Custom"));
        assert!(lines.iter().all(|l| l.len() == long.len() + 2 * 14), "{t}");
    }

    #[test]
    fn memory_metric_handles_none() {
        let mut r = row("MAPS", 1.0, 1.0);
        r.memory_mib = None;
        let t = metric_table(&[r], "memory");
        assert!(t.lines().any(|l| l.starts_with("MAPS") && l.contains('-')));
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_panics() {
        let _ = metric_table(&[row("MAPS", 1.0, 1.0)], "latency");
    }

    /// One row's exact JSON line — field names, their order and the
    /// number format — against `tests/golden/row.jsonl`.
    #[test]
    fn jsonl_roundtrip() {
        let dir = std::env::temp_dir().join(format!("maps_jsonl_row_{}", std::process::id()));
        let path = dir.join("rows.jsonl");
        write_jsonl(&[row("MAPS", 1250.0, 1.5)], &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<String> = text.lines().map(String::from).collect();
        maps_testkit::assert_golden(env!("CARGO_MANIFEST_DIR"), "row.jsonl", &lines);
    }

    /// A second run of a panel replaces the first run's rows: appending
    /// left two rows per `(x, strategy)`, from whichever scales ran.
    #[test]
    fn jsonl_rewrite_keeps_only_the_last_run() {
        let dir = std::env::temp_dir().join(format!("maps_jsonl_rewrite_{}", std::process::id()));
        let path = dir.join("fig6_w.jsonl");
        write_jsonl(&[row("MAPS", 50.0, 1.0), row("SDR", 50.0, 2.0)], &path).unwrap();
        let second = vec![row("MAPS", 1250.0, 3.0)];
        write_jsonl(&second, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let want: String = (second.iter())
            .map(|row| serde_json::to_string(row).unwrap() + "\n")
            .collect();
        assert_eq!(text, want);
    }
}
