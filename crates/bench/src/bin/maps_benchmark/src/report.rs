//! The metric tables (the in-code twin of `BENCHMARK.json`), the
//! statistics every reported number goes through, and the output
//! formats.

use serde_json::Value;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The end-to-end metrics with their regression bounds (share of the
/// parent's median by which a change may worsen the metric).
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (higher("events_per_s", "1/s"), 0.25),
    (lower("tick_ms_p50", "ms"), 0.25),
    (lower("tick_ms_p95", "ms"), 0.25),
    (lower("peak_heap_mib", "MiB"), 0.2),
    (lower("setup_s", "s"), 0.25),
];

/// The per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: [MetricDef; 40] = [
    lower("service.admit_ns_per_event", "ns"),
    lower("service.tick_busy_ms", "ms/pass"),
    lower("service.tick_vs_reference", "ratio"),
    higher("service.events_admitted", "count"),
    lower("service.events_rejected", "count"),
    higher("service.workers_admitted", "count"),
    higher("service.live_workers_end", "count"),
    lower("ingest.send_wait_ms", "ms/pass"),
    higher("ingest.vs_serial", "ratio"),
    higher("ingest.epochs", "count"),
    lower("journal.bytes_per_event", "B"),
    lower("journal.encode_ns_per_record", "ns"),
    lower("journal.append_sync_ms", "ms/pass"),
    lower("journal.decode_ns_per_record", "ns"),
    lower("journal.checkpoint_bytes_last", "B"),
    lower("journal.plain_tick_extra_ms", "ms"),
    lower("journal.checkpoint_tick_extra_ms", "ms"),
    lower("recovery.recover_ms_first", "ms"),
    lower("recovery.recover_ms_last", "ms"),
    lower("recovery.recover_ms_total", "ms"),
    lower("recovery.epochs_replayed", "count"),
    lower("simulator.begin_period_ms", "ms/pass"),
    lower("simulator.settle_ms", "ms/pass"),
    lower("simulator.lifecycle_ms", "ms/pass"),
    lower("simulator.reference_loop_ms", "ms/pass"),
    lower("simulator.reference_unattributed_ms", "ms/pass"),
    lower("core.cache_apply_ms", "ms/pass"),
    lower("core.knn_graph_ms", "ms/pass"),
    lower("core.fill_inputs_ms", "ms/pass"),
    lower("core.price_period_ms", "ms/pass"),
    lower("core.observe_ms", "ms/pass"),
    lower("core.calibrate_ms", "ms"),
    lower("core.graph_edges", "count"),
    lower("matching.clearing_ms", "ms/pass"),
    higher("matching.matched_pairs", "count"),
    higher("matching.accepted_tasks", "count"),
    lower("spatial.insert_ns_per_point", "ns"),
    lower("spatial.remove_ns_per_point", "ns"),
    lower("spatial.knn_ns_per_query", "ns"),
    lower("trace.overhead_ratio", "ratio"),
];

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method);
/// a single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds.
pub fn percentile_ms(samples_ns: &[u64], pct: usize) -> f64 {
    assert!(!samples_ns.is_empty(), "percentile of no samples");
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    let rank = (v.len() * pct).div_ceil(100).max(1);
    v[rank - 1] as f64 / 1e6
}

/// One reported metric: its value, and the spread of the samples
/// behind it.
#[derive(Debug, Clone)]
pub struct Reported {
    pub def: MetricDef,
    /// The number the result line carries.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// One sample per timed pass (or traced iteration, or set-up).
    pub samples: Vec<f64>,
}

impl Reported {
    /// A metric whose value is computed from the passes together (the
    /// floor pass); `samples` are the single passes' readings of it.
    pub fn with_value(def: MetricDef, value: f64, samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Self {
            def,
            value,
            median: median(samples),
            q1,
            q3,
            samples: samples.to_vec(),
        }
    }

    /// A metric reported as the median of its samples.
    pub fn median_of(def: MetricDef, samples: &[f64]) -> Self {
        Self::with_value(def, median(samples), samples)
    }
}

/// Everything one workload's process reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub traced: bool,
    pub host: String,
    pub note: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reported>,
}

impl Report {
    /// The human-readable block: a host line, one line per metric, the
    /// operation counts.
    pub fn print_table(&self) {
        println!(
            "# workload={} seed={:#x} quick={} traced={} {}",
            self.workload, self.seed, self.quick, self.traced, self.host
        );
        println!("# {}", self.note);
        println!(
            "{:<38} {:>8} {:>7} {:>16} {:>16} {:>16} {:>16} {:>3}",
            "metric", "unit", "better", "value", "median", "q1", "q3", "n"
        );
        for m in &self.metrics {
            println!(
                "{:<38} {:>8} {:>7} {:>16.4} {:>16.4} {:>16.4} {:>16.4} {:>3}",
                m.def.name,
                m.def.unit,
                m.def.better.as_str(),
                m.value,
                m.median,
                m.q1,
                m.q3,
                m.samples.len()
            );
        }
        println!(
            "ops_attempted={} ops_failed={} correct={}",
            self.attempted, self.failed, self.correct
        );
    }

    /// The machine-readable twin of [`Report::print_table`], one line,
    /// prefixed `DETAIL ` — what `run` and `selfcheck` read back.
    pub fn detail_line(&self) -> String {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|m| {
                let fields = [
                    ("unit", Value::String(m.def.unit.into())),
                    ("better", Value::String(m.def.better.as_str().into())),
                    ("value", Value::Number(m.value)),
                    ("median", Value::Number(m.median)),
                    ("q1", Value::Number(m.q1)),
                    ("q3", Value::Number(m.q3)),
                    (
                        "samples",
                        Value::Array(m.samples.iter().map(|&v| Value::Number(v)).collect()),
                    ),
                ];
                (m.def.name.to_string(), object(fields))
            })
            .collect();
        let detail = object([
            ("workload", Value::String(self.workload.clone())),
            ("seed", Value::Number(self.seed as f64)),
            ("quick", Value::Bool(self.quick)),
            ("traced", Value::Bool(self.traced)),
            ("host", Value::String(self.host.clone())),
            ("note", Value::String(self.note.clone())),
            ("correct", Value::Bool(self.correct)),
            ("ops_attempted", Value::Number(self.attempted as f64)),
            ("ops_failed", Value::Number(self.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ]);
        format!(
            "DETAIL {}",
            serde_json::to_string(&detail).expect("a Value always renders")
        )
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric a value with all its digits
    /// and a unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.def.name, m.value, m.def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ns: Vec<u64> = (1..=200).map(|i| i * 1_000_000).collect();
        assert_eq!(percentile_ms(&ns, 50), 100.0);
        assert_eq!(percentile_ms(&ns, 95), 190.0);
        assert_eq!(percentile_ms(&[5_000_000], 95), 5.0);
    }

    #[test]
    fn metric_names_are_unique_and_counted() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.len(), 45);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 45);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binary prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match json.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let text_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{key}: expected a string, got {other:?}"),
        };
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS.map(|w| w.name));

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (json, (def, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(json, "name"), def.name);
            assert_eq!(text_of(json, "unit"), def.unit, "{}", def.name);
            assert_eq!(text_of(json, "better"), def.better.as_str(), "{}", def.name);
            assert_eq!(
                json.get("bound"),
                Some(&Value::Number(bound)),
                "{}",
                def.name
            );
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (json, def) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text_of(json, "name"), def.name);
            assert_eq!(text_of(json, "unit"), def.unit, "{}", def.name);
            assert_eq!(text_of(json, "better"), def.better.as_str(), "{}", def.name);
        }
        assert_eq!(
            json.get("run_seconds"),
            Some(&Value::Number(crate::RUN_SECONDS as f64))
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            workload: "churn".into(),
            seed: 1,
            quick: true,
            traced: false,
            host: "nproc=2".into(),
            note: String::new(),
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Reported::median_of(END_TO_END[0].0, &[2.0, 1.0, 4.0])],
        };
        let parsed: Value = serde_json::from_str(&report.result_line()).unwrap();
        let Value::Object(map) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metric = parsed.get("metrics").unwrap().get("events_per_s").unwrap();
        assert_eq!(metric.get("value"), Some(&Value::Number(2.0)));
        assert_eq!(metric.get("unit"), Some(&Value::String("1/s".into())));
        let detail = report.detail_line();
        let detail: Value = serde_json::from_str(detail.strip_prefix("DETAIL ").unwrap()).unwrap();
        assert_eq!(detail.get("quick"), Some(&Value::Bool(true)));
    }
}
