//! Machine-readable perf trajectory: measures the PR-1 evaluation
//! kernels, the PR-2 parallel pricing/runner paths, the PR-3
//! incremental graph-build engine, the PR-4 sharded online service,
//! the PR-5/PR-7 multi-producer ingestion front-end, the PR-6
//! write-ahead journal, the PR-8 SoA k-NN + telemetry rows, the PR-9
//! static-analysis scan, and the PR-10 model-checker run against their
//! retained baselines and writes `BENCH_PR13.json`.
//!
//! ```sh
//! cargo run --release -p maps-bench --bin bench_report [-- OUT.json]
//! ```
//!
//! Schema (`maps-bench-report/v1`, also documented in the README): a
//! `kernels` object with one row per kernel; every `*_ns` field is the
//! **median of repeated wall-clock runs** in nanoseconds for one full
//! kernel invocation (not per sample/world). PR 5 adds the ingestion
//! row next to PR 4's service row; PR 7 extends it with the serial-push
//! baseline it must beat:
//!
//! ```json
//! {
//!   "kernels": {
//!     "ingest_throughput": {
//!       "n_workers": ..., "n_tasks": ..., "periods": ..., "shards": ...,
//!       "producers": ..., "queue_capacity": ..., "events": ...,
//!       "replay_ns": ..., "events_per_sec": ...,
//!       "serial_ns": ..., "speedup_vs_serial": ...,
//!       "threads": ..., "bit_identical": true
//!     }
//!   }
//! }
//! ```
//!
//! `events_per_sec` is the end-to-end ingest rate on a 100k-worker
//! stream (arrivals + task requests + ticks over the replay
//! wall-clock); `serial_ns` is the serial-push replay of the same
//! stream measured in the same process, and `speedup_vs_serial` their
//! ratio — `bench_gate` fails any report whose multi-producer ingestion
//! is slower than serial push (< 1.0); `bit_identical` records the
//! cross-check of the multi-producer outcome against serial ingestion
//! (itself checked against `Simulation::run` in the
//! `service_throughput` row) before anything is timed.
//!
//! PR 8 adds two rows: `knn_query` isolates the SoA capped k-NN
//! kernel (the inner loop of every graph build) on a 200k-point index,
//! bit-checked against a fresh static index before timing; and
//! `telemetry_overhead` prices the always-on latency histograms —
//! recording is a pure function of per-period counts, so the row
//! measures the exact `record_period` call pattern one
//! `service_throughput` replay performs and reports
//! `overhead = 1 + telemetry_ns / replay_ns`. `bench_gate` fails a
//! report whose telemetry costs more than 3% of service throughput
//! (`overhead > 1.03`).
//!
//! PR 9 adds the `lint_runtime` row: a full `maps-lint` workspace scan
//! (the static-analysis pass CI runs before the build), asserted clean
//! and then timed — the gate that keeps the determinism contracts
//! machine-checked must itself stay cheap enough to run on every push.
//!
//! PR 10 adds the `model_check_runtime` row: an exhaustive `maps-model`
//! exploration of the ring's SeqCst-fenced park/wake handshake (the
//! PR-7 fix in miniature), asserted counterexample-free and then timed.
//! Like `lint_runtime`, the row exists so the interleaving checker CI
//! runs on every push stays cheap enough to keep running — and so a
//! refactor cannot silently drop the model-check step from the gate.
//!
//! Each PR appends its own `BENCH_PR<N>.json` so the perf trajectory
//! stays diffable; the `bench_gate` binary fails CI when a fresh run
//! regresses >2x against the last committed report **or when a required
//! row (`graph_build_*`, `knn_query`, `service_throughput`,
//! `ingest_throughput`, `journal_throughput`, `lint_runtime`,
//! `model_check_runtime`) goes missing** (so a refactor cannot silently drop a standing subsystem
//! benchmark).

use maps_bench::{plateau_maps, random_graph, random_weights, PeriodFixture, XorShift};
use maps_core::{
    build_period_graph_capped, monte_carlo_expected_revenue_parallel,
    monte_carlo_expected_revenue_seeded, PeriodGraphCache, PricingStrategy, TaskInput, WorkerChurn,
    WorkerInput,
};
use maps_experiments::{run_panel, PanelSpec, RunOptions, Scale};
use maps_matching::{max_weight_matching_left_weights, MatchScratch, PossibleWorlds};
use maps_simulator::SyntheticConfig;
use maps_spatial::{BucketIndex, DynamicBucketIndex, GridSpec, Point, Rect};
use serde::{Serialize, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median wall-clock nanoseconds of `runs` invocations of `f`.
fn median_ns<O>(runs: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn accept_probs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = XorShift(seed | 1);
    (0..n).map(|_| 0.2 + 0.6 * rng.next_f64()).collect()
}

fn format_ms(ns: f64) -> String {
    format!("{:.2} ms", ns / 1e6)
}

/// Gray-code vs naive possible-world enumeration at the acceptance
/// criterion's n = 20 (1,048,576 worlds per solve).
fn possible_worlds_report() -> (Value, f64) {
    let n = 20usize;
    let graph = random_graph(n, n, 1.0 / 3.0, 42);
    let weights = random_weights(n, 43);
    let probs = accept_probs(n, 44);
    let pw = PossibleWorlds::new(&graph, &weights, &probs);

    // Correctness cross-check before timing anything.
    let naive_value = pw.expected_revenue_naive();
    let gray_value = pw.expected_revenue();
    assert!(
        (naive_value - gray_value).abs() < 1e-12 * naive_value.abs().max(1.0),
        "gray {gray_value} disagrees with naive {naive_value}"
    );

    let gray_ns = median_ns(5, || pw.expected_revenue());
    let naive_ns = median_ns(3, || pw.expected_revenue_naive());
    let speedup = naive_ns / gray_ns;
    println!(
        "possible_worlds n={n}: naive {} | gray {} | speedup {speedup:.1}x",
        format_ms(naive_ns),
        format_ms(gray_ns),
    );
    (
        serde::object([
            ("n_tasks", (n as f64).to_value()),
            ("worlds", ((1u64 << n) as f64).to_value()),
            ("naive_ns", naive_ns.to_value()),
            ("gray_ns", gray_ns.to_value()),
            ("speedup", speedup.to_value()),
        ]),
        speedup,
    )
}

/// Deterministic parallel Monte-Carlo vs its sequential twin.
fn monte_carlo_report() -> (Value, f64) {
    let (n_tasks, n_workers) = (400usize, 300usize);
    let graph = random_graph(n_tasks, n_workers, 0.04, 51);
    let weights = random_weights(n_tasks, 53);
    let probs = accept_probs(n_tasks, 55);
    let samples = 20_000u32;
    let seed = 7u64;

    let sequential_value =
        monte_carlo_expected_revenue_seeded(&graph, &weights, &probs, samples, seed);
    let parallel_value =
        monte_carlo_expected_revenue_parallel(&graph, &weights, &probs, samples, seed);
    let bit_identical = sequential_value.to_bits() == parallel_value.to_bits();
    assert!(bit_identical, "parallel MC diverged from sequential");

    let sequential_ns = median_ns(3, || {
        monte_carlo_expected_revenue_seeded(&graph, &weights, &probs, samples, seed)
    });
    let parallel_ns = median_ns(5, || {
        monte_carlo_expected_revenue_parallel(&graph, &weights, &probs, samples, seed)
    });
    let threads = rayon::current_num_threads();
    let speedup = sequential_ns / parallel_ns;
    // "Near-linear" is host-relative: efficiency ≈ 1.0 means the
    // parallel engine scales linearly in the threads this host offers
    // (on a 1-CPU container that is speedup ≈ 1.0 with no overhead).
    let efficiency = speedup / threads as f64;
    println!(
        "monte_carlo {n_tasks}x{n_workers} x{samples}: sequential {} | parallel {} \
         ({threads} threads) | speedup {speedup:.2}x | efficiency {efficiency:.2} \
         | bit-identical {bit_identical}",
        format_ms(sequential_ns),
        format_ms(parallel_ns),
    );
    (
        serde::object([
            ("n_tasks", (n_tasks as f64).to_value()),
            ("n_workers", (n_workers as f64).to_value()),
            ("samples", (samples as f64).to_value()),
            ("sequential_ns", sequential_ns.to_value()),
            ("parallel_ns", parallel_ns.to_value()),
            ("threads", (threads as f64).to_value()),
            ("speedup", speedup.to_value()),
            ("parallel_efficiency", efficiency.to_value()),
            ("bit_identical", bit_identical.to_value()),
        ]),
        speedup,
    )
}

/// Masked clearing kernel vs the `filter_left` materialization, in the
/// shape the evaluation loops actually use it: weights fixed, the
/// acceptance mask changing every round (so the masked path amortizes
/// its weight order and buffers, exactly like the Monte-Carlo and
/// possible-world engines do).
fn masked_clearing_report() -> Value {
    let (n_tasks, n_workers) = (1250usize, 5000usize);
    let rounds = 100usize;
    let fixture = maps_bench::PeriodFixture::new(n_tasks, n_workers, 10, 3);
    let weights = random_weights(n_tasks, 5);
    let masks: Vec<Vec<bool>> = (0..rounds)
        .map(|round| {
            let mut rng = XorShift(0x600D + round as u64);
            (0..n_tasks).map(|_| rng.next_f64() < 0.6).collect()
        })
        .collect();

    let filter_left_pass = || -> f64 {
        masks
            .iter()
            .map(|keep| {
                let (sub, old_of_new) = fixture.graph.filter_left(keep);
                let sub_weights: Vec<f64> =
                    old_of_new.iter().map(|&l| weights[l as usize]).collect();
                max_weight_matching_left_weights(&sub, &sub_weights).1
            })
            .sum()
    };
    let mut scratch = MatchScratch::new();
    let mut order = Vec::new();
    maps_matching::sort_by_weight_desc(&weights, &mut order);
    let mut masked_pass = || -> f64 {
        masks
            .iter()
            .map(|keep| {
                scratch.max_weight_value_ordered(&fixture.graph, &weights, &order, Some(keep))
            })
            .sum()
    };
    assert!(
        (filter_left_pass() - masked_pass()).abs() < 1e-6,
        "masked clearing disagrees with filter_left"
    );

    let filter_left_ns = median_ns(5, filter_left_pass);
    let masked_ns = median_ns(5, &mut masked_pass);
    let speedup = filter_left_ns / masked_ns;
    println!(
        "masked_clearing {n_tasks}x{n_workers} x{rounds} masks: filter_left {} | masked {} \
         | speedup {speedup:.1}x",
        format_ms(filter_left_ns),
        format_ms(masked_ns),
    );
    serde::object([
        ("n_tasks", (n_tasks as f64).to_value()),
        ("n_workers", (n_workers as f64).to_value()),
        ("rounds", (rounds as f64).to_value()),
        ("filter_left_ns", filter_left_ns.to_value()),
        ("masked_ns", masked_ns.to_value()),
        ("speedup", speedup.to_value()),
    ])
}

/// PR-2 tentpole row: the rayon table-driven `price_period` vs the
/// retained sequential on-demand path, on a 64-grid (≥32 per the
/// acceptance bar) panel with abundant supply and plateau-worst-case
/// acceptance statistics (see [`plateau_maps`]) — the regime where the
/// on-demand path degenerates to `O(n²·|ladder|)` re-scans per grid.
fn pricing_period_report() -> (Value, f64) {
    let (n_tasks, n_workers, side) = (4000usize, 5000usize, 8u32);
    let grids = (side * side) as usize;
    let fixture = PeriodFixture::new(n_tasks, n_workers, side, 11);

    let mut sequential_maps = plateau_maps(grids, false);
    let mut parallel_maps = plateau_maps(grids, true);
    let sequential_prices = sequential_maps.price_period(&fixture.input()).prices;
    let parallel_prices = parallel_maps.price_period(&fixture.input()).prices;
    let bit_identical = sequential_prices.len() == parallel_prices.len()
        && sequential_prices
            .iter()
            .zip(&parallel_prices)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(bit_identical, "parallel pricing diverged from sequential");

    let sequential_ns = median_ns(5, || sequential_maps.price_period(&fixture.input()));
    let parallel_ns = median_ns(5, || parallel_maps.price_period(&fixture.input()));
    let threads = rayon::current_num_threads();
    let speedup = sequential_ns / parallel_ns;
    println!(
        "pricing_period {grids} grids, {n_tasks}x{n_workers}: sequential {} | parallel {} \
         ({threads} threads) | speedup {speedup:.2}x | bit-identical {bit_identical}",
        format_ms(sequential_ns),
        format_ms(parallel_ns),
    );
    (
        serde::object([
            ("grids", (grids as f64).to_value()),
            ("n_tasks", (n_tasks as f64).to_value()),
            ("n_workers", (n_workers as f64).to_value()),
            ("sequential_ns", sequential_ns.to_value()),
            ("parallel_ns", parallel_ns.to_value()),
            ("threads", (threads as f64).to_value()),
            ("speedup", speedup.to_value()),
            ("bit_identical", bit_identical.to_value()),
        ]),
        speedup,
    )
}

/// PR-2 runner row: the seed-parallel `(cell × seed)` fan-out vs the
/// serial runner on a small two-x panel.
fn seed_runner_report() -> Value {
    let spec = PanelSpec {
        figure: "bench",
        panel: "seed_runner",
        x_name: "|W|",
        paper_ref: "bench_report",
        xs: vec![30.0, 60.0],
        build: Arc::new(|x, _scale, seed| {
            SyntheticConfig::paper_default()
                .with_num_workers(x as usize)
                .with_num_tasks(150)
                .with_periods(8)
                .with_grid_side(4)
                .build(seed)
        }),
    };
    let num_seeds = 4u64;
    let options = RunOptions {
        scale: Scale::Quick,
        num_seeds,
        parallel: true,
        track_memory: false,
        ..RunOptions::default()
    };
    let serial_options = RunOptions {
        parallel: false,
        ..options
    };
    // Schedule-independent columns must agree bitwise (timing columns
    // are wall-clock readings and legitimately differ).
    let canon = |rows: &[maps_experiments::Row]| -> Vec<u64> {
        rows.iter()
            .flat_map(|r| {
                [
                    r.x.to_bits(),
                    r.revenue.to_bits(),
                    r.issued.to_bits(),
                    r.accepted.to_bits(),
                    r.matched.to_bits(),
                ]
            })
            .collect()
    };
    let serial_rows = run_panel(&spec, serial_options);
    let parallel_rows = run_panel(&spec, options);
    let bit_identical = canon(&serial_rows) == canon(&parallel_rows);
    assert!(bit_identical, "seed-parallel rows diverged from serial");

    let serial_ns = median_ns(3, || run_panel(&spec, serial_options));
    let parallel_ns = median_ns(3, || run_panel(&spec, options));
    let threads = rayon::current_num_threads();
    let speedup = serial_ns / parallel_ns;
    println!(
        "seed_runner {} cells x {num_seeds} seeds: serial {} | parallel {} \
         ({threads} threads) | speedup {speedup:.2}x | bit-identical {bit_identical}",
        serial_rows.len(),
        format_ms(serial_ns),
        format_ms(parallel_ns),
    );
    serde::object([
        ("cells", (serial_rows.len() as f64).to_value()),
        ("num_seeds", (num_seeds as f64).to_value()),
        ("serial_ns", serial_ns.to_value()),
        ("parallel_ns", parallel_ns.to_value()),
        ("threads", (threads as f64).to_value()),
        ("speedup", speedup.to_value()),
        ("bit_identical", bit_identical.to_value()),
    ])
}

/// PR-3 tentpole rows: per-period capped-graph construction on a
/// 100k-worker pool with low churn (1% arrivals + 1% departures per
/// period, within the ≤5% acceptance band) — the from-scratch pipeline
/// (materialize the live worker list + `build_period_graph_capped`, a
/// full index rebuild) vs `PeriodGraphCache::advance_capped` (apply the
/// churn to the dynamic index, then the same output-sensitive queries).
/// Both paths are cross-checked for exact graph equality every period
/// before anything is timed; `bit_identical` records the check.
fn graph_build_report() -> (Value, Value, f64) {
    let n_workers = 100_000usize;
    let n_tasks = 128usize;
    let churn = n_workers / 100;
    let k = 16usize;
    let periods = 15usize;
    let grid = GridSpec::square(Rect::square(100.0), 16);
    let mut rng = XorShift(0xC0FFEE);
    let random_worker = |rng: &mut XorShift| {
        WorkerInput::new(
            &grid,
            Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0),
            5.0 + rng.next_f64() * 10.0,
        )
    };
    let mut cache = PeriodGraphCache::new(&grid, n_workers);
    let seed_arrivals: Vec<(u32, WorkerInput)> = (0..n_workers)
        .map(|id| (id as u32, random_worker(&mut rng)))
        .collect();
    cache.apply(WorkerChurn {
        arrivals: &seed_arrivals,
        ..WorkerChurn::default()
    });
    drop(seed_arrivals);
    let mut next_id = n_workers as u32;

    let mut scratch_samples = Vec::with_capacity(periods);
    let mut incremental_samples = Vec::with_capacity(periods);
    let mut workers: Vec<WorkerInput> = Vec::new();
    let mut bit_identical = true;
    for _ in 0..periods {
        // Low churn: a deterministic sample of live ids departs, the same
        // number of fresh workers arrives.
        let live = cache.live_ids();
        let mut departures: Vec<u32> = (0..churn * 2)
            .map(|_| live[(rng.next_u64() as usize) % live.len()])
            .collect();
        departures.sort_unstable();
        departures.dedup();
        departures.truncate(churn);
        let arrivals: Vec<(u32, WorkerInput)> = (0..churn)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                (id, random_worker(&mut rng))
            })
            .collect();
        let tasks: Vec<TaskInput> = (0..n_tasks)
            .map(|_| {
                TaskInput::new(
                    &grid,
                    Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0),
                    0.5 + rng.next_f64() * 3.0,
                )
            })
            .collect();

        let start = Instant::now();
        let incremental = black_box(cache.advance_capped(
            WorkerChurn {
                arrivals: &arrivals,
                departures: &departures,
                relocations: &[],
            },
            &tasks,
            k,
        ));
        incremental_samples.push(start.elapsed().as_secs_f64() * 1e9);

        // The from-scratch pipeline on the identical post-churn live set.
        let start = Instant::now();
        cache.fill_worker_inputs(&mut workers);
        let scratch = black_box(build_period_graph_capped(&grid, &tasks, &workers, k));
        scratch_samples.push(start.elapsed().as_secs_f64() * 1e9);

        bit_identical &= incremental == scratch;
    }
    assert!(bit_identical, "incremental graph diverged from scratch");
    scratch_samples.sort_by(f64::total_cmp);
    incremental_samples.sort_by(f64::total_cmp);
    let scratch_ns = scratch_samples[scratch_samples.len() / 2];
    let incremental_ns = incremental_samples[incremental_samples.len() / 2];
    let speedup = scratch_ns / incremental_ns;
    println!(
        "graph_build {n_workers} workers, {n_tasks} tasks, churn {churn}+{churn}/period, k={k}: \
         scratch {} | incremental {} | speedup {speedup:.2}x | bit-identical {bit_identical}",
        format_ms(scratch_ns),
        format_ms(incremental_ns),
    );
    let scratch_row = serde::object([
        ("n_workers", (n_workers as f64).to_value()),
        ("n_tasks", (n_tasks as f64).to_value()),
        ("churn_per_period", ((churn * 2) as f64).to_value()),
        ("k", (k as f64).to_value()),
        ("periods", (periods as f64).to_value()),
        ("build_ns", scratch_ns.to_value()),
    ]);
    let incremental_row = serde::object([
        ("n_workers", (n_workers as f64).to_value()),
        ("n_tasks", (n_tasks as f64).to_value()),
        ("churn_per_period", ((churn * 2) as f64).to_value()),
        ("k", (k as f64).to_value()),
        ("periods", (periods as f64).to_value()),
        ("build_ns", incremental_ns.to_value()),
        ("speedup", speedup.to_value()),
        ("bit_identical", bit_identical.to_value()),
    ]);
    (scratch_row, incremental_row, speedup)
}

/// PR-8 tentpole row: the SoA capped k-NN kernel in isolation. A batch
/// of capped nearest-neighbour queries runs against a churn-built
/// [`DynamicBucketIndex`] (the structure-of-arrays coordinate lanes the
/// PR-8 layout change introduced) over a 200k-point set. Every query
/// result is cross-checked for exact `(distance, id)` equality against
/// a fresh static [`BucketIndex`] over the same live set before
/// anything is timed; `bit_identical` records the check. The timed loop
/// uses `k_nearest_within_into` with a reused buffer — the exact shape
/// of the sharded service's per-period graph build.
fn knn_query_report() -> Value {
    let n_points = 200_000usize;
    let queries = 512usize;
    let k = 16usize;
    let radius = 10.0f64;
    let grid = GridSpec::square(Rect::square(100.0), 32);
    let mut rng = XorShift(0x50A0);
    let points: Vec<(Point, u32)> = (0..n_points)
        .map(|id| {
            (
                Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0),
                id as u32,
            )
        })
        .collect();
    // Build the dynamic index by insertion (the path the service uses),
    // with a churn pass so the SoA lanes contain reuse holes rather than
    // a pristine append-only layout.
    let mut dynamic = DynamicBucketIndex::new(grid);
    for &(p, id) in &points {
        dynamic.insert(p, id);
    }
    let churn = n_points / 100;
    for &(p, id) in points.iter().take(churn) {
        dynamic.remove(p, id);
    }
    for &(p, id) in points.iter().take(churn) {
        dynamic.insert(p, id);
    }
    let static_index = BucketIndex::build_with_grid(grid, &points);
    let centers: Vec<Point> = (0..queries)
        .map(|_| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0))
        .collect();

    // Correctness cross-check before timing anything.
    let mut bit_identical = true;
    for &c in &centers {
        let got = dynamic.k_nearest_within(c, radius, k, |_, _| true);
        let want = static_index.k_nearest_within(c, radius, k, |_, _| true);
        bit_identical &= got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1);
    }
    assert!(bit_identical, "dynamic k-NN diverged from static rebuild");

    let mut buf: Vec<(f64, u32)> = Vec::new();
    let query_ns = median_ns(5, || {
        let mut checksum = 0u64;
        for &c in &centers {
            dynamic.k_nearest_within_into(c, radius, k, |_, _| true, &mut buf);
            checksum = checksum.wrapping_add(buf.len() as u64);
        }
        checksum
    });
    let queries_per_sec = queries as f64 / (query_ns / 1e9);
    println!(
        "knn_query {n_points} points, {queries} queries, k={k}, r={radius}: batch {} \
         | {queries_per_sec:.0} queries/s | bit-identical {bit_identical}",
        format_ms(query_ns),
    );
    serde::object([
        ("n_points", (n_points as f64).to_value()),
        ("queries", (queries as f64).to_value()),
        ("k", (k as f64).to_value()),
        ("radius", radius.to_value()),
        ("query_ns", query_ns.to_value()),
        ("queries_per_sec", queries_per_sec.to_value()),
        ("bit_identical", bit_identical.to_value()),
    ])
}

/// PR-8 telemetry row: the price of the always-on latency histograms.
/// Telemetry recording is a pure function of per-period counts (it
/// participates in `deterministic_bits`, so it cannot be compiled out
/// for an A/B leg without changing the outcome), which means its
/// end-to-end cost is exactly the `record_period` call pattern one
/// `service_throughput` replay performs: one call per period at that
/// row's issued-task and live-worker scale. The row times that pattern
/// (amplified for timer resolution, averaged back down) and reports
/// `overhead = 1 + telemetry_ns / replay_ns` against the service row's
/// replay measured in the same process. `bench_gate` fails any report
/// where `overhead > 1.03`.
fn telemetry_overhead_report(service_replay_ns: f64) -> Value {
    let periods = 10u64;
    let tasks_per_period = 200u64; // service_throughput: 2k tasks over 10 periods
    let live_workers = 100_000u64;
    let reps = 10_000usize;
    let batch_ns = median_ns(5, || {
        let mut t = maps_telemetry::LatencyTelemetry::new();
        for _ in 0..reps {
            for _ in 0..periods {
                t.record_period(black_box(tasks_per_period), black_box(live_workers));
            }
        }
        t
    });
    let telemetry_ns = batch_ns / reps as f64;
    let overhead = 1.0 + telemetry_ns / service_replay_ns;
    println!(
        "telemetry_overhead {periods} record_period calls/replay ({tasks_per_period} tasks, \
         {live_workers} workers): {telemetry_ns:.0} ns/replay | overhead {overhead:.6}x",
    );
    serde::object([
        ("periods", (periods as f64).to_value()),
        ("tasks_per_period", (tasks_per_period as f64).to_value()),
        ("live_workers", (live_workers as f64).to_value()),
        ("telemetry_ns", telemetry_ns.to_value()),
        ("replay_ns", service_replay_ns.to_value()),
        ("overhead", overhead.to_value()),
    ])
}

/// PR-4 tentpole row: end-to-end event throughput of the grid-sharded
/// online service on a 100k-worker stream (every worker arrival, task
/// request and period tick is one event). The replayed outcome is
/// cross-checked bit-for-bit against `Simulation::run` before anything
/// is timed — a throughput number for a service that diverges from the
/// batch oracle would be meaningless.
fn service_throughput_report() -> Value {
    let n_workers = 100_000usize;
    let n_tasks = 2_000usize;
    let periods = 10usize;
    let shards = 4usize;
    let truth = SyntheticConfig::paper_default()
        .with_num_workers(n_workers)
        .with_num_tasks(n_tasks)
        .with_periods(periods)
        .build(0x5E41);
    let options = maps_simulator::SimOptions {
        calibrate: false,
        ..maps_simulator::SimOptions::default()
    };
    let events = (truth.total_workers() + truth.total_tasks() + truth.num_periods()) as f64;
    let kind = maps_core::StrategyKind::Maps;

    let batch = maps_simulator::Simulation::new(truth.clone(), kind)
        .with_options(options)
        .run();
    let online = maps_service::replay_with_options(&truth, kind, shards, options);
    let bit_identical = online.deterministic_bits() == batch.deterministic_bits();
    assert!(bit_identical, "service replay diverged from the batch run");

    let replay_ns = median_ns(3, || {
        maps_service::replay_with_options(&truth, kind, shards, options)
    });
    let events_per_sec = events / (replay_ns / 1e9);
    let threads = rayon::current_num_threads();
    println!(
        "service_throughput {n_workers} workers, {n_tasks} tasks, {periods} periods, \
         {shards} shards: replay {} | {events_per_sec:.0} events/s ({threads} threads) \
         | bit-identical {bit_identical}",
        format_ms(replay_ns),
    );
    serde::object([
        ("n_workers", (n_workers as f64).to_value()),
        ("n_tasks", (n_tasks as f64).to_value()),
        ("periods", (periods as f64).to_value()),
        ("shards", (shards as f64).to_value()),
        ("events", events.to_value()),
        ("replay_ns", replay_ns.to_value()),
        ("events_per_sec", events_per_sec.to_value()),
        ("threads", (threads as f64).to_value()),
        ("bit_identical", bit_identical.to_value()),
    ])
}

/// PR-5/PR-7 tentpole row: end-to-end event throughput of the bounded
/// multi-producer ingestion front-end on the same 100k-worker stream
/// the `service_throughput` row uses, split across 4 producer threads.
/// The ingested outcome is cross-checked bit-for-bit against serial
/// ingestion (`replay_with_options`) before anything is timed — the
/// interleaving-invariance contract observed at benchmark scale.
///
/// Since PR 7 the row also times the serial-push baseline it competes
/// with (`serial_ns`) and records `speedup_vs_serial` — the number
/// whose silent regression below 1.0 shipped the PR-5/6 front-door
/// slowdown. `bench_gate` fails any candidate whose multi-producer
/// ingestion is slower than serial push.
///
/// Measurement protocol: the serial and ingested replays run in
/// **interleaved pairs** (serial, ingested, serial, ingested, …) and
/// `speedup_vs_serial` is the median of the per-pair ratios. Both legs
/// of a pair see the same instantaneous host conditions, so slow
/// environmental drift (a noisy-neighbor VM, frequency scaling) cancels
/// out of the ratio instead of landing on whichever block of
/// back-to-back runs it happened to hit.
fn ingest_throughput_report() -> Value {
    let n_workers = 100_000usize;
    let n_tasks = 2_000usize;
    let periods = 10usize;
    let shards = 4usize;
    let producers = 4usize;
    let queue_capacity = maps_service::IngestConfig::default().queue_capacity;
    let truth = SyntheticConfig::paper_default()
        .with_num_workers(n_workers)
        .with_num_tasks(n_tasks)
        .with_periods(periods)
        .build(0x5E41);
    let options = maps_simulator::SimOptions {
        calibrate: false,
        ..maps_simulator::SimOptions::default()
    };
    let events = (truth.total_workers() + truth.total_tasks() + truth.num_periods()) as f64;
    let kind = maps_core::StrategyKind::Maps;

    let serial = maps_service::replay_with_options(&truth, kind, shards, options);
    let ingested = maps_service::replay_ingested(&truth, kind, shards, producers, options);
    let bit_identical = ingested.deterministic_bits() == serial.deterministic_bits();
    assert!(bit_identical, "ingested replay diverged from serial push");

    // Interleaved pairs: each round times one serial leg then one
    // ingested leg back-to-back, and only the per-round ratio is kept.
    let rounds = 5usize;
    let mut serial_samples = Vec::with_capacity(rounds);
    let mut ingested_samples = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        std::hint::black_box(maps_service::replay_with_options(
            &truth, kind, shards, options,
        ));
        let s = t.elapsed().as_nanos() as f64;
        let t = std::time::Instant::now();
        std::hint::black_box(maps_service::replay_ingested(
            &truth, kind, shards, producers, options,
        ));
        let i = t.elapsed().as_nanos() as f64;
        serial_samples.push(s);
        ingested_samples.push(i);
        ratios.push(s / i);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let serial_ns = median(serial_samples);
    let replay_ns = median(ingested_samples);
    let events_per_sec = events / (replay_ns / 1e9);
    let speedup_vs_serial = median(ratios);
    let threads = rayon::current_num_threads();
    println!(
        "ingest_throughput {n_workers} workers, {n_tasks} tasks, {periods} periods, \
         {shards} shards, {producers} producers: replay {} | {events_per_sec:.0} events/s \
         | serial {} | speedup_vs_serial {speedup_vs_serial:.2}x \
         ({threads} threads) | bit-identical {bit_identical}",
        format_ms(replay_ns),
        format_ms(serial_ns),
    );
    serde::object([
        ("n_workers", (n_workers as f64).to_value()),
        ("n_tasks", (n_tasks as f64).to_value()),
        ("periods", (periods as f64).to_value()),
        ("shards", (shards as f64).to_value()),
        ("producers", (producers as f64).to_value()),
        ("queue_capacity", (queue_capacity as f64).to_value()),
        ("events", events.to_value()),
        ("replay_ns", replay_ns.to_value()),
        ("events_per_sec", events_per_sec.to_value()),
        ("serial_ns", serial_ns.to_value()),
        ("speedup_vs_serial", speedup_vs_serial.to_value()),
        ("threads", (threads as f64).to_value()),
        ("bit_identical", bit_identical.to_value()),
    ])
}

/// PR-6 tentpole row: the cost of durability. The same 100k-worker
/// stream the `service_throughput` row replays is replayed again with
/// the write-ahead journal attached (every admitted event encoded and
/// buffered, flush + fsync + checkpoint at each epoch barrier). The
/// journaled outcome is cross-checked bit-for-bit against the
/// unjournaled replay before anything is timed, and the acceptance bar
/// is `overhead ≤ 2x`: a WAL that more than doubles ingest cost would
/// not be deployable in front of the pricing loop.
fn journal_throughput_report() -> Value {
    let n_workers = 100_000usize;
    let n_tasks = 2_000usize;
    let periods = 10usize;
    let shards = 4usize;
    let checkpoint_every = 4u32;
    let truth = SyntheticConfig::paper_default()
        .with_num_workers(n_workers)
        .with_num_tasks(n_tasks)
        .with_periods(periods)
        .build(0x5E41);
    let options = maps_simulator::SimOptions {
        calibrate: false,
        ..maps_simulator::SimOptions::default()
    };
    let events = (truth.total_workers() + truth.total_tasks() + truth.num_periods()) as f64;
    let kind = maps_core::StrategyKind::Maps;
    let scratch = std::env::temp_dir().join(format!("maps_bench_journal_{}", std::process::id()));

    let unjournaled = maps_service::replay_with_options(&truth, kind, shards, options);
    let journaled = maps_service::replay_journaled(
        &truth,
        kind,
        shards,
        options,
        &maps_service::JournalConfig::new(scratch.join("check"), checkpoint_every),
    )
    .expect("journaled replay");
    let bit_identical = journaled.deterministic_bits() == unjournaled.deterministic_bits();
    assert!(bit_identical, "journaled replay diverged from unjournaled");

    let unjournaled_ns = median_ns(3, || {
        maps_service::replay_with_options(&truth, kind, shards, options)
    });
    let mut run = 0u32;
    let replay_ns = median_ns(3, || {
        run += 1;
        maps_service::replay_journaled(
            &truth,
            kind,
            shards,
            options,
            &maps_service::JournalConfig::new(scratch.join(format!("run{run}")), checkpoint_every),
        )
        .expect("journaled replay")
    });
    let journal_bytes = std::fs::metadata(
        maps_service::JournalConfig::new(scratch.join("run1"), checkpoint_every).journal_path(),
    )
    .map(|m| m.len() as f64)
    .unwrap_or(0.0);
    let _ = std::fs::remove_dir_all(&scratch);
    let overhead = replay_ns / unjournaled_ns;
    let events_per_sec = events / (replay_ns / 1e9);
    let threads = rayon::current_num_threads();
    println!(
        "journal_throughput {n_workers} workers, {n_tasks} tasks, {periods} periods, \
         {shards} shards: unjournaled {} | journaled {} | overhead {overhead:.2}x \
         | {events_per_sec:.0} events/s ({threads} threads) | bit-identical {bit_identical}",
        format_ms(unjournaled_ns),
        format_ms(replay_ns),
    );
    serde::object([
        ("n_workers", (n_workers as f64).to_value()),
        ("n_tasks", (n_tasks as f64).to_value()),
        ("periods", (periods as f64).to_value()),
        ("shards", (shards as f64).to_value()),
        ("checkpoint_every", (checkpoint_every as f64).to_value()),
        ("events", events.to_value()),
        ("journal_bytes", journal_bytes.to_value()),
        ("replay_ns", replay_ns.to_value()),
        ("unjournaled_ns", unjournaled_ns.to_value()),
        ("overhead", overhead.to_value()),
        ("events_per_sec", events_per_sec.to_value()),
        ("threads", (threads as f64).to_value()),
        ("bit_identical", bit_identical.to_value()),
    ])
}

/// PR-9 row: the static-analysis gate's own runtime. Scans every
/// workspace `.rs` file through `maps_lint::scan_workspace` — the same
/// library entry the `maps-lint` binary and CI use — asserting the
/// workspace is clean (zero violations, matching the CI bar) before
/// timing, so the row can never report the latency of a failing scan.
fn lint_runtime_report() -> Value {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = maps_lint::scan_workspace(&root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "workspace has lint violations; fix or waive before benchmarking"
    );
    let files = report.files_scanned as f64;
    let waived = report.waived.len() as f64;
    let scan_ns = median_ns(5, || {
        maps_lint::scan_workspace(&root).expect("workspace scan")
    });
    let files_per_sec = files / (scan_ns / 1e9);
    println!(
        "lint_runtime {files:.0} files, {waived:.0} waivers: scan {} | {files_per_sec:.0} files/s",
        format_ms(scan_ns),
    );
    serde::object([
        ("files", files.to_value()),
        ("waived", waived.to_value()),
        ("violations", (report.violations.len() as f64).to_value()),
        ("scan_ns", scan_ns.to_value()),
        ("files_per_sec", files_per_sec.to_value()),
    ])
}

/// PR-10 row: the interleaving model checker's own runtime. Exhaustively
/// explores the ring's SeqCst-fenced park/wake handshake in miniature —
/// the exact Dekker-style publish/park rendezvous PR 7's fence fix
/// relies on, and the same shape the `maps-service` model suite checks
/// against the shipping `ingest.rs` — through `maps-model`'s DFS
/// scheduler with sleep-set pruning. The exploration is asserted
/// counterexample-free (matching the CI bar) before timing, so the row
/// can never report the latency of a failing check.
///
/// The scenario deliberately uses `maps_model` types directly rather
/// than enabling `maps-service`'s `maps_model` feature: cargo feature
/// unification would otherwise switch the shipping ring to tracked
/// atomics for the whole bench binary and corrupt `ingest_throughput`.
fn model_check_runtime_report() -> Value {
    use maps_model::sync::{fence, AtomicBool, AtomicU64, Condvar, Mutex, Ordering};
    use std::sync::Arc;
    let scenario = || {
        let state = Arc::new((
            Mutex::new(()),
            Condvar::new(),
            AtomicU64::new(0),      // published
            AtomicBool::new(false), // parked
        ));
        let s2 = Arc::clone(&state);
        let t = maps_model::thread::spawn(move || {
            let (park, cv, published, parked) = &*s2;
            published.store(1, Ordering::Relaxed);
            fence(Ordering::SeqCst); // the PR 7 fix under test
            if parked.load(Ordering::Relaxed) {
                drop(park.lock().expect("park mutex"));
                cv.notify_all();
            }
        });
        let (park, cv, published, parked) = &*state;
        let guard = park.lock().expect("park mutex");
        parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if published.load(Ordering::SeqCst) == 0 {
            let _g = cv.wait(guard).expect("park mutex");
        } else {
            drop(guard);
        }
        parked.store(false, Ordering::SeqCst);
        t.join().unwrap();
    };
    let report = maps_model::explore(scenario);
    assert!(
        report.failure.is_none(),
        "park/wake handshake has a counterexample: {:?}",
        report.failure
    );
    let executions = report.executions as f64;
    let pruned = report.pruned as f64;
    let check_ns = median_ns(5, || {
        let r = maps_model::explore(scenario);
        assert!(r.failure.is_none(), "{:?}", r.failure);
    });
    let executions_per_sec = executions / (check_ns / 1e9);
    println!(
        "model_check_runtime park/wake handshake: {executions:.0} executions \
         ({pruned:.0} pruned): check {} | {executions_per_sec:.0} executions/s",
        format_ms(check_ns),
    );
    serde::object([
        ("executions", executions.to_value()),
        ("pruned", pruned.to_value()),
        ("check_ns", check_ns.to_value()),
        ("executions_per_sec", executions_per_sec.to_value()),
    ])
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR13.json".to_string());

    println!("maps bench_report — PR 13 kernel trajectory");
    println!("===========================================");
    let (possible_worlds, pw_speedup) = possible_worlds_report();
    let (monte_carlo, _mc_speedup) = monte_carlo_report();
    let masked_clearing = masked_clearing_report();
    let (pricing_period, pricing_speedup) = pricing_period_report();
    let seed_runner = seed_runner_report();
    let (graph_build_scratch, graph_build_incremental, graph_speedup) = graph_build_report();
    let knn_query = knn_query_report();
    let service_throughput = service_throughput_report();
    let service_replay_ns = service_throughput
        .get("replay_ns")
        .and_then(|v| match v {
            Value::Number(n) => Some(*n),
            _ => None,
        })
        .expect("service row has replay_ns");
    let telemetry_overhead = telemetry_overhead_report(service_replay_ns);
    let ingest_throughput = ingest_throughput_report();
    let journal_throughput = journal_throughput_report();
    let lint_runtime = lint_runtime_report();
    let model_check_runtime = model_check_runtime_report();

    let journal_overhead = journal_throughput
        .get("overhead")
        .and_then(|v| match v {
            Value::Number(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(f64::INFINITY);
    if journal_overhead > 2.0 {
        eprintln!(
            "warning: journaled ingest overhead {journal_overhead:.2}x is beyond the 2x \
             acceptance bar"
        );
    }
    let ingest_speedup = ingest_throughput
        .get("speedup_vs_serial")
        .and_then(|v| match v {
            Value::Number(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(0.0);
    if ingest_speedup < 1.0 {
        eprintln!(
            "warning: multi-producer ingestion speedup_vs_serial {ingest_speedup:.2}x is \
             below the serial-push bar"
        );
    }
    if pw_speedup < 5.0 {
        eprintln!("warning: gray-code speedup {pw_speedup:.1}x is below the 5x acceptance bar");
    }
    if pricing_speedup < 1.0 {
        eprintln!(
            "warning: parallel pricing speedup {pricing_speedup:.2}x shows no wall-clock win"
        );
    }
    if graph_speedup < 3.0 {
        eprintln!(
            "warning: incremental graph-build speedup {graph_speedup:.2}x is below the 3x \
             acceptance bar"
        );
    }
    let telemetry_cost = telemetry_overhead
        .get("overhead")
        .and_then(|v| match v {
            Value::Number(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(f64::INFINITY);
    if telemetry_cost > 1.03 {
        eprintln!(
            "warning: telemetry overhead {telemetry_cost:.4}x exceeds the 3% service-throughput \
             budget"
        );
    }

    let report = serde::object([
        ("schema", "maps-bench-report/v1".to_value()),
        ("pr", 13.0f64.to_value()),
        (
            "host",
            serde::object([("threads", (rayon::current_num_threads() as f64).to_value())]),
        ),
        (
            "kernels",
            serde::object([
                ("possible_worlds_n20", possible_worlds),
                ("monte_carlo", monte_carlo),
                ("masked_clearing", masked_clearing),
                ("pricing_period", pricing_period),
                ("seed_runner", seed_runner),
                ("graph_build_scratch", graph_build_scratch),
                ("graph_build_incremental", graph_build_incremental),
                ("knn_query", knn_query),
                ("service_throughput", service_throughput),
                ("telemetry_overhead", telemetry_overhead),
                ("ingest_throughput", ingest_throughput),
                ("journal_throughput", journal_throughput),
                ("lint_runtime", lint_runtime),
                ("model_check_runtime", model_check_runtime),
            ]),
        ),
    ]);
    let text = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, format!("{text}\n")).expect("report written");
    println!("wrote {out_path}");
}
