//! The two kinds of run: timed (`--trace 0`, the end-to-end metrics)
//! and traced (`--trace 1`, the per-layer metrics).
//!
//! Both generate the world once from the seed, compute the reference
//! loop's outcome for it, and then run passes — each on a fresh service
//! over the same stream — until the requested seconds are spent. A
//! single pass is not a measurement on a small shared host (identical
//! passes spread by a factor of two), so the timed run reports the
//! per-period [`Floor`] over all its passes, scaled by what the host
//! charged for a thread wake-up during the run, and the traced run
//! medians over its iterations.

use crate::drive::{failed_operations, new_service, run_pass, sim_options, Feed, Pass, ScratchDir};
use crate::probes::{journal_costs, kernel_costs, wake_round_trip_us};
use crate::reference::{reference_loop, ReferenceRun};
use crate::report::{median, percentile_ms, Report, Reported, END_TO_END, PER_LAYER};
use crate::stream::{build_world, StreamShape};
use crate::trace::Tracer;
use maps_simulator::GroundTruth;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Everything that fixes one run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: &'static str,
    pub shape: StreamShape,
    pub feed: Feed,
    pub seed: u64,
    /// How long to keep taking passes.
    pub seconds: f64,
    pub quick: bool,
    /// Parent of the per-pass journal directories.
    pub scratch_base: PathBuf,
    /// Where the traced run writes its spans, if anywhere.
    pub trace_out: Option<PathBuf>,
    pub host: String,
}

impl Plan {
    /// Set-ups per timed run (the quickest is `setup_s`).
    fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            9
        }
    }

    /// Fewest passes (timed run) or iterations (traced run) taken,
    /// however short `seconds` is.
    fn min_rounds(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// Operations a pass attempts when nothing fails.
    fn planned_ops(&self) -> u64 {
        let recoveries = match self.feed {
            Feed::Durable { recover_every, .. } => (self.shape.periods - 1) / recover_every,
            _ => 0,
        };
        self.shape.events() + recoveries as u64
    }
}

/// Generates the world and builds (then drops) a first calibrated
/// service, `repeats` times; returns the world and each set-up's time.
fn set_up(plan: &Plan, repeats: usize) -> (GroundTruth, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut world = None;
    for _ in 0..repeats {
        drop(world.take());
        let start = Instant::now();
        let built = build_world(&plan.shape, plan.seed);
        drop(new_service(&built));
        times.push(start.elapsed().as_secs_f64());
        world = Some(built);
    }
    (world.expect("at least one set-up"), times)
}

/// Books passes against the reference outcome.
struct Checker {
    expected: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Counts the pass's operations (`planned_ops` of them if it died
    /// on the way); hands the pass (and its journal directory) on only
    /// if it ran to the end with the right outcome.
    fn book(
        &mut self,
        label: &str,
        planned_ops: u64,
        result: Result<(Pass, ScratchDir), String>,
    ) -> Option<(Pass, ScratchDir)> {
        match result {
            Ok((pass, scratch)) => {
                let bits = pass.outcome.deterministic_bits();
                let failed = failed_operations(pass.attempted, pass.failed, &bits, &self.expected);
                self.attempted += pass.attempted;
                self.failed += failed;
                if bits != self.expected {
                    eprintln!("{label}: outcome differs from the reference loop's");
                    return None;
                }
                Some((pass, scratch))
            }
            Err(error) => {
                eprintln!("{label}: {error}");
                self.attempted += planned_ops;
                self.failed += planned_ops;
                None
            }
        }
    }
}

/// One pass in its own scratch directory.
fn pass_in_scratch(
    plan: &Plan,
    world: &GroundTruth,
    feed: Feed,
    index: usize,
    tracer: &mut Tracer,
) -> Result<(Pass, ScratchDir), String> {
    let scratch = ScratchDir::create(&plan.scratch_base, index)
        .map_err(|e| format!("{}: {e}", plan.scratch_base.display()))?;
    let pass = run_pass(world, feed, scratch.path(), tracer)?;
    Ok((pass, scratch))
}

fn report(
    plan: &Plan,
    traced: bool,
    note: String,
    checker: &Checker,
    metrics: Vec<Reported>,
) -> Report {
    Report {
        workload: plan.workload.to_string(),
        seed: plan.seed,
        quick: plan.quick,
        traced,
        host: plan.host.clone(),
        note,
        correct: checker.failed == 0 && !metrics.is_empty(),
        attempted: checker.attempted.max(1),
        failed: checker.failed,
        metrics,
    }
}

/// Samples per metric name: one per timed pass, traced iteration or
/// set-up.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The floor of the timed passes: period `t` of it took the least time
/// period `t` took in any of them.
///
/// Every pass does the same work, so whatever one pass spends on a
/// period beyond another is the host's doing (a neighbour on the core,
/// a reclaim scan), and that only ever adds time. Taking the least per
/// period, not per pass, lets a run of a dozen passes find a quiet
/// reading of every period even when no single pass was quiet
/// throughout. The timing metrics are read off this pass.
#[derive(Default)]
struct Floor {
    period_ns: Vec<u64>,
    tick_ns: Vec<u64>,
}

impl Floor {
    fn lower(&mut self, pass: &Pass) {
        lower_each(&mut self.period_ns, &pass.period_ns);
        lower_each(&mut self.tick_ns, &pass.tick_ns);
    }
}

/// `floor[t] = min(floor[t], pass[t])`; the first pass is the floor.
fn lower_each(floor: &mut Vec<u64>, pass: &[u64]) {
    if floor.is_empty() {
        floor.extend_from_slice(pass);
    }
    for (least, &ns) in floor.iter_mut().zip(pass) {
        *least = (*least).min(ns);
    }
}

/// Wake round trip of the host in its quiet state, in microseconds:
/// what [`wake_round_trip_us`] reads on the host the benchmark was
/// baselined on when its neighbours are idle. Times are reported as if
/// the run had met this latency.
const NOMINAL_WAKE_US: f64 = 40.0;
/// Readings of the wake probe taken after every pass.
const WAKE_READINGS: usize = 3;

fn events_per_s(plan: &Plan, wall_ns: u64) -> f64 {
    plan.shape.events() as f64 / (wall_ns as f64 / 1e9)
}

/// The timed run: set-up (repeated), one warm-up pass, then timed
/// passes with tracing off until `seconds` are spent.
pub fn run_timed(plan: &Plan) -> Report {
    let (world, setup_s) = set_up(plan, plan.setups());
    let expected = reference_loop(&world, sim_options(), &mut Tracer::disabled(), &[])
        .outcome
        .deterministic_bits();
    let mut checker = Checker {
        expected,
        attempted: 0,
        failed: 0,
    };
    let mut off = Tracer::disabled();
    let mut take = |index: usize, checker: &mut Checker| {
        let result = pass_in_scratch(plan, &world, plan.feed, index, &mut off);
        let label = format!("{} pass {index}", plan.workload);
        let (pass, _scratch) = checker.book(&label, plan.planned_ops(), result)?;
        Some(pass)
    };

    // Warm-up: page in the world, grow the allocator's arenas, start
    // the rayon pool. Checked like any pass, never timed.
    take(0, &mut checker);

    let mut samples = Samples::default();
    let mut floor = Floor::default();
    let mut wake_us = Vec::new();
    let started = Instant::now();
    let mut passes = 0;
    while passes < plan.min_rounds(3) || started.elapsed().as_secs_f64() < plan.seconds {
        passes += 1;
        let Some(pass) = take(passes, &mut checker) else {
            break;
        };
        samples.put("events_per_s", events_per_s(plan, pass.wall_ns));
        samples.put("tick_ms_p50", percentile_ms(&pass.tick_ns, 50));
        samples.put("tick_ms_p95", percentile_ms(&pass.tick_ns, 95));
        samples.put(
            "peak_heap_mib",
            pass.peak_heap_bytes as f64 / (1024.0 * 1024.0),
        );
        floor.lower(&pass);
        wake_us.extend((0..WAKE_READINGS).map(|_| wake_round_trip_us()));
    }

    // No metric without a timed pass: a run whose every timed pass
    // failed reports none (and is not correct).
    let mut note = format!(
        "{} ticks/pass, {} events/pass, 1 warm-up + {passes} timed passes, {} set-ups; \
         value = floor over the passes, median/q1/q3 = the single passes",
        plan.shape.periods,
        plan.shape.events(),
        plan.setups()
    );
    let metrics = if floor.period_ns.is_empty() {
        Vec::new()
    } else {
        // The floor sheds the bursts; a slow phase of the host that
        // outlasts the run it cannot see. Such a phase shows in what a
        // thread wake-up costs, and the passes' times follow that cost
        // one for one, so they are scaled to the nominal wake latency.
        let wake = median(&wake_us);
        let scale = NOMINAL_WAKE_US / wake;
        note.push_str(&format!(
            "\n# host wake round trip {wake:.1} us (nominal {NOMINAL_WAKE_US}): \
             times x {scale:.3}, rates / {scale:.3}; setup_s and peak_heap_mib as read"
        ));
        samples.0.insert("setup_s", setup_s);
        END_TO_END
            .iter()
            .map(|(def, _)| {
                let of_passes = &samples.0[def.name];
                let (value, scale) = match def.name {
                    "events_per_s" => (
                        events_per_s(plan, floor.period_ns.iter().sum()),
                        1.0 / scale,
                    ),
                    "tick_ms_p50" => (percentile_ms(&floor.tick_ns, 50), scale),
                    "tick_ms_p95" => (percentile_ms(&floor.tick_ns, 95), scale),
                    "peak_heap_mib" => (of_passes.iter().copied().fold(0.0, f64::max), 1.0),
                    "setup_s" => (of_passes.iter().copied().fold(f64::INFINITY, f64::min), 1.0),
                    other => unreachable!("no rule for end-to-end metric {other}"),
                };
                let scaled: Vec<f64> = of_passes.iter().map(|v| v * scale).collect();
                Reported::with_value(*def, value * scale, &scaled)
            })
            .collect()
    };
    report(plan, false, note, &checker, metrics)
}

/// Eight evenly spaced periods for the kernel probes.
fn probe_periods(periods: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = (0..8).map(|i| (2 * i + 1) * periods / 16).collect();
    picked.dedup();
    picked
}

/// The passes of one traced iteration.
struct Iteration {
    /// Serial, journal-free, untraced: the base of `ingest.vs_serial`
    /// and `journal.plain_tick_extra_ms`.
    plain: Pass,
    /// The workload's own feed, untraced (`None` when that is `plain`).
    untraced: Option<Pass>,
    /// The workload's own feed, traced, with its spans and its journal
    /// directory.
    traced: Pass,
    tracer: Tracer,
    scratch: ScratchDir,
}

/// Takes iteration `i`'s passes. The traced and the untraced pass swap
/// places every iteration: a pass inherits the previous one's dirty
/// pages and allocator state, and a fixed order would book that to
/// tracing.
fn take_iteration(
    plan: &Plan,
    world: &GroundTruth,
    checker: &mut Checker,
    i: usize,
) -> Option<Iteration> {
    #[derive(Clone, Copy)]
    enum Slot {
        Plain,
        Untraced,
        Traced,
    }
    let mut order = vec![Slot::Untraced, Slot::Traced];
    if i.is_multiple_of(2) {
        order.reverse();
    }
    if plan.feed != Feed::Plain {
        order.insert(0, Slot::Plain);
    }
    let mut off = Tracer::disabled();
    let mut tracer = Tracer::recording();
    let (mut plain, mut untraced, mut traced) = (None, None, None);
    for (n, slot) in order.into_iter().enumerate() {
        let (what, feed, spans) = match slot {
            Slot::Plain => ("plain", Feed::Plain, &mut off),
            Slot::Untraced => ("untraced", plan.feed, &mut off),
            Slot::Traced => ("traced", plan.feed, &mut tracer),
        };
        let planned = match slot {
            Slot::Plain => plan.shape.events(),
            _ => plan.planned_ops(),
        };
        let result = pass_in_scratch(plan, world, feed, 3 * i + n, spans);
        let label = format!("{} {what} {i}", plan.workload);
        let (pass, scratch) = checker.book(&label, planned, result)?;
        match slot {
            Slot::Plain => plain = Some(pass),
            Slot::Untraced => untraced = Some(pass),
            // Only the traced pass's journal is read afterwards.
            Slot::Traced => traced = Some((pass, scratch)),
        }
    }
    let (traced, scratch) = traced?;
    // On a plain workload the untraced pass *is* the plain pass.
    let plain = match plain {
        Some(plain) => plain,
        None => untraced.take()?,
    };
    Some(Iteration {
        plain,
        untraced,
        traced,
        tracer,
        scratch,
    })
}

/// Metrics of the service, the front door, the journal and recovery,
/// from the iteration's passes. `loop_ms` is the reference loop's wall.
fn layer_metrics_of_passes(
    plan: &Plan,
    it: &Iteration,
    loop_ms: f64,
    samples: &mut Samples,
) -> Result<(), String> {
    let pass = &it.traced;
    let untraced = it.untraced.as_ref().unwrap_or(&it.plain);
    let tick_busy_ns: u64 = pass.tick_ns.iter().sum();
    let recoveries = pass.durable.as_ref().map_or(0, |d| d.recover_ns.len()) as u64;
    // No `admit` spans on `fanin`: there admission runs on the sequencer
    // behind the ring, where no call of the driver's brackets it.
    let non_tick_events = plan.shape.events() - plan.shape.periods as u64;
    samples.put(
        "service.admit_ns_per_event",
        it.tracer.total_ns("admit") as f64 / non_tick_events as f64,
    );
    samples.put("service.tick_busy_ms", ms(tick_busy_ns));
    samples.put("service.tick_vs_reference", ms(tick_busy_ns) / loop_ms);
    samples.put(
        "service.events_admitted",
        (pass.attempted - pass.failed - recoveries) as f64,
    );
    samples.put("service.events_rejected", pass.events_rejected as f64);
    samples.put("service.workers_admitted", pass.workers_admitted as f64);
    samples.put("service.live_workers_end", pass.live_workers_end as f64);
    samples.put(
        "trace.overhead_ratio",
        pass.wall_ns as f64 / untraced.wall_ns as f64,
    );

    if let Some(fanin) = &pass.fanin {
        samples.put("ingest.send_wait_ms", ms(fanin.send_wait_ns));
        samples.put(
            "ingest.vs_serial",
            events_per_s(plan, untraced.wall_ns) / events_per_s(plan, it.plain.wall_ns),
        );
        samples.put("ingest.epochs", fanin.epochs as f64);
    }
    if let (
        Some(durable),
        Feed::Durable {
            checkpoint_every, ..
        },
    ) = (&pass.durable, plan.feed)
    {
        // Tick `e` writes a checkpoint when it closes period `e + 1`
        // and that is a multiple of the cadence.
        let (checkpoint, other): (Vec<_>, Vec<_>) = pass
            .tick_ns
            .iter()
            .enumerate()
            .partition(|(e, _)| (e + 1) % checkpoint_every as usize == 0);
        let median_ms = |ticks: &[(usize, &u64)]| {
            median(&ticks.iter().map(|(_, &ns)| ms(ns)).collect::<Vec<_>>())
        };
        samples.put(
            "journal.plain_tick_extra_ms",
            median_ms(&other) - percentile_ms(&it.plain.tick_ns, 50),
        );
        samples.put(
            "journal.checkpoint_tick_extra_ms",
            median_ms(&checkpoint) - median_ms(&other),
        );
        samples.put(
            "journal.bytes_per_event",
            durable.journal_bytes as f64 / plan.shape.events() as f64,
        );
        samples.put(
            "journal.checkpoint_bytes_last",
            durable.checkpoint_bytes_last as f64,
        );
        let (first, last) = (durable.recover_ns.first(), durable.recover_ns.last());
        samples.put("recovery.recover_ms_first", first.map_or(0.0, |&ns| ms(ns)));
        samples.put("recovery.recover_ms_last", last.map_or(0.0, |&ns| ms(ns)));
        samples.put(
            "recovery.recover_ms_total",
            ms(durable.recover_ns.iter().sum()),
        );
        samples.put("recovery.epochs_replayed", durable.epochs_replayed as f64);
        let costs = journal_costs(it.scratch.path())?;
        samples.put("journal.encode_ns_per_record", costs.encode_ns_per_record);
        samples.put("journal.decode_ns_per_record", costs.decode_ns_per_record);
        samples.put("journal.append_sync_ms", ms(costs.append_sync_ns));
    }
    Ok(())
}

/// Metrics of the simulator, core, matching and spatial layers, from a
/// traced reference loop.
fn layer_metrics_of_reference(
    plan: &Plan,
    world: &GroundTruth,
    reference: &ReferenceRun,
    spans: &Tracer,
    loop_ms: f64,
    samples: &mut Samples,
) {
    let total_ms = |name: &str| ms(spans.total_ns(name));
    let clearing_ms = reference.outcome.clearing_secs * 1e3;
    samples.put("simulator.begin_period_ms", total_ms("begin_period"));
    samples.put(
        "simulator.settle_ms",
        total_ms("settle_period") - clearing_ms,
    );
    samples.put("simulator.lifecycle_ms", total_ms("lifecycle"));
    samples.put("simulator.reference_loop_ms", loop_ms);
    samples.put(
        "simulator.reference_unattributed_ms",
        ms(spans.self_ns("reference_loop")),
    );
    samples.put("core.cache_apply_ms", total_ms("cache_apply"));
    samples.put("core.knn_graph_ms", total_ms("knn_graph"));
    samples.put("core.fill_inputs_ms", total_ms("fill_inputs"));
    samples.put("core.price_period_ms", total_ms("price_period"));
    samples.put("core.observe_ms", total_ms("observe"));
    samples.put("core.calibrate_ms", total_ms("calibrate"));
    samples.put("core.graph_edges", reference.graph_edges as f64);
    samples.put("matching.clearing_ms", clearing_ms);
    samples.put(
        "matching.matched_pairs",
        reference.outcome.matched_tasks as f64,
    );
    samples.put(
        "matching.accepted_tasks",
        reference.outcome.accepted_tasks as f64,
    );
    let kernels = kernel_costs(
        &reference.probes,
        world.grid.region(),
        world.total_workers(),
        sim_options().max_edges_per_task,
        plan.seed,
    );
    samples.put("spatial.insert_ns_per_point", kernels.insert_ns_per_point);
    samples.put("spatial.remove_ns_per_point", kernels.remove_ns_per_point);
    samples.put("spatial.knn_ns_per_query", kernels.knn_ns_per_query);
}

fn write_spans(path: &Path, passes: &[(&str, Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, tracer) in passes {
        tracer.write_jsonl(pass, &mut out)?;
    }
    out.flush()
}

/// The traced run: a warm-up pass, then iterations — the passes
/// of [`Iteration`] plus a traced reference loop with its kernel probes
/// — until `seconds` are spent. The per-layer metrics are medians over
/// the iterations; the spans written out are the last iteration's.
pub fn run_traced(plan: &Plan) -> Report {
    let (world, _) = set_up(plan, 1);
    let expected = reference_loop(&world, sim_options(), &mut Tracer::disabled(), &[])
        .outcome
        .deterministic_bits();
    let mut checker = Checker {
        expected,
        attempted: 0,
        failed: 0,
    };
    let probe_at = probe_periods(plan.shape.periods);

    // Warm up through the workload's own feed: a first journaled pass
    // is a cold start for the disk too.
    let warm = pass_in_scratch(plan, &world, plan.feed, 0, &mut Tracer::disabled());
    let warm_label = format!("{} warm-up", plan.workload);
    checker.book(&warm_label, plan.planned_ops(), warm);

    let mut samples = Samples::default();
    let mut last_spans = Vec::new();
    let mut complete = true;
    let started = Instant::now();
    let mut iterations = 0;
    while iterations < plan.min_rounds(2) || started.elapsed().as_secs_f64() < plan.seconds {
        iterations += 1;
        let Some(it) = take_iteration(plan, &world, &mut checker, iterations) else {
            complete = false;
            break;
        };
        let mut ref_spans = Tracer::recording();
        let reference = reference_loop(&world, sim_options(), &mut ref_spans, &probe_at);
        if reference.outcome.deterministic_bits() != checker.expected {
            eprintln!("{}: traced reference loop diverged", plan.workload);
            complete = false;
        }
        let loop_ms =
            ms(ref_spans.total_ns("reference_loop") - ref_spans.total_ns("probe_capture"));
        if let Err(error) = layer_metrics_of_passes(plan, &it, loop_ms, &mut samples) {
            eprintln!("{} journal probe {iterations}: {error}", plan.workload);
            complete = false;
        }
        layer_metrics_of_reference(plan, &world, &reference, &ref_spans, loop_ms, &mut samples);
        last_spans = vec![("service", it.tracer), ("reference", ref_spans)];
    }

    if let Some(path) = &plan.trace_out {
        if let Err(error) = write_spans(path, &last_spans) {
            eprintln!("{}: {error}", path.display());
            complete = false;
        }
    }

    let metrics = if complete {
        PER_LAYER
            .iter()
            .map(|def| {
                let values = samples.0.get(def.name).map_or(&[0.0][..], Vec::as_slice);
                Reported::median_of(*def, values)
            })
            .collect()
    } else {
        Vec::new()
    };
    let note = format!(
        "{} ticks/pass, {} events/pass, {iterations} traced iterations; \
         0 = layer not exercised by this workload",
        plan.shape.periods,
        plan.shape.events()
    );
    report(plan, true, note, &checker, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_takes_the_least_reading_of_every_period() {
        let mut floor = Vec::new();
        lower_each(&mut floor, &[5, 9, 4]);
        assert_eq!(floor, [5, 9, 4]);
        lower_each(&mut floor, &[7, 3, 4]);
        lower_each(&mut floor, &[6, 8, 2]);
        assert_eq!(floor, [5, 3, 2]);
    }

    #[test]
    fn probe_periods_are_spread_and_distinct() {
        assert_eq!(probe_periods(240), [15, 45, 75, 105, 135, 165, 195, 225]);
        let few = probe_periods(4);
        assert!(few.windows(2).all(|w| w[0] < w[1]) && few.iter().all(|&p| p < 4));
    }
}
