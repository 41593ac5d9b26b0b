//! The reference loop: `Simulation::drive` re-expressed over public
//! functions, one span per call.
//!
//! It is the benchmark's independent check — every service pass must
//! finish with the `deterministic_bits` this loop produces for the same
//! world — and the base of `service.tick_vs_reference`: one spatial
//! index, no shards, no merge, no ring, no journal.
//!
//! Churn application is split from graph construction by calling
//! `build_graph_capped(&[], k)` first (applies the staged churn, builds
//! an empty graph) and `build_graph_capped(tasks, k)` second (nothing
//! left to apply), so the write-heavy and the read-heavy half of the
//! spatial index get a span each.

use crate::trace::{Tracer, NO_PERIOD};
use maps_core::{
    paper_default_strategy, Observation, PeriodInput, StrategyKind, TaskInput, WorkerInput,
};
use maps_matching::MatchScratch;
use maps_simulator::{
    settle_period, GroundTruth, GroundTruthProbe, MatchPolicy, Outcome, RunningMoments, SimOptions,
    WorkerLifecycle,
};
use maps_telemetry::LatencyTelemetry;

/// The strategy every pass prices with.
pub const STRATEGY: StrategyKind = StrategyKind::Maps;

/// The live set and the tasks of one period, copied out for the kernel
/// probes.
#[derive(Debug, Clone)]
pub struct ProbeSample {
    pub workers: Vec<WorkerInput>,
    pub tasks: Vec<TaskInput>,
}

/// What one pass of the reference loop produced.
#[derive(Debug)]
pub struct ReferenceRun {
    pub outcome: Outcome,
    /// `Σ BipartiteGraph::n_edges` over the periods.
    pub graph_edges: u64,
    /// One sample per requested probe period.
    pub probes: Vec<ProbeSample>,
}

/// Runs the reference loop over `truth`. Spans go to `tracer`; the
/// periods in `probe_periods` (ascending) also copy their live set and
/// tasks out, under a `probe_capture` span the caller subtracts.
pub fn reference_loop(
    truth: &GroundTruth,
    options: SimOptions,
    tracer: &mut Tracer,
    probe_periods: &[usize],
) -> ReferenceRun {
    let grid = truth.grid;
    let k = options.max_edges_per_task;
    let mut strategy = paper_default_strategy(STRATEGY, grid.num_cells());
    let mut outcome = Outcome {
        strategy: strategy.name().to_string(),
        total_revenue: 0.0,
        issued_tasks: 0,
        accepted_tasks: 0,
        matched_tasks: 0,
        pricing_secs: 0.0,
        clearing_secs: 0.0,
        calibration_secs: 0.0,
        peak_memory_mib: None,
        revenue_per_period: Vec::with_capacity(truth.num_periods()),
        mean_posted_price: 0.0,
        posted_price_std: 0.0,
        matched_distance: 0.0,
        rejected_events: 0,
        suppressed_duplicates: 0,
        latency: LatencyTelemetry::new(),
    };
    if options.calibrate {
        let mut probe = GroundTruthProbe::new(&truth.demands, options.probe_seed);
        tracer.span("calibrate", NO_PERIOD, || strategy.calibrate(&mut probe));
    }

    let mut lifecycle = WorkerLifecycle::new(&grid, truth.num_periods(), truth.total_workers());
    let mut price_moments = RunningMoments::new();
    let mut task_inputs: Vec<TaskInput> = Vec::new();
    let mut worker_inputs: Vec<WorkerInput> = Vec::new();
    let mut observations: Vec<Observation> = Vec::new();
    let mut keep: Vec<bool> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut clearing = MatchScratch::new();
    let mut graph_edges = 0u64;
    let mut probes = Vec::with_capacity(probe_periods.len());

    let root = tracer.begin("reference_loop", NO_PERIOD);
    for (t, period) in truth.periods.iter().enumerate() {
        let p = t as u32;
        tracer.span("begin_period", p, || {
            lifecycle.begin_period(p, &period.workers)
        });
        tracer.span("task_inputs", p, || {
            task_inputs.clear();
            task_inputs.extend(period.tasks.iter().map(|task| TaskInput {
                origin: task.origin,
                distance: task.distance,
                cell: task.cell,
            }));
        });
        outcome.issued_tasks += task_inputs.len() as u64;

        tracer.span("cache_apply", p, || {
            lifecycle.build_graph_capped(&[], k);
        });
        let graph = tracer.span("knn_graph", p, || {
            lifecycle.build_graph_capped(&task_inputs, k)
        });
        graph_edges += graph.n_edges() as u64;
        tracer.span("fill_inputs", p, || {
            lifecycle.fill_worker_inputs(&mut worker_inputs)
        });
        if probe_periods.contains(&t) {
            tracer.span("probe_capture", p, || {
                probes.push(ProbeSample {
                    workers: worker_inputs.clone(),
                    tasks: task_inputs.clone(),
                })
            });
        }
        tracer.span("record_period", p, || {
            outcome
                .latency
                .record_period(task_inputs.len() as u64, worker_inputs.len() as u64)
        });
        let input = PeriodInput {
            grid: &grid,
            tasks: &task_inputs,
            workers: &worker_inputs,
            graph: &graph,
        };
        let schedule = tracer.span("price_period", p, || strategy.price_period(&input));
        let settlement = tracer.span("settle_period", p, || {
            settle_period(
                &period.tasks,
                &task_inputs,
                &schedule,
                &graph,
                &mut price_moments,
                &mut observations,
                &mut keep,
                &mut weights,
                &mut clearing,
            )
        });
        outcome.accepted_tasks += settlement.accepted;
        outcome.clearing_secs += settlement.clearing_secs;
        outcome.total_revenue += settlement.revenue;
        outcome.revenue_per_period.push(settlement.revenue);

        tracer.span("lifecycle", p, || {
            for (l, dense) in clearing.matched_pairs() {
                outcome.matched_tasks += 1;
                let task = &period.tasks[l];
                outcome.matched_distance += task.distance;
                let id = lifecycle.id_of_dense(dense as usize);
                match truth.match_policy {
                    MatchPolicy::Consume => lifecycle.consume(id),
                    MatchPolicy::Relocate { speed } => {
                        let travel = (task.distance / speed).ceil().max(1.0) as u32;
                        lifecycle.dispatch(p, id, task.destination, travel);
                    }
                }
            }
        });
        tracer.span("observe", p, || strategy.observe(&observations));
        tracer.span("drop_period", p, || drop((graph, schedule)));
    }
    tracer.end(root);

    outcome.mean_posted_price = price_moments.mean();
    outcome.posted_price_std = price_moments.population_std();
    ReferenceRun {
        outcome,
        graph_edges,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{build_world, StreamShape};
    use maps_service::replay_with_options;
    use maps_simulator::Simulation;

    const SHAPE: StreamShape = StreamShape {
        periods: 20,
        pool: 150,
        arrivals: 30,
        arrival_duration: 4,
        tasks: 25,
    };

    /// The loop the benchmark checks the service against must itself be
    /// the batch simulator, bit for bit — and so must the service, at
    /// one shard and at four, under both lifecycle policies.
    #[test]
    fn reference_loop_matches_simulation_and_replay() {
        for policy in [MatchPolicy::Relocate { speed: 2.0 }, MatchPolicy::Consume] {
            let mut world = build_world(&SHAPE, 5);
            world.match_policy = policy;
            let options = SimOptions::default();
            let reference = reference_loop(&world, options, &mut Tracer::disabled(), &[])
                .outcome
                .deterministic_bits();
            let batch = Simulation::new(world.clone(), STRATEGY).run();
            assert_eq!(reference, batch.deterministic_bits(), "{policy:?}: batch");
            assert!(
                batch.matched_tasks > 0,
                "{policy:?}: world too sparse to test"
            );
            for shards in [1, 4] {
                let online = replay_with_options(&world, STRATEGY, shards, options);
                assert_eq!(
                    reference,
                    online.deterministic_bits(),
                    "{policy:?}: {shards} shards"
                );
            }
        }
    }

    /// Splitting `build_graph_capped` into an empty-task call (applies
    /// churn) and a real one must build the graph a single call builds.
    #[test]
    fn two_call_graph_build_equals_one_call() {
        let world = build_world(&SHAPE, 9);
        let k = 8;
        let new = || WorkerLifecycle::new(&world.grid, world.num_periods(), world.total_workers());
        let (mut one, mut two) = (new(), new());
        for (t, period) in world.periods.iter().enumerate() {
            let tasks: Vec<TaskInput> = period
                .tasks
                .iter()
                .map(|task| TaskInput {
                    origin: task.origin,
                    distance: task.distance,
                    cell: task.cell,
                })
                .collect();
            one.begin_period(t as u32, &period.workers);
            two.begin_period(t as u32, &period.workers);
            let single = one.build_graph_capped(&tasks, k);
            assert_eq!(two.build_graph_capped(&[], k).n_edges(), 0);
            let split = two.build_graph_capped(&tasks, k);
            assert_eq!(single, split, "period {t}");
            assert!(t == 0 || single.n_edges() > 0, "period {t}: empty graph");
            // Churn the live set so later periods apply departures too.
            if single.n_right() > 0 {
                one.consume(one.id_of_dense(0));
                two.consume(two.id_of_dense(0));
            }
        }
    }

    /// Traced and untraced loops compute the same outcome, and the
    /// per-period spans cover the loop.
    #[test]
    fn spans_cover_every_period_and_probes_are_captured() {
        let world = build_world(&SHAPE, 2);
        let mut tracer = Tracer::recording();
        let run = reference_loop(&world, SimOptions::default(), &mut tracer, &[3, 17]);
        let plain = reference_loop(&world, SimOptions::default(), &mut Tracer::disabled(), &[]);
        assert_eq!(
            run.outcome.deterministic_bits(),
            plain.outcome.deterministic_bits()
        );
        assert_eq!(run.graph_edges, plain.graph_edges);
        assert_eq!(run.probes.len(), 2);
        assert_eq!(run.probes[0].tasks.len(), SHAPE.tasks);
        for name in ["begin_period", "cache_apply", "knn_graph", "price_period"] {
            assert_eq!(tracer.durations_ns(name).count(), SHAPE.periods, "{name}");
        }
        assert_eq!(tracer.durations_ns("calibrate").count(), 1);
        assert!(tracer.self_ns("reference_loop") <= tracer.total_ns("reference_loop"));
    }
}
