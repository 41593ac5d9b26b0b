//! The per-period platform loop (Sec. 1 of the paper):
//!
//! 1. requesters submit tasks; the platform observes `R^t` and the
//!    available workers `W^t`;
//! 2. the pricing strategy posts one unit price per grid;
//! 3. each requester accepts iff their private valuation exceeds the
//!    price (`S(p) = Pr[v_r > p]`);
//! 4. the platform assigns workers to accepting requesters — the
//!    maximum-weight bipartite matching of Definition 5 — and collects
//!    `d_r · p_r` per served task;
//! 5. accept/reject outcomes are fed back to the strategy, and matched
//!    workers follow the scenario's lifecycle policy.
//!
//! Steps 1–5 exist once, as [`PeriodStep::run`]: the batch
//! [`Simulation`] calls it in a loop over a [`WorkerLifecycle`], the
//! online service calls it from its tick over the same engine.
//! Their float-op sequences — and therefore their bit-level outcomes —
//! agree by construction rather than by mirrored code.

use crate::lifecycle::WorkerLifecycle;
use crate::metrics::{Outcome, RunningMoments};
use crate::probe::GroundTruthProbe;
use crate::truth::{GroundTask, GroundTruth, GroundWorker, MatchPolicy};
use maps_core::{
    paper_default_strategy, DemandProbe, Observation, PeriodInput, PriceSchedule, PricingStrategy,
    StateError, StateWords, StrategyKind, TaskInput, WorkerInput,
};
use maps_matching::{BipartiteGraph, MatchScratch};
use maps_spatial::{GridSpec, Point};
use std::convert::Infallible;
use std::time::Instant;

/// Results of one period's requester decisions and market clearing.
#[derive(Debug, Clone, Copy)]
pub struct PeriodSettlement {
    /// Revenue collected from the cleared market (`Σ d_r · p_r` over
    /// the maximum-weight matching of the accepting subgraph).
    pub revenue: f64,
    /// How many requesters accepted their posted price.
    pub accepted: u64,
    /// Wall-clock seconds of the market-clearing solve.
    pub clearing_secs: f64,
}

/// One period's requester decisions + market clearing: each requester
/// accepts iff their private valuation exceeds the posted price, the
/// posted prices feed the Welford moments and the observation log in
/// task order, and the market clears over the accepting subgraph
/// through the zero-allocation kernel: `weights[i]` is `d_r · p_r` for
/// a requester who accepts and `0.0` for one who rejects, which the
/// kernel skips. `keep` records each decision.
///
/// The accept/clear half of [`PeriodStep::run`], public so an
/// independent reference loop can be assembled from the same parts.
/// The matched pairs stay readable through `clearing` for the caller's
/// lifecycle step (task indices are the original period indices — a
/// zero weight does not renumber).
#[expect(
    clippy::too_many_arguments,
    reason = "the parts of a period, passed as an independent reference loop holds them"
)]
pub fn settle_period(
    tasks: &[crate::truth::GroundTask],
    task_inputs: &[TaskInput],
    schedule: &PriceSchedule,
    graph: &BipartiteGraph,
    price_moments: &mut crate::metrics::RunningMoments,
    observations: &mut Vec<Observation>,
    keep: &mut Vec<bool>,
    weights: &mut Vec<f64>,
    clearing: &mut MatchScratch,
) -> PeriodSettlement {
    observations.clear();
    keep.clear();
    keep.resize(task_inputs.len(), false);
    weights.clear();
    weights.resize(task_inputs.len(), 0.0);
    for (i, (task, input_task)) in tasks.iter().zip(task_inputs).enumerate() {
        let price = schedule.price(input_task.cell);
        let accepted = task.valuation > price;
        keep[i] = accepted;
        if accepted {
            weights[i] = input_task.distance * price;
        }
        price_moments.push(price);
        observations.push(Observation {
            cell: input_task.cell,
            price,
            accepted,
        });
    }
    let accepted = keep.iter().filter(|&&k| k).count() as u64;
    #[expect(
        clippy::disallowed_methods,
        reason = "clearing_secs is timing telemetry, excluded from deterministic_bits"
    )]
    let start = Instant::now();
    let revenue = clearing.max_weight_value(graph, weights);
    PeriodSettlement {
        revenue,
        accepted,
        clearing_secs: start.elapsed().as_secs_f64(),
    }
}

/// Options for one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Run the Algorithm-1 calibration phase before period 0 (learns the
    /// base price and seeds the UCB statistics). On by default.
    pub calibrate: bool,
    /// Seed for the calibration probe (the world itself is already
    /// materialized deterministically in [`GroundTruth`]).
    pub probe_seed: u64,
    /// Keep only each task's `k` nearest in-range workers when building
    /// the per-period bipartite graph (see
    /// [`maps_core::build_period_graph_capped`]). A value at or above
    /// the live pool (`usize::MAX` is legal) keeps every in-range edge,
    /// through the same k-nearest build — there is no second builder.
    /// Keeps the paper's 500k-worker scalability run tractable.
    pub max_edges_per_task: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            calibrate: true,
            probe_seed: 0xCA11B,
            max_edges_per_task: 64,
        }
    }
}

/// What [`PeriodStep::run`] needs from the worker side of a period: the
/// graph over the currently available workers, and the lifecycle
/// transitions of the ones that got matched. Implemented by
/// [`WorkerLifecycle`] (one spatial index), which the online service
/// wraps to isolate its tick's panics.
pub trait PeriodEngine {
    /// Why a graph build can fail ([`Infallible`] for the batch engine;
    /// the service reports a panicking tick).
    type Error;
    /// Builds period `t`'s capped bipartite graph over the available
    /// workers — every transition reported so far applied — and leaves
    /// the matching worker list readable through
    /// [`PeriodEngine::worker_inputs`].
    fn build_graph(
        &mut self,
        t: u32,
        tasks: &[TaskInput],
        k: usize,
    ) -> Result<BipartiteGraph, Self::Error>;
    /// The available workers, dense and in no particular order: a
    /// strategy reads their number and per-cell counts, and a graph's
    /// right side names only the workers its tasks reach.
    fn worker_inputs(&self) -> &[WorkerInput];
    /// Right-side vertex `dense` was matched and leaves permanently.
    fn consume_matched(&mut self, dense: usize);
    /// Right-side vertex `dense` was matched in period `t` and relocates
    /// to `destination`, busy for `travel ≥ 1` periods.
    fn dispatch_matched(&mut self, t: u32, dense: usize, destination: Point, travel: u32);
}

/// The state one run carries from period to period — the strategy, the
/// [`Outcome`] accumulated so far, the posted-price moments — and the
/// one function that advances it by a period.
pub struct PeriodStep {
    strategy: Box<dyn PricingStrategy>,
    /// Kept complete after every period (price moments included),
    /// so observing a live run is a borrow.
    outcome: Outcome,
    /// Posted-price moments via Welford's algorithm (see
    /// [`RunningMoments`]): the naive Σx/Σx² finish cancels
    /// catastrophically on high-mean/low-spread price streams.
    price_moments: RunningMoments,
    // Scratch, allocated once and recycled across the run.
    task_inputs: Vec<TaskInput>,
    observations: Vec<Observation>,
    keep: Vec<bool>,
    weights: Vec<f64>,
    clearing: MatchScratch,
}

impl PeriodStep {
    /// A run of `strategy` that has not served a period yet.
    pub fn new(strategy: Box<dyn PricingStrategy>) -> Self {
        Self {
            outcome: Outcome::new(strategy.name()),
            strategy,
            price_moments: RunningMoments::new(),
            task_inputs: Vec::new(),
            observations: Vec::new(),
            keep: Vec::new(),
            weights: Vec::new(),
            clearing: MatchScratch::new(),
        }
    }

    /// Runs the strategy's one-off Algorithm-1 calibration against
    /// `probe` (before the first period).
    pub fn calibrate(&mut self, probe: &mut dyn DemandProbe) {
        #[expect(
            clippy::disallowed_methods,
            reason = "calibration_secs is timing telemetry, excluded from deterministic_bits"
        )]
        let start = Instant::now();
        self.strategy.calibrate(probe);
        self.outcome.calibration_secs += start.elapsed().as_secs_f64();
    }

    /// The outcome accumulated so far.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    /// The outcome, for the counters a caller keeps outside the period
    /// (`rejected_events`, `suppressed_duplicates`).
    pub fn outcome_mut(&mut self) -> &mut Outcome {
        &mut self.outcome
    }

    /// Ends the run, returning the final outcome.
    pub fn into_outcome(self) -> Outcome {
        self.outcome
    }

    /// Serves period `t`: prices `tasks` over `engine`'s available
    /// workers, lets the requesters decide, clears the market, applies
    /// `match_policy` to the matched workers and feeds the decisions
    /// back to the strategy. Fails — before anything is priced or
    /// recorded — only if the engine cannot build the period's graph.
    pub fn run<E: PeriodEngine>(
        &mut self,
        t: u32,
        grid: &GridSpec,
        tasks: &[GroundTask],
        match_policy: MatchPolicy,
        max_edges_per_task: usize,
        engine: &mut E,
    ) -> Result<(), E::Error> {
        self.task_inputs.clear();
        self.task_inputs.extend(tasks.iter().map(|task| TaskInput {
            origin: task.origin,
            distance: task.distance,
            cell: task.cell,
        }));
        let graph = engine.build_graph(t, &self.task_inputs, max_edges_per_task)?;
        self.outcome.issued_tasks += tasks.len() as u64;
        // Event-time telemetry: queued tasks and live workers at pricing
        // time are pure functions of the event stream, so the histograms
        // are bit-identical across engines and thread counts.
        self.outcome
            .latency
            .record_period(tasks.len() as u64, engine.worker_inputs().len() as u64);
        let input = PeriodInput {
            grid,
            tasks: &self.task_inputs,
            workers: engine.worker_inputs(),
            graph: &graph,
        };

        #[expect(
            clippy::disallowed_methods,
            reason = "pricing_secs is timing telemetry, excluded from deterministic_bits"
        )]
        let start = Instant::now();
        let schedule = self.strategy.price_period(&input);
        self.outcome.pricing_secs += start.elapsed().as_secs_f64();

        let settlement = settle_period(
            tasks,
            &self.task_inputs,
            &schedule,
            &graph,
            &mut self.price_moments,
            &mut self.observations,
            &mut self.keep,
            &mut self.weights,
            &mut self.clearing,
        );
        self.outcome.accepted_tasks += settlement.accepted;
        self.outcome.clearing_secs += settlement.clearing_secs;
        self.outcome.total_revenue += settlement.revenue;
        self.outcome.revenue_per_period.push(settlement.revenue);

        // Worker lifecycle for matched pairs (task indices are the
        // original period indices — a rejected task is a zero weight,
        // not a renumbering). The churn is staged for the next period's
        // build.
        for (l, dense) in self.clearing.matched_pairs() {
            self.outcome.matched_tasks += 1;
            let task = &tasks[l];
            self.outcome.matched_distance += task.distance;
            match match_policy {
                MatchPolicy::Consume => engine.consume_matched(dense as usize),
                MatchPolicy::Relocate { speed } => {
                    let travel = (task.distance / speed).ceil().max(1.0) as u32;
                    engine.dispatch_matched(t, dense as usize, task.destination, travel);
                }
            }
        }

        self.strategy.observe(&self.observations);
        self.outcome.mean_posted_price = self.price_moments.mean();
        self.outcome.posted_price_std = self.price_moments.population_std();
        Ok(())
    }

    /// Appends the run state to a checkpoint word stream: the outcome
    /// accumulator as [`Outcome::deterministic_bits`] (so without the
    /// wall-clock columns, which restart at zero), the price moments and
    /// the strategy's learning state.
    pub fn save(&self, w: &mut Vec<u64>) {
        w.extend(self.outcome.deterministic_bits());
        let (count, mean_bits, m2_bits) = self.price_moments.to_raw();
        w.extend([count, mean_bits, m2_bits]);
        let len_at = w.len();
        w.push(0);
        self.strategy.save_state(w);
        w[len_at] = (w.len() - len_at - 1) as u64;
    }

    /// Restores what [`PeriodStep::save`] wrote into a step built around
    /// an identically configured strategy (its name is checked). The run
    /// state is the last section of a checkpoint: trailing words are an
    /// error.
    pub fn load(&mut self, r: &mut StateWords<'_>) -> Result<(), StateError> {
        let outcome = Outcome::from_deterministic_bits(r)?;
        if outcome.strategy != self.outcome.strategy {
            return Err(StateError::Mismatch("checkpoint strategy mismatch"));
        }
        self.outcome = outcome;
        let (count, mean_bits, m2_bits) = (r.take()?, r.take()?, r.take()?);
        self.price_moments = RunningMoments::from_raw(count, mean_bits, m2_bits);
        if r.take_len(1)? != r.remaining() {
            return Err(StateError::Mismatch(
                "checkpoint strategy state length mismatch",
            ));
        }
        self.strategy.load_state(r)?;
        if r.remaining() != 0 {
            return Err(StateError::Mismatch(
                "checkpoint strategy state has trailing words",
            ));
        }
        Ok(())
    }
}

/// Drives one pricing strategy through a [`GroundTruth`] world.
pub struct Simulation {
    truth: GroundTruth,
    strategy: Box<dyn PricingStrategy>,
    options: SimOptions,
}

impl Simulation {
    /// Creates a simulation for one of the five paper strategies with
    /// paper-default parameters.
    pub fn new(truth: GroundTruth, kind: StrategyKind) -> Self {
        let strategy = paper_default_strategy(kind, truth.grid.num_cells());
        Self::with_strategy(truth, strategy)
    }

    /// Creates a simulation with a custom strategy instance.
    pub fn with_strategy(truth: GroundTruth, strategy: Box<dyn PricingStrategy>) -> Self {
        Self {
            truth,
            strategy,
            options: SimOptions::default(),
        }
    }

    /// Overrides the run options.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the full horizon and returns the aggregate outcome.
    pub fn run(self) -> Outcome {
        let engine = WorkerLifecycle::new(
            &self.truth.grid,
            self.truth.num_periods(),
            self.truth.total_workers(),
        );
        self.drive(engine, WorkerLifecycle::begin_period)
    }

    /// The period loop: `begin_period` admits the period's arrivals into
    /// `engine`, [`PeriodStep::run`] does the rest.
    fn drive<E: PeriodEngine<Error = Infallible>>(
        self,
        mut engine: E,
        begin_period: impl Fn(&mut E, u32, &[GroundWorker]),
    ) -> Outcome {
        let Simulation {
            truth,
            strategy,
            options,
        } = self;
        let mut step = PeriodStep::new(strategy);
        if options.calibrate {
            step.calibrate(&mut GroundTruthProbe::new(
                &truth.demands,
                options.probe_seed,
            ));
        }
        for (t, period) in truth.periods.iter().enumerate() {
            begin_period(&mut engine, t as u32, &period.workers);
            let Ok(()) = step.run(
                t as u32,
                &truth.grid,
                &period.tasks,
                truth.match_policy,
                options.max_edges_per_task,
                &mut engine,
            );
        }
        step.into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;
    use crate::truth::{GroundTask, GroundWorker, PeriodData};
    use maps_core::build_period_graph_capped;
    use maps_market::Demand;
    use maps_spatial::{GridSpec, Point, Rect};

    /// A worker currently known to the scan-path platform.
    #[derive(Debug, Clone, Copy)]
    struct ActiveWorker {
        location: maps_spatial::Point,
        radius: f64,
        /// First period in which the worker is free again (relocation).
        busy_until: u32,
        /// Period at which the worker leaves the platform.
        expires_at: u32,
        /// Whether the worker left permanently (consumed).
        gone: bool,
    }

    /// The reference engine `incremental_run_matches_scan_oracle`
    /// compares [`WorkerLifecycle`] against: every admitted worker is
    /// kept (and scanned) forever, the graph is rebuilt from scratch
    /// per period.
    struct ScanEngine {
        grid: GridSpec,
        workers: Vec<ActiveWorker>,
        avail_idx: Vec<u32>,
        worker_inputs: Vec<WorkerInput>,
    }

    impl ScanEngine {
        fn new(grid: GridSpec) -> Self {
            Self {
                grid,
                workers: Vec::new(),
                avail_idx: Vec::new(),
                worker_inputs: Vec::new(),
            }
        }

        fn begin_period(&mut self, t: u32, arrivals: &[GroundWorker]) {
            for w in arrivals {
                self.workers.push(ActiveWorker {
                    location: w.location,
                    radius: w.radius,
                    busy_until: t,
                    expires_at: t.saturating_add(w.duration),
                    gone: false,
                });
            }
            // Available = not gone, not busy, not expired.
            self.avail_idx.clear();
            self.worker_inputs.clear();
            for (i, w) in self.workers.iter().enumerate() {
                if !w.gone && w.busy_until <= t && t < w.expires_at {
                    self.avail_idx.push(i as u32);
                    self.worker_inputs.push(WorkerInput {
                        location: w.location,
                        radius: w.radius,
                        cell: self.grid.cell_of(w.location),
                    });
                }
            }
        }
    }

    impl PeriodEngine for ScanEngine {
        type Error = Infallible;

        fn build_graph(
            &mut self,
            _t: u32,
            tasks: &[TaskInput],
            k: usize,
        ) -> Result<BipartiteGraph, Infallible> {
            Ok(build_period_graph_capped(tasks, &self.worker_inputs, k))
        }

        fn worker_inputs(&self) -> &[WorkerInput] {
            &self.worker_inputs
        }

        fn consume_matched(&mut self, dense: usize) {
            self.workers[self.avail_idx[dense] as usize].gone = true;
        }

        fn dispatch_matched(&mut self, t: u32, dense: usize, destination: Point, travel: u32) {
            let worker = &mut self.workers[self.avail_idx[dense] as usize];
            worker.busy_until = t.saturating_add(travel);
            worker.location = destination;
        }
    }

    fn small_world(seed: u64) -> GroundTruth {
        SyntheticConfig {
            num_workers: 150,
            num_tasks: 600,
            periods: 25,
            grid_side: 4,
            ..SyntheticConfig::paper_default()
        }
        .build(seed)
    }

    #[test]
    fn all_strategies_run_and_conserve() {
        let world = small_world(3);
        for kind in StrategyKind::ALL {
            let outcome = Simulation::new(world.clone(), kind).run();
            assert!(outcome.is_consistent(), "{kind}: {outcome:?}");
            assert_eq!(outcome.issued_tasks, 600, "{kind}");
            assert!(outcome.total_revenue >= 0.0);
            assert_eq!(outcome.revenue_per_period.len(), 25);
            assert!(
                (outcome.total_revenue - outcome.revenue_per_period.iter().sum::<f64>()).abs()
                    < 1e-9
            );
            assert_eq!(outcome.strategy, kind.name());
        }
    }

    #[test]
    fn consume_policy_bounds_matches_by_worker_count() {
        let mut world = SyntheticConfig {
            num_workers: 150,
            num_tasks: 600,
            periods: 25,
            grid_side: 4,
            ..SyntheticConfig::paper_default()
        }
        .build(5);
        world.match_policy = MatchPolicy::Consume;
        let outcome = Simulation::new(world, StrategyKind::BaseP).run();
        assert!(outcome.matched_tasks <= 150);
    }

    #[test]
    fn maps_beats_flat_base_price_on_default_world() {
        // The paper's headline: MAPS yields the highest revenue. On a
        // small but supply-constrained world MAPS must beat BaseP.
        let world = small_world(11);
        let maps = Simulation::new(world.clone(), StrategyKind::Maps).run();
        let base = Simulation::new(world, StrategyKind::BaseP).run();
        assert!(
            maps.total_revenue > base.total_revenue * 0.95,
            "MAPS {} vs BaseP {}",
            maps.total_revenue,
            base.total_revenue
        );
    }

    #[test]
    fn deterministic_given_same_world_and_seed() {
        let a = Simulation::new(small_world(7), StrategyKind::Maps).run();
        let b = Simulation::new(small_world(7), StrategyKind::Maps).run();
        assert_eq!(a.total_revenue, b.total_revenue);
        assert_eq!(a.matched_tasks, b.matched_tasks);
    }

    /// The engine oracle at the whole-simulation level: the
    /// event-queue + graph-cache engine must reproduce the
    /// rescan-and-rebuild reference bit for bit, on every strategy and both
    /// lifecycle policies (synthetic Consume and Beijing-like Relocate
    /// with finite worker durations).
    #[test]
    fn incremental_run_matches_scan_oracle() {
        let mut consume = SyntheticConfig {
            num_workers: 120,
            num_tasks: 500,
            periods: 20,
            grid_side: 4,
            ..SyntheticConfig::paper_default()
        }
        .build(5);
        consume.match_policy = MatchPolicy::Consume;
        let worlds = [
            small_world(3),
            consume,
            crate::beijing::BeijingConfig::rush_hour(10)
                .with_scale(0.01)
                .build(2),
        ];
        for (wi, world) in worlds.iter().enumerate() {
            for kind in StrategyKind::ALL {
                let incremental = Simulation::new(world.clone(), kind).run();
                let scan = Simulation::new(world.clone(), kind)
                    .drive(ScanEngine::new(world.grid), ScanEngine::begin_period);
                assert_eq!(
                    incremental.deterministic_bits(),
                    scan.deterministic_bits(),
                    "world {wi} strategy {kind}: incremental diverged from the scan oracle"
                );
            }
        }
    }

    #[test]
    fn no_calibration_option() {
        let world = small_world(9);
        let outcome = Simulation::new(world, StrategyKind::Maps)
            .with_options(SimOptions {
                calibrate: false,
                ..SimOptions::default()
            })
            .run();
        assert_eq!(outcome.calibration_secs, 0.0);
        assert!(outcome.is_consistent());
    }

    /// Hand-built two-period world exercising the Relocate policy.
    #[test]
    fn relocate_policy_reuses_workers() {
        let grid = GridSpec::square(Rect::square(10.0), 1);
        let demands = vec![Demand::paper_normal(3.5, 0.5)]; // high valuations
        let mk_task = |x: f64| {
            let origin = Point::new(x, 1.0);
            let destination = Point::new(x, 2.0);
            GroundTask {
                origin,
                destination,
                distance: 1.0,
                valuation: 4.9, // accepts any ladder price
                cell: grid.cell_of(origin),
            }
        };
        let worker = GroundWorker {
            location: Point::new(1.0, 1.0),
            radius: 9.0,
            duration: u32::MAX,
        };
        // Period 0: one task; at speed 0.5 the unit trip takes
        // ⌈1.0/0.5⌉ = 2 periods, so the worker is busy through period 1
        // and free again in period 2.
        let truth = GroundTruth {
            grid,
            demands,
            periods: vec![
                PeriodData {
                    tasks: vec![mk_task(1.0)],
                    workers: vec![worker],
                },
                PeriodData {
                    tasks: vec![mk_task(2.0)],
                    workers: vec![],
                },
                PeriodData {
                    tasks: vec![mk_task(3.0)],
                    workers: vec![],
                },
            ],
            match_policy: MatchPolicy::Relocate { speed: 0.5 },
        };
        let outcome = Simulation::new(truth, StrategyKind::BaseP)
            .with_options(SimOptions {
                calibrate: false,
                ..SimOptions::default()
            })
            .run();
        // Period 0 matched; period 1 the worker is busy; period 2 matched.
        assert_eq!(outcome.matched_tasks, 2);
        assert_eq!(outcome.accepted_tasks, 3);
    }

    #[test]
    fn consume_policy_single_use() {
        let grid = GridSpec::square(Rect::square(10.0), 1);
        let demands = vec![Demand::paper_normal(3.5, 0.5)];
        let origin = Point::new(1.0, 1.0);
        let task = GroundTask {
            origin,
            destination: Point::new(1.0, 2.0),
            distance: 1.0,
            valuation: 4.9,
            cell: grid.cell_of(origin),
        };
        let truth = GroundTruth {
            grid,
            demands,
            periods: vec![
                PeriodData {
                    tasks: vec![task],
                    workers: vec![GroundWorker {
                        location: Point::new(1.0, 1.0),
                        radius: 5.0,
                        duration: u32::MAX,
                    }],
                },
                PeriodData {
                    tasks: vec![task],
                    workers: vec![],
                },
            ],
            match_policy: MatchPolicy::Consume,
        };
        let outcome = Simulation::new(truth, StrategyKind::BaseP)
            .with_options(SimOptions {
                calibrate: false,
                ..SimOptions::default()
            })
            .run();
        assert_eq!(
            outcome.matched_tasks, 1,
            "consumed worker cannot serve twice"
        );
    }

    #[test]
    fn worker_duration_expires() {
        let grid = GridSpec::square(Rect::square(10.0), 1);
        let demands = vec![Demand::paper_normal(3.5, 0.5)];
        let origin = Point::new(1.0, 1.0);
        let task = GroundTask {
            origin,
            destination: Point::new(1.0, 2.0),
            distance: 1.0,
            valuation: 4.9,
            cell: grid.cell_of(origin),
        };
        let truth = GroundTruth {
            grid,
            demands,
            periods: vec![
                PeriodData {
                    tasks: vec![],
                    workers: vec![GroundWorker {
                        location: Point::new(1.0, 1.0),
                        radius: 5.0,
                        duration: 2, // periods 0 and 1 only
                    }],
                },
                PeriodData::default(),
                PeriodData {
                    tasks: vec![task],
                    workers: vec![],
                },
            ],
            match_policy: MatchPolicy::Consume,
        };
        let outcome = Simulation::new(truth, StrategyKind::BaseP)
            .with_options(SimOptions {
                calibrate: false,
                ..SimOptions::default()
            })
            .run();
        assert_eq!(outcome.matched_tasks, 0, "expired worker must not serve");
    }
}
