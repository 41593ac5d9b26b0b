//! Surge event: the paper's stadium motivation ("near the stadium after
//! a football match, there are usually insufficient taxis … and
//! passengers are willing to pay a higher price") as a custom
//! [`GroundTruth`]: a localized demand burst in the middle of the
//! horizon. The example prints MAPS's price trajectory for the stadium
//! grid versus a calm grid, showing dynamic repricing.
//!
//! ```sh
//! cargo run --release --example surge_event
//! ```

use maps::core::{
    MapsStrategy, PeriodGraphCache, PeriodInput, PricingStrategy, TaskInput, WorkerInput,
};
use maps::market::Demand;
use maps::market::DemandDistribution;
use maps::prelude::*;
use maps::spatial::{GridSpec, Point, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const T: usize = 120;
const SURGE_START: usize = 50;
const SURGE_END: usize = 70;

/// Builds a 6×6 world with uniform background demand plus a stadium
/// burst at grid (1,1) between periods 50 and 70.
fn build_world(seed: u64) -> GroundTruth {
    let region = Rect::square(60.0);
    let grid = GridSpec::square(region, 6);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Stadium-goers are willing to pay more (μ = 3) than the background
    // market (μ = 2).
    let stadium = Point::new(15.0, 15.0);
    let stadium_cell = grid.cell_of(stadium);
    let demands: Vec<Demand> = grid
        .cells()
        .map(|c| {
            if c == stadium_cell {
                Demand::paper_normal(3.0, 0.8)
            } else {
                Demand::paper_normal(2.0, 0.8)
            }
        })
        .collect();

    let mut periods = vec![PeriodData::default(); T];
    let push_task = |periods: &mut Vec<PeriodData>,
                     t: usize,
                     origin: Point,
                     rng: &mut SmallRng,
                     demands: &[Demand],
                     grid: &GridSpec| {
        let destination = Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0));
        let distance = origin.euclidean(destination).max(0.5);
        let cell = grid.cell_of(origin);
        periods[t].tasks.push(GroundTask {
            origin,
            destination,
            distance,
            valuation: demands[cell.index()].sample(rng),
            cell,
        });
    };

    for t in 0..T {
        // Background: ~6 tasks/period anywhere.
        for _ in 0..6 {
            let origin = Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0));
            push_task(&mut periods, t, origin, &mut rng, &demands, &grid);
        }
        // Surge: 25 extra tasks/period near the stadium.
        if (SURGE_START..SURGE_END).contains(&t) {
            for _ in 0..25 {
                let origin = Point::new(
                    (stadium.x + rng.gen_range(-4.0..4.0)).clamp(0.0, 60.0),
                    (stadium.y + rng.gen_range(-4.0..4.0)).clamp(0.0, 60.0),
                );
                push_task(&mut periods, t, origin, &mut rng, &demands, &grid);
            }
        }
        // Steady trickle of drivers.
        for _ in 0..3 {
            periods[t].workers.push(GroundWorker {
                location: Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)),
                radius: 12.0,
                duration: u32::MAX,
            });
        }
    }
    GroundTruth {
        grid,
        demands,
        periods,
        match_policy: MatchPolicy::Relocate { speed: 2.0 },
    }
}

fn main() {
    let world = build_world(11);
    let grid = world.grid;
    let stadium_cell = grid.cell_of(Point::new(15.0, 15.0));
    let calm_cell = grid.cell_of(Point::new(45.0, 45.0));

    // Revenue comparison first.
    println!("Stadium surge scenario (T = {T}, surge in [{SURGE_START}, {SURGE_END}))");
    println!();
    for kind in StrategyKind::ALL {
        let outcome = Simulation::new(build_world(11), kind).run();
        println!(
            "  {:<12} revenue {:>9.1}  matched {:>5}",
            outcome.strategy, outcome.total_revenue, outcome.matched_tasks
        );
    }

    // Now trace MAPS's posted prices over time for the two cells.
    let cells = grid.num_cells();
    let mut maps = MapsStrategy::paper_default(cells);
    let mut probe = GroundTruthProbe::new(&world.demands, 3);
    maps.calibrate(&mut probe);

    println!();
    println!("MAPS price trajectory (stadium grid vs calm grid):");
    println!("  {:<8}{:>10}{:>10}", "period", "stadium", "calm");
    // The graph path that ships: one persistent cache takes each
    // period's arriving drivers (this trace keeps every driver
    // available) and builds the period's capped graph.
    let mut cache = PeriodGraphCache::new(&grid);
    let mut next_id = 0u32;
    for t in 0..T {
        let arrivals: Vec<(u32, WorkerInput)> = world.periods[t]
            .workers
            .iter()
            .zip(next_id..)
            .map(|(w, id)| (id, WorkerInput::new(&grid, w.location, w.radius)))
            .collect();
        next_id += arrivals.len() as u32;
        cache.apply(&arrivals, &[]);
        let tasks: Vec<TaskInput> = world.periods[t]
            .tasks
            .iter()
            .map(|gt| TaskInput {
                origin: gt.origin,
                distance: gt.distance,
                cell: gt.cell,
            })
            .collect();
        let graph = cache.build_graph_capped(&tasks, 64);
        let workers = cache.worker_inputs();
        let input = PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers,
            graph: &graph,
        };
        let schedule = maps.price_period(&input);
        if t % 10 == 0 || t == SURGE_START || t == SURGE_END {
            let marker = if (SURGE_START..SURGE_END).contains(&t) {
                "  << surge"
            } else {
                ""
            };
            println!(
                "  {:<8}{:>10.3}{:>10.3}{}",
                t,
                schedule.price(stadium_cell),
                schedule.price(calm_cell),
                marker
            );
        }
    }
    println!();
    println!("(the stadium grid's price climbs during the surge window while the calm grid stays near the base price)");
}
