//! Ride-hailing scenario: the Beijing-like rush-hour workload (the
//! paper's real-data substitute, Table 4 dataset #1) at reduced scale,
//! with an ASCII heat-map of the prices MAPS posts across the 10×8 grid.
//!
//! ```sh
//! cargo run --release --example ride_hailing
//! ```

use maps::prelude::*;

fn main() {
    // Dataset #1 (5–7 pm, heavy demand) at 5% scale: ~5.7k requests and
    // ~1.4k drivers over 120 one-minute periods; drivers stay for
    // δ_w = 15 periods and relocate after every trip.
    let config = BeijingConfig::rush_hour(15).with_scale(0.05);
    let (w_full, r_full) = config.paper_counts();
    println!("Beijing-like rush hour (paper counts |W|={w_full}, |R|={r_full}; scale 5%)");
    println!();

    println!(
        "{:<12}{:>12}{:>10}{:>10}{:>16}",
        "strategy", "revenue", "accepted", "matched", "revenue/match"
    );
    for kind in StrategyKind::ALL {
        let world = config.build(7);
        let outcome = Simulation::new(world, kind).run();
        println!(
            "{:<12}{:>12.1}{:>10}{:>10}{:>16.2}",
            outcome.strategy,
            outcome.total_revenue,
            outcome.accepted_tasks,
            outcome.matched_tasks,
            outcome.total_revenue / outcome.matched_tasks.max(1) as f64,
        );
    }

    // Price heat-map: run MAPS manually for the first 30 periods and
    // average the posted prices per grid.
    println!();
    println!("MAPS average posted price per grid (first 30 periods):");
    let world = config.build(7);
    let grid = world.grid;
    let cells = grid.num_cells();
    let mut maps = maps::core::MapsStrategy::paper_default(cells);
    let mut probe = GroundTruthProbe::new(&world.demands, 1);
    maps.calibrate(&mut probe);

    let mut sums = vec![0.0f64; cells];
    let mut counts = vec![0u32; cells];
    // The graph path that ships: one persistent cache, mutated by each
    // period's arrivals (nobody leaves in this trace) and asked for the
    // period's capped graph. Ids are admission order; a graph numbers
    // the workers its tasks reach in that order.
    let mut cache = maps::core::PeriodGraphCache::new(&grid);
    let mut next_id = 0u32;
    for t in 0..30 {
        let tasks: Vec<maps::core::TaskInput> = world.periods[t]
            .tasks
            .iter()
            .map(|gt| maps::core::TaskInput {
                origin: gt.origin,
                distance: gt.distance,
                cell: gt.cell,
            })
            .collect();
        let arrivals: Vec<(u32, maps::core::WorkerInput)> = world.periods[t]
            .workers
            .iter()
            .zip(next_id..)
            .map(|(w, id)| {
                (
                    id,
                    maps::core::WorkerInput::new(&grid, w.location, w.radius),
                )
            })
            .collect();
        next_id += arrivals.len() as u32;
        cache.apply(&arrivals, &[]);
        let graph = cache.build_graph_capped(&tasks, 64);
        let workers = cache.worker_inputs();
        let input = maps::core::PeriodInput {
            grid: &grid,
            tasks: &tasks,
            workers,
            graph: &graph,
        };
        let schedule = maps.price_period(&input);
        for (c, &p) in schedule.prices.iter().enumerate() {
            sums[c] += p;
            counts[c] += 1;
        }
    }

    // Rows printed top (north) to bottom.
    for row in (0..grid.ny()).rev() {
        let mut line = String::new();
        for col in 0..grid.nx() {
            let c = (row * grid.nx() + col) as usize;
            let avg = sums[c] / counts[c].max(1) as f64;
            line.push_str(&format!("{avg:>6.2}"));
        }
        println!("  {line}");
    }
    println!();
    println!("(hotspot grids around the CBD clusters carry visibly higher prices)");
}
