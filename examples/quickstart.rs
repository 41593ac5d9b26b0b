//! Quickstart: build a Table-3-style synthetic market, run all five
//! pricing strategies from the paper, and compare their revenue.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use maps::prelude::*;

fn main() {
    // A scaled-down version of the paper's default synthetic dataset
    // (Table 3 bold entries shrunk ~20× so this runs in seconds).
    let config = SyntheticConfig::paper_default()
        .with_num_workers(250)
        .with_num_tasks(1_000)
        .with_periods(50)
        .with_grid_side(10);

    println!("maps-rs quickstart");
    println!("==================");
    println!(
        "world: |W|={} |R|={} T={} G={}x{}",
        config.num_workers, config.num_tasks, config.periods, config.grid_side, config.grid_side
    );
    println!();
    println!(
        "{:<12}{:>12}{:>10}{:>10}{:>10}",
        "strategy", "revenue", "issued", "accepted", "matched"
    );

    let mut outcomes = Vec::new();
    for kind in StrategyKind::ALL {
        // Same seed ⇒ same requesters, valuations and workers for every
        // strategy: differences below are purely pricing decisions.
        let world = config.build(42);
        let outcome = Simulation::new(world, kind).run();
        println!(
            "{:<12}{:>12.1}{:>10}{:>10}{:>10}",
            outcome.strategy,
            outcome.total_revenue,
            outcome.issued_tasks,
            outcome.accepted_tasks,
            outcome.matched_tasks,
        );
        outcomes.push(outcome);
    }

    let maps = &outcomes[0];
    let best_baseline = outcomes[1..]
        .iter()
        .max_by(|a, b| a.total_revenue.total_cmp(&b.total_revenue))
        .expect("baselines exist");
    println!();
    println!(
        "MAPS vs best baseline ({}): {:+.1}%",
        best_baseline.strategy,
        100.0 * (maps.total_revenue / best_baseline.total_revenue - 1.0)
    );
}
