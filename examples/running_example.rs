//! The paper's running example (Examples 1, 3 and 5) reproduced end to
//! end with exact numbers.
//!
//! ```sh
//! cargo run --example running_example
//! ```

use maps::core::{
    build_period_graph, monte_carlo_expected_revenue, MapsConfig, MapsStrategy, PeriodInput,
    PricingStrategy, RunningExample,
};
use maps::market::PriceLadder;
use maps::matching::{expected_total_revenue_exact, IncrementalMatching};

fn main() {
    let ex = RunningExample::new();

    println!("Example 1 — the market");
    println!("======================");
    for (i, t) in ex.tasks.iter().enumerate() {
        println!(
            "  r{} origin=({:.1},{:.1})  d_r={:.1}  grid {}",
            i + 1,
            t.origin.x,
            t.origin.y,
            t.distance,
            t.cell.paper_number()
        );
    }
    for (i, w) in ex.workers.iter().enumerate() {
        println!(
            "  w{} location=({:.1},{:.1})  range a_w=2.5",
            i + 1,
            w.location.x,
            w.location.y
        );
    }
    println!();
    println!("Bipartite graph (Fig. 1b):");
    for l in 0..ex.graph.n_left() {
        let nbrs: Vec<String> = ex
            .graph
            .neighbors(l)
            .iter()
            .map(|w| format!("w{}", w + 1))
            .collect();
        println!("  r{} — {{{}}}", l + 1, nbrs.join(", "));
    }
    // Kuhn: one augmentation attempt per task from the empty matching.
    let mut kuhn = IncrementalMatching::new(&ex.graph);
    let served = (0..ex.graph.n_left())
        .filter(|&l| kuhn.try_augment(l))
        .count();
    println!("  maximum matching cardinality: {served} (\"at most two tasks can be served\")");

    println!();
    println!("Example 3 — expected total revenue at prices (3, 3, 2)");
    println!("======================================================");
    let prices = RunningExample::OPTIMAL_PRICES;
    let (weights, probs) = (ex.weights(prices), RunningExample::accept_probs(prices));
    let expected = expected_total_revenue_exact(&ex.graph, &weights, &probs);
    println!("  E[U | prices (3,3,2)] = {expected:.4}  (paper prints 4.1)");
    // The sampling estimator for instances too large to enumerate:
    // seeded, so these digits repeat on every run.
    let estimate = monte_carlo_expected_revenue(&ex.graph, &weights, &probs, 40_000, 7);
    println!("  Monte-Carlo, 40000 sampled worlds (seed 7): {estimate:.4}");

    // Exhaustive optimality check over per-grid prices in Table 1.
    let mut best = (f64::NEG_INFINITY, [0.0f64; 3]);
    for p9 in [1.0, 2.0, 3.0] {
        for p11 in [1.0, 2.0, 3.0] {
            let p = [p9, p9, p11];
            let e = expected_total_revenue_exact(
                &ex.graph,
                &ex.weights(p),
                &RunningExample::accept_probs(p),
            );
            println!("  grid9={p9}  grid11={p11}  ->  E = {e:.4}");
            if e > best.0 {
                best = (e, p);
            }
        }
    }
    println!(
        "  optimum: grid 9 -> {}, grid 11 -> {} (matches the paper)",
        best.1[0], best.1[2]
    );

    println!();
    println!("Example 5 — MAPS reprices the grids");
    println!("===================================");
    // Seed MAPS with the Table-1 statistics and let Algorithm 2 run.
    let ladder = PriceLadder::explicit(vec![1.0, 2.0, 3.0]);
    let mut maps = MapsStrategy::new(ex.grid.num_cells(), ladder, MapsConfig::default());
    for cell in 0..ex.grid.num_cells() {
        for (idx, s) in [0.9, 0.8, 0.5].iter().enumerate() {
            let n = 1_000_000u64;
            maps.stats_mut(cell)
                .observe_batch(idx, n, (s * n as f64) as u64);
        }
    }
    maps.set_base_price(2.0);
    let graph = build_period_graph(&ex.tasks, &ex.workers);
    let input = PeriodInput {
        grid: &ex.grid,
        tasks: &ex.tasks,
        workers: &ex.workers,
        graph: &graph,
    };
    let schedule = maps.price_period(&input);
    println!("  grid  9 -> price {}", schedule.prices[8]);
    println!("  grid 11 -> price {}", schedule.prices[10]);
    println!("  (the paper's Example 5 derives exactly these prices)");
}
