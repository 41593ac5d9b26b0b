//! Integration tests anchoring the whole stack to the paper's worked
//! examples (Examples 1–5, Table 1), through the public umbrella API
//! only. Theorem 1's reduction is test code of its own, in
//! `hardness.rs`.

use maps::core::{
    build_period_graph, MapsConfig, MapsStrategy, PeriodInput, PricingStrategy, RunningExample,
};
use maps::market::{FreqEstimator, PriceLadder};
use maps::matching::{expected_total_revenue_exact, IncrementalMatching, PossibleWorlds};

#[test]
fn example1_graph_and_matching_claims() {
    let ex = RunningExample::new();
    // Grid memberships (Examples 2 and 5).
    assert_eq!(ex.tasks[0].cell.paper_number(), 9);
    assert_eq!(ex.tasks[1].cell.paper_number(), 9);
    assert_eq!(ex.tasks[2].cell.paper_number(), 11);
    assert_eq!(ex.workers[2].cell.paper_number(), 7);
    // "at most two tasks can be served and at most one of r1 and r2":
    // Kuhn, one augmentation attempt per task from the empty matching.
    let mut kuhn = IncrementalMatching::new(&ex.graph);
    for l in 0..ex.graph.n_left() {
        kuhn.try_augment(l);
    }
    let m = kuhn.to_matching();
    assert!(m.is_valid(&ex.graph));
    assert_eq!(m.cardinality(), 2);
    let both_r1_r2 = m.pairs[0].is_some() && m.pairs[1].is_some();
    assert!(!both_r1_r2);
}

#[test]
fn example3_expected_revenue_through_possible_worlds() {
    let ex = RunningExample::new();
    let prices = RunningExample::OPTIMAL_PRICES;
    let weights = ex.weights(prices);
    let probs = RunningExample::accept_probs(prices);
    let pw = PossibleWorlds::new(&ex.graph, &weights, &probs);
    // 2^3 = 8 possible worlds, probabilities sum to 1 (Fig. 2).
    assert_eq!(pw.num_worlds(), 8);
    let total_p: f64 = pw.worlds().map(|w| w.probability).sum();
    assert!((total_p - 1.0).abs() < 1e-12);
    assert!((pw.expected_revenue() - 4.075).abs() < 1e-9);
}

#[test]
fn example4_base_pricing_arithmetic() {
    // k = 4; ladder {1, 1.5, 2.25, 3.375}; h(1) = 335.
    let ladder = PriceLadder::paper_default();
    assert_eq!(ladder.k(), 4);
    assert_eq!(ladder.len(), 4);
    assert_eq!(FreqEstimator::required_samples(1.0, 0.2, 0.01, 4), 335);
    // The example's observed ratios 0.9, 0.85, 0.75, 0.4 make 2.25 the
    // argmax of p·Ŝ(p): 0.9, 1.275, 1.6875, 1.35.
    let s_hat = [0.9, 0.85, 0.75, 0.4];
    let best = ladder
        .ascending()
        .max_by(|a, b| (a.1 * s_hat[a.0]).total_cmp(&(b.1 * s_hat[b.0])))
        .unwrap();
    assert_eq!(best.1, 2.25);
}

#[test]
fn example5_maps_prices_via_public_api() {
    let ex = RunningExample::new();
    let ladder = PriceLadder::explicit(vec![1.0, 2.0, 3.0]);
    let mut maps = MapsStrategy::new(ex.grid.num_cells(), ladder, MapsConfig::default());
    for cell in 0..ex.grid.num_cells() {
        for (idx, s) in [0.9, 0.8, 0.5].iter().enumerate() {
            maps.stats_mut(cell)
                .observe_batch(idx, 1_000_000, (s * 1_000_000f64) as u64);
        }
    }
    maps.set_base_price(2.0);
    let graph = build_period_graph(&ex.tasks, &ex.workers);
    let schedule = maps.price_period(&PeriodInput {
        grid: &ex.grid,
        tasks: &ex.tasks,
        workers: &ex.workers,
        graph: &graph,
    });
    assert_eq!(schedule.prices[8], 3.0, "grid 9 → 3 (Example 5)");
    assert_eq!(schedule.prices[10], 2.0, "grid 11 → 2 (Example 5)");
    // The resulting expected revenue is the paper's optimum.
    let task_prices = [
        schedule.price(ex.tasks[0].cell),
        schedule.price(ex.tasks[1].cell),
        schedule.price(ex.tasks[2].cell),
    ];
    let e = expected_total_revenue_exact(
        &ex.graph,
        &ex.weights(task_prices),
        &RunningExample::accept_probs(task_prices),
    );
    assert!((e - RunningExample::OPTIMAL_EXPECTED_REVENUE).abs() < 1e-9);
}

#[test]
fn table1_monotone_acceptance() {
    // S(p) must be non-increasing (Definition 3).
    assert!(RunningExample::table1(1.0) > RunningExample::table1(2.0));
    assert!(RunningExample::table1(2.0) > RunningExample::table1(3.0));
}
