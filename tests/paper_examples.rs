//! Integration tests anchoring the whole stack to the paper's worked
//! examples (Examples 1–5, Table 1), through the public umbrella API
//! only. Theorem 1's reduction is test code of its own, in
//! `hardness.rs`.

use maps::core::{
    build_period_graph, BasePricing, MapsConfig, MapsStrategy, PeriodInput, PricingStrategy,
    RunningExample,
};
use maps::market::{Demand, DemandDistribution, PriceLadder};
use maps::matching::{expected_total_revenue_exact, IncrementalMatching, PossibleWorlds};
use maps_testkit::{explore, XorShift};

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
    assert_eq!(BasePricing::required_samples(1.0, 0.2, 0.01, 4), 335);
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

/// Table 1's claim on random ladders (ROADMAP 6(a)(iii)). Along any
/// `PriceLadder::new(p_min, p_max, α)`, both paper demand families, with
/// random parameters, accept no more at a higher rung: `S(p_i)` is
/// non-increasing in `i`. And a posted rung is observed under the rung
/// it was posted from: `nearest_index(p_i) == i`.
#[test]
fn table1_monotone_acceptance_on_random_ladders() {
    // (p_min, p_max, α, the normal family's (μ, σ), the exponential rate)
    let draw = |seed| {
        let mut rng = XorShift::seeded(seed);
        let p_min = 0.5 + 2.5 * rng.next_f64();
        let p_max = p_min * (1.0 + 8.0 * rng.next_f64());
        let alpha = 0.05 + 1.45 * rng.next_f64();
        let normal = (1.0 + 3.0 * rng.next_f64(), 0.2 + 2.3 * rng.next_f64());
        (p_min, p_max, alpha, normal, 0.1 + 1.9 * rng.next_f64())
    };
    explore(
        0..500,
        draw,
        |_| None,
        |&(p_min, p_max, alpha, (mu, sigma), rate)| {
            let ladder = PriceLadder::new(p_min, p_max, alpha);
            for (i, p) in ladder.ascending() {
                assert_eq!(ladder.nearest_index(p), i, "rung {i} posts {p}");
            }
            for demand in [
                Demand::paper_normal(mu, sigma),
                Demand::paper_exponential(rate),
            ] {
                for w in ladder.prices().windows(2) {
                    let (lower, higher) = (demand.survival(w[0]), demand.survival(w[1]));
                    assert!(
                        higher <= lower,
                        "{demand:?}: S({}) = {higher} > S({}) = {lower}",
                        w[1],
                        w[0]
                    );
                }
            }
        },
    );
}
