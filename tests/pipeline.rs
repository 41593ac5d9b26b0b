//! End-to-end pipeline tests: simulator + strategies on synthetic and
//! Beijing-like worlds, checking the paper's qualitative claims at
//! CI-friendly scales.

use maps::prelude::*;
use maps_testkit::{assert_golden, Labelled};

fn small_synthetic(seed: u64) -> GroundTruth {
    SyntheticConfig::paper_default()
        .with_num_workers(300)
        .with_num_tasks(1_200)
        .with_periods(60)
        .build(seed)
}

#[test]
fn all_strategies_complete_and_conserve() {
    let world = small_synthetic(1);
    for kind in StrategyKind::ALL {
        let outcome = Simulation::new(world.clone(), kind).run();
        assert!(outcome.is_consistent(), "{kind}");
        assert_eq!(outcome.issued_tasks, 1_200, "{kind}");
        assert!(outcome.total_revenue.is_finite() && outcome.total_revenue >= 0.0);
        assert_eq!(outcome.revenue_per_period.len(), 60);
    }
}

#[test]
fn determinism_across_runs() {
    let a = Simulation::new(small_synthetic(7), StrategyKind::Maps).run();
    let b = Simulation::new(small_synthetic(7), StrategyKind::Maps).run();
    assert_eq!(a.total_revenue, b.total_revenue);
    assert_eq!(a.matched_tasks, b.matched_tasks);
    assert_eq!(a.revenue_per_period, b.revenue_per_period);
}

#[test]
fn maps_beats_flat_pricing_on_average() {
    // The paper's headline (Figs. 6–8): MAPS yields the highest revenue.
    // At CI scale we require MAPS > BaseP averaged over seeds.
    let mut maps_total = 0.0;
    let mut base_total = 0.0;
    for seed in 0..3 {
        let world = small_synthetic(seed);
        maps_total += Simulation::new(world.clone(), StrategyKind::Maps)
            .run()
            .total_revenue;
        base_total += Simulation::new(world, StrategyKind::BaseP)
            .run()
            .total_revenue;
    }
    assert!(
        maps_total > base_total,
        "MAPS {maps_total} must beat BaseP {base_total}"
    );
}

#[test]
fn revenue_increases_with_supply() {
    // Fig. 6(a): more workers ⇒ more revenue (until saturation).
    let mut prev = 0.0;
    for workers in [100usize, 300, 900] {
        let world = SyntheticConfig::paper_default()
            .with_num_workers(workers)
            .with_num_tasks(1_200)
            .with_periods(60)
            .build(3);
        let revenue = Simulation::new(world, StrategyKind::Maps)
            .run()
            .total_revenue;
        assert!(revenue > prev * 1.02, "|W|={workers}: {revenue} ≤ {prev}");
        prev = revenue;
    }
}

#[test]
fn revenue_saturates_in_demand() {
    // Fig. 6(b): with fixed supply, revenue grows with |R| then flattens.
    let rev = |tasks: usize| {
        let world = SyntheticConfig::paper_default()
            .with_num_workers(150)
            .with_num_tasks(tasks)
            .with_periods(60)
            .build(5);
        Simulation::new(world, StrategyKind::BaseP)
            .run()
            .total_revenue
    };
    let r1 = rev(300);
    let r2 = rev(1200);
    let r3 = rev(4800);
    assert!(r2 > r1, "growth regime: {r2} ≤ {r1}");
    // Saturation: quadrupling demand again must NOT quadruple revenue.
    assert!(r3 < r2 * 2.5, "saturation regime: {r3} vs {r2}");
}

#[test]
fn wider_worker_radius_increases_revenue() {
    // Fig. 8(a): larger a_w ⇒ more edges ⇒ more revenue, saturating.
    let rev = |aw: f64| {
        let world = SyntheticConfig::paper_default()
            .with_num_workers(300)
            .with_num_tasks(1_200)
            .with_periods(60)
            .with_worker_radius(aw)
            .build(9);
        Simulation::new(world, StrategyKind::Maps)
            .run()
            .total_revenue
    };
    assert!(rev(10.0) > rev(2.0));
}

#[test]
fn beijing_windows_run_end_to_end() {
    for cfg in [
        BeijingConfig::rush_hour(10).with_scale(0.01),
        BeijingConfig::night(10).with_scale(0.01),
    ] {
        let world = cfg.build(2);
        let outcome = Simulation::new(world, StrategyKind::Maps).run();
        assert!(outcome.is_consistent());
        assert!(outcome.total_revenue > 0.0);
    }
}

#[test]
fn longer_worker_duration_increases_beijing_revenue() {
    // Fig. 8(c,d): revenue grows with δ_w, then saturates.
    let rev = |delta: u32| {
        let world = BeijingConfig::rush_hour(delta).with_scale(0.02).build(4);
        Simulation::new(world, StrategyKind::BaseP)
            .run()
            .total_revenue
    };
    assert!(rev(25) > rev(5));
}

#[test]
fn calibration_skippable() {
    let world = small_synthetic(11);
    let outcome = Simulation::new(world, StrategyKind::Maps)
        .with_options(SimOptions {
            calibrate: false,
            ..SimOptions::default()
        })
        .run();
    assert_eq!(outcome.calibration_secs, 0.0);
    assert!(outcome.is_consistent());
}

#[test]
fn edge_cap_does_not_change_small_worlds() {
    // With few workers the capped builder is exactly the full builder, so
    // outcomes must be identical for any cap ≥ worker count.
    let world = small_synthetic(13);
    let a = Simulation::new(world.clone(), StrategyKind::Maps)
        .with_options(SimOptions {
            max_edges_per_task: 1_000_000,
            ..SimOptions::default()
        })
        .run();
    let b = Simulation::new(world, StrategyKind::Maps)
        .with_options(SimOptions {
            max_edges_per_task: 1_000,
            ..SimOptions::default()
        })
        .run();
    assert_eq!(a.total_revenue, b.total_revenue);
}

/// The five strategies' outcomes on one small seeded synthetic world,
/// under `Consume` and `Relocate`: every `deterministic_bits` word of
/// each run, labelled `strategy/policy/field`, against
/// `tests/golden/strategy_outcomes.txt`. Every other oracle compares
/// paths that share the strategies, so only this test sees a strategy's
/// numbers move. Exact on the libm the golden was taken with (like the
/// lifecycle's checkpoint golden).
#[test]
fn strategy_outcomes_are_the_golden() {
    let world = SyntheticConfig::paper_default()
        .with_num_workers(60)
        .with_num_tasks(240)
        .with_periods(8)
        .with_grid_side(4)
        .build(5);
    let policies = [
        ("Consume", MatchPolicy::Consume),
        ("Relocate", MatchPolicy::Relocate { speed: 2.0 }),
    ];
    let runs = policies
        .iter()
        .flat_map(|&policy| StrategyKind::ALL.map(|kind| (kind, policy)));
    let mut lines = Vec::new();
    for (kind, (policy_name, policy)) in runs {
        let mut truth = world.clone();
        truth.match_policy = policy;
        let outcome = Simulation::new(truth, kind).run();
        let labels = (outcome.deterministic_labels().iter())
            .map(|field| format!("{}/{policy_name}/{field}", kind.name()))
            .collect();
        let words = outcome.deterministic_bits();
        lines.extend(Labelled { words, labels }.lines());
    }
    assert_golden(env!("CARGO_MANIFEST_DIR"), "strategy_outcomes.txt", &lines);
}
