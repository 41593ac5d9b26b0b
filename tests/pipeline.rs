//! End-to-end pipeline tests: simulator + strategies on synthetic and
//! Beijing-like worlds, checking the paper's qualitative claims at
//! CI-friendly scales.

use maps::prelude::*;

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

/// FNV-1a-64 over the words' little-endian bytes.
fn fnv1a64(words: &[u64]) -> u64 {
    let bytes = words.iter().flat_map(|w| w.to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// What [`strategy_outcomes_are_the_golden`] pins of one run, by field.
const PINNED: [&str; 8] = [
    "total_revenue",
    "issued_tasks",
    "accepted_tasks",
    "matched_tasks",
    "mean_posted_price",
    "posted_price_std",
    "deterministic_bits.len",
    "deterministic_bits digest",
];

/// Each run of [`strategy_outcomes_are_the_golden`], in its order: the
/// strategy, the match policy and the [`PINNED`] words.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, [u64; 8]); 10] = [
    ("MAPS", "Consume", [0x40ad_ca8a_a547_51c3, 240, 117, 49, 0x4001_74cc_cccc_ccca, 0x3fe1_7930_1e66_3cfc, 221, 0xd02e_dbd6_4f50_1242]),
    ("BaseP", "Consume", [0x40ad_d89f_c5a3_d73d, 240, 171, 50, 0x3ffb_0000_0000_0000, 0, 222, 0x9edb_dcc8_12c3_7535]),
    ("SDR", "Consume", [0x40ab_4690_7337_c766, 240, 106, 50, 0x4005_887e_4b17_e4b3, 0x3ff5_5a3c_e359_26bb, 220, 0xbe78_bb8c_d0d5_363f]),
    ("SDE", "Consume", [0x40ae_4801_4d2b_58b7, 240, 155, 50, 0x3ffd_d97e_33c8_f422, 0x3fd6_63d8_894a_abbc, 220, 0xf6c6_8441_5428_68f0]),
    ("CappedUCB", "Consume", [0x40af_9521_2c03_a884, 240, 87, 37, 0x4006_0222_2222_2220, 0x3fef_0fab_9666_763e, 226, 0x38fc_dd59_bbc6_3773]),
    ("MAPS", "Relocate", [0x40ad_e9ae_aae0_4783, 240, 117, 50, 0x4001_74cc_cccc_ccca, 0x3fe1_7930_1e66_3cfc, 221, 0xb3c2_559a_343a_fa62]),
    ("BaseP", "Relocate", [0x40ad_d89f_c5a3_d73d, 240, 171, 50, 0x3ffb_0000_0000_0000, 0, 222, 0x9edb_dcc8_12c3_7535]),
    ("SDR", "Relocate", [0x40ab_3a09_2902_35e0, 240, 106, 51, 0x4005_7ff5_c28f_5c29, 0x3ff5_6f01_9129_fd53, 220, 0x84f9_5c28_7aab_5c7c]),
    ("SDE", "Relocate", [0x40ae_7289_208e_4528, 240, 154, 51, 0x3ffd_ded3_f65f_6800, 0x3fd6_5b83_e2b5_d410, 220, 0xba9e_33ab_95dc_9466]),
    ("CappedUCB", "Relocate", [0x40af_9521_2c03_a884, 240, 87, 37, 0x4006_0222_2222_2220, 0x3fef_0fab_9666_763e, 226, 0x38fc_dd59_bbc6_3773]),
];

/// The five strategies' outcomes on one small seeded synthetic world,
/// under `Consume` and `Relocate`, pinned as literals: every other
/// oracle compares paths that share the strategies, so only this test
/// sees a strategy's numbers move. Exact on the libm the literals were
/// taken with (like the lifecycle's checkpoint golden).
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
    let mut got = Vec::new();
    for (kind, (policy_name, policy)) in runs {
        let mut truth = world.clone();
        truth.match_policy = policy;
        let outcome = Simulation::new(truth, kind).run();
        let bits = outcome.deterministic_bits();
        let pins = [
            outcome.total_revenue.to_bits(),
            outcome.issued_tasks,
            outcome.accepted_tasks,
            outcome.matched_tasks,
            outcome.mean_posted_price.to_bits(),
            outcome.posted_price_std.to_bits(),
            bits.len() as u64,
            fnv1a64(&bits),
        ];
        got.push((kind.name(), policy_name, pins));
    }
    for (got, want) in got.iter().zip(&GOLDEN) {
        let (strategy, policy) = (want.0, want.1);
        assert_eq!((got.0, got.1), (strategy, policy), "run order");
        for ((field, g), w) in PINNED.iter().zip(got.2).zip(want.2) {
            assert!(
                g == w,
                "{strategy} under {policy}: {field} is {g:#x}, the golden {w:#x}"
            );
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "{got:#x?}");
}
