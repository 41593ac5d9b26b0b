//! End-to-end determinism: a whole simulation (calibration probing,
//! per-period pricing, acceptance sampling, market clearing) must
//! produce bit-identical outcomes at any rayon thread count. No stage of
//! `Simulation::run` makes a parallel call today, so this sweep is the
//! guard that keeps it so: a stage that starts fanning out must stay
//! bit-identical here, whichever strategy it serves.

use maps_core::StrategyKind;
use maps_simulator::{Simulation, SyntheticConfig};
use maps_testkit::Labelled;

/// Canonical bit pattern of an outcome, excluding the wall-clock
/// columns (legitimately thread- and load-dependent), labelled so a
/// divergence names its field.
fn outcome_canon(strategy: StrategyKind, seed: u64) -> Labelled {
    let world = SyntheticConfig::paper_default()
        .with_num_workers(40)
        .with_num_tasks(150)
        .with_periods(6)
        .with_grid_side(4)
        .build(seed);
    let outcome = Simulation::new(world, strategy).run();
    Labelled {
        words: outcome.deterministic_bits(),
        labels: outcome.deterministic_labels(),
    }
}

#[test]
fn maps_simulation_bitwise_deterministic_across_threads() {
    maps_testkit::assert_deterministic(|| outcome_canon(StrategyKind::Maps, 11));
}

#[test]
fn all_strategies_deterministic_at_mixed_thread_counts() {
    // One seed per strategy keeps the sweep quick; MAPS gets the full
    // default 1/2/3/8 sweep above.
    for (i, kind) in StrategyKind::ALL.into_iter().enumerate() {
        maps_testkit::assert_deterministic_across(&[1, 3], || outcome_canon(kind, 20 + i as u64));
    }
}
