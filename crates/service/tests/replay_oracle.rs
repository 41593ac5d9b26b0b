//! The service-equals-batch oracle: `service_replay_matches_simulation`.
//!
//! Replaying a `GroundTruth` through the online service must reproduce
//! `Simulation::run` **bit for bit** (every outcome field except the
//! wall-clock timing columns, via `Outcome::deterministic_bits`) across
//!
//! * all five `StrategyKind`s,
//! * both lifecycle policies (synthetic Consume, synthetic Relocate and
//!   a Beijing-like Relocate window with finite worker durations),
//! * rayon pools of 1/2/3/8 threads (the testkit harness; MAPS — the
//!   only strategy with its own parallel fan-out — gets the full sweep,
//!   the cheap baselines a 1/3-thread slice).

use maps_core::StrategyKind;
use maps_service::replay_with_options;
use maps_simulator::{
    BeijingConfig, GroundTruth, MatchPolicy, Outcome, SimOptions, Simulation, SyntheticConfig,
};

fn worlds() -> Vec<(&'static str, GroundTruth)> {
    let relocate = SyntheticConfig {
        num_workers: 120,
        num_tasks: 480,
        periods: 20,
        grid_side: 4,
        ..SyntheticConfig::paper_default()
    };
    let mut consume = SyntheticConfig {
        num_workers: 100,
        num_tasks: 400,
        periods: 16,
        grid_side: 4,
        ..SyntheticConfig::paper_default()
    };
    consume.match_policy = MatchPolicy::Consume;
    vec![
        ("synthetic-relocate", relocate.build(3)),
        ("synthetic-consume", consume.build(5)),
        (
            "beijing-relocate",
            BeijingConfig::rush_hour(10).with_scale(0.01).build(2),
        ),
    ]
}

/// One full comparison: batch baseline vs the service, under the
/// current rayon pool. Returns the canon so the thread harness can
/// additionally assert thread-count invariance.
fn sweep_canon(world: &GroundTruth, kind: StrategyKind, options: SimOptions) -> Vec<u64> {
    let batch: Outcome = Simulation::new(world.clone(), kind)
        .with_options(options)
        .run();
    let canon = batch.deterministic_bits();
    let online = replay_with_options(world, kind, 1, options);
    assert_eq!(
        online.deterministic_bits(),
        canon,
        "{kind}: replay diverged from the batch simulator"
    );
    canon
}

#[test]
fn service_replay_matches_simulation() {
    let options = SimOptions::default();
    for (name, world) in worlds() {
        for kind in StrategyKind::ALL {
            // MAPS prices with its own rayon fan-out → full 1/2/3/8
            // sweep; the sequential baselines get a cheaper slice.
            let counts: &[usize] = if kind == StrategyKind::Maps {
                &maps_testkit::DEFAULT_THREAD_COUNTS
            } else {
                &[1, 3]
            };
            maps_testkit::assert_deterministic_across(counts, || {
                sweep_canon(&world, kind, options)
            });
            let _ = name;
        }
    }
}

/// The edge cap through the service: a few k values including a cap no
/// pool reaches (k ≥ live set: every in-range edge, through the same
/// query) and k = 1.
#[test]
fn service_replay_matches_simulation_across_edge_caps() {
    let world = SyntheticConfig {
        num_workers: 80,
        num_tasks: 320,
        periods: 12,
        grid_side: 4,
        ..SyntheticConfig::paper_default()
    }
    .build(11);
    for k in [1usize, 3, 16, 10_000] {
        let options = SimOptions {
            max_edges_per_task: k,
            ..SimOptions::default()
        };
        sweep_canon(&world, StrategyKind::Maps, options);
    }
}
