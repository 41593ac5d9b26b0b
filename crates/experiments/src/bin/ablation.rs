//! Ablation study over MAPS design choices:
//!
//! * `DeltaRule::LDifference` (default) vs the pseudocode's
//!   `ScaledShorthand` heap keys;
//! * UCB optimism on vs off (plain sample means);
//! * change detection off (default on stationary demand) vs on;
//! * spatial smoothing β ∈ {0, 0.3};
//! * Eq. (1) vs Appendix C.6's `L̃` approximation;
//! * plateau lookahead on (default) vs the literal Δ=0 stop (the
//!   concave-hull correction argued at `MapsConfig::plateau_lookahead`);
//! * and BaseP as the reference floor.
//!
//! Run on the Table-3 default world (`--quick` shrinks it).

use maps_core::{ApproxKind, DeltaRule, MapsConfig, MapsStrategy, PricingStrategy, StrategyKind};
use maps_experiments::panels::Scale;
use maps_simulator::alloc::TrackingAllocator;
use maps_simulator::{Simulation, SyntheticConfig};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn variants() -> Vec<(&'static str, MapsConfig)> {
    let base = MapsConfig::default();
    vec![
        ("MAPS (default: L-diff, UCB)", base.clone()),
        (
            "MAPS delta=shorthand",
            MapsConfig {
                delta_rule: DeltaRule::ScaledShorthand,
                ..base.clone()
            },
        ),
        (
            "MAPS no-UCB (plain means)",
            MapsConfig {
                use_ucb: false,
                ..base.clone()
            },
        ),
        (
            "MAPS change-detect w=200",
            MapsConfig {
                change_window: Some(200),
                ..base.clone()
            },
        ),
        (
            "MAPS smoothing beta=0.3",
            MapsConfig {
                smoothing: Some(0.3),
                ..base.clone()
            },
        ),
        (
            "MAPS approx=C.6 tilde",
            MapsConfig {
                approx: ApproxKind::TruncatedExpectation,
                ..base.clone()
            },
        ),
        (
            "MAPS no plateau lookahead",
            MapsConfig {
                plateau_lookahead: false,
                ..base
            },
        ),
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: Vec<u64> = if quick { vec![0, 1] } else { vec![0, 1, 2] };
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let cfg = match scale {
        Scale::Full => SyntheticConfig::paper_default(),
        Scale::Quick => SyntheticConfig {
            num_workers: 250,
            num_tasks: 1000,
            periods: 50,
            ..SyntheticConfig::paper_default()
        },
    };

    println!(
        "== MAPS ablation on the Table-3 default world ({scale:?}, {} seeds) ==",
        seeds.len()
    );
    println!(
        "{:<30}{:>14}{:>12}{:>12}",
        "variant", "revenue", "time(s)", "mem(MiB)"
    );

    for (name, maps_cfg) in variants() {
        let mut revenue = 0.0;
        let mut secs = 0.0;
        let mut mem: f64 = 0.0;
        for &seed in &seeds {
            let build = || {
                let truth = cfg.build(seed);
                let cells = truth.grid.num_cells();
                let strategy = MapsStrategy::new(
                    cells,
                    maps_market::PriceLadder::paper_default(),
                    maps_cfg.clone(),
                );
                (truth, Box::new(strategy) as Box<dyn PricingStrategy>)
            };
            let run = |(truth, strategy)| Simulation::with_strategy(truth, strategy).run();
            let (out, mib) = TrackingAllocator::run_peak_mib(build, run);
            revenue += out.total_revenue;
            secs += out.pricing_secs;
            mem = mem.max(mib);
        }
        let n = seeds.len() as f64;
        println!(
            "{:<30}{:>14.1}{:>12.4}{:>12.2}",
            name,
            revenue / n,
            secs / n,
            mem
        );
    }

    // Reference floor: BaseP on the same worlds.
    let mut base_rev = 0.0;
    for &seed in &seeds {
        let truth = cfg.build(seed);
        base_rev += Simulation::new(truth, StrategyKind::BaseP)
            .run()
            .total_revenue;
    }
    println!(
        "{:<30}{:>14.1}",
        "BaseP (reference)",
        base_rev / seeds.len() as f64
    );
}
