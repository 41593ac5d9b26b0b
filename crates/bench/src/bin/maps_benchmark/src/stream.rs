//! Seeded stream generator: builds a [`GroundTruth`] directly, with
//! exactly constant per-period counts.
//!
//! The synthetic generator of `maps-simulator` spreads `|W|` and `|R|`
//! over the horizon with a temporal Normal, so its per-period load is a
//! bell curve and tick percentiles over it describe the bell, not the
//! service. The benchmark wants a *stationary* stream: every period
//! carries the same number of arrivals and tasks, so a tick percentile
//! means something and the period count is a pure length dial.
//!
//! One ChaCha stream seeded from `--seed` is consumed period by period,
//! so a world of `n` periods is a byte-exact prefix of the world of
//! `m > n` periods with the same seed and per-period shape — which is
//! how `durable` replays the head of `churn`'s stream.

use maps_market::{Demand, DemandDistribution};
use maps_simulator::{GroundTask, GroundTruth, GroundWorker, MatchPolicy, PeriodData};
use maps_spatial::{GridSpec, Point, Rect};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Region side (Table 3: a 100 × 100 square).
const REGION_SIDE: f64 = 100.0;
/// Pricing grid side (`G = 10 × 10`).
const GRID_SIDE: u32 = 10;
/// Worker range radius `a_w`.
const WORKER_RADIUS: f64 = 10.0;
/// Centre and spread of the worker and task-origin Gaussians (Table 3).
const SPATIAL_MEAN: f64 = 50.0;
const SPATIAL_SIGMA: f64 = 15.0;
/// Valuation spread of every cell's truncated normal on `[1, 5]`.
const DEMAND_SIGMA: f64 = 1.0;
/// Relocation speed of matched workers, in distance units per period.
const RELOCATE_SPEED: f64 = 2.0;

/// The per-period shape of a stream. Counts are exact, not expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamShape {
    /// Number of periods (the only length dial).
    pub periods: usize,
    /// Standing pool admitted in period 0 (duration `u32::MAX`).
    pub pool: usize,
    /// Worker arrivals in every period (after the pool in period 0).
    pub arrivals: usize,
    /// Availability window of every arrival, in periods.
    pub arrival_duration: u32,
    /// Task requests in every period.
    pub tasks: usize,
}

impl StreamShape {
    /// Stream events per pass: arrivals + tasks + one tick per period.
    pub fn events(&self) -> u64 {
        (self.pool + self.periods * (self.arrivals + self.tasks + 1)) as u64
    }
}

/// Builds the world for `shape`, deterministically from `seed`.
pub fn build_world(shape: &StreamShape, seed: u64) -> GroundTruth {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let region = Rect::square(REGION_SIDE);
    let grid = GridSpec::square(region, GRID_SIDE);
    // Per-cell demand means spread over [1, 3] (drawn first, so they do
    // not depend on the period count either).
    let demands: Vec<Demand> = (0..grid.num_cells())
        .map(|_| Demand::paper_normal(rng.gen_range(1.0..3.0), DEMAND_SIGMA))
        .collect();

    let worker = |rng: &mut ChaCha12Rng, duration: u32| GroundWorker {
        location: gaussian_point(rng, region),
        radius: WORKER_RADIUS,
        duration,
    };
    let mut periods = Vec::with_capacity(shape.periods);
    for t in 0..shape.periods {
        let pool = if t == 0 { shape.pool } else { 0 };
        let mut workers = Vec::with_capacity(pool + shape.arrivals);
        workers.extend((0..pool).map(|_| worker(&mut rng, u32::MAX)));
        workers.extend((0..shape.arrivals).map(|_| worker(&mut rng, shape.arrival_duration)));
        let tasks = (0..shape.tasks)
            .map(|_| {
                let origin = gaussian_point(&mut rng, region);
                let destination = Point::new(
                    rng.gen_range(0.0..REGION_SIDE),
                    rng.gen_range(0.0..REGION_SIDE),
                );
                let cell = grid.cell_of(origin);
                GroundTask {
                    origin,
                    destination,
                    // A same-point trip has no positive distance; give
                    // it the synthetic generator's floor.
                    distance: origin.euclidean(destination).max(0.1),
                    valuation: demands[cell.index()].sample(&mut rng),
                    cell,
                }
            })
            .collect();
        periods.push(PeriodData { tasks, workers });
    }
    GroundTruth {
        grid,
        demands,
        periods,
        match_policy: MatchPolicy::Relocate {
            speed: RELOCATE_SPEED,
        },
    }
}

/// A point from the isotropic Gaussian at the region centre, clamped to
/// the region.
fn gaussian_point(rng: &mut ChaCha12Rng, region: Rect) -> Point {
    Point::new(
        SPATIAL_MEAN + SPATIAL_SIGMA * gaussian(rng),
        SPATIAL_MEAN + SPATIAL_SIGMA * gaussian(rng),
    )
    .clamped(region)
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut ChaCha12Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: StreamShape = StreamShape {
        periods: 12,
        pool: 40,
        arrivals: 9,
        arrival_duration: 3,
        tasks: 5,
    };

    /// Every field of every event, bit for bit.
    fn world_bits(world: &GroundTruth) -> Vec<u64> {
        let mut bits = vec![world.periods.len() as u64];
        for period in &world.periods {
            for w in &period.workers {
                bits.extend([
                    w.location.x.to_bits(),
                    w.location.y.to_bits(),
                    w.radius.to_bits(),
                    u64::from(w.duration),
                ]);
            }
            for t in &period.tasks {
                bits.extend([
                    t.origin.x.to_bits(),
                    t.origin.y.to_bits(),
                    t.destination.x.to_bits(),
                    t.destination.y.to_bits(),
                    t.distance.to_bits(),
                    t.valuation.to_bits(),
                    t.cell.index() as u64,
                ]);
            }
        }
        bits
    }

    #[test]
    fn same_seed_same_world_and_seeds_differ() {
        let a = build_world(&SHAPE, 7);
        assert_eq!(world_bits(&a), world_bits(&build_world(&SHAPE, 7)));
        assert_eq!(a.demands, build_world(&SHAPE, 7).demands);
        assert_ne!(world_bits(&a), world_bits(&build_world(&SHAPE, 8)));
    }

    #[test]
    fn counts_are_exact_and_world_validates() {
        let world = build_world(&SHAPE, 3);
        world.validate().expect("generated world must validate");
        for (t, period) in world.periods.iter().enumerate() {
            let pool = if t == 0 { SHAPE.pool } else { 0 };
            assert_eq!(period.workers.len(), pool + SHAPE.arrivals, "period {t}");
            assert_eq!(period.tasks.len(), SHAPE.tasks, "period {t}");
        }
        let events = world.total_workers() + world.total_tasks() + world.num_periods();
        assert_eq!(events as u64, SHAPE.events());
        let (lo, hi) = (1.0, 5.0);
        assert!(world
            .periods
            .iter()
            .flat_map(|p| &p.tasks)
            .all(|t| (lo..=hi).contains(&t.valuation)));
    }

    /// `durable` replays the head of `churn`'s stream: the shorter world
    /// must be a byte-exact prefix of the longer one.
    #[test]
    fn shorter_world_is_a_prefix_of_the_longer_one() {
        let long = build_world(&SHAPE, 11);
        let short = build_world(
            &StreamShape {
                periods: 8,
                ..SHAPE
            },
            11,
        );
        let mut head = long.clone();
        head.periods.truncate(8);
        assert_eq!(world_bits(&short), world_bits(&head));
        assert_eq!(short.demands, long.demands);
    }
}
