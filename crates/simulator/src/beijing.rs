//! Beijing-like taxi workload — the Table-4 substitute.
//!
//! The paper evaluates on proprietary Didi Chuxing taxi-calling logs
//! (Beijing, Jul–Dec 2016) sampled at two windows: 5–7 pm (heavy demand)
//! and 0–2 am (light demand), over a rectangle of 0.20° × 0.16° split
//! into 10 × 8 grids of 0.02° × 0.02°, worker range 3 km, `T = 120`
//! one-minute periods, and worker duration `δ_w ∈ {5,10,15,20,25}`.
//!
//! We cannot ship the proprietary logs, so this module synthesizes a
//! workload with the same *shape*:
//!
//! * identical aggregate counts (`|W| = 28210, |R| = 113372` rush;
//!   `|W| = 19006, |R| = 55659` night), grid geometry (we work in km:
//!   17.0 × 17.8 km), `a_w = 3` km and `T = 120`;
//! * spatial hotspot mixtures — three CBD-like clusters plus uniform
//!   background for the rush window, two flatter clusters at night;
//! * log-normal trip lengths (median ≈ 5 km, clipped to [0.5, 20] km),
//!   matching urban-taxi trip statistics;
//! * per-grid Normal valuations whose mean rises with the grid's
//!   demand share (hotspots are pricier), sampled once per seed;
//! * workers relocate to the destination after each trip and drive at
//!   0.5 km/period (30 km/h), so they serve multiple tasks — the paper's
//!   long-duration worker model.

use crate::synthetic::gaussian;
use crate::truth::{GroundTask, GroundTruth, GroundWorker, MatchPolicy, PeriodData};
use maps_market::Demand;
use maps_market::DemandDistribution;
use maps_spatial::{GridSpec, Point, Rect};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Which of the paper's two sampled windows to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeijingWindow {
    /// Dataset #1: 5 pm – 7 pm, heavy demand.
    RushHour,
    /// Dataset #2: 0 am – 2 am, light demand.
    Night,
}

/// Configuration for the Beijing-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct BeijingConfig {
    /// Which window (fixes `|W|`, `|R|` and the hotspot mixture).
    pub window: BeijingWindow,
    /// Worker availability duration `δ_w` in periods (Fig. 8 x-axis).
    pub worker_duration: u32,
    /// Scale factor on `|W|` and `|R|` (1.0 = the paper's counts; tests
    /// use smaller scales).
    pub scale: f64,
}

impl BeijingConfig {
    /// Dataset #1 (rush hour) at full scale.
    pub fn rush_hour(worker_duration: u32) -> Self {
        Self {
            window: BeijingWindow::RushHour,
            worker_duration,
            scale: 1.0,
        }
    }

    /// Dataset #2 (night) at full scale.
    pub fn night(worker_duration: u32) -> Self {
        Self {
            window: BeijingWindow::Night,
            worker_duration,
            scale: 1.0,
        }
    }

    /// Scales both counts (for quick tests / CI-sized runs).
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// Paper counts for this window.
    pub fn paper_counts(&self) -> (usize, usize) {
        match self.window {
            BeijingWindow::RushHour => (28_210, 113_372),
            BeijingWindow::Night => (19_006, 55_659),
        }
    }

    /// Number of periods `T = 120` (2 h × 60 s periods).
    pub const PERIODS: usize = 120;

    /// Worker range `a_w = 3 km`.
    pub const WORKER_RADIUS_KM: f64 = 3.0;

    /// Region extent in km (0.20° lon ≈ 17.0 km, 0.16° lat ≈ 17.8 km).
    pub const REGION_KM: (f64, f64) = (17.0, 17.8);

    /// Builds the ground truth for this window, deterministic in `seed`.
    pub fn build(&self, seed: u64) -> GroundTruth {
        assert!(self.worker_duration > 0, "duration must be positive");
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ (0xBE111u64 << 4));
        let region = Rect::new(
            Point::ORIGIN,
            Point::new(Self::REGION_KM.0, Self::REGION_KM.1),
        );
        // 10 × 8 grids of ~1.7 × 2.2 km (0.02° × 0.02°).
        let grid = GridSpec::new(region, 10, 8);

        let (w_full, r_full) = self.paper_counts();
        let num_workers = ((w_full as f64) * self.scale).round().max(1.0) as usize;
        let num_tasks = ((r_full as f64) * self.scale).round().max(1.0) as usize;

        let hotspots: &[(Point, f64, f64)] = match self.window {
            // (centre, sigma_km, mixture weight)
            BeijingWindow::RushHour => &[
                (Point::new(5.0, 6.0), 1.5, 0.30),
                (Point::new(11.0, 9.0), 1.8, 0.25),
                (Point::new(8.0, 13.5), 2.2, 0.15),
            ],
            BeijingWindow::Night => &[
                (Point::new(6.5, 8.0), 2.5, 0.25),
                (Point::new(11.5, 11.0), 3.0, 0.15),
            ],
        };
        let background: f64 = 1.0 - hotspots.iter().map(|h| h.2).sum::<f64>();
        debug_assert!(background > 0.0);

        // Demand share per grid ∝ hotspot density at the cell centre;
        // valuations are pricier where demand concentrates.
        let mut demands = Vec::with_capacity(grid.num_cells());
        for cell in grid.cells() {
            let c = grid.cell_center(cell);
            let mut density = background / (region.area());
            for &(centre, sigma, weight) in hotspots {
                let d2 = c.euclidean_sq(centre);
                density += weight * (-d2 / (2.0 * sigma * sigma)).exp()
                    / (2.0 * std::f64::consts::PI * sigma * sigma);
            }
            // Normalize density into a [0,1] "heat" and map to μ ∈ [1.6, 3.0].
            let heat = (density * 60.0).min(1.0);
            let mu = 1.6 + 1.4 * heat + rng.gen_range(-0.1..=0.1);
            demands.push(Demand::paper_normal(mu.clamp(1.2, 3.4), 1.0));
        }

        let mut periods = vec![PeriodData::default(); Self::PERIODS];

        // Mild temporal ramp for rush hour (builds to a peak around the
        // 70th minute), flat-ish for night.
        let temporal_weight = |t: usize| -> f64 {
            let x = t as f64 / Self::PERIODS as f64;
            match self.window {
                BeijingWindow::RushHour => 0.6 + 0.8 * (-((x - 0.6) * (x - 0.6)) / 0.08).exp(),
                BeijingWindow::Night => 1.0 - 0.4 * x, // demand tapers off
            }
        };
        let weights: Vec<f64> = (0..Self::PERIODS).map(temporal_weight).collect();
        let weight_sum: f64 = weights.iter().sum();

        // Tasks.
        for _ in 0..num_tasks {
            let t = sample_weighted(&mut rng, &weights, weight_sum);
            let origin = sample_mixture(&mut rng, hotspots, background, region);
            let (destination, distance) = sample_trip(&mut rng, origin, region);
            let cell = grid.cell_of(origin);
            let valuation = demands[cell.index()].sample(&mut rng);
            periods[t].tasks.push(GroundTask {
                origin,
                destination,
                distance,
                valuation,
                cell,
            });
        }

        // Workers: arrivals uniform over time (drivers cruise all shift),
        // slightly more dispersed spatially than tasks.
        for _ in 0..num_workers {
            let t = rng.gen_range(0..Self::PERIODS);
            let origin = if rng.gen::<f64>() < 0.5 {
                sample_mixture(&mut rng, hotspots, background, region)
            } else {
                Point::new(
                    rng.gen_range(region.min.x..region.max.x),
                    rng.gen_range(region.min.y..region.max.y),
                )
            };
            periods[t].workers.push(GroundWorker {
                location: origin,
                radius: Self::WORKER_RADIUS_KM,
                duration: self.worker_duration,
            });
        }

        GroundTruth {
            grid,
            demands,
            periods,
            // 0.5 km/min = 30 km/h urban taxi speed.
            match_policy: MatchPolicy::Relocate { speed: 0.5 },
        }
    }
}

/// Samples a period index proportional to `weights`.
fn sample_weighted(rng: &mut impl Rng, weights: &[f64], sum: f64) -> usize {
    let mut x = rng.gen_range(0.0..sum);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// Samples a location from the hotspot mixture + uniform background.
fn sample_mixture(
    rng: &mut impl Rng,
    hotspots: &[(Point, f64, f64)],
    background: f64,
    region: Rect,
) -> Point {
    let mut x = rng.gen_range(0.0..(background + hotspots.iter().map(|h| h.2).sum::<f64>()));
    for &(centre, sigma, weight) in hotspots {
        if x < weight {
            let p = Point::new(
                centre.x + sigma * gaussian(rng),
                centre.y + sigma * gaussian(rng),
            );
            return p.clamped(region);
        }
        x -= weight;
    }
    Point::new(
        rng.gen_range(region.min.x..region.max.x),
        rng.gen_range(region.min.y..region.max.y),
    )
}

/// Samples a destination with a log-normal trip length (median 5 km,
/// σ_log = 0.6, clipped to [0.5, 20] km) in a uniform direction.
fn sample_trip(rng: &mut impl Rng, origin: Point, region: Rect) -> (Point, f64) {
    let len = (5.0 * (0.6 * gaussian(rng)).exp()).clamp(0.5, 20.0);
    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
    let dest =
        Point::new(origin.x + len * theta.cos(), origin.y + len * theta.sin()).clamped(region);
    let mut distance = origin.euclidean(dest);
    if distance < 0.1 {
        distance = 0.1; // clipped into a corner; keep trips non-degenerate
    }
    (dest, distance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_paper_at_full_scale() {
        for cfg in [BeijingConfig::rush_hour(10), BeijingConfig::night(10)] {
            let (w, r) = cfg.paper_counts();
            // Use a tiny scale to keep the test fast but check the scaling
            // arithmetic at 1.0 separately.
            assert_eq!(
                ((w as f64) * 1.0).round() as usize,
                w,
                "identity scale must preserve counts"
            );
            assert!(r > w, "both windows have more tasks than workers");
        }
    }

    #[test]
    fn small_scale_world_is_valid() {
        let truth = BeijingConfig::rush_hour(10).with_scale(0.01).build(3);
        truth.validate().unwrap();
        assert_eq!(truth.num_periods(), 120);
        assert_eq!(truth.total_tasks(), 1134); // 113372 · 0.01 rounded
        assert_eq!(truth.total_workers(), 282);
        assert!(matches!(
            truth.match_policy,
            MatchPolicy::Relocate { speed } if (speed - 0.5).abs() < 1e-12
        ));
    }

    #[test]
    fn grid_is_10_by_8() {
        let truth = BeijingConfig::night(5).with_scale(0.01).build(1);
        assert_eq!(truth.grid.nx(), 10);
        assert_eq!(truth.grid.ny(), 8);
        assert_eq!(truth.grid.num_cells(), 80);
    }

    #[test]
    fn worker_duration_propagates() {
        let truth = BeijingConfig::night(25).with_scale(0.01).build(1);
        for p in &truth.periods {
            for w in &p.workers {
                assert_eq!(w.duration, 25);
                assert_eq!(w.radius, 3.0);
            }
        }
    }

    #[test]
    fn rush_hour_is_spatially_concentrated() {
        // The rush-hour mixture must put visibly more mass near the main
        // hotspot than the night mixture does.
        let rush = BeijingConfig::rush_hour(10).with_scale(0.02).build(5);
        let night = BeijingConfig::night(10).with_scale(0.02).build(5);
        let near_hotspot = |t: &GroundTruth| -> f64 {
            let centre = Point::new(5.0, 6.0);
            let total = t.total_tasks() as f64;
            let near = t
                .periods
                .iter()
                .flat_map(|p| &p.tasks)
                .filter(|task| task.origin.euclidean(centre) < 3.0)
                .count() as f64;
            near / total
        };
        assert!(near_hotspot(&rush) > near_hotspot(&night));
    }

    #[test]
    fn trip_lengths_are_clipped() {
        let truth = BeijingConfig::rush_hour(10).with_scale(0.01).build(9);
        for p in &truth.periods {
            for t in &p.tasks {
                // Destination clamping can shorten trips below 0.5 km but
                // never below the 0.1 km floor, and 20 km is the hard cap.
                assert!(t.distance >= 0.1 && t.distance <= 20.0 + 1e-9);
            }
        }
    }

    #[test]
    fn hotspot_grids_are_pricier() {
        let truth = BeijingConfig::rush_hour(10).with_scale(0.01).build(2);
        // Demand mean at the hotspot cell vs a far corner cell.
        let hot = truth.grid.cell_of(Point::new(5.0, 6.0));
        let cold = truth.grid.cell_of(Point::new(16.5, 0.5));
        let s_hot = truth.demands[hot.index()].survival(2.5);
        let s_cold = truth.demands[cold.index()].survival(2.5);
        assert!(
            s_hot > s_cold,
            "hotspot acceptance at p=2.5 ({s_hot}) should exceed corner ({s_cold})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = BeijingConfig::night(15).with_scale(0.01).build(7);
        let b = BeijingConfig::night(15).with_scale(0.01).build(7);
        for (pa, pb) in a.periods.iter().zip(&b.periods) {
            assert_eq!(pa.tasks.len(), pb.tasks.len());
        }
    }
}
