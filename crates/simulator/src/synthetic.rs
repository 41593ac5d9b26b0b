//! Synthetic workload generator — Table 3 of the paper.
//!
//! "All locations are generated within a square of 100 × 100 … The start
//! times of tasks and workers are drawn from a normal distribution
//! conditioned on the entire time span (the temporal distribution) …
//! the origins of tasks and workers are generated from a two-dimensional
//! Gaussian distribution (the spatial distribution) … The destinations of
//! tasks are drawn from a uniform distribution within the 100 × 100
//! square. … We simulate the demand distribution via a normal
//! distribution with its mean varying from 1 to 3 … We restrict all the
//! v_r to [1, 5]."
//!
//! Defaults are Table 3's bold entries: `|W| = 5000`, `|R| = 20000`,
//! temporal μ = 0.5, spatial mean = 0.5, demand μ = 2.0, demand σ = 1.0,
//! `T = 400`, `G = 10×10`, `a_w = 10`.
//!
//! Table 3 varies only the means and leaves the std-deviations unstated.
//! The values the generator holds fixed are named constants:
//! `TEMPORAL_SIGMA` (σ = 0.2·T), `SPATIAL_SIGMA` (σ = 15) and
//! `WORKER_SPATIAL_MEAN` (the region centre). `d_r` is the Euclidean
//! distance from origin to destination.
//!
//! One more under-specified detail, "a normal distribution with its mean
//! varying from 1 to 3 … w.r.t. the mean of g", is realized as a
//! smooth G-independent offset field over the region (8×8 value-noise
//! lattice, offsets in [−1, 1]) added to the global μ — at the default
//! μ = 2 the local means span [1, 3]. The spatial demand heterogeneity
//! this creates is what per-grid dynamic pricing exploits, and its
//! independence from the pricing grid is what makes the G-sweep of the
//! paper's Fig. 7(d) meaningful.

use crate::truth::{GroundTask, GroundTruth, GroundWorker, MatchPolicy, PeriodData};
use maps_market::{Demand, DemandDistribution};
use maps_spatial::{GridSpec, Point, Rect};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Std-dev of the task and worker temporal distributions as a fraction
/// of `T` (Table 3 varies only their means).
const TEMPORAL_SIGMA: f64 = 0.2;

/// Std-dev of the task and worker spatial Gaussians, in region units
/// (Table 3 varies only their means).
const SPATIAL_SIGMA: f64 = 15.0;

/// Mean of the worker spatial distribution as a fraction of the region
/// side: the region centre (Table 3 sweeps only the task mean).
const WORKER_SPATIAL_MEAN: f64 = 0.5;

/// A mid-horizon market regime change: from period `⌈at_fraction·T⌉` on,
/// new requesters draw valuations with the global mean shifted by
/// `delta_mu`. The pre-shift per-grid aggregates remain what the
/// calibration phase saw, so learning strategies must adapt online —
/// this is the scenario the Sec.-4.2.2 change detector exists for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandShift {
    /// When the shift happens, as a fraction of `T` in `(0, 1]`.
    pub at_fraction: f64,
    /// Additive change to the demand mean (or 0.3× to the exponential
    /// rate), applied on top of the spatial offset field.
    pub delta_mu: f64,
}

/// Which family the per-grid demand distributions come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandKind {
    /// Truncated Normal on `[1,5]` (Table 3 default).
    Normal,
    /// Truncated Exponential on `[1,5]` with rate `alpha` (Appendix D /
    /// Fig. 10; the grid jitter is applied to the rate).
    Exponential {
        /// Rate parameter `α`.
        alpha: f64,
    },
}

/// Configuration mirroring Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Total number of workers `|W|`.
    pub num_workers: usize,
    /// Total number of tasks `|R|`.
    pub num_tasks: usize,
    /// Mean of the task temporal distribution as a fraction of `T`.
    pub temporal_mu: f64,
    /// Mean of the task spatial distribution as a fraction of the region
    /// side (the x-axis of Fig. 6 column 4: 0.1 → (10,10)).
    pub task_spatial_mean: f64,
    /// Mean μ of the demand (valuation) distribution.
    pub demand_mu: f64,
    /// Std-dev σ of the demand distribution.
    pub demand_sigma: f64,
    /// Demand family.
    pub demand_kind: DemandKind,
    /// Number of time periods `T`.
    pub periods: usize,
    /// Grid side (G = side²).
    pub grid_side: u32,
    /// Worker range radius `a_w`.
    pub worker_radius: f64,
    /// Region side length (100 in the paper).
    pub region_side: f64,
    /// Worker availability duration in periods (`u32::MAX` = unbounded).
    pub worker_duration: u32,
    /// Optional mid-horizon demand regime change (non-stationary
    /// extension; `None` = the paper's stationary experiments).
    pub demand_shift: Option<DemandShift>,
}

impl SyntheticConfig {
    /// Table 3's bold defaults.
    pub fn paper_default() -> Self {
        Self {
            num_workers: 5_000,
            num_tasks: 20_000,
            temporal_mu: 0.5,
            task_spatial_mean: 0.5,
            demand_mu: 2.0,
            demand_sigma: 1.0,
            demand_kind: DemandKind::Normal,
            periods: 400,
            grid_side: 10,
            worker_radius: 10.0,
            region_side: 100.0,
            worker_duration: u32::MAX,
            demand_shift: None,
        }
    }

    /// Builder-style override: `|W|`.
    pub fn with_num_workers(mut self, w: usize) -> Self {
        self.num_workers = w;
        self
    }

    /// Builder-style override: `|R|`.
    pub fn with_num_tasks(mut self, r: usize) -> Self {
        self.num_tasks = r;
        self
    }

    /// Builder-style override: `T`.
    pub fn with_periods(mut self, t: usize) -> Self {
        self.periods = t;
        self
    }

    /// Builder-style override: grid side (`G = side²`).
    pub fn with_grid_side(mut self, side: u32) -> Self {
        self.grid_side = side;
        self
    }

    /// Builder-style override: worker radius `a_w`.
    pub fn with_worker_radius(mut self, a: f64) -> Self {
        self.worker_radius = a;
        self
    }

    /// Builds the ground-truth world, deterministically from `seed`. Its
    /// workers relocate to each trip's destination at 2 units a period
    /// ([`MatchPolicy::Relocate`]); a caller that wants another policy
    /// sets [`GroundTruth::match_policy`] on the result.
    pub fn build(&self, seed: u64) -> GroundTruth {
        assert!(self.periods > 0, "need at least one period");
        assert!(self.grid_side > 0, "need at least one grid cell");
        assert!(
            (0.0..=1.0).contains(&self.temporal_mu),
            "temporal mean is a fraction of T"
        );
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let region = Rect::square(self.region_side);
        let grid = GridSpec::square(region, self.grid_side);

        // Demand heterogeneity: the paper simulates "a normal distribution
        // with its mean varying from 1 to 3" and draws each valuation
        // "w.r.t. the mean of g". We realize this as a *continuous* offset
        // field over the region (a seeded 8×8 value-noise lattice with
        // offsets in [−1, 1], bilinearly interpolated): at the default
        // global μ = 2 the local means span [1, 3]. Crucially the field is
        // independent of the pricing grid G, so coarse grids pay a real
        // aggregation penalty and finer grids price-discriminate better —
        // the mechanism behind the paper's Fig. 7(d) G-sweep.
        let field = OffsetField::new(&mut rng);
        let make_demand = |offset: f64| match self.demand_kind {
            DemandKind::Normal => {
                let mu = (self.demand_mu + offset).clamp(1.0, 4.0);
                Demand::paper_normal(mu, self.demand_sigma)
            }
            DemandKind::Exponential { alpha } => {
                let a = (alpha + 0.3 * offset).max(0.05);
                Demand::paper_exponential(a)
            }
        };
        // The per-cell distributions are the cell-centre aggregate view —
        // what the calibration probe (historical requesters of the grid)
        // responds from.
        let demands: Vec<Demand> = grid
            .cells()
            .map(|c| make_demand(field.offset_at(grid.cell_center(c), region)))
            .collect();

        let mut periods = vec![PeriodData::default(); self.periods];
        let t_max = self.periods as f64;

        // Tasks.
        let shift_at = self
            .demand_shift
            .map(|s| (s.at_fraction * t_max).ceil() as usize);
        for _ in 0..self.num_tasks {
            let t = sample_period(
                &mut rng,
                self.temporal_mu * t_max,
                TEMPORAL_SIGMA * t_max,
                self.periods,
            );
            let origin = sample_gaussian_point(
                &mut rng,
                self.task_spatial_mean * self.region_side,
                SPATIAL_SIGMA,
                region,
            );
            let destination = Point::new(
                rng.gen_range(0.0..self.region_side),
                rng.gen_range(0.0..self.region_side),
            );
            let mut distance = origin.euclidean(destination);
            if distance <= f64::EPSILON {
                distance = 0.1; // degenerate same-point trip
            }
            let cell = grid.cell_of(origin);
            // Valuations follow the continuous field at the task's own
            // origin (not the cell aggregate): requesters are individuals.
            let mut offset = field.offset_at(origin, region);
            if let (Some(shift), Some(at)) = (self.demand_shift, shift_at) {
                if t >= at {
                    offset += shift.delta_mu;
                }
            }
            let valuation = make_demand(offset).sample(&mut rng);
            periods[t].tasks.push(GroundTask {
                origin,
                destination,
                distance,
                valuation,
                cell,
            });
        }

        // Workers: temporal mean fixed at T/2 ("The mean for the workers
        // is fixed at T/2").
        for _ in 0..self.num_workers {
            let t = sample_period(&mut rng, 0.5 * t_max, TEMPORAL_SIGMA * t_max, self.periods);
            let location = sample_gaussian_point(
                &mut rng,
                WORKER_SPATIAL_MEAN * self.region_side,
                SPATIAL_SIGMA,
                region,
            );
            periods[t].workers.push(GroundWorker {
                location,
                radius: self.worker_radius,
                duration: self.worker_duration,
            });
        }

        let truth = GroundTruth {
            grid,
            demands,
            periods,
            // Workers are full-time (Sec. 2.1: "most workers … perform
            // multiple tasks for a long time"); the paper leaves their
            // kinematics open.
            match_policy: MatchPolicy::Relocate { speed: 2.0 },
        };
        // Generator self-check (debug builds): everything downstream —
        // `Grid::cell_of`, the spatial indexes, the pricing ladders —
        // assumes finite coordinates, radii, distances and valuations. A
        // builder bug producing a NaN here would otherwise surface as
        // silent cell-0 misrouting far from its cause.
        #[cfg(debug_assertions)]
        if let Err(e) = truth.validate() {
            panic!("synthetic builder produced an invalid world: {e}");
        }
        truth
    }
}

/// Samples a period index from `N(mu, sigma)` truncated to `[0, t)`.
fn sample_period(rng: &mut impl Rng, mu: f64, sigma: f64, t: usize) -> usize {
    let x = mu + sigma * gaussian(rng);
    (x.floor() as i64).clamp(0, t as i64 - 1) as usize
}

/// Samples a point from an isotropic Gaussian, clamped to the region.
fn sample_gaussian_point(rng: &mut impl Rng, mean: f64, sigma: f64, region: Rect) -> Point {
    Point::new(mean + sigma * gaussian(rng), mean + sigma * gaussian(rng)).clamped(region)
}

/// A smooth offset field over the region: an `(N+1)²` lattice of
/// uniform offsets in `[−1, 1]`, bilinearly interpolated. The field is a
/// property of the *world* (seeded once), not of the pricing grid.
#[derive(Debug, Clone)]
struct OffsetField {
    nodes: Vec<f64>,
}

impl OffsetField {
    /// Lattice resolution (cells per side); 8 gives a correlation length
    /// of 1/8th of the region (12.5 units on the paper's 100×100 square).
    const N: usize = 8;

    /// Node amplitude. Bilinear interpolation averages up to four nodes,
    /// shrinking the interior spread to ~60 % of the node amplitude, so
    /// nodes are drawn at ±1.4 to give typical local offsets of ~±0.9 —
    /// matching the paper's "means varying from 1 to 3" at μ = 2.
    const AMPLITUDE: f64 = 1.4;

    fn new(rng: &mut impl Rng) -> Self {
        let side = Self::N + 1;
        Self {
            nodes: (0..side * side)
                .map(|_| rng.gen_range(-Self::AMPLITUDE..=Self::AMPLITUDE))
                .collect(),
        }
    }

    fn offset_at(&self, p: Point, region: Rect) -> f64 {
        let side = Self::N + 1;
        let fx = ((p.x - region.min.x) / region.width() * Self::N as f64)
            .clamp(0.0, Self::N as f64 - 1e-9);
        let fy = ((p.y - region.min.y) / region.height() * Self::N as f64)
            .clamp(0.0, Self::N as f64 - 1e-9);
        let (ix, iy) = (fx as usize, fy as usize);
        let (tx, ty) = (fx - ix as f64, fy - iy as f64);
        let at = |x: usize, y: usize| self.nodes[y * side + x];
        let bottom = at(ix, iy) * (1.0 - tx) + at(ix + 1, iy) * tx;
        let top = at(ix, iy + 1) * (1.0 - tx) + at(ix + 1, iy + 1) * tx;
        bottom * (1.0 - ty) + top * ty
    }
}

/// Standard normal via Box–Muller (no `rand_distr` in the offline set):
/// two uniform draws per sample, the sine twin discarded — the draw
/// order every seeded world depends on.
pub(crate) fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticConfig {
        SyntheticConfig {
            num_workers: 300,
            num_tasks: 1200,
            periods: 40,
            ..SyntheticConfig::paper_default()
        }
    }

    #[test]
    fn counts_and_validity() {
        let truth = small().build(7);
        assert_eq!(truth.num_periods(), 40);
        assert_eq!(truth.total_tasks(), 1200);
        assert_eq!(truth.total_workers(), 300);
        truth
            .validate()
            .expect("generator must produce a valid world");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small().build(42);
        let b = small().build(42);
        assert_eq!(a.total_tasks(), b.total_tasks());
        for (pa, pb) in a.periods.iter().zip(&b.periods) {
            assert_eq!(pa.tasks.len(), pb.tasks.len());
            for (ta, tb) in pa.tasks.iter().zip(&pb.tasks) {
                assert_eq!(ta.origin, tb.origin);
                assert_eq!(ta.valuation, tb.valuation);
            }
        }
        let c = small().build(43);
        // Different seed ⇒ (almost surely) different first task.
        let first_a = a.periods.iter().flat_map(|p| &p.tasks).next().unwrap();
        let first_c = c.periods.iter().flat_map(|p| &p.tasks).next().unwrap();
        assert_ne!(first_a.origin, first_c.origin);
    }

    #[test]
    fn valuations_respect_window() {
        let truth = small().build(1);
        for p in &truth.periods {
            for t in &p.tasks {
                assert!((1.0..=5.0).contains(&t.valuation), "v={}", t.valuation);
            }
        }
    }

    #[test]
    fn temporal_mean_shifts_arrivals() {
        let early = SyntheticConfig {
            temporal_mu: 0.1,
            ..small()
        }
        .build(3);
        let late = SyntheticConfig {
            temporal_mu: 0.9,
            ..small()
        }
        .build(3);
        let mean_period = |t: &GroundTruth| -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for (i, p) in t.periods.iter().enumerate() {
                sum += (i * p.tasks.len()) as f64;
                n += p.tasks.len();
            }
            sum / n as f64
        };
        assert!(mean_period(&early) + 10.0 < mean_period(&late));
    }

    #[test]
    fn spatial_mean_shifts_origins() {
        let low = SyntheticConfig {
            task_spatial_mean: 0.1,
            ..small()
        }
        .build(3);
        let mean_x = |t: &GroundTruth| -> f64 {
            let all: Vec<f64> = t
                .periods
                .iter()
                .flat_map(|p| p.tasks.iter().map(|t| t.origin.x))
                .collect();
            all.iter().sum::<f64>() / all.len() as f64
        };
        let high = SyntheticConfig {
            task_spatial_mean: 0.9,
            ..small()
        }
        .build(3);
        assert!(mean_x(&low) < 35.0);
        assert!(mean_x(&high) > 65.0);
    }

    #[test]
    fn demand_mu_shifts_valuations() {
        let cheap = SyntheticConfig {
            demand_mu: 1.0,
            ..small()
        }
        .build(5);
        let pricey = SyntheticConfig {
            demand_mu: 3.0,
            ..small()
        }
        .build(5);
        let mean_v = |t: &GroundTruth| -> f64 {
            let all: Vec<f64> = t
                .periods
                .iter()
                .flat_map(|p| p.tasks.iter().map(|t| t.valuation))
                .collect();
            all.iter().sum::<f64>() / all.len() as f64
        };
        assert!(mean_v(&cheap) + 0.5 < mean_v(&pricey));
    }

    #[test]
    fn exponential_demand_kind() {
        let truth = SyntheticConfig {
            demand_kind: DemandKind::Exponential { alpha: 1.0 },
            ..small()
        }
        .build(9);
        truth.validate().unwrap();
        // Exponential valuations skew low: mean well below the midpoint 3.
        let mean_v = truth
            .periods
            .iter()
            .flat_map(|p| p.tasks.iter().map(|t| t.valuation))
            .sum::<f64>()
            / truth.total_tasks() as f64;
        assert!(mean_v < 2.5, "mean valuation {mean_v}");
    }

    #[test]
    fn origins_inside_region() {
        let truth = small().build(11);
        let region = truth.grid.region();
        for p in &truth.periods {
            for t in &p.tasks {
                assert!(region.contains(t.origin));
                assert!(region.contains(t.destination));
            }
            for w in &p.workers {
                assert!(region.contains(w.location));
            }
        }
    }

    #[test]
    fn demand_shift_changes_late_valuations() {
        let base = small();
        let shifted = SyntheticConfig {
            demand_shift: Some(DemandShift {
                at_fraction: 0.5,
                delta_mu: -1.0,
            }),
            ..small()
        };
        let truth_base = base.build(21);
        let truth_shift = shifted.build(21);
        let mean_v = |t: &GroundTruth, range: std::ops::Range<usize>| -> f64 {
            let vals: Vec<f64> = t.periods[range]
                .iter()
                .flat_map(|p| p.tasks.iter().map(|t| t.valuation))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        // Pre-shift halves: the shift only perturbs post-shift draws, so
        // the two streams are *the same* draws — pin exact bit equality,
        // not a 0.05 tolerance (measured diff under the vendored
        // ChaCha stream: exactly 0.0).
        let early_base = mean_v(&truth_base, 0..20);
        let early_shift = mean_v(&truth_shift, 0..20);
        assert_eq!(
            early_base.to_bits(),
            early_shift.to_bits(),
            "pre-shift halves drew different valuations"
        );
        // Post-shift valuations drop by roughly the delta. The full
        // |delta_mu| = 1.0 is compressed by truncation to [1, 5];
        // measured drop under the pinned seed/stream: 0.39679. The
        // generator is deterministic, so pin a tight two-sided band
        // around that instead of the old one-sided 0.35 margin — a
        // generator change that moves the distribution (not just the
        // mean) now fails loudly instead of sliding under a loose bound.
        let late_base = mean_v(&truth_base, 20..40);
        let late_shift = mean_v(&truth_shift, 20..40);
        let drop = late_base - late_shift;
        assert!(
            (0.39..0.41).contains(&drop),
            "late-mean drop {drop} outside the pinned band (base {late_base}, shifted {late_shift})"
        );
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
