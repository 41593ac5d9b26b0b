//! Ground-truth world model.
//!
//! Everything the *simulator* knows but the *platform* does not: private
//! valuations `v_r` (Definition 2 — "private valuations are unknown to
//! the platform"), the per-grid demand distributions behind them, and
//! worker availability windows.

use maps_market::Demand;
use maps_spatial::{CellId, GridSpec, Point};

/// A task with its hidden ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTask {
    /// Origin `ori_r`.
    pub origin: Point,
    /// Destination `des_r`.
    pub destination: Point,
    /// Travel distance `d_r` (already computed under the scenario's
    /// distance metric).
    pub distance: f64,
    /// The requester's private valuation `v_r` (max unit price accepted).
    pub valuation: f64,
    /// Grid cell of the origin.
    pub cell: CellId,
}

/// A worker with its availability window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundWorker {
    /// Initial location `l_w`.
    pub location: Point,
    /// Range-constraint radius `a_w`.
    pub radius: f64,
    /// Number of periods the worker stays on the platform after arrival
    /// (the real-data experiments vary this as `δ_w`; synthetic workers
    /// use `u32::MAX`, i.e. until matched or the horizon ends).
    pub duration: u32,
}

impl GroundTask {
    /// Whether the market can represent the task: finite endpoints, a
    /// finite positive distance, a finite valuation, and the `cell` of
    /// its origin on `grid`. The service's admission and
    /// [`GroundTruth::validate`] both hold tasks to this.
    pub fn check(&self, grid: &GridSpec) -> Result<(), EventRejection> {
        let finite = |p: Point| p.x.is_finite() && p.y.is_finite();
        if !finite(self.origin) || !finite(self.destination) {
            return Err(EventRejection::NonFiniteTaskEndpoint);
        }
        if !(self.distance.is_finite() && self.distance > 0.0) {
            return Err(EventRejection::InvalidTaskDistance);
        }
        if !self.valuation.is_finite() {
            return Err(EventRejection::NonFiniteTaskValuation);
        }
        if self.cell != grid.cell_of(self.origin) {
            return Err(EventRejection::TaskCellMismatch);
        }
        Ok(())
    }
}

impl GroundWorker {
    /// Whether the market can represent the worker: a finite location
    /// and a finite, non-negative range (a zero `duration` only means it
    /// never lives). The service's admission, a checkpoint's workers and
    /// [`GroundTruth::validate`] are all held to this.
    pub fn check(&self) -> Result<(), EventRejection> {
        if !(self.location.x.is_finite() && self.location.y.is_finite()) {
            return Err(EventRejection::NonFiniteWorkerLocation);
        }
        if !(self.radius.is_finite() && self.radius >= 0.0) {
            return Err(EventRejection::InvalidWorkerRadius);
        }
        Ok(())
    }
}

/// Why the online service refused to admit an event.
///
/// All but the last two variants are *client* data errors
/// ([`GroundWorker::check`], [`GroundTask::check`]); the last two are
/// the service's stated limits, a `u32` counter the event would advance
/// past its last value. The service drops such events (counting them in
/// [`Outcome::rejected_events`](crate::Outcome::rejected_events)) rather
/// than panic or admit them: a NaN coordinate has no grid cell and would
/// corrupt per-cell pricing invisibly, and a wrapped counter would reuse
/// an id or suppress every later event as a duplicate. Every refusal is
/// decided after the event is journaled, from state the stream built,
/// so replay refuses the same events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventRejection {
    /// Worker location has a non-finite coordinate.
    NonFiniteWorkerLocation,
    /// Worker range radius is NaN, infinite or negative.
    InvalidWorkerRadius,
    /// Task origin or destination has a non-finite coordinate.
    NonFiniteTaskEndpoint,
    /// Task travel distance is NaN, infinite, zero or negative.
    InvalidTaskDistance,
    /// Task valuation is NaN or infinite.
    NonFiniteTaskValuation,
    /// Task `cell` is not the grid cell of its origin (out of range
    /// included): pricing indexes per-cell state by it.
    TaskCellMismatch,
    /// A worker arrival after all 2³² admission ids were handed out.
    WorkerIdsExhausted,
    /// A tick of period `u32::MAX`: the period counter cannot advance
    /// past it, so that period is never closed and later events join
    /// it.
    PeriodsExhausted,
}

impl std::fmt::Display for EventRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EventRejection::NonFiniteWorkerLocation => "non-finite worker location",
            EventRejection::InvalidWorkerRadius => "invalid worker radius",
            EventRejection::NonFiniteTaskEndpoint => "non-finite task origin/destination",
            EventRejection::InvalidTaskDistance => "invalid task travel distance",
            EventRejection::NonFiniteTaskValuation => "non-finite task valuation",
            EventRejection::TaskCellMismatch => "task cell is not its origin's",
            EventRejection::WorkerIdsExhausted => "all 2^32 worker ids are taken",
            EventRejection::PeriodsExhausted => "period u32::MAX cannot be closed",
        })
    }
}

impl std::error::Error for EventRejection {}

/// Arrivals for one time period.
#[derive(Debug, Clone, Default)]
pub struct PeriodData {
    /// Tasks issued in this period.
    pub tasks: Vec<GroundTask>,
    /// Workers becoming available in this period.
    pub workers: Vec<GroundWorker>,
}

/// What happens to a worker after completing a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchPolicy {
    /// The worker leaves the platform (synthetic default; reproduces the
    /// revenue saturation the paper reports as `|R|` grows with fixed
    /// `|W|`).
    Consume,
    /// The worker is busy for `⌈d_r / speed⌉` periods and reappears at
    /// the task's destination (Beijing-like scenarios; the paper notes
    /// workers "tend to perform multiple tasks for a long time").
    Relocate {
        /// Travel speed in distance units per period.
        speed: f64,
    },
}

/// A full simulated world: grid, hidden demand, arrivals, lifecycle.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The grid partitioning (Definition 1).
    pub grid: GridSpec,
    /// Hidden per-grid valuation distributions.
    pub demands: Vec<Demand>,
    /// Arrivals, indexed by period `0..T`.
    pub periods: Vec<PeriodData>,
    /// Worker lifecycle policy.
    pub match_policy: MatchPolicy,
}

impl GroundTruth {
    /// Number of time periods `T`.
    pub fn num_periods(&self) -> usize {
        self.periods.len()
    }

    /// Total number of issued tasks `|R|`.
    pub fn total_tasks(&self) -> usize {
        self.periods.iter().map(|p| p.tasks.len()).sum()
    }

    /// Total number of arriving workers `|W|`.
    pub fn total_workers(&self) -> usize {
        self.periods.iter().map(|p| p.workers.len()).sum()
    }

    /// Validates internal consistency (used by generator tests): one
    /// demand distribution per cell, every task and worker passing its
    /// `check` ([`GroundTask::check`], [`GroundWorker::check`]), and no
    /// worker with a zero duration. A refusal reads `period {t}:
    /// {reason}`.
    pub fn validate(&self) -> Result<(), String> {
        if self.demands.len() != self.grid.num_cells() {
            return Err(format!(
                "expected {} demand distributions, got {}",
                self.grid.num_cells(),
                self.demands.len()
            ));
        }
        for (t, period) in self.periods.iter().enumerate() {
            let refused = |reason: &dyn std::fmt::Display| format!("period {t}: {reason}");
            for task in &period.tasks {
                task.check(&self.grid).map_err(|r| refused(&r))?;
            }
            for worker in &period.workers {
                worker.check().map_err(|r| refused(&r))?;
                if worker.duration == 0 {
                    return Err(refused(&"worker with zero duration"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_spatial::Rect;

    fn tiny_truth() -> GroundTruth {
        let grid = GridSpec::square(Rect::square(10.0), 2);
        let demands = vec![Demand::paper_normal(2.0, 1.0); 4];
        let origin = Point::new(1.0, 1.0);
        let task = GroundTask {
            origin,
            destination: Point::new(9.0, 9.0),
            distance: origin.euclidean(Point::new(9.0, 9.0)),
            valuation: 2.5,
            cell: grid.cell_of(origin),
        };
        let worker = GroundWorker {
            location: Point::new(2.0, 2.0),
            radius: 5.0,
            duration: u32::MAX,
        };
        GroundTruth {
            grid,
            demands,
            periods: vec![
                PeriodData {
                    tasks: vec![task],
                    workers: vec![worker],
                },
                PeriodData::default(),
            ],
            match_policy: MatchPolicy::Consume,
        }
    }

    /// What `validate` reports when period 0 holds a task or worker
    /// its check refuses for `reason`.
    fn refused(reason: EventRejection) -> Result<(), String> {
        Err(format!("period 0: {reason}"))
    }

    #[test]
    fn counters() {
        let t = tiny_truth();
        assert_eq!(t.num_periods(), 2);
        assert_eq!(t.total_tasks(), 1);
        assert_eq!(t.total_workers(), 1);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_catches_cell_mismatch() {
        let mut t = tiny_truth();
        t.periods[0].tasks[0].cell = CellId(3);
        assert_eq!(t.validate(), refused(EventRejection::TaskCellMismatch));
    }

    #[test]
    fn validate_catches_bad_distance() {
        let mut t = tiny_truth();
        t.periods[0].tasks[0].distance = 0.0;
        assert_eq!(t.validate(), refused(EventRejection::InvalidTaskDistance));
    }

    /// A NaN-located worker or task endpoint would be silently filed
    /// under a boundary cell by `Grid::cell_of` — the generator-level
    /// guard against the corruption the service also rejects at
    /// admission.
    #[test]
    fn validate_catches_non_finite_coordinates() {
        let mut t = tiny_truth();
        t.periods[0].workers[0].location = Point::new(f64::NAN, 2.0);
        assert_eq!(
            t.validate(),
            refused(EventRejection::NonFiniteWorkerLocation)
        );

        let mut t = tiny_truth();
        t.periods[0].tasks[0].destination = Point::new(1.0, f64::INFINITY);
        assert_eq!(t.validate(), refused(EventRejection::NonFiniteTaskEndpoint));

        let mut t = tiny_truth();
        t.periods[0].workers[0].radius = f64::NAN;
        assert_eq!(t.validate(), refused(EventRejection::InvalidWorkerRadius));
    }

    #[test]
    fn validate_catches_demand_count() {
        let mut t = tiny_truth();
        t.demands.pop();
        let err = t.validate().unwrap_err();
        assert!(
            err.contains("expected 4 demand distributions, got 3"),
            "{err}"
        );
    }

    #[test]
    fn validate_catches_zero_duration() {
        let mut t = tiny_truth();
        t.periods[0].workers[0].duration = 0;
        let zero = Err("period 0: worker with zero duration".to_string());
        assert_eq!(t.validate(), zero);
    }
}
