//! GDP problem types: tasks, workers, per-period inputs, price schedules
//! and the [`PricingStrategy`] interface every compared algorithm
//! implements (Sec. 5.1 "Compared algorithms").

use maps_matching::BipartiteGraph;
use maps_spatial::{CellId, GridSpec, Point};

/// A spatial task `r = <t, ori_r, des_r>` as seen by the pricing layer in
/// one time period (Definition 2). The private valuation `v_r` is *not*
/// part of this type — it is unknown to the platform by definition; only
/// the simulator's ground truth knows it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskInput {
    /// Origin `ori_r` (determines the grid cell and range feasibility).
    pub origin: Point,
    /// Travel distance `d_r` from origin to destination.
    pub distance: f64,
    /// Cell of the origin — precomputed because every strategy needs it.
    pub cell: CellId,
}

impl TaskInput {
    /// Builds a task, deriving the cell from `grid`.
    ///
    /// A non-finite origin has no grid cell (`Grid::cell_of` would
    /// silently file a NaN point under cell 0); feeding one is a caller
    /// bug, caught here in debug builds. Online admission paths must
    /// validate *before* constructing inputs (the service rejects such
    /// events instead of panicking).
    pub fn new(grid: &GridSpec, origin: Point, distance: f64) -> Self {
        assert!(
            distance.is_finite() && distance > 0.0,
            "travel distance must be positive, got {distance}"
        );
        debug_assert!(
            origin.x.is_finite() && origin.y.is_finite(),
            "task origin must be finite, got {origin:?}"
        );
        Self {
            origin,
            distance,
            cell: grid.cell_of(origin),
        }
    }
}

/// A crowd worker `w = <t, l_w, a_w>` (Definition 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerInput {
    /// Initial location `l_w`.
    pub location: Point,
    /// Range-constraint radius `a_w`.
    pub radius: f64,
    /// Cell of the location (SDR/SDE/CappedUCB count workers per grid).
    pub cell: CellId,
}

impl WorkerInput {
    /// Builds a worker, deriving the cell from `grid`.
    ///
    /// Like [`TaskInput::new`], a non-finite location is a caller bug
    /// (it would be filed under cell 0 and corrupt pricing invisibly):
    /// debug-asserted here, validated-and-rejected at service admission.
    pub fn new(grid: &GridSpec, location: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "worker radius must be non-negative, got {radius}"
        );
        debug_assert!(
            location.x.is_finite() && location.y.is_finite(),
            "worker location must be finite, got {location:?}"
        );
        Self {
            location,
            radius,
            cell: grid.cell_of(location),
        }
    }
}

/// Everything a strategy sees when pricing one time period `t`.
#[derive(Debug, Clone, Copy)]
pub struct PeriodInput<'a> {
    /// The grid partitioning (Definition 1).
    pub grid: &'a GridSpec,
    /// Issued tasks `R^t`.
    pub tasks: &'a [TaskInput],
    /// Available workers `W^t`, in no particular order.
    pub workers: &'a [WorkerInput],
    /// The bipartite graph under the range constraint (edge iff
    /// `|ori_r − l_w| ≤ a_w`). Its right side may hold only the workers
    /// some task reaches, so a vertex is no index into `workers`.
    pub graph: &'a BipartiteGraph,
}

/// One unit price per grid cell — the strategy's output `P^t`.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceSchedule {
    /// `prices[c]` is the unit price for cell `c`.
    pub prices: Vec<f64>,
}

impl PriceSchedule {
    /// A uniform schedule (what base pricing produces).
    pub fn uniform(num_cells: usize, price: f64) -> Self {
        Self {
            prices: vec![price; num_cells],
        }
    }

    /// Price for `cell`.
    #[inline]
    pub fn price(&self, cell: CellId) -> f64 {
        self.prices[cell.index()]
    }
}

/// A requester's observed decision, fed back to learning strategies after
/// each period (the platform always observes accept/reject for every
/// posted price, whether or not the task was eventually matched).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Grid cell of the task's origin.
    pub cell: CellId,
    /// The unit price that was posted to the requester.
    pub price: f64,
    /// Whether the requester accepted (`v_r > price`).
    pub accepted: bool,
}

/// Oracle used during the offline calibration phase (Algorithm 1 lines
/// 5–6: "Use the price p for h(p) times and observe the acceptance
/// ratio"). The simulator implements this against ground-truth demand.
pub trait DemandProbe {
    /// Offers `price` to `n` requesters (who recently issued tasks) in
    /// `cell`; returns how many accepted.
    fn probe(&mut self, cell: CellId, price: f64, n: u64) -> u64;
}

/// Why restoring a state snapshot failed
/// ([`PricingStrategy::load_state`], a service checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The word stream ended before the state was fully restored.
    Truncated,
    /// A structural field (ladder length, cell count, detector
    /// presence, …) disagrees with this instance's configuration: the
    /// snapshot was taken from a differently-configured strategy.
    Mismatch(&'static str),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated => f.write_str("state word stream truncated"),
            StateError::Mismatch(what) => write!(f, "state mismatch: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Borrowing cursor over a state word stream: the flat `u64` encoding
/// written by [`PricingStrategy::save_state`] and by every section of a
/// service checkpoint. Floats travel as raw [`f64::to_bits`] patterns,
/// so a save/load round trip is bit-exact — the property the service's
/// crash-recovery contract (recovered outcome ≡ uninterrupted outcome)
/// rests on. The words come from disk: nothing read through the cursor
/// can name more of the stream than is left in it.
#[derive(Debug)]
pub struct StateWords<'a>(&'a [u64]);

impl<'a> StateWords<'a> {
    /// A cursor at the start of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        Self(words)
    }

    /// Takes the next word.
    pub fn take(&mut self) -> Result<u64, StateError> {
        self.take_slice(1).map(|word| word[0])
    }

    /// Takes the next word as a bit-exact `f64`.
    pub fn take_f64(&mut self) -> Result<f64, StateError> {
        self.take().map(f64::from_bits)
    }

    /// Takes the next word as the count of items that follow, each at
    /// least `min_words_per_item` words long — the one way a count
    /// leaves the cursor. A count the remaining words cannot hold is
    /// [`StateError::Truncated`], so no loop or reservation is ever
    /// sized by a word the stream does not back.
    pub fn take_len(&mut self, min_words_per_item: usize) -> Result<usize, StateError> {
        let count = usize::try_from(self.take()?).map_err(|_| StateError::Truncated)?;
        match count.checked_mul(min_words_per_item) {
            Some(words) if words <= self.remaining() => Ok(count),
            _ => Err(StateError::Truncated),
        }
    }

    /// Takes the next `n` words: what a leaf decoder that reports its
    /// own size is handed, so it cannot read short.
    pub fn take_slice(&mut self, n: usize) -> Result<&'a [u64], StateError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(StateError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    /// Words remaining.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }
}

/// The interface shared by MAPS and all baselines.
///
/// `Send` is a supertrait so a boxed strategy — and therefore a whole
/// engine owning one (the batch `Simulation`, the online service) —
/// can be moved onto a thread of the caller's own. The ingest
/// sequencer runs on whichever thread calls it, so `Send` is what lets
/// a caller give the service a thread to itself (as the ingest tests
/// do, moving it into a spawned thread that runs the sequencer).
/// Strategies are plain data plus RNG state, so this costs
/// implementations nothing.
pub trait PricingStrategy: Send {
    /// Display name used in experiment tables ("MAPS", "BaseP", …).
    fn name(&self) -> &'static str;

    /// One-time offline calibration before the simulation starts
    /// (Algorithm 1 for the strategies that need a base price and seeded
    /// acceptance statistics). Default: nothing to calibrate.
    fn calibrate(&mut self, probe: &mut dyn DemandProbe) {
        let _ = probe;
    }

    /// Prices one time period.
    fn price_period(&mut self, input: &PeriodInput<'_>) -> PriceSchedule;

    /// Consumes post-period accept/reject feedback. Default: stateless.
    fn observe(&mut self, feedback: &[Observation]) {
        let _ = feedback;
    }

    /// Appends the strategy's *mutable learning state* (calibrated base
    /// price, UCB counters, change-detector windows — everything
    /// `calibrate`/`observe` mutate; construction parameters are not
    /// state) to a flat `u64` word stream, floats as raw bit patterns.
    /// The service's epoch checkpoints persist this alongside the market
    /// state so a recovered strategy resumes learning bit-identically.
    /// Default: stateless, nothing to save.
    fn save_state(&self, out: &mut Vec<u64>) {
        let _ = out;
    }

    /// Restores a [`save_state`](PricingStrategy::save_state) snapshot
    /// into this instance, which must be configured identically to the
    /// one that saved it (same ladder, cell count, …). Default:
    /// stateless, nothing to restore.
    fn load_state(&mut self, state: &mut StateWords<'_>) -> Result<(), StateError> {
        let _ = state;
        Ok(())
    }
}

/// Enumeration of the five compared strategies, for CLI/experiment config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// MAPS (Algorithms 2–3) — the paper's contribution.
    Maps,
    /// Base pricing (Algorithm 1) applied as a flat schedule.
    BaseP,
    /// Supply/demand ratio heuristic.
    Sdr,
    /// Supply/demand exponential heuristic.
    Sde,
    /// Babaioff et al. CappedUCB, per grid independently.
    CappedUcb,
}

impl StrategyKind {
    /// All five strategies in the paper's plotting order.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::Maps,
        StrategyKind::BaseP,
        StrategyKind::Sdr,
        StrategyKind::Sde,
        StrategyKind::CappedUcb,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Maps => "MAPS",
            StrategyKind::BaseP => "BaseP",
            StrategyKind::Sdr => "SDR",
            StrategyKind::Sde => "SDE",
            StrategyKind::CappedUcb => "CappedUCB",
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_spatial::Rect;

    fn grid() -> GridSpec {
        GridSpec::square(Rect::square(8.0), 4)
    }

    #[test]
    fn task_input_derives_cell() {
        let g = grid();
        let t = TaskInput::new(&g, Point::new(1.0, 5.0), 0.7);
        assert_eq!(t.cell.paper_number(), 9);
        assert_eq!(t.distance, 0.7);
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn task_input_rejects_zero_distance() {
        let _ = TaskInput::new(&grid(), Point::ORIGIN, 0.0);
    }

    #[test]
    fn worker_input_derives_cell() {
        let g = grid();
        let w = WorkerInput::new(&g, Point::new(5.0, 3.0), 2.5);
        assert_eq!(w.cell.paper_number(), 7);
    }

    #[test]
    fn schedule_prices_by_cell() {
        let g = grid();
        let mut s = PriceSchedule::uniform(g.num_cells(), 2.0);
        s.prices[8] = 3.0; // grid 9
        let tasks = [
            TaskInput::new(&g, Point::new(1.0, 5.0), 0.7), // grid 9
            TaskInput::new(&g, Point::new(5.0, 5.0), 1.0), // grid 11
        ];
        assert_eq!(s.price(tasks[0].cell), 3.0);
        assert_eq!(s.price(tasks[1].cell), 2.0);
    }

    #[test]
    fn strategy_kind_displays_its_name() {
        for k in StrategyKind::ALL {
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(StrategyKind::Maps.to_string(), "MAPS");
    }
}
