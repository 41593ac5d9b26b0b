//! # maps
//!
//! Umbrella crate for **maps-rs**, a production-quality Rust reproduction of
//!
//! > Yongxin Tong, Libin Wang, Zimu Zhou, Lei Chen, Bowen Du, Jieping Ye.
//! > *Dynamic Pricing in Spatial Crowdsourcing: A Matching-Based Approach.*
//! > SIGMOD 2018.
//!
//! Re-exports the workspace crates under stable module names:
//!
//! * [`spatial`] — geometry, grid partitioning (Definition 1), spatial index.
//! * [`matching`] — bipartite graphs, maximum(-weight) matching,
//!   possible-world enumeration (Definitions 5–6).
//! * [`market`] — MHR demand distributions, the geometric price ladder,
//!   the acceptance-ratio learner (UCB statistics that Algorithm 1 fills
//!   and Algorithm 3 keeps) and change detection.
//! * [`core`] — the GDP problem and the pricing strategies:
//!   `BasePricing` (Algorithm 1), `Maps` (Algorithms 2–3) and the
//!   SDR / SDE / CappedUCB baselines.
//! * [`simulator`] — synthetic (Table 3) and Beijing-like (Table 4)
//!   workload generators plus the per-period platform simulator used by
//!   the experiment harness.
//! * [`service`] — the **online** pricing service: ingests
//!   worker/task/tick event streams and serves posted prices
//!   continuously from the batch engine, with replay bit-identical to
//!   the batch simulator.
//! * [`telemetry`] — O(1) fixed-bucket log2 latency histograms: pure
//!   deterministic counters (event-time, never wall-clock) that ride
//!   inside `Outcome::deterministic_bits`.
//!
//! ## Quickstart
//!
//! ```
//! use maps::prelude::*;
//!
//! // Build the paper's Table-3 default synthetic market at a small scale,
//! // run every pricing strategy for a few periods and compare revenue.
//! let cfg = SyntheticConfig::paper_default()
//!     .with_num_workers(200)
//!     .with_num_tasks(800)
//!     .with_periods(20);
//! let outcome = Simulation::new(cfg.build(42), StrategyKind::Maps).run();
//! assert!(outcome.total_revenue >= 0.0);
//! ```

pub use maps_core as core;
pub use maps_market as market;
pub use maps_matching as matching;
pub use maps_service as service;
pub use maps_simulator as simulator;
pub use maps_spatial as spatial;
pub use maps_telemetry as telemetry;

/// The batch pipeline in one import: the root exports of `core`,
/// `market`, `matching`, `simulator` and `spatial`, by glob — each
/// crate root is the one list of what that crate exports.
pub mod prelude {
    pub use maps_core::*;
    pub use maps_market::*;
    pub use maps_matching::*;
    pub use maps_simulator::*;
    pub use maps_spatial::*;
}
