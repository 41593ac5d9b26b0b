//! # maps-simulator
//!
//! Workload generators and the platform simulator used to evaluate the
//! pricing strategies of the MAPS paper (Tong et al., SIGMOD 2018).
//!
//! * [`truth`] — the ground-truth world model: per-grid demand
//!   distributions, task arrivals with pre-sampled private valuations,
//!   worker arrivals with availability windows and a lifecycle policy.
//! * [`synthetic`] — the Table-3 synthetic generator (temporal Normal,
//!   spatial 2-D Gaussian, uniform destinations, per-grid Normal or
//!   Exponential valuations on `[1, 5]`).
//! * [`beijing`] — the Table-4 substitute: a Beijing-like taxi workload
//!   with hotspot mixtures, the paper's exact task/worker counts, a
//!   10×8 grid, 3 km worker range and configurable worker duration
//!   `δ_w` (its module doc gives the substitution rationale).
//! * [`platform`] — the per-period step shared by the batch loop and
//!   the online service: price → requesters accept/reject against their
//!   private valuations → maximum-weight market clearing → feedback to
//!   the strategy → worker lifecycle.
//! * [`lifecycle`] — the worker state machine (arrive/expire/
//!   busy-release/depart events) feeding its churn into one
//!   [`maps_core::PeriodGraphCache`]: the period engine of the batch
//!   loop and of the online service alike.
//! * [`probe`] — the ground-truth [`maps_core::DemandProbe`] used by the
//!   Algorithm-1 calibration phase.
//! * [`metrics`] — revenue / time / memory accounting (Figs. 6–8, 10).
//! * [`alloc`] — a tracking global allocator for the Memory(MB) panels.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod beijing;
pub mod lifecycle;
pub mod metrics;
pub mod platform;
pub mod probe;
pub mod synthetic;
pub mod truth;

pub use beijing::{BeijingConfig, BeijingWindow};
pub use lifecycle::WorkerLifecycle;
pub use metrics::{Outcome, RunningMoments};
pub use platform::{
    settle_period, PeriodEngine, PeriodSettlement, PeriodStep, SimOptions, Simulation,
};
pub use probe::GroundTruthProbe;
pub use synthetic::{DemandKind, DemandShift, SyntheticConfig};
pub use truth::{EventRejection, GroundTask, GroundTruth, GroundWorker, MatchPolicy, PeriodData};
