//! # maps-core
//!
//! The primary contribution of *Tong et al., "Dynamic Pricing in Spatial
//! Crowdsourcing: A Matching-Based Approach", SIGMOD 2018*: the **Global
//! Dynamic Pricing (GDP)** problem and the pricing strategies evaluated in
//! the paper.
//!
//! ## Problem (Definition 7)
//!
//! Per time period the platform sees tasks `R^t` (each with an origin grid
//! cell and travel distance `d_r`) and workers `W^t` (each with a range
//! constraint). It must post one unit price per grid cell so that the
//! *expected total revenue* — the expectation over requesters' random
//! accept/reject decisions of the maximum-weight bipartite matching
//! between accepting tasks and workers — is maximized. The problem is
//! NP-hard (Theorem 1); the executable 3-SAT reduction is test code, in
//! the root `tests/hardness.rs`.
//!
//! ## Strategies (Sec. 3–5)
//!
//! | Type | Paper reference |
//! |------|-----------------|
//! | [`BasePricing`] | Algorithm 1 — PAC estimation of per-grid Myerson prices, averaged into a global base price `p_b` |
//! | [`BasePStrategy`] | `p_b` in every grid, raised where tasks outnumber workers by its [`Surge`] rule: `Flat` (BaseP), `Ratio` (the supply/demand-ratio heuristic SDR) or `Exponential` (the supply/demand exponential heuristic SDE) |
//! | [`MapsStrategy`] | Algorithms 2 + 3 — UCB demand learning, `L^g(n,p)` revenue approximation, greedy supply distribution with a lazy max-heap over marginal gains |
//! | [`CappedUcbStrategy`] | Babaioff et al. limited-supply posted pricing, per grid independently |
//!
//! All strategies implement [`PricingStrategy`] and are driven by the
//! simulator in `maps-simulator`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod base;
pub mod baselines;
pub mod builder;
pub mod cache;
pub mod evaluate;
pub mod lfunc;
pub mod maps_strategy;
pub mod problem;
pub mod running_example;
pub mod smoothing;

pub use base::{BasePriceResult, BasePricing};
pub use baselines::{paper_default_strategy, BasePStrategy, CappedUcbStrategy, Surge};
pub use builder::{build_period_graph, build_period_graph_capped};
pub use cache::PeriodGraphCache;
pub use evaluate::monte_carlo_expected_revenue;
pub use lfunc::{ApproxKind, DeltaRule, LFunction};
pub use maps_strategy::{MapsConfig, MapsStrategy};
pub use problem::{
    DemandProbe, Observation, PeriodInput, PriceSchedule, PricingStrategy, StateError, StateWords,
    StrategyKind, TaskInput, WorkerInput,
};
pub use running_example::RunningExample;
