//! # maps-market
//!
//! Market/demand substrate for the MAPS reproduction
//! (Tong et al., SIGMOD 2018).
//!
//! The paper models each requester's private valuation `v_r` as an i.i.d.
//! sample from an unknown per-grid distribution with CDF `F^g`, and the
//! *acceptance ratio* `S^g(p) = Pr[v_r > p] = 1 − F^g(p)` (Definition 3).
//! Base pricing assumes `F^g` has a **monotone hazard rate** (MHR), which
//! makes the revenue curve `p·S(p)` unimodal with the Myerson reserve
//! price as unique maximizer (Sec. 3.1.1). What ships is the argmax of
//! `p·Ŝ(p)` over a [`PriceLadder`] (Algorithm 1, in `maps-core`); the
//! continuous golden-section solver that checks it (Theorem 3, Fact 2)
//! is test code in the root `tests/theory.rs`.
//!
//! This crate provides:
//!
//! * [`special`] — erf / normal CDF / normal quantile implemented from
//!   scratch (no external math crates).
//! * [`demand`] — the [`DemandDistribution`] trait and the paper's
//!   distribution families, all MHR: truncated Normal (Table 3's
//!   default) and truncated Exponential (Appendix D), the two a
//!   [`Demand`] holds, and Uniform, the theory tests' distribution.
//! * [`ladder`] — the geometric candidate price set
//!   `p_min·(1+α)^i ∩ [p_min, p_max]` shared by Algorithms 1 and 3.
//! * [`estimator`] — [`UcbStats`], the one acceptance-ratio learner:
//!   Algorithm 1 fills it with its probes and Algorithm 3 keeps it, as
//!   the UCB statistics of Sec. 4.2.2 (`Ŝ(p) + √(2·ln N / N(p))`,
//!   radius 0 for unseen prices).
//! * [`change`] — the statistically-significant-deviation change detector
//!   (`m·Ŝ ± 2√(m·Ŝ(1−Ŝ))` windows) of Sec. 4.2.2.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod change;
pub mod demand;
pub mod estimator;
pub mod ladder;
pub mod special;

pub use change::ChangeDetector;
pub use demand::{
    AcceptanceCut, Demand, DemandDistribution, TruncatedExponential, TruncatedNormal, Uniform,
};
pub use estimator::UcbStats;
pub use ladder::PriceLadder;
