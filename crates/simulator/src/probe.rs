//! Ground-truth demand probe for the calibration phase.
//!
//! Algorithm 1 "uses the price p for h(p) times and observes the
//! acceptance ratio" against requesters *who recently issued tasks* —
//! i.e. historical requesters drawn from the same hidden demand. This
//! probe materializes exactly that: fresh valuations from the grid's
//! true distribution, answered as accept/reject counts.
//!
//! Each requester is one uniform `u` drawn from the probe's ChaCha12
//! stream, and its valuation is the demand's `quantile(u)`; it accepts
//! iff that valuation exceeds the price. A probe call asks one price of
//! `n` requesters, so instead of evaluating the inverse CDF `n` times
//! it finds once where in `u` the verdict flips
//! ([`DemandDistribution::cut`]) and compares each draw with that cut.
//! Inside a guard band of `2⁻²⁴` around the cut, where rounding could
//! make the computed inverse CDF disagree with the cut, the valuation
//! is evaluated as before; [`maps_market::AcceptanceCut`] argues why
//! that makes every verdict, and so every count, the one per-draw
//! sampling gives. The draws are the same one `u` per requester, so the
//! stream stays where per-draw sampling leaves it. That per-draw loop
//! is the `#[cfg(test)]` reference the tests hold the probe to.

use maps_core::DemandProbe;
use maps_market::{Demand, DemandDistribution};
use maps_spatial::CellId;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// [`DemandProbe`] backed by the hidden per-grid distributions.
#[derive(Debug, Clone)]
pub struct GroundTruthProbe<'a> {
    demands: &'a [Demand],
    rng: ChaCha12Rng,
    issued: u64,
}

impl<'a> GroundTruthProbe<'a> {
    /// Creates a probe over the world's demand distributions.
    pub fn new(demands: &'a [Demand], seed: u64) -> Self {
        Self {
            demands,
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            issued: 0,
        }
    }

    /// Total number of probe requesters contacted so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The reference [`DemandProbe::probe`]: one sampled valuation per
    /// requester, accepted iff `v > p` (`S(p) = Pr[v > p]`).
    #[cfg(test)]
    fn probe_by_sampling(&mut self, cell: CellId, price: f64, n: u64) -> u64 {
        self.issued += n;
        let demand = &self.demands[cell.index()];
        (0..n)
            .filter(|_| demand.sample(&mut self.rng) > price)
            .count() as u64
    }
}

impl DemandProbe for GroundTruthProbe<'_> {
    fn probe(&mut self, cell: CellId, price: f64, n: u64) -> u64 {
        self.issued += n;
        let cut = self.demands[cell.index()].cut(price);
        (0..n)
            .filter(|_| cut.accepts(self.rng.gen::<f64>()))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_core::BasePricing;
    use maps_testkit::{assert_golden, Labelled, XorShift};

    /// Algorithm 1 over a seeded 25-cell world whose normal cells put μ
    /// below, inside and above `[1, 5]` with σ from 0.2 to 2.7, and whose
    /// every fourth cell is exponential: each (cell, rung)'s tested and
    /// accepted counts, each cell's chosen rung and the base price's
    /// bits, pinned. A change to how a probe decides its draws, to the
    /// draws themselves or to Example 4's `(ε, δ)` moves a line.
    #[test]
    fn calibration_counts_are_the_golden() {
        let mut rng = XorShift::seeded(0xCA1B);
        let demands: Vec<Demand> = (0..25)
            .map(|cell| {
                if cell % 4 == 3 {
                    Demand::paper_exponential(0.3 + 1.7 * rng.next_f64())
                } else {
                    let mu = 6.0 * rng.next_f64();
                    Demand::paper_normal(mu, 0.2 + 2.5 * rng.next_f64())
                }
            })
            .collect();
        let bp = BasePricing::paper_default();
        let result = bp.learn(demands.len(), &mut GroundTruthProbe::new(&demands, 0x5EED));
        let mut pinned = Labelled {
            words: Vec::new(),
            labels: Vec::new(),
        };
        let mut pin = |label: String, word: u64| {
            pinned.labels.push(label);
            pinned.words.push(word);
        };
        for (cell, (stats, &(rung, _))) in result.stats.iter().zip(&result.per_grid).enumerate() {
            for idx in 0..bp.ladder().len() {
                pin(format!("cell{cell}/rung{idx}/tested"), stats.n_at(idx));
                pin(
                    format!("cell{cell}/rung{idx}/accepted"),
                    stats.accepted_at(idx),
                );
            }
            pin(format!("cell{cell}/chosen"), rung as u64);
        }
        pin("base_price".into(), result.base_price.to_bits());
        assert_golden(
            env!("CARGO_MANIFEST_DIR"),
            "calibration_counts.txt",
            &pinned.lines(),
        );
    }

    /// The cut-reading probe against the per-draw reference: 64 seeded
    /// calls of up to 20 000 requesters at paper rungs, support ends,
    /// prices beyond them and prices in between, issued in one sequence
    /// on one seed so that both streams stay aligned call after call.
    #[test]
    fn probe_counts_are_the_reference_counts() {
        let mut rng = XorShift::seeded(0x9B0B);
        let demands: Vec<Demand> = (0..8)
            .map(|cell| {
                if cell % 2 == 0 {
                    Demand::paper_normal(6.0 * rng.next_f64(), 0.2 + 2.5 * rng.next_f64())
                } else {
                    Demand::paper_exponential(0.05 + 2.45 * rng.next_f64())
                }
            })
            .collect();
        let prices = [1.0, 1.5, 2.25, 3.375, 5.0, 0.5, 5.5];
        let mut probe = GroundTruthProbe::new(&demands, 0xA11);
        let mut reference = GroundTruthProbe::new(&demands, 0xA11);
        for call in 0..64 {
            let cell = CellId::from(rng.below(demands.len() as u64) as usize);
            let price = match rng.below(prices.len() as u64 + 1) as usize {
                i if i < prices.len() => prices[i],
                _ => 1.0 + 4.0 * rng.next_f64(),
            };
            let n = 1 + rng.below(20_000);
            assert_eq!(
                probe.probe(cell, price, n),
                reference.probe_by_sampling(cell, price, n),
                "call {call}: cell {cell:?} price {price} n {n}"
            );
        }
        assert_eq!(probe.issued(), reference.issued());
    }

    #[test]
    fn probe_matches_true_survival() {
        let demands = vec![
            Demand::paper_normal(2.0, 1.0),
            Demand::paper_normal(3.0, 0.5),
        ];
        let mut probe = GroundTruthProbe::new(&demands, 7);
        for (cell, demand) in demands.iter().enumerate() {
            for price in [1.5, 2.25, 3.0] {
                let n = 20_000;
                let acc = probe.probe(cell.into(), price, n);
                let emp = acc as f64 / n as f64;
                let want = demand.survival(price);
                assert!(
                    (emp - want).abs() < 0.02,
                    "cell {cell} price {price}: {emp} vs {want}"
                );
            }
        }
        assert_eq!(probe.issued(), 2 * 3 * 20_000);
    }

    #[test]
    fn extreme_prices() {
        let demands = vec![Demand::paper_normal(2.0, 1.0)];
        let mut probe = GroundTruthProbe::new(&demands, 1);
        // At the support's bottom everyone accepts (v > 1 a.s. for a
        // continuous distribution); at the top nobody does.
        assert_eq!(probe.probe(0usize.into(), 0.5, 100), 100);
        assert_eq!(probe.probe(0usize.into(), 5.0, 100), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let demands = vec![Demand::paper_normal(2.0, 1.0)];
        let mut a = GroundTruthProbe::new(&demands, 42);
        let mut b = GroundTruthProbe::new(&demands, 42);
        assert_eq!(
            a.probe(0usize.into(), 2.0, 500),
            b.probe(0usize.into(), 2.0, 500)
        );
    }
}
