//! The acceptance-ratio learner.
//!
//! [`UcbStats`] is the paper's shared statistics `P`, one per grid and
//! keyed by ladder position: Algorithm 1 fills it with `h(p)` probes per
//! rung (`BasePricing::learn` in `maps-core`), and MAPS (Algorithm 3)
//! keeps that same value and goes on observing requesters into it. It
//! holds the upper-confidence-bound statistics of Sec. 4.2.2: sample
//! mean `Ŝ(p)` plus confidence radius `√(2·ln N / N(p))`, where `N`
//! counts all requesters seen in the grid and `N(p)` the times price `p`
//! was offered. The radius is **zero** when `N(p) = 0` — the paper relies
//! on the base-pricing phase for seeding rather than forced exploration.

/// UCB statistics for one grid (Sec. 4.2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UcbStats {
    /// `N(p)`: probes per ladder position.
    n: Vec<u64>,
    /// accepted probes per ladder position.
    accepted: Vec<u64>,
    /// `N`: total requesters observed in this grid so far.
    n_total: u64,
}

impl UcbStats {
    /// Creates zeroed statistics over `n_prices` ladder positions.
    pub fn new(n_prices: usize) -> Self {
        Self {
            n: vec![0; n_prices],
            accepted: vec![0; n_prices],
            n_total: 0,
        }
    }

    /// Records one requester's accept/reject decision at position `idx`.
    pub fn observe(&mut self, idx: usize, accepted: bool) {
        self.n[idx] += 1;
        self.accepted[idx] += u64::from(accepted);
        self.n_total += 1;
    }

    /// Records a batch of decisions at position `idx`.
    ///
    /// # Panics
    /// Panics if `accepted > tested` or `idx` is out of range.
    pub fn observe_batch(&mut self, idx: usize, tested: u64, accepted: u64) {
        assert!(accepted <= tested, "accepted {accepted} > tested {tested}");
        self.n[idx] += tested;
        self.accepted[idx] += accepted;
        self.n_total += tested;
    }

    /// Resets one position (used on change detection).
    pub fn reset_price(&mut self, idx: usize) {
        self.n_total -= self.n[idx];
        self.n[idx] = 0;
        self.accepted[idx] = 0;
    }

    /// `N`: total observations in the grid.
    #[cfg(test)]
    fn n_total(&self) -> u64 {
        self.n_total
    }

    /// `N(p)` at position `idx`.
    pub fn n_at(&self, idx: usize) -> u64 {
        self.n[idx]
    }

    /// Accepted decisions at position `idx`.
    pub fn accepted_at(&self, idx: usize) -> u64 {
        self.accepted[idx]
    }

    /// Sample mean `Ŝ(p)`; 0 when unseen (pessimistic — the paper seeds
    /// all rungs from base pricing before MAPS consults them).
    pub fn s_hat(&self, idx: usize) -> f64 {
        if self.n[idx] == 0 {
            0.0
        } else {
            self.accepted[idx] as f64 / self.n[idx] as f64
        }
    }

    /// Confidence radius `√(2·ln N / N(p))`; zero when `N(p) = 0`
    /// (paper: "The radius … is zero when N(p) is zero") or when `ln N`
    /// is not yet positive.
    pub fn radius(&self, idx: usize) -> f64 {
        if self.n[idx] == 0 || self.n_total < 2 {
            return 0.0;
        }
        (2.0 * (self.n_total as f64).ln() / self.n[idx] as f64).sqrt()
    }

    /// The optimistic estimate `Ŝ(p) + √(2·ln N / N(p))` (uncapped:
    /// Algorithm 3 uses it inside a `min(·, supply-line)` term, so values
    /// above 1 are harmless and match the paper's definition).
    pub fn ucb(&self, idx: usize) -> f64 {
        self.s_hat(idx) + self.radius(idx)
    }

    /// Number of ladder positions tracked.
    pub fn len(&self) -> usize {
        self.n.len()
    }

    /// Whether no positions are tracked.
    pub fn is_empty(&self) -> bool {
        self.n.is_empty()
    }

    /// Appends the statistics to a flat `u64` word stream (ladder
    /// length, then `N(p)` per rung, accepted per rung, then `N`) — the
    /// serialization the crash-recovery checkpoints use. Every count is
    /// already a word, so the encoding is exact.
    pub fn save_words(&self, out: &mut Vec<u64>) {
        out.push(self.n.len() as u64);
        out.extend_from_slice(&self.n);
        out.extend_from_slice(&self.accepted);
        out.push(self.n_total);
    }

    /// Number of words [`UcbStats::save_words`] appends.
    pub fn state_words(&self) -> usize {
        2 + 2 * self.n.len()
    }

    /// Restores state written by [`UcbStats::save_words`] from exactly
    /// its [`UcbStats::state_words`] words. Fails when the ladder length
    /// differs from this instance's (the snapshot must come from an
    /// identically-configured learner), and on counts no learner holds:
    /// every mutator keeps `accepted(p) ≤ N(p)` and `N = Σ N(p)`.
    pub fn load_words(&mut self, words: &[u64]) -> Result<(), &'static str> {
        let k = self.n.len();
        if words.len() != self.state_words() || words[0] != k as u64 {
            return Err("UcbStats ladder length mismatch");
        }
        let (n, accepted) = (&words[1..1 + k], &words[1 + k..1 + 2 * k]);
        if accepted.iter().zip(n).any(|(a, n)| a > n) {
            return Err("UcbStats accepted count above its probe count");
        }
        let sum = n.iter().try_fold(0u64, |sum, &n| sum.checked_add(n));
        if sum != Some(words[1 + 2 * k]) {
            return Err("UcbStats total is not the sum of its probe counts");
        }
        self.n.copy_from_slice(n);
        self.accepted.copy_from_slice(accepted);
        self.n_total = words[1 + 2 * k];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{Demand, DemandDistribution};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn batch_mean() {
        let mut u = UcbStats::new(4);
        assert_eq!(u.s_hat(0), 0.0);
        u.observe_batch(0, 335, 300);
        assert!((u.s_hat(0) - 0.8955223880597015).abs() < 1e-12);
        u.observe_batch(0, 165, 150);
        assert!((u.s_hat(0) - 0.9).abs() < 1e-12);
        assert_eq!((u.n_at(0), u.accepted_at(0), u.n_total()), (500, 450, 500));
        assert_eq!((u.n_at(1), u.s_hat(1)), (0, 0.0));
    }

    #[test]
    #[should_panic(expected = "accepted")]
    fn rejects_inconsistent_batch() {
        UcbStats::new(1).observe_batch(0, 3, 4);
    }

    #[test]
    fn ucb_radius_zero_when_unseen() {
        let mut u = UcbStats::new(3);
        assert_eq!(u.radius(0), 0.0);
        assert_eq!(u.ucb(0), 0.0);
        u.observe(1, true);
        // N(p)=0 for idx 0 still → radius 0 even though N>0.
        assert_eq!(u.radius(0), 0.0);
    }

    #[test]
    fn ucb_radius_shrinks_with_samples() {
        let mut u = UcbStats::new(2);
        u.observe_batch(0, 10, 5);
        u.observe_batch(1, 10, 5);
        let r10 = u.radius(0);
        u.observe_batch(0, 990, 500);
        let r1000 = u.radius(0);
        assert!(r1000 < r10, "radius must shrink: {r1000} vs {r10}");
        // And the mean is exact.
        assert!((u.s_hat(0) - 0.505).abs() < 1e-12);
    }

    #[test]
    fn ucb_radius_grows_with_total() {
        // More observations elsewhere (larger N) widen this price's bound.
        let mut u = UcbStats::new(2);
        u.observe_batch(0, 10, 5);
        let before = u.radius(0);
        u.observe_batch(1, 100_000, 50_000);
        let after = u.radius(0);
        assert!(after > before);
    }

    #[test]
    fn reset_price_clears_one_position() {
        let mut u = UcbStats::new(2);
        u.observe_batch(0, 10, 8);
        u.observe_batch(1, 20, 10);
        u.reset_price(0);
        assert_eq!(u.n_at(0), 0);
        assert_eq!(u.n_total(), 20);
        assert_eq!(u.s_hat(0), 0.0);
        assert_eq!(u.s_hat(1), 0.5);
    }

    #[test]
    fn lemma6_style_concentration() {
        // Empirical check of Lemma 6's direction: after many samples the
        // true mean lies within the confidence radius (p·S within p·c(p)
        // in the paper's scaling; here divided by p).
        let demand = Demand::paper_normal(2.0, 1.0);
        let price = 2.25;
        let s_true = demand.survival(price);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut u = UcbStats::new(1);
        for _ in 0..5_000 {
            u.observe(0, rng.gen::<f64>() < s_true);
        }
        assert!(
            (u.s_hat(0) - s_true).abs() <= u.radius(0),
            "mean {} vs true {} radius {}",
            u.s_hat(0),
            s_true,
            u.radius(0)
        );
        // And the UCB is optimistic.
        assert!(u.ucb(0) >= s_true);
    }

    /// Saved words of a learner over two rungs that observed 10 probes,
    /// 8 accepted, at rung 0: `[k, N(p0), N(p1), acc(p0), acc(p1), N]`.
    fn saved_words() -> Vec<u64> {
        let mut u = UcbStats::new(2);
        u.observe_batch(0, 10, 8);
        let mut words = Vec::new();
        u.save_words(&mut words);
        assert_eq!(words, [2, 10, 0, 8, 0, 10]);
        words
    }

    #[test]
    fn load_refuses_more_accepted_than_probed() {
        let mut words = saved_words();
        words[3] = 11;
        assert_eq!(
            UcbStats::new(2).load_words(&words),
            Err("UcbStats accepted count above its probe count")
        );
    }

    #[test]
    fn load_refuses_a_total_that_is_not_the_sum() {
        let refused = Err("UcbStats total is not the sum of its probe counts");
        let mut words = saved_words();
        words[5] = 11;
        assert_eq!(UcbStats::new(2).load_words(&words), refused);
        // A sum that overflows is no sum either.
        let words = [2, u64::MAX, 1, 0, 0, 0];
        assert_eq!(UcbStats::new(2).load_words(&words), refused);
    }
}
