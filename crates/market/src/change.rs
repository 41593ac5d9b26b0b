//! Change detection for acceptance ratios (Sec. 4.2.2).
//!
//! The paper: *"we flag a change if the number of accepted requesters is
//! not within `m·Ŝ^g(p) ± 2√(m·Ŝ^g(p)(1 − Ŝ^g(p)))` for `m` requesters,
//! where `Ŝ^g(p)` is the acceptance ratio for the previous `m`
//! requesters"*. That is a two-sigma binomial deviation test over
//! tumbling windows of `m` observations per (grid, price).

/// Per-price tumbling-window change detector for one grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeDetector {
    window: u64,
    /// Ŝ from the previous completed window, per ladder position.
    prev_ratio: Vec<Option<f64>>,
    /// Current window tallies, per ladder position.
    cur_tested: Vec<u64>,
    cur_accepted: Vec<u64>,
}

impl ChangeDetector {
    /// Creates a detector with tumbling windows of `window` observations
    /// for each of `n_prices` ladder positions.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(n_prices: usize, window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            prev_ratio: vec![None; n_prices],
            cur_tested: vec![0; n_prices],
            cur_accepted: vec![0; n_prices],
        }
    }

    /// Feeds one observation for ladder position `idx`; returns `true`
    /// when the just-completed window deviates significantly from the
    /// previous one (the caller should then reset its estimator for that
    /// price).
    pub fn observe(&mut self, idx: usize, accepted: bool) -> bool {
        self.cur_tested[idx] += 1;
        self.cur_accepted[idx] += u64::from(accepted);
        if self.cur_tested[idx] < self.window {
            return false;
        }
        // Window complete: test against the previous window's ratio.
        let m = self.window as f64;
        let acc = self.cur_accepted[idx] as f64;
        let ratio = acc / m;
        let flagged = match self.prev_ratio[idx] {
            None => false,
            Some(s_prev) => {
                let expected = m * s_prev;
                let band = 2.0 * (m * s_prev * (1.0 - s_prev)).sqrt();
                (acc - expected).abs() > band
            }
        };
        self.prev_ratio[idx] = Some(ratio);
        self.cur_tested[idx] = 0;
        self.cur_accepted[idx] = 0;
        flagged
    }

    /// Forgets the learned baseline for position `idx` (e.g. after the
    /// caller re-estimated from scratch).
    pub fn reset(&mut self, idx: usize) {
        self.prev_ratio[idx] = None;
        self.cur_tested[idx] = 0;
        self.cur_accepted[idx] = 0;
    }

    /// Appends the detector's mutable state to a flat `u64` word stream
    /// (per rung: a presence flag + previous-window ratio as raw
    /// [`f64::to_bits`], then the open window's tallies) — the
    /// serialization the crash-recovery checkpoints use. Ratios travel
    /// as bit patterns, so restore is bit-exact.
    pub fn save_words(&self, out: &mut Vec<u64>) {
        out.push(self.prev_ratio.len() as u64);
        for ratio in &self.prev_ratio {
            match ratio {
                Some(r) => {
                    out.push(1);
                    out.push(r.to_bits());
                }
                None => {
                    out.push(0);
                    out.push(0);
                }
            }
        }
        out.extend_from_slice(&self.cur_tested);
        out.extend_from_slice(&self.cur_accepted);
    }

    /// Number of words [`ChangeDetector::save_words`] appends.
    pub fn state_words(&self) -> usize {
        1 + 4 * self.prev_ratio.len()
    }

    /// Restores state written by [`ChangeDetector::save_words`] from
    /// exactly its [`ChangeDetector::state_words`] words. Fails on a
    /// ladder-length mismatch (the snapshot must come from an
    /// identically-configured detector).
    pub fn load_words(&mut self, words: &[u64]) -> Result<(), &'static str> {
        let k = self.prev_ratio.len();
        if words.len() != self.state_words() || words[0] != k as u64 {
            return Err("ChangeDetector ladder length mismatch");
        }
        for (i, ratio) in self.prev_ratio.iter_mut().enumerate() {
            let flag = words[1 + 2 * i];
            let bits = words[2 + 2 * i];
            *ratio = match flag {
                0 => None,
                _ => Some(f64::from_bits(bits)),
            };
        }
        self.cur_tested
            .copy_from_slice(&words[1 + 2 * k..1 + 3 * k]);
        self.cur_accepted
            .copy_from_slice(&words[1 + 3 * k..1 + 4 * k]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Feeds `n` Bernoulli(q) observations, returns number of flags.
    fn feed(det: &mut ChangeDetector, rng: &mut SmallRng, q: f64, n: u64) -> u32 {
        let mut flags = 0;
        for _ in 0..n {
            if det.observe(0, rng.gen::<f64>() < q) {
                flags += 1;
            }
        }
        flags
    }

    #[test]
    fn first_window_never_flags() {
        let mut det = ChangeDetector::new(1, 10);
        let mut rng = SmallRng::seed_from_u64(1);
        // Exactly one window: no baseline yet → no flag possible.
        assert_eq!(feed(&mut det, &mut rng, 0.9, 10), 0);
    }

    #[test]
    fn stable_distribution_rarely_flags() {
        // The band compares against the *previous window's sample* ratio,
        // so the difference of two windows has variance 2σ² and the 2σ
        // band corresponds to z = √2 ≈ 1.41, i.e. ≈16 % false positives
        // per window. Require the empirical rate to stay near that.
        let mut det = ChangeDetector::new(1, 200);
        let mut rng = SmallRng::seed_from_u64(42);
        let flags = feed(&mut det, &mut rng, 0.7, 200 * 50);
        assert!(flags <= 16, "too many false alarms: {flags}/50 windows");
    }

    #[test]
    fn shifted_distribution_flags_quickly() {
        let mut det = ChangeDetector::new(1, 200);
        let mut rng = SmallRng::seed_from_u64(7);
        // Learn a 0.8 baseline…
        assert_eq!(feed(&mut det, &mut rng, 0.8, 200), 0);
        // …then the market shifts to 0.4: the very next window must flag.
        let flags = feed(&mut det, &mut rng, 0.4, 200);
        assert!(flags >= 1, "shift not detected");
    }

    #[test]
    fn small_shift_within_band_is_tolerated() {
        let mut det = ChangeDetector::new(1, 100);
        let mut rng = SmallRng::seed_from_u64(21);
        let _ = feed(&mut det, &mut rng, 0.80, 100);
        // 0.80 → 0.78 is inside 2σ = 2·√(100·0.8·0.2)/100 = 0.08.
        let flags = feed(&mut det, &mut rng, 0.78, 100);
        assert_eq!(flags, 0);
    }

    #[test]
    fn reset_clears_baseline() {
        let mut det = ChangeDetector::new(1, 100);
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = feed(&mut det, &mut rng, 0.9, 100);
        det.reset(0);
        // After reset the next window is a fresh baseline: no flag even
        // for a dramatic shift.
        let flags = feed(&mut det, &mut rng, 0.1, 100);
        assert_eq!(flags, 0);
    }

    #[test]
    fn per_price_isolation() {
        // One full window of 10 at `idx`, `accepted` of them accepting.
        let window = |det: &mut ChangeDetector, idx, accepted| {
            (0..10).fold(false, |flag, i| flag | det.observe(idx, i < accepted))
        };
        let mut det = ChangeDetector::new(2, 10);
        // Baseline window: Ŝ=0.9.
        assert!(!window(&mut det, 0, 9));
        // Price 1 never saw a baseline; its windows can't flag.
        assert!(!window(&mut det, 1, 0));
        // Price 0 shifts (|1 − 9| = 8 > 2√(10·0.9·0.1) = 1.9) → flags,
        // price 1 stays calm.
        assert!(window(&mut det, 0, 1));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        let _ = ChangeDetector::new(1, 0);
    }
}
