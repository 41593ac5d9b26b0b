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
    /// identically-configured detector), and on a rung no detector
    /// holds: a presence flag is 0 (ratio bits 0) or 1 (a ratio in
    /// `[0, 1]`, never NaN), and an open window has
    /// `accepted ≤ tested < window` — `observe` closes it at `window`.
    pub fn load_words(&mut self, words: &[u64]) -> Result<(), &'static str> {
        let k = self.prev_ratio.len();
        if words.len() != self.state_words() || words[0] != k as u64 {
            return Err("ChangeDetector ladder length mismatch");
        }
        let (ratios, tallies) = words[1..].split_at(2 * k);
        let (tested, accepted) = tallies.split_at(k);
        let prev_ratio = ratios
            .chunks_exact(2)
            .map(|rung| match *rung {
                [0, 0] => Ok(None),
                [0, _] => Err("ChangeDetector absent ratio with ratio bits"),
                [1, bits] => Some(f64::from_bits(bits))
                    .filter(|r| (0.0..=1.0).contains(r))
                    .map(Some)
                    .ok_or("ChangeDetector ratio outside [0, 1]"),
                _ => Err("ChangeDetector presence flag is not 0 or 1"),
            })
            .collect::<Result<Vec<_>, _>>()?;
        if accepted.iter().zip(tested).any(|(a, t)| a > t) {
            return Err("ChangeDetector window accepted more than it tested");
        }
        if tested.iter().any(|&t| t >= self.window) {
            return Err("ChangeDetector open window is already full");
        }
        self.prev_ratio = prev_ratio;
        self.cur_tested.copy_from_slice(tested);
        self.cur_accepted.copy_from_slice(accepted);
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

    /// Saved words of a two-rung detector with window 10: rung 0 closed
    /// one window at 8 of 10 and has tested 3, accepted 2 since; rung 1
    /// never closed one. `[k, flag0, bits0, flag1, bits1, tested…,
    /// accepted…]`.
    fn saved_words() -> Vec<u64> {
        let mut det = ChangeDetector::new(2, 10);
        (0..13).for_each(|i| {
            det.observe(0, !(8..=10).contains(&i));
        });
        let mut words = Vec::new();
        det.save_words(&mut words);
        assert_eq!(words, [2, 1, 0.8f64.to_bits(), 0, 0, 3, 0, 2, 0]);
        words
    }

    /// Loads `words` into a fresh two-rung detector with window 10.
    fn load(words: &[u64]) -> Result<(), &'static str> {
        ChangeDetector::new(2, 10).load_words(words)
    }

    #[test]
    fn load_refuses_a_flag_that_is_not_0_or_1() {
        let mut words = saved_words();
        words[1] = 2;
        assert_eq!(
            load(&words),
            Err("ChangeDetector presence flag is not 0 or 1")
        );
    }

    #[test]
    fn load_refuses_ratio_bits_under_an_absent_flag() {
        let mut words = saved_words();
        words[4] = 0.5f64.to_bits();
        assert_eq!(
            load(&words),
            Err("ChangeDetector absent ratio with ratio bits")
        );
    }

    #[test]
    fn load_refuses_a_ratio_that_is_nan_or_outside_the_unit_interval() {
        for ratio in [f64::NAN, -0.25, 1.5, f64::INFINITY] {
            let mut words = saved_words();
            words[2] = ratio.to_bits();
            assert_eq!(
                load(&words),
                Err("ChangeDetector ratio outside [0, 1]"),
                "{ratio}"
            );
        }
    }

    #[test]
    fn load_refuses_more_accepted_than_tested() {
        let mut words = saved_words();
        words[7] = 4;
        assert_eq!(
            load(&words),
            Err("ChangeDetector window accepted more than it tested")
        );
    }

    #[test]
    fn load_refuses_an_open_window_that_is_already_full() {
        let mut words = saved_words();
        words[6] = 10;
        assert_eq!(
            load(&words),
            Err("ChangeDetector open window is already full")
        );
    }

    /// Every stream `load_words` accepts saves back to itself: over each
    /// rung's flag, ratio and tallies at and around the bounds.
    #[test]
    fn save_of_load_is_the_identity_on_every_accepted_stream() {
        let ratios = [0.0, -0.0, 0.5, 1.0, 1.5, f64::NAN].map(f64::to_bits);
        let mut accepted_streams = 0;
        for flag in 0..3 {
            for bits in ratios {
                for (tested, acc) in [(0, 0), (3, 2), (9, 9), (9, 10), (10, 0)] {
                    let words = [2, flag, bits, 0, 0, tested, 0, acc, 0];
                    let mut det = ChangeDetector::new(2, 10);
                    if det.load_words(&words).is_err() {
                        continue;
                    }
                    let mut saved = Vec::new();
                    det.save_words(&mut saved);
                    assert_eq!(saved, words);
                    accepted_streams += 1;
                }
            }
        }
        // Flag 0 with bits 0 (0.0's), and flag 1 with the four ratios in
        // [0, 1] (-0.0 compares equal to 0), times the three open windows
        // that fit.
        assert_eq!(accepted_streams, (1 + 4) * 3);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        let _ = ChangeDetector::new(1, 0);
    }
}
