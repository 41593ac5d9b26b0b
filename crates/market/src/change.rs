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

    /// Window length `m`.
    pub fn window(&self) -> u64 {
        self.window
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

    /// Feeds a batch; returns `true` if any completed window flagged.
    ///
    /// Acceptances are spread evenly across the batch (Bresenham-style:
    /// observation `i` accepts iff `⌊(i+1)·accepted/tested⌋` exceeds
    /// `⌊i·accepted/tested⌋`), and the tumbling-window statistics only
    /// depend on per-window *counts* — so instead of replaying `tested`
    /// individual observations, each completed window is credited with
    /// its exact acceptance count in one step. This costs `O(windows)`
    /// rather than `O(tested)`, and the rank products are taken in
    /// `u128`: the previous `u64` arithmetic overflowed once
    /// `tested · accepted` crossed 2⁶⁴ (batches in the billions),
    /// silently corrupting the accept pattern.
    pub fn observe_batch(&mut self, idx: usize, tested: u64, accepted: u64) -> bool {
        assert!(accepted <= tested, "accepted {accepted} > tested {tested}");
        if tested == 0 {
            return false;
        }
        // Number of accepts among batch observations `[0, upto)`:
        // a telescoping sum of the Bresenham indicator above.
        let accepts_before =
            |upto: u64| -> u64 { ((upto as u128 * accepted as u128) / tested as u128) as u64 };
        let mut flagged = false;
        let mut consumed = 0u64;
        while consumed < tested {
            let room = self.window - self.cur_tested[idx];
            let take = room.min(tested - consumed);
            let acc = accepts_before(consumed + take) - accepts_before(consumed);
            self.cur_tested[idx] += take;
            self.cur_accepted[idx] += acc;
            consumed += take;
            if self.cur_tested[idx] < self.window {
                break; // partial window left open for the next batch
            }
            // Window complete: same deviation test as `observe`.
            let m = self.window as f64;
            let acc = self.cur_accepted[idx] as f64;
            let ratio = acc / m;
            if let Some(s_prev) = self.prev_ratio[idx] {
                let expected = m * s_prev;
                let band = 2.0 * (m * s_prev * (1.0 - s_prev)).sqrt();
                flagged |= (acc - expected).abs() > band;
            }
            self.prev_ratio[idx] = Some(ratio);
            self.cur_tested[idx] = 0;
            self.cur_accepted[idx] = 0;
        }
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
    fn batch_observation_equivalent_counts() {
        // A batch with the same per-window acceptance count behaves like
        // the sequential feed for flagging purposes.
        let mut det = ChangeDetector::new(1, 10);
        // Baseline window: Ŝ=0.9.
        assert!(!det.observe_batch(0, 10, 9));
        // Next window with 1/10 accepted: |1 − 9| = 8 > 2√(10·0.9·0.1)=1.9.
        assert!(det.observe_batch(0, 10, 1));
    }

    #[test]
    fn per_price_isolation() {
        let mut det = ChangeDetector::new(2, 10);
        assert!(!det.observe_batch(0, 10, 9));
        // Price 1 never saw a baseline; its windows can't flag.
        assert!(!det.observe_batch(1, 10, 0));
        // Price 0 shifts → flags, price 1 stays calm.
        assert!(det.observe_batch(0, 10, 1));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        let _ = ChangeDetector::new(1, 0);
    }

    /// The batched path must be exactly equivalent to feeding the
    /// Bresenham accept pattern one observation at a time — same flags,
    /// same detector state — including batches that straddle window
    /// boundaries and leave partial windows open.
    #[test]
    fn observe_batch_equals_sequential_feed() {
        let mut rng = SmallRng::seed_from_u64(99);
        for window in [1u64, 3, 10, 64] {
            let mut batched = ChangeDetector::new(2, window);
            let mut sequential = ChangeDetector::new(2, window);
            for round in 0..200u64 {
                let idx = (round % 2) as usize;
                let tested = rng.gen::<u64>() % (3 * window + 2);
                let accepted = if tested == 0 {
                    0
                } else {
                    rng.gen::<u64>() % (tested + 1)
                };
                let got = batched.observe_batch(idx, tested, accepted);
                let mut want = false;
                for i in 0..tested {
                    let accept_now = (i * accepted) / tested != ((i + 1) * accepted) / tested;
                    want |= sequential.observe(idx, accept_now);
                }
                assert_eq!(
                    got, want,
                    "window {window} round {round}: flag diverged ({tested}/{accepted})"
                );
                assert_eq!(batched, sequential, "window {window} round {round}");
            }
        }
    }

    /// Overflow regression: with `tested · accepted` past 2⁶⁴ the old
    /// `u64` Bresenham products wrapped (panicking in debug, silently
    /// corrupting the accept pattern in release). In exact arithmetic a
    /// constant-ratio stream deviates by at most one acceptance per
    /// window — far inside the two-sigma band — so none of these
    /// billion-observation batches may flag.
    #[test]
    fn observe_batch_large_counts_do_not_overflow() {
        let window = 1u64 << 31;
        let mut det = ChangeDetector::new(1, window);
        // 3 windows' worth in one batch at ratio 2/3: i·accepted reaches
        // ≈ 2.8·10¹⁹ > u64::MAX, the old arithmetic's failure regime.
        let tested = 3 * window;
        let accepted = 1u64 << 32;
        assert!(!det.observe_batch(0, tested, accepted), "baseline flagged");
        // Same ratio again (two more windows): still no flag.
        assert!(!det.observe_batch(0, 2 * window, (accepted / 3) * 2));
        // A genuine shift at the same scale is still caught.
        assert!(det.observe_batch(0, window, window / 4));
    }
}
