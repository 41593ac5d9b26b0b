//! Simulation outcome metrics: the quantities plotted in Figs. 6–8 and 10
//! of the paper (Revenue, Time(secs), Memory(MB)) plus conservation
//! counters used by the integration tests.

use maps_core::{StateError, StateWords};
use maps_telemetry::{LatencyTelemetry, Log2Histogram};

/// Numerically stable streaming mean/variance (Welford's online
/// algorithm).
///
/// The platform's posted-price statistics previously accumulated
/// `Σx` and `Σx²` and finished with `E[x²] − E[x]²` — which cancels
/// catastrophically when the mean dwarfs the spread (long Beijing
/// horizons post millions of near-identical prices; the naive variance
/// of `10⁸ ± 0.01` is pure rounding noise, often negative). Welford's
/// recurrence keeps the *centered* second moment `M₂ = Σ(x − x̄)²`,
/// whose updates never subtract two large near-equal numbers.
///
/// Every consumer that must stay bit-identical (the sequential platform
/// loop and the online service's tick) pushes prices through
/// this one type in the same order, so the floating-point op sequence —
/// and therefore the bit pattern of the resulting statistics — is
/// shared by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (`≥ 0`: each
    /// update adds `δ·δ'` with `δ`, `δ'` of equal sign).
    m2: f64,
}

impl RunningMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation `√(M₂/n)` (`0.0` when empty).
    pub fn population_std(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Exact internal state `(count, mean bits, M₂ bits)` for
    /// checkpointing; [`RunningMoments::from_raw`] restores it
    /// bit-identically.
    pub fn to_raw(&self) -> (u64, u64, u64) {
        (self.count, self.mean.to_bits(), self.m2.to_bits())
    }

    /// Rebuilds an accumulator from [`RunningMoments::to_raw`] output.
    pub fn from_raw(count: u64, mean_bits: u64, m2_bits: u64) -> Self {
        Self {
            count,
            mean: f64::from_bits(mean_bits),
            m2: f64::from_bits(m2_bits),
        }
    }
}

/// Aggregate result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Strategy display name ("MAPS", "BaseP", …).
    pub strategy: String,
    /// Total revenue over all `T` periods (the paper's Revenue axis).
    pub total_revenue: f64,
    /// Tasks issued (`|R|` actually materialized in the horizon).
    pub issued_tasks: u64,
    /// Tasks whose requesters accepted the posted price.
    pub accepted_tasks: u64,
    /// Accepted tasks actually served by a worker.
    pub matched_tasks: u64,
    /// Total wall-clock seconds spent inside `price_period` across all
    /// periods (the paper's Time axis: strategy computation time).
    pub pricing_secs: f64,
    /// Wall-clock seconds spent clearing the market (matching accepted
    /// tasks to workers) — identical work for every strategy, reported
    /// separately for transparency.
    pub clearing_secs: f64,
    /// Wall-clock seconds spent in the one-off calibration phase
    /// (Algorithm 1 probing), not included in `pricing_secs`.
    pub calibration_secs: f64,
    /// Peak heap usage in MiB if the tracking allocator was active
    /// (the paper's Memory axis).
    pub peak_memory_mib: Option<f64>,
    /// Revenue per period (for time-series inspection; length `T`).
    pub revenue_per_period: Vec<f64>,
    /// Task-weighted mean of the prices posted to requesters.
    pub mean_posted_price: f64,
    /// Task-weighted standard deviation of posted prices — BaseP is 0 by
    /// construction; dynamic strategies disperse.
    pub posted_price_std: f64,
    /// Total travel distance of served tasks (`Σ d_r` over matches).
    pub matched_distance: f64,
    /// Events the service's admission refused: every
    /// [`EventRejection`](crate::EventRejection) — a worker or task its
    /// check refuses, or an event past a stated limit. An unknown or
    /// repeated departure id is a no-op, not a rejection. `0` for the
    /// batch simulator, which never constructs invalid events.
    /// Deterministic: a pure function of the admitted event stream, so
    /// it participates in the replay contract.
    pub rejected_events: u64,
    /// Re-sent events dropped by the per-producer `(epoch, seq)`
    /// watermark during at-least-once recovery handoff. `0` for the
    /// batch simulator and for any run without producer retries.
    pub suppressed_duplicates: u64,
    /// Event-time latency histograms (admission→priced task wait,
    /// per-tick queue depth, live worker pool). Unlike the wall-clock
    /// columns these are pure functions of the admitted event stream —
    /// measured in canonical-replay-order positions, not seconds — so
    /// they participate in `deterministic_bits` and must agree bitwise
    /// across every engine, thread count and producer interleaving.
    pub latency: LatencyTelemetry,
}

impl Outcome {
    /// The outcome of a run that has not served a period yet.
    pub fn new(strategy: &str) -> Self {
        Self {
            strategy: strategy.to_string(),
            total_revenue: 0.0,
            issued_tasks: 0,
            accepted_tasks: 0,
            matched_tasks: 0,
            pricing_secs: 0.0,
            clearing_secs: 0.0,
            calibration_secs: 0.0,
            peak_memory_mib: None,
            revenue_per_period: Vec::new(),
            mean_posted_price: 0.0,
            posted_price_std: 0.0,
            matched_distance: 0.0,
            rejected_events: 0,
            suppressed_duplicates: 0,
            latency: LatencyTelemetry::new(),
        }
    }

    /// Fraction of issued tasks that accepted their price.
    #[cfg(test)]
    fn acceptance_rate(&self) -> f64 {
        if self.issued_tasks == 0 {
            0.0
        } else {
            self.accepted_tasks as f64 / self.issued_tasks as f64
        }
    }

    /// Fraction of accepted tasks that were served.
    #[cfg(test)]
    fn service_rate(&self) -> f64 {
        if self.accepted_tasks == 0 {
            0.0
        } else {
            self.matched_tasks as f64 / self.accepted_tasks as f64
        }
    }

    /// Conservation invariant: matched ⊆ accepted ⊆ issued.
    pub fn is_consistent(&self) -> bool {
        self.matched_tasks <= self.accepted_tasks && self.accepted_tasks <= self.issued_tasks
    }

    /// Average revenue per served task (`0` when nothing matched).
    #[cfg(test)]
    fn revenue_per_match(&self) -> f64 {
        if self.matched_tasks == 0 {
            0.0
        } else {
            self.total_revenue / self.matched_tasks as f64
        }
    }

    /// Canonical bit-level encoding of every schedule-independent field
    /// — everything except the wall-clock columns (`pricing_secs`,
    /// `clearing_secs`, `calibration_secs`), which legitimately vary
    /// with thread count and machine load, and `peak_memory_mib`, which
    /// reflects the allocator schedule of whichever engine produced the
    /// outcome (the batch and the service paths are bit-identical in
    /// *results* while allocating differently).
    ///
    /// This is the equality the workspace's replay/determinism oracles
    /// compare: two outcomes with equal `deterministic_bits` agree
    /// bitwise on revenue, counters, per-period series, price moments
    /// and matched distance (floats via [`f64::to_bits`], so even a
    /// one-ulp rounding difference is caught).
    ///
    /// The words are those the private `walk_deterministic` hands over,
    /// in its order.
    pub fn deterministic_bits(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(
            18 + self.strategy.len() + self.revenue_per_period.len() + LatencyTelemetry::WORDS,
        );
        self.walk_deterministic(|_, _, word| out.push(word));
        out
    }

    /// One label per word of [`Outcome::deterministic_bits`], in its
    /// order: the field's name, with the index inside a list
    /// (`revenue_per_period[3]`) or a histogram (`latency.task_wait[7]`).
    /// An oracle names the first differing label instead of printing two
    /// word lists.
    pub fn deterministic_labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk_deterministic(|name, index, _| {
            out.push(match index {
                Some(i) => format!("{name}[{i}]"),
                None => name.to_string(),
            });
        });
        out
    }

    /// The one walk of the deterministic fields: hands `put` each word
    /// of the encoding in order, with its field's name and, inside a
    /// list or a histogram, its index. [`Outcome::deterministic_bits`]
    /// keeps the words and [`Outcome::deterministic_labels`] formats the
    /// names, so the two cannot disagree.
    ///
    /// The body destructures `Outcome` *exhaustively* (no `..` rest
    /// pattern): adding a field to `Outcome` is a **compile error here**
    /// until the author decides whether the new field participates in
    /// the replay contract or joins the explicitly-discarded wall-clock
    /// group below. A hand-maintained field list would instead let a new
    /// field silently escape every replay and ingestion oracle in the
    /// workspace.
    fn walk_deterministic(&self, mut put: impl FnMut(&'static str, Option<usize>, u64)) {
        let Outcome {
            strategy,
            total_revenue,
            issued_tasks,
            accepted_tasks,
            matched_tasks,
            pricing_secs: _,
            clearing_secs: _,
            calibration_secs: _,
            peak_memory_mib: _,
            revenue_per_period,
            mean_posted_price,
            posted_price_std,
            matched_distance,
            rejected_events,
            suppressed_duplicates,
            latency,
        } = self;
        put("strategy.len", None, strategy.len() as u64);
        for (i, byte) in strategy.bytes().enumerate() {
            put("strategy", Some(i), u64::from(byte));
        }
        put("total_revenue", None, total_revenue.to_bits());
        put("issued_tasks", None, *issued_tasks);
        put("accepted_tasks", None, *accepted_tasks);
        put("matched_tasks", None, *matched_tasks);
        put(
            "revenue_per_period.len",
            None,
            revenue_per_period.len() as u64,
        );
        for (i, revenue) in revenue_per_period.iter().enumerate() {
            put("revenue_per_period", Some(i), revenue.to_bits());
        }
        put("mean_posted_price", None, mean_posted_price.to_bits());
        put("posted_price_std", None, posted_price_std.to_bits());
        put("matched_distance", None, matched_distance.to_bits());
        put("rejected_events", None, *rejected_events);
        put("suppressed_duplicates", None, *suppressed_duplicates);
        // The telemetry's own encoding: three histograms in field order,
        // each its buckets then its total.
        let mut words = Vec::with_capacity(LatencyTelemetry::WORDS);
        latency.extend_words(&mut words);
        let histograms = [
            ("latency.task_wait", "latency.task_wait.total"),
            ("latency.queue_depth", "latency.queue_depth.total"),
            ("latency.worker_pool", "latency.worker_pool.total"),
        ];
        for ((name, total), words) in histograms
            .into_iter()
            .zip(words.chunks(Log2Histogram::WORDS))
        {
            let (&sum, buckets) = words.split_last().expect("a histogram ends in its total");
            for (i, &count) in buckets.iter().enumerate() {
                put(name, Some(i), count);
            }
            put(total, None, sum);
        }
    }

    /// Decodes what [`Outcome::deterministic_bits`] encodes — the form a
    /// checkpoint carries the accumulator in; the excluded columns
    /// restart at zero. A struct literal evaluates its fields as written
    /// (the encoder's order) and is exhaustive, so a new `Outcome` field
    /// fails to compile here as it does there. Every word is outside
    /// input: counts go through [`StateWords::take_len`], a name that is
    /// not text is a [`StateError::Mismatch`].
    pub fn from_deterministic_bits(r: &mut StateWords<'_>) -> Result<Outcome, StateError> {
        let name_len = r.take_len(1)?;
        let name = r.take_slice(name_len)?;
        let name: Option<Vec<u8>> = name.iter().map(|&w| u8::try_from(w).ok()).collect();
        let strategy = name.and_then(|bytes| String::from_utf8(bytes).ok());
        Ok(Outcome {
            strategy: strategy.ok_or(StateError::Mismatch("checkpoint strategy name corrupt"))?,
            total_revenue: r.take_f64()?,
            issued_tasks: r.take()?,
            accepted_tasks: r.take()?,
            matched_tasks: r.take()?,
            revenue_per_period: {
                let periods = r.take_len(1)?;
                let revenues = r.take_slice(periods)?.iter().map(|&w| f64::from_bits(w));
                revenues.collect()
            },
            mean_posted_price: r.take_f64()?,
            posted_price_std: r.take_f64()?,
            matched_distance: r.take_f64()?,
            rejected_events: r.take()?,
            suppressed_duplicates: r.take()?,
            latency: LatencyTelemetry::from_words(r.take_slice(LatencyTelemetry::WORDS)?)
                .ok_or(StateError::Mismatch("checkpoint latency telemetry corrupt"))?,
            pricing_secs: 0.0,
            clearing_secs: 0.0,
            calibration_secs: 0.0,
            peak_memory_mib: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut latency = LatencyTelemetry::new();
        latency.record_period(25, 80);
        latency.record_period(25, 75);
        Outcome {
            strategy: "MAPS".into(),
            total_revenue: 100.0,
            issued_tasks: 50,
            accepted_tasks: 40,
            matched_tasks: 30,
            pricing_secs: 0.5,
            clearing_secs: 0.1,
            calibration_secs: 0.2,
            peak_memory_mib: Some(12.5),
            revenue_per_period: vec![50.0, 50.0],
            mean_posted_price: 2.0,
            posted_price_std: 0.4,
            matched_distance: 60.0,
            rejected_events: 3,
            suppressed_duplicates: 1,
            latency,
        }
    }

    #[test]
    fn rates() {
        let o = outcome();
        assert!((o.acceptance_rate() - 0.8).abs() < 1e-12);
        assert!((o.service_rate() - 0.75).abs() < 1e-12);
        assert!(o.is_consistent());
    }

    #[test]
    fn degenerate_rates() {
        let o = Outcome {
            issued_tasks: 0,
            accepted_tasks: 0,
            matched_tasks: 0,
            ..outcome()
        };
        assert_eq!(o.acceptance_rate(), 0.0);
        assert_eq!(o.service_rate(), 0.0);
    }

    #[test]
    fn inconsistency_detected() {
        let o = Outcome {
            matched_tasks: 99,
            ..outcome()
        };
        assert!(!o.is_consistent());
    }

    #[test]
    fn revenue_per_match() {
        let o = outcome();
        assert!((o.revenue_per_match() - 100.0 / 30.0).abs() < 1e-12);
        let none = Outcome {
            matched_tasks: 0,
            ..outcome()
        };
        assert_eq!(none.revenue_per_match(), 0.0);
    }

    #[test]
    fn deterministic_bits_cover_every_replay_field() {
        let base = outcome();
        assert_eq!(base.deterministic_bits(), base.deterministic_bits());
        // Every schedule-independent field participates, and the first
        // word it moves carries its label.
        type Mutation = (&'static str, fn(&mut Outcome));
        let mutations: [Mutation; 15] = [
            ("strategy.len", |o| o.strategy = "SDE".into()),
            ("total_revenue", |o| o.total_revenue += 1e-9),
            ("issued_tasks", |o| o.issued_tasks += 1),
            ("accepted_tasks", |o| o.accepted_tasks += 1),
            ("matched_tasks", |o| o.matched_tasks += 1),
            ("revenue_per_period.len", |o| o.revenue_per_period.push(0.0)),
            ("revenue_per_period[1]", |o| o.revenue_per_period[1] *= -1.0),
            ("mean_posted_price", |o| o.mean_posted_price *= -1.0),
            ("posted_price_std", |o| o.posted_price_std += f64::EPSILON),
            ("matched_distance", |o| o.matched_distance += 1.0),
            ("rejected_events", |o| o.rejected_events += 1),
            ("suppressed_duplicates", |o| o.suppressed_duplicates += 1),
            ("latency.task_wait[1]", |o| o.latency.record_period(1, 1)),
            ("latency.queue_depth[3]", |o| {
                o.latency.queue_depth.record(7)
            }),
            ("latency.worker_pool[3]", |o| {
                o.latency.worker_pool.record(7)
            }),
        ];
        for (label, mutate) in mutations {
            let mut changed = base.clone();
            mutate(&mut changed);
            let (a, b) = (base.deterministic_bits(), changed.deterministic_bits());
            let first = (0..).find(|&i| a.get(i) != b.get(i)).unwrap();
            assert_eq!(changed.deterministic_labels()[first], label);
            assert_eq!(changed.deterministic_labels().len(), b.len(), "{label}");
        }
        // …while exactly four fields are excluded by design — the same
        // four discarded with `_` in the exhaustive destructuring inside
        // `deterministic_bits`: the wall-clock columns (`pricing_secs`,
        // `clearing_secs`, `calibration_secs`, thread- and load-
        // dependent) and `peak_memory_mib` (a property of whichever
        // engine's allocator schedule produced the outcome). Mutating
        // any of them must leave the bits unchanged.
        for mutate in [
            |o: &mut Outcome| o.pricing_secs += 1.0,
            |o: &mut Outcome| o.clearing_secs += 1.0,
            |o: &mut Outcome| o.calibration_secs += 1.0,
            |o: &mut Outcome| o.peak_memory_mib = None,
        ] {
            let mut timed = base.clone();
            mutate(&mut timed);
            assert_eq!(base.deterministic_bits(), timed.deterministic_bits());
        }
    }

    /// The decoder beside the encoder: every deterministic field comes
    /// back, the excluded ones restart at zero, and the cursor stops at
    /// the encoding's end.
    #[test]
    fn deterministic_bits_round_trip() {
        let base = outcome();
        let mut words = base.deterministic_bits();
        words.push(0xE0F);
        let r = &mut StateWords::new(&words);
        let decoded = Outcome::from_deterministic_bits(r).unwrap();
        assert_eq!(r.remaining(), 1, "stops where the encoding ends");
        let untimed = Outcome {
            pricing_secs: 0.0,
            clearing_secs: 0.0,
            calibration_secs: 0.0,
            peak_memory_mib: None,
            ..base.clone()
        };
        assert_eq!(decoded, untimed);
        assert_eq!(decoded.deterministic_bits(), base.deterministic_bits());
        // Hostile words are typed errors: a name word that is no byte, a
        // period count beyond the words present, a histogram whose total
        // disagrees with its buckets, a truncated stream.
        let bits = base.deterministic_bits();
        let periods_at = 1 + base.strategy.len() + 4;
        for (at, word) in [(1, 0x100), (periods_at, u64::MAX), (bits.len() - 1, 7)] {
            let mut bad = bits.clone();
            bad[at] = word;
            assert!(Outcome::from_deterministic_bits(&mut StateWords::new(&bad)).is_err());
        }
        let short = &bits[..bits.len() - 1];
        assert!(Outcome::from_deterministic_bits(&mut StateWords::new(short)).is_err());
    }

    #[test]
    fn running_moments_match_two_pass_reference() {
        let xs: Vec<f64> = (0..1000).map(|i| 2.0 + (i % 7) as f64 * 0.25).collect();
        let mut m = RunningMoments::new();
        for &x in &xs {
            m.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert_eq!(m.count(), 1000);
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.population_std() - var.sqrt()).abs() < 1e-12);
    }

    /// The satellite's regression shape: a high-mean/low-spread stream
    /// where `E[x²] − E[x]²` cancels catastrophically. The naive
    /// formula loses every significant digit of the variance (here it
    /// collapses to a clamped 0); Welford keeps it to full precision.
    #[test]
    fn welford_survives_catastrophic_cancellation() {
        let base = 1.0e8;
        let jitter = [0.0, 0.01, -0.01, 0.02, -0.02, 0.0, 0.01, -0.01];
        let mut m = RunningMoments::new();
        let (mut sum, mut sq_sum) = (0.0f64, 0.0f64);
        for &j in jitter.iter().cycle().take(4096) {
            let x = base + j;
            m.push(x);
            sum += x;
            sq_sum += x * x;
        }
        let n = 4096.0;
        let naive_std = (sq_sum / n - (sum / n) * (sum / n)).max(0.0).sqrt();
        let true_std = (jitter.iter().map(|j| j * j).sum::<f64>() / jitter.len() as f64).sqrt();
        // The naive estimate is off by orders of magnitude (or exactly
        // zero after the clamp)…
        assert!(
            (naive_std - true_std).abs() > 0.5 * true_std,
            "naive {naive_std} unexpectedly close to {true_std}"
        );
        // …while Welford recovers the true spread to ~6 digits.
        assert!(
            (m.population_std() - true_std).abs() < 1e-6 * true_std,
            "welford {} vs true {true_std}",
            m.population_std()
        );
        assert!((m.mean() - base).abs() < 1e-6);
    }

    #[test]
    fn empty_moments_are_zero() {
        let m = RunningMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.population_std(), 0.0);
    }
}
