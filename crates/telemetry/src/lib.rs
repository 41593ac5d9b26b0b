//! # maps-telemetry
//!
//! Deterministic, allocation-free latency telemetry for the MAPS
//! pipeline: fixed-bucket **log2 histograms** whose state is a pure
//! function of the admitted event stream — never of wall-clock time,
//! thread count or producer interleaving.
//!
//! Production latency telemetry is usually wall-clock based and
//! therefore excluded from replay contracts (like `pricing_secs` in
//! `maps_simulator::Outcome`). The histograms here instead measure
//! latency in **event-time ticks**: positions in the canonical replay
//! order (`[workers…, tasks…, PeriodTick]` per period). That makes the
//! counters bit-identical between the batch simulator, the online
//! service at any thread count, and every ingestion interleaving
//! — so they *can* ride inside `Outcome::deterministic_bits` and get
//! the same replay/recovery oracle coverage as revenue itself.
//!
//! Recording is O(1) per observation (one `leading_zeros` and one
//! array increment), merging is O(buckets), and quantile estimation is
//! integer-only, so the same inputs yield the same p50/p99/p999 on any
//! host.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

/// Number of buckets: bucket `b` counts values with exactly `b`
/// significant bits (`b = 0` holds only the value `0`; `b = 64` holds
/// `[2^63, u64::MAX]`).
pub const BUCKETS: usize = 65;

/// A fixed-size base-2 exponential histogram over `u64` observations.
///
/// Bucket `b` counts observations whose value has exactly `b`
/// significant bits, i.e. lies in `[2^(b-1), 2^b - 1]` (bucket 0 is the
/// exact value `0`). Relative value error of a bucket's upper bound is
/// < 2×, which is the usual precision for latency distributions while
/// keeping `record` branch-free and the state POD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    /// Bucket index for `value`: its significant-bit count.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one observation. O(1), no allocation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Records `n` identical observations at once.
    #[inline]
    fn record_n(&mut self, value: u64, n: u64) {
        self.counts[Self::bucket_of(value)] += n;
        self.total += n;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Raw per-bucket counts.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Folds `other` into `self` bucket-wise. Merging histograms in
    /// any order yields the same state (addition is
    /// commutative on `u64` counts).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Inclusive upper bound of bucket `b` (`0` for bucket 0,
    /// `2^b − 1` otherwise) — the histogram's representative value for
    /// observations in that bucket.
    fn bucket_upper_bound(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// The bucket upper bound at quantile `numerator/denominator`,
    /// computed with integer arithmetic only: the value `v` such that
    /// at least `ceil(total · num / den)` observations are `≤ v`'s
    /// bucket. Returns `0` for an empty histogram.
    ///
    /// Integer-only on purpose: a float quantile rank could round
    /// differently across hosts; this cannot.
    fn quantile_upper_bound(&self, numerator: u64, denominator: u64) -> u64 {
        assert!(denominator > 0, "quantile denominator must be positive");
        assert!(numerator <= denominator, "quantile above 1.0");
        if self.total == 0 {
            return 0;
        }
        // ceil(total * num / den) without overflow for realistic totals:
        // total ≤ 2^63 / den is ample for event counters.
        let rank = self.total.saturating_mul(numerator).div_ceil(denominator);
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(b);
            }
        }
        Self::bucket_upper_bound(BUCKETS - 1)
    }

    /// Median upper bound (p50).
    pub fn p50(&self) -> u64 {
        self.quantile_upper_bound(1, 2)
    }

    /// 99th percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile_upper_bound(99, 100)
    }

    /// 99.9th percentile upper bound.
    pub fn p999(&self) -> u64 {
        self.quantile_upper_bound(999, 1000)
    }

    /// Appends the exact histogram state as `u64` words (bucket counts,
    /// then the total) — the encoding used both by
    /// `Outcome::deterministic_bits` and by service checkpoints.
    pub fn extend_words(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.counts);
        out.push(self.total);
    }

    /// Number of words [`Log2Histogram::extend_words`] appends.
    pub const WORDS: usize = BUCKETS + 1;

    /// Rebuilds a histogram from [`Log2Histogram::extend_words`]
    /// output. Returns `None` if the slice is too short or internally
    /// inconsistent (total ≠ sum of buckets).
    pub fn from_words(words: &[u64]) -> Option<Log2Histogram> {
        if words.len() < Self::WORDS {
            return None;
        }
        let mut counts = [0u64; BUCKETS];
        counts.copy_from_slice(&words[..BUCKETS]);
        let total = words[BUCKETS];
        if counts.iter().copied().fold(0u64, u64::wrapping_add) != total {
            return None;
        }
        Some(Log2Histogram { counts, total })
    }
}

/// The latency telemetry block carried by a simulation/service
/// `Outcome`: three log2 histograms, all measured in **event-time**
/// (positions in the canonical replay order), never wall-clock.
///
/// All three are pure functions of per-period quantities that every
/// engine — batch scan, batch incremental, the service's tick at any
/// thread count, and every ingestion interleaving — computes
/// identically under the existing replay contract, which is what
/// licenses their inclusion in `deterministic_bits`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyTelemetry {
    /// Admission→priced latency per task, in event-time ticks: the
    /// `j`-th task (0-based, canonical order) of a window that issued
    /// `R` tasks sits `R − j` stream events before the tick that prices
    /// it. Live interleavings may deliver events in another order; the
    /// histogram is defined over the canonical order so it stays
    /// interleaving-invariant.
    pub task_wait: Log2Histogram,
    /// Tasks queued at each tick (`R` per period) — the pricing queue
    /// depth the tick reducer drains.
    pub queue_depth: Log2Histogram,
    /// Live workers at each pricing instant (per period, after churn).
    pub worker_pool: Log2Histogram,
}

impl LatencyTelemetry {
    /// An empty block.
    pub const fn new() -> Self {
        Self {
            task_wait: Log2Histogram::new(),
            queue_depth: Log2Histogram::new(),
            worker_pool: Log2Histogram::new(),
        }
    }

    /// Records one settled period: `issued` tasks priced at this tick
    /// over a pool of `live_workers`. This is the single recording
    /// primitive shared by the batch loop and the service reducer, so
    /// the op sequence — and the resulting bits — agree by
    /// construction.
    pub fn record_period(&mut self, issued: u64, live_workers: u64) {
        // task j of 0..R waits R − j events; the multiset {1..=R} is
        // bucketed in O(buckets) rather than O(R): values sharing a
        // significant-bit count form contiguous runs.
        let mut lo = 1u64;
        while lo <= issued {
            let b = Log2Histogram::bucket_of(lo);
            let hi = Log2Histogram::bucket_upper_bound(b).min(issued);
            self.task_wait.record_n(hi, hi - lo + 1);
            if hi == u64::MAX {
                break;
            }
            lo = hi + 1;
        }
        self.queue_depth.record(issued);
        self.worker_pool.record(live_workers);
    }

    /// Folds another block into this one (e.g. merging recovered-run
    /// segments). Order-independent.
    pub fn merge(&mut self, other: &LatencyTelemetry) {
        self.task_wait.merge(&other.task_wait);
        self.queue_depth.merge(&other.queue_depth);
        self.worker_pool.merge(&other.worker_pool);
    }

    /// Appends the exact state as `u64` words (three histograms in
    /// field order).
    pub fn extend_words(&self, out: &mut Vec<u64>) {
        self.task_wait.extend_words(out);
        self.queue_depth.extend_words(out);
        self.worker_pool.extend_words(out);
    }

    /// Number of words [`LatencyTelemetry::extend_words`] appends.
    pub const WORDS: usize = 3 * Log2Histogram::WORDS;

    /// Rebuilds a block from exactly the [`LatencyTelemetry::WORDS`]
    /// words [`LatencyTelemetry::extend_words`] appended.
    pub fn from_words(words: &[u64]) -> Option<LatencyTelemetry> {
        if words.len() != Self::WORDS {
            return None;
        }
        let w = Log2Histogram::WORDS;
        Some(LatencyTelemetry {
            task_wait: Log2Histogram::from_words(&words[..w])?,
            queue_depth: Log2Histogram::from_words(&words[w..2 * w])?,
            worker_pool: Log2Histogram::from_words(&words[2 * w..3 * w])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Log2Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Log2Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Log2Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = Log2Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        // p50 rank is 500; buckets 0..=9 hold 0 + 1 + 2 + … + 256 = 512
        // observations, so the median lands in bucket 9 (values
        // 256..=511), upper bound 511.
        assert_eq!(h.p50(), 511);
        assert_eq!(h.p99(), 1023);
        assert_eq!(h.quantile_upper_bound(1, 1000), 0);
        let empty = Log2Histogram::new();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p999(), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in [1u64, 5, 5, 100, 0] {
            a.record(v);
        }
        for v in [7u64, 7, 2, 1 << 40] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 9);
    }

    #[test]
    fn words_roundtrip() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 3, 3, 9, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let mut words = Vec::new();
        h.extend_words(&mut words);
        assert_eq!(words.len(), Log2Histogram::WORDS);
        assert_eq!(Log2Histogram::from_words(&words), Some(h));
        // Corrupted total is rejected.
        let mut bad = words.clone();
        bad[BUCKETS] += 1;
        assert_eq!(Log2Histogram::from_words(&bad), None);
        assert_eq!(Log2Histogram::from_words(&words[..10]), None);
    }

    #[test]
    fn record_period_matches_naive_loop() {
        for issued in [0u64, 1, 2, 3, 7, 8, 100, 1000] {
            let mut fast = LatencyTelemetry::new();
            fast.record_period(issued, 42);
            let mut naive = Log2Histogram::new();
            for j in 0..issued {
                naive.record(issued - j);
            }
            assert_eq!(
                fast.task_wait, naive,
                "run-compressed task_wait differs at R={issued}"
            );
            assert_eq!(fast.queue_depth.count(), 1);
            assert_eq!(fast.worker_pool.count(), 1);
        }
    }

    #[test]
    fn telemetry_words_roundtrip() {
        let mut t = LatencyTelemetry::new();
        t.record_period(17, 300);
        t.record_period(0, 299);
        t.record_period(900, 512);
        let mut words = Vec::new();
        t.extend_words(&mut words);
        assert_eq!(words.len(), LatencyTelemetry::WORDS);
        assert_eq!(LatencyTelemetry::from_words(&words), Some(t));
    }

    #[test]
    fn telemetry_merge_order_independent() {
        let mut a = LatencyTelemetry::new();
        a.record_period(10, 100);
        let mut b = LatencyTelemetry::new();
        b.record_period(20, 90);
        b.record_period(0, 90);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }
}
