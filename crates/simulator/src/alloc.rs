//! Tracking global allocator for the Memory(MB) experiment panels.
//!
//! The paper reports each strategy's memory cost (Figs. 6–8 bottom rows).
//! We measure peak heap usage with a thin wrapper around the system
//! allocator that maintains current/peak byte counters. The experiment
//! binaries install it via:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: maps_simulator::alloc::TrackingAllocator = TrackingAllocator::new();
//! ```
//!
//! and measure each run with [`TrackingAllocator::run_peak_mib`], which
//! reports the run's high-water mark above what was live before its
//! world was built — so a reading does not depend on what the process
//! holds beside the run (earlier rows, buffers, a job grid). The
//! counters are lock-free atomics; the overhead is a few nanoseconds per
//! allocation, irrelevant next to the allocation itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{self, Ordering};

#[expect(
    clippy::disallowed_types,
    reason = "ordering: Relaxed at every access — a standalone diagnostic counter; its RMWs are atomic regardless of ordering and no other memory is published through it"
)]
static CURRENT: atomic::AtomicUsize = atomic::AtomicUsize::new(0);
#[expect(
    clippy::disallowed_types,
    reason = "ordering: Relaxed at every access — a racy-max high-water mark; only the counter's value matters, never its order relative to other memory"
)]
static PEAK: atomic::AtomicUsize = atomic::AtomicUsize::new(0);

/// A byte-counting wrapper around the system allocator.
#[derive(Debug, Default)]
pub struct TrackingAllocator;

impl TrackingAllocator {
    /// Creates the allocator (const so it can be a `static`).
    pub const fn new() -> Self {
        Self
    }

    /// Currently outstanding heap bytes.
    pub fn current_bytes() -> usize {
        // ordering: standalone diagnostic counter; no other memory is
        // published through it.
        CURRENT.load(Ordering::Relaxed)
    }

    /// High-water mark since the last [`Self::reset_peak`].
    pub fn peak_bytes() -> usize {
        // ordering: standalone diagnostic counter, as above.
        PEAK.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current level (call between experiments).
    pub fn reset_peak() {
        // ordering: called between experiments on a quiesced process;
        // the counters are diagnostics, not synchronization.
        PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Runs `run` on the world `build` returns, and reads the heap's
    /// high-water mark during `run`, in MiB above the bytes live before
    /// `build`: the world counts, `build`'s transient allocations and
    /// everything the process held before do not. Meaningful only with
    /// this allocator installed and nothing else allocating meanwhile.
    pub fn run_peak_mib<W, T>(build: impl FnOnce() -> W, run: impl FnOnce(W) -> T) -> (T, f64) {
        let baseline = Self::current_bytes();
        let world = build();
        Self::reset_peak();
        let out = run(world);
        let peak = Self::peak_bytes().saturating_sub(baseline);
        (out, peak as f64 / (1024.0 * 1024.0))
    }
}

fn add(size: usize) {
    // ordering: the RMW is atomic regardless of ordering; the counter
    // guards no other memory, so Relaxed costs nothing in correctness.
    let cur = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // Racy max update is fine: the peak is a diagnostic, not a ledger.
    // ordering: racy-max protocol; only the counter value itself
    // matters, never its ordering relative to other memory.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while cur > peak {
        // ordering: as above — the CAS only has to be atomic on PEAK.
        match PEAK.compare_exchange_weak(peak, cur, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

fn sub(size: usize) {
    // ordering: atomic RMW on a standalone diagnostic counter.
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: defers all allocation to `System`, only adjusting counters.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller upholds the `GlobalAlloc::alloc` contract
        // (non-zero-sized `layout`); we forward it to `System` unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            add(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller guarantees `ptr` came from this allocator with
        // this `layout`; `System` sees exactly the pair it handed out.
        unsafe { System.dealloc(ptr, layout) };
        sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as `alloc`, forwarded to `System`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            add(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: caller guarantees `ptr`/`layout` match a live allocation
        // and `new_size` is non-zero; forwarded to `System` unchanged.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            sub(layout.size());
            add(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is not installed as #[global_allocator] in unit
    // tests (that would affect the whole test binary); we exercise the
    // counter arithmetic directly through the GlobalAlloc interface.
    // The counters are global statics, so everything lives in ONE test to
    // avoid cross-test interference under the parallel test runner.
    #[test]
    fn counters_track_alloc_dealloc_and_peak() {
        let a = TrackingAllocator::new();
        TrackingAllocator::reset_peak();
        let before = TrackingAllocator::current_bytes();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: valid non-zero layout; realloc/dealloc receive the
        // pointer and layout of the preceding live allocation.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(TrackingAllocator::current_bytes(), before + 4096);
            assert!(TrackingAllocator::peak_bytes() >= before + 4096);
            let p2 = a.realloc(p, layout, 8192);
            assert!(!p2.is_null());
            assert_eq!(TrackingAllocator::current_bytes(), before + 8192);
            let layout2 = Layout::from_size_align(8192, 8).unwrap();
            a.dealloc(p2, layout2);
        }
        assert_eq!(TrackingAllocator::current_bytes(), before);

        // Peak high-water mark + reset semantics.
        let big = Layout::from_size_align(1 << 20, 8).unwrap();
        // SAFETY: valid non-zero layout; dealloc gets the same pair.
        unsafe {
            let p = a.alloc(big);
            a.dealloc(p, big);
        }
        assert!(TrackingAllocator::peak_bytes() >= 1 << 20);
        TrackingAllocator::reset_peak();
        assert_eq!(
            TrackingAllocator::peak_bytes(),
            TrackingAllocator::current_bytes()
        );
        assert!(TrackingAllocator::peak_bytes() < 1 << 20);
    }
}
