//! Probes that time one layer in isolation, on inputs taken from the
//! run itself — the spatial index kernels on the reference loop's live
//! sets, the journal codec and writer on a durable pass's own records —
//! and the probe of the host that the timed run scales its times by.

use crate::reference::ProbeSample;
use maps_service::journal::encode_record;
use maps_service::{read_journal, JournalWriter, TICK_PRODUCER};
use maps_spatial::{DynamicBucketIndex, Point, Rect};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Round trips per reading of [`wake_round_trip_us`].
const WAKE_ROUND_TRIPS: u64 = 200;

/// One reading of the host's thread wake latency: the mean time of a
/// park/unpark round trip between this thread and a helper, in
/// microseconds. It calls nothing of the program. A tick spawns and
/// joins threads for every parallel call, so what the host charges for
/// a wake-up is what moves a pass from one minute to the next (see the
/// README, *Why the floor, and why the wake factor*).
pub fn wake_round_trip_us() -> f64 {
    // `turn` counts half trips: odd = the helper's move, even = ours.
    let turn = AtomicU64::new(0);
    let main = std::thread::current();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            for trip in 0..WAKE_ROUND_TRIPS {
                // Release/Acquire pairs on `turn` order the hand-overs;
                // a spurious unpark just re-checks.
                while turn.load(Ordering::Acquire) != 2 * trip + 1 {
                    std::thread::park();
                }
                turn.store(2 * trip + 2, Ordering::Release);
                main.unpark();
            }
        });
        for trip in 0..WAKE_ROUND_TRIPS {
            turn.store(2 * trip + 1, Ordering::Release);
            helper.thread().unpark();
            while turn.load(Ordering::Acquire) != 2 * trip + 2 {
                std::thread::park();
            }
        }
    });
    start.elapsed().as_nanos() as f64 / 1e3 / WAKE_ROUND_TRIPS as f64
}

/// Per-item costs of the spatial index kernels, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    pub insert_ns_per_point: f64,
    pub remove_ns_per_point: f64,
    pub knn_ns_per_query: f64,
}

/// Times `insert_bulk` of each sampled live set into a fresh index
/// sized like the reference loop's, one `k_nearest_within_into` per
/// sampled task, and `remove_bulk` of a seeded tenth of the set.
pub fn kernel_costs(
    samples: &[ProbeSample],
    region: Rect,
    expected_workers: usize,
    k: usize,
    seed: u64,
) -> KernelCosts {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let (mut insert_ns, mut inserted) = (0u64, 0u64);
    let (mut remove_ns, mut removed) = (0u64, 0u64);
    let (mut knn_ns, mut queries) = (0u64, 0u64);
    let mut near = Vec::new();
    for sample in samples {
        let items: Vec<(Point, u32)> = sample
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| (w.location, i as u32))
            .collect();
        let max_radius = sample.workers.iter().map(|w| w.radius).fold(0.0, f64::max);
        let mut index = DynamicBucketIndex::with_expected_len(region, expected_workers);

        let start = Instant::now();
        index.insert_bulk(&items);
        insert_ns += start.elapsed().as_nanos() as u64;
        inserted += items.len() as u64;

        let start = Instant::now();
        for task in &sample.tasks {
            index.k_nearest_within_into(
                task.origin,
                max_radius,
                k,
                |dist, id| dist <= sample.workers[id as usize].radius,
                &mut near,
            );
            black_box(&near);
        }
        knn_ns += start.elapsed().as_nanos() as u64;
        queries += sample.tasks.len() as u64;

        let victims: Vec<(Point, u32)> = items
            .iter()
            .copied()
            .filter(|_| rng.gen_range(0..10u32) == 0)
            .collect();
        let start = Instant::now();
        let found = index.remove_bulk(&victims);
        remove_ns += start.elapsed().as_nanos() as u64;
        assert_eq!(found, victims.len(), "probe removed a point it inserted");
        removed += found as u64;
    }
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    KernelCosts {
        insert_ns_per_point: per(insert_ns, inserted),
        remove_ns_per_point: per(remove_ns, removed),
        knn_ns_per_query: per(knn_ns, queries),
    }
}

/// Costs of the journal codec and writer alone, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct JournalCosts {
    pub decode_ns_per_record: f64,
    pub encode_ns_per_record: f64,
    /// `append` per record + `sync` per epoch, whole journal.
    pub append_sync_ns: u64,
}

/// Replays the journal a durable pass left in `dir` through
/// `read_journal`, `encode_record` and a fresh `JournalWriter` (in the
/// same directory, so on the same filesystem).
pub fn journal_costs(dir: &Path) -> Result<JournalCosts, String> {
    let path = dir.join(maps_service::journal::JOURNAL_FILE);
    let start = Instant::now();
    let contents = read_journal(&path).map_err(|e| e.to_string())?;
    let decode_ns = start.elapsed().as_nanos() as u64;
    let records = contents.records;

    let mut frame = Vec::new();
    let start = Instant::now();
    for record in &records {
        frame.clear();
        encode_record(record, &mut frame);
        black_box(&frame);
    }
    let encode_ns = start.elapsed().as_nanos() as u64;

    let mut writer =
        JournalWriter::create(&dir.join("probe_journal.bin")).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for record in &records {
        writer.append(record).map_err(|e| e.to_string())?;
        if record.producer == TICK_PRODUCER {
            writer.sync().map_err(|e| e.to_string())?;
        }
    }
    let append_sync_ns = start.elapsed().as_nanos() as u64;

    let n = records.len().max(1) as f64;
    Ok(JournalCosts {
        decode_ns_per_record: decode_ns as f64 / n,
        encode_ns_per_record: encode_ns as f64 / n,
        append_sync_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_probe_completes_and_reads_a_positive_time() {
        let us = wake_round_trip_us();
        assert!(us > 0.0 && us.is_finite());
    }
}
