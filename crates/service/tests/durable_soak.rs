//! Soak: what a journaled service pays for durability follows the
//! journal's tail and who is live, not the run's history.
//!
//! A stationary churn stream — 200 arrivals a period, each staying ten,
//! so about 2 000 live at any time, three tasks a period — through a
//! [`ShardedService`] with a journal at cadence 20 and the tracking
//! allocator installed. The service is crashed (dropped) and recovered
//! near period 45 and again near period 385, each time five epochs past
//! its newest checkpoint, with 68 000 more ids admitted and 4 MB more
//! journal written in between. The second recovery may cost what the
//! first did plus the per-id residue that is left and named; a
//! `recover` that reads the whole journal, or a checkpoint that spends
//! words on every id ever admitted, fails here within seconds.

use maps_core::StrategyKind;
use maps_service::journal::{checkpoint_path, list_checkpoints};
use maps_service::{recover, JournalConfig, ServiceConfig, ServiceEvent, ShardedService};
use maps_simulator::alloc::TrackingAllocator;
use maps_simulator::{GroundTask, GroundWorker, MatchPolicy};
use maps_spatial::{GridSpec, Point, Rect};
use maps_testkit::XorShift;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

const PER_PERIOD: u32 = 200;
/// Periods a worker stays: 10 × 200 ≈ 2 000 live.
const DURATION: u32 = 10;
const CADENCE: u32 = 20;
const CRASHES: [u32; 2] = [45, 385];

fn grid() -> GridSpec {
    GridSpec::square(Rect::square(100.0), 10)
}

fn point(rng: &mut XorShift) -> Point {
    Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0)
}

/// One period of the stream: its arrivals, its tasks, its tick.
fn push_period(service: &mut ShardedService, rng: &mut XorShift) {
    let grid = grid();
    for _ in 0..PER_PERIOD {
        let worker = GroundWorker {
            location: point(rng),
            radius: 2.0 + rng.next_f64() * 10.0,
            duration: DURATION,
        };
        service.push(ServiceEvent::WorkerArrive { worker });
    }
    for _ in 0..3 {
        let origin = point(rng);
        let task = GroundTask {
            origin,
            destination: point(rng),
            distance: 1.0 + rng.next_f64(),
            valuation: 1.0 + rng.next_f64() * 4.0,
            cell: grid.cell_of(origin),
        };
        service.push(ServiceEvent::TaskRequest { task });
    }
    service.push(ServiceEvent::PeriodTick);
}

/// What one crash + recover cost.
struct Recovery {
    /// Peak heap inside `recover` above the heap at its entry (the
    /// crashed service already dropped).
    peak: usize,
    checkpoint_bytes: u64,
    admitted: usize,
    live: usize,
}

#[test]
fn recovery_and_checkpoints_follow_the_tail_and_the_live_set() {
    let dir = std::env::temp_dir().join(format!("maps_durable_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = JournalConfig::new(&dir, CADENCE);
    let mut rng = XorShift(0xD07A_B1E5);
    let mut service = ShardedService::new(
        grid(),
        MatchPolicy::Consume,
        StrategyKind::BaseP,
        ServiceConfig::default(),
    );
    service.attach_journal(&journal).expect("attach");

    let mut recoveries = Vec::new();
    for crash_at in CRASHES {
        while service.periods_served() < crash_at {
            push_period(&mut service, &mut rng);
        }
        drop(service);
        let newest = *list_checkpoints(&dir).unwrap().last().unwrap();
        assert_eq!(u64::from(crash_at - crash_at % CADENCE), newest);
        let checkpoint_bytes = std::fs::metadata(checkpoint_path(&dir, newest))
            .unwrap()
            .len();

        let entry = TrackingAllocator::current_bytes();
        TrackingAllocator::reset_peak();
        let recovered = recover(
            grid(),
            MatchPolicy::Consume,
            StrategyKind::BaseP,
            ServiceConfig::default(),
            &journal,
        )
        .expect("recover");
        let peak = TrackingAllocator::peak_bytes() - entry;
        assert_eq!(recovered.epochs_replayed, crash_at % CADENCE);
        service = recovered.service;
        assert_eq!(service.periods_served(), crash_at);
        recoveries.push(Recovery {
            peak,
            checkpoint_bytes,
            admitted: service.admitted_workers(),
            live: service.live_workers(),
        });
    }
    let journal_bytes = std::fs::metadata(journal.journal_path()).unwrap().len();
    let _ = std::fs::remove_dir_all(&dir);

    let [first, second] = &recoveries[..] else {
        unreachable!("two crashes");
    };
    assert!((1_900..=2_000).contains(&first.live) && (1_900..=2_000).contains(&second.live));
    let between = second.admitted - first.admitted;
    assert_eq!(between, ((CRASHES[1] - CRASHES[0]) * PER_PERIOD) as usize);
    assert!(journal_bytes > 4_000_000, "the history is there to be read");

    // A checkpoint: per live worker four words of position, an expiry
    // and a scheduled `Expire` (≤ 64 B together); per id ever admitted
    // two status bits; and the run state (a revenue per period served).
    for Recovery {
        checkpoint_bytes,
        admitted,
        live,
        ..
    } in &recoveries
    {
        let bound = 64 * live + admitted / 4 + 4096;
        assert!(
            *checkpoint_bytes <= bound as u64,
            "checkpoint of {checkpoint_bytes} B for {live} live of {admitted} ids (bound {bound})"
        );
    }
    // The recovered service restores only the pages of records that a
    // live worker holds, and a page table of 8 B per 1 024 ids. What
    // grows with the ids is the status lane while the file and its
    // words are both in memory: half a byte an id, a quarter in each.
    // Nothing else may grow with the ids, and nothing with the journal:
    // the 340 epochs in between are 60 B of file and 88 B of decoded
    // record for every event.
    let bound = first.peak + between + 64 * 1024;
    assert!(
        second.peak <= bound,
        "recover peaked at {} B after {} ids, {} B after {} (bound {bound})",
        second.peak,
        second.admitted,
        first.peak,
        first.admitted
    );
}
