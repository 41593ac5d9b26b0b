//! # maps-service
//!
//! The **online pricing service**: the event-driven deployment shape of
//! the MAPS pipeline. Where `maps-simulator` runs an offline batch over
//! a prebuilt [`maps_simulator::GroundTruth`], this crate ingests a
//! *stream* of [`ServiceEvent`]s — worker arrivals and departures, task
//! requests, period ticks — and serves posted prices continuously, the
//! setting the paper actually describes (requesters and workers arrive
//! online; the platform posts one price per grid per period, Sec. 4.2).
//!
//! ## Architecture
//!
//! ```text
//!   WorkerArrive / WorkerDepart / TaskRequest            PeriodTick
//!                    │                                        │
//!      journal · validate · stage                             │
//!     ┌──────────────▼───────────────┐                        │
//!     │ WorkerLifecycle (batch engine)│ ◄──────────────────────┘
//!     │  admission window, schedule,  │  catch_unwind: fire, churn
//!     │  one PeriodGraphCache (index) │  apply, k-NN graph build
//!     └──────────────┬───────────────┘
//!            ┌───────▼────────┐   PeriodStep::run — the batch loop's
//!            │ price · clear  │   own period: price, accept, clear,
//!            │ · lifecycle    │   matched pairs' churn, observe
//!            └────────────────┘
//! ```
//!
//! The service *is* the batch engine: one
//! [`maps_simulator::WorkerLifecycle`] — the spatial index, the
//! admission window and the timed schedule the batch `Simulation`
//! runs — fed event by event, plus the write-ahead journal
//! ([`journal`], [`recovery`]). Between ticks, events only *stage*
//! state: arrivals in the lifecycle's admission window, where a
//! departure in the same window cancels them; departures of earlier
//! arrivals as staged churn; tasks in the pending list. A
//! [`ServiceEvent::PeriodTick`] fires the window and the period's
//! scheduled transitions, applies the staged churn and builds the k-NN
//! graph — under one `catch_unwind`, so a panic there poisons the
//! service with a typed [`TickPanic`] — then runs
//! [`maps_simulator::PeriodStep::run`], the batch loop's period. A tick
//! runs on the thread that delivers it and spawns none.
//!
//! ## The service is the batch engine
//!
//! Replaying any `GroundTruth` through the service
//! ([`replay_with_options`]) yields an [`maps_simulator::Outcome`]
//! **bit-identical** to
//! [`maps_simulator::Simulation::run`] (enforced by the seeded
//! explorer, `tests/explorer.rs`, after every epoch). The proof is that there is nothing to
//! prove twice: worker ids are the global admission order, the
//! lifecycle, the index and the period body are the batch loop's own
//! code, and the event stream admits a period's workers and tasks in
//! the order the batch loop reads them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod ingest;
pub mod journal;
pub mod recovery;
pub mod replay;

pub use engine::{
    ServiceConfig, ServiceError, ServiceEvent, ShardedService, StampError, TickPanic,
};
pub use ingest::{AbandonedLane, IngestConfig, IngestService, IngressProducer, SendError};
pub use journal::{
    read_journal, JournalConfig, JournalError, JournalRecord, JournalWriter, Tail, TICK_PRODUCER,
};
pub use maps_simulator::EventRejection;
pub use recovery::{recover, Recovered, RecoveryError};
pub use replay::{replay_service, replay_with_options};

/// A unique scratch directory under the system temp dir for journal and
/// checkpoint tests. Each call creates a fresh directory.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: std::sync::Mutex<u64> = std::sync::Mutex::new(0);
    let mut n = COUNTER.lock().expect("test_dir counter poisoned");
    *n += 1;
    let dir = std::env::temp_dir().join(format!("maps_service_{tag}_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
