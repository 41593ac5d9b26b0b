//! # maps-service
//!
//! The **grid-sharded online pricing service**: the event-driven
//! deployment shape of the MAPS pipeline. Where `maps-simulator` runs an
//! offline batch over a prebuilt [`maps_simulator::GroundTruth`], this
//! crate ingests a *stream* of [`ServiceEvent`]s — worker arrivals and
//! departures, task requests, period ticks — and serves posted prices
//! continuously, the setting the paper actually describes (requesters
//! and workers arrive online; the platform posts one price per grid per
//! period, Sec. 4.2).
//!
//! ## Architecture
//!
//! ```text
//!            WorkerArrive / WorkerDepart / TaskRequest      PeriodTick
//!                              │                                │
//!                    ┌─────────▼──────────┐                    │
//!                    │ deterministic cell │                    │
//!                    │ router: cell % n   │                    │
//!                    └┬────────┬─────────┬┘                    │
//!                ┌────▼──┐ ┌───▼───┐ ┌───▼───┐                 │
//!                │shard 0│ │shard 1│ │shard n│  ◄──────────────┘
//!                │ cache │ │ cache │ │ cache │   parallel: apply churn,
//!                └───┬───┘ └───┬───┘ └───┬───┘   per-task k-NN candidates
//!                    └────────┬┴─────────┘
//!                     ┌───────▼────────┐   reduce in shard-id order:
//!                     │  tick reducer  │   merge live ids + candidates by
//!                     │ price · clear  │   the total (distance, id) order,
//!                     │ · lifecycle    │   then price, match, observe
//!                     └────────────────┘
//! ```
//!
//! Each shard owns the grid cells with `cell.index() % shards` equal to
//! its index (round-robin: a hotspot's cells spread across shards) and
//! carries its own [`maps_core::PeriodGraphCache`] (spatial index + graph
//! arena) over the workers currently located in its cells. Between
//! ticks, events only *stage* state — arrivals in the shared
//! [`maps_simulator::LifecycleTable`]'s window, where a departure in
//! the same window cancels them; departures of earlier arrivals in the
//! shard holding the worker. A [`ServiceEvent::PeriodTick`] routes the
//! window's surviving arrivals by cell,
//! fans the staged churn out across shards (rayon), then reduces the
//! per-shard results in shard-id order into the global period view the
//! pricing strategy and the market clearing see.
//!
//! ## The shard-count-invariance contract
//!
//! Replaying any `GroundTruth` through the service ([`replay()`]) yields
//! an [`maps_simulator::Outcome`] **bit-identical** to
//! [`maps_simulator::Simulation::run`] — at *any* shard count and any
//! rayon thread count (enforced across 1/2/4/8 shards × 1/2/3/8
//! threads by the `replay_oracle` test and the root proptest churn
//! stream). Three properties carry the proof:
//!
//! 1. **Routing is pure**: cell → shard is `cell.index() % shards`, a
//!    function of nothing but the event itself.
//! 2. **Cross-shard matching merges under a total order**: a task's
//!    candidate workers are each shard's `k` nearest by
//!    `(distance, id)`; that order is independent of bucket layout, so
//!    re-sorting the union and truncating to `k` equals the one-index
//!    query, and the CSR graph builder canonicalizes edge insertion
//!    order. Worker ids are global admission order, making the merged
//!    live list identical to the batch simulator's.
//! 3. **The reducer is sequential and ordered**: per-tick shard results
//!    are collected in shard-id order; pricing, acceptance (Welford
//!    price moments), clearing and lifecycle are the batch loop's own
//!    code — [`maps_simulator::PeriodStep::run`] over one
//!    [`maps_simulator::LifecycleTable`] — on the merged view.

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
    EventRejection, ServiceConfig, ServiceError, ServiceEvent, ShardPanic, ShardedService,
    StampError,
};
pub use ingest::{
    AbandonedLane, IngestConfig, IngestService, IngressProducer, SendError, SequencerHandle,
    SequencerPanic,
};
pub use journal::{
    read_journal, JournalConfig, JournalError, JournalRecord, JournalWriter, Tail, TICK_PRODUCER,
};
pub use recovery::{recover, recover_with_strategy, ProducerAck, Recovered, RecoveryError};
pub use replay::{
    replay, replay_ingested, replay_journaled, replay_recovered, replay_service,
    replay_with_options,
};

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
