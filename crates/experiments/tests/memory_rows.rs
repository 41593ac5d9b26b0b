//! A serial row's `memory_mib` is its cell's own peak heap: the reading
//! must not move with what the process holds beside the run — the rows
//! of earlier cells and panels, the row buffer, the job grid. This file
//! holds one test because the tracking allocator it installs counts
//! every thread of the test binary.

use maps_experiments::{paper_strategies, run_panel, PanelSpec, Row, RunOptions, Scale};
use maps_simulator::alloc::TrackingAllocator;
use maps_simulator::SyntheticConfig;
use std::sync::Arc;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// A two-x panel small enough to run twice in a debug build.
fn tiny_panel() -> PanelSpec {
    PanelSpec {
        figure: "test",
        panel: "tiny",
        x_name: "|W|",
        paper_ref: "memory regression",
        xs: vec![20.0, 35.0],
        build: Arc::new(|x, _scale, seed| {
            SyntheticConfig::paper_default()
                .with_num_workers(x as usize)
                .with_num_tasks(90)
                .with_periods(5)
                .with_grid_side(3)
                .build(seed)
        }),
        strategies: paper_strategies(),
    }
}

/// The panel run serially twice — the second time beside the first
/// run's rows and an 8 MiB ballast — reads the same `memory_mib` bits
/// on every row.
#[test]
fn a_row_reads_the_same_memory_wherever_it_runs() {
    let spec = tiny_panel();
    let options = RunOptions {
        scale: Scale::Quick,
        num_seeds: 2,
        parallel: false,
        track_memory: true,
        ..RunOptions::default()
    };
    let memory = |rows: &[Row]| -> Vec<Option<u64>> {
        (rows.iter())
            .map(|row| row.memory_mib.map(f64::to_bits))
            .collect()
    };
    let first = run_panel(&spec, options);
    assert!(first.iter().all(|row| row.memory_mib.is_some()));
    let ballast = vec![1u8; 8 << 20];
    let second = run_panel(&spec, options);
    std::hint::black_box(&ballast);
    assert_eq!(memory(&first), memory(&second));
}
