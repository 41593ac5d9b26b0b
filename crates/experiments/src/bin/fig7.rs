//! Regenerates the paper's Fig. 7 panels (`maps_experiments::panels`).

use maps_experiments::cli::{run_figure, CliArgs};
use maps_simulator::alloc::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn main() {
    let args = CliArgs::parse("fig7");
    run_figure("fig7", &args);
}
