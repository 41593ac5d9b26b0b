//! Runs the MAPS ablation panel (`maps_experiments::panels::ablation`).

use maps_experiments::cli::{run_figure, CliArgs};
use maps_simulator::alloc::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn main() {
    let args = CliArgs::parse("ablation");
    run_figure("ablation", &args);
}
