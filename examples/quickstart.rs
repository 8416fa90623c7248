//! Quickstart: simulate the paper's test system, measure a workload with
//! every hardware counter, and print the most interesting events.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use numa_perf_tools::prelude::*;

fn main() {
    // The machine of Table I: HPE ProLiant DL580 Gen9, 4 × Xeon E7-8890v3.
    let machine = MachineConfig::dl580_gen9();
    println!("Simulated test system");
    println!("=====================");
    for (k, v) in machine.table_i_rows() {
        println!("{k:<18} {v}");
    }
    println!();

    // Measure a small cache-friendly kernel with EvSel's acquisition
    // strategy: all counters, batched over repeated identical runs.
    let runner = Runner::new(machine);
    let workload = CacheMissKernel::row_major(256);
    let plan = MeasurementPlan::all_events(5, 42);
    println!(
        "Measuring {:?}: {} events, {} repetitions, {} runs on hardware, {} simulated",
        workload.name(),
        plan.events.len(),
        plan.repetitions,
        plan.total_runs(),
        plan.repetitions
    );
    let runs = runner.measure(&workload, &plan).expect("measurement");

    println!("\nKey indicators (mean over repetitions):");
    for event in [
        EventId::Cycles,
        EventId::Instructions,
        EventId::L1dHit,
        EventId::L1dMiss,
        EventId::L2Miss,
        EventId::L3Miss,
        EventId::L2PrefetchReq,
        EventId::FillBufferReject,
        EventId::DtlbMiss,
        EventId::LocalDramAccess,
        EventId::RemoteDramAccess,
    ] {
        let mean = runs.mean(event).unwrap_or(0.0);
        println!("  {:<28} {:>14.0}", event.name(), mean);
    }

    let zeroes = runs.all_zero_events();
    println!(
        "\n{} events stayed zero (EvSel greys these out), e.g. {:?}",
        zeroes.len(),
        zeroes.iter().take(3).map(|e| e.name()).collect::<Vec<_>>()
    );
}
