//! # np-bench — the experiment harness
//!
//! One report binary per table/figure of the paper (run with
//! `cargo run -p np-bench --release --bin report_<id>`), and `report_all`
//! to regenerate everything EXPERIMENTS.md records. Shared setup lives
//! here so every report measures the same configuration. The [`harness`]
//! module is the `np bench` matrix harness, the workspace's only timing
//! harness: config-driven cells, the `np-bench/1` schema, baseline
//! diffing and trend history.

use np_core::evsel::ParameterSweep;
use np_core::runner::{MeasurementPlan, Runner};
use np_simulator::{MachineConfig, MachineSim};
use np_workloads::parallel_sort::ParallelSortKernel;

/// The evaluation machine (Table I), as every experiment uses it.
pub fn dl580() -> MachineConfig {
    MachineConfig::dl580_gen9()
}

/// A simulator on the evaluation machine.
pub fn dl580_sim() -> MachineSim {
    MachineSim::new(dl580())
}

/// The thread counts swept for Fig. 9.
pub const FIG9_THREADS: [usize; 8] = [1, 2, 3, 4, 6, 8, 12, 16];

/// Builds the measured Fig. 9 sweep.
pub fn fig9_sweep(elements: usize, repetitions: usize) -> ParameterSweep {
    let runner = Runner::new(dl580());
    let plan = MeasurementPlan::all_events(repetitions, 7);
    let mut sweep = ParameterSweep::new("threads");
    for &threads in FIG9_THREADS.iter() {
        let w = ParallelSortKernel::new(elements, threads);
        let runs = runner.measure(&w, &plan).expect("sweep point");
        sweep.push(threads as f64, runs);
    }
    sweep
}

/// Formats a paper-vs-measured row for EXPERIMENTS.md-style output.
pub fn paper_vs_measured(label: &str, paper: &str, measured: &str, verdict: &str) -> String {
    format!("{label:<42} paper: {paper:<22} measured: {measured:<22} [{verdict}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_setup_is_consistent() {
        assert_eq!(dl580().topology.nodes, 4);
        assert_eq!(FIG9_THREADS[0], 1);
    }

    #[test]
    fn row_formatting() {
        let row = paper_vs_measured("L1 misses", "+1000 %", "+17000 %", "shape holds");
        assert!(row.contains("paper"));
        assert!(row.contains("shape holds"));
    }
}

pub mod harness;
pub mod reports;
