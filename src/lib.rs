//! # numa-perf-tools
//!
//! A Rust reproduction of *"Assessing NUMA Performance Based on Hardware
//! Event Counters"* (Plauth, Sterz, Eberhardt, Feinbube, Polze — IPDPSW
//! 2017): the **EvSel**, **Memhist** and **Phasenprüfer** tools, the
//! two-step (code-to-indicator / indicator-to-cost) performance assessment
//! strategy, and every substrate they need — a deterministic NUMA machine
//! simulator, a perf-like hardware-event-counter layer, the paper's
//! micro-benchmark workloads, statistics, and computable classical cost
//! models.
//!
//! This crate is a façade: it re-exports the workspace crates under stable
//! module names so applications can depend on a single crate.
//!
//! ```
//! use numa_perf_tools::prelude::*;
//!
//! // Simulate the paper's test system (Table I) and measure one workload.
//! let machine = MachineConfig::dl580_gen9();
//! let workload = CacheMissKernel::row_major(64);
//! let runner = Runner::new(machine);
//! let run = runner.measure(&workload, &MeasurementPlan::all_events(3, 7)).unwrap();
//! assert!(run.mean(EventId::Instructions).unwrap() > 0.0);
//! ```

pub mod cli;

pub use np_core as core;
pub use np_counters as counters;
pub use np_models as models;
pub use np_simulator as simulator;
pub use np_stats as stats;
pub use np_workloads as workloads;

/// Commonly used items, re-exported for one-line imports.
pub mod prelude {
    pub use np_core::evsel::{ComparisonReport, EvSel, ParameterSweep};
    pub use np_core::memhist::{HistogramMode, Memhist, MemhistConfig, MemhistResult};
    pub use np_core::phasen::{PhaseDetector, Phasenpruefer};
    pub use np_core::runner::{MeasurementPlan, Runner};
    pub use np_core::strategy::{indicators_of, CostModel, IndicatorExtrapolator};
    pub use np_counters::catalog::{EventCatalog, EventId};
    pub use np_counters::measurement::{Measurement, RunSet};
    pub use np_simulator::config::MachineConfig;
    pub use np_simulator::topology::Topology;
    pub use np_simulator::{HwEvent, MachineSim};
    pub use np_workloads::cache_miss::CacheMissKernel;
    pub use np_workloads::mlc::LatencyChecker;
    pub use np_workloads::parallel_sort::ParallelSortKernel;
    pub use np_workloads::phases::PhaseTraceKernel;
    pub use np_workloads::sift::SiftKernel;
    pub use np_workloads::Workload;
}
