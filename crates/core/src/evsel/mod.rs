//! EvSel — selection through correlation (§IV-A).
//!
//! "The tool EvSel retrieves, measures, and presents all available
//! hardware counters to the user. In addition to identifying relevant
//! performance counters, EvSel helps developers to verify the
//! effectiveness of optimization techniques by comparing two versions or
//! parameter configurations of a program with respect to all performance
//! counter information. The tool varies specified input parameters in
//! order to determine functional dependencies between the input parameters
//! and each measured indicator."
//!
//! Two analyses, two submodules:
//! * [`compare`] — run-set comparison with Welch t-tests (Figs. 5, 8),
//! * [`regress`] — parameter sweeps with linear/quadratic/exponential
//!   regressions and R² (Fig. 9).

pub mod compare;
pub mod regress;

pub use compare::{ComparisonReport, ComparisonRow};
pub use regress::{CorrelationRow, ParameterSweep, SweepReport};

use np_counters::catalog::EventCatalog;
use np_counters::measurement::RunSet;

/// The EvSel tool: configuration shared by its analyses.
///
/// ```
/// use np_core::evsel::EvSel;
/// use np_core::runner::{MeasurementPlan, Runner};
/// use np_simulator::{HwEvent, MachineConfig};
/// use np_workloads::cache_miss::CacheMissKernel;
///
/// let runner = Runner::new(MachineConfig::two_socket_small());
/// let plan = MeasurementPlan::all_events(3, 1);
/// let a = runner.measure(&CacheMissKernel::row_major(128), &plan).unwrap();
/// let b = runner.measure(&CacheMissKernel::column_major(128), &plan).unwrap();
///
/// let report = EvSel::default().compare(&a, &b);
/// let l1 = report.row(HwEvent::L1dMiss).unwrap();
/// assert!(l1.relative_change > 1.0); // column-major misses far more
/// ```
pub struct EvSel {
    /// Event catalog (names and descriptions for the report).
    pub catalog: EventCatalog,
    /// Family-wise significance level (the paper reports findings at
    /// "over 99.9 %" ⇒ α = 0.001).
    pub alpha: f64,
    /// Apply Bonferroni correction across the tested events (§III-B-1's
    /// answer to the multiple-comparisons problem).
    pub bonferroni: bool,
}

impl Default for EvSel {
    fn default() -> Self {
        EvSel {
            catalog: EventCatalog::builtin(),
            alpha: 0.001,
            bonferroni: true,
        }
    }
}

impl EvSel {
    /// Compares two run sets event-by-event (the Fig. 5/8 view).
    pub fn compare(&self, a: &RunSet, b: &RunSet) -> ComparisonReport {
        compare::compare(self, a, b)
    }

    /// Correlates a swept input parameter with every event (the Fig. 9
    /// view).
    pub fn correlate(&self, sweep: &ParameterSweep) -> SweepReport {
        regress::correlate(self, sweep)
    }
}
