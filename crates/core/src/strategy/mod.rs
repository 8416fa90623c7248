//! The two-step performance assessment strategy (§III).
//!
//! "In contrast to classic single-step (code-to-cost) performance models,
//! we propose a two-step performance deduction strategy consisting of a
//! code-to-indicator and an indicator-to-cost analysis" (Fig. 4).
//!
//! * Step 1, **code-to-indicator** ([`extrapolate`]): "programmers would
//!   start by measuring small yet typical workloads. Based on these
//!   measurements, programmers could extrapolate performance indicators by
//!   continuously increasing the workload sizes."
//! * Step 2, **indicator-to-cost** ([`costmodel`]): a least-squares linear
//!   map from indicator vectors to cost (cycles), "less complex compared
//!   to the first step since hardware performance indicators relate to
//!   costs much more directly".
//!
//! Composed, the two steps support the *transfer* use (Fig. 4b's
//! "transfer" arrow): indicators extrapolated from machine A feed the cost
//! model fitted on machine B, predicting B's cost for a workload size that
//! was never run on B.

pub mod costmodel;
pub mod extrapolate;

pub use costmodel::CostModel;
pub use extrapolate::IndicatorExtrapolator;

use np_counters::catalog::EventId;
use np_counters::measurement::RunSet;
use std::collections::BTreeMap;

/// A vector of indicator values (event means).
pub type IndicatorVector = BTreeMap<EventId, f64>;

/// Extracts the indicator vector (per-event means) from a run set.
pub fn indicators_of(runs: &RunSet) -> IndicatorVector {
    runs.events()
        .into_iter()
        .filter_map(|e| runs.mean(e).map(|m| (e, m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_counters::measurement::Measurement;
    use np_simulator::HwEvent;

    #[test]
    fn indicators_are_event_means() {
        let mut rs = RunSet::new("x");
        for (i, v) in [10.0, 20.0].iter().enumerate() {
            let mut m = Measurement::new(i as u64);
            m.values.insert(HwEvent::L1dMiss, *v);
            rs.runs.push(m);
        }
        let ind = indicators_of(&rs);
        assert_eq!(ind[&HwEvent::L1dMiss], 15.0);
    }
}
