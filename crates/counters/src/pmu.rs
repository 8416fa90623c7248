//! The PMU register model: scarce counters force an acquisition strategy.
//!
//! "Since only a limited number of registers is available for measuring,
//! program runs are repeated to circumvent this limitation" (§IV-A-1).
//! [`PmuModel::batches`] is the planner for exactly that: fixed-function
//! counters come for free in every run, the programmable events are chunked
//! into register-sized batches.

use crate::catalog::EventId;
use np_simulator::HwEvent;

/// Register layout of one simulated core PMU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmuModel {
    /// Events with fixed-function counters, measurable in every run at no
    /// register cost (Intel: cycles, instructions, ref-cycles).
    pub fixed: Vec<EventId>,
    /// Number of programmable counter registers per core.
    pub programmable_slots: usize,
}

impl Default for PmuModel {
    fn default() -> Self {
        PmuModel {
            fixed: vec![HwEvent::Cycles, HwEvent::Instructions],
            programmable_slots: 4,
        }
    }
}

impl PmuModel {
    /// Splits `events` into measurement batches: each batch fits the
    /// programmable registers; fixed events are excluded (they are always
    /// measured). Duplicate requests are collapsed. The number of batches
    /// is the number of *repeated identically-configured runs* EvSel needs
    /// per repetition on real hardware; the simulator reads every batch
    /// off one run, so this is the logical cost only.
    pub fn batches(&self, events: &[EventId]) -> Vec<Vec<EventId>> {
        let mut seen = std::collections::HashSet::new();
        let programmable: Vec<EventId> = events
            .iter()
            .copied()
            .filter(|e| !self.fixed.contains(e))
            .filter(|e| seen.insert(*e))
            .collect();
        programmable
            .chunks(self.programmable_slots.max(1))
            .map(|c| c.to_vec())
            .collect()
    }

    /// True when one run suffices for all of `events`.
    pub fn fits_one_run(&self, events: &[EventId]) -> bool {
        self.batches(events).len() <= 1
    }

    /// Number of runs needed to cover `events` once.
    pub fn runs_needed(&self, events: &[EventId]) -> usize {
        self.batches(events).len().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_events_cost_no_slots() {
        let pmu = PmuModel::default();
        let b = pmu.batches(&[HwEvent::Cycles, HwEvent::Instructions]);
        assert!(b.is_empty());
        assert!(pmu.fits_one_run(&[HwEvent::Cycles, HwEvent::Instructions]));
        assert_eq!(pmu.runs_needed(&[HwEvent::Cycles]), 1);
    }

    #[test]
    fn events_chunked_by_slot_count() {
        let pmu = PmuModel::default();
        let events = [
            HwEvent::L1dMiss,
            HwEvent::L2Miss,
            HwEvent::L3Miss,
            HwEvent::BranchMiss,
            HwEvent::DtlbMiss,
            HwEvent::FillBufferReject,
        ];
        let b = pmu.batches(&events);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].len(), 4);
        assert_eq!(b[1].len(), 2);
    }

    #[test]
    fn duplicates_collapsed() {
        let pmu = PmuModel::default();
        let b = pmu.batches(&[HwEvent::L1dMiss, HwEvent::L1dMiss, HwEvent::L2Miss]);
        assert_eq!(b, vec![vec![HwEvent::L1dMiss, HwEvent::L2Miss]]);
    }

    #[test]
    fn full_catalog_needs_many_runs() {
        let pmu = PmuModel::default();
        let all: Vec<EventId> = HwEvent::ALL.to_vec();
        let runs = pmu.runs_needed(&all);
        // 33 programmable events (35 minus 2 fixed) at 4 per run.
        assert_eq!(runs, (HwEvent::COUNT - 2).div_ceil(4));
        assert!(!pmu.fits_one_run(&all));
    }

    #[test]
    fn degenerate_slot_count_is_safe() {
        let pmu = PmuModel {
            fixed: vec![],
            programmable_slots: 0,
        };
        let b = pmu.batches(&[HwEvent::L1dMiss, HwEvent::L2Miss]);
        assert_eq!(b.len(), 2); // one event per run at minimum
    }
}
