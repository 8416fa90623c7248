//! PEBS-style precise load-latency sampling.
//!
//! §IV-B documents the hardware constraints Memhist works around, all of
//! which are modelled here:
//!
//! * "only a single PEBS event can be measured at a time" — a
//!   [`PebsCollector`] carries exactly one threshold;
//! * "the load latency events denote all the loads that surpass a threshold
//!   value" — the counter is an *exceedance* count, not an interval count;
//! * "time cycling has to be performed to cover a wider range of latencies"
//!   — [`CyclingPebs`] rotates thresholds on a timeslice schedule (Memhist
//!   uses 100 Hz / 10 ms slices) and scales each exceedance count by its
//!   active fraction, which is precisely why "negative event occurrences
//!   might be observed" after subtraction;
//! * "Intel does not guarantee measurements of under three cycles to be
//!   correct" — sampled latencies below [`RELIABLE_FLOOR`] are flagged.

use np_simulator::{Counters, LoadSample, SimObserver};

/// Minimum latency (cycles) with guaranteed measurement accuracy.
pub const RELIABLE_FLOOR: u64 = 3;

/// One PEBS event: counts loads with latency ≥ `threshold` and records
/// every `period`-th qualifying load as a sample.
#[derive(Debug, Clone)]
pub struct PebsCollector {
    /// Qualification threshold in cycles.
    pub threshold: u64,
    /// Sampling period (1 = record every qualifying load).
    pub period: u32,
    countdown: u32,
    /// Number of qualifying loads (the raw PMU count).
    pub exceed_count: u64,
    /// Recorded samples (capped to avoid unbounded memory).
    pub samples: Vec<LoadSample>,
    max_samples: usize,
}

impl PebsCollector {
    /// Creates a collector for one threshold.
    pub fn new(threshold: u64, period: u32) -> Self {
        PebsCollector {
            threshold,
            period: period.max(1),
            countdown: period.max(1),
            exceed_count: 0,
            samples: Vec::new(),
            max_samples: 1 << 20,
        }
    }

    /// Feeds one load.
    #[inline]
    pub fn observe(&mut self, s: &LoadSample) {
        if s.latency >= self.threshold {
            self.exceed_count += 1;
            self.countdown -= 1;
            if self.countdown == 0 {
                self.countdown = self.period;
                if self.samples.len() < self.max_samples {
                    self.samples.push(*s);
                }
            }
        }
    }

    /// Fraction of recorded samples below the reliability floor.
    pub fn unreliable_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .filter(|s| s.latency < RELIABLE_FLOOR)
            .count() as f64
            / self.samples.len() as f64
    }
}

impl SimObserver for PebsCollector {
    fn on_load_sample(&mut self, s: &LoadSample) {
        self.observe(s);
    }
}

/// Threshold cycling: one PEBS event at a time, rotated across timeslices.
///
/// After a run, [`CyclingPebs::estimated_exceed_counts`] scales each
/// threshold's observed exceedances by its active fraction — the
/// measurements Memhist subtracts pairwise to build interval bins.
#[derive(Debug, Clone)]
pub struct CyclingPebs {
    /// The programmed thresholds, ascending.
    pub thresholds: Vec<u64>,
    /// Timeslices spent on each threshold before rotating.
    pub slices_per_step: u32,
    current: usize,
    slice_in_step: u32,
    /// Exceedances observed while each threshold was active.
    observed: Vec<u64>,
    /// Slices each threshold was active.
    active_slices: Vec<u64>,
    total_slices: u64,
}

impl CyclingPebs {
    /// Creates a cycler over ascending `thresholds`.
    pub fn new(thresholds: Vec<u64>, slices_per_step: u32) -> Self {
        assert!(!thresholds.is_empty());
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must ascend"
        );
        let n = thresholds.len();
        CyclingPebs {
            thresholds,
            slices_per_step: slices_per_step.max(1),
            current: 0,
            slice_in_step: 0,
            observed: vec![0; n],
            active_slices: vec![0; n],
            total_slices: 0,
        }
    }

    /// Scaled exceedance estimate per threshold:
    /// `observed × total_slices / active_slices`.
    ///
    /// These are *estimates of the full-run exceedance count*; independent
    /// scaling errors between adjacent thresholds are what produce negative
    /// interval counts after subtraction.
    pub fn estimated_exceed_counts(&self) -> Vec<i64> {
        self.observed
            .iter()
            .zip(&self.active_slices)
            .map(|(&obs, &act)| {
                if act == 0 {
                    0
                } else {
                    (obs as f64 * self.total_slices as f64 / act as f64).round() as i64
                }
            })
            .collect()
    }

    /// Slices each threshold was active (diagnostic).
    pub fn coverage(&self) -> &[u64] {
        &self.active_slices
    }

    /// Total timeslices seen.
    pub fn total_slices(&self) -> u64 {
        self.total_slices
    }
}

impl SimObserver for CyclingPebs {
    fn on_load_sample(&mut self, s: &LoadSample) {
        if s.latency >= self.thresholds[self.current] {
            self.observed[self.current] += 1;
        }
    }

    fn on_timeslice(&mut self, _now: u64, _counters: &Counters, _footprint: u64) {
        self.active_slices[self.current] += 1;
        self.total_slices += 1;
        self.slice_in_step += 1;
        if self.slice_in_step >= self.slices_per_step {
            self.slice_in_step = 0;
            self.current = (self.current + 1) % self.thresholds.len();
            np_telemetry::counter!("acq.pebs.threshold_cycles").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::ServedBy;

    fn sample(latency: u64, time: u64) -> LoadSample {
        LoadSample {
            core: 0,
            addr: 0x1000,
            latency,
            served: ServedBy::L1,
            time,
        }
    }

    #[test]
    fn collector_counts_exceedances() {
        let mut c = PebsCollector::new(100, 1);
        for lat in [50, 150, 100, 99, 230] {
            c.observe(&sample(lat, 0));
        }
        assert_eq!(c.exceed_count, 3);
        assert_eq!(c.samples.len(), 3);
    }

    #[test]
    fn period_downsamples_records_not_counts() {
        let mut c = PebsCollector::new(0, 4);
        for i in 0..100 {
            c.observe(&sample(10, i));
        }
        assert_eq!(c.exceed_count, 100);
        assert_eq!(c.samples.len(), 25);
    }

    #[test]
    fn unreliable_fraction_flags_sub_floor() {
        let mut c = PebsCollector::new(0, 1);
        c.observe(&sample(1, 0));
        c.observe(&sample(2, 1));
        c.observe(&sample(10, 2));
        c.observe(&sample(300, 3));
        assert!((c.unreliable_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cycling_rotates_thresholds() {
        let mut cy = CyclingPebs::new(vec![4, 64, 256], 2);
        let counters = Counters::new(1);
        // 12 slices: each threshold active 4.
        for i in 0..12 {
            cy.on_timeslice(i, &counters, 0);
        }
        assert_eq!(cy.coverage(), &[4, 4, 4]);
        assert_eq!(cy.total_slices(), 12);
    }

    #[test]
    fn estimates_scale_by_active_fraction() {
        let mut cy = CyclingPebs::new(vec![4, 64], 1);
        let counters = Counters::new(1);
        // Uniform stream: 10 loads at latency 100 per slice, 4 slices.
        for slice in 0..4u64 {
            for _ in 0..10 {
                cy.on_load_sample(&sample(100, slice));
            }
            cy.on_timeslice(slice, &counters, 0);
        }
        // Each threshold active 2/4 slices, observed 20 each → estimate 40.
        let est = cy.estimated_exceed_counts();
        assert_eq!(est, vec![40, 40]);
    }

    #[test]
    fn bursty_stream_misestimates() {
        let mut cy = CyclingPebs::new(vec![4, 64], 1);
        let counters = Counters::new(1);
        // All 100 high-latency loads land in slice 0 (threshold 4 active).
        for _ in 0..100 {
            cy.on_load_sample(&sample(100, 0));
        }
        cy.on_timeslice(0, &counters, 0);
        cy.on_timeslice(1, &counters, 0);
        let est = cy.estimated_exceed_counts();
        // Threshold 4 saw everything (scaled 100×2/1 = 200), threshold 64
        // saw nothing: subtraction would yield a wildly wrong split — and
        // with opposite burst placement it goes negative.
        assert_eq!(est[0], 200);
        assert_eq!(est[1], 0);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn thresholds_must_ascend() {
        CyclingPebs::new(vec![64, 4], 1);
    }
}
