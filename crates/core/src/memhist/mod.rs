//! Memhist — latency analysis (§IV-B).
//!
//! "Memhist was developed to better characterize NUMA workloads by
//! summarizing latency penalties of memory load operations in a
//! histogram." The measurement mechanics follow the paper exactly:
//!
//! * only one PEBS load-latency event at a time → thresholds are
//!   **time-cycled** (the paper cycles at 100 Hz, i.e. 10 ms slices);
//! * each threshold counts loads *at or above* it; interval counts are the
//!   **difference of two threshold measurements** and may come out
//!   negative under jitter — "an error that cannot be avoided";
//! * "Intel does not guarantee measurements of under three cycles to be
//!   correct" → sub-3-cycle bins are flagged uncertain (grey in Fig. 10);
//! * two display modes: event occurrences (Fig. 10a) and event costs —
//!   occurrences × latency (Fig. 10b);
//! * a [`probe`] submodule provides the remote TCP probe of Fig. 6.

pub mod probe;

use np_counters::pebs::CyclingPebs;
use np_simulator::{MachineSim, Program};
pub use np_stats::histogram::HistogramMode;
use np_stats::histogram::LatencyHistogram;

/// Memhist configuration.
#[derive(Debug, Clone)]
pub struct MemhistConfig {
    /// The threshold ladder, ascending. The default spans L1 to multi-hop
    /// remote DRAM.
    pub thresholds: Vec<u64>,
    /// Timeslices spent per threshold before rotating. With the
    /// simulator's default 10 µs slices, 1 slice ≈ the paper's 100 Hz
    /// scaled to simulated time.
    pub slices_per_step: u32,
}

impl Default for MemhistConfig {
    fn default() -> Self {
        MemhistConfig {
            thresholds: vec![
                1, 4, 8, 16, 32, 48, 64, 96, 128, 192, 256, 320, 420, 560, 760,
            ],
            slices_per_step: 1,
        }
    }
}

/// A measured latency histogram with its acquisition diagnostics.
#[derive(Debug, Clone)]
pub struct MemhistResult {
    /// The assembled histogram.
    pub histogram: LatencyHistogram,
    /// Slices each threshold was active (coverage diagnostic).
    pub coverage: Vec<u64>,
    /// Total timeslices observed.
    pub total_slices: u64,
    /// True when part of the threshold ladder was lost in acquisition
    /// (e.g. a remote fetch dropped chunks past its retry budget) and the
    /// histogram is assembled from the surviving thresholds only.
    pub degraded: bool,
    /// The `[lo, hi)` ladder intervals lost to degradation, in ascending
    /// order; empty for a complete measurement.
    pub missing_intervals: Vec<(u64, u64)>,
}

impl MemhistResult {
    /// A complete (non-degraded) result.
    pub fn complete(histogram: LatencyHistogram, coverage: Vec<u64>, total_slices: u64) -> Self {
        MemhistResult {
            histogram,
            coverage,
            total_slices,
            degraded: false,
            missing_intervals: Vec::new(),
        }
    }

    /// Bins whose subtraction went negative.
    pub fn negative_bins(&self) -> usize {
        self.histogram.negative_bins()
    }

    /// Renders the histogram in the requested mode (Fig. 10 as ASCII).
    pub fn render(&self, mode: HistogramMode) -> String {
        // Truncate dominant cache bars like the paper truncates L2
        // ("L2 results truncated to approximately half their height").
        let max = self
            .histogram
            .bins
            .iter()
            .map(|b| match mode {
                HistogramMode::Occurrences => b.count.max(0),
                HistogramMode::Costs => b.cost_cycles,
            })
            .max()
            .unwrap_or(0);
        let second = self
            .histogram
            .bins
            .iter()
            .map(|b| match mode {
                HistogramMode::Occurrences => b.count.max(0),
                HistogramMode::Costs => b.cost_cycles,
            })
            .filter(|&v| v < max)
            .max()
            .unwrap_or(max);
        let cap = if max > 4 * second && second > 0 {
            Some(2 * second)
        } else {
            None
        };
        let mut out = self.histogram.render_ascii(mode, 48, cap);
        if self.degraded {
            let lost: Vec<String> = self
                .missing_intervals
                .iter()
                .map(|&(lo, hi)| {
                    if hi == u64::MAX {
                        format!("[{lo}, inf)")
                    } else {
                        format!("[{lo}, {hi})")
                    }
                })
                .collect();
            out.push_str(&format!(
                "\nDEGRADED: {} interval(s) lost in acquisition: {}\n",
                lost.len(),
                lost.join(", ")
            ));
        }
        out
    }
}

/// The Memhist tool.
///
/// ```
/// use np_core::memhist::{HistogramMode, Memhist};
/// use np_simulator::{MachineConfig, MachineSim};
/// use np_workloads::mlc::LatencyChecker;
/// use np_workloads::Workload;
///
/// let sim = MachineSim::new(MachineConfig::two_socket_small());
/// let chase = LatencyChecker::new(0, 0, 4 << 20, 1000).build(sim.config());
///
/// let result = Memhist::with_defaults().measure(&sim, &chase, 1);
/// // The DRAM chase produces a peak in the local-memory latency realm.
/// let peaks = result.histogram.peaks(HistogramMode::Occurrences);
/// assert!(peaks.iter().any(|&i| result.histogram.bins[i].lo >= 128));
/// ```
pub struct Memhist {
    config: MemhistConfig,
}

impl Memhist {
    /// Creates the tool with `config`.
    pub fn new(config: MemhistConfig) -> Self {
        assert!(!config.thresholds.is_empty());
        Memhist { config }
    }

    /// Creates the tool with the default threshold ladder.
    pub fn with_defaults() -> Self {
        Self::new(MemhistConfig::default())
    }

    /// Measures `program` on `sim`: runs once with threshold cycling and
    /// assembles the histogram by pairwise subtraction of the scaled
    /// exceedance estimates.
    pub fn measure(&self, sim: &MachineSim, program: &Program, seed: u64) -> MemhistResult {
        let mut pebs =
            CyclingPebs::new(self.config.thresholds.clone(), self.config.slices_per_step);
        // An invalid program contributes no samples; the histogram
        // assembles from zero counts.
        let _ = sim.run_observed(program, seed, &mut pebs);
        let counts = pebs.estimated_exceed_counts();
        let histogram = LatencyHistogram::from_threshold_counts(&self.config.thresholds, &counts)
            .expect("thresholds validated in constructor");
        MemhistResult::complete(histogram, pebs.coverage().to_vec(), pebs.total_slices())
    }

    /// Ground-truth histogram: observes *every* load in one run (no
    /// threshold cycling, no scaling). Used for verification and the
    /// cycling-error ablation (X2).
    pub fn measure_exact(&self, sim: &MachineSim, program: &Program, seed: u64) -> MemhistResult {
        struct AllLoads {
            thresholds: Vec<u64>,
            exceed: Vec<i64>,
        }
        impl np_simulator::SimObserver for AllLoads {
            fn on_load_sample(&mut self, s: &np_simulator::LoadSample) {
                for (i, &t) in self.thresholds.iter().enumerate() {
                    if s.latency >= t {
                        self.exceed[i] += 1;
                    }
                }
            }
        }
        let mut obs = AllLoads {
            thresholds: self.config.thresholds.clone(),
            exceed: vec![0; self.config.thresholds.len()],
        };
        // An invalid program contributes no samples; the histogram
        // assembles from zero counts.
        let _ = sim.run_observed(program, seed, &mut obs);
        let histogram =
            LatencyHistogram::from_threshold_counts(&self.config.thresholds, &obs.exceed)
                .expect("thresholds validated in constructor");
        MemhistResult::complete(histogram, vec![], 0)
    }

    /// Ladder measurement: the exceedance count of every threshold as a
    /// dedicated PEBS run per threshold would report it. Real hardware
    /// needs `thresholds.len()` identically-configured runs for that; the
    /// simulator is pure in `(program, seed)`, so every threshold is
    /// counted off the same load stream of one observed run, and the
    /// result is [`Memhist::measure_exact`].
    pub fn measure_ladder(&self, sim: &MachineSim, program: &Program, seed: u64) -> MemhistResult {
        self.measure_exact(sim, program, seed)
    }

    /// [`Memhist::measure_ladder`]; `_pool` is unused, since one run leaves
    /// nothing to fan out.
    pub fn measure_ladder_pool(
        &self,
        sim: &MachineSim,
        program: &Program,
        seed: u64,
        _pool: &np_parallel::Pool,
    ) -> MemhistResult {
        self.measure_ladder(sim, program, seed)
    }

    /// Measures with full visibility into *which level served each load*
    /// and annotates every bin with its dominant source — the "annotated
    /// peaks" of Fig. 10 (`L2`, `L3`, `local memory`, `remote memory`),
    /// produced from the simulator's ground truth rather than guessed from
    /// positions.
    pub fn measure_annotated(
        &self,
        sim: &MachineSim,
        program: &Program,
        seed: u64,
    ) -> AnnotatedHistogram {
        use np_simulator::{LoadSample, ServedBy, SimObserver};
        struct PerLevel {
            thresholds: Vec<u64>,
            exceed: Vec<i64>,
            // Per bin, counts per level: [L1, L2, L3, local, remote, hitm].
            levels: Vec<[u64; 6]>,
        }
        impl PerLevel {
            fn bin_of(&self, latency: u64) -> Option<usize> {
                if latency < self.thresholds[0] {
                    return None;
                }
                Some(self.thresholds.partition_point(|&t| t <= latency) - 1)
            }
        }
        impl SimObserver for PerLevel {
            fn on_load_sample(&mut self, s: &LoadSample) {
                for (i, &t) in self.thresholds.iter().enumerate() {
                    if s.latency >= t {
                        self.exceed[i] += 1;
                    }
                }
                if let Some(bin) = self.bin_of(s.latency) {
                    let lvl = match s.served {
                        ServedBy::L1 => 0,
                        ServedBy::L2 => 1,
                        ServedBy::L3 => 2,
                        ServedBy::LocalDram => 3,
                        ServedBy::RemoteDram { .. } => 4,
                        ServedBy::Hitm { .. } => 5,
                    };
                    self.levels[bin][lvl] += 1;
                }
            }
        }
        let mut obs = PerLevel {
            thresholds: self.config.thresholds.clone(),
            exceed: vec![0; self.config.thresholds.len()],
            levels: vec![[0; 6]; self.config.thresholds.len()],
        };
        // An invalid program contributes no samples; the histogram
        // assembles from zero counts.
        let _ = sim.run_observed(program, seed, &mut obs);
        let histogram =
            LatencyHistogram::from_threshold_counts(&self.config.thresholds, &obs.exceed)
                .expect("thresholds validated in constructor");
        AnnotatedHistogram {
            histogram,
            levels: obs.levels,
        }
    }

    /// Verifies measured peak positions against an `mlc`-style latency
    /// matrix (§V-B: "The annotated peaks were verified using the Intel
    /// Memory Latency Checker"): returns the measured peak bins that
    /// contain at least one ground-truth latency, and the ground-truth
    /// latencies not covered by any peak.
    pub fn verify_peaks(
        &self,
        result: &MemhistResult,
        mode: HistogramMode,
        ground_truth_latencies: &[f64],
    ) -> PeakVerification {
        let peaks = result.histogram.peaks(mode);
        let mut matched = Vec::new();
        let mut unmatched = Vec::new();
        for &lat in ground_truth_latencies {
            let hit = peaks.iter().any(|&i| {
                let b = &result.histogram.bins[i];
                // Tolerate one-bin smearing: the queueing component of the
                // use latency pushes samples into the neighbouring bin.
                let lo = if i > 0 {
                    result.histogram.bins[i - 1].lo
                } else {
                    b.lo
                };
                let hi = if i + 1 < result.histogram.bins.len() {
                    result.histogram.bins[i + 1].hi
                } else {
                    b.hi
                };
                (lat as u64) >= lo && ((lat as u64) < hi || hi == u64::MAX)
            });
            if hit {
                matched.push(lat);
            } else {
                unmatched.push(lat);
            }
        }
        PeakVerification {
            peak_bins: peaks,
            matched,
            unmatched,
        }
    }
}

/// A histogram whose bins carry serving-level annotations.
#[derive(Debug, Clone)]
pub struct AnnotatedHistogram {
    /// The assembled histogram (exact counts, no cycling error).
    pub histogram: LatencyHistogram,
    /// Per-bin counts by level: `[L1, L2, L3, local DRAM, remote DRAM,
    /// cache-to-cache]`.
    pub levels: Vec<[u64; 6]>,
}

impl AnnotatedHistogram {
    const LABELS: [&'static str; 6] = [
        "L1",
        "L2",
        "L3",
        "local memory",
        "remote memory",
        "cache-to-cache",
    ];

    /// The dominant serving level of a bin, if it holds any samples.
    pub fn dominant_level(&self, bin: usize) -> Option<&'static str> {
        let lv = self.levels.get(bin)?;
        let (idx, &max) = lv.iter().enumerate().max_by_key(|&(_, &v)| v)?;
        if max == 0 {
            None
        } else {
            Some(Self::LABELS[idx])
        }
    }

    /// Renders the histogram with Fig. 10-style peak annotations.
    pub fn render(&self, mode: HistogramMode, width: usize) -> String {
        let base = self.histogram.render_ascii(mode, width, None);
        base.lines()
            .enumerate()
            .map(|(i, line)| match self.dominant_level(i) {
                Some(label) => format!("{line}   <- {label}\n"),
                None => format!("{line}\n"),
            })
            .collect()
    }
}

/// Result of verifying Memhist peaks against `mlc` ground truth.
#[derive(Debug, Clone)]
pub struct PeakVerification {
    /// Indices of the histogram's peak bins.
    pub peak_bins: Vec<usize>,
    /// Ground-truth latencies covered by a peak (± one bin).
    pub matched: Vec<f64>,
    /// Ground-truth latencies no peak covers.
    pub unmatched: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::{MachineConfig, MachineSim};
    use np_workloads::mlc::LatencyChecker;
    use np_workloads::Workload;

    fn quiet() -> MachineSim {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 0;
        cfg.noise.dram_jitter = 0.0;
        cfg.timeslice_cycles = 5_000;
        MachineSim::new(cfg)
    }

    #[test]
    fn local_chase_peaks_near_local_dram() {
        let sim = quiet();
        let w = LatencyChecker::new(0, 0, 8 << 20, 3000);
        let p = w.build(sim.config());
        let m = Memhist::with_defaults();
        let r = m.measure(&sim, &p, 1);
        let peaks = r.histogram.peaks(HistogramMode::Occurrences);
        assert!(!peaks.is_empty());
        // The dominant peak bin must contain ~265 cycles (DRAM + walk).
        let dominant = *peaks
            .iter()
            .max_by_key(|&&i| r.histogram.bins[i].count)
            .unwrap();
        let b = &r.histogram.bins[dominant];
        assert!(
            b.lo <= 265 && 265 < b.hi,
            "dominant peak [{}, {})",
            b.lo,
            b.hi
        );
    }

    #[test]
    fn remote_injection_adds_high_latency_mass() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        let local = m.measure(
            &sim,
            &LatencyChecker::new(0, 0, 8 << 20, 2000).build(sim.config()),
            1,
        );
        let remote = m.measure(
            &sim,
            &LatencyChecker::remote_injector(8 << 20, 2000).build(sim.config()),
            1,
        );
        let mass_above = |r: &MemhistResult, cy: u64| -> i64 {
            r.histogram
                .bins
                .iter()
                .filter(|b| b.lo >= cy)
                .map(|b| b.count.max(0))
                .sum()
        };
        // Remote ~375: far more mass above 320 in the remote measurement.
        assert!(
            mass_above(&remote, 320) > 10 * mass_above(&local, 320).max(1),
            "remote {} vs local {}",
            mass_above(&remote, 320),
            mass_above(&local, 320)
        );
    }

    #[test]
    fn cost_mode_amplifies_expensive_bins() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        // A mixed workload: a hot line (L1 hits) plus a DRAM pointer chase.
        let mut b = np_simulator::ProgramBuilder::new(&sim.config().topology, 4096);
        let hot = b.alloc(4096, np_simulator::AllocPolicy::Bind(0));
        let cold = b.alloc(8 << 20, np_simulator::AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for i in 0..2000u64 {
            b.load(t, hot);
            b.load_dependent(t, cold + (i * 769 % 2048) * 4096);
        }
        let r = m.measure_exact(&sim, &b.build(), 1);
        let h = &r.histogram;
        // Find the cheapest and the most expensive populated bins.
        let cheap = h
            .bins
            .iter()
            .find(|b| b.count > 0 && b.lo < 16)
            .expect("cache bin");
        let costly = h
            .bins
            .iter()
            .rev()
            .find(|b| b.count > 0 && b.lo >= 128)
            .expect("dram bin");
        // Costs re-weight towards the expensive bin.
        let occ_ratio = costly.count as f64 / cheap.count as f64;
        let cost_ratio = costly.cost_cycles as f64 / cheap.cost_cycles.max(1) as f64;
        assert!(
            cost_ratio > occ_ratio,
            "cost must amplify: {occ_ratio} -> {cost_ratio}"
        );
    }

    #[test]
    fn exact_measurement_conserves_samples() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        let w = LatencyChecker::new(0, 0, 2 << 20, 500);
        let r = m.measure_exact(&sim, &w.build(sim.config()), 1);
        assert_eq!(r.negative_bins(), 0, "exact mode cannot go negative");
        // Total = loads at/above the lowest threshold (1 cycle = all).
        assert_eq!(r.histogram.total_count(), 500);
    }

    #[test]
    fn cycling_approximates_exact_for_steady_workloads() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        let p = LatencyChecker::new(0, 0, 8 << 20, 4000).build(sim.config());
        let cycled = m.measure(&sim, &p, 1);
        let exact = m.measure_exact(&sim, &p, 1);
        let t_cycled = cycled.histogram.total_count() as f64;
        let t_exact = exact.histogram.total_count() as f64;
        assert!(
            (t_cycled - t_exact).abs() / t_exact < 0.35,
            "cycled {t_cycled} vs exact {t_exact}"
        );
        assert!(
            cycled.coverage.iter().all(|&c| c > 0),
            "all thresholds visited"
        );
    }

    #[test]
    fn ladder_is_bit_identical_to_exact() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        let p = LatencyChecker::new(0, 0, 4 << 20, 1200).build(sim.config());
        let exact = m.measure_exact(&sim, &p, 3);
        let ladder = m.measure_ladder(&sim, &p, 3);
        assert_eq!(exact.histogram.bins.len(), ladder.histogram.bins.len());
        for (a, b) in exact.histogram.bins.iter().zip(&ladder.histogram.bins) {
            assert_eq!(a.count, b.count, "bin [{}, {})", a.lo, a.hi);
            assert_eq!(a.cost_cycles, b.cost_cycles);
        }
    }

    #[test]
    fn pooled_ladder_matches_sequential_at_any_thread_count() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        let p = LatencyChecker::new(0, 0, 4 << 20, 1000).build(sim.config());
        let seq = m.measure_ladder(&sim, &p, 5);
        for threads in [1, 2, 8] {
            let pool = np_parallel::Pool::new(threads);
            let par = m.measure_ladder_pool(&sim, &p, 5, &pool);
            for (a, b) in seq.histogram.bins.iter().zip(&par.histogram.bins) {
                assert_eq!(a.count, b.count, "{threads} threads [{}, {})", a.lo, a.hi);
            }
        }
    }

    #[test]
    fn verify_peaks_against_ground_truth() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        let r = m.measure(
            &sim,
            &LatencyChecker::new(0, 0, 8 << 20, 3000).build(sim.config()),
            2,
        );
        let v = m.verify_peaks(&r, HistogramMode::Occurrences, &[265.0]);
        assert_eq!(v.matched, vec![265.0], "peaks {:?}", v.peak_bins);
        let miss = m.verify_peaks(&r, HistogramMode::Occurrences, &[5000.0]);
        assert_eq!(miss.unmatched, vec![5000.0]);
    }

    #[test]
    fn annotated_histogram_labels_the_levels() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        // Mixed workload: hot line (L1), pointer chase to local DRAM.
        let mut b = np_simulator::ProgramBuilder::new(&sim.config().topology, 4096);
        let hot = b.alloc(4096, np_simulator::AllocPolicy::Bind(0));
        let cold = b.alloc(8 << 20, np_simulator::AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for i in 0..1500u64 {
            b.load(t, hot);
            b.load_dependent(t, cold + (i * 769 % 2048) * 4096);
        }
        let a = m.measure_annotated(&sim, &b.build(), 1);
        // The low-latency bins are L1-dominated, the ~265-cycle bins are
        // local-memory-dominated.
        let l1_bin = a
            .histogram
            .bins
            .iter()
            .position(|bin| bin.lo <= 4 && 4 < bin.hi)
            .unwrap();
        assert_eq!(a.dominant_level(l1_bin), Some("L1"));
        let dram_bin = a
            .histogram
            .bins
            .iter()
            .position(|bin| bin.lo <= 265 && 265 < bin.hi)
            .unwrap();
        assert_eq!(a.dominant_level(dram_bin), Some("local memory"));
        // Rendering carries the arrows.
        let text = a.render(HistogramMode::Occurrences, 32);
        assert!(text.contains("<- L1"));
        assert!(text.contains("<- local memory"));
    }

    #[test]
    fn annotated_histogram_flags_remote_peak() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        let p = LatencyChecker::remote_injector(8 << 20, 1200).build(sim.config());
        let a = m.measure_annotated(&sim, &p, 2);
        let remote_bin = a
            .histogram
            .bins
            .iter()
            .position(|bin| bin.lo <= 375 && 375 < bin.hi)
            .unwrap();
        assert_eq!(a.dominant_level(remote_bin), Some("remote memory"));
    }

    #[test]
    fn uncertain_bins_flagged() {
        let m = Memhist::with_defaults();
        let sim = quiet();
        let r = m.measure_exact(
            &sim,
            &LatencyChecker::new(0, 0, 1 << 20, 100).build(sim.config()),
            1,
        );
        assert!(r.histogram.bins[0].uncertain); // the [1, 4) bin
        assert!(!r.histogram.bins[3].uncertain);
    }

    /// A jittery machine for the negative-interval tests: timer noise and
    /// DRAM jitter make threshold exceedance estimates non-monotonic, so
    /// the §IV-B subtraction goes negative — "an error that cannot be
    /// avoided".
    fn jittery() -> MachineSim {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 3_000;
        cfg.noise.dram_jitter = 0.25;
        cfg.timeslice_cycles = 5_000;
        MachineSim::new(cfg)
    }

    #[test]
    fn negative_subtraction_is_costless_and_marked() {
        // Hand-built exceedance counts where jitter made the 2-cycle
        // threshold count *lower* than the 4-cycle one: the [2, 4) bin
        // subtracts to -5.
        let thresholds = [1, 2, 4, 8];
        let counts = [100, 90, 95, 10];
        let h = LatencyHistogram::from_threshold_counts(&thresholds, &counts).unwrap();
        assert_eq!(h.bins[1].count, -5);
        // Negative bins carry no cost (occurrences × latency is
        // meaningless for a measurement artifact)...
        assert_eq!(h.bins[1].cost_cycles, 0);
        assert_eq!(h.negative_bins(), 1);
        // ...and are clamped out of the total rather than subtracting
        // real mass: 10 + 0 + 85 + 10.
        assert_eq!(h.total_count(), 105);
        // Sub-3-cycle bins are uncertain per the paper, independent of
        // sign; bins at or above 3 cycles are not.
        assert!(h.bins[0].uncertain && h.bins[1].uncertain);
        assert!(!h.bins[2].uncertain && !h.bins[3].uncertain);
        // Rendering: '!' marks the negative bin, whose bar clamps to zero
        // length; uncertain bins use the grey glyph.
        let r = MemhistResult::complete(h, vec![], 0);
        let text = r.render(HistogramMode::Occurrences);
        let neg_line = text.lines().nth(1).unwrap();
        assert!(
            neg_line.contains('!') && neg_line.contains("-5"),
            "{neg_line}"
        );
        assert!(
            !neg_line.contains('█') && !neg_line.contains('░'),
            "{neg_line}"
        );
        assert!(text.lines().next().unwrap().contains('░'), "{text}");
    }

    #[test]
    fn jittered_cycling_goes_negative_but_stays_renderable() {
        let sim = jittery();
        let m = Memhist::with_defaults();
        let p = LatencyChecker::new(0, 0, 8 << 20, 3000).build(sim.config());
        let r = m.measure(&sim, &p, 1);
        assert!(r.negative_bins() > 0, "jitter should produce negatives");
        for b in &r.histogram.bins {
            if b.count <= 0 {
                assert_eq!(b.cost_cycles, 0, "bin [{}, {})", b.lo, b.hi);
            }
            assert_eq!(b.uncertain, b.lo < 3);
        }
        // The rendering clamps rather than panics, and flags each
        // negative bin.
        let text = r.render(HistogramMode::Occurrences);
        assert_eq!(text.matches('!').count(), r.negative_bins(), "{text}");
    }

    #[test]
    fn negative_intervals_survive_a_delayed_probe_fetch() {
        use np_resilience::{Fault, RetryPolicy, ScriptedFaults, StreamDeadlines};
        use std::sync::Arc;
        use std::time::Duration;

        let config = MemhistConfig::default();
        let m = Memhist::new(config.clone());
        let p = LatencyChecker::new(0, 0, 8 << 20, 3000).build(jittery().config());
        let local = m.measure(&jittery(), &p, 1);
        assert!(local.negative_bins() > 0);

        // The same measurement through the probe, with the response
        // delayed (within the read deadline) by a scripted fault.
        let faults = Arc::new(
            ScriptedFaults::new().inject("probe.response", Fault::Delay(Duration::from_millis(50))),
        );
        let listener = probe::ProbeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = probe::ProbeServer::new(jittery(), p).with_faults(faults);
        let handle = std::thread::spawn(move || server.serve(&listener, 1));
        let policy = probe::FetchPolicy {
            retry: RetryPolicy::immediate(3),
            io: StreamDeadlines::symmetric(Duration::from_secs(2)),
            ..probe::FetchPolicy::default()
        };
        let remote = probe::RemoteMemhist::fetch_resilient(addr, &config, 1, &policy)
            .expect("delayed fetch succeeds");
        handle.join().unwrap().unwrap();

        // Determinism: the delayed transport must not change the data —
        // negative intervals, costs and uncertainty flags included.
        assert!(!remote.degraded);
        assert_eq!(remote.negative_bins(), local.negative_bins());
        for (rb, lb) in remote.histogram.bins.iter().zip(&local.histogram.bins) {
            assert_eq!(rb.count, lb.count, "bin [{}, {})", rb.lo, rb.hi);
            assert_eq!(rb.cost_cycles, lb.cost_cycles);
            assert_eq!(rb.uncertain, lb.uncertain);
        }
    }

    #[test]
    fn render_produces_labelled_bars() {
        let sim = quiet();
        let m = Memhist::with_defaults();
        let r = m.measure(
            &sim,
            &LatencyChecker::new(0, 0, 4 << 20, 1500).build(sim.config()),
            1,
        );
        let text = r.render(HistogramMode::Occurrences);
        assert!(text.lines().count() == m.config.thresholds.len());
        assert!(text.contains("inf"));
    }
}
