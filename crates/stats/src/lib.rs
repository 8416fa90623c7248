//! # np-stats — statistics for hardware-counter analysis
//!
//! Implements every statistical method the paper's tools rely on:
//!
//! * **Welch's t-test** with Bessel's correction (§IV-A-2): EvSel compares
//!   two sets of identically-configured program runs per event and reports
//!   the significance with which the event changed.
//! * **Regression** (§IV-A-2): linear, quadratic and exponential fits with
//!   coefficients of determination (R²), used by EvSel to correlate program
//!   input parameters with event counters.
//! * **Segmented regression** (§IV-C-1): the pivot-search method
//!   Phasenprüfer uses to split a memory-footprint time series into ramp-up
//!   and computation phases, plus a dynamic-programming extension to `k`
//!   segments (the paper's "easily extended to recognize additional phases").
//! * **Histograms with interval subtraction** (§IV-B): Memhist derives the
//!   count for a latency interval by subtracting two threshold measurements,
//!   which can go negative under sampling jitter — the histogram type keeps
//!   those artefacts visible instead of silently clamping.
//! * **Multiple-comparisons handling** (§III-B-1): Bonferroni correction and
//!   the false-discovery bookkeeping EvSel needs when testing hundreds of
//!   events at once.
//! * The **distribution functions** (Student-t, normal, gamma) backing the
//!   above, implemented from scratch (no external stats dependency).

pub mod correlate;
pub mod descriptive;
pub mod distributions;
pub mod histogram;
pub mod regression;
pub mod segmented;
pub mod ttest;

pub use correlate::{bonferroni_threshold, pearson_r};
pub use descriptive::{mean, sample_skewness, sample_std, sample_variance};
pub use histogram::{IntervalCount, LatencyHistogram};
pub use regression::{best_fit, RegressionFit, RegressionKind};
pub use segmented::{segmented_fit, segmented_fit_k, SegmentedFit};
pub use ttest::{welch_t_test, GateOutcome, RegressionGate, TTestResult};
