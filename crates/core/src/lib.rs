//! # np-core — the paper's contribution: EvSel, Memhist, Phasenprüfer and
//! the two-step performance assessment strategy
//!
//! Plauth et al. propose (§III) replacing monolithic code-to-cost models
//! with a **two-step strategy**: a *code-to-indicator* analysis (measure
//! hardware counters on small/typical workloads, extrapolate) followed by
//! an *indicator-to-cost* analysis (map indicators to costs, which
//! transfers across machines). Three tools support the strategy (§IV):
//!
//! * [`evsel`] — measures *all* available counters over repeated runs,
//!   compares program versions with Welch t-tests and correlates input
//!   parameters with counters via linear/quadratic/exponential regressions
//!   (Figs. 5, 8, 9).
//! * [`memhist`] — builds memory-load latency histograms from threshold-
//!   cycled PEBS measurements, in occurrences and cost modes, with a
//!   TCP remote probe (Figs. 6, 10).
//! * [`phasen`] — splits runs into ramp-up and computation phases by
//!   segmented regression over the procfs memory footprint and attributes
//!   counter records to the phases (Figs. 7, 11), with the k-phase
//!   extension the paper sketches.
//! * [`strategy`] — the two-step pipeline itself: indicator extrapolation
//!   over workload sizes, least-squares indicator→cost models, and
//!   cross-machine transfer.
//! * [`runner`] — orchestration: run a workload under a measurement plan
//!   (batched or multiplexed acquisition, parallel repetitions).
//! * [`annotate`] — the §VI outlook implemented: per-source-region event
//!   attribution ("the mapping from events to lines of code").

pub mod annotate;
pub mod balance;
pub mod c2c;
pub mod capture;
pub mod evsel;
pub mod exchange;
pub mod memhist;
pub mod objprof;
pub mod phasen;
pub mod report;
pub mod runner;
pub mod session;
pub mod strategy;

pub use capture::{Capture, NodeSeriesObserver, SeriesDoc, Timeline};
pub use evsel::{ComparisonReport, EvSel, ParameterSweep};
pub use memhist::{Memhist, MemhistConfig, MemhistResult};
pub use phasen::{PhaseDetector, PhaseReport, Phasenpruefer};
pub use runner::{MeasurementPlan, Runner, SampledCampaign};
pub use strategy::{CostModel, IndicatorExtrapolator};
