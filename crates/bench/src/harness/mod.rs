//! The `np bench` matrix harness.
//!
//! A config-driven benchmark discipline over the whole tool suite, in the
//! spirit of shumai's declarative matrices: a [`config::MatrixConfig`]
//! declares workload x threads x params cells, [`runner`] executes each
//! cell with warmup + repeat sampling (thread starts are barrier-
//! synchronised inside the pool and the loadgen hammer), and the result
//! is one versioned [`schema::BenchReport`] (`np-bench/1`) with the
//! shared `BenchMeta` provenance block. [`formats`] renders the same
//! report as a live table, markdown, or CSV; [`diff`] judges a run
//! against a committed baseline with Welch's t-test inside a noise band;
//! [`trend`] renders a history of runs as a per-cell trend table.
//!
//! Determinism contract: everything except the wall-time samples is a
//! pure function of (config, seed, machine). Cell digests come from the
//! deterministic result values, so two runs of the same config — on any
//! host, at any harness `--threads` — agree on every field the diff
//! gate hard-fails on.

pub mod config;
pub mod diff;
pub mod formats;
pub mod runner;
pub mod schema;
pub mod speedup;
pub mod trend;

pub use config::{CellSpec, MatrixConfig};
pub use diff::{diff_reports, gate, CellDiff, DiffReport, Verdict};
pub use runner::{loadgen_report, run_matrix};
pub use schema::{BenchCell, BenchReport, BENCH_SCHEMA};
pub use speedup::{gate_speedup, speedup_rows, SpeedupRow, MIN_SPEEDUP};
