//! # np-linalg — small dense linear algebra
//!
//! The paper's tools use the Eigen 3 C++ template library for regression
//! parameter estimation ("Since matrix operations for such small values can
//! be computed efficiently with the linear algebra library Eigen, the phases
//! can be determined in milliseconds", §IV-C-1). This crate is the Rust
//! substitute: a compact, dependency-free dense linear algebra kernel that
//! provides exactly what the statistical layer (`np-stats`) needs:
//!
//! * a row-major [`Matrix`] with the products least squares needs,
//! * the Householder [`qr`](decompose::qr) decomposition,
//! * a numerically well-behaved [least-squares solver](solve::lstsq) used for
//!   every regression in the tool suite (EvSel parameter regressions,
//!   Phasenprüfer segmented fits, indicator-to-cost models).
//!
//! Matrices here are small (regression designs with a handful of columns and
//! at most a few thousand rows), so the implementation favours clarity and
//! numerical robustness over blocking/SIMD tricks.

pub mod decompose;
pub mod error;
pub mod matrix;
pub mod solve;

pub use decompose::{qr, Qr};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use solve::{lstsq, solve_upper_triangular, LstsqSolution};

/// Convenience result alias for fallible linear algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
