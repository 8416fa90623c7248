//! Error type shared by all fallible operations in this crate.

use std::fmt;

/// Errors produced by matrix construction, decomposition and solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right-hand operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The operation requires a square matrix but got a rectangular one.
    NotSquare {
        /// Actual shape as `(rows, cols)`.
        shape: (usize, usize),
    },
    /// A decomposition or triangular solve met a zero pivot: the matrix is
    /// (numerically) singular.
    Singular {
        /// Diagonal/pivot index at which the breakdown was detected.
        index: usize,
    },
    /// A least-squares system has fewer rows than columns and is therefore
    /// underdetermined.
    Underdetermined {
        /// Number of observations (rows of the design matrix).
        rows: usize,
        /// Number of parameters (columns of the design matrix).
        cols: usize,
    },
    /// Construction from raw data whose length does not match `rows * cols`.
    BadLength {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        actual: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(
                    f,
                    "operation requires a square matrix, got {}x{}",
                    shape.0, shape.1
                )
            }
            LinalgError::Singular { index } => {
                write!(f, "matrix is singular (zero pivot at {index})")
            }
            LinalgError::Underdetermined { rows, cols } => write!(
                f,
                "least squares is underdetermined: {rows} observations for {cols} parameters"
            ),
            LinalgError::BadLength { expected, actual } => {
                write!(f, "data length {actual} does not match expected {expected}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert!(e.to_string().contains("matmul"));
        assert!(e.to_string().contains("2x3"));

        let e = LinalgError::NotSquare { shape: (3, 4) };
        assert!(e.to_string().contains("3x4"));

        let e = LinalgError::Singular { index: 7 };
        assert_eq!(e.to_string(), "matrix is singular (zero pivot at 7)");

        let e = LinalgError::Underdetermined { rows: 2, cols: 5 };
        assert!(e.to_string().contains("underdetermined"));

        let e = LinalgError::BadLength {
            expected: 6,
            actual: 5,
        };
        assert!(e.to_string().contains('5') && e.to_string().contains('6'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_e: &E) {}
        assert_error(&LinalgError::Singular { index: 0 });
    }
}
