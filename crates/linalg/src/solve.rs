//! Triangular solves and the least-squares driver used by every regression
//! in the tool suite.

use crate::{qr, LinalgError, Matrix, Result};

/// Solution of a least-squares problem `min ||y - X β||²`.
#[derive(Debug, Clone)]
pub struct LstsqSolution {
    /// Estimated parameter vector `β̂` (`n x 1`).
    pub beta: Matrix,
    /// Residual sum of squares `||y - X β̂||²`.
    pub rss: f64,
    /// Fitted values `X β̂` (`m x 1`).
    pub fitted: Matrix,
}

/// Solves `U x = b` for upper-triangular `U` by back substitution.
pub fn solve_upper_triangular(u: &Matrix, b: &Matrix) -> Result<Matrix> {
    if !u.is_square() {
        return Err(LinalgError::NotSquare { shape: u.shape() });
    }
    if b.rows() != u.rows() || b.cols() != 1 {
        return Err(LinalgError::ShapeMismatch {
            op: "back_sub",
            lhs: u.shape(),
            rhs: b.shape(),
        });
    }
    let n = u.rows();
    let mut x = Matrix::zeros(n, 1);
    for i in (0..n).rev() {
        let mut sum = b[(i, 0)];
        for j in (i + 1)..n {
            sum -= u[(i, j)] * x[(j, 0)];
        }
        let d = u[(i, i)];
        if d == 0.0 {
            return Err(LinalgError::Singular { index: i });
        }
        x[(i, 0)] = sum / d;
    }
    Ok(x)
}

/// Solves the least-squares problem `min ||y - X β||²` via QR.
///
/// The paper derives the normal-equation solution `β̂ = (XᵀX)⁻¹ Xᵀ y`
/// (§IV-C-1); we solve the equivalent system `R β = Qᵀ y` instead, which is
/// what Eigen's recommended least-squares driver does and is better
/// conditioned (condition number κ(X) rather than κ(X)²).
///
/// `x` must be `m x n` with `m >= n`; `y` must be `m x 1`.
pub fn lstsq(x: &Matrix, y: &Matrix) -> Result<LstsqSolution> {
    if y.rows() != x.rows() || y.cols() != 1 {
        return Err(LinalgError::ShapeMismatch {
            op: "lstsq",
            lhs: x.shape(),
            rhs: y.shape(),
        });
    }
    let dec = qr(x)?;
    let qty = dec.q.transpose().matmul(y)?;
    let beta = solve_upper_triangular(&dec.r, &qty)?;
    let fitted = x.matmul(&beta)?;
    let resid = y.sub(&fitted)?;
    let rss = resid.dot(&resid)?;
    Ok(LstsqSolution { beta, rss, fitted })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_substitution() {
        let u = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 4.0]]);
        let b = Matrix::column(&[5.0, 8.0]);
        let x = solve_upper_triangular(&u, &b).unwrap();
        assert!((x[(1, 0)] - 2.0).abs() < 1e-12);
        assert!((x[(0, 0)] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn back_substitution_rejects_zero_diagonal() {
        let b = Matrix::column(&[1.0, 1.0]);
        let u = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]);
        assert!(matches!(
            solve_upper_triangular(&u, &b),
            Err(LinalgError::Singular { index: 1 })
        ));
    }

    #[test]
    fn lstsq_exact_system() {
        // y = 3 + 2x fitted through exact points.
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
        let y = Matrix::column(&[3.0, 5.0, 7.0]);
        let sol = lstsq(&x, &y).unwrap();
        assert!((sol.beta[(0, 0)] - 3.0).abs() < 1e-10);
        assert!((sol.beta[(1, 0)] - 2.0).abs() < 1e-10);
        assert!(sol.rss < 1e-18);
    }

    #[test]
    fn lstsq_overdetermined_residual_orthogonal_to_columns() {
        let x = Matrix::from_rows(&[
            &[1.0, 0.1],
            &[1.0, 1.3],
            &[1.0, 2.1],
            &[1.0, 2.9],
            &[1.0, 4.2],
        ]);
        let y = Matrix::column(&[1.0, 2.2, 2.9, 4.1, 5.3]);
        let sol = lstsq(&x, &y).unwrap();
        let resid = y.sub(&sol.fitted).unwrap();
        // Normal equations: Xᵀ r = 0 at the optimum.
        let xtr = x.transpose().matmul(&resid).unwrap();
        assert!(xtr.max_abs() < 1e-9, "Xᵀr = {xtr:?}");
        assert!((sol.rss - resid.dot(&resid).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn lstsq_matches_normal_equations() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[1.0, 3.0], &[1.0, 5.0], &[1.0, 7.0]]);
        let y = Matrix::column(&[1.1, 2.0, 3.9, 6.2]);
        let sol = lstsq(&x, &y).unwrap();
        // β̂ = (XᵀX)⁻¹ Xᵀ y with the closed-form inverse of the 2x2 normal
        // matrix [[a, b], [b, d]]: (1 / (ad - b²)) [[d, -b], [-b, a]].
        let xtx = x.transpose().matmul(&x).unwrap();
        let xty = x.transpose().matmul(&y).unwrap();
        let (a, b, d) = (xtx[(0, 0)], xtx[(0, 1)], xtx[(1, 1)]);
        let det = a * d - b * b;
        let inverse = Matrix::from_rows(&[&[d / det, -b / det], &[-b / det, a / det]]);
        let beta = inverse.matmul(&xty).unwrap();
        assert!((sol.beta.sub(&beta).unwrap()).max_abs() < 1e-9);
    }

    #[test]
    fn lstsq_shape_errors() {
        let x = Matrix::zeros(3, 2);
        let y = Matrix::zeros(4, 1);
        assert!(matches!(
            lstsq(&x, &y),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let y2 = Matrix::zeros(3, 2);
        assert!(matches!(
            lstsq(&x, &y2),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }
}
