//! Householder QR, the decomposition behind [`crate::solve::lstsq`].

use crate::{LinalgError, Matrix, Result};

/// A thin QR decomposition `A = Q * R` of an `m x n` matrix with `m >= n`.
///
/// `q` is `m x n` with orthonormal columns and `r` is `n x n` upper
/// triangular.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Orthonormal factor (`m x n`).
    pub q: Matrix,
    /// Upper-triangular factor (`n x n`).
    pub r: Matrix,
}

/// Computes a thin Householder QR decomposition of `a`.
///
/// Returns [`LinalgError::Underdetermined`] when `a` has fewer rows than
/// columns and [`LinalgError::Singular`] when a zero pivot is encountered
/// (rank-deficient input).
pub fn qr(a: &Matrix) -> Result<Qr> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinalgError::Underdetermined { rows: m, cols: n });
    }

    // Work on a copy that is transformed into R; accumulate the Householder
    // vectors to form Q explicitly afterwards. For the small systems we
    // solve, explicit Q keeps downstream code simple.
    let mut r = a.clone();
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);

    for k in 0..n {
        // Build the Householder vector for column k from row k downwards.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm == 0.0 {
            return Err(LinalgError::Singular { index: k });
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        let mut v = vec![0.0; m];
        v[k] = r[(k, k)] - alpha;
        for i in (k + 1)..m {
            v[i] = r[(i, k)];
        }
        let vnorm2: f64 = v[k..].iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            // Column already reduced; record an all-zero reflector.
            vs.push(v);
            continue;
        }

        // Apply the reflector H = I - 2 v vᵀ / (vᵀv) to the trailing block.
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i] * r[(i, j)];
            }
            let f = 2.0 * dot / vnorm2;
            for i in k..m {
                r[(i, j)] -= f * v[i];
            }
        }
        vs.push(v);
    }

    // Form the thin Q by applying the reflectors in reverse to the first n
    // columns of the identity.
    let mut q = Matrix::zeros(m, n);
    for j in 0..n {
        q[(j, j)] = 1.0;
    }
    for k in (0..n).rev() {
        let v = &vs[k];
        let vnorm2: f64 = v[k..].iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        for j in 0..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i] * q[(i, j)];
            }
            let f = 2.0 * dot / vnorm2;
            for i in k..m {
                q[(i, j)] -= f * v[i];
            }
        }
    }

    // Zero the strictly-lower part of R and truncate to n x n.
    let mut r_small = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            r_small[(i, j)] = r[(i, j)];
        }
    }

    Ok(Qr { q, r: r_small })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        let diff = a.sub(b).unwrap();
        assert!(
            diff.max_abs() < tol,
            "matrices differ by {} (tol {tol}):\n{a:?}\nvs\n{b:?}",
            diff.max_abs()
        );
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[1.0, 3.0], &[0.0, 1.0], &[4.0, 2.0]]);
        let Qr { q, r } = qr(&a).unwrap();
        assert_close(&q.matmul(&r).unwrap(), &a, 1e-10);
    }

    #[test]
    fn qr_q_has_orthonormal_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 7.0]]);
        let Qr { q, .. } = qr(&a).unwrap();
        let qtq = q.transpose().matmul(&q).unwrap();
        assert_close(&qtq, &Matrix::identity(2), 1e-10);
    }

    #[test]
    fn qr_r_is_upper_triangular() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5],
            &[3.0, 4.0, 1.0],
            &[5.0, 7.0, 2.0],
            &[1.0, 1.0, 1.0],
        ]);
        let Qr { r, .. } = qr(&a).unwrap();
        for i in 0..r.rows() {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_rejects_wide_matrix() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            qr(&a),
            Err(LinalgError::Underdetermined { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn qr_detects_rank_deficiency() {
        // Second column is a multiple of the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let out = qr(&a);
        // Either a Singular error, or an R with a (numerically) zero pivot.
        match out {
            Err(LinalgError::Singular { .. }) => {}
            Ok(Qr { r, .. }) => assert!(r[(1, 1)].abs() < 1e-9),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
