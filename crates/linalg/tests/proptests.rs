//! Property-based tests for np-linalg: algebraic identities that must hold
//! for arbitrary well-conditioned inputs.

use np_linalg::{lstsq, qr, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix of the given shape with entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #[test]
    fn transpose_is_involution(m in matrix(4, 3)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(3, 4), b in matrix(4, 2)) {
        // (AB)ᵀ = Bᵀ Aᵀ
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.sub(&rhs).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn identity_is_neutral(a in matrix(4, 4)) {
        let i = Matrix::identity(4);
        prop_assert!(a.matmul(&i).unwrap().sub(&a).unwrap().max_abs() < 1e-12);
        prop_assert!(i.matmul(&a).unwrap().sub(&a).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn qr_reconstructs(a in matrix(6, 3)) {
        // Skip (rare) rank-deficient random draws, which QR rejects.
        if let Ok(dec) = qr(&a) {
            let recon = dec.q.matmul(&dec.r).unwrap();
            prop_assert!(recon.sub(&a).unwrap().max_abs() < 1e-8);
            let qtq = dec.q.transpose().matmul(&dec.q).unwrap();
            prop_assert!(qtq.sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-8);
        }
    }

    #[test]
    fn lstsq_residual_orthogonal_to_design(x in matrix(8, 3), y in matrix(8, 1)) {
        if let Ok(sol) = lstsq(&x, &y) {
            let resid = y.sub(&sol.fitted).unwrap();
            let xtr = x.transpose().matmul(&resid).unwrap();
            // Scale tolerance with the problem's magnitude.
            let scale = 1.0 + x.max_abs() * y.max_abs();
            prop_assert!(xtr.max_abs() < 1e-7 * scale, "Xᵀr = {}", xtr.max_abs());
        }
    }

    #[test]
    fn lstsq_rss_is_minimal_under_perturbation(x in matrix(8, 2), y in matrix(8, 1), d0 in -0.5f64..0.5, d1 in -0.5f64..0.5) {
        if let Ok(sol) = lstsq(&x, &y) {
            let mut perturbed = sol.beta.clone();
            perturbed[(0, 0)] += d0;
            perturbed[(1, 0)] += d1;
            let fitted = x.matmul(&perturbed).unwrap();
            let r = y.sub(&fitted).unwrap();
            let rss_p = r.dot(&r).unwrap();
            prop_assert!(rss_p + 1e-9 >= sol.rss);
        }
    }
}
