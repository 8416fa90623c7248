//! Correlation utilities and multiple-comparisons handling.
//!
//! §III-B-1 warns that "when correlating a lot of input parameters to end
//! costs, the sheer amount of parameters might reveal some seemingly
//! well-fitting correlations … known as the multiple comparisons problem"
//! and points at Bonferroni correction as the remedy. EvSel tests hundreds
//! of events per comparison, so this module provides Pearson correlation
//! and the Bonferroni-adjusted significance threshold.

use crate::descriptive::mean;

/// Pearson product-moment correlation coefficient of two equal-length
/// samples; `None` for mismatched lengths, fewer than two points, or zero
/// variance on either side.
pub fn pearson_r(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..x.len() {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Bonferroni-corrected per-test significance threshold: testing `m`
/// hypotheses at family-wise error rate `alpha` requires each test to pass
/// `alpha / m`.
///
/// Returns `alpha` unchanged for `m <= 1`.
pub fn bonferroni_threshold(alpha: f64, m: usize) -> f64 {
    if m <= 1 {
        alpha
    } else {
        alpha / m as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_and_negative_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert!((pearson_r(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -3.0 * v).collect();
        assert!((pearson_r(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_orthogonal_series() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, -1.0, -1.0, 1.0]; // symmetric around the x midpoint
        assert!(pearson_r(&x, &y).unwrap().abs() < 1e-12);
    }

    #[test]
    fn pearson_rejects_degenerate_inputs() {
        assert!(pearson_r(&[1.0], &[1.0]).is_none());
        assert!(pearson_r(&[1.0, 2.0], &[1.0]).is_none());
        assert!(pearson_r(&[1.0, 1.0], &[1.0, 2.0]).is_none()); // zero variance
    }

    #[test]
    fn pearson_is_scale_invariant() {
        let x = [1.0, 3.0, 2.0, 5.0, 4.0];
        let y = [2.0, 6.0, 5.0, 9.0, 7.0];
        let r1 = pearson_r(&x, &y).unwrap();
        let xs: Vec<f64> = x.iter().map(|v| 100.0 * v - 7.0).collect();
        let ys: Vec<f64> = y.iter().map(|v| 0.01 * v + 3.0).collect();
        let r2 = pearson_r(&xs, &ys).unwrap();
        assert!((r1 - r2).abs() < 1e-12);
    }

    #[test]
    fn bonferroni_scales_threshold() {
        assert_eq!(bonferroni_threshold(0.05, 1), 0.05);
        assert_eq!(bonferroni_threshold(0.05, 0), 0.05);
        assert!((bonferroni_threshold(0.05, 100) - 0.0005).abs() < 1e-12);
    }
}
