//! Descriptive statistics with Bessel-corrected variance.
//!
//! The paper is explicit that "the t-test uses Bessel's correction to
//! correct the degrees of freedom when calculating standard deviations for a
//! mean that is not known prior to the measurement" (§IV-A-2) — i.e. the
//! sample variance divides by `n - 1`, not `n`.

/// Arithmetic mean of a sample; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Bessel-corrected (unbiased) sample variance, dividing by `n - 1`.
///
/// Returns `NaN` for samples of fewer than two observations, where the
/// corrected variance is undefined.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() as f64 - 1.0)
}

/// Bessel-corrected sample standard deviation.
pub fn sample_std(xs: &[f64]) -> f64 {
    sample_variance(xs).sqrt()
}

/// Adjusted Fisher–Pearson sample skewness (`g1` with the small-sample
/// correction). Positive values mean a right tail — the shape §IV-A-2
/// expects of lower-bounded counter measurements. `NaN` for fewer than
/// three observations or zero variance.
pub fn sample_skewness(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 3 {
        return f64::NAN;
    }
    let m = mean(xs);
    let nf = n as f64;
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / nf;
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / nf;
    if m2 == 0.0 {
        return f64::NAN;
    }
    let g1 = m3 / m2.powf(1.5);
    ((nf * (nf - 1.0)).sqrt() / (nf - 2.0)) * g1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_sample() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn variance_uses_bessel_correction() {
        // Sample [2, 4, 4, 4, 5, 5, 7, 9]: population variance 4, sample
        // variance 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_undefined_for_small_samples() {
        assert!(sample_variance(&[]).is_nan());
        assert!(sample_variance(&[1.0]).is_nan());
    }

    #[test]
    fn std_is_sqrt_of_variance() {
        let xs = [1.0, 3.0, 5.0];
        assert!((sample_std(&xs) - sample_variance(&xs).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn skewness_signs() {
        // Right-skewed: a long right tail.
        let right = [1.0, 1.0, 1.0, 2.0, 2.0, 10.0];
        assert!(sample_skewness(&right) > 0.5);
        // Left-skewed mirror.
        let left: Vec<f64> = right.iter().map(|v| -v).collect();
        assert!(sample_skewness(&left) < -0.5);
        // Symmetric.
        let sym = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(sample_skewness(&sym).abs() < 1e-12);
    }

    #[test]
    fn skewness_degenerate_cases() {
        assert!(sample_skewness(&[1.0, 2.0]).is_nan());
        assert!(sample_skewness(&[3.0, 3.0, 3.0]).is_nan());
    }
}
