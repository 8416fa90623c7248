//! Welch's t-test with Bessel's correction, as used by EvSel (§IV-A-2).
//!
//! The paper's choices, reproduced here exactly:
//!
//! * Student's t-test for comparing two measurement sets of one event.
//! * Bessel's correction in the standard deviations (means are estimated
//!   from the same samples).
//! * Welch's method "to compare different population sizes" — the unequal-
//!   variance form with Welch–Satterthwaite degrees of freedom, so run sets
//!   with different repetition counts can be compared.

use crate::descriptive::{mean, sample_variance};
use crate::distributions::student_t_two_sided_p;

/// Result of a two-sample Welch t-test.
#[derive(Debug, Clone, PartialEq)]
pub struct TTestResult {
    /// The t statistic.
    pub t: f64,
    /// Welch–Satterthwaite effective degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_two_sided: f64,
    /// Significance level `1 - p`, the "reached confidence" EvSel displays
    /// next to each changed counter (e.g. `0.999` for "99.9 %").
    pub significance: f64,
    /// Difference of sample means (`mean(b) - mean(a)`).
    pub mean_diff: f64,
    /// Relative change `(mean(b) - mean(a)) / mean(a)`; `NaN`/infinite when
    /// the baseline mean is zero.
    pub relative_change: f64,
}

impl TTestResult {
    /// True when the difference is significant at level `alpha`
    /// (e.g. `0.001` for the paper's "over 99.9 %" findings).
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_two_sided < alpha
    }
}

/// Performs Welch's unequal-variances t-test between two samples.
///
/// ```
/// use np_stats::ttest::welch_t_test;
///
/// let before = [100.0, 101.0, 99.0, 100.5];
/// let after = [150.0, 151.0, 149.0, 150.5];
/// let r = welch_t_test(&before, &after).unwrap();
/// assert!(r.significant_at(0.001));
/// assert!((r.relative_change - 0.5).abs() < 0.01); // +50 %
/// ```
///
/// Returns `None` when either sample has fewer than two observations (the
/// Bessel-corrected variance is undefined) or when both variances are zero
/// *and* the means are equal (no evidence either way). Two zero-variance
/// samples with different means yield an infinite t and `p = 0`, matching
/// the intuition that perfectly repeatable counters that differ are
/// certainly different.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TTestResult> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (sample_variance(a), sample_variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);

    let se2 = va / na + vb / nb;
    let mean_diff = mb - ma;
    let relative_change = mean_diff / ma;

    if se2 == 0.0 {
        if mean_diff == 0.0 {
            return None;
        }
        return Some(TTestResult {
            t: f64::INFINITY * mean_diff.signum(),
            df: na + nb - 2.0,
            p_two_sided: 0.0,
            significance: 1.0,
            mean_diff,
            relative_change,
        });
    }

    let t = mean_diff / se2.sqrt();
    // Welch–Satterthwaite approximation for the degrees of freedom.
    let df = se2 * se2 / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    let p = student_t_two_sided_p(t, df);
    Some(TTestResult {
        t,
        df,
        p_two_sided: p,
        significance: 1.0 - p,
        mean_diff,
        relative_change,
    })
}

/// A noise-banded regression gate over two wall-time samples, as used by
/// `np bench diff`: a cell regresses only when its mean moved *outside*
/// the relative noise band AND Welch's t-test calls the move significant.
///
/// Cross-runner wall-time jitter passes (the band absorbs it, and noisy
/// samples fail the significance test); a real slowdown — a large,
/// repeatable shift — fails both defences. When a t-test is undefined
/// (single-sample baselines such as one-shot `np loadgen` artifacts, or
/// two zero-variance samples with equal means) the band alone decides,
/// which keeps one-shot baselines comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionGate {
    /// Relative noise band, as a fraction (`0.15` = ±15 %).
    pub noise_frac: f64,
    /// Significance level for the Welch test (e.g. `0.01`).
    pub alpha: f64,
}

/// What [`RegressionGate::judge`] decided for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Relative change of the mean, `(mean(cur) - mean(base)) / mean(base)`.
    pub relative_change: f64,
    /// Welch two-sided p-value, when both samples support a t-test.
    pub p_two_sided: Option<f64>,
    /// The change exceeds `+noise_frac` and is statistically significant.
    pub regressed: bool,
    /// The change exceeds `-noise_frac` downward and is significant.
    pub improved: bool,
}

impl RegressionGate {
    /// Judges `current` against `baseline` (both in the same unit, larger
    /// = slower). Empty samples are never a regression — the caller flags
    /// structural problems separately.
    pub fn judge(&self, baseline: &[f64], current: &[f64]) -> GateOutcome {
        if baseline.is_empty() || current.is_empty() {
            return GateOutcome {
                relative_change: 0.0,
                p_two_sided: None,
                regressed: false,
                improved: false,
            };
        }
        let mb = mean(baseline);
        let mc = mean(current);
        let relative_change = if mb != 0.0 { (mc - mb) / mb } else { 0.0 };
        let test = welch_t_test(baseline, current);
        let p_two_sided = test.as_ref().map(|t| t.p_two_sided);
        // No test (too few samples, or identical constants) => the band
        // alone decides; an insignificant test vetoes the band.
        let significant = test.as_ref().is_none_or(|t| t.significant_at(self.alpha));
        GateOutcome {
            relative_change,
            p_two_sided,
            regressed: relative_change > self.noise_frac && significant,
            improved: relative_change < -self.noise_frac && significant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_are_insignificant() {
        let a = [10.0, 11.0, 9.0, 10.5];
        let r = welch_t_test(&a, &a).unwrap();
        assert!(r.t.abs() < 1e-12);
        assert!(r.p_two_sided > 0.99);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn clearly_different_samples_are_significant() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        let b = [200.0, 201.0, 199.0, 200.5, 200.1];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.significant_at(0.001), "p = {}", r.p_two_sided);
        assert!(r.significance > 0.999);
        assert!((r.relative_change - 1.0).abs() < 0.01);
    }

    #[test]
    fn welch_handles_unequal_sizes_and_variances() {
        // Different population sizes — the reason the paper picked Welch.
        let a = [10.0, 12.0, 11.0, 13.0, 9.0, 11.5, 10.5];
        let b = [20.0, 30.0, 25.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.t < 0.0 || r.mean_diff > 0.0);
        assert!(r.df > 1.0 && r.df < 9.0, "df = {}", r.df);
        assert!(r.significant_at(0.05));
    }

    #[test]
    fn known_welch_example() {
        // Hand-computed example with exact fractions:
        //   a = [1, 2, 3, 4]  -> mean 2.5, sample variance 5/3
        //   b = [2, 4, 6, 8]  -> mean 5.0, sample variance 20/3
        //   se² = 5/12 + 20/12 = 25/12
        //   t   = 2.5 / sqrt(25/12) = sqrt(3)
        //   df  = (25/12)² / ((5/12)²/3 + (20/12)²/3) = 1875/425 ≈ 4.4118
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!((r.t - 3f64.sqrt()).abs() < 1e-12, "t = {}", r.t);
        assert!((r.df - 1875.0 / 425.0).abs() < 1e-9, "df = {}", r.df);
        // For t ≈ 1.73 at df ≈ 4.4 the two-sided p sits between 0.1 and 0.2
        // (t-table: t₀.₉₅,₄ = 2.13, t₀.₉,₄ = 1.53).
        assert!(
            r.p_two_sided > 0.1 && r.p_two_sided < 0.2,
            "p = {}",
            r.p_two_sided
        );
    }

    #[test]
    fn degenerate_samples_rejected() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        assert!(welch_t_test(&[], &[]).is_none());
        // Equal constants: no evidence of difference.
        assert!(welch_t_test(&[5.0, 5.0], &[5.0, 5.0]).is_none());
    }

    #[test]
    fn zero_variance_but_different_means() {
        let r = welch_t_test(&[5.0, 5.0, 5.0], &[7.0, 7.0]).unwrap();
        assert!(r.t.is_infinite() && r.t > 0.0);
        assert_eq!(r.p_two_sided, 0.0);
        assert_eq!(r.significance, 1.0);
    }

    #[test]
    fn direction_of_mean_diff() {
        let r = welch_t_test(&[10.0, 10.1, 9.9], &[5.0, 5.1, 4.9]).unwrap();
        assert!(r.mean_diff < 0.0);
        assert!(r.relative_change < 0.0);
        assert!(r.t < 0.0);
    }

    #[test]
    fn gate_passes_identical_reruns_and_noise() {
        let gate = RegressionGate {
            noise_frac: 0.15,
            alpha: 0.01,
        };
        let base = [100.0, 101.0, 99.0, 100.5];
        // Identical re-run: no test possible beyond "no difference".
        let same = gate.judge(&base, &base);
        assert!(!same.regressed && !same.improved);
        // Inside the band: even a significant 5 % shift is noise.
        let shifted = [105.0, 106.0, 104.0, 105.5];
        let small = gate.judge(&base, &shifted);
        assert!(!small.regressed, "5 % sits inside the 15 % band");
        // Outside the band but statistically indistinguishable: noise.
        let wild_base = [100.0, 400.0, 150.0, 350.0];
        let wild_cur = [130.0, 470.0, 190.0, 420.0];
        let noisy = gate.judge(&wild_base, &wild_cur);
        assert!(!noisy.regressed, "p = {:?}", noisy.p_two_sided);
    }

    #[test]
    fn gate_flags_a_repeatable_slowdown_and_an_improvement() {
        let gate = RegressionGate {
            noise_frac: 0.15,
            alpha: 0.01,
        };
        let base = [100.0, 101.0, 99.0, 100.5];
        let slow = [300.0, 301.0, 299.0, 300.5];
        let r = gate.judge(&base, &slow);
        assert!(r.regressed && !r.improved);
        assert!((r.relative_change - 2.0).abs() < 0.05);
        assert!(r.p_two_sided.unwrap() < 0.01);
        let fast = [50.0, 51.0, 49.0, 50.5];
        let i = gate.judge(&base, &fast);
        assert!(i.improved && !i.regressed);
    }

    #[test]
    fn gate_falls_back_to_the_band_for_single_samples() {
        // One-shot loadgen artifacts carry one sample per cell: the band
        // alone must still catch a 2x slowdown and pass a clean re-run.
        let gate = RegressionGate {
            noise_frac: 0.25,
            alpha: 0.01,
        };
        let r = gate.judge(&[100.0], &[220.0]);
        assert!(r.regressed && r.p_two_sided.is_none());
        let ok = gate.judge(&[100.0], &[110.0]);
        assert!(!ok.regressed && !ok.improved);
        // Degenerate inputs never gate.
        let empty = gate.judge(&[], &[100.0]);
        assert!(!empty.regressed && !empty.improved);
    }

    #[test]
    fn symmetry_of_p_value() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.5, 3.5, 4.5, 5.5];
        let r1 = welch_t_test(&a, &b).unwrap();
        let r2 = welch_t_test(&b, &a).unwrap();
        assert!((r1.p_two_sided - r2.p_two_sided).abs() < 1e-12);
        assert!((r1.t + r2.t).abs() < 1e-12);
    }
}
