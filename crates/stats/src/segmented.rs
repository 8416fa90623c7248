//! Segmented (piecewise-linear) regression for phase detection.
//!
//! Phasenprüfer "models the phases as functions and finds the phase
//! transition. … all data points are iteratively considered as phase
//! transition points (pivots) first. Next, regression is performed before
//! and after each pivot point. The phase transition is obtained by selecting
//! the point where the summed error of both regressions is minimal"
//! (§IV-C-1, Fig. 7). [`segmented_fit`] implements exactly that; the paper
//! notes the tool "can be easily extended to recognize additional phases",
//! which [`segmented_fit_k`] provides via dynamic programming over segment
//! boundaries.

use crate::regression::{fit, RegressionFit, RegressionKind};

/// Result of a two-piece segmented linear regression.
#[derive(Debug, Clone)]
pub struct SegmentedFit {
    /// Index of the first data point that belongs to the *second* segment.
    pub pivot: usize,
    /// Linear fit over `points[..pivot]` (the paper's `f0`).
    pub before: RegressionFit,
    /// Linear fit over `points[pivot..]` (the paper's `f1`).
    pub after: RegressionFit,
    /// Combined residual sum of squares of both fits (the minimised error).
    pub combined_rss: f64,
}

/// Minimum points per segment so each linear fit is overdetermined.
const MIN_SEGMENT: usize = 3;

/// Fits two linear segments to `(x, y)` by exhaustive pivot search,
/// exactly the algorithm of Fig. 7.
///
/// ```
/// use np_stats::segmented::segmented_fit;
///
/// // A ramp to 100, then flat: the footprint shape of §IV-C.
/// let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
/// let y: Vec<f64> = (0..20).map(|i| if i < 10 { 10.0 * i as f64 } else { 90.0 }).collect();
/// let fit = segmented_fit(&x, &y).unwrap();
/// assert!((fit.pivot as i64 - 10).abs() <= 1);
/// ```
///
/// Returns `None` when fewer than `2 * MIN_SEGMENT` points are supplied or
/// no pivot admits two valid fits (e.g. degenerate x values).
pub fn segmented_fit(x: &[f64], y: &[f64]) -> Option<SegmentedFit> {
    if x.len() != y.len() || x.len() < 2 * MIN_SEGMENT {
        return None;
    }
    let n = x.len();
    let mut best: Option<SegmentedFit> = None;
    for pivot in MIN_SEGMENT..=(n - MIN_SEGMENT) {
        let f0 = fit(RegressionKind::Linear, &x[..pivot], &y[..pivot]);
        let f1 = fit(RegressionKind::Linear, &x[pivot..], &y[pivot..]);
        let (Some(f0), Some(f1)) = (f0, f1) else {
            continue;
        };
        let rss = f0.rss + f1.rss;
        if best.as_ref().is_none_or(|b| rss < b.combined_rss) {
            best = Some(SegmentedFit {
                pivot,
                before: f0,
                after: f1,
                combined_rss: rss,
            });
        }
    }
    best
}

/// A `k`-segment piecewise-linear fit.
#[derive(Debug, Clone)]
pub struct MultiSegmentFit {
    /// Start index of each segment; `boundaries[0] == 0`.
    pub boundaries: Vec<usize>,
    /// Per-segment linear fits, one per boundary.
    pub segments: Vec<RegressionFit>,
    /// Total residual sum of squares across segments.
    pub combined_rss: f64,
}

/// Fits `k` linear segments by dynamic programming over segment boundaries
/// (optimal partition minimising total RSS).
///
/// This is the "recognize additional phases" extension the paper sketches
/// for BSP-like programs with multiple supersteps. Runs in `O(k · n²)`
/// fits, each `O(segment length)` — fine for footprint traces of a few
/// thousand samples.
pub fn segmented_fit_k(x: &[f64], y: &[f64], k: usize) -> Option<MultiSegmentFit> {
    let n = x.len();
    if x.len() != y.len() || k == 0 || n < k * MIN_SEGMENT {
        return None;
    }
    if k == 1 {
        let f = fit(RegressionKind::Linear, x, y)?;
        let rss = f.rss;
        return Some(MultiSegmentFit {
            boundaries: vec![0],
            segments: vec![f],
            combined_rss: rss,
        });
    }

    // rss_of[i][j] = RSS of a single linear fit over points i..j (j exclusive).
    // Computed lazily and memoised: only O(n²) candidate ranges exist.
    let mut cache: Vec<Vec<Option<Option<f64>>>> = vec![vec![None; n + 1]; n + 1];
    let seg_rss = |i: usize, j: usize, cache: &mut Vec<Vec<Option<Option<f64>>>>| -> Option<f64> {
        if let Some(v) = cache[i][j] {
            return v;
        }
        let v = if j - i < MIN_SEGMENT {
            None
        } else {
            fit(RegressionKind::Linear, &x[i..j], &y[i..j]).map(|f| f.rss)
        };
        cache[i][j] = Some(v);
        v
    };

    // dp[s][j] = minimal RSS of covering points 0..j with s segments.
    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; n + 1]; k + 1];
    let mut parent = vec![vec![0usize; n + 1]; k + 1];
    dp[0][0] = 0.0;
    for s in 1..=k {
        for j in (s * MIN_SEGMENT)..=n {
            for i in ((s - 1) * MIN_SEGMENT)..=(j - MIN_SEGMENT) {
                if dp[s - 1][i] == inf {
                    continue;
                }
                let Some(r) = seg_rss(i, j, &mut cache) else {
                    continue;
                };
                let cand = dp[s - 1][i] + r;
                if cand < dp[s][j] {
                    dp[s][j] = cand;
                    parent[s][j] = i;
                }
            }
        }
    }
    if dp[k][n] == inf {
        return None;
    }

    // Recover the boundaries.
    let mut bounds = vec![0usize; k];
    let mut j = n;
    for s in (1..=k).rev() {
        let i = parent[s][j];
        bounds[s - 1] = i;
        j = i;
    }
    // bounds currently holds segment *start* indices.
    let mut segments = Vec::with_capacity(k);
    for s in 0..k {
        let start = bounds[s];
        let end = if s + 1 < k { bounds[s + 1] } else { n };
        segments.push(fit(RegressionKind::Linear, &x[start..end], &y[start..end])?);
    }
    Some(MultiSegmentFit {
        boundaries: bounds,
        segments,
        combined_rss: dp[k][n],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ramp-up (steep slope) followed by a plateau — the canonical
    /// footprint shape of §IV-C.
    fn ramp_then_flat(n_ramp: usize, n_flat: usize) -> (Vec<f64>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_ramp {
            x.push(i as f64);
            y.push(10.0 * i as f64);
        }
        let top = 10.0 * (n_ramp - 1) as f64;
        for i in 0..n_flat {
            x.push((n_ramp + i) as f64);
            y.push(top + 0.1 * i as f64);
        }
        (x, y)
    }

    #[test]
    fn finds_planted_pivot_exactly() {
        let (x, y) = ramp_then_flat(20, 30);
        let f = segmented_fit(&x, &y).unwrap();
        // The pivot must land on (or immediately adjacent to) the junction.
        assert!(
            (f.pivot as i64 - 20).unsigned_abs() <= 1,
            "pivot {} not near 20",
            f.pivot
        );
        assert!(f.before.coefficients[1] > 5.0, "ramp slope");
        assert!(f.after.coefficients[1] < 1.0, "flat slope");
    }

    #[test]
    fn pivot_robust_to_deterministic_noise() {
        let (x, mut y) = ramp_then_flat(25, 25);
        for (i, v) in y.iter_mut().enumerate() {
            *v += if i % 3 == 0 { 2.0 } else { -1.0 };
        }
        let f = segmented_fit(&x, &y).unwrap();
        assert!(
            (f.pivot as i64 - 25).unsigned_abs() <= 2,
            "pivot {}",
            f.pivot
        );
    }

    #[test]
    fn combined_rss_zero_for_exact_two_lines() {
        let (x, y) = ramp_then_flat(10, 10);
        let f = segmented_fit(&x, &y).unwrap();
        assert!(f.combined_rss < 1e-12, "rss {}", f.combined_rss);
    }

    #[test]
    fn too_few_points_rejected() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert!(segmented_fit(&x, &y).is_none());
    }

    #[test]
    fn single_line_pivot_is_arbitrary_but_fits() {
        // A single straight line: any pivot gives zero error; result must
        // still be a valid fit with consistent slopes.
        let x: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 + 2.0 * v).collect();
        let f = segmented_fit(&x, &y).unwrap();
        assert!((f.before.coefficients[1] - 2.0).abs() < 1e-9);
        assert!((f.after.coefficients[1] - 2.0).abs() < 1e-9);
        assert!(f.combined_rss < 1e-12);
    }

    #[test]
    fn k_segment_recovers_three_phases() {
        // Three-phase trace: ramp, flat, second ramp (BSP supersteps).
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..15 {
            x.push(i as f64);
            y.push(5.0 * i as f64);
        }
        for i in 15..30 {
            x.push(i as f64);
            y.push(70.0 + 0.05 * (i - 15) as f64);
        }
        for i in 30..45 {
            x.push(i as f64);
            y.push(70.0 + 8.0 * (i - 30) as f64);
        }
        let f = segmented_fit_k(&x, &y, 3).unwrap();
        assert_eq!(f.boundaries.len(), 3);
        assert_eq!(f.boundaries[0], 0);
        assert!(
            (f.boundaries[1] as i64 - 15).unsigned_abs() <= 1,
            "{:?}",
            f.boundaries
        );
        assert!(
            (f.boundaries[2] as i64 - 30).unsigned_abs() <= 1,
            "{:?}",
            f.boundaries
        );
        assert!(f.segments[0].coefficients[1] > 3.0);
        assert!(f.segments[1].coefficients[1] < 1.0);
        assert!(f.segments[2].coefficients[1] > 3.0);
    }

    #[test]
    fn k_equals_one_matches_plain_fit() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 1.0 + 4.0 * v).collect();
        let f = segmented_fit_k(&x, &y, 1).unwrap();
        assert_eq!(f.boundaries, vec![0]);
        assert!((f.segments[0].coefficients[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn k_two_agrees_with_pivot_search() {
        let (x, y) = ramp_then_flat(18, 22);
        let f2 = segmented_fit(&x, &y).unwrap();
        let fk = segmented_fit_k(&x, &y, 2).unwrap();
        assert_eq!(fk.boundaries[1], f2.pivot);
        assert!((fk.combined_rss - f2.combined_rss).abs() < 1e-9);
    }

    #[test]
    fn k_too_large_rejected() {
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let y = x.clone();
        assert!(segmented_fit_k(&x, &y, 3).is_none());
    }
}
