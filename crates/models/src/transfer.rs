//! Indicator-to-cost transfer: the machine-portable half of the two-step
//! strategy (§III-B), as a fitted model.
//!
//! The paper's central claim is that hardware performance indicators —
//! unlike code — "relate to costs much more directly", which makes the
//! indicator-to-cost mapping *transferable between machines*: indicators
//! measured (or extrapolated) on machine A can be priced by a cost model
//! fitted from measurements taken on machine B (Fig. 4b's "transfer"
//! arrow). This module is that mapping as a standalone, serializable-free
//! value: fit it from `(indicator vector, cycles)` pairs recorded on the
//! target machine, then evaluate any indicator vector against it.
//!
//! The model is linear least squares: `cost ≈ β₀ + Σ βᵢ · indicatorᵢ`,
//! solved with the QR decomposition. Linearity is the physically-motivated
//! choice — cycle counts decompose additively into per-event penalty
//! contributions (misses × latency etc.). Indicators are often collinear
//! (many events scale identically with workload size — the redundancy
//! §III-B-1 notes), so features are admitted by greedy forward selection:
//! a feature is kept only while the design stays solvable with bounded
//! coefficients and enough observations remain.
//!
//! The fit is **deterministic**: the same training pairs in the same
//! order produce bit-identical coefficients, which is what lets np-serve
//! cache fitted models by training content and lets clients re-derive a
//! server's answer locally to audit it.

use np_simulator::HwEvent;
use std::collections::BTreeMap;

/// A vector of indicator values (per-event means).
pub type Indicators = BTreeMap<HwEvent, f64>;

/// A fitted linear indicator→cost model, transferable across programs
/// whose indicators it has features for.
pub struct TransferModel {
    /// The indicator events used as features, in column order.
    pub features: Vec<HwEvent>,
    /// Coefficients: `[β₀, β₁, …]` (intercept first).
    pub beta: Vec<f64>,
    /// Coefficient of determination on the training data.
    pub r_squared: f64,
}

impl TransferModel {
    /// Fits the model from training pairs. Uses the intersection of events
    /// present in every indicator vector as features. Requires more
    /// observations than features; returns `None` otherwise or when the
    /// design is degenerate.
    pub fn fit(pairs: &[(Indicators, f64)]) -> Option<TransferModel> {
        if pairs.len() < 3 {
            return None;
        }
        // Features: events present in every observation.
        let mut features: Vec<HwEvent> = pairs[0].0.keys().copied().collect();
        for (v, _) in pairs.iter().skip(1) {
            features.retain(|e| v.contains_key(e));
        }
        // Drop constant features (no identifiable coefficient).
        features.retain(|e| {
            let first = pairs[0].0[e];
            pairs.iter().any(|(v, _)| (v[e] - first).abs() > 1e-9)
        });
        if features.is_empty() {
            return None;
        }

        let n = pairs.len();
        let build = |feats: &[HwEvent], scales: &[f64]| -> (np_linalg::Matrix, np_linalg::Matrix) {
            let mut x = np_linalg::Matrix::zeros(n, feats.len() + 1);
            let mut y = np_linalg::Matrix::zeros(n, 1);
            for (i, (v, cost)) in pairs.iter().enumerate() {
                x[(i, 0)] = 1.0;
                for (j, e) in feats.iter().enumerate() {
                    x[(i, j + 1)] = v[e] / scales[j];
                }
                y[(i, 0)] = *cost;
            }
            (x, y)
        };
        let scale_of = |e: &HwEvent| -> f64 {
            let m = pairs.iter().map(|(v, _)| v[e].abs()).fold(0.0f64, f64::max);
            if m > 0.0 {
                m
            } else {
                1.0
            }
        };

        // Greedy forward selection: keep a feature only while the design
        // stays solvable and enough observations remain.
        let max_cost = pairs
            .iter()
            .map(|(_, c)| c.abs())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut kept: Vec<HwEvent> = Vec::new();
        let mut kept_scales: Vec<f64> = Vec::new();
        for e in features {
            if pairs.len() < kept.len() + 3 {
                break;
            }
            let mut trial = kept.clone();
            let mut trial_scales = kept_scales.clone();
            trial.push(e);
            trial_scales.push(scale_of(&e));
            let (x, y) = build(&trial, &trial_scales);
            match np_linalg::lstsq(&x, &y) {
                // Near-collinear designs pass QR with exploding
                // coefficients; with unit-scaled columns a well-conditioned
                // fit keeps |β| within a few orders of the cost scale.
                Ok(sol)
                    if (0..sol.beta.rows()).all(|i| sol.beta[(i, 0)].abs() < 1e3 * max_cost) =>
                {
                    kept = trial;
                    kept_scales = trial_scales;
                }
                _ => {}
            }
        }
        if kept.is_empty() || pairs.len() < kept.len() + 2 {
            return None;
        }
        let features = kept;
        let scales = kept_scales;
        let k = features.len();
        let (x, y) = build(&features, &scales);
        let sol = np_linalg::lstsq(&x, &y).ok()?;
        let mut beta = vec![sol.beta[(0, 0)]];
        for (j, scale) in scales.iter().enumerate().take(k) {
            beta.push(sol.beta[(j + 1, 0)] / scale);
        }

        // R² on the training data.
        let mean_y: f64 = pairs.iter().map(|(_, c)| c).sum::<f64>() / n as f64;
        let tss: f64 = pairs.iter().map(|(_, c)| (c - mean_y) * (c - mean_y)).sum();
        let r_squared = if tss == 0.0 { 1.0 } else { 1.0 - sol.rss / tss };

        Some(TransferModel {
            features,
            beta,
            r_squared,
        })
    }

    /// Predicts the cost for an indicator vector; `None` when a feature is
    /// missing.
    pub fn predict(&self, indicators: &Indicators) -> Option<f64> {
        let mut cost = self.beta[0];
        for (j, e) in self.features.iter().enumerate() {
            cost += self.beta[j + 1] * indicators.get(e)?;
        }
        Some(cost)
    }

    /// Relative prediction error against a known cost.
    pub fn relative_error(&self, indicators: &Indicators, actual: f64) -> Option<f64> {
        let predicted = self.predict(indicators)?;
        Some((predicted - actual).abs() / actual.abs().max(1e-12))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(pairs: &[(HwEvent, f64)]) -> Indicators {
        pairs.iter().copied().collect::<BTreeMap<_, _>>()
    }

    /// Synthetic machine: cost = 500 + 3·loads + 180·misses, with loads
    /// and misses varied independently so the design has full rank.
    fn training_data() -> Vec<(Indicators, f64)> {
        let mut out = Vec::new();
        for i in 1..6 {
            for j in 1..5 {
                let loads = 900.0 * i as f64;
                let misses = 35.0 * j as f64;
                let cost = 500.0 + 3.0 * loads + 180.0 * misses;
                out.push((
                    vec_of(&[(HwEvent::LoadRetired, loads), (HwEvent::L1dMiss, misses)]),
                    cost,
                ));
            }
        }
        out
    }

    #[test]
    fn recovers_the_cost_structure_exactly() {
        let m = TransferModel::fit(&training_data()).unwrap();
        assert!(m.r_squared > 0.999, "R² {}", m.r_squared);
        let probe = vec_of(&[(HwEvent::LoadRetired, 7_777.0), (HwEvent::L1dMiss, 55.0)]);
        let expected = 500.0 + 3.0 * 7_777.0 + 180.0 * 55.0;
        let got = m.predict(&probe).unwrap();
        assert!(
            (got - expected).abs() / expected < 1e-6,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn fit_is_deterministic() {
        let data = training_data();
        let a = TransferModel::fit(&data).unwrap();
        let b = TransferModel::fit(&data).unwrap();
        assert_eq!(a.features, b.features);
        assert_eq!(a.beta, b.beta, "same pairs must give bit-identical β");
        assert_eq!(a.r_squared, b.r_squared);
    }

    #[test]
    fn transfer_prices_foreign_indicators() {
        // Fit on "machine B" training data, evaluate indicators that were
        // never part of the fit — the Fig. 4b transfer arrow.
        let m = TransferModel::fit(&training_data()).unwrap();
        let foreign = vec_of(&[(HwEvent::LoadRetired, 123.0), (HwEvent::L1dMiss, 321.0)]);
        let err = m
            .relative_error(&foreign, 500.0 + 3.0 * 123.0 + 180.0 * 321.0)
            .unwrap();
        assert!(err < 1e-6, "transfer error {err}");
    }

    #[test]
    fn missing_feature_fails_prediction() {
        let m = TransferModel::fit(&training_data()).unwrap();
        assert!(m
            .predict(&vec_of(&[(HwEvent::LoadRetired, 10.0)]))
            .is_none());
    }

    #[test]
    fn too_little_data_rejected() {
        let data = training_data().into_iter().take(2).collect::<Vec<_>>();
        assert!(TransferModel::fit(&data).is_none());
    }
}
